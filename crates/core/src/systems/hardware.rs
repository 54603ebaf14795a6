//! Time/energy models of the PIM-class systems.
//!
//! * [`evaluate_genpip`] — GenPIP proper: the chunk jobs recorded by the
//!   functional pipeline are scheduled across the four hardware modules
//!   (basecaller tiles → PIM-CQS → seeding units → DP units) with
//!   `genpip-sim`'s pipeline scheduler. Early-rejected reads simply
//!   contribute fewer jobs — the saving is whatever the schedule says it is.
//! * [`evaluate_pim_baseline`] — the paper's `PIM` comparison point: Helix
//!   and PARC "simply connected" (Section 5), i.e. basecalling and mapping
//!   run as separate phases with the paper's optimistic assumptions (no
//!   transfer latency, free QC, unlimited intermediate memory). Seeding has
//!   no accelerator in that pairing and runs on the host.

use crate::pipeline::{PipelineRun, ReadRun};
use crate::systems::costs::SoftwareCosts;
use genpip_pim::{BasecallModule, CqsModule, DpModule, PimTech, SeedingModule};
use genpip_sim::{EnergyMeter, Job, PipelineSim, SimTime, StageSpec};

/// Evaluation of a PIM-class system.
#[derive(Debug, Clone, PartialEq)]
pub struct HardwareEvaluation {
    /// Wall-clock makespan.
    pub time: SimTime,
    /// Energy breakdown.
    pub energy: EnergyMeter,
    /// Per-stage utilization of the GenPIP schedule (empty for the phase
    /// model).
    pub stage_utilization: Vec<(String, f64)>,
}

/// Module powers from Table 2, used for the leakage charge.
const P_BASECALL_MODULE: f64 = 27.4;
const P_READ_MAPPING_MODULE: f64 = 114.5;
const P_CONTROLLER_MODULE: f64 = 5.3;
/// Helix + PARC standalone chips in the baseline pairing. PARC executes
/// chaining inside CAM arrays, so the standalone pairing carries CAM
/// capacity comparable to GenPIP's seeding module, plus per-chip peripheral
/// and controller power: basecaller 27.4 W + DP 85 W + PARC CAM storage
/// ≈28.2 W + per-chip controllers ≈5.5 W. Integration saves *work and
/// time*, not silicon — the combined baseline draws roughly GenPIP's power.
const P_PIM_BASELINE: f64 = 27.4 + 85.0 + 28.2 + 5.5;

/// Schedules a chunked run on the GenPIP hardware and returns time + energy.
pub fn evaluate_genpip(
    run: &PipelineRun,
    costs: &SoftwareCosts,
    tech: &PimTech,
) -> HardwareEvaluation {
    assert!(
        run.chunked,
        "GenPIP evaluation needs a chunk-granularity run"
    );
    let basecall = BasecallModule::new(*tech);
    let cqs = CqsModule::new(*tech);
    let seeding = SeedingModule::new(*tech);
    let dp = DpModule::new(*tech);

    let sim = PipelineSim::new(vec![
        StageSpec::new("basecall", basecall.streams()).sequential_within_read(),
        StageSpec::new("cqs", 4),
        StageSpec::new("seed", seeding.units()),
        StageSpec::new("dp", dp.units()).sequential_within_read(),
    ]);

    let mut jobs = Vec::new();
    for read in &run.reads {
        for work in &read.chunks {
            let service = vec![
                basecall.chunk_service(work.samples),
                if work.samples > 0 {
                    cqs.chunk_service()
                } else {
                    SimTime::ZERO
                },
                seeding.chunk_service(work.seed_bases, work.anchors),
                dp.chain_service(work.anchors),
            ];
            jobs.push(Job::new(read.id, service));
        }
        if read.align_query_len > 0 {
            jobs.push(Job::new(
                read.id,
                vec![
                    SimTime::ZERO,
                    SimTime::ZERO,
                    SimTime::ZERO,
                    dp.align_service(read.align_query_len),
                ],
            ));
        }
    }
    let report = sim.run(&jobs);

    let totals = run.totals();
    let mut energy = EnergyMeter::new();
    energy.add("basecaller", basecall.chunk_energy(totals.mvm_ops));
    let basecall_entries: usize = run
        .reads
        .iter()
        .map(|r| r.chunks.iter().filter(|c| c.samples > 0).count())
        .sum();
    energy.add("pim-cqs", basecall_entries as f64 * cqs.chunk_energy());
    energy.add(
        "seeding",
        seeding.chunk_energy(totals.seed_bases, totals.anchors),
    );
    energy.add("dp-chain", dp.chain_energy(totals.anchors));
    energy.add("dp-align", dp.align_energy(totals.align_cells));
    // On-chip buffering: raw signal through the read queue, basecalled
    // chunks through the chunk buffer (one write + one read each).
    energy.add(
        "edram-buffers",
        2.0 * (totals.raw_bytes + totals.called_bytes) as f64 * tech.e_edram_byte,
    );
    let leak = costs.pim_leakage_fraction
        * (P_BASECALL_MODULE + P_READ_MAPPING_MODULE + P_CONTROLLER_MODULE)
        * report.makespan.as_secs();
    energy.add("leakage", leak);

    let stage_utilization = sim
        .stages()
        .iter()
        .zip(&report.stage_utilization)
        .map(|(s, &u)| (s.name().to_string(), u))
        .collect();

    HardwareEvaluation {
        time: report.makespan,
        energy,
        stage_utilization,
    }
}

/// Evaluates the Helix+PARC baseline on a conventional run.
///
/// `with_transfers` adds inter-device data movement (used for the Figure 4
/// System B; the Section 6 `PIM` baseline passes `false`, matching the
/// paper's optimistic assumptions).
pub fn evaluate_pim_baseline(
    run: &PipelineRun,
    costs: &SoftwareCosts,
    tech: &PimTech,
    with_transfers: bool,
) -> HardwareEvaluation {
    assert!(
        !run.chunked,
        "the PIM baseline consumes the conventional workload"
    );
    let basecall = BasecallModule::new(*tech);
    let dp = DpModule::new(*tech);
    let totals = run.totals();

    // Phase 1: basecalling on Helix (chunk jobs, tile-parallel, sequential
    // within a read).
    let bc_sim = PipelineSim::new(vec![
        StageSpec::new("basecall", basecall.streams()).sequential_within_read()
    ]);
    let bc_jobs: Vec<Job> = run
        .reads
        .iter()
        .flat_map(|read| {
            read.chunks
                .iter()
                .map(move |work| Job::new(read.id, vec![basecall.chunk_service(work.samples)]))
        })
        .collect();
    let t_basecall = bc_sim.run(&bc_jobs).makespan;

    // Phase 2: host-side seeding (PARC accelerates chaining and alignment
    // only). QC is free per the paper's assumption.
    let t_seed_host = SimTime::from_secs(
        totals.minimizers as f64 * costs.cpu_minimizer
            + totals.anchors as f64 * costs.cpu_seed_per_anchor,
    );

    // Phase 3: chaining + alignment on the PARC DP units, one job per
    // mapped-phase read.
    let dp_sim = PipelineSim::new(vec![StageSpec::new("dp", dp.units())]);
    let dp_jobs: Vec<Job> = run
        .reads
        .iter()
        .filter(|r| r.map_counters.anchors > 0 || r.align_query_len > 0)
        .map(|r: &ReadRun| {
            Job::new(
                r.id,
                vec![
                    dp.chain_service(r.map_counters.anchors) + dp.align_service(r.align_query_len),
                ],
            )
        })
        .collect();
    let t_parc = dp_sim.run(&dp_jobs).makespan;

    let t_transfers = if with_transfers {
        SimTime::from_secs((totals.raw_bytes + totals.called_bytes) as f64 / costs.link_bandwidth)
    } else {
        SimTime::ZERO
    };
    let t_qc = if with_transfers {
        // Figure 4's System B runs QC on a real CPU; the §6 baseline gets it
        // free.
        SimTime::from_secs(totals.bases_called as f64 * costs.cpu_qc_per_base)
    } else {
        SimTime::ZERO
    };
    let time = t_transfers + t_basecall + t_qc + t_seed_host + t_parc;

    let mut energy = EnergyMeter::new();
    energy.add("basecaller", basecall.chunk_energy(totals.mvm_ops));
    energy.add("dp-chain", dp.chain_energy(totals.anchors));
    energy.add("dp-align", dp.align_energy(totals.align_cells));
    energy.add("host-seeding", t_seed_host.as_secs() * costs.p_cpu_busy);
    // Intermediate basecalled reads staged in DRAM between the accelerators
    // (write + read).
    energy.add(
        "dram-staging",
        2.0 * totals.called_bytes as f64 * costs.dram_energy_per_byte,
    );
    energy.add(
        "leakage",
        costs.pim_leakage_fraction * P_PIM_BASELINE * time.as_secs(),
    );
    if with_transfers {
        energy.add(
            "data-movement",
            (totals.raw_bytes + totals.called_bytes) as f64 * costs.link_energy_per_byte,
        );
    }

    HardwareEvaluation {
        time,
        energy,
        stage_utilization: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GenPipConfig;
    use crate::engine::Flow;
    use crate::pipeline::{ErMode, PipelineRun};
    use genpip_datasets::DatasetProfile;

    struct Setup {
        conventional: PipelineRun,
        cp: PipelineRun,
        full: PipelineRun,
        costs: SoftwareCosts,
        tech: PimTech,
    }

    fn setup() -> Setup {
        let d = DatasetProfile::ecoli().scaled(0.08).generate();
        let config = GenPipConfig::for_dataset(&d.profile);
        Setup {
            conventional: PipelineRun::collect(&d, &config, Flow::Conventional),
            cp: PipelineRun::collect(&d, &config, Flow::GenPip(ErMode::None)),
            full: PipelineRun::collect(&d, &config, Flow::GenPip(ErMode::Full)),
            costs: SoftwareCosts::calibrated(),
            tech: PimTech::paper_32nm(),
        }
    }

    #[test]
    fn genpip_cp_beats_the_pim_baseline() {
        let s = setup();
        let pim = evaluate_pim_baseline(&s.conventional, &s.costs, &s.tech, false);
        let cp = evaluate_genpip(&s.cp, &s.costs, &s.tech);
        let speedup = pim.time.as_secs() / cp.time.as_secs();
        assert!(
            (1.02..1.6).contains(&speedup),
            "GenPIP-CP vs PIM speedup {speedup}, paper ≈1.16"
        );
    }

    #[test]
    fn full_er_extends_the_lead() {
        let s = setup();
        let pim = evaluate_pim_baseline(&s.conventional, &s.costs, &s.tech, false);
        let cp = evaluate_genpip(&s.cp, &s.costs, &s.tech);
        let full = evaluate_genpip(&s.full, &s.costs, &s.tech);
        assert!(full.time < cp.time, "ER must shorten the schedule");
        let speedup = pim.time.as_secs() / full.time.as_secs();
        assert!(
            (1.15..2.2).contains(&speedup),
            "GenPIP vs PIM speedup {speedup}, paper ≈1.39"
        );
    }

    #[test]
    fn genpip_energy_beats_pim_baseline() {
        let s = setup();
        let pim = evaluate_pim_baseline(&s.conventional, &s.costs, &s.tech, false);
        let full = evaluate_genpip(&s.full, &s.costs, &s.tech);
        let saving = pim.energy.total() / full.energy.total();
        assert!(
            (1.1..2.0).contains(&saving),
            "energy saving {saving}, paper ≈1.37"
        );
    }

    #[test]
    fn basecaller_stage_dominates_utilization() {
        let s = setup();
        let cp = evaluate_genpip(&s.cp, &s.costs, &s.tech);
        let util: std::collections::HashMap<_, _> = cp.stage_utilization.iter().cloned().collect();
        assert!(util["basecall"] > 10.0 * util["seed"]);
        assert!(util["basecall"] > util["dp"]);
        assert!(
            util["basecall"] > 0.3,
            "basecall utilization {}",
            util["basecall"]
        );
    }

    #[test]
    fn transfers_slow_down_system_b() {
        let s = setup();
        let without = evaluate_pim_baseline(&s.conventional, &s.costs, &s.tech, false);
        let with = evaluate_pim_baseline(&s.conventional, &s.costs, &s.tech, true);
        assert!(with.time > without.time);
        let moved = |e: &genpip_sim::EnergyMeter| {
            e.iter()
                .find(|&(c, _)| c == "data-movement")
                .map_or(0.0, |(_, j)| j)
        };
        assert!(moved(&with.energy) > 0.0);
        assert_eq!(moved(&without.energy), 0.0);
    }

    #[test]
    #[should_panic(expected = "chunk-granularity")]
    fn genpip_rejects_conventional_runs() {
        let s = setup();
        let _ = evaluate_genpip(&s.conventional, &s.costs, &s.tech);
    }
}
