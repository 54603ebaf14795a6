//! The evaluated system configurations.
//!
//! The paper compares ten systems (Section 5): software baselines with and
//! without GenPIP's techniques retrofitted (CPU, CPU-CP, CPU-GP, GPU,
//! GPU-CP, GPU-GP), the optimistic Helix+PARC pairing (PIM), and three
//! GenPIP variants (GenPIP-CP, GenPIP-CP-QSR, GenPIP). Every system is a
//! cost model over one of four *measured* workloads:
//!
//! | workload | produced by | consumed by |
//! |---|---|---|
//! | conventional | [`crate::engine::Flow::Conventional`] | CPU, GPU, PIM |
//! | CP | [`crate::engine::Flow::GenPip`] + [`ErMode::None`] | CPU-CP, GPU-CP, GenPIP-CP |
//! | CP+QSR | [`ErMode::QsrOnly`] | GenPIP-CP-QSR |
//! | CP+ER | [`ErMode::Full`] | CPU-GP, GPU-GP, GenPIP |

pub mod costs;
pub mod hardware;
pub mod potential;
pub mod software;

use crate::config::GenPipConfig;
use crate::engine::Flow;
use crate::pipeline::{ErMode, PipelineRun};
use genpip_datasets::SimulatedDataset;
use genpip_pim::PimTech;
use genpip_sim::{EnergyMeter, SimTime};

pub use costs::SoftwareCosts;
pub use hardware::{evaluate_genpip, evaluate_pim_baseline, HardwareEvaluation};
pub use software::{evaluate_software, BasecallDevice, SoftwarePhases};

/// One of the ten evaluated systems.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// CPU Bonito + CPU minimap2, conventional flow.
    Cpu,
    /// CPU with the chunk-based pipeline retrofitted.
    CpuCp,
    /// CPU with CP + ER ("GP" = GenPIP techniques).
    CpuGp,
    /// GPU Bonito + CPU minimap2, conventional flow.
    Gpu,
    /// GPU with CP retrofitted.
    GpuCp,
    /// GPU with CP + ER.
    GpuGp,
    /// Helix + PARC, optimistically connected (no transfer cost, free QC).
    Pim,
    /// GenPIP with the chunk-based pipeline only.
    GenPipCp,
    /// GenPIP with CP + QSR.
    GenPipCpQsr,
    /// Full GenPIP (CP + QSR + CMR).
    GenPip,
}

impl SystemKind {
    /// All ten systems in the paper's presentation order.
    pub const ALL: [SystemKind; 10] = [
        SystemKind::Cpu,
        SystemKind::CpuCp,
        SystemKind::CpuGp,
        SystemKind::Gpu,
        SystemKind::GpuCp,
        SystemKind::GpuGp,
        SystemKind::Pim,
        SystemKind::GenPipCp,
        SystemKind::GenPipCpQsr,
        SystemKind::GenPip,
    ];

    /// The system's display name, as in Figures 10–11.
    pub fn name(&self) -> &'static str {
        match self {
            SystemKind::Cpu => "CPU",
            SystemKind::CpuCp => "CPU-CP",
            SystemKind::CpuGp => "CPU-GP",
            SystemKind::Gpu => "GPU",
            SystemKind::GpuCp => "GPU-CP",
            SystemKind::GpuGp => "GPU-GP",
            SystemKind::Pim => "PIM",
            SystemKind::GenPipCp => "GenPIP-CP",
            SystemKind::GenPipCpQsr => "GenPIP-CP-QSR",
            SystemKind::GenPip => "GenPIP",
        }
    }
}

impl std::fmt::Display for SystemKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The four measured workloads for one (dataset, configuration) pair.
#[derive(Debug, Clone)]
pub struct WorkloadSet {
    /// Conventional flow (Figure 5a).
    pub conventional: PipelineRun,
    /// Chunk-based pipeline, no ER.
    pub cp_only: PipelineRun,
    /// CP + QSR.
    pub cp_qsr: PipelineRun,
    /// CP + QSR + CMR.
    pub cp_full: PipelineRun,
}

impl WorkloadSet {
    /// Runs all four functional pipelines over a dataset.
    pub fn build(dataset: &SimulatedDataset, config: &GenPipConfig) -> WorkloadSet {
        WorkloadSet {
            conventional: PipelineRun::collect(dataset, config, Flow::Conventional),
            cp_only: PipelineRun::collect(dataset, config, Flow::GenPip(ErMode::None)),
            cp_qsr: PipelineRun::collect(dataset, config, Flow::GenPip(ErMode::QsrOnly)),
            cp_full: PipelineRun::collect(dataset, config, Flow::GenPip(ErMode::Full)),
        }
    }
}

/// Cost-constant bundle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemCosts {
    /// Software per-op costs, powers, link parameters.
    pub software: SoftwareCosts,
    /// PIM device constants.
    pub tech: PimTech,
}

impl Default for SystemCosts {
    fn default() -> SystemCosts {
        SystemCosts {
            software: SoftwareCosts::calibrated(),
            tech: PimTech::paper_32nm(),
        }
    }
}

/// Evaluation of one system on one workload set.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemEvaluation {
    /// Which system.
    pub kind: SystemKind,
    /// Wall-clock time.
    pub time: SimTime,
    /// Energy breakdown.
    pub energy: EnergyMeter,
}

impl SystemEvaluation {
    /// Total energy in joules.
    pub fn energy_j(&self) -> f64 {
        self.energy.total()
    }
}

/// Evaluates one system.
pub fn evaluate(
    kind: SystemKind,
    workloads: &WorkloadSet,
    costs: &SystemCosts,
) -> SystemEvaluation {
    use BasecallDevice::{Cpu, Gpu};
    let (time, energy) = match kind {
        SystemKind::Cpu => {
            let e = evaluate_software(&workloads.conventional, &costs.software, Cpu, false);
            (e.time, e.energy)
        }
        SystemKind::CpuCp => {
            let e = evaluate_software(&workloads.cp_only, &costs.software, Cpu, true);
            (e.time, e.energy)
        }
        SystemKind::CpuGp => {
            let e = evaluate_software(&workloads.cp_full, &costs.software, Cpu, true);
            (e.time, e.energy)
        }
        SystemKind::Gpu => {
            let e = evaluate_software(&workloads.conventional, &costs.software, Gpu, false);
            (e.time, e.energy)
        }
        SystemKind::GpuCp => {
            let e = evaluate_software(&workloads.cp_only, &costs.software, Gpu, true);
            (e.time, e.energy)
        }
        SystemKind::GpuGp => {
            let e = evaluate_software(&workloads.cp_full, &costs.software, Gpu, true);
            (e.time, e.energy)
        }
        SystemKind::Pim => {
            let e =
                evaluate_pim_baseline(&workloads.conventional, &costs.software, &costs.tech, false);
            (e.time, e.energy)
        }
        SystemKind::GenPipCp => {
            let e = evaluate_genpip(&workloads.cp_only, &costs.software, &costs.tech);
            (e.time, e.energy)
        }
        SystemKind::GenPipCpQsr => {
            let e = evaluate_genpip(&workloads.cp_qsr, &costs.software, &costs.tech);
            (e.time, e.energy)
        }
        SystemKind::GenPip => {
            let e = evaluate_genpip(&workloads.cp_full, &costs.software, &costs.tech);
            (e.time, e.energy)
        }
    };
    SystemEvaluation { kind, time, energy }
}

/// Evaluates all ten systems.
pub fn evaluate_all(workloads: &WorkloadSet, costs: &SystemCosts) -> Vec<SystemEvaluation> {
    SystemKind::ALL
        .iter()
        .map(|&kind| evaluate(kind, workloads, costs))
        .collect()
}

/// Speedup of each evaluation relative to the `baseline` system's time.
///
/// # Panics
///
/// Panics if `baseline` is absent from `evals`.
pub fn speedups_vs(evals: &[SystemEvaluation], baseline: SystemKind) -> Vec<(SystemKind, f64)> {
    let base = evals
        .iter()
        .find(|e| e.kind == baseline)
        .expect("baseline system missing")
        .time
        .as_secs();
    evals
        .iter()
        .map(|e| (e.kind, base / e.time.as_secs()))
        .collect()
}

/// Energy reduction of each evaluation relative to the `baseline` system.
///
/// # Panics
///
/// Panics if `baseline` is absent from `evals`.
pub fn energy_reductions_vs(
    evals: &[SystemEvaluation],
    baseline: SystemKind,
) -> Vec<(SystemKind, f64)> {
    let base = evals
        .iter()
        .find(|e| e.kind == baseline)
        .expect("baseline system missing")
        .energy_j();
    evals
        .iter()
        .map(|e| (e.kind, base / e.energy_j()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use genpip_datasets::DatasetProfile;

    fn eval_all() -> Vec<SystemEvaluation> {
        let d = DatasetProfile::ecoli().scaled(0.08).generate();
        let config = GenPipConfig::for_dataset(&d.profile);
        let workloads = WorkloadSet::build(&d, &config);
        evaluate_all(&workloads, &SystemCosts::default())
    }

    #[test]
    fn paper_orderings_hold() {
        let evals = eval_all();
        let speedups = speedups_vs(&evals, SystemKind::Cpu);
        let get = |k: SystemKind| speedups.iter().find(|(s, _)| *s == k).unwrap().1;
        // Figure 10's structure.
        assert!(get(SystemKind::GenPip) > get(SystemKind::GenPipCpQsr));
        assert!(get(SystemKind::GenPipCpQsr) > get(SystemKind::GenPipCp));
        assert!(get(SystemKind::GenPipCp) > get(SystemKind::Pim));
        assert!(get(SystemKind::Pim) > get(SystemKind::Gpu));
        assert!(get(SystemKind::Gpu) > get(SystemKind::Cpu));
        assert!(get(SystemKind::CpuGp) > get(SystemKind::CpuCp));
        assert!(get(SystemKind::CpuCp) > 1.0);
        assert!(get(SystemKind::GpuGp) > get(SystemKind::GpuCp));
        assert!(get(SystemKind::GpuCp) > get(SystemKind::Gpu));
    }

    #[test]
    fn headline_factors_are_in_band() {
        let evals = eval_all();
        let speedups = speedups_vs(&evals, SystemKind::Cpu);
        let get = |k: SystemKind| speedups.iter().find(|(s, _)| *s == k).unwrap().1;
        let genpip_vs_cpu = get(SystemKind::GenPip);
        let genpip_vs_gpu = genpip_vs_cpu / get(SystemKind::Gpu);
        let genpip_vs_pim = genpip_vs_cpu / get(SystemKind::Pim);
        assert!(
            (20.0..80.0).contains(&genpip_vs_cpu),
            "GenPIP vs CPU {genpip_vs_cpu}, paper 41.6"
        );
        assert!(
            (4.0..16.0).contains(&genpip_vs_gpu),
            "GenPIP vs GPU {genpip_vs_gpu}, paper 8.4"
        );
        assert!(
            (1.1..1.9).contains(&genpip_vs_pim),
            "GenPIP vs PIM {genpip_vs_pim}, paper 1.39"
        );
    }

    #[test]
    fn energy_orderings_hold() {
        let evals = eval_all();
        let reductions = energy_reductions_vs(&evals, SystemKind::Cpu);
        let get = |k: SystemKind| reductions.iter().find(|(s, _)| *s == k).unwrap().1;
        assert!(get(SystemKind::GenPip) > get(SystemKind::Pim));
        assert!(get(SystemKind::GenPip) > get(SystemKind::Gpu));
        assert!(get(SystemKind::Gpu) > 1.0, "GPU saves energy vs CPU");
        let genpip_vs_pim = get(SystemKind::GenPip) / get(SystemKind::Pim);
        assert!(
            (1.1..2.0).contains(&genpip_vs_pim),
            "GenPIP vs PIM energy {genpip_vs_pim}, paper 1.37"
        );
    }

    #[test]
    fn all_ten_systems_are_evaluated() {
        let evals = eval_all();
        assert_eq!(evals.len(), 10);
        for e in &evals {
            assert!(e.time > SimTime::ZERO, "{} has zero time", e.kind);
            assert!(e.energy_j() > 0.0, "{} has zero energy", e.kind);
        }
    }

    #[test]
    #[should_panic(expected = "baseline system missing")]
    fn missing_baseline_panics() {
        let evals: Vec<SystemEvaluation> = Vec::new();
        let _ = speedups_vs(&evals, SystemKind::Cpu);
    }
}
