//! Time/energy models of the software systems (CPU, GPU, ±CP, ±GP).
//!
//! The conventional software flow (paper Figure 1) moves raw signals from
//! the sequencer to the basecalling machine, basecalls, ships the basecalled
//! reads to the analysis machine, quality-controls, and maps — strictly in
//! phases. CP overlaps the phases (chunk streaming); GP additionally runs on
//! the ER-reduced workload. All times are workload counters × calibrated
//! per-op costs; see [`crate::systems::costs`].

use crate::pipeline::{PipelineRun, WorkloadTotals};
use crate::systems::costs::SoftwareCosts;
use genpip_sim::{EnergyMeter, SimTime};

/// Which processor basecalls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BasecallDevice {
    /// CPU software basecaller.
    Cpu,
    /// GPU software basecaller.
    Gpu,
}

/// The phase times of a software system on a given workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SoftwarePhases {
    /// Raw-signal transfer (sequencer → basecalling machine).
    pub t_raw_transfer: SimTime,
    /// Basecalling.
    pub t_basecall: SimTime,
    /// Basecalled-read transfer (basecalling → analysis machine).
    pub t_called_transfer: SimTime,
    /// Read quality control.
    pub t_qc: SimTime,
    /// Read mapping (seeding + chaining + alignment).
    pub t_map: SimTime,
}

impl SoftwarePhases {
    /// Computes the phases for a workload.
    pub fn from_workload(
        totals: &WorkloadTotals,
        costs: &SoftwareCosts,
        device: BasecallDevice,
    ) -> SoftwarePhases {
        let bc_per_base = match device {
            BasecallDevice::Cpu => costs.cpu_basecall_per_base,
            BasecallDevice::Gpu => costs.cpu_basecall_per_base / costs.gpu_basecall_speedup,
        };
        SoftwarePhases {
            t_raw_transfer: SimTime::from_secs(totals.raw_bytes as f64 / costs.link_bandwidth),
            t_basecall: SimTime::from_secs(totals.bases_called as f64 * bc_per_base),
            t_called_transfer: SimTime::from_secs(
                totals.called_bytes as f64 / costs.link_bandwidth,
            ),
            t_qc: SimTime::from_secs(totals.bases_called as f64 * costs.cpu_qc_per_base),
            t_map: SimTime::from_secs(
                totals.minimizers as f64 * costs.cpu_minimizer
                    + totals.anchors as f64 * costs.cpu_seed_per_anchor
                    + totals.chain_evals as f64 * costs.cpu_chain_per_eval
                    + totals.align_cells as f64 * costs.cpu_align_per_cell,
            ),
        }
    }

    /// Sequential (conventional) wall time: all phases back to back.
    pub fn sequential_time(&self) -> SimTime {
        self.t_raw_transfer + self.t_basecall + self.t_called_transfer + self.t_qc + self.t_map
    }

    /// CP (chunk-pipelined) wall time: transfers and compute phases overlap,
    /// so the pipeline runs at the slowest stage.
    pub fn pipelined_time(&self) -> SimTime {
        self.t_raw_transfer
            .max(self.t_basecall)
            .max(self.t_qc + self.t_map)
    }
}

/// Evaluation of one software system: time + energy breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct SoftwareEvaluation {
    /// Wall-clock time.
    pub time: SimTime,
    /// Energy breakdown by component.
    pub energy: EnergyMeter,
    /// The phase decomposition (for reports).
    pub phases: SoftwarePhases,
}

/// Evaluates a software system.
///
/// `pipelined` selects CP semantics (overlapped stages); the workload inside
/// `run` decides whether ER was active (GP variants pass an ER workload).
pub fn evaluate_software(
    run: &PipelineRun,
    costs: &SoftwareCosts,
    device: BasecallDevice,
    pipelined: bool,
) -> SoftwareEvaluation {
    let totals = run.totals();
    let phases = SoftwarePhases::from_workload(&totals, costs, device);
    let time = if pipelined {
        phases.pipelined_time()
    } else {
        phases.sequential_time()
    };

    let mut energy = EnergyMeter::new();
    match device {
        BasecallDevice::Cpu => {
            energy.add(
                "cpu-basecall",
                phases.t_basecall.as_secs() * costs.p_cpu_busy,
            );
        }
        BasecallDevice::Gpu => {
            energy.add(
                "gpu-basecall",
                phases.t_basecall.as_secs() * costs.p_gpu_busy,
            );
            // The GPU idles (but stays powered) while the host maps.
            energy.add(
                "gpu-idle",
                (phases.t_qc + phases.t_map).as_secs() * costs.p_gpu_idle,
            );
        }
    }
    energy.add(
        "cpu-analysis",
        (phases.t_qc + phases.t_map).as_secs() * costs.p_cpu_busy,
    );
    // CP streams chunks instead of staging whole datasets, but the bytes
    // still cross the links.
    energy.add(
        "data-movement",
        (totals.raw_bytes + totals.called_bytes) as f64 * costs.link_energy_per_byte,
    );
    SoftwareEvaluation {
        time,
        energy,
        phases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GenPipConfig;
    use crate::engine::Flow;
    use crate::pipeline::{ErMode, PipelineRun};
    use genpip_datasets::DatasetProfile;

    fn workloads() -> (PipelineRun, PipelineRun, PipelineRun) {
        let d = DatasetProfile::ecoli().scaled(0.05).generate();
        let config = GenPipConfig::for_dataset(&d.profile);
        (
            PipelineRun::collect(&d, &config, Flow::Conventional),
            PipelineRun::collect(&d, &config, Flow::GenPip(ErMode::None)),
            PipelineRun::collect(&d, &config, Flow::GenPip(ErMode::Full)),
        )
    }

    #[test]
    fn basecalling_to_mapping_ratio_matches_paper_band() {
        // The paper's real-system study: basecalling ≈ 3100 CPU·h vs
        // mapping ≈ 500 CPU·h, a ratio of ≈6.2. Demand the same order.
        let (conv, _, _) = workloads();
        let costs = SoftwareCosts::calibrated();
        let p = SoftwarePhases::from_workload(&conv.totals(), &costs, BasecallDevice::Cpu);
        let ratio = p.t_basecall.as_secs() / p.t_map.as_secs();
        assert!(
            (3.0..12.0).contains(&ratio),
            "basecall:map ratio {ratio}, want ≈6.2"
        );
        // QC is negligible next to both (paper: ~1 CPU·h).
        assert!(p.t_qc.as_secs() * 50.0 < p.t_basecall.as_secs());
        // Transfer is a small but nonzero slice.
        let transfer = (p.t_raw_transfer + p.t_called_transfer).as_secs();
        assert!(transfer > 0.0);
        assert!(transfer < 0.15 * p.sequential_time().as_secs());
    }

    #[test]
    fn cp_speeds_up_both_devices() {
        let (conv, cp, _) = workloads();
        let costs = SoftwareCosts::calibrated();
        for device in [BasecallDevice::Cpu, BasecallDevice::Gpu] {
            let base = evaluate_software(&conv, &costs, device, false);
            let with_cp = evaluate_software(&cp, &costs, device, true);
            let speedup = base.time.as_secs() / with_cp.time.as_secs();
            assert!(
                speedup > 1.05 && speedup < 2.5,
                "{device:?} CP speedup {speedup}"
            );
        }
    }

    #[test]
    fn gp_speeds_up_over_cp() {
        let (_, cp, gp) = workloads();
        let costs = SoftwareCosts::calibrated();
        for device in [BasecallDevice::Cpu, BasecallDevice::Gpu] {
            let with_cp = evaluate_software(&cp, &costs, device, true);
            let with_gp = evaluate_software(&gp, &costs, device, true);
            assert!(
                with_gp.time < with_cp.time,
                "{device:?}: GP {} not faster than CP {}",
                with_gp.time,
                with_cp.time
            );
        }
    }

    #[test]
    fn gpu_is_faster_than_cpu_but_not_free() {
        let (conv, _, _) = workloads();
        let costs = SoftwareCosts::calibrated();
        let cpu = evaluate_software(&conv, &costs, BasecallDevice::Cpu, false);
        let gpu = evaluate_software(&conv, &costs, BasecallDevice::Gpu, false);
        let speedup = cpu.time.as_secs() / gpu.time.as_secs();
        assert!(
            (2.0..10.0).contains(&speedup),
            "GPU speedup {speedup}, paper ≈5"
        );
        // GPU system still burns comparable energy (power-hungry device).
        assert!(gpu.energy.total() > 0.2 * cpu.energy.total());
        assert!(gpu.energy.total() < cpu.energy.total());
    }

    #[test]
    fn energy_breakdown_has_expected_components() {
        let (conv, _, _) = workloads();
        let costs = SoftwareCosts::calibrated();
        let gpu = evaluate_software(&conv, &costs, BasecallDevice::Gpu, false);
        assert!(gpu.energy.component("gpu-basecall") > 0.0);
        assert!(gpu.energy.component("gpu-idle") > 0.0);
        assert!(gpu.energy.component("cpu-analysis") > 0.0);
        assert!(gpu.energy.component("data-movement") > 0.0);
        let cpu = evaluate_software(&conv, &costs, BasecallDevice::Cpu, false);
        assert!(cpu.energy.component("cpu-basecall") > cpu.energy.component("cpu-analysis"));
    }
}
