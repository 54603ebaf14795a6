//! Device-level timing and energy constants.
//!
//! Every constant documents where its value comes from. Two kinds of
//! provenance appear:
//!
//! * **device literature** — typical 32 nm NVM-PIM values in the range
//!   reported by the tools the paper used (NVSim, NVSim-CAM, CACTI) and by
//!   the ISAAC/PRIME/Helix/PARC line of work;
//! * **Table 2 back-solve** — per-op energies derived by spreading a module's
//!   published power (paper Table 2) over its parallel units at the device
//!   cycle time.

use genpip_sim::SimTime;

/// The GenPIP technology constants (32 nm node, as in the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PimTech {
    /// NVM crossbar read cycle — the latency of one in-situ MVM
    /// (device literature: ISAAC-class crossbars take ≈100 ns per analog
    /// read cycle including DAC/S&H/ADC).
    pub t_mvm_cycle: SimTime,
    /// Depth, in crossbar cycles, of the PIM basecaller's inference
    /// pipeline.
    ///
    /// Our substituted basecaller needs one `states × 3` MVM per sample, but
    /// Helix accelerates Bonito-class CTC networks whose per-timestep
    /// inference spans hundreds of crossbar reads across layers. The 168
    /// tiles form one deep sample-pipeline: throughput is one sample per
    /// crossbar cycle once the pipeline is full, and this depth is the
    /// per-chunk fill latency. The resulting module throughput (≈10 M
    /// samples/s) makes the PIM basecaller ≈30× faster per base than the
    /// CPU software basecaller — the relation implied by the paper's 41.6×
    /// (GenPIP vs CPU) and 1.39× (GenPIP vs PIM) results.
    pub bc_pipeline_depth_cycles: usize,
    /// Initiation interval of the basecalling pipeline in crossbar cycles:
    /// a new sample enters every `II` cycles (analog sample-and-hold and ADC
    /// sharing prevent single-cycle initiation). With II = 2 the module
    /// sustains ≈5 M samples/s, placing the PIM basecaller ≈28× above the
    /// CPU software basecaller — the paper-implied relation (41.6 / 1.39).
    pub bc_initiation_interval_cycles: usize,
    /// Energy per sample streamed through the basecalling pipeline
    /// (Table 2 back-solve: the 27.1 W module retires one sample per
    /// II × 100 ns when busy ⇒ ≈5.4 µJ/sample).
    pub e_bc_per_sample: f64,
    /// Energy of one crossbar MVM op
    /// (Table 2 back-solve: 27.1 W over 168 tiles at 100 ns/op ⇒ ≈16 nJ).
    pub e_mvm_op: f64,
    /// One CAM search across an 832×128 array
    /// (device literature: NVSim-CAM reports 1–3 ns search latency).
    pub t_cam_search: SimTime,
    /// Energy per CAM search
    /// (device literature: ≈1–2 fJ/bit over ~10⁵ bits ⇒ ≈0.2 nJ).
    pub e_cam_search: f64,
    /// ReRAM RAM read of one location list entry
    /// (device literature: NVSim ReRAM read ≈5–15 ns).
    pub t_ram_read: SimTime,
    /// Energy per RAM read (device literature: ≈0.1 nJ per 16 B line).
    pub e_ram_read: f64,
    /// One DP-unit step — one chaining predecessor evaluation or one
    /// alignment anti-diagonal row slot (PARC-class CAM-assisted DP executes
    /// one step per ~5 ns cycle).
    pub t_dp_step: SimTime,
    /// Energy per DP step
    /// (Table 2 back-solve: 85 W over 1024 units at 5 ns ⇒ ≈0.42 nJ).
    pub e_dp_step: f64,
    /// Energy per individual alignment DP cell — one step evaluates a whole
    /// band row in parallel, so per-cell energy ≈ `e_dp_step / band width`
    /// (≈0.42 nJ / ~100 cells ⇒ ≈4.2 pJ). The functional mapper's corridor
    /// fills 70 cells a row at the mean on the E. coli profile (65 columns of
    /// margin plus the drift allowance), so the ~100-cell row is the one it
    /// really asks of a DP unit, with headroom.
    pub e_dp_cell: f64,
    /// PIM-CQS: one chunk-quality summation (a single 16×1024 MVM read
    /// cycle; SOT-MRAM arrays cycle faster than ReRAM, ≈50 ns).
    pub t_cqs_op: SimTime,
    /// Energy per CQS op (Table 2 back-solve: 0.307 W at 50 ns duty ⇒ ≈15 nJ
    /// peak; scaled by the 16×1024 array's small size to ≈2 nJ).
    pub e_cqs_op: f64,
    /// eDRAM access energy per byte (CACTI-class: ≈1 pJ/B at 32 nm).
    pub e_edram_byte: f64,
    /// Controller decision latency: the time from a deciding chunk's quality
    /// sum / chaining score being available to the ER signal reaching the
    /// basecalling module (a few pipeline registers plus a compare; logic
    /// synthesis at 1.6 GHz ⇒ tens of ns).
    pub t_er_decision: SimTime,
    /// Number of basecaller tiles (Table 2: 168).
    pub basecall_tiles: usize,
    /// Number of in-memory seeding units (Table 2: 4096).
    pub seeding_units: usize,
    /// Number of DP units (Table 2: 1024).
    pub dp_units: usize,
}

impl PimTech {
    /// The paper's 32 nm configuration.
    pub fn paper_32nm() -> PimTech {
        PimTech {
            t_mvm_cycle: SimTime::from_ns(100.0),
            bc_pipeline_depth_cycles: 240,
            bc_initiation_interval_cycles: 2,
            e_bc_per_sample: 5.42e-6,
            e_mvm_op: 16.1e-9,
            t_cam_search: SimTime::from_ns(2.0),
            e_cam_search: 0.2e-9,
            t_ram_read: SimTime::from_ns(10.0),
            e_ram_read: 0.1e-9,
            t_dp_step: SimTime::from_ns(5.0),
            e_dp_step: 0.42e-9,
            e_dp_cell: 4.2e-12,
            t_cqs_op: SimTime::from_ns(50.0),
            e_cqs_op: 2.0e-9,
            e_edram_byte: 1.0e-12,
            t_er_decision: SimTime::from_ns(50.0),
            basecall_tiles: 168,
            seeding_units: 4096,
            dp_units: 1024,
        }
    }
}

impl Default for PimTech {
    fn default() -> PimTech {
        PimTech::paper_32nm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_table2_unit_counts() {
        let t = PimTech::paper_32nm();
        assert_eq!(t.basecall_tiles, 168);
        assert_eq!(t.seeding_units, 4096);
        assert_eq!(t.dp_units, 1024);
    }

    #[test]
    fn mvm_energy_is_consistent_with_module_power() {
        // e_mvm ≈ module power / tiles × cycle time.
        let t = PimTech::paper_32nm();
        let implied = 27.1 / t.basecall_tiles as f64 * t.t_mvm_cycle.as_secs();
        assert!((t.e_mvm_op - implied).abs() / implied < 0.05);
    }

    #[test]
    fn basecall_sample_energy_is_consistent_with_module_power() {
        // One sample per II cycles at the module's 27.1 W Table 2 power.
        let t = PimTech::paper_32nm();
        let implied = 27.1 * t.t_mvm_cycle.as_secs() * t.bc_initiation_interval_cycles as f64;
        assert!((t.e_bc_per_sample - implied).abs() / implied < 0.05);
    }

    #[test]
    fn dp_energy_is_consistent_with_module_power() {
        let t = PimTech::paper_32nm();
        let implied = 85.0 / t.dp_units as f64 * t.t_dp_step.as_secs();
        assert!((t.e_dp_step - implied).abs() / implied < 0.05);
    }

    #[test]
    fn latencies_are_ordered_sensibly() {
        let t = PimTech::paper_32nm();
        // CAM search < DP step < RAM read < CQS < MVM cycle.
        assert!(t.t_cam_search < t.t_dp_step);
        assert!(t.t_dp_step < t.t_ram_read);
        assert!(t.t_ram_read < t.t_cqs_op);
        assert!(t.t_cqs_op < t.t_mvm_cycle);
    }
}
