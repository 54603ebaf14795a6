//! GenPIP hardware modules as cost models.
//!
//! Each module converts the *measured* workload counters produced by the
//! functional pipeline (samples basecalled, CAM lookups, anchors chained,
//! alignment cells) into service times and energies, using the device
//! constants of [`crate::PimTech`]. The system simulator in `genpip-core`
//! schedules chunks across these modules with `genpip-sim`'s pipeline
//! scheduler.

use crate::params::PimTech;
use genpip_sim::SimTime;

/// The Helix-like PIM basecalling module (paper Figure 8 ➊): 168 crossbar
/// tiles forming one deep inference pipeline. Once the pipeline is full it
/// retires one signal sample per crossbar cycle; a chunk additionally pays
/// the pipeline-fill latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BasecallModule {
    tech: PimTech,
}

impl BasecallModule {
    /// Creates the module from technology constants.
    pub fn new(tech: PimTech) -> BasecallModule {
        BasecallModule { tech }
    }

    /// Number of independent chunk streams the module serves (one deep
    /// pipeline ⇒ one stream; scheduling treats the module as one server).
    pub fn streams(&self) -> usize {
        1
    }

    /// Service time to basecall a chunk of `samples` raw samples: one
    /// sample per initiation interval plus the pipeline-fill latency.
    pub fn chunk_service(&self, samples: usize) -> SimTime {
        if samples == 0 {
            return SimTime::ZERO;
        }
        let cycles =
            samples * self.tech.bc_initiation_interval_cycles + self.tech.bc_pipeline_depth_cycles;
        self.tech.t_mvm_cycle * cycles as u64
    }

    /// Energy to basecall a chunk: the busy module streams one sample per
    /// cycle at its Table 2 power.
    pub fn chunk_energy(&self, mvm_ops: usize) -> f64 {
        mvm_ops as f64 * self.tech.e_bc_per_sample
    }
}

/// The PIM-CQS unit (paper Figure 8 ➋): sums a chunk's per-base quality
/// scores with one all-ones MVM on a 16×1024 SOT-MRAM array
/// (Section 4.3.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CqsModule {
    tech: PimTech,
}

impl CqsModule {
    /// Creates the module from technology constants.
    pub fn new(tech: PimTech) -> CqsModule {
        CqsModule { tech }
    }

    /// Service time of one chunk-quality summation.
    pub fn chunk_service(&self) -> SimTime {
        self.tech.t_cqs_op
    }

    /// Energy of one chunk-quality summation.
    pub fn chunk_energy(&self) -> f64 {
        self.tech.e_cqs_op
    }
}

/// The in-memory seeding module (paper Figure 9): per chunk, the query
/// string generator shifts through the chunk one base at a time, each shift
/// searching the ReRAM CAM; hits read the location lists from ReRAM RAM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeedingModule {
    tech: PimTech,
}

impl SeedingModule {
    /// Creates the module from technology constants.
    pub fn new(tech: PimTech) -> SeedingModule {
        SeedingModule { tech }
    }

    /// Number of parallel seeding units.
    pub fn units(&self) -> usize {
        self.tech.seeding_units
    }

    /// Service time to seed a chunk of `chunk_bases` bases yielding
    /// `location_reads` reference locations: one CAM search per base shift
    /// plus one RAM read per location.
    pub fn chunk_service(&self, chunk_bases: usize, location_reads: usize) -> SimTime {
        self.tech.t_cam_search * chunk_bases as u64 + self.tech.t_ram_read * location_reads as u64
    }

    /// Energy for the same work.
    pub fn chunk_energy(&self, chunk_bases: usize, location_reads: usize) -> f64 {
        chunk_bases as f64 * self.tech.e_cam_search + location_reads as f64 * self.tech.e_ram_read
    }
}

/// The PARC-like DP module (paper Figure 8 ➎): 1024 units shared between
/// chaining (during chunk streaming) and sequence alignment (at read
/// completion).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DpModule {
    tech: PimTech,
}

impl DpModule {
    /// Creates the module from technology constants.
    pub fn new(tech: PimTech) -> DpModule {
        DpModule { tech }
    }

    /// Number of DP units.
    pub fn units(&self) -> usize {
        self.tech.dp_units
    }

    /// Service time to chain `anchors` new anchors: the CAM-assisted DP
    /// evaluates all predecessors of one anchor in parallel, one anchor per
    /// step.
    pub fn chain_service(&self, anchors: usize) -> SimTime {
        self.tech.t_dp_step * anchors as u64
    }

    /// Chaining energy: one parallel predecessor evaluation per anchor.
    pub fn chain_energy(&self, anchors: usize) -> f64 {
        anchors as f64 * self.tech.e_dp_step
    }

    /// Service time to align a read of `query_len` bases: the banded DP
    /// advances one query row per step, the whole band row in parallel.
    pub fn align_service(&self, query_len: usize) -> SimTime {
        self.tech.t_dp_step * query_len as u64
    }

    /// Alignment energy, charged per DP cell actually computed.
    pub fn align_energy(&self, cells: usize) -> f64 {
        cells as f64 * self.tech.e_dp_cell
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tech() -> PimTech {
        PimTech::paper_32nm()
    }

    #[test]
    fn basecall_service_scales_with_samples() {
        let m = BasecallModule::new(tech());
        assert_eq!(m.streams(), 1);
        assert_eq!(m.chunk_service(0), genpip_sim::SimTime::ZERO);
        // 2400-sample chunk: (2400×2 + 240 fill) cycles × 100 ns = 504 µs.
        assert!((m.chunk_service(2400).as_secs() - 504e-6).abs() < 1e-12);
        // Throughput once full: ~5 M samples/s ⇒ 1 M samples ≈ 0.2 s.
        assert!((m.chunk_service(1_000_000).as_secs() - 0.200024).abs() < 1e-6);
    }

    #[test]
    fn basecall_energy_scales_with_mvms() {
        let m = BasecallModule::new(tech());
        assert_eq!(m.chunk_energy(0), 0.0);
        let expected = 1000.0 * tech().e_bc_per_sample;
        assert!((m.chunk_energy(1000) - expected).abs() < 1e-12);
    }

    #[test]
    fn cqs_is_one_cheap_op() {
        let m = CqsModule::new(tech());
        assert!(m.chunk_service() < BasecallModule::new(tech()).chunk_service(10));
        assert!(m.chunk_energy() < 1e-7);
    }

    #[test]
    fn seeding_charges_shifts_and_hits() {
        let m = SeedingModule::new(tech());
        assert_eq!(m.units(), 4096);
        let base = m.chunk_service(300, 0);
        let with_hits = m.chunk_service(300, 50);
        assert!(with_hits > base);
        assert_eq!(base, tech().t_cam_search * 300);
        assert!(m.chunk_energy(300, 50) > m.chunk_energy(300, 0));
    }

    #[test]
    fn seeding_keeps_up_with_basecalling() {
        // The paper designs the seeding unit so it never bottlenecks the
        // chunk pipeline: a 300-base chunk must seed far faster than it
        // basecalls (2400 samples).
        let s = SeedingModule::new(tech());
        let b = BasecallModule::new(tech());
        assert!(s.chunk_service(300, 100).as_ns() * 10.0 < b.chunk_service(2400).as_ns());
    }

    #[test]
    fn dp_module_costs() {
        let m = DpModule::new(tech());
        assert_eq!(m.units(), 1024);
        assert_eq!(m.chain_service(100), tech().t_dp_step * 100);
        assert_eq!(m.align_service(9000), tech().t_dp_step * 9000);
        assert!(m.align_energy(1_000_000) > m.chain_energy(100));
    }
}
