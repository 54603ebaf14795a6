//! Processing-in-memory hardware models.
//!
//! The paper evaluates GenPIP with component models obtained from NVSim
//! (ReRAM RAM), NVSim-CAM (ReRAM CAM), CACTI 6.5 (eDRAM) and Synopsys DC
//! (logic), plus the published Helix and PARC numbers (Section 5). This
//! crate plays that role:
//!
//! * [`arrays`] — *functional* models of the two NVM-PIM primitives the
//!   paper builds on (Section 2.2): the crossbar that computes matrix–vector
//!   multiplications in-situ (Figure 2) and the content-addressable memory
//!   that matches strings in parallel (Figure 3);
//! * [`params`] — the device-level latency/energy constants, with the value
//!   provenance documented per constant;
//! * [`modules`] — the four GenPIP hardware modules (PIM basecaller,
//!   PIM-CQS, in-memory seeding, DP units) as *cost models*: they convert the
//!   measured workload counters of the functional pipeline into service times
//!   and energies;
//! * [`seeding`] — the seeding unit's CAM image: lays the one reference
//!   index out across position-range CAM subarray groups, programming only
//!   the entries the functional model can actually query (unmasked keys);
//! * [`area_power`] — the Table 2 area/power breakdown.
//!
//! # Example
//!
//! ```
//! use genpip_pim::area_power::genpip_table2;
//!
//! let table = genpip_table2();
//! // The paper's headline totals: 163.8 mm², 147.2 W at 32 nm.
//! assert!((table.total_area_mm2() - 163.8).abs() < 0.5);
//! assert!((table.total_power_w() - 147.2).abs() < 0.5);
//! ```

pub mod area_power;
pub mod arrays;
pub mod edram;
pub mod modules;
pub mod params;
pub mod seeding;

pub use arrays::{CamArray, CamBank, CrossbarArray};
pub use edram::EdramBuffer;
pub use modules::{BasecallModule, CqsModule, DpModule, SeedingModule};
pub use params::PimTech;
pub use seeding::{ReferenceSeedingImage, SeedingUnitMap, ShardGroup};

/// Bytes per raw signal sample (16-bit DAC), mirrored from `genpip-signal`
/// for buffer-sizing checks without a dependency cycle.
pub const BYTES_PER_SAMPLE_HINT: usize = 2;
