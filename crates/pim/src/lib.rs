//! Processing-in-memory hardware cost models.
//!
//! The paper evaluates GenPIP with component models obtained from NVSim
//! (ReRAM RAM), NVSim-CAM (ReRAM CAM), CACTI 6.5 (eDRAM) and Synopsys DC
//! (logic), plus the published Helix and PARC numbers (Section 5). This
//! crate plays that role, pricing the functional pipeline's counters per
//! operation rather than simulating the arrays themselves:
//!
//! * [`params`] — the device-level latency/energy constants, with the value
//!   provenance documented per constant;
//! * [`modules`] — the four GenPIP hardware modules (PIM basecaller,
//!   PIM-CQS, in-memory seeding, DP units) as *cost models*: they convert the
//!   measured workload counters of the functional pipeline into service times
//!   and energies (seeding is one CAM search per base shift and one RAM read
//!   per reference location, with no CAM image built);
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
pub mod modules;
pub mod params;

pub use modules::{BasecallModule, CqsModule, DpModule, SeedingModule};
pub use params::PimTech;
