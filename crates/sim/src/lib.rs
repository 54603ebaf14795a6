//! Deterministic system simulation primitives.
//!
//! The paper evaluates GenPIP with an in-house simulator that embeds
//! per-component latency/energy values and replays the pipeline's workload
//! (Section 5). This crate is that simulator's core:
//!
//! * [`SimTime`] — picosecond-resolution simulated time,
//! * [`PipelineSim`] — a multi-stage, multi-server pipeline scheduler with
//!   per-read sequential dependencies (basecalling carry state, incremental
//!   chaining) and backpressure-free FIFO issue; it produces the makespan and
//!   per-stage utilization that the speedup figures are built from,
//! * [`EnergyMeter`] — per-component energy accounting behind the energy
//!   figures.
//!
//! The scheduler is *deterministic*: identical inputs give identical
//! timelines, which the experiment harnesses rely on.
//!
//! # Example
//!
//! ```
//! use genpip_sim::{Job, PipelineSim, SimTime, StageSpec};
//!
//! // Two stages: one basecaller, two seeding units.
//! let sim = PipelineSim::new(vec![
//!     StageSpec::new("basecall", 1).sequential_within_read(),
//!     StageSpec::new("seed", 2),
//! ]);
//! let jobs: Vec<Job> = (0..4)
//!     .map(|_| Job::new(0, vec![SimTime::from_ns(100.0), SimTime::from_ns(40.0)]))
//!     .collect();
//! let report = sim.run(&jobs);
//! // Basecalling dominates: 4 × 100 ns, plus the last chunk's seeding.
//! assert_eq!(report.makespan, SimTime::from_ns(440.0));
//! ```

pub mod energy;
pub mod pipeline;
pub mod time;

pub use energy::EnergyMeter;
pub use pipeline::{Job, PipelineReport, PipelineSim, StageSpec};
pub use time::SimTime;
