//! GenPIP: in-memory acceleration of genome analysis via tight integration
//! of basecalling and read mapping.
//!
//! This crate is the paper's primary contribution:
//!
//! * [`config`] — the GenPIP configuration (chunk size, `N_qs`, `N_cm`,
//!   `θ_qs`, `θ_cm`);
//! * [`early_reject`] — the ER technique: Quality-Score-based Rejection
//!   (QSR, the paper's Algorithm 1) and Chunk-Mapping-based Rejection (CMR);
//! * [`pipeline`] — the *functional* execution of both the conventional
//!   pipeline (Figure 5a) and GenPIP's chunk-based pipeline with optional
//!   ER (Figures 5b and 6) as one straight-line function per flow (a read
//!   is one call; the chunk pipeline is the loop inside it), producing
//!   per-read outcomes and the workload counters every hardware model
//!   consumes; [`PipelineRun::collect`] is the batch spelling;
//! * [`engine`] — the [`Session`] execution API: one bounded-memory worker
//!   pool serving any number of named read sources, each with its own sink
//!   and in-order emission, interleaved by a [`scheduler::Schedule`], with
//!   a live control plane ([`SessionControl`]) that can attach and detach
//!   sources on a running session. It is the only way reads run;
//! * [`scheduler`] — the source-interleaving policies (`Sequential`,
//!   `FairShare`, weighted `Priority`), each a pick sequence that depends
//!   only on which sources are live;
//! * [`stream`] — streaming vocabulary ([`StreamOptions`], [`StreamEvent`],
//!   [`StreamSummary`]) and the [`FastqSink`] consumer;
//! * [`systems`] — the ten evaluated system configurations (CPU, CPU-CP,
//!   CPU-GP, GPU, GPU-CP, GPU-GP, PIM, GenPIP-CP, GenPIP-CP-QSR, GenPIP)
//!   plus the Figure 4 potential study (Systems A–D), as timing/energy cost
//!   models over the measured workload;
//! * [`analysis`] — rejection/false-negative ratios (Figures 12–13),
//!   useless-read statistics (Section 2.3), and accuracy audits;
//! * [`experiments`] — one driver per paper figure/table, run by `genpip
//!   experiment <name>`.
//!
//! # Example
//!
//! ```no_run
//! use genpip_core::{ErMode, Flow, GenPipConfig, Schedule, Session};
//! use genpip_core::stream::StreamEvent;
//! use genpip_datasets::{DatasetProfile, StreamingSimulator};
//!
//! // Two concurrent runs share one worker pool under fair-share
//! // scheduling; each source's output is bit-identical to running it
//! // alone.
//! let a = DatasetProfile::ecoli().scaled(0.05);
//! let b = DatasetProfile::ecoli().scaled(0.03);
//! let report = Session::new(GenPipConfig::for_dataset(&a))
//!     .flow(Flow::GenPip(ErMode::Full))
//!     .schedule(Schedule::FairShare)
//!     .source("run-a", StreamingSimulator::new(&a))
//!     .source("run-b", StreamingSimulator::new(&b))
//!     .sink("run-a", |event| {
//!         if let StreamEvent::Read(run) = event {
//!             println!("run-a read {} done", run.id);
//!         }
//!     })
//!     .run()
//!     .expect("valid session");
//! println!("{} reads across {} sources",
//!          report.outcomes.reads_emitted, report.sources.len());
//! ```

pub mod analysis;
pub mod config;
pub mod early_reject;
pub mod engine;
pub mod experiments;
pub mod pipeline;
pub mod scheduler;
pub mod stream;
pub mod systems;

pub use config::{FaultPolicy, GenPipConfig, Parallelism};
pub use engine::{
    AttachSpec, Flow, PendingAttach, PendingDetach, Session, SessionCheckpoint, SessionControl,
    SessionError, SessionReport, SessionStats, SourceCheckpoint, SourceConfigIssue, SourceReport,
    SourceStats,
};
pub use genpip_datasets::SourceId;
pub use pipeline::{CalledBases, ChunkWork, ErMode, PipelineRun, ReadOutcome, ReadRun};
pub use scheduler::Schedule;
pub use stream::{
    FastqSink, FaultKind, LatencyStats, ProgressSnapshot, ReadFault, StreamEvent, StreamOptions,
    StreamSummary,
};
pub use systems::SystemKind;
