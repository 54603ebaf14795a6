//! On-disk input for GenPIP sessions: the GSC raw-signal container and
//! session checkpoint files.
//!
//! Every `ReadSource` elsewhere in the workspace is synthetic or in-memory;
//! the sequencers the paper targets deliver raw nanopore signal from disk,
//! and run I/O is a first-class part of the end-to-end pipeline. This crate
//! supplies that input side:
//!
//! * [`gsc`] — the **G**enPIP **S**ignal **C**ontainer: a FAST5-like binary
//!   file holding a whole simulated sequencing run (chemistry metadata,
//!   reference, per-read raw signal with ground truth, per-record checksums,
//!   and a trailing offset table for O(1) seeks). [`GscWriter`] packs any
//!   [`genpip_datasets::ReadSource`] to disk; [`GscReadSource`] streams one
//!   back, bit-identical to the in-memory source it was packed from, and
//!   [`GscReadSource::open_at`] starts at an arbitrary read index — the
//!   primitive behind mid-session file attach and checkpoint/resume.
//! * [`checkpoint`] — the checkpoint file a streaming run emits
//!   periodically (and on drain): per-source read offsets plus
//!   emitted/failed counters and output byte offsets, enough to
//!   restart a killed run with a byte-identical output suffix.
//!
//! Corruption anywhere — truncation, bad magic, checksum mismatch,
//! out-of-range offsets — surfaces as a typed [`GscError`] (or
//! [`CheckpointError`]), never a panic, so CLI front ends can exit cleanly.
//!
//! Like the rest of the workspace, everything is implemented in-repo with
//! no external dependencies: serialization is hand-rolled little-endian
//! with FNV-1a checksums.

pub mod checkpoint;
pub mod gsc;

pub use checkpoint::{CheckpointError, CheckpointFile, FastqMark, SourceMark};
pub use gsc::{
    pack_source, GscError, GscMeta, GscReadSource, GscReader, GscStatus, GscSummary, GscWriter,
};
