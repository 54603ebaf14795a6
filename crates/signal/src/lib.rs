//! Nanopore raw-signal model.
//!
//! ONT devices measure the ionic current through a nanopore while a DNA
//! strand translocates through it; the current level at any instant is
//! determined (noisily) by the k bases inside the pore. This crate provides
//! the synthetic stand-in for the paper's 3.9 TB of raw R9 signal data:
//!
//! * [`PoreModel`] — a deterministic map from k-mer to expected current,
//! * [`SignalSynthesizer`] — turns a true base sequence into a raw signal
//!   with per-base dwell times, Gaussian noise whose magnitude follows a
//!   slowly varying per-read profile (so chunk quality scores are correlated
//!   along a read, as the paper's Figure 7 shows), and baseline drift,
//! * [`chunk::chunk_boundaries`] — the fixed-size signal chunks the
//!   basecaller and GenPIP's chunk-based pipeline operate on.
//!
//! # Example
//!
//! ```
//! use genpip_genomics::DnaSeq;
//! use genpip_signal::{PoreModel, SignalSynthesizer};
//!
//! let model = PoreModel::synthetic(3, 7);
//! let synth = SignalSynthesizer::new(model);
//! let truth: DnaSeq = "ACGTACGTACGTACGT".parse()?;
//! let sig = synth.synthesize(&truth, 1.0, 123);
//! assert!(sig.samples.len() >= truth.len());
//! # Ok::<(), genpip_genomics::base::ParseBaseError>(())
//! ```

pub mod chunk;
pub mod pore;
pub mod synth;

pub use chunk::{chunk_boundaries, ChunkSpec};
pub use pore::PoreModel;
pub use synth::{NoiseProfile, ReadSignal, SignalSynthesizer};

/// Bytes per raw signal sample for data-movement accounting.
///
/// ONT devices digitize with a 16-bit DAC, so shipping raw signal costs two
/// bytes per sample — the figure behind the paper's "3913 GB raw signal data"
/// transfer in Figure 1.
pub const BYTES_PER_SAMPLE: usize = 2;
