//! The basecaller: raw signal chunks → bases + per-base quality scores.
//!
//! # Relation to the paper
//!
//! GenPIP embeds a Helix-like PIM basecaller whose dominant kernel is the
//! matrix–vector multiplication (MVM) at the heart of DNN inference
//! (paper Section 2.2). This reproduction substitutes Bonito's CTC network
//! with an HMM/Viterbi decoder over the pore-model k-mer state space whose
//! emission computation is *also* an MVM:
//!
//! ```text
//! log N(x; μ_s, σ) = [ -1/(2σ²),  μ_s/σ²,  -μ_s²/(2σ²) ] · [x², x, 1]ᵀ + c(x)
//! ```
//!
//! i.e. one `states × 3` matrix times a per-sample feature vector — exactly
//! the operation an NVM crossbar executes in one read cycle. The PIM timing
//! and energy models in `genpip-pim` are therefore driven by the *measured*
//! MVM counts this crate reports, and the substitution preserves the compute
//! pattern Helix accelerates (see README.md, "Viterbi DP row").
//!
//! Per-base quality scores derive from the normalized residual between the
//! observed samples and the decoded state's expected level, calibrated so
//! that clean reads land in the paper's high-quality band (Q11–Q18) and
//! noisy reads in the low-quality band (Q4–Q10); see [`quality`].
//!
//! # Example
//!
//! ```
//! use genpip_genomics::DnaSeq;
//! use genpip_signal::{PoreModel, SignalSynthesizer};
//! use genpip_basecall::Basecaller;
//!
//! let model = PoreModel::synthetic(3, 7);
//! let synth = SignalSynthesizer::new(model.clone());
//! let truth: DnaSeq = "ACGTTGCAACGGTCATCGCA".repeat(10).parse()?;
//! let sig = synth.synthesize(&truth, 0.5, 1);
//!
//! let caller = Basecaller::new(&model, synth.mean_dwell());
//! let called = caller.call_read(&sig.samples, 2400);
//! let identity = genpip_basecall::metrics::identity(&called.seq, &truth);
//! assert!(identity > 0.9);
//! # Ok::<(), genpip_genomics::base::ParseBaseError>(())
//! ```

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod basecaller;
pub mod emission;
pub mod metrics;
pub mod quality;
pub mod viterbi;

pub use basecaller::{
    BasecalledChunk, BasecalledRead, Basecaller, CallScratch, CarryState, ChunkJob, ChunkPath,
    ChunkQuality, DecodedChunk, LaneDecoder, LaneScratch, PathBuffer, SignalFault,
};
pub use emission::EmissionModel;
pub use quality::QualityCalibration;
