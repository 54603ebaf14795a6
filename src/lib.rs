//! # GenPIP — in-memory acceleration of genome analysis
//!
//! A full reproduction of *"GenPIP: In-Memory Acceleration of Genome
//! Analysis via Tight Integration of Basecalling and Read Mapping"*
//! (Mao et al., MICRO 2022) as a Rust workspace. This facade crate
//! re-exports every component; see README.md for the architecture overview
//! and DESIGN.md for the per-experiment index.
//!
//! | module | contents |
//! |---|---|
//! | [`genomics`] | sequences, k-mers, qualities, reads, synthetic genomes, error models |
//! | [`signal`] | pore model, raw-signal synthesis, chunking, normalization |
//! | [`basecall`] | MVM-emission Viterbi basecaller with per-base qualities |
//! | [`mapping`] | minimizer index, seeding, chaining DP, banded alignment |
//! | [`sim`] | deterministic pipeline scheduler and energy accounting |
//! | [`pim`] | NVM crossbar / CAM models, GenPIP hardware modules, Table 2 |
//! | [`datasets`] | synthetic E. coli / human dataset profiles |
//! | [`io`] | on-disk GSC signal containers, seekable file sources, checkpoint files |
//! | [`core`] | chunk-based pipeline, early rejection, system models, experiments |
//!
//! # Quickstart
//!
//! ```
//! use genpip::core::{ErMode, Flow, GenPipConfig, PipelineRun};
//! use genpip::datasets::DatasetProfile;
//!
//! // A miniature E. coli-like run: raw signals in, mapped reads out.
//! let dataset = DatasetProfile::ecoli().scaled(0.02).generate();
//! let config = GenPipConfig::for_dataset(&dataset.profile);
//! let run = PipelineRun::collect(&dataset, &config, Flow::GenPip(ErMode::Full));
//! let mapped = run.reads.iter().filter(|r| r.outcome.is_mapped()).count();
//! assert!(mapped > 0);
//! ```

pub use genpip_basecall as basecall;
pub use genpip_core as core;
pub use genpip_datasets as datasets;
pub use genpip_genomics as genomics;
pub use genpip_io as io;
pub use genpip_mapping as mapping;
pub use genpip_pim as pim;
pub use genpip_signal as signal;
pub use genpip_sim as sim;
