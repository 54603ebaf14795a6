//! The read mapper: a from-scratch minimap2-style pipeline.
//!
//! The paper's read-mapping step (Section 2.1, Figure 1 ➌) runs in four
//! phases, each implemented here as its own module:
//!
//! 1. **Indexing** ([`index`]) — extract `(w, k)` minimizers from the
//!    reference genome and store them in one hash table ([`ReferenceIndex`])
//!    keyed by minimizer hash, valued by reference positions in ascending
//!    order. GenPIP holds this table in its ReRAM CAM/RAM seeding unit (paper
//!    Section 4.4); how the table is spread over CAM subarray groups is a
//!    storage layout computed by `genpip-pim`'s seeding loader, not a
//!    property of the index.
//! 2. **Seeding** ([`seed`]) — query the read's minimizers against the table
//!    (one probe each) to produce *anchors* (query-position,
//!    reference-position pairs).
//! 3. **Chaining** ([`chain`]) — a dynamic-programming pass that finds
//!    colinear anchor chains with minimap2's gap-cost scoring. The chaining
//!    score is what GenPIP's ER-CMR early-rejection thresholds against, and
//!    the DP is incremental so GenPIP's chunk-based pipeline can extend a
//!    read's chains chunk by chunk.
//! 4. **Alignment** ([`align`]) — banded affine-gap alignment of the read
//!    against the best chain's reference window, yielding the final mapping
//!    and alignment score.
//!
//! [`Mapper`] ties the phases together and reports the workload counters
//! (seed queries, anchors, chain DP evaluations, alignment cells) that drive
//! the hardware cost models in `genpip-pim` and `genpip-core`.
//!
//! # Example
//!
//! ```
//! use genpip_genomics::GenomeBuilder;
//! use genpip_mapping::{Mapper, MapperParams};
//!
//! let genome = GenomeBuilder::new(20_000).seed(11).build();
//! let mapper = Mapper::build(&genome, MapperParams::default());
//! let query = genome.sequence().subseq(5_000, 800);
//! let result = mapper.map(&query);
//! let mapping = result.mapping.expect("exact substring must map");
//! assert!(mapping.ref_start.abs_diff(5_000) < 50);
//! ```

pub mod align;
pub mod chain;
pub mod index;
pub mod mapper;
pub mod minimizer;
pub mod paf;
pub mod refset;
pub mod seed;

/// Repo-wide reference coordinate type.
///
/// Every position that names a base in a reference coordinate space —
/// [`Minimizer::pos`], [`RefHit::pos`], [`Anchor::{qpos,rpos}`](Anchor),
/// chain spans, PAF target coordinates — is 64-bit, so references (and
/// coordinate spaces placed at a nonzero base offset) are not capped at the
/// 4 Gbp `u32` horizon.
pub type RefPos = u64;

pub use align::{AlignScratch, Alignment, AlignmentParams, CigarOp};
pub use chain::{Chain, ChainParams, IncrementalChainer};
pub use index::{RefHit, ReferenceIndex};
pub use mapper::{Mapper, MapperParams, Mapping, MappingCounters, MappingResult, SeedScratch};
pub use minimizer::{minimizers, minimizers_into, Minimizer, MinimizerScratch};
pub use refset::{ReferenceMapping, ReferenceSet, SetMappingResult};
pub use seed::{Anchor, SeedBatch, Strand};
