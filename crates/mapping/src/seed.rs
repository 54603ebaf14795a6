//! Seeding: turning query minimizers into anchors.
//!
//! The paper's Figure 1 ⓑ: each query minimizer is looked up in the
//! reference hash table; every hit produces an *anchor* — a (query position,
//! reference position) pair asserting a k-mer-level match. GenPIP executes
//! this lookup inside its in-memory seeding unit; this module is the
//! functional behaviour, with counters for the hardware model.
//!
//! Lookups go through the one [`ReferenceIndex`]: one hash probe per query
//! minimizer, whose hit list arrives in ascending reference position.

use crate::index::ReferenceIndex;
use crate::minimizer::Minimizer;
use crate::RefPos;

/// Mapping strand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strand {
    /// Query matches the reference as-is.
    Forward,
    /// The query's reverse complement matches the reference.
    Reverse,
}

impl std::fmt::Display for Strand {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Strand::Forward => write!(f, "+"),
            Strand::Reverse => write!(f, "-"),
        }
    }
}

/// A seed match in *chain coordinates*.
///
/// `qpos` is the k-mer's position in the query as sequenced. For
/// forward-strand anchors `rpos` is the k-mer's reference position (including
/// the index's base offset); for reverse-strand anchors it is the position in
/// the *reverse-complemented* reference (`coord_end − k − pos`, an
/// offset-free coordinate). The transform makes colinear matches on either
/// strand satisfy the same "qpos and rpos both increase" criterion, so one
/// chaining implementation serves both strands — and, crucially for GenPIP's
/// chunk-based pipeline, it does not depend on the final read length, which
/// is unknown while chunks are still streaming in. Both fields are
/// [`RefPos`] (64-bit), so no coordinate wraps at the 4 Gbp `u32` horizon.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Anchor {
    /// Query position of the k-mer's first base.
    pub qpos: RefPos,
    /// Strand-transformed reference position (see type docs).
    pub rpos: RefPos,
}

/// Anchors produced by seeding one batch of minimizers, split by strand.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SeedBatch {
    /// Forward-strand anchors.
    pub forward: Vec<Anchor>,
    /// Reverse-strand anchors (chain coordinates; see [`Anchor`]).
    pub reverse: Vec<Anchor>,
    /// Number of hash-table lookups performed (one per minimizer).
    pub queries: usize,
    /// Total anchors produced.
    pub hits: usize,
}

/// Seeds a batch of query minimizers against the index into `batch`,
/// clearing it first — the anchor vectors keep their capacity, so a reused
/// batch seeds without allocating in steady state.
///
/// `qpos_offset` is added to every minimizer position — GenPIP's chunk-based
/// pipeline sketches each basecalled chunk locally and offsets by the bases
/// already emitted for the read.
pub(crate) fn seed_batch_into(
    index: &ReferenceIndex,
    mins: &[Minimizer],
    qpos_offset: RefPos,
    batch: &mut SeedBatch,
) {
    let k = index.k() as RefPos;
    // rpos transform for reverse anchors. `coord_end` (not `genome_len as
    // u32`, which silently truncated past 4 Gbp) keeps the subtraction in the
    // index's own coordinate space: `rc_base - (base_offset + pos)` is the
    // offset-free reverse-complement coordinate `genome_len - k - pos`.
    let rc_base = index.coord_end() - k;
    batch.forward.clear();
    batch.reverse.clear();
    batch.queries = 0;
    batch.hits = 0;
    for m in mins {
        batch.queries += 1;
        for hit in index.lookup(m) {
            let qpos = m.pos + qpos_offset;
            // Same canonical strand on query and reference => forward match;
            // opposite => the query matches the reference's other strand.
            if m.reverse == hit.reverse {
                batch.forward.push(Anchor {
                    qpos,
                    rpos: hit.pos,
                });
            } else {
                batch.reverse.push(Anchor {
                    qpos,
                    rpos: rc_base - hit.pos,
                });
            }
            batch.hits += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minimizer::minimizers;
    use genpip_genomics::{Genome, GenomeBuilder};

    const K: usize = 15;
    const W: usize = 10;

    fn genome(n: usize, seed: u64) -> Genome {
        GenomeBuilder::new(n).seed(seed).build()
    }

    fn index(g: &Genome) -> ReferenceIndex {
        ReferenceIndex::build(g, K, W)
    }

    /// [`seed_batch_into`] on a fresh batch.
    fn seed_batch(index: &ReferenceIndex, mins: &[Minimizer], qpos_offset: RefPos) -> SeedBatch {
        let mut batch = SeedBatch::default();
        seed_batch_into(index, mins, qpos_offset, &mut batch);
        batch
    }

    #[test]
    fn exact_substring_seeds_on_diagonal() {
        let g = genome(20_000, 1);
        let idx = index(&g);
        let start = 7_000;
        let query = g.sequence().subseq(start, 600);
        let batch = seed_batch(&idx, &minimizers(&query, K, W), 0);
        assert!(
            batch.forward.len() >= 10,
            "only {} anchors",
            batch.forward.len()
        );
        // Most forward anchors lie on the diagonal rpos - qpos = start.
        let on_diag = batch
            .forward
            .iter()
            .filter(|a| (a.rpos as i64 - a.qpos as i64 - start as i64).abs() < 2)
            .count();
        assert!(
            on_diag as f64 / batch.forward.len() as f64 > 0.8,
            "{on_diag}/{} on diagonal",
            batch.forward.len()
        );
    }

    #[test]
    fn reverse_complement_query_seeds_reverse_colinear() {
        let g = genome(20_000, 2);
        let idx = index(&g);
        let start = 3_000;
        let query = g.sequence().subseq(start, 600).reverse_complement();
        let batch = seed_batch(&idx, &minimizers(&query, K, W), 0);
        assert!(batch.reverse.len() >= 10);
        assert!(batch.forward.len() < batch.reverse.len() / 2);
        // In chain coordinates the reverse anchors must be colinear:
        // rpos - qpos constant.
        let diags: Vec<i64> = batch
            .reverse
            .iter()
            .map(|a| a.rpos as i64 - a.qpos as i64)
            .collect();
        let mode = diags
            .iter()
            .map(|d| diags.iter().filter(|x| (**x - d).abs() < 2).count())
            .max()
            .unwrap();
        assert!(
            mode as f64 / diags.len() as f64 > 0.8,
            "{mode}/{} colinear",
            diags.len()
        );
    }

    #[test]
    fn offset_shifts_query_positions() {
        let g = genome(10_000, 3);
        let idx = index(&g);
        let query = g.sequence().subseq(2_000, 300);
        let mins = minimizers(&query, K, W);
        let a = seed_batch(&idx, &mins, 0);
        let b = seed_batch(&idx, &mins, 1_000);
        assert_eq!(a.forward.len(), b.forward.len());
        for (x, y) in a.forward.iter().zip(&b.forward) {
            assert_eq!(x.qpos + 1_000, y.qpos);
            assert_eq!(x.rpos, y.rpos);
        }
    }

    #[test]
    fn random_query_produces_few_anchors() {
        let g = genome(20_000, 4);
        let idx = index(&g);
        // A query from a *different* genome shares almost no 15-mers.
        let alien = genome(2_000, 999);
        let batch = seed_batch(&idx, &minimizers(alien.sequence(), K, W), 0);
        assert!(
            batch.hits < 5,
            "alien query produced {} anchors",
            batch.hits
        );
        assert!(batch.queries > 100);
    }

    #[test]
    fn reverse_complement_positions_survive_the_u32_boundary() {
        // Regression for the old `rc_base = genome_len as u32 - k`, which
        // silently truncated once the coordinate space crossed 4 Gbp. A
        // genome whose coordinate space straddles `u32::MAX` must seed
        // exactly like the same genome at offset 0: reverse-strand chain
        // coordinates are offset-free, forward coordinates shift by the
        // offset — on both sides of the boundary, nothing wraps.
        let g = genome(20_000, 7);
        let offset: RefPos = (u32::MAX as RefPos) - 10_000; // end > u32::MAX
        let at_zero = index(&g);
        let at_offset = ReferenceIndex::build_at(&g, K, W, offset);
        assert!(at_offset.coord_end() > u32::MAX as RefPos);
        let start = 12_000; // forward positions of this window cross u32::MAX
        let fwd_query = g.sequence().subseq(start, 800);
        let rc_query = fwd_query.reverse_complement();
        for query in [&fwd_query, &rc_query] {
            let mins = minimizers(query, K, W);
            let base = seed_batch(&at_zero, &mins, 0);
            let moved = seed_batch(&at_offset, &mins, 0);
            assert_eq!(moved.queries, base.queries);
            assert_eq!(moved.hits, base.hits);
            assert_eq!(moved.reverse, base.reverse, "reverse anchors wrapped");
            assert_eq!(moved.forward.len(), base.forward.len());
            for (m, b) in moved.forward.iter().zip(&base.forward) {
                assert_eq!(m.qpos, b.qpos);
                assert_eq!(m.rpos, b.rpos + offset);
            }
        }
    }

    #[test]
    fn counters_are_consistent() {
        let g = genome(10_000, 5);
        let idx = index(&g);
        let query = g.sequence().subseq(1_000, 500);
        let mins = minimizers(&query, K, W);
        let batch = seed_batch(&idx, &mins, 0);
        assert_eq!(batch.queries, mins.len());
        assert_eq!(batch.hits, batch.forward.len() + batch.reverse.len());
        // A reused batch is cleared first: seeding into one that holds
        // another query's anchors gives the fresh batch's result.
        let mut reused = seed_batch(&idx, &minimizers(&query.reverse_complement(), K, W), 7);
        seed_batch_into(&idx, &mins, 0, &mut reused);
        assert_eq!(reused, batch);
    }
}
