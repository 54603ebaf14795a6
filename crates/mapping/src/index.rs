//! The reference minimizer index.
//!
//! The paper's Figure 1 ⓐ: an offline pass extracts minimizers from the
//! reference genome and stores them in a key–value hash table (minimizer →
//! locations). GenPIP materializes this table inside ReRAM CAM (keys) and
//! RAM (values) arrays; this module is the table itself, and
//! `genpip-pim`'s seeding module prices its lookups per base shift and per
//! location returned.

use crate::minimizer::{minimizers, Minimizer};
use crate::RefPos;
use genpip_genomics::Genome;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// One reference hit: where a minimizer occurs in the genome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefHit {
    /// Position of the k-mer's first base in the reference coordinate space:
    /// the index's [`ReferenceIndex::base_offset`] plus the position within
    /// the indexed sequence. [`RefPos`] is 64-bit, so references are no
    /// longer capped at the 4 Gbp `u32` horizon.
    pub pos: RefPos,
    /// Strand flag of the canonical k-mer at that position.
    pub reverse: bool,
}

/// Hash table from minimizer hash to reference locations.
///
/// Each key's hit list is in ascending position order (the sketch is walked
/// left to right).
///
/// The keys are already [`hash64`](crate::minimizer::hash64) outputs, an
/// invertible mix, so the table does not run them through std's keyed
/// default hasher again; it multiplies each by one odd constant
/// (`KeyHasher`). It does not use the keys as they are, because they are
/// window *minima*: their top bits lean
/// towards zero, and std's table takes each bucket's 7-bit tag from the top
/// bits of the hash — an identity hash would give most keys the same tag. A
/// multiply carries every key bit into the top bits and keeps the low bits,
/// which pick the bucket, as uniform as the keys' own. The keys derive from
/// the reference the operator supplies, not from untrusted input: a
/// reference crafted so that its minimizer hashes share their low bits
/// could cluster buckets and slow the build.
#[derive(Debug, Clone)]
pub struct ReferenceIndex {
    k: usize,
    w: usize,
    genome_len: usize,
    base_offset: RefPos,
    table: HashMap<u64, Vec<RefHit>, BuildHasherDefault<KeyHasher>>,
}

/// The index table's hasher: one multiply by an odd constant (the 64-bit
/// golden ratio), which is a bijection on `u64` keys. See
/// [`ReferenceIndex`] for why not the identity.
#[derive(Debug, Clone, Copy, Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    #[inline]
    fn write_u64(&mut self, key: u64) {
        self.0 = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    /// Only `u64` keys are hashed; any other input folds in byte by byte.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0.rotate_left(8) ^ u64::from(b));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

impl ReferenceIndex {
    /// Cap on hits per minimizer: more frequent minimizers are treated as
    /// repetitive and skipped at query time (minimap2's `--mask-level`
    /// analogue).
    pub const DEFAULT_MAX_OCCURRENCES: usize = 128;

    /// Builds the index of `genome` with minimizer parameters `(k, w)`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is outside `1..=32` or `w` is 0.
    pub fn build(genome: &Genome, k: usize, w: usize) -> ReferenceIndex {
        Self::build_at(genome, k, w, 0)
    }

    /// Builds the index of `genome` with its coordinate space starting at
    /// `base_offset` instead of 0: every stored hit position is
    /// `base_offset + position-in-genome`. This is how coordinate spaces
    /// beyond 4 Gbp are exercised without materializing 4 GB of sequence.
    pub fn build_at(genome: &Genome, k: usize, w: usize, base_offset: RefPos) -> ReferenceIndex {
        let sketch = minimizers(genome.sequence(), k, w);
        // At most one key per minimizer: sized once, never rehashed.
        let mut table: HashMap<u64, Vec<RefHit>, _> =
            HashMap::with_capacity_and_hasher(sketch.len(), BuildHasherDefault::default());
        for m in sketch {
            table.entry(m.hash).or_default().push(RefHit {
                pos: base_offset + m.pos,
                reverse: m.reverse,
            });
        }
        ReferenceIndex {
            k,
            w,
            genome_len: genome.len(),
            base_offset,
            table,
        }
    }

    /// Minimizer k-mer length.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Minimizer window size.
    pub fn w(&self) -> usize {
        self.w
    }

    /// First coordinate of the index's position space (0 unless built with
    /// [`ReferenceIndex::build_at`]).
    pub fn base_offset(&self) -> RefPos {
        self.base_offset
    }

    /// One past the last coordinate of the index's position space:
    /// `base_offset + genome_len`.
    pub fn coord_end(&self) -> RefPos {
        self.base_offset + self.genome_len as RefPos
    }

    /// Number of distinct minimizer keys.
    pub fn distinct_minimizers(&self) -> usize {
        self.table.len()
    }

    /// Total number of (key, location) entries.
    pub fn total_entries(&self) -> usize {
        self.table.values().map(Vec::len).sum()
    }

    /// Looks up a query minimizer, returning its reference hits, or an empty
    /// slice if the key is absent **or** has more than
    /// [`ReferenceIndex::DEFAULT_MAX_OCCURRENCES`] hits.
    pub fn lookup(&self, m: &Minimizer) -> &[RefHit] {
        match self.table.get(&m.hash) {
            Some(hits) if hits.len() <= Self::DEFAULT_MAX_OCCURRENCES => hits,
            _ => &[],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genpip_genomics::GenomeBuilder;

    fn genome(n: usize, seed: u64) -> Genome {
        GenomeBuilder::new(n).seed(seed).build()
    }

    #[test]
    fn index_contains_every_reference_minimizer() {
        let g = genome(10_000, 1);
        let idx = ReferenceIndex::build(&g, 15, 10);
        for m in minimizers(g.sequence(), 15, 10) {
            let hits = idx.lookup(&m);
            assert!(
                hits.iter().any(|h| h.pos == m.pos),
                "minimizer at {} missing from index",
                m.pos
            );
        }
    }

    #[test]
    fn entry_count_matches_sketch_size() {
        let g = genome(10_000, 2);
        let idx = ReferenceIndex::build(&g, 15, 10);
        let sketch = minimizers(g.sequence(), 15, 10);
        assert_eq!(idx.total_entries(), sketch.len());
        assert!(idx.distinct_minimizers() <= sketch.len());
        assert_eq!(idx.coord_end(), 10_000);
        assert_eq!((idx.k(), idx.w()), (15, 10));
    }

    #[test]
    fn absent_key_returns_empty() {
        let g = genome(1_000, 3);
        let idx = ReferenceIndex::build(&g, 15, 10);
        let phantom = Minimizer {
            hash: 0xDEAD_BEEF_DEAD_BEEF,
            pos: 0,
            reverse: false,
        };
        assert!(idx.lookup(&phantom).is_empty());
    }

    #[test]
    fn repetitive_minimizers_are_masked() {
        // A genome that is one unit repeated more often than the cap makes
        // every minimizer repetitive: all lookups come back empty. At
        // exactly the cap, every hit list is still returned.
        let repeats = |copies: usize| {
            let unit = genome(400, 4);
            let mut seq = genpip_genomics::DnaSeq::new();
            for _ in 0..copies {
                seq.extend_from_seq(unit.sequence());
            }
            Genome::from_seq("repeats", seq)
        };
        let cap = ReferenceIndex::DEFAULT_MAX_OCCURRENCES;
        let g = repeats(cap + 22);
        let idx = ReferenceIndex::build(&g, 15, 10);
        let sketch = minimizers(g.sequence(), 15, 10);
        let masked = sketch.iter().filter(|m| idx.lookup(m).is_empty()).count();
        assert!(
            masked as f64 / sketch.len() as f64 > 0.9,
            "only {masked}/{} masked",
            sketch.len()
        );
        let g = repeats(cap);
        let idx = ReferenceIndex::build(&g, 15, 10);
        for m in minimizers(g.sequence(), 15, 10) {
            assert!(!idx.lookup(&m).is_empty(), "minimizer at {} masked", m.pos);
        }
    }

    #[test]
    fn base_offset_shifts_every_hit_past_the_u32_horizon() {
        // An index whose coordinate space starts beyond 4 Gbp: every stored
        // hit is the plain-index hit plus the offset, nothing truncates.
        let g = genome(5_000, 9);
        let offset: RefPos = 5_000_000_000; // > u32::MAX
        let plain = ReferenceIndex::build(&g, 15, 10);
        let shifted = ReferenceIndex::build_at(&g, 15, 10, offset);
        assert_eq!(shifted.base_offset(), offset);
        assert_eq!(shifted.coord_end(), offset + 5_000);
        assert_eq!(shifted.total_entries(), plain.total_entries());
        for m in minimizers(g.sequence(), 15, 10) {
            let (hits, moved) = (plain.lookup(&m), shifted.lookup(&m));
            assert!(!hits.is_empty());
            assert_eq!(moved.len(), hits.len());
            for (a, b) in hits.iter().zip(moved) {
                assert_eq!(b.pos, offset + a.pos);
                assert!(b.pos > u32::MAX as RefPos);
                assert_eq!(b.reverse, a.reverse);
            }
        }
    }
}
