//! The reference minimizer index.
//!
//! The paper's Figure 1 ⓐ: an offline pass extracts minimizers from the
//! reference genome and stores them in a key–value hash table (minimizer →
//! locations). GenPIP materializes this table inside ReRAM CAM (keys) and
//! RAM (values) arrays; this module is the table itself, and
//! `genpip-pim`'s seeding module prices its lookups per base shift and per
//! location returned.
//!
//! # Layout
//!
//! The table has the paper's shape, and minimap2's (Li 2018): the keys map
//! to a `(start, len)` range of one flat `hits` array, the way the CAM's
//! match line selects a run of RAM rows. Nothing is allocated per key, so
//! building the index and freeing it are each a constant number of
//! allocator calls, whatever the reference's size. The build makes one hash
//! pass over the sketch as the sketch hands it on, a block at a time in
//! position order, giving each key a dense id the first time it is seen,
//! counting its hits and keeping each minimizer's id and site (12 bytes a
//! minimizer; no list of the minimizers themselves, 24 bytes each, is
//! held); a prefix sum over the counts places each id's run, a fill pass
//! writes the hits, and one walk over the table turns each id into its
//! range. (The table of one heap `Vec` per key
//! it replaced — 141 813 of them on the human profile's 1 Mb reference —
//! took 30–43 ms to free there, where this layout takes under a
//! microsecond; it is kept as the oracle of the test-only
//! `index/differential.rs`.)
//!
//! The runs are laid out in the order their keys first occur along the
//! reference, not in hash order. A read's consecutive minimizers hit
//! nearby reference positions, and with runs in first-occurrence order
//! their hits sit near each other in `hits` too, as the per-key `Vec`s did
//! in allocation order. On the human profile's 1 Mb reference, looking up
//! the query minimizers of 100 of its reads in read order and reading every
//! hit took 21–28 ns a lookup with runs in first-occurrence order, 28–38 ns
//! with the `Vec`-per-key table, and 33–53 ns with runs in the hash table's
//! own order or sorted by key (three runs of 40 interleaved rounds).

use crate::minimizer::{
    expected_minimizers, sketch_blocks, sketch_capacity, Minimizer, MinimizerScratch,
};
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
/// left to right), and is one run of a flat hit array (see the module
/// docs).
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
    genome_len: usize,
    base_offset: RefPos,
    /// Minimizer hash → `(start, len)` of its run in `hits`. `u32`s keep a
    /// slot at 16 bytes; with `usize`s a slot is 24 and the module docs'
    /// lookups took 23–31 ns instead of 21–28.
    table: HashMap<u64, (u32, u32), BuildHasherDefault<KeyHasher>>,
    /// Every key's hits, one run per key, the runs in first-occurrence order.
    hits: Vec<RefHit>,
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
        let seq = genome.sequence();
        // Every buffer is sized once for the sketch (`sketch_capacity` fits
        // every workload reference), so the build's allocations do not
        // depend on the reference. The table needs a slot per distinct key,
        // fewer than the minimizers: sized for the expected count, it is
        // never rehashed on a workload reference. Until the last pass each
        // value's first field is the key's dense id.
        let capacity = sketch_capacity(seq.len(), k, w);
        let mut table: HashMap<u64, (u32, u32), _> = HashMap::with_capacity_and_hasher(
            expected_minimizers(seq.len(), w),
            BuildHasherDefault::default(),
        );
        // The one hash pass, over the sketch as it comes, a block at a time:
        // each minimizer's key id, ids numbered in first-occurrence order,
        // each id's hit count, and each minimizer's site, `pos << 1 |
        // reverse` (8 bytes a minimizer, where the sketch itself is 24).
        let mut ids: Vec<u32> = Vec::with_capacity(capacity);
        let mut sites: Vec<u64> = Vec::with_capacity(capacity);
        let mut counts: Vec<u32> = Vec::with_capacity(capacity);
        let mut scratch = MinimizerScratch::default();
        sketch_blocks(seq, k, w, &mut scratch, &mut |block| {
            // Ids, run starts and run lengths are all at most the hit count.
            assert!(
                u32::try_from(ids.len() + block.len()).is_ok(),
                "an index holds fewer than 2^32 hits, not {} or more",
                ids.len() + block.len()
            );
            for m in block {
                let next = u32::try_from(counts.len()).expect("fewer ids than hits");
                let id = table.entry(m.hash).or_insert((next, 0)).0;
                if id == next {
                    counts.push(0);
                }
                counts[id as usize] += 1;
                ids.push(id);
                sites.push(m.pos << 1 | u64::from(m.reverse));
            }
        });
        // Each id's run starts where the runs of the ids before it end; the
        // fill pass then advances each cursor to its run's end.
        let mut cursor = counts;
        let mut end = 0;
        for slot in &mut cursor {
            let len = *slot;
            *slot = end;
            end += len;
        }
        let mut hits = vec![
            RefHit {
                pos: 0,
                reverse: false,
            };
            ids.len()
        ];
        for (&site, &id) in sites.iter().zip(&ids) {
            let at = &mut cursor[id as usize];
            hits[*at as usize] = RefHit {
                pos: base_offset + (site >> 1),
                reverse: site & 1 == 1,
            };
            *at += 1;
        }
        // Run `id` ends at `cursor[id]` and starts where run `id - 1` ends.
        for range in table.values_mut() {
            let id = range.0 as usize;
            let start = if id == 0 { 0 } else { cursor[id - 1] };
            *range = (start, cursor[id] - start);
        }
        ReferenceIndex {
            k,
            genome_len: genome.len(),
            base_offset,
            table,
            hits,
        }
    }

    /// Minimizer k-mer length.
    pub fn k(&self) -> usize {
        self.k
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
        self.hits.len()
    }

    /// Looks up a query minimizer, returning its reference hits, or an empty
    /// slice if the key is absent **or** has more than
    /// [`ReferenceIndex::DEFAULT_MAX_OCCURRENCES`] hits.
    pub fn lookup(&self, m: &Minimizer) -> &[RefHit] {
        match self.table.get(&m.hash) {
            Some(&(start, len)) if len as usize <= Self::DEFAULT_MAX_OCCURRENCES => {
                &self.hits[start as usize..(start + len) as usize]
            }
            _ => &[],
        }
    }
}

#[cfg(test)]
mod differential;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minimizer::minimizers;
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
        assert_eq!(idx.k(), 15);
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
