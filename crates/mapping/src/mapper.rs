//! End-to-end read mapping.
//!
//! [`Mapper`] composes sketching, seeding, chaining and alignment into the
//! whole-read flow of a conventional pipeline ([`Mapper::map`]), and also
//! exposes the per-chunk pieces ([`Mapper::sketch_and_seed`],
//! [`Mapper::finalize_mapping`]) that GenPIP's chunk-based pipeline drives
//! incrementally.

use crate::align::{AlignScratch, AlignmentParams, CigarOp};
use crate::chain::{ChainParams, IncrementalChainer};
use crate::index::ReferenceIndex;
use crate::minimizer::{minimizers_into, Minimizer, MinimizerScratch};
use crate::seed::{seed_batch_into, Anchor, SeedBatch, Strand};
use crate::RefPos;
use genpip_genomics::{DnaSeq, Genome};
use std::sync::Arc;

/// Mapper configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MapperParams {
    /// Minimizer k-mer length.
    pub k: usize,
    /// Minimizer window size.
    pub w: usize,
    /// Chaining parameters.
    pub chain: ChainParams,
    /// Alignment scoring.
    pub align: AlignmentParams,
    /// Reads whose best chain scores below this are unmapped without
    /// alignment (the read-level `θ_cm` role in the conventional pipeline).
    pub min_chain_score: f64,
    /// Alignments below this identity are rejected as unmapped.
    pub min_identity: f64,
    /// Half-width of the alignment band around the chain's own path. The
    /// band's centre runs anchor to anchor, so the margin only has to absorb
    /// what the alignment does between two anchors. The half-width asked for
    /// is `max(band_margin, d) + s / 20`: `d` is the longest indel between two
    /// adjacent anchors (one longer than the margin widens the band, so that
    /// it fits next to either anchor), and `s` the longest run of query bases
    /// the chain leaves unpinned (a drift allowance of one column per 20 such
    /// bases; until PR 22 it was charged to the whole read, `n / 20`).
    pub band_margin: usize,
    /// First coordinate of the reference's position space (default 0).
    /// A nonzero offset shifts every reported coordinate by the same amount
    /// and is how coordinate spaces past the 4 Gbp `u32` horizon are
    /// exercised without materializing 4 GB of sequence; mapping behaviour is
    /// otherwise identical.
    pub base_offset: RefPos,
}

impl Default for MapperParams {
    fn default() -> MapperParams {
        let k = 15;
        MapperParams {
            k,
            w: 10,
            chain: ChainParams::for_k(k),
            align: AlignmentParams::default(),
            min_chain_score: 30.0,
            min_identity: 0.55,
            band_margin: 32,
            base_offset: 0,
        }
    }
}

/// Workload counters for one mapped read — inputs to the hardware cost
/// models.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MappingCounters {
    /// Minimizers extracted from the query.
    pub minimizers: usize,
    /// Hash-table (CAM) lookups.
    pub seed_queries: usize,
    /// Anchors produced.
    pub anchors: usize,
    /// Chaining DP predecessor evaluations.
    pub chain_evals: usize,
    /// Alignment DP cells.
    pub align_cells: usize,
}

impl MappingCounters {
    /// Accumulates another counter set.
    pub fn add(&mut self, other: &MappingCounters) {
        self.minimizers += other.minimizers;
        self.seed_queries += other.seed_queries;
        self.anchors += other.anchors;
        self.chain_evals += other.chain_evals;
        self.align_cells += other.align_cells;
    }
}

/// A successful mapping.
#[derive(Debug, Clone, PartialEq)]
pub struct Mapping {
    /// The reference this mapping hit, set by a multi-reference
    /// [`crate::ReferenceSet`] merge; `None` for plain single-reference
    /// mapping (whose output stays byte-for-byte what it always was).
    pub ref_name: Option<Arc<str>>,
    /// Reference start (forward-strand coordinates including the index's
    /// base offset, inclusive).
    pub ref_start: usize,
    /// Reference end (exclusive).
    pub ref_end: usize,
    /// Mapping strand.
    pub strand: Strand,
    /// Best chain score.
    pub chain_score: f64,
    /// Alignment score.
    pub align_score: i32,
    /// BLAST identity of the alignment.
    pub identity: f64,
    /// Mapping quality (0–60).
    pub mapq: u8,
    /// Alignment CIGAR (query vs the reported reference span).
    pub cigar: Vec<CigarOp>,
}

/// Outcome of mapping one read.
#[derive(Debug, Clone, PartialEq)]
pub struct MappingResult {
    /// The mapping, or `None` if the read is unmapped.
    pub mapping: Option<Mapping>,
    /// Best chain score observed (even when unmapped — ER-CMR thresholds
    /// use this).
    pub best_chain_score: f64,
    /// Workload counters.
    pub counters: MappingCounters,
}

/// Reusable per-worker sketching/seeding working memory for
/// [`Mapper::sketch_and_seed_into`]. One instance per thread keeps
/// steady-state seeding free of per-chunk allocations.
#[derive(Debug, Clone, Default)]
pub struct SeedScratch {
    pub(crate) mins: Vec<Minimizer>,
    pub(crate) sketch: MinimizerScratch,
}

impl SeedScratch {
    /// Creates an empty workspace; buffers are sized lazily on first use.
    pub fn new() -> SeedScratch {
        SeedScratch::default()
    }
}

/// The read mapper.
///
/// The reference genome **and** the minimizer index are held behind
/// [`Arc`]s, so cloning a `Mapper` (or constructing one via
/// [`Mapper::build_shared`]) shares one copy of the reference data and one
/// index; a single mapper instance serves all worker threads of the
/// parallel/streaming pipeline by shared reference (`Mapper` is `Sync`),
/// and even cloned mappers never duplicate whole-genome index state.
#[derive(Debug, Clone)]
pub struct Mapper {
    genome: Arc<Genome>,
    index: Arc<ReferenceIndex>,
    params: MapperParams,
}

impl Mapper {
    /// Builds the reference index and returns a ready mapper, copying the
    /// genome once into shared storage. Callers that already hold an
    /// `Arc<Genome>` should prefer [`Mapper::build_shared`].
    pub fn build(genome: &Genome, params: MapperParams) -> Mapper {
        Mapper::build_shared(Arc::new(genome.clone()), params)
    }

    /// Builds the reference index over an already-shared genome, without
    /// copying the reference data. The index is shared behind an [`Arc`].
    pub fn build_shared(genome: Arc<Genome>, params: MapperParams) -> Mapper {
        let index = Arc::new(ReferenceIndex::build_at(
            &genome,
            params.k,
            params.w,
            params.base_offset,
        ));
        Mapper {
            genome,
            index,
            params,
        }
    }

    /// The mapper's configuration.
    pub fn params(&self) -> &MapperParams {
        &self.params
    }

    /// The underlying reference index.
    pub fn index(&self) -> &ReferenceIndex {
        &self.index
    }

    /// The reference genome.
    pub fn genome(&self) -> &Genome {
        &self.genome
    }

    /// Fresh chainer pair (forward, reverse) for incremental chunk-based
    /// mapping.
    pub fn new_chainers(&self) -> (IncrementalChainer, IncrementalChainer) {
        (
            IncrementalChainer::new(self.params.chain),
            IncrementalChainer::new(self.params.chain),
        )
    }

    /// Sketches `seq` (a basecalled chunk or a whole read) and seeds its
    /// minimizers, offsetting query positions by `qpos_offset`.
    ///
    /// Convenience wrapper over [`Mapper::sketch_and_seed_into`]; hot loops
    /// should own a [`SeedScratch`] and a reusable [`SeedBatch`] instead.
    pub fn sketch_and_seed(&self, seq: &DnaSeq, qpos_offset: RefPos) -> (SeedBatch, usize) {
        let mut batch = SeedBatch::default();
        let n = self.sketch_and_seed_into(seq, qpos_offset, &mut SeedScratch::new(), &mut batch);
        (batch, n)
    }

    /// Sketches `seq` and seeds its minimizers into `batch` (cleared first),
    /// reusing `scratch` for all intermediate buffers. Returns the number of
    /// minimizers extracted.
    pub fn sketch_and_seed_into(
        &self,
        seq: &DnaSeq,
        qpos_offset: RefPos,
        scratch: &mut SeedScratch,
        batch: &mut SeedBatch,
    ) -> usize {
        minimizers_into(
            seq,
            self.params.k,
            self.params.w,
            &mut scratch.sketch,
            &mut scratch.mins,
        );
        seed_batch_into(&self.index, &scratch.mins, qpos_offset, batch);
        scratch.mins.len()
    }

    /// Completes a mapping from filled chainers with a fresh alignment
    /// workspace.
    ///
    /// Convenience wrapper over [`Mapper::finalize_mapping_with`]; hot loops
    /// should own an [`AlignScratch`] and pass it in.
    pub fn finalize_mapping(
        &self,
        query: &DnaSeq,
        forward: &IncrementalChainer,
        reverse: &IncrementalChainer,
    ) -> (Option<Mapping>, f64, usize) {
        self.finalize_mapping_with(query, forward, reverse, &mut AlignScratch::new())
    }

    /// Completes a mapping from filled chainers: picks the best strand/chain,
    /// aligns the query against the chain's reference window, and applies the
    /// unmapped thresholds. The alignment runs in `scratch`; on a warmed
    /// scratch it allocates only its traceback matrix and the returned CIGAR.
    ///
    /// Returns the (optional) mapping, the best chain score, and the number
    /// of alignment DP cells spent.
    pub fn finalize_mapping_with(
        &self,
        query: &DnaSeq,
        forward: &IncrementalChainer,
        reverse: &IncrementalChainer,
        scratch: &mut AlignScratch,
    ) -> (Option<Mapping>, f64, usize) {
        let fwd_score = forward.best_score();
        let rev_score = reverse.best_score();
        let best_score = fwd_score.max(rev_score);
        if best_score < self.params.min_chain_score || query.is_empty() {
            return (None, best_score, 0);
        }
        let (chainer, strand, other_best) = if fwd_score >= rev_score {
            (forward, Strand::Forward, rev_score)
        } else {
            (reverse, Strand::Reverse, fwd_score)
        };
        let chain = chainer.best_chain().expect("score > 0 implies a chain");
        let anchors = chainer.anchors();
        let first = anchors[*chain.anchor_indices.first().expect("non-empty chain")];
        let last = anchors[*chain.anchor_indices.last().expect("non-empty chain")];

        // Extrapolate the chain to the query ends to get the reference
        // window, in chain coordinates. Forward chain coordinates carry the
        // index's base offset; reverse chain coordinates are offset-free (the
        // `coord_end - k - pos` transform cancels the offset), so each strand
        // clamps to its own coordinate bounds.
        let o = self.index.base_offset() as i64;
        let g = self.genome.len() as i64;
        let k = self.params.k as i64;
        let qlen = query.len() as i64;
        let (c_lo, c_hi) = match strand {
            Strand::Forward => (o, o + g),
            Strand::Reverse => (0, g),
        };
        let wstart = (first.rpos as i64 - first.qpos as i64).clamp(c_lo, c_hi);
        let wend = (last.rpos as i64 + k + (qlen - last.qpos as i64)).clamp(c_lo, c_hi);
        if wend <= wstart {
            return (None, best_score, 0);
        }
        let wlen = (wend - wstart) as usize;

        // Unpack the query and the window sequence (chain coordinates are
        // RC-genome coordinates on the reverse strand).
        let (start, reverse) = match strand {
            Strand::Forward => ((wstart - o) as usize, false),
            Strand::Reverse => ((g - wend) as usize, true),
        };
        scratch.load(query, self.genome.sequence(), start..start + wlen, reverse);

        // Band: a corridor along the chain. Each anchor pins the DP cell that
        // consumes its first base pair. Where the window was clamped to the
        // reference, the read's overhang is one vertical run along the
        // window's edge, so the cell at which the chain's first (last)
        // diagonal enters (leaves) the window is pinned too.
        let cell = |anchor: Anchor| (anchor.qpos as i64 + 1, anchor.rpos as i64 - wstart + 1);
        let (enter, leave) = (cell(first), cell(last));
        let enter = Some((enter.0 - enter.1, 0)).filter(|&(row, _)| row > 0);
        let leave =
            Some((leave.0 + wlen as i64 - leave.1, wlen as i64)).filter(|&(row, _)| row < qlen);
        let chained = chain.anchor_indices.iter().map(|&i| cell(anchors[i]));
        let pins = enter.into_iter().chain(chained).chain(leave);

        // Half-width: the margin, plus what the path may do where nothing
        // pins it — drift a column per 20 bases over the longest unpinned
        // stretch, or spend the whole indel between two pins next to either.
        let rows = [0].into_iter().chain(pins.clone().map(|(row, _)| row));
        let stretch = rows
            .clone()
            .zip(rows.skip(1).chain([qlen]))
            .map(|(from, to)| to - from)
            .fold(0, i64::max);
        let jump = pins
            .clone()
            .zip(pins.clone().skip(1))
            .map(|(from, to)| ((to.1 - to.0) - (from.1 - from.0)).abs())
            .fold(0, i64::max);
        let halfwidth = self.params.band_margin.max(jump as usize) + stretch as usize / 20;

        let alignment = scratch.align_along(&self.params.align, pins, halfwidth);
        let cells = alignment.cells;
        if alignment.identity() < self.params.min_identity {
            return (None, best_score, cells);
        }

        // Second-best chain score for MAPQ: the best competitor is either the
        // other strand's best chain or a same-strand chain at another locus.
        let exclusion_halo = query.len() as RefPos;
        let lo = (wstart as RefPos).saturating_sub(exclusion_halo);
        let hi = (wend as RefPos).saturating_add(exclusion_halo);
        let second = other_best.max(chainer.best_score_outside(lo..hi));
        let mapq = compute_mapq(chain.score, second, chain.anchor_indices.len());

        // Report the window in forward-genome coordinates (offset included).
        let (ref_start, ref_end) = match strand {
            Strand::Forward => (wstart as usize, wend as usize),
            Strand::Reverse => ((o + g - wend) as usize, (o + g - wstart) as usize),
        };

        let mapping = Mapping {
            ref_name: None,
            ref_start,
            ref_end,
            strand,
            chain_score: chain.score,
            align_score: alignment.score,
            identity: alignment.identity(),
            mapq,
            cigar: alignment.cigar,
        };
        (Some(mapping), best_score, cells)
    }

    /// Maps a whole read through the conventional (non-chunked) flow with a
    /// fresh workspace.
    ///
    /// Convenience wrapper over [`Mapper::map_with`]; hot loops should own
    /// the scratch buffers and chainer pair and pass them in.
    pub fn map(&self, query: &DnaSeq) -> MappingResult {
        let (mut fwd, mut rev) = self.new_chainers();
        self.map_with(
            query,
            &mut SeedScratch::new(),
            &mut SeedBatch::default(),
            &mut fwd,
            &mut rev,
            &mut AlignScratch::new(),
        )
    }

    /// Maps a whole read through the conventional flow, reusing caller-owned
    /// buffers: `scratch`/`batch` for sketching and seeding, a chainer
    /// pair (reset here) for the DP, and `align` for the alignment. Results
    /// are identical to [`Mapper::map`]; only allocation behaviour differs.
    pub fn map_with(
        &self,
        query: &DnaSeq,
        scratch: &mut SeedScratch,
        batch: &mut SeedBatch,
        fwd: &mut IncrementalChainer,
        rev: &mut IncrementalChainer,
        align: &mut AlignScratch,
    ) -> MappingResult {
        fwd.reset();
        rev.reset();
        let mut counters = MappingCounters::default();
        let n_mins = self.sketch_and_seed_into(query, 0, scratch, batch);
        counters.minimizers = n_mins;
        counters.seed_queries = batch.queries;
        counters.anchors = batch.hits;
        fwd.extend(&batch.forward);
        rev.extend(&batch.reverse);
        counters.chain_evals = fwd.dp_evaluations() + rev.dp_evaluations();
        let (mapping, best_chain_score, align_cells) =
            self.finalize_mapping_with(query, fwd, rev, align);
        counters.align_cells = align_cells;
        MappingResult {
            mapping,
            best_chain_score,
            counters,
        }
    }
}

/// minimap2-inspired mapping quality from best/second chain scores and chain
/// length, spanning the full advertised 0–60 range: 60 for a long chain with
/// no competitor, 0 for a tied competitor, scaled linearly in between by the
/// second/best ratio and a short-chain penalty.
fn compute_mapq(best: f64, second: f64, chain_len: usize) -> u8 {
    if best <= 0.0 {
        return 0;
    }
    let ratio = (second / best).clamp(0.0, 1.0);
    let len_factor = (chain_len as f64 / 10.0).min(1.0);
    (60.0 * (1.0 - ratio) * len_factor).round().clamp(0.0, 60.0) as u8
}

#[cfg(test)]
mod tests {
    use super::*;
    use genpip_genomics::rng::seeded;
    use genpip_genomics::{ErrorModel, GenomeBuilder};

    fn mapper(n: usize, seed: u64) -> Mapper {
        let genome = GenomeBuilder::new(n).seed(seed).build();
        Mapper::build(&genome, MapperParams::default())
    }

    #[test]
    fn exact_substring_maps_to_its_origin() {
        let m = mapper(50_000, 1);
        for start in [0usize, 12_345, 49_000] {
            let len = 900.min(50_000 - start);
            let q = m.genome().sequence().subseq(start, len);
            let result = m.map(&q);
            let mapping = result.mapping.expect("exact substring must map");
            assert_eq!(mapping.strand, Strand::Forward);
            assert!(
                mapping.ref_start.abs_diff(start) < 30,
                "start {start} mapped to {}",
                mapping.ref_start
            );
            assert!(mapping.identity > 0.98);
            assert!(mapping.mapq > 10);
        }
    }

    #[test]
    fn reverse_complement_substring_maps_reverse() {
        let m = mapper(50_000, 2);
        let start = 20_000;
        let q = m
            .genome()
            .sequence()
            .subseq(start, 800)
            .reverse_complement();
        let result = m.map(&q);
        let mapping = result.mapping.expect("rc substring must map");
        assert_eq!(mapping.strand, Strand::Reverse);
        assert!(
            mapping.ref_start.abs_diff(start) < 30,
            "mapped to {} expected ~{start}",
            mapping.ref_start
        );
        assert!(mapping.identity > 0.98);
    }

    #[test]
    fn noisy_read_still_maps() {
        let m = mapper(50_000, 3);
        let mut rng = seeded(4);
        let start = 30_000;
        let truth = m.genome().sequence().subseq(start, 1_500);
        let (noisy, _) = ErrorModel::with_total_rate(0.12).apply(&truth, &mut rng);
        let result = m.map(&noisy);
        let mapping = result.mapping.expect("12% error read must map");
        assert!(mapping.ref_start.abs_diff(start) < 60);
        assert!(mapping.identity > 0.8, "identity {}", mapping.identity);
    }

    #[test]
    fn alien_read_is_unmapped() {
        let m = mapper(50_000, 5);
        let alien = GenomeBuilder::new(1_200)
            .seed(777)
            .build()
            .sequence()
            .clone();
        let result = m.map(&alien);
        assert!(result.mapping.is_none());
        assert!(result.best_chain_score < m.params().min_chain_score);
    }

    #[test]
    fn empty_read_is_unmapped() {
        let m = mapper(10_000, 6);
        let result = m.map(&DnaSeq::new());
        assert!(result.mapping.is_none());
        assert_eq!(result.counters.anchors, 0);
    }

    #[test]
    fn chunked_mapping_matches_whole_read_mapping() {
        // Drive the incremental API exactly as GenPIP's CP does and compare
        // with Mapper::map.
        let m = mapper(40_000, 7);
        let start = 11_000;
        let q = m.genome().sequence().subseq(start, 1_200);
        let (mut fwd, mut rev) = m.new_chainers();
        let chunk = 300;
        let mut offset = 0usize;
        while offset < q.len() {
            let len = chunk.min(q.len() - offset);
            let part = q.subseq(offset, len);
            let (batch, _) = m.sketch_and_seed(&part, offset as RefPos);
            fwd.extend(&batch.forward);
            rev.extend(&batch.reverse);
            offset += len;
        }
        let (mapping, _, _) = m.finalize_mapping(&q, &fwd, &rev);
        let mapping = mapping.expect("chunked mapping must succeed");
        let whole = m.map(&q).mapping.unwrap();
        assert_eq!(mapping.strand, whole.strand);
        assert!(mapping.ref_start.abs_diff(whole.ref_start) < 40);
    }

    #[test]
    fn repeat_mapping_gets_low_mapq() {
        // A genome that contains the same unit twice far apart: a read from
        // the unit is ambiguous and must get a low MAPQ.
        let unit = GenomeBuilder::new(2_000)
            .seed(8)
            .repeat_fraction(0.0)
            .build();
        let mut seq = GenomeBuilder::new(10_000)
            .seed(9)
            .repeat_fraction(0.0)
            .build()
            .sequence()
            .clone();
        seq.extend_from_seq(unit.sequence());
        seq.extend_from_seq(
            GenomeBuilder::new(10_000)
                .seed(10)
                .repeat_fraction(0.0)
                .build()
                .sequence(),
        );
        seq.extend_from_seq(unit.sequence());
        seq.extend_from_seq(
            GenomeBuilder::new(10_000)
                .seed(11)
                .repeat_fraction(0.0)
                .build()
                .sequence(),
        );
        let genome = genpip_genomics::Genome::from_seq("dup", seq);
        let m = Mapper::build(&genome, MapperParams::default());
        let q = unit.sequence().subseq(500, 800);
        let result = m.map(&q);
        let mapping = result.mapping.expect("repeat read still maps somewhere");
        assert!(
            mapping.mapq <= 10,
            "ambiguous read got mapq {}",
            mapping.mapq
        );

        // A unique read keeps a high MAPQ (the 0–60 scale puts an
        // uncontested long chain well above the ambiguous band).
        let uq = genome.sequence().subseq(3_000, 800);
        let unique = m.map(&uq).mapping.unwrap();
        assert!(unique.mapq > 30, "unique read got mapq {}", unique.mapq);
    }

    #[test]
    fn beyond_4gbp_offset_reference_builds_and_maps() {
        // The acceptance scenario for genuinely unbounded references: a
        // coordinate space starting past 4 Gbp builds, and every mapping —
        // forward, reverse, noisy — is the offset-0 mapping shifted by
        // exactly the offset, with all non-coordinate fields bit-identical.
        let genome = GenomeBuilder::new(50_000).seed(30).build();
        let offset: RefPos = 5_000_000_000;
        let plain = Mapper::build(&genome, MapperParams::default());
        let shifted = Mapper::build(
            &genome,
            MapperParams {
                base_offset: offset,
                ..MapperParams::default()
            },
        );
        let mut rng = seeded(31);
        let mut queries = Vec::new();
        for start in [0usize, 17_000, 49_000] {
            let len = 900.min(50_000 - start);
            let truth = genome.sequence().subseq(start, len);
            queries.push(truth.clone());
            queries.push(truth.reverse_complement());
            let (noisy, _) = ErrorModel::with_total_rate(0.1).apply(&truth, &mut rng);
            queries.push(noisy);
        }
        for (i, q) in queries.iter().enumerate() {
            let base = plain.map(q);
            let moved = shifted.map(q);
            assert_eq!(moved.best_chain_score, base.best_chain_score, "query {i}");
            assert_eq!(moved.counters, base.counters, "query {i}");
            match (base.mapping, moved.mapping) {
                (None, None) => {}
                (Some(b), Some(m)) => {
                    assert_eq!(m.ref_start, b.ref_start + offset as usize, "query {i}");
                    assert_eq!(m.ref_end, b.ref_end + offset as usize, "query {i}");
                    assert!(m.ref_end > u32::MAX as usize);
                    assert_eq!(
                        Mapping {
                            ref_start: b.ref_start,
                            ref_end: b.ref_end,
                            ..m
                        },
                        b,
                        "query {i}: non-coordinate fields diverged"
                    );
                }
                (b, m) => panic!("query {i}: mapped-ness diverged ({b:?} vs {m:?})"),
            }
        }
    }

    #[test]
    fn counters_populate() {
        let m = mapper(30_000, 12);
        let q = m.genome().sequence().subseq(5_000, 1_000);
        let r = m.map(&q);
        let c = r.counters;
        assert!(c.minimizers > 50);
        assert_eq!(c.seed_queries, c.minimizers);
        assert!(c.anchors >= 50);
        assert!(c.chain_evals > 0);
        assert!(c.align_cells > 0);
        let mut acc = MappingCounters::default();
        acc.add(&c);
        acc.add(&c);
        assert_eq!(acc.anchors, 2 * c.anchors);
    }

    #[test]
    fn mapq_formula_behaviour() {
        assert_eq!(compute_mapq(0.0, 0.0, 5), 0);
        assert_eq!(compute_mapq(100.0, 100.0, 20), 0);
        // An uncontested long chain reaches the top of the advertised range.
        assert_eq!(compute_mapq(100.0, 0.0, 20), 60);
        assert_eq!(compute_mapq(100.0, 50.0, 20), 30);
        assert!(compute_mapq(100.0, 50.0, 20) > 0);
        assert!(compute_mapq(100.0, 0.0, 2) < compute_mapq(100.0, 0.0, 20));
        // The formula never escapes 0–60 even for pathological inputs.
        assert!(compute_mapq(1.0, -50.0, 1_000) <= 60);
        assert_eq!(compute_mapq(100.0, 200.0, 20), 0);
    }
}
