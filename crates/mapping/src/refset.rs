//! Multi-reference (pan-genome) mapping.
//!
//! A [`ReferenceSet`] holds several named references — each with its own
//! minimizer index and its own coordinate space — and fans one read across
//! all of them.
//!
//! Both flows map through one seed-and-chain step over one per-worker
//! [`MapScratch`]: [`ReferenceSet::reset`] starts a read,
//! [`ReferenceSet::seed_and_chain`] sketches a piece of it **once**
//! (minimizers depend only on the sequence and the shared `(k, w)`), seeds
//! the minimizers against every reference's index and extends each
//! reference's chainer pair, and [`ReferenceSet::finish`] finalizes every
//! reference and merges the candidates. GenPIP's chunk-based flow runs the
//! step once per basecalled chunk and thresholds
//! [`MapScratch::best_chain_score`] for ER-CMR between steps;
//! [`ReferenceSet::map_with`], the one whole-read mapper (the conventional
//! flow, `genpip map`), runs it once over the whole read. The step is the
//! one place that knows the chainer-pair layout and the counting rules.
//!
//! The per-reference candidates are merged into one best hit by a
//! deterministic rule:
//!
//! 1. a mapped candidate beats an unmapped reference;
//! 2. among mapped candidates, higher chain score wins;
//! 3. ties break by reference name (ascending), then reference start
//!    position (ascending).
//!
//! The merge is a pure function of the per-reference results, so the winner
//! is identical for every parallelism level and evaluation order. Only
//! multi-reference winners carry a `Some(name)` attribution: a one-reference
//! set reports its reference's mapping with `ref_name` left `None`.

use crate::align::AlignScratch;
use crate::chain::IncrementalChainer;
use crate::mapper::{Mapper, MapperParams, Mapping, MappingCounters, SeedScratch};
use crate::minimizer::minimizers_into;
use crate::seed::{seed_batch_into, SeedBatch};
use crate::RefPos;
use genpip_genomics::{DnaSeq, Genome};
use std::sync::Arc;

/// One reference's contribution to a [`SetMappingResult`].
#[derive(Debug, Clone, PartialEq)]
pub struct ReferenceMapping {
    /// The reference's name.
    pub reference: Arc<str>,
    /// This reference's mapping for the read, if it mapped here. Identical
    /// to what a one-reference set over the same reference reports
    /// (`ref_name` is `None`; attribution happens only on the merged
    /// winner).
    pub mapping: Option<Mapping>,
    /// Best chain score observed on this reference (even when unmapped).
    pub best_chain_score: f64,
    /// Alignment DP cells spent finalizing against this reference.
    pub align_cells: usize,
}

/// Outcome of mapping one read against a [`ReferenceSet`].
#[derive(Debug, Clone, PartialEq)]
pub struct SetMappingResult {
    /// Per-reference candidates, in the set's reference order.
    pub per_reference: Vec<ReferenceMapping>,
    /// The merged best hit across all references (see module docs for the
    /// merge rule). In a multi-reference set its `ref_name` names the
    /// winning reference; in a single-reference set it is that reference's
    /// mapping, unattributed.
    pub best: Option<Mapping>,
    /// Best chain score across all references.
    pub best_chain_score: f64,
    /// Workload counters summed across references (minimizers counted
    /// once — the sketch is shared).
    pub counters: MappingCounters,
}

/// One worker's workspace for [`ReferenceSet`]'s seed-and-chain step: the
/// sketch and seed buffers, one (forward, reverse) chainer pair per
/// reference, the alignment workspace, and the running counters of the read
/// in progress.
///
/// A worker keeps one per set and reuses it read after read, so
/// steady-state mapping does not allocate. The default scratch is empty;
/// the first [`ReferenceSet::reset`] sizes it to the set.
#[derive(Debug, Default)]
pub struct MapScratch {
    seed: SeedScratch,
    batch: SeedBatch,
    pairs: Vec<(IncrementalChainer, IncrementalChainer)>,
    align: AlignScratch,
    counters: MappingCounters,
}

impl MapScratch {
    /// Best chain score so far across every reference and strand — what
    /// ER-CMR thresholds. Chain scores are never negative, so a read with no
    /// chain scores 0.
    pub fn best_chain_score(&self) -> f64 {
        self.pairs.iter().fold(0.0f64, |best, (fwd, rev)| {
            best.max(fwd.best_score()).max(rev.best_score())
        })
    }
}

/// A set of named references mapped as one pan-genome.
///
/// All references share one [`MapperParams`]; each gets its own [`Mapper`]
/// (genome + index). Cloning the set shares the underlying genomes
/// and indexes ([`Mapper`] is cheaply clonable).
#[derive(Debug, Clone)]
pub struct ReferenceSet {
    mappers: Vec<Mapper>,
    names: Vec<Arc<str>>,
}

impl ReferenceSet {
    /// Builds a set over the given references, copying each genome once into
    /// shared storage.
    ///
    /// # Panics
    ///
    /// Panics if `genomes` is empty, or if any reference name is empty or
    /// duplicated — the merge tie-break and per-reference attribution need
    /// unique names.
    pub fn build(genomes: &[Genome], params: MapperParams) -> ReferenceSet {
        ReferenceSet::build_shared(
            genomes.iter().map(|g| Arc::new(g.clone())).collect(),
            params,
        )
    }

    /// Builds a set over already-shared genomes, without copying reference
    /// data. Same validation as [`ReferenceSet::build`].
    pub fn build_shared(genomes: Vec<Arc<Genome>>, params: MapperParams) -> ReferenceSet {
        assert!(!genomes.is_empty(), "a ReferenceSet needs >= 1 reference");
        let names: Vec<Arc<str>> = genomes.iter().map(|g| Arc::from(g.name())).collect();
        for (i, name) in names.iter().enumerate() {
            assert!(!name.is_empty(), "reference {i} has an empty name");
            assert!(
                !names[..i].contains(name),
                "duplicate reference name {name:?}: every reference in a set \
                 needs a unique name"
            );
        }
        let mappers = genomes
            .into_iter()
            .map(|g| Mapper::build_shared(g, params))
            .collect();
        ReferenceSet { mappers, names }
    }

    /// Number of references in the set.
    pub fn len(&self) -> usize {
        self.mappers.len()
    }

    /// Whether the set is empty (never true for a built set).
    pub fn is_empty(&self) -> bool {
        self.mappers.is_empty()
    }

    /// The reference names, in set order.
    pub fn names(&self) -> &[Arc<str>] {
        &self.names
    }

    /// The per-reference mappers, in set order.
    pub fn mappers(&self) -> &[Mapper] {
        &self.mappers
    }

    /// The first reference's mapper — the "primary" a single-reference
    /// pipeline would have used.
    pub fn primary(&self) -> &Mapper {
        &self.mappers[0]
    }

    /// Looks up a reference's mapper by name.
    pub fn get(&self, name: &str) -> Option<&Mapper> {
        self.names
            .iter()
            .position(|n| n.as_ref() == name)
            .map(|i| &self.mappers[i])
    }

    /// The shared mapper configuration.
    fn params(&self) -> &MapperParams {
        self.primary().params()
    }

    /// Starts a read in `scratch`: one reset (forward, reverse) chainer pair
    /// per reference and zeroed running counters. The first reset sizes a
    /// fresh scratch to the set; later ones keep every buffer's capacity.
    pub fn reset(&self, scratch: &mut MapScratch) {
        scratch
            .pairs
            .resize_with(self.len(), || self.primary().new_chainers());
        for (fwd, rev) in &mut scratch.pairs {
            fwd.reset();
            rev.reset();
        }
        scratch.counters = MappingCounters::default();
    }

    /// The seed-and-chain step: sketches `seq` (a basecalled chunk, or a
    /// whole read) once, seeds its minimizers against every reference with
    /// query positions offset by `qpos_offset`, and extends each reference's
    /// chainer pair. Returns this step's counters — the minimizers of the
    /// one sketch, and the seed queries, anchors and chain DP evaluations
    /// summed over the references — and adds them to the read's running
    /// counters.
    pub fn seed_and_chain(
        &self,
        seq: &DnaSeq,
        qpos_offset: RefPos,
        scratch: &mut MapScratch,
    ) -> MappingCounters {
        assert_eq!(
            scratch.pairs.len(),
            self.len(),
            "reset the scratch for this set first"
        );
        let params = self.params();
        let MapScratch {
            seed,
            batch,
            pairs,
            counters,
            ..
        } = scratch;
        minimizers_into(seq, params.k, params.w, &mut seed.sketch, &mut seed.mins);
        let mut step = MappingCounters {
            minimizers: seed.mins.len(),
            ..MappingCounters::default()
        };
        for (mapper, (fwd, rev)) in self.mappers.iter().zip(pairs.iter_mut()) {
            seed_batch_into(mapper.index(), &seed.mins, qpos_offset, batch);
            let evals_before = fwd.dp_evaluations() + rev.dp_evaluations();
            fwd.extend(&batch.forward);
            rev.extend(&batch.reverse);
            step.seed_queries += batch.queries;
            step.anchors += batch.hits;
            step.chain_evals += fwd.dp_evaluations() + rev.dp_evaluations() - evals_before;
        }
        *counters += step;
        step
    }

    /// Ends the read: finalizes every reference's chainer pair against
    /// `query` (the read's whole sequence), running the alignments in the
    /// scratch, and merges the candidates. The result's counters are the
    /// read's running counters plus the alignment cells.
    pub fn finish(&self, query: &DnaSeq, scratch: &mut MapScratch) -> SetMappingResult {
        assert_eq!(
            scratch.pairs.len(),
            self.len(),
            "reset the scratch for this set first"
        );
        let mut per_reference = Vec::with_capacity(self.len());
        let mut best_chain_score = 0.0f64;
        let mut counters = scratch.counters;
        for ((mapper, name), (fwd, rev)) in self.mappers.iter().zip(&self.names).zip(&scratch.pairs)
        {
            let (mapping, score, cells) =
                mapper.finalize_mapping_with(query, fwd, rev, &mut scratch.align);
            best_chain_score = best_chain_score.max(score);
            counters.align_cells += cells;
            per_reference.push(ReferenceMapping {
                reference: Arc::clone(name),
                mapping,
                best_chain_score: score,
                align_cells: cells,
            });
        }
        let best = self.merge(&per_reference);
        SetMappingResult {
            per_reference,
            best,
            best_chain_score,
            counters,
        }
    }

    /// The deterministic best-hit merge (see module docs). Attributes the
    /// winner with its reference name only when the set holds more than one
    /// reference, so single-reference output is untouched.
    fn merge(&self, per_reference: &[ReferenceMapping]) -> Option<Mapping> {
        let mut winner: Option<&ReferenceMapping> = None;
        for candidate in per_reference {
            let Some(m) = &candidate.mapping else {
                continue;
            };
            let beats = match winner.and_then(|w| w.mapping.as_ref().map(|wm| (w, wm))) {
                None => true,
                Some((w, wm)) => {
                    if m.chain_score != wm.chain_score {
                        m.chain_score > wm.chain_score
                    } else if candidate.reference != w.reference {
                        candidate.reference < w.reference
                    } else {
                        m.ref_start < wm.ref_start
                    }
                }
            };
            if beats {
                winner = Some(candidate);
            }
        }
        winner.map(|w| {
            let mut m = w.mapping.clone().expect("winner is mapped");
            if self.len() > 1 {
                m.ref_name = Some(Arc::clone(&w.reference));
            }
            m
        })
    }

    /// Maps a whole read against every reference with a fresh workspace.
    ///
    /// Convenience wrapper over [`ReferenceSet::map_with`]; hot loops should
    /// own a [`MapScratch`] and pass it in.
    pub fn map(&self, query: &DnaSeq) -> SetMappingResult {
        self.map_with(query, &mut MapScratch::default())
    }

    /// Maps a whole read against every reference in a caller-owned
    /// workspace: the seed-and-chain step run once over the whole read.
    /// Results are identical to [`ReferenceSet::map`]; only allocation
    /// behaviour differs.
    pub fn map_with(&self, query: &DnaSeq, scratch: &mut MapScratch) -> SetMappingResult {
        self.reset(scratch);
        self.seed_and_chain(query, 0, scratch);
        self.finish(query, scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genpip_genomics::rng::seeded;
    use genpip_genomics::{ErrorModel, GenomeBuilder};

    fn named_genome(n: usize, seed: u64, name: &str) -> Genome {
        GenomeBuilder::new(n).seed(seed).name(name).build()
    }

    #[test]
    #[should_panic(expected = "duplicate reference name")]
    fn duplicate_names_are_rejected() {
        let a = named_genome(5_000, 1, "same");
        let b = named_genome(6_000, 2, "same");
        ReferenceSet::build(&[a, b], MapperParams::default());
    }

    #[test]
    #[should_panic(expected = ">= 1 reference")]
    fn empty_set_is_rejected() {
        ReferenceSet::build(&[], MapperParams::default());
    }

    fn one_reference(g: &Genome, params: MapperParams) -> ReferenceSet {
        ReferenceSet::build(std::slice::from_ref(g), params)
    }

    #[test]
    fn a_single_reference_set_leaves_its_mapping_unattributed() {
        let g = named_genome(40_000, 3, "solo");
        let set = one_reference(&g, MapperParams::default());
        let mut rng = seeded(4);
        for start in [0usize, 9_000, 27_000] {
            let truth = g.sequence().subseq(start, 900);
            let (noisy, _) = ErrorModel::with_total_rate(0.1).apply(&truth, &mut rng);
            for q in [truth.clone(), truth.reverse_complement(), noisy] {
                let merged = set.map(&q);
                let best = merged
                    .best
                    .as_ref()
                    .expect("a read from the reference maps");
                assert!(best.ref_name.is_none(), "{:?}", best.ref_name);
                assert_eq!(merged.best, merged.per_reference[0].mapping);
                assert_eq!(
                    merged.best_chain_score,
                    merged.per_reference[0].best_chain_score
                );
            }
        }
    }

    #[test]
    fn per_reference_results_match_solo_mappers() {
        // The pan-genome fan-out must not change any single reference's
        // answer: reference i's candidate is bit-identical to a one-reference
        // set over reference i alone.
        let refs = [
            named_genome(30_000, 5, "chr_a"),
            named_genome(25_000, 6, "chr_b"),
            named_genome(20_000, 7, "chr_c"),
        ];
        let params = MapperParams::default();
        let set = ReferenceSet::build(&refs, params);
        let q = refs[1].sequence().subseq(8_000, 1_000);
        let result = set.map(&q);
        assert_eq!(result.per_reference.len(), 3);
        for (i, g) in refs.iter().enumerate() {
            let solo = one_reference(g, params).map(&q);
            let per = &result.per_reference[i];
            assert_eq!(per.reference.as_ref(), g.name());
            assert_eq!(per.mapping, solo.best, "reference {i} diverged");
            assert_eq!(per.best_chain_score, solo.best_chain_score);
            assert_eq!(per.align_cells, solo.counters.align_cells);
        }
    }

    #[test]
    fn best_hit_is_attributed_to_the_owning_reference() {
        let home = named_genome(30_000, 8, "home");
        let other = named_genome(30_000, 9, "other");
        let set = ReferenceSet::build(&[other, home.clone()], MapperParams::default());
        let q = home.sequence().subseq(12_000, 900);
        let result = set.map(&q);
        let best = result.best.expect("read from 'home' must map");
        assert_eq!(best.ref_name.as_deref(), Some("home"));
        assert!(best.ref_start.abs_diff(12_000) < 50);
        // The alien reference contributed no competitive candidate.
        let alien = &result.per_reference[0];
        assert!(
            alien.mapping.is_none()
                || alien.mapping.as_ref().unwrap().chain_score < best.chain_score
        );
    }

    #[test]
    fn exact_ties_break_by_reference_name_ascending() {
        // Two references with identical sequence produce identical chain
        // scores and positions; the merge must pick the lexicographically
        // first name, regardless of set order.
        let seq_src = named_genome(20_000, 10, "src");
        let beta = Genome::from_seq("beta", seq_src.sequence().clone());
        let alpha = Genome::from_seq("alpha", seq_src.sequence().clone());
        let q = seq_src.sequence().subseq(6_000, 800);
        for order in [
            vec![beta.clone(), alpha.clone()],
            vec![alpha.clone(), beta.clone()],
        ] {
            let set = ReferenceSet::build(&order, MapperParams::default());
            let best = set.map(&q).best.expect("read must map");
            assert_eq!(best.ref_name.as_deref(), Some("alpha"));
        }
    }

    #[test]
    fn map_with_reuses_buffers_and_matches_map() {
        let refs = [
            named_genome(20_000, 11, "r1"),
            named_genome(20_000, 12, "r2"),
        ];
        let set = ReferenceSet::build(&refs, MapperParams::default());
        let mut scratch = MapScratch::default();
        for (i, g) in refs.iter().enumerate() {
            let q = g.sequence().subseq(3_000 + i * 1_000, 700);
            let reused = set.map_with(&q, &mut scratch);
            assert_eq!(reused, set.map(&q), "query {i} diverged under reuse");
        }
    }

    #[test]
    fn the_chunked_step_matches_each_references_own_steps() {
        // GenPIP's use of the step: a warm scratch that has mapped another
        // read, then one step per 300-base chunk at its offset in the read.
        // Every chunk's counters, the running best chain score and the
        // finished result must equal what each reference's `Mapper` steps
        // give on their own, chunk by chunk.
        let refs = [
            named_genome(30_000, 15, "chr_b"),
            named_genome(30_000, 16, "chr_a"),
        ];
        let set = ReferenceSet::build(&refs, MapperParams::default());
        let mut scratch = MapScratch::default();
        set.map_with(&refs[1].sequence().subseq(2_000, 900), &mut scratch);
        let mut rng = seeded(17);
        let truth = refs[0].sequence().subseq(9_000, 1_300);
        let (q, _) = ErrorModel::with_total_rate(0.08).apply(&truth, &mut rng);
        let mut solo: Vec<_> = set.mappers().iter().map(Mapper::new_chainers).collect();
        set.reset(&mut scratch);
        for offset in (0..q.len()).step_by(300) {
            let chunk = q.subseq(offset, 300.min(q.len() - offset));
            let step = set.seed_and_chain(&chunk, offset as RefPos, &mut scratch);
            let mut want = MappingCounters::default();
            for (mapper, (fwd, rev)) in set.mappers().iter().zip(&mut solo) {
                let (batch, minimizers) = mapper.sketch_and_seed(&chunk, offset as RefPos);
                let before = fwd.dp_evaluations() + rev.dp_evaluations();
                fwd.extend(&batch.forward);
                rev.extend(&batch.reverse);
                want.minimizers = minimizers;
                want.seed_queries += batch.queries;
                want.anchors += batch.hits;
                want.chain_evals += fwd.dp_evaluations() + rev.dp_evaluations() - before;
            }
            assert_eq!(step, want, "chunk at {offset}");
            let best = solo
                .iter()
                .map(|(fwd, rev)| fwd.best_score().max(rev.best_score()))
                .fold(0.0, f64::max);
            assert_eq!(scratch.best_chain_score(), best, "chunk at {offset}");
        }
        let result = set.finish(&q, &mut scratch);
        assert_eq!(
            result.best.as_ref().unwrap().ref_name.as_deref(),
            Some("chr_b")
        );
        for ((per, mapper), (fwd, rev)) in result.per_reference.iter().zip(set.mappers()).zip(&solo)
        {
            let (mapping, score, cells) = mapper.finalize_mapping(&q, fwd, rev);
            assert_eq!(per.mapping, mapping);
            assert_eq!(per.best_chain_score, score);
            assert_eq!(per.align_cells, cells);
        }
    }

    #[test]
    fn counters_sum_across_references_with_one_shared_sketch() {
        let refs = [named_genome(20_000, 13, "a"), named_genome(20_000, 14, "b")];
        let params = MapperParams::default();
        let set = ReferenceSet::build(&refs, params);
        let q = refs[0].sequence().subseq(4_000, 800);
        let merged = set.map(&q);
        let solo_a = one_reference(&refs[0], params).map(&q);
        let solo_b = one_reference(&refs[1], params).map(&q);
        // Minimizers are sketched once, not per reference.
        assert_eq!(merged.counters.minimizers, solo_a.counters.minimizers);
        // Lookups and anchors fan out across both references.
        assert_eq!(
            merged.counters.seed_queries,
            solo_a.counters.seed_queries + solo_b.counters.seed_queries
        );
        assert_eq!(
            merged.counters.anchors,
            solo_a.counters.anchors + solo_b.counters.anchors
        );
        assert_eq!(
            merged.counters.align_cells,
            solo_a.counters.align_cells + solo_b.counters.align_cells
        );
    }
}
