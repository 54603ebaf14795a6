//! Multi-reference (pan-genome) mapping.
//!
//! A [`ReferenceSet`] holds several named references — each with its own
//! minimizer index and its own coordinate space — and fans one read across
//! all of them.
//! The query is sketched **once** (minimizers depend only on the sequence
//! and the shared `(k, w)`), seeded against every reference's index, chained
//! and finalized per reference, and the per-reference candidates are merged
//! into one best hit by a deterministic rule:
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
//!
//! [`ReferenceSet::map_with`] is the one whole-read mapper (the conventional
//! flow, `genpip map`); [`ReferenceSet::finalize_mapping_with`] ends GenPIP's
//! chunk-based flow. Both compose the steps of one [`Mapper`] per reference.

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
    pub fn params(&self) -> &MapperParams {
        self.primary().params()
    }

    /// Fresh (forward, reverse) chainer pairs, one per reference, for
    /// incremental chunk-based mapping.
    pub fn new_chainer_pairs(&self) -> Vec<(IncrementalChainer, IncrementalChainer)> {
        self.mappers.iter().map(|m| m.new_chainers()).collect()
    }

    /// Sketches `seq` once and seeds the minimizers against **every**
    /// reference's index, writing reference `i`'s anchors into `batches[i]`
    /// (the vector is resized to the set's length; batches keep their
    /// capacity across calls). Returns the number of minimizers extracted.
    pub fn sketch_and_seed_into(
        &self,
        seq: &DnaSeq,
        qpos_offset: RefPos,
        scratch: &mut SeedScratch,
        batches: &mut Vec<SeedBatch>,
    ) -> usize {
        let params = self.params();
        minimizers_into(
            seq,
            params.k,
            params.w,
            &mut scratch.sketch,
            &mut scratch.mins,
        );
        batches.resize_with(self.len(), SeedBatch::default);
        for (mapper, batch) in self.mappers.iter().zip(batches.iter_mut()) {
            seed_batch_into(mapper.index(), &scratch.mins, qpos_offset, batch);
        }
        scratch.mins.len()
    }

    /// Finalizes every reference's chainer pair with a fresh alignment
    /// workspace.
    ///
    /// Convenience wrapper over [`ReferenceSet::finalize_mapping_with`]; hot
    /// loops should own an [`AlignScratch`] and pass it in.
    pub fn finalize_mapping(
        &self,
        query: &DnaSeq,
        pairs: &[(IncrementalChainer, IncrementalChainer)],
    ) -> (Vec<ReferenceMapping>, Option<Mapping>, f64, usize) {
        self.finalize_mapping_with(query, pairs, &mut AlignScratch::new())
    }

    /// Finalizes every reference's chainer pair against the query and merges
    /// the candidates, running every alignment in `scratch`. Returns the
    /// per-reference results (set order), the merged best hit, the best chain
    /// score across references, and the total alignment DP cells spent.
    pub fn finalize_mapping_with(
        &self,
        query: &DnaSeq,
        pairs: &[(IncrementalChainer, IncrementalChainer)],
        scratch: &mut AlignScratch,
    ) -> (Vec<ReferenceMapping>, Option<Mapping>, f64, usize) {
        assert_eq!(
            pairs.len(),
            self.len(),
            "one chainer pair per reference expected"
        );
        let mut per_reference = Vec::with_capacity(self.len());
        let mut best_chain_score = 0.0f64;
        let mut total_cells = 0usize;
        for ((mapper, name), (fwd, rev)) in self.mappers.iter().zip(&self.names).zip(pairs) {
            let (mapping, score, cells) = mapper.finalize_mapping_with(query, fwd, rev, scratch);
            best_chain_score = best_chain_score.max(score);
            total_cells += cells;
            per_reference.push(ReferenceMapping {
                reference: Arc::clone(name),
                mapping,
                best_chain_score: score,
                align_cells: cells,
            });
        }
        let best = self.merge(&per_reference);
        (per_reference, best, best_chain_score, total_cells)
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
    /// own the scratch buffers and chainer pairs and pass them in.
    pub fn map(&self, query: &DnaSeq) -> SetMappingResult {
        let mut pairs = self.new_chainer_pairs();
        self.map_with(
            query,
            &mut SeedScratch::new(),
            &mut Vec::new(),
            &mut pairs,
            &mut AlignScratch::new(),
        )
    }

    /// Maps a whole read against every reference, reusing caller-owned
    /// buffers: `scratch`/`batches` for sketching and seeding, one chainer
    /// pair per reference (reset here) for the DP, and `align` for the
    /// alignments. Results are identical to [`ReferenceSet::map`]; only
    /// allocation behaviour differs.
    pub fn map_with(
        &self,
        query: &DnaSeq,
        scratch: &mut SeedScratch,
        batches: &mut Vec<SeedBatch>,
        pairs: &mut [(IncrementalChainer, IncrementalChainer)],
        align: &mut AlignScratch,
    ) -> SetMappingResult {
        assert_eq!(
            pairs.len(),
            self.len(),
            "one chainer pair per reference expected"
        );
        let mut counters = MappingCounters {
            minimizers: self.sketch_and_seed_into(query, 0, scratch, batches),
            ..MappingCounters::default()
        };
        for (batch, (fwd, rev)) in batches.iter().zip(pairs.iter_mut()) {
            fwd.reset();
            rev.reset();
            counters.seed_queries += batch.queries;
            counters.anchors += batch.hits;
            fwd.extend(&batch.forward);
            rev.extend(&batch.reverse);
            counters.chain_evals += fwd.dp_evaluations() + rev.dp_evaluations();
        }
        let (per_reference, best, best_chain_score, align_cells) =
            self.finalize_mapping_with(query, pairs, align);
        counters.align_cells = align_cells;
        SetMappingResult {
            per_reference,
            best,
            best_chain_score,
            counters,
        }
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
        let mut scratch = SeedScratch::new();
        let mut batches = Vec::new();
        let mut pairs = set.new_chainer_pairs();
        let mut align = AlignScratch::new();
        for (i, g) in refs.iter().enumerate() {
            let q = g.sequence().subseq(3_000 + i * 1_000, 700);
            let reused = set.map_with(&q, &mut scratch, &mut batches, &mut pairs, &mut align);
            assert_eq!(reused, set.map(&q), "query {i} diverged under reuse");
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
