//! Laying the reference index out across the seeding unit's CAM arrays.
//!
//! The paper's Figure 9 seeding unit stores minimizer hashes in ReRAM CAM
//! subarrays and their reference-location lists in adjacent ReRAM RAM. It is
//! **one** table: the functional model keeps it as one [`ReferenceIndex`],
//! and this module — the only code that knows the layout — spreads it over
//! **CAM subarray groups**, one per contiguous reference position range,
//! with a query minimizer broadcast to every group in parallel.
//!
//! The layout is a view, not a second index. A key's hits are stored in
//! ascending position order and the groups' spans are contiguous, so group
//! `g`'s rows for a key are a sub-slice of that key's hit list, found with
//! two binary searches. Two invariants keep the hardware image honest:
//!
//! * only **unmasked** entries are programmed
//!   ([`ReferenceIndex::iter_unmasked`]): a repetitive minimizer the
//!   functional model refuses to query must not occupy CAM rows or RAM
//!   words, or the cost models would charge for storage no lookup can reach.
//!   The index's per-key cap counts a key's occurrences over the whole
//!   reference, so it already is the mask every group shares — nothing is
//!   recomputed per group;
//! * keys are programmed in sorted order, so the CAM image (row assignment
//!   included) is deterministic run to run despite hash-map iteration.

use crate::arrays::CamBank;
use genpip_mapping::{RefHit, RefPos, ReferenceIndex, ReferenceSet};
use std::ops::Range;
use std::sync::Arc;

/// One CAM subarray group: the programmed bank plus its load statistics for
/// the hardware report.
#[derive(Debug, Clone)]
pub struct ShardGroup {
    /// Group number (position in [`SeedingUnitMap::groups`]).
    pub shard: usize,
    /// The reference position range this group serves (global [`RefPos`]
    /// coordinates — the index's base offset included, so spans past the
    /// 4 Gbp `u32` horizon program correctly).
    pub span: Range<RefPos>,
    /// Distinct minimizer hashes programmed (CAM rows in use).
    pub keys: usize,
    /// Reference-location entries stored in the group's RAM arrays.
    pub entries: usize,
    /// The programmed CAM bank.
    pub bank: CamBank,
}

/// The whole seeding unit's CAM image: the reference index laid out over
/// position-range [`ShardGroup`]s.
#[derive(Debug, Clone)]
pub struct SeedingUnitMap {
    rows_per_array: usize,
    groups: Vec<ShardGroup>,
    masked_keys: usize,
    masked_entries: usize,
}

impl SeedingUnitMap {
    /// CAM rows per subarray in the paper's Figure 9 organization
    /// (832×128-bit arrays).
    pub const PAPER_ROWS_PER_ARRAY: usize = 832;

    /// Upper bound on the group count — Table 2's 4096 seeding units, one
    /// CAM subarray group each.
    pub const MAX_GROUPS: usize = 4096;

    /// Programs `index` into `groups` CAM subarray groups (clamped to
    /// `1..=`[`SeedingUnitMap::MAX_GROUPS`]) of near-equal contiguous
    /// position spans, `rows_per_array` keys per CAM subarray. A key whose
    /// hits straddle a span boundary is programmed into every group that
    /// holds one of its hits; each hit lands in exactly one group.
    ///
    /// # Panics
    ///
    /// Panics if `rows_per_array` is 0.
    pub fn load(index: &ReferenceIndex, groups: usize, rows_per_array: usize) -> SeedingUnitMap {
        let spans = group_spans(index, groups);
        // Per group: the keys to program and the RAM entries behind them.
        let mut programmed: Vec<(Vec<u64>, usize)> = vec![(Vec::new(), 0); spans.len()];
        let mut unmasked_keys = 0usize;
        for (hash, hits) in index.iter_unmasked() {
            unmasked_keys += 1;
            for (g, rows) in split_by_span(hits, &spans) {
                programmed[g].0.push(*hash);
                programmed[g].1 += rows.len();
            }
        }
        let groups = spans
            .into_iter()
            .zip(programmed)
            .enumerate()
            .map(|(shard, (span, (mut keys, entries)))| {
                keys.sort_unstable();
                ShardGroup {
                    shard,
                    span,
                    keys: keys.len(),
                    entries,
                    bank: CamBank::build(keys, rows_per_array),
                }
            })
            .collect();
        SeedingUnitMap {
            rows_per_array,
            groups,
            masked_keys: index.distinct_minimizers() - unmasked_keys,
            masked_entries: index.masked_entries(),
        }
    }

    /// CAM rows per subarray this image was built for.
    pub fn rows_per_array(&self) -> usize {
        self.rows_per_array
    }

    /// The CAM groups, in ascending span order.
    pub fn groups(&self) -> &[ShardGroup] {
        &self.groups
    }

    /// Total CAM rows in use across all groups.
    pub fn total_keys(&self) -> usize {
        self.groups.iter().map(|g| g.keys).sum()
    }

    /// Total RAM location entries across all groups.
    pub fn total_entries(&self) -> usize {
        self.groups.iter().map(|g| g.entries).sum()
    }

    /// Total CAM subarrays allocated across all groups.
    pub fn total_cam_arrays(&self) -> usize {
        self.groups.iter().map(|g| g.bank.array_count()).sum()
    }

    /// Keys the repetitive-minimizer mask kept out of the CAM image.
    pub fn masked_keys(&self) -> usize {
        self.masked_keys
    }

    /// Location entries the mask kept out of the RAM image.
    pub fn masked_entries(&self) -> usize {
        self.masked_entries
    }

    /// A per-group load table for the hardware report.
    pub fn report(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "shard  span                    keys     entries  CAM arrays ({} rows each)",
            self.rows_per_array
        );
        for g in &self.groups {
            let _ = writeln!(
                out,
                "{:>5}  [{:>9}..{:>9})  {:>7}  {:>8}  {:>4}",
                g.shard,
                g.span.start,
                g.span.end,
                g.keys,
                g.entries,
                g.bank.array_count()
            );
        }
        let _ = writeln!(
            out,
            "total  {:>23}  {:>7}  {:>8}  {:>4}   (masked: {} keys / {} entries never programmed)",
            "",
            self.total_keys(),
            self.total_entries(),
            self.total_cam_arrays(),
            self.masked_keys,
            self.masked_entries
        );
        out
    }
}

/// Splits the index's coordinate space into `groups` (clamped to
/// `1..=`[`SeedingUnitMap::MAX_GROUPS`]) near-equal contiguous spans; the
/// first `genome_len % groups` spans are one base longer, and trailing spans
/// are empty when there are more groups than bases.
fn group_spans(index: &ReferenceIndex, groups: usize) -> Vec<Range<RefPos>> {
    let n = groups.clamp(1, SeedingUnitMap::MAX_GROUPS);
    let (base, extra) = (index.genome_len() / n, index.genome_len() % n);
    let mut start = index.base_offset();
    (0..n)
        .map(|g| {
            let end = start + (base + usize::from(g < extra)) as RefPos;
            let span = start..end;
            start = end;
            span
        })
        .collect()
}

/// Splits one key's position-ordered hit list along `spans`, yielding
/// `(group, rows)` for every group holding at least one hit, in ascending
/// group order; the yielded slices concatenate back to `hits`.
fn split_by_span<'a>(
    hits: &'a [RefHit],
    spans: &'a [Range<RefPos>],
) -> impl Iterator<Item = (usize, &'a [RefHit])> {
    let mut rest = hits;
    std::iter::from_fn(move || {
        let first = rest.first()?;
        let g = spans.partition_point(|span| span.end <= first.pos);
        let (rows, tail) = rest.split_at(rest.partition_point(|hit| hit.pos < spans[g].end));
        rest = tail;
        Some((g, rows))
    })
}

/// The CAM image of a whole pan-genome [`ReferenceSet`]: one
/// [`SeedingUnitMap`] per reference.
///
/// Each reference keeps its own index, so each gets its own family of CAM
/// subarray groups; a query minimizer broadcast fans out across *every*
/// reference's groups in parallel, exactly mirroring the functional model's
/// seed-once-per-reference fan-out in [`ReferenceSet::sketch_and_seed_into`].
#[derive(Debug, Clone)]
pub struct ReferenceSeedingImage {
    references: Vec<(Arc<str>, SeedingUnitMap)>,
}

impl ReferenceSeedingImage {
    /// Programs every reference of `set` into its own CAM image of `groups`
    /// subarray groups ([`SeedingUnitMap::load`]), `rows_per_array` keys per
    /// CAM subarray.
    ///
    /// # Panics
    ///
    /// Panics if `rows_per_array` is 0.
    pub fn load(set: &ReferenceSet, groups: usize, rows_per_array: usize) -> ReferenceSeedingImage {
        ReferenceSeedingImage {
            references: set
                .names()
                .iter()
                .zip(set.mappers())
                .map(|(name, mapper)| {
                    (
                        Arc::clone(name),
                        SeedingUnitMap::load(mapper.index(), groups, rows_per_array),
                    )
                })
                .collect(),
        }
    }

    /// The per-reference images, in set order.
    pub fn references(&self) -> &[(Arc<str>, SeedingUnitMap)] {
        &self.references
    }

    /// One reference's image, by name.
    pub fn get(&self, name: &str) -> Option<&SeedingUnitMap> {
        self.references
            .iter()
            .find(|(n, _)| n.as_ref() == name)
            .map(|(_, map)| map)
    }

    /// Total CAM rows in use across every reference.
    pub fn total_keys(&self) -> usize {
        self.references.iter().map(|(_, m)| m.total_keys()).sum()
    }

    /// Total RAM location entries across every reference.
    pub fn total_entries(&self) -> usize {
        self.references.iter().map(|(_, m)| m.total_entries()).sum()
    }

    /// Total CAM subarrays allocated across every reference.
    pub fn total_cam_arrays(&self) -> usize {
        self.references
            .iter()
            .map(|(_, m)| m.total_cam_arrays())
            .sum()
    }

    /// The per-reference load tables, concatenated with headers.
    pub fn report(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (name, map) in &self.references {
            let _ = writeln!(out, "reference {name}");
            out.push_str(&map.report());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genpip_genomics::{DnaSeq, Genome, GenomeBuilder};

    /// 40 copies of one unit (above the cap of 16 used below), 8 copies of
    /// another (below it, so its keys stay programmed and span several
    /// groups), and unique sequence.
    fn repeat_heavy_genome() -> Genome {
        let part = |len, seed| {
            GenomeBuilder::new(len)
                .seed(seed)
                .repeat_fraction(0.0)
                .build()
        };
        let mut seq = DnaSeq::new();
        for _ in 0..40 {
            seq.extend_from_seq(part(400, 50).sequence());
        }
        seq.extend_from_seq(part(6_000, 51).sequence());
        for _ in 0..8 {
            seq.extend_from_seq(part(400, 58).sequence());
        }
        seq.extend_from_seq(part(6_000, 59).sequence());
        Genome::from_seq("repeats+unique", seq)
    }

    fn repeat_heavy_index() -> ReferenceIndex {
        let index = ReferenceIndex::build(&repeat_heavy_genome(), 15, 10).with_max_occurrences(16);
        assert!(index.masked_entries() > 0, "genome must mask something");
        assert!(
            index.iter_unmasked().any(|(_, hits)| hits.len() > 1),
            "genome must keep a multi-hit key below the cap"
        );
        index
    }

    /// The group a position belongs to, by linear scan — independent of the
    /// loader's binary searches.
    fn owner(spans: &[Range<RefPos>], pos: RefPos) -> usize {
        let owners: Vec<usize> = (0..spans.len())
            .filter(|&g| spans[g].contains(&pos))
            .collect();
        assert_eq!(owners.len(), 1, "position {pos} owned by {owners:?}");
        owners[0]
    }

    #[test]
    fn every_unmasked_hit_lands_in_exactly_one_group_in_index_order() {
        let big = repeat_heavy_index();
        // 2 kb reference: 4096 groups is also "more groups than bases".
        let small = ReferenceIndex::build(&GenomeBuilder::new(2_000).seed(56).build(), 15, 10);
        for (index, counts) in [
            (&big, &[1usize, 3, 5, 4096, 1_000_000][..]),
            (&small, &[3usize, 4096][..]),
        ] {
            for &n in counts {
                let spans = group_spans(index, n);
                assert_eq!(spans.len(), n.min(SeedingUnitMap::MAX_GROUPS));
                assert_eq!(spans[0].start, index.base_offset());
                assert_eq!(spans[spans.len() - 1].end, index.coord_end());
                assert!(spans.windows(2).all(|p| p[0].end == p[1].start));
                for (hash, hits) in index.iter_unmasked() {
                    let mut rejoined: Vec<RefHit> = Vec::new();
                    let mut last_group = None;
                    for (g, rows) in split_by_span(hits, &spans) {
                        assert!(last_group < Some(g), "{hash:#x}: group {g} repeated");
                        last_group = Some(g);
                        assert!(!rows.is_empty());
                        for hit in rows {
                            assert_eq!(owner(&spans, hit.pos), g, "{n} groups, {hash:#x}");
                        }
                        rejoined.extend_from_slice(rows);
                    }
                    assert_eq!(&rejoined, hits, "{n} groups reordered or lost {hash:#x}");
                }
            }
        }
    }

    #[test]
    fn totals_depend_on_the_group_count_only_through_split_keys() {
        let index = repeat_heavy_index();
        let unmasked_keys = index.iter_unmasked().count();
        for n in [1usize, 3, 5, 4096] {
            let map = SeedingUnitMap::load(&index, n, 128);
            let spans: Vec<Range<RefPos>> = map.groups().iter().map(|g| g.span.clone()).collect();
            // Entries are exact (every hit lives in exactly one group) and
            // the mask is the index's own, whatever the layout.
            assert_eq!(
                map.total_entries(),
                index.total_entries() - index.masked_entries()
            );
            assert_eq!(map.masked_entries(), index.masked_entries());
            assert_eq!(
                map.masked_keys(),
                index.distinct_minimizers() - unmasked_keys
            );
            // A key counts once per group holding one of its hits.
            let mut keys_per_group = vec![0usize; spans.len()];
            for (_, hits) in index.iter_unmasked() {
                let mut owners: Vec<usize> = hits.iter().map(|h| owner(&spans, h.pos)).collect();
                owners.dedup();
                for g in owners {
                    keys_per_group[g] += 1;
                }
            }
            for (group, expected) in map.groups().iter().zip(&keys_per_group) {
                assert_eq!(group.keys, *expected, "{n} groups, group {}", group.shard);
            }
            match n {
                1 => assert_eq!(map.total_keys(), unmasked_keys),
                // ~7-base spans: every multi-hit key is split.
                4096 => assert!(map.total_keys() > unmasked_keys),
                _ => assert!(map.total_keys() >= unmasked_keys),
            }
        }
    }

    #[test]
    fn one_group_per_span_with_consistent_banks() {
        let g = GenomeBuilder::new(20_000).seed(52).build();
        let index = ReferenceIndex::build(&g, 15, 10);
        let map = SeedingUnitMap::load(&index, 5, SeedingUnitMap::PAPER_ROWS_PER_ARRAY);
        assert_eq!(map.groups().len(), 5);
        for (i, g) in map.groups().iter().enumerate() {
            assert_eq!(g.shard, i);
            assert_eq!(g.span, (i as RefPos * 4_000)..((i as RefPos + 1) * 4_000));
            assert_eq!(g.bank.key_count(), g.keys);
            assert!(g.bank.array_count() <= g.keys.div_ceil(map.rows_per_array()) + 1);
        }
        assert_eq!(SeedingUnitMap::load(&index, 0, 128).groups().len(), 1);
    }

    #[test]
    fn programmed_banks_answer_unmasked_keys_and_reject_masked_ones() {
        let index = repeat_heavy_index();
        let map = SeedingUnitMap::load(&index, 3, 128);
        let mut groups: Vec<ShardGroup> = map.groups().to_vec();
        let mut checked_hit = false;
        let mut checked_miss = false;
        for (hash, hits) in index.iter() {
            if index.lookup_hash(*hash).is_empty() {
                // Above the cap: programmed into no group at all.
                for group in &mut groups {
                    assert!(group.bank.search(*hash).is_none(), "masked key {hash:#x}");
                }
                checked_miss = true;
            } else {
                for group in &mut groups {
                    let holds = hits.iter().any(|h| group.span.contains(&h.pos));
                    assert_eq!(group.bank.search(*hash).is_some(), holds, "key {hash:#x}");
                }
                checked_hit = true;
            }
        }
        assert!(checked_hit && checked_miss);
    }

    #[test]
    fn base_offset_past_the_u32_horizon_programs_spans_and_hits() {
        let g = GenomeBuilder::new(15_000).seed(57).build();
        let offset: RefPos = 5_000_000_000; // > u32::MAX
        let plain = SeedingUnitMap::load(&ReferenceIndex::build(&g, 15, 10), 3, 128);
        let shifted_index = ReferenceIndex::build_at(&g, 15, 10, offset);
        let shifted = SeedingUnitMap::load(&shifted_index, 3, 128);
        assert_eq!(shifted.groups()[0].span.start, offset);
        assert_eq!(shifted.groups()[2].span.end, shifted_index.coord_end());
        for (a, b) in plain.groups().iter().zip(shifted.groups()) {
            assert_eq!(b.span, (a.span.start + offset)..(a.span.end + offset));
            assert!(b.span.start > u32::MAX as RefPos);
            assert_eq!((b.keys, b.entries), (a.keys, a.entries));
        }
        assert_eq!(shifted.total_entries(), shifted_index.total_entries());
    }

    #[test]
    fn reference_set_image_programs_each_reference_into_its_own_groups() {
        use genpip_mapping::{MapperParams, ReferenceSet};
        let a = GenomeBuilder::new(18_000).seed(54).name("panel_a").build();
        let b = GenomeBuilder::new(12_000).seed(55).name("panel_b").build();
        let set = ReferenceSet::build(&[a, b], MapperParams::default());
        let image = ReferenceSeedingImage::load(&set, 3, 128);
        assert_eq!(image.references().len(), 2);
        // Each reference's image is exactly what loading its index alone
        // produces.
        for name in ["panel_a", "panel_b"] {
            let solo = SeedingUnitMap::load(set.get(name).unwrap().index(), 3, 128);
            let in_set = image.get(name).expect("reference present");
            assert_eq!(in_set.total_keys(), solo.total_keys());
            assert_eq!(in_set.total_entries(), solo.total_entries());
            assert_eq!(in_set.groups().len(), 3, "{name}");
        }
        let (a_map, b_map) = (image.get("panel_a").unwrap(), image.get("panel_b").unwrap());
        assert_eq!(
            image.total_entries(),
            a_map.total_entries() + b_map.total_entries()
        );
        assert_eq!(image.total_keys(), a_map.total_keys() + b_map.total_keys());
        assert_eq!(
            image.total_cam_arrays(),
            a_map.total_cam_arrays() + b_map.total_cam_arrays()
        );
        assert!(image.get("panel_c").is_none());
        let report = image.report();
        assert!(report.contains("reference panel_a"));
        assert!(report.contains("reference panel_b"));
    }

    #[test]
    fn report_lists_every_group() {
        let g = GenomeBuilder::new(15_000).seed(53).build();
        let map = SeedingUnitMap::load(&ReferenceIndex::build(&g, 15, 10), 3, 128);
        let report = map.report();
        assert_eq!(report.lines().count(), 1 + 3 + 1, "header + groups + total");
        assert!(report.contains("masked:"));
    }
}
