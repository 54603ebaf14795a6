//! Differential suite: the flat index (one hash table of `(start, len)`
//! ranges into one hit array) must answer every lookup exactly as the table
//! of one `Vec` per key it replaced — the same hits, in the same order, and
//! the same masking at [`ReferenceIndex::DEFAULT_MAX_OCCURRENCES`] — for
//! every reference minimizer and for keys the reference does not hold, on
//! random, repeat-rich and tandem-repeat references, at the cap and one past
//! it, and in a coordinate space past the `u32` horizon.

use super::{KeyHasher, RefHit, ReferenceIndex};
use crate::minimizer::{minimizers, Minimizer};
use crate::RefPos;
use genpip_genomics::rng::{seeded, Rng};
use genpip_genomics::{DnaSeq, Genome, GenomeBuilder};
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

type VecPerKey = HashMap<u64, Vec<RefHit>, BuildHasherDefault<KeyHasher>>;

/// The first-draft table, kept test-only as the independent oracle: one
/// heap `Vec` of hits per key. The body is the shipped
/// `ReferenceIndex::build_at` before the flat layout, verbatim but for
/// returning the table alone.
fn vec_per_key(genome: &Genome, k: usize, w: usize, base_offset: RefPos) -> VecPerKey {
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
    table
}

/// The first-draft `lookup`, verbatim but for taking the table.
fn oracle_lookup<'t>(table: &'t VecPerKey, m: &Minimizer) -> &'t [RefHit] {
    match table.get(&m.hash) {
        Some(hits) if hits.len() <= ReferenceIndex::DEFAULT_MAX_OCCURRENCES => hits,
        _ => &[],
    }
}

fn key(hash: u64) -> Minimizer {
    Minimizer {
        hash,
        pos: 0,
        reverse: false,
    }
}

/// Builds both tables of `genome` and demands the same answer to every
/// lookup of a reference key and of 2 000 random keys, the same counts, and
/// every key's whole run (masked or not) equal to the oracle's list and
/// ascending. Returns the oracle for the caller's own checks.
fn assert_same(genome: &Genome, k: usize, w: usize, base_offset: RefPos, what: &str) -> VecPerKey {
    let idx = ReferenceIndex::build_at(genome, k, w, base_offset);
    let oracle = vec_per_key(genome, k, w, base_offset);
    assert_eq!(
        idx.total_entries(),
        oracle.values().map(Vec::len).sum::<usize>(),
        "{what}: total entries"
    );
    assert_eq!(
        idx.distinct_minimizers(),
        oracle.len(),
        "{what}: distinct minimizers"
    );
    for (&hash, want) in &oracle {
        let &(start, len) = idx.table.get(&hash).expect("every oracle key is indexed");
        let run = &idx.hits[start as usize..(start + len) as usize];
        assert_eq!(run, want.as_slice(), "{what}: run of key {hash:#x}");
        assert!(
            run.windows(2).all(|h| h[0].pos < h[1].pos),
            "{what}: run of key {hash:#x} is not ascending"
        );
        assert_eq!(
            idx.lookup(&key(hash)),
            oracle_lookup(&oracle, &key(hash)),
            "{what}: lookup of key {hash:#x}"
        );
    }
    for m in minimizers(genome.sequence(), k, w) {
        assert_eq!(idx.lookup(&m), oracle_lookup(&oracle, &m), "{what}: {m:?}");
    }
    let mut rng = seeded(41);
    for _ in 0..2_000 {
        let absent = key(rng.random());
        assert_eq!(
            idx.lookup(&absent),
            oracle_lookup(&oracle, &absent),
            "{what}: {absent:?}"
        );
    }
    oracle
}

fn random_genome(len: usize, seed: u64, repeats: f64) -> Genome {
    GenomeBuilder::new(len)
        .seed(seed)
        .gc_fraction(0.41)
        .repeat_fraction(repeats)
        .build()
}

/// A random flank, then each `(unit, copies)` tandem array followed by another
/// stretch of fresh random sequence.
fn tandem_genome(arrays: &[(&DnaSeq, usize)], seed: u64) -> Genome {
    let mut seq = random_genome(2_000, seed, 0.0).sequence().clone();
    for (i, &(unit, copies)) in arrays.iter().enumerate() {
        for _ in 0..copies {
            seq.extend_from_seq(unit);
        }
        seq.extend_from_seq(random_genome(2_000, seed + 1 + i as u64, 0.0).sequence());
    }
    Genome::from_seq("tandem", seq)
}

#[test]
fn random_and_repeat_rich_references_match_the_vec_per_key_oracle() {
    for (seed, repeats) in [(1, 0.0), (2, 0.25), (3, 0.25)] {
        let g = random_genome(60_000, seed, repeats);
        for (k, w) in [(15, 10), (11, 5), (19, 1)] {
            assert_same(&g, k, w, 0, &format!("seed {seed} repeats {repeats}"));
        }
    }
}

#[test]
fn tandem_repeats_match_the_vec_per_key_oracle() {
    // Short units make every minimizer of the array one key with a hit per
    // copy (or per few copies); `AT` is its own reverse complement, so its
    // array is all palindromes at even `k`.
    let units: Vec<DnaSeq> = ["AT", "ACG", "AAAAC", "GATTACAGATTACAT"]
        .iter()
        .map(|u| u.parse().expect("ACGT only"))
        .collect();
    let arrays: Vec<(&DnaSeq, usize)> = units.iter().map(|u| (u, 900 / u.len())).collect();
    let g = tandem_genome(&arrays, 7);
    for (k, w) in [(15, 10), (12, 4)] {
        assert_same(&g, k, w, 0, "tandem");
    }
}

#[test]
fn a_key_at_the_cap_is_returned_and_one_past_it_is_masked() {
    // Two 400-base units, one repeated exactly `DEFAULT_MAX_OCCURRENCES`
    // times and one a copy more: the interior minimizers of each unit are
    // keys with that many hits.
    let cap = ReferenceIndex::DEFAULT_MAX_OCCURRENCES;
    let (at, past) = (random_genome(400, 11, 0.0), random_genome(400, 12, 0.0));
    let g = tandem_genome(&[(at.sequence(), cap), (past.sequence(), cap + 1)], 13);
    let oracle = assert_same(&g, 15, 10, 0, "cap");
    let idx = ReferenceIndex::build(&g, 15, 10);
    let with = |n: usize| {
        let (&hash, _) = oracle
            .iter()
            .find(|(_, hits)| hits.len() == n)
            .unwrap_or_else(|| panic!("no key with exactly {n} hits"));
        key(hash)
    };
    assert_eq!(idx.lookup(&with(cap)).len(), cap);
    assert!(idx.lookup(&with(cap + 1)).is_empty());
}

#[test]
fn an_index_past_the_u32_horizon_matches_the_vec_per_key_oracle() {
    let offset: RefPos = 5_000_000_000; // > u32::MAX
    let g = random_genome(40_000, 21, 0.25);
    let oracle = assert_same(&g, 15, 10, offset, "offset");
    assert!(oracle
        .values()
        .flatten()
        .all(|h| h.pos > RefPos::from(u32::MAX)));
}
