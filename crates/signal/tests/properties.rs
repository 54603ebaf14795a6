//! Randomized property tests of the signal substrate.
//!
//! Seeded random cases over the workspace's own deterministic RNG (no
//! external property-testing dependency).

use genpip_genomics::rng::{seeded, Rng, SeededRng};
use genpip_genomics::{Base, DnaSeq, Kmer};
use genpip_signal::{chunk_boundaries, PoreModel, SignalSynthesizer};

const CASES: u64 = 64;

fn arb_dna(rng: &mut SeededRng, min: usize, max: usize) -> DnaSeq {
    let len = rng.random_range(min..max);
    (0..len)
        .map(|_| Base::from_code(rng.random_range(0..4u8)))
        .collect()
}

#[test]
fn chunks_partition_any_signal() {
    for case in 0..CASES {
        let mut rng = seeded(0xC4 ^ case);
        let total = rng.random_range(0..100_000usize);
        let chunk = rng.random_range(1..5_000usize);
        let chunks = chunk_boundaries(total, chunk);
        let covered: usize = chunks.iter().map(|c| c.end - c.start).sum();
        assert_eq!(covered, total);
        for (i, c) in chunks.iter().enumerate() {
            assert_eq!(c.index, i);
            assert!((1..=chunk).contains(&(c.end - c.start)));
        }
        // Only the last chunk may be partial.
        for c in chunks.iter().rev().skip(1) {
            assert_eq!(c.end - c.start, chunk);
        }
    }
}

#[test]
fn synthesis_sample_count_matches_truth_index() {
    for case in 0..CASES {
        let mut rng = seeded(0x57 ^ case);
        let seq = arb_dna(&mut rng, 3, 400);
        let sigma = rng.random_range(0.1f64..3.0);
        let model = PoreModel::synthetic(3, 7);
        let synth = SignalSynthesizer::new(model);
        let sig = synth.synthesize(&seq, sigma, case);
        // That each sample's k-mer index covers exactly the k-mer range is
        // checked over these same cases by the synthesizer's unit test
        // `base_index_is_monotone_and_covers_kmers`, which can see the
        // per-sample index.
        if seq.len() >= 3 {
            assert!(!sig.samples.is_empty());
        } else {
            assert!(sig.samples.is_empty());
        }
    }
}

#[test]
fn pore_trace_is_deterministic_per_kmer() {
    for case in 0..CASES {
        let mut rng = seeded(0xD7 ^ case);
        let seq = arb_dna(&mut rng, 3, 120);
        let model = PoreModel::synthetic(3, 7);
        for (i, kmer) in genpip_genomics::KmerIter::new(&seq, 3) {
            let level = model.level(kmer);
            assert_eq!(level, model.level_bits(Kmer::from_seq(&seq, i, 3).bits()));
            assert!((PoreModel::CURRENT_MIN..=PoreModel::CURRENT_MAX).contains(&level));
        }
    }
}
