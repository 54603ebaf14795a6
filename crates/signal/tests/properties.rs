//! Randomized property tests of the signal substrate.
//!
//! Seeded random cases over the workspace's own deterministic RNG (no
//! external property-testing dependency).

use genpip_genomics::rng::{seeded, Rng, SeededRng};
use genpip_genomics::{Base, DnaSeq};
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
        let covered: usize = chunks.iter().map(|c| c.len()).sum();
        assert_eq!(covered, total);
        for (i, c) in chunks.iter().enumerate() {
            assert_eq!(c.index, i);
            assert!(c.len() <= chunk);
            assert!(!c.is_empty());
        }
        // Only the last chunk may be partial.
        for c in chunks.iter().rev().skip(1) {
            assert_eq!(c.len(), chunk);
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
        assert_eq!(sig.samples.len(), sig.base_index.len());
        if seq.len() >= 3 {
            assert!(!sig.samples.is_empty());
            // base_index covers exactly the k-mer range.
            assert_eq!(sig.base_index[0], 0);
            assert_eq!(*sig.base_index.last().unwrap() as usize, seq.len() - 3);
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
        let trace = model.trace(&seq);
        assert_eq!(trace.len(), seq.len().saturating_sub(2));
        for (i, level) in trace.iter().enumerate() {
            let kmer = genpip_genomics::Kmer::from_seq(&seq, i, 3);
            assert_eq!(*level, model.level(kmer));
            assert!((PoreModel::CURRENT_MIN..=PoreModel::CURRENT_MAX).contains(level));
        }
    }
}
