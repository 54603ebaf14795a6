//! Cross-crate randomized property tests on the reproduction's core
//! invariants, driven by the workspace's own deterministic RNG (no external
//! property-testing dependency).

use genpip::basecall::{Basecaller, CarryState};
use genpip::genomics::quality::{average_quality, AqsAccumulator, Phred};
use genpip::genomics::rng::{seeded, Rng, SeededRng};
use genpip::genomics::{Base, DnaSeq, Kmer};
use genpip::mapping::{minimizers, Anchor, ChainParams, IncrementalChainer};
use genpip::signal::{PoreModel, SignalSynthesizer};
use genpip::sim::{Job, PipelineSim, SimTime, StageSpec};

const CASES: u64 = 64;

fn arb_dna(rng: &mut SeededRng, min: usize, max: usize) -> DnaSeq {
    let len = rng.random_range(min..max.max(min + 1));
    (0..len)
        .map(|_| Base::from_code(rng.random_range(0..4u8)))
        .collect()
}

#[test]
fn reverse_complement_is_involutive() {
    for case in 0..CASES {
        let mut rng = seeded(0x1 ^ case);
        let seq = arb_dna(&mut rng, 0, 300);
        assert_eq!(seq.reverse_complement().reverse_complement(), seq);
    }
}

#[test]
fn subseq_concatenation_reconstructs() {
    for case in 0..CASES {
        let mut rng = seeded(0x2 ^ case);
        let seq = arb_dna(&mut rng, 0, 300);
        let cut = rng.random_range(0..300usize).min(seq.len());
        let mut rebuilt = seq.subseq(0, cut);
        rebuilt.extend_from_seq(&seq.subseq(cut, seq.len() - cut));
        assert_eq!(rebuilt, seq);
    }
}

#[test]
fn kmer_roll_matches_fresh_extraction() {
    for case in 0..CASES {
        let mut rng = seeded(0x3 ^ case);
        let seq = arb_dna(&mut rng, 8, 120);
        let k = rng.random_range(2..8usize);
        let mut kmer = Kmer::from_seq(&seq, 0, k);
        for offset in 1..=(seq.len() - k) {
            kmer = kmer.roll(seq.get(offset + k - 1));
            assert_eq!(kmer, Kmer::from_seq(&seq, offset, k));
        }
    }
}

#[test]
fn chunked_aqs_equals_whole_read_aqs() {
    for case in 0..CASES {
        let mut rng = seeded(0x4 ^ case);
        let n = rng.random_range(1..400usize);
        let phreds: Vec<Phred> = (0..n)
            .map(|_| Phred(rng.random_range(0.0f32..30.0)))
            .collect();
        let chunk = rng.random_range(1..64usize);
        let whole = average_quality(&phreds);
        let mut acc = AqsAccumulator::new();
        for c in phreds.chunks(chunk) {
            acc.add_chunk(c);
        }
        assert!((acc.average() - whole).abs() < 1e-9);
    }
}

#[test]
fn minimizers_are_strand_symmetric() {
    use std::collections::HashSet;
    for case in 0..CASES {
        let mut rng = seeded(0x5 ^ case);
        let seq = arb_dna(&mut rng, 40, 400);
        let fwd: HashSet<u64> = minimizers(&seq, 15, 10).iter().map(|m| m.hash).collect();
        let rev: HashSet<u64> = minimizers(&seq.reverse_complement(), 15, 10)
            .iter()
            .map(|m| m.hash)
            .collect();
        assert_eq!(fwd, rev);
    }
}

#[test]
fn chaining_is_batch_order_invariant() {
    for case in 0..CASES {
        let mut rng = seeded(0x6 ^ case);
        let n = rng.random_range(2..40usize);
        let splits = rng.random_range(1..8usize);
        // Build a colinear anchor walk; feeding it in any chunking must give
        // the same best chain score.
        let mut anchors = Vec::new();
        let (mut q, mut r) = (0u64, 1000u64);
        for _ in 0..n {
            anchors.push(Anchor { qpos: q, rpos: r });
            let s = rng.random_range(1..60u64);
            q += s;
            r += s;
        }
        let mut whole = IncrementalChainer::new(ChainParams::for_k(15));
        whole.extend(&anchors);
        let mut chunked = IncrementalChainer::new(ChainParams::for_k(15));
        for part in anchors.chunks(splits) {
            chunked.extend(part);
        }
        assert_eq!(whole.best_score(), chunked.best_score());
    }
}

#[test]
fn chain_score_is_bounded_by_k_per_anchor() {
    for case in 0..CASES {
        let mut rng = seeded(0x7 ^ case);
        let n = rng.random_range(1..60usize);
        let anchors: Vec<Anchor> = (0..n)
            .map(|_| Anchor {
                qpos: rng.random_range(0..5_000u64),
                rpos: rng.random_range(0..5_000u64),
            })
            .collect();
        let mut chainer = IncrementalChainer::new(ChainParams::for_k(15));
        chainer.extend(&anchors);
        if let Some(chain) = chainer.best_chain() {
            assert!(chain.score <= 15.0 * chain.anchor_indices.len() as f64 + 1e-9);
            // Chain is colinear: qpos and rpos strictly increase.
            for w in chain.anchor_indices.windows(2) {
                let a = chainer.anchors()[w[0]];
                let b = chainer.anchors()[w[1]];
                assert!(a.qpos < b.qpos && a.rpos < b.rpos);
            }
        }
    }
}

#[test]
fn pipeline_makespan_bounds() {
    for case in 0..CASES {
        let mut rng = seeded(0x8 ^ case);
        let n = rng.random_range(1..80usize);
        let services: Vec<u64> = (0..n).map(|_| rng.random_range(1..1_000u64)).collect();
        let servers = rng.random_range(1..6usize);
        let jobs: Vec<Job> = services
            .iter()
            .enumerate()
            .map(|(i, &ns)| Job::new(i as u32, vec![SimTime::from_ns(ns as f64)]))
            .collect();
        let sim = PipelineSim::new(vec![StageSpec::new("s", servers)]);
        let report = sim.run(&jobs);
        let total: u64 = services.iter().sum();
        let max = *services.iter().max().unwrap();
        // Lower bounds: work conservation and the longest job.
        let lower = (total as f64 / servers as f64).max(max as f64);
        assert!(report.makespan >= SimTime::from_ns(max as f64));
        assert!(report.makespan.as_ns() + 1e-9 >= lower / servers as f64);
        // Upper bound: serial execution.
        assert!(report.makespan <= SimTime::from_ns(total as f64));
    }
}

#[test]
fn basecalled_length_tracks_truth() {
    for seed in 0..30u64 {
        let pore = PoreModel::synthetic(3, 7);
        let synth = SignalSynthesizer::new(pore.clone());
        let caller = Basecaller::new(&pore, synth.mean_dwell());
        let truth = genpip::genomics::GenomeBuilder::new(500)
            .seed(seed)
            .build()
            .sequence()
            .clone();
        let sig = synth.synthesize(&truth, 1.0, seed);
        let called = caller.call_read(&sig.samples, 2_400);
        let ratio = called.seq.len() as f64 / truth.len() as f64;
        assert!((0.85..1.15).contains(&ratio), "length ratio {ratio}");
        assert_eq!(called.quals.len(), called.seq.len());
    }
}

#[test]
fn chunk_stitching_never_drops_more_than_boundary_bases() {
    for seed in 0..20u64 {
        let mut rng = seeded(0xB ^ seed);
        let chunk_samples = rng.random_range(300..2_000usize);
        let pore = PoreModel::synthetic(3, 7);
        let synth = SignalSynthesizer::new(pore.clone());
        let caller = Basecaller::new(&pore, synth.mean_dwell());
        let truth = genpip::genomics::GenomeBuilder::new(400)
            .seed(seed ^ 0xABCD)
            .build()
            .sequence()
            .clone();
        let sig = synth.synthesize(&truth, 0.8, seed);
        let whole = caller.call_read(&sig.samples, usize::MAX / 2);
        let chunked = caller.call_read(&sig.samples, chunk_samples);
        let diff = whole.seq.len().abs_diff(chunked.seq.len());
        let boundaries = sig.samples.len() / chunk_samples + 1;
        assert!(
            diff <= 4 * boundaries + 4,
            "length difference {diff} over {boundaries} boundaries"
        );
    }
}

#[test]
fn carry_state_is_consistent_with_final_kmer() {
    for seed in 0..20u64 {
        let pore = PoreModel::synthetic(3, 7);
        let synth = SignalSynthesizer::new(pore.clone());
        let caller = Basecaller::new(&pore, synth.mean_dwell());
        let truth = genpip::genomics::GenomeBuilder::new(200)
            .seed(seed ^ 0xF00D)
            .build()
            .sequence()
            .clone();
        let sig = synth.synthesize(&truth, 0.3, seed);
        let chunk = caller.call_chunk(&sig.samples, None);
        // The carry state's k-mer must equal the last k decoded bases.
        if let (Some(CarryState(state)), true) = (chunk.carry, chunk.bases.len() >= 3) {
            let n = chunk.bases.len();
            let mut expect = 0u16;
            for i in n - 3..n {
                expect = (expect << 2) | chunk.bases.get(i).code() as u16;
            }
            assert_eq!(state, expect);
        }
    }
}
