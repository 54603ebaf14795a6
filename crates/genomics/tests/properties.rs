//! Randomized property tests of the genomics primitives.
//!
//! Each test replays the same invariant over many seeded random cases using
//! the workspace's own deterministic RNG (no external property-testing
//! dependency; the workspace builds offline).

use genpip_genomics::rng::{seeded, Rng, SeededRng};
use genpip_genomics::{Base, DnaSeq, Kmer, KmerIter};

const CASES: u64 = 128;

fn arb_dna(rng: &mut SeededRng, min: usize, max: usize) -> DnaSeq {
    let len = rng.random_range(min..max.max(min + 1));
    (0..len)
        .map(|_| Base::from_code(rng.random_range(0..4u8)))
        .collect()
}

#[test]
fn packing_round_trips_through_strings() {
    for case in 0..CASES {
        let mut rng = seeded(0x5712 ^ case);
        let seq = arb_dna(&mut rng, 0, 200);
        let text = seq.to_string();
        let parsed: DnaSeq = text.parse().unwrap();
        assert_eq!(parsed, seq);
    }
}

#[test]
fn subseq_indexing_agrees_with_parent() {
    for case in 0..CASES {
        let mut rng = seeded(0x50B ^ case);
        let seq = arb_dna(&mut rng, 1, 200);
        let start = rng.random_range(0..200usize) % seq.len();
        let len = rng.random_range(0..200usize).min(seq.len() - start);
        let sub = seq.subseq(start, len);
        for i in 0..len {
            assert_eq!(sub.get(i), seq.get(start + i));
        }
    }
}

#[test]
fn reverse_complement_reverses_gc_content() {
    for case in 0..CASES {
        let mut rng = seeded(0x6C ^ case);
        let seq = arb_dna(&mut rng, 1, 300);
        let rc = seq.reverse_complement();
        // GC count is strand-invariant (G↔C, A↔T).
        let gc: usize = seq
            .iter()
            .filter(|b| matches!(b, Base::G | Base::C))
            .count();
        let gc_rc: usize = rc.iter().filter(|b| matches!(b, Base::G | Base::C)).count();
        assert_eq!(gc, gc_rc);
        assert_eq!(rc.len(), seq.len());
    }
}

#[test]
fn packed_bytes_is_minimal() {
    for case in 0..CASES {
        let mut rng = seeded(0xBB ^ case);
        let seq = arb_dna(&mut rng, 0, 300);
        assert_eq!(seq.packed_bytes(), seq.len().div_ceil(4));
    }
}

#[test]
fn canonical_kmer_is_strand_invariant() {
    for case in 0..CASES {
        let mut rng = seeded(0xCA ^ case);
        let seq = arb_dna(&mut rng, 12, 64);
        let k = 9;
        let rc = seq.reverse_complement();
        // The k-mer at offset o on the forward strand occupies offset
        // len - k - o on the reverse strand.
        for (o, kmer) in KmerIter::new(&seq, k) {
            let mirror = Kmer::from_seq(&rc, seq.len() - k - o, k);
            // The canonical k-mer is the smaller of the two strands' (the
            // convention the minimizer sketch hashes); both strands agree.
            let canonical = |k: Kmer| k.bits().min(k.reverse_complement().bits());
            assert_eq!(canonical(kmer), canonical(mirror));
            assert_eq!(kmer.reverse_complement(), mirror);
        }
    }
}

#[test]
fn kmer_bits_round_trip() {
    for case in 0..CASES {
        let mut rng = seeded(0xB175 ^ case);
        let seq = arb_dna(&mut rng, 10, 40);
        let k = 7;
        for (offset, kmer) in KmerIter::new(&seq, k) {
            // Two bits a base, the earliest base most significant.
            let packed = (0..k).fold(0u64, |bits, i| {
                (bits << 2) | seq.get(offset + i).code() as u64
            });
            assert_eq!(kmer.bits(), packed);
            let rebuilt: DnaSeq = (0..k).map(|i| kmer.base(i)).collect();
            assert_eq!(Kmer::from_seq(&rebuilt, 0, k), kmer);
            assert_eq!(rebuilt.to_string(), kmer.to_string());
        }
    }
}

#[test]
fn fastq_round_trip_preserves_reads() {
    use genpip_genomics::fastx::{read_fastq, write_fastq};
    use genpip_genomics::quality::Phred;
    use genpip_genomics::{Read, ReadOrigin, ReadSet};
    for case in 0..CASES {
        let mut rng = seeded(0xFA57 ^ case);
        let seq = arb_dna(&mut rng, 1, 120);
        let q = rng.random_range(0..60u8);
        let quals = vec![Phred(q as f32); seq.len()];
        let mut set = ReadSet::new();
        set.push(Read::new(
            0,
            seq.clone(),
            quals.clone(),
            ReadOrigin::Reference {
                start: 0,
                len: 0,
                reverse: false,
            },
        ));
        let mut buf = Vec::new();
        write_fastq(&mut buf, &set).unwrap();
        let parsed = read_fastq(buf.as_slice()).unwrap();
        let read = parsed.iter().next().unwrap();
        assert_eq!((&read.seq, &read.quals), (&seq, &quals));
    }
}

#[test]
fn error_model_rates_bound_edit_count() {
    use genpip_genomics::ErrorModel;
    for case in 0..50 {
        let mut rng = seeded(0xE44 ^ case);
        let total_rate = rng.random_range(0.0f64..0.5);
        let truth: DnaSeq = (0..2_000u32)
            .map(|i| Base::from_code((i % 4) as u8))
            .collect();
        let model = ErrorModel::with_total_rate(total_rate);
        let mut apply_rng = seeded(case);
        let (_, ops) = model.apply(&truth, &mut apply_rng);
        // Insertions are at most one per base plus one more draw each, so
        // the op count is bounded by 2 per base; with realistic rates it
        // stays near rate × len.
        assert!(ops.len() <= 2 * truth.len());
        let rate = ops.len() as f64 / truth.len() as f64;
        assert!(
            rate <= 2.5 * total_rate + 0.02,
            "rate {rate} for target {total_rate}"
        );
    }
}
