//! Differential suite: the one-pass sketch (rolled canonical pair,
//! rescan-on-expiry winnowing) must return exactly the minimizers of the
//! sketch it replaced — every hash, position and strand flag, in order — for
//! every `k` the k-mer type holds, every window up to 16, every sequence
//! length up to 600, and on the low-complexity sequences that force hash
//! ties and even-`k` palindromes.

use super::{hash64, minimizers_into, Minimizer, MinimizerScratch};
use crate::RefPos;
use genpip_genomics::rng::{seeded, Rng, SeededRng};
use genpip_genomics::{Base, DnaSeq, Kmer, KmerIter};
use std::collections::VecDeque;

/// Hash of the canonical form of a k-mer, with the strand flag; `None` for
/// palindromes. The shipped body as of PR 24, verbatim.
fn canonical_hash(kmer: Kmer) -> Option<(u64, bool)> {
    let rc = kmer.reverse_complement();
    match kmer.bits().cmp(&rc.bits()) {
        std::cmp::Ordering::Less => Some((hash64(kmer.bits()), false)),
        std::cmp::Ordering::Greater => Some((hash64(rc.bits()), true)),
        std::cmp::Ordering::Equal => None,
    }
}

/// The first-draft sketch, kept test-only as the independent oracle: a
/// [`KmerIter`] pass hashing each k-mer's [`canonical_hash`], then
/// monotone-deque winnowing. The body is the shipped `minimizers_into` as of
/// PR 24, verbatim but for returning its own buffers instead of a scratch's.
fn naive_minimizers(seq: &DnaSeq, k: usize, w: usize) -> Vec<Minimizer> {
    assert!(w >= 1, "window size must be >= 1");
    let mut out = Vec::new();
    // Hash every k-mer (canonical form), skipping palindromes.
    let mut hashed = Vec::with_capacity((seq.len() + 1).saturating_sub(k));
    for (_, kmer) in KmerIter::new(seq, k) {
        hashed.push(canonical_hash(kmer));
    }
    if hashed.is_empty() {
        return out;
    }

    // Monotone-deque winnowing: for each window of w k-mers pick the entry
    // with the smallest hash (rightmost on ties, the standard choice that
    // guarantees window coverage).
    let mut deque: VecDeque<(usize, u64, bool)> = VecDeque::new();
    for (i, h) in hashed.iter().enumerate() {
        if let Some((hash, rev)) = *h {
            while let Some(&(_, back_hash, _)) = deque.back() {
                if back_hash >= hash {
                    deque.pop_back();
                } else {
                    break;
                }
            }
            deque.push_back((i, hash, rev));
        }
        // Evict entries that slid out of the window ending at i.
        while let Some(&(front_i, _, _)) = deque.front() {
            if front_i + w <= i {
                deque.pop_front();
            } else {
                break;
            }
        }
        if i + 1 >= w {
            if let Some(&(pos, hash, rev)) = deque.front() {
                let candidate = Minimizer {
                    hash,
                    pos: pos as RefPos,
                    reverse: rev,
                };
                if out.last() != Some(&candidate) {
                    out.push(candidate);
                }
            }
        }
    }
    out
}

fn random_seq(rng: &mut SeededRng, len: usize) -> DnaSeq {
    (0..len)
        .map(|_| Base::from_code(rng.random_range(0..4u8)))
        .collect()
}

/// Sketches `seq` through one reused scratch (as a worker does) and demands
/// the oracle's answer.
fn assert_same(seq: &DnaSeq, k: usize, w: usize, scratch: &mut MinimizerScratch, what: &str) {
    let mut got = vec![Minimizer {
        hash: 1,
        pos: 2,
        reverse: true,
    }];
    minimizers_into(seq, k, w, scratch, &mut got);
    let want = naive_minimizers(seq, k, w);
    assert_eq!(got, want, "{what}: k {k} w {w} len {}\n{seq}", seq.len());
}

#[test]
fn every_k_window_and_length_matches_the_deque_oracle() {
    let mut rng = seeded(25);
    let seqs: Vec<DnaSeq> = (0..=600).map(|len| random_seq(&mut rng, len)).collect();
    let mut scratch = MinimizerScratch::default();
    for k in 1..=Kmer::MAX_K {
        for w in 1..=16 {
            for seq in &seqs {
                assert_same(seq, k, w, &mut scratch, "random");
            }
        }
    }
}

#[test]
fn homopolymers_and_dinucleotide_repeats_match_the_deque_oracle() {
    // Homopolymers make every k-mer hash equal (the rightmost tie wins on
    // every base); `AT`/`TA`/`CG`/`GC` repeats are their own reverse
    // complement at every even `k`, so windows fill with palindromes, and
    // `AC`/`AG` repeats alternate between two hashes.
    let units = [
        "A", "C", "G", "T", "AT", "TA", "CG", "GC", "AC", "AG", "CA", "TG",
    ];
    let mut rng = seeded(26);
    let mut scratch = MinimizerScratch::default();
    for unit in units {
        let repeat: DnaSeq = unit.repeat(150).parse().expect("ACGT only");
        // The repeat alone, and embedded in random flanks so windows straddle
        // the boundary between ties / palindromes and distinct hashes.
        let mut flanked = random_seq(&mut rng, 40);
        flanked.extend_from_seq(&repeat.subseq(0, 97));
        flanked.extend_from_seq(&random_seq(&mut rng, 40));
        for k in 1..=Kmer::MAX_K {
            for w in 1..=16 {
                assert_same(&repeat, k, w, &mut scratch, unit);
                assert_same(&flanked, k, w, &mut scratch, unit);
            }
        }
    }
}

#[test]
fn out_of_range_k_keeps_the_kmer_panic_message() {
    let seq: DnaSeq = "ACGTACGTACGT".parse().expect("ACGT only");
    for k in [0, Kmer::MAX_K + 1] {
        let err = std::panic::catch_unwind(|| {
            minimizers_into(
                &seq,
                k,
                4,
                &mut MinimizerScratch::default(),
                &mut Vec::new(),
            )
        })
        .expect_err("k out of range must panic");
        let msg = err
            .downcast_ref::<String>()
            .map(String::as_str)
            .unwrap_or_default();
        assert_eq!(msg, format!("k must be in 1..={}", Kmer::MAX_K));
    }
}
