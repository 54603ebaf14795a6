//! Differential suite: both bodies of the sketch — the portable one
//! (rolled canonical pair, rescan-on-expiry over a compacted block) and the
//! AVX2 lane one (four lanes, van Herk window minima) — and the entry that
//! chooses between them must return exactly the minimizers of the two
//! sketches they replaced, the `KmerIter` + deque sketch of PR 24 and the
//! rescan sketch with its per-k-mer buffer of PRs 25–41: every hash,
//! position and strand flag, in order. The grid is every `k` the k-mer type
//! holds, every window up to 16 and every sequence length up to 600; then
//! lengths on either side of the bodies' block boundaries, the
//! low-complexity sequences that force hash ties and even-`k` palindromes,
//! the one 32-mer whose hash ties a palindrome's key, and (release only)
//! the human profile's whole 1 Mb reference. On a host without AVX2 the
//! lane body is skipped, with a note.

use super::{hash64, minimizers_into, window_count, Minimizer, MinimizerScratch, Pick, Picks};
use super::{sketch_portable, PORTABLE_BLOCK};
use crate::RefPos;
use genpip_genomics::rng::{seeded, Rng, SeededRng};
use genpip_genomics::{Base, DnaSeq, GenomeBuilder, Kmer, KmerIter};
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

/// The sketch the two bodies replaced, kept test-only as the second oracle:
/// one pass over `seq.iter()` with rescan-on-expiry winnowing over a buffer
/// of every k-mer's hash (16 bytes a k-mer). The body is the shipped
/// `minimizers_into` of PRs 25–41, verbatim but for owning its buffers.
fn rescan_minimizers(seq: &DnaSeq, k: usize, w: usize) -> Vec<Minimizer> {
    assert!(w >= 1, "window size must be >= 1");
    assert!(
        (1..=Kmer::MAX_K).contains(&k),
        "k must be in 1..={}",
        Kmer::MAX_K
    );
    let mut out = Vec::new();
    let mut hashed = Vec::with_capacity((seq.len() + 1).saturating_sub(k));

    let mask = if k == Kmer::MAX_K {
        u64::MAX
    } else {
        (1u64 << (2 * k)) - 1
    };
    let top = 2 * (k - 1);
    let (mut fwd, mut rev) = (0u64, 0u64);
    // The pick of the window `hashed[i + 1 - w ..= i]`, and whether it has
    // changed since the last one was emitted (each pick is a new position,
    // so a changed pick is always a new minimizer).
    let mut pick = Pick::NONE;
    let mut pending = false;
    for (end, base) in seq.iter().enumerate() {
        let c = base.code() as u64;
        fwd = ((fwd << 2) | c) & mask;
        rev = (rev >> 2) | ((3 ^ c) << top);
        let Some(i) = (end + 1).checked_sub(k) else {
            continue;
        };
        // The canonical k-mer is the smaller strand; a palindrome has none.
        // Which strand is smaller is a coin flip on real sequence, so it is
        // a select, not a branch.
        let reverse = rev < fwd;
        let hash = hash64(if reverse { rev } else { fwd });
        let h = (fwd != rev).then_some((hash, reverse));
        hashed.push(h);
        pending |= pick.offer(i, h);
        if pick.some && pick.at + w <= i {
            // The pick slid out: rescan the window.
            let start = i + 1 - w;
            pick = Pick::NONE;
            for (j, &h) in hashed[start..].iter().enumerate() {
                pick.offer(start + j, h);
            }
            pending = true;
        }
        if pending && pick.some && i + 1 >= w {
            out.push(Minimizer {
                hash: pick.hash,
                pos: pick.at as RefPos,
                reverse: pick.reverse,
            });
            pending = false;
        }
    }
    out
}

/// Runs one body into a fresh list, staged through `staged` as
/// `sketch_blocks` stages it.
fn collect(staged: &mut Vec<Minimizer>, body: impl FnOnce(&mut Picks)) -> Vec<Minimizer> {
    let mut out = Vec::new();
    let mut to = |block: &[Minimizer]| out.extend_from_slice(block);
    let mut picks = Picks {
        staged,
        last: RefPos::MAX,
        to: &mut to,
    };
    body(&mut picks);
    picks.flush();
    out
}

/// What each body returns for `seq`, through one reused scratch (as a
/// worker's): the portable body, the lane body where the host has AVX2,
/// and the entry point, handed an output that is not empty.
fn bodies(
    seq: &DnaSeq,
    k: usize,
    w: usize,
    scratch: &mut MinimizerScratch,
) -> Vec<(&'static str, Vec<Minimizer>)> {
    let windows = window_count(seq.len(), k, w);
    let portable = collect(&mut scratch.picks, |picks| {
        sketch_portable(seq, k, w, 0..windows, &mut scratch.hashed, picks)
    });
    let mut got = vec![("portable", portable)];
    #[cfg(all(target_arch = "x86_64", not(genpip_portable)))]
    if std::arch::is_x86_feature_detected!("avx2") {
        let lanes = collect(&mut scratch.picks, |picks| {
            // SAFETY: the host supports AVX2, checked on the line above.
            unsafe {
                super::avx2::sketch(
                    seq,
                    k,
                    w,
                    windows,
                    &mut scratch.lanes,
                    &mut scratch.hashed,
                    picks,
                )
            }
        });
        got.push(("lanes", lanes));
    }
    let mut entry = vec![Minimizer {
        hash: 1,
        pos: 2,
        reverse: true,
    }];
    minimizers_into(seq, k, w, scratch, &mut entry);
    got.push(("minimizers_into", entry));
    got
}

/// Prints once per test binary that the lane body is not under test.
fn note_missing_lanes() {
    #[cfg(all(target_arch = "x86_64", not(genpip_portable)))]
    let lanes = std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(all(target_arch = "x86_64", not(genpip_portable))))]
    let lanes = false;
    if !lanes {
        eprintln!("note: the lane body is not compiled in or the host has no AVX2; skipped");
    }
}

fn random_seq(rng: &mut SeededRng, len: usize) -> DnaSeq {
    (0..len)
        .map(|_| Base::from_code(rng.random_range(0..4u8)))
        .collect()
}

/// Demands both oracles' answer from every body.
fn assert_same(seq: &DnaSeq, k: usize, w: usize, scratch: &mut MinimizerScratch, what: &str) {
    let want = naive_minimizers(seq, k, w);
    assert_eq!(
        rescan_minimizers(seq, k, w),
        want,
        "{what}: the two oracles differ at k {k} w {w} len {}",
        seq.len()
    );
    for (body, got) in bodies(seq, k, w, scratch) {
        assert_eq!(
            got,
            want,
            "{what}: {body} at k {k} w {w} len {}\n{seq}",
            seq.len()
        );
    }
}

#[test]
fn every_k_window_and_length_matches_the_deque_oracle() {
    note_missing_lanes();
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

/// Window counts at which the lane body starts a new block, or, where it
/// is compiled out, the portable body's block of k-mers first fills.
fn block_windows(w: usize) -> usize {
    #[cfg(all(target_arch = "x86_64", not(genpip_portable)))]
    return super::avx2::block_windows(w);
    #[cfg(not(all(target_arch = "x86_64", not(genpip_portable))))]
    {
        let _ = w;
        PORTABLE_BLOCK + 2
    }
}

#[test]
fn lengths_either_side_of_every_block_boundary_match_the_deque_oracle() {
    // One and two blocks of windows, and two either side of each: a block's
    // last lane ends, and the next block's first lane starts, on each side
    // of the seam. Lane seams inside a block fall wherever `n / 4` does, so
    // every length has three; the 600-base grid holds every lane split.
    // The portable body's block compacts past every `PORTABLE_BLOCK + 1`
    // k-mers, which these lengths cross as well.
    let mut rng = seeded(42);
    let mut scratch = MinimizerScratch::default();
    for k in 1..=Kmer::MAX_K {
        for w in 1..=16 {
            for blocks in 1..=2 {
                for windows in blocks * block_windows(w) - 2..=blocks * block_windows(w) + 2 {
                    let seq = random_seq(&mut rng, windows + k + w - 2);
                    assert_eq!(window_count(seq.len(), k, w), windows);
                    assert_same(&seq, k, w, &mut scratch, "block seam");
                }
            }
            let windows = PORTABLE_BLOCK + 2;
            let seq = random_seq(&mut rng, windows + k + w - 2);
            assert_same(&seq, k, w, &mut scratch, "portable block seam");
        }
    }
}

#[test]
fn the_32_mer_whose_hash_ties_a_palindromes_key_matches_the_deque_oracle() {
    // `hash64` is a bijection, so exactly one k-mer hashes to `u64::MAX`,
    // the lane body's key for a palindrome; it is this canonical 32-mer. Put
    // it (and its reverse complement) between palindromes — `AT` tandems,
    // where every even-length k-mer is one — alone and inside a long
    // sequence. At `w = 1` its window is itself, and it must be picked.
    const MAX_HASH_KMER: u64 = 0x535B_CA29_6D8F_3A24;
    assert_eq!(hash64(MAX_HASH_KMER), u64::MAX);
    let kmer: DnaSeq = (0..32)
        .rev()
        .map(|i| Base::from_code((MAX_HASH_KMER >> (2 * i)) as u8 & 3))
        .collect();
    let tandem: DnaSeq = "AT".repeat(40).parse().expect("ACGT only");
    let mut rng = seeded(43);
    let mut scratch = MinimizerScratch::default();
    for strand in [kmer.clone(), kmer.reverse_complement()] {
        let mut seq = tandem.clone();
        seq.extend_from_seq(&strand);
        seq.extend_from_seq(&tandem);
        let mut long = random_seq(&mut rng, 3_000);
        for _ in 0..3 {
            long.extend_from_seq(&seq);
            long.extend_from_seq(&random_seq(&mut rng, 997));
        }
        for w in 1..=16 {
            assert_same(&seq, 32, w, &mut scratch, "max-hash 32-mer");
            assert_same(&long, 32, w, &mut scratch, "max-hash 32-mer, long");
        }
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: the whole 1 Mb reference")]
fn the_human_profiles_whole_reference_matches_the_deque_oracle() {
    // The human profile's reference (its generator, seed and composition):
    // 1 Mb, GC 0.41, a quarter repeats, at the mapper's `(k, w)` and at the
    // full-width `k = 32`.
    let genome = GenomeBuilder::new(1_000_000)
        .seed(0x4B12878)
        .gc_fraction(0.41)
        .repeat_fraction(0.25)
        .build();
    let mut scratch = MinimizerScratch::default();
    for (k, w) in [(15, 10), (32, 16)] {
        assert_same(genome.sequence(), k, w, &mut scratch, "human reference");
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
