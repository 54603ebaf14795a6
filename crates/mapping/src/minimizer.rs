//! `(w, k)` minimizer sketching.
//!
//! A minimizer is the k-mer with the smallest hash value in each window of
//! `w` consecutive k-mers (Roberts et al. 2004, the sketch minimap2 builds
//! on). Hashing canonical k-mers makes the sketch strand-symmetric;
//! winnowing guarantees that any two sequences sharing a window-length
//! substring share a minimizer, which is what makes seeding complete.
//!
//! [`minimizers_into`] is the one sketch, with two bodies chosen once per
//! call from what the code observes, as the Viterbi and alignment rows are:
//! on x86-64 with AVX2 the lane body (`minimizer/avx2.rs`), everywhere else
//! the portable body; `--cfg genpip_portable` compiles the lane body out.
//! Both return the same minimizers, bit for bit. Both work over blocks of a
//! fixed size and hand their minimizers on a block at a time
//! (`sketch_blocks`), so no buffer but the output grows with the sequence,
//! and the reference index, which consumes them as they come, holds no
//! list of them at all.
//!
//! # The portable body
//!
//! One pass over the bases. It rolls the forward k-mer and its reverse
//! complement together, one base each — the new base enters the forward
//! word at the bottom and its complement enters the reverse word at the top
//! — so the canonical form costs one compare and a select, not a per-k-mer
//! reverse complement or a branch. Winnowing keeps the window's current
//! pick: a new k-mer whose hash is `<=` the pick's takes over (the rightmost
//! minimum wins ties), and only when the pick slides out of the window is
//! the window rescanned. On random sequence a pick slides out about once per
//! `w + 1` bases, so the rescans cost about one hash compare per base. The
//! hashes sit in a block of fixed size; when it fills, its last `w − 1`
//! hashes — all a rescan can still reach — move to its front.
//!
//! # The lane body
//!
//! The windows are cut into blocks of at most `4·L` (`L` = 256, or `8w`
//! when that is more), and a block into four runs of consecutive windows,
//! one per 64-bit lane of a `__m256i`. A lane's k-mers start at its first
//! window's first k-mer and run `w − 1` past its last window's start, so
//! neighbouring lanes overlap by `w − 1` k-mers and every window a lane
//! judges lies wholly inside it. Each step feeds every lane its next base
//! (from 32-base words, [`DnaSeq::word_at`]), rolls the lane's forward and
//! reverse words as the portable body does, picks the canonical word with
//! an unsigned compare and hashes it with [`hash64`], all in registers.
//!
//! The window minimum is van Herk / Gil-Werman's, as in Groot Koerkamp and
//! Martayan's SIMD minimizers (SEA 2025). A lane's k-mers are cut into
//! blocks of `w`; a window is a suffix of the block its first k-mer lies in
//! and a prefix of the block its last k-mer lies in, so its minimum is the
//! smaller of a suffix minimum (kept per block, built right to left when the
//! block is complete) and the running prefix minimum of the current block:
//! three compares a step, with no branch on the hashes. The same step
//! marks the window stale — nothing to emit — when its pick is the previous
//! window's or a palindrome's, one bit a lane in a word of 64 steps, and
//! the emitting loop visits only the set bits of the inverted words.
//!
//! Why it picks what rescan-on-expiry picks: both pick each window's
//! rightmost smallest hash among its non-palindromic k-mers. The rescan
//! body takes over on `<=`, and a rescan finds the rightmost minimum of the
//! whole window. Here the prefix minimum takes a new k-mer on `<=` (a later
//! equal hash wins), the suffix minimum, built right to left, takes a k-mer
//! only on `<` (an earlier equal hash loses), and the window takes the
//! prefix side, which lies right of the suffix side, on `<=`. So every
//! window has the same pick under both bodies. Both emit a pick when its
//! position differs from the last one emitted: a pick that leaves the
//! windows never returns, and a window with no pick (all palindromes) cannot
//! fall between two windows with the same pick, so comparing with the
//! previous window, as the lanes do, is the same test. A lane's first
//! window is compared with the last minimizer emitted, by the lane before
//! it or the block before, so an occurrence picked on both sides of a seam
//! is emitted once.
//!
//! AVX2 compares 64-bit lanes as signed numbers, so a key is stored with
//! its top bit flipped. A palindrome's key is all ones, above every hash
//! but `u64::MAX`; the one k-mer that hashes to it (`hash64` is a
//! bijection, and its inverse image is a canonical 32-mer) would tie with
//! a palindrome, so at `k = 32` a block where some window's pick has a
//! palindrome's key is sketched again by the portable body.

use crate::RefPos;
use genpip_genomics::{DnaSeq, Kmer};
use std::ops::Range;

/// One selected minimizer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Minimizer {
    /// Invertible hash of the canonical k-mer (the hash-table key).
    pub hash: u64,
    /// Position of the k-mer's first base in the sequence.
    ///
    /// [`RefPos`] (64-bit), so the sketchable sequence length is bounded by
    /// addressable memory, not the old 4 Gbp `u32` horizon.
    pub pos: RefPos,
    /// `true` if the canonical k-mer is the reverse complement of the
    /// sequence's forward k-mer at `pos`.
    pub reverse: bool,
}

/// Thomas Wang / minimap2-style invertible 64-bit integer hash.
///
/// Invertibility matters: it guarantees distinct k-mers never collide, so the
/// hash table needs no key verification — mirroring the exact-match
/// semantics of the CAM lookup in GenPIP's in-memory seeding unit.
#[inline]
pub fn hash64(key: u64) -> u64 {
    let mut k = key;
    k = (!k).wrapping_add(k << 21);
    k ^= k >> 24;
    k = k.wrapping_add(k << 3).wrapping_add(k << 8);
    k ^= k >> 14;
    k = k.wrapping_add(k << 2).wrapping_add(k << 4);
    k ^= k >> 28;
    k = k.wrapping_add(k << 31);
    k
}

/// Extracts the `(w, k)` minimizers of `seq`, in position order.
///
/// Palindromic k-mers (their own reverse complement) are skipped because
/// their strand is ambiguous, following minimap2. Consecutive windows that
/// select the same occurrence yield one entry.
///
/// Returns an empty vector if the sequence has fewer than `k` bases.
///
/// # Panics
///
/// Panics if `k` is outside `1..=32` or `w` is 0.
///
/// # Example
///
/// ```
/// use genpip_genomics::DnaSeq;
/// use genpip_mapping::minimizers;
///
/// let seq: DnaSeq = "ACGTTGCATTGCAGGCATTA".parse()?;
/// let mins = minimizers(&seq, 5, 4);
/// assert!(!mins.is_empty());
/// // Positions are strictly increasing.
/// assert!(mins.windows(2).all(|m| m[0].pos < m[1].pos));
/// # Ok::<(), genpip_genomics::base::ParseBaseError>(())
/// ```
pub fn minimizers(seq: &DnaSeq, k: usize, w: usize) -> Vec<Minimizer> {
    // Sized up front: a vector grown from empty starts as a few bytes out of
    // the calling thread's tcache, which may be a chunk some other thread's
    // arena owns, and `realloc` then grows all of it inside that arena,
    // where it stays as that arena's high-water (`BENCH_PR23_pairs.md`).
    let mut out = Vec::with_capacity(sketch_capacity(seq.len(), k, w));
    minimizers_into(seq, k, w, &mut MinimizerScratch::default(), &mut out);
    out
}

/// How many minimizers `len` bases of random sequence sketch to:
/// 2 / (w + 1) a base.
pub(crate) fn expected_minimizers(len: usize, w: usize) -> usize {
    2 * len / (w + 1)
}

/// A size for a vector that will hold the minimizers of `len` bases, which
/// no workload reference outgrows: repeats and low-complexity runs push the
/// count over [`expected_minimizers`] (the human profile's 1 Mb reference
/// reads 0.9–1.1 % over across 40 seeds, its 100 kb prefix up to 1.8 %), so
/// the estimate gets 1/16 on top — never more than one per window. Slots
/// never written cost no memory but address space.
pub(crate) fn sketch_capacity(len: usize, k: usize, w: usize) -> usize {
    let expected = expected_minimizers(len, w);
    (expected + expected / 16).min(window_count(len, k, w))
}

/// Reusable working memory for [`minimizers_into`]; one instance per worker
/// keeps steady-state sketching free of per-chunk allocations. Its size is
/// fixed by `w`, whatever the sequence's length.
#[derive(Debug, Clone, Default)]
pub struct MinimizerScratch {
    /// The portable body's block of k-mers: the canonical hash and strand
    /// flag of each, `None` for palindromes.
    hashed: Vec<Option<(u64, bool)>>,
    /// One block's minimizers, staged for the caller.
    picks: Vec<Minimizer>,
    /// The lane body's working memory.
    #[cfg(all(target_arch = "x86_64", not(genpip_portable)))]
    lanes: avx2::Lanes,
}

/// K-mers the portable body's block holds beyond the `w` a window needs,
/// and minimizers it stages before handing them on.
const PORTABLE_BLOCK: usize = 1024;

/// A window's pick: the rightmost smallest hash among the window's k-mers.
#[derive(Clone, Copy)]
struct Pick {
    /// Index of the picked k-mer.
    at: usize,
    hash: u64,
    reverse: bool,
    /// `false` while every k-mer in the window is a palindrome.
    some: bool,
}

impl Pick {
    /// No pick. Its hash is `u64::MAX`, so any k-mer takes over from it.
    const NONE: Pick = Pick {
        at: 0,
        hash: u64::MAX,
        reverse: false,
        some: false,
    };

    /// Takes k-mer `at` if its hash is `<=` the pick's — the later k-mer
    /// wins a tie, so the pick stays the rightmost minimum. Returns whether
    /// it took over.
    #[inline]
    fn offer(&mut self, at: usize, h: Option<(u64, bool)>) -> bool {
        match h {
            Some((hash, reverse)) if hash <= self.hash => {
                *self = Pick {
                    at,
                    hash,
                    reverse,
                    some: true,
                };
                true
            }
            _ => false,
        }
    }
}

/// Where both bodies put the minimizers they emit: staged, and handed to
/// the caller a block at a time, in position order.
struct Picks<'a> {
    staged: &'a mut Vec<Minimizer>,
    /// The position of the last minimizer emitted; `RefPos::MAX` before the
    /// first. A window's pick is emitted when its position differs.
    last: RefPos,
    to: &'a mut dyn FnMut(&[Minimizer]),
}

impl Picks<'_> {
    #[inline]
    fn emit(&mut self, m: Minimizer) {
        self.staged.push(m);
        self.last = m.pos;
    }

    fn flush(&mut self) {
        if !self.staged.is_empty() {
            (self.to)(self.staged);
            self.staged.clear();
        }
    }
}

/// How many windows of `w` k-mers a sequence of `len` bases has.
fn window_count(len: usize, k: usize, w: usize) -> usize {
    (len + 2).saturating_sub(k + w)
}

/// The mask of a k-mer's `2k` bits.
fn kmer_mask(k: usize) -> u64 {
    if k == Kmer::MAX_K {
        u64::MAX
    } else {
        (1u64 << (2 * k)) - 1
    }
}

/// Extracts the `(w, k)` minimizers of `seq` into `out` (cleared first),
/// reusing `scratch` for all intermediate buffers. Behaviour is identical to
/// [`minimizers`]; see its docs for the contract.
pub fn minimizers_into(
    seq: &DnaSeq,
    k: usize,
    w: usize,
    scratch: &mut MinimizerScratch,
    out: &mut Vec<Minimizer>,
) {
    out.clear();
    sketch_blocks(seq, k, w, scratch, &mut |block| {
        out.extend_from_slice(block)
    });
}

/// The sketch of [`minimizers_into`], handed to `to` in position order a
/// block at a time (at most a few thousand minimizers), so a caller that
/// consumes them as they come — the index build — holds no list of them.
/// Chooses the body once per call.
///
/// # Panics
///
/// Panics if `k` is outside `1..=32` or `w` is 0.
pub(crate) fn sketch_blocks(
    seq: &DnaSeq,
    k: usize,
    w: usize,
    scratch: &mut MinimizerScratch,
    to: &mut dyn FnMut(&[Minimizer]),
) {
    assert!(w >= 1, "window size must be >= 1");
    assert!(
        (1..=Kmer::MAX_K).contains(&k),
        "k must be in 1..={}",
        Kmer::MAX_K
    );
    let windows = window_count(seq.len(), k, w);
    scratch.picks.clear();
    let mut picks = Picks {
        staged: &mut scratch.picks,
        last: RefPos::MAX,
        to,
    };
    #[cfg(all(target_arch = "x86_64", not(genpip_portable)))]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the host supports AVX2, checked on the line above.
        unsafe {
            avx2::sketch(
                seq,
                k,
                w,
                windows,
                &mut scratch.lanes,
                &mut scratch.hashed,
                &mut picks,
            );
        }
        picks.flush();
        return;
    }
    sketch_portable(seq, k, w, 0..windows, &mut scratch.hashed, &mut picks);
    picks.flush();
}

/// The portable body: emits the picks of the windows whose first k-mers
/// are `windows` into `picks`.
fn sketch_portable(
    seq: &DnaSeq,
    k: usize,
    w: usize,
    windows: Range<usize>,
    hashed: &mut Vec<Option<(u64, bool)>>,
    picks: &mut Picks,
) {
    if windows.is_empty() {
        return;
    }
    let mask = kmer_mask(k);
    let top = 2 * (k - 1);
    let (mut fwd, mut rev) = (0u64, 0u64);
    let mut roll = |at: usize| {
        let c = seq.get(at).code() as u64;
        fwd = ((fwd << 2) | c) & mask;
        rev = (rev >> 2) | ((3 ^ c) << top);
        (fwd, rev)
    };
    let first = windows.start;
    for at in first..first + k - 1 {
        roll(at);
    }
    let block = PORTABLE_BLOCK + w;
    hashed.clear();
    hashed.reserve(block);
    picks.staged.reserve(PORTABLE_BLOCK);
    // The index of the k-mer in `hashed[0]`.
    let mut base = first;
    // The pick of the window `i + 1 - w ..= i`.
    let mut pick = Pick::NONE;
    for i in first..windows.end + w - 1 {
        let (fwd, rev) = roll(i + k - 1);
        // The canonical k-mer is the smaller strand; a palindrome has none.
        // Which strand is smaller is a coin flip on real sequence, so it is
        // a select, not a branch.
        let reverse = rev < fwd;
        let hash = hash64(if reverse { rev } else { fwd });
        let h = (fwd != rev).then_some((hash, reverse));
        if hashed.len() == block {
            // Keep the `w - 1` k-mers the next window shares.
            hashed.drain(..block + 1 - w);
            base = i + 1 - w;
        }
        hashed.push(h);
        pick.offer(i, h);
        if pick.some && pick.at + w <= i {
            // The pick slid out: rescan the window.
            let start = i + 1 - w;
            pick = Pick::NONE;
            for (j, &h) in hashed[start - base..].iter().enumerate() {
                pick.offer(start + j, h);
            }
        }
        let pos = pick.at as RefPos;
        if i + 1 >= first + w && pick.some && pos != picks.last {
            picks.emit(Minimizer {
                hash: pick.hash,
                pos,
                reverse: pick.reverse,
            });
            if picks.staged.len() == PORTABLE_BLOCK {
                picks.flush();
            }
        }
    }
}

#[cfg(all(target_arch = "x86_64", not(genpip_portable)))]
mod avx2;

#[cfg(test)]
mod differential;

#[cfg(test)]
mod tests {
    use super::*;
    use genpip_genomics::GenomeBuilder;

    fn seq(n: usize, s: u64) -> DnaSeq {
        GenomeBuilder::new(n)
            .seed(s)
            .repeat_fraction(0.0)
            .build()
            .sequence()
            .clone()
    }

    #[test]
    fn hash64_is_injective_on_a_sample() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for i in 0..100_000u64 {
            assert!(seen.insert(hash64(i)), "collision at {i}");
        }
    }

    #[test]
    fn positions_strictly_increase() {
        let s = seq(5_000, 1);
        let mins = minimizers(&s, 15, 10);
        assert!(mins.windows(2).all(|m| m[0].pos < m[1].pos));
    }

    #[test]
    fn every_window_is_covered() {
        // Winnowing invariant: every window of w consecutive k-mers contains
        // at least one selected minimizer (ignoring palindrome-only windows,
        // which are vanishingly rare at k=15).
        let s = seq(3_000, 2);
        let (k, w) = (15, 10);
        let mins = minimizers(&s, k, w);
        let positions: Vec<usize> = mins.iter().map(|m| m.pos as usize).collect();
        let n_kmers = s.len() - k + 1;
        for start in 0..n_kmers.saturating_sub(w - 1) {
            let covered = positions.iter().any(|&p| p >= start && p < start + w);
            assert!(covered, "window at {start} has no minimizer");
        }
    }

    #[test]
    fn density_is_about_two_over_w_plus_one() {
        let s = seq(50_000, 3);
        let (k, w) = (15, 10);
        let mins = minimizers(&s, k, w);
        let density = mins.len() as f64 / (s.len() - k + 1) as f64;
        let expected = 2.0 / (w as f64 + 1.0);
        assert!(
            (density - expected).abs() / expected < 0.25,
            "density {density}, expected ~{expected}"
        );
    }

    #[test]
    fn sketch_is_strand_symmetric() {
        use std::collections::HashSet;
        let s = seq(2_000, 4);
        let rc = s.reverse_complement();
        let fwd: HashSet<u64> = minimizers(&s, 15, 10).iter().map(|m| m.hash).collect();
        let rev: HashSet<u64> = minimizers(&rc, 15, 10).iter().map(|m| m.hash).collect();
        // The hash *sets* must be identical on both strands.
        assert_eq!(fwd, rev);
    }

    #[test]
    fn w_equals_one_selects_every_kmer() {
        let s = seq(300, 5);
        let k = 15;
        let mins = minimizers(&s, k, 1);
        // Every non-palindromic k-mer is selected.
        assert_eq!(mins.len(), s.len() - k + 1);
    }

    #[test]
    fn short_sequence_yields_nothing() {
        let s: DnaSeq = "ACGT".parse().unwrap();
        assert!(minimizers(&s, 15, 10).is_empty());
    }

    #[test]
    fn shared_substring_shares_a_minimizer() {
        // Two sequences sharing a 100 bp substring must share a minimizer
        // from that region (the winnowing guarantee seeding relies on).
        let a = seq(1_000, 6);
        let core = a.subseq(400, 100);
        let mut b = seq(500, 7);
        b.extend_from_seq(&core);
        b.extend_from_seq(&seq(500, 8));
        let (k, w) = (15, 10);
        use std::collections::HashSet;
        let ha: HashSet<u64> = minimizers(&a, k, w)
            .iter()
            .filter(|m| (400..500).contains(&(m.pos as usize)))
            .map(|m| m.hash)
            .collect();
        let hb: HashSet<u64> = minimizers(&b, k, w).iter().map(|m| m.hash).collect();
        assert!(!ha.is_disjoint(&hb));
    }

    #[test]
    #[should_panic(expected = "window size")]
    fn zero_window_rejected() {
        let s: DnaSeq = "ACGTACGTACGT".parse().unwrap();
        let _ = minimizers(&s, 4, 0);
    }
}
