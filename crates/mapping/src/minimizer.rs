//! `(w, k)` minimizer sketching.
//!
//! A minimizer is the k-mer with the smallest hash value in each window of
//! `w` consecutive k-mers (Roberts et al. 2004, the sketch minimap2 builds
//! on). Hashing canonical k-mers makes the sketch strand-symmetric;
//! winnowing guarantees that any two sequences sharing a window-length
//! substring share a minimizer, which is what makes seeding complete.
//!
//! [`minimizers_into`] makes one pass over the bases. It rolls the forward
//! k-mer and its reverse complement together, one base each — the new base
//! enters the forward word at the bottom and its complement enters the
//! reverse word at the top — so the canonical form costs one compare, not a
//! per-k-mer reverse complement. Winnowing keeps the window's current pick:
//! a new k-mer whose hash is `<=` the pick's takes over (the rightmost
//! minimum wins ties), and only when the pick slides out of the window is
//! the window rescanned. On random sequence a pick slides out about once per
//! `w + 1` bases, so the rescans cost about one hash compare per base, and
//! the one data-dependent branch per base — "is this a new minimum?" — is
//! rarely taken (the monotone deque this replaced popped on a coin flip).

use crate::RefPos;
use genpip_genomics::{DnaSeq, Kmer};
use std::cmp::Ordering;

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
    // Sized up front (one per k-mer in the scratch, the expected 2 / (w + 1)
    // density here): a vector grown from empty starts as a few bytes out of
    // the calling thread's tcache, which may be a chunk some other thread's
    // arena owns, and `realloc` then grows all of it — 16 MB for a 1 Mb
    // reference — inside that arena, where it stays as that arena's
    // high-water (`BENCH_PR23_pairs.md`).
    let mut out = Vec::with_capacity(2 * seq.len() / (w + 1));
    minimizers_into(seq, k, w, &mut MinimizerScratch::default(), &mut out);
    out
}

/// Reusable winnowing working memory for [`minimizers_into`]; one instance
/// per worker keeps steady-state sketching free of per-chunk allocations.
#[derive(Debug, Clone, Default)]
pub struct MinimizerScratch {
    /// Per k-mer: the canonical hash and strand flag, `None` for palindromes.
    hashed: Vec<Option<(u64, bool)>>,
}

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
    assert!(w >= 1, "window size must be >= 1");
    assert!(
        (1..=Kmer::MAX_K).contains(&k),
        "k must be in 1..={}",
        Kmer::MAX_K
    );
    out.clear();
    let hashed = &mut scratch.hashed;
    hashed.clear();
    hashed.reserve((seq.len() + 1).saturating_sub(k));

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
        let h = match fwd.cmp(&rev) {
            Ordering::Less => Some((hash64(fwd), false)),
            Ordering::Greater => Some((hash64(rev), true)),
            Ordering::Equal => None,
        };
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
}

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
