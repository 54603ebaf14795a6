//! The lane body of [`minimizers_into`](super::minimizers_into): four runs
//! of windows at once, one per 64-bit lane of a `__m256i` (see the parent
//! module's docs for how the windows are cut into lanes and why the van
//! Herk minimum picks what the portable body's rescan picks).
//!
//! Every intrinsic that takes values only is safe inside an
//! `#[target_feature(enable = "avx2")]` function; the two that touch memory
//! are wrapped below in helpers whose parameter type carries the alignment
//! and length the access needs.

use super::{kmer_mask, sketch_portable, Minimizer, Picks};
use genpip_genomics::{DnaSeq, Kmer};
use std::arch::x86_64::*;

/// Windows a lane covers in a full block, unless `8w` is more
/// ([`block_windows`]).
const LANE_WINDOWS: usize = 256;

/// Flips a key's top bit, so AVX2's signed 64-bit compare orders keys as
/// unsigned numbers.
const SIGN: u64 = 1 << 63;

/// A palindrome's key, and the key of the sentinel past the suffix minima:
/// all ones, flipped, above every other key but that of the one k-mer
/// [`hash64`](super::hash64) sends to `u64::MAX`, a canonical 32-mer.
const NONE_KEY: u64 = u64::MAX ^ SIGN;

/// One 64-bit quantity in each of four lanes, aligned for AVX2 loads.
#[derive(Clone, Copy, Debug, Default)]
#[repr(C, align(32))]
struct Quad([u64; 4]);

/// A k-mer, or a window's pick, in each of four lanes: its key (the
/// canonical hash with its top bit flipped, [`NONE_KEY`] for a palindrome)
/// and its tag (`position << 1 | reverse`).
#[derive(Clone, Copy, Debug, Default)]
struct Entry {
    key: Quad,
    tag: Quad,
}

/// The lane body's working memory; its size depends on `w` alone.
#[derive(Clone, Debug, Default)]
pub(super) struct Lanes {
    /// The current block of `w` k-mers: the previous block's suffix minima
    /// ahead of the current k-mer, the current block's k-mers behind it,
    /// and a sentinel (key [`NONE_KEY`]) at index `w`.
    ring: Vec<Entry>,
    /// Each step's window pick, at the lane-local index of the window's
    /// last k-mer (picks before index `w - 1` are not windows).
    wins: Vec<Entry>,
    /// One bit a step and lane, 64 steps a word: set when the step's pick
    /// is a palindrome's key or the previous step's pick, so there is
    /// nothing to emit.
    stale: Vec<Quad>,
}

#[inline]
#[target_feature(enable = "avx2")]
fn load(src: &Quad) -> __m256i {
    // SAFETY: `src` is four readable `u64`s, 32-byte aligned by its type.
    unsafe { _mm256_load_si256(src.0.as_ptr().cast()) }
}

#[inline]
#[target_feature(enable = "avx2")]
fn store(dst: &mut Quad, v: __m256i) {
    // SAFETY: `dst` is four writable `u64`s, 32-byte aligned by its type.
    unsafe { _mm256_store_si256(dst.0.as_mut_ptr().cast(), v) }
}

#[inline]
#[target_feature(enable = "avx2")]
fn splat(x: u64) -> __m256i {
    _mm256_set1_epi64x(x as i64)
}

/// [`hash64`](super::hash64) in each lane.
#[inline]
#[target_feature(enable = "avx2")]
fn hash64x4(key: __m256i) -> __m256i {
    let k = _mm256_add_epi64(
        _mm256_xor_si256(key, splat(u64::MAX)),
        _mm256_slli_epi64::<21>(key),
    );
    let k = _mm256_xor_si256(k, _mm256_srli_epi64::<24>(k));
    let k = _mm256_add_epi64(
        _mm256_add_epi64(k, _mm256_slli_epi64::<3>(k)),
        _mm256_slli_epi64::<8>(k),
    );
    let k = _mm256_xor_si256(k, _mm256_srli_epi64::<14>(k));
    let k = _mm256_add_epi64(
        _mm256_add_epi64(k, _mm256_slli_epi64::<2>(k)),
        _mm256_slli_epi64::<4>(k),
    );
    let k = _mm256_xor_si256(k, _mm256_srli_epi64::<28>(k));
    _mm256_add_epi64(k, _mm256_slli_epi64::<31>(k))
}

/// Four lanes' rolling forward and reverse k-mer words, fed from 32-base
/// words of the sequence.
struct Roll {
    /// Each lane's position of the first base not yet in `words`.
    next: [usize; 4],
    /// The bases of each lane's current word not yet fed, `left` of them.
    words: __m256i,
    left: usize,
    fwd: __m256i,
    rev: __m256i,
    mask: __m256i,
    /// `2(k − 1)`: where a base's complement enters the reverse word.
    top: __m128i,
}

impl Roll {
    #[inline]
    #[target_feature(enable = "avx2")]
    fn new(starts: [usize; 4], k: usize) -> Roll {
        Roll {
            next: starts,
            words: _mm256_setzero_si256(),
            left: 0,
            fwd: _mm256_setzero_si256(),
            rev: _mm256_setzero_si256(),
            mask: splat(kmer_mask(k)),
            top: _mm_cvtsi64_si128(2 * (k as i64 - 1)),
        }
    }

    /// Feeds each lane its next base.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn step(&mut self, seq: &DnaSeq) {
        if self.left == 0 {
            let [a, b, c, d] = self.next.map(|at| seq.word_at(at) as i64);
            self.words = _mm256_setr_epi64x(a, b, c, d);
            self.next = self.next.map(|at| at + 32);
            self.left = 32;
        }
        let three = splat(3);
        let c = _mm256_and_si256(self.words, three);
        self.words = _mm256_srli_epi64::<2>(self.words);
        self.left -= 1;
        self.fwd = _mm256_and_si256(
            _mm256_or_si256(_mm256_slli_epi64::<2>(self.fwd), c),
            self.mask,
        );
        self.rev = _mm256_or_si256(
            _mm256_srli_epi64::<2>(self.rev),
            _mm256_sll_epi64(_mm256_xor_si256(c, three), self.top),
        );
    }
}

/// Windows in a full block at window size `w`: four lanes of 256, or of
/// `8w` when that is more, so a lane's `w − 1` k-mers of overlap stay a
/// small part of its work.
pub(super) fn block_windows(w: usize) -> usize {
    4 * LANE_WINDOWS.max(8 * w)
}

/// The lane body: emits the picks of `seq`'s `windows` windows into
/// `picks`, block by block.
///
/// # Safety
///
/// Outside code compiled for AVX2, the caller must have checked that the
/// host supports it.
#[target_feature(enable = "avx2")]
pub(super) fn sketch(
    seq: &DnaSeq,
    k: usize,
    w: usize,
    windows: usize,
    lanes: &mut Lanes,
    hashed: &mut Vec<Option<(u64, bool)>>,
    picks: &mut Picks,
) {
    let full = block_windows(w);
    let steps = full / 4 + w - 1;
    lanes.ring.resize(w + 1, Entry::default());
    lanes.ring[w] = Entry {
        key: Quad([NONE_KEY; 4]),
        tag: Quad::default(),
    };
    lanes.wins.resize(steps, Entry::default());
    lanes.stale.resize(steps.div_ceil(64), Quad::default());
    picks.staged.reserve(full);
    let mut first = 0;
    while first < windows {
        let n = (windows - first).min(full);
        let lane = n.div_ceil(4);
        if block(seq, k, w, first, lane, lanes) {
            sketch_portable(seq, k, w, first..first + n, hashed, picks);
        } else {
            emit(lanes, w, lane, n, picks);
        }
        picks.flush();
        first += n;
    }
}

/// Picks the windows whose first k-mers are `first .. first + 4·lane`,
/// `lane` of them a lane, into `lanes.wins` and marks the stale ones.
/// Returns whether the block must be sketched by the portable body
/// instead: at `k = 32`, when some window's pick has a palindrome's key,
/// for it may be the 32-mer whose hash is `u64::MAX` (a tie the keys
/// cannot break).
#[target_feature(enable = "avx2")]
fn block(seq: &DnaSeq, k: usize, w: usize, first: usize, lane: usize, lanes: &mut Lanes) -> bool {
    let starts = [0, 1, 2, 3].map(|j| first + j * lane);
    let mut roll = Roll::new(starts, k);
    for _ in 1..k {
        roll.step(seq);
    }
    let (sign, one, two) = (splat(SIGN), splat(1), splat(2));
    let (none, top) = (splat(NONE_KEY), splat(1 << 63));
    let [a, b, c, d] = starts.map(|at| (at << 1) as i64);
    let mut tag = _mm256_setr_epi64x(a, b, c, d);
    // The previous window's pick, the stale bits of the current word, and
    // whether any pick had a palindrome's key.
    let mut prev = _mm256_setzero_si256();
    let mut stale = _mm256_setzero_si256();
    let mut palindromic = _mm256_setzero_si256();
    let steps = lane + w - 1;
    let ring = &mut lanes.ring[..=w];
    let words = &mut lanes.stale[..steps.div_ceil(64)];
    let mut t = 0;
    for wins in lanes.wins[..steps].chunks_mut(w) {
        // The running prefix minimum of this block of `w` k-mers.
        let (mut pkey, mut ptag) = (none, _mm256_setzero_si256());
        for (j, win) in wins.iter_mut().enumerate() {
            roll.step(seq);
            let (fwd, rev) = (roll.fwd, roll.rev);
            // The canonical word is the smaller one, compared unsigned.
            let (fwd_u, rev_u) = (_mm256_xor_si256(fwd, sign), _mm256_xor_si256(rev, sign));
            let reverse = _mm256_cmpgt_epi64(fwd_u, rev_u);
            let canonical = _mm256_blendv_epi8(fwd, rev, reverse);
            let palindrome = _mm256_cmpeq_epi64(fwd, rev);
            let key = _mm256_xor_si256(_mm256_or_si256(hash64x4(canonical), palindrome), sign);
            let here = _mm256_or_si256(tag, _mm256_and_si256(reverse, one));
            tag = _mm256_add_epi64(tag, two);
            // Prefix: the k-mer takes over unless its key is greater, so a
            // later equal key wins.
            let stays = _mm256_cmpgt_epi64(key, pkey);
            pkey = _mm256_blendv_epi8(key, pkey, stays);
            ptag = _mm256_blendv_epi8(here, ptag, stays);
            // Window: the prefix side unless the suffix side is smaller.
            let (skey, stag) = (load(&ring[j + 1].key), load(&ring[j + 1].tag));
            let suffix = _mm256_cmpgt_epi64(pkey, skey);
            let (wkey, wtag) = (
                _mm256_blendv_epi8(pkey, skey, suffix),
                _mm256_blendv_epi8(ptag, stag, suffix),
            );
            store(&mut win.key, wkey);
            store(&mut win.tag, wtag);
            store(&mut ring[j].key, key);
            store(&mut ring[j].tag, here);
            // Stale: a palindrome's key, or the previous window's pick. Step
            // `t` enters the word at its top bit and moves down one a step.
            let no_pick = _mm256_cmpeq_epi64(wkey, none);
            palindromic = _mm256_or_si256(palindromic, no_pick);
            let repeat = _mm256_or_si256(no_pick, _mm256_cmpeq_epi64(wtag, prev));
            prev = wtag;
            stale = _mm256_or_si256(_mm256_srli_epi64::<1>(stale), _mm256_and_si256(repeat, top));
            store(&mut words[t >> 6], stale);
            t += 1;
        }
        // Suffix minima, right to left: a k-mer takes over only if its key
        // is smaller, so an earlier equal key loses. (After a last, partial
        // block they are not read.)
        for j in (0..w - 1).rev() {
            let (nkey, ntag) = (load(&ring[j + 1].key), load(&ring[j + 1].tag));
            let (key, tag) = (load(&ring[j].key), load(&ring[j].tag));
            let takes = _mm256_cmpgt_epi64(nkey, key);
            store(&mut ring[j].key, _mm256_blendv_epi8(nkey, key, takes));
            store(&mut ring[j].tag, _mm256_blendv_epi8(ntag, tag, takes));
        }
    }
    // A full word has step `64m + i` at bit `i`; move the last word's bits
    // down to the same places.
    let last = t - 1;
    let shift = _mm_cvtsi64_si128((63 - (last & 63)) as i64);
    store(&mut words[last >> 6], _mm256_srl_epi64(stale, shift));
    k == Kmer::MAX_K && _mm256_testz_si256(palindromic, palindromic) == 0
}

/// Emits the picks of one block's `n` windows, `lane` a lane, lane by
/// lane: a lane's first window when its pick is no palindrome's and its
/// position differs from the last one emitted (by the lane before, the
/// block before or the portable body), the others when they are not
/// stale. Only the emitted windows are read.
fn emit(lanes: &Lanes, w: usize, lane: usize, n: usize, picks: &mut Picks) {
    let minimizer = |t: usize, j: usize| {
        let win = &lanes.wins[t];
        let (key, tag) = (win.key.0[j], win.tag.0[j]);
        Minimizer {
            hash: key ^ SIGN,
            pos: tag >> 1,
            reverse: tag & 1 == 1,
        }
    };
    for j in 0..4 {
        let windows = n.saturating_sub(j * lane).min(lane);
        if windows == 0 {
            break;
        }
        // The lane's windows end at steps `lo .. hi`.
        let (lo, hi) = (w - 1, w - 1 + windows);
        let m = minimizer(lo, j);
        if m.hash != u64::MAX && m.pos != picks.last {
            picks.emit(m);
        }
        for word in (lo + 1) >> 6..=(hi - 1) >> 6 {
            let base = word * 64;
            let mut fresh = !lanes.stale[word].0[j];
            if base <= lo {
                fresh &= u64::MAX << (lo + 1 - base);
            }
            if hi < base + 64 {
                fresh &= (1 << (hi - base)) - 1;
            }
            while fresh != 0 {
                picks.emit(minimizer(base + fresh.trailing_zeros() as usize, j));
                fresh &= fresh - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minimizer::hash64;
    use genpip_genomics::rng::{seeded, Rng};

    #[test]
    fn hash64x4_is_hash64_in_every_lane() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            eprintln!("skipped: the host has no AVX2");
            return;
        }
        let mut rng = seeded(42);
        for _ in 0..10_000 {
            let keys = [0; 4].map(|_: u64| rng.random::<u64>());
            let mut got = Quad::default();
            // SAFETY: the host supports AVX2, checked above.
            unsafe {
                store(&mut got, hash64x4(load(&Quad(keys))));
            }
            assert_eq!(got.0, keys.map(hash64));
        }
    }
}
