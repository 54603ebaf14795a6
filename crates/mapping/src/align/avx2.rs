//! The banded-alignment row for `gap_open <= 0` with a whole 8-cell block
//! in registers: pass A, pass B's running maximum and the traceback bits of
//! [`fill`](super::fill)'s recurrence fused into one sweep, the substitution
//! scores read from the window's score profile (see the parent module's docs
//! for the recurrence, and for why every value equals the portable row's).
//!
//! Every intrinsic that takes values only is safe inside an
//! `#[target_feature(enable = "avx2")]` function; the three that touch
//! memory are wrapped below in helpers whose parameter *types* carry the
//! length the access needs, so [`row`] cuts its slices into fixed-size
//! arrays once per row and contains no pointer arithmetic.

use super::{AlignmentParams, LANES, NEG};
use std::arch::x86_64::*;

#[inline]
#[target_feature(enable = "avx2")]
fn load8(src: &[i32; LANES]) -> __m256i {
    // SAFETY: `src` is eight readable `i32`s by its type, and `loadu` has no
    // alignment requirement.
    unsafe { _mm256_loadu_si256(src.as_ptr().cast()) }
}

#[inline]
#[target_feature(enable = "avx2")]
fn store8(dst: &mut [i32; LANES], v: __m256i) {
    // SAFETY: `dst` is eight writable `i32`s by its type, and `storeu` has
    // no alignment requirement.
    unsafe { _mm256_storeu_si256(dst.as_mut_ptr().cast(), v) }
}

#[inline]
#[target_feature(enable = "avx2")]
fn store_masked(dst: &mut [i32; LANES], v: __m256i, mask: __m256i) {
    // SAFETY: `dst` is eight writable `i32`s by its type (the instruction
    // writes only the lanes whose mask is set, and needs no alignment).
    unsafe { _mm256_maskstore_epi32(dst.as_mut_ptr(), mask, v) }
}

/// What one row's blocks share: the scoring's broadcasts, and the state
/// pass B carries from one block to the next.
struct Fused {
    neg: __m256i,
    open_extend: __m256i,
    extend: __m256i,
    /// Lane `l` of block `b`, cell `k = 8b + l`: `o + e − e·(k + 1)`, the
    /// slope that turns `T[k]` into `v[k + 1]`.
    w_slope: __m256i,
    /// Lane `l` of block `b`: `e·k`, the slope that turns `u[k]` into
    /// `Iy[k]`.
    iy_slope: __m256i,
    /// What the two slopes move by from one block to the next: `−8e`, `8e`.
    w_step: __m256i,
    iy_step: __m256i,
    /// The previous block's `v[k + 1]` (its lane 7 is this block's `v` in
    /// lane 0); `NEG` in front of the first block, where `v[0] = NEG`.
    w_prev: __m256i,
    /// The maximum of every `v` before this block, in all lanes.
    run: __m256i,
}

impl Fused {
    #[inline]
    #[target_feature(enable = "avx2")]
    fn new(p: &AlignmentParams) -> Fused {
        let (e, oe) = (p.gap_extend, p.gap_open + p.gap_extend);
        let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let extend = _mm256_set1_epi32(e);
        let open_extend = _mm256_set1_epi32(oe);
        let lanes = LANES as i32;
        Fused {
            neg: _mm256_set1_epi32(NEG),
            open_extend,
            extend,
            w_slope: _mm256_sub_epi32(
                open_extend,
                _mm256_mullo_epi32(extend, _mm256_add_epi32(lane, _mm256_set1_epi32(1))),
            ),
            iy_slope: _mm256_mullo_epi32(extend, lane),
            w_step: _mm256_set1_epi32(e.wrapping_mul(-lanes)),
            iy_step: _mm256_set1_epi32(e.wrapping_mul(lanes)),
            w_prev: _mm256_set1_epi32(NEG),
            run: _mm256_set1_epi32(NEG),
        }
    }

    /// Cells `8b .. 8b + 8` of the row, from their diagonal and upper
    /// neighbours and their substitution scores: returns `H`, `Ix` and the
    /// traceback flags, one byte a cell.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn block(
        &mut self,
        h_diag: &[i32; LANES],
        h_up: &[i32; LANES],
        ix_up: &[i32; LANES],
        sub: &[i32; LANES],
    ) -> (__m256i, __m256i, [u8; LANES]) {
        // Pass A: `Ix`, `T` and their bits. `max_epi32` is symmetric, so the
        // scalar `ext.max(open)` and `gap.max(diag)` carry over as they are.
        let open = _mm256_add_epi32(load8(h_up), self.open_extend);
        let ext = _mm256_add_epi32(load8(ix_up), self.extend);
        let gap = _mm256_max_epi32(ext, open);
        let diag = _mm256_add_epi32(load8(h_diag), load8(sub));
        let t = _mm256_max_epi32(gap, diag);
        let ix_extends = _mm256_cmpgt_epi32(ext, open);
        let from_ix = _mm256_cmpgt_epi32(gap, diag);

        // Pass B. `w` is `v[k + 1]`; `v[k]` is `w` shifted in by one lane
        // from the previous block: [w_prev[7], w[0], …, w[6]].
        let w = _mm256_add_epi32(t, self.w_slope);
        let v = _mm256_alignr_epi8::<12>(w, _mm256_permute2x128_si256::<0x21>(self.w_prev, w));
        // Inclusive prefix maximum of `v`: one and two lanes within each
        // half, then the low half's last lane into the high half.
        let m = _mm256_max_epi32(v, _mm256_alignr_epi8::<12>(v, self.neg));
        let m = _mm256_max_epi32(m, _mm256_alignr_epi8::<8>(m, self.neg));
        let low_last = _mm256_permutevar8x32_epi32(m, _mm256_set1_epi32(3));
        let m = _mm256_max_epi32(m, _mm256_blend_epi32::<0xF0>(self.neg, low_last));
        let u = _mm256_max_epi32(m, self.run);
        // The carry depends on the previous one through one `max` only.
        let block_max = _mm256_permutevar8x32_epi32(m, _mm256_set1_epi32(7));
        self.run = _mm256_max_epi32(self.run, block_max);
        let iy = _mm256_add_epi32(u, self.iy_slope);
        let from_iy = _mm256_cmpgt_epi32(iy, t);
        let iy_extends = _mm256_cmpgt_epi32(u, v);
        let h = _mm256_max_epi32(iy, t);

        // `pass_b_running_max`'s flags: H's source is 2 if from Iy, else
        // pass A's bit 0; bit 2 is Ix extended, bit 3 Iy extended.
        let flags = _mm256_or_si256(
            _mm256_or_si256(
                _mm256_and_si256(
                    _mm256_andnot_si256(from_iy, from_ix),
                    _mm256_set1_epi32(0b0001),
                ),
                _mm256_and_si256(from_iy, _mm256_set1_epi32(0b0010)),
            ),
            _mm256_or_si256(
                _mm256_and_si256(ix_extends, _mm256_set1_epi32(0b0100)),
                _mm256_and_si256(iy_extends, _mm256_set1_epi32(0b1000)),
            ),
        );
        // The low byte of each lane: bytes 0, 4, 8, 12 of each half, then
        // the two halves' dwords side by side.
        let picked = _mm256_shuffle_epi8(
            flags,
            _mm256_setr_epi8(
                0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, //
                0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
            ),
        );
        let packed = _mm256_permutevar8x32_epi32(picked, _mm256_setr_epi32(0, 4, 0, 0, 0, 0, 0, 0));
        let bytes = _mm_cvtsi128_si64(_mm256_castsi256_si128(packed)).to_le_bytes();

        self.w_prev = w;
        self.w_slope = _mm256_add_epi32(self.w_slope, self.w_step);
        self.iy_slope = _mm256_add_epi32(self.iy_slope, self.iy_step);
        (h, gap, bytes)
    }
}

/// One DP row of `flags.len()` cells for `gap_open <= 0`, equal bit for bit
/// to `pass_a` followed by `pass_b_running_max`: `h` and `ix` receive the
/// row's `H` and `Ix` from cell 0 on, `flags` its traceback bits. `h_prev`
/// and `ix_prev` hold the previous row from the first cell's diagonal
/// neighbour on, `prof` the query base's substitution score for each of the
/// row's columns.
///
/// The row runs in blocks of eight cells, the last one possibly partial: it
/// reads up to seven entries past the row's end in each input — what they
/// hold does not matter, since no lane feeds a lane to its left — and
/// writes nothing past it.
///
/// # Panics
///
/// Panics unless, with `blocks` the row's cell count rounded up to eight,
/// `prof`, `h` and `ix` hold at least `blocks` entries and `h_prev` and
/// `ix_prev` one more.
#[target_feature(enable = "avx2")]
pub(super) fn row(
    p: &AlignmentParams,
    prof: &[i32],
    h_prev: &[i32],
    ix_prev: &[i32],
    h: &mut [i32],
    ix: &mut [i32],
    flags: &mut [u8],
) {
    let blocks = flags.len().div_ceil(LANES);
    let (h_diag, _) = h_prev.as_chunks::<LANES>();
    let (h_up, _) = h_prev[1..].as_chunks::<LANES>();
    let (ix_up, _) = ix_prev[1..].as_chunks::<LANES>();
    let (sub, _) = prof.as_chunks::<LANES>();
    let (h, _) = h.as_chunks_mut::<LANES>();
    let (ix, _) = ix.as_chunks_mut::<LANES>();
    let (flags, tail) = flags.as_chunks_mut::<LANES>();
    assert!(
        [
            h_diag.len(),
            h_up.len(),
            ix_up.len(),
            sub.len(),
            h.len(),
            ix.len()
        ]
        .iter()
        .all(|&have| have >= blocks),
        "a row of {blocks} blocks needs {blocks} blocks of every operand"
    );

    let mut fused = Fused::new(p);
    let inputs = h_diag.iter().zip(h_up).zip(ix_up).zip(sub);
    let outputs = h.iter_mut().zip(ix.iter_mut()).zip(flags.iter_mut());
    for ((((h_diag, h_up), ix_up), sub), ((h, ix), flags)) in inputs.zip(outputs) {
        let (hv, ixv, bytes) = fused.block(h_diag, h_up, ix_up, sub);
        store8(h, hv);
        store8(ix, ixv);
        *flags = bytes;
    }
    if !tail.is_empty() {
        // Cells past the row's end keep what they hold: `fill` never clears
        // a row, and relies on the cells beyond the clip staying `NEG`.
        let b = blocks - 1;
        let (hv, ixv, bytes) = fused.block(&h_diag[b], &h_up[b], &ix_up[b], &sub[b]);
        let mask = _mm256_cmpgt_epi32(
            _mm256_set1_epi32(tail.len() as i32),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        );
        store_masked(&mut h[b], hv, mask);
        store_masked(&mut ix[b], ixv, mask);
        for (flag, byte) in tail.iter_mut().zip(bytes) {
            *flag = byte;
        }
    }
}
