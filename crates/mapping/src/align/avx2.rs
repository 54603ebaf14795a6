//! The banded-alignment row in `i16` lanes, a whole 16-cell block in
//! registers: pass A, pass B's running maximum and the traceback bits of
//! [`fill`]'s recurrence fused into one sweep, the substitution scores read
//! from the window's score profile (see the parent module's docs for the
//! recurrence, and for the bound under which every value is the portable
//! row's, shifted by the row's offset).
//!
//! Every intrinsic that takes values only is safe inside an
//! `#[target_feature(enable = "avx2")]` function; the two that touch memory
//! are wrapped below in helpers whose parameter *types* carry the length the
//! access needs, so [`row`](Kernel::row) cuts its slices into fixed-size
//! arrays once per row and contains no pointer arithmetic.

use super::{fill, AlignScratch, AlignmentParams, Band, Row, Rows, LANES, NEG16, SLACK};
use std::arch::x86_64::*;

#[inline]
#[target_feature(enable = "avx2")]
fn load16(src: &[i16; LANES]) -> __m256i {
    // SAFETY: `src` is sixteen readable `i16`s by its type, and `loadu` has
    // no alignment requirement.
    unsafe { _mm256_loadu_si256(src.as_ptr().cast()) }
}

#[inline]
#[target_feature(enable = "avx2")]
fn store16(dst: &mut [i16; LANES], v: __m256i) {
    // SAFETY: `dst` is sixteen writable `i16`s by its type, and `storeu` has
    // no alignment requirement.
    unsafe { _mm256_storeu_si256(dst.as_mut_ptr().cast(), v) }
}

/// What every row of one alignment shares: the scoring's broadcasts, pass
/// B's slope vectors for a row's first block, and the shuffle controls.
/// Built once per alignment.
pub(super) struct Kernel {
    neg: __m256i,
    open_extend: __m256i,
    extend: __m256i,
    /// Lane `l` of a row's first block, cell `k = l`: `o + e − e·(k + 1)`,
    /// the slope that turns `T[k]` into `v[k + 1]`.
    w_slope: __m256i,
    /// Lane `l` of a row's first block: `e·k`, the slope that turns `u[k]`
    /// into `Iy[k]`.
    iy_slope: __m256i,
    /// What the two slopes move by from one block to the next: `−16e`, `16e`.
    w_step: __m256i,
    iy_step: __m256i,
    /// `0, 1, …, 15`: which lanes a partial block keeps.
    lane: __m256i,
    /// Copies each half's last lane into all of its lanes.
    last_of_half: __m256i,
    bits: [__m256i; 4],
}

/// The state pass B carries from one block of a row to the next.
struct Carry {
    /// The previous block's `v[k + 1]` (its lane 15 is this block's `v` in
    /// lane 0); `NEG16` in front of the first block, where `v[0] = NEG`.
    w_prev: __m256i,
    /// The maximum of every `v` before this block, in all lanes.
    run: __m256i,
    w_slope: __m256i,
    iy_slope: __m256i,
}

impl Kernel {
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(super) fn new(p: &AlignmentParams) -> Kernel {
        // Under the bound every real lane of these fits `i16` (module docs);
        // lanes past a short row's end may wrap, and nothing reads them.
        let (e, oe) = (p.gap_extend, p.gap_open + p.gap_extend);
        let lane = _mm256_setr_epi16(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
        let extend = _mm256_set1_epi16(e as i16);
        let open_extend = _mm256_set1_epi16(oe as i16);
        let lanes = LANES as i32;
        Kernel {
            neg: _mm256_set1_epi16(NEG16),
            open_extend,
            extend,
            w_slope: _mm256_sub_epi16(
                open_extend,
                _mm256_mullo_epi16(extend, _mm256_add_epi16(lane, _mm256_set1_epi16(1))),
            ),
            iy_slope: _mm256_mullo_epi16(extend, lane),
            w_step: _mm256_set1_epi16(e.wrapping_mul(-lanes) as i16),
            iy_step: _mm256_set1_epi16(e.wrapping_mul(lanes) as i16),
            lane,
            last_of_half: _mm256_setr_epi8(
                14, 15, 14, 15, 14, 15, 14, 15, 14, 15, 14, 15, 14, 15, 14, 15, //
                14, 15, 14, 15, 14, 15, 14, 15, 14, 15, 14, 15, 14, 15, 14, 15,
            ),
            bits: [0b0001, 0b0010, 0b0100, 0b1000].map(|bit| _mm256_set1_epi16(bit)),
        }
    }

    /// Cells `16b .. 16b + 16` of a row, from their diagonal and upper
    /// neighbours and their substitution scores, in the previous row's
    /// frame: returns `H`, `Ix` and the traceback flags, one byte a cell.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn block(
        &self,
        carry: &mut Carry,
        h_diag: &[i16; LANES],
        h_up: &[i16; LANES],
        ix_up: &[i16; LANES],
        sub: &[i16; LANES],
    ) -> (__m256i, __m256i, [u8; LANES]) {
        // Pass A: `Ix`, `T` and their bits. `max_epi16` is symmetric, so the
        // scalar `ext.max(open)` and `gap.max(diag)` carry over as they are.
        // Under the bound no add saturates.
        let open = _mm256_adds_epi16(load16(h_up), self.open_extend);
        let ext = _mm256_adds_epi16(load16(ix_up), self.extend);
        let gap = _mm256_max_epi16(ext, open);
        let diag = _mm256_adds_epi16(load16(h_diag), load16(sub));
        let t = _mm256_max_epi16(gap, diag);
        let ix_extends = _mm256_cmpgt_epi16(ext, open);
        let from_ix = _mm256_cmpgt_epi16(gap, diag);

        // Pass B. `w` is `v[k + 1]`; `v[k]` is `w` shifted in by one lane
        // from the previous block: [w_prev[15], w[0], …, w[14]].
        let w = _mm256_adds_epi16(t, carry.w_slope);
        let v = _mm256_alignr_epi8::<14>(w, _mm256_permute2x128_si256::<0x21>(carry.w_prev, w));
        // Inclusive prefix maximum of `v`: one, two and four lanes within
        // each half, then the low half's last lane into the high half.
        let m = _mm256_max_epi16(v, _mm256_alignr_epi8::<14>(v, self.neg));
        let m = _mm256_max_epi16(m, _mm256_alignr_epi8::<12>(m, self.neg));
        let m = _mm256_max_epi16(m, _mm256_alignr_epi8::<8>(m, self.neg));
        let lasts = _mm256_shuffle_epi8(m, self.last_of_half);
        let m = _mm256_max_epi16(m, _mm256_permute2x128_si256::<0x20>(self.neg, lasts));
        let u = _mm256_max_epi16(m, carry.run);
        // The carry depends on the previous one through one `max` only.
        let block_max = _mm256_shuffle_epi8(m, self.last_of_half);
        carry.run = _mm256_max_epi16(
            carry.run,
            _mm256_permute2x128_si256::<0x11>(block_max, block_max),
        );
        let iy = _mm256_adds_epi16(u, carry.iy_slope);
        let from_iy = _mm256_cmpgt_epi16(iy, t);
        let iy_extends = _mm256_cmpgt_epi16(u, v);
        let h = _mm256_max_epi16(iy, t);

        // `pass_b_running_max`'s flags: H's source is 2 if from Iy, else
        // pass A's bit 0; bit 2 is Ix extended, bit 3 Iy extended.
        let [b0, b1, b2, b3] = self.bits;
        let flags = _mm256_or_si256(
            _mm256_or_si256(
                _mm256_and_si256(_mm256_andnot_si256(from_iy, from_ix), b0),
                _mm256_and_si256(from_iy, b1),
            ),
            _mm256_or_si256(
                _mm256_and_si256(ix_extends, b2),
                _mm256_and_si256(iy_extends, b3),
            ),
        );
        // Each half's eight words to bytes (twice over), then the two
        // halves' low quadwords side by side.
        let packed = _mm256_permute4x64_epi64::<0b1000>(_mm256_packs_epi16(flags, flags));
        let mut bytes = [0u8; LANES];
        // SAFETY: `bytes` is sixteen writable bytes, and `storeu` has no
        // alignment requirement.
        unsafe { _mm_storeu_si128(bytes.as_mut_ptr().cast(), _mm256_castsi256_si128(packed)) };

        carry.w_prev = w;
        carry.w_slope = _mm256_add_epi16(carry.w_slope, self.w_step);
        carry.iy_slope = _mm256_add_epi16(carry.iy_slope, self.iy_step);
        (h, gap, bytes)
    }

    /// One DP row for `gap_open <= 0`: from `rows`' previous row, computed in
    /// its frame, into its current row minus `shift`, equal bit for bit to
    /// `pass_a` followed by `pass_b_running_max` over the same values (module
    /// docs): the row's `H` and `Ix` from band cell `row.clo` on, `flags` its
    /// traceback bits. `prof` holds the query base's substitution score for
    /// each of the row's columns.
    ///
    /// The row runs in blocks of sixteen cells, the last one possibly
    /// partial: it reads up to fifteen entries past the row's end in each
    /// input — what they hold does not matter, since no lane feeds a lane to
    /// its left — and writes nothing past it. [`fill_narrow`] checks once per
    /// alignment that the profile is long enough, and `fill`'s row size
    /// gives every other operand its last block.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(super) fn row(
        &self,
        prof: &[i16],
        rows: &mut Rows<i16>,
        row: Row,
        shift: i16,
        flags: &mut [u8],
    ) {
        let blocks = row.len.div_ceil(LANES);
        let prev = row.clo + row.step;
        let (h_diag, _) = rows.h_prev[prev..].as_chunks::<LANES>();
        let (h_up, _) = rows.h_prev[prev + 1..].as_chunks::<LANES>();
        let (ix_up, _) = rows.ix_prev[prev + 1..].as_chunks::<LANES>();
        let (sub, _) = prof.as_chunks::<LANES>();
        let (h, _) = rows.h_curr[1 + row.clo..].as_chunks_mut::<LANES>();
        let (ix, _) = rows.ix_curr[1 + row.clo..].as_chunks_mut::<LANES>();
        // Cut to `blocks` once, so the loop indexes without checks.
        let (h_diag, h_up, ix_up, sub) = (
            &h_diag[..blocks],
            &h_up[..blocks],
            &ix_up[..blocks],
            &sub[..blocks],
        );
        let (h, ix) = (&mut h[..blocks], &mut ix[..blocks]);
        let (whole, tail) = flags.as_chunks_mut::<LANES>();

        let shift = _mm256_set1_epi16(shift);
        let mut carry = Carry {
            w_prev: self.neg,
            run: self.neg,
            w_slope: self.w_slope,
            iy_slope: self.iy_slope,
        };
        // The lanes of a partial last block that are the row's.
        let keep = _mm256_cmpgt_epi16(_mm256_set1_epi16(tail.len() as i16), self.lane);
        let mut tail_bytes = [0u8; LANES];
        for b in 0..blocks {
            let (hv, ixv, bytes) = self.block(&mut carry, &h_diag[b], &h_up[b], &ix_up[b], &sub[b]);
            let (hv, ixv) = (_mm256_subs_epi16(hv, shift), _mm256_subs_epi16(ixv, shift));
            if b < whole.len() {
                store16(&mut h[b], hv);
                store16(&mut ix[b], ixv);
                whole[b] = bytes;
            } else {
                // Cells past the row's end keep what they hold: `fill` never
                // clears a row, and relies on the cells beyond the clip
                // staying `NEG`.
                let (h, ix) = (&mut h[b], &mut ix[b]);
                store16(h, _mm256_blendv_epi8(load16(h), hv, keep));
                store16(ix, _mm256_blendv_epi8(load16(ix), ixv, keep));
                tail_bytes = bytes;
            }
        }
        // The tail's flag bytes in at most four fixed-size copies.
        let mut at = 0;
        for piece in [8, 4, 2, 1] {
            if tail.len() & piece != 0 {
                tail[at..at + piece].copy_from_slice(&tail_bytes[at..at + piece]);
                at += piece;
            }
        }
    }
}

/// [`fill`] over the scratch's `i16` rows with the AVX2 row, for a band whose
/// spread bound fits (module docs) under `gap_open <= 0`, on the score
/// profile [`AlignScratch::load_profile`] laid down. The whole row loop is
/// compiled for AVX2, so the row inlines into it and the [`Kernel`] is built
/// once per alignment.
///
/// # Panics
///
/// Panics unless the profile holds four rows of the window's length plus
/// [`SLACK`], which with `fill`'s row size gives every row's last block its
/// operands.
#[target_feature(enable = "avx2")]
pub(super) fn fill_narrow(
    s: &mut AlignScratch,
    tb: &mut [u8],
    p: &AlignmentParams,
    band: &Band,
) -> (usize, i32) {
    let stride = s.r.len();
    assert!(
        stride == band.m + 1 + SLACK && s.prof.len() == 4 * stride,
        "a window of {} columns needs a profile of 4 × {} entries, not {}",
        band.m + 1,
        band.m + 1 + SLACK,
        s.prof.len()
    );
    let kernel = Kernel::new(p);
    let (q, prof) = (&s.q, &s.prof);
    fill(
        &mut s.narrow,
        &s.base,
        tb,
        p,
        band,
        |rows, row, shift, flags| {
            let qb = usize::from(q[row.i - 1]);
            let prof = &prof[qb * stride + row.lo..(qb + 1) * stride];
            kernel.row(prof, rows, row, shift, flags)
        },
    )
}
