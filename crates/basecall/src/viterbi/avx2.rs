//! The 64-state DP row with the score row held in eight `__m256` for the
//! whole chunk and the emission MVM computed in-register (see the parent
//! module's docs for why the row has to be register-resident and why every
//! value equals the portable row's bit for bit).
//!
//! Every intrinsic that takes values only is safe inside an
//! `#[target_feature(enable = "avx2")]` function; the three that touch
//! memory are wrapped below in helpers whose parameter *types* carry the
//! length the access needs, so [`rows`] cuts its slices into fixed-size
//! arrays once per decode and contains no pointer arithmetic.

use super::Transitions;
use std::arch::x86_64::*;

/// The one state-space size this row is written for (`k = 3`).
pub(super) const STATES: usize = 64;
/// `f32` lanes of a `__m256`, and — at 64 states — vectors in a score row.
const LANES: usize = 8;
/// Group choices per row (`STATES / 4`).
pub(super) const GROUPS: usize = STATES / 4;

#[inline]
#[target_feature(enable = "avx2")]
fn load8(src: &[f32; LANES]) -> __m256 {
    // SAFETY: `src` is eight readable `f32`s by its type, and `loadu` has no
    // alignment requirement.
    unsafe { _mm256_loadu_ps(src.as_ptr()) }
}

#[inline]
#[target_feature(enable = "avx2")]
fn store8(dst: &mut [f32; LANES], v: __m256) {
    // SAFETY: `dst` is eight writable `f32`s by its type, and `storeu` has
    // no alignment requirement.
    unsafe { _mm256_storeu_ps(dst.as_mut_ptr(), v) }
}

#[inline]
#[target_feature(enable = "avx2")]
fn store16(dst: &mut [u8; GROUPS], v: __m128i) {
    // SAFETY: `dst` is sixteen writable bytes by its type, and `storeu` has
    // no alignment requirement.
    unsafe { _mm_storeu_si128(dst.as_mut_ptr().cast(), v) }
}

/// One DP row per sample of `samples`, from the score row in `prev` (left
/// holding the last one): `take[i]` and `group_choice[16 i..][..16]` receive
/// sample `i`'s records, and its emissions are computed on the way from
/// `columns` (`[w0 × 64 | w1 × 64 | w2 × 64]`) as `(w0·x² + w1·x) + w2` —
/// `EmissionModel::log_likelihoods`' two multiplies and two adds, in its
/// order, never fused.
///
/// # Panics
///
/// Panics unless `prev` is 64 wide, `columns` 3 × 64, and `take` /
/// `group_choice` hold exactly one record per sample.
#[target_feature(enable = "avx2")]
pub(super) fn rows(
    columns: &[f32],
    samples: &[f32],
    tr: Transitions,
    prev: &mut [f32],
    take: &mut [u64],
    group_choice: &mut [u8],
) {
    let (weights, rest) = columns.as_chunks::<LANES>();
    let weights: &[[f32; LANES]; 3 * LANES] = weights.try_into().expect("3 × 64 weights");
    let (w0, w1, w2) = (
        &weights[..LANES],
        &weights[LANES..2 * LANES],
        &weights[2 * LANES..],
    );
    let (prev, prev_rest) = prev.as_chunks_mut::<LANES>();
    let prev: &mut [[f32; LANES]; LANES] = prev.try_into().expect("a 64-state score row");
    let (choice_rows, choice_rest) = group_choice.as_chunks_mut::<GROUPS>();
    assert!(rest.is_empty() && prev_rest.is_empty() && choice_rest.is_empty());
    assert!(take.len() == samples.len() && choice_rows.len() == samples.len());

    let log_stay = _mm256_set1_ps(tr.log_stay);
    let log_advance = _mm256_set1_ps(tr.log_advance);
    // Lane `l` of score vector `j` is state `8j + l`, whose predecessor
    // group `2j + l / 4` sits in lane `2 (j % 4) + l / 4` of the low
    // (j < 4) or high half of pass 1's result.
    let expand = [
        _mm256_setr_epi32(0, 0, 0, 0, 1, 1, 1, 1),
        _mm256_setr_epi32(2, 2, 2, 2, 3, 3, 3, 3),
        _mm256_setr_epi32(4, 4, 4, 4, 5, 5, 5, 5),
        _mm256_setr_epi32(6, 6, 6, 6, 7, 7, 7, 7),
    ];
    // Dwords of the twice-packed choices, back in group order.
    let natural = _mm256_setr_epi32(0, 4, 1, 5, 0, 0, 0, 0);

    let mut v = [_mm256_setzero_ps(); LANES];
    for j in 0..LANES {
        v[j] = load8(&prev[j]);
    }
    for ((&x, take), choice_row) in samples.iter().zip(take).zip(choice_rows) {
        // Pass 1: quarter `c` of the row is vectors `2c` (groups 0..8) and
        // `2c + 1` (groups 8..16). `max_ps(v, best)` returns its *second*
        // operand unless `v > best`, which is the portable row's
        // `if v > best { v } else { best }` on ties, NaN and `-inf` alike;
        // the compare and blend feed only the stored choice.
        let (mut best_lo, mut best_hi) = (v[0], v[1]);
        let (mut choice_lo, mut choice_hi) = (_mm256_set1_epi32(1), _mm256_set1_epi32(1));
        for c in 1..4 {
            let quarter = _mm256_set1_epi32(c as i32 + 1);
            let better = _mm256_cmp_ps::<_CMP_GT_OQ>(v[2 * c], best_lo);
            choice_lo = _mm256_blendv_epi8(choice_lo, quarter, _mm256_castps_si256(better));
            best_lo = _mm256_max_ps(v[2 * c], best_lo);
            let better = _mm256_cmp_ps::<_CMP_GT_OQ>(v[2 * c + 1], best_hi);
            choice_hi = _mm256_blendv_epi8(choice_hi, quarter, _mm256_castps_si256(better));
            best_hi = _mm256_max_ps(v[2 * c + 1], best_hi);
        }
        let adv = [
            _mm256_add_ps(best_lo, log_advance),
            _mm256_add_ps(best_hi, log_advance),
        ];
        let words = _mm256_packs_epi32(choice_lo, choice_hi);
        let bytes = _mm256_permutevar8x32_epi32(_mm256_packs_epi16(words, words), natural);
        store16(choice_row, _mm256_castsi256_si128(bytes));

        // Pass 2, the emission computed beside it.
        let (x1, x2) = (_mm256_set1_ps(x), _mm256_set1_ps(x * x));
        let mut bits = 0u64;
        for j in 0..LANES {
            let emit = _mm256_add_ps(
                _mm256_add_ps(
                    _mm256_mul_ps(load8(&w0[j]), x2),
                    _mm256_mul_ps(load8(&w1[j]), x1),
                ),
                load8(&w2[j]),
            );
            let adv = _mm256_permutevar8x32_ps(adv[j / 4], expand[j % 4]);
            let stay = _mm256_add_ps(v[j], log_stay);
            let took = _mm256_cmp_ps::<_CMP_GT_OQ>(adv, stay);
            bits |= (_mm256_movemask_ps(took) as u64) << (LANES * j);
            v[j] = _mm256_add_ps(_mm256_max_ps(adv, stay), emit);
        }
        *take = bits;
    }
    for j in 0..LANES {
        store8(&mut prev[j], v[j]);
    }
}
