//! The 64-state DP row with the `i16` score row held in four `__m256i` for
//! the whole chunk (see the parent module's docs for the fixed-point model,
//! the one-row-late renormalisation, the bound that keeps every lane inside
//! `i16`, and the records the traceback decides on).
//!
//! Every intrinsic that takes values only is safe inside an
//! `#[target_feature(enable = "avx2")]` function; the ones that touch memory
//! take pointers to fixed-size arrays whose *types* carry the length the
//! access needs, so [`bins`] and [`rows`] cut their slices into such arrays
//! and contain no pointer arithmetic.

use super::{FixedPointModel, K3_STATES as STATES};
use std::arch::x86_64::*;

/// `i16` lanes of a `__m256i`: the 16 states of a quarter, or the 16 group
/// maxima of a row.
const LANES: usize = 16;
/// Vectors in a score row: one per quarter.
const QUARTERS: usize = STATES / LANES;

#[inline]
#[target_feature(enable = "avx2")]
fn load(src: &[i16; LANES]) -> __m256i {
    // SAFETY: `src` is sixteen readable `i16`s by its type, and `loadu` has
    // no alignment requirement.
    unsafe { _mm256_loadu_si256(src.as_ptr().cast()) }
}

#[inline]
#[target_feature(enable = "avx2")]
fn store(dst: &mut [i16; LANES], v: __m256i) {
    // SAFETY: `dst` is sixteen writable `i16`s by its type, and `storeu` has
    // no alignment requirement.
    unsafe { _mm256_storeu_si256(dst.as_mut_ptr().cast(), v) }
}

/// [`FixedPointModel::bin`] of every sample of `samples` into `bins`, sixteen
/// at a time. On `[0, BINS − 1]` truncation is what the scalar `as` does, and
/// the clamp puts every `f32` there as the scalar bin does: `max_ps` keeps its
/// second operand when either is NaN, so NaN goes to 0 (and so does the NaN
/// `(x − origin) · ∞` of a model whose bins are infinitely narrow), −∞ and
/// every negative to 0, +∞ and everything past the span to the last bin.
/// The tail goes through the scalar `bin`.
///
/// # Panics
///
/// Panics unless `bins` is as long as `samples`.
#[target_feature(enable = "avx2")]
pub(super) fn bins(model: &FixedPointModel, samples: &[f32], bins: &mut [u16]) {
    assert_eq!(samples.len(), bins.len());
    let origin = _mm256_set1_ps(model.origin);
    let scale = _mm256_set1_ps(model.bins_per_pa);
    let last = _mm256_set1_ps((FixedPointModel::BINS - 1) as f32);
    let bin = |x: &[f32; 8]| {
        // SAFETY: `x` is eight readable `f32`s by its type, and `loadu` has
        // no alignment requirement.
        let x = unsafe { _mm256_loadu_ps(x.as_ptr()) };
        let y = _mm256_mul_ps(_mm256_sub_ps(x, origin), scale);
        _mm256_cvttps_epi32(_mm256_min_ps(_mm256_max_ps(y, _mm256_setzero_ps()), last))
    };
    let (xs, x_tail) = samples.as_chunks::<16>();
    let (out, out_tail) = bins.as_chunks_mut::<16>();
    for (xs, out) in xs.iter().zip(out) {
        let (halves, _) = xs.as_chunks::<8>();
        // `packus` interleaves the two inputs' 128-bit halves; the permute
        // puts the sixteen bins back in sample order.
        let packed = _mm256_packus_epi32(bin(&halves[0]), bin(&halves[1]));
        let packed = _mm256_permute4x64_epi64::<0b11_01_10_00>(packed);
        // SAFETY: `out` is sixteen writable `u16`s by its type, and `storeu`
        // has no alignment requirement.
        unsafe { _mm256_storeu_si256(out.as_mut_ptr().cast(), packed) };
    }
    for (bin, &x) in out_tail.iter_mut().zip(x_tail) {
        *bin = model.bin(x) as u16;
    }
}

/// One DP row per sample, from the score row in `prev` (left holding the
/// last one) at `offset`: `bins[i]` is sample `i`'s emission-table bin, and
/// `records[80 i..][..80]` receives its record — the row it started from,
/// then that row's sixteen group maxima. Returns the offset of the last row.
///
/// The renormalisation lag of the portable row's `Lag` lives in registers:
/// the step `O_t − O_{t−1} = m_{t−2} − (O_{t−1} − O_{t−2})`, `m_{t−2}` group
/// 0's maximum of stored row `t − 2` (lane 0 of its pass-1 bests), with both
/// terms broadcast `i16` vectors (the first row of a call has step 0 and the
/// fictitious row before its first a maximum of 0, as `Lag::start` says), and
/// the offset the running `i64` sum of the steps — the same integers, so the
/// same offsets.
///
/// # Panics
///
/// Panics unless the model and `prev` are 64 states wide, and `records`
/// holds exactly one record per bin.
#[target_feature(enable = "avx2")]
pub(super) fn rows(
    model: &FixedPointModel,
    bins: &[u16],
    offset: i64,
    prev: &mut [i16],
    records: &mut [i16],
) -> i64 {
    let (prev, prev_rest) = prev.as_chunks_mut::<LANES>();
    let prev: &mut [[i16; LANES]; QUARTERS] = prev.try_into().expect("a 64-state score row");
    let (records, records_rest) = records.as_chunks_mut::<LANES>();
    let (records, rows_rest) = records.as_chunks_mut::<{ QUARTERS + 1 }>();
    let (table, table_rest) = model.table.as_chunks::<STATES>();
    assert!(prev_rest.is_empty() && records_rest.is_empty() && rows_rest.is_empty());
    assert!(table_rest.is_empty() && model.states() == STATES && records.len() == bins.len());

    // Lane `l` of vector `c` is state `16c + l`, whose group `4c + l / 4` is
    // word `l / 4` of pass 1's qword `c`: broadcast the qword, then repeat
    // each of its words four times (within each 128-bit half, words 0–1 to
    // the low half's lanes and 2–3 to the high half's).
    let expand = _mm256_setr_epi8(
        0, 1, 0, 1, 0, 1, 0, 1, 2, 3, 2, 3, 2, 3, 2, 3, //
        4, 5, 4, 5, 4, 5, 4, 5, 6, 7, 6, 7, 6, 7, 6, 7,
    );
    let log_stay = _mm256_set1_epi16(model.log_stay);
    let log_advance = _mm256_set1_epi16(model.log_advance);

    let mut v = [_mm256_setzero_si256(); QUARTERS];
    for c in 0..QUARTERS {
        v[c] = load(&prev[c]);
    }
    // `O_{t−1} − O_{t−2}` and group 0's maximum of stored row `t − 2`, in
    // every lane.
    let (mut step, mut back_max) = (_mm256_setzero_si256(), _mm256_setzero_si256());
    let mut offset = offset;
    for (&bin, record) in bins.iter().zip(records) {
        step = _mm256_sub_epi16(back_max, step);
        offset += i64::from(_mm_cvtsi128_si32(_mm256_castsi256_si128(step)) as i16);
        let stay_tr = _mm256_sub_epi16(log_stay, step);
        let adv_tr = _mm256_sub_epi16(log_advance, step);

        // The record: the row, then pass 1's bests. Group `g`'s
        // predecessors are lane `g` of the four vectors; lane 0, group 0's
        // best, is the lag's next offset.
        let mut best = v[0];
        for c in 1..QUARTERS {
            best = _mm256_max_epi16(v[c], best);
        }
        for c in 0..QUARTERS {
            store(&mut record[c], v[c]);
        }
        store(&mut record[QUARTERS], best);
        back_max = _mm256_broadcastw_epi16(_mm256_castsi256_si128(best));

        // Pass 2.
        let adv_best = _mm256_add_epi16(best, adv_tr);
        let adv = [
            _mm256_permute4x64_epi64::<0x00>(adv_best),
            _mm256_permute4x64_epi64::<0x55>(adv_best),
            _mm256_permute4x64_epi64::<0xAA>(adv_best),
            _mm256_permute4x64_epi64::<0xFF>(adv_best),
        ];
        let (emit, _) = table[usize::from(bin)].as_chunks::<LANES>();
        for c in 0..QUARTERS {
            let adv = _mm256_shuffle_epi8(adv[c], expand);
            let stay = _mm256_add_epi16(v[c], stay_tr);
            v[c] = _mm256_add_epi16(_mm256_max_epi16(adv, stay), load(&emit[c]));
        }
    }
    for c in 0..QUARTERS {
        store(&mut prev[c], v[c]);
    }
    offset
}
