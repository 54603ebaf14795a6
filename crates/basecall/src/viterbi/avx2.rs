//! The 64-state DP row with the `i16` score row held in four `__m256i` for
//! the whole chunk (see the parent module's docs for the fixed-point model,
//! the one-row-late renormalisation and the bound that keeps every lane
//! inside `i16`).
//!
//! Every intrinsic that takes values only is safe inside an
//! `#[target_feature(enable = "avx2")]` function; the three that touch
//! memory are wrapped below in helpers whose parameter *types* carry the
//! length the access needs, so [`rows`] cuts its slices into fixed-size
//! arrays and contains no pointer arithmetic.

use super::{FixedPointModel, Lag};
use std::arch::x86_64::*;

/// The one state-space size this row is written for (`k = 3`).
pub(super) const STATES: usize = 64;
/// `i16` lanes of a `__m256i`: the 16 states of a quarter.
const LANES: usize = 16;
/// Vectors in a score row: one per quarter.
const QUARTERS: usize = STATES / LANES;
/// Group choices per row (`STATES / 4`).
pub(super) const GROUPS: usize = STATES / 4;

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

#[inline]
#[target_feature(enable = "avx2")]
fn store_choices(dst: &mut [u8; GROUPS], v: __m128i) {
    // SAFETY: `dst` is sixteen writable bytes by its type, and `storeu` has
    // no alignment requirement.
    unsafe { _mm_storeu_si128(dst.as_mut_ptr().cast(), v) }
}

/// The greatest of the sixteen lanes.
#[inline]
#[target_feature(enable = "avx2")]
fn horizontal_max(v: __m256i) -> i16 {
    let m = _mm_max_epi16(_mm256_castsi256_si128(v), _mm256_extracti128_si256::<1>(v));
    // `minpos` finds the least *unsigned* word, and `i16::MAX − m` maps the
    // greatest signed one there (as `u16`, −32 768 to 65 535).
    let flipped = _mm_sub_epi16(_mm_set1_epi16(i16::MAX), m);
    let least = _mm_extract_epi16::<0>(_mm_minpos_epu16(flipped));
    (i32::from(i16::MAX) - least) as i16
}

/// One DP row per sample of `samples`, from the score row in `prev` (left
/// holding the last one) under `lag`: `take[i]` and
/// `group_choice[16 i..][..16]` receive sample `i`'s records. Returns the
/// offset of the last row.
///
/// # Panics
///
/// Panics unless the model and `prev` are 64 states wide, and `take` /
/// `group_choice` hold exactly one record per sample.
#[target_feature(enable = "avx2")]
pub(super) fn rows(
    model: &FixedPointModel,
    samples: &[f32],
    mut lag: Lag,
    prev: &mut [i16],
    take: &mut [u64],
    group_choice: &mut [u8],
) -> i64 {
    let (prev, prev_rest) = prev.as_chunks_mut::<LANES>();
    let prev: &mut [[i16; LANES]; QUARTERS] = prev.try_into().expect("a 64-state score row");
    let (choice_rows, choice_rest) = group_choice.as_chunks_mut::<GROUPS>();
    assert!(prev_rest.is_empty() && choice_rest.is_empty() && model.states() == STATES);
    assert!(take.len() == samples.len() && choice_rows.len() == samples.len());

    // Lane `l` of vector `c` is state `16c + l`, whose group `4c + l / 4` is
    // word `l / 4` of pass 1's qword `c`: broadcast the qword, then repeat
    // each of its words four times (within each 128-bit half, words 0–1 to
    // the low half's lanes and 2–3 to the high half's).
    let expand = _mm256_setr_epi8(
        0, 1, 0, 1, 0, 1, 0, 1, 2, 3, 2, 3, 2, 3, 2, 3, //
        4, 5, 4, 5, 4, 5, 4, 5, 6, 7, 6, 7, 6, 7, 6, 7,
    );
    let quarter_tags = [
        _mm256_set1_epi16(2),
        _mm256_set1_epi16(3),
        _mm256_set1_epi16(4),
    ];

    let mut v = [_mm256_setzero_si256(); QUARTERS];
    for c in 0..QUARTERS {
        v[c] = load(&prev[c]);
    }
    for ((&x, take), choice_row) in samples.iter().zip(take).zip(choice_rows) {
        let (stay_tr, adv_tr) = lag.transitions(model);

        // Pass 1: group `g`'s predecessors are lane `g` of the four
        // vectors; strict `>` keeps the lowest quarter on ties, as the
        // portable row does. The bests cover every state, so their maximum
        // is the row's, for the lag.
        let mut best = v[0];
        let mut choice = _mm256_set1_epi16(1);
        for c in 1..QUARTERS {
            let better = _mm256_cmpgt_epi16(v[c], best);
            choice = _mm256_blendv_epi8(choice, quarter_tags[c - 1], better);
            best = _mm256_max_epi16(v[c], best);
        }
        lag.push(horizontal_max(best));
        // Words to bytes: each 128-bit half packs its eight choices twice;
        // qwords 0 and 2 are groups 0–7 and 8–15.
        let bytes = _mm256_packs_epi16(choice, choice);
        let bytes = _mm256_permute4x64_epi64::<0b00_00_10_00>(bytes);
        store_choices(choice_row, _mm256_castsi256_si128(bytes));

        // Pass 2.
        let adv_best = _mm256_add_epi16(best, _mm256_set1_epi16(adv_tr));
        let adv = [
            _mm256_permute4x64_epi64::<0x00>(adv_best),
            _mm256_permute4x64_epi64::<0x55>(adv_best),
            _mm256_permute4x64_epi64::<0xAA>(adv_best),
            _mm256_permute4x64_epi64::<0xFF>(adv_best),
        ];
        let stay_tr = _mm256_set1_epi16(stay_tr);
        let (emit, _) = model.emissions(x).as_chunks::<LANES>();
        let emit: &[[i16; LANES]; QUARTERS] = emit.try_into().expect("64 emissions");
        let mut took = [_mm256_setzero_si256(); QUARTERS];
        for c in 0..QUARTERS {
            let adv = _mm256_shuffle_epi8(adv[c], expand);
            let stay = _mm256_add_epi16(v[c], stay_tr);
            took[c] = _mm256_cmpgt_epi16(adv, stay);
            v[c] = _mm256_add_epi16(_mm256_max_epi16(adv, stay), load(&emit[c]));
        }
        // Masks to bits: `packs` interleaves two vectors' halves, and the
        // qword permute puts states back in order before `movemask`.
        let low = _mm256_packs_epi16(took[0], took[1]);
        let high = _mm256_packs_epi16(took[2], took[3]);
        let low = _mm256_movemask_epi8(_mm256_permute4x64_epi64::<0b11_01_10_00>(low)) as u32;
        let high = _mm256_movemask_epi8(_mm256_permute4x64_epi64::<0b11_01_10_00>(high)) as u32;
        *take = u64::from(low) | u64::from(high) << 32;
    }
    for c in 0..QUARTERS {
        store(&mut prev[c], v[c]);
    }
    lag.offset()
}
