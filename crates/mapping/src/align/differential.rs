//! Differential suite: the band-relative kernel must return the same
//! [`Alignment`] as the first-draft scalar kernel — score, CIGAR, matches,
//! columns **and** the `cells` cost-model counter — on every geometry and
//! every tie, through the dispatched entry ([`banded_global`], the `i16`
//! AVX2 row where the host has it and the band's bound allows), the fill
//! with the portable row body and the fill with the `i32` AVX2 row the
//! `i16` one replaced; and, for bands that are not straight, the same
//! [`Alignment`] as a full-matrix Gotoh masked by the same table of row
//! origins. The `i16` row is also held to the portable one row by row, from
//! previous rows no alignment produces, and bands whose spread bound sits
//! at the `i16` rows' limit and one past it are held to the masked Gotoh.

use super::{
    banded_global, fill_dispatch, fill_portable, spread_bound, wide_band_fallbacks, AlignScratch,
    Alignment, AlignmentParams, Band, CigarOp, MAX_BOUND,
};
use genpip_genomics::rng::{seeded, Rng, SeededRng};
use genpip_genomics::{Base, DnaSeq, ErrorModel};

/// The first-draft scalar banded Gotoh kernel, kept test-only as the
/// independent oracle: absolute-`j` rows of `m + 1` cells, a range check per
/// neighbour, one branch per tie rule. The body is the shipped
/// `banded_global` as of PR 14, verbatim.
fn naive_banded_global(
    query: &DnaSeq,
    reference: &DnaSeq,
    params: &AlignmentParams,
    band_center: i64,
    band_halfwidth: usize,
) -> Alignment {
    let q: Vec<Base> = query.to_bases();
    let r: Vec<Base> = reference.to_bases();
    let (n, m) = (q.len(), r.len());

    // Widen the band to keep (0,0) and (n,m) inside it.
    let need_start = band_center.unsigned_abs() as usize;
    let need_end = (m as i64 - n as i64 - band_center).unsigned_abs() as usize;
    let hw = band_halfwidth.max(need_start).max(need_end) + 1;
    let width = 2 * hw + 1;

    const NEG: i32 = i32::MIN / 4;
    let lo_of = |i: usize| -> usize {
        let lo = i as i64 + band_center - hw as i64;
        lo.clamp(0, m as i64) as usize
    };
    let hi_of = |i: usize| -> usize {
        let hi = i as i64 + band_center + hw as i64;
        hi.clamp(0, m as i64) as usize
    };

    // Rolling rows indexed by (j - lo) would complicate window shifts; rows
    // are short (≤ width), so index them by absolute j with reallocation-free
    // window slices.
    let mut h_prev = vec![NEG; m + 1];
    let mut ix_prev = vec![NEG; m + 1];
    let mut iy_prev = vec![NEG; m + 1];
    let mut h_curr = vec![NEG; m + 1];
    let mut ix_curr = vec![NEG; m + 1];
    let mut iy_curr = vec![NEG; m + 1];

    // Traceback: per cell, bits 0..1 = H source (0 diag, 1 Ix, 2 Iy, 3 origin),
    // bit 2 = Ix extended, bit 3 = Iy extended.
    let mut tb = vec![0u8; (n + 1) * width];
    let tb_index = |i: usize, j: usize, lo: usize| i * width + (j - lo);

    let mut cells = 0usize;

    // Row 0: leading deletions.
    {
        let lo = lo_of(0);
        let hi = hi_of(0);
        h_prev[0] = 0;
        tb[tb_index(0, 0, lo)] = 3;
        for j in 1..=hi {
            iy_prev[j] = params.gap_open + params.gap_extend * j as i32;
            h_prev[j] = iy_prev[j];
            let mut flags = 2u8; // H from Iy
            if j > 1 {
                flags |= 0b1000; // Iy extended
            }
            tb[tb_index(0, j, lo)] = flags;
            cells += 1;
        }
    }

    for i in 1..=n {
        let lo = lo_of(i);
        let hi = hi_of(i);
        let prev_lo = lo_of(i - 1);
        let prev_hi = hi_of(i - 1);
        for j in lo..=hi {
            h_curr[j] = NEG;
            ix_curr[j] = NEG;
            iy_curr[j] = NEG;
        }
        for j in lo..=hi {
            cells += 1;
            let mut flags = 0u8;

            // Ix: consume a query base (gap in reference).
            let up_ok = (prev_lo..=prev_hi).contains(&j);
            let ix = if up_ok {
                let open = h_prev[j] + params.gap_open + params.gap_extend;
                let extend = ix_prev[j] + params.gap_extend;
                if extend > open {
                    flags |= 0b0100;
                    extend
                } else {
                    open
                }
            } else {
                NEG
            };
            ix_curr[j] = ix;

            // Iy: consume a reference base (gap in query).
            let iy = if j > lo {
                let open = h_curr[j - 1] + params.gap_open + params.gap_extend;
                let extend = iy_curr[j - 1] + params.gap_extend;
                if extend > open {
                    flags |= 0b1000;
                    extend
                } else {
                    open
                }
            } else {
                NEG
            };
            iy_curr[j] = iy;

            // H: diagonal, or close a gap.
            let diag_ok = j >= 1 && (prev_lo..=prev_hi).contains(&(j - 1));
            let diag = if diag_ok {
                let s = if q[i - 1] == r[j - 1] {
                    params.match_score
                } else {
                    params.mismatch
                };
                h_prev[j - 1] + s
            } else {
                NEG
            };
            let mut h = diag;
            let mut src = 0u8;
            if ix > h {
                h = ix;
                src = 1;
            }
            if iy > h {
                h = iy;
                src = 2;
            }
            h_curr[j] = h;
            tb[tb_index(i, j, lo)] = flags | src;
        }
        std::mem::swap(&mut h_prev, &mut h_curr);
        std::mem::swap(&mut ix_prev, &mut ix_curr);
        std::mem::swap(&mut iy_prev, &mut iy_curr);
    }

    let score = h_prev[m];

    // Traceback.
    let mut ops_rev: Vec<(u8, u32)> = Vec::new(); // (kind: 0=M,1=I,2=D, len)
    let push = |kind: u8, ops_rev: &mut Vec<(u8, u32)>| {
        if let Some(last) = ops_rev.last_mut() {
            if last.0 == kind {
                last.1 += 1;
                return;
            }
        }
        ops_rev.push((kind, 1));
    };
    let mut matches = 0usize;
    let (mut i, mut j) = (n, m);
    // Which matrix we are currently in: 0=H, 1=Ix, 2=Iy.
    let mut state = 0u8;
    while i > 0 || j > 0 {
        let lo = lo_of(i);
        let flags = tb[tb_index(i, j, lo)];
        match state {
            0 => {
                let src = flags & 0b11;
                match src {
                    0 => {
                        // Diagonal step.
                        push(0, &mut ops_rev);
                        if query.get(i - 1) == reference.get(j - 1) {
                            matches += 1;
                        }
                        i -= 1;
                        j -= 1;
                    }
                    1 => state = 1,
                    2 => state = 2,
                    _ => break, // origin
                }
            }
            1 => {
                push(1, &mut ops_rev);
                let extended = flags & 0b0100 != 0;
                i -= 1;
                state = if extended { 1 } else { 0 };
            }
            _ => {
                push(2, &mut ops_rev);
                let extended = flags & 0b1000 != 0;
                j -= 1;
                state = if extended { 2 } else { 0 };
            }
        }
    }
    ops_rev.reverse();
    let mut columns = 0usize;
    let cigar: Vec<CigarOp> = ops_rev
        .into_iter()
        .map(|(kind, len)| {
            columns += len as usize;
            match kind {
                0 => CigarOp::Match(len),
                1 => CigarOp::Ins(len),
                _ => CigarOp::Del(len),
            }
        })
        .collect();

    Alignment {
        score,
        cigar,
        matches,
        columns,
        cells,
    }
}

/// Default scoring, the two other non-positive `gap_open` values (0 is the
/// case where extending a horizontal gap never beats re-opening it), and a
/// positive `gap_open`, which must take the sequential pass B.
const PARAMS: [AlignmentParams; 4] = [
    AlignmentParams {
        match_score: 2,
        mismatch: -4,
        gap_open: -4,
        gap_extend: -2,
    },
    AlignmentParams {
        match_score: 1,
        mismatch: -1,
        gap_open: -1,
        gap_extend: -1,
    },
    AlignmentParams {
        match_score: 2,
        mismatch: -3,
        gap_open: 0,
        gap_extend: -2,
    },
    AlignmentParams {
        match_score: 2,
        mismatch: -4,
        gap_open: 3,
        gap_extend: -5,
    },
];

/// [`banded_global`] through one fill entry.
fn entry_banded_global(
    q: &DnaSeq,
    r: &DnaSeq,
    p: &AlignmentParams,
    center: i64,
    hw: usize,
    fill: Fill,
) -> Alignment {
    let mut scratch = AlignScratch::new();
    scratch.load(q, r, 0..r.len(), false);
    let band = scratch.prepare(center, hw);
    let mut tb = band.traceback_matrix(q.len());
    let (cells, score) = fill(&mut scratch, &mut tb, p, &band);
    scratch.finish(&tb, &band, cells, score)
}

/// The fill entries every alignment is run through besides the dispatched
/// one: the portable row, and the `i32` AVX2 row where the host has AVX2
/// and the scoring allows it.
fn entries(p: &AlignmentParams) -> Vec<(&'static str, Fill)> {
    let mut entries: Vec<(&'static str, Fill)> = vec![("portable", fill_portable)];
    #[cfg(target_arch = "x86_64")]
    if p.gap_open <= 0 && std::arch::is_x86_feature_detected!("avx2") {
        entries.push(("i32 AVX2", fill_wide_avx2));
    }
    entries
}

fn assert_same(q: &DnaSeq, r: &DnaSeq, p: &AlignmentParams, center: i64, hw: usize, what: &str) {
    let want = naive_banded_global(q, r, p, center, hw);
    let mut got = vec![("dispatched", banded_global(q, r, p, center, hw))];
    for (entry, fill) in entries(p) {
        got.push((entry, entry_banded_global(q, r, p, center, hw, fill)));
    }
    for (entry, got) in got {
        assert_eq!(
            got,
            want,
            "{what} ({entry}): n {} m {} center {center} hw {hw} {p:?}\nq {q}\nr {r}",
            q.len(),
            r.len()
        );
    }
}

fn random_seq(rng: &mut SeededRng, len: usize) -> DnaSeq {
    (0..len)
        .map(|_| Base::from_code(rng.random_range(0..4u8)))
        .collect()
}

/// `len` bases cycling through `unit`: a homopolymer or a short tandem
/// repeat, where many alignments tie.
fn repeat_seq(unit: &[Base], len: usize) -> DnaSeq {
    unit.iter().copied().cycle().take(len).collect()
}

/// A band centre on, off, or well beyond the `m - n` diagonal, either sign.
fn random_center(rng: &mut SeededRng, n: usize, m: usize) -> i64 {
    let end = m as i64 - n as i64;
    match rng.random_range(0..4u8) {
        0 => 0,
        1 => end,
        2 => rng.random_range(-12..=12i64),
        _ => end + rng.random_range(-40..=40i64),
    }
}

#[test]
fn noisy_copies_agree_on_every_geometry() {
    for case in 0..400u64 {
        let mut rng = seeded(0xD1FF ^ case);
        let n = match case % 8 {
            0 => rng.random_range(0..=1usize),
            _ => rng.random_range(2..260usize),
        };
        let truth = random_seq(&mut rng, n);
        let rate = rng.random_range(0..=30u32) as f64 / 100.0;
        let (mut query, _) = ErrorModel::with_total_rate(rate).apply(&truth, &mut rng);
        // Windows shorter and longer than the query: trim or pad the truth.
        let window = match rng.random_range(0..3u8) {
            0 => truth.clone(),
            1 => truth.subseq(0, n - rng.random_range(0..=n.min(30))),
            _ => {
                let (left, right) = (rng.random_range(0..30usize), rng.random_range(0..30usize));
                let mut padded = random_seq(&mut rng, left);
                padded.extend_from_seq(&truth);
                padded.extend_from_seq(&random_seq(&mut rng, right));
                padded
            }
        };
        if case % 16 == 1 {
            query = DnaSeq::new();
        }
        let center = random_center(&mut rng, query.len(), window.len());
        let hw = rng.random_range(0..=80usize);
        let p = &PARAMS[(case % 4) as usize];
        assert_same(&query, &window, p, center, hw, "noisy copy");
    }
}

#[test]
fn unrelated_sequences_agree() {
    for case in 0..120u64 {
        let mut rng = seeded(0xA11E ^ case);
        let (n, m) = (rng.random_range(0..120usize), rng.random_range(0..120usize));
        let q = random_seq(&mut rng, n);
        let r = random_seq(&mut rng, m);
        let center = random_center(&mut rng, q.len(), r.len());
        let hw = rng.random_range(0..=80usize);
        assert_same(
            &q,
            &r,
            &PARAMS[(case % 4) as usize],
            center,
            hw,
            "unrelated",
        );
    }
}

#[test]
fn tie_heavy_repeats_agree() {
    use Base::{A, C, G, T};
    let units: [&[Base]; 5] = [&[A], &[T], &[A, C], &[G, T], &[A, A, C]];
    for case in 0..200u64 {
        let mut rng = seeded(0x71E5 ^ case);
        let unit = units[rng.random_range(0..units.len())];
        let n = rng.random_range(0..90usize);
        let m = rng.random_range(0..90usize);
        let mut q = repeat_seq(unit, n).to_bases();
        let r = repeat_seq(unit, m);
        // A few point edits so gaps have somewhere to compete with
        // mismatches, without breaking the repeat's ties.
        for _ in 0..rng.random_range(0..4u8) {
            if n > 0 {
                let at = rng.random_range(0..n);
                q[at] = Base::from_code(rng.random_range(0..4u8));
            }
        }
        let q = DnaSeq::from(q.as_slice());
        let center = random_center(&mut rng, n, m);
        let hw = rng.random_range(0..=80usize);
        for p in &PARAMS {
            assert_same(&q, &r, p, center, hw, "repeat");
        }
    }
}

#[test]
fn pipeline_sized_pair_agrees() {
    // The geometry `Mapper::finalize_mapping` produces: a few kilobases at a
    // few percent error, `hw = band_margin + n / 20`.
    let mut rng = seeded(0x3500);
    let truth = random_seq(&mut rng, 3_000);
    let (query, _) = ErrorModel::with_total_rate(0.04).apply(&truth, &mut rng);
    let hw = 32 + query.len() / 20;
    for p in &PARAMS {
        assert_same(&query, &truth, p, 3, hw, "pipeline-sized");
    }
}

/// Full-matrix Gotoh restricted to the band `base[i] ..= base[i] + width - 1`
/// (clipped to `0..=m`) of each row `i`: every cell of the `(n + 1) × (m + 1)`
/// matrices exists, the ones outside the band are never written, and no cell
/// knows how the band is laid out in memory. Tie rules as in
/// [`naive_banded_global`]: a gap extends only when strictly greater than
/// opening, and H prefers the diagonal, then Ix, then Iy.
fn masked_gotoh(
    query: &DnaSeq,
    reference: &DnaSeq,
    p: &AlignmentParams,
    base: &[i64],
    width: usize,
) -> Alignment {
    const NEG: i32 = i32::MIN / 4;
    let (n, m) = (query.len(), reference.len());
    let pairs = |i: usize, j: usize| query.get(i - 1) == reference.get(j - 1);
    let mut h = vec![vec![NEG; m + 1]; n + 1];
    let mut ix = h.clone();
    let mut iy = h.clone();
    // Per cell: H's source (0 diagonal, 1 Ix, 2 Iy), whether Ix extended,
    // whether Iy extended.
    let mut from = vec![vec![(0u8, false, false); m + 1]; n + 1];
    h[0][0] = 0;
    let mut cells = 0usize;
    for i in 0..=n {
        for j in 0..=m {
            let in_band = (0..width as i64).contains(&(j as i64 - base[i]));
            if !in_band || (i, j) == (0, 0) {
                continue;
            }
            cells += 1;
            if i == 0 {
                // Leading deletions are one gap, whatever re-opening would cost.
                iy[0][j] = p.gap_open + p.gap_extend * j as i32;
                h[0][j] = iy[0][j];
                from[0][j] = (2, false, j > 1);
                continue;
            }
            let (mut best, mut source) = (NEG, 0u8);
            if j > 0 {
                let pair = if pairs(i, j) {
                    p.match_score
                } else {
                    p.mismatch
                };
                best = h[i - 1][j - 1] + pair;
            }
            let open = h[i - 1][j] + p.gap_open + p.gap_extend;
            let extend = ix[i - 1][j] + p.gap_extend;
            from[i][j].1 = extend > open;
            ix[i][j] = open.max(extend);
            if ix[i][j] > best {
                (best, source) = (ix[i][j], 1);
            }
            if j > 0 {
                let open = h[i][j - 1] + p.gap_open + p.gap_extend;
                let extend = iy[i][j - 1] + p.gap_extend;
                from[i][j].2 = extend > open;
                iy[i][j] = open.max(extend);
                if iy[i][j] > best {
                    (best, source) = (iy[i][j], 2);
                }
            }
            h[i][j] = best;
            from[i][j].0 = source;
        }
    }

    let mut runs: Vec<CigarOp> = Vec::new();
    let (mut matches, mut columns) = (0usize, 0usize);
    let (mut i, mut j, mut state) = (n, m, 0u8);
    while (i, j) != (0, 0) {
        columns += 1;
        let (source, ix_extended, iy_extended) = from[i][j];
        if state == 0 {
            state = source;
        }
        let step = match state {
            0 => {
                matches += pairs(i, j) as usize;
                (i, j) = (i - 1, j - 1);
                CigarOp::Match(1)
            }
            1 => {
                i -= 1;
                state = ix_extended as u8;
                CigarOp::Ins(1)
            }
            _ => {
                j -= 1;
                state = 2 * iy_extended as u8;
                CigarOp::Del(1)
            }
        };
        match (runs.last_mut(), step) {
            (Some(CigarOp::Match(len)), CigarOp::Match(_))
            | (Some(CigarOp::Ins(len)), CigarOp::Ins(_))
            | (Some(CigarOp::Del(len)), CigarOp::Del(_)) => *len += 1,
            _ => runs.push(step),
        }
    }
    runs.reverse();
    Alignment {
        score: h[n][m],
        cigar: runs,
        matches,
        columns,
        cells,
    }
}

type Fill = fn(&mut AlignScratch, &mut [u8], &AlignmentParams, &Band) -> (usize, i32);

/// Runs one fill entry over a band given as a table.
fn table_global(
    q: &DnaSeq,
    r: &DnaSeq,
    p: &AlignmentParams,
    base: &[i64],
    width: usize,
    fill: Fill,
) -> Alignment {
    let mut scratch = AlignScratch::new();
    scratch.load(q, r, 0..r.len(), false);
    scratch.base.extend_from_slice(base);
    let band = scratch.size_rows(width);
    let mut tb = band.traceback_matrix(q.len());
    let (cells, score) = fill(&mut scratch, &mut tb, p, &band);
    scratch.finish(&tb, &band, cells, score)
}

fn assert_same_table(q: &DnaSeq, r: &DnaSeq, p: &AlignmentParams, base: &[i64], width: usize) {
    let want = masked_gotoh(q, r, p, base, width);
    for (entry, fill) in [("dispatched", fill_dispatch as Fill)]
        .into_iter()
        .chain(entries(p))
    {
        assert_eq!(
            table_global(q, r, p, base, width, fill),
            want,
            "({entry}): n {} m {} width {width} {p:?}\nbase {base:?}\nq {q}\nr {r}",
            q.len(),
            r.len()
        );
    }
}

/// A window of `m` bases for `query`: a noisy copy of it, cut or padded with
/// random bases at the far end — or, one time in four, a tie-heavy repeat.
fn window_for(rng: &mut SeededRng, query: &DnaSeq, m: usize) -> DnaSeq {
    if rng.random_range(0..4u8) == 0 {
        return repeat_seq(&[Base::A, Base::C], m);
    }
    let rate = rng.random_range(0..=25u32) as f64 / 100.0;
    let (mut window, _) = ErrorModel::with_total_rate(rate).apply(query, rng);
    if window.len() < m {
        window.extend_from_seq(&random_seq(rng, m - window.len()));
    }
    window.subseq(0, m)
}

#[test]
fn random_tables_agree_with_the_masked_full_matrix() {
    for case in 0..1_200u64 {
        let mut rng = seeded(0x7AB1E ^ case);
        let n = match case % 10 {
            0 => 0,
            _ => rng.random_range(1..150usize),
        };
        // A width from the minimum up to wider than the whole matrix.
        let width = match case % 7 {
            0 => 3,
            1 => rng.random_range(300..400usize),
            _ => rng.random_range(3..60usize),
        };
        // Steps drawn with a per-case bias: mostly diagonal, mostly vertical
        // (so the band's right edge is clipped at a short window's end),
        // mostly 2 (a long window), or uniform.
        let bias = rng.random_range(0..4u8);
        let mut base = vec![-(rng.random_range(0..width) as i64)];
        for _ in 0..n {
            let step = match (bias, rng.random_range(0..10u8)) {
                (0, 0) | (1, 0..=6) => 0,
                (0, 1) | (2, 0..=6) => 2,
                (0, _) => 1,
                _ => rng.random_range(0..=2i64),
            };
            base.push(base[base.len() - 1] + step);
        }
        // Any `m` whose terminal cell the last row covers; `m = 0` when the
        // last row still starts left of the matrix.
        let m = match case % 10 {
            1 if base[n] <= 0 => 0,
            _ => (base[n] + rng.random_range(0..width) as i64).max(0) as usize,
        };
        let query = if case % 5 == 0 {
            repeat_seq(&[Base::A, Base::C], n)
        } else {
            random_seq(&mut rng, n)
        };
        let window = window_for(&mut rng, &query, m);
        assert_same_table(&query, &window, &PARAMS[(case % 4) as usize], &base, width);
    }
}

/// The corridor's table of row origins and width as `prepare_along` first
/// computed them, one division a row: the oracle of its division-free
/// stepping.
fn corridor_table(pins: &[(i64, i64)], n: i64, m: i64, halfwidth: usize) -> (Vec<i64>, usize) {
    let hw = halfwidth.max(1) as i64;
    let mut base = vec![-hw];
    let (mut row, mut col, mut lag) = (0, 0, 0);
    for &(to_row, to_col) in pins.iter().chain(&[(n, m)]) {
        if to_row <= row || to_row > n {
            continue;
        }
        let rows = to_row - row;
        for i in 1..=rows {
            let centred = col + (to_col - col) * i / rows - hw;
            let prev = base[base.len() - 1];
            let origin = centred.clamp(prev, prev + 2);
            lag = lag.max((centred - origin).abs());
            base.push(origin);
        }
        (row, col) = (to_row, to_col);
    }
    lag = lag.max(m - hw - base[n as usize]);
    for origin in &mut base {
        *origin -= lag;
    }
    (base, (2 * (hw + lag) + 1) as usize)
}

#[test]
fn corridors_along_random_pins_agree_and_cover_their_pins() {
    for case in 0..300u64 {
        let mut rng = seeded(0xC0221D02 ^ case);
        let n = rng.random_range(0..200usize);
        let m = rng.random_range(0..260usize);
        let query = random_seq(&mut rng, n);
        let window = window_for(&mut rng, &query, m);
        // Pins in ascending rows and columns, up to four columns a row apart
        // (steeper than the table can follow), then one in eight out of order
        // or out of the matrix.
        let mut pins = Vec::new();
        let (mut row, mut col) = (0i64, 0i64);
        loop {
            row += rng.random_range(1..25i64);
            col += rng.random_range(0..(4 * 25i64));
            if row >= n as i64 || col > m as i64 {
                break;
            }
            pins.push((row, col));
        }
        let sane = pins.clone();
        if case % 8 == 0 && !pins.is_empty() {
            let at = rng.random_range(0..pins.len());
            let stray = (rng.random_range(-50..500i64), rng.random_range(-50..500i64));
            pins.insert(at, stray);
        }
        let halfwidth = rng.random_range(0..20usize);

        let mut scratch = AlignScratch::new();
        scratch.load(&query, &window, 0..m, false);
        let band = scratch.prepare_along(pins.iter().copied(), halfwidth);
        let (base, width) = (scratch.base.clone(), band.width);
        assert_eq!(
            (base.clone(), width),
            corridor_table(&pins, n as i64, m as i64, halfwidth),
            "case {case}: pins {pins:?}"
        );
        if case % 8 != 0 {
            let reach = halfwidth.max(1) as i64;
            for &(row, col) in sane.iter().chain(&[(0, 0), (n as i64, m as i64)]) {
                let cells = base[row as usize]..base[row as usize] + width as i64;
                assert!(
                    cells.contains(&(col - reach)) && cells.contains(&(col + reach)),
                    "case {case}: pin ({row}, {col}) ± {reach} outside {cells:?}"
                );
            }
        }
        let p = &PARAMS[(case % 4) as usize];
        let want = masked_gotoh(&query, &window, p, &base, width);
        assert_eq!(scratch.run(p, &band), want, "case {case}: pins {pins:?}");
        for (entry, fill) in entries(p) {
            assert_eq!(
                table_global(&query, &window, p, &base, width, fill),
                want,
                "case {case} ({entry}): pins {pins:?}"
            );
        }
    }
}

/// The `i32` AVX2 row the `i16` one replaced, kept as an oracle: pass A,
/// pass B's running maximum and the traceback bits of a whole block of
/// eight absolute `i32` cells in registers, over an `i32` score profile.
#[cfg(target_arch = "x86_64")]
mod wide {
    use super::super::{AlignmentParams, NEG};
    use std::arch::x86_64::*;

    const WIDE_LANES: usize = 8;

    #[target_feature(enable = "avx2")]
    fn load8(src: &[i32; WIDE_LANES]) -> __m256i {
        // SAFETY: `src` is eight readable `i32`s by its type, and `loadu`
        // has no alignment requirement.
        unsafe { _mm256_loadu_si256(src.as_ptr().cast()) }
    }

    #[target_feature(enable = "avx2")]
    fn store8(dst: &mut [i32; WIDE_LANES], v: __m256i) {
        // SAFETY: `dst` is eight writable `i32`s by its type.
        unsafe { _mm256_storeu_si256(dst.as_mut_ptr().cast(), v) }
    }

    #[target_feature(enable = "avx2")]
    fn store_masked(dst: &mut [i32; WIDE_LANES], v: __m256i, mask: __m256i) {
        // SAFETY: `dst` is eight writable `i32`s by its type (the
        // instruction writes only the lanes whose mask is set).
        unsafe { _mm256_maskstore_epi32(dst.as_mut_ptr(), mask, v) }
    }

    struct Fused {
        neg: __m256i,
        open_extend: __m256i,
        extend: __m256i,
        w_slope: __m256i,
        iy_slope: __m256i,
        w_step: __m256i,
        iy_step: __m256i,
        w_prev: __m256i,
        run: __m256i,
    }

    impl Fused {
        #[target_feature(enable = "avx2")]
        fn new(p: &AlignmentParams) -> Fused {
            let (e, oe) = (p.gap_extend, p.gap_open + p.gap_extend);
            let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
            let extend = _mm256_set1_epi32(e);
            let open_extend = _mm256_set1_epi32(oe);
            let lanes = WIDE_LANES as i32;
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

        #[target_feature(enable = "avx2")]
        fn block(
            &mut self,
            h_diag: &[i32; WIDE_LANES],
            h_up: &[i32; WIDE_LANES],
            ix_up: &[i32; WIDE_LANES],
            sub: &[i32; WIDE_LANES],
        ) -> (__m256i, __m256i, [u8; WIDE_LANES]) {
            let open = _mm256_add_epi32(load8(h_up), self.open_extend);
            let ext = _mm256_add_epi32(load8(ix_up), self.extend);
            let gap = _mm256_max_epi32(ext, open);
            let diag = _mm256_add_epi32(load8(h_diag), load8(sub));
            let t = _mm256_max_epi32(gap, diag);
            let ix_extends = _mm256_cmpgt_epi32(ext, open);
            let from_ix = _mm256_cmpgt_epi32(gap, diag);
            let w = _mm256_add_epi32(t, self.w_slope);
            let v = _mm256_alignr_epi8::<12>(w, _mm256_permute2x128_si256::<0x21>(self.w_prev, w));
            let m = _mm256_max_epi32(v, _mm256_alignr_epi8::<12>(v, self.neg));
            let m = _mm256_max_epi32(m, _mm256_alignr_epi8::<8>(m, self.neg));
            let low_last = _mm256_permutevar8x32_epi32(m, _mm256_set1_epi32(3));
            let m = _mm256_max_epi32(m, _mm256_blend_epi32::<0xF0>(self.neg, low_last));
            let u = _mm256_max_epi32(m, self.run);
            let block_max = _mm256_permutevar8x32_epi32(m, _mm256_set1_epi32(7));
            self.run = _mm256_max_epi32(self.run, block_max);
            let iy = _mm256_add_epi32(u, self.iy_slope);
            let from_iy = _mm256_cmpgt_epi32(iy, t);
            let iy_extends = _mm256_cmpgt_epi32(u, v);
            let h = _mm256_max_epi32(iy, t);
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
            let picked = _mm256_shuffle_epi8(
                flags,
                _mm256_setr_epi8(
                    0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, //
                    0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
                ),
            );
            let packed =
                _mm256_permutevar8x32_epi32(picked, _mm256_setr_epi32(0, 4, 0, 0, 0, 0, 0, 0));
            let bytes = _mm_cvtsi128_si64(_mm256_castsi256_si128(packed)).to_le_bytes();
            self.w_prev = w;
            self.w_slope = _mm256_add_epi32(self.w_slope, self.w_step);
            self.iy_slope = _mm256_add_epi32(self.iy_slope, self.iy_step);
            (h, gap, bytes)
        }
    }

    /// One absolute `i32` row, as the `i16` row's `Kernel::row` but eight
    /// cells a block and with no offset.
    #[target_feature(enable = "avx2")]
    pub(super) fn wide_avx2_row(
        p: &AlignmentParams,
        prof: &[i32],
        h_prev: &[i32],
        ix_prev: &[i32],
        h: &mut [i32],
        ix: &mut [i32],
        flags: &mut [u8],
    ) {
        let blocks = flags.len().div_ceil(WIDE_LANES);
        let (h_diag, _) = h_prev.as_chunks::<WIDE_LANES>();
        let (h_up, _) = h_prev[1..].as_chunks::<WIDE_LANES>();
        let (ix_up, _) = ix_prev[1..].as_chunks::<WIDE_LANES>();
        let (sub, _) = prof.as_chunks::<WIDE_LANES>();
        let (h, _) = h.as_chunks_mut::<WIDE_LANES>();
        let (ix, _) = ix.as_chunks_mut::<WIDE_LANES>();
        let (flags, tail) = flags.as_chunks_mut::<WIDE_LANES>();
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
}

/// [`fill`](super::fill) over the absolute `i32` rows with the `i32` AVX2
/// row, on a host with AVX2 and under `gap_open <= 0`.
#[cfg(target_arch = "x86_64")]
fn fill_wide_avx2(
    s: &mut AlignScratch,
    tb: &mut [u8],
    p: &AlignmentParams,
    band: &Band,
) -> (usize, i32) {
    assert!(p.gap_open <= 0 && std::arch::is_x86_feature_detected!("avx2"));
    let stride = s.r.len();
    let prof: Vec<i32> = (0..4)
        .flat_map(|code| {
            s.r.iter()
                .map(move |&b| if b == code { p.match_score } else { p.mismatch })
        })
        .collect();
    let q = &s.q;
    super::fill(&mut s.wide, &s.base, tb, p, band, |rows, row, _, flags| {
        let qb = usize::from(q[row.i - 1]);
        let prof = &prof[qb * stride + row.lo..(qb + 1) * stride];
        let prev = row.clo + row.step;
        let (h_prev, ix_prev) = (&rows.h_prev[prev..], &rows.ix_prev[prev..]);
        let (h, ix) = (
            &mut rows.h_curr[1 + row.clo..],
            &mut rows.ix_curr[1 + row.clo..],
        );
        // SAFETY: the host supports AVX2, asserted above.
        unsafe { wide::wide_avx2_row(p, prof, h_prev, ix_prev, h, ix, flags) }
    })
}

/// `(S + D, D)` of the module docs: every stored real value of the `i16`
/// rows lies within `S + D` of zero and every row's shift within `D`; the
/// single-row test draws its previous rows and its shift there.
#[cfg(all(target_arch = "x86_64", not(genpip_portable)))]
fn reaches(width: usize, p: &AlignmentParams) -> (i64, i64) {
    let (o, e) = (i64::from(p.gap_open).abs(), i64::from(p.gap_extend).abs());
    let sigma = e + i64::from(p.match_score.max(p.mismatch).max(0));
    let shift = 2 * o + 3 * sigma;
    (o + sigma * (width as i64 - 1) + shift, shift)
}

/// The default scoring scaled up as far as a band of `width` columns keeps
/// its spread bound within [`MAX_BOUND`]: the single-row test's hostile
/// scoring, whose values reach the bound.
#[cfg(all(target_arch = "x86_64", not(genpip_portable)))]
fn scaled_to_the_bound(width: usize) -> AlignmentParams {
    let scaled = |k: i32| AlignmentParams {
        match_score: 2 * k,
        mismatch: -4 * k,
        gap_open: -4 * k,
        gap_extend: -2 * k,
    };
    let k = (1..)
        .take_while(|&k| spread_bound(width, &scaled(k)).unwrap() <= MAX_BOUND)
        .last()
        .expect("the default scoring fits every width the test draws");
    scaled(k)
}

/// A previous DP row for the single-row test, band-relative and `i16`: a
/// `NEG16` pad, `width` cells drawn by `mode` — arbitrary values within
/// `± reach` with `NEG16`s among them, values so small that every comparison
/// ties somewhere, or runs of equal values — two `NEG16` pads, and `SLACK`
/// entries of garbage that only the AVX2 row's last block reads.
#[cfg(all(target_arch = "x86_64", not(genpip_portable)))]
fn arbitrary_row(rng: &mut SeededRng, mode: u64, width: usize, reach: i64) -> Vec<i16> {
    use super::{NEG16, SLACK};
    let (neg, reach) = (i32::from(NEG16), reach as i32);
    let mut row = vec![NEG16];
    while row.len() <= width {
        let (value, run) = match mode {
            0 if rng.random_range(0..8u8) == 0 => (neg, 1),
            0 => (rng.random_range(-reach..=reach), 1),
            1 => (rng.random_range(-4..=4), 1),
            _ if rng.random_range(0..4u8) == 0 => (neg, rng.random_range(1..=6usize)),
            _ => (rng.random_range(-12..=12), rng.random_range(1..=6usize)),
        };
        row.extend(std::iter::repeat_n(value as i16, run));
    }
    row.truncate(1 + width);
    row.extend([NEG16, NEG16]);
    row.extend((0..SLACK).map(|_| rng.random::<u32>() as i16));
    row
}

/// The `i16` AVX2 row against [`pass_a`](super::pass_a) followed by
/// [`pass_b_running_max`](super::pass_b_running_max) over the same values as
/// absolute `i32`s, one row at a time, from previous rows no alignment
/// produces (see [`arbitrary_row`]) drawn within the bound's `S + D`, under
/// an arbitrary offset and shift: every row length 1..=48 — every length
/// mod 16, rows shorter than a block, exactly one block — every step 0..=2,
/// every scoring the AVX2 row serves plus one scaled up to the bound. Every
/// real `H` and `Ix` must be the `i32` row's minus the offset and the shift,
/// every one derived from a pad the `i32` row's with `NEG` swapped for
/// `NEG16` (module docs), every flag byte equal, and the current row's
/// buffers start out as garbage, so any cell either body writes outside the
/// row shows.
#[cfg(all(target_arch = "x86_64", not(genpip_portable)))]
#[test]
fn avx2_row_agrees_with_the_portable_row_from_arbitrary_previous_rows() {
    use super::avx2::Kernel;
    use super::{pass_a, pass_b_running_max, Row, Rows, NEG, NEG16, PAD, SLACK};
    if !std::arch::is_x86_feature_detected!("avx2") {
        eprintln!("skipped: this host has no AVX2, so the AVX2 row never runs on it");
        return;
    }
    // Which flag bytes turned up: a check on the inputs' reach, not on the row.
    let mut seen = [false; 16];
    let scorings = PARAMS.iter().filter(|p| p.gap_open <= 0).count() + 1;
    for pi in 0..scorings {
        for len in 1..=48usize {
            for step in 0..=2usize {
                for case in 0..16u64 {
                    let mut rng = seeded((pi * 1_000 + len * 10 + step) as u64 * 100 + case);
                    let width = len + rng.random_range(0..=9usize);
                    let p = match PARAMS.iter().filter(|p| p.gap_open <= 0).nth(pi) {
                        Some(p) => *p,
                        None => scaled_to_the_bound(width),
                    };
                    let (reach, shift_reach) = reaches(width, &p);
                    let clo = rng.random_range(0..=width - len);
                    let h_prev = arbitrary_row(&mut rng, case % 3, width, reach);
                    let ix_prev = arbitrary_row(&mut rng, case / 3 % 3, width, reach);
                    let offset = rng.random_range(-1_000_000..=1_000_000i32);
                    let shift = rng.random_range(-shift_reach..=shift_reach) as i16;
                    // The same rows absolute, as the portable row sees them.
                    let wide = |row: &[i16]| -> Vec<i32> {
                        row.iter()
                            .map(|&v| {
                                if v == NEG16 {
                                    NEG
                                } else {
                                    i32::from(v) + offset
                                }
                            })
                            .collect()
                    };
                    let (h_prev32, ix_prev32) = (wide(&h_prev), wide(&ix_prev));
                    // The row's columns: column 0 (the pad) when the row
                    // starts at the matrix's left edge, and the window's
                    // trailing pads past its end.
                    let qb = rng.random_range(0..4u8);
                    let r: Vec<u8> = (0..len + SLACK)
                        .map(|k| match rng.random_range(0..6u8) {
                            _ if k >= len => PAD,
                            0 if k == 0 => PAD,
                            0 | 1 => qb,
                            _ => rng.random_range(0..4u8),
                        })
                        .collect();
                    let prof: Vec<i16> = r
                        .iter()
                        .map(|&b| if b == qb { p.match_score } else { p.mismatch } as i16)
                        .collect();

                    let cells = h_prev.len();
                    let garbage = |rng: &mut SeededRng| -> Vec<i16> {
                        (0..cells).map(|_| rng.random::<u32>() as i16).collect()
                    };
                    let mut rows = Rows {
                        h_prev: h_prev.clone(),
                        ix_prev: ix_prev.clone(),
                        h_curr: garbage(&mut rng),
                        ix_curr: garbage(&mut rng),
                    };
                    let (h_before, ix_before) = (rows.h_curr.clone(), rows.ix_curr.clone());
                    let mut flags: Vec<u8> = (0..width).map(|_| rng.random()).collect();
                    let mut flags_avx2 = flags.clone();
                    let (mut h32, mut ix32) = (vec![0; len], vec![0; len]);
                    let (mut v, mut u) = (vec![0; len + 1], vec![0; len]);
                    let prev = clo + step..clo + step + len + 1;
                    let row_flags = &mut flags[clo..clo + len];
                    pass_a(
                        &p,
                        qb,
                        &r[..len],
                        &h_prev32[prev.clone()],
                        &ix_prev32[prev],
                        &mut ix32,
                        &mut h32,
                        &mut v,
                        row_flags,
                    );
                    pass_b_running_max(&p, &v, &mut u, &mut h32, row_flags);
                    for &f in row_flags.iter() {
                        seen[f as usize] = true;
                    }
                    let row = Row {
                        i: 1,
                        step,
                        lo: 0,
                        clo,
                        len,
                    };
                    // SAFETY: the host supports AVX2, checked at the top.
                    unsafe {
                        Kernel::new(&p).row(
                            &prof,
                            &mut rows,
                            row,
                            shift,
                            &mut flags_avx2[clo..clo + len],
                        )
                    };

                    // What the `i16` row must store for each `i32` value.
                    let narrow = |v: i32| -> i16 {
                        let relative = if v < NEG / 2 {
                            v - NEG + i32::from(NEG16)
                        } else {
                            v - offset
                        };
                        (relative - i32::from(shift)) as i16
                    };
                    let mut h_want = h_before;
                    let mut ix_want = ix_before;
                    for k in 0..len {
                        h_want[1 + clo + k] = narrow(h32[k]);
                        ix_want[1 + clo + k] = narrow(ix32[k]);
                    }
                    assert_eq!(
                        (&rows.h_curr, &rows.ix_curr, &flags_avx2),
                        (&h_want, &ix_want, &flags),
                        "{p:?} len {len} step {step} case {case} clo {clo} width {width} \
                         offset {offset} shift {shift}\nh_prev {h_prev:?}\nix_prev {ix_prev:?}\n\
                         r {r:?} qb {qb}"
                    );
                }
            }
        }
    }
    // H from the diagonal, Ix or Iy, with either gap extended or not.
    let missing: Vec<usize> = (0..16).filter(|&f| f & 0b11 != 3 && !seen[f]).collect();
    assert!(missing.is_empty(), "flag bytes never produced: {missing:?}");
}

/// A scoring under which a band of `width` columns has spread bound exactly
/// `target`: the default scoring scaled, its gap-open and mismatch costs
/// raised a few units to land on the number.
fn scoring_with_bound(width: usize, target: i64) -> AlignmentParams {
    for k in 1..200 {
        for more_open in 0..128 {
            for more_mismatch in 0..128 {
                let p = AlignmentParams {
                    match_score: 2 * k,
                    mismatch: -4 * k - more_mismatch,
                    gap_open: -4 * k - more_open,
                    gap_extend: -2 * k,
                };
                if spread_bound(width, &p) == Some(target) {
                    return p;
                }
            }
        }
    }
    panic!("no scaled scoring puts width {width} at bound {target}");
}

/// Bands whose spread bound is exactly the `i16` rows' limit run the `i16`
/// rows, and one past it the portable `i32` row — the dispatch counts only
/// the second on [`wide_band_fallbacks`] — and both equal the masked
/// full-matrix Gotoh. The scorings are scaled up until the bound sits at the
/// limit, the sequences are repeats and unrelated stretches, where the
/// rows' spread is widest, and the tables mix every step.
#[test]
fn bands_at_the_spread_bound_run_the_i16_rows_and_one_past_it_the_portable_row() {
    for (case, width) in [3usize, 9, 16, 17, 40, 70, 129].into_iter().enumerate() {
        for (limit, fallbacks) in [(MAX_BOUND, 0), (MAX_BOUND + 1, 1)] {
            let p = scoring_with_bound(width, limit);
            let mut rng = seeded(0xB0D ^ case as u64);
            let n = rng.random_range(60..200usize);
            let mut base = vec![-(rng.random_range(0..width) as i64)];
            for _ in 0..n {
                base.push(base[base.len() - 1] + rng.random_range(0..=2i64));
            }
            let m = (base[n] + rng.random_range(0..width) as i64).max(0) as usize;
            let query: DnaSeq = repeat_seq(&[Base::A], n / 2)
                .iter()
                .chain(random_seq(&mut rng, n - n / 2).iter())
                .collect();
            let window = match case % 2 {
                0 => random_seq(&mut rng, m),
                _ => window_for(&mut rng, &query, m),
            };
            let before = wide_band_fallbacks();
            let got = table_global(&query, &window, &p, &base, width, fill_dispatch);
            assert_eq!(
                (wide_band_fallbacks() - before, &got),
                (fallbacks, &masked_gotoh(&query, &window, &p, &base, width)),
                "width {width} bound {limit} {p:?}\nbase {base:?}\nq {query}\nr {window}"
            );
        }
    }
}
