//! Differential suite: the band-relative two-pass kernel must return the same
//! [`Alignment`] as the first-draft scalar kernel — score, CIGAR, matches,
//! columns **and** the `cells` cost-model counter — on every geometry and
//! every tie, through both the dispatched entry ([`banded_global`], AVX2 where
//! the host has it) and the portable instantiation of the same fill body; and,
//! for bands that are not straight, the same [`Alignment`] as a full-matrix
//! Gotoh masked by the same table of row origins.

use super::{
    banded_global, fill, fill_dispatch, AlignScratch, Alignment, AlignmentParams, Band, CigarOp,
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

/// [`banded_global`] with the portable instantiation of the fill body,
/// whatever the host's vector extensions.
fn portable_banded_global(
    q: &DnaSeq,
    r: &DnaSeq,
    p: &AlignmentParams,
    center: i64,
    hw: usize,
) -> Alignment {
    let mut scratch = AlignScratch::new();
    scratch.load(q, r, 0..r.len(), false);
    let band = scratch.prepare(center, hw);
    let mut tb = band.traceback_matrix(q.len());
    let cells = fill(&mut scratch, &mut tb, p, &band);
    scratch.finish(&tb, &band, cells)
}

fn assert_same(q: &DnaSeq, r: &DnaSeq, p: &AlignmentParams, center: i64, hw: usize, what: &str) {
    let want = naive_banded_global(q, r, p, center, hw);
    for (entry, got) in [
        ("dispatched", banded_global(q, r, p, center, hw)),
        ("portable", portable_banded_global(q, r, p, center, hw)),
    ] {
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
        let mut q = repeat_seq(unit, n);
        let r = repeat_seq(unit, m);
        // A few point edits so gaps have somewhere to compete with
        // mismatches, without breaking the repeat's ties.
        for _ in 0..rng.random_range(0..4u8) {
            if n > 0 {
                q.set(
                    rng.random_range(0..n),
                    Base::from_code(rng.random_range(0..4u8)),
                );
            }
        }
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

type Fill = fn(&mut AlignScratch, &mut [u8], &AlignmentParams, &Band) -> usize;

/// Runs one instantiation of the fill body over a band given as a table.
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
    let cells = fill(&mut scratch, &mut tb, p, &band);
    scratch.finish(&tb, &band, cells)
}

fn assert_same_table(q: &DnaSeq, r: &DnaSeq, p: &AlignmentParams, base: &[i64], width: usize) {
    let want = masked_gotoh(q, r, p, base, width);
    for (entry, fill) in [("dispatched", fill_dispatch as Fill), ("portable", fill)] {
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
    }
}
