//! Differential suite: the band-relative two-pass kernel must return the same
//! [`Alignment`] as the first-draft scalar kernel — score, CIGAR, matches,
//! columns **and** the `cells` cost-model counter — on every geometry and
//! every tie, through both the dispatched entry ([`banded_global`], AVX2 where
//! the host has it) and the portable instantiation of the same fill body.

use super::{banded_global, fill, AlignScratch, Alignment, AlignmentParams, CigarOp};
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
