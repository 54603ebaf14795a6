//! Banded affine-gap global alignment (Gotoh's algorithm).
//!
//! The paper's Figure 1 ⓓ: sequence alignment quantifies the similarity
//! between the read and the candidate reference region selected by chaining,
//! via a computationally expensive dynamic program. GenPIP executes this DP
//! on the same PIM units as chaining (PARC-style, Section 4.1); this module
//! is the functional implementation, and its cell count drives the hardware
//! cost model.
//!
//! Gap cost model: a gap of length `L` costs `gap_open + L · gap_extend`.

use genpip_genomics::{Base, DnaSeq};
use std::fmt;
use std::ops::Range;

/// Alignment scoring parameters (minimap2-like defaults).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlignmentParams {
    /// Score for a matching column (positive).
    pub match_score: i32,
    /// Score for a mismatching column (negative).
    pub mismatch: i32,
    /// One-off cost of opening a gap (negative).
    pub gap_open: i32,
    /// Per-base cost of a gap, charged for every gapped column including the
    /// first (negative).
    pub gap_extend: i32,
}

impl Default for AlignmentParams {
    fn default() -> AlignmentParams {
        AlignmentParams {
            match_score: 2,
            mismatch: -4,
            gap_open: -4,
            gap_extend: -2,
        }
    }
}

/// One CIGAR run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CigarOp {
    /// `len` aligned columns (match or mismatch).
    Match(u32),
    /// `len` query bases absent from the reference.
    Ins(u32),
    /// `len` reference bases absent from the query.
    Del(u32),
}

impl fmt::Display for CigarOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CigarOp::Match(n) => write!(f, "{n}M"),
            CigarOp::Ins(n) => write!(f, "{n}I"),
            CigarOp::Del(n) => write!(f, "{n}D"),
        }
    }
}

/// Renders a CIGAR vector as the conventional compact string.
pub fn cigar_string(cigar: &[CigarOp]) -> String {
    cigar.iter().map(CigarOp::to_string).collect()
}

/// A finished global alignment.
#[derive(Debug, Clone, PartialEq)]
pub struct Alignment {
    /// Total alignment score.
    pub score: i32,
    /// CIGAR operations, query-leading.
    pub cigar: Vec<CigarOp>,
    /// Number of exactly matching columns.
    pub matches: usize,
    /// Total alignment columns (M + I + D).
    pub columns: usize,
    /// DP cells computed (the workload counter).
    pub cells: usize,
}

impl Alignment {
    /// BLAST-style identity: matching columns over all alignment columns.
    pub fn identity(&self) -> f64 {
        if self.columns == 0 {
            1.0
        } else {
            self.matches as f64 / self.columns as f64
        }
    }
}

/// Score of a cell no path reaches: far below any real score, and far
/// enough above `i32::MIN` that penalties add to it without wrapping.
const NEG: i32 = i32::MIN / 4;

/// Pad byte in front of the window's base codes; equals no 2-bit code.
const PAD: u8 = 0xFF;

/// Reusable working memory of the banded-alignment kernel: the unpacked
/// query and reference window, the band's table of row origins, the rolling
/// DP rows and the traceback's run stack. One instance per worker thread; a
/// warmed scratch leaves the traceback matrix and the returned CIGAR as an
/// alignment's only allocations. (The matrix, one byte per band cell, is
/// about a quarter of a megabyte for a 3 kb read in the mapper's corridor; it
/// is allocated per call so that no worker pins its largest one.)
///
/// A band is a table of row origins, not a centre and a half-width: row `i`
/// covers the `width` columns from `base[i]` on, clipped to the matrix, and
/// `base[i] - base[i - 1]` is 0, 1 or 2, so the band can follow a chain
/// through its indels (`AlignScratch::align_along`). The straight band of
/// [`banded_global`] is the table whose every step is 1.
#[derive(Debug, Clone, Default)]
pub struct AlignScratch {
    /// Query base codes.
    q: Vec<u8>,
    /// Window base codes behind one [`PAD`] byte: `r[j]` is the base that DP
    /// column `j` consumes, and column 0 (which consumes none) matches nothing.
    r: Vec<u8>,
    /// Column of each query row's band cell 0, rows `0..=n` (negative left of
    /// the matrix).
    base: Vec<i64>,
    // Band-relative rows of `1 + width + 2` cells: cell `c` of row `i` is
    // column `base[i] + c` and sits at index `c + 1`. With `step = base[i] -
    // base[i - 1]`, its diagonal neighbour is the previous row's cell
    // `c + step - 1` and its upper neighbour cell `c + step`: the pad cell on
    // the left is the diagonal neighbour of cell 0 after a step of 0, the two
    // on the right are the neighbours of the last cell after a step of 2, and
    // all three stay `NEG`.
    h_prev: Vec<i32>,
    h_curr: Vec<i32>,
    ix_prev: Vec<i32>,
    ix_curr: Vec<i32>,
    /// Pass B's gap-open candidates, slope removed.
    v: Vec<i32>,
    /// Pass B's running maximum over `v`.
    u: Vec<i32>,
    /// Traceback runs, last column first: (0 = M, 1 = I, 2 = D, length).
    ops: Vec<(u8, u32)>,
}

impl AlignScratch {
    /// Creates an empty workspace; buffers are sized lazily on first use.
    pub fn new() -> AlignScratch {
        AlignScratch::default()
    }

    /// Unpacks the two sequences to align: `query`, and the `window` of
    /// `reference`, reverse complemented when `reverse` is set.
    pub(crate) fn load(
        &mut self,
        query: &DnaSeq,
        reference: &DnaSeq,
        window: Range<usize>,
        reverse: bool,
    ) {
        self.q.clear();
        self.q.extend(query.iter().map(Base::code));
        self.r.clear();
        self.r.push(PAD);
        let codes = window.map(|i| reference.get(i).code());
        if reverse {
            self.r.extend(codes.rev().map(|code| 3 - code));
        } else {
            self.r.extend(codes);
        }
    }

    /// Aligns the sequences last [`load`](AlignScratch::load)ed; see
    /// [`banded_global`] for the band's definition.
    pub(crate) fn align(
        &mut self,
        params: &AlignmentParams,
        band_center: i64,
        band_halfwidth: usize,
    ) -> Alignment {
        let band = self.prepare(band_center, band_halfwidth);
        self.run(params, &band)
    }

    /// Aligns the sequences last [`load`](AlignScratch::load)ed inside a
    /// corridor along `pins`, the DP cells `(row, column)` a chain says the
    /// path visits, in ascending row order.
    ///
    /// The band's centre runs from the origin through every pin to the
    /// terminal cell, interpolated linearly in between, `halfwidth` columns
    /// (at least 1) to either side. Where two pins are further apart in
    /// columns than twice their rows — a deletion longer than the query
    /// between its anchors — the origins cannot keep up at 2 columns a row,
    /// and the whole band is widened by the largest lag instead; pins out of
    /// order are passed over. The band therefore always contains the origin
    /// and the terminal cell, which makes the function total.
    /// [`Alignment::cells`] counts every in-band cell except the origin.
    pub(crate) fn align_along(
        &mut self,
        params: &AlignmentParams,
        pins: impl Iterator<Item = (i64, i64)>,
        halfwidth: usize,
    ) -> Alignment {
        let band = self.prepare_along(pins, halfwidth);
        self.run(params, &band)
    }

    fn run(&mut self, params: &AlignmentParams, band: &Band) -> Alignment {
        let mut tb = band.traceback_matrix(self.q.len());
        let cells = fill_dispatch(self, &mut tb, params, band);
        self.finish(&tb, band, cells)
    }

    /// The straight band: widens it to keep (0,0) and (n,m) inside and lays
    /// down its all-steps-1 table.
    fn prepare(&mut self, band_center: i64, band_halfwidth: usize) -> Band {
        let (n, m) = (self.q.len(), self.r.len() - 1);
        let need_start = band_center.unsigned_abs() as usize;
        let need_end = (m as i64 - n as i64 - band_center).unsigned_abs() as usize;
        let hw = band_halfwidth.max(need_start).max(need_end) + 1;
        let first = band_center - hw as i64;
        self.base.clear();
        self.base.extend((0..=n as i64).map(|i| i + first));
        self.size_rows(2 * hw + 1)
    }

    /// The corridor of [`align_along`](AlignScratch::align_along).
    fn prepare_along(&mut self, pins: impl Iterator<Item = (i64, i64)>, halfwidth: usize) -> Band {
        let (n, m) = (self.q.len() as i64, (self.r.len() - 1) as i64);
        let hw = halfwidth.max(1) as i64;
        self.base.clear();
        self.base.push(-hw);
        let (mut row, mut col, mut lag) = (0, 0, 0);
        for (to_row, to_col) in pins.chain(std::iter::once((n, m))) {
            if to_row <= row || to_row > n {
                continue;
            }
            let rows = to_row - row;
            for i in 1..=rows {
                let centred = col + (to_col - col) * i / rows - hw;
                let prev = self.base[self.base.len() - 1];
                let base = centred.clamp(prev, prev + 2);
                lag = lag.max((centred - base).abs());
                self.base.push(base);
            }
            (row, col) = (to_row, to_col);
        }
        // With an empty query the terminal cell shares the origin's row.
        lag = lag.max(m - hw - self.base[n as usize]);
        for base in &mut self.base {
            *base -= lag;
        }
        self.size_rows((2 * (hw + lag) + 1) as usize)
    }

    /// Sizes the rows for a band of `width` columns from each of `base` on.
    fn size_rows(&mut self, width: usize) -> Band {
        let band = Band {
            m: self.r.len() - 1,
            width,
        };
        debug_assert!(width >= 3 && self.base.len() == self.q.len() + 1);
        debug_assert!(self
            .base
            .windows(2)
            .all(|w| (0..=2).contains(&(w[1] - w[0]))));
        let in_row = |i: usize, j: i64| (0..width as i64).contains(&(j - self.base[i]));
        debug_assert!(in_row(0, 0) && in_row(self.q.len(), band.m as i64));
        for row in [
            &mut self.h_prev,
            &mut self.h_curr,
            &mut self.ix_prev,
            &mut self.ix_curr,
            &mut self.v,
            &mut self.u,
        ] {
            row.clear();
            row.resize(width + 3, NEG);
        }
        band
    }

    /// Reads the score off the filled last row and walks the traceback flags
    /// from `(n, m)` to the origin.
    fn finish(&mut self, tb: &[u8], band: &Band, cells: usize) -> Alignment {
        let (q, r) = (&self.q, &self.r);
        let base = &self.base;
        let score = self.h_prev[1 + (band.m as i64 - base[q.len()]) as usize];
        let ops = &mut self.ops;
        ops.clear();
        let mut push = |kind: u8| match ops.last_mut() {
            Some(last) if last.0 == kind => last.1 += 1,
            _ => ops.push((kind, 1)),
        };
        let mut matches = 0usize;
        let (mut i, mut j) = (q.len(), band.m);
        // Which matrix we are currently in: 0=H, 1=Ix, 2=Iy.
        let mut state = 0u8;
        while i > 0 || j > 0 {
            let flags = tb[i * band.width + (j as i64 - base[i]) as usize];
            match state {
                0 => match flags & 0b11 {
                    0 => {
                        // Diagonal step.
                        push(0);
                        if q[i - 1] == r[j] {
                            matches += 1;
                        }
                        i -= 1;
                        j -= 1;
                    }
                    1 => state = 1,
                    2 => state = 2,
                    _ => break, // origin
                },
                1 => {
                    push(1);
                    i -= 1;
                    state = if flags & 0b0100 != 0 { 1 } else { 0 };
                }
                _ => {
                    push(2);
                    j -= 1;
                    state = if flags & 0b1000 != 0 { 2 } else { 0 };
                }
            }
        }
        let mut columns = 0usize;
        let cigar = ops
            .iter()
            .rev()
            .map(|&(kind, len)| {
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
}

/// The extent of one alignment's band: row `i` covers columns
/// `base[i] ..= base[i] + width - 1` of [`AlignScratch`]'s table, clipped to
/// `0..=m`.
struct Band {
    m: usize,
    width: usize,
}

impl Band {
    /// Zeroed traceback flags for query rows `0..=n`, `width` per row: bits
    /// 0..1 = H source (0 diag, 1 Ix, 2 Iy, 3 origin), bit 2 = Ix extended,
    /// bit 3 = Iy extended.
    fn traceback_matrix(&self, n: usize) -> Vec<u8> {
        vec![0; (n + 1) * self.width]
    }
}

/// Pass A. Ix: consume a query base (gap in reference); extend beats open
/// only when greater. T (left in `h`): the diagonal unless Ix is greater.
/// Also lays down pass B's gap-open candidates,
/// `v[k + 1] = T[k] + o + e - e·(k + 1)`. `h_prev` and `ix_prev` hold the
/// previous row from the row's first diagonal neighbour on, one cell longer
/// than the row.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn pass_a(
    p: &AlignmentParams,
    qb: u8,
    r: &[u8],
    h_prev: &[i32],
    ix_prev: &[i32],
    ix: &mut [i32],
    h: &mut [i32],
    v: &mut [i32],
    flags: &mut [u8],
) {
    let len = h.len();
    let (extend, open_extend) = (p.gap_extend, p.gap_open + p.gap_extend);
    let (match_score, mismatch) = (p.match_score, p.mismatch);
    let (h_diag, h_up, ix_up) = (&h_prev[..len], &h_prev[1..len + 1], &ix_prev[1..len + 1]);
    let (r, ix, flags) = (&r[..len], &mut ix[..len], &mut flags[..len]);
    v[0] = NEG;
    let v = &mut v[1..len + 1];
    for k in 0..len {
        let open = h_up[k] + open_extend;
        let ext = ix_up[k] + extend;
        let gap = ext.max(open);
        let diag = h_diag[k] + if r[k] == qb { match_score } else { mismatch };
        ix[k] = gap;
        h[k] = gap.max(diag);
        v[k] = h[k] + open_extend - extend * (k + 1) as i32;
        flags[k] = ((ext > open) as u8) << 2 | (gap > diag) as u8;
    }
}

/// Pass B for `gap_open <= 0` (see [`fill`]): `u` is the running maximum of
/// `v`, and everything else is elementwise. Turns `h` from T into H.
#[inline(always)]
fn pass_b_running_max(
    p: &AlignmentParams,
    v: &[i32],
    u: &mut [i32],
    h: &mut [i32],
    flags: &mut [u8],
) {
    let len = h.len();
    let (v, u, flags) = (&v[..len], &mut u[..len], &mut flags[..len]);
    let mut run = NEG;
    for k in 0..len {
        run = run.max(v[k]);
        u[k] = run;
    }
    for k in 0..len {
        let iy = u[k] + p.gap_extend * k as i32;
        // From Iy: source 2, keeping only the Ix-extended bit.
        let from_iy = (iy > h[k]) as u8;
        let iy_extends = (u[k] > v[k]) as u8;
        h[k] = iy.max(h[k]);
        flags[k] = flags[k] & (0b0100 | (from_iy ^ 1)) | from_iy << 1 | iy_extends << 3;
    }
}

/// Pass B for any scoring: the textbook left-to-right scan over `h`.
#[inline(always)]
fn pass_b_scan(p: &AlignmentParams, h: &mut [i32], flags: &mut [u8]) {
    let (extend, open_extend) = (p.gap_extend, p.gap_open + p.gap_extend);
    let mut iy = NEG;
    for k in 0..h.len() {
        if k > 0 {
            let open = h[k - 1] + open_extend;
            let ext = iy + extend;
            if ext > open {
                flags[k] |= 0b1000;
            }
            iy = ext.max(open);
        }
        if iy > h[k] {
            h[k] = iy;
            flags[k] = flags[k] & 0b1100 | 2;
        }
    }
}

/// Fills the DP rows and the traceback matrix; returns the cells computed.
///
/// Each row runs two passes over the band-relative cells `c`. **Pass A**
/// needs only the previous row — `Ix[c]` from `prev[c + 1]`, the diagonal
/// from `prev[c]`, `T[c] = max(diag, Ix)` and their traceback bits — so it is
/// branch-free selects over contiguous slices. **Pass B** resolves the
/// horizontal recurrence `Iy[c] = max(H[c-1] + o + e, Iy[c-1] + e)`,
/// `H[c] = max(T[c], Iy[c])`. With `o <= 0`, `H[c-1]` can be replaced by
/// `T[c-1]` (its other arm, `Iy[c-1] + o + e`, never beats extending), and
/// `u[c] = Iy[c] - e·c` is the running maximum of `v[c] = T[c-1] + o + e -
/// e·c`: one dependent `max` per cell, everything around it elementwise.
/// The strict `>` of every tie rule carries over: extending beats opening
/// from `T[c-1]` iff `u[c-1] > v[c]`, i.e. `u[c] > v[c]`. (With `o == 0`
/// the scan would instead re-open from `H[c-1] = Iy[c-1]`; that is the same
/// path, so the traceback cannot tell the two apart.)
///
/// The rolling rows are never cleared between rows. A cell the next row reads
/// is either one this row wrote or one no row ever writes: as `base` only
/// rises, the clip at column 0 only recedes and the clip at column `m` only
/// advances, so what an earlier row left beyond this row's ends lies beyond
/// the next row's neighbours too.
#[inline(always)]
fn fill(s: &mut AlignScratch, tb: &mut [u8], p: &AlignmentParams, band: &Band) -> usize {
    let (n, m, width) = (s.q.len(), band.m, band.width);

    // Row 0: leading deletions.
    let origin = (-s.base[0]) as usize;
    let hi = (s.base[0] + (width - 1) as i64).min(m as i64) as usize;
    let row = &mut s.h_prev[1 + origin..];
    row[0] = 0;
    tb[origin] = 3;
    for j in 1..=hi {
        row[j] = p.gap_open + p.gap_extend * j as i32;
        // H from Iy, which extends from the second column on.
        tb[origin + j] = if j > 1 { 0b1010 } else { 0b0010 };
    }
    let mut cells = hi;

    for i in 1..=n {
        let base = s.base[i];
        let step = (base - s.base[i - 1]) as usize;
        let lo = base.max(0) as usize;
        let hi = (base + (width - 1) as i64).min(m as i64) as usize;
        let clo = (lo as i64 - base) as usize;
        let len = hi - lo + 1;
        cells += len;

        // Cell `c`'s diagonal neighbour sits at index `c + step` of the
        // previous row (its cell `c + step - 1`, behind the left pad).
        let (h_prev, ix_prev) = (
            &s.h_prev[clo + step..clo + step + len + 1],
            &s.ix_prev[clo + step..clo + step + len + 1],
        );
        let (h, ix) = (
            &mut s.h_curr[1 + clo..1 + clo + len],
            &mut s.ix_curr[1 + clo..1 + clo + len],
        );
        let flags = &mut tb[i * width + clo..][..len];
        let (qb, r) = (s.q[i - 1], &s.r[lo..lo + len]);
        pass_a(p, qb, r, h_prev, ix_prev, ix, h, &mut s.v, flags);
        if p.gap_open <= 0 {
            pass_b_running_max(p, &s.v, &mut s.u, h, flags);
        } else {
            pass_b_scan(p, h, flags);
        }
        std::mem::swap(&mut s.h_prev, &mut s.h_curr);
        std::mem::swap(&mut s.ix_prev, &mut s.ix_curr);
    }
    cells
}

/// [`fill`], compiled for the widest integer vectors the host has.
fn fill_dispatch(s: &mut AlignScratch, tb: &mut [u8], p: &AlignmentParams, band: &Band) -> usize {
    #[cfg(target_arch = "x86_64")]
    {
        #[target_feature(enable = "avx2")]
        fn fill_avx2(
            s: &mut AlignScratch,
            tb: &mut [u8],
            p: &AlignmentParams,
            band: &Band,
        ) -> usize {
            fill(s, tb, p, band)
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the host supports AVX2, checked on the line above.
            return unsafe { fill_avx2(s, tb, p, band) };
        }
    }
    fill(s, tb, p, band)
}

/// Aligns `query` against `reference` globally within a diagonal band.
///
/// The band covers columns `j ∈ [i + band_center − hw, i + band_center + hw]`
/// for each query row `i`, clipped to the reference, with
/// `hw = max(band_halfwidth, |band_center|, |m − n − band_center|) + 1`
/// (`n`, `m` the query and reference lengths): the requested half-width,
/// widened just enough that the band contains both the origin and the
/// terminal cell, which makes the function total. [`Alignment::cells`] counts
/// every in-band cell except the origin.
///
/// # Example
///
/// ```
/// use genpip_genomics::DnaSeq;
/// use genpip_mapping::align::{banded_global, AlignmentParams};
///
/// let q: DnaSeq = "ACGTACGTAC".parse()?;
/// let r: DnaSeq = "ACGTTCGTAC".parse()?;
/// let aln = banded_global(&q, &r, &AlignmentParams::default(), 0, 4);
/// assert_eq!(aln.matches, 9);
/// assert_eq!(aln.columns, 10);
/// # Ok::<(), genpip_genomics::base::ParseBaseError>(())
/// ```
pub fn banded_global(
    query: &DnaSeq,
    reference: &DnaSeq,
    params: &AlignmentParams,
    band_center: i64,
    band_halfwidth: usize,
) -> Alignment {
    let mut scratch = AlignScratch::new();
    scratch.load(query, reference, 0..reference.len(), false);
    scratch.align(params, band_center, band_halfwidth)
}

#[cfg(test)]
mod differential;

#[cfg(test)]
mod tests {
    use super::*;
    use genpip_genomics::rng::seeded;
    use genpip_genomics::rng::Rng;
    use genpip_genomics::{ErrorModel, GenomeBuilder};

    fn seq(s: &str) -> DnaSeq {
        s.parse().unwrap()
    }

    /// Full (unbanded) Gotoh reference implementation, score only.
    fn full_gotoh_score(q: &DnaSeq, r: &DnaSeq, p: &AlignmentParams) -> i32 {
        const NEG: i32 = i32::MIN / 4;
        let (n, m) = (q.len(), r.len());
        let mut h = vec![vec![NEG; m + 1]; n + 1];
        let mut ix = vec![vec![NEG; m + 1]; n + 1];
        let mut iy = vec![vec![NEG; m + 1]; n + 1];
        h[0][0] = 0;
        for j in 1..=m {
            iy[0][j] = p.gap_open + p.gap_extend * j as i32;
            h[0][j] = iy[0][j];
        }
        for i in 1..=n {
            ix[i][0] = p.gap_open + p.gap_extend * i as i32;
            h[i][0] = ix[i][0];
            for j in 1..=m {
                ix[i][j] =
                    (h[i - 1][j] + p.gap_open + p.gap_extend).max(ix[i - 1][j] + p.gap_extend);
                iy[i][j] =
                    (h[i][j - 1] + p.gap_open + p.gap_extend).max(iy[i][j - 1] + p.gap_extend);
                let s = if q.get(i - 1) == r.get(j - 1) {
                    p.match_score
                } else {
                    p.mismatch
                };
                h[i][j] = (h[i - 1][j - 1] + s).max(ix[i][j]).max(iy[i][j]);
            }
        }
        h[n][m]
    }

    fn cigar_consumes(aln: &Alignment) -> (usize, usize) {
        let mut qc = 0;
        let mut rc = 0;
        for op in &aln.cigar {
            match op {
                CigarOp::Match(l) => {
                    qc += *l as usize;
                    rc += *l as usize;
                }
                CigarOp::Ins(l) => qc += *l as usize,
                CigarOp::Del(l) => rc += *l as usize,
            }
        }
        (qc, rc)
    }

    #[test]
    fn identical_sequences_align_perfectly() {
        let p = AlignmentParams::default();
        let a = seq("ACGTACGTACGTACGT");
        let aln = banded_global(&a, &a, &p, 0, 8);
        assert_eq!(aln.score, 16 * p.match_score);
        assert_eq!(aln.matches, 16);
        assert_eq!(aln.identity(), 1.0);
        assert_eq!(cigar_string(&aln.cigar), "16M");
    }

    #[test]
    fn single_mismatch() {
        let p = AlignmentParams::default();
        let aln = banded_global(&seq("ACGTACGT"), &seq("ACGTTCGT"), &p, 0, 4);
        assert_eq!(aln.score, 7 * p.match_score + p.mismatch);
        assert_eq!(aln.matches, 7);
        assert_eq!(cigar_string(&aln.cigar), "8M");
    }

    #[test]
    fn single_insertion_and_deletion() {
        let p = AlignmentParams::default();
        let ins = banded_global(&seq("ACGTTACGT"), &seq("ACGTACGT"), &p, 0, 4);
        assert_eq!(ins.score, 8 * p.match_score + p.gap_open + p.gap_extend);
        let (qc, rc) = cigar_consumes(&ins);
        assert_eq!((qc, rc), (9, 8));

        let del = banded_global(&seq("ACGTACGT"), &seq("ACGTTACGT"), &p, 0, 4);
        assert_eq!(del.score, ins.score);
        let (qc, rc) = cigar_consumes(&del);
        assert_eq!((qc, rc), (8, 9));
    }

    #[test]
    fn affine_gaps_prefer_one_long_gap() {
        let p = AlignmentParams::default();
        // Removing 4 consecutive bases: expect a single 4-long deletion run.
        let r = seq("ACGGCAATCGGTTACG");
        let q = seq("ACGGCGGTTACG"); // drop "AATC" at position 5..9
        let aln = banded_global(&q, &r, &p, 0, 8);
        let dels: Vec<u32> = aln
            .cigar
            .iter()
            .filter_map(|op| match op {
                CigarOp::Del(l) => Some(*l),
                _ => None,
            })
            .collect();
        assert_eq!(dels, vec![4]);
        assert_eq!(
            aln.score,
            12 * p.match_score + p.gap_open + 4 * p.gap_extend
        );
    }

    #[test]
    fn empty_inputs() {
        let p = AlignmentParams::default();
        let e = DnaSeq::new();
        let a = seq("ACGT");
        let aln = banded_global(&e, &e, &p, 0, 2);
        assert_eq!(aln.score, 0);
        assert!(aln.cigar.is_empty());
        let aln = banded_global(&e, &a, &p, 0, 2);
        assert_eq!(aln.score, p.gap_open + 4 * p.gap_extend);
        assert_eq!(cigar_string(&aln.cigar), "4D");
        let aln = banded_global(&a, &e, &p, 0, 2);
        assert_eq!(cigar_string(&aln.cigar), "4I");
    }

    #[test]
    fn banded_matches_full_gotoh_on_random_pairs() {
        let p = AlignmentParams::default();
        let mut rng = seeded(7);
        for trial in 0..25 {
            let n = rng.random_range(5..120usize);
            let truth = GenomeBuilder::new(n)
                .seed(trial as u64)
                .build()
                .sequence()
                .clone();
            let (obs, _) = ErrorModel::with_total_rate(0.2).apply(&truth, &mut rng);
            let banded = banded_global(&obs, &truth, &p, 0, 48.max(n / 2));
            let full = full_gotoh_score(&obs, &truth, &p);
            assert_eq!(banded.score, full, "trial {trial}");
            // CIGAR must consume exactly both sequences.
            let (qc, rc) = cigar_consumes(&banded);
            assert_eq!((qc, rc), (obs.len(), truth.len()), "trial {trial}");
        }
    }

    #[test]
    fn cigar_score_is_consistent() {
        // Recomputing the score from the traceback path must reproduce the
        // DP score (catches traceback bugs).
        let p = AlignmentParams::default();
        let mut rng = seeded(9);
        let truth = GenomeBuilder::new(200).seed(5).build().sequence().clone();
        let (obs, _) = ErrorModel::with_total_rate(0.15).apply(&truth, &mut rng);
        let aln = banded_global(&obs, &truth, &p, 0, 64);
        let mut score = 0i32;
        let (mut qi, mut ri) = (0usize, 0usize);
        for op in &aln.cigar {
            match op {
                CigarOp::Match(l) => {
                    for _ in 0..*l {
                        score += if obs.get(qi) == truth.get(ri) {
                            p.match_score
                        } else {
                            p.mismatch
                        };
                        qi += 1;
                        ri += 1;
                    }
                }
                CigarOp::Ins(l) => {
                    score += p.gap_open + p.gap_extend * *l as i32;
                    qi += *l as usize;
                }
                CigarOp::Del(l) => {
                    score += p.gap_open + p.gap_extend * *l as i32;
                    ri += *l as usize;
                }
            }
        }
        assert_eq!(score, aln.score);
    }

    #[test]
    fn narrow_band_still_terminates_with_offset_center() {
        let p = AlignmentParams::default();
        let g = GenomeBuilder::new(400).seed(11).build().sequence().clone();
        let q = g.subseq(100, 200);
        // Center the band on the true diagonal offset (query starts at 100).
        let aln = banded_global(&q, &g, &p, 100, 16);
        assert!(aln.matches >= 190, "matches {}", aln.matches);
    }

    #[test]
    fn cells_equal_the_closed_form_band_area() {
        // `Alignment::cells` feeds the Fig. 10 cost models (`ChunkWork`,
        // `WorkloadTotals::align_cells`), so it is pinned to the band's area,
        // `Σ_i (hi(i) − lo(i) + 1) − 1`, whatever the kernel's row layout:
        // centred, offset either way, beyond `m − n`, clipped at both edges,
        // wider than the whole matrix, and empty on either side.
        let p = AlignmentParams::default();
        let g = GenomeBuilder::new(400).seed(13).build().sequence().clone();
        for (n, m, center, halfwidth) in [
            (50usize, 50usize, 0i64, 4usize),
            (40, 70, 10, 5),
            (70, 40, -3, 8),
            (30, 30, 25, 2),
            (30, 90, -20, 3),
            (120, 100, 40, 0),
            (200, 180, 0, 500),
            (0, 12, 0, 2),
            (12, 0, 0, 2),
            (0, 0, 0, 0),
        ] {
            let widen = (center.unsigned_abs() as usize)
                .max((m as i64 - n as i64 - center).unsigned_abs() as usize);
            let hw = (halfwidth.max(widen) + 1) as i64;
            let area: i64 = (0..=n as i64)
                .map(|i| {
                    let lo = (i + center - hw).clamp(0, m as i64);
                    let hi = (i + center + hw).clamp(0, m as i64);
                    hi - lo + 1
                })
                .sum();
            let aln = banded_global(&g.subseq(7, n), &g.subseq(0, m), &p, center, halfwidth);
            assert_eq!(
                aln.cells as i64,
                area - 1,
                "n {n} m {m} center {center} halfwidth {halfwidth}"
            );
        }

        // The same area when the band is a table of row origins: a zig-zag
        // clipped on the left, two columns a row into the right edge, and a
        // vertical band over a window shorter than the query.
        for (n, m, width, first, steps) in [
            (60usize, 60usize, 9usize, -4i64, [0i64, 2].as_slice()),
            (40, 79, 5, -2, &[2]),
            (30, 6, 12, -5, &[0]),
        ] {
            let mut scratch = AlignScratch::new();
            scratch.load(&g.subseq(7, n), &g, 0..m, false);
            scratch.base.push(first);
            for i in 0..n {
                scratch.base.push(scratch.base[i] + steps[i % steps.len()]);
            }
            let area: i64 = scratch
                .base
                .iter()
                .map(|&base| (base + width as i64 - 1).min(m as i64) - base.max(0) + 1)
                .sum();
            let band = scratch.size_rows(width);
            assert_eq!(
                scratch.run(&p, &band).cells as i64,
                area - 1,
                "n {n} m {m} width {width} first {first} steps {steps:?}"
            );
        }
    }

    #[test]
    fn cells_respect_band() {
        let p = AlignmentParams::default();
        let a = GenomeBuilder::new(500).seed(12).build().sequence().clone();
        let narrow = banded_global(&a, &a, &p, 0, 8);
        let wide = banded_global(&a, &a, &p, 0, 128);
        assert!(narrow.cells < wide.cells);
        assert_eq!(narrow.score, wide.score);
    }
}
