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
//!
//! # Rows in `i16` lanes, and the bound that makes them exact
//!
//! On x86-64 with AVX2, under a scoring whose gaps cost (`gap_open,
//! gap_extend ≤ 0`, the mapper's), the DP rows are `i16`, sixteen cells a
//! block (`avx2::Kernel::row`). A row is stored minus an offset carried in
//! `i32`: row `i`'s offset `O_i` is the score of row `i − 1`'s first
//! in-matrix cell (`O_0 = O_1 = 0`). Row `i` is computed in row `i − 1`'s
//! frame, and that cell's stored value — the offset's step `d_i = O_i −
//! O_{i−1}` — comes off every value it stores; `fill` adds the last offset
//! back to the score, so the absolute score has no length limit.
//!
//! **The bound.** Write `o = |gap_open|`, `e = |gap_extend|`, `s⁺ =
//! max(match_score, mismatch)`, and for a band of `W` columns
//!
//! ```text
//! σ = e + max(s⁺, 0)                 per-column slope of a row
//! c = o + e + |match_score| + |mismatch|    what one step adds
//! S = o + σ·(W − 1)                  in-row spread
//! D = 2o + 3σ                        offset step
//! B(W) = S + 2D + 3c + e·W
//! ```
//!
//! Every value the `i16` row computes from a cell some path reaches lies in
//! `[−B, B]`, and every value it computes from a `NEG16` pad lies in
//! `NEG16 ± B`. With `B ≤ 8191` (`MAX_BOUND`) and `NEG16 = −16384` the two
//! ranges are disjoint and inside `i16`, so no lane saturates and every
//! comparison comes out as the `i32` row's: the `i16` row computes the same
//! integers shifted, and the same traceback bits. The proof, for the masked
//! DP the band defines (every in-band cell of row `i ≥ 1` is reachable: its
//! row's first cell has its upper neighbour in band, and the rest follow
//! along the row):
//!
//! 1. *In-row spread.* For in-band cells `j < j'` of one row, `H[j'] ≥
//!    H[j] − o − e(j' − j)` (a gap along the row). And `H[j] ≥ H[j'] − o −
//!    σ(j' − j)`: the best path to `(i, j')` leaves column `j` for the last
//!    time at some `(i', j)`; straight down from there to `(i, j)` stays in
//!    band (the rows that cover a column are consecutive) and costs at most
//!    `o + e(i − i')`, while the rest of that path, `i − i'` query bases
//!    against `j' − j` reference bases, scores at most `σ(j' − j) − e(i − i')`
//!    (each diagonal column gains at most `s⁺` over the two gap columns it
//!    replaces). So `|H[j] − H[j']| ≤ S` within a row.
//! 2. *Offset step.* A row's first cell is at most two columns right of the
//!    previous row's, and in that row's band. It is at least the previous
//!    row's value above it minus `o + e`, and at most the larger of the
//!    values above (`− e`) and up-left (`+ s⁺`); with 1, `|d_i| ≤ D`.
//! 3. *Stored values.* Stored `H` of row `i` is `(H_i[j] − H_i[lo_i]) +
//!    (H_i[lo_i] − O_i)`, within `S + D =: A` by 1 and 2. Stored `Ix` is at
//!    most stored `H`, and at least `H_{i−1}[j] − o − e − O_i ≥ −S − o − e`.
//!    So every stored real value lies in `[−A, A]`.
//! 4. *One row.* Its real inputs lie in `[−A, A]`. Each candidate adds one
//!    step (`|·| ≤ c`), so `T ∈ [−A − c, A + c]`; pass B's `w = T − o + e·k`
//!    (`k < W`) lies in `[−A − 2c, A + c + eW]`, the running maximum `u`
//!    too, and `Iy = u − e·k ≥ −A − 2c − eW`; the shift moves a stored value
//!    by at most `D`. All of it lies in `[−B, B]`, as do the slope vectors'
//!    real lanes (`−o + e·k` and `−e·k`).
//! 5. *Pads.* The pads, pass B's `v[0]` and the prefix maximum's fill are
//!    `NEG16`, which maps to the `i32` rows' `NEG`. The only value derived
//!    from a pad that the fill stores is the `Ix` of a cell with no upper
//!    neighbour, `NEG16 − e − d` (within `NEG16 ± A`), and the next row
//!    compares it only with the same cell's opening from `H`, which is real
//!    and wins. So pad-derived inputs lie in `NEG16 ± A`, and the sums of 4
//!    keep what the row derives from them in `NEG16 ± B`.
//!
//! `fill_dispatch` computes `B` once per alignment: a band whose `B`
//! exceeds `MAX_BOUND`, or a scoring whose gaps pay, runs the portable
//! `i32` row and is counted ([`wide_band_fallbacks`]). At the mapper's
//! corridor — about 70 columns under the default scoring — `B` is about
//! 500; the `i16` rows take bands up to 1 352 columns.

use genpip_genomics::{Base, DnaSeq};
use std::cell::Cell;
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

/// [`NEG`] in the `i16` rows: what the row derives from it, within
/// `± MAX_BOUND` of it, stays below every real value and above `i16::MIN`
/// (module docs).
const NEG16: i16 = i16::MIN / 2;

/// The largest spread bound `B` the `i16` rows take (module docs).
const MAX_BOUND: i64 = -(NEG16 as i64) / 2 - 1;

/// Pad byte around the window's base codes; equals no 2-bit code.
const PAD: u8 = 0xFF;

/// Cells of one block of the AVX2 row.
const LANES: usize = 16;

/// How far past a row's last cell (and its last column) a block of
/// [`LANES`] cells may read: rows carry this many extra `NEG` cells and the
/// window this many extra [`PAD`] bytes, so the AVX2 row needs no per-cell
/// tail logic.
const SLACK: usize = LANES - 1;

thread_local! {
    static WIDE_BANDS: Cell<u64> = const { Cell::new(0) };
}

/// How many alignments on the calling thread ran the portable `i32` row
/// because their band's spread bound `B` does not fit the `i16` rows, or
/// their scoring lets gaps pay (module docs). Zero at the mapper's corridor
/// widths; the count does not depend on the host's vector extensions.
pub fn wide_band_fallbacks() -> u64 {
    WIDE_BANDS.with(Cell::get)
}

/// The spread bound `B(width)` of the module docs under `p`, or `None` for
/// a scoring whose gaps pay (`gap_open > 0` or `gap_extend > 0`), which the
/// proof does not cover.
fn spread_bound(width: usize, p: &AlignmentParams) -> Option<i64> {
    if p.gap_open > 0 || p.gap_extend > 0 {
        return None;
    }
    let [o, e, s_match, s_mismatch] =
        [p.gap_open, p.gap_extend, p.match_score, p.mismatch].map(|v| i64::from(v).abs());
    let width = width as i64;
    let sigma = e + i64::from(p.match_score.max(p.mismatch).max(0));
    let c = o + e + s_match + s_mismatch;
    let spread = o + sigma * (width - 1);
    let shift = 2 * o + 3 * sigma;
    Some(spread + 2 * shift + 3 * c + e * width)
}

/// Whether a band of `width` columns under `p` runs in the `i16` rows.
fn fits_narrow(width: usize, p: &AlignmentParams) -> bool {
    spread_bound(width, p).is_some_and(|b| b <= MAX_BOUND)
}

/// A score lane of the DP rows: the portable row's absolute `i32`s, or the
/// AVX2 row's `i16`s relative to a per-row offset (module docs).
trait Score: Copy + Default {
    /// A cell no path reaches.
    const NEG: Self;

    /// Row 0's values, `gap_open + gap_extend · j`, which fit either lane.
    fn from_i32(v: i32) -> Self;

    fn to_i32(self) -> i32;

    /// What the next row takes off every value it stores, given the value of
    /// this row's first in-matrix cell: nothing for absolute rows.
    fn shift(first: Self) -> Self;
}

impl Score for i32 {
    const NEG: i32 = NEG;

    fn from_i32(v: i32) -> i32 {
        v
    }

    fn to_i32(self) -> i32 {
        self
    }

    fn shift(_: i32) -> i32 {
        0
    }
}

impl Score for i16 {
    const NEG: i16 = NEG16;

    fn from_i32(v: i32) -> i16 {
        v as i16
    }

    fn to_i32(self) -> i32 {
        i32::from(self)
    }

    fn shift(first: i16) -> i16 {
        first
    }
}

/// The rolling DP rows of one lane type: band-relative rows of `1 + width +
/// 2 + SLACK` cells. Cell `c` of row `i` is column `base[i] + c` and sits at
/// index `c + 1`. With `step = base[i] - base[i - 1]`, its diagonal
/// neighbour is the previous row's cell `c + step - 1` and its upper
/// neighbour cell `c + step`: the pad cell on the left is the diagonal
/// neighbour of cell 0 after a step of 0, the two on the right are the
/// neighbours of the last cell after a step of 2, and all three stay `NEG`.
#[derive(Debug, Clone, Default)]
struct Rows<T> {
    h_prev: Vec<T>,
    h_curr: Vec<T>,
    ix_prev: Vec<T>,
    ix_curr: Vec<T>,
}

impl<T: Score> Rows<T> {
    /// All four rows `NEG`, sized for a band of `width` columns.
    fn reset(&mut self, width: usize) {
        for row in [
            &mut self.h_prev,
            &mut self.h_curr,
            &mut self.ix_prev,
            &mut self.ix_curr,
        ] {
            row.clear();
            row.resize(width + 3 + SLACK, T::NEG);
        }
    }
}

/// Reusable working memory of the banded-alignment kernel: the unpacked
/// query and reference window, the window's score profile, the band's table
/// of row origins, the rolling DP rows and the traceback's run stack. One
/// instance per worker thread; a warmed scratch leaves the traceback matrix
/// and the returned CIGAR as an alignment's only allocations. (The matrix,
/// one byte per band cell, is about a quarter of a megabyte for a 3 kb read
/// in the mapper's corridor; it is allocated per call so that no worker pins
/// its largest one.)
///
/// A band is a table of row origins, not a centre and a half-width: row `i`
/// covers the `width` columns from `base[i]` on, clipped to the matrix, and
/// `base[i] - base[i - 1]` is 0, 1 or 2, so the band can follow a chain
/// through its indels (`AlignScratch::align_along`). The straight band of
/// [`banded_global`] is the table whose every step is 1.
///
/// The window and every row end in `SLACK` (15) spare entries, pad bytes and
/// `NEG` cells, that no recurrence reads: the AVX2 row computes sixteen
/// cells at a time, and its last block of a row reads past the row's end.
#[derive(Debug, Clone, Default)]
pub struct AlignScratch {
    /// Query base codes.
    q: Vec<u8>,
    /// Window base codes between one [`PAD`] byte and `SLACK` more: `r[j]` is
    /// the base that DP column `j` consumes, and column 0 (which consumes
    /// none) matches nothing.
    r: Vec<u8>,
    /// The score profile of `r` for the AVX2 row, four rows of `r.len()`:
    /// entry `j` of row `b` is the substitution score of column `j` against
    /// query base code `b` — `match_score` where `r[j] == b`, `mismatch`
    /// elsewhere, [`PAD`] included. Built once per alignment.
    #[cfg(all(target_arch = "x86_64", not(genpip_portable)))]
    prof: Vec<i16>,
    /// Column of each query row's band cell 0, rows `0..=n` (negative left of
    /// the matrix).
    base: Vec<i64>,
    /// The portable row's absolute rows.
    wide: Rows<i32>,
    /// The AVX2 row's offset rows.
    #[cfg(all(target_arch = "x86_64", not(genpip_portable)))]
    narrow: Rows<i16>,
    /// The portable pass B's gap-open candidates, slope removed.
    v: Vec<i32>,
    /// The portable pass B's running maximum over `v`.
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
        self.r.extend([PAD; SLACK]);
    }

    /// The window's length, `m`: the last DP column.
    fn m(&self) -> usize {
        self.r.len() - 1 - SLACK
    }

    /// Lays down [`AlignScratch::prof`] for `params`, whose two substitution
    /// scores fit `i16` on every band the AVX2 row takes.
    #[cfg(all(target_arch = "x86_64", not(genpip_portable)))]
    fn load_profile(&mut self, params: &AlignmentParams) {
        let (hit, miss) = (params.match_score as i16, params.mismatch as i16);
        self.prof.clear();
        for code in 0..4 {
            self.prof
                .extend(self.r.iter().map(|&b| if b == code { hit } else { miss }));
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
        let (cells, score) = fill_dispatch(self, &mut tb, params, band);
        self.finish(&tb, band, cells, score)
    }

    /// The straight band: widens it to keep (0,0) and (n,m) inside and lays
    /// down its all-steps-1 table.
    fn prepare(&mut self, band_center: i64, band_halfwidth: usize) -> Band {
        let (n, m) = (self.q.len(), self.m());
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
        let (n, m) = (self.q.len() as i64, self.m() as i64);
        let hw = halfwidth.max(1) as i64;
        self.base.clear();
        self.base.push(-hw);
        let (mut row, mut col, mut lag) = (0, 0, 0);
        for (to_row, to_col) in pins.chain(std::iter::once((n, m))) {
            if to_row <= row || to_row > n {
                continue;
            }
            // Row `row + i`'s centre is `col + (to_col - col) * i / rows`
            // (the quotient truncated), stepped without a division a row.
            let (rows, cols) = (to_row - row, to_col - col);
            let (whole, part) = (cols.abs() / rows, cols.abs() % rows);
            let (mut quotient, mut remainder) = (0, 0);
            let mut prev = self.base[self.base.len() - 1];
            for _ in 0..rows {
                quotient += whole;
                remainder += part;
                if remainder >= rows {
                    remainder -= rows;
                    quotient += 1;
                }
                let centred = col + cols.signum() * quotient - hw;
                let base = centred.clamp(prev, prev + 2);
                lag = lag.max((centred - base).abs());
                self.base.push(base);
                prev = base;
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

    /// The band of `width` columns from each of `base` on; sizes the portable
    /// pass B's rows for it ([`fill`] sizes the DP rows it runs on).
    fn size_rows(&mut self, width: usize) -> Band {
        let band = Band { m: self.m(), width };
        debug_assert!(width >= 3 && self.base.len() == self.q.len() + 1);
        debug_assert!(self
            .base
            .windows(2)
            .all(|w| (0..=2).contains(&(w[1] - w[0]))));
        let in_row = |i: usize, j: i64| (0..width as i64).contains(&(j - self.base[i]));
        debug_assert!(in_row(0, 0) && in_row(self.q.len(), band.m as i64));
        for row in [&mut self.v, &mut self.u] {
            row.clear();
            row.resize(width + 3 + SLACK, NEG);
        }
        band
    }

    /// Walks the traceback flags from `(n, m)` to the origin; `score` and
    /// `cells` are [`fill`]'s.
    fn finish(&mut self, tb: &[u8], band: &Band, cells: usize, score: i32) -> Alignment {
        let (q, r) = (&self.q, &self.r);
        let base = &self.base;
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

/// Where one row's in-matrix cells sit: row `i`, `len` cells from band cell
/// `clo` (column `lo`) on, `step = base[i] - base[i - 1]`.
#[derive(Debug, Clone, Copy)]
struct Row {
    i: usize,
    step: usize,
    lo: usize,
    clo: usize,
    len: usize,
}

/// The portable row body: [`pass_a`], then the pass B the scoring allows,
/// over the absolute rows.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn portable_row(
    p: &AlignmentParams,
    rows: &mut Rows<i32>,
    qb: u8,
    r: &[u8],
    v: &mut [i32],
    u: &mut [i32],
    row: Row,
    flags: &mut [u8],
) {
    let Row { step, clo, len, .. } = row;
    // Cell `c`'s diagonal neighbour sits at index `c + step` of the previous
    // row (its cell `c + step - 1`, behind the left pad).
    let (h_prev, ix_prev) = (
        &rows.h_prev[clo + step..clo + step + len + 1],
        &rows.ix_prev[clo + step..clo + step + len + 1],
    );
    let (h, ix) = (
        &mut rows.h_curr[1 + clo..1 + clo + len],
        &mut rows.ix_curr[1 + clo..1 + clo + len],
    );
    pass_a(p, qb, r, h_prev, ix_prev, ix, h, v, flags);
    if p.gap_open <= 0 {
        pass_b_running_max(p, v, u, h, flags);
    } else {
        pass_b_scan(p, h, flags);
    }
}

/// Fills `rows` and the traceback matrix with `row_body` computing each row
/// (from the row's geometry and the shift its stored values take); returns
/// the cells computed and the score of the terminal cell.
///
/// Each row's recurrence splits into two passes over the band-relative cells
/// `c`. **Pass A** needs only the previous row — `Ix[c]` from `prev[c + 1]`,
/// the diagonal from `prev[c]`, `T[c] = max(diag, Ix)` and their traceback
/// bits — so it is branch-free selects over contiguous slices. **Pass B**
/// resolves the horizontal recurrence `Iy[c] = max(H[c-1] + o + e, Iy[c-1] +
/// e)`, `H[c] = max(T[c], Iy[c])`. With `o <= 0`, `H[c-1]` can be replaced by
/// `T[c-1]` (its other arm, `Iy[c-1] + o + e`, never beats extending), and
/// `u[c] = Iy[c] - e·c` is the running maximum of `v[c] = T[c-1] + o + e -
/// e·c`: one dependent `max` per cell, everything around it elementwise.
/// The strict `>` of every tie rule carries over: extending beats opening
/// from `T[c-1]` iff `u[c-1] > v[c]`, i.e. `u[c] > v[c]`. (With `o == 0`
/// the scan would instead re-open from `H[c-1] = Iy[c-1]`; that is the same
/// path, so the traceback cannot tell the two apart.) [`portable_row`] runs
/// the passes one after the other over slices; the AVX2 row (`Kernel::row`)
/// runs both on one block of sixteen `i16` cells at a time, the running
/// maximum as a prefix maximum in registers — the same integers up to the
/// rows' offsets (module docs) and the same strict `>`, so the same bits.
///
/// The rolling rows are never cleared between rows. A cell the next row reads
/// is either one this row wrote or one no row ever writes: as `base` only
/// rises, the clip at column 0 only recedes and the clip at column `m` only
/// advances, so what an earlier row left beyond this row's ends lies beyond
/// the next row's neighbours too.
#[inline(always)]
fn fill<T: Score>(
    rows: &mut Rows<T>,
    base: &[i64],
    tb: &mut [u8],
    p: &AlignmentParams,
    band: &Band,
    mut row_body: impl FnMut(&mut Rows<T>, Row, T, &mut [u8]),
) -> (usize, i32) {
    let (n, m, width) = (base.len() - 1, band.m, band.width);
    rows.reset(width);

    // Row 0: leading deletions, stored absolute (`O_0 = 0`).
    let origin = (-base[0]) as usize;
    let hi = (base[0] + (width - 1) as i64).min(m as i64) as usize;
    let row = &mut rows.h_prev[1 + origin..];
    row[0] = T::from_i32(0);
    tb[origin] = 3;
    for j in 1..=hi {
        row[j] = T::from_i32(p.gap_open + p.gap_extend * j as i32);
        // H from Iy, which extends from the second column on.
        tb[origin + j] = if j > 1 { 0b1010 } else { 0b0010 };
    }
    let mut cells = hi;

    // The previous row's first in-matrix cell, and the offset its values
    // are stored under.
    let (mut first, mut offset) = (1 + origin, 0i32);
    for i in 1..=n {
        let base_i = base[i];
        let step = (base_i - base[i - 1]) as usize;
        let lo = base_i.max(0) as usize;
        let hi = (base_i + (width - 1) as i64).min(m as i64) as usize;
        let clo = (lo as i64 - base_i) as usize;
        let len = hi - lo + 1;
        cells += len;
        let flags = &mut tb[i * width + clo..][..len];
        let shift = T::shift(rows.h_prev[first]);
        row_body(
            rows,
            Row {
                i,
                step,
                lo,
                clo,
                len,
            },
            shift,
            flags,
        );
        offset += shift.to_i32();
        first = 1 + clo;
        std::mem::swap(&mut rows.h_prev, &mut rows.h_curr);
        std::mem::swap(&mut rows.ix_prev, &mut rows.ix_curr);
    }
    let score = rows.h_prev[1 + (m as i64 - base[n]) as usize].to_i32() + offset;
    (cells, score)
}

/// [`fill`] over the absolute `i32` rows with [`portable_row`], whatever the
/// host.
fn fill_portable(
    s: &mut AlignScratch,
    tb: &mut [u8],
    p: &AlignmentParams,
    band: &Band,
) -> (usize, i32) {
    let (q, r, v, u) = (&s.q, &s.r, &mut s.v, &mut s.u);
    fill(&mut s.wide, &s.base, tb, p, band, |rows, row, _, flags| {
        let r = &r[row.lo..row.lo + row.len];
        portable_row(p, rows, q[row.i - 1], r, v, u, row, flags)
    })
}

/// [`fill`] with the row body chosen once per alignment, from what the code
/// observes: on x86-64 with AVX2, when the band's spread bound fits
/// ([`fits_narrow`]), the AVX2 row over `i16` rows and the window's score
/// profile; everywhere else [`fill_portable`]. Compiling with `--cfg
/// genpip_portable` leaves only the portable row, for the test leg that pins
/// the goldens through it.
fn fill_dispatch(
    s: &mut AlignScratch,
    tb: &mut [u8],
    p: &AlignmentParams,
    band: &Band,
) -> (usize, i32) {
    let narrow = fits_narrow(band.width, p);
    if !narrow {
        WIDE_BANDS.with(|count| count.set(count.get() + 1));
    }
    #[cfg(all(target_arch = "x86_64", not(genpip_portable)))]
    if narrow && std::arch::is_x86_feature_detected!("avx2") {
        s.load_profile(p);
        // SAFETY: the host supports AVX2, checked on the line above.
        return unsafe { avx2::fill_narrow(s, tb, p, band) };
    }
    fill_portable(s, tb, p, band)
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

#[cfg(all(target_arch = "x86_64", not(genpip_portable)))]
mod avx2;

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
