//! Viterbi decoding over the k-mer state space, in fixed point.
//!
//! The HMM has one state per pore k-mer. At every signal sample the strand
//! either *stays* (the same k-mer keeps occupying the pore) or *advances* by
//! one base (the k-mer shifts left and a new base enters). The decoder finds
//! the maximum-likelihood state path and reports, per sample, the state and
//! whether the path advanced — which is all the basecaller needs to emit
//! bases.
//!
//! # The fixed-point model
//!
//! Scores are integers: log-probabilities in units of `1/S` nat, built once
//! per basecaller by [`FixedPointModel::new`] from its pore model and
//! transitions — the limited-precision arithmetic GenPIP's crossbars
//! basecall with; the [`EmissionModel`](crate::EmissionModel) `f32`
//! weights are the accuracy reference the tests hold the decode to.
//!
//! * **Emissions** are a table, `[bin][state]`, over
//!   [`FixedPointModel::BINS`] equal current bins that span the model's
//!   lowest and highest level ±8σ (¼ pA each for the synthetic chemistry; a
//!   sample outside the span takes the nearest end bin). Entry `(b, s)` is
//!   `round(S · max(e_s(x_b) − max_s' e_s'(x_b), −C))` for the Gaussian
//!   log-density `e_s` at the bin centre `x_b`, `C =`
//!   [`FixedPointModel::FLOOR_NATS`]: subtracting the per-bin maximum removes
//!   the state-independent `x²` term exactly, so every entry lies in
//!   `[−C·S, 0]`.
//! * **Transitions** are `round(S · log_stay)` and `round(S · log_advance)`,
//!   both `≤ 0`.
//! * **`S`** is [`FixedPointModel::MAX_SCALE`] unless the bound below needs
//!   it lower — a reader-supplied pore model or dwell never breaks the bound,
//!   it only coarsens the quanta.
//!
//! Integer `+`, `max` and strict `>` are exact, so every row body computes
//! the same numbers, and a scalar `i64` row with no renormalisation (the
//! test-only oracle of `viterbi/differential.rs`) computes the same rows up
//! to their offsets, and so the same decisions: a uniform shift of a row
//! changes no comparison.
//!
//! # The row and its `i16` bound
//!
//! A row is `i16`: the absolute score `V_t` minus an offset `O_t`, and the
//! offset is the maximum of the row **two** back, `O_t = max V_{t−2}`
//! (`O_0 = O_1 = 0`). That maximum is taken over pass 1's per-group bests —
//! which cover every state — while row `t − 1` is computed, and enters row
//! `t` folded into the two transition constants: it is subtracted one row
//! late, off the row-to-row dependency chain.
//!
//! **No value saturates.** Let `E = C·S`, `M` the larger transition
//! magnitude, and `k = log4(states)`. Every transition and emission is
//! `≤ 0`, so `max V_t` never rises and every stored value is `≤ 0`. From
//! the best state of row `t − k`, `k` advances reach any state, so
//! `V_t ≥ max V_{t−k} − k(E + M)`, and since `O_t = max V_{t−2} ≤ max V_{t−k}`
//! for `k ≥ 2` the stored row is `≥ −k(E + M)` (at `k = 1` the lag costs one
//! more step, `−2(E + M)`). Before row `k` every state can still stay from
//! row 0, whose values are emissions (`≥ −E`) or — on a stitched start — a
//! transition plus an emission, with the states the previous chunk's final
//! state cannot reach in one step at the finite floor `−(E + M + 1)` (below
//! every reachable start, never `i16::MIN`). A pass-2 candidate adds one
//! transition before its emission. Together:
//!
//! ```text
//! every stored or intermediate score ≥ −(max(k, 2) · (E + M) + M + 1)
//! ```
//!
//! which `S` is chosen to keep within
//! `i16::MAX`: 20 089 at `k = 3`, `S = 64` and the synthetic dwell.
//! `viterbi/differential.rs` measures the deepest value on hostile inputs
//! (samples at ±1e6, levels 1e6 apart, `event_std` 1e-6, dwells of 1 + 1e-9
//! and 1e12) and holds it above the bound.
//!
//! # Hot-path organization
//!
//! **One scratch.** All working memory lives in a caller-owned
//! [`DecodeScratch`], so decoding a stream of equally sized chunks performs
//! **zero heap allocations** after the first chunk warms the buffers, and
//! nothing is cleared between chunks: every buffer a decode reads it has
//! written first.
//!
//! **The record holds scores, not decisions.** A row body does not decide,
//! state by state, whether the best path into a state stayed or advanced:
//! the traceback needs that for one state per sample, the path's. So the
//! record of sample `t ≥ 1` is the row the step started from — stored row
//! `t − 1`, as renormalised — followed by pass 1's maximum of each
//! predecessor group of it: `n_states + n_states / 4` `i16`, 160 bytes a
//! sample at `k = 3`. Every row body writes these records and the one
//! `traceback` decides on them. At the path's state `s`, group `g = s >> 2`
//! (the advance predecessors of `s` are `g | (c << 2(k−1))`, `c = 0..4`, the
//! same four for the four states of a group):
//!
//! * the path **advanced** into `s` iff `best[g] − row[s] > log_stay −
//!   log_advance`, in `i32`. The row's renormalisation step is added to both
//!   candidates, so it cancels, and the test is the row body's own `advance >
//!   stay`, exactly;
//! * the **predecessor** is then `g | (c << 2(k−1))` for the lowest quarter
//!   `c` whose entry equals `best[g]` — pass 1's strict-`>` tie rule. All
//!   four entries are compared with `best[g]` into a 4-bit mask, and `c` is
//!   its `trailing_zeros`: a real chunk's path is new to the branch
//!   predictor, and a search that stops at the first equal entry mispredicts
//!   about once per advance on it (a kernel row that decodes one chunk over
//!   and over hides that: the predictor learns the chunk). An empty mask
//!   cannot happen and panics.
//!
//! The stay-or-advance test stays a branch: a select on the path's state
//! with no branch at all puts the record loads on the dependency chain from
//! one sample to the next, which measured slower on workload chunks.
//!
//! Sample 0 of a stitched decode follows `init_row`'s arithmetic: it
//! advanced iff its state is a successor of the carried state `s0` and
//! either differs from `s0` or `log_advance > log_stay`. A path that starts
//! in a floor state did not advance.
//!
//! **Bins first.** Before the rows, one pass turns the chunk's samples into
//! emission-table bins, a `u16` each; the rows only index the table. Before
//! the AVX2 row the pass converts eight samples at a time (`sub`, `mul`,
//! `max(·, 0)`, `min(·, BINS − 1)`, `cvtt`), equal to the scalar bin for
//! every `f32`; before the portable row it is the scalar bin itself.
//!
//! **Two row bodies, chosen once per decode** from what the code observes
//! (state count, CPU feature) in [`DecodeScratch::dp_rows`]:
//!
//! * The **portable row** ([`DecodeScratch::dp_rows_portable`]) runs on
//!   every host and every `k`: it copies the row into the record; *pass 1*
//!   takes the best of each group's four predecessors — element `s >> 2` of
//!   the row's four contiguous quarters — into the record and repeats it,
//!   plus the advance, ×4; *pass 2* takes the greater of advance and stay
//!   and adds the sample's emission row.
//! * At **64 states on x86-64 with AVX2** — the only size the pipeline
//!   runs — the row is written with `std::arch` (`viterbi/avx2.rs`): 64
//!   `i16` scores in four `__m256i` for the whole chunk, quarter `c` being
//!   vector `c`, so pass 1 is three `max`es, the record five stores, and the
//!   ×4 expansion a permute plus a `pshufb` per vector. The renormalisation
//!   lag stays in registers: the step a broadcast `i16` vector, the row
//!   maximum a broadcast `max`, the offset a running `i64` sum of the steps
//!   — the same integers as the portable row's `Lag`, so the same offsets.
//!
//! The `f32` decode this model replaced lives on, test-only, in
//! `viterbi/differential.rs` as the accuracy reference.

use genpip_signal::PoreModel;

/// The fixed-point scoring model of the decoder: a quantised emission table
/// and quantised transitions (see the module docs for the model and the
/// `i16` bound it is scaled to keep).
#[derive(Debug, Clone, PartialEq)]
pub struct FixedPointModel {
    states: usize,
    /// Quanta per nat, `S`.
    scale: i32,
    /// Current at the low edge of bin 0 (pA).
    origin: f32,
    /// Bins per pA.
    bins_per_pa: f32,
    /// `BINS × states` quantised emissions, row-major by bin.
    table: Vec<i16>,
    log_stay: i16,
    log_advance: i16,
    /// Start score of the states a stitched start cannot reach.
    floor: i16,
}

impl FixedPointModel {
    /// Quanta per nat unless the `i16` bound needs fewer.
    pub const MAX_SCALE: i32 = 64;
    /// `C`: an emission more than this many nats below the best state's at
    /// the same current is clamped to it.
    pub const FLOOR_NATS: f64 = 100.0;
    /// Current bins of the emission table (¼ pA over the synthetic
    /// chemistry's 60–120 pA ± 8σ). Fixed, so no table size comes from a
    /// reader-supplied model.
    pub const BINS: usize = 304;
    /// Half-width of the binned current span beyond the extreme levels, in
    /// event standard deviations.
    const SPAN_SIGMAS: f64 = 8.0;
    /// A transition below this many nats is clamped to it (no finite `f64`
    /// dwell comes near).
    const TRANSITION_CAP_NATS: f64 = 1000.0;

    /// Quantises `pore`'s emissions and `transitions` at the largest scale
    /// up to [`FixedPointModel::MAX_SCALE`] that keeps every score inside
    /// `i16`.
    pub fn new(pore: &PoreModel, transitions: Transitions) -> FixedPointModel {
        let (states, k) = (pore.states(), pore.k());
        let nats = |v: f32| f64::from(v).clamp(-Self::TRANSITION_CAP_NATS, 0.0);
        let (stay, advance) = (nats(transitions.log_stay), nats(transitions.log_advance));
        let quantise = |scale: i32, v: f64| (f64::from(scale) * v).round() as i32;
        let scale = (1..=Self::MAX_SCALE)
            .rev()
            .find(|&s| {
                Self::bound_at(k, s, quantise(s, stay), quantise(s, advance)) <= i32::from(i16::MAX)
            })
            .expect("S = 1 keeps the bound for every capped transition");

        let sigma = f64::from(pore.event_std());
        let (lo, hi) = pore
            .levels()
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), &l| {
                (lo.min(f64::from(l)), hi.max(f64::from(l)))
            });
        let (lo, hi) = (
            lo - Self::SPAN_SIGMAS * sigma,
            hi + Self::SPAN_SIGMAS * sigma,
        );
        let width = (hi - lo) / Self::BINS as f64;
        let mut table = Vec::with_capacity(Self::BINS * states);
        let mut sq = vec![0.0f64; states];
        for b in 0..Self::BINS {
            let x = lo + (b as f64 + 0.5) * width;
            for (sq, &level) in sq.iter_mut().zip(pore.levels()) {
                *sq = (x - f64::from(level)).powi(2);
            }
            let best = sq.iter().copied().fold(f64::INFINITY, f64::min);
            table.extend(sq.iter().map(|&sq| {
                let relative = (-(sq - best) / (2.0 * sigma * sigma)).max(-Self::FLOOR_NATS);
                quantise(scale, relative) as i16
            }));
        }
        let (log_stay, log_advance) = (quantise(scale, stay), quantise(scale, advance));
        let floor = -(quantise(scale, Self::FLOOR_NATS) - log_stay.min(log_advance) + 1);
        FixedPointModel {
            states,
            scale,
            origin: lo as f32,
            bins_per_pa: (1.0 / width) as f32,
            table,
            log_stay: log_stay as i16,
            log_advance: log_advance as i16,
            floor: floor as i16,
        }
    }

    /// The proved bound at scale `S` for `k`-mers and quantised transitions
    /// (module docs): `max(k, 2)(E + M) + M + 1`, `M` the larger transition
    /// magnitude.
    fn bound_at(k: usize, scale: i32, log_stay: i32, log_advance: i32) -> i32 {
        let e = (f64::from(scale) * Self::FLOOR_NATS).round() as i32;
        let m = -log_stay.min(log_advance);
        k.max(2) as i32 * (e + m) + m + 1
    }

    /// Number of states.
    #[inline]
    pub fn states(&self) -> usize {
        self.states
    }

    /// `S`: score quanta per nat.
    #[inline]
    pub fn scale(&self) -> i32 {
        self.scale
    }

    /// The emission-table bin of sample `x`: the nearest end bin outside the
    /// span (NaN takes bin 0).
    #[inline]
    fn bin(&self, x: f32) -> usize {
        // `as` saturates: negative offsets and NaN go to 0.
        (((x - self.origin) * self.bins_per_pa) as usize).min(Self::BINS - 1)
    }

    /// The quantised emission of every state in current bin `bin`.
    #[inline]
    fn emission_row(&self, bin: usize) -> &[i16] {
        &self.table[bin * self.states..][..self.states]
    }

    /// The quantised emission of every state for sample `x`.
    #[inline]
    pub fn emissions(&self, x: f32) -> &[i16] {
        self.emission_row(self.bin(x))
    }
}

/// Scalar results of an in-place decode; the state path lives in the
/// [`DecodeScratch`] that was passed in.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DecodeStats {
    /// Score of the winning path in nats (the integer score divided by `S`).
    pub score: f64,
    /// Emission MVMs performed (= number of samples).
    pub mvm_ops: usize,
    /// Viterbi DP cells computed (= samples × states).
    pub cells: usize,
}

/// Reusable decode workspace.
///
/// Holds every buffer the DP needs (the emission bins, the per-sample
/// records, the score rows, and — for the portable row — the expanded
/// advance row) plus the output state path. Buffers grow to the largest
/// chunk seen and are then reused, so a steady-state stream of chunks
/// decodes without touching the allocator.
///
/// **Footprint.** The records dominate: `2.5 · n_states` bytes per sample
/// (the stored row and its `n_states / 4` group maxima, 160 bytes at `k = 3`)
/// against 2 bytes of bin, 2 of state and 1 of advance flag. A 2 477-sample
/// chunk at `k = 3` holds about 400 KB; at `k = 6`, the largest `k` a GSC
/// header may carry, a record is 10 KB and the chunk about 25 MB.
#[derive(Debug, Clone, Default)]
pub struct DecodeScratch {
    /// The emission-table bin of every sample the DP rows consume (the
    /// decode's samples after its first).
    bins: Vec<u16>,
    /// The records, [`record_len`] `i16` per sample `t ≥ 1`, sample `t`'s
    /// at index `t − 1`: the stored row `t − 1` (its scores minus its
    /// offset) and then pass 1's maximum of each predecessor group of it.
    /// Never shrinks and is never cleared: the DP rows write the records of
    /// samples `1..n` before the traceback reads them.
    records: Vec<i16>,
    prev: Vec<i16>,
    curr: Vec<i16>,
    /// `O_t` of the row in `prev`: its scores are the absolute ones minus
    /// this.
    offset: i64,
    /// The portable row's best advance per predecessor group, repeated ×4
    /// (`n_states` wide), aligned with the score rows.
    adv_best_x: Vec<i16>,
    states: Vec<u16>,
    advanced: Vec<bool>,
}

/// `i16` per record: a score row plus one maximum per predecessor group.
fn record_len(n_states: usize) -> usize {
    n_states + n_states / 4
}

impl DecodeScratch {
    /// Creates an empty workspace; buffers are sized lazily on first use.
    pub fn new() -> DecodeScratch {
        DecodeScratch::default()
    }

    /// Decoded state per sample of the most recent [`decode_with`] call.
    pub fn states(&self) -> &[u16] {
        &self.states
    }

    /// Per-sample advance flags of the most recent [`decode_with`] call.
    pub fn advanced(&self) -> &[bool] {
        &self.advanced
    }

    /// The state occupying the pore after the last decoded sample.
    pub fn final_state(&self) -> Option<u16> {
        self.states.last().copied()
    }

    /// Sizes every buffer for an `n`-sample, `n_states`-state decode.
    /// `resize` reuses existing capacity, so this allocates only when a
    /// larger chunk than ever before arrives. Every buffer is written in full
    /// before it is read — the bins and records by the DP rows, the score
    /// and advance rows per sample, `states` and `advanced` by the traceback
    /// — so only the lengths matter.
    fn prepare(&mut self, n: usize, n_states: usize) {
        let rows = n.saturating_sub(1);
        self.bins.resize(rows, 0);
        if self.records.len() < rows * record_len(n_states) {
            self.records.resize(rows * record_len(n_states), 0);
        }
        self.prev.resize(n_states, 0);
        self.curr.resize(n_states, 0);
        self.adv_best_x.resize(n_states, 0);
        self.states.resize(n, 0);
        self.advanced.resize(n, false);
    }

    /// Row 0: the first sample's scores into `prev` (offset 0). Stitched to
    /// `init_state`, the boundary is one ordinary HMM step: the first sample
    /// stays in the previous chunk's final state or advances into one of its
    /// successors, and every other state starts at the floor, below all of
    /// these.
    fn init_row(&mut self, model: &FixedPointModel, x: f32, init_state: Option<u16>) {
        let n_states = model.states();
        let (prev, emit) = (&mut self.prev, model.emissions(x));
        self.offset = 0;
        match init_state {
            Some(s0) => {
                let s0 = s0 as usize;
                prev.fill(model.floor);
                prev[s0] = emit[s0] + model.log_stay;
                for b in 0..4usize {
                    let succ = ((s0 << 2) | b) & (n_states - 1);
                    prev[succ] = prev[succ].max(emit[succ] + model.log_advance);
                }
            }
            None => prev.copy_from_slice(emit),
        }
    }

    /// One DP row per sample of `samples` — the decode's samples after its
    /// first, so `samples[i]`'s record is record `i` — on a scratch the
    /// current decode has sized; leaves the last row in `prev`. This is
    /// where the row body is chosen, once per decode: 64 states on a host
    /// with AVX2 run `avx2::bins` and `avx2::rows`; everything else runs
    /// [`DecodeScratch::dp_rows_portable`], as does every host when compiled
    /// with `--cfg genpip_portable` (the test leg that pins the goldens
    /// through the portable rows).
    ///
    /// Not part of the API: public only so that the kernel bench can time
    /// this stage of [`decode_with`] on its own.
    #[doc(hidden)]
    pub fn dp_rows(&mut self, model: &FixedPointModel, samples: &[f32]) {
        #[cfg(all(target_arch = "x86_64", not(genpip_portable)))]
        if self.prev.len() == avx2::STATES && std::arch::is_x86_feature_detected!("avx2") {
            let n = samples.len();
            let (bins, records) = (
                &mut self.bins[..n],
                &mut self.records[..n * record_len(avx2::STATES)],
            );
            // SAFETY: the host supports AVX2, checked on the line above.
            self.offset = unsafe {
                avx2::bins(model, samples, bins);
                avx2::rows(model, bins, self.offset, &mut self.prev, records)
            };
            return;
        }
        self.dp_rows_portable(model, samples)
    }

    /// [`DecodeScratch::dp_rows`] through the portable row, whatever the
    /// host.
    ///
    /// Not part of the API: public only so that the kernel bench can record
    /// what the AVX2 row is worth.
    #[doc(hidden)]
    pub fn dp_rows_portable(&mut self, model: &FixedPointModel, samples: &[f32]) {
        let n_states = self.prev.len();
        let bins = &mut self.bins[..samples.len()];
        for (bin, &x) in bins.iter_mut().zip(samples) {
            *bin = model.bin(x) as u16;
        }
        let records = self.records.chunks_exact_mut(record_len(n_states));
        let mut lag = Lag::start(self.offset);
        for (&bin, record) in bins.iter().zip(records) {
            portable_row(
                model,
                model.emission_row(usize::from(bin)),
                &mut lag,
                &self.prev,
                &mut self.curr,
                record,
                &mut self.adv_best_x,
            );
            std::mem::swap(&mut self.prev, &mut self.curr);
        }
        self.offset = lag.offset();
    }

    /// Walks the records from the best final state (last row in `prev`) to
    /// sample 0, deciding stay or advance and the predecessor at the path's
    /// state only (see the module docs), and writes `states` and `advanced`
    /// (at least one sample long); returns the integer path score.
    /// `init_state` is the decode's.
    ///
    /// Not part of the API: public only so that the kernel bench can time
    /// this stage of [`decode_with`] on its own.
    #[doc(hidden)]
    pub fn traceback(&mut self, model: &FixedPointModel, init_state: Option<u16>) -> i64 {
        let n_states = model.states();
        let n_groups = n_states / 4;
        // Advancing wins iff it beats staying by more than this.
        let margin = i32::from(model.log_stay) - i32::from(model.log_advance);
        let (mut state, score) = last_argmax(&self.prev);
        let (n, len) = (self.states.len(), record_len(n_states));
        let records = self.records[..(n - 1) * len].chunks_exact(len);
        let path = self.states[1..].iter_mut().zip(&mut self.advanced[1..]);
        for ((out, advanced), record) in path.zip(records).rev() {
            let (row, best) = record.split_at(n_states);
            let group = state >> 2;
            *out = state as u16;
            *advanced = i32::from(best[group]) - i32::from(row[state]) > margin;
            if *advanced {
                let ties = (0..4).fold(0u32, |ties, c| {
                    ties | u32::from(row[group + c * n_groups] == best[group]) << c
                });
                assert!(ties != 0, "a group's maximum is one of its four entries");
                state = group + ties.trailing_zeros() as usize * n_groups;
            }
        }
        self.states[0] = state as u16;
        // Sample 0 advanced only on a stitched start whose path took the
        // boundary advance; states[0] then already holds the advanced-into
        // state, which is what callers emit from.
        self.advanced[0] = init_state.is_some_and(|s0| {
            let s0 = usize::from(s0);
            state >> 2 == s0 & (n_groups - 1) && (state != s0 || model.log_advance > model.log_stay)
        });
        i64::from(score) + self.offset
    }
}

/// The one-row-late renormalisation both row bodies share: row `t` is
/// stored minus `O_t = max V_{t−2}`, and the step `O_t − O_{t−1}` (in
/// `[−(E + M + 1), 0]`) is folded into the row's two transition constants.
#[derive(Debug, Clone, Copy)]
struct Lag {
    /// `O_{t−2}`.
    back: i64,
    /// `O_{t−1}`: the offset of the previous row.
    prev: i64,
    /// `max` of the stored row `t − 2`.
    back_max: i16,
}

impl Lag {
    /// Before the first row of a call: the row in `prev` is row 0 of the
    /// lag, at `offset`, and so is the (fictitious) row before it, whose
    /// maximum is taken as 0 — no score is above 0.
    fn start(offset: i64) -> Lag {
        Lag {
            back: offset,
            prev: offset,
            back_max: 0,
        }
    }

    /// `O_t`, the offset of the row being computed.
    #[inline(always)]
    fn next(&self) -> i64 {
        self.back + i64::from(self.back_max)
    }

    /// The row's stay and advance constants with its renormalisation step
    /// folded in.
    #[inline(always)]
    fn transitions(&self, model: &FixedPointModel) -> (i16, i16) {
        let step = (self.next() - self.prev) as i16;
        (model.log_stay - step, model.log_advance - step)
    }

    /// Moves to the next row, given the maximum of the stored previous row.
    #[inline(always)]
    fn push(&mut self, prev_max: i16) {
        let next = self.next();
        (self.back, self.prev, self.back_max) = (self.prev, next, prev_max);
    }

    /// The offset of the last row pushed.
    fn offset(&self) -> i64 {
        self.prev
    }
}

/// Viterbi decoder configuration: the transition log-probabilities derived
/// from the mean dwell time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transitions {
    /// log P(stay in current k-mer for one more sample).
    pub log_stay: f32,
    /// log P(advance to one specific successor k-mer).
    pub log_advance: f32,
}

impl Transitions {
    /// Builds transitions from a mean dwell time in samples per base.
    ///
    /// `P(advance) = 1/mean_dwell`, split uniformly over the 4 successor
    /// k-mers.
    ///
    /// # Panics
    ///
    /// Panics unless `mean_dwell > 1` (a dwell of exactly 1 leaves zero
    /// probability of staying, which degenerates the HMM).
    pub fn from_mean_dwell(mean_dwell: f64) -> Transitions {
        assert!(mean_dwell > 1.0, "mean dwell must be > 1 sample/base");
        let p_adv = 1.0 / mean_dwell;
        Transitions {
            log_stay: (1.0 - p_adv).ln() as f32,
            log_advance: (p_adv / 4.0).ln() as f32,
        }
    }
}

/// Decodes `samples` into the maximum-likelihood state path, writing the
/// per-sample states and advance flags into `scratch`.
///
/// `init_state`, when present, pins the path's first state to the final state
/// of the previous chunk (chunk stitching); otherwise the initial state is
/// free (uniform prior).
///
/// Returns an empty outcome for an empty sample slice. In steady state
/// (chunks no larger than previously decoded ones) this performs no heap
/// allocation — verified by `tests/alloc_free.rs`. The function is total:
/// every `f32`, NaN and the infinities included, falls in some emission bin
/// (callers that must reject such input check it first, as
/// `Basecaller::call_chunk_with` does).
///
/// # Panics
///
/// Panics if `init_state` is not a state of `model` (a carry from a decoder
/// with another `k`), naming the state and the model's state count.
pub fn decode_with(
    model: &FixedPointModel,
    samples: &[f32],
    init_state: Option<u16>,
    scratch: &mut DecodeScratch,
) -> DecodeStats {
    let n_states = model.states();
    debug_assert!(n_states.is_power_of_two() && n_states >= 4);
    if let Some(s0) = init_state {
        assert!(
            usize::from(s0) < n_states,
            "carried state {s0} is not a state of this {n_states}-state model"
        );
    }
    let n = samples.len();
    scratch.prepare(n, n_states);
    if n == 0 {
        return DecodeStats::default();
    }
    scratch.init_row(model, samples[0], init_state);
    scratch.dp_rows(model, &samples[1..]);
    let score = scratch.traceback(model, init_state);
    DecodeStats {
        score: score as f64 / f64::from(model.scale()),
        mvm_ops: n,
        cells: n * n_states,
    }
}

/// One portable DP row: `curr` from `prev` and the sample's emissions, and
/// the sample's record — `prev` itself, then pass 1's group maxima (see the
/// module docs for the two passes).
#[inline(always)]
fn portable_row(
    model: &FixedPointModel,
    emit: &[i16],
    lag: &mut Lag,
    prev: &[i16],
    curr: &mut [i16],
    record: &mut [i16],
    adv_best_x: &mut [i16],
) {
    let n_states = prev.len();
    let n_groups = n_states / 4;
    let (stay_tr, adv_tr) = lag.transitions(model);
    let (row, best) = record.split_at_mut(n_states);
    row.copy_from_slice(prev);

    // Pass 1: prev[low | (c << k_shift)] is element `low` of quarter `c`.
    // Every state is in some group, so the groups' bests also give the
    // row's maximum, which the lag subtracts from the row after next.
    let (q0, rest) = prev.split_at(n_groups);
    let (q1, rest) = rest.split_at(n_groups);
    let (q2, q3) = rest.split_at(n_groups);
    let (q3, best) = (&q3[..n_groups], &mut best[..n_groups]);
    for low in 0..n_groups {
        best[low] = q0[low].max(q1[low]).max(q2[low]).max(q3[low]);
    }
    lag.push(best.iter().copied().fold(i16::MIN, i16::max));
    let (best_x, _) = adv_best_x.as_chunks_mut::<4>();
    for (best_x, &best) in best_x[..n_groups].iter_mut().zip(&*best) {
        *best_x = [best + adv_tr; 4];
    }

    // Pass 2: stay or advance, emission added in the same sweep.
    let (emit, curr, adv) = (
        &emit[..n_states],
        &mut curr[..n_states],
        &adv_best_x[..n_states],
    );
    for s in 0..n_states {
        curr[s] = adv[s].max(prev[s] + stay_tr) + emit[s];
    }
}

/// Index and value of the maximum of `scores`, the *last* one among equals
/// (`Iterator::max_by_key`'s rule). `scores` must be non-empty.
fn last_argmax(scores: &[i16]) -> (usize, i16) {
    let (s, &v) = scores
        .iter()
        .enumerate()
        .max_by_key(|&(_, v)| v)
        .expect("non-empty state space");
    (s, v)
}

#[cfg(target_arch = "x86_64")]
#[cfg_attr(genpip_portable, allow(dead_code))]
mod avx2;

#[cfg(test)]
mod differential;

#[cfg(test)]
impl FixedPointModel {
    /// The proved bound of this model: no stored or intermediate score of a
    /// decode goes below `−bound()`, and `bound() ≤ i16::MAX`.
    fn bound(&self) -> i32 {
        let k = self.states.trailing_zeros() as usize / 2;
        Self::bound_at(k, self.scale, self.log_stay.into(), self.log_advance.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genpip_signal::PoreModel;

    fn setup() -> (PoreModel, FixedPointModel) {
        let pore = PoreModel::synthetic(3, 7);
        let model = FixedPointModel::new(&pore, Transitions::from_mean_dwell(8.0));
        (pore, model)
    }

    /// One decode in a fresh workspace, which holds the state path.
    fn decode(
        model: &FixedPointModel,
        samples: &[f32],
        init: Option<u16>,
    ) -> (DecodeStats, DecodeScratch) {
        let mut scratch = DecodeScratch::new();
        let stats = decode_with(model, samples, init, &mut scratch);
        (stats, scratch)
    }

    /// Builds a clean signal that dwells `dwell` samples in each state of
    /// `path` (which must be a valid k-mer walk).
    fn signal_for(pore: &PoreModel, path: &[u16], dwell: usize) -> Vec<f32> {
        let mut out = Vec::new();
        for &s in path {
            for _ in 0..dwell {
                out.push(pore.level_bits(s as u64));
            }
        }
        out
    }

    #[test]
    fn empty_input_empty_output() {
        let (_, model) = setup();
        let (stats, out) = decode(&model, &[], None);
        assert!(out.states().is_empty());
        assert_eq!(stats.mvm_ops, 0);
        assert_eq!(out.final_state(), None);
    }

    #[test]
    fn clean_signal_recovers_state_path() {
        let (pore, model) = setup();
        // Walk: AAA -> AAC -> ACG -> CGT (states 0b000000, 0b000001, ...).
        let path = [0b000000u16, 0b000001, 0b000110, 0b011011];
        // Validate it's a legal walk.
        for w in path.windows(2) {
            assert_eq!((w[1] >> 2), w[0] & 0b001111);
        }
        let samples = signal_for(&pore, &path, 8);
        let (stats, out) = decode(&model, &samples, None);
        // Decoded dwell blocks must match the path.
        let mut decoded_path = vec![out.states()[0]];
        for t in 1..out.states().len() {
            if out.advanced()[t] {
                decoded_path.push(out.states()[t]);
            }
        }
        assert_eq!(decoded_path, path);
        assert_eq!(stats.mvm_ops, samples.len());
        assert_eq!(stats.cells, samples.len() * model.states());
    }

    #[test]
    fn advance_count_matches_transitions() {
        let (pore, model) = setup();
        let path = [3u16, 12, 48, 65 & 63, 7];
        // Make the path legal by construction instead: random walk.
        let mut legal = vec![path[0]];
        let mut s = path[0];
        for b in [1u16, 3, 0, 2, 1, 0] {
            s = ((s << 2) | b) & 63;
            legal.push(s);
        }
        let samples = signal_for(&pore, &legal, 10);
        let (_, out) = decode(&model, &samples, None);
        let advances = out.advanced().iter().filter(|&&a| a).count();
        assert_eq!(advances, legal.len() - 1);
    }

    #[test]
    fn stitched_decode_continues_path() {
        let (pore, model) = setup();
        let mut states = vec![9u16];
        let mut s = 9u16;
        for b in [0u16, 2, 3, 1, 1, 0, 2] {
            s = ((s << 2) | b) & 63;
            states.push(s);
        }
        let samples = signal_for(&pore, &states, 8);
        let (first, second) = samples.split_at(samples.len() / 2);
        let (_, a) = decode(&model, first, None);
        let (_, b) = decode(&model, second, a.final_state());
        // The stitched decode must start where the previous chunk ended (or
        // one advance past it).
        let boundary_state = a.final_state().unwrap();
        let succs: Vec<u16> = (0..4).map(|c| ((boundary_state << 2) | c) & 63).collect();
        assert!(
            b.states()[0] == boundary_state || succs.contains(&b.states()[0]),
            "chunk 2 starts at {} which is neither {} nor its successor",
            b.states()[0],
            boundary_state
        );
    }

    #[test]
    fn scratch_reuse_is_bit_identical_to_fresh_decode() {
        // The same scratch driven across chunks of varying sizes and noise
        // must give results identical to a fresh allocation each time.
        let (pore, model) = setup();
        let mut scratch = DecodeScratch::new();
        let mut carry: Option<u16> = None;
        for seed in 0..12u16 {
            let mut path = vec![seed % 64];
            let mut s = path[0];
            for b in 0..(4 + seed % 7) {
                s = ((s << 2) | (b % 4)) & 63;
                path.push(s);
            }
            let mut samples = signal_for(&pore, &path, 6 + (seed as usize % 5));
            // Perturb the signal deterministically so ties and near-ties
            // occur in both code paths identically.
            for (i, x) in samples.iter_mut().enumerate() {
                *x += ((i * 2654435761) % 97) as f32 * 0.01 - 0.48;
            }
            let (fresh_stats, fresh) = decode(&model, &samples, carry);
            let stats = decode_with(&model, &samples, carry, &mut scratch);
            assert_eq!(scratch.states(), fresh.states(), "seed {seed}");
            assert_eq!(scratch.advanced(), fresh.advanced(), "seed {seed}");
            assert_eq!(stats, fresh_stats, "seed {seed}");
            assert_eq!(scratch.final_state(), fresh.final_state());
            carry = fresh.final_state();
        }
    }

    #[test]
    fn viterbi_matches_brute_force_on_tiny_input() {
        let (pore, model) = setup();
        // 4 noisy samples; brute-force all 64 * 5^3 paths.
        let samples = [
            pore.level_bits(5) + 0.3,
            pore.level_bits(5) - 0.2,
            pore.level_bits(((5 << 2) | 1) & 63) + 0.1,
            pore.level_bits(((5 << 2) | 1) & 63) - 0.4,
        ];
        let (stats, _) = decode(&model, &samples, None);

        // Brute force over the same quantised model: enumerate all state
        // sequences where each step is stay or one of the 4 advances. The
        // arithmetic is exact, so the scores are equal, not close.
        let mut best = i64::MIN;
        let n_states = model.states();
        let e = |t: usize, s: usize| i64::from(model.emissions(samples[t])[s]);
        let mut stack: Vec<(usize, usize, i64)> =
            (0..n_states).map(|s| (1usize, s, e(0, s))).collect();
        while let Some((t, s, score)) = stack.pop() {
            if t == samples.len() {
                best = best.max(score);
                continue;
            }
            stack.push((t + 1, s, score + i64::from(model.log_stay) + e(t, s)));
            for b in 0..4usize {
                let s2 = ((s << 2) | b) & (n_states - 1);
                stack.push((t + 1, s2, score + i64::from(model.log_advance) + e(t, s2)));
            }
        }
        assert_eq!(stats.score, best as f64 / f64::from(model.scale()));
    }

    /// Traces back a two-sample decode whose one record is written by hand:
    /// the path ends in `state`, which it advanced into, and the record's
    /// row holds the group maximum in the quarters of `ties` (bit `c` for
    /// quarter `c`) and less in the others. Returns the predecessor picked.
    fn predecessor_of(model: &FixedPointModel, state: usize, ties: u32) -> usize {
        let n_states = model.states();
        let (group, n_groups) = (state >> 2, n_states / 4);
        let mut scratch = DecodeScratch::new();
        scratch.prepare(2, n_states);
        scratch.offset = 0;
        scratch.prev.fill(-100);
        scratch.prev[state] = 0;
        let (row, best) = scratch.records[..record_len(n_states)].split_at_mut(n_states);
        row.fill(-1_000);
        best.fill(-40);
        for c in 0..4 {
            let tied = ties >> c & 1 == 1;
            row[group + c * n_groups] = if tied { -40 } else { -41 - c as i16 };
        }
        assert!(
            row[state] == -1_000,
            "the path's state is not one of its predecessors"
        );
        scratch.traceback(model, None);
        assert_eq!(scratch.advanced(), [false, true]);
        assert_eq!(usize::from(scratch.states()[1]), state);
        usize::from(scratch.states()[0])
    }

    /// The states that are not advance predecessors of themselves, so the
    /// hand-written record can score the path's own entry apart.
    fn states_apart(model: &FixedPointModel) -> impl Iterator<Item = usize> {
        let n_groups = model.states() / 4;
        (0..model.states()).filter(move |&s| (0..4).all(|c| s != (s >> 2) + c * n_groups))
    }

    #[test]
    fn the_predecessor_is_the_lowest_tied_quarter_for_every_mask() {
        let (_, model) = setup();
        let n_groups = model.states() / 4;
        for state in states_apart(&model) {
            for ties in 1..16u32 {
                let lowest = (0..4).find(|c| ties >> c & 1 == 1).expect("non-empty");
                assert_eq!(
                    predecessor_of(&model, state, ties),
                    (state >> 2) + lowest * n_groups,
                    "state {state}, ties {ties:04b}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "a group's maximum is one of its four entries")]
    fn a_group_maximum_that_no_quarter_holds_panics() {
        let (_, model) = setup();
        let state = states_apart(&model).next().expect("a state");
        predecessor_of(&model, state, 0);
    }

    #[test]
    #[should_panic(expected = "mean dwell")]
    fn transitions_reject_dwell_of_one() {
        let _ = Transitions::from_mean_dwell(1.0);
    }

    #[test]
    fn the_synthetic_model_keeps_the_full_scale_and_a_bounded_table() {
        let (pore, model) = setup();
        assert_eq!(model.scale(), FixedPointModel::MAX_SCALE);
        assert!(model.bound() <= i32::from(i16::MAX));
        let e = i32::from(FixedPointModel::FLOOR_NATS as i16) * model.scale();
        assert_eq!(model.table.len(), FixedPointModel::BINS * model.states());
        for row in model.table.chunks_exact(model.states()) {
            assert!(row.iter().all(|&q| (-e..=0).contains(&i32::from(q))));
            assert_eq!(
                row.iter().max(),
                Some(&0),
                "the per-bin best state scores 0"
            );
        }
        // A sample at a level scores that level's state best, and the span
        // covers the levels ±8σ in quarter-pA bins.
        for s in [0usize, 17, 63] {
            let emit = model.emissions(pore.level_bits(s as u64));
            assert_eq!(emit[s], 0, "state {s}");
        }
        assert!((1.0 / model.bins_per_pa - 0.25).abs() < 1e-6);
        assert_eq!(
            model.floor,
            -(e - model.log_stay.min(model.log_advance) as i32 + 1) as i16
        );
    }

    #[test]
    fn samples_outside_the_span_take_the_end_bins() {
        let (_, model) = setup();
        let last = FixedPointModel::BINS - 1;
        for (x, bin) in [
            (-1e6f32, 0),
            (0.0, 0),
            (f32::NEG_INFINITY, 0),
            (f32::NAN, 0),
            (1e6, last),
            (f32::INFINITY, last),
        ] {
            assert_eq!(model.bin(x), bin, "{x}");
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn the_avx2_bin_pass_is_the_scalar_bin_for_every_kind_of_f32() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            eprintln!("skipped: this host has no AVX2, so no decode runs the AVX2 bin pass");
            return;
        }
        let (pore, model) = setup();
        // Equal levels and an event std of 1e-40 leave the binned span no
        // width: `bins_per_pa` is +∞, and `(x − origin) · ∞` is NaN at
        // `x == origin`.
        let flat = PoreModel::from_parts(3, vec![pore.levels()[0]; 64], 1e-40);
        let narrow = FixedPointModel::new(&flat, Transitions::from_mean_dwell(8.0));
        assert_eq!(narrow.bins_per_pa, f32::INFINITY);
        for model in [&model, &narrow] {
            let nans = [
                0x7fc0_0000u32,
                0xffc0_0000,
                0x7f80_0001,
                0xff80_1234,
                0x7fff_ffff,
            ];
            let mut xs: Vec<f32> = nans.into_iter().map(f32::from_bits).collect();
            xs.extend([
                f32::INFINITY,
                f32::NEG_INFINITY,
                0.0,
                -0.0,
                f32::MAX,
                f32::MIN,
            ]);
            xs.extend([1e6, -1e6, 3e38, -3e38, model.origin]);
            // Subnormals: the least, the greatest, and one between.
            for bits in [1u32, 0x007f_ffff, 0x0040_0000] {
                xs.extend([f32::from_bits(bits), -f32::from_bits(bits)]);
            }
            // Every bin edge and the floats on either side of it.
            for b in 0..=FixedPointModel::BINS {
                let edge = model.origin + b as f32 / model.bins_per_pa;
                xs.extend([edge.next_down(), edge, edge.next_up()]);
            }
            let mut bins = vec![0u16; xs.len()];
            // Every length modulo the sixteen-sample vector step, twice
            // over, so that each value meets the vector body and the tail.
            for len in 1..=33 {
                for xs in xs.chunks(len) {
                    let bins = &mut bins[..xs.len()];
                    // SAFETY: the host supports AVX2, checked above.
                    unsafe { avx2::bins(model, xs, bins) };
                    for (&x, &bin) in xs.iter().zip(&*bins) {
                        assert_eq!(usize::from(bin), model.bin(x), "{x:e} ({:#x})", x.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn hostile_models_lower_the_scale_instead_of_breaking_the_bound() {
        let pore = PoreModel::synthetic(6, 7);
        for dwell in [1.0 + 1e-9, 8.0, 1e12, f64::MAX] {
            let model = FixedPointModel::new(&pore, Transitions::from_mean_dwell(dwell));
            assert!(model.bound() <= i32::from(i16::MAX), "dwell {dwell}");
            assert!((1..=FixedPointModel::MAX_SCALE).contains(&model.scale()));
        }
        // k = 6 cannot keep S = 64 (6 · 6 400 alone is past i16).
        let model = FixedPointModel::new(&pore, Transitions::from_mean_dwell(8.0));
        assert!(model.scale() < FixedPointModel::MAX_SCALE);
        // Transitions nobody derives from a dwell are clamped to [-1000, 0]
        // nats, so they cannot break it either.
        let silly = Transitions {
            log_stay: f32::NEG_INFINITY,
            log_advance: 5.0,
        };
        let model = FixedPointModel::new(&pore, silly);
        assert!(model.bound() <= i32::from(i16::MAX));
        assert_eq!(model.log_advance, 0);
    }
}
