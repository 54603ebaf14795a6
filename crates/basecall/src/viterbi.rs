//! Viterbi decoding over the k-mer state space.
//!
//! The HMM has one state per pore k-mer. At every signal sample the strand
//! either *stays* (the same k-mer keeps occupying the pore) or *advances* by
//! one base (the k-mer shifts left and a new base enters). The decoder finds
//! the maximum-likelihood state path and reports, per sample, the state and
//! whether the path advanced — which is all the basecaller needs to emit
//! bases.
//!
//! # Hot-path organization
//!
//! The decode is the dominant kernel of the whole pipeline (n·n_states DP
//! cells per chunk), so the implementation is built for steady-state reuse
//! and for the vector units.
//!
//! **One scratch.** All working memory lives in a caller-owned
//! [`DecodeScratch`], so decoding a stream of equally sized chunks performs
//! **zero heap allocations** after the first chunk warms the buffers, and
//! nothing but the take words of row 0 is cleared between chunks (records
//! 1… are overwritten before the traceback reads them).
//!
//! **One record layout.** The advance predecessors of state `s` are
//! `(s >> 2) | (c << k_shift)` for `c = 0..4`: the same four for all four
//! states of a *group* `s >> 2`. So what the traceback needs per sample is
//! not a byte per state but a **take word** (bit `s` set iff the best path
//! into `s` advanced, one `u64` per 64 states) and the **group choices**
//! (the winning `c + 1` per group, `n_states / 4` bytes): 24 bytes a sample
//! at `k = 3` where a byte matrix `choice & mask(take)` holds 64 — the same
//! 16 choices four times over and a bit as a byte. A 2 477-sample chunk's
//! records are 59 KB, not 158 KB. Every row body writes these records and
//! the one `traceback` reads them; `init_row` sets at most four bits of
//! row 0.
//!
//! **Two row bodies, chosen once per decode** from what the code observes
//! (state count, CPU feature) in [`DecodeScratch::dp_rows`]:
//!
//! * The **portable row** ([`DecodeScratch::dp_rows_portable`]) runs on
//!   every host and every `k`. Emissions are computed
//!   [`EmissionModel::BLOCK`] samples at a time over structure-of-arrays
//!   weight columns, and a DP row is two elementwise sweeps over contiguous
//!   slices, with no gather and no data-dependent branch. *Pass 1*: element
//!   `s >> 2` of each of the four contiguous *quarters* of the previous row
//!   are the predecessors, so the best one per group is a 4-way strict-`>`
//!   maximum, with the winning quarter kept as the group's choice, over
//!   `n_states / 4`-wide slices; the value is then repeated ×4 into an
//!   `n_states`-wide row. *Pass 2*: `take = advance > stay` selects the
//!   score and the emission is added in the same sweep; the take flags are
//!   then packed eight to a byte by one multiply.
//! * At **64 states on x86-64 with AVX2** — the only size the pipeline
//!   runs — the row is written with `std::arch` (`viterbi/avx2.rs`). The
//!   portable row is latency-bound through memory, not compute-bound: its
//!   score row, per-group maxima and their ×4 expansion are slices of
//!   run-time length, so each is stored and reloaded (narrow stores read
//!   back as wide loads) before the next row, which depends on all of it,
//!   can start — 87 cycles a row where the arithmetic needs 40, and no
//!   portable spelling tried moved it (fixed-size locals: unchanged, still
//!   spilled; lane arrays with integer masks: slower). The `std::arch` row
//!   keeps the 64 scores in eight `__m256` for the whole chunk: pass 1 is
//!   three `max_ps` per half, the ×4 expansion one lane permute per vector,
//!   pass 2 add / compare / `max_ps` / add, the take word eight
//!   `movemask_ps`, and each sample's emission is computed in-register from
//!   the weight columns, so no emission block is written or reloaded.
//!
//! Every value is produced by the same `f32` `+`, `*` and strict `>` on the
//! same operands in the same order as the scalar kernel both replaced
//! (selects instead of branches, nothing reassociated, no FMA), so states,
//! advance flags, score and the `mvm_ops` / `cells` counters are
//! bit-identical to it. For the `std::arch` row that rests on one operand
//! order: `_mm256_max_ps(v, best)` returns its *second* operand unless
//! `v > best` — on equal operands, on a NaN in either, on `-inf` against
//! `-inf` — which is `if v > best { v } else { best }` exactly, so the
//! maximum's value needs no compare; a `cmp_ps(GT_OQ)` and a blend compute
//! only the stored choice, off the row-to-row dependency chain. The scalar
//! kernel lives on, test-only, as the oracle of `viterbi/differential.rs`,
//! which holds both bodies to it row by row of the records and to each
//! other bit for bit.

use crate::emission::EmissionModel;

/// Result of decoding one chunk of samples (owning variant, produced by
/// [`decode`]; the allocation-free path is [`decode_with`]).
#[derive(Debug, Clone, PartialEq)]
pub struct DecodeOutcome {
    /// Decoded state per sample.
    pub states: Vec<u16>,
    /// `true` at sample `t` if the path advanced into a new k-mer at `t`
    /// (always `false` at sample 0: the initial state "appears" rather than
    /// advances).
    pub advanced: Vec<bool>,
    /// Log-probability score of the winning path (emissions + transitions).
    pub score: f64,
    /// Number of emission MVMs performed (= number of samples).
    pub mvm_ops: usize,
    /// Number of Viterbi DP cells computed (= samples × states).
    pub cells: usize,
}

impl DecodeOutcome {
    /// The state occupying the pore after the last sample; feed this into the
    /// next chunk's decode as `init_state` to stitch chunks together.
    pub fn final_state(&self) -> Option<u16> {
        self.states.last().copied()
    }
}

/// Scalar results of an in-place decode; the state path lives in the
/// [`DecodeScratch`] that was passed in.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DecodeStats {
    /// Log-probability score of the winning path.
    pub score: f64,
    /// Emission MVMs performed (= number of samples).
    pub mvm_ops: usize,
    /// Viterbi DP cells computed (= samples × states).
    pub cells: usize,
}

/// Reusable decode workspace.
///
/// Holds every buffer the DP needs (the per-sample backpointer records, the
/// score rows, and — for the portable row — the emission block, the
/// per-group and expanded advance rows and the take bytes) plus the output
/// state path. Buffers grow to the largest chunk seen and are then reused,
/// so a steady-state stream of chunks decodes without touching the
/// allocator.
#[derive(Debug, Clone, Default)]
pub struct DecodeScratch {
    /// Take words, [`take_words`] per sample: bit `s % 64` of word `s / 64`
    /// is set iff the best path into state `s` advanced. Never shrinks, and
    /// only row 0 is cleared per decode.
    take: Vec<u64>,
    /// Group choices, `n_states / 4` bytes per sample: pass 1's winning
    /// quarter `1..=4` per predecessor group (the dropped leading base of the
    /// advance into any state of the group, plus one). Never shrinks and is
    /// never cleared: a choice is read only where a take bit is set.
    group_choice: Vec<u8>,
    prev: Vec<f32>,
    curr: Vec<f32>,
    emit: Vec<f32>,
    /// Pass 1's best advance per predecessor group (`n_states / 4` wide) …
    adv_best: Vec<f32>,
    /// … repeated ×4 (`n_states` wide), aligned with the score rows.
    adv_best_x: Vec<f32>,
    /// Pass 2's `take` per state as a 0/1 byte, zero-padded to a multiple of
    /// eight, before it is packed into the take words.
    take_x: Vec<u8>,
    states: Vec<u16>,
    advanced: Vec<bool>,
}

/// Take words per sample: one bit per state.
fn take_words(n_states: usize) -> usize {
    n_states.div_ceil(64)
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
    /// larger chunk than ever before arrives.
    fn prepare(&mut self, n: usize, n_states: usize) {
        // Every buffer but three is written in full before it is read — the
        // score, emission and advance rows per sample, records 1.. by the DP
        // rows, `states` by the traceback — so only its length matters. The
        // take words of row 0 are read as left by the init (which sets at
        // most four bits), `advanced[0]` is written only on a stitched start,
        // and the padding of `take_x` is never written: those start from
        // zero.
        let (words, n_groups) = (take_words(n_states), n_states / 4);
        if self.take.len() < n * words {
            self.take.resize(n * words, 0);
        }
        if n > 0 {
            self.take[..words].fill(0);
        }
        if self.group_choice.len() < n * n_groups {
            self.group_choice.resize(n * n_groups, 0);
        }
        self.prev.resize(n_states, 0.0);
        self.curr.resize(n_states, 0.0);
        self.emit.resize(EmissionModel::BLOCK * n_states, 0.0);
        self.adv_best.resize(n_groups, 0.0);
        self.adv_best_x.resize(n_states, 0.0);
        self.take_x.clear();
        self.take_x.resize(n_states.next_multiple_of(8), 0);
        self.states.resize(n, 0);
        self.advanced.clear();
        self.advanced.resize(n, false);
    }

    /// Row 0: the first sample's scores into `prev`, and — when stitched to
    /// `init_state` — the boundary step's records into row 0.
    ///
    /// An advance into state `s` came from `(s >> 2) | (c << k_shift)` where
    /// `c + 1` is the choice of `s`'s group: the dropped leading base.
    fn init_row(
        &mut self,
        emission: &EmissionModel,
        x: f32,
        tr: Transitions,
        init_state: Option<u16>,
    ) {
        let n_states = emission.states();
        let k_shift = (n_states.trailing_zeros() - 2) as usize; // 2(k-1) bits
        let (prev, emit) = (&mut self.prev, &mut self.emit);
        emission.log_likelihoods(x, &mut emit[..n_states]);
        match init_state {
            Some(s0) => {
                // The previous chunk ended in s0; crossing the chunk boundary
                // is one ordinary HMM step, so the first sample either stays
                // in s0 or advances into one of its successors.
                let s0 = s0 as usize;
                prev.fill(f32::NEG_INFINITY);
                prev[s0] = emit[s0] + tr.log_stay;
                for b in 0..4usize {
                    let succ = ((s0 << 2) | b) & (n_states - 1);
                    let cand = emit[succ] + tr.log_advance;
                    if cand > prev[succ] {
                        prev[succ] = cand;
                        self.take[succ / 64] |= 1 << (succ % 64);
                    }
                }
                // The four successors are one group, and the dropped leading
                // base of the advance is s0's top 2 bits for all of them.
                let group = s0 & (n_states / 4 - 1);
                self.group_choice[group] = 1 + (s0 >> k_shift) as u8;
            }
            None => prev.copy_from_slice(&emit[..n_states]),
        }
    }

    /// One DP row per sample of `samples` — the decode's samples after its
    /// first, whose records go to rows 1.. — on a scratch the current decode
    /// has sized; leaves the last row in `prev`. This is where the row body
    /// is chosen, once per decode: 64 states on a host with AVX2 run
    /// `avx2::rows`, which computes each sample's emissions in-register;
    /// everything else runs [`DecodeScratch::dp_rows_portable`].
    ///
    /// Not part of the API: public only so that the kernel bench can time
    /// this stage of [`decode_with`] on its own.
    #[doc(hidden)]
    pub fn dp_rows(&mut self, emission: &EmissionModel, samples: &[f32], tr: Transitions) {
        #[cfg(target_arch = "x86_64")]
        if self.prev.len() == avx2::STATES && std::arch::is_x86_feature_detected!("avx2") {
            // At 64 states a sample's records are one take word and
            // `GROUPS` choices; row 0 belongs to the init.
            let n = samples.len();
            let take = &mut self.take[1..=n];
            let choice = &mut self.group_choice[avx2::GROUPS..][..avx2::GROUPS * n];
            let (columns, prev) = (emission.columns(), &mut self.prev);
            // SAFETY: the host supports AVX2, checked on the line above.
            return unsafe { avx2::rows(columns, samples, tr, prev, take, choice) };
        }
        self.dp_rows_portable(emission, samples, tr)
    }

    /// [`DecodeScratch::dp_rows`] through the portable bodies, whatever the
    /// host: the emission block [`EmissionModel::BLOCK`] samples at a time,
    /// then one [`dp_row`] per sample over it.
    ///
    /// Not part of the API: public only so that the kernel bench can record
    /// what the AVX2 row is worth.
    #[doc(hidden)]
    pub fn dp_rows_portable(&mut self, emission: &EmissionModel, samples: &[f32], tr: Transitions) {
        let n_states = self.prev.len();
        let (words, n_groups) = (take_words(n_states), n_states / 4);
        for (b, xs) in samples.chunks(EmissionModel::BLOCK).enumerate() {
            emission.block(xs, &mut self.emit[..xs.len() * n_states]);
            for i in 0..xs.len() {
                let t = 1 + b * EmissionModel::BLOCK + i;
                dp_row(
                    tr,
                    &self.prev,
                    &self.emit[i * n_states..][..n_states],
                    &mut self.curr,
                    &mut self.take[t * words..][..words],
                    &mut self.group_choice[t * n_groups..][..n_groups],
                    &mut self.adv_best,
                    &mut self.adv_best_x,
                    &mut self.take_x,
                );
                std::mem::swap(&mut self.prev, &mut self.curr);
            }
        }
    }

    /// Walks the records from the best final state (last row in `prev`) to
    /// sample 0, writing `states` and `advanced` (at least one sample long);
    /// returns the path score.
    ///
    /// Not part of the API: public only so that the kernel bench can time
    /// this stage of [`decode_with`] on its own.
    #[doc(hidden)]
    pub fn traceback(&mut self, stitched: bool) -> f64 {
        let n_states = self.prev.len();
        let (words, n_groups) = (take_words(n_states), n_states / 4);
        let k_shift = (n_states.trailing_zeros() - 2) as usize;
        let took = |take: &[u64], t: usize, s: usize| take[t * words + s / 64] >> (s % 64) & 1 != 0;
        let (mut state, score) = last_argmax(self.prev.iter().copied());
        for t in (1..self.states.len()).rev() {
            self.states[t] = state as u16;
            self.advanced[t] = took(&self.take, t, state);
            if self.advanced[t] {
                let choice = self.group_choice[t * n_groups + (state >> 2)];
                state = (state >> 2) | (((choice - 1) as usize) << k_shift);
            }
        }
        self.states[0] = state as u16;
        // Sample 0 advanced only if we were stitched to a previous chunk and
        // the winning path took the boundary-advance branch. states[0] then
        // already holds the advanced-into state, which is what callers emit
        // from.
        if stitched {
            self.advanced[0] = took(&self.take, 0, state);
        }
        score as f64
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

/// Decodes `samples` into the maximum-likelihood state path, allocating the
/// result.
///
/// Convenience wrapper over [`decode_with`] for one-shot callers; hot loops
/// should own a [`DecodeScratch`] and call [`decode_with`] instead.
pub fn decode(
    emission: &EmissionModel,
    samples: &[f32],
    transitions: Transitions,
    init_state: Option<u16>,
) -> DecodeOutcome {
    let mut scratch = DecodeScratch::new();
    let stats = decode_with(emission, samples, transitions, init_state, &mut scratch);
    DecodeOutcome {
        states: scratch.states,
        advanced: scratch.advanced,
        score: stats.score,
        mvm_ops: stats.mvm_ops,
        cells: stats.cells,
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
/// samples that drive every score to `-inf` or NaN still decode to *a* path
/// (callers that must reject such input check it first, as
/// `Basecaller::call_chunk_with` does).
pub fn decode_with(
    emission: &EmissionModel,
    samples: &[f32],
    transitions: Transitions,
    init_state: Option<u16>,
    scratch: &mut DecodeScratch,
) -> DecodeStats {
    let n_states = emission.states();
    debug_assert!(n_states.is_power_of_two() && n_states >= 4);
    let n = samples.len();
    scratch.prepare(n, n_states);
    if n == 0 {
        return DecodeStats::default();
    }
    scratch.init_row(emission, samples[0], transitions, init_state);
    scratch.dp_rows(emission, &samples[1..], transitions);
    let score = scratch.traceback(init_state.is_some());
    DecodeStats {
        score,
        mvm_ops: n,
        cells: n * n_states,
    }
}

/// One portable DP row: `curr` and the sample's records (`take` words,
/// `choice` per predecessor group) from `prev` and the sample's emissions
/// (see the module docs for the two passes and why they are bit-identical to
/// the scalar recurrence).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn dp_row(
    tr: Transitions,
    prev: &[f32],
    emit: &[f32],
    curr: &mut [f32],
    take: &mut [u64],
    choice: &mut [u8],
    adv_best: &mut [f32],
    adv_best_x: &mut [f32],
    take_x: &mut [u8],
) {
    let n_states = prev.len();
    let n_groups = n_states / 4;

    // Pass 1: prev[low | (c << k_shift)] is element `low` of quarter `c`.
    let (q0, rest) = prev.split_at(n_groups);
    let (q1, rest) = rest.split_at(n_groups);
    let (q2, q3) = rest.split_at(n_groups);
    let (q3, adv_best, choice) = (
        &q3[..n_groups],
        &mut adv_best[..n_groups],
        &mut choice[..n_groups],
    );
    for low in 0..n_groups {
        let (mut best, mut quarter) = (q0[low], 1u8);
        for (c, v) in [(2u8, q1[low]), (3, q2[low]), (4, q3[low])] {
            let better = v > best;
            best = if better { v } else { best };
            quarter = if better { c } else { quarter };
        }
        adv_best[low] = best + tr.log_advance;
        choice[low] = quarter;
    }
    let (best_x, _) = adv_best_x.as_chunks_mut::<4>();
    for (best_x, &best) in best_x[..n_groups].iter_mut().zip(&*adv_best) {
        *best_x = [best; 4];
    }

    // Pass 2: stay or advance, emission added in the same sweep.
    let (emit, curr, adv, took) = (
        &emit[..n_states],
        &mut curr[..n_states],
        &adv_best_x[..n_states],
        &mut take_x[..n_states],
    );
    for s in 0..n_states {
        let stay = prev[s] + tr.log_stay;
        let take = adv[s] > stay;
        curr[s] = (if take { adv[s] } else { stay }) + emit[s];
        took[s] = take as u8;
    }

    // Eight 0/1 bytes to eight bits: byte `i` of the little-endian word times
    // 2^(56 - 7i) lands on bit `56 + i`, and no two of the 64 partial
    // products share a bit, so nothing carries. Each packed byte enters a
    // take word at the top and is shifted down by those after it — a
    // recurrence, so that the multiply stays one scalar `imul` (spread over
    // 64-bit vector lanes it is emulated, at several times the cost).
    let (eights, _) = take_x.as_chunks::<8>();
    for (word, eights) in take.iter_mut().zip(eights.chunks(8)) {
        let packed = eights.iter().fold(0u64, |word, bytes| {
            let top = u64::from_le_bytes(*bytes).wrapping_mul(0x0102_0408_1020_4080);
            word >> 8 | top & 0xff << 56
        });
        *word = packed >> (64 - 8 * eights.len());
    }
}

/// Index and value of the maximum of `scores`, the *last* one among equals
/// (`Iterator::max_by`'s rule); a NaN never beats a number, so no input
/// panics. `scores` must be non-empty.
fn last_argmax(scores: impl Iterator<Item = f32>) -> (usize, f32) {
    let mut scores = scores.enumerate();
    let mut best = scores.next().expect("non-empty state space");
    for (s, v) in scores {
        if v >= best.1 || best.1.is_nan() {
            best = (s, v);
        }
    }
    best
}

#[cfg(target_arch = "x86_64")]
mod avx2;

#[cfg(test)]
mod differential;

#[cfg(test)]
mod tests {
    use super::*;
    use genpip_signal::PoreModel;

    fn setup() -> (PoreModel, EmissionModel, Transitions) {
        let pore = PoreModel::synthetic(3, 7);
        let em = EmissionModel::from_pore_model(&pore);
        (pore, em, Transitions::from_mean_dwell(8.0))
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
        let (_, em, tr) = setup();
        let out = decode(&em, &[], tr, None);
        assert!(out.states.is_empty());
        assert_eq!(out.mvm_ops, 0);
        assert_eq!(out.final_state(), None);
    }

    #[test]
    fn clean_signal_recovers_state_path() {
        let (pore, em, tr) = setup();
        // Walk: AAA -> AAC -> ACG -> CGT (states 0b000000, 0b000001, ...).
        let path = [0b000000u16, 0b000001, 0b000110, 0b011011];
        // Validate it's a legal walk.
        for w in path.windows(2) {
            assert_eq!((w[1] >> 2), w[0] & 0b001111);
        }
        let samples = signal_for(&pore, &path, 8);
        let out = decode(&em, &samples, tr, None);
        // Decoded dwell blocks must match the path.
        let mut decoded_path = vec![out.states[0]];
        for t in 1..out.states.len() {
            if out.advanced[t] {
                decoded_path.push(out.states[t]);
            }
        }
        assert_eq!(decoded_path, path);
        assert_eq!(out.mvm_ops, samples.len());
        assert_eq!(out.cells, samples.len() * em.states());
    }

    #[test]
    fn advance_count_matches_transitions() {
        let (pore, em, tr) = setup();
        let path = [3u16, 12, 48, 65 & 63, 7];
        // Make the path legal by construction instead: random walk.
        let mut legal = vec![path[0]];
        let mut s = path[0];
        for b in [1u16, 3, 0, 2, 1, 0] {
            s = ((s << 2) | b) & 63;
            legal.push(s);
        }
        let samples = signal_for(&pore, &legal, 10);
        let out = decode(&em, &samples, tr, None);
        let advances = out.advanced.iter().filter(|&&a| a).count();
        assert_eq!(advances, legal.len() - 1);
    }

    #[test]
    fn stitched_decode_continues_path() {
        let (pore, em, tr) = setup();
        let mut states = vec![9u16];
        let mut s = 9u16;
        for b in [0u16, 2, 3, 1, 1, 0, 2] {
            s = ((s << 2) | b) & 63;
            states.push(s);
        }
        let samples = signal_for(&pore, &states, 8);
        let (first, second) = samples.split_at(samples.len() / 2);
        let a = decode(&em, first, tr, None);
        let b = decode(&em, second, tr, a.final_state());
        // The stitched decode must start where the previous chunk ended (or
        // one advance past it).
        let boundary_state = a.final_state().unwrap();
        let succs: Vec<u16> = (0..4).map(|c| ((boundary_state << 2) | c) & 63).collect();
        assert!(
            b.states[0] == boundary_state || succs.contains(&b.states[0]),
            "chunk 2 starts at {} which is neither {} nor its successor",
            b.states[0],
            boundary_state
        );
    }

    #[test]
    fn scratch_reuse_is_bit_identical_to_fresh_decode() {
        // The same scratch driven across chunks of varying sizes and noise
        // must give results identical to a fresh allocation each time.
        let (pore, em, tr) = setup();
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
            let fresh = decode(&em, &samples, tr, carry);
            let stats = decode_with(&em, &samples, tr, carry, &mut scratch);
            assert_eq!(scratch.states(), &fresh.states[..], "seed {seed}");
            assert_eq!(scratch.advanced(), &fresh.advanced[..], "seed {seed}");
            assert_eq!(stats.score, fresh.score, "seed {seed}");
            assert_eq!(stats.mvm_ops, fresh.mvm_ops);
            assert_eq!(stats.cells, fresh.cells);
            assert_eq!(scratch.final_state(), fresh.final_state());
            carry = fresh.final_state();
        }
    }

    #[test]
    fn viterbi_matches_brute_force_on_tiny_input() {
        let (pore, em, tr) = setup();
        // 4 noisy samples; brute-force all 64 * 5^3 paths.
        let samples = [
            pore.level_bits(5) + 0.3,
            pore.level_bits(5) - 0.2,
            pore.level_bits(((5 << 2) | 1) & 63) + 0.1,
            pore.level_bits(((5 << 2) | 1) & 63) - 0.4,
        ];
        let out = decode(&em, &samples, tr, None);

        // Brute force: enumerate all state sequences where each step is stay
        // or one of the 4 advances.
        let mut best = f64::NEG_INFINITY;
        let n_states = em.states();
        let mut stack: Vec<(usize, usize, f64)> = (0..n_states)
            .map(|s| (1usize, s, em.log_likelihood(samples[0], s) as f64))
            .collect();
        while let Some((t, s, score)) = stack.pop() {
            if t == samples.len() {
                best = best.max(score);
                continue;
            }
            let e = |s2: usize| em.log_likelihood(samples[t], s2) as f64;
            stack.push((t + 1, s, score + tr.log_stay as f64 + e(s)));
            for b in 0..4usize {
                let s2 = ((s << 2) | b) & (n_states - 1);
                stack.push((t + 1, s2, score + tr.log_advance as f64 + e(s2)));
            }
        }
        assert!(
            (out.score - best).abs() < 1e-3,
            "viterbi {} vs brute force {}",
            out.score,
            best
        );
    }

    #[test]
    #[should_panic(expected = "mean dwell")]
    fn transitions_reject_dwell_of_one() {
        let _ = Transitions::from_mean_dwell(1.0);
    }
}
