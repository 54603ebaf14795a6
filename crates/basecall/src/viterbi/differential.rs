//! Differential suite for the fixed-point decode.
//!
//! *Exactness:* both shipped row bodies — the `std::arch` one [`decode_with`]
//! dispatches to at 64 states on a host with AVX2, and the portable one —
//! must leave the same [`DecodeStats`], `states()` and `advanced()` as a
//! scalar `i64` row with no renormalisation, on every state-space size,
//! length, stitched start and tie, and records that are the oracle's: each
//! stored row plus its offset is the oracle's absolute row, each stored group
//! maximum the oracle's, and every decision the traceback takes along the
//! path is the oracle's backpointer. The two bodies agree with each other
//! record for record and on the last stored row and its offset, also on a
//! scratch that earlier decodes of other lengths and sizes left dirty. At
//! 64 states the traceback walks the fixed-size record layout; the same walk
//! over runtime-length records must take every decision it took. The
//! oracle also measures the deepest and the highest score the renormalised
//! `i16` row would hold, which must stay inside the model's proved bounds —
//! on hostile models and samples too.
//!
//! *Accuracy:* the `f32` decode the model replaced is kept here as the
//! reference the quantised decode is measured against.

use super::{
    decode_with, last_argmax, record_len, walk, AnyRecords, DecodeScratch, DecodeStats,
    FixedPointModel, Transitions, K3_STATES,
};
use crate::emission::EmissionModel;
use genpip_genomics::rng::{seeded, Rng};
use genpip_genomics::GenomeBuilder;
use genpip_signal::{PoreModel, SignalSynthesizer};

/// What the `i64` oracle hands back besides its stats and path: every
/// absolute score row, the backpointer matrix (one byte per sample and
/// state: 0 for stay, else the group choice) and the deepest and the highest
/// score, relative to the renormalisation offset `O_t = m_{t−2}`, of any
/// stored or pass-2 candidate value.
struct Oracle {
    stats: DecodeStats,
    states: Vec<u16>,
    advanced: Vec<bool>,
    /// `n × n_states` absolute scores, row `t` at `t · n_states`.
    rows: Vec<i64>,
    backptr: Vec<u8>,
    deepest: i64,
    highest: i64,
}

/// `m_j`: the best of group 0's four advance predecessors in `row`, states
/// `0`, `n/4`, `n/2` and `3n/4`.
fn group_0_max(row: &[i64]) -> i64 {
    (0..4).map(|c| row[c * row.len() / 4]).max().expect("four")
}

impl Oracle {
    /// `O_t`, the offset the shipped row stores row `t` minus.
    fn offset(&self, t: usize) -> i64 {
        let n_states = self.rows.len() / self.states.len();
        if t < 2 {
            0
        } else {
            group_0_max(&self.rows[(t - 2) * n_states..][..n_states])
        }
    }
}

/// The scalar fixed-point decode: the shipped recurrence with a strided
/// gather per predecessor group, one branch per state, absolute `i64`
/// scores and no renormalisation.
fn oracle_decode(model: &FixedPointModel, samples: &[f32], init_state: Option<u16>) -> Oracle {
    let n_states = model.states();
    let n = samples.len();
    let mut backptr = vec![0u8; n * n_states];
    let (mut states, mut advanced) = (vec![0u16; n], vec![false; n]);
    if n == 0 {
        let stats = DecodeStats::default();
        return Oracle {
            stats,
            states,
            advanced,
            rows: Vec::new(),
            backptr,
            deepest: 0,
            highest: 0,
        };
    }
    let k_shift = (n_states.trailing_zeros() - 2) as usize;
    let n_groups = n_states >> 2;
    let (ls, la) = (i64::from(model.log_stay), i64::from(model.log_advance));
    let emit = |t: usize, s: usize| i64::from(model.emissions(samples[t])[s]);

    let mut prev: Vec<i64> = (0..n_states).map(|s| emit(0, s)).collect();
    if let Some(s0) = init_state {
        let s0 = s0 as usize;
        prev.fill(i64::from(model.floor));
        prev[s0] = emit(0, s0) + ls;
        for b in 0..4usize {
            let succ = ((s0 << 2) | b) & (n_states - 1);
            let cand = emit(0, succ) + la;
            if cand > prev[succ] {
                prev[succ] = cand;
                backptr[succ] = 1 + (s0 >> k_shift) as u8;
            }
        }
    }
    let mut rows = Vec::with_capacity(n * n_states);
    rows.extend_from_slice(&prev);
    // Group 0's maxima, for the offsets the shipped row would have
    // subtracted.
    let mut maxima = vec![group_0_max(&prev)];
    let offset = |maxima: &[i64], t: usize| if t < 2 { 0 } else { maxima[t - 2] };
    let mut deepest = *prev.iter().min().expect("states");
    let mut highest = *prev.iter().max().expect("states");
    let mut curr = vec![0i64; n_states];
    let mut adv_best = vec![0i64; n_groups];
    let mut adv_choice = vec![0u8; n_groups];
    for t in 1..n {
        let o = offset(&maxima, t);
        for low in 0..n_groups {
            let mut best = prev[low];
            let mut choice = 1u8;
            for c in 1..4usize {
                let v = prev[low | (c << k_shift)];
                if v > best {
                    best = v;
                    choice = 1 + c as u8;
                }
            }
            adv_best[low] = best + la;
            adv_choice[low] = choice;
        }
        let bp = &mut backptr[t * n_states..(t + 1) * n_states];
        for s in 0..n_states {
            let stay = prev[s] + ls;
            let adv = adv_best[s >> 2];
            deepest = deepest.min(stay.min(adv) - o);
            highest = highest.max(stay.max(adv) - o);
            if adv > stay {
                curr[s] = adv + emit(t, s);
                bp[s] = adv_choice[s >> 2];
            } else {
                curr[s] = stay + emit(t, s);
                bp[s] = 0;
            }
            deepest = deepest.min(curr[s] - o);
            highest = highest.max(curr[s] - o);
        }
        std::mem::swap(&mut prev, &mut curr);
        rows.extend_from_slice(&prev);
        maxima.push(group_0_max(&prev));
    }

    let (mut state, score) = prev
        .iter()
        .copied()
        .enumerate()
        .max_by_key(|&(_, v)| v)
        .expect("non-empty state space");
    for t in (1..n).rev() {
        states[t] = state as u16;
        let choice = backptr[t * n_states + state];
        advanced[t] = choice != 0;
        if choice != 0 {
            state = (state >> 2) | (((choice - 1) as usize) << k_shift);
        }
    }
    states[0] = state as u16;
    if init_state.is_some() {
        advanced[0] = backptr[state] != 0;
    }
    let stats = DecodeStats {
        score: score as f64 / f64::from(model.scale()),
        mvm_ops: n,
        cells: n * n_states,
    };
    Oracle {
        stats,
        states,
        advanced,
        rows,
        backptr,
        deepest,
        highest,
    }
}

/// The `f32` decode the fixed-point model replaced (the original scalar
/// kernel, free start only), kept as the accuracy reference:
/// the state path of `samples` under the `f32` emission weights.
fn f32_decode(emission: &EmissionModel, samples: &[f32], tr: Transitions) -> Vec<u16> {
    let n_states = emission.states();
    let n = samples.len();
    let k_shift = (n_states.trailing_zeros() - 2) as usize;
    let n_groups = n_states >> 2;
    let mut backptr = vec![0u8; n * n_states];
    let mut prev = vec![0.0f32; n_states];
    let mut curr = vec![0.0f32; n_states];
    let mut emit = vec![0.0f32; n_states];
    let mut adv_best = vec![0.0f32; n_groups];
    let mut adv_choice = vec![0u8; n_groups];
    emission.log_likelihoods(samples[0], &mut prev);
    for t in 1..n {
        emission.log_likelihoods(samples[t], &mut emit);
        for low in 0..n_groups {
            let (mut best, mut choice) = (prev[low], 1u8);
            for c in 1..4usize {
                let v = prev[low | (c << k_shift)];
                if v > best {
                    best = v;
                    choice = 1 + c as u8;
                }
            }
            adv_best[low] = best + tr.log_advance;
            adv_choice[low] = choice;
        }
        let bp = &mut backptr[t * n_states..(t + 1) * n_states];
        for s in 0..n_states {
            let stay = prev[s] + tr.log_stay;
            let adv = adv_best[s >> 2];
            (curr[s], bp[s]) = if adv > stay {
                (adv + emit[s], adv_choice[s >> 2])
            } else {
                (stay + emit[s], 0)
            };
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    let mut state = prev
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite scores"))
        .map(|(s, _)| s)
        .expect("non-empty state space");
    let mut states = vec![0u16; n];
    for t in (1..n).rev() {
        states[t] = state as u16;
        let choice = backptr[t * n_states + state];
        if choice != 0 {
            state = (state >> 2) | (((choice - 1) as usize) << k_shift);
        }
    }
    states[0] = state as u16;
    states
}

/// [`decode_with`] through the portable row, whatever the host would
/// dispatch to.
fn portable_decode_with(
    model: &FixedPointModel,
    samples: &[f32],
    init_state: Option<u16>,
    scratch: &mut DecodeScratch,
) -> DecodeStats {
    let (n, n_states) = (samples.len(), model.states());
    scratch.prepare(n, n_states);
    if n == 0 {
        return DecodeStats::default();
    }
    scratch.init_row(model, samples[0], init_state);
    scratch.dp_rows_portable(model, &samples[1..]);
    let score = scratch.traceback(model, init_state);
    DecodeStats {
        score: score as f64 / f64::from(model.scale()),
        mvm_ops: n,
        cells: n * n_states,
    }
}

/// One model plus two scratches that live across every case of a test, so
/// each decode runs over whatever the previous ones left behind.
struct Harness {
    model: FixedPointModel,
    synth: SignalSynthesizer,
    dispatched: DecodeScratch,
    portable: DecodeScratch,
    decodes: usize,
    /// The deepest relative score any decode reached.
    deepest: i64,
    /// The highest relative score any decode reached.
    highest: i64,
}

impl Harness {
    fn new(k: usize) -> Harness {
        Harness::with_pore(PoreModel::synthetic(k, 7))
    }

    fn with_pore(pore: PoreModel) -> Harness {
        let synth = SignalSynthesizer::new(pore.clone());
        let dwell = synth.mean_dwell();
        Harness::with_dwell(pore, dwell)
    }

    fn with_dwell(pore: PoreModel, dwell: f64) -> Harness {
        Harness {
            model: FixedPointModel::new(&pore, Transitions::from_mean_dwell(dwell)),
            synth: SignalSynthesizer::new(pore),
            dispatched: DecodeScratch::new(),
            portable: DecodeScratch::new(),
            decodes: 0,
            deepest: 0,
            highest: i64::MIN,
        }
    }

    fn states(&self) -> usize {
        self.model.states()
    }

    /// A synthesized signal of exactly `len` samples at noise `sigma`.
    fn signal(&self, len: usize, sigma: f64, seed: u64) -> Vec<f32> {
        let bases = len / 4 + self.synth.model().k() + 2;
        let truth = GenomeBuilder::new(bases).seed(seed).build();
        let mut samples = self.synth.synthesize(truth.sequence(), sigma, seed).samples;
        assert!(samples.len() >= len, "signal too short for {len}");
        samples.truncate(len);
        samples
    }

    fn assert_same(&mut self, samples: &[f32], init_state: Option<u16>, what: &str) {
        let model = &self.model;
        let oracle = oracle_decode(model, samples, init_state);
        let what = format!(
            "{what}: {} states, n = {}, init {init_state:?}",
            model.states(),
            samples.len()
        );
        assert!(
            oracle.deepest >= -i64::from(model.bound()),
            "deepest score {} below the bound -{}, {what}",
            oracle.deepest,
            model.bound()
        );
        assert!(
            oracle.highest <= i64::from(model.ceiling()),
            "highest score {} above the bound {}, {what}",
            oracle.highest,
            model.ceiling()
        );
        self.deepest = self.deepest.min(oracle.deepest);
        self.highest = self.highest.max(oracle.highest);
        let got = decode_with(model, samples, init_state, &mut self.dispatched);
        let portable = portable_decode_with(model, samples, init_state, &mut self.portable);
        for (got, scratch, body) in [
            (got, &self.dispatched, "dispatched"),
            (portable, &self.portable, "portable"),
        ] {
            assert_eq!(got, oracle.stats, "{body} stats, {what}");
            assert_eq!(scratch.states(), oracle.states, "{body} states, {what}");
            assert_eq!(scratch.advanced(), oracle.advanced, "{body} flags, {what}");
            assert_records_are_the_oracles(model, scratch, &oracle, &format!("{body}, {what}"));
            if model.states() == K3_STATES {
                assert_the_runtime_layout_walks_alike(model, scratch, &format!("{body}, {what}"));
            }
        }
        self.assert_bodies_agree(samples.len(), &what);
        self.decodes += 1;
    }

    /// The dispatched and the portable decode of the same `n` samples left
    /// the same records, path, last stored row and offset in their
    /// scratches.
    fn assert_bodies_agree(&self, n: usize, what: &str) {
        let (d, p) = (&self.dispatched, &self.portable);
        assert_eq!(d.states(), p.states(), "states, {what}");
        assert_eq!(d.advanced(), p.advanced(), "advance flags, {what}");
        let records = ..n.saturating_sub(1) * record_len(self.states());
        assert_eq!(d.records[records], p.records[records], "records, {what}");
        if n > 0 {
            assert_eq!((&d.prev, d.offset), (&p.prev, p.offset), "last row, {what}");
        }
    }
}

/// Not along the winning path only: every record the scratch holds is the
/// oracle's row before that sample, as the shipped row stores it (minus its
/// offset), followed by the oracle's group maxima of it, and the last row
/// and its offset are the oracle's last row. Along the path, every decision
/// the traceback took — stay or advance, and the predecessor — is the
/// oracle's backpointer at the path's state.
fn assert_records_are_the_oracles(
    model: &FixedPointModel,
    scratch: &DecodeScratch,
    oracle: &Oracle,
    what: &str,
) {
    let n = oracle.states.len();
    if n == 0 {
        return;
    }
    let n_states = model.states();
    let n_groups = n_states / 4;
    let k_shift = (n_states.trailing_zeros() - 2) as usize;
    let len = record_len(n_states);
    let absolute = |stored: &[i16], t: usize| -> Vec<i64> {
        stored
            .iter()
            .map(|&v| i64::from(v) + oracle.offset(t))
            .collect()
    };
    let records = scratch.records[..(n - 1) * len].chunks_exact(len);
    for (t, record) in records.enumerate() {
        let row = &oracle.rows[t * n_states..][..n_states];
        assert_eq!(
            absolute(&record[..n_states], t),
            row,
            "stored row {t}, {what}"
        );
        let maxima: Vec<i64> = (0..n_groups)
            .map(|g| (0..4).map(|c| row[g + c * n_groups]).max().expect("four"))
            .collect();
        assert_eq!(
            absolute(&record[n_states..], t),
            maxima,
            "group maxima of row {t}, {what}"
        );
    }
    let last = &oracle.rows[(n - 1) * n_states..];
    assert_eq!(absolute(&scratch.prev, n - 1), last, "last row, {what}");
    assert_eq!(scratch.offset, oracle.offset(n - 1), "last offset, {what}");

    let (states, advanced) = (scratch.states(), scratch.advanced());
    for t in 1..n {
        let s = usize::from(states[t]);
        let decision = if advanced[t] {
            // An advance into `s` came from `(s >> 2) | (c << k_shift)`,
            // which the oracle spells `c + 1`.
            let pred = usize::from(states[t - 1]);
            assert_eq!(
                pred & (n_groups - 1),
                s >> 2,
                "a predecessor, sample {t}, {what}"
            );
            1 + (pred >> k_shift) as u8
        } else {
            assert_eq!(
                states[t - 1],
                states[t],
                "a stay keeps the state, sample {t}, {what}"
            );
            0
        };
        assert_eq!(
            decision,
            oracle.backptr[t * n_states + s],
            "decision at sample {t}, {what}"
        );
    }
    let at_zero = oracle.backptr[usize::from(states[0])] != 0;
    assert_eq!(advanced[0], at_zero, "decision at sample 0, {what}");
}

/// The walk's runtime-length instance over the records a 64-state decode
/// left in `scratch`, which its traceback walked through the fixed-size
/// instance: the same state and flag at every sample past the first, the
/// same first state, and the same base codes from the same index.
fn assert_the_runtime_layout_walks_alike(
    model: &FixedPointModel,
    scratch: &DecodeScratch,
    what: &str,
) {
    let n = scratch.states.len();
    if n == 0 {
        return;
    }
    let n_states = model.states();
    let records = AnyRecords {
        records: &scratch.records[..(n - 1) * record_len(n_states)],
        n_states,
    };
    let (mut states, mut advanced) = (vec![0; n], vec![false; n]);
    let mut codes = vec![0; scratch.codes.len()];
    let path = (&mut states[..], &mut advanced[..], &mut codes[..]);
    let (first, first_code) = walk(&records, model, last_argmax(&scratch.prev).0, path);
    assert_eq!(states, scratch.states, "runtime-layout states, {what}");
    assert_eq!(
        usize::from(states[0]),
        first,
        "runtime-layout first state, {what}"
    );
    assert_eq!(
        advanced[1..],
        scratch.advanced[1..],
        "runtime-layout flags, {what}"
    );
    assert_eq!(
        first_code, scratch.first_code,
        "runtime-layout first code, {what}"
    );
    assert_eq!(
        codes[first_code..],
        scratch.codes[first_code..],
        "runtime-layout base codes, {what}"
    );
}

#[test]
fn every_state_space_size_length_and_noise_agrees() {
    let mut decodes = 0;
    for k in 1..=5usize {
        let mut h = Harness::new(k);
        let mut rng = seeded(0x5eed ^ k as u64);
        // 0 … 18 samples (the lag's first rows, every short length), then a
        // few hundred and the pipeline's chunk.
        let lengths = (0..=18).chain([97, 230, 2_477]);
        for len in lengths {
            for (i, sigma) in [0.0, 1.0, 2.5].into_iter().enumerate() {
                let samples = h.signal(len, sigma, (len * 3 + i) as u64);
                h.assert_same(&samples, None, "free start");
                let init = rng.random_range(0..h.states()) as u16;
                h.assert_same(&samples, Some(init), "stitched start");
            }
        }
        decodes += h.decodes;
    }
    assert!(decodes >= 600, "only {decodes} decodes compared");
}

#[test]
fn every_stitched_start_agrees() {
    // A stitched row 0 is at the floor everywhere but (at most) five cells.
    let mut h = Harness::new(3);
    for len in [1usize, 2, 3, 9, 10, 41] {
        let clean = h.signal(len, 0.0, len as u64);
        let noisy = h.signal(len, 2.5, 100 + len as u64);
        for s0 in 0..h.states() as u16 {
            h.assert_same(&clean, Some(s0), "clean");
            h.assert_same(&noisy, Some(s0), "noisy");
        }
    }
}

#[test]
fn a_homopolymer_carry_that_advances_into_itself_agrees() {
    // At a dwell of 1.1 samples a base, advancing is likelier than staying
    // (`log_advance > log_stay`), so a path that starts in a homopolymer
    // carry `s0` — its own successor — advanced into it at sample 0.
    let pore = PoreModel::synthetic(3, 7);
    let mut h = Harness::with_dwell(pore.clone(), 1.1);
    assert!(h.model.log_advance > h.model.log_stay);
    let mut advanced_into_itself = 0;
    for s0 in [0u16, 0b01_0101, 0b10_1010, 0b11_1111] {
        let level = pore.level_bits(u64::from(s0));
        for len in [1usize, 2, 3, 8, 40] {
            let dwelling = vec![level; len];
            let noisy = h.signal(len, 1.0, u64::from(s0) + len as u64);
            for signal in [&dwelling, &noisy] {
                h.assert_same(signal, Some(s0), "homopolymer carry");
                let d = &h.dispatched;
                advanced_into_itself += usize::from(d.states()[0] == s0 && d.advanced()[0]);
            }
        }
    }
    assert!(
        advanced_into_itself >= 10,
        "only {advanced_into_itself} paths advanced into s0"
    );
}

#[test]
fn a_path_that_starts_in_a_floor_state_agrees() {
    // With an event std of 1e-3 pA every state but the one at the sample's
    // level scores the emission floor, so a signal that dwells on a level
    // two or three bases away from the carry is best explained by starting
    // there, in a floor state — which did not advance at sample 0.
    let synthetic = PoreModel::synthetic(3, 7);
    let mut h = Harness::with_pore(PoreModel::from_parts(3, synthetic.levels().to_vec(), 1e-3));
    let n_groups = h.states() as u16 / 4;
    let mut floor_starts = 0;
    for s0 in [0u16, 9, 27, 50, 63] {
        for x in (0..64u16).step_by(7) {
            let signal = vec![synthetic.level_bits(u64::from(x)); 12];
            h.assert_same(&signal, Some(s0), "floor start");
            let (first, advanced) = (h.dispatched.states()[0], h.dispatched.advanced()[0]);
            if first != s0 && first >> 2 != s0 & (n_groups - 1) {
                assert!(!advanced, "floor state {first} advanced, carry {s0}");
                floor_starts += 1;
            }
        }
    }
    assert!(
        floor_starts >= 20,
        "only {floor_starts} paths started in a floor state"
    );
}

#[test]
fn tie_heavy_flat_signals_agree() {
    for k in 1..=5usize {
        let mut h = Harness::new(k);
        let mid = (PoreModel::CURRENT_MIN + PoreModel::CURRENT_MAX) / 2.0;
        let level = h.synth.model().level_bits(1);
        for len in [1usize, 2, 7, 8, 9, 10, 64, 150] {
            let zeros = vec![0.0f32; len];
            let constant = vec![mid; len];
            let on_a_level = vec![level; len];
            let two_level: Vec<f32> = (0..len)
                .map(|t| if (t / 5) % 2 == 0 { level } else { mid })
                .collect();
            for (signal, what) in [
                (&zeros, "all-zero"),
                (&constant, "constant"),
                (&on_a_level, "constant on a level"),
                (&two_level, "two-level"),
            ] {
                h.assert_same(signal, None, what);
                for s0 in [0, 1, h.states() / 2, h.states() - 1] {
                    h.assert_same(signal, Some(s0 as u16), what);
                }
            }
        }
    }
}

#[test]
fn degenerate_level_tables_tie_on_the_winning_path() {
    // A table with two to four distinct levels makes whole classes of states
    // indistinguishable: every row is full of exact ties, in both passes and
    // in the final argmax, and the winning path runs through them.
    for k in 1..=4usize {
        for distinct in [1usize, 2, 3, 4] {
            let levels = (0..1usize << (2 * k))
                .map(|s| 70.0 + 12.5 * ((s * 7 + s / 4) % distinct) as f32)
                .collect();
            let mut h = Harness::with_pore(PoreModel::from_parts(k, levels, 1.5));
            for len in [1usize, 2, 9, 40] {
                let flat = vec![82.5f32; len];
                let steps: Vec<f32> = (0..len).map(|t| 70.0 + 12.5 * (t / 3 % 4) as f32).collect();
                let noisy = h.signal(len, 2.5, (k * 10 + distinct) as u64);
                for signal in [&flat, &steps, &noisy] {
                    h.assert_same(signal, None, "degenerate levels");
                    for s0 in [0, h.states() / 2 + 1, h.states() - 1] {
                        h.assert_same(signal, Some(s0 as u16), "degenerate levels");
                    }
                }
            }
        }
    }
}

#[test]
fn a_dirty_scratch_never_leaks_into_a_later_decode() {
    // `prepare` clears nothing: a long decode, then a short one, then a long
    // one again must each match the oracle, whose buffers are fresh every
    // time. The scratches also travel from one state-space size to the next
    // — and back, so records of another width lie under the ones being
    // written.
    let mut scratches = (DecodeScratch::new(), DecodeScratch::new());
    for k in [3usize, 4, 3, 1, 5] {
        let mut h = Harness::new(k);
        (h.dispatched, h.portable) = scratches;
        let long_a = h.signal(400, 1.0, 1);
        let short = h.signal(13, 2.5, 2);
        let long_b = h.signal(391, 2.5, 3);
        let n_states = h.states();
        for round in 0..4usize {
            // A different stitched start per decode, so row 0 and the flag
            // of sample 0 never hold what the decode before left anyway.
            let init = |i: usize| (round > 0).then_some(((round * 5 + i) % n_states) as u16);
            h.assert_same(&long_a, init(1), "long a");
            h.assert_same(&short, init(2), "short after long");
            h.assert_same(&[], None, "empty after short");
            h.assert_same(&short[..1], init(3), "single sample");
            h.assert_same(&long_b, init(4), "long b after short");
        }
        scratches = (h.dispatched, h.portable);
    }
}

#[test]
fn non_finite_and_extreme_samples_decode_like_the_oracle() {
    // `decode_with` is documented total: every `f32` falls in a bin. (The
    // basecaller rejects non-finite samples and overflowing squares before
    // decoding; the kernels must still agree on them.)
    let mut h = Harness::new(3);
    for bad in [
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        3e38,
        -3e38,
        1e6,
        -1e6,
    ] {
        for at in [0usize, 1, 8, 9, 29, 76] {
            for init in [None, Some(5), Some(63)] {
                let mut samples = h.signal(77, 1.0, at as u64);
                samples[at] = bad;
                h.assert_same(&samples, init, &format!("{bad} at {at}"));
            }
        }
    }
}

#[test]
fn hostile_models_and_samples_stay_inside_the_bound() {
    // Every reader-supplied knob at an extreme: levels 1e6 pA apart, an
    // event std of 1e-6 pA (every state but the nearest scores the clamped
    // emission floor at every sample), dwells of 1 + 1e-9 and 1e12 (the
    // stay and the advance transitions at their largest), samples at ±1e6
    // beside ordinary ones, every stitched start, and one pair of scratches
    // driven across k = 3 → 4 → 1 → 5. Both bodies must equal the oracle
    // record for record, and the deepest and the highest relative score must
    // stay inside the model's proved bounds (`assert_same`).
    let mut rng = seeded(0x4057);
    let mut scratches = (DecodeScratch::new(), DecodeScratch::new());
    let (mut deepest, mut highest) = (0i64, i64::MIN);
    for k in [3usize, 4, 1, 5] {
        let n = 1usize << (2 * k);
        let spread: Vec<f32> = (0..n).map(|s| s as f32 * 1e6).collect();
        let synthetic = PoreModel::synthetic(k, 7);
        let pores = [
            PoreModel::from_parts(k, spread.clone(), 1.0),
            PoreModel::from_parts(k, synthetic.levels().to_vec(), 1e-6),
            PoreModel::from_parts(k, spread, 1e-6),
            synthetic,
        ];
        for pore in pores {
            for dwell in [1.0 + 1e-9, 1e12, 8.0] {
                let mut h = Harness::with_dwell(pore.clone(), dwell);
                (h.dispatched, h.portable) = scratches;
                let levels = pore.levels();
                let extremes = [1e6f32, -1e6, 0.0, levels[0], levels[n - 1]];
                for len in [1usize, 2, 5, 40, 300] {
                    let samples: Vec<f32> = (0..len)
                        .map(|_| match rng.random_range(0..3u32) {
                            0 => extremes[rng.random_range(0..extremes.len())],
                            1 => levels[rng.random_range(0..n)],
                            _ => levels[rng.random_range(0..n)] + rng.random_range(-3.0..3.0f32),
                        })
                        .collect();
                    h.assert_same(&samples, None, "hostile, free start");
                    let starts: Vec<u16> = if len <= 5 && n <= 64 {
                        (0..n as u16).collect()
                    } else {
                        vec![0, (n / 2) as u16, (n - 1) as u16]
                    };
                    for s0 in starts {
                        h.assert_same(&samples, Some(s0), "hostile, stitched");
                    }
                }
                deepest = deepest.min(h.deepest);
                highest = highest.max(h.highest);
                scratches = (h.dispatched, h.portable);
            }
        }
    }
    assert!(deepest >= -i64::from(i16::MAX), "deepest {deepest}");
    assert!(highest <= i64::from(i16::MAX), "highest {highest}");
    // The inputs do reach deep and high: a bound nothing approaches would
    // not test it.
    assert!(deepest < -5_000, "deepest {deepest}");
    assert!(highest > 5_000, "highest {highest}");
}

#[test]
fn one_row_from_any_tie_heavy_score_row_agrees_through_both_bodies() {
    // Rows handed straight to the two bodies, a few distinct values inside
    // the bound so ties are everywhere — within a group (pass 1's rule: the
    // lowest quarter wins) and between advance and stay (pass 2's: stay
    // wins; two values `log_stay − log_advance` apart) — then three rows of
    // the lag. Both bodies must leave the same records, last row and offset;
    // and the traceback, decided at every state of the first record in turn,
    // must take the scalar rule's decision: advance iff `best + log_advance >
    // row + log_stay`, from the first quarter holding the group's best.
    let mut h = Harness::new(3);
    let n_states = h.states();
    let n_groups = n_states / 4;
    let floor = i16::try_from(-h.model.bound() / 2).expect("bound fits i16");
    let (ls, la) = (h.model.log_stay, h.model.log_advance);
    let margin = ls - la;
    let values = [floor, floor + 1, -300, -1 - margin, -margin, -1, 0];
    let mut rng = seeded(0xbad5eed);
    let (mut advances, mut stay_ties) = (0usize, 0usize);
    for case in 0..2_000 {
        let row: Vec<i16> = (0..n_states)
            .map(|_| values[rng.random_range(0..values.len())])
            .collect();
        let xs = h.signal(3, 2.5, case);
        for scratch in [&mut h.dispatched, &mut h.portable] {
            scratch.prepare(4, n_states);
            scratch.prev.copy_from_slice(&row);
            scratch.offset = 7;
        }
        h.dispatched.dp_rows(&h.model, &xs);
        h.portable.dp_rows_portable(&h.model, &xs);
        let model = &h.model;
        assert_eq!(
            h.dispatched.traceback(model, None),
            h.portable.traceback(model, None)
        );
        h.assert_bodies_agree(4, &format!("row {row:?}"));

        // A two-sample decode whose record is `row`, and whose last row has
        // its one maximum at `s`: the path ends in `s`.
        for s in 0..n_states {
            let group = s >> 2;
            let quarters = (0..4).map(|c| row[group + c * n_groups]);
            let best = quarters.clone().max().expect("four");
            let advance = i32::from(best) + i32::from(la) > i32::from(row[s]) + i32::from(ls);
            let quarter = quarters.clone().position(|v| v == best).expect("present");
            stay_ties +=
                usize::from(i32::from(best) + i32::from(la) == i32::from(row[s]) + i32::from(ls));
            advances += usize::from(advance);
            for scratch in [&mut h.dispatched, &mut h.portable] {
                scratch.prepare(2, n_states);
                scratch.prev.fill(-1);
                scratch.prev[s] = 0;
                scratch.traceback(model, None);
                let expected = if advance {
                    group + quarter * n_groups
                } else {
                    s
                };
                assert_eq!(
                    scratch.advanced(),
                    [false, advance],
                    "state {s}, row {row:?}"
                );
                assert_eq!(
                    scratch.states(),
                    [expected as u16, s as u16],
                    "state {s}, row {row:?}"
                );
            }
        }
    }
    // Both rules were exercised, ties included.
    assert!(
        advances > 10_000 && stay_ties > 1_000,
        "{advances} advances, {stay_ties} ties"
    );
}

#[test]
fn final_argmax_keeps_the_last_of_equal_maxima() {
    let mut rng = seeded(11);
    for _ in 0..500 {
        let len = rng.random_range(1..12usize);
        // Few distinct values, so ties (also for the maximum) are the rule.
        let scores: Vec<i16> = (0..len)
            .map(|_| [i16::MIN, -250, -1, 0][rng.random_range(0..4usize)])
            .collect();
        let best = *scores.iter().max().expect("non-empty");
        let last = scores.iter().rposition(|&v| v == best).expect("present");
        assert_eq!(last_argmax(&scores), (last, best), "{scores:?}");
    }
}

#[test]
fn the_quantised_decode_stays_close_to_the_f32_reference() {
    // The model change, measured where it is cheapest: per-sample states of
    // whole synthetic chunks at the pipeline's noise levels, quantised
    // against the `f32` decode it replaced.
    let pore = PoreModel::synthetic(3, 7);
    let h = Harness::with_pore(pore.clone());
    let emission = EmissionModel::from_pore_model(&pore);
    let tr = Transitions::from_mean_dwell(h.synth.mean_dwell());
    let (mut same, mut total) = (0usize, 0usize);
    let mut scratch = DecodeScratch::new();
    for (i, sigma) in [0.8, 1.0, 1.3, 1.6, 2.0, 2.9].into_iter().enumerate() {
        for seed in 0..4u64 {
            let samples = h.signal(2_477, sigma, 100 * i as u64 + seed);
            let reference = f32_decode(&emission, &samples, tr);
            decode_with(&h.model, &samples, None, &mut scratch);
            same += scratch
                .states()
                .iter()
                .zip(&reference)
                .filter(|(a, b)| a == b)
                .count();
            total += samples.len();
        }
    }
    let agreement = same as f64 / total as f64;
    assert!(agreement > 0.99, "state agreement {agreement:.4}");
}
