//! Differential suite: the shipped rows must leave the same [`DecodeStats`],
//! `states()` and `advanced()` as the scalar kernel they replaced, and
//! per-sample records that expand to its whole backpointer matrix — on every
//! state-space size, every block residue, every stitched start and every tie
//! — through both the dispatched entry ([`decode_with`]: the `std::arch` row
//! at 64 states where the host has AVX2) and the portable row, which must
//! also agree with each other record for record, and with a scratch that
//! earlier decodes, longer or of another state-space size, left dirty.

use super::{decode_with, last_argmax, take_words, DecodeScratch, DecodeStats, Transitions};
use crate::emission::EmissionModel;
use genpip_genomics::rng::{seeded, Rng};
use genpip_genomics::GenomeBuilder;
use genpip_signal::{PoreModel, SignalSynthesizer};

/// The scalar kernel, kept test-only as the independent oracle: a strided
/// gather per predecessor group, one branch per state. The body is the
/// shipped `decode_with` as of PR 15, verbatim, except that it owns its
/// (zeroed) buffers — and hands back its backpointer matrix, one byte per
/// sample and state — and takes each sample's emissions from the
/// single-sample [`EmissionModel::log_likelihoods`] instead of the block
/// kernel under test.
fn scalar_decode(
    emission: &EmissionModel,
    samples: &[f32],
    transitions: Transitions,
    init_state: Option<u16>,
) -> (DecodeStats, Vec<u16>, Vec<bool>, Vec<u8>) {
    let n_states = emission.states();
    let n = samples.len();
    let mut backptr = vec![0u8; n * n_states];
    let mut prev = vec![0.0f32; n_states];
    let mut curr = vec![0.0f32; n_states];
    let mut emit = vec![0.0f32; n_states];
    let mut adv_best = vec![0.0f32; n_states / 4];
    let mut adv_choice = vec![0u8; n_states / 4];
    let mut states = vec![0u16; n];
    let mut advanced = vec![false; n];
    if n == 0 {
        return (
            DecodeStats {
                score: 0.0,
                mvm_ops: 0,
                cells: 0,
            },
            states,
            advanced,
            backptr,
        );
    }
    let k_shift = (n_states.trailing_zeros() - 2) as usize; // 2(k-1) bits
    let n_groups = n_states >> 2;
    let neg_inf = f32::NEG_INFINITY;
    let log_stay = transitions.log_stay;
    let log_advance = transitions.log_advance;

    emission.log_likelihoods(samples[0], &mut emit);
    match init_state {
        Some(s0) => {
            let s0 = s0 as usize;
            prev.fill(neg_inf);
            prev[s0] = emit[s0] + log_stay;
            for b in 0..4usize {
                let succ = ((s0 << 2) | b) & (n_states - 1);
                let cand = emit[succ] + log_advance;
                if cand > prev[succ] {
                    prev[succ] = cand;
                    backptr[succ] = 1 + (s0 >> k_shift) as u8;
                }
            }
        }
        None => {
            prev.copy_from_slice(&emit);
        }
    }

    for t in 1..n {
        emission.log_likelihoods(samples[t], &mut emit);
        let emit_row = &emit;
        let bp = &mut backptr[t * n_states..(t + 1) * n_states];

        for low in 0..n_groups {
            let mut best = prev[low];
            let mut choice = 1u8; // c = 0
            for c in 1..4usize {
                let v = prev[low | (c << k_shift)];
                if v > best {
                    best = v;
                    choice = 1 + c as u8;
                }
            }
            adv_best[low] = best + log_advance;
            adv_choice[low] = choice;
        }

        for s in 0..n_states {
            let stay = prev[s] + log_stay;
            let adv = adv_best[s >> 2];
            if adv > stay {
                curr[s] = adv + emit_row[s];
                bp[s] = adv_choice[s >> 2];
            } else {
                curr[s] = stay + emit_row[s];
                bp[s] = 0;
            }
        }
        std::mem::swap(&mut prev, &mut curr);
    }

    // Traceback.
    let (mut state, score) = prev
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite scores"))
        .map(|(s, &v)| (s, v as f64))
        .expect("non-empty state space");
    for t in (1..n).rev() {
        states[t] = state as u16;
        let choice = backptr[t * n_states + state];
        if choice == 0 {
            advanced[t] = false;
        } else {
            advanced[t] = true;
            let c = (choice - 1) as usize;
            state = (state >> 2) | (c << k_shift);
        }
    }
    states[0] = state as u16;
    if init_state.is_some() {
        advanced[0] = backptr[state] != 0;
    }

    (
        DecodeStats {
            score,
            mvm_ops: n,
            cells: n * n_states,
        },
        states,
        advanced,
        backptr,
    )
}

/// [`decode_with`] through the portable emission block and row, whatever the
/// host would dispatch to.
fn portable_decode_with(
    emission: &EmissionModel,
    samples: &[f32],
    transitions: Transitions,
    init_state: Option<u16>,
    scratch: &mut DecodeScratch,
) -> DecodeStats {
    let (n, n_states) = (samples.len(), emission.states());
    scratch.prepare(n, n_states);
    if n == 0 {
        return DecodeStats::default();
    }
    scratch.init_row(emission, samples[0], transitions, init_state);
    scratch.dp_rows_portable(emission, &samples[1..], transitions);
    DecodeStats {
        score: scratch.traceback(init_state.is_some()),
        mvm_ops: n,
        cells: n * n_states,
    }
}

/// One pore model per state-space size plus two scratches that live across
/// every case of a test, so each decode runs over whatever the previous ones
/// left behind.
struct Harness {
    emission: EmissionModel,
    synth: SignalSynthesizer,
    transitions: Transitions,
    dispatched: DecodeScratch,
    portable: DecodeScratch,
    decodes: usize,
}

impl Harness {
    fn new(k: usize) -> Harness {
        Harness::with_pore(PoreModel::synthetic(k, 7))
    }

    fn with_pore(pore: PoreModel) -> Harness {
        let synth = SignalSynthesizer::new(pore.clone());
        Harness {
            emission: EmissionModel::from_pore_model(&pore),
            transitions: Transitions::from_mean_dwell(synth.mean_dwell()),
            synth,
            dispatched: DecodeScratch::new(),
            portable: DecodeScratch::new(),
            decodes: 0,
        }
    }

    fn states(&self) -> usize {
        self.emission.states()
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
        let (em, tr) = (&self.emission, self.transitions);
        let (stats, states, advanced, backptr) = scalar_decode(em, samples, tr, init_state);
        let what = format!(
            "{what}: {} states, n = {}, init {init_state:?}",
            em.states(),
            samples.len()
        );
        let got = decode_with(em, samples, tr, init_state, &mut self.dispatched);
        let portable = portable_decode_with(em, samples, tr, init_state, &mut self.portable);
        for (got, scratch, body) in [
            (got, &self.dispatched, "dispatched"),
            (portable, &self.portable, "portable"),
        ] {
            assert_eq!(got, stats, "{body} stats, {what}");
            assert_eq!(scratch.states(), states, "{body} states, {what}");
            assert_eq!(scratch.advanced(), advanced, "{body} flags, {what}");
            // Not along the winning path only: every row of the records,
            // expanded to `choice & mask(take)`, is the oracle's row.
            let n_states = em.states();
            for (t, row) in backptr.chunks_exact(n_states).enumerate() {
                let expanded: Vec<u8> = (0..n_states).map(|s| backpointer(scratch, t, s)).collect();
                assert_eq!(expanded, row, "{body} records of sample {t}, {what}");
            }
        }
        self.assert_bodies_agree(samples.len(), (got, portable), &what);
        self.decodes += 1;
    }

    /// The dispatched and the portable decode of the same `n` samples left
    /// the same stats, path, records and last score row in their scratches.
    fn assert_bodies_agree(&self, n: usize, stats: (DecodeStats, DecodeStats), what: &str) {
        let (d, p) = (&self.dispatched, &self.portable);
        // A NaN (the path score, or a score row, under non-finite samples)
        // equals nothing, and Rust leaves the payload of a NaN that
        // arithmetic produced open: scores are compared bit for bit up to
        // that.
        let same = |a: f32, b: f32| a.to_bits() == b.to_bits() || a.is_nan() && b.is_nan();
        assert!(same(stats.0.score as f32, stats.1.score as f32), "{what}");
        assert_eq!(
            (stats.0.mvm_ops, stats.0.cells),
            (stats.1.mvm_ops, stats.1.cells)
        );
        assert_eq!(d.states(), p.states(), "states, {what}");
        assert_eq!(d.advanced(), p.advanced(), "advance flags, {what}");
        let n_states = self.states();
        let (words, n_groups) = (take_words(n_states), n_states / 4);
        assert_eq!(d.take[..n * words], p.take[..n * words], "takes, {what}");
        // Row 0 holds a choice only where the stitched init set a take bit
        // (compared above, and against the oracle by `assert_same`).
        let rows = n_groups.min(n * n_groups)..n * n_groups;
        assert_eq!(
            d.group_choice[rows.clone()],
            p.group_choice[rows],
            "group choices, {what}"
        );
        if n > 0 {
            let same = d.prev.iter().zip(&p.prev).all(|(&a, &b)| same(a, b));
            assert!(same, "last score row, {what}");
        }
    }
}

/// The oracle's backpointer for sample `t`, state `s`, read from the
/// scratch's records: the group's choice where the take bit is set, else 0.
fn backpointer(scratch: &DecodeScratch, t: usize, s: usize) -> u8 {
    let n_states = scratch.prev.len();
    let took = scratch.take[t * take_words(n_states) + s / 64] >> (s % 64) & 1 != 0;
    if took {
        scratch.group_choice[t * (n_states / 4) + s / 4]
    } else {
        0
    }
}

#[test]
fn every_state_space_size_length_residue_and_noise_agrees() {
    let mut decodes = 0;
    for k in 1..=5usize {
        let mut h = Harness::new(k);
        let mut rng = seeded(0x5eed ^ k as u64);
        // 0, 1, 2, then every residue of (n - 1) mod BLOCK twice over (the
        // first row is not part of a block), then a few hundred samples and
        // the pipeline's chunk.
        let lengths = (0..=2 * EmissionModel::BLOCK + 2).chain([97, 230, 2_477]);
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
    // A stitched row 0 is -inf everywhere but (at most) five cells, so the
    // first DP rows run almost entirely on -inf > -inf comparisons.
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
    // The synthetic levels are all distinct, so two predecessors of one
    // state never score exactly alike and pass 1's tie rule (the lowest
    // quarter wins) decides nothing that the traceback visits. A table with
    // two to four distinct levels makes whole classes of states
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
    // `prepare` clears the take words of row 0 only: a long decode, then a
    // short one, then a long one again must each match the oracle, whose
    // buffers are fresh and zeroed every time.
    // The scratches also travel from one state-space size to the next — and
    // back, so records of another width (24 bytes a sample at k = 3, 96 at
    // k = 4) lie under the ones being written.
    let mut scratches = (DecodeScratch::new(), DecodeScratch::new());
    for k in [3usize, 4, 3, 1, 5] {
        let mut h = Harness::new(k);
        (h.dispatched, h.portable) = scratches;
        let long_a = h.signal(400, 1.0, 1);
        let short = h.signal(13, 2.5, 2);
        let long_b = h.signal(391, 2.5, 3);
        let n_states = h.states();
        for round in 0..4usize {
            // A different stitched start per decode, so row 0 never holds
            // what the decode before it would have written anyway.
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
fn rows_saturated_to_minus_infinity_agree() {
    // 1e20 squares to +inf in f32, so the sample's emissions — and from there
    // every score — are -inf: the all-ties row, and a final argmax over equal
    // values. (The basecaller rejects such a sample before decoding; the
    // kernels must still agree on it.)
    let mut h = Harness::new(3);
    for at in [0usize, 1, 8, 9, 29] {
        let mut samples = h.signal(30, 1.0, at as u64);
        samples[at] = 1e20;
        h.assert_same(&samples, None, "saturated");
        h.assert_same(&samples, Some(5), "saturated, stitched");
    }
}

#[test]
fn non_finite_samples_decode_alike_through_both_bodies() {
    // `decode_with` is documented total. The oracle is not (its argmax
    // expects numbers), so here the two shipped bodies are held to each
    // other on NaN, +inf, -inf and 3e38 (whose emission terms are inf - inf).
    // On the synthetic table such a sample turns every state's score into
    // the same thing; a table with levels of both signs makes an infinite
    // sample NaN for one half of the states and -inf for the other, so from
    // there each of pass 1's four-way maxima mixes the two — which is where
    // `max_ps` must keep its *second* operand, like the portable select.
    let mixed = (0..64)
        .map(|s| if s % 3 == 0 { -90.0 } else { 70.0 } + s as f32)
        .collect();
    for pore in [
        PoreModel::synthetic(3, 7),
        PoreModel::from_parts(3, mixed, 1.5),
    ] {
        let mut h = Harness::with_pore(pore);
        let tr = h.transitions;
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 3e38, -3e38] {
            for at in [0usize, 1, 8, 9, 29, 76] {
                for init in [None, Some(5), Some(63)] {
                    let mut samples = h.signal(77, 1.0, at as u64);
                    samples[at] = bad;
                    let got = decode_with(&h.emission, &samples, tr, init, &mut h.dispatched);
                    let portable =
                        portable_decode_with(&h.emission, &samples, tr, init, &mut h.portable);
                    let what = format!("{bad} at {at}, init {init:?}");
                    h.assert_bodies_agree(samples.len(), (got, portable), &what);
                }
            }
        }
    }
}

#[test]
fn one_row_from_any_score_row_agrees_through_both_bodies() {
    // No finite level table and no sample reaches a score row that mixes NaN
    // with numbers (a non-finite sample poisons every state at once), so the
    // decodes above cannot tell which operand pass 1's maximum keeps. Rows
    // handed straight to the two bodies can: NaN beside numbers, both
    // infinities, both zeros, and ties everywhere.
    let mut h = Harness::new(3);
    let (n_states, tr) = (h.states(), h.transitions);
    let values = [
        f32::NAN,
        f32::NEG_INFINITY,
        f32::INFINITY,
        -1.0,
        0.0,
        -0.0,
        2.5,
    ];
    let mut rng = seeded(0xbad5eed);
    for case in 0..2_000 {
        let row: Vec<f32> = (0..n_states)
            .map(|_| values[rng.random_range(0..values.len())])
            .collect();
        let x = h.signal(1, 2.5, case)[0];
        for scratch in [&mut h.dispatched, &mut h.portable] {
            scratch.prepare(2, n_states);
            scratch.prev.copy_from_slice(&row);
        }
        h.dispatched.dp_rows(&h.emission, &[x], tr);
        h.portable.dp_rows_portable(&h.emission, &[x], tr);
        h.dispatched.traceback(false);
        h.portable.traceback(false);
        h.assert_bodies_agree(2, Default::default(), &format!("row {row:?}"));
    }
}

#[test]
fn final_argmax_keeps_the_last_of_equal_maxima_and_never_panics() {
    let mut rng = seeded(11);
    for _ in 0..500 {
        let len = rng.random_range(1..12usize);
        // Few distinct values, so ties (also for the maximum) are the rule.
        let scores: Vec<f32> = (0..len)
            .map(|_| [f32::NEG_INFINITY, -2.5, -1.0, 0.0][rng.random_range(0..4usize)])
            .collect();
        let expected = scores
            .iter()
            .copied()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("no NaN"))
            .expect("non-empty");
        assert_eq!(last_argmax(scores.iter().copied()), expected, "{scores:?}");
    }
    assert_eq!(last_argmax([f32::NAN, -1.0, f32::NAN].into_iter()).0, 1);
    assert!(last_argmax([f32::NAN, f32::NAN].into_iter()).1.is_nan());
}

#[test]
fn emission_block_equals_single_sample_calls_at_every_block_length() {
    for k in 1..=5usize {
        let h = Harness::new(k);
        let n_states = h.states();
        let mut xs = h.signal(EmissionModel::BLOCK, 2.5, k as u64);
        xs[0] = 0.0;
        xs[1] = -37.25;
        let mut single = vec![0.0f32; n_states];
        for len in 1..=EmissionModel::BLOCK {
            let mut block = vec![f32::NAN; len * n_states];
            h.emission.log_likelihoods_block(&xs[..len], &mut block);
            for (i, row) in block.chunks_exact(n_states).enumerate() {
                h.emission.log_likelihoods(xs[i], &mut single);
                let same = row
                    .iter()
                    .zip(&single)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same, "k {k}, block length {len}, sample {i}");
            }
        }
    }
}
