//! Differential suite for the chunk assembly.
//!
//! [`Basecaller::assemble_chunk`] walks the samples once, keeping a running
//! residual sum that restarts at each advance and storing every finished
//! dwell segment's sum and end, then turns the segments into bases and
//! Phreds in a second loop. The per-segment body it replaced — find a
//! segment's end, sum its residuals, take its Phred, emit — is kept here as
//! the oracle: every segment's sum is the same sequential `f32` additions in
//! the same order, so the two must agree on the whole [`BasecalledChunk`],
//! every `Phred` and the `sqs` to the bit, on decoded chunks over the noise
//! range the datasets draw from (0.8–3×), free and stitched starts with and
//! without the boundary advance at sample 0, one-sample chunks, chunks with
//! no advance and arbitrary k-mer walks.

use super::*;
use genpip_genomics::rng::{seeded, Rng};
use genpip_genomics::GenomeBuilder;
use genpip_signal::{chunk::samples_per_chunk, SignalSynthesizer};

/// The per-segment assembly `assemble_chunk` replaced: one residual sum
/// and one Phred per dwell segment, found by walking to the segment's end.
fn per_segment_assemble(
    caller: &Basecaller,
    signal: &[f32],
    dec_states: &[u16],
    dec_advanced: &[bool],
    carry: Option<CarryState>,
    stats: DecodeStats,
) -> BasecalledChunk {
    let k = caller.pore.k();
    let assumed_var = {
        let s = caller.emission.assumed_std();
        s * s
    };
    let advances = dec_advanced.iter().filter(|&&a| a).count();
    let n_bases = advances + if carry.is_none() { k } else { 0 };
    let mut bases = DnaSeq::with_capacity(n_bases);
    let mut quals: Vec<Phred> = Vec::with_capacity(n_bases);

    let n = signal.len();
    let mut seg_start = 0usize;
    let mut first_segment = true;
    let mut t = 1usize;
    loop {
        let at_end = t >= n;
        let boundary = at_end || dec_advanced[t];
        if boundary {
            let state = dec_states[seg_start];
            let z2 = mean_residual(
                &signal[seg_start..t],
                caller.pore.level_bits(state as u64),
                assumed_var,
            );
            let q = caller.calibration.phred_from_residual(z2);
            if first_segment {
                first_segment = false;
                if carry.is_none() {
                    for i in 0..k {
                        bases.push(kmer_base(state, k, i));
                        quals.push(q);
                    }
                } else if dec_advanced[0] {
                    bases.push(Base::from_code((state & 3) as u8));
                    quals.push(q);
                }
            } else {
                bases.push(Base::from_code((state & 3) as u8));
                quals.push(q);
            }
            seg_start = t;
        }
        if at_end {
            break;
        }
        t += 1;
    }

    let sqs = genpip_genomics::quality::sum_quality(&quals);
    BasecalledChunk {
        bases,
        quals,
        sqs,
        carry: dec_states.last().copied().map(CarryState).or(carry),
        stats: ChunkStats {
            samples: n,
            mvm_ops: stats.mvm_ops,
            viterbi_cells: stats.cells,
        },
    }
}

fn mean_residual(samples: &[f32], level: f32, assumed_var: f32) -> f32 {
    if samples.is_empty() {
        return 1.0;
    }
    let sum: f32 = samples.iter().map(|x| (x - level) * (x - level)).sum();
    sum / (samples.len() as f32 * assumed_var)
}

fn caller() -> Basecaller {
    let pore = PoreModel::synthetic(3, 7);
    let synth = SignalSynthesizer::new(pore.clone());
    Basecaller::new(&pore, synth.mean_dwell())
}

/// Asserts that the shipped assembly of one path (through a reused,
/// dirty segment buffer) is the oracle's, to the bit.
fn assert_same(
    caller: &Basecaller,
    segments: &mut Vec<(f32, u32)>,
    (signal, states, advanced): (&[f32], &[u16], &[bool]),
    carry: Option<CarryState>,
    what: &str,
) -> BasecalledChunk {
    let stats = DecodeStats {
        score: 0.0,
        mvm_ops: signal.len(),
        cells: signal.len() * caller.model.states(),
    };
    let want = per_segment_assemble(caller, signal, states, advanced, carry, stats);
    let got = caller.assemble_chunk(signal, states, advanced, carry, stats, segments);
    assert_eq!(got, want, "{what}");
    assert_eq!(got.sqs.to_bits(), want.sqs.to_bits(), "{what}: sqs");
    let bits = |c: &BasecalledChunk| c.quals.iter().map(|q| q.0.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&got), bits(&want), "{what}: quals");
    got
}

#[test]
fn decoded_chunks_agree_over_the_noise_range() {
    let caller = caller();
    let synth = SignalSynthesizer::new(caller.pore.clone());
    let per_chunk = samples_per_chunk(300, synth.mean_dwell());
    let (mut scratch, mut decode, mut segments) =
        (CallScratch::new(), DecodeScratch::new(), Vec::new());
    // Free starts, stitched starts that take the boundary advance, and
    // stitched starts that continue the carried k-mer.
    let mut starts = [0usize; 3];
    for (i, noise) in [0.8, 1.0, 1.3, 1.7, 2.2, 2.6, 3.0].into_iter().enumerate() {
        for seed in 0..4u64 {
            let truth = GenomeBuilder::new(1_200 + 150 * seed as usize)
                .seed(100 * i as u64 + seed)
                .build()
                .sequence()
                .clone();
            let signal = synth.synthesize(&truth, noise, seed).samples;
            let mut carry = None;
            for (c, samples) in signal.chunks(per_chunk).enumerate() {
                let what = format!("noise {noise}, seed {seed}, chunk {c}");
                let stats = decode_with(
                    &caller.model,
                    samples,
                    carry.map(|c: CarryState| c.0),
                    &mut decode,
                );
                let path = (samples, decode.states(), decode.advanced());
                let want = assert_same(&caller, &mut segments, path, carry, &what);
                assert_eq!(want.stats.viterbi_cells, stats.cells);
                assert_eq!(
                    caller.call_chunk_with(samples, carry, &mut scratch),
                    want,
                    "{what}"
                );
                starts[match carry {
                    None => 0,
                    Some(_) if decode.advanced()[0] => 1,
                    Some(_) => 2,
                }] += 1;
                carry = want.carry;
            }
        }
    }
    assert!(
        starts.iter().all(|&n| n > 0),
        "every kind of start is covered: {starts:?}"
    );
}

#[test]
fn one_sample_and_advance_free_chunks_agree() {
    let caller = caller();
    let mut segments = vec![(f32::NAN, u32::MAX); 7];
    let level = |s: u16| caller.pore.level_bits(u64::from(s));
    for s in [0u16, 5, 27, 63] {
        let x = [level(s) + 0.7];
        // One sample: free, stitched in the carried k-mer, stitched across
        // the boundary advance.
        assert_same(
            &caller,
            &mut segments,
            (&x, &[s], &[false]),
            None,
            "one sample, free",
        );
        let stay = Some(CarryState(s));
        assert_same(
            &caller,
            &mut segments,
            (&x, &[s], &[false]),
            stay,
            "one sample, stay",
        );
        let from = Some(CarryState(s >> 2));
        assert_same(
            &caller,
            &mut segments,
            (&x, &[s], &[true]),
            from,
            "one sample, advance",
        );

        // No advance after sample 0, long and short.
        for n in [2usize, 3, 50, 2_477] {
            let xs: Vec<f32> = (0..n)
                .map(|i| level(s) + (i % 7) as f32 * 0.3 - 0.9)
                .collect();
            let states = vec![s; n];
            let mut advanced = vec![false; n];
            assert_same(
                &caller,
                &mut segments,
                (&xs, &states, &advanced),
                None,
                "no advance, free",
            );
            assert_same(
                &caller,
                &mut segments,
                (&xs, &states, &advanced),
                stay,
                "no advance",
            );
            advanced[0] = true;
            let what = "only the boundary advance";
            assert_same(
                &caller,
                &mut segments,
                (&xs, &states, &advanced),
                from,
                what,
            );
        }
    }
}

#[test]
fn arbitrary_kmer_walks_agree() {
    // Any path a traceback can produce: the state changes only at an
    // advance (an advance may also re-enter the same homopolymer state),
    // with dwells from one sample (an advance at every sample) up, and
    // samples from the level ± noise out to far-off finite values.
    let caller = caller();
    let mut rng = seeded(0xA55E);
    let mut segments = Vec::new();
    for case in 0..400 {
        let n = rng.random_range(1..600usize);
        let p_advance = [0.05, 0.12, 0.5, 1.0][case % 4];
        let carry = (case % 3 != 0).then(|| CarryState(rng.random_range(0..64u16)));
        let mut state = carry.map_or(rng.random_range(0..64u16), |c| c.0);
        let (mut states, mut advanced, mut xs) = (Vec::new(), Vec::new(), Vec::new());
        for t in 0..n {
            let may_advance = t > 0 || carry.is_some();
            let advance = may_advance && rng.random::<f64>() < p_advance;
            if advance {
                state = ((state << 2) | rng.random_range(0..4u16)) & 63;
            }
            states.push(state);
            advanced.push(advance);
            let noise = match rng.random_range(0..20u32) {
                0 => rng.random_range(-1e6f32..1e6),
                _ => rng.random_range(-3.0f32..3.0),
            };
            xs.push(caller.pore.level_bits(u64::from(state)) + noise);
        }
        let what = format!("case {case}: {n} samples, p_advance {p_advance}, carry {carry:?}");
        assert_same(
            &caller,
            &mut segments,
            (&xs, &states, &advanced),
            carry,
            &what,
        );
    }
}
