//! Differential suite for the chunk call's two steps.
//!
//! [`Basecaller::call_chunk_with`] is a decode step (the DP rows, the
//! traceback, which also gathers the bases of the path) and a quality step
//! (a residual pass whose sum restarts under a bit mask at each advance,
//! then a Phred per dwell segment), and the quality step may run long after
//! its decode, on a path a [`PathBuffer`] kept. The one-call assembly they
//! replaced — one walk over the samples storing each segment's sum and end
//! with a branch at the restart, then bases and Phreds together per segment
//! — is kept here verbatim as the oracle, [`assemble_chunk`]: every
//! segment's sum is the same sequential `f32` additions in the same order,
//! so the steps must agree with it on the whole [`BasecalledChunk`] — the
//! bases, every `Phred` and the `sqs` to the bit, the carry and the
//! counters — run at once or deferred past later decodes. The decoded
//! cases: workload chunks of the E. coli and human profiles and of a mix
//! half of whose reads are low quality, in pipeline order with their
//! carries; the noise range the datasets draw from (0.8–3×) with free and
//! stitched starts, with and without the boundary advance at sample 0; 1-
//! and 2-sample chunks; signal that holds one level, alone or stepping to
//! a successor's level at its last sample, which decodes to one segment or
//! to a path whose only advance is its last sample; samples at the
//! integrity gate, whose segment sums overflow to `+inf` and land on
//! `q_floor`. The quality step alone, on hand-made paths: chunks of one
//! segment, a chunk whose only advance is its last sample, and arbitrary
//! k-mer walks.

use super::*;
use crate::viterbi::DecodeStats;
use genpip_datasets::{DatasetProfile, ReadSource, StreamingSimulator};
use genpip_genomics::rng::{seeded, Rng};
use genpip_genomics::GenomeBuilder;
use genpip_signal::{chunk::samples_per_chunk, SignalSynthesizer};

/// The assembly the two steps replaced, verbatim but for its receiver:
/// the decoded path into bases, qualities and the carry in one call.
fn assemble_chunk(
    caller: &Basecaller,
    signal: &[f32],
    dec_states: &[u16],
    dec_advanced: &[bool],
    carry: Option<CarryState>,
    stats: DecodeStats,
    segments: &mut Vec<(f32, u32)>,
) -> BasecalledChunk {
    let n = signal.len();
    let end = u32::try_from(n).expect("a chunk holds fewer than 2^32 samples");
    let (states, advanced) = (&dec_states[..n], &dec_advanced[..n]);
    let levels = caller.pore.levels();
    let residual = |t: usize| {
        let d = signal[t] - levels[usize::from(states[t])];
        d * d
    };

    // Pass 1: a segment stays in one state, so each sample's own state
    // gives the segment's level. At most one segment per sample; every
    // slot read below is written first.
    segments.resize(n, (0.0, 0));
    let mut count = 0;
    let mut sum = residual(0);
    for t in 1..n {
        segments[count] = (sum, t as u32);
        count += usize::from(advanced[t]);
        sum = if advanced[t] { 0.0 } else { sum } + residual(t);
    }
    segments[count] = (sum, end);
    let (&first, rest) = segments[..=count].split_first().expect("a segment");

    // Pass 2. The first segment emits the initial k-mer's k bases on a
    // free start, one base on a stitched start that took the boundary
    // advance, and nothing when it continues the carried k-mer; every
    // later segment emits one base.
    let k = caller.pore.k();
    let assumed_var = {
        let s = caller.emission.assumed_std();
        s * s
    };
    let phred = |sum: f32, len: u32| {
        caller
            .calibration
            .phred_from_residual(sum / (len as f32 * assumed_var))
    };
    let head = match carry {
        None => k,
        Some(_) => usize::from(advanced[0]),
    };
    let n_bases = head + rest.len();
    let mut bases = DnaSeq::with_capacity(n_bases);
    let mut quals: Vec<Phred> = Vec::with_capacity(n_bases);
    let q = phred(first.0, first.1);
    for i in k - head..k {
        bases.push(kmer_base(states[0], k, i));
        quals.push(q);
    }
    let mut start = first.1;
    for &(sum, end) in rest {
        bases.push(kmer_base(states[start as usize], k, k - 1));
        quals.push(phred(sum, end - start));
        start = end;
    }

    let sqs = genpip_genomics::quality::sum_quality(&quals);
    BasecalledChunk {
        bases,
        quals,
        sqs,
        carry: states.last().copied().map(CarryState).or(carry),
        stats: ChunkStats {
            samples: n,
            mvm_ops: stats.mvm_ops,
            viterbi_cells: stats.cells,
        },
    }
}

/// Base `i` (0 = earliest) of the k-mer packed in `state`.
fn kmer_base(state: u16, k: usize, i: usize) -> genpip_genomics::Base {
    let shift = 2 * (k - 1 - i);
    genpip_genomics::Base::from_code((state >> shift) as u8)
}

fn caller() -> Basecaller {
    let pore = PoreModel::synthetic(3, 7);
    let synth = SignalSynthesizer::new(pore.clone());
    Basecaller::new(&pore, synth.mean_dwell())
}

/// Asserts `got` is `want` on every field, every `Phred` and the `sqs` to
/// the bit.
fn assert_bits(got: &BasecalledChunk, want: &BasecalledChunk, what: &str) {
    assert_eq!(got, want, "{what}");
    assert_eq!(got.sqs.to_bits(), want.sqs.to_bits(), "{what}: sqs");
    let bits = |c: &BasecalledChunk| c.quals.iter().map(|q| q.0.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(got), bits(want), "{what}: quals");
}

/// The two steps' results as one chunk.
fn joined(decoded: &DecodedChunk, quality: ChunkQuality) -> BasecalledChunk {
    BasecalledChunk {
        bases: decoded.bases.clone(),
        quals: quality.quals.to_vec(),
        sqs: quality.sqs,
        carry: decoded.carry,
        stats: decoded.stats,
    }
}

/// Walks `chunks` (samples and carry, in pipeline order) through the
/// oracle, the whole call, and the two steps run at once and with the
/// quality of every chunk deferred until `window` later chunks have been
/// decoded, on reused scratches; everything must agree to the bit.
/// Returns how many chunks started free, stitched across the boundary
/// advance, and stitched in the carried k-mer.
fn assert_steps_agree(
    caller: &Basecaller,
    chunks: &[(&[f32], Option<CarryState>)],
    window: usize,
    what: &str,
) -> [usize; 3] {
    let (mut call, mut steps, mut decode) =
        (CallScratch::new(), CallScratch::new(), DecodeScratch::new());
    let (mut oracle_segments, mut kept) = (Vec::new(), PathBuffer::default());
    let mut starts = [0; 3];
    let mut pending: Vec<(usize, DecodedChunk, BasecalledChunk)> = Vec::new();
    for (c, &(samples, carry)) in chunks.iter().enumerate() {
        let what = format!("{what}, chunk {c}");
        let stats = decode_with(&caller.model, samples, carry.map(|s| s.0), &mut decode);
        let want = assemble_chunk(
            caller,
            samples,
            decode.states(),
            decode.advanced(),
            carry,
            stats,
            &mut oracle_segments,
        );
        assert_bits(
            &caller.call_chunk_with(samples, carry, &mut call),
            &want,
            &what,
        );
        starts[match carry {
            None => 0,
            Some(_) if decode.advanced()[0] => 1,
            Some(_) => 2,
        }] += 1;

        let decoded = caller.decode_chunk_with(samples, carry, &mut steps);
        let mut once = PathBuffer::default();
        once.push(&steps);
        let quality = caller.chunk_quality_with(samples, once.get(0), &mut steps);
        assert_bits(
            &joined(&decoded, quality),
            &want,
            &format!("{what}, at once"),
        );

        kept.push(&steps);
        pending.push((c, decoded, want));
        if pending.len() > window || c + 1 == chunks.len() {
            for (i, (c, decoded, want)) in pending.drain(..).enumerate() {
                let quality = caller.chunk_quality_with(chunks[c].0, kept.get(i), &mut steps);
                let what = format!("{what}: chunk {c} deferred");
                assert_bits(&joined(&decoded, quality), &want, &what);
            }
            kept.clear();
        }
    }
    starts
}

/// A chunk's samples and the carry it starts from.
type OwnedChunk = (Vec<f32>, Option<CarryState>);

/// The first `n` chunks of `profile`'s reads in pipeline order, each
/// read's chunks in turn at the pipeline's 300-base chunk size, with the
/// carries the read's previous chunks leave; and the basecaller the
/// pipeline builds for them.
fn workload_chunks(profile: &DatasetProfile, n: usize) -> (Basecaller, Vec<OwnedChunk>) {
    let mut source = StreamingSimulator::new(profile);
    let (pore, dwell) = (source.pore_model().clone(), source.mean_dwell());
    let caller = Basecaller::new(&pore, dwell);
    let mut chunks = Vec::with_capacity(n);
    let mut scratch = CallScratch::new();
    while chunks.len() < n {
        let read = source.next_read().expect("the profile streams reads");
        let mut carry = None;
        for samples in read
            .signal
            .samples
            .chunks(samples_per_chunk(300, dwell))
            .take(n - chunks.len())
        {
            chunks.push((samples.to_vec(), carry));
            carry = caller.decode_chunk_with(samples, carry, &mut scratch).carry;
        }
    }
    (caller, chunks)
}

#[test]
fn workload_chunks_of_every_profile_agree_at_once_and_deferred() {
    let mut low_quality = DatasetProfile::ecoli();
    low_quality.low_quality_fraction = 0.5;
    for (name, profile) in [
        ("ecoli", DatasetProfile::ecoli()),
        ("human", DatasetProfile::human()),
        ("half low quality", low_quality),
    ] {
        let (caller, chunks) = workload_chunks(&profile, 96);
        let chunks: Vec<(&[f32], Option<CarryState>)> =
            chunks.iter().map(|(s, c)| (s.as_slice(), *c)).collect();
        let starts = assert_steps_agree(&caller, &chunks, 4, name);
        assert!(
            starts[0] > 0 && starts[1] + starts[2] > 0,
            "{name}: {starts:?}"
        );
    }
}

#[test]
fn decoded_chunks_agree_over_the_noise_range() {
    let caller = caller();
    let synth = SignalSynthesizer::new(caller.pore.clone());
    let per_chunk = samples_per_chunk(300, synth.mean_dwell());
    let mut starts = [0usize; 3];
    for (i, noise) in [0.8, 1.0, 1.3, 1.7, 2.2, 2.6, 3.0].into_iter().enumerate() {
        for seed in 0..4u64 {
            let truth = GenomeBuilder::new(1_200 + 150 * seed as usize)
                .seed(100 * i as u64 + seed)
                .build()
                .sequence()
                .clone();
            let signal = synth.synthesize(&truth, noise, seed).samples;
            let mut chunks = Vec::new();
            let mut scratch = CallScratch::new();
            let mut carry = None;
            for samples in signal.chunks(per_chunk) {
                chunks.push((samples, carry));
                carry = caller.decode_chunk_with(samples, carry, &mut scratch).carry;
            }
            let what = format!("noise {noise}, seed {seed}");
            let found = assert_steps_agree(&caller, &chunks, 2, &what);
            (0..3).for_each(|s| starts[s] += found[s]);
        }
    }
    // Free starts, stitched starts that take the boundary advance, and
    // stitched starts that continue the carried k-mer.
    assert!(
        starts.iter().all(|&n| n > 0),
        "every kind of start is covered: {starts:?}"
    );
}

#[test]
fn tiny_chunks_and_samples_at_the_integrity_gate_agree() {
    let caller = caller();
    let synth = SignalSynthesizer::new(caller.pore.clone());
    let signal = synth
        .synthesize(
            &GenomeBuilder::new(200).seed(5).build().sequence().clone(),
            1.0,
            6,
        )
        .samples;
    // 1- and 2-sample chunks, free and stitched to every state's successor
    // (some stay in it, some take the boundary advance).
    let mut chunks: Vec<(&[f32], Option<CarryState>)> = Vec::new();
    for (i, len) in [1usize, 2, 1, 2, 1]
        .into_iter()
        .cycle()
        .take(40)
        .enumerate()
    {
        let samples = &signal[7 * i..7 * i + len];
        chunks.push((
            samples,
            (i % 3 != 0).then_some(CarryState((5 * i % 64) as u16)),
        ));
    }
    assert_steps_agree(&caller, &chunks, 3, "tiny");

    // Samples whose squares are finite but whose segment sums are not: the
    // sum of two of them overflows to +inf, which must restart to 0 at the
    // next advance and put `q_floor` on the segment's bases, as before.
    let mut gate = signal[..600].to_vec();
    for t in [100, 101, 102, 300, 301, 450] {
        gate[t] = if t % 2 == 0 { 1.8e19 } else { -1.8e19 };
    }
    let chunks = [
        (&gate[..], None),
        (&gate[..300], Some(CarryState(9))),
        (&gate[100..103], None),
    ];
    assert_steps_agree(&caller, &chunks, 1, "at the gate");
    let called = caller.call_chunk(&gate, None);
    assert!(called.quals.contains(&Phred(caller.calibration.q_floor)));
    assert!(called
        .quals
        .iter()
        .any(|q| q.0 > caller.calibration.q_floor));
}

/// The quality step on a hand-made path, through reused dirty buffers,
/// against the oracle: every `Phred` and the `sqs` to the bit. (Bases come
/// from the traceback, so only a real decode gives them; the decoded tests
/// compare those.) Returns the Phreds.
fn assert_path(
    caller: &Basecaller,
    scratch: &mut CallScratch,
    (signal, states, advanced): (&[f32], &[u16], &[bool]),
    carry: Option<CarryState>,
    what: &str,
) -> Vec<Phred> {
    let stats = DecodeStats::default();
    let want = assemble_chunk(
        caller,
        signal,
        states,
        advanced,
        carry,
        stats,
        &mut Vec::new(),
    );
    let path = ChunkPath {
        states,
        advanced,
        stitched: carry.is_some(),
    };
    let got = caller.chunk_quality_with(signal, path, scratch);
    let bits = |quals: &[Phred]| quals.iter().map(|q| q.0.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(got.quals), bits(&want.quals), "{what}: quals");
    assert_eq!(got.sqs.to_bits(), want.sqs.to_bits(), "{what}: sqs");
    got.quals.to_vec()
}

#[test]
fn one_sample_and_advance_free_chunks_agree() {
    let caller = caller();
    let mut scratch = CallScratch::new();
    scratch.segments = vec![(f32::NAN, u32::MAX); 7];
    let level = |s: u16| caller.pore.level_bits(u64::from(s));
    for s in [0u16, 5, 27, 63] {
        let x = [level(s) + 0.7];
        // One sample: free, stitched in the carried k-mer, stitched across
        // the boundary advance.
        let (stay, from) = (Some(CarryState(s)), Some(CarryState(s >> 2)));
        assert_path(
            &caller,
            &mut scratch,
            (&x, &[s], &[false]),
            None,
            "one sample, free",
        );
        assert_path(
            &caller,
            &mut scratch,
            (&x, &[s], &[false]),
            stay,
            "one sample, stay",
        );
        assert_path(
            &caller,
            &mut scratch,
            (&x, &[s], &[true]),
            from,
            "one sample, advance",
        );

        // One segment, long and short; then the same with its only advance
        // at sample 0 or at the last sample.
        for n in [2usize, 3, 50, 2_477] {
            let xs: Vec<f32> = (0..n)
                .map(|i| level(s) + (i % 7) as f32 * 0.3 - 0.9)
                .collect();
            let mut states = vec![s; n];
            let mut advanced = vec![false; n];
            let path = (&xs[..], &states[..], &advanced[..]);
            assert_path(&caller, &mut scratch, path, None, "one segment, free");
            assert_path(&caller, &mut scratch, path, stay, "one segment");
            advanced[0] = true;
            let path = (&xs[..], &states[..], &advanced[..]);
            assert_path(
                &caller,
                &mut scratch,
                path,
                from,
                "only the boundary advance",
            );
            advanced[0] = false;
            advanced[n - 1] = true;
            states[n - 1] = (s << 2 | 2) & 63;
            for carry in [None, stay] {
                let path = (&xs[..], &states[..], &advanced[..]);
                let quals = assert_path(&caller, &mut scratch, path, carry, "last sample advances");
                assert_eq!(quals.len(), head_bases(3, carry.is_some(), false) + 1);
            }
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
    let mut scratch = CallScratch::new();
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
        assert_path(
            &caller,
            &mut scratch,
            (&xs, &states, &advanced),
            carry,
            &what,
        );
    }
}

#[test]
fn one_segment_and_last_sample_advance_decodes_agree() {
    // Signal that holds one state's level, alone or with its last sample at
    // the level of the successor furthest from it: decodes of one segment
    // and decodes whose only advance is the last sample, free and stitched
    // in the carried k-mer, compared on every field, bases included.
    let caller = caller();
    let level = |s: u16| caller.pore.level_bits(u64::from(s));
    let mut signals = Vec::new();
    for s in 0..64u16 {
        let next = (0..4u16)
            .map(|c| (s << 2 | c) & 63)
            .max_by(|&a, &b| {
                (level(a) - level(s))
                    .abs()
                    .total_cmp(&(level(b) - level(s)).abs())
            })
            .expect("four successors");
        for n in [2usize, 3, 12, 50] {
            let held: Vec<f32> = (0..n)
                .map(|i| level(s) + (i % 3) as f32 * 0.2 - 0.2)
                .collect();
            let mut stepped = held.clone();
            stepped[n - 1] = level(next);
            signals.extend([(held, s), (stepped, s)]);
        }
    }
    let mut chunks: Vec<(&[f32], Option<CarryState>)> = Vec::new();
    for (samples, s) in &signals {
        chunks.extend([(&samples[..], None), (&samples[..], Some(CarryState(*s)))]);
    }
    assert_steps_agree(&caller, &chunks, 2, "held level");

    // Both shapes are among the decodes, free and stitched.
    let mut decode = DecodeScratch::new();
    let mut shapes = [[0usize; 2]; 2];
    for &(samples, carry) in &chunks {
        decode_with(&caller.model, samples, carry.map(|c| c.0), &mut decode);
        let n = samples.len();
        let advances: Vec<usize> = (1..n).filter(|&t| decode.advanced()[t]).collect();
        let shape = match advances[..] {
            [] => 0,
            [t] if t == n - 1 => 1,
            _ => continue,
        };
        shapes[shape][usize::from(carry.is_some())] += 1;
    }
    assert!(shapes.iter().flatten().all(|&c| c > 0), "{shapes:?}");
}
