//! The chunk-level basecaller.

use crate::emission::EmissionModel;
use crate::quality::QualityCalibration;
use crate::viterbi::{decode_with, DecodeScratch, DecodeStats, FixedPointModel, Transitions};
use genpip_genomics::{Base, DnaSeq, Phred};
use genpip_signal::{chunk_boundaries, PoreModel};

/// Reusable per-worker basecalling workspace: the Viterbi scratch. One
/// instance per thread keeps the steady-state decode free of heap
/// allocations (see [`crate::viterbi::DecodeScratch`]).
#[derive(Debug, Clone, Default)]
pub struct CallScratch {
    decode: DecodeScratch,
}

impl CallScratch {
    /// Creates an empty workspace; buffers are sized lazily on first use.
    pub fn new() -> CallScratch {
        CallScratch::default()
    }
}

/// The typed panic payload [`Basecaller::call_chunk_with`] raises when a
/// chunk's signal fails the integrity check before decoding: a sample that is
/// NaN or infinite, or so large that its square is infinite (`|x| > 1.8e19`,
/// where the crossbar's emission MVM, `w · [x², x, 1]`, overflows). The
/// fixed-point decoder itself is total — every `f32` falls in an
/// emission-table bin, NaN in the first — so without the gate such a sample
/// would decode to a confident path through the table's end bins instead of
/// failing: the gate is what keeps corrupt input from becoming bases.
///
/// Raised via [`std::panic::panic_any`] so fault-tolerant executors can
/// `downcast` the payload and classify the fault as corrupt *input* rather
/// than a pipeline bug: the `Session` engine in `genpip-core` maps it to
/// `FaultKind::CorruptSignal` and quarantines the read per its
/// `FaultPolicy` instead of tearing the run down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SignalFault {
    /// Index of the first offending sample within the chunk.
    pub sample_index: usize,
}

impl std::fmt::Display for SignalFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "corrupt signal: non-finite sample or sample square at chunk offset {}",
            self.sample_index
        )
    }
}

/// The decoder state carried from one chunk of a read to the next, so that
/// chunk boundaries do not reset the k-mer context. GenPIP's chunk-based
/// pipeline hands this from each chunk's basecall to the next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CarryState(pub u16);

/// One `(samples, carry)` pair for [`LaneDecoder::call_batch`].
///
/// `ChunkJob`, [`LaneScratch`] and [`LaneDecoder`] are what is left of the
/// lane-batched decoder (deleted: 0.19× of [`Basecaller::call_chunk_with`] at
/// the kernel). They are kept only for `benchmarks/`, which compiles against
/// these names, and go with the `benchmark` PR of ROADMAP item 2(a).
#[derive(Debug, Clone, Copy, Default)]
pub struct ChunkJob<'a> {
    /// The chunk's raw signal samples.
    pub samples: &'a [f32],
    /// Carry from the read's previous chunk (`None` for a first chunk).
    pub carry: Option<CarryState>,
}

/// Workspace of [`LaneDecoder::call_batch`]: one [`CallScratch`]. Kept only
/// for `benchmarks/` (see [`ChunkJob`]).
#[derive(Debug, Clone, Default)]
pub struct LaneScratch {
    scalar: CallScratch,
}

impl LaneScratch {
    /// Creates an empty workspace; buffers are sized lazily on first use.
    pub fn new() -> LaneScratch {
        LaneScratch::default()
    }
}

/// A loop over [`Basecaller::call_chunk_with`] under the deleted lane
/// decoder's name. Kept only for `benchmarks/` (see [`ChunkJob`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneDecoder;

impl LaneDecoder {
    /// The width is ignored: there is no lane kernel left to size.
    pub fn new(_width: usize) -> LaneDecoder {
        LaneDecoder
    }

    /// Clears `out`, then pushes [`Basecaller::call_chunk_with`] of every
    /// job, in job order.
    ///
    /// # Panics
    ///
    /// Panics with a typed [`SignalFault`] when it reaches a job that fails
    /// the integrity check, exactly as [`Basecaller::call_chunk_with`] does.
    pub fn call_batch(
        &self,
        caller: &Basecaller,
        jobs: &[ChunkJob],
        scratch: &mut LaneScratch,
        out: &mut Vec<BasecalledChunk>,
    ) {
        out.clear();
        for job in jobs {
            out.push(caller.call_chunk_with(job.samples, job.carry, &mut scratch.scalar));
        }
    }
}

/// Workload counters for one basecalled chunk — the quantities the PIM
/// timing/energy model charges for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChunkStats {
    /// Signal samples consumed.
    pub samples: usize,
    /// Emission MVMs performed (one per sample).
    pub mvm_ops: usize,
    /// Viterbi DP cells computed.
    pub viterbi_cells: usize,
}

/// One basecalled chunk: bases, per-base qualities, the chunk quality-score
/// sum the PIM-CQS unit produces, and the carry state for the next chunk.
#[derive(Debug, Clone, PartialEq)]
pub struct BasecalledChunk {
    /// Bases decoded from this chunk.
    pub bases: DnaSeq,
    /// Per-base Phred qualities (same length as `bases`).
    pub quals: Vec<Phred>,
    /// Sum of the chunk's quality scores — the scalar PIM-CQS ships to the
    /// GenPIP controller (paper Section 4.3.1).
    pub sqs: f64,
    /// Decoder state after the last sample, for stitching.
    pub carry: Option<CarryState>,
    /// Workload counters.
    pub stats: ChunkStats,
}

impl BasecalledChunk {
    /// Average quality score of the chunk; 0 for an empty chunk.
    pub fn average_quality(&self) -> f64 {
        if self.quals.is_empty() {
            0.0
        } else {
            self.sqs / self.quals.len() as f64
        }
    }
}

/// A fully basecalled read assembled from its chunks.
#[derive(Debug, Clone, PartialEq)]
pub struct BasecalledRead {
    /// The assembled sequence.
    pub seq: DnaSeq,
    /// Per-base qualities.
    pub quals: Vec<Phred>,
    /// Number of bases contributed by each chunk (in order).
    pub chunk_lengths: Vec<usize>,
    /// Aggregate workload counters.
    pub stats: ChunkStats,
}

impl BasecalledRead {
    /// Whole-read average quality score.
    pub fn average_quality(&self) -> f64 {
        genpip_genomics::average_quality(&self.quals)
    }
}

/// The basecaller: integrity gate + MVM emission + Viterbi decode + quality
/// scoring, operating one chunk at a time.
#[derive(Debug, Clone)]
pub struct Basecaller {
    pore: PoreModel,
    emission: EmissionModel,
    /// The decoder's quantised emissions and transitions, built once here.
    model: FixedPointModel,
    calibration: QualityCalibration,
}

impl Basecaller {
    /// Creates a basecaller for the given pore model and mean dwell time
    /// (samples per base) with the default quality calibration.
    ///
    /// The decoder reads samples as given, on the pore model's pA scale: the
    /// synthetic signals are generated there, and nothing here rescales
    /// them. Median/MAD normalization, which keys on the *read's* sample
    /// distribution rather than the level table, would introduce a
    /// composition-dependent scale error larger than the level spacing.
    pub fn new(pore: &PoreModel, mean_dwell: f64) -> Basecaller {
        Basecaller {
            pore: pore.clone(),
            emission: EmissionModel::from_pore_model(pore),
            model: FixedPointModel::new(pore, Transitions::from_mean_dwell(mean_dwell)),
            calibration: QualityCalibration::default_r9(),
        }
    }

    /// The pore model in use.
    pub fn pore_model(&self) -> &PoreModel {
        &self.pore
    }

    /// The emission model (e.g. for programming the PIM crossbar).
    pub fn emission_model(&self) -> &EmissionModel {
        &self.emission
    }

    /// Basecalls one chunk of raw samples with a fresh workspace.
    ///
    /// Convenience wrapper over [`Basecaller::call_chunk_with`]; hot loops
    /// should own a [`CallScratch`] and pass it in to avoid per-chunk
    /// allocation of the decode buffers.
    pub fn call_chunk(&self, samples: &[f32], carry: Option<CarryState>) -> BasecalledChunk {
        self.call_chunk_with(samples, carry, &mut CallScratch::new())
    }

    /// Basecalls one chunk of raw samples, reusing `scratch` for all decode
    /// working memory.
    ///
    /// `carry` stitches this chunk to the previous one; pass `None` for the
    /// first chunk of a read. Empty input produces an empty chunk.
    ///
    /// # Panics
    ///
    /// Panics with a typed [`SignalFault`] payload (via
    /// [`std::panic::panic_any`]) if any sample is non-finite or has a
    /// non-finite square — such readings overflow the
    /// emission MVM and would decode to garbage, so they are rejected before
    /// decoding starts. Executors with a fault policy catch and classify
    /// this; everything else fails fast.
    ///
    /// For a non-empty chunk, also panics if `carry` is not a state of this
    /// basecaller's model — a carry from a basecaller with another `k` — with
    /// a message naming the state and the model's state count.
    pub fn call_chunk_with(
        &self,
        samples: &[f32],
        carry: Option<CarryState>,
        scratch: &mut CallScratch,
    ) -> BasecalledChunk {
        if samples.is_empty() {
            return BasecalledChunk {
                bases: DnaSeq::new(),
                quals: Vec::new(),
                sqs: 0.0,
                carry,
                stats: ChunkStats::default(),
            };
        }
        // The one integrity gate in front of every decode: `x * x` is
        // non-finite for a NaN, an infinity, or `|x| > 1.8e19`.
        fault_unless(samples, |x| (x * x).is_finite());
        let stats = decode_with(
            &self.model,
            samples,
            carry.map(|c| c.0),
            &mut scratch.decode,
        );
        self.assemble_chunk(
            samples,
            scratch.decode.states(),
            scratch.decode.advanced(),
            carry,
            stats,
        )
    }

    /// Turns one non-empty chunk's decoded state path into bases, qualities,
    /// and the carry — the post-decode half of
    /// [`Basecaller::call_chunk_with`].
    ///
    /// Not part of the API: public only so that the kernel bench can time
    /// this stage on its own.
    #[doc(hidden)]
    pub fn assemble_chunk(
        &self,
        signal: &[f32],
        dec_states: &[u16],
        dec_advanced: &[bool],
        carry: Option<CarryState>,
        stats: DecodeStats,
    ) -> BasecalledChunk {
        let k = self.pore.k();
        let assumed_var = {
            let s = self.emission.assumed_std();
            s * s
        };
        // One base per advance, plus the initial k-mer's k on a free start.
        let advances = dec_advanced.iter().filter(|&&a| a).count();
        let n_bases = advances + if carry.is_none() { k } else { 0 };
        let mut bases = DnaSeq::with_capacity(n_bases);
        let mut quals: Vec<Phred> = Vec::with_capacity(n_bases);

        // Walk dwell segments: [start, end) ranges of samples decoded as one
        // k-mer occupancy.
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
                    self.pore.level_bits(state as u64),
                    assumed_var,
                );
                let q = self.calibration.phred_from_residual(z2);
                if first_segment {
                    first_segment = false;
                    if carry.is_none() {
                        // The initial k-mer contributes its full k bases.
                        for i in 0..k {
                            bases.push(kmer_base(state, k, i));
                            quals.push(q);
                        }
                    } else if dec_advanced[0] {
                        // Chunk-boundary advance: one new base.
                        bases.push(Base::from_code((state & 3) as u8));
                        quals.push(q);
                    }
                    // Otherwise the segment continues the carried k-mer and
                    // emits nothing new.
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

    /// Basecalls an entire read by splitting its signal into chunks of
    /// `chunk_samples` samples and stitching the results — the conventional
    /// (non-pipelined) flow of Figure 5(a).
    ///
    /// # Panics
    ///
    /// Panics if `chunk_samples` is 0.
    pub fn call_read(&self, samples: &[f32], chunk_samples: usize) -> BasecalledRead {
        let mut seq = DnaSeq::new();
        let mut quals = Vec::new();
        let mut chunk_lengths = Vec::new();
        let mut stats = ChunkStats::default();
        let mut carry = None;
        let mut scratch = CallScratch::new();
        for spec in chunk_boundaries(samples.len(), chunk_samples) {
            let chunk = self.call_chunk_with(&samples[spec.start..spec.end], carry, &mut scratch);
            chunk_lengths.push(chunk.bases.len());
            seq.extend_from_seq(&chunk.bases);
            quals.extend_from_slice(&chunk.quals);
            stats.samples += chunk.stats.samples;
            stats.mvm_ops += chunk.stats.mvm_ops;
            stats.viterbi_cells += chunk.stats.viterbi_cells;
            carry = chunk.carry;
        }
        BasecalledRead {
            seq,
            quals,
            chunk_lengths,
            stats,
        }
    }
}

/// Raises a [`SignalFault`] at the first sample `ok` rejects. The chunk is
/// tested as a whole first — a fold with no early exit, which vectorizes —
/// and searched only once it is known to hold an offender.
fn fault_unless(samples: &[f32], ok: impl Fn(f32) -> bool) {
    if samples.iter().fold(true, |all, &x| all & ok(x)) {
        return;
    }
    let first = samples.iter().position(|&x| !ok(x));
    std::panic::panic_any(SignalFault {
        sample_index: first.expect("the fold found an offender"),
    });
}

/// Base `i` (0 = earliest) of the k-mer packed in `state`.
#[inline]
fn kmer_base(state: u16, k: usize, i: usize) -> Base {
    let shift = 2 * (k - 1 - i);
    Base::from_code((state >> shift) as u8)
}

fn mean_residual(samples: &[f32], level: f32, assumed_var: f32) -> f32 {
    if samples.is_empty() {
        return 1.0;
    }
    let sum: f32 = samples.iter().map(|x| (x - level) * (x - level)).sum();
    sum / (samples.len() as f32 * assumed_var)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::identity;
    use genpip_genomics::GenomeBuilder;
    use genpip_signal::SignalSynthesizer;

    fn setup() -> (SignalSynthesizer, Basecaller) {
        let pore = PoreModel::synthetic(3, 7);
        let synth = SignalSynthesizer::new(pore.clone());
        let caller = Basecaller::new(&pore, synth.mean_dwell());
        (synth, caller)
    }

    fn truth(n: usize, seed: u64) -> DnaSeq {
        GenomeBuilder::new(n)
            .seed(seed)
            .repeat_fraction(0.0)
            .build()
            .sequence()
            .clone()
    }

    #[test]
    fn empty_chunk() {
        let (_, caller) = setup();
        let chunk = caller.call_chunk(&[], None);
        assert!(chunk.bases.is_empty());
        assert_eq!(chunk.stats, ChunkStats::default());
    }

    #[test]
    fn clean_signal_calls_accurately() {
        let (synth, caller) = setup();
        let t = truth(1_000, 1);
        let sig = synth.synthesize(&t, 0.6, 2);
        let called = caller.call_read(&sig.samples, 2400);
        let id = identity(&called.seq, &t);
        assert!(id > 0.95, "identity {id}");
        assert_eq!(called.quals.len(), called.seq.len());
    }

    #[test]
    fn noisy_signal_degrades_accuracy_and_quality() {
        let (synth, caller) = setup();
        let t = truth(1_500, 3);
        let clean = caller.call_read(&synth.synthesize(&t, 1.0, 4).samples, 2400);
        let noisy = caller.call_read(&synth.synthesize(&t, 3.0, 4).samples, 2400);
        assert!(identity(&clean.seq, &t) > identity(&noisy.seq, &t));
        assert!(
            clean.average_quality() > 9.0,
            "clean AQS {}",
            clean.average_quality()
        );
        assert!(
            noisy.average_quality() < 7.0,
            "noisy AQS {}",
            noisy.average_quality()
        );
    }

    #[test]
    #[should_panic(expected = "carried state 64 is not a state of this 64-state model")]
    fn a_carry_from_another_k_is_refused_by_name() {
        let (synth, caller) = setup();
        let sig = synth.synthesize(&truth(40, 3), 1.0, 4);
        let _ = caller.call_chunk(&sig.samples, Some(CarryState(64)));
    }

    #[test]
    fn chunked_equals_unchunked_approximately() {
        let (synth, caller) = setup();
        let t = truth(2_000, 5);
        let sig = synth.synthesize(&t, 1.0, 6);
        let whole = caller.call_read(&sig.samples, usize::MAX / 2);
        let chunked = caller.call_read(&sig.samples, 1_000);
        let id = identity(&whole.seq, &chunked.seq);
        assert!(id > 0.97, "identity between chunked and whole: {id}");
    }

    #[test]
    fn counters_add_up() {
        let (synth, caller) = setup();
        let t = truth(800, 7);
        let sig = synth.synthesize(&t, 1.0, 8);
        let called = caller.call_read(&sig.samples, 1_000);
        assert_eq!(called.stats.samples, sig.samples.len());
        assert_eq!(called.stats.mvm_ops, sig.samples.len());
        assert_eq!(
            called.stats.viterbi_cells,
            sig.samples.len() * caller.emission_model().states()
        );
        assert_eq!(called.chunk_lengths.iter().sum::<usize>(), called.seq.len());
    }

    #[test]
    fn sqs_matches_sum_of_quals() {
        let (synth, caller) = setup();
        let t = truth(600, 9);
        let sig = synth.synthesize(&t, 1.5, 10);
        let chunk = caller.call_chunk(&sig.samples, None);
        let expected: f64 = chunk.quals.iter().map(|q| q.0 as f64).sum();
        assert!((chunk.sqs - expected).abs() < 1e-9);
        assert!((chunk.average_quality() - expected / chunk.quals.len() as f64).abs() < 1e-9);
    }

    #[test]
    fn hand_threaded_carries_match_call_read() {
        // Decode a read chunk by chunk through `call_chunk_with`, handing
        // each chunk's carry to the next by hand: the stitched result must
        // be bit-identical to `call_read`'s.
        let (synth, caller) = setup();
        let t = truth(1_600, 13);
        let sig = synth.synthesize(&t, 1.0, 14);
        let whole = caller.call_read(&sig.samples, 900);

        let mut seq = DnaSeq::new();
        let mut quals = Vec::new();
        let mut carry = None;
        let mut chunks = 0;
        let mut scratch = CallScratch::new();
        for chunk_samples in sig.samples.chunks(900) {
            let chunk = caller.call_chunk_with(chunk_samples, carry, &mut scratch);
            seq.extend_from_seq(&chunk.bases);
            quals.extend_from_slice(&chunk.quals);
            carry = chunk.carry;
            chunks += 1;
        }
        assert_eq!(seq, whole.seq);
        assert_eq!(quals, whole.quals);
        assert_eq!(chunks, whole.chunk_lengths.len());
    }

    #[test]
    fn corrupt_signal_raises_a_typed_fault() {
        let (synth, caller) = setup();
        let t = truth(600, 15);
        let mut samples = synth.synthesize(&t, 1.0, 16).samples;
        samples[37] = f32::NAN;
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            caller.call_chunk(&samples, None)
        }))
        .expect_err("NaN samples must fault");
        let fault = payload
            .downcast_ref::<SignalFault>()
            .expect("typed SignalFault payload");
        assert_eq!(fault.sample_index, 37);
        assert!(fault.to_string().contains("non-finite"));

        // Infinities fault too, and the index is the first bad sample.
        let mut samples = synth.synthesize(&t, 1.0, 16).samples;
        samples[5] = f32::INFINITY;
        samples[9] = f32::NAN;
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            caller.call_chunk(&samples, None)
        }))
        .expect_err("infinite samples must fault");
        assert_eq!(
            payload
                .downcast_ref::<SignalFault>()
                .map(|f| f.sample_index),
            Some(5)
        );
    }

    #[test]
    fn finite_samples_that_overflow_the_emission_raise_a_typed_fault() {
        // 3e38 is a finite f32 whose emission terms are +inf and -inf (a NaN
        // row: this used to die in the traceback with "finite scores"), and
        // 1e20 squares to +inf (an all -inf row, which used to decode to a
        // meaningless path without a word).
        let (synth, caller) = setup();
        let clean = synth.synthesize(&truth(400, 19), 1.0, 20).samples;
        let fault_of = |samples: &[f32], carry| {
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                caller.call_chunk(samples, carry)
            }))
            .expect_err("overflowing samples must fault");
            *payload
                .downcast_ref::<SignalFault>()
                .expect("typed SignalFault payload")
        };
        for bad in [3e38f32, -3e38, 1e20, -1e20] {
            let mut samples = clean.clone();
            samples[123] = bad;
            assert_eq!(fault_of(&samples, None).sample_index, 123, "{bad}");
            assert_eq!(fault_of(&samples, Some(CarryState(7))).sample_index, 123);
        }
        assert_eq!(fault_of(&[3e38; 50], None).sample_index, 0);
        // The largest magnitudes with a finite square still decode.
        let mut samples = clean.clone();
        samples[123] = 1.8e19;
        samples[124] = -1.8e19;
        assert_eq!(
            caller.call_chunk(&samples, None).stats.samples,
            samples.len()
        );
    }

    #[test]
    fn call_batch_is_call_chunk_with_per_job() {
        // The shim kept for `benchmarks/`: stitched chunks of two reads and
        // an empty job, through a decoder built narrower than the job list.
        let (synth, caller) = setup();
        let sigs = [
            synth.synthesize(&truth(700, 21), 1.2, 22).samples,
            synth.synthesize(&truth(300, 23), 1.0, 24).samples,
        ];
        let mut scratch = CallScratch::new();
        let mut jobs = vec![ChunkJob::default()];
        for sig in &sigs {
            let mut carry = None;
            for samples in sig.chunks(900) {
                jobs.push(ChunkJob { samples, carry });
                carry = caller.call_chunk_with(samples, carry, &mut scratch).carry;
            }
        }
        assert!(jobs.len() > 4 && jobs.iter().any(|j| j.carry.is_some()));
        let expected: Vec<BasecalledChunk> = jobs
            .iter()
            .map(|j| caller.call_chunk_with(j.samples, j.carry, &mut scratch))
            .collect();
        let (decoder, mut lanes, mut got) = (LaneDecoder::new(2), LaneScratch::new(), Vec::new());
        decoder.call_batch(&caller, &jobs, &mut lanes, &mut got);
        assert_eq!(got, expected);
        // `out` is cleared, not appended to.
        decoder.call_batch(&caller, &jobs[..2], &mut lanes, &mut got);
        assert_eq!(got, expected[..2]);

        let mut bad = sigs[1].clone();
        bad[11] = f32::NAN;
        let jobs = [
            jobs[1],
            ChunkJob {
                samples: &bad,
                carry: None,
            },
        ];
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            decoder.call_batch(&caller, &jobs, &mut lanes, &mut got);
        }))
        .expect_err("a corrupt job must fault the batch");
        assert_eq!(
            payload
                .downcast_ref::<SignalFault>()
                .map(|f| f.sample_index),
            Some(11)
        );
    }

    #[test]
    fn called_length_tracks_truth_length() {
        let (synth, caller) = setup();
        let t = truth(1_200, 11);
        let sig = synth.synthesize(&t, 1.0, 12);
        let called = caller.call_read(&sig.samples, 2400);
        let ratio = called.seq.len() as f64 / t.len() as f64;
        assert!((ratio - 1.0).abs() < 0.1, "length ratio {ratio}");
    }
}
