//! The chunk-level basecaller.

use crate::emission::EmissionModel;
use crate::quality::QualityCalibration;
use crate::viterbi::{decode_with, DecodeScratch, FixedPointModel, Transitions};
use genpip_genomics::{DnaSeq, Phred};
use genpip_signal::{chunk_boundaries, PoreModel};

/// Reusable per-worker basecalling workspace: the Viterbi scratch and the
/// quality step's segment and Phred buffers. One instance per thread keeps
/// the steady-state call free of heap allocations but the returned bases
/// and, from [`Basecaller::call_chunk_with`], qualities (see
/// [`crate::viterbi::DecodeScratch`]).
///
/// **Footprint.** The segment buffer adds 8 bytes per sample of the largest
/// chunk seen (one `(f32, u32)` slot per sample, the most dwell segments a
/// chunk can hold) to the decode's records, and the Phred buffer one byte
/// per base of the longest chunk seen.
#[derive(Debug, Clone, Default)]
pub struct CallScratch {
    decode: DecodeScratch,
    /// Whether the most recent decode step was stitched to a carry.
    stitched: bool,
    /// Each dwell segment's residual sum and past-the-end sample, written by
    /// the quality step's first loop and read by its second.
    segments: Vec<(f32, u32)>,
    /// The most recent quality step's Phreds, which its result borrows.
    quals: Vec<Phred>,
}

impl CallScratch {
    /// Creates an empty workspace; buffers are sized lazily on first use.
    pub fn new() -> CallScratch {
        CallScratch::default()
    }
}

/// One chunk's decoded path as the quality step reads it: every sample's
/// state and advance flag, and whether the decode was stitched to a carry
/// (which decides how many bases the first dwell segment emits). Borrowed
/// from a [`PathBuffer`].
#[derive(Debug, Clone, Copy)]
pub struct ChunkPath<'a> {
    states: &'a [u16],
    advanced: &'a [bool],
    stitched: bool,
}

/// Copies of decoded paths kept for a later quality step
/// ([`Basecaller::chunk_quality_with`]), in push order: 3 bytes a sample.
/// Cleared and reused, it allocates only when it holds more samples or
/// paths than ever before.
#[derive(Debug, Clone, Default)]
pub struct PathBuffer {
    states: Vec<u16>,
    advanced: Vec<bool>,
    /// Each path's end in `states` and whether its decode was stitched.
    paths: Vec<(usize, bool)>,
}

impl PathBuffer {
    /// Appends a copy of the path of `scratch`'s most recent decode step.
    pub fn push(&mut self, scratch: &CallScratch) {
        self.states.extend_from_slice(scratch.decode.states());
        self.advanced.extend_from_slice(scratch.decode.advanced());
        self.paths.push((self.states.len(), scratch.stitched));
    }

    /// The `i`-th path pushed since the last [`PathBuffer::clear`].
    ///
    /// # Panics
    ///
    /// Panics if fewer than `i + 1` paths are held.
    pub fn get(&self, i: usize) -> ChunkPath<'_> {
        let start = i.checked_sub(1).map_or(0, |j| self.paths[j].0);
        let (end, stitched) = self.paths[i];
        ChunkPath {
            states: &self.states[start..end],
            advanced: &self.advanced[start..end],
            stitched,
        }
    }

    /// Forgets every path, keeping the capacity.
    pub fn clear(&mut self) {
        self.states.clear();
        self.advanced.clear();
        self.paths.clear();
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

/// The decode step's result ([`Basecaller::decode_chunk_with`]): a chunk's
/// bases, its carry and its counters. The decoded path stays in the
/// [`CallScratch`] until its next decode; [`PathBuffer::push`] keeps a copy
/// for a later quality step.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedChunk {
    /// Bases decoded from this chunk.
    pub bases: DnaSeq,
    /// Decoder state after the last sample, for stitching.
    pub carry: Option<CarryState>,
    /// Workload counters.
    pub stats: ChunkStats,
}

/// The quality step's result ([`Basecaller::chunk_quality_with`]): one
/// Phred per base of the decode step's bases, borrowed from the
/// [`CallScratch`] until its next quality step, and their sum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChunkQuality<'a> {
    /// Per-base Phred qualities.
    pub quals: &'a [Phred],
    /// Sum of `quals` — the scalar PIM-CQS ships to the GenPIP controller.
    pub sqs: f64,
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
    /// working memory: the decode step
    /// ([`Basecaller::decode_chunk_with`]) and then the quality step
    /// ([`Basecaller::decoded_quality_with`]) on the path it left in
    /// `scratch`, whose Phreds it copies into the result.
    ///
    /// `carry` stitches this chunk to the previous one; pass `None` for the
    /// first chunk of a read. Empty input produces an empty chunk.
    ///
    /// # Panics
    ///
    /// As [`Basecaller::decode_chunk_with`].
    pub fn call_chunk_with(
        &self,
        samples: &[f32],
        carry: Option<CarryState>,
        scratch: &mut CallScratch,
    ) -> BasecalledChunk {
        let decoded = self.decode_chunk_with(samples, carry, scratch);
        let quality = self.decoded_quality_with(samples, scratch);
        BasecalledChunk {
            bases: decoded.bases,
            quals: quality.quals.to_vec(),
            sqs: quality.sqs,
            carry: decoded.carry,
            stats: decoded.stats,
        }
    }

    /// The decode step of [`Basecaller::call_chunk_with`]: the integrity
    /// gate, the DP rows and the traceback, then the bases of the decoded
    /// path. The path stays in `scratch` for the quality step, until the
    /// next decode.
    ///
    /// The first dwell segment emits the initial k-mer's k bases on a free
    /// start, one base on a stitched start that took the boundary advance,
    /// and nothing when it continues the carried k-mer; every later segment
    /// emits one base, the last of its state, which the traceback gathers
    /// as it walks the path (one store a sample, no branch): a pass of its
    /// own over the path cost about 1 ns a sample, as much as the quality
    /// step's branch-free restart saved.
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
    pub fn decode_chunk_with(
        &self,
        samples: &[f32],
        carry: Option<CarryState>,
        scratch: &mut CallScratch,
    ) -> DecodedChunk {
        scratch.stitched = carry.is_some();
        if samples.is_empty() {
            // Empties the path, so that the quality step reads no samples.
            decode_with(&self.model, samples, None, &mut scratch.decode);
            return DecodedChunk {
                bases: DnaSeq::new(),
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
        let head = head_bases(
            self.pore.k(),
            scratch.stitched,
            scratch.decode.advanced()[0],
        );
        let bases = DnaSeq::from_codes(scratch.decode.base_codes(head));
        DecodedChunk {
            bases,
            carry: scratch.decode.states().last().copied().map(CarryState),
            stats: ChunkStats {
                samples: samples.len(),
                mvm_ops: stats.mvm_ops,
                viterbi_cells: stats.cells,
            },
        }
    }

    /// The quality step of [`Basecaller::call_chunk_with`], on a path a
    /// [`PathBuffer`] kept from the decode step of the same `samples`: one
    /// Phred per base of that step's bases, and their sum. It may run at
    /// once or after later decodes; either way its result is the same, to
    /// the bit.
    ///
    /// Two loops. The first walks the samples once with a running `f32`
    /// residual sum, `(x − level)²` of the sample's decoded state, that
    /// restarts at each advance; at every sample it stores the sum so far
    /// and the sample index at the next free slot of a segment buffer, and
    /// moves the slot on only at an advance. The restart clears the sum's
    /// bits under a mask made from the advance flag, so nothing in the loop
    /// branches on the path: `objdump -d` of the release loop shows, besides
    /// its back edge, only two bounds checks that never fire. Written as a
    /// select on the flag, the restart compiled to a `jne` around the reset,
    /// which mispredicts on a path the predictor has not seen. Each
    /// segment's sum is the same sequential additions, in the same order, as
    /// summing the segment on its own. The second loop turns each segment
    /// into a Phred, one `f32::ln` each: about a third of the step on cold
    /// chunks. The Phreds go to a buffer `scratch` keeps, so the step
    /// allocates nothing once the buffer has held the longest chunk's bases.
    ///
    /// # Panics
    ///
    /// Panics if `path` is not as long as `samples`, or if the chunk holds
    /// `2^32` samples or more.
    pub fn chunk_quality_with<'a>(
        &self,
        samples: &[f32],
        path: ChunkPath<'_>,
        scratch: &'a mut CallScratch,
    ) -> ChunkQuality<'a> {
        self.quality(samples, path, &mut scratch.segments, &mut scratch.quals)
    }

    /// [`Basecaller::chunk_quality_with`] on the path of `scratch`'s most
    /// recent decode step, of the same `samples`: the quality step run at
    /// once, reading the path where the decode left it.
    ///
    /// # Panics
    ///
    /// As [`Basecaller::chunk_quality_with`].
    pub fn decoded_quality_with<'a>(
        &self,
        samples: &[f32],
        scratch: &'a mut CallScratch,
    ) -> ChunkQuality<'a> {
        let path = ChunkPath {
            states: scratch.decode.states(),
            advanced: scratch.decode.advanced(),
            stitched: scratch.stitched,
        };
        self.quality(samples, path, &mut scratch.segments, &mut scratch.quals)
    }

    fn quality<'a>(
        &self,
        signal: &[f32],
        path: ChunkPath<'_>,
        segments: &mut Vec<(f32, u32)>,
        quals: &'a mut Vec<Phred>,
    ) -> ChunkQuality<'a> {
        let n = signal.len();
        assert_eq!(path.states.len(), n, "a path decoded from these samples");
        quals.clear();
        if n == 0 {
            return ChunkQuality { quals, sqs: 0.0 };
        }
        let end = u32::try_from(n).expect("a chunk holds fewer than 2^32 samples");
        let (states, advanced) = (path.states, &path.advanced[..n]);
        let levels = self.pore.levels();
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
            sum = restart_if(advanced[t], sum) + residual(t);
        }
        segments[count] = (sum, end);
        let (&first, rest) = segments[..=count].split_first().expect("a segment");

        // Pass 2: the first segment's Phred for each of its bases, then one
        // per later segment.
        let assumed_var = {
            let s = self.emission.assumed_std();
            s * s
        };
        let phred = |sum: f32, len: u32| {
            self.calibration
                .phred_from_residual(sum / (len as f32 * assumed_var))
        };
        let head = head_bases(self.pore.k(), path.stitched, advanced[0]);
        quals.resize(head, phred(first.0, first.1));
        let mut start = first.1;
        for &(sum, end) in rest {
            quals.push(phred(sum, end - start));
            start = end;
        }
        let sqs = genpip_genomics::quality::sum_quality(quals);
        ChunkQuality { quals, sqs }
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

/// Bases the first dwell segment of a `k`-mer path emits: the whole
/// initial k-mer on a free start, one base on a stitched start that took the
/// boundary advance at sample 0, none on one that continues the carried
/// k-mer.
#[inline]
fn head_bases(k: usize, stitched: bool, advanced_at_0: bool) -> usize {
    if stitched {
        usize::from(advanced_at_0)
    } else {
        k
    }
}

/// `sum`, or `+0.0` where `advanced`, through a bit mask rather than a
/// branch, so that the residual pass has nothing on the path to mispredict:
/// SSE2 `andnps` on x86-64, an integer `and` on other targets and under
/// `--cfg genpip_portable` (the goldens' portable leg runs it). The pass
/// adds a residual (`≥ +0.0`, or `+inf`) to the result, so `+0.0 + r` is
/// `r`, as the branch gave.
///
/// The integer spelling alone does not stay branch-free on x86-64: LLVM
/// folds an `and` with a mask made from a `bool` back into a select and
/// emits it as `test`/`je` around an `xorps`, the branch this replaced
/// (`objdump -d` of the release quality loop). There the quality step read
/// 3.8–5.3 ns a sample against 2.6–3.6 with the intrinsic, which the fold
/// cannot see through (six alternating rounds, each the least of 40 walks
/// over 64 cold E. coli chunks, 2-vCPU Sapphire Rapids VM).
#[inline(always)]
fn restart_if(advanced: bool, sum: f32) -> f32 {
    #[cfg(all(target_arch = "x86_64", target_feature = "sse2", not(genpip_portable)))]
    // SAFETY: the intrinsics need SSE and SSE2, which this item is compiled
    // only with (every x86-64 target enables them).
    unsafe {
        use std::arch::x86_64::{
            _mm_andnot_ps, _mm_castsi128_ps, _mm_cvtsi32_si128, _mm_cvtss_f32, _mm_set_ss,
        };
        let mask = _mm_castsi128_ps(_mm_cvtsi32_si128(-i32::from(advanced)));
        _mm_cvtss_f32(_mm_andnot_ps(mask, _mm_set_ss(sum)))
    }
    #[cfg(not(all(target_arch = "x86_64", target_feature = "sse2", not(genpip_portable))))]
    {
        f32::from_bits(sum.to_bits() & !u32::from(advanced).wrapping_neg())
    }
}

#[cfg(test)]
mod differential;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::identity;
    use genpip_genomics::{average_quality, GenomeBuilder};
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
        let (clean_aqs, noisy_aqs) = (average_quality(&clean.quals), average_quality(&noisy.quals));
        assert!(clean_aqs > 9.0, "clean AQS {clean_aqs}");
        assert!(noisy_aqs < 7.0, "noisy AQS {noisy_aqs}");
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
