//! Functional execution of the genome-analysis pipeline.
//!
//! Two flows are implemented, selected by [`Flow`]:
//!
//! * [`Flow::Conventional`] — the paper's Figure 5(a): basecall the whole
//!   read (chunk by chunk with carried decoder state), read quality control
//!   on the full-read average quality, then whole-read mapping. This is the
//!   workload of the CPU, GPU and PIM baselines.
//! * [`Flow::GenPip`] — the chunk-based pipeline of Figure 5(b), optionally
//!   with early rejection (Figure 6): every basecalled chunk immediately
//!   flows through quality accumulation, seeding, and incremental chaining;
//!   QSR samples evenly-spaced chunks first, CMR checks the chaining score
//!   after the first `N_cm` chunks, and rejected reads stop consuming
//!   resources.
//!
//! Both produce [`ReadRun`]s: per-read outcomes plus the workload counters
//! (samples, MVMs, seeding shifts, anchors, DP cells, bytes) that the
//! system cost models in [`crate::systems`] consume;
//! [`PipelineRun::collect`] gathers a whole dataset's worth. Nothing about
//! rejection behaviour is modelled analytically — every decision replays the
//! real algorithms on the synthetic signals.
//!
//! # Threading model
//!
//! There is one way to run a read: the [`Session`] engine in
//! [`crate::engine`] schedules **reads**, one task each. Each read becomes
//! a read chain — a sequential chain of per-chunk steps (the decoder's
//! carry state forces chunk order within a read) that one worker steps
//! from the first chunk to the read's result. Workers are scoped threads
//! spawned lazily up to [`GenPipConfig::parallelism`]
//! ([`crate::Parallelism`]), and results are re-emitted in admission order.
//! Cross-step read state lives in the chain (decoder cursor, basecalled
//! chunks, incremental chainers); **worker-local scratch** holds only
//! stateless buffers (decode, sketch, seed — so the hot path stays
//! allocation-free in steady state). The
//! shared state ([`Basecaller`], [`ReferenceSet`] with its `Arc`-shared
//! reference genomes and `Arc`-shared minimizer indexes) is immutable,
//! therefore one index per reference serves every worker — workers never
//! clone whole-genome index state. Per-read computation never depends on
//! other reads, which makes the output **bit-identical** for every
//! `Parallelism` setting and for streaming vs batch execution — asserted
//! against the independent serial oracle in `tests/common` across all
//! [`ErMode`]s.

use crate::config::{GenPipConfig, Parallelism};
use crate::early_reject::{cmr_check, qsr_check, qsr_sample_indices};
use crate::engine::{ChainStep, Flow, Session};
use crate::scheduler::Schedule;
use crate::stream::{StreamEvent, StreamOptions};
use genpip_basecall::{BasecalledChunk, Basecaller, CallScratch, CarryState};
use genpip_datasets::{ReadSource, SimulatedDataset, SimulatedRead};
use genpip_genomics::quality::AqsAccumulator;
use genpip_genomics::{DnaSeq, Genome, Phred};
use genpip_mapping::{
    AlignScratch, IncrementalChainer, Mapping, MappingCounters, ReferenceMapping, ReferenceSet,
    SeedBatch, SeedScratch,
};
use genpip_signal::{chunk_boundaries, PoreModel};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Which early-rejection stages are active on top of CP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErMode {
    /// Chunk-based pipeline only (GenPIP-CP).
    None,
    /// CP + quality-score-based rejection (GenPIP-CP-QSR).
    QsrOnly,
    /// CP + QSR + chunk-mapping-based rejection (full GenPIP).
    Full,
}

/// Why a read left the pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum ReadOutcome {
    /// ER-QSR predicted the read low-quality after sampling `N_qs` chunks.
    RejectedQsr {
        /// Average quality of the sampled chunks.
        sampled_aqs: f64,
    },
    /// ER-CMR predicted the read unmapped after chaining `N_cm` chunks.
    RejectedCmr {
        /// Chaining score at the decision point.
        chain_score: f64,
    },
    /// Whole-read quality control discarded the read (AQS < θ_qs).
    FilteredQc {
        /// The read's full average quality score.
        aqs: f64,
    },
    /// The read was fully processed but did not map to the reference.
    Unmapped {
        /// Best whole-read chaining score.
        chain_score: f64,
    },
    /// The read mapped.
    Mapped(Mapping),
}

impl ReadOutcome {
    /// `true` for ER rejections (QSR or CMR).
    pub fn is_early_rejected(&self) -> bool {
        matches!(
            self,
            ReadOutcome::RejectedQsr { .. } | ReadOutcome::RejectedCmr { .. }
        )
    }

    /// `true` if the read produced a mapping.
    pub fn is_mapped(&self) -> bool {
        matches!(self, ReadOutcome::Mapped(_))
    }

    /// The mapping, if any.
    pub fn mapping(&self) -> Option<&Mapping> {
        match self {
            ReadOutcome::Mapped(m) => Some(m),
            _ => None,
        }
    }
}

/// Work performed at one pipeline step for one chunk.
///
/// GenPIP may touch a chunk twice — once when QSR samples it (basecall
/// only) and once when its position arrives in the sequential pass (seeding
/// and chaining only, reusing the basecalled result). Each touch is one
/// `ChunkWork` entry, so counters never double-count and the hardware
/// scheduler sees the true job sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChunkWork {
    /// Chunk index within the read.
    pub index: usize,
    /// Raw samples basecalled at this step (0 when reusing a sampled chunk).
    pub samples: usize,
    /// Emission MVMs at this step.
    pub mvm_ops: usize,
    /// Bases produced at this step.
    pub bases_called: usize,
    /// Bases pushed through seeding at this step (0 for basecall-only
    /// steps); the hardware QSG shifts once per base.
    pub seed_bases: usize,
    /// Minimizers extracted.
    pub minimizers: usize,
    /// Anchors produced (ReRAM location-list reads).
    pub anchors: usize,
    /// Chaining DP predecessor evaluations added.
    pub chain_evals: usize,
}

/// A fully-basecalled read's assembled output: what a FASTQ record needs.
///
/// Attached to [`ReadRun::called`] only when
/// [`crate::GenPipConfig::keep_bases`] is set **and** the read survived to
/// full basecalling (early-rejected reads never assemble their sequence —
/// that is the point of early rejection).
#[derive(Debug, Clone, PartialEq)]
pub struct CalledBases {
    /// The assembled basecalled sequence, in chunk order.
    pub seq: DnaSeq,
    /// Per-base Phred qualities (same length as `seq`).
    pub quals: Vec<Phred>,
}

/// One read's journey through the pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadRun {
    /// Read id.
    pub id: u32,
    /// Final outcome.
    pub outcome: ReadOutcome,
    /// Chunks the raw signal divides into (`N_total`).
    pub total_chunks: usize,
    /// Work entries in processing order.
    pub chunks: Vec<ChunkWork>,
    /// Full raw-signal samples (what a conventional flow must move/store).
    pub signal_samples: usize,
    /// Bases actually basecalled.
    pub called_len: usize,
    /// Whole-read AQS, if the read was fully basecalled.
    pub full_aqs: Option<f64>,
    /// Best whole-read chain score observed (0 if never chained).
    pub best_chain_score: f64,
    /// Query length of the final alignment (0 if none ran).
    pub align_query_len: usize,
    /// Alignment DP cells (0 if none ran).
    pub align_cells: usize,
    /// Aggregate mapping counters (seeding + chaining + alignment).
    pub map_counters: MappingCounters,
    /// The assembled sequence and qualities, kept only when
    /// [`crate::GenPipConfig::keep_bases`] is set and the read was fully
    /// basecalled (see [`CalledBases`]).
    pub called: Option<CalledBases>,
    /// Per-reference candidates from a pan-genome run
    /// ([`crate::GenPipConfig::extra_references`]), in reference-set order;
    /// the merged winner is `outcome`'s mapping, attributed via
    /// [`Mapping::ref_name`]. Empty for single-reference runs (whose
    /// `ReadRun` stays byte-for-byte what it always was) and for reads that
    /// never reached final mapping.
    pub per_reference: Vec<ReferenceMapping>,
}

impl ReadRun {
    /// Raw-signal bytes of the full read.
    pub fn raw_bytes(&self) -> usize {
        self.signal_samples * genpip_signal::BYTES_PER_SAMPLE
    }

    /// Bytes of basecalled output (2-bit packed bases + one quality byte per
    /// base), the unit the conventional flow ships between machines.
    pub fn called_bytes(&self) -> usize {
        self.called_len.div_ceil(4) + self.called_len
    }

    /// Total basecalled samples across work entries.
    pub fn basecalled_samples(&self) -> usize {
        self.chunks.iter().map(|c| c.samples).sum()
    }
}

/// A full dataset run: configuration + per-read results.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineRun {
    /// The configuration used (shared, not deep-copied, across derived runs
    /// such as [`PipelineRun::filtered`]).
    pub config: Arc<GenPipConfig>,
    /// Which ER stages were active (`None` marks the conventional flow too;
    /// see [`PipelineRun::chunked`]).
    pub er: ErMode,
    /// `true` if produced by [`Flow::GenPip`] (chunk-granularity seeding
    /// and chaining), `false` for [`Flow::Conventional`].
    pub chunked: bool,
    /// Per-read results, id-ordered.
    pub reads: Vec<ReadRun>,
}

/// Aggregate workload counters over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkloadTotals {
    /// Reads processed.
    pub reads: usize,
    /// Raw samples basecalled.
    pub samples: usize,
    /// Emission MVMs.
    pub mvm_ops: usize,
    /// Bases basecalled.
    pub bases_called: usize,
    /// Bases pushed through seeding.
    pub seed_bases: usize,
    /// Minimizers extracted.
    pub minimizers: usize,
    /// Anchors produced.
    pub anchors: usize,
    /// Chaining DP evaluations.
    pub chain_evals: usize,
    /// Alignment DP cells.
    pub align_cells: usize,
    /// Raw-signal bytes across all reads (full signals).
    pub raw_bytes: usize,
    /// Basecalled-output bytes across all reads.
    pub called_bytes: usize,
    /// Reads that reached the mapped outcome.
    pub mapped_reads: usize,
}

impl WorkloadTotals {
    /// Folds one read's counters into the totals — the unit both
    /// [`PipelineRun::totals`] and a session's report (which never holds
    /// the whole run in memory) are built from.
    ///
    /// Basecalling quantities come from the chunk work entries; mapping
    /// quantities come from the per-read [`MappingCounters`], which hold the
    /// whole-read sketch for conventional runs and the per-chunk aggregation
    /// for chunked runs.
    pub fn accumulate(&mut self, r: &ReadRun) {
        self.reads += 1;
        for c in &r.chunks {
            self.samples += c.samples;
            self.mvm_ops += c.mvm_ops;
            self.bases_called += c.bases_called;
            self.seed_bases += c.seed_bases;
        }
        self.minimizers += r.map_counters.minimizers;
        self.anchors += r.map_counters.anchors;
        self.chain_evals += r.map_counters.chain_evals;
        self.align_cells += r.align_cells;
        self.raw_bytes += r.raw_bytes();
        self.called_bytes += r.called_bytes();
        if r.outcome.is_mapped() {
            self.mapped_reads += 1;
        }
    }
}

impl PipelineRun {
    /// Runs `flow` over a materialized dataset as a single-source
    /// [`Session`] and collects the in-order emissions — the one batch
    /// spelling, for callers that want every [`ReadRun`] of a dataset in
    /// hand (cost models, experiments, tests) rather than a sink and a
    /// [`crate::engine::SessionReport`]. Reads quarantined under a containing
    /// [`crate::FaultPolicy`] are left out.
    ///
    /// # Panics
    ///
    /// Panics if `config` cannot drive the dataset (anything
    /// [`Session::run`] reports as a [`crate::engine::SessionError`]: zero
    /// chunk size, zero `N_qs` under a QSR flow, duplicate reference names
    /// in the pan-genome panel).
    pub fn collect(dataset: &SimulatedDataset, config: &GenPipConfig, flow: Flow) -> PipelineRun {
        // `Threads(0)` resolves to one worker here rather than failing. The
        // engine spawns workers lazily from chunk-level occupancy, so a tiny
        // dataset never materializes an idle pool.
        let workers = config.parallelism.workers();
        let session_config = config
            .clone()
            .with_parallelism(Parallelism::Threads(workers));
        let mut reads: Vec<ReadRun> = Vec::with_capacity(dataset.reads.len());
        Session::new(session_config)
            .flow(flow)
            .schedule(Schedule::Sequential)
            .options(StreamOptions {
                // The dataset is already resident, so a roomy queue costs
                // only the in-flight clones and keeps workers from ever
                // starving.
                queue_capacity: 4 * workers,
                ..StreamOptions::default()
            })
            .source("batch", dataset.stream())
            .sink("batch", |event| {
                if let StreamEvent::Read(run) = event {
                    reads.push(run);
                }
            })
            .run()
            .unwrap_or_else(|e| panic!("PipelineRun::collect: {e}"));
        PipelineRun {
            config: Arc::new(config.clone()),
            er: match flow {
                Flow::GenPip(er) => er,
                Flow::Conventional => ErMode::None,
            },
            chunked: matches!(flow, Flow::GenPip(_)),
            reads,
        }
    }

    /// Sums the workload counters (see [`WorkloadTotals::accumulate`]).
    pub fn totals(&self) -> WorkloadTotals {
        let mut t = WorkloadTotals::default();
        for r in &self.reads {
            t.accumulate(r);
        }
        t
    }

    /// A copy of the run containing only reads satisfying `pred` — used by
    /// the Figure 4 potential study's oracle System D, which drops useless
    /// reads before any processing.
    pub fn filtered(&self, pred: impl Fn(&ReadRun) -> bool) -> PipelineRun {
        PipelineRun {
            config: Arc::clone(&self.config),
            er: self.er,
            chunked: self.chunked,
            reads: self.reads.iter().filter(|r| pred(r)).cloned().collect(),
        }
    }

    /// Count of reads with a given outcome predicate.
    pub fn count_outcomes(&self, pred: impl Fn(&ReadOutcome) -> bool) -> usize {
        self.reads.iter().filter(|r| pred(&r.outcome)).count()
    }
}

/// Shared per-run context. Immutable once built, so one instance serves all
/// worker threads by shared reference. Owns its config (rather than
/// borrowing it) so contexts for sources attached to a *running* session
/// can be minted at any time and handed to workers without a lifetime tying
/// them to the session builder.
pub(crate) struct RunContext {
    pub(crate) config: GenPipConfig,
    caller: Basecaller,
    refs: ReferenceSet,
    samples_per_chunk: usize,
}

impl RunContext {
    /// Builds the context from any [`ReadSource`] — the `Session` engine
    /// builds one of these per registered source, so every read is
    /// processed against its own source's reference and chemistry.
    pub(crate) fn from_source<S: ReadSource + ?Sized>(
        source: &S,
        config: &GenPipConfig,
    ) -> RunContext {
        RunContext::from_parts(
            source.reference(),
            source.pore_model(),
            source.mean_dwell(),
            config,
        )
    }

    fn from_parts(
        reference: &Genome,
        pore: &PoreModel,
        mean_dwell: f64,
        config: &GenPipConfig,
    ) -> RunContext {
        // The source's own reference is the set's primary; any configured
        // extra references ride along as a pan-genome. With no extras the
        // set degenerates to exactly the old single-mapper context.
        let mut genomes: Vec<Arc<Genome>> = Vec::with_capacity(1 + config.extra_references.len());
        genomes.push(Arc::new(reference.clone()));
        genomes.extend(config.extra_references.iter().cloned());
        RunContext {
            config: config.clone(),
            caller: Basecaller::new(pore, mean_dwell),
            refs: ReferenceSet::build_shared(genomes, config.mapper),
            samples_per_chunk: config.samples_per_chunk(mean_dwell),
        }
    }
}

/// Worker-local working memory: every buffer a read needs on its way through
/// basecalling, sketching, seeding, chaining and alignment. One instance per
/// worker thread; steady-state processing reuses it without heap allocation.
pub(crate) struct WorkerScratch {
    call: CallScratch,
    seed: SeedScratch,
    batches: Vec<SeedBatch>,
    pairs: Vec<(IncrementalChainer, IncrementalChainer)>,
    align: AlignScratch,
}

impl WorkerScratch {
    pub(crate) fn new(ctx: &RunContext) -> WorkerScratch {
        WorkerScratch {
            call: CallScratch::new(),
            seed: SeedScratch::new(),
            batches: Vec::new(),
            pairs: ctx.refs.new_chainer_pairs(),
            align: AlignScratch::new(),
        }
    }
}

/// Best chain score across a set of per-reference chainer pairs — the value
/// ER-CMR thresholds against in a pan-genome run. With one reference this is
/// exactly the old `fwd.max(rev)` score (chain scores are never negative).
fn best_pair_score(pairs: &[(IncrementalChainer, IncrementalChainer)]) -> f64 {
    pairs.iter().fold(0.0f64, |acc, (fwd, rev)| {
        acc.max(fwd.best_score()).max(rev.best_score())
    })
}

/// One read as a sequential chain of chunk steps — the engine's task and
/// the only per-read code in this crate.
///
/// The decoder's [`CarryState`] forces chunk order *within* a read, so a
/// chain advances one chunk per [`ReadChain::step`]; the engine's worker
/// steps it until it finishes. All cross-step state lives here, not in the
/// worker-local [`WorkerScratch`], so the step boundary is where an ER
/// verdict stops the read and where a fault names its chunk. Across reads
/// the workers run many chains at once, which is what lets chunk `i+1` of
/// one read overlap chunk `i`'s mapping of another — the system-level
/// pipeline of the paper's Figure 5(b).
pub(crate) enum ReadChain {
    /// A chain awaiting its first step. Construction (chunk geometry,
    /// chainer allocation) happens on the worker that runs the read, so
    /// the dispatcher thread only ever moves raw reads.
    Pending {
        /// The read, taken when the chain materializes.
        read: Option<SimulatedRead>,
        /// ER mode (`None` = conventional flow).
        er: Option<ErMode>,
    },
    /// GenPIP flow (Figure 5b / Figure 6).
    GenPip(Box<GenPipChain>),
    /// Conventional flow (Figure 5a): basecalling is still per-chunk work,
    /// only QC and mapping wait for the whole read.
    Conventional(Box<ConvChain>),
}

impl ReadChain {
    /// Builds the chain for one read under the given flow. Cheap by design
    /// (no per-read setup) — it runs on the dispatcher.
    pub(crate) fn new(er: Option<ErMode>, read: SimulatedRead) -> ReadChain {
        ReadChain::Pending {
            read: Some(read),
            er,
        }
    }

    /// Runs the chain's next chunk on a worker.
    pub(crate) fn step(
        &mut self,
        ctx: &RunContext,
        scratch: &mut WorkerScratch,
    ) -> ChainStep<ReadRun> {
        match self {
            ReadChain::Pending { read, er } => {
                let read = read.take().expect("pending chain materialized once");
                *self = match er {
                    Some(er) => ReadChain::GenPip(Box::new(GenPipChain::new(ctx, *er, read))),
                    None => ReadChain::Conventional(Box::new(ConvChain::new(ctx, read))),
                };
                self.step(ctx, scratch)
            }
            ReadChain::GenPip(chain) => chain.step(ctx, scratch),
            ReadChain::Conventional(chain) => chain.step(ctx, scratch),
        }
    }

    /// The id of the read this chain carries, whatever its state.
    pub(crate) fn read_id(&self) -> u32 {
        match self {
            ReadChain::Pending { read, .. } => {
                read.as_ref().expect("pending chain holds its read").id
            }
            ReadChain::GenPip(chain) => chain.read.id,
            ReadChain::Conventional(chain) => chain.read.id,
        }
    }

    /// Rewinds a faulted chain to a fresh attempt on the same read. Correct
    /// because a chain's computation is a pure function of its read (the
    /// signal is never mutated): restarting from scratch is bit-identical
    /// to a first run, so a retry that succeeds produces exactly the output
    /// a fault-free run would have.
    pub(crate) fn retry(self) -> ReadChain {
        match self {
            ReadChain::Pending { .. } => self,
            ReadChain::GenPip(chain) => ReadChain::new(Some(chain.er), chain.read),
            ReadChain::Conventional(chain) => ReadChain::new(None, chain.read),
        }
    }

    /// The chunk index whose step faulted, when the chain knows it: the
    /// chunk a mid-step panic interrupted. `None` for chains that never
    /// materialized.
    pub(crate) fn fault_chunk(&self) -> Option<usize> {
        match self {
            ReadChain::Pending { .. } => None,
            ReadChain::GenPip(chain) => match &chain.phase {
                GenPipPhase::Empty => None,
                GenPipPhase::Qsr { samples, next } => samples.get(*next).copied(),
                GenPipPhase::Sequential { idx } => Some(*idx),
            },
            ReadChain::Conventional(chain) => (chain.idx < chain.specs.len()).then_some(chain.idx),
        }
    }
}

/// Where a [`GenPipChain`] is in the Figure 6 flow.
enum GenPipPhase {
    /// The signal divides into zero chunks; the first step emits the verdict.
    Empty,
    /// ER-QSR sampling: basecall `samples[next]` next.
    Qsr {
        /// The evenly-spaced sample chunk indices (Algorithm 1).
        samples: Vec<usize>,
        /// Next sample to basecall.
        next: usize,
    },
    /// The sequential CP pass: process chunk `idx` next.
    Sequential {
        /// Next chunk index.
        idx: usize,
    },
}

/// The state of one read in GenPIP's chunk-based pipeline (Figure 6): the
/// flow's loop variables as a struct, one loop iteration per step.
pub(crate) struct GenPipChain {
    read: SimulatedRead,
    er: ErMode,
    specs: Vec<genpip_signal::ChunkSpec>,
    run: Option<ReadRun>,
    called: BTreeMap<usize, BasecalledChunk>,
    decoder: genpip_basecall::ReadDecoder,
    seq: DnaSeq,
    quals: Vec<Phred>,
    aqs: AqsAccumulator,
    pairs: Vec<(IncrementalChainer, IncrementalChainer)>,
    cmr_checked: bool,
    phase: GenPipPhase,
}

impl GenPipChain {
    fn new(ctx: &RunContext, er: ErMode, read: SimulatedRead) -> GenPipChain {
        let specs = chunk_boundaries(read.signal.samples.len(), ctx.samples_per_chunk);
        let total = specs.len();
        let run = ReadRun {
            id: read.id,
            outcome: ReadOutcome::FilteredQc { aqs: 0.0 },
            total_chunks: total,
            chunks: Vec::new(),
            signal_samples: read.signal.samples.len(),
            called_len: 0,
            full_aqs: None,
            best_chain_score: 0.0,
            align_query_len: 0,
            align_cells: 0,
            map_counters: MappingCounters::default(),
            called: None,
            per_reference: Vec::new(),
        };
        let pairs = ctx.refs.new_chainer_pairs();
        let phase = if total == 0 {
            GenPipPhase::Empty
        } else if er != ErMode::None {
            GenPipPhase::Qsr {
                samples: qsr_sample_indices(total, ctx.config.n_qs),
                next: 0,
            }
        } else {
            GenPipPhase::Sequential { idx: 0 }
        };
        GenPipChain {
            read,
            er,
            specs,
            run: Some(run),
            called: BTreeMap::new(),
            decoder: genpip_basecall::ReadDecoder::new(),
            seq: DnaSeq::new(),
            quals: Vec::new(),
            aqs: AqsAccumulator::new(),
            pairs,
            cmr_checked: false,
            phase,
        }
    }

    fn finish(&mut self, units: u64) -> ChainStep<ReadRun> {
        ChainStep::Finished {
            output: self.run.take().expect("chain finished once"),
            units,
        }
    }

    fn step(&mut self, ctx: &RunContext, scratch: &mut WorkerScratch) -> ChainStep<ReadRun> {
        let samples = &self.read.signal.samples;
        let total = self.specs.len();
        match &mut self.phase {
            GenPipPhase::Empty => {
                let run = self.run.as_mut().expect("chain not finished");
                run.outcome = match self.er {
                    ErMode::None => ReadOutcome::FilteredQc { aqs: 0.0 },
                    _ => ReadOutcome::RejectedQsr { sampled_aqs: 0.0 },
                };
                self.finish(0)
            }
            GenPipPhase::Qsr {
                samples: sample_idx,
                next,
            } => {
                // ER-QSR phase (Figure 6 ➊➋): one sample chunk per step,
                // basecalled without carried state.
                let run = self.run.as_mut().expect("chain not finished");
                let idx = sample_idx[*next];
                basecall_chunk(
                    ctx,
                    samples,
                    &self.specs,
                    idx,
                    &mut self.decoder,
                    None,
                    &mut self.called,
                    &mut run.chunks,
                    &mut scratch.call,
                );
                *next += 1;
                if *next < sample_idx.len() {
                    return ChainStep::More { units: 1 };
                }
                let sampled: Vec<(f64, usize)> = sample_idx
                    .iter()
                    .map(|idx| {
                        let c = &self.called[idx];
                        (c.sqs, c.quals.len())
                    })
                    .collect();
                let decision = qsr_check(&sampled, ctx.config.theta_qs);
                run.called_len = self.called.values().map(|c| c.bases.len()).sum();
                if decision.reject {
                    run.outcome = ReadOutcome::RejectedQsr {
                        sampled_aqs: decision.sampled_aqs,
                    };
                    return self.finish(1);
                }
                self.phase = GenPipPhase::Sequential { idx: 0 };
                ChainStep::More { units: 1 }
            }
            GenPipPhase::Sequential { idx } => {
                // One iteration of the sequential CP pass per step: basecall
                // (or reuse a sampled chunk), then immediately seed and
                // extend the chains.
                let idx = *idx;
                let run = self.run.as_mut().expect("chain not finished");
                let mut units = 0u64;
                if !self.called.contains_key(&idx) {
                    let carry = if idx == 0 {
                        None
                    } else {
                        self.called[&(idx - 1)].carry
                    };
                    basecall_chunk(
                        ctx,
                        samples,
                        &self.specs,
                        idx,
                        &mut self.decoder,
                        carry,
                        &mut self.called,
                        &mut run.chunks,
                        &mut scratch.call,
                    );
                    units += 1;
                }
                let offset = self.seq.len() as u64;
                let chunk = &self.called[&idx];
                let n_mins = ctx.refs.sketch_and_seed_into(
                    &chunk.bases,
                    offset,
                    &mut scratch.seed,
                    &mut scratch.batches,
                );
                let mut queries = 0usize;
                let mut anchors = 0usize;
                let mut chain_evals = 0usize;
                for (batch, (fwd, rev)) in scratch.batches.iter().zip(self.pairs.iter_mut()) {
                    let evals_before = fwd.dp_evaluations() + rev.dp_evaluations();
                    fwd.extend(&batch.forward);
                    rev.extend(&batch.reverse);
                    chain_evals += fwd.dp_evaluations() + rev.dp_evaluations() - evals_before;
                    queries += batch.queries;
                    anchors += batch.hits;
                }
                run.chunks.push(ChunkWork {
                    index: idx,
                    seed_bases: chunk.bases.len(),
                    minimizers: n_mins,
                    anchors,
                    chain_evals,
                    ..Default::default()
                });
                units += 1;
                run.map_counters.minimizers += n_mins;
                run.map_counters.seed_queries += queries;
                run.map_counters.anchors += anchors;
                run.map_counters.chain_evals += chain_evals;
                self.aqs.add_chunk_sum(chunk.sqs, chunk.quals.len());
                if ctx.config.keep_bases {
                    self.quals.extend_from_slice(&chunk.quals);
                }
                self.seq.extend_from_seq(&chunk.bases);

                // ER-CMR (Figure 6 ➍➎): the verdict that ends the chain
                // before its remaining chunks are stepped.
                if self.er == ErMode::Full
                    && !self.cmr_checked
                    && idx + 1 == ctx.config.n_cm
                    && total > ctx.config.n_cm
                {
                    self.cmr_checked = true;
                    let score = best_pair_score(&self.pairs);
                    let decision = cmr_check(score, ctx.config.theta_cm);
                    if decision.reject {
                        run.called_len = self.called.values().map(|c| c.bases.len()).sum();
                        run.best_chain_score = score;
                        run.outcome = ReadOutcome::RejectedCmr { chain_score: score };
                        return self.finish(units);
                    }
                }
                if idx + 1 < total {
                    self.phase = GenPipPhase::Sequential { idx: idx + 1 };
                    return ChainStep::More { units };
                }

                // Last chunk: whole-read QC, then the final mapping.
                run.called_len = self.seq.len();
                if ctx.config.keep_bases {
                    run.called = Some(CalledBases {
                        seq: self.seq.clone(),
                        quals: std::mem::take(&mut self.quals),
                    });
                }
                let full_aqs = self.aqs.average();
                run.full_aqs = Some(full_aqs);
                run.best_chain_score = best_pair_score(&self.pairs);
                if full_aqs < ctx.config.theta_qs {
                    run.outcome = ReadOutcome::FilteredQc { aqs: full_aqs };
                    return self.finish(units);
                }
                let (per_reference, mapping, best_score, align_cells) = ctx
                    .refs
                    .finalize_mapping_with(&self.seq, &self.pairs, &mut scratch.align);
                if ctx.refs.len() > 1 {
                    run.per_reference = per_reference;
                }
                run.best_chain_score = best_score;
                run.align_cells = align_cells;
                run.map_counters.align_cells = align_cells;
                run.align_query_len = if align_cells > 0 { self.seq.len() } else { 0 };
                run.outcome = match mapping {
                    Some(m) => ReadOutcome::Mapped(m),
                    None => ReadOutcome::Unmapped {
                        chain_score: best_score,
                    },
                };
                self.finish(units)
            }
        }
    }
}

/// The state of one read in the conventional flow: basecalling split into
/// per-chunk steps (the decoder cursor still forces order), with QC and
/// whole-read mapping folded into the final step.
pub(crate) struct ConvChain {
    read: SimulatedRead,
    specs: Vec<genpip_signal::ChunkSpec>,
    chunks: Vec<ChunkWork>,
    decoder: genpip_basecall::ReadDecoder,
    seq: DnaSeq,
    quals: Vec<Phred>,
    aqs: AqsAccumulator,
    idx: usize,
}

impl ConvChain {
    fn new(ctx: &RunContext, read: SimulatedRead) -> ConvChain {
        let specs = chunk_boundaries(read.signal.samples.len(), ctx.samples_per_chunk);
        ConvChain {
            read,
            chunks: Vec::with_capacity(specs.len()),
            specs,
            decoder: genpip_basecall::ReadDecoder::new(),
            seq: DnaSeq::new(),
            quals: Vec::new(),
            aqs: AqsAccumulator::new(),
            idx: 0,
        }
    }

    fn step(&mut self, ctx: &RunContext, scratch: &mut WorkerScratch) -> ChainStep<ReadRun> {
        let mut units = 0u64;
        if self.idx < self.specs.len() {
            let spec = self.specs[self.idx];
            let called = self.decoder.call_next(
                &ctx.caller,
                &self.read.signal.samples[spec.start..spec.end],
                &mut scratch.call,
            );
            self.aqs.add_chunk_sum(called.sqs, called.quals.len());
            self.chunks.push(ChunkWork {
                index: spec.index,
                samples: called.stats.samples,
                mvm_ops: called.stats.mvm_ops,
                bases_called: called.bases.len(),
                ..Default::default()
            });
            if ctx.config.keep_bases {
                self.quals.extend_from_slice(&called.quals);
            }
            self.seq.extend_from_seq(&called.bases);
            units += 1;
            self.idx += 1;
            if self.idx < self.specs.len() {
                return ChainStep::More { units };
            }
        }

        // All chunks basecalled (or there were none): QC, then mapping.
        let full_aqs = self.aqs.average();
        let mut run = ReadRun {
            id: self.read.id,
            outcome: ReadOutcome::FilteredQc { aqs: full_aqs },
            total_chunks: self.specs.len(),
            chunks: std::mem::take(&mut self.chunks),
            signal_samples: self.read.signal.samples.len(),
            called_len: self.seq.len(),
            full_aqs: Some(full_aqs),
            best_chain_score: 0.0,
            align_query_len: 0,
            align_cells: 0,
            map_counters: MappingCounters::default(),
            called: None,
            per_reference: Vec::new(),
        };
        if ctx.config.keep_bases {
            run.called = Some(CalledBases {
                seq: self.seq.clone(),
                quals: std::mem::take(&mut self.quals),
            });
        }
        if full_aqs < ctx.config.theta_qs {
            return ChainStep::Finished { output: run, units };
        }
        let result = ctx.refs.map_with(
            &self.seq,
            &mut scratch.seed,
            &mut scratch.batches,
            &mut scratch.pairs,
            &mut scratch.align,
        );
        run.map_counters = result.counters;
        run.best_chain_score = result.best_chain_score;
        run.align_cells = result.counters.align_cells;
        run.align_query_len = if result.counters.align_cells > 0 {
            self.seq.len()
        } else {
            0
        };
        if ctx.refs.len() > 1 {
            run.per_reference = result.per_reference;
        }
        run.outcome = match result.best {
            Some(m) => ReadOutcome::Mapped(m),
            None => ReadOutcome::Unmapped {
                chain_score: result.best_chain_score,
            },
        };
        ChainStep::Finished { output: run, units }
    }
}

/// Basecalls chunk `idx` of a read (one QSR sample or one sequential step)
/// and records its work entry. The decoder is repositioned to `carry` first
/// (QSR samples decode from scratch; sequential chunks stitch to their
/// predecessor).
#[allow(clippy::too_many_arguments)]
fn basecall_chunk(
    ctx: &RunContext,
    samples: &[f32],
    specs: &[genpip_signal::ChunkSpec],
    idx: usize,
    decoder: &mut genpip_basecall::ReadDecoder,
    carry: Option<CarryState>,
    called: &mut BTreeMap<usize, BasecalledChunk>,
    chunks: &mut Vec<ChunkWork>,
    call_scratch: &mut CallScratch,
) {
    decoder.resume_from(carry);
    let spec = specs[idx];
    let chunk = decoder.call_next(&ctx.caller, &samples[spec.start..spec.end], call_scratch);
    chunks.push(ChunkWork {
        index: idx,
        samples: chunk.stats.samples,
        mvm_ops: chunk.stats.mvm_ops,
        bases_called: chunk.bases.len(),
        ..Default::default()
    });
    called.insert(idx, chunk);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Parallelism;
    use genpip_datasets::DatasetProfile;
    use genpip_genomics::ReadOrigin;

    fn dataset() -> SimulatedDataset {
        DatasetProfile::ecoli().scaled(0.05).generate()
    }

    #[test]
    fn parallel_output_is_bit_identical_to_serial_for_every_er_mode() {
        let d = dataset();
        let base = GenPipConfig::for_dataset(&d.profile);
        let serial = base.clone().with_parallelism(Parallelism::Serial);
        let threads = base.clone().with_parallelism(Parallelism::Threads(4));
        let auto = base.with_parallelism(Parallelism::Auto);
        for er in [ErMode::None, ErMode::QsrOnly, ErMode::Full] {
            let a = PipelineRun::collect(&d, &serial, Flow::GenPip(er));
            let b = PipelineRun::collect(&d, &threads, Flow::GenPip(er));
            let c = PipelineRun::collect(&d, &auto, Flow::GenPip(er));
            assert_eq!(a.reads, b.reads, "serial vs 4 threads, {er:?}");
            assert_eq!(a.reads, c.reads, "serial vs auto, {er:?}");
        }
        let a = PipelineRun::collect(&d, &serial, Flow::Conventional);
        let b = PipelineRun::collect(&d, &threads, Flow::Conventional);
        assert_eq!(a.reads, b.reads, "conventional serial vs 4 threads");
    }

    #[test]
    fn worker_scratch_reuse_matches_fresh_scratch_per_read() {
        // The serial path shares one WorkerScratch across all reads; a
        // fresh scratch per read must give identical results (scratch is
        // capacity reuse only, never state carry-over).
        let d = dataset();
        let config = GenPipConfig::for_dataset(&d.profile).with_parallelism(Parallelism::Serial);
        let ctx = RunContext::from_source(&d.stream(), &config);
        let shared = PipelineRun::collect(&d, &config, Flow::GenPip(ErMode::Full));
        for (read, run) in d.reads.iter().zip(&shared.reads) {
            let mut fresh = WorkerScratch::new(&ctx);
            let mut chain = ReadChain::new(Some(ErMode::Full), read.clone());
            let alone = loop {
                if let ChainStep::Finished { output, .. } = chain.step(&ctx, &mut fresh) {
                    break output;
                }
            };
            assert_eq!(&alone, run, "read {}", read.id);
        }
    }

    #[test]
    fn conventional_processes_every_chunk() {
        let d = dataset();
        let config = GenPipConfig::for_dataset(&d.profile);
        let run = PipelineRun::collect(&d, &config, Flow::Conventional);
        assert_eq!(run.reads.len(), d.reads.len());
        for r in &run.reads {
            assert_eq!(r.chunks.len(), r.total_chunks);
            assert_eq!(r.basecalled_samples(), r.signal_samples);
            assert!(r.full_aqs.is_some());
        }
        assert!(!run.chunked);
    }

    #[test]
    fn conventional_outcomes_are_sane() {
        let d = dataset();
        let config = GenPipConfig::for_dataset(&d.profile);
        let run = PipelineRun::collect(&d, &config, Flow::Conventional);
        let t = run.totals();
        // Most reference-origin, good-quality reads must map.
        let mut mappable = 0usize;
        let mut mapped_of_mappable = 0usize;
        for (rr, sr) in run.reads.iter().zip(&d.reads) {
            if sr.origin.is_reference() && !sr.is_low_quality_truth() {
                mappable += 1;
                if rr.outcome.is_mapped() {
                    mapped_of_mappable += 1;
                }
            }
            // Contaminants never map.
            if sr.origin == ReadOrigin::Contaminant {
                assert!(!rr.outcome.is_mapped(), "contaminant read {} mapped", rr.id);
            }
        }
        assert!(
            mapped_of_mappable as f64 / mappable as f64 > 0.9,
            "{mapped_of_mappable}/{mappable} mappable reads mapped"
        );
        assert!(t.mapped_reads > 0);
        assert!(t.align_cells > 0);
    }

    #[test]
    fn mapped_reads_land_on_their_true_origin() {
        let d = dataset();
        let config = GenPipConfig::for_dataset(&d.profile);
        let run = PipelineRun::collect(&d, &config, Flow::Conventional);
        let mut checked = 0usize;
        let mut correct = 0usize;
        for (rr, sr) in run.reads.iter().zip(&d.reads) {
            if let (ReadOutcome::Mapped(m), ReadOrigin::Reference { start, len, .. }) =
                (&rr.outcome, sr.origin)
            {
                checked += 1;
                let true_mid = start + len / 2;
                if m.ref_start <= true_mid && true_mid <= m.ref_end {
                    correct += 1;
                }
            }
        }
        assert!(checked > 10);
        assert!(
            correct as f64 / checked as f64 > 0.95,
            "{correct}/{checked} mapped reads on their true span"
        );
    }

    #[test]
    fn cp_without_er_matches_conventional_outcomes() {
        let d = dataset();
        let config = GenPipConfig::for_dataset(&d.profile);
        let conv = PipelineRun::collect(&d, &config, Flow::Conventional);
        let cp = PipelineRun::collect(&d, &config, Flow::GenPip(ErMode::None));
        assert!(cp.chunked);
        let mut agree = 0usize;
        for (a, b) in conv.reads.iter().zip(&cp.reads) {
            // Chunked sketching loses boundary minimizers, so demand outcome
            // *category* agreement, not bit equality.
            let same = matches!(
                (&a.outcome, &b.outcome),
                (ReadOutcome::Mapped(_), ReadOutcome::Mapped(_))
                    | (ReadOutcome::Unmapped { .. }, ReadOutcome::Unmapped { .. })
                    | (
                        ReadOutcome::FilteredQc { .. },
                        ReadOutcome::FilteredQc { .. }
                    )
            );
            if same {
                agree += 1;
            }
        }
        assert!(
            agree as f64 / conv.reads.len() as f64 > 0.93,
            "{agree}/{} outcome agreement",
            conv.reads.len()
        );
    }

    #[test]
    fn cp_basecalls_everything_once() {
        let d = dataset();
        let config = GenPipConfig::for_dataset(&d.profile);
        let cp = PipelineRun::collect(&d, &config, Flow::GenPip(ErMode::None));
        for r in &cp.reads {
            assert_eq!(r.basecalled_samples(), r.signal_samples, "read {}", r.id);
            // Every chunk appears exactly twice: one basecall entry and one
            // seeding entry (fused in the same pass but recorded separately).
            assert_eq!(r.chunks.len(), 2 * r.total_chunks);
        }
    }

    #[test]
    fn qsr_saves_work_on_low_quality_reads() {
        let d = dataset();
        let config = GenPipConfig::for_dataset(&d.profile);
        let full = PipelineRun::collect(&d, &config, Flow::GenPip(ErMode::None));
        let qsr = PipelineRun::collect(&d, &config, Flow::GenPip(ErMode::QsrOnly));
        let rejected = qsr.count_outcomes(ReadOutcome::is_early_rejected);
        assert!(rejected > 0, "no reads rejected by QSR");
        let full_samples = full.totals().samples;
        let qsr_samples = qsr.totals().samples;
        assert!(
            qsr_samples < full_samples,
            "QSR did not save basecalling work ({qsr_samples} vs {full_samples})"
        );
        // Rejected reads only basecalled their sampled chunks.
        for r in &qsr.reads {
            if let ReadOutcome::RejectedQsr { .. } = r.outcome {
                assert!(r.chunks.len() <= config.n_qs);
                assert!(r.basecalled_samples() < r.signal_samples || r.total_chunks <= config.n_qs);
            }
        }
    }

    #[test]
    fn cmr_rejects_contaminants() {
        let d = dataset();
        let config = GenPipConfig::for_dataset(&d.profile);
        let run = PipelineRun::collect(&d, &config, Flow::GenPip(ErMode::Full));
        let mut cmr_rejected = 0usize;
        let mut cmr_rejected_contaminant = 0usize;
        for (rr, sr) in run.reads.iter().zip(&d.reads) {
            if let ReadOutcome::RejectedCmr { .. } = rr.outcome {
                cmr_rejected += 1;
                if sr.origin == ReadOrigin::Contaminant {
                    cmr_rejected_contaminant += 1;
                }
            }
        }
        assert!(cmr_rejected > 0, "no CMR rejections");
        assert!(
            cmr_rejected_contaminant as f64 / cmr_rejected as f64 > 0.7,
            "{cmr_rejected_contaminant}/{cmr_rejected} CMR rejections are contaminants"
        );
    }

    #[test]
    fn er_only_removes_reads_never_changes_survivors() {
        let d = dataset();
        let config = GenPipConfig::for_dataset(&d.profile);
        let cp = PipelineRun::collect(&d, &config, Flow::GenPip(ErMode::None));
        let er = PipelineRun::collect(&d, &config, Flow::GenPip(ErMode::Full));
        for (a, b) in cp.reads.iter().zip(&er.reads) {
            if !b.outcome.is_early_rejected() {
                // A survivor must map to the same place. Sampled chunks are
                // basecalled without carried decoder state, so the assembled
                // sequence may differ by a few bases — allow small slack.
                match (a.outcome.mapping(), b.outcome.mapping()) {
                    (Some(ma), Some(mb)) => {
                        assert_eq!(ma.strand, mb.strand, "read {} strand changed", a.id);
                        assert!(
                            ma.ref_start.abs_diff(mb.ref_start) < 40,
                            "read {} moved: {} vs {}",
                            a.id,
                            ma.ref_start,
                            mb.ref_start
                        );
                    }
                    (None, None) => {}
                    (a_map, b_map) => panic!(
                        "read {} mapped-ness changed under ER: {:?} vs {:?}",
                        a.id,
                        a_map.is_some(),
                        b_map.is_some()
                    ),
                }
            }
        }
    }

    #[test]
    fn totals_are_internally_consistent() {
        let d = dataset();
        let config = GenPipConfig::for_dataset(&d.profile);
        let run = PipelineRun::collect(&d, &config, Flow::GenPip(ErMode::Full));
        let t = run.totals();
        assert_eq!(t.reads, d.reads.len());
        assert!(t.samples <= d.total_samples());
        assert!(t.mvm_ops == t.samples, "one emission MVM per sample");
        assert!(t.seed_bases <= t.bases_called);
        assert!(t.raw_bytes == d.total_samples() * genpip_signal::BYTES_PER_SAMPLE);
    }
}
