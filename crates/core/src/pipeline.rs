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
//! [`crate::engine`] schedules **reads**, one task each, and a task is one
//! call — a straight-line function per flow that walks the read's chunks
//! in order (the decoder's carry state forces chunk order within a read)
//! and returns at the first verdict. Workers are scoped threads
//! spawned lazily up to [`GenPipConfig::parallelism`]
//! ([`crate::Parallelism`]), and results are re-emitted in admission order.
//! Per-read state (decoder carry, basecalled chunks, incremental
//! chainers) is local to the call; **worker-local scratch** holds only
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
use crate::engine::{Flow, Session};
use crate::scheduler::Schedule;
use crate::stream::{StreamEvent, StreamOptions};
use genpip_basecall::{BasecalledChunk, Basecaller, CallScratch};
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

    /// A read that has done no work yet.
    fn start(id: u32, total_chunks: usize, signal_samples: usize) -> ReadRun {
        ReadRun {
            id,
            outcome: ReadOutcome::FilteredQc { aqs: 0.0 },
            total_chunks,
            chunks: Vec::new(),
            signal_samples,
            called_len: 0,
            full_aqs: None,
            best_chain_score: 0.0,
            align_query_len: 0,
            align_cells: 0,
            map_counters: MappingCounters::default(),
            called: None,
            per_reference: Vec::new(),
        }
    }

    /// Whole-read quality control, the same step in both flows: records the
    /// assembled read and its AQS. `true` means QC filtered the read.
    fn fails_qc(
        &mut self,
        ctx: &RunContext,
        seq: &DnaSeq,
        quals: Vec<Phred>,
        aqs: &AqsAccumulator,
    ) -> bool {
        let full_aqs = aqs.average();
        self.called_len = seq.len();
        self.full_aqs = Some(full_aqs);
        self.outcome = ReadOutcome::FilteredQc { aqs: full_aqs };
        if ctx.config.keep_bases {
            self.called = Some(CalledBases {
                seq: seq.clone(),
                quals,
            });
        }
        full_aqs < ctx.config.theta_qs
    }

    /// Records the final mapping's verdict (`map_counters` already holds the
    /// alignment's cells).
    fn mapped(
        &mut self,
        ctx: &RunContext,
        seq: &DnaSeq,
        per_reference: Vec<ReferenceMapping>,
        best: Option<Mapping>,
        best_score: f64,
    ) {
        self.align_cells = self.map_counters.align_cells;
        self.align_query_len = if self.align_cells > 0 { seq.len() } else { 0 };
        if ctx.refs.len() > 1 {
            self.per_reference = per_reference;
        }
        self.best_chain_score = best_score;
        self.outcome = match best {
            Some(m) => ReadOutcome::Mapped(m),
            None => ReadOutcome::Unmapped {
                chain_score: best_score,
            },
        };
    }
}

/// A full dataset run: configuration + per-read results.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineRun {
    /// The configuration used (shared, not deep-copied, across derived runs
    /// such as [`PipelineRun::filtered`]).
    pub config: Arc<GenPipConfig>,
    /// The flow that produced the run: [`Flow::GenPip`] (chunk-granularity
    /// seeding and chaining, with its ER stages) or [`Flow::Conventional`].
    pub flow: Flow,
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
        // engine spawns workers lazily, one per concurrently running read
        // actually reached, so a tiny dataset never materializes an idle pool.
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
            flow,
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
            flow: self.flow,
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

/// One read as the engine's task: the read itself, the context of the
/// source it was pulled from, and the one thing a fault must be able to say
/// about it afterwards.
///
/// A read is one call to [`ReadTask::run`], a pure function of the read's
/// never-mutated signal. Across reads the workers run many of these at
/// once, which is what lets chunk `i+1` of one read overlap chunk `i`'s
/// mapping of another — the system-level pipeline of the paper's Figure
/// 5(b).
pub(crate) struct ReadTask {
    pub(crate) read: SimulatedRead,
    /// Its source's reference index, basecaller, chunk geometry and
    /// effective config — handed over at the pull, so a worker looks
    /// nothing up per read.
    pub(crate) ctx: Arc<RunContext>,
    /// The chunk whose basecall or seed work is running — what a fault is
    /// reported against ([`crate::stream::ReadFault::chunk`]); `None`
    /// outside the chunk loops.
    pub(crate) at_chunk: Option<usize>,
}

impl ReadTask {
    /// Cheap by design (no per-read setup) — it runs on the dispatcher.
    pub(crate) fn new(read: SimulatedRead, ctx: Arc<RunContext>) -> ReadTask {
        ReadTask {
            read,
            ctx,
            at_chunk: None,
        }
    }

    /// Runs the read through `flow`, start to verdict, on the calling
    /// worker. The decoder's [`genpip_basecall::CarryState`] forces chunk
    /// order within a read, so both flows walk the chunks one at a time;
    /// all per-read state is local to the call, and `scratch` lends only
    /// buffers (and chainers) that are cleared before each read uses them.
    pub(crate) fn run(&mut self, flow: Flow, scratch: &mut WorkerScratch) -> ReadRun {
        match flow {
            Flow::GenPip(er) => self.run_genpip(er, scratch),
            Flow::Conventional => self.run_conventional(scratch),
        }
    }

    /// GenPIP's chunk-based pipeline with early rejection (Figure 5b /
    /// Figure 6): QSR samples, then per chunk basecall + seed + chain with
    /// the CMR check after `N_cm` chunks, then whole-read QC and the final
    /// mapping. Every verdict is a `return`, so a rejected read's remaining
    /// chunks are never touched.
    fn run_genpip(&mut self, er: ErMode, scratch: &mut WorkerScratch) -> ReadRun {
        let ctx: &RunContext = &self.ctx;
        let samples = &self.read.signal.samples;
        let specs = chunk_boundaries(samples.len(), ctx.samples_per_chunk);
        let chunk_samples = |idx: usize| &samples[specs[idx].start..specs[idx].end];
        let total = specs.len();
        let mut run = ReadRun::start(self.read.id, total, samples.len());
        if total == 0 {
            if er != ErMode::None {
                run.outcome = ReadOutcome::RejectedQsr { sampled_aqs: 0.0 };
            }
            return run;
        }
        let mut called: BTreeMap<usize, BasecalledChunk> = BTreeMap::new();

        // ER-QSR (Figure 6 ➊➋): the evenly-spaced sample chunks
        // (Algorithm 1), each basecalled without carried state.
        if er != ErMode::None {
            let sample_idx = qsr_sample_indices(total, ctx.config.n_qs);
            for &idx in &sample_idx {
                self.at_chunk = Some(idx);
                let chunk = ctx
                    .caller
                    .call_chunk_with(chunk_samples(idx), None, &mut scratch.call);
                run.chunks.push(basecall_work(idx, &chunk));
                called.insert(idx, chunk);
            }
            let sampled: Vec<(f64, usize)> = sample_idx
                .iter()
                .map(|idx| (called[idx].sqs, called[idx].quals.len()))
                .collect();
            let decision = qsr_check(&sampled, ctx.config.theta_qs);
            run.called_len = called.values().map(|c| c.bases.len()).sum();
            if decision.reject {
                run.outcome = ReadOutcome::RejectedQsr {
                    sampled_aqs: decision.sampled_aqs,
                };
                return run;
            }
        }

        // The sequential CP pass: basecall each chunk (or reuse a sampled
        // one, stitching its successor to its carry), then immediately seed
        // it and extend the chains — the worker's chainers, reset for this
        // read.
        let pairs = &mut scratch.pairs;
        for (fwd, rev) in pairs.iter_mut() {
            fwd.reset();
            rev.reset();
        }
        let mut seq = DnaSeq::new();
        let mut quals: Vec<Phred> = Vec::new();
        let mut aqs = AqsAccumulator::new();
        for idx in 0..total {
            self.at_chunk = Some(idx);
            if !called.contains_key(&idx) {
                let carry = match idx {
                    0 => None,
                    _ => called[&(idx - 1)].carry,
                };
                let chunk =
                    ctx.caller
                        .call_chunk_with(chunk_samples(idx), carry, &mut scratch.call);
                run.chunks.push(basecall_work(idx, &chunk));
                called.insert(idx, chunk);
            }
            let chunk = &called[&idx];
            let minimizers = ctx.refs.sketch_and_seed_into(
                &chunk.bases,
                seq.len() as u64,
                &mut scratch.seed,
                &mut scratch.batches,
            );
            let mut work = ChunkWork {
                index: idx,
                seed_bases: chunk.bases.len(),
                minimizers,
                ..Default::default()
            };
            for (batch, (fwd, rev)) in scratch.batches.iter().zip(pairs.iter_mut()) {
                let evals_before = fwd.dp_evaluations() + rev.dp_evaluations();
                fwd.extend(&batch.forward);
                rev.extend(&batch.reverse);
                work.chain_evals += fwd.dp_evaluations() + rev.dp_evaluations() - evals_before;
                work.anchors += batch.hits;
                run.map_counters.seed_queries += batch.queries;
            }
            run.chunks.push(work);
            run.map_counters.minimizers += work.minimizers;
            run.map_counters.anchors += work.anchors;
            run.map_counters.chain_evals += work.chain_evals;
            aqs.add_chunk_sum(chunk.sqs, chunk.quals.len());
            if ctx.config.keep_bases {
                quals.extend_from_slice(&chunk.quals);
            }
            seq.extend_from_seq(&chunk.bases);

            // ER-CMR (Figure 6 ➍➎): once, after the first `N_cm` chunks,
            // for reads longer than that.
            if er == ErMode::Full && idx + 1 == ctx.config.n_cm && total > ctx.config.n_cm {
                let score = best_pair_score(pairs);
                if cmr_check(score, ctx.config.theta_cm).reject {
                    run.called_len = called.values().map(|c| c.bases.len()).sum();
                    run.best_chain_score = score;
                    run.outcome = ReadOutcome::RejectedCmr { chain_score: score };
                    return run;
                }
            }
        }
        self.at_chunk = None;

        // Whole-read QC, then the final mapping from the filled chainers.
        run.best_chain_score = best_pair_score(pairs);
        if run.fails_qc(ctx, &seq, quals, &aqs) {
            return run;
        }
        let (per_reference, mapping, best_score, align_cells) =
            ctx.refs
                .finalize_mapping_with(&seq, pairs, &mut scratch.align);
        run.map_counters.align_cells = align_cells;
        run.mapped(ctx, &seq, per_reference, mapping, best_score);
        run
    }

    /// The conventional flow (Figure 5a): basecall the whole read chunk by
    /// chunk (each chunk stitched to its predecessor's carry), whole-read QC,
    /// then whole-read mapping.
    fn run_conventional(&mut self, scratch: &mut WorkerScratch) -> ReadRun {
        let ctx: &RunContext = &self.ctx;
        let samples = &self.read.signal.samples;
        let specs = chunk_boundaries(samples.len(), ctx.samples_per_chunk);
        let mut run = ReadRun::start(self.read.id, specs.len(), samples.len());
        run.chunks.reserve_exact(specs.len());
        let mut carry = None;
        let mut seq = DnaSeq::new();
        let mut quals: Vec<Phred> = Vec::new();
        let mut aqs = AqsAccumulator::new();
        for spec in &specs {
            self.at_chunk = Some(spec.index);
            let chunk = ctx.caller.call_chunk_with(
                &samples[spec.start..spec.end],
                carry,
                &mut scratch.call,
            );
            carry = chunk.carry;
            run.chunks.push(basecall_work(spec.index, &chunk));
            aqs.add_chunk_sum(chunk.sqs, chunk.quals.len());
            if ctx.config.keep_bases {
                quals.extend_from_slice(&chunk.quals);
            }
            seq.extend_from_seq(&chunk.bases);
        }
        self.at_chunk = None;

        if run.fails_qc(ctx, &seq, quals, &aqs) {
            return run;
        }
        let result = ctx.refs.map_with(
            &seq,
            &mut scratch.seed,
            &mut scratch.batches,
            &mut scratch.pairs,
            &mut scratch.align,
        );
        run.map_counters = result.counters;
        run.mapped(
            ctx,
            &seq,
            result.per_reference,
            result.best,
            result.best_chain_score,
        );
        run
    }
}

/// The work entry of a freshly basecalled chunk.
fn basecall_work(index: usize, chunk: &BasecalledChunk) -> ChunkWork {
    ChunkWork {
        index,
        samples: chunk.stats.samples,
        mvm_ops: chunk.stats.mvm_ops,
        bases_called: chunk.bases.len(),
        ..Default::default()
    }
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
        let ctx = Arc::new(RunContext::from_source(&d.stream(), &config));
        for flow in [
            Flow::Conventional,
            Flow::GenPip(ErMode::None),
            Flow::GenPip(ErMode::QsrOnly),
            Flow::GenPip(ErMode::Full),
        ] {
            let shared = PipelineRun::collect(&d, &config, flow);
            for (read, run) in d.reads.iter().zip(&shared.reads) {
                let mut fresh = WorkerScratch::new(&ctx);
                let alone = ReadTask::new(read.clone(), Arc::clone(&ctx)).run(flow, &mut fresh);
                assert_eq!(&alone, run, "{flow:?}: read {}", read.id);
            }
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
        assert_eq!(run.flow, Flow::Conventional);
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
        assert_eq!(cp.flow, Flow::GenPip(ErMode::None));
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
