//! The `Session` engine: one execution core serving any number of read
//! sources over one worker pool, **one task per read**.
//!
//! Everything that runs reads — [`crate::PipelineRun::collect`], the CLI,
//! the examples, and the bench harness — goes through the [`Session`] built
//! here. A session
//! is *configured*, not called: you register named sources, attach
//! per-source sinks, pick a [`Flow`] and a [`Schedule`], and run. A source
//! registered on the builder *is* an attach made before the run: it enters
//! through the same door as a [`SessionControl::attach`] (same checks, same
//! in-order marker, same per-source record), only synchronously, so its
//! refusal is [`Session::run`]'s `Err`. GenPIP's
//! end-to-end gain comes from tight integration at **chunk granularity**
//! (paper §3). That dataflow — every chunk seeds and chains as soon as it
//! is basecalled, and the read stops at the early-rejection verdict — is
//! the loop inside the per-read function ([`crate::pipeline`]); the engine
//! schedules whole reads over the pool, one call each.
//!
//! ```no_run
//! use genpip_core::engine::{Flow, Session};
//! use genpip_core::scheduler::Schedule;
//! use genpip_core::stream::StreamEvent;
//! use genpip_core::{ErMode, GenPipConfig};
//! use genpip_datasets::{DatasetProfile, StreamingSimulator};
//!
//! let ecoli = DatasetProfile::ecoli().scaled(0.05);
//! let human = DatasetProfile::human().scaled(0.05);
//! let report = Session::new(GenPipConfig::for_dataset(&ecoli))
//!     .flow(Flow::GenPip(ErMode::Full))
//!     .schedule(Schedule::Priority(vec![3, 1]))
//!     .source("ecoli", StreamingSimulator::new(&ecoli))
//!     // The human flowcell runs its own operating point (N_qs, N_cm).
//!     .source_with_config(
//!         "human",
//!         StreamingSimulator::new(&human),
//!         GenPipConfig::for_dataset(&human),
//!     )
//!     .sink("ecoli", |event| {
//!         if let StreamEvent::Read(run) = event {
//!             println!("ecoli read {} done", run.id);
//!         }
//!     })
//!     .run()
//!     .expect("session inputs are valid");
//! println!("{} reads total, {} mapped",
//!          report.outcomes.reads_emitted, report.outcomes.mapped);
//! ```
//!
//! # Execution model
//!
//! ```text
//!              read = one call (its chunks in order: decoder carry)
//!  source "a" ─┐  Schedule picks, per admitted read
//!  source "b" ─┼─▶ admit ▶ [read read read …] ─▶ W workers (spawned lazily),
//!  source "c" ─┘  (gate ≤ Q+W reads)              each runs its read start
//!                                                 to verdict; an ER verdict
//!                                                 ╳ returns early
//!                                                 │
//!  sink "a"/"b"/"c" ◀── emit in global admission order (per-source = read order);
//!                       the read's permit returns here
//! ```
//!
//! The engine behind a session is three named parts. A **dispatcher** owns
//! the sources: for every read it consults the [`Schedule`] to pick a
//! source and admits that source's next read under a flow-gate permit. A
//! **worker** runs one task: one call that takes one read, chunk by chunk,
//! to its result. An **emitter** reorders finished reads into admission
//! order, feeds the sinks on the calling thread, and returns each read's
//! permit as it is emitted.
//!
//! Within a read, chunks are strictly sequential (the decoder's
//! [`genpip_basecall::CarryState`] forces it) and run back to back on one
//! worker; across reads, workers overlap freely. An early-rejection verdict
//! returns **before the read's next chunk is touched**, so a doomed read
//! stops consuming compute the moment QSR/CMR fires; its permit, like every
//! read's, is held from pull to in-order emission.
//!
//! The worker count selects how the parts are driven. With several, the
//! dispatcher runs on a thread of its own and feeds worker threads spawned
//! lazily, one per concurrently running read actually reached, up to the
//! configured count. With one ([`crate::Parallelism::Serial`]) nothing is
//! spawned: the calling thread dispatches, runs and emits in turn, one read
//! resident at a time. Either way the schedule's pick sequence *is* the
//! emission order: a [`Schedule`] is a function of which sources are live,
//! never of how execution went — a contained fault included: the read is
//! retired in its slot like any other — so, absent live attaches and
//! detaches, whose timing the pool decides, every worker count interleaves
//! the sources identically at the sinks (`tests/session.rs` asserts it, with
//! and without faults).
//!
//! # Guarantees
//!
//! * **Per-source bit-identity** — a source's per-read output in a
//!   multi-source session is bit-identical to running that source alone,
//!   for every [`Schedule`], [`crate::Parallelism`] and [`ErMode`]
//!   (`tests/session.rs` and `tests/chunk_accounting.rs` assert this
//!   against the independent serial oracle in `tests/common`). Scheduling
//!   changes latency, never results.
//! * **Bounded residency** — at most `queue_capacity + workers` reads are
//!   pulled and not yet emitted, no matter how many sources are registered
//!   ([`SessionReport::max_in_flight`] proves the bound held).
//! * **Typed validation** — invalid inputs (zero queue, zero workers, no
//!   sources, duplicate ids, bad priority weights, per-source configs
//!   incompatible with their source's reference or chemistry) fail up
//!   front with a [`SessionError`] instead of deadlocking or panicking
//!   mid-run — the same error whether the source came from the builder or
//!   from a live attach, because both pass the one admission.
//! * **Fault containment** — under [`crate::FaultPolicy::Quarantine`], a
//!   task that panics (or trips the basecaller's signal-integrity check)
//!   takes out only its own read: the read's remaining chunks never run and
//!   it is emitted as [`StreamEvent::Failed`] in its normal in-order slot.
//!   The default [`crate::FaultPolicy::Fail`] keeps the historical
//!   behaviour: any panic tears the session down promptly. [`Session::run_with_control`]
//!   additionally hands out a [`SessionControl`] whose
//!   [`SessionControl::drain`] stops pulling new reads, finishes every
//!   resident read, and returns normally — the graceful-shutdown
//!   primitive for long-lived sessions.

// Keeps the engine in named, reviewable parts (threshold in `clippy.toml`).
#![deny(clippy::too_many_lines)]

use crate::config::{FaultPolicy, GenPipConfig, Parallelism};
use crate::pipeline::{ErMode, ReadRun, ReadTask, RunContext, WorkerScratch, WorkloadTotals};
use crate::scheduler::{Schedule, SchedulerState};
use crate::stream::{
    FaultKind, LatencyStats, ProgressSnapshot, ReadFault, StreamEvent, StreamOptions, StreamSummary,
};
use genpip_datasets::{ReadSource, SourceId};
use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, Once};

/// Which pipeline a [`Session`] runs over its reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// GenPIP's chunk-based pipeline (paper Figure 5b / Figure 6) with the
    /// given early-rejection mode.
    GenPip(ErMode),
    /// The conventional whole-read pipeline (paper Figure 5a).
    Conventional,
}

impl Flow {
    /// Whether the flow runs QSR, the only consumer of `n_qs`.
    fn uses_qsr(self) -> bool {
        matches!(self, Flow::GenPip(ErMode::QsrOnly | ErMode::Full))
    }
}

/// A cloneable remote control for a [`Session`] — its **control plane**
/// (see [`Session::run_with_control`]).
///
/// Four verbs:
///
/// * [`SessionControl::attach`] (or [`SessionControl::attach_with`] and an
///   [`AttachSpec`] for a config override, sink or weight) adds a
///   named source to the *running* session. It goes through the one
///   admission a builder source goes through (see [`Session::source`]) — a
///   typed [`SessionError`] comes back through the returned
///   [`PendingAttach`] — and admission is bounded by
///   [`StreamOptions::max_sources`]. Once
///   accepted, the source joins the schedule and its first read can be
///   admitted immediately.
/// * [`SessionControl::detach`] removes a named source: the session stops
///   pulling from it, its resident reads finish normally (bit-identity is
///   preserved — detach changes *when* pulling stops, never a read's
///   result), and its finalized per-source [`StreamSummary`] is delivered
///   through the returned [`PendingDetach`]. Source ids are never reused
///   within a session, even after detach.
/// * [`SessionControl::stats`] snapshots per-source progress counters
///   without blocking the session.
/// * [`SessionControl::drain`] is the whole-session graceful shutdown:
///   stop pulling from every source, finish what is resident, return the
///   [`SessionReport`] normally. Calling `drain` before the run starts
///   makes the session return immediately with empty counters; calling it
///   more than once is harmless.
///
/// The handle is `Send + Sync + Clone`, so it can be driven from another
/// thread (a service's admission path, a signal handler) or from inside a
/// sink (e.g. [`crate::stream::FastqSink`] hitting a disk-full error, or a
/// sink attaching the next flowcell after the current one's Nth read).
/// Commands are applied by the running session at deterministic points in
/// its dispatch loop; commands still queued when the session finishes are
/// refused with [`SessionError::SessionClosed`].
///
/// Do **not** block on [`PendingAttach::wait`] / [`PendingDetach::wait`]
/// from inside a sink — the session applies commands on its own threads and
/// a sink that waits for the response it is itself blocking would deadlock
/// the run. Fire the command in the sink, keep the pending handle, and
/// resolve it after [`Session::run_with_control`] returns (or from another
/// thread).
#[derive(Clone, Default)]
pub struct SessionControl {
    state: Arc<ControlState>,
}

/// The shared state behind every clone of a [`SessionControl`].
#[derive(Default)]
struct ControlState {
    draining: AtomicBool,
    inner: Mutex<ControlInner>,
}

#[derive(Default)]
struct ControlInner {
    /// Commands enqueued by control-plane calls, drained by the running
    /// session at its poll points.
    commands: VecDeque<Command>,
    /// One record per source admitted to the current run, in lane order:
    /// the authoritative id↔lane map (ids are never reused, even after
    /// detach), shared by the dispatcher-side [`SessionFeed`], the emitting
    /// thread and [`SessionControl::stats`].
    sources: Vec<SourceRecord>,
    /// `true` while a session is running with this control.
    live: bool,
    /// `true` outside a run: enqueue-time refusal with
    /// [`SessionError::SessionClosed`] rather than a command that would
    /// never be polled. A fresh control is *open* so sources can be
    /// attached before the run starts — they are applied at the session's
    /// first poll.
    closed: bool,
}

/// What the session keeps per source outside the engine, pushed by
/// [`SessionFeed::admit`] — before the lane's [`LaneEvent::Attached`] marker
/// is sent, so the emitter always finds it.
struct SourceRecord {
    /// The id, the progress as of the source's last in-order emission, and
    /// whether its detach completed: what [`SessionControl::stats`] reports
    /// and checkpoints cut.
    stats: SourceStats,
    /// `true` from the moment a detach is accepted; never reset, so a
    /// second detach of the same id is refused as unknown.
    detach_requested: bool,
    /// The detach responder, taken by the emitter when the lane's summary
    /// is finalized.
    detaching: Option<mpsc::Sender<Result<StreamSummary, SessionError>>>,
    /// A live attach's sink, installed by the emitter at the lane's
    /// in-order marker — before its first output.
    pending_sink: Option<AttachedSink>,
}

/// A sink supplied with a live attach: unlike builder sinks it must be
/// `Send` (it crosses into the session thread) and `'static` (it outlives
/// the caller's frame).
type AttachedSink = Box<dyn FnMut(StreamEvent) + Send>;

/// A source on its way into a session, through either door — a builder
/// `source*` call or a [`SessionControl::attach`].
struct Admission<'a> {
    id: SourceId,
    source: Box<dyn ReadSource + Send + 'a>,
    /// The per-source override, if any; else the session-wide config.
    config: Option<GenPipConfig>,
    /// [`Schedule::Priority`] weight; the other schedules ignore it.
    weight: u32,
}

/// A control-plane command in flight to the running session.
enum Command {
    Attach(Box<AttachRequest>),
    Detach {
        id: SourceId,
        responder: mpsc::Sender<Result<StreamSummary, SessionError>>,
    },
}

/// A fully-specified attach on its way to the session.
struct AttachRequest {
    admission: Admission<'static>,
    sink: Option<AttachedSink>,
    responder: mpsc::Sender<Result<(), SessionError>>,
}

/// Everything [`SessionControl::attach_with`] can say about a new source
/// beyond its id: a per-source config override (what
/// [`Session::source_with_config`] passes), a sink, and a
/// [`Schedule::Priority`] weight.
#[derive(Default)]
pub struct AttachSpec {
    config: Option<GenPipConfig>,
    sink: Option<AttachedSink>,
    weight: Option<u32>,
}

impl AttachSpec {
    /// An empty spec: session-wide config, no sink, priority weight 1.
    pub fn new() -> AttachSpec {
        AttachSpec::default()
    }

    /// Per-source config override, validated against the source's reference
    /// and chemistry ([`SessionError::IncompatibleSourceConfig`]).
    pub fn config(mut self, config: GenPipConfig) -> AttachSpec {
        self.config = Some(config);
        self
    }

    /// Per-source sink. It runs on the session's emitting thread, so unlike
    /// builder sinks it must be `Send`; it is installed before the source's
    /// first read is emitted.
    pub fn sink(mut self, sink: impl FnMut(StreamEvent) + Send + 'static) -> AttachSpec {
        self.sink = Some(Box::new(sink));
        self
    }

    /// [`Schedule::Priority`] weight (default 1). Rejected with
    /// [`SessionError::ZeroPriorityWeight`] if 0 on a priority session;
    /// ignored under other schedules.
    pub fn weight(mut self, weight: u32) -> AttachSpec {
        self.weight = Some(weight);
        self
    }
}

/// The pending response to a [`SessionControl::attach`]. The session
/// validates the source at its next poll point and answers here.
#[derive(Debug)]
pub struct PendingAttach {
    rx: mpsc::Receiver<Result<(), SessionError>>,
}

impl PendingAttach {
    /// Blocks until the session accepts or refuses the attach. If the
    /// session finishes (or its control is dropped) without answering, this
    /// resolves to [`SessionError::SessionClosed`]. Never call from inside
    /// a sink (see [`SessionControl`]); if no session ever runs with this
    /// control, `wait` blocks indefinitely — prefer
    /// [`PendingAttach::try_result`] when that is possible.
    pub fn wait(self) -> Result<(), SessionError> {
        self.rx.recv().unwrap_or(Err(SessionError::SessionClosed))
    }

    /// The response if it has arrived, without blocking.
    pub fn try_result(&self) -> Option<Result<(), SessionError>> {
        self.rx.try_recv().ok()
    }
}

/// The pending response to a [`SessionControl::detach`]: the detached
/// source's finalized [`StreamSummary`] once its resident reads have
/// finished and their results were emitted.
#[derive(Debug)]
pub struct PendingDetach {
    rx: mpsc::Receiver<Result<StreamSummary, SessionError>>,
}

impl PendingDetach {
    /// Blocks until the source has fully drained (its summary arrives) or
    /// the detach is refused. Resolves to [`SessionError::SessionClosed`]
    /// if the session finishes without answering. The same caveats as
    /// [`PendingAttach::wait`] apply.
    pub fn wait(self) -> Result<StreamSummary, SessionError> {
        self.rx.recv().unwrap_or(Err(SessionError::SessionClosed))
    }

    /// The response if it has arrived, without blocking.
    pub fn try_result(&self) -> Option<Result<StreamSummary, SessionError>> {
        self.rx.try_recv().ok()
    }
}

/// One source's progress in a [`SessionStats`] snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceStats {
    /// The id the source is registered under.
    pub id: SourceId,
    /// Outcome counters as of the source's last in-order emission.
    pub outcomes: ProgressSnapshot,
    /// `true` once the source was detached and its summary delivered.
    pub detached: bool,
}

/// A point-in-time snapshot of a running session, from
/// [`SessionControl::stats`]. O(sources) to take; never blocks the
/// session's dispatch or workers (only the emitter's counter updates).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SessionStats {
    /// Per-source progress, in registration/attach order.
    pub sources: Vec<SourceStats>,
    /// Whether [`SessionControl::drain`] has been called.
    pub draining: bool,
    /// `true` while a session is actually running with this control.
    pub live: bool,
}

impl fmt::Debug for SessionControl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SessionControl")
            .field("draining", &self.is_draining())
            .finish_non_exhaustive()
    }
}

impl SessionControl {
    /// A fresh handle: not draining, open for pre-run attaches.
    pub fn new() -> SessionControl {
        SessionControl::default()
    }

    /// Asks the session to stop pulling new reads and finish what is
    /// resident. Idempotent; never blocks.
    pub fn drain(&self) {
        self.state.draining.store(true, Ordering::SeqCst);
    }

    /// Whether [`SessionControl::drain`] has been called.
    pub fn is_draining(&self) -> bool {
        self.state.draining.load(Ordering::SeqCst)
    }

    /// Attaches a new source under `id`, processed with the session-wide
    /// config — [`Session::source`], live. Returns immediately; the typed
    /// verdict arrives through the [`PendingAttach`]. May be called before
    /// the run starts (applied at the session's first poll, after the
    /// builder's sources).
    pub fn attach(
        &self,
        id: impl Into<SourceId>,
        source: impl ReadSource + Send + 'static,
    ) -> PendingAttach {
        self.attach_with(id, source, AttachSpec::new())
    }

    /// Attaches a new source with a full [`AttachSpec`] (config override,
    /// sink, priority weight).
    pub fn attach_with(
        &self,
        id: impl Into<SourceId>,
        source: impl ReadSource + Send + 'static,
        spec: AttachSpec,
    ) -> PendingAttach {
        let (tx, rx) = mpsc::channel();
        let request = AttachRequest {
            admission: Admission {
                id: id.into(),
                source: Box::new(source),
                config: spec.config,
                weight: spec.weight.unwrap_or(1),
            },
            sink: spec.sink,
            responder: tx,
        };
        let mut inner = self.state.lock();
        if inner.closed {
            let _ = request.responder.send(Err(SessionError::SessionClosed));
        } else {
            inner.commands.push_back(Command::Attach(Box::new(request)));
        }
        PendingAttach { rx }
    }

    /// Detaches the source registered under `id`: stop pulling from it, let
    /// its resident reads finish and emit, then deliver its finalized
    /// [`StreamSummary`] through the [`PendingDetach`]. Unknown ids — and
    /// ids already detached or already being detached — are refused with
    /// [`SessionError::UnknownSource`].
    pub fn detach(&self, id: impl Into<SourceId>) -> PendingDetach {
        let (tx, rx) = mpsc::channel();
        let id = id.into();
        let mut inner = self.state.lock();
        if inner.closed {
            let _ = tx.send(Err(SessionError::SessionClosed));
        } else {
            inner
                .commands
                .push_back(Command::Detach { id, responder: tx });
        }
        PendingDetach { rx }
    }

    /// A snapshot of per-source progress. Sources appear in
    /// registration/attach order; counters are as of each source's last
    /// in-order emission.
    pub fn stats(&self) -> SessionStats {
        let inner = self.state.lock();
        SessionStats {
            sources: inner.sources.iter().map(|r| r.stats.clone()).collect(),
            draining: self.is_draining(),
            live: inner.live,
        }
    }
}

impl ControlState {
    fn lock(&self) -> MutexGuard<'_, ControlInner> {
        self.inner.lock().expect("control poisoned")
    }

    /// Marks the control live for a starting run, with no sources yet —
    /// every one arrives through [`SessionFeed::admit`]. Commands already
    /// queued stay queued, and the draining flag is deliberately *not*
    /// reset: a drain requested before the run starts is honored by
    /// draining immediately.
    fn begin_run(&self) {
        let mut inner = self.lock();
        inner.closed = false;
        inner.live = true;
        inner.sources.clear();
    }

    /// Closes the control at the end of a run: marks it not-live and
    /// refuses every command still queued (enqueued after the session's
    /// last poll) with [`SessionError::SessionClosed`]. Runs from a drop
    /// guard, possibly mid-unwind, so a poisoned lock is entered rather
    /// than panicked on: every update of the inner state is a plain store
    /// or push, valid at every step.
    fn close(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.closed = true;
        inner.live = false;
        for command in inner.commands.drain(..) {
            match command {
                Command::Attach(request) => {
                    let _ = request.responder.send(Err(SessionError::SessionClosed));
                }
                Command::Detach { responder, .. } => {
                    let _ = responder.send(Err(SessionError::SessionClosed));
                }
            }
        }
    }
}

/// Why a per-source [`GenPipConfig`] cannot drive its source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SourceConfigIssue {
    /// `chunk_bases` is 0 — the signal could never be chunked.
    ZeroChunkBases,
    /// `n_qs` is 0 — QSR must sample at least one chunk. Only raised when
    /// the session's [`Flow`] actually runs QSR ([`Flow::GenPip`] with
    /// [`ErMode::QsrOnly`] or [`ErMode::Full`]); other flows never consult
    /// `n_qs`.
    ZeroQsrSamples,
    /// The source reports a non-positive (or non-finite) mean dwell, so no
    /// chunk geometry exists for it.
    NonPositiveDwell,
    /// The mapper's k-mer length exceeds the source's reference, so the
    /// index would be empty and every read unmappable. Only raised for
    /// explicit [`Session::source_with_config`] overrides — the session
    /// config keeps the historical lenient behaviour (empty index ⇒
    /// unmapped reads).
    KmerExceedsReference {
        /// Configured minimizer k-mer length.
        k: usize,
        /// The source's reference length in bases.
        reference_len: usize,
    },
    /// Two references in the effective pan-genome panel (the source's own
    /// reference plus [`GenPipConfig::extra_references`]) share a name.
    /// Per-reference attribution keys results by name, so the panel must
    /// be unique; catching it here turns what would be a worker-thread
    /// panic inside `ReferenceSet::build` into an up-front error.
    DuplicateReferenceName {
        /// The colliding reference name.
        name: String,
    },
}

impl fmt::Display for SourceConfigIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SourceConfigIssue::ZeroChunkBases => write!(f, "chunk size is 0"),
            SourceConfigIssue::ZeroQsrSamples => write!(f, "N_qs is 0 (QSR samples no chunks)"),
            SourceConfigIssue::NonPositiveDwell => {
                write!(f, "source mean dwell is not positive")
            }
            SourceConfigIssue::KmerExceedsReference { k, reference_len } => write!(
                f,
                "minimizer k-mer length {k} exceeds the {reference_len} bp reference"
            ),
            SourceConfigIssue::DuplicateReferenceName { name } => write!(
                f,
                "duplicate reference name {name:?} in the pan-genome panel"
            ),
        }
    }
}

/// Finds a name collision in the pan-genome panel a source would map
/// against: its own reference plus the config's extra references.
fn duplicate_reference_name(
    config: &GenPipConfig,
    reference: &genpip_genomics::Genome,
) -> Option<String> {
    let mut names: Vec<&str> = Vec::with_capacity(1 + config.extra_references.len());
    names.push(reference.name());
    names.extend(config.extra_references.iter().map(|g| g.name()));
    names.sort_unstable();
    names
        .windows(2)
        .find(|pair| pair[0] == pair[1])
        .map(|pair| pair[0].to_string())
}

/// Whether a source's effective config — its `own` override, else the
/// `session` config — can drive that source's reference and chemistry: the
/// one per-source check, run at startup for builder sources and at attach
/// time for live ones. Only conditions this run would actually trip are
/// errors: `n_qs` is consulted solely by QSR, and the k-vs-reference check
/// applies to explicit per-source overrides only — a degenerate *session*
/// config (k longer than the reference ⇒ empty index ⇒ every read
/// unmapped) has always been accepted, and stays so.
fn check_source_config(
    id: &SourceId,
    source: &dyn ReadSource,
    own: Option<&GenPipConfig>,
    session: &GenPipConfig,
    uses_qsr: bool,
) -> Result<(), SessionError> {
    let config = own.unwrap_or(session);
    let dwell = source.mean_dwell();
    let issue = if config.chunk_bases == 0 {
        SourceConfigIssue::ZeroChunkBases
    } else if uses_qsr && config.n_qs == 0 {
        SourceConfigIssue::ZeroQsrSamples
    } else if !(dwell > 0.0 && dwell.is_finite()) {
        SourceConfigIssue::NonPositiveDwell
    } else if own.is_some() && config.mapper.k > source.reference().len() {
        SourceConfigIssue::KmerExceedsReference {
            k: config.mapper.k,
            reference_len: source.reference().len(),
        }
    } else if let Some(name) = duplicate_reference_name(config, source.reference()) {
        SourceConfigIssue::DuplicateReferenceName { name }
    } else {
        return Ok(());
    };
    Err(SessionError::IncompatibleSourceConfig {
        id: id.clone(),
        issue,
    })
}

/// Why a [`Session`] refused to run. All variants are detected up front,
/// before any read is pulled or any worker is spawned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// `StreamOptions::queue_capacity` was 0 — the work queue could never
    /// stage a read.
    ZeroQueueCapacity,
    /// `Parallelism::Threads(0)` — an explicit request for no workers.
    ZeroWorkers,
    /// No source was registered.
    NoSources,
    /// Two sources were registered under the same id.
    DuplicateSource(SourceId),
    /// A sink was attached to an id with no registered source.
    SinkWithoutSource(SourceId),
    /// `Schedule::Priority` weights don't line up with the sources.
    PriorityWeightCount {
        /// Registered sources.
        sources: usize,
        /// Provided weights.
        weights: usize,
    },
    /// A priority weight of 0 would starve its source forever.
    ZeroPriorityWeight(SourceId),
    /// A source's (session or per-source) config is incompatible with that
    /// source's reference genome or signal chemistry.
    IncompatibleSourceConfig {
        /// The offending source.
        id: SourceId,
        /// What is wrong.
        issue: SourceConfigIssue,
    },
    /// A control-plane command named a source this session does not know —
    /// never registered, already detached, or already being detached.
    UnknownSource(SourceId),
    /// Admitting the source would exceed [`StreamOptions::max_sources`].
    TooManySources {
        /// The configured admission bound.
        limit: usize,
    },
    /// The control-plane command arrived when no session was running on
    /// this control (before any run, or after the run returned).
    SessionClosed,
    /// A checkpoint cadence of 0 reads would never fire.
    ZeroCheckpointInterval,
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::ZeroQueueCapacity => {
                write!(f, "queue capacity must be at least 1 (got 0)")
            }
            SessionError::ZeroWorkers => {
                write!(f, "worker count must be at least 1 (got Threads(0))")
            }
            SessionError::NoSources => write!(f, "session has no sources"),
            SessionError::DuplicateSource(id) => {
                write!(f, "source id {:?} registered twice", id.as_str())
            }
            SessionError::SinkWithoutSource(id) => {
                write!(f, "sink attached to unknown source id {:?}", id.as_str())
            }
            SessionError::PriorityWeightCount { sources, weights } => write!(
                f,
                "priority schedule has {weights} weight(s) for {sources} source(s)"
            ),
            SessionError::ZeroPriorityWeight(id) => {
                write!(
                    f,
                    "priority weight for source {:?} is 0 (would starve it)",
                    id.as_str()
                )
            }
            SessionError::IncompatibleSourceConfig { id, issue } => {
                write!(f, "config for source {:?}: {issue}", id.as_str())
            }
            SessionError::UnknownSource(id) => {
                write!(
                    f,
                    "source id {:?} is not attached to this session",
                    id.as_str()
                )
            }
            SessionError::TooManySources { limit } => {
                write!(f, "session is at its max_sources bound ({limit})")
            }
            SessionError::SessionClosed => {
                write!(f, "no session is running on this control")
            }
            SessionError::ZeroCheckpointInterval => {
                write!(f, "checkpoint cadence must be at least 1 read (got 0)")
            }
        }
    }
}

impl std::error::Error for SessionError {}

/// What one source contributed to a [`SessionReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct SourceReport {
    /// The id the source was registered under.
    pub id: SourceId,
    /// This source's own counters. `workers` and `in_flight_limit` are the
    /// session-wide values (sources share the pool and the gate);
    /// `max_in_flight` is this source's own.
    pub summary: StreamSummary,
}

/// What a finished [`Session`] leaves behind: per-source summaries plus the
/// aggregate, O(sources) in size regardless of how many reads flowed.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionReport {
    /// Per-source summaries, in registration order.
    pub sources: Vec<SourceReport>,
    /// Aggregate outcome counters over all sources.
    pub outcomes: ProgressSnapshot,
    /// Aggregate workload counters over all sources.
    pub totals: WorkloadTotals,
    /// Worker threads configured (lazily spawned, so short runs may have
    /// used fewer).
    pub workers: usize,
    /// The enforced bound on resident reads — pulled and not yet emitted —
    /// across **all** sources (`queue_capacity + workers`; 1 with a single
    /// worker, where the calling thread runs each read to completion before
    /// the next pull).
    pub in_flight_limit: usize,
    /// High-water mark of resident reads, summed over sources. Always ≤
    /// `in_flight_limit`. See [`StreamSummary::max_in_flight`].
    pub max_in_flight: usize,
    /// Always 0: a contained fault is quarantined the moment it comes back
    /// (the retry policy was deleted in PR 23 — a read is a pure function
    /// of its signal, so a retry faults again). The field stays only because
    /// `benchmarks/src/run.rs` reads it; it goes with the `benchmark` PR
    /// that retires `engine.retried`.
    pub retried: usize,
    /// Always 0: every read holds its permit to emission, so no result ever
    /// waits for its in-order slot outside the in-flight bound. The field
    /// stays only because `benchmarks/src/run.rs` reads it; it goes with the
    /// `benchmark` PR that retires `engine.max_reject_backlog`.
    pub max_reject_backlog: usize,
    /// Always all-zero (see [`LatencyStats`]): kept only because
    /// `benchmarks/src/run.rs` reads it.
    pub latency: LatencyStats,
}

impl SessionReport {
    /// The report of the source registered under `id`, if any.
    pub fn source(&self, id: impl Into<SourceId>) -> Option<&SourceReport> {
        let id = id.into();
        self.sources.iter().find(|s| s.id == id)
    }
}

/// One source's share of a [`SessionCheckpoint`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceCheckpoint {
    /// The id the source was registered (or attached) under.
    pub id: SourceId,
    /// The source's outcome counters at the cut. Emission is in-order per
    /// source, so `outcomes.reads_emitted` is exactly the length of the
    /// source's fully-delivered prefix — the read index to resume a
    /// seekable source at.
    pub outcomes: ProgressSnapshot,
    /// `true` once the source has retired (ran dry, or was detached).
    pub done: bool,
}

/// A consistent cut of a running session, handed to the sink registered
/// with [`Session::checkpoint`].
///
/// Checkpoints are taken on the emitting thread between in-order result
/// deliveries, so every counter refers to results that have already passed
/// through the sinks — nothing in a checkpoint is ahead of what a sink
/// (e.g. a FASTQ writer) has seen. Persisting one (see
/// `genpip_io::CheckpointFile`) is enough to restart a killed run with a
/// byte-identical output suffix, provided the sources can be reopened at
/// their recorded offsets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionCheckpoint {
    /// Per-source state, in registration order (attached sources included).
    pub sources: Vec<SourceCheckpoint>,
    /// Aggregate outcome counters over all sources.
    pub outcomes: ProgressSnapshot,
    /// Always 0, like [`SessionReport::retried`]: kept only because
    /// `benchmarks/src/session.rs` copies it into its checkpoint files.
    pub retried: usize,
    /// `false` for periodic mid-run checkpoints; `true` for the final
    /// checkpoint emitted after the session finishes (including a
    /// [`SessionControl::drain`]).
    pub complete: bool,
}

/// A boxed per-source event sink.
type BoxedSink<'a> = Box<dyn FnMut(StreamEvent) + 'a>;

/// A boxed checkpoint sink with its cadence (in emitted reads).
type BoxedCheckpointSink<'a> = Box<dyn FnMut(&SessionCheckpoint) + 'a>;

/// A builder-registered source: its admission, made when the run starts,
/// and its sink, which — not being `Send` — stays on the calling thread.
struct SourceSlot<'a> {
    admission: Admission<'a>,
    sink: Option<BoxedSink<'a>>,
}

/// A configured execution of the pipeline over one or more named read
/// sources — the one public execution API.
///
/// Build with [`Session::new`], register sources with [`Session::source`]
/// (or [`Session::source_with_config`] for per-source operating points, and
/// optionally per-source sinks with [`Session::sink`]), pick a [`Flow`] and
/// [`Schedule`], then [`Session::run`]. See the
/// [module docs](crate::engine) for the execution model and guarantees.
pub struct Session<'a> {
    config: GenPipConfig,
    flow: Flow,
    schedule: Schedule,
    options: StreamOptions,
    slots: Vec<SourceSlot<'a>>,
    /// Sinks attached before their source was registered — matched up at
    /// [`Session::run`], so builder call order doesn't matter.
    pending_sinks: Vec<(SourceId, BoxedSink<'a>)>,
    /// Checkpoint cadence and sink, if checkpointing was requested.
    checkpoint: Option<(usize, BoxedCheckpointSink<'a>)>,
}

impl<'a> Session<'a> {
    /// Starts a session with the full GenPIP flow ([`Flow::GenPip`] with
    /// [`ErMode::Full`]), a [`Schedule::FairShare`] scheduler, default
    /// [`StreamOptions`], and no sources.
    pub fn new(config: GenPipConfig) -> Session<'a> {
        Session {
            config,
            flow: Flow::GenPip(ErMode::Full),
            schedule: Schedule::FairShare,
            options: StreamOptions::default(),
            slots: Vec::new(),
            pending_sinks: Vec::new(),
            checkpoint: None,
        }
    }

    /// Selects which pipeline the session runs.
    pub fn flow(mut self, flow: Flow) -> Session<'a> {
        self.flow = flow;
        self
    }

    /// Selects how the registered sources are interleaved.
    pub fn schedule(mut self, schedule: Schedule) -> Session<'a> {
        self.schedule = schedule;
        self
    }

    /// Sets the transport knobs (queue capacity, progress cadence). The
    /// progress cadence is per source: each source's sink receives a
    /// [`StreamEvent::Progress`] every `progress_every` of *its own* reads.
    pub fn options(mut self, options: StreamOptions) -> Session<'a> {
        self.options = options;
        self
    }

    /// Registers a source under `id`, processed with the session-wide
    /// config. Sources are pulled in the order the [`Schedule`] dictates;
    /// each source's reads are processed against its own reference and pore
    /// model, and emitted in its own read order.
    ///
    /// Registering is attaching before the run: at [`Session::run`] every
    /// builder source, in registration order, passes the admission a
    /// [`SessionControl::attach`] passes (unique id,
    /// [`StreamOptions::max_sources`], priority weight, config against the
    /// source's reference and chemistry) and the first refusal is `run`'s
    /// `Err`, before any read is pulled.
    pub fn source(
        self,
        id: impl Into<SourceId>,
        source: impl ReadSource + Send + 'a,
    ) -> Session<'a> {
        self.register(id.into(), Box::new(source), None)
    }

    fn register(
        mut self,
        id: SourceId,
        source: Box<dyn ReadSource + Send + 'a>,
        config: Option<GenPipConfig>,
    ) -> Session<'a> {
        // The weight is the schedule's, known only at `run`.
        let admission = Admission {
            id,
            source,
            config,
            weight: 1,
        };
        self.slots.push(SourceSlot {
            admission,
            sink: None,
        });
        self
    }

    /// Registers a source under `id` with its **own** [`GenPipConfig`], so
    /// different sources can run different operating points (`N_qs`,
    /// `N_cm`, thresholds, chunk size) in one session — e.g. an
    /// E. coli flowcell next to a human one. Transport-level knobs on the
    /// override are ignored: `parallelism` (the pool is session-wide) comes
    /// from the session config. The override is validated against the
    /// source's reference and chemistry at [`Session::run`]
    /// ([`SessionError::IncompatibleSourceConfig`]), like every part of
    /// the admission [`Session::source`] describes.
    pub fn source_with_config(
        self,
        id: impl Into<SourceId>,
        source: impl ReadSource + Send + 'a,
        config: GenPipConfig,
    ) -> Session<'a> {
        self.register(id.into(), Box::new(source), Some(config))
    }

    /// Attaches a sink to the source registered under `id`, replacing any
    /// previous sink for it. The sink receives that source's events only —
    /// every [`ReadRun`] in the source's read order, plus periodic
    /// [`ProgressSnapshot`]s of that source's counters. Sinks run on the
    /// calling thread; a slow sink applies backpressure to the whole
    /// session. Call order is flexible — a sink may be attached before its
    /// source is registered; an id that still has no source when
    /// [`Session::run`] is called fails it with
    /// [`SessionError::SinkWithoutSource`].
    pub fn sink(
        mut self,
        id: impl Into<SourceId>,
        sink: impl FnMut(StreamEvent) + 'a,
    ) -> Session<'a> {
        self.pending_sinks.push((id.into(), Box::new(sink)));
        self
    }

    /// Registers a checkpoint sink, invoked on the calling thread with a
    /// [`SessionCheckpoint`] every `every` emitted reads (counted across
    /// all sources) and once more — with
    /// [`SessionCheckpoint::complete`] set — after the session finishes,
    /// whether it ran dry or was drained via [`SessionControl::drain`].
    ///
    /// Checkpoints are cut between in-order emissions, so the counters
    /// never run ahead of what the sinks have seen; a sink that persists
    /// them (plus its own output offsets) makes the run resumable. A later
    /// call replaces an earlier one.
    pub fn checkpoint(
        mut self,
        every: usize,
        sink: impl FnMut(&SessionCheckpoint) + 'a,
    ) -> Session<'a> {
        self.checkpoint = Some((every, Box::new(sink)));
        self
    }

    /// Moves pending sinks onto their slots (later attachments win), then
    /// reports the first sink whose source never appeared.
    fn attach_sinks(&mut self) -> Result<(), SessionError> {
        for (id, sink) in self.pending_sinks.drain(..) {
            match self.slots.iter_mut().find(|s| s.admission.id == id) {
                Some(slot) => slot.sink = Some(sink),
                None => return Err(SessionError::SinkWithoutSource(id)),
            }
        }
        Ok(())
    }

    /// The session-level checks; everything per source is
    /// [`SessionFeed::admit`]'s.
    fn validate(&self) -> Result<(), SessionError> {
        if self.options.queue_capacity == 0 {
            return Err(SessionError::ZeroQueueCapacity);
        }
        if matches!(self.config.parallelism, Parallelism::Threads(0)) {
            return Err(SessionError::ZeroWorkers);
        }
        if self.slots.is_empty() {
            return Err(SessionError::NoSources);
        }
        if matches!(self.checkpoint, Some((0, _))) {
            return Err(SessionError::ZeroCheckpointInterval);
        }
        match &self.schedule {
            Schedule::Priority(weights) if weights.len() != self.slots.len() => {
                Err(SessionError::PriorityWeightCount {
                    sources: self.slots.len(),
                    weights: weights.len(),
                })
            }
            _ => Ok(()),
        }
    }

    /// Validates the configuration, then pulls every registered source dry
    /// through the shared worker pool, delivering results to the per-source
    /// sinks as they complete.
    ///
    /// Blocks until all sources are exhausted. A panic in a source, worker,
    /// or sink tears the session down and propagates rather than
    /// deadlocking — unless the faulting source's
    /// [`crate::FaultPolicy`] contains worker faults (see the
    /// [module docs](crate::engine)).
    pub fn run(self) -> Result<SessionReport, SessionError> {
        self.run_with_control(&SessionControl::new())
    }

    /// [`Session::run`] with an external [`SessionControl`]: clone the
    /// handle before calling and any thread (or any sink) can drive the
    /// running session — [`SessionControl::drain`] it, snapshot
    /// [`SessionControl::stats`], [`SessionControl::attach`] new sources,
    /// or [`SessionControl::detach`] existing ones. Commands enqueued
    /// before the run starts are applied at the session's first poll, after
    /// the builder's sources (in particular, a pre-run `drain` makes the
    /// session return immediately with empty counters). A builder source
    /// refused at admission fails the run like any [`SessionError`] and
    /// closes the control: commands still queued resolve to
    /// [`SessionError::SessionClosed`].
    pub fn run_with_control(
        mut self,
        control: &SessionControl,
    ) -> Result<SessionReport, SessionError> {
        self.validate()?;
        self.attach_sinks()?;
        let Session {
            config,
            flow,
            schedule,
            options,
            mut slots,
            checkpoint,
            ..
        } = self;
        if let Schedule::Priority(weights) = &schedule {
            for (slot, &weight) in slots.iter_mut().zip(weights) {
                slot.admission.weight = weight;
            }
        }
        let (admissions, builder_sinks): (Vec<_>, VecDeque<_>) =
            slots.into_iter().map(|s| (s.admission, s.sink)).unzip();
        let workers = config.parallelism.workers().max(1);
        let engine = EngineConfig {
            workers,
            queue_capacity: options.queue_capacity,
            schedule: &schedule,
            control,
        };

        let control_state = Arc::clone(&control.state);
        let mut feed = SessionFeed {
            lanes: Vec::new(),
            admitted: Vec::new(),
            control: Arc::clone(&control_state),
            session_config: config,
            uses_qsr: flow.uses_qsr(),
            max_sources: options.max_sources,
            priority: matches!(schedule, Schedule::Priority(_)),
        };
        let mut emitter = SessionEmitter {
            lanes: Vec::new(),
            builder_sinks,
            outcomes: ProgressSnapshot::default(),
            totals: WorkloadTotals::default(),
            workers,
            in_flight_limit: engine.in_flight_limit(),
            progress_every: options.progress_every,
            checkpoint,
            emitted: 0,
            control: Arc::clone(&control_state),
        };

        control_state.begin_run();
        let stats = {
            // However this block is left — a refused builder source, or a
            // panic unwinding through the engine, included — commands still
            // queued resolve to `SessionClosed` instead of leaving their
            // waiters blocked.
            let _close = OnDrop(|| control_state.close());
            for admission in admissions {
                let added = feed.admit(admission, None)?;
                feed.admitted.push(added);
            }
            session_engine(
                engine,
                || -> Vec<Option<WorkerScratch>> { Vec::new() },
                feed,
                move |scratch, lane, task: &mut ReadTask| {
                    // Scratch is per (worker, source): lazily built because
                    // a worker may never see some sources' reads, and
                    // grown on demand as lanes attach.
                    if scratch.len() <= lane {
                        scratch.resize_with(lane + 1, || None);
                    }
                    let slot = scratch[lane].get_or_insert_with(|| WorkerScratch::new(&task.ctx));
                    Ok(task.run(flow, slot))
                },
                |_lane, task: ReadTask, info: FaultInfo| {
                    let fault = ReadFault {
                        kind: info.kind,
                        message: info.message,
                        chunk: task.at_chunk,
                    };
                    Err((task.read.id, fault))
                },
                |lane, event| emitter.on_event(lane, event),
            )
        };
        Ok(emitter.finish(stats))
    }
}

/// What a retired read hands the session's emitter: a normal result, or a
/// quarantined read's id and fault.
type ReadOutput = Result<ReadRun, (u32, ReadFault)>;

/// One source's emitter-side record, pushed at its in-order
/// [`LaneEvent::Attached`] marker, which precedes every output of the lane.
#[derive(Default)]
struct SinkLane<'a> {
    outcomes: ProgressSnapshot,
    totals: WorkloadTotals,
    sink: Option<BoxedSink<'a>>,
}

/// The session's half of in-order emission, on the calling thread: feeds
/// the per-source sinks, keeps the per-source and aggregate counters, cuts
/// checkpoints between deliveries, and assembles the final report. Sinks,
/// the checkpoint sink and detach responders are all invoked with no lock
/// held, so any of them may call back into the [`SessionControl`].
struct SessionEmitter<'a> {
    lanes: Vec<SinkLane<'a>>,
    /// The builder sources' sinks, in registration order. Their lanes'
    /// markers are the run's first; a live attach's sink waits in its
    /// [`SourceRecord`] instead.
    builder_sinks: VecDeque<Option<BoxedSink<'a>>>,
    outcomes: ProgressSnapshot,
    totals: WorkloadTotals,
    workers: usize,
    in_flight_limit: usize,
    progress_every: usize,
    /// Checkpoint cadence and sink, if checkpointing was requested.
    checkpoint: Option<(usize, BoxedCheckpointSink<'a>)>,
    /// Outputs delivered so far, across all sources.
    emitted: usize,
    control: Arc<ControlState>,
}

impl SessionEmitter<'_> {
    fn on_event(&mut self, lane: usize, event: LaneEvent<ReadOutput>) {
        match event {
            LaneEvent::Attached => {
                debug_assert_eq!(lane, self.lanes.len(), "markers arrive in lane order");
                let sink = match self.builder_sinks.pop_front() {
                    Some(sink) => sink,
                    None => {
                        let pending = self.control.lock().sources[lane].pending_sink.take();
                        pending.map(|sink| sink as BoxedSink<'_>)
                    }
                };
                self.lanes.push(SinkLane {
                    sink,
                    ..SinkLane::default()
                });
            }
            LaneEvent::Detached(stats) => {
                // The lane's last output has been emitted: finalize and
                // deliver its summary.
                let summary = self.summary(lane, &stats);
                let responder = {
                    let mut inner = self.control.lock();
                    let record = &mut inner.sources[lane];
                    record.stats.detached = true;
                    record.detaching.take()
                };
                if let Some(responder) = responder {
                    let _ = responder.send(Ok(summary));
                }
            }
            LaneEvent::Output(output) => self.deliver(lane, output),
        }
    }

    fn deliver(&mut self, lane: usize, output: ReadOutput) {
        let record = &mut self.lanes[lane];
        let event = match output {
            Ok(run) => {
                self.totals.accumulate(&run);
                self.outcomes.observe(&run);
                record.totals.accumulate(&run);
                record.outcomes.observe(&run);
                StreamEvent::Read(run)
            }
            Err((read_id, fault)) => {
                self.outcomes.observe_failed();
                record.outcomes.observe_failed();
                StreamEvent::Failed { read_id, fault }
            }
        };
        let outcomes = record.outcomes;
        if let Some(sink) = record.sink.as_mut() {
            sink(event);
            if self.progress_every > 0 && outcomes.reads_emitted.is_multiple_of(self.progress_every)
            {
                sink(StreamEvent::Progress(outcomes));
            }
        }
        self.control.lock().sources[lane].stats.outcomes = outcomes;
        self.emitted += 1;
        if matches!(&self.checkpoint, Some((every, _)) if self.emitted.is_multiple_of(*every)) {
            self.cut(false);
        }
    }

    /// Hands the checkpoint sink (if any) a cut of the session as of now: a
    /// periodic one between deliveries, or the final `complete` one — every
    /// lane retired (run dry, detached, or drained), all results delivered.
    /// The records can be a lane ahead of the emitter (an attach admitted
    /// on the dispatcher whose marker is still in flight): such a source is
    /// listed with nothing delivered yet.
    fn cut(&mut self, complete: bool) {
        let Some((_, sink)) = &mut self.checkpoint else {
            return;
        };
        let sources = (self.control.lock().sources.iter())
            .map(|record| SourceCheckpoint {
                id: record.stats.id.clone(),
                outcomes: record.stats.outcomes,
                done: complete || record.stats.detached,
            })
            .collect();
        sink(&SessionCheckpoint {
            sources,
            outcomes: self.outcomes,
            retried: 0,
            complete,
        });
    }

    /// `lane`'s summary: its own counters plus the engine's observations of
    /// it. `workers` and `in_flight_limit` are the session-wide values.
    fn summary(&self, lane: usize, stats: &LaneStats) -> StreamSummary {
        StreamSummary {
            outcomes: self.lanes[lane].outcomes,
            totals: self.lanes[lane].totals,
            workers: self.workers,
            in_flight_limit: self.in_flight_limit,
            max_in_flight: stats.max_in_flight,
        }
    }

    /// The final checkpoint and the report, once the engine has returned.
    fn finish(mut self, stats: EngineStats) -> SessionReport {
        self.cut(true);
        let inner = self.control.lock();
        SessionReport {
            sources: (inner.sources.iter().zip(&stats.lanes).enumerate())
                .map(|(lane, (record, lane_stats))| SourceReport {
                    id: record.stats.id.clone(),
                    summary: self.summary(lane, lane_stats),
                })
                .collect(),
            outcomes: self.outcomes,
            totals: self.totals,
            workers: self.workers,
            in_flight_limit: self.in_flight_limit,
            max_in_flight: stats.max_in_flight,
            retried: 0,
            max_reject_backlog: 0,
            latency: LatencyStats::default(),
        }
    }
}

/// The [`LaneFeed`] of a real [`Session`]: owns the sources (pulled on the
/// dispatcher) and is the one place a source becomes a lane
/// ([`SessionFeed::admit`]); detach resolves ids to lanes. Accepted commands
/// become [`EngineCommand`]s for the engine.
struct SessionFeed<'a> {
    /// Per lane, the source and the immutable context (reference index,
    /// basecaller, chunk geometry, effective config) each of its reads
    /// carries to whichever worker runs it.
    lanes: Vec<(Box<dyn ReadSource + Send + 'a>, Arc<RunContext>)>,
    /// Lanes admitted before the engine existed — the builder's — waiting
    /// for the first poll.
    admitted: Vec<EngineCommand>,
    control: Arc<ControlState>,
    session_config: GenPipConfig,
    uses_qsr: bool,
    max_sources: usize,
    priority: bool,
}

impl<'a> SessionFeed<'a> {
    /// The one door into a session, for builder sources and live attaches
    /// alike: the admission rules (unique-forever ids,
    /// [`StreamOptions::max_sources`], schedule parameters), the per-source
    /// config check, then the source's lane, context and [`SourceRecord`].
    /// `Ok` is the engine-side lane addition.
    fn admit(
        &mut self,
        admission: Admission<'a>,
        sink: Option<AttachedSink>,
    ) -> Result<EngineCommand, SessionError> {
        let Admission {
            id,
            source,
            config,
            weight,
        } = admission;
        {
            let inner = self.control.lock();
            if inner.sources.iter().any(|r| r.stats.id == id) {
                return Err(SessionError::DuplicateSource(id));
            }
            let live = inner.sources.iter().filter(|r| !r.detach_requested);
            if live.count() >= self.max_sources {
                return Err(SessionError::TooManySources {
                    limit: self.max_sources,
                });
            }
        }
        if self.priority && weight == 0 {
            return Err(SessionError::ZeroPriorityWeight(id));
        }
        let own = config.as_ref();
        check_source_config(&id, &*source, own, &self.session_config, self.uses_qsr)?;
        let effective = own.unwrap_or(&self.session_config);
        let policy = effective.fault_policy;
        // Built outside the lock (it indexes the reference); only this feed
        // ever adds records, so the checks above still hold at the push.
        let context = Arc::new(RunContext::from_source(&*source, effective));
        self.lanes.push((source, context));
        self.control.lock().sources.push(SourceRecord {
            stats: SourceStats {
                id,
                outcomes: ProgressSnapshot::default(),
                detached: false,
            },
            detach_requested: false,
            detaching: None,
            pending_sink: sink,
        });
        Ok(EngineCommand::AddLane { policy, weight })
    }
}

impl LaneFeed<ReadTask> for SessionFeed<'_> {
    fn pull(&mut self, lane: usize) -> Option<ReadTask> {
        let (source, context) = &mut self.lanes[lane];
        let read = source.next_read()?;
        Some(ReadTask::new(read, Arc::clone(context)))
    }

    fn poll(&mut self) -> Vec<EngineCommand> {
        let drained: Vec<Command> = self.control.lock().commands.drain(..).collect();
        let mut commands = std::mem::take(&mut self.admitted);
        for command in drained {
            match command {
                Command::Attach(request) => {
                    let AttachRequest {
                        admission,
                        sink,
                        responder,
                    } = *request;
                    let verdict = self.admit(admission, sink);
                    let _ = responder.send(verdict.map(|added| commands.push(added)));
                }
                Command::Detach { id, responder } => {
                    let mut inner = self.control.lock();
                    let known = |r: &SourceRecord| r.stats.id == id && !r.detach_requested;
                    match inner.sources.iter().position(known) {
                        Some(lane) => {
                            inner.sources[lane].detach_requested = true;
                            inner.sources[lane].detaching = Some(responder);
                            commands.push(EngineCommand::DrainLane { lane });
                        }
                        None => {
                            drop(inner);
                            let _ = responder.send(Err(SessionError::UnknownSource(id)));
                        }
                    }
                }
            }
        }
        commands
    }
}

/// A counting gate bounding how many reads are resident: `acquire` blocks
/// while `limit` permits are out, `release` frees one. Tracks the
/// high-water mark so tests (and the bench report) can assert the bound
/// really held.
///
/// A permit is taken when a read is pulled and released when it is emitted
/// in order — whatever its outcome — so "pulled and not yet emitted" never
/// exceeds `limit`.
///
/// The gate can also be `open`ed — permits stop mattering and blocked
/// acquirers return `false`. That is the shutdown path: if the sink or a
/// worker panics, permits held by dropped items would never be released and
/// the dispatcher would block forever; opening the gate turns that hang
/// into a propagated panic.
struct FlowGate {
    state: Mutex<GateState>,
    freed: Condvar,
    limit: usize,
}

#[derive(Default)]
struct GateState {
    used: usize,
    /// High-water mark of `used`.
    high: usize,
    open: bool,
}

impl FlowGate {
    fn new(limit: usize) -> FlowGate {
        FlowGate {
            state: Mutex::new(GateState::default()),
            freed: Condvar::new(),
            limit,
        }
    }

    /// Takes a permit, blocking while the limit is reached. `false` means
    /// the gate was opened for shutdown and no permit was taken.
    fn acquire(&self) -> bool {
        let mut state = self.state.lock().expect("gate poisoned");
        while !state.open && state.used >= self.limit {
            state = self.freed.wait(state).expect("gate poisoned");
        }
        if state.open {
            return false;
        }
        state.used += 1;
        state.high = state.high.max(state.used);
        true
    }

    /// `true` while a permit is immediately available (or the gate is open
    /// for shutdown, in which case `acquire` reports the shutdown). Only the
    /// dispatcher acquires, so room seen here cannot be taken by anyone
    /// else before it does.
    fn has_room(&self) -> bool {
        let state = self.state.lock().expect("gate poisoned");
        state.open || state.used < self.limit
    }

    fn release(&self) {
        let mut state = self.state.lock().expect("gate poisoned");
        state.used -= 1;
        drop(state);
        self.freed.notify_one();
    }

    /// Blocks until every permit is back — i.e. every admitted read has
    /// been emitted — or the gate was opened for shutdown (`false`). The
    /// dispatcher parks here before concluding an idle session, so sinks
    /// get to run (and possibly enqueue control commands) before the final
    /// poll. Only the dispatcher ever waits on the gate, so the emitter's
    /// `release` notifications cannot be stolen by another waiter.
    fn await_idle(&self) -> bool {
        let mut state = self.state.lock().expect("gate poisoned");
        while !state.open && state.used > 0 {
            state = self.freed.wait(state).expect("gate poisoned");
        }
        !state.open
    }

    /// Lets every current and future `acquire` through empty-handed.
    fn open(&self) {
        let mut state = self.state.lock().expect("gate poisoned");
        state.open = true;
        drop(state);
        self.freed.notify_all();
    }

    /// The most permits ever out at once.
    fn high_water(&self) -> usize {
        self.state.lock().expect("gate poisoned").high
    }
}

/// Runs its closure when dropped — on the normal path and, crucially,
/// during unwinding. The closure must not panic.
struct OnDrop<F: FnMut()>(F);

impl<F: FnMut()> Drop for OnDrop<F> {
    fn drop(&mut self) {
        (self.0)();
    }
}

/// Per-lane engine observations.
pub(crate) struct LaneStats {
    /// High-water mark of this lane's resident reads (pulled, not yet
    /// emitted).
    pub(crate) max_in_flight: usize,
}

/// What the engine observed, so callers never re-derive it. (The bound it
/// enforced is [`EngineConfig::in_flight_limit`].)
pub(crate) struct EngineStats {
    /// High-water mark of resident reads across all lanes.
    pub(crate) max_in_flight: usize,
    /// Per-lane observations, indexed like the engine's lanes.
    pub(crate) lanes: Vec<LaneStats>,
}

/// What the engine reports to its `emit` callback, strictly in global
/// admission/marker order per session (and hence in per-lane order).
pub(crate) enum LaneEvent<O> {
    /// An in-order read output.
    Output(O),
    /// The lane's attach marker: delivered before the lane's first output,
    /// the emitter's cue to install the lane's sink and per-lane state.
    Attached,
    /// The lane's detach marker: delivered after the lane's last output,
    /// carrying the lane's finalized engine-side stats.
    Detached(LaneStats),
}

/// Where the engine's lanes and reads come from. `pull` is called on the
/// dispatcher when the schedule picks a lane with admission room; `poll` is
/// called at the top of every dispatch round and once more after the
/// session goes idle, so commands raised by the final emissions still apply
/// before the engine concludes. The engine starts with no lanes: the first
/// poll's [`EngineCommand::AddLane`]s are its startup set.
pub(crate) trait LaneFeed<C>: Send {
    /// The next read from `lane`, or `None` when that source is exhausted.
    fn pull(&mut self, lane: usize) -> Option<C>;

    /// Control-plane commands to apply before the next dispatch round.
    fn poll(&mut self) -> Vec<EngineCommand>;
}

/// A control-plane command after feed-side validation, ready for the
/// engine to apply.
pub(crate) enum EngineCommand {
    /// A new lane — the next index — joins the schedule with the given
    /// fault policy and [`Schedule::Priority`] weight. The engine sends the
    /// lane's [`LaneEvent::Attached`] marker through the in-order path
    /// before the lane's first output.
    AddLane { policy: FaultPolicy, weight: u32 },
    /// Stop pulling from `lane`; once its resident reads have finished
    /// and emitted, the lane's [`LaneEvent::Detached`] marker delivers its
    /// finalized [`LaneStats`].
    DrainLane { lane: usize },
}

/// The per-lane record the dispatcher (admission) and the emitter (release
/// at emission, detach-marker stats) share. The dispatcher pushes a lane's
/// record before sending its `Attached` marker and before any admission of
/// the lane, so every index is in bounds on both sides. The *global* bound
/// is the gate's; `high` only attributes high-waters.
#[derive(Default)]
struct LaneTally {
    inflight: usize,
    high: usize,
}

impl LaneTally {
    /// The lane's stats as of now (final once its last output is emitted).
    fn stats(&self) -> LaneStats {
        LaneStats {
            max_in_flight: self.high,
        }
    }
}

/// What the dispatcher and the emitter share: the gate and the per-lane
/// tallies (one mutex rather than per-lane atomics, because the vector
/// grows when lanes attach mid-run).
struct Shared {
    gate: FlowGate,
    tallies: Mutex<Vec<LaneTally>>,
}

impl Shared {
    fn tallies(&self) -> std::sync::MutexGuard<'_, Vec<LaneTally>> {
        self.tallies.lock().expect("tallies poisoned")
    }

    /// What the finished engine observed.
    fn into_stats(self) -> EngineStats {
        let tallies = self.tallies.into_inner().expect("tallies poisoned");
        EngineStats {
            max_in_flight: self.gate.high_water(),
            lanes: tallies.iter().map(LaneTally::stats).collect(),
        }
    }
}

/// A task — one whole read — on its way to a worker, with everything the
/// dispatcher knows about the resident read, so nothing is looked up when
/// it comes back. `token` is the read's admission seq. The task carries its
/// lane's fault policy so workers never index per-lane state (which grows
/// when lanes attach mid-run).
struct Task<C> {
    token: u64,
    lane: usize,
    policy: FaultPolicy,
    read: C,
}

/// What [`run_task`] reports back to the dispatcher. `Faulted` is a
/// contained panic — the read survived and the dispatcher quarantines it.
/// `Panicked` is a pool worker's dying gasp under [`FaultPolicy::Fail`]: "I
/// panicked on this task — abort."
enum WorkerMsg<C, O> {
    Finished {
        token: u64,
        lane: usize,
        output: O,
    },
    Faulted {
        task: Task<C>,
        kind: FaultKind,
        message: String,
    },
    Panicked,
}

/// A retired read — or a lane lifecycle marker — on its way to in-order
/// emission. Markers consume a sequence number like outputs do, which is
/// exactly what orders them: an Attached marker's seq precedes every
/// admission of its lane, a Detached marker's seq follows them all.
struct EmitMsg<O> {
    seq: u64,
    lane: usize,
    kind: EmitKind<O>,
}

enum EmitKind<O> {
    Output(O),
    Attached,
    Detached,
}

/// The engine's scalar knobs, bundled so the closure parameters stay
/// readable at the call site. Lanes are not among them: every lane arrives
/// as an [`EngineCommand::AddLane`]; of `schedule` only the policy is read
/// (a `Priority` lane's weight rides its `AddLane`).
pub(crate) struct EngineConfig<'s> {
    pub(crate) workers: usize,
    pub(crate) queue_capacity: usize,
    pub(crate) schedule: &'s Schedule,
    pub(crate) control: &'s SessionControl,
}

impl EngineConfig<'_> {
    /// The enforced bound on resident reads: `queue_capacity + workers`
    /// on the pool, 1 when the caller's thread is the only worker.
    pub(crate) fn in_flight_limit(&self) -> usize {
        if self.workers == 1 {
            1
        } else {
            self.queue_capacity.max(1) + self.workers
        }
    }
}

/// What the engine learned about a contained fault, handed to the caller's
/// `fault` closure when a read is quarantined.
pub(crate) struct FaultInfo {
    pub(crate) kind: FaultKind,
    pub(crate) message: String,
}

/// Turns a caught panic payload into a fault classification. A typed
/// [`genpip_basecall::SignalFault`] is corrupt input; anything else is an
/// unexpected panic, described by its string payload when it has one.
fn classify_panic(payload: Box<dyn std::any::Any + Send>) -> (FaultKind, String) {
    match payload.downcast::<genpip_basecall::SignalFault>() {
        Ok(fault) => (FaultKind::CorruptSignal, fault.to_string()),
        Err(payload) => {
            let message = if let Some(s) = payload.downcast_ref::<&'static str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "non-string panic payload".to_string()
            };
            (FaultKind::Panic, message)
        }
    }
}

thread_local! {
    /// `true` while this thread is inside a contained `run` call: the
    /// quiet hook drops the panic report instead of spamming stderr for
    /// every injected fault.
    static SUPPRESS_PANIC_OUTPUT: Cell<bool> = const { Cell::new(false) };
}

static QUIET_HOOK: Once = Once::new();

/// Installs (once, process-wide) a panic hook that stays silent for panics
/// raised inside a contained [`run_task`] and defers to the previous hook
/// for everything else. Only called when a lane whose policy actually
/// contains faults is added, so `FaultPolicy::Fail` runs keep the stock hook
/// untouched.
fn install_quiet_hook() {
    QUIET_HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let suppressed = SUPPRESS_PANIC_OUTPUT.with(Cell::get);
            if !suppressed {
                previous(info);
            }
        }));
    });
}

/// Runs one task — the only place a read's `run` is called and its panics
/// are caught (a panicking `run` would otherwise strand the read's permit
/// and deadlock the dispatcher), whichever thread runs it. `run` takes the
/// read to its output in one call. Under a containing policy a panicking
/// read survives (the closure only borrowed it) and comes back `Faulted`,
/// the panic report suppressed; under [`FaultPolicy::Fail`] the payload is
/// returned for the caller to rethrow.
fn run_task<C, O, S>(
    run: &impl Fn(&mut S, usize, &mut C) -> O,
    state: &mut S,
    mut task: Task<C>,
) -> Result<WorkerMsg<C, O>, Box<dyn std::any::Any + Send>> {
    let contain = task.policy != FaultPolicy::Fail;
    SUPPRESS_PANIC_OUTPUT.with(|c| c.set(contain));
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run(state, task.lane, &mut task.read)
    }));
    SUPPRESS_PANIC_OUTPUT.with(|c| c.set(false));
    match outcome {
        Ok(output) => Ok(WorkerMsg::Finished {
            token: task.token,
            lane: task.lane,
            output,
        }),
        Err(panic) if contain => {
            let (kind, message) = classify_panic(panic);
            Ok(WorkerMsg::Faulted {
                task,
                kind,
                message,
            })
        }
        Err(panic) => Err(panic),
    }
}

/// A pool worker: runs tasks off the shared queue until the dispatcher
/// hangs up. A panic under [`FaultPolicy::Fail`] tells the dispatcher to
/// abort, then rethrows so the scope propagates it after teardown.
fn worker_loop<C, O, S>(
    run: &impl Fn(&mut S, usize, &mut C) -> O,
    mut state: S,
    tasks: &Mutex<mpsc::Receiver<Task<C>>>,
    results: mpsc::Sender<WorkerMsg<C, O>>,
) {
    loop {
        let received = tasks.lock().expect("queue poisoned").recv();
        let Ok(task) = received else { break };
        match run_task(run, &mut state, task) {
            Ok(msg) => {
                if results.send(msg).is_err() {
                    break;
                }
            }
            Err(panic) => {
                let _ = results.send(WorkerMsg::Panicked);
                std::panic::resume_unwind(panic);
            }
        }
    }
}

/// One lane's dispatcher-side state.
struct DispatchLane {
    policy: FaultPolicy,
    /// No more pulls: the source ran dry, or lane or session is draining.
    dry: bool,
    /// A detach is pending: the lane's retirement sends its marker.
    detaching: bool,
    /// Resident reads of this lane, each out on a task.
    live: usize,
}

/// The engine's scheduling half: owns the feed (sources plus control
/// plane) and the schedule. Retired outputs and lane markers go to `out` —
/// the [`Emitter`] itself, or its channel when the dispatcher has its own
/// thread; `false` means the emitter is gone.
struct Dispatcher<'e, C, L, Q, X> {
    shared: &'e Shared,
    control: &'e SessionControl,
    feed: L,
    /// The read type `feed` yields; the dispatcher itself holds no read.
    reads: PhantomData<fn() -> C>,
    fault: Q,
    out: X,
    sched: SchedulerState,
    lanes: Vec<DispatchLane>,
    next_seq: u64,
    /// Tasks handed out by `next_task` and not yet `complete`d.
    outstanding: usize,
    /// Teardown is underway (gate opened, emitter or pool gone).
    shutdown: bool,
}

impl<'e, C, O, L, Q, X> Dispatcher<'e, C, L, Q, X>
where
    L: LaneFeed<C>,
    Q: FnMut(usize, C, FaultInfo) -> O,
    X: FnMut(EmitMsg<O>) -> bool,
{
    fn new(cfg: &EngineConfig<'e>, shared: &'e Shared, feed: L, fault: Q, out: X) -> Self {
        Dispatcher {
            shared,
            control: cfg.control,
            feed,
            reads: PhantomData,
            fault,
            out,
            sched: SchedulerState::new(cfg.schedule),
            lanes: Vec::new(),
            next_seq: 0,
            outstanding: 0,
            shutdown: false,
        }
    }

    fn send(&mut self, seq: u64, lane: usize, kind: EmitKind<O>) {
        if !(self.out)(EmitMsg { seq, lane, kind }) {
            self.shutdown = true;
        }
    }

    /// Sends a lane marker under the next seq — allocated here, on the
    /// dispatcher: an `Attached` marker's before any admission of the new
    /// lane, a `Detached` one's after the lane's last.
    fn send_marker(&mut self, lane: usize, kind: EmitKind<O>) {
        self.next_seq += 1;
        self.send(self.next_seq - 1, lane, kind);
    }

    /// Stops pulling from `lane` and, once its last resident read is gone,
    /// retires it: exhausted in the schedule and, if it is being detached,
    /// its in-order `Detached` marker sent. Idempotent, so a drain racing a
    /// natural exhaustion is fine.
    fn dry_up(&mut self, lane: usize) {
        let state = &mut self.lanes[lane];
        state.dry = true;
        if state.live == 0 {
            self.sched.exhausted(lane);
            if std::mem::take(&mut state.detaching) {
                self.send_marker(lane, EmitKind::Detached);
            }
        }
    }

    /// The control plane, applied before a dispatch round: attach new
    /// lanes, start per-lane drains, honor a session-wide drain (every
    /// source running dry at once — resident reads still retire). `true`
    /// if the feed had any command.
    fn apply_commands(&mut self) -> bool {
        let commands = self.feed.poll();
        let any = !commands.is_empty();
        for command in commands {
            match command {
                EngineCommand::AddLane { policy, weight } => {
                    if policy != FaultPolicy::Fail {
                        install_quiet_hook();
                    }
                    self.sched.add_lane(weight);
                    self.lanes.push(DispatchLane {
                        policy,
                        dry: false,
                        detaching: false,
                        live: 0,
                    });
                    self.shared.tallies().push(LaneTally::default());
                    self.send_marker(self.lanes.len() - 1, EmitKind::Attached);
                }
                EngineCommand::DrainLane { lane } => {
                    self.lanes[lane].detaching = true;
                    self.dry_up(lane);
                }
            }
        }
        if self.control.is_draining() {
            for lane in 0..self.lanes.len() {
                self.dry_up(lane);
            }
        }
        any
    }

    /// The next task in schedule order, or `None` when nothing is
    /// dispatchable right now. A lane is available if a new read can be
    /// admitted from it under a fresh permit.
    fn next_task(&mut self) -> Option<Task<C>> {
        while !self.shutdown {
            let (lanes, gate) = (&self.lanes, &self.shared.gate);
            let lane = self
                .sched
                .next_where(|l| !lanes[l].dry && gate.has_room())?;
            if let Some(task) = self.admit(lane) {
                self.outstanding += 1;
                return Some(task);
            }
        }
        None
    }

    /// Pulls `lane`'s next read under a fresh permit and makes it resident;
    /// `None` when the source turned out dry or the gate was opened.
    fn admit(&mut self, lane: usize) -> Option<Task<C>> {
        if !self.shared.gate.acquire() {
            self.shutdown = true;
            return None;
        }
        let Some(read) = self.feed.pull(lane) else {
            self.shared.gate.release();
            self.dry_up(lane);
            return None;
        };
        let tally = &mut self.shared.tallies()[lane];
        tally.inflight += 1;
        tally.high = tally.high.max(tally.inflight);
        self.lanes[lane].live += 1;
        self.next_seq += 1;
        Some(Task {
            token: self.next_seq - 1,
            lane,
            policy: self.lanes[lane].policy,
            read,
        })
    }

    /// Takes back a task and retires its read: with its output, or — on a
    /// contained fault — quarantined through `fault`.
    fn complete(&mut self, msg: WorkerMsg<C, O>) {
        self.outstanding -= 1;
        match msg {
            WorkerMsg::Finished {
                token,
                lane,
                output,
            } => self.retire(token, lane, output),
            WorkerMsg::Faulted {
                task,
                kind,
                message,
            } => {
                let output = (self.fault)(task.lane, task.read, FaultInfo { kind, message });
                self.retire(task.token, task.lane, output);
            }
            WorkerMsg::Panicked => self.shutdown = true,
        }
    }

    /// Retires a read with its output — a result, an ER verdict or a
    /// quarantine alike; its permit goes back when the emitter delivers it.
    fn retire(&mut self, token: u64, lane: usize, output: O) {
        self.lanes[lane].live -= 1;
        self.send(token, lane, EmitKind::Output(output));
        if self.lanes[lane].dry {
            self.dry_up(lane);
        }
    }

    /// Called with nothing dispatchable and no task out; `true` means go
    /// round again, `false` that the engine is done (or tearing down).
    fn settle(&mut self) -> bool {
        if self.shutdown {
            return false;
        }
        if self.sched.all_exhausted() {
            // Every source drained, every read retired. Let the emitter
            // catch up — its sinks run and may enqueue control commands (a
            // sink attaching the next flowcell) — then poll once more
            // before concluding.
            return self.shared.gate.await_idle() && self.apply_commands();
        }
        // No read is running, yet the gate is full: every permit is held by
        // finished reads awaiting in-order emission. Wait for the emitter
        // to free one.
        let freed = self.shared.gate.acquire();
        if freed {
            self.shared.gate.release();
        }
        freed
    }
}

/// The engine's delivering half, on the caller's thread. Reads retire out
/// of order; outputs wait in the map until every earlier-admitted read has
/// been emitted. Every read holds its permit to this point, so the map
/// never outgrows the gate's limit (plus lane markers).
struct Emitter<'e, O, G> {
    shared: &'e Shared,
    pending: BTreeMap<u64, EmitMsg<O>>,
    next_emit: u64,
    emit: G,
}

impl<O, G: FnMut(usize, LaneEvent<O>)> Emitter<'_, O, G> {
    fn accept(&mut self, msg: EmitMsg<O>) {
        self.pending.insert(msg.seq, msg);
        while let Some(EmitMsg { lane, kind, .. }) = self.pending.remove(&self.next_emit) {
            self.next_emit += 1;
            match kind {
                EmitKind::Output(output) => {
                    (self.emit)(lane, LaneEvent::Output(output));
                    self.shared.tallies()[lane].inflight -= 1;
                    self.shared.gate.release();
                }
                EmitKind::Attached => (self.emit)(lane, LaneEvent::Attached),
                EmitKind::Detached => {
                    // The lane's last output was emitted above (lower
                    // seq): its stats are final.
                    let stats = self.shared.tallies()[lane].stats();
                    (self.emit)(lane, LaneEvent::Detached(stats));
                }
            }
        }
    }
}

/// The one execution core behind every driver, in three named parts. A
/// [`Dispatcher`] admits reads from `feed`, lane by lane, under the gate —
/// at most [`EngineConfig::in_flight_limit`] are resident, each from its
/// pull to its emission — and consults `cfg.schedule` for the lane of every
/// admission. [`run_task`] runs a task: one call of `run`, which takes the
/// read to its output. An [`Emitter`] calls `emit` with the outputs **in
/// global admission order** (which makes each lane's emission order its own
/// pull order).
///
/// `cfg.workers` selects how they are driven. With one worker the caller's
/// thread is all three in turn — nothing is spawned, no channel exists, one
/// read is resident, and each output is emitted before the next pull: the
/// reference execution. With more, the same dispatcher runs on a thread of
/// its own, feeding up to `workers` lazily spawned [`worker_loop`]s (each
/// with its own state from `worker_state`), and the same emitter drains a
/// channel on the caller's thread.
///
/// A panic in a task is *contained* when the lane's [`FaultPolicy`] is not
/// `Fail`: the read survives the unwind, the dispatcher retires it through
/// `fault` as a quarantined output, and the run keeps going. Under `Fail` —
/// and for panics outside tasks (source, sink) — the engine tears the
/// pipeline down (gate opened, channels closed) and propagates rather than
/// deadlocking; already-finished earlier items may still be emitted first.
///
/// `cfg.control` is the cooperative drain switch: once `drain()` is
/// observed, no new reads are pulled, resident reads run to their
/// verdicts, and the engine returns normally. The rest of the control
/// plane arrives through `feed.poll()`: lanes are added — all of them, the
/// ones the run starts with included ([`EngineCommand::AddLane`], announced
/// through the in-order [`LaneEvent::Attached`] marker) — and drained
/// individually ([`EngineCommand::DrainLane`], concluded by the
/// in-order [`LaneEvent::Detached`] marker carrying the lane's stats).
pub(crate) fn session_engine<C, O, S, B, L, F, Q, G>(
    cfg: EngineConfig<'_>,
    worker_state: B,
    feed: L,
    run: F,
    fault: Q,
    emit: G,
) -> EngineStats
where
    C: Send,
    O: Send,
    B: Fn() -> S + Sync,
    L: LaneFeed<C>,
    F: Fn(&mut S, usize, &mut C) -> O + Sync,
    Q: FnMut(usize, C, FaultInfo) -> O + Send,
    G: FnMut(usize, LaneEvent<O>),
{
    let shared = Shared {
        gate: FlowGate::new(cfg.in_flight_limit()),
        tallies: Mutex::new(Vec::new()),
    };
    let mut emitter = Emitter {
        shared: &shared,
        pending: BTreeMap::new(),
        next_emit: 0,
        emit,
    };
    if cfg.workers == 1 {
        // The caller's thread is dispatcher, worker and emitter in turn.
        let out = |msg| {
            emitter.accept(msg);
            true
        };
        let mut dispatcher = Dispatcher::new(&cfg, &shared, feed, fault, out);
        let mut state = worker_state();
        loop {
            dispatcher.apply_commands();
            match dispatcher.next_task() {
                Some(task) => match run_task(&run, &mut state, task) {
                    Ok(msg) => dispatcher.complete(msg),
                    Err(panic) => std::panic::resume_unwind(panic),
                },
                None if dispatcher.settle() => {}
                None => break,
            }
        }
    } else {
        // The channels are unbounded; the gate alone bounds what can be in
        // them (≤ limit reads exist, each with at most one task or emit
        // message outstanding).
        let (emit_tx, emit_rx) = mpsc::channel();
        let out = move |msg| emit_tx.send(msg).is_ok();
        let mut dispatcher = Dispatcher::new(&cfg, &shared, feed, fault, out);
        let (task_tx, task_rx) = mpsc::channel();
        let task_rx = &Mutex::new(task_rx);
        let (msg_tx, msg_rx) = mpsc::channel();
        let workers = cfg.workers;
        let (worker_state, run) = (&worker_state, &run);
        std::thread::scope(|scope| {
            // Opening the gate after the emit loop is harmless (the
            // dispatcher has exited); opening it while a sink's or the
            // pool's panic unwinds releases the dispatcher instead of
            // deadlocking the scope join.
            let _shutdown = OnDrop(|| shared.gate.open());
            scope.spawn(move || {
                let mut spawned = 0usize;
                loop {
                    dispatcher.apply_commands();
                    // Dispatch everything dispatchable, growing the pool by
                    // one worker per concurrently outstanding read reached.
                    while let Some(task) = dispatcher.next_task() {
                        if dispatcher.outstanding > spawned && spawned < workers {
                            spawned += 1;
                            let results = msg_tx.clone();
                            scope.spawn(move || worker_loop(run, worker_state(), task_rx, results));
                        }
                        if task_tx.send(task).is_err() {
                            dispatcher.shutdown = true; // workers gone
                        }
                    }
                    if dispatcher.shutdown {
                        break;
                    }
                    if dispatcher.outstanding == 0 {
                        if dispatcher.settle() {
                            continue;
                        }
                        break;
                    }
                    // Wait for a worker to hand a read back.
                    match msg_rx.recv() {
                        Ok(msg) => dispatcher.complete(msg),
                        Err(_) => break,
                    }
                }
                // `task_tx`, `msg_rx` and the dispatcher's emit sender drop
                // here: workers and the emit loop wind down with it.
            });
            for msg in emit_rx.iter() {
                emitter.accept(msg);
            }
        });
    }
    drop(emitter);
    shared.into_stats()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{ErMode, PipelineRun};
    use genpip_datasets::{DatasetProfile, SimulatedDataset, StreamingSimulator};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn dataset() -> SimulatedDataset {
        DatasetProfile::ecoli().scaled(0.03).generate()
    }

    fn tiny_session<'a>() -> Session<'a> {
        let profile = DatasetProfile::ecoli().scaled(0.03);
        Session::new(GenPipConfig::for_dataset(&profile))
            .source("a", StreamingSimulator::new(&profile))
    }

    #[test]
    fn zero_queue_capacity_is_rejected() {
        let err = tiny_session()
            .options(StreamOptions {
                queue_capacity: 0,
                ..StreamOptions::default()
            })
            .run()
            .unwrap_err();
        assert_eq!(err, SessionError::ZeroQueueCapacity);
    }

    #[test]
    fn zero_checkpoint_interval_is_rejected() {
        let err = tiny_session().checkpoint(0, |_| {}).run().unwrap_err();
        assert_eq!(err, SessionError::ZeroCheckpointInterval);
    }

    #[test]
    fn checkpoints_cut_consistent_prefixes() {
        let profile = DatasetProfile::ecoli().scaled(0.03);
        let cuts: Rc<RefCell<Vec<SessionCheckpoint>>> = Rc::new(RefCell::new(Vec::new()));
        let sink_cuts = Rc::clone(&cuts);
        let report = Session::new(GenPipConfig::for_dataset(&profile))
            .source("a", StreamingSimulator::new(&profile))
            .checkpoint(5, move |cut| sink_cuts.borrow_mut().push(cut.clone()))
            .run()
            .expect("valid session");
        let cuts = cuts.borrow();
        let (finals, mids): (Vec<_>, Vec<_>) = cuts.iter().partition(|c| c.complete);
        assert_eq!(finals.len(), 1, "exactly one final checkpoint");
        assert!(report.outcomes.reads_emitted / 5 >= 2, "cadence exercised");
        assert_eq!(mids.len(), report.outcomes.reads_emitted / 5);
        let mut last = 0;
        for (i, cut) in mids.iter().enumerate() {
            assert_eq!(cut.outcomes.reads_emitted, 5 * (i + 1));
            assert_eq!(cut.sources.len(), 1);
            assert_eq!(cut.sources[0].id.as_str(), "a");
            // Single source: the aggregate is the source's own prefix.
            assert_eq!(cut.sources[0].outcomes, cut.outcomes);
            assert!(cut.outcomes.reads_emitted > last);
            last = cut.outcomes.reads_emitted;
        }
        let fin = finals[0];
        assert_eq!(fin.outcomes, report.outcomes);
        assert!(fin.sources[0].done);
    }

    #[test]
    fn drain_emits_a_final_complete_checkpoint() {
        let profile = DatasetProfile::ecoli().scaled(0.03);
        let control = SessionControl::new();
        let drainer = control.clone();
        let seen = Rc::new(Cell::new(0usize));
        let sink_seen = Rc::clone(&seen);
        let cuts: Rc<RefCell<Vec<SessionCheckpoint>>> = Rc::new(RefCell::new(Vec::new()));
        let sink_cuts = Rc::clone(&cuts);
        // The checkpoint sink calls back into the control plane: it runs
        // with no session lock held, so neither call may deadlock.
        let reentrant = control.clone();
        let refused = Rc::new(RefCell::new(None));
        let sink_refused = Rc::clone(&refused);
        let twin = profile.clone();
        let report = Session::new(GenPipConfig::for_dataset(&profile))
            .source("a", StreamingSimulator::new(&profile))
            .sink("a", move |event| {
                if matches!(event, StreamEvent::Read(_) | StreamEvent::Failed { .. }) {
                    sink_seen.set(sink_seen.get() + 1);
                    if sink_seen.get() == 7 {
                        drainer.drain();
                    }
                }
            })
            .checkpoint(3, move |cut| {
                let stats = reentrant.stats();
                assert_eq!(stats.live, !cut.complete);
                assert_eq!(stats.sources[0].outcomes, cut.sources[0].outcomes);
                if sink_cuts.borrow().is_empty() {
                    let pending = reentrant.attach("a", StreamingSimulator::new(&twin));
                    *sink_refused.borrow_mut() = Some(pending);
                }
                sink_cuts.borrow_mut().push(cut.clone());
            })
            .run_with_control(&control)
            .expect("valid session");
        let refused = refused.borrow_mut().take().expect("first cut attached");
        assert_eq!(
            refused.wait(),
            Err(SessionError::DuplicateSource("a".into()))
        );
        assert!(
            report.outcomes.reads_emitted < DatasetProfile::ecoli().scaled(0.03).n_reads,
            "drain cut the run short"
        );
        let cuts = cuts.borrow();
        let fin = cuts.last().expect("final checkpoint");
        assert!(fin.complete);
        assert_eq!(fin.outcomes, report.outcomes);
        // The drained prefix is exactly what the sinks saw.
        assert_eq!(fin.outcomes.reads_emitted, seen.get());
    }

    #[test]
    fn zero_workers_is_rejected() {
        let profile = DatasetProfile::ecoli().scaled(0.03);
        let config = GenPipConfig::for_dataset(&profile).with_parallelism(Parallelism::Threads(0));
        let err = Session::new(config)
            .source("a", StreamingSimulator::new(&profile))
            .run()
            .unwrap_err();
        assert_eq!(err, SessionError::ZeroWorkers);
    }

    #[test]
    fn empty_source_set_is_rejected() {
        let profile = DatasetProfile::ecoli().scaled(0.03);
        let err = Session::new(GenPipConfig::for_dataset(&profile))
            .run()
            .unwrap_err();
        assert_eq!(err, SessionError::NoSources);
    }

    #[test]
    fn duplicate_source_ids_are_rejected() {
        let profile = DatasetProfile::ecoli().scaled(0.03);
        let err = tiny_session()
            .source("a", StreamingSimulator::new(&profile))
            .run()
            .unwrap_err();
        assert_eq!(err, SessionError::DuplicateSource("a".into()));
    }

    #[test]
    fn sink_for_unknown_source_is_rejected() {
        let err = tiny_session().sink("ghost", |_| {}).run().unwrap_err();
        assert_eq!(err, SessionError::SinkWithoutSource("ghost".into()));
    }

    #[test]
    fn sink_may_be_attached_before_its_source() {
        let profile = DatasetProfile::ecoli().scaled(0.03);
        let mut seen = 0usize;
        let report = Session::new(GenPipConfig::for_dataset(&profile))
            .sink("late", |event| {
                if let StreamEvent::Read(_) = event {
                    seen += 1;
                }
            })
            .source("late", StreamingSimulator::new(&profile))
            .run()
            .expect("sink-before-source is a valid order");
        assert_eq!(seen, profile.n_reads);
        assert_eq!(report.outcomes.reads_emitted, profile.n_reads);
    }

    #[test]
    fn priority_weight_mismatches_are_rejected() {
        let err = tiny_session()
            .schedule(Schedule::Priority(vec![1, 2]))
            .run()
            .unwrap_err();
        assert_eq!(
            err,
            SessionError::PriorityWeightCount {
                sources: 1,
                weights: 2
            }
        );
        let err = tiny_session()
            .schedule(Schedule::Priority(vec![0]))
            .run()
            .unwrap_err();
        assert_eq!(err, SessionError::ZeroPriorityWeight("a".into()));
    }

    #[test]
    fn incompatible_per_source_configs_are_rejected() {
        let profile = DatasetProfile::ecoli().scaled(0.03);
        let session_config = GenPipConfig::for_dataset(&profile);

        let mut bad = GenPipConfig::for_dataset(&profile);
        bad.n_qs = 0;
        let err = Session::new(session_config.clone())
            .source_with_config("b", StreamingSimulator::new(&profile), bad)
            .run()
            .unwrap_err();
        assert_eq!(
            err,
            SessionError::IncompatibleSourceConfig {
                id: "b".into(),
                issue: SourceConfigIssue::ZeroQsrSamples
            }
        );

        let mut bad = GenPipConfig::for_dataset(&profile);
        bad.chunk_bases = 0;
        let err = Session::new(session_config.clone())
            .source_with_config("b", StreamingSimulator::new(&profile), bad)
            .run()
            .unwrap_err();
        assert_eq!(
            err,
            SessionError::IncompatibleSourceConfig {
                id: "b".into(),
                issue: SourceConfigIssue::ZeroChunkBases
            }
        );

        let mut bad = GenPipConfig::for_dataset(&profile);
        bad.mapper.k = usize::MAX;
        let err = Session::new(session_config)
            .source_with_config("b", StreamingSimulator::new(&profile), bad)
            .run()
            .unwrap_err();
        assert!(matches!(
            err,
            SessionError::IncompatibleSourceConfig {
                issue: SourceConfigIssue::KmerExceedsReference { .. },
                ..
            }
        ));
    }

    #[test]
    fn duplicate_panel_reference_names_are_rejected_up_front() {
        // A pan-genome panel that repeats the source's own reference name
        // (or repeats an extra) would panic inside a worker thread when
        // `ReferenceSet::build` runs; validate() must catch it first.
        use genpip_genomics::GenomeBuilder;

        let profile = DatasetProfile::ecoli().scaled(0.03);
        let clash = Arc::new(GenomeBuilder::new(512).seed(7).name(profile.name).build());
        let config = GenPipConfig::for_dataset(&profile).with_extra_references(vec![clash]);
        let err = Session::new(config)
            .source("a", StreamingSimulator::new(&profile))
            .run()
            .unwrap_err();
        assert_eq!(
            err,
            SessionError::IncompatibleSourceConfig {
                id: "a".into(),
                issue: SourceConfigIssue::DuplicateReferenceName {
                    name: profile.name.to_string(),
                },
            }
        );

        let twin_a = Arc::new(GenomeBuilder::new(512).seed(8).name("panel").build());
        let twin_b = Arc::new(GenomeBuilder::new(768).seed(9).name("panel").build());
        let config =
            GenPipConfig::for_dataset(&profile).with_extra_references(vec![twin_a, twin_b]);
        let err = Session::new(config)
            .source("a", StreamingSimulator::new(&profile))
            .run()
            .unwrap_err();
        assert_eq!(
            err,
            SessionError::IncompatibleSourceConfig {
                id: "a".into(),
                issue: SourceConfigIssue::DuplicateReferenceName {
                    name: "panel".to_string(),
                },
            }
        );

        // Distinct names pass validation and the session runs.
        let extra = Arc::new(GenomeBuilder::new(512).seed(8).name("panel").build());
        let config = GenPipConfig::for_dataset(&profile).with_extra_references(vec![extra]);
        let report = Session::new(config)
            .source("a", StreamingSimulator::new(&profile))
            .run()
            .expect("unique panel names are valid");
        assert_eq!(report.outcomes.reads_emitted, profile.n_reads);
    }

    #[test]
    fn qsr_free_flows_accept_zero_qsr_samples() {
        // `n_qs` is only consulted by QSR, so flows that never run QSR must
        // keep accepting configs with n_qs = 0.
        let profile = DatasetProfile::ecoli().scaled(0.03);
        let mut config = GenPipConfig::for_dataset(&profile);
        config.n_qs = 0;
        for flow in [Flow::Conventional, Flow::GenPip(ErMode::None)] {
            let report = Session::new(config.clone())
                .flow(flow)
                .source("a", StreamingSimulator::new(&profile))
                .run()
                .expect("n_qs is unused by this flow");
            assert_eq!(report.outcomes.reads_emitted, profile.n_reads, "{flow:?}");
        }
        // …while QSR-running flows still reject it up front.
        let err = Session::new(config)
            .flow(Flow::GenPip(ErMode::QsrOnly))
            .source("a", StreamingSimulator::new(&profile))
            .run()
            .unwrap_err();
        assert_eq!(
            err,
            SessionError::IncompatibleSourceConfig {
                id: "a".into(),
                issue: SourceConfigIssue::ZeroQsrSamples
            }
        );
    }

    #[test]
    fn session_errors_display_their_cause() {
        let messages = [
            SessionError::ZeroQueueCapacity.to_string(),
            SessionError::ZeroWorkers.to_string(),
            SessionError::NoSources.to_string(),
            SessionError::DuplicateSource("x".into()).to_string(),
            SessionError::SinkWithoutSource("x".into()).to_string(),
            SessionError::PriorityWeightCount {
                sources: 2,
                weights: 1,
            }
            .to_string(),
            SessionError::ZeroPriorityWeight("x".into()).to_string(),
            SessionError::IncompatibleSourceConfig {
                id: "x".into(),
                issue: SourceConfigIssue::ZeroChunkBases,
            }
            .to_string(),
            SessionError::IncompatibleSourceConfig {
                id: "x".into(),
                issue: SourceConfigIssue::NonPositiveDwell,
            }
            .to_string(),
            SessionError::IncompatibleSourceConfig {
                id: "x".into(),
                issue: SourceConfigIssue::KmerExceedsReference {
                    k: 99,
                    reference_len: 10,
                },
            }
            .to_string(),
            SessionError::IncompatibleSourceConfig {
                id: "x".into(),
                issue: SourceConfigIssue::DuplicateReferenceName {
                    name: "panel".into(),
                },
            }
            .to_string(),
            SessionError::UnknownSource("x".into()).to_string(),
            SessionError::TooManySources { limit: 4 }.to_string(),
            SessionError::SessionClosed.to_string(),
        ];
        for m in &messages {
            assert!(!m.is_empty());
        }
    }

    #[test]
    fn single_source_session_matches_the_batch_driver() {
        let d = dataset();
        let config =
            GenPipConfig::for_dataset(&d.profile).with_parallelism(Parallelism::Threads(2));
        let batch = PipelineRun::collect(&d, &config, Flow::GenPip(ErMode::Full));
        let mut reads = Vec::new();
        let report = Session::new(config)
            .flow(Flow::GenPip(ErMode::Full))
            .source("only", d.stream())
            .sink("only", |event| {
                if let StreamEvent::Read(run) = event {
                    reads.push(run);
                }
            })
            .run()
            .expect("valid session");
        assert_eq!(reads, batch.reads);
        assert_eq!(report.totals, batch.totals());
        assert_eq!(report.sources.len(), 1);
        assert_eq!(report.sources[0].summary.totals, batch.totals());
        assert_eq!(
            report.source("only").expect("registered").summary.outcomes,
            report.outcomes
        );
        assert!(report.max_in_flight <= report.in_flight_limit);
    }

    #[test]
    fn sinkless_sources_still_count() {
        let d = dataset();
        let config = GenPipConfig::for_dataset(&d.profile);
        let report = Session::new(config)
            .source("quiet", d.stream())
            .run()
            .expect("valid session");
        assert_eq!(report.outcomes.reads_emitted, d.reads.len());
    }

    /// A control-plane-less feed: one lane, announced at the first poll like
    /// every lane is, pulled by a plain closure.
    struct OneLane<F> {
        policy: Option<FaultPolicy>,
        pull: F,
    }

    impl<C, F: FnMut() -> Option<C> + Send> LaneFeed<C> for OneLane<F> {
        fn pull(&mut self, _lane: usize) -> Option<C> {
            (self.pull)()
        }

        fn poll(&mut self) -> Vec<EngineCommand> {
            let lane = |policy| EngineCommand::AddLane { policy, weight: 1 };
            self.policy.take().map(lane).into_iter().collect()
        }
    }

    #[test]
    fn worker_panic_propagates_instead_of_deadlocking() {
        // Run the engine with a task function that panics partway through,
        // under a watchdog: a regression back to the deadlock (stranded
        // gate permit → dispatcher and emit loop blocked forever) fails the
        // test at the timeout instead of hanging the suite.
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let d = dataset();
            let config =
                GenPipConfig::for_dataset(&d.profile).with_parallelism(Parallelism::Threads(2));
            let ctx = Arc::new(RunContext::from_source(&d.stream(), &config));
            let mut pending = d.reads.iter();
            let control = SessionControl::new();
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                session_engine(
                    EngineConfig {
                        workers: 2,
                        queue_capacity: 1,
                        schedule: &Schedule::Sequential,
                        control: &control,
                    },
                    || WorkerScratch::new(&ctx),
                    OneLane {
                        policy: Some(FaultPolicy::Fail),
                        pull: || Some(ReadTask::new(pending.next()?.clone(), Arc::clone(&ctx))),
                    },
                    |scratch, _lane, task: &mut ReadTask| {
                        assert!(task.read.id != 3, "injected failure on read 3");
                        task.run(Flow::GenPip(ErMode::Full), scratch)
                    },
                    |_lane, _task, _info| -> crate::pipeline::ReadRun {
                        unreachable!("FaultPolicy::Fail never quarantines")
                    },
                    |_, _| {},
                )
            }));
            let _ = done_tx.send(result.is_err());
        });
        match done_rx.recv_timeout(std::time::Duration::from_secs(120)) {
            Ok(panicked) => assert!(panicked, "engine swallowed the worker panic"),
            Err(_) => panic!("engine deadlocked on a worker panic"),
        }
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum ToyOutput {
        Done,
        /// Finished early (an ER verdict).
        Cancelled,
        /// Panicked, and was contained.
        Quarantined,
    }

    /// How a toy read — allocation-free, just its index in its lane — must
    /// come out.
    fn scripted(index: u32) -> ToyOutput {
        match index % 13 {
            7 => ToyOutput::Quarantined,
            3 => ToyOutput::Cancelled,
            _ => ToyOutput::Done,
        }
    }

    /// Runs a toy read: the scripted output, a quarantine being a panic.
    fn toy_run(index: u32) -> ToyOutput {
        match scripted(index) {
            ToyOutput::Quarantined => panic!("toy fault"),
            output => output,
        }
    }

    /// Three lanes at the first poll; lane 3 attaches once 300 reads were
    /// pulled overall, and lane 1 — which never runs dry on its own — is
    /// drained once it has pulled [`DRAIN_LANE_1_AT`]. `len` and `pulled`
    /// grow a lane per `AddLane`.
    struct ToyFeed<'a> {
        len: Vec<u32>,
        pulled: &'a Mutex<Vec<u32>>,
        drained: bool,
    }

    const DRAIN_LANE_1_AT: u32 = 700;
    const TOY_WEIGHTS: [u32; 4] = [3, 1, 2, 2];
    const TOY_LENGTHS: [u32; 4] = [1200, u32::MAX, 900, 600];

    impl LaneFeed<u32> for ToyFeed<'_> {
        fn pull(&mut self, lane: usize) -> Option<u32> {
            let mut pulled = self.pulled.lock().unwrap();
            if pulled[lane] == self.len[lane] {
                return None;
            }
            pulled[lane] += 1;
            Some(pulled[lane] - 1)
        }

        fn poll(&mut self) -> Vec<EngineCommand> {
            let mut pulled = self.pulled.lock().unwrap();
            let mut commands = Vec::new();
            let due = match pulled.len() {
                0 => 3,
                3 if pulled.iter().sum::<u32>() >= 300 => 4,
                lanes => lanes,
            };
            for lane in pulled.len()..due {
                self.len.push(TOY_LENGTHS[lane]);
                pulled.push(0);
                commands.push(EngineCommand::AddLane {
                    policy: FaultPolicy::Quarantine,
                    weight: TOY_WEIGHTS[lane],
                });
            }
            if !self.drained && pulled[1] >= DRAIN_LANE_1_AT {
                self.drained = true;
                commands.push(EngineCommand::DrainLane { lane: 1 });
            }
            commands
        }
    }

    #[derive(Debug, PartialEq)]
    enum ToyEvent {
        Attached,
        Output(u32, ToyOutput),
        Detached,
    }

    /// Drives the generic core over the toy lanes with `workers` workers,
    /// checks every per-driver invariant, and returns each lane's outputs.
    fn drive_toys(workers: usize) -> Vec<Vec<ToyOutput>> {
        let caller = std::thread::current().id();
        let pulled = Mutex::new(Vec::new());
        let control = SessionControl::new();
        let cfg = EngineConfig {
            workers,
            queue_capacity: 4,
            schedule: &Schedule::Priority(Vec::new()),
            control: &control,
        };
        let limit = cfg.in_flight_limit();
        let mut events: Vec<(usize, ToyEvent)> = Vec::new();
        // Pulled-but-unemitted reads, sampled at every emission (the
        // read's own permit still held) — the outside view of the gate.
        let (mut emitted, mut unemitted_high) = (0usize, 0usize);
        let stats = session_engine(
            cfg,
            || (),
            ToyFeed {
                len: Vec::new(),
                pulled: &pulled,
                drained: false,
            },
            |_, _lane, index: &mut u32| {
                if workers == 1 {
                    assert_eq!(std::thread::current().id(), caller, "run left the caller");
                }
                (*index, toy_run(*index))
            },
            |_lane, index, _info: FaultInfo| (index, ToyOutput::Quarantined),
            |lane, event| {
                assert_eq!(std::thread::current().id(), caller, "emit left the caller");
                if matches!(event, LaneEvent::Output(_)) {
                    let pulls = pulled.lock().unwrap().iter().sum::<u32>() as usize;
                    unemitted_high = unemitted_high.max(pulls - emitted);
                    emitted += 1;
                }
                events.push((
                    lane,
                    match event {
                        LaneEvent::Attached => ToyEvent::Attached,
                        LaneEvent::Output((index, output)) => ToyEvent::Output(index, output),
                        LaneEvent::Detached(_) => ToyEvent::Detached,
                    },
                ));
            },
        );
        let label = format!("workers = {workers}");
        // Permits run from pull to emission on both drivers — cancelled and
        // quarantined reads included — so nothing waits outside the bound.
        assert!(stats.max_in_flight <= limit, "{label}");
        assert!(unemitted_high <= limit, "{label}: {unemitted_high}");
        if workers == 1 {
            assert_eq!(limit, 1, "{label}");
        }

        let pulled = pulled.into_inner().unwrap();
        assert_eq!(pulled.len(), 4, "{label}: lane 3 attached");
        assert!(
            pulled[1] >= DRAIN_LANE_1_AT && pulled[1] < u32::MAX,
            "{label}"
        );
        let mut outputs: Vec<Vec<ToyOutput>> = vec![Vec::new(); 4];
        for lane in 0..4 {
            let of_lane: Vec<&ToyEvent> = events
                .iter()
                .filter(|(l, _)| *l == lane)
                .map(|(_, e)| e)
                .collect();
            for (i, event) in of_lane.iter().enumerate() {
                // Markers bracket the lane's outputs: Attached first —
                // every lane's, startup or live — Detached (lane 1 only)
                // last.
                match event {
                    ToyEvent::Attached => assert_eq!(i, 0, "{label}: lane {lane}"),
                    ToyEvent::Detached => {
                        assert_eq!((lane, i), (1, of_lane.len() - 1), "{label}");
                    }
                    ToyEvent::Output(index, output) => {
                        // In pull order, each exactly once, as scripted.
                        assert_eq!(*index as usize, outputs[lane].len(), "{label}: lane {lane}");
                        assert_eq!(
                            *output,
                            scripted(*index),
                            "{label}: lane {lane} read {index}"
                        );
                        outputs[lane].push(*output);
                    }
                }
            }
            assert_eq!(
                of_lane.first(),
                Some(&&ToyEvent::Attached),
                "{label}: lane {lane}"
            );
            assert_eq!(
                matches!(of_lane.last(), Some(ToyEvent::Detached)),
                lane == 1,
                "{label}"
            );
            assert_eq!(
                outputs[lane].len(),
                pulled[lane] as usize,
                "{label}: lane {lane}"
            );
        }
        outputs
    }

    #[test]
    fn toy_chains_agree_across_both_drivers() {
        let serial = drive_toys(1);
        let pooled = drive_toys(3);
        assert!(serial.iter().map(Vec::len).sum::<usize>() > 3000);
        // Serial polls before every pull, so lane 1 stops exactly at its
        // drain point; the pool dispatches a round per poll and may pull a
        // few more. Where both pulled, they agree.
        assert_eq!(serial[1].len(), DRAIN_LANE_1_AT as usize);
        assert_eq!(serial[1], pooled[1][..serial[1].len()]);
        for lane in [0, 2, 3] {
            assert_eq!(serial[lane], pooled[lane], "lane {lane}");
        }
    }

    /// A source that records which threads pulled from it.
    struct PullSpy<S> {
        inner: S,
        pullers: Arc<Mutex<Vec<std::thread::ThreadId>>>,
    }

    impl<S: ReadSource> ReadSource for PullSpy<S> {
        fn reference(&self) -> &genpip_genomics::Genome {
            self.inner.reference()
        }
        fn pore_model(&self) -> &genpip_signal::PoreModel {
            self.inner.pore_model()
        }
        fn mean_dwell(&self) -> f64 {
            self.inner.mean_dwell()
        }
        fn next_read(&mut self) -> Option<genpip_datasets::SimulatedRead> {
            self.pullers
                .lock()
                .unwrap()
                .push(std::thread::current().id());
            self.inner.next_read()
        }
    }

    #[test]
    fn serial_sessions_run_on_the_calling_thread() {
        // With one worker nothing is spawned: pulls, sinks and checkpoint
        // callbacks all happen on the caller (task runs are pinned by the
        // toy test), and sinks may hold non-`Send` state.
        let profile = DatasetProfile::ecoli().scaled(0.03);
        let caller = std::thread::current().id();
        let pullers = Arc::new(Mutex::new(Vec::new()));
        let sink_threads = Rc::new(RefCell::new(Vec::new()));
        let cut_threads = Rc::new(RefCell::new(Vec::new()));
        let (sink_log, cut_log) = (Rc::clone(&sink_threads), Rc::clone(&cut_threads));
        let config = GenPipConfig::for_dataset(&profile).with_parallelism(Parallelism::Serial);
        let source = PullSpy {
            inner: StreamingSimulator::new(&profile),
            pullers: Arc::clone(&pullers),
        };
        let report = Session::new(config)
            .source("a", source)
            .sink("a", move |_| {
                sink_log.borrow_mut().push(std::thread::current().id())
            })
            .checkpoint(4, move |_| {
                cut_log.borrow_mut().push(std::thread::current().id())
            })
            .run()
            .expect("valid session");
        assert_eq!(report.in_flight_limit, 1);
        let pullers = pullers.lock().unwrap();
        assert_eq!(pullers.len(), profile.n_reads + 1);
        assert!(sink_threads.borrow().len() >= profile.n_reads);
        assert!(cut_threads.borrow().len() > profile.n_reads / 4);
        let all = pullers
            .iter()
            .chain(sink_threads.borrow().iter())
            .chain(cut_threads.borrow().iter())
            .all(|id| *id == caller);
        assert!(all, "a serial session left the calling thread");
    }

    #[test]
    fn a_torn_down_session_still_closes_its_control() {
        // The sink queues a detach, then panics. The unwinding session must
        // still refuse the queued command, or its waiter would block forever.
        let profile = DatasetProfile::ecoli().scaled(0.03);
        let control = SessionControl::new();
        let handle: RefCell<Option<PendingDetach>> = RefCell::new(None);
        let config = GenPipConfig::for_dataset(&profile).with_parallelism(Parallelism::Serial);
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Session::new(config)
                .source("a", StreamingSimulator::new(&profile))
                .sink("a", |_| {
                    *handle.borrow_mut() = Some(control.detach("a"));
                    panic!("sink failed");
                })
                .run_with_control(&control)
        }));
        assert!(run.is_err(), "the sink's panic propagates");
        let handle = handle.into_inner().expect("the sink ran");
        assert_eq!(handle.try_result(), Some(Err(SessionError::SessionClosed)));
        assert!(!control.stats().live);
    }
}
