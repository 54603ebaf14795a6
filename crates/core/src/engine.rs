//! The `Session` engine: one execution core serving any number of read
//! sources, scheduling **chunks**, not reads.
//!
//! Everything that runs reads — [`crate::PipelineRun::collect`], the CLI,
//! the examples, and the bench harness — goes through the [`Session`] built
//! here. A session
//! is *configured*, not called: you register named sources, attach
//! per-source sinks, pick a [`Flow`] and a [`Schedule`], and run. GenPIP's
//! end-to-end gain comes from tight integration at **chunk granularity**
//! (paper §3): the session brings that granularity to the execution core
//! itself, interleaving many concurrent reads' chunks over one worker pool.
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
//! println!("{} reads total, p99 residency {} chunk-units",
//!          report.outcomes.reads_emitted, report.latency.p99);
//! ```
//!
//! # Execution model
//!
//! ```text
//!              read = chain of chunk tasks (decoder carry forces order)
//!  source "a" ─┐  admit ▼ (gate ≤ Q+W chains)
//!  source "b" ─┼─▶ [chain chain chain …] ─┐
//!  source "c" ─┘        ▲ park            │ Schedule picks, per chunk task
//!                       │                 ▼
//!                       └──────────── W workers (spawned lazily)
//!                   ER verdict ╳ cancels the chain's remaining chunks
//!                              │ and frees its permit immediately
//!                              ▼
//!  sink "a"/"b"/"c" ◀── emit in global admission order (per-source = read order)
//! ```
//!
//! A dispatcher thread owns the sources and a pool of **resident chains**
//! — reads whose next chunk may run. For every chunk task it consults the
//! [`Schedule`] to pick a source, then either advances that source's oldest
//! parked chain or admits a new read under a flow-gate permit. Within a
//! read, chunks are strictly sequential (the decoder's
//! [`genpip_basecall::CarryState`] forces it); across reads, chunks
//! interleave freely — chunk *i*'s mapping overlaps chunk *i+1*'s
//! basecalling at the system level, and a long read no longer monopolizes a
//! worker. An early-rejection verdict ends a chain **before its next chunk
//! is scheduled**, and the cancelled read's permit is released at the
//! verdict rather than at emission, so a doomed read stops consuming
//! resources the moment QSR/CMR fires. Worker threads are spawned lazily,
//! one per unit of concurrent chunk work actually reached, up to the
//! configured count.
//!
//! # Guarantees
//!
//! * **Per-source bit-identity** — a source's per-read output in a
//!   multi-source session is bit-identical to running that source alone,
//!   and chunk-granular execution is bit-identical to read-granular
//!   execution ([`Granularity::Read`] steps the same chain to completion
//!   inside one task), for every [`Schedule`], [`crate::Parallelism`],
//!   [`ErMode`], and shard count (`tests/session.rs` and
//!   `tests/chunk_granularity.rs` assert this against the independent
//!   serial oracle in `tests/common`). Scheduling changes latency, never
//!   results.
//! * **Bounded residency** — at most `queue_capacity + workers` read
//!   chains are resident (live decode/chain state), no matter how many
//!   sources are registered ([`SessionReport::max_in_flight`] proves the
//!   bound held). Early-rejected reads leave the bound at their verdict;
//!   only their O(`N_qs` + `N_cm`)-sized results wait for in-order
//!   emission.
//! * **Typed validation** — invalid inputs (zero queue, zero workers, no
//!   sources, duplicate ids, bad priority weights, per-source configs
//!   incompatible with their source's reference or chemistry) fail up
//!   front with a [`SessionError`] instead of deadlocking or panicking
//!   mid-run.
//! * **Fault containment** — under [`crate::FaultPolicy::Quarantine`] or
//!   [`crate::FaultPolicy::Retry`], a chunk task that panics (or trips the
//!   basecaller's signal-integrity check) takes out only its own read: the
//!   chain's remaining chunks are cancelled through the verdict path, its
//!   permit is released, and the read is emitted as
//!   [`StreamEvent::Failed`] in its normal in-order slot. Retries rebuild
//!   the chain from the untouched signal, so a read that succeeds on retry
//!   is bit-identical to one that never faulted. The default
//!   [`crate::FaultPolicy::Fail`] keeps the historical behaviour: any
//!   panic tears the session down promptly. [`Session::run_with_control`]
//!   additionally hands out a [`SessionControl`] whose
//!   [`SessionControl::drain`] stops pulling new reads, finishes every
//!   resident chain, and returns normally — the graceful-shutdown
//!   primitive for long-lived sessions.

use crate::config::{FaultPolicy, GenPipConfig, Parallelism};
use crate::pipeline::{ErMode, ReadChain, ReadRun, RunContext, WorkerScratch, WorkloadTotals};
use crate::scheduler::{Schedule, SchedulerState};
use crate::stream::{
    FaultKind, LatencyStats, ProgressSnapshot, ReadFault, StreamEvent, StreamOptions, StreamSummary,
};
use genpip_datasets::{ReadSource, SourceId};
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, Once, RwLock};

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
    fn er(self) -> Option<ErMode> {
        match self {
            Flow::GenPip(er) => Some(er),
            Flow::Conventional => None,
        }
    }
}

/// The schedulable unit of a [`Session`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Granularity {
    /// Schedule whole reads: every read's chain is stepped to completion
    /// inside one task, and permits are held from pull to emission (an ER
    /// verdict does not release early). The pre-chunk-granular engine's
    /// scheduling, kept for comparison (the kernels bench measures both) —
    /// it runs the very same chain, so output is bit-identical to
    /// [`Granularity::Chunk`] by construction.
    Read,
    /// Schedule chunk tasks: each read is a sequential chain, the
    /// [`Schedule`] applies per chunk pulled, and ER verdicts cancel a
    /// chain's remaining chunks before they are scheduled. The default.
    #[default]
    Chunk,
}

/// A cloneable remote control for a [`Session`] — its **control plane**
/// (see [`Session::run_with_control`]).
///
/// Four verbs:
///
/// * [`SessionControl::attach`] (plus [`SessionControl::attach_with_config`]
///   and the full-spec [`SessionControl::attach_with`]) adds a named source
///   to the *running* session. The source is validated exactly like
///   [`Session::source_with_config`] validates at startup — a typed
///   [`SessionError`] comes back through the returned [`PendingAttach`] —
///   and admission is bounded by [`StreamOptions::max_sources`]. Once
///   accepted, the source joins the schedule and its first read can be
///   admitted immediately.
/// * [`SessionControl::detach`] removes a named source: the session stops
///   pulling from it, its resident chains finish normally (bit-identity is
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
    /// Live per-source progress, updated at every in-order emission.
    stats: SessionStats,
    /// `true` outside a run: enqueue-time refusal with
    /// [`SessionError::SessionClosed`] rather than a command that would
    /// never be polled. A fresh control is *open* so sources can be
    /// attached before the run starts — they are applied at the session's
    /// first poll.
    closed: bool,
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
    id: SourceId,
    source: Box<dyn ReadSource + Send>,
    config: Option<GenPipConfig>,
    sink: Option<AttachedSink>,
    weight: u32,
    target: Option<u64>,
    responder: mpsc::Sender<Result<(), SessionError>>,
}

/// Everything [`SessionControl::attach_with`] can say about a new source
/// beyond its id: a per-source config override (validated like
/// [`Session::source_with_config`]), a sink, a [`Schedule::Priority`]
/// weight, and a [`Schedule::Deadline`] residency target.
#[derive(Default)]
pub struct AttachSpec {
    config: Option<GenPipConfig>,
    sink: Option<AttachedSink>,
    weight: Option<u32>,
    target: Option<u64>,
}

impl AttachSpec {
    /// An empty spec: session-wide config, no sink, priority weight 1, and
    /// (under [`Schedule::Deadline`]) the laxest target already registered.
    pub fn new() -> AttachSpec {
        AttachSpec::default()
    }

    /// Per-source config override, validated against the source's reference
    /// and chemistry exactly like [`Session::source_with_config`].
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

    /// [`Schedule::Deadline`] residency target in chunk-work units.
    /// Rejected with [`SessionError::ZeroDeadlineTarget`] if 0 on a
    /// deadline session; ignored under other schedules.
    pub fn deadline_target(mut self, target: u64) -> AttachSpec {
        self.target = Some(target);
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
/// source's finalized [`StreamSummary`] once its resident chains have
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
    /// config — the live twin of [`Session::source`]. Returns immediately;
    /// the typed verdict arrives through the [`PendingAttach`]. May be
    /// called before the run starts (applied at the session's first poll).
    pub fn attach(
        &self,
        id: impl Into<SourceId>,
        source: impl ReadSource + Send + 'static,
    ) -> PendingAttach {
        self.attach_with(id, source, AttachSpec::new())
    }

    /// Attaches a new source with its own config override — the live twin
    /// of [`Session::source_with_config`], validated identically
    /// ([`SessionError::IncompatibleSourceConfig`] on mismatch).
    pub fn attach_with_config(
        &self,
        id: impl Into<SourceId>,
        source: impl ReadSource + Send + 'static,
        config: GenPipConfig,
    ) -> PendingAttach {
        self.attach_with(id, source, AttachSpec::new().config(config))
    }

    /// Attaches a new source with a full [`AttachSpec`] (config override,
    /// sink, priority weight, deadline target).
    pub fn attach_with(
        &self,
        id: impl Into<SourceId>,
        source: impl ReadSource + Send + 'static,
        spec: AttachSpec,
    ) -> PendingAttach {
        let (tx, rx) = mpsc::channel();
        let request = AttachRequest {
            id: id.into(),
            source: Box::new(source),
            config: spec.config,
            sink: spec.sink,
            weight: spec.weight.unwrap_or(1),
            target: spec.target,
            responder: tx,
        };
        let mut inner = self.state.inner.lock().expect("control poisoned");
        if inner.closed {
            let _ = request.responder.send(Err(SessionError::SessionClosed));
        } else {
            inner.commands.push_back(Command::Attach(Box::new(request)));
        }
        PendingAttach { rx }
    }

    /// Detaches the source registered under `id`: stop pulling from it, let
    /// its resident chains finish and emit, then deliver its finalized
    /// [`StreamSummary`] through the [`PendingDetach`]. Unknown ids — and
    /// ids already detached or already being detached — are refused with
    /// [`SessionError::UnknownSource`].
    pub fn detach(&self, id: impl Into<SourceId>) -> PendingDetach {
        let (tx, rx) = mpsc::channel();
        let id = id.into();
        let mut inner = self.state.inner.lock().expect("control poisoned");
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
        let inner = self.state.inner.lock().expect("control poisoned");
        let mut stats = inner.stats.clone();
        stats.draining = self.is_draining();
        stats
    }
}

impl ControlState {
    /// Marks the control live for a starting run and seeds its stats with
    /// the builder-registered sources. The draining flag is deliberately
    /// *not* reset: a drain requested before the run starts is honored by
    /// draining immediately.
    fn begin_run(&self, ids: &[SourceId]) {
        let mut inner = self.inner.lock().expect("control poisoned");
        inner.closed = false;
        inner.stats = SessionStats {
            sources: ids
                .iter()
                .map(|id| SourceStats {
                    id: id.clone(),
                    outcomes: ProgressSnapshot::default(),
                    detached: false,
                })
                .collect(),
            draining: false,
            live: true,
        };
    }

    /// Closes the control at the end of a run: marks it not-live and
    /// refuses every command still queued (enqueued after the session's
    /// last poll) with [`SessionError::SessionClosed`].
    fn close(&self) {
        let mut inner = self.inner.lock().expect("control poisoned");
        inner.closed = true;
        inner.stats.live = false;
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

/// Why a [`Session`] refused to run. All variants are detected up front,
/// before any read is pulled or any worker is spawned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// `StreamOptions::queue_capacity` was 0 — the work queue could never
    /// stage a read.
    ZeroQueueCapacity,
    /// `StreamOptions::reject_backlog` was 0 — the soft gate on the
    /// verdict-released emission backlog would block the very first
    /// admission.
    ZeroRejectBacklog,
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
    /// `Schedule::Deadline` targets don't line up with the sources.
    DeadlineTargetCount {
        /// Registered sources.
        sources: usize,
        /// Provided targets.
        targets: usize,
    },
    /// A deadline target of 0 chunk-work units is unsatisfiable (and would
    /// divide the urgency feedback by zero-intent).
    ZeroDeadlineTarget(SourceId),
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
            SessionError::ZeroRejectBacklog => {
                write!(f, "rejection backlog bound must be at least 1 (got 0)")
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
            SessionError::DeadlineTargetCount { sources, targets } => write!(
                f,
                "deadline schedule has {targets} target(s) for {sources} source(s)"
            ),
            SessionError::ZeroDeadlineTarget(id) => {
                write!(
                    f,
                    "deadline target for source {:?} is 0 (unsatisfiable)",
                    id.as_str()
                )
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
    /// `max_in_flight` and `latency` are this source's own.
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
    /// The enforced bound on resident read chains across **all** sources
    /// (`queue_capacity + workers`; 1 for the serial in-line path).
    pub in_flight_limit: usize,
    /// High-water mark of resident read chains, summed over sources.
    /// Always ≤ `in_flight_limit`. See [`StreamSummary::max_in_flight`] for
    /// the precise residency definition.
    pub max_in_flight: usize,
    /// Fault-retry attempts consumed across all sources (see
    /// [`StreamSummary::retried`]).
    pub retried: usize,
    /// High-water mark of the verdict-released emission backlog: results of
    /// early-rejected and quarantined reads (permit already returned)
    /// waiting for their in-order emission slot. The soft gate stops
    /// admitting new reads once the backlog reaches
    /// [`StreamOptions::reject_backlog`], so this never exceeds
    /// `reject_backlog + in_flight_limit` (already-resident chains may each
    /// add one entry after admission stops).
    pub max_reject_backlog: usize,
    /// Aggregate read-residency percentiles over all sources
    /// ([`LatencyStats`], in chunk-work units).
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
    /// Fault-retry attempts consumed so far across all sources.
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

struct SourceSlot<'a> {
    id: SourceId,
    source: Box<dyn ReadSource + Send + 'a>,
    config: Option<GenPipConfig>,
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
    granularity: Granularity,
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
    /// [`StreamOptions`], chunk granularity, and no sources.
    pub fn new(config: GenPipConfig) -> Session<'a> {
        Session {
            config,
            flow: Flow::GenPip(ErMode::Full),
            schedule: Schedule::FairShare,
            options: StreamOptions::default(),
            granularity: Granularity::Chunk,
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

    /// Selects the schedulable unit ([`Granularity::Chunk`] by default).
    /// Never changes results — only scheduling, latency, and when
    /// early-rejected reads release their flow permit.
    pub fn granularity(mut self, granularity: Granularity) -> Session<'a> {
        self.granularity = granularity;
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
    pub fn source(
        mut self,
        id: impl Into<SourceId>,
        source: impl ReadSource + Send + 'a,
    ) -> Session<'a> {
        self.slots.push(SourceSlot {
            id: id.into(),
            source: Box::new(source),
            config: None,
            sink: None,
        });
        self
    }

    /// Registers a source under `id` with its **own** [`GenPipConfig`], so
    /// different sources can run different operating points (`N_qs`,
    /// `N_cm`, thresholds, chunk size, shards) in one session — e.g. an
    /// E. coli flowcell next to a human one. Transport-level knobs on the
    /// override are ignored: `parallelism` (the pool is session-wide) comes
    /// from the session config. The override is validated against the
    /// source's reference and chemistry at [`Session::run`]
    /// ([`SessionError::IncompatibleSourceConfig`]).
    pub fn source_with_config(
        mut self,
        id: impl Into<SourceId>,
        source: impl ReadSource + Send + 'a,
        config: GenPipConfig,
    ) -> Session<'a> {
        self.slots.push(SourceSlot {
            id: id.into(),
            source: Box::new(source),
            config: Some(config),
            sink: None,
        });
        self
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
            match self.slots.iter_mut().find(|s| s.id == id) {
                Some(slot) => slot.sink = Some(sink),
                None => return Err(SessionError::SinkWithoutSource(id)),
            }
        }
        Ok(())
    }

    fn validate(&self) -> Result<(), SessionError> {
        if self.options.queue_capacity == 0 {
            return Err(SessionError::ZeroQueueCapacity);
        }
        if self.options.reject_backlog == 0 {
            return Err(SessionError::ZeroRejectBacklog);
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
        if self.slots.len() > self.options.max_sources {
            return Err(SessionError::TooManySources {
                limit: self.options.max_sources,
            });
        }
        for (i, slot) in self.slots.iter().enumerate() {
            if self.slots[..i].iter().any(|s| s.id == slot.id) {
                return Err(SessionError::DuplicateSource(slot.id.clone()));
            }
        }
        if let Schedule::Priority(weights) = &self.schedule {
            if weights.len() != self.slots.len() {
                return Err(SessionError::PriorityWeightCount {
                    sources: self.slots.len(),
                    weights: weights.len(),
                });
            }
            if let Some(i) = weights.iter().position(|&w| w == 0) {
                return Err(SessionError::ZeroPriorityWeight(self.slots[i].id.clone()));
            }
        }
        if let Schedule::Deadline(targets) = &self.schedule {
            if targets.len() != self.slots.len() {
                return Err(SessionError::DeadlineTargetCount {
                    sources: self.slots.len(),
                    targets: targets.len(),
                });
            }
            if let Some(i) = targets.iter().position(|&t| t == 0) {
                return Err(SessionError::ZeroDeadlineTarget(self.slots[i].id.clone()));
            }
        }
        // Each source's effective config must be able to drive that
        // source's reference and chemistry. Only conditions this run would
        // actually trip are errors: `n_qs` is consulted solely by QSR, and
        // the k-vs-reference check applies to explicit per-source overrides
        // only — a degenerate *session* config (k longer than the
        // reference ⇒ empty index ⇒ every read unmapped) has always been
        // accepted, and stays so.
        let uses_qsr = matches!(self.flow, Flow::GenPip(ErMode::QsrOnly | ErMode::Full));
        for slot in &self.slots {
            let config = slot.config.as_ref().unwrap_or(&self.config);
            let issue = if config.chunk_bases == 0 {
                Some(SourceConfigIssue::ZeroChunkBases)
            } else if uses_qsr && config.n_qs == 0 {
                Some(SourceConfigIssue::ZeroQsrSamples)
            } else if !(slot.source.mean_dwell() > 0.0 && slot.source.mean_dwell().is_finite()) {
                Some(SourceConfigIssue::NonPositiveDwell)
            } else if slot.config.is_some() && config.mapper.k > slot.source.reference().len() {
                Some(SourceConfigIssue::KmerExceedsReference {
                    k: config.mapper.k,
                    reference_len: slot.source.reference().len(),
                })
            } else {
                duplicate_reference_name(config, slot.source.reference())
                    .map(|name| SourceConfigIssue::DuplicateReferenceName { name })
            };
            if let Some(issue) = issue {
                return Err(SessionError::IncompatibleSourceConfig {
                    id: slot.id.clone(),
                    issue,
                });
            }
        }
        Ok(())
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
    /// before the run starts are applied at the session's first poll (in
    /// particular, a pre-run `drain` makes the session return immediately
    /// with empty counters).
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
            granularity,
            slots,
            checkpoint,
            ..
        } = self;
        let n = slots.len();
        let er = flow.er();
        let uses_qsr = matches!(flow, Flow::GenPip(ErMode::QsrOnly | ErMode::Full));
        let workers = config.parallelism.workers().max(1);
        // The engine's resident-chain bound, mirrored here so detach-time
        // summaries can carry it before the engine returns.
        let in_flight_limit = if workers <= 1 {
            1
        } else {
            options.queue_capacity.max(1) + workers
        };

        let mut ids = Vec::with_capacity(n);
        let mut sources = Vec::with_capacity(n);
        let mut configs = Vec::with_capacity(n);
        let mut sinks: Vec<Option<BoxedSink<'a>>> = Vec::with_capacity(n);
        for slot in slots {
            ids.push(slot.id);
            configs.push(slot.config.unwrap_or_else(|| config.clone()));
            sources.push(slot.source);
            sinks.push(slot.sink);
        }
        // One immutable context per source (its reference index, basecaller,
        // chunk geometry, effective config), shared by every worker. The
        // vector is append-only, growing under its lock when the control
        // plane attaches a source mid-run.
        let contexts: Arc<RwLock<Vec<Arc<RunContext>>>> = Arc::new(RwLock::new(
            sources
                .iter()
                .zip(&configs)
                .map(|(s, c)| Arc::new(RunContext::from_source(&**s, c)))
                .collect(),
        ));
        let policies: Vec<FaultPolicy> = configs.iter().map(|c| c.fault_policy).collect();
        let default_target = match &schedule {
            Schedule::Deadline(targets) => targets.iter().copied().max().unwrap_or(1),
            _ => 1,
        };

        let control_state = Arc::clone(&control.state);
        control_state.begin_run(&ids);
        let registry = Arc::new(Mutex::new(Registry {
            ids,
            detach_requested: vec![false; n],
            detaching: (0..n).map(|_| None).collect(),
            pending_sinks: (0..n).map(|_| None).collect(),
        }));

        let feed = SessionFeed {
            sources,
            er,
            control: Arc::clone(&control_state),
            registry: Arc::clone(&registry),
            contexts: Arc::clone(&contexts),
            session_config: config,
            uses_qsr,
            max_sources: options.max_sources,
            priority: matches!(schedule, Schedule::Priority(_)),
            deadline: matches!(schedule, Schedule::Deadline(_)),
            default_target,
        };

        let mut per_outcomes = vec![ProgressSnapshot::default(); n];
        let mut per_totals = vec![WorkloadTotals::default(); n];
        let mut outcomes = ProgressSnapshot::default();
        let mut totals = WorkloadTotals::default();

        // Checkpoint plumbing. The sink is shared (Rc) between the emit
        // closure (periodic cuts) and the post-run code (the final,
        // `complete` cut) — both run on the calling thread. The retry
        // counter is the one number the emitter can't see locally (retries
        // happen on the dispatcher), so it crosses over atomically.
        let checkpoint = checkpoint.map(|(every, sink)| (every, Rc::new(RefCell::new(sink))));
        let retried_live = Arc::new(AtomicUsize::new(0));

        /// What a retired chain hands the emitter: a normal result or a
        /// quarantined fault, both delivered in-order through the sink.
        /// `Run` dwarfs `Faulted` but is also the overwhelmingly common
        /// case, so boxing it would cost an allocation per emitted read
        /// to shrink the rare variant.
        #[allow(clippy::large_enum_variant)]
        enum ChainOutput {
            Run(ReadRun),
            Failed { id: u32, fault: ReadFault },
        }

        let stats = {
            let step_contexts = Arc::clone(&contexts);
            let emit_registry = Arc::clone(&registry);
            let emit_control = Arc::clone(&control_state);
            let per_outcomes = &mut per_outcomes;
            let per_totals = &mut per_totals;
            let outcomes = &mut outcomes;
            let totals = &mut totals;
            let mut sinks = sinks;
            let emit_checkpoint = checkpoint
                .as_ref()
                .map(|(every, sink)| (*every, Rc::clone(sink)));
            let emit_retried = Arc::clone(&retried_live);
            let retry_retried = Arc::clone(&retried_live);
            let mut checkpoint_emitted = 0usize;
            let mut lane_done: Vec<bool> = vec![false; n];
            session_engine(
                EngineConfig {
                    workers,
                    queue_capacity: options.queue_capacity,
                    reject_backlog: options.reject_backlog,
                    lanes: n,
                    schedule: &schedule,
                    policies: &policies,
                    control,
                },
                || -> Vec<Option<WorkerScratch>> { Vec::new() },
                feed,
                move |scratch, lane, chain: &mut ReadChain| {
                    // Per-chunk context lookup: a cheap read-lock + Arc
                    // clone, because attached lanes may grow the vector
                    // while this worker runs.
                    let ctx = Arc::clone(&step_contexts.read().expect("contexts poisoned")[lane]);
                    // Scratch is per (worker, source): lazily built because
                    // a worker may never see some sources' chunks, and
                    // grown on demand for attached lanes.
                    if scratch.len() <= lane {
                        scratch.resize_with(lane + 1, || None);
                    }
                    let slot = scratch[lane].get_or_insert_with(|| WorkerScratch::new(&ctx));
                    // Read granularity is the same chain stepped to
                    // completion inside this one task, its permit held to
                    // emission (never reported as cancelled).
                    let whole_read = granularity == Granularity::Read;
                    let mut done = 0u64;
                    loop {
                        match chain.step(&ctx, slot) {
                            ChainStep::Parked { units } if whole_read => done += units,
                            ChainStep::Parked { units } => break ChainStep::Parked { units },
                            ChainStep::Finished {
                                output,
                                units,
                                cancelled,
                            } => {
                                break ChainStep::Finished {
                                    output: ChainOutput::Run(output),
                                    units: done + units,
                                    cancelled: cancelled && !whole_read,
                                }
                            }
                        }
                    }
                },
                move |_lane, chain: ReadChain| {
                    retry_retried.fetch_add(1, Ordering::Relaxed);
                    chain.retry()
                },
                |_lane, chain: ReadChain, info: FaultInfo| ChainOutput::Failed {
                    id: chain.read_id(),
                    fault: ReadFault {
                        kind: info.kind,
                        message: info.message,
                        chunk: chain.fault_chunk(),
                        attempts: info.attempts,
                    },
                },
                move |lane, event: LaneEvent<ChainOutput>| {
                    // Attached lanes grow the per-lane state on first
                    // contact (their Attached marker precedes any output).
                    if per_outcomes.len() <= lane {
                        per_outcomes.resize_with(lane + 1, Default::default);
                        per_totals.resize_with(lane + 1, Default::default);
                    }
                    if sinks.len() <= lane {
                        sinks.resize_with(lane + 1, || None);
                    }
                    match event {
                        LaneEvent::Attached => {
                            let pending = emit_registry
                                .lock()
                                .expect("registry poisoned")
                                .pending_sinks[lane]
                                .take();
                            if let Some(sink) = pending {
                                sinks[lane] = Some(sink);
                            }
                        }
                        LaneEvent::Detached(lane_stats) => {
                            if lane_done.len() <= lane {
                                lane_done.resize(lane + 1, false);
                            }
                            lane_done[lane] = true;
                            // The lane's last output has been emitted:
                            // finalize and deliver its summary.
                            let summary = StreamSummary {
                                outcomes: per_outcomes[lane],
                                totals: per_totals[lane],
                                workers,
                                in_flight_limit,
                                max_in_flight: lane_stats.max_in_flight,
                                retried: lane_stats.retried,
                                latency: lane_stats.latency,
                            };
                            let responder =
                                emit_registry.lock().expect("registry poisoned").detaching[lane]
                                    .take();
                            if let Some(responder) = responder {
                                let _ = responder.send(Ok(summary));
                            }
                            let mut inner = emit_control.inner.lock().expect("control poisoned");
                            if let Some(stats) = inner.stats.sources.get_mut(lane) {
                                stats.detached = true;
                            }
                        }
                        LaneEvent::Output(output) => {
                            let event = match output {
                                ChainOutput::Run(run) => {
                                    totals.accumulate(&run);
                                    outcomes.observe(&run);
                                    per_totals[lane].accumulate(&run);
                                    per_outcomes[lane].observe(&run);
                                    StreamEvent::Read(run)
                                }
                                ChainOutput::Failed { id, fault } => {
                                    outcomes.observe_failed();
                                    per_outcomes[lane].observe_failed();
                                    StreamEvent::Failed { read_id: id, fault }
                                }
                            };
                            let snapshot_due = options.progress_every > 0
                                && per_outcomes[lane].reads_emitted % options.progress_every == 0;
                            if let Some(sink) = sinks[lane].as_mut() {
                                sink(event);
                                if snapshot_due {
                                    sink(StreamEvent::Progress(per_outcomes[lane]));
                                }
                            }
                            {
                                let mut inner =
                                    emit_control.inner.lock().expect("control poisoned");
                                if let Some(stats) = inner.stats.sources.get_mut(lane) {
                                    stats.outcomes = per_outcomes[lane];
                                }
                            }
                            if let Some((every, sink)) = &emit_checkpoint {
                                checkpoint_emitted += 1;
                                if checkpoint_emitted.is_multiple_of(*every) {
                                    let ids = emit_registry
                                        .lock()
                                        .expect("registry poisoned")
                                        .ids
                                        .clone();
                                    let cut = SessionCheckpoint {
                                        sources: ids
                                            .into_iter()
                                            .enumerate()
                                            .map(|(s, id)| SourceCheckpoint {
                                                id,
                                                outcomes: per_outcomes
                                                    .get(s)
                                                    .copied()
                                                    .unwrap_or_default(),
                                                done: lane_done.get(s).copied().unwrap_or(false),
                                            })
                                            .collect(),
                                        outcomes: *outcomes,
                                        retried: emit_retried.load(Ordering::Relaxed),
                                        complete: false,
                                    };
                                    (sink.borrow_mut())(&cut);
                                }
                            }
                        }
                    }
                },
            )
        };
        control_state.close();
        debug_assert_eq!(stats.in_flight_limit, in_flight_limit);

        let ids: Vec<SourceId> = registry.lock().expect("registry poisoned").ids.clone();
        per_outcomes.resize_with(ids.len(), Default::default);
        per_totals.resize_with(ids.len(), Default::default);
        // The final checkpoint: every lane has retired (run dry, detached,
        // or drained), all results are through the sinks, and the engine's
        // exact retry total is in hand.
        if let Some((_, sink)) = &checkpoint {
            let cut = SessionCheckpoint {
                sources: ids
                    .iter()
                    .cloned()
                    .enumerate()
                    .map(|(s, id)| SourceCheckpoint {
                        id,
                        outcomes: per_outcomes[s],
                        done: true,
                    })
                    .collect(),
                outcomes,
                retried: stats.retried,
                complete: true,
            };
            (sink.borrow_mut())(&cut);
        }
        let sources = ids
            .into_iter()
            .enumerate()
            .map(|(s, id)| SourceReport {
                id,
                summary: StreamSummary {
                    outcomes: per_outcomes[s],
                    totals: per_totals[s],
                    workers,
                    in_flight_limit: stats.in_flight_limit,
                    max_in_flight: stats.lanes[s].max_in_flight,
                    retried: stats.lanes[s].retried,
                    latency: stats.lanes[s].latency,
                },
            })
            .collect();
        Ok(SessionReport {
            sources,
            outcomes,
            totals,
            workers,
            in_flight_limit: stats.in_flight_limit,
            max_in_flight: stats.max_in_flight,
            retried: stats.retried,
            max_reject_backlog: stats.max_reject_backlog,
            latency: stats.latency,
        })
    }
}

/// The session-layer registry shared between the dispatcher-side
/// [`SessionFeed`] and the emitting thread: the authoritative id↔lane map
/// (ids are never reused, even after detach), pending detach responders,
/// and sinks for attached lanes awaiting their in-order install.
struct Registry {
    ids: Vec<SourceId>,
    /// `true` from the moment a detach is accepted; never reset, so a
    /// second detach of the same id is refused as unknown.
    detach_requested: Vec<bool>,
    /// The detach responder, taken by the emitter when the lane's summary
    /// is finalized.
    detaching: Vec<Option<mpsc::Sender<Result<StreamSummary, SessionError>>>>,
    /// Sinks for attached lanes, installed by the emitter at the lane's
    /// in-order [`LaneEvent::Attached`] marker — before its first output.
    pending_sinks: Vec<Option<AttachedSink>>,
}

/// A sink supplied with a live attach: unlike builder sinks it must be
/// `Send` (it crosses into the session thread) and `'static` (it outlives
/// the caller's frame).
type AttachedSink = Box<dyn FnMut(StreamEvent) + Send>;

/// The [`LaneFeed`] of a real [`Session`]: owns the sources (pulled on the
/// dispatcher) and applies control-plane commands — attach validation
/// mirrors [`Session::source_with_config`]'s, detach resolves ids to lanes
/// — turning accepted commands into [`EngineCommand`]s for the engine.
struct SessionFeed<'a> {
    sources: Vec<Box<dyn ReadSource + Send + 'a>>,
    er: Option<ErMode>,
    control: Arc<ControlState>,
    registry: Arc<Mutex<Registry>>,
    contexts: Arc<RwLock<Vec<Arc<RunContext>>>>,
    session_config: GenPipConfig,
    uses_qsr: bool,
    max_sources: usize,
    priority: bool,
    deadline: bool,
    /// Target for attached lanes that don't specify one (the laxest target
    /// registered at startup): neutral until feedback arrives either way.
    default_target: u64,
}

impl SessionFeed<'_> {
    /// The attach-time twin of [`Session::validate`]'s per-slot checks,
    /// plus the live-session admission rules (unique-forever ids,
    /// [`StreamOptions::max_sources`], schedule parameters).
    fn validate_attach(&self, request: &AttachRequest) -> Result<(), SessionError> {
        {
            let registry = self.registry.lock().expect("registry poisoned");
            if registry.ids.contains(&request.id) {
                return Err(SessionError::DuplicateSource(request.id.clone()));
            }
            let live = registry.detach_requested.iter().filter(|d| !**d).count();
            if live >= self.max_sources {
                return Err(SessionError::TooManySources {
                    limit: self.max_sources,
                });
            }
        }
        if self.priority && request.weight == 0 {
            return Err(SessionError::ZeroPriorityWeight(request.id.clone()));
        }
        if self.deadline && request.target == Some(0) {
            return Err(SessionError::ZeroDeadlineTarget(request.id.clone()));
        }
        let config = request.config.as_ref().unwrap_or(&self.session_config);
        let dwell = request.source.mean_dwell();
        let issue = if config.chunk_bases == 0 {
            Some(SourceConfigIssue::ZeroChunkBases)
        } else if self.uses_qsr && config.n_qs == 0 {
            Some(SourceConfigIssue::ZeroQsrSamples)
        } else if !(dwell > 0.0 && dwell.is_finite()) {
            Some(SourceConfigIssue::NonPositiveDwell)
        } else if request.config.is_some() && config.mapper.k > request.source.reference().len() {
            Some(SourceConfigIssue::KmerExceedsReference {
                k: config.mapper.k,
                reference_len: request.source.reference().len(),
            })
        } else {
            duplicate_reference_name(config, request.source.reference())
                .map(|name| SourceConfigIssue::DuplicateReferenceName { name })
        };
        match issue {
            Some(issue) => Err(SessionError::IncompatibleSourceConfig {
                id: request.id.clone(),
                issue,
            }),
            None => Ok(()),
        }
    }

    /// Validates and registers one attach, answering its responder either
    /// way; `Some` is the engine-side lane addition for an accepted one.
    fn admit(&mut self, request: AttachRequest) -> Option<EngineCommand> {
        if let Err(error) = self.validate_attach(&request) {
            let _ = request.responder.send(Err(error));
            return None;
        }
        let AttachRequest {
            id,
            source,
            config,
            sink,
            weight,
            target,
            responder,
        } = request;
        let effective = config.unwrap_or_else(|| self.session_config.clone());
        {
            let mut registry = self.registry.lock().expect("registry poisoned");
            registry.ids.push(id.clone());
            registry.detach_requested.push(false);
            registry.detaching.push(None);
            registry.pending_sinks.push(sink);
        }
        self.contexts
            .write()
            .expect("contexts poisoned")
            .push(Arc::new(RunContext::from_source(&*source, &effective)));
        self.sources.push(source);
        {
            let mut inner = self.control.inner.lock().expect("control poisoned");
            inner.stats.sources.push(SourceStats {
                id,
                outcomes: ProgressSnapshot::default(),
                detached: false,
            });
        }
        let _ = responder.send(Ok(()));
        Some(EngineCommand::AddLane {
            policy: effective.fault_policy,
            weight,
            target: target.unwrap_or(self.default_target),
        })
    }
}

impl LaneFeed<ReadChain> for SessionFeed<'_> {
    fn pull(&mut self, lane: usize) -> Option<ReadChain> {
        self.sources[lane]
            .next_read()
            .map(|read| ReadChain::new(self.er, read))
    }

    fn poll(&mut self) -> Vec<EngineCommand> {
        let drained: Vec<Command> = {
            let mut inner = self.control.inner.lock().expect("control poisoned");
            inner.commands.drain(..).collect()
        };
        let mut commands = Vec::with_capacity(drained.len());
        for command in drained {
            match command {
                Command::Attach(request) => {
                    if let Some(command) = self.admit(*request) {
                        commands.push(command);
                    }
                }
                Command::Detach { id, responder } => {
                    let mut registry = self.registry.lock().expect("registry poisoned");
                    match registry.ids.iter().position(|i| *i == id) {
                        Some(lane) if !registry.detach_requested[lane] => {
                            registry.detach_requested[lane] = true;
                            registry.detaching[lane] = Some(responder);
                            commands.push(EngineCommand::DrainLane { lane });
                        }
                        _ => {
                            let _ = responder.send(Err(SessionError::UnknownSource(id)));
                        }
                    }
                }
            }
        }
        commands
    }
}

/// A counting gate bounding how many read chains are resident: `acquire`
/// blocks while `limit` permits are out, `release` frees one. Tracks the
/// high-water mark so tests (and the bench report) can assert the bound
/// really held.
///
/// A permit is taken when a read is admitted and released when its chain
/// retires — at the ER verdict for cancelled reads (early release: the
/// paper's "rejected reads stop consuming resources"), at in-order emission
/// for surviving reads.
///
/// The gate carries a second, *soft* bound: the backlog of verdict-released
/// results (early-rejected or quarantined reads whose permit is already
/// back but whose small result record still waits for its in-order emission
/// slot). Once `backlog` reaches `backlog_limit`, `acquire`/`has_room`
/// report no room — new reads stop being admitted — but permits stay
/// decoupled from emission: parked chains keep advancing, so the
/// head-of-line survivor always retires and the emitter drains the backlog.
/// The backlog can transiently exceed the soft bound by at most `limit`
/// (already-admitted chains may each add one entry after admission stops).
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
    backlog_limit: usize,
    high: AtomicUsize,
    backlog_high: AtomicUsize,
}

struct GateState {
    used: usize,
    backlog: usize,
    open: bool,
}

impl FlowGate {
    fn new(limit: usize, backlog_limit: usize) -> FlowGate {
        FlowGate {
            state: Mutex::new(GateState {
                used: 0,
                backlog: 0,
                open: false,
            }),
            freed: Condvar::new(),
            limit,
            backlog_limit,
            high: AtomicUsize::new(0),
            backlog_high: AtomicUsize::new(0),
        }
    }

    fn admittable(&self, state: &GateState) -> bool {
        state.used < self.limit && state.backlog < self.backlog_limit
    }

    /// Takes a permit, blocking while the limit is reached or the rejection
    /// backlog is over its soft bound. `false` means the gate was opened
    /// for shutdown and no permit was taken.
    fn acquire(&self) -> bool {
        let mut state = self.state.lock().expect("gate poisoned");
        while !state.open && !self.admittable(&state) {
            state = self.freed.wait(state).expect("gate poisoned");
        }
        if state.open {
            return false;
        }
        state.used += 1;
        self.high.fetch_max(state.used, Ordering::Relaxed);
        true
    }

    /// `true` while a permit is immediately available (or the gate is open
    /// for shutdown, in which case `acquire` reports the shutdown). Only the
    /// dispatcher acquires, so room seen here cannot be taken by anyone
    /// else before it does.
    fn has_room(&self) -> bool {
        let state = self.state.lock().expect("gate poisoned");
        state.open || self.admittable(&state)
    }

    fn release(&self) {
        let mut state = self.state.lock().expect("gate poisoned");
        state.used -= 1;
        drop(state);
        self.freed.notify_one();
    }

    /// Records one verdict-released result entering the emission backlog
    /// (called by the dispatcher when a chain retires cancelled or
    /// quarantined, right after its permit goes back).
    fn push_backlog(&self) {
        let mut state = self.state.lock().expect("gate poisoned");
        state.backlog += 1;
        self.backlog_high
            .fetch_max(state.backlog, Ordering::Relaxed);
    }

    /// Records one verdict-released result leaving the backlog at its
    /// in-order emission (called by the emitter).
    fn pop_backlog(&self) {
        let mut state = self.state.lock().expect("gate poisoned");
        state.backlog -= 1;
        drop(state);
        self.freed.notify_one();
    }

    fn backlog_high_water(&self) -> usize {
        self.backlog_high.load(Ordering::Relaxed)
    }

    /// Blocks until every permit is back and the emission backlog is empty
    /// — i.e. every admitted read has been emitted — or the gate was opened
    /// for shutdown (`false`). The dispatcher parks here before concluding
    /// an idle session, so sinks get to run (and possibly enqueue control
    /// commands) before the final poll. Only the dispatcher ever waits on
    /// the gate, so the emitter's `release`/`pop_backlog` notifications
    /// cannot be stolen by another waiter.
    fn await_idle(&self) -> bool {
        let mut state = self.state.lock().expect("gate poisoned");
        while !state.open && (state.used > 0 || state.backlog > 0) {
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

    fn high_water(&self) -> usize {
        self.high.load(Ordering::Relaxed)
    }
}

/// Opens the gate when dropped — normally after the emit loop (harmless:
/// the dispatcher has already exited), and crucially during unwinding, so a
/// panicking sink or worker pool releases the dispatcher instead of
/// deadlocking the scope join.
struct OpenOnDrop<'a>(&'a FlowGate);

impl Drop for OpenOnDrop<'_> {
    fn drop(&mut self) {
        self.0.open();
    }
}

/// What one task of a chain reported back to the engine. Generic twin of
/// the concrete steps produced by [`crate::pipeline::ReadChain`].
pub(crate) enum ChainStep<O> {
    /// The chain has more tasks; park it until its lane is picked again.
    Parked {
        /// Chunk-work units this task performed (the tick currency of
        /// [`LatencyStats`]).
        units: u64,
    },
    /// The chain retired with `output`. `cancelled` marks an early verdict:
    /// the chain's permit is released immediately instead of at emission.
    Finished {
        /// The chain's result.
        output: O,
        /// Chunk-work units this task performed.
        units: u64,
        /// `true` when the chain was cancelled by an ER verdict.
        cancelled: bool,
    },
}

/// Per-lane engine observations.
pub(crate) struct LaneStats {
    /// High-water mark of this lane's resident chains (plus
    /// finished-but-unemitted surviving reads, which still hold permits).
    pub(crate) max_in_flight: usize,
    /// Fault retries this lane's reads consumed.
    pub(crate) retried: usize,
    /// Residency percentiles of this lane's reads.
    pub(crate) latency: LatencyStats,
}

/// What the engine enforced and observed: the single source of truth for
/// the in-flight bound and the latency percentiles, so callers never
/// re-derive them.
pub(crate) struct EngineStats {
    /// The enforced bound on resident chains (`queue_capacity + workers`,
    /// or 1 for the serial in-line path).
    pub(crate) in_flight_limit: usize,
    /// High-water mark of resident chains across all lanes.
    pub(crate) max_in_flight: usize,
    /// Fault retries across all lanes.
    pub(crate) retried: usize,
    /// High-water mark of the verdict-released emission backlog (0 on the
    /// serial path, where emission is immediate).
    pub(crate) max_reject_backlog: usize,
    /// Aggregate residency percentiles.
    pub(crate) latency: LatencyStats,
    /// Per-lane observations, indexed like the engine's lanes.
    pub(crate) lanes: Vec<LaneStats>,
}

/// What the engine reports to its `emit` callback, strictly in global
/// admission/marker order per session (and hence in per-lane order).
pub(crate) enum LaneEvent<O> {
    /// An in-order chain output.
    Output(O),
    /// The lane's attach marker: delivered before the lane's first output,
    /// the emitter's cue to install the lane's sink and per-lane state.
    Attached,
    /// The lane's detach marker: delivered after the lane's last output,
    /// carrying the lane's finalized engine-side stats.
    Detached(LaneStats),
}

/// Where the engine's chains come from, plus its control plane. `pull` is
/// called on the dispatcher when the schedule picks a lane with admission
/// room; `poll` is called at the top of every dispatch round and once more
/// after the session goes idle, so commands raised by the final emissions
/// still apply before the engine concludes.
pub(crate) trait LaneFeed<C>: Send {
    /// The next chain from `lane`, or `None` when that source is exhausted.
    fn pull(&mut self, lane: usize) -> Option<C>;

    /// Control-plane commands to apply before the next dispatch round.
    /// The default feed has no control plane.
    fn poll(&mut self) -> Vec<EngineCommand> {
        Vec::new()
    }
}

/// Any plain closure is a control-plane-less feed.
impl<C, T: FnMut(usize) -> Option<C> + Send> LaneFeed<C> for T {
    fn pull(&mut self, lane: usize) -> Option<C> {
        self(lane)
    }
}

/// A control-plane command after feed-side validation, ready for the
/// engine to apply.
pub(crate) enum EngineCommand {
    /// A new lane joins the schedule with the given fault policy,
    /// [`Schedule::Priority`] weight, and [`Schedule::Deadline`] target.
    /// The engine sends the lane's [`LaneEvent::Attached`] marker through
    /// the in-order path before the lane's first output.
    AddLane {
        policy: FaultPolicy,
        weight: u32,
        target: u64,
    },
    /// Stop pulling from `lane`; once its resident chains have finished
    /// and emitted, the lane's [`LaneEvent::Detached`] marker delivers its
    /// finalized [`LaneStats`].
    DrainLane { lane: usize },
}

/// Per-lane permit attribution and retry counts, shared between the
/// dispatcher (admission, cancellation, retries) and the emitter (permit
/// release at emission, detach-marker stats). One mutex instead of
/// per-lane atomics because the vectors must grow when lanes attach
/// mid-run.
struct LaneCounters {
    inflight: Vec<usize>,
    high: Vec<usize>,
    retried: Vec<usize>,
}

impl LaneCounters {
    fn new(lanes: usize) -> LaneCounters {
        LaneCounters {
            inflight: vec![0; lanes],
            high: vec![0; lanes],
            retried: vec![0; lanes],
        }
    }

    fn ensure(&mut self, lane: usize) {
        if self.inflight.len() <= lane {
            self.inflight.resize(lane + 1, 0);
            self.high.resize(lane + 1, 0);
            self.retried.resize(lane + 1, 0);
        }
    }

    fn admitted(&mut self, lane: usize) {
        self.inflight[lane] += 1;
        self.high[lane] = self.high[lane].max(self.inflight[lane]);
    }
}

/// A chunk task in flight to a worker. Carries its lane's fault policy so
/// workers never index shared per-lane state (which grows when lanes
/// attach mid-run).
struct Task<C> {
    token: usize,
    lane: usize,
    policy: FaultPolicy,
    chain: C,
}

/// What a worker sends back after running one task. `Faulted` is a
/// contained panic — the chain survived and the dispatcher decides retry
/// vs. quarantine. `Panicked` is a worker's dying gasp under
/// [`FaultPolicy::Fail`]: "I panicked on this task — abort."
enum WorkerMsg<C, O> {
    Parked {
        token: usize,
        chain: C,
        units: u64,
    },
    Finished {
        token: usize,
        output: O,
        units: u64,
        cancelled: bool,
    },
    Faulted {
        token: usize,
        chain: C,
        kind: FaultKind,
        message: String,
    },
    Panicked,
}

/// A retired chain — or a lane lifecycle marker — on its way to in-order
/// emission. Markers consume a sequence number like outputs do, which is
/// exactly what orders them: an Attached marker's seq precedes every
/// admission of its lane, a Detached marker's seq follows them all.
struct EmitMsg<O> {
    seq: u64,
    lane: usize,
    kind: EmitKind<O>,
}

enum EmitKind<O> {
    Output {
        output: O,
        holds_permit: bool,
        resident_units: u64,
    },
    Attached,
    Detached,
}

/// A resident chain's dispatcher-side bookkeeping. `chain` is `Some` while
/// parked here, `None` while its task is on a worker.
struct ChainSlot<C> {
    lane: usize,
    seq: u64,
    start_tick: u64,
    attempts: u32,
    chain: Option<C>,
}

/// The engine's scalar knobs, bundled so the closure parameters stay
/// readable at the call site.
pub(crate) struct EngineConfig<'s> {
    pub(crate) workers: usize,
    pub(crate) queue_capacity: usize,
    pub(crate) reject_backlog: usize,
    pub(crate) lanes: usize,
    pub(crate) schedule: &'s Schedule,
    pub(crate) policies: &'s [FaultPolicy],
    pub(crate) control: &'s SessionControl,
}

/// What the engine learned about a contained fault, handed to the caller's
/// `fault` closure when a chain is quarantined.
pub(crate) struct FaultInfo {
    pub(crate) kind: FaultKind,
    pub(crate) message: String,
    pub(crate) attempts: u32,
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
    /// `true` while this thread is inside a contained `step` call: the
    /// quiet hook drops the panic report instead of spamming stderr for
    /// every injected fault.
    static SUPPRESS_PANIC_OUTPUT: Cell<bool> = const { Cell::new(false) };
}

static QUIET_HOOK: Once = Once::new();

/// Installs (once, process-wide) a panic hook that stays silent for panics
/// raised inside [`step_contained`] and defers to the previous hook for
/// everything else. Only called when some lane's policy actually contains
/// faults, so `FaultPolicy::Fail` runs keep the stock hook untouched.
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

/// Runs `f` with panic output suppressed, returning the payload on panic.
fn step_contained<T>(f: impl FnOnce() -> T) -> Result<T, Box<dyn std::any::Any + Send>> {
    SUPPRESS_PANIC_OUTPUT.with(|c| c.set(true));
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    SUPPRESS_PANIC_OUTPUT.with(|c| c.set(false));
    outcome
}

/// The one execution core behind every driver: admits chains from `pull`
/// (one per read, per lane), schedules their tasks one at a time — the
/// `schedule` picks the lane of every task — onto up to `workers` lazily
/// spawned threads (each with its own state from `worker_state`), and calls
/// `emit` with chain outputs **in global admission order** (which makes
/// each lane's emission order its own pull order). At most
/// `queue_capacity + workers` chains are resident; cancelled chains leave
/// the bound at their verdict.
///
/// With one worker the engine degenerates to the in-line serial loop — the
/// reference execution: one chain at a time, stepped to completion, with
/// the schedule consulted per admission.
///
/// A panic in a chain task is *contained* when the lane's
/// [`FaultPolicy`] is not `Fail`: the chain survives the unwind, the
/// dispatcher re-enqueues it (`retry`, up to the policy's attempts) or
/// retires it through `fault` as a quarantined output, and the run keeps
/// going. Under `Fail` — and for panics outside chain tasks (source,
/// sink) — the engine tears the pipeline down (gate opened, channels
/// closed) and propagates out of the scope join rather than deadlocking;
/// already-finished earlier items may still be emitted first.
///
/// `cfg.control` is the cooperative drain switch: once `drain()` is
/// observed, no new reads are pulled, resident chains run to their
/// verdicts, and the engine returns normally. The rest of the control
/// plane arrives through `feed.poll()`: lanes can be added ([`EngineCommand::AddLane`],
/// announced through the in-order [`LaneEvent::Attached`] marker) and
/// drained individually ([`EngineCommand::DrainLane`], concluded by the
/// in-order [`LaneEvent::Detached`] marker carrying the lane's stats).
/// Before concluding an idle session the engine waits for the emitter to
/// catch up and polls once more, so commands raised by the final
/// emissions (a sink attaching the next flowcell) still revive the run.
pub(crate) fn session_engine<C, O, S, B, L, F, R, Q, G>(
    cfg: EngineConfig<'_>,
    worker_state: B,
    mut feed: L,
    step: F,
    mut retry: R,
    mut fault: Q,
    mut emit: G,
) -> EngineStats
where
    C: Send,
    O: Send,
    B: Fn() -> S + Sync,
    L: LaneFeed<C>,
    F: Fn(&mut S, usize, &mut C) -> ChainStep<O> + Sync,
    R: FnMut(usize, C) -> C + Send,
    Q: FnMut(usize, C, FaultInfo) -> O + Send,
    G: FnMut(usize, LaneEvent<O>),
{
    let EngineConfig {
        workers,
        queue_capacity,
        reject_backlog,
        lanes,
        schedule,
        policies,
        control,
    } = cfg;
    debug_assert_eq!(policies.len(), lanes);
    if policies.iter().any(|p| *p != FaultPolicy::Fail) {
        install_quiet_hook();
    }
    let mut lane_samples: Vec<Vec<u64>> = vec![Vec::new(); lanes];

    if workers <= 1 {
        let mut sched = SchedulerState::new(schedule, lanes);
        let mut policies = policies.to_vec();
        let mut state = worker_state();
        let mut lane_any = vec![false; lanes];
        let mut lane_retried = vec![0usize; lanes];
        let mut pending_commands: VecDeque<EngineCommand> = VecDeque::new();
        let mut tick = 0u64;
        let mut any = false;
        loop {
            // Control plane first. The serial path applies commands
            // inline: an attach joins the schedule before the next pick, a
            // detach retires its lane immediately (nothing is ever
            // resident between picks here).
            pending_commands.extend(feed.poll());
            while let Some(command) = pending_commands.pop_front() {
                match command {
                    EngineCommand::AddLane {
                        policy,
                        weight,
                        target,
                    } => {
                        if policy != FaultPolicy::Fail {
                            install_quiet_hook();
                        }
                        let lane = lane_any.len();
                        sched.add_lane(weight, target);
                        policies.push(policy);
                        lane_any.push(false);
                        lane_retried.push(0);
                        lane_samples.push(Vec::new());
                        emit(lane, LaneEvent::Attached);
                    }
                    EngineCommand::DrainLane { lane } => {
                        sched.exhausted(lane);
                        let latency = LatencyStats::from_samples(&mut lane_samples[lane]);
                        emit(
                            lane,
                            LaneEvent::Detached(LaneStats {
                                max_in_flight: usize::from(lane_any[lane]),
                                retried: lane_retried[lane],
                                latency,
                            }),
                        );
                    }
                }
            }
            // A drain request is equivalent to every source running dry at
            // once. `exhausted` is idempotent, so racing a natural
            // exhaustion is fine.
            if control.is_draining() {
                for lane in 0..lane_any.len() {
                    sched.exhausted(lane);
                }
            }
            let Some(lane) = sched.next() else {
                // Every lane exhausted — but the last emission may have
                // enqueued a command (a sink attaching the next
                // flowcell). One final poll decides.
                pending_commands.extend(feed.poll());
                if pending_commands.is_empty() {
                    break;
                }
                continue;
            };
            match feed.pull(lane) {
                None => sched.exhausted(lane),
                Some(mut chain) => {
                    any = true;
                    lane_any[lane] = true;
                    let contain = policies[lane] != FaultPolicy::Fail;
                    let max_retry = policies[lane].retry_attempts();
                    let mut attempts = 0u32;
                    let start = tick;
                    let output = loop {
                        if contain {
                            match step_contained(|| step(&mut state, lane, &mut chain)) {
                                Ok(ChainStep::Parked { units }) => tick += units,
                                Ok(ChainStep::Finished { output, units, .. }) => {
                                    tick += units;
                                    break output;
                                }
                                Err(payload) => {
                                    let (kind, message) = classify_panic(payload);
                                    attempts += 1;
                                    if attempts <= max_retry {
                                        lane_retried[lane] += 1;
                                        chain = retry(lane, chain);
                                    } else {
                                        break fault(
                                            lane,
                                            chain,
                                            FaultInfo {
                                                kind,
                                                message,
                                                attempts,
                                            },
                                        );
                                    }
                                }
                            }
                        } else {
                            match step(&mut state, lane, &mut chain) {
                                ChainStep::Parked { units } => tick += units,
                                ChainStep::Finished { output, units, .. } => {
                                    tick += units;
                                    break output;
                                }
                            }
                        }
                    };
                    lane_samples[lane].push(tick - start);
                    sched.observe(lane, tick - start);
                    emit(lane, LaneEvent::Output(output));
                }
            }
        }
        return EngineStats {
            in_flight_limit: 1,
            max_in_flight: usize::from(any),
            retried: lane_retried.iter().sum(),
            max_reject_backlog: 0,
            latency: aggregate_latency(&mut lane_samples),
            lanes: lane_samples
                .iter_mut()
                .zip(lane_any)
                .zip(lane_retried)
                .map(|((samples, any), retried)| LaneStats {
                    max_in_flight: usize::from(any),
                    retried,
                    latency: LatencyStats::from_samples(samples),
                })
                .collect(),
        };
    }

    let capacity = queue_capacity.max(1);
    let limit = capacity + workers;
    let gate = FlowGate::new(limit, reject_backlog.max(1));
    // Per-lane permit attribution (admitted on the dispatcher, released on
    // the dispatcher at cancellation or on the emitting thread otherwise);
    // the *global* bound is the gate's, these only attribute high-waters.
    let counters = Mutex::new(LaneCounters::new(lanes));

    // All channels are unbounded; the gate alone bounds what can be in them
    // (≤ `limit` chains exist, each with at most one task or emit message
    // outstanding, plus the cancelled-result backlog which is the early
    // release working as intended).
    let (task_tx, task_rx) = mpsc::channel::<Task<C>>();
    let task_rx = Mutex::new(task_rx);
    let (msg_tx, msg_rx) = mpsc::channel::<WorkerMsg<C, O>>();
    let (emit_tx, emit_rx) = mpsc::channel::<EmitMsg<O>>();

    std::thread::scope(|scope| {
        let _shutdown = OpenOnDrop(&gate);

        // Dispatcher: owns the feed (sources plus control plane) and every
        // parked chain; consults the schedule once per chunk task; spawns
        // workers lazily as concurrent chunk work actually materializes.
        {
            let gate = &gate;
            let counters = &counters;
            let worker_state = &worker_state;
            let step = &step;
            let task_rx = &task_rx;
            let feed = &mut feed;
            let retry = &mut retry;
            let fault = &mut fault;
            scope.spawn(move || {
                let mut sched = SchedulerState::new(schedule, lanes);
                let mut policies: Vec<FaultPolicy> = policies.to_vec();
                let mut src_dry = vec![false; lanes];
                let mut detaching = vec![false; lanes];
                let mut live = vec![0usize; lanes];
                let mut ready: Vec<VecDeque<usize>> = vec![VecDeque::new(); lanes];
                let mut slots: Vec<ChainSlot<C>> = Vec::new();
                let mut free_tokens: Vec<usize> = Vec::new();
                let mut pending_commands: VecDeque<EngineCommand> = VecDeque::new();
                let mut tick = 0u64;
                let mut next_seq = 0u64;
                let mut outstanding = 0usize;
                let mut spawned = 0usize;

                'run: loop {
                    // Control plane: attach new lanes, start per-lane
                    // drains. The Attached marker's seq is allocated here —
                    // before any admission of the new lane — which is what
                    // orders it ahead of the lane's first output.
                    pending_commands.extend(feed.poll());
                    while let Some(command) = pending_commands.pop_front() {
                        match command {
                            EngineCommand::AddLane {
                                policy,
                                weight,
                                target,
                            } => {
                                if policy != FaultPolicy::Fail {
                                    install_quiet_hook();
                                }
                                let lane = src_dry.len();
                                sched.add_lane(weight, target);
                                policies.push(policy);
                                src_dry.push(false);
                                detaching.push(false);
                                live.push(0);
                                ready.push(VecDeque::new());
                                counters.lock().expect("counters poisoned").ensure(lane);
                                let seq = next_seq;
                                next_seq += 1;
                                let sent = emit_tx.send(EmitMsg {
                                    seq,
                                    lane,
                                    kind: EmitKind::Attached,
                                });
                                if sent.is_err() {
                                    break 'run; // emitter gone (sink panicked)
                                }
                            }
                            EngineCommand::DrainLane { lane } => {
                                detaching[lane] = true;
                                src_dry[lane] = true;
                                if live[lane] == 0
                                    && !retire_lane(
                                        &mut sched,
                                        &mut detaching,
                                        &emit_tx,
                                        &mut next_seq,
                                        lane,
                                    )
                                {
                                    break 'run;
                                }
                            }
                        }
                    }

                    // A drain request is equivalent to every source running
                    // dry at once: stop pulling, let resident chains retire.
                    // `exhausted` is idempotent, so racing a natural
                    // exhaustion is fine.
                    if control.is_draining() {
                        for lane in 0..src_dry.len() {
                            if !src_dry[lane] {
                                src_dry[lane] = true;
                                if live[lane] == 0
                                    && !retire_lane(
                                        &mut sched,
                                        &mut detaching,
                                        &emit_tx,
                                        &mut next_seq,
                                        lane,
                                    )
                                {
                                    break 'run;
                                }
                            }
                        }
                    }

                    // Dispatch everything dispatchable, in schedule order: a
                    // lane is available if it has a parked chain to advance
                    // or a new read can be admitted under a fresh permit.
                    loop {
                        let picked = sched.next_where(|l| {
                            !ready[l].is_empty() || (!src_dry[l] && gate.has_room())
                        });
                        let Some(lane) = picked else { break };
                        let token = match ready[lane].pop_front() {
                            Some(token) => token,
                            None => {
                                if !gate.acquire() {
                                    break 'run; // shutdown
                                }
                                let Some(chain) = feed.pull(lane) else {
                                    gate.release();
                                    src_dry[lane] = true;
                                    if live[lane] == 0
                                        && !retire_lane(
                                            &mut sched,
                                            &mut detaching,
                                            &emit_tx,
                                            &mut next_seq,
                                            lane,
                                        )
                                    {
                                        break 'run;
                                    }
                                    continue;
                                };
                                counters.lock().expect("counters poisoned").admitted(lane);
                                live[lane] += 1;
                                let slot = ChainSlot {
                                    lane,
                                    seq: next_seq,
                                    start_tick: tick,
                                    attempts: 0,
                                    chain: Some(chain),
                                };
                                next_seq += 1;
                                match free_tokens.pop() {
                                    Some(token) => {
                                        slots[token] = slot;
                                        token
                                    }
                                    None => {
                                        slots.push(slot);
                                        slots.len() - 1
                                    }
                                }
                            }
                        };
                        let chain = slots[token].chain.take().expect("parked chain present");
                        outstanding += 1;
                        if outstanding > spawned && spawned < workers {
                            // One more unit of concurrent chunk work than
                            // workers to run it: grow the pool.
                            spawned += 1;
                            let msg_tx = msg_tx.clone();
                            scope.spawn(move || {
                                let mut state = worker_state();
                                loop {
                                    let received = task_rx.lock().expect("queue poisoned").recv();
                                    let Ok(Task {
                                        token,
                                        lane,
                                        policy,
                                        mut chain,
                                    }) = received
                                    else {
                                        break;
                                    };
                                    // A panicking `step` would otherwise
                                    // strand this chain's permit and deadlock
                                    // the dispatcher: catch it. Under a
                                    // containing policy the chain survives
                                    // and the dispatcher decides its fate;
                                    // under `Fail`, tell the dispatcher to
                                    // abort, then rethrow so the scope
                                    // propagates it after teardown.
                                    let contain = policy != FaultPolicy::Fail;
                                    let outcome = if contain {
                                        step_contained(|| step(&mut state, lane, &mut chain))
                                    } else {
                                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(
                                            || step(&mut state, lane, &mut chain),
                                        ))
                                    };
                                    let msg = match outcome {
                                        Ok(ChainStep::Parked { units }) => WorkerMsg::Parked {
                                            token,
                                            chain,
                                            units,
                                        },
                                        Ok(ChainStep::Finished {
                                            output,
                                            units,
                                            cancelled,
                                        }) => WorkerMsg::Finished {
                                            token,
                                            output,
                                            units,
                                            cancelled,
                                        },
                                        Err(panic) if contain => {
                                            // The closure only borrowed the
                                            // chain, so it survived the
                                            // unwind intact.
                                            let (kind, message) = classify_panic(panic);
                                            WorkerMsg::Faulted {
                                                token,
                                                chain,
                                                kind,
                                                message,
                                            }
                                        }
                                        Err(panic) => {
                                            let _ = msg_tx.send(WorkerMsg::Panicked);
                                            std::panic::resume_unwind(panic);
                                        }
                                    };
                                    if msg_tx.send(msg).is_err() {
                                        break;
                                    }
                                }
                            });
                        }
                        let lane = slots[token].lane;
                        let policy = policies[lane];
                        if task_tx
                            .send(Task {
                                token,
                                lane,
                                policy,
                                chain,
                            })
                            .is_err()
                        {
                            break 'run; // workers gone: shutdown underway
                        }
                    }

                    if outstanding == 0 {
                        if sched.all_exhausted() {
                            // Every source drained, every chain retired.
                            // Let the emitter catch up — its sinks run and
                            // may enqueue control commands — then poll once
                            // more before concluding.
                            if !gate.await_idle() {
                                break 'run; // shutdown
                            }
                            pending_commands.extend(feed.poll());
                            if pending_commands.is_empty() {
                                break 'run; // truly done
                            }
                            continue 'run;
                        }
                        // No chain is live, yet the gate is full: every
                        // permit is held by finished reads awaiting in-order
                        // emission. Wait for the emitter to free one.
                        if !gate.acquire() {
                            break 'run; // shutdown
                        }
                        gate.release();
                        continue;
                    }

                    // Wait for a worker to park or retire a chain.
                    let Ok(msg) = msg_rx.recv() else { break 'run };
                    match msg {
                        WorkerMsg::Parked {
                            token,
                            chain,
                            units,
                        } => {
                            outstanding -= 1;
                            tick += units;
                            slots[token].chain = Some(chain);
                            ready[slots[token].lane].push_back(token);
                        }
                        WorkerMsg::Finished {
                            token,
                            output,
                            units,
                            cancelled,
                        } => {
                            outstanding -= 1;
                            tick += units;
                            let lane = slots[token].lane;
                            let seq = slots[token].seq;
                            let start_tick = slots[token].start_tick;
                            free_tokens.push(token);
                            live[lane] -= 1;
                            // Residency feedback for Schedule::Deadline: the
                            // same number that becomes this read's latency
                            // sample.
                            sched.observe(lane, tick - start_tick);
                            if src_dry[lane]
                                && live[lane] == 0
                                && !retire_lane(
                                    &mut sched,
                                    &mut detaching,
                                    &emit_tx,
                                    &mut next_seq,
                                    lane,
                                )
                            {
                                break 'run;
                            }
                            if cancelled {
                                // The ER verdict: the read's remaining
                                // chunks were never scheduled, and its
                                // permit goes back *now*, not at emission.
                                // Its result joins the soft-gated backlog
                                // until its in-order emission slot.
                                counters.lock().expect("counters poisoned").inflight[lane] -= 1;
                                gate.release();
                                gate.push_backlog();
                            }
                            let sent = emit_tx.send(EmitMsg {
                                seq,
                                lane,
                                kind: EmitKind::Output {
                                    output,
                                    holds_permit: !cancelled,
                                    resident_units: tick - start_tick,
                                },
                            });
                            if sent.is_err() {
                                break 'run; // emitter gone (sink panicked)
                            }
                        }
                        WorkerMsg::Faulted {
                            token,
                            chain,
                            kind,
                            message,
                        } => {
                            outstanding -= 1;
                            slots[token].attempts += 1;
                            let lane = slots[token].lane;
                            let attempts = slots[token].attempts;
                            if attempts <= policies[lane].retry_attempts() {
                                // Transient budget left: rewind the chain
                                // and park it; the schedule will pick it
                                // back up like any other resident chain.
                                counters.lock().expect("counters poisoned").retried[lane] += 1;
                                slots[token].chain = Some(retry(lane, chain));
                                ready[lane].push_back(token);
                            } else {
                                // Quarantine: retire the chain like a
                                // cancelled read — permit back now, result
                                // into the backlog for in-order emission.
                                let seq = slots[token].seq;
                                let start_tick = slots[token].start_tick;
                                free_tokens.push(token);
                                live[lane] -= 1;
                                sched.observe(lane, tick - start_tick);
                                if src_dry[lane]
                                    && live[lane] == 0
                                    && !retire_lane(
                                        &mut sched,
                                        &mut detaching,
                                        &emit_tx,
                                        &mut next_seq,
                                        lane,
                                    )
                                {
                                    break 'run;
                                }
                                counters.lock().expect("counters poisoned").inflight[lane] -= 1;
                                gate.release();
                                gate.push_backlog();
                                let output = fault(
                                    lane,
                                    chain,
                                    FaultInfo {
                                        kind,
                                        message,
                                        attempts,
                                    },
                                );
                                let sent = emit_tx.send(EmitMsg {
                                    seq,
                                    lane,
                                    kind: EmitKind::Output {
                                        output,
                                        holds_permit: false,
                                        resident_units: tick - start_tick,
                                    },
                                });
                                if sent.is_err() {
                                    break 'run; // emitter gone (sink panicked)
                                }
                            }
                        }
                        WorkerMsg::Panicked => break 'run,
                    }
                }
                // `task_tx`, `msg_rx`, and `emit_tx` drop here: workers and
                // the emit loop wind down with the dispatcher.
            });
        }

        // Reorder + emit on the calling thread, in global admission order.
        // Chains retire out of order; outputs wait in the map until every
        // earlier-admitted read has been emitted. Surviving reads hold
        // their permit to this point; cancelled reads released theirs at
        // the verdict, so this backlog is what the early release bought.
        let mut pending: BTreeMap<u64, EmitMsg<O>> = BTreeMap::new();
        let mut next_emit = 0u64;
        for msg in emit_rx.iter() {
            pending.insert(msg.seq, msg);
            while let Some(m) = pending.remove(&next_emit) {
                next_emit += 1;
                match m.kind {
                    EmitKind::Output {
                        output,
                        holds_permit,
                        resident_units,
                    } => {
                        lane_samples[m.lane].push(resident_units);
                        emit(m.lane, LaneEvent::Output(output));
                        if holds_permit {
                            counters.lock().expect("counters poisoned").inflight[m.lane] -= 1;
                            gate.release();
                        } else {
                            gate.pop_backlog();
                        }
                    }
                    EmitKind::Attached => {
                        // The marker precedes the lane's first output, so
                        // growing here keeps every later Output index in
                        // bounds.
                        if lane_samples.len() <= m.lane {
                            lane_samples.resize_with(m.lane + 1, Vec::new);
                        }
                        emit(m.lane, LaneEvent::Attached);
                    }
                    EmitKind::Detached => {
                        // The lane's last output was emitted above (lower
                        // seq): its stats are final.
                        let (max_in_flight, retried) = {
                            let counters = counters.lock().expect("counters poisoned");
                            (counters.high[m.lane], counters.retried[m.lane])
                        };
                        let latency = LatencyStats::from_samples(&mut lane_samples[m.lane]);
                        emit(
                            m.lane,
                            LaneEvent::Detached(LaneStats {
                                max_in_flight,
                                retried,
                                latency,
                            }),
                        );
                    }
                }
            }
        }
    });

    let mut counters = counters.into_inner().expect("counters poisoned");
    // Attached lanes grew the sample map (on the emitter) and the counters
    // (on the dispatcher) independently; normalize to one final width.
    let final_lanes = lane_samples.len().max(counters.high.len());
    lane_samples.resize_with(final_lanes, Vec::new);
    if final_lanes > 0 {
        counters.ensure(final_lanes - 1);
    }
    EngineStats {
        in_flight_limit: limit,
        max_in_flight: gate.high_water(),
        retried: counters.retried.iter().sum(),
        max_reject_backlog: gate.backlog_high_water(),
        latency: aggregate_latency(&mut lane_samples),
        lanes: lane_samples
            .iter_mut()
            .zip(&counters.high)
            .zip(&counters.retried)
            .map(|((samples, high), retried)| LaneStats {
                max_in_flight: *high,
                retried: *retried,
                latency: LatencyStats::from_samples(samples),
            })
            .collect(),
    }
}

/// Retires a lane on the dispatcher: marks it exhausted in the schedule
/// and, if the lane is being detached, sends its in-order
/// [`EmitKind::Detached`] marker. `false` means the emitter is gone and
/// the dispatcher must shut down.
fn retire_lane<O>(
    sched: &mut SchedulerState,
    detaching: &mut [bool],
    emit_tx: &mpsc::Sender<EmitMsg<O>>,
    next_seq: &mut u64,
    lane: usize,
) -> bool {
    sched.exhausted(lane);
    if std::mem::replace(&mut detaching[lane], false) {
        let seq = *next_seq;
        *next_seq += 1;
        return emit_tx
            .send(EmitMsg {
                seq,
                lane,
                kind: EmitKind::Detached,
            })
            .is_ok();
    }
    true
}

/// The percentile summary of all lanes' residency samples together.
fn aggregate_latency(lane_samples: &mut [Vec<u64>]) -> LatencyStats {
    let mut all: Vec<u64> = lane_samples.iter().flatten().copied().collect();
    LatencyStats::from_samples(&mut all)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{ErMode, PipelineRun};
    use genpip_datasets::{DatasetProfile, SimulatedDataset, StreamingSimulator};

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
    fn zero_reject_backlog_is_rejected() {
        let err = tiny_session()
            .options(StreamOptions {
                reject_backlog: 0,
                ..StreamOptions::default()
            })
            .run()
            .unwrap_err();
        assert_eq!(err, SessionError::ZeroRejectBacklog);
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
        assert_eq!(fin.retried, report.retried);
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
            .checkpoint(3, move |cut| sink_cuts.borrow_mut().push(cut.clone()))
            .run_with_control(&control)
            .expect("valid session");
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
            SessionError::ZeroRejectBacklog.to_string(),
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
            SessionError::DeadlineTargetCount {
                sources: 2,
                targets: 1,
            }
            .to_string(),
            SessionError::ZeroDeadlineTarget("x".into()).to_string(),
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
        assert_eq!(report.latency.reads, d.reads.len());
        assert!(report.latency.p50 <= report.latency.p99);
        assert!(report.latency.p99 <= report.latency.max);
    }

    #[test]
    fn read_granularity_matches_chunk_granularity() {
        let d = dataset();
        let config =
            GenPipConfig::for_dataset(&d.profile).with_parallelism(Parallelism::Threads(2));
        for flow in [Flow::GenPip(ErMode::Full), Flow::Conventional] {
            let mut by_read = Vec::new();
            Session::new(config.clone())
                .flow(flow)
                .granularity(Granularity::Read)
                .source("s", d.stream())
                .sink("s", |event| {
                    if let StreamEvent::Read(run) = event {
                        by_read.push(run);
                    }
                })
                .run()
                .expect("valid session");
            let mut by_chunk = Vec::new();
            Session::new(config.clone())
                .flow(flow)
                .granularity(Granularity::Chunk)
                .source("s", d.stream())
                .sink("s", |event| {
                    if let StreamEvent::Read(run) = event {
                        by_chunk.push(run);
                    }
                })
                .run()
                .expect("valid session");
            assert_eq!(by_read, by_chunk, "{flow:?}");
        }
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

    #[test]
    fn transient_faults_succeed_on_retry() {
        // A step that panics on each read's second task, first pass only:
        // under `Retry { attempts: 1 }` the chain is rewound mid-read,
        // replayed from scratch, and every read comes out exactly once,
        // bit-identical to a fault-free run. This is the transient-fault
        // path the injector (whose faults are permanent, baked into the
        // data) cannot exercise.
        let d = dataset();
        let config =
            GenPipConfig::for_dataset(&d.profile).with_parallelism(Parallelism::Threads(2));
        let ctx = RunContext::from_source(&d.stream(), &config);
        let tasks_run = std::sync::Mutex::new(std::collections::HashMap::new());
        let mut pending = d.reads.iter();
        let control = SessionControl::new();
        let mut emitted = Vec::new();
        let stats = session_engine(
            EngineConfig {
                workers: 2,
                queue_capacity: 2,
                reject_backlog: 256,
                lanes: 1,
                schedule: &Schedule::Sequential,
                policies: &[FaultPolicy::Retry { attempts: 1 }],
                control: &control,
            },
            || WorkerScratch::new(&ctx),
            |_| {
                let read = pending.next()?.clone();
                Some(ReadChain::new(Some(ErMode::Full), read))
            },
            |scratch, _lane, chain: &mut ReadChain| {
                let nth = {
                    let mut tasks_run = tasks_run.lock().unwrap();
                    let nth = tasks_run.entry(chain.read_id()).or_insert(0u32);
                    *nth += 1;
                    *nth
                };
                if nth == 2 {
                    panic!("transient fault on read {}", chain.read_id());
                }
                chain.step(&ctx, scratch)
            },
            |_lane, chain| chain.retry(),
            |_lane, _chain, info: FaultInfo| -> crate::pipeline::ReadRun {
                unreachable!("no read should exhaust its retry budget: {}", info.message)
            },
            |_, event| {
                if let LaneEvent::Output(run) = event {
                    emitted.push(run);
                }
            },
        );
        let clean = PipelineRun::collect(&d, &config, Flow::GenPip(ErMode::Full));
        assert_eq!(emitted, clean.reads);
        // Every read with a second task faulted there once.
        let multi_task = clean.reads.iter().filter(|r| r.chunks.len() > 1).count();
        assert!(multi_task > 0);
        assert_eq!(stats.retried, multi_task);
    }

    #[test]
    fn worker_panic_propagates_instead_of_deadlocking() {
        // Run the engine with a step function that panics partway through,
        // under a watchdog: a regression back to the deadlock (stranded
        // gate permit → dispatcher and emit loop blocked forever) fails the
        // test at the timeout instead of hanging the suite.
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let d = dataset();
            let config =
                GenPipConfig::for_dataset(&d.profile).with_parallelism(Parallelism::Threads(2));
            let ctx = RunContext::from_source(&d.stream(), &config);
            let mut pending = d.reads.iter();
            let control = SessionControl::new();
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                session_engine(
                    EngineConfig {
                        workers: 2,
                        queue_capacity: 1,
                        reject_backlog: 256,
                        lanes: 1,
                        schedule: &Schedule::Sequential,
                        policies: &[FaultPolicy::Fail],
                        control: &control,
                    },
                    || WorkerScratch::new(&ctx),
                    |_| {
                        let read = pending.next()?.clone();
                        Some(ReadChain::new(Some(ErMode::Full), read))
                    },
                    |scratch, _lane, chain: &mut ReadChain| {
                        assert!(chain.read_id() != 3, "injected failure on read 3");
                        chain.step(&ctx, scratch)
                    },
                    |_lane, chain| chain,
                    |_lane, _chain, _info| -> crate::pipeline::ReadRun {
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
}
