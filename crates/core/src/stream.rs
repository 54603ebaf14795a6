//! Streaming vocabulary: the types every [`crate::engine::Session`]
//! consumer speaks — [`StreamOptions`], [`StreamEvent`],
//! [`ProgressSnapshot`], [`StreamSummary`] — plus [`FastqSink`], the
//! on-disk half of a streaming session. The guarantees these types describe
//! (bounded memory, in-order emission, bit-identity across every
//! [`crate::Parallelism`]) are *session* guarantees — see the
//! [`crate::engine`] module docs for the execution model.

use crate::pipeline::{ReadOutcome, ReadRun, WorkloadTotals};
use genpip_genomics::fastx::FastqWriter;
use std::io;

/// Knobs of the streaming transport (never affects results).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamOptions {
    /// Staging headroom between the sources and the workers. The enforced
    /// invariant is on the *total*: reads resident anywhere (queued,
    /// processing, or awaiting in-order emission) never exceed
    /// `queue_capacity + workers`; one permit gate bounds the whole
    /// pipeline rather than each channel separately (see
    /// [`StreamSummary::max_in_flight`]). A `Session` rejects 0 with a
    /// typed error ([`crate::engine::SessionError::ZeroQueueCapacity`]).
    pub queue_capacity: usize,
    /// Emit a [`ProgressSnapshot`] through the sink every this many reads
    /// (0 disables snapshots). In a multi-source session the cadence is per
    /// source, counted in that source's own reads.
    pub progress_every: usize,
    /// Admission control for live sessions: the most sources that may be
    /// attached (builder-registered plus control-plane
    /// [`crate::engine::SessionControl::attach`]) and not yet detached at
    /// any one time. A builder that already exceeds the bound is rejected
    /// up front, an attach that would exceed it is refused with
    /// [`crate::engine::SessionError::TooManySources`] — sources whose
    /// detach has been requested no longer count.
    pub max_sources: usize,
}

impl Default for StreamOptions {
    /// A small queue (8), no progress snapshots, and room for 64
    /// concurrently-attached sources.
    fn default() -> StreamOptions {
        StreamOptions {
            queue_capacity: 8,
            progress_every: 0,
            max_sources: 64,
        }
    }
}

/// Running outcome counters, emitted periodically through the sink and
/// returned (final values) in the [`StreamSummary`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProgressSnapshot {
    /// Reads emitted so far.
    pub reads_emitted: usize,
    /// …of which mapped.
    pub mapped: usize,
    /// …of which ER-QSR rejected.
    pub rejected_qsr: usize,
    /// …of which ER-CMR rejected.
    pub rejected_cmr: usize,
    /// …of which discarded by whole-read quality control.
    pub filtered_qc: usize,
    /// …of which fully processed but unmapped.
    pub unmapped: usize,
    /// Reads quarantined after a fault (counted in `reads_emitted`; see
    /// [`StreamEvent::Failed`]).
    pub failed: usize,
    /// Raw samples basecalled so far.
    pub samples_basecalled: usize,
}

impl ProgressSnapshot {
    pub(crate) fn observe(&mut self, run: &ReadRun) {
        self.reads_emitted += 1;
        self.samples_basecalled += run.basecalled_samples();
        match run.outcome {
            ReadOutcome::Mapped(_) => self.mapped += 1,
            ReadOutcome::RejectedQsr { .. } => self.rejected_qsr += 1,
            ReadOutcome::RejectedCmr { .. } => self.rejected_cmr += 1,
            ReadOutcome::FilteredQc { .. } => self.filtered_qc += 1,
            ReadOutcome::Unmapped { .. } => self.unmapped += 1,
        }
    }

    pub(crate) fn observe_failed(&mut self) {
        self.reads_emitted += 1;
        self.failed += 1;
    }
}

/// What kind of fault took a read out of its run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The signal failed an integrity check (a sample that is non-finite, or
    /// too large to square) before decoding — the typed fault the basecaller
    /// raises for corrupt input.
    CorruptSignal,
    /// The read's task panicked for any other reason.
    Panic,
}

/// Why a read was quarantined: the fault kind and where in the read it
/// struck.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadFault {
    /// What struck (see [`FaultKind`]).
    pub kind: FaultKind,
    /// The panic payload, rendered as a string.
    pub message: String,
    /// The chunk whose basecall or seed work was running when the fault
    /// struck, in either flow (so a bad sample names its chunk). `None`
    /// outside the chunk loops: before the first chunk, or in whole-read
    /// QC and the final mapping.
    pub chunk: Option<usize>,
}

impl std::fmt::Display for ReadFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}", self.kind)?;
        if let Some(chunk) = self.chunk {
            write!(f, " at chunk {chunk}")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// What streaming sinks receive.
//
// `Read` dwarfs the other variants, but it is also ~all of the traffic:
// boxing it would cost an allocation per emitted read to shrink the rare
// control-flow variants, and would churn every sink's match arms.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum StreamEvent {
    /// One finished read, delivered in its source's read order.
    Read(ReadRun),
    /// One quarantined read, delivered in its source's read order like any
    /// other result. Only emitted under `FaultPolicy::Quarantine`; under
    /// the default `FaultPolicy::Fail` a fault tears the session down
    /// instead.
    Failed {
        /// The faulting read's id.
        read_id: u32,
        /// What happened to it.
        fault: ReadFault,
    },
    /// Periodic counters (cadence set by [`StreamOptions::progress_every`]),
    /// delivered immediately after the read that triggered them.
    Progress(ProgressSnapshot),
}

/// Always all-zero: the engine's work-unit residency clock that filled
/// this in was deleted in PR 23 (what a sink experiences is wall-clock
/// delivery latency, which the end-to-end benchmark measures from outside).
/// The type and its fields stay only because `benchmarks/src/run.rs` reads
/// [`crate::engine::SessionReport::latency`]; it goes with the `benchmark`
/// PR that retires `engine.residency_units_p50` / `_p99`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyStats {
    /// Always 0.
    pub reads: usize,
    /// Always 0.
    pub p50: u64,
    /// Always 0.
    pub p99: u64,
    /// Always 0.
    pub max: u64,
}

/// What a streaming run leaves behind: aggregate counters only, O(1) in the
/// dataset size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamSummary {
    /// Final outcome counters (its `reads_emitted` is the total read
    /// count).
    pub outcomes: ProgressSnapshot,
    /// Aggregate workload counters over all emitted reads — what
    /// `PipelineRun::totals()` would report for the equivalent batch run.
    pub totals: WorkloadTotals,
    /// Worker threads used.
    pub workers: usize,
    /// The enforced bound on resident reads (`queue_capacity + workers`; 1
    /// with a single worker).
    pub in_flight_limit: usize,
    /// High-water mark of **resident reads**: pulled from their source and
    /// not yet emitted in order, whatever their outcome (an early-rejected
    /// read stops computing at its QSR/CMR verdict but keeps its permit
    /// until its emission slot). Always ≤ `in_flight_limit`.
    pub max_in_flight: usize,
}

/// A [`StreamEvent`] consumer that writes every fully-basecalled read as a
/// FASTQ record — the on-disk half of a streaming session.
///
/// Requires the run's [`crate::GenPipConfig::keep_bases`] to be set so
/// emitted [`ReadRun`]s carry their sequence; reads without assembled bases
/// (early-rejected ones, or any read when `keep_bases` is off) are counted
/// in [`FastqSink::skipped`] instead of written. I/O errors are sticky:
/// writing stops at the first one and [`FastqSink::finish`] reports it.
///
/// ```no_run
/// use genpip_core::engine::{Flow, Session};
/// use genpip_core::stream::FastqSink;
/// use genpip_core::{ErMode, GenPipConfig};
/// use genpip_datasets::{DatasetProfile, StreamingSimulator};
///
/// let profile = DatasetProfile::ecoli().scaled(0.05);
/// let config = GenPipConfig::for_dataset(&profile).with_keep_bases(true);
/// let file = std::fs::File::create("reads.fastq").expect("create");
/// let mut sink = FastqSink::new(std::io::BufWriter::new(file));
/// Session::new(config)
///     .flow(Flow::GenPip(ErMode::Full))
///     .source("run", StreamingSimulator::new(&profile))
///     .sink("run", |event| sink.handle(&event))
///     .run()
///     .expect("valid session");
/// let (written, _) = sink.finish().expect("fastq written");
/// println!("{written} records");
/// ```
pub struct FastqSink<W: io::Write> {
    writer: FastqWriter<W>,
    skipped: usize,
    error: Option<io::Error>,
}

impl<W: io::Write> FastqSink<W> {
    /// Wraps a writer; records are named `read<id>`.
    pub fn new(writer: W) -> FastqSink<W> {
        FastqSink {
            writer: FastqWriter::new(writer),
            skipped: 0,
            error: None,
        }
    }

    /// Consumes one stream event: [`StreamEvent::Read`]s with assembled
    /// bases become FASTQ records, everything else is ignored.
    pub fn handle(&mut self, event: &StreamEvent) {
        let StreamEvent::Read(run) = event else {
            return;
        };
        let Some(called) = &run.called else {
            self.skipped += 1;
            return;
        };
        if self.error.is_some() {
            return;
        }
        let name = format!("read{}", run.id);
        if let Err(e) = self.writer.write_record(&name, &called.seq, &called.quals) {
            self.error = Some(e);
        }
    }

    /// Records written so far.
    pub fn written(&self) -> usize {
        self.writer.records()
    }

    /// Reads skipped because they carried no assembled bases.
    pub fn skipped(&self) -> usize {
        self.skipped
    }

    /// Whether a write error has struck (writing stopped at it; the error
    /// itself comes out of [`FastqSink::finish`]). Sinks that want to stop
    /// a session promptly poll this and call
    /// [`crate::engine::SessionControl::drain`] on the first error, instead
    /// of pulling reads they can no longer persist.
    pub fn has_error(&self) -> bool {
        self.error.is_some()
    }

    /// Flushes buffered records to the underlying writer — the
    /// checkpoint-time operation. (Dropping the sink also flushes,
    /// best-effort, via [`FastqWriter`]'s drop.)
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the flush.
    pub fn flush(&mut self) -> io::Result<()> {
        self.writer.flush()
    }

    /// Flushes, then reports the underlying writer's byte position — what a
    /// checkpoint records so a resumed run can truncate the file back to a
    /// record boundary before appending.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the flush or the seek.
    pub fn position(&mut self) -> io::Result<u64>
    where
        W: io::Seek,
    {
        self.writer.position()
    }

    /// Flushes and returns the record count and the underlying writer, or
    /// the first error hit.
    pub fn finish(self) -> io::Result<(usize, W)> {
        if let Some(e) = self.error {
            return Err(e);
        }
        let records = self.writer.records();
        let inner = self.writer.finish()?;
        Ok((records, inner))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{GenPipConfig, Parallelism};
    use crate::engine::{Flow, Session, SessionReport};
    use crate::pipeline::{ErMode, PipelineRun};
    use genpip_datasets::{DatasetProfile, ReadSource, SimulatedDataset};

    fn dataset() -> SimulatedDataset {
        DatasetProfile::ecoli().scaled(0.03).generate()
    }

    fn collect_streaming(
        source: impl ReadSource + Send,
        config: &GenPipConfig,
        opts: StreamOptions,
        mut sink: impl FnMut(StreamEvent),
    ) -> SessionReport {
        Session::new(config.clone())
            .flow(Flow::GenPip(ErMode::Full))
            .options(opts)
            .source("stream", source)
            .sink("stream", &mut sink)
            .run()
            .expect("valid session")
    }

    #[test]
    fn streaming_is_bit_identical_to_batch_and_respects_the_bound() {
        let d = dataset();
        let base = GenPipConfig::for_dataset(&d.profile);
        for parallelism in [Parallelism::Serial, Parallelism::Threads(3)] {
            let config = base.clone().with_parallelism(parallelism);
            let batch = PipelineRun::collect(&d, &config, Flow::GenPip(ErMode::Full));
            let opts = StreamOptions {
                queue_capacity: 2,
                ..StreamOptions::default()
            };
            let mut reads = Vec::new();
            let report = collect_streaming(d.stream(), &config, opts, |event| {
                if let StreamEvent::Read(run) = event {
                    reads.push(run);
                }
            });
            assert_eq!(reads, batch.reads, "{parallelism:?}");
            assert_eq!(report.totals, batch.totals(), "{parallelism:?}");
            assert_eq!(report.outcomes.reads_emitted, d.reads.len());
            assert!(
                report.max_in_flight <= report.in_flight_limit,
                "{parallelism:?}: {} in flight, limit {}",
                report.max_in_flight,
                report.in_flight_limit
            );
        }
    }

    #[test]
    fn serial_streaming_keeps_one_read_in_flight() {
        let d = dataset();
        let config = GenPipConfig::for_dataset(&d.profile).with_parallelism(Parallelism::Serial);
        let report = collect_streaming(d.stream(), &config, StreamOptions::default(), |_| {});
        assert_eq!(report.workers, 1);
        assert_eq!(report.in_flight_limit, 1);
        assert_eq!(report.max_in_flight, 1);
    }

    #[test]
    fn progress_snapshots_fire_on_cadence_and_count_outcomes() {
        let d = dataset();
        let config =
            GenPipConfig::for_dataset(&d.profile).with_parallelism(Parallelism::Threads(2));
        let every = 5usize;
        let opts = StreamOptions {
            queue_capacity: 4,
            progress_every: every,
            ..StreamOptions::default()
        };
        let mut snapshots = Vec::new();
        let mut reads_seen = 0usize;
        let report = collect_streaming(d.stream(), &config, opts, |event| match event {
            StreamEvent::Read(_) => reads_seen += 1,
            StreamEvent::Progress(snap) => {
                assert_eq!(snap.reads_emitted, reads_seen, "snapshot lags its read");
                snapshots.push(snap);
            }
            StreamEvent::Failed { fault, .. } => {
                panic!("fault-free run emitted a failure: {fault}")
            }
        });
        assert_eq!(snapshots.len(), d.reads.len() / every);
        for pair in snapshots.windows(2) {
            assert!(pair[1].reads_emitted == pair[0].reads_emitted + every);
            assert!(pair[1].samples_basecalled >= pair[0].samples_basecalled);
        }
        let f = report.outcomes;
        assert_eq!(
            f.mapped + f.rejected_qsr + f.rejected_cmr + f.filtered_qc + f.unmapped,
            f.reads_emitted
        );
        assert_eq!(f.reads_emitted, d.reads.len());
    }

    #[test]
    fn empty_source_streams_cleanly() {
        let d = dataset();
        let config =
            GenPipConfig::for_dataset(&d.profile).with_parallelism(Parallelism::Threads(2));
        struct Empty<'a>(genpip_datasets::DatasetStream<'a>);
        impl ReadSource for Empty<'_> {
            fn reference(&self) -> &genpip_genomics::Genome {
                self.0.reference()
            }
            fn pore_model(&self) -> &genpip_signal::PoreModel {
                self.0.pore_model()
            }
            fn mean_dwell(&self) -> f64 {
                self.0.mean_dwell()
            }
            fn next_read(&mut self) -> Option<genpip_datasets::SimulatedRead> {
                None
            }
        }
        let mut events = 0usize;
        let report =
            collect_streaming(Empty(d.stream()), &config, StreamOptions::default(), |_| {
                events += 1
            });
        assert_eq!(events, 0);
        assert_eq!(report.outcomes, ProgressSnapshot::default());
        // The feeder holds one permit while probing the (empty) source — a
        // read being pulled counts as in flight — so the high-water mark is
        // at most the probe itself.
        assert!(report.max_in_flight <= 1);
    }
}
