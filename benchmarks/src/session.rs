//! One pass of a workload's reads through `genpip_core::Session`, with the
//! stamping wrappers and output checks of [`crate::probe`] wired in.

use crate::host::{process_cpu_s, Reference};
use crate::probe::{DeliveryCheck, Failures, NoReads, StampedSource, Stamps};
use crate::workload::{Inputs, CHECKPOINT_EVERY};
use genpip_core::{FastqSink, Flow, GenPipConfig, Parallelism, ReadRun, Session, SessionReport};
use genpip_io::{CheckpointFile, FastqMark, SourceMark};
use std::cell::{Cell, RefCell};
use std::fs::File;
use std::io::BufWriter;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// The id the single source is registered under.
const SOURCE: &str = "bench";

/// Where the replay workload writes its FASTQ output and checkpoints.
pub struct OutputFiles {
    pub fastq: PathBuf,
    pub checkpoint: PathBuf,
}

/// The clocks of one pass. The sink times one [`Reference::burst`] after
/// every delivered read; the pass's clocks leave those bursts out: the CPU
/// clock always, the wall clock when the sink runs in line with the work
/// (the serial engine) and not when it runs on the caller's thread beside
/// the workers.
#[derive(Debug, Clone, Default)]
pub struct PassTiming {
    /// First pull → `Session::run` returned and the outputs are flushed.
    pub wall_s: f64,
    /// Process CPU over the same interval.
    pub cpu_s: f64,
    /// Pull → delivery of each read, in delivery order.
    pub latencies_ms: Vec<f64>,
    /// Wall and process-CPU seconds since the first pull at which each read
    /// was delivered: what cuts the pass into segments.
    pub delivered_wall_s: Vec<f64>,
    pub delivered_cpu_s: Vec<f64>,
    /// Nanoseconds the reference burst after each delivered read took.
    pub bursts_ns: Vec<f64>,
}

/// What one pass measured and checked.
pub struct Pass {
    pub timing: PassTiming,
    /// The pass's `ReadRun`s, when no reference pass was given.
    pub runs: Vec<ReadRun>,
    pub report: SessionReport,
    /// Time inside `next_read` / inside the sink closure.
    pub pull_s: f64,
    pub sink_s: f64,
    pub fastq_write_s: f64,
    pub fastq_bytes: u64,
    pub fastq_records: usize,
    pub checkpoint_s: f64,
    pub checkpoints: usize,
    pub failures: Failures,
}

/// Runs one session over a fresh source on `inputs`. With `files`, every
/// fully basecalled read is written as FASTQ and a checkpoint is cut every
/// [`CHECKPOINT_EVERY`] reads. With `reference`, every delivered `ReadRun`
/// must equal the reference pass's.
pub fn run_pass(
    inputs: &Inputs,
    config: GenPipConfig,
    flow: Flow,
    files: Option<&OutputFiles>,
    reference: Option<&[ReadRun]>,
) -> Result<Pass, String> {
    let n = inputs.truth.len();
    let sink_in_line = config.parallelism == Parallelism::Serial;
    let stamps = Stamps::new(n);
    let source = StampedSource::new(
        inputs.open().map_err(|e| e.to_string())?,
        Arc::clone(&stamps),
    );
    let check = RefCell::new(DeliveryCheck::new(Arc::clone(&stamps), n, reference));
    let fastq = match files {
        Some(f) => {
            let file = File::create(&f.fastq).map_err(|e| format!("{}: {e}", f.fastq.display()))?;
            Some(RefCell::new(FastqSink::new(BufWriter::new(file))))
        }
        None => None,
    };
    let (sink_ns, fastq_ns, checkpoint_ns) = (Cell::new(0u64), Cell::new(0u64), Cell::new(0u64));
    let checkpoints = Cell::new(0usize);
    let reference = RefCell::new(Reference::new());
    let bursts_ns = RefCell::new(Vec::with_capacity(n));
    let checkpoint_error: RefCell<Option<String>> = RefCell::new(None);
    let add = |cell: &Cell<u64>, since: Instant| {
        cell.set(cell.get() + since.elapsed().as_nanos() as u64);
    };

    let mut session =
        Session::new(config)
            .flow(flow)
            .source(SOURCE, source)
            .sink(SOURCE, |event| {
                let (delivered_ns, delivered_cpu_s) = (stamps.now_ns(), process_cpu_s());
                let entered = Instant::now();
                if let Some(fastq) = &fastq {
                    fastq.borrow_mut().handle(&event);
                    add(&fastq_ns, entered);
                }
                let delivered = {
                    let mut check = check.borrow_mut();
                    let before = check.delivered.len();
                    check.on_event(event, delivered_ns, delivered_cpu_s);
                    check.delivered.len() > before
                };
                add(&sink_ns, entered);
                if delivered {
                    bursts_ns.borrow_mut().push(reference.borrow_mut().burst());
                }
            });
    if let (Some(files), Some(fastq)) = (files, &fastq) {
        session = session.checkpoint(CHECKPOINT_EVERY, |cut| {
            let entered = Instant::now();
            let written = fastq
                .borrow_mut()
                .position()
                .map_err(|e| e.to_string())
                .and_then(|bytes| {
                    CheckpointFile {
                        sources: cut
                            .sources
                            .iter()
                            .map(|s| SourceMark {
                                name: s.id.as_str().to_string(),
                                emitted: s.outcomes.reads_emitted as u64,
                                failed: s.outcomes.failed as u64,
                            })
                            .collect(),
                        fastq: vec![FastqMark {
                            source: SOURCE.to_string(),
                            bytes,
                        }],
                        retried: cut.retried as u64,
                        complete: cut.complete,
                    }
                    .write_atomic(&files.checkpoint)
                    .map_err(|e| e.to_string())
                });
            if let Err(e) = written {
                checkpoint_error.borrow_mut().get_or_insert(e);
            }
            checkpoints.set(checkpoints.get() + 1);
            add(&checkpoint_ns, entered);
        });
    }
    let report = session.run().map_err(|e| e.to_string())?;

    let mut failures = Failures::default();
    let (mut fastq_records, mut fastq_bytes) = (0, 0);
    if let (Some(files), Some(fastq)) = (files, fastq) {
        let flushing = Instant::now();
        match fastq.into_inner().finish() {
            Ok((records, writer)) => {
                fastq_records = records;
                match writer.into_inner() {
                    Ok(file) => fastq_bytes = file.metadata().map_or(0, |m| m.len()),
                    Err(e) => failures.add(1, || format!("FASTQ flush failed: {e}")),
                }
            }
            Err(e) => failures.add(1, || format!("FASTQ write failed: {e}")),
        }
        add(&fastq_ns, flushing);
        if let Some(e) = checkpoint_error.into_inner() {
            failures.add(1, || format!("checkpoint write failed: {e}"));
        }
        match CheckpointFile::load(&files.checkpoint) {
            Ok(last) => {
                let emitted = last.source(SOURCE).map_or(0, |s| s.emitted);
                let marked = last.fastq_for(SOURCE).map_or(0, |f| f.bytes);
                let ok = last.complete && emitted == n as u64 && marked == fastq_bytes;
                failures.add(u64::from(!ok), || {
                    format!(
                        "final checkpoint: complete={} emitted={emitted}/{n} fastq={marked}/{fastq_bytes}",
                        last.complete
                    )
                });
            }
            Err(e) => failures.add(1, || format!("final checkpoint unreadable: {e}")),
        }
    }
    let (end_wall, end_cpu) = (Instant::now(), process_cpu_s());
    let (start_wall, start_cpu) = stamps
        .first_pull()
        .ok_or("the session never pulled from its source")?;

    let mut check = check.into_inner();
    check.finish();
    failures.add(check.failures.count, || check.failures.notes.join("; "));
    let engine_failed = report.outcomes.failed as u64;
    failures.add(
        u64::from(engine_failed > 0 && check.failures.count == 0),
        || format!("the session reports {engine_failed} failed reads the sink never saw"),
    );

    // Seconds of reference bursts before each delivery, and over the pass.
    let bursts_ns = bursts_ns.into_inner();
    let mut burst_s = 0.0;
    let bursts_before: Vec<f64> = bursts_ns
        .iter()
        .map(|ns| {
            let before = burst_s;
            burst_s += ns * 1e-9;
            before
        })
        .collect();
    let off_wall = |s: f64| if sink_in_line { s } else { 0.0 };
    let start_ns = stamps.ns_at(start_wall);
    let timing = PassTiming {
        wall_s: (end_wall - start_wall).as_secs_f64() - off_wall(burst_s),
        cpu_s: end_cpu - start_cpu - burst_s,
        delivered_wall_s: check
            .delivered
            .iter()
            .zip(&bursts_before)
            .map(|((ns, _), before)| ns.saturating_sub(start_ns) as f64 * 1e-9 - off_wall(*before))
            .collect(),
        delivered_cpu_s: check
            .delivered
            .iter()
            .zip(&bursts_before)
            .map(|((_, cpu), before)| cpu - start_cpu - before)
            .collect(),
        latencies_ms: check.latencies_ms,
        bursts_ns,
    };
    Ok(Pass {
        timing,
        runs: check.runs,
        report,
        pull_s: stamps.pull_busy_s(),
        sink_s: sink_ns.get() as f64 * 1e-9,
        fastq_write_s: fastq_ns.get() as f64 * 1e-9,
        fastq_bytes,
        fastq_records,
        checkpoint_s: checkpoint_ns.get() as f64 * 1e-9,
        checkpoints: checkpoints.get(),
        failures,
    })
}

/// One repetition of the set-up a user pays before the first read: open
/// the source (a GSC open parses and checksums header and offset table)
/// and run a session over no reads, which builds the minimizer index and
/// the basecaller and starts and stops the engine. Returns
/// `(total seconds, seconds of that spent opening the source)`.
pub fn setup_once(inputs: &Inputs, config: GenPipConfig, flow: Flow) -> Result<(f64, f64), String> {
    let start = Instant::now();
    let source = inputs.open().map_err(|e| e.to_string())?;
    let open_s = start.elapsed().as_secs_f64();
    let report = Session::new(config)
        .flow(flow)
        .source(SOURCE, NoReads(source))
        .run()
        .map_err(|e| e.to_string())?;
    let total = start.elapsed().as_secs_f64();
    if report.outcomes.reads_emitted != 0 {
        return Err("the no-read set-up session emitted reads".to_string());
    }
    Ok((total, open_s))
}
