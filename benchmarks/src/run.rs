//! One benchmark run: inputs from the seed, set-up repetitions, timed
//! passes, the untimed verification passes, and — with `--trace 1` — the
//! traced replays; then every metric of the mode.

use crate::host::{mt_workers, peak_rss_mb, reset_peak_rss, Reference, NOMINAL_BURST_NS};
use crate::kernels;
use crate::metrics::Values;
use crate::probe::Failures;
use crate::session::{run_pass, setup_once, OutputFiles, Pass, PassTiming};
use crate::stats::{
    fastest, fastest_index, median_each, percentile, quartiles, segment_durations, segment_means,
    spread,
};
use crate::trace::{
    chrome_trace_json, replay, Layers, OutcomeKind, SpanKind, SpanTotals, TracedRead, Tracer,
};
use crate::workload::{Inputs, ReadStore, Truth, Workload};
use genpip_basecall::metrics::identity;
use genpip_core::{ErMode, Flow, Parallelism, ReadRun};
use genpip_genomics::stats::{mean, median};
use genpip_genomics::ReadOrigin;
use genpip_mapping::Strand;
use std::path::{Path, PathBuf};
use std::time::Instant;

pub struct RunArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    /// Seconds to measure for: timed passes with `--trace 0`; timed passes
    /// alternating with traced replays with `--trace 1`.
    pub seconds: f64,
    pub trace: bool,
    /// Tiny inputs and two repetitions of everything: a smoke test, not a
    /// measurement.
    pub quick: bool,
    /// Where the run keeps its files (GSC container, FASTQ, checkpoint,
    /// `trace-<workload>.json`).
    pub out_dir: PathBuf,
}

pub struct RunOutcome {
    pub values: Values,
    /// Reads attempted over every pass and replay, and checks that failed.
    pub attempted: u64,
    pub failures: Failures,
    /// Expectations about how the workloads differ that did not hold
    /// (reported, and fatal only under `--strict-design`).
    pub design_notes: Vec<String>,
    /// Human-readable lines about the run (estimator inputs, caveats).
    pub notes: Vec<String>,
}

/// Segments a pass is cut into (see [`AtReferenceSpeed`]).
const SEGMENTS: usize = 32;

/// Reference bursts before and after each set-up repetition.
const SETUP_BURSTS: usize = 16;

/// Reads whose basecall identity is scored (a banded edit distance over
/// 3 kb reads is the one costly part of the accuracy pass).
const IDENTITY_READS: usize = 48;

pub fn run(args: &RunArgs) -> Result<RunOutcome, String> {
    let w = args.workload;
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
    let file = |ext: &str| {
        args.out_dir
            .join(format!("{}-{}.{ext}", w.name, std::process::id()))
    };
    let gsc_path = file("gsc");
    let files = OutputFiles {
        fastq: file("fastq"),
        checkpoint: file("ckpt"),
    };
    let result = measure(args, &gsc_path, &files);
    for path in [&gsc_path, &files.fastq, &files.checkpoint] {
        // Only the replay workload creates them.
        let _ = std::fs::remove_file(path);
    }
    result
}

/// Repeats `body` until `budget_s` would be overrun by one more repetition
/// as fast as the fastest so far, and at least `at_least` times.
fn repeat_within<T>(
    budget_s: f64,
    at_least: usize,
    mut body: impl FnMut(usize) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let clock = Instant::now();
    let mut done = Vec::new();
    let mut quickest = f64::INFINITY;
    while done.len() < at_least || clock.elapsed().as_secs_f64() + quickest <= budget_s {
        let start = Instant::now();
        done.push(body(done.len())?);
        quickest = quickest.min(start.elapsed().as_secs_f64());
    }
    Ok(done)
}

fn measure(args: &RunArgs, gsc_path: &Path, files: &OutputFiles) -> Result<RunOutcome, String> {
    let w = args.workload;
    let workers = if w.mt { mt_workers() } else { 1 };
    let config = w.config(workers);
    let files = w.replay.then_some(files);
    let mut failures = Failures::default();
    let mut notes = Vec::new();

    let inputs = Inputs::generate(w, args.seed, args.quick, gsc_path).map_err(|e| e.to_string())?;
    let n = inputs.truth.len();

    // Set-up, repeated: what a user pays before the first read.
    let setup_reps = match (args.quick, args.trace) {
        (true, _) => 2,
        (false, true) => 3,
        (false, false) => 9,
    };
    // Each repetition is divided by the host's slowdown just before and
    // just after it.
    let (mut setup_s, mut open_s) = (Vec::new(), Vec::new());
    let mut reference = Reference::new();
    let mut slowdown_before = reference.slowdown(SETUP_BURSTS);
    for _ in 0..setup_reps {
        let (total, open) = setup_once(&inputs, config.clone(), w.flow)?;
        let slowdown_after = reference.slowdown(SETUP_BURSTS);
        setup_s.push(total / ((slowdown_before + slowdown_after) / 2.0));
        open_s.push(open);
        slowdown_before = slowdown_after;
    }

    // Timed passes, back to back; every pass after the first must
    // reproduce the first's `ReadRun`s. With `--trace 1` a traced replay
    // follows each pass, so that both sample the same moments of the host.
    let layers = if args.trace {
        let source = inputs.open().map_err(|e| e.to_string())?;
        Some(Layers::build(&*source, &config))
    } else {
        None
    };
    let min_passes = if args.quick || args.trace { 2 } else { 4 };
    reset_peak_rss();
    let mut first_runs: Vec<ReadRun> = Vec::new();
    let mut replays: Vec<(Vec<TracedRead>, f64, Tracer)> = Vec::new();
    let passes = repeat_within(args.seconds, min_passes, |i| {
        let reference = (i > 0).then_some(first_runs.as_slice());
        let mut pass = run_pass(&inputs, config.clone(), w.flow, files, reference)?;
        if i == 0 {
            first_runs = std::mem::take(&mut pass.runs);
        }
        if let Some(layers) = &layers {
            let mut source = inputs.open().map_err(|e| e.to_string())?;
            let mut tracer = Tracer::new();
            let (reads, wall) = replay(layers, w.flow, &mut *source, &mut tracer);
            replays.push((reads, wall, tracer));
        }
        Ok(pass)
    })?;
    let timed_peak_rss_mb = peak_rss_mb();
    let runs = &first_runs;
    let first = &passes[0];
    for (i, pass) in passes.iter().enumerate() {
        failures.add(pass.failures.count, || {
            format!("pass {}: {}", i + 1, pass.failures.notes.join("; "))
        });
        let same_output =
            pass.fastq_bytes == first.fastq_bytes && pass.fastq_records == first.fastq_records;
        failures.add(u64::from(!same_output), || {
            format!("pass {}: FASTQ output differs from pass 1", i + 1)
        });
    }
    let mapped_contaminants = runs
        .iter()
        .zip(&inputs.truth)
        .filter(|(r, t)| t.origin == ReadOrigin::Contaminant && r.outcome.is_mapped())
        .count();
    failures.add(mapped_contaminants as u64, || {
        format!("{mapped_contaminants} contaminant reads mapped")
    });

    // Untimed: the oracle pass (no early rejection, bases kept) the
    // accuracy metrics are scored against, and for `_mt` workloads a
    // serial pass that must reproduce pass 1 bit for bit.
    let oracle = run_pass(
        &inputs,
        config.clone().with_keep_bases(true),
        Flow::GenPip(ErMode::None),
        None,
        None,
    )?;
    failures.add(oracle.failures.count, || {
        format!("oracle pass: {}", oracle.failures.notes.join("; "))
    });
    let serial = if w.mt {
        let pass = run_pass(
            &inputs,
            config.clone().with_parallelism(Parallelism::Serial),
            w.flow,
            None,
            Some(runs),
        )?;
        failures.add(pass.failures.count, || {
            format!("serial pass vs pass 1: {}", pass.failures.notes.join("; "))
        });
        Some(pass)
    } else {
        None
    };
    let mut attempted = ((passes.len() + 1 + usize::from(w.mt)) * n) as u64;
    let accuracy = Accuracy::score(runs, &oracle.runs, &inputs.truth);

    let walls: Vec<f64> = passes.iter().map(|p| p.timing.wall_s).collect();
    let timed = Timed {
        pass_wall: fastest(&walls),
        pass_cpu: fastest(&passes.iter().map(|p| p.timing.cpu_s).collect::<Vec<_>>()),
        best: &passes[fastest_index(&walls).expect("at least two passes ran")],
        passes: &passes,
    };
    let timings: Vec<&PassTiming> = passes.iter().map(|p| &p.timing).collect();
    let at_reference = AtReferenceSpeed::of(&timings, n);
    if let Some([q1, q2, q3]) = quartiles(&walls) {
        notes.push(format!(
            "pass wall over {} passes as measured: fastest {:.4} s, Q1 {q1:.4}, median {q2:.4}, \
             Q3 {q3:.4}, spread {:.3}; at reference speed {:.4} s",
            walls.len(),
            timed.pass_wall,
            spread(&walls),
            at_reference.pass_wall,
        ));
    }
    notes.push(format!(
        "pass walls (s) / host slowdown over the pass: {}",
        passes
            .iter()
            .map(|p| format!(
                "{:.3}/{:.3}",
                p.timing.wall_s,
                mean(&p.timing.bursts_ns) / NOMINAL_BURST_NS
            ))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    if w.replay {
        notes.push(
            "file reads are served from the page cache (the container was just written)".into(),
        );
    }
    notes.push(format!(
        "{workers} worker(s) on {} hardware thread(s); _mt wall numbers are not thread-scaling evidence",
        std::thread::available_parallelism().map_or(1, |p| p.get())
    ));

    let mut v = Values::default();
    let mut design_notes = Vec::new();
    if let Some(layers) = &layers {
        // Every traced replay is checked against the session's per-read
        // results: a trace that computes something else measures another
        // program.
        let mut source = inputs.open().map_err(|e| e.to_string())?;
        let kernel = kernels::measure(
            &layers.caller,
            layers.samples_per_chunk,
            &mut *source,
            if args.quick { 4 } else { kernels::CHUNKS },
        );
        drop(source);
        attempted += (replays.len() * n) as u64;
        for (i, (reads, _, _)) in replays.iter().enumerate() {
            let differing = if reads.len() == runs.len() {
                reads
                    .iter()
                    .zip(runs)
                    .filter(|(t, r)| !t.matches(r))
                    .count()
            } else {
                reads.len().max(runs.len())
            };
            failures.add(differing as u64, || {
                format!(
                    "traced replay {}: {differing} reads differ from the session's",
                    i + 1
                )
            });
        }
        let traced_walls: Vec<f64> = replays.iter().map(|r| r.1).collect();
        let best = fastest_index(&traced_walls).expect("at least two replays ran");
        let (reads, traced_wall, tracer) = &replays[best];
        let trace_path = args.out_dir.join(format!("trace-{}.json", w.name));
        std::fs::write(&trace_path, chrome_trace_json(&tracer.spans))
            .map_err(|e| format!("{}: {e}", trace_path.display()))?;
        // Traced against session, read by read: the median over all reads
        // of every replay of (the read's root span) ÷ (the same read's
        // pull → delivery latency in a serial session pass — the timed pass
        // just before the replay, or on `_mt` workloads the one serial
        // pass). A burst of interference hits a few reads, not the median.
        let mut per_read_ratios = Vec::new();
        for (i, (_, _, tracer)) in replays.iter().enumerate() {
            let session_ms = &serial.as_ref().unwrap_or(&passes[i]).timing.latencies_ms;
            for span in tracer.spans.iter().filter(|s| s.kind == SpanKind::Read) {
                if let Some(ms) = session_ms.get(span.read as usize).filter(|ms| **ms > 0.0) {
                    per_read_ratios.push(span.duration_ns() as f64 * 1e-6 / ms);
                }
            }
        }
        let trace_vs_session = median(&mut per_read_ratios);
        notes.push(format!(
            "traced wall: fastest {traced_wall:.4} s of {} replays ({}); its {} spans are in {}; \
             pipeline.trace_vs_session is the median of {} per-read ratios against {}",
            replays.len(),
            traced_walls
                .iter()
                .map(|w| format!("{w:.3}"))
                .collect::<Vec<_>>()
                .join(" "),
            tracer.spans.len(),
            trace_path.display(),
            per_read_ratios.len(),
            if serial.is_some() {
                "the one untimed serial pass"
            } else {
                "the timed pass before each replay"
            },
        ));
        per_layer(
            &mut v,
            &PerLayerInputs {
                inputs: &inputs,
                timed: &timed,
                reads,
                spans: SpanTotals::of(&tracer.spans),
                traced_wall: *traced_wall,
                trace_vs_session,
                layers,
                kernel: &kernel,
                open_s: fastest(&open_s),
                false_negatives: accuracy.false_negatives,
                calibration_ns: at_reference.burst_ns,
                failed: failures.count,
            },
        );
        design_notes = design_check(w, &v);
    } else {
        let samples = inputs.input_samples as f64;
        let basecalled: usize = runs.iter().map(ReadRun::basecalled_samples).sum();
        let latency = |p: f64| percentile(&mut at_reference.latencies_ms.clone(), p);
        v.set("setup_s", median(&mut setup_s));
        v.set(
            "throughput_msamples_per_s",
            samples / at_reference.pass_wall / 1e6,
        );
        v.set("cpu_s_per_gsample", at_reference.pass_cpu / samples * 1e9);
        v.set("read_latency_ms_p50", latency(0.50));
        v.set("read_latency_ms_p95", latency(0.95));
        v.set("basecalled_sample_share", basecalled as f64 / samples);
        v.set("mapping_recall", accuracy.recall);
        v.set("mapping_precision", accuracy.precision);
        v.set("basecall_identity", accuracy.identity);
        v.set("er_retained_share", accuracy.retained);
        v.set("peak_rss_mb", timed_peak_rss_mb);
        let delivered = 1.0 - failures.count as f64 / attempted as f64;
        v.set("delivered_share", delivered.max(0.0));
        notes.push(format!(
            "latency percentiles over the {n} reads of a pass, each read at its median over {} \
             passes; accuracy: {} eligible reads, {} mapped, {} correct, {} oracle-correct, {} false \
             negatives, identity over {} reads; set-up: median of {} repetitions (fastest {:.4} s)",
            passes.len(),
            accuracy.eligible,
            accuracy.mapped,
            accuracy.correct,
            accuracy.oracle_correct,
            accuracy.false_negatives,
            accuracy.identity_reads,
            setup_s.len(),
            fastest(&setup_s),
        ));
    }
    Ok(RunOutcome {
        values: v,
        attempted,
        failures,
        design_notes,
        notes,
    })
}

/// The timed passes as a quiet reference host would have run them. The
/// host this runs on slows down by up to 4x for minutes at a time, and the
/// reference bursts the sink times after every delivery slow down with it
/// (`host::Reference`). So a pass is cut into [`SEGMENTS`] runs of
/// consecutive deliveries, each segment's wall and CPU time and each of its
/// reads' latencies are divided by the segment's slowdown (mean burst ÷
/// [`NOMINAL_BURST_NS`]), and every segment and read then counts with its
/// median over the passes.
struct AtReferenceSpeed {
    /// Σ over segments of the segment's median wall / CPU seconds.
    pass_wall: f64,
    pass_cpu: f64,
    /// Per read, the median over the passes.
    latencies_ms: Vec<f64>,
    /// Mean reference burst over every timed pass.
    burst_ns: f64,
}

impl AtReferenceSpeed {
    fn of(passes: &[&PassTiming], reads: usize) -> AtReferenceSpeed {
        let per = reads.div_ceil(SEGMENTS).max(1);
        // A pass that lost a read has failed the run already; it is left
        // out so that segments line up.
        let whole: Vec<&PassTiming> = passes
            .iter()
            .copied()
            .filter(|p| p.bursts_ns.len() == reads && p.latencies_ms.len() == reads)
            .collect();
        let slowdown: Vec<Vec<f64>> = whole
            .iter()
            .map(|p| {
                segment_means(&p.bursts_ns, per)
                    .iter()
                    .map(|ns| ns / NOMINAL_BURST_NS)
                    .collect()
            })
            .collect();
        let segments = |marks: fn(&PassTiming) -> &[f64], end: fn(&PassTiming) -> f64| -> f64 {
            let scaled: Vec<Vec<f64>> = whole
                .iter()
                .zip(&slowdown)
                .map(|(p, slow)| {
                    segment_durations(marks(p), end(p), per)
                        .iter()
                        .zip(slow)
                        .map(|(d, s)| d / s)
                        .collect()
                })
                .collect();
            median_each(&scaled).iter().sum()
        };
        let latencies: Vec<Vec<f64>> = whole
            .iter()
            .zip(&slowdown)
            .map(|(p, slow)| {
                p.latencies_ms
                    .iter()
                    .enumerate()
                    .map(|(i, ms)| ms / slow[i / per])
                    .collect()
            })
            .collect();
        let bursts: Vec<f64> = passes.iter().flat_map(|p| p.bursts_ns.clone()).collect();
        AtReferenceSpeed {
            pass_wall: segments(|p| &p.delivered_wall_s, |p| p.wall_s),
            pass_cpu: segments(|p| &p.delivered_cpu_s, |p| p.cpu_s),
            latencies_ms: median_each(&latencies),
            burst_ns: mean(&bursts),
        }
    }
}

/// The timed passes as measured.
struct Timed<'a> {
    pass_wall: f64,
    pass_cpu: f64,
    /// The pass with the fastest wall: its stamped times are the reported
    /// ones.
    best: &'a Pass,
    passes: &'a [Pass],
}

struct PerLayerInputs<'a> {
    inputs: &'a Inputs,
    timed: &'a Timed<'a>,
    /// Per-read results and span totals of the fastest traced replay.
    reads: &'a [TracedRead],
    spans: SpanTotals,
    traced_wall: f64,
    trace_vs_session: f64,
    layers: &'a Layers,
    kernel: &'a kernels::KernelTimes,
    open_s: f64,
    false_negatives: usize,
    calibration_ns: f64,
    failed: u64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn per_layer(v: &mut Values, x: &PerLayerInputs) {
    let reads = x.reads;
    let n = reads.len() as f64;
    let samples = x.inputs.input_samples as f64;
    let sum = |f: fn(&TracedRead) -> usize| reads.iter().map(f).sum::<usize>() as f64;
    let count = |kind: OutcomeKind| reads.iter().filter(|r| r.kind == kind).count() as f64;
    let not_mapped = |f: fn(&TracedRead) -> usize| {
        reads
            .iter()
            .filter(|r| r.kind != OutcomeKind::Mapped)
            .map(f)
            .sum::<usize>() as f64
    };
    let busy = |kind: SpanKind| x.spans.busy_s(kind);
    let basecall_s = busy(SpanKind::BasecallChunk);
    let sketch_s = busy(SpanKind::SketchSeed);
    let chain_s = busy(SpanKind::Chain);
    let align_s = busy(SpanKind::Align);
    let er_s = busy(SpanKind::Qsr) + busy(SpanKind::Cmr);
    let signal_s = busy(SpanKind::SignalChunk);
    let layer_busy = basecall_s + sketch_s + chain_s + align_s + er_s + signal_s;
    let samples_called = sum(|r| r.samples_basecalled);
    let cells = sum(|r| r.counters.align_cells);
    let evals = sum(|r| r.counters.chain_evals);
    let wall = x.traced_wall;

    v.set("signal.chunks", sum(|r| r.total_chunks));
    v.set("signal.chunk_s", signal_s);
    v.set("basecall.busy_s", basecall_s);
    v.set("basecall.share", ratio(basecall_s, wall));
    v.set("basecall.chunks", sum(|r| r.chunks_basecalled));
    v.set("basecall.samples", samples_called);
    v.set("basecall.bases", sum(|r| r.called_len));
    v.set(
        "basecall.ns_per_sample",
        ratio(basecall_s * 1e9, samples_called),
    );
    v.set("basecall.mvm_ops", sum(|r| r.mvm_ops));
    v.set("basecall.viterbi_cells", sum(|r| r.viterbi_cells));
    v.set(
        "basecall.wasted_sample_share",
        ratio(not_mapped(|r| r.samples_basecalled), samples_called),
    );
    v.set(
        "basecall.emission_ns_per_sample",
        x.kernel.emission_ns_per_sample,
    );
    v.set(
        "basecall.lanes8_ns_per_sample",
        x.kernel.lanes8_ns_per_sample,
    );
    v.set(
        "basecall.lane_speedup_w8",
        ratio(x.kernel.scalar_ns_per_sample, x.kernel.lanes8_ns_per_sample),
    );
    v.set("mapping.index.build_s", x.layers.index_build_s);
    v.set(
        "mapping.index.entries",
        x.layers.mapper.index().total_entries() as f64,
    );
    v.set("mapping.sketch_seed.busy_s", sketch_s);
    v.set("mapping.sketch_seed.share", ratio(sketch_s, wall));
    v.set(
        "mapping.sketch_seed.ns_per_base",
        ratio(sketch_s * 1e9, sum(|r| r.bases_seeded)),
    );
    v.set("mapping.minimizers", sum(|r| r.counters.minimizers));
    v.set("mapping.seed_queries", sum(|r| r.counters.seed_queries));
    v.set("mapping.anchors", sum(|r| r.counters.anchors));
    v.set("mapping.chain.busy_s", chain_s);
    v.set("mapping.chain.share", ratio(chain_s, wall));
    v.set("mapping.chain.ns_per_eval", ratio(chain_s * 1e9, evals));
    v.set("mapping.chain_evals", evals);
    v.set("mapping.align.busy_s", align_s);
    v.set("mapping.align.share", ratio(align_s, wall));
    v.set("mapping.align.reads", x.spans.count(SpanKind::Align) as f64);
    v.set("mapping.align.ns_per_cell", ratio(align_s * 1e9, cells));
    v.set("mapping.align_cells", cells);
    v.set(
        "mapping.align.wasted_cell_share",
        ratio(not_mapped(|r| r.counters.align_cells), cells),
    );

    let first = &x.timed.passes[0].report;
    let rejected = count(OutcomeKind::RejectedQsr) + count(OutcomeKind::RejectedCmr);
    v.set("early_reject.busy_s", er_s);
    v.set("early_reject.mapped", first.outcomes.mapped as f64);
    v.set(
        "early_reject.qsr_rejected",
        first.outcomes.rejected_qsr as f64,
    );
    v.set(
        "early_reject.cmr_rejected",
        first.outcomes.rejected_cmr as f64,
    );
    v.set(
        "early_reject.qc_filtered",
        first.outcomes.filtered_qc as f64,
    );
    v.set("early_reject.unmapped", first.outcomes.unmapped as f64);
    v.set("early_reject.rejected_share", ratio(rejected, n));
    v.set(
        "early_reject.samples_saved_share",
        1.0 - ratio(samples_called, samples),
    );
    v.set("early_reject.false_negatives", x.false_negatives as f64);

    v.set("pipeline.glue_s", x.spans.read_self_ns as f64 * 1e-9);
    v.set("pipeline.trace_coverage", ratio(x.spans.covered_s(), wall));
    v.set("pipeline.trace_vs_session", x.trace_vs_session);

    let (timed, best) = (x.timed, x.timed.best);
    let peak = |f: fn(&Pass) -> usize| timed.passes.iter().map(f).max().unwrap_or(0) as f64;
    let mid = |f: fn(&Pass) -> u64| {
        median(&mut timed.passes.iter().map(|p| f(p) as f64).collect::<Vec<_>>())
    };
    v.set("engine.pass_wall_s", timed.pass_wall);
    v.set("engine.pass_cpu_s", timed.pass_cpu);
    v.set("engine.workers", first.workers as f64);
    v.set(
        "engine.overhead_share",
        1.0 - ratio(layer_busy, timed.pass_cpu),
    );
    v.set(
        "engine.parallel_efficiency",
        ratio(layer_busy, first.workers as f64 * timed.pass_wall),
    );
    v.set("engine.source_pull_s", best.pull_s);
    v.set("engine.sink_s", best.sink_s);
    v.set("engine.max_in_flight", peak(|p| p.report.max_in_flight));
    v.set("engine.in_flight_limit", first.in_flight_limit as f64);
    v.set(
        "engine.max_reject_backlog",
        peak(|p| p.report.max_reject_backlog),
    );
    v.set("engine.residency_units_p50", mid(|p| p.report.latency.p50));
    v.set("engine.residency_units_p99", mid(|p| p.report.latency.p99));
    v.set("engine.retried", peak(|p| p.report.retried));

    let mb = |bytes: u64| bytes as f64 / 1e6;
    let file_backed = matches!(x.inputs.store, ReadStore::File { .. });
    let read_s = if file_backed { best.pull_s } else { 0.0 };
    v.set("io.pack_s", x.inputs.pack_s);
    v.set("io.file_mb", mb(x.inputs.file_bytes));
    v.set("io.open_s", if file_backed { x.open_s } else { 0.0 });
    v.set("io.read_s", read_s);
    v.set("io.read_mb_per_s", ratio(mb(x.inputs.data_bytes), read_s));
    v.set("io.fastq_write_s", best.fastq_write_s);
    v.set("io.fastq_mb", mb(best.fastq_bytes));
    v.set("io.checkpoint_s", best.checkpoint_s);
    v.set("io.checkpoints", best.checkpoints as f64);

    let walls: Vec<f64> = timed.passes.iter().map(|p| p.timing.wall_s).collect();
    v.set("harness.generate_s", x.inputs.generate_s);
    v.set("harness.reads", n);
    v.set("harness.input_samples", samples);
    v.set("harness.passes", timed.passes.len() as f64);
    v.set("harness.pass_spread", spread(&walls));
    v.set("harness.calibration_ns", x.calibration_ns);
    v.set("harness.host_slowdown", x.calibration_ns / NOMINAL_BURST_NS);
    v.set("harness.failed", x.failed as f64);
}

/// How the workloads are meant to differ (the share lines are in the
/// workload table), checked against the traced numbers. A later change
/// that legitimately moves a share across one of these lines should move
/// the line in the same change to the benchmark.
fn design_check(w: &Workload, v: &Values) -> Vec<String> {
    let get = |name: &str| v.get(name).unwrap_or(f64::NAN);
    let mut notes = Vec::new();
    let mut expect = |ok: bool, what: String| {
        if !ok {
            notes.push(what);
        }
    };
    let (basecall, align) = (get("basecall.share"), get("mapping.align.share"));
    let coverage = get("pipeline.trace_coverage");
    expect(
        coverage >= 0.98,
        format!("pipeline.trace_coverage {coverage:.4} < 0.98"),
    );
    if !w.mt {
        let vs = get("pipeline.trace_vs_session");
        expect(
            (0.90..=1.10).contains(&vs),
            format!("pipeline.trace_vs_session {vs:.3} outside 0.90..1.10"),
        );
    }
    let (align_min, align_max) = w.align_share;
    expect(
        basecall >= w.min_basecall_share,
        format!("basecall.share {basecall:.3} < {}", w.min_basecall_share),
    );
    expect(
        (align_min..=align_max).contains(&align),
        format!("mapping.align.share {align:.3} outside {align_min}..{align_max}"),
    );
    if w.flow == Flow::Conventional {
        let rejected = get("early_reject.rejected_share");
        let saved = get("early_reject.samples_saved_share");
        expect(
            rejected == 0.0,
            format!("early_reject.rejected_share {rejected} != 0"),
        );
        expect(
            saved == 0.0,
            format!("early_reject.samples_saved_share {saved} != 0"),
        );
    }
    let read_s = get("io.read_s");
    expect(
        (read_s > 0.0) == w.replay,
        format!(
            "io.read_s {read_s} on a workload with replay = {}",
            w.replay
        ),
    );
    notes
}

/// Truth-based accuracy of one flow's runs, with the oracle pass beside it.
struct Accuracy {
    recall: f64,
    precision: f64,
    identity: f64,
    retained: f64,
    eligible: usize,
    mapped: usize,
    correct: usize,
    oracle_correct: usize,
    false_negatives: usize,
    identity_reads: usize,
}

/// The one origin rule (the rule of `tests/end_to_end.rs`): a read is
/// mapped correctly when it came from the reference, the mapping's
/// reference span contains the midpoint of the span the read was drawn
/// from, and the strand is the one it was drawn on.
fn mapped_correctly(run: &ReadRun, truth: &Truth) -> bool {
    let (
        Some(m),
        ReadOrigin::Reference {
            start,
            len,
            reverse,
        },
    ) = (run.outcome.mapping(), truth.origin)
    else {
        return false;
    };
    let mid = start + len / 2;
    let strand = if reverse {
        Strand::Reverse
    } else {
        Strand::Forward
    };
    m.ref_start <= mid && mid <= m.ref_end && m.strand == strand
}

impl Accuracy {
    fn score(runs: &[ReadRun], oracle: &[ReadRun], truth: &[Truth]) -> Accuracy {
        // An empty denominator means nothing could go wrong: share 1.
        let share = |num: usize, den: usize| {
            if den == 0 {
                1.0
            } else {
                num as f64 / den as f64
            }
        };
        let eligible = truth.iter().filter(|t| t.eligible()).count();
        let mapped = runs.iter().filter(|r| r.outcome.is_mapped()).count();
        let correct_of = |runs: &[ReadRun], only_eligible: bool| {
            runs.iter()
                .zip(truth)
                .filter(|(r, t)| (!only_eligible || t.eligible()) && mapped_correctly(r, t))
                .count()
        };
        let correct = correct_of(runs, false);
        let oracle_correct = correct_of(oracle, false);
        // Paper §6.3: a false negative is a read this flow did not map that
        // the pipeline without early rejection maps correctly.
        let false_negatives = runs
            .iter()
            .zip(oracle)
            .zip(truth)
            .filter(|((r, o), t)| mapped_correctly(o, t) && !r.outcome.is_mapped())
            .count();
        let identities: Vec<f64> = oracle
            .iter()
            .zip(truth)
            .filter(|(_, t)| t.eligible())
            .filter_map(|(o, t)| o.called.as_ref().map(|c| identity(&c.seq, &t.seq)))
            .take(IDENTITY_READS)
            .collect();
        Accuracy {
            recall: share(correct_of(runs, true), eligible),
            precision: share(correct, mapped),
            identity: mean(&identities),
            retained: 1.0 - false_negatives as f64 / oracle_correct.max(1) as f64,
            eligible,
            mapped,
            correct,
            oracle_correct,
            false_negatives,
            identity_reads: identities.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A pass of 64 reads, each taking `read_ms` on a host `slowdown` times
    /// slower than the reference.
    fn pass(read_ms: f64, slowdown: f64) -> PassTiming {
        let reads = 64;
        let took = read_ms * 1e-3 * slowdown;
        let marks: Vec<f64> = (1..=reads).map(|i| i as f64 * took).collect();
        PassTiming {
            wall_s: reads as f64 * took,
            cpu_s: reads as f64 * took,
            latencies_ms: vec![read_ms * slowdown; reads],
            delivered_wall_s: marks.clone(),
            delivered_cpu_s: marks,
            bursts_ns: vec![NOMINAL_BURST_NS * slowdown; reads],
        }
    }

    #[test]
    fn a_slow_host_is_divided_out_and_a_slow_program_is_not() {
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
        let quiet = [pass(10.0, 1.0), pass(10.0, 1.0), pass(10.0, 1.0)];
        let noisy = [pass(10.0, 1.0), pass(10.0, 3.5), pass(10.0, 2.0)];
        let slower_program = [pass(12.0, 1.0), pass(12.0, 3.5), pass(12.0, 2.0)];
        let of =
            |passes: &[PassTiming]| AtReferenceSpeed::of(&passes.iter().collect::<Vec<_>>(), 64);
        for passes in [&quiet, &noisy] {
            let at = of(passes);
            assert!(close(at.pass_wall, 0.64) && close(at.pass_cpu, 0.64));
            assert!(at.latencies_ms.iter().all(|ms| close(*ms, 10.0)));
        }
        let at = of(&slower_program);
        assert!(close(at.pass_wall, 0.768));
        assert!(at.latencies_ms.iter().all(|ms| close(*ms, 12.0)));
        assert!(close(at.burst_ns, NOMINAL_BURST_NS * 6.5 / 3.0));
    }

    #[test]
    fn one_disturbed_pass_does_not_move_the_median() {
        // The middle pass met something the bursts did not see.
        let mut disturbed = pass(10.0, 1.0);
        disturbed.latencies_ms[7] = 90.0;
        disturbed.wall_s += 0.08;
        let passes = [pass(10.0, 1.0), disturbed, pass(10.0, 1.0)];
        let at = AtReferenceSpeed::of(&passes.iter().collect::<Vec<_>>(), 64);
        assert!((at.pass_wall - 0.64).abs() < 1e-9);
        assert_eq!(at.latencies_ms[7], 10.0);
        // A pass that lost a read is left out instead of misaligning the rest.
        let mut short = pass(10.0, 1.0);
        short.bursts_ns.pop();
        short.latencies_ms.pop();
        let passes = [pass(10.0, 1.0), short];
        let at = AtReferenceSpeed::of(&passes.iter().collect::<Vec<_>>(), 64);
        assert!((at.pass_wall - 0.64).abs() < 1e-9);
    }
}
