//! Fault-tolerance properties of the `Session` engine under deterministic
//! fault injection: containment (one corrupt read never kills the run),
//! the quarantined == injected oracle, bit-identity of the surviving reads
//! with a fault-free run, graceful drain, and prompt teardown under
//! `FaultPolicy::Fail`.
//!
//! The injector corrupts whole signals, so every injected read faults on
//! its first decoded chunk under every `ErMode` — which is what makes the
//! quarantined set exactly predictable.

use genpip::core::engine::{Flow, Session, SessionControl};
use genpip::core::pipeline::ErMode;
use genpip::core::stream::{FastqSink, StreamEvent};
use genpip::core::{FaultKind, FaultPolicy, GenPipConfig, Parallelism, ReadRun, SessionReport};
use genpip::datasets::{DatasetProfile, FaultInjector, ReadSource, StreamingSimulator};

const INJECT_RATE: f64 = 0.15;
const SEED: u64 = 2026;

fn profile() -> DatasetProfile {
    DatasetProfile::ecoli().scaled(0.05)
}

fn parallelism_sweep() -> Vec<Parallelism> {
    let mut sweep = vec![Parallelism::Serial, Parallelism::Threads(3)];
    if let Some(from_env) = Parallelism::from_env() {
        if !sweep.contains(&from_env) {
            sweep.push(from_env);
        }
    }
    sweep
}

/// A fault-free session run: the reference output the survivors of a
/// faulted run must match bit for bit.
fn baseline(config: &GenPipConfig, flow: Flow) -> Vec<ReadRun> {
    let mut reads = Vec::new();
    Session::new(config.clone())
        .flow(flow)
        .source("s", StreamingSimulator::new(&profile()))
        .sink("s", |event| {
            if let StreamEvent::Read(run) = event {
                reads.push(run);
            }
        })
        .run()
        .expect("baseline session is valid");
    reads
}

/// Runs one faulted session, returning (surviving reads, failed ids,
/// injected ids, report).
fn run_faulted(
    config: &GenPipConfig,
    er: ErMode,
) -> (Vec<ReadRun>, Vec<u32>, Vec<u32>, SessionReport) {
    let mut injector = FaultInjector::new(StreamingSimulator::new(&profile()), INJECT_RATE, SEED);
    let mut survivors = Vec::new();
    let mut failed = Vec::new();
    let report = Session::new(config.clone())
        .flow(Flow::GenPip(er))
        .source("s", &mut injector)
        .sink("s", |event| match event {
            StreamEvent::Read(run) => survivors.push(run),
            StreamEvent::Failed { read_id, .. } => failed.push(read_id),
            _ => {}
        })
        .run()
        .expect("faulted session is valid");
    let injected = injector.injected_ids().to_vec();
    (survivors, failed, injected, report)
}

#[test]
fn quarantine_contains_faults_and_survivors_stay_bit_identical() {
    for er in [ErMode::None, ErMode::QsrOnly, ErMode::Full] {
        for parallelism in parallelism_sweep() {
            let label = format!("{er:?} / {parallelism:?}");
            let config = GenPipConfig::for_dataset(&profile())
                .with_parallelism(parallelism)
                .with_fault_policy(FaultPolicy::Quarantine);
            let reference = baseline(&config, Flow::GenPip(er));
            let (survivors, failed, injected, report) = run_faulted(&config, er);

            assert!(!injected.is_empty(), "{label}: injection rate too low");
            let mut sorted_failed = failed.clone();
            sorted_failed.sort_unstable();
            let mut sorted_injected = injected.clone();
            sorted_injected.sort_unstable();
            assert_eq!(
                sorted_failed, sorted_injected,
                "{label}: quarantined set != injected set"
            );

            let expected: Vec<ReadRun> = reference
                .into_iter()
                .filter(|run| !injected.contains(&run.id))
                .collect();
            assert_eq!(survivors, expected, "{label}: survivors diverged");

            assert_eq!(report.outcomes.failed, injected.len(), "{label}");
            assert!(
                report.max_in_flight <= report.in_flight_limit,
                "{label}: in-flight bound broken"
            );
            // Emission order is preserved: failures land in pull order.
            assert_eq!(failed, injected, "{label}: failure order diverged");
        }
    }
}

/// Overwrites the whole signal of chosen reads with one (finite) value.
struct Flatten<S> {
    inner: S,
    /// (read id, the value every sample of that read becomes).
    reads: Vec<(u32, f32)>,
}

impl<S: ReadSource> ReadSource for Flatten<S> {
    fn reference(&self) -> &genpip::genomics::Genome {
        self.inner.reference()
    }

    fn pore_model(&self) -> &genpip::signal::PoreModel {
        self.inner.pore_model()
    }

    fn mean_dwell(&self) -> f64 {
        self.inner.mean_dwell()
    }

    fn next_read(&mut self) -> Option<genpip::datasets::SimulatedRead> {
        let mut read = self.inner.next_read()?;
        if let Some(&(_, value)) = self.reads.iter().find(|(id, _)| *id == read.id) {
            read.signal.samples.fill(value);
        }
        Some(read)
    }
}

#[test]
fn finite_samples_that_overflow_the_decoder_cost_exactly_their_read() {
    // 3e38 and 1e20 are finite, so they pass an `is_finite` screen, but the
    // emission MVM overflows on them (NaN and all -inf rows). The basecaller
    // must raise the typed `SignalFault` for them — not the traceback's
    // untyped panic, and not a silently decoded garbage read — so that
    // quarantine contains each to itself like any corrupt signal.
    let poisoned = vec![(3u32, 3e38f32), (4, -3e38), (11, 1e20)];
    for er in [ErMode::None, ErMode::Full] {
        for parallelism in parallelism_sweep() {
            let label = format!("{er:?} / {parallelism:?}");
            let config = GenPipConfig::for_dataset(&profile())
                .with_parallelism(parallelism)
                .with_fault_policy(FaultPolicy::Quarantine);
            let reference = baseline(&config, Flow::GenPip(er));
            let mut survivors = Vec::new();
            let mut failed = Vec::new();
            let report = Session::new(config.clone())
                .flow(Flow::GenPip(er))
                .source(
                    "s",
                    Flatten {
                        inner: StreamingSimulator::new(&profile()),
                        reads: poisoned.clone(),
                    },
                )
                .sink("s", |event| match event {
                    StreamEvent::Read(run) => survivors.push(run),
                    StreamEvent::Failed { read_id, fault } => failed.push((read_id, fault)),
                    _ => {}
                })
                .run()
                .expect("session is valid");

            let ids: Vec<u32> = failed.iter().map(|(id, _)| *id).collect();
            assert_eq!(ids, [3, 4, 11], "{label}: quarantined set");
            for (id, fault) in &failed {
                assert_eq!(fault.kind, FaultKind::CorruptSignal, "{label}: read {id}");
                assert_eq!(fault.chunk, Some(0), "{label}: read {id}");
            }
            let expected: Vec<ReadRun> = reference
                .into_iter()
                .filter(|run| !ids.contains(&run.id))
                .collect();
            assert_eq!(survivors, expected, "{label}: survivors diverged");
            assert_eq!(report.outcomes.failed, 3, "{label}");
        }
    }
}

#[test]
fn heavy_fault_sweep_runs_under_genpip_faults_env() {
    // An extra-heavy sweep for the CI fault-injection leg: opt in with
    // GENPIP_FAULTS=1 (it multiplies the default suite's runtime), and the
    // quarantined == injected / bit-identity oracles must hold all the way
    // up to a 60% fault rate.
    if std::env::var("GENPIP_FAULTS").as_deref() != Ok("1") {
        eprintln!("heavy fault sweep skipped (set GENPIP_FAULTS=1 to run it)");
        return;
    }
    for rate_mil in [300u32, 600] {
        let rate = f64::from(rate_mil) / 1000.0;
        for parallelism in parallelism_sweep() {
            let label = format!("rate {rate} / {parallelism:?}");
            let config = GenPipConfig::for_dataset(&profile())
                .with_parallelism(parallelism)
                .with_fault_policy(FaultPolicy::Quarantine);
            let reference = baseline(&config, Flow::GenPip(ErMode::Full));
            let mut injector = FaultInjector::new(
                StreamingSimulator::new(&profile()),
                rate,
                SEED ^ u64::from(rate_mil),
            );
            let mut survivors = Vec::new();
            let mut failed = Vec::new();
            let report = Session::new(config)
                .flow(Flow::GenPip(ErMode::Full))
                .source("s", &mut injector)
                .sink("s", |event| match event {
                    StreamEvent::Read(run) => survivors.push(run),
                    StreamEvent::Failed { read_id, .. } => failed.push(read_id),
                    _ => {}
                })
                .run()
                .expect("heavy-sweep session is valid");
            let injected = injector.injected_ids().to_vec();
            assert!(!injected.is_empty(), "{label}");
            failed.sort_unstable();
            let mut sorted_injected = injected.clone();
            sorted_injected.sort_unstable();
            assert_eq!(failed, sorted_injected, "{label}: quarantined != injected");
            let expected: Vec<ReadRun> = reference
                .into_iter()
                .filter(|run| !injected.contains(&run.id))
                .collect();
            assert_eq!(survivors, expected, "{label}: survivors diverged");
            assert!(
                report.max_in_flight <= report.in_flight_limit,
                "{label}: in-flight bound broken"
            );
        }
    }
}

/// A task walks its read chunk by chunk in either flow, so a mid-read fault
/// knows its chunk.
#[test]
fn read_granular_faults_name_their_chunk() {
    let mean_dwell = StreamingSimulator::new(&profile()).mean_dwell();
    let lengths: Vec<usize> = profile()
        .generate()
        .reads
        .iter()
        .map(|r| r.signal.samples.len())
        .collect();
    for flow in [Flow::GenPip(ErMode::None), Flow::Conventional] {
        for parallelism in parallelism_sweep() {
            let label = format!("{flow:?} / {parallelism:?}");
            let config = GenPipConfig::for_dataset(&profile())
                .with_parallelism(parallelism)
                .with_fault_policy(FaultPolicy::Quarantine);
            let spc = config.samples_per_chunk(mean_dwell);
            let reference = baseline(&config, flow);
            // One bad sample at the start of chunk 2 (or the last sample of a
            // shorter read): both flows decode chunks 0 and 1 first.
            let mut injector =
                FaultInjector::new(StreamingSimulator::new(&profile()), INJECT_RATE, SEED)
                    .chunk(2)
                    .samples_per_chunk(spc);
            let mut survivors = Vec::new();
            let mut faults = Vec::new();
            Session::new(config)
                .flow(flow)
                .source("s", &mut injector)
                .sink("s", |event| match event {
                    StreamEvent::Read(run) => survivors.push(run),
                    StreamEvent::Failed { read_id, fault } => faults.push((read_id, fault)),
                    _ => {}
                })
                .run()
                .expect("faulted session is valid");
            let injected = injector.injected_ids().to_vec();
            assert!(!injected.is_empty(), "{label}");
            let failed: Vec<u32> = faults.iter().map(|(id, _)| *id).collect();
            assert_eq!(failed, injected, "{label}: quarantined != injected");
            for (id, fault) in &faults {
                let len = lengths[*id as usize];
                let struck = (2 * spc).min(len - 1) / spc;
                assert_eq!(fault.chunk, Some(struck), "{label}: read {id}");
            }
            assert!(
                faults.iter().any(|(_, f)| f.chunk == Some(2)),
                "{label}: no fault struck mid-read"
            );
            let expected: Vec<ReadRun> = reference
                .into_iter()
                .filter(|run| !injected.contains(&run.id))
                .collect();
            assert_eq!(survivors, expected, "{label}: survivors diverged");
        }
    }
}

#[test]
fn drain_finishes_resident_reads_and_stops_pulling() {
    for parallelism in parallelism_sweep() {
        let label = format!("{parallelism:?}");
        let config = GenPipConfig::for_dataset(&profile()).with_parallelism(parallelism);
        let control = SessionControl::new();
        let drain_after = 3usize;
        let mut emitted = 0usize;
        let control_for_sink = control.clone();
        let report = Session::new(config)
            .flow(Flow::GenPip(ErMode::Full))
            .source("s", StreamingSimulator::new(&profile()))
            .sink("s", move |event| {
                if let StreamEvent::Read(_) = event {
                    emitted += 1;
                    if emitted == drain_after {
                        control_for_sink.drain();
                    }
                }
            })
            .run_with_control(&control)
            .expect("drained session is valid");
        assert!(control.is_draining(), "{label}");
        assert!(
            report.outcomes.reads_emitted >= drain_after,
            "{label}: drained before the trigger"
        );
        assert!(
            report.outcomes.reads_emitted < profile().n_reads,
            "{label}: drain never stopped the pull ({} of {} reads)",
            report.outcomes.reads_emitted,
            profile().n_reads
        );
    }
}

#[test]
fn failing_fastq_writer_drains_the_session_via_the_control_handle() {
    /// A writer that goes bad after a few bytes — a full disk in miniature.
    struct FailingWriter {
        written: usize,
        budget: usize,
    }
    impl std::io::Write for FailingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.written + buf.len() > self.budget {
                return Err(std::io::Error::other("disk full"));
            }
            self.written += buf.len();
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    let config = GenPipConfig::for_dataset(&profile())
        .with_parallelism(Parallelism::Threads(2))
        .with_keep_bases(true);
    let control = SessionControl::new();
    let mut sink = FastqSink::new(FailingWriter {
        written: 0,
        budget: 2000,
    });
    let control_for_sink = control.clone();
    let report = Session::new(config)
        .flow(Flow::GenPip(ErMode::Full))
        .source("s", StreamingSimulator::new(&profile()))
        .sink("s", |event| {
            sink.handle(&event);
            if sink.has_error() && !control_for_sink.is_draining() {
                control_for_sink.drain();
            }
        })
        .run_with_control(&control)
        .expect("session with failing writer is valid");
    assert!(control.is_draining(), "writer error never triggered drain");
    assert!(
        report.outcomes.reads_emitted < profile().n_reads,
        "drain never stopped the pull ({} of {} reads)",
        report.outcomes.reads_emitted,
        profile().n_reads
    );
    assert!(sink.finish().is_err(), "the write error must stay sticky");
}

#[test]
fn fail_policy_still_tears_down_promptly_at_chunk_granularity() {
    // The PR 2 watchdog regression with a corrupt-signal fault striking
    // inside a pool worker's task: under `FaultPolicy::Fail` the
    // injected fault must abort the run (propagated panic), not hang it.
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let config = GenPipConfig::for_dataset(&profile())
            .with_parallelism(Parallelism::Threads(2))
            .with_fault_policy(FaultPolicy::Fail);
        let injector = FaultInjector::new(StreamingSimulator::new(&profile()), INJECT_RATE, SEED);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Session::new(config)
                .flow(Flow::GenPip(ErMode::Full))
                .source("s", injector)
                .run()
        }));
        let _ = done_tx.send(result.is_err());
    });
    match done_rx.recv_timeout(std::time::Duration::from_secs(120)) {
        Ok(panicked) => assert!(panicked, "Fail policy swallowed the fault"),
        Err(_) => panic!("engine deadlocked on an uncontained fault"),
    }
}
