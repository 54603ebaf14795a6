//! Cross-crate properties of the `Session` engine: per-source bit-identity
//! with the independent oracle's solo replay (`common::reference_read`)
//! under every scheduling policy, across `ErMode` × `Parallelism`; the
//! shared in-flight bound with N sources; one global interleaving at the
//! sinks per schedule, whatever the `Parallelism`;
//! and starvation-freedom of the `Priority` schedule.
//!
//! The parallelism sweep includes `GENPIP_PARALLELISM` (when set), which CI
//! uses to force both threading paths through this suite.

mod common;

use common::{keep_reads, reference_run, totals};
use genpip::core::engine::{Flow, Session};
use genpip::core::pipeline::ErMode;
use genpip::core::scheduler::Schedule;
use genpip::core::stream::{StreamEvent, StreamOptions};
use genpip::core::{FaultPolicy, GenPipConfig, Parallelism, ReadRun, SessionReport};
use genpip::datasets::{
    DatasetProfile, FaultInjector, ReadSource, SimulatedDataset, SimulatedRead, StreamingSimulator,
};
use genpip::genomics::Genome;
use genpip::signal::PoreModel;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Two sources with *different* references (scaling changes the genome),
/// so the session must keep one context per source.
fn profiles() -> (DatasetProfile, DatasetProfile) {
    (
        DatasetProfile::ecoli().scaled(0.1),
        DatasetProfile::ecoli().scaled(0.04),
    )
}

fn parallelism_sweep() -> Vec<Parallelism> {
    let mut sweep = vec![Parallelism::Serial, Parallelism::Threads(4)];
    if let Some(from_env) = Parallelism::from_env() {
        if !sweep.contains(&from_env) {
            sweep.push(from_env);
        }
    }
    sweep
}

/// Runs a two-source session (lazy sources) and returns the per-source
/// read collections plus the report.
fn run_two_source_session(
    a: &DatasetProfile,
    b: &DatasetProfile,
    config: &GenPipConfig,
    er: ErMode,
    schedule: Schedule,
    opts: &StreamOptions,
) -> (Vec<ReadRun>, Vec<ReadRun>, SessionReport) {
    let mut reads_a = Vec::new();
    let mut reads_b = Vec::new();
    let report = Session::new(config.clone())
        .flow(Flow::GenPip(er))
        .schedule(schedule)
        .options(*opts)
        .source("a", StreamingSimulator::new(a))
        .source("b", StreamingSimulator::new(b))
        .sink("a", keep_reads(&mut reads_a))
        .sink("b", keep_reads(&mut reads_b))
        .run()
        .expect("two-source session inputs are valid");
    (reads_a, reads_b, report)
}

#[test]
fn interleaved_sources_are_bit_identical_to_solo_runs() {
    let (pa, pb) = profiles();
    let (da, db) = (pa.generate(), pb.generate());
    // One session config serves both sources; base it on profile A.
    let base = GenPipConfig::for_dataset(&pa);
    let opts = StreamOptions {
        queue_capacity: 3,
        ..StreamOptions::default()
    };
    for er in [ErMode::None, ErMode::QsrOnly, ErMode::Full] {
        // Threading may not show in the output, so one serial replay per
        // source is the oracle for every parallelism setting.
        let solo_a = reference_run(&da, &base, Flow::GenPip(er));
        let solo_b = reference_run(&db, &base, Flow::GenPip(er));
        for parallelism in parallelism_sweep() {
            let config = base.clone().with_parallelism(parallelism);
            for schedule in [Schedule::FairShare, Schedule::Priority(vec![3, 1])] {
                let label = format!("{er:?} / {parallelism:?} / {schedule:?}");
                let (reads_a, reads_b, report) =
                    run_two_source_session(&pa, &pb, &config, er, schedule, &opts);
                assert_eq!(reads_a, solo_a, "source a diverged: {label}");
                assert_eq!(reads_b, solo_b, "source b diverged: {label}");
                let sa = report.source("a").expect("source a reported");
                let sb = report.source("b").expect("source b reported");
                assert_eq!(sa.summary.totals, totals(&solo_a), "{label}");
                assert_eq!(sb.summary.totals, totals(&solo_b), "{label}");
                assert_eq!(
                    report.outcomes.reads_emitted,
                    da.reads.len() + db.reads.len(),
                    "{label}"
                );
                assert!(
                    report.max_in_flight <= report.in_flight_limit,
                    "{label}: {} in flight exceeds bound {}",
                    report.max_in_flight,
                    report.in_flight_limit
                );
            }
        }
    }
}

#[test]
fn conventional_flow_sessions_match_solo_runs_too() {
    let (pa, pb) = profiles();
    let (da, db) = (pa.generate(), pb.generate());
    let config = GenPipConfig::for_dataset(&pa)
        .with_parallelism(Parallelism::from_env_or(Parallelism::Threads(3)));
    let solo_a = reference_run(&da, &config, Flow::Conventional);
    let solo_b = reference_run(&db, &config, Flow::Conventional);
    let mut reads_a = Vec::new();
    let mut reads_b = Vec::new();
    Session::new(config)
        .flow(Flow::Conventional)
        .schedule(Schedule::FairShare)
        .source("a", StreamingSimulator::new(&pa))
        .source("b", StreamingSimulator::new(&pb))
        .sink("a", keep_reads(&mut reads_a))
        .sink("b", keep_reads(&mut reads_b))
        .run()
        .expect("valid session");
    assert_eq!(reads_a, solo_a);
    assert_eq!(reads_b, solo_b);
}

/// Wraps a source and counts pulls into a shared counter, so tests can
/// observe total in-flight reads (pulled minus emitted) from outside the
/// engine.
struct CountingSource<S> {
    inner: S,
    pulled: Arc<AtomicUsize>,
}

impl<S: ReadSource> ReadSource for CountingSource<S> {
    fn reference(&self) -> &Genome {
        self.inner.reference()
    }
    fn pore_model(&self) -> &PoreModel {
        self.inner.pore_model()
    }
    fn mean_dwell(&self) -> f64 {
        self.inner.mean_dwell()
    }
    fn next_read(&mut self) -> Option<SimulatedRead> {
        let read = self.inner.next_read()?;
        self.pulled.fetch_add(1, Ordering::SeqCst);
        Some(read)
    }
}

#[test]
fn in_flight_reads_stay_bounded_across_n_sources() {
    let profile = DatasetProfile::ecoli().scaled(0.05);
    let dataset = profile.generate();
    let workers = 3usize;
    let queue_capacity = 2usize;
    let bound = queue_capacity + workers;
    let config =
        GenPipConfig::for_dataset(&profile).with_parallelism(Parallelism::Threads(workers));
    let opts = StreamOptions {
        queue_capacity,
        ..StreamOptions::default()
    };
    // Three sources over the same dataset with per-source pull counters;
    // the sinks share one emitted counter (they all run on the emitting
    // thread). Sampling at emission time is conservative: pulls strictly
    // precede this observation, so any overshoot of the bound would show up
    // here. Every read holds its permit from pull to in-order emission,
    // rejected or not, so pulled − emitted ≤ queue + workers strictly,
    // under every ER mode.
    for er in [ErMode::None, ErMode::QsrOnly, ErMode::Full] {
        let pulled_counters: Vec<Arc<AtomicUsize>> =
            (0..3).map(|_| Arc::new(AtomicUsize::new(0))).collect();
        let emitted = std::cell::Cell::new(0usize);
        let in_flight_high = std::cell::Cell::new(0usize);
        let mut session = Session::new(config.clone())
            .flow(Flow::GenPip(er))
            .schedule(Schedule::FairShare)
            .options(opts);
        for (i, counter) in pulled_counters.iter().enumerate() {
            let id = format!("src{i}");
            let (all_pulled, emitted, in_flight_high) =
                (&pulled_counters, &emitted, &in_flight_high);
            session = session
                .source(
                    id.as_str(),
                    CountingSource {
                        inner: dataset.stream(),
                        pulled: Arc::clone(counter),
                    },
                )
                .sink(id.as_str(), move |event| {
                    if let StreamEvent::Read(_) = event {
                        let pulls: usize =
                            all_pulled.iter().map(|p| p.load(Ordering::SeqCst)).sum();
                        in_flight_high.set(in_flight_high.get().max(pulls - emitted.get()));
                        emitted.set(emitted.get() + 1);
                    }
                });
        }
        let report = session.run().expect("valid session");
        assert_eq!(emitted.get(), 3 * dataset.reads.len(), "{er:?}");
        assert!(
            in_flight_high.get() <= bound,
            "{er:?}: observed {} pulled-but-unemitted reads across 3 sources, bound {bound}",
            in_flight_high.get()
        );
        assert_eq!(report.in_flight_limit, bound, "{er:?}");
        assert!(
            report.max_in_flight <= bound,
            "{er:?}: gate high-water {} exceeds bound {bound}",
            report.max_in_flight
        );
        // Per-source high-water marks are each within the shared bound, and
        // every source emitted its full read count.
        for source in &report.sources {
            assert!(source.summary.max_in_flight <= bound, "{er:?}");
            assert_eq!(source.summary.outcomes.reads_emitted, dataset.reads.len());
        }
    }
}

/// Runs `profiles` as one session's sources, in order, and returns the
/// global emission tape: which source each delivered read came from, as the
/// sinks saw them.
fn emission_tape(
    profiles: &[DatasetProfile],
    schedule: Schedule,
    parallelism: Parallelism,
) -> Vec<usize> {
    let config = GenPipConfig::for_dataset(&profiles[0]).with_parallelism(parallelism);
    let tape = std::cell::RefCell::new(Vec::new());
    let mut session = Session::new(config)
        .flow(Flow::GenPip(ErMode::Full))
        .schedule(schedule);
    for (i, profile) in profiles.iter().enumerate() {
        let (id, tape) = (format!("src{i}"), &tape);
        session = session
            .source(id.as_str(), StreamingSimulator::new(profile))
            .sink(id.as_str(), move |event| {
                if let StreamEvent::Read(_) = event {
                    tape.borrow_mut().push(i);
                }
            });
    }
    session.run().expect("valid session");
    tape.into_inner()
}

/// A schedule is a pick sequence — a function of which sources still have
/// reads, never of how execution went — and reads are emitted in pull
/// order. So the interleaving of the sources at the sinks is the same on
/// the calling thread and on a pool of any size, not just each source's own
/// order.
#[test]
fn emission_interleaving_is_identical_for_every_parallelism() {
    let profiles = [0.05, 0.02, 0.03].map(|scale| DatasetProfile::ecoli().scaled(scale));
    let reads: usize = profiles.iter().map(|p| p.n_reads).sum();
    for schedule in [
        Schedule::FairShare,
        Schedule::Priority(vec![3, 1, 2]),
        Schedule::Sequential,
    ] {
        let mut sweep = parallelism_sweep().into_iter();
        let serial = sweep.next().expect("Serial leads the sweep");
        let serial = emission_tape(&profiles, schedule.clone(), serial);
        assert_eq!(serial.len(), reads, "{schedule:?}");
        for parallelism in sweep {
            assert_eq!(
                emission_tape(&profiles, schedule.clone(), parallelism),
                serial,
                "{schedule:?} interleaved differently under {parallelism:?}"
            );
        }
    }
}

/// [`emission_tape`] with every source behind a `FaultInjector` under
/// `FaultPolicy::Quarantine` — the middle source's faults striking mid-read,
/// at chunk 2: which source each delivery came from, and whether it was a
/// quarantined read.
fn faulted_emission_tape(
    profiles: &[DatasetProfile],
    schedule: Schedule,
    parallelism: Parallelism,
) -> Vec<(usize, bool)> {
    let config = GenPipConfig::for_dataset(&profiles[0])
        .with_parallelism(parallelism)
        .with_fault_policy(FaultPolicy::Quarantine);
    let spc = config.samples_per_chunk(StreamingSimulator::new(&profiles[1]).mean_dwell());
    let tape = std::cell::RefCell::new(Vec::new());
    let mut session = Session::new(config)
        .flow(Flow::GenPip(ErMode::Full))
        .schedule(schedule);
    for (i, profile) in profiles.iter().enumerate() {
        let (id, tape) = (format!("src{i}"), &tape);
        let mut injector = FaultInjector::new(StreamingSimulator::new(profile), 0.15, 2026);
        if i == 1 {
            injector = injector.chunk(2).samples_per_chunk(spc);
        }
        session =
            session
                .source(id.as_str(), injector)
                .sink(id.as_str(), move |event| match event {
                    StreamEvent::Read(_) => tape.borrow_mut().push((i, false)),
                    StreamEvent::Failed { .. } => tape.borrow_mut().push((i, true)),
                    StreamEvent::Progress(_) => {}
                });
    }
    session.run().expect("valid session");
    tape.into_inner()
}

/// A contained fault does not move the pull sequence either: the faulted
/// read is quarantined the moment it comes back and retires in its slot
/// like any result, so the tape — failures included — is the same on the
/// calling thread and on a pool of any size.
#[test]
fn emission_interleaving_is_identical_for_every_parallelism_under_faults() {
    let profiles = [0.05, 0.02, 0.03].map(|scale| DatasetProfile::ecoli().scaled(scale));
    let reads: usize = profiles.iter().map(|p| p.n_reads).sum();
    for schedule in [
        Schedule::FairShare,
        Schedule::Priority(vec![3, 1, 2]),
        Schedule::Sequential,
    ] {
        let mut sweep = parallelism_sweep().into_iter();
        let serial = sweep.next().expect("Serial leads the sweep");
        let serial = faulted_emission_tape(&profiles, schedule.clone(), serial);
        assert_eq!(serial.len(), reads, "{schedule:?}");
        for source in 0..profiles.len() {
            assert!(
                serial.contains(&(source, true)),
                "{schedule:?}: no fault struck source {source}"
            );
        }
        for parallelism in sweep {
            assert_eq!(
                faulted_emission_tape(&profiles, schedule.clone(), parallelism),
                serial,
                "{schedule:?} interleaved differently under {parallelism:?}"
            );
        }
    }
}

#[test]
fn priority_schedule_never_starves_low_weight_sources() {
    // Reads are emitted in exact pull order under either driver, so the
    // emission tape *is* the schedule's pull sequence: with weights [5, 1]
    // the weight-1 source must appear within every 6 pulls while both
    // sources are live — not just "eventually drain".
    let (heavy, light) = profiles();
    let n_light = light.n_reads;
    let profiles = [heavy, light];
    for parallelism in parallelism_sweep() {
        let tape = emission_tape(&profiles, Schedule::Priority(vec![5, 1]), parallelism);
        assert_eq!(
            tape.iter().filter(|&&t| t == 1).count(),
            n_light,
            "{parallelism:?}: priority schedule failed to drain the low-weight source"
        );
        // While the light source still has reads, it is served at least
        // once per sum-of-weights (6) pulls.
        let last_light = tape
            .iter()
            .rposition(|&t| t == 1)
            .expect("light source emitted");
        for window in tape[..=last_light].windows(6) {
            assert!(
                window.contains(&1),
                "{parallelism:?}: light source starved for a full weight period: {window:?}"
            );
        }
    }
}

#[test]
fn sequential_schedule_drains_sources_in_registration_order() {
    let (pa, pb) = profiles();
    let config = GenPipConfig::for_dataset(&pa)
        .with_parallelism(Parallelism::from_env_or(Parallelism::Threads(2)));
    let order = std::cell::RefCell::new(Vec::<&'static str>::new());
    Session::new(config)
        .flow(Flow::GenPip(ErMode::Full))
        .schedule(Schedule::Sequential)
        .source("first", StreamingSimulator::new(&pa))
        .source("second", StreamingSimulator::new(&pb))
        .sink("first", |event| {
            if let StreamEvent::Read(_) = event {
                order.borrow_mut().push("first");
            }
        })
        .sink("second", |event| {
            if let StreamEvent::Read(_) = event {
                order.borrow_mut().push("second");
            }
        })
        .run()
        .expect("valid session");
    let order = order.into_inner();
    assert_eq!(order.len(), pa.n_reads + pb.n_reads);
    let first_second = order
        .iter()
        .position(|&t| t == "second")
        .expect("second source emitted");
    assert_eq!(
        first_second, pa.n_reads,
        "sequential schedule interleaved sources"
    );
}

/// The same dataset registered twice under different ids: both copies must
/// produce identical results — interleaving two instances of one workload
/// perturbs nothing (the CI bench-smoke two-source run relies on this).
#[test]
fn duplicate_workloads_under_different_ids_agree() {
    let profile = DatasetProfile::ecoli().scaled(0.04);
    let dataset: SimulatedDataset = profile.generate();
    let config = GenPipConfig::for_dataset(&profile)
        .with_parallelism(Parallelism::from_env_or(Parallelism::Auto));
    let mut reads_x = Vec::new();
    let mut reads_y = Vec::new();
    Session::new(config)
        .flow(Flow::GenPip(ErMode::Full))
        .schedule(Schedule::FairShare)
        .source("x", dataset.stream())
        .source("y", dataset.stream())
        .sink("x", |event| {
            if let StreamEvent::Read(run) = event {
                reads_x.push(run);
            }
        })
        .sink("y", |event| {
            if let StreamEvent::Read(run) = event {
                reads_y.push(run);
            }
        })
        .run()
        .expect("valid session");
    assert_eq!(reads_x, reads_y);
    assert_eq!(reads_x.len(), dataset.reads.len());
}
