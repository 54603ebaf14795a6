//! Cross-crate properties of the *live* session control plane: a source
//! attached mid-run is bit-identical to the same source registered
//! statically (across `ErMode` × `Parallelism`), a detach
//! drains the source and finalizes its per-source summary without touching
//! the survivors, admission control rejects bad attaches with typed errors,
//! and a drain requested before the run starts is honored.

use genpip::core::engine::{AttachSpec, Flow, Session, SessionControl};
use genpip::core::pipeline::ErMode;
use genpip::core::scheduler::Schedule;
use genpip::core::stream::{StreamEvent, StreamOptions};
use genpip::core::{GenPipConfig, Parallelism, ReadRun, SessionError, SessionReport};
use genpip::datasets::{DatasetProfile, ReadSource, StreamingSimulator};
use std::sync::{Arc, Mutex};

type Bucket = Arc<Mutex<Vec<ReadRun>>>;

/// Pulls a control-plane handle parked in a sink-shared slot.
fn take<T>(slot: &Arc<Mutex<Option<T>>>) -> T {
    slot.lock().unwrap().take().expect("handle parked")
}

/// Two sources with *different* references (scaling changes the genome),
/// so attach must install a second per-source context.
fn profiles() -> (DatasetProfile, DatasetProfile) {
    (
        DatasetProfile::ecoli().scaled(0.06),
        DatasetProfile::ecoli().scaled(0.03),
    )
}

fn parallelism_sweep() -> Vec<Parallelism> {
    let mut sweep = vec![Parallelism::Serial, Parallelism::Threads(3)];
    if let Some(from_env) = Parallelism::from_env().unwrap() {
        if !sweep.contains(&from_env) {
            sweep.push(from_env);
        }
    }
    sweep
}

/// The reference run: both sources registered before the session starts.
fn static_two_source(
    a: &DatasetProfile,
    b: &DatasetProfile,
    config: &GenPipConfig,
    er: ErMode,
) -> (Vec<ReadRun>, Vec<ReadRun>, SessionReport) {
    let mut reads_a = Vec::new();
    let mut reads_b = Vec::new();
    let report = Session::new(config.clone())
        .flow(Flow::GenPip(er))
        .schedule(Schedule::FairShare)
        .source("a", StreamingSimulator::new(a))
        .source_with_config(
            "b",
            StreamingSimulator::new(b),
            GenPipConfig::for_dataset(b),
        )
        .sink("a", |event| {
            if let StreamEvent::Read(run) = event {
                reads_a.push(run);
            }
        })
        .sink("b", |event| {
            if let StreamEvent::Read(run) = event {
                reads_b.push(run);
            }
        })
        .run()
        .expect("static session inputs are valid");
    (reads_a, reads_b, report)
}

#[test]
fn attach_mid_run_is_bit_identical_to_static_registration() {
    let (pa, pb) = profiles();
    for er in [ErMode::Full, ErMode::None] {
        for parallelism in parallelism_sweep() {
            let config = GenPipConfig::for_dataset(&pa).with_parallelism(parallelism);
            let (static_a, static_b, _) = static_two_source(&pa, &pb, &config, er);

            // Live: "b" attaches (with its own config) from inside
            // "a"'s sink after the third emission.
            let control = SessionControl::new();
            let live_a: Bucket = Arc::new(Mutex::new(Vec::new()));
            let live_b: Bucket = Arc::new(Mutex::new(Vec::new()));
            let a_bucket = Arc::clone(&live_a);
            let b_bucket = Arc::clone(&live_b);
            let control_in_sink = control.clone();
            let pb_for_sink = pb.clone();
            let mut emitted = 0usize;
            let handle = Arc::new(Mutex::new(None));
            let handle_slot = Arc::clone(&handle);
            Session::new(config.clone())
                .flow(Flow::GenPip(er))
                .schedule(Schedule::FairShare)
                .source("a", StreamingSimulator::new(&pa))
                .sink("a", move |event| {
                    if let StreamEvent::Read(run) = event {
                        a_bucket.lock().unwrap().push(run);
                        emitted += 1;
                        if emitted == 3 {
                            let sink_bucket = Arc::clone(&b_bucket);
                            let pending = control_in_sink.attach_with(
                                "b",
                                StreamingSimulator::new(&pb_for_sink),
                                AttachSpec::new()
                                    .config(GenPipConfig::for_dataset(&pb_for_sink))
                                    .sink(move |event| {
                                        if let StreamEvent::Read(run) = event {
                                            sink_bucket.lock().unwrap().push(run);
                                        }
                                    }),
                            );
                            *handle_slot.lock().unwrap() = Some(pending);
                        }
                    }
                })
                .run_with_control(&control)
                .expect("live session inputs are valid");
            let pending = handle.lock().unwrap().take().expect("attach fired");
            pending.wait().expect("attach accepted");
            assert_eq!(
                *live_a.lock().unwrap(),
                static_a,
                "{er:?}/{parallelism:?}: source a diverged"
            );
            assert_eq!(
                *live_b.lock().unwrap(),
                static_b,
                "{er:?}/{parallelism:?}: attached source b diverged"
            );
        }
    }
}

#[test]
fn detach_drains_the_source_and_finalizes_its_summary() {
    let (pa, pb) = profiles();
    for parallelism in parallelism_sweep() {
        let config = GenPipConfig::for_dataset(&pa).with_parallelism(parallelism);
        let (solo_a, _, _) = static_two_source(&pa, &pb, &config, ErMode::Full);

        let control = SessionControl::new();
        let survivor: Bucket = Arc::new(Mutex::new(Vec::new()));
        let b_reads: Bucket = Arc::new(Mutex::new(Vec::new()));
        let handle = Arc::new(Mutex::new(None));
        let emitted = Arc::new(Mutex::new(0usize));
        let mut session = Session::new(config.clone())
            .flow(Flow::GenPip(ErMode::Full))
            .schedule(Schedule::FairShare)
            .source("a", StreamingSimulator::new(&pa))
            .source_with_config(
                "b",
                StreamingSimulator::new(&pb),
                GenPipConfig::for_dataset(&pb),
            );
        for id in ["a", "b"] {
            let control_in_sink = control.clone();
            let handle_slot = Arc::clone(&handle);
            let counter = Arc::clone(&emitted);
            let bucket = Arc::clone(if id == "a" { &survivor } else { &b_reads });
            session = session.sink(id, move |event| {
                if let StreamEvent::Read(run) = event {
                    bucket.lock().unwrap().push(run);
                    let mut n = counter.lock().unwrap();
                    *n += 1;
                    if *n == 4 {
                        *handle_slot.lock().unwrap() = Some(control_in_sink.detach("b"));
                    }
                }
            });
        }
        let report = session
            .run_with_control(&control)
            .expect("live session inputs are valid");

        let pending = handle.lock().unwrap().take().expect("detach fired");
        let summary = pending.wait().expect("detach honored");
        let b_seen = b_reads.lock().unwrap().len();
        assert_eq!(
            summary.outcomes.reads_emitted, b_seen,
            "{parallelism:?}: detach summary disagrees with the sink"
        );
        // The detached source stopped early; the survivor is untouched.
        let b_total = StreamingSimulator::new(&pb)
            .reads_remaining()
            .expect("simulator knows its size");
        assert!(
            b_seen < b_total,
            "{parallelism:?}: source b was never actually cut short \
             ({b_seen} of {b_total} reads emitted)"
        );
        assert_eq!(
            *survivor.lock().unwrap(),
            solo_a,
            "{parallelism:?}: detach disturbed the surviving source"
        );
        // The report still carries the detached source, same counters.
        let b_report = report
            .sources
            .iter()
            .find(|s| s.id.as_str() == "b")
            .expect("detached source reported");
        assert_eq!(b_report.summary.outcomes, summary.outcomes);
    }
}

#[test]
fn admission_control_rejects_bad_attaches_with_typed_errors() {
    let (pa, pb) = profiles();
    let config = GenPipConfig::for_dataset(&pa);
    let opts = StreamOptions {
        max_sources: 2,
        ..StreamOptions::default()
    };

    let control = SessionControl::new();
    let duplicate = Arc::new(Mutex::new(None));
    let over_limit = Arc::new(Mutex::new(None));
    let bad_config = Arc::new(Mutex::new(None));
    let unknown = Arc::new(Mutex::new(None));
    {
        let control_in_sink = control.clone();
        let duplicate = Arc::clone(&duplicate);
        let over_limit = Arc::clone(&over_limit);
        let bad_config = Arc::clone(&bad_config);
        let unknown = Arc::clone(&unknown);
        let pa_for_sink = pa.clone();
        let pb_for_sink = pb.clone();
        let mut emitted = 0usize;
        Session::new(config.clone())
            .flow(Flow::GenPip(ErMode::Full))
            .options(opts)
            .source("a", StreamingSimulator::new(&pa))
            .sink("a", move |event| {
                if let StreamEvent::Read(_) = event {
                    emitted += 1;
                    if emitted == 2 {
                        // Same id as a live source.
                        *duplicate.lock().unwrap() = Some(control_in_sink.attach_with(
                            "a",
                            StreamingSimulator::new(&pa_for_sink),
                            AttachSpec::new(),
                        ));
                        // A config the source's chemistry can't satisfy:
                        // QSR gating with zero QSR chunks.
                        let mut zero_qs = GenPipConfig::for_dataset(&pb_for_sink);
                        zero_qs.n_qs = 0;
                        *bad_config.lock().unwrap() = Some(control_in_sink.attach_with(
                            "zero-qs",
                            StreamingSimulator::new(&pb_for_sink),
                            AttachSpec::new().config(zero_qs),
                        ));
                        // Valid second source, then a third over the bound.
                        control_in_sink.attach_with(
                            "b",
                            StreamingSimulator::new(&pb_for_sink),
                            AttachSpec::new(),
                        );
                        *over_limit.lock().unwrap() = Some(control_in_sink.attach_with(
                            "c",
                            StreamingSimulator::new(&pb_for_sink),
                            AttachSpec::new(),
                        ));
                        // Detach of a never-registered id.
                        *unknown.lock().unwrap() = Some(control_in_sink.detach("ghost"));
                    }
                }
            })
            .run_with_control(&control)
            .expect("live session inputs are valid");
    }
    assert_eq!(
        take(&duplicate).wait(),
        Err(SessionError::DuplicateSource("a".into()))
    );
    assert_eq!(
        take(&over_limit).wait(),
        Err(SessionError::TooManySources { limit: 2 })
    );
    assert!(matches!(
        take(&bad_config).wait(),
        Err(SessionError::IncompatibleSourceConfig { .. })
    ));
    assert_eq!(
        take(&unknown).wait().map(|_| ()),
        Err(SessionError::UnknownSource("ghost".into()))
    );

    // The session is over: further commands are refused as closed.
    assert_eq!(
        control
            .attach_with("late", StreamingSimulator::new(&pb), AttachSpec::new())
            .wait(),
        Err(SessionError::SessionClosed)
    );
    assert_eq!(
        control.detach("a").wait().map(|_| ()),
        Err(SessionError::SessionClosed)
    );
}

#[test]
fn builder_sessions_respect_the_max_sources_bound() {
    let (pa, pb) = profiles();
    let err = Session::new(GenPipConfig::for_dataset(&pa))
        .options(StreamOptions {
            max_sources: 1,
            ..StreamOptions::default()
        })
        .source("a", StreamingSimulator::new(&pa))
        .source_with_config(
            "b",
            StreamingSimulator::new(&pb),
            GenPipConfig::for_dataset(&pb),
        )
        .run()
        .expect_err("two sources over a bound of one");
    assert_eq!(err, SessionError::TooManySources { limit: 1 });
}

#[test]
fn drain_requested_before_the_run_starts_is_honored() {
    let (pa, _) = profiles();
    for parallelism in [Parallelism::Serial, Parallelism::Threads(3)] {
        let config = GenPipConfig::for_dataset(&pa).with_parallelism(parallelism);
        let control = SessionControl::new();
        control.drain();
        let mut reads = Vec::new();
        let report = Session::new(config)
            .flow(Flow::GenPip(ErMode::Full))
            .source("a", StreamingSimulator::new(&pa))
            .sink("a", |event| {
                if let StreamEvent::Read(run) = event {
                    reads.push(run);
                }
            })
            .run_with_control(&control)
            .expect("drained session inputs are valid");
        assert_eq!(
            reads.len(),
            0,
            "{parallelism:?}: drain-before-run still admitted reads"
        );
        assert_eq!(report.outcomes.reads_emitted, 0);
    }
}

#[test]
fn attach_queued_before_the_run_is_applied_at_startup() {
    let (pa, pb) = profiles();
    let config = GenPipConfig::for_dataset(&pa);
    let (static_a, static_b, _) = static_two_source(&pa, &pb, &config, ErMode::Full);

    let control = SessionControl::new();
    let early_b: Bucket = Arc::new(Mutex::new(Vec::new()));
    let sink_bucket = Arc::clone(&early_b);
    let pending = control.attach_with(
        "b",
        StreamingSimulator::new(&pb),
        AttachSpec::new()
            .config(GenPipConfig::for_dataset(&pb))
            .sink(move |event| {
                if let StreamEvent::Read(run) = event {
                    sink_bucket.lock().unwrap().push(run);
                }
            }),
    );
    let mut reads_a = Vec::new();
    Session::new(config)
        .flow(Flow::GenPip(ErMode::Full))
        .schedule(Schedule::FairShare)
        .source("a", StreamingSimulator::new(&pa))
        .sink("a", |event| {
            if let StreamEvent::Read(run) = event {
                reads_a.push(run);
            }
        })
        .run_with_control(&control)
        .expect("live session inputs are valid");
    pending.wait().expect("pre-run attach accepted");
    assert_eq!(reads_a, static_a, "pre-run attach disturbed source a");
    // "b" joined at the first poll — before any admission — so its
    // interleaving matches the static two-source session exactly.
    assert_eq!(
        *early_b.lock().unwrap(),
        static_b,
        "pre-run attach diverged"
    );
}

/// One table, both doors: a source the session must refuse is refused with
/// the same `SessionError` value whether it is registered on the builder
/// (`Session::source*`, the error is `run`'s) or attached through the
/// control plane (`SessionControl::attach_with`, the error is `wait`'s) —
/// there is one admission, so there is one answer.
#[test]
fn bad_sources_get_the_same_error_through_the_builder_and_through_attach() {
    use genpip::core::SourceConfigIssue;
    use genpip::genomics::GenomeBuilder;

    let (pa, pb) = profiles();
    let config = GenPipConfig::for_dataset(&pa);
    let incompatible = |issue| SessionError::IncompatibleSourceConfig {
        id: "b".into(),
        issue,
    };
    let mut zero_qs = GenPipConfig::for_dataset(&pb);
    zero_qs.n_qs = 0;
    let mut long_k = GenPipConfig::for_dataset(&pb);
    long_k.mapper.k = usize::MAX;
    let clash = Arc::new(GenomeBuilder::new(512).seed(7).name(pb.name).build());
    let twin_panel = GenPipConfig::for_dataset(&pb).with_extra_references(vec![clash]);
    let unbounded = StreamOptions::default().max_sources;

    // (id, config override, priority weight, max_sources, the refusal)
    let table: Vec<(&str, Option<GenPipConfig>, u32, usize, SessionError)> = vec![
        (
            "a",
            None,
            1,
            unbounded,
            SessionError::DuplicateSource("a".into()),
        ),
        (
            "b",
            None,
            0,
            unbounded,
            SessionError::ZeroPriorityWeight("b".into()),
        ),
        ("b", None, 1, 1, SessionError::TooManySources { limit: 1 }),
        (
            "b",
            Some(zero_qs),
            1,
            unbounded,
            incompatible(SourceConfigIssue::ZeroQsrSamples),
        ),
        (
            "b",
            Some(long_k),
            1,
            unbounded,
            incompatible(SourceConfigIssue::KmerExceedsReference {
                k: usize::MAX,
                reference_len: StreamingSimulator::new(&pb).reference().len(),
            }),
        ),
        (
            "b",
            Some(twin_panel),
            1,
            unbounded,
            incompatible(SourceConfigIssue::DuplicateReferenceName {
                name: pb.name.to_string(),
            }),
        ),
    ];
    for (id, own, weight, max_sources, expected) in table {
        let session = |weights: Vec<u32>| {
            Session::new(config.clone())
                .schedule(Schedule::Priority(weights))
                .options(StreamOptions {
                    max_sources,
                    ..StreamOptions::default()
                })
                .source("a", StreamingSimulator::new(&pa))
        };

        let bad = StreamingSimulator::new(&pb);
        let built = match own.clone() {
            Some(own) => session(vec![1, weight]).source_with_config(id, bad, own),
            None => session(vec![1, weight]).source(id, bad),
        };
        let from_builder = built.run().expect_err("the builder door refuses it");

        let control = SessionControl::new();
        let spec = AttachSpec::new().weight(weight);
        let pending = control.attach_with(
            id,
            StreamingSimulator::new(&pb),
            match own {
                Some(own) => spec.config(own),
                None => spec,
            },
        );
        session(vec![1])
            .run_with_control(&control)
            .expect("the good source runs");
        let from_attach = pending.wait().expect_err("the attach door refuses it");

        assert_eq!(from_builder, expected);
        assert_eq!(from_attach, expected);
    }
}
