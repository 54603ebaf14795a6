//! Cross-crate properties of streaming sessions: bit-identity with the
//! independent oracle (`common::reference_read`) and with the batch
//! spelling across `ErMode` × `Parallelism` × queue capacity, and the
//! bounded-memory guarantee.
//!
//! The parallelism sweep includes `GENPIP_PARALLELISM` (when set), which CI
//! uses to force both threading paths through this suite.

mod common;

use common::{keep_reads, reference_run};
use genpip::core::pipeline::{ErMode, PipelineRun};
use genpip::core::stream::{StreamEvent, StreamOptions};
use genpip::core::{Flow, GenPipConfig, Parallelism, ReadRun, Session, SessionReport};
use genpip::datasets::{DatasetProfile, ReadSource, SimulatedDataset, SimulatedRead};
use genpip::genomics::Genome;
use genpip::signal::PoreModel;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn dataset() -> SimulatedDataset {
    DatasetProfile::ecoli().scaled(0.04).generate()
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

/// One single-source streaming session, every event through `sink`.
fn stream(
    source: impl ReadSource + Send,
    config: &GenPipConfig,
    flow: Flow,
    opts: StreamOptions,
    sink: impl FnMut(StreamEvent),
) -> SessionReport {
    Session::new(config.clone())
        .flow(flow)
        .options(opts)
        .source("stream", source)
        .sink("stream", sink)
        .run()
        .expect("valid session")
}

fn collect(
    source: impl ReadSource + Send,
    config: &GenPipConfig,
    flow: Flow,
    opts: StreamOptions,
) -> (Vec<ReadRun>, SessionReport) {
    let mut reads = Vec::new();
    let report = stream(source, config, flow, opts, keep_reads(&mut reads));
    (reads, report)
}

#[test]
fn streaming_matches_batch_across_er_parallelism_and_queue_capacity() {
    let d = dataset();
    let base = GenPipConfig::for_dataset(&d.profile);
    for er in [ErMode::None, ErMode::QsrOnly, ErMode::Full] {
        let oracle = reference_run(&d, &base, Flow::GenPip(er));
        for parallelism in parallelism_sweep() {
            let config = base.clone().with_parallelism(parallelism);
            let batch = PipelineRun::collect(&d, &config, Flow::GenPip(er));
            assert_eq!(
                batch.reads, oracle,
                "{er:?} / {parallelism:?}: batch vs oracle"
            );
            for queue_capacity in [1usize, 8] {
                let opts = StreamOptions {
                    queue_capacity,
                    ..StreamOptions::default()
                };
                let (reads, summary) = collect(d.stream(), &config, Flow::GenPip(er), opts);
                let label = format!("{er:?} / {parallelism:?} / queue {queue_capacity}");
                assert_eq!(reads, oracle, "{label}");
                assert_eq!(summary.totals, batch.totals(), "{label}");
                assert!(
                    summary.max_in_flight <= summary.in_flight_limit,
                    "{label}: {} in flight exceeds bound {}",
                    summary.max_in_flight,
                    summary.in_flight_limit
                );
            }
        }
    }
}

#[test]
fn conventional_streaming_matches_batch() {
    let d = dataset();
    let config = GenPipConfig::for_dataset(&d.profile)
        .with_parallelism(Parallelism::from_env_or(Parallelism::Threads(3)));
    let batch = PipelineRun::collect(&d, &config, Flow::Conventional);
    let (reads, summary) = collect(
        d.stream(),
        &config,
        Flow::Conventional,
        StreamOptions::default(),
    );
    assert_eq!(reads, reference_run(&d, &config, Flow::Conventional));
    assert_eq!(reads, batch.reads);
    assert_eq!(summary.totals, batch.totals());
}

#[test]
fn lazy_generator_streams_bit_identically_to_the_materialized_dataset() {
    let profile = DatasetProfile::ecoli().scaled(0.04);
    let d = profile.generate();
    let config = GenPipConfig::for_dataset(&profile)
        .with_parallelism(Parallelism::from_env_or(Parallelism::Auto));
    let oracle = reference_run(&d, &config, Flow::GenPip(ErMode::Full));
    let opts = StreamOptions {
        queue_capacity: 4,
        ..StreamOptions::default()
    };
    let lazy = genpip::datasets::StreamingSimulator::new(&profile);
    let (reads, _) = collect(lazy, &config, Flow::GenPip(ErMode::Full), opts);
    assert_eq!(reads, oracle);
}

/// Wraps a source and counts pulls, so the test can observe in-flight reads
/// (pulled minus emitted) from outside the executor.
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
fn in_flight_reads_never_exceed_the_configured_bound() {
    let d = dataset();
    let workers = 4usize;
    let queue_capacity = 2usize;
    let config =
        GenPipConfig::for_dataset(&d.profile).with_parallelism(Parallelism::Threads(workers));
    let bound = queue_capacity + workers;
    let opts = StreamOptions {
        queue_capacity,
        ..StreamOptions::default()
    };
    // A read holds its permit from pull to in-order emission, rejected or
    // not, so the external invariant is strict: pulled − emitted ≤ queue +
    // workers under every ER mode.
    for er in [ErMode::None, ErMode::QsrOnly, ErMode::Full] {
        let pulled = Arc::new(AtomicUsize::new(0));
        let source = CountingSource {
            inner: d.stream(),
            pulled: Arc::clone(&pulled),
        };
        let mut emitted = 0usize;
        let mut in_flight_high = 0usize;
        let summary = stream(source, &config, Flow::GenPip(er), opts, |event| {
            if let StreamEvent::Read(_) = event {
                // Reads pulled from the source but not yet emitted. Sampling
                // at emission time is conservative: pulls strictly precede
                // this observation, so any overshoot of the bound would show
                // up here.
                in_flight_high = in_flight_high.max(pulled.load(Ordering::SeqCst) - emitted);
                emitted += 1;
            }
        });
        assert_eq!(emitted, d.reads.len(), "{er:?}");
        assert!(
            in_flight_high <= bound,
            "{er:?}: observed {in_flight_high} pulled-but-unemitted reads, bound {bound}"
        );
        assert_eq!(summary.in_flight_limit, bound, "{er:?}");
        assert!(
            summary.max_in_flight <= bound,
            "{er:?}: gate high-water {} exceeds bound {bound}",
            summary.max_in_flight
        );
    }
}
