//! Cross-crate properties of the per-read chain of chunk steps as the
//! engine runs it: every flow on both drivers (calling thread and pool)
//! against the independent oracle (`common::reference_read`), what a task
//! is (one whole read, its permit held to emission), the cancellation
//! guarantee (no chunk work past an ER verdict, witnessed by `ChunkWork`
//! counters), per-source config overrides, and the FASTQ sink.
//!
//! The parallelism sweep includes `GENPIP_PARALLELISM` (when set), which CI
//! uses to force both threading paths through this suite.

mod common;

use common::{keep_reads, reference_run, totals};
use genpip::core::early_reject::qsr_sample_indices;
use genpip::core::engine::{AttachSpec, Flow, Session};
use genpip::core::pipeline::{ErMode, PipelineRun, ReadOutcome, ReadRun};
use genpip::core::scheduler::Schedule;
use genpip::core::stream::{FastqSink, StreamEvent};
use genpip::core::{GenPipConfig, Parallelism, SessionReport};
use genpip::datasets::{DatasetProfile, SimulatedDataset, StreamingSimulator};

fn dataset() -> SimulatedDataset {
    DatasetProfile::ecoli().scaled(0.04).generate()
}

fn parallelism_sweep() -> Vec<Parallelism> {
    let mut sweep = vec![Parallelism::Serial, Parallelism::Threads(4)];
    if let Some(from_env) = Parallelism::from_env().unwrap() {
        if !sweep.contains(&from_env) {
            sweep.push(from_env);
        }
    }
    sweep
}

fn collect(
    dataset: &SimulatedDataset,
    config: &GenPipConfig,
    flow: Flow,
) -> (Vec<ReadRun>, SessionReport) {
    let mut reads = Vec::new();
    let report = Session::new(config.clone())
        .flow(flow)
        .source("s", dataset.stream())
        .sink("s", keep_reads(&mut reads))
        .run()
        .expect("valid session");
    (reads, report)
}

/// The headline oracle: every flow × driver (the calling thread stepping
/// each chain alone, or the pool running several at once) emits exactly
/// what the naive serial replay computes, read for read.
#[test]
fn every_flow_on_both_drivers_is_bit_identical_to_the_oracle() {
    let d = dataset();
    let base = GenPipConfig::for_dataset(&d.profile);
    for flow in [
        Flow::GenPip(ErMode::None),
        Flow::GenPip(ErMode::QsrOnly),
        Flow::GenPip(ErMode::Full),
        Flow::Conventional,
    ] {
        let oracle = reference_run(&d, &base, flow);
        for parallelism in parallelism_sweep() {
            let config = base.clone().with_parallelism(parallelism);
            let (reads, _) = collect(&d, &config, flow);
            assert_eq!(reads, oracle, "{flow:?} / {parallelism:?}");
        }
    }
}

/// GenPIP's CP pass runs the quality steps of its chunks only after the
/// pass, past the CMR check of a read longer than `N_cm` chunks; the oracle
/// computes every quality at once. On the
/// host-depletion mix of `benchmarks/`'s `contam_genpip_mt` (5 % of reads
/// low quality, 92 % of the rest contaminants), at both seeds
/// `tests/accuracy.rs` pins it at, with bases kept, the session must still
/// emit exactly the oracle's reads — and the mix must hold CMR- and
/// QSR-rejected reads, and reads of at most `N_cm` chunks that reach QC.
#[test]
fn deferred_quality_matches_the_oracle_on_the_contaminant_mix() {
    for seed in [0, 2] {
        let mut profile = DatasetProfile::ecoli().scaled(0.1);
        profile.n_reads = 240;
        profile.low_quality_fraction = 0.05;
        profile.contaminant_fraction = 0.92;
        profile.seed ^= seed;
        let d = profile.generate();
        let flow = Flow::GenPip(ErMode::Full);
        let base = GenPipConfig::for_dataset(&d.profile).with_keep_bases(true);
        let oracle = reference_run(&d, &base, flow);
        for parallelism in parallelism_sweep() {
            let (reads, _) = collect(&d, &base.clone().with_parallelism(parallelism), flow);
            assert_eq!(reads, oracle, "seed {seed}, {parallelism:?}");
        }
        let count = |pred: &dyn Fn(&ReadRun) -> bool| oracle.iter().filter(|r| pred(r)).count();
        let cmr = count(&|r| matches!(r.outcome, ReadOutcome::RejectedCmr { .. }));
        let qsr = count(&|r| matches!(r.outcome, ReadOutcome::RejectedQsr { .. }));
        let short = count(&|r| r.total_chunks <= base.n_cm && r.called.is_some());
        assert!(
            cmr > 0 && qsr > 0 && short > 0,
            "seed {seed}: {cmr} CMR, {qsr} QSR, {short} short"
        );
    }
}

/// A task is a whole read on the pool as on the calling thread, and its
/// permit is held to emission — an ER verdict stops the read's compute, not
/// its residency.
#[test]
fn read_granularity_is_one_task_per_read_holding_its_permit_to_emission() {
    let d = dataset();
    let flow = Flow::GenPip(ErMode::Full);
    let threaded = GenPipConfig::for_dataset(&d.profile).with_parallelism(Parallelism::Threads(4));
    let (reads, report) = collect(&d, &threaded, flow);
    let rejected = reads
        .iter()
        .filter(|r| r.outcome.is_early_rejected())
        .count();
    assert!(rejected > 0, "workload must exercise ER verdicts");
    assert_eq!(
        report.max_reject_backlog, 0,
        "verdicts must not release early"
    );
    assert!(report.max_in_flight <= report.in_flight_limit);
}

/// The cancellation guarantee: for every ER-rejected read, no chunk beyond
/// the decision point is ever basecalled or seeded. The witness is the
/// read's `ChunkWork` entries — every executed chunk task records exactly
/// one (basecall) or two (basecall + seed) entries, so post-verdict work
/// would be visible here.
#[test]
fn cancellation_schedules_no_post_verdict_chunk_work() {
    let d = dataset();
    let base = GenPipConfig::for_dataset(&d.profile);
    for parallelism in parallelism_sweep() {
        let config = base.clone().with_parallelism(parallelism);
        let flow = Flow::GenPip(ErMode::Full);
        let (runs, _) = collect(&d, &config, flow);
        let mut qsr_seen = 0usize;
        let mut cmr_seen = 0usize;
        for run in &runs {
            let sample_idx = qsr_sample_indices(run.total_chunks, config.n_qs);
            match &run.outcome {
                ReadOutcome::RejectedQsr { .. } => {
                    qsr_seen += 1;
                    // Exactly the QSR sample chunks, basecall-only: nothing
                    // was seeded, and nothing past the sampled set ran.
                    let basecalled: Vec<usize> = run.chunks.iter().map(|c| c.index).collect();
                    assert_eq!(basecalled, sample_idx, "read {}: {parallelism:?}", run.id);
                    for c in &run.chunks {
                        assert!(c.samples > 0, "read {}: basecall entry", run.id);
                        assert_eq!(c.seed_bases, 0, "read {}: QSR must not seed", run.id);
                        assert_eq!(c.minimizers, 0, "read {}: QSR must not sketch", run.id);
                    }
                }
                ReadOutcome::RejectedCmr { .. } => {
                    cmr_seen += 1;
                    // Seeding ran for exactly chunks 0..N_cm (in order);
                    // basecalling ran for exactly those chunks plus the QSR
                    // samples, each at most once.
                    let seeded: Vec<usize> = run
                        .chunks
                        .iter()
                        .filter(|c| c.seed_bases > 0 || c.samples == 0)
                        .map(|c| c.index)
                        .collect();
                    let expected_seeded: Vec<usize> = (0..config.n_cm).collect();
                    assert_eq!(seeded, expected_seeded, "read {}: {parallelism:?}", run.id);
                    let mut basecalled: Vec<usize> = run
                        .chunks
                        .iter()
                        .filter(|c| c.samples > 0)
                        .map(|c| c.index)
                        .collect();
                    let mut expected: Vec<usize> = sample_idx
                        .iter()
                        .copied()
                        .chain(0..config.n_cm)
                        .collect::<std::collections::BTreeSet<_>>()
                        .into_iter()
                        .collect();
                    basecalled.sort_unstable();
                    expected.sort_unstable();
                    assert_eq!(basecalled, expected, "read {}: {parallelism:?}", run.id);
                    // The decision point itself: nothing at or past N_cm was
                    // seeded, and nothing past it was basecalled except the
                    // pre-verdict QSR samples.
                    for c in &run.chunks {
                        if c.index >= config.n_cm {
                            assert!(
                                c.samples > 0 && sample_idx.contains(&c.index),
                                "read {}: post-verdict work on chunk {}",
                                run.id,
                                c.index
                            );
                        }
                    }
                }
                _ => {}
            }
        }
        assert!(qsr_seen > 0, "{parallelism:?}: no QSR rejections exercised");
        assert!(cmr_seen > 0, "{parallelism:?}: no CMR rejections exercised");
    }
}

#[test]
fn per_source_config_overrides_match_their_solo_runs() {
    // Two sources with different operating points (N_qs, N_cm, chunk size)
    // in one session: each must be bit-identical to a solo run under its
    // own config — the ecoli+human scenario from the ROADMAP, kept cheap
    // with two differently-tuned ecoli-like sources.
    let pa = DatasetProfile::ecoli().scaled(0.05);
    let pb = DatasetProfile::ecoli().scaled(0.03);
    let (da, db) = (pa.generate(), pb.generate());
    let parallelism = Parallelism::from_env_or(Parallelism::Threads(3));
    let config_a = GenPipConfig::for_dataset(&pa).with_parallelism(parallelism);
    let mut config_b = GenPipConfig::for_dataset(&pb)
        .with_parallelism(parallelism)
        .with_chunk_bases(400);
    config_b.n_qs = 5;
    config_b.n_cm = 3;
    let solo_a = reference_run(&da, &config_a, Flow::GenPip(ErMode::Full));
    let solo_b = reference_run(&db, &config_b, Flow::GenPip(ErMode::Full));
    assert!(
        !solo_a.is_empty() && !solo_b.is_empty(),
        "sanity: runs are non-trivial"
    );

    let mut reads_a = Vec::new();
    let mut reads_b = Vec::new();
    let report = Session::new(config_a.clone())
        .flow(Flow::GenPip(ErMode::Full))
        .schedule(Schedule::FairShare)
        .source("a", StreamingSimulator::new(&pa))
        .source_with(
            "b",
            StreamingSimulator::new(&pb),
            AttachSpec::new().config(config_b.clone()),
        )
        .sink("a", keep_reads(&mut reads_a))
        .sink("b", keep_reads(&mut reads_b))
        .run()
        .expect("valid session");
    assert_eq!(reads_a, solo_a, "session config source diverged");
    assert_eq!(reads_b, solo_b, "override config source diverged");
    assert_eq!(
        report
            .sources
            .iter()
            .find(|s| s.id.as_str() == "b")
            .expect("b")
            .summary
            .totals,
        totals(&solo_b)
    );
}

#[test]
fn fastq_sink_writes_every_fully_basecalled_read() {
    let d = dataset();
    let config = GenPipConfig::for_dataset(&d.profile)
        .with_parallelism(Parallelism::from_env_or(Parallelism::Threads(2)))
        .with_keep_bases(true);
    let mut sink = FastqSink::new(Vec::new());
    let mut runs = Vec::new();
    Session::new(config)
        .flow(Flow::GenPip(ErMode::Full))
        .source("only", d.stream())
        .sink("only", |event| {
            if let StreamEvent::Read(run) = &event {
                runs.push(run.clone());
            }
            sink.handle(&event);
        })
        .run()
        .expect("valid session");

    let survivors = runs.iter().filter(|r| !r.outcome.is_early_rejected());
    let expected: Vec<&ReadRun> = survivors.collect();
    for run in &expected {
        let called = run.called.as_ref().expect("survivor keeps its bases");
        assert_eq!(called.seq.len(), run.called_len);
        assert_eq!(called.quals.len(), called.seq.len());
    }
    let rejected = runs.len() - expected.len();
    assert!(rejected > 0, "dataset should exercise skipping");
    assert_eq!(sink.skipped(), rejected);
    let (written, bytes) = sink.finish().expect("no I/O errors on a Vec");
    assert_eq!(written, expected.len());

    // Every header names its read `read<id>`, in emission order.
    let text = std::str::from_utf8(&bytes).expect("FASTQ is ASCII");
    let headers: Vec<&str> = text.lines().step_by(4).collect();
    let names: Vec<String> = expected.iter().map(|r| format!("@read{}", r.id)).collect();
    assert_eq!(headers, names);

    // The file round-trips: every record parses back with its sequence.
    let parsed = genpip::genomics::fastx::read_fastq(bytes.as_slice()).expect("valid FASTQ");
    assert_eq!(parsed.len(), expected.len());
    for (record, run) in parsed.into_iter().zip(&expected) {
        let called = run.called.as_ref().expect("survivor");
        assert_eq!(&record.seq, &called.seq, "read {}", run.id);
    }

    // Without keep_bases, no read carries its sequence (and the sink would
    // skip everything).
    let plain = PipelineRun::collect(
        &d,
        &GenPipConfig::for_dataset(&d.profile),
        Flow::GenPip(ErMode::Full),
    );
    assert!(plain.reads.iter().all(|r| r.called.is_none()));
}
