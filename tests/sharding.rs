//! Shard-count invariance of the whole pipeline: splitting the reference
//! minimizer index across position-range shards must never change any
//! output bit — mapping, mapq, counters — for any `ErMode`, `Parallelism`,
//! or execution style (batch or streaming), and the streaming executor's
//! bounded-memory guarantee must survive sharded mappers.
//!
//! The parallelism sweep includes `GENPIP_PARALLELISM` (when set), which CI
//! uses to force both threading paths through this suite.

mod common;

use common::{keep_reads, reference_run};
use genpip::core::pipeline::{ErMode, PipelineRun};
use genpip::core::stream::StreamOptions;
use genpip::core::{Flow, GenPipConfig, Parallelism, ReadRun, Session, Shards};
use genpip::datasets::{DatasetProfile, SimulatedDataset};
use genpip::genomics::{DnaSeq, Genome, GenomeBuilder};
use genpip::mapping::{Mapper, MapperParams};

fn dataset() -> SimulatedDataset {
    DatasetProfile::ecoli().scaled(0.03).generate()
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

fn shard_sweep() -> [Shards; 3] {
    [Shards::Fixed(2), Shards::Fixed(7), Shards::Auto]
}

#[test]
fn pipeline_output_is_bit_identical_for_every_shard_count() {
    let d = dataset();
    let base = GenPipConfig::for_dataset(&d.profile);
    for er in [ErMode::None, ErMode::QsrOnly, ErMode::Full] {
        // The unsharded serial oracle replay is the reference for every
        // sharded, threaded run.
        let single = base.clone().with_shards(Shards::Single);
        let reference = reference_run(&d, &single, Flow::GenPip(er));
        for parallelism in parallelism_sweep() {
            for shards in shard_sweep() {
                let config = base
                    .clone()
                    .with_parallelism(parallelism)
                    .with_shards(shards);
                let run = PipelineRun::collect(&d, &config, Flow::GenPip(er));
                assert_eq!(
                    run.reads, reference,
                    "{er:?} / {parallelism:?} / {shards:?} diverged from Shards::Single"
                );
            }
        }
    }
}

/// The masking edge case sharding can get wrong: a minimizer whose global
/// occurrence count exceeds the repetitive cap while every per-shard count
/// stays under it. Masking per shard would resurrect its anchors and move
/// mappings; masking on the summed count must keep every result bit-equal.
#[test]
fn repeat_heavy_reference_maps_identically_across_shard_counts() {
    // 140 copies of a 400 bp unit beat the default cap of 128 globally;
    // across 7 shards each holds only ~20 copies.
    let unit = GenomeBuilder::new(400)
        .seed(31)
        .repeat_fraction(0.0)
        .build();
    let mut seq = DnaSeq::new();
    for _ in 0..140 {
        seq.extend_from_seq(unit.sequence());
    }
    seq.extend_from_seq(
        GenomeBuilder::new(30_000)
            .seed(32)
            .repeat_fraction(0.0)
            .build()
            .sequence(),
    );
    let genome = Genome::from_seq("repeat-heavy", seq);
    let single = Mapper::build(&genome, MapperParams::default());

    // Queries: from the repeat, from unique sequence, straddling the join.
    let queries = [
        unit.sequence().subseq(10, 380),
        genome.sequence().subseq(140 * 400 + 8_000, 1_200),
        genome.sequence().subseq(140 * 400 - 600, 1_400),
    ];
    for shards in shard_sweep() {
        let params = MapperParams {
            shards,
            ..MapperParams::default()
        };
        let sharded = Mapper::build(&genome, params);
        assert!(
            sharded.index().masked_keys() > 0,
            "repeat genome must trip the global mask"
        );
        if sharded.index().shard_count() > 1 {
            // Prove the edge case is actually exercised: some globally
            // masked key sits below the cap inside at least one shard, so a
            // per-shard mask would have let it through.
            let cap = sharded.index().max_occurrences();
            let split_repeat = (0..sharded.index().shard_count()).any(|s| {
                sharded.index().shard(s).iter().any(|(h, hits)| {
                    sharded.index().is_masked(*h) && !hits.is_empty() && hits.len() <= cap
                })
            });
            assert!(split_repeat, "{shards:?}: masked keys never split");
        }
        for (i, q) in queries.iter().enumerate() {
            assert_eq!(
                sharded.map(q),
                single.map(q),
                "{shards:?}: query {i} diverged"
            );
        }
    }
}

#[test]
fn streaming_with_sharded_mappers_matches_batch_and_keeps_the_memory_bound() {
    let d = dataset();
    let workers = 4usize;
    let queue_capacity = 2usize;
    let config = GenPipConfig::for_dataset(&d.profile)
        .with_parallelism(Parallelism::Threads(workers))
        .with_shards(Shards::Fixed(3));
    let batch = PipelineRun::collect(&d, &config, Flow::GenPip(ErMode::Full));
    let mut reads: Vec<ReadRun> = Vec::new();
    let summary = Session::new(config)
        .flow(Flow::GenPip(ErMode::Full))
        .options(StreamOptions {
            queue_capacity,
            ..StreamOptions::default()
        })
        .source("stream", d.stream())
        .sink("stream", keep_reads(&mut reads))
        .run()
        .expect("valid session");
    assert_eq!(reads, batch.reads, "sharded streaming diverged from batch");
    assert_eq!(summary.totals, batch.totals());
    assert_eq!(summary.in_flight_limit, queue_capacity + workers);
    assert!(
        summary.max_in_flight <= summary.in_flight_limit,
        "sharded mappers broke the in-flight bound: {} > {}",
        summary.max_in_flight,
        summary.in_flight_limit
    );
}
