//! Micro-benchmarks of the computational kernels, plus the end-to-end
//! parallel pipeline bench.
//!
//! These measure the *real* wall-clock cost of this reproduction's
//! implementations (not the modelled hardware times): the MVM emission
//! kernel, CAM search, Viterbi chunk decoding (allocation-free scratch
//! path) and its DP-row and traceback stages on their own, chunk
//! normalization, the lane-batched SoA Viterbi kernel at widths 1/4/8 (a
//! library-level option of `genpip_basecall`; scalar bit-identity asserted
//! in-bench), minimizer extraction, chaining DP, the seed path (sketch,
//! index lookup, chain) on one query, pan-genome mapping against 1 vs 3
//! named references (one shared sketch, per-reference seeding,
//! deterministic merge; set-vs-solo bit-identity check), banded
//! alignment, end-to-end single-read processing, the batch
//! pipeline (one `Session` source) at 1/2/4 worker threads with a
//! serial-vs-parallel bit-identity check, the streaming executor (a
//! `Session` over a lazy `StreamingSimulator` source) across worker/queue
//! settings with a streaming-vs-batch bit-identity check, on-disk GSC
//! container replay (pack throughput plus the file read-path tax vs the
//! in-memory source, bit-identity asserted), the
//! multi-source `Session` engine (1 vs 2 fair-share-interleaved sources
//! over one worker pool) with a per-source-vs-solo bit-identity check,
//! and the *live* session control plane: mid-run attach/detach overhead
//! against a static two-source session (bit-identity asserted) and the
//! `Deadline` schedule's short-source tail residency against `FairShare`.
//!
//! Results are printed as a table and written to `BENCH_kernels.json` at the
//! repo root so future PRs have a perf trajectory to compare against. Note
//! that the parallel speedups are only meaningful relative to
//! `host_threads` in the report: a single-core host shows ~1× regardless of
//! worker count.

use genpip_basecall::viterbi::{decode_with, DecodeScratch, Transitions};
use genpip_basecall::{
    BasecalledChunk, Basecaller, CallScratch, ChunkJob, EmissionModel, LaneDecoder, LaneScratch,
};
use genpip_bench::micro::{bench, bench_json, time_once, Json};
use genpip_core::engine::Granularity;
use genpip_core::engine::{AttachSpec, Flow, Session, SessionControl};
use genpip_core::pipeline::{ErMode, ReadRun};
use genpip_core::scheduler::Schedule;
use genpip_core::stream::{StreamEvent, StreamOptions};
use genpip_core::{GenPipConfig, Parallelism};
use genpip_datasets::{DatasetProfile, FaultInjector, SimulatedDataset, StreamingSimulator};
use genpip_genomics::GenomeBuilder;
use genpip_io::{pack_source, GscReadSource};
use genpip_mapping::{
    minimizers_into, AlignScratch, Anchor, ChainParams, IncrementalChainer, Mapper, MapperParams,
    MinimizerScratch, ReferenceSet, SeedBatch, SeedScratch,
};
use genpip_pim::{CamBank, CrossbarArray};
use genpip_signal::{normalize_to_model, PoreModel, SignalSynthesizer};
use std::hint::black_box;
use std::sync::{Arc, Mutex};

/// One batch run through the `Session` engine: the dataset's reads, fully
/// processed, in admission order.
fn batch_via_session(
    dataset: &SimulatedDataset,
    config: &GenPipConfig,
    er: ErMode,
) -> Vec<ReadRun> {
    let mut reads = Vec::new();
    Session::new(config.clone())
        .flow(Flow::GenPip(er))
        .source("batch", dataset.stream())
        .sink("batch", |event| {
            if let StreamEvent::Read(run) = event {
                reads.push(run);
            }
        })
        .run()
        .expect("bench session inputs are valid");
    reads
}

/// Best SIMD extension the host advertises, recorded next to
/// `host_threads` in the report so the lane-batch rows can be compared
/// across machines (the SoA kernel's stride-1 inner loop is what the
/// auto-vectorizer targets).
fn host_simd() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") {
            "avx512f"
        } else if is_x86_feature_detected!("avx2") {
            "avx2"
        } else if is_x86_feature_detected!("sse4.2") {
            "sse4.2"
        } else {
            "sse2"
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        "neon"
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        "unknown"
    }
}

fn main() {
    let mut results = Vec::new();

    // --- MVM emission kernel (single sample and strided block) ---
    let pore = PoreModel::synthetic(3, 7);
    let emission = EmissionModel::from_pore_model(&pore);
    let n_states = emission.states();
    {
        let mut out = vec![0.0f32; n_states];
        results.push(bench(
            "mvm/emission_64_states",
            Some((n_states as f64, "states")),
            || {
                emission.log_likelihoods(black_box(93.7), &mut out);
                out[0]
            },
        ));
        let xs = [88.0f32, 91.5, 95.2, 99.9, 104.1, 96.3, 90.0, 93.3];
        let mut block = vec![0.0f32; xs.len() * n_states];
        results.push(bench(
            "mvm/emission_block8",
            Some((xs.len() as f64 * n_states as f64, "states")),
            || {
                emission.log_likelihoods_block(black_box(&xs), &mut block);
                block[0]
            },
        ));
        let mut xbar = CrossbarArray::new(3, 64);
        xbar.program(&vec![0.5f32; 3 * 64]);
        results.push(bench("mvm/crossbar_64x3", None, || {
            xbar.mvm(black_box(&[1.0, 2.0, 3.0]))
        }));
    }

    // --- CAM search ---
    {
        let keys: Vec<u64> = (0..100_000u64)
            .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15))
            .collect();
        let mut bank = CamBank::build(keys.iter().copied(), 128);
        let mut i = 0usize;
        results.push(bench("cam/search_100k_keys", None, || {
            i = (i + 1) % keys.len();
            bank.search(black_box(keys[i]))
        }));
    }

    // --- Viterbi chunk decode (the dominant kernel), scratch-reuse path ---
    let synth = SignalSynthesizer::new(pore.clone());
    let caller = Basecaller::new(&pore, synth.mean_dwell());
    {
        let truth = GenomeBuilder::new(300).seed(1).build().sequence().clone();
        let sig = synth.synthesize(&truth, 1.0, 2);
        let mut scratch = CallScratch::new();
        results.push(bench(
            "basecall/viterbi_chunk_300bases",
            Some((sig.samples.len() as f64, "samples")),
            || {
                caller
                    .call_chunk_with(black_box(&sig.samples), None, &mut scratch)
                    .bases
                    .len()
            },
        ));

        // The stages of that chunk, one row each, so that the chunk row
        // decomposes: emission MVMs (`mvm/emission_block8` × samples / 8),
        // DP rows, traceback, and around them the integrity check, the copy
        // into the scratch and the base/quality assembly. The DP rows run
        // over the emission block the decode above left in the scratch,
        // which is as warm as the decoder's own.
        let n = sig.samples.len();
        let transitions = Transitions::from_mean_dwell(synth.mean_dwell());
        let mut decode = DecodeScratch::new();
        decode_with(&emission, &sig.samples, transitions, None, &mut decode);
        results.push(bench(
            &format!("basecall/viterbi_dp_rows_{n}x{n_states}"),
            Some((n as f64, "samples")),
            || {
                let mut t = 1;
                while t < n {
                    let len = EmissionModel::BLOCK.min(n - t);
                    black_box(&mut decode).dp_rows(t, len, transitions);
                    t += len;
                }
            },
        ));
        decode_with(&emission, &sig.samples, transitions, None, &mut decode);
        results.push(bench(
            &format!("basecall/viterbi_traceback_{n}"),
            Some((n as f64, "samples")),
            || black_box(&mut decode).traceback(false),
        ));

        // Median/MAD normalization of the same chunk (off in the pipeline's
        // basecaller, so not a term of the chunk row): two full sorts and
        // three `Vec`s per call today.
        let mut normalized = sig.samples.clone();
        results.push(bench(
            &format!("signal/normalize_chunk_{n}"),
            Some((n as f64, "samples")),
            || {
                normalized.copy_from_slice(&sig.samples);
                normalize_to_model(black_box(&mut normalized), &pore).mad
            },
        ));
    }

    // --- Lane-batched Viterbi decode: W chunks in lockstep (SoA kernel) ---
    // The same chunk decode, batched W-wide through the structure-of-arrays
    // lane kernel. Chunks share one base count — chunk tasks are cut at a
    // fixed `chunk_bases`, so equal-sized chunks are the representative
    // load — while dwell noise still staggers the exact sample counts, so
    // the tail exercises lane drain. Every width's
    // outputs are asserted bit-identical to the scalar decoder on the same
    // jobs, and the W>1 rows report per-sample speedup over the W=1
    // (scalar-path) row.
    let mut lane_rows = Vec::new();
    let mut lane_batch_matches_scalar = true;
    {
        let signals: Vec<_> = (0..8usize)
            .map(|i| {
                let truth = GenomeBuilder::new(300)
                    .seed(40 + i as u64)
                    .build()
                    .sequence()
                    .clone();
                synth.synthesize(&truth, 1.0, 2)
            })
            .collect();
        let mut scalar_scratch = CallScratch::new();
        let reference: Vec<BasecalledChunk> = signals
            .iter()
            .map(|sig| caller.call_chunk_with(&sig.samples, None, &mut scalar_scratch))
            .collect();
        // Each width is measured in 3 rounds that alternate widths, and the
        // reported row is the per-width median: this host's load drifts on
        // a multi-second scale, and back-to-back per-width measurement
        // would let one slow window poison a single row's speedup ratio.
        let widths = [1usize, 4, 8];
        let mut trials: Vec<Vec<_>> = widths.iter().map(|_| Vec::new()).collect();
        for _round in 0..3 {
            for (wi, &width) in widths.iter().enumerate() {
                let jobs: Vec<ChunkJob> = signals[..width]
                    .iter()
                    .map(|sig| ChunkJob {
                        samples: &sig.samples,
                        carry: None,
                    })
                    .collect();
                let total_samples: usize = signals[..width].iter().map(|s| s.samples.len()).sum();
                let decoder = LaneDecoder::new(width);
                let mut scratch = LaneScratch::new();
                let mut chunks = Vec::new();
                let r = bench(
                    &format!("basecall/viterbi_lanes_{width}"),
                    Some((total_samples as f64, "samples")),
                    || {
                        decoder.call_batch(&caller, black_box(&jobs), &mut scratch, &mut chunks);
                        chunks.len()
                    },
                );
                decoder.call_batch(&caller, &jobs, &mut scratch, &mut chunks);
                lane_batch_matches_scalar &= chunks == reference[..width];
                trials[wi].push((r, total_samples));
            }
        }
        let mut width1_ns_per_sample = None;
        for (wi, &width) in widths.iter().enumerate() {
            trials[wi].sort_by(|a, b| {
                a.0.ns_per_iter
                    .partial_cmp(&b.0.ns_per_iter)
                    .expect("finite timings")
            });
            let (r, total_samples) = trials[wi].swap_remove(1);
            let ns_per_sample = r.ns_per_iter / total_samples as f64;
            if width == 1 {
                width1_ns_per_sample = Some(ns_per_sample);
            }
            lane_rows.push(Json::obj([
                ("kind", Json::Str("kernel".into())),
                ("width", Json::Num(width as f64)),
                ("ns_per_iter", Json::Num(r.ns_per_iter)),
                ("samples_per_s", Json::Num(1e9 / ns_per_sample)),
                (
                    "speedup_vs_width1",
                    Json::Num(width1_ns_per_sample.expect("width-1 row ran first") / ns_per_sample),
                ),
            ]));
            results.push(r);
        }
        assert!(
            lane_batch_matches_scalar,
            "lane-batched kernel diverged from the scalar decoder"
        );
    }

    // --- Minimizer sketching, scratch-reuse path ---
    {
        let seq = GenomeBuilder::new(10_000)
            .seed(3)
            .build()
            .sequence()
            .clone();
        let mut scratch = MinimizerScratch::default();
        let mut out = Vec::new();
        results.push(bench(
            "sketch/minimizers_10kb",
            Some((seq.len() as f64, "bases")),
            || {
                minimizers_into(black_box(&seq), 15, 10, &mut scratch, &mut out);
                out.len()
            },
        ));
    }

    // --- Chaining DP ---
    {
        let anchors: Vec<Anchor> = (0..2_000u64)
            .map(|i| Anchor {
                qpos: i * 7,
                rpos: 10_000 + i * 7 + (i % 13),
            })
            .collect();
        let mut chainer = IncrementalChainer::new(ChainParams::for_k(15));
        results.push(bench(
            "chain/2000_anchors",
            Some((anchors.len() as f64, "anchors")),
            || {
                chainer.reset();
                chainer.extend(black_box(&anchors));
                chainer.best_score()
            },
        ));
    }

    // --- Seeding: sketch + index lookup + chain on one 4 kb query ---
    {
        let genome = GenomeBuilder::new(200_000).seed(21).build();
        let query = genome.sequence().subseq(80_000, 4_000);
        let mapper = Mapper::build(&genome, MapperParams::default());
        let mut scratch = SeedScratch::new();
        let mut batch = SeedBatch::default();
        let (mut fwd, mut rev) = mapper.new_chainers();
        results.push(bench(
            "seed/lookup_chain",
            Some((query.len() as f64, "bases")),
            || {
                fwd.reset();
                rev.reset();
                let n = mapper.sketch_and_seed_into(black_box(&query), 0, &mut scratch, &mut batch);
                fwd.extend(&batch.forward);
                rev.extend(&batch.reverse);
                (n, fwd.best_score().max(rev.best_score()))
            },
        ));
    }

    // --- Pan-genome seeding: one read against 1 vs 3 named references ---
    // The whole per-read fan-out (one shared sketch, per-reference seeding
    // and chaining, deterministic best-hit merge) as the panel grows, with
    // the headline property asserted: a one-reference set is bit-identical
    // to the plain mapper, and the primary's candidate inside a three-way
    // panel is bit-identical to its solo result.
    let mut pan_rows = Vec::new();
    let pan_matches_solo;
    {
        let primary = GenomeBuilder::new(200_000).seed(21).name("primary").build();
        let decoys = [
            GenomeBuilder::new(150_000).seed(22).name("decoy_a").build(),
            GenomeBuilder::new(100_000).seed(23).name("decoy_b").build(),
        ];
        let query = primary.sequence().subseq(80_000, 4_000);
        let params = MapperParams::default();
        let solo = Mapper::build(&primary, params).map(&query);
        let mut solo_ns = None;
        let mut bitwise_equal = true;
        for n_refs in [1usize, 3] {
            let mut genomes = vec![primary.clone()];
            if n_refs > 1 {
                genomes.extend(decoys.iter().cloned());
            }
            let set = ReferenceSet::build(&genomes, params);
            let mut scratch = SeedScratch::new();
            let mut batches = Vec::new();
            let mut pairs = set.new_chainer_pairs();
            let mut align = AlignScratch::new();
            let r = bench(
                &format!("pan_genome/map_{n_refs}_references"),
                Some((query.len() as f64, "bases")),
                || {
                    set.map_with(
                        black_box(&query),
                        &mut scratch,
                        &mut batches,
                        &mut pairs,
                        &mut align,
                    )
                    .best_chain_score
                },
            );
            let result = set.map(&query);
            if n_refs == 1 {
                bitwise_equal &= result.best == solo.mapping
                    && result.best_chain_score == solo.best_chain_score
                    && result.counters == solo.counters;
                solo_ns = Some(r.ns_per_iter);
            } else {
                bitwise_equal &= result.per_reference[0].mapping == solo.mapping
                    && result.per_reference[0].best_chain_score == solo.best_chain_score;
            }
            pan_rows.push(Json::obj([
                ("references", Json::Num(n_refs as f64)),
                ("ns_per_iter", Json::Num(r.ns_per_iter)),
                (
                    "overhead_vs_solo",
                    Json::Num(r.ns_per_iter / solo_ns.expect("solo row ran first") - 1.0),
                ),
            ]));
            results.push(r);
        }
        pan_matches_solo = bitwise_equal;
        assert!(
            pan_matches_solo,
            "pan-genome mapping diverged from the solo mapper"
        );
    }

    // --- Banded alignment ---
    {
        use genpip_mapping::align::{banded_global, AlignmentParams};
        let genome = GenomeBuilder::new(3_000).seed(4).build();
        let q = genome.sequence().subseq(0, 2_000);
        let r = genome.sequence().subseq(0, 2_050);
        let params = AlignmentParams::default();
        results.push(bench(
            "align/banded_2kb_hw64",
            Some((q.len() as f64, "bases")),
            || banded_global(black_box(&q), black_box(&r), &params, 0, 64).score,
        ));

        // The geometry `finalize_mapping` produces for a typical read: 3.5 kb
        // at 4 % error, `hw = band_margin + n / 20`. Elements are DP cells,
        // so ns_per_iter / elements_per_iter is ns/cell.
        let genome = GenomeBuilder::new(5_000).seed(14).build();
        let truth = genome.sequence().subseq(500, 3_500);
        let mut rng = genpip_genomics::rng::seeded(15);
        let (q, _) = genpip_genomics::ErrorModel::with_total_rate(0.04).apply(&truth, &mut rng);
        let hw = MapperParams::default().band_margin + q.len() / 20;
        let cells = banded_global(&q, &truth, &params, 0, hw).cells;
        results.push(bench(
            "align/banded_3p5kb_pipeline_band",
            Some((cells as f64, "cells")),
            || banded_global(black_box(&q), black_box(&truth), &params, 0, hw).score,
        ));

        // The same step as the pipeline runs it: window extraction, band
        // placement and the kernel on a warmed per-worker scratch.
        let genome = GenomeBuilder::new(100_000).seed(16).build();
        let mapper = Mapper::build(&genome, MapperParams::default());
        let truth = genome.sequence().subseq(40_000, 3_000);
        let (q, _) = genpip_genomics::ErrorModel::with_total_rate(0.04).apply(&truth, &mut rng);
        let (mut fwd, mut rev) = mapper.new_chainers();
        let (batch, _) = mapper.sketch_and_seed(&q, 0);
        fwd.extend(&batch.forward);
        rev.extend(&batch.reverse);
        let mut align = AlignScratch::new();
        let (mapping, _, cells) = mapper.finalize_mapping_with(&q, &fwd, &rev, &mut align);
        assert!(mapping.is_some(), "the bench read must map");
        results.push(bench(
            "align/finalize_mapping_3kb",
            Some((cells as f64, "cells")),
            || {
                mapper
                    .finalize_mapping_with(black_box(&q), &fwd, &rev, &mut align)
                    .2
            },
        ));
    }

    // --- End-to-end single read (basecall + map), scratch-reuse path ---
    {
        let genome = GenomeBuilder::new(100_000).seed(5).build();
        let mapper = Mapper::build(&genome, MapperParams::default());
        let truth = genome.sequence().subseq(40_000, 3_000);
        let sig = synth.synthesize(&truth, 1.0, 6);
        let mut call_scratch = CallScratch::new();
        let mut seed_scratch = SeedScratch::new();
        let mut batch = SeedBatch::default();
        results.push(bench(
            "end_to_end/basecall_and_map_3kb",
            Some((truth.len() as f64, "bases")),
            || {
                let mut seq = genpip_genomics::DnaSeq::new();
                let mut carry = None;
                for spec in genpip_signal::chunk_boundaries(sig.samples.len(), 2_400) {
                    let chunk = caller.call_chunk_with(
                        &sig.samples[spec.start..spec.end],
                        carry,
                        &mut call_scratch,
                    );
                    carry = chunk.carry;
                    seq.extend_from_seq(&chunk.bases);
                }
                let (mut fwd, mut rev) = mapper.new_chainers();
                let n = mapper.sketch_and_seed_into(&seq, 0, &mut seed_scratch, &mut batch);
                fwd.extend(&batch.forward);
                rev.extend(&batch.reverse);
                let (mapping, _, _) = mapper.finalize_mapping(&seq, &fwd, &rev);
                (n, mapping.is_some())
            },
        ));
    }

    // --- Pipeline scheduler ---
    {
        use genpip_sim::{Job, PipelineSim, SimTime, StageSpec};
        let jobs: Vec<Job> = (0..10_000)
            .map(|i| {
                Job::new(
                    i / 10,
                    i % 10,
                    vec![SimTime::from_ns(100.0), SimTime::from_ns(40.0)],
                )
            })
            .collect();
        results.push(bench(
            "sim/pipeline_10k_jobs",
            Some((jobs.len() as f64, "jobs")),
            || {
                let mut sim = PipelineSim::new(vec![
                    StageSpec::new("a", 8).sequential_within_read(),
                    StageSpec::new("b", 64),
                ]);
                sim.run(black_box(&jobs)).makespan
            },
        ));
    }

    println!("=== kernel micro-benchmarks ===");
    for r in &results {
        println!("{}", r.summary());
    }

    // --- End-to-end pipeline: one batch Session at 1/2/4 worker threads ---
    let scale = std::env::var("GENPIP_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(0.1);
    let dataset = DatasetProfile::ecoli().scaled(scale).generate();
    let total_samples: usize = dataset.reads.iter().map(|r| r.signal.samples.len()).sum();
    println!(
        "\n=== pipeline bench (scale {scale}: {} reads, {total_samples} samples) ===",
        dataset.reads.len()
    );

    let mut thread_rows = Vec::new();
    let mut serial_reads = None;
    let mut bit_identical = true;
    for workers in [1usize, 2, 4] {
        let config =
            GenPipConfig::for_dataset(&dataset.profile).with_parallelism(if workers == 1 {
                Parallelism::Serial
            } else {
                Parallelism::Threads(workers)
            });
        // One warm-up pass, then the timed pass.
        let _ = batch_via_session(&dataset, &config, ErMode::Full);
        let (reads, seconds) = time_once(|| batch_via_session(&dataset, &config, ErMode::Full));
        let reads_per_s = reads.len() as f64 / seconds;
        match &serial_reads {
            None => serial_reads = Some((reads.clone(), seconds)),
            Some((reference, _)) => bit_identical &= reference == &reads,
        }
        let speedup = serial_reads
            .as_ref()
            .map(|(_, s0)| s0 / seconds)
            .unwrap_or(1.0);
        println!(
            "threads {workers}: {seconds:.3} s  {reads_per_s:>8.1} reads/s  speedup {speedup:.2}x"
        );
        thread_rows.push(Json::obj([
            ("threads", Json::Num(workers as f64)),
            ("seconds", Json::Num(seconds)),
            ("reads_per_s", Json::Num(reads_per_s)),
            ("samples_per_s", Json::Num(total_samples as f64 / seconds)),
            ("speedup_vs_serial", Json::Num(speedup)),
        ]));
    }
    println!(
        "serial vs parallel outputs bit-identical: {bit_identical} (host threads: {})",
        Parallelism::Auto.workers()
    );
    assert!(
        bit_identical,
        "parallel pipeline diverged from serial output"
    );

    // --- Streaming pipeline: lazy source → bounded queue → in-order sink ---
    // Timed end to end including on-the-fly read synthesis (the streaming
    // scenario: source latency is part of the pipeline), so reads/s here is
    // not directly comparable to the batch rows above.
    println!("\n=== streaming pipeline bench (lazy source, bounded queue) ===");
    let batch_reference = &serial_reads.as_ref().expect("serial pass ran").0;
    let mut streaming_rows = Vec::new();
    let mut streaming_matches_batch = true;
    for (workers, queue_capacity) in [(1usize, 8usize), (2, 8), (4, 2), (4, 16)] {
        let config =
            GenPipConfig::for_dataset(&dataset.profile).with_parallelism(if workers == 1 {
                Parallelism::Serial
            } else {
                Parallelism::Threads(workers)
            });
        let opts = StreamOptions {
            queue_capacity,
            ..StreamOptions::default()
        };
        let mut reads = Vec::new();
        let (summary, seconds) = time_once(|| {
            Session::new(config.clone())
                .flow(Flow::GenPip(ErMode::Full))
                .options(opts)
                .source("stream", StreamingSimulator::new(&dataset.profile))
                .sink("stream", |event| {
                    if let StreamEvent::Read(run) = event {
                        reads.push(run);
                    }
                })
                .run()
                .expect("bench session inputs are valid")
        });
        streaming_matches_batch &= &reads == batch_reference;
        let reads_per_s = summary.outcomes.reads_emitted as f64 / seconds;
        println!(
            "threads {workers} queue {queue_capacity:>2}: {seconds:.3} s  \
             {reads_per_s:>8.1} reads/s  peak in-flight {}/{}",
            summary.max_in_flight, summary.in_flight_limit
        );
        streaming_rows.push(Json::obj([
            ("threads", Json::Num(workers as f64)),
            ("queue_capacity", Json::Num(queue_capacity as f64)),
            ("seconds", Json::Num(seconds)),
            ("reads_per_s", Json::Num(reads_per_s)),
            (
                "samples_per_s",
                Json::Num(summary.totals.samples as f64 / seconds),
            ),
            ("max_in_flight", Json::Num(summary.max_in_flight as f64)),
            ("in_flight_limit", Json::Num(summary.in_flight_limit as f64)),
        ]));
    }
    println!("streaming vs batch outputs bit-identical: {streaming_matches_batch}");
    assert!(
        streaming_matches_batch,
        "streaming pipeline diverged from batch output"
    );

    // --- File streaming: on-disk GSC container replay vs in-memory source ---
    // Packs the bench dataset into a GSC container once (pack throughput is
    // its own row), then replays the file through the same session the
    // in-memory rows above used. The file rows time the whole read path —
    // open, per-record decode, checksum verification — and report the tax
    // against the equivalent in-memory run, with the headline property
    // asserted: file-backed streaming is bit-identical to the batch
    // reference at every worker count.
    println!("\n=== file streaming bench (GSC container read path) ===");
    let mut file_rows = Vec::new();
    let mut file_streaming_matches_memory = true;
    {
        let gsc_path =
            std::env::temp_dir().join(format!("genpip-bench-{}.gsc", std::process::id()));
        let (packed, pack_seconds) = time_once(|| {
            let mut source = StreamingSimulator::new(&dataset.profile);
            pack_source(&gsc_path, &mut source).expect("pack bench container")
        });
        println!(
            "pack: {pack_seconds:.3} s  {:>8.1} reads/s  {} bytes ({:.1} MB/s)",
            packed.reads as f64 / pack_seconds,
            packed.file_bytes,
            packed.file_bytes as f64 / pack_seconds / 1e6
        );
        file_rows.push(Json::obj([
            ("case", Json::Str("pack".into())),
            ("seconds", Json::Num(pack_seconds)),
            ("reads_per_s", Json::Num(packed.reads as f64 / pack_seconds)),
            ("file_bytes", Json::Num(packed.file_bytes as f64)),
            (
                "bytes_per_s",
                Json::Num(packed.file_bytes as f64 / pack_seconds),
            ),
        ]));
        for workers in [1usize, 4] {
            let config =
                GenPipConfig::for_dataset(&dataset.profile).with_parallelism(if workers == 1 {
                    Parallelism::Serial
                } else {
                    Parallelism::Threads(workers)
                });
            let opts = StreamOptions {
                queue_capacity: 8,
                ..StreamOptions::default()
            };
            let run_from = |label: &str, file_backed: bool| {
                let mut reads = Vec::new();
                let (_, seconds) = time_once(|| {
                    let session = Session::new(config.clone())
                        .flow(Flow::GenPip(ErMode::Full))
                        .options(opts);
                    let session = if file_backed {
                        session.source(
                            label,
                            GscReadSource::open(&gsc_path).expect("open bench container"),
                        )
                    } else {
                        session.source(label, StreamingSimulator::new(&dataset.profile))
                    };
                    session
                        .sink(label, |event| {
                            if let StreamEvent::Read(run) = event {
                                reads.push(run);
                            }
                        })
                        .run()
                        .expect("bench session inputs are valid")
                });
                (reads, seconds)
            };
            let (memory_reads, memory_seconds) = run_from("memory", false);
            let (file_reads, file_seconds) = run_from("file", true);
            file_streaming_matches_memory &=
                &file_reads == batch_reference && memory_reads == file_reads;
            println!(
                "threads {workers}: file {file_seconds:.3} s  {:>8.1} reads/s  \
                 (memory {memory_seconds:.3} s, file tax {:+.1}%)",
                file_reads.len() as f64 / file_seconds,
                (file_seconds / memory_seconds - 1.0) * 100.0
            );
            file_rows.push(Json::obj([
                ("case", Json::Str(format!("replay_threads_{workers}"))),
                ("threads", Json::Num(workers as f64)),
                ("seconds", Json::Num(file_seconds)),
                (
                    "reads_per_s",
                    Json::Num(file_reads.len() as f64 / file_seconds),
                ),
                ("memory_seconds", Json::Num(memory_seconds)),
                (
                    "overhead_vs_memory",
                    Json::Num(file_seconds / memory_seconds - 1.0),
                ),
            ]));
        }
        std::fs::remove_file(&gsc_path).ok();
    }
    println!("file-backed streaming bit-identical to memory: {file_streaming_matches_memory}");
    assert!(
        file_streaming_matches_memory,
        "GSC container replay diverged from the in-memory source"
    );

    // --- Multi-source session: 1 vs 2 interleaved sources, one pool ---
    // The scheduling tax of serving two concurrent runs from one worker
    // pool, measured end to end (fair-share interleaving, shared in-flight
    // gate), with the headline property asserted: each source's per-read
    // output is bit-identical to running it alone.
    println!("\n=== multi-source session bench (fair-share, one worker pool) ===");
    let mut multi_rows = Vec::new();
    let mut multi_matches_solo = true;
    for n_sources in [1usize, 2] {
        let config =
            GenPipConfig::for_dataset(&dataset.profile).with_parallelism(Parallelism::Threads(4));
        let opts = StreamOptions {
            queue_capacity: 8,
            ..StreamOptions::default()
        };
        let mut collected: Vec<Vec<ReadRun>> = vec![Vec::new(); n_sources];
        let (report, seconds) = time_once(|| {
            let mut session = Session::new(config.clone())
                .flow(Flow::GenPip(ErMode::Full))
                .schedule(Schedule::FairShare)
                .options(opts);
            for (i, bucket) in collected.iter_mut().enumerate() {
                let id = format!("src{i}");
                session = session
                    .source(id.as_str(), StreamingSimulator::new(&dataset.profile))
                    .sink(id.as_str(), move |event| {
                        if let StreamEvent::Read(run) = event {
                            bucket.push(run);
                        }
                    });
            }
            session.run().expect("bench session inputs are valid")
        });
        for bucket in &collected {
            multi_matches_solo &= bucket == batch_reference;
        }
        let reads_per_s = report.outcomes.reads_emitted as f64 / seconds;
        println!(
            "sources {n_sources}: {seconds:.3} s  {reads_per_s:>8.1} reads/s  \
             peak in-flight {}/{}",
            report.max_in_flight, report.in_flight_limit
        );
        multi_rows.push(Json::obj([
            ("sources", Json::Num(n_sources as f64)),
            ("threads", Json::Num(4.0)),
            ("seconds", Json::Num(seconds)),
            ("reads_per_s", Json::Num(reads_per_s)),
            (
                "samples_per_s",
                Json::Num(report.totals.samples as f64 / seconds),
            ),
            ("max_in_flight", Json::Num(report.max_in_flight as f64)),
            ("in_flight_limit", Json::Num(report.in_flight_limit as f64)),
        ]));
    }
    println!("per-source outputs bit-identical to solo runs: {multi_matches_solo}");
    assert!(
        multi_matches_solo,
        "multi-source session diverged from solo output"
    );

    // --- Chunk granularity: read-granular vs chunk-granular scheduling ---
    // A mixed workload (a few ~120-chunk reads next to many ~2-chunk
    // reads) over 2 workers and a roomy queue: read-granular scheduling
    // queues short reads behind whole long reads, chunk-granular
    // scheduling interleaves chains per chunk. The short source's p99
    // residency (chunk-work units) is the head-of-line-blocking metric;
    // per-read output must be bit-identical between granularities.
    println!("\n=== chunk granularity bench (mixed short/long workload) ===");
    let long_profile = DatasetProfile::uniform("long", 4, 36_000.0);
    let short_profile = DatasetProfile::uniform("short", 60, 600.0);
    let mixed_config =
        GenPipConfig::for_dataset(&long_profile).with_parallelism(Parallelism::Threads(2));
    let mixed_opts = StreamOptions {
        queue_capacity: 8,
        ..StreamOptions::default()
    };
    let mut granularity_rows = Vec::new();
    let mut granularity_outputs: Vec<(Vec<ReadRun>, Vec<ReadRun>)> = Vec::new();
    for granularity in [Granularity::Read, Granularity::Chunk] {
        let mut short_reads = Vec::new();
        let mut long_reads = Vec::new();
        let (report, seconds) = time_once(|| {
            Session::new(mixed_config.clone())
                .flow(Flow::GenPip(ErMode::Full))
                .schedule(Schedule::FairShare)
                .granularity(granularity)
                .options(mixed_opts)
                .source("short", StreamingSimulator::new(&short_profile))
                .source("long", StreamingSimulator::new(&long_profile))
                .sink("short", |event| {
                    if let StreamEvent::Read(run) = event {
                        short_reads.push(run);
                    }
                })
                .sink("long", |event| {
                    if let StreamEvent::Read(run) = event {
                        long_reads.push(run);
                    }
                })
                .run()
                .expect("bench session inputs are valid")
        });
        let short_latency = report
            .source("short")
            .expect("short reported")
            .summary
            .latency;
        let label = match granularity {
            Granularity::Read => "read ",
            Granularity::Chunk => "chunk",
        };
        println!(
            "granularity {label}: {seconds:.3} s  short-read residency p50/p99/max \
             {}/{}/{} units  aggregate p99 {}  peak resident {}/{}",
            short_latency.p50,
            short_latency.p99,
            short_latency.max,
            report.latency.p99,
            report.max_in_flight,
            report.in_flight_limit
        );
        granularity_rows.push(Json::obj([
            (
                "granularity",
                Json::Str(match granularity {
                    Granularity::Read => "read".into(),
                    Granularity::Chunk => "chunk".into(),
                }),
            ),
            ("threads", Json::Num(2.0)),
            ("queue_capacity", Json::Num(8.0)),
            ("seconds", Json::Num(seconds)),
            ("short_p50", Json::Num(short_latency.p50 as f64)),
            ("short_p99", Json::Num(short_latency.p99 as f64)),
            ("short_max", Json::Num(short_latency.max as f64)),
            ("aggregate_p99", Json::Num(report.latency.p99 as f64)),
            ("max_in_flight", Json::Num(report.max_in_flight as f64)),
            ("in_flight_limit", Json::Num(report.in_flight_limit as f64)),
        ]));
        granularity_outputs.push((short_reads, long_reads));
    }
    let chunk_granularity_matches = granularity_outputs[0] == granularity_outputs[1];
    println!("read-granular vs chunk-granular outputs bit-identical: {chunk_granularity_matches}");
    assert!(
        chunk_granularity_matches,
        "chunk-granular scheduling diverged from read-granular output"
    );

    // --- Fault tolerance: containment overhead at 0% and 5% injection ---
    // The same session run through a `FaultInjector` under the Quarantine
    // policy. The 0% row measures the pure containment tax (catch_unwind
    // wrapping, policy checks, backlog accounting) against the rows above;
    // the 5% row shows a faulty flowcell feed surviving. Asserted at both
    // rates: survivors are bit-identical to the fault-free reference minus
    // the injected reads, and the quarantined set equals the injected set.
    println!("\n=== fault tolerance bench (quarantine containment) ===");
    let mut fault_rows = Vec::new();
    let mut fault_tolerance_matches = true;
    for inject_rate in [0.0f64, 0.05] {
        let config = GenPipConfig::for_dataset(&dataset.profile)
            .with_parallelism(Parallelism::Threads(4))
            .with_fault_policy(genpip_core::FaultPolicy::Quarantine);
        let mut injector =
            FaultInjector::new(StreamingSimulator::new(&dataset.profile), inject_rate, 42);
        let mut survivors = Vec::new();
        let mut failed_ids = Vec::new();
        let (report, seconds) = time_once(|| {
            Session::new(config.clone())
                .flow(Flow::GenPip(ErMode::Full))
                .options(StreamOptions {
                    queue_capacity: 8,
                    ..StreamOptions::default()
                })
                .source("faulty", &mut injector)
                .sink("faulty", |event| match event {
                    StreamEvent::Read(run) => survivors.push(run),
                    StreamEvent::Failed { read_id, .. } => failed_ids.push(read_id),
                    _ => {}
                })
                .run()
                .expect("bench session inputs are valid")
        });
        let injected = injector.injected_ids().to_vec();
        let expected: Vec<ReadRun> = batch_reference
            .iter()
            .filter(|run| !injected.contains(&run.id))
            .cloned()
            .collect();
        let mut sorted_failed = failed_ids.clone();
        sorted_failed.sort_unstable();
        let mut sorted_injected = injected.clone();
        sorted_injected.sort_unstable();
        fault_tolerance_matches &= survivors == expected && sorted_failed == sorted_injected;
        let reads_per_s = report.outcomes.reads_emitted as f64 / seconds;
        println!(
            "inject {:>4.1}%: {seconds:.3} s  {reads_per_s:>8.1} reads/s  \
             failed {}  retried {}  backlog high-water {}  peak in-flight {}/{}",
            inject_rate * 100.0,
            report.outcomes.failed,
            report.retried,
            report.max_reject_backlog,
            report.max_in_flight,
            report.in_flight_limit
        );
        fault_rows.push(Json::obj([
            ("inject_rate", Json::Num(inject_rate)),
            ("threads", Json::Num(4.0)),
            ("seconds", Json::Num(seconds)),
            ("reads_per_s", Json::Num(reads_per_s)),
            ("failed", Json::Num(report.outcomes.failed as f64)),
            ("retried", Json::Num(report.retried as f64)),
            (
                "max_reject_backlog",
                Json::Num(report.max_reject_backlog as f64),
            ),
            ("max_in_flight", Json::Num(report.max_in_flight as f64)),
            ("in_flight_limit", Json::Num(report.in_flight_limit as f64)),
        ]));
    }
    println!("survivors bit-identical, quarantined == injected: {fault_tolerance_matches}");
    assert!(
        fault_tolerance_matches,
        "fault containment changed the surviving reads"
    );

    // --- Live session: control-plane attach/detach + Deadline tails ---
    // A source attached mid-run must cost only the control-plane
    // round-trip (its per-read output stays bit-identical to a static
    // registration), a detach must drain and finalize without disturbing
    // the surviving source, and the Deadline schedule must move only
    // *when* chunks run — never the results.
    println!("\n=== live session bench (control plane + Deadline schedule) ===");
    let mut live_rows = Vec::new();
    let mut live_matches_static = true;
    let live_config =
        GenPipConfig::for_dataset(&dataset.profile).with_parallelism(Parallelism::Threads(4));
    let live_opts = StreamOptions {
        queue_capacity: 8,
        ..StreamOptions::default()
    };

    // Baseline: both sources registered before the run.
    let mut static_a = Vec::new();
    let mut static_b = Vec::new();
    let (static_report, static_seconds) = time_once(|| {
        Session::new(live_config.clone())
            .flow(Flow::GenPip(ErMode::Full))
            .schedule(Schedule::FairShare)
            .options(live_opts)
            .source("a", StreamingSimulator::new(&dataset.profile))
            .source("b", StreamingSimulator::new(&dataset.profile))
            .sink("a", |event| {
                if let StreamEvent::Read(run) = event {
                    static_a.push(run);
                }
            })
            .sink("b", |event| {
                if let StreamEvent::Read(run) = event {
                    static_b.push(run);
                }
            })
            .run()
            .expect("bench session inputs are valid")
    });
    println!(
        "static two-source: {static_seconds:.3} s  peak in-flight {}/{}",
        static_report.max_in_flight, static_report.in_flight_limit
    );
    live_rows.push(Json::obj([
        ("case", Json::Str("static_two_source".into())),
        ("threads", Json::Num(4.0)),
        ("seconds", Json::Num(static_seconds)),
        (
            "reads_per_s",
            Json::Num(static_report.outcomes.reads_emitted as f64 / static_seconds),
        ),
        (
            "max_in_flight",
            Json::Num(static_report.max_in_flight as f64),
        ),
        (
            "in_flight_limit",
            Json::Num(static_report.in_flight_limit as f64),
        ),
    ]));

    // Live attach: "b" joins through the control plane after "a"'s fifth
    // emission; per-source output must match the static registration.
    {
        let control = SessionControl::new();
        let live_a: Arc<Mutex<Vec<ReadRun>>> = Arc::new(Mutex::new(Vec::new()));
        let live_b: Arc<Mutex<Vec<ReadRun>>> = Arc::new(Mutex::new(Vec::new()));
        let attach_handle = Arc::new(Mutex::new(None));
        let (live_report, live_seconds) = time_once(|| {
            let profile = dataset.profile.clone();
            let control_in_sink = control.clone();
            let a_bucket = Arc::clone(&live_a);
            let b_bucket = Arc::clone(&live_b);
            let handle_slot = Arc::clone(&attach_handle);
            let mut emitted = 0usize;
            Session::new(live_config.clone())
                .flow(Flow::GenPip(ErMode::Full))
                .schedule(Schedule::FairShare)
                .options(live_opts)
                .source("a", StreamingSimulator::new(&dataset.profile))
                .sink("a", move |event| {
                    if let StreamEvent::Read(run) = event {
                        a_bucket.lock().unwrap().push(run);
                        emitted += 1;
                        if emitted == 5 {
                            let sink_bucket = Arc::clone(&b_bucket);
                            let handle = control_in_sink.attach_with(
                                "b",
                                StreamingSimulator::new(&profile),
                                AttachSpec::new().sink(move |event| {
                                    if let StreamEvent::Read(run) = event {
                                        sink_bucket.lock().unwrap().push(run);
                                    }
                                }),
                            );
                            *handle_slot.lock().unwrap() = Some(handle);
                        }
                    }
                })
                .run_with_control(&control)
                .expect("bench session inputs are valid")
        });
        let handle = attach_handle.lock().unwrap().take().expect("attach fired");
        handle.wait().expect("attach accepted");
        let live_a = live_a.lock().unwrap();
        let live_b = live_b.lock().unwrap();
        live_matches_static &= *live_a == static_a && *live_b == static_b;
        println!(
            "live attach at 5: {live_seconds:.3} s  (overhead vs static {:+.1}%)  \
             peak in-flight {}/{}",
            (live_seconds / static_seconds - 1.0) * 100.0,
            live_report.max_in_flight,
            live_report.in_flight_limit
        );
        live_rows.push(Json::obj([
            ("case", Json::Str("live_attach".into())),
            ("threads", Json::Num(4.0)),
            ("seconds", Json::Num(live_seconds)),
            (
                "reads_per_s",
                Json::Num(live_report.outcomes.reads_emitted as f64 / live_seconds),
            ),
            (
                "overhead_vs_static",
                Json::Num(live_seconds / static_seconds - 1.0),
            ),
            ("max_in_flight", Json::Num(live_report.max_in_flight as f64)),
            (
                "in_flight_limit",
                Json::Num(live_report.in_flight_limit as f64),
            ),
        ]));
    }

    // Live detach: "b" leaves through the control plane after ten total
    // emissions; its resident chains finish (summary finalized) and the
    // surviving source's output is untouched.
    {
        let control = SessionControl::new();
        let survivor: Arc<Mutex<Vec<ReadRun>>> = Arc::new(Mutex::new(Vec::new()));
        let detach_handle = Arc::new(Mutex::new(None));
        let emitted = Arc::new(Mutex::new(0usize));
        let (detach_report, detach_seconds) = time_once(|| {
            let mut session = Session::new(live_config.clone())
                .flow(Flow::GenPip(ErMode::Full))
                .schedule(Schedule::FairShare)
                .options(live_opts)
                .source("a", StreamingSimulator::new(&dataset.profile))
                .source("b", StreamingSimulator::new(&dataset.profile));
            for id in ["a", "b"] {
                let control_in_sink = control.clone();
                let handle_slot = Arc::clone(&detach_handle);
                let counter = Arc::clone(&emitted);
                let bucket = (id == "a").then(|| Arc::clone(&survivor));
                session = session.sink(id, move |event| {
                    if let StreamEvent::Read(run) = event {
                        if let Some(bucket) = &bucket {
                            bucket.lock().unwrap().push(run);
                        }
                        let mut n = counter.lock().unwrap();
                        *n += 1;
                        if *n == 10 {
                            *handle_slot.lock().unwrap() = Some(control_in_sink.detach("b"));
                        }
                    }
                });
            }
            session
                .run_with_control(&control)
                .expect("bench session inputs are valid")
        });
        let handle = detach_handle.lock().unwrap().take().expect("detach fired");
        let summary = handle.wait().expect("detach honored");
        live_matches_static &= *survivor.lock().unwrap() == static_a;
        println!(
            "live detach at 10: {detach_seconds:.3} s  detached source emitted {} \
             read(s) before leaving",
            summary.outcomes.reads_emitted
        );
        live_rows.push(Json::obj([
            ("case", Json::Str("live_detach".into())),
            ("threads", Json::Num(4.0)),
            ("seconds", Json::Num(detach_seconds)),
            (
                "detached_reads_emitted",
                Json::Num(summary.outcomes.reads_emitted as f64),
            ),
            (
                "max_in_flight",
                Json::Num(detach_report.max_in_flight as f64),
            ),
            (
                "in_flight_limit",
                Json::Num(detach_report.in_flight_limit as f64),
            ),
        ]));
    }

    // Deadline vs FairShare on the mixed workload: the short source gets a
    // tight residency target, the long source a lax one. Outputs must stay
    // bit-identical — the schedule only moves *when* chunks run.
    let mut tail_outputs: Vec<(Vec<ReadRun>, Vec<ReadRun>)> = Vec::new();
    for (label, schedule) in [
        ("fairshare", Schedule::FairShare),
        ("deadline", Schedule::Deadline(vec![16, 400])),
    ] {
        let mut short_reads = Vec::new();
        let mut long_reads = Vec::new();
        let (report, seconds) = time_once(|| {
            Session::new(mixed_config.clone())
                .flow(Flow::GenPip(ErMode::Full))
                .schedule(schedule)
                .options(mixed_opts)
                .source("short", StreamingSimulator::new(&short_profile))
                .source("long", StreamingSimulator::new(&long_profile))
                .sink("short", |event| {
                    if let StreamEvent::Read(run) = event {
                        short_reads.push(run);
                    }
                })
                .sink("long", |event| {
                    if let StreamEvent::Read(run) = event {
                        long_reads.push(run);
                    }
                })
                .run()
                .expect("bench session inputs are valid")
        });
        let short_latency = report
            .source("short")
            .expect("short reported")
            .summary
            .latency;
        println!(
            "tails {label:>9}: {seconds:.3} s  short-source residency p50/p99/max \
             {}/{}/{} units",
            short_latency.p50, short_latency.p99, short_latency.max
        );
        live_rows.push(Json::obj([
            ("case", Json::Str(format!("tail_{label}"))),
            ("threads", Json::Num(2.0)),
            ("seconds", Json::Num(seconds)),
            ("short_p50", Json::Num(short_latency.p50 as f64)),
            ("short_p99", Json::Num(short_latency.p99 as f64)),
            ("short_max", Json::Num(short_latency.max as f64)),
            ("aggregate_p99", Json::Num(report.latency.p99 as f64)),
        ]));
        tail_outputs.push((short_reads, long_reads));
    }
    live_matches_static &= tail_outputs[0] == tail_outputs[1];
    println!("live-session outputs bit-identical to static/FairShare: {live_matches_static}");
    assert!(
        live_matches_static,
        "live session attach/detach or Deadline changed per-source outputs"
    );

    let report = Json::obj([
        ("schema", Json::Str("genpip-bench-kernels-v1".into())),
        (
            "generated_by",
            Json::Str("cargo bench --bench kernels".into()),
        ),
        (
            "host_threads",
            Json::Num(Parallelism::Auto.workers() as f64),
        ),
        ("host_simd", Json::Str(host_simd().into())),
        // The widest lane-kernel row above.
        ("host_lanes_auto", Json::Num(8.0)),
        ("host_lanes_max", Json::Num(LaneDecoder::MAX_WIDTH as f64)),
        ("dataset_scale", Json::Num(scale)),
        ("dataset_reads", Json::Num(dataset.reads.len() as f64)),
        ("dataset_samples", Json::Num(total_samples as f64)),
        (
            "kernels",
            Json::Arr(results.iter().map(bench_json).collect()),
        ),
        ("pipeline_threads", Json::Arr(thread_rows)),
        ("pipeline_bit_identical", Json::Bool(bit_identical)),
        ("lane_batch", Json::Arr(lane_rows)),
        (
            "lane_batch_matches_scalar",
            Json::Bool(lane_batch_matches_scalar),
        ),
        ("streaming", Json::Arr(streaming_rows)),
        (
            "streaming_matches_batch",
            Json::Bool(streaming_matches_batch),
        ),
        ("file_streaming", Json::Arr(file_rows)),
        (
            "file_streaming_matches_memory",
            Json::Bool(file_streaming_matches_memory),
        ),
        ("pan_genome", Json::Arr(pan_rows)),
        ("pan_genome_matches_solo", Json::Bool(pan_matches_solo)),
        ("multi_source", Json::Arr(multi_rows)),
        ("multi_source_matches_solo", Json::Bool(multi_matches_solo)),
        ("chunk_granularity", Json::Arr(granularity_rows)),
        (
            "chunk_granularity_matches",
            Json::Bool(chunk_granularity_matches),
        ),
        ("fault_tolerance", Json::Arr(fault_rows)),
        (
            "fault_tolerance_matches",
            Json::Bool(fault_tolerance_matches),
        ),
        ("live_session", Json::Arr(live_rows)),
        (
            "live_session_matches_static",
            Json::Bool(live_matches_static),
        ),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
    match std::fs::write(path, report.render()) {
        Ok(()) => println!("[report written to {path}]"),
        Err(e) => eprintln!("[failed to write {path}: {e}]"),
    }
}
