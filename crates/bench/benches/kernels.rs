//! Micro-benchmarks of the computational kernels.
//!
//! These measure the *real* wall-clock cost of this reproduction's
//! implementations (not the modelled hardware times), one row per kernel:
//! the MVM emission kernel, Viterbi chunk decoding (allocation-free scratch
//! path) and its stages on their own — the DP rows as dispatched and
//! through the portable body, the traceback, the base/quality assembly —
//! then the chunk call, its decode and its assembly cold, over 64 workload
//! chunks in pipeline order, minimizer extraction, chaining DP (one
//! diagonal, and two interleaved), the reference index's build, lookups and
//! drop, the seed path
//! (sketch, index lookup, chain) on one query, pan-genome mapping against 1
//! vs 3 named references, banded alignment (one read, and 16 distinct reads
//! cold), one read basecalled and mapped end to end, one GSC record decoded and one FASTQ record written (the
//! replay path's serial I/O), and the pipeline simulator.
//!
//! Results are printed as a table and written to `BENCH_kernels.json` at the
//! repo root so future PRs have a perf trajectory to compare against. Every
//! input is fixed in this file, so a smoke run and a real run are the same
//! run. Nothing here runs the engine: pipelines are timed by
//! `benchmarks/`, and the bit-identities between their variants are pinned
//! by the root integration suites.

use genpip_basecall::viterbi::{
    decode_with, DecodeScratch, DecodeStats, FixedPointModel, Transitions,
};
use genpip_basecall::{Basecaller, CallScratch, CarryState, EmissionModel};
use genpip_bench::micro::{bench, bench_consuming, bench_json, Json};
use genpip_datasets::{DatasetProfile, ReadSource, SimulatedRead, StreamingSimulator};
use genpip_genomics::fastx::FastqWriter;
use genpip_genomics::quality::Phred;
use genpip_genomics::read::ReadOrigin;
use genpip_genomics::GenomeBuilder;
use genpip_io::{GscMeta, GscReader, GscWriter};
use genpip_mapping::{
    minimizers, minimizers_into, AlignScratch, Anchor, ChainParams, IncrementalChainer, Mapper,
    MapperParams, Minimizer, MinimizerScratch, ReferenceIndex, ReferenceSet, SeedBatch,
    SeedScratch,
};
use genpip_signal::chunk::samples_per_chunk;
use genpip_signal::{PoreModel, SignalSynthesizer};
use std::hint::black_box;

/// Best SIMD extension the host advertises, recorded next to
/// `host_threads` in the report so rows can be compared across machines
/// (the Viterbi row, the emission block and the alignment kernel each
/// dispatch on it).
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

/// One chunk as the pipeline basecalls it, and its decoded path.
struct ColdChunk {
    samples: Vec<f32>,
    /// The carry the read's previous chunk leaves (`None` for its first).
    carry: Option<u16>,
    states: Vec<u16>,
    advanced: Vec<bool>,
    stats: DecodeStats,
}

/// The first chunks of `DatasetProfile::ecoli()` reads in pipeline order —
/// each read's chunks in turn, at the pipeline's 300-base chunk size — with
/// the basecaller and decoder model the pipeline builds for them.
struct ColdChunks {
    caller: Basecaller,
    model: FixedPointModel,
    chunks: Vec<ColdChunk>,
}

impl ColdChunks {
    fn ecoli(n: usize) -> ColdChunks {
        let dataset = DatasetProfile::ecoli().scaled(0.02).generate();
        let (pore, dwell) = (dataset.pore_model(), dataset.synthesizer().mean_dwell());
        let caller = Basecaller::new(pore, dwell);
        let model = FixedPointModel::new(pore, Transitions::from_mean_dwell(dwell));
        let per_chunk = samples_per_chunk(300, dwell);
        let mut decode = DecodeScratch::new();
        let mut chunks = Vec::with_capacity(n);
        for read in &dataset.reads {
            let mut carry = None;
            for samples in read.signal.samples.chunks(per_chunk) {
                if chunks.len() == n {
                    break;
                }
                let stats = decode_with(&model, samples, carry, &mut decode);
                chunks.push(ColdChunk {
                    samples: samples.to_vec(),
                    carry,
                    states: decode.states().to_vec(),
                    advanced: decode.advanced().to_vec(),
                    stats,
                });
                carry = decode.final_state();
            }
        }
        assert_eq!(chunks.len(), n, "the profile holds {n} chunks");
        ColdChunks {
            caller,
            model,
            chunks,
        }
    }

    fn samples(&self) -> usize {
        self.chunks.iter().map(|c| c.samples.len()).sum()
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
        // decomposes: the DP rows, the traceback, the base/quality assembly,
        // and around them the integrity check. The DP rows bin the samples
        // in one pass, then read each sample's emissions from the
        // fixed-point model's table and record the row they start from; the
        // dispatched row is the `std::arch` one on a host with AVX2, the
        // portable row the same input through the body every other host
        // runs, and the ratio of the two is what the second body is worth.
        // Each iteration restarts from the last score row the previous one
        // left in the scratch. The traceback decides stay or advance on
        // those records, at the path's state only.
        let n = sig.samples.len();
        let model = FixedPointModel::new(&pore, Transitions::from_mean_dwell(synth.mean_dwell()));
        let mut decode = DecodeScratch::new();
        decode_with(&model, &sig.samples, None, &mut decode);
        let rest = &sig.samples[1..];
        results.push(bench(
            &format!("basecall/viterbi_dp_rows_{n}x{n_states}"),
            Some((n as f64, "samples")),
            || black_box(&mut decode).dp_rows(&model, black_box(rest)),
        ));
        decode_with(&model, &sig.samples, None, &mut decode);
        results.push(bench(
            &format!("basecall/viterbi_dp_rows_portable_{n}x{n_states}"),
            Some((n as f64, "samples")),
            || black_box(&mut decode).dp_rows_portable(&model, black_box(rest)),
        ));
        let stats = decode_with(&model, &sig.samples, None, &mut decode);
        results.push(bench(
            &format!("basecall/viterbi_traceback_{n}"),
            Some((n as f64, "samples")),
            || black_box(&mut decode).traceback(&model, None),
        ));
        // The assembly's two loops: one over the samples (a residual each),
        // one over the dwell segments (a Phred each, whose `f32::ln` costs
        // about 5 ns a call on a 2-thread Xeon with AVX-512 — about 0.6 ns a
        // sample at this chunk's one segment per 8.3 samples).
        let mut segments = Vec::new();
        results.push(bench(
            &format!("basecall/assemble_chunk_{n}"),
            Some((n as f64, "samples")),
            || {
                caller
                    .assemble_chunk(
                        black_box(&sig.samples),
                        decode.states(),
                        decode.advanced(),
                        None,
                        stats,
                        &mut segments,
                    )
                    .bases
                    .len()
            },
        ));
    }

    // --- The same chunk call, cold: 64 workload chunks in pipeline order ---
    // The rows above decode one chunk over and over, so the branch
    // predictor learns its path and the traceback and assembly read
    // faster than on any real chunk. Here one iteration walks the first 64
    // chunks of E. coli profile reads, read by read and chunk by chunk with
    // their carries, so 63 other chunks run between two visits of the same
    // one: the whole call, its decode and its assembly.
    {
        let cold = ColdChunks::ecoli(64);
        let samples = Some((cold.samples() as f64, "samples"));
        let mut scratch = CallScratch::new();
        results.push(bench("basecall/cold64/call_chunk", samples, || {
            let mut bases = 0;
            for chunk in &cold.chunks {
                let carry = chunk.carry.map(CarryState);
                bases += cold
                    .caller
                    .call_chunk_with(&chunk.samples, carry, &mut scratch)
                    .bases
                    .len();
            }
            bases
        }));
        let mut decode = DecodeScratch::new();
        results.push(bench("basecall/cold64/decode", samples, || {
            let mut score = 0.0;
            for chunk in &cold.chunks {
                score += decode_with(&cold.model, &chunk.samples, chunk.carry, &mut decode).score;
            }
            score
        }));
        let mut segments = Vec::new();
        results.push(bench("basecall/cold64/assemble", samples, || {
            let mut bases = 0;
            for chunk in &cold.chunks {
                bases += cold
                    .caller
                    .assemble_chunk(
                        &chunk.samples,
                        &chunk.states,
                        &chunk.advanced,
                        chunk.carry.map(CarryState),
                        chunk.stats,
                        &mut segments,
                    )
                    .bases
                    .len();
            }
            bases
        }));
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
    // One clean diagonal, then the same anchors interleaved with a decoy
    // diagonal 3 kb away — inside `max_gap`, so every other predecessor is a
    // cross-locus step with a gap cost to score, and the predecessors that
    // cannot win are mixed in with those that can.
    {
        let anchors: Vec<Anchor> = (0..2_000u64)
            .map(|i| Anchor {
                qpos: i * 7,
                rpos: 10_000 + i * 7 + (i % 13),
            })
            .collect();
        let two_loci: Vec<Anchor> = anchors
            .iter()
            .zip(0..)
            .flat_map(|(&a, i)| {
                let decoy = Anchor {
                    qpos: i * 7 + 3,
                    rpos: 13_000 + i * 7 + (i % 11),
                };
                [a, decoy]
            })
            .collect();
        let mut chainer = IncrementalChainer::new(ChainParams::for_k(15));
        for (name, anchors) in [
            ("chain/2000_anchors", &anchors),
            ("chain/2000_anchors_two_loci", &two_loci),
        ] {
            results.push(bench(name, Some((anchors.len() as f64, "anchors")), || {
                chainer.reset();
                chainer.extend(black_box(anchors));
                chainer.best_score()
            }));
        }
    }

    // --- Reference index: the human profile's 1 Mb repeat-rich reference ---
    // Its three costs. The build is what `setup_s` times on
    // `human_replay_mt`: sketch the reference and fill the minimizer table.
    // The lookups are the query minimizers of the profile's first 100
    // reads, in read order, the traffic whose locality the table's layout
    // must keep. The drop is what every timed pass pays when its session
    // lets go of the index.
    {
        let mut source = StreamingSimulator::new(&DatasetProfile::human());
        let genome = source.reference().clone();
        let params = MapperParams::default();
        results.push(bench(
            "mapping/index_build_1mb",
            Some((genome.len() as f64, "bases")),
            || ReferenceIndex::build(black_box(&genome), params.k, params.w).total_entries(),
        ));

        let index = ReferenceIndex::build(&genome, params.k, params.w);
        let queries: Vec<Minimizer> = std::iter::from_fn(|| source.next_read())
            .take(100)
            .flat_map(|read| minimizers(&read.signal.truth, params.k, params.w))
            .collect();
        results.push(bench(
            "mapping/index_lookup_1mb",
            Some((queries.len() as f64, "lookups")),
            || {
                // Read every hit, as seeding does: a sum of lengths alone
                // would never touch the hit array whose layout is at stake.
                black_box(&queries)
                    .iter()
                    .flat_map(|m| index.lookup(m))
                    .map(|hit| hit.pos)
                    .sum::<u64>()
            },
        ));

        results.push(bench_consuming(
            "mapping/index_drop_1mb",
            None,
            || ReferenceIndex::build(&genome, params.k, params.w),
            drop,
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
    // and chaining, deterministic best-hit merge) as the panel grows.
    {
        let primary = GenomeBuilder::new(200_000).seed(21).name("primary").build();
        let decoys = [
            GenomeBuilder::new(150_000).seed(22).name("decoy_a").build(),
            GenomeBuilder::new(100_000).seed(23).name("decoy_b").build(),
        ];
        let query = primary.sequence().subseq(80_000, 4_000);
        for n_refs in [1usize, 3] {
            let mut genomes = vec![primary.clone()];
            if n_refs > 1 {
                genomes.extend(decoys.iter().cloned());
            }
            let set = ReferenceSet::build(&genomes, MapperParams::default());
            let mut scratch = SeedScratch::new();
            let mut batches = Vec::new();
            let mut pairs = set.new_chainer_pairs();
            let mut align = AlignScratch::new();
            results.push(bench(
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
            ));
        }
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

        // The row width `finalize_mapping` fills for a typical read, 3.5 kb
        // at 4 % error: `hw = band_margin + stretch / 20`, with the 70 bases
        // the longest anchor-free stretch of an E. coli read measures at the
        // mean. Elements are DP cells, so ns_per_iter / elements_per_iter is
        // ns/cell.
        let genome = GenomeBuilder::new(5_000).seed(14).build();
        let truth = genome.sequence().subseq(500, 3_500);
        let mut rng = genpip_genomics::rng::seeded(15);
        let (q, _) = genpip_genomics::ErrorModel::with_total_rate(0.04).apply(&truth, &mut rng);
        let hw = MapperParams::default().band_margin + 70 / 20;
        let cells = banded_global(&q, &truth, &params, 0, hw).cells;
        results.push(bench(
            "align/banded_3p5kb_pipeline_band",
            Some((cells as f64, "cells")),
            || banded_global(black_box(&q), black_box(&truth), &params, 0, hw).score,
        ));

        // The same step as the pipeline runs it: window extraction, the
        // corridor along the chain and the kernel on a warmed per-worker
        // scratch.
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

        // The same step over 16 distinct 3 kb reads on the one warmed
        // scratch: the one-read row replays the same traceback branches, so
        // this is where an alignment change is judged (the alignment's
        // analogue of `basecall/cold64`).
        let cold: Vec<_> = (0..16)
            .map(|r| {
                let truth = genome.sequence().subseq(2_000 + r * 5_900, 3_000);
                let (q, _) =
                    genpip_genomics::ErrorModel::with_total_rate(0.04).apply(&truth, &mut rng);
                let (mut fwd, mut rev) = mapper.new_chainers();
                let (batch, _) = mapper.sketch_and_seed(&q, 0);
                fwd.extend(&batch.forward);
                rev.extend(&batch.reverse);
                (q, fwd, rev)
            })
            .collect();
        let cells: usize = cold
            .iter()
            .map(|(q, fwd, rev)| {
                let (mapping, _, cells) = mapper.finalize_mapping_with(q, fwd, rev, &mut align);
                assert!(mapping.is_some(), "every cold bench read must map");
                cells
            })
            .sum();
        results.push(bench(
            "align/cold16/finalize_mapping",
            Some((cells as f64, "cells")),
            || {
                cold.iter()
                    .map(|(q, fwd, rev)| {
                        mapper
                            .finalize_mapping_with(black_box(q), fwd, rev, &mut align)
                            .2
                    })
                    .sum::<usize>()
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

    // --- Replay I/O: the two serial stages outside the workers ---
    // On `human_replay_mt` the dispatcher pulls every read out of a GSC
    // container (read the record, checksum it, decode it) and the emitter
    // writes every survivor to FASTQ. One human-length record (1 950 bases,
    // ~16 k samples) decoded from the page cache, so the row is the
    // container's cost and not the disk's; one 2 kb record formatted into a
    // buffered writer that discards it. Elements are bytes of the record.
    {
        let truth = GenomeBuilder::new(1_950).seed(7).build().sequence().clone();
        let read = SimulatedRead {
            id: 0,
            signal: synth.synthesize(&truth, 1.0, 8),
            origin: ReadOrigin::Contaminant,
            noise_sigma: 1.0,
        };
        let reference = GenomeBuilder::new(10_000).seed(9).build();
        let meta = GscMeta {
            pore_model: &pore,
            mean_dwell: synth.mean_dwell(),
            reference: &reference,
        };
        let path = std::env::temp_dir().join(format!("genpip-bench-{}.gsc", std::process::id()));
        let mut writer = GscWriter::create(&path, &meta).expect("create the bench container");
        writer.write_read(&read).expect("write the bench record");
        writer.finish().expect("finish the bench container");
        let mut reader = GscReader::open(&path).expect("open the bench container");
        let record_bytes = reader.data_bytes() - reader.header_bytes();
        results.push(bench(
            "io/gsc_decode_record_16k",
            Some((record_bytes as f64, "bytes")),
            || reader.read_at(0).expect("decode").signal.samples.len(),
        ));
        std::fs::remove_file(&path).ok();

        let seq = GenomeBuilder::new(2_000)
            .seed(10)
            .build()
            .sequence()
            .clone();
        let quals: Vec<Phred> = (0..seq.len())
            .map(|i| Phred((i * 7 % 40) as f32 + 0.3))
            .collect();
        let name = "read12345";
        let record_bytes = name.len() + seq.len() + quals.len() + 6;
        let mut fastq = FastqWriter::new(std::io::BufWriter::new(std::io::sink()));
        results.push(bench(
            "io/fastq_record_2kb",
            Some((record_bytes as f64, "bytes")),
            || fastq.write_record(black_box(name), &seq, &quals).is_ok(),
        ));
    }

    // --- Pipeline scheduler ---
    {
        use genpip_sim::{Job, PipelineSim, SimTime, StageSpec};
        let jobs: Vec<Job> = (0..10_000)
            .map(|i| {
                Job::new(
                    i / 10,
                    vec![SimTime::from_ns(100.0), SimTime::from_ns(40.0)],
                )
            })
            .collect();
        results.push(bench(
            "sim/pipeline_10k_jobs",
            Some((jobs.len() as f64, "jobs")),
            || {
                let sim = PipelineSim::new(vec![
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

    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let report = Json::obj([
        ("schema", Json::Str("genpip-bench-kernels-v2".into())),
        (
            "generated_by",
            Json::Str("cargo bench -p genpip-bench --bench kernels".into()),
        ),
        ("host_threads", Json::Num(host_threads as f64)),
        ("host_simd", Json::Str(host_simd().into())),
        (
            "kernels",
            Json::Arr(results.iter().map(bench_json).collect()),
        ),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
    if let Err(e) = std::fs::write(path, report.render()) {
        eprintln!("error: failed to write {path}: {e}");
        std::process::exit(1);
    }
    println!("[report written to {path}]");
}
