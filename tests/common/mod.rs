//! Test support: the one **independent** per-read oracle.
//!
//! [`reference_read`] replays a read through either flow the way the paper
//! describes it (Figure 5a / Figures 5b + 6) — straight-line, serial, and
//! allocation-happy: a fresh decode workspace per chunk, fresh chainers per
//! read, a fresh seed batch per chunk and reference, a fresh alignment
//! workspace per read. It is written only
//! against the layer crates' allocating public APIs and the early-rejection
//! predicates, and shares nothing with `genpip::core::{pipeline, engine}`
//! but the result types, so "Session ≡ oracle" is a statement about the
//! engine rather than the engine agreeing with itself.

// Each integration suite compiles its own copy and uses a subset.
#![allow(dead_code)]

use genpip::basecall::{BasecalledChunk, Basecaller};
use genpip::core::early_reject::{cmr_check, qsr_check, qsr_sample_indices};
use genpip::core::pipeline::WorkloadTotals;
use genpip::core::{
    CalledBases, ChunkWork, ErMode, Flow, GenPipConfig, ReadOutcome, ReadRun, StreamEvent,
};
use genpip::datasets::{ReadSource, SimulatedDataset, SimulatedRead};
use genpip::genomics::{DnaSeq, Genome, Phred};
use genpip::mapping::{AlignScratch, IncrementalChainer, MappingCounters, ReferenceSet};
use genpip::signal::chunk_boundaries;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A sink that collects a source's finished reads, for the suites' many
/// "run a session, keep the reads" call sites.
pub fn keep_reads(reads: &mut Vec<ReadRun>) -> impl FnMut(StreamEvent) + '_ {
    |event| {
        if let StreamEvent::Read(run) = event {
            reads.push(run);
        }
    }
}

/// Workload totals over a set of reads — what a session's report must sum
/// to for the same reads.
pub fn totals(reads: &[ReadRun]) -> WorkloadTotals {
    let mut totals = WorkloadTotals::default();
    reads.iter().for_each(|run| totals.accumulate(run));
    totals
}

/// The oracle over a whole dataset: builds the panel (the dataset's own
/// reference plus `config.extra_references`) and the basecaller once, then
/// replays every read through [`reference_read`], in order.
pub fn reference_run(
    dataset: &SimulatedDataset,
    config: &GenPipConfig,
    flow: Flow,
) -> Vec<ReadRun> {
    let source = dataset.stream();
    let mut genomes: Vec<Arc<Genome>> = vec![Arc::new(source.reference().clone())];
    genomes.extend(config.extra_references.iter().cloned());
    let refs = ReferenceSet::build_shared(genomes, config.mapper);
    let caller = Basecaller::new(source.pore_model(), source.mean_dwell());
    dataset
        .reads
        .iter()
        .map(|read| reference_read(read, &refs, &caller, source.mean_dwell(), config, flow))
        .collect()
}

/// One read through `flow`, from first principles. `refs` is the panel the
/// read maps against (primary first), `caller`/`mean_dwell` the source's
/// chemistry.
pub fn reference_read(
    read: &SimulatedRead,
    refs: &ReferenceSet,
    caller: &Basecaller,
    mean_dwell: f64,
    config: &GenPipConfig,
    flow: Flow,
) -> ReadRun {
    let samples = &read.signal.samples;
    let specs = chunk_boundaries(samples.len(), config.samples_per_chunk(mean_dwell));
    let chunk_samples = |idx: usize| &samples[specs[idx].start..specs[idx].end];
    let mut run = ReadRun {
        id: read.id,
        outcome: ReadOutcome::FilteredQc { aqs: 0.0 },
        total_chunks: specs.len(),
        chunks: Vec::new(),
        signal_samples: samples.len(),
        called_len: 0,
        full_aqs: None,
        best_chain_score: 0.0,
        align_query_len: 0,
        align_cells: 0,
        map_counters: MappingCounters::default(),
        called: None,
        per_reference: Vec::new(),
    };
    let mut seq = DnaSeq::new();
    let mut quals: Vec<Phred> = Vec::new();
    let (mut sqs_sum, mut sqs_bases) = (0.0f64, 0usize);

    let er = match flow {
        Flow::GenPip(er) => er,
        Flow::Conventional => {
            // Figure 5(a): basecall everything (carry threaded by hand),
            // whole-read QC, then whole-read mapping.
            let mut carry = None;
            for idx in 0..specs.len() {
                let chunk = caller.call_chunk(chunk_samples(idx), carry);
                carry = chunk.carry;
                run.chunks.push(basecall_work(idx, &chunk));
                sqs_sum += chunk.sqs;
                sqs_bases += chunk.quals.len();
                quals.extend_from_slice(&chunk.quals);
                seq.extend_from_seq(&chunk.bases);
            }
            let aqs = average(sqs_sum, sqs_bases);
            run.called_len = seq.len();
            run.full_aqs = Some(aqs);
            run.outcome = ReadOutcome::FilteredQc { aqs };
            if config.keep_bases {
                run.called = Some(CalledBases {
                    seq: seq.clone(),
                    quals,
                });
            }
            if aqs < config.theta_qs {
                return run;
            }
            let result = refs.map(&seq);
            run.map_counters = result.counters;
            run.best_chain_score = result.best_chain_score;
            run.align_cells = result.counters.align_cells;
            if run.align_cells > 0 {
                run.align_query_len = seq.len();
            }
            if refs.len() > 1 {
                run.per_reference = result.per_reference;
            }
            run.outcome = match result.best {
                Some(m) => ReadOutcome::Mapped(m),
                None => ReadOutcome::Unmapped {
                    chain_score: result.best_chain_score,
                },
            };
            return run;
        }
    };

    // Figure 5(b) / Figure 6.
    let total = specs.len();
    if total == 0 {
        if er != ErMode::None {
            run.outcome = ReadOutcome::RejectedQsr { sampled_aqs: 0.0 };
        }
        return run;
    }
    let mut called: BTreeMap<usize, BasecalledChunk> = BTreeMap::new();

    // ER-QSR (➊➋): the evenly-spaced sample chunks, each decoded from
    // scratch, then Algorithm 1's verdict.
    if er != ErMode::None {
        let sample_idx = qsr_sample_indices(total, config.n_qs);
        for &idx in &sample_idx {
            let chunk = caller.call_chunk(chunk_samples(idx), None);
            run.chunks.push(basecall_work(idx, &chunk));
            called.insert(idx, chunk);
        }
        let sampled: Vec<(f64, usize)> = sample_idx
            .iter()
            .map(|idx| (called[idx].sqs, called[idx].quals.len()))
            .collect();
        let decision = qsr_check(&sampled, config.theta_qs);
        run.called_len = called.values().map(|c| c.bases.len()).sum();
        if decision.reject {
            run.outcome = ReadOutcome::RejectedQsr {
                sampled_aqs: decision.sampled_aqs,
            };
            return run;
        }
    }

    // The sequential pass: basecall (or reuse a sampled chunk), then seed
    // and chain it immediately against every reference.
    let mut pairs = refs.new_chainer_pairs();
    for idx in 0..total {
        if !called.contains_key(&idx) {
            let carry = match idx {
                0 => None,
                _ => called[&(idx - 1)].carry,
            };
            let chunk = caller.call_chunk(chunk_samples(idx), carry);
            run.chunks.push(basecall_work(idx, &chunk));
            called.insert(idx, chunk);
        }
        let chunk = &called[&idx];
        let offset = seq.len() as u64;
        let mut work = ChunkWork {
            index: idx,
            seed_bases: chunk.bases.len(),
            ..ChunkWork::default()
        };
        for (mapper, (fwd, rev)) in refs.mappers().iter().zip(pairs.iter_mut()) {
            let (batch, minimizers) = mapper.sketch_and_seed(&chunk.bases, offset);
            let evals_before = fwd.dp_evaluations() + rev.dp_evaluations();
            fwd.extend(&batch.forward);
            rev.extend(&batch.reverse);
            work.minimizers = minimizers; // one sketch, shared by the panel
            work.anchors += batch.hits;
            work.chain_evals += fwd.dp_evaluations() + rev.dp_evaluations() - evals_before;
            run.map_counters.seed_queries += batch.queries;
        }
        run.chunks.push(work);
        run.map_counters.minimizers += work.minimizers;
        run.map_counters.anchors += work.anchors;
        run.map_counters.chain_evals += work.chain_evals;
        sqs_sum += chunk.sqs;
        sqs_bases += chunk.quals.len();
        quals.extend_from_slice(&chunk.quals);
        seq.extend_from_seq(&chunk.bases);

        // ER-CMR (➍➎): once, after the first N_cm chunks, for reads longer
        // than that.
        if er == ErMode::Full && idx + 1 == config.n_cm && total > config.n_cm {
            let score = best_score(&pairs);
            if cmr_check(score, config.theta_cm).reject {
                run.called_len = called.values().map(|c| c.bases.len()).sum();
                run.best_chain_score = score;
                run.outcome = ReadOutcome::RejectedCmr { chain_score: score };
                return run;
            }
        }
    }

    // Whole-read QC, then the final mapping from the filled chainers.
    let aqs = average(sqs_sum, sqs_bases);
    run.called_len = seq.len();
    run.full_aqs = Some(aqs);
    run.best_chain_score = best_score(&pairs);
    if config.keep_bases {
        run.called = Some(CalledBases {
            seq: seq.clone(),
            quals,
        });
    }
    if aqs < config.theta_qs {
        run.outcome = ReadOutcome::FilteredQc { aqs };
        return run;
    }
    let (per_reference, mapping, score, align_cells) =
        refs.finalize_mapping_with(&seq, &pairs, &mut AlignScratch::new());
    if refs.len() > 1 {
        run.per_reference = per_reference;
    }
    run.best_chain_score = score;
    run.align_cells = align_cells;
    run.map_counters.align_cells = align_cells;
    if align_cells > 0 {
        run.align_query_len = seq.len();
    }
    run.outcome = match mapping {
        Some(m) => ReadOutcome::Mapped(m),
        None => ReadOutcome::Unmapped { chain_score: score },
    };
    run
}

fn basecall_work(index: usize, chunk: &BasecalledChunk) -> ChunkWork {
    ChunkWork {
        index,
        samples: chunk.stats.samples,
        mvm_ops: chunk.stats.mvm_ops,
        bases_called: chunk.bases.len(),
        ..ChunkWork::default()
    }
}

/// Best chain score over every reference and strand — what CMR thresholds.
fn best_score(pairs: &[(IncrementalChainer, IncrementalChainer)]) -> f64 {
    pairs.iter().fold(0.0, |best, (fwd, rev)| {
        best.max(fwd.best_score()).max(rev.best_score())
    })
}

fn average(sum: f64, bases: usize) -> f64 {
    match bases {
        0 => 0.0,
        n => sum / n as f64,
    }
}
