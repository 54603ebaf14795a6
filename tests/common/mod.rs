//! Test support: the one **independent** per-read oracle.
//!
//! [`reference_read`] replays a read through either flow the way the paper
//! describes it (Figure 5a / Figures 5b + 6) — straight-line, serial, and
//! allocation-happy: a fresh decode workspace per chunk, fresh chainers per
//! read, a fresh sketch and seed batch per chunk and reference, a fresh
//! alignment workspace per reference. It is written only against the layer
//! crates' allocating public APIs — one [`Mapper`]'s steps per reference,
//! merged here by `ReferenceSet`'s documented rule — and the
//! early-rejection predicates, and shares nothing with
//! `genpip::core::{pipeline, engine}` or `ReferenceSet`'s seed-and-chain step
//! but the result types, so "Session ≡ oracle" is a statement about the
//! engine and the step rather than either agreeing with itself.

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
use genpip::mapping::{
    IncrementalChainer, Mapper, Mapping, MappingCounters, ReferenceMapping, ReferenceSet,
};
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
            let mut pairs = new_pairs(refs);
            run.map_counters = seed_and_chain(refs, &mut pairs, &seq, 0);
            finish(&mut run, refs, &pairs, &seq);
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
    let mut pairs = new_pairs(refs);
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
        let step = seed_and_chain(refs, &mut pairs, &chunk.bases, seq.len() as u64);
        run.chunks.push(ChunkWork {
            index: idx,
            seed_bases: chunk.bases.len(),
            minimizers: step.minimizers,
            anchors: step.anchors,
            chain_evals: step.chain_evals,
            ..ChunkWork::default()
        });
        run.map_counters.minimizers += step.minimizers;
        run.map_counters.seed_queries += step.seed_queries;
        run.map_counters.anchors += step.anchors;
        run.map_counters.chain_evals += step.chain_evals;
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
    finish(&mut run, refs, &pairs, &seq);
    run
}

/// Fresh (forward, reverse) chainers, one pair per reference.
fn new_pairs(refs: &ReferenceSet) -> Vec<(IncrementalChainer, IncrementalChainer)> {
    refs.mappers().iter().map(Mapper::new_chainers).collect()
}

/// Sketches and seeds `seq` against each reference with that reference's
/// own allocating [`Mapper::sketch_and_seed`] and extends its chainers.
/// Returns the work done: the minimizers of one sketch (every reference
/// sketches the same sequence with the same `(k, w)`), and the lookups,
/// anchors and chain DP evaluations summed over the references.
fn seed_and_chain(
    refs: &ReferenceSet,
    pairs: &mut [(IncrementalChainer, IncrementalChainer)],
    seq: &DnaSeq,
    offset: u64,
) -> MappingCounters {
    let mut work = MappingCounters::default();
    for (mapper, (fwd, rev)) in refs.mappers().iter().zip(pairs.iter_mut()) {
        let (batch, minimizers) = mapper.sketch_and_seed(seq, offset);
        let evals_before = fwd.dp_evaluations() + rev.dp_evaluations();
        fwd.extend(&batch.forward);
        rev.extend(&batch.reverse);
        work.minimizers = minimizers;
        work.seed_queries += batch.queries;
        work.anchors += batch.hits;
        work.chain_evals += fwd.dp_evaluations() + rev.dp_evaluations() - evals_before;
    }
    work
}

/// The final mapping: each reference's [`Mapper::finalize_mapping`] on its
/// filled chainers, then the merge, into `run` (whose counters already hold
/// the seeding and chaining work).
fn finish(
    run: &mut ReadRun,
    refs: &ReferenceSet,
    pairs: &[(IncrementalChainer, IncrementalChainer)],
    seq: &DnaSeq,
) {
    let mut per_reference = Vec::new();
    for ((mapper, name), (fwd, rev)) in refs.mappers().iter().zip(refs.names()).zip(pairs) {
        let (mapping, score, cells) = mapper.finalize_mapping(seq, fwd, rev);
        per_reference.push(ReferenceMapping {
            reference: Arc::clone(name),
            mapping,
            best_chain_score: score,
            align_cells: cells,
        });
    }
    let score = per_reference
        .iter()
        .fold(0.0, |best: f64, r| best.max(r.best_chain_score));
    let cells: usize = per_reference.iter().map(|r| r.align_cells).sum();
    run.best_chain_score = score;
    run.align_cells = cells;
    run.map_counters.align_cells = cells;
    if cells > 0 {
        run.align_query_len = seq.len();
    }
    run.outcome = match merge(&per_reference) {
        Some(m) => ReadOutcome::Mapped(m),
        None => ReadOutcome::Unmapped { chain_score: score },
    };
    if refs.len() > 1 {
        run.per_reference = per_reference;
    }
}

/// `ReferenceSet`'s documented best-hit rule, written out: a mapped
/// candidate beats an unmapped reference, then the higher chain score wins,
/// then the smaller reference name, then the smaller reference start. The
/// winner names its reference only when there are two or more.
fn merge(per_reference: &[ReferenceMapping]) -> Option<Mapping> {
    let (reference, mapping) = per_reference
        .iter()
        .filter_map(|r| Some((&r.reference, r.mapping.as_ref()?)))
        .max_by(|(a_name, a), (b_name, b)| {
            a.chain_score
                .total_cmp(&b.chain_score)
                .then_with(|| b_name.cmp(a_name))
                .then_with(|| b.ref_start.cmp(&a.ref_start))
        })?;
    let mut mapping = mapping.clone();
    if per_reference.len() > 1 {
        mapping.ref_name = Some(Arc::clone(reference));
    }
    Some(mapping)
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
