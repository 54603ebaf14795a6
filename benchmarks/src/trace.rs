//! The traced run: the workload's reads replayed serially through a
//! benchmark-side re-composition of the flow out of the layers' public
//! functions, with a span around every call into a layer.
//!
//! The re-composition mirrors `genpip_core`'s per-read state machines step
//! for step (GenPIP: QSR sample chunks → `qsr_check` → in-order basecall /
//! sketch+seed / chain extension / `cmr_check` after `N_cm` chunks →
//! `finalize_mapping`; conventional: every chunk → QC → the body of
//! `Mapper::map_with`). Its per-read results are compared to the
//! `Session`'s; if they differ the trace measures another program and the
//! run fails.

use genpip_basecall::{BasecalledChunk, Basecaller, CallScratch, CarryState};
use genpip_core::early_reject::{cmr_check, qsr_check, qsr_sample_indices};
use genpip_core::{ErMode, Flow, GenPipConfig, ReadOutcome, ReadRun};
use genpip_datasets::{ReadSource, SimulatedRead};
use genpip_genomics::quality::AqsAccumulator;
use genpip_genomics::DnaSeq;
use genpip_mapping::{Mapper, MappingCounters, SeedBatch, SeedScratch, Strand};
use genpip_signal::chunk_boundaries;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The spans the traced run records. `Read` is the root of one read; the
/// others are its children, except `IoRead` (pulling the read from its
/// source), which has no parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanKind {
    Read,
    IoRead,
    SignalChunk,
    BasecallChunk,
    SketchSeed,
    Chain,
    Qsr,
    Cmr,
    Align,
}

impl SpanKind {
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Read => "pipeline.read",
            SpanKind::IoRead => "io.read",
            SpanKind::SignalChunk => "signal.chunk",
            SpanKind::BasecallChunk => "basecall.call_chunk",
            SpanKind::SketchSeed => "mapping.sketch_seed",
            SpanKind::Chain => "mapping.chain",
            SpanKind::Qsr => "early_reject.qsr",
            SpanKind::Cmr => "early_reject.cmr",
            SpanKind::Align => "mapping.align",
        }
    }

    fn is_root(self) -> bool {
        matches!(self, SpanKind::Read | SpanKind::IoRead)
    }
}

/// One recorded span; spans of one read share its id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub kind: SpanKind,
    pub read: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans held in memory until the run ends.
pub struct Tracer {
    base: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            base: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Closes a span opened at `start_ns` (a value of [`Tracer::now`]).
    pub fn close(&mut self, kind: SpanKind, read: u32, start_ns: u64) {
        let end_ns = self.now();
        self.spans.push(Span {
            kind,
            read,
            start_ns,
            end_ns,
        });
    }
}

/// Busy time and span count per span kind, plus the roots' self time.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct SpanTotals {
    busy_ns: BTreeMap<SpanKind, u64>,
    count: BTreeMap<SpanKind, u64>,
    /// Σ over read roots of (root duration − its children's durations).
    pub read_self_ns: u64,
}

impl SpanTotals {
    /// Self time of a root = its duration minus what its children cover.
    /// Children never overlap here (the replay is single-threaded and
    /// spans are closed before the next opens), so covering is a sum.
    pub fn of(spans: &[Span]) -> SpanTotals {
        let mut totals = SpanTotals::default();
        let mut children_ns: BTreeMap<u32, u64> = BTreeMap::new();
        for s in spans {
            *totals.busy_ns.entry(s.kind).or_default() += s.duration_ns();
            *totals.count.entry(s.kind).or_default() += 1;
            if !s.kind.is_root() {
                *children_ns.entry(s.read).or_default() += s.duration_ns();
            }
        }
        totals.read_self_ns = spans
            .iter()
            .filter(|s| s.kind == SpanKind::Read)
            .map(|s| {
                s.duration_ns()
                    .saturating_sub(children_ns.get(&s.read).copied().unwrap_or(0))
            })
            .sum();
        totals
    }

    pub fn busy_s(&self, kind: SpanKind) -> f64 {
        self.busy_ns.get(&kind).copied().unwrap_or(0) as f64 * 1e-9
    }

    pub fn count(&self, kind: SpanKind) -> u64 {
        self.count.get(&kind).copied().unwrap_or(0)
    }

    /// Σ of every span that is not a read root: what the trace explains.
    pub fn covered_s(&self) -> f64 {
        let ns: u64 = self
            .busy_ns
            .iter()
            .filter(|(kind, _)| **kind != SpanKind::Read)
            .map(|(_, ns)| ns)
            .sum();
        ns as f64 * 1e-9
    }
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// ("X") event per span, times in microseconds.
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 110 + 32);
    out.push_str("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let name = s.kind.name();
        let layer = name.split('.').next().unwrap_or(name);
        let sep = if i + 1 < spans.len() { "," } else { "" };
        writeln!(
            out,
            "{{\"name\":\"{name}\",\"cat\":\"{layer}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":1,\"tid\":1,\"args\":{{\"read\":{}}}}}{sep}",
            s.start_ns as f64 / 1e3,
            s.duration_ns() as f64 / 1e3,
            s.read
        )
        .expect("string write");
    }
    out.push_str("]}\n");
    out
}

/// How a read left the pipeline, without the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutcomeKind {
    RejectedQsr,
    RejectedCmr,
    FilteredQc,
    Unmapped,
    Mapped,
}

impl OutcomeKind {
    pub fn of(outcome: &ReadOutcome) -> OutcomeKind {
        match outcome {
            ReadOutcome::RejectedQsr { .. } => OutcomeKind::RejectedQsr,
            ReadOutcome::RejectedCmr { .. } => OutcomeKind::RejectedCmr,
            ReadOutcome::FilteredQc { .. } => OutcomeKind::FilteredQc,
            ReadOutcome::Unmapped { .. } => OutcomeKind::Unmapped,
            ReadOutcome::Mapped(_) => OutcomeKind::Mapped,
        }
    }
}

/// What the traced replay computed for one read: the part of a `ReadRun`
/// it must reproduce, plus the counts only the trace sees.
#[derive(Debug, Clone, PartialEq)]
pub struct TracedRead {
    pub id: u32,
    pub kind: OutcomeKind,
    /// `(ref_start, ref_end, strand)` of a mapped read.
    pub placement: Option<(usize, usize, Strand)>,
    pub called_len: usize,
    pub counters: MappingCounters,
    pub samples_basecalled: usize,
    pub chunks_basecalled: usize,
    pub bases_seeded: usize,
    pub mvm_ops: usize,
    pub viterbi_cells: usize,
    pub total_chunks: usize,
}

impl TracedRead {
    /// The same fields read off a `Session`'s `ReadRun`; `None` where the
    /// `ReadRun` does not carry the count.
    pub fn matches(&self, run: &ReadRun) -> bool {
        let placement = run
            .outcome
            .mapping()
            .map(|m| (m.ref_start, m.ref_end, m.strand));
        self.id == run.id
            && self.kind == OutcomeKind::of(&run.outcome)
            && self.placement == placement
            && self.called_len == run.called_len
            && self.counters == run.map_counters
            && self.counters.align_cells == run.align_cells
            && self.samples_basecalled == run.basecalled_samples()
            && self.total_chunks == run.total_chunks
    }
}

/// The layers' objects a replay calls into, built once per run the way
/// `Session` builds them per source.
pub struct Layers {
    pub caller: Basecaller,
    pub mapper: Mapper,
    pub config: GenPipConfig,
    pub samples_per_chunk: usize,
    /// Seconds `Mapper::build` took (the minimizer index).
    pub index_build_s: f64,
}

impl Layers {
    pub fn build(source: &dyn ReadSource, config: &GenPipConfig) -> Layers {
        let start = Instant::now();
        let mapper = Mapper::build(source.reference(), config.mapper);
        let index_build_s = start.elapsed().as_secs_f64();
        Layers {
            caller: Basecaller::new(source.pore_model(), source.mean_dwell()),
            mapper,
            config: config.clone(),
            samples_per_chunk: config.samples_per_chunk(source.mean_dwell()),
            index_build_s,
        }
    }
}

/// Buffers reused across reads, as a `Session` worker reuses its scratch.
pub struct Scratch {
    call: CallScratch,
    seed: SeedScratch,
    batch: SeedBatch,
}

impl Scratch {
    pub fn new() -> Scratch {
        Scratch {
            call: CallScratch::new(),
            seed: SeedScratch::new(),
            batch: SeedBatch::default(),
        }
    }
}

/// One serial pass over `source`: every read through the flow, every layer
/// call spanned. Returns the per-read results and the pass's wall seconds
/// (first pull to last read done).
pub fn replay(
    layers: &Layers,
    flow: Flow,
    source: &mut dyn ReadSource,
    tracer: &mut Tracer,
) -> (Vec<TracedRead>, f64) {
    let mut scratch = Scratch::new();
    let mut reads = Vec::new();
    let start = Instant::now();
    let mut next_id = 0u32;
    loop {
        let pulling = tracer.now();
        let read = source.next_read();
        tracer.close(SpanKind::IoRead, next_id, pulling);
        let Some(read) = read else { break };
        next_id = read.id + 1;
        let opened = tracer.now();
        let traced = match flow {
            Flow::GenPip(er) => genpip_read(layers, er, &read, tracer, &mut scratch),
            Flow::Conventional => conventional_read(layers, &read, tracer, &mut scratch),
        };
        tracer.close(SpanKind::Read, read.id, opened);
        reads.push(traced);
    }
    (reads, start.elapsed().as_secs_f64())
}

fn new_traced(id: u32, total_chunks: usize) -> TracedRead {
    TracedRead {
        id,
        kind: OutcomeKind::FilteredQc,
        placement: None,
        called_len: 0,
        counters: MappingCounters::default(),
        samples_basecalled: 0,
        chunks_basecalled: 0,
        bases_seeded: 0,
        mvm_ops: 0,
        viterbi_cells: 0,
        total_chunks,
    }
}

/// Basecalls chunk `samples` under a span and books its work.
fn call_chunk(
    layers: &Layers,
    samples: &[f32],
    carry: Option<CarryState>,
    out: &mut TracedRead,
    tracer: &mut Tracer,
    scratch: &mut CallScratch,
) -> BasecalledChunk {
    let t = tracer.now();
    let chunk = layers.caller.call_chunk_with(samples, carry, scratch);
    tracer.close(SpanKind::BasecallChunk, out.id, t);
    out.samples_basecalled += chunk.stats.samples;
    out.mvm_ops += chunk.stats.mvm_ops;
    out.viterbi_cells += chunk.stats.viterbi_cells;
    out.chunks_basecalled += 1;
    chunk
}

/// Aligns the filled chainers under a span and books the outcome.
fn finalize(
    layers: &Layers,
    seq: &DnaSeq,
    fwd: &genpip_mapping::IncrementalChainer,
    rev: &genpip_mapping::IncrementalChainer,
    out: &mut TracedRead,
    tracer: &mut Tracer,
) {
    let t = tracer.now();
    let (mapping, _best, cells) = layers.mapper.finalize_mapping(seq, fwd, rev);
    tracer.close(SpanKind::Align, out.id, t);
    out.counters.align_cells = cells;
    match mapping {
        Some(m) => {
            out.kind = OutcomeKind::Mapped;
            out.placement = Some((m.ref_start, m.ref_end, m.strand));
        }
        None => out.kind = OutcomeKind::Unmapped,
    }
}

fn genpip_read(
    layers: &Layers,
    er: ErMode,
    read: &SimulatedRead,
    tracer: &mut Tracer,
    scratch: &mut Scratch,
) -> TracedRead {
    let samples = &read.signal.samples;
    let config = &layers.config;
    let t = tracer.now();
    let specs = chunk_boundaries(samples.len(), layers.samples_per_chunk);
    tracer.close(SpanKind::SignalChunk, read.id, t);
    let total = specs.len();
    let mut out = new_traced(read.id, total);
    if total == 0 {
        if er != ErMode::None {
            out.kind = OutcomeKind::RejectedQsr;
        }
        return out;
    }

    let mut called: BTreeMap<usize, BasecalledChunk> = BTreeMap::new();
    if er != ErMode::None {
        // ER-QSR: the evenly spaced sample chunks, each decoded from scratch.
        let t = tracer.now();
        let picks = qsr_sample_indices(total, config.n_qs);
        tracer.close(SpanKind::Qsr, read.id, t);
        for &idx in &picks {
            let spec = specs[idx];
            let chunk = call_chunk(
                layers,
                &samples[spec.start..spec.end],
                None,
                &mut out,
                tracer,
                &mut scratch.call,
            );
            called.insert(idx, chunk);
        }
        let t = tracer.now();
        let sampled: Vec<(f64, usize)> = picks
            .iter()
            .map(|idx| (called[idx].sqs, called[idx].quals.len()))
            .collect();
        let decision = qsr_check(&sampled, config.theta_qs);
        tracer.close(SpanKind::Qsr, read.id, t);
        out.called_len = called.values().map(|c| c.bases.len()).sum();
        if decision.reject {
            out.kind = OutcomeKind::RejectedQsr;
            return out;
        }
    }

    let (mut fwd, mut rev) = layers.mapper.new_chainers();
    let mut seq = DnaSeq::new();
    let mut aqs = AqsAccumulator::new();
    for idx in 0..total {
        if !called.contains_key(&idx) {
            let carry = if idx == 0 {
                None
            } else {
                called[&(idx - 1)].carry
            };
            let spec = specs[idx];
            let chunk = call_chunk(
                layers,
                &samples[spec.start..spec.end],
                carry,
                &mut out,
                tracer,
                &mut scratch.call,
            );
            called.insert(idx, chunk);
        }
        let chunk = &called[&idx];
        let t = tracer.now();
        let minimizers = layers.mapper.sketch_and_seed_into(
            &chunk.bases,
            seq.len() as u64,
            &mut scratch.seed,
            &mut scratch.batch,
        );
        tracer.close(SpanKind::SketchSeed, read.id, t);
        let t = tracer.now();
        let before = fwd.dp_evaluations() + rev.dp_evaluations();
        fwd.extend(&scratch.batch.forward);
        rev.extend(&scratch.batch.reverse);
        out.counters.chain_evals += fwd.dp_evaluations() + rev.dp_evaluations() - before;
        tracer.close(SpanKind::Chain, read.id, t);
        out.counters.minimizers += minimizers;
        out.counters.seed_queries += scratch.batch.queries;
        out.counters.anchors += scratch.batch.hits;
        out.bases_seeded += chunk.bases.len();
        aqs.add_chunk_sum(chunk.sqs, chunk.quals.len());
        seq.extend_from_seq(&chunk.bases);

        // ER-CMR: one verdict, after the first N_cm chunks, on reads longer
        // than that.
        if er == ErMode::Full && idx + 1 == config.n_cm && total > config.n_cm {
            let t = tracer.now();
            let decision = cmr_check(fwd.best_score().max(rev.best_score()), config.theta_cm);
            tracer.close(SpanKind::Cmr, read.id, t);
            if decision.reject {
                out.called_len = called.values().map(|c| c.bases.len()).sum();
                out.kind = OutcomeKind::RejectedCmr;
                return out;
            }
        }
    }

    out.called_len = seq.len();
    if aqs.average() < config.theta_qs {
        out.kind = OutcomeKind::FilteredQc;
        return out;
    }
    finalize(layers, &seq, &fwd, &rev, &mut out, tracer);
    out
}

fn conventional_read(
    layers: &Layers,
    read: &SimulatedRead,
    tracer: &mut Tracer,
    scratch: &mut Scratch,
) -> TracedRead {
    let samples = &read.signal.samples;
    let t = tracer.now();
    let specs = chunk_boundaries(samples.len(), layers.samples_per_chunk);
    tracer.close(SpanKind::SignalChunk, read.id, t);
    let mut out = new_traced(read.id, specs.len());
    let mut seq = DnaSeq::new();
    let mut aqs = AqsAccumulator::new();
    let mut carry = None;
    for spec in &specs {
        let chunk = call_chunk(
            layers,
            &samples[spec.start..spec.end],
            carry,
            &mut out,
            tracer,
            &mut scratch.call,
        );
        carry = chunk.carry;
        aqs.add_chunk_sum(chunk.sqs, chunk.quals.len());
        seq.extend_from_seq(&chunk.bases);
    }
    out.called_len = seq.len();
    if aqs.average() < layers.config.theta_qs {
        out.kind = OutcomeKind::FilteredQc;
        return out;
    }

    // The body of `Mapper::map_with`, one span per phase.
    let (mut fwd, mut rev) = layers.mapper.new_chainers();
    let t = tracer.now();
    out.counters.minimizers =
        layers
            .mapper
            .sketch_and_seed_into(&seq, 0, &mut scratch.seed, &mut scratch.batch);
    tracer.close(SpanKind::SketchSeed, read.id, t);
    out.counters.seed_queries = scratch.batch.queries;
    out.counters.anchors = scratch.batch.hits;
    out.bases_seeded = seq.len();
    let t = tracer.now();
    fwd.extend(&scratch.batch.forward);
    rev.extend(&scratch.batch.reverse);
    out.counters.chain_evals = fwd.dp_evaluations() + rev.dp_evaluations();
    tracer.close(SpanKind::Chain, read.id, t);
    finalize(layers, &seq, &fwd, &rev, &mut out, tracer);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: SpanKind, read: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            kind,
            read,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_the_root_minus_its_children() {
        let spans = [
            span(SpanKind::IoRead, 0, 0, 10),
            span(SpanKind::Read, 0, 10, 110),
            span(SpanKind::BasecallChunk, 0, 12, 52),
            span(SpanKind::SketchSeed, 0, 52, 57),
            span(SpanKind::Chain, 0, 57, 60),
            span(SpanKind::Align, 0, 60, 100),
            span(SpanKind::IoRead, 1, 110, 115),
            span(SpanKind::Read, 1, 115, 165),
            span(SpanKind::BasecallChunk, 1, 115, 160),
        ];
        let totals = SpanTotals::of(&spans);
        // Read 0: 100 − (40 + 5 + 3 + 40) = 12; read 1: 50 − 45 = 5.
        assert_eq!(totals.read_self_ns, 17);
        assert_eq!(totals.count(SpanKind::BasecallChunk), 2);
        assert!((totals.busy_s(SpanKind::BasecallChunk) - 85e-9).abs() < 1e-15);
        assert!((totals.busy_s(SpanKind::Read) - 150e-9).abs() < 1e-15);
        // Covered: everything but the roots' own time, io.read included.
        assert!((totals.covered_s() - (85.0 + 5.0 + 3.0 + 40.0 + 15.0) * 1e-9).abs() < 1e-15);
        assert_eq!(totals.count(SpanKind::Cmr), 0);
        assert_eq!(totals.busy_s(SpanKind::Cmr), 0.0);
    }

    #[test]
    fn a_root_never_has_negative_self_time() {
        // Clock granularity can make children sum past their root by a tick.
        let spans = [
            span(SpanKind::Read, 3, 0, 10),
            span(SpanKind::BasecallChunk, 3, 0, 6),
            span(SpanKind::Align, 3, 6, 11),
        ];
        assert_eq!(SpanTotals::of(&spans).read_self_ns, 0);
    }

    #[test]
    fn chrome_trace_has_one_complete_event_per_span() {
        let spans = [
            span(SpanKind::Read, 7, 1_000, 9_500),
            span(SpanKind::Align, 7, 2_000, 9_000),
        ];
        let json = chrome_trace_json(&spans);
        assert!(json.starts_with("{\"traceEvents\":[\n"));
        assert!(json.trim_end().ends_with("]}"));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains(
            "{\"name\":\"mapping.align\",\"cat\":\"mapping\",\"ph\":\"X\",\"ts\":2.000,\"dur\":7.000,\
             \"pid\":1,\"tid\":1,\"args\":{\"read\":7}}"
        ));
        assert_eq!(chrome_trace_json(&[]), "{\"traceEvents\":[\n]}\n");
    }

    #[test]
    fn span_names_start_with_their_layer() {
        let layers = [
            "pipeline",
            "io",
            "signal",
            "basecall",
            "mapping",
            "early_reject",
        ];
        use SpanKind::*;
        for kind in [
            Read,
            IoRead,
            SignalChunk,
            BasecallChunk,
            SketchSeed,
            Chain,
            Qsr,
            Cmr,
            Align,
        ] {
            let layer = kind.name().split('.').next().unwrap();
            assert!(layers.contains(&layer), "{}", kind.name());
        }
    }
}
