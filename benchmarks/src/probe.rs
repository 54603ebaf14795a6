//! Stamping wrappers around a session's source and sink: they time each
//! read from outside (pull → delivery) and check what comes out.

use crate::host::process_cpu_s;
use genpip_core::{ReadRun, StreamEvent};
use genpip_datasets::{ReadSource, SimulatedRead};
use genpip_genomics::Genome;
use genpip_signal::PoreModel;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Stamps shared between the source wrapper (which may run on the
/// engine's dispatcher thread) and the sink (which runs on the caller's).
/// Every value is an independent statistic, so `Relaxed` is enough; the
/// engine's own hand-off orders a read's pull before its delivery.
pub struct Stamps {
    base: Instant,
    /// ns since `base` at which `next_read` returned read *id* (0 = never).
    pulled_ns: Vec<AtomicU64>,
    /// Total ns spent inside `next_read`.
    pull_busy_ns: AtomicU64,
    /// Wall and process-CPU clocks at the first `next_read` call: the start
    /// of the pass proper, after the session has built its context.
    first_pull: OnceLock<(Instant, f64)>,
}

impl Stamps {
    pub fn new(reads: usize) -> Arc<Stamps> {
        Arc::new(Stamps {
            base: Instant::now(),
            pulled_ns: (0..reads).map(|_| AtomicU64::new(0)).collect(),
            pull_busy_ns: AtomicU64::new(0),
            first_pull: OnceLock::new(),
        })
    }

    /// ns since the pass's stamp base.
    pub fn now_ns(&self) -> u64 {
        self.ns_at(Instant::now())
    }

    /// `at` as ns since the pass's stamp base.
    pub fn ns_at(&self, at: Instant) -> u64 {
        // +1 so that a stamp is never the "never pulled" zero.
        at.saturating_duration_since(self.base).as_nanos() as u64 + 1
    }

    pub fn pull_busy_s(&self) -> f64 {
        self.pull_busy_ns.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// `(wall instant, process CPU seconds)` when the session first asked
    /// for a read.
    pub fn first_pull(&self) -> Option<(Instant, f64)> {
        self.first_pull.get().copied()
    }
}

/// A `ReadSource` that stamps every read it hands out.
pub struct StampedSource {
    inner: Box<dyn ReadSource + Send>,
    stamps: Arc<Stamps>,
}

impl StampedSource {
    pub fn new(inner: Box<dyn ReadSource + Send>, stamps: Arc<Stamps>) -> StampedSource {
        StampedSource { inner, stamps }
    }
}

impl ReadSource for StampedSource {
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
        let start = Instant::now();
        self.stamps
            .first_pull
            .get_or_init(|| (start, process_cpu_s()));
        let read = self.inner.next_read();
        self.stamps
            .pull_busy_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        if let Some(slot) = read
            .as_ref()
            .and_then(|r| self.stamps.pulled_ns.get(r.id as usize))
        {
            slot.store(self.stamps.now_ns(), Ordering::Relaxed);
        }
        read
    }

    fn reads_remaining(&self) -> Option<usize> {
        self.inner.reads_remaining()
    }
}

/// A source with the inner source's context and no reads: a session over
/// it does exactly the set-up work (index and basecaller build, engine
/// start and stop).
pub struct NoReads(pub Box<dyn ReadSource + Send>);

impl ReadSource for NoReads {
    fn reference(&self) -> &Genome {
        self.0.reference()
    }

    fn pore_model(&self) -> &PoreModel {
        self.0.pore_model()
    }

    fn mean_dwell(&self) -> f64 {
        self.0.mean_dwell()
    }

    fn next_read(&mut self) -> Option<SimulatedRead> {
        None
    }
}

/// Failed checks: a count for `failed`, and the first few spelled out.
#[derive(Default)]
pub struct Failures {
    pub count: u64,
    pub notes: Vec<String>,
}

impl Failures {
    pub fn add(&mut self, n: u64, note: impl FnOnce() -> String) {
        if n == 0 {
            return;
        }
        self.count += n;
        if self.notes.len() < 12 {
            self.notes.push(note());
        }
    }
}

/// The checking half of the sink: stamps deliveries, enforces "every id
/// exactly once, in order, none failed", and either records the pass's
/// `ReadRun`s or compares them to a reference pass.
pub struct DeliveryCheck<'a> {
    stamps: Arc<Stamps>,
    expected: usize,
    next_id: u32,
    /// The pass every later pass must reproduce bit for bit.
    reference: Option<&'a [ReadRun]>,
    /// This pass's runs, kept when there is no reference to compare to.
    pub runs: Vec<ReadRun>,
    pub latencies_ms: Vec<f64>,
    /// Per delivered read: `(ns since the stamp base, process CPU seconds)`
    /// when the sink was entered.
    pub delivered: Vec<(u64, f64)>,
    pub failures: Failures,
}

impl<'a> DeliveryCheck<'a> {
    pub fn new(
        stamps: Arc<Stamps>,
        expected: usize,
        reference: Option<&'a [ReadRun]>,
    ) -> DeliveryCheck<'a> {
        DeliveryCheck {
            stamps,
            expected,
            next_id: 0,
            reference,
            runs: Vec::with_capacity(if reference.is_some() { 0 } else { expected }),
            latencies_ms: Vec::with_capacity(expected),
            delivered: Vec::with_capacity(expected),
            failures: Failures::default(),
        }
    }

    /// Checks one event; `delivered_ns` is [`Stamps::now_ns`] and
    /// `delivered_cpu_s` the process CPU clock, both taken when the sink was
    /// entered.
    pub fn on_event(&mut self, event: StreamEvent, delivered_ns: u64, delivered_cpu_s: f64) {
        let run = match event {
            StreamEvent::Read(run) => run,
            StreamEvent::Failed { read_id, fault } => {
                self.failures
                    .add(1, || format!("read {read_id} failed: {fault}"));
                // A failed read still occupies its in-order slot.
                self.next_id = self.next_id.max(read_id.saturating_add(1));
                return;
            }
            StreamEvent::Progress(_) => return,
        };
        if run.id != self.next_id {
            let expected = self.next_id;
            self.failures.add(1, || {
                format!("read {} delivered where read {expected} was due", run.id)
            });
        }
        self.next_id = run.id.saturating_add(1);
        match self
            .stamps
            .pulled_ns
            .get(run.id as usize)
            .map(|s| s.load(Ordering::Relaxed))
        {
            Some(pulled) if pulled > 0 && delivered_ns >= pulled => {
                self.latencies_ms
                    .push((delivered_ns - pulled) as f64 * 1e-6);
                self.delivered.push((delivered_ns, delivered_cpu_s));
            }
            _ => self
                .failures
                .add(1, || format!("read {} delivered but never pulled", run.id)),
        }
        match self.reference {
            Some(reference) => {
                if reference.get(run.id as usize) != Some(&run) {
                    self.failures.add(1, || {
                        format!("read {} differs from the reference pass", run.id)
                    });
                }
            }
            None => self.runs.push(run),
        }
    }

    /// Closes the pass: every expected read must have been delivered.
    pub fn finish(&mut self) {
        let delivered = self.latencies_ms.len();
        let missing = self.expected.saturating_sub(delivered) as u64;
        let expected = self.expected;
        self.failures.add(missing, || {
            format!("{delivered} of {expected} reads delivered")
        });
    }
}
