//! Pull-based read sources for streaming pipelines.
//!
//! A [`ReadSource`] hands out [`SimulatedRead`]s one at a time, plus the
//! shared context a pipeline needs before the first read arrives (the
//! mapping reference, the pore model, the mean dwell). Two implementations:
//!
//! * [`DatasetStream`] — a cursor over a materialized [`SimulatedDataset`]
//!   (created with [`SimulatedDataset::stream`]);
//! * [`StreamingSimulator`] — synthesizes reads lazily from a
//!   [`DatasetProfile`] without ever materializing the dataset, bit-identical
//!   to `SimulatedDataset::generate(profile).reads` because both pull from
//!   the same deterministic per-read generator.
//!
//! Streaming drivers (`genpip_core::stream`) pull from a source under
//! backpressure, so peak memory stays proportional to the in-flight window
//! rather than the dataset.

use crate::profile::DatasetProfile;
use crate::simulate::{ReadFactory, SimulatedDataset, SimulatedRead};
use genpip_genomics::Genome;
use genpip_signal::PoreModel;
use std::fmt;
use std::sync::Arc;

/// A stable, cheaply clonable name for one registered [`ReadSource`].
///
/// Multi-source engines (the `Session` API in `genpip-core`) register each
/// source under a `SourceId` and report per-source progress and summaries
/// keyed by it. The id is an opaque handle: equality and ordering are by
/// name, clones share one allocation, and the name survives for the whole
/// session — results for a source are always attributed to the id it was
/// registered with.
///
/// ```
/// use genpip_datasets::SourceId;
///
/// let a = SourceId::new("flowcell-a");
/// let b: SourceId = "flowcell-a".into();
/// assert_eq!(a, b);
/// assert_eq!(a.as_str(), "flowcell-a");
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SourceId(Arc<str>);

impl SourceId {
    /// Creates an id from any string-like name.
    pub fn new(name: impl AsRef<str>) -> SourceId {
        SourceId(Arc::from(name.as_ref()))
    }

    /// The name this id was created with.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for SourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(&self.0)
    }
}

impl fmt::Debug for SourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SourceId({:?})", &*self.0)
    }
}

impl From<&str> for SourceId {
    fn from(name: &str) -> SourceId {
        SourceId::new(name)
    }
}

impl From<String> for SourceId {
    fn from(name: String) -> SourceId {
        SourceId::new(name)
    }
}

impl From<&SourceId> for SourceId {
    fn from(id: &SourceId) -> SourceId {
        id.clone()
    }
}

/// A pull-based producer of reads plus the run-wide context (reference
/// genome, signal chemistry) every pipeline needs up front.
///
/// Sources are stateful cursors: [`ReadSource::next_read`] advances and
/// returns `None` once exhausted. Implementations must be deterministic —
/// two fresh sources over the same underlying data yield the same reads in
/// the same order.
pub trait ReadSource {
    /// The mapping reference the reads should be aligned against.
    fn reference(&self) -> &Genome;

    /// The pore model the signals were (or will be) synthesized with, which
    /// the basecaller must decode with.
    fn pore_model(&self) -> &PoreModel;

    /// Mean dwell time in samples per base (sizes signal chunks).
    fn mean_dwell(&self) -> f64;

    /// Produces the next read, or `None` when the source is exhausted.
    fn next_read(&mut self) -> Option<SimulatedRead>;

    /// Reads still to come, when the source knows (for progress displays;
    /// infinite or unknown-length sources return `None`).
    fn reads_remaining(&self) -> Option<usize> {
        None
    }
}

/// Forwarding impl so engines that take sources by value (e.g. the
/// `Session` builder in `genpip-core`) also accept `&mut` borrows of a
/// caller-owned source.
impl<S: ReadSource + ?Sized> ReadSource for &mut S {
    fn reference(&self) -> &Genome {
        (**self).reference()
    }

    fn pore_model(&self) -> &PoreModel {
        (**self).pore_model()
    }

    fn mean_dwell(&self) -> f64 {
        (**self).mean_dwell()
    }

    fn next_read(&mut self) -> Option<SimulatedRead> {
        (**self).next_read()
    }

    fn reads_remaining(&self) -> Option<usize> {
        (**self).reads_remaining()
    }
}

/// Forwarding impl for boxed sources, the handoff currency of live
/// sessions: a control plane attaching a source to a *running* session
/// must ship it across a thread boundary as `Box<dyn ReadSource + Send>`.
impl<S: ReadSource + ?Sized> ReadSource for Box<S> {
    fn reference(&self) -> &Genome {
        (**self).reference()
    }

    fn pore_model(&self) -> &PoreModel {
        (**self).pore_model()
    }

    fn mean_dwell(&self) -> f64 {
        (**self).mean_dwell()
    }

    fn next_read(&mut self) -> Option<SimulatedRead> {
        (**self).next_read()
    }

    fn reads_remaining(&self) -> Option<usize> {
        (**self).reads_remaining()
    }
}

/// A [`ReadSource`] view over a materialized [`SimulatedDataset`]: yields
/// clones of the dataset's reads in id order, each sharing its signal with
/// the dataset (no sample is copied).
pub struct DatasetStream<'a> {
    dataset: &'a SimulatedDataset,
    next: usize,
}

impl SimulatedDataset {
    /// A pull-based stream over this dataset's reads, in id order.
    pub fn stream(&self) -> DatasetStream<'_> {
        DatasetStream {
            dataset: self,
            next: 0,
        }
    }
}

impl ReadSource for DatasetStream<'_> {
    fn reference(&self) -> &Genome {
        &self.dataset.reference
    }

    fn pore_model(&self) -> &PoreModel {
        self.dataset.pore_model()
    }

    fn mean_dwell(&self) -> f64 {
        self.dataset.synthesizer().mean_dwell()
    }

    fn next_read(&mut self) -> Option<SimulatedRead> {
        let read = self.dataset.reads.get(self.next)?.clone();
        self.next += 1;
        Some(read)
    }

    fn reads_remaining(&self) -> Option<usize> {
        Some(self.dataset.reads.len() - self.next)
    }
}

/// An on-the-fly dataset generator: the [`ReadSource`] equivalent of
/// [`SimulatedDataset::generate`], but reads are synthesized one at a time
/// as the pipeline pulls them, so the dataset is never materialized.
///
/// Only the shared context is held resident — the reference genome, the
/// sequenced individual, the contaminant genome, and the RNG cursor — which
/// is O(genome), independent of `profile.n_reads`. The read stream is
/// bit-identical to the batch generator's `reads` vector.
pub struct StreamingSimulator {
    reference: Genome,
    factory: ReadFactory,
}

impl StreamingSimulator {
    /// Builds the shared genomes and chemistry for `profile`; reads are not
    /// generated until pulled.
    pub fn new(profile: &DatasetProfile) -> StreamingSimulator {
        let (reference, factory) = ReadFactory::new(profile);
        StreamingSimulator { reference, factory }
    }
}

impl ReadSource for StreamingSimulator {
    fn reference(&self) -> &Genome {
        &self.reference
    }

    fn pore_model(&self) -> &PoreModel {
        self.factory.synthesizer().model()
    }

    fn mean_dwell(&self) -> f64 {
        self.factory.synthesizer().mean_dwell()
    }

    fn next_read(&mut self) -> Option<SimulatedRead> {
        self.factory.next_read()
    }

    fn reads_remaining(&self) -> Option<usize> {
        Some(self.factory.remaining())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> DatasetProfile {
        DatasetProfile::ecoli().scaled(0.03)
    }

    #[test]
    fn streaming_simulator_is_bit_identical_to_batch_generation() {
        let profile = tiny();
        let batch = SimulatedDataset::generate(&profile);
        let mut lazy = StreamingSimulator::new(&profile);
        assert_eq!(lazy.reference(), &batch.reference);
        assert_eq!(lazy.pore_model(), batch.pore_model());
        assert_eq!(lazy.reads_remaining(), Some(batch.reads.len()));
        for expected in &batch.reads {
            assert_eq!(lazy.next_read().as_ref(), Some(expected));
        }
        assert_eq!(lazy.next_read(), None);
        assert_eq!(lazy.reads_remaining(), Some(0));
    }

    #[test]
    fn dataset_stream_yields_every_read_in_id_order() {
        let dataset = SimulatedDataset::generate(&tiny());
        let mut stream = dataset.stream();
        assert_eq!(stream.reads_remaining(), Some(dataset.reads.len()));
        let mut seen = 0usize;
        while let Some(read) = stream.next_read() {
            assert_eq!(read, dataset.reads[seen]);
            seen += 1;
        }
        assert_eq!(seen, dataset.reads.len());
        assert_eq!(stream.next_read(), None);
    }

    #[test]
    fn two_fresh_sources_agree() {
        let profile = tiny();
        let mut a = StreamingSimulator::new(&profile);
        let mut b = StreamingSimulator::new(&profile);
        while let Some(read) = a.next_read() {
            assert_eq!(b.next_read(), Some(read));
        }
        assert_eq!(b.next_read(), None);
    }
}
