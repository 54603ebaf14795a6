//! Deterministic fault injection for robustness testing.
//!
//! [`FaultInjector`] wraps any [`ReadSource`] and corrupts a seeded,
//! reproducible subset of the reads it forwards. The corruption is a
//! non-finite sample in the raw signal — the basecaller raises a typed
//! `SignalFault` panic the moment it decodes the affected chunk, which is
//! exactly the fault class the `Session` engine's containment path
//! (quarantine) exists to absorb.
//!
//! Determinism contract: injection decisions depend only on the injector's
//! seed and the order of `next_read` calls — never on time, thread
//! interleaving, or OS entropy. Two injectors with the same seed over the
//! same source corrupt the same reads, so tests can assert
//! `quarantined set == injected set` exactly.
//!
//! By default the *entire* signal is corrupted. That guarantees the very
//! first chunk any pipeline decodes faults, under every ER mode and chunk
//! geometry — QSR samples chunks sparsely, so a single targeted bad chunk
//! could be skipped and the read would survive, breaking the
//! quarantined == injected oracle. Use [`FaultInjector::chunk`] when a
//! mid-read fault (after some chunks already succeeded) is the point of
//! the test.

use crate::simulate::SimulatedRead;
use crate::source::ReadSource;
use genpip_genomics::rng::{derive, Rng, SeededRng};
use genpip_genomics::Genome;
use genpip_signal::PoreModel;
use std::sync::Arc;

/// A [`ReadSource`] adapter that corrupts a deterministic fraction of the
/// reads flowing through it and records which ids it hit.
pub struct FaultInjector<S> {
    inner: S,
    rng: SeededRng,
    rate: f64,
    chunk: Option<usize>,
    samples_per_chunk: usize,
    injected: Vec<u32>,
}

impl<S: ReadSource> FaultInjector<S> {
    /// Wraps `inner`, corrupting each read independently with probability
    /// `rate` (clamped to `[0, 1]`), decided by a generator derived from
    /// `seed` so different seeds give independent fault patterns.
    pub fn new(inner: S, rate: f64, seed: u64) -> FaultInjector<S> {
        FaultInjector {
            inner,
            rng: derive(seed, 0xFA17),
            rate: rate.clamp(0.0, 1.0),
            chunk: None,
            samples_per_chunk: 0,
            injected: Vec::new(),
        }
    }

    /// Switches from whole-signal corruption to a single bad sample at the
    /// start of chunk `chunk` (requires [`FaultInjector::samples_per_chunk`]
    /// to locate the offset). Reads too short to contain that chunk are
    /// corrupted at their last sample instead, so an injected read always
    /// faults.
    pub fn chunk(mut self, chunk: usize) -> FaultInjector<S> {
        self.chunk = Some(chunk);
        self
    }

    /// Sets the chunk geometry used by [`FaultInjector::chunk`] to convert
    /// a chunk index into a sample offset.
    pub fn samples_per_chunk(mut self, samples: usize) -> FaultInjector<S> {
        self.samples_per_chunk = samples;
        self
    }

    /// The ids this injector has corrupted so far, in pull order.
    pub fn injected_ids(&self) -> &[u32] {
        &self.injected
    }

    /// Corrupts `read`'s samples through `Arc::make_mut`: a signal shared
    /// with the source (a resident dataset's read) is copied first, so the
    /// source's own read is never touched.
    fn corrupt(&mut self, read: &mut SimulatedRead) {
        let samples = &mut Arc::make_mut(&mut read.signal).samples;
        match self.chunk {
            None => samples.fill(f32::NAN),
            Some(chunk) => {
                let offset = chunk
                    .saturating_mul(self.samples_per_chunk)
                    .min(samples.len().saturating_sub(1));
                if let Some(s) = samples.get_mut(offset) {
                    *s = f32::NAN;
                }
            }
        }
        self.injected.push(read.id);
    }
}

impl<S: ReadSource> ReadSource for FaultInjector<S> {
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
        let mut read = self.inner.next_read()?;
        // Always draw, even at rate 0: the decision stream stays aligned
        // with the pull stream, so the injected set is a pure function of
        // (seed, rate) regardless of what the caller does between pulls.
        let roll = self.rng.random::<f64>();
        if roll < self.rate && !read.signal.samples.is_empty() {
            self.corrupt(&mut read);
        }
        Some(read)
    }

    fn reads_remaining(&self) -> Option<usize> {
        self.inner.reads_remaining()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::DatasetProfile;
    use crate::simulate::SimulatedDataset;
    use crate::source::StreamingSimulator;

    fn tiny() -> DatasetProfile {
        DatasetProfile::ecoli().scaled(0.03)
    }

    #[test]
    fn same_seed_injects_the_same_reads() {
        let profile = tiny();
        let mut a = FaultInjector::new(StreamingSimulator::new(&profile), 0.2, 7);
        let mut b = FaultInjector::new(StreamingSimulator::new(&profile), 0.2, 7);
        while let Some(read) = a.next_read() {
            let twin = b.next_read().expect("same length");
            assert_eq!(twin.id, read.id);
            // Compare bit patterns: NaN != NaN under PartialEq, but the
            // corruption itself must still be reproducible.
            let bits = |r: &SimulatedRead| -> Vec<u32> {
                r.signal.samples.iter().map(|s| s.to_bits()).collect()
            };
            assert_eq!(bits(&twin), bits(&read));
        }
        assert_eq!(b.next_read(), None);
        assert_eq!(a.injected_ids(), b.injected_ids());
        assert!(
            !a.injected_ids().is_empty(),
            "rate 0.2 should hit something"
        );
    }

    #[test]
    fn rate_zero_is_a_transparent_wrapper() {
        let profile = tiny();
        let mut plain = StreamingSimulator::new(&profile);
        let mut wrapped = FaultInjector::new(StreamingSimulator::new(&profile), 0.0, 99);
        while let Some(read) = plain.next_read() {
            assert_eq!(wrapped.next_read(), Some(read));
        }
        assert_eq!(wrapped.next_read(), None);
        assert!(wrapped.injected_ids().is_empty());
    }

    #[test]
    fn injected_reads_carry_non_finite_signal() {
        let profile = tiny();
        let mut injector = FaultInjector::new(StreamingSimulator::new(&profile), 0.3, 11);
        let mut corrupted = Vec::new();
        while let Some(read) = injector.next_read() {
            if read.signal.samples.iter().any(|s| !s.is_finite()) {
                corrupted.push(read.id);
            }
        }
        assert_eq!(corrupted, injector.injected_ids());
    }

    #[test]
    fn targeted_chunk_mode_corrupts_one_sample() {
        let profile = tiny();
        let mut injector = FaultInjector::new(StreamingSimulator::new(&profile), 1.0, 3)
            .chunk(1)
            .samples_per_chunk(100);
        let read = injector.next_read().expect("profile has reads");
        let bad: Vec<usize> = read
            .signal
            .samples
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.is_finite())
            .map(|(i, _)| i)
            .collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0], 100.min(read.signal.samples.len() - 1));
    }

    #[test]
    fn injecting_over_a_resident_dataset_leaves_its_reads_untouched() {
        let dataset = SimulatedDataset::generate(&tiny());
        let bits = |r: &SimulatedRead| -> Vec<u32> {
            r.signal.samples.iter().map(|s| s.to_bits()).collect()
        };
        let before: Vec<Vec<u32>> = dataset.reads.iter().map(bits).collect();
        // Every read corrupted, whole-signal and at one chunk.
        let mut whole = FaultInjector::new(dataset.stream(), 1.0, 5);
        let mut one = FaultInjector::new(dataset.stream(), 1.0, 5)
            .chunk(1)
            .samples_per_chunk(100);
        for resident in &dataset.reads {
            for corrupted in [whole.next_read(), one.next_read()] {
                let corrupted = corrupted.expect("one read per resident read");
                assert_eq!(corrupted.id, resident.id);
                assert!(corrupted.signal.samples.iter().any(|s| s.is_nan()));
                assert!(!Arc::ptr_eq(&corrupted.signal, &resident.signal));
            }
        }
        assert_eq!(whole.injected_ids().len(), dataset.reads.len());
        let after: Vec<Vec<u32>> = dataset.reads.iter().map(bits).collect();
        assert_eq!(after, before, "the dataset's reads are bit-equal");
    }
}
