//! Dataset generation: genomes, reads, raw signals, ground truth.

use crate::profile::DatasetProfile;
use genpip_genomics::rng::Rng;
use genpip_genomics::rng::{self, SeededRng};
use genpip_genomics::{DnaSeq, ErrorModel, Genome, GenomeBuilder, ReadOrigin};
use genpip_signal::{NoiseProfile, PoreModel, ReadSignal, SignalSynthesizer};
use std::sync::Arc;

/// One simulated read: its raw signal plus everything the oracle needs.
///
/// Cloning a read clones a handle onto its signal, not the samples, so a
/// [`crate::ReadSource`] over resident reads hands each one over without
/// copying it.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulatedRead {
    /// Read id (position in the dataset).
    pub id: u32,
    /// The raw signal (with embedded true sequence), shared by every clone
    /// of the read and never mutated in place: a change to the samples goes
    /// through `Arc::make_mut`, which copies a shared signal first.
    pub signal: Arc<ReadSignal>,
    /// Where the read came from.
    pub origin: ReadOrigin,
    /// The base noise multiplier the signal was drawn with (ground truth for
    /// calibration diagnostics; ≳2 means the read belongs to the low-quality
    /// population).
    pub noise_sigma: f64,
}

impl SimulatedRead {
    /// `true` if the read was drawn with the low-quality noise profile.
    pub fn is_low_quality_truth(&self) -> bool {
        self.noise_sigma >= 2.0
    }
}

/// A complete synthetic dataset.
#[derive(Debug, Clone)]
pub struct SimulatedDataset {
    /// The profile that generated it.
    pub profile: DatasetProfile,
    /// The mapping reference.
    pub reference: Genome,
    /// The simulated reads, id-ordered.
    pub reads: Vec<SimulatedRead>,
    synth: SignalSynthesizer,
}

/// The deterministic per-read generator behind both dataset paths: the batch
/// [`SimulatedDataset::generate`] loop and the lazy
/// [`crate::StreamingSimulator`] pull one read at a time from the same RNG
/// stream, so the two paths are bit-identical by construction.
///
/// Read `N` depends on the draws of reads `0..N`, which is why the factory
/// is a stateful cursor rather than a random-access function.
pub(crate) struct ReadFactory {
    profile: DatasetProfile,
    individual: DnaSeq,
    contaminant: Genome,
    synth: SignalSynthesizer,
    rng: SeededRng,
    next_id: u32,
}

impl ReadFactory {
    /// Builds the shared genomes and signal chemistry for `profile`,
    /// returning the mapping reference alongside the read cursor.
    pub(crate) fn new(profile: &DatasetProfile) -> (Genome, ReadFactory) {
        let reference = GenomeBuilder::new(profile.genome_len)
            .seed(profile.seed)
            .gc_fraction(profile.genome_gc)
            .repeat_fraction(profile.repeat_fraction)
            .name(profile.name)
            .build();

        // The sequenced individual: the reference plus variants.
        let mut variant_rng = rng::derive(profile.seed, 0x766172); // "var"
        let (individual, _) = ErrorModel::with_total_rate(profile.variant_rate)
            .apply(reference.sequence(), &mut variant_rng);

        // The contaminant genome: unrelated sequence, same composition.
        let contaminant = GenomeBuilder::new((profile.genome_len / 4).max(20_000))
            .seed(profile.seed ^ 0xC027A317A27)
            .gc_fraction(profile.genome_gc)
            .build();

        let pore = PoreModel::synthetic(profile.pore_k, profile.pore_seed);
        let factory = ReadFactory {
            profile: profile.clone(),
            individual,
            contaminant,
            synth: SignalSynthesizer::new(pore),
            rng: rng::derive(profile.seed, 0x726561647322), // "reads"
            next_id: 0,
        };
        (reference, factory)
    }

    /// The signal chemistry reads are synthesized with.
    pub(crate) fn synthesizer(&self) -> &SignalSynthesizer {
        &self.synth
    }

    /// Reads not yet generated.
    pub(crate) fn remaining(&self) -> usize {
        self.profile.n_reads - self.next_id as usize
    }

    /// Generates the next read, or `None` once `profile.n_reads` exist.
    pub(crate) fn next_read(&mut self) -> Option<SimulatedRead> {
        if self.remaining() == 0 {
            return None;
        }
        let id = self.next_id;
        self.next_id += 1;
        let profile = &self.profile;
        let rng = &mut self.rng;
        let len = profile.lengths.sample(rng, profile.min_read_len);

        // Population draws: contaminant? low-quality?
        let is_contaminant = rng.random::<f64>() < profile.contaminant_fraction;
        let is_low_quality = rng.random::<f64>() < profile.low_quality_fraction;

        let (truth, origin) = if is_contaminant {
            let len = len.min(self.contaminant.len());
            let start = rng.random_range(0..=self.contaminant.len() - len);
            (
                self.contaminant.sequence().subseq(start, len),
                ReadOrigin::Contaminant,
            )
        } else {
            let len = len.min(self.individual.len());
            let start = rng.random_range(0..=self.individual.len() - len);
            let reverse = rng.random::<bool>();
            let span = self.individual.subseq(start, len);
            let seq = if reverse {
                span.reverse_complement()
            } else {
                span
            };
            (
                seq,
                ReadOrigin::Reference {
                    start,
                    len,
                    reverse,
                },
            )
        };

        let noise_sigma = if is_low_quality {
            rng::normal(rng, profile.lq_sigma_mean, profile.lq_sigma_std).max(2.2)
        } else {
            let mu = profile.hq_sigma_median.ln();
            rng::log_normal(rng, mu, profile.hq_sigma_logspread).clamp(0.55, 1.9)
        };

        let noise = NoiseProfile {
            base_sigma: noise_sigma,
            sigma_wander: profile.sigma_wander,
            wander_corr_bases: profile.wander_corr_bases,
            drift_per_kilosample: 0.0,
        };
        let signal = self.synth.synthesize_with_profile(
            &truth,
            &noise,
            profile.seed ^ (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        Some(SimulatedRead {
            id,
            signal: Arc::new(signal),
            origin,
            noise_sigma,
        })
    }
}

impl SimulatedDataset {
    /// Generates the dataset described by `profile`. Deterministic in the
    /// profile's seeds.
    pub fn generate(profile: &DatasetProfile) -> SimulatedDataset {
        let (reference, mut factory) = ReadFactory::new(profile);
        let mut reads = Vec::with_capacity(profile.n_reads);
        while let Some(read) = factory.next_read() {
            reads.push(read);
        }
        SimulatedDataset {
            profile: profile.clone(),
            reference,
            reads,
            synth: factory.synth,
        }
    }

    /// The pore model the signals were generated with (and the basecaller
    /// must decode with).
    pub fn pore_model(&self) -> &PoreModel {
        self.synth.model()
    }

    /// The signal synthesizer (mean dwell etc.).
    pub fn synthesizer(&self) -> &SignalSynthesizer {
        &self.synth
    }

    /// Total raw-signal samples across all reads.
    pub fn total_samples(&self) -> usize {
        self.reads.iter().map(|r| r.signal.samples.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::DatasetProfile;

    fn tiny() -> DatasetProfile {
        DatasetProfile::ecoli().scaled(0.03)
    }

    #[test]
    fn generation_is_deterministic() {
        let a = SimulatedDataset::generate(&tiny());
        let b = SimulatedDataset::generate(&tiny());
        assert_eq!(a.reference, b.reference);
        assert_eq!(a.reads, b.reads);
    }

    #[test]
    fn read_count_and_lengths_match_profile() {
        let p = tiny();
        let d = SimulatedDataset::generate(&p);
        assert_eq!(d.reads.len(), p.n_reads);
        for r in &d.reads {
            assert!(r.signal.truth.len() >= p.min_read_len);
            assert!(!r.signal.samples.is_empty());
            // Signal length tracks dwell (8 samples/base ± randomness).
            let ratio = r.signal.samples.len() as f64 / r.signal.truth.len() as f64;
            assert!((ratio - 8.0).abs() < 2.0, "dwell ratio {ratio}");
        }
    }

    #[test]
    fn population_fractions_are_close_to_profile() {
        let p = DatasetProfile::ecoli().scaled(0.5);
        let d = SimulatedDataset::generate(&p);
        let share = |is: fn(&SimulatedRead) -> bool| {
            d.reads.iter().filter(|r| is(r)).count() as f64 / d.reads.len() as f64
        };
        let cont = share(|r| r.origin == ReadOrigin::Contaminant);
        let lq = share(SimulatedRead::is_low_quality_truth);
        assert!(
            (cont - p.contaminant_fraction).abs() < 0.05,
            "contaminant {cont}"
        );
        assert!(
            (lq - p.low_quality_fraction).abs() < 0.06,
            "low quality {lq}"
        );
    }

    #[test]
    fn reference_reads_point_into_the_reference() {
        let d = SimulatedDataset::generate(&tiny());
        for r in &d.reads {
            if let ReadOrigin::Reference { start, len, .. } = r.origin {
                assert!(start + len <= d.reference.len());
                assert_eq!(r.signal.truth.len(), len);
            }
        }
    }

    #[test]
    fn noise_sigma_separates_populations() {
        let d = SimulatedDataset::generate(&DatasetProfile::ecoli().scaled(0.2));
        for r in &d.reads {
            if r.is_low_quality_truth() {
                assert!(r.noise_sigma >= 2.2);
            } else {
                assert!(r.noise_sigma <= 1.9);
            }
        }
    }

    #[test]
    fn totals_are_consistent() {
        let d = SimulatedDataset::generate(&tiny());
        let true_bases: usize = d.reads.iter().map(|r| r.signal.truth.len()).sum();
        assert!(d.total_samples() > true_bases * 5);
    }
}
