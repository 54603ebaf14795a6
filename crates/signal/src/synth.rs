//! Raw-signal synthesis from a true base sequence.

use crate::pore::PoreModel;
use genpip_genomics::rng::{self, SeededRng};
use genpip_genomics::DnaSeq;

/// Per-read noise characteristics.
///
/// The paper's early-rejection study rests on two empirical facts about read
/// quality (Section 3.2.1 / Figure 7): low- and high-quality reads occupy
/// clearly separated chunk-quality bands, and quality varies *slowly* along a
/// read (consecutive chunks are correlated). This profile reproduces both:
/// `base_sigma` sets the band and an AR(1) process on log-noise with
/// correlation length `wander_corr_bases` produces the slow variation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseProfile {
    /// Noise multiplier on the pore model's event standard deviation.
    /// ≈1 yields high-quality reads; ≳3 yields low-quality reads.
    pub base_sigma: f64,
    /// Standard deviation of the AR(1) log-noise wander (0 = constant noise).
    pub sigma_wander: f64,
    /// Correlation length of the wander, in bases.
    pub wander_corr_bases: f64,
    /// Linear baseline drift in pA per 1000 samples.
    pub drift_per_kilosample: f64,
}

impl NoiseProfile {
    /// A constant-noise profile with the given sigma multiplier.
    pub fn constant(base_sigma: f64) -> NoiseProfile {
        NoiseProfile {
            base_sigma,
            sigma_wander: 0.0,
            wander_corr_bases: 1.0,
            drift_per_kilosample: 0.0,
        }
    }
}

impl Default for NoiseProfile {
    /// High-quality read defaults: unit noise, mild wander over ~600 bases,
    /// slight drift.
    fn default() -> NoiseProfile {
        NoiseProfile {
            base_sigma: 1.0,
            sigma_wander: 0.25,
            wander_corr_bases: 600.0,
            drift_per_kilosample: 0.05,
        }
    }
}

/// A synthesized raw read signal plus simulation ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadSignal {
    /// Current samples in pA.
    pub samples: Vec<f32>,
    /// For each sample, the index of the k-mer (equivalently, of the k-mer's
    /// first base) occupying the pore — ground truth for basecaller
    /// diagnostics.
    pub base_index: Vec<u32>,
    /// The true sequence that generated the signal.
    pub truth: DnaSeq,
}

impl ReadSignal {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` if the signal has no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Raw-signal size in bytes ([`crate::BYTES_PER_SAMPLE`] per sample) —
    /// the quantity the data-movement model charges for shipping this read.
    pub fn bytes(&self) -> usize {
        self.samples.len() * crate::BYTES_PER_SAMPLE
    }
}

/// Synthesizes raw signals from true sequences under a [`PoreModel`].
#[derive(Debug, Clone)]
pub struct SignalSynthesizer {
    model: PoreModel,
    mean_dwell: f64,
}

impl SignalSynthesizer {
    /// Default mean dwell time in samples per base. Real R9 chemistry runs
    /// ≈450 bases/s at 4 kHz sampling ≈ 8.9 samples/base; we use 8.
    pub const DEFAULT_MEAN_DWELL: f64 = 8.0;

    /// Creates a synthesizer with the default dwell time.
    pub fn new(model: PoreModel) -> SignalSynthesizer {
        SignalSynthesizer {
            model,
            mean_dwell: Self::DEFAULT_MEAN_DWELL,
        }
    }

    /// The pore model in use.
    pub fn model(&self) -> &PoreModel {
        &self.model
    }

    /// Mean dwell time (samples per base).
    pub fn mean_dwell(&self) -> f64 {
        self.mean_dwell
    }

    /// Expected signal length for a read of `bases` bases.
    pub fn expected_samples(&self, bases: usize) -> usize {
        (bases as f64 * self.mean_dwell) as usize
    }

    /// Synthesizes a signal with constant noise `sigma` (multiplier on the
    /// model's event std).
    pub fn synthesize(&self, truth: &DnaSeq, sigma: f64, seed: u64) -> ReadSignal {
        self.synthesize_with_profile(truth, &NoiseProfile::constant(sigma), seed)
    }

    /// Synthesizes a signal under a full [`NoiseProfile`].
    ///
    /// Sequences shorter than the pore k produce an empty signal.
    pub fn synthesize_with_profile(
        &self,
        truth: &DnaSeq,
        profile: &NoiseProfile,
        seed: u64,
    ) -> ReadSignal {
        let k = self.model.k();
        if truth.len() < k {
            return ReadSignal {
                samples: Vec::new(),
                base_index: Vec::new(),
                truth: truth.clone(),
            };
        }
        let n_kmers = truth.len() - k + 1;
        let mut rng = rng::derive(seed, 0x7369676e616c); // "signal"
        let mut samples = Vec::with_capacity(self.expected_samples(truth.len()));
        let mut base_index = Vec::with_capacity(samples.capacity());

        // AR(1) state for the log-noise wander.
        let rho = (-1.0 / profile.wander_corr_bases.max(1.0)).exp();
        let innovation = profile.sigma_wander * (1.0 - rho * rho).sqrt();
        let mut wander = if profile.sigma_wander > 0.0 {
            rng::normal(&mut rng, 0.0, profile.sigma_wander)
        } else {
            0.0
        };

        let p_advance = 1.0 / self.mean_dwell;
        let event_std = self.model.event_std() as f64;
        let mut kmer = genpip_genomics::Kmer::from_seq(truth, 0, k);
        for i in 0..n_kmers {
            if i > 0 {
                kmer = kmer.roll(truth.get(i + k - 1));
            }
            let level = self.model.level(kmer) as f64;
            let sigma = profile.base_sigma * wander.exp() * event_std;
            let dwell = dwell_samples(&mut rng, p_advance);
            for _ in 0..dwell {
                let drift = profile.drift_per_kilosample * samples.len() as f64 / 1000.0;
                let x = rng::normal(&mut rng, level + drift, sigma);
                samples.push(x as f32);
                base_index.push(i as u32);
            }
            if profile.sigma_wander > 0.0 {
                wander = rho * wander + rng::normal(&mut rng, 0.0, innovation);
            }
        }
        ReadSignal {
            samples,
            base_index,
            truth: truth.clone(),
        }
    }
}

fn dwell_samples(rng: &mut SeededRng, p_advance: f64) -> u32 {
    if p_advance >= 1.0 {
        1
    } else {
        rng::geometric(rng, p_advance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genpip_genomics::GenomeBuilder;

    fn synth() -> SignalSynthesizer {
        SignalSynthesizer::new(PoreModel::synthetic(3, 7))
    }

    fn random_seq(n: usize, seed: u64) -> DnaSeq {
        GenomeBuilder::new(n)
            .seed(seed)
            .repeat_fraction(0.0)
            .build()
            .sequence()
            .clone()
    }

    #[test]
    fn synthesis_is_deterministic() {
        let s = synth();
        let truth = random_seq(200, 1);
        let a = s.synthesize(&truth, 1.0, 42);
        let b = s.synthesize(&truth, 1.0, 42);
        assert_eq!(a, b);
        let c = s.synthesize(&truth, 1.0, 43);
        assert_ne!(a.samples, c.samples);
    }

    #[test]
    fn signal_length_tracks_dwell() {
        let s = synth();
        let truth = random_seq(2_000, 2);
        let sig = s.synthesize(&truth, 1.0, 3);
        let expected = s.expected_samples(truth.len()) as f64;
        let actual = sig.len() as f64;
        assert!(
            (actual - expected).abs() / expected < 0.1,
            "expected ~{expected}, got {actual}"
        );
        assert_eq!(sig.samples.len(), sig.base_index.len());
    }

    #[test]
    fn base_index_is_monotone_and_covers_kmers() {
        let s = synth();
        let truth = random_seq(300, 4);
        let sig = s.synthesize(&truth, 1.0, 5);
        assert!(sig
            .base_index
            .windows(2)
            .all(|w| w[1] == w[0] || w[1] == w[0] + 1));
        assert_eq!(sig.base_index[0], 0);
        assert_eq!(
            *sig.base_index.last().unwrap() as usize,
            truth.len() - s.model().k()
        );
    }

    #[test]
    fn low_noise_signal_tracks_levels() {
        let s = synth();
        let truth = random_seq(500, 6);
        let sig = s.synthesize(&truth, 0.05, 7);
        // With nearly no noise every sample sits close to its k-mer's level.
        for (x, &bi) in sig.samples.iter().zip(&sig.base_index) {
            let kmer = genpip_genomics::Kmer::from_seq(&truth, bi as usize, 3);
            let level = s.model().level(kmer);
            assert!((x - level).abs() < 1.0, "sample {x} vs level {level}");
        }
    }

    #[test]
    fn noise_scales_with_sigma() {
        let s = synth();
        let truth = random_seq(2_000, 8);
        let spread = |sigma: f64| {
            let sig = s.synthesize(&truth, sigma, 9);
            let mut sq = 0.0f64;
            for (x, &bi) in sig.samples.iter().zip(&sig.base_index) {
                let kmer = genpip_genomics::Kmer::from_seq(&truth, bi as usize, 3);
                sq += ((x - s.model().level(kmer)) as f64).powi(2);
            }
            (sq / sig.len() as f64).sqrt()
        };
        let lo = spread(1.0);
        let hi = spread(3.0);
        assert!((lo - 1.0).abs() < 0.1, "sigma 1 spread {lo}");
        assert!((hi - 3.0).abs() < 0.3, "sigma 3 spread {hi}");
    }

    #[test]
    fn short_sequence_yields_empty_signal() {
        let s = synth();
        let truth: DnaSeq = "AC".parse().unwrap();
        let sig = s.synthesize(&truth, 1.0, 1);
        assert!(sig.is_empty());
        assert_eq!(sig.bytes(), 0);
    }

    #[test]
    fn wander_produces_varying_local_noise() {
        let s = synth();
        let truth = random_seq(6_000, 10);
        let profile = NoiseProfile {
            base_sigma: 1.5,
            sigma_wander: 0.6,
            wander_corr_bases: 300.0,
            drift_per_kilosample: 0.0,
        };
        let sig = s.synthesize_with_profile(&truth, &profile, 11);
        // Estimate local noise in windows; the ratio of max to min window
        // noise should be clearly > 1 when wander is on.
        let window = 2_000;
        let mut noises = Vec::new();
        for w in sig.samples.chunks(window) {
            if w.len() < window {
                break;
            }
            let start = noises.len() * window;
            let mut sq = 0.0f64;
            for (j, x) in w.iter().enumerate() {
                let bi = sig.base_index[start + j] as usize;
                let kmer = genpip_genomics::Kmer::from_seq(&truth, bi, 3);
                sq += ((x - s.model().level(kmer)) as f64).powi(2);
            }
            noises.push((sq / w.len() as f64).sqrt());
        }
        let max = noises.iter().cloned().fold(f64::MIN, f64::max);
        let min = noises.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max / min > 1.3, "max {max}, min {min}");
    }

    #[test]
    fn drift_shifts_late_samples() {
        let s = synth();
        let truth = random_seq(4_000, 12);
        let profile = NoiseProfile {
            base_sigma: 0.2,
            sigma_wander: 0.0,
            wander_corr_bases: 1.0,
            drift_per_kilosample: 1.0,
        };
        let sig = s.synthesize_with_profile(&truth, &profile, 13);
        // Average residual (sample - level) grows along the read.
        let resid = |range: std::ops::Range<usize>| {
            let mut sum = 0.0f64;
            for i in range.clone() {
                let kmer = genpip_genomics::Kmer::from_seq(&truth, sig.base_index[i] as usize, 3);
                sum += (sig.samples[i] - s.model().level(kmer)) as f64;
            }
            sum / range.len() as f64
        };
        let early = resid(0..2_000);
        let late = resid(sig.len() - 2_000..sig.len());
        assert!(late - early > 5.0, "early {early}, late {late}");
    }
}
