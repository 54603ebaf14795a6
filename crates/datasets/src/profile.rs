//! Dataset profiles.

use genpip_genomics::rng::{self, SeededRng};

/// Read-length sampling model.
///
/// The paper's two datasets have differently shaped length distributions
/// (Table 1): E. coli has mean > median (the classic right-skewed log-normal
/// of long-read runs), while the human run has mean *below* median (a
/// population of short degraded fragments drags the mean down).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LengthModel {
    /// Right-skewed log-normal parameterized by its mean and median
    /// (requires mean ≥ median).
    LogNormal {
        /// Distribution mean in bases.
        mean: f64,
        /// Distribution median in bases.
        median: f64,
    },
    /// A mostly-Gaussian bulk around `median` with a uniform short-fragment
    /// tail: `short_frac` of reads are uniform in `[min, median]`. Produces
    /// mean < median.
    ShortTailed {
        /// Bulk centre in bases.
        median: f64,
        /// Bulk standard deviation in bases.
        spread: f64,
        /// Fraction of short-fragment reads.
        short_frac: f64,
    },
}

impl LengthModel {
    /// Samples one read length, clamped to `min_len`.
    pub fn sample(&self, rng: &mut SeededRng, min_len: usize) -> usize {
        use genpip_genomics::rng::Rng;
        let len = match *self {
            LengthModel::LogNormal { mean, median } => {
                let (mu, sigma) = rng::log_normal_params(mean, median);
                rng::log_normal(rng, mu, sigma)
            }
            LengthModel::ShortTailed {
                median,
                spread,
                short_frac,
            } => {
                if rng.random::<f64>() < short_frac {
                    rng.random_range(min_len as f64..median)
                } else {
                    rng::normal(rng, median * 1.08, spread)
                }
            }
        };
        (len.max(min_len as f64)) as usize
    }
}

/// Everything needed to generate one synthetic dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetProfile {
    /// Dataset name (`"ecoli"`, `"human"`).
    pub name: &'static str,
    /// Master seed; every derived stream comes from this.
    pub seed: u64,
    /// Reference genome length in bases.
    pub genome_len: usize,
    /// Reference GC fraction.
    pub genome_gc: f64,
    /// Fraction of the reference occupied by copied repeats.
    pub repeat_fraction: f64,
    /// Number of reads to simulate.
    pub n_reads: usize,
    /// Read-length model.
    pub lengths: LengthModel,
    /// Minimum read length.
    pub min_read_len: usize,
    /// Fraction of reads drawn with the low-quality noise profile
    /// (the population read quality control discards; ≈20.5 % in the
    /// paper's E. coli analysis, Section 2.3).
    pub low_quality_fraction: f64,
    /// Fraction of reads drawn from a contaminant genome (the unmapped
    /// population; ≈10 % in the paper's E. coli analysis).
    pub contaminant_fraction: f64,
    /// Median noise multiplier of high-quality reads (log-normal).
    pub hq_sigma_median: f64,
    /// Log-spread of the high-quality noise multiplier.
    pub hq_sigma_logspread: f64,
    /// Mean noise multiplier of low-quality reads (Gaussian).
    pub lq_sigma_mean: f64,
    /// Spread of the low-quality noise multiplier.
    pub lq_sigma_std: f64,
    /// Within-read log-noise wander (drives the chunk-quality variation of
    /// Figure 7).
    pub sigma_wander: f64,
    /// Correlation length of the wander, in bases.
    pub wander_corr_bases: f64,
    /// Divergence between the sequenced individual and the reference
    /// (substitution+indel rate applied once to the reference).
    pub variant_rate: f64,
    /// Pore model k (fixes the basecaller state space; 3 ⇒ 64 states).
    pub pore_k: usize,
    /// Pore model seed (the "chemistry").
    pub pore_seed: u64,
}

impl DatasetProfile {
    /// The E. coli-like profile, scaled from the paper's dataset
    /// (4.6 Mb genome, 58 k reads, mean length 9 kb) to a size a laptop
    /// simulates in seconds (300 kb genome, 700 reads, mean length 3 kb).
    /// Quality structure follows Section 2.3: ≈20.5 % low-quality reads and
    /// ≈10 % contaminants.
    pub fn ecoli() -> DatasetProfile {
        DatasetProfile {
            name: "ecoli",
            seed: 0xEC011,
            genome_len: 300_000,
            genome_gc: 0.508, // E. coli K-12 GC content
            repeat_fraction: 0.05,
            n_reads: 700,
            lengths: LengthModel::LogNormal {
                mean: 3_000.0,
                median: 2_880.0,
            },
            min_read_len: 400,
            low_quality_fraction: 0.205,
            contaminant_fraction: 0.10,
            hq_sigma_median: 1.30,
            hq_sigma_logspread: 0.18,
            lq_sigma_mean: 2.9,
            lq_sigma_std: 0.25,
            sigma_wander: 0.16,
            wander_corr_bases: 500.0,
            variant_rate: 0.01,
            pore_k: 3,
            pore_seed: 7,
        }
    }

    /// The human-like profile (NA12878 run, Table 1): higher overall
    /// quality (mean Q11.3), shorter reads with mean < median, a smaller
    /// low-quality population, and a larger, more repetitive genome.
    pub fn human() -> DatasetProfile {
        DatasetProfile {
            name: "human",
            seed: 0x4B12878,
            genome_len: 1_000_000,
            genome_gc: 0.41, // human GC content
            repeat_fraction: 0.25,
            n_reads: 1_000,
            lengths: LengthModel::ShortTailed {
                median: 2_150.0,
                spread: 300.0,
                short_frac: 0.32,
            },
            min_read_len: 400,
            low_quality_fraction: 0.09,
            contaminant_fraction: 0.08,
            hq_sigma_median: 1.02,
            hq_sigma_logspread: 0.14,
            lq_sigma_mean: 2.9,
            lq_sigma_std: 0.25,
            sigma_wander: 0.14,
            wander_corr_bases: 500.0,
            variant_rate: 0.008,
            pore_k: 3,
            pore_seed: 7,
        }
    }

    /// Scales the dataset size (genome length, read count) by `factor`,
    /// keeping per-read properties — handy for fast tests.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < factor <= 1`.
    pub fn scaled(mut self, factor: f64) -> DatasetProfile {
        assert!(
            factor > 0.0 && factor <= 1.0,
            "scale factor must be in (0, 1]"
        );
        self.genome_len = ((self.genome_len as f64 * factor) as usize).max(20_000);
        self.n_reads = ((self.n_reads as f64 * factor) as usize).max(8);
        self
    }

    /// Generates the dataset (convenience for
    /// [`crate::SimulatedDataset::generate`]).
    pub fn generate(&self) -> crate::SimulatedDataset {
        crate::SimulatedDataset::generate(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genpip_genomics::rng::seeded;

    #[test]
    fn log_normal_lengths_have_right_skew() {
        let model = LengthModel::LogNormal {
            mean: 3_000.0,
            median: 2_880.0,
        };
        let mut rng = seeded(1);
        let lens: Vec<f64> = (0..20_000)
            .map(|_| model.sample(&mut rng, 100) as f64)
            .collect();
        let mean = lens.iter().sum::<f64>() / lens.len() as f64;
        let mut sorted = lens.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = sorted[sorted.len() / 2];
        assert!((mean - 3_000.0).abs() / 3_000.0 < 0.05, "mean {mean}");
        assert!((median - 2_880.0).abs() / 2_880.0 < 0.05, "median {median}");
        assert!(mean > median);
    }

    #[test]
    fn short_tailed_lengths_have_left_skew() {
        let model = LengthModel::ShortTailed {
            median: 2_050.0,
            spread: 450.0,
            short_frac: 0.22,
        };
        let mut rng = seeded(2);
        let lens: Vec<f64> = (0..20_000)
            .map(|_| model.sample(&mut rng, 400) as f64)
            .collect();
        let mean = lens.iter().sum::<f64>() / lens.len() as f64;
        let mut sorted = lens.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = sorted[sorted.len() / 2];
        assert!(mean < median, "mean {mean} vs median {median}");
    }

    #[test]
    fn min_length_is_respected() {
        let model = LengthModel::ShortTailed {
            median: 500.0,
            spread: 400.0,
            short_frac: 0.5,
        };
        let mut rng = seeded(3);
        assert!((0..5_000).all(|_| model.sample(&mut rng, 400) >= 400));
    }

    #[test]
    fn profiles_mirror_paper_structure() {
        let e = DatasetProfile::ecoli();
        let h = DatasetProfile::human();
        // E. coli: more low-quality reads, longer reads, smaller genome.
        assert!(e.low_quality_fraction > h.low_quality_fraction);
        assert!(e.genome_len < h.genome_len);
        assert!(h.repeat_fraction > e.repeat_fraction);
        // Same chemistry.
        assert_eq!(e.pore_k, h.pore_k);
        assert_eq!(e.pore_seed, h.pore_seed);
    }

    #[test]
    fn scaling_shrinks_but_clamps() {
        let p = DatasetProfile::ecoli().scaled(0.01);
        assert_eq!(p.genome_len, 20_000);
        assert!(p.n_reads >= 8);
    }

    #[test]
    #[should_panic(expected = "scale factor")]
    fn zero_scale_rejected() {
        let _ = DatasetProfile::ecoli().scaled(0.0);
    }
}
