//! The k-mer pore model: expected current level per k-mer.

use genpip_genomics::Kmer;
use std::fmt;

/// A nanopore current model: for every k-mer, the mean current (pA) observed
/// while that k-mer occupies the pore, and the event-level standard
/// deviation.
///
/// Real pore models (e.g. ONT's `r9.4_450bps` table) are measured; this
/// reproduction generates a deterministic synthetic table with the properties
/// the basecaller depends on:
///
/// * distinct k-mers receive well-spread levels across the physiological
///   60–120 pA range (so decoding is feasible),
/// * the mapping is a fixed function of the k-mer bits (so signal synthesis
///   and basecalling agree without sharing state),
/// * adjacent levels are close enough that noise causes realistic confusion.
///
/// The model also fixes the state-space size of the Viterbi basecaller:
/// `4^k` states. `k = 3` (64 states) keeps whole-dataset simulation tractable
/// and is the workspace default; `k` up to 6 is supported.
#[derive(Clone, PartialEq)]
pub struct PoreModel {
    k: usize,
    levels: Vec<f32>,
    event_std: f32,
}

impl PoreModel {
    /// Builds the deterministic synthetic model for k-mer length `k`.
    ///
    /// `seed` perturbs the level assignment so different "chemistries" can be
    /// simulated; the default experiments all use seed 7.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= k <= 6`.
    pub fn synthetic(k: usize, seed: u64) -> PoreModel {
        assert!((1..=6).contains(&k), "pore model k must be in 1..=6");
        let n = 1usize << (2 * k);
        // Assign each k-mer a rank via a mixing hash, then spread ranks
        // evenly over the current range. Even spacing maximizes decodability
        // for a given range, and the hash decorrelates level from sequence so
        // homopolymers are not artificially easy.
        let mut order: Vec<(u64, usize)> = (0..n)
            .map(|i| (mix(i as u64 ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)), i))
            .collect();
        order.sort_unstable();
        let mut levels = vec![0.0f32; n];
        let (lo, hi) = (Self::CURRENT_MIN, Self::CURRENT_MAX);
        for (rank, &(_, kmer)) in order.iter().enumerate() {
            let frac = if n == 1 {
                0.5
            } else {
                rank as f32 / (n - 1) as f32
            };
            levels[kmer] = lo + frac * (hi - lo);
        }
        PoreModel {
            k,
            levels,
            event_std: Self::EVENT_STD,
        }
    }

    /// Rebuilds a model from its raw parts — the deserialization twin of
    /// [`PoreModel::levels`] / [`PoreModel::event_std`], used by on-disk
    /// signal containers that embed their chemistry so a file is
    /// self-describing.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= k <= 6`, `levels.len() == 4^k`, and every level
    /// and `event_std` is finite (with `event_std > 0`).
    pub fn from_parts(k: usize, levels: Vec<f32>, event_std: f32) -> PoreModel {
        assert!((1..=6).contains(&k), "pore model k must be in 1..=6");
        assert_eq!(
            levels.len(),
            1usize << (2 * k),
            "pore model must carry 4^k levels"
        );
        assert!(
            levels.iter().all(|l| l.is_finite()),
            "pore model levels must be finite"
        );
        assert!(
            event_std.is_finite() && event_std > 0.0,
            "event std must be finite and positive"
        );
        PoreModel {
            k,
            levels,
            event_std,
        }
    }

    /// The full level table, indexed by packed k-mer bits — the
    /// serialization twin of [`PoreModel::from_parts`].
    #[inline]
    pub fn levels(&self) -> &[f32] {
        &self.levels
    }

    /// Lowest mean current in the table (pA).
    pub const CURRENT_MIN: f32 = 60.0;
    /// Highest mean current in the table (pA).
    pub const CURRENT_MAX: f32 = 120.0;
    /// Event-level standard deviation baked into the model (pA); per-read
    /// noise multiplies this.
    pub const EVENT_STD: f32 = 1.0;

    /// The k-mer length.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of k-mer states (`4^k`).
    #[inline]
    pub fn states(&self) -> usize {
        self.levels.len()
    }

    /// Mean current for the k-mer with the given packed bits.
    ///
    /// # Panics
    ///
    /// Panics if `bits >= 4^k`.
    #[inline]
    pub fn level_bits(&self, bits: u64) -> f32 {
        self.levels[bits as usize]
    }

    /// Mean current for a [`Kmer`].
    ///
    /// # Panics
    ///
    /// Panics if the k-mer length differs from the model's `k`.
    pub fn level(&self, kmer: Kmer) -> f32 {
        assert_eq!(kmer.k(), self.k, "k-mer length does not match pore model");
        self.level_bits(kmer.bits())
    }

    /// Event-level standard deviation (pA).
    #[inline]
    pub fn event_std(&self) -> f32 {
        self.event_std
    }
}

impl fmt::Debug for PoreModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PoreModel(k={}, states={}, range={:.0}..{:.0} pA)",
            self.k,
            self.states(),
            Self::CURRENT_MIN,
            Self::CURRENT_MAX
        )
    }
}

/// SplitMix64 finalizer — a cheap, well-distributed mixing function.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let a = PoreModel::synthetic(3, 7);
        let b = PoreModel::synthetic(3, 7);
        assert_eq!(a, b);
        let c = PoreModel::synthetic(3, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn levels_span_range_evenly() {
        let m = PoreModel::synthetic(3, 7);
        let mut levels: Vec<f32> = (0..m.states()).map(|i| m.level_bits(i as u64)).collect();
        levels.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(levels[0], PoreModel::CURRENT_MIN);
        assert_eq!(*levels.last().unwrap(), PoreModel::CURRENT_MAX);
        // Even spacing.
        let spacing = (PoreModel::CURRENT_MAX - PoreModel::CURRENT_MIN) / 63.0;
        for w in levels.windows(2) {
            assert!((w[1] - w[0] - spacing).abs() < 1e-3);
        }
    }

    #[test]
    fn all_levels_distinct() {
        let m = PoreModel::synthetic(4, 7);
        let mut levels: Vec<f32> = (0..m.states()).map(|i| m.level_bits(i as u64)).collect();
        levels.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(levels.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn level_accepts_matching_kmer() {
        let m = PoreModel::synthetic(3, 7);
        let kmer = Kmer::from_seq(&"ACG".parse().unwrap(), 0, 3);
        assert_eq!(m.level(kmer), m.level_bits(kmer.bits()));
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn level_rejects_wrong_k() {
        let m = PoreModel::synthetic(3, 7);
        let kmer = Kmer::from_seq(&"AC".parse().unwrap(), 0, 2);
        let _ = m.level(kmer);
    }

    #[test]
    #[should_panic(expected = "k must be in")]
    fn k_zero_rejected() {
        let _ = PoreModel::synthetic(0, 7);
    }

    #[test]
    fn from_parts_round_trips() {
        let m = PoreModel::synthetic(3, 7);
        let rebuilt = PoreModel::from_parts(m.k(), m.levels().to_vec(), m.event_std());
        assert_eq!(rebuilt, m);
    }

    #[test]
    #[should_panic(expected = "4^k levels")]
    fn from_parts_rejects_wrong_table_size() {
        let _ = PoreModel::from_parts(3, vec![0.0; 16], 1.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn from_parts_rejects_non_finite_levels() {
        let _ = PoreModel::from_parts(1, vec![60.0, f32::NAN, 80.0, 90.0], 1.0);
    }
}
