//! Nanopore-style sequencing error model.
//!
//! The paper's datasets use ONT R9 chemistry at 80–85 % base accuracy
//! (Section 5). Errors are a mix of substitutions, insertions and deletions;
//! [`ErrorModel`] applies such a mix to a true sequence and reports the edit
//! script, which the dataset simulator uses both to build the *basecalled*
//! sequence an imperfect basecaller would emit and to know the ground truth.

use crate::base::Base;
use crate::rng::Rng;
use crate::rng::SeededRng;
use crate::seq::DnaSeq;

/// One edit applied by the error model, in true-sequence coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutationOp {
    /// The true base at `pos` was replaced by `to`.
    Substitution {
        /// Position in the true sequence.
        pos: usize,
        /// The erroneous base emitted instead.
        to: Base,
    },
    /// `base` was inserted before true position `pos`.
    Insertion {
        /// Position in the true sequence before which the base appears.
        pos: usize,
        /// The spurious base.
        base: Base,
    },
    /// The true base at `pos` was dropped.
    Deletion {
        /// Position in the true sequence.
        pos: usize,
    },
}

/// Per-base error rates for substitution / insertion / deletion.
///
/// Rates are probabilities per true base; the overall error rate is roughly
/// their sum. ONT R9 reads are ≈15 % total error split roughly evenly, which
/// is the default.
///
/// # Example
///
/// ```
/// use genpip_genomics::{DnaSeq, ErrorModel};
/// use genpip_genomics::rng::seeded;
///
/// let truth: DnaSeq = "ACGTACGTACGT".parse()?;
/// let model = ErrorModel::with_total_rate(0.15);
/// let mut rng = seeded(1);
/// let (observed, ops) = model.apply(&truth, &mut rng);
/// assert!(observed.len() > 0);
/// assert!(ops.len() <= truth.len());
/// # Ok::<(), genpip_genomics::base::ParseBaseError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorModel {
    /// Substitution probability per base.
    pub substitution: f64,
    /// Insertion probability per base.
    pub insertion: f64,
    /// Deletion probability per base.
    pub deletion: f64,
}

impl ErrorModel {
    /// Splits `total` across the three error classes with the ONT-like
    /// 50/25/25 substitution/insertion/deletion ratio.
    ///
    /// # Panics
    ///
    /// Panics if `total` is outside `[0, 0.9]`.
    pub fn with_total_rate(total: f64) -> ErrorModel {
        assert!(
            (0.0..=0.9).contains(&total),
            "total error rate must be in [0, 0.9]"
        );
        ErrorModel {
            substitution: total * 0.5,
            insertion: total * 0.25,
            deletion: total * 0.25,
        }
    }

    /// Total error rate (sum of the three class rates).
    pub fn total_rate(&self) -> f64 {
        self.substitution + self.insertion + self.deletion
    }

    /// Applies the model to `truth`, returning the observed sequence and the
    /// edit script (in true-sequence coordinates, ascending).
    pub fn apply(&self, truth: &DnaSeq, rng: &mut SeededRng) -> (DnaSeq, Vec<MutationOp>) {
        let mut observed = DnaSeq::with_capacity(truth.len());
        let mut ops = Vec::new();
        for (pos, base) in truth.iter().enumerate() {
            // Insertion before this base.
            if rng.random::<f64>() < self.insertion {
                let ins = Base::from_code(rng.random_range(0..4u8));
                observed.push(ins);
                ops.push(MutationOp::Insertion { pos, base: ins });
            }
            let r: f64 = rng.random();
            if r < self.deletion {
                ops.push(MutationOp::Deletion { pos });
            } else if r < self.deletion + self.substitution {
                // Substitute with one of the three *other* bases.
                let shift = rng.random_range(1..4u8);
                let to = Base::from_code(base.code().wrapping_add(shift));
                observed.push(to);
                ops.push(MutationOp::Substitution { pos, to });
            } else {
                observed.push(base);
            }
        }
        (observed, ops)
    }
}

impl Default for ErrorModel {
    /// ONT R9-like ≈15 % total error.
    fn default() -> ErrorModel {
        ErrorModel::with_total_rate(0.15)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded;

    fn truth(n: usize) -> DnaSeq {
        let mut rng = seeded(99);
        (0..n)
            .map(|_| Base::from_code(rng.random_range(0..4u8)))
            .collect()
    }

    #[test]
    fn perfect_model_is_identity() {
        let t = truth(500);
        let mut rng = seeded(1);
        let (obs, ops) = ErrorModel::with_total_rate(0.0).apply(&t, &mut rng);
        assert_eq!(obs, t);
        assert!(ops.is_empty());
    }

    #[test]
    fn error_rate_is_approximately_honoured() {
        let t = truth(50_000);
        let model = ErrorModel::with_total_rate(0.15);
        let mut rng = seeded(2);
        let (_, ops) = model.apply(&t, &mut rng);
        let rate = ops.len() as f64 / t.len() as f64;
        assert!((rate - 0.15).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn class_split_is_50_25_25() {
        let t = truth(80_000);
        let model = ErrorModel::with_total_rate(0.2);
        let mut rng = seeded(3);
        let (_, ops) = model.apply(&t, &mut rng);
        let subs = ops
            .iter()
            .filter(|o| matches!(o, MutationOp::Substitution { .. }))
            .count();
        let ins = ops
            .iter()
            .filter(|o| matches!(o, MutationOp::Insertion { .. }))
            .count();
        let dels = ops
            .iter()
            .filter(|o| matches!(o, MutationOp::Deletion { .. }))
            .count();
        let total = ops.len() as f64;
        assert!((subs as f64 / total - 0.5).abs() < 0.05);
        assert!((ins as f64 / total - 0.25).abs() < 0.05);
        assert!((dels as f64 / total - 0.25).abs() < 0.05);
    }

    #[test]
    fn substitutions_never_reproduce_the_original() {
        let t = truth(20_000);
        let model = ErrorModel {
            substitution: 0.3,
            insertion: 0.0,
            deletion: 0.0,
        };
        let mut rng = seeded(4);
        let (_, ops) = model.apply(&t, &mut rng);
        for op in ops {
            if let MutationOp::Substitution { pos, to } = op {
                assert_ne!(to, t.get(pos), "substitution at {pos} is a no-op");
            }
        }
    }

    #[test]
    fn length_bookkeeping_is_consistent() {
        let t = truth(10_000);
        let model = ErrorModel::default();
        let mut rng = seeded(5);
        let (obs, ops) = model.apply(&t, &mut rng);
        let ins = ops
            .iter()
            .filter(|o| matches!(o, MutationOp::Insertion { .. }))
            .count();
        let dels = ops
            .iter()
            .filter(|o| matches!(o, MutationOp::Deletion { .. }))
            .count();
        assert_eq!(obs.len(), t.len() + ins - dels);
    }

    #[test]
    fn ops_are_sorted_by_position() {
        let t = truth(5_000);
        let mut rng = seeded(6);
        let (_, ops) = ErrorModel::default().apply(&t, &mut rng);
        let positions: Vec<usize> = ops
            .iter()
            .map(|op| match op {
                MutationOp::Substitution { pos, .. }
                | MutationOp::Insertion { pos, .. }
                | MutationOp::Deletion { pos } => *pos,
            })
            .collect();
        assert!(positions.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn total_rate_sums_classes() {
        let m = ErrorModel::with_total_rate(0.12);
        assert!((m.total_rate() - 0.12).abs() < 1e-12);
    }
}
