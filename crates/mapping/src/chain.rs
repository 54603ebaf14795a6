//! Chaining: dynamic programming over anchors.
//!
//! The paper's Figure 1 ⓒ: given the anchors from seeding, find chains of
//! colinear anchors whose spacing is consistent between query and reference,
//! scoring each chain with minimap2's gap-cost recurrence. The chaining
//! *score* is central to GenPIP: the read-mapping controller compares it to
//! the `θ_cm` threshold both for whole reads and — in the ER-CMR early
//! rejection — for assembled groups of chunks.
//!
//! [`IncrementalChainer`] implements the DP so that anchors can be appended
//! in query-position order, which is exactly how GenPIP's chunk-based
//! pipeline produces them: each basecalled chunk contributes anchors with
//! strictly higher query positions, and the DP extends without recomputing
//! earlier rows (paper Section 3.1: "the chaining step can work on the
//! output of seeding while the seeding step processes the next chunk").

use crate::seed::Anchor;
use crate::RefPos;

/// Chaining-score parameters (minimap2-style).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChainParams {
    /// Minimizer k-mer length (full credit for a gap-free extension).
    pub k: usize,
    /// Maximum per-axis gap between chained anchors.
    pub max_gap: RefPos,
    /// Maximum number of predecessors examined per anchor (DP lookback).
    pub lookback: usize,
    /// Linear gap-cost coefficient (minimap2 uses `0.01 · k`).
    pub gap_linear: f64,
}

impl ChainParams {
    /// minimap2-like defaults for a minimizer length of `k`.
    pub fn for_k(k: usize) -> ChainParams {
        ChainParams {
            k,
            max_gap: 5_000,
            lookback: 64,
            gap_linear: 0.01 * k as f64,
        }
    }

    /// Score contribution of extending a chain from anchor `j` to anchor `i`
    /// (both in chain coordinates), or `None` if the pair cannot chain.
    pub fn step_score(&self, from: Anchor, to: Anchor) -> Option<f64> {
        if to.qpos <= from.qpos || to.rpos <= from.rpos {
            return None;
        }
        let dq = to.qpos - from.qpos;
        let dr = to.rpos - from.rpos;
        if dq > self.max_gap || dr > self.max_gap {
            return None;
        }
        let gap = dq.abs_diff(dr);
        let matched = self.k.min(dq as usize).min(dr as usize) as f64;
        let gap_cost = if gap == 0 {
            0.0
        } else {
            self.gap_linear * gap as f64 + 0.5 * ((gap + 1) as f64).log2()
        };
        Some(matched - gap_cost)
    }
}

impl Default for ChainParams {
    fn default() -> ChainParams {
        ChainParams::for_k(15)
    }
}

/// A scored chain: indices into the chainer's anchor array, ascending qpos.
#[derive(Debug, Clone, PartialEq)]
pub struct Chain {
    /// Chain score (the quantity thresholded by `θ_cm`).
    pub score: f64,
    /// Indices of the chained anchors in the chainer's anchor array.
    pub anchor_indices: Vec<usize>,
}

/// Incremental chaining DP.
///
/// # Example
///
/// ```
/// use genpip_mapping::{Anchor, ChainParams, IncrementalChainer};
///
/// let mut chainer = IncrementalChainer::new(ChainParams::for_k(15));
/// // A perfectly colinear run of anchors 20 bp apart.
/// let anchors: Vec<Anchor> =
///     (0..10).map(|i| Anchor { qpos: i * 20, rpos: 1_000 + i * 20 }).collect();
/// chainer.extend(&anchors);
/// assert!(chainer.best_score() > 100.0);
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalChainer {
    params: ChainParams,
    anchors: Vec<Anchor>,
    score: Vec<f64>,
    pred: Vec<Option<usize>>,
    dp_evaluations: usize,
    sort_buf: Vec<Anchor>,
}

impl IncrementalChainer {
    /// Creates an empty chainer.
    pub fn new(params: ChainParams) -> IncrementalChainer {
        IncrementalChainer {
            params,
            anchors: Vec::new(),
            score: Vec::new(),
            pred: Vec::new(),
            dp_evaluations: 0,
            sort_buf: Vec::new(),
        }
    }

    /// Clears all per-read state, keeping buffer capacity — a reused chainer
    /// starts the next read without reallocating.
    pub fn reset(&mut self) {
        self.anchors.clear();
        self.score.clear();
        self.pred.clear();
        self.dp_evaluations = 0;
    }

    /// Appends a batch of anchors and extends the DP.
    ///
    /// Within the batch, anchors may arrive in any order (they are sorted by
    /// `(qpos, rpos)` internally). Batches must arrive in non-decreasing
    /// query-position order, which chunk-sequential processing guarantees;
    /// violating that loses chaining opportunities but never produces an
    /// invalid chain.
    ///
    /// A predecessor `j` is skipped, without scoring the step, when
    /// `score[j] + cap <= best`, where `cap` is `k` if `gap_linear >= 0` and
    /// `+∞` otherwise (NaN included). The skip is exact: with a
    /// non-negative `gap_linear` a step credits at most `k` matched bases
    /// and charges a non-negative gap cost, so `fl(matched − cost) <= k`,
    /// and because `fl(score[j] + ·)` is monotone the candidate could never
    /// pass the strict `cand > best` that admits a new winner — a tie keeps
    /// the predecessor found first, as before. The winners, the scores and
    /// the chains are those of the unpruned loop; [`dp_evaluations`]
    /// still counts the whole lookback window, because it is the PIM
    /// DP-unit cost-model counter, not the host's work.
    ///
    /// [`dp_evaluations`]: IncrementalChainer::dp_evaluations
    pub fn extend(&mut self, batch: &[Anchor]) {
        let mut sorted = std::mem::take(&mut self.sort_buf);
        sorted.clear();
        sorted.extend_from_slice(batch);
        sorted.sort_unstable_by_key(|a| (a.qpos, a.rpos));
        let cap = if self.params.gap_linear >= 0.0 {
            self.params.k as f64
        } else {
            f64::INFINITY
        };
        for &anchor in &sorted {
            let i = self.anchors.len();
            self.anchors.push(anchor);
            let mut best = self.params.k as f64; // chain of one anchor
            let mut best_pred = None;
            let lo = i.saturating_sub(self.params.lookback);
            for j in (lo..i).rev() {
                let score = self.score[j];
                if score + cap <= best {
                    continue;
                }
                if let Some(step) = self.params.step_score(self.anchors[j], anchor) {
                    let cand = score + step;
                    if cand > best {
                        best = cand;
                        best_pred = Some(j);
                    }
                }
            }
            self.dp_evaluations += i - lo;
            self.score.push(best);
            self.pred.push(best_pred);
        }
        self.sort_buf = sorted;
    }

    /// All anchors added so far.
    pub fn anchors(&self) -> &[Anchor] {
        &self.anchors
    }

    /// Number of DP predecessor evaluations performed — the workload counter
    /// the PIM DP-unit model charges for.
    pub fn dp_evaluations(&self) -> usize {
        self.dp_evaluations
    }

    /// The best chain score so far (0 if no anchors).
    pub fn best_score(&self) -> f64 {
        self.score.iter().cloned().fold(0.0, f64::max)
    }

    /// Traces back the best chain, if any anchor exists.
    pub fn best_chain(&self) -> Option<Chain> {
        let (mut i, &score) = self
            .score
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite scores"))?;
        let mut indices = vec![i];
        while let Some(j) = self.pred[i] {
            indices.push(j);
            i = j;
        }
        indices.reverse();
        Some(Chain {
            score,
            anchor_indices: indices,
        })
    }

    /// The best chain score among anchors whose (chain-coordinate) reference
    /// position lies outside `excluded`: the "second-best chain" used for
    /// MAPQ estimation.
    ///
    /// Accepts any range form over [`RefPos`] (`lo..hi`, `..`, `lo..=hi`, …),
    /// so "exclude everything" is the type-parametric full range `..` — no
    /// caller has to spell a width-specific sentinel like `0..u32::MAX`.
    pub fn best_score_outside<R: std::ops::RangeBounds<RefPos>>(&self, excluded: R) -> f64 {
        self.score
            .iter()
            .zip(&self.anchors)
            .filter(|(_, a)| !excluded.contains(&a.rpos))
            .map(|(s, _)| *s)
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod differential;

#[cfg(test)]
mod tests {
    use super::*;

    fn colinear(n: RefPos, spacing: RefPos, q0: RefPos, r0: RefPos) -> Vec<Anchor> {
        (0..n)
            .map(|i| Anchor {
                qpos: q0 + i * spacing,
                rpos: r0 + i * spacing,
            })
            .collect()
    }

    #[test]
    fn empty_chainer() {
        let c = IncrementalChainer::new(ChainParams::default());
        assert_eq!(c.best_score(), 0.0);
        assert!(c.best_chain().is_none());
        assert_eq!(c.dp_evaluations(), 0);
    }

    #[test]
    fn single_anchor_scores_k() {
        let mut c = IncrementalChainer::new(ChainParams::for_k(15));
        c.extend(&[Anchor { qpos: 5, rpos: 100 }]);
        assert_eq!(c.best_score(), 15.0);
        assert_eq!(c.best_chain().unwrap().anchor_indices, vec![0]);
    }

    #[test]
    fn colinear_anchors_chain_fully() {
        let mut c = IncrementalChainer::new(ChainParams::for_k(15));
        let anchors = colinear(20, 20, 0, 1_000);
        c.extend(&anchors);
        let chain = c.best_chain().unwrap();
        assert_eq!(chain.anchor_indices.len(), 20);
        // Score: k for the first anchor + min(k, 20) per extension, no gaps.
        let expected = 15.0 + 19.0 * 15.0;
        assert!((chain.score - expected).abs() < 1e-9, "{}", chain.score);
    }

    #[test]
    fn gap_reduces_score() {
        let p = ChainParams::for_k(15);
        let a = Anchor { qpos: 0, rpos: 0 };
        let aligned = Anchor {
            qpos: 100,
            rpos: 100,
        };
        let gapped = Anchor {
            qpos: 100,
            rpos: 160,
        };
        let s_aligned = p.step_score(a, aligned).unwrap();
        let s_gapped = p.step_score(a, gapped).unwrap();
        assert!(s_aligned > s_gapped);
        assert!((s_aligned - 15.0).abs() < 1e-9);
    }

    #[test]
    fn non_colinear_anchors_do_not_chain() {
        let p = ChainParams::for_k(15);
        let a = Anchor {
            qpos: 100,
            rpos: 100,
        };
        assert!(p
            .step_score(
                a,
                Anchor {
                    qpos: 50,
                    rpos: 200
                }
            )
            .is_none());
        assert!(p
            .step_score(
                a,
                Anchor {
                    qpos: 200,
                    rpos: 50
                }
            )
            .is_none());
        assert!(p
            .step_score(
                a,
                Anchor {
                    qpos: 100,
                    rpos: 200
                }
            )
            .is_none());
    }

    #[test]
    fn max_gap_is_enforced() {
        let p = ChainParams::for_k(15);
        let a = Anchor { qpos: 0, rpos: 0 };
        assert!(p
            .step_score(
                a,
                Anchor {
                    qpos: 10_000,
                    rpos: 10_000
                }
            )
            .is_none());
    }

    #[test]
    fn incremental_equals_batch() {
        // Feeding anchors chunk by chunk must give the same DP result as one
        // batch, since chunks arrive in qpos order.
        let anchors = colinear(30, 25, 0, 500);
        let mut whole = IncrementalChainer::new(ChainParams::for_k(15));
        whole.extend(&anchors);
        let mut chunked = IncrementalChainer::new(ChainParams::for_k(15));
        for part in anchors.chunks(7) {
            chunked.extend(part);
        }
        assert_eq!(whole.best_score(), chunked.best_score());
        assert_eq!(
            whole.best_chain().unwrap().anchor_indices,
            chunked.best_chain().unwrap().anchor_indices
        );
    }

    #[test]
    fn decoy_anchors_do_not_join_the_chain() {
        let mut c = IncrementalChainer::new(ChainParams::for_k(15));
        let mut anchors = colinear(10, 30, 0, 1_000);
        // Decoys at a far-away reference locus.
        anchors.push(Anchor {
            qpos: 100,
            rpos: 50_000,
        });
        anchors.push(Anchor {
            qpos: 130,
            rpos: 50_030,
        });
        c.extend(&anchors);
        let chain = c.best_chain().unwrap();
        assert_eq!(chain.anchor_indices.len(), 10);
        for &i in &chain.anchor_indices {
            assert!(c.anchors()[i].rpos < 2_000);
        }
    }

    #[test]
    fn best_score_outside_excludes_primary_locus() {
        let mut c = IncrementalChainer::new(ChainParams::for_k(15));
        c.extend(&colinear(10, 30, 0, 1_000)); // primary
        c.extend(&colinear(4, 30, 300, 50_000)); // secondary
        let primary = c.best_score();
        let secondary = c.best_score_outside(0..10_000);
        assert!(primary > secondary);
        assert!(secondary > 0.0);
        // The full range excludes everything, regardless of coordinate width.
        assert_eq!(c.best_score_outside(..), 0.0);
        // And a chain at a beyond-u32 locus is excludable like any other.
        let mut far = IncrementalChainer::new(ChainParams::for_k(15));
        far.extend(&colinear(10, 30, 0, 5_000_000_000));
        assert!(far.best_score() > 0.0);
        assert_eq!(far.best_score_outside(5_000_000_000..5_000_001_000), 0.0);
    }

    #[test]
    fn dp_evaluations_grow_with_anchors() {
        let mut c = IncrementalChainer::new(ChainParams::for_k(15));
        c.extend(&colinear(50, 20, 0, 0));
        let evals = c.dp_evaluations();
        assert!(evals > 0);
        // With lookback 64 and 50 anchors: sum_{i<50} i evaluations.
        assert_eq!(evals, (0..50).sum::<usize>());
    }

    #[test]
    fn chain_score_is_admissible() {
        // A chain's score never exceeds k per anchor (each step credits at
        // most k matched bases, minus non-negative gap costs).
        let mut c = IncrementalChainer::new(ChainParams::for_k(15));
        let mut anchors = colinear(25, 18, 0, 100);
        anchors.extend(colinear(25, 31, 450, 700));
        c.extend(&anchors);
        let chain = c.best_chain().unwrap();
        assert!(chain.score <= 15.0 * chain.anchor_indices.len() as f64 + 1e-9);
    }
}
