//! The MVM emission kernel.
//!
//! For every signal sample `x`, the decoder needs the emission log-likelihood
//! of each k-mer state. Writing the Gaussian log-density as a dot product
//! against the feature vector `[x², x, 1]` turns the whole per-sample
//! computation into one matrix–vector multiplication with a `states × 3`
//! weight matrix — the exact operation the paper's NVM crossbars perform
//! in-situ (Section 2.2, Figure 2). This module computes those MVMs in
//! `f32`; `genpip-pim` prices them per operation and models no crossbar.

use genpip_signal::PoreModel;

/// Emission weight matrix: row `s` holds the Gaussian log-density
/// coefficients for state `s`.
#[derive(Debug, Clone, PartialEq)]
pub struct EmissionModel {
    /// Flattened `states × 3` weight matrix, row-major.
    weights: Vec<f32>,
    /// The same weights column-major (`[w0 × states | w1 × states |
    /// w2 × states]`), which is how the block kernel walks them.
    columns: Vec<f32>,
    states: usize,
    assumed_std: f32,
}

impl EmissionModel {
    /// Number of matrix columns (the feature vector `[x², x, 1]` length).
    pub const FEATURES: usize = 3;

    /// Builds the emission matrix from a pore model.
    ///
    /// The decoder assumes the model's nominal event standard deviation; a
    /// read whose true noise is higher produces systematically lower
    /// likelihoods (and therefore lower quality scores), which is exactly the
    /// behaviour read quality control exploits.
    pub fn from_pore_model(model: &PoreModel) -> EmissionModel {
        let states = model.states();
        let sigma = model.event_std();
        let inv2s2 = 1.0 / (2.0 * sigma * sigma);
        let mut weights = Vec::with_capacity(states * Self::FEATURES);
        for s in 0..states {
            let mu = model.level_bits(s as u64);
            weights.push(-inv2s2); // coefficient of x²
            weights.push(2.0 * mu * inv2s2); // coefficient of x
            weights.push(-mu * mu * inv2s2); // constant term
        }
        let columns = (0..Self::FEATURES)
            .flat_map(|f| weights.iter().skip(f).step_by(Self::FEATURES).copied())
            .collect();
        EmissionModel {
            weights,
            columns,
            states,
            assumed_std: sigma,
        }
    }

    /// Number of states (matrix rows).
    #[inline]
    pub fn states(&self) -> usize {
        self.states
    }

    /// The noise level the decoder assumes (pA).
    #[inline]
    pub fn assumed_std(&self) -> f32 {
        self.assumed_std
    }

    /// The feature vector for a sample.
    #[inline]
    pub fn features(x: f32) -> [f32; 3] {
        [x * x, x, 1.0]
    }

    /// Computes emission log-likelihoods (up to a state-independent constant)
    /// for all states into `out` — one MVM.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.states()`.
    pub fn log_likelihoods(&self, x: f32, out: &mut [f32]) {
        assert_eq!(out.len(), self.states, "output buffer size mismatch");
        let f = Self::features(x);
        for (s, o) in out.iter_mut().enumerate() {
            let row = &self.weights[s * Self::FEATURES..(s + 1) * Self::FEATURES];
            *o = row[0] * f[0] + row[1] * f[1] + row[2] * f[2];
        }
    }

    /// Number of samples [`EmissionModel::log_likelihoods_block`] handles
    /// per call. The block call is kept for the kernel bench and
    /// `benchmarks/`; no decode calls it (the decoder reads the quantised
    /// table of `FixedPointModel`).
    pub const BLOCK: usize = 8;

    /// Computes emission log-likelihoods for up to [`EmissionModel::BLOCK`]
    /// samples: `out[i * states + s]` receives the log-likelihood of state
    /// `s` for sample `xs[i]`.
    ///
    /// The loop is sample-outer, state-inner over structure-of-arrays weight
    /// columns (`w0[s]`, `w1[s]`, `w2[s]` each contiguous, built once in
    /// [`EmissionModel::from_pore_model`]), so both the weight reads and the
    /// output writes are stride-1 and the state loop compiles to packed
    /// multiplies and adds. Each value is still
    /// `w0·x² + w1·x + w2·1` evaluated left to right in `f32` — the operation
    /// order of [`EmissionModel::log_likelihoods`] — so the two are
    /// bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if `xs.len() > BLOCK` or `out.len() != xs.len() * states`.
    pub fn log_likelihoods_block(&self, xs: &[f32], out: &mut [f32]) {
        assert!(xs.len() <= Self::BLOCK, "block too large");
        assert_eq!(
            out.len(),
            xs.len() * self.states,
            "output buffer size mismatch"
        );
        #[cfg(target_arch = "x86_64")]
        {
            #[target_feature(enable = "avx2")]
            fn block_avx2(model: &EmissionModel, xs: &[f32], out: &mut [f32]) {
                model.block(xs, out)
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: the host supports AVX2, checked on the line above.
                return unsafe { block_avx2(self, xs, out) };
            }
        }
        self.block(xs, out)
    }

    /// Body of [`EmissionModel::log_likelihoods_block`], sizes already
    /// checked.
    #[inline(always)]
    fn block(&self, xs: &[f32], out: &mut [f32]) {
        let n = self.states;
        let (w0, rest) = self.columns.split_at(n);
        let (w1, w2) = rest.split_at(n);
        for (&x, row) in xs.iter().zip(out.chunks_exact_mut(n)) {
            let f = Self::features(x);
            for (((o, w0), w1), w2) in row.iter_mut().zip(w0).zip(w1).zip(w2) {
                *o = w0 * f[0] + w1 * f[1] + w2 * f[2];
            }
        }
    }

    /// Emission log-likelihood of a single state (reference implementation
    /// for tests).
    pub fn log_likelihood(&self, x: f32, state: usize) -> f32 {
        assert!(state < self.states, "state out of range");
        let f = Self::features(x);
        let row = &self.weights[state * Self::FEATURES..(state + 1) * Self::FEATURES];
        row[0] * f[0] + row[1] * f[1] + row[2] * f[2]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> (PoreModel, EmissionModel) {
        let pore = PoreModel::synthetic(3, 7);
        let em = EmissionModel::from_pore_model(&pore);
        (pore, em)
    }

    #[test]
    fn dimensions_match_pore_model() {
        let (pore, em) = model();
        assert_eq!(em.states(), pore.states());
        assert_eq!(em.weights.len(), pore.states() * 3);
    }

    #[test]
    fn mvm_equals_gaussian_log_density_up_to_constant() {
        let (pore, em) = model();
        let sigma = pore.event_std();
        let x = 87.3f32;
        let mut out = vec![0.0f32; em.states()];
        em.log_likelihoods(x, &mut out);
        for s in 0..em.states() {
            let mu = pore.level_bits(s as u64);
            let expected = -((x - mu) * (x - mu)) / (2.0 * sigma * sigma);
            assert!(
                (out[s] - expected).abs() < 1e-2,
                "state {s}: {} vs {expected}",
                out[s]
            );
        }
    }

    #[test]
    fn correct_state_has_highest_likelihood_at_its_level() {
        let (pore, em) = model();
        let mut out = vec![0.0f32; em.states()];
        for s in [0usize, 17, 63] {
            let x = pore.level_bits(s as u64);
            em.log_likelihoods(x, &mut out);
            let best = out
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap()
                .0;
            assert_eq!(best, s);
        }
    }

    #[test]
    fn single_state_matches_batch() {
        let (_, em) = model();
        let mut out = vec![0.0f32; em.states()];
        em.log_likelihoods(100.0, &mut out);
        for s in 0..em.states() {
            assert_eq!(em.log_likelihood(100.0, s), out[s]);
        }
    }

    #[test]
    fn block_matches_single_sample_calls() {
        let (_, em) = model();
        let xs = [80.0f32, 95.5, 101.25, 60.0, 120.0];
        let mut block = vec![0.0f32; xs.len() * em.states()];
        em.log_likelihoods_block(&xs, &mut block);
        let mut single = vec![0.0f32; em.states()];
        for (i, &x) in xs.iter().enumerate() {
            em.log_likelihoods(x, &mut single);
            assert_eq!(
                &block[i * em.states()..(i + 1) * em.states()],
                &single[..],
                "sample {i}"
            );
        }
    }

    #[test]
    fn block_equals_single_sample_calls_at_every_block_length() {
        for k in 1..=5usize {
            let pore = PoreModel::synthetic(k, k as u64);
            let em = EmissionModel::from_pore_model(&pore);
            let n_states = em.states();
            let mut xs: Vec<f32> = (0..EmissionModel::BLOCK as u64)
                .map(|i| pore.level_bits((i * 37 + k as u64) % n_states as u64) + 0.37 * i as f32)
                .collect();
            xs[0] = 0.0;
            xs[1] = -37.25;
            let mut single = vec![0.0f32; n_states];
            for len in 1..=EmissionModel::BLOCK {
                let mut block = vec![f32::NAN; len * n_states];
                em.log_likelihoods_block(&xs[..len], &mut block);
                for (i, row) in block.chunks_exact(n_states).enumerate() {
                    em.log_likelihoods(xs[i], &mut single);
                    let same = row
                        .iter()
                        .zip(&single)
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                    assert!(same, "k {k}, block length {len}, sample {i}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "block too large")]
    fn oversized_block_panics() {
        let (_, em) = model();
        let xs = [0.0f32; EmissionModel::BLOCK + 1];
        let mut out = vec![0.0f32; xs.len() * em.states()];
        em.log_likelihoods_block(&xs, &mut out);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn wrong_buffer_size_panics() {
        let (_, em) = model();
        let mut out = vec![0.0f32; 3];
        em.log_likelihoods(100.0, &mut out);
    }
}
