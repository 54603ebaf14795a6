//! Synthetic reference genomes.
//!
//! The paper evaluates on the E. coli K-12 reference and the human GRCh38
//! reference. Neither ships with this reproduction, so [`GenomeBuilder`]
//! produces deterministic synthetic references with the two properties that
//! matter to the mapping pipeline:
//!
//! * **Repeats.** Real genomes contain repeated segments that produce
//!   multi-mapping seeds; the chaining step exists largely to disambiguate
//!   them. The builder copies segments of the already-generated prefix to
//!   controlled positions.
//! * **GC bias.** Base composition is not uniform; the builder supports a
//!   configurable GC fraction so minimizer densities resemble real data.

use crate::base::Base;
use crate::rng::Rng;
use crate::rng::{self, SeededRng};
use crate::seq::DnaSeq;
use std::fmt;

/// A reference genome: a named sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct Genome {
    name: String,
    seq: DnaSeq,
}

impl Genome {
    /// Wraps an existing sequence as a genome.
    pub fn from_seq(name: impl Into<String>, seq: DnaSeq) -> Genome {
        Genome {
            name: name.into(),
            seq,
        }
    }

    /// The genome's name (e.g. `"synthetic-ecoli"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The full sequence.
    pub fn sequence(&self) -> &DnaSeq {
        &self.seq
    }

    /// Genome length in bases.
    pub fn len(&self) -> usize {
        self.seq.len()
    }

    /// `true` if the genome is empty.
    pub fn is_empty(&self) -> bool {
        self.seq.is_empty()
    }
}

impl fmt::Display for Genome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({} bp)", self.name, self.len())
    }
}

/// Builder for deterministic synthetic genomes.
///
/// # Example
///
/// ```
/// use genpip_genomics::{Base, GenomeBuilder};
///
/// let g = GenomeBuilder::new(50_000)
///     .seed(42)
///     .gc_fraction(0.51)
///     .repeat_fraction(0.10)
///     .name("demo")
///     .build();
/// assert_eq!(g.len(), 50_000);
/// let gc = g.sequence().iter().filter(|b| matches!(b, Base::G | Base::C)).count() as f64 / g.len() as f64;
/// assert!((gc - 0.51).abs() < 0.05);
/// ```
#[derive(Debug, Clone)]
pub struct GenomeBuilder {
    length: usize,
    seed: u64,
    gc_fraction: f64,
    repeat_fraction: f64,
    repeat_len: (usize, usize),
    name: String,
}

impl GenomeBuilder {
    /// Starts a builder for a genome of `length` bases.
    pub fn new(length: usize) -> GenomeBuilder {
        GenomeBuilder {
            length,
            seed: 0,
            gc_fraction: 0.5,
            repeat_fraction: 0.08,
            repeat_len: (300, 3000),
            name: "synthetic".to_string(),
        }
    }

    /// Sets the RNG seed (default 0).
    pub fn seed(mut self, seed: u64) -> GenomeBuilder {
        self.seed = seed;
        self
    }

    /// Sets the target GC fraction in `[0, 1]` (default 0.5).
    ///
    /// # Panics
    ///
    /// Panics if outside `[0, 1]`.
    pub fn gc_fraction(mut self, gc: f64) -> GenomeBuilder {
        assert!((0.0..=1.0).contains(&gc), "gc fraction must be in [0, 1]");
        self.gc_fraction = gc;
        self
    }

    /// Sets the fraction of the genome occupied by copied repeats
    /// (default 0.08). Higher values make seeds more ambiguous, stressing
    /// chaining — the human profile uses a larger value than E. coli.
    ///
    /// # Panics
    ///
    /// Panics if outside `[0, 0.9]`.
    pub fn repeat_fraction(mut self, f: f64) -> GenomeBuilder {
        assert!(
            (0.0..=0.9).contains(&f),
            "repeat fraction must be in [0, 0.9]"
        );
        self.repeat_fraction = f;
        self
    }

    /// Sets the genome name (default `"synthetic"`).
    pub fn name(mut self, name: impl Into<String>) -> GenomeBuilder {
        self.name = name.into();
        self
    }

    /// Generates the genome.
    pub fn build(&self) -> Genome {
        let mut rng = rng::derive(self.seed, 0x67656e6f6d65); // "genome"
        let mut seq = DnaSeq::with_capacity(self.length);

        // Per-base probabilities honouring the GC target.
        let p_gc = self.gc_fraction / 2.0;
        let p_at = (1.0 - self.gc_fraction) / 2.0;
        let weights = [p_at, p_gc, p_gc, p_at]; // A, C, G, T

        while seq.len() < self.length {
            let remaining = self.length - seq.len();
            let insert_repeat = seq.len() > self.repeat_len.0 * 2
                && remaining > self.repeat_len.0
                && rng.random::<f64>() < self.repeat_probability();
            if insert_repeat {
                self.copy_repeat(&mut rng, &mut seq, remaining);
            } else {
                seq.push(Base::from_code(
                    rng::weighted_index(&mut rng, &weights) as u8
                ));
            }
        }
        Genome {
            name: self.name.clone(),
            seq,
        }
    }

    /// Probability per emitted base of starting a repeat copy, chosen so the
    /// expected repeat coverage matches `repeat_fraction`.
    fn repeat_probability(&self) -> f64 {
        let mean_len = (self.repeat_len.0 + self.repeat_len.1) as f64 / 2.0;
        (self.repeat_fraction / (1.0 - self.repeat_fraction) / mean_len).min(1.0)
    }

    fn copy_repeat(&self, rng: &mut SeededRng, seq: &mut DnaSeq, remaining: usize) {
        let max_len = self.repeat_len.1.min(remaining).min(seq.len());
        let len = rng.random_range(self.repeat_len.0.min(max_len)..=max_len);
        let src = rng.random_range(0..=seq.len() - len);
        let copy = seq.subseq(src, len);
        // Occasionally insert the reverse complement, as real repeats appear
        // on both strands.
        if rng.random::<f64>() < 0.3 {
            seq.extend_from_seq(&copy.reverse_complement());
        } else {
            seq.extend_from_seq(&copy);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn build_is_deterministic() {
        let a = GenomeBuilder::new(5_000).seed(9).build();
        let b = GenomeBuilder::new(5_000).seed(9).build();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = GenomeBuilder::new(5_000).seed(1).build();
        let b = GenomeBuilder::new(5_000).seed(2).build();
        assert_ne!(a.sequence(), b.sequence());
    }

    #[test]
    fn length_is_exact() {
        for len in [0, 1, 999, 10_000] {
            assert_eq!(GenomeBuilder::new(len).build().len(), len);
        }
    }

    #[test]
    fn gc_fraction_is_honoured() {
        for target in [0.3, 0.5, 0.65] {
            let g = GenomeBuilder::new(40_000)
                .seed(3)
                .gc_fraction(target)
                .repeat_fraction(0.0)
                .build();
            let gc = g
                .sequence()
                .iter()
                .filter(|b| matches!(b, Base::G | Base::C))
                .count() as f64
                / g.len() as f64;
            assert!((gc - target).abs() < 0.02, "target {target}, got {gc}");
        }
    }

    #[test]
    fn repeats_create_duplicate_kmers() {
        // With repeats on, long k-mers should recur far more often than in a
        // repeat-free genome of the same size.
        fn max_kmer_multiplicity(g: &Genome) -> usize {
            let mut counts: HashMap<u64, usize> = HashMap::new();
            for (_, kmer) in crate::kmer::KmerIter::new(g.sequence(), 21) {
                *counts.entry(kmer.bits()).or_default() += 1;
            }
            counts.into_values().max().unwrap_or(0)
        }
        let with = GenomeBuilder::new(30_000)
            .seed(5)
            .repeat_fraction(0.3)
            .build();
        let without = GenomeBuilder::new(30_000)
            .seed(5)
            .repeat_fraction(0.0)
            .build();
        assert!(max_kmer_multiplicity(&with) >= 2);
        assert_eq!(max_kmer_multiplicity(&without), 1);
    }

    #[test]
    fn display_mentions_name_and_length() {
        let g = GenomeBuilder::new(100).name("eco").build();
        assert_eq!(g.to_string(), "eco (100 bp)");
        assert_eq!(g.name(), "eco");
    }

    #[test]
    #[should_panic(expected = "gc fraction")]
    fn invalid_gc_rejected() {
        let _ = GenomeBuilder::new(10).gc_fraction(1.5);
    }
}
