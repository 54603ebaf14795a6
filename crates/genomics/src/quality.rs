//! Phred quality scores and average-quality-score (AQS) arithmetic.
//!
//! The paper's read-quality-control step (Section 2.1) computes the average
//! quality score of a read and discards reads below a threshold (commonly
//! Q7). GenPIP's chunk-based pipeline computes the same average
//! *incrementally*: the sum of quality scores of each chunk (`SQS`) is
//! produced as soon as the chunk is basecalled and merged into the read-level
//! average at the end (Equations 1–3). [`AqsAccumulator`] implements exactly
//! that decomposition and is tested to be bit-identical to the whole-read
//! computation.

use std::fmt;

/// A Phred-scaled per-base quality score.
///
/// `Q = -10·log10(p_error)`; Q7 ≈ 20 % error probability is the paper's
/// low-quality threshold. The paper works with plain Phred units, so the
/// score is an `f32` to keep chunk averages exact.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Phred(pub f32);

impl Phred {
    /// FASTQ Sanger encoding (`!` = Q0), saturating at `~` (Q93): the score
    /// rounded half away from zero, negative and NaN scores as Q0.
    pub fn to_fastq_char(self) -> char {
        // Clamping first and rounding after is the same map. An f32 below
        // a half-integer is at least 2^-25 below it and f64 spacing under 94
        // is at most 2^-46, so `x + 0.5` in f64 never rounds up to the next
        // integer and truncating it rounds half away from zero — without
        // the `roundf` call `f32::round` costs on baseline x86-64.
        let q = (f64::from(self.0.clamp(0.0, 93.0)) + 0.5) as u8;
        (b'!' + q) as char
    }

    /// Parses a FASTQ Sanger-encoded quality character.
    ///
    /// Returns `None` if the character is outside the `!..=~` range.
    pub fn from_fastq_char(c: char) -> Option<Phred> {
        let b = c as u32;
        if (0x21..=0x7E).contains(&b) {
            Some(Phred((b - 0x21) as f32))
        } else {
            None
        }
    }
}

impl fmt::Display for Phred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Q{:.1}", self.0)
    }
}

impl From<f32> for Phred {
    fn from(q: f32) -> Phred {
        Phred(q)
    }
}

/// Average quality score of a slice of per-base scores; 0 for an empty slice.
///
/// This is the whole-read `AQS` of the paper's Equation 1.
pub fn average_quality(quals: &[Phred]) -> f64 {
    if quals.is_empty() {
        return 0.0;
    }
    sum_quality(quals) / quals.len() as f64
}

/// Sum of quality scores of a slice — the per-chunk `SQS` of Equation 2.
pub fn sum_quality(quals: &[Phred]) -> f64 {
    quals.iter().map(|q| q.0 as f64).sum()
}

/// Incremental average-quality accumulator implementing the paper's
/// Equations 2–3: per-chunk sums (`SQS`) are merged as chunks arrive and the
/// read-level average (`AQS`) is available at any point.
///
/// GenPIP's controller keeps one of these per in-flight read (the "AQS
/// calculator unit" of Section 4.2).
///
/// # Example
///
/// ```
/// use genpip_genomics::quality::{average_quality, sum_quality, AqsAccumulator, Phred};
///
/// let chunk1 = vec![Phred(8.0), Phred(10.0)];
/// let chunk2 = vec![Phred(12.0)];
/// let mut acc = AqsAccumulator::new();
/// acc.add_chunk_sum(sum_quality(&chunk1), chunk1.len());
/// acc.add_chunk_sum(sum_quality(&chunk2), chunk2.len());
/// let whole: Vec<Phred> = chunk1.into_iter().chain(chunk2).collect();
/// assert_eq!(acc.average(), average_quality(&whole));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AqsAccumulator {
    sum: f64,
    count: usize,
}

impl AqsAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> AqsAccumulator {
        AqsAccumulator::default()
    }

    /// Merges one chunk's quality sum `sqs` over `bases` bases (Equation
    /// 3's running sum), as the PIM-CQS unit delivers it: the hardware
    /// computes SQS in-memory and ships only the scalar.
    pub fn add_chunk_sum(&mut self, sqs: f64, bases: usize) {
        self.sum += sqs;
        self.count += bases;
    }

    /// Current average quality (`AQS`); 0 if nothing was added yet.
    pub fn average(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fastq_encoding_round_trip() {
        for q in 0..=60 {
            let phred = Phred(q as f32);
            let c = phred.to_fastq_char();
            assert_eq!(Phred::from_fastq_char(c).unwrap().0, q as f32);
        }
        assert_eq!(Phred(0.0).to_fastq_char(), '!');
        assert!(Phred::from_fastq_char(' ').is_none());
    }

    #[test]
    fn fastq_encoding_saturates() {
        assert_eq!(Phred(200.0).to_fastq_char(), '~');
        assert_eq!(Phred(-5.0).to_fastq_char(), '!');
    }

    #[test]
    fn fastq_encoding_equals_round_then_clamp() {
        // The encoding as first written, the oracle for the one that ships.
        let oracle = |q: f32| (b'!' + q.round().clamp(0.0, 93.0) as u8) as char;
        let mut values = vec![
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MAX,
            f32::MIN,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::from_bits(1),
        ];
        // A few ulps either side of every half-integer the rounding and the
        // clamp can turn on…
        for k in -4..=200 {
            let half = (k as f32 * 0.5).to_bits();
            values.extend((0..=6).map(|d| f32::from_bits((half + d).wrapping_sub(3))));
        }
        // …and a sweep over every exponent of both signs.
        values.extend((0..1u32 << 20).map(|i| f32::from_bits(i << 12)));
        for q in values {
            assert_eq!(
                Phred(q).to_fastq_char(),
                oracle(q),
                "{q:?} ({:#010x})",
                q.to_bits()
            );
        }
    }

    #[test]
    fn average_of_empty_is_zero() {
        assert_eq!(average_quality(&[]), 0.0);
        assert_eq!(AqsAccumulator::new().average(), 0.0);
    }

    #[test]
    fn chunked_average_equals_whole_read_average() {
        // Equations 1 vs 2+3 from the paper.
        let quals: Vec<Phred> = (0..100).map(|i| Phred(5.0 + (i % 13) as f32)).collect();
        let whole = average_quality(&quals);
        for chunk_size in [1, 7, 25, 100, 300] {
            let mut acc = AqsAccumulator::new();
            for chunk in quals.chunks(chunk_size) {
                acc.add_chunk_sum(sum_quality(chunk), chunk.len());
            }
            assert!(
                (acc.average() - whole).abs() < 1e-12,
                "chunk size {chunk_size}"
            );
        }
    }

    #[test]
    fn display_shows_value() {
        assert_eq!(Phred(7.25).to_string(), "Q7.2");
    }
}
