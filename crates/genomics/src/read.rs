//! Sequenced reads and read sets.

use crate::quality::{average_quality, Phred};
use crate::seq::DnaSeq;
use std::fmt;

/// Where a simulated read truly came from — ground truth the evaluation uses
/// to score mapping accuracy and early-rejection false negatives.
///
/// Real datasets do not carry this, but the paper's sensitivity analysis
/// (Section 6.3) needs an oracle: a rejection counts as a false negative only
/// if the discarded read *would* have passed quality control / mapped. The
/// simulator records the oracle here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadOrigin {
    /// Sampled from the reference at `start..start+len` on the given strand.
    Reference {
        /// Start offset in the reference genome.
        start: usize,
        /// Length of the sampled span (pre-error).
        len: usize,
        /// `true` if the read is the reverse complement of the span.
        reverse: bool,
    },
    /// Sampled from a contaminant genome — unmappable against the reference.
    /// The paper's E. coli dataset has ≈10 % of these (Section 2.3).
    Contaminant,
}

impl ReadOrigin {
    /// `true` if the read originates from the reference genome.
    pub fn is_reference(&self) -> bool {
        matches!(self, ReadOrigin::Reference { .. })
    }
}

/// A basecalled read: identifier, sequence, per-base qualities, and (for
/// simulated data) its ground-truth origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Read {
    /// Unique identifier within its [`ReadSet`].
    pub id: u32,
    /// The basecalled sequence.
    pub seq: DnaSeq,
    /// Per-base Phred qualities, same length as `seq`.
    pub quals: Vec<Phred>,
    /// Ground-truth origin (simulation only).
    pub origin: ReadOrigin,
}

impl Read {
    /// Creates a read, checking that sequence and quality lengths agree.
    ///
    /// # Panics
    ///
    /// Panics if `seq.len() != quals.len()`.
    pub fn new(id: u32, seq: DnaSeq, quals: Vec<Phred>, origin: ReadOrigin) -> Read {
        assert_eq!(
            seq.len(),
            quals.len(),
            "sequence and quality lengths must match"
        );
        Read {
            id,
            seq,
            quals,
            origin,
        }
    }

    /// Read length in bases.
    pub fn len(&self) -> usize {
        self.seq.len()
    }

    /// `true` if the read has no bases.
    pub fn is_empty(&self) -> bool {
        self.seq.is_empty()
    }

    /// Whole-read average quality score (the paper's Equation 1 `AQS`).
    pub fn average_quality(&self) -> f64 {
        average_quality(&self.quals)
    }
}

impl fmt::Display for Read {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "read#{} ({} bp, AQS {:.2})",
            self.id,
            self.len(),
            self.average_quality()
        )
    }
}

/// An ordered collection of reads, as delivered by a sequencing run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReadSet {
    reads: Vec<Read>,
}

impl ReadSet {
    /// Creates an empty read set.
    pub fn new() -> ReadSet {
        ReadSet::default()
    }

    /// Appends a read.
    pub fn push(&mut self, read: Read) {
        self.reads.push(read);
    }

    /// Number of reads.
    pub fn len(&self) -> usize {
        self.reads.len()
    }

    /// `true` if there are no reads.
    pub fn is_empty(&self) -> bool {
        self.reads.is_empty()
    }

    /// Iterates over the reads.
    pub fn iter(&self) -> std::slice::Iter<'_, Read> {
        self.reads.iter()
    }

    /// Total bases across all reads.
    pub fn total_bases(&self) -> usize {
        self.reads.iter().map(Read::len).sum()
    }
}

impl FromIterator<Read> for ReadSet {
    fn from_iter<I: IntoIterator<Item = Read>>(iter: I) -> ReadSet {
        ReadSet {
            reads: iter.into_iter().collect(),
        }
    }
}

impl Extend<Read> for ReadSet {
    fn extend<I: IntoIterator<Item = Read>>(&mut self, iter: I) {
        self.reads.extend(iter);
    }
}

impl<'a> IntoIterator for &'a ReadSet {
    type Item = &'a Read;
    type IntoIter = std::slice::Iter<'a, Read>;

    fn into_iter(self) -> Self::IntoIter {
        self.reads.iter()
    }
}

impl IntoIterator for ReadSet {
    type Item = Read;
    type IntoIter = std::vec::IntoIter<Read>;

    fn into_iter(self) -> Self::IntoIter {
        self.reads.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk_read(id: u32, seq: &str, q: f32) -> Read {
        let seq: DnaSeq = seq.parse().unwrap();
        let quals = vec![Phred(q); seq.len()];
        Read::new(
            id,
            seq,
            quals,
            ReadOrigin::Reference {
                start: 0,
                len: 4,
                reverse: false,
            },
        )
    }

    #[test]
    fn read_average_quality() {
        let read = mk_read(0, "ACGT", 9.0);
        assert_eq!(read.average_quality(), 9.0);
        assert_eq!(read.len(), 4);
    }

    #[test]
    #[should_panic(expected = "lengths must match")]
    fn mismatched_quals_panic() {
        let seq: DnaSeq = "ACGT".parse().unwrap();
        let _ = Read::new(0, seq, vec![Phred(1.0)], ReadOrigin::Contaminant);
    }

    #[test]
    fn origin_classification() {
        assert!(ReadOrigin::Reference {
            start: 0,
            len: 1,
            reverse: false
        }
        .is_reference());
        assert!(!ReadOrigin::Contaminant.is_reference());
    }

    #[test]
    fn read_set_accumulates() {
        let mut set = ReadSet::new();
        assert!(set.is_empty());
        set.push(mk_read(0, "ACGT", 8.0));
        set.push(mk_read(1, "ACGTACGT", 8.0));
        assert_eq!(set.len(), 2);
        assert_eq!(set.total_bases(), 12);
        let ids: Vec<u32> = set.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![0, 1]);
    }

    #[test]
    fn read_set_from_iterator() {
        let set: ReadSet = (0..3).map(|i| mk_read(i, "ACGT", 5.0)).collect();
        assert_eq!(set.len(), 3);
        let owned: Vec<Read> = set.clone().into_iter().collect();
        assert_eq!(owned.len(), 3);
        let borrowed: Vec<&Read> = (&set).into_iter().collect();
        assert_eq!(borrowed.len(), 3);
    }

    #[test]
    fn display_mentions_id_and_length() {
        let s = mk_read(7, "ACGT", 9.0).to_string();
        assert!(s.contains("read#7"));
        assert!(s.contains("4 bp"));
    }
}
