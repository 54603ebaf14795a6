//! Fixed-length k-mers packed into a `u64`.

use crate::base::Base;
use crate::seq::DnaSeq;
use std::fmt;

/// A k-mer of length ≤ 32 packed two bits per base into a `u64`.
///
/// The earliest base occupies the *most significant* position so that the
/// integer ordering of k-mers equals their lexicographic ordering — the
/// property `genpip-mapping`'s sketching relies on when it picks the
/// smaller of a k-mer and its reverse complement.
///
/// # Example
///
/// ```
/// use genpip_genomics::{Base, DnaSeq, Kmer};
///
/// let seq: DnaSeq = "TACG".parse().unwrap();
/// let k = Kmer::from_seq(&seq, 1, 3);
/// assert_eq!(k.to_string(), "ACG");
/// assert_eq!(k.roll(Base::T).to_string(), "CGT");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Kmer {
    bits: u64,
    k: u8,
}

impl Kmer {
    /// Maximum supported k.
    pub const MAX_K: usize = 32;

    /// Builds a k-mer from the first `k` bases at `offset` in `seq`.
    ///
    /// # Panics
    ///
    /// Panics if the window `[offset, offset + k)` is out of bounds or `k` is
    /// invalid.
    pub fn from_seq(seq: &DnaSeq, offset: usize, k: usize) -> Kmer {
        assert!(
            (1..=Kmer::MAX_K).contains(&k),
            "k must be in 1..={}",
            Kmer::MAX_K
        );
        assert!(offset + k <= seq.len(), "k-mer window out of bounds");
        let mut bits = 0u64;
        for i in 0..k {
            bits = (bits << 2) | seq.get(offset + i).code() as u64;
        }
        Kmer { bits, k: k as u8 }
    }

    /// The k-mer length.
    #[inline]
    pub fn k(&self) -> usize {
        self.k as usize
    }

    /// The packed 2-bit representation (earliest base most significant).
    #[inline]
    pub fn bits(&self) -> u64 {
        self.bits
    }

    /// The base at position `i` (0 = earliest).
    ///
    /// # Panics
    ///
    /// Panics if `i >= k`.
    #[inline]
    pub fn base(&self, i: usize) -> Base {
        assert!(i < self.k(), "base index {i} out of bounds (k={})", self.k);
        let shift = 2 * (self.k() - 1 - i);
        Base::from_code((self.bits >> shift) as u8)
    }

    /// Slides the window one base forward: drops the earliest base and
    /// appends `next`. The workhorse of streaming k-mer extraction.
    #[inline]
    pub fn roll(&self, next: Base) -> Kmer {
        Kmer {
            bits: ((self.bits << 2) | next.code() as u64) & mask(self.k()),
            k: self.k,
        }
    }

    /// The reverse complement of this k-mer.
    pub fn reverse_complement(&self) -> Kmer {
        let mut bits = 0u64;
        for i in 0..self.k() {
            bits = (bits << 2) | self.base(self.k() - 1 - i).complement().code() as u64;
        }
        Kmer { bits, k: self.k }
    }
}

#[inline]
const fn mask(k: usize) -> u64 {
    if k >= 32 {
        u64::MAX
    } else {
        (1u64 << (2 * k)) - 1
    }
}

impl fmt::Display for Kmer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.k() {
            write!(f, "{}", self.base(i))?;
        }
        Ok(())
    }
}

/// Streaming iterator over all k-mers of a sequence, created by
/// [`KmerIter::new`]. Yields `(offset, kmer)` pairs.
#[derive(Debug, Clone)]
pub struct KmerIter<'a> {
    seq: &'a DnaSeq,
    k: usize,
    offset: usize,
    current: Option<Kmer>,
}

impl<'a> KmerIter<'a> {
    /// Creates an iterator over the k-mers of `seq`. Yields nothing if the
    /// sequence is shorter than `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is 0 or exceeds [`Kmer::MAX_K`].
    pub fn new(seq: &'a DnaSeq, k: usize) -> KmerIter<'a> {
        assert!(
            (1..=Kmer::MAX_K).contains(&k),
            "k must be in 1..={}",
            Kmer::MAX_K
        );
        KmerIter {
            seq,
            k,
            offset: 0,
            current: None,
        }
    }
}

impl Iterator for KmerIter<'_> {
    type Item = (usize, Kmer);

    fn next(&mut self) -> Option<(usize, Kmer)> {
        if self.offset + self.k > self.seq.len() {
            return None;
        }
        let kmer = match self.current {
            None => Kmer::from_seq(self.seq, 0, self.k),
            Some(prev) => prev.roll(self.seq.get(self.offset + self.k - 1)),
        };
        let off = self.offset;
        self.current = Some(kmer);
        self.offset += 1;
        Some((off, kmer))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = (self.seq.len() + 1).saturating_sub(self.offset + self.k);
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for KmerIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(s: &str) -> DnaSeq {
        s.parse().unwrap()
    }

    #[test]
    fn from_bases_and_display() {
        let k = Kmer::from_seq(&seq("CGATC"), 1, 3);
        assert_eq!(k.to_string(), "GAT");
        assert_eq!(k.k(), 3);
    }

    #[test]
    fn bit_layout_is_lexicographic() {
        let a = Kmer::from_seq(&seq("AAC"), 0, 3);
        let b = Kmer::from_seq(&seq("ACA"), 0, 3);
        assert!(a < b, "integer order must match lexicographic order");
    }

    #[test]
    fn base_accessor() {
        let k = Kmer::from_seq(&seq("ACGT"), 0, 4);
        assert_eq!(k.base(0), Base::A);
        assert_eq!(k.base(3), Base::T);
    }

    #[test]
    fn roll_slides_window() {
        let s = seq("ACGTAC");
        let mut k = Kmer::from_seq(&s, 0, 3);
        for i in 1..=3 {
            k = k.roll(s.get(i + 2));
            assert_eq!(k, Kmer::from_seq(&s, i, 3));
        }
    }

    #[test]
    fn reverse_complement_known() {
        let k = Kmer::from_seq(&seq("AAC"), 0, 3);
        assert_eq!(k.reverse_complement().to_string(), "GTT");
    }

    #[test]
    fn kmer_iter_covers_all_offsets() {
        let s = seq("ACGTACG");
        let kmers: Vec<(usize, Kmer)> = KmerIter::new(&s, 3).collect();
        assert_eq!(kmers.len(), 5);
        for (off, k) in kmers {
            assert_eq!(k, Kmer::from_seq(&s, off, 3));
        }
    }

    #[test]
    fn kmer_iter_short_sequence_is_empty() {
        let s = seq("AC");
        assert_eq!(KmerIter::new(&s, 3).count(), 0);
    }

    #[test]
    fn max_k_supported() {
        let s: DnaSeq = "ACGT".repeat(8).parse().unwrap();
        let k = Kmer::from_seq(&s, 0, 32);
        assert_eq!(k.to_string(), "ACGT".repeat(8));
        assert_eq!(k.reverse_complement().reverse_complement(), k);
    }
}
