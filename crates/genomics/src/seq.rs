//! 2-bit-packed DNA sequences.

use crate::base::{Base, ParseBaseError};
use std::fmt;
use std::str::FromStr;

/// A DNA sequence stored with four bases per byte.
///
/// Base `i` occupies bits `2(i % 4)` and up of byte `i / 4`. **The bits of
/// the last byte past the last base are always zero**: the derived
/// `PartialEq` and `Hash` compare the bytes, and [`DnaSeq::word_at`] and
/// [`DnaSeq::extend_from_seq`] read them as `A`s or shift them into place.
/// Every constructor keeps it — [`DnaSeq::from_packed`] by masking them.
///
/// The packed layout matters for this reproduction beyond memory footprint:
/// GenPIP's data-movement accounting (Section 2.3 of the paper) charges
/// `len.div_ceil(4)` bytes for a read's bases when basecalled output travels
/// between the basecalling and read-mapping machines
/// (`ReadRun::called_bytes` in `genpip-core`). [`DnaSeq::packed_bytes`] is
/// how the tests hold the type to that figure.
///
/// # Example
///
/// ```
/// use genpip_genomics::{Base, DnaSeq};
///
/// let s: DnaSeq = "ACGTAC".parse()?;
/// assert_eq!(s.len(), 6);
/// assert_eq!(s.get(1), Base::C);
/// assert_eq!(s.reverse_complement().to_string(), "GTACGT");
/// # Ok::<(), genpip_genomics::base::ParseBaseError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct DnaSeq {
    packed: Vec<u8>,
    len: usize,
}

impl DnaSeq {
    /// Creates an empty sequence.
    pub fn new() -> DnaSeq {
        DnaSeq::default()
    }

    /// Creates an empty sequence with capacity for `n` bases.
    pub fn with_capacity(n: usize) -> DnaSeq {
        DnaSeq {
            packed: Vec::with_capacity(n.div_ceil(4)),
            len: 0,
        }
    }

    /// The sequence of the bases whose 2-bit codes are `codes`, in order
    /// (only the low two bits of each byte count, as in
    /// [`Base::from_code`]), packed four to a byte at once.
    pub fn from_codes(codes: &[u8]) -> DnaSeq {
        let packed = codes
            .chunks(4)
            .map(|four| {
                four.iter()
                    .rev()
                    .fold(0, |byte, &code| byte << 2 | code & 3)
            })
            .collect();
        DnaSeq {
            packed,
            len: codes.len(),
        }
    }

    /// The sequence of the first `len` bases of `packed`, in this type's
    /// layout (base `i` in bits `2(i % 4)` of byte `i / 4`). Bits of the
    /// last byte past base `len − 1` are ignored: they are cleared, so
    /// whatever they held, equal bases give equal sequences.
    ///
    /// # Panics
    ///
    /// Panics if `packed` is shorter than `len.div_ceil(4)` bytes.
    pub fn from_packed(packed: &[u8], len: usize) -> DnaSeq {
        let mut packed = packed[..len.div_ceil(4)].to_vec();
        if let Some(last) = packed.last_mut() {
            let used = len & 3;
            if used != 0 {
                *last &= (1 << (2 * used)) - 1;
            }
        }
        DnaSeq { packed, len }
    }

    /// Number of bases in the sequence.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the sequence holds no bases.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of bytes the packed representation occupies: `len.div_ceil(4)`,
    /// the figure GenPIP's data-movement model charges for a read's bases.
    #[inline]
    pub fn packed_bytes(&self) -> usize {
        self.packed.len()
    }

    /// Appends a base.
    #[inline]
    pub fn push(&mut self, base: Base) {
        let slot = self.len & 3;
        if slot == 0 {
            self.packed.push(0);
        }
        let byte = self.packed.last_mut().expect("byte pushed above");
        *byte |= base.code() << (slot * 2);
        self.len += 1;
    }

    /// Returns the base at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    #[inline]
    pub fn get(&self, index: usize) -> Base {
        assert!(
            index < self.len,
            "index {index} out of bounds (len {})",
            self.len
        );
        let byte = self.packed[index >> 2];
        Base::from_code(byte >> ((index & 3) * 2))
    }

    /// The 32 bases from `index` on as one word, two bits a base
    /// ([`Base::code`]), base `index` in the lowest two bits. Positions past
    /// the end read as `A` (code 0), so a caller can take words across the
    /// end without a bounds check per base.
    ///
    /// ```
    /// use genpip_genomics::DnaSeq;
    ///
    /// let s: DnaSeq = "ACGT".parse()?;
    /// assert_eq!(s.word_at(1), 0b11_10_01); // C, G, T, then A past the end
    /// # Ok::<(), genpip_genomics::base::ParseBaseError>(())
    /// ```
    #[inline]
    pub fn word_at(&self, index: usize) -> u64 {
        // A word spans nine packed bytes at most; read sixteen (fewer at the
        // end, the rest zero) and shift the first base down. Every unused
        // slot of the last byte is zero (the type's invariant).
        let byte = index >> 2;
        let bytes: [u8; 16] = match self.packed.get(byte..byte + 16) {
            Some(bytes) => bytes.try_into().expect("sixteen bytes"),
            None => {
                let mut bytes = [0u8; 16];
                let tail = self.packed.get(byte..).unwrap_or_default();
                bytes[..tail.len()].copy_from_slice(tail);
                bytes
            }
        };
        (u128::from_le_bytes(bytes) >> ((index & 3) * 2)) as u64
    }

    /// Iterates over the bases.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            seq: self,
            index: 0,
        }
    }

    /// Copies `len` bases starting at `start` into a new sequence.
    ///
    /// # Panics
    ///
    /// Panics if `start + len > self.len()`.
    pub fn subseq(&self, start: usize, len: usize) -> DnaSeq {
        assert!(
            start + len <= self.len,
            "subseq [{start}, {start}+{len}) out of bounds (len {})",
            self.len
        );
        let mut out = DnaSeq::with_capacity(len);
        for i in start..start + len {
            out.push(self.get(i));
        }
        out
    }

    /// Returns the reverse complement of the sequence.
    ///
    /// Nanopore devices sequence either strand of the double helix with equal
    /// probability, so the read simulator and the mapper both need this.
    pub fn reverse_complement(&self) -> DnaSeq {
        let mut out = DnaSeq::with_capacity(self.len);
        for i in (0..self.len).rev() {
            out.push(self.get(i).complement());
        }
        out
    }

    /// Appends every base of `other`, a packed byte at a time: copied
    /// whole when this sequence's length is a multiple of 4, otherwise each
    /// of `other`'s bytes split across two, its low bits into the free high
    /// bits of the byte before and its high bits into the next.
    pub fn extend_from_seq(&mut self, other: &DnaSeq) {
        let shift = 2 * (self.len & 3);
        if shift == 0 {
            self.packed.extend_from_slice(&other.packed);
        } else {
            let mut carry = self.packed.pop().expect("a partly filled last byte");
            self.packed.reserve(other.packed.len() + 1);
            self.packed.extend(other.packed.iter().map(|&byte| {
                let merged = carry | byte << shift;
                carry = byte >> (8 - shift);
                merged
            }));
            self.packed.push(carry);
        }
        self.len += other.len;
        // The last carry is `other`'s zero unused bits when it holds no base.
        self.packed.truncate(self.len.div_ceil(4));
    }

    /// Converts to a plain `Vec<Base>` (unpacked, one byte per base).
    pub fn to_bases(&self) -> Vec<Base> {
        self.iter().collect()
    }
}

impl fmt::Debug for DnaSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.len <= 40 {
            write!(f, "DnaSeq({self})")
        } else {
            write!(f, "DnaSeq(len={}, {}…)", self.len, self.subseq(0, 24))
        }
    }
}

impl fmt::Display for DnaSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in self.iter() {
            write!(f, "{b}")?;
        }
        Ok(())
    }
}

impl FromStr for DnaSeq {
    type Err = ParseBaseError;

    fn from_str(s: &str) -> Result<DnaSeq, ParseBaseError> {
        let mut out = DnaSeq::with_capacity(s.len());
        for c in s.chars() {
            out.push(Base::try_from(c)?);
        }
        Ok(out)
    }
}

impl FromIterator<Base> for DnaSeq {
    fn from_iter<I: IntoIterator<Item = Base>>(iter: I) -> DnaSeq {
        let mut out = DnaSeq::new();
        for b in iter {
            out.push(b);
        }
        out
    }
}

impl Extend<Base> for DnaSeq {
    fn extend<I: IntoIterator<Item = Base>>(&mut self, iter: I) {
        for b in iter {
            self.push(b);
        }
    }
}

impl From<&[Base]> for DnaSeq {
    fn from(bases: &[Base]) -> DnaSeq {
        bases.iter().copied().collect()
    }
}

impl<'a> IntoIterator for &'a DnaSeq {
    type Item = Base;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Iterator over the bases of a [`DnaSeq`], created by [`DnaSeq::iter`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    seq: &'a DnaSeq,
    index: usize,
}

impl Iterator for Iter<'_> {
    type Item = Base;

    #[inline]
    fn next(&mut self) -> Option<Base> {
        if self.index < self.seq.len {
            let b = self.seq.get(self.index);
            self.index += 1;
            Some(b)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.seq.len - self.index;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Iter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_codes_is_pushing_each_base() {
        // Every length across two byte boundaries, with high bits set.
        let codes: Vec<u8> = (0..10u8).map(|i| i.wrapping_mul(0x9D) | 0xF0).collect();
        for n in 0..=codes.len() {
            let pushed: DnaSeq = codes[..n].iter().map(|&c| Base::from_code(c)).collect();
            let packed = DnaSeq::from_codes(&codes[..n]);
            assert_eq!(packed, pushed, "{n} codes");
            assert_eq!(packed.packed_bytes(), n.div_ceil(4));
        }
    }

    #[test]
    fn push_get_round_trip() {
        let mut s = DnaSeq::new();
        let pattern = [Base::A, Base::C, Base::G, Base::T, Base::T, Base::G];
        for &b in &pattern {
            s.push(b);
        }
        assert_eq!(s.len(), 6);
        for (i, &b) in pattern.iter().enumerate() {
            assert_eq!(s.get(i), b);
        }
    }

    #[test]
    fn word_at_reads_32_bases_and_a_past_the_end() {
        let s: DnaSeq = "GATTACAACGTTGCA".repeat(7).parse().unwrap();
        for index in 0..=s.len() + 40 {
            let word = s.word_at(index);
            for j in 0..32 {
                let want = if index + j < s.len() {
                    u64::from(s.get(index + j).code())
                } else {
                    0
                };
                assert_eq!((word >> (2 * j)) & 3, want, "index {index} base {j}");
            }
        }
    }

    #[test]
    fn packing_density() {
        let s: DnaSeq = "ACGTACGT".parse().unwrap();
        assert_eq!(s.packed_bytes(), 2);
        let s: DnaSeq = "ACGTA".parse().unwrap();
        assert_eq!(s.packed_bytes(), 2);
    }

    #[test]
    fn parse_and_display() {
        let s: DnaSeq = "GATTACA".parse().unwrap();
        assert_eq!(s.to_string(), "GATTACA");
        assert!("GATXACA".parse::<DnaSeq>().is_err());
    }

    #[test]
    fn reverse_complement_known_value() {
        let s: DnaSeq = "AACGT".parse().unwrap();
        assert_eq!(s.reverse_complement().to_string(), "ACGTT");
    }

    #[test]
    fn reverse_complement_involution() {
        let s: DnaSeq = "ACGGTTACGATCG".parse().unwrap();
        assert_eq!(s.reverse_complement().reverse_complement(), s);
    }

    #[test]
    fn subseq_bounds() {
        let s: DnaSeq = "ACGTACGT".parse().unwrap();
        assert_eq!(s.subseq(2, 4).to_string(), "GTAC");
        assert_eq!(s.subseq(0, 0).len(), 0);
        assert_eq!(s.subseq(8, 0).len(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn subseq_past_end_panics() {
        let s: DnaSeq = "ACGT".parse().unwrap();
        let _ = s.subseq(2, 3);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_past_end_panics() {
        let s: DnaSeq = "ACGT".parse().unwrap();
        let _ = s.get(4);
    }

    #[test]
    fn iterator_matches_len() {
        let s: DnaSeq = "ACGTACG".parse().unwrap();
        assert_eq!(s.iter().len(), 7);
        assert_eq!(s.iter().count(), 7);
        let collected: DnaSeq = s.iter().collect();
        assert_eq!(collected, s);
    }

    /// `n` bases of a pattern that differs from byte to byte.
    fn pattern(n: usize, seed: usize) -> DnaSeq {
        (0..n)
            .map(|i| Base::from_code(((i * 7 + seed * 3 + i / 5) % 4) as u8))
            .collect()
    }

    #[test]
    fn extend_from_seq_is_pushing_each_base_for_every_pair_of_lengths() {
        // Every pair of lengths 0..=13: each residue mod 4 on either side,
        // the empty sequence on either side, and whole bytes between.
        for a in 0..=13 {
            for b in 0..=13 {
                let (head, tail) = (pattern(a, 1), pattern(b, 2));
                let mut pushed = head.clone();
                for base in tail.iter() {
                    pushed.push(base);
                }
                let mut extended = head.clone();
                extended.extend_from_seq(&tail);
                assert_eq!(extended, pushed, "{a} + {b} bases");
                assert_eq!(extended.packed_bytes(), (a + b).div_ceil(4));
                // The unused bits stay zero, so a later append still works.
                extended.extend_from_seq(&tail);
                for base in tail.iter() {
                    pushed.push(base);
                }
                assert_eq!(extended, pushed, "{a} + {b} + {b} bases");
            }
        }
    }

    #[test]
    fn from_packed_clears_the_bits_past_the_last_base() {
        for len in 0..=13 {
            let seq = pattern(len, 3);
            let mut junk = seq.packed.clone();
            if let Some(last) = junk.last_mut() {
                *last |= !(((1u16 << (2 * ((len - 1) % 4 + 1))) - 1) as u8);
            }
            junk.extend([0xAB, 0xCD]);
            assert_eq!(DnaSeq::from_packed(&junk, len), seq, "{len} bases");
            assert_eq!(DnaSeq::from_packed(&seq.packed, len), seq, "{len} bases");
        }
    }

    #[test]
    fn extend_from_seq_appends() {
        let mut a: DnaSeq = "ACG".parse().unwrap();
        let b: DnaSeq = "TTT".parse().unwrap();
        a.extend_from_seq(&b);
        assert_eq!(a.to_string(), "ACGTTT");
    }

    #[test]
    fn debug_is_never_empty() {
        assert!(!format!("{:?}", DnaSeq::new()).is_empty());
        let long: DnaSeq = "ACGT".repeat(30).parse().unwrap();
        let dbg = format!("{long:?}");
        assert!(dbg.contains("len=120"));
    }
}
