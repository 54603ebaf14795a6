//! The four-letter DNA alphabet.

use std::fmt;

/// A single DNA nucleotide.
///
/// The discriminants are the canonical 2-bit encoding (`A=0, C=1, G=2, T=3`)
/// used throughout the workspace: [`crate::DnaSeq`] packs four bases per byte
/// and [`crate::Kmer`] packs 32 bases in a `u64` with this encoding.
///
/// # Example
///
/// ```
/// use genpip_genomics::Base;
///
/// assert_eq!(Base::A.complement(), Base::T);
/// assert_eq!(Base::from_code(2), Base::G);
/// assert_eq!(Base::G.to_char(), 'G');
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Base {
    /// Adenine (code 0).
    A = 0,
    /// Cytosine (code 1).
    C = 1,
    /// Guanine (code 2).
    G = 2,
    /// Thymine (code 3).
    T = 3,
}

impl Base {
    /// Builds a base from its 2-bit code.
    ///
    /// Only the two least-significant bits of `code` are used, so every `u8`
    /// maps to a valid base; this makes the function handy for decoding
    /// packed representations without a fallible path.
    #[inline]
    pub const fn from_code(code: u8) -> Base {
        match code & 0b11 {
            0 => Base::A,
            1 => Base::C,
            2 => Base::G,
            _ => Base::T,
        }
    }

    /// Returns the 2-bit code of this base.
    #[inline]
    pub const fn code(self) -> u8 {
        self as u8
    }

    /// Returns the Watson–Crick complement (`A↔T`, `C↔G`).
    ///
    /// In the 2-bit encoding the complement is simply `3 - code`, i.e. a
    /// bitwise NOT of the two bits.
    #[inline]
    pub const fn complement(self) -> Base {
        Base::from_code(3 - self.code())
    }

    /// Parses an ASCII character (case-insensitive). Returns `None` for
    /// anything outside `{A, C, G, T, a, c, g, t}` (including IUPAC ambiguity
    /// codes, which this reproduction does not model).
    #[inline]
    pub const fn from_char(c: char) -> Option<Base> {
        match c {
            'A' | 'a' => Some(Base::A),
            'C' | 'c' => Some(Base::C),
            'G' | 'g' => Some(Base::G),
            'T' | 't' => Some(Base::T),
            _ => None,
        }
    }

    /// Returns the upper-case ASCII character for this base.
    #[inline]
    pub const fn to_char(self) -> char {
        match self {
            Base::A => 'A',
            Base::C => 'C',
            Base::G => 'G',
            Base::T => 'T',
        }
    }
}

impl fmt::Display for Base {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_char())
    }
}

impl TryFrom<char> for Base {
    type Error = ParseBaseError;

    fn try_from(c: char) -> Result<Base, ParseBaseError> {
        Base::from_char(c).ok_or(ParseBaseError { found: c })
    }
}

impl From<Base> for char {
    fn from(b: Base) -> char {
        b.to_char()
    }
}

/// Error returned when parsing a non-ACGT character as a [`Base`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseBaseError {
    /// The offending character.
    pub found: char,
}

impl fmt::Display for ParseBaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid DNA base character {:?}", self.found)
    }
}

impl std::error::Error for ParseBaseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip() {
        for code in 0..4u8 {
            assert_eq!(Base::from_code(code).code(), code);
        }
    }

    #[test]
    fn from_code_masks_high_bits() {
        assert_eq!(Base::from_code(4), Base::A);
        assert_eq!(Base::from_code(0xFF), Base::T);
    }

    #[test]
    fn complement_is_involution() {
        for b in [Base::A, Base::C, Base::G, Base::T] {
            assert_eq!(b.complement().complement(), b);
        }
    }

    #[test]
    fn complement_pairs() {
        assert_eq!(Base::A.complement(), Base::T);
        assert_eq!(Base::C.complement(), Base::G);
        assert_eq!(Base::G.complement(), Base::C);
        assert_eq!(Base::T.complement(), Base::A);
    }

    #[test]
    fn char_round_trip() {
        for b in [Base::A, Base::C, Base::G, Base::T] {
            assert_eq!(Base::from_char(b.to_char()), Some(b));
            assert_eq!(Base::try_from(b.to_char()).unwrap(), b);
        }
        assert_eq!(Base::from_char('g'), Some(Base::G));
        assert_eq!(Base::from_char('N'), None);
        assert!(Base::try_from('N').is_err());
    }

    #[test]
    fn parse_error_displays_char() {
        let err = Base::try_from('x').unwrap_err();
        assert!(err.to_string().contains('x'));
    }
}
