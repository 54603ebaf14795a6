//! The GenPIP Signal Container (GSC): an indexed on-disk raw-signal format.
//!
//! # Layout (version 2, all integers little-endian)
//!
//! ```text
//! header   magic "GENPIPSC" · version u32 · flags u32
//!          pore k u32 · event std f32 · mean dwell f64 · 4^k level f32s
//!          reference name (u32 len + UTF-8) · reference (u64 bases + 2-bit packed)
//!          read count u64 · header checksum u64
//! records  read count ×:
//!          id u32 · noise sigma f64 · origin (tag u8 [+ start u64 + len u64 + rev u8])
//!          truth (u64 bases + 2-bit packed) · sample count u64
//!          samples f32 × n · base index u32 × n · record checksum u64
//! trailer  record offsets u64 × read count · table checksum u64
//!          table position u64 · read count u64 · magic "GSCINDEX"
//! ```
//!
//! # Checksum
//!
//! Every checksum is one function over the section's bytes: FNV-1a's step
//! `h = (h ^ w) · P` run on four interleaved lanes of little-endian `u64`
//! words (word `i` of each 32-byte block goes to lane `i`), the bytes after
//! the last whole block by byte-wise FNV-1a, then the four lanes and the
//! byte length folded in by the same step. Four independent multiply chains
//! hash at memory speed where byte-serial FNV-1a (version 1) paid a
//! dependent multiply per byte. A single flipped bit cannot escape it: for a
//! fixed state `w ↦ (h ^ w) · P` is injective (`P` is odd), and every later
//! step — of the lane, of the fold — is a bijection of the state, so a
//! change confined to one word or one tail byte always changes the digest.
//!
//! The header embeds the full chemistry (pore model, mean dwell) and the
//! mapping reference, so a `.gsc` file is self-describing: a
//! [`GscReadSource`] over it satisfies every `ReadSource` obligation without
//! out-of-band state. Records carry the complete [`SimulatedRead`] —
//! including ground-truth annotation (true sequence, per-sample base index,
//! origin, noise draw), the moral equivalent of FAST5 analysis groups — so
//! streaming from disk is **bit-identical** to streaming from memory and the
//! downstream evaluation oracle keeps working.
//!
//! The fixed-size tail makes the offset table discoverable from the end of
//! the file, and the table makes read *k* an O(1) seek — the primitive
//! behind mid-session attach at an offset and checkpoint/resume.
//!
//! Every decode path is hardened: lengths are checked against the file size
//! before allocation, all invariants are validated before constructing
//! domain types, and corruption surfaces as a typed [`GscError`], never a
//! panic.

use genpip_datasets::{ReadSource, SimulatedRead};
use genpip_genomics::read::ReadOrigin;
use genpip_genomics::{Base, DnaSeq, Genome};
use genpip_signal::{PoreModel, ReadSignal};
use std::fmt;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Leading file magic.
pub const MAGIC: &[u8; 8] = b"GENPIPSC";
/// Trailing index magic.
pub const TRAILER_MAGIC: &[u8; 8] = b"GSCINDEX";
/// The one supported container version (2: the word-parallel checksum;
/// version 1 files, checksummed byte by byte, are refused).
pub const VERSION: u32 = 2;
/// Bytes in the fixed tail: table checksum, table position, read count,
/// trailer magic.
const TAIL_BYTES: u64 = 32;

/// Why a container could not be written, opened, or decoded.
///
/// Every corruption mode is a value, not a panic: flipping arbitrary bytes
/// in a valid file makes some `GscError` come back (see the fuzz test in
/// `tests/file_source.rs`).
#[derive(Debug)]
pub enum GscError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The leading or trailing magic bytes are wrong — not a GSC file, or
    /// one whose framing was destroyed.
    BadMagic {
        /// Which magic failed: `"header"` or `"trailer"`.
        section: &'static str,
    },
    /// The container version is newer than this reader understands.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
    },
    /// The file ends (or a declared length runs) before `what` is complete.
    Truncated {
        /// The structure that could not be read in full.
        what: &'static str,
    },
    /// Stored and recomputed checksums disagree.
    ChecksumMismatch {
        /// The checksummed section: `"header"`, `"offset table"`, or
        /// `"record <k>"`.
        section: String,
    },
    /// An offset-table entry points outside the record region.
    OffsetOutOfRange {
        /// Index of the bad entry.
        index: usize,
        /// The out-of-range file offset it held.
        offset: u64,
    },
    /// Header and trailer disagree on the read count.
    CountMismatch {
        /// Count in the header.
        header: u64,
        /// Count in the trailer.
        trailer: u64,
    },
    /// A field holds a value no writer produces (bad pore k, non-finite
    /// chemistry, unknown origin tag, invalid UTF-8 name, …).
    Malformed {
        /// What was wrong.
        what: String,
    },
    /// A seek asked for a read index beyond the container's read count.
    SeekPastEnd {
        /// Requested read index.
        index: usize,
        /// Reads in the container.
        reads: usize,
    },
}

impl fmt::Display for GscError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GscError::Io(e) => write!(f, "i/o error: {e}"),
            GscError::BadMagic { section } => write!(f, "bad {section} magic: not a GSC file"),
            GscError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported GSC version {found} (reader supports {VERSION})"
                )
            }
            GscError::Truncated { what } => write!(f, "truncated container: {what} incomplete"),
            GscError::ChecksumMismatch { section } => {
                write!(f, "checksum mismatch in {section}")
            }
            GscError::OffsetOutOfRange { index, offset } => {
                write!(
                    f,
                    "offset-table entry {index} out of range (offset {offset})"
                )
            }
            GscError::CountMismatch { header, trailer } => {
                write!(
                    f,
                    "read-count mismatch: header says {header}, trailer says {trailer}"
                )
            }
            GscError::Malformed { what } => write!(f, "malformed container: {what}"),
            GscError::SeekPastEnd { index, reads } => {
                write!(f, "seek to read {index} past end of {reads}-read container")
            }
        }
    }
}

impl std::error::Error for GscError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GscError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for GscError {
    fn from(e: io::Error) -> GscError {
        GscError::Io(e)
    }
}

/// The container's checksum, incremental: four FNV-1a lanes over the
/// little-endian `u64` words of 32-byte blocks, the tail bytes by byte
/// FNV-1a, the lanes and the byte length folded in (see the module doc).
/// A partial block is carried across [`Checksum::update`] calls, so any
/// split of the input gives the one-shot [`checksum`].
struct Checksum {
    lanes: [u64; 4],
    /// The bytes of an incomplete block, waiting for the next update.
    pending: [u8; Checksum::BLOCK],
    pending_len: usize,
    len: u64,
}

impl Checksum {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    const BLOCK: usize = 32;

    fn new() -> Checksum {
        Checksum {
            lanes: [Checksum::OFFSET; 4],
            pending: [0; Checksum::BLOCK],
            pending_len: 0,
            len: 0,
        }
    }

    #[inline(always)]
    fn step(h: u64, w: u64) -> u64 {
        (h ^ w).wrapping_mul(Checksum::PRIME)
    }

    #[inline(always)]
    fn mix(lanes: &mut [u64; 4], block: &[u8]) {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            let w = u64::from_le_bytes(word.try_into().expect("8 bytes"));
            *lane = Checksum::step(*lane, w);
        }
    }

    fn update(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if self.pending_len > 0 {
            let fill = (Checksum::BLOCK - self.pending_len).min(bytes.len());
            self.pending[self.pending_len..self.pending_len + fill].copy_from_slice(&bytes[..fill]);
            self.pending_len += fill;
            bytes = &bytes[fill..];
            if self.pending_len < Checksum::BLOCK {
                return;
            }
            Checksum::mix(&mut self.lanes, &self.pending);
        }
        // Four independent multiply chains, kept in registers.
        let mut lanes = self.lanes;
        let mut blocks = bytes.chunks_exact(Checksum::BLOCK);
        for block in &mut blocks {
            Checksum::mix(&mut lanes, block);
        }
        self.lanes = lanes;
        let tail = blocks.remainder();
        self.pending[..tail.len()].copy_from_slice(tail);
        self.pending_len = tail.len();
    }

    fn digest(&self) -> u64 {
        let tail = &self.pending[..self.pending_len];
        let h = tail
            .iter()
            .fold(Checksum::OFFSET, |h, &b| Checksum::step(h, u64::from(b)));
        let h = self
            .lanes
            .iter()
            .fold(h, |h, &lane| Checksum::step(h, lane));
        Checksum::step(h, self.len)
    }
}

/// The one-shot [`Checksum`] of `bytes`.
fn checksum(bytes: &[u8]) -> u64 {
    let mut c = Checksum::new();
    c.update(bytes);
    c.digest()
}

// ---------------------------------------------------------------------------
// Encoding helpers
// ---------------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f32(out: &mut Vec<u8>, v: f32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// 2-bit packs a sequence: base `i` occupies bits `(i % 4) * 2` of byte
/// `i / 4`, matching `DnaSeq`'s own layout.
fn put_seq(out: &mut Vec<u8>, seq: &DnaSeq) {
    put_u64(out, seq.len() as u64);
    let mut byte = 0u8;
    for (i, base) in seq.iter().enumerate() {
        byte |= base.code() << ((i & 3) * 2);
        if i & 3 == 3 {
            out.push(byte);
            byte = 0;
        }
    }
    if !seq.len().is_multiple_of(4) {
        out.push(byte);
    }
}

fn encode_record(out: &mut Vec<u8>, read: &SimulatedRead) {
    put_u32(out, read.id);
    put_f64(out, read.noise_sigma);
    match read.origin {
        ReadOrigin::Reference {
            start,
            len,
            reverse,
        } => {
            out.push(0);
            put_u64(out, start as u64);
            put_u64(out, len as u64);
            out.push(u8::from(reverse));
        }
        ReadOrigin::Contaminant => out.push(1),
    }
    put_seq(out, &read.signal.truth);
    put_u64(out, read.signal.samples.len() as u64);
    for &s in &read.signal.samples {
        put_f32(out, s);
    }
    for &b in &read.signal.base_index {
        put_u32(out, b);
    }
}

// ---------------------------------------------------------------------------
// Decoding helpers
// ---------------------------------------------------------------------------

/// A bounded cursor over bytes pulled from the file: every variable length
/// is checked against the file size before the allocation it would drive,
/// so corrupt length fields cannot balloon memory, and every short read
/// maps to [`GscError::Truncated`].
struct Take<'a, R: Read> {
    inner: &'a mut R,
    file_len: u64,
    /// Everything pulled since [`Take::new`], for checksums: the caller's
    /// buffer, cleared, so a reader reuses one allocation for every record.
    raw: &'a mut Vec<u8>,
}

impl<'a, R: Read> Take<'a, R> {
    fn new(inner: &'a mut R, file_len: u64, raw: &'a mut Vec<u8>) -> Take<'a, R> {
        raw.clear();
        Take {
            inner,
            file_len,
            raw,
        }
    }

    /// Pulls `n` bytes into `raw`, returning their range within it.
    fn span(&mut self, n: u64, what: &'static str) -> Result<std::ops::Range<usize>, GscError> {
        if n > self.file_len {
            return Err(GscError::Truncated { what });
        }
        let n = usize::try_from(n).map_err(|_| GscError::Truncated { what })?;
        let start = self.raw.len();
        self.raw.resize(start + n, 0);
        self.inner.read_exact(&mut self.raw[start..]).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                GscError::Truncated { what }
            } else {
                GscError::Io(e)
            }
        })?;
        Ok(start..start + n)
    }

    fn bytes(&mut self, n: u64, what: &'static str) -> Result<&[u8], GscError> {
        let span = self.span(n, what)?;
        Ok(&self.raw[span])
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, GscError> {
        Ok(self.bytes(1, what)?[0])
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, GscError> {
        let b = self.bytes(4, what)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, GscError> {
        let b = self.bytes(8, what)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn f32(&mut self, what: &'static str) -> Result<f32, GscError> {
        Ok(f32::from_le_bytes(
            self.bytes(4, what)?.try_into().expect("4 bytes"),
        ))
    }

    fn f64(&mut self, what: &'static str) -> Result<f64, GscError> {
        Ok(f64::from_le_bytes(
            self.bytes(8, what)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a length-prefixed 2-bit packed sequence.
    fn seq(&mut self, what: &'static str) -> Result<DnaSeq, GscError> {
        let count = self.u64(what)?;
        let packed = count.div_ceil(4);
        let bytes_start = self.span(packed, what)?.start;
        let count = usize::try_from(count).map_err(|_| GscError::Truncated { what })?;
        let mut seq = DnaSeq::with_capacity(count);
        for i in 0..count {
            let code = self.raw[bytes_start + i / 4] >> ((i & 3) * 2);
            seq.push(Base::from_code(code));
        }
        Ok(seq)
    }
}

fn to_usize(v: u64, what: &'static str) -> Result<usize, GscError> {
    usize::try_from(v).map_err(|_| GscError::Malformed {
        what: format!("{what} does not fit in memory"),
    })
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// The run-wide context a container embeds: everything a
/// [`ReadSource`] must produce before its first read.
pub struct GscMeta<'a> {
    /// Chemistry the signals were synthesized with.
    pub pore_model: &'a PoreModel,
    /// Mean dwell time in samples per base.
    pub mean_dwell: f64,
    /// The mapping reference.
    pub reference: &'a Genome,
}

impl<'a> GscMeta<'a> {
    /// Borrows the context out of any source.
    pub fn from_source<S: ReadSource + ?Sized>(source: &'a S) -> GscMeta<'a> {
        GscMeta {
            pore_model: source.pore_model(),
            mean_dwell: source.mean_dwell(),
            reference: source.reference(),
        }
    }
}

/// What a finished [`GscWriter`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GscSummary {
    /// Reads packed.
    pub reads: u64,
    /// Bytes of header + records (excludes the index trailer).
    pub data_bytes: u64,
    /// Total file size.
    pub file_bytes: u64,
}

/// Streams [`SimulatedRead`]s into a GSC file: header up front, one record
/// per [`GscWriter::write_read`], offset table and trailer at
/// [`GscWriter::finish`] (which also back-patches the header's read count).
///
/// Dropping a writer without finishing leaves a file with no index trailer;
/// [`GscReader::open`] rejects it as truncated rather than serving a
/// half-written run.
pub struct GscWriter {
    file: BufWriter<File>,
    /// File offset of the header's read-count field (patched at finish).
    count_pos: u64,
    /// Checksum state over the header bytes before the read count, so the
    /// final header checksum can be recomputed after patching.
    prefix_hash: Checksum,
    offsets: Vec<u64>,
    pos: u64,
    scratch: Vec<u8>,
}

impl GscWriter {
    /// Creates `path` and writes the container header (with a zero read
    /// count, patched on [`GscWriter::finish`]).
    ///
    /// # Errors
    ///
    /// Returns [`GscError::Malformed`] for a mean dwell no reader accepts
    /// (not finite, or not above 1 sample/base), before creating the file, and
    /// [`GscError::Io`] if the file cannot be created or written.
    pub fn create(path: impl AsRef<Path>, meta: &GscMeta<'_>) -> Result<GscWriter, GscError> {
        check_mean_dwell(meta.mean_dwell)?;
        let file = File::create(path)?;
        let mut header = Vec::new();
        header.extend_from_slice(MAGIC);
        put_u32(&mut header, VERSION);
        put_u32(&mut header, 0); // flags, reserved
        put_u32(&mut header, meta.pore_model.k() as u32);
        put_f32(&mut header, meta.pore_model.event_std());
        put_f64(&mut header, meta.mean_dwell);
        for &level in meta.pore_model.levels() {
            put_f32(&mut header, level);
        }
        put_u32(&mut header, meta.reference.name().len() as u32);
        header.extend_from_slice(meta.reference.name().as_bytes());
        put_seq(&mut header, meta.reference.sequence());
        let count_pos = header.len() as u64;
        let mut prefix_hash = Checksum::new();
        prefix_hash.update(&header);
        put_u64(&mut header, 0); // read count placeholder
        let digest = checksum(&header);
        put_u64(&mut header, digest);
        let mut file = BufWriter::new(file);
        file.write_all(&header)?;
        Ok(GscWriter {
            file,
            count_pos,
            prefix_hash,
            offsets: Vec::new(),
            pos: header.len() as u64,
            scratch: Vec::new(),
        })
    }

    /// Appends one read as a checksummed record.
    ///
    /// # Errors
    ///
    /// Returns [`GscError::Io`] on write failure.
    pub fn write_read(&mut self, read: &SimulatedRead) -> Result<(), GscError> {
        self.scratch.clear();
        encode_record(&mut self.scratch, read);
        let digest = checksum(&self.scratch);
        self.offsets.push(self.pos);
        self.file.write_all(&self.scratch)?;
        self.file.write_all(&digest.to_le_bytes())?;
        self.pos += self.scratch.len() as u64 + 8;
        Ok(())
    }

    /// Writes the offset table and trailer, patches the header's read count
    /// and checksum, and flushes.
    ///
    /// # Errors
    ///
    /// Returns [`GscError::Io`] on write failure.
    pub fn finish(mut self) -> Result<GscSummary, GscError> {
        let reads = self.offsets.len() as u64;
        let table_pos = self.pos;
        let mut table = Vec::with_capacity(self.offsets.len() * 8);
        for &off in &self.offsets {
            put_u64(&mut table, off);
        }
        self.file.write_all(&table)?;
        self.file.write_all(&checksum(&table).to_le_bytes())?;
        self.file.write_all(&table_pos.to_le_bytes())?;
        self.file.write_all(&reads.to_le_bytes())?;
        self.file.write_all(TRAILER_MAGIC)?;
        let file_bytes = table_pos + table.len() as u64 + TAIL_BYTES;
        // Back-patch the header: read count, then the header checksum over
        // the prefix + patched count.
        self.file.seek(SeekFrom::Start(self.count_pos))?;
        let count_bytes = reads.to_le_bytes();
        self.prefix_hash.update(&count_bytes);
        self.file.write_all(&count_bytes)?;
        self.file
            .write_all(&self.prefix_hash.digest().to_le_bytes())?;
        self.file.flush()?;
        Ok(GscSummary {
            reads,
            data_bytes: table_pos,
            file_bytes,
        })
    }
}

/// Refuses a mean dwell the basecaller cannot decode with: it must be finite
/// and above one sample per base (at exactly one the strand never stays, and
/// `Transitions::from_mean_dwell` asserts as much). The writer checks it
/// before creating a file and the reader before building a source, so a
/// header no writer produces is a typed error, never a panic at the first
/// basecall.
///
/// # Errors
///
/// Returns [`GscError::Malformed`] naming the value.
fn check_mean_dwell(mean_dwell: f64) -> Result<(), GscError> {
    if mean_dwell.is_finite() && mean_dwell > 1.0 {
        Ok(())
    } else {
        Err(GscError::Malformed {
            what: format!("mean dwell {mean_dwell} is not a finite value above 1 sample/base"),
        })
    }
}

/// Packs an entire source — context plus every remaining read — into a GSC
/// file at `path`.
///
/// # Errors
///
/// Returns [`GscError::Malformed`] if the source's mean dwell is not a
/// finite value above 1 sample/base (no file is created), and [`GscError::Io`] on any
/// write failure.
pub fn pack_source<S: ReadSource>(
    path: impl AsRef<Path>,
    source: &mut S,
) -> Result<GscSummary, GscError> {
    let model = source.pore_model().clone();
    let reference = source.reference().clone();
    let meta = GscMeta {
        pore_model: &model,
        mean_dwell: source.mean_dwell(),
        reference: &reference,
    };
    let mut writer = GscWriter::create(path, &meta)?;
    while let Some(read) = source.next_read() {
        writer.write_read(&read)?;
    }
    writer.finish()
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// A validated, seekable view of a GSC file.
///
/// Opening parses and checksums the header and the offset table; records
/// are decoded (and checksummed) lazily — sequentially via
/// [`GscReader::next_record`] or at random via [`GscReader::read_at`], both O(1)
/// in the container size thanks to the offset table.
pub struct GscReader {
    file: BufReader<File>,
    file_len: u64,
    header_len: u64,
    reference: Genome,
    model: PoreModel,
    mean_dwell: f64,
    offsets: Vec<u64>,
    /// End of the record region (start of the offset table).
    data_end: u64,
    /// Current byte position of `file`, tracked to skip redundant seeks on
    /// sequential reads.
    pos: u64,
    /// Index of the next read a sequential [`GscReader::next_record`] returns.
    next: usize,
    /// The bytes of the record being decoded, reused from record to record.
    raw: Vec<u8>,
}

impl fmt::Debug for GscReader {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "GscReader(reads={}, reference={:?}, k={}, next={})",
            self.offsets.len(),
            self.reference.name(),
            self.model.k(),
            self.next
        )
    }
}

impl GscReader {
    /// Opens and validates a container: header magic, version, checksum,
    /// chemistry invariants, trailer magic, read-count cross-check, offset
    /// table checksum, and offset ranges.
    ///
    /// # Errors
    ///
    /// Any [`GscError`] variant, depending on what is wrong with the file.
    pub fn open(path: impl AsRef<Path>) -> Result<GscReader, GscError> {
        let file = File::open(path)?;
        let file_len = file.metadata()?.len();
        let mut file = BufReader::new(file);

        // --- Header ---
        let mut raw = Vec::new();
        let mut take = Take::new(&mut file, file_len, &mut raw);
        if take.bytes(8, "header magic")? != MAGIC {
            return Err(GscError::BadMagic { section: "header" });
        }
        let version = take.u32("version")?;
        if version != VERSION {
            return Err(GscError::UnsupportedVersion { found: version });
        }
        let _flags = take.u32("flags")?;
        let k = take.u32("pore k")?;
        if !(1..=6).contains(&k) {
            return Err(GscError::Malformed {
                what: format!("pore k {k} outside 1..=6"),
            });
        }
        let event_std = take.f32("event std")?;
        if !(event_std.is_finite() && event_std > 0.0) {
            return Err(GscError::Malformed {
                what: "event std not finite and positive".to_string(),
            });
        }
        let mean_dwell = take.f64("mean dwell")?;
        check_mean_dwell(mean_dwell)?;
        let states = 1u64 << (2 * k);
        let mut levels = Vec::with_capacity(states as usize);
        for _ in 0..states {
            let level = take.f32("level table")?;
            if !level.is_finite() {
                return Err(GscError::Malformed {
                    what: "non-finite pore level".to_string(),
                });
            }
            levels.push(level);
        }
        let name_len = take.u32("reference name")?;
        let name = String::from_utf8(take.bytes(u64::from(name_len), "reference name")?.to_vec())
            .map_err(|_| GscError::Malformed {
            what: "reference name not UTF-8".to_string(),
        })?;
        let ref_seq = take.seq("reference sequence")?;
        let read_count = take.u64("read count")?;
        let expected = checksum(take.raw);
        let stored = take.u64("header checksum")?;
        if expected != stored {
            return Err(GscError::ChecksumMismatch {
                section: "header".to_string(),
            });
        }
        let header_len = take.raw.len() as u64;
        let model = PoreModel::from_parts(k as usize, levels, event_std);
        let reference = Genome::from_seq(name, ref_seq);

        // --- Trailer ---
        if file_len < header_len + TAIL_BYTES {
            return Err(GscError::Truncated {
                what: "index trailer",
            });
        }
        file.seek(SeekFrom::Start(file_len - TAIL_BYTES))?;
        let mut take = Take::new(&mut file, file_len, &mut raw);
        let table_checksum = take.u64("index trailer")?;
        let table_pos = take.u64("index trailer")?;
        let trailer_count = take.u64("index trailer")?;
        if take.bytes(8, "index trailer")? != TRAILER_MAGIC {
            return Err(GscError::BadMagic { section: "trailer" });
        }
        if trailer_count != read_count {
            return Err(GscError::CountMismatch {
                header: read_count,
                trailer: trailer_count,
            });
        }
        let table_bytes = read_count.checked_mul(8).ok_or(GscError::Truncated {
            what: "offset table",
        })?;
        let expected_len = table_pos
            .checked_add(table_bytes)
            .and_then(|v| v.checked_add(TAIL_BYTES));
        if table_pos < header_len || expected_len != Some(file_len) {
            return Err(GscError::Malformed {
                what: "offset table position inconsistent with file size".to_string(),
            });
        }

        // --- Offset table ---
        file.seek(SeekFrom::Start(table_pos))?;
        let mut take = Take::new(&mut file, file_len, &mut raw);
        let table_raw = take.bytes(table_bytes, "offset table")?;
        if checksum(table_raw) != table_checksum {
            return Err(GscError::ChecksumMismatch {
                section: "offset table".to_string(),
            });
        }
        let count = to_usize(read_count, "read count")?;
        let mut offsets = Vec::with_capacity(count);
        for i in 0..count {
            let off = u64::from_le_bytes(table_raw[i * 8..i * 8 + 8].try_into().expect("8 bytes"));
            if off < header_len || off >= table_pos {
                return Err(GscError::OffsetOutOfRange {
                    index: i,
                    offset: off,
                });
            }
            offsets.push(off);
        }

        Ok(GscReader {
            file,
            file_len,
            header_len,
            reference,
            model,
            mean_dwell,
            offsets,
            data_end: table_pos,
            pos: file_len, // position after reading the table; next() reseeks
            next: 0,
            raw,
        })
    }

    /// [`GscReader::open`] followed by [`GscReader::seek_to`].
    ///
    /// # Errors
    ///
    /// Open errors, plus [`GscError::SeekPastEnd`] if `index` exceeds the
    /// read count.
    pub fn open_at(path: impl AsRef<Path>, index: usize) -> Result<GscReader, GscError> {
        let mut reader = GscReader::open(path)?;
        reader.seek_to(index)?;
        Ok(reader)
    }

    /// Positions the sequential cursor so the next read returned is read
    /// `index`. `index == read_count` is allowed and yields an exhausted
    /// reader (the empty suffix).
    ///
    /// # Errors
    ///
    /// [`GscError::SeekPastEnd`] if `index > read_count`.
    pub fn seek_to(&mut self, index: usize) -> Result<(), GscError> {
        if index > self.offsets.len() {
            return Err(GscError::SeekPastEnd {
                index,
                reads: self.offsets.len(),
            });
        }
        self.next = index;
        Ok(())
    }

    /// Reads in the container.
    pub fn read_count(&self) -> usize {
        self.offsets.len()
    }

    /// Index of the read the next sequential [`GscReader::next_record`] returns.
    pub fn next_index(&self) -> usize {
        self.next
    }

    /// The embedded mapping reference.
    pub fn reference(&self) -> &Genome {
        &self.reference
    }

    /// The embedded pore model.
    pub fn pore_model(&self) -> &PoreModel {
        &self.model
    }

    /// The embedded mean dwell (samples per base).
    pub fn mean_dwell(&self) -> f64 {
        self.mean_dwell
    }

    /// The validated per-read offset table (absolute file offsets).
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// Bytes of header (the first record starts here).
    pub fn header_bytes(&self) -> u64 {
        self.header_len
    }

    /// Bytes of header + records (the offset table starts here).
    pub fn data_bytes(&self) -> u64 {
        self.data_end
    }

    /// Total file size in bytes.
    pub fn file_bytes(&self) -> u64 {
        self.file_len
    }

    /// Decodes the next read in sequence, or `None` past the last one.
    ///
    /// # Errors
    ///
    /// [`GscError::ChecksumMismatch`] / [`GscError::Truncated`] /
    /// [`GscError::Malformed`] if the record is corrupt; the cursor does
    /// not advance past a corrupt record.
    pub fn next_record(&mut self) -> Result<Option<SimulatedRead>, GscError> {
        if self.next >= self.offsets.len() {
            return Ok(None);
        }
        let read = self.decode_at(self.next)?;
        self.next += 1;
        Ok(Some(read))
    }

    /// Decodes read `index` via the offset table (O(1) seek), leaving the
    /// sequential cursor at `index + 1`.
    ///
    /// # Errors
    ///
    /// [`GscError::SeekPastEnd`] for a bad index, otherwise as
    /// [`GscReader::next_record`].
    pub fn read_at(&mut self, index: usize) -> Result<SimulatedRead, GscError> {
        if index >= self.offsets.len() {
            return Err(GscError::SeekPastEnd {
                index,
                reads: self.offsets.len(),
            });
        }
        let read = self.decode_at(index)?;
        self.next = index + 1;
        Ok(read)
    }

    /// Decodes and checksums every record.
    ///
    /// # Errors
    ///
    /// The first decode error hit, identifying the corrupt record.
    pub fn verify(&mut self) -> Result<usize, GscError> {
        for i in 0..self.offsets.len() {
            let _ = self.decode_at(i)?;
        }
        self.next = self.offsets.len();
        Ok(self.offsets.len())
    }

    fn decode_at(&mut self, index: usize) -> Result<SimulatedRead, GscError> {
        let offset = self.offsets[index];
        if self.pos != offset {
            self.file.seek(SeekFrom::Start(offset))?;
            self.pos = offset;
        }
        let mut take = Take::new(&mut self.file, self.file_len, &mut self.raw);
        let result = decode_record(&mut take);
        let consumed = take.raw.len() as u64;
        match result {
            Ok((read, stored, hashed_len)) => {
                let recomputed = checksum(&take.raw[..hashed_len]);
                self.pos += consumed;
                if recomputed != stored {
                    return Err(GscError::ChecksumMismatch {
                        section: format!("record {index}"),
                    });
                }
                Ok(read)
            }
            Err(e) => {
                // The stream may be mid-record; force a reseek next time.
                self.pos = u64::MAX;
                Err(e)
            }
        }
    }
}

/// Decodes one record at the cursor, returning the read, the stored
/// checksum, and how many of the consumed bytes the checksum covers.
fn decode_record<R: Read>(take: &mut Take<'_, R>) -> Result<(SimulatedRead, u64, usize), GscError> {
    let id = take.u32("record id")?;
    let noise_sigma = take.f64("record noise sigma")?;
    let origin = match take.u8("record origin")? {
        0 => {
            let start = to_usize(take.u64("record origin")?, "origin start")?;
            let len = to_usize(take.u64("record origin")?, "origin len")?;
            let reverse = match take.u8("record origin")? {
                0 => false,
                1 => true,
                other => {
                    return Err(GscError::Malformed {
                        what: format!("origin strand byte {other}"),
                    })
                }
            };
            ReadOrigin::Reference {
                start,
                len,
                reverse,
            }
        }
        1 => ReadOrigin::Contaminant,
        other => {
            return Err(GscError::Malformed {
                what: format!("origin tag {other}"),
            })
        }
    };
    let truth = take.seq("record truth")?;
    let sample_count = take.u64("record samples")?;
    let sample_bytes = sample_count.checked_mul(4).ok_or(GscError::Truncated {
        what: "record samples",
    })?;
    to_usize(sample_count, "sample count")?;
    let samples = take
        .bytes(sample_bytes, "record samples")?
        .chunks_exact(4)
        .map(|b| f32::from_le_bytes(b.try_into().expect("4 bytes")))
        .collect();
    let base_index = take
        .bytes(sample_bytes, "record base index")?
        .chunks_exact(4)
        .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
        .collect();
    let hashed_len = take.raw.len();
    let stored = take.u64("record checksum")?;
    let read = SimulatedRead {
        id,
        signal: ReadSignal {
            samples,
            base_index,
            truth,
        },
        origin,
        noise_sigma,
    };
    Ok((read, stored, hashed_len))
}

// ---------------------------------------------------------------------------
// ReadSource adapter
// ---------------------------------------------------------------------------

/// A cloneable handle onto a [`GscReadSource`]'s sticky error slot: the
/// source itself is moved into the session, so callers keep this handle to
/// learn, after the run, whether the stream ended because the file was
/// exhausted or because a record failed to decode.
#[derive(Clone)]
pub struct GscStatus(Arc<Mutex<Option<GscError>>>);

impl GscStatus {
    /// `true` if no decode error has struck.
    pub fn is_ok(&self) -> bool {
        self.0.lock().expect("status poisoned").is_none()
    }

    /// The error message, if a decode error has struck.
    pub fn error(&self) -> Option<String> {
        self.0
            .lock()
            .expect("status poisoned")
            .as_ref()
            .map(|e| e.to_string())
    }

    /// Takes the typed error out of the slot, if any.
    pub fn take(&self) -> Option<GscError> {
        self.0.lock().expect("status poisoned").take()
    }
}

/// A [`ReadSource`] over a GSC file: the on-disk twin of
/// `StreamingSimulator`, bit-identical to the source the file was packed
/// from (same reads in the same order, with the same chemistry and
/// reference).
///
/// `ReadSource::next_read` cannot return errors, so a record that fails to
/// decode mid-stream ends the stream early (the source reports `None` from
/// then on) and parks the typed [`GscError`] in the source's
/// [`GscStatus`] — check it after the session to distinguish exhaustion
/// from corruption.
pub struct GscReadSource {
    reader: GscReader,
    status: GscStatus,
}

impl GscReadSource {
    /// Opens a container for streaming from read 0.
    ///
    /// # Errors
    ///
    /// Any [`GscError`] from [`GscReader::open`].
    pub fn open(path: impl AsRef<Path>) -> Result<GscReadSource, GscError> {
        Ok(GscReadSource::from_reader(GscReader::open(path)?))
    }

    /// Opens a container positioned at read `index` — the mid-session
    /// attach / resume entry point.
    ///
    /// # Errors
    ///
    /// Open errors, plus [`GscError::SeekPastEnd`] if `index` exceeds the
    /// read count.
    pub fn open_at(path: impl AsRef<Path>, index: usize) -> Result<GscReadSource, GscError> {
        Ok(GscReadSource::from_reader(GscReader::open_at(path, index)?))
    }

    /// Wraps an already-open (and possibly repositioned) reader.
    pub fn from_reader(reader: GscReader) -> GscReadSource {
        GscReadSource {
            reader,
            status: GscStatus(Arc::new(Mutex::new(None))),
        }
    }

    /// A handle onto the sticky decode-error slot, for inspection after
    /// the source has been moved into a session.
    pub fn status(&self) -> GscStatus {
        self.status.clone()
    }

    /// The underlying reader.
    pub fn reader(&self) -> &GscReader {
        &self.reader
    }
}

impl ReadSource for GscReadSource {
    fn reference(&self) -> &Genome {
        self.reader.reference()
    }

    fn pore_model(&self) -> &PoreModel {
        self.reader.pore_model()
    }

    fn mean_dwell(&self) -> f64 {
        self.reader.mean_dwell()
    }

    fn next_read(&mut self) -> Option<SimulatedRead> {
        if !self.status.is_ok() {
            return None;
        }
        match self.reader.next_record() {
            Ok(read) => read,
            Err(e) => {
                *self.status.0.lock().expect("status poisoned") = Some(e);
                None
            }
        }
    }

    fn reads_remaining(&self) -> Option<usize> {
        if !self.status.is_ok() {
            return Some(0);
        }
        Some(self.reader.read_count() - self.reader.next_index())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genpip_datasets::{DatasetProfile, StreamingSimulator};
    use genpip_genomics::rng::{seeded, Rng};
    use genpip_genomics::GenomeBuilder;
    use genpip_signal::SignalSynthesizer;
    use std::path::PathBuf;

    fn temp_path(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("genpip-gsc-unit-{tag}-{}.gsc", std::process::id()));
        p
    }

    fn tiny() -> DatasetProfile {
        DatasetProfile::ecoli().scaled(0.02)
    }

    fn pack_tiny(tag: &str) -> PathBuf {
        let path = temp_path(tag);
        let mut source = StreamingSimulator::new(&tiny());
        pack_source(&path, &mut source).expect("pack");
        path
    }

    #[test]
    fn round_trips_bit_exactly() {
        let path = pack_tiny("roundtrip");
        let mut reader = GscReader::open(&path).expect("open");
        assert_eq!(
            reader.pore_model(),
            StreamingSimulator::new(&tiny()).pore_model()
        );
        assert_eq!(
            reader.reference(),
            StreamingSimulator::new(&tiny()).reference()
        );
        let mut expected = StreamingSimulator::new(&tiny());
        assert_eq!(
            reader.mean_dwell().to_bits(),
            expected.mean_dwell().to_bits()
        );
        let mut seen = 0;
        while let Some(read) = reader.next_record().expect("decode") {
            assert_eq!(Some(read), expected.next_read());
            seen += 1;
        }
        assert_eq!(expected.next_read(), None);
        assert_eq!(seen, reader.read_count());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn read_at_seeks_anywhere() {
        let path = pack_tiny("seek");
        let mut reader = GscReader::open(&path).expect("open");
        let n = reader.read_count();
        assert!(n >= 3, "need a few reads");
        let last = reader.read_at(n - 1).expect("decode last");
        let first = reader.read_at(0).expect("decode first");
        assert_eq!(first.id, 0);
        assert_eq!(last.id, (n - 1) as u32);
        // Sequential cursor follows the last random read.
        assert_eq!(reader.next_index(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_at_streams_the_suffix() {
        let path = pack_tiny("openat");
        let n = GscReader::open(&path).expect("open").read_count();
        let mut source = GscReadSource::open_at(&path, n - 2).expect("open_at");
        assert_eq!(source.reads_remaining(), Some(2));
        assert_eq!(source.next_read().expect("read").id, (n - 2) as u32);
        assert_eq!(source.next_read().expect("read").id, (n - 1) as u32);
        assert_eq!(source.next_read(), None);
        assert!(source.status().is_ok());
        // The empty suffix is a valid position…
        assert!(GscReader::open_at(&path, n).is_ok());
        // …one past it is not.
        assert!(matches!(
            GscReader::open_at(&path, n + 1),
            Err(GscError::SeekPastEnd { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_file_is_a_typed_error() {
        let path = pack_tiny("trunc");
        let bytes = std::fs::read(&path).expect("read");
        for keep in [0usize, 4, 20, bytes.len() / 2, bytes.len() - 1] {
            std::fs::write(&path, &bytes[..keep]).expect("write");
            let err = GscReader::open(&path).expect_err("must fail");
            assert!(
                matches!(
                    err,
                    GscError::Truncated { .. }
                        | GscError::BadMagic { .. }
                        | GscError::ChecksumMismatch { .. }
                        | GscError::Malformed { .. }
                        | GscError::CountMismatch { .. }
                        | GscError::OffsetOutOfRange { .. }
                ),
                "unexpected error for keep={keep}: {err}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unfinished_writer_leaves_an_unopenable_file() {
        let path = temp_path("unfinished");
        let profile = tiny();
        let mut source = StreamingSimulator::new(&profile);
        let model = source.pore_model().clone();
        let reference = source.reference().clone();
        let meta = GscMeta {
            pore_model: &model,
            mean_dwell: source.mean_dwell(),
            reference: &reference,
        };
        let mut writer = GscWriter::create(&path, &meta).expect("create");
        let read = source.next_read().expect("read");
        writer.write_read(&read).expect("write");
        drop(writer); // no finish(): no trailer, zero read count
        assert!(GscReader::open(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_record_is_a_checksum_mismatch() {
        let path = pack_tiny("flip");
        let mut bytes = std::fs::read(&path).expect("read");
        let reader = GscReader::open(&path).expect("open");
        // Flip one byte in the middle of record 0's payload.
        let at = (reader.offsets()[0] + 20) as usize;
        drop(reader);
        bytes[at] ^= 0xFF;
        std::fs::write(&path, &bytes).expect("write");
        let mut reader = GscReader::open(&path).expect("header still fine");
        let err = reader.verify().expect_err("corrupt record");
        assert!(
            matches!(&err, GscError::ChecksumMismatch { section } if section.contains("record"))
                || matches!(err, GscError::Malformed { .. } | GscError::Truncated { .. }),
            "unexpected: {err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn source_parks_decode_errors_in_status() {
        let path = pack_tiny("status");
        let mut bytes = std::fs::read(&path).expect("read");
        let reader = GscReader::open(&path).expect("open");
        let n = reader.read_count();
        let at = (reader.offsets()[n - 1] + 16) as usize;
        drop(reader);
        bytes[at] ^= 0x01;
        std::fs::write(&path, &bytes).expect("write");
        let mut source = GscReadSource::open(&path).expect("open");
        let status = source.status();
        let mut streamed = 0;
        while source.next_read().is_some() {
            streamed += 1;
        }
        assert_eq!(streamed, n - 1, "stream stops at the corrupt record");
        assert!(!status.is_ok());
        assert!(status.error().expect("error").contains("record"));
        assert!(matches!(
            status.take(),
            Some(GscError::ChecksumMismatch { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    fn random_bytes(rng: &mut impl Rng, len: usize) -> Vec<u8> {
        (0..len).map(|_| rng.random::<u8>()).collect()
    }

    #[test]
    fn streaming_checksum_equals_one_shot_at_every_split() {
        let mut rng = seeded(0xC5_0001);
        for len in 0..=200 {
            let bytes = random_bytes(&mut rng, len);
            let whole = checksum(&bytes);
            for split in 0..=len {
                let mut c = Checksum::new();
                c.update(&bytes[..split]);
                c.update(&bytes[split..]);
                assert_eq!(c.digest(), whole, "len {len}, split at {split}");
            }
            let mut bytewise = Checksum::new();
            for b in &bytes {
                bytewise.update(std::slice::from_ref(b));
            }
            assert_eq!(bytewise.digest(), whole, "len {len}, byte by byte");
        }
    }

    #[test]
    fn every_single_bit_flip_changes_the_checksum() {
        let mut rng = seeded(0xC5_0002);
        for len in 1..=100 {
            let bytes = random_bytes(&mut rng, len);
            let whole = checksum(&bytes);
            for pos in 0..len {
                for bit in 0..8 {
                    let mut flipped = bytes.clone();
                    flipped[pos] ^= 1 << bit;
                    assert_ne!(
                        checksum(&flipped),
                        whole,
                        "len {len}, byte {pos}, bit {bit}"
                    );
                }
            }
        }
    }

    #[test]
    fn checksum_definition_is_pinned() {
        // The container format is these digests: a change here is a new
        // `VERSION`, not a refactor.
        assert_eq!(checksum(b""), 0x7f6e_4d21_b650_a5a3);
        assert_eq!(checksum(b"GENPIPSC"), 0x8e24_25a1_0c52_25c8);
        let counting: Vec<u8> = (0..=99).collect();
        assert_eq!(checksum(&counting), 0xaba9_45b7_4717_588b);
    }

    /// A container small enough to flip every bit of: a k = 1 pore model, a
    /// 40-base reference, and two short reads, one of each origin kind.
    fn pack_small(path: &Path) {
        let model = PoreModel::synthetic(1, 3);
        let synth = SignalSynthesizer::new(model.clone());
        let reference = GenomeBuilder::new(40).seed(5).name("small").build();
        let meta = GscMeta {
            pore_model: &model,
            mean_dwell: synth.mean_dwell(),
            reference: &reference,
        };
        let mut writer = GscWriter::create(path, &meta).expect("create");
        let origins = [
            ReadOrigin::Reference {
                start: 3,
                len: 6,
                reverse: true,
            },
            ReadOrigin::Contaminant,
        ];
        for (id, origin) in (0u32..).zip(origins) {
            let truth = reference.sequence().subseq(3 + id as usize, 6);
            let read = SimulatedRead {
                id,
                signal: synth.synthesize(&truth, 1.0, u64::from(id)),
                origin,
                noise_sigma: 1.0,
            };
            writer.write_read(&read).expect("write");
        }
        writer.finish().expect("finish");
    }

    #[test]
    fn every_bit_flip_of_a_small_container_is_a_typed_error() {
        let path = temp_path("small");
        pack_small(&path);
        let pristine = std::fs::read(&path).expect("read");
        let mut clean = GscReadSource::open(&path).expect("pristine opens");
        while clean.next_read().is_some() {}
        assert!(clean.status().is_ok(), "pristine container streams clean");
        let corrupt_path = temp_path("small-flipped");
        for pos in 0..pristine.len() {
            for bit in 0..8 {
                let mut corrupt = pristine.clone();
                corrupt[pos] ^= 1 << bit;
                std::fs::write(&corrupt_path, &corrupt).expect("write corrupt copy");
                let detected = match GscReadSource::open(&corrupt_path) {
                    Err(_) => true,
                    Ok(mut source) => {
                        while source.next_read().is_some() {}
                        !source.status().is_ok()
                    }
                };
                assert!(detected, "flip of bit {bit} at byte {pos} went undetected");
            }
        }
        std::fs::remove_file(&corrupt_path).ok();
        std::fs::remove_file(&path).ok();
    }

    /// A source that reports `mean_dwell` over the tiny profile's reads.
    struct Dwell(StreamingSimulator, f64);

    impl ReadSource for Dwell {
        fn reference(&self) -> &Genome {
            self.0.reference()
        }
        fn pore_model(&self) -> &PoreModel {
            self.0.pore_model()
        }
        fn mean_dwell(&self) -> f64 {
            self.1
        }
        fn next_read(&mut self) -> Option<SimulatedRead> {
            self.0.next_read()
        }
    }

    #[test]
    fn packing_refuses_a_dwell_the_basecaller_cannot_decode_with() {
        for dwell in [1.0, 0.5, 0.0, -3.0, f64::NAN, f64::INFINITY] {
            let path = temp_path("dwell-pack");
            let mut source = Dwell(StreamingSimulator::new(&tiny()), dwell);
            let err = pack_source(&path, &mut source).expect_err("refused");
            assert!(matches!(err, GscError::Malformed { .. }), "{dwell}: {err}");
            assert!(err.to_string().contains("mean dwell"), "{err}");
            assert!(!path.exists(), "no file is created for dwell {dwell}");
        }
        // Just above one sample per base is a valid (if odd) chemistry.
        let path = temp_path("dwell-pack-ok");
        let mut source = Dwell(StreamingSimulator::new(&tiny()), 1.0 + 1e-9);
        pack_source(&path, &mut source).expect("packs");
        assert_eq!(
            GscReader::open(&path).expect("opens").mean_dwell(),
            1.0 + 1e-9
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_header_with_a_dwell_of_one_is_malformed_not_a_later_panic() {
        // A header that reports a dwell of one sample per base, checksummed
        // as a writer would: the checksum passes, the value does not.
        let path = temp_path("dwell-read");
        pack_small(&path);
        let header_len = GscReader::open(&path).expect("open").header_bytes() as usize;
        let pristine = std::fs::read(&path).expect("read");
        // magic 8 · version 4 · flags 4 · k 4 · event std 4, then the dwell.
        for dwell in [1.0f64, 0.25] {
            let mut bytes = pristine.clone();
            bytes[24..32].copy_from_slice(&dwell.to_le_bytes());
            let digest = checksum(&bytes[..header_len - 8]);
            bytes[header_len - 8..header_len].copy_from_slice(&digest.to_le_bytes());
            std::fs::write(&path, &bytes).expect("write");
            let err = GscReader::open(&path).expect_err("refused at open");
            assert!(matches!(err, GscError::Malformed { .. }), "{dwell}: {err}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_version_1_container_is_refused() {
        let path = temp_path("v1");
        pack_small(&path);
        let mut bytes = std::fs::read(&path).expect("read");
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        std::fs::write(&path, &bytes).expect("write");
        let err = GscReader::open(&path).expect_err("version 1 is refused");
        assert!(
            matches!(err, GscError::UnsupportedVersion { found: 1 }),
            "unexpected: {err}"
        );
        assert!(err.to_string().contains("version 1"), "{err}");
        std::fs::remove_file(&path).ok();
    }
}
