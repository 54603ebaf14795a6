//! Minimal FASTA/FASTQ serialization.
//!
//! The reproduction keeps everything in memory, but examples and users need a
//! way to inspect and exchange data with standard tooling, so reads and
//! genomes round-trip through the ubiquitous text formats.

use crate::genome::Genome;
use crate::quality::Phred;
use crate::read::{Read, ReadOrigin, ReadSet};
use crate::seq::DnaSeq;
use std::fmt;
use std::io::{self, BufRead, Write};

/// Error produced while parsing FASTA/FASTQ text.
#[derive(Debug)]
pub enum ParseFastxError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structural problem with the text, with a line number (1-based).
    Malformed {
        /// 1-based line number of the offending line.
        line: usize,
        /// Human-readable description.
        reason: String,
    },
}

impl fmt::Display for ParseFastxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseFastxError::Io(e) => write!(f, "i/o error: {e}"),
            ParseFastxError::Malformed { line, reason } => {
                write!(f, "malformed record at line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for ParseFastxError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParseFastxError::Io(e) => Some(e),
            ParseFastxError::Malformed { .. } => None,
        }
    }
}

impl From<io::Error> for ParseFastxError {
    fn from(e: io::Error) -> ParseFastxError {
        ParseFastxError::Io(e)
    }
}

/// Writes a genome as FASTA with 80-column wrapping.
///
/// # Errors
///
/// Returns any I/O error from the writer.
pub fn write_fasta<W: Write>(mut w: W, genome: &Genome) -> io::Result<()> {
    writeln!(w, ">{}", genome.name())?;
    let s = genome.sequence().to_string();
    for chunk in s.as_bytes().chunks(80) {
        w.write_all(chunk)?;
        writeln!(w)?;
    }
    Ok(())
}

/// Reads the first record of a FASTA stream as a genome.
///
/// # Errors
///
/// Returns [`ParseFastxError::Malformed`] if the stream does not start with a
/// `>` header or contains non-ACGT characters, and [`ParseFastxError::Io`]
/// for reader failures.
pub fn read_fasta<R: BufRead>(r: R) -> Result<Genome, ParseFastxError> {
    let mut name = None;
    let mut seq = DnaSeq::new();
    for (idx, line) in r.lines().enumerate() {
        let line = line?;
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(header) = line.strip_prefix('>') {
            if name.is_some() {
                break; // only the first record
            }
            name = Some(header.trim().to_string());
        } else {
            if name.is_none() {
                return Err(ParseFastxError::Malformed {
                    line: idx + 1,
                    reason: "sequence data before '>' header".to_string(),
                });
            }
            for c in line.chars() {
                seq.push(crate::base::Base::try_from(c).map_err(|e| {
                    ParseFastxError::Malformed {
                        line: idx + 1,
                        reason: e.to_string(),
                    }
                })?);
            }
        }
    }
    let name = name.ok_or(ParseFastxError::Malformed {
        line: 1,
        reason: "empty FASTA stream".to_string(),
    })?;
    Ok(Genome::from_seq(name, seq))
}

/// An incremental FASTQ record writer: the streaming counterpart of
/// [`write_fastq`], for pipelines that emit reads one at a time (e.g. a
/// session sink) and never hold a whole [`ReadSet`].
///
/// Records use `@<name>` headers and Sanger-encoded qualities and
/// round-trip through [`read_fastq`].
///
/// Dropping the writer flushes it (best-effort, errors swallowed), so a
/// drained or checkpointed streaming run never leaves a partially buffered
/// final record behind; call [`FastqWriter::finish`] to observe flush
/// errors instead.
pub struct FastqWriter<W: Write> {
    /// `Some` until [`FastqWriter::finish`] takes the writer out; the
    /// `Option` exists so `Drop` and `finish` can coexist.
    inner: Option<W>,
    records: usize,
    /// The record being built, reused from record to record.
    record: Vec<u8>,
}

/// ASCII of each base, indexed by [`crate::Base::code`].
const BASE_ASCII: [u8; 4] = *b"ACGT";

impl<W: Write> FastqWriter<W> {
    /// Wraps a writer (hand it a `BufWriter` for file output).
    pub fn new(inner: W) -> FastqWriter<W> {
        FastqWriter {
            inner: Some(inner),
            records: 0,
            record: Vec::new(),
        }
    }

    fn writer(&mut self) -> &mut W {
        self.inner.as_mut().expect("writer taken by finish")
    }

    /// Appends one record: `@name`, the bases, `+`, the Sanger qualities,
    /// each line `\n`-terminated, built in a reused buffer and handed to the
    /// writer in one `write_all`.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the underlying writer.
    pub fn write_record(&mut self, name: &str, seq: &DnaSeq, quals: &[Phred]) -> io::Result<()> {
        debug_assert_eq!(seq.len(), quals.len(), "one quality per base");
        let record = &mut self.record;
        record.clear();
        record.push(b'@');
        record.extend_from_slice(name.as_bytes());
        record.push(b'\n');
        record.extend(seq.iter().map(|b| BASE_ASCII[usize::from(b.code())]));
        record.extend_from_slice(b"\n+\n");
        record.extend(quals.iter().map(|q| q.to_fastq_char() as u8));
        record.push(b'\n');
        self.inner
            .as_mut()
            .expect("writer taken by finish")
            .write_all(&self.record)?;
        self.records += 1;
        Ok(())
    }

    /// Records written so far.
    pub fn records(&self) -> usize {
        self.records
    }

    /// Flushes, then reports the writer's byte position — the offset a
    /// resumed run truncates the output file to before appending.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the flush or the seek.
    pub fn position(&mut self) -> io::Result<u64>
    where
        W: io::Seek,
    {
        let w = self.writer();
        w.flush()?;
        w.stream_position()
    }

    /// Flushes and returns the underlying writer.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the flush.
    pub fn finish(mut self) -> io::Result<W> {
        let mut inner = self.inner.take().expect("writer taken by finish");
        inner.flush()?;
        Ok(inner)
    }
}

impl<W: Write> Drop for FastqWriter<W> {
    /// Best-effort flush so buffered records survive an un-`finish`ed drop
    /// (e.g. a sink discarded after a drain). Errors are swallowed — use
    /// [`FastqWriter::finish`] to observe them.
    fn drop(&mut self) {
        if let Some(w) = self.inner.as_mut() {
            let _ = w.flush();
        }
    }
}

/// Writes a read set as FASTQ (`@read<id>` headers, Sanger qualities).
///
/// # Errors
///
/// Returns any I/O error from the writer.
pub fn write_fastq<W: Write>(w: W, reads: &ReadSet) -> io::Result<()> {
    let mut writer = FastqWriter::new(w);
    for read in reads {
        writer.write_record(&format!("read{}", read.id), &read.seq, &read.quals)?;
    }
    Ok(())
}

/// Parses a FASTQ stream into a read set.
///
/// FASTQ carries no ground truth, so each read is assigned a placeholder
/// zero-length [`ReadOrigin::Reference`] origin; [`ReadOrigin::Contaminant`]
/// is reserved for simulator-labelled contaminants.
///
/// # Errors
///
/// Returns [`ParseFastxError::Malformed`] for truncated records, length
/// mismatches, or invalid characters.
pub fn read_fastq<R: BufRead>(r: R) -> Result<ReadSet, ParseFastxError> {
    let mut lines = r.lines().enumerate();
    let mut reads = ReadSet::new();
    let mut next_id = 0u32;
    while let Some((idx, header)) = lines.next() {
        let header = header?;
        if header.trim().is_empty() {
            continue;
        }
        if !header.starts_with('@') {
            return Err(ParseFastxError::Malformed {
                line: idx + 1,
                reason: "expected '@' header".to_string(),
            });
        }
        let mut take = |what: &str| -> Result<(usize, String), ParseFastxError> {
            match lines.next() {
                Some((i, l)) => Ok((i, l?)),
                None => Err(ParseFastxError::Malformed {
                    line: idx + 1,
                    reason: format!("truncated record: missing {what}"),
                }),
            }
        };
        let (seq_line_no, seq_line) = take("sequence line")?;
        let (_, _plus) = take("'+' separator")?;
        let (qual_line_no, qual_line) = take("quality line")?;

        let seq: DnaSeq =
            seq_line
                .trim_end()
                .parse()
                .map_err(
                    |e: crate::base::ParseBaseError| ParseFastxError::Malformed {
                        line: seq_line_no + 1,
                        reason: e.to_string(),
                    },
                )?;
        let mut quals = Vec::with_capacity(seq.len());
        for c in qual_line.trim_end().chars() {
            quals.push(Phred::from_fastq_char(c).ok_or(ParseFastxError::Malformed {
                line: qual_line_no + 1,
                reason: format!("invalid quality character {c:?}"),
            })?);
        }
        if quals.len() != seq.len() {
            return Err(ParseFastxError::Malformed {
                line: qual_line_no + 1,
                reason: format!(
                    "quality length {} does not match sequence length {}",
                    quals.len(),
                    seq.len()
                ),
            });
        }
        reads.push(Read::new(
            next_id,
            seq,
            quals,
            ReadOrigin::Reference {
                start: 0,
                len: 0,
                reverse: false,
            },
        ));
        next_id += 1;
    }
    Ok(reads)
}

#[cfg(test)]
mod differential;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GenomeBuilder;

    #[test]
    fn fasta_round_trip() {
        let genome = GenomeBuilder::new(333).seed(1).name("rt").build();
        let mut buf = Vec::new();
        write_fasta(&mut buf, &genome).unwrap();
        let parsed = read_fasta(buf.as_slice()).unwrap();
        assert_eq!(parsed.name(), "rt");
        assert_eq!(parsed.sequence(), genome.sequence());
    }

    #[test]
    fn fasta_wraps_lines() {
        let genome = GenomeBuilder::new(200).seed(2).build();
        let mut buf = Vec::new();
        write_fasta(&mut buf, &genome).unwrap();
        let text = String::from_utf8(buf).unwrap();
        for line in text.lines().skip(1) {
            assert!(line.len() <= 80);
        }
    }

    #[test]
    fn fasta_rejects_headerless_stream() {
        let err = read_fasta("ACGT\n".as_bytes()).unwrap_err();
        assert!(matches!(err, ParseFastxError::Malformed { line: 1, .. }));
    }

    #[test]
    fn fastq_round_trip() {
        let mut reads = ReadSet::new();
        let seq: DnaSeq = "ACGTACGT".parse().unwrap();
        let quals: Vec<Phred> = (0..8).map(|i| Phred(i as f32)).collect();
        reads.push(Read::new(
            0,
            seq.clone(),
            quals.clone(),
            ReadOrigin::Reference {
                start: 0,
                len: 0,
                reverse: false,
            },
        ));
        let mut buf = Vec::new();
        write_fastq(&mut buf, &reads).unwrap();
        let parsed = read_fastq(buf.as_slice()).unwrap();
        assert_eq!(parsed.len(), 1);
        let read = parsed.iter().next().unwrap();
        assert_eq!((&read.seq, &read.quals), (&seq, &quals));
    }

    #[test]
    fn incremental_writer_matches_batch_writer() {
        let mut reads = ReadSet::new();
        for (i, s) in ["ACGT", "GGCA", "TTAACC"].iter().enumerate() {
            let seq: DnaSeq = s.parse().unwrap();
            let quals: Vec<Phred> = (0..seq.len()).map(|q| Phred(q as f32)).collect();
            reads.push(Read::new(
                i as u32,
                seq,
                quals,
                ReadOrigin::Reference {
                    start: 0,
                    len: 0,
                    reverse: false,
                },
            ));
        }
        let mut batch = Vec::new();
        write_fastq(&mut batch, &reads).unwrap();
        let mut incremental = FastqWriter::new(Vec::new());
        for read in &reads {
            incremental
                .write_record(&format!("read{}", read.id), &read.seq, &read.quals)
                .unwrap();
        }
        assert_eq!(incremental.records(), reads.len());
        assert_eq!(incremental.finish().unwrap(), batch);
    }

    #[test]
    fn incremental_writer_flushes_on_drop() {
        // A buffered writer abandoned mid-run (the drained-session case)
        // must still land every record it accepted on disk.
        let mut path = std::env::temp_dir();
        path.push(format!("genpip-fastx-drop-{}.fastq", std::process::id()));
        let seq: DnaSeq = "ACGTACGT".parse().unwrap();
        let quals: Vec<Phred> = (0..seq.len()).map(|q| Phred(q as f32)).collect();
        {
            let file = std::fs::File::create(&path).unwrap();
            let mut writer = FastqWriter::new(std::io::BufWriter::new(file));
            for i in 0..3 {
                writer
                    .write_record(&format!("read{i}"), &seq, &quals)
                    .unwrap();
            }
            // Dropped without finish(): the BufWriter still holds the
            // records unless FastqWriter's drop flushes it first.
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let parsed = read_fastq(text.as_bytes()).unwrap();
        assert_eq!(parsed.len(), 3, "all buffered records reached disk");
        assert!(text.ends_with('\n'), "no partial final record");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn incremental_writer_reports_flushed_position() {
        let mut path = std::env::temp_dir();
        path.push(format!("genpip-fastx-pos-{}.fastq", std::process::id()));
        let seq: DnaSeq = "ACGT".parse().unwrap();
        let quals: Vec<Phred> = (0..seq.len()).map(|q| Phred(q as f32)).collect();
        let file = std::fs::File::create(&path).unwrap();
        let mut writer = FastqWriter::new(std::io::BufWriter::new(file));
        writer.write_record("a", &seq, &quals).unwrap();
        let after_one = writer.position().unwrap();
        assert_eq!(
            after_one,
            std::fs::metadata(&path).unwrap().len(),
            "position() flushed the record"
        );
        writer.write_record("b", &seq, &quals).unwrap();
        let after_two = writer.position().unwrap();
        assert!(after_two > after_one);
        writer.finish().unwrap();
        assert_eq!(after_two, std::fs::metadata(&path).unwrap().len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fastq_rejects_length_mismatch() {
        let text = "@r\nACGT\n+\n!!\n";
        let err = read_fastq(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("does not match"));
    }

    #[test]
    fn fastq_rejects_truncated_record() {
        let text = "@r\nACGT\n";
        let err = read_fastq(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("truncated"));
    }

    #[test]
    fn fastq_rejects_bad_header() {
        let text = "read1\nACGT\n+\n!!!!\n";
        assert!(read_fastq(text.as_bytes()).is_err());
    }
}
