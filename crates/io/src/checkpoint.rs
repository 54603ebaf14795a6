//! Session checkpoint files: the on-disk cut a streaming run leaves behind
//! so a killed run can restart and produce a byte-identical output suffix.
//!
//! A checkpoint records, per source, how many reads have been **emitted**
//! (results delivered in order through the sink — the resume offset for a
//! seekable source) and how many of those were quarantined faults, plus,
//! for runs writing FASTQ, the flushed byte offset of each output file.
//! Emission is in-order per source, so the
//! emitted count is exactly the prefix of the source that is fully
//! persisted: resuming means reopening each source at its offset (e.g.
//! [`crate::GscReadSource::open_at`]), truncating each output file to its
//! recorded byte offset, and streaming on.
//!
//! The format is a small, versioned, line-oriented text file (one artifact
//! a human can read in an editor when a run dies), written atomically
//! (temp file + rename) so a crash mid-checkpoint never destroys the
//! previous good checkpoint.

use std::fmt;
use std::io::{self, Write};
use std::path::Path;

/// First line of every checkpoint file.
const HEADER: &str = "genpip-checkpoint v1";

/// Why a checkpoint file could not be read.
#[derive(Debug)]
pub enum CheckpointError {
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

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "i/o error: {e}"),
            CheckpointError::Malformed { line, reason } => {
                write!(f, "malformed checkpoint at line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            CheckpointError::Malformed { .. } => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> CheckpointError {
        CheckpointError::Io(e)
    }
}

/// One source's resume state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceMark {
    /// The source's registered name.
    pub name: String,
    /// Reads emitted in order so far — the read index to resume the source
    /// at.
    pub emitted: u64,
    /// …of which quarantined faults.
    pub failed: u64,
}

/// One output file's resume state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FastqMark {
    /// The source whose records the file holds.
    pub source: String,
    /// Flushed size of the file at the checkpoint; resume truncates to
    /// this before appending.
    pub bytes: u64,
}

/// A parsed (or to-be-written) checkpoint file.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CheckpointFile {
    /// Per-source resume state, in registration order.
    pub sources: Vec<SourceMark>,
    /// Per-output-file resume state (absent for runs not writing FASTQ).
    pub fastq: Vec<FastqMark>,
    /// Always 0 in files written since PR 23 (the engine no longer
    /// retries a faulted read). The field and its `retried N` line stay so
    /// v1 files written by earlier builds still load, and because
    /// `benchmarks/src/session.rs` sets it; they go with the `benchmark`
    /// PR that retires `engine.retried`.
    pub retried: u64,
    /// `true` if this checkpoint marks a completed (fully drained) run.
    pub complete: bool,
}

impl CheckpointFile {
    /// The source mark registered under `name`, if any.
    pub fn source(&self, name: &str) -> Option<&SourceMark> {
        self.sources.iter().find(|s| s.name == name)
    }

    /// The output mark for source `name`, if any.
    pub fn fastq_for(&self, name: &str) -> Option<&FastqMark> {
        self.fastq.iter().find(|f| f.source == name)
    }

    /// Renders the file's text form.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(HEADER);
        out.push('\n');
        for s in &self.sources {
            out.push_str(&format!("source {} {} {}\n", s.emitted, s.failed, s.name));
        }
        for f in &self.fastq {
            out.push_str(&format!("fastq {} {}\n", f.bytes, f.source));
        }
        out.push_str(&format!("retried {}\n", self.retried));
        out.push_str(&format!("complete {}\n", if self.complete { 1 } else { 0 }));
        out
    }

    /// Parses the text form.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Malformed`] with the offending line for any
    /// structural problem.
    pub fn parse(text: &str) -> Result<CheckpointFile, CheckpointError> {
        let malformed = |line: usize, reason: &str| CheckpointError::Malformed {
            line,
            reason: reason.to_string(),
        };
        let mut lines = text.lines().enumerate();
        match lines.next() {
            Some((_, first)) if first.trim() == HEADER => {}
            Some((_, first)) => {
                return Err(malformed(
                    1,
                    &format!("expected {HEADER:?}, found {first:?}"),
                ))
            }
            None => return Err(malformed(1, "empty checkpoint")),
        }
        let mut file = CheckpointFile::default();
        for (idx, line) in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let lineno = idx + 1;
            let (keyword, rest) = line.split_once(' ').unwrap_or((line, ""));
            match keyword {
                "source" => {
                    let mut parts = rest.splitn(3, ' ');
                    let emitted = parts
                        .next()
                        .and_then(|v| v.parse::<u64>().ok())
                        .ok_or_else(|| malformed(lineno, "source line needs a count"))?;
                    let failed = parts
                        .next()
                        .and_then(|v| v.parse::<u64>().ok())
                        .ok_or_else(|| malformed(lineno, "source line needs a fault count"))?;
                    let name = parts
                        .next()
                        .filter(|n| !n.is_empty())
                        .ok_or_else(|| malformed(lineno, "source line needs a name"))?;
                    if failed > emitted {
                        return Err(malformed(lineno, "more faults than emitted reads"));
                    }
                    file.sources.push(SourceMark {
                        name: name.to_string(),
                        emitted,
                        failed,
                    });
                }
                "fastq" => {
                    let mut parts = rest.splitn(2, ' ');
                    let bytes = parts
                        .next()
                        .and_then(|v| v.parse::<u64>().ok())
                        .ok_or_else(|| malformed(lineno, "fastq line needs a byte offset"))?;
                    let source = parts
                        .next()
                        .filter(|n| !n.is_empty())
                        .ok_or_else(|| malformed(lineno, "fastq line needs a source name"))?;
                    file.fastq.push(FastqMark {
                        source: source.to_string(),
                        bytes,
                    });
                }
                "retried" => {
                    file.retried = rest
                        .parse::<u64>()
                        .map_err(|_| malformed(lineno, "retried needs a count"))?;
                }
                "complete" => {
                    file.complete = match rest {
                        "0" => false,
                        "1" => true,
                        _ => return Err(malformed(lineno, "complete must be 0 or 1")),
                    };
                }
                other => {
                    return Err(malformed(lineno, &format!("unknown keyword {other:?}")));
                }
            }
        }
        Ok(file)
    }

    /// Writes the checkpoint atomically: render to `<path>.tmp`, flush, then
    /// rename over `path` — a crash mid-write never clobbers the previous
    /// checkpoint.
    ///
    /// # Errors
    ///
    /// Any I/O error from the write or rename.
    pub fn write_atomic(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(self.render().as_bytes())?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)
    }

    /// Loads and parses a checkpoint file.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] if the file cannot be read,
    /// [`CheckpointError::Malformed`] if it does not parse.
    pub fn load(path: impl AsRef<Path>) -> Result<CheckpointFile, CheckpointError> {
        let text = std::fs::read_to_string(path)?;
        CheckpointFile::parse(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CheckpointFile {
        CheckpointFile {
            sources: vec![
                SourceMark {
                    name: "flowcell-a".to_string(),
                    emitted: 41,
                    failed: 2,
                },
                SourceMark {
                    name: "b with spaces".to_string(),
                    emitted: 7,
                    failed: 0,
                },
            ],
            fastq: vec![FastqMark {
                source: "flowcell-a".to_string(),
                bytes: 12345,
            }],
            retried: 3,
            complete: false,
        }
    }

    #[test]
    fn render_parse_round_trips() {
        let cp = sample();
        let parsed = CheckpointFile::parse(&cp.render()).expect("parse");
        assert_eq!(parsed, cp);
    }

    #[test]
    fn lookup_helpers() {
        let cp = sample();
        assert_eq!(cp.source("flowcell-a").expect("mark").emitted, 41);
        assert_eq!(cp.source("b with spaces").expect("mark").emitted, 7);
        assert!(cp.source("nope").is_none());
        assert_eq!(cp.fastq_for("flowcell-a").expect("mark").bytes, 12345);
        assert!(cp.fastq_for("b with spaces").is_none());
    }

    #[test]
    fn rejects_garbage() {
        assert!(CheckpointFile::parse("").is_err());
        assert!(CheckpointFile::parse("not a checkpoint\n").is_err());
        let cp = CheckpointFile::parse("genpip-checkpoint v1\nbogus line\n");
        assert!(cp.is_err());
        let cp = CheckpointFile::parse("genpip-checkpoint v1\nsource x 1 n\n");
        assert!(cp.is_err(), "non-numeric count must fail");
        let cp = CheckpointFile::parse("genpip-checkpoint v1\nsource 1 2 n\n");
        assert!(cp.is_err(), "failed > emitted must fail");
        let cp = CheckpointFile::parse("genpip-checkpoint v1\ncomplete 2\n");
        assert!(cp.is_err());
    }

    #[test]
    fn atomic_write_round_trips_and_replaces() {
        let mut path = std::env::temp_dir();
        path.push(format!("genpip-ckpt-unit-{}.txt", std::process::id()));
        let mut cp = sample();
        cp.write_atomic(&path).expect("write");
        assert_eq!(CheckpointFile::load(&path).expect("load"), cp);
        cp.sources[0].emitted = 99;
        cp.complete = true;
        cp.write_atomic(&path).expect("rewrite");
        assert_eq!(CheckpointFile::load(&path).expect("load"), cp);
        std::fs::remove_file(&path).ok();
    }
}
