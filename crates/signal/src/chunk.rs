//! Signal chunking.
//!
//! Basecallers split a long read's signal into fixed-size chunks (the paper
//! quotes "thousands of signals per chunk", ≈300 bases) and basecall the
//! chunks independently; GenPIP's whole chunk-based pipeline (Section 3.1)
//! inherits this granularity. A chunk is a half-open sample range of a
//! [`crate::ReadSignal`].

/// One chunk of a read's raw signal: a half-open sample range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChunkSpec {
    /// Chunk index within the read (0-based).
    pub index: usize,
    /// First sample (inclusive).
    pub start: usize,
    /// Past-the-end sample (exclusive).
    pub end: usize,
}

/// Splits `total_samples` into consecutive chunks of `samples_per_chunk`,
/// with a final partial chunk if the division is inexact.
///
/// Returns an empty vector when `total_samples` is 0.
///
/// # Panics
///
/// Panics if `samples_per_chunk` is 0.
///
/// # Example
///
/// ```
/// use genpip_signal::chunk_boundaries;
///
/// let chunks = chunk_boundaries(2500, 1000);
/// assert_eq!(chunks.len(), 3);
/// assert_eq!(chunks[2].end - chunks[2].start, 500);
/// ```
pub fn chunk_boundaries(total_samples: usize, samples_per_chunk: usize) -> Vec<ChunkSpec> {
    assert!(samples_per_chunk > 0, "chunk size must be positive");
    let mut chunks = Vec::with_capacity(total_samples.div_ceil(samples_per_chunk));
    let mut start = 0;
    let mut index = 0;
    while start < total_samples {
        let end = (start + samples_per_chunk).min(total_samples);
        chunks.push(ChunkSpec { index, start, end });
        start = end;
        index += 1;
    }
    chunks
}

/// Samples per chunk for a given chunk size in *bases* and a dwell time in
/// samples per base. E.g. 300 bases × 8 samples/base = 2400 samples.
///
/// # Panics
///
/// Panics if either argument is non-positive.
pub fn samples_per_chunk(chunk_bases: usize, mean_dwell: f64) -> usize {
    assert!(
        chunk_bases > 0 && mean_dwell > 0.0,
        "arguments must be positive"
    );
    ((chunk_bases as f64) * mean_dwell).round().max(1.0) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_division() {
        let chunks = chunk_boundaries(3000, 1000);
        assert_eq!(chunks.len(), 3);
        for (i, c) in chunks.iter().enumerate() {
            assert_eq!(c.index, i);
            assert_eq!(c.end - c.start, 1000);
        }
    }

    #[test]
    fn partial_tail() {
        let chunks = chunk_boundaries(1001, 1000);
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[1].end - chunks[1].start, 1);
    }

    #[test]
    fn chunks_tile_the_signal() {
        let chunks = chunk_boundaries(12_345, 777);
        assert_eq!(chunks[0].start, 0);
        assert_eq!(chunks.last().unwrap().end, 12_345);
        for w in chunks.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        assert!(chunks.iter().all(|c| c.end > c.start));
    }

    #[test]
    fn empty_signal_has_no_chunks() {
        assert!(chunk_boundaries(0, 100).is_empty());
    }

    #[test]
    fn single_short_chunk() {
        let chunks = chunk_boundaries(10, 100);
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].end - chunks[0].start, 10);
    }

    #[test]
    fn samples_per_chunk_multiplies() {
        assert_eq!(samples_per_chunk(300, 8.0), 2400);
        assert_eq!(samples_per_chunk(1, 1.0), 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_chunk_size_rejected() {
        let _ = chunk_boundaries(10, 0);
    }
}
