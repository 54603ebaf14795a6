//! eDRAM buffer models.
//!
//! GenPIP's controller and modules keep their working set in embedded DRAM
//! (paper Section 4.2): the **read queue** buffers the raw signal of the
//! read being processed (sized for the longest known nanopore signal, ≈6 MB)
//! and the **chunk buffer** holds the basecalled chunks of in-flight reads
//! until alignment finishes (sized for the longest known read, 2.3 Mbases).
//! This module provides a capacity-checked buffer with occupancy tracking
//! and access-energy accounting, plus the paper's standard instances.

use std::fmt;

/// Error returned when a reservation would exceed the buffer's capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferOverflow {
    /// Bytes requested.
    pub requested: usize,
    /// Bytes free at the time of the request.
    pub available: usize,
}

impl fmt::Display for BufferOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "buffer overflow: requested {} B with only {} B free",
            self.requested, self.available
        )
    }
}

impl std::error::Error for BufferOverflow {}

/// A capacity-checked eDRAM buffer with occupancy and energy accounting.
///
/// # Example
///
/// ```
/// use genpip_pim::edram::EdramBuffer;
///
/// let mut queue = EdramBuffer::read_queue();
/// queue.reserve(1_000_000)?;
/// assert!(queue.occupancy() > 0.15);
/// queue.release(1_000_000);
/// assert_eq!(queue.used(), 0);
/// # Ok::<(), genpip_pim::edram::BufferOverflow>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EdramBuffer {
    name: &'static str,
    capacity: usize,
    used: usize,
    high_water: usize,
    bytes_accessed: u64,
    energy_per_byte: f64,
}

impl EdramBuffer {
    /// Creates a buffer of `capacity` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0.
    pub fn new(name: &'static str, capacity: usize, energy_per_byte: f64) -> EdramBuffer {
        assert!(capacity > 0, "buffer capacity must be positive");
        EdramBuffer {
            name,
            capacity,
            used: 0,
            high_water: 0,
            bytes_accessed: 0,
            energy_per_byte,
        }
    }

    /// The paper's read queue: sized for the longest raw nanopore signal
    /// (≈6 MB, Section 4.2).
    pub fn read_queue() -> EdramBuffer {
        EdramBuffer::new("read-queue", 6 * 1024 * 1024, 1.0e-12)
    }

    /// The paper's chunk buffer: 2.3 Mbases of basecalled output — 2-bit
    /// packed bases plus one quality byte per base.
    pub fn chunk_buffer() -> EdramBuffer {
        const LONGEST_READ_BASES: usize = 2_300_000;
        EdramBuffer::new(
            "chunk-buffer",
            LONGEST_READ_BASES / 4 + LONGEST_READ_BASES,
            1.0e-12,
        )
    }

    /// Buffer name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bytes currently reserved.
    pub fn used(&self) -> usize {
        self.used
    }

    /// Free bytes.
    pub fn free(&self) -> usize {
        self.capacity - self.used
    }

    /// Current occupancy in `[0, 1]`.
    pub fn occupancy(&self) -> f64 {
        self.used as f64 / self.capacity as f64
    }

    /// Highest occupancy seen, in bytes.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Total bytes written + read (for energy accounting).
    pub fn bytes_accessed(&self) -> u64 {
        self.bytes_accessed
    }

    /// Energy consumed by accesses so far (joules).
    pub fn access_energy(&self) -> f64 {
        self.bytes_accessed as f64 * self.energy_per_byte
    }

    /// Reserves (writes) `bytes`.
    ///
    /// # Errors
    ///
    /// Returns [`BufferOverflow`] if the buffer cannot hold the bytes; the
    /// buffer is unchanged.
    pub fn reserve(&mut self, bytes: usize) -> Result<(), BufferOverflow> {
        if bytes > self.free() {
            return Err(BufferOverflow {
                requested: bytes,
                available: self.free(),
            });
        }
        self.used += bytes;
        self.high_water = self.high_water.max(self.used);
        self.bytes_accessed += bytes as u64;
        Ok(())
    }

    /// Releases (consumes) `bytes`, counting the read access.
    ///
    /// # Panics
    ///
    /// Panics if releasing more than is reserved (a bookkeeping bug).
    pub fn release(&mut self, bytes: usize) {
        assert!(
            bytes <= self.used,
            "releasing {bytes} B with only {} B reserved",
            self.used
        );
        self.used -= bytes;
        self.bytes_accessed += bytes as u64;
    }
}

impl fmt::Display for EdramBuffer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {}/{} B ({:.1}% full, high water {} B)",
            self.name,
            self.used,
            self.capacity,
            self.occupancy() * 100.0,
            self.high_water
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_release_cycle() {
        let mut b = EdramBuffer::new("t", 100, 1e-12);
        b.reserve(60).unwrap();
        assert_eq!(b.used(), 60);
        assert_eq!(b.free(), 40);
        b.release(20);
        assert_eq!(b.used(), 40);
        assert_eq!(b.high_water(), 60);
        assert_eq!(b.bytes_accessed(), 80);
        assert!((b.access_energy() - 80e-12).abs() < 1e-20);
    }

    #[test]
    fn overflow_is_reported_and_harmless() {
        let mut b = EdramBuffer::new("t", 100, 1e-12);
        b.reserve(90).unwrap();
        let err = b.reserve(20).unwrap_err();
        assert_eq!(
            err,
            BufferOverflow {
                requested: 20,
                available: 10
            }
        );
        assert!(err.to_string().contains("overflow"));
        assert_eq!(b.used(), 90, "failed reservation must not change state");
    }

    #[test]
    #[should_panic(expected = "releasing")]
    fn over_release_panics() {
        let mut b = EdramBuffer::new("t", 100, 1e-12);
        b.release(1);
    }

    #[test]
    fn paper_instances_have_paper_sizes() {
        // Read queue: ~6 MB = longest raw signal (2.3 Mbases × ~8 samples
        // would exceed it; the paper sizes for the longest *signal*, ≈6 MB
        // at 16-bit samples — hold a 3 M-sample signal).
        let q = EdramBuffer::read_queue();
        assert_eq!(q.capacity(), 6 * 1024 * 1024);
        assert!(q.capacity() >= 3_000_000 * genpip_signal::BYTES_PER_SAMPLE);

        // Chunk buffer holds the longest read's bases + qualities.
        let c = EdramBuffer::chunk_buffer();
        assert!(c.capacity() >= 2_300_000 / 4 + 2_300_000);
    }

    #[test]
    fn display_reports_occupancy() {
        let mut b = EdramBuffer::new("demo", 1000, 1e-12);
        b.reserve(250).unwrap();
        let s = b.to_string();
        assert!(s.contains("demo"));
        assert!(s.contains("25.0%"));
    }
}
