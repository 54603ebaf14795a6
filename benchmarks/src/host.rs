//! What the benchmark reads from the host: process CPU time, peak resident
//! memory, core count, and a fixed burst of arithmetic whose duration says
//! how fast the host is running.

use std::hint::black_box;
use std::time::Instant;

/// Worker threads the `_mt` workloads run with.
pub fn mt_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(4)
}

#[cfg(target_os = "linux")]
mod sys {
    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: i64,
        pub tv_nsec: i64,
    }
    pub const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    extern "C" {
        pub fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
}

/// CPU seconds this process has consumed so far, over all its threads
/// (exited ones included). 0 where the clock is unavailable.
pub fn process_cpu_s() -> f64 {
    #[cfg(target_os = "linux")]
    {
        let mut ts = sys::Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `clock_gettime` only writes one `timespec` through the
        // pointer, and `ts` is a live, properly laid out (two 64-bit
        // fields on 64-bit Linux) value for the whole call.
        let rc = unsafe { sys::clock_gettime(sys::CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
        if rc == 0 {
            return ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9;
        }
    }
    0.0
}

/// Starts the peak-memory watermark over at what the process needs now, so
/// that [`peak_rss_mb`] covers what follows and not how the inputs were
/// made: freed heap is handed back first (making the inputs parks reads,
/// and glibc keeps their pages), then `VmHWM` is reset. Where either is
/// unavailable the watermark stays the whole process's.
pub fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes no pointers and only releases free
        // memory at the top of the allocator's arenas; glibc allows it at
        // any time from any thread.
        unsafe { malloc_trim(0) };
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process in MB (`VmHWM`) since the last
/// [`reset_peak_rss`], 0 if unknown.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one [`Reference::burst`] takes on the reference host when nothing
/// else runs on it: the unit in which the host's speed is expressed. A
/// burst that takes twice as long means a host running at half speed.
pub const NOMINAL_BURST_NS: f64 = 138_000.0;

/// A fixed piece of arithmetic shaped like the program's two hot loops,
/// timed at every delivered read to tell how fast the host is running at
/// that moment. Half of it is what the Viterbi decode is made of
/// (element-wise `f32` multiply-add-max over arrays that fit the
/// first-level cache, which the compiler vectorizes), half what banded
/// alignment is made of (an integer dynamic-programming row with a
/// dependency between neighbouring cells and a data-dependent score). On
/// the shared reference host a pass of the program and these bursts slow
/// down together, by up to 4x for minutes at a time; dividing one by the
/// other leaves what the program costs.
pub struct Reference {
    acc: Vec<f32>,
    add: Vec<f32>,
    row: Vec<i32>,
    query: Vec<u8>,
}

impl Reference {
    const LEN: usize = 2048;
    const FLOAT_ROUNDS: usize = 128;
    const DP_ROUNDS: u8 = 20;

    pub fn new() -> Reference {
        Reference {
            acc: vec![0.0; Self::LEN],
            // Never 0, so that `acc` never decays into denormals.
            add: (0..Self::LEN)
                .map(|i| (i % 251 + 1) as f32 * 1e-3)
                .collect(),
            row: vec![0; Self::LEN],
            query: (0..Self::LEN)
                .map(|i| ((i * 7 + i / 3) % 4) as u8)
                .collect(),
        }
    }

    /// Mean of `bursts` bursts ÷ [`NOMINAL_BURST_NS`]: how many times slower
    /// than the quiet reference host this host runs right now.
    pub fn slowdown(&mut self, bursts: usize) -> f64 {
        let total: f64 = (0..bursts.max(1)).map(|_| self.burst()).sum();
        total / bursts.max(1) as f64 / NOMINAL_BURST_NS
    }

    /// Does the fixed work once and returns the nanoseconds it took.
    pub fn burst(&mut self) -> f64 {
        let start = Instant::now();
        self.acc.fill(0.25);
        for _ in 0..Self::FLOAT_ROUNDS {
            for (a, b) in self.acc.iter_mut().zip(black_box(&self.add)) {
                *a = (*a * 0.999 + *b).max(*b);
            }
        }
        self.row.fill(0);
        for base in 0..Self::DP_ROUNDS {
            let mut diagonal = self.row[0];
            for j in 1..Self::LEN {
                let matched = black_box(&self.query)[j] == base & 3;
                let through = diagonal + if matched { 2 } else { -3 };
                diagonal = self.row[j];
                self.row[j] = through.max(self.row[j] - 2).max(self.row[j - 1] - 2).max(0);
            }
        }
        black_box((&self.acc, &self.row));
        start.elapsed().as_nanos() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let before = process_cpu_s();
        let mut reference = Reference::new();
        for _ in 0..64 {
            reference.burst();
        }
        let after = process_cpu_s();
        if cfg!(target_os = "linux") {
            assert!(after > before, "{before} -> {after}");
        }
    }

    #[test]
    fn host_probes_are_sane() {
        assert!((1..=4).contains(&mt_workers()));
        assert!(Reference::new().burst() > 0.0);
        if cfg!(target_os = "linux") {
            let ballast = black_box(vec![1u8; 64 << 20]);
            let with_ballast = peak_rss_mb();
            drop(ballast);
            reset_peak_rss();
            assert!(peak_rss_mb() > 0.0);
            if std::fs::write("/proc/self/clear_refs", "5").is_ok() {
                assert!(
                    peak_rss_mb() < with_ballast - 32.0,
                    "the watermark did not come down"
                );
            }
        }
    }
}
