//! The GenPIP controller (paper Figure 8 ⓒ, Sections 4.1–4.2).
//!
//! The controller owns the read queue (raw signals from the sequencer), the
//! chunk buffer (basecalled chunks awaiting alignment), the AQS calculator,
//! and the two early-rejection controllers. The *decisions* it makes are
//! already folded into the functional pipeline (`crate::pipeline`); this
//! module adds the **resource view**: replaying a pipeline run through the
//! controller's buffers verifies the paper's sizing claims — a 6 MB read
//! queue fits the longest raw signal and a 2.3 Mbase chunk buffer fits the
//! longest basecalled read — and counts the ER signals issued.

use crate::pipeline::{PipelineRun, ReadOutcome};
use genpip_pim::EdramBuffer;
use std::fmt;

/// Outcome of replaying a run through the controller's buffers.
#[derive(Debug, Clone, PartialEq)]
pub struct ControllerReport {
    /// Read-queue high-water mark in bytes.
    pub read_queue_high_water: usize,
    /// Chunk-buffer high-water mark in bytes.
    pub chunk_buffer_high_water: usize,
    /// Reads whose raw signal did not fit the read queue.
    pub read_queue_overflows: usize,
    /// Reads whose basecalled output did not fit the chunk buffer.
    pub chunk_buffer_overflows: usize,
    /// ER-QSR termination signals issued (Section 4.3.1).
    pub qsr_signals: usize,
    /// ER-CMR termination signals issued (Section 4.3.2).
    pub cmr_signals: usize,
    /// Total eDRAM access energy of both buffers (joules).
    pub buffer_energy_j: f64,
}

impl fmt::Display for ControllerReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "read queue high water:  {} B ({} overflows)",
            self.read_queue_high_water, self.read_queue_overflows
        )?;
        writeln!(
            f,
            "chunk buffer high water: {} B ({} overflows)",
            self.chunk_buffer_high_water, self.chunk_buffer_overflows
        )?;
        writeln!(
            f,
            "ER signals issued: {} QSR, {} CMR",
            self.qsr_signals, self.cmr_signals
        )?;
        write!(f, "buffer access energy: {:.3e} J", self.buffer_energy_j)
    }
}

/// The controller's buffer pair.
#[derive(Debug, Clone)]
pub struct GenPipController {
    read_queue: EdramBuffer,
    chunk_buffer: EdramBuffer,
}

impl GenPipController {
    /// Creates a controller with the paper's buffer sizes.
    pub fn new() -> GenPipController {
        GenPipController {
            read_queue: EdramBuffer::read_queue(),
            chunk_buffer: EdramBuffer::chunk_buffer(),
        }
    }

    /// Replays a pipeline run read by read: the raw signal is enqueued in
    /// the read queue while the read is processed; every basecalled chunk
    /// occupies the chunk buffer until the read's outcome resolves
    /// (Section 4.2: "the chunk buffer keeps the basecalled chunks until
    /// the end of the sequence alignment process for an entire read, unless
    /// ER terminates the process").
    pub fn replay(&mut self, run: &PipelineRun) -> ControllerReport {
        let mut report = ControllerReport {
            read_queue_high_water: 0,
            chunk_buffer_high_water: 0,
            read_queue_overflows: 0,
            chunk_buffer_overflows: 0,
            qsr_signals: 0,
            cmr_signals: 0,
            buffer_energy_j: 0.0,
        };
        for read in &run.reads {
            // Raw signal enters the read queue.
            let raw = read.raw_bytes();
            let raw_held = match self.read_queue.reserve(raw) {
                Ok(()) => true,
                Err(_) => {
                    report.read_queue_overflows += 1;
                    false
                }
            };

            // Basecalled chunks accumulate in the chunk buffer.
            let mut held = 0usize;
            for chunk in &read.chunks {
                if chunk.bases_called == 0 {
                    continue;
                }
                let bytes = chunk.bases_called.div_ceil(4) + chunk.bases_called;
                match self.chunk_buffer.reserve(bytes) {
                    Ok(()) => held += bytes,
                    Err(_) => report.chunk_buffer_overflows += 1,
                }
            }

            match &read.outcome {
                ReadOutcome::RejectedQsr { .. } => report.qsr_signals += 1,
                ReadOutcome::RejectedCmr { .. } => report.cmr_signals += 1,
                _ => {}
            }

            // The read resolves: everything is released.
            self.chunk_buffer.release(held);
            if raw_held {
                self.read_queue.release(raw);
            }
        }
        report.read_queue_high_water = self.read_queue.high_water();
        report.chunk_buffer_high_water = self.chunk_buffer.high_water();
        report.buffer_energy_j =
            self.read_queue.access_energy() + self.chunk_buffer.access_energy();
        report
    }
}

impl Default for GenPipController {
    fn default() -> GenPipController {
        GenPipController::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GenPipConfig;
    use crate::engine::Flow;
    use crate::pipeline::{ErMode, PipelineRun};
    use genpip_datasets::DatasetProfile;

    #[test]
    fn paper_buffer_sizes_suffice_for_the_datasets() {
        let d = DatasetProfile::ecoli().scaled(0.1).generate();
        let config = GenPipConfig::for_dataset(&d.profile);
        let run = PipelineRun::collect(&d, &config, Flow::GenPip(ErMode::Full));
        let report = GenPipController::new().replay(&run);
        assert_eq!(report.read_queue_overflows, 0);
        assert_eq!(report.chunk_buffer_overflows, 0);
        assert!(report.read_queue_high_water > 0);
        assert!(report.chunk_buffer_high_water > 0);
        assert!(report.buffer_energy_j > 0.0);
    }

    #[test]
    fn er_signal_counts_match_outcomes() {
        let d = DatasetProfile::ecoli().scaled(0.1).generate();
        let config = GenPipConfig::for_dataset(&d.profile);
        let run = PipelineRun::collect(&d, &config, Flow::GenPip(ErMode::Full));
        let report = GenPipController::new().replay(&run);
        let qsr = run.count_outcomes(|o| matches!(o, ReadOutcome::RejectedQsr { .. }));
        let cmr = run.count_outcomes(|o| matches!(o, ReadOutcome::RejectedCmr { .. }));
        assert_eq!(report.qsr_signals, qsr);
        assert_eq!(report.cmr_signals, cmr);
        assert!(qsr > 0, "expect some QSR rejections at this scale");
    }

    #[test]
    fn high_water_tracks_longest_read() {
        let d = DatasetProfile::ecoli().scaled(0.1).generate();
        let config = GenPipConfig::for_dataset(&d.profile);
        let run = PipelineRun::collect(&d, &config, Flow::GenPip(ErMode::None));
        let report = GenPipController::new().replay(&run);
        let longest_raw = run.reads.iter().map(|r| r.raw_bytes()).max().unwrap();
        assert_eq!(report.read_queue_high_water, longest_raw);
    }

    #[test]
    fn report_renders() {
        let d = DatasetProfile::ecoli().scaled(0.05).generate();
        let config = GenPipConfig::for_dataset(&d.profile);
        let run = PipelineRun::collect(&d, &config, Flow::GenPip(ErMode::Full));
        let s = GenPipController::new().replay(&run).to_string();
        assert!(s.contains("read queue"));
        assert!(s.contains("ER signals"));
    }
}
