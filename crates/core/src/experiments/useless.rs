//! Section 2.3: the useless-read statistics that motivate early rejection.
//!
//! The paper measures, on the real E. coli dataset, that 20.5 % of reads are
//! basecalled but discarded as low-quality and a further 10 % are
//! high-quality but unmapped — 30.5 % of all basecalling work wasted. This
//! experiment reproduces the measurement on the synthetic dataset, plus the
//! false-negative audit of Section 6.3.1.

use crate::analysis::{false_negative_audit, FalseNegativeAudit, UselessReadStats};
use crate::config::GenPipConfig;
use crate::engine::Flow;
use crate::experiments::FigureTable;
use crate::pipeline::{ErMode, PipelineRun};
use genpip_datasets::DatasetProfile;
use std::fmt;

/// Paper values for E. coli: (low-quality, unmapped, useless) fractions.
pub const PAPER_ECOLI: (f64, f64, f64) = (0.205, 0.10, 0.305);

/// Result of the useless-reads experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct UselessReads {
    /// Per-dataset statistics.
    pub rows: Vec<(String, UselessReadStats)>,
    /// The E. coli false-negative audit.
    pub audit: FalseNegativeAudit,
}

/// Runs the experiment at `scale`.
pub fn run(scale: f64) -> UselessReads {
    let mut rows = Vec::new();
    let mut audit = None;
    for profile in [DatasetProfile::ecoli(), DatasetProfile::human()] {
        let profile = profile.scaled(scale);
        let dataset = profile.generate();
        let config = GenPipConfig::for_dataset(&profile);
        let oracle = PipelineRun::collect(&dataset, &config, Flow::Conventional);
        rows.push((profile.name.to_string(), UselessReadStats::of(&oracle)));
        if profile.name == "ecoli" {
            let er = PipelineRun::collect(&dataset, &config, Flow::GenPip(ErMode::Full));
            audit = Some(false_negative_audit(&er, &oracle));
        }
    }
    UselessReads {
        rows,
        audit: audit.expect("ecoli profile present"),
    }
}

impl UselessReads {
    /// The fractions table.
    pub fn table(&self) -> FigureTable {
        let mut t = FigureTable::new(
            "Section 2.3 — useless reads (fractions of all reads)",
            vec!["low quality".into(), "unmapped".into(), "useless".into()],
        );
        for (name, stats) in &self.rows {
            t.push_row(
                name.clone(),
                vec![
                    Some(stats.low_quality_fraction()),
                    Some(stats.unmapped_fraction()),
                    Some(stats.useless_fraction()),
                ],
            );
        }
        t.push_row(
            "ecoli (paper)",
            vec![
                Some(PAPER_ECOLI.0),
                Some(PAPER_ECOLI.1),
                Some(PAPER_ECOLI.2),
            ],
        );
        t
    }
}

impl fmt::Display for UselessReads {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.table())?;
        writeln!(
            f,
            "FN audit (E. coli, whole-read AQS): false negatives {:.2} vs low-quality {:.2} vs all {:.2} ({} FNs; FN chain/base {:.2})",
            self.audit.mean_aqs_false_negatives,
            self.audit.mean_aqs_low_quality,
            self.audit.mean_aqs_all,
            self.audit.false_negatives,
            self.audit.mean_chain_per_base_false_negatives,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ecoli_useless_fraction_is_in_band() {
        let u = run(0.15);
        let (name, stats) = &u.rows[0];
        assert_eq!(name, "ecoli");
        assert!(
            (stats.useless_fraction() - PAPER_ECOLI.2).abs() < 0.12,
            "useless {}",
            stats.useless_fraction()
        );
    }

    #[test]
    fn report_renders() {
        let u = run(0.08);
        let s = u.to_string();
        assert!(s.contains("ecoli (paper)"));
        assert!(s.contains("FN audit"));
    }
}
