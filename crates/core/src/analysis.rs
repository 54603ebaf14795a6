//! Evaluation metrics: rejection ratios, false negatives, useless reads,
//! accuracy audits.
//!
//! The paper's sensitivity analysis (Section 6.3) judges ER with two
//! metrics — *rejection ratio* (rejected / all reads) and *false-negative
//! ratio* (incorrectly rejected / rejected) — against an oracle that knows
//! what would have happened without ER. Here the oracle is the conventional
//! run of the same dataset: it basecalls every read fully, so its whole-read
//! AQS says whether a QSR rejection was wrong, and its mapping outcome says
//! whether a CMR rejection was wrong.

use crate::pipeline::{PipelineRun, ReadOutcome};

/// Rejection-quality metrics for one ER configuration (one point of
/// Figure 12 or 13).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RejectionAnalysis {
    /// Total reads.
    pub reads: usize,
    /// Reads rejected by the stage under study.
    pub rejected: usize,
    /// Rejected reads the oracle says should have survived.
    pub false_negatives: usize,
}

impl RejectionAnalysis {
    /// Rejected / all reads.
    pub fn rejection_ratio(&self) -> f64 {
        if self.reads == 0 {
            0.0
        } else {
            self.rejected as f64 / self.reads as f64
        }
    }

    /// Incorrectly rejected / rejected (0 when nothing was rejected).
    pub fn false_negative_ratio(&self) -> f64 {
        if self.rejected == 0 {
            0.0
        } else {
            self.false_negatives as f64 / self.rejected as f64
        }
    }
}

/// Analyses ER-QSR decisions in `er_run` against the conventional `oracle`.
///
/// A QSR rejection is a false negative if the oracle's whole-read average
/// quality meets the threshold (the read would have passed read quality
/// control).
///
/// # Panics
///
/// Panics if the two runs cover different read counts.
pub fn qsr_analysis(
    er_run: &PipelineRun,
    oracle: &PipelineRun,
    theta_qs: f64,
) -> RejectionAnalysis {
    assert_eq!(
        er_run.reads.len(),
        oracle.reads.len(),
        "runs must cover the same dataset"
    );
    let mut out = RejectionAnalysis {
        reads: er_run.reads.len(),
        rejected: 0,
        false_negatives: 0,
    };
    for (er, oracle) in er_run.reads.iter().zip(&oracle.reads) {
        if let ReadOutcome::RejectedQsr { .. } = er.outcome {
            out.rejected += 1;
            let true_aqs = oracle.full_aqs.expect("oracle basecalls fully");
            if true_aqs >= theta_qs {
                out.false_negatives += 1;
            }
        }
    }
    out
}

/// Analyses ER-CMR decisions in `er_run` against the conventional `oracle`.
///
/// A CMR rejection is a false negative if the oracle mapped the read.
///
/// # Panics
///
/// Panics if the two runs cover different read counts.
pub fn cmr_analysis(er_run: &PipelineRun, oracle: &PipelineRun) -> RejectionAnalysis {
    assert_eq!(
        er_run.reads.len(),
        oracle.reads.len(),
        "runs must cover the same dataset"
    );
    let mut out = RejectionAnalysis {
        reads: er_run.reads.len(),
        rejected: 0,
        false_negatives: 0,
    };
    for (er, oracle) in er_run.reads.iter().zip(&oracle.reads) {
        if let ReadOutcome::RejectedCmr { .. } = er.outcome {
            out.rejected += 1;
            if oracle.outcome.is_mapped() {
                out.false_negatives += 1;
            }
        }
    }
    out
}

/// The Section 2.3 statistics: what fraction of reads is useless.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UselessReadStats {
    /// Total reads.
    pub reads: usize,
    /// Reads discarded by read quality control (paper: 20.5 % for E. coli).
    pub low_quality: usize,
    /// QC-passing reads that fail to map (paper: 10 %).
    pub unmapped: usize,
}

impl UselessReadStats {
    /// Computes the statistics from a conventional run.
    pub fn of(run: &PipelineRun) -> UselessReadStats {
        UselessReadStats {
            reads: run.reads.len(),
            low_quality: run.count_outcomes(|o| matches!(o, ReadOutcome::FilteredQc { .. })),
            unmapped: run.count_outcomes(|o| matches!(o, ReadOutcome::Unmapped { .. })),
        }
    }

    /// Low-quality fraction of all reads.
    pub fn low_quality_fraction(&self) -> f64 {
        self.low_quality as f64 / self.reads.max(1) as f64
    }

    /// Unmapped fraction of all reads.
    pub fn unmapped_fraction(&self) -> f64 {
        self.unmapped as f64 / self.reads.max(1) as f64
    }

    /// Total useless fraction (paper: 30.5 % for E. coli).
    pub fn useless_fraction(&self) -> f64 {
        self.low_quality_fraction() + self.unmapped_fraction()
    }
}

/// Characterizes the reads ER rejected by mistake — the analogue of the
/// paper's Section 6.3.1 argument that incorrectly-rejected reads are
/// marginal (their scores sit near the discard band, far from typical
/// reads), so losing them costs little.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FalseNegativeAudit {
    /// Mean whole-read AQS of reads ER rejected but the oracle kept.
    pub mean_aqs_false_negatives: f64,
    /// Mean whole-read AQS of reads the oracle's QC itself discarded.
    pub mean_aqs_low_quality: f64,
    /// Mean whole-read AQS of all reads.
    pub mean_aqs_all: f64,
    /// Mean per-base oracle chain score of the false negatives (secondary
    /// signal: how mappable the lost reads were).
    pub mean_chain_per_base_false_negatives: f64,
    /// Number of false negatives audited.
    pub false_negatives: usize,
}

/// Audits false negatives of a full-ER run against the oracle.
///
/// # Panics
///
/// Panics if the two runs cover different read counts.
pub fn false_negative_audit(er_run: &PipelineRun, oracle: &PipelineRun) -> FalseNegativeAudit {
    assert_eq!(
        er_run.reads.len(),
        oracle.reads.len(),
        "runs must cover the same dataset"
    );
    let mut fn_aqs = Vec::new();
    let mut fn_chain = Vec::new();
    let mut lq_aqs = Vec::new();
    let mut all_aqs = Vec::new();
    for (er, oracle) in er_run.reads.iter().zip(&oracle.reads) {
        let aqs = oracle.full_aqs.expect("oracle basecalls fully");
        all_aqs.push(aqs);
        if er.outcome.is_early_rejected() && oracle.outcome.is_mapped() {
            fn_aqs.push(aqs);
            fn_chain.push(oracle.best_chain_score / oracle.called_len.max(1) as f64);
        }
        if matches!(oracle.outcome, ReadOutcome::FilteredQc { .. }) {
            lq_aqs.push(aqs);
        }
    }
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    FalseNegativeAudit {
        mean_aqs_false_negatives: mean(&fn_aqs),
        mean_aqs_low_quality: mean(&lq_aqs),
        mean_aqs_all: mean(&all_aqs),
        mean_chain_per_base_false_negatives: mean(&fn_chain),
        false_negatives: fn_aqs.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GenPipConfig;
    use crate::engine::Flow;
    use crate::pipeline::{ErMode, PipelineRun};
    use genpip_datasets::DatasetProfile;
    use genpip_datasets::{SimulatedDataset, SimulatedRead};
    use genpip_genomics::ReadOrigin;

    fn setup() -> (SimulatedDataset, PipelineRun, PipelineRun) {
        let d = DatasetProfile::ecoli().scaled(0.15).generate();
        let config = GenPipConfig::for_dataset(&d.profile);
        let oracle = PipelineRun::collect(&d, &config, Flow::Conventional);
        let er = PipelineRun::collect(&d, &config, Flow::GenPip(ErMode::Full));
        (d, oracle, er)
    }

    /// The share of `d`'s reads for which `is` holds.
    fn truth_fraction(d: &SimulatedDataset, is: impl Fn(&SimulatedRead) -> bool) -> f64 {
        d.reads.iter().filter(|r| is(r)).count() as f64 / d.reads.len() as f64
    }

    #[test]
    fn ratios_are_fractions() {
        let (_, oracle, er) = setup();
        let q = qsr_analysis(&er, &oracle, 7.0);
        assert!(q.rejection_ratio() > 0.0 && q.rejection_ratio() < 1.0);
        assert!(q.false_negative_ratio() <= 1.0);
        assert!(q.false_negatives <= q.rejected);
        let c = cmr_analysis(&er, &oracle);
        assert!(c.rejected > 0);
        assert!(c.false_negatives <= c.rejected);
    }

    #[test]
    fn qsr_rejection_tracks_low_quality_population() {
        let (d, oracle, er) = setup();
        let q = qsr_analysis(&er, &oracle, 7.0);
        let truth_lq = truth_fraction(&d, SimulatedRead::is_low_quality_truth);
        assert!(
            (q.rejection_ratio() - truth_lq).abs() < 0.1,
            "rejection {} vs truth {truth_lq}",
            q.rejection_ratio()
        );
        // With well-separated quality bands the FN ratio stays small.
        assert!(
            q.false_negative_ratio() < 0.35,
            "FN ratio {}",
            q.false_negative_ratio()
        );
    }

    #[test]
    fn cmr_rejection_tracks_contaminants_with_low_fn() {
        let (d, oracle, er) = setup();
        let c = cmr_analysis(&er, &oracle);
        let truth_cont = truth_fraction(&d, |r| r.origin == ReadOrigin::Contaminant);
        assert!(
            c.rejection_ratio() < truth_cont + 0.08,
            "CMR rejection {} vs contaminants {truth_cont}",
            c.rejection_ratio()
        );
        assert!(
            c.false_negative_ratio() < 0.25,
            "FN ratio {}",
            c.false_negative_ratio()
        );
    }

    #[test]
    fn useless_reads_match_section_2_3_shape() {
        let (_, oracle, _) = setup();
        let u = UselessReadStats::of(&oracle);
        // Paper: 20.5 % low quality, 10 % unmapped, 30.5 % useless.
        assert!(
            (0.10..0.32).contains(&u.low_quality_fraction()),
            "low quality {}",
            u.low_quality_fraction()
        );
        assert!(
            (0.04..0.20).contains(&u.unmapped_fraction()),
            "unmapped {}",
            u.unmapped_fraction()
        );
        assert!(
            (0.18..0.45).contains(&u.useless_fraction()),
            "useless {}",
            u.useless_fraction()
        );
    }

    #[test]
    fn audit_places_false_negatives_between_bands() {
        let (_, oracle, er) = setup();
        let audit = false_negative_audit(&er, &oracle);
        // QC-discarded reads sit far below the population mean.
        assert!(audit.mean_aqs_low_quality < audit.mean_aqs_all - 2.0);
        if audit.false_negatives > 0 {
            // False negatives are marginal: below the population mean,
            // above the QC-discarded band.
            assert!(audit.mean_aqs_false_negatives < audit.mean_aqs_all);
            assert!(audit.mean_aqs_false_negatives > audit.mean_aqs_low_quality);
        }
    }

    #[test]
    fn empty_analysis_is_zero() {
        let a = RejectionAnalysis {
            reads: 0,
            rejected: 0,
            false_negatives: 0,
        };
        assert_eq!(a.rejection_ratio(), 0.0);
        assert_eq!(a.false_negative_ratio(), 0.0);
    }

    #[test]
    fn accuracy_loss_is_negligible() {
        // Section 6.1: ER must not meaningfully change the pipeline output.
        // Of the reads the oracle maps, ER keeps nearly all, at the same
        // place (same strand, start within 50 bp), and invents almost none.
        let (_, oracle, er) = setup();
        let (mut oracle_mapped, mut retained, mut concordant, mut gained) = (0, 0, 0, 0);
        for (er, oracle) in er.reads.iter().zip(&oracle.reads) {
            match (oracle.outcome.mapping(), er.outcome.mapping()) {
                (Some(om), Some(em)) => {
                    oracle_mapped += 1;
                    retained += 1;
                    if om.strand == em.strand && om.ref_start.abs_diff(em.ref_start) <= 50 {
                        concordant += 1;
                    }
                }
                (Some(_), None) => oracle_mapped += 1,
                (None, Some(_)) => gained += 1,
                (None, None) => {}
            }
        }
        assert!(oracle_mapped > 30, "want a meaningful mapped sample");
        assert!(
            retained as f64 > 0.9 * oracle_mapped as f64,
            "ER lost too many mappings: {retained} of {oracle_mapped} kept"
        );
        assert!(
            concordant as f64 > 0.97 * retained as f64,
            "survivors moved: {concordant} of {retained} concordant"
        );
        assert!(gained <= 2, "ER invented {gained} mappings");
    }
}
