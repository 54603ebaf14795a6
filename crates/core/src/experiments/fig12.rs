//! Figure 12: ER-QSR sensitivity to the number of sampled chunks.
//!
//! For `N_qs ∈ {2..6}` on both datasets: rejection ratio and false-negative
//! ratio, judged against the conventional oracle.

use crate::analysis::{qsr_analysis, RejectionAnalysis};
use crate::config::GenPipConfig;
use crate::engine::Flow;
use crate::experiments::FigureTable;
use crate::pipeline::{ErMode, PipelineRun};
use genpip_datasets::DatasetProfile;
use std::fmt;

/// The sampled-chunk counts the paper sweeps.
pub const N_QS_RANGE: [usize; 5] = [2, 3, 4, 5, 6];

/// One dataset's sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct QsrSweep {
    /// Dataset name.
    pub dataset: String,
    /// `(n_qs, analysis)` per swept value.
    pub points: Vec<(usize, RejectionAnalysis)>,
}

/// Result of the Figure 12 experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig12 {
    /// E. coli and human sweeps.
    pub sweeps: Vec<QsrSweep>,
}

/// Runs the sweep at `scale`.
pub fn run(scale: f64) -> Fig12 {
    let mut sweeps = Vec::new();
    for profile in [DatasetProfile::ecoli(), DatasetProfile::human()] {
        let profile = profile.scaled(scale);
        let dataset = profile.generate();
        let base_config = GenPipConfig::for_dataset(&profile);
        let oracle = PipelineRun::collect(&dataset, &base_config, Flow::Conventional);
        let mut points = Vec::new();
        for n_qs in N_QS_RANGE {
            let mut config = base_config.clone();
            config.n_qs = n_qs;
            let er = PipelineRun::collect(&dataset, &config, Flow::GenPip(ErMode::QsrOnly));
            points.push((n_qs, qsr_analysis(&er, &oracle, config.theta_qs)));
        }
        sweeps.push(QsrSweep {
            dataset: profile.name.to_string(),
            points,
        });
    }
    Fig12 { sweeps }
}

impl Fig12 {
    /// Rejection-ratio table (paper Figure 12a).
    pub fn rejection_table(&self) -> FigureTable {
        self.metric_table(
            "Figure 12(a) — ER-QSR rejection ratio vs sampled chunks (paper ≈0.10–0.15)",
            |a| a.rejection_ratio(),
        )
    }

    /// False-negative-ratio table (paper Figure 12b).
    pub fn false_negative_table(&self) -> FigureTable {
        self.metric_table(
            "Figure 12(b) — ER-QSR false negative ratio vs sampled chunks (paper ≲0.3)",
            |a| a.false_negative_ratio(),
        )
    }

    fn metric_table(&self, title: &str, metric: impl Fn(&RejectionAnalysis) -> f64) -> FigureTable {
        let columns = N_QS_RANGE.iter().map(|n| format!("Nqs={n}")).collect();
        let mut t = FigureTable::new(title, columns);
        for sweep in &self.sweeps {
            t.push_row(
                sweep.dataset.clone(),
                sweep.points.iter().map(|(_, a)| Some(metric(a))).collect(),
            );
        }
        t
    }
}

impl fmt::Display for Fig12 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.rejection_table())?;
        write!(f, "{}", self.false_negative_table())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_shapes_match_the_paper() {
        let fig = run(0.15);
        assert_eq!(fig.sweeps.len(), 2);
        for sweep in &fig.sweeps {
            assert_eq!(sweep.points.len(), N_QS_RANGE.len());
            let rejections: Vec<f64> = sweep
                .points
                .iter()
                .map(|(_, a)| a.rejection_ratio())
                .collect();
            // Rejection ratio in a plausible band around the low-quality
            // population, mildly varying with N_qs.
            for &r in &rejections {
                assert!(
                    (0.02..0.40).contains(&r),
                    "{}: rejection {r}",
                    sweep.dataset
                );
            }
            // Paper: rejection ratio slightly decreases as N_qs grows.
            assert!(
                rejections.last().unwrap() <= &(rejections[0] + 0.05),
                "{}: {rejections:?}",
                sweep.dataset
            );
            for (_, a) in &sweep.points {
                assert!(a.false_negative_ratio() < 0.5);
            }
        }
    }

    #[test]
    fn tables_render() {
        let fig = run(0.08);
        let s = fig.to_string();
        assert!(s.contains("Figure 12(a)"));
        assert!(s.contains("Figure 12(b)"));
        assert!(s.contains("Nqs=6"));
    }
}
