//! Figure 13: ER-CMR sensitivity to the number of combined chunks.
//!
//! For `N_cm ∈ {1..5}` on both datasets: CMR rejection ratio and
//! false-negative ratio against the conventional oracle. QSR runs at its
//! operating point throughout, as in GenPIP's actual flow (Figure 6).

use crate::analysis::{cmr_analysis, RejectionAnalysis};
use crate::config::GenPipConfig;
use crate::engine::Flow;
use crate::experiments::FigureTable;
use crate::pipeline::{ErMode, PipelineRun};
use genpip_datasets::DatasetProfile;
use std::fmt;

/// The combined-chunk counts the paper sweeps.
pub const N_CM_RANGE: [usize; 5] = [1, 2, 3, 4, 5];

/// One dataset's sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct CmrSweep {
    /// Dataset name.
    pub dataset: String,
    /// `(n_cm, analysis)` per swept value.
    pub points: Vec<(usize, RejectionAnalysis)>,
}

/// Result of the Figure 13 experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig13 {
    /// E. coli and human sweeps.
    pub sweeps: Vec<CmrSweep>,
}

/// Runs the sweep at `scale`.
pub fn run(scale: f64) -> Fig13 {
    let mut sweeps = Vec::new();
    for profile in [DatasetProfile::ecoli(), DatasetProfile::human()] {
        let profile = profile.scaled(scale);
        let dataset = profile.generate();
        let base_config = GenPipConfig::for_dataset(&profile);
        let oracle = PipelineRun::collect(&dataset, &base_config, Flow::Conventional);
        let mut points = Vec::new();
        for n_cm in N_CM_RANGE {
            let mut config = base_config.clone();
            config.n_cm = n_cm;
            let er = PipelineRun::collect(&dataset, &config, Flow::GenPip(ErMode::Full));
            points.push((n_cm, cmr_analysis(&er, &oracle)));
        }
        sweeps.push(CmrSweep {
            dataset: profile.name.to_string(),
            points,
        });
    }
    Fig13 { sweeps }
}

impl Fig13 {
    /// Rejection-ratio table (paper Figure 13a).
    pub fn rejection_table(&self) -> FigureTable {
        self.metric_table(
            "Figure 13(a) — ER-CMR rejection ratio vs combined chunks (decreasing in N_cm)",
            |a| a.rejection_ratio(),
        )
    }

    /// False-negative-ratio table (paper Figure 13b).
    pub fn false_negative_table(&self) -> FigureTable {
        self.metric_table(
            "Figure 13(b) — ER-CMR false negative ratio vs combined chunks (→ ≈0)",
            |a| a.false_negative_ratio(),
        )
    }

    fn metric_table(&self, title: &str, metric: impl Fn(&RejectionAnalysis) -> f64) -> FigureTable {
        let columns = N_CM_RANGE.iter().map(|n| format!("Ncm={n}")).collect();
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

impl fmt::Display for Fig13 {
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
        for sweep in &fig.sweeps {
            let rejections: Vec<f64> = sweep
                .points
                .iter()
                .map(|(_, a)| a.rejection_ratio())
                .collect();
            let fns: Vec<f64> = sweep
                .points
                .iter()
                .map(|(_, a)| a.false_negative_ratio())
                .collect();
            // Paper observation 1: rejection ratio decreases with N_cm.
            assert!(
                rejections[0] >= *rejections.last().unwrap(),
                "{}: rejections {rejections:?}",
                sweep.dataset
            );
            // Paper observation 2: FN ratio decreases and ends near zero.
            assert!(
                fns.last().unwrap() <= &(fns[0] + 1e-9),
                "{}: fns {fns:?}",
                sweep.dataset
            );
            assert!(
                *fns.last().unwrap() < 0.25,
                "{}: terminal FN {}",
                sweep.dataset,
                fns.last().unwrap()
            );
            // Operating-point rejection in a plausible band (paper: 6.3 %
            // E. coli at N_cm = 5, 5.5 % human at N_cm = 3).
            let last = *rejections.last().unwrap();
            assert!((0.01..0.25).contains(&last), "{}: {last}", sweep.dataset);
        }
    }

    #[test]
    fn tables_render() {
        let fig = run(0.08);
        let s = fig.to_string();
        assert!(s.contains("Figure 13(a)"));
        assert!(s.contains("Ncm=5"));
    }
}
