//! Figure 4: the potential study (Systems A–D).

use crate::config::GenPipConfig;
use crate::engine::Flow;
use crate::experiments::FigureTable;
use crate::pipeline::PipelineRun;
use crate::systems::potential::{potential_study, PotentialRow};
use crate::systems::SystemCosts;
use genpip_datasets::DatasetProfile;
use std::fmt;

/// The paper's normalized speedups for Systems A–D.
pub const PAPER_SPEEDUPS: [f64; 4] = [1.0, 2.74, 6.12, 9.0];

/// Result of the Figure 4 experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig04 {
    /// The four system rows.
    pub rows: Vec<PotentialRow>,
}

/// Runs the potential study on the E. coli profile at `scale`.
pub fn run(scale: f64) -> Fig04 {
    let dataset = DatasetProfile::ecoli().scaled(scale).generate();
    let config = GenPipConfig::for_dataset(&dataset.profile);
    let conventional = PipelineRun::collect(&dataset, &config, Flow::Conventional);
    let costs = SystemCosts::default();
    Fig04 {
        rows: potential_study(&conventional, &costs.software, &costs.tech),
    }
}

impl Fig04 {
    /// Renders the measured-vs-paper table.
    pub fn table(&self) -> FigureTable {
        let mut t = FigureTable::new(
            "Figure 4 — potential study (speedup normalized to System A)",
            vec!["measured".into(), "paper".into()],
        );
        for (row, paper) in self.rows.iter().zip(PAPER_SPEEDUPS) {
            t.push_row(
                format!("System {}", row.system),
                vec![Some(row.speedup_vs_a), Some(paper)],
            );
        }
        t
    }
}

impl fmt::Display for Fig04 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.table())?;
        for row in &self.rows {
            writeln!(f, "  {}: {}", row.system, row.description)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staircase_shape_reproduces() {
        let fig = run(0.08);
        assert_eq!(fig.rows.len(), 4);
        let speedups: Vec<f64> = fig.rows.iter().map(|r| r.speedup_vs_a).collect();
        assert!(speedups.windows(2).all(|w| w[1] > w[0]), "{speedups:?}");
        let table = fig.table();
        assert_eq!(table.value("System A", 1), Some(1.0));
        assert!(fig.to_string().contains("System B"));
    }
}
