//! Figure 11: energy reduction of the ten systems over CPU.

use crate::experiments::fig10::{systems_matrix, SystemsMatrix};
use crate::experiments::FigureTable;
use crate::systems::SystemKind;
use std::fmt;

/// Paper GMEAN energy reductions vs CPU (Figure 11 and Section 6.2).
/// `None` where the paper gives no precise number.
pub fn paper_energy_reduction(kind: SystemKind) -> Option<f64> {
    match kind {
        SystemKind::Cpu => Some(1.0),
        SystemKind::Gpu => Some(32.8 / 20.8),
        SystemKind::Pim => Some(32.8 / 1.37),
        SystemKind::GenPipCp => Some(32.8 / 1.37),
        SystemKind::GenPipCpQsr => Some(32.8 / 1.07),
        SystemKind::GenPip => Some(32.8),
        // The CPU/GPU ±CP/GP energy bars are only readable approximately
        // from the figure; no reference value.
        _ => None,
    }
}

/// Result of the Figure 11 experiment.
#[derive(Debug, Clone)]
pub struct Fig11 {
    /// The underlying matrix (shared with Figure 10).
    pub matrix: SystemsMatrix,
}

/// Runs the Figure 11 experiment at `scale`.
pub fn run(scale: f64) -> Fig11 {
    Fig11 {
        matrix: systems_matrix(scale),
    }
}

impl Fig11 {
    /// The energy-reduction table.
    pub fn table(&self) -> FigureTable {
        self.matrix.table(
            "Figure 11 — energy reduction over CPU (higher is better)",
            |e| e.energy_j(),
            paper_energy_reduction,
        )
    }
}

impl fmt::Display for Fig11 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.table())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::systems::SystemEvaluation;

    #[test]
    fn energy_orderings_hold() {
        let fig = run(0.05);
        let metric = |e: &SystemEvaluation| e.energy_j();
        let g = |k: SystemKind| fig.matrix.gmean(k, metric);
        assert!(g(SystemKind::GenPip) > g(SystemKind::GenPipCpQsr));
        assert!(g(SystemKind::GenPipCpQsr) > g(SystemKind::GenPipCp));
        assert!(g(SystemKind::GenPip) > g(SystemKind::Pim));
        assert!(g(SystemKind::Gpu) > 1.0);
        assert!(g(SystemKind::GenPip) / g(SystemKind::Pim) > 1.1);
    }

    #[test]
    fn table_renders_with_paper_column() {
        let fig = run(0.05);
        let t = fig.table();
        assert_eq!(t.value("CPU", 7), Some(1.0));
        assert!((t.value("GenPIP", 7).unwrap() - 32.8).abs() < 1e-9);
        assert!(fig.to_string().contains("Figure 11"));
    }
}
