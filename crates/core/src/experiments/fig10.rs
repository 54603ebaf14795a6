//! Figure 10: speedups of the ten systems over CPU, across both datasets and
//! chunk sizes 300/400/500, with GMEAN.
//!
//! This module also owns the shared systems matrix that Figure 11 (energy)
//! reuses.

use crate::config::GenPipConfig;
use crate::experiments::FigureTable;
use crate::systems::{evaluate_all, SystemCosts, SystemEvaluation, SystemKind, WorkloadSet};
use genpip_datasets::DatasetProfile;
use genpip_genomics::stats::geometric_mean;
use std::fmt;

/// Paper GMEAN speedups vs CPU (Figure 10 plus the ratios quoted in
/// Section 6.1). `None` where the paper gives no precise number.
pub fn paper_speedup(kind: SystemKind) -> Option<f64> {
    match kind {
        SystemKind::Cpu => Some(1.0),
        SystemKind::CpuCp => Some(1.20),
        SystemKind::CpuGp => Some(1.42),
        SystemKind::Gpu => Some(41.6 / 8.4),
        SystemKind::GpuCp => Some(41.6 / 8.4 * 1.32),
        SystemKind::GpuGp => Some(41.6 / 8.4 * 1.46),
        SystemKind::Pim => Some(41.6 / 1.39),
        SystemKind::GenPipCp => Some(41.6 / 1.39 * 1.16),
        SystemKind::GenPipCpQsr => Some(41.6 / 1.39 * 1.32),
        SystemKind::GenPip => Some(41.6),
    }
}

/// One dataset × chunk-size cell of the evaluation matrix.
#[derive(Debug, Clone)]
pub struct MatrixCell {
    /// Dataset name.
    pub dataset: String,
    /// Chunk size in bases.
    pub chunk_bases: usize,
    /// All ten system evaluations.
    pub evals: Vec<SystemEvaluation>,
}

impl MatrixCell {
    /// Column label, e.g. `"Ecoli.300"`.
    pub fn label(&self) -> String {
        let mut name = self.dataset.clone();
        if let Some(first) = name.get_mut(0..1) {
            first.make_ascii_uppercase();
        }
        format!("{name}.{}", self.chunk_bases)
    }

    /// The evaluation of one system.
    ///
    /// # Panics
    ///
    /// Panics if the system is missing.
    pub fn eval(&self, kind: SystemKind) -> &SystemEvaluation {
        self.evals
            .iter()
            .find(|e| e.kind == kind)
            .expect("all systems evaluated")
    }
}

/// The full evaluation matrix (Figures 10 and 11 share it).
#[derive(Debug, Clone)]
pub struct SystemsMatrix {
    /// Cells in presentation order (E. coli 300/400/500, human 300/400/500).
    pub cells: Vec<MatrixCell>,
}

/// The chunk sizes the paper evaluates.
pub const CHUNK_SIZES: [usize; 3] = [300, 400, 500];

/// Builds the matrix: both datasets × three chunk sizes × ten systems.
pub fn systems_matrix(scale: f64) -> SystemsMatrix {
    let costs = SystemCosts::default();
    let mut cells = Vec::new();
    for profile in [DatasetProfile::ecoli(), DatasetProfile::human()] {
        let profile = profile.scaled(scale);
        let dataset = profile.generate();
        for chunk in CHUNK_SIZES {
            let config = GenPipConfig::for_dataset(&profile).with_chunk_bases(chunk);
            let workloads = WorkloadSet::build(&dataset, &config);
            cells.push(MatrixCell {
                dataset: profile.name.to_string(),
                chunk_bases: chunk,
                evals: evaluate_all(&workloads, &costs),
            });
        }
    }
    SystemsMatrix { cells }
}

impl SystemsMatrix {
    /// Per-cell metric values for one system, normalized to the CPU system
    /// of the same cell; `metric` maps an evaluation to the raw quantity
    /// (time or energy), and normalization is `cpu / system` so bigger is
    /// better.
    pub(crate) fn normalized(
        &self,
        kind: SystemKind,
        metric: impl Fn(&SystemEvaluation) -> f64,
    ) -> Vec<f64> {
        self.cells
            .iter()
            .map(|cell| metric(cell.eval(SystemKind::Cpu)) / metric(cell.eval(kind)))
            .collect()
    }

    /// Builds the Figure 10/11-style table for a metric.
    pub fn table(
        &self,
        title: &str,
        metric: impl Fn(&SystemEvaluation) -> f64 + Copy,
        paper: impl Fn(SystemKind) -> Option<f64>,
    ) -> FigureTable {
        let mut columns: Vec<String> = self.cells.iter().map(MatrixCell::label).collect();
        columns.push("GMEAN".into());
        columns.push("paper".into());
        let mut t = FigureTable::new(title, columns);
        for kind in SystemKind::ALL {
            let values = self.normalized(kind, metric);
            let gmean = geometric_mean(&values);
            let mut row: Vec<Option<f64>> = values.into_iter().map(Some).collect();
            row.push(Some(gmean));
            row.push(paper(kind));
            t.push_row(kind.name(), row);
        }
        t
    }
}

/// Result of the Figure 10 experiment.
#[derive(Debug, Clone)]
pub struct Fig10 {
    /// The underlying matrix.
    pub matrix: SystemsMatrix,
}

/// Runs the Figure 10 experiment at `scale`.
pub fn run(scale: f64) -> Fig10 {
    Fig10 {
        matrix: systems_matrix(scale),
    }
}

impl Fig10 {
    /// The speedup table.
    pub fn table(&self) -> FigureTable {
        self.matrix.table(
            "Figure 10 — speedup over CPU (higher is better)",
            |e| e.time.as_secs(),
            paper_speedup,
        )
    }
}

impl fmt::Display for Fig10 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.table())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_covers_all_cells_and_orderings_hold() {
        let fig = run(0.05);
        assert_eq!(fig.matrix.cells.len(), 6);
        let metric = |e: &SystemEvaluation| e.time.as_secs();
        // Orderings on the GMEAN (Figure 10's key claims).
        let g = |k: SystemKind| geometric_mean(&fig.matrix.normalized(k, metric));
        assert!(g(SystemKind::GenPip) > g(SystemKind::GenPipCpQsr));
        assert!(g(SystemKind::GenPipCpQsr) > g(SystemKind::GenPipCp));
        assert!(g(SystemKind::GenPipCp) > g(SystemKind::Pim));
        assert!(g(SystemKind::Pim) > g(SystemKind::Gpu));
        assert!(g(SystemKind::Gpu) > g(SystemKind::Cpu));
        // Robust to chunk size: per-system spread across chunk sizes of the
        // same dataset stays small (paper: "performance benefits do not
        // change significantly with chunk size").
        let genpip: Vec<f64> = fig.matrix.normalized(SystemKind::GenPip, metric);
        for window in genpip.chunks(3) {
            let max = window.iter().cloned().fold(f64::MIN, f64::max);
            let min = window.iter().cloned().fold(f64::MAX, f64::min);
            assert!(
                max / min < 1.5,
                "chunk-size sensitivity too high: {window:?}"
            );
        }
    }

    #[test]
    fn table_has_gmean_and_paper_columns() {
        let fig = run(0.05);
        let t = fig.table();
        assert_eq!(t.columns.len(), 8);
        assert_eq!(t.value("CPU", 6), Some(1.0));
        assert!(t.value("GenPIP", 7).unwrap() > 40.0);
        assert!(t.value("GenPIP", 6).unwrap() > 10.0);
    }
}
