//! Experiment drivers — one per paper figure/table.
//!
//! Each driver regenerates its figure/table from scratch (dataset synthesis
//! → functional pipeline → cost models) and renders a report comparing the
//! measured values with the paper's published numbers. `genpip experiment
//! <name> --scale S` is the one front end that runs them.
//!
//! All drivers accept a `scale` factor for dataset size; `1.0` is the
//! default experiment scale defined by the profiles (seconds per run on a
//! laptop), smaller values give quick smoke runs.

pub mod ablations;
pub mod fig04;
pub mod fig07;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod tab01;
pub mod tab02;
pub mod useless;

use std::fmt;

/// A labelled numeric table with optional paper-reference values, rendered
/// by every experiment report.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureTable {
    /// Table title.
    pub title: String,
    /// Column headers (after the row-label column).
    pub columns: Vec<String>,
    /// Rows: label + one value per column.
    pub rows: Vec<TableRow>,
}

/// One row of a [`FigureTable`].
#[derive(Debug, Clone, PartialEq)]
pub struct TableRow {
    /// Row label.
    pub label: String,
    /// Values, one per column (`None` renders as a dash).
    pub values: Vec<Option<f64>>,
}

impl FigureTable {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, columns: Vec<String>) -> FigureTable {
        FigureTable {
            title: title.into(),
            columns,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the value count does not match the column count.
    pub fn push_row(&mut self, label: impl Into<String>, values: Vec<Option<f64>>) {
        assert_eq!(
            values.len(),
            self.columns.len(),
            "row width must match columns"
        );
        self.rows.push(TableRow {
            label: label.into(),
            values,
        });
    }
}

impl fmt::Display for FigureTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.title)?;
        write!(f, "{:<18}", "")?;
        for c in &self.columns {
            write!(f, "{c:>12}")?;
        }
        writeln!(f)?;
        for row in &self.rows {
            write!(f, "{:<18}", row.label)?;
            for v in &row.values {
                match v {
                    Some(x) if x.abs() >= 1000.0 => write!(f, "{x:>12.0}")?,
                    Some(x) => write!(f, "{x:>12.2}")?,
                    None => write!(f, "{:>12}", "-")?,
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Renders a numeric series as a one-line ASCII sparkline (used by the
/// Figure 7 report to show chunk-quality profiles).
pub fn sparkline(values: &[f64], lo: f64, hi: f64) -> String {
    const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let span = (hi - lo).max(1e-9);
    values
        .iter()
        .map(|&v| {
            let t = ((v - lo) / span).clamp(0.0, 1.0);
            LEVELS[((t * (LEVELS.len() - 1) as f64).round()) as usize]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    impl FigureTable {
        /// Looks up a cell by row label and column index.
        pub(crate) fn value(&self, label: &str, column: usize) -> Option<f64> {
            self.rows
                .iter()
                .find(|r| r.label == label)
                .and_then(|r| r.values.get(column).copied().flatten())
        }
    }

    #[test]
    fn table_rendering_and_lookup() {
        let mut t = FigureTable::new("demo", vec!["a".into(), "b".into()]);
        t.push_row("row1", vec![Some(1.5), None]);
        t.push_row("row2", vec![Some(2000.0), Some(0.25)]);
        let s = t.to_string();
        assert!(s.contains("demo"));
        assert!(s.contains("row1"));
        assert!(s.contains('-'));
        assert_eq!(t.value("row1", 0), Some(1.5));
        assert_eq!(t.value("row1", 1), None);
        assert_eq!(t.value("missing", 0), None);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = FigureTable::new("demo", vec!["a".into()]);
        t.push_row("r", vec![Some(1.0), Some(2.0)]);
    }

    #[test]
    fn sparkline_maps_range() {
        let s = sparkline(&[0.0, 5.0, 10.0], 0.0, 10.0);
        assert_eq!(s.chars().count(), 3);
        assert!(s.starts_with('▁'));
        assert!(s.ends_with('█'));
    }
}
