//! Ablation studies beyond the paper's sweeps.
//!
//! Three design choices DESIGN.md calls out get their own sensitivity
//! studies:
//!
//! * **chunk size** beyond the paper's 300–500 range
//!   ([`chunk_size_sweep`]) — very small chunks lose minimizers at
//!   boundaries and inflate per-chunk overheads; very large chunks delay
//!   early rejection;
//! * **DP-unit count** ([`dp_unit_sweep`]) — the paper provisions 1024
//!   units; how over-provisioned is that for the chunk pipeline?
//! * **basecaller initiation interval** ([`basecaller_ii_sweep`]) — the
//!   pipeline is basecall-bound, so module throughput translates almost
//!   linearly into end-to-end speed, which is why Helix-class acceleration
//!   matters more than mapping-side tuning.

use crate::config::GenPipConfig;
use crate::engine::Flow;
use crate::experiments::FigureTable;
use crate::pipeline::{ErMode, PipelineRun, ReadOutcome};
use crate::systems::hardware::evaluate_genpip;
use crate::systems::software::{evaluate_software, BasecallDevice};
use crate::systems::SystemCosts;
use genpip_datasets::{DatasetProfile, SimulatedDataset};
use std::fmt;

/// One chunk-size ablation point.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkSizePoint {
    /// Chunk size in bases.
    pub chunk_bases: usize,
    /// GenPIP speedup over the conventional CPU flow.
    pub speedup_vs_cpu: f64,
    /// Fraction of reads mapped under full ER.
    pub mapped_fraction: f64,
    /// Fraction of basecalling work saved by ER.
    pub work_saved: f64,
}

/// The chunk sizes swept (the paper covers only 300–500).
pub const CHUNK_SWEEP: [usize; 6] = [100, 200, 300, 500, 800, 1200];

/// Runs the chunk-size ablation on the E. coli profile.
pub fn chunk_size_sweep(scale: f64) -> Vec<ChunkSizePoint> {
    let profile = DatasetProfile::ecoli().scaled(scale);
    let dataset = profile.generate();
    let costs = SystemCosts::default();
    CHUNK_SWEEP
        .iter()
        .map(|&chunk| {
            let config = GenPipConfig::for_dataset(&profile).with_chunk_bases(chunk);
            let conventional = PipelineRun::collect(&dataset, &config, Flow::Conventional);
            let er = PipelineRun::collect(&dataset, &config, Flow::GenPip(ErMode::Full));
            let cpu = evaluate_software(&conventional, &costs.software, BasecallDevice::Cpu, false);
            let genpip = evaluate_genpip(&er, &costs.software, &costs.tech);
            ChunkSizePoint {
                chunk_bases: chunk,
                speedup_vs_cpu: cpu.time.as_secs() / genpip.time.as_secs(),
                mapped_fraction: mapped_fraction(&er),
                work_saved: 1.0 - er.totals().samples as f64 / conventional.totals().samples as f64,
            }
        })
        .collect()
}

fn mapped_fraction(run: &PipelineRun) -> f64 {
    run.count_outcomes(ReadOutcome::is_mapped) as f64 / run.reads.len().max(1) as f64
}

/// One hardware-provisioning ablation point.
#[derive(Debug, Clone, PartialEq)]
pub struct HardwarePoint {
    /// The swept parameter's value.
    pub value: usize,
    /// GenPIP makespan in seconds.
    pub makespan_s: f64,
}

/// Sweeps the DP-unit count on a fixed full-ER workload. Cheap: the
/// functional run happens once; only the schedule is recomputed.
pub fn dp_unit_sweep(dataset: &SimulatedDataset, units: &[usize]) -> Vec<HardwarePoint> {
    let config = GenPipConfig::for_dataset(&dataset.profile);
    let run = PipelineRun::collect(dataset, &config, Flow::GenPip(ErMode::Full));
    let costs = SystemCosts::default();
    units
        .iter()
        .map(|&u| {
            let mut tech = costs.tech;
            tech.dp_units = u.max(1);
            HardwarePoint {
                value: u,
                makespan_s: evaluate_genpip(&run, &costs.software, &tech).time.as_secs(),
            }
        })
        .collect()
}

/// Sweeps the basecaller initiation interval on a fixed full-ER workload.
pub fn basecaller_ii_sweep(dataset: &SimulatedDataset, intervals: &[usize]) -> Vec<HardwarePoint> {
    let config = GenPipConfig::for_dataset(&dataset.profile);
    let run = PipelineRun::collect(dataset, &config, Flow::GenPip(ErMode::Full));
    let costs = SystemCosts::default();
    intervals
        .iter()
        .map(|&ii| {
            let mut tech = costs.tech;
            tech.bc_initiation_interval_cycles = ii.max(1);
            HardwarePoint {
                value: ii,
                makespan_s: evaluate_genpip(&run, &costs.software, &tech).time.as_secs(),
            }
        })
        .collect()
}

/// The full ablation report.
#[derive(Debug, Clone, PartialEq)]
pub struct Ablations {
    /// Chunk-size sweep points.
    pub chunk_sizes: Vec<ChunkSizePoint>,
    /// DP-unit sweep points.
    pub dp_units: Vec<HardwarePoint>,
    /// Initiation-interval sweep points.
    pub basecaller_ii: Vec<HardwarePoint>,
}

/// Runs all three ablations at `scale`.
pub fn run(scale: f64) -> Ablations {
    let chunk_sizes = chunk_size_sweep(scale);
    let dataset = DatasetProfile::ecoli().scaled(scale).generate();
    Ablations {
        chunk_sizes,
        dp_units: dp_unit_sweep(&dataset, &[16, 64, 256, 1024, 4096]),
        basecaller_ii: basecaller_ii_sweep(&dataset, &[1, 2, 4, 8]),
    }
}

impl Ablations {
    /// The chunk-size table.
    pub fn chunk_table(&self) -> FigureTable {
        let mut t = FigureTable::new(
            "Ablation — chunk size (paper evaluates only 300–500)",
            vec![
                "speedup vs CPU".into(),
                "mapped frac".into(),
                "work saved".into(),
            ],
        );
        for p in &self.chunk_sizes {
            t.push_row(
                format!("{} bases", p.chunk_bases),
                vec![
                    Some(p.speedup_vs_cpu),
                    Some(p.mapped_fraction),
                    Some(p.work_saved),
                ],
            );
        }
        t
    }
}

impl fmt::Display for Ablations {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.chunk_table())?;
        writeln!(f, "DP-unit sweep (fixed workload):")?;
        for p in &self.dp_units {
            writeln!(f, "  {:>5} units: makespan {:.4} s", p.value, p.makespan_s)?;
        }
        writeln!(f, "basecaller initiation-interval sweep:")?;
        for p in &self.basecaller_ii {
            writeln!(
                f,
                "  II = {:>2} cycles: makespan {:.4} s",
                p.value, p.makespan_s
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_size_barely_moves_the_needle_in_paper_range() {
        // The paper's observation: results are robust to chunk size. Check
        // it on the 300/500 pair.
        let points = chunk_size_sweep(0.08);
        let get = |c: usize| {
            points
                .iter()
                .find(|p| p.chunk_bases == c)
                .unwrap()
                .speedup_vs_cpu
        };
        let ratio = get(300) / get(500);
        assert!((0.7..1.4).contains(&ratio), "300 vs 500 ratio {ratio}");
        // Mapped fraction stays healthy at every size.
        for p in &points {
            assert!(
                p.mapped_fraction > 0.4,
                "chunk {}: {}",
                p.chunk_bases,
                p.mapped_fraction
            );
        }
    }

    #[test]
    fn dp_units_are_overprovisioned_and_ii_matters() {
        let dataset = DatasetProfile::ecoli().scaled(0.05).generate();
        let dp = dp_unit_sweep(&dataset, &[16, 1024]);
        // The chunk pipeline is basecall-bound: 16 DP units are nearly as
        // good as 1024.
        let slowdown = dp[0].makespan_s / dp[1].makespan_s;
        assert!(slowdown < 1.2, "16 vs 1024 DP units slowdown {slowdown}");

        let ii = basecaller_ii_sweep(&dataset, &[1, 2, 8]);
        // Basecaller throughput translates ~linearly into makespan.
        assert!(ii[2].makespan_s > 2.5 * ii[0].makespan_s);
        assert!(ii[1].makespan_s > ii[0].makespan_s);
    }

    #[test]
    fn report_renders() {
        let a = run(0.04);
        let s = a.to_string();
        assert!(s.contains("Ablation"));
        assert!(s.contains("DP-unit sweep"));
        assert!(s.contains("II ="));
    }
}
