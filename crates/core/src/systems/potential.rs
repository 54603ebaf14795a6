//! The Figure 4 potential study: Systems A–D.
//!
//! Section 2.4 of the paper motivates GenPIP by bounding what integration
//! can buy:
//!
//! * **System A** — current practice: GPU Bonito on one machine, CPU
//!   minimap2 on another, data moved between them.
//! * **System B** — state-of-the-art accelerators: Helix + PARC with QC on a
//!   CPU, still moving data between devices.
//! * **System C** — System B with all data movement ideally eliminated.
//! * **System D** — System C with useless (low-quality or unmapped) reads
//!   ideally removed *before any processing* (oracle early rejection).
//!
//! The paper reports 1× / 2.74× / 6.12× / 9×; the shape to reproduce is the
//! monotone staircase with C/B ≈ 2.2 and D/B ≈ 3.3.

use crate::pipeline::{PipelineRun, ReadOutcome};
use crate::systems::costs::SoftwareCosts;
use crate::systems::hardware::evaluate_pim_baseline;
use crate::systems::software::{evaluate_software, BasecallDevice};
use genpip_pim::PimTech;
use genpip_sim::SimTime;

/// One row of the Figure 4 study.
#[derive(Debug, Clone, PartialEq)]
pub struct PotentialRow {
    /// System label ("A".."D").
    pub system: &'static str,
    /// Description.
    pub description: &'static str,
    /// Absolute modelled time.
    pub time: SimTime,
    /// Speedup normalized to System A.
    pub speedup_vs_a: f64,
}

/// Runs the four-system potential study on a conventional workload.
pub fn potential_study(
    conventional: &PipelineRun,
    costs: &SoftwareCosts,
    tech: &PimTech,
) -> Vec<PotentialRow> {
    let a = evaluate_software(conventional, costs, BasecallDevice::Gpu, false).time;
    let b = evaluate_pim_baseline(conventional, costs, tech, true).time;
    let c = evaluate_pim_baseline(conventional, costs, tech, false).time;
    // Oracle: drop reads that will end up useless before any processing.
    let useful = conventional.filtered(|r| matches!(r.outcome, ReadOutcome::Mapped(_)));
    let d = evaluate_pim_baseline(&useful, costs, tech, false).time;

    let rows = [
        ("A", "GPU basecall + CPU map, separate machines", a),
        ("B", "Helix + PARC + CPU QC, with data movement", b),
        ("C", "System B without data movement", c),
        ("D", "System C without useless reads", d),
    ];
    rows.into_iter()
        .map(|(system, description, time)| PotentialRow {
            system,
            description,
            time,
            speedup_vs_a: a.as_secs() / time.as_secs(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GenPipConfig;
    use crate::engine::Flow;
    use crate::pipeline::PipelineRun;
    use genpip_datasets::DatasetProfile;

    fn study() -> Vec<PotentialRow> {
        let d = DatasetProfile::ecoli().scaled(0.08).generate();
        let config = GenPipConfig::for_dataset(&d.profile);
        let conv = PipelineRun::collect(&d, &config, Flow::Conventional);
        potential_study(&conv, &SoftwareCosts::calibrated(), &PimTech::paper_32nm())
    }

    #[test]
    fn staircase_is_monotone() {
        let rows = study();
        assert_eq!(rows.len(), 4);
        assert!((rows[0].speedup_vs_a - 1.0).abs() < 1e-9);
        for w in rows.windows(2) {
            assert!(
                w[1].speedup_vs_a > w[0].speedup_vs_a,
                "{} ({}) not faster than {} ({})",
                w[1].system,
                w[1].speedup_vs_a,
                w[0].system,
                w[0].speedup_vs_a
            );
        }
    }

    #[test]
    fn factors_match_paper_bands() {
        let rows = study();
        let b = rows[1].speedup_vs_a;
        let c = rows[2].speedup_vs_a;
        let d = rows[3].speedup_vs_a;
        // Paper: B = 2.74, C/B = 2.23, D/B = 3.28.
        assert!((1.5..5.0).contains(&b), "B = {b}");
        assert!((1.4..3.2).contains(&(c / b)), "C/B = {}", c / b);
        assert!((1.8..4.5).contains(&(d / b)), "D/B = {}", d / b);
    }
}
