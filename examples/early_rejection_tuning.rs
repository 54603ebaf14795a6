//! Early-rejection threshold tuning — an ablation beyond the paper's
//! sensitivity sweeps.
//!
//! ```text
//! cargo run --release --example early_rejection_tuning [scale]
//! ```
//!
//! The paper sweeps the *number of chunks* (`N_qs`, `N_cm`) at fixed
//! thresholds; this example sweeps the thresholds themselves (`θ_qs`,
//! `θ_cm`) and prints the rejection/false-negative trade-off grid, which is
//! how an operator would pick an operating point for a new chemistry.

use genpip::core::analysis::{cmr_analysis, qsr_analysis};
use genpip::core::{ErMode, Flow, GenPipConfig, PipelineRun};
use genpip::datasets::DatasetProfile;

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.2);
    let profile = DatasetProfile::ecoli().scaled(scale);
    let dataset = profile.generate();
    let base = GenPipConfig::for_dataset(&profile);
    let oracle = PipelineRun::collect(&dataset, &base, Flow::Conventional);

    println!("θ_qs sweep (QSR only, N_qs = {}):", base.n_qs);
    println!(
        "{:>8} {:>12} {:>12} {:>14}",
        "θ_qs", "rejected", "FN ratio", "samples saved"
    );
    for theta in [5.0, 6.0, 7.0, 8.0, 9.0] {
        let mut config = base.clone();
        config.theta_qs = theta;
        let run = PipelineRun::collect(&dataset, &config, Flow::GenPip(ErMode::QsrOnly));
        let a = qsr_analysis(&run, &oracle, theta);
        let saved = 1.0 - run.totals().samples as f64 / oracle.totals().samples as f64;
        println!(
            "{theta:>8.1} {:>11.1}% {:>11.1}% {:>13.1}%",
            a.rejection_ratio() * 100.0,
            a.false_negative_ratio() * 100.0,
            saved * 100.0
        );
    }

    println!("\nθ_cm sweep (full ER, N_cm = {}):", base.n_cm);
    println!(
        "{:>8} {:>12} {:>12} {:>14}",
        "θ_cm", "rejected", "FN ratio", "samples saved"
    );
    for theta in [15.0, 55.0, 150.0, 400.0, 800.0] {
        let mut config = base.clone();
        config.theta_cm = theta;
        let run = PipelineRun::collect(&dataset, &config, Flow::GenPip(ErMode::Full));
        let a = cmr_analysis(&run, &oracle);
        let saved = 1.0 - run.totals().samples as f64 / oracle.totals().samples as f64;
        println!(
            "{theta:>8.1} {:>11.1}% {:>11.1}% {:>13.1}%",
            a.rejection_ratio() * 100.0,
            a.false_negative_ratio() * 100.0,
            saved * 100.0
        );
    }

    println!("\n(the paper's operating point is θ_qs = 7 with dataset-specific N_qs/N_cm)");
}
