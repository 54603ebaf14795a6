//! Integration tests of the system cost models: the paper's comparative
//! claims must hold end to end, from synthetic signals to modelled time and
//! energy.

use genpip::core::experiments;
use genpip::core::systems::{
    energy_reductions_vs, evaluate_all, speedups_vs, SystemCosts, SystemKind, WorkloadSet,
};
use genpip::core::GenPipConfig;
use genpip::datasets::DatasetProfile;

fn speedup_map() -> Vec<(SystemKind, f64)> {
    let d = DatasetProfile::ecoli().scaled(0.1).generate();
    let config = GenPipConfig::for_dataset(&d.profile);
    let workloads = WorkloadSet::build(&d, &config);
    let evals = evaluate_all(&workloads, &SystemCosts::default());
    speedups_vs(&evals, SystemKind::Cpu)
}

#[test]
fn figure10_column_ordering_holds_end_to_end() {
    let speedups = speedup_map();
    let get = |k: SystemKind| speedups.iter().find(|(s, _)| *s == k).unwrap().1;
    // The complete ordering the paper's bars show for one dataset column.
    let order = [
        SystemKind::Cpu,
        SystemKind::CpuCp,
        SystemKind::CpuGp,
        SystemKind::Gpu,
        SystemKind::GpuCp,
        SystemKind::GpuGp,
        SystemKind::Pim,
        SystemKind::GenPipCp,
        SystemKind::GenPipCpQsr,
        SystemKind::GenPip,
    ];
    for pair in order.windows(2) {
        assert!(
            get(pair[0]) < get(pair[1]),
            "{} ({:.2}x) should be slower than {} ({:.2}x)",
            pair[0],
            get(pair[0]),
            pair[1],
            get(pair[1])
        );
    }
}

#[test]
fn headline_speedups_land_in_paper_bands() {
    let speedups = speedup_map();
    let get = |k: SystemKind| speedups.iter().find(|(s, _)| *s == k).unwrap().1;
    let genpip = get(SystemKind::GenPip);
    assert!(
        (25.0..70.0).contains(&genpip),
        "GenPIP vs CPU {genpip} (paper 41.6)"
    );
    let vs_gpu = genpip / get(SystemKind::Gpu);
    assert!(
        (5.0..14.0).contains(&vs_gpu),
        "GenPIP vs GPU {vs_gpu} (paper 8.4)"
    );
    let vs_pim = genpip / get(SystemKind::Pim);
    assert!(
        (1.15..1.95).contains(&vs_pim),
        "GenPIP vs PIM {vs_pim} (paper 1.39)"
    );
}

#[test]
fn energy_claims_hold_end_to_end() {
    let d = DatasetProfile::ecoli().scaled(0.1).generate();
    let config = GenPipConfig::for_dataset(&d.profile);
    let workloads = WorkloadSet::build(&d, &config);
    let evals = evaluate_all(&workloads, &SystemCosts::default());
    let reductions = energy_reductions_vs(&evals, SystemKind::Cpu);
    let get = |k: SystemKind| reductions.iter().find(|(s, _)| *s == k).unwrap().1;
    assert!(
        (15.0..60.0).contains(&get(SystemKind::GenPip)),
        "GenPIP energy reduction {} (paper 32.8)",
        get(SystemKind::GenPip)
    );
    let vs_pim = get(SystemKind::GenPip) / get(SystemKind::Pim);
    assert!(
        (1.1..1.9).contains(&vs_pim),
        "GenPIP vs PIM energy {vs_pim} (paper 1.37)"
    );
    // Section 6.2: filtering on both quality and chunk mapping matters.
    assert!(get(SystemKind::GenPip) > get(SystemKind::GenPipCpQsr));
    assert!(get(SystemKind::GenPipCpQsr) > get(SystemKind::GenPipCp));
}

#[test]
fn figure4_staircase_holds_end_to_end() {
    let fig = experiments::fig04::run(0.1);
    let speedups: Vec<f64> = fig.rows.iter().map(|r| r.speedup_vs_a).collect();
    assert!(speedups.windows(2).all(|w| w[1] > w[0]), "{speedups:?}");
    // Paper: B 2.74, C 6.12, D 9.
    assert!((1.6..4.5).contains(&speedups[1]), "B {}", speedups[1]);
    assert!((3.5..9.0).contains(&speedups[2]), "C {}", speedups[2]);
    assert!((5.5..13.0).contains(&speedups[3]), "D {}", speedups[3]);
}

#[test]
fn table2_reproduces_exactly() {
    let tab = experiments::tab02::run();
    assert!((tab.budget.total_power_w() - 147.2).abs() < 0.5);
    assert!((tab.budget.total_area_mm2() - 163.8).abs() < 0.5);
    let rm = (tab.budget.modules.iter())
        .find(|m| m.name == "Read mapping module")
        .unwrap();
    assert!(rm.power_w() / tab.budget.total_power_w() > 0.7);
}
