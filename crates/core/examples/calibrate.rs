//! Calibration diagnostic: prints workload totals, phase times, and the
//! headline system ratios on a small dataset. Used while tuning the cost
//! models; kept as a fast way to sanity-check changes.

use genpip_core::config::GenPipConfig;
use genpip_core::pipeline::{ErMode, PipelineRun};
use genpip_core::systems::costs::SoftwareCosts;
use genpip_core::systems::hardware::{evaluate_genpip, evaluate_pim_baseline};
use genpip_core::systems::potential::potential_study;
use genpip_core::systems::software::{evaluate_software, BasecallDevice, SoftwarePhases};
use genpip_core::Flow;
use genpip_datasets::DatasetProfile;
use genpip_pim::PimTech;

fn main() {
    let d = DatasetProfile::ecoli().scaled(0.08).generate();
    let config = GenPipConfig::for_dataset(&d.profile);
    let conv = PipelineRun::collect(&d, &config, Flow::Conventional);
    let cp = PipelineRun::collect(&d, &config, Flow::GenPip(ErMode::None));
    let qsr = PipelineRun::collect(&d, &config, Flow::GenPip(ErMode::QsrOnly));
    let full = PipelineRun::collect(&d, &config, Flow::GenPip(ErMode::Full));
    let costs = SoftwareCosts::calibrated();
    let tech = PimTech::paper_32nm();

    let t = conv.totals();
    println!("conventional totals: {t:#?}");
    println!("cp totals: {:#?}", cp.totals());
    println!("full totals: {:#?}", full.totals());

    let p = SoftwarePhases::from_workload(&t, &costs, BasecallDevice::Cpu);
    println!(
        "\nCPU phases: raw={} bc={} called={} qc={} map={}",
        p.t_raw_transfer, p.t_basecall, p.t_called_transfer, p.t_qc, p.t_map
    );

    let pim = evaluate_pim_baseline(&conv, &costs, &tech, false);
    println!(
        "\nPIM time = {}  energy = {:.3} J",
        pim.time,
        pim.energy.total()
    );
    println!("{}", pim.energy);
    let g_cp = evaluate_genpip(&cp, &costs, &tech);
    println!(
        "\nGenPIP-CP time = {} energy = {:.3}",
        g_cp.time,
        g_cp.energy.total()
    );
    for (s, u) in &g_cp.stage_utilization {
        println!("  {s}: {u:.4}");
    }
    println!("{}", g_cp.energy);
    let g_qsr = evaluate_genpip(&qsr, &costs, &tech);
    let g_full = evaluate_genpip(&full, &costs, &tech);
    println!(
        "\nGenPIP-QSR time = {}  GenPIP time = {} energy {:.3}",
        g_qsr.time,
        g_full.time,
        g_full.energy.total()
    );
    println!("{}", g_full.energy);

    let cpu = evaluate_software(&conv, &costs, BasecallDevice::Cpu, false);
    let gpu = evaluate_software(&conv, &costs, BasecallDevice::Gpu, false);
    println!(
        "\nCPU time {} energy {:.1}  GPU time {} energy {:.1}",
        cpu.time,
        cpu.energy.total(),
        gpu.time,
        gpu.energy.total()
    );
    println!(
        "\nspeedups vs CPU: PIM {:.2} GenPIP-CP {:.2} GenPIP-QSR {:.2} GenPIP {:.2} GPU {:.2}",
        cpu.time.as_secs() / pim.time.as_secs(),
        cpu.time.as_secs() / g_cp.time.as_secs(),
        cpu.time.as_secs() / g_qsr.time.as_secs(),
        cpu.time.as_secs() / g_full.time.as_secs(),
        cpu.time.as_secs() / gpu.time.as_secs()
    );
    println!(
        "energy red vs CPU: PIM {:.2} GenPIP {:.2} GPU {:.2}",
        cpu.energy.total() / pim.energy.total(),
        cpu.energy.total() / g_full.energy.total(),
        cpu.energy.total() / gpu.energy.total()
    );

    println!("\nFig4:");
    for row in potential_study(&conv, &costs, &tech) {
        println!(
            "  {} {:>10} {:.2}x  {}",
            row.system,
            row.time.to_string(),
            row.speedup_vs_a,
            row.description
        );
    }
}
