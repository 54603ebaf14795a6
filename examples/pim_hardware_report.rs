//! PIM hardware report: Table 2 budget, device constants, and the GenPIP
//! schedule's stage utilizations on a sample workload.
//!
//! ```text
//! cargo run --release --example pim_hardware_report
//! ```

use genpip::core::systems::costs::SoftwareCosts;
use genpip::core::systems::hardware::evaluate_genpip;
use genpip::core::{ErMode, Flow, GenPipConfig, PipelineRun};
use genpip::datasets::DatasetProfile;
use genpip::pim::area_power::genpip_table2;
use genpip::pim::{BasecallModule, DpModule, PimTech, SeedingModule};

fn main() {
    let tech = PimTech::paper_32nm();

    println!("== Table 2: area and power budget ==");
    println!("{}\n", genpip_table2());

    println!("== Device constants (32 nm) ==");
    println!("crossbar MVM cycle:      {}", tech.t_mvm_cycle);
    println!(
        "basecall pipeline depth: {} cycles, II = {}",
        tech.bc_pipeline_depth_cycles, tech.bc_initiation_interval_cycles
    );
    println!("CAM search:              {}", tech.t_cam_search);
    println!("ReRAM read:              {}", tech.t_ram_read);
    println!("DP step:                 {}", tech.t_dp_step);
    let bc = BasecallModule::new(tech);
    let seed = SeedingModule::new(tech);
    let dp = DpModule::new(tech);
    println!("\n== Module service times for a 300-base chunk ==");
    println!("basecall (2400 samples): {}", bc.chunk_service(2400));
    println!(
        "seeding (300 shifts, 60 hits): {}",
        seed.chunk_service(300, 60)
    );
    println!("chaining (60 anchors):   {}", dp.chain_service(60));
    println!("alignment (9 kb read):   {}", dp.align_service(9_000));

    println!("\n== GenPIP schedule on a sample workload ==");
    let dataset = DatasetProfile::ecoli().scaled(0.1).generate();
    let config = GenPipConfig::for_dataset(&dataset.profile);
    let run = PipelineRun::collect(&dataset, &config, Flow::GenPip(ErMode::Full));
    let eval = evaluate_genpip(&run, &SoftwareCosts::calibrated(), &tech);
    println!("makespan: {}", eval.time);
    for (stage, util) in &eval.stage_utilization {
        println!("  {stage:<10} utilization {:>6.2}%", util * 100.0);
    }
    println!("energy breakdown:\n{}", eval.energy);
}
