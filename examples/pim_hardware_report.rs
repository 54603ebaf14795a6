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
use genpip::mapping::ReferenceIndex;
use genpip::pim::area_power::genpip_table2;
use genpip::pim::{BasecallModule, DpModule, PimTech, SeedingModule, SeedingUnitMap};

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

    println!("\n== Seeding-unit CAM image (reference index over 4 subarray groups) ==");
    let dataset = DatasetProfile::ecoli().scaled(0.1).generate();
    let index = ReferenceIndex::build(&dataset.reference, 15, 10);
    let cam_image = SeedingUnitMap::load(&index, 4, SeedingUnitMap::PAPER_ROWS_PER_ARRAY);
    print!("{}", cam_image.report());
    println!("(one position span per CAM subarray group; a query is broadcast to all groups)");

    println!("\n== GenPIP schedule on a sample workload ==");
    let config = GenPipConfig::for_dataset(&dataset.profile);
    let run = PipelineRun::collect(&dataset, &config, Flow::GenPip(ErMode::Full));
    let eval = evaluate_genpip(&run, &SoftwareCosts::calibrated(), &tech);
    println!("makespan: {}", eval.time);
    for (stage, util) in &eval.stage_utilization {
        println!("  {stage:<10} utilization {:>6.2}%", util * 100.0);
    }
    println!("energy breakdown:\n{}", eval.energy);

    // A miniature Gantt of the chunk pipeline: three reads of four chunks on
    // a 1-stream basecaller feeding seeding and DP, showing the CP overlap.
    println!("\n== Chunk-pipeline Gantt (3 reads x 4 chunks, illustrative) ==");
    use genpip::sim::{render_gantt, Job, PipelineSim, SimTime, StageSpec};
    let mut sim = PipelineSim::new(vec![
        StageSpec::new("basecall", 1).sequential_within_read(),
        StageSpec::new("seed", 4),
        StageSpec::new("dp", 4).sequential_within_read(),
    ]);
    let jobs: Vec<Job> = (0..12)
        .map(|i| {
            Job::new(
                i / 4,
                i % 4,
                vec![
                    SimTime::from_us(500.0),
                    SimTime::from_us(60.0),
                    SimTime::from_us(40.0),
                ],
            )
        })
        .collect();
    let report = sim.run_traced(&jobs);
    print!("{}", render_gantt(&report, &["basecall", "seed", "dp"], 72));
    println!("(digits are read ids; '.' is idle)");
}
