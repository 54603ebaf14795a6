//! Golden outputs: the bytes the reproduction hands a user, pinned.
//!
//! Three kinds, each compared with `tests/golden/<name>.txt` byte for byte:
//!
//! * one small serial [`PipelineRun::collect`] per flow — the headline
//!   `GenPip(Full)` and the `Conventional` baseline — written as its
//!   per-outcome counts followed by the FASTQ of every read that kept its
//!   bases;
//! * every paper experiment's report at scale 0.1, exactly what `genpip
//!   experiment <name> --scale 0.1` prints (`tab02` takes no scale);
//! * the PAF of one small two-reference [`ReferenceSet`] mapping, what
//!   `genpip simulate` followed by `genpip map` with two `--reference`s
//!   writes.
//!
//! A change that claims bit-identical output (a faster kernel, a deleted
//! duplicate path) must leave these files unchanged; a change that moves
//! them re-blesses them on purpose:
//!
//! ```text
//! GENPIP_BLESS=1 cargo test -q --test golden
//! ```
//!
//! rewrites the files, and the diff is the change's evidence. The variable
//! is read by this test only.

use genpip::core::experiments;
use genpip::core::pipeline::{ErMode, PipelineRun};
use genpip::core::{Flow, GenPipConfig, Parallelism, ReadOutcome};
use genpip::datasets::DatasetProfile;
use genpip::genomics::fastx::FastqWriter;
use genpip::genomics::{Genome, GenomeBuilder};
use genpip::mapping::align::wide_band_fallbacks;
use genpip::mapping::paf::{write_paf, PafRecord};
use genpip::mapping::{MapperParams, ReferenceSet};
use std::path::PathBuf;

/// The dataset every golden run and the PAF read: 14 E. coli reads over a
/// 20 kb reference.
const SCALE: f64 = 0.02;

/// The scale every experiment golden runs at.
const EXPERIMENT_SCALE: f64 = 0.1;

/// The golden text of one serial run of `flow`: a header naming the run,
/// one line of outcome counts, then the FASTQ records (`read<id>`, as
/// `FastqSink` names them) in id order.
fn golden_text(flow: Flow) -> String {
    let profile = DatasetProfile::ecoli().scaled(SCALE);
    let dataset = profile.generate();
    let config = GenPipConfig::for_dataset(&profile)
        .with_keep_bases(true)
        .with_parallelism(Parallelism::Serial);
    let run = PipelineRun::collect(&dataset, &config, flow);
    assert_eq!(run.reads.len(), dataset.reads.len(), "no read is lost");

    let mut counts = [0usize; 5];
    for read in &run.reads {
        counts[match read.outcome {
            ReadOutcome::Mapped(_) => 0,
            ReadOutcome::Unmapped { .. } => 1,
            ReadOutcome::FilteredQc { .. } => 2,
            ReadOutcome::RejectedQsr { .. } => 3,
            ReadOutcome::RejectedCmr { .. } => 4,
        }] += 1;
    }
    let [mapped, unmapped, filtered_qc, rejected_qsr, rejected_cmr] = counts;
    let mut text = format!(
        "# PipelineRun::collect: DatasetProfile::ecoli().scaled({SCALE}), \
         Parallelism::Serial, {flow:?}\n\
         outcomes: mapped {mapped}, unmapped {unmapped}, filtered_qc {filtered_qc}, \
         rejected_qsr {rejected_qsr}, rejected_cmr {rejected_cmr}\n"
    );
    let mut fastq = FastqWriter::new(Vec::new());
    for read in &run.reads {
        if let Some(called) = &read.called {
            fastq
                .write_record(&format!("read{}", read.id), &called.seq, &called.quals)
                .expect("writing to memory");
        }
    }
    let bytes = fastq.finish().expect("writing to memory");
    text.push_str(std::str::from_utf8(&bytes).expect("FASTQ is ASCII"));
    text
}

/// Compares `got` with `tests/golden/<name>.txt`, naming the first line
/// that differs, or rewrites the file under `GENPIP_BLESS=1`.
fn check_golden(name: &str, got: &str) {
    let path: PathBuf = [env!("CARGO_MANIFEST_DIR"), "tests", "golden", name]
        .iter()
        .collect::<PathBuf>()
        .with_extension("txt");
    if std::env::var("GENPIP_BLESS").as_deref() == Ok("1") {
        std::fs::write(&path, got).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e} (bless it with GENPIP_BLESS=1 cargo test --test golden)",
            path.display()
        )
    });
    if got == want {
        return;
    }
    let (mut got_lines, mut want_lines) = (got.lines(), want.lines());
    for line in 1.. {
        match (got_lines.next(), want_lines.next()) {
            (None, None) => break,
            (g, w) if g == w => continue,
            (g, w) => panic!(
                "{name}: output differs from {} at line {line}:\n  got:  {}\n  want: {}",
                path.display(),
                g.unwrap_or("<end of output>"),
                w.unwrap_or("<end of file>"),
            ),
        }
    }
    panic!(
        "{name}: output differs from {} only in line endings",
        path.display()
    );
}

#[test]
fn genpip_full_collect_is_golden() {
    check_golden(
        "collect_genpip_full",
        &golden_text(Flow::GenPip(ErMode::Full)),
    );
}

#[test]
fn conventional_collect_is_golden() {
    check_golden("collect_conventional", &golden_text(Flow::Conventional));
}

/// Every alignment of both profiles at the golden scale, through both
/// flows, runs in the `i16` rows: no band's spread bound exceeds their limit
/// (the `genpip_mapping::align` module docs), so none falls back to the
/// portable `i32` row. The runs are serial, so every alignment is made on
/// this thread, where the fallbacks are counted; the count is the bound's,
/// whatever the host's vector extensions.
#[test]
fn no_alignment_of_either_profile_leaves_the_i16_rows() {
    let before = wide_band_fallbacks();
    let mut mapped = 0;
    for profile in [DatasetProfile::ecoli(), DatasetProfile::human()] {
        let profile = profile.scaled(SCALE);
        let dataset = profile.generate();
        let config = GenPipConfig::for_dataset(&profile).with_parallelism(Parallelism::Serial);
        for flow in [Flow::GenPip(ErMode::Full), Flow::Conventional] {
            let run = PipelineRun::collect(&dataset, &config, flow);
            mapped += run
                .reads
                .iter()
                .filter(|read| matches!(read.outcome, ReadOutcome::Mapped(_)))
                .count();
        }
    }
    assert!(mapped > 0, "the golden datasets map reads");
    assert_eq!(
        wide_band_fallbacks() - before,
        0,
        "alignments that ran the portable i32 row"
    );
}

/// One test per paper experiment, named after it: the report followed by
/// the newline `println!` adds, so the file equals the CLI's stdout.
macro_rules! experiment_goldens {
    ($($name:ident => $report:expr;)*) => {
        mod experiment {
            use super::*;
            $(
                #[test]
                fn $name() {
                    check_golden(stringify!($name), &format!("{}\n", $report));
                }
            )*
        }
    };
}

experiment_goldens! {
    fig04 => experiments::fig04::run(EXPERIMENT_SCALE);
    fig07 => experiments::fig07::run(EXPERIMENT_SCALE);
    fig10 => experiments::fig10::run(EXPERIMENT_SCALE);
    fig11 => experiments::fig11::run(EXPERIMENT_SCALE);
    fig12 => experiments::fig12::run(EXPERIMENT_SCALE);
    fig13 => experiments::fig13::run(EXPERIMENT_SCALE);
    tab01 => experiments::tab01::run(EXPERIMENT_SCALE);
    tab02 => experiments::tab02::run();
    useless => experiments::useless::run(EXPERIMENT_SCALE);
    ablations => experiments::ablations::run(EXPERIMENT_SCALE);
}

/// The PAF of the golden dataset's basecalled reads mapped against a
/// two-member panel: the dataset's reference and a 20 kb decoy followed by
/// a copy of the reference's back half, so reads from that half compete
/// across both members and the set's tie rule shows in the output.
#[test]
fn reference_set_paf_is_golden() {
    let dataset = DatasetProfile::ecoli().scaled(SCALE).generate();
    let reads = experiments::tab01::basecall_dataset(&dataset);
    let reference = dataset.reference.sequence();
    let half = reference.len() / 2;
    let mut decoy = GenomeBuilder::new(20_000)
        .seed(77)
        .repeat_fraction(0.0)
        .build()
        .sequence()
        .clone();
    decoy.extend_from_seq(&reference.subseq(half, reference.len() - half));
    let set = ReferenceSet::build(
        &[
            dataset.reference.clone(),
            Genome::from_seq("zz_half", decoy),
        ],
        MapperParams::default(),
    );
    let records: Vec<PafRecord> = reads
        .iter()
        .filter_map(|read| {
            let best = set.map(&read.seq).best?;
            Some(PafRecord::from_set_mapping(
                format!("read{}", read.id),
                read.len(),
                &set,
                &best,
            ))
        })
        .collect();
    assert!(!records.is_empty(), "no read mapped");
    let mut paf = Vec::new();
    write_paf(&mut paf, &records).expect("writing to memory");
    check_golden(
        "reference_set_paf",
        std::str::from_utf8(&paf).expect("PAF is ASCII"),
    );
}
