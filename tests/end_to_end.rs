//! Cross-crate integration tests: the full flow from raw synthetic signal
//! to mapped reads, across both pipeline organizations.

use genpip::core::pipeline::{ErMode, PipelineRun, ReadOutcome};
use genpip::core::{Flow, GenPipConfig, Parallelism};
use genpip::datasets::DatasetProfile;
use genpip::genomics::ReadOrigin;

fn dataset() -> genpip::datasets::SimulatedDataset {
    DatasetProfile::ecoli().scaled(0.1).generate()
}

/// The profile's operating point, threaded per the `GENPIP_PARALLELISM`
/// environment variable when set — CI's test matrix runs this suite once
/// per threading path.
fn config_for(profile: &DatasetProfile) -> GenPipConfig {
    GenPipConfig::for_dataset(profile).with_parallelism(Parallelism::from_env_or(Parallelism::Auto))
}

#[test]
fn whole_flow_is_deterministic() {
    let d1 = dataset();
    let d2 = dataset();
    let config = config_for(&d1.profile);
    let a = PipelineRun::collect(&d1, &config, Flow::GenPip(ErMode::Full));
    let b = PipelineRun::collect(&d2, &config, Flow::GenPip(ErMode::Full));
    assert_eq!(a, b, "same seed must give identical runs");
}

#[test]
fn high_quality_reference_reads_map_to_their_origin() {
    let d = dataset();
    let config = config_for(&d.profile);
    let run = PipelineRun::collect(&d, &config, Flow::Conventional);
    let mut eligible = 0;
    let mut correct = 0;
    for (rr, sr) in run.reads.iter().zip(&d.reads) {
        let ReadOrigin::Reference {
            start,
            len,
            reverse,
        } = sr.origin
        else {
            continue;
        };
        if sr.is_low_quality_truth() {
            continue;
        }
        eligible += 1;
        if let ReadOutcome::Mapped(m) = &rr.outcome {
            let mid = start + len / 2;
            if m.ref_start <= mid && mid <= m.ref_end {
                let expected_strand = if reverse {
                    genpip::mapping::Strand::Reverse
                } else {
                    genpip::mapping::Strand::Forward
                };
                if m.strand == expected_strand {
                    correct += 1;
                }
            }
        }
    }
    assert!(eligible >= 30, "want a meaningful sample, got {eligible}");
    let accuracy = correct as f64 / eligible as f64;
    // The bound is statistical: the sample is a few dozen reads whose noise
    // realizations depend on the RNG stream, so leave slack below the ~0.95
    // typically observed.
    assert!(
        accuracy >= 0.9,
        "mapping accuracy {accuracy} ({correct}/{eligible})"
    );
}

#[test]
fn contaminants_never_map_in_any_mode() {
    let d = dataset();
    let config = config_for(&d.profile);
    for run in [
        PipelineRun::collect(&d, &config, Flow::Conventional),
        PipelineRun::collect(&d, &config, Flow::GenPip(ErMode::None)),
        PipelineRun::collect(&d, &config, Flow::GenPip(ErMode::Full)),
    ] {
        for (rr, sr) in run.reads.iter().zip(&d.reads) {
            if sr.origin == ReadOrigin::Contaminant {
                assert!(
                    !rr.outcome.is_mapped(),
                    "contaminant read {} mapped in {:?} mode",
                    rr.id,
                    run.flow
                );
            }
        }
    }
}

#[test]
fn er_is_strictly_work_saving_and_never_adds_mappings() {
    let d = dataset();
    let config = config_for(&d.profile);
    let cp = PipelineRun::collect(&d, &config, Flow::GenPip(ErMode::None));
    let qsr = PipelineRun::collect(&d, &config, Flow::GenPip(ErMode::QsrOnly));
    let full = PipelineRun::collect(&d, &config, Flow::GenPip(ErMode::Full));
    let (s_cp, s_qsr, s_full) = (
        cp.totals().samples,
        qsr.totals().samples,
        full.totals().samples,
    );
    assert!(
        s_qsr < s_cp,
        "QSR must reduce basecalling ({s_qsr} vs {s_cp})"
    );
    assert!(
        s_full <= s_qsr,
        "CMR must reduce further ({s_full} vs {s_qsr})"
    );
    // Early-rejected reads are a superset relation: every read QSR rejects
    // under QsrOnly is also rejected under Full.
    for (q, f) in qsr.reads.iter().zip(&full.reads) {
        if matches!(q.outcome, ReadOutcome::RejectedQsr { .. }) {
            assert!(
                matches!(f.outcome, ReadOutcome::RejectedQsr { .. }),
                "read {} rejected under QsrOnly but not under Full",
                q.id
            );
        }
    }
}

#[test]
fn chunk_size_changes_do_not_change_conclusions() {
    let d = dataset();
    for chunk in [300, 400, 500] {
        let config = config_for(&d.profile).with_chunk_bases(chunk);
        let run = PipelineRun::collect(&d, &config, Flow::GenPip(ErMode::Full));
        let mapped = run.count_outcomes(ReadOutcome::is_mapped);
        let frac = mapped as f64 / run.reads.len() as f64;
        assert!(
            frac > 0.45,
            "chunk size {chunk}: only {frac:.2} of reads mapped"
        );
    }
}

#[test]
fn chunk_accounting_is_exact() {
    let d = dataset();
    let config = config_for(&d.profile);
    let run = PipelineRun::collect(&d, &config, Flow::GenPip(ErMode::Full));
    for (rr, sr) in run.reads.iter().zip(&d.reads) {
        // No chunk is basecalled twice.
        let mut seen = std::collections::HashSet::new();
        for c in &rr.chunks {
            if c.samples > 0 {
                assert!(
                    seen.insert(c.index),
                    "read {} chunk {} basecalled twice",
                    rr.id,
                    c.index
                );
            }
        }
        // Fully processed reads basecalled exactly their signal.
        if !rr.outcome.is_early_rejected() {
            assert_eq!(rr.basecalled_samples(), sr.signal.samples.len());
        } else {
            // Early rejection never basecalls more than the signal. It saves
            // basecalling work strictly unless the read is so short that the
            // QSR samples plus the CMR prefix already cover every chunk.
            assert!(rr.basecalled_samples() <= sr.signal.samples.len());
            if rr.total_chunks > config.n_qs + config.n_cm {
                assert!(rr.basecalled_samples() < sr.signal.samples.len());
            }
        }
    }
}
