//! Pan-genome sessions: mapping every read against a panel of named
//! references must be deterministic — bit-identical across `ErMode` and
//! `Parallelism` — and each per-reference candidate must be
//! exactly what a standalone mapper over that reference would report. The
//! merged winner follows the documented rule: higher chain score first,
//! then reference name ascending, then position ascending.
//!
//! The single-reference path is the frozen oracle: an empty panel must
//! leave every `ReadRun` byte-for-byte what it always was.

mod common;

use common::reference_run;
use genpip::core::pipeline::{ErMode, PipelineRun, ReadOutcome};
use genpip::core::{Flow, GenPipConfig, Parallelism};
use genpip::datasets::{DatasetProfile, SimulatedDataset};
use genpip::genomics::{DnaSeq, Genome, GenomeBuilder};
use std::sync::Arc;

fn dataset() -> SimulatedDataset {
    DatasetProfile::ecoli().scaled(0.03).generate()
}

/// A second panel member that genuinely competes: a random decoy followed
/// by an exact copy of the back half of the real reference, so reads from
/// that half chain equally well on both references.
fn half_copy_panel(d: &SimulatedDataset) -> Arc<Genome> {
    let reference = d.reference.sequence();
    let half = reference.len() / 2;
    let mut seq = GenomeBuilder::new(20_000)
        .seed(77)
        .repeat_fraction(0.0)
        .build()
        .sequence()
        .clone();
    seq.extend_from_seq(&reference.subseq(half, reference.len() - half));
    Arc::new(Genome::from_seq("zz_half", seq))
}

fn parallelism_sweep() -> Vec<Parallelism> {
    let mut sweep = vec![Parallelism::Serial, Parallelism::Threads(4)];
    if let Some(from_env) = Parallelism::from_env() {
        if !sweep.contains(&from_env) {
            sweep.push(from_env);
        }
    }
    sweep
}

#[test]
fn two_reference_runs_are_bit_identical_across_er_and_parallelism() {
    let d = dataset();
    let base =
        GenPipConfig::for_dataset(&d.profile).with_extra_references(vec![half_copy_panel(&d)]);
    for er in [ErMode::None, ErMode::QsrOnly, ErMode::Full] {
        // The baseline is the independent oracle's serial replay over the
        // same two-member panel.
        let baseline = reference_run(&d, &base, Flow::GenPip(er));
        let mapped = baseline.iter().filter(|r| r.outcome.is_mapped()).count();
        assert!(mapped > 0, "{er:?}: no read mapped");
        for run in &baseline {
            if let ReadOutcome::Mapped(m) = &run.outcome {
                assert_eq!(run.per_reference.len(), 2, "read {}", run.id);
                assert!(
                    matches!(m.ref_name.as_deref(), Some("ecoli") | Some("zz_half")),
                    "read {} winner unattributed: {:?}",
                    run.id,
                    m.ref_name
                );
            }
        }
        for parallelism in parallelism_sweep() {
            let config = base.clone().with_parallelism(parallelism);
            let run = PipelineRun::collect(&d, &config, Flow::GenPip(er));
            assert_eq!(
                run.reads, baseline,
                "{er:?} / {parallelism:?} diverged from the serial baseline"
            );
        }
    }
}

#[test]
fn empty_panel_leaves_single_reference_runs_byte_identical() {
    let d = dataset();
    let plain = GenPipConfig::for_dataset(&d.profile);
    let with_empty_panel = plain.clone().with_extra_references(Vec::new());
    for er in [ErMode::None, ErMode::Full] {
        let a = PipelineRun::collect(&d, &plain, Flow::GenPip(er));
        let b = PipelineRun::collect(&d, &with_empty_panel, Flow::GenPip(er));
        assert_eq!(a.reads, b.reads, "{er:?}: empty panel changed output");
        for run in &a.reads {
            assert!(run.per_reference.is_empty(), "read {}", run.id);
            if let ReadOutcome::Mapped(m) = &run.outcome {
                assert!(m.ref_name.is_none(), "read {} gained attribution", run.id);
            }
        }
    }
}

#[test]
fn per_reference_candidates_are_independent_of_the_rest_of_the_panel() {
    let d = dataset();
    let panel = half_copy_panel(&d);
    let decoy = Arc::new(Genome::from_seq(
        "yy_decoy",
        GenomeBuilder::new(40_000)
            .seed(99)
            .repeat_fraction(0.0)
            .build()
            .sequence()
            .clone(),
    ));
    let solo_config = GenPipConfig::for_dataset(&d.profile);
    let two_config = solo_config
        .clone()
        .with_extra_references(vec![panel.clone()]);
    let three_config = solo_config
        .clone()
        .with_extra_references(vec![panel, decoy]);
    // ErMode::None: no early rejection, so every non-QC-filtered read
    // reaches final mapping in all three runs over identical basecalls.
    let solo = PipelineRun::collect(&d, &solo_config, Flow::GenPip(ErMode::None));
    let two = PipelineRun::collect(&d, &two_config, Flow::GenPip(ErMode::None));
    let three = PipelineRun::collect(&d, &three_config, Flow::GenPip(ErMode::None));
    assert_eq!(solo.reads.len(), two.reads.len());
    assert_eq!(solo.reads.len(), three.reads.len());
    for ((s, a), b) in solo.reads.iter().zip(&two.reads).zip(&three.reads) {
        assert_eq!(s.id, a.id);
        if a.per_reference.is_empty() {
            // QC-filtered before mapping; every run must agree.
            assert!(matches!(s.outcome, ReadOutcome::FilteredQc { .. }));
            assert!(b.per_reference.is_empty());
            continue;
        }
        assert_eq!(a.per_reference.len(), 2, "read {}", a.id);
        assert_eq!(b.per_reference.len(), 3, "read {}", b.id);
        // Candidate 0 is the source's own reference: bit-identical to the
        // plain single-reference run.
        assert_eq!(&*a.per_reference[0].reference, "ecoli");
        assert_eq!(
            a.per_reference[0].mapping.as_ref(),
            s.outcome.mapping(),
            "read {}: ecoli candidate diverged from the solo run",
            a.id
        );
        assert_eq!(a.per_reference[0].best_chain_score, s.best_chain_score);
        // A reference's candidate must not depend on which other references
        // share the panel: every candidate present in both the two- and
        // three-member runs is bit-identical.
        assert_eq!(&*a.per_reference[1].reference, "zz_half");
        assert_eq!(&*b.per_reference[2].reference, "yy_decoy");
        assert_eq!(
            a.per_reference[0], b.per_reference[0],
            "read {}: ecoli candidate changed when the panel grew",
            a.id
        );
        assert_eq!(
            a.per_reference[1], b.per_reference[1],
            "read {}: zz_half candidate changed when the panel grew",
            a.id
        );
        // The winner is one of the candidates, attributed by name.
        if let ReadOutcome::Mapped(winner) = &a.outcome {
            let name = winner
                .ref_name
                .as_deref()
                .expect("pan-genome winners are attributed");
            let owner = a
                .per_reference
                .iter()
                .find(|c| &*c.reference == name)
                .expect("winner names a panel member");
            let mut expected = owner.mapping.clone().expect("winner's owner mapped");
            expected.ref_name = Some(Arc::from(name));
            assert_eq!(winner, &expected, "read {}", a.id);
        }
    }
}

#[test]
fn exact_score_ties_resolve_by_reference_name_ascending() {
    let d = dataset();
    // An exact twin of the reference under a name that sorts first: every
    // read scores identically on both, so the tie-break decides every
    // winner, deterministically.
    let twin: DnaSeq = d.reference.sequence().clone();
    let config = GenPipConfig::for_dataset(&d.profile)
        .with_extra_references(vec![Arc::new(Genome::from_seq("aa_twin", twin))]);
    let run = PipelineRun::collect(&d, &config, Flow::GenPip(ErMode::None));
    let mapped = run.reads.iter().filter(|r| r.outcome.is_mapped()).count();
    assert!(mapped > 0, "no read mapped");
    for r in &run.reads {
        if let ReadOutcome::Mapped(m) = &r.outcome {
            assert_eq!(
                m.ref_name.as_deref(),
                Some("aa_twin"),
                "read {}: tie must break to the lexicographically first name",
                r.id
            );
            let ecoli = &r.per_reference[0];
            let twin = &r.per_reference[1];
            assert_eq!(&*ecoli.reference, "ecoli");
            assert_eq!(&*twin.reference, "aa_twin");
            assert_eq!(
                ecoli.mapping, twin.mapping,
                "read {}: identical references disagreed",
                r.id
            );
        }
    }
}
