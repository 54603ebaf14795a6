//! Accuracy pins: exact counts of what the whole pipeline gets *right*
//! against the simulated truth, per dataset profile and per flow.
//!
//! The bit-identity suites prove the variants of the pipeline agree with
//! each other; nothing there notices if all of them drift away from the
//! truth together — a basecall model change, a mapper retune, an early
//! rejection threshold. These tests pin, for a fixed seed, the counts such a
//! change would move:
//!
//! * **mapped** — reads the flow maps at all;
//! * **correct** — reads mapped to their origin (the origin rule of
//!   `tests/end_to_end.rs` and `benchmarks/`: the mapping's reference span
//!   holds the midpoint of the span the read was drawn from, on the strand
//!   it was drawn on);
//! * **contaminants mapped** — reads drawn from no reference that map
//!   anyway (0 is the only right answer; a pin above 0 would be a bug
//!   recorded, not accepted);
//! * **false negatives** — §6.3.1's audit (`experiments/useless.rs`):
//!   reads early rejection discards that the flow without early rejection
//!   maps, `analysis::false_negative_audit` against the conventional run;
//! * **identity numerator / denominator** — over every fully basecalled,
//!   truth-high-quality reference read of the conventional run,
//!   `Σ (longest − edit distance)` and `Σ longest`, with `metrics::identity`'s
//!   band: the integer form of the mean basecall identity.
//!
//! Every count is deterministic for the seed, so a pin moves only when the
//! code does. What may legitimately move each one is said beside it; a
//! change that moves a pin updates it in the same commit and lists the old
//! and new values where its evidence is recorded.

use genpip::basecall::metrics::banded_edit_distance;
use genpip::core::analysis::false_negative_audit;
use genpip::core::pipeline::{ErMode, PipelineRun};
use genpip::core::{Flow, GenPipConfig, Parallelism};
use genpip::datasets::{DatasetProfile, SimulatedDataset};
use genpip::genomics::ReadOrigin;
use genpip::mapping::Strand;

/// What one flow over one dataset gets right.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FlowPins {
    mapped: usize,
    correct: usize,
    contaminants_mapped: usize,
    false_negatives: usize,
}

/// Everything pinned for one profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ProfilePins {
    /// Conventional, then GenPIP under `ErMode::{None, QsrOnly, Full}`.
    flows: [FlowPins; 4],
    identity_numerator: usize,
    identity_denominator: usize,
}

const FLOWS: [Flow; 4] = [
    Flow::Conventional,
    Flow::GenPip(ErMode::None),
    Flow::GenPip(ErMode::QsrOnly),
    Flow::GenPip(ErMode::Full),
];

fn measure(dataset: &SimulatedDataset) -> ProfilePins {
    let config = GenPipConfig::for_dataset(&dataset.profile)
        .with_keep_bases(true)
        .with_parallelism(Parallelism::from_env_or(Parallelism::Auto));
    let runs = FLOWS.map(|flow| PipelineRun::collect(dataset, &config, flow));
    let oracle = &runs[0];
    let flows = runs.each_ref().map(|run| {
        let mut pins = FlowPins {
            mapped: 0,
            correct: 0,
            contaminants_mapped: 0,
            false_negatives: false_negative_audit(run, oracle).false_negatives,
        };
        for (rr, sr) in run.reads.iter().zip(&dataset.reads) {
            let Some(m) = rr.outcome.mapping() else {
                continue;
            };
            pins.mapped += 1;
            match sr.origin {
                ReadOrigin::Contaminant => pins.contaminants_mapped += 1,
                ReadOrigin::Reference {
                    start,
                    len,
                    reverse,
                } => {
                    let mid = start + len / 2;
                    let strand = if reverse {
                        Strand::Reverse
                    } else {
                        Strand::Forward
                    };
                    if m.ref_start <= mid && mid <= m.ref_end && m.strand == strand {
                        pins.correct += 1;
                    }
                }
            }
        }
        pins
    });
    let (mut identity_numerator, mut identity_denominator) = (0, 0);
    for (rr, sr) in oracle.reads.iter().zip(&dataset.reads) {
        let eligible =
            matches!(sr.origin, ReadOrigin::Reference { .. }) && !sr.is_low_quality_truth();
        let (true, Some(called)) = (eligible, &rr.called) else {
            continue;
        };
        let truth = &sr.signal.truth;
        let longest = called.seq.len().max(truth.len());
        let distance = banded_edit_distance(&called.seq, truth, (longest / 3).max(32));
        identity_numerator += longest - distance;
        identity_denominator += longest;
    }
    ProfilePins {
        flows,
        identity_numerator,
        identity_denominator,
    }
}

fn assert_pins(dataset: &SimulatedDataset, expected: ProfilePins) {
    let got = measure(dataset);
    let identity = got.identity_numerator as f64 / got.identity_denominator.max(1) as f64;
    assert_eq!(
        got, expected,
        "{}: accuracy pins moved (identity now {identity:.5}); the new values:\n{got:#?}",
        dataset.profile.name
    );
}

fn pins(flows: [[usize; 4]; 4], identity: (usize, usize)) -> ProfilePins {
    ProfilePins {
        flows: flows.map(
            |[mapped, correct, contaminants_mapped, false_negatives]| FlowPins {
                mapped,
                correct,
                contaminants_mapped,
                false_negatives,
            },
        ),
        identity_numerator: identity.0,
        identity_denominator: identity.1,
    }
}

// Rows: Conventional, ErMode::None, ErMode::QsrOnly, ErMode::Full.
// Columns: mapped, correct, contaminants mapped, false negatives.
//
// What may move them:
// * mapped / correct — the basecall model (decode, emission, quality
//   calibration), the mapper (sketch, seeding, chaining, the alignment and
//   its acceptance thresholds), and — in the ER rows only — the QSR / CMR
//   thresholds and the chunk counts `N_qs` / `N_cm`. Conventional and
//   `ErMode::None` run the same reads to the same verdicts, so their rows
//   must stay equal to each other whatever moves them.
// * contaminants mapped — must stay 0; only a mapper that accepts spurious
//   hits would move it.
// * false negatives — zero by definition on the first two rows; on the ER
//   rows the thresholds and anything that moves a read's sampled AQS across
//   θ_qs or its chunk chain score across the CMR bound (the basecall model
//   included).
// * identity — only the basecaller (decode, emission model, transitions,
//   assembly) and the signal synthesis; no mapping or ER change can move it.

/// 210 reads. Every mapped read maps to its origin; the two false
/// negatives are reads whose sampled chunks fall below θ_qs although the
/// whole read maps — QSR's, which is why `ErMode::Full` shows the same two
/// (CMR adds none).
#[test]
fn ecoli_accuracy_is_pinned() {
    let dataset = DatasetProfile::ecoli().scaled(0.3).generate();
    assert_pins(
        &dataset,
        pins(
            [
                [141, 141, 0, 0],
                [141, 141, 0, 0],
                [139, 139, 0, 2],
                [139, 139, 0, 2],
            ],
            (435_073, 451_866),
        ),
    );
}

/// 200 reads of the repeat-rich 200 kb reference: four reads map off their
/// origin (repeat copies), and early rejection discards no read that maps.
#[test]
fn human_accuracy_is_pinned() {
    let dataset = DatasetProfile::human().scaled(0.2).generate();
    assert_pins(
        &dataset,
        pins(
            [
                [169, 165, 0, 0],
                [169, 165, 0, 0],
                [169, 165, 0, 0],
                [169, 165, 0, 0],
            ],
            (316_021, 323_493),
        ),
    );
}

/// The host-depletion mix of `benchmarks/`'s `contam_genpip_mt`: 92 % of
/// the high-quality reads are contaminants, 5 % of all reads low quality.
/// 240 reads, 20 of them mapped; one reference read maps off its origin.
#[test]
fn contaminant_mix_accuracy_is_pinned() {
    let mut profile = DatasetProfile::ecoli().scaled(0.1);
    profile.n_reads = 240;
    profile.low_quality_fraction = 0.05;
    profile.contaminant_fraction = 0.92;
    let dataset = profile.generate();
    assert_pins(
        &dataset,
        pins(
            [
                [20, 19, 0, 0],
                [20, 19, 0, 0],
                [20, 19, 0, 0],
                [20, 19, 0, 0],
            ],
            (61_266, 63_327),
        ),
    );
}
