//! The metric registry: every name the benchmark prints, with its unit,
//! direction and (for end-to-end metrics) regression bound. `BENCHMARK.json`
//! is rendered from these tables, and a unit test keeps the committed file
//! equal to the rendering.

use crate::workload::WORKLOADS;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Seconds one run measures for (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric a user of the system would see.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    /// Computed from counts and truth only: two runs on one seed must agree
    /// to the last digit.
    pub exact: bool,
}

/// A metric of one layer (layer = the part of the name before the first
/// `.`, which is a module of the repository or `harness`).
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        exact,
    }
}

use Better::{Higher, Lower};

/// The twelve end-to-end metrics, the same on every workload. The five
/// timings, `setup_s` and `peak_rss_mb` carry the contract's widest bound,
/// 0.25: reported at the reference host's speed (`run::AtReferenceSpeed`)
/// they spread 2-8 % over ten seeds on the reference host (the 95th
/// percentile up to 18 %), but the host that gates a change has been seen
/// three times as noisy as the one they were measured on. The bounds of the
/// exact metrics are about three times their widest spread over ten seeds
/// (README, "Bounds").
pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", Lower, 0.25, false),
    e2e(
        "throughput_msamples_per_s",
        "Msamples/s",
        Higher,
        0.25,
        false,
    ),
    e2e("cpu_s_per_gsample", "s/Gsample", Lower, 0.25, false),
    e2e("read_latency_ms_p50", "ms", Lower, 0.25, false),
    e2e("read_latency_ms_p95", "ms", Lower, 0.25, false),
    e2e("basecalled_sample_share", "share", Lower, 0.1, true),
    e2e("mapping_recall", "share", Higher, 0.25, true),
    e2e("mapping_precision", "share", Higher, 0.06, true),
    e2e("basecall_identity", "share", Higher, 0.03, true),
    e2e("er_retained_share", "share", Higher, 0.2, true),
    e2e("peak_rss_mb", "MB", Lower, 0.25, false),
    e2e("delivered_share", "share", Higher, 0.001, true),
];

const fn pl(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// The per-layer metrics (`--trace 1`). Times are per serial traced pass
/// unless the README glossary says otherwise.
pub const PER_LAYER: &[PerLayer] = &[
    // signal
    pl("signal.chunks", "count", Lower),
    pl("signal.chunk_s", "s", Lower),
    // basecall
    pl("basecall.busy_s", "s", Lower),
    pl("basecall.share", "share", Lower),
    pl("basecall.chunks", "count", Lower),
    pl("basecall.samples", "count", Lower),
    pl("basecall.bases", "count", Lower),
    pl("basecall.ns_per_sample", "ns/sample", Lower),
    pl("basecall.mvm_ops", "count", Lower),
    pl("basecall.viterbi_cells", "count", Lower),
    pl("basecall.wasted_sample_share", "share", Lower),
    pl("basecall.emission_ns_per_sample", "ns/sample", Lower),
    pl("basecall.lanes8_ns_per_sample", "ns/sample", Lower),
    pl("basecall.lane_speedup_w8", "x", Higher),
    // mapping
    pl("mapping.index.build_s", "s", Lower),
    pl("mapping.index.entries", "count", Lower),
    pl("mapping.sketch_seed.busy_s", "s", Lower),
    pl("mapping.sketch_seed.share", "share", Lower),
    pl("mapping.sketch_seed.ns_per_base", "ns/base", Lower),
    pl("mapping.minimizers", "count", Lower),
    pl("mapping.seed_queries", "count", Lower),
    pl("mapping.anchors", "count", Lower),
    pl("mapping.chain.busy_s", "s", Lower),
    pl("mapping.chain.share", "share", Lower),
    pl("mapping.chain.ns_per_eval", "ns/eval", Lower),
    pl("mapping.chain_evals", "count", Lower),
    pl("mapping.align.busy_s", "s", Lower),
    pl("mapping.align.share", "share", Lower),
    pl("mapping.align.reads", "count", Lower),
    pl("mapping.align.ns_per_cell", "ns/cell", Lower),
    pl("mapping.align_cells", "count", Lower),
    pl("mapping.align.wasted_cell_share", "share", Lower),
    // early_reject
    pl("early_reject.busy_s", "s", Lower),
    pl("early_reject.mapped", "count", Higher),
    pl("early_reject.qsr_rejected", "count", Higher),
    pl("early_reject.cmr_rejected", "count", Higher),
    pl("early_reject.qc_filtered", "count", Lower),
    pl("early_reject.unmapped", "count", Lower),
    pl("early_reject.rejected_share", "share", Higher),
    pl("early_reject.samples_saved_share", "share", Higher),
    pl("early_reject.false_negatives", "count", Lower),
    // pipeline
    pl("pipeline.glue_s", "s", Lower),
    pl("pipeline.trace_coverage", "share", Higher),
    pl("pipeline.trace_vs_session", "x", Lower),
    // engine (incl. scheduler)
    pl("engine.pass_wall_s", "s", Lower),
    pl("engine.pass_cpu_s", "s", Lower),
    pl("engine.workers", "count", Higher),
    pl("engine.overhead_share", "share", Lower),
    pl("engine.parallel_efficiency", "share", Higher),
    pl("engine.source_pull_s", "s", Lower),
    pl("engine.sink_s", "s", Lower),
    pl("engine.max_in_flight", "count", Lower),
    pl("engine.in_flight_limit", "count", Lower),
    pl("engine.max_reject_backlog", "count", Lower),
    pl("engine.residency_units_p50", "count", Lower),
    pl("engine.residency_units_p99", "count", Lower),
    pl("engine.retried", "count", Lower),
    // io (gsc, checkpoint, fastx): zero except on human_replay_mt
    pl("io.pack_s", "s", Lower),
    pl("io.file_mb", "MB", Lower),
    pl("io.open_s", "s", Lower),
    pl("io.read_s", "s", Lower),
    pl("io.read_mb_per_s", "MB/s", Higher),
    pl("io.fastq_write_s", "s", Lower),
    pl("io.fastq_mb", "MB", Lower),
    pl("io.checkpoint_s", "s", Lower),
    pl("io.checkpoints", "count", Lower),
    // harness
    pl("harness.generate_s", "s", Lower),
    pl("harness.reads", "count", Higher),
    pl("harness.input_samples", "count", Higher),
    pl("harness.passes", "count", Higher),
    pl("harness.pass_spread", "share", Lower),
    pl("harness.calibration_ns", "ns", Lower),
    pl("harness.host_slowdown", "x", Lower),
    pl("harness.failed", "count", Lower),
];

/// Measured values, keyed by registry name.
#[derive(Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        let previous = self.0.insert(name, value);
        assert!(previous.is_none(), "metric {name} set twice");
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// `(name, unit)` of every metric a run in the given trace mode prints.
pub fn names_for(trace: bool) -> Vec<(&'static str, &'static str)> {
    if trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    }
}

/// The result line the driver reads: one JSON object, every registry
/// metric of the mode present and finite.
///
/// # Errors
///
/// Names the first metric that is missing or not finite — a bug in the
/// benchmark, reported instead of a result.
pub fn result_line(
    values: &Values,
    trace: bool,
    correct: bool,
    attempted: u64,
    failed: u64,
) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit)) in names_for(trace).into_iter().enumerate() {
        let value = values
            .get(name)
            .ok_or_else(|| format!("metric {name} was never measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        if i > 0 {
            out.push_str(", ");
        }
        write!(
            out,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("string write");
    }
    out.push_str("}}");
    Ok(out)
}

/// Renders `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--quiet\", \"--release\", \"--offline\", \
         \"--manifest-path\", \"benchmarks/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmarks\"],\n");
    writeln!(out, "  \"run_seconds\": {RUN_SECONDS},").expect("string write");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            w.name, w.why
        )
        .expect("string write");
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        )
        .expect("string write");
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name,
            m.unit,
            m.better.as_str()
        )
        .expect("string write");
    }
    out.push_str("  ]\n}\n");
    out
}

/// Compares two result tables written with `--tsv` (same commit, same
/// seed): every end-to-end metric of every workload must agree within its
/// own bound, exact ones to the last digit. Returns the violations.
pub fn compare_tables(a: &str, b: &str) -> Vec<String> {
    fn parse(text: &str) -> BTreeMap<(String, String), f64> {
        text.lines()
            .filter_map(|line| {
                let mut cols = line.split('\t');
                let key = (cols.next()?.to_string(), cols.next()?.to_string());
                Some((key, cols.next()?.parse().ok()?))
            })
            .collect()
    }
    let (a, b) = (parse(a), parse(b));
    let mut problems = Vec::new();
    for w in WORKLOADS {
        for m in END_TO_END {
            let key = (w.name.to_string(), m.name.to_string());
            let (Some(&x), Some(&y)) = (a.get(&key), b.get(&key)) else {
                problems.push(format!("{}/{}: missing from a table", w.name, m.name));
                continue;
            };
            let worse = match m.better {
                Better::Lower => (y - x) / x,
                Better::Higher => (x - y) / x,
            };
            let ok = if m.exact {
                x == y
            } else {
                worse.abs() <= m.bound
            };
            if !ok {
                problems.push(format!(
                    "{}/{}: {x} vs {y} ({:+.2} % against a bound of {} %{})",
                    w.name,
                    m.name,
                    worse * 100.0,
                    m.bound * 100.0,
                    if m.exact {
                        ", must repeat exactly"
                    } else {
                        "; a timing: compare the runs' pass walls before blaming the program"
                    }
                ));
            }
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        let first_ok = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        first_ok
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract_charset() {
        let mut seen = std::collections::BTreeSet::new();
        let all = names_for(false).into_iter().chain(names_for(true));
        for (name, unit) in all.chain(WORKLOADS.iter().map(|w| (w.name, "count"))) {
            assert!(name_ok(name), "bad metric name {name:?}");
            assert!(unit_ok(unit), "bad unit {unit:?} on {name}");
            assert!(seen.insert(name), "name {name} used twice");
        }
        assert!(!name_ok("has space") && !name_ok(".dot") && !name_ok("a/b"));
        assert!(!unit_ok("per second") && unit_ok("1/s") && unit_ok("%"));
    }

    #[test]
    fn registry_respects_the_contract_limits() {
        assert_eq!(END_TO_END.len(), 12);
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{} bound", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains(['\n', '"', '\\']));
        }
        assert!(benchmark_json().len() <= 64 * 1024);
    }

    #[test]
    fn committed_benchmark_json_is_the_rendered_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `cargo run --release -- --emit-benchmark-json > ../BENCHMARK.json`"
        );
    }

    #[test]
    fn result_line_needs_every_metric_finite() {
        let mut v = Values::default();
        for (i, (name, _)) in names_for(false).into_iter().enumerate() {
            v.set(name, i as f64 + 0.5);
        }
        let line = result_line(&v, false, true, 10, 0).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, "));
        assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        assert!(!line.contains('\n'));
        assert!(
            result_line(&v, true, true, 10, 0).is_err(),
            "per-layer values missing"
        );
        let mut v = Values::default();
        for (name, _) in names_for(false) {
            v.set(name, f64::NAN);
        }
        assert!(result_line(&v, false, true, 1, 0).is_err());
    }

    #[test]
    fn compare_applies_each_metrics_own_bound() {
        let table = |thr: f64, recall: f64| {
            let mut t = String::new();
            for w in WORKLOADS {
                for m in END_TO_END {
                    let v = match m.name {
                        "throughput_msamples_per_s" => thr,
                        "mapping_recall" => recall,
                        _ => 1.0,
                    };
                    t.push_str(&format!("{}\t{}\t{v}\t{}\n", w.name, m.name, m.unit));
                }
            }
            t
        };
        assert!(compare_tables(&table(2.0, 0.9), &table(2.05, 0.9)).is_empty());
        let slow = compare_tables(&table(2.0, 0.9), &table(1.2, 0.9));
        assert_eq!(slow.len(), WORKLOADS.len(), "{slow:?}");
        let inexact = compare_tables(&table(2.0, 0.9), &table(2.0, 0.9001));
        assert_eq!(inexact.len(), WORKLOADS.len(), "exact metrics must repeat");
        assert!(!compare_tables(&table(2.0, 0.9), "").is_empty());
    }
}
