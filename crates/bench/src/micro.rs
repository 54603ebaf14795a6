//! A small, dependency-free micro-benchmark harness.
//!
//! The workspace builds offline with no external crates, so this module
//! plays the role Criterion normally would: adaptive iteration-count
//! selection, warm-up, median-of-samples timing, and machine-readable JSON
//! output. It is intentionally minimal — wall-clock medians over a few
//! hundred milliseconds per bench — which is enough to track the perf
//! trajectory of the hot kernels across PRs.

use std::hint::black_box;
use std::time::Instant;

/// One measured benchmark.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark name (stable across PRs; used as the JSON key).
    pub name: String,
    /// Median nanoseconds per iteration.
    pub ns_per_iter: f64,
    /// Iterations per timing sample.
    pub iters_per_sample: u64,
    /// Number of timing samples taken.
    pub samples: usize,
    /// Optional throughput: elements processed per iteration and their unit
    /// (e.g. `(4096.0, "samples")` → samples/s in the report).
    pub elements_per_iter: Option<(f64, &'static str)>,
}

impl BenchResult {
    /// Elements per second, if a throughput was declared.
    pub fn throughput(&self) -> Option<f64> {
        self.elements_per_iter
            .map(|(n, _)| n * 1e9 / self.ns_per_iter)
    }

    /// Human-readable one-line summary.
    pub fn summary(&self) -> String {
        match self.elements_per_iter {
            Some((_, unit)) => format!(
                "{:<32} {:>12.0} ns/iter  {:>14.0} {unit}/s",
                self.name,
                self.ns_per_iter,
                self.throughput().unwrap_or(0.0),
            ),
            None => format!("{:<32} {:>12.0} ns/iter", self.name, self.ns_per_iter),
        }
    }
}

/// Runs `f` repeatedly and reports the median time per iteration.
///
/// Auto-calibrates the per-sample iteration count so one sample lasts
/// roughly `SAMPLE_MS`, warms up once, then takes `SAMPLES` samples.
pub fn bench<R>(
    name: &str,
    elements_per_iter: Option<(f64, &'static str)>,
    mut f: impl FnMut() -> R,
) -> BenchResult {
    const SAMPLE_MS: f64 = 40.0;
    const SAMPLES: usize = 7;

    // Warm-up + calibration: find an iteration count lasting ~SAMPLE_MS.
    let mut iters: u64 = 1;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let ms = start.elapsed().as_secs_f64() * 1e3;
        if ms >= SAMPLE_MS || iters >= 1 << 24 {
            break;
        }
        let growth = if ms <= 0.01 {
            64.0
        } else {
            (SAMPLE_MS / ms).clamp(1.5, 64.0)
        };
        iters = ((iters as f64 * growth).ceil() as u64).max(iters + 1);
    }

    let mut per_iter: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    per_iter.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    BenchResult {
        name: name.to_string(),
        ns_per_iter: per_iter[per_iter.len() / 2],
        iters_per_sample: iters,
        samples: SAMPLES,
        elements_per_iter,
    }
}

/// Minimal JSON value builder for the bench reports (the workspace has no
/// serde; the reports are flat enough that hand-rolled emission is clearer
/// than a dependency anyway).
#[derive(Debug, Clone)]
pub enum Json {
    /// A float (emitted with full precision).
    Num(f64),
    /// A string (escaped).
    Str(String),
    /// A boolean.
    Bool(bool),
    /// An ordered list.
    Arr(Vec<Json>),
    /// An ordered key→value map.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for objects.
    pub fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    fn render_into(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        let pad_in = "  ".repeat(indent + 1);
        match self {
            Json::Num(x) => {
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    out.push_str(&format!("{}", *x as i64));
                } else {
                    out.push_str(&format!("{x}"));
                }
            }
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&pad_in);
                    item.render_into(out, indent + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                out.push_str(&pad);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    out.push_str(&pad_in);
                    Json::Str(k.clone()).render_into(out, indent + 1);
                    out.push_str(": ");
                    v.render_into(out, indent + 1);
                    out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
                }
                out.push_str(&pad);
                out.push('}');
            }
        }
    }

    /// Pretty-printed JSON text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out.push('\n');
        out
    }
}

/// JSON record of one micro-bench.
pub fn bench_json(r: &BenchResult) -> Json {
    let mut fields = vec![
        ("name", Json::Str(r.name.clone())),
        ("ns_per_iter", Json::Num(r.ns_per_iter)),
        ("iters_per_sample", Json::Num(r.iters_per_sample as f64)),
        ("samples", Json::Num(r.samples as f64)),
    ];
    if let (Some((n, unit)), Some(tp)) = (r.elements_per_iter, r.throughput()) {
        fields.push(("elements_per_iter", Json::Num(n)));
        fields.push(("throughput_unit", Json::Str(format!("{unit}/s"))));
        fields.push(("throughput", Json::Num(tp)));
    }
    Json::obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_measures_something_positive() {
        let r = bench("spin", Some((100.0, "ops")), || {
            let mut acc = 0u64;
            for i in 0..100u64 {
                acc = acc.wrapping_add(i * i);
            }
            acc
        });
        assert!(r.ns_per_iter > 0.0);
        assert!(r.throughput().unwrap() > 0.0);
        assert!(r.summary().contains("spin"));
    }

    #[test]
    fn json_renders_expected_shape() {
        let j = Json::obj([
            ("a", Json::Num(1.0)),
            ("b", Json::Str("x\"y".into())),
            ("c", Json::Arr(vec![Json::Bool(true), Json::Num(2.5)])),
        ]);
        let text = j.render();
        assert!(text.contains("\"a\": 1"));
        assert!(text.contains("\"b\": \"x\\\"y\""));
        assert!(text.contains("2.5"));
    }
}
