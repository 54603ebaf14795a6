//! The kernel micro-benchmark harness.
//!
//! `benches/kernels.rs` times every computational kernel on its own (MVM,
//! CAM search, Viterbi decode and its stages, minimizer extraction, chaining
//! DP, seeding, banded alignment, one read end to end) through the in-repo
//! [`micro`] harness — the workspace has no external dependencies — and
//! writes `BENCH_kernels.json` at the repo root so successive PRs accumulate
//! a perf trajectory.
//!
//! That is all this crate measures, and its dependencies stop at the layer
//! crates to keep it so: pipelines (`Session`, threads, sources, schedules)
//! are timed by the end-to-end benchmark in `benchmarks/`, their
//! bit-identities are pinned by the root integration suites, and the paper's
//! figures and tables are regenerated by `genpip experiment <name>`.

pub mod micro;
