//! Multi-stage, multi-server pipeline scheduling.
//!
//! Models GenPIP's chunk-based pipeline (and the CP-augmented CPU/GPU
//! systems): a sequence of stages, each with a number of identical servers,
//! through which jobs (chunks) flow in FIFO order. Two dependency kinds are
//! honoured:
//!
//! * **dataflow** — a job enters stage `s` only after finishing stage
//!   `s − 1`;
//! * **in-read sequential** — on stages marked
//!   [`StageSpec::sequential_within_read`], jobs of the same read execute in
//!   order (basecalling needs the previous chunk's carry state; incremental
//!   chaining extends the previous chunk's DP).
//!
//! The scheduler computes completion times with the classic pipeline
//! recurrence `start = max(data_ready, same_read_prev, server_free)` and
//! reports the makespan and per-stage utilization, from which the speedup
//! figures derive.

use crate::time::SimTime;

/// One pipeline stage: a name (for reports) and a server count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageSpec {
    name: String,
    servers: usize,
    sequential_within_read: bool,
}

impl StageSpec {
    /// Creates a stage with `servers` identical servers.
    ///
    /// # Panics
    ///
    /// Panics if `servers` is 0.
    pub fn new(name: impl Into<String>, servers: usize) -> StageSpec {
        assert!(servers > 0, "a stage needs at least one server");
        StageSpec {
            name: name.into(),
            servers,
            sequential_within_read: false,
        }
    }

    /// Marks the stage as in-read sequential (see module docs).
    pub fn sequential_within_read(mut self) -> StageSpec {
        self.sequential_within_read = true;
        self
    }

    /// Stage name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Server count.
    pub fn servers(&self) -> usize {
        self.servers
    }
}

/// One job (a chunk, or a whole read for read-granularity systems) with its
/// per-stage service times.
///
/// A zero service time means the job skips that stage instantly (still
/// honouring dependencies) — used e.g. for chunks that never reach chaining
/// because early rejection stopped the read. A read's jobs run on
/// in-read sequential stages in the order they appear in the job list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Job {
    /// Read this job belongs to.
    pub read: u32,
    /// Service time at each stage; length must equal the stage count.
    pub service: Vec<SimTime>,
}

impl Job {
    /// Creates a job of `read` with the given per-stage service times.
    pub fn new(read: u32, service: Vec<SimTime>) -> Job {
        Job { read, service }
    }
}

/// Scheduling results.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineReport {
    /// Completion time of the last job.
    pub makespan: SimTime,
    /// Per-stage utilization in `[0, 1]`: busy time / (makespan × servers).
    pub stage_utilization: Vec<f64>,
}

/// The pipeline scheduler. Create once per experiment; [`PipelineSim::run`]
/// is pure with respect to the job list.
#[derive(Debug, Clone)]
pub struct PipelineSim {
    stages: Vec<StageSpec>,
}

impl PipelineSim {
    /// Creates a scheduler over the given stages.
    ///
    /// # Panics
    ///
    /// Panics if `stages` is empty.
    pub fn new(stages: Vec<StageSpec>) -> PipelineSim {
        assert!(!stages.is_empty(), "pipeline needs at least one stage");
        PipelineSim { stages }
    }

    /// The stage specs.
    pub fn stages(&self) -> &[StageSpec] {
        &self.stages
    }

    /// Schedules `jobs` (in the given FIFO order) and returns the report.
    ///
    /// # Panics
    ///
    /// Panics if any job's `service` length differs from the stage count.
    pub fn run(&self, jobs: &[Job]) -> PipelineReport {
        let n_stages = self.stages.len();
        for (index, job) in jobs.iter().enumerate() {
            assert_eq!(
                job.service.len(),
                n_stages,
                "job {index} (read {}) has {} service times for {} stages",
                job.read,
                job.service.len(),
                n_stages
            );
        }

        // Per-stage server free times. Server choice is work-conserving
        // best-fit: a job whose start is delayed by dependencies takes the
        // server with the *latest* free time not exceeding its earliest
        // start, leaving earlier-free servers for other jobs (a plain
        // min-heap would let waiting jobs block idle servers).
        let mut servers: Vec<Vec<SimTime>> = self
            .stages
            .iter()
            .map(|s| vec![SimTime::ZERO; s.servers])
            .collect();
        // Per-stage: completion time of the previous job of each read
        // (only needed for sequential stages; small maps are fine).
        let mut read_prev: Vec<std::collections::HashMap<u32, SimTime>> =
            vec![std::collections::HashMap::new(); n_stages];

        let mut stage_busy = vec![SimTime::ZERO; n_stages];
        let mut makespan = SimTime::ZERO;

        for job in jobs {
            let mut ready = SimTime::ZERO;
            for (s, stage) in self.stages.iter().enumerate() {
                let mut earliest = ready;
                if stage.sequential_within_read {
                    if let Some(&prev) = read_prev[s].get(&job.read) {
                        earliest = earliest.max(prev);
                    }
                }
                // Best fit: latest free time ≤ earliest, else min free time.
                let pool = &mut servers[s];
                let mut chosen = 0usize;
                let mut chosen_fits = pool[0] <= earliest;
                for (i, &free) in pool.iter().enumerate().skip(1) {
                    let fits = free <= earliest;
                    let better = match (fits, chosen_fits) {
                        (true, true) => free > pool[chosen],
                        (true, false) => true,
                        (false, true) => false,
                        (false, false) => free < pool[chosen],
                    };
                    if better {
                        chosen = i;
                        chosen_fits = fits;
                    }
                }
                let start = earliest.max(pool[chosen]);
                let finish = start + job.service[s];
                pool[chosen] = finish;
                stage_busy[s] += job.service[s];
                if stage.sequential_within_read {
                    read_prev[s].insert(job.read, finish);
                }
                ready = finish;
            }
            makespan = makespan.max(ready);
        }

        let stage_utilization = self
            .stages
            .iter()
            .zip(&stage_busy)
            .map(|(spec, &busy)| {
                if makespan == SimTime::ZERO {
                    0.0
                } else {
                    busy.as_secs() / (makespan.as_secs() * spec.servers as f64)
                }
            })
            .collect();

        PipelineReport {
            makespan,
            stage_utilization,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: f64) -> SimTime {
        SimTime::from_ns(ns)
    }

    #[test]
    fn single_stage_single_server_serializes() {
        let sim = PipelineSim::new(vec![StageSpec::new("s", 1)]);
        let jobs: Vec<Job> = (0..5).map(|_| Job::new(0, vec![t(10.0)])).collect();
        let report = sim.run(&jobs);
        assert_eq!(report.makespan, t(50.0));
        assert!((report.stage_utilization[0] - 1.0).abs() < 1e-9);

        // A single server never overlaps two intervals, even when four
        // upstream servers hand it every job at once: "b" runs 10–50, idle
        // for the first fifth of the makespan.
        let sim = PipelineSim::new(vec![StageSpec::new("a", 4), StageSpec::new("b", 1)]);
        let jobs: Vec<Job> = (0..4)
            .map(|i| Job::new(i, vec![t(10.0), t(10.0)]))
            .collect();
        let report = sim.run(&jobs);
        assert_eq!(report.makespan, t(50.0));
        assert!((report.stage_utilization[0] - 0.2).abs() < 1e-9);
        assert!((report.stage_utilization[1] - 0.8).abs() < 1e-9);
    }

    #[test]
    fn two_servers_halve_the_makespan() {
        let sim = PipelineSim::new(vec![StageSpec::new("s", 2)]);
        let jobs: Vec<Job> = (0..6).map(|i| Job::new(i, vec![t(10.0)])).collect();
        let report = sim.run(&jobs);
        assert_eq!(report.makespan, t(30.0));
    }

    #[test]
    fn pipeline_overlaps_stages() {
        // Classic 2-stage pipeline: makespan = fill + n * bottleneck.
        let sim = PipelineSim::new(vec![StageSpec::new("a", 1), StageSpec::new("b", 1)]);
        let jobs: Vec<Job> = (0..10)
            .map(|i| Job::new(i, vec![t(10.0), t(4.0)]))
            .collect();
        let report = sim.run(&jobs);
        // Stage a serializes: 100 ns; last job then spends 4 ns in b.
        assert_eq!(report.makespan, t(104.0));
        // Sequential (non-pipelined) execution would be 140 ns.
        let sequential: SimTime = jobs.iter().flat_map(|j| j.service.iter().copied()).sum();
        assert!(report.makespan < sequential);
    }

    #[test]
    fn sequential_within_read_is_enforced() {
        // Two servers, but both jobs belong to one read on a sequential
        // stage: they must not run in parallel.
        let sim = PipelineSim::new(vec![StageSpec::new("bc", 2).sequential_within_read()]);
        let jobs = vec![Job::new(7, vec![t(10.0)]), Job::new(7, vec![t(10.0)])];
        let report = sim.run(&jobs);
        assert_eq!(report.makespan, t(20.0));

        // Different reads do run in parallel.
        let jobs = vec![Job::new(1, vec![t(10.0)]), Job::new(2, vec![t(10.0)])];
        assert_eq!(sim.run(&jobs).makespan, t(10.0));

        // A read's jobs keep list order while another read interleaves:
        // read 0's short second job waits for its long first one (30–35)
        // although read 1 frees a server at 10; read 1 does not wait for
        // read 0 (else the makespan would be 40).
        let jobs = vec![
            Job::new(0, vec![t(30.0)]),
            Job::new(1, vec![t(10.0)]),
            Job::new(0, vec![t(5.0)]),
        ];
        let report = sim.run(&jobs);
        assert_eq!(report.makespan, t(35.0));
        assert!((report.stage_utilization[0] - 45.0 / 70.0).abs() < 1e-9);
    }

    #[test]
    fn zero_service_passes_through() {
        let sim = PipelineSim::new(vec![StageSpec::new("a", 1), StageSpec::new("b", 1)]);
        let jobs = vec![Job::new(0, vec![t(10.0), SimTime::ZERO])];
        let report = sim.run(&jobs);
        assert_eq!(report.makespan, t(10.0));
        assert_eq!(report.stage_utilization[1], 0.0);
    }

    #[test]
    fn empty_job_list() {
        let sim = PipelineSim::new(vec![StageSpec::new("s", 3)]);
        let report = sim.run(&[]);
        assert_eq!(report.makespan, SimTime::ZERO);
        assert_eq!(report.stage_utilization[0], 0.0);
    }

    #[test]
    #[should_panic(expected = "service times")]
    fn wrong_service_length_panics() {
        let sim = PipelineSim::new(vec![StageSpec::new("s", 1)]);
        let _ = sim.run(&[Job::new(0, vec![])]);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_rejected() {
        let _ = StageSpec::new("s", 0);
    }
}
