//! GenPIP configuration.

use genpip_datasets::DatasetProfile;
use genpip_genomics::Genome;
use genpip_mapping::MapperParams;
use std::sync::Arc;

/// How many software worker threads the [`Session`](crate::engine::Session)
/// engine spreads reads across.
///
/// Results are **bit-identical** across all settings: reads are independent,
/// every worker computes deterministically, and results are reassembled in
/// read order. The knob only trades wall-clock time for cores.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Parallelism {
    /// One thread, no pool — the reference execution.
    Serial,
    /// A fixed worker count. `Threads(0)` is not clamped:
    /// [`Session`](crate::engine::Session) refuses it with
    /// [`SessionError::ZeroWorkers`](crate::engine::SessionError::ZeroWorkers),
    /// and [`Parallelism::parse`] never produces it.
    Threads(usize),
    /// One worker per available hardware thread.
    #[default]
    Auto,
}

impl Parallelism {
    /// The concrete worker count this setting resolves to on this machine
    /// (at least 1, also for the `Threads(0)` a session would refuse).
    pub fn workers(self) -> usize {
        match self {
            Parallelism::Serial => 1,
            Parallelism::Threads(n) => n.max(1),
            Parallelism::Auto => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }

    /// Parses a parallelism spelling: `"serial"`, `"auto"`, or a worker
    /// count (e.g. `"4"` → `Threads(4)`). `None` for anything else,
    /// including `"0"`.
    pub fn parse(s: &str) -> Option<Parallelism> {
        match s.trim().to_ascii_lowercase().as_str() {
            "serial" => Some(Parallelism::Serial),
            "auto" => Some(Parallelism::Auto),
            n => match n.parse::<usize>() {
                Ok(count) if count > 0 => Some(Parallelism::Threads(count)),
                _ => None,
            },
        }
    }

    /// The setting named by the `GENPIP_PARALLELISM` environment variable
    /// (same spellings as [`Parallelism::parse`]), or `None` when it is
    /// unset. CI's test matrix sets this to force both threading paths
    /// through every test that consults it.
    ///
    /// # Panics
    ///
    /// Panics, naming the variable and its value, when it is set to
    /// anything [`Parallelism::parse`] refuses: a typo must not silently
    /// run the default.
    pub fn from_env() -> Option<Parallelism> {
        Parallelism::from_env_value(std::env::var_os("GENPIP_PARALLELISM").as_deref())
    }

    fn from_env_value(value: Option<&std::ffi::OsStr>) -> Option<Parallelism> {
        let value = value?;
        let parsed = value.to_str().and_then(Parallelism::parse);
        Some(parsed.unwrap_or_else(|| {
            panic!("invalid GENPIP_PARALLELISM {value:?} (use serial, auto or a worker count)")
        }))
    }

    /// [`Parallelism::from_env`] with a fallback.
    pub fn from_env_or(default: Parallelism) -> Parallelism {
        Parallelism::from_env().unwrap_or(default)
    }
}

/// What the engine does with a read whose task faults (panics or trips a
/// signal-integrity check) mid-read.
///
/// Containment never changes surviving reads' results: a faulted read's
/// remaining chunks never run, it is emitted in its in-order slot like any
/// other result, and every other read proceeds untouched — so survivors
/// stay bit-identical to a fault-free run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FaultPolicy {
    /// Propagate the panic and tear the whole session down (the historical
    /// behaviour, and the right one for faults that indicate a bug in the
    /// pipeline rather than a bad read).
    #[default]
    Fail,
    /// Contain the fault: cancel the read's remaining chunks, emit it as
    /// [`crate::stream::StreamEvent::Failed`], and keep the session running.
    /// There is no retry in between: a read's run is a pure function of its
    /// never-mutated signal, so a second attempt faults at the same chunk.
    Quarantine,
}

impl FaultPolicy {
    /// Parses a CLI spelling: `"fail"` or `"quarantine"`. `None` for
    /// anything else.
    pub fn parse(s: &str) -> Option<FaultPolicy> {
        match s.trim().to_ascii_lowercase().as_str() {
            "fail" => Some(FaultPolicy::Fail),
            "quarantine" => Some(FaultPolicy::Quarantine),
            _ => None,
        }
    }
}

/// All knobs of the GenPIP system.
///
/// The dataset-dependent values follow the paper's sensitivity analysis
/// (Section 6.3): `N_qs` = 2 (E. coli) / 5 (human) sampled chunks for QSR,
/// `N_cm` = 5 (E. coli) / 3 (human) combined chunks for CMR, quality
/// threshold `θ_qs` = 7 throughout.
#[derive(Debug, Clone, PartialEq)]
pub struct GenPipConfig {
    /// Chunk size in bases (the paper evaluates 300/400/500; 300 is the
    /// basecaller default).
    pub chunk_bases: usize,
    /// Number of evenly-spaced chunks QSR samples (`N_qs`).
    pub n_qs: usize,
    /// Number of leading consecutive chunks CMR combines (`N_cm`).
    pub n_cm: usize,
    /// Read-quality threshold (`θ_qs`), in Phred units.
    pub theta_qs: f64,
    /// Chaining-score threshold (`θ_cm`) applied to the CMR large chunk and
    /// to the whole read before alignment.
    pub theta_cm: f64,
    /// Read-mapper parameters.
    pub mapper: MapperParams,
    /// Software worker threading of the session engine (never changes
    /// results, only wall-clock time).
    pub parallelism: Parallelism,
    /// Keep each fully-basecalled read's sequence and per-base qualities on
    /// its [`crate::pipeline::ReadRun`] (`ReadRun::called`), so sinks can
    /// serialize real output (e.g. FASTQ) instead of counters. Off by
    /// default: early-rejected reads never have assembled bases, and runs
    /// that only need counters should not pay the memory.
    pub keep_bases: bool,
    /// What to do with a read whose task faults mid-read (see
    /// [`FaultPolicy`]). Per-source config overrides let each source of a
    /// session pick its own policy.
    pub fault_policy: FaultPolicy,
    /// Additional references mapped alongside each source's own reference
    /// (pan-genome sessions). Every read fans out across the source's
    /// reference plus these, and the best hit is merged deterministically
    /// (chain score, then reference name, then position). Empty by default —
    /// single-reference runs stay byte-for-byte what they always were.
    pub extra_references: Vec<Arc<Genome>>,
}

impl GenPipConfig {
    /// The paper's operating point for a dataset profile.
    pub fn for_dataset(profile: &DatasetProfile) -> GenPipConfig {
        GenPipConfig::for_reference_name(profile.name)
    }

    /// The paper's operating point, keyed by reference name alone — for
    /// sources whose dataset profile is not available, such as an on-disk
    /// signal container that only embeds its reference genome. Matches
    /// [`GenPipConfig::for_dataset`] for every built-in profile, so a file
    /// replay of a simulated dataset runs the same `N_qs`/`N_cm`.
    pub fn for_reference_name(name: &str) -> GenPipConfig {
        let mut config = GenPipConfig::default();
        match name {
            "human" => {
                config.n_qs = 5;
                config.n_cm = 3;
            }
            _ => {
                // E. coli defaults (also the fallback for custom profiles).
                config.n_qs = 2;
                config.n_cm = 5;
            }
        }
        config
    }

    /// Overrides the chunk size.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_bases` is 0.
    pub fn with_chunk_bases(mut self, chunk_bases: usize) -> GenPipConfig {
        assert!(chunk_bases > 0, "chunk size must be positive");
        self.chunk_bases = chunk_bases;
        self
    }

    /// Overrides the threading of the session engine.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> GenPipConfig {
        self.parallelism = parallelism;
        self
    }

    /// Enables or disables retaining basecalled sequences on emitted reads
    /// (see [`GenPipConfig::keep_bases`]). Never changes outcomes or
    /// counters — only whether `ReadRun::called` is populated.
    pub fn with_keep_bases(mut self, keep_bases: bool) -> GenPipConfig {
        self.keep_bases = keep_bases;
        self
    }

    /// Overrides the fault policy (see [`FaultPolicy`]). Never changes
    /// surviving reads' results — only what happens to faulting ones.
    pub fn with_fault_policy(mut self, fault_policy: FaultPolicy) -> GenPipConfig {
        self.fault_policy = fault_policy;
        self
    }

    /// Adds references mapped alongside each source's own reference
    /// (see [`GenPipConfig::extra_references`]). Reference names must be
    /// unique across the source reference and all extras; the session
    /// engine validates this at start/attach time.
    pub fn with_extra_references(mut self, extra_references: Vec<Arc<Genome>>) -> GenPipConfig {
        self.extra_references = extra_references;
        self
    }

    /// Signal samples per chunk for a given mean dwell (samples/base).
    pub fn samples_per_chunk(&self, mean_dwell: f64) -> usize {
        genpip_signal::chunk::samples_per_chunk(self.chunk_bases, mean_dwell)
    }
}

impl Default for GenPipConfig {
    /// E. coli operating point, 300-base chunks.
    fn default() -> GenPipConfig {
        GenPipConfig {
            chunk_bases: 300,
            n_qs: 2,
            n_cm: 5,
            theta_qs: 7.0,
            theta_cm: 55.0,
            mapper: MapperParams::default(),
            parallelism: Parallelism::default(),
            keep_bases: false,
            fault_policy: FaultPolicy::default(),
            extra_references: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_operating_points_match_the_paper() {
        let e = GenPipConfig::for_dataset(&DatasetProfile::ecoli());
        assert_eq!((e.n_qs, e.n_cm), (2, 5));
        let h = GenPipConfig::for_dataset(&DatasetProfile::human());
        assert_eq!((h.n_qs, h.n_cm), (5, 3));
        assert_eq!(e.theta_qs, 7.0);
        assert_eq!(h.theta_qs, 7.0);
    }

    #[test]
    fn chunk_size_override() {
        let c = GenPipConfig::default().with_chunk_bases(400);
        assert_eq!(c.chunk_bases, 400);
        assert_eq!(c.samples_per_chunk(8.0), 3200);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_chunk_rejected() {
        let _ = GenPipConfig::default().with_chunk_bases(0);
    }

    #[test]
    fn parallelism_resolves_to_sane_worker_counts() {
        assert_eq!(Parallelism::Serial.workers(), 1);
        assert_eq!(Parallelism::Threads(4).workers(), 4);
        assert_eq!(
            Parallelism::Threads(0).workers(),
            1,
            "clamped to one worker"
        );
        assert!(Parallelism::Auto.workers() >= 1);
        let c = GenPipConfig::default().with_parallelism(Parallelism::Threads(2));
        assert_eq!(c.parallelism, Parallelism::Threads(2));
    }

    #[test]
    fn fault_policy_parses_the_cli_spellings() {
        assert_eq!(FaultPolicy::parse("fail"), Some(FaultPolicy::Fail));
        assert_eq!(
            FaultPolicy::parse(" Quarantine "),
            Some(FaultPolicy::Quarantine)
        );
        assert_eq!(FaultPolicy::parse("retry"), None);
        assert_eq!(FaultPolicy::parse("retry:5"), None);
        assert_eq!(FaultPolicy::parse("bogus"), None);
        assert_eq!(FaultPolicy::default(), FaultPolicy::Fail);
    }

    #[test]
    fn parallelism_parses_the_env_spellings() {
        assert_eq!(Parallelism::parse("serial"), Some(Parallelism::Serial));
        assert_eq!(Parallelism::parse("  AUTO "), Some(Parallelism::Auto));
        assert_eq!(Parallelism::parse("4"), Some(Parallelism::Threads(4)));
        assert_eq!(Parallelism::parse("0"), None);
        assert_eq!(Parallelism::parse("bogus"), None);
        assert_eq!(Parallelism::parse(""), None);
    }

    #[test]
    fn a_set_but_malformed_parallelism_variable_panics_naming_it() {
        use std::ffi::OsStr;
        assert_eq!(Parallelism::from_env_value(None), None);
        assert_eq!(
            Parallelism::from_env_value(Some(OsStr::new("serial"))),
            Some(Parallelism::Serial)
        );
        for bad in ["four", "0", ""] {
            let message =
                std::panic::catch_unwind(|| Parallelism::from_env_value(Some(OsStr::new(bad))))
                    .expect_err("a malformed value must not read as unset");
            let message = message.downcast_ref::<String>().expect("formatted panic");
            assert!(
                message.contains(&format!("invalid GENPIP_PARALLELISM {bad:?}")),
                "{message}"
            );
        }
    }
}
