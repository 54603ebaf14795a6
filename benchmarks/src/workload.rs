//! The four workloads and how their inputs are made from the seed.

use genpip_core::{ErMode, Flow, GenPipConfig, Parallelism};
use genpip_datasets::{DatasetProfile, ReadSource, SimulatedRead, StreamingSimulator};
use genpip_genomics::{rng, DnaSeq, Genome, ReadOrigin};
use genpip_io::{pack_source, GscError, GscReadSource};
use genpip_signal::PoreModel;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// One workload: which reads, which flow, how many threads, where the
/// reads come from.
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`.
    pub why: &'static str,
    /// `"ecoli"` or `"human"`: the profile the reads are drawn from.
    profile: &'static str,
    /// Overrides of the profile's `(low_quality_fraction,
    /// contaminant_fraction)`.
    mix: Option<(f64, f64)>,
    reads: usize,
    quick_reads: usize,
    pub flow: Flow,
    /// `min(nproc, 4)` workers instead of the serial in-line engine.
    pub mt: bool,
    /// Reads are packed to a GSC file once and replayed from it, with
    /// FASTQ output and periodic checkpoints.
    pub replay: bool,
    /// What makes this workload this workload, as shares of the traced
    /// wall: the least `basecall.share` and the `mapping.align.share` range
    /// it was designed to have (design expectations, README).
    pub min_basecall_share: f64,
    pub align_share: (f64, f64),
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "ecoli_genpip",
        why: "The paper's headline configuration: E. coli read mix, GenPIP flow with full early rejection, serial engine so layer times sum to the pass (basecall and alignment about even).",
        profile: "ecoli",
        mix: None,
        reads: 240,
        quick_reads: 8,
        flow: Flow::GenPip(ErMode::Full),
        mt: false,
        replay: false,
        min_basecall_share: 0.0,
        align_share: (0.40, 1.0),
    },
    Workload {
        name: "ecoli_conventional",
        why: "The paper's baseline on the same reads: whole-read basecall then whole-read mapping, no early rejection. An ER or chunk-pipeline change must not move it.",
        profile: "ecoli",
        mix: None,
        reads: 240,
        quick_reads: 8,
        flow: Flow::Conventional,
        mt: false,
        replay: false,
        min_basecall_share: 0.0,
        align_share: (0.40, 1.0),
    },
    Workload {
        name: "contam_genpip_mt",
        why: "Host-depletion sample, 92 % contaminants: most reads die at QSR or CMR, so basecall dominates and short-lived chains stress dispatch, permits, reject backlog and lane batching.",
        profile: "ecoli",
        mix: Some((0.05, 0.92)),
        reads: 520,
        quick_reads: 16,
        flow: Flow::GenPip(ErMode::Full),
        mt: true,
        replay: false,
        min_basecall_share: 0.70,
        align_share: (0.0, 0.25),
    },
    Workload {
        name: "human_replay_mt",
        why: "Deployment path: human profile (1 Mb repeat-rich index) replayed from a GSC file to FASTQ with checkpoints; long-lived chains; the workload where setup, memory and io carry signal.",
        profile: "human",
        mix: None,
        reads: 290,
        quick_reads: 10,
        flow: Flow::GenPip(ErMode::Full),
        mt: true,
        replay: true,
        min_basecall_share: 0.0,
        align_share: (0.35, 1.0),
    },
];

/// Reads between two checkpoint cuts on the replay workload.
pub const CHECKPOINT_EVERY: usize = 64;

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The profile the reads are drawn from, with the run's seed mixed in.
    /// `n_reads` is the size of the pool the stratified draw may consume.
    pub fn profile(&self, seed: u64, quick: bool) -> DatasetProfile {
        let mut p = match self.profile {
            "human" => DatasetProfile::human(),
            _ => DatasetProfile::ecoli(),
        };
        if quick {
            p = p.scaled(0.1);
        }
        p.seed ^= seed;
        if let Some((low_quality, contaminant)) = self.mix {
            p.low_quality_fraction = low_quality;
            p.contaminant_fraction = contaminant;
        }
        // Reads are synthesized as they are pulled, so a deep pool costs
        // nothing until a rare stratum needs it.
        p.n_reads = 64 * self.read_count(quick);
        p
    }

    pub fn read_count(&self, quick: bool) -> usize {
        if quick {
            self.quick_reads
        } else {
            self.reads
        }
    }

    /// The session configuration of the timed passes.
    pub fn config(&self, workers: usize) -> GenPipConfig {
        GenPipConfig::for_reference_name(self.profile)
            .with_parallelism(if self.mt {
                Parallelism::Threads(workers)
            } else {
                Parallelism::Serial
            })
            .with_keep_bases(self.replay)
    }
}

/// The class a read is drawn from (see [`StratifiedSource`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReadClass {
    LowQuality,
    Contaminant,
    Reference,
}

fn class_of(read: &SimulatedRead) -> ReadClass {
    if read.is_low_quality_truth() {
        ReadClass::LowQuality
    } else if read.origin == ReadOrigin::Contaminant {
        ReadClass::Contaminant
    } else {
        ReadClass::Reference
    }
}

/// What the accuracy metrics need to know about a read, kept after the
/// signal itself is gone.
pub struct Truth {
    pub origin: ReadOrigin,
    pub low_quality: bool,
    pub seq: DnaSeq,
    pub samples: usize,
}

impl Truth {
    /// Eligible for `mapping_recall` and `basecall_identity`: drawn from the
    /// reference with the high-quality noise profile (the rule of
    /// `tests/end_to_end.rs`).
    pub fn eligible(&self) -> bool {
        self.origin.is_reference() && !self.low_quality
    }
}

/// Length strata per class: a read's length decides its cost, and the
/// longest few reads of a pass decide its tail latency.
const LENGTH_BINS: usize = 5;

/// Splits `quota` over `parts` as evenly as whole numbers allow.
fn split_evenly(quota: usize, parts: usize) -> impl Iterator<Item = usize> {
    (0..parts).map(move |i| (i + 1) * quota / parts - i * quota / parts)
}

/// Of the open candidates `(index, quota, emitted)`, the one furthest behind
/// its even share of `total` after `done` draws.
fn furthest_behind(
    candidates: impl Iterator<Item = (usize, usize, usize)>,
    total: usize,
    done: usize,
) -> Option<usize> {
    candidates
        .filter(|&(_, quota, emitted)| emitted < quota)
        .max_by_key(|&(_, quota, emitted)| (quota * (done + 1)) as i64 - (emitted * total) as i64)
        .map(|(index, _, _)| index)
}

/// A stratified draw from the profile's read stream. It fixes how many
/// reads of each class *and length bin* a workload holds and where in the
/// read order they sit (each class spread evenly over the order, each
/// length bin evenly over its class), so that two seeds differ in the reads
/// themselves and not in the mix, in the work the pass holds, or in how
/// long survivors cluster — the tail latency under in-order emission
/// depends on that clustering. The bins are fifths of the profile's length
/// distribution. Reads are taken from the stream in generation order,
/// parked per stratum until their slot comes up, renumbered from 0, and
/// their truth recorded on the way.
pub struct StratifiedSource {
    inner: StreamingSimulator,
    /// Upper length (bases, exclusive) of every bin but the last.
    bin_edges: Vec<usize>,
    /// Reads wanted per stratum, `class * LENGTH_BINS + bin`, the classes
    /// being low quality, contaminant, reference.
    quota: Vec<usize>,
    emitted: Vec<usize>,
    /// Reads generated ahead of their stratum's next slot.
    parked: Vec<VecDeque<SimulatedRead>>,
    pub truth: Vec<Truth>,
    /// Time spent inside `next_read`, i.e. synthesizing (not packing).
    pub busy: std::time::Duration,
}

impl StratifiedSource {
    pub fn new(profile: &DatasetProfile, reads: usize) -> StratifiedSource {
        let low = (profile.low_quality_fraction * reads as f64).round() as usize;
        let contaminant =
            ((1.0 - profile.low_quality_fraction) * profile.contaminant_fraction * reads as f64)
                .round() as usize;
        let reference = reads
            .checked_sub(low + contaminant)
            .expect("class quotas exceed the read count");
        // The same edges whatever the run's seed: quantiles of a fixed draw
        // from the length model.
        let mut rng = rng::seeded(0x1E46);
        let mut lengths: Vec<usize> = (0..4096)
            .map(|_| profile.lengths.sample(&mut rng, profile.min_read_len))
            .collect();
        lengths.sort_unstable();
        let quota: Vec<usize> = [low, contaminant, reference]
            .into_iter()
            .flat_map(|class| split_evenly(class, LENGTH_BINS))
            .collect();
        StratifiedSource {
            inner: StreamingSimulator::new(profile),
            bin_edges: (1..LENGTH_BINS)
                .map(|i| lengths[i * lengths.len() / LENGTH_BINS])
                .collect(),
            emitted: vec![0; quota.len()],
            parked: vec![VecDeque::new(); quota.len()],
            quota,
            truth: Vec::with_capacity(reads),
            busy: std::time::Duration::ZERO,
        }
    }

    fn stratum_of(&self, read: &SimulatedRead) -> usize {
        let length = read.signal.truth.len();
        let bin = self
            .bin_edges
            .iter()
            .filter(|&&edge| length >= edge)
            .count();
        class_of(read) as usize * LENGTH_BINS + bin
    }

    /// The stratum due at the next slot: the class furthest behind its even
    /// share of the slots so far, and in it the length bin furthest behind
    /// its share of the class.
    fn stratum_due(&self) -> Option<usize> {
        let bins = |class: usize| class * LENGTH_BINS..(class + 1) * LENGTH_BINS;
        let of_class = |counts: &[usize], class: usize| counts[bins(class)].iter().sum::<usize>();
        let class = furthest_behind(
            (0..3).map(|c| (c, of_class(&self.quota, c), of_class(&self.emitted, c))),
            self.quota.iter().sum(),
            self.truth.len(),
        )?;
        furthest_behind(
            bins(class).map(|s| (s, self.quota[s], self.emitted[s])),
            of_class(&self.quota, class),
            of_class(&self.emitted, class),
        )
    }
}

impl ReadSource for StratifiedSource {
    fn reference(&self) -> &Genome {
        self.inner.reference()
    }

    fn pore_model(&self) -> &PoreModel {
        self.inner.pore_model()
    }

    fn mean_dwell(&self) -> f64 {
        self.inner.mean_dwell()
    }

    fn next_read(&mut self) -> Option<SimulatedRead> {
        let due = self.stratum_due()?;
        let start = std::time::Instant::now();
        let mut read = loop {
            if let Some(read) = self.parked[due].pop_front() {
                break read;
            }
            let read = self
                .inner
                .next_read()
                .expect("read pool ran dry before the quotas filled");
            let stratum = self.stratum_of(&read);
            // Reads of a stratum that already has all it needs are dropped.
            if self.emitted[stratum] + self.parked[stratum].len() < self.quota[stratum] {
                self.parked[stratum].push_back(read);
            }
        };
        self.emitted[due] += 1;
        read.id = self.truth.len() as u32;
        self.truth.push(Truth {
            origin: read.origin,
            low_quality: read.is_low_quality_truth(),
            seq: read.signal.truth.clone(),
            samples: read.signal.samples.len(),
        });
        self.busy += start.elapsed();
        Some(read)
    }
}

/// What a pipeline needs before the first read: the `ReadSource` context.
pub struct Chemistry {
    pub reference: Genome,
    pub pore: PoreModel,
    pub mean_dwell: f64,
}

/// Where a workload's reads live during the run.
pub enum ReadStore {
    /// Resident reads, cloned out one at a time as `DatasetStream` does.
    Memory {
        chemistry: Arc<Chemistry>,
        reads: Arc<Vec<SimulatedRead>>,
    },
    /// A GSC container read back through `GscReadSource` (the file sits in
    /// the page cache: it was written moments ago).
    File { path: PathBuf },
}

/// The inputs of one run, made from the seed before any clock starts.
pub struct Inputs {
    pub store: ReadStore,
    pub truth: Vec<Truth>,
    pub input_samples: usize,
    pub generate_s: f64,
    /// Packing time and container size (replay workload only).
    pub pack_s: f64,
    pub file_bytes: u64,
    pub data_bytes: u64,
}

impl Inputs {
    /// Generates the workload's reads; for the replay workload, streams
    /// them straight into a GSC file at `gsc_path` without ever holding
    /// them all.
    pub fn generate(
        workload: &Workload,
        seed: u64,
        quick: bool,
        gsc_path: &Path,
    ) -> Result<Inputs, GscError> {
        let start = std::time::Instant::now();
        let profile = workload.profile(seed, quick);
        let mut source = StratifiedSource::new(&profile, workload.read_count(quick));
        let (store, pack_s, file_bytes, data_bytes) = if workload.replay {
            let built = start.elapsed();
            let summary = pack_source(gsc_path, &mut source)?;
            (
                ReadStore::File {
                    path: gsc_path.to_path_buf(),
                },
                (start.elapsed() - built - source.busy).as_secs_f64(),
                summary.file_bytes,
                summary.data_bytes,
            )
        } else {
            let mut reads = Vec::with_capacity(workload.read_count(quick));
            while let Some(read) = source.next_read() {
                reads.push(read);
            }
            let chemistry = Chemistry {
                reference: source.reference().clone(),
                pore: source.pore_model().clone(),
                mean_dwell: source.mean_dwell(),
            };
            (
                ReadStore::Memory {
                    chemistry: Arc::new(chemistry),
                    reads: Arc::new(reads),
                },
                0.0,
                0,
                0,
            )
        };
        let truth = source.truth;
        Ok(Inputs {
            store,
            input_samples: truth.iter().map(|t| t.samples).sum(),
            truth,
            generate_s: start.elapsed().as_secs_f64() - pack_s,
            pack_s,
            file_bytes,
            data_bytes,
        })
    }

    /// A fresh source over the reads, positioned at read 0.
    pub fn open(&self) -> Result<Box<dyn ReadSource + Send>, GscError> {
        Ok(match &self.store {
            ReadStore::Memory { chemistry, reads } => Box::new(MemorySource {
                chemistry: Arc::clone(chemistry),
                reads: Arc::clone(reads),
                next: 0,
            }),
            ReadStore::File { path } => Box::new(GscReadSource::open(path)?),
        })
    }
}

struct MemorySource {
    chemistry: Arc<Chemistry>,
    reads: Arc<Vec<SimulatedRead>>,
    next: usize,
}

impl ReadSource for MemorySource {
    fn reference(&self) -> &Genome {
        &self.chemistry.reference
    }

    fn pore_model(&self) -> &PoreModel {
        &self.chemistry.pore
    }

    fn mean_dwell(&self) -> f64 {
        self.chemistry.mean_dwell
    }

    fn next_read(&mut self) -> Option<SimulatedRead> {
        let read = self.reads.get(self.next)?.clone();
        self.next += 1;
        Some(read)
    }

    fn reads_remaining(&self) -> Option<usize> {
        Some(self.reads.len() - self.next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reads_of(workload: &Workload, seed: u64) -> (Vec<SimulatedRead>, Vec<Truth>) {
        let inputs = Inputs::generate(workload, seed, true, Path::new("unused.gsc")).unwrap();
        let mut source = inputs.open().unwrap();
        let mut reads = Vec::new();
        while let Some(read) = source.next_read() {
            reads.push(read);
        }
        (reads, inputs.truth)
    }

    #[test]
    fn one_seed_gives_identical_reads_and_two_seeds_differ() {
        let w = find("ecoli_genpip").unwrap();
        let (a, _) = reads_of(w, 7);
        let (b, _) = reads_of(w, 7);
        let (c, _) = reads_of(w, 8);
        assert_eq!(a, b, "same seed, same inputs");
        assert_eq!(a.len(), c.len());
        assert_ne!(a, c, "another seed, other inputs");
        assert!(a.iter().zip(&c).all(|(x, y)| x.signal != y.signal));
    }

    #[test]
    fn the_mix_is_fixed_and_ids_are_dense() {
        for w in WORKLOADS.iter().filter(|w| !w.replay) {
            let n = w.read_count(true);
            let edges = StratifiedSource::new(&w.profile(0, true), n).bin_edges;
            assert!(edges.windows(2).all(|e| e[0] < e[1]), "{edges:?}");
            let mut counts = Vec::new();
            for seed in [1, 2] {
                let (reads, truth) = reads_of(w, seed);
                assert_eq!(reads.len(), n);
                assert_eq!(truth.len(), n);
                for (i, (read, t)) in reads.iter().zip(&truth).enumerate() {
                    assert_eq!(read.id as usize, i);
                    assert_eq!(t.seq, read.signal.truth);
                    assert_eq!(t.samples, read.signal.samples.len());
                }
                // Reads per (low quality, eligible, length bin).
                let mut strata = std::collections::BTreeMap::new();
                for t in &truth {
                    let bin = edges.iter().filter(|&&e| t.seq.len() >= e).count();
                    *strata
                        .entry((t.low_quality, t.eligible(), bin))
                        .or_insert(0) += 1;
                }
                counts.push(strata);
            }
            assert_eq!(
                counts[0], counts[1],
                "{}: class or length-bin counts vary with the seed",
                w.name
            );
            assert!(
                counts[0].keys().any(|&(_, eligible, _)| eligible),
                "{}: no eligible reads",
                w.name
            );
        }
    }

    #[test]
    fn quotas_split_evenly_and_slots_go_to_whoever_is_furthest_behind() {
        assert_eq!(split_evenly(7, 5).collect::<Vec<_>>(), [1, 1, 2, 1, 2]);
        assert_eq!(split_evenly(0, 5).sum::<usize>(), 0);
        assert_eq!(split_evenly(240, 5).collect::<Vec<_>>(), [48; 5]);
        // Quotas 1 and 3 of 4 slots: the large stratum goes first, the small
        // one gets the slot where it has fallen furthest behind (a tie goes
        // to the later stratum), a full one gets none.
        let due = |emitted: [usize; 2]| {
            let candidates = [(0, 1, emitted[0]), (1, 3, emitted[1])];
            furthest_behind(candidates.into_iter(), 4, emitted[0] + emitted[1])
        };
        assert_eq!(due([0, 0]), Some(1));
        assert_eq!(due([0, 1]), Some(1));
        assert_eq!(due([0, 2]), Some(0));
        assert_eq!(due([1, 2]), Some(1));
        assert_eq!(due([1, 3]), None);
    }

    #[test]
    fn conventional_and_genpip_share_their_reads() {
        let (a, _) = reads_of(find("ecoli_genpip").unwrap(), 3);
        let (b, _) = reads_of(find("ecoli_conventional").unwrap(), 3);
        assert_eq!(a, b);
    }
}
