//! The `genpip` command-line tool.
//!
//! ```text
//! genpip simulate --profile ecoli --scale 0.05 --out run1
//! genpip map --reference run1.fasta --reads run1.fastq --paf run1.paf
//! genpip run --profile ecoli --scale 0.1 --er full
//! genpip experiment fig10 --scale 0.2
//! ```
//!
//! Subcommands:
//!
//! * `simulate` — generate a synthetic dataset, basecall it, and write the
//!   reference (FASTA) plus basecalled reads (FASTQ);
//! * `map` — map a FASTQ of reads against a FASTA reference, printing (or
//!   writing) PAF records;
//! * `run` — the full GenPIP pipeline, executed by one `Session`: one
//!   bounded-memory worker pool serving one or many read sources (repeated
//!   `--source` specs, simulated or replayed from GSC containers) under a
//!   `--schedule` policy, with per-source progress and summaries. The
//!   datasets are never materialized, and at most `--queue` + workers reads
//!   are in memory across all sources. A `--script` drives the session
//!   live: its steps attach and detach sources or drain the session through
//!   the control plane (`SessionControl::attach_with`/`detach`/`drain`) once a
//!   given number of reads has been emitted;
//! * `pack` — export a simulated dataset into an on-disk GSC raw-signal
//!   container, optionally verifying the round-trip bit-for-bit;
//! * `inspect` — dump a GSC container's header, layout, and (optionally)
//!   per-read records, verifying checksums on request;
//! * `experiment` — regenerate one of the paper's figures/tables.

use genpip::core::engine::{
    AttachSpec, Flow, PendingAttach, PendingDetach, Session, SessionControl, SessionReport,
};
use genpip::core::experiments;
use genpip::core::pipeline::ErMode;
use genpip::core::scheduler::Schedule;
use genpip::core::stream::{FastqSink, StreamEvent, StreamOptions};
use genpip::core::{FaultPolicy, GenPipConfig, Parallelism};
use genpip::datasets::{DatasetProfile, FaultInjector, ReadSource, StreamingSimulator};
use genpip::genomics::fastx;
use genpip::genomics::{Genome, GenomeBuilder};
use genpip::io::{
    pack_source, CheckpointFile, FastqMark, GscReadSource, GscReader, GscStatus, SourceMark,
};
use genpip::mapping::paf::{write_paf, PafRecord};
use genpip::mapping::{MapperParams, ReferenceSet};
use genpip::signal::BYTES_PER_SAMPLE;
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::fs::{File, OpenOptions};
use std::io::{BufReader, BufWriter, Seek, SeekFrom};
use std::process::ExitCode;
use std::rc::Rc;
use std::sync::{Arc, Mutex};

/// One subcommand: its name, the options it accepts, what its one
/// positional argument is if it takes one (anything else is an error, never
/// a silently ignored typo), and its entry point.
type Command = (
    &'static str,
    &'static [&'static str],
    Option<&'static str>,
    fn(&Parsed) -> Result<(), String>,
);

const COMMANDS: &[Command] = &[
    ("simulate", &["profile", "scale", "out"], None, cmd_simulate),
    ("map", &["reference", "reads", "paf"], None, cmd_map),
    ("run", RUN_OPTIONS, None, cmd_run),
    (
        "pack",
        &["profile", "scale", "out", "verify"],
        None,
        cmd_pack,
    ),
    (
        "inspect",
        &["reads", "verify"],
        Some("container path"),
        cmd_inspect,
    ),
    (
        "experiment",
        &["scale"],
        Some("experiment name"),
        cmd_experiment,
    ),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    if matches!(command.as_str(), "help" | "--help" | "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let Some(&(_, accepted, positional, run)) = COMMANDS.iter().find(|(name, ..)| name == command)
    else {
        eprintln!("error: unknown command {command:?}");
        return ExitCode::FAILURE;
    };
    let opts = match parse_options(command, accepted, positional, rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The options of `run`, the one subcommand that runs reads.
const RUN_OPTIONS: &[&str] = &[
    "profile",
    "scale",
    "er",
    "source",
    "reference",
    "script",
    "schedule",
    "queue",
    "threads",
    "max-sources",
    "progress",
    "fastq-out",
    "on-fault",
    "inject-faults",
    "checkpoint",
    "checkpoint-every",
    "resume",
];

const USAGE: &str = "genpip — in-memory genome analysis (GenPIP reproduction)

USAGE:
  genpip simulate --profile <ecoli|human> [--scale F] --out <prefix>
  genpip map --reference <ref.fasta>... --reads <reads.fastq> [--paf <out.paf>]
  genpip run [--profile <ecoli|human>] [--scale F] [--er <full|qsr|cp|off>]
             [--source SPEC]... [--reference SPEC]... [--script FILE]
             [--schedule <fair|sequential|priority>]
             [--queue N] [--threads <serial|auto|N>] [--max-sources N]
             [--progress N] [--fastq-out PATH]
             [--on-fault <fail|quarantine>] [--inject-faults RATE]
             [--checkpoint PATH] [--checkpoint-every N] [--resume PATH]
  genpip pack [--profile <ecoli|human>] [--scale F] --out <file.gsc> [--verify]
  genpip inspect <file.gsc> [--reads N] [--verify]
  genpip experiment <fig04|fig07|fig10|fig11|fig12|fig13|tab01|tab02|useless|ablations> [--scale F]

Each subcommand accepts only the options listed for it above; anything
else is an error, and so is a bare argument where none is listed (only
`inspect` and `experiment` take one) or a second occurrence of any option
but --source and --reference.

OPTIONS:
  --profile   dataset profile (default ecoli); for `run`, the one simulated
              source, named after the profile, when no --source is given
  --scale     dataset scale factor in (0,1] (default 0.1 for simulate, pack
              and run, 1.0 for experiment); for `run`, also the default
              scale of every profile= source
  --er        early-rejection mode for `run` (default full)
  --out       output file prefix for `simulate`
  --paf       PAF output path for `map` (default: stdout)
  --reference for `map`: a reference FASTA, repeatable — several files form
              a pan-genome panel; each read maps against every reference and
              the deterministic best hit (chain score, then reference name,
              then position) names its reference in the PAF target column.
              For `run`: an extra synthetic reference mapped alongside every
              source's own, repeatable; a name another member of the panel
              has is an error. SPEC is comma-joined key=value pairs: len=N
              (required), name=ID (default refN), seed=S
  --source    one read source for `run`, repeatable. SPEC is comma-joined
              key=value pairs, the same grammar a --script attach step uses:
              profile=<ecoli|human>[,scale=F] (simulated; scale defaults to
              --scale) or file=PATH[,offset=K] (an on-disk GSC container
              replayed from read index K, bit-identical to streaming the
              same dataset from memory) — scale= on a file source or
              offset= on a profile one is an error — then name=ID (default:
              profileN, or the file stem), weight=N (the source's share of
              pulls under --schedule priority, default 1; an error under any
              other schedule). Without --source, one source is built from
              --profile/--scale; with it, --profile is an error
  --script    `run` driver script, one step per line (# starts a comment):
                at COUNT attach NAME SPEC   (a --source SPEC without name=)
                at COUNT detach NAME
                at COUNT drain
              A step fires through the live control plane once COUNT reads
              have been emitted (or have failed) across all sources, and a
              step that never fires is an error. The sources a run starts
              with are --source or --profile. `at N drain` stops intake and
              finishes the reads in flight — a deterministic stand-in for an
              interrupted run when testing --checkpoint/--resume. Attach
              steps cannot be combined with --fastq-out or --resume
  --max-sources
              `run` admission bound: a source registered or attached beyond
              this many concurrently-attached sources is refused (default 64)
  --checkpoint
              `run` writes a resumable checkpoint to PATH (atomically,
              via rename) every --checkpoint-every reads and once more when
              the session finishes. Checkpoints record per-source read
              offsets and, with --fastq-out, the flushed FASTQ byte
              position of every output file
  --checkpoint-every
              checkpoint cadence in emitted reads (default 25); an error
              without --checkpoint
  --resume    restart a `run` from a checkpoint written by --checkpoint.
              Sources must be file= containers (file sources are seekable;
              simulated ones are not); FASTQ outputs are truncated to the
              recorded byte position and appended to, so the resumed file
              is byte-identical to an uninterrupted run
  --schedule  how `run` interleaves its sources over the one worker
              pool: fair (round-robin, default), sequential (drain in
              registration order), priority (weighted by each source's
              weight= — the way to favour a source: it is pulled more
              often, at the expense of the others' latency)
  --queue     `run` work-queue capacity; resident reads across
              all sources <= queue + workers (default 8)
  --fastq-out write every fully-basecalled read as FASTQ. One source
              writes PATH verbatim; N sources write PATH.<name> each
  --progress  `run` per-source progress line cadence in reads (default 50, 0 = off)
  --threads   `run` worker threads (default: GENPIP_PARALLELISM env or auto)
  --on-fault  what a faulting read does to the run (default fail):
              fail aborts the process, quarantine contains the read
              (it is reported with the chunk it faulted at) and keeps
              going. There is no retry: a read is a pure function of its
              signal, so a second attempt faults again. Exit code is nonzero
              when reads failed unless quarantine was requested explicitly
  --inject-faults
              corrupt this fraction of reads in every `run` source, attached
              ones included (deterministic, seeded) — a fault-tolerance
              testing aid. Implies quarantine when --on-fault is not given
  --out       for `pack`: the GSC container path to write
  --verify    for `pack`: re-open the container after writing, check every
              checksum, and compare each decoded read bit-for-bit against a
              fresh simulation of the profile. For `inspect`: check every
              record checksum
  --reads     for `inspect`: also dump the first N per-read records (N >= 1)";

/// Parsed command line: repeatable options keep every occurrence in order;
/// every other option holds exactly one value.
type Options = HashMap<String, Vec<String>>;

/// Options that are bare flags: present or absent, never consuming a value.
const FLAG_OPTIONS: &[&str] = &["verify"];

/// Options that may be given more than once; a repeat of any other is an
/// error, like a key given twice inside a spec.
const REPEATABLE_OPTIONS: &[&str] = &["source", "reference"];

fn parse_options(
    command: &str,
    accepted: &[&str],
    takes: Option<&str>,
    args: &[String],
) -> Result<Parsed, String> {
    let mut opts: Options = HashMap::new();
    let mut positional = Vec::new();
    let mut it = args.iter();
    // The bare flag just before `arg`, if any: a value after it is a
    // mistake about the flag, not about the positionals.
    let mut after_flag: Option<&str> = None;
    while let Some(arg) = it.next() {
        if let Some(key) = arg.strip_prefix("--") {
            if !accepted.contains(&key) {
                return Err(format!("unknown option --{key} for '{command}'"));
            }
            let value = if FLAG_OPTIONS.contains(&key) {
                "true".to_string()
            } else {
                it.next()
                    .ok_or_else(|| format!("option --{key} needs a value"))?
                    .clone()
            };
            let values = opts.entry(key.to_string()).or_default();
            if !values.is_empty() && !REPEATABLE_OPTIONS.contains(&key) {
                return Err(format!("option --{key} given twice"));
            }
            values.push(value);
            after_flag = FLAG_OPTIONS.contains(&key).then_some(key);
        } else if positional.len() == usize::from(takes.is_some()) {
            let hint = match (after_flag, takes) {
                (Some(key), _) => format!(" (--{key} takes no value)"),
                (None, Some(what)) => format!(" (it takes one {what})"),
                (None, None) => String::new(),
            };
            return Err(format!("unexpected argument {arg:?} for '{command}'{hint}"));
        } else {
            positional.push(arg.clone());
            after_flag = None;
        }
    }
    Ok((opts, positional))
}

type Parsed = (Options, Vec<String>);

/// The value given for a single-valued option.
fn opt<'a>(parsed: &'a Parsed, key: &str) -> Option<&'a str> {
    parsed
        .0
        .get(key)
        .and_then(|vals| vals.last())
        .map(String::as_str)
}

/// Every value given for a repeatable option, in order.
fn opt_all<'a>(parsed: &'a Parsed, key: &str) -> &'a [String] {
    parsed.0.get(key).map(Vec::as_slice).unwrap_or(&[])
}

fn profile_by_name(name: &str) -> Result<DatasetProfile, String> {
    match name {
        "ecoli" => Ok(DatasetProfile::ecoli()),
        "human" => Ok(DatasetProfile::human()),
        other => Err(format!("unknown profile {other:?} (use ecoli or human)")),
    }
}

fn profile_from(parsed: &Parsed) -> Result<DatasetProfile, String> {
    let profile = profile_by_name(opt(parsed, "profile").unwrap_or("ecoli"))
        .map_err(|e| format!("--profile: {e}"))?;
    Ok(profile.scaled(scale_from(parsed, 0.1)?))
}

fn parse_scale(s: &str) -> Result<f64, String> {
    let v: f64 = s.parse().map_err(|_| format!("invalid scale {s:?}"))?;
    if v > 0.0 && v <= 1.0 {
        Ok(v)
    } else {
        Err("scale must be in (0, 1]".into())
    }
}

fn scale_from(parsed: &Parsed, default: f64) -> Result<f64, String> {
    match opt(parsed, "scale") {
        None => Ok(default),
        Some(s) => parse_scale(s).map_err(|e| format!("--scale: {e}")),
    }
}

fn cmd_simulate(parsed: &Parsed) -> Result<(), String> {
    let profile = profile_from(parsed)?;
    let prefix = opt(parsed, "out").ok_or("simulate needs --out <prefix>")?;
    let fasta_path = format!("{prefix}.fasta");
    let fastq_path = format!("{prefix}.fastq");
    // Both outputs exist before the banner, so a bad --out fails at once.
    let create = |path: &str| File::create(path).map_err(|e| format!("--out {path}: {e}"));
    let (fasta, fastq) = (create(&fasta_path)?, create(&fastq_path)?);
    println!(
        "simulating {} ({} reads, {} bp genome)…",
        profile.name, profile.n_reads, profile.genome_len
    );
    let dataset = profile.generate();
    let reads = experiments::tab01::basecall_dataset(&dataset);

    fastx::write_fasta(BufWriter::new(fasta), &dataset.reference)
        .map_err(|e| format!("--out {fasta_path}: {e}"))?;
    fastx::write_fastq(BufWriter::new(fastq), &reads)
        .map_err(|e| format!("--out {fastq_path}: {e}"))?;
    println!(
        "wrote {fasta_path} (reference) and {fastq_path} ({} basecalled reads)",
        reads.len()
    );
    Ok(())
}

fn cmd_pack(parsed: &Parsed) -> Result<(), String> {
    let profile = profile_from(parsed)?;
    let out = opt(parsed, "out").ok_or("pack needs --out <file.gsc>")?;
    // Created before the banner so a bad --out fails at once;
    // `pack_source` truncates and rewrites it.
    File::create(out).map_err(|e| format!("--out {out}: {e}"))?;
    println!(
        "packing {} ({} reads, {} bp genome) into {out}…",
        profile.name, profile.n_reads, profile.genome_len
    );
    let mut source = StreamingSimulator::new(&profile);
    let summary = pack_source(out, &mut source).map_err(|e| format!("{out}: {e}"))?;
    println!(
        "wrote {} reads, {} record bytes ({} file bytes)",
        summary.reads, summary.data_bytes, summary.file_bytes
    );
    if opt(parsed, "verify").is_some() {
        let mut reader = GscReader::open(out).map_err(|e| format!("{out}: {e}"))?;
        let checked = reader
            .verify()
            .map_err(|e| format!("{out}: verification failed: {e}"))?;
        reader
            .seek_to(0)
            .map_err(|e| format!("{out}: verification failed: {e}"))?;
        let mut fresh = StreamingSimulator::new(&profile);
        let mut index = 0usize;
        loop {
            let stored = reader
                .next_record()
                .map_err(|e| format!("{out}: verification failed: {e}"))?;
            let simulated = fresh.next_read();
            match (stored, simulated) {
                (None, None) => break,
                (Some(stored), Some(simulated)) if stored == simulated => index += 1,
                _ => {
                    return Err(format!(
                        "{out}: verification failed: read {index} does not round-trip \
                         bit-identically"
                    ))
                }
            }
        }
        println!("verified: {checked} reads round-trip bit-identically");
    }
    Ok(())
}

fn cmd_inspect(parsed: &Parsed) -> Result<(), String> {
    let dump = positive_from(parsed, "reads", 0)?;
    let path = parsed
        .1
        .first()
        .ok_or("inspect needs a container path (genpip inspect <file.gsc>)")?;
    let mut reader = GscReader::open(path).map_err(|e| format!("container {path}: {e}"))?;
    let model = reader.pore_model();
    println!("container:  {path}");
    println!(
        "reference:  {} ({} bp, 2-bit packed)",
        reader.reference().name(),
        reader.reference().len()
    );
    println!(
        "pore model: k={} ({} levels), event σ {:.4}, mean dwell {:.3} samples/base",
        model.k(),
        model.states(),
        model.event_std(),
        reader.mean_dwell()
    );
    println!(
        "layout:     {} header bytes, {} record bytes, {} file bytes",
        reader.header_bytes(),
        reader.data_bytes(),
        reader.file_bytes()
    );
    let offsets = reader.offsets();
    match (offsets.first(), offsets.last()) {
        (Some(first), Some(last)) => println!(
            "records:    {} (offset table spans {first}..{last})",
            reader.read_count()
        ),
        _ => println!("records:    0"),
    }
    for index in 0..dump.min(reader.read_count()) {
        let read = reader
            .read_at(index)
            .map_err(|e| format!("{path}: read {index}: {e}"))?;
        println!(
            "  read {:>4}  id {:>5}  {:>7} samples  {:>6} bases  {:?}",
            index,
            read.id,
            read.signal.samples.len(),
            read.signal.truth.len(),
            read.origin,
        );
    }
    if opt(parsed, "verify").is_some() {
        let checked = reader
            .verify()
            .map_err(|e| format!("{path}: verification failed: {e}"))?;
        println!("verified:   {checked} record checksums OK");
    }
    Ok(())
}

fn cmd_map(parsed: &Parsed) -> Result<(), String> {
    let reference_paths = opt_all(parsed, "reference");
    if reference_paths.is_empty() {
        return Err("map needs --reference (repeat the flag for a pan-genome panel)".into());
    }
    let reads_path = opt(parsed, "reads").ok_or("map needs --reads")?;
    // Created before any input is read, so a bad --paf fails at once.
    let paf = match opt(parsed, "paf") {
        Some(path) => Some((
            path,
            File::create(path).map_err(|e| format!("--paf {path}: {e}"))?,
        )),
        None => None,
    };
    let mut genomes = Vec::with_capacity(reference_paths.len());
    for path in reference_paths {
        let genome = fastx::read_fasta(BufReader::new(
            File::open(path).map_err(|e| format!("--reference {path}: {e}"))?,
        ))
        .map_err(|e| format!("--reference {path}: {e}"))?;
        if genomes.iter().any(|g: &Genome| g.name() == genome.name()) {
            return Err(format!(
                "duplicate reference name {:?} (from {path}); every --reference \
                 needs a unique FASTA header",
                genome.name()
            ));
        }
        genomes.push(genome);
    }
    let reads = fastx::read_fastq(BufReader::new(
        File::open(reads_path).map_err(|e| format!("--reads {reads_path}: {e}"))?,
    ))
    .map_err(|e| format!("--reads {reads_path}: {e}"))?;
    let set = ReferenceSet::build(&genomes, MapperParams::default());
    for (name, mapper) in set.names().iter().zip(set.mappers()) {
        eprintln!("indexed {name}: {} entries", mapper.index().total_entries());
    }

    let mut records = Vec::new();
    let mut unmapped = 0usize;
    for read in &reads {
        match set.map(&read.seq).best {
            Some(m) => records.push(PafRecord::from_set_mapping(
                format!("read{}", read.id),
                read.len(),
                &set,
                &m,
            )),
            None => unmapped += 1,
        }
    }
    match paf {
        Some((path, f)) => {
            write_paf(BufWriter::new(f), &records).map_err(|e| format!("--paf {path}: {e}"))?;
            eprintln!(
                "wrote {} records to {path} ({unmapped} unmapped)",
                records.len()
            );
        }
        None => {
            write_paf(std::io::stdout().lock(), &records).map_err(|e| e.to_string())?;
            eprintln!("{} mapped, {unmapped} unmapped", records.len());
        }
    }
    Ok(())
}

/// `--on-fault`: the policy, plus whether the user asked for it explicitly
/// (an explicit quarantine request means quarantined reads are an expected
/// outcome, not a failure exit).
fn fault_policy_from(parsed: &Parsed) -> Result<(FaultPolicy, bool), String> {
    match opt(parsed, "on-fault") {
        None => Ok((FaultPolicy::default(), false)),
        Some(s) => FaultPolicy::parse(s).map(|p| (p, true)).ok_or_else(|| {
            format!(
                "invalid --on-fault {s:?} (use fail or quarantine; a read is a pure \
                     function of its signal, so a retry faults again)"
            )
        }),
    }
}

/// Nonzero-exit rule of `run`: failed reads fail the invocation unless
/// containment was explicitly requested.
fn fault_exit(failed: usize, explicit_containment: bool) -> Result<(), String> {
    if failed > 0 && !explicit_containment {
        Err(format!(
            "{failed} read(s) failed (rerun with --on-fault quarantine to accept quarantined reads)"
        ))
    } else {
        Ok(())
    }
}

fn er_from(parsed: &Parsed) -> Result<ErMode, String> {
    match opt(parsed, "er").unwrap_or("full") {
        "full" => Ok(ErMode::Full),
        "qsr" => Ok(ErMode::QsrOnly),
        "cp" | "off" => Ok(ErMode::None),
        other => Err(format!("unknown --er {other:?}")),
    }
}

/// A comma-joined `key=value` spec — the one grammar behind `--reference`,
/// `--source` and the `attach` steps of a `--script`.
/// Every part must be `key=value` with a key the surface accepts; errors
/// name the surface (`flag`) and quote the offending spec.
struct Spec<'a> {
    flag: &'a str,
    text: &'a str,
    pairs: Vec<(&'a str, &'a str)>,
}

impl<'a> Spec<'a> {
    fn parse(flag: &'a str, text: &'a str, keys: &[&str]) -> Result<Spec<'a>, String> {
        let mut spec = Spec {
            flag,
            text,
            pairs: Vec::new(),
        };
        for part in text.split(',') {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| spec.err(format!("part {part:?} is not key=value")))?;
            if !keys.contains(&key) {
                return Err(spec.err(format!("unknown key {key:?} (use {})", keys.join(", "))));
            }
            if spec.get(key).is_some() {
                return Err(spec.err(format!("key {key:?} given twice")));
            }
            spec.pairs.push((key, value));
        }
        Ok(spec)
    }

    fn err(&self, msg: impl std::fmt::Display) -> String {
        format!("{} {:?}: {msg}", self.flag, self.text)
    }

    /// The value given for `key`.
    fn get(&self, key: &str) -> Option<&'a str> {
        self.pairs.iter().find(|(k, _)| *k == key).map(|p| p.1)
    }

    /// `key`'s value parsed as a number, if the key was given.
    fn number<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.get(key)
            .map(|value| {
                value
                    .parse()
                    .map_err(|_| self.err(format!("invalid {key} {value:?}")))
            })
            .transpose()
    }
}

/// One `run` `--reference` spec, parsed into a synthetic extra reference:
/// `name=ID,len=N[,seed=S]`. Every spec becomes one additional pan-genome
/// reference mapped alongside each source's own. A name another member of
/// the panel has is refused when the session admits the source
/// (`SourceConfigIssue::DuplicateReferenceName`).
fn parse_reference_spec(text: &str, index: usize) -> Result<Arc<Genome>, String> {
    let spec = Spec::parse("--reference", text, &["name", "len", "seed"])?;
    let len: usize = spec.number("len")?.ok_or_else(|| spec.err("needs len="))?;
    if len == 0 {
        return Err(spec.err("len must be positive"));
    }
    let seed = spec.number("seed")?.unwrap_or(1_000 + index as u64);
    let name = spec
        .get("name")
        .map_or_else(|| format!("ref{index}"), str::to_string);
    Ok(Arc::new(
        GenomeBuilder::new(len).seed(seed).name(name).build(),
    ))
}

/// Where a source's reads come from.
enum SourceKind {
    /// Simulated on the fly from a dataset profile (`profile=`).
    Simulated(DatasetProfile),
    /// Replayed from an on-disk GSC signal container (`file=`), starting at
    /// read index `offset`.
    Container { path: String, offset: usize },
}

/// One read source as `--source` or a script's `at COUNT attach NAME SPEC`
/// spells it: `profile=<ecoli|human>[,scale=F]` or `file=PATH[,offset=K]`,
/// plus `[,weight=N][,name=ID]`. A script step names the source itself, so
/// its specs take no `name=`.
struct SourceSpec {
    name: String,
    kind: SourceKind,
    /// Priority-schedule share.
    weight: u32,
}

/// The keys of a source spec; `name` is last so surfaces that name the
/// source positionally can leave it out.
const SOURCE_KEYS: &[&str] = &["profile", "file", "scale", "offset", "weight", "name"];

fn parse_source_spec(
    flag: &str,
    text: &str,
    positional_name: Option<&str>,
    index: usize,
    fallback_scale: f64,
    weighted: bool,
) -> Result<SourceSpec, String> {
    let keys = match positional_name {
        Some(_) => &SOURCE_KEYS[..SOURCE_KEYS.len() - 1],
        None => SOURCE_KEYS,
    };
    let spec = Spec::parse(flag, text, keys)?;
    // A key the source's kind never reads is a mistake to report, not to
    // run without.
    let inapplicable = |key: &str, kind: &str| match spec.get(key) {
        Some(_) => Err(spec.err(format!("key {key:?} applies only to {kind} sources"))),
        None => Ok(()),
    };
    let (kind, default_name) = match (spec.get("profile"), spec.get("file")) {
        (Some(profile), None) => {
            inapplicable("offset", "file=")?;
            let scale = spec.get("scale").map(parse_scale).transpose();
            let scale = scale.map_err(|e| spec.err(e))?.unwrap_or(fallback_scale);
            let profile = profile_by_name(profile).map_err(|e| spec.err(e))?;
            let name = format!("{}{index}", profile.name);
            (SourceKind::Simulated(profile.scaled(scale)), name)
        }
        (None, Some(path)) => {
            inapplicable("scale", "profile=")?;
            let kind = SourceKind::Container {
                path: path.to_string(),
                offset: spec.number("offset")?.unwrap_or(0),
            };
            let stem = std::path::Path::new(path).file_stem();
            let stem = stem.and_then(|s| s.to_str());
            (
                kind,
                stem.map_or_else(|| format!("gsc{index}"), str::to_string),
            )
        }
        (Some(_), Some(_)) => return Err(spec.err("has both profile= and file=")),
        (None, None) => return Err(spec.err("needs profile= or file=")),
    };
    // The one schedule-scoped key: anywhere but under `priority` it would
    // be accepted and then count for nothing.
    let weight = spec.number("weight")?;
    if weight.is_some() && !weighted {
        return Err(spec.err("key \"weight\" applies only under --schedule priority"));
    }
    Ok(SourceSpec {
        name: positional_name
            .or(spec.get("name"))
            .map_or(default_name, str::to_string),
        kind,
        weight: weight.unwrap_or(1),
    })
}

/// The sources a `run` starts with: every `--source` spec, or one simulated
/// source named after `--profile` and scaled by `--scale`.
fn source_specs_from(
    parsed: &Parsed,
    fallback_scale: f64,
    weighted: bool,
) -> Result<Vec<SourceSpec>, String> {
    let texts = opt_all(parsed, "source");
    if texts.is_empty() {
        let profile = profile_from(parsed)?;
        return Ok(vec![SourceSpec {
            name: profile.name.to_string(),
            kind: SourceKind::Simulated(profile),
            weight: 1,
        }]);
    } else if opt(parsed, "profile").is_some() {
        return Err("--profile applies only without --source".into());
    }
    let mut specs: Vec<SourceSpec> = Vec::new();
    for text in texts {
        let index = specs.len();
        let spec = parse_source_spec("--source", text, None, index, fallback_scale, weighted)?;
        // Session::run would reject duplicates too, but catching them here
        // keeps the error ahead of the session banner.
        if specs.iter().any(|other| other.name == spec.name) {
            return Err(format!("duplicate source name {:?}", spec.name));
        }
        specs.push(spec);
    }
    Ok(specs)
}

/// How every source of a `run` joins the session, whether it is registered
/// before the run or attached by a script step: its fault injector and the
/// per-source config overrides.
struct SourceSetup {
    parallelism: Parallelism,
    keep_bases: bool,
    fault_policy: FaultPolicy,
    extra_references: Vec<Arc<Genome>>,
    inject_rate: f64,
}

/// A source opened and ready to register or attach.
struct OpenedSource {
    source: FaultInjector<Box<dyn ReadSource + Send>>,
    /// The source's operating point — `N_qs`/`N_cm` follow its profile, or a
    /// container's embedded reference name — with the run's overrides.
    config: GenPipConfig,
    /// Reads it will deliver.
    expected: usize,
    /// Banner description.
    desc: String,
    /// A container's error handle, checked after the run.
    status: Option<GscStatus>,
}

impl SourceSetup {
    /// Opens a spec's read source, the session's `index`-th, which seeds its
    /// fault injector (rate 0 makes the injector a transparent wrapper, so
    /// every source goes through it). A container starts `resumed` reads
    /// past its `offset=` (what a checkpointed run had already delivered).
    fn open(
        &self,
        spec: &SourceSpec,
        index: usize,
        resumed: usize,
    ) -> Result<OpenedSource, String> {
        let (source, config, expected, desc, status): (Box<dyn ReadSource + Send>, _, _, _, _) =
            match &spec.kind {
                SourceKind::Simulated(profile) => (
                    Box::new(StreamingSimulator::new(profile)),
                    GenPipConfig::for_dataset(profile),
                    profile.n_reads,
                    format!("{}, {} bp genome", profile.name, profile.genome_len),
                    None,
                ),
                SourceKind::Container { path, offset } => {
                    let start = offset + resumed;
                    let source =
                        GscReadSource::open_at(path, start).map_err(|e| format!("{path}: {e}"))?;
                    let reader = source.reader();
                    let config = GenPipConfig::for_reference_name(reader.reference().name());
                    let expected = reader.read_count().saturating_sub(start);
                    let desc = format!("{path}, reads {start}..{}", reader.read_count());
                    let status = Some(source.status());
                    (Box::new(source), config, expected, desc, status)
                }
            };
        Ok(OpenedSource {
            source: FaultInjector::new(source, self.inject_rate, 0x9E1F + index as u64),
            config: config
                .with_parallelism(self.parallelism)
                .with_keep_bases(self.keep_bases)
                .with_fault_policy(self.fault_policy)
                .with_extra_references(self.extra_references.clone()),
            expected,
            desc,
            status,
        })
    }
}

/// `--schedule` as spelled — read before the source specs, whose `weight=`
/// key only `priority` admits; its weights come from [`with_weights`].
fn schedule_from(parsed: &Parsed) -> Result<Schedule, String> {
    let spelled = opt(parsed, "schedule").unwrap_or("fair");
    Schedule::parse(spelled).ok_or_else(|| {
        format!("invalid --schedule {spelled:?} (use fair, sequential, or priority)")
    })
}

/// A `priority` schedule weighted by the sources registered at startup.
fn with_weights(schedule: Schedule, specs: &[SourceSpec]) -> Schedule {
    match schedule {
        Schedule::Priority(_) => Schedule::Priority(specs.iter().map(|s| s.weight).collect()),
        unweighted => unweighted,
    }
}

/// The `, weight N` of a source's banner line, under `priority` only.
fn weight_note(weighted: bool, spec: &SourceSpec) -> String {
    if weighted {
        format!(", weight {}", spec.weight)
    } else {
        String::new()
    }
}

fn usize_opt(parsed: &Parsed, key: &str) -> Result<Option<usize>, String> {
    opt(parsed, key)
        .map(|s| s.parse().map_err(|_| format!("invalid --{key} {s:?}")))
        .transpose()
}

fn usize_from(parsed: &Parsed, key: &str, default: usize) -> Result<usize, String> {
    Ok(usize_opt(parsed, key)?.unwrap_or(default))
}

/// A count that means nothing at 0 (`--queue`, `--checkpoint-every`,
/// `--max-sources`, `inspect --reads`), with a default for the option left
/// out.
fn positive_from(parsed: &Parsed, key: &str, default: usize) -> Result<usize, String> {
    match usize_opt(parsed, key)? {
        Some(0) => Err(format!("invalid --{key} \"0\" (must be at least 1)")),
        n => Ok(n.unwrap_or(default)),
    }
}

fn parallelism_from(parsed: &Parsed) -> Result<Parallelism, String> {
    if let Some(s) = opt(parsed, "threads") {
        return Parallelism::parse(s).ok_or_else(|| format!("invalid --threads {s:?}"));
    }
    Ok(Parallelism::from_env()?.unwrap_or(Parallelism::Auto))
}

fn inject_rate_from(parsed: &Parsed) -> Result<f64, String> {
    let Some(s) = opt(parsed, "inject-faults") else {
        return Ok(0.0);
    };
    let rate: f64 = s
        .parse()
        .map_err(|_| format!("invalid --inject-faults {s:?}"))?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(format!("invalid --inject-faults {s:?} (must be in [0, 1])"));
    }
    Ok(rate)
}

/// What a script step does when it fires.
enum ScriptAction {
    Attach(Box<SourceSpec>),
    Detach(String),
    Drain,
}

/// One `--script` step: fires once `after` reads have been emitted across
/// all sources.
struct ScriptStep {
    line_no: usize,
    after: usize,
    action: ScriptAction,
}

/// Parses a `--script`: one `at COUNT attach NAME SPEC`, `at COUNT detach
/// NAME` or `at COUNT drain` step a line, in firing order.
fn parse_script(
    text: &str,
    fallback_scale: f64,
    weighted: bool,
) -> Result<Vec<ScriptStep>, String> {
    let mut steps: Vec<ScriptStep> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let err = |msg: String| format!("--script line {line_no}: {msg}");
        let unrecognized = || {
            err(format!(
                "unrecognized step {line:?} (use at COUNT attach NAME SPEC, \
                 at COUNT detach NAME, or at COUNT drain)"
            ))
        };
        let words: Vec<&str> = line.split_whitespace().collect();
        let (after, rest) = match words[..] {
            ["at", count, ref rest @ ..] => match count.parse::<usize>() {
                Ok(after) => (after, rest),
                Err(_) => return Err(err(format!("`at` needs a read count, not {count:?}"))),
            },
            ["attach", ..] => {
                return Err(err(format!(
                    "{line:?} has no `at COUNT`; a source the run starts with \
                     is a --source SPEC,name=NAME"
                )))
            }
            _ => return Err(unrecognized()),
        };
        let action = match *rest {
            ["attach", name, spec] => ScriptAction::Attach(Box::new(
                parse_source_spec("attach", spec, Some(name), 0, fallback_scale, weighted)
                    .map_err(err)?,
            )),
            ["detach", name] => ScriptAction::Detach(name.to_string()),
            ["drain"] => ScriptAction::Drain,
            _ => return Err(unrecognized()),
        };
        steps.push(ScriptStep {
            line_no,
            after,
            action,
        });
    }
    // Stable by count: same-count steps fire in script order.
    steps.sort_by_key(|s| s.after);
    Ok(steps)
}

/// The session's one count of emitted reads — read or failed alike — and
/// the script steps it fires. Every source's sink feeds it, those of
/// attached sources included, so each step sees the whole session.
struct ScriptDriver {
    emitted: usize,
    steps: VecDeque<ScriptStep>,
    control: SessionControl,
    setup: SourceSetup,
    /// Sources opened so far: the next attach's index.
    opened: usize,
    /// Width of the source-name column in per-read lines.
    name_width: usize,
    attaches: Vec<(String, PendingAttach)>,
    detaches: Vec<(String, PendingDetach)>,
    /// Error handles of every GSC container source, checked after the run.
    statuses: Vec<(String, GscStatus)>,
    /// Failures raised by fired steps (e.g. a container that would not
    /// open), reported after the run.
    errors: Vec<String>,
}

type Driver = Arc<Mutex<ScriptDriver>>;

/// Counts one emitted read and fires every step that has come due. Runs on
/// the session's emitting thread; the fired attach/detach/drain calls only
/// enqueue control commands, so nothing here blocks on the session.
fn count_emitted(driver: &Driver) {
    let mut d = driver.lock().expect("script driver poisoned");
    d.emitted += 1;
    while d.steps.front().is_some_and(|s| s.after <= d.emitted) {
        let step = d.steps.pop_front().expect("front checked");
        fire(&mut d, driver, step);
    }
}

fn fire(d: &mut ScriptDriver, driver: &Driver, step: ScriptStep) {
    let at = format!("  [script] at {} reads:", step.after);
    match step.action {
        ScriptAction::Attach(spec) => {
            let index = d.opened;
            d.opened += 1;
            let input = match d.setup.open(&spec, index, 0) {
                Ok(opened) => opened,
                Err(e) => {
                    println!("{at} attach {:?} failed: {e}", spec.name);
                    d.errors.push(format!("attach {:?}: {e}", spec.name));
                    return;
                }
            };
            println!(
                "{at} attach {:?} ({}, {} reads)",
                spec.name, input.desc, input.expected
            );
            let sink = source_sink(&spec.name, d.name_width, input.expected, driver);
            let attach = AttachSpec::new()
                .config(input.config)
                .weight(spec.weight)
                .sink(sink);
            d.statuses
                .extend(input.status.map(|status| (spec.name.clone(), status)));
            let handle = d
                .control
                .attach_with(spec.name.as_str(), input.source, attach);
            d.attaches.push((spec.name, handle));
        }
        ScriptAction::Detach(name) => {
            println!("{at} detach {name:?}");
            let handle = d.control.detach(name.as_str());
            d.detaches.push((name, handle));
        }
        ScriptAction::Drain => {
            println!("{at} drain");
            d.control.drain();
        }
    }
}

/// The sink every source gets, registered or attached: it reports the
/// source's failed reads and progress, and counts each emitted read toward
/// the script's steps.
fn source_sink(
    name: &str,
    name_width: usize,
    expected: usize,
    driver: &Driver,
) -> impl FnMut(StreamEvent) + Send + 'static {
    let name = name.to_string();
    let driver = Arc::clone(driver);
    move |event| match event {
        StreamEvent::Failed { read_id, fault } => {
            eprintln!("  [{name:<name_width$}] read {read_id} failed: {fault}");
            count_emitted(&driver);
        }
        StreamEvent::Progress(p) => println!(
            "  [{name:<name_width$} {:>5}/{expected} reads]  mapped {:>5}  \
             rejected {:>5}  qc-filtered {:>4}  unmapped {:>4}  \
             ({} samples basecalled)",
            p.reads_emitted,
            p.mapped,
            p.rejected_qsr + p.rejected_cmr,
            p.filtered_qc,
            p.unmapped,
            p.samples_basecalled
        ),
        StreamEvent::Read(_) => count_emitted(&driver),
    }
}

/// One registered source's FASTQ writer.
type FastqOut = RefCell<FastqSink<BufWriter<File>>>;

/// The FASTQ writer of every registered source: a single source writes
/// `path` verbatim, several write `<path>.<name>` each. A resumed run
/// truncates each file back to its checkpointed (flushed) byte size and
/// appends, so the final file is byte-identical to an uninterrupted run's.
fn open_fastq_sinks(
    path: &str,
    specs: &[SourceSpec],
    resume: Option<&CheckpointFile>,
) -> Result<Vec<(String, FastqOut)>, String> {
    let mut sinks = Vec::with_capacity(specs.len());
    for spec in specs {
        let path = if specs.len() == 1 {
            path.to_string()
        } else {
            format!("{path}.{}", spec.name)
        };
        let file = match resume {
            None => File::create(&path).map_err(|e| format!("--fastq-out {path}: {e}"))?,
            Some(ckpt) => {
                let bytes = ckpt.fastq_for(&spec.name).map(|m| m.bytes).unwrap_or(0);
                // Keep the file's prefix: resume truncates to the
                // checkpointed byte position, not to zero.
                let mut file = OpenOptions::new()
                    .read(true)
                    .write(true)
                    .create(true)
                    .truncate(false)
                    .open(&path)
                    .map_err(|e| format!("--fastq-out {path}: {e}"))?;
                file.set_len(bytes)
                    .map_err(|e| format!("--fastq-out {path}: {e}"))?;
                file.seek(SeekFrom::Start(bytes))
                    .map_err(|e| format!("--fastq-out {path}: {e}"))?;
                file
            }
        };
        sinks.push((path, RefCell::new(FastqSink::new(BufWriter::new(file)))));
    }
    Ok(sinks)
}

fn cmd_run(parsed: &Parsed) -> Result<(), String> {
    let er = er_from(parsed)?;
    let queue = positive_from(parsed, "queue", 8)?;
    let max_sources = positive_from(parsed, "max-sources", 64)?;
    let progress = usize_from(parsed, "progress", 50)?;
    let (mut fault_policy, explicit_fault) = fault_policy_from(parsed)?;
    let inject_rate = inject_rate_from(parsed)?;
    // Injected faults with the default Fail policy would tear the session
    // down with a panic. Quarantine instead so the run completes and prints
    // its per-source fault summary — but still exit nonzero, because the
    // containment was not explicitly requested (see `fault_exit`).
    if inject_rate > 0.0 && !explicit_fault {
        fault_policy = FaultPolicy::Quarantine;
    }
    let parallelism = parallelism_from(parsed)?;
    let schedule = schedule_from(parsed)?;
    let weighted = matches!(schedule, Schedule::Priority(_));
    let fallback_scale = scale_from(parsed, 0.1)?;
    let specs = source_specs_from(parsed, fallback_scale, weighted)?;
    let schedule = with_weights(schedule, &specs);
    let extra_references = opt_all(parsed, "reference")
        .iter()
        .enumerate()
        .map(|(i, text)| parse_reference_spec(text, i))
        .collect::<Result<Vec<_>, _>>()?;
    let steps = match opt(parsed, "script") {
        None => Vec::new(),
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("--script {path}: {e}"))?;
            parse_script(&text, fallback_scale, weighted)?
        }
    };

    // Checkpoint/resume plumbing. A checkpoint records, per source, how
    // many reads were delivered in order (the index to reseek a container
    // to) and, with --fastq-out, the flushed byte size of every output
    // file (the length to truncate back to before appending).
    let checkpoint_path = opt(parsed, "checkpoint").map(str::to_string);
    let checkpoint_every = positive_from(parsed, "checkpoint-every", 25)?;
    if checkpoint_path.is_none() && opt(parsed, "checkpoint-every").is_some() {
        return Err("--checkpoint-every applies only with --checkpoint".into());
    }
    let fastq_out = opt(parsed, "fastq-out");
    let resume_path = opt(parsed, "resume");
    // Both cover the sources the run starts with only: a FASTQ file is
    // opened per registered source, and a checkpoint resumes those.
    if steps
        .iter()
        .any(|s| matches!(s.action, ScriptAction::Attach(_)))
    {
        for (flag, given) in [("--fastq-out", fastq_out), ("--resume", resume_path)] {
            if given.is_some() {
                return Err(format!(
                    "script `attach` steps cannot be combined with {flag}, which \
                     covers only the sources the run starts with"
                ));
            }
        }
    }
    let resume = match resume_path {
        None => None,
        Some(_)
            if specs
                .iter()
                .any(|s| matches!(s.kind, SourceKind::Simulated(_))) =>
        {
            return Err("--resume needs every source to be a seekable file= container".into())
        }
        Some(path) => {
            Some(CheckpointFile::load(path).map_err(|e| format!("--resume {path}: {e}"))?)
        }
    };
    // What each source already delivered before this process started.
    let mut base_marks: Vec<(u64, u64)> = Vec::with_capacity(specs.len());
    for spec in &specs {
        match &resume {
            None => base_marks.push((0, 0)),
            Some(ckpt) => {
                let mark = ckpt
                    .source(&spec.name)
                    .ok_or_else(|| format!("checkpoint has no entry for source {:?}", spec.name))?;
                base_marks.push((mark.emitted, mark.failed));
            }
        }
    }
    // The FASTQ outputs exist, and the checkpoint path is known to be
    // writable, before any banner or work, so a bad --fastq-out or
    // --checkpoint fails at once.
    let fastq_sinks = match fastq_out {
        None => Vec::new(),
        Some(path) => open_fastq_sinks(path, &specs, resume.as_ref())?,
    };
    if let Some(path) = &checkpoint_path {
        CheckpointFile::check_writable(path).map_err(|e| format!("--checkpoint {path}: {e}"))?;
    }
    if let (Some(path), Some(ckpt)) = (resume_path, &resume) {
        // `complete` marks a finalized cut (the prior session wound down
        // cleanly, e.g. after a drain); a mid-run cut means the run was
        // killed between checkpoints. Both resume the same way.
        let cut = if ckpt.complete {
            "finalized"
        } else {
            "mid-run"
        };
        println!("resuming from {path} ({cut} cut)");
        for ((fastq, _), spec) in fastq_sinks.iter().zip(&specs) {
            let bytes = ckpt.fastq_for(&spec.name).map_or(0, |m| m.bytes);
            println!("  resuming {fastq} at byte {bytes}");
        }
    }

    // Every source runs its own operating point (N_qs, N_cm follow its
    // profile, or a container's embedded reference name) via a per-source
    // config; the session-wide config (first source's) only contributes
    // transport-level knobs like parallelism. Open every source up front:
    // the session needs the handles, and a bad file should fail the
    // invocation before the session banner.
    let setup = SourceSetup {
        parallelism,
        keep_bases: fastq_out.is_some(),
        fault_policy,
        extra_references,
        inject_rate,
    };
    let mut opened = Vec::with_capacity(specs.len());
    for (i, (spec, &(base_emitted, _))) in specs.iter().zip(&base_marks).enumerate() {
        opened.push(setup.open(spec, i, base_emitted as usize)?);
    }
    let config = opened[0].config.clone();
    if opened
        .iter()
        .any(|o| (o.config.n_qs, o.config.n_cm) != (config.n_qs, config.n_cm))
    {
        eprintln!(
            "note: mixed profiles in one session — each source runs its own \
             early-rejection operating point (N_qs, N_cm)"
        );
    }

    println!(
        "session: GenPIP ({er:?}), {} source(s) under {schedule:?}, \
         {} worker(s), queue {queue}",
        specs.len(),
        parallelism.workers(),
    );
    if !setup.extra_references.is_empty() {
        let names: Vec<&str> = setup.extra_references.iter().map(|g| g.name()).collect();
        println!(
            "pan-genome: every source also maps against {}",
            names.join(" + ")
        );
    }
    if !steps.is_empty() {
        println!("script: {} step(s)", steps.len());
    }
    let control = SessionControl::new();
    let attached_names = steps.iter().filter_map(|s| match &s.action {
        ScriptAction::Attach(spec) => Some(spec.name.len()),
        _ => None,
    });
    let name_width = specs
        .iter()
        .map(|s| s.name.len())
        .chain(attached_names)
        .max()
        .unwrap_or(0);
    let statuses = specs
        .iter()
        .zip(&opened)
        .filter_map(|(spec, o)| Some((spec.name.clone(), o.status.clone()?)))
        .collect();
    let driver: Driver = Arc::new(Mutex::new(ScriptDriver {
        emitted: 0,
        steps: steps.into(),
        control: control.clone(),
        setup,
        opened: specs.len(),
        name_width,
        attaches: Vec::new(),
        detaches: Vec::new(),
        statuses,
        errors: Vec::new(),
    }));
    let mut session = Session::new(config)
        .flow(Flow::GenPip(er))
        .schedule(schedule)
        .options(StreamOptions {
            queue_capacity: queue,
            max_sources,
            progress_every: progress,
        });
    for (i, (spec, input)) in specs.iter().zip(opened).enumerate() {
        println!(
            "  source {:<name_width$}  {} reads ({}{})",
            spec.name,
            input.expected,
            input.desc,
            weight_note(weighted, spec),
        );
        let mut sink = source_sink(&spec.name, name_width, input.expected, &driver);
        let fastq = fastq_sinks.get(i).map(|(_, fastq)| fastq);
        let name = spec.name.clone();
        let control = control.clone();
        session = session.source_with_config(spec.name.as_str(), input.source, input.config);
        session = session.sink(spec.name.as_str(), move |event| {
            // A FASTQ writer gone sticky-bad drains the session: an
            // unwritable output becomes a graceful wind-down instead of a
            // torrent of dropped records.
            if let Some(fastq) = fastq {
                fastq.borrow_mut().handle(&event);
                if fastq.borrow().has_error() && !control.is_draining() {
                    eprintln!("  [{name}] FASTQ writer failed — draining session");
                    control.drain();
                }
            }
            sink(event);
        });
    }
    // The checkpoint sink runs on the emitting thread between in-order
    // emissions, after every per-source sink has seen its events — so
    // flushing the FASTQ writers here yields byte offsets exactly
    // consistent with the recorded read counts.
    let ckpt_error: Rc<RefCell<Option<String>>> = Rc::new(RefCell::new(None));
    if let Some(path) = checkpoint_path {
        let names: Vec<String> = specs.iter().map(|s| s.name.clone()).collect();
        let fastq_sinks = &fastq_sinks;
        let ckpt_error = Rc::clone(&ckpt_error);
        session = session.checkpoint(checkpoint_every, move |cut| {
            if ckpt_error.borrow().is_some() {
                return;
            }
            let write = || -> Result<(), String> {
                let mut file = CheckpointFile {
                    complete: cut.complete,
                    ..CheckpointFile::default()
                };
                for sc in &cut.sources {
                    let (base_emitted, base_failed) = names
                        .iter()
                        .position(|n| n == sc.id.as_str())
                        .map(|i| base_marks[i])
                        .unwrap_or((0, 0));
                    file.sources.push(SourceMark {
                        name: sc.id.as_str().to_string(),
                        emitted: base_emitted + sc.outcomes.reads_emitted as u64,
                        failed: base_failed + sc.outcomes.failed as u64,
                    });
                }
                for (name, (_, sink)) in names.iter().zip(fastq_sinks) {
                    let bytes = sink.borrow_mut().position().map_err(|e| e.to_string())?;
                    file.fastq.push(FastqMark {
                        source: name.clone(),
                        bytes,
                    });
                }
                file.write_atomic(&path).map_err(|e| format!("{path}: {e}"))
            };
            if let Err(e) = write() {
                eprintln!("  checkpoint write failed: {e}");
                *ckpt_error.borrow_mut() = Some(e);
            }
        });
    }
    let report = session
        .run_with_control(&control)
        .map_err(|e| e.to_string())?;

    for (path, sink) in fastq_sinks {
        let sink = sink.into_inner();
        let skipped = sink.skipped();
        let (written, _) = sink.finish().map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {written} FASTQ records to {path} ({skipped} rejected reads skipped)");
    }
    let mut failures = script_failures(&driver);
    failures.extend(
        ckpt_error
            .borrow_mut()
            .take()
            .map(|e| format!("checkpoint write failed: {e}")),
    );
    print_report(&report, name_width);
    if failures.is_empty() {
        fault_exit(
            report.outcomes.failed,
            explicit_fault && fault_policy != FaultPolicy::Fail,
        )
    } else {
        Err(failures.join("; "))
    }
}

/// Everything the script and the sources left to report once the session
/// has finished: steps that never fired or failed, refused attaches and
/// detaches, and container errors. Prints each detached source's summary.
fn script_failures(driver: &Driver) -> Vec<String> {
    let mut d = driver.lock().expect("script driver poisoned");
    let emitted = d.emitted;
    let mut failures: Vec<String> = d
        .steps
        .iter()
        .map(|s| {
            format!(
                "script step never fired (line {}: at {}) — only {emitted} reads emitted",
                s.line_no, s.after
            )
        })
        .collect();
    failures.append(&mut d.errors);
    // The session has finished, so every handle resolves without blocking.
    for (name, handle) in d.attaches.drain(..) {
        if let Err(e) = handle.wait() {
            failures.push(format!("attach {name:?} refused: {e}"));
        }
    }
    for (name, handle) in d.detaches.drain(..) {
        match handle.wait() {
            Ok(summary) => println!(
                "  detached {name:?}: {} reads emitted",
                summary.outcomes.reads_emitted
            ),
            Err(e) => failures.push(format!("detach {name:?} refused: {e}")),
        }
    }
    failures.extend(container_errors(&d.statuses));
    failures
}

/// A container error (corruption, truncation, a failed read) ended its
/// source early; the session completed, but the invocation must not claim
/// success. One message per such source.
fn container_errors(statuses: &[(String, GscStatus)]) -> Vec<String> {
    statuses
        .iter()
        .filter_map(|(name, status)| status.error().map(|e| format!("source {name:?}: {e}")))
        .collect()
}

/// The per-source table and the session's totals.
fn print_report(report: &SessionReport, name_width: usize) {
    for source in &report.sources {
        let o = source.summary.outcomes;
        println!(
            "source {:<name_width$}  reads {:>5}  mapped {:>5}  QSR {:>4}  CMR {:>4}  \
             QC {:>4}  unmapped {:>4}  peak in-flight {}",
            source.id,
            o.reads_emitted,
            o.mapped,
            o.rejected_qsr,
            o.rejected_cmr,
            o.filtered_qc,
            o.unmapped,
            source.summary.max_in_flight,
        );
    }
    let o = report.outcomes;
    println!("reads:          {}", o.reads_emitted);
    println!("mapped:         {}", o.mapped);
    println!("QSR-rejected:   {}", o.rejected_qsr);
    println!("CMR-rejected:   {}", o.rejected_cmr);
    println!("QC-filtered:    {}", o.filtered_qc);
    println!("unmapped:       {}", o.unmapped);
    println!(
        "peak in-flight: {} resident reads across all sources (bound: {})",
        report.max_in_flight, report.in_flight_limit
    );
    let totals = &report.totals;
    let input_samples = totals.raw_bytes / BYTES_PER_SAMPLE;
    println!(
        "basecalled:     {} of {input_samples} samples ({:.1}% saved), {} bases",
        totals.samples,
        100.0 * (1.0 - totals.samples as f64 / input_samples.max(1) as f64),
        totals.bases_called
    );
    if o.failed > 0 {
        let per_source: Vec<String> = report
            .sources
            .iter()
            .filter(|s| s.summary.outcomes.failed > 0)
            .map(|s| format!("{}: {} failed", s.id, s.summary.outcomes.failed))
            .collect();
        println!(
            "faults:         {} read(s) failed [{}]",
            o.failed,
            per_source.join("; ")
        );
    }
}

fn cmd_experiment(parsed: &Parsed) -> Result<(), String> {
    let which = parsed
        .1
        .first()
        .ok_or("experiment needs a name (e.g. fig10)")?;
    let scale = scale_from(parsed, 1.0)?;
    match which.as_str() {
        "fig04" => println!("{}", experiments::fig04::run(scale)),
        "fig07" => println!("{}", experiments::fig07::run(scale)),
        "fig10" => println!("{}", experiments::fig10::run(scale)),
        "fig11" => println!("{}", experiments::fig11::run(scale)),
        "fig12" => println!("{}", experiments::fig12::run(scale)),
        "fig13" => println!("{}", experiments::fig13::run(scale)),
        "tab01" => println!("{}", experiments::tab01::run(scale)),
        "tab02" => println!("{}", experiments::tab02::run()),
        "useless" => println!("{}", experiments::useless::run(scale)),
        "ablations" => println!("{}", experiments::ablations::run(scale)),
        other => return Err(format!("unknown experiment {other:?}")),
    }
    Ok(())
}
