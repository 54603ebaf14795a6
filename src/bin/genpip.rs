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
//! * `run` — execute the full GenPIP pipeline on a synthetic dataset and
//!   print the outcome/workload summary;
//! * `stream` — the same pipeline executed by the `Session` engine: one
//!   bounded-memory worker pool serving one or many read sources (repeated
//!   `--source` specs) under a `--schedule` policy, with per-source
//!   progress and summaries. The datasets are never materialized, and at
//!   most `--queue` + workers reads are in memory across all sources;
//! * `serve` — a *live* session driven by a script: sources attach and
//!   detach while the session runs, exercising the control plane
//!   (`SessionControl::attach`/`detach`/`drain`) without a network
//!   listener. Script steps fire after a given number of emitted reads;
//!   `attach NAME file=PATH` replays an on-disk GSC container;
//! * `pack` — export a simulated dataset into an on-disk GSC raw-signal
//!   container, optionally verifying the round-trip bit-for-bit;
//! * `inspect` — dump a GSC container's header, layout, and (optionally)
//!   per-read records, verifying checksums on request;
//! * `experiment` — regenerate one of the paper's figures/tables.

use genpip::core::engine::{
    AttachSpec, Flow, PendingAttach, PendingDetach, Session, SessionControl,
};
use genpip::core::experiments;
use genpip::core::pipeline::{ErMode, PipelineRun, ReadOutcome};
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
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::fs::{File, OpenOptions};
use std::io::{BufReader, BufWriter, Seek, SeekFrom};
use std::process::ExitCode;
use std::rc::Rc;
use std::sync::{Arc, Mutex};

/// One subcommand: its name, the options it accepts and how many
/// positional arguments it takes (anything else is an error, never a
/// silently ignored typo), and its entry point.
type Command = (
    &'static str,
    &'static [&'static str],
    usize,
    fn(&Parsed) -> Result<(), String>,
);

const COMMANDS: &[Command] = &[
    ("simulate", &["profile", "scale", "out"], 0, cmd_simulate),
    ("map", &["reference", "reads", "paf"], 0, cmd_map),
    (
        "run",
        &["profile", "scale", "er", "on-fault", "reference"],
        0,
        cmd_run,
    ),
    (
        "stream",
        &[
            "profile",
            "scale",
            "er",
            "source",
            "signal-in",
            "schedule",
            "queue",
            "progress",
            "threads",
            "fastq-out",
            "on-fault",
            "inject-faults",
            "checkpoint",
            "checkpoint-every",
            "resume",
            "drain-after",
        ],
        0,
        cmd_stream,
    ),
    (
        "serve",
        &[
            "script",
            "scale",
            "er",
            "schedule",
            "queue",
            "threads",
            "max-sources",
        ],
        0,
        cmd_serve,
    ),
    ("pack", &["profile", "scale", "out", "verify"], 0, cmd_pack),
    ("inspect", &["reads", "verify"], 1, cmd_inspect),
    ("experiment", &["scale"], 1, cmd_experiment),
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
    let Some(&(_, accepted, positionals, run)) = COMMANDS.iter().find(|(name, ..)| name == command)
    else {
        eprintln!("error: unknown command {command:?}");
        return ExitCode::FAILURE;
    };
    let opts = match parse_options(command, accepted, positionals, rest) {
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

const USAGE: &str = "genpip — in-memory genome analysis (GenPIP reproduction)

USAGE:
  genpip simulate --profile <ecoli|human> [--scale F] --out <prefix>
  genpip map --reference <ref.fasta>... --reads <reads.fastq> [--paf <out.paf>]
  genpip run [--profile <ecoli|human>] [--scale F] [--er <full|qsr|cp|off>]
             [--on-fault <fail|quarantine>]
             [--reference SPEC]...
  genpip stream [--profile <ecoli|human>] [--scale F] [--er <full|qsr|cp|off>]
               [--source SPEC]... [--signal-in SPEC]...
               [--schedule <fair|sequential|priority>]
               [--queue N] [--progress N] [--threads <serial|auto|N>]
               [--fastq-out PATH]
               [--on-fault <fail|quarantine>] [--inject-faults RATE]
               [--checkpoint PATH] [--checkpoint-every N] [--resume PATH]
               [--drain-after N]
  genpip pack [--profile <ecoli|human>] [--scale F] --out <file.gsc> [--verify]
  genpip inspect <file.gsc> [--reads N] [--verify]
  genpip serve --script <FILE> [--scale F] [--er <full|qsr|cp|off>]
               [--schedule <fair|sequential|priority>]
               [--queue N] [--threads <serial|auto|N>] [--max-sources N]
  genpip experiment <fig04|fig07|fig10|fig11|fig12|fig13|tab01|tab02|useless|ablations> [--scale F]

Each subcommand accepts only the options listed for it above; anything
else is an error, and so is a bare argument where none is listed (only
`inspect` and `experiment` take one) or a second occurrence of any option
but --source, --signal-in and --reference.

OPTIONS:
  --profile   dataset profile (default ecoli)
  --scale     dataset scale factor in (0,1] (default 0.1 for simulate/run/stream,
              1.0 for experiment; for `serve`, the default scale of scripted
              profile= sources, 0.05)
  --er        early-rejection mode for `run`/`stream` (default full)
  --out       output file prefix for `simulate`
  --paf       PAF output path for `map` (default: stdout)
  --reference for `map`: a reference FASTA, repeatable — several files form
              a pan-genome panel; each read maps against every reference and
              the deterministic best hit (chain score, then reference name,
              then position) names its reference in the PAF target column.
              For `run`: an extra synthetic reference mapped alongside the
              profile's own, repeatable. SPEC is comma-joined key=value
              pairs: len=N (required), name=ID (default refN), seed=S
  --source    one read source for `stream`, repeatable. SPEC is comma-joined
              key=value pairs, the same grammar a `serve` script's attach
              steps use: profile=<ecoli|human>[,scale=F] (simulated; scale
              defaults to --scale) or file=PATH[,offset=K] (an on-disk GSC
              container replayed from read index K) — scale= on a file
              source or offset= on a profile one is an error — then name=ID
              (default: profileN, or the file stem), weight=N (the
              source's share of pulls under --schedule priority, default
              1; an error under any other schedule).
              Without --source or --signal-in, one source is built from
              --profile/--scale; with either, --profile is an error.
  --signal-in one on-disk GSC signal container streamed as a read source,
              repeatable (after every --source): PATH[,key=value]... is
              --source file=PATH[,key=value]... Output is bit-identical to
              streaming the same dataset from memory
  --checkpoint
              `stream` writes a resumable checkpoint to PATH (atomically,
              via rename) every --checkpoint-every reads and once more when
              the session finishes. Checkpoints record per-source read
              offsets and, with --fastq-out, the flushed FASTQ byte
              position of every output file
  --checkpoint-every
              checkpoint cadence in emitted reads (default 25); an error
              without --checkpoint
  --resume    restart a `stream` run from a checkpoint written by
              --checkpoint. Sources must be --signal-in containers (file
              sources are seekable; simulated ones are not); FASTQ outputs
              are truncated to the recorded byte position and appended to,
              so the resumed file is byte-identical to an uninterrupted run
  --drain-after
              drain the session (stop intake, finish in-flight reads) once
              N >= 1 reads have been emitted — a deterministic stand-in for an
              interrupted run when testing --checkpoint/--resume
  --schedule  how `stream` interleaves its sources over the one worker
              pool: fair (round-robin, default), sequential (drain in
              registration order), priority (weighted by each source's
              weight= — the way to favour a source: it is pulled more
              often, at the expense of the others' latency)
  --queue     `stream` work-queue capacity; resident reads across
              all sources <= queue + workers (default 8)
  --fastq-out write every fully-basecalled read as FASTQ. One source
              writes PATH verbatim; N sources write PATH.<name> each
  --progress  `stream` per-source progress line cadence in reads (default 50, 0 = off)
  --threads   `stream` worker threads (default: GENPIP_PARALLELISM env or auto)
  --on-fault  what a faulting read does to the run (default fail):
              fail aborts the process, quarantine contains the read
              (it is reported with the chunk it faulted at) and keeps
              going. There is no retry: a read is a pure function of its
              signal, so a second attempt faults again. Exit code is nonzero
              when reads failed unless quarantine was requested explicitly
  --inject-faults
              corrupt this fraction of reads in every `stream` source
              (deterministic, seeded) — a fault-tolerance testing aid.
              Implies quarantine when --on-fault is not given
  --out       for `pack`: the GSC container path to write
  --verify    for `pack`: re-open the container after writing, check every
              checksum, and compare each decoded read bit-for-bit against a
              fresh simulation of the profile. For `inspect`: check every
              record checksum
  --reads     for `inspect`: also dump the first N per-read records
  --script    `serve` driver script, one step per line (# starts a comment):
                attach NAME SPEC        (a --source SPEC without name=)
                at COUNT attach NAME SPEC
                at COUNT detach NAME
                at COUNT drain
              Steps without `at` register before the run; `at COUNT` steps
              fire through the live control plane once COUNT reads have
              been emitted across all sources
  --max-sources
              `serve` admission bound: a live attach beyond this many
              concurrently-attached sources is refused (default 64)";

/// Parsed command line: repeatable options keep every occurrence in order;
/// every other option holds exactly one value.
type Options = HashMap<String, Vec<String>>;

/// Options that are bare flags: present or absent, never consuming a value.
const FLAG_OPTIONS: &[&str] = &["verify"];

/// Options that may be given more than once; a repeat of any other is an
/// error, like a key given twice inside a spec.
const REPEATABLE_OPTIONS: &[&str] = &["source", "signal-in", "reference"];

fn parse_options(
    command: &str,
    accepted: &[&str],
    max_positional: usize,
    args: &[String],
) -> Result<Parsed, String> {
    let mut opts: Options = HashMap::new();
    let mut positional = Vec::new();
    let mut it = args.iter();
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
        } else if positional.len() == max_positional {
            return Err(format!("unexpected argument {arg:?} for '{command}'"));
        } else {
            positional.push(arg.clone());
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
    let profile = profile_by_name(opt(parsed, "profile").unwrap_or("ecoli"))?;
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
    println!(
        "simulating {} ({} reads, {} bp genome)…",
        profile.name, profile.n_reads, profile.genome_len
    );
    let dataset = profile.generate();
    let reads = experiments::tab01::basecall_dataset(&dataset);

    let fasta_path = format!("{prefix}.fasta");
    let fastq_path = format!("{prefix}.fastq");
    let fasta = File::create(&fasta_path).map_err(|e| e.to_string())?;
    fastx::write_fasta(BufWriter::new(fasta), &dataset.reference).map_err(|e| e.to_string())?;
    let fastq = File::create(&fastq_path).map_err(|e| e.to_string())?;
    fastx::write_fastq(BufWriter::new(fastq), &reads).map_err(|e| e.to_string())?;
    println!(
        "wrote {fasta_path} (reference) and {fastq_path} ({} basecalled reads)",
        reads.len()
    );
    Ok(())
}

fn cmd_pack(parsed: &Parsed) -> Result<(), String> {
    let profile = profile_from(parsed)?;
    let out = opt(parsed, "out").ok_or("pack needs --out <file.gsc>")?;
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
    let path = parsed
        .1
        .first()
        .ok_or("inspect needs a container path (genpip inspect <file.gsc>)")?;
    let mut reader = GscReader::open(path).map_err(|e| format!("{path}: {e}"))?;
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
    let dump = usize_from(parsed, "reads", 0)?;
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
    let mut genomes = Vec::with_capacity(reference_paths.len());
    for path in reference_paths {
        let genome = fastx::read_fasta(BufReader::new(
            File::open(path).map_err(|e| format!("{path}: {e}"))?,
        ))
        .map_err(|e| e.to_string())?;
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
        File::open(reads_path).map_err(|e| format!("{reads_path}: {e}"))?,
    ))
    .map_err(|e| e.to_string())?;
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
    match opt(parsed, "paf") {
        Some(path) => {
            let f = File::create(path).map_err(|e| e.to_string())?;
            write_paf(BufWriter::new(f), &records).map_err(|e| e.to_string())?;
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

/// Nonzero-exit rule shared by `run` and `stream`: failed reads fail the
/// invocation unless containment was explicitly requested.
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
        "cp" | "off" | "none" => Ok(ErMode::None),
        other => Err(format!("unknown --er {other:?}")),
    }
}

/// A comma-joined `key=value` spec — the one grammar behind `--reference`,
/// `--source`, `--signal-in` and the `attach` steps of a `serve` script.
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
/// reference mapped alongside the profile's own.
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

/// The `run` pan-genome panel. Names must be unique across the profile's
/// own reference (`own`) and every `--reference`, as per-reference
/// attribution keys results by name.
fn extra_references_from(parsed: &Parsed, own: &str) -> Result<Vec<Arc<Genome>>, String> {
    let mut panel: Vec<Arc<Genome>> = Vec::new();
    for (i, spec) in opt_all(parsed, "reference").iter().enumerate() {
        let genome = parse_reference_spec(spec, i)?;
        if genome.name() == own || panel.iter().any(|g| g.name() == genome.name()) {
            return Err(format!(
                "duplicate reference name {:?} in the pan-genome panel",
                genome.name()
            ));
        }
        panel.push(genome);
    }
    Ok(panel)
}

fn cmd_run(parsed: &Parsed) -> Result<(), String> {
    let profile = profile_from(parsed)?;
    let er = er_from(parsed)?;
    let (fault_policy, explicit_fault) = fault_policy_from(parsed)?;
    let extra_references = extra_references_from(parsed, profile.name)?;
    println!("running GenPIP ({:?}) on {}…", er, profile.name);
    if !extra_references.is_empty() {
        let names: Vec<&str> = extra_references.iter().map(|g| g.name()).collect();
        println!(
            "pan-genome: mapping against {} + {}",
            profile.name,
            names.join(" + ")
        );
    }
    let dataset = profile.generate();
    let config = GenPipConfig::for_dataset(&profile)
        .with_fault_policy(fault_policy)
        .with_extra_references(extra_references);
    let run = PipelineRun::collect(&dataset, &config, Flow::GenPip(er));
    let totals = run.totals();
    let count = |pred: fn(&ReadOutcome) -> bool| run.count_outcomes(pred);
    println!("reads:          {}", run.reads.len());
    println!(
        "mapped:         {}",
        count(|o| matches!(o, ReadOutcome::Mapped(_)))
    );
    println!(
        "QSR-rejected:   {}",
        count(|o| matches!(o, ReadOutcome::RejectedQsr { .. }))
    );
    println!(
        "CMR-rejected:   {}",
        count(|o| matches!(o, ReadOutcome::RejectedCmr { .. }))
    );
    println!(
        "QC-filtered:    {}",
        count(|o| matches!(o, ReadOutcome::FilteredQc { .. }))
    );
    println!(
        "unmapped:       {}",
        count(|o| matches!(o, ReadOutcome::Unmapped { .. }))
    );
    println!(
        "basecalled:     {} of {} samples ({:.1}% saved)",
        totals.samples,
        dataset.total_samples(),
        100.0 * (1.0 - totals.samples as f64 / dataset.total_samples() as f64)
    );
    // Under a containing policy, quarantined reads never reach `run.reads`.
    let failed = dataset.reads.len() - run.reads.len();
    if failed > 0 {
        println!("failed:         {failed} (quarantined)");
    }
    fault_exit(failed, explicit_fault && fault_policy != FaultPolicy::Fail)
}

/// Where a source's reads come from.
enum SourceKind {
    /// Simulated on the fly from a dataset profile (`profile=`).
    Simulated(DatasetProfile),
    /// Replayed from an on-disk GSC signal container (`file=`), starting at
    /// read index `offset`.
    Container { path: String, offset: usize },
}

/// One read source as the command line or a `serve` script spells it:
/// `profile=<ecoli|human>[,scale=F]` or `file=PATH[,offset=K]`, plus
/// `[,weight=N][,name=ID]`. `--signal-in PATH[,...]` is
/// `file=PATH[,...]`; a script's `attach NAME SPEC` names the source
/// itself, so its specs take no `name=`.
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

/// A source opened and ready to register or attach.
struct OpenedSource {
    source: Box<dyn ReadSource + Send>,
    /// The source's untuned operating point: `N_qs`/`N_cm` follow its
    /// profile, or a container's embedded reference name.
    config: GenPipConfig,
    /// Reads it will deliver.
    expected: usize,
    /// Banner description.
    desc: String,
    /// A container's error handle, checked after the run.
    status: Option<GscStatus>,
}

/// Opens a spec's read source; a container starts `resumed` reads past its
/// `offset=` (what a checkpointed run had already delivered).
fn open_source(spec: &SourceSpec, resumed: usize) -> Result<OpenedSource, String> {
    match &spec.kind {
        SourceKind::Simulated(profile) => Ok(OpenedSource {
            source: Box::new(StreamingSimulator::new(profile)),
            config: GenPipConfig::for_dataset(profile),
            expected: profile.n_reads,
            desc: format!("{}, {} bp genome", profile.name, profile.genome_len),
            status: None,
        }),
        SourceKind::Container { path, offset } => {
            let start = offset + resumed;
            let source = GscReadSource::open_at(path, start).map_err(|e| format!("{path}: {e}"))?;
            let reader = source.reader();
            Ok(OpenedSource {
                config: GenPipConfig::for_reference_name(reader.reference().name()),
                expected: reader.read_count().saturating_sub(start),
                desc: format!("{path}, reads {start}..{}", reader.read_count()),
                status: Some(source.status()),
                source: Box::new(source),
            })
        }
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
/// `--drain-after`, `--max-sources`), if the option was given.
fn positive_opt(parsed: &Parsed, key: &str) -> Result<Option<usize>, String> {
    match usize_opt(parsed, key)? {
        Some(0) => Err(format!("invalid --{key} \"0\" (must be at least 1)")),
        n => Ok(n),
    }
}

/// [`positive_opt`] with a default for the option left out.
fn positive_from(parsed: &Parsed, key: &str, default: usize) -> Result<usize, String> {
    Ok(positive_opt(parsed, key)?.unwrap_or(default))
}

fn parallelism_from(parsed: &Parsed) -> Result<Parallelism, String> {
    if let Some(s) = opt(parsed, "threads") {
        return Parallelism::parse(s).ok_or_else(|| format!("invalid --threads {s:?}"));
    }
    match std::env::var_os("GENPIP_PARALLELISM") {
        None => Ok(Parallelism::Auto),
        Some(s) => s
            .to_str()
            .and_then(Parallelism::parse)
            .ok_or_else(|| format!("invalid GENPIP_PARALLELISM {s:?}")),
    }
}

fn cmd_stream(parsed: &Parsed) -> Result<(), String> {
    let er = er_from(parsed)?;
    let queue = positive_from(parsed, "queue", 8)?;
    let progress = usize_from(parsed, "progress", 50)?;
    let (mut fault_policy, explicit_fault) = fault_policy_from(parsed)?;
    let inject_rate = match opt(parsed, "inject-faults") {
        None => 0.0,
        Some(s) => {
            let rate: f64 = s
                .parse()
                .map_err(|_| format!("invalid --inject-faults {s:?}"))?;
            if !(0.0..=1.0).contains(&rate) {
                return Err("--inject-faults must be in [0, 1]".into());
            }
            rate
        }
    };
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

    // Sources: repeated --source specs and --signal-in containers (a path,
    // then the same key=value pairs), or a single simulated one synthesized
    // from --profile/--scale for the classic one-run invocation.
    let fallback_scale = scale_from(parsed, 0.1)?;
    let mut texts: Vec<(&str, String)> = opt_all(parsed, "source")
        .iter()
        .map(|text| ("--source", text.clone()))
        .collect();
    for text in opt_all(parsed, "signal-in") {
        if text.is_empty() || text.split(',').next().is_some_and(|p| p.contains('=')) {
            return Err(format!(
                "--signal-in {text:?} must start with a container path"
            ));
        }
        texts.push(("--signal-in", format!("file={text}")));
    }
    if texts.is_empty() {
        let profile = opt(parsed, "profile").unwrap_or("ecoli");
        texts.push(("--profile", format!("profile={profile},name={profile}")));
    } else if opt(parsed, "profile").is_some() {
        return Err("--profile applies only without --source/--signal-in".into());
    }
    let mut specs: Vec<SourceSpec> = Vec::new();
    for (flag, text) in &texts {
        specs.push(parse_source_spec(
            flag,
            text,
            None,
            specs.len(),
            fallback_scale,
            weighted,
        )?);
    }
    // Session::run would reject duplicates too, but catching them here
    // keeps the error ahead of the session banner.
    for (i, spec) in specs.iter().enumerate() {
        if specs[..i].iter().any(|other| other.name == spec.name) {
            return Err(format!("duplicate source name {:?}", spec.name));
        }
    }
    let schedule = with_weights(schedule, &specs);

    // Checkpoint/resume plumbing. A checkpoint records, per source, how
    // many reads were delivered in order (the index to reseek a container
    // to) and, with --fastq-out, the flushed byte size of every output
    // file (the length to truncate back to before appending).
    let checkpoint_path = opt(parsed, "checkpoint").map(str::to_string);
    let checkpoint_every = positive_from(parsed, "checkpoint-every", 25)?;
    if checkpoint_path.is_none() && opt(parsed, "checkpoint-every").is_some() {
        return Err("--checkpoint-every applies only with --checkpoint".into());
    }
    let drain_after = positive_opt(parsed, "drain-after")?;
    let resume = match opt(parsed, "resume") {
        None => None,
        Some(path) => {
            let file = CheckpointFile::load(path).map_err(|e| format!("{path}: {e}"))?;
            // `complete` marks a finalized cut (the prior session wound
            // down cleanly, e.g. after a drain); a mid-run cut means the
            // run was killed between checkpoints. Both resume the same way.
            println!(
                "resuming from {path} ({} cut)",
                if file.complete {
                    "finalized"
                } else {
                    "mid-run"
                }
            );
            Some(file)
        }
    };
    if resume.is_some()
        && specs
            .iter()
            .any(|s| matches!(s.kind, SourceKind::Simulated(_)))
    {
        return Err("--resume needs every source to be a seekable --signal-in container".into());
    }
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

    let fastq_out = opt(parsed, "fastq-out").map(str::to_string);
    // Every source runs its own operating point (N_qs, N_cm follow its
    // profile, or a container's embedded reference name) via a per-source
    // config; the session-wide config (first source's) only contributes
    // transport-level knobs like parallelism.
    let keep_bases = fastq_out.is_some();
    let source_config = |base: GenPipConfig| {
        base.with_parallelism(parallelism)
            .with_keep_bases(keep_bases)
            .with_fault_policy(fault_policy)
    };
    // Open every source up front: the session needs the handles, a
    // container's embedded reference name picks its operating point, and a
    // bad file should fail the invocation before the session banner.
    let mut opened = Vec::with_capacity(specs.len());
    for (spec, &(base_emitted, _)) in specs.iter().zip(&base_marks) {
        let mut source = open_source(spec, base_emitted as usize)?;
        source.config = source_config(source.config);
        opened.push(source);
    }
    let mut statuses: Vec<(String, GscStatus)> = Vec::new();
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
    let opts = StreamOptions {
        queue_capacity: queue,
        progress_every: progress,
        ..StreamOptions::default()
    };

    println!(
        "session: GenPIP ({er:?}), {} source(s) under {schedule:?}, \
         {} worker(s), queue {queue}",
        specs.len(),
        parallelism.workers(),
    );
    // One FASTQ writer per source: a single source writes --fastq-out
    // verbatim, several write `<path>.<name>` each. A resumed run truncates
    // each file back to its checkpointed (flushed) byte size and appends,
    // so the final file is byte-identical to an uninterrupted run's.
    let mut fastq_paths: Vec<Option<String>> = Vec::new();
    let mut fastq_sinks: Vec<Option<RefCell<FastqSink<BufWriter<File>>>>> = Vec::new();
    for spec in &specs {
        match &fastq_out {
            None => {
                fastq_paths.push(None);
                fastq_sinks.push(None);
            }
            Some(path) => {
                let path = if specs.len() == 1 {
                    path.clone()
                } else {
                    format!("{path}.{}", spec.name)
                };
                let file = match &resume {
                    None => File::create(&path).map_err(|e| format!("{path}: {e}"))?,
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
                            .map_err(|e| format!("{path}: {e}"))?;
                        file.set_len(bytes).map_err(|e| format!("{path}: {e}"))?;
                        file.seek(SeekFrom::Start(bytes))
                            .map_err(|e| format!("{path}: {e}"))?;
                        println!("  resuming {path} at byte {bytes}");
                        file
                    }
                };
                fastq_sinks.push(Some(RefCell::new(FastqSink::new(BufWriter::new(file)))));
                fastq_paths.push(Some(path));
            }
        }
    }
    let mut session = Session::new(config)
        .flow(Flow::GenPip(er))
        .schedule(schedule)
        .options(opts);
    // The drain switch: a sink whose FASTQ writer goes sticky-bad pulls it,
    // turning an unwritable output into a graceful wind-down instead of a
    // torrent of dropped records.
    let control = SessionControl::new();
    let emitted_total = Rc::new(Cell::new(0usize));
    let name_width = specs.iter().map(|s| s.name.len()).max().unwrap_or(0);
    for (i, ((spec, input), fastq)) in specs.iter().zip(opened).zip(&fastq_sinks).enumerate() {
        println!(
            "  source {:<name_width$}  {} reads ({}{})",
            spec.name,
            input.expected,
            input.desc,
            weight_note(weighted, spec),
        );
        let name = spec.name.clone();
        let fastq = fastq.as_ref();
        let control_for_sink = control.clone();
        let emitted_total = Rc::clone(&emitted_total);
        let source_expected = input.expected;
        statuses.extend(input.status.map(|status| (spec.name.clone(), status)));
        // Rate 0 makes the injector a transparent wrapper, so every source
        // goes through it.
        session = session.source_with_config(
            spec.name.as_str(),
            FaultInjector::new(input.source, inject_rate, 0x9E1F + i as u64),
            input.config,
        );
        session = session.sink(spec.name.as_str(), move |event| {
            if let Some(sink) = fastq {
                sink.borrow_mut().handle(&event);
                if sink.borrow().has_error() && !control_for_sink.is_draining() {
                    eprintln!("  [{name}] FASTQ writer failed — draining session");
                    control_for_sink.drain();
                }
            }
            match event {
                StreamEvent::Failed { read_id, fault } => {
                    eprintln!("  [{name:<name_width$}] read {read_id} failed: {fault}");
                    note_emitted(&emitted_total, drain_after, &control_for_sink);
                }
                StreamEvent::Progress(p) => {
                    println!(
                        "  [{name:<name_width$} {:>5}/{source_expected} reads]  mapped {:>5}  \
                         rejected {:>5}  qc-filtered {:>4}  unmapped {:>4}  \
                         ({} samples basecalled)",
                        p.reads_emitted,
                        p.mapped,
                        p.rejected_qsr + p.rejected_cmr,
                        p.filtered_qc,
                        p.unmapped,
                        p.samples_basecalled
                    );
                }
                StreamEvent::Read(_) => {
                    note_emitted(&emitted_total, drain_after, &control_for_sink);
                }
            }
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
        let base_marks = base_marks.clone();
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
                for (name, sink) in names.iter().zip(fastq_sinks) {
                    if let Some(sink) = sink {
                        let bytes = sink.borrow_mut().position().map_err(|e| e.to_string())?;
                        file.fastq.push(FastqMark {
                            source: name.clone(),
                            bytes,
                        });
                    }
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

    for (sink, path) in fastq_sinks.into_iter().zip(&fastq_paths) {
        let (Some(sink), Some(path)) = (sink, path) else {
            continue;
        };
        let sink = sink.into_inner();
        let skipped = sink.skipped();
        let (written, _) = sink.finish().map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {written} FASTQ records to {path} ({skipped} rejected reads skipped)");
    }

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
    println!(
        "basecalled:     {} samples across {} bases",
        report.totals.samples, report.totals.bases_called
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
    if let Some(e) = ckpt_error.borrow_mut().take() {
        return Err(format!("checkpoint write failed: {e}"));
    }
    let container_errors = container_errors(&statuses);
    if !container_errors.is_empty() {
        return Err(container_errors.join("; "));
    }
    fault_exit(
        o.failed,
        explicit_fault && fault_policy != FaultPolicy::Fail,
    )
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

/// Counts one emitted read toward `--drain-after`, draining the session
/// once the threshold is reached — a deterministic stand-in for killing a
/// run mid-flight when exercising `--checkpoint`/`--resume`.
fn note_emitted(count: &Cell<usize>, drain_after: Option<usize>, control: &SessionControl) {
    count.set(count.get() + 1);
    if drain_after == Some(count.get()) {
        eprintln!(
            "  draining session after {} emitted read(s) (--drain-after)",
            count.get()
        );
        control.drain();
    }
}

/// What a `serve` script step does when it fires.
enum ServeAction {
    Attach(Box<SourceSpec>),
    Detach(String),
    Drain,
}

/// One scripted step: fires once `after` reads have been emitted across all
/// sources. Steps written without `at` register before the run instead.
struct ScriptStep {
    line_no: usize,
    after: usize,
    action: ServeAction,
}

/// Parses a `serve` script into the sources registered before the run and
/// the steps fired through the live control plane.
fn parse_script(
    text: &str,
    fallback_scale: f64,
    weighted: bool,
) -> Result<(Vec<SourceSpec>, Vec<ScriptStep>), String> {
    let mut initial = Vec::new();
    let mut steps: Vec<ScriptStep> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let err = |msg: String| format!("script line {line_no}: {msg}");
        let words: Vec<&str> = line.split_whitespace().collect();
        let (after, rest) = if words[0] == "at" {
            let count = words
                .get(1)
                .and_then(|w| w.parse::<usize>().ok())
                .ok_or_else(|| err("`at` needs a read count".into()))?;
            (Some(count), &words[2..])
        } else {
            (None, &words[..])
        };
        let action = match *rest {
            ["attach", name, spec] => ServeAction::Attach(Box::new(
                parse_source_spec("attach", spec, Some(name), 0, fallback_scale, weighted)
                    .map_err(err)?,
            )),
            ["detach", name] => ServeAction::Detach(name.to_string()),
            ["drain"] => ServeAction::Drain,
            _ => {
                return Err(err(format!(
                    "unrecognized step {line:?} \
                     (use attach NAME SPEC, detach NAME, or drain)"
                )))
            }
        };
        match (after, action) {
            (None, ServeAction::Attach(spec)) => initial.push(*spec),
            (None, _) => return Err(err("detach and drain need `at COUNT`".into())),
            (Some(after), action) => steps.push(ScriptStep {
                line_no,
                after,
                action,
            }),
        }
    }
    if initial.is_empty() {
        return Err(
            "script has no initial `attach` step — a session needs at least one \
             source to start"
                .into(),
        );
    }
    // Stable by count: same-count steps fire in script order.
    steps.sort_by_key(|s| s.after);
    Ok((initial, steps))
}

/// The scripted session driver, shared by every sink. Sinks count emitted
/// reads and fire due steps; fired attaches install a sink that feeds the
/// same counter, so later steps see the whole session's emissions.
struct ServeDriver {
    emitted: usize,
    steps: VecDeque<ScriptStep>,
    control: SessionControl,
    parallelism: Parallelism,
    attaches: Vec<(String, PendingAttach)>,
    detaches: Vec<(String, PendingDetach)>,
    /// Error handles of every GSC container source, checked after the run.
    statuses: Vec<(String, GscStatus)>,
    /// Failures raised by fired steps (e.g. a container that would not
    /// open), reported after the run.
    errors: Vec<String>,
}

/// Counts one emitted read and fires every step that has come due. Runs on
/// the session's emitting thread; the fired attach/detach/drain calls only
/// enqueue control commands, so nothing here blocks on the session.
fn serve_note_read(driver: &Arc<Mutex<ServeDriver>>) {
    let mut d = driver.lock().expect("serve driver poisoned");
    d.emitted += 1;
    while d.steps.front().is_some_and(|s| s.after <= d.emitted) {
        let step = d.steps.pop_front().expect("front checked");
        serve_fire(&mut d, driver, step);
    }
}

fn serve_fire(d: &mut ServeDriver, driver: &Arc<Mutex<ServeDriver>>, step: ScriptStep) {
    match step.action {
        ServeAction::Attach(spec) => {
            let input = match open_source(&spec, 0) {
                Ok(opened) => opened,
                Err(e) => {
                    println!(
                        "  [script] at {} reads: attach {:?} failed: {e}",
                        step.after, spec.name
                    );
                    d.errors.push(format!("attach {:?}: {e}", spec.name));
                    return;
                }
            };
            println!(
                "  [script] at {} reads: attach {:?} ({}, {} reads)",
                step.after, spec.name, input.desc, input.expected
            );
            let config = input.config.with_parallelism(d.parallelism);
            let attach = AttachSpec::new().config(config).weight(spec.weight);
            let observer = Arc::clone(driver);
            let attach = attach.sink(move |event| {
                if let StreamEvent::Read(_) = event {
                    serve_note_read(&observer);
                }
            });
            d.statuses
                .extend(input.status.map(|status| (spec.name.clone(), status)));
            let handle = d
                .control
                .attach_with(spec.name.as_str(), input.source, attach);
            d.attaches.push((spec.name, handle));
        }
        ServeAction::Detach(name) => {
            println!("  [script] at {} reads: detach {name:?}", step.after);
            let handle = d.control.detach(name.as_str());
            d.detaches.push((name, handle));
        }
        ServeAction::Drain => {
            println!("  [script] at {} reads: drain", step.after);
            d.control.drain();
        }
    }
}

fn cmd_serve(parsed: &Parsed) -> Result<(), String> {
    let script_path = opt(parsed, "script").ok_or("serve needs --script <FILE>")?;
    let script = std::fs::read_to_string(script_path).map_err(|e| format!("{script_path}: {e}"))?;
    let er = er_from(parsed)?;
    let queue = positive_from(parsed, "queue", 8)?;
    let max_sources = positive_from(parsed, "max-sources", 64)?;
    let parallelism = parallelism_from(parsed)?;
    let fallback_scale = scale_from(parsed, 0.05)?;
    let schedule = schedule_from(parsed)?;
    let weighted = matches!(schedule, Schedule::Priority(_));
    let (initial, steps) = parse_script(&script, fallback_scale, weighted)?;
    let schedule = with_weights(schedule, &initial);

    println!(
        "serve: GenPIP ({er:?}) under {schedule:?}, {} worker(s), queue {queue}, \
         {} live step(s)",
        parallelism.workers(),
        steps.len(),
    );

    let control = SessionControl::new();
    let driver = Arc::new(Mutex::new(ServeDriver {
        emitted: 0,
        steps: steps.into(),
        control: control.clone(),
        parallelism,
        attaches: Vec::new(),
        detaches: Vec::new(),
        statuses: Vec::new(),
        errors: Vec::new(),
    }));

    // Open every initial source before the session starts: a bad container
    // in the script header should fail the invocation outright.
    let mut initial_inputs = Vec::with_capacity(initial.len());
    for spec in &initial {
        initial_inputs.push(open_source(spec, 0)?);
    }
    let first_config = initial_inputs[0]
        .config
        .clone()
        .with_parallelism(parallelism);
    let mut session = Session::new(first_config)
        .flow(Flow::GenPip(er))
        .schedule(schedule)
        .options(StreamOptions {
            queue_capacity: queue,
            max_sources,
            progress_every: 0,
        });
    for (spec, input) in initial.iter().zip(initial_inputs) {
        println!(
            "  source {:?}: {} reads ({}{})",
            spec.name,
            input.expected,
            input.desc,
            weight_note(weighted, spec),
        );
        let observer = Arc::clone(&driver);
        driver
            .lock()
            .expect("serve driver poisoned")
            .statuses
            .extend(input.status.map(|status| (spec.name.clone(), status)));
        session = session.source_with_config(
            spec.name.as_str(),
            input.source,
            input.config.with_parallelism(parallelism),
        );
        session = session.sink(spec.name.as_str(), move |event| {
            if let StreamEvent::Read(_) = event {
                serve_note_read(&observer);
            }
        });
    }
    let report = session
        .run_with_control(&control)
        .map_err(|e| e.to_string())?;

    let mut d = driver.lock().expect("serve driver poisoned");
    let emitted = d.emitted;
    let unfired: Vec<String> = d
        .steps
        .iter()
        .map(|s| format!("line {}: at {}", s.line_no, s.after))
        .collect();
    let attaches = std::mem::take(&mut d.attaches);
    let detaches = std::mem::take(&mut d.detaches);
    let statuses = std::mem::take(&mut d.statuses);
    let step_errors = std::mem::take(&mut d.errors);
    drop(d);

    // The session has finished, so every handle resolves without blocking.
    let mut failures = unfired
        .into_iter()
        .map(|step| format!("script step never fired ({step}) — only {emitted} reads emitted"))
        .collect::<Vec<_>>();
    failures.extend(step_errors);
    failures.extend(container_errors(&statuses));
    for (name, handle) in attaches {
        if let Err(e) = handle.wait() {
            failures.push(format!("attach {name:?} refused: {e}"));
        }
    }
    for (name, handle) in detaches {
        match handle.wait() {
            Ok(summary) => println!(
                "  detached {name:?}: {} reads emitted",
                summary.outcomes.reads_emitted
            ),
            Err(e) => failures.push(format!("detach {name:?} refused: {e}")),
        }
    }

    let name_width = report
        .sources
        .iter()
        .map(|s| s.id.as_str().len())
        .max()
        .unwrap_or(0);
    for source in &report.sources {
        let o = source.summary.outcomes;
        println!(
            "source {:<name_width$}  reads {:>5}  mapped {:>5}  rejected {:>4}  \
             QC {:>4}  unmapped {:>4}",
            source.id,
            o.reads_emitted,
            o.mapped,
            o.rejected_qsr + o.rejected_cmr,
            o.filtered_qc,
            o.unmapped,
        );
    }
    println!(
        "serve:          {} reads across {} source(s), peak in-flight {} (bound {})",
        report.outcomes.reads_emitted,
        report.sources.len(),
        report.max_in_flight,
        report.in_flight_limit
    );
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
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
