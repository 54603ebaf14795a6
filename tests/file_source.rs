//! Cross-crate properties of on-disk GSC signal containers: file-backed
//! streaming is bit-identical to in-memory streaming across ErMode ×
//! Parallelism, `open_at` yields exact suffixes (statically
//! and through a live attach), fault injection composes with file sources,
//! random byte flips are always detected (never a panic), a mid-run drain
//! still leaves parseable FASTQ behind, and the CLI's checkpoint →
//! drain → resume cycle reproduces an uninterrupted run's FASTQ
//! byte-for-byte — and refuses, touching nothing, a resume whose FASTQ
//! prefix the checkpoint never marked or the file has lost.
//!
//! The parallelism sweep includes `GENPIP_PARALLELISM` (when set), which CI
//! uses to force both threading paths through this suite.

use genpip::core::engine::{AttachSpec, Flow, Session, SessionControl};
use genpip::core::pipeline::{ErMode, ReadRun};
use genpip::core::stream::{FastqSink, StreamEvent};
use genpip::core::{FaultPolicy, GenPipConfig, Parallelism};
use genpip::datasets::{DatasetProfile, FaultInjector, ReadSource, StreamingSimulator};
use genpip::genomics::fastx;
use genpip::genomics::rng::{seeded, Rng};
use genpip::io::{pack_source, GscReadSource};
use std::cell::Cell;
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::PathBuf;
use std::process::Command;
use std::sync::{Arc, Mutex};

fn profile() -> DatasetProfile {
    DatasetProfile::ecoli().scaled(0.03)
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("genpip-file-source-{}-{tag}", std::process::id()))
}

/// Packs the test profile into a fresh GSC container and returns its path.
fn packed(tag: &str) -> PathBuf {
    let path = temp_path(tag);
    let mut source = StreamingSimulator::new(&profile());
    pack_source(&path, &mut source).expect("pack container");
    path
}

fn parallelism_sweep() -> Vec<Parallelism> {
    let mut sweep = vec![Parallelism::Serial, Parallelism::Threads(4)];
    if let Some(from_env) = Parallelism::from_env().unwrap() {
        if !sweep.contains(&from_env) {
            sweep.push(from_env);
        }
    }
    sweep
}

/// Runs one single-source session and collects the emitted reads.
fn collect_runs(source: impl ReadSource + Send, config: &GenPipConfig, er: ErMode) -> Vec<ReadRun> {
    let mut reads = Vec::new();
    Session::new(config.clone())
        .flow(Flow::GenPip(er))
        .source("s", source)
        .sink("s", |event| {
            if let StreamEvent::Read(run) = event {
                reads.push(run);
            }
        })
        .run()
        .expect("valid session");
    reads
}

#[test]
fn container_streaming_is_bit_identical_to_memory() {
    let path = packed("identity");
    for er in [ErMode::None, ErMode::QsrOnly, ErMode::Full] {
        for parallelism in parallelism_sweep() {
            let label = format!("{er:?} / {parallelism:?}");
            let config = GenPipConfig::for_dataset(&profile()).with_parallelism(parallelism);
            let memory = collect_runs(StreamingSimulator::new(&profile()), &config, er);
            let file = collect_runs(
                GscReadSource::open(&path).expect("open container"),
                &config,
                er,
            );
            assert_eq!(memory, file, "{label}: file streaming diverged");
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn open_at_streams_the_exact_suffix() {
    let path = packed("seek");
    let config = GenPipConfig::for_dataset(&profile());
    let all = collect_runs(
        GscReadSource::open(&path).expect("open container"),
        &config,
        ErMode::Full,
    );
    assert!(all.len() > 6, "dataset too small for a seek test");
    for k in [0, 1, all.len() / 2, all.len() - 1, all.len()] {
        let suffix = collect_runs(
            GscReadSource::open_at(&path, k).expect("open_at"),
            &config,
            ErMode::Full,
        );
        assert_eq!(
            suffix.as_slice(),
            &all[k..],
            "suffix from read {k} diverged"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn live_attached_container_matches_solo_suffix() {
    let path = packed("attach");
    let config = GenPipConfig::for_dataset(&profile());
    let k = 12;
    let solo = collect_runs(
        GscReadSource::open_at(&path, k).expect("open_at"),
        &config,
        ErMode::Full,
    );

    let control = SessionControl::new();
    let control_in_sink = control.clone();
    let attached: Arc<Mutex<Vec<ReadRun>>> = Arc::new(Mutex::new(Vec::new()));
    let attached_in_spec = Arc::clone(&attached);
    let path_in_sink = path.clone();
    let config_in_spec = config.clone();
    let mut pending = None;
    let mut primary = 0usize;
    Session::new(config.clone())
        .flow(Flow::GenPip(ErMode::Full))
        .source("primary", StreamingSimulator::new(&profile()))
        .sink("primary", |event| {
            if let StreamEvent::Read(_) = event {
                primary += 1;
                if primary == 3 {
                    let source = GscReadSource::open_at(&path_in_sink, k).expect("open_at");
                    let store = Arc::clone(&attached_in_spec);
                    pending = Some(
                        control_in_sink.attach_with(
                            "disk",
                            source,
                            AttachSpec::new()
                                .config(config_in_spec.clone())
                                .sink(move |event| {
                                    if let StreamEvent::Read(run) = event {
                                        store.lock().expect("store poisoned").push(run);
                                    }
                                }),
                        ),
                    );
                }
            }
        })
        .run_with_control(&control)
        .expect("valid session");
    pending
        .expect("attach step fired")
        .wait()
        .expect("attach accepted");
    let attached = attached.lock().expect("store poisoned");
    assert_eq!(
        attached.as_slice(),
        solo.as_slice(),
        "live-attached container output diverged from a solo run's suffix"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn injected_faults_over_container_are_quarantined() {
    let path = packed("faults");
    let config = GenPipConfig::for_dataset(&profile()).with_fault_policy(FaultPolicy::Quarantine);
    let source = GscReadSource::open(&path).expect("open container");
    let status = source.status();
    let mut injector = FaultInjector::new(source, 0.35, 0xFEED);
    let mut survivors = Vec::new();
    let mut failed = Vec::new();
    Session::new(config.clone())
        .flow(Flow::GenPip(ErMode::Full))
        .source("s", &mut injector)
        .sink("s", |event| match event {
            StreamEvent::Read(run) => survivors.push(run.id),
            StreamEvent::Failed { read_id, .. } => failed.push(read_id),
            _ => {}
        })
        .run()
        .expect("valid session");
    assert!(status.is_ok(), "container error: {:?}", status.error());
    let mut injected = injector.injected_ids().to_vec();
    assert!(!injected.is_empty(), "injection rate too low for the test");
    injected.sort_unstable();
    failed.sort_unstable();
    assert_eq!(failed, injected, "quarantined set != injected set");
    assert_eq!(
        survivors.len() + failed.len(),
        profile().n_reads,
        "some reads were neither emitted nor quarantined"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn byte_flips_are_always_detected_and_never_panic() {
    let path = packed("fuzz");
    let pristine = std::fs::read(&path).expect("read container");
    let mut rng = seeded(0xF1E7);
    for trial in 0..48 {
        let pos = (rng.next_u64() as usize) % pristine.len();
        let bit = 1u8 << (rng.next_u64() % 8);
        let mut corrupt = pristine.clone();
        corrupt[pos] ^= bit;
        let corrupt_path = temp_path(&format!("fuzz-{trial}"));
        std::fs::write(&corrupt_path, &corrupt).expect("write corrupt copy");
        // Every byte of the container is covered by a checksum, so a flip
        // must surface as a typed error — at open, or parked on the status
        // handle while streaming. It must never panic.
        let detected = match GscReadSource::open(&corrupt_path) {
            Err(_) => true,
            Ok(mut source) => {
                while source.next_read().is_some() {}
                !source.status().is_ok()
            }
        };
        assert!(
            detected,
            "flip of bit {bit:#04b} at byte {pos} went undetected"
        );
        std::fs::remove_file(&corrupt_path).ok();
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn mid_run_drain_still_leaves_parseable_fastq() {
    let path = packed("drain");
    let fastq_path = temp_path("drain.fastq");
    let config = GenPipConfig::for_dataset(&profile()).with_keep_bases(true);
    let control = SessionControl::new();
    let control_in_sink = control.clone();
    let emitted = Cell::new(0usize);
    {
        let file = File::create(&fastq_path).expect("create fastq");
        let mut sink = FastqSink::new(BufWriter::new(file));
        Session::new(config.clone())
            .flow(Flow::GenPip(ErMode::Full))
            .source("s", GscReadSource::open(&path).expect("open container"))
            .sink("s", |event| {
                sink.handle(&event);
                if let StreamEvent::Read(_) = event {
                    emitted.set(emitted.get() + 1);
                    if emitted.get() == 5 {
                        control_in_sink.drain();
                    }
                }
            })
            .run_with_control(&control)
            .expect("valid session");
        // `sink` drops here WITHOUT finish(): Drop must flush the records
        // already handed to the writer.
    }
    assert!(
        emitted.get() >= 5,
        "drain fired before 5 reads were emitted"
    );
    let text = std::fs::read_to_string(&fastq_path).expect("read fastq");
    assert!(
        text.ends_with('\n'),
        "flushed FASTQ does not end at a record boundary"
    );
    let records = fastx::read_fastq(BufReader::new(File::open(&fastq_path).expect("open fastq")))
        .expect("drained FASTQ must stay parseable");
    assert!(!records.is_empty(), "no records were flushed");
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&fastq_path).ok();
}

#[test]
fn cli_checkpoint_drain_resume_is_byte_identical() {
    let bin = env!("CARGO_BIN_EXE_genpip");
    let dir = temp_path("cli");
    std::fs::create_dir_all(&dir).expect("create test dir");
    let arg = |p: &PathBuf| p.to_str().expect("utf-8 path").to_string();
    let gsc = dir.join("run.gsc");
    let full = dir.join("full.fastq");
    let part = dir.join("part.fastq");
    let ckpt = dir.join("run.ckpt");
    let run = |args: &[String]| {
        let out = Command::new(bin).args(args).output().expect("spawn genpip");
        assert!(
            out.status.success(),
            "genpip {args:?} failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
    };
    let s = |v: &str| v.to_string();
    run(&[
        s("pack"),
        s("--profile"),
        s("ecoli"),
        s("--scale"),
        s("0.03"),
        s("--out"),
        arg(&gsc),
        s("--verify"),
    ]);
    let drain = dir.join("drain.script");
    std::fs::write(&drain, "at 9 drain\n").expect("write script");
    let stream_base = [
        s("run"),
        s("--source"),
        format!("file={}", arg(&gsc)),
        s("--threads"),
        s("serial"),
        s("--progress"),
        s("0"),
    ];
    let mut uninterrupted = stream_base.to_vec();
    uninterrupted.extend([s("--fastq-out"), arg(&full)]);
    run(&uninterrupted);

    // Interrupted run: drain mid-flight, leaving a checkpoint behind.
    let mut interrupted = stream_base.to_vec();
    interrupted.extend([
        s("--fastq-out"),
        arg(&part),
        s("--checkpoint"),
        arg(&ckpt),
        s("--checkpoint-every"),
        s("4"),
        s("--script"),
        arg(&drain),
    ]);
    run(&interrupted);
    let full_bytes = std::fs::read(&full).expect("read full fastq");
    let part_bytes = std::fs::read(&part).expect("read partial fastq");
    assert!(
        part_bytes.len() < full_bytes.len(),
        "drained run should have written a strict prefix"
    );
    assert_eq!(
        &full_bytes[..part_bytes.len()],
        part_bytes.as_slice(),
        "drained run's output is not a prefix of the uninterrupted run's"
    );

    // Resume: truncate-and-append must reproduce the full file exactly.
    let mut resumed = stream_base.to_vec();
    resumed.extend([
        s("--fastq-out"),
        arg(&part),
        s("--checkpoint"),
        arg(&ckpt),
        s("--resume"),
        arg(&ckpt),
    ]);
    run(&resumed);
    assert_eq!(
        std::fs::read(&part).expect("read resumed fastq"),
        full_bytes,
        "resumed FASTQ is not byte-identical to the uninterrupted run's"
    );

    // A corrupted container must exit nonzero, not panic.
    let bad = dir.join("bad.gsc");
    let mut bytes = std::fs::read(&gsc).expect("read container");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&bad, bytes).expect("write corrupt container");
    let mut corrupted = stream_base.to_vec();
    corrupted[2] = format!("file={}", arg(&bad));
    let out = Command::new(bin)
        .args(&corrupted)
        .output()
        .expect("spawn genpip");
    assert!(
        !out.status.success(),
        "streaming a corrupted container must exit nonzero"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Packs a container into a fresh directory and runs `genpip run` over it
/// with `extra` arguments until a scripted drain at read 9, checkpointing to
/// `run.ckpt`. Returns the directory and the arguments of a resume of that
/// run (the `run` arguments plus `--resume run.ckpt`), for the caller to
/// extend.
fn drained_cli_run(tag: &str, extra: &[String]) -> (PathBuf, Vec<String>) {
    let dir = temp_path(tag);
    std::fs::create_dir_all(&dir).expect("create test dir");
    let path = |name: &str| dir.join(name).to_str().expect("utf-8 path").to_string();
    let genpip = |args: &[String]| {
        let out = Command::new(env!("CARGO_BIN_EXE_genpip"))
            .args(args)
            .output()
            .expect("spawn genpip");
        assert!(
            out.status.success(),
            "genpip {args:?} failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
    };
    let s = |v: &str| v.to_string();
    genpip(&[
        s("pack"),
        s("--profile"),
        s("ecoli"),
        s("--scale"),
        s("0.03"),
        s("--out"),
        path("run.gsc"),
    ]);
    std::fs::write(dir.join("drain.script"), "at 9 drain\n").expect("write script");
    let base = [
        s("run"),
        s("--source"),
        format!("file={}", path("run.gsc")),
        s("--threads"),
        s("serial"),
        s("--progress"),
        s("0"),
    ];
    let drained = [&base[..], extra, &[s("--checkpoint"), path("run.ckpt")]].concat();
    genpip(&[&drained[..], &[s("--script"), path("drain.script")]].concat());
    let resume = [&drained[..], &[s("--resume"), path("run.ckpt")]].concat();
    (dir, resume)
}

/// Runs `genpip` with `args` and asserts the refusal every resume check
/// gives: exit 1, nothing on stdout (no banner), and `needle` in the error.
fn assert_refused(args: &[String], needle: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_genpip"))
        .args(args)
        .output()
        .expect("spawn genpip");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "{args:?} printed before refusing: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(stderr.contains(needle), "{args:?}: {stderr}");
}

/// A checkpoint written without `--fastq-out` holds no FASTQ mark, so a
/// resume that asks for `--fastq-out` has no delivered prefix to keep. It is
/// refused before any banner — not run with the file starting at byte 0 —
/// and an existing file at the path is left as it was.
#[test]
fn cli_resume_refuses_a_fastq_output_the_checkpoint_never_marked() {
    let (dir, resume) = drained_cli_run("unmarked", &[]);
    let fastq = dir.join("out.fastq");
    let kept = b"@kept\nACGT\n+\nIIII\n";
    std::fs::write(&fastq, kept).expect("write fastq");
    let fastq_arg = fastq.to_str().expect("utf-8 path").to_string();
    let args = [&resume[..], &["--fastq-out".to_string(), fastq_arg]].concat();
    assert_refused(&args, "has no FASTQ mark for source");
    assert_eq!(std::fs::read(&fastq).expect("read fastq"), kept);
    std::fs::remove_dir_all(&dir).ok();
}

/// A resume truncates each FASTQ back to its checkpointed mark and appends.
/// A file shorter than its mark has lost part of the delivered prefix: the
/// resume is refused, naming the path and both sizes, rather than padding
/// the gap with zero bytes — and the short file is left as it was.
#[test]
fn cli_resume_refuses_a_fastq_output_shorter_than_its_mark() {
    let fastq = temp_path("short").join("part.fastq");
    let fastq_arg = fastq.to_str().expect("utf-8 path").to_string();
    let (dir, resume) = drained_cli_run("short", &["--fastq-out".to_string(), fastq_arg]);
    let marked = std::fs::read(&fastq).expect("read drained fastq");
    let short = &marked[..marked.len() / 2];
    std::fs::write(&fastq, short).expect("shorten fastq");
    let sizes = format!(
        "is {} bytes, shorter than the {} bytes",
        short.len(),
        marked.len()
    );
    assert_refused(&resume, &sizes);
    assert_eq!(std::fs::read(&fastq).expect("read fastq"), short);
    // A lost file is the same refusal, and is not created.
    std::fs::remove_file(&fastq).expect("remove fastq");
    assert_refused(
        &resume,
        &format!("is 0 bytes, shorter than the {}", marked.len()),
    );
    assert!(!fastq.exists(), "the refused resume created the file");
    std::fs::remove_dir_all(&dir).ok();
}
