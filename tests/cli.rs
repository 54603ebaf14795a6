//! The `genpip` command line rejects what it does not understand: every
//! subcommand has an accepted-option list, and anything outside it — a
//! stray option, a typo of a real one, a removed one — is a loud error
//! rather than a silently ignored `--key value` pair.

use genpip::core::engine::Flow;
use genpip::core::pipeline::{ErMode, PipelineRun, ReadOutcome};
use genpip::core::GenPipConfig;
use genpip::datasets::DatasetProfile;
use std::path::{Path, PathBuf};
use std::process::Command;

fn genpip_output(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_genpip"))
        .args(args)
        .output()
        .expect("spawn genpip")
}

/// Runs `genpip` with `args`; returns (exit success, stderr).
fn genpip(args: &[&str]) -> (bool, String) {
    let out = genpip_output(args);
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Asserts `genpip <command> <extra>` is refused before any banner: exit
/// nonzero, `complaint` on stderr, nothing on stdout. `env` is the
/// invocation's `GENPIP_PARALLELISM` (`None` removes it).
fn refused(command: &[&str], extra: &[&str], env: Option<&str>, complaint: &str) {
    let mut genpip = Command::new(env!("CARGO_BIN_EXE_genpip"));
    genpip.args(command).args(extra);
    match env {
        Some(value) => genpip.env("GENPIP_PARALLELISM", value),
        None => genpip.env_remove("GENPIP_PARALLELISM"),
    };
    let out = genpip.output().expect("spawn genpip");
    let case = format!("{command:?} {extra:?} GENPIP_PARALLELISM={env:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{case} must exit nonzero");
    assert!(stderr.contains(complaint), "{case}: stderr: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "{case} printed a banner: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

/// A `--script` holding `text` in the temp directory, named for `tag`.
fn script(tag: &str, text: &str) -> PathBuf {
    let script =
        std::env::temp_dir().join(format!("genpip-cli-{tag}-{}.script", std::process::id()));
    std::fs::write(&script, text).expect("write script");
    script
}

/// A fresh scratch directory for invocations that write files.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("genpip-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs `genpip` with `args` in `dir` and `GENPIP_PARALLELISM` unset;
/// returns (exit success, stdout, stderr).
fn genpip_in(dir: &Path, args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_genpip"))
        .args(args)
        .current_dir(dir)
        .env_remove("GENPIP_PARALLELISM")
        .output()
        .expect("spawn genpip");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Every subcommand `genpip` has.
const SUBCOMMANDS: [&str; 6] = ["simulate", "map", "run", "pack", "inspect", "experiment"];

/// The option sweep's table: each subcommand with every option it accepts,
/// a small valid invocation (`--key value` pairs, then its positional
/// argument if it takes one) whose pairs the sweep leaves out one at a
/// time, and the word its errors use for that positional. Each subcommand
/// runs in a directory of its own; `map` and `inspect` read the files the
/// sweep writes first, one level up.
type SweepRow = (
    &'static str,
    &'static [&'static str],
    &'static [(&'static str, &'static str)],
    Option<(&'static str, &'static str)>,
);
const SWEEP: [SweepRow; 6] = [
    (
        "simulate",
        &["--profile", "--scale", "--out"],
        &[("--profile", "ecoli"), ("--scale", "0.02"), ("--out", "s")],
        None,
    ),
    (
        "map",
        &["--reference", "--reads", "--paf"],
        &[
            ("--reference", "../v.fasta"),
            ("--reads", "../v.fastq"),
            ("--paf", "m.paf"),
        ],
        None,
    ),
    (
        "run",
        &[
            "--profile",
            "--scale",
            "--er",
            "--source",
            "--reference",
            "--script",
            "--schedule",
            "--queue",
            "--threads",
            "--max-sources",
            "--progress",
            "--fastq-out",
            "--on-fault",
            "--inject-faults",
            "--checkpoint",
            "--checkpoint-every",
            "--resume",
        ],
        &[("--scale", "0.02"), ("--progress", "0")],
        None,
    ),
    (
        "pack",
        &["--profile", "--scale", "--out", "--verify"],
        &[
            ("--profile", "ecoli"),
            ("--scale", "0.02"),
            ("--out", "p.gsc"),
        ],
        None,
    ),
    (
        "inspect",
        &["--reads", "--verify"],
        &[],
        Some(("container", "../v.gsc")),
    ),
    (
        "experiment",
        &["--scale"],
        &[],
        Some(("experiment", "tab02")),
    ),
];

/// The options that name a file to write. Each also sweeps `unwritable`, a
/// path inside a directory that does not exist: it is refused before any
/// banner or work, naming the flag.
const OUTPUTS: [(&str, &str); 5] = [
    ("simulate", "--out"),
    ("map", "--paf"),
    ("pack", "--out"),
    ("run", "--fastq-out"),
    ("run", "--checkpoint"),
];

/// The (subcommand, option, value) cases of the sweep below that are
/// documented accepted values rather than mistakes: a progress cadence of 0
/// turns the lines off, a fault rate of 0 injects nothing, an output path
/// may be any file name, `--source` and `run`'s `--reference` repeat, and
/// `--verify` is a flag, so the case that gives it no value is its use.
const ACCEPTED: &[(&str, &str, &str)] = &[
    ("run", "--progress", "0"),
    ("run", "--inject-faults", "0"),
    ("run", "--fastq-out", "0"),
    ("run", "--fastq-out", "-1"),
    ("run", "--fastq-out", "x"),
    ("run", "--checkpoint", "0"),
    ("run", "--checkpoint", "-1"),
    ("run", "--checkpoint", "x"),
    ("run", "--source", "twice"),
    ("run", "--reference", "twice"),
    ("simulate", "--out", "0"),
    ("simulate", "--out", "-1"),
    ("simulate", "--out", "x"),
    ("map", "--paf", "0"),
    ("map", "--paf", "-1"),
    ("map", "--paf", "x"),
    ("pack", "--out", "0"),
    ("pack", "--out", "-1"),
    ("pack", "--out", "x"),
    ("pack", "--verify", "missing"),
    ("inspect", "--verify", "missing"),
];

#[test]
fn unknown_options_fail_the_invocation() {
    let (ok, stderr) = genpip(&["run", "--scale", "0.02", "--bogus", "1"]);
    assert!(!ok, "an unknown option must exit nonzero");
    assert!(
        stderr.contains("unknown option --bogus for 'run'"),
        "stderr: {stderr}"
    );
    // A valueless unknown option is reported as unknown, not as "needs a
    // value"; an option of another subcommand is unknown here too.
    let (ok, stderr) = genpip(&["experiment", "fig10", "--bogus"]);
    assert!(!ok);
    assert!(stderr.contains("unknown option --bogus for 'experiment'"));
    let (ok, stderr) = genpip(&["run", "--scale", "0.02", "--reads", "4"]);
    assert!(!ok);
    assert!(stderr.contains("unknown option --reads for 'run'"));
    // The accepted spellings still run.
    let (ok, stderr) = genpip(&["run", "--scale", "0.02", "--er", "full", "--progress", "0"]);
    assert!(ok, "stderr: {stderr}");
}

#[test]
fn misspelt_options_fail_instead_of_being_ignored() {
    let (ok, stderr) = genpip(&["run", "--scale", "0.02", "--thread", "1"]);
    assert!(!ok, "--thread (for --threads) must exit nonzero");
    assert!(
        stderr.contains("unknown option --thread for 'run'"),
        "stderr: {stderr}"
    );
    let (ok, stderr) = genpip(&["run", "--scale", "0.02", "--lanse", "4"]);
    assert!(!ok);
    assert!(stderr.contains("unknown option --lanse for 'run'"));
}

#[test]
fn the_removed_lanes_option_is_rejected_everywhere() {
    for command in SUBCOMMANDS {
        let (ok, stderr) = genpip(&[command, "--lanes", "4"]);
        assert!(!ok, "{command} --lanes 4 must exit nonzero");
        assert!(
            stderr.contains(&format!("unknown option --lanes for '{command}'")),
            "stderr: {stderr}"
        );
    }
}

#[test]
fn the_removed_shards_option_is_rejected_everywhere() {
    for command in SUBCOMMANDS {
        let (ok, stderr) = genpip(&[command, "--shards", "3"]);
        assert!(!ok, "{command} --shards 3 must exit nonzero");
        assert!(
            stderr.contains(&format!("unknown option --shards for '{command}'")),
            "stderr: {stderr}"
        );
    }
}

/// The option sweep: every option of every subcommand × {missing value,
/// `0`, `-1`, garbage, given twice}, every output option of [`OUTPUTS`]
/// also × an unwritable path, and the positional argument of
/// `inspect` and `experiment` × {left out, `0`, `-1`, garbage, given
/// twice}. Each case is refused before any banner — exit nonzero, the flag
/// (or the positional's name) on stderr, nothing on stdout, no panic — or
/// is a documented accepted value and runs. Outputs go to a scratch
/// directory.
#[test]
fn every_run_option_refuses_a_bad_value_before_any_banner() {
    let dir = scratch_dir("sweep");
    for setup in [
        &["simulate", "--scale", "0.02", "--out", "v"][..],
        &["pack", "--scale", "0.02", "--out", "v.gsc"],
    ] {
        let (ok, _, stderr) = genpip_in(&dir, setup);
        assert!(ok, "{setup:?}: {stderr}");
    }
    let check = |command: &str, flag: &str, case: &str, args: Vec<&str>| {
        let dir = dir.join(command);
        std::fs::create_dir_all(&dir).expect("create subcommand dir");
        let (ok, stdout, stderr) = genpip_in(&dir, &args);
        let label = format!("{args:?}");
        assert!(!stderr.contains("panicked"), "{label} panicked: {stderr}");
        assert!(!stderr.contains("unknown option"), "{label}: {stderr}");
        if ACCEPTED.contains(&(command, flag, case)) {
            assert!(ok, "{label} is a documented accepted value: {stderr}");
            return;
        }
        assert!(!ok, "{label} must exit nonzero");
        assert!(stdout.is_empty(), "{label} printed a banner: {stdout}");
        let complaint = match case {
            "missing" if flag.starts_with("--") => format!("option {flag} needs a value"),
            "twice" if flag.starts_with("--") && !["--source", "--reference"].contains(&flag) => {
                format!("option {flag} given twice")
            }
            _ => flag.to_string(),
        };
        assert!(stderr.contains(&complaint), "{label}: stderr: {stderr}");
    };
    for (command, options, base, positional) in SWEEP {
        // The valid invocation, minus the option the sweep is on.
        let base_without = |flag: &str| -> Vec<&str> {
            let mut args = vec![command];
            args.extend(positional.map(|(_, valid)| valid));
            for &(option, value) in base {
                if option != flag {
                    args.extend([option, value]);
                }
            }
            args
        };
        for &flag in options {
            let valid = match (base.iter().find(|(option, _)| *option == flag), flag) {
                (Some(&(_, value)), _) => value,
                (None, "--source") => "profile=ecoli",
                (None, "--reference") => "len=3000",
                (None, _) => "1",
            };
            let twice: &[&str] = if flag == "--verify" {
                &[flag, flag]
            } else {
                &[flag, valid, flag, valid]
            };
            let cases: [(&str, &[&str]); 5] = [
                ("missing", &[flag]),
                ("0", &[flag, "0"]),
                ("-1", &[flag, "-1"]),
                ("x", &[flag, "x"]),
                ("twice", twice),
            ];
            let unwritable: &[&str] = &[flag, "no-such-dir/out"];
            let unwritable = OUTPUTS
                .contains(&(command, flag))
                .then_some(("unwritable", unwritable));
            for (case, extra) in cases.into_iter().chain(unwritable) {
                check(
                    command,
                    flag,
                    case,
                    [base_without(flag), extra.to_vec()].concat(),
                );
            }
        }
        if let Some((name, valid)) = positional {
            let options: Vec<&str> = base.iter().flat_map(|&(o, v)| [o, v]).collect();
            let cases: [(&str, &[&str]); 5] = [
                ("missing", &[]),
                ("0", &["0"]),
                ("-1", &["-1"]),
                ("x", &["x"]),
                ("twice", &[valid, valid]),
            ];
            for (case, extra) in cases {
                let args = [vec![command], options.clone(), extra.to_vec()].concat();
                check(command, name, case, args);
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    // The sweep covers exactly what each subcommand accepts: the options
    // its usage lists.
    let help = genpip_output(&["help"]);
    let usage = String::from_utf8_lossy(&help.stdout);
    for (command, options, ..) in SWEEP {
        let head = format!("  genpip {command} ");
        let block: String = usage
            .lines()
            .skip_while(|l| !l.starts_with(&head))
            .take_while(|l| l.starts_with(&head) || l.starts_with("     "))
            .collect();
        let mut listed: Vec<&str> = block
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter(|w| w.starts_with("--"))
            .collect();
        listed.sort_unstable();
        let mut swept = options.to_vec();
        swept.sort_unstable();
        assert_eq!(listed, swept, "usage: {block}");
    }
    let swept: Vec<&str> = SWEEP.iter().map(|(command, ..)| *command).collect();
    assert_eq!(swept, SUBCOMMANDS);
}

/// A malformed `GENPIP_PARALLELISM` — one `--threads` would refuse, `0`
/// among them — must not read as "unset", and a bare argument the
/// subcommand does not take (a forgotten `--profile`, a single-dash option)
/// must not run the defaults: both are refused before any banner.
#[test]
fn zero_counts_fail_naming_the_flag_before_any_banner() {
    let run = ["run", "--scale", "0.02"];
    for bad in ["four", "0"] {
        let complaint = format!("error: invalid GENPIP_PARALLELISM {bad:?}");
        refused(&run, &[], Some(bad), &complaint);
    }
    let unpacked = std::env::temp_dir().join(format!("genpip-cli-{}.gsc", std::process::id()));
    let unpacked_path = unpacked.to_str().expect("utf-8 temp path");
    for (command, extra, stray) in [
        (&["run"][..], &["ecoli"][..], "ecoli"),
        (&["pack"], &["oops", "--out", unpacked_path], "oops"),
        (&["experiment", "tab02"], &["fig10"], "fig10"),
        (&["inspect", "a.gsc"], &["b.gsc"], "b.gsc"),
        (&run, &["-threads", "4"], "-threads"),
    ] {
        let complaint = format!("error: unexpected argument {stray:?} for '{}'", command[0]);
        refused(command, extra, None, &complaint);
    }
    assert!(!unpacked.exists(), "a refused pack wrote its container");
}

/// Input the command line used to swallow is refused instead, before any
/// banner: `--profile` beside an explicit source (it was dropped) and a
/// checkpoint cadence with no `--checkpoint` to write (nothing was
/// written). A second occurrence of a single-valued option is the `twice`
/// column of the option sweep. The repeatable options still repeat.
#[test]
fn swallowed_inputs_are_refused_before_any_banner() {
    let run = ["run", "--scale", "0.02"];
    let no_profile = "error: --profile applies only without --source";
    refused(
        &run,
        &["--profile", "human", "--source", "profile=ecoli"],
        None,
        no_profile,
    );
    let no_cadence = "error: --checkpoint-every applies only with --checkpoint";
    refused(&run, &["--checkpoint-every", "7"], None, no_cadence);
    let (ok, stderr) = genpip(&[
        "run",
        "--scale",
        "0.02",
        "--progress",
        "0",
        "--source",
        "profile=ecoli,name=a",
        "--source",
        "profile=ecoli,name=b",
    ]);
    assert!(ok, "--source repeats: stderr: {stderr}");
}

/// `stream` and `serve` were folded into `run`, and their duplicate
/// spellings went with them: `--signal-in PATH` is `--source file=PATH`,
/// `--drain-after N` is a script's `at N drain`.
#[test]
fn the_removed_subcommands_and_spellings_are_refused() {
    for command in ["stream", "serve"] {
        refused(
            &[command],
            &["--scale", "0.02"],
            None,
            &format!("error: unknown command {command:?}"),
        );
    }
    for (option, value) in [("--signal-in", "x.gsc"), ("--drain-after", "9")] {
        let complaint = format!("unknown option {option} for 'run'");
        refused(&["run"], &[option, value], None, &complaint);
    }
    // The usage lists exactly the subcommands that remain.
    let help = genpip_output(&["help"]);
    let usage = String::from_utf8_lossy(&help.stdout);
    let listed: Vec<&str> = usage
        .lines()
        .filter_map(|l| l.strip_prefix("  genpip "))
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert_eq!(listed, SUBCOMMANDS, "{usage}");
}

/// A script holds only `at COUNT` steps: a bare `attach` line is refused,
/// naming `--source`, the way to give a source the run starts with. An
/// `attach` step beside `--fastq-out` or `--resume` is refused too: both
/// cover only the sources the run starts with.
#[test]
fn bare_script_attaches_and_attaches_beside_per_source_outputs_are_refused() {
    let bare = script("bare", "attach a profile=ecoli\n");
    let bare = bare.to_str().expect("utf-8 temp path");
    refused(
        &["run", "--script", bare],
        &[],
        None,
        "error: --script line 1: \"attach a profile=ecoli\" has no `at COUNT`; a source \
         the run starts with is a --source SPEC,name=NAME",
    );
    let live = script("attach", "at 3 attach b profile=ecoli\n");
    let live = live.to_str().expect("utf-8 temp path");
    for flag in ["--fastq-out", "--resume"] {
        let complaint = format!("error: script `attach` steps cannot be combined with {flag}");
        refused(&["run", "--script", live], &[flag, "out"], None, &complaint);
    }
    // A drain step writes nothing per source, so it goes with both.
    let drain = script("drain", "at 3 drain\n");
    let dir = scratch_dir("drain");
    let drain = drain.to_str().expect("utf-8 temp path");
    let args = [
        "run",
        "--scale",
        "0.02",
        "--progress",
        "0",
        "--script",
        drain,
    ];
    let (ok, stdout, stderr) = genpip_in(&dir, &[&args[..], &["--fastq-out", "a.fq"]].concat());
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("[script] at 3 reads: drain"), "{stdout}");
    for path in [bare, live, drain] {
        let _ = std::fs::remove_file(path);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A live script: two sources attach mid-run, one detaches, then the
/// session drains — and a refused step (a duplicate name, an attach over
/// `--max-sources`) or one that never fires fails the invocation after the
/// run.
#[test]
fn a_live_script_attaches_detaches_and_drains() {
    let live = script(
        "live",
        "# two attaches, a detach, a drain\n\
         at 5 attach burst profile=ecoli,scale=0.02\n\
         at 8 attach tail profile=ecoli,scale=0.02\n\
         at 12 detach burst\n\
         at 20 drain\n",
    );
    let live = live.to_str().expect("utf-8 temp path");
    let run = [
        "run",
        "--source",
        "profile=ecoli,scale=0.03,name=base",
        "--progress",
        "0",
        "--queue",
        "4",
        "--script",
    ];
    let out = genpip_output(&[&run[..], &[live]].concat());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for line in [
        "[script] at 5 reads: attach \"burst\"",
        "[script] at 8 reads: attach \"tail\"",
        "[script] at 12 reads: detach \"burst\"",
        "[script] at 20 reads: drain",
        "detached \"burst\": ",
        "source tail ",
    ] {
        assert!(stdout.contains(line), "no {line:?} in {stdout}");
    }
    let dup = script("dup", "at 3 attach base profile=ecoli,scale=0.02\n");
    let over = script("over", "at 3 attach b profile=ecoli,scale=0.02\n");
    let late = script("late", "at 100000 drain\n");
    for (path, extra, complaint) in [
        (
            &dup,
            &[][..],
            "attach \"base\" refused: source id \"base\" registered twice",
        ),
        (
            &over,
            &["--max-sources", "1"],
            "attach \"b\" refused: session is at its max_sources bound (1)",
        ),
        (&late, &[], "script step never fired (line 1: at 100000)"),
    ] {
        let path = path.to_str().expect("utf-8 temp path");
        let out = genpip_output(&[&run[..], &[path], extra].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{path} must exit nonzero");
        assert!(stderr.contains(complaint), "{path}: stderr: {stderr}");
    }
    for path in [live.into(), dup, over, late] {
        let _ = std::fs::remove_file(path);
    }
}

/// `run` is the batch pipeline's spelling too: its outcome counts are
/// `PipelineRun::collect`'s over the same dataset, with `--reference` panel
/// members alongside; a panel member that shadows the source's own
/// reference name is refused by the session.
#[test]
fn run_reports_the_batch_pipelines_outcome_counts() {
    let profile = DatasetProfile::ecoli().scaled(0.02);
    let config = GenPipConfig::for_dataset(&profile);
    let batch = PipelineRun::collect(&profile.generate(), &config, Flow::GenPip(ErMode::Full));
    let count = |pred: fn(&ReadOutcome) -> bool| batch.count_outcomes(pred);
    let (ok, stdout, stderr) = genpip_in(
        &std::env::temp_dir(),
        &["run", "--scale", "0.02", "--er", "full", "--progress", "0"],
    );
    assert!(ok, "stderr: {stderr}");
    for (label, n) in [
        ("reads:", batch.reads.len()),
        ("mapped:", count(|o| matches!(o, ReadOutcome::Mapped(_)))),
        (
            "QSR-rejected:",
            count(|o| matches!(o, ReadOutcome::RejectedQsr { .. })),
        ),
        (
            "CMR-rejected:",
            count(|o| matches!(o, ReadOutcome::RejectedCmr { .. })),
        ),
        (
            "QC-filtered:",
            count(|o| matches!(o, ReadOutcome::FilteredQc { .. })),
        ),
        (
            "unmapped:",
            count(|o| matches!(o, ReadOutcome::Unmapped { .. })),
        ),
    ] {
        let line = format!("{label:<16}{n}\n");
        assert!(stdout.contains(&line), "no {line:?} in {stdout}");
    }
    let basecalled = format!(
        "basecalled:     {} of {} samples",
        batch.totals().samples,
        profile.generate().total_samples()
    );
    assert!(
        stdout.contains(&basecalled),
        "no {basecalled:?} in {stdout}"
    );

    let run = ["run", "--scale", "0.02", "--progress", "0", "--reference"];
    let (ok, stdout, stderr) = genpip_in(
        &std::env::temp_dir(),
        &[&run[..], &["name=panel_a,len=3000,seed=7"]].concat(),
    );
    assert!(ok, "stderr: {stderr}");
    assert!(
        stdout.contains("every source also maps against panel_a"),
        "{stdout}"
    );
    let (ok, _, stderr) = genpip_in(
        &std::env::temp_dir(),
        &[&run[..], &["name=ecoli,len=3000"]].concat(),
    );
    assert!(
        !ok,
        "a panel member named like the source's reference must fail"
    );
    assert!(
        stderr.contains("duplicate reference name \"ecoli\" in the pan-genome panel"),
        "stderr: {stderr}"
    );
}

/// `genpip experiment <name>` is the one way to regenerate a paper figure or
/// table: a known name prints its report, anything else says what is wrong.
#[test]
fn experiment_prints_the_named_report_and_refuses_anything_else() {
    let out = genpip_output(&["experiment", "tab02"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "experiment tab02 must exit 0");
    assert!(
        stdout.contains("Table 2 — area and power breakdown"),
        "stdout: {stdout}"
    );
    let (ok, stderr) = genpip(&["experiment", "bogus"]);
    assert!(!ok, "an unknown experiment must exit nonzero");
    assert!(
        stderr.contains("unknown experiment \"bogus\""),
        "stderr: {stderr}"
    );
    let (ok, stderr) = genpip(&["experiment"]);
    assert!(!ok, "a missing experiment name must exit nonzero");
    assert!(
        stderr.contains("experiment needs a name"),
        "stderr: {stderr}"
    );
}

/// The `Deadline` schedule was removed on evidence (PR 20): its `--schedule`
/// spelling and its `target=` spec key are errors on every surface, before
/// any banner, naming what is accepted instead. `Priority` weights are the
/// supported way to favour a source — and `weight=` counts only there, so
/// the banner shows weights under `priority` and nowhere else. The
/// undocumented aliases `seq`, `fairshare`, `fair-share` and `--er none` are
/// refused the same way: one spelling per value.
#[test]
fn the_removed_deadline_schedule_and_target_key_are_rejected_everywhere() {
    // The scripts spell the keys on a *live* attach step: those are parsed
    // up front too, not when the step fires.
    let script_with = |key: &str| {
        let path = script(key, &format!("at 3 attach b profile=ecoli,{key}=2\n"));
        path.to_str().expect("utf-8 temp path").to_string()
    };
    let (targeted, weighted) = (script_with("target"), script_with("weight"));
    let run = ["run", "--scale", "0.02"];
    let scripted = ["run", "--scale", "0.02", "--script", &targeted];
    let scripted_weighted = ["run", "--scale", "0.02", "--script", &weighted];
    let no_target = "unknown key \"target\" (use profile, file, scale, offset, weight";
    for (command, extra, complaint) in [
        (
            &run[..],
            &["--schedule", "deadline"][..],
            "invalid --schedule \"deadline\" (use fair, sequential, or priority)",
        ),
        (
            &run,
            &["--schedule", "bogus"],
            "invalid --schedule \"bogus\" (use fair, sequential, or priority)",
        ),
        (
            &scripted,
            &["--schedule", "deadline"],
            "invalid --schedule \"deadline\" (use fair, sequential, or priority)",
        ),
        // One spelling per value: the undocumented aliases are refused too.
        (
            &run,
            &["--schedule", "seq"],
            "invalid --schedule \"seq\" (use fair, sequential, or priority)",
        ),
        (
            &run,
            &["--schedule", "fairshare"],
            "invalid --schedule \"fairshare\" (use fair, sequential, or priority)",
        ),
        (
            &run,
            &["--schedule", "fair-share"],
            "invalid --schedule \"fair-share\" (use fair, sequential, or priority)",
        ),
        (&run, &["--er", "none"], "unknown --er \"none\""),
        (&run, &["--source", "profile=ecoli,target=40"], no_target),
        (&run, &["--source", "file=x.gsc,target=40"], no_target),
        (&scripted, &[], no_target),
        (
            &scripted_weighted,
            &["--schedule", "sequential"],
            "key \"weight\" applies only under --schedule priority",
        ),
    ] {
        let out = genpip_output(&[command, extra].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{command:?} {extra:?} must fail");
        assert!(
            stderr.contains(complaint),
            "{command:?} {extra:?}: stderr: {stderr}"
        );
        assert!(
            out.stdout.is_empty(),
            "{command:?} {extra:?} printed a banner: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
    for script in [&targeted, &weighted] {
        let _ = std::fs::remove_file(script);
    }

    let two_sources = |schedule: &str, first: &str| {
        let args = [&run[..], &["--progress", "0", "--schedule", schedule]].concat();
        let sources = ["--source", first, "--source", "profile=ecoli,name=b"];
        let out = genpip_output(&[&args[..], &sources].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{schedule} {first}: stderr: {stderr}");
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let weighted = two_sources("priority", "profile=ecoli,name=a,weight=3");
    assert!(weighted.contains("under Priority,"), "{weighted}");
    assert!(weighted.contains(", weight 3)") && weighted.contains(", weight 1)"));
    let fair = two_sources("fair", "profile=ecoli,name=a");
    assert!(!fair.contains("weight"), "{fair}");
}

/// The retry fault policy was removed on evidence (PR 23): its `--on-fault`
/// spellings are refused like any unknown policy, before any banner, with a
/// message that says what to use and why.
#[test]
fn the_removed_retry_policy_is_refused() {
    for policy in ["retry", "retry:2", "bogus"] {
        let complaint = format!(
            "error: invalid --on-fault {policy:?} (use fail or quarantine; a read is a \
             pure function of its signal, so a retry faults again)"
        );
        refused(
            &["run", "--scale", "0.02"],
            &["--on-fault", policy],
            None,
            &complaint,
        );
    }
}

/// Every spec surface shares one `key=value` grammar and rejects the same
/// mistakes — a key that does not apply to the source's kind, or one given
/// twice, among them:
/// each bad spec exits nonzero naming the surface, quoting the spec, and
/// saying what is wrong with it, before any banner reaches stdout.
#[test]
fn bad_specs_fail_naming_the_flag_and_the_spec() {
    // (spec, what stderr must say about it)
    let reference: &[(&str, &str)] = &[
        ("len", "is not key=value"),
        (
            "len=500,colour=red",
            "unknown key \"colour\" (use name, len, seed)",
        ),
        ("name=x,len=many", "invalid len \"many\""),
        ("name=x", "needs len="),
        ("len=500,len=600", "key \"len\" given twice"),
    ];
    let source: &[(&str, &str)] = &[
        ("profile=ecoli,heavy", "is not key=value"),
        (
            "profile=ecoli,wieght=2",
            "unknown key \"wieght\" (use profile, file, scale, offset, weight, name)",
        ),
        ("profile=ecoli,weight=two", "invalid weight \"two\""),
        (
            "profile=ecoli,weight=2",
            "key \"weight\" applies only under --schedule priority",
        ),
        ("file=x.gsc,offset=-1", "invalid offset \"-1\""),
        ("profile=ecoli,file=x.gsc", "both profile= and file="),
        ("name=x,weight=2", "needs profile= or file="),
        (
            "profile=ecoli,offset=3",
            "key \"offset\" applies only to file= sources",
        ),
        (
            "file=x.gsc,scale=0.5",
            "key \"scale\" applies only to profile= sources",
        ),
        ("profile=ecoli,profile=human", "key \"profile\" given twice"),
        ("file=x.gsc,offset=k", "invalid offset \"k\""),
        ("file=x.gsc,weight=1,weight=2", "key \"weight\" given twice"),
        ("file=x.gsc,file=y.gsc", "key \"file\" given twice"),
    ];
    let attach: &[(&str, &str)] = &[
        ("profile=ecoli,heavy", "is not key=value"),
        (
            "profile=ecoli,name=b",
            "unknown key \"name\" (use profile, file, scale, offset, weight)",
        ),
        ("profile=ecoli,weight=two", "invalid weight \"two\""),
        ("file=x.gsc,offset=k", "invalid offset \"k\""),
        (
            "profile=ecoli,weight=2",
            "key \"weight\" applies only under --schedule priority",
        ),
        ("profile=ecoli,file=x.gsc", "both profile= and file="),
        ("weight=2", "needs profile= or file="),
        (
            "profile=ecoli,offset=3",
            "key \"offset\" applies only to file= sources",
        ),
        (
            "file=x.gsc,scale=0.5",
            "key \"scale\" applies only to profile= sources",
        ),
        (
            "profile=ecoli,weight=9,weight=9",
            "key \"weight\" given twice",
        ),
    ];
    let script = std::env::temp_dir().join(format!("genpip-cli-{}.script", std::process::id()));
    let script_path = script.to_str().expect("utf-8 temp path");
    for (flag, table) in [
        ("--reference", reference),
        ("--source", source),
        ("attach", attach),
    ] {
        for (spec, complaint) in table {
            let out = if flag == "attach" {
                std::fs::write(&script, format!("at 1 attach a {spec}\n")).expect("write script");
                genpip_output(&["run", "--scale", "0.02", "--script", script_path])
            } else {
                genpip_output(&["run", "--scale", "0.02", flag, spec])
            };
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(!out.status.success(), "{flag} {spec:?} must exit nonzero");
            for needle in [flag, spec, complaint] {
                assert!(
                    stderr.contains(needle),
                    "{flag} {spec:?}: no {needle:?} in stderr: {stderr}"
                );
            }
            assert!(
                out.stdout.is_empty(),
                "{flag} {spec:?} printed a banner: {}",
                String::from_utf8_lossy(&out.stdout)
            );
        }
    }
    let _ = std::fs::remove_file(&script);
}
