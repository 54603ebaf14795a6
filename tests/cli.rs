//! The `genpip` command line rejects what it does not understand: every
//! subcommand has an accepted-option list, and anything outside it — a
//! stray option, a typo of a real one, a removed one — is a loud error
//! rather than a silently ignored `--key value` pair.

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

/// A one-source `serve` script in the temp directory, named for `tag`.
fn serve_script(tag: &str) -> std::path::PathBuf {
    let script =
        std::env::temp_dir().join(format!("genpip-cli-{tag}-{}.script", std::process::id()));
    std::fs::write(&script, "attach a profile=ecoli\n").expect("write script");
    script
}

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
    let (ok, stderr) = genpip(&["run", "--scale", "0.02", "--queue", "4"]);
    assert!(!ok);
    assert!(stderr.contains("unknown option --queue for 'run'"));
    // The accepted spellings still run.
    let (ok, stderr) = genpip(&["run", "--scale", "0.02", "--er", "full"]);
    assert!(ok, "stderr: {stderr}");
}

#[test]
fn misspelt_options_fail_instead_of_being_ignored() {
    let (ok, stderr) = genpip(&["stream", "--scale", "0.02", "--thread", "1"]);
    assert!(!ok, "--thread (for --threads) must exit nonzero");
    assert!(
        stderr.contains("unknown option --thread for 'stream'"),
        "stderr: {stderr}"
    );
    let (ok, stderr) = genpip(&["run", "--scale", "0.02", "--lanse", "4"]);
    assert!(!ok);
    assert!(stderr.contains("unknown option --lanse for 'run'"));
}

#[test]
fn the_removed_lanes_option_is_rejected_everywhere() {
    for command in ["run", "stream", "serve"] {
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
    for command in ["map", "run", "stream", "serve"] {
        let (ok, stderr) = genpip(&[command, "--shards", "3"]);
        assert!(!ok, "{command} --shards 3 must exit nonzero");
        assert!(
            stderr.contains(&format!("unknown option --shards for '{command}'")),
            "stderr: {stderr}"
        );
    }
}

/// Counts the session would refuse are refused by the option readers, with
/// the flag named and before any banner reaches stdout — and so is a
/// `GENPIP_PARALLELISM` set to something `--threads` would refuse, which
/// must not read as "unset", and a bare argument the subcommand does not
/// take (a forgotten `--profile`, a single-dash option), which must not run
/// the defaults.
#[test]
fn zero_counts_fail_naming_the_flag_before_any_banner() {
    let script = serve_script("zero");
    let script_path = script.to_str().expect("utf-8 temp path");
    let stream = ["stream", "--scale", "0.02"];
    let serve = ["serve", "--script", script_path];
    for (command, flag) in [
        (&stream[..], "--threads"),
        (&stream[..], "--queue"),
        (&stream[..], "--checkpoint-every"),
        (&stream[..], "--drain-after"),
        (&serve[..], "--threads"),
        (&serve[..], "--queue"),
        (&serve[..], "--max-sources"),
    ] {
        let complaint = format!("invalid {flag} \"0\"");
        refused(command, &[flag, "0"], None, &complaint);
    }
    for command in [&stream[..], &serve[..]] {
        for bad in ["four", "0"] {
            let complaint = format!("error: invalid GENPIP_PARALLELISM {bad:?}");
            refused(command, &[], Some(bad), &complaint);
        }
    }
    let unpacked = std::env::temp_dir().join(format!("genpip-cli-{}.gsc", std::process::id()));
    let unpacked_path = unpacked.to_str().expect("utf-8 temp path");
    for (command, extra, stray) in [
        (&["run"][..], &["ecoli"][..], "ecoli"),
        (&["pack"], &["oops", "--out", unpacked_path], "oops"),
        (&["experiment", "tab02"], &["fig10"], "fig10"),
        (&["inspect", "a.gsc"], &["b.gsc"], "b.gsc"),
        (&stream, &["-threads", "4"], "-threads"),
        (&serve, &["now"], "now"),
    ] {
        let complaint = format!("error: unexpected argument {stray:?} for '{}'", command[0]);
        refused(command, extra, None, &complaint);
    }
    assert!(!unpacked.exists(), "a refused pack wrote its container");
    let _ = std::fs::remove_file(&script);
}

/// Input the command line used to swallow is refused instead, before any
/// banner: `--profile` beside an explicit source (it was dropped), a
/// checkpoint cadence with no `--checkpoint` to write (nothing was written),
/// and a second occurrence of a single-valued option (the first was never
/// looked at) — the `twice` column of the option sweep. The repeatable
/// options still repeat.
#[test]
fn swallowed_inputs_are_refused_before_any_banner() {
    let script = serve_script("twice");
    let script_path = script.to_str().expect("utf-8 temp path");
    let stream = ["stream", "--scale", "0.02"];
    let serve = ["serve", "--script", script_path];
    let no_profile = "error: --profile applies only without --source/--signal-in";
    for explicit in [["--source", "profile=ecoli"], ["--signal-in", "x.gsc"]] {
        let extra = [&["--profile", "human"][..], &explicit].concat();
        refused(&stream, &extra, None, no_profile);
    }
    let no_cadence = "error: --checkpoint-every applies only with --checkpoint";
    refused(&stream, &["--checkpoint-every", "7"], None, no_cadence);
    for (command, option, values) in [
        (&stream[..], "--queue", ["0", "3"]),
        (&stream, "--threads", ["2", "2"]),
        (&["stream"], "--scale", ["0.02", "0.02"]),
        (&stream, "--schedule", ["fair", "priority"]),
        (&stream, "--checkpoint-every", ["0", "7"]),
        (&serve, "--queue", ["0", "3"]),
        (&serve, "--threads", ["2", "2"]),
        (&serve, "--max-sources", ["0", "3"]),
        (&["serve"], "--script", [script_path, script_path]),
        (&["run"], "--er", ["bogus", "full"]),
    ] {
        let extra = [option, values[0], option, values[1]];
        let complaint = format!("error: option {option} given twice");
        refused(command, &extra, None, &complaint);
    }
    let (ok, stderr) = genpip(&[
        "stream",
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
    let _ = std::fs::remove_file(&script);
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
/// the banner shows weights under `priority` and nowhere else.
#[test]
fn the_removed_deadline_schedule_and_target_key_are_rejected_everywhere() {
    // The scripts spell the keys on a *live* attach step: those are parsed
    // up front too, not when the step fires.
    let script_with = |key: &str| {
        let path =
            std::env::temp_dir().join(format!("genpip-cli-{key}-{}.script", std::process::id()));
        let text = format!("attach a profile=ecoli\nat 3 attach b profile=ecoli,{key}=2\n");
        std::fs::write(&path, text).expect("write script");
        path.to_str().expect("utf-8 temp path").to_string()
    };
    let (targeted, weighted) = (script_with("target"), script_with("weight"));
    let stream = ["stream", "--scale", "0.02"];
    let serve = ["serve", "--script", &targeted];
    let serve_weighted = ["serve", "--script", &weighted];
    let no_target = "unknown key \"target\" (use profile, file, scale, offset, weight";
    for (command, extra, complaint) in [
        (
            &stream[..],
            &["--schedule", "deadline"][..],
            "invalid --schedule \"deadline\" (use fair, sequential, or priority)",
        ),
        (
            &stream,
            &["--schedule", "bogus"],
            "invalid --schedule \"bogus\" (use fair, sequential, or priority)",
        ),
        (
            &serve,
            &["--schedule", "deadline"],
            "invalid --schedule \"deadline\" (use fair, sequential, or priority)",
        ),
        (&stream, &["--source", "profile=ecoli,target=40"], no_target),
        (&stream, &["--signal-in", "x.gsc,target=40"], no_target),
        (&serve, &[], no_target),
        (
            &serve_weighted,
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
        let args = [&stream[..], &["--progress", "0", "--schedule", schedule]].concat();
        let sources = ["--source", first, "--source", "profile=ecoli,name=b"];
        let out = genpip_output(&[&args[..], &sources].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{schedule} {first}: stderr: {stderr}");
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let weighted = two_sources("priority", "profile=ecoli,name=a,weight=3");
    assert!(weighted.contains("under Priority([3, 1])"), "{weighted}");
    assert!(weighted.contains(", weight 3)") && weighted.contains(", weight 1)"));
    let fair = two_sources("fair", "profile=ecoli,name=a");
    assert!(!fair.contains("weight"), "{fair}");
}

/// The retry fault policy was removed on evidence (PR 23): its `--on-fault`
/// spellings are refused like any unknown policy, before any banner, with a
/// message that says what to use and why.
#[test]
fn the_removed_retry_policy_is_refused_on_run_and_stream() {
    let (run, stream) = (["run", "--scale", "0.02"], ["stream", "--scale", "0.02"]);
    for command in [&run[..], &stream[..]] {
        for policy in ["retry", "retry:2", "bogus"] {
            let complaint = format!(
                "error: invalid --on-fault {policy:?} (use fail or quarantine; a read is a \
                 pure function of its signal, so a retry faults again)"
            );
            refused(command, &["--on-fault", policy], None, &complaint);
        }
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
    ];
    let signal_in: &[(&str, &str)] = &[
        ("x.gsc,heavy", "is not key=value"),
        ("x.gsc,wieght=2", "unknown key \"wieght\""),
        ("x.gsc,weight=two", "invalid weight \"two\""),
        ("x.gsc,offset=k", "invalid offset \"k\""),
        (
            "x.gsc,weight=2",
            "key \"weight\" applies only under --schedule priority",
        ),
        ("x.gsc,profile=ecoli", "both profile= and file="),
        ("name=x", "must start with a container path"),
        (
            "x.gsc,scale=0.5",
            "key \"scale\" applies only to profile= sources",
        ),
        ("x.gsc,weight=1,weight=2", "key \"weight\" given twice"),
        ("x.gsc,file=y.gsc", "key \"file\" given twice"),
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
    for (flag, command, table) in [
        ("--reference", "run", reference),
        ("--source", "stream", source),
        ("--signal-in", "stream", signal_in),
        ("attach", "serve", attach),
    ] {
        for (spec, complaint) in table {
            let out = if flag == "attach" {
                std::fs::write(&script, format!("attach a {spec}\n")).expect("write script");
                genpip_output(&[command, "--script", script_path])
            } else {
                genpip_output(&[command, "--scale", "0.02", flag, spec])
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
