//! The `genpip` command line rejects what it does not understand: every
//! subcommand has an accepted-option list, and anything outside it — a
//! stray option, a typo of a real one, a removed one — is a loud error
//! rather than a silently ignored `--key value` pair.

use std::process::Command;

/// Runs `genpip` with `args`; returns (exit success, stderr).
fn genpip(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_genpip"))
        .args(args)
        .output()
        .expect("spawn genpip");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
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
