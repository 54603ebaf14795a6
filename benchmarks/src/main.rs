//! The GenPIP-rs benchmark. See `README.md` beside this package and
//! `BENCHMARK.json` at the repository root.
//!
//! ```text
//! genpip-perfbench --workload NAME --seed N --seconds S --trace 0|1
//!                  [--out DIR] [--tsv FILE] [--quick] [--strict-design]
//! genpip-perfbench --quick                  # every workload, both modes, tiny
//! genpip-perfbench --emit-benchmark-json    # renders ../BENCHMARK.json
//! genpip-perfbench --compare A.tsv B.tsv    # two result tables within bounds?
//! ```

mod host;
mod kernels;
mod metrics;
mod probe;
mod run;
mod session;
mod stats;
mod trace;
mod workload;

use run::{RunArgs, RunOutcome};
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
    tsv: Option<PathBuf>,
    quick: bool,
    strict_design: bool,
}

enum Command {
    Run(Cli),
    EmitBenchmarkJson,
    Compare(PathBuf, PathBuf),
}

fn parse(args: &[String]) -> Result<Command, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: f64::from(metrics::RUN_SECONDS),
        trace: false,
        out_dir: PathBuf::from("benchmarks/out"),
        tsv: None,
        quick: false,
        strict_design: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => cli.workload = Some(value("a workload name")?),
            "--seed" => {
                let v = value("a whole number")?;
                cli.seed = v
                    .parse()
                    .map_err(|_| format!("--seed {v}: not a whole number"))?;
            }
            "--seconds" => {
                let v = value("a number of seconds")?;
                cli.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds {v}: not a positive number"))?;
            }
            "--trace" => {
                cli.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v}: expected 0 or 1")),
                }
            }
            "--out" => cli.out_dir = PathBuf::from(value("a directory")?),
            "--tsv" => cli.tsv = Some(PathBuf::from(value("a file")?)),
            "--quick" => cli.quick = true,
            "--strict-design" => cli.strict_design = true,
            "--emit-benchmark-json" => return Ok(Command::EmitBenchmarkJson),
            "--compare" => {
                let a = PathBuf::from(value("two result tables")?);
                return Ok(Command::Compare(
                    a,
                    PathBuf::from(value("two result tables")?),
                ));
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if cli.workload.is_none() && !cli.quick {
        return Err("--workload is required (or --quick for the smoke run)".to_string());
    }
    Ok(Command::Run(cli))
}

/// Runs one workload in one mode and prints its table and result line.
/// Returns whether every check passed.
fn run_one(cli: &Cli, workload: &'static workload::Workload, trace: bool) -> Result<bool, String> {
    let args = RunArgs {
        workload,
        seed: cli.seed,
        seconds: if cli.quick { 0.2 } else { cli.seconds },
        trace,
        quick: cli.quick,
        out_dir: cli.out_dir.clone(),
    };
    let RunOutcome {
        values,
        attempted,
        failures,
        design_notes,
        notes,
    } = run::run(&args)?;
    let design_ok = design_notes.is_empty() || !cli.strict_design || cli.quick;
    let correct = failures.count == 0 && design_ok;
    let line = metrics::result_line(&values, trace, correct, attempted, failures.count)?;

    let mut out = std::io::stdout().lock();
    let mut table = String::new();
    table.push_str(&format!(
        "# {} seed {} trace {} ({} reads attempted, {} failed)\n",
        workload.name,
        cli.seed,
        u8::from(trace),
        attempted,
        failures.count
    ));
    for (name, unit) in metrics::names_for(trace) {
        let value = values.get(name).expect("result_line checked presence");
        table.push_str(&format!("{name:<36} {value:>18.6} {unit}\n"));
    }
    for note in &notes {
        table.push_str(&format!("# {note}\n"));
    }
    for note in &failures.notes {
        table.push_str(&format!("# FAILED: {note}\n"));
    }
    for note in &design_notes {
        table.push_str(&format!("# design expectation not met: {note}\n"));
    }
    // The result line goes last, on its own line.
    writeln!(out, "{table}{line}").map_err(|e| e.to_string())?;

    if let Some(path) = &cli.tsv {
        let mut rows = String::new();
        for (name, unit) in metrics::names_for(trace) {
            let value = values.get(name).expect("result_line checked presence");
            rows.push_str(&format!("{}\t{name}\t{value}\t{unit}\n", workload.name));
        }
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(rows.as_bytes()))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(correct)
}

fn main_inner() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args)? {
        Command::EmitBenchmarkJson => {
            print!("{}", metrics::benchmark_json());
            Ok(true)
        }
        Command::Compare(a, b) => {
            let read = |p: &PathBuf| {
                std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))
            };
            let problems = metrics::compare_tables(&read(&a)?, &read(&b)?);
            for p in &problems {
                println!("DIFFERS {p}");
            }
            if problems.is_empty() {
                println!("every end-to-end metric of every workload agrees within its bound");
            }
            Ok(problems.is_empty())
        }
        Command::Run(cli) => match &cli.workload {
            Some(name) => {
                let workload = workload::find(name).ok_or_else(|| {
                    let known: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name}; known: {}", known.join(", "))
                })?;
                run_one(&cli, workload, cli.trace)
            }
            None => {
                let mut all_ok = true;
                for workload in workload::WORKLOADS {
                    for trace in [false, true] {
                        all_ok &= run_one(&cli, workload, trace)?;
                    }
                }
                Ok(all_ok)
            }
        },
    }
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Command, String> {
        parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_driver_command_line_parses() {
        let Ok(Command::Run(c)) = cli(&[
            "--workload",
            "ecoli_genpip",
            "--seed",
            "42",
            "--seconds",
            "14",
            "--trace",
            "1",
        ]) else {
            panic!("driver arguments rejected");
        };
        assert_eq!(c.workload.as_deref(), Some("ecoli_genpip"));
        assert_eq!((c.seed, c.seconds, c.trace), (42, 14.0, true));
        assert!(cli(&["--trace", "2", "--workload", "x"]).is_err());
        assert!(cli(&["--seconds", "0", "--workload", "x"]).is_err());
        assert!(cli(&["--seed"]).is_err());
        assert!(cli(&[]).is_err(), "a workload or --quick is required");
        assert!(cli(&["--bogus"]).is_err());
    }

    /// The smoke run: every workload, both trace modes, tiny inputs. Checks
    /// what a real run checks (in-order delivery, pass-to-pass and
    /// serial-vs-mt bit-identity, trace ≡ session per read, FASTQ and
    /// checkpoint consistency) — only the design thresholds, which need
    /// full-size inputs, are left out.
    #[test]
    fn quick_mode_exercises_every_workload_and_the_trace_path() {
        let out =
            std::env::temp_dir().join(format!("genpip-perfbench-test-{}", std::process::id()));
        let Ok(Command::Run(mut c)) = cli(&["--quick", "--seed", "5"]) else {
            panic!("--quick rejected");
        };
        c.out_dir = out.clone();
        let started = std::time::Instant::now();
        for workload in workload::WORKLOADS {
            for trace in [false, true] {
                assert_eq!(
                    run_one(&c, workload, trace),
                    Ok(true),
                    "{} trace {trace}",
                    workload.name
                );
            }
            let trace_file = out.join(format!("trace-{}.json", workload.name));
            let json = std::fs::read_to_string(&trace_file).expect("trace file written");
            assert!(json.contains("\"name\":\"basecall.call_chunk\""));
        }
        assert!(
            started.elapsed().as_secs() < 60,
            "quick mode is meant to be quick"
        );
        let _ = std::fs::remove_dir_all(out);
    }
}
