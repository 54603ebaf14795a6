//! The tree's grep lints, one table row each: names removed on evidence
//! stay removed, each kernel and step keeps one definition, and test-only
//! oracles stay out of shipped code.
//!
//! A rule is a pattern, the paths it scans, what it skips and why it
//! exists. A pattern is alternatives separated by `|`, each literal text
//! except for two spellings: ` *` matches any run of spaces and `\b` a word
//! boundary. The scan walks the tree with `std::fs` (skipping `target` and
//! hidden directories, and this file, which spells every pattern), so it
//! sees untracked files too. Every rule carries a fixture that each of its
//! alternatives must match, so an alternative that can no longer fire fails
//! here rather than passing silently.

use std::fs;
use std::path::{Path, PathBuf};

struct Rule {
    name: &'static str,
    /// Alternatives separated by `|`.
    pattern: &'static str,
    paths: &'static [&'static str],
    /// How many lines each alternative must match: 0, or 1 for a rule of
    /// one definition.
    lines_each: usize,
    /// Files skipped, by path suffix.
    skip_files: &'static [&'static str],
    /// A line containing any of these is not a finding.
    skip_lines: &'static [&'static str],
    /// A file of further `skip_lines`, one a line (`#` lines are comments).
    allowlist: Option<&'static str>,
    /// `(file, opening line)`: the first finding inside the item that
    /// opens there (up to the next line starting with `}`) is allowed.
    allow_first_in: Option<(&'static str, &'static str)>,
    fixture: &'static str,
    reason: &'static str,
}

const RULE: Rule = Rule {
    name: "",
    pattern: "",
    paths: &[],
    lines_each: 0,
    skip_files: &[],
    skip_lines: &[],
    allowlist: None,
    allow_first_in: None,
    fixture: "",
    reason: "",
};

const RULES: &[Rule] = &[
    Rule {
        name: "coordinate width: no new bare `as u32` casts",
        pattern: "as u32",
        paths: &["crates/mapping/src", "crates/pim/src"],
        allowlist: Some("tools/u32-cast-allowlist.txt"),
        fixture: "let end = pos as u32;",
        reason: "reference coordinates are u64 (`RefPos`) end to end; a bare cast is \
                 presumed a truncation until tools/u32-cast-allowlist.txt vets it",
        ..RULE
    },
    Rule {
        name: "no allow(deprecated)",
        pattern: "allow(deprecated)",
        paths: &["crates", "src", "tests", "examples"],
        fixture: "#[allow(deprecated)]",
        reason: "nothing deprecated is left to call: remove the item or its caller",
        ..RULE
    },
    Rule {
        name: "names removed on evidence stay removed",
        pattern: "Granularity|reject_backlog|ChainStep|ReadChain|GenPipPhase|\
                  Schedule::Deadline|deadline_target|DeadlineTarget|type Registry|\
                  struct Registered|FaultPolicy::Retry|retry_attempts|on_retry|\
                  start_tick|resident_units",
        paths: &["crates", "src", "tests", "examples"],
        skip_lines: &["max_reject_backlog"],
        fixture: "Granularity reject_backlog ChainStep ReadChain GenPipPhase \
                  Schedule::Deadline deadline_target DeadlineTarget type Registry \
                  struct Registered FaultPolicy::Retry retry_attempts on_retry \
                  start_tick resident_units",
        reason: "chunk-task scheduling and its chunk-step protocol, the Deadline \
                 schedule, the second per-source registry, and the retry policy with \
                 its residency clock lost or tied on measurement (ROADMAP's Closed \
                 list); `max_reject_backlog` is an always-0 report field kept until \
                 the benchmark stops reading it",
        ..RULE
    },
    Rule {
        name: "the alignment band has no read-length term",
        pattern: "len() */ *20",
        paths: &["crates/mapping/src/mapper.rs"],
        fixture: "let hw = margin + query.len() / 20;",
        reason: "the band is a corridor along the chain: drift is charged to the \
                 longest anchor-free stretch, not the read's length",
        ..RULE
    },
    Rule {
        name: "one session subcommand",
        pattern: "\"stream\"|\"serve\"|genpip stream\\b|genpip serve\\b|signal-in|\
                  drain-after",
        paths: &["src/bin/genpip.rs"],
        fixture: "\"stream\" \"serve\" genpip stream genpip serve --signal-in --drain-after",
        reason: "run is the one session subcommand; `--source file=` and a script's \
                 `at N drain` are the spellings of the folded options",
        ..RULE
    },
    Rule {
        name: "one spelling of a source's settings",
        pattern: "source_with_config|PriorityWeightCount|Priority(vec|Priority(Vec|\
                  pending_sinks|attach_sinks|with_weights",
        paths: &["crates", "src", "examples", "tests", "README.md"],
        fixture: "source_with_config PriorityWeightCount Priority(vec![1]) Priority(Vec::new()) \
                  pending_sinks attach_sinks with_weights",
        reason: "a source's config, weight and sink are its AttachSpec's \
                 (Session::source_with / SessionControl::attach_with)",
        ..RULE
    },
    Rule {
        name: "one definition of each kernel and step",
        pattern: "fn decode_with|fn traceback\\b|fn walk\\b|fn init_row|fn minimizers_into|\
                  fn step_score|fn checksum\\b|fn banded_global|fn fill\\b|fn row\\b|\
                  fn map_with\\b|fn seed_and_chain\\b",
        paths: &["crates/*/src"],
        lines_each: 1,
        fixture: "fn decode_with( fn traceback( fn walk<R>( fn init_row( fn minimizers_into( \
                  fn step_score( fn checksum( fn banded_global( fn fill<T>( fn row( \
                  fn map_with( fn seed_and_chain(",
        reason: "the Viterbi decode has one record layout and one traceback walk, generic \
                 over how it reads the records; the mapping front end one \
                 sketch entry and one chain step; GSC one checksum; the alignment one \
                 kernel, row loop and AVX2 row; and both flows map \
                 through ReferenceSet's one seed-and-chain step, run whole-read by the \
                 one whole-read mapper. Replaced bodies live only in test-only \
                 `differential` modules, under other names",
        ..RULE
    },
    Rule {
        name: "the i32 alignment row stays test-only",
        pattern: "_mm256_max_epi32",
        paths: &["crates/mapping/src"],
        skip_files: &["differential.rs"],
        fixture: "let h = _mm256_max_epi32(a, b);",
        reason: "the alignment rows are i16 under the proved spread bound; the i32 AVX2 \
                 row is an oracle of align/differential.rs and nothing else",
        ..RULE
    },
    Rule {
        name: "the f32 Viterbi row stays test-only",
        pattern: "_mm256_max_ps|fn f32_decode\\b",
        paths: &["crates/basecall/src"],
        skip_files: &["differential.rs"],
        allow_first_in: Some(("crates/basecall/src/viterbi/avx2.rs", "fn bins(")),
        fixture: "let m = _mm256_max_ps(a, b); fn f32_decode(",
        reason: "the decode is fixed point; the f32 decode is the accuracy reference of \
                 viterbi/differential.rs only. The one max allowed is the clamp in the \
                 AVX2 bin pass, which sends NaN samples to bin 0",
        ..RULE
    },
    Rule {
        name: "no per-state Viterbi decision records",
        pattern: "take_words|group_choice|take_x",
        paths: &["crates/basecall/src"],
        skip_files: &["differential.rs"],
        fixture: "take_words group_choice take_x",
        reason: "a row records the score row and its group maxima, and the traceback \
                 decides at the path's state only",
        ..RULE
    },
    Rule {
        name: "the residual sum restarts under a mask",
        pattern: "{ 0.0 } else|fn assemble_chunk\\b",
        paths: &["crates/basecall/src"],
        skip_files: &["differential.rs"],
        fixture: "sum = if advanced[t] { 0.0 } else { sum } + r; fn assemble_chunk(",
        reason: "a select on the advance flag compiles to a branch that cold chunks \
                 mispredict; the one-call assembly the decode and quality steps \
                 replaced is the oracle of basecaller/differential.rs only",
        ..RULE
    },
];

fn is_word(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Whether `pat` matches at the start of `text`; `before` is the character
/// in front of `text`.
fn matches_here(pat: &str, text: &str, before: Option<char>) -> bool {
    if let Some(rest) = pat.strip_prefix(" *") {
        let spaces = text.len() - text.trim_start_matches(' ').len();
        return (0..=spaces)
            .rev()
            .any(|n| matches_here(rest, &text[n..], if n > 0 { Some(' ') } else { before }));
    }
    if let Some(rest) = pat.strip_prefix("\\b") {
        let boundary = before.is_some_and(is_word) != text.chars().next().is_some_and(is_word);
        return boundary && matches_here(rest, text, before);
    }
    match pat.chars().next() {
        None => true,
        Some(c) => {
            text.starts_with(c)
                && matches_here(&pat[c.len_utf8()..], &text[c.len_utf8()..], Some(c))
        }
    }
}

fn matches(pat: &str, line: &str) -> bool {
    line.char_indices()
        .map(|(i, _)| i)
        .chain([line.len()])
        .any(|i| matches_here(pat, &line[i..], line[..i].chars().next_back()))
}

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The directories `path` names: a `*` component stands for every entry.
fn expand(path: &str) -> Vec<PathBuf> {
    let Some((prefix, suffix)) = path.split_once("/*/") else {
        return vec![root().join(path)];
    };
    let mut dirs: Vec<PathBuf> = fs::read_dir(root().join(prefix))
        .unwrap_or_else(|e| panic!("{prefix}: {e}"))
        .map(|entry| {
            entry
                .expect("a readable directory entry")
                .path()
                .join(suffix)
        })
        .filter(|dir| dir.exists())
        .collect();
    dirs.sort();
    dirs
}

/// Every file under `path` (or `path` itself), in name order.
fn walk(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
        return;
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(path)
        .unwrap_or_else(|e| panic!("{}: {e}", path.display()))
        .map(|entry| entry.expect("a readable directory entry").path())
        .collect();
    entries.sort();
    for entry in entries {
        let name = entry.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if entry.is_dir() && (name == "target" || name.starts_with('.')) {
            continue;
        }
        walk(&entry, out);
    }
}

/// The rule's findings: the alternatives a line matches, and the line as
/// `path:line: text`.
fn scan(rule: &Rule) -> Vec<(Vec<usize>, String)> {
    let root = root();
    let mut skip_lines: Vec<String> = rule.skip_lines.iter().map(|s| s.to_string()).collect();
    if let Some(list) = rule.allowlist {
        let text = fs::read_to_string(root.join(list)).expect("the allowlist is readable");
        skip_lines.extend(
            text.lines()
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(str::to_string),
        );
    }
    let mut files = Vec::new();
    for dir in rule.paths.iter().flat_map(|path| expand(path)) {
        walk(&dir, &mut files);
    }
    let alternatives: Vec<&str> = rule.pattern.split('|').collect();
    let mut findings = Vec::new();
    for file in files {
        let rel = file.strip_prefix(&root).expect("under the root");
        let rel = rel.to_string_lossy().replace('\\', "/");
        if rel == "tests/lints.rs" || rule.skip_files.iter().any(|s| rel.ends_with(s)) {
            continue;
        }
        let bytes = fs::read(&file).expect("a readable file");
        let text = String::from_utf8_lossy(&bytes);
        let mut inside = false;
        let mut allowed_used = false;
        for (n, line) in text.lines().enumerate() {
            if let Some((allowed_file, opening)) = rule.allow_first_in {
                if rel == allowed_file {
                    if line.contains(opening) {
                        inside = true;
                    } else if line.starts_with('}') {
                        inside = false;
                    }
                }
            }
            let hits: Vec<usize> = (0..alternatives.len())
                .filter(|&a| matches(alternatives[a], line))
                .collect();
            if hits.is_empty() || skip_lines.iter().any(|s| line.contains(s.as_str())) {
                continue;
            }
            if inside && !allowed_used {
                allowed_used = true;
                continue;
            }
            findings.push((hits, format!("{rel}:{}: {}", n + 1, line.trim())));
        }
    }
    findings
}

#[test]
fn every_rule_holds_on_the_tree() {
    let mut failures = Vec::new();
    for rule in RULES {
        let findings = scan(rule);
        let mut broken = Vec::new();
        for (p, pattern) in rule.pattern.split('|').enumerate() {
            let lines: Vec<&String> = findings
                .iter()
                .filter(|(hits, _)| hits.contains(&p))
                .map(|(_, line)| line)
                .collect();
            if lines.len() != rule.lines_each {
                broken.push(format!(
                    "`{pattern}`: {} lines, {} expected",
                    lines.len(),
                    rule.lines_each
                ));
                broken.extend(lines.into_iter().cloned());
            }
        }
        if !broken.is_empty() {
            failures.push(format!(
                "{}:\n  {}\n  why: {}",
                rule.name,
                broken.join("\n  "),
                rule.reason
            ));
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n\n"));
}

#[test]
fn every_pattern_matches_its_rules_fixture() {
    for rule in RULES {
        assert!(!rule.reason.is_empty(), "{}: no reason", rule.name);
        for pattern in rule.pattern.split('|') {
            assert!(
                matches(pattern, rule.fixture),
                "{}: `{pattern}` does not match its fixture",
                rule.name
            );
        }
    }
}

#[test]
fn spaces_and_word_boundaries_match_as_documented() {
    assert!(matches("len() */ *20", "x.len()/20"));
    assert!(matches("len() */ *20", "x.len()  /  20"));
    assert!(!matches("len() */ *20", "x.len() / 2"));
    assert!(matches("fn row\\b", "fn row("));
    assert!(matches("fn row\\b", "fn row"));
    assert!(!matches("fn row\\b", "fn rows("));
    assert!(!matches("fn checksum\\b", "fn checksum_of("));
}
