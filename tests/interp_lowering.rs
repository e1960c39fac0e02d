//! Differential testing of the fast runtime.
//!
//! Every program in `tests/corpus/` is executed through `mayac` once per
//! execution tier:
//!
//! * **legacy** — `MAYA_NO_LOWER=1`: the tree-walking interpreter;
//! * **bytecode** — the default: lowered bodies compiled to flat register
//!   bytecode with polymorphic inline caches and superinstructions
//!   (bodies the lowering declines, such as `try`, stay on the walker).
//!
//! Stdout, stderr, and the exit status must be byte-identical across
//! both — the bytecode tier is an optimization, never a semantic change.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

struct Directives {
    args: Vec<String>,
}

fn parse_directives(src: &str) -> Directives {
    let mut args = Vec::new();
    for line in src.lines() {
        let Some(rest) = line.trim().strip_prefix("//") else { break };
        if let Some(a) = rest.trim().strip_prefix("mayac:") {
            args = a.split_whitespace().map(str::to_string).collect();
        }
    }
    Directives { args }
}

/// Runs `file` on the legacy walker (`lowering` off) or the bytecode VM.
fn run(cwd: &Path, d: &Directives, file: &str, lowering: bool) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_mayac"));
    cmd.current_dir(cwd).args(&d.args).arg(file);
    // The variable is set on the child only; the test process environment
    // is never mutated.
    cmd.env("MAYA_NO_LOWER", if lowering { "0" } else { "1" });
    cmd.output().unwrap()
}

/// One test over the whole corpus (not one per program) so the report shows
/// every divergence at once and the corpus never partially runs.
#[test]
fn both_tiers_agree() {
    let dir = corpus_dir();
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| {
            let name = e.unwrap().file_name().into_string().unwrap();
            name.ends_with(".maya").then_some(name)
        })
        .collect();
    names.sort();
    assert!(names.len() >= 25, "corpus shrank ({} programs)", names.len());

    let mut failures = Vec::new();
    for name in &names {
        let src = std::fs::read_to_string(dir.join(name)).unwrap();
        let d = parse_directives(&src);
        let baseline = run(&dir, &d, name, false);
        let fast = run(&dir, &d, name, true);
        if fast.status.code() != baseline.status.code() {
            failures.push(format!(
                "{name}: exit status diverged (bytecode {:?}, legacy {:?})",
                fast.status.code(),
                baseline.status.code()
            ));
        }
        for (channel, a, b) in [
            ("stdout", &fast.stdout, &baseline.stdout),
            ("stderr", &fast.stderr, &baseline.stderr),
        ] {
            if a != b {
                failures.push(format!(
                    "{name}: {channel} diverged between bytecode and legacy\n\
                     --- bytecode ---\n{}\n--- legacy ---\n{}",
                    String::from_utf8_lossy(a),
                    String::from_utf8_lossy(b)
                ));
            }
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n======\n"));
}
