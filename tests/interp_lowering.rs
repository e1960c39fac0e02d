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

/// Compiles and runs `src` in-process on one tier under a telemetry
/// session configured by `config`.
fn run_in_process(
    src: &str,
    lowering: bool,
    config: maya::telemetry::Config,
) -> (String, maya::telemetry::Report) {
    let session = maya::telemetry::Session::start(config);
    let c = maya::Compiler::with_options(maya::CompileOptions {
        echo_output: false,
        jobs: 1,
        ..Default::default()
    });
    c.interp().set_lowering(lowering);
    let out = c.compile_and_run("Main.maya", src, "Main").unwrap();
    (out, session.finish())
}

/// One program that exercises slot resolution and constant folding: a
/// nested block that shadows a static field, places that resolve twice
/// (`x2 += b`, `j++`, `arr[..] += 5`, `arr[1]++`), folds of every kind
/// (`2 * 3`, `"n=" + (4 + 5)`, casts, `null instanceof`, a constant `?:`
/// and a short-circuit with a name in its dead operand) and `k / 1`, which
/// never folds because integer division can throw.
#[test]
fn lowering_counters_are_pinned_on_one_program() {
    use maya::telemetry::{Config, Counter};
    let src = r#"
class Main {
    static int x = 7;
    static int f(int b, int k) {
        int j = 0;
        {
            int x = b;
            int x2 = b;
            x2 += b;
            j++;
            j = j + x + x2;
        }
        int c = 2 * 3;
        String s = "n=" + (4 + 5);
        int d = (int) 3.9 + (char) 66;
        boolean no = null instanceof String;
        boolean z = false && b > 0;
        int t = true ? x : b;
        int q = k / 1;
        int[] arr = new int[2];
        arr[j % 2] += 5;
        arr[1]++;
        if (no || z) { return 0; }
        System.out.println(s);
        return j + c + d + t + q + x + arr[0] + arr[1];
    }
    static void main() {
        System.out.println(f(100, 200));
    }
}
"#;
    let (walker, _) = run_in_process(src, false, Config::default());
    let (vm, r) = run_in_process(src, true, Config::default());
    assert_eq!(walker, "n=9\n596\n");
    assert_eq!(vm, walker);
    let counts = [
        Counter::SlotsResolved,
        Counter::ConstsFolded,
        Counter::BcCompiled,
        Counter::BcSuperinsts,
    ]
    .map(|c| r.counter(c));
    assert_eq!(counts, [30, 9, 2, 8]);
}

/// The VM keys hot binary-op pairs on the source operands, as the walker's
/// `eval_binary` does, so an operand that folded to a constant (`2 + 3`)
/// still counts as a nested `+` under its `*`.
#[test]
fn hot_pair_profile_is_the_same_on_both_tiers() {
    use maya::telemetry::Config;
    let src = r#"
class Main {
    static int f(int x) { return x * (2 + 3) + x * x; }
    static void main() {
        int s = 0;
        for (int i = 0; i < 1000; i++) { s = s + f(i % 7); }
        System.out.println(s);
    }
}
"#;
    let config = || Config {
        profile_interp: Some(10),
        ..Config::default()
    };
    let pairs = |lowering: bool| {
        let (out, r) = run_in_process(src, lowering, config());
        assert_eq!(out, "27962\n");
        r.interp_profile.expect("profile captured").pairs
    };
    let walker = pairs(false);
    assert_eq!(
        walker,
        [
            ("+ \u{227A} *".to_owned(), 2000),
            ("* \u{227A} +".to_owned(), 1000)
        ]
    );
    assert_eq!(pairs(true), walker);
}

/// The interpreter-bound corpus programs on the VM, in process: each
/// prints its golden output, and its polymorphic inline caches take the
/// pinned `[pic_hits, pic_misses]`. A site that stops hitting its cache
/// line, or a change to how often the generic call path looks one up,
/// moves these counts; a change that moves them on purpose updates them
/// and names the cause in its CHANGES.md line.
#[test]
fn interp_hot_programs_hit_their_inline_caches() {
    use maya::telemetry::{Config, Counter};
    let dir = corpus_dir();
    let programs = ["interp_hot_arith", "interp_hot_calls", "interp_hot_strings"];
    let pics = programs.map(|name| {
        let src = std::fs::read_to_string(dir.join(format!("{name}.maya"))).unwrap();
        let golden = std::fs::read_to_string(dir.join(format!("{name}.stdout"))).unwrap();
        let (out, r) = run_in_process(&src, true, Config::default());
        assert_eq!(out, golden, "{name}");
        [Counter::PicHits, Counter::PicMisses].map(|c| r.counter(c))
    });
    assert_eq!(pics, [[43497, 6], [41194, 12], [996, 6]], "{programs:?}");
}
