//! The fast-path caches, end to end: LALR table reuse (in-process and
//! on-disk), mid-pipeline invalidation, corruption tolerance, and the
//! `--jobs` determinism guarantee.
//!
//! The table cache and the dispatch index are thread-local, and `cargo
//! test` runs every `#[test]` on its own thread, so these tests cannot
//! observe each other's cache state.

use maya::telemetry::{self, Counter};
use maya::Compiler;
use std::process::Command;

const HELLO: &str = r#"class Main { static void main() { System.out.println("ok"); } }"#;

fn example(name: &str) -> String {
    let p = format!("{}/examples/maya/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("{p}: {e}"))
}

/// Compiles and runs the eforeach extension + application pair.
fn compile_extension_pair() {
    let c = Compiler::new();
    c.add_source("eforeach_ext.maya", &example("eforeach_ext.maya")).unwrap();
    c.add_source("eforeach_app.maya", &example("eforeach_app.maya")).unwrap();
    c.compile().unwrap();
    c.run_main("Main").unwrap();
}

/// A program that declares a keyword-led statement and imports it: its
/// extended grammar is one the binary does not ship tables for, so a cold
/// table cache must build them (a shipped extension's, like the eforeach
/// pair's `EachOf`, which adds Foreach's production, are compiled in).
const DECLARED_SYNTAX: &str = r#"abstract Statement syntax(repeat(Expression) lazy(BraceTree, BlockStmts));

Statement syntax
Repeat(repeat(Expression n) lazy(BraceTree, BlockStmts) body)
{
    return new Statement {
        for (int counter = 0; counter < $n; counter++) {
            $body
        }
    };
}

class Main {
    static void main() {
        use Repeat;
        repeat (2) { System.out.println("ok"); }
    }
}
"#;

/// Compiles and runs [`DECLARED_SYNTAX`].
fn compile_declared_syntax() {
    let c = Compiler::new();
    c.add_source("repeat.maya", DECLARED_SYNTAX).unwrap();
    c.compile().unwrap();
    assert_eq!(c.run_main("Main").unwrap(), "ok\nok\n");
}

fn counters(f: impl FnOnce()) -> impl Fn(Counter) -> u64 {
    let s = telemetry::Session::start(telemetry::Config::default());
    f();
    let r = s.finish();
    move |c| r.counter(c)
}

#[test]
fn table_cache_reuses_tables_across_compilers() {
    maya::grammar::clear_table_cache();

    let cold = counters(compile_declared_syntax);
    assert!(cold(Counter::TablesBuilt) > 0, "cold run must build tables");
    // (The cold run may already record hits: a grammar demanded twice
    // within one compilation is served from the memo the second time.)
    assert!(cold(Counter::TableCacheMisses) > 0, "cold run must miss");

    let warm = counters(compile_declared_syntax);
    assert_eq!(warm(Counter::TablesBuilt), 0, "warm run must reuse every table");
    assert!(warm(Counter::TableCacheHits) > 0);
    assert_eq!(warm(Counter::TableCacheMisses), 0);
}

/// A mid-pipeline grammar extension changes the content hash, so the
/// extended grammar misses (and is built) even when the base grammar hits.
#[test]
fn table_cache_misses_on_a_new_grammar_mid_pipeline() {
    maya::grammar::clear_table_cache();

    // The base grammar's tables are compiled into the binary: a cold
    // cache builds none.
    let base = counters(|| {
        let c = Compiler::new();
        c.add_source("Main.maya", HELLO).unwrap();
        c.compile().unwrap();
    });
    assert_eq!(
        base(Counter::TablesBuilt),
        0,
        "the base tables are embedded"
    );
    assert!(
        base(Counter::TableCacheHits) > 0,
        "the embedded tables count as hits"
    );

    // The program starts from the cached base grammar but must still
    // build tables for the extended grammar it creates mid-run.
    let ext = counters(compile_declared_syntax);
    assert!(ext(Counter::TableCacheHits) > 0, "the base grammar is already cached");
    assert!(ext(Counter::TableCacheMisses) > 0, "the extended grammar is new");
    assert!(ext(Counter::TablesBuilt) > 0, "the extended grammar must be built");
}

/// The dispatch index stays sound while the environment changes mid-file
/// (`use` imports new Mayans), and switching it off round-trips: the
/// output is identical with and without the index.
#[test]
fn dispatch_index_preserves_output_across_env_changes() {
    let run = || {
        let c = Compiler::new();
        c.add_source("eforeach_ext.maya", &example("eforeach_ext.maya")).unwrap();
        c.add_source("eforeach_app.maya", &example("eforeach_app.maya")).unwrap();
        c.compile().unwrap();
        c.run_main("Main").unwrap()
    };

    maya::dispatch::set_dispatch_index_enabled(true);
    let s = telemetry::Session::start(telemetry::Config::default());
    let indexed = run();
    let r = s.finish();
    assert!(r.counter(Counter::DispatchIndexHits) > 0, "the index must actually engage");

    maya::dispatch::set_dispatch_index_enabled(false);
    let s = telemetry::Session::start(telemetry::Config::default());
    let linear = run();
    let r = s.finish();
    assert_eq!(r.counter(Counter::DispatchIndexHits), 0);
    assert_eq!(r.counter(Counter::DispatchIndexMisses), 0);
    maya::dispatch::set_dispatch_index_enabled(true);

    assert_eq!(indexed, linear, "the index must never change program output");
}

/// The dispatch index earns its place: on the eforeach pair it runs fewer
/// applicability tests per reduction than the seed did and than the
/// linear scan does today.
#[test]
fn dispatch_index_runs_fewer_tests_per_reduction() {
    // The seed tested every registered Mayan for applicability: 782 tests
    // for 470 reductions on the benchmark workloads.
    let seed = 782.0 / 470.0;
    let tests_per_reduction = |indexed: bool| {
        maya::dispatch::set_dispatch_index_enabled(indexed);
        let n = counters(compile_extension_pair);
        maya::dispatch::set_dispatch_index_enabled(true);
        let reductions = n(Counter::DispatchReductions);
        assert!(reductions > 0, "the pair must dispatch");
        n(Counter::DispatchTests) as f64 / reductions as f64
    };
    let indexed = tests_per_reduction(true);
    let linear = tests_per_reduction(false);
    assert!(indexed < seed, "indexed {indexed:.3} tests per reduction, seed {seed:.3}");
    assert!(indexed < linear, "indexed {indexed:.3}, linear scan {linear:.3}");
}

#[test]
fn corrupted_disk_cache_is_ignored_and_rebuilt() {
    let dir = std::env::temp_dir().join(format!("maya-tblcache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = maya::core::store::ArtifactStore::open(&dir, None).unwrap();
    maya::core::store::install_thread(Some(store));
    maya::grammar::clear_table_cache();

    // First run populates the directory.
    let cold = counters(compile_declared_syntax);
    assert!(cold(Counter::TablesBuilt) > 0);
    let files: Vec<_> = std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path()).collect();
    assert!(!files.is_empty(), "the disk cache must be written");

    // Clear the in-process memo: the next run must come from disk.
    maya::grammar::clear_table_cache();
    let disk = counters(compile_declared_syntax);
    assert_eq!(disk(Counter::TablesBuilt), 0, "a clean disk cache serves every table");

    // Corrupt every cache file; the run must silently rebuild, not fail.
    for f in &files {
        std::fs::write(f, b"not a table cache").unwrap();
    }
    maya::grammar::clear_table_cache();
    let corrupt = counters(compile_declared_syntax);
    assert!(corrupt(Counter::TablesBuilt) > 0, "corrupt entries must be rebuilt");

    // And the rebuild repaired the disk cache in passing.
    maya::grammar::clear_table_cache();
    let repaired = counters(compile_declared_syntax);
    assert_eq!(repaired(Counter::TablesBuilt), 0, "the rewrite must be readable again");

    maya::core::store::install_thread(None);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- --jobs determinism ------------------------------------------------------

fn mayac() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mayac"))
}

fn write_temp(name: &str, text: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("maya-perf-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let p = dir.join(name);
    std::fs::write(&p, text).unwrap();
    p
}

fn run_with_jobs(files: &[&std::path::Path], jobs: &str) -> (bool, Vec<u8>, Vec<u8>) {
    let out = mayac().arg(jobs).args(files).output().unwrap();
    (out.status.success(), out.stdout, out.stderr)
}

#[test]
fn jobs_do_not_change_output_or_diagnostics() {
    // Success case: a multi-file program.
    let a = write_temp("ok_helper.maya", "class Helper { static int n() { return 41; } }");
    let b = write_temp(
        "ok_main.maya",
        r#"class Main { static void main() { System.out.println(Helper.n() + 1); } }"#,
    );
    let one = run_with_jobs(&[&a, &b], "--jobs=1");
    let four = run_with_jobs(&[&a, &b], "--jobs=4");
    assert!(one.0, "{}", String::from_utf8_lossy(&one.2));
    assert_eq!(one, four, "--jobs must not change a successful run");
    assert_eq!(String::from_utf8_lossy(&one.1), "42\n");

    // Failure case: lex errors in two files must come out in file order,
    // byte-identically, at any worker count.
    let bad1 = write_temp("bad1.maya", "class A { int x = \x01; }");
    let bad2 = write_temp("bad2.maya", "class B { int y = \x02; }");
    let one = run_with_jobs(&[&bad1, &bad2, &b], "--jobs=1");
    let four = run_with_jobs(&[&bad1, &bad2, &b], "--jobs=4");
    assert!(!one.0);
    assert_eq!(one, four, "--jobs must not change diagnostics");
    let stderr = String::from_utf8_lossy(&one.2);
    let p1 = stderr.find("bad1.maya").expect("bad1 diagnosed");
    let p2 = stderr.find("bad2.maya").expect("bad2 diagnosed");
    assert!(p1 < p2, "diagnostics must stay in file order:\n{stderr}");
}
