//! Repo automation (`cargo xtask <command>`).
//!
//! `cargo xtask telemetry` runs the example workloads under a telemetry
//! session, writes the counter snapshot to `BENCH_telemetry.json` at the
//! repo root, and **fails** if the dispatch-test or forced-lazy-node
//! totals regressed by more than 20% against the committed snapshot —
//! catching "the compiler silently started doing much more work" before
//! it lands. It also enforces the paper's laziness claim on the
//! source-extension workload: forced lazy nodes must stay strictly below
//! created lazy nodes. Two more gates ride along: the Chrome trace
//! emitted by the span layer must validate (complete events, per-track
//! nesting, phase coverage), and the interp_hot workload run with
//! telemetry fully disabled must stay within 2% (+10ms) of the committed
//! snapshot — instrumentation may not tax the common case. A passing run
//! rewrites the counters but keeps the committed timing, so the timing
//! gate only moves when someone edits that number.
//!
//! `cargo xtask profile [--top=N]` runs the interp_hot corpus under the
//! interpreter profiler and prints the phase table, the hottest methods
//! by exclusive time, per-call-site inline-cache hit rates, and the hot
//! nested binary-op pairs.
//!
//! `cargo xtask perf` times every workload with the fast paths (table
//! cache, dispatch index) off and on, writes `BENCH_perf.json` at the
//! repo root, and fails if (a) warm runs do not skip table builds, (b)
//! indexed dispatch does not beat the seed's 782/470 tests-per-reduction
//! linear scan, or (c) any fast-path run's wall clock regressed more than
//! 20% against the committed snapshot. It also times the `interp_hot`
//! workload (the interpreter-bound corpus programs) through the reference
//! tree walker and the bytecode VM, and fails unless the VM is at least 6x
//! faster with a >= 95% polymorphic-inline-cache hit rate.
//! The `service` bench drives concurrent clients through the worker-pool
//! service (`mayad --workers=8`) and fails unless it delivers at least 4x
//! the compiles/sec of a stateless single-worker loop (fresh session per
//! request) at concurrency 8, with p99 client-observed latency gated
//! against the committed snapshot at concurrency 8 and 64. The `store`
//! bench runs the conformance corpus through real `mayac` processes
//! cold, populating, and against the prewarmed persistent artifact
//! store (`--cache-dir`), requires every store-backed run to be
//! byte-identical to the cold run, and fails unless the warm-store pass
//! is at least 3x faster. Part of the pre-merge verify flow.
//!
//! `cargo xtask fuzz-lite [--cases=N] [--seed=S]` drives seeded random
//! (often corrupt) sources through the full multi-error pipeline and
//! fails if any input panics out of the driver boundary instead of
//! producing a diagnostic or a clean run. Resource guards are tightened
//! so pathological inputs terminate quickly; the whole run is
//! deterministic for a given seed. The corpus replay runs every program
//! through two compile-server sessions — bytecode VM and reference tree
//! walker — and fails on any output divergence between them. Part of the
//! pre-merge verify flow.
//!
//! `cargo xtask fuzz [--cases=N] [--seed=S] [--budget=SECS] [--induce]`
//! is the grammar-aware differential layer (see `fuzz.rs`): programs and
//! Mayan extensions derived from the base grammar's productions, five
//! oracles (engines, warm/post-edit session, jobs, worker pool, faults),
//! telemetry-driven coverage seeds, and auto-minimization of any
//! divergence into `tests/corpus/regressions/`. Writes `BENCH_fuzz.json`.
//!
//! `cargo xtask verify` chains telemetry → perf → fuzz-lite →
//! `fuzz --cases=300 --seed=7`, each in its own process, then re-asserts
//! the zero-panic / zero-divergence gates from the written
//! `BENCH_fuzz.json`.

use maya::telemetry::{self, json_counter, json_string, Counter};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

mod fuzz;

/// Counter totals gated against the committed baseline.
const GATED: [Counter; 2] = [Counter::DispatchTests, Counter::LazyNodesForced];
/// Allowed relative growth before the gate fails.
const TOLERANCE: f64 = 0.20;
/// Allowed relative growth of the disabled-telemetry interp_hot wall
/// clock against the committed snapshot: instrumentation added to hot
/// paths must stay behind the one-bool-load early exit.
const OVERHEAD_TOLERANCE: f64 = 0.02;
/// Absolute slack added to the overhead limit so scheduler noise on a
/// ~100ms workload cannot fail a 2% relative gate by itself.
const OVERHEAD_FLOOR_MS: f64 = 10.0;
/// Best-of reps for the overhead measurement.
const OVERHEAD_REPS: usize = 5;

struct WorkloadRun {
    name: &'static str,
    counters: Vec<(Counter, u64)>,
}

fn repo_root() -> PathBuf {
    // crates/xtask -> crates -> root
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("xtask lives two levels below the repo root")
        .to_path_buf()
}

fn run_workload(name: &'static str, f: impl FnOnce()) -> WorkloadRun {
    let s = telemetry::Session::start(telemetry::Config::default());
    f();
    let r = s.finish();
    WorkloadRun {
        name,
        counters: Counter::ALL.iter().map(|c| (*c, r.counter(*c))).collect(),
    }
}

fn source_extension_workload(root: &Path) {
    let ext = std::fs::read_to_string(root.join("examples/maya/eforeach_ext.maya"))
        .expect("examples/maya/eforeach_ext.maya");
    let app = std::fs::read_to_string(root.join("examples/maya/eforeach_app.maya"))
        .expect("examples/maya/eforeach_app.maya");
    let c = maya::Compiler::new();
    c.add_source("eforeach_ext.maya", &ext).expect("extension compiles");
    c.add_source("eforeach_app.maya", &app).expect("application parses");
    c.compile().expect("application compiles");
    c.run_main("Main").expect("application runs");
}

fn macrolib_foreach_workload() {
    let c = maya::macrolib::compiler_with_macros();
    c.compile_and_run(
        "Main.maya",
        r#"
        import java.util.*;
        class Main {
            static void main() {
                Vector v = new Vector();
                v.addElement("a");
                v.addElement("b");
                use Foreach;
                v.elements().foreach(String st) {
                    System.out.println(st);
                }
            }
        }
        "#,
        "Main",
    )
    .expect("macrolib workload runs");
}

fn multijava_workload() {
    let c = maya::multijava::compiler_with_multijava();
    c.compile_and_run(
        "Main.maya",
        r#"
        use MultiJava;
        class Shape { }
        class Circle extends Shape { }
        class Rect extends Shape { }
        class Intersect {
            int test(Shape a, Shape b) { return 0; }
            int test(Shape@Circle a, Shape@Rect b) { return 1; }
            int test(Shape@Rect a, Shape@Circle b) { return 2; }
        }
        class Main {
            static void main() {
                Intersect it = new Intersect();
                Shape c = new Circle();
                Shape r = new Rect();
                System.out.println(it.test(c, r) + it.test(r, c) + it.test(c, c));
            }
        }
        "#,
        "Main",
    )
    .expect("multijava workload runs");
}

/// Renders the snapshot. Totals come first so [`json_counter`] (first
/// match wins) reads the aggregate, not a per-workload value.
fn render(runs: &[WorkloadRun], trace: &TraceCheck, disabled_ms: f64) -> String {
    let mut totals = vec![0u64; Counter::ALL.len()];
    for run in runs {
        for (i, (_, v)) in run.counters.iter().enumerate() {
            totals[i] += v;
        }
    }
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"maya-telemetry-bench/1\",");
    out.push_str("  \"totals\": {\n");
    let lines: Vec<String> = Counter::ALL
        .iter()
        .zip(&totals)
        .map(|(c, v)| format!("    \"{}\": {v}", c.name()))
        .collect();
    out.push_str(&lines.join(",\n"));
    out.push_str("\n  },\n");
    out.push_str("  \"workloads\": {\n");
    let blocks: Vec<String> = runs
        .iter()
        .map(|run| {
            let lines: Vec<String> = run
                .counters
                .iter()
                .map(|(c, v)| format!("      \"{}\": {v}", c.name()))
                .collect();
            format!("    {}: {{\n{}\n    }}", json_string(run.name), lines.join(",\n"))
        })
        .collect();
    out.push_str(&blocks.join(",\n"));
    out.push_str("\n  },\n");
    out.push_str("  \"trace\": {\n");
    let _ = writeln!(out, "    \"events\": {},", trace.events);
    let _ = writeln!(out, "    \"phases_covered\": {}", trace.phases_covered);
    out.push_str("  },\n");
    out.push_str("  \"overhead\": {\n");
    let _ = writeln!(out, "    \"interp_hot_disabled_ms\": {disabled_ms:.2},");
    let _ = writeln!(
        out,
        "    \"gate_tolerance_pct\": {:.1}",
        OVERHEAD_TOLERANCE * 100.0
    );
    out.push_str("  }\n}\n");
    out
}

/// The snapshot a passing run writes: this run's counters and trace, and
/// the committed disabled-path timing when there is one. A passing run
/// never moves the timing its own gate reads, so one slow pass cannot
/// loosen the next limit; re-baselining the timing is an edit of the
/// committed file. Only a first snapshot records the measured timing.
fn snapshot(
    runs: &[WorkloadRun],
    trace: &TraceCheck,
    measured_ms: f64,
    committed: Option<&str>,
) -> String {
    let timing = committed
        .and_then(|doc| json_f64(doc, "interp_hot_disabled_ms"))
        .unwrap_or(measured_ms);
    render(runs, trace, timing)
}

/// What trace validation measured, for the snapshot.
struct TraceCheck {
    events: usize,
    phases_covered: usize,
}

/// Validates a Chrome trace-event document produced by `--trace-out` /
/// [`telemetry::Report::chrome_trace_json`]: well-formed JSON, complete
/// ("X") events with every required field, per-tid intervals that nest
/// properly, and span coverage of the pipeline phases that ran.
fn validate_trace(doc: &str) -> Result<TraceCheck, String> {
    use maya::core::json::{parse_json, Json};
    let parsed = parse_json(doc).map_err(|e| format!("trace is not valid JSON: {e}"))?;
    let events = parsed
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("trace has no traceEvents array")?;
    if events.is_empty() {
        return Err("traceEvents is empty".into());
    }
    let num = |e: &Json, k: &str| -> Result<f64, String> {
        match e.get(k) {
            Some(Json::Num(n)) if *n >= 0.0 => Ok(*n),
            other => Err(format!("event field {k:?} must be a non-negative number, got {other:?}")),
        }
    };
    // (tid, ts, ts+dur, name) sorted by track then start time.
    let mut intervals: Vec<(u64, f64, f64, String)> = Vec::new();
    let mut names: Vec<String> = Vec::new();
    for e in events {
        let name = e
            .get("name")
            .and_then(Json::as_str)
            .ok_or("event without a name")?;
        if e.get("ph").and_then(Json::as_str) != Some("X") {
            return Err(format!("event {name:?} is not a complete (\"X\") event"));
        }
        let ts = num(e, "ts")?;
        let dur = num(e, "dur")?;
        num(e, "pid")?;
        let tid = e
            .get("tid")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("event {name:?} has no integral tid"))?;
        intervals.push((tid, ts, ts + dur, name.to_owned()));
        names.push(name.to_owned());
    }
    // On each track, spans opened in a stack discipline: sorted by start,
    // a later span either starts after the previous one ends or lies
    // inside it. 2ns of slack absorbs the µs-with-3-decimals rounding.
    const EPS: f64 = 0.002;
    intervals.sort_by(|a, b| (a.0, a.1).partial_cmp(&(b.0, b.1)).expect("finite"));
    let mut stack: Vec<(f64, String)> = Vec::new();
    let mut track = u64::MAX;
    for (tid, ts, end, name) in &intervals {
        if *tid != track {
            track = *tid;
            stack.clear();
        }
        while let Some((open_end, _)) = stack.last() {
            if ts + EPS >= *open_end {
                stack.pop();
            } else {
                break;
            }
        }
        if let Some((open_end, open_name)) = stack.last() {
            if *end > open_end + EPS {
                return Err(format!(
                    "span {name:?} [{ts:.3}, {end:.3}] overlaps {open_name:?} \
                     (ends {open_end:.3}) on tid {tid} without nesting"
                ));
            }
        }
        stack.push((*end, name.clone()));
    }
    for required in ["lex_file", "parse", "interp"] {
        if !names.iter().any(|n| n == required) {
            return Err(format!("trace covers no {required:?} span"));
        }
    }
    let phases_covered = telemetry::Phase::ALL
        .iter()
        .filter(|p| names.iter().any(|n| n == p.name()))
        .count();
    Ok(TraceCheck {
        events: events.len(),
        phases_covered,
    })
}

/// Best-of-N wall clock for the interp_hot pass with **no** telemetry
/// session active: every instrumentation hook takes its disabled early
/// exit. Gated against the committed snapshot so new hooks can't tax the
/// common case.
fn disabled_interp_hot_ms(root: &Path) -> f64 {
    assert!(
        !telemetry::enabled() && !telemetry::spans_enabled(),
        "overhead probe must run with telemetry disabled"
    );
    let mut best = f64::INFINITY;
    for _ in 0..OVERHEAD_REPS {
        best = best.min(interp_hot_pass(root, true));
    }
    best
}

/// First `"key": <float>` in `doc` (enough for the snapshot's own keys).
fn json_f64(doc: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = doc.find(&needle)? + needle.len();
    let rest = doc[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn telemetry_gate() -> ExitCode {
    let root = repo_root();
    let runs = vec![
        run_workload("source_extension", || source_extension_workload(&root)),
        run_workload("macrolib_foreach", macrolib_foreach_workload),
        run_workload("multijava", multijava_workload),
    ];

    // Laziness invariant on the source-extension workload (paper §4): the
    // unused Mayan body must never be forced.
    let src_ext = &runs[0];
    let get = |run: &WorkloadRun, c: Counter| {
        run.counters.iter().find(|(k, _)| *k == c).map_or(0, |(_, v)| *v)
    };
    let created = get(src_ext, Counter::LazyNodesCreated);
    let forced = get(src_ext, Counter::LazyNodesForced);
    if forced >= created {
        eprintln!(
            "xtask telemetry: laziness regression: source_extension forced {forced} of \
             {created} lazy nodes (must be strictly fewer)"
        );
        return ExitCode::FAILURE;
    }

    // The span layer end to end: capture a trace of the source-extension
    // workload and validate it the way a Chrome trace viewer would.
    let s = telemetry::Session::start(telemetry::Config {
        capture_spans: true,
        ..telemetry::Config::default()
    });
    source_extension_workload(&root);
    let trace_report = s.finish();
    let trace = match validate_trace(&trace_report.chrome_trace_json()) {
        Ok(t) => {
            println!(
                "xtask telemetry: trace valid ({} events, {}/{} phases covered)",
                t.events,
                t.phases_covered,
                telemetry::Phase::ALL.len()
            );
            t
        }
        Err(e) => {
            eprintln!("xtask telemetry: invalid Chrome trace: {e}");
            return ExitCode::FAILURE;
        }
    };

    // The price of saying no: interp_hot with telemetry fully disabled.
    let disabled_ms = disabled_interp_hot_ms(&root);

    let baseline_path = root.join("BENCH_telemetry.json");
    let committed = std::fs::read_to_string(&baseline_path).ok();
    let doc = snapshot(&runs, &trace, disabled_ms, committed.as_deref());
    let mut failed = false;
    match committed {
        Some(baseline) => {
            for c in GATED {
                let old = json_counter(&baseline, c.name());
                let new = json_counter(&doc, c.name()).expect("freshly rendered key");
                let Some(old) = old else {
                    println!("xtask telemetry: {} has no baseline yet (new counter)", c.name());
                    continue;
                };
                let limit = (old as f64 * (1.0 + TOLERANCE)).ceil() as u64;
                let status = if new > limit { "REGRESSED" } else { "ok" };
                println!(
                    "xtask telemetry: {:<22} baseline {old:>8}  now {new:>8}  (limit {limit})  {status}",
                    c.name()
                );
                if new > limit {
                    failed = true;
                }
            }
            match json_f64(&baseline, "interp_hot_disabled_ms") {
                Some(old) => {
                    let limit = old * (1.0 + OVERHEAD_TOLERANCE) + OVERHEAD_FLOOR_MS;
                    let status = if disabled_ms > limit { "REGRESSED" } else { "ok" };
                    println!(
                        "xtask telemetry: disabled-path interp_hot baseline {old:>8.2}ms  \
                         now {disabled_ms:>8.2}ms  (limit {limit:.2}ms)  {status}"
                    );
                    if disabled_ms > limit {
                        eprintln!(
                            "xtask telemetry: disabled telemetry must stay within {:.0}% \
                             (+{OVERHEAD_FLOOR_MS:.0}ms) of the snapshot on interp_hot",
                            OVERHEAD_TOLERANCE * 100.0
                        );
                        failed = true;
                    }
                }
                None => println!(
                    "xtask telemetry: no disabled-path baseline yet \
                     (measured {disabled_ms:.2}ms)"
                ),
            }
        }
        None => {
            println!("xtask telemetry: no committed baseline; writing the first snapshot");
        }
    }
    if failed {
        eprintln!(
            "xtask telemetry: regressed vs {}; baseline left untouched",
            baseline_path.display()
        );
        return ExitCode::FAILURE;
    }
    std::fs::write(&baseline_path, &doc).expect("write BENCH_telemetry.json");
    println!(
        "xtask telemetry: snapshot written to {} (lazy: {forced}/{created} forced on source_extension)",
        baseline_path.display()
    );
    ExitCode::SUCCESS
}

/// `cargo xtask profile [--top=N]`: the interp_hot corpus under the
/// interpreter profiler — phase table, hot methods with inclusive /
/// exclusive time, inline-cache hit rates per call site, hot binary-op
/// pairs.
fn profile_report(top: usize) -> ExitCode {
    let root = repo_root();
    let s = telemetry::Session::start(telemetry::Config {
        profile_interp: Some(top),
        ..telemetry::Config::default()
    });
    interp_hot_pass(&root, true);
    let r = s.finish();
    print!("{}", r.time_passes_table());
    match &r.interp_profile {
        Some(p) => print!("{}", p.render()),
        None => {
            eprintln!("xtask profile: session produced no interpreter profile");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

// ---- perf --------------------------------------------------------------------

/// Counters reported per perf run (the fast-path machinery plus the work
/// it is supposed to eliminate).
const PERF_COUNTERS: [Counter; 7] = [
    Counter::TablesBuilt,
    Counter::TableCacheHits,
    Counter::TableCacheMisses,
    Counter::DispatchReductions,
    Counter::DispatchTests,
    Counter::DispatchIndexHits,
    Counter::DispatchIndexMisses,
];
/// Wall-clock reps per configuration; best-of is reported.
const PERF_REPS: usize = 3;
/// Allowed relative wall-clock growth of a fast-path run before the gate
/// fails (self-relative, against the committed BENCH_perf.json).
const PERF_TOLERANCE: f64 = 0.20;
/// Absolute slack added on top of `PERF_TOLERANCE`. The warm runs it
/// guards are sub-millisecond, where 20% is smaller than scheduler
/// jitter on this container; the floor keeps the gate about real
/// regressions instead of timer noise (same idiom as the telemetry
/// overhead gate's `OVERHEAD_FLOOR_MS`).
const PERF_FLOOR_MS: f64 = 0.5;
/// The seed's dispatch cost: 782 tests over 470 reductions. The indexed
/// dispatcher must stay strictly below this ratio.
const SEED_TESTS_PER_REDUCTION: f64 = 782.0 / 470.0;

struct PerfMeasure {
    /// Best wall-clock over the reps, in milliseconds.
    ms: f64,
    /// Every rep's wall clock, in measurement order — committed to the
    /// snapshot so a reviewer can judge the spread behind the min.
    samples: Vec<f64>,
    /// Counters from the last rep (reps are deterministic per configuration).
    counters: Vec<(Counter, u64)>,
}

fn perf_measure(reps: usize, f: &dyn Fn()) -> PerfMeasure {
    let mut best = f64::INFINITY;
    let mut samples = Vec::with_capacity(reps);
    let mut counters = Vec::new();
    for _ in 0..reps {
        let s = telemetry::Session::start(telemetry::Config::default());
        let started = std::time::Instant::now();
        f();
        let ms = started.elapsed().as_secs_f64() * 1e3;
        let r = s.finish();
        best = best.min(ms);
        samples.push(ms);
        counters = PERF_COUNTERS.iter().map(|c| (*c, r.counter(*c))).collect();
    }
    PerfMeasure { ms: best, samples, counters }
}

struct PerfRow {
    name: &'static str,
    seed: PerfMeasure,
    fast_cold: PerfMeasure,
    fast_warm: PerfMeasure,
}

impl PerfRow {
    fn speedup(&self) -> f64 {
        self.seed.ms / self.fast_warm.ms.max(1e-9)
    }
}

/// Measures one workload three ways: with the fast paths off (the seed's
/// behaviour), with them on but every cache cold, and with them on after
/// the caches warmed up.
fn perf_workload(name: &'static str, f: &dyn Fn()) -> PerfRow {
    maya::grammar::set_table_cache_enabled(false);
    maya::dispatch::set_dispatch_index_enabled(false);
    maya::grammar::clear_table_cache();
    let seed = perf_measure(PERF_REPS, f);

    maya::grammar::set_table_cache_enabled(true);
    maya::dispatch::set_dispatch_index_enabled(true);
    maya::grammar::clear_table_cache();
    let fast_cold = perf_measure(1, f);
    let fast_warm = perf_measure(PERF_REPS, f);
    PerfRow { name, seed, fast_cold, fast_warm }
}

/// The extension-heavy workload: many small compilations that all import
/// the same source extension, so the same extended grammar is demanded
/// over and over — the case the table cache exists for.
fn extension_heavy_workload(root: &Path) {
    let ext = std::fs::read_to_string(root.join("examples/maya/eforeach_ext.maya"))
        .expect("examples/maya/eforeach_ext.maya");
    let app = std::fs::read_to_string(root.join("examples/maya/eforeach_app.maya"))
        .expect("examples/maya/eforeach_app.maya");
    for _ in 0..8 {
        let c = maya::Compiler::new();
        c.add_source("eforeach_ext.maya", &ext).expect("extension compiles");
        c.add_source("eforeach_app.maya", &app).expect("application parses");
        c.compile().expect("application compiles");
        c.run_main("Main").expect("application runs");
    }
}

// ---- compile-server bench ----------------------------------------------------

/// Warm single-file recompiles through the session must beat a cold
/// compile of the whole workload by at least this factor.
const SERVER_MIN_SPEEDUP: f64 = 5.0;

/// The `tests/scale.rs` forty-class workload split one class per file, so
/// a single-file edit leaves a large reusable remainder — the compile
/// server's bread-and-butter shape.
fn server_workload_sources() -> Vec<(String, String)> {
    let mut files = Vec::new();
    for i in 0..40 {
        let mut src = format!("class C{i} {{\n    int id() {{ return {i}; }}\n");
        if i > 0 {
            let _ = writeln!(src, "    int chained() {{ return new C{}().id() + id(); }}", i - 1);
        }
        for m in 0..8 {
            let _ =
                writeln!(src, "    int m{m}(int a) {{ int t = a * {m} + id(); return t - a; }}");
        }
        src.push_str("}\n");
        files.push((format!("c{i:02}.maya"), src));
    }
    files.push((
        "main.maya".to_owned(),
        "class Main { static void main() { System.out.println(new C39().chained()); } }\n"
            .to_owned(),
    ));
    files
}

struct ServerBench {
    cold_ms: f64,
    warm_recompile_ms: f64,
    full_reuse_ms: f64,
}

impl ServerBench {
    fn speedup(&self) -> f64 {
        self.cold_ms / self.warm_recompile_ms.max(1e-9)
    }
}

fn server_session() -> maya::Session {
    maya::Session::new(
        maya::CompileOptions { echo_output: false, jobs: 1, ..Default::default() },
        None,
    )
}

/// Times the compile-server path three ways on the scale workload: a cold
/// compile on a fresh thread (fresh thread-local table memo and AST cache,
/// i.e. what a standalone `mayac` process pays), a warm single-file
/// recompile through a live session, and a full-reuse round trip.
fn server_bench() -> ServerBench {
    let sources = server_workload_sources();
    let opts = maya::RequestOpts::default();

    let mut cold_ms = f64::INFINITY;
    for _ in 0..PERF_REPS {
        let srcs = sources.clone();
        let ms = std::thread::spawn(move || {
            let started = std::time::Instant::now();
            let mut s = server_session();
            let out = s.compile_sources(&srcs, &maya::RequestOpts::default());
            assert!(out.success, "cold server workload failed:\n{}", out.stderr);
            assert_eq!(out.stdout, "77\n");
            started.elapsed().as_secs_f64() * 1e3
        })
        .join()
        .expect("cold bench thread");
        cold_ms = cold_ms.min(ms);
    }

    let mut session = server_session();
    let mut edited = sources.clone();
    assert!(session.compile_sources(&edited, &opts).success);

    let mut warm_recompile_ms = f64::INFINITY;
    for rep in 0..PERF_REPS {
        // Append a fresh class to one middle file each rep so every rep is
        // a genuine one-file recompile, never a cached round trip.
        let _ = writeln!(edited[20].1, "class Warm{rep} {{ }}");
        let started = std::time::Instant::now();
        let out = session.compile_sources(&edited, &opts);
        let ms = started.elapsed().as_secs_f64() * 1e3;
        assert!(out.success, "{}", out.stderr);
        assert_eq!(out.stdout, "77\n");
        assert_eq!(
            (out.files_changed, out.files_recompiled, out.files_reused),
            (1, 1, 40),
            "warm rep must recompile exactly the edited file"
        );
        warm_recompile_ms = warm_recompile_ms.min(ms);
    }

    let mut full_reuse_ms = f64::INFINITY;
    for _ in 0..PERF_REPS {
        let started = std::time::Instant::now();
        let out = session.compile_sources(&edited, &opts);
        let ms = started.elapsed().as_secs_f64() * 1e3;
        assert!(out.full_reuse, "identical request must be a full reuse");
        full_reuse_ms = full_reuse_ms.min(ms);
    }

    ServerBench { cold_ms, warm_recompile_ms, full_reuse_ms }
}

// ---- concurrent service bench ------------------------------------------------

/// The worker pool must beat a stateless single-worker loop (fresh
/// session per request, the `mayac`-process-per-compile model `mayad`
/// replaces) by at least this factor in compiles/sec on the interleaved
/// 8-client edit stream. The win is architectural, not parallel — this
/// container has one core — the pool keeps one warm session per client,
/// so each edit is a single-file recompile where the stateless loop
/// re-shapes and re-checks the client's whole project.
const SERVICE_MIN_SPEEDUP: f64 = 4.0;
/// Measured edit rounds per client at concurrency 8.
const SERVICE_ROUNDS_8: usize = 10;
/// Measured edit rounds per client at concurrency 64.
const SERVICE_ROUNDS_64: usize = 4;
/// Absolute slack for the self-relative p99 gates, one per concurrency
/// level. On a one-core container a tail request waits behind up to
/// concurrency-1 timesharing neighbours, so p99 noise scales with
/// concurrency times per-compile cost: measured run-to-run spread is
/// ~25ms at 8 clients and ~350ms at 64. These floors absorb that noise
/// while still catching a real latency regression (which moves every
/// request, not just the tail).
const SERVICE_P99_FLOOR_8_MS: f64 = 40.0;
const SERVICE_P99_FLOOR_64_MS: f64 = 400.0;

/// One client's file set at one edit round: thirty classes plus a main
/// (the `server_bench` project shape), names disjoint per client so no
/// cross-client sharing can blur the comparison, and one fresh appended
/// class per round so a warm per-client session does exactly one
/// single-file recompile per request.
fn service_client_sources(client: usize, round: usize) -> Vec<(String, String)> {
    let mut files = Vec::new();
    for i in 0..30 {
        let mut src = format!("class K{client}x{i} {{\n    int id() {{ return {i}; }}\n");
        if i > 0 {
            let _ = writeln!(
                src,
                "    int chained() {{ return new K{client}x{}().id() + id(); }}",
                i - 1
            );
        }
        for m in 0..8 {
            let _ =
                writeln!(src, "    int m{m}(int a) {{ int t = a * {m} + id(); return t - a; }}");
        }
        src.push_str("}\n");
        files.push((format!("k{client}_{i:02}.maya"), src));
    }
    let _ = writeln!(files[5].1, "class E{client}r{round} {{ }}");
    files.push((
        format!("main{client}.maya"),
        format!(
            "class Main {{ static void main() {{ \
             System.out.println(new K{client}x29().id() + {client}); }} }}\n"
        ),
    ));
    files
}

fn service_expected_stdout(client: usize) -> String {
    format!("{}\n", 29 + client)
}

struct ServicePhase {
    requests: usize,
    compiles_per_sec: f64,
    p99_ms: f64,
    mean_ms: f64,
}

fn service_phase(mut latencies_ms: Vec<f64>, total_secs: f64) -> ServicePhase {
    latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latency"));
    let n = latencies_ms.len();
    let p99_idx = ((n as f64 * 0.99).ceil() as usize).clamp(1, n) - 1;
    ServicePhase {
        requests: n,
        compiles_per_sec: n as f64 / total_secs.max(1e-9),
        p99_ms: latencies_ms[p99_idx],
        mean_ms: latencies_ms.iter().sum::<f64>() / n as f64,
    }
}

struct ServiceBench {
    /// The stateless shape: a single-worker loop that builds a fresh
    /// session per request, fed the interleaved 8-client stream serially.
    baseline: ServicePhase,
    /// 8 concurrent clients against an 8-worker pool.
    pool8: ServicePhase,
    /// 64 concurrent clients against the same 8-worker pool.
    pool64: ServicePhase,
}

impl ServiceBench {
    fn speedup(&self) -> f64 {
        self.pool8.compiles_per_sec / self.baseline.compiles_per_sec.max(1e-9)
    }
}

/// Drives `clients` concurrent client threads through one 8-worker pool:
/// a warmup round per client (untimed), then `rounds` sequential
/// edit-recompile requests each, measuring client-observed latency
/// (submit to reply) and aggregate throughput.
fn service_pool_phase(clients: usize, rounds: usize) -> ServicePhase {
    use maya::core::json::{parse_json, Json};
    use maya::core::service::{CompilePool, PoolConfig, PoolRequest};

    let pool = CompilePool::start(PoolConfig { workers: 8, queue_cap: 64, ..PoolConfig::default() });
    let opts = maya::RequestOpts::default();
    let request = |c: usize, r: usize| -> String {
        pool.submit(
            &format!("c{c}"),
            PoolRequest::Sources { sources: service_client_sources(c, r), opts: opts.clone() },
        )
        .recv()
        .expect("pool dropped a reply")
    };
    let check = |c: usize, reply: &str, warm: bool| {
        let j = parse_json(reply).expect("pool reply is JSON");
        assert_eq!(j.get("ok").and_then(Json::as_bool), Some(true), "refused: {reply}");
        assert_eq!(j.get("success").and_then(Json::as_bool), Some(true), "failed: {reply}");
        assert_eq!(
            j.get("stdout").and_then(Json::as_str),
            Some(service_expected_stdout(c).as_str()),
            "client {c} got the wrong program output: {reply}"
        );
        if warm {
            // The per-client session must have stayed warm across the
            // concurrent schedule: one file recompiled, the rest reused.
            assert!(
                j.get("files_reused").and_then(Json::as_u64) >= Some(10),
                "client {c} lost its warm state: {reply}"
            );
        }
    };

    let request = &request;
    let check = &check;
    std::thread::scope(|s| {
        for c in 0..clients {
            s.spawn(move || check(c, &request(c, 0), false));
        }
    });

    let started = std::time::Instant::now();
    let latencies: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                s.spawn(move || {
                    let mut lat = Vec::with_capacity(rounds);
                    for r in 1..=rounds {
                        let t0 = std::time::Instant::now();
                        let reply = request(c, r);
                        lat.push(t0.elapsed().as_secs_f64() * 1e3);
                        check(c, &reply, true);
                    }
                    lat
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client thread")).collect()
    });
    let total = started.elapsed().as_secs_f64();
    pool.shutdown();
    service_phase(latencies, total)
}

/// The pre-service shape: a single-worker loop with no session state
/// between requests — each request builds a fresh session, the way a
/// `mayac` process per compile would. It keeps the thread-local grammar
/// table memo warm (one untimed request first), so the gap it measures
/// against the pool is session reuse alone: per-client sessions answer
/// an edit with a one-file recompile where the stateless loop re-shapes
/// and re-checks every file of every request.
fn service_baseline_phase(clients: usize, rounds: usize) -> ServicePhase {
    let opts = maya::RequestOpts::default();
    let warm = server_session().compile_sources(&service_client_sources(0, 0), &opts);
    assert!(warm.success, "baseline warmup failed:\n{}", warm.stderr);
    let started = std::time::Instant::now();
    let mut latencies = Vec::with_capacity(clients * rounds);
    for r in 1..=rounds {
        for c in 0..clients {
            let t0 = std::time::Instant::now();
            let out = server_session().compile_sources(&service_client_sources(c, r), &opts);
            latencies.push(t0.elapsed().as_secs_f64() * 1e3);
            assert!(out.success, "baseline round failed:\n{}", out.stderr);
            assert_eq!(out.stdout, service_expected_stdout(c));
        }
    }
    let total = started.elapsed().as_secs_f64();
    service_phase(latencies, total)
}

fn service_bench() -> ServiceBench {
    ServiceBench {
        baseline: service_baseline_phase(8, SERVICE_ROUNDS_8),
        pool8: service_pool_phase(8, SERVICE_ROUNDS_8),
        pool64: service_pool_phase(64, SERVICE_ROUNDS_64),
    }
}

// ---- interpreter bench -------------------------------------------------------

/// The bytecode VM tier must beat the legacy tree walker by at least this
/// factor on the interpreter-bound workload. Raised from 2.75 (the
/// lowered tree walker's floor) when the register-bytecode tier landed:
/// flat dispatch, superinstructions, and polymorphic inline caches
/// measure ~6.2x (min of {PERF_REPS} interleaved reps) on this
/// container, so 6.0 fails any real slowdown of the VM loop while
/// tolerating the run-to-run frequency lottery.
const INTERP_MIN_SPEEDUP: f64 = 6.0;
/// Minimum polymorphic-inline-cache hit rate in the bytecode tier: the
/// monomorphic-to-lightly-polymorphic call sites of the hot corpus must
/// stay pinned in their PIC rows after warmup.
const INTERP_MIN_PIC_HIT_RATE: f64 = 0.95;

/// The interpreter-bound corpus programs and their expected output; the
/// bench asserts the output so a wrong-but-fast runtime can never pass.
const INTERP_HOT_PROGRAMS: [(&str, &str); 3] = [
    ("interp_hot_arith.maya", "total=2808302378\ncheck=1116585465\nfold=14/3\n"),
    ("interp_hot_calls.maya", "total=1478800\nsquare=99 rect=47\n"),
    ("interp_hot_strings.maya", "letters=6000\nlast=a:901234567890|b:78901234\n"),
];

struct InterpBench {
    /// Best wall-clock for one pass over the programs, legacy tree walker.
    seed_ms: f64,
    /// Best wall-clock for one pass, bytecode VM tier (the default).
    fast_ms: f64,
    /// Every rep's wall clock per configuration, in measurement order.
    seed_samples: Vec<f64>,
    fast_samples: Vec<f64>,
    pic_hits: u64,
    pic_misses: u64,
    pic_evictions: u64,
    bc_compiled: u64,
    bc_superinsts: u64,
    slots_resolved: u64,
    consts_folded: u64,
}

impl InterpBench {
    fn speedup(&self) -> f64 {
        self.seed_ms / self.fast_ms.max(1e-9)
    }

    fn pic_hit_rate(&self) -> f64 {
        let total = self.pic_hits + self.pic_misses;
        if total == 0 {
            0.0
        } else {
            self.pic_hits as f64 / total as f64
        }
    }
}

/// One pass over the interp_hot programs: compile untimed, then time only
/// `run_main` — the compile front end is identical in both configurations,
/// so timing it would just dilute the interpreter speedup being measured.
/// `lowering` picks the tier: the bytecode VM, or the reference walker.
fn interp_hot_pass(root: &Path, lowering: bool) -> f64 {
    let mut ms = 0.0;
    for (name, expected) in INTERP_HOT_PROGRAMS {
        let src = std::fs::read_to_string(root.join("tests/corpus").join(name))
            .unwrap_or_else(|e| panic!("tests/corpus/{name}: {e}"));
        let c = maya::Compiler::with_options(maya::CompileOptions {
            echo_output: false,
            jobs: 1,
            ..Default::default()
        });
        c.interp().set_lowering(lowering);
        c.add_source(name, &src).expect("interp_hot program compiles");
        c.compile().expect("interp_hot program compiles");
        let started = std::time::Instant::now();
        let out = c.run_main("Main").expect("interp_hot program runs");
        let one = started.elapsed().as_secs_f64() * 1e3;
        if std::env::var("XTASK_INTERP_DEBUG").is_ok() {
            eprintln!("  {name} lowering={lowering}: {one:.2}ms");
        }
        ms += one;
        assert_eq!(out, expected, "{name}: wrong output (lowering={lowering})");
    }
    ms
}

/// Times the interpreter-bound workload through the legacy tree walker and
/// the bytecode VM, capturing the lowering/PIC counters from the VM
/// configuration.
fn interp_bench(root: &Path) -> InterpBench {
    // Counter capture first, untimed: a live telemetry collector taxes every
    // counter bump, so the wall-clock reps below run without a session and
    // both configurations pay identical instrumentation costs (none).
    let s = telemetry::Session::start(telemetry::Config::default());
    interp_hot_pass(root, true);
    let r = s.finish();

    // Interleaved reps: a background load spike lands on every
    // configuration instead of skewing the ratios one way.
    let mut seed_samples = Vec::with_capacity(PERF_REPS);
    let mut fast_samples = Vec::with_capacity(PERF_REPS);
    for _ in 0..PERF_REPS {
        seed_samples.push(interp_hot_pass(root, false));
        fast_samples.push(interp_hot_pass(root, true));
    }
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    InterpBench {
        seed_ms: min(&seed_samples),
        fast_ms: min(&fast_samples),
        seed_samples,
        fast_samples,
        pic_hits: r.counter(Counter::PicHits),
        pic_misses: r.counter(Counter::PicMisses),
        pic_evictions: r.counter(Counter::PicEvictions),
        bc_compiled: r.counter(Counter::BcCompiled),
        bc_superinsts: r.counter(Counter::BcSuperinsts),
        slots_resolved: r.counter(Counter::SlotsResolved),
        consts_folded: r.counter(Counter::ConstsFolded),
    }
}

// ---- persistent store bench --------------------------------------------------

/// A cold *process* against a prewarmed artifact store must beat a true
/// cold process by this factor on the conformance corpus (total wall
/// clock over real `mayac` children).
const STORE_MIN_SPEEDUP: f64 = 3.0;

struct StoreBench {
    cold_ms: f64,
    warm_ms: f64,
    programs: usize,
    entries: u64,
    bytes: u64,
}

impl StoreBench {
    fn speedup(&self) -> f64 {
        if self.warm_ms <= 0.0 {
            0.0
        } else {
            self.cold_ms / self.warm_ms
        }
    }
}

/// Locates the `mayac` binary next to this xtask binary, building it
/// (same profile) when missing.
fn mayac_exe() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe.parent().ok_or("xtask binary has no parent directory")?;
    let mayac = dir.join("mayac");
    if !mayac.exists() {
        let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
        let mut cmd = std::process::Command::new(cargo);
        cmd.args(["build", "-q", "--bin", "mayac"]).current_dir(repo_root());
        if dir.file_name().and_then(|n| n.to_str()) == Some("release") {
            cmd.arg("--release");
        }
        match cmd.status() {
            Ok(st) if st.success() && mayac.exists() => {}
            Ok(st) => return Err(format!("cargo build --bin mayac failed ({st})")),
            Err(e) => return Err(format!("cannot spawn cargo build: {e}")),
        }
    }
    Ok(mayac)
}

/// One full pass over the corpus, one `mayac` child per program; returns
/// the total wall clock and each program's (success, stdout, stderr).
fn store_pass(
    mayac: &Path,
    corpus: &Path,
    names: &[String],
    cache: Option<&Path>,
) -> Result<(f64, Vec<(bool, Vec<u8>, Vec<u8>)>), String> {
    let started = std::time::Instant::now();
    let mut outs = Vec::with_capacity(names.len());
    for name in names {
        let mut cmd = std::process::Command::new(mayac);
        // A stray MAYA_CACHE_DIR in the environment would warm the
        // "cold" pass; only the explicit flag decides.
        cmd.arg(corpus.join(name)).env_remove("MAYA_CACHE_DIR");
        if let Some(c) = cache {
            cmd.arg(format!("--cache-dir={}", c.display()));
        }
        let out = cmd.output().map_err(|e| format!("{name}: spawn mayac: {e}"))?;
        outs.push((out.status.success(), out.stdout, out.stderr));
    }
    Ok((started.elapsed().as_secs_f64() * 1e3, outs))
}

/// Three corpus passes in child processes: true cold (no store), a
/// prewarm pass that populates a fresh store, and a cold-process /
/// warm-store pass. Both store-on passes must be byte-identical to the
/// store-off pass, program by program.
fn store_bench(root: &Path) -> Result<StoreBench, String> {
    let mayac = mayac_exe()?;
    let corpus = root.join("tests/corpus");
    let mut names: Vec<String> = std::fs::read_dir(&corpus)
        .map_err(|e| format!("read {}: {e}", corpus.display()))?
        .filter_map(|e| {
            let name = e.ok()?.file_name().into_string().ok()?;
            name.ends_with(".maya").then_some(name)
        })
        .collect();
    names.sort();
    let cache = std::env::temp_dir().join(format!("maya-store-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache);

    let (cold_ms, cold) = store_pass(&mayac, &corpus, &names, None)?;
    let (_, first) = store_pass(&mayac, &corpus, &names, Some(&cache))?;
    let (warm_ms, warm) = store_pass(&mayac, &corpus, &names, Some(&cache))?;
    for (i, name) in names.iter().enumerate() {
        for (pass, got) in [("store-population", &first[i]), ("warm-store", &warm[i])] {
            if *got != cold[i] {
                let _ = std::fs::remove_dir_all(&cache);
                return Err(format!(
                    "{name}: {pass} run diverged from the store-off run\n\
                     --- store-off stdout ---\n{}\n--- {pass} stdout ---\n{}\n\
                     --- store-off stderr ---\n{}\n--- {pass} stderr ---\n{}",
                    String::from_utf8_lossy(&cold[i].1),
                    String::from_utf8_lossy(&got.1),
                    String::from_utf8_lossy(&cold[i].2),
                    String::from_utf8_lossy(&got.2),
                ));
            }
        }
    }

    let (mut entries, mut bytes) = (0u64, 0u64);
    for e in std::fs::read_dir(&cache).map_err(|e| format!("read {}: {e}", cache.display()))? {
        let e = e.map_err(|e| format!("scan cache: {e}"))?;
        if let Ok(m) = e.metadata() {
            if m.is_file() {
                entries += 1;
                bytes += m.len();
            }
        }
    }
    let _ = std::fs::remove_dir_all(&cache);
    Ok(StoreBench { cold_ms, warm_ms, programs: names.len(), entries, bytes })
}

fn json_samples(v: &[f64]) -> String {
    let parts: Vec<String> = v.iter().map(|ms| format!("{ms:.2}")).collect();
    format!("[{}]", parts.join(", "))
}

fn perf_counter(m: &PerfMeasure, c: Counter) -> u64 {
    m.counters.iter().find(|(k, _)| *k == c).map_or(0, |(_, v)| *v)
}

fn render_perf(
    rows: &[PerfRow],
    server: &ServerBench,
    service: &ServiceBench,
    interp: &InterpBench,
    store: &StoreBench,
) -> String {
    let counter_block = |m: &PerfMeasure, indent: &str| {
        let lines: Vec<String> = m
            .counters
            .iter()
            .map(|(c, v)| format!("{indent}  \"{}\": {v}", c.name()))
            .collect();
        format!("{{\n{}\n{indent}}}", lines.join(",\n"))
    };
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"maya-perf-bench/1\",");
    out.push_str("  \"workloads\": {\n");
    let blocks: Vec<String> = rows
        .iter()
        .map(|row| {
            let tests = perf_counter(&row.fast_warm, Counter::DispatchTests);
            let reds = perf_counter(&row.fast_warm, Counter::DispatchReductions);
            format!(
                "    {}: {{\n      \"seed_ms\": {:.2},\n      \"fast_cold_ms\": {:.2},\n      \
                 \"fast_warm_ms\": {:.2},\n      \"speedup\": {:.2},\n      \
                 \"seed_samples_ms\": {},\n      \"fast_warm_samples_ms\": {},\n      \
                 \"fast_warm_tests_per_reduction\": {:.3},\n      \
                 \"seed_counters\": {},\n      \"fast_warm_counters\": {}\n    }}",
                json_string(row.name),
                row.seed.ms,
                row.fast_cold.ms,
                row.fast_warm.ms,
                row.speedup(),
                json_samples(&row.seed.samples),
                json_samples(&row.fast_warm.samples),
                if reds == 0 { 0.0 } else { tests as f64 / reds as f64 },
                counter_block(&row.seed, "      "),
                counter_block(&row.fast_warm, "      "),
            )
        })
        .collect();
    out.push_str(&blocks.join(",\n"));
    out.push_str("\n  },\n");
    let _ = writeln!(
        out,
        "  \"server\": {{\n    \"cold_ms\": {:.2},\n    \"warm_recompile_ms\": {:.2},\n    \
         \"full_reuse_ms\": {:.2},\n    \"warm_speedup\": {:.2}\n  }},",
        server.cold_ms,
        server.warm_recompile_ms,
        server.full_reuse_ms,
        server.speedup(),
    );
    let _ = writeln!(
        out,
        "  \"service\": {{\n    \"baseline_requests\": {},\n    \
         \"baseline_compiles_per_sec\": {:.1},\n    \"baseline_p99_ms\": {:.2},\n    \
         \"baseline_mean_ms\": {:.2},\n    \"pool8_requests\": {},\n    \
         \"pool8_compiles_per_sec\": {:.1},\n    \"pool8_p99_ms\": {:.2},\n    \
         \"pool8_mean_ms\": {:.2},\n    \"pool8_speedup\": {:.2},\n    \
         \"pool64_requests\": {},\n    \"pool64_compiles_per_sec\": {:.1},\n    \
         \"pool64_p99_ms\": {:.2},\n    \"pool64_mean_ms\": {:.2}\n  }},",
        service.baseline.requests,
        service.baseline.compiles_per_sec,
        service.baseline.p99_ms,
        service.baseline.mean_ms,
        service.pool8.requests,
        service.pool8.compiles_per_sec,
        service.pool8.p99_ms,
        service.pool8.mean_ms,
        service.speedup(),
        service.pool64.requests,
        service.pool64.compiles_per_sec,
        service.pool64.p99_ms,
        service.pool64.mean_ms,
    );
    let _ = writeln!(
        out,
        "  \"store\": {{\n    \"cold_ms\": {:.2},\n    \"warm_store_ms\": {:.2},\n    \
         \"speedup\": {:.2},\n    \"programs\": {},\n    \"entries\": {},\n    \
         \"bytes\": {}\n  }},",
        store.cold_ms,
        store.warm_ms,
        store.speedup(),
        store.programs,
        store.entries,
        store.bytes,
    );
    let _ = writeln!(
        out,
        "  \"interp_hot\": {{\n    \"interp_seed_ms\": {:.2},\n    \
         \"interp_fast_ms\": {:.2},\n    \"speedup\": {:.2},\n    \
         \"seed_samples_ms\": {},\n    \
         \"fast_samples_ms\": {},\n    \"pic_hits\": {},\n    \"pic_misses\": {},\n    \
         \"pic_hit_rate\": {:.4},\n    \"pic_evictions\": {},\n    \"bc_compiled\": {},\n    \
         \"bc_superinsts\": {},\n    \"slots_resolved\": {},\n    \"consts_folded\": {}\n  }}",
        interp.seed_ms,
        interp.fast_ms,
        interp.speedup(),
        json_samples(&interp.seed_samples),
        json_samples(&interp.fast_samples),
        interp.pic_hits,
        interp.pic_misses,
        interp.pic_hit_rate(),
        interp.pic_evictions,
        interp.bc_compiled,
        interp.bc_superinsts,
        interp.slots_resolved,
        interp.consts_folded,
    );
    out.push_str("}\n");
    out
}

/// Pulls `"field": <number>` out of `doc`, scoped to the named workload
/// object (first occurrence after the workload key).
fn perf_baseline_ms(doc: &str, workload: &str, field: &str) -> Option<f64> {
    let at = doc.find(&format!("{}:", json_string(workload)))?;
    let rest = &doc[at..];
    let key = format!("\"{field}\":");
    let at = rest.find(&key)?;
    let rest = rest[at + key.len()..].trim_start();
    let end = rest.find(|c: char| c != '.' && !c.is_ascii_digit()).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn perf_gate() -> ExitCode {
    let root = repo_root();
    let workloads: Vec<(&'static str, Box<dyn Fn()>)> = {
        let r1 = root.clone();
        let r2 = root.clone();
        vec![
            ("source_extension", Box::new(move || source_extension_workload(&r1))),
            ("macrolib_foreach", Box::new(macrolib_foreach_workload)),
            ("multijava", Box::new(multijava_workload)),
            ("extension_heavy", Box::new(move || extension_heavy_workload(&r2))),
        ]
    };
    let rows: Vec<PerfRow> =
        workloads.iter().map(|(name, f)| perf_workload(name, f.as_ref())).collect();
    // Leave the thread the way we found it: fast paths on.
    maya::grammar::set_table_cache_enabled(true);
    maya::dispatch::set_dispatch_index_enabled(true);
    maya::grammar::clear_table_cache();

    let mut failed = false;
    for row in &rows {
        println!(
            "xtask perf: {:<18} seed {:>8.2}ms  fast cold {:>8.2}ms  warm {:>8.2}ms  ({:.2}x)",
            row.name,
            row.seed.ms,
            row.fast_cold.ms,
            row.fast_warm.ms,
            row.speedup()
        );
    }

    // Gate 1 (deterministic): warm runs must actually skip table builds.
    let seed_built: u64 = rows.iter().map(|r| perf_counter(&r.seed, Counter::TablesBuilt)).sum();
    let warm_built: u64 =
        rows.iter().map(|r| perf_counter(&r.fast_warm, Counter::TablesBuilt)).sum();
    if warm_built >= seed_built {
        eprintln!(
            "xtask perf: table cache ineffective: {warm_built} tables built warm vs \
             {seed_built} without the cache"
        );
        failed = true;
    }

    // Gate 2 (deterministic): indexed dispatch must test fewer candidates
    // per reduction than the seed's linear scan (782 tests / 470 reductions).
    let tests: u64 = rows.iter().map(|r| perf_counter(&r.fast_warm, Counter::DispatchTests)).sum();
    let reds: u64 =
        rows.iter().map(|r| perf_counter(&r.fast_warm, Counter::DispatchReductions)).sum();
    let ratio = if reds == 0 { 0.0 } else { tests as f64 / reds as f64 };
    println!(
        "xtask perf: dispatch {tests} tests / {reds} reductions = {ratio:.3} per reduction \
         (seed baseline {SEED_TESTS_PER_REDUCTION:.3})"
    );
    if reds == 0 || ratio >= SEED_TESTS_PER_REDUCTION {
        eprintln!("xtask perf: dispatch index ineffective (ratio must be strictly below the seed)");
        failed = true;
    }

    // Gate 3 (absolute): warm single-file recompiles through the compile
    // server must beat a cold whole-workload compile by SERVER_MIN_SPEEDUP.
    let server = server_bench();
    println!(
        "xtask perf: server             cold {:>8.2}ms  warm recompile {:>8.2}ms  \
         full reuse {:>8.2}ms  ({:.2}x)",
        server.cold_ms,
        server.warm_recompile_ms,
        server.full_reuse_ms,
        server.speedup()
    );
    if server.speedup() < SERVER_MIN_SPEEDUP {
        eprintln!(
            "xtask perf: compile server too slow: warm recompile only {:.2}x faster than \
             cold (need {SERVER_MIN_SPEEDUP:.1}x)",
            server.speedup()
        );
        failed = true;
    }

    // Gate 3b (absolute): the concurrent worker-pool service must beat
    // the stateless single-worker loop by SERVICE_MIN_SPEEDUP in
    // compiles/sec on the interleaved 8-client edit stream.
    let service = service_bench();
    println!(
        "xtask perf: service            baseline {:>7.1}/s (p99 {:>7.2}ms)  \
         pool@8 {:>7.1}/s (p99 {:>7.2}ms)  pool@64 {:>7.1}/s (p99 {:>7.2}ms)  ({:.2}x)",
        service.baseline.compiles_per_sec,
        service.baseline.p99_ms,
        service.pool8.compiles_per_sec,
        service.pool8.p99_ms,
        service.pool64.compiles_per_sec,
        service.pool64.p99_ms,
        service.speedup()
    );
    if service.speedup() < SERVICE_MIN_SPEEDUP {
        eprintln!(
            "xtask perf: worker pool too slow: only {:.2}x the stateless single-worker \
             loop's compiles/sec at concurrency 8 (need {SERVICE_MIN_SPEEDUP:.1}x)",
            service.speedup()
        );
        failed = true;
    }

    // Gate 4 (absolute): the bytecode VM tier must beat the legacy tree
    // walker on the interpreter-bound workload, with a healthy PIC hit rate
    // (the fast path must actually be taken, not just exist).
    let interp = interp_bench(&root);
    println!(
        "xtask perf: interp_hot         seed {:>8.2}ms  bytecode {:>8.2}ms  \
         ({:.2}x)  PIC {}/{} hits ({:.1}%)",
        interp.seed_ms,
        interp.fast_ms,
        interp.speedup(),
        interp.pic_hits,
        interp.pic_hits + interp.pic_misses,
        interp.pic_hit_rate() * 100.0,
    );
    if interp.speedup() < INTERP_MIN_SPEEDUP {
        eprintln!(
            "xtask perf: bytecode VM too slow: only {:.2}x faster than the legacy \
             tree walker (need {INTERP_MIN_SPEEDUP:.1}x)",
            interp.speedup()
        );
        failed = true;
    }
    if interp.pic_hit_rate() < INTERP_MIN_PIC_HIT_RATE {
        eprintln!(
            "xtask perf: polymorphic inline caches ineffective: hit rate {:.1}% (need {:.0}%)",
            interp.pic_hit_rate() * 100.0,
            INTERP_MIN_PIC_HIT_RATE * 100.0
        );
        failed = true;
    }

    // Gate 5 (absolute): a cold process against a prewarmed artifact
    // store must beat a true cold process by STORE_MIN_SPEEDUP on the
    // conformance corpus, byte-identical program by program (store_bench
    // fails on any divergence).
    let store = match store_bench(&root) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("xtask perf: store bench FAILED: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "xtask perf: store              cold {:>8.2}ms  warm store {:>8.2}ms  ({:.2}x over \
         {} programs, {} entries, {} KiB)",
        store.cold_ms,
        store.warm_ms,
        store.speedup(),
        store.programs,
        store.entries,
        store.bytes / 1024,
    );
    if store.speedup() < STORE_MIN_SPEEDUP {
        eprintln!(
            "xtask perf: persistent store ineffective: cold process with warm store only \
             {:.2}x faster than true cold (need {STORE_MIN_SPEEDUP:.1}x)",
            store.speedup()
        );
        failed = true;
    }

    // Gate 6 (wall clock, self-relative): no fast-path run may regress more
    // than PERF_TOLERANCE against the committed snapshot, and the service
    // tail latencies may not regress against their committed baselines.
    let doc = render_perf(&rows, &server, &service, &interp, &store);
    let baseline_path = root.join("BENCH_perf.json");
    match std::fs::read_to_string(&baseline_path) {
        Ok(baseline) => {
            for row in &rows {
                let Some(old) = perf_baseline_ms(&baseline, row.name, "fast_warm_ms") else {
                    println!("xtask perf: {} has no baseline yet (new workload)", row.name);
                    continue;
                };
                let limit = old * (1.0 + PERF_TOLERANCE) + PERF_FLOOR_MS;
                if row.fast_warm.ms > limit {
                    eprintln!(
                        "xtask perf: {} REGRESSED: warm {:.2}ms vs baseline {old:.2}ms \
                         (limit {limit:.2}ms)",
                        row.name, row.fast_warm.ms
                    );
                    failed = true;
                }
            }
            for (key, now, floor) in [
                ("pool8_p99_ms", service.pool8.p99_ms, SERVICE_P99_FLOOR_8_MS),
                ("pool64_p99_ms", service.pool64.p99_ms, SERVICE_P99_FLOOR_64_MS),
            ] {
                let Some(old) = perf_baseline_ms(&baseline, "service", key) else {
                    println!("xtask perf: service {key} has no baseline yet");
                    continue;
                };
                let limit = old * (1.0 + PERF_TOLERANCE) + floor;
                if now > limit {
                    eprintln!(
                        "xtask perf: service {key} REGRESSED: {now:.2}ms vs baseline \
                         {old:.2}ms (limit {limit:.2}ms)"
                    );
                    failed = true;
                }
            }
        }
        Err(_) => println!("xtask perf: no committed baseline; writing the first snapshot"),
    }

    if failed {
        eprintln!("xtask perf: FAILED; baseline left untouched");
        return ExitCode::FAILURE;
    }
    std::fs::write(&baseline_path, &doc).expect("write BENCH_perf.json");
    let best = rows.iter().map(PerfRow::speedup).fold(0.0f64, f64::max);
    println!(
        "xtask perf: snapshot written to {} (best speedup {best:.2}x)",
        baseline_path.display()
    );
    ExitCode::SUCCESS
}

// ---- fuzz-lite ---------------------------------------------------------------

/// xorshift64: tiny, deterministic, dependency-free.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> XorShift {
        XorShift(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    fn pick<T: Copy>(&mut self, pool: &[T]) -> T {
        pool[self.below(pool.len())]
    }
}

/// Statement fragments, valid and broken alike.
const STMTS: &[&str] = &[
    "int x = 1;",
    "int x = ;",
    "System.out.println(\"s\");",
    "x = x + 1;",
    "int y = @;",
    "if (x > 0) { x = x - 1; }",
    "while (false) { }",
    "boolean b = $;",
    "use Foreach;",
    "return;",
    "for (int i = 0; i < 3; i = i + 1) { x = x + i; }",
    "String s = null",
    "{ int z = 2; z = z; }",
    ";",
    "} {",
];

/// Member fragments (some nonsense).
const MEMBERS: &[&str] = &[
    "static int f() { return 1; }",
    "int field = 3;",
    "void g(int a) { a = a + 1; }",
    "static int broken() { return ; }",
    "int = ;",
    "syntax garbage here",
];

/// Raw tokens spliced in by the mutation pass.
const SPLICE: &[&str] = &["@", "$", ";", "}", "{", "(", "class", "int", "=", "use", "\\."];

/// One random MayaJava source: a `Main` class with random members and a
/// `main` made of random statement fragments, then (sometimes) a raw
/// token-splice corruption pass.
fn gen_source(rng: &mut XorShift) -> String {
    let mut src = String::from("class Main {\n");
    for _ in 0..rng.below(3) {
        src.push_str("    ");
        src.push_str(rng.pick(MEMBERS));
        src.push('\n');
    }
    src.push_str("    static void main() {\n        int x = 0;\n");
    for _ in 0..1 + rng.below(5) {
        src.push_str("        ");
        src.push_str(rng.pick(STMTS));
        src.push('\n');
    }
    src.push_str("    }\n}\n");
    // Corruption pass: splice raw tokens at random char boundaries.
    if rng.below(2) == 0 {
        for _ in 0..1 + rng.below(3) {
            let mut at = rng.below(src.len());
            while !src.is_char_boundary(at) {
                at -= 1;
            }
            src.insert_str(at, rng.pick(SPLICE));
        }
    }
    // Truncation pass: chop the tail off.
    if rng.below(4) == 0 {
        let mut at = src.len() / 2 + rng.below(src.len() / 2);
        while !src.is_char_boundary(at) {
            at -= 1;
        }
        src.truncate(at);
    }
    src
}

/// Runs one source through the full multi-error driver with tight resource
/// guards. `Ok(true)` = clean run, `Ok(false)` = diagnosed, `Err` = a panic
/// escaped the driver boundary (the invariant violation fuzzing hunts for).
fn fuzz_one(src: &str) -> Result<bool, String> {
    maya::core::catch_ice(|| {
        let c = maya::Compiler::with_options(maya::CompileOptions {
            echo_output: false,
            uses: vec![],
            max_expand_depth: 50,
            expand_fuel: 500_000,
            interp_step_limit: 500_000,
            interp_stack_limit: 64,
            jobs: 1,
            ..Default::default()
        });
        maya::macrolib::install(&c);
        let diags = maya::core::Diagnostics::with_limits(10, false);
        c.add_source_diags("fuzz.maya", src, &diags);
        c.compile_diags(&diags);
        if !diags.should_fail() {
            c.run_main_diags("Main", &diags);
        }
        !diags.should_fail()
    })
}

/// Replays the conformance corpus through the compile-server path: each
/// program cold, warm (must be a byte-identical full reuse), through a
/// second session pinned to the legacy tree-walking interpreter (must be
/// byte-identical to the bytecode run), and after an appended-class edit,
/// all inside the ICE boundary. A panic escaping a session, a warm replay
/// diverging from its cold run, or the bytecode VM diverging from the
/// legacy walker fails the fuzz run — the same invariants the random cases
/// hunt for, on real programs.
fn fuzz_corpus_server(root: &Path) -> Result<(usize, usize), String> {
    let dir = root.join("tests/corpus");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .map_err(|e| format!("read {}: {e}", dir.display()))?
        .filter_map(|e| {
            let name = e.ok()?.file_name().into_string().ok()?;
            name.ends_with(".maya").then_some(name)
        })
        .collect();
    names.sort();
    let installer: std::rc::Rc<dyn Fn(&maya::Compiler)> = std::rc::Rc::new(|c| {
        maya::macrolib::install(c);
        maya::multijava::install(c);
    });
    // Same extensions, but every compiler the session creates runs the
    // legacy tree walker instead of the bytecode VM.
    let legacy_installer: std::rc::Rc<dyn Fn(&maya::Compiler)> = std::rc::Rc::new(|c| {
        maya::macrolib::install(c);
        maya::multijava::install(c);
        c.interp().set_lowering(false);
    });
    let session_opts = maya::CompileOptions { echo_output: false, jobs: 1, ..Default::default() };
    let mut session = maya::Session::new(session_opts.clone(), Some(installer));
    let mut legacy_session = maya::Session::new(session_opts, Some(legacy_installer));
    let opts = maya::RequestOpts::default();
    let (mut clean, mut diagnosed) = (0usize, 0usize);
    for name in &names {
        let src = std::fs::read_to_string(dir.join(name)).map_err(|e| format!("{name}: {e}"))?;
        let noedit = src.lines().any(|l| l.trim() == "// noedit");
        let sources = vec![(name.clone(), src.clone())];
        let replay = maya::core::catch_ice(std::panic::AssertUnwindSafe(|| {
            let cold = session.compile_sources(&sources, &opts);
            let warm = session.compile_sources(&sources, &opts);
            if !warm.full_reuse || warm.stdout != cold.stdout || warm.stderr != cold.stderr {
                return Err(format!("{name}: warm server replay diverged from cold run"));
            }
            let legacy = legacy_session.compile_sources(&sources, &opts);
            if legacy.success != cold.success
                || legacy.stdout != cold.stdout
                || legacy.stderr != cold.stderr
            {
                return Err(format!(
                    "{name}: bytecode VM diverged from the legacy tree walker\n\
                     --- bytecode stdout ---\n{}\n--- legacy stdout ---\n{}\n\
                     --- bytecode stderr ---\n{}\n--- legacy stderr ---\n{}",
                    cold.stdout, legacy.stdout, cold.stderr, legacy.stderr
                ));
            }
            if !noedit {
                let edited = vec![(name.clone(), format!("{src}\nclass ZZFuzz {{ }}\n"))];
                session.compile_sources(&edited, &opts);
            }
            Ok(cold.success)
        }))
        .map_err(|panic_msg| format!("{name}: PANIC escaped the compile server: {panic_msg}"))??;
        if replay {
            clean += 1;
        } else {
            diagnosed += 1;
        }
    }
    Ok((clean, diagnosed))
}

fn fuzz_lite(cases: usize, seed: u64) -> ExitCode {
    let started = std::time::Instant::now();
    let mut rng = XorShift::new(seed);
    let (mut clean, mut diagnosed) = (0usize, 0usize);
    for i in 0..cases {
        let src = gen_source(&mut rng);
        match fuzz_one(&src) {
            Ok(true) => clean += 1,
            Ok(false) => diagnosed += 1,
            Err(panic_msg) => {
                eprintln!(
                    "xtask fuzz-lite: PANIC escaped the driver on case {i} (seed {seed}): \
                     {panic_msg}\n--- input ---\n{src}\n-------------"
                );
                return ExitCode::FAILURE;
            }
        }
    }
    println!(
        "xtask fuzz-lite: {cases} cases (seed {seed}) in {:.1}s: {clean} clean, \
         {diagnosed} diagnosed, 0 panics",
        started.elapsed().as_secs_f64()
    );
    match fuzz_corpus_server(&repo_root()) {
        Ok((clean, diagnosed)) => {
            println!(
                "xtask fuzz-lite: corpus server replay: {} programs ({clean} clean, \
                 {diagnosed} diagnosed), warm == cold, bytecode == legacy, 0 panics",
                clean + diagnosed
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("xtask fuzz-lite: corpus server replay FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}

// ---- verify ------------------------------------------------------------------

/// Reads a top-level `"key": <integer>` field out of a hand-rendered
/// JSON report. Good enough for the documents xtask itself writes.
fn json_uint_field(doc: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let at = doc.find(&pat)? + pat.len();
    let rest = doc[at..].trim_start();
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}

/// The pre-merge gauntlet: every gate command in sequence, each in its
/// own process so one command's global state (telemetry collectors,
/// armed faults, env) cannot leak into the next. After the bounded fuzz
/// smoke, the `BENCH_fuzz.json` it wrote is re-read and the robustness
/// gates re-asserted from the committed artifact itself.
fn verify() -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("xtask verify: cannot locate own binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let steps: &[&[&str]] = &[
        &["telemetry"],
        &["perf"],
        &["fuzz-lite"],
        &["fuzz", "--cases=300", "--seed=7"],
    ];
    for step in steps {
        println!("xtask verify: running {}", step.join(" "));
        match std::process::Command::new(&exe).args(*step).status() {
            Ok(st) if st.success() => {}
            Ok(st) => {
                eprintln!("xtask verify: FAILED at `{}` ({st})", step.join(" "));
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("xtask verify: cannot spawn `{}`: {e}", step.join(" "));
                return ExitCode::FAILURE;
            }
        }
    }
    let report_path = repo_root().join("BENCH_fuzz.json");
    let doc = match std::fs::read_to_string(&report_path) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("xtask verify: fuzz ran but left no {}: {e}", report_path.display());
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for (key, want) in [("escaped_panics", 0), ("divergences", 0), ("unminimized_divergences", 0)] {
        match json_uint_field(&doc, key) {
            Some(v) if v == want => {}
            Some(v) => {
                eprintln!("xtask verify: FAILED: BENCH_fuzz.json has {key} = {v}, want {want}");
                ok = false;
            }
            None => {
                eprintln!("xtask verify: FAILED: BENCH_fuzz.json is missing {key}");
                ok = false;
            }
        }
    }
    if !ok {
        return ExitCode::FAILURE;
    }
    println!("xtask verify: all gates green");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("telemetry") => telemetry_gate(),
        Some("perf") => perf_gate(),
        Some("profile") => {
            let mut top = 10usize;
            for a in &args[1..] {
                if let Some(n) = a.strip_prefix("--top=") {
                    match n.parse() {
                        Ok(n) if n > 0 => top = n,
                        _ => {
                            eprintln!("xtask profile: bad --top value {n:?}");
                            return ExitCode::FAILURE;
                        }
                    }
                } else {
                    eprintln!("xtask profile: unknown option {a}");
                    return ExitCode::FAILURE;
                }
            }
            profile_report(top)
        }
        Some("fuzz-lite") => {
            let mut cases = 300usize;
            let mut seed = 0x6d61_7961_2d72_7321u64; // "maya-rs!"
            for a in &args[1..] {
                if let Some(n) = a.strip_prefix("--cases=") {
                    match n.parse() {
                        Ok(n) => cases = n,
                        Err(_) => {
                            eprintln!("xtask fuzz-lite: bad --cases value {n:?}");
                            return ExitCode::FAILURE;
                        }
                    }
                } else if let Some(s) = a.strip_prefix("--seed=") {
                    match s.parse() {
                        Ok(s) => seed = s,
                        Err(_) => {
                            eprintln!("xtask fuzz-lite: bad --seed value {s:?}");
                            return ExitCode::FAILURE;
                        }
                    }
                } else {
                    eprintln!("xtask fuzz-lite: unknown option {a}");
                    return ExitCode::FAILURE;
                }
            }
            fuzz_lite(cases, seed)
        }
        Some("fuzz") => {
            let mut cfg = fuzz::FuzzConfig {
                cases: fuzz::DEFAULT_CASES,
                seed: fuzz::DEFAULT_SEED,
                budget_secs: None,
                induce: false,
            };
            for a in &args[1..] {
                if let Some(n) = a.strip_prefix("--cases=") {
                    match n.parse() {
                        Ok(n) => cfg.cases = n,
                        Err(_) => {
                            eprintln!("xtask fuzz: bad --cases value {n:?}");
                            return ExitCode::FAILURE;
                        }
                    }
                } else if let Some(s) = a.strip_prefix("--seed=") {
                    match s.parse() {
                        Ok(s) => cfg.seed = s,
                        Err(_) => {
                            eprintln!("xtask fuzz: bad --seed value {s:?}");
                            return ExitCode::FAILURE;
                        }
                    }
                } else if let Some(b) = a.strip_prefix("--budget=") {
                    match b.parse() {
                        Ok(b) => cfg.budget_secs = Some(b),
                        Err(_) => {
                            eprintln!("xtask fuzz: bad --budget value {b:?}");
                            return ExitCode::FAILURE;
                        }
                    }
                } else if a == "--induce" {
                    cfg.induce = true;
                } else {
                    eprintln!("xtask fuzz: unknown option {a}");
                    return ExitCode::FAILURE;
                }
            }
            fuzz::run(&cfg)
        }
        Some("verify") => verify(),
        Some(other) => {
            eprintln!("xtask: unknown command {other}");
            eprintln!(
                "usage: cargo xtask telemetry | perf | profile [--top=N] | \
                 fuzz-lite [--cases=N] [--seed=S] | \
                 fuzz [--cases=N] [--seed=S] [--budget=SECS] [--induce] | verify"
            );
            ExitCode::FAILURE
        }
        None => {
            eprintln!(
                "usage: cargo xtask telemetry | perf | profile [--top=N] | \
                 fuzz-lite [--cases=N] [--seed=S] | \
                 fuzz [--cases=N] [--seed=S] [--budget=SECS] [--induce] | verify"
            );
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_passing_snapshot_refreshes_counters_and_keeps_the_committed_timing() {
        let runs = [WorkloadRun {
            name: "w",
            counters: Counter::ALL.iter().map(|&c| (c, 7)).collect(),
        }];
        let trace = TraceCheck {
            events: 3,
            phases_covered: 2,
        };
        let committed = render(&[], &trace, 17.83);
        let doc = snapshot(&runs, &trace, 31.57, Some(&committed));
        assert_eq!(json_f64(&doc, "interp_hot_disabled_ms"), Some(17.83));
        assert_eq!(json_counter(&doc, Counter::LazyNodesForced.name()), Some(7));
        let first = snapshot(&runs, &trace, 31.57, None);
        assert_eq!(json_f64(&first, "interp_hot_disabled_ms"), Some(31.57));
    }
}
