//! `mayabench`: the repository benchmark.
//!
//! Four closed-loop workloads drive what users touch: `mayac` processes
//! without and with a persistent store (`cli_cold`, `cli_store`), a real
//! `mayad` serving edit requests (`daemon_edit`), and the `maya` library
//! running interpreter-bound programs in-process (`run_hot`). Every request
//! is timed from outside the program and checked against a reference that
//! does not come from the compiler under test. See `mayabench/README.md`
//! for why each workload exists and what each metric means.
//!
//! ```text
//! mayabench --workload W --seed N --seconds S --trace 0|1 --bench-dir D --bin-dir B
//! mayabench --self-test   [--seconds S] --bench-dir D --bin-dir B
//! mayabench --check-counts [--seed N] [--seconds S] --bench-dir D --bin-dir B
//! ```
//!
//! `run.sh` builds `mayac`, `mayad` and this binary, then passes the two
//! directories. The last stdout line of a run is the JSON result; all
//! diagnostics go to stderr.

mod cli;
mod corpus;
mod daemon;
mod hot;
mod layers;
mod proc;
mod report;
mod selftest;
mod speed;
mod stats;

use report::{Checks, Spec, Table};
use speed::Speed;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

pub const WORKLOADS: [&str; 4] = ["cli_cold", "cli_store", "daemon_edit", "run_hot"];

/// Everything one run needs to know.
pub struct Ctx {
    /// Where `mayac` and `mayad` were built.
    pub bin_dir: PathBuf,
    /// The benchmark's own copy of the conformance corpus.
    pub corpus_dir: PathBuf,
    /// Scratch directory of this run, inside the checkout.
    pub work: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Detector self-test only: spin this long before each
    /// `Compiler::run_main` in `run_hot`.
    pub induce_us: u64,
}

impl Ctx {
    /// How many passes of a fixed stream a traced run replays: enough
    /// requests for a steady median, a whole number so that the counts
    /// depend only on the seed and `--seconds`.
    pub fn traced_passes(&self, per_ten_seconds: f64) -> usize {
        ((self.seconds / 10.0 * per_ten_seconds).round() as usize).max(1)
    }
}

/// What one workload run produced.
pub struct RunOut {
    pub table: Table,
    pub checks: Checks,
}

/// One request of a timed window, as the benchmark timed it.
pub struct Timed {
    pub t0: Instant,
    pub t1: Instant,
    /// CPU time of the compiler process or thread on this request; 0 when
    /// only the window's total is known.
    pub cpu_ns: u64,
}

impl Timed {
    pub fn ms(&self) -> f64 {
        self.t1.duration_since(self.t0).as_nanos() as f64 / 1e6
    }
}

/// A finished timed window: its requests and the machine-speed probes
/// taken between them.
pub struct Window {
    /// The timed stretches; set-up work between them is off the clock.
    pub spans: Vec<(Instant, Instant)>,
    pub reqs: Vec<Timed>,
    /// The compiler process's CPU over the whole window, when it cannot be
    /// split per request (`mayad`).
    pub total_cpu_ns: Option<u64>,
    pub speed: Speed,
    /// How much harder than the probe the workload's requests are hit by a
    /// slow spell: a request that ran while the probe was `s` times slower
    /// than nominal took `s^sensitivity` times longer (see `speed.rs`).
    pub sensitivity: f64,
}

/// The timed end-to-end metrics of a window, in calibrated time (see
/// `speed.rs`). A p90 needs at least ten samples above it.
pub fn window_metrics(t: &mut Table, w: &Window) -> Result<(), String> {
    let n = w.reqs.len();
    let scale = |ns: f64, s: f64| ns / s.powf(w.sensitivity);
    let lat_ms: Vec<f64> = w
        .reqs
        .iter()
        .map(|r| scale(r.ms(), w.speed.slowdown(r.t0, r.t1)))
        .collect();
    let p90 = stats::quantile(&lat_ms, 0.9);
    let above = lat_ms.iter().filter(|&&l| l > p90).count();
    if above < 10 {
        return Err(format!(
            "only {n} requests in the window ({above} above p90); need at least 10 above it"
        ));
    }
    let (mut window_s, mut wall_s, mut slow_s) = (0.0, 0.0, 0.0);
    for &(a, b) in &w.spans {
        let (secs, s) = (
            b.duration_since(a).as_secs_f64(),
            w.speed.mean_slowdown(a, b),
        );
        window_s += scale(secs, s);
        wall_s += secs;
        slow_s += secs * s;
    }
    let window_slowdown = slow_s / wall_s;
    let cpu_ms = match w.total_cpu_ns {
        Some(total) => scale(total as f64, window_slowdown) / n as f64 / 1e6,
        None => {
            w.reqs
                .iter()
                .map(|r| scale(r.cpu_ns as f64, w.speed.slowdown(r.t0, r.t1)))
                .sum::<f64>()
                / n as f64
                / 1e6
        }
    };
    let wall_ms: Vec<f64> = w.reqs.iter().map(Timed::ms).collect();
    eprintln!(
        "mayabench: {n} requests; uncalibrated p50 {:.3} ms, p90 {:.3} ms; mean slowdown {window_slowdown:.3}",
        stats::median(&wall_ms),
        stats::quantile(&wall_ms, 0.9),
    );
    t.set("latency_p50_ms", stats::median(&lat_ms));
    t.set("latency_p90_ms", p90);
    t.set("throughput_rps", n as f64 / window_s);
    t.set("cpu_ms_per_req", cpu_ms);
    Ok(())
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    bench_dir: Option<PathBuf>,
    bin_dir: Option<PathBuf>,
    induce_us: u64,
    self_test: bool,
    check_counts: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        bench_dir: None,
        bin_dir: None,
        induce_us: 0,
        self_test: false,
        check_counts: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let num = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {v:?}"))
        };
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = num(value()?)?,
            "--seconds" => a.seconds = num(value()?)? as f64,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--bench-dir" => a.bench_dir = Some(PathBuf::from(value()?)),
            "--bin-dir" => a.bin_dir = Some(PathBuf::from(value()?)),
            "--induce-us" => a.induce_us = num(value()?)?,
            "--self-test" => a.self_test = true,
            "--check-counts" => a.check_counts = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if a.seconds < 1.0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(a)
}

/// The run's scratch directory; removed when the run ends, however it ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run_workload(a: &Args, bench_dir: &Path, bin_dir: &Path) -> Result<(String, bool), String> {
    let spec = Spec::load(Path::new("BENCHMARK.json"))?;
    let workload = a.workload.as_deref().ok_or("--workload is required")?;
    let work = WorkDir(PathBuf::from(".bench_work").join(std::process::id().to_string()));
    let _ = std::fs::remove_dir_all(&work.0);
    std::fs::create_dir_all(&work.0).map_err(|e| format!("create {}: {e}", work.0.display()))?;
    let ctx = Ctx {
        bin_dir: bin_dir.to_path_buf(),
        corpus_dir: bench_dir.join("corpus"),
        work: work.0.clone(),
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
        induce_us: a.induce_us,
    };
    eprintln!(
        "mayabench: {workload} seed={} seconds={} trace={}",
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace)
    );
    let out = match workload {
        "cli_cold" => cli::run(&ctx, false)?,
        "cli_store" => cli::run(&ctx, true)?,
        "daemon_edit" => daemon::run(&ctx)?,
        "run_hot" => hot::run(&ctx)?,
        other => {
            return Err(format!(
                "unknown workload {other:?} (expected one of {WORKLOADS:?})"
            ))
        }
    };
    let line = report::result_line(&spec, ctx.trace, &out.table, &out.checks)?;
    Ok((line, out.checks.failed == 0))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mayabench: {e}");
            return ExitCode::from(2);
        }
    };
    let (Some(bench_dir), Some(bin_dir)) = (args.bench_dir.clone(), args.bin_dir.clone()) else {
        eprintln!("mayabench: --bench-dir and --bin-dir are required (run it through run.sh)");
        return ExitCode::from(2);
    };
    if args.self_test {
        return selftest::detector(&bench_dir, &bin_dir, args.seconds);
    }
    if args.check_counts {
        return selftest::counts(
            &bench_dir,
            &bin_dir,
            args.seed,
            args.seconds,
            args.workload.as_deref(),
        );
    }
    match run_workload(&args, &bench_dir, &bin_dir) {
        Ok((line, correct)) => {
            println!("{line}");
            if correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("mayabench: some requests did not match their reference");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("mayabench: {e}");
            ExitCode::FAILURE
        }
    }
}
