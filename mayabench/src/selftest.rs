//! Checks on the benchmark itself, each made of ordinary runs of this
//! binary in child processes.
//!
//! * `--self-test` proves the detector from outside the program: it spins
//!   before every `Compiler::run_main` of `run_hot` for twice the
//!   workload's `latency_p50_ms` bound, and requires that comparing against
//!   clean runs flags `latency_p50_ms`, that the delay lands in
//!   `interp.self_ms`, and that an unmodified repeat flags nothing.
//! * `--check-counts` runs every workload's traced run twice with the same
//!   seed and once with the next seed, and lists which per-layer counts
//!   repeat exactly (and may be cited) and which do not.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use maya::core::json::{parse_json, Json};

use crate::report::Spec;
use crate::stats::median;

type Metrics = BTreeMap<String, f64>;

/// One run of this binary; returns the metrics of its result line.
fn run(
    bench_dir: &Path,
    bin_dir: &Path,
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    induce_us: u64,
) -> Result<Metrics, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &(seconds as u64).to_string(),
        ])
        .args([
            "--trace",
            if trace { "1" } else { "0" },
            "--induce-us",
            &induce_us.to_string(),
        ])
        .arg("--bench-dir")
        .arg(bench_dir)
        .arg("--bin-dir")
        .arg(bin_dir)
        .stderr(Stdio::null())
        .output()
        .map_err(|e| format!("spawn benchmark run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .unwrap_or_default();
    let doc =
        parse_json(line).map_err(|e| format!("{workload} seed {seed}: no result line ({e})"))?;
    if !out.status.success() || doc.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!(
            "{workload} seed {seed}: run failed ({})",
            out.status
        ));
    }
    let mut m = Metrics::new();
    if let Some(Json::Obj(metrics)) = doc.get("metrics") {
        for (k, v) in metrics {
            if let Some(Json::Num(n)) = v.get("value") {
                m.insert(k.clone(), *n);
            }
        }
    }
    Ok(m)
}

/// How much worse `after`'s median is than `before`'s, as a share of
/// `before`'s (negative when better).
fn worsening(before: &[Metrics], after: &[Metrics], name: &str, higher_is_better: bool) -> f64 {
    let med = |v: &[Metrics]| {
        median(
            &v.iter()
                .map(|m| m.get(name).copied().unwrap_or(0.0))
                .collect::<Vec<_>>(),
        )
    };
    let (b, a) = (med(before), med(after));
    let w = (a - b) / b;
    if higher_is_better {
        -w
    } else {
        w
    }
}

const SELF_TEST_SEEDS: [u64; 3] = [1, 2, 3];

pub fn detector(bench_dir: &Path, bin_dir: &Path, seconds: f64) -> ExitCode {
    match detector_inner(bench_dir, bin_dir, seconds) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("mayabench: self-test: {e}");
            ExitCode::FAILURE
        }
    }
}

fn detector_inner(bench_dir: &Path, bin_dir: &Path, seconds: f64) -> Result<bool, String> {
    let spec = Spec::load(Path::new("BENCHMARK.json"))?;
    let p50 = spec
        .end_to_end
        .iter()
        .find(|m| m.name == "latency_p50_ms")
        .and_then(|m| m.bound)
        .ok_or("BENCHMARK.json declares no latency_p50_ms bound")?;
    let set = |induce_us: u64| -> Result<Vec<Metrics>, String> {
        SELF_TEST_SEEDS
            .iter()
            .map(|&s| run(bench_dir, bin_dir, "run_hot", s, seconds, false, induce_us))
            .collect()
    };
    eprintln!("mayabench: self-test: clean runs of run_hot");
    let clean = set(0)?;
    let base_ms = median(
        &clean
            .iter()
            .map(|m| m["latency_p50_ms"])
            .collect::<Vec<_>>(),
    );
    let delay_us = (2.0 * p50 * base_ms * 1000.0).round() as u64;
    eprintln!("mayabench: self-test: unmodified repeat, then {delay_us} us before each run_main");
    let repeat = set(0)?;
    let induced = set(delay_us)?;
    let traced_clean = run(bench_dir, bin_dir, "run_hot", 1, seconds, true, 0)?;
    let traced_induced = run(bench_dir, bin_dir, "run_hot", 1, seconds, true, delay_us)?;

    let mut ok = true;
    println!(
        "{:<20} {:>10} {:>12} {:>12} {:>8}",
        "metric", "bound", "repeat", "induced", ""
    );
    for m in &spec.end_to_end {
        let bound = m.bound.unwrap_or(0.0);
        let r = worsening(&clean, &repeat, &m.name, m.higher_is_better);
        let i = worsening(&clean, &induced, &m.name, m.higher_is_better);
        let mut verdict = String::new();
        if r > bound {
            ok = false;
            verdict.push_str("REPEAT FLAGGED ");
        }
        if m.name == "latency_p50_ms" {
            if i > bound {
                verdict.push_str("flagged, as it must be");
            } else {
                ok = false;
                verdict.push_str("NOT FLAGGED");
            }
        }
        println!(
            "{:<20} {:>9.1}% {:>11.1}% {:>11.1}%  {verdict}",
            m.name,
            bound * 100.0,
            r * 100.0,
            i * 100.0
        );
    }
    let delay_ms = delay_us as f64 / 1000.0;
    let mut deltas: Vec<(String, f64)> = traced_clean
        .iter()
        .filter(|(k, _)| k.ends_with("self_ms") || k.ends_with("startup_ms"))
        .map(|(k, v)| (k.clone(), traced_induced.get(k).copied().unwrap_or(0.0) - v))
        .collect();
    deltas.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("per-layer deltas (ms per request) for a {delay_ms:.3} ms delay:");
    for (k, d) in &deltas {
        println!("  {k:<36} {d:>9.3}");
    }
    let (top, top_delta) = deltas.first().cloned().unwrap_or_default();
    if top != "interp.self_ms" || top_delta < 0.8 * delay_ms {
        ok = false;
        println!("the delay did not land in interp.self_ms");
    }
    println!("self-test {}", if ok { "passed" } else { "FAILED" });
    Ok(ok)
}

/// Units of timed metrics; everything else is a count or a ratio of
/// counts and must repeat exactly to be cited.
const TIME_UNITS: [&str; 3] = ["ms", "us", "%"];

pub fn counts(
    bench_dir: &Path,
    bin_dir: &Path,
    seed: u64,
    seconds: f64,
    only: Option<&str>,
) -> ExitCode {
    let spec = match Spec::load(Path::new("BENCHMARK.json")) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("mayabench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = false;
    for w in crate::WORKLOADS
        .iter()
        .filter(|w| only.is_none_or(|o| o == **w))
    {
        let runs: Result<Vec<Metrics>, String> = [seed, seed, seed + 1]
            .iter()
            .map(|&s| run(bench_dir, bin_dir, w, s, seconds, true, 0))
            .collect();
        let runs = match runs {
            Ok(r) => r,
            Err(e) => {
                eprintln!("mayabench: {e}");
                failed = true;
                continue;
            }
        };
        println!("{w}:");
        for m in spec
            .per_layer
            .iter()
            .filter(|m| !TIME_UNITS.contains(&m.unit.as_str()))
        {
            let v: Vec<f64> = runs
                .iter()
                .map(|r| r.get(&m.name).copied().unwrap_or(0.0))
                .collect();
            let verdict = match (v[0] == v[1], v[0] == v[2]) {
                (false, _) => "NOT citeable: differs between identical runs",
                (true, true) => "repeats, also across seeds",
                (true, false) => "repeats for a given seed",
            };
            println!(
                "  {:<36} {:>14} {:>14} {:>14}  {verdict}",
                m.name, v[0], v[1], v[2]
            );
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
