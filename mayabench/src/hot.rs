//! `run_hot`: the library user with interpreter-bound programs. One thread
//! calls `Compiler::with_options` → `add_source` → `compile` → `run_main`
//! on a seeded draw of the three `interp_hot_*` corpus programs, checking
//! each output against its golden.
//!
//! This is the one workload the interpreter dominates: after set-up the
//! thread's LALR table memo is warm, so tables are never rebuilt and most
//! of each request is `interp`.

use std::time::Instant;

use maya::telemetry;
use maya::{CompileOptions, Compiler};

use crate::corpus::{self, Program};
use crate::layers::{self, Tally, Work, BENCH_REQUEST};
use crate::proc;
use crate::report::{Checks, Table};
use crate::speed::{self, SpeedLog};
use crate::stats::{self, Rng};
use crate::{Ctx, RunOut, Timed, Window};

const PROGRAMS: [&str; 3] = [
    "interp_hot_arith.maya",
    "interp_hot_calls.maya",
    "interp_hot_strings.maya",
];
const SETUP_REPS: usize = 9;
/// The interpreter suffers more than the probe in a slow spell (see
/// `speed.rs`); fitted over pooled runs.
const SENSITIVITY: f64 = 1.5;
/// The process's resident set grows by about 0.1 MB per request served and
/// never shrinks, so its peak is read after a fixed number of requests
/// rather than at the end of a window whose request count varies with speed.
const RSS_AT: usize = 600;

/// One request, with a `bench.*` span around each public call (inert
/// unless a span-capturing telemetry session is active). `induce_us`
/// spins inside the `run_main` span: the detector self-test's stand-in
/// for a slower interpreter.
fn request(p: &Program, induce_us: u64) -> Result<String, String> {
    let _root = telemetry::span(BENCH_REQUEST);
    let c = {
        let _s = telemetry::span("bench.with_options");
        Compiler::with_options(CompileOptions {
            echo_output: false,
            jobs: 1,
            ..Default::default()
        })
    };
    {
        let _s = telemetry::span("bench.add_source");
        c.add_source(&p.name, &p.src).map_err(|e| e.to_string())?;
    }
    {
        let _s = telemetry::span("bench.compile");
        c.compile().map_err(|e| e.to_string())?;
    }
    let _s = telemetry::span("bench.run_main");
    proc::busy_wait_us(induce_us);
    c.run_main("Main").map_err(|e| e.to_string())
}

/// Checks a request's result against the program's goldens.
fn record(p: &Program, result: Result<String, String>, checks: &mut Checks) {
    let verdict = match result {
        Ok(out) => p.check(true, &out, ""),
        Err(e) => p.check(false, "", &format!("{e}\n")),
    };
    checks.record(&p.name, verdict);
}

/// Times one untraced request, in wall and thread CPU time.
fn timed(p: &Program, induce_us: u64, checks: &mut Checks) -> Timed {
    let cpu0 = proc::thread_cpu_ns();
    let t0 = Instant::now();
    let result = request(p, induce_us);
    let t1 = Instant::now();
    let cpu_ns = proc::thread_cpu_ns() - cpu0;
    record(p, result, checks);
    Timed { t0, t1, cpu_ns }
}

/// Round `r` of the request stream: a seeded shuffle of the programs.
fn round(seed: u64, r: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..PROGRAMS.len()).collect();
    Rng::new(seed).fork(r as u64 + 1).shuffle(&mut order);
    order
}

pub fn run(ctx: &Ctx) -> Result<RunOut, String> {
    let all = corpus::load(&ctx.corpus_dir)?;
    let programs: Vec<&Program> = PROGRAMS
        .iter()
        .map(|n| {
            all.iter()
                .find(|p| p.name == *n)
                .ok_or(format!("corpus lacks {n}"))
        })
        .collect::<Result<_, _>>()?;
    let mut checks = Checks::default();
    let mut table = Table::default();
    let reps = if ctx.trace { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::with_capacity(reps);
    for rep in 0..reps {
        // Each repetition runs on a fresh thread, so it finds the
        // thread-local table memo and base environment cold; the last one
        // goes on to the measurement on that same, now warm, thread.
        let last = rep + 1 == reps;
        let (programs, checks, table, setup_s) = (&programs, &mut checks, &mut table, &mut setup_s);
        std::thread::scope(|s| {
            s.spawn(move || -> Result<(), String> {
                let (secs, ()) = speed::calibrated_secs(SENSITIVITY, |_| {
                    for p in programs {
                        timed(p, 0, checks);
                    }
                });
                setup_s.push(secs);
                if last {
                    measure(ctx, programs, checks, table)?;
                }
                Ok(())
            })
            .join()
            .expect("run_hot thread")
        })?;
    }
    if !ctx.trace {
        table.set("setup_s", stats::median(&setup_s));
    }
    Ok(RunOut { table, checks })
}

fn measure(
    ctx: &Ctx,
    programs: &[&Program],
    checks: &mut Checks,
    table: &mut Table,
) -> Result<(), String> {
    if !ctx.trace {
        let mut reqs = Vec::new();
        let speed = SpeedLog::default();
        speed.probe();
        let start = Instant::now();
        let (mut last_round_s, mut rss_kb) = (0.0, None);
        for r in 0.. {
            let late = start.elapsed().as_secs_f64() + last_round_s > ctx.seconds;
            if r > 0 && late && rss_kb.is_some() {
                break;
            }
            let round_t0 = Instant::now();
            for i in round(ctx.seed, r) {
                speed.maybe_probe();
                reqs.push(timed(programs[i], ctx.induce_us, checks));
                if reqs.len() == RSS_AT {
                    rss_kb = Some(proc::peak_rss_kb("self")?);
                }
            }
            last_round_s = round_t0.elapsed().as_secs_f64();
        }
        let end = Instant::now();
        speed.probe();
        let window = Window {
            spans: vec![(start, end)],
            reqs,
            total_cpu_ns: None,
            speed: speed.finish(),
            sensitivity: SENSITIVITY,
        };
        crate::window_metrics(table, &window)?;
        table.set("peak_rss_mb", rss_kb.unwrap_or_default() as f64 / 1024.0);
        return Ok(());
    }

    // The same rounds twice: untraced, then each request under its own
    // span-capturing telemetry session.
    let rounds = ctx.traced_passes(150.0);
    let mut untraced_ms = Vec::new();
    for r in 0..rounds {
        for i in round(ctx.seed, r) {
            untraced_ms.push(timed(programs[i], ctx.induce_us, checks).ms());
        }
    }
    let mut tally = Tally::default();
    for r in 0..rounds {
        for i in round(ctx.seed, r) {
            let q0 = Instant::now();
            let session = telemetry::Session::start(telemetry::Config {
                capture_spans: true,
                ..Default::default()
            });
            let result = request(programs[i], ctx.induce_us);
            let report = session.finish();
            let wall_ns = q0.elapsed().as_nanos() as u64;
            record(programs[i], result, checks);
            tally
                .add_request(
                    wall_ns,
                    0,
                    &layers::spans_of_report(&report)?,
                    Work::of_report(&report),
                )
                .map_err(|e| format!("traced {}: {e}", programs[i].name))?;
        }
    }
    tally.fill(table);
    table.set(
        "telemetry.overhead_pct",
        (stats::median(&tally.wall_ms) / stats::median(&untraced_ms) - 1.0) * 100.0,
    );
    table.set("error_rate", checks.error_rate());
    Ok(())
}
