//! `daemon_edit`: the IDE user. One real `mayad --workers=2` serves two
//! client connections, one thread each. Every client owns a seeded
//! 40-class, 41-file project on disk; before each request it rewrites one
//! seeded file with an edit that changes the tokens but not the output,
//! and the generator computes the expected stdout on the host.
//!
//! The warm session's incremental layers do the work here: fingerprints,
//! the force cache, unit and class-body caches, the dispatch memo. Table
//! builds and the store do none. `mayad` exports no per-request spans, so
//! the traced run replays each client's stream through
//! `Session::compile_sources` in-process for the layer self times, and
//! takes cache gauges and the server-side histogram from `{"cmd":"stats"}`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write as _};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use maya::core::json::{parse_json, Json};
use maya::telemetry;

use crate::layers::{self, Tally, Work, BENCH_REQUEST};
use crate::proc;
use crate::report::{Checks, Table};
use crate::speed::{self, SpeedLog};
use crate::stats::{self, Rng};
use crate::{Ctx, RunOut, Timed, Window};

const CLIENTS: usize = 2;
const CLASSES: usize = 40;
const SETUP_REPS: usize = 9;
/// A round trip suffers about as much as the probe in a slow spell (see
/// `speed.rs`); fitted over pooled runs.
const SENSITIVITY: f64 = 1.0;
/// `mayad` grows by about 0.9 MB per edit request and never shrinks, so
/// its peak resident set is read after a fixed number of requests rather
/// than at the end of a window whose request count varies with speed.
const RSS_AT: usize = 1000;
/// The longest a single daemon serves the timed window: at ~300 requests
/// a second, a daemon serving a whole 20 s window would grow past 5 GB.
const SEGMENT_S: f64 = 5.0;

/// One client's project: 40 class files and a main that sums their ids.
struct Project {
    client: usize,
    values: Vec<u32>,
    /// Picks the file each request rewrites.
    rng: Rng,
    /// Makes every edit new content.
    next_tag: u64,
}

impl Project {
    fn new(seed: u64, client: usize) -> Project {
        let mut rng = Rng::new(seed).fork(0xC11E + client as u64);
        let values = (0..CLASSES).map(|_| 1 + rng.below(999) as u32).collect();
        Project {
            client,
            values,
            rng,
            next_tag: 0,
        }
    }

    fn file_name(&self, i: usize) -> String {
        if i == CLASSES {
            format!("c{}/main.maya", self.client)
        } else {
            format!("c{}/k{i:02}.maya", self.client)
        }
    }

    /// Class `i`. `pad` is never called: rewriting its constant changes
    /// the file's tokens, never the program's output.
    fn class_src(&self, i: usize, pad: u64) -> String {
        let c = self.client;
        let mut s = format!(
            "class P{c}C{i} {{\n    int id() {{ return {}; }}\n",
            self.values[i]
        );
        if i > 0 {
            let _ = writeln!(
                s,
                "    int chained() {{ return new P{c}C{}().id() + id(); }}",
                i - 1
            );
        }
        for m in 0..8 {
            let _ = writeln!(
                s,
                "    int m{m}(int a) {{ int t = a * {m} + id(); return t - a; }}"
            );
        }
        let _ = writeln!(s, "    int pad() {{ return {pad}; }}\n}}");
        s
    }

    fn main_src(&self) -> String {
        let terms: Vec<String> = (0..CLASSES)
            .map(|i| format!("new P{}C{i}().id()", self.client))
            .collect();
        format!(
            "class Main {{\n    static void main() {{\n        System.out.println({});\n    }}\n}}\n",
            terms.join(" + ")
        )
    }

    /// The reference output, computed here rather than by the compiler.
    fn expected_stdout(&self) -> String {
        format!(
            "{}\n",
            self.values.iter().map(|&v| u64::from(v)).sum::<u64>()
        )
    }

    fn sources(&self) -> Vec<(String, String)> {
        let mut files: Vec<(String, String)> = (0..CLASSES)
            .map(|i| (self.file_name(i), self.class_src(i, 0)))
            .collect();
        files.push((self.file_name(CLASSES), self.main_src()));
        files
    }

    /// The next edit: (file index, new content).
    fn next_edit(&mut self) -> (usize, String) {
        let i = self.rng.below(CLASSES);
        self.next_tag += 1;
        (i, self.class_src(i, self.next_tag))
    }

    fn request_line(&self) -> String {
        let files: Vec<String> = (0..=CLASSES)
            .map(|i| telemetry::json_string(&self.file_name(i)))
            .collect();
        format!(
            "{{\"client\": \"c{}\", \"run\": true, \"files\": [{}]}}",
            self.client,
            files.join(", ")
        )
    }

    fn check_reply(&self, reply: &str) -> Result<(), String> {
        let j = parse_json(reply).map_err(|e| format!("unparsable reply {reply:?}: {e}"))?;
        if j.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!("refused: {reply}"));
        }
        check_outcome(
            j.get("success").and_then(Json::as_bool) == Some(true),
            j.get("stdout").and_then(Json::as_str).unwrap_or_default(),
            j.get("stderr").and_then(Json::as_str).unwrap_or_default(),
            &self.expected_stdout(),
        )
    }
}

fn check_outcome(success: bool, stdout: &str, stderr: &str, expected: &str) -> Result<(), String> {
    if !success {
        return Err(format!("compile failed: {stderr}"));
    }
    if stdout != expected || !stderr.is_empty() {
        return Err(format!(
            "expected stdout {expected:?} and empty stderr, got {stdout:?} / {stderr:?}"
        ));
    }
    Ok(())
}

/// One NDJSON connection to `mayad`.
struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Conn {
    fn open(sock: &Path) -> Result<Conn, String> {
        let s =
            UnixStream::connect(sock).map_err(|e| format!("connect {}: {e}", sock.display()))?;
        s.set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let writer = s.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::new(s),
            writer,
        })
    }

    /// Sends one line and returns the one-line reply.
    fn call(&mut self, line: &str) -> Result<String, String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send to mayad: {e}"))?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) => Err("mayad closed the connection".into()),
            Ok(_) => Ok(reply),
            Err(e) => Err(format!("read from mayad: {e}")),
        }
    }
}

/// A running `mayad`; shut down (or killed) and reaped on drop.
struct Daemon {
    child: Child,
    sock: PathBuf,
}

impl Daemon {
    fn start(mayad: &Path, dir: &Path) -> Result<Daemon, String> {
        let log = std::fs::File::create(dir.join("mayad.log"))
            .map_err(|e| format!("create mayad.log: {e}"))?;
        let mut cmd = Command::new(mayad);
        cmd.current_dir(dir)
            .args(["--socket=mayad.sock", "--workers=2"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::from(log));
        for var in [
            "MAYA_CACHE_DIR",
            "MAYA_FAULTS",
            "MAYA_NO_LOWER",
            "MAYA_NO_BYTECODE",
        ] {
            cmd.env_remove(var);
        }
        let child = cmd.spawn().map_err(|e| format!("spawn mayad: {e}"))?;
        let d = Daemon {
            child,
            sock: dir.join("mayad.sock"),
        };
        let t0 = Instant::now();
        while UnixStream::connect(&d.sock).is_err() {
            if t0.elapsed() > Duration::from_secs(30) {
                return Err("mayad did not come up within 30 s".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok(d)
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// `{"cmd":"stats"}`.
    fn stats(&self) -> Result<Json, String> {
        let reply = Conn::open(&self.sock)?.call(r#"{"client": "bench-ctl", "cmd": "stats"}"#)?;
        let j = parse_json(&reply).map_err(|e| format!("stats reply: {e}"))?;
        j.get("stats")
            .cloned()
            .ok_or_else(|| format!("stats reply without stats: {reply}"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let asked = Conn::open(&self.sock)
            .and_then(|mut c| c.call(r#"{"cmd": "shutdown"}"#))
            .is_ok();
        let t0 = Instant::now();
        while asked && t0.elapsed() < Duration::from_secs(10) {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn stats_f64(stats: &Json, path: &[&str]) -> f64 {
    let mut v = Some(stats);
    for k in path {
        v = v.and_then(|x| x.get(k));
    }
    match v {
        Some(Json::Num(n)) => *n,
        _ => 0.0,
    }
}

/// Cache hit/miss growth between two `stats` snapshots.
fn cache_deltas(before: &Json, after: &Json) -> BTreeMap<String, (u64, u64)> {
    let mut out = BTreeMap::new();
    if let Some(Json::Obj(caches)) = after.get("caches") {
        for name in caches.keys() {
            let d = |f: &str| {
                (stats_f64(after, &["caches", name, f]) - stats_f64(before, &["caches", name, f]))
                    .max(0.0) as u64
            };
            out.insert(name.clone(), (d("hits"), d("misses")));
        }
    }
    out
}

/// Writes both projects, starts `mayad` and has each client compile its
/// project once.
fn setup(
    ctx: &Ctx,
    dir: &Path,
    projects: &[Project],
    checks: &mut Checks,
) -> Result<(Daemon, Vec<Conn>), String> {
    for p in projects {
        std::fs::create_dir_all(dir.join(format!("c{}", p.client))).map_err(|e| e.to_string())?;
        for (name, src) in p.sources() {
            std::fs::write(dir.join(&name), src).map_err(|e| format!("write {name}: {e}"))?;
        }
    }
    let daemon = Daemon::start(&ctx.bin_dir.join("mayad"), dir)?;
    let replies: Vec<Result<(Conn, String), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = projects
            .iter()
            .map(|p| {
                let sock = &daemon.sock;
                s.spawn(move || {
                    let mut conn = Conn::open(sock)?;
                    let reply = conn.call(&p.request_line())?;
                    Ok((conn, reply))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("setup client thread"))
            .collect()
    });
    let mut conns = Vec::new();
    for (p, r) in projects.iter().zip(replies) {
        let (conn, reply) = r?;
        checks.record(
            &format!("c{} initial compile", p.client),
            p.check_reply(&reply),
        );
        conns.push(conn);
    }
    Ok((daemon, conns))
}

/// The results of a closed-loop stream through `mayad`.
#[derive(Default)]
struct Stream {
    reqs: Vec<Timed>,
    refusals: u64,
    checks: Checks,
}

/// How long a stream runs and what it records on the way.
struct Plan<'a> {
    deadline: Instant,
    /// Requests per client at most.
    limit: usize,
    speed: &'a SpeedLog,
    /// `mayad`'s pid, the request count at which to read its peak resident
    /// set, and where to put it. The stream runs on past `deadline` until
    /// that count is reached.
    rss: Option<(u32, usize, &'a AtomicU64)>,
}

/// Every client sends edit requests back to back, probing the machine's
/// speed between requests, for as long as `plan` says.
fn drive(
    dir: &Path,
    projects: &mut [Project],
    conns: &mut [Conn],
    plan: &Plan,
    checks: &mut Checks,
) -> Result<Stream, String> {
    let done = AtomicUsize::new(0);
    let rss_at = plan.rss.map_or(0, |(_, at, _)| at);
    let results: Vec<Result<Stream, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = projects
            .iter_mut()
            .zip(conns.iter_mut())
            .map(|(p, conn)| {
                let done = &done;
                s.spawn(move || {
                    let line = p.request_line();
                    let mut out = Stream::default();
                    while out.reqs.len() < plan.limit
                        && (Instant::now() < plan.deadline || done.load(Ordering::SeqCst) < rss_at)
                    {
                        plan.speed.maybe_probe();
                        let (i, src) = p.next_edit();
                        std::fs::write(dir.join(p.file_name(i)), src).map_err(|e| e.to_string())?;
                        let t0 = Instant::now();
                        let reply = conn.call(&line)?;
                        out.reqs.push(Timed {
                            t0,
                            t1: Instant::now(),
                            cpu_ns: 0,
                        });
                        if let Some((pid, at, kb)) = plan.rss {
                            if done.fetch_add(1, Ordering::SeqCst) + 1 == at {
                                kb.store(proc::peak_rss_kb(&pid.to_string())?, Ordering::SeqCst);
                            }
                        }
                        let refused = parse_json(&reply)
                            .ok()
                            .and_then(|j| j.get("ok").and_then(Json::as_bool));
                        out.refusals += u64::from(refused == Some(false));
                        out.checks.record(
                            &format!("c{} edit of k{i:02}", p.client),
                            p.check_reply(&reply),
                        );
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut out = Stream::default();
    for r in results {
        let s = r?;
        out.reqs.extend(s.reqs);
        out.refusals += s.refusals;
        checks.attempted += s.checks.attempted;
        checks.failed += s.checks.failed;
    }
    Ok(out)
}

pub fn run(ctx: &Ctx) -> Result<RunOut, String> {
    let mut checks = Checks::default();
    let mut table = Table::default();
    let reps = if ctx.trace { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::with_capacity(reps);
    let mut live: Option<(Daemon, Vec<Conn>, Vec<Project>, PathBuf)> = None;
    for r in 0..reps {
        // Every repetition starts from scratch: fresh projects, a fresh
        // daemon. The earlier daemons are shut down when replaced.
        let projects: Vec<Project> = (0..CLIENTS).map(|c| Project::new(ctx.seed, c)).collect();
        let dir = ctx.work.join(format!("d{r}"));
        drop(live.take());
        let (secs, done) =
            speed::calibrated_secs(SENSITIVITY, |_| setup(ctx, &dir, &projects, &mut checks));
        let (daemon, conns) = done?;
        setup_s.push(secs);
        live = Some((daemon, conns, projects, dir));
    }
    let (daemon, mut conns, mut projects, dir) = live.expect("at least one set-up");

    if !ctx.trace {
        // The window is cut into segments of about SEGMENT_S, each served
        // by a daemon of its own, set up off the clock; the clients' edit
        // streams carry on across them.
        let segments = (ctx.seconds / SEGMENT_S).ceil().max(1.0) as usize;
        let speed = SpeedLog::default();
        let (mut reqs, mut spans, mut cpu_ms, mut rss_kb) = (Vec::new(), Vec::new(), 0.0, 0u64);
        let mut served = Some((daemon, conns, dir));
        for seg in 0..segments {
            let (daemon, mut conns, dir) = match served.take() {
                Some(first) => first,
                None => {
                    let dir = ctx.work.join(format!("seg{seg}"));
                    let (daemon, conns) = setup(ctx, &dir, &projects, &mut checks)?;
                    (daemon, conns, dir)
                }
            };
            let pid = daemon.pid();
            let seg_rss_kb = AtomicU64::new(0);
            let cpu0 = proc::process_cpu_ms(pid)?;
            speed.probe();
            let start = Instant::now();
            let plan = Plan {
                deadline: start + Duration::from_secs_f64(ctx.seconds / segments as f64),
                limit: usize::MAX,
                speed: &speed,
                rss: Some((pid, RSS_AT, &seg_rss_kb)),
            };
            let s = drive(&dir, &mut projects, &mut conns, &plan, &mut checks)?;
            spans.push((start, Instant::now()));
            cpu_ms += proc::process_cpu_ms(pid)? - cpu0;
            speed.probe();
            reqs.extend(s.reqs);
            rss_kb = rss_kb.max(seg_rss_kb.load(Ordering::SeqCst));
        }
        let window = Window {
            spans,
            reqs,
            total_cpu_ns: Some((cpu_ms * 1e6) as u64),
            speed: speed.finish(),
            sensitivity: SENSITIVITY,
        };
        crate::window_metrics(&mut table, &window)?;
        table.set("peak_rss_mb", rss_kb as f64 / 1024.0);
        table.set("setup_s", stats::median(&setup_s));
        return Ok(RunOut { table, checks });
    }

    // A fixed stream through the real daemon, bracketed by stats.
    let per_client = ctx.traced_passes(100.0);
    let before = daemon.stats()?;
    let unused = SpeedLog::default();
    let plan = Plan {
        deadline: Instant::now() + Duration::from_secs(3600),
        limit: per_client,
        speed: &unused,
        rss: None,
    };
    let s = drive(&dir, &mut projects, &mut conns, &plan, &mut checks)?;
    let lat_ms: Vec<f64> = s.reqs.iter().map(Timed::ms).collect();
    let after = daemon.stats()?;
    drop(conns);
    drop(daemon);
    let served =
        stats_f64(&after, &["latency", "count"]) - stats_f64(&before, &["latency", "count"]);
    let served_ms = stats_f64(&after, &["latency", "mean_ms"])
        * stats_f64(&after, &["latency", "count"])
        - stats_f64(&before, &["latency", "mean_ms"]) * stats_f64(&before, &["latency", "count"]);
    table.set(
        "service.server_ms",
        stats_f64(&after, &["latency", "p50_ms"]),
    );
    table.set(
        "service.queue_wait_ms",
        stats::mean(&lat_ms) - served_ms / served.max(1.0),
    );
    table.set("service.refusals", s.refusals as f64);

    let (tally, untraced_ms) = replay(ctx, per_client, &mut checks)?;
    tally.fill(&mut table);
    // The daemon's own cache gauges replace the replay's for the session
    // layer: they are what the served requests actually hit.
    let deltas = cache_deltas(&before, &after);
    for (metric, cache) in layers::CACHE_RATIOS
        .iter()
        .filter(|(m, _)| m.starts_with("session."))
    {
        let (h, m) = deltas.get(*cache).copied().unwrap_or((0, 0));
        table.set(metric, stats::ratio(h, h + m));
    }
    table.set(
        "telemetry.overhead_pct",
        (stats::median(&tally.wall_ms) / stats::median(&untraced_ms) - 1.0) * 100.0,
    );
    table.set("error_rate", checks.error_rate());
    Ok(RunOut { table, checks })
}

/// Replays each client's request stream through an in-process
/// `Session::compile_sources`, set up the way a `mayad` worker sets up its
/// thread: an initial compile, then the same edits untraced (timing only)
/// and again with fresh tags under a span-capturing telemetry session.
fn replay(ctx: &Ctx, per_client: usize, checks: &mut Checks) -> Result<(Tally, Vec<f64>), String> {
    let seed = ctx.seed;
    std::thread::scope(|s| {
        s.spawn(move || -> Result<(Tally, Vec<f64>, Checks), String> {
            maya::grammar::set_table_cache_shared(true);
            maya::core::set_lex_share_enabled(true);
            let mut tally = Tally::default();
            let mut untraced_ms = Vec::new();
            let mut checks = Checks::default();
            for client in 0..CLIENTS {
                let p = Project::new(seed, client);
                let expected = p.expected_stdout();
                let installer = std::rc::Rc::new(|c: &maya::Compiler| {
                    maya::macrolib::install(c);
                    maya::multijava::install(c);
                }) as std::rc::Rc<dyn Fn(&maya::Compiler)>;
                let mut session = maya::Session::new(
                    maya::CompileOptions {
                        echo_output: false,
                        jobs: 1,
                        ..Default::default()
                    },
                    Some(installer),
                );
                let opts = maya::RequestOpts::default();
                let mut sources = p.sources();
                let first = session.compile_sources(&sources, &opts);
                checks.record(
                    &format!("replay c{client} initial compile"),
                    check_outcome(first.success, &first.stdout, &first.stderr, &expected),
                );
                for traced in [false, true] {
                    let mut edits = Project::new(seed, client);
                    edits.next_tag = if traced {
                        2 * per_client as u64
                    } else {
                        per_client as u64
                    };
                    for _ in 0..per_client {
                        let (i, src) = edits.next_edit();
                        sources[i].1 = src;
                        let t0 = Instant::now();
                        let tsession = traced.then(|| {
                            telemetry::Session::start(telemetry::Config {
                                capture_spans: true,
                                ..Default::default()
                            })
                        });
                        let root = telemetry::span(BENCH_REQUEST);
                        let out = session.compile_sources(&sources, &opts);
                        drop(root);
                        let report = tsession.map(telemetry::Session::finish);
                        let wall_ns = t0.elapsed().as_nanos() as u64;
                        checks.record(
                            &format!("replay c{client} edit of k{i:02}"),
                            check_outcome(out.success, &out.stdout, &out.stderr, &expected),
                        );
                        match report {
                            None => untraced_ms.push(wall_ns as f64 / 1e6),
                            Some(r) => tally
                                .add_request(
                                    wall_ns,
                                    0,
                                    &layers::spans_of_report(&r)?,
                                    Work::of_report(&r),
                                )
                                .map_err(|e| format!("traced replay c{client}: {e}"))?,
                        }
                    }
                }
            }
            Ok((tally, untraced_ms, checks))
        })
        .join()
        .expect("replay thread")
    })
    .map(|(tally, untraced, c)| {
        checks.attempted += c.attempted;
        checks.failed += c.failed;
        (tally, untraced)
    })
}
