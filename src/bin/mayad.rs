//! `mayad`: the persistent Maya compile server.
//!
//! Usage:
//!
//! ```text
//! mayad --socket=PATH [--tcp=ADDR] [--workers=N] [--queue-cap=N]
//!       [--max-inflight=N] [--max-request-bytes=N] [--fuel=N]
//!       [--jobs=N] [--cache-dir=DIR] [--cache-max-mb=N] [--stats=FILE]
//! ```
//!
//! `--cache-dir=DIR` (default `$MAYA_CACHE_DIR`) opens the persistent
//! compilation cache and shares it across every worker: a restarted
//! daemon starts warm from the artifacts the previous one persisted. See
//! README.md § Persistent compilation cache.
//!
//! `mayad` serves compile requests over a unix domain socket (and, with
//! `--tcp=ADDR`, over TCP with the same protocol), one newline-delimited
//! JSON object per request (see README.md § Incremental compilation).
//! Requests are executed by a pool of `--workers` threads
//! ([`maya::core::service::CompilePool`]); each *client* (the optional
//! `"client"` request field, default `"default"`) is pinned to one worker
//! and gets its own warm incremental [`Session`], while the workers share
//! the process-global interner, LALR table memo, and lexed-tree cache —
//! so a request that recompiles one changed file skips most of the work a
//! cold `mayac` run would do, while producing byte-identical
//! `stdout`/`stderr`.
//!
//! ## Protocol
//!
//! Compile request (any field but `files` may be omitted):
//!
//! ```json
//! {"files": ["a.maya"], "client": "default", "main": "Main", "run": true,
//!  "expand": false, "error_format": "human", "max_errors": 20,
//!  "deny_warnings": false, "uses": [], "fuel": 500000}
//! ```
//!
//! Response:
//!
//! ```json
//! {"ok": true, "success": true, "stdout": "...", "stderr": "...",
//!  "full_reuse": false, "files_changed": 1, "files_reused": 2,
//!  "files_recompiled": 1, "grammar_reuses": 3}
//! ```
//!
//! Control requests: `{"cmd": "ping"}`, `{"cmd": "stats"}` (pool-wide
//! latency, phases, `counters` and cache gauges),
//! `{"cmd": "sleep", "ms": N}` (test aid; occupies one worker), and
//! `{"cmd": "shutdown"}`. A malformed line gets
//! `{"ok": false, "error": "..."}` and the connection stays open.
//!
//! ## Quotas and backpressure
//!
//! A client may pipeline up to `--max-inflight` requests (default 8);
//! more get an immediate `{"ok": false, "quota": "max_inflight"}` reply.
//! Requests over `--max-request-bytes` are refused with
//! `"quota": "request_bytes"`. When a worker's queue stays full past a
//! bounded wait the reply is `{"ok": false, "overloaded": true}` — the
//! server never hangs a client and the connection stays usable. Replies
//! always arrive in request order per connection.
//!
//! ## Shutdown
//!
//! `{"cmd": "shutdown"}` is answered with a farewell, then the server
//! stops accepting connections, *drains* every queued request (each gets
//! its real reply), joins the worker and acceptor threads, writes
//! `--stats=FILE` if asked, and removes the socket file. A SIGKILL'd or
//! crashed server leaves a stale socket file behind; the next start
//! removes it before binding.

use maya::core::json::{parse_json, Json};
use maya::core::service::{error_response, CompilePool, PoolConfig, PoolRequest};
use maya::Compiler;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Duration;

#[derive(Default)]
struct Cli {
    socket: Option<String>,
    tcp: Option<String>,
    workers: Option<usize>,
    queue_cap: Option<usize>,
    max_inflight: Option<usize>,
    max_request_bytes: Option<usize>,
    fuel: Option<u64>,
    jobs: Option<usize>,
    cache_dir: Option<String>,
    cache_max_mb: Option<u64>,
    stats: Option<String>,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Cli, String> {
    fn positive<T: std::str::FromStr + PartialOrd + From<u8>>(
        flag: &str,
        n: &str,
    ) -> Result<T, String> {
        match n.parse::<T>() {
            Ok(v) if v >= T::from(1u8) => Ok(v),
            _ => Err(format!("invalid {flag} value {n:?}")),
        }
    }
    let mut cli = Cli::default();
    for a in args {
        match a.as_str() {
            "-h" | "--help" => return Err(String::new()),
            other => {
                if let Some(p) = other.strip_prefix("--socket=") {
                    if p.is_empty() {
                        return Err("missing path after --socket=".into());
                    }
                    cli.socket = Some(p.to_owned());
                } else if let Some(addr) = other.strip_prefix("--tcp=") {
                    if addr.is_empty() {
                        return Err("missing address after --tcp=".into());
                    }
                    cli.tcp = Some(addr.to_owned());
                } else if let Some(n) = other.strip_prefix("--workers=") {
                    cli.workers = Some(positive("--workers", n)?);
                } else if let Some(n) = other.strip_prefix("--queue-cap=") {
                    cli.queue_cap = Some(positive("--queue-cap", n)?);
                } else if let Some(n) = other.strip_prefix("--max-inflight=") {
                    cli.max_inflight = Some(positive("--max-inflight", n)?);
                } else if let Some(n) = other.strip_prefix("--max-request-bytes=") {
                    cli.max_request_bytes = Some(positive("--max-request-bytes", n)?);
                } else if let Some(n) = other.strip_prefix("--fuel=") {
                    cli.fuel = Some(positive("--fuel", n)?);
                } else if let Some(n) = other.strip_prefix("--jobs=") {
                    cli.jobs = Some(positive("--jobs", n)?);
                } else if let Some(d) = other.strip_prefix("--cache-dir=") {
                    if d.is_empty() {
                        return Err("missing directory after --cache-dir=".into());
                    }
                    cli.cache_dir = Some(d.to_owned());
                } else if let Some(n) = other.strip_prefix("--cache-max-mb=") {
                    cli.cache_max_mb = Some(positive("--cache-max-mb", n)?);
                } else if let Some(f) = other.strip_prefix("--stats=") {
                    if f.is_empty() {
                        return Err("missing file after --stats=".into());
                    }
                    cli.stats = Some(f.to_owned());
                } else {
                    return Err(format!("unknown option {other}"));
                }
            }
        }
    }
    if cli.socket.is_none() {
        return Err("missing --socket=PATH".into());
    }
    Ok(cli)
}

/// Replies still owed to some connection's writer thread. Shutdown waits
/// (bounded) for this to reach zero so a drained request's reply is
/// actually flushed to its client before the process exits.
#[derive(Default)]
struct PendingWrites {
    n: Mutex<u64>,
    cv: Condvar,
}

impl PendingWrites {
    fn inc(&self) {
        *self.n.lock().expect("pending poisoned") += 1;
    }

    fn dec(&self) {
        let mut n = self.n.lock().expect("pending poisoned");
        *n -= 1;
        if *n == 0 {
            self.cv.notify_all();
        }
    }

    fn wait_zero(&self, timeout: Duration) {
        let n = self.n.lock().expect("pending poisoned");
        let _ = self
            .cv
            .wait_timeout_while(n, timeout, |n| *n != 0)
            .expect("pending poisoned");
    }
}

fn main() -> ExitCode {
    let cli = match parse_args(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(e) => return usage(&e),
    };
    let socket_path = cli.socket.clone().expect("validated");

    let cache_dir = cli
        .cache_dir
        .clone()
        .or_else(|| std::env::var("MAYA_CACHE_DIR").ok().filter(|d| !d.is_empty()));
    let store = cache_dir.and_then(|dir| {
        match maya::core::store::ArtifactStore::open(std::path::Path::new(&dir), cli.cache_max_mb) {
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!("mayad: cache disabled, cannot open {dir}: {e}");
                None
            }
        }
    });
    let workers = cli.workers.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    });
    let mut config = PoolConfig {
        workers,
        jobs: cli.jobs.unwrap_or(1),
        installer: Some(Arc::new(|c: &Compiler| {
            maya::macrolib::install(c);
            maya::multijava::install(c);
        })),
        store,
        ..PoolConfig::default()
    };
    if let Some(n) = cli.queue_cap {
        config.queue_cap = n;
    }
    if let Some(n) = cli.max_inflight {
        config.max_inflight = n;
    }
    if let Some(n) = cli.max_request_bytes {
        config.max_request_bytes = n;
    }
    if let Some(f) = cli.fuel {
        config.fuel = f;
    }
    let pool = Arc::new(CompilePool::start(config));

    // A stale socket file from a crashed server would make bind fail.
    let _ = std::fs::remove_file(&socket_path);
    let unix_listener = match UnixListener::bind(&socket_path) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("mayad: cannot bind {socket_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let tcp_listener = match &cli.tcp {
        Some(addr) => match TcpListener::bind(addr) {
            Ok(l) => Some(l),
            Err(e) => {
                eprintln!("mayad: cannot bind tcp {addr}: {e}");
                let _ = std::fs::remove_file(&socket_path);
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    let tcp_addr = tcp_listener.as_ref().and_then(|l| l.local_addr().ok());
    match tcp_addr {
        Some(addr) => eprintln!("mayad: listening on {socket_path} and tcp {addr}"),
        None => eprintln!("mayad: listening on {socket_path}"),
    }

    let closing = Arc::new(AtomicBool::new(false));
    let pending = Arc::new(PendingWrites::default());
    let (done_tx, done_rx) = mpsc::channel::<()>();

    // Unix acceptor (joined at shutdown, unlike the old detached thread).
    let unix_acceptor = {
        let pool = pool.clone();
        let closing = closing.clone();
        let pending = pending.clone();
        let done = done_tx.clone();
        std::thread::spawn(move || {
            for conn in unix_listener.incoming() {
                if closing.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = conn else { break };
                let pool = pool.clone();
                let pending = pending.clone();
                let done = done.clone();
                std::thread::spawn(move || {
                    let Ok(read_half) = stream.try_clone() else { return };
                    serve_connection(read_half, stream, &pool, &pending, &done);
                });
            }
        })
    };
    let tcp_acceptor = tcp_listener.map(|listener| {
        let pool = pool.clone();
        let closing = closing.clone();
        let pending = pending.clone();
        let done = done_tx.clone();
        std::thread::spawn(move || {
            for conn in listener.incoming() {
                if closing.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = conn else { break };
                let pool = pool.clone();
                let pending = pending.clone();
                let done = done.clone();
                std::thread::spawn(move || {
                    let Ok(read_half) = stream.try_clone() else { return };
                    serve_connection(read_half, stream, &pool, &pending, &done);
                });
            }
        })
    });
    drop(done_tx);

    // Block until some client requests shutdown (or every acceptor dies).
    let _ = done_rx.recv();

    // Stop the acceptors: raise the flag, then poke each listener with a
    // throwaway connection so `incoming()` returns and the loop sees it.
    closing.store(true, Ordering::SeqCst);
    let _ = UnixStream::connect(&socket_path);
    if let Some(addr) = tcp_addr {
        let _ = TcpStream::connect(addr);
    }
    let _ = unix_acceptor.join();
    if let Some(t) = tcp_acceptor {
        let _ = t.join();
    }

    // Drain the pool (every queued request gets its real reply), then
    // give the connection writers a bounded window to flush those
    // replies to their clients.
    let report = pool.shutdown();
    pending.wait_zero(Duration::from_secs(5));

    if let Some(path) = cli.stats.as_deref() {
        let report = report.unwrap_or_else(|| {
            maya::telemetry::Session::start(maya::telemetry::Config::default()).finish()
        });
        if let Err(e) = write_creating_dirs(path, &report.to_json()) {
            eprintln!("mayad: cannot write {path}: {e}");
        }
    }
    let _ = std::fs::remove_file(&socket_path);
    eprintln!("mayad: shut down");
    ExitCode::SUCCESS
}

/// What the connection's writer thread emits next. `Pending` replies are
/// resolved in submission order, so pipelined clients read answers in the
/// order they asked.
enum ConnReply {
    Pending(mpsc::Receiver<String>),
    Immediate(String),
}

/// One connection: this (reader) thread decodes lines and submits them to
/// the pool; a writer thread flushes replies in order. The split lets a
/// client pipeline requests without losing reply ordering.
fn serve_connection<R, W>(
    read_half: R,
    write_half: W,
    pool: &Arc<CompilePool>,
    pending: &Arc<PendingWrites>,
    done: &mpsc::Sender<()>,
) where
    R: std::io::Read,
    W: Write + Send + 'static,
{
    let (order_tx, order_rx) = mpsc::channel::<ConnReply>();
    let writer = {
        let pending = pending.clone();
        std::thread::spawn(move || {
            let mut w = std::io::BufWriter::new(write_half);
            let mut broken = false;
            for r in order_rx {
                let line = match r {
                    ConnReply::Pending(rx) => {
                        let line = rx.recv().unwrap_or_default();
                        pending.dec();
                        line
                    }
                    ConnReply::Immediate(line) => line,
                };
                if broken || line.is_empty() {
                    continue;
                }
                if writeln!(w, "{line}").is_err() || w.flush().is_err() {
                    // Keep draining so pending counts stay balanced, but
                    // stop touching the dead socket.
                    broken = true;
                }
            }
        })
    };
    let reader = BufReader::new(read_half);
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let parsed = parse_json(&line).ok();
        let cmd = parsed
            .as_ref()
            .and_then(|v| v.get("cmd").and_then(Json::as_str));
        if cmd == Some("shutdown") {
            // The farewell is flushed (writer joined) before the main
            // thread is told, so the client always sees its reply.
            let _ = order_tx.send(ConnReply::Immediate(r#"{"ok": true, "bye": true}"#.to_owned()));
            drop(order_tx);
            let _ = writer.join();
            let _ = done.send(());
            return;
        }
        let client = match parsed.as_ref().and_then(|v| v.get("client")) {
            None => "default".to_owned(),
            Some(c) => match c.as_str() {
                Some(s) if !s.is_empty() => s.to_owned(),
                _ => {
                    let r = error_response("\"client\" must be a non-empty string");
                    if order_tx.send(ConnReply::Immediate(r)).is_err() {
                        break;
                    }
                    continue;
                }
            },
        };
        pending.inc();
        let rx = pool.submit(&client, PoolRequest::Line(line));
        if order_tx.send(ConnReply::Pending(rx)).is_err() {
            pending.dec();
            break;
        }
    }
    drop(order_tx);
    let _ = writer.join();
}

/// Writes `contents` to `path`, creating missing parent directories.
fn write_creating_dirs(path: &str, contents: &str) -> std::io::Result<()> {
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, contents)
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("mayad: {err}");
    }
    eprintln!(
        "usage: mayad --socket=PATH [--tcp=ADDR] [--workers=N] [--queue-cap=N]\n\
         \x20            [--max-inflight=N] [--max-request-bytes=N] [--fuel=N]\n\
         \x20            [--jobs=N] [--cache-dir=DIR] [--cache-max-mb=N] [--stats=FILE]\n\
         \x20\n\
         \x20      MAYA_CACHE_DIR supplies a default cache directory."
    );
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
