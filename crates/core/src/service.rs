//! The concurrent compile service behind `mayad`.
//!
//! A [`CompilePool`] owns N worker threads, each holding one incremental
//! [`Session`] *per client* it has seen. Requests enter through
//! [`CompilePool::submit`], which routes every client to one sticky
//! worker (round-robin at first sight) over a bounded per-worker queue —
//! so each client's requests execute in order on one thread, against one
//! warm session, and its replies are a pure function of its own request
//! stream. That is the determinism contract: a pool of 8 workers answers
//! every client byte-identically to a pool of 1.
//!
//! ## What the workers share
//!
//! The read-mostly compiler state is layered so a pool is N warm services,
//! not N cold ones:
//!
//! * the **string interner** is process-global already (`RwLock`);
//! * the **LALR table memo** gains an opt-in process-global tier
//!   (`maya_grammar::set_table_cache_shared`) — `Tables` is immutable
//!   plain data behind `Arc`, keyed by grammar content hash, so sharing
//!   needs no invalidation;
//! * **lexed token trees** gain the same treatment
//!   ([`crate::session::set_lex_share_enabled`]): lexing is pure in
//!   (content, positional `FileId`), so a 128-bit content hash plus the
//!   `FileId` is a sound global key;
//! * the **force cache / lower store** hold `Rc`-based ASTs and
//!   `Cell`-based inline caches and stay thread-confined — but each
//!   worker shares one across *all its clients' sessions*, so client A's
//!   parse of an unchanged stdlib body serves client B too (and the
//!   clients share its size bound, so one can evict another's entries).
//!
//! ## Quotas and backpressure
//!
//! [`submit`] never blocks indefinitely and never hangs a client:
//!
//! * a request larger than `max_request_bytes` is refused with a
//!   structured JSON error (`"quota": "request_bytes"`);
//! * a client with `max_inflight` requests already queued or running is
//!   refused (`"quota": "max_inflight"`);
//! * a full worker queue is retried up to `overload_wait_ms`, then
//!   refused with `"overloaded": true`.
//!
//! Every refusal is delivered through the same reply channel as a real
//! answer, so per-client reply order always matches request order.
//!
//! [`submit`]: CompilePool::submit

use crate::json::{parse_json, Json};
use crate::{CompileOptions, Compiler, ErrorFormat, Outcome, RequestOpts, Session, SessionStats};
use maya_telemetry as telemetry;
use maya_telemetry::{
    CacheId, CacheStats, Counter, Histogram, JsonWriter, Phase, Report, N_CACHES,
};
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Service configuration; every knob has a safe default.
#[derive(Clone)]
pub struct PoolConfig {
    /// Worker threads (each owns its clients' sessions).
    pub workers: usize,
    /// Bounded depth of each worker's request queue.
    pub queue_cap: usize,
    /// Per-client cap on queued-or-running requests.
    pub max_inflight: usize,
    /// Per-request size cap for protocol lines, in bytes.
    pub max_request_bytes: usize,
    /// How long a submit waits on a full queue before answering
    /// "overloaded".
    pub overload_wait_ms: u64,
    /// Front-end lexer parallelism inside one request (`--jobs`).
    pub jobs: usize,
    /// Server-side Mayan expansion fuel cap. A request's own `fuel` can
    /// lower its budget below this, never raise it.
    pub fuel: u64,
    /// Maximum nested Mayan expansion depth (see [`CompileOptions`]).
    pub max_expand_depth: u32,
    /// Interpreter steps per metaprogram invocation or program run.
    pub interp_step_limit: u64,
    /// Interpreter call-stack depth.
    pub interp_stack_limit: u32,
    /// Registers native metaprograms on each fresh compiler.
    pub installer: Option<Arc<dyn Fn(&Compiler) + Send + Sync>>,
    /// The persistent artifact store shared by every worker
    /// (`mayad --cache-dir`). `None` keeps the service memory-only.
    pub store: Option<Arc<crate::store::ArtifactStore>>,
}

impl Default for PoolConfig {
    fn default() -> PoolConfig {
        PoolConfig {
            workers: 1,
            queue_cap: 32,
            max_inflight: 8,
            max_request_bytes: 4 << 20,
            overload_wait_ms: 500,
            jobs: 1,
            fuel: CompileOptions::default().expand_fuel,
            max_expand_depth: CompileOptions::default().max_expand_depth,
            interp_step_limit: CompileOptions::default().interp_step_limit,
            interp_stack_limit: CompileOptions::default().interp_stack_limit,
            installer: None,
            store: None,
        }
    }
}

/// One unit of work for a worker.
pub enum PoolRequest {
    /// A raw NDJSON protocol line (the `mayad` front end).
    Line(String),
    /// In-memory sources plus options (tests, fuzzing, benches); answered
    /// with the same JSON a protocol compile would produce.
    Sources {
        sources: Vec<(String, String)>,
        opts: RequestOpts,
    },
}

struct Job {
    client: String,
    request: PoolRequest,
    reply: mpsc::Sender<String>,
    inflight: Arc<AtomicUsize>,
    /// When [`CompilePool::submit`] queued it.
    submitted: Instant,
}

enum Msg {
    Job(Box<Job>),
    Stop,
}

struct ClientInfo {
    worker: usize,
    inflight: Arc<AtomicUsize>,
}

#[derive(Default)]
struct ClientMap {
    map: HashMap<String, ClientInfo>,
    next_worker: usize,
}

/// Lifetime aggregates over every request served by any worker.
#[derive(Default)]
struct PoolMetrics {
    /// Wall time of each compile request inside its session, in
    /// nanoseconds.
    latency: Histogram,
    /// Per compile request, from [`CompilePool::submit`] to a worker taking
    /// it off its queue.
    queue_wait: Histogram,
    /// Per compile request, from the worker taking it off the queue to its
    /// reply being ready to send: request decoding, file reads, the compile
    /// and the encoding.
    service: Histogram,
    /// Every per-request telemetry [`Report`] merged together.
    aggregate: Option<Report>,
    /// Session counters summed across every client session.
    stats: SessionStats,
    /// Each worker's latest cache `size` gauges, by worker index. Merged
    /// reports keep one size per cache, which is only right for one
    /// thread's successive reports.
    sizes: Vec<[u64; N_CACHES]>,
    /// Requests [`CompilePool::submit`] refused, by reason. Counted there:
    /// a refusal never reaches a worker or its telemetry session.
    refusals: Refusals,
}

/// Refused requests by reason (the `quota` names of the replies, and the
/// queue-saturation refusal).
#[derive(Default)]
struct Refusals {
    request_bytes: u64,
    max_inflight: u64,
    overloaded: u64,
}

impl PoolMetrics {
    /// Folds in one request's report; `waits` is its queue wait and service
    /// time, recorded when the request compiled.
    fn record(&mut self, worker: usize, report: Report, delta: SessionStats, waits: [Duration; 2]) {
        if let Some(h) = report.hist("request_ns").filter(|h| h.count() > 0) {
            self.latency.merge(h);
            let [queue_wait, service] = waits;
            self.queue_wait.record(queue_wait.as_nanos() as u64);
            self.service.record(service.as_nanos() as u64);
        }
        if self.sizes.len() <= worker {
            self.sizes.resize(worker + 1, [0; N_CACHES]);
        }
        for (size, c) in self.sizes[worker].iter_mut().zip(&report.caches) {
            *size = c.size;
        }
        match &mut self.aggregate {
            Some(agg) => agg.merge(&report),
            None => self.aggregate = Some(report),
        }
        let s = &mut self.stats;
        s.requests += delta.requests;
        s.full_reuses += delta.full_reuses;
        s.files_changed += delta.files_changed;
        s.files_reused += delta.files_reused;
        s.files_recompiled += delta.files_recompiled;
        s.grammar_reuses += delta.grammar_reuses;
    }

    /// Pool-wide cache gauges: hit, miss and eviction totals over every
    /// request, and sizes summed over the workers' latest gauges (a
    /// process-wide cache, which every worker sees whole, reports the
    /// largest instead).
    fn caches(&self) -> [CacheStats; N_CACHES] {
        let mut out = self
            .aggregate
            .as_ref()
            .map_or([CacheStats::default(); N_CACHES], |a| a.caches);
        for (i, (c, id)) in out.iter_mut().zip(CacheId::ALL).enumerate() {
            let sizes = self.sizes.iter().map(|s| s[i]);
            c.size = if id.process_wide() {
                sizes.max().unwrap_or(0)
            } else {
                sizes.sum()
            };
        }
        out
    }
}

/// The worker pool. See the module docs.
pub struct CompilePool {
    queues: Vec<mpsc::SyncSender<Msg>>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    clients: Mutex<ClientMap>,
    metrics: Arc<Mutex<PoolMetrics>>,
    closing: Arc<AtomicBool>,
    max_inflight: usize,
    max_request_bytes: usize,
    overload_wait_ms: u64,
}

impl CompilePool {
    /// Starts `config.workers` worker threads.
    pub fn start(config: PoolConfig) -> CompilePool {
        let workers = config.workers.max(1);
        let metrics = Arc::new(Mutex::new(PoolMetrics::default()));
        let mut queues = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let (tx, rx) = mpsc::sync_channel::<Msg>(config.queue_cap.max(1));
            let cfg = config.clone();
            let metrics = metrics.clone();
            let handle = std::thread::Builder::new()
                .name(format!("mayad-worker-{i}"))
                .spawn(move || worker_main(i, rx, &cfg, &metrics))
                .expect("spawn worker");
            queues.push(tx);
            handles.push(handle);
        }
        CompilePool {
            queues,
            handles: Mutex::new(handles),
            clients: Mutex::new(ClientMap::default()),
            metrics,
            closing: Arc::new(AtomicBool::new(false)),
            max_inflight: config.max_inflight.max(1),
            max_request_bytes: config.max_request_bytes,
            overload_wait_ms: config.overload_wait_ms,
        }
    }

    /// Submits one request on behalf of `client` and returns the channel
    /// its single reply will arrive on. Quota violations, overload, and
    /// shutdown are *replies on that same channel* (already sent by the
    /// time this returns), so callers can treat every submit uniformly
    /// and per-client reply order is preserved by construction.
    pub fn submit(&self, client: &str, request: PoolRequest) -> mpsc::Receiver<String> {
        let (tx, rx) = mpsc::channel();
        if self.closing.load(Ordering::SeqCst) {
            let _ = tx.send(error_response("server is shutting down"));
            return rx;
        }
        if let PoolRequest::Line(line) = &request {
            if line.len() > self.max_request_bytes {
                self.refused(|r| &mut r.request_bytes);
                let _ = tx.send(quota_response(
                    &format!(
                        "request of {} bytes exceeds the {} byte limit",
                        line.len(),
                        self.max_request_bytes
                    ),
                    "request_bytes",
                ));
                return rx;
            }
        }
        let (worker, inflight) = self.client_slot(client);
        // Optimistic increment: the slot is released by the worker right
        // before it sends the reply, or below on any refusal.
        if inflight.fetch_add(1, Ordering::SeqCst) >= self.max_inflight {
            inflight.fetch_sub(1, Ordering::SeqCst);
            self.refused(|r| &mut r.max_inflight);
            let _ = tx.send(quota_response(
                &format!(
                    "client has {} requests in flight (limit {})",
                    self.max_inflight, self.max_inflight
                ),
                "max_inflight",
            ));
            return rx;
        }
        let mut msg = Msg::Job(Box::new(Job {
            client: client.to_owned(),
            request,
            reply: tx,
            inflight: inflight.clone(),
            submitted: Instant::now(),
        }));
        // `std::sync::mpsc` has no `send_timeout`; a bounded retry loop
        // turns queue saturation into an explicit reply within
        // `overload_wait_ms` instead of an unbounded block.
        let deadline = Instant::now() + Duration::from_millis(self.overload_wait_ms);
        loop {
            match self.queues[worker].try_send(msg) {
                Ok(()) => return rx,
                Err(mpsc::TrySendError::Full(m)) => {
                    if Instant::now() >= deadline {
                        self.refused(|r| &mut r.overloaded);
                        if let Msg::Job(job) = m {
                            job.inflight.fetch_sub(1, Ordering::SeqCst);
                            let _ = job.reply.send(overloaded_response());
                        }
                        return rx;
                    }
                    msg = m;
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(mpsc::TrySendError::Disconnected(m)) => {
                    if let Msg::Job(job) = m {
                        job.inflight.fetch_sub(1, Ordering::SeqCst);
                        let _ = job.reply.send(error_response("server is shutting down"));
                    }
                    return rx;
                }
            }
        }
    }

    /// Counts one refusal under the reason `reason` selects.
    fn refused(&self, reason: impl FnOnce(&mut Refusals) -> &mut u64) {
        *reason(&mut self.metrics.lock().expect("metrics poisoned").refusals) += 1;
    }

    /// The sticky worker for `client`, assigned round-robin on first
    /// sight so load spreads without breaking per-client ordering.
    fn client_slot(&self, client: &str) -> (usize, Arc<AtomicUsize>) {
        let mut c = self.clients.lock().expect("client map poisoned");
        let n_workers = self.queues.len();
        if !c.map.contains_key(client) {
            let worker = c.next_worker % n_workers;
            c.next_worker += 1;
            c.map.insert(
                client.to_owned(),
                ClientInfo {
                    worker,
                    inflight: Arc::new(AtomicUsize::new(0)),
                },
            );
        }
        let info = &c.map[client];
        (info.worker, info.inflight.clone())
    }

    /// Stops accepting work, drains every queue, and joins the workers.
    /// Queued requests are all answered before their worker exits.
    /// Returns the merged lifetime telemetry report, if any request ran.
    /// Idempotent: later calls (including the implicit one in `Drop`)
    /// are no-ops.
    pub fn shutdown(&self) -> Option<Report> {
        self.closing.store(true, Ordering::SeqCst);
        // A blocking send of Stop lands *behind* everything already
        // queued, so the worker answers its backlog first: shutdown
        // drains, it does not drop.
        for q in &self.queues {
            let _ = q.send(Msg::Stop);
        }
        let handles: Vec<JoinHandle<()>> =
            self.handles.lock().expect("handles poisoned").drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
        let mut metrics = self.metrics.lock().expect("metrics poisoned");
        let caches = metrics.caches();
        metrics.aggregate.take().map(|mut agg| {
            agg.caches = caches;
            agg
        })
    }
}

impl Drop for CompilePool {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// Builds one client's fresh session on a worker thread. Every session a
/// worker creates shares that worker's force cache, so pure parse results
/// cross client boundaries (they are content-keyed and soundness-gated).
fn new_session(
    cfg: &PoolConfig,
    force_cache: &Rc<crate::compiler::ForceCache>,
    installer: &Option<Rc<dyn Fn(&Compiler)>>,
) -> Session {
    Session::new(
        CompileOptions {
            echo_output: false,
            jobs: cfg.jobs,
            expand_fuel: cfg.fuel,
            max_expand_depth: cfg.max_expand_depth,
            interp_step_limit: cfg.interp_step_limit,
            interp_stack_limit: cfg.interp_stack_limit,
            force_cache: Some(force_cache.clone()),
            ..CompileOptions::default()
        },
        installer.clone(),
    )
}

fn worker_main(
    worker: usize,
    rx: mpsc::Receiver<Msg>,
    cfg: &PoolConfig,
    metrics: &Arc<Mutex<PoolMetrics>>,
) {
    // Opt this thread into the process-global warm tiers; see module docs.
    maya_grammar::set_table_cache_shared(true);
    crate::session::set_lex_share_enabled(true);
    // And into the persistent store, when the daemon was given one: all
    // workers share the directory, and a restarted daemon starts warm.
    crate::store::install_thread(cfg.store.clone());
    let force_cache = Rc::new(crate::compiler::ForceCache::new());
    let installer: Option<Rc<dyn Fn(&Compiler)>> = cfg.installer.clone().map(|f| {
        Rc::new(move |c: &Compiler| f(c)) as Rc<dyn Fn(&Compiler)>
    });
    let mut sessions: HashMap<String, Session> = HashMap::new();
    for msg in rx {
        let Msg::Job(job) = msg else { break };
        let dequeued = Instant::now();
        let t = telemetry::Session::start(telemetry::Config::default());
        let session = sessions
            .entry(job.client.clone())
            .or_insert_with(|| new_session(cfg, &force_cache, &installer));
        let before = session.stats();
        // The session sandboxes the compile pipeline itself, but a panic
        // in request decoding, change detection, or response rendering
        // would otherwise kill this worker for every client pinned to it.
        // Isolate it: the one client gets an error reply and a reset
        // (cold) session; the worker keeps serving.
        let response = match crate::catch_ice(std::panic::AssertUnwindSafe(|| {
            handle_request(session, metrics, &job.request)
        })) {
            Ok(r) => r,
            Err(panic_msg) => {
                telemetry::count(Counter::ServerPanicsIsolated);
                session.reset();
                error_response(&format!("request panicked (isolated): {panic_msg}"))
            }
        };
        let after = session.stats();
        let delta = SessionStats {
            requests: after.requests - before.requests,
            full_reuses: after.full_reuses - before.full_reuses,
            files_changed: after.files_changed - before.files_changed,
            files_reused: after.files_reused - before.files_reused,
            files_recompiled: after.files_recompiled - before.files_recompiled,
            grammar_reuses: after.grammar_reuses - before.grammar_reuses,
        };
        let waits = [dequeued.duration_since(job.submitted), dequeued.elapsed()];
        metrics
            .lock()
            .expect("metrics poisoned")
            .record(worker, t.finish(), delta, waits);
        // Release the quota slot before replying, so a strictly
        // synchronous client never collides with its own last request.
        job.inflight.fetch_sub(1, Ordering::SeqCst);
        let _ = job.reply.send(response);
    }
}

fn handle_request(
    session: &mut Session,
    metrics: &Arc<Mutex<PoolMetrics>>,
    request: &PoolRequest,
) -> String {
    match request {
        PoolRequest::Line(line) => handle_line(session, metrics, line),
        PoolRequest::Sources { sources, opts } => {
            let outcome = session.compile_sources(sources, opts);
            compile_response(&outcome)
        }
    }
}

/// Decodes one protocol line, runs it, encodes the response. Never panics
/// the worker on bad input: a malformed request is an `ok: false` reply,
/// and the session converts compiler panics into ICE diagnostics itself.
fn handle_line(
    session: &mut Session,
    metrics: &Arc<Mutex<PoolMetrics>>,
    line: &str,
) -> String {
    let parsed = match parse_json(line) {
        Ok(v) => v,
        Err(e) => return error_response(&format!("malformed request: {e}")),
    };
    match parsed.get("cmd").and_then(Json::as_str) {
        Some("ping") => return r#"{"ok": true, "pong": true}"#.to_owned(),
        Some("stats") => {
            return stats_response(&metrics.lock().expect("metrics poisoned"));
        }
        Some("sleep") => {
            // A deliberate stall for backpressure tests: occupies this
            // worker for up to one second without compiling anything.
            let ms = parsed
                .get("ms")
                .and_then(Json::as_u64)
                .unwrap_or(10)
                .min(1000);
            std::thread::sleep(Duration::from_millis(ms));
            let mut w = JsonWriter::new();
            w.begin_obj()
                .field_bool("ok", true)
                .field_u64("slept_ms", ms)
                .end_obj();
            return w.finish();
        }
        Some(other) => return error_response(&format!("unknown cmd {other:?}")),
        None => {}
    }
    let Some(files) = parsed.get("files").and_then(Json::as_arr) else {
        return error_response("missing \"files\" array");
    };
    let mut paths = Vec::new();
    for f in files {
        match f.as_str() {
            Some(s) => paths.push(s.to_owned()),
            None => return error_response("\"files\" entries must be strings"),
        }
    }
    if paths.is_empty() {
        return error_response("\"files\" must not be empty");
    }
    let mut opts = RequestOpts::default();
    if let Some(m) = parsed.get("main").and_then(Json::as_str) {
        opts.main_class = m.to_owned();
    }
    if let Some(r) = parsed.get("run").and_then(Json::as_bool) {
        opts.run = r;
    }
    if let Some(x) = parsed.get("expand").and_then(Json::as_bool) {
        opts.expand = x;
    }
    if let Some(d) = parsed.get("deny_warnings").and_then(Json::as_bool) {
        opts.deny_warnings = d;
    }
    if let Some(n) = parsed.get("max_errors").and_then(Json::as_u64) {
        if n == 0 {
            return error_response("\"max_errors\" must be positive");
        }
        opts.max_errors = n as usize;
    }
    if let Some(f) = parsed.get("fuel").and_then(Json::as_u64) {
        if f == 0 {
            return error_response("\"fuel\" must be positive");
        }
        opts.fuel = Some(f);
    }
    match parsed.get("error_format").and_then(Json::as_str) {
        None | Some("human") => opts.error_format = ErrorFormat::Human,
        Some("json") => opts.error_format = ErrorFormat::Json,
        Some(other) => return error_response(&format!("unknown error format {other:?}")),
    }
    if let Some(uses) = parsed.get("uses").and_then(Json::as_arr) {
        for u in uses {
            match u.as_str() {
                Some(s) => opts.uses.push(s.to_owned()),
                None => return error_response("\"uses\" entries must be strings"),
            }
        }
    }
    // Fault site for the worker-level isolation above: a panic here is
    // outside the session's compile sandbox, exactly the class of failure
    // the catch in the worker loop exists for.
    if let Err(e) = crate::faults::trip("server") {
        return error_response(&e);
    }
    let outcome = session.compile(&paths, &opts);
    compile_response(&outcome)
}

/// A structured `ok: false` reply.
pub fn error_response(message: &str) -> String {
    let mut w = JsonWriter::new();
    w.begin_obj()
        .field_bool("ok", false)
        .field_str("error", message)
        .end_obj();
    w.finish()
}

/// A quota refusal: `ok: false` plus the machine-readable quota name.
fn quota_response(message: &str, quota: &str) -> String {
    let mut w = JsonWriter::new();
    w.begin_obj()
        .field_bool("ok", false)
        .field_str("error", message)
        .field_str("quota", quota)
        .end_obj();
    w.finish()
}

/// The queue-saturation refusal.
fn overloaded_response() -> String {
    let mut w = JsonWriter::new();
    w.begin_obj()
        .field_bool("ok", false)
        .field_str("error", "overloaded")
        .field_bool("overloaded", true)
        .end_obj();
    w.finish()
}

/// Encodes a compile [`Outcome`] as the protocol reply.
pub fn compile_response(o: &Outcome) -> String {
    let mut w = JsonWriter::new();
    w.begin_obj()
        .field_bool("ok", true)
        .field_bool("success", o.success)
        .field_str("stdout", &o.stdout)
        .field_str("stderr", &o.stderr)
        .field_bool("full_reuse", o.full_reuse)
        .field_u64("files_changed", o.files_changed as u64)
        .field_u64("files_reused", o.files_reused as u64)
        .field_u64("files_recompiled", o.files_recompiled as u64)
        .field_u64("grammar_reuses", o.grammar_reuses as u64)
        .end_obj();
    w.finish()
}

fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Renders the `stats` reply from the pool-wide aggregates: summed session
/// counters, the merged request-latency, queue-wait and service
/// histograms, refusals by reason,
/// per-phase times, summed telemetry counters, and cache gauges merged
/// from every worker's per-request reports.
fn stats_response(m: &PoolMetrics) -> String {
    let s = &m.stats;
    let mut w = JsonWriter::new();
    w.begin_obj().field_bool("ok", true).key("stats").begin_obj();
    w.field_u64("requests", s.requests)
        .field_u64("full_reuses", s.full_reuses)
        .field_u64("files_changed", s.files_changed)
        .field_u64("files_reused", s.files_reused)
        .field_u64("files_recompiled", s.files_recompiled)
        .field_u64("grammar_reuses", s.grammar_reuses)
        .field_u64("table_memo", maya_grammar::table_cache_len() as u64);

    // Compile-request times: inside the session, waiting in the queue,
    // and from dequeue to reply.
    for (name, h) in [
        ("latency", &m.latency),
        ("queue_wait", &m.queue_wait),
        ("service", &m.service),
    ] {
        w.key(name).begin_obj();
        w.field_u64("count", h.count())
            .field_f64("mean_ms", h.mean() / 1e6)
            .field_f64("p50_ms", ns_to_ms(h.percentile(50.0)))
            .field_f64("p95_ms", ns_to_ms(h.percentile(95.0)))
            .field_f64("p99_ms", ns_to_ms(h.percentile(99.0)))
            .field_f64("max_ms", ns_to_ms(h.max()));
        w.key("buckets").begin_arr();
        for (lo, hi, n) in h.buckets() {
            w.begin_obj()
                .field_f64("lo_ms", ns_to_ms(lo))
                .field_f64("hi_ms", ns_to_ms(hi))
                .field_u64("count", n)
                .end_obj();
        }
        w.end_arr().end_obj();
    }

    // Requests refused before reaching a worker, by reason.
    let r = &m.refusals;
    w.key("refusals").begin_obj();
    w.field_u64("request_bytes", r.request_bytes)
        .field_u64("max_inflight", r.max_inflight)
        .field_u64("overloaded", r.overloaded)
        .end_obj();

    // Per-phase breakdown, aggregated across requests and workers.
    w.key("phases").begin_obj();
    if let Some(agg) = &m.aggregate {
        for p in Phase::ALL {
            let calls = agg.phase_calls(p);
            if calls == 0 {
                continue;
            }
            w.key(p.name()).begin_obj();
            w.field_f64("ms", agg.phase_time(p).as_secs_f64() * 1e3)
                .field_u64("calls", calls)
                .end_obj();
        }
    }
    w.end_obj();

    // Every telemetry counter, summed over the requests: the names and
    // meanings `mayac --stats` reports for one compile.
    w.key("counters").begin_obj();
    if let Some(agg) = &m.aggregate {
        for c in Counter::ALL {
            w.field_u64(c.name(), agg.counter(c));
        }
    }
    w.end_obj();

    // Cache gauges across workers (see `PoolMetrics::caches`).
    w.key("caches").begin_obj();
    for (id, cs) in CacheId::ALL.into_iter().zip(m.caches()) {
        w.key(id.name()).begin_obj();
        w.field_u64("hits", cs.hits)
            .field_u64("misses", cs.misses)
            .field_u64("size", cs.size)
            .field_u64("evictions", cs.evictions)
            .field_f64("hit_ratio", cs.hit_ratio())
            .end_obj();
    }
    w.end_obj();

    w.end_obj().end_obj();
    w.finish()
}
