//! The compile server: mayad's NDJSON protocol over a unix socket, and the
//! incremental session's invalidation cone — editing one file of an import
//! chain recompiles exactly that file and its downstream dependents, pinned
//! by the `incr_*` telemetry counters.

use std::io::{BufRead, BufReader, Write as _};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

use maya::core::json::{parse_json, Json};
use maya::telemetry::{self, Counter};
use maya::{CompileOptions, RequestOpts, Session};

// ---- mayad protocol ----------------------------------------------------------

struct Mayad {
    child: Child,
    sock: PathBuf,
}

impl Mayad {
    fn start(extra: &[String]) -> Mayad {
        Mayad::start_env(extra, &[])
    }

    fn start_env(extra: &[String], envs: &[(&str, &str)]) -> Mayad {
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("mayad-test-{}-{seq}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let sock = dir.join("srv.sock");
        let _ = std::fs::remove_file(&sock);
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_mayad"));
        cmd.current_dir(&dir)
            .arg(format!("--socket={}", sock.display()))
            .args(extra)
            .stderr(Stdio::null());
        for (k, v) in envs {
            cmd.env(k, v);
        }
        let child = cmd.spawn().unwrap();
        for _ in 0..400 {
            if UnixStream::connect(&sock).is_ok() {
                return Mayad { child, sock };
            }
            std::thread::sleep(std::time::Duration::from_millis(25));
        }
        panic!("mayad did not come up");
    }

    fn raw_request(&self, line: &str) -> Json {
        let mut s = UnixStream::connect(&self.sock).unwrap();
        s.write_all(line.as_bytes()).unwrap();
        s.write_all(b"\n").unwrap();
        let mut reply = String::new();
        BufReader::new(s).read_line(&mut reply).unwrap();
        parse_json(&reply).unwrap_or_else(|e| panic!("unparseable reply {reply:?}: {e}"))
    }

    fn dir(&self) -> &std::path::Path {
        self.sock.parent().unwrap()
    }
}

impl Drop for Mayad {
    fn drop(&mut self) {
        if UnixStream::connect(&self.sock)
            .and_then(|mut s| s.write_all(b"{\"cmd\":\"shutdown\"}\n"))
            .is_ok()
        {
            let _ = self.child.wait();
        } else {
            let _ = self.child.kill();
        }
    }
}

fn ok(v: &Json) -> bool {
    v.get("ok").and_then(Json::as_bool) == Some(true)
}

/// `{"cmd":"stats"}` carries every telemetry counter, so an operator can
/// tell whether the bytecode inliner fired without a disassembly — and on
/// a later request too: each request's compiler refines the bodies the
/// worker's session shares under its own epoch.
#[test]
fn stats_counters_show_inline_splices_on_every_request() {
    let srv = Mayad::start(&[]);
    let src = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus/interp_hot_calls.maya"),
    )
    .unwrap();
    let file = srv.dir().join("hot.maya");
    let counter = |name: &str| -> u64 {
        let stats = srv.raw_request(r#"{"cmd":"stats"}"#);
        let counters = stats.get("stats").unwrap().get("counters").unwrap();
        counters.get(name).and_then(Json::as_u64).unwrap()
    };
    let rounds = [src.clone(), format!("{src}\nclass Pad {{ }}\n")];
    for (round, text) in rounds.iter().enumerate() {
        std::fs::write(&file, text).unwrap();
        let resp = srv.raw_request(r#"{"files": ["hot.maya"]}"#);
        assert!(ok(&resp), "{resp:?}");
        assert_eq!(resp.get("full_reuse").and_then(Json::as_bool), Some(false));
        let entries = counter("bc_inline_entries");
        let floor = 19_000 * (round as u64 + 1);
        assert!(entries >= floor, "round {round}: {entries} entries");
        assert_eq!(counter("bc_inline_fallbacks"), 0, "round {round}");
    }
}

#[test]
fn mayad_protocol_round_trip() {
    let srv = Mayad::start(&["--max-inflight=2".to_owned()]);

    // ping
    let pong = srv.raw_request(r#"{"cmd":"ping"}"#);
    assert!(ok(&pong) && pong.get("pong").and_then(Json::as_bool) == Some(true));

    // malformed JSON and protocol violations are error replies, not hangs
    for bad in [
        "{not json",
        r#"{"cmd":"frobnicate"}"#,
        r#"{"no_files": true}"#,
        r#"{"files": []}"#,
        r#"{"files": [7]}"#,
        r#"{"files": ["x.maya"], "max_errors": 0}"#,
        r#"{"files": ["x.maya"], "error_format": "xml"}"#,
    ] {
        let resp = srv.raw_request(bad);
        assert!(!ok(&resp), "expected error reply for {bad}: {resp:?}");
        assert!(resp.get("error").and_then(Json::as_str).is_some());
    }

    // a compile of a missing file fails gracefully with a diagnostic
    let resp = srv.raw_request(r#"{"files": ["absent.maya"]}"#);
    assert!(ok(&resp));
    assert_eq!(resp.get("success").and_then(Json::as_bool), Some(false));
    assert!(resp
        .get("stderr")
        .and_then(Json::as_str)
        .unwrap()
        .contains("cannot read absent.maya"));

    // a real compile, twice: second is a full reuse
    std::fs::write(
        srv.dir().join("hello.maya"),
        r#"class Main { static void main() { System.out.println("srv"); } }"#,
    )
    .unwrap();
    let first = srv.raw_request(r#"{"files": ["hello.maya"]}"#);
    assert!(ok(&first));
    assert_eq!(first.get("stdout").and_then(Json::as_str), Some("srv\n"));
    assert_eq!(first.get("full_reuse").and_then(Json::as_bool), Some(false));
    let second = srv.raw_request(r#"{"files": ["hello.maya"]}"#);
    assert_eq!(second.get("stdout").and_then(Json::as_str), Some("srv\n"));
    assert_eq!(second.get("full_reuse").and_then(Json::as_bool), Some(true));

    // stats reflect the traffic and the LALR table memo, which a program
    // of the base grammar leaves empty: its tables are compiled in
    let stats = srv.raw_request(r#"{"cmd":"stats"}"#);
    assert!(ok(&stats));
    let s = stats.get("stats").unwrap();
    assert!(s.get("requests").and_then(Json::as_u64).unwrap() >= 3);
    assert_eq!(s.get("full_reuses").and_then(Json::as_u64), Some(1));
    assert_eq!(s.get("table_memo").and_then(Json::as_u64), Some(0));

    fn num(v: Option<&Json>) -> f64 {
        match v {
            Some(Json::Num(n)) => *n,
            other => panic!("expected a number, got {other:?}"),
        }
    }

    // Latency: every compile request lands one sample; the percentile
    // ladder is monotone and every bucket interval is well-formed.
    let lat = s.get("latency").expect("latency object");
    let count = lat.get("count").and_then(Json::as_u64).unwrap();
    assert!(count >= 3, "3 compile requests served, latency count = {count}");
    let p50 = num(lat.get("p50_ms"));
    let p95 = num(lat.get("p95_ms"));
    let p99 = num(lat.get("p99_ms"));
    let max = num(lat.get("max_ms"));
    assert!(num(lat.get("mean_ms")) > 0.0);
    assert!(p50 > 0.0 && p50 <= p95 && p95 <= p99 && p99 <= max, "{p50} {p95} {p99} {max}");
    let buckets = lat.get("buckets").and_then(Json::as_arr).expect("buckets array");
    assert!(!buckets.is_empty());
    let mut in_buckets = 0;
    for b in buckets {
        assert!(num(b.get("lo_ms")) <= num(b.get("hi_ms")));
        in_buckets += b.get("count").and_then(Json::as_u64).unwrap();
    }
    assert_eq!(in_buckets, count, "bucket counts must sum to the sample count");

    // Per-phase breakdown aggregated across requests.
    let phases = s.get("phases").expect("phases object");
    for p in ["lex", "parse", "interp"] {
        let ph = phases.get(p).unwrap_or_else(|| panic!("phase {p} missing"));
        assert!(ph.get("calls").and_then(Json::as_u64).unwrap() > 0);
        assert!(num(ph.get("ms")) >= 0.0);
    }

    // Uniform cache gauges; the LALR memo saw real traffic.
    let caches = s.get("caches").expect("caches object");
    for c in [
        "lalr_memo",
        "force_cache",
        "unit_cache",
        "class_body_cache",
        "lower_store",
        "dispatch_memo",
        "lex_share",
    ] {
        let g = caches.get(c).unwrap_or_else(|| panic!("cache {c} missing"));
        for k in ["hits", "misses", "size", "evictions"] {
            assert!(g.get(k).and_then(Json::as_u64).is_some(), "{c}.{k}");
        }
        let ratio = num(g.get("hit_ratio"));
        assert!((0.0..=1.0).contains(&ratio), "{c} hit_ratio {ratio}");
    }
    let lalr = caches.get("lalr_memo").unwrap();
    assert!(
        lalr.get("hits").and_then(Json::as_u64).unwrap()
            + lalr.get("misses").and_then(Json::as_u64).unwrap()
            >= 1,
        "LALR memo must have seen traffic"
    );
    assert_eq!(
        lalr.get("size").and_then(Json::as_u64),
        Some(0),
        "the base tables are compiled in"
    );
}

/// The `queue_wait` and `service` histograms beside `latency`: each counts
/// every compile request of an edit stream, and service, which adds
/// decoding the request, reading the files and encoding the reply to the
/// compile, is never shorter than the compile alone.
#[test]
fn stats_split_what_the_client_waits_for() {
    let srv = Mayad::start(&[]);
    let file = srv.dir().join("edit.maya");
    const EDITS: u64 = 12;
    for i in 0..EDITS {
        std::fs::write(
            &file,
            format!("class Main {{ static void main() {{ System.out.println({i}); }} }}"),
        )
        .unwrap();
        let reply = srv.raw_request(r#"{"files": ["edit.maya"]}"#);
        assert_eq!(
            reply.get("stdout").and_then(Json::as_str),
            Some(format!("{i}\n").as_str())
        );
    }
    // A refused and a non-compile request add no sample.
    srv.raw_request(r#"{"cmd":"ping"}"#);
    srv.raw_request(r#"{"files": []}"#);
    let stats = srv.raw_request(r#"{"cmd":"stats"}"#);
    let s = stats.get("stats").unwrap();
    let hist = |name: &str| s.get(name).unwrap_or_else(|| panic!("{name} missing"));
    let count = |name: &str| hist(name).get("count").and_then(Json::as_u64);
    let p50 = |name: &str| match hist(name).get("p50_ms") {
        Some(Json::Num(n)) => *n,
        other => panic!("{name}.p50_ms: {other:?}"),
    };
    for name in ["latency", "queue_wait", "service"] {
        assert_eq!(
            count(name),
            Some(EDITS),
            "{name} counts every compile request"
        );
        for k in ["mean_ms", "p95_ms", "p99_ms", "max_ms", "buckets"] {
            assert!(hist(name).get(k).is_some(), "{name}.{k}");
        }
    }
    assert!(
        p50("service") >= p50("latency"),
        "service p50 {} < latency p50 {}",
        p50("service"),
        p50("latency")
    );
}

// ---- invalidation cone -------------------------------------------------------

/// a.maya declares the `TickA` extension; b.maya imports it and declares
/// `TickB`; c.maya imports `TickB` and holds `Main`. The dependency chain
/// is a <- b <- c.
fn chain_sources(b_label: &str, c_label: &str) -> Vec<(String, String)> {
    let a = r#"
        abstract Statement syntax(ticka(Expression) lazy(BraceTree, BlockStmts));

        Statement syntax
        TickA(ticka(Expression n) lazy(BraceTree, BlockStmts) body)
        {
            return new Statement {
                for (int ia = 0; ia < $n; ia++) { $body }
            };
        }
    "#
    .to_owned();
    let b = format!(
        r#"
        abstract Statement syntax(tickb(Expression) lazy(BraceTree, BlockStmts));

        Statement syntax
        TickB(tickb(Expression n) lazy(BraceTree, BlockStmts) body)
        {{
            return new Statement {{
                for (int ib = 0; ib < $n; ib++) {{ $body }}
            }};
        }}

        class Bee {{
            static void poke() {{
                use TickA;
                ticka (2) {{ System.out.println("{b_label}"); }}
            }}
        }}
    "#
    );
    let c = format!(
        r#"
        class Main {{
            static void main() {{
                Bee.poke();
                use TickB;
                tickb (2) {{ System.out.println("{c_label}"); }}
            }}
        }}
    "#
    );
    vec![
        ("a.maya".to_owned(), a),
        ("b.maya".to_owned(), b),
        ("c.maya".to_owned(), c),
    ]
}

#[test]
fn invalidation_cone_recompiles_exact_dependents() {
    let mut session = Session::new(CompileOptions::default(), None);
    let opts = RequestOpts::default();

    let cold = session.compile_sources(&chain_sources("bee", "sea"), &opts);
    assert!(cold.success, "cold chain compile failed:\n{}", cold.stderr);
    assert_eq!(cold.stdout, "bee\nbee\nsea\nsea\n");

    // Edit the middle file: b itself and its dependent c recompile; a, which
    // b depends on but which depends on nothing changed, is reused.
    let t = telemetry::Session::start(telemetry::Config::default());
    let edited = session.compile_sources(&chain_sources("buzz", "sea"), &opts);
    let r = t.finish();
    assert!(edited.success, "{}", edited.stderr);
    assert_eq!(edited.stdout, "buzz\nbuzz\nsea\nsea\n");
    assert!(!edited.full_reuse);
    assert_eq!(
        (edited.files_changed, edited.files_recompiled, edited.files_reused),
        (1, 2, 1),
        "editing b.maya must recompile exactly {{b, c}} and reuse a"
    );
    assert_eq!(r.counter(Counter::IncrFilesChanged), 1);
    assert_eq!(r.counter(Counter::IncrFilesRecompiled), 2);
    assert_eq!(r.counter(Counter::IncrFilesReused), 1);
    assert_eq!(r.counter(Counter::IncrFullReuses), 0);

    // Edit the leaf: only c recompiles.
    let t = telemetry::Session::start(telemetry::Config::default());
    let leaf = session.compile_sources(&chain_sources("buzz", "surf"), &opts);
    let r = t.finish();
    assert_eq!(leaf.stdout, "buzz\nbuzz\nsurf\nsurf\n");
    assert_eq!(
        (leaf.files_changed, leaf.files_recompiled, leaf.files_reused),
        (1, 1, 2),
        "editing c.maya must recompile only c"
    );
    assert_eq!(r.counter(Counter::IncrFilesRecompiled), 1);

    // Edit the root: the whole cone (a, b, c) recompiles.
    let mut rooted = chain_sources("buzz", "surf");
    rooted[0].1.push_str("\n// root tweak forcing a token change\nclass ARoot { }\n");
    let root = session.compile_sources(&rooted, &opts);
    assert_eq!(root.stdout, "buzz\nbuzz\nsurf\nsurf\n");
    assert_eq!(
        (root.files_changed, root.files_recompiled, root.files_reused),
        (1, 3, 0),
        "editing a.maya must recompile the full downstream cone"
    );

    // Comment-only edit: the token stream is unchanged, so the whole
    // compilation is reused without recompiling anything.
    let t = telemetry::Session::start(telemetry::Config::default());
    let mut commented = rooted.clone();
    commented[1].1.push_str("\n// harmless trailing comment\n");
    let reused = session.compile_sources(&commented, &opts);
    let r = t.finish();
    assert!(reused.full_reuse, "comment-only edit must be a full reuse");
    assert_eq!(reused.stdout, root.stdout);
    assert_eq!(reused.stderr, root.stderr);
    assert_eq!(r.counter(Counter::IncrFullReuses), 1);
    assert_eq!(r.counter(Counter::IncrFilesRecompiled), 0);

    let stats = session.stats();
    assert_eq!(stats.requests, 5);
    assert_eq!(stats.full_reuses, 1);
}

// ---- request crash isolation -------------------------------------------------

/// A request that panics outside the per-file compile sandbox must come
/// back as a JSON error reply — and the server must keep serving. The
/// `server` fault site injects exactly such a panic on the next compile
/// request; control requests are untouched.
#[test]
fn panicking_request_is_isolated_and_server_survives() {
    let srv = Mayad::start_env(&[], &[("MAYA_FAULTS", "server:panic")]);

    std::fs::write(
        srv.dir().join("ok.maya"),
        r#"class Main { static void main() { System.out.println("alive"); } }"#,
    )
    .unwrap();

    // First compile request trips the armed fault and panics in the
    // request handler. The client still gets a structured error reply.
    let hit = srv.raw_request(r#"{"files": ["ok.maya"]}"#);
    assert!(!ok(&hit), "panicked request must be an error reply: {hit:?}");
    let msg = hit.get("error").and_then(Json::as_str).unwrap();
    assert!(
        msg.contains("request panicked (isolated)"),
        "error should name the isolated panic: {msg:?}"
    );

    // The server survived: control requests and fresh compiles work.
    let pong = srv.raw_request(r#"{"cmd":"ping"}"#);
    assert!(ok(&pong) && pong.get("pong").and_then(Json::as_bool) == Some(true));
    let resp = srv.raw_request(r#"{"files": ["ok.maya"]}"#);
    assert!(ok(&resp), "server must keep compiling after isolation: {resp:?}");
    assert_eq!(resp.get("success").and_then(Json::as_bool), Some(true));
    assert_eq!(resp.get("stdout").and_then(Json::as_str), Some("alive\n"));
}

/// The same isolation holds with a worker pool: the fault panics one
/// worker's request, that client gets the error reply, and every other
/// client (pinned to other workers or the same one) keeps compiling.
#[test]
fn panicking_request_is_isolated_with_worker_pool() {
    let srv = Mayad::start_env(
        &["--workers=4".to_owned()],
        &[("MAYA_FAULTS", "server:panic")],
    );

    std::fs::write(
        srv.dir().join("ok.maya"),
        r#"class Main { static void main() { System.out.println("alive"); } }"#,
    )
    .unwrap();

    // Client "a" trips the once-per-process fault.
    let hit = srv.raw_request(r#"{"files": ["ok.maya"], "client": "a"}"#);
    assert!(!ok(&hit), "panicked request must be an error reply: {hit:?}");
    assert!(hit
        .get("error")
        .and_then(Json::as_str)
        .unwrap()
        .contains("request panicked (isolated)"));

    // Other clients — routed to other workers — are untouched, and the
    // client whose session was reset recovers on its next request.
    for client in ["b", "c", "d", "a"] {
        let resp = srv.raw_request(&format!(
            r#"{{"files": ["ok.maya"], "client": "{client}"}}"#
        ));
        assert!(ok(&resp), "client {client} after isolation: {resp:?}");
        assert_eq!(resp.get("stdout").and_then(Json::as_str), Some("alive\n"));
    }
}

// ---- worker-pool concurrency -------------------------------------------------

/// A pipelined connection: write many request lines before reading any
/// reply. Replies must come back in request order.
struct Pipelined {
    stream: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Pipelined {
    fn connect(srv: &Mayad) -> Pipelined {
        let stream = UnixStream::connect(&srv.sock).unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        Pipelined { stream, reader }
    }

    fn send(&mut self, line: &str) {
        self.stream.write_all(line.as_bytes()).unwrap();
        self.stream.write_all(b"\n").unwrap();
    }

    fn recv(&mut self) -> Json {
        let mut reply = String::new();
        self.reader.read_line(&mut reply).unwrap();
        parse_json(&reply).unwrap_or_else(|e| panic!("unparseable reply {reply:?}: {e}"))
    }
}

/// Replies on one connection arrive in request order even when the
/// requests are pipelined (sent without waiting), mixing instant error
/// replies with real compiles.
#[test]
fn pipelined_replies_preserve_request_order() {
    let srv = Mayad::start(&["--workers=4".to_owned(), "--max-inflight=16".to_owned()]);
    std::fs::write(
        srv.dir().join("p.maya"),
        r#"class Main { static void main() { System.out.println("p"); } }"#,
    )
    .unwrap();

    let mut conn = Pipelined::connect(&srv);
    for i in 0..10 {
        if i % 3 == 0 {
            conn.send(r#"{"files": ["p.maya"]}"#);
        } else {
            // The error reply names the unknown cmd, tagging the reply
            // with its request index.
            conn.send(&format!(r#"{{"cmd":"frob{i}"}}"#));
        }
    }
    for i in 0..10 {
        let reply = conn.recv();
        if i % 3 == 0 {
            assert!(ok(&reply), "request {i}: {reply:?}");
            assert_eq!(reply.get("stdout").and_then(Json::as_str), Some("p\n"));
        } else {
            let msg = reply.get("error").and_then(Json::as_str).unwrap();
            assert!(
                msg.contains(&format!("frob{i}")),
                "reply {i} out of order: {msg:?}"
            );
        }
    }
}

/// The concurrency stress test: 32 clients, each issuing 50 mixed
/// requests (compile / edit / revert / stats / ping), against an 8-worker
/// server — and the exact same schedule against a single-worker server.
/// Every deterministic reply must match the single-worker golden
/// byte-for-byte, and each client's replies must arrive in its own
/// request order (proved by the per-step expected program output).
#[test]
fn worker_pool_stress_matches_single_worker_golden() {
    const CLIENTS: usize = 32;
    const STEPS: usize = 50;

    /// Runs the full schedule against one server; returns, per client,
    /// the raw reply line of every deterministic request (compiles and
    /// pings) in order. Stats replies carry timings and are validated
    /// structurally instead of collected.
    fn run_schedule(workers: usize) -> Vec<Vec<String>> {
        let srv = Mayad::start(&[format!("--workers={workers}")]);
        let mut out: Vec<Vec<String>> = Vec::new();
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for client in 0..CLIENTS {
                let srv = &srv;
                handles.push(scope.spawn(move || {
                    let file = format!("c{client}.maya");
                    let path = srv.dir().join(&file);
                    let mut replies = Vec::new();
                    for step in 0..STEPS {
                        match step % 10 {
                            // stats: nondeterministic timings — check shape only
                            7 => {
                                let mut s = UnixStream::connect(&srv.sock).unwrap();
                                let req =
                                    format!("{{\"cmd\":\"stats\", \"client\": \"c{client}\"}}\n");
                                s.write_all(req.as_bytes()).unwrap();
                                let mut reply = String::new();
                                BufReader::new(s).read_line(&mut reply).unwrap();
                                let v = parse_json(&reply).unwrap();
                                assert!(ok(&v), "stats failed: {reply:?}");
                                assert!(v.get("stats").and_then(|s| s.get("latency")).is_some());
                            }
                            3 => {
                                let mut s = UnixStream::connect(&srv.sock).unwrap();
                                let req =
                                    format!("{{\"cmd\":\"ping\", \"client\": \"c{client}\"}}\n");
                                s.write_all(req.as_bytes()).unwrap();
                                let mut reply = String::new();
                                BufReader::new(s).read_line(&mut reply).unwrap();
                                replies.push(reply);
                            }
                            // compile; every 4th step edits, every other 4th
                            // reverts, so the session sees real invalidation
                            // traffic with full reuses in between
                            m => {
                                let label = if m % 4 == 0 { "a" } else { "b" };
                                if m % 2 == 0 {
                                    std::fs::write(
                                        &path,
                                        format!(
                                            "class Main {{ static void main() {{ System.out.println(\"c{client}:{label}\"); }} }}"
                                        ),
                                    )
                                    .unwrap();
                                }
                                let mut s = UnixStream::connect(&srv.sock).unwrap();
                                let req = format!(
                                    "{{\"files\": [\"{file}\"], \"client\": \"c{client}\"}}\n"
                                );
                                s.write_all(req.as_bytes()).unwrap();
                                let mut reply = String::new();
                                BufReader::new(s).read_line(&mut reply).unwrap();
                                let v = parse_json(&reply).unwrap();
                                // Reply order == request order: the output
                                // must be this step's expected label.
                                let expect = if m % 4 == 0 || (m % 2 == 1 && (m - 1) % 4 == 0) {
                                    format!("c{client}:a\n")
                                } else {
                                    format!("c{client}:b\n")
                                };
                                assert_eq!(
                                    v.get("stdout").and_then(Json::as_str),
                                    Some(expect.as_str()),
                                    "client {client} step {step}: {reply:?}"
                                );
                                replies.push(reply);
                            }
                        }
                    }
                    replies
                }));
            }
            for h in handles {
                out.push(h.join().unwrap());
            }
        });
        out
    }

    let golden = run_schedule(1);
    let pooled = run_schedule(8);
    assert_eq!(golden.len(), pooled.len());
    for (client, (g, p)) in golden.iter().zip(&pooled).enumerate() {
        assert_eq!(
            g, p,
            "client {client}: pool-of-8 replies must match pool-of-1 byte-for-byte"
        );
    }
}

// ---- quotas and backpressure -------------------------------------------------

/// Exceeding the per-client in-flight quota is a structured JSON refusal
/// delivered in order — and the connection stays usable afterwards.
#[test]
fn inflight_quota_refuses_excess_and_connection_survives() {
    let srv = Mayad::start(&["--workers=1".to_owned(), "--max-inflight=1".to_owned()]);
    let mut conn = Pipelined::connect(&srv);

    // The sleep occupies the client's single in-flight slot; the second
    // request is refused immediately (but replies stay ordered).
    conn.send(r#"{"cmd":"sleep","ms":400}"#);
    conn.send(r#"{"cmd":"ping"}"#);
    let first = conn.recv();
    assert!(ok(&first), "{first:?}");
    assert_eq!(first.get("slept_ms").and_then(Json::as_u64), Some(400));
    let second = conn.recv();
    assert!(!ok(&second), "over-quota request must be refused: {second:?}");
    assert_eq!(
        second.get("quota").and_then(Json::as_str),
        Some("max_inflight"),
        "{second:?}"
    );

    // Same connection, after the refusal: back to normal service.
    conn.send(r#"{"cmd":"ping"}"#);
    let pong = conn.recv();
    assert!(ok(&pong) && pong.get("pong").and_then(Json::as_bool) == Some(true));
}

/// An oversized request line is refused with the request-size quota and
/// the connection keeps working.
#[test]
fn request_size_quota_refuses_oversized_lines() {
    let srv = Mayad::start(&["--max-request-bytes=1024".to_owned()]);
    let mut conn = Pipelined::connect(&srv);

    let big = format!(
        r#"{{"files": ["x.maya"], "main": "{}"}}"#,
        "M".repeat(2000)
    );
    conn.send(&big);
    let refused = conn.recv();
    assert!(!ok(&refused), "{refused:?}");
    assert_eq!(
        refused.get("quota").and_then(Json::as_str),
        Some("request_bytes"),
        "{refused:?}"
    );

    conn.send(r#"{"cmd":"ping"}"#);
    let pong = conn.recv();
    assert!(ok(&pong) && pong.get("pong").and_then(Json::as_bool) == Some(true));
}

/// Queue saturation answers "overloaded" within a bounded time instead of
/// hanging the client: with one worker held busy and a one-slot queue,
/// excess requests are refused while the earlier ones still complete.
#[test]
fn saturated_queue_replies_overloaded_within_bounded_time() {
    let srv = Mayad::start(&[
        "--workers=1".to_owned(),
        "--queue-cap=1".to_owned(),
        "--max-inflight=32".to_owned(),
    ]);
    let mut conn = Pipelined::connect(&srv);

    let start = std::time::Instant::now();
    // #1 occupies the worker, #2 the queue slot; #3 finds the queue full
    // for longer than the bounded wait and is refused. (#1 sleeps past
    // #3's whole wait window, so the refusal is deterministic.)
    for _ in 0..3 {
        conn.send(r#"{"cmd":"sleep","ms":700}"#);
    }
    let r1 = conn.recv();
    let r2 = conn.recv();
    let r3 = conn.recv();
    assert!(ok(&r1) && ok(&r2), "{r1:?} {r2:?}");
    assert!(!ok(&r3), "request 3 must be refused: {r3:?}");
    assert_eq!(
        r3.get("overloaded").and_then(Json::as_bool),
        Some(true),
        "{r3:?}"
    );
    assert!(
        start.elapsed() < std::time::Duration::from_secs(8),
        "overload must be bounded, took {:?}",
        start.elapsed()
    );

    // The server is healthy once the backlog clears.
    conn.send(r#"{"cmd":"ping"}"#);
    let pong = conn.recv();
    assert!(ok(&pong) && pong.get("pong").and_then(Json::as_bool) == Some(true));
}

/// `{"cmd":"stats"}` counts refusals by reason: one oversized line, one
/// request over a client's in-flight quota, and one that found the queue
/// full for the whole bounded wait.
#[test]
fn stats_count_refusals_by_reason() {
    let srv = Mayad::start(&[
        "--workers=1".to_owned(),
        "--queue-cap=1".to_owned(),
        "--max-inflight=2".to_owned(),
        "--max-request-bytes=1024".to_owned(),
    ]);
    let mut conn = Pipelined::connect(&srv);
    // Client a's first sleep occupies the worker and its second the one
    // queue slot, which fills a's quota; client b then finds the queue
    // full for longer than the bounded wait.
    conn.send(r#"{"cmd":"sleep","ms":900,"client":"a"}"#);
    conn.send(r#"{"cmd":"sleep","ms":900,"client":"a"}"#);
    conn.send(r#"{"cmd":"ping","client":"a"}"#);
    conn.send(r#"{"cmd":"ping","client":"b"}"#);
    conn.send(&format!(r#"{{"cmd":"ping","pad":"{}"}}"#, "x".repeat(2000)));
    let replies: Vec<Json> = (0..5).map(|_| conn.recv()).collect();
    assert!(ok(&replies[0]) && ok(&replies[1]), "{replies:?}");
    let quota = |r: &Json| r.get("quota").and_then(Json::as_str).map(str::to_owned);
    assert_eq!(quota(&replies[2]).as_deref(), Some("max_inflight"));
    assert_eq!(
        replies[3].get("overloaded").and_then(Json::as_bool),
        Some(true)
    );
    assert_eq!(quota(&replies[4]).as_deref(), Some("request_bytes"));

    conn.send(r#"{"cmd":"stats"}"#);
    let stats = conn.recv();
    let refusals = stats
        .get("stats")
        .and_then(|s| s.get("refusals"))
        .unwrap_or_else(|| panic!("no refusals in {stats:?}"));
    for reason in ["request_bytes", "max_inflight", "overloaded"] {
        assert_eq!(
            refusals.get(reason).and_then(Json::as_u64),
            Some(1),
            "{reason}: {refusals:?}"
        );
    }
}

// ---- persistent artifact store ----------------------------------------------

/// `mayad --cache-dir`: a daemon persists artifacts to the store, and a
/// *restarted* daemon (fresh process, same cache directory) starts warm —
/// its first request hydrates from the store, byte-identical to the cold
/// run and with the cold run's file accounting, with the `store_*` gauges
/// showing the hits.
#[test]
fn restarted_mayad_starts_warm_from_cache_dir() {
    let cache = std::env::temp_dir().join(format!("mayad-restart-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache);
    let flags = vec![format!("--cache-dir={}", cache.display())];
    let sources = [
        (
            "warm.maya",
            r#"class Main { static void main() { System.out.println(Word.it()); } }"#,
        ),
        (
            "word.maya",
            r#"class Word { static String it() { return "warmth"; } }"#,
        ),
    ];
    let request = r#"{"files": ["warm.maya", "word.maya"]}"#;
    let write_sources = |srv: &Mayad| {
        for (name, src) in sources {
            std::fs::write(srv.dir().join(name), src).unwrap();
        }
    };
    let files_fields = |r: &Json| {
        ["files_changed", "files_recompiled", "files_reused"].map(|f| {
            r.get(f)
                .and_then(Json::as_u64)
                .unwrap_or_else(|| panic!("no {f}: {r:?}"))
        })
    };

    let (cold, cold_files) = {
        let srv = Mayad::start(&flags);
        write_sources(&srv);
        let r = srv.raw_request(request);
        assert!(ok(&r), "{r:?}");
        assert_eq!(r.get("success").and_then(Json::as_bool), Some(true));
        (
            r.get("stdout").and_then(Json::as_str).unwrap().to_owned(),
            files_fields(&r),
        )
        // Drop: clean shutdown; the artifacts must outlive the process.
    };
    assert_eq!(cold, "warmth\n");
    assert_eq!(
        cold_files,
        [2, 2, 0],
        "changed, recompiled, reused on a cold compile"
    );
    let persisted = std::fs::read_dir(&cache).unwrap().count();
    assert!(persisted > 0, "the first daemon must leave artifacts behind");

    // Same request (same file names and contents, different cwd and
    // process) against a restarted daemon: byte-identical, via the store,
    // and accounted as the compile it replays.
    let srv = Mayad::start(&flags);
    write_sources(&srv);
    let r = srv.raw_request(request);
    assert!(ok(&r), "{r:?}");
    assert_eq!(r.get("stdout").and_then(Json::as_str), Some(cold.as_str()));
    assert_eq!(r.get("full_reuse").and_then(Json::as_bool), Some(false));
    assert_eq!(
        files_fields(&r),
        cold_files,
        "a store hit reports the cold compile's accounting"
    );

    let stats = srv.raw_request(r#"{"cmd":"stats"}"#);
    let caches = stats.get("stats").unwrap().get("caches").unwrap();
    let hits = |name: &str| {
        caches.get(name).and_then(|c| c.get("hits")).and_then(Json::as_u64).unwrap_or(0)
    };
    assert!(
        hits("store_outcome") >= 1,
        "the restarted daemon must hydrate the request outcome from the store: {stats:?}"
    );
    drop(srv);
    let _ = std::fs::remove_dir_all(&cache);
}

// ---- pool-wide cache gauges and daemon memory ---------------------------------

/// One client's project for the tests below: `classes` class files, each
/// with a few methods, plus a `Main` summing their ids.
fn project_sources(client: &str, classes: usize, pad: &[u64]) -> Vec<(String, String)> {
    let mut files: Vec<(String, String)> = (0..classes)
        .map(|i| {
            let mut src = format!(
                "class {client}K{i} {{\n    int id() {{ return {}; }}\n",
                i + 1
            );
            for m in 0..4 {
                src.push_str(&format!(
                    "    int m{m}(int a) {{ int t = a * {m} + id(); return t - a; }}\n"
                ));
            }
            src.push_str(&format!("    int pad() {{ return {}; }}\n}}\n", pad[i]));
            (format!("{client}/k{i}.maya"), src)
        })
        .collect();
    let terms: Vec<String> = (0..classes)
        .map(|i| format!("new {client}K{i}().id()"))
        .collect();
    files.push((
        format!("{client}/main.maya"),
        format!(
            "class Main {{\n    static void main() {{\n        System.out.println({});\n    }}\n}}\n",
            terms.join(" + ")
        ),
    ));
    files
}

fn write_project(dir: &std::path::Path, files: &[(String, String)]) -> String {
    for (name, src) in files {
        let path = dir.join(name);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, src).unwrap();
    }
    let names: Vec<String> = files
        .iter()
        .map(|(n, _)| telemetry::json_string(n))
        .collect();
    names.join(", ")
}

/// `mayad stats` reports a pool's cache sizes as the sum over its workers:
/// two clients pinned to different workers hold different entry counts,
/// and every worker-confined gauge is the total of both, not whichever
/// worker answered last.
#[test]
fn pool_cache_sizes_sum_over_workers() {
    let srv = Mayad::start(&["--workers=2".to_owned()]);
    // Client `a` has one class file and a main, client `b` three and a
    // main; every file, class body and method body is a pure parse.
    for (client, classes) in [("a", 1), ("b", 3)] {
        let files = project_sources(client, classes, &vec![0; classes]);
        let names = write_project(srv.dir(), &files);
        let r = srv.raw_request(&format!(r#"{{"client": "{client}", "files": [{names}]}}"#));
        assert!(ok(&r), "{r:?}");
        assert_eq!(
            r.get("success").and_then(Json::as_bool),
            Some(true),
            "{r:?}"
        );
    }
    let stats = srv.raw_request(r#"{"cmd":"stats"}"#);
    let caches = stats.get("stats").unwrap().get("caches").unwrap();
    let size = |name: &str| {
        caches
            .get(name)
            .and_then(|c| c.get("size"))
            .and_then(Json::as_u64)
            .unwrap()
    };
    // Files (units) and classes (bodies): 2 for `a`, 4 for `b`. Method
    // bodies: 6 per class file plus `main`, so 7 for `a` and 19 for `b`.
    assert_eq!(size("unit_cache"), 2 + 4, "{stats:?}");
    assert_eq!(size("class_body_cache"), 2 + 4, "{stats:?}");
    assert_eq!(size("force_cache"), 7 + 19, "{stats:?}");
}

/// The daemon's peak resident set stays flat over a stream of one-file
/// edits: every request frees its compiler, and the shared caches keep
/// only what recent requests used.
#[cfg(target_os = "linux")]
#[test]
fn mayad_peak_rss_stays_flat_over_an_edit_stream() {
    const CLASSES: usize = 12;
    const EARLY: usize = 20;
    const LATE: usize = 80;
    /// Far below what keeping each request's compiler would add over
    /// `LATE - EARLY` requests of this project (about 0.28 MB each).
    const MAX_GROWTH_KB: u64 = 4096;

    fn vm_hwm_kb(pid: u32) -> u64 {
        let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap();
        let line = status.lines().find(|l| l.starts_with("VmHWM:")).unwrap();
        line.split_whitespace().nth(1).unwrap().parse().unwrap()
    }

    let srv = Mayad::start(&["--workers=2".to_owned()]);
    let pid = srv.child.id();
    let mut pads = [vec![0u64; CLASSES], vec![0u64; CLASSES]];
    let mut rng = 0x9e37_79b9_7f4a_7c15u64;
    let mut early = 0;
    for request in 1..=LATE {
        // Two clients on the two workers take turns; each request rewrites
        // one of its client's files with a new constant.
        let c = request % 2;
        let client = ["a", "b"][c];
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        pads[c][(rng % CLASSES as u64) as usize] = request as u64;
        let names = write_project(srv.dir(), &project_sources(client, CLASSES, &pads[c]));
        let r = srv.raw_request(&format!(
            r#"{{"client": "{client}", "run": true, "files": [{names}]}}"#
        ));
        assert_eq!(
            r.get("success").and_then(Json::as_bool),
            Some(true),
            "{r:?}"
        );
        let expected = (1..=CLASSES).sum::<usize>();
        assert_eq!(
            r.get("stdout").and_then(Json::as_str),
            Some(format!("{expected}\n").as_str())
        );
        if request == EARLY {
            early = vm_hwm_kb(pid);
        }
    }
    let growth = vm_hwm_kb(pid).saturating_sub(early);
    assert!(
        growth < MAX_GROWTH_KB,
        "mayad's peak RSS grew {growth} kB between request {EARLY} and {LATE}"
    );
}

// ---- clients sharing one worker -------------------------------------------------

/// One client's project: thirty classes, one per file, and a main, under
/// names of that client's own; each edit round appends one class to the
/// sixth file.
fn client_project(client: usize, round: usize) -> Vec<(String, String)> {
    let mut files: Vec<(String, String)> = (0..30)
        .map(|i| {
            let mut src = format!("class K{client}x{i} {{\n    int id() {{ return {i}; }}\n");
            if i > 0 {
                src.push_str(&format!(
                    "    int chained() {{ return new K{client}x{}().id() + id(); }}\n",
                    i - 1
                ));
            }
            for m in 0..8 {
                src.push_str(&format!(
                    "    int m{m}(int a) {{ int t = a * {m} + id(); return t - a; }}\n"
                ));
            }
            src.push_str("}\n");
            (format!("k{client}_{i:02}.maya"), src)
        })
        .collect();
    files[5].1.push_str(&format!("class E{client}r{round} {{ }}\n"));
    files.push((
        format!("main{client}.maya"),
        format!(
            "class Main {{ static void main() {{ \
             System.out.println(new K{client}x29().id() + {client}); }} }}\n"
        ),
    ));
    files
}

/// Eight clients interleave their edits on a pool of one worker, which
/// holds a warm session for each: after its first request, every edit of a
/// client recompiles the one edited file, reuses the other 30, and replies
/// with that client's own output.
#[test]
fn clients_sharing_one_worker_keep_their_warm_sessions() {
    use maya::core::service::{CompilePool, PoolConfig, PoolRequest};
    let pool = CompilePool::start(PoolConfig {
        workers: 1,
        queue_cap: 64,
        ..PoolConfig::default()
    });
    let pool = &pool;
    std::thread::scope(|s| {
        for client in 0..8 {
            s.spawn(move || {
                for round in 0..4 {
                    let request = PoolRequest::Sources {
                        sources: client_project(client, round),
                        opts: RequestOpts::default(),
                    };
                    let reply = pool.submit(&format!("c{client}"), request).recv().unwrap();
                    let r = parse_json(&reply).unwrap();
                    assert_eq!(r.get("success").and_then(Json::as_bool), Some(true), "{reply}");
                    assert_eq!(
                        r.get("stdout").and_then(Json::as_str),
                        Some(format!("{}\n", 29 + client).as_str()),
                        "client {client} got another client's output"
                    );
                    if round > 0 {
                        let files = ["files_changed", "files_recompiled", "files_reused"]
                            .map(|k| r.get(k).and_then(Json::as_u64).unwrap());
                        assert_eq!(files, [1, 1, 30], "client {client}, edit {round}: {reply}");
                    }
                }
            });
        }
    });
    pool.shutdown();
}
