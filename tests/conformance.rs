//! Conformance corpus: every program under `tests/corpus/` is pinned to
//! golden stdout/stderr snapshots, and the warm compile-server path is
//! differentially tested against cold `mayac` on the same inputs.
//!
//! Regenerate the goldens with `MAYA_BLESS=1 cargo test --test conformance`.
//!
//! Corpus directives (leading `//` comment lines of each `.maya` file):
//!
//! - `// mayac: <args>`  — extra command-line arguments for the run
//! - `// status: fail`   — the program is expected to exit non-zero
//! - `// noedit`         — skip the append-edit differential steps (used
//!   for programs whose diagnostics span to end-of-file)

use std::io::{BufRead, BufReader, Write as _};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};

use maya::core::json::{parse_json, Json};
use maya::telemetry::json_string;

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

fn corpus_programs(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| {
            let name = e.unwrap().file_name().into_string().unwrap();
            name.ends_with(".maya").then_some(name)
        })
        .collect();
    names.sort();
    assert!(
        names.len() >= 25,
        "conformance corpus shrank below 25 programs ({} found)",
        names.len()
    );
    names
}

#[derive(Default)]
struct Directives {
    args: Vec<String>,
    expect_fail: bool,
    noedit: bool,
}

fn parse_directives(src: &str) -> Directives {
    let mut d = Directives::default();
    for line in src.lines() {
        let Some(rest) = line.trim().strip_prefix("//") else { break };
        let rest = rest.trim();
        if let Some(args) = rest.strip_prefix("mayac:") {
            d.args = args.split_whitespace().map(str::to_string).collect();
        } else if rest == "status: fail" {
            d.expect_fail = true;
        } else if rest == "noedit" {
            d.noedit = true;
        }
    }
    d
}

fn run_mayac(cwd: &Path, d: &Directives, file: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mayac"))
        .current_dir(cwd)
        .args(&d.args)
        .arg(file)
        .output()
        .unwrap()
}

/// Golden runner: each corpus program's stdout and stderr must match its
/// checked-in `NAME.stdout` / `NAME.stderr` snapshot (a missing snapshot
/// means "empty"), and its exit status must match the `status:` directive.
#[test]
fn corpus_matches_goldens() {
    let dir = corpus_dir();
    let bless = std::env::var("MAYA_BLESS").is_ok();
    let mut failures = Vec::new();
    for name in corpus_programs(&dir) {
        let src = std::fs::read_to_string(dir.join(&name)).unwrap();
        let d = parse_directives(&src);
        let out = run_mayac(&dir, &d, &name);
        if out.status.success() == d.expect_fail {
            failures.push(format!(
                "{name}: expected {} but got exit status {:?}\nstderr:\n{}",
                if d.expect_fail { "failure" } else { "success" },
                out.status.code(),
                String::from_utf8_lossy(&out.stderr)
            ));
        }
        let stem = name.trim_end_matches(".maya");
        for (channel, bytes) in [("stdout", &out.stdout), ("stderr", &out.stderr)] {
            let golden = dir.join(format!("{stem}.{channel}"));
            if bless {
                if bytes.is_empty() {
                    let _ = std::fs::remove_file(&golden);
                } else {
                    std::fs::write(&golden, bytes).unwrap();
                }
                continue;
            }
            let expected = std::fs::read(&golden).unwrap_or_default();
            if expected != **bytes {
                failures.push(format!(
                    "{name}: {channel} drifted from golden {stem}.{channel}\n\
                     --- expected ---\n{}\n--- actual ---\n{}",
                    String::from_utf8_lossy(&expected),
                    String::from_utf8_lossy(bytes)
                ));
            }
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n======\n"));
}

/// A mayad instance serving a scratch directory, shut down on drop.
struct Mayad {
    child: Child,
    sock: PathBuf,
}

impl Mayad {
    fn start(cwd: &Path) -> Mayad {
        let sock = cwd.join("mayad.sock");
        let child = Command::new(env!("CARGO_BIN_EXE_mayad"))
            .current_dir(cwd)
            .arg(format!("--socket={}", sock.display()))
            .stderr(Stdio::null())
            .spawn()
            .unwrap();
        for _ in 0..400 {
            if UnixStream::connect(&sock).is_ok() {
                return Mayad { child, sock };
            }
            std::thread::sleep(std::time::Duration::from_millis(25));
        }
        panic!("mayad did not come up on {}", sock.display());
    }

    fn request(&self, line: &str) -> Json {
        let mut s = UnixStream::connect(&self.sock).unwrap();
        s.write_all(line.as_bytes()).unwrap();
        s.write_all(b"\n").unwrap();
        let mut reply = String::new();
        BufReader::new(s).read_line(&mut reply).unwrap();
        let parsed = parse_json(&reply).unwrap();
        assert_eq!(
            parsed.get("ok").and_then(Json::as_bool),
            Some(true),
            "server error for {line}: {reply}"
        );
        parsed
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

/// Translate a corpus directive line into a mayad compile request.
fn request_line(file: &str, d: &Directives) -> String {
    let mut expand = false;
    let mut error_format = "human";
    let mut max_errors = 20u64;
    let mut uses = Vec::new();
    let mut it = d.args.iter();
    while let Some(a) = it.next() {
        if a == "--expand" {
            expand = true;
        } else if let Some(fmt) = a.strip_prefix("--error-format=") {
            error_format = if fmt == "json" { "json" } else { "human" };
        } else if let Some(n) = a.strip_prefix("--max-errors=") {
            max_errors = n.parse().unwrap();
        } else if a == "-use" {
            uses.push(json_string(it.next().expect("-use needs a value")));
        } else {
            panic!("corpus directive arg {a:?} has no mayad protocol mapping");
        }
    }
    format!(
        "{{\"files\":[{}],\"expand\":{expand},\"error_format\":{},\
         \"max_errors\":{max_errors},\"uses\":[{}]}}",
        json_string(file),
        json_string(error_format),
        uses.join(",")
    )
}

fn assert_matches_cold(name: &str, step: &str, warm: &Json, cold: &Output) {
    assert_eq!(
        warm.get("stdout").and_then(Json::as_str).unwrap(),
        String::from_utf8_lossy(&cold.stdout),
        "{name}: warm {step} stdout differs from cold mayac"
    );
    assert_eq!(
        warm.get("stderr").and_then(Json::as_str).unwrap(),
        String::from_utf8_lossy(&cold.stderr),
        "{name}: warm {step} stderr differs from cold mayac"
    );
    assert_eq!(
        warm.get("success").and_then(Json::as_bool).unwrap(),
        cold.status.success(),
        "{name}: warm {step} success flag differs from cold mayac exit status"
    );
}

/// Pool determinism: the whole conformance corpus compiled through
/// in-process worker pools of 1, 2, and 8 workers produces byte-identical
/// reply strings. Every program is its own client with a three-step
/// schedule (compile, identical re-request, real edit); the steps of all
/// clients are submitted interleaved so larger pools genuinely serve
/// clients concurrently, while per-client order — the determinism
/// contract — must hold at every pool size.
#[test]
fn corpus_deterministic_across_pool_sizes() {
    use maya::core::service::{CompilePool, PoolConfig, PoolRequest};
    use maya::core::{ErrorFormat, RequestOpts};
    use std::sync::Arc;

    let dir = corpus_dir();
    let mut cases = Vec::new();
    for name in corpus_programs(&dir) {
        let src = std::fs::read_to_string(dir.join(&name)).unwrap();
        let d = parse_directives(&src);
        let mut opts = RequestOpts::default();
        let mut it = d.args.iter();
        while let Some(a) = it.next() {
            if a == "--expand" {
                opts.expand = true;
            } else if let Some(fmt) = a.strip_prefix("--error-format=") {
                opts.error_format =
                    if fmt == "json" { ErrorFormat::Json } else { ErrorFormat::Human };
            } else if let Some(n) = a.strip_prefix("--max-errors=") {
                opts.max_errors = n.parse().unwrap();
            } else if a == "-use" {
                opts.uses.push(it.next().expect("-use needs a value").clone());
            } else {
                panic!("corpus directive arg {a:?} has no RequestOpts mapping");
            }
        }
        let steps = [
            src.clone(),
            src.clone(),
            format!("{src}\nclass ZZTouched {{ }}\n"),
        ];
        cases.push((name, steps, opts));
    }

    let run = |workers: usize| -> Vec<Vec<String>> {
        let pool = CompilePool::start(PoolConfig {
            workers,
            queue_cap: 4 * cases.len(),
            installer: Some(Arc::new(|c| {
                maya::macrolib::install(c);
                maya::multijava::install(c);
            })),
            ..PoolConfig::default()
        });
        let mut pending: Vec<Vec<std::sync::mpsc::Receiver<String>>> =
            cases.iter().map(|_| Vec::new()).collect();
        for step in 0..3 {
            for (i, (name, steps, opts)) in cases.iter().enumerate() {
                let req = PoolRequest::Sources {
                    sources: vec![(name.clone(), steps[step].clone())],
                    opts: opts.clone(),
                };
                pending[i].push(pool.submit(name, req));
            }
        }
        let replies = pending
            .into_iter()
            .map(|rxs| rxs.into_iter().map(|rx| rx.recv().unwrap()).collect())
            .collect();
        pool.shutdown();
        replies
    };

    let golden = run(1);
    for (i, (name, ..)) in cases.iter().enumerate() {
        for (step, reply) in golden[i].iter().enumerate() {
            let parsed = parse_json(reply).unwrap();
            assert_eq!(
                parsed.get("ok").and_then(Json::as_bool),
                Some(true),
                "{name}: step {step} was refused by the single-worker pool: {reply}"
            );
        }
        let reuse = parse_json(&golden[i][1]).unwrap();
        assert_eq!(
            reuse.get("full_reuse").and_then(Json::as_bool),
            Some(true),
            "{name}: identical re-request through the pool was not a full reuse"
        );
    }
    for workers in [2usize, 8] {
        let got = run(workers);
        for (i, (name, ..)) in cases.iter().enumerate() {
            assert_eq!(
                golden[i], got[i],
                "{name}: {workers}-worker pool replies diverge from the single-worker pool"
            );
        }
    }
}

/// Differential pinning: for every corpus program the warm server output is
/// byte-identical to cold `mayac`; an identical re-request is a full reuse;
/// touching the file without changing it rebuilds nothing; a token-identical
/// edit (trailing comment) still rebuilds nothing; a real edit recompiles
/// and again matches a cold run on the edited source.
#[test]
fn corpus_cold_warm_differential() {
    let corpus = corpus_dir();
    let scratch = std::env::temp_dir().join(format!("maya-conf-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).unwrap();
    let server = Mayad::start(&scratch);

    for name in corpus_programs(&corpus) {
        let src = std::fs::read_to_string(corpus.join(&name)).unwrap();
        let d = parse_directives(&src);
        let local = scratch.join(&name);
        std::fs::write(&local, &src).unwrap();
        let req = request_line(&name, &d);

        // Cold reference vs first warm-server compile.
        let cold = run_mayac(&scratch, &d, &name);
        let warm = server.request(&req);
        assert_matches_cold(&name, "first", &warm, &cold);

        // Identical request: everything is reused, output unchanged.
        let again = server.request(&req);
        assert_matches_cold(&name, "reuse", &again, &cold);
        assert_eq!(
            again.get("full_reuse").and_then(Json::as_bool),
            Some(true),
            "{name}: identical second request was not a full reuse"
        );

        // Touch without change: same bytes rewritten, nothing rebuilds.
        std::fs::write(&local, &src).unwrap();
        let touched = server.request(&req);
        assert_matches_cold(&name, "touch", &touched, &cold);
        assert_eq!(
            touched.get("full_reuse").and_then(Json::as_bool),
            Some(true),
            "{name}: touch-without-change triggered a rebuild"
        );

        if d.noedit {
            continue;
        }

        // Trailing comment: bytes change but the token stream does not, so
        // the server detects zero changed files and reuses everything.
        std::fs::write(&local, format!("{src}\n// warmed over\n")).unwrap();
        let commented = server.request(&req);
        assert_matches_cold(&name, "comment-edit", &commented, &cold);
        assert_eq!(
            commented.get("full_reuse").and_then(Json::as_bool),
            Some(true),
            "{name}: token-identical comment edit triggered a rebuild"
        );

        // Real edit: the server recompiles and must match a fresh cold run
        // on the edited source byte-for-byte.
        let edited = format!("{src}\nclass ZZTouched {{ }}\n");
        std::fs::write(&local, &edited).unwrap();
        let cold_edited = run_mayac(&scratch, &d, &name);
        let recompiled = server.request(&req);
        assert_matches_cold(&name, "real-edit", &recompiled, &cold_edited);
        assert_eq!(
            recompiled.get("full_reuse").and_then(Json::as_bool),
            Some(false),
            "{name}: real edit was wrongly treated as a full reuse"
        );
        assert!(
            recompiled.get("files_recompiled").and_then(Json::as_u64).unwrap() >= 1,
            "{name}: real edit recompiled no files"
        );
    }

    drop(server);
    let _ = std::fs::remove_dir_all(&scratch);
}

/// The persistent store never changes a byte: every corpus program, with
/// its directives, runs twice against one fresh `--cache-dir`, first
/// populating it and then answered from it, and both runs match the
/// store-less run's exit status, stdout and stderr. The warm pass writes
/// no entry.
#[test]
fn corpus_store_runs_match_the_storeless_run() {
    let dir = corpus_dir();
    let cache = std::env::temp_dir().join(format!("maya-conf-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache);
    let store_arg = format!("--cache-dir={}", cache.display());
    let run = |d: &Directives, name: &str, store: bool| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_mayac"));
        cmd.current_dir(&dir).env_remove("MAYA_CACHE_DIR").args(&d.args);
        if store {
            cmd.arg(&store_arg);
        }
        let out = cmd.arg(name).output().unwrap();
        (out.status.code(), out.stdout, out.stderr)
    };
    let entries = || std::fs::read_dir(&cache).map_or(0, Iterator::count);

    let programs: Vec<(String, Directives)> = corpus_programs(&dir)
        .into_iter()
        .map(|name| {
            let d = parse_directives(&std::fs::read_to_string(dir.join(&name)).unwrap());
            (name, d)
        })
        .collect();
    let cold: Vec<_> = programs
        .iter()
        .map(|(name, d)| (run(d, name, false), run(d, name, true)))
        .collect();
    let populated = entries();
    let mut failures = Vec::new();
    for ((name, d), (storeless, populating)) in programs.iter().zip(&cold) {
        let warm = run(d, name, true);
        for (pass, got) in [("populating", populating), ("warm", &warm)] {
            if got != storeless {
                failures.push(format!(
                    "{name}: the {pass} store run diverged from the store-less run\n\
                     --- store-less ---\n{:?}\n{}\n{}\n--- {pass} ---\n{:?}\n{}\n{}",
                    storeless.0,
                    String::from_utf8_lossy(&storeless.1),
                    String::from_utf8_lossy(&storeless.2),
                    got.0,
                    String::from_utf8_lossy(&got.1),
                    String::from_utf8_lossy(&got.2),
                ));
            }
        }
    }
    let warm_entries = entries();
    let _ = std::fs::remove_dir_all(&cache);
    assert!(failures.is_empty(), "\n{}", failures.join("\n======\n"));
    assert!(
        populated >= programs.len(),
        "{populated} entries for {} programs",
        programs.len()
    );
    assert_eq!(warm_entries, populated, "the warm pass wrote entries");
}
