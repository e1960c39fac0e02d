//! The mayac command-line driver.

use std::process::Command;

fn mayac() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mayac"))
}

/// The value of `key` in the `counters` object of a `--stats` document.
fn stats_counter(doc: &str, key: &str) -> u64 {
    use maya::core::json::{parse_json, Json};
    let stats = parse_json(doc).unwrap_or_else(|e| panic!("--stats is not JSON ({e}):\n{doc}"));
    stats
        .get("counters")
        .and_then(|c| c.get(key))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("no counter {key:?} in:\n{doc}"))
}

fn write_temp(name: &str, text: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mayac-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let p = dir.join(name);
    std::fs::write(&p, text).unwrap();
    p
}

#[test]
fn compiles_and_runs_a_file() {
    let f = write_temp(
        "hello.maya",
        r#"class Main { static void main() { System.out.println("cli ok"); } }"#,
    );
    let out = mayac().arg(&f).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(String::from_utf8_lossy(&out.stdout), "cli ok\n");
}

#[test]
fn use_option_imports_globally() {
    // The paper's -use command-line option (§3.3): the macro is available
    // without a use directive in the source.
    let f = write_temp(
        "glob.maya",
        r#"
        import java.util.*;
        class Main {
            static void main() {
                Vector v = new Vector();
                v.addElement("via -use");
                v.elements().foreach(String s) {
                    System.out.println(s);
                }
            }
        }
        "#,
    );
    let out = mayac().arg("-use").arg("Foreach").arg(&f).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(String::from_utf8_lossy(&out.stdout), "via -use\n");
}

#[test]
fn expand_prints_expansions() {
    let f = write_temp(
        "exp.maya",
        r#"
        import java.util.*;
        class Main {
            static void main() {
                Vector v = new Vector();
                use Foreach;
                v.elements().foreach(String s) { System.out.println(s); }
            }
        }
        "#,
    );
    let out = mayac().arg("--expand").arg(&f).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("hasMoreElements"), "{stdout}");
}

#[test]
fn dump_bytecode_disassembles_methods() {
    let f = write_temp(
        "bc.maya",
        r#"
        class Main {
            static int add(int a, int b) { return a + b; }
            static void main() {
                int s = 0;
                for (int i = 0; i < 5; i++) { s = add(s, i); }
                System.out.println(s);
            }
        }
        "#,
    );
    let out = mayac().arg("--dump-bytecode").arg(&f).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Program output precedes the disassembly.
    assert!(stdout.starts_with("10
"), "{stdout}");
    assert!(stdout.contains("--- bytecode Main.main ---"), "{stdout}");
    assert!(stdout.contains("--- bytecode Main.add ---"), "{stdout}");
    // Register/header shape of the listing.
    assert!(stdout.contains("params=2"), "{stdout}");
    assert!(stdout.contains("ret_null"), "{stdout}");

    // `--dump-bytecode=METHOD` filters to one method.
    let out = mayac().arg("--dump-bytecode=add").arg(&f).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("--- bytecode Main.add ---"), "{stdout}");
    assert!(!stdout.contains("--- bytecode Main.main ---"), "{stdout}");
}

#[test]
fn errors_exit_nonzero_with_message() {
    let f = write_temp("bad.maya", "class Main { static void main() { int x = ; } }");
    let out = mayac().arg(&f).output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("mayac:"), "{stderr}");
}

#[test]
fn main_class_selection() {
    let f = write_temp(
        "other.maya",
        r#"class App { static void main() { System.out.println("app"); } }"#,
    );
    let out = mayac().arg("--main").arg("App").arg(&f).output().unwrap();
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout), "app\n");
}

// ---- observability flags -----------------------------------------------------

const HELLO: &str = r#"class Main { static void main() { System.out.println("obs"); } }"#;

#[test]
fn successful_run_has_clean_stderr() {
    let f = write_temp("clean.maya", HELLO);
    let out = mayac().arg(&f).output().unwrap();
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stderr), "", "stderr must be silent");
}

#[test]
fn time_passes_prints_phase_table() {
    let f = write_temp("tp.maya", HELLO);
    let out = mayac().arg("--time-passes").arg(&f).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    // Program output stays on stdout, the table on stderr.
    assert_eq!(String::from_utf8_lossy(&out.stdout), "obs\n");
    let stderr = String::from_utf8_lossy(&out.stderr);
    for needle in ["phase", "parse", "dispatch", "interp", "total (wall)"] {
        assert!(stderr.contains(needle), "missing {needle:?} in:\n{stderr}");
    }
}

#[test]
fn stats_prints_json_to_stderr() {
    let f = write_temp("st.maya", HELLO);
    let out = mayac().arg("--stats").arg(&f).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(String::from_utf8_lossy(&out.stdout), "obs\n");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("\"schema\": \"maya-telemetry/1\""), "{stderr}");
    assert!(stats_counter(&stderr, "tokens_lexed") > 0);
    assert!(stats_counter(&stderr, "parser_reductions") > 0);
}

#[test]
fn stats_writes_file() {
    let f = write_temp("stf.maya", HELLO);
    let json_path = write_temp("stats-out.json", "");
    let out = mayac()
        .arg(format!("--stats={}", json_path.display()))
        .arg(&f)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(String::from_utf8_lossy(&out.stderr), "", "file mode keeps stderr clean");
    let doc = std::fs::read_to_string(&json_path).unwrap();
    assert!(doc.contains("\"schema\": \"maya-telemetry/1\""));
    assert!(stats_counter(&doc, "interp_calls") > 0);
}

#[test]
fn stats_shows_laziness_on_the_example_workload() {
    // The shipped example workload imports two source Mayans but only uses
    // one; the unused Mayan's body must never be forced (paper §4).
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let ext = root.join("examples/maya/eforeach_ext.maya");
    let app = root.join("examples/maya/eforeach_app.maya");
    let out = mayac().arg("--stats").arg(&ext).arg(&app).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    let created = stats_counter(&stderr, "lazy_nodes_created");
    let forced = stats_counter(&stderr, "lazy_nodes_forced");
    assert!(
        forced < created,
        "expected strictly lazy compile: forced={forced} created={created}"
    );
}

#[test]
fn trace_expansion_streams_events() {
    let f = write_temp(
        "tr.maya",
        r#"
        import java.util.*;
        class Main {
            static void main() {
                Vector v = new Vector();
                v.addElement("t");
                use Foreach;
                v.elements().foreach(String s) { System.out.println(s); }
            }
        }
        "#,
    );
    let out = mayac().arg("--trace-expansion").arg(&f).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("[dispatch]"), "{stderr}");
    assert!(stderr.contains("[import] Foreach"), "{stderr}");
    assert!(stderr.contains("reduced by Mayan"), "{stderr}");
}

#[test]
fn trace_expansion_filter_narrows_output() {
    let f = write_temp(
        "trf.maya",
        r#"
        import java.util.*;
        class Main {
            static void main() {
                Vector v = new Vector();
                use Foreach;
                v.elements().foreach(String s) { System.out.println(s); }
            }
        }
        "#,
    );
    let all = mayac().arg("--trace-expansion").arg(&f).output().unwrap();
    let filtered = mayac().arg("--trace-expansion=import").arg(&f).output().unwrap();
    assert!(all.status.success() && filtered.status.success());
    let all_lines = all.stderr.iter().filter(|b| **b == b'\n').count();
    let filtered_stderr = String::from_utf8_lossy(&filtered.stderr);
    let filtered_lines = filtered_stderr.lines().count();
    assert!(filtered_lines > 0, "filter must keep matching events");
    assert!(filtered_lines < all_lines, "filter must drop non-matching events");
    for line in filtered_stderr.lines() {
        assert!(line.contains("import"), "{line}");
    }
}

/// Parses a `--trace-out` file and returns its traceEvents array,
/// validating the fields every Chrome trace viewer requires.
fn read_trace(path: &std::path::Path) -> Vec<maya::core::json::Json> {
    use maya::core::json::{parse_json, Json};
    let text = std::fs::read_to_string(path).expect("trace file written");
    let doc = parse_json(&text).expect("trace must be valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array")
        .to_vec();
    for e in &events {
        assert_eq!(e.get("ph").and_then(Json::as_str), Some("X"), "complete events only");
        assert!(e.get("name").and_then(Json::as_str).is_some());
        assert!(e.get("ts").is_some() && e.get("dur").is_some());
        assert!(e.get("pid").and_then(Json::as_u64).is_some());
        assert!(e.get("tid").and_then(Json::as_u64).is_some());
    }
    events
}

fn trace_names(events: &[maya::core::json::Json]) -> Vec<String> {
    use maya::core::json::Json;
    events
        .iter()
        .filter_map(|e| e.get("name").and_then(Json::as_str).map(str::to_owned))
        .collect()
}

#[test]
fn trace_out_writes_chrome_trace() {
    let f = write_temp("trace.maya", HELLO);
    let trace = f.parent().unwrap().join("trace-out/pipeline.json");
    let out = mayac()
        .arg(format!("--trace-out={}", trace.display()))
        .arg(&f)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(String::from_utf8_lossy(&out.stdout), "obs\n");
    assert_eq!(String::from_utf8_lossy(&out.stderr), "", "trace mode keeps stderr clean");
    let events = read_trace(&trace);
    let names = trace_names(&events);
    for want in ["lex_file", "parse", "interp"] {
        assert!(names.iter().any(|n| n == want), "missing {want:?} in {names:?}");
    }
}

#[test]
fn trace_out_merges_worker_threads_under_jobs() {
    // Two files lexed on two workers: the merged trace must still carry
    // one lex_file event per file (satellite: absorb splices span trees).
    let a = write_temp(
        "jobs_a.maya",
        r#"class Helper { static int twice(int n) { return n * 2; } }"#,
    );
    let b = write_temp(
        "jobs_b.maya",
        r#"class Main { static void main() { System.out.println(Helper.twice(21)); } }"#,
    );
    let trace = a.parent().unwrap().join("trace-jobs.json");
    let out = mayac()
        .arg("--jobs=2")
        .arg(format!("--trace-out={}", trace.display()))
        .arg(&a)
        .arg(&b)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(String::from_utf8_lossy(&out.stdout), "42\n");
    let events = read_trace(&trace);
    let lexes = trace_names(&events).iter().filter(|n| *n == "lex_file").count();
    assert_eq!(lexes, 2, "one lex_file event per input file");
}

#[test]
fn time_passes_tree_prints_nested_spans() {
    let f = write_temp("tree.maya", HELLO);
    let out = mayac().arg("--time-passes=tree").arg(&f).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(String::from_utf8_lossy(&out.stdout), "obs\n");
    let stderr = String::from_utf8_lossy(&out.stderr);
    for needle in ["span", "calls", "total", "self", "total (wall)"] {
        assert!(stderr.contains(needle), "missing {needle:?} in:\n{stderr}");
    }
    // Nesting shows as two-space indentation under a parent span.
    assert!(
        stderr.lines().any(|l| l.starts_with("  ") && !l.trim().is_empty()),
        "tree mode must indent child spans:\n{stderr}"
    );
}

#[test]
fn profile_interp_reports_hot_methods() {
    let f = write_temp(
        "prof.maya",
        r#"
        class Main {
            static int fib(int n) { return n < 2 ? n : fib(n - 1) + fib(n - 2); }
            static void main() { System.out.println(fib(12)); }
        }
        "#,
    );
    let out = mayac().arg("--profile-interp=5").arg(&f).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(String::from_utf8_lossy(&out.stdout), "144\n");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("interpreter profile (top 5)"), "{stderr}");
    assert!(stderr.contains("Main.fib/1"), "{stderr}");
    assert!(stderr.contains("call sites (inline caches)"), "{stderr}");
    assert!(stderr.contains("hot binary-op pairs"), "{stderr}");
}

#[test]
fn bad_flags_error_cleanly() {
    let cases: &[&[&str]] = &[
        &["--stats=", "x.maya"],
        &["--bogus", "x.maya"],
        &["-use"],
        &["--main"],
        &["--trace-out=", "x.maya"],
        &["--time-passes=bogus", "x.maya"],
        &["--profile-interp=0", "x.maya"],
        &[],
    ];
    for args in cases {
        let out = mayac().args(*args).output().unwrap();
        assert!(!out.status.success(), "args {args:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("mayac:"), "args {args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "args {args:?}: {stderr}");
    }
}

#[test]
fn errors_carry_source_locations() {
    let f = write_temp("loc.maya", "class Main { static void main() { int x = ; } }");
    let out = mayac().arg(&f).output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    // file:line:col rendering via the source map.
    assert!(stderr.contains("loc.maya:1:"), "{stderr}");
}

#[test]
fn stats_file_creates_missing_parent_dirs() {
    let f = write_temp(
        "statdir.maya",
        r#"class Main { static void main() { System.out.println("s"); } }"#,
    );
    let stats = f
        .parent()
        .unwrap()
        .join("deep/nested/dirs")
        .join("stats.json");
    let out = mayac()
        .arg(format!("--stats={}", stats.display()))
        .arg(&f)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let body = std::fs::read_to_string(&stats).expect("stats file written under created dirs");
    assert!(body.contains("\"counters\""), "{body}");
}

#[test]
fn table_cache_creates_missing_parent_dirs() {
    let f = write_temp(
        "cachedir.maya",
        r#"class Main { static void main() { System.out.println("c"); } }"#,
    );
    let cache = f.parent().unwrap().join("cache/goes/here");
    let out = mayac()
        .arg(format!("--cache-dir={}", cache.display()))
        .arg(&f)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(cache.is_dir(), "--cache-dir must create the directory tree");
    let entries = std::fs::read_dir(&cache).unwrap().count();
    assert!(entries >= 1, "at least one LALR table should be cached on disk");

    // The retired `--table-cache=` alias is an unknown option now.
    let out = mayac()
        .arg(format!("--table-cache={}", cache.display()))
        .arg(&f)
        .output()
        .unwrap();
    assert!(!out.status.success(), "--table-cache= must be rejected");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown option --table-cache="), "{err}");
    assert!(err.contains("usage:"), "{err}");
}

#[test]
fn mayad_shutdown_drains_inflight_requests_and_cleans_up() {
    use maya::core::json::{parse_json, Json};
    use std::io::{BufRead as _, BufReader, Write as _};
    use std::os::unix::net::UnixStream;

    let dir = std::env::temp_dir().join(format!("mayad-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("p.maya"),
        r#"class Main { static void main() { System.out.println("drained"); } }"#,
    )
    .unwrap();
    let sock = dir.join("mayad.sock");
    let stats = dir.join("stats/out.json");
    let mut child = Command::new(env!("CARGO_BIN_EXE_mayad"))
        .current_dir(&dir)
        .arg(format!("--socket={}", sock.display()))
        .arg(format!("--stats={}", stats.display()))
        .arg("--workers=2")
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();
    let mut conn_a = None;
    for _ in 0..400 {
        if let Ok(s) = UnixStream::connect(&sock) {
            conn_a = Some(s);
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    let mut conn_a = conn_a.expect("mayad did not come up");

    // Connection A pipelines a slow request plus a compile and does NOT
    // read the replies yet.
    conn_a
        .write_all(b"{\"cmd\":\"sleep\",\"ms\":500}\n{\"files\":[\"p.maya\"]}\n")
        .unwrap();
    std::thread::sleep(std::time::Duration::from_millis(50));

    // Connection B orders a shutdown while A's requests are in flight.
    let mut conn_b = UnixStream::connect(&sock).unwrap();
    conn_b.write_all(b"{\"cmd\":\"shutdown\"}\n").unwrap();
    let mut bye = String::new();
    BufReader::new(conn_b).read_line(&mut bye).unwrap();
    assert!(bye.contains("\"bye\""), "shutdown must be acknowledged: {bye}");

    // Shutdown drains: A still receives both real replies, in order.
    let mut reader = BufReader::new(conn_a);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let slept = parse_json(&line).unwrap();
    assert_eq!(slept.get("ok").and_then(Json::as_bool), Some(true), "{line}");
    assert_eq!(slept.get("slept_ms").and_then(Json::as_u64), Some(500), "{line}");
    line.clear();
    reader.read_line(&mut line).unwrap();
    let compiled = parse_json(&line).unwrap();
    assert_eq!(compiled.get("ok").and_then(Json::as_bool), Some(true), "{line}");
    assert_eq!(compiled.get("success").and_then(Json::as_bool), Some(true), "{line}");
    assert_eq!(compiled.get("stdout").and_then(Json::as_str), Some("drained\n"), "{line}");

    // Clean exit: success status, socket removed, stats file written.
    let status = child.wait().unwrap();
    assert!(status.success(), "mayad must exit zero after shutdown");
    assert!(!sock.exists(), "socket file must be removed on shutdown");
    let doc = std::fs::read_to_string(&stats).expect("stats file written under created dirs");
    let parsed = parse_json(&doc).expect("stats file must be valid JSON");
    assert_eq!(
        parsed.get("schema").and_then(Json::as_str),
        Some("maya-telemetry/1"),
        "{doc}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn watch_flag_is_accepted_in_usage() {
    // `--watch` never exits on its own, so only pin that the usage string
    // advertises it (a bad flag prints usage and fails).
    let out = mayac().arg("--definitely-bogus").output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--watch"), "usage must mention --watch: {stderr}");
}

#[test]
fn watch_survives_delete_and_detects_recreation() {
    use std::io::Read as _;
    use std::sync::{Arc, Mutex};

    let dir = std::env::temp_dir().join(format!("mayac-watch-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let f = dir.join("watched.maya");
    std::fs::write(&f, r#"class Main { static void main() { System.out.println("one"); } }"#)
        .unwrap();

    let mut child = mayac()
        .current_dir(&dir)
        .arg("--watch")
        .arg("watched.maya")
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();

    // Drain both pipes into shared buffers so the child never blocks.
    let collect = |mut pipe: Box<dyn std::io::Read + Send>| {
        let buf = Arc::new(Mutex::new(String::new()));
        let b = buf.clone();
        std::thread::spawn(move || {
            let mut chunk = [0u8; 1024];
            while let Ok(n) = pipe.read(&mut chunk) {
                if n == 0 {
                    break;
                }
                b.lock().unwrap().push_str(&String::from_utf8_lossy(&chunk[..n]));
            }
        });
        buf
    };
    let stdout = collect(Box::new(child.stdout.take().unwrap()));
    let stderr = collect(Box::new(child.stderr.take().unwrap()));
    let wait_for = |buf: &Arc<Mutex<String>>, needle: &str, secs: u64| {
        for _ in 0..secs * 20 {
            if buf.lock().unwrap().contains(needle) {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
        panic!(
            "timed out waiting for {needle:?}\n-- stdout --\n{}\n-- stderr --\n{}",
            stdout.lock().unwrap(),
            stderr.lock().unwrap()
        );
    };

    // Round 1: the initial build runs the program.
    wait_for(&stdout, "one", 20);
    wait_for(&stderr, "round 1: ok", 20);

    // Delete the file and leave it deleted: after the grace window the
    // watcher says so and rebuilds without it (a diagnostic, not a hang
    // or an exit).
    std::fs::remove_file(&f).unwrap();
    wait_for(&stderr, "disappeared and did not come back", 20);
    wait_for(&stderr, "round 2: failed", 20);

    // Re-create the file (new inode): the watcher notices and rebuilds.
    std::fs::write(&f, r#"class Main { static void main() { System.out.println("two"); } }"#)
        .unwrap();
    wait_for(&stdout, "two", 20);

    let _ = child.kill();
    let _ = child.wait();
}
