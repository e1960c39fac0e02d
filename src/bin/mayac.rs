//! `mayac`: the Maya compiler driver (paper Figure 1).
//!
//! Usage:
//!
//! ```text
//! mayac [-use NAME]... [--main CLASS] [--expand] [--dump-bytecode[=METHOD]]
//!       [--max-errors=N] [--error-format=human|json] [--deny-warnings]
//!       [--time-passes[=tree]] [--stats[=FILE]] [--trace-expansion[=FILTER]]
//!       [--trace-out=FILE] [--profile-interp[=N]]
//!       [--jobs=N] [--cache-dir=DIR] [--cache-max-mb=N] [--watch]
//!       FILE...
//! ```
//!
//! Compiles the given MayaJava sources with the macro library and MultiJava
//! registered, then runs `CLASS.main()` (default `Main`). `-use NAME`
//! imports a metaprogram for the whole compilation (the paper's `-use`
//! command-line option, §3.3); `--expand` prints every compiled method
//! body after Mayan expansion; `--dump-bytecode[=METHOD]` disassembles the
//! register bytecode of every forced method (or just METHOD) after the run.
//!
//! Robustness flags (see README.md § Robustness):
//!
//! * `--max-errors=N` — stop reporting after N errors (default 20);
//! * `--error-format=json` — emit diagnostics as one JSON document
//!   (schema `maya-diagnostics/1`) on stderr instead of per-line text;
//! * `--deny-warnings` — exit nonzero when any warning was reported.
//!
//! The driver never aborts on a compiler bug: panics anywhere in the
//! pipeline (including inside Mayan expansion) become internal-compiler-
//! error diagnostics and a clean nonzero exit.
//!
//! Observability flags (see README.md § Observability):
//!
//! * `--time-passes` — per-phase wall-clock table on stderr;
//!   `--time-passes=tree` prints the hierarchical span tree instead
//!   (nested activations, calls, total and self time);
//! * `--stats` — machine-readable counters (schema `maya-telemetry/1`) on
//!   stderr, or to a file with `--stats=FILE` (missing parent directories
//!   are created);
//! * `--trace-expansion` — stream each dispatch/force/import/template
//!   event to stderr as it happens; `--trace-expansion=FILTER` keeps only
//!   events whose kind, target, or detail contains FILTER;
//! * `--trace-out=FILE` — write the compile's span tree as Chrome
//!   trace-event JSON to FILE, loadable in Perfetto or `chrome://tracing`;
//! * `--profile-interp[=N]` — profile the interpreter: top-N methods by
//!   exclusive time, call sites with inline-cache hit rates, and hot
//!   nested binary-op pairs, printed to stderr (default N = 10).
//!
//! Without these flags a successful run writes nothing to stderr.
//!
//! Performance flags (see README.md § Performance):
//!
//! * `--jobs=N` — lex independent source files on N worker threads
//!   (default: available parallelism). Output, diagnostics, and their
//!   order are identical for every N.
//! * `--cache-dir=DIR` — the persistent compilation cache (see README.md
//!   § Persistent compilation cache): LALR tables and whole-request
//!   outcomes are stored under DIR keyed by content hash, so later
//!   *processes* start warm.
//!   The `MAYA_CACHE_DIR` environment variable supplies a default; the
//!   directory (with any missing parents) is created; corrupt or stale
//!   entries are ignored and rebuilt silently.
//! * `--cache-max-mb=N` — size-cap the cache: saves that push past N MB
//!   evict least-recently-used entries automatically.
//!
//! Cache maintenance: `mayac cache stats|gc|clear [--cache-dir=DIR]`
//! prints per-kind entry counts and sizes, evicts to the cap, or empties
//! the store.
//!
//! Incremental mode (see README.md § Incremental compilation):
//!
//! * `--watch` — stay resident after the first compile, poll the input
//!   files, and recompile through the incremental [`Session`] whenever
//!   one changes. Only the downstream cone of the change is rebuilt; a
//!   byte-identical (or token-identical) rewrite rebuilds nothing.
//!   Each round's output is exactly what a cold run would print.
//!   `mayad` offers the same engine as a unix-socket server.

use maya::core::{ErrorFormat, RequestOpts, Session};
use maya::telemetry;
use maya::{CompileOptions, Compiler};
use std::process::ExitCode;
use std::rc::Rc;

#[derive(Default)]
struct Cli {
    uses: Vec<String>,
    files: Vec<String>,
    main_class: Option<String>,
    expand: bool,
    /// `Some("")` = dump all methods; `Some(name)` = filter.
    dump_bytecode: Option<String>,
    max_errors: Option<usize>,
    error_format: ErrorFormat,
    deny_warnings: bool,
    time_passes: bool,
    /// `--time-passes=tree`: print the span tree instead of the flat table.
    time_passes_tree: bool,
    /// `Some(None)` = stats to stderr; `Some(Some(path))` = stats to file.
    stats: Option<Option<String>>,
    /// `Some(filter)`; an empty filter passes everything.
    trace: Option<String>,
    /// Chrome trace-event JSON output file.
    trace_out: Option<String>,
    /// Interpreter profiler: report the top N entries.
    profile_interp: Option<usize>,
    /// Front-end worker threads; `None` = available parallelism.
    jobs: Option<usize>,
    /// Persistent artifact store directory (`--cache-dir`).
    cache_dir: Option<String>,
    /// Automatic-eviction threshold for the store, in megabytes.
    cache_max_mb: Option<u64>,
    /// Stay resident and recompile on change.
    watch: bool,
}

/// The `--cache-dir` in effect: the flag, or the `MAYA_CACHE_DIR`
/// environment default.
fn effective_cache_dir(cli_dir: &Option<String>) -> Option<String> {
    cli_dir
        .clone()
        .or_else(|| std::env::var("MAYA_CACHE_DIR").ok().filter(|d| !d.is_empty()))
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut args = args.peekable();
    while let Some(a) = args.next() {
        match a.as_str() {
            "-use" | "--use" => match args.next() {
                Some(n) => cli.uses.push(n),
                None => return Err("missing name after -use".into()),
            },
            "--main" => match args.next() {
                Some(n) => cli.main_class = Some(n),
                None => return Err("missing class after --main".into()),
            },
            "--expand" => cli.expand = true,
            "--dump-bytecode" => cli.dump_bytecode = Some(String::new()),
            "--deny-warnings" => cli.deny_warnings = true,
            "--time-passes" => cli.time_passes = true,
            "--time-passes=tree" => {
                cli.time_passes = true;
                cli.time_passes_tree = true;
            }
            "--stats" => cli.stats = Some(None),
            "--trace-expansion" => cli.trace = Some(String::new()),
            "--profile-interp" => cli.profile_interp = Some(10),
            "--watch" => cli.watch = true,
            "-h" | "--help" => return Err(String::new()),
            other => {
                if let Some(name) = other.strip_prefix("--dump-bytecode=") {
                    if name.is_empty() {
                        return Err("missing method after --dump-bytecode=".into());
                    }
                    cli.dump_bytecode = Some(name.to_owned());
                } else if let Some(path) = other.strip_prefix("--stats=") {
                    if path.is_empty() {
                        return Err("missing file after --stats=".into());
                    }
                    cli.stats = Some(Some(path.to_owned()));
                } else if let Some(filter) = other.strip_prefix("--trace-expansion=") {
                    cli.trace = Some(filter.to_owned());
                } else if let Some(path) = other.strip_prefix("--trace-out=") {
                    if path.is_empty() {
                        return Err("missing file after --trace-out=".into());
                    }
                    cli.trace_out = Some(path.to_owned());
                } else if let Some(n) = other.strip_prefix("--profile-interp=") {
                    match n.parse::<usize>() {
                        Ok(n) if n > 0 => cli.profile_interp = Some(n),
                        _ => return Err(format!("invalid --profile-interp value {n:?}")),
                    }
                } else if let Some(mode) = other.strip_prefix("--time-passes=") {
                    return Err(format!("unknown --time-passes mode {mode:?} (try tree)"));
                } else if let Some(n) = other.strip_prefix("--max-errors=") {
                    match n.parse::<usize>() {
                        Ok(n) if n > 0 => cli.max_errors = Some(n),
                        _ => return Err(format!("invalid --max-errors value {n:?}")),
                    }
                } else if let Some(n) = other.strip_prefix("--jobs=") {
                    match n.parse::<usize>() {
                        Ok(n) if n > 0 => cli.jobs = Some(n),
                        _ => return Err(format!("invalid --jobs value {n:?}")),
                    }
                } else if let Some(dir) = other.strip_prefix("--cache-dir=") {
                    if dir.is_empty() {
                        return Err("missing directory after --cache-dir=".into());
                    }
                    cli.cache_dir = Some(dir.to_owned());
                } else if let Some(n) = other.strip_prefix("--cache-max-mb=") {
                    match n.parse::<u64>() {
                        Ok(n) if n > 0 => cli.cache_max_mb = Some(n),
                        _ => return Err(format!("invalid --cache-max-mb value {n:?}")),
                    }
                } else if let Some(fmt) = other.strip_prefix("--error-format=") {
                    cli.error_format = match fmt {
                        "human" => ErrorFormat::Human,
                        "json" => ErrorFormat::Json,
                        _ => return Err(format!("unknown error format {fmt:?}")),
                    };
                } else if !other.starts_with('-') {
                    cli.files.push(other.to_owned());
                } else {
                    return Err(format!("unknown option {other}"));
                }
            }
        }
    }
    if cli.files.is_empty() {
        return Err("no input files".into());
    }
    Ok(cli)
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

fn request_opts(cli: &Cli) -> RequestOpts {
    RequestOpts {
        uses: cli.uses.clone(),
        main_class: cli.main_class.clone().unwrap_or_else(|| "Main".to_owned()),
        run: true,
        expand: cli.expand,
        dump_bytecode: cli.dump_bytecode.clone(),
        error_format: cli.error_format,
        max_errors: cli.max_errors.unwrap_or(20),
        deny_warnings: cli.deny_warnings,
        fuel: None,
    }
}

fn start_telemetry(cli: &Cli) -> Option<telemetry::Session> {
    let telemetry_on = cli.time_passes
        || cli.stats.is_some()
        || cli.trace.is_some()
        || cli.trace_out.is_some()
        || cli.profile_interp.is_some();
    telemetry_on.then(|| {
        telemetry::Session::start(telemetry::Config {
            event_filter: cli.trace.clone().filter(|f| !f.is_empty()),
            sink: cli.trace.is_some().then(|| {
                Rc::new(|e: &telemetry::TraceEvent| eprintln!("mayac: {}", e.render()))
                    as telemetry::TraceSink
            }),
            capture_spans: cli.trace_out.is_some() || cli.time_passes_tree,
            profile_interp: cli.profile_interp,
            ..telemetry::Config::default()
        })
    })
}

/// Emits telemetry output for one compile round. Returns `false` when the
/// stats or trace file could not be written.
fn finish_telemetry(cli: &Cli, session: Option<telemetry::Session>) -> bool {
    let Some(session) = session else { return true };
    let report = session.finish();
    if cli.time_passes_tree {
        eprint!("{}", report.time_passes_tree());
    } else if cli.time_passes {
        eprint!("{}", report.time_passes_table());
    }
    if let Some(profile) = &report.interp_profile {
        eprint!("{}", profile.render());
    }
    let mut ok = true;
    if let Some(path) = &cli.trace_out {
        if let Err(e) = write_creating_dirs(path, &report.chrome_trace_json()) {
            eprintln!("mayac: cannot write {path}: {e}");
            ok = false;
        }
    }
    match &cli.stats {
        Some(Some(path)) => {
            if let Err(e) = write_creating_dirs(path, &report.to_json()) {
                eprintln!("mayac: cannot write {path}: {e}");
                ok = false;
            }
        }
        Some(None) => eprint!("{}", report.to_json()),
        None => {}
    }
    ok
}

/// Fallback eviction cap for `mayac cache gc` when no `--cache-max-mb`
/// is given.
const DEFAULT_CACHE_MAX_MB: u64 = 512;

/// `mayac cache stats|gc|clear`: maintenance on the persistent store.
/// Runs against `--cache-dir` / `$MAYA_CACHE_DIR`.
fn cache_command(args: &[String]) -> ExitCode {
    let mut action = None;
    let mut dir = None;
    let mut max_mb = None;
    for a in args {
        if let Some(d) = a.strip_prefix("--cache-dir=") {
            dir = Some(d.to_owned());
        } else if let Some(n) = a.strip_prefix("--cache-max-mb=") {
            match n.parse::<u64>() {
                Ok(n) if n > 0 => max_mb = Some(n),
                _ => return usage(&format!("invalid --cache-max-mb value {n:?}")),
            }
        } else if action.is_none() && !a.starts_with('-') {
            action = Some(a.as_str());
        } else {
            return usage(&format!("unexpected cache argument {a:?}"));
        }
    }
    let Some(action) = action else {
        return usage("cache needs an action: stats, gc, or clear");
    };
    let Some(dir) = effective_cache_dir(&dir) else {
        return usage("cache needs --cache-dir=DIR (or MAYA_CACHE_DIR)");
    };
    let store = match maya::core::store::ArtifactStore::open(std::path::Path::new(&dir), max_mb) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("mayac: cannot open cache {dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match action {
        "stats" => {
            let stats = store.stats();
            let (mut entries, mut bytes) = (0u64, 0u64);
            for (kind, s) in &stats {
                println!("{:<10} {:>8} entries {:>12} bytes", kind.label(), s.entries, s.bytes);
                entries += s.entries;
                bytes += s.bytes;
            }
            println!("{:<10} {entries:>8} entries {bytes:>12} bytes", "total");
        }
        "gc" => {
            let cap = max_mb.unwrap_or(DEFAULT_CACHE_MAX_MB) * 1024 * 1024;
            let (evicted, freed) = store.gc(cap);
            let kept: u64 = store.stats().iter().map(|(_, s)| s.bytes).sum();
            println!("evicted {evicted} entries ({freed} bytes), kept {kept} bytes (cap {cap})");
        }
        "clear" => {
            let removed = store.clear();
            println!("removed {removed} entries");
        }
        other => return usage(&format!("unknown cache action {other:?}")),
    }
    ExitCode::SUCCESS
}

/// Opens the persistent store (if configured) and installs it on this
/// thread. Open failure only disables the cache, exactly like any later
/// cache-write failure.
fn install_store(cli: &Cli) {
    if let Some(dir) = effective_cache_dir(&cli.cache_dir) {
        match maya::core::store::ArtifactStore::open(std::path::Path::new(&dir), cli.cache_max_mb) {
            Ok(store) => maya::core::store::install_thread(Some(store)),
            Err(e) => eprintln!("mayac: cache disabled, cannot open {dir}: {e}"),
        }
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("cache") {
        return cache_command(&raw[1..]);
    }
    let cli = match parse_args(raw.into_iter()) {
        Ok(cli) => cli,
        Err(e) => return usage(&e),
    };

    install_store(&cli);
    let jobs = cli.jobs.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    });
    let installer = Rc::new(|c: &Compiler| {
        maya::macrolib::install(c);
        maya::multijava::install(c);
    }) as Rc<dyn Fn(&Compiler)>;
    let mut session = Session::new(
        CompileOptions {
            echo_output: false,
            jobs,
            ..CompileOptions::default()
        },
        Some(installer),
    );
    let opts = request_opts(&cli);

    if cli.watch {
        return watch(&mut session, &cli, &opts);
    }

    let tsession = start_telemetry(&cli);
    let outcome = session.compile(&cli.files, &opts);
    // Telemetry output is emitted even when compilation fails: a phase
    // table for a failing run is still a phase table.
    let stats_ok = finish_telemetry(&cli, tsession);
    eprint!("{}", outcome.stderr);
    if !stats_ok {
        return ExitCode::FAILURE;
    }
    if !outcome.success {
        return ExitCode::FAILURE;
    }
    print!("{}", outcome.stdout);
    ExitCode::SUCCESS
}

/// `--watch`: compile, then poll the inputs (mtime + size + inode at
/// 200ms) and recompile through the same [`Session`] on every change.
/// Each round prints exactly what a cold run would, preceded by a
/// `mayac: [watch]` status line on stderr. A file deleted and re-created
/// between polls is detected by its inode; one that stays deleted gets a
/// grace window, then a diagnostic and a rebuild without it.
fn watch(session: &mut Session, cli: &Cli, opts: &RequestOpts) -> ExitCode {
    use std::io::Write as _;
    let mut round = 0u64;
    loop {
        round += 1;
        let tsession = start_telemetry(cli);
        let outcome = session.compile(&cli.files, opts);
        finish_telemetry(cli, tsession);
        eprint!("{}", outcome.stderr);
        if outcome.success {
            print!("{}", outcome.stdout);
        }
        let _ = std::io::stdout().flush();
        eprintln!(
            "mayac: [watch] round {round}: {} ({} changed, {} recompiled, {} reused{})",
            if outcome.success { "ok" } else { "failed" },
            outcome.files_changed,
            outcome.files_recompiled,
            outcome.files_reused,
            if outcome.full_reuse { ", full reuse" } else { "" },
        );
        let baseline = fingerprint(&cli.files);
        // Editors commonly save by delete-then-create (or rename-over), so
        // a file vanishing between polls is usually transient. Give each
        // disappeared file a short grace window before rebuilding: if it
        // reappears unchanged nothing happens, if it reappears changed the
        // inode in the fingerprint catches it even when (mtime, size)
        // round-trips identically, and if it stays gone we say so once and
        // rebuild (the read error becomes an ordinary diagnostic while the
        // file keeps being watched for re-creation).
        const GRACE_POLLS: u32 = 10; // × 200ms = 2s
        let mut missing_polls = vec![0u32; cli.files.len()];
        'poll: loop {
            std::thread::sleep(std::time::Duration::from_millis(200));
            let now = fingerprint(&cli.files);
            if now == baseline {
                missing_polls.iter_mut().for_each(|p| *p = 0);
                continue;
            }
            for (i, (b, n)) in baseline.iter().zip(now.iter()).enumerate() {
                if b.is_some() && n.is_none() {
                    missing_polls[i] += 1;
                    if missing_polls[i] == GRACE_POLLS {
                        eprintln!(
                            "mayac: [watch] {} disappeared and did not come back; \
                             rebuilding without it (still watching for re-creation)",
                            cli.files[i]
                        );
                        break 'poll;
                    }
                } else if n != b {
                    // Changed, appeared, or re-created (new inode even if
                    // mtime and size happen to match).
                    break 'poll;
                }
            }
        }
    }
}

/// A cheap change fingerprint: (mtime, size, inode) per file; unreadable
/// files fingerprint as `None` so appearing/disappearing also triggers,
/// and the inode distinguishes a re-created file from the original even
/// when (mtime, size) collide.
fn fingerprint(files: &[String]) -> Vec<Option<(std::time::SystemTime, u64, u64)>> {
    use std::os::unix::fs::MetadataExt as _;
    files
        .iter()
        .map(|f| {
            std::fs::metadata(f)
                .ok()
                .and_then(|m| m.modified().ok().map(|t| (t, m.len(), m.ino())))
        })
        .collect()
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("mayac: {err}");
    }
    eprintln!(
        "usage: mayac [-use NAME]... [--main CLASS] [--expand] [--dump-bytecode[=METHOD]]\n\
         \x20            [--max-errors=N] [--error-format=human|json] [--deny-warnings]\n\
         \x20            [--time-passes[=tree]] [--stats[=FILE]] [--trace-expansion[=FILTER]]\n\
         \x20            [--trace-out=FILE] [--profile-interp[=N]]\n\
         \x20            [--jobs=N] [--cache-dir=DIR] [--cache-max-mb=N] [--watch] FILE...\n\
         \x20      mayac cache stats|gc|clear [--cache-dir=DIR] [--cache-max-mb=N]\n\
         \x20\n\
         \x20      MAYA_CACHE_DIR supplies a default cache directory."
    );
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
