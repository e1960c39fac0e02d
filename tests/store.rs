//! The persistent compilation cache (`--cache-dir`): every artifact kind
//! round-trips through real `mayac` processes, the base grammar's tables
//! (compiled in) are never stored, an unedited program replays its
//! outcome without lexing, an edited program (a same-length comment edit
//! included) misses only its outcome, corrupt, future-versioned and
//! other-build entries are
//! silently rebuilt, `mayac cache stats|gc|clear` maintain the directory
//! (deleting the retired `.lex` and `.body` kinds), and four concurrent
//! processes can hammer one store without corrupting it or each other's
//! output.

use std::path::{Path, PathBuf};
use std::process::Command;

use maya::core::json::{parse_json, Json};
use maya::core::store::{ArtifactStore, Kind};

fn mayac() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mayac"))
}

/// A per-test scratch directory (removed and recreated on entry).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("maya-store-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A program with a loop and calls; a run persists both artifact kinds:
/// tables and the outcome.
const LOOPY: &str = r#"class Main {
    static int triple(int n) { return n * 3; }
    static void main() {
        int sum = 0;
        for (int i = 0; i < 5; i = i + 1) { sum = sum + triple(i); }
        System.out.println(sum);
    }
}
"#;

/// LOOPY's sum under an imported extension: a run also persists the
/// extended grammar's tables (the base grammar's are compiled in).
const EXTENDED: &str = r#"class Main {
    static int triple(int n) { return n * 3; }
    static void main() {
        int sum = 0;
        for (int i = 0; i < 5; i = i + 1) { sum = sum + triple(i); }
        use Assert;
        assert(sum == 30);
        System.out.println(sum);
    }
}
"#;

fn run_mayac(file: &Path, cache: &Path) -> (bool, Vec<u8>, Vec<u8>) {
    let out = mayac()
        .arg(format!("--cache-dir={}", cache.display()))
        .arg(file)
        .env_remove("MAYA_CACHE_DIR")
        .output()
        .unwrap();
    (out.status.success(), out.stdout, out.stderr)
}

fn entries_with_ext(cache: &Path, ext: &str) -> Vec<PathBuf> {
    std::fs::read_dir(cache)
        .unwrap()
        .filter_map(|e| {
            let p = e.unwrap().path();
            (p.extension().and_then(|e| e.to_str()) == Some(ext)).then_some(p)
        })
        .collect()
}

/// Every entry in the store, by file name, with its bytes.
fn snapshot(cache: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(cache)
        .unwrap()
        .map(|e| {
            let p = e.unwrap().path();
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&p).unwrap())
        })
        .collect();
    out.sort();
    out
}

#[test]
fn every_artifact_kind_round_trips_through_real_processes() {
    let dir = scratch("kinds");
    let cache = dir.join("cache");
    let file = dir.join("extended.maya");
    std::fs::write(&file, EXTENDED).unwrap();

    let cold = run_mayac(&file, &cache);
    assert!(cold.0, "{}", String::from_utf8_lossy(&cold.2));
    assert_eq!(cold.1, b"30\n");
    for kind in Kind::ALL {
        assert!(
            !entries_with_ext(&cache, kind.ext()).is_empty(),
            "a run must persist at least one {} artifact",
            kind.label()
        );
    }

    // A second cold process hydrates from the store, byte-identical.
    let warm = run_mayac(&file, &cache);
    assert_eq!(warm, cold, "warm-store run must be byte-identical");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_and_bit_flipped_entries_are_silently_rebuilt() {
    let dir = scratch("corrupt");
    let cache = dir.join("cache");
    let file = dir.join("loopy.maya");
    std::fs::write(&file, EXTENDED).unwrap();
    let cold = run_mayac(&file, &cache);
    assert!(cold.0);

    // Truncate every entry to half its size.
    for p in std::fs::read_dir(&cache).unwrap().map(|e| e.unwrap().path()) {
        let bytes = std::fs::read(&p).unwrap();
        std::fs::write(&p, &bytes[..bytes.len() / 2]).unwrap();
    }
    let after_truncation = run_mayac(&file, &cache);
    assert_eq!(after_truncation, cold, "truncated entries must be rebuilt silently");

    // Flip one payload bit in every (freshly rewritten) entry.
    for p in std::fs::read_dir(&cache).unwrap().map(|e| e.unwrap().path()) {
        let mut bytes = std::fs::read(&p).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&p, &bytes).unwrap();
    }
    let after_flip = run_mayac(&file, &cache);
    assert_eq!(after_flip, cold, "bit-flipped entries must be rebuilt silently");

    // The rebuild repaired the store: a further run serves from it again.
    let repaired = run_mayac(&file, &cache);
    assert_eq!(repaired, cold);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Mirrors the store's checksum so the test can re-seal an entry after
/// editing its header (isolating the version check from the checksum).
fn reseal(bytes: &mut Vec<u8>) {
    bytes.truncate(bytes.len() - 8);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes.iter() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    let sum = h.to_le_bytes();
    bytes.extend_from_slice(&sum);
}

#[test]
fn future_format_version_is_silently_invalidated() {
    let dir = scratch("version");
    let cache = dir.join("cache");
    let file = dir.join("loopy.maya");
    std::fs::write(&file, EXTENDED).unwrap();
    let cold = run_mayac(&file, &cache);
    assert!(cold.0);

    // Rewrite every entry as if a future mayac (format version + 1) had
    // written it, with a *valid* checksum: the version field alone must
    // make this process treat the entry as a miss and rebuild.
    for p in std::fs::read_dir(&cache).unwrap().map(|e| e.unwrap().path()) {
        let mut bytes = std::fs::read(&p).unwrap();
        let ver = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        bytes[8..12].copy_from_slice(&(ver + 1).to_le_bytes());
        reseal(&mut bytes);
        std::fs::write(&p, &bytes).unwrap();
    }
    let rebuilt = run_mayac(&file, &cache);
    assert_eq!(rebuilt, cold, "future-versioned entries must rebuild silently");

    // ... and the rewrite downgraded them back to the current version.
    for p in std::fs::read_dir(&cache).unwrap().map(|e| e.unwrap().path()) {
        let bytes = std::fs::read(&p).unwrap();
        assert_eq!(&bytes[..8], b"MAYASTOR");
        assert_eq!(u32::from_le_bytes(bytes[8..12].try_into().unwrap()), 2);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn entries_from_another_build_rebuild_byte_identically() {
    let dir = scratch("build");
    let cache = dir.join("cache");
    let file = dir.join("loopy.maya");
    std::fs::write(&file, EXTENDED).unwrap();
    let cold = run_mayac(&file, &cache);
    assert!(cold.0);
    let written = snapshot(&cache);

    // Re-stamp every entry with another build id (the u64 after the
    // format version) and re-seal it, as if another compiler build had
    // written it.
    for (name, bytes) in &written {
        let mut bytes = bytes.clone();
        for b in &mut bytes[12..20] {
            *b ^= 0xa5;
        }
        reseal(&mut bytes);
        std::fs::write(cache.join(name), &bytes).unwrap();
    }
    let rebuilt = run_mayac(&file, &cache);
    assert_eq!(
        rebuilt, cold,
        "entries from another build must rebuild silently"
    );
    assert_eq!(
        snapshot(&cache),
        written,
        "the rebuild must replace every stale entry with this build's bytes"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_program_of_the_base_grammar_stores_no_tables() {
    let dir = scratch("base");
    let cache = dir.join("cache");
    let file = dir.join("loopy.maya");
    std::fs::write(&file, LOOPY).unwrap();
    let cold = run_mayac(&file, &cache);
    assert!(cold.0, "{}", String::from_utf8_lossy(&cold.2));
    assert!(
        entries_with_ext(&cache, Kind::Tables.ext()).is_empty(),
        "the base grammar's tables are compiled in, never stored"
    );
    assert!(!entries_with_ext(&cache, Kind::Outcome.ext()).is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn edited_program_against_a_warm_store_misses_only_its_outcome() {
    let dir = scratch("edit");
    let cache = dir.join("cache");
    let file = dir.join("extended.maya");
    std::fs::write(&file, EXTENDED).unwrap();
    assert!(run_mayac(&file, &cache).0);

    // The edit the `cli_store` benchmark makes: an empty class appended.
    std::fs::write(&file, format!("{EXTENDED}\nclass ZZEdit1 {{ }}\n")).unwrap();
    let stats = dir.join("stats.json");
    let warm = mayac()
        .arg(format!("--cache-dir={}", cache.display()))
        .arg(format!("--stats={}", stats.display()))
        .arg(&file)
        .env_remove("MAYA_CACHE_DIR")
        .output()
        .unwrap();
    let storeless = mayac()
        .arg(&file)
        .env_remove("MAYA_CACHE_DIR")
        .output()
        .unwrap();
    assert_eq!(warm.status.code(), storeless.status.code());
    assert_eq!(warm.stdout, storeless.stdout);
    assert_eq!(warm.stderr, storeless.stderr);
    assert_eq!(warm.stdout, b"30\n");

    let doc = parse_json(&std::fs::read_to_string(&stats).unwrap()).unwrap();
    assert_eq!(
        gauge(&doc, "store_outcome", "hits"),
        0,
        "the edited program has a new outcome key"
    );
    assert_eq!(
        gauge(&doc, "store_outcome", "misses"),
        1,
        "a fresh process probes the store once, before lexing, and never again"
    );
    assert!(
        gauge(&doc, "store_tables", "hits") >= 1,
        "its grammar's tables come from the store"
    );

    for (name, _) in snapshot(&cache) {
        assert!(
            name.ends_with(".tbl") || name.ends_with(".out"),
            "the store holds only tables and outcomes, found {name}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `mayac` run's exit code, stdout and stderr.
type Run = (Option<i32>, Vec<u8>, Vec<u8>);

/// Runs `mayac --cache-dir=CACHE --stats=STATS FILE`; returns the run and
/// the stats document.
fn run_mayac_stats(file: &Path, cache: &Path, stats: &Path) -> (Run, Json) {
    let out = mayac()
        .arg(format!("--cache-dir={}", cache.display()))
        .arg(format!("--stats={}", stats.display()))
        .arg(file)
        .env_remove("MAYA_CACHE_DIR")
        .output()
        .unwrap();
    let doc = parse_json(&std::fs::read_to_string(stats).unwrap()).unwrap();
    ((out.status.code(), out.stdout, out.stderr), doc)
}

/// `caches.NAME.FIELD` of a stats document.
fn gauge(doc: &Json, cache: &str, field: &str) -> u64 {
    doc.get("caches")
        .and_then(|c| c.get(cache))
        .and_then(|c| c.get(field))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("stats lack caches.{cache}.{field}"))
}

/// `counters.NAME` of a stats document.
fn counter(doc: &Json, name: &str) -> u64 {
    doc.get("counters")
        .and_then(|c| c.get(name))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("stats lack counters.{name}"))
}

#[test]
fn an_unedited_program_replays_its_outcome_without_lexing() {
    let dir = scratch("prelex");
    let cache = dir.join("cache");
    let file = dir.join("extended.maya");
    std::fs::write(&file, EXTENDED).unwrap();
    let (cold, doc) = run_mayac_stats(&file, &cache, &dir.join("cold.json"));
    assert!(counter(&doc, "tokens_lexed") > 0);
    assert_eq!(gauge(&doc, "store_outcome", "misses"), 1);

    let (warm, doc) = run_mayac_stats(&file, &cache, &dir.join("warm.json"));
    assert_eq!(warm, cold, "a replayed outcome is byte-identical");
    assert_eq!(
        counter(&doc, "tokens_lexed"),
        0,
        "the outcome key needs no tokens, so a hit lexes nothing"
    );
    assert_eq!(gauge(&doc, "store_outcome", "hits"), 1);
    assert_eq!(gauge(&doc, "store_outcome", "misses"), 0);
    // The accounting a compile of the same request would report.
    assert_eq!(counter(&doc, "incr_files_changed"), 1);
    assert_eq!(counter(&doc, "incr_files_recompiled"), 1);
    assert_eq!(counter(&doc, "incr_files_reused"), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_same_length_comment_edit_misses_its_outcome_and_rebuilds_byte_identically() {
    let dir = scratch("comment");
    let cache = dir.join("cache");
    let file = dir.join("extended.maya");
    std::fs::write(&file, format!("// revision aaaa\n{EXTENDED}")).unwrap();
    let (cold, _) = run_mayac_stats(&file, &cache, &dir.join("cold.json"));
    assert_eq!(cold.1, b"30\n", "{}", String::from_utf8_lossy(&cold.2));

    // Token-identical, byte-different: the outcome is keyed on raw bytes.
    std::fs::write(&file, format!("// revision bbbb\n{EXTENDED}")).unwrap();
    let (edited, doc) = run_mayac_stats(&file, &cache, &dir.join("edited.json"));
    assert_eq!(gauge(&doc, "store_outcome", "hits"), 0);
    assert_eq!(gauge(&doc, "store_outcome", "misses"), 1);
    assert_eq!(
        edited, cold,
        "the rebuild prints what the first run printed"
    );
    let storeless = mayac()
        .arg(&file)
        .env_remove("MAYA_CACHE_DIR")
        .output()
        .unwrap();
    assert_eq!(
        (storeless.status.code(), storeless.stdout, storeless.stderr),
        edited,
        "and what a run without a store prints"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn retired_lex_and_body_entries_do_not_survive_gc_or_clear() {
    let dir = scratch("retired");
    let cache = dir.join("cache");
    let file = dir.join("loopy.maya");
    std::fs::write(&file, LOOPY).unwrap();
    assert!(run_mayac(&file, &cache).0);
    let live = snapshot(&cache);
    // Entries of the kinds earlier builds stored.
    let plant = || {
        for ext in ["lex", "body"] {
            std::fs::write(cache.join(format!("{:032x}.{ext}", 7)), b"MAYASTOR old").unwrap();
        }
    };
    let cache_cmd = |action: &str| {
        let out = mayac()
            .args(["cache", action, &format!("--cache-dir={}", cache.display())])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    };

    plant();
    cache_cmd("gc");
    assert_eq!(
        snapshot(&cache),
        live,
        "gc must delete retired entries and keep live ones"
    );

    plant();
    cache_cmd("clear");
    assert!(
        snapshot(&cache).is_empty(),
        "clear must delete retired entries too"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_subcommands_report_gc_and_clear_the_store() {
    let dir = scratch("subcommands");
    let cache = dir.join("cache");
    // Oversize the store deterministically: 8 payloads of ~400 KiB.
    let store = ArtifactStore::open(&cache, None).unwrap();
    for i in 0..8u8 {
        store.save(Kind::Outcome, u128::from(i) + 1, &vec![i; 400 * 1024]);
    }
    drop(store);

    let stats = mayac()
        .args(["cache", "stats", &format!("--cache-dir={}", cache.display())])
        .output()
        .unwrap();
    assert!(stats.status.success(), "{}", String::from_utf8_lossy(&stats.stderr));
    let text = String::from_utf8_lossy(&stats.stdout).to_string();
    for label in ["tables", "outcome", "total"] {
        assert!(text.contains(label), "stats must list {label}: {text}");
    }
    assert!(text.contains("8 entries"), "stats must count the 8 outcome entries: {text}");

    // GC to a 1 MB cap: the directory must shrink under the cap (evicting
    // oldest-first) but keep at least one entry.
    let gc = mayac()
        .args([
            "cache",
            "gc",
            &format!("--cache-dir={}", cache.display()),
            "--cache-max-mb=1",
        ])
        .output()
        .unwrap();
    assert!(gc.status.success(), "{}", String::from_utf8_lossy(&gc.stderr));
    let total: u64 = std::fs::read_dir(&cache)
        .unwrap()
        .map(|e| e.unwrap().metadata().unwrap().len())
        .sum();
    assert!(total <= 1024 * 1024, "gc must enforce the cap, left {total} bytes");
    assert!(total > 0, "gc must not empty a store that fits entries under the cap");

    let clear = mayac()
        .args(["cache", "clear", &format!("--cache-dir={}", cache.display())])
        .output()
        .unwrap();
    assert!(clear.status.success());
    let left = std::fs::read_dir(&cache).unwrap().count();
    assert_eq!(left, 0, "clear must empty the store");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn automatic_gc_keeps_the_store_under_cache_max_mb() {
    let dir = scratch("autogc");
    let cache = dir.join("cache");
    // Pre-fill ~4 MB, then open with a 1 MB cap and trigger one save: the
    // automatic sweep must pull the directory back under the cap.
    let filler = ArtifactStore::open(&cache, None).unwrap();
    for i in 0..10u8 {
        filler.save(Kind::Tables, u128::from(i) + 1, &vec![i; 400 * 1024]);
    }
    drop(filler);

    let capped = ArtifactStore::open(&cache, Some(1)).unwrap();
    capped.save(Kind::Outcome, 0xfeed, &[1, 2, 3]);
    let total: u64 = std::fs::read_dir(&cache)
        .unwrap()
        .map(|e| e.unwrap().metadata().unwrap().len())
        .sum();
    assert!(
        total <= 1024 * 1024,
        "a save past --cache-max-mb must trigger the automatic sweep, left {total} bytes"
    );
    assert!(
        capped.load(Kind::Outcome, 0xfeed).is_some(),
        "the just-written entry should survive the sweep"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn four_concurrent_processes_share_one_store() {
    let dir = scratch("stress");
    let cache = dir.join("cache");

    // Four distinct programs plus one shared by everybody, so the
    // processes race on both disjoint and identical keys.
    let shared = dir.join("shared.maya");
    std::fs::write(&shared, LOOPY).unwrap();
    let files: Vec<(PathBuf, String)> = (0..4)
        .map(|i| {
            let f = dir.join(format!("p{i}.maya"));
            std::fs::write(
                &f,
                format!(
                    "class Main {{ static void main() {{ System.out.println(\"proc {i}\"); }} }}"
                ),
            )
            .unwrap();
            (f, format!("proc {i}\n"))
        })
        .collect();

    let threads: Vec<_> = files
        .into_iter()
        .map(|(file, expect)| {
            let cache = cache.clone();
            let shared = shared.clone();
            std::thread::spawn(move || {
                for round in 0..3 {
                    let (ok, stdout, stderr) = run_mayac(&file, &cache);
                    assert!(ok, "round {round}: {}", String::from_utf8_lossy(&stderr));
                    assert_eq!(stdout, expect.as_bytes(), "round {round}");
                    let (ok, stdout, stderr) = run_mayac(&shared, &cache);
                    assert!(ok, "round {round}: {}", String::from_utf8_lossy(&stderr));
                    assert_eq!(stdout, b"30\n", "round {round}");
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }

    // The racing writers left a coherent store: a fresh process still
    // hydrates the shared program from it.
    let (ok, stdout, _) = run_mayac(&shared, &cache);
    assert!(ok);
    assert_eq!(stdout, b"30\n");
    let _ = std::fs::remove_dir_all(&dir);
}
