//! Flat memory over an edit stream: a warm `Session` set up like a `mayad`
//! worker answers seeded one-file edits of a multi-file project, and the
//! number of live heap blocks late in the stream stays within a fixed
//! slack of the number early in it. Each request frees its compiler, and
//! the session caches keep a constant multiple of their live entries.
//!
//! The allocator below counts every allocation and free in this test
//! binary, which is why it holds a single test.

use maya::telemetry::{cache_stats, CacheId};
use maya::{CompileOptions, Compiler, RequestOpts, Session};
use std::alloc::{GlobalAlloc, Layout, System};
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static FREES: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREES.fetch_add(1, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn live_blocks() -> usize {
    ALLOCS.load(Ordering::Relaxed) - FREES.load(Ordering::Relaxed)
}

const CLASSES: usize = 10;
/// Method bodies per class file (`id`, `m0`..`m3`, `pad`).
const METHODS: usize = 6;
const EDITS: usize = 60;
const EARLY: usize = 15;
/// Allowed growth in live blocks between edits `EARLY` and `EDITS`. Two
/// process-global tables legitimately grow over this stream: the interner
/// keeps every new literal, and the lex share keeps each edited file's
/// trees until it reaches its cap and clears (about 17 blocks per edit
/// together). Keeping each request's compiler alive adds over 1,000
/// blocks per edit of this project.
const SLACK_BLOCKS: usize = 2_000;

fn class_src(i: usize, pad: u64) -> String {
    let mut s = format!("class K{i} {{\n    int id() {{ return {}; }}\n", i + 1);
    for m in 0..4 {
        s.push_str(&format!(
            "    int m{m}(int a) {{ int t = a * {m} + id(); return t - a; }}\n"
        ));
    }
    s.push_str(&format!("    int pad() {{ return {pad}; }}\n}}\n"));
    s
}

fn main_src() -> String {
    let terms: Vec<String> = (0..CLASSES).map(|i| format!("new K{i}().id()")).collect();
    format!(
        "class Main {{\n    static void main() {{\n        System.out.println({});\n    }}\n}}\n",
        terms.join(" + ")
    )
}

#[test]
fn warm_session_memory_stays_flat_over_an_edit_stream() {
    std::thread::spawn(|| {
        // A `mayad` worker thread: shared table memo and lex share, the
        // native extensions installed on every compiler.
        maya::grammar::set_table_cache_shared(true);
        maya::core::set_lex_share_enabled(true);
        let installer = Rc::new(|c: &Compiler| {
            maya::macrolib::install(c);
            maya::multijava::install(c);
        }) as Rc<dyn Fn(&Compiler)>;
        let mut session = Session::new(
            CompileOptions {
                echo_output: false,
                jobs: 1,
                ..CompileOptions::default()
            },
            Some(installer),
        );
        let opts = RequestOpts::default();
        let mut sources: Vec<(String, String)> = (0..CLASSES)
            .map(|i| (format!("k{i:02}.maya"), class_src(i, 0)))
            .collect();
        sources.push(("main.maya".to_owned(), main_src()));
        let expected = format!("{}\n", (1..=CLASSES).sum::<usize>());
        assert_eq!(session.compile_sources(&sources, &opts).stdout, expected);

        let mut rng = 0x2545_f491_4f6c_dd1du64;
        let mut early = 0;
        for edit in 1..=EDITS {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let i = (rng % CLASSES as u64) as usize;
            sources[i].1 = class_src(i, edit as u64);
            let out = session.compile_sources(&sources, &opts);
            assert!(out.success, "edit {edit}: {}", out.stderr);
            assert_eq!(out.stdout, expected);
            assert_eq!(out.files_recompiled, 1, "edit {edit} recompiles one file");
            if edit == EARLY {
                early = live_blocks();
            }
        }
        let late = live_blocks();
        assert!(
            late <= early + SLACK_BLOCKS,
            "live heap blocks grew from {early} to {late} over {} edits",
            EDITS - EARLY
        );

        // Live entries: every method body, class body and file is a pure
        // parse touched by every request.
        let files = CLASSES + 1;
        for (id, live) in [
            (CacheId::ForceCache, CLASSES * METHODS + 1),
            (CacheId::UnitCache, files),
            (CacheId::ClassBodyCache, files),
        ] {
            let s = cache_stats(id);
            assert!(
                s.size as usize <= 2 * live,
                "{}: {} entries for {live} live ones",
                id.name(),
                s.size
            );
            assert!(s.evictions > 0, "{}: nothing was evicted", id.name());
        }
    })
    .join()
    .unwrap();
}
