//! The bytecode refine pass splices short callees inline behind guards: a
//! chain of them at a polymorphic site, and a callee's own splices nested
//! in its copy. These tests pin that the splices are entered — not just
//! emitted — at the call sites that used to fall back on every call:
//! field-reading leaves, static implicit calls, and bodies a session
//! shares across requests, and at chains, nested splices, on-stack
//! switches and their hazards. They read the `bc_inline_entries` /
//! `bc_inline_fallbacks` counters a passing guard or a call that reaches
//! the generic path records.

use std::path::Path;
use std::process::Command;

use maya::telemetry::{self, Counter};
use maya::{CompileOptions, Compiler, RequestOpts, Session};

/// (splice entries, guard fallbacks) of one compile-and-run of `src`.
fn splice_counts(src: &str) -> (u64, u64, String) {
    let s = telemetry::Session::start(telemetry::Config::default());
    let out = Compiler::new()
        .compile_and_run("Main.maya", src, "Main")
        .unwrap();
    let r = s.finish();
    (
        r.counter(Counter::BcInlineEntries),
        r.counter(Counter::BcInlineFallbacks),
        out,
    )
}

#[test]
fn static_implicit_call_sites_enter_their_splice() {
    // `f` runs 10 times: cold for three runs, then refined with `sq`
    // spliced in. Its frame has no `this`, so the guard checks the
    // frame's class; it used to require an object and fall back always.
    let (entries, fallbacks, out) = splice_counts(
        r#"
        class Main {
            static int sq(int x) { return x * x; }
            static int f(int x) { return sq(x) + 1; }
            static void main() {
                int s = 0;
                for (int i = 0; i < 10; i++) { s = s + f(i); }
                System.out.println(s);
            }
        }
        "#,
    );
    assert_eq!(out, "295\n");
    assert_eq!((entries, fallbacks), (7, 0));
}

#[test]
fn a_double_parameter_leaf_splices_with_its_entry_conversion() {
    // `half`'s `double` parameter converts its `int` argument on entry (a
    // `cast` at the top of its bytecode), so `x / 2` divides doubles. The
    // cast must not keep `half` from splicing into the refined `f`, nor
    // be lost by the splice.
    let src = r#"
        class Main {
            static double half(double x) { return x / 2; }
            static double f(int x) { return half(x) + 1; }
            static void main() {
                double s = 0;
                for (int i = 0; i < 10; i++) { s = s + f(i); }
                System.out.println(s);
            }
        }
        "#;
    let (entries, fallbacks, out) = splice_counts(src);
    assert_eq!(out, "32.5\n");
    assert_eq!((entries, fallbacks), (7, 0));
    let walker = Compiler::with_options(CompileOptions {
        echo_output: false,
        jobs: 1,
        ..CompileOptions::default()
    });
    walker.interp().set_lowering(false);
    assert_eq!(
        walker.compile_and_run("Main.maya", src, "Main").unwrap(),
        out
    );
}

#[test]
fn field_reading_leaves_splice_and_resolve_in_the_callees_class() {
    // `Square.area` reads a field and a static by bare name. Spliced into
    // the static `Main.sum`, it must still resolve `k` in `Square`: the
    // caller's class has a static `k` of its own.
    let (entries, fallbacks, out) = splice_counts(
        r#"
        class Square {
            static int k = 3;
            int side;
            int area() { return side * side * k; }
        }
        class Main {
            static int k = 100;
            static int sum(Square s, int n) {
                int acc = 0;
                for (int i = 0; i < n; i++) { acc = acc + s.area(); }
                return acc;
            }
            static void main() {
                Square s = new Square();
                s.side = 2;
                int t = 0;
                for (int r = 0; r < 5; r++) { t = t + sum(s, 4); }
                System.out.println(t + k);
            }
        }
        "#,
    );
    assert_eq!(out, "340\n");
    // `sum` refines on its 4th run: two runs of 4 spliced calls each.
    assert_eq!((entries, fallbacks), (8, 0));
}

#[test]
fn a_splice_with_a_loop_inside_a_constructor_argument_enters() {
    // `sq` has a loop of its own and a constant; spliced into `new P(..)`
    // of a class-typed declaration, it sits at type-stack depth 2 and
    // carries its loop region. `build` refines on its 4th run: three runs
    // of 5 iterations, each entering the `sq` and `q.get` splices.
    let (entries, fallbacks, out) = splice_counts(
        r#"
        class P {
            int v;
            P(int v) { this.v = v; }
        }
        class Q {
            int w;
            Q(int w) { this.w = w; }
            int get() { return w; }
        }
        class Main {
            static int sq(int x) {
                int s = 0;
                int k = 0;
                while (k < x) { s = s + x; k++; }
                return s + 1;
            }
            static int build(Q q, int n) {
                int t = 0;
                for (int i = 0; i < n; i++) {
                    P p = new P(sq(i) + q.get());
                    t = t + p.v;
                }
                return t;
            }
            static void main() {
                Q q = new Q(2);
                int all = 0;
                for (int r = 0; r < 6; r++) { all = all + build(q, 5); }
                System.out.println(all);
            }
        }
        "#,
    );
    assert_eq!(out, "270\n");
    assert_eq!((entries, fallbacks), (30, 0));
}

#[test]
fn continue_past_a_splice_in_a_conditional_arm_keeps_its_target() {
    // The `for` condition calls the leaf `lim`, and the `continue` jumps
    // over a `?:` arm that splices `half`. Per refined run: 9 `lim` entries
    // and 2 `half` entries (i = 2, 4).
    let (entries, fallbacks, out) = splice_counts(
        r#"
        class Main {
            static int lim(int n) { return n; }
            static int half(int x) { return x / 2; }
            static int walk(int n) {
                int s = 0;
                for (int i = 0; i < lim(n); i++) {
                    if (i % 3 == 0) { continue; }
                    s = s + (i % 2 == 0 ? half(i) : i * 10);
                }
                return s;
            }
            static void main() {
                int all = 0;
                for (int r = 0; r < 6; r++) { all = all + walk(8); }
                System.out.println(all);
            }
        }
        "#,
    );
    assert_eq!(out, "798\n");
    assert_eq!((entries, fallbacks), (33, 0));
}

#[test]
fn a_session_re_refines_shared_bodies_for_each_request() {
    // `Helper.total`'s lowered body lives in the session's store and is
    // shared by every request's compiler. Each request must refine it
    // under its own epoch: a splice refined under an earlier compiler's
    // epoch would fail its guard on every call.
    const HELPER: &str = r#"
        class Box {
            int v;
            Box(int v) { this.v = v; }
            int get() { return v; }
        }
        class Helper {
            static int total(Box b, int n) {
                int s = 0;
                for (int i = 0; i < n; i++) { s = s + b.get(); }
                return s;
            }
        }
    "#;
    let main = |k: i32| {
        format!(
            "class Main {{ static void main() {{ Box b = new Box({k}); int s = 0; \
             for (int r = 0; r < 6; r++) {{ s = s + Helper.total(b, 10); }} \
             System.out.println(s); }} }}"
        )
    };
    let mut session = Session::new(
        CompileOptions {
            echo_output: false,
            jobs: 1,
            ..CompileOptions::default()
        },
        None,
    );
    for k in 1..=3 {
        let sources = vec![
            ("helper.maya".to_owned(), HELPER.to_owned()),
            ("main.maya".to_owned(), main(k)),
        ];
        let t = telemetry::Session::start(telemetry::Config::default());
        let out = session.compile_sources(&sources, &RequestOpts::default());
        let r = t.finish();
        assert!(out.success, "request {k}: {}", out.stderr);
        assert_eq!(out.stdout, format!("{}\n", 60 * k));
        // `total` runs cold three times, then refined three times over
        // its 10-call loop.
        assert_eq!(
            (
                r.counter(Counter::BcInlineEntries),
                r.counter(Counter::BcInlineFallbacks)
            ),
            (30, 0),
            "request {k}"
        );
    }
}

/// `mayac --dump-bytecode=FILTER --stats` on the benchmark's call-bound
/// program: the listing and the stats JSON.
fn hot_calls_dump(filter: &str) -> (String, String) {
    let file = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus/interp_hot_calls.maya");
    let out = Command::new(env!("CARGO_BIN_EXE_mayac"))
        .arg(format!("--dump-bytecode={filter}"))
        .arg("--stats")
        .arg(&file)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// The listing block of `body` in a `--dump-bytecode` output.
fn block<'a>(listing: &'a str, body: &str) -> &'a str {
    listing
        .split("--- bytecode ")
        .find(|b| b.starts_with(body))
        .unwrap_or_else(|| panic!("no listing for {body}:\n{listing}"))
}

/// The splice tree at the head of a listing block, with its pcs dropped:
/// `call` and `inline` lines as the disassembler indents them.
fn splice_tree(block: &str) -> Vec<String> {
    block
        .lines()
        .filter(|l| matches!(l.trim_start().split(' ').next(), Some("call" | "inline")))
        .map(|l| {
            let words = l.split(' ').filter(|w| !w.starts_with('@'));
            words.collect::<Vec<_>>().join(" ")
        })
        .collect()
}

/// A counter of a `--stats` JSON document.
fn stat(stats: &str, name: &str) -> u64 {
    let key = format!("\"{name}\": ");
    let at = stats
        .find(&key)
        .unwrap_or_else(|| panic!("no {name} in {stats}"))
        + key.len();
    stats[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap()
}

/// The benchmark's call-bound program: both `weighted` bodies splice their
/// `area()` call, whose callees read fields by bare name, and `sum`'s
/// bimorphic `s.weighted()` splices both `weighted` bodies as one chain,
/// each with its `area()` splice nested. `main` switches on-stack at its
/// loop and splices `s.area()` as a chain; `sum` itself is too long to.
#[test]
fn hot_calls_program_splices_both_weighted_bodies() {
    let (listing, stats) = hot_calls_dump("weighted");
    for (body, callee) in [
        ("Shape.weighted", "Square.area"),
        ("Rect.weighted", "Rect.area"),
    ] {
        let block = block(&listing, body);
        assert!(
            block.contains(&format!(": {callee}/0")),
            "{body} does not splice {callee}:\n{block}"
        );
        assert!(block.contains("env_load_at"), "{block}");
    }
    // Every guard that fails passes to the next member of its chain, so
    // no call falls back. `sum`'s first three runs call the `weighted`
    // bodies, which splice `area()` from their 4th run on (69 entries);
    // its other 797 runs enter two splices per call (39,850). `main`
    // enters `s.area()` in the 336 rounds after its switch, and the two
    // `weighted` calls after its loop enter their `area()` splices.
    assert_eq!(stat(&stats, "bc_inline_entries"), 40257, "{stats}");
    assert_eq!(stat(&stats, "bc_inline_fallbacks"), 0, "{stats}");
    assert_eq!(stat(&stats, "bc_osr_switches"), 1, "{stats}");

    let (listing, _) = hot_calls_dump("sum");
    let sum = block(&listing, "Main.sum");
    assert_eq!(
        splice_tree(sum),
        [
            "call weighted/0 [pic0], 2 spliced, else",
            "  inline Square.weighted/0",
            "    call area/0 [pic1], 1 spliced, else",
            "      inline Square.area/0",
            "  inline Rect.weighted/0",
            "    call area/0 [pic2], 1 spliced, else",
            "      inline Rect.area/0",
        ],
        "{sum}"
    );
    assert!(!sum.contains("; generic"), "{sum}");

    let (listing, _) = hot_calls_dump("main");
    let main = block(&listing, "Main.main");
    assert!(main.contains("refined on-stack"), "{main}");
    assert_eq!(
        splice_tree(main),
        [
            "call area/0 [pic2], 2 spliced, else",
            "  inline Square.area/0",
            "  inline Rect.area/0",
        ],
        "{main}"
    );
    // Each call left generic names why: `sum` is past `INLINE_MAX` with
    // its own splices, `println` is native, and the `weighted` calls after
    // the loop had not run when the loop switched.
    assert!(
        main.contains("; generic: Main.sum/2 callee over INLINE_MAX"),
        "{main}"
    );
    assert!(main.contains("println/1 native"), "{main}");
    assert!(
        main.contains("; generic: Square.weighted/0 filled after the refine"),
        "{main}"
    );
}

// ---- on-stack switches ---------------------------------------------------
//
// A run of a body's cold bytecode that takes `OSR_BACKEDGES` (64) loop
// back-edges refines the body and continues in the copy. Each test below
// runs its program on both tiers: the outputs (or error texts) must be
// identical, and the bytecode run's counters are pinned.

/// `--dump-bytecode=FILTER` of `src` after its run on the bytecode tier.
fn dump(src: &str, filter: &str) -> String {
    let mut session = Session::new(
        CompileOptions {
            echo_output: false,
            jobs: 1,
            ..CompileOptions::default()
        },
        None,
    );
    let opts = RequestOpts {
        dump_bytecode: Some(filter.to_owned()),
        ..RequestOpts::default()
    };
    let out = session.compile_sources(&[("Main.maya".to_owned(), src.to_owned())], &opts);
    assert!(out.success, "{}", out.stderr);
    out.stdout
}

/// What one run of a program produced on the bytecode tier.
struct Switched {
    /// The program's output, or the error's message and source text.
    out: Result<String, String>,
    /// (splice entries, guard fallbacks, on-stack switches).
    counts: (u64, u64, u64),
    /// Inline cache entries evicted.
    evictions: u64,
}

/// Runs `src` on the bytecode tier and on the walker with `options()`;
/// asserts that both tiers print (or fail) identically.
fn switched(src: &str, options: impl Fn() -> CompileOptions) -> Switched {
    let run = |lowering: bool| {
        let c = Compiler::with_options(options());
        c.interp().set_lowering(lowering);
        c.compile_and_run("Main.maya", src, "Main").map_err(|e| {
            let at = &src[e.span.lo as usize..e.span.hi as usize];
            format!("{e} at `{at}`")
        })
    };
    let t = telemetry::Session::start(telemetry::Config::default());
    let out = run(true);
    let r = t.finish();
    assert_eq!(out, run(false), "the tiers differ");
    Switched {
        out,
        counts: (
            r.counter(Counter::BcInlineEntries),
            r.counter(Counter::BcInlineFallbacks),
            r.counter(Counter::BcOsrSwitches),
        ),
        evictions: r.counter(Counter::PicEvictions),
    }
}

#[test]
fn a_once_run_main_loop_splices_its_leaf_on_stack() {
    // `main` runs once, so the regular refine never sees it. Its loop
    // switches at the 64th back-edge, after iteration 63: the other 936
    // calls enter the splice.
    let run = switched(
        r#"
        class Main {
            static int leaf(int x) { return x * 3 + 1; }
            static void main() {
                int s = 0;
                for (int i = 0; i < 1000; i++) { s = s + leaf(i); }
                System.out.println(s);
            }
        }
        "#,
        CompileOptions::default,
    );
    assert_eq!(run.out.as_deref(), Ok("1499500\n"));
    assert_eq!(run.counts, (936, 0, 1));
}

#[test]
fn a_class_qualified_static_leaf_enters_its_splice_after_the_switch() {
    // `Util.leaf(i)` dispatches on the class its receiver names, which the
    // guard checks as it checks an object's class; the spliced body reads
    // the static `k` in `Util`. As above, 936 calls enter the splice and
    // none falls back.
    let run = switched(
        r#"
        class Util {
            static int k = 3;
            static int leaf(int x) { return x * k + 1; }
        }
        class Main {
            static void main() {
                int s = 0;
                for (int i = 0; i < 1000; i++) { s = s + Util.leaf(i); }
                System.out.println(s);
            }
        }
        "#,
        CompileOptions::default,
    );
    assert_eq!(run.out.as_deref(), Ok("1499500\n"));
    assert_eq!(run.counts, (936, 0, 1));
}

#[test]
fn break_continue_and_a_class_typed_declaration_in_a_switched_loop() {
    // Every iteration but the last takes one back-edge (`continue` is one
    // too), so the loop switches after i = 64. Of i = 65..300, the 203
    // that are no multiple of 7 enter two splices each: `leaf` inside
    // `new P(..)` of a class-typed declaration, and `p.get()`.
    let run = switched(
        r#"
        class P {
            int v;
            P(int v) { this.v = v; }
            int get() { return v; }
        }
        class Main {
            static int leaf(int x) { return x + 1; }
            static void main() {
                int s = 0;
                int i = 0;
                while (true) {
                    i++;
                    if (i % 7 == 0) { continue; }
                    P p = new P(leaf(i));
                    s = s + p.get();
                    if (i >= 300) { break; }
                }
                System.out.println(s + " " + i);
            }
        }
        "#,
        CompileOptions::default,
    );
    assert_eq!(run.out.as_deref(), Ok("39087 300\n"));
    assert_eq!(run.counts, (406, 0, 1));
}

#[test]
fn a_receiver_class_change_after_the_switch_falls_back_until_the_regular_refine() {
    // Run 1 of `run` switches after i = 63 with `A.f` spliced: i = 64..99
    // enter it, and from i = 100 the `B` receiver fails the guard. Runs 2
    // and 3 start in that provisional copy (100 entries, 50 fallbacks
    // each). Run 4's regular refine sees the site bimorphic and splices a
    // chain of `B.f` and `A.f`, so runs 4 and 5 enter on every call (150
    // entries each) and fall back on none.
    let run = switched(
        r#"
        class A { int f() { return 1; } }
        class B extends A { int f() { return 2; } }
        class Main {
            static int run(A a, A b, int n) {
                int s = 0;
                for (int i = 0; i < n; i++) {
                    A x = a;
                    if (i >= 100) { x = b; }
                    s = s + x.f();
                }
                return s;
            }
            static void main() {
                A a = new A();
                A b = new B();
                int t = 0;
                for (int r = 0; r < 5; r++) { t = t + run(a, b, 150); }
                System.out.println(t);
            }
        }
        "#,
        CompileOptions::default,
    );
    assert_eq!(run.out.as_deref(), Ok("1000\n"));
    assert_eq!(run.counts, (536, 150, 1));
}

#[test]
fn a_step_limit_inside_a_switched_loop_fails_like_the_walker() {
    let run = switched(
        r#"
        class Main {
            static int leaf(int x) { return x + 1; }
            static void main() {
                int s = 0;
                for (int i = 0; i < 100000; i++) { s = s + leaf(i); }
                System.out.println(s);
            }
        }
        "#,
        || CompileOptions {
            interp_step_limit: 1000,
            ..CompileOptions::default()
        },
    );
    let err = run.out.expect_err("the step limit stops the loop");
    assert!(err.contains("step limit (1000) exceeded"), "{err}");
    // The limit falls past the switch, in iteration ~330.
    assert_eq!(run.counts.2, 1);
    assert!(run.counts.0 > 200, "{:?}", run.counts);
}

#[test]
fn a_stack_limit_at_a_splice_of_a_switched_loop_fails_like_the_walker() {
    // `loop(10, 0)` fills the `leaf` site; `loop(100, 70)`, reached at the
    // stack limit, switches at its 64th back-edge, and its first call, at
    // i = 70, is the spliced one whose frame would pass the limit.
    let run = switched(
        r#"
        class Main {
            static int leaf(int x) { return x + 1; }
            static int loop(int n, int from) {
                int s = 0;
                for (int i = 0; i < n; i++) {
                    if (i >= from) { s = s + leaf(i); }
                }
                return s;
            }
            static int down(int d) {
                if (d == 0) { return loop(100, 70); }
                return down(d - 1);
            }
            static void main() {
                System.out.println(loop(10, 0));
                System.out.println(down(17));
            }
        }
        "#,
        || CompileOptions {
            interp_stack_limit: 20,
            ..CompileOptions::default()
        },
    );
    let err = run.out.expect_err("the stack limit stops the spliced call");
    assert_eq!(err, "stack overflow (call depth > 20) at `leaf(i)`");
    // `down` refines on its 4th run (d = 14) and splices its own cold
    // code at `down(d - 1)`, so the recursion alternates a real frame and
    // a splice: d = 13, 11, .., 1 enter one each (7). At the end the guard
    // of `leaf` passes (a PIC hit, as on the generic path) before the
    // frame entry it makes fails: the 8th entry.
    assert_eq!(run.counts, (8, 0, 1));
}

#[test]
fn an_exception_from_a_splice_after_the_switch_reaches_a_walker_try() {
    // `main` holds a `try`, so it runs on the walker. `run` switches after
    // i = 63 and its spliced `leaf` divides by zero at i = 500; after the
    // catch, the call depth the splice entered is credited back, and a
    // second `run` finishes on the refined copy.
    let run = switched(
        r#"
        class Main {
            static int leaf(int x) { return 1000 / (x - 500); }
            static int run(int n) {
                int s = 0;
                for (int i = 0; i < n; i++) { s = s + leaf(i); }
                return s;
            }
            static void main() {
                int r = 0;
                try {
                    r = run(1000);
                } catch (ArithmeticException e) {
                    System.out.println("caught");
                }
                System.out.println(r + " " + run(100));
            }
        }
        "#,
        || CompileOptions {
            interp_stack_limit: 4,
            ..CompileOptions::default()
        },
    );
    assert_eq!(run.out.as_deref(), Ok("caught\n0 -200\n"));
    // 437 entries (i = 64..500, the last one throwing) in the first run,
    // 100 in the second, which starts in the copy.
    assert_eq!(run.counts, (537, 0, 1));
}

#[test]
fn a_recursive_body_switches_its_inner_activation_only() {
    // The outer `rec` calls the inner one at i = 5; the inner one switches
    // after i = 63 and installs the copy, so the outer one, still running
    // the cold code when it reaches its own 64th back-edge, keeps doing so.
    let run = switched(
        r#"
        class Main {
            static int leaf(int x) { return x * 2; }
            static int rec(int depth, int n) {
                int s = 0;
                for (int i = 0; i < n; i++) {
                    s = s + leaf(i);
                    if (depth == 0 && i == 5) { s = s + rec(1, 100); }
                }
                return s;
            }
            static void main() {
                System.out.println(rec(0, 100));
            }
        }
        "#,
        CompileOptions::default,
    );
    assert_eq!(run.out.as_deref(), Ok("19800\n"));
    assert_eq!(run.counts, (36, 0, 1));
}

// ---- chains and nesting --------------------------------------------------
//
// The refine pass splices a polymorphic site as a chain of guarded copies
// and copies a callee's refined copy with its own splices. Each test runs
// its program on both tiers (see `switched`) and pins the bytecode run's
// counters.

#[test]
fn a_third_receiver_class_reaches_the_generic_call() {
    // `one` refines on its 4th run with `a.f()` bimorphic: a chain of
    // `A.f` (used last) and `B.f`. The `B` receiver of run 4 fails the
    // first guard and enters the second: no fallback. Of the 8 refined
    // runs, the `C` receiver alone fails both guards and falls back once.
    let run = switched(
        r#"
        class A { int f() { return 1; } }
        class B extends A { int f() { return 2; } }
        class C extends A { int f() { return 3; } }
        class Main {
            static int one(A a) { return a.f(); }
            static void main() {
                A a = new A();
                A b = new B();
                A c = new C();
                int s = 0;
                for (int r = 0; r < 4; r++) { s = s + one(a) * 10 + one(b); }
                s = s + one(c) * 100;
                s = s + one(a) + one(b);
                System.out.println(s);
            }
        }
        "#,
        CompileOptions::default,
    );
    assert_eq!(run.out.as_deref(), Ok("351\n"));
    assert_eq!(run.counts, (7, 1, 0));
}

#[test]
fn a_nested_guard_fails_while_its_outer_guard_passes() {
    // `W.inner` refines first, splicing `p.f()` for an `A` in its field
    // `p`; `outer` refines on its 4th run and splices `inner`'s copy with
    // `A.f` nested, the guard of `w.inner()` on `w`'s register and the
    // nested one on the register `p` is loaded into. Once `w.p` holds a
    // `B`, the outer guard (class `W`, no arguments) still passes and the
    // nested one fails on each of the 5 calls, which take the generic
    // `p.f()`.
    let run = switched(
        r#"
        class A { int f() { return 1; } }
        class B extends A { int f() { return 2; } }
        class W {
            A p;
            W(A p) { this.p = p; }
            int inner() { return p.f() + 1; }
        }
        class Main {
            static int outer(W w, int n) {
                int s = 0;
                for (int i = 0; i < n; i++) { s = s + w.inner(); }
                return s;
            }
            static void main() {
                W w = new W(new A());
                int t = 0;
                for (int r = 0; r < 4; r++) { t = t + outer(w, 5); }
                w.p = new B();
                t = t + outer(w, 5) * 100;
                System.out.println(t);
            }
        }
        "#,
        CompileOptions::default,
    );
    assert_eq!(run.out.as_deref(), Ok("1540\n"));
    // `inner`'s runs 4..15 enter `A.f` (12); `outer`'s 4th run enters
    // `inner` and `A.f` per call (10); its 5th run enters `inner` only.
    assert_eq!(run.counts, (27, 5, 0));
}

#[test]
fn a_class_qualified_static_callee_makes_a_nested_implicit_call() {
    // `Q.m` calls the inherited static `h` implicitly; its frame has no
    // `this` and runs under `Q`, the class its call names. `m` refines
    // first, splicing `h` behind a guard on its frame's class. Spliced
    // into `run` through the class reference `Q`, that guard is rebound
    // to the reference's register, and `h` reads the static `k` in `Q`'s
    // frame. `Main` declares a `k` of its own.
    let run = switched(
        r#"
        class P {
            static int k = 5;
            static int h(int x) { return x + k; }
        }
        class Q extends P {
            static int m(int x) { return h(x) * 2; }
        }
        class Main {
            static int k = 1000;
            static int run(int n) {
                int s = 0;
                for (int i = 0; i < n; i++) { s = s + Q.m(i); }
                return s;
            }
            static void main() {
                int t = 0;
                for (int r = 0; r < 5; r++) { t = t + run(10); }
                System.out.println(t + k);
            }
        }
        "#,
        CompileOptions::default,
    );
    assert_eq!(run.out.as_deref(), Ok("1950\n"));
    // `m`'s runs 4..30 enter `h` (27); `run`'s runs 4 and 5 enter `m` and
    // the nested `h` on each of their 10 calls (40).
    assert_eq!(run.counts, (67, 0, 0));
}

#[test]
fn an_exception_two_splices_deep_reaches_a_walker_try() {
    // `run` splices `mid`, which splices `leaf`; `leaf(0)` divides by zero
    // inside both splices. `main` holds a `try`, so it runs on the walker
    // and catches the exception; both spliced frames are popped on the
    // way out, so the last `run`, at the same depth, passes the stack
    // limit of 4 (`main`, `run`, `mid`, `leaf`).
    let run = switched(
        r#"
        class Main {
            static int leaf(int x) { return 1000 / x; }
            static int mid(int x) { return leaf(x) + 1; }
            static int run(int from, int to) {
                int s = 0;
                for (int i = from; i < to; i++) { s = s + mid(i); }
                return s;
            }
            static void main() {
                int r = 0;
                for (int k = 0; k < 4; k++) { r = r + run(1, 10); }
                try {
                    r = r + run(-3, 10);
                } catch (ArithmeticException e) {
                    System.out.println("caught");
                }
                System.out.println(r + " " + run(1, 5));
            }
        }
        "#,
        || CompileOptions {
            interp_stack_limit: 4,
            ..CompileOptions::default()
        },
    );
    assert_eq!(run.out.as_deref(), Ok("caught\n11344 2087\n"));
    // `mid`'s runs 4..27 enter `leaf` (24); `run`'s 4th run enters two
    // splices per call (18), its 5th three calls and the throwing one
    // (8), its 6th four calls (8).
    assert_eq!(run.counts, (58, 0, 0));
}

#[test]
fn a_stack_limit_at_a_nested_splice_fails_like_the_walker() {
    // After `run` and `mid` refine, `down(13)` reaches `run` at depth 16
    // (`main` is 1). Its splice of `mid` enters at 17, within the limit,
    // and the nested splice of `leaf` would enter at 18: its frame entry
    // fails with the walker's error at the walker's span.
    let run = switched(
        r#"
        class Main {
            static int leaf(int x) { return x + 1; }
            static int mid(int x) { return leaf(x) * 2; }
            static int run(int n) {
                int s = 0;
                for (int i = 0; i < n; i++) { s = s + mid(i); }
                return s;
            }
            static int down(int d) {
                if (d == 0) { return run(3); }
                return down(d - 1);
            }
            static void main() {
                int t = 0;
                for (int r = 0; r < 4; r++) { t = t + run(3); }
                System.out.println(t);
                System.out.println(down(13));
            }
        }
        "#,
        || CompileOptions {
            interp_stack_limit: 17,
            ..CompileOptions::default()
        },
    );
    let err = run.out.expect_err("the stack limit stops the nested splice");
    assert_eq!(err, "stack overflow (call depth > 17) at `leaf(x)`");
    // `mid`'s runs 4..9 enter `leaf` (6) and `run`'s 4th run enters both
    // per call (6). `down` refines on its 4th run (d = 10) and splices its
    // own cold code, so d = 9, 7, .., 1 are splices (5). The last `run`
    // enters `mid` and passes the guard of `leaf` before its frame entry
    // fails (2).
    assert_eq!(run.counts, (19, 0, 0));
}

#[test]
fn break_and_continue_around_a_chain_whose_callees_loop() {
    // `run`'s `x.f(..)` is bimorphic, and both callees have a loop of
    // their own, whose regions the chain copies one frame deeper. The
    // caller's `continue` skips the chain and its `break` leaves the loop
    // after it; neither passes through a spliced frame.
    let run = switched(
        r#"
        class A {
            int f(int n) {
                int s = 0;
                for (int k = 0; k < n; k++) { s = s + k; }
                return s;
            }
        }
        class B extends A {
            int f(int n) {
                int s = 1;
                int k = 0;
                while (k < n) { s = s * 2; k++; }
                return s;
            }
        }
        class Main {
            static int run(A a, A b, int n, int stop) {
                int t = 0;
                for (int i = 0; i < n; i++) {
                    if (i % 5 == 4) { continue; }
                    A x = a;
                    if (i % 2 == 1) { x = b; }
                    t = t + x.f(i % 6);
                    if (t > stop) { break; }
                }
                return t;
            }
            static void main() {
                A a = new A();
                A b = new B();
                int all = 0;
                for (int r = 0; r < 6; r++) { all = all + run(a, b, 12, 20 + r * 20); }
                System.out.println(all);
            }
        }
        "#,
        CompileOptions::default,
    );
    assert_eq!(run.out.as_deref(), Ok("422\n"));
    // `run`'s runs 4..6 make 10 calls each before their loop ends, every
    // one entering one member of the chain.
    assert_eq!(run.counts, (30, 0, 0));
}

#[test]
fn a_callee_that_writes_its_parameter_gets_a_copy_of_it() {
    // `dec` writes its parameter twice, so its splice copies the argument
    // into a register of its own; `twice` reads its parameter in place.
    // Both splice into `run`, whose loop reads its own local after the
    // call.
    let src = r#"
        class Main {
            static int dec(int x) { x = x - 1; x++; x -= 3; return x * 2; }
            static int twice(int y) { return y + y; }
            static int run(int n) {
                int s = 0;
                for (int i = 0; i < n; i++) {
                    int a = i;
                    s = s + dec(a) + twice(a) + a;
                }
                return s;
            }
            static void main() {
                int t = 0;
                for (int r = 0; r < 5; r++) { t = t + run(10); }
                System.out.println(t);
            }
        }
        "#;
    let run = switched(src, CompileOptions::default);
    assert_eq!(run.out.as_deref(), Ok("825\n"));
    // `run`'s runs 4 and 5 enter both splices on each of 10 calls.
    assert_eq!(run.counts, (40, 0, 0));
    // The instruction after each guard: `dec`'s frame starts with a move
    // of its argument, `twice`'s with its statement's step.
    let listing = dump(src, "run");
    assert_eq!(near_guard(&listing, "Main.dec/1", 1), "move", "{listing}");
    assert_eq!(near_guard(&listing, "Main.twice/1", 1), "step", "{listing}");
}

/// The mnemonic `offset` lines from the guard of `callee` in `listing`.
fn near_guard<'a>(listing: &'a str, callee: &str, offset: isize) -> &'a str {
    let lines: Vec<&str> = listing.lines().collect();
    let at = lines
        .iter()
        .position(|l| l.contains("guard_inline") && l.contains(callee))
        .unwrap_or_else(|| panic!("no guard of {callee}:\n{listing}"));
    let line = lines[at.checked_add_signed(offset).unwrap()];
    line.split_whitespace().nth(1).unwrap_or_default()
}

#[test]
fn a_recursive_fib_splices_its_own_body() {
    // `fib(2)` fills both recursive call sites in `fib`'s first three
    // runs; `fib(15)`, its 4th run, refines it with both calls spliced.
    // The splices copy `fib`'s cold code, whose own calls stay generic, so
    // the recursion alternates a real frame of the refined copy and a
    // splice: a frame enters 2 splices, and a splice's calls are frames.
    let src = r#"
        class Main {
            static int fib(int n) {
                if (n < 2) { return n; }
                return fib(n - 1) + fib(n - 2);
            }
            static void main() {
                System.out.println(fib(2) + " " + fib(15));
            }
        }
        "#;
    let run = switched(src, CompileOptions::default);
    assert_eq!(run.out.as_deref(), Ok("1 610\n"));
    assert_eq!(run.counts, (986, 0, 0));
    let listing = dump(src, "fib");
    assert_eq!(
        splice_tree(&listing),
        [
            "call fib/1 [pic0], 1 spliced, else",
            "  inline Main.fib/1",
            "call fib/1 [pic1], 1 spliced, else",
            "  inline Main.fib/1",
        ],
        "{listing}"
    );
}

// ---- merged steps and the lean splice frame ------------------------------
//
// A straight run of statements charges its steps in one instruction, and a
// splice's frame moves nothing it need not: it reads arguments at their
// sources, starts its locals as their declarations write them, and its
// last computation writes the call's destination. Each test runs its
// program on both tiers (see `switched`) and pins the bytecode run's
// counters.

/// One run of `src` on one tier under the step limit `limit`: what it
/// printed, then its error with the source text of the error's span when
/// it failed.
fn limited(src: &str, lowering: bool, limit: u64) -> (String, Option<String>) {
    let c = Compiler::with_options(CompileOptions {
        echo_output: false,
        jobs: 1,
        interp_step_limit: limit,
        ..CompileOptions::default()
    });
    c.interp().set_lowering(lowering);
    match c.compile_and_run("Main.maya", src, "Main") {
        Ok(out) => (out, None),
        Err(e) => {
            let at = &src[e.span.lo as usize..e.span.hi as usize];
            (c.interp().take_output(), Some(format!("{e} at `{at}`")))
        }
    }
}

/// Runs `src` on both tiers under every step limit from 1 up to the first
/// that the run does not reach, which it returns: at each one the tiers
/// must print the same output before the failure and fail with the same
/// error at the same span.
fn sweep_step_limits(src: &str) -> u64 {
    let mut limit = 1;
    loop {
        let vm = limited(src, true, limit);
        assert_eq!(vm, limited(src, false, limit), "the tiers differ at step limit {limit}");
        if !vm.1.is_some_and(|e| e.contains("step limit")) {
            return limit;
        }
        limit += 1;
    }
}

#[test]
fn every_step_limit_fails_like_the_walker() {
    // `main` opens with a merged run that ends at a `println`, and its loop
    // switches after 64 back-edges to a copy that splices `f`, whose own
    // merged run and early `return` come along. Every limit up to the
    // program's full step count stops it at the same statement on both
    // tiers: before the switch, inside a spliced merged step, and after
    // the loop.
    let src = r#"
        class Main {
            static int f(int x) {
                int y = x * 2;
                int z = y + 1;
                if (x > 66) { return z - x; }
                return z;
            }
            static void main() {
                int a = 1;
                int b = a + 2;
                System.out.println(b);
                int c = b * 3;
                int s = 0;
                for (int i = 0; i < 70; i++) {
                    int t = i + c;
                    s = s + f(i) + t;
                }
                System.out.println(s);
                int d = s - c;
                System.out.println(d);
            }
        }
        "#;
    // 4 steps before the loop's first iteration besides the first 3, 7 per
    // iteration (8 when `f` returns early, i = 67..69), and 3 after it.
    assert_eq!(sweep_step_limits(src), 3 + 4 + 70 * 7 + 3 + 3);
    let run = switched(src, CompileOptions::default);
    assert_eq!(run.out.as_deref(), Ok("3\n7741\n7732\n"));
    // The loop switches after i = 63: i = 64..69 enter the splice.
    assert_eq!(run.counts, (6, 0, 1));
    let main = dump(src, "main");
    assert!(main.contains("step               ×3"), "{main}");
    assert!(main.contains("step               ×4"), "{main}");
}

#[test]
fn a_division_between_two_statements_throws_before_the_limit() {
    // `/` can throw, so it ends the run of statements: under the limit of
    // 3 the division throws, and the step of `int c` is never charged.
    let src = r#"
        class Main {
            static void main() {
                int a = 1;
                int z = a - 1;
                int b = a / z;
                int c = b + 2;
                System.out.println(c);
            }
        }
        "#;
    assert_eq!(sweep_step_limits(src), 3);
    let (_, err) = limited(src, true, 3);
    let err = err.expect("the division throws");
    assert!(err.contains("ArithmeticException"), "{err}");
}

/// `main`'s listing after a run of `src`.
fn main_listing(src: &str) -> String {
    block(&dump(src, "main"), "Main.main").to_owned()
}

#[test]
fn a_callee_local_declared_without_an_initializer_in_its_loop() {
    // The splice of `g` sets up no local: `acc` and `k` are written by
    // their initializers, and `t` by the `default_val` of its declaration
    // on every iteration. `run` refines on its 4th run; runs 4 and 5
    // enter `g` on each of their 6 calls.
    let src = r#"
        class Main {
            static int g(int n) {
                int acc = 0;
                for (int k = 0; k < n; k++) {
                    int t;
                    t = k * 2;
                    acc = acc + t;
                }
                return acc;
            }
            static int run(int n) {
                int s = 0;
                for (int i = 0; i < n; i++) { s = s + g(i); }
                return s;
            }
            static void main() {
                int all = 0;
                for (int r = 0; r < 5; r++) { all = all + run(6); }
                System.out.println(all);
            }
        }
        "#;
    let run = switched(src, CompileOptions::default);
    assert_eq!(run.out.as_deref(), Ok("200\n"));
    assert_eq!(run.counts, (12, 0, 0));
    assert_eq!(near_guard(&dump(src, "run"), "Main.g/1", 1), "step");
}

#[test]
fn a_call_whose_destination_is_both_its_arguments() {
    // `x = f(x, x)`: the splice reads both arguments from `x` in place,
    // and its last binary writes `x`, after reading it. `run` refines on
    // its 4th run; runs 4 and 5 enter `f` on each of their 8 calls.
    let src = r#"
        class Main {
            static int f(int a, int b) { return a * 3 + b % 7; }
            static int run(int n) {
                int x = 1;
                for (int i = 0; i < n; i++) { x = f(x, x); }
                return x;
            }
            static void main() {
                int all = 0;
                for (int r = 0; r < 5; r++) { all = all + run(8); }
                System.out.println(all);
            }
        }
        "#;
    let run = switched(src, CompileOptions::default);
    assert_eq!(run.out.as_deref(), Ok("61820\n"));
    assert_eq!(run.counts, (16, 0, 0));
    // No move before the guard, and the argument moves stand before the
    // generic call, where the chain falls.
    let listing = dump(src, "run");
    assert_eq!(near_guard(&listing, "Main.f/2", -1), "step", "{listing}");
    let generic = listing
        .lines()
        .position(|l| l.contains("call_implicit"))
        .unwrap();
    let lines: Vec<&str> = listing.lines().collect();
    assert!(lines[generic - 1].contains("move"), "{listing}");
    assert!(lines[generic - 2].contains("move"), "{listing}");
    assert!(!listing.contains("; generic"), "{listing}");
}

#[test]
fn a_callee_writing_its_parameter_leaves_the_source_alone() {
    // `down` counts its parameter down, so its splice copies `m` into a
    // register of its own; `run` reads `m` again after the call. Runs 4
    // and 5 of `run` enter `down` on each of their 9 calls.
    let src = r#"
        class Main {
            static int down(int n) {
                int c = 0;
                while (n > 0) { n = n - 3; c++; }
                return c;
            }
            static int run(int k) {
                int t = 0;
                for (int i = 0; i < k; i++) {
                    int m = i;
                    t = t + down(m) * 100 + m;
                }
                return t;
            }
            static void main() {
                int all = 0;
                for (int r = 0; r < 5; r++) { all = all + run(9); }
                System.out.println(all);
            }
        }
        "#;
    let run = switched(src, CompileOptions::default);
    assert_eq!(run.out.as_deref(), Ok("7680\n"));
    assert_eq!(run.counts, (18, 0, 0));
    assert_eq!(near_guard(&dump(src, "run"), "Main.down/1", 1), "move");
}

#[test]
fn an_argument_chosen_by_a_conditional_keeps_its_moves() {
    // The `?:` arm's jump lands on the call, so its argument moves stay
    // before the guard and the generic call has none. Runs 4 and 5 of
    // `run` enter `f` on each of their 7 calls.
    let src = r#"
        class Main {
            static int f(int a, int b) { return a * 10 + b; }
            static int run(int n) {
                int s = 0;
                for (int i = 0; i < n; i++) {
                    int j = i + 1;
                    s = s + f(i, i % 2 == 0 ? i : j);
                }
                return s;
            }
            static void main() {
                int all = 0;
                for (int r = 0; r < 5; r++) { all = all + run(7); }
                System.out.println(all);
            }
        }
        "#;
    let run = switched(src, CompileOptions::default);
    assert_eq!(run.out.as_deref(), Ok("1170\n"));
    assert_eq!(run.counts, (14, 0, 0));
    let listing = dump(src, "run");
    assert_eq!(near_guard(&listing, "Main.f/2", -1), "move", "{listing}");
    let lines: Vec<&str> = listing.lines().collect();
    let generic = lines.iter().position(|l| l.contains("call_implicit")).unwrap();
    assert!(lines[generic - 1].contains("call_exit"), "{listing}");
}

#[test]
fn a_receiver_change_after_the_switch_passes_the_moved_arguments() {
    // `main` switches after i = 63 with `A.f` spliced, reading `u` and the
    // constant 3 at their sources. From i = 100 the `B` receiver fails the
    // guard, and the generic path moves both arguments before its call.
    let src = r#"
        class A { int f(int p, int q) { return p - q; } }
        class B extends A { int f(int p, int q) { return p * q; } }
        class Main {
            static void main() {
                A a = new A();
                A b = new B();
                int s = 0;
                for (int i = 0; i < 150; i++) {
                    A x = a;
                    if (i >= 100) { x = b; }
                    int u = i;
                    s = s + x.f(u, 3);
                }
                System.out.println(s);
            }
        }
        "#;
    let run = switched(src, CompileOptions::default);
    assert_eq!(run.out.as_deref(), Ok("23325\n"));
    assert_eq!(run.counts, (36, 50, 1));
}

#[test]
fn a_megamorphic_site_splices_four_classes_and_falls_back_on_the_rest() {
    // `tests/corpus/megamorphic_site.maya`: one site cycles through six
    // receiver classes. `main` switches at the end of its 58th iteration
    // (its 64th back-edge, after the 6 of the loop that fills `shapes`),
    // when the line holds the last four classes; of the 542 calls after
    // it, the 360 on those four enter their member of the chain and the
    // 182 on the other two fall back. Before the switch each of the 58
    // calls misses, and each from the fifth evicts the least recently
    // used entry (54 evictions); the first fallback on each of the other
    // two classes misses and evicts once more.
    let src = include_str!("corpus/megamorphic_site.maya");
    let run = switched(src, CompileOptions::default);
    assert_eq!(
        run.out.as_deref(),
        Ok(include_str!("corpus/megamorphic_site.stdout"))
    );
    assert_eq!(run.counts, (360, 182, 1));
    assert_eq!(run.evictions, 56);
    let main = main_listing(src);
    assert!(main.contains("area/0 [pic"), "{main}");
    assert!(main.contains(", 4 spliced, else"), "{main}");
}

#[test]
fn a_conditional_return_value_keeps_its_final_move() {
    // `pick` returns a `?:`: its arms both write the returned temporary,
    // and the `then` arm jumps to the `ret`, so the binary before the
    // `ret` must not write the call's destination itself. Runs 4 and 5 of
    // `run` enter `pick` on each of their 6 calls.
    let src = r#"
        class Main {
            static int pick(int a, int b) { return a > b ? a : b + 1; }
            static int run(int n) {
                int s = 0;
                for (int i = 0; i < n; i++) { s = s * 3 + pick(i, 3); }
                return s;
            }
            static void main() {
                int all = 0;
                for (int r = 0; r < 5; r++) { all = all + run(6); }
                System.out.println(all);
            }
        }
        "#;
    let run = switched(src, CompileOptions::default);
    assert_eq!(run.out.as_deref(), Ok("7285\n"));
    assert_eq!(run.counts, (12, 0, 0));
}
