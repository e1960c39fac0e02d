//! The bytecode refine pass splices tiny leaf callees inline behind guards.
//! These tests pin that the splices are entered — not just emitted — at
//! the call sites that used to fall back on every call: field-reading
//! leaves, static implicit calls, and bodies a session shares across
//! requests. They read the `bc_inline_entries` / `bc_inline_fallbacks`
//! counters a passing or failing guard records.

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

/// The benchmark's call-bound program: both `weighted` bodies splice their
/// `area()` call, whose callees read fields by bare name.
#[test]
fn hot_calls_program_splices_both_weighted_bodies() {
    let file = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus/interp_hot_calls.maya");
    let out = Command::new(env!("CARGO_BIN_EXE_mayac"))
        .arg("--dump-bytecode=weighted")
        .arg("--stats")
        .arg(&file)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let listing = String::from_utf8_lossy(&out.stdout);
    for (body, callee) in [
        ("Shape.weighted", "Square.area"),
        ("Rect.weighted", "Rect.area"),
    ] {
        let block = listing
            .split("--- bytecode ")
            .find(|b| b.starts_with(body))
            .unwrap_or_else(|| panic!("no listing for {body}:\n{listing}"));
        assert!(
            block.contains(&format!(": {callee}/0")),
            "{body} does not splice {callee}:\n{block}"
        );
        assert!(block.contains("env_load_at"), "{block}");
    }
    let stats = String::from_utf8_lossy(&out.stderr);
    let counter = |name: &str| -> u64 {
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
    };
    assert!(counter("bc_inline_entries") > 19_000, "{stats}");
    assert_eq!(counter("bc_inline_fallbacks"), 0, "{stats}");
}

// ---- on-stack switches ---------------------------------------------------
//
// A run of a body's cold bytecode that takes `OSR_BACKEDGES` (64) loop
// back-edges refines the body and continues in the copy. Each test below
// runs its program on both tiers: the outputs (or error texts) must be
// identical, and the bytecode run's counters are pinned.

/// What one run of a program produced on the bytecode tier.
struct Switched {
    /// The program's output, or the error's message and source text.
    out: Result<String, String>,
    /// (splice entries, guard fallbacks, on-stack switches).
    counts: (u64, u64, u64),
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
    // each); run 4's regular refine sees the site bimorphic and drops the
    // splice, so runs 4 and 5 count neither.
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
    assert_eq!(run.counts, (236, 150, 1));
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
    // The guard passes (a PIC hit, as on the generic path) before the
    // callee frame's entry fails.
    assert_eq!(run.counts, (1, 0, 1));
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
