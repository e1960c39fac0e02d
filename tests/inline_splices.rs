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
