//! Warm requests that replay unchanged classes must still answer exactly
//! what a cold compile answers.
//!
//! A session's force cache records, per class, the member templates, the
//! installed signatures, the forced bodies and a clean-check record, and
//! per member the checks that ran clean, keyed by one digest of every
//! class signature plus the member's own inputs. Each hazard below edits,
//! through one warm session, something a class's shape or a member's check
//! depends on without touching that member's tokens, and compares every
//! outcome with a fresh session compiling the same sources. The last test
//! pins the mechanism itself: after a body edit, only the edited class is
//! shaped and checked again.

use std::rc::Rc;

use maya::telemetry::{self, CacheId, Counter};
use maya::{CompileOptions, Compiler, Outcome, RequestOpts, Session};

fn session() -> Session {
    let installer: Rc<dyn Fn(&Compiler)> = Rc::new(|c: &Compiler| {
        maya::macrolib::install(c);
        maya::multijava::install(c);
    });
    Session::new(CompileOptions::default(), Some(installer))
}

fn sources(files: &[(&str, &str)]) -> Vec<(String, String)> {
    files
        .iter()
        .map(|(n, t)| ((*n).to_owned(), (*t).to_owned()))
        .collect()
}

fn sig(o: &Outcome) -> (bool, String, String) {
    (o.success, o.stdout.clone(), o.stderr.clone())
}

/// Feeds `steps` through one warm session under `opts`, asserting that
/// every outcome equals a fresh session's on the same sources. Returns
/// the warm outcomes.
fn warm_matches_cold(steps: &[Vec<(String, String)>], opts: &RequestOpts) -> Vec<Outcome> {
    let mut warm = session();
    let mut out = Vec::new();
    for (i, step) in steps.iter().enumerate() {
        let w = warm.compile_sources(step, opts);
        let c = session().compile_sources(step, opts);
        assert_eq!(sig(&w), sig(&c), "request {i}: warm differs from cold");
        out.push(w);
    }
    out
}

const USES_K: &str = "class Main {
    static void main() {
        int x = new K().f();
        System.out.println(x);
    }
}
";

#[test]
fn return_type_edits_recheck_callers_in_other_files() {
    let k = |a: &str| sources(&[("a.maya", a), ("b.maya", USES_K)]);
    let steps = [
        k("class K { int f() { return 1; } }\n"),
        k("class K { String f() { return \"s\"; } }\n"),
        k("class K { }\n"),
        k("class K2 { int f() { return 1; } }\n"),
        k("class K { int f() { return 1; } }\n"),
    ];
    let out = warm_matches_cold(&steps, &RequestOpts::default());
    assert_eq!(out[0].stdout, "1\n");
    for o in &out[1..4] {
        assert!(!o.success, "b.maya must stop type-checking: {}", o.stdout);
        assert!(o.stderr.contains("b.maya:3:"), "{}", o.stderr);
    }
    assert_eq!(out[4].stdout, "1\n");
}

#[test]
fn parameter_type_edits_recheck_calls() {
    let main = "class Main { static void main() { System.out.println(K.g(2)); } }\n";
    let k = |a: &str| sources(&[("a.maya", a), ("b.maya", main)]);
    let steps = [
        k("class K { static int g(int v) { return v + 1; } }\n"),
        k("class K { static int g(String v) { return 1; } }\n"),
        k("class K { static int g(int v) { return v + 1; } }\n"),
    ];
    let out = warm_matches_cold(&steps, &RequestOpts::default());
    assert_eq!(out[0].stdout, "3\n");
    assert!(
        !out[1].success && out[1].stderr.contains("b.maya:1:"),
        "{}",
        out[1].stderr
    );
    assert_eq!(out[2].stdout, "3\n");
}

#[test]
fn a_mayan_in_another_file_redispatches_on_an_edited_return_type() {
    // `Foreach` picks its optimized expansion by the static type of
    // `Src.v()`: editing that return type in a.maya changes how b.maya's
    // unchanged body expands.
    let main = "class Main {
    static void main() {
        use Foreach;
        Src.v().elements().foreach(String s) {
            System.out.println(s);
        }
    }
}
";
    let src = |ty: &str| {
        let a = format!(
            "class Src {{ static {ty} v() {{ {ty} x = new {ty}(); x.addElement(\"a\"); return x; }} }}\n"
        );
        sources(&[("a.maya", &a), ("b.maya", main)])
    };
    let steps = [
        src("java.util.Vector"),
        src("maya.util.Vector"),
        src("java.util.Vector"),
    ];
    let opts = RequestOpts {
        expand: true,
        ..RequestOpts::default()
    };
    let out = warm_matches_cold(&steps, &opts);
    assert!(out.iter().all(|o| o.success && o.stdout.ends_with("a\n")));
    assert_ne!(
        out[0].stdout, out[1].stdout,
        "the expansion follows the return type"
    );
    assert_eq!(out[0].stdout, out[2].stdout);
}

const EACHOF: &str = "import java.util.*;

abstract Statement syntax(MethodName(Formal) lazy(BraceTree, BlockStmts));

Statement syntax
EachOf(Expression:java.util.Enumeration enumExp
       \\. eachof(Formal var)
       lazy(BraceTree, BlockStmts) body)
{
    StrictTypeName castType = StrictTypeName.make(var.getType());

    return new Statement {
        for (java.util.Enumeration enumVar = $enumExp;
             enumVar.hasMoreElements(); ) {
            $(DeclStmt.make(var))
            $(Reference.makeExpr(var.getLocation()))
                = ($castType) enumVar.nextElement();
            $body
        }
    };
}

class Each {
    static void run() {
        Vector v = new Vector();
        v.addElement(\"alpha\");
        v.addElement(\"beta\");
        use EachOf;
        v.elements().eachof(String s) {
            System.out.println(s);
        }
    }
}
";

const FOREACH: &str = "import java.util.*;
class Fore {
    static void run() {
        Vector v = new Vector();
        v.addElement(\"x\");
        v.addElement(\"y\");
        use Foreach;
        v.elements().foreach(String st) {
            System.out.println(st);
        }
        use Foreach;
        v.elements().foreach(String st) {
            System.out.println(st + st);
        }
    }
}
";

#[test]
fn extension_bodies_stay_cold_equal_when_another_file_changes() {
    let step = |k: &str| {
        let main = format!(
            "class Main {{ static void main() {{ Each.run(); Fore.run(); System.out.println(Helper.k()); }} }}
class Helper {{ static int k() {{ return {k}; }} }}
"
        );
        sources(&[
            ("each.maya", EACHOF),
            ("fore.maya", FOREACH),
            ("main.maya", &main),
        ])
    };
    let steps = [step("1"), step("22"), step("1 + 2"), step("1")];
    for opts in [
        RequestOpts::default(),
        RequestOpts {
            expand: true,
            ..RequestOpts::default()
        },
    ] {
        let out = warm_matches_cold(&steps, &opts);
        assert!(out.iter().all(|o| o.success), "{}", out[0].stderr);
        assert!(
            out[1].stdout.ends_with("alpha\nbeta\nx\ny\nxx\nyy\n22\n"),
            "{}",
            out[1].stdout
        );
    }
}

#[test]
fn a_failing_member_reports_on_every_request() {
    let lib = "class A {
    static int ok1() { return 1; }
    static int bad() { return \"not an int\"; }
    static int ok2() { return 2; }
}
";
    let step = |call: &str| {
        let main =
            format!("class Main {{ static void main() {{ System.out.println({call}); }} }}\n");
        sources(&[("a.maya", lib), ("main.maya", &main)])
    };
    let steps = [
        step("A.ok1()"),
        step("A.ok2()"),
        step("A.ok1() + A.ok2()"),
        step("A.ok1()"),
    ];
    for o in warm_matches_cold(&steps, &RequestOpts::default()) {
        assert!(!o.success);
        assert!(
            o.stderr
                .contains("a.maya:3:31: error: cannot return java.lang.String"),
            "{}",
            o.stderr
        );
    }
}

#[test]
fn multijava_groups_and_external_methods_survive_unrelated_edits() {
    let mj = "use MultiJava;
class Event { String tag() { return \"event\"; } }
class Click extends Event { String tag() { return \"click\"; } }
class Handler {
    String on(Event e) { return \"ignored \" + e.tag(); }
    String on(Event@Click e) { return \"handled \" + e.tag(); }
}
String Event.shout() { return this.tag() + \"!\"; }
";
    let step = |n: &str| {
        let main = format!(
            "class Main {{
    static void main() {{
        Handler h = new Handler();
        System.out.println(h.on(new Click()));
        System.out.println(h.on(new Event()));
        System.out.println(new Click().shout());
        System.out.println(Other.n());
    }}
}}
class Other {{ static int n() {{ return {n}; }} }}
"
        );
        sources(&[("mj.maya", mj), ("main.maya", &main)])
    };
    let out = warm_matches_cold(&[step("1"), step("10"), step("1")], &RequestOpts::default());
    assert_eq!(out[1].stdout, "handled click\nignored event\nclick!\n10\n");
}

/// Runs one request under its own telemetry session.
fn traced(
    s: &mut Session,
    files: &[(String, String)],
    opts: &RequestOpts,
) -> (Outcome, telemetry::Report) {
    let t = telemetry::Session::start(telemetry::Config::default());
    let out = s.compile_sources(files, opts);
    (out, t.finish())
}

#[test]
fn a_class_added_to_the_first_file_shifts_every_later_class_id() {
    // Every class of b.maya, c.maya and main.maya gets a new `ClassId`
    // when a.maya gains a class, while its tokens stay the same: resolved
    // signatures must follow the ids, not be replayed from before.
    let a = "class A { static B pick() { return new B(); } }\n";
    let b = "class B { C next() { return new C(); } int v() { return 2; } }\n";
    let c = "class C extends B { int v() { return 3; } static int w(B x) { return x.v(); } }\n";
    let main = "class Main {
    static void main() {
        System.out.println(A.pick().next().v() + C.w(new C()) + A.pick().v());
    }
}
";
    let files = |a: &str| {
        sources(&[
            ("a.maya", a),
            ("b.maya", b),
            ("c.maya", c),
            ("main.maya", main),
        ])
    };
    let added = format!("{a}class Extra {{ int e() {{ return 5; }} }}\n");
    let steps = [files(a), files(&added), files(a), files(&added)];
    let opts = RequestOpts::default();
    let mut warm = session();
    for (i, step) in steps.iter().enumerate() {
        let (w, report) = traced(&mut warm, step, &opts);
        let c = session().compile_sources(step, &opts);
        assert_eq!(sig(&w), sig(&c), "request {i}: warm differs from cold");
        assert_eq!(w.stdout, "8\n", "request {i}: {}", w.stderr);
        // Adding the class parses only its one body; removing it parses
        // nothing. (Re-adding it may miss: the removal request did not
        // touch its entry.)
        let parsed = report.cache(CacheId::ForceCache).misses;
        match i {
            1 => assert_eq!(parsed, 1, "only the new class's body is parsed"),
            2 => assert_eq!(parsed, 0, "no unchanged body is parsed again"),
            3 => assert!(parsed <= 1, "request {i}: {parsed} bodies parsed"),
            _ => {}
        }
    }
}

#[test]
fn a_header_edit_with_an_unchanged_body_rechecks_the_body() {
    // `extends A` becomes `extends B`: the body's tokens and spans stay
    // the same, but the call to `f()` no longer resolves.
    let a = "class A { int f() { return 1; } }\nclass B { int g() { return 2; } }\n";
    let main = "class Main { static void main() { System.out.println(new C().h()); } }\n";
    let c = |sup: &str| {
        let c = format!("class C extends {sup} {{ int h() {{ return f() + 10; }} }}\n");
        sources(&[("a.maya", a), ("c.maya", &c), ("main.maya", main)])
    };
    let out = warm_matches_cold(&[c("A"), c("B"), c("A")], &RequestOpts::default());
    assert_eq!(out[0].stdout, "11\n");
    assert!(
        !out[1].success && out[1].stderr.contains("c.maya:1:"),
        "{}",
        out[1].stderr
    );
    assert_eq!(out[2].stdout, "11\n");
}

#[test]
fn an_import_edit_changes_what_a_signature_resolves_to() {
    // Same-length import edit in U's own unit: U's body tokens are
    // unchanged, but `V` in its signature and body now names q.V.
    let p = "package p;\nclass V { int n() { return 1; } }\n";
    let q = "package q;\nclass V { int n() { return 2; } int m() { return 3; } }\n";
    let main = "class Main { static void main() { System.out.println(U.make().n()); } }\n";
    let step = |pkg: &str| {
        let u = format!("import {pkg}.V;\nclass U {{ static V make() {{ return new V(); }} }}\n");
        sources(&[
            ("p.maya", p),
            ("q.maya", q),
            ("u.maya", &u),
            ("main.maya", main),
        ])
    };
    let out = warm_matches_cold(&[step("p"), step("q"), step("p")], &RequestOpts::default());
    let stdout: Vec<&str> = out.iter().map(|o| o.stdout.as_str()).collect();
    assert_eq!(stdout, ["1\n", "2\n", "1\n"]);
}

#[test]
fn an_edited_external_method_body_is_rechecked_on_an_unchanged_class() {
    // MultiJava adds `Event.shout` to the unchanged class `Event` from
    // another file; editing only that body must reach the check and the
    // run.
    let event = "class Event { String tag() { return \"event\"; } }\n";
    let main = "class Main { static void main() { System.out.println(new Event().shout()); } }\n";
    let step = |body: &str| {
        let x = format!("use MultiJava;\nString Event.shout() {{ {body} }}\n");
        sources(&[("e.maya", event), ("x.maya", &x), ("main.maya", main)])
    };
    let steps = [
        step("return this.tag() + \"!\";"),
        step("return this.tag() + \"?\";"),
        step("return 7;"),
        step("return this.tag() + \"!\";"),
    ];
    let out = warm_matches_cold(&steps, &RequestOpts::default());
    assert_eq!(out[0].stdout, "event!\n");
    assert_eq!(out[1].stdout, "event?\n");
    assert!(
        !out[2].success && out[2].stderr.contains("x.maya:2:"),
        "{}",
        out[2].stderr
    );
    assert_eq!(out[3].stdout, "event!\n");
}

#[test]
fn a_failing_member_among_clean_ones_reports_when_its_file_is_edited() {
    // A's bodies all force purely, but `bad` never checks: its class is
    // never recorded clean, so every request checks it again, including
    // those that edit another class of the same file after it.
    let step = |n: &str| {
        let a = format!(
            "class A {{
    static int ok1() {{ return 1; }}
    static int bad() {{ return \"not an int\"; }}
    static int ok2() {{ return 2; }}
}}
class B {{ static int n() {{ return {n}; }} }}
"
        );
        let main = "class Main { static void main() { System.out.println(A.ok1() + B.n()); } }\n";
        sources(&[("a.maya", &a), ("main.maya", main)])
    };
    for o in warm_matches_cold(
        &[step("1"), step("2"), step("3"), step("2")],
        &RequestOpts::default(),
    ) {
        assert!(!o.success);
        assert!(
            o.stderr
                .contains("a.maya:3:31: error: cannot return java.lang.String"),
            "{}",
            o.stderr
        );
    }
}

#[test]
fn expanded_output_after_warm_edits_equals_cold() {
    let opts = RequestOpts {
        expand: true,
        ..RequestOpts::default()
    };
    let steps = [
        six_files("return 1;"),
        six_files("int z = 40; return z + 1;"),
        six_files("return 1;"),
        six_files("return 1 + 0;"),
    ];
    let out = warm_matches_cold(&steps, &opts);
    assert!(out.iter().all(|o| o.success));
    assert!(out[1].stdout.contains("int z = 40;"), "{}", out[1].stdout);
}

#[test]
fn sessions_sharing_one_force_cache_keep_their_own_classes() {
    // A `mayad` worker's clients share one force cache. Both have a class
    // `K` with different bodies, and an identical `S` in the same file
    // slot whose class id differs between them.
    let cache = Rc::new(maya::core::ForceCache::new());
    let installer: Rc<dyn Fn(&Compiler)> = Rc::new(|c: &Compiler| {
        maya::macrolib::install(c);
        maya::multijava::install(c);
    });
    let mut clients: Vec<Session> = (0..2)
        .map(|_| {
            Session::new(
                CompileOptions {
                    force_cache: Some(cache.clone()),
                    ..CompileOptions::default()
                },
                Some(installer.clone()),
            )
        })
        .collect();
    let s = "class S { static int s() { return 100; } }\n";
    let main = "class Main { static void main() { System.out.println(new K().f() + S.s()); } }\n";
    let files = |client: usize, n: u32| {
        let k = if client == 0 {
            format!("class K {{ int f() {{ return {n}; }} }}\n")
        } else {
            format!("class Pad {{ }}\nclass K {{ int f() {{ return {n} * 2; }} }}\n")
        };
        sources(&[("k.maya", &k), ("s.maya", s), ("main.maya", main)])
    };
    let opts = RequestOpts::default();
    for round in 0..4u32 {
        for (client, warm) in clients.iter_mut().enumerate() {
            let step = files(client, 1 + round % 2);
            let w = warm.compile_sources(&step, &opts);
            let c = session().compile_sources(&step, &opts);
            assert_eq!(sig(&w), sig(&c), "round {round}, client {client}");
            let k = (1 + round % 2) * if client == 0 { 1 } else { 2 };
            assert_eq!(w.stdout, format!("{}\n", k + 100));
        }
    }
}

/// Five library files of three methods each, and `Main`.
fn six_files(edit: &str) -> Vec<(String, String)> {
    let mut files = Vec::new();
    for i in 0..5 {
        let first = if i == 2 { edit } else { "return 1;" };
        files.push((
            format!("c{i}.maya"),
            format!(
                "class C{i} {{
    int a() {{ {first} }}
    int b(int k) {{ return k + {i}; }}
    static int c() {{ return {i} * 2; }}
}}
"
            ),
        ));
    }
    files.push((
        "main.maya".to_owned(),
        "class Main {
    static void main() {
        System.out.println(new C0().a() + new C2().a() + new C4().b(3) + C1.c());
    }
}
"
        .to_owned(),
    ));
    files
}

#[test]
fn a_body_edit_rechecks_only_its_file() {
    let opts = RequestOpts::default();
    let mut warm = session();
    let (first, cold) = traced(&mut warm, &six_files("return 1;"), &opts);
    assert!(first.success, "{}", first.stderr);
    let members = cold.cache(CacheId::CheckCache).misses;
    assert_eq!(members, 16, "every member is keyed on a cold request");
    assert_eq!(cold.cache(CacheId::CheckCache).hits, 0);
    assert_eq!(cold.cache(CacheId::ClassBodyCache).misses, 6);

    // A longer first body shifts every member of c2.maya.
    let edited = six_files("int z = 40; return z + 1;");
    let (out, warm_report) = traced(&mut warm, &edited, &opts);
    let (fresh, fresh_report) = traced(&mut session(), &edited, &opts);
    assert_eq!(sig(&out), sig(&fresh));
    assert_eq!(out.stdout, "51\n");
    let classes = warm_report.cache(CacheId::ClassBodyCache);
    assert_eq!(
        (classes.hits, classes.misses),
        (5, 1),
        "the five unchanged classes replay in one probe each"
    );
    let checks = warm_report.cache(CacheId::CheckCache);
    assert_eq!(
        (checks.hits, checks.misses),
        (0, 3),
        "the edited class's three members are checked, and no member of an \
         unchanged class is even probed"
    );
    assert_eq!(
        warm_report.cache(CacheId::ForceCache).hits,
        0,
        "replayed bodies are installed forced, without a force-cache probe"
    );
    assert_eq!(
        warm_report.counter(Counter::LazyNodesForced),
        fresh_report.counter(Counter::LazyNodesForced),
        "replayed bodies count as forced, as a cold compile's are"
    );
    assert_eq!(
        warm_report.counter(Counter::LazyNodesCreated),
        fresh_report.counter(Counter::LazyNodesCreated),
        "replayed bodies count as created, as a cold compile's are"
    );
}

#[test]
fn a_cold_session_counts_the_lazies_a_plain_compile_creates() {
    let files = six_files("return 1;");
    let (out, cold) = traced(&mut session(), &files, &RequestOpts::default());
    assert!(out.success, "{}", out.stderr);
    let t = telemetry::Session::start(telemetry::Config::default());
    let c = Compiler::new();
    maya::macrolib::install(&c);
    maya::multijava::install(&c);
    for (name, text) in &files {
        c.add_source(name, text).unwrap();
    }
    c.compile().unwrap();
    assert_eq!(c.run_main("Main").unwrap(), out.stdout);
    let plain = t.finish();
    assert_eq!(
        cold.counter(Counter::LazyNodesCreated),
        plain.counter(Counter::LazyNodesCreated),
        "a session's cache templates are not lazies a compile created"
    );
    assert_eq!(
        cold.counter(Counter::LazyNodesForced),
        plain.counter(Counter::LazyNodesForced)
    );
}
