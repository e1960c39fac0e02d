//! Warm requests that skip the checks of unchanged members must still
//! answer exactly what a cold compile answers.
//!
//! A session's force cache records the members whose check ran clean,
//! keyed by one digest of every class signature plus the member's own
//! inputs. Each hazard below edits, through one warm session, something a
//! member's check depends on without touching that member's tokens, and
//! compares every outcome with a fresh session compiling the same sources.
//! The last test pins the mechanism itself: after a body edit, only the
//! edited file's members are checked again.

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
    let request = |s: &mut Session, files: &[(String, String)]| {
        let t = telemetry::Session::start(telemetry::Config::default());
        let out = s.compile_sources(files, &opts);
        (out, t.finish())
    };
    let mut warm = session();
    let (first, cold) = request(&mut warm, &six_files("return 1;"));
    assert!(first.success, "{}", first.stderr);
    let members = cold.cache(CacheId::CheckCache).misses;
    assert_eq!(members, 16, "every member is keyed on a cold request");
    assert_eq!(cold.cache(CacheId::CheckCache).hits, 0);

    // A longer first body shifts every member of c2.maya.
    let edited = six_files("int z = 40; return z + 1;");
    let (out, warm_report) = request(&mut warm, &edited);
    let (fresh, fresh_report) = request(&mut session(), &edited);
    assert_eq!(sig(&out), sig(&fresh));
    assert_eq!(out.stdout, "51\n");
    let checks = warm_report.cache(CacheId::CheckCache);
    assert_eq!(
        checks.misses, 3,
        "the edited file's three members are checked"
    );
    assert_eq!(checks.hits, members - 3, "every other member is not");
    assert_eq!(
        warm_report.counter(Counter::LazyNodesForced),
        fresh_report.counter(Counter::LazyNodesForced),
        "skipped checks still force every body a cold compile forces"
    );
}
