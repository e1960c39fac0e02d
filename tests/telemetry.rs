//! End-to-end telemetry: the counters must make the paper's cost model
//! observable through the public pipeline.

use maya::telemetry::{self, Counter, Phase};
use maya::Compiler;

/// An extension library with two source Mayans sharing one production.
const TWO_MAYAN_EXT: &str = r#"
    abstract Statement syntax(MethodName(Formal) lazy(BraceTree, BlockStmts));

    Statement syntax
    EForEach(Expression:java.util.Enumeration enumExp
             \. foreach(Formal var)
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

    Statement syntax
    UnusedLog(Expression:java.lang.String msg
              \. log(Formal var)
              lazy(BraceTree, BlockStmts) body)
    {
        return new Statement {
            { System.out.println($msg); $body }
        };
    }
"#;

const APP: &str = r#"
    import java.util.*;
    class Main {
        static void main() {
            Hashtable h = new Hashtable();
            h.put("k", "v");
            use EForEach;
            h.keys().foreach(String st) {
                System.out.println(st);
            }
        }
    }
"#;

/// The paper's laziness claim (§4), measured: the `UnusedLog` Mayan is
/// compiled into a lazy `expand` method body that is registered but never
/// fired, so compiling eagerly would parse strictly more nodes than the
/// lazy pipeline actually forces.
#[test]
fn unused_mayan_body_is_never_forced() {
    let s = telemetry::Session::start(telemetry::Config::default());
    let c = Compiler::new();
    c.add_source("Ext.maya", TWO_MAYAN_EXT).unwrap();
    c.add_source("Main.maya", APP).unwrap();
    c.compile().unwrap();
    let out = c.run_main("Main").unwrap();
    let r = s.finish();
    assert_eq!(out, "k\n");
    let created = r.counter(Counter::LazyNodesCreated);
    let forced = r.counter(Counter::LazyNodesForced);
    assert!(
        forced < created,
        "an unused Mayan body must stay unforced: forced={forced} created={created}"
    );
    // And never more forced than created, by construction.
    assert!(forced <= created);
}

/// The counters cover the whole pipeline on an ordinary compile.
#[test]
fn full_pipeline_counters_are_populated() {
    let s = telemetry::Session::start(telemetry::Config::default());
    let c = maya::macrolib::compiler_with_macros();
    let out = c
        .compile_and_run(
            "Main.maya",
            // `Once` is declared here, so no binary ships its grammar's
            // tables and the compile must build some.
            r#"
            import java.util.*;
            abstract Statement syntax(once lazy(BraceTree, BlockStmts));
            Statement syntax
            Once(once lazy(BraceTree, BlockStmts) body)
            {
                return new Statement { { $body } };
            }
            class Main {
                static void main() {
                    Vector v = new Vector();
                    v.addElement("x");
                    use Foreach;
                    use Once;
                    once { v.elements().foreach(String st) { System.out.println(st); } }
                }
            }
            "#,
            "Main",
        )
        .unwrap();
    let r = s.finish();
    assert_eq!(out, "x\n");
    for c in [
        Counter::TokensLexed,
        Counter::TokenTreesBuilt,
        Counter::FilesLexed,
        Counter::TablesBuilt,
        Counter::GrammarExtensions,
        Counter::ParserShifts,
        Counter::ParserReductions,
        Counter::LazyNodesCreated,
        Counter::LazyNodesForced,
        Counter::DispatchReductions,
        Counter::DispatchCandidates,
        Counter::DispatchTests,
        Counter::MayansFired,
        Counter::TemplatesCompiled,
        Counter::TemplatesInstantiated,
        Counter::HygieneRenames,
        Counter::InterpCalls,
    ] {
        assert!(r.counter(c) > 0, "counter {} must be non-zero", c.name());
    }
    // The type-narrowed foreach dispatch runs static-type tests.
    assert!(r.counter(Counter::DispatchTypeTests) > 0);
    for p in [Phase::Lex, Phase::Parse, Phase::Dispatch, Phase::Force, Phase::Interp] {
        assert!(r.phase_calls(p) > 0, "phase {} must be entered", p.name());
    }
}

/// With `capture_spans` on, the pipeline produces a well-formed span
/// forest: parents always open before their children (backward indices),
/// children lie inside their parent's interval, and every phase that ran
/// has a span.
#[test]
fn spans_nest_and_cover_phases() {
    let s = telemetry::Session::start(telemetry::Config {
        capture_spans: true,
        ..telemetry::Config::default()
    });
    let c = Compiler::new();
    c.add_source("Ext.maya", TWO_MAYAN_EXT).unwrap();
    c.add_source("Main.maya", APP).unwrap();
    c.compile().unwrap();
    let out = c.run_main("Main").unwrap();
    let r = s.finish();
    assert_eq!(out, "k\n");
    assert!(!r.spans.is_empty(), "span capture must record spans");

    let names: Vec<&str> = r.spans.iter().map(|sp| sp.name.as_ref()).collect();
    for want in ["lex", "parse", "dispatch", "interp", "lex_file"] {
        assert!(names.contains(&want), "missing span {want:?} in {names:?}");
    }
    // lex_file spans carry the source file name as an argument.
    let lex_file = r
        .spans
        .iter()
        .find(|sp| sp.name == "lex_file")
        .expect("lex_file span");
    assert!(
        lex_file.args.iter().any(|(k, v)| *k == "file" && v.contains(".maya")),
        "lex_file args: {:?}",
        lex_file.args
    );

    let mut saw_nested = false;
    for (i, sp) in r.spans.iter().enumerate() {
        if sp.parent == telemetry::NO_PARENT {
            continue;
        }
        saw_nested = true;
        let p = sp.parent as usize;
        assert!(p < i, "parent {p} of span {i} must open earlier");
        let parent = &r.spans[p];
        assert!(sp.start_ns >= parent.start_ns, "child starts inside parent");
        assert!(
            sp.start_ns + sp.dur_ns <= parent.start_ns + parent.dur_ns,
            "child {:?} ends inside parent {:?}",
            sp.name,
            parent.name
        );
    }
    assert!(saw_nested, "at least one span must nest");

    // Per-file lexing also lands in the lex_file_ns histogram.
    let h = r.hist("lex_file_ns").expect("lex_file_ns histogram");
    assert!(h.count() >= 2, "two files lexed, got {}", h.count());
}

/// The Chrome trace export is valid JSON with one complete ("X") event per
/// span, parseable by the repo's own JSON parser.
#[test]
fn chrome_trace_json_round_trips() {
    use maya::core::json::{parse_json, Json};

    let s = telemetry::Session::start(telemetry::Config {
        capture_spans: true,
        ..telemetry::Config::default()
    });
    let c = Compiler::new();
    c.add_source("Ext.maya", TWO_MAYAN_EXT).unwrap();
    c.add_source("Main.maya", APP).unwrap();
    c.compile().unwrap();
    let r = s.finish();

    let doc = parse_json(&r.chrome_trace_json()).expect("trace must parse");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert_eq!(events.len(), r.spans.len());
    for e in events {
        assert_eq!(e.get("ph").and_then(Json::as_str), Some("X"));
        assert!(e.get("name").and_then(Json::as_str).is_some());
        assert!(e.get("ts").is_some() && e.get("dur").is_some());
        assert!(e.get("pid").and_then(Json::as_u64).is_some());
        assert!(e.get("tid").and_then(Json::as_u64).is_some());
    }
}

/// Dispatch traces identify the winning Mayan and the work done to pick it.
#[test]
fn dispatch_trace_names_the_winner() {
    let s = telemetry::Session::start(telemetry::Config {
        capture_events: true,
        event_filter: Some("EForEach".into()),
        ..telemetry::Config::default()
    });
    let c = Compiler::new();
    c.add_source("Ext.maya", TWO_MAYAN_EXT).unwrap();
    c.add_source("Main.maya", APP).unwrap();
    c.compile().unwrap();
    let r = s.finish();
    let dispatch = r
        .events
        .iter()
        .find(|e| e.kind == telemetry::TraceKind::Dispatch)
        .expect("a dispatch event naming EForEach");
    assert!(dispatch.detail.contains("reduced by Mayan `EForEach`"), "{}", dispatch.detail);
    assert!(dispatch.detail.contains("applicability test"), "{}", dispatch.detail);
}

/// The shipped source-extension example: two source Mayans imported, one
/// used.
fn eforeach_pair() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/maya");
    let read = |name: &str| std::fs::read_to_string(root.join(name)).unwrap();
    let c = Compiler::new();
    c.add_source("eforeach_ext.maya", &read("eforeach_ext.maya")).unwrap();
    c.add_source("eforeach_app.maya", &read("eforeach_app.maya")).unwrap();
    c.compile().unwrap();
    assert_eq!(c.run_main("Main").unwrap(), "paper -> PLDI 2002\nsystem -> Maya\n");
}

/// The macro library's `foreach` over a `Vector`.
fn macrolib_foreach() {
    let c = maya::macrolib::compiler_with_macros();
    let out = c.compile_and_run(
        "Main.maya",
        r#"
        import java.util.*;
        class Main {
            static void main() {
                Vector v = new Vector();
                v.addElement("a");
                v.addElement("b");
                use Foreach;
                v.elements().foreach(String st) {
                    System.out.println(st);
                }
            }
        }
        "#,
        "Main",
    );
    assert_eq!(out.unwrap(), "a\nb\n");
}

/// MultiJava's multimethods: three specialized `test` methods.
fn multijava() {
    let c = maya::multijava::compiler_with_multijava();
    let out = c.compile_and_run(
        "Main.maya",
        r#"
        use MultiJava;
        class Shape { }
        class Circle extends Shape { }
        class Rect extends Shape { }
        class Intersect {
            int test(Shape a, Shape b) { return 0; }
            int test(Shape@Circle a, Shape@Rect b) { return 1; }
            int test(Shape@Rect a, Shape@Circle b) { return 2; }
        }
        class Main {
            static void main() {
                Intersect it = new Intersect();
                Shape c = new Circle();
                Shape r = new Rect();
                System.out.println(it.test(c, r) + it.test(r, c) + it.test(c, c));
            }
        }
        "#,
        "Main",
    );
    assert_eq!(out.unwrap(), "3\n");
}

/// `dispatch_tests`, `lazy_nodes_created` and `lazy_nodes_forced` of
/// `workload`, run on a thread of its own so that no table memo or
/// dispatch index of an earlier compile on this thread serves it.
fn cold_work(workload: fn()) -> [u64; 3] {
    std::thread::spawn(move || {
        let s = telemetry::Session::start(telemetry::Config::default());
        workload();
        let r = s.finish();
        [
            Counter::DispatchTests,
            Counter::LazyNodesCreated,
            Counter::LazyNodesForced,
        ]
        .map(|c| r.counter(c))
    })
    .join()
    .unwrap()
}

/// The dispatch and laziness work of the example workloads, pinned
/// exactly as `[dispatch_tests, lazy_nodes_created, lazy_nodes_forced]`:
/// a change that makes the compiler test more candidates or force more
/// bodies fails here. A change that moves a count on purpose updates the
/// number and names the cause in its CHANGES.md line.
#[test]
fn example_workloads_do_pinned_work() {
    let work = [eforeach_pair, macrolib_foreach, multijava].map(cold_work);
    assert_eq!(
        work,
        [[216, 4, 3], [149, 2, 2], [168, 4, 4]],
        "eforeach pair, macrolib foreach, MultiJava"
    );
}
