//! Identity guard for the LALR(1) table generator.
//!
//! Each grammar below is rendered through the public `Tables` API in a form
//! that depends on neither state numbering nor interner order: states are
//! renumbered by a breadth-first walk from the start state through shifts
//! (terminals in content-key order) and gotos (nonterminals by id), and
//! terminals are written by content, never by `TermId` or `Symbol` index.
//! The digests were recorded with the hash-map generator this one replaced,
//! so any change to the automaton other than state numbering fails here.
//!
//! The tables of the base grammar and of each shipped extension over it
//! reach every process compiled in, and other extensions' are derived from
//! their parent's automaton; the tests after the digests hold both to a
//! full build of the same grammar.

use maya_ast::NodeKind;
use maya_core::{Base, Compiler, Shipped};
#[cfg(debug_assertions)]
use maya_core::{CompileOptions, RequestOpts, Session};
use maya_grammar::{ActionEntry, Built, Grammar, NtId, RhsItem, Tables, Terminal};
use maya_lexer::Delim;
use maya_telemetry as telemetry;
#[cfg(debug_assertions)]
use std::cell::Cell;
use std::collections::HashMap;
use std::fmt::Write as _;
#[cfg(debug_assertions)]
use std::rc::Rc;

/// Orders terminals by what they are, never by interner index.
fn content_key(t: Terminal) -> (u8, &'static str, u32) {
    match t {
        Terminal::Tok(k) => (0, k.name(), 0),
        Terminal::Word(s) => (1, s.as_str(), 0),
        Terminal::Tree(d) => (2, d.tree_name(), 0),
        Terminal::Goal(nt) => (3, "", nt.0),
        Terminal::EndOf(nt) => (4, "", nt.0),
        Terminal::End => (5, "", 0),
    }
}

fn render_term(t: Terminal) -> String {
    let (tag, text, n) = content_key(t);
    format!("{tag}:{text}:{n}")
}

fn expected_in(t: &Tables, s: u32) -> String {
    let mut expected: Vec<String> = t.expected_in(s).into_iter().map(render_term).collect();
    expected.sort();
    expected.join(" ")
}

/// The canonical text of `t`: FIRST sets and nullability per nonterminal,
/// then every reachable state's explicit terminals, effective actions and
/// gotos, under breadth-first state numbers.
fn canonical(g: &Grammar, t: &Tables) -> String {
    let mut terms: Vec<u32> = (0..t.n_terms() as u32).collect();
    terms.sort_by_key(|&id| content_key(t.term(id)));
    let nts: Vec<NtId> = (0..g.nt_count() as u32).map(NtId).collect();

    let mut out = String::new();
    for &nt in &nts {
        let mut first: Vec<String> = t
            .first_of_nt(nt)
            .iter()
            .map(|id| render_term(t.term(id)))
            .collect();
        first.sort();
        writeln!(
            out,
            "first {} {} [{}]",
            nt.0,
            t.nullable(nt),
            first.join(" ")
        )
        .unwrap();
    }

    let mut number: HashMap<u32, usize> = HashMap::from([(t.start_state(), 0)]);
    let mut order = vec![t.start_state()];
    let mut next = 0;
    while next < order.len() {
        let s = order[next];
        writeln!(out, "state {next} expects [{}]", expected_in(t, s)).unwrap();
        next += 1;
        let mut visit = |j: u32| {
            *number.entry(j).or_insert_with(|| {
                order.push(j);
                order.len() - 1
            })
        };
        for &id in &terms {
            let rendered = match t.action(s, id) {
                None => continue,
                Some(ActionEntry::Shift(j)) => format!("shift {}", visit(j)),
                Some(ActionEntry::Reduce(p)) => format!("reduce {}", p.0),
                Some(ActionEntry::Accept) => "accept".to_owned(),
            };
            writeln!(out, "  {} {rendered}", render_term(t.term(id))).unwrap();
        }
        for &nt in &nts {
            if let Some(j) = t.goto(s, nt) {
                writeln!(out, "  goto {} {}", nt.0, visit(j)).unwrap();
            }
        }
    }
    writeln!(out, "reachable {} of {}", order.len(), t.n_states()).unwrap();
    out
}

/// 64-bit FNV-1a of the canonical text.
fn digest(g: &Grammar) -> String {
    let tables = g.tables().expect("grammar is LALR(1)");
    let text = canonical(g, &tables);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}/{}", tables.n_states())
}

/// The E15 bench's extension: `n` foreach-like statement productions.
fn base_plus(base: &Base, n: usize) -> Grammar {
    let mut ext = base.grammar.extend();
    for i in 0..n {
        ext.add_production(
            NodeKind::Statement,
            &[
                RhsItem::word(&format!("kw{i}")),
                RhsItem::Subtree(Delim::Paren, vec![RhsItem::Kind(NodeKind::Expression)]),
                RhsItem::Lazy(Delim::Brace, NodeKind::BlockStmts),
            ],
            None,
        )
        .expect("valid production");
    }
    ext.finish()
}

fn global_grammar(c: &Compiler) -> Grammar {
    c.inner().global.borrow().grammar.clone()
}

#[test]
fn table_digests_match_the_reference_generator() {
    let base = Base::build();
    let c = Compiler::new();
    maya_macrolib::install(&c);
    maya_multijava::install(&c);
    c.use_globally("Foreach").expect("Foreach imports");
    let with_foreach = global_grammar(&c);
    c.use_globally("MultiJava").expect("MultiJava imports");
    let with_multijava = global_grammar(&c);

    let got = [
        ("base", digest(&base.grammar)),
        ("base+1", digest(&base_plus(&base, 1))),
        ("base+4", digest(&base_plus(&base, 4))),
        ("base+16", digest(&base_plus(&base, 16))),
        ("base+Foreach", digest(&with_foreach)),
        ("base+Foreach+MultiJava", digest(&with_multijava)),
    ];
    let expected = [
        ("base", "38ea43f85b69aa1c/407"),
        ("base+1", "adb70aeea55ac119/410"),
        ("base+4", "2e88e8c432a6ecb1/419"),
        ("base+16", "2465c7eb2a70384f/455"),
        ("base+Foreach", "d929a50920a43f88/411"),
        ("base+Foreach+MultiJava", "519a92091c471a4b/420"),
    ];
    let rendered: Vec<String> = got
        .iter()
        .map(|(n, d)| format!("(\"{n}\", \"{d}\"),"))
        .collect();
    for ((name, d), (_, want)) in got.iter().zip(expected) {
        assert_eq!(
            d,
            want,
            "{name}: table digest drifted; all digests now:\n{}",
            rendered.join("\n")
        );
    }
}

/// The base grammar, then the base extended by each shipped extension's
/// productions as a `use` adds them: the grammars `build.rs` compiles in.
fn shipped_grammars(base: &Base) -> Vec<(String, Grammar)> {
    let mut out = vec![("base".to_owned(), base.grammar.clone())];
    out.extend(Shipped::ALL.map(|ext| (format!("{ext:?}"), ext.extend(&base.grammar))));
    out
}

#[test]
fn the_embedded_tables_are_fresh_builds() {
    let base = Base::build();
    let embedded = maya_core::embedded_tables();
    let grammars = shipped_grammars(&base);
    assert_eq!(embedded.len(), grammars.len());
    for (e, (name, g)) in embedded.iter().zip(&grammars) {
        let fresh = maya_grammar::embedding(g).expect("a shipped grammar is LALR(1)");
        assert_eq!(e.hash(), g.content_hash(), "{name}: run-time grammar");
        assert_eq!(e.hash(), fresh.hash, "{name}");
        let full = g.build_full().unwrap();
        assert!(
            e.read(g).is_some_and(|t| t == **full.tables()),
            "{name}: embedded tables"
        );
        assert_eq!(
            e.has_automaton(),
            name == "base",
            "{name}: only the base grammar's automaton is compiled in"
        );
    }
    // A cold thread serves each of them from the binary, building nothing.
    std::thread::spawn(|| {
        for (name, g) in shipped_grammars(&Base::build()) {
            let s = telemetry::Session::start(telemetry::Config::default());
            let tables = g.extend().finish().tables().unwrap();
            let r = s.finish();
            assert_eq!(r.counter(telemetry::Counter::TablesBuilt), 0, "{name}");
            assert_eq!(r.counter(telemetry::Counter::TableCacheHits), 1, "{name}");
            let full = g.build_full().unwrap();
            assert!(*tables == **full.tables(), "{name}");
        }
    })
    .join()
    .unwrap();
}

/// `g` derived from `from`, which must equal a full build of `g`.
fn derive_checked(g: &Grammar, from: &Built, what: &str) -> Built {
    let derived = g
        .derive_from(from)
        .unwrap_or_else(|| panic!("{what}: not derivable"))
        .unwrap_or_else(|e| panic!("{what}: {e}"));
    let full = g.build_full().unwrap();
    assert!(
        **derived.tables() == **full.tables(),
        "{what}: derived differs from full"
    );
    derived
}

#[test]
fn derived_tables_equal_full_builds_for_e15_and_the_real_imports() {
    let base = Base::build();
    let base_built = base.grammar.build_full().unwrap();
    for n in [1, 4, 16] {
        derive_checked(&base_plus(&base, n), &base_built, &format!("base+{n}"));
    }
    let c = Compiler::new();
    maya_macrolib::install(&c);
    maya_multijava::install(&c);
    let mut parent = base_built.clone();
    for name in ["Foreach", "MultiJava", "Assert", "Format", "Typedef"] {
        c.use_globally(name).expect("the extension imports");
        let g = global_grammar(&c);
        // From the grammar it extends, and from the base directly.
        derive_checked(&g, &base_built, &format!("base..{name}"));
        parent = derive_checked(&g, &parent, name);
    }
}

/// The `-use` arguments of a corpus program's `// mayac:` lines.
#[cfg(debug_assertions)]
fn uses_of(text: &str) -> Vec<String> {
    let mut uses = Vec::new();
    for line in text.lines() {
        if let Some(args) = line.trim().strip_prefix("// mayac:") {
            let mut it = args.split_whitespace();
            while let Some(a) = it.next() {
                if a == "-use" {
                    uses.extend(it.next().map(str::to_owned));
                }
            }
        }
    }
    uses
}

/// Every program of the three corpora compiles through the table cache,
/// which in a debug build holds each derived table set, and each compiled-in
/// one on first use, to a full build of the same grammar.
#[cfg(debug_assertions)]
#[test]
fn every_corpus_import_chain_derives_what_a_full_build_makes() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let derived = Rc::new(Cell::new(0u32));
    let seen = derived.clone();
    let installer: Rc<dyn Fn(&Compiler)> = Rc::new(|c: &Compiler| {
        maya_macrolib::install(c);
        maya_multijava::install(c);
    });
    let mut programs = 0;
    for dir in ["tests/corpus", "mayabench/corpus", "examples/maya"] {
        let mut files: Vec<_> = std::fs::read_dir(format!("{root}/{dir}"))
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "maya"))
            .collect();
        files.sort();
        for path in files {
            let text = std::fs::read_to_string(&path).unwrap();
            let opts = RequestOpts {
                uses: uses_of(&text),
                ..RequestOpts::default()
            };
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            maya_grammar::clear_table_cache();
            let seen = seen.clone();
            let s = telemetry::Session::start(telemetry::Config {
                sink: Some(Rc::new(move |e: &telemetry::TraceEvent| {
                    if e.kind == telemetry::TraceKind::TableBuild && e.detail.starts_with("derived")
                    {
                        seen.set(seen.get() + 1);
                    }
                })),
                ..telemetry::Config::default()
            });
            let mut session = Session::new(CompileOptions::default(), Some(installer.clone()));
            let out = session.compile_sources(&[(name.clone(), text)], &opts);
            s.finish();
            assert!(
                !out.stderr.contains("derived tables"),
                "{name}: {}",
                out.stderr
            );
            programs += 1;
        }
    }
    assert!(programs > 80, "{programs} programs");
    // 25 derivations at this writing: import chains and programs that
    // declare syntax. A program whose imports stop at one shipped
    // extension derives nothing, its tables being compiled in.
    assert!(derived.get() > 20, "only {} derivations ran", derived.get());
}
