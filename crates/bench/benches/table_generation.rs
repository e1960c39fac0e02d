//! E15: LALR(1) table (re)generation — the cost of extending the grammar,
//! which every `use` of a syntax-adding extension pays (paper §4.1); for
//! E26, what a persistent-store hit costs instead of a build; for E34,
//! what a process pays for the base tables compiled into it, and an
//! extension's tables derived from its parent's automaton against a full
//! build; and for E40, what a `use` of a shipped extension, whose tables
//! are compiled in too, costs against deriving or building them.

use maya_ast::NodeKind;
use maya_bench::timing::{bench_with, Options};
use maya_core::{Base, Compiler, Shipped};
use maya_grammar::{EmbeddedTables, Grammar, RhsItem, TableDisk};
use maya_lexer::Delim;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Duration;

/// The table entries of a persistent store, kept in memory so a hit costs
/// only the content hash, a payload copy and the store's decode.
#[derive(Default)]
struct MemDisk(RefCell<HashMap<u128, Vec<u8>>>);

impl TableDisk for MemDisk {
    fn load(&self, hash: u128) -> Option<Vec<u8>> {
        self.0.borrow().get(&hash).cloned()
    }

    fn save(&self, hash: u128, payload: &[u8]) {
        self.0.borrow_mut().insert(hash, payload.to_vec());
    }
}

/// The E15 extension: `n` foreach-like statement productions.
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
        .unwrap();
    }
    ext.finish()
}

fn compiler() -> Compiler {
    let c = Compiler::new();
    maya_macrolib::install(&c);
    maya_multijava::install(&c);
    c
}

/// The grammars along the import chain Foreach → MultiJava → Assert →
/// Format → Typedef, each extending the one before it.
fn import_chain() -> Vec<(&'static str, Grammar)> {
    let c = compiler();
    ["Foreach", "MultiJava", "Assert", "Format", "Typedef"]
        .into_iter()
        .map(|name| {
            c.use_globally(name).expect("the extension imports");
            (name, c.inner().global.borrow().grammar.clone())
        })
        .collect()
}

/// The grammar a `use` of each shipped extension makes of the base
/// grammar, with its tables as compiled into the binary.
fn shipped_imports() -> Vec<(Shipped, Grammar, &'static EmbeddedTables)> {
    Shipped::ALL
        .into_iter()
        .zip(&maya_core::embedded_tables()[1..])
        .map(|(ext, embedded)| {
            let c = compiler();
            c.use_globally(&format!("{ext:?}"))
                .expect("the extension imports");
            let g = c.inner().global.borrow().grammar.clone();
            assert_eq!(g.content_hash(), embedded.hash(), "{ext:?} is compiled in");
            (ext, g, embedded)
        })
        .collect()
}

fn main() {
    let base = Base::build();
    let opts = Options {
        warmup: Duration::from_millis(300),
        measurement: Duration::from_millis(1200),
        samples: 20,
    };
    println!("table_generation");
    // Full builds, past every cache layer: through `tables()` every timed
    // build after the first would be a memo hit.
    bench_with("base_grammar", opts.clone(), || {
        base.grammar.build_full().expect("LALR(1)")
    });

    for n in [1usize, 4, 16] {
        bench_with(
            &format!("base_plus_n_productions/{n}"),
            opts.clone(),
            || base_plus(&base, n).build_full().expect("LALR(1)"),
        );
    }

    // What every process pays for the base tables now: the content hash of
    // a fresh snapshot and the lookup of the embedded tables (read once
    // per process, before the first sample), and that read, timed alone.
    bench_with("base_grammar/embedded", opts.clone(), || {
        let g = base.grammar.extend().finish();
        g.tables().expect("LALR(1)")
    });
    let base_embedded = &maya_core::embedded_tables()[0];
    bench_with("base_grammar/read", opts.clone(), || {
        base_embedded.read(&base.grammar).expect("compiled in")
    });

    // Derivations from the base automaton against full builds of the same
    // grammars.
    let base_built = base.grammar.build_full().expect("LALR(1)");
    for n in [1usize, 4, 16] {
        let g = base_plus(&base, n);
        bench_with(
            &format!("base_plus_n_productions/{n}/derived"),
            opts.clone(),
            || {
                g.derive_from(&base_built)
                    .expect("derivable")
                    .expect("LALR(1)")
            },
        );
    }

    // Each shipped extension imported over the base grammar: built in
    // full, derived from the base automaton, and served from the tables
    // compiled in (as above: the hash and lookup, and the once-per-process
    // read).
    for (ext, g, embedded) in shipped_imports() {
        bench_with(&format!("import/{ext:?}/full"), opts.clone(), || {
            g.build_full().expect("LALR(1)")
        });
        bench_with(&format!("import/{ext:?}/derived"), opts.clone(), || {
            g.derive_from(&base_built)
                .expect("derivable")
                .expect("LALR(1)")
        });
        bench_with(&format!("import/{ext:?}/embedded"), opts.clone(), || {
            let g = g.extend().finish();
            g.tables().expect("LALR(1)")
        });
        bench_with(&format!("import/{ext:?}/read"), opts.clone(), || {
            embedded.read(&g).expect("compiled in")
        });
    }

    // An import chain, each grammar derived from the one it extends: past
    // the first import, no grammar of a chain is compiled in.
    let mut parent = base_built;
    for (name, g) in import_chain() {
        bench_with(&format!("chain/{name}/full"), opts.clone(), || {
            g.build_full().expect("LALR(1)")
        });
        bench_with(&format!("chain/{name}/derived"), opts.clone(), || {
            g.derive_from(&parent).expect("derivable").expect("LALR(1)")
        });
        parent = g.build_full().expect("LALR(1)");
    }

    // A store hit for an extension (the base grammar never reaches the
    // store): the in-process memo is cleared before every lookup, so each
    // one reads the stored payload.
    maya_grammar::clear_table_cache();
    maya_grammar::set_table_disk(Some(Rc::new(MemDisk::default())));
    let g = base_plus(&base, 1);
    g.extend().finish().tables().expect("LALR(1)");
    bench_with("base_plus_n_productions/1/store_hit", opts, || {
        maya_grammar::clear_table_cache();
        let g = g.extend().finish();
        g.tables().expect("LALR(1)")
    });
    maya_grammar::set_table_disk(None);
}
