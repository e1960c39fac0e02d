//! E15: LALR(1) table (re)generation — the cost of extending the grammar,
//! which every `use` of a syntax-adding extension pays (paper §4.1) — and,
//! for E26, what a persistent-store hit costs instead of a build.

use maya_ast::NodeKind;
use maya_bench::timing::{bench_with, Options};
use maya_core::Base;
use maya_grammar::{RhsItem, TableDisk};
use maya_lexer::Delim;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Duration;

/// The table entries of a persistent store, kept in memory so a hit costs
/// only the content hash, a payload copy and `decode_tables`.
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

fn main() {
    let base = Base::build();
    let opts = Options {
        warmup: Duration::from_millis(300),
        measurement: Duration::from_millis(1200),
        samples: 20,
    };
    println!("table_generation");
    // The extended snapshots share the base grammar's content hash (or one
    // another's across iterations), so with the table memo on every timed
    // build after the first would be a memo hit.
    maya_grammar::set_table_cache_enabled(false);

    bench_with("base_grammar", opts.clone(), || {
        let g = base.grammar.extend().finish();
        g.tables().expect("LALR(1)")
    });

    for n in [1usize, 4, 16] {
        bench_with(&format!("base_plus_n_productions/{n}"), opts.clone(), || {
            let mut ext = base.grammar.extend();
            for i in 0..n {
                ext.add_production(
                    NodeKind::Statement,
                    &[
                        RhsItem::word(Box::leak(format!("kw{i}").into_boxed_str())),
                        RhsItem::Subtree(Delim::Paren, vec![RhsItem::Kind(NodeKind::Expression)]),
                        RhsItem::Lazy(Delim::Brace, NodeKind::BlockStmts),
                    ],
                    None,
                )
                .unwrap();
            }
            let g = ext.finish();
            g.tables().expect("LALR(1)")
        });
    }
    maya_grammar::set_table_cache_enabled(true);

    // A store hit for the base grammar: the in-process memo is cleared
    // before every lookup, so each one reads the stored payload.
    maya_grammar::clear_table_cache();
    maya_grammar::set_table_disk(Some(Rc::new(MemDisk::default())));
    base.grammar.extend().finish().tables().expect("LALR(1)");
    bench_with("base_grammar/store_hit", opts, || {
        maya_grammar::clear_table_cache();
        let g = base.grammar.extend().finish();
        g.tables().expect("LALR(1)")
    });
    maya_grammar::set_table_disk(None);
}
