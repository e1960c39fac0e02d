//! The base environment: the base MayaJava grammar (declared in
//! `maya-basegrammar`, its tables built with the compiler and embedded
//! here, with those of the base extended by each shipped extension), the
//! hygiene spec, and the built-in Mayans.
//!
//! Every node-type production dispatches through the Mayan dispatcher; the
//! built-in semantic actions (crate module `builtins`) are ordinary Mayans
//! imported into the base environment, so user Mayans can override base
//! syntax by lexical tie-breaking — exactly how the paper's MultiJava
//! implementation retranslates ordinary method declarations (§5.2).

use crate::builtins;
use maya_ast::NodeKind;
use maya_basegrammar::BaseGrammar;
pub use maya_basegrammar::{BaseProds, Shipped};
use maya_dispatch::DispatchEnv;
use maya_grammar::{EmbeddedTables, Grammar};
use maya_template::HygieneSpec;

// `EMBEDDED`: the tables built by `build.rs` with the compiler (see
// `maya_grammar::embedding`), the base grammar's with its automaton first,
// then those of the base extended by each `Shipped` extension in order.
include!(concat!(env!("OUT_DIR"), "/embedded_tables.rs"));

/// The tables compiled into this binary: the base grammar's, then the base
/// extended by each [`Shipped`] extension's, in [`Shipped::ALL`] order.
pub fn embedded_tables() -> &'static [EmbeddedTables] {
    &EMBEDDED
}

/// The built base environment: grammar snapshot, dispatch environment with
/// the built-in Mayans imported, hygiene information, and the production
/// name table.
#[derive(Clone)]
pub struct Base {
    pub grammar: Grammar,
    pub denv: DispatchEnv,
    pub hygiene: HygieneSpec,
    pub prods: BaseProds,
    /// The production-less marker nonterminal for statement-level `use`
    /// tails: only the ParseRest protocol can shift it, so the grammar has
    /// no list/continuation conflicts for use bodies.
    pub use_tail_stmts: maya_grammar::NtId,
    /// Likewise for declaration-level `use` tails.
    pub use_tail_decls: maya_grammar::NtId,
}

impl Base {
    /// Builds the base environment from scratch.
    pub fn build() -> Base {
        build_base()
    }

    /// A thread-cached clone of the base environment (grammar snapshots and
    /// dispatch environments are persistent, so sharing is safe and makes
    /// `Compiler::new` cheap).
    pub fn cached() -> Base {
        thread_local! {
            static BASE: std::cell::OnceCell<Base> = const { std::cell::OnceCell::new() };
        }
        BASE.with(|b| b.get_or_init(build_base).clone())
    }
}

/// Builds the base grammar and environment.
pub fn build_base() -> Base {
    maya_grammar::embed_tables(&EMBEDDED);
    let BaseGrammar {
        grammar,
        prods,
        use_tail_stmts,
        use_tail_decls,
    } = maya_basegrammar::build();

    // Hygiene: binding constructs are explicit in the grammar (§4.3).
    use NodeKind::*;
    let hygiene = HygieneSpec {
        binder_nts: vec![grammar.nt_for_kind(UnboundLocal).expect("UnboundLocal nt")],
        name_ref_prods: vec![prods.id("expr_name")],
        type_name_prods: vec![prods.id("type_qname")],
        dotted_ref_prods: vec![prods.id("field_access")],
        raw_tree_goals: vec![
            (prods.id("paren"), 0, Expression),
            (prods.id("cast"), 0, TypeName),
            (prods.id("array_access"), 1, Expression),
        ],
    };

    // Import built-in Mayans and register destructors.
    let mut env = DispatchEnv::new().extend();
    builtins::install(&grammar, &prods, &mut env);
    let denv = env.finish();

    Base {
        grammar,
        denv,
        hygiene,
        prods,
        use_tail_stmts,
        use_tail_decls,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maya_grammar::ProdId;

    #[test]
    fn base_grammar_is_lalr1() {
        let base = build_base();
        let tables = base
            .grammar
            .tables()
            .expect("the base MayaJava grammar must be conflict-free");
        assert!(tables.n_states() > 100);
        assert!(base.grammar.productions().len() > 100);
    }

    #[test]
    fn builtins_cover_every_dispatch_production() {
        let base = build_base();
        for (i, p) in base.grammar.productions().iter().enumerate() {
            if matches!(p.action, maya_grammar::Action::Dispatch) {
                let id = ProdId(i as u32);
                assert!(
                    !base.denv.mayans_for(id).is_empty(),
                    "production {:?} ({}) has no built-in Mayan",
                    base.prods.name_of(id),
                    i
                );
            }
        }
    }

}
