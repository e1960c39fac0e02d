//! The extensible LALR(1) grammar of Maya (paper §3.1, §4.1).
//!
//! Maya productions are written in a high-level metagrammar with three kinds
//! of right-hand-side items beyond plain terminals and node-type
//! nonterminals:
//!
//! * **matching-delimiter subtrees** — `(Formal)` means "a `ParenTree` whose
//!   contents parse to a `Formal`";
//! * **`lazy(BraceTree, BlockStmts)`** — a subtree that is *not* parsed until
//!   its AST is demanded;
//! * **`list(X, sep)`** — a possibly-empty separated repetition.
//!
//! Lowering translates each of these into helper productions on synthesized
//! nonterminals (the paper's `G0`, `G1`), shared between productions that use
//! the same parameterized symbol. The result is a pure LALR(1) grammar; the
//! generator ([`Grammar::tables`]) computes LALR(1) lookaheads by
//! propagation, resolves conflicts with operator-precedence relations, and —
//! like Maya and unlike YACC — **rejects** grammars with unresolved
//! conflicts rather than resolving them silently.
//!
//! A [`Grammar`] is a persistent snapshot: extending it yields a new
//! snapshot, so lexically scoped imports can restore the previous grammar by
//! simply keeping the old handle.

mod bitset;
mod build;
mod cache;
mod derive;
mod embed;
mod lalr;
mod prod;
mod symbol;
mod tables;

pub use bitset::BitSet;
pub use build::{Grammar, GrammarBuilder, GrammarError, RhsItem};
pub use embed::{
    embed_tables, embedding, Built, EmbeddedTables, Embedding, StaticAutomaton, StaticTables,
    StaticTerminal,
};
pub use cache::{
    clear_table_cache, set_table_cache_shared, set_table_disk, table_cache_len,
    table_cache_shared, TableDisk,
};
pub use prod::{Action, Assoc, BuiltinAction, ProdId, Production};
pub use symbol::{NtDef, NtId, Sym, Terminal};
pub use tables::{ActionEntry, Conflict, Tables, TermId};
