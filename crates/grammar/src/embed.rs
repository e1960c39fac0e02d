//! Tables compiled into the binary, and the built grammars derivation
//! starts from.
//!
//! A build script runs [`embedding`] on each grammar a process may meet
//! often enough to ship its tables (Maya's base grammar, and the base
//! extended by each extension the compiler ships) and writes the result to
//! `OUT_DIR` as Rust source: the tables as a [`StaticTables`], and for a
//! grammar that extensions derive from, the automaton as a
//! [`StaticAutomaton`]. The library includes them and registers the whole
//! set with [`embed_tables`]; [`crate::Grammar::tables`] then serves each
//! of those grammars without building and derives other extensions of the
//! base from its automaton. Both are read in place: a process checks each
//! set once, on first use, and interns only its terminals.

use crate::build::{Grammar, GrammarError};
use crate::lalr::{generate, Automaton};
use crate::symbol::{NtId, Terminal};
use crate::tables::{TableRows, Tables, TermId};
use maya_lexer::{sym, Delim, TokenKind};
use std::borrow::Cow;
use std::fmt::Write as _;
use std::sync::{Arc, OnceLock};

/// A grammar's tables together with the automaton they were built from:
/// what a derivation starts from.
#[derive(Clone)]
pub struct Built {
    pub(crate) hash: u128,
    pub(crate) tables: Arc<Tables>,
    pub(crate) automaton: Arc<Automaton>,
}

impl Built {
    /// The tables.
    pub fn tables(&self) -> &Arc<Tables> {
        &self.tables
    }

    pub(crate) fn new(g: &Grammar, (tables, automaton): (Tables, Automaton)) -> Built {
        Built {
            hash: g.content_hash(),
            tables: Arc::new(tables),
            automaton: Arc::new(automaton),
        }
    }
}

impl Grammar {
    /// Builds this snapshot's tables and automaton in full, past every
    /// cache layer: the reference that embedded, stored and derived tables
    /// must equal.
    ///
    /// # Errors
    ///
    /// [`GrammarError::Conflicts`] when the grammar is not LALR(1).
    pub fn build_full(&self) -> Result<Built, GrammarError> {
        generate(self.data(), None, false)
            .expect("a build without a parent always runs")
            .map(|built| Built::new(self, built))
    }

    /// Derives this snapshot's tables from `ancestor`, which must have been
    /// built for this snapshot or one it extends (through
    /// [`Grammar::extend`]), without falling back to a full build. `None`
    /// when this snapshot is not such an extension; a derivation that meets
    /// conflicts reports them as it found them.
    pub fn derive_from(&self, ancestor: &Built) -> Option<Result<Built, GrammarError>> {
        let mut at = Some(self);
        while let Some(g) = at {
            if g.content_hash() == ancestor.hash {
                let parent = (&*ancestor.automaton, &*ancestor.tables);
                let derived = generate(self.data(), Some(parent), true)?;
                return Some(derived.map(|built| Built::new(self, built)));
            }
            at = g.parent();
        }
        None
    }
}

/// A grammar's tables and automaton as [`embedding`] writes them, for a
/// build script to write out.
pub struct Embedding {
    /// The grammar's content hash.
    pub hash: u128,
    /// The tables, as the Rust source of a [`StaticTables`] expression.
    pub tables: String,
    /// The automaton a derivation starts from, as the Rust source of a
    /// [`StaticAutomaton`] expression.
    pub automaton: String,
}

/// Builds `g` in full and writes the result as Rust source for embedding.
///
/// # Errors
///
/// [`GrammarError::Conflicts`] when the grammar is not LALR(1).
pub fn embedding(g: &Grammar) -> Result<Embedding, GrammarError> {
    let built = g.build_full()?;
    Ok(Embedding {
        hash: built.hash,
        tables: tables_source(&built.tables),
        automaton: automaton_source(&built.automaton),
    })
}

/// Tables compiled into the binary: the source [`embedding`] writes
/// evaluates to one, and [`Tables`] borrows its arrays in place.
pub struct StaticTables {
    pub n_states: u32,
    /// The terminals in id order.
    pub terms: &'static [StaticTerminal],
    pub action_off: &'static [u32],
    pub action_cells: &'static [(u32, u32)],
    pub goto_off: &'static [u32],
    pub goto_cells: &'static [(u32, u32)],
    pub first: &'static [u64],
    pub nullable: &'static [bool],
    pub default_reduce: &'static [u32],
}

/// A [`Terminal`] as the binary holds it: a word by its text, which each
/// process interns, since symbol numbers differ between processes.
pub enum StaticTerminal {
    Tok(TokenKind),
    Word(&'static str),
    Tree(Delim),
    Goal(u32),
    EndOf(u32),
    End,
}

impl StaticTerminal {
    fn terminal(&self) -> Terminal {
        match *self {
            StaticTerminal::Tok(k) => Terminal::Tok(k),
            StaticTerminal::Word(w) => Terminal::Word(sym(w)),
            StaticTerminal::Tree(d) => Terminal::Tree(d),
            StaticTerminal::Goal(nt) => Terminal::Goal(NtId(nt)),
            StaticTerminal::EndOf(nt) => Terminal::EndOf(NtId(nt)),
            StaticTerminal::End => Terminal::End,
        }
    }

    /// The Rust source of the expression for `t`.
    fn source(t: Terminal) -> String {
        match t {
            Terminal::Tok(k) => {
                format!("maya_grammar::StaticTerminal::Tok(maya_lexer::TokenKind::{k:?})")
            }
            Terminal::Word(w) => format!("maya_grammar::StaticTerminal::Word({:?})", w.as_str()),
            Terminal::Tree(d) => {
                format!("maya_grammar::StaticTerminal::Tree(maya_lexer::Delim::{d:?})")
            }
            Terminal::Goal(nt) => format!("maya_grammar::StaticTerminal::Goal({})", nt.0),
            Terminal::EndOf(nt) => format!("maya_grammar::StaticTerminal::EndOf({})", nt.0),
            Terminal::End => "maya_grammar::StaticTerminal::End".to_owned(),
        }
    }
}

/// An automaton compiled into the binary: the source [`embedding`] writes
/// evaluates to one, and a derivation reads its arrays in place.
pub struct StaticAutomaton {
    pub n_terms: u32,
    pub n_real: u32,
    pub n_nts: u32,
    pub start_item: u32,
    pub term_prec: &'static [u32],
    pub lc_len: &'static [u32],
    pub beta_count: &'static [u32],
    pub beta_nullable: &'static [bool],
    pub kernel_off: &'static [u32],
    pub kernel_items: &'static [u32],
    pub trans_off: &'static [u32],
    pub trans_cells: &'static [(u32, u32)],
    pub sets: &'static [u64],
    pub complete: &'static [(u32, u32, u32)],
    pub link_off: &'static [u32],
    pub link_to: &'static [u32],
}

/// The tables compiled into the binary for one grammar (see
/// [`embedding`]), with its automaton when extensions derive from it.
pub struct EmbeddedTables {
    hash: u128,
    tables: &'static StaticTables,
    automaton: Option<&'static StaticAutomaton>,
    served: OnceLock<Option<Arc<Tables>>>,
    borrowed: OnceLock<Option<Arc<Automaton>>>,
}

impl EmbeddedTables {
    /// The tables of the grammar whose content hash is `hash`.
    pub const fn new(
        hash: u128,
        tables: &'static StaticTables,
        automaton: Option<&'static StaticAutomaton>,
    ) -> EmbeddedTables {
        EmbeddedTables {
            hash,
            tables,
            automaton,
            served: OnceLock::new(),
            borrowed: OnceLock::new(),
        }
    }

    /// The content hash of the grammar these tables belong to.
    pub fn hash(&self) -> u128 {
        self.hash
    }

    /// Whether the automaton comes with the tables.
    pub fn has_automaton(&self) -> bool {
        self.automaton.is_some()
    }

    /// The tables for `g`, read in place past the once-per-process memo
    /// that [`Grammar::tables`] reads them through: the arrays are
    /// borrowed and checked, and the terminals interned. `None` when `g`
    /// is not the grammar they were built for, or the arrays do not fit
    /// together.
    pub fn read(&self, g: &Grammar) -> Option<Tables> {
        if g.content_hash() != self.hash {
            return None;
        }
        let s = self.tables;
        let terms: Vec<Terminal> = s.terms.iter().map(StaticTerminal::terminal).collect();
        let term_ids = terms
            .iter()
            .enumerate()
            .map(|(i, &t)| (t, i as TermId))
            .collect();
        let tables = Tables {
            n_states: s.n_states,
            action: TableRows {
                off: Cow::Borrowed(s.action_off),
                cells: Cow::Borrowed(s.action_cells),
            },
            goto_: TableRows {
                off: Cow::Borrowed(s.goto_off),
                cells: Cow::Borrowed(s.goto_cells),
            },
            terms,
            term_ids,
            first: Cow::Borrowed(s.first),
            nullable_nt: Cow::Borrowed(s.nullable),
            default_reduce: Cow::Borrowed(s.default_reduce),
        };
        let g = g.data();
        tables
            .consistent(g.nts.len(), g.prods.len())
            .then_some(tables)
    }
}

static EMBEDDED: OnceLock<&'static [EmbeddedTables]> = OnceLock::new();

/// Registers the tables compiled into the binary. [`Grammar::tables`]
/// serves each grammar whose content hash one of them carries from it,
/// ahead of every cache layer. Only the first registration counts.
pub fn embed_tables(sets: &'static [EmbeddedTables]) {
    let _ = EMBEDDED.set(sets);
}

fn embedded(hash: u128) -> Option<&'static EmbeddedTables> {
    EMBEDDED.get()?.iter().find(|e| e.hash == hash)
}

/// The embedded tables for `g`, whose content hash is `hash`, read on
/// first use. Debug builds hold them to a full build of `g` then.
pub(crate) fn embedded_tables(g: &Grammar, hash: u128) -> Option<Arc<Tables>> {
    let e = embedded(hash)?;
    e.served
        .get_or_init(|| {
            let tables = e.read(g)?;
            #[cfg(debug_assertions)]
            assert!(
                crate::lalr::full_tables_untraced(g.data()).is_ok_and(|full| full == tables),
                "embedded tables differ from a full build"
            );
            Some(Arc::new(tables))
        })
        .clone()
}

/// The embedded tables and automaton for `g`, whose content hash is
/// `hash`; `None` unless its automaton was embedded too.
pub(crate) fn embedded_built(g: &Grammar, hash: u128) -> Option<Built> {
    let e = embedded(hash)?;
    let automaton = e.automaton?;
    let tables = embedded_tables(g, hash)?;
    let automaton = e
        .borrowed
        .get_or_init(|| borrow_automaton(automaton).map(Arc::new))
        .clone()?;
    Some(Built {
        hash,
        tables,
        automaton,
    })
}

/// The Rust source of a struct expression, `maya_grammar::{ty} { … }`,
/// one field at a time.
struct Source(String);

impl Source {
    fn new(ty: &str) -> Source {
        Source(format!("maya_grammar::{ty} {{\n"))
    }

    fn slice(&mut self, name: &str, items: impl Iterator<Item = String>) {
        let _ = write!(self.0, "    {name}: &[");
        for (i, item) in items.enumerate() {
            self.0
                .push_str(if i % 16 == 0 { "\n        " } else { " " });
            self.0.push_str(&item);
            self.0.push(',');
        }
        self.0.push_str("\n    ],\n");
    }

    fn scalar(&mut self, name: &str, value: impl std::fmt::Display) {
        let _ = writeln!(self.0, "    {name}: {value},");
    }

    fn finish(mut self) -> String {
        self.0.push_str("}\n");
        self.0
    }
}

fn num(x: &u32) -> String {
    x.to_string()
}

fn pair(&(a, b): &(u32, u32)) -> String {
    format!("({a}, {b})")
}

/// Writes `t` as the Rust source of a [`StaticTables`] expression.
fn tables_source(t: &Tables) -> String {
    let mut out = Source::new("StaticTables");
    out.scalar("n_states", t.n_states);
    out.slice("terms", t.terms.iter().map(|&t| StaticTerminal::source(t)));
    out.slice("action_off", t.action.off.iter().map(num));
    out.slice("action_cells", t.action.cells.iter().map(pair));
    out.slice("goto_off", t.goto_.off.iter().map(num));
    out.slice("goto_cells", t.goto_.cells.iter().map(pair));
    out.slice("first", t.first.iter().map(|w| format!("{w:#x}")));
    out.slice("nullable", t.nullable_nt.iter().map(bool::to_string));
    out.slice("default_reduce", t.default_reduce.iter().map(num));
    out.finish()
}

/// Writes `a` as the Rust source of a [`StaticAutomaton`] expression.
fn automaton_source(a: &Automaton) -> String {
    let mut out = Source::new("StaticAutomaton");
    out.slice("term_prec", a.term_prec.iter().map(num));
    out.slice("lc_len", a.lc_len.iter().map(num));
    out.slice("beta_count", a.beta_count.iter().map(num));
    out.slice("beta_nullable", a.beta_nullable.iter().map(bool::to_string));
    out.slice("kernel_off", a.kernel_off.iter().map(num));
    out.slice("kernel_items", a.kernel_items.iter().map(num));
    out.slice("trans_off", a.trans_off.iter().map(num));
    out.slice("trans_cells", a.trans_cells.iter().map(pair));
    out.slice("sets", a.sets.iter().map(|w| format!("{w:#x}")));
    out.slice(
        "complete",
        a.complete
            .iter()
            .map(|(s, p, x)| format!("({s}, {p}, {x})")),
    );
    out.slice("link_off", a.link_off.iter().map(num));
    out.slice("link_to", a.link_to.iter().map(num));
    out.scalar("n_terms", a.n_terms);
    out.scalar("n_real", a.n_real);
    out.scalar("n_nts", a.n_nts);
    out.scalar("start_item", a.start_item);
    out.finish()
}

/// The automaton `s` describes, borrowing its arrays; `None` when they do
/// not fit together.
fn borrow_automaton(s: &'static StaticAutomaton) -> Option<Automaton> {
    let n_states = s.kernel_off.len().checked_sub(1)?;
    let n_slots = s.link_off.len().checked_sub(1)?;
    let rows_ok = |off: &[u32], n_cells: usize| {
        off.first() == Some(&0)
            && off.last().is_some_and(|&l| l as usize == n_cells)
            && off.windows(2).all(|o| o[0] <= o[1])
    };
    let consistent = s.term_prec.len() == s.n_terms as usize
        && s.lc_len.len() == s.n_nts as usize
        && s.beta_nullable.len() == s.beta_count.len()
        && rows_ok(s.kernel_off, s.kernel_items.len())
        && rows_ok(s.trans_off, s.trans_cells.len())
        && rows_ok(s.link_off, s.link_to.len())
        && s.trans_off.len() == s.kernel_off.len()
        && s.kernel_items.len() <= n_slots
        && s.sets.len() == n_slots * (s.n_terms as usize).div_ceil(64)
        && s.kernel_items
            .iter()
            .all(|&x| (x as usize) < s.beta_count.len())
        && s.trans_cells.iter().all(|&(_, t)| (t as usize) < n_states)
        && s.link_to.iter().all(|&d| (d as usize) < n_slots)
        && s.complete
            .iter()
            .all(|&(st, _, slot)| (st as usize) < n_states && (slot as usize) < n_slots);
    consistent.then_some(Automaton {
        n_terms: s.n_terms as usize,
        n_real: s.n_real as usize,
        n_nts: s.n_nts as usize,
        start_item: s.start_item,
        term_prec: Cow::Borrowed(s.term_prec),
        lc_len: Cow::Borrowed(s.lc_len),
        beta_count: Cow::Borrowed(s.beta_count),
        beta_nullable: Cow::Borrowed(s.beta_nullable),
        kernel_off: Cow::Borrowed(s.kernel_off),
        kernel_items: Cow::Borrowed(s.kernel_items),
        trans_off: Cow::Borrowed(s.trans_off),
        trans_cells: Cow::Borrowed(s.trans_cells),
        sets: Cow::Borrowed(s.sets),
        complete: Cow::Borrowed(s.complete),
        link_off: Cow::Borrowed(s.link_off),
        link_to: Cow::Borrowed(s.link_to),
    })
}
