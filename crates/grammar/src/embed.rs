//! Tables compiled into the binary, and the built grammars derivation
//! starts from.
//!
//! A build script runs [`embedding`] on a grammar every process starts
//! from (Maya's base grammar) and writes the result to `OUT_DIR`: the
//! tables as a store payload, which the library embeds with
//! `include_bytes!`, and the automaton as Rust source for a
//! [`StaticAutomaton`], which it includes. Registered with
//! [`embed_tables`], they let [`crate::Grammar::tables`] serve that grammar
//! without building and derive its extensions from the automaton, read in
//! place. The tables are decoded once per process, on first use.

use crate::build::{Grammar, GrammarError};
use crate::cache::{decode_tables, encode_tables};
use crate::lalr::{generate, Automaton};
use crate::tables::Tables;
use std::borrow::Cow;
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

/// A grammar's tables and automaton as [`embedding`] encodes them, for a
/// build script to write out.
pub struct Embedding {
    /// The grammar's content hash.
    pub hash: u128,
    /// The tables, in the persistent store's payload layout.
    pub tables: Vec<u8>,
    /// The automaton a derivation starts from, as the Rust source of a
    /// [`StaticAutomaton`] expression.
    pub automaton: String,
}

/// Builds `g` in full and encodes the result for embedding.
///
/// # Errors
///
/// [`GrammarError::Conflicts`] when the grammar is not LALR(1).
pub fn embedding(g: &Grammar) -> Result<Embedding, GrammarError> {
    let built = g.build_full()?;
    Ok(Embedding {
        hash: built.hash,
        tables: encode_tables(&built.tables),
        automaton: automaton_source(&built.automaton),
    })
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

/// Tables compiled into the binary for one grammar (see [`embedding`]).
pub struct EmbeddedTables {
    hash: u128,
    tables: &'static [u8],
    automaton: &'static StaticAutomaton,
    decoded: OnceLock<Option<Arc<Tables>>>,
    borrowed: OnceLock<Option<Arc<Automaton>>>,
}

impl EmbeddedTables {
    /// The tables of the grammar whose content hash is `hash`, as
    /// [`embedding`] encodes them.
    pub const fn new(
        hash: u128,
        tables: &'static [u8],
        automaton: &'static StaticAutomaton,
    ) -> EmbeddedTables {
        EmbeddedTables {
            hash,
            tables,
            automaton,
            decoded: OnceLock::new(),
            borrowed: OnceLock::new(),
        }
    }

    /// The content hash of the grammar these tables belong to.
    pub fn hash(&self) -> u128 {
        self.hash
    }

    /// The encoded tables.
    pub fn tables(&self) -> &'static [u8] {
        self.tables
    }
}

static EMBEDDED: OnceLock<&'static EmbeddedTables> = OnceLock::new();

/// Registers tables compiled into the binary. [`Grammar::tables`] serves
/// the grammar with their content hash from them, ahead of every cache
/// layer. Only the first registration counts.
pub fn embed_tables(e: &'static EmbeddedTables) {
    let _ = EMBEDDED.set(e);
}

/// The embedded tables for `g`, whose content hash is `hash`, decoded on
/// first use.
pub(crate) fn embedded_tables(g: &Grammar, hash: u128) -> Option<Arc<Tables>> {
    let e = EMBEDDED.get().filter(|e| e.hash == hash)?;
    e.decoded
        .get_or_init(|| decode_tables(e.tables, g.data()).map(Arc::new))
        .clone()
}

/// The embedded tables and automaton for `g`, whose content hash is
/// `hash`.
pub(crate) fn embedded_built(g: &Grammar, hash: u128) -> Option<Built> {
    let tables = embedded_tables(g, hash)?;
    let e = EMBEDDED.get()?;
    let automaton = e
        .borrowed
        .get_or_init(|| borrow_automaton(e.automaton).map(Arc::new))
        .clone()?;
    Some(Built {
        hash,
        tables,
        automaton,
    })
}

/// Writes `a` as the Rust source of a [`StaticAutomaton`] expression.
fn automaton_source(a: &Automaton) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("maya_grammar::StaticAutomaton {\n");
    let mut field = |name: &str, items: &mut dyn Iterator<Item = String>| {
        let _ = write!(out, "    {name}: &[");
        for (i, item) in items.enumerate() {
            out.push_str(if i % 16 == 0 { "\n        " } else { " " });
            out.push_str(&item);
            out.push(',');
        }
        out.push_str("\n    ],\n");
    };
    let num = |x: &u32| x.to_string();
    field("term_prec", &mut a.term_prec.iter().map(num));
    field("lc_len", &mut a.lc_len.iter().map(num));
    field("beta_count", &mut a.beta_count.iter().map(num));
    field(
        "beta_nullable",
        &mut a.beta_nullable.iter().map(bool::to_string),
    );
    field("kernel_off", &mut a.kernel_off.iter().map(num));
    field("kernel_items", &mut a.kernel_items.iter().map(num));
    field("trans_off", &mut a.trans_off.iter().map(num));
    field(
        "trans_cells",
        &mut a.trans_cells.iter().map(|(s, t)| format!("({s}, {t})")),
    );
    field("sets", &mut a.sets.iter().map(|w| format!("{w:#x}")));
    field(
        "complete",
        &mut a
            .complete
            .iter()
            .map(|(s, p, x)| format!("({s}, {p}, {x})")),
    );
    field("link_off", &mut a.link_off.iter().map(num));
    field("link_to", &mut a.link_to.iter().map(num));
    let _ = write!(
        out,
        "    n_terms: {},\n    n_real: {},\n    n_nts: {},\n    start_item: {},\n}}\n",
        a.n_terms, a.n_real, a.n_nts, a.start_item
    );
    out
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
