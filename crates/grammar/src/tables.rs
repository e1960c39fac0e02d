//! LALR(1) parse tables.

use crate::{BitSet, NtId, ProdId, Terminal};
use maya_lexer::{Delim, Token, TokenKind};
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;

/// Dense terminal id within one table set.
pub type TermId = u32;

/// The `default_reduce` entry of a state without a default reduction.
pub(crate) const NO_DEFAULT: u32 = u32::MAX;

/// A parse action.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ActionEntry {
    Shift(u32),
    Reduce(ProdId),
    /// Reduction of an internal start production: parsing of the goal is
    /// complete.
    Accept,
}

impl ActionEntry {
    /// The form stored in table rows: the state or production shifted
    /// left by two, under a two-bit tag.
    pub(crate) fn pack(self) -> u32 {
        match self {
            ActionEntry::Shift(s) => s << 2,
            ActionEntry::Reduce(p) => p.0 << 2 | 1,
            ActionEntry::Accept => 2,
        }
    }

    /// The entry `v` packs; `None` when no entry packs to `v`.
    pub(crate) fn unpack(v: u32) -> Option<ActionEntry> {
        match (v & 3, v >> 2) {
            (0, s) => Some(ActionEntry::Shift(s)),
            (1, p) => Some(ActionEntry::Reduce(ProdId(p))),
            (2, 0) => Some(ActionEntry::Accept),
            _ => None,
        }
    }
}

/// Lists in compressed-sparse-row form: row `i` is `cells[off[i]..off[i +
/// 1]]`. Table rows hold `(key, value)` pairs in ascending key order
/// without repeats.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Rows<T = (u32, u32)> {
    pub(crate) off: Vec<u32>,
    pub(crate) cells: Vec<T>,
}

impl<T> Rows<T> {
    /// No rows yet: push each row's cells, then close it with
    /// [`Rows::end_row`].
    pub(crate) fn with_rows(n: usize) -> Rows<T> {
        let mut off = Vec::with_capacity(n + 1);
        off.push(0);
        Rows {
            off,
            cells: Vec::new(),
        }
    }

    pub(crate) fn end_row(&mut self) {
        self.off.push(self.cells.len() as u32);
    }

    pub(crate) fn n_rows(&self) -> usize {
        self.off.len() - 1
    }

    /// Row `i`; empty when there is no such row.
    pub(crate) fn row(&self, i: usize) -> &[T] {
        row_of(&self.off, &self.cells, i)
    }
}

/// Row `i` of the compressed rows `off`/`cells`; empty when there is no
/// such row.
fn row_of<'a, T>(off: &[u32], cells: &'a [T], i: usize) -> &'a [T] {
    match (off.get(i), off.get(i + 1)) {
        (Some(&from), Some(&to)) => &cells[from as usize..to as usize],
        _ => &[],
    }
}

/// A slice that a table set or an automaton owns, or borrows from the
/// binary (see [`crate::embed`]).
pub(crate) type Store<T> = Cow<'static, [T]>;

/// ACTION or GOTO rows as a table set keeps them: [`Rows`], owned after a
/// build or a decode, borrowed from the binary when embedded.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct TableRows {
    pub(crate) off: Store<u32>,
    pub(crate) cells: Store<(u32, u32)>,
}

impl From<Rows> for TableRows {
    fn from(rows: Rows) -> TableRows {
        TableRows {
            off: rows.off.into(),
            cells: rows.cells.into(),
        }
    }
}

impl TableRows {
    /// Row `i`; empty when there is no such row.
    pub(crate) fn row(&self, i: usize) -> &[(u32, u32)] {
        row_of(&self.off, &self.cells, i)
    }

    /// The value under `key` in row `i`.
    pub(crate) fn get(&self, i: usize, key: u32) -> Option<u32> {
        let row = self.row(i);
        row.binary_search_by_key(&key, |c| c.0)
            .ok()
            .map(|j| row[j].1)
    }

    /// Whether these are `n_rows` well-formed rows: offsets start at 0,
    /// never decrease and end at the cell count; keys are below
    /// `key_bound` and ascend strictly within a row; values pass `valid`.
    pub(crate) fn well_formed(
        &self,
        n_rows: u32,
        key_bound: u32,
        valid: impl Fn(u32) -> bool,
    ) -> bool {
        let off = &*self.off;
        off.len() == n_rows as usize + 1
            && off[0] == 0
            && off[n_rows as usize] as usize == self.cells.len()
            && off.windows(2).all(|o| o[0] <= o[1])
            && off.windows(2).all(|o| {
                let row = &self.cells[o[0] as usize..o[1] as usize];
                row.iter()
                    .all(|&(key, value)| key < key_bound && valid(value))
                    && row.windows(2).all(|c| c[0].0 < c[1].0)
            })
    }
}

/// An unresolved LALR(1) conflict. Maya rejects grammars containing these
/// (paper §4.1).
#[derive(Clone, Debug)]
pub struct Conflict {
    pub state: u32,
    pub on: Terminal,
    pub description: String,
}

impl fmt::Display for Conflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "state {} on {}: {}", self.state, self.on, self.description)
    }
}

/// The generated tables: ACTION, GOTO, FIRST sets, and terminal interning.
///
/// The arrays are owned after a build or a store decode, and borrowed in
/// place from the binary for a grammar whose tables are compiled in (see
/// [`crate::embed`]); only the terminals are interned per process.
#[derive(PartialEq)]
pub struct Tables {
    pub(crate) n_states: u32,
    /// ACTION: terminal id → packed [`ActionEntry`], per state.
    pub(crate) action: TableRows,
    /// GOTO: nonterminal id → target state, per state.
    pub(crate) goto_: TableRows,
    pub(crate) terms: Vec<Terminal>,
    pub(crate) term_ids: HashMap<Terminal, TermId>,
    /// FIRST sets over terminal ids, `ceil(n_terms / 64)` words per
    /// nonterminal.
    pub(crate) first: Store<u64>,
    pub(crate) nullable_nt: Store<bool>,
    /// States whose only possible move is one reduction: performed without
    /// consulting the lookahead (like yacc default reductions). Needed for
    /// productions followed by marker nonterminals with empty FIRST sets.
    /// Indexed by state; [`NO_DEFAULT`] where there is none.
    pub(crate) default_reduce: Store<u32>,
}

impl Tables {
    /// The initial state. The first input symbol must be the goal marker
    /// ([`Tables::goal_term`]).
    pub fn start_state(&self) -> u32 {
        0
    }

    /// Number of LR states.
    pub fn n_states(&self) -> u32 {
        self.n_states
    }

    /// Number of distinct terminals.
    pub fn n_terms(&self) -> usize {
        self.terms.len()
    }

    /// The id of a terminal in this table set.
    pub fn term_id(&self, t: Terminal) -> Option<TermId> {
        self.term_ids.get(&t).copied()
    }

    /// The terminal for an id.
    pub fn term(&self, id: TermId) -> Terminal {
        self.terms[id as usize]
    }

    /// The end-of-input terminal id for a parse with start symbol `nt`.
    pub fn end_of(&self, nt: NtId) -> Option<TermId> {
        self.term_id(Terminal::EndOf(nt))
    }

    /// The goal-marker terminal id for a startable nonterminal.
    pub fn goal_term(&self, nt: NtId) -> Option<TermId> {
        self.term_id(Terminal::Goal(nt))
    }

    /// The action for `(state, terminal id)`; falls back to the state's
    /// default reduction.
    pub fn action(&self, state: u32, t: TermId) -> Option<ActionEntry> {
        self.action
            .get(state as usize, t)
            .and_then(ActionEntry::unpack)
            .or_else(|| match self.default_reduce.get(state as usize) {
                Some(&p) if p != NO_DEFAULT => Some(ActionEntry::Reduce(ProdId(p))),
                _ => None,
            })
    }

    /// Resolves a concrete token to the terminal id the current state acts
    /// on: a [`Terminal::Word`] entry for identifiers takes precedence over
    /// the generic identifier terminal.
    pub fn action_for_token(&self, state: u32, tok: &Token) -> Option<(TermId, ActionEntry)> {
        if tok.kind == TokenKind::Ident {
            if let Some(id) = self.term_id(Terminal::Word(tok.text)) {
                if let Some(a) = self.action(state, id) {
                    return Some((id, a));
                }
            }
        }
        let id = self.term_id(Terminal::Tok(tok.kind))?;
        self.action(state, id).map(|a| (id, a))
    }

    /// The action for a delimiter subtree in `state`.
    pub fn action_for_tree(&self, state: u32, delim: Delim) -> Option<(TermId, ActionEntry)> {
        let id = self.term_id(Terminal::Tree(delim))?;
        self.action(state, id).map(|a| (id, a))
    }

    /// The GOTO entry for `(state, nonterminal)`.
    pub fn goto(&self, state: u32, nt: NtId) -> Option<u32> {
        self.goto_.get(state as usize, nt.0)
    }

    /// FIRST set (terminal ids) of a nonterminal.
    pub fn first_of_nt(&self, nt: NtId) -> BitSet<'_> {
        let w = self.terms.len().div_ceil(64);
        let at = nt.0 as usize * w;
        BitSet::from_words(&self.first[at..at + w])
    }

    /// Whether a nonterminal derives ε.
    pub fn nullable(&self, nt: NtId) -> bool {
        self.nullable_nt[nt.0 as usize]
    }

    /// Terminals with actions in `state` — for diagnostics.
    pub fn expected_in(&self, state: u32) -> Vec<Terminal> {
        let mut v: Vec<Terminal> = self
            .action
            .row(state as usize)
            .iter()
            .map(|&(t, _)| self.terms[t as usize])
            .collect();
        v.sort();
        v
    }

    /// Total number of ACTION entries (table size metric for benches).
    pub fn action_entries(&self) -> usize {
        self.action.cells.len()
    }

    /// Whether the parts fit a grammar of `n_nts` nonterminals and
    /// `n_prods` productions: distinct terminals, well-formed rows whose
    /// terminals, nonterminals, states and productions are in range, a
    /// FIRST set per nonterminal with no bit past the last terminal, and a
    /// nullable flag per nonterminal and a default reduction per state.
    /// Decoded and embedded tables are checked with it before use.
    pub(crate) fn consistent(&self, n_nts: usize, n_prods: usize) -> bool {
        let (n_states, n_terms) = (self.n_states, self.terms.len());
        let words = n_terms.div_ceil(64);
        let stray = match n_terms % 64 {
            0 => 0,
            used => !0u64 << used,
        };
        let real_prod = |p: u32| (p as usize) < n_prods;
        n_states > 0
            && words > 0
            && self.term_ids.len() == n_terms
            && self
                .action
                .well_formed(n_states, n_terms as u32, |v| match ActionEntry::unpack(v) {
                    Some(ActionEntry::Shift(to)) => to < n_states,
                    Some(ActionEntry::Reduce(p)) => real_prod(p.0),
                    Some(ActionEntry::Accept) => true,
                    None => false,
                })
            && self
                .goto_
                .well_formed(n_states, n_nts as u32, |to| to < n_states)
            && self.first.len() == n_nts * words
            && self
                .first
                .chunks_exact(words)
                .all(|set| set[words - 1] & stray == 0)
            && self.nullable_nt.len() == n_nts
            && self.default_reduce.len() == n_states as usize
            && self
                .default_reduce
                .iter()
                .all(|&p| p == NO_DEFAULT || real_prod(p))
    }
}

impl fmt::Debug for Tables {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tables")
            .field("states", &self.n_states)
            .field("terminals", &self.terms.len())
            .field("actions", &self.action.cells.len())
            .field("gotos", &self.goto_.cells.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use crate::{GrammarBuilder, NtId, RhsItem};
    use maya_ast::NodeKind;
    use maya_lexer::{sym, TokenKind};

    #[test]
    fn word_terminals_take_precedence_over_identifiers() {
        let mut b = GrammarBuilder::new();
        b.add_production(NodeKind::Statement, &[RhsItem::word("gizmo")], None)
            .unwrap();
        b.add_production(NodeKind::Statement, &[RhsItem::tok(TokenKind::Ident)], None)
            .unwrap();
        let g = b.finish();
        let t = g.tables().unwrap();
        let start = {
            let nt = g.nt_for_kind(NodeKind::Statement).unwrap();
            let gt = t.goal_term(nt).unwrap();
            match t.action(t.start_state(), gt) {
                Some(crate::ActionEntry::Shift(s)) => s,
                other => panic!("expected shift, got {other:?}"),
            }
        };
        let gizmo = maya_lexer::Token::synth(TokenKind::Ident, sym("gizmo"));
        let plain = maya_lexer::Token::synth(TokenKind::Ident, sym("other"));
        let (gid, _) = t.action_for_token(start, &gizmo).unwrap();
        let (pid, _) = t.action_for_token(start, &plain).unwrap();
        assert_ne!(gid, pid, "gizmo resolves to its Word terminal");
    }

    #[test]
    fn expected_terminals_exclude_goal_markers() {
        let mut b = GrammarBuilder::new();
        b.add_production(NodeKind::Statement, &[RhsItem::tok(TokenKind::Semi)], None)
            .unwrap();
        let g = b.finish();
        let t = g.tables().unwrap();
        // Every nonterminal has an end terminal.
        for i in 1..g.nt_count() {
            assert!(t.end_of(NtId(i as u32)).is_some());
        }
    }
}
