//! Grammar symbols: terminals and nonterminals.

use maya_ast::NodeKind;
use maya_lexer::{Delim, Symbol, TokenKind};
use std::fmt;

/// A terminal of the extensible grammar.
///
/// Beyond plain token kinds, Maya grammars use:
///
/// * [`Terminal::Word`] — an identifier with a specific text (`typedef` in
///   Figure 3). At parse time a `Word` action takes precedence over the plain
///   [`TokenKind::Ident`] action in the same state, which is how contextual
///   keywords work without reserving words globally.
/// * [`Terminal::Tree`] — a matched-delimiter subtree from the stream lexer.
/// * [`Terminal::Goal`] — an internal marker injected before the input to
///   select the start symbol (each nonterminal is startable, which is what
///   recursive subtree parsing needs).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum Terminal {
    /// Any token of this kind.
    Tok(TokenKind),
    /// An identifier token with exactly this text.
    Word(Symbol),
    /// A delimiter subtree (`ParenTree`, `BraceTree`, `BrackTree`).
    Tree(Delim),
    /// Internal: selects the start symbol.
    Goal(NtId),
    /// Internal: end of input for a parse whose start symbol is this
    /// nonterminal. Per-goal end terminals keep the lookahead sets of
    /// different goals disjoint under LALR state merging.
    EndOf(NtId),
    /// End of input (unused placeholder kept for display).
    End,
}

impl Terminal {
    /// A process-independent order: by token-kind name, word text,
    /// delimiter name, or nonterminal number, never by interner index.
    /// Terminal ids, and with them LR state numbers, follow it.
    pub(crate) fn sort_key(self) -> (u8, u32, &'static str) {
        match self {
            Terminal::Tok(k) => (0, 0, k.name()),
            Terminal::Word(s) => (1, 0, s.as_str()),
            Terminal::Tree(d) => (2, 0, d.tree_name()),
            Terminal::Goal(nt) => (3, nt.0, ""),
            Terminal::EndOf(nt) => (4, nt.0, ""),
            Terminal::End => (5, 0, ""),
        }
    }
}

impl fmt::Display for Terminal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Terminal::Tok(k) => write!(f, "'{}'", k.name()),
            Terminal::Word(s) => write!(f, "\"{s}\""),
            Terminal::Tree(d) => f.write_str(d.tree_name()),
            Terminal::Goal(nt) => write!(f, "<goal:{}>", nt.0),
            Terminal::EndOf(_) | Terminal::End => f.write_str("<end>"),
        }
    }
}

/// Identifies a nonterminal within one grammar lineage.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct NtId(pub u32);

/// Definition of a nonterminal.
#[derive(Clone, Debug)]
pub struct NtDef {
    /// Display name (`Statement`, or a synthesized `%sub(ParenTree,Formal)`).
    pub name: Symbol,
    /// The node kind this nonterminal corresponds to, for node-type
    /// nonterminals. Helper nonterminals have `None`.
    pub kind: Option<NodeKind>,
}

/// A grammar symbol: terminal or nonterminal.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum Sym {
    T(Terminal),
    N(NtId),
}

impl Sym {
    /// The terminal, if this is one.
    pub fn terminal(self) -> Option<Terminal> {
        match self {
            Sym::T(t) => Some(t),
            Sym::N(_) => None,
        }
    }

    /// The nonterminal, if this is one.
    pub fn nonterminal(self) -> Option<NtId> {
        match self {
            Sym::T(_) => None,
            Sym::N(n) => Some(n),
        }
    }
}

impl From<Terminal> for Sym {
    fn from(t: Terminal) -> Sym {
        Sym::T(t)
    }
}

impl From<NtId> for Sym {
    fn from(n: NtId) -> Sym {
        Sym::N(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maya_lexer::sym;

    #[test]
    fn sym_accessors() {
        let t = Sym::from(Terminal::Tok(TokenKind::Semi));
        assert_eq!(t.terminal(), Some(Terminal::Tok(TokenKind::Semi)));
        assert_eq!(t.nonterminal(), None);
        let n = Sym::from(NtId(4));
        assert_eq!(n.nonterminal(), Some(NtId(4)));
        assert_eq!(n.terminal(), None);
    }

    #[test]
    fn display() {
        assert_eq!(Terminal::Tok(TokenKind::Dot).to_string(), "'.'");
        assert_eq!(Terminal::Word(sym("typedef")).to_string(), "\"typedef\"");
        assert_eq!(Terminal::Tree(Delim::Paren).to_string(), "ParenTree");
        assert_eq!(Terminal::End.to_string(), "<end>");
    }
}
