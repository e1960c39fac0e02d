//! Grammar snapshots and the builder/lowering layer.

use crate::prod::{Action, Assoc, BuiltinAction, ProdId, Production};
use crate::symbol::{NtDef, NtId, Sym, Terminal};
use crate::tables::{Conflict, Tables};
use maya_ast::NodeKind;
use maya_lexer::{sym, Delim, Span, Symbol};
use std::cell::OnceCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

/// An error from grammar construction or table generation.
#[derive(Clone, Debug)]
pub enum GrammarError {
    /// The grammar is not LALR(1) after precedence resolution; Maya rejects
    /// it (paper §4.1).
    Conflicts(Vec<Conflict>),
    /// A malformed production (bad LHS, empty alternatives, …).
    Invalid {
        message: String,
        /// The offending production's LHS name, when known.
        production: Option<String>,
        /// The declaration's source location, when known.
        span: Span,
    },
}

impl GrammarError {
    /// Builds an [`GrammarError::Invalid`] with no location yet.
    pub fn invalid(message: impl Into<String>) -> GrammarError {
        GrammarError::Invalid {
            message: message.into(),
            production: None,
            span: Span::DUMMY,
        }
    }

    /// Names the production the error occurred in (first writer wins, so
    /// the innermost context is kept).
    pub fn in_production(mut self, name: impl Into<String>) -> GrammarError {
        if let GrammarError::Invalid { production, .. } = &mut self {
            if production.is_none() {
                *production = Some(name.into());
            }
        }
        self
    }

    /// Attaches the declaration's source span (first writer wins).
    pub fn with_span(mut self, s: Span) -> GrammarError {
        if let GrammarError::Invalid { span, .. } = &mut self {
            if span.is_dummy() {
                *span = s;
            }
        }
        self
    }

    /// The best-known source location (dummy for whole-grammar conflicts,
    /// which have no single declaration site).
    pub fn span(&self) -> Span {
        match self {
            GrammarError::Conflicts(_) => Span::DUMMY,
            GrammarError::Invalid { span, .. } => *span,
        }
    }
}

impl fmt::Display for GrammarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GrammarError::Conflicts(cs) => {
                writeln!(f, "grammar has {} unresolved LALR(1) conflict(s):", cs.len())?;
                for c in cs {
                    writeln!(f, "  {c}")?;
                }
                Ok(())
            }
            GrammarError::Invalid {
                message,
                production,
                ..
            } => {
                f.write_str(message)?;
                if let Some(p) = production {
                    write!(f, " (in production {p})")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for GrammarError {}

/// A high-level right-hand-side item of the Maya metagrammar, before
/// lowering (paper §4.1: "token literals, node types, matching-delimiter
/// subtrees, or parameterized symbols").
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RhsItem {
    /// A terminal.
    Term(Terminal),
    /// A node-type nonterminal.
    Kind(NodeKind),
    /// A raw nonterminal (advanced; used for internal grammar plumbing).
    Nt(NtId),
    /// A delimiter subtree whose contents are parsed *eagerly* against the
    /// inner sequence: `(Formal)` or `(Identifier = StrictClassName)` in the
    /// paper. A multi-symbol sequence is lowered to an anonymous
    /// nonterminal whose value bundles the parts into a `Node::List`.
    Subtree(Delim, Vec<RhsItem>),
    /// `lazy(BraceTree, BlockStmts)`: a subtree parsed on demand.
    Lazy(Delim, NodeKind),
    /// `list(X)` / `list(X, sep)`: possibly-empty repetition.
    List(Box<RhsItem>, Option<Terminal>),
}

impl RhsItem {
    /// Shorthand for a token-kind terminal.
    pub fn tok(kind: maya_lexer::TokenKind) -> RhsItem {
        RhsItem::Term(Terminal::Tok(kind))
    }

    /// Shorthand for a contextual keyword (identifier with exact text).
    pub fn word(text: &str) -> RhsItem {
        RhsItem::Term(Terminal::Word(sym(text)))
    }
}

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
enum HelperKey {
    Subtree(Delim, Sym),
    Seq(Vec<Sym>),
    Lazy(Delim, NodeKind),
    List(Sym, Option<Terminal>),
    List1(Sym, Option<Terminal>),
}

/// The immutable payload of a grammar snapshot.
pub(crate) struct GrammarData {
    pub(crate) nts: Vec<NtDef>,
    pub(crate) nt_by_kind: HashMap<NodeKind, NtId>,
    nt_by_name: HashMap<Symbol, NtId>,
    pub(crate) prods: Vec<Production>,
    prods_by_sig: HashMap<(NtId, Vec<Sym>), ProdId>,
    helper_cache: HashMap<HelperKey, NtId>,
    pub(crate) term_prec: HashMap<Terminal, (u16, Assoc)>,
    version: u64,
    tables: OnceCell<Result<Arc<Tables>, GrammarError>>,
    /// Lazily computed content hash (see [`crate::cache`]).
    hash: OnceCell<u128>,
    /// The snapshot this one extends, whose automaton its tables can be
    /// derived from (see [`crate::derive`]).
    parent: Option<Grammar>,
}

impl Clone for GrammarData {
    fn clone(&self) -> GrammarData {
        GrammarData {
            nts: self.nts.clone(),
            nt_by_kind: self.nt_by_kind.clone(),
            nt_by_name: self.nt_by_name.clone(),
            prods: self.prods.clone(),
            prods_by_sig: self.prods_by_sig.clone(),
            helper_cache: self.helper_cache.clone(),
            term_prec: self.term_prec.clone(),
            version: self.version,
            tables: OnceCell::new(), // tables are per-snapshot
            hash: OnceCell::new(),   // content may change under the builder
            parent: self.parent.clone(),
        }
    }
}

/// A persistent grammar snapshot. Cloning is cheap (`Rc`); extension via
/// [`Grammar::extend`] produces a *new* snapshot, leaving this one valid —
/// that is how lexically scoped syntax imports restore the outer grammar.
///
/// # Example
///
/// ```
/// use maya_ast::NodeKind;
/// use maya_grammar::{GrammarBuilder, RhsItem};
/// use maya_lexer::TokenKind;
///
/// let mut b = GrammarBuilder::new();
/// b.add_production(NodeKind::Statement, &[RhsItem::tok(TokenKind::Semi)], None)
///     .unwrap();
/// let g = b.finish();
/// let tables = g.tables().unwrap();
/// assert!(tables.n_states() > 0);
/// ```
#[derive(Clone)]
pub struct Grammar {
    inner: Rc<GrammarData>,
}

impl fmt::Debug for Grammar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Grammar")
            .field("version", &self.inner.version)
            .field("nonterminals", &self.inner.nts.len())
            .field("productions", &self.inner.prods.len())
            .finish()
    }
}

impl Grammar {
    /// An empty grammar (no nonterminals but the reserved start symbol).
    pub fn empty() -> Grammar {
        GrammarBuilder::new().finish()
    }

    /// Starts an extension of this snapshot.
    pub fn extend(&self) -> GrammarBuilder {
        maya_telemetry::count(maya_telemetry::Counter::GrammarExtensions);
        let mut data = (*self.inner).clone();
        data.parent = Some(self.clone());
        GrammarBuilder { data }
    }

    /// The snapshot version (monotonically increasing along an extension
    /// chain).
    pub fn version(&self) -> u64 {
        self.inner.version
    }

    /// All productions, indexed by [`ProdId`].
    pub fn productions(&self) -> &[Production] {
        &self.inner.prods
    }

    /// A production by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this snapshot.
    pub fn production(&self, id: ProdId) -> &Production {
        &self.inner.prods[id.0 as usize]
    }

    /// The definition of a nonterminal.
    pub fn nt_def(&self, id: NtId) -> &NtDef {
        &self.inner.nts[id.0 as usize]
    }

    /// Number of nonterminals.
    pub fn nt_count(&self) -> usize {
        self.inner.nts.len()
    }

    /// The nonterminal for a node kind, if registered.
    pub fn nt_for_kind(&self, kind: NodeKind) -> Option<NtId> {
        self.inner.nt_by_kind.get(&kind).copied()
    }

    /// The nearest registered nonterminal for `kind`, walking up the node
    /// lattice. This is how a pattern symbol declared at a finer node type
    /// (`CallExpr`) maps onto the grammar nonterminal that produces it
    /// (`Expression`).
    pub fn nt_for_kind_lattice(&self, kind: NodeKind) -> Option<NtId> {
        let mut k = kind;
        loop {
            if let Some(nt) = self.nt_for_kind(k) {
                return Some(nt);
            }
            k = k.parent()?;
        }
    }

    /// Looks up a nonterminal by display name.
    pub fn nt_by_name(&self, name: Symbol) -> Option<NtId> {
        self.inner.nt_by_name.get(&name).copied()
    }

    /// Finds a production by signature.
    pub fn find_production(&self, lhs: NtId, rhs: &[Sym]) -> Option<ProdId> {
        self.inner
            .prods_by_sig
            .get(&(lhs, rhs.to_vec()))
            .copied()
    }

    /// The LALR(1) tables for this snapshot, built on first use and cached.
    ///
    /// # Errors
    ///
    /// Returns [`GrammarError::Conflicts`] when the grammar has conflicts
    /// that operator precedence does not resolve.
    pub fn tables(&self) -> Result<Arc<Tables>, GrammarError> {
        self.inner
            .tables
            .get_or_init(|| crate::cache::tables_for(self))
            .clone()
    }

    /// A process-independent hash of this snapshot's content (productions,
    /// actions, precedence) — the table-cache key. Equal hashes mean
    /// equal grammars for every purpose table construction cares about.
    pub fn content_hash(&self) -> u128 {
        *self
            .inner
            .hash
            .get_or_init(|| crate::cache::content_hash(&self.inner))
    }

    /// The raw snapshot payload (cache-internal).
    pub(crate) fn data(&self) -> &GrammarData {
        &self.inner
    }

    /// The snapshot this one was extended from, if any.
    pub(crate) fn parent(&self) -> Option<&Grammar> {
        self.inner.parent.as_ref()
    }

    /// The helper nonterminal for a `lazy(delim, kind)` symbol, if this
    /// snapshot has one (used to type named lazy parameters in Mayan
    /// declarations).
    pub fn lazy_helper(&self, delim: Delim, kind: NodeKind) -> Option<NtId> {
        self.inner
            .helper_cache
            .get(&HelperKey::Lazy(delim, kind))
            .copied()
    }

    /// The helper nonterminal for a `list(item, sep)` symbol over a
    /// node-kind item, if present.
    pub fn list_helper(&self, item: NodeKind, sep: Option<Terminal>) -> Option<NtId> {
        let nt = self.nt_for_kind(item)?;
        self.inner
            .helper_cache
            .get(&HelperKey::List(Sym::N(nt), sep))
            .copied()
    }

    /// Terminal precedence table (for diagnostics and tests).
    pub fn term_prec(&self, t: Terminal) -> Option<(u16, Assoc)> {
        self.inner.term_prec.get(&t).copied()
    }

    /// True when the two snapshots are the same object.
    pub fn same_snapshot(&self, other: &Grammar) -> bool {
        Rc::ptr_eq(&self.inner, &other.inner)
    }

    /// A human-readable listing of every production (for docs, debugging,
    /// and grammar diffing in tests).
    pub fn dump(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (i, p) in self.inner.prods.iter().enumerate() {
            let _ = write!(out, "{i:4}  {} →", self.nt_def(p.lhs).name);
            for s in &p.rhs {
                match s {
                    Sym::T(t) => {
                        let _ = write!(out, " {t}");
                    }
                    Sym::N(nt) => {
                        let _ = write!(out, " {}", self.nt_def(*nt).name);
                    }
                }
            }
            if let Some((level, _)) = p.prec {
                let _ = write!(out, "  %prec {level}");
            }
            out.push('\n');
        }
        out
    }
}

/// Builds or extends a [`Grammar`].
pub struct GrammarBuilder {
    data: GrammarData,
}

impl Default for GrammarBuilder {
    fn default() -> GrammarBuilder {
        GrammarBuilder::new()
    }
}

impl GrammarBuilder {
    /// Starts an empty grammar.
    pub fn new() -> GrammarBuilder {
        GrammarBuilder {
            data: GrammarData {
                nts: vec![NtDef {
                    name: sym("__Start"),
                    kind: None,
                }],
                nt_by_kind: HashMap::new(),
                nt_by_name: HashMap::new(),
                prods: Vec::new(),
                prods_by_sig: HashMap::new(),
                helper_cache: HashMap::new(),
                term_prec: HashMap::new(),
                version: 0,
                tables: OnceCell::new(),
                hash: OnceCell::new(),
                parent: None,
            },
        }
    }

    fn fresh_nt(&mut self, name: String, kind: Option<NodeKind>) -> NtId {
        let id = NtId(self.data.nts.len() as u32);
        let name = sym(&name);
        self.data.nts.push(NtDef { name, kind });
        self.data.nt_by_name.insert(name, id);
        id
    }

    /// Creates a fresh nonterminal with no node kind (e.g. marker
    /// nonterminals that are only ever shifted through the pattern-parser
    /// protocol).
    pub fn fresh_nonterminal(&mut self, name: &str) -> NtId {
        self.fresh_nt(name.to_owned(), None)
    }

    /// The nonterminal for a node kind, creating it if needed.
    pub fn nt_for_kind(&mut self, kind: NodeKind) -> NtId {
        if let Some(&nt) = self.data.nt_by_kind.get(&kind) {
            return nt;
        }
        let id = self.fresh_nt(kind.name().to_owned(), Some(kind));
        self.data.nt_by_kind.insert(kind, id);
        id
    }

    /// Sets the precedence of a terminal.
    pub fn set_prec(&mut self, t: Terminal, level: u16, assoc: Assoc) -> &mut Self {
        self.data.term_prec.insert(t, (level, assoc));
        self
    }

    fn add_raw(&mut self, prod: Production) -> ProdId {
        let sig = (prod.lhs, prod.rhs.clone());
        if let Some(&id) = self.data.prods_by_sig.get(&sig) {
            return id;
        }
        let id = ProdId(self.data.prods.len() as u32);
        self.data.prods.push(prod);
        self.data.prods_by_sig.insert(sig, id);
        id
    }

    /// Lowers one metagrammar item to a grammar symbol, creating helper
    /// productions as needed (the paper's `G0`/`G1` translation, §4.1).
    pub fn lower_item(&mut self, item: &RhsItem) -> Result<Sym, GrammarError> {
        Ok(match item {
            RhsItem::Term(t) => Sym::T(*t),
            RhsItem::Kind(k) => {
                if !k.is_definable() {
                    return Err(GrammarError::invalid(format!(
                        "node kind {} may not appear in productions",
                        k.name()
                    )));
                }
                Sym::N(self.nt_for_kind(*k))
            }
            RhsItem::Nt(nt) => Sym::N(*nt),
            RhsItem::Subtree(delim, inner_items) => {
                if inner_items.is_empty() {
                    return Err(GrammarError::invalid(
                        "subtree pattern must contain at least one symbol",
                    ));
                }
                let inner_syms = inner_items
                    .iter()
                    .map(|i| self.lower_item(i))
                    .collect::<Result<Vec<_>, _>>()?;
                let goal = if inner_syms.len() == 1 {
                    match inner_syms[0] {
                        Sym::N(nt) => nt,
                        Sym::T(t) => {
                            return Err(GrammarError::invalid(format!(
                                "subtree contents must include a nonterminal, found only {t}"
                            )))
                        }
                    }
                } else {
                    // Anonymous sequence nonterminal bundling the parts.
                    let key = HelperKey::Seq(inner_syms.clone());
                    match self.data.helper_cache.get(&key) {
                        Some(&nt) => nt,
                        None => {
                            let seq = self.fresh_nt(
                                format!("%seq{}", self.data.nts.len()),
                                None,
                            );
                            self.data.helper_cache.insert(key, seq);
                            self.add_raw(Production {
                                lhs: seq,
                                rhs: inner_syms.clone(),
                                action: Action::Builtin(BuiltinAction::Bundle),
                                prec: None,
                            });
                            seq
                        }
                    }
                };
                let inner_sym = Sym::N(goal);
                let key = HelperKey::Subtree(*delim, inner_sym);
                if let Some(&nt) = self.data.helper_cache.get(&key) {
                    return Ok(Sym::N(nt));
                }
                let helper = self.fresh_nt(
                    format!(
                        "%sub({},{})",
                        delim.tree_name(),
                        self.data.nts[goal.0 as usize].name
                    ),
                    None,
                );
                self.data.helper_cache.insert(key, helper);
                self.add_raw(Production {
                    lhs: helper,
                    rhs: vec![Sym::T(Terminal::Tree(*delim))],
                    action: Action::Builtin(BuiltinAction::ParseSubtree { goal }),
                    prec: None,
                });
                Sym::N(helper)
            }
            RhsItem::Lazy(delim, kind) => {
                let goal = self.nt_for_kind(*kind);
                let key = HelperKey::Lazy(*delim, *kind);
                if let Some(&nt) = self.data.helper_cache.get(&key) {
                    return Ok(Sym::N(nt));
                }
                let helper = self.fresh_nt(
                    format!("%lazy({},{})", delim.tree_name(), kind.name()),
                    None,
                );
                self.data.helper_cache.insert(key, helper);
                self.add_raw(Production {
                    lhs: helper,
                    rhs: vec![Sym::T(Terminal::Tree(*delim))],
                    action: Action::Builtin(BuiltinAction::LazySubtree { goal, kind: *kind }),
                    prec: None,
                });
                Sym::N(helper)
            }
            RhsItem::List(inner, sep) => {
                let inner_sym = self.lower_item(inner)?;
                let key = HelperKey::List(inner_sym, *sep);
                if let Some(&nt) = self.data.helper_cache.get(&key) {
                    return Ok(Sym::N(nt));
                }
                let base_name = match inner_sym {
                    Sym::N(nt) => self.data.nts[nt.0 as usize].name.to_string(),
                    Sym::T(t) => t.to_string(),
                };
                let list = self.fresh_nt(format!("%list({base_name})"), None);
                let list1 = self.fresh_nt(format!("%list1({base_name})"), None);
                self.data.helper_cache.insert(key, list);
                self.data
                    .helper_cache
                    .insert(HelperKey::List1(inner_sym, *sep), list1);
                // list → ε | list1
                self.add_raw(Production {
                    lhs: list,
                    rhs: vec![],
                    action: Action::Builtin(BuiltinAction::EmptyList),
                    prec: None,
                });
                self.add_raw(Production {
                    lhs: list,
                    rhs: vec![Sym::N(list1)],
                    action: Action::Builtin(BuiltinAction::PassThrough(0)),
                    prec: None,
                });
                // list1 → item | list1 (sep) item
                self.add_raw(Production {
                    lhs: list1,
                    rhs: vec![inner_sym],
                    action: Action::Builtin(BuiltinAction::ListSingle),
                    prec: None,
                });
                let mut rep = vec![Sym::N(list1)];
                if let Some(s) = sep {
                    rep.push(Sym::T(*s));
                }
                rep.push(inner_sym);
                self.add_raw(Production {
                    lhs: list1,
                    rhs: rep,
                    action: Action::Builtin(BuiltinAction::ListAppend {
                        with_sep: sep.is_some(),
                    }),
                    prec: None,
                });
                Sym::N(list)
            }
        })
    }

    /// Adds a production on a node-type LHS, lowering parameterized symbols.
    ///
    /// Duplicate productions (same lowered signature) return the existing
    /// [`ProdId`] without change.
    ///
    /// # Errors
    ///
    /// Rejects non-definable LHS kinds and invalid parameterized symbols.
    pub fn add_production(
        &mut self,
        lhs: NodeKind,
        rhs: &[RhsItem],
        prec: Option<(u16, Assoc)>,
    ) -> Result<ProdId, GrammarError> {
        if !lhs.is_definable() {
            return Err(GrammarError::invalid(format!(
                "productions may not be defined on {}",
                lhs.name()
            )));
        }
        let lhs_nt = self.nt_for_kind(lhs);
        let mut rhs_syms = Vec::with_capacity(rhs.len());
        for item in rhs {
            rhs_syms.push(
                self.lower_item(item)
                    .map_err(|e| e.in_production(lhs.name()))?,
            );
        }
        Ok(self.add_raw(Production {
            lhs: lhs_nt,
            rhs: rhs_syms,
            action: Action::Dispatch,
            prec,
        }))
    }

    /// Adds an already-lowered production with an explicit action.
    pub fn add_lowered(
        &mut self,
        lhs: NtId,
        rhs: Vec<Sym>,
        action: Action,
        prec: Option<(u16, Assoc)>,
    ) -> ProdId {
        self.add_raw(Production {
            lhs,
            rhs,
            action,
            prec,
        })
    }

    /// Finishes the builder, producing a new snapshot.
    pub fn finish(mut self) -> Grammar {
        self.data.version += 1;
        Grammar {
            inner: Rc::new(self.data),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maya_lexer::TokenKind;

    #[test]
    fn dedup_productions() {
        let mut b = GrammarBuilder::new();
        let p1 = b
            .add_production(NodeKind::Statement, &[RhsItem::tok(TokenKind::Semi)], None)
            .unwrap();
        let p2 = b
            .add_production(NodeKind::Statement, &[RhsItem::tok(TokenKind::Semi)], None)
            .unwrap();
        assert_eq!(p1, p2);
        let g = b.finish();
        assert_eq!(g.productions().len(), 1);
    }

    #[test]
    fn helper_sharing_matches_paper() {
        // Two productions using `(Formal)` share the same helper (the G0 of
        // §4.1 is "used to parse both foreach and catch clauses").
        let mut b = GrammarBuilder::new();
        b.add_production(
            NodeKind::Statement,
            &[
                RhsItem::Kind(NodeKind::MethodName),
                RhsItem::Subtree(Delim::Paren, vec![RhsItem::Kind(NodeKind::Formal)]),
                RhsItem::Lazy(Delim::Brace, NodeKind::BlockStmts),
            ],
            None,
        )
        .unwrap();
        b.nt_for_kind(NodeKind::CatchClause);
        let before = b.data.nts.len();
        b.add_production(
            NodeKind::CatchClause,
            &[
                RhsItem::tok(TokenKind::KwCatch),
                RhsItem::Subtree(Delim::Paren, vec![RhsItem::Kind(NodeKind::Formal)]),
                RhsItem::Lazy(Delim::Brace, NodeKind::BlockStmts),
            ],
            None,
        )
        .unwrap();
        assert_eq!(b.data.nts.len(), before, "helpers are shared, not duplicated");
        let g = b.finish();
        // Statement production + catch production + 2 helper productions.
        assert_eq!(g.productions().len(), 4);
    }

    #[test]
    fn extension_preserves_old_snapshot() {
        let mut b = GrammarBuilder::new();
        b.add_production(NodeKind::Statement, &[RhsItem::tok(TokenKind::Semi)], None)
            .unwrap();
        let g1 = b.finish();
        let mut ext = g1.extend();
        ext.add_production(NodeKind::Statement, &[RhsItem::tok(TokenKind::KwBreak)], None)
            .unwrap();
        let g2 = ext.finish();
        assert_eq!(g1.productions().len(), 1);
        assert_eq!(g2.productions().len(), 2);
        assert!(g2.version() > g1.version());
        // ProdIds are stable across extension.
        assert_eq!(
            g1.production(ProdId(0)).signature(),
            g2.production(ProdId(0)).signature()
        );
    }

    #[test]
    fn list_lowering() {
        let mut b = GrammarBuilder::new();
        b.add_production(
            NodeKind::ArgumentList,
            &[RhsItem::List(
                Box::new(RhsItem::Kind(NodeKind::Expression)),
                Some(Terminal::Tok(TokenKind::Comma)),
            )],
            None,
        )
        .unwrap();
        let g = b.finish();
        // 1 user production + 4 list productions.
        assert_eq!(g.productions().len(), 5);
    }

    #[test]
    fn rejects_undefinable_lhs() {
        let mut b = GrammarBuilder::new();
        assert!(b
            .add_production(NodeKind::TokenNode, &[RhsItem::tok(TokenKind::Semi)], None)
            .is_err());
        assert!(b
            .add_production(
                NodeKind::Statement,
                &[RhsItem::Subtree(Delim::Paren, vec![RhsItem::tok(TokenKind::Semi)])],
                None
            )
            .is_err());
    }

    #[test]
    fn kind_lattice_lookup() {
        let mut b = GrammarBuilder::new();
        b.nt_for_kind(NodeKind::Expression);
        let g = b.finish();
        assert!(g.nt_for_kind(NodeKind::CallExpr).is_none());
        assert_eq!(
            g.nt_for_kind_lattice(NodeKind::CallExpr),
            g.nt_for_kind(NodeKind::Expression)
        );
    }
}

#[cfg(test)]
mod dump_tests {
    use super::*;
    use maya_ast::NodeKind;
    use maya_lexer::TokenKind;

    #[test]
    fn dump_lists_productions() {
        let mut b = GrammarBuilder::new();
        b.add_production(NodeKind::Statement, &[RhsItem::tok(TokenKind::Semi)], None)
            .unwrap();
        let g = b.finish();
        let dump = g.dump();
        assert!(dump.contains("Statement →"), "{dump}");
        assert!(dump.contains("';'"), "{dump}");
    }
}
