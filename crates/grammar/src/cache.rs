//! Content-hash keyed caching of LALR(1) tables.
//!
//! Maya programs re-derive near-identical grammars constantly: every `use`
//! of the same extension set composes the same productions onto the same
//! base and would rebuild the same tables. This module gives table
//! construction three cache layers in front of it, all keyed by a
//! **content hash** of the grammar (productions, actions, precedence —
//! everything a build reads):
//!
//! 1. an in-process, thread-local `hash → Arc<Tables>` memo,
//! 2. an opt-in **process-global** memo ([`set_table_cache_shared`])
//!    behind an `RwLock`, so the worker threads of a compile-service pool
//!    share one warm set of tables instead of building N cold ones —
//!    `Tables` is immutable plain data, so handing the same `Arc` to every
//!    thread is sound by construction (content-hash keys never need
//!    invalidation), and
//! 3. an optional persistent layer behind the [`TableDisk`] hook
//!    (`mayac --cache-dir=DIR`). This module only encodes/decodes the
//!    versioned table *payload* ([`encode_tables`]/[`decode_tables`]);
//!    the artifact store in `maya-core` owns the files, checksums, atomic
//!    writes, and eviction. Any malformed, truncated, or stale payload
//!    decodes as a miss and is rebuilt — a bad cache can cost time, never
//!    correctness.
//!
//! The hash is computed from grammar *content* (strings, token-kind names,
//! numeric ids), never from interner indices, so it is stable across
//! processes and suitable as an on-disk key. Two snapshots with equal
//! hashes have byte-identical production lists, so sharing one `Tables`
//! between them is sound.
//!
//! Grammars that fail table construction (LALR conflicts) are never cached
//! here; the per-snapshot `OnceCell` still memoizes the error locally.

use crate::build::{Grammar, GrammarData, GrammarError};
use crate::embed::{embedded_built, embedded_tables, Built};
use crate::lalr::{generate, intern_terms};
use crate::prod::{Action, Assoc, BuiltinAction};
use crate::symbol::{Sym, Terminal};
use crate::tables::{TableRows, Tables};
use maya_lexer::Fnv2;
use maya_telemetry::Counter;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::{Arc, OnceLock, RwLock};

// ---- the content hash --------------------------------------------------------

/// Encodes a terminal in a process-independent form: `Word` by its text,
/// `Tok` by the token-kind name, trees by delimiter name, goal/end markers
/// by nonterminal number.
fn hash_terminal(h: &mut Fnv2, t: &Terminal) {
    match t {
        Terminal::Tok(k) => {
            h.byte(0);
            h.str(k.name());
        }
        Terminal::Word(s) => {
            h.byte(1);
            h.str(s.as_str());
        }
        Terminal::Tree(d) => {
            h.byte(2);
            h.str(d.tree_name());
        }
        Terminal::Goal(nt) => {
            h.byte(3);
            h.u32(nt.0);
        }
        Terminal::EndOf(nt) => {
            h.byte(4);
            h.u32(nt.0);
        }
        Terminal::End => h.byte(5),
    }
}

fn hash_action(h: &mut Fnv2, a: &Action) {
    match a {
        Action::Dispatch => h.byte(0),
        Action::Builtin(b) => {
            h.byte(1);
            match b {
                BuiltinAction::PassThrough(i) => {
                    h.byte(0);
                    h.u32(*i as u32);
                }
                BuiltinAction::EmptyList => h.byte(1),
                BuiltinAction::ListSingle => h.byte(2),
                BuiltinAction::ListAppend { with_sep } => {
                    h.byte(3);
                    h.byte(u8::from(*with_sep));
                }
                BuiltinAction::ParseSubtree { goal } => {
                    h.byte(4);
                    h.u32(goal.0);
                }
                BuiltinAction::LazySubtree { goal, kind } => {
                    h.byte(5);
                    h.u32(goal.0);
                    h.str(kind.name());
                }
                BuiltinAction::StartAccept => h.byte(6),
                BuiltinAction::Bundle => h.byte(7),
            }
        }
    }
}

/// Hashes everything table construction reads from a grammar: the
/// nonterminal list (names and node kinds), every production (LHS, RHS
/// symbols, action, precedence), and the terminal precedence table.
pub(crate) fn content_hash(g: &GrammarData) -> u128 {
    let mut h = Fnv2::new();
    h.u32(g.nts.len() as u32);
    for nt in &g.nts {
        h.str(nt.name.as_str());
        match nt.kind {
            Some(k) => h.str(k.name()),
            None => h.byte(0xff),
        }
    }
    h.u32(g.prods.len() as u32);
    for p in &g.prods {
        h.u32(p.lhs.0);
        h.u32(p.rhs.len() as u32);
        for s in &p.rhs {
            match s {
                Sym::T(t) => {
                    h.byte(0);
                    hash_terminal(&mut h, t);
                }
                Sym::N(nt) => {
                    h.byte(1);
                    h.u32(nt.0);
                }
            }
        }
        hash_action(&mut h, &p.action);
        match p.prec {
            Some((level, assoc)) => {
                h.byte(1);
                h.u32(u32::from(level));
                h.byte(assoc_tag(assoc));
            }
            None => h.byte(0),
        }
    }
    let mut prec: Vec<(&Terminal, &(u16, Assoc))> = g.term_prec.iter().collect();
    // Hash maps iterate in arbitrary order; the hash must not depend on it.
    prec.sort_by_key(|(t, _)| t.sort_key());
    h.u32(prec.len() as u32);
    for (t, (level, assoc)) in prec {
        hash_terminal(&mut h, t);
        h.u32(u32::from(*level));
        h.byte(assoc_tag(*assoc));
    }
    h.finish()
}

fn assoc_tag(a: Assoc) -> u8 {
    match a {
        Assoc::Left => 0,
        Assoc::Right => 1,
        Assoc::NonAssoc => 2,
    }
}

// ---- cache state -------------------------------------------------------------

/// In-process memo entries kept before the map is cleared wholesale. Real
/// compilations use a handful of grammar compositions; the cap only guards
/// against degenerate grammar-fuzzing loops.
const MEMO_CAP: usize = 256;

/// Automata of this thread's latest builds kept for their extensions to
/// derive from: an import chain needs its innermost grammar's, and the
/// base grammar's is embedded.
const RETAINED_CAP: usize = 1;

thread_local! {
    static SHARED: Cell<bool> = const { Cell::new(false) };
    static MEMO: RefCell<HashMap<u128, Arc<Tables>>> = RefCell::new(HashMap::new());
    static RETAINED: RefCell<Vec<Built>> = const { RefCell::new(Vec::new()) };
    static DISK: RefCell<Option<Rc<dyn TableDisk>>> = const { RefCell::new(None) };
}

/// The persistent layer behind the in-process memos. The grammar crate
/// only defines the interface; `maya-core`'s artifact store implements it
/// (file layout, checksums, atomic writes, eviction) and installs itself
/// per thread. `load` returns the raw payload previously passed to `save`
/// for the same hash, or `None` on any miss or corruption.
pub trait TableDisk {
    /// The stored payload for `hash`, if present and intact.
    fn load(&self, hash: u128) -> Option<Vec<u8>>;
    /// Persists `payload` under `hash`. Failures are silent: a cache that
    /// cannot write only costs time on the next cold start.
    fn save(&self, hash: u128, payload: &[u8]);
}

/// The process-global memo behind the thread-local one. Only threads that
/// opted in with [`set_table_cache_shared`] read or write it, so unit
/// tests (which rely on thread-local cold starts for their hit/miss
/// assertions) keep their isolation while service worker pools share one
/// warm table set.
fn shared_memo() -> &'static RwLock<HashMap<u128, Arc<Tables>>> {
    static SHARED_MEMO: OnceLock<RwLock<HashMap<u128, Arc<Tables>>>> = OnceLock::new();
    SHARED_MEMO.get_or_init(|| RwLock::new(HashMap::new()))
}

/// Opts this thread into (or out of) the process-global table memo. Off
/// by default; compile-service worker threads turn it on so every worker
/// reuses tables any other worker already built. Sharing is sound because
/// `Tables` is immutable and keyed by grammar content hash — equal keys
/// mean equal tables, so there is nothing to invalidate.
pub fn set_table_cache_shared(on: bool) {
    SHARED.with(|s| s.set(on));
}

/// Whether this thread participates in the process-global table memo.
pub fn table_cache_shared() -> bool {
    SHARED.with(|s| s.get())
}

/// Installs (or clears) this thread's persistent table layer. Wired up by
/// `maya-core`'s artifact store when a cache directory is configured
/// (`mayac --cache-dir`, `MAYA_CACHE_DIR`).
pub fn set_table_disk(disk: Option<Rc<dyn TableDisk>>) {
    DISK.with(|d| *d.borrow_mut() = disk);
}

/// Drops every in-process cache entry — this thread's memo and retained
/// automata *and* the process-global memo (test isolation; the on-disk
/// cache and the tables compiled into the binary are left alone).
pub fn clear_table_cache() {
    MEMO.with(|m| m.borrow_mut().clear());
    RETAINED.with(|r| r.borrow_mut().clear());
    shared_memo().write().expect("table memo poisoned").clear();
}

/// Number of table sets currently held by the in-process memo: the
/// process-global map when this thread shares it, otherwise the
/// thread-local one.
///
/// A persistent compile session (`mayad`, `mayac --watch`) keeps warm
/// tables alive across requests; the count is surfaced in server stats so
/// warm-cache retention is observable.
pub fn table_cache_len() -> usize {
    if table_cache_shared() {
        shared_memo().read().expect("table memo poisoned").len()
    } else {
        MEMO.with(|m| m.borrow().len())
    }
}

/// The table lookup behind [`Grammar::tables`]: the tables compiled into
/// the binary, then the thread-local memo, then (when shared) the
/// process-global memo, then the on-disk cache, then a build (whose result
/// populates every layer the thread uses). A build derives the tables from
/// the automaton of the nearest ancestor at hand when there is one.
pub(crate) fn tables_for(g: &Grammar) -> Result<Arc<Tables>, GrammarError> {
    let hash = g.content_hash();
    if let Some(t) = embedded_tables(g, hash) {
        maya_telemetry::count(Counter::TableCacheHits);
        maya_telemetry::cache_hit(maya_telemetry::CacheId::LalrMemo);
        return Ok(t);
    }
    if let Some(t) = MEMO.with(|m| m.borrow().get(&hash).cloned()) {
        maya_telemetry::count(Counter::TableCacheHits);
        maya_telemetry::cache_hit(maya_telemetry::CacheId::LalrMemo);
        return Ok(t);
    }
    if table_cache_shared() {
        let shared = shared_memo().read().expect("table memo poisoned").get(&hash).cloned();
        if let Some(t) = shared {
            maya_telemetry::count(Counter::TableCacheHits);
            maya_telemetry::cache_hit(maya_telemetry::CacheId::LalrMemo);
            remember(hash, &t);
            return Ok(t);
        }
    }
    let disk = DISK.with(|d| d.borrow().clone());
    if let Some(disk) = &disk {
        if let Some(t) = disk
            .load(hash)
            .and_then(|payload| decode_tables(&payload, g.data()))
            .map(Arc::new)
        {
            maya_telemetry::count(Counter::TableCacheHits);
            maya_telemetry::cache_hit(maya_telemetry::CacheId::LalrMemo);
            remember(hash, &t);
            return Ok(t);
        }
    }
    maya_telemetry::count(Counter::TableCacheMisses);
    maya_telemetry::cache_miss(maya_telemetry::CacheId::LalrMemo);
    let parent = ancestor_built(g);
    let parent = parent.as_ref().map(|b| (&*b.automaton, &*b.tables));
    let built = generate(g.data(), parent, false).expect("a build may always fall back")?;
    let built = Built::new(g, built);
    // Debug builds hold every derivation to a full build of the same
    // grammar, so each test that imports an extension checks one.
    #[cfg(debug_assertions)]
    if parent.is_some() {
        let full = crate::lalr::full_tables_untraced(g.data());
        assert!(
            full.is_ok_and(|f| f == *built.tables),
            "derived tables differ from a full build"
        );
    }
    let t = built.tables.clone();
    retain(built);
    remember(hash, &t);
    if let Some(disk) = &disk {
        // Save failures (read-only dir, disk full) are the store's problem
        // and silent; the next cold process rebuilds.
        disk.save(hash, &encode_tables(&t));
    }
    Ok(t)
}

/// The built automaton of `g`'s nearest ancestor that has one at hand:
/// embedded, or among the latest builds of this thread.
fn ancestor_built(g: &Grammar) -> Option<Built> {
    let mut at = g.parent();
    while let Some(a) = at {
        let hash = a.content_hash();
        if let Some(built) = embedded_built(a, hash) {
            return Some(built);
        }
        let retained = RETAINED.with(|r| r.borrow().iter().find(|b| b.hash == hash).cloned());
        if retained.is_some() {
            return retained;
        }
        at = a.parent();
    }
    None
}

/// Keeps `built`'s automaton for its extensions to derive from, dropping
/// the oldest beyond [`RETAINED_CAP`].
fn retain(built: Built) {
    RETAINED.with(|r| {
        let mut r = r.borrow_mut();
        r.retain(|b| b.hash != built.hash);
        if r.len() >= RETAINED_CAP {
            r.remove(0);
        }
        r.push(built);
    });
}

fn remember(hash: u128, t: &Arc<Tables>) {
    MEMO.with(|m| {
        let mut m = m.borrow_mut();
        if m.len() >= MEMO_CAP {
            maya_telemetry::cache_eviction(maya_telemetry::CacheId::LalrMemo);
            m.clear();
        }
        m.insert(hash, t.clone());
        maya_telemetry::cache_sized(maya_telemetry::CacheId::LalrMemo, m.len());
    });
    if table_cache_shared() {
        let mut m = shared_memo().write().expect("table memo poisoned");
        if m.len() >= MEMO_CAP {
            m.clear();
        }
        m.insert(hash, t.clone());
    }
}

// ---- the payload codec -------------------------------------------------------
//
// All integers little-endian. This is only the table *payload*: the
// artifact store wraps it in a container carrying the magic, the store
// format version, the build id, the key echo, and a whole-entry checksum,
// and verifies all of that before the payload reaches `decode_tables`.
// Layout:
//
//   version  u32 (TABLES_PAYLOAD_VERSION)
//   n_states u32
//   n_terms  u32 (must match `intern_terms` on the requesting grammar)
//   n_nts    u32 (must match the requesting grammar)
//   actions  rows: u32 cell count, n_states + 1 u32 row offsets, then
//            (term u32, packed ActionEntry u32) cells
//   gotos    rows: the same, with (nt u32, target state u32) cells
//   first    per nonterminal: ceil(n_terms / 64) u64 words
//   nullable per nonterminal: u8
//   defaults per state: u32 production, u32::MAX for none
//
// Terminal ids are *not* accompanied by terminal values: the interning
// order is deterministic from the grammar (see `intern_terms`), and a
// matching content hash implies a matching grammar, so the loader
// recomputes the terminal vector and only stores dense ids.

/// Bumped whenever the encoded table layout changes; a mismatched payload
/// decodes as a miss and is rebuilt.
const TABLES_PAYLOAD_VERSION: u32 = 3;

/// Encodes `t` as a self-versioned payload for the persistent store.
pub(crate) fn encode_tables(t: &Tables) -> Vec<u8> {
    let cells = t.action.cells.len() + t.goto_.cells.len();
    let mut buf = Vec::with_capacity(
        24 + 8 * (t.n_states as usize + cells) + 8 * t.first.len() + t.nullable_nt.len(),
    );
    let put = |buf: &mut Vec<u8>, x: u32| buf.extend_from_slice(&x.to_le_bytes());
    put(&mut buf, TABLES_PAYLOAD_VERSION);
    put(&mut buf, t.n_states);
    put(&mut buf, t.terms.len() as u32);
    put(&mut buf, t.nullable_nt.len() as u32);
    for rows in [&t.action, &t.goto_] {
        put(&mut buf, rows.cells.len() as u32);
        for &o in rows.off.iter() {
            put(&mut buf, o);
        }
        for &(key, value) in rows.cells.iter() {
            put(&mut buf, key);
            put(&mut buf, value);
        }
    }
    for &w in t.first.iter() {
        buf.extend_from_slice(&w.to_le_bytes());
    }
    buf.extend(t.nullable_nt.iter().map(|&n| u8::from(n)));
    for &d in t.default_reduce.iter() {
        put(&mut buf, d);
    }
    buf
}

/// A bounds-checked little-endian reader; every decode failure is `None`.
struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.at.checked_add(n)?;
        let s = self.buf.get(self.at..end)?;
        self.at = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }

    fn done(&self) -> bool {
        self.at == self.buf.len()
    }
}

/// Reads `n_rows` compressed rows, checking only that they fit in the
/// payload; [`Tables::consistent`] checks what they hold.
fn decode_rows(c: &mut Cursor<'_>, n_rows: u32) -> Option<TableRows> {
    let n_cells = c.u32()? as usize;
    // Check that the offsets and cells fit in the payload before
    // allocating for them.
    let need = (n_rows as usize + 1)
        .checked_mul(4)?
        .checked_add(n_cells.checked_mul(8)?)?;
    if c.remaining() < need {
        return None;
    }
    let off = (0..=n_rows)
        .map(|_| c.u32())
        .collect::<Option<Vec<u32>>>()?;
    let cells = (0..n_cells)
        .map(|_| Some((c.u32()?, c.u32()?)))
        .collect::<Option<Vec<(u32, u32)>>>()?;
    Some(TableRows {
        off: off.into(),
        cells: cells.into(),
    })
}

/// Decodes a table payload (as produced by [`encode_tables`]) against the
/// requesting grammar. Any structural mismatch — wrong payload version,
/// wrong grammar dimensions, malformed rows, out-of-range ids, trailing
/// garbage — is a `None` (a miss), never a panic. The surrounding store
/// container has already verified the whole-entry checksum and key echo.
pub(crate) fn decode_tables(bytes: &[u8], g: &GrammarData) -> Option<Tables> {
    let mut c = Cursor { buf: bytes, at: 0 };
    if c.u32()? != TABLES_PAYLOAD_VERSION {
        return None;
    }
    let (terms, term_ids) = intern_terms(g);
    let n_states = c.u32()?;
    let n_nts = g.nts.len();
    if c.u32()? != terms.len() as u32 || c.u32()? != n_nts as u32 || n_states == 0 {
        return None;
    }
    let action = decode_rows(&mut c, n_states)?;
    let goto_ = decode_rows(&mut c, n_states)?;
    let words = terms.len().div_ceil(64);
    let first = (0..n_nts * words)
        .map(|_| c.u64())
        .collect::<Option<Vec<u64>>>()?;
    let nullable_nt = (0..n_nts)
        .map(|_| c.u8().map(|n| n != 0))
        .collect::<Option<Vec<bool>>>()?;
    let default_reduce = (0..n_states)
        .map(|_| c.u32())
        .collect::<Option<Vec<u32>>>()?;
    if !c.done() {
        return None; // trailing garbage: treat as corrupt
    }
    let tables = Tables {
        n_states,
        action,
        goto_,
        terms,
        term_ids,
        first: first.into(),
        nullable_nt: nullable_nt.into(),
        default_reduce: default_reduce.into(),
    };
    tables.consistent(n_nts, g.prods.len()).then_some(tables)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tables::ActionEntry;
    use crate::{GrammarBuilder, RhsItem};
    use maya_ast::NodeKind;
    use maya_lexer::TokenKind;

    fn sample() -> Grammar {
        let mut b = GrammarBuilder::new();
        b.add_production(NodeKind::Statement, &[RhsItem::tok(TokenKind::Semi)], None)
            .unwrap();
        b.add_production(
            NodeKind::Statement,
            &[RhsItem::word("gizmo"), RhsItem::tok(TokenKind::Semi)],
            None,
        )
        .unwrap();
        b.finish()
    }

    #[test]
    fn equal_content_equal_hash() {
        let g1 = sample();
        let g2 = sample();
        assert!(!g1.same_snapshot(&g2));
        assert_eq!(g1.content_hash(), g2.content_hash());
    }

    #[test]
    fn different_content_different_hash() {
        let g1 = sample();
        let mut ext = g1.extend();
        ext.add_production(NodeKind::Statement, &[RhsItem::tok(TokenKind::KwBreak)], None)
            .unwrap();
        let g2 = ext.finish();
        assert_ne!(g1.content_hash(), g2.content_hash());
    }

    #[test]
    fn memo_shares_tables_across_equal_snapshots() {
        clear_table_cache();
        let g1 = sample();
        let g2 = sample();
        let t1 = g1.tables().unwrap();
        let t2 = g2.tables().unwrap();
        assert!(Arc::ptr_eq(&t1, &t2), "same hash must share one Tables");
        clear_table_cache();
    }

    #[test]
    fn shared_memo_hands_one_tables_to_every_thread() {
        clear_table_cache();
        // Build on a worker thread that opted into the global memo, then
        // fetch from a second opted-in thread: both must see the same
        // allocation even though their thread-local memos start cold.
        let a = std::thread::spawn(|| {
            set_table_cache_shared(true);
            sample().tables().unwrap()
        })
        .join()
        .unwrap();
        let b = std::thread::spawn(|| {
            set_table_cache_shared(true);
            sample().tables().unwrap()
        })
        .join()
        .unwrap();
        assert!(Arc::ptr_eq(&a, &b), "global memo must share one Tables");
        // A thread that did NOT opt in keeps its cold-start isolation.
        let c = std::thread::spawn(|| sample().tables().unwrap()).join().unwrap();
        assert!(!Arc::ptr_eq(&a, &c), "non-shared thread builds its own");
        clear_table_cache();
    }

    #[test]
    fn payload_round_trip_and_corruption_tolerance() {
        let g = sample();
        let full = g.build_full().unwrap();
        let built = full.tables();
        let payload = encode_tables(built);

        let loaded = decode_tables(&payload, g.data()).expect("payload decodes");
        assert_eq!(loaded.n_states, built.n_states);
        assert_eq!(loaded.action, built.action, "every action");
        assert_eq!(loaded.goto_, built.goto_, "every goto");
        assert_eq!(
            loaded.default_reduce, built.default_reduce,
            "every default reduction"
        );
        assert_eq!(loaded.terms, built.terms);
        assert_eq!(loaded.term_ids, built.term_ids);
        assert_eq!(loaded.first, built.first);
        assert_eq!(loaded.nullable_nt, built.nullable_nt);

        // Truncation, a stale payload version, structural garbage, and
        // trailing bytes must all read as misses, never panic. (Bit-flip
        // detection lives in the store container's checksum; here only
        // structurally invalid payloads must be rejected.)
        assert!(decode_tables(&payload[..payload.len() / 2], g.data()).is_none());
        let mut stale = payload.clone();
        stale[0] ^= 0xff; // payload version word
        assert!(decode_tables(&stale, g.data()).is_none(), "version mismatch");
        assert!(decode_tables(b"not a cache payload", g.data()).is_none());
        let mut trailing = payload.clone();
        trailing.push(0);
        assert!(decode_tables(&trailing, g.data()).is_none(), "trailing garbage");
        // Any single corrupted byte may decode or miss, but never panics.
        for i in 0..payload.len() {
            let mut flipped = payload.clone();
            flipped[i] ^= 0xa5;
            let _ = decode_tables(&flipped, g.data());
        }
    }

    /// Byte offsets of the action rows in a payload of `t`: the offset
    /// array, then the cells.
    fn action_layout(t: &Tables) -> (usize, usize) {
        let offsets = 20;
        (offsets, offsets + 4 * (t.n_states as usize + 1))
    }

    fn put_u32(payload: &mut [u8], at: usize, x: u32) {
        payload[at..at + 4].copy_from_slice(&x.to_le_bytes());
    }

    /// Payloads that pass the store checksum (it covers whatever bytes were
    /// written) but break the row invariants: each must be a miss.
    #[test]
    fn malformed_rows_decode_as_misses() {
        let g = sample();
        let full = g.build_full().unwrap();
        let t = full.tables();
        let payload = encode_tables(t);
        let (offsets, cells) = action_layout(t);
        let cell = |i: usize| cells + 8 * i;
        let malformed = |what: &str, edit: &dyn Fn(&mut Vec<u8>)| {
            let mut bad = payload.clone();
            edit(&mut bad);
            assert_ne!(bad, payload, "{what}: the edit must change the payload");
            assert!(
                decode_tables(&bad, g.data()).is_none(),
                "{what} must decode as a miss"
            );
        };

        // A row with two cells to reorder, and a row boundary to invert.
        let wide = (1..t.n_states as usize).find(|&s| t.action.row(s).len() >= 2);
        let wide = wide.expect("a state past the start state with two actions");
        let first = t.action.off[wide] as usize;
        malformed("non-monotone row offsets", &|p| {
            put_u32(p, offsets + 4 * wide, t.action.off[wide + 1]);
            put_u32(p, offsets + 4 * (wide + 1), t.action.off[wide]);
        });
        malformed("first offset not zero", &|p| put_u32(p, offsets, 1));
        malformed("unsorted row", &|p| {
            let (a, b) = (cell(first), cell(first + 1));
            let (x, y) = (p[a..a + 8].to_vec(), p[b..b + 8].to_vec());
            p[a..a + 8].copy_from_slice(&y);
            p[b..b + 8].copy_from_slice(&x);
        });
        malformed("repeated key in a row", &|p| {
            let key = t.action.cells[first].0;
            put_u32(p, cell(first + 1), key)
        });
        malformed("terminal out of range", &|p| {
            put_u32(p, cell(0), t.terms.len() as u32)
        });
        malformed("shift to a state out of range", &|p| {
            put_u32(p, cell(0) + 4, ActionEntry::Shift(t.n_states).pack())
        });
        malformed("reduce of a production out of range", &|p| {
            let prod = crate::ProdId(g.data().prods.len() as u32);
            put_u32(p, cell(0) + 4, ActionEntry::Reduce(prod).pack())
        });
        malformed("an unused entry tag", &|p| put_u32(p, cell(0) + 4, 3));
        assert!(!t.goto_.cells.is_empty());
        let gotos = cell(t.action.cells.len());
        let goto_cells = gotos + 4 + 4 * (t.n_states as usize + 1);
        malformed("goto to a state out of range", &|p| {
            put_u32(p, goto_cells + 4, t.n_states)
        });
        let defaults = payload.len() - 4 * t.n_states as usize;
        malformed("default reduction out of range", &|p| {
            put_u32(p, defaults, g.data().prods.len() as u32)
        });
        malformed("absurd cell count", &|p| put_u32(p, offsets - 4, u32::MAX));

        // Offsets that go down yet start at 0 and end at the cell count:
        // three rows [0, 2), [2, 1), [1, 2) over cells (0, 0) (1, 0). Only
        // the monotonicity check stands between them and a panicking
        // `TableRows::row(1)`.
        let rows = TableRows {
            off: vec![0, 2, 1, 2].into(),
            cells: vec![(0, 0), (1, 0)].into(),
        };
        assert!(!rows.well_formed(3, 8, |_| true));
    }

    #[test]
    fn encode_is_deterministic() {
        let g1 = sample();
        let g2 = sample();
        let t1 = g1.build_full().unwrap();
        let t2 = g2.build_full().unwrap();
        assert_eq!(
            encode_tables(t1.tables()),
            encode_tables(t2.tables()),
            "payload must be a pure function of the tables"
        );
    }
}
