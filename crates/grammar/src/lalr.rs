//! The LALR(1) generator: LR(0) automaton, lookaheads by spontaneous
//! generation and propagation (Dragon-book §4.7 algorithm), and table
//! construction with operator-precedence conflict resolution.
//!
//! Unlike YACC, unresolved shift/reduce conflicts are *not* resolved in
//! favor of shifts, and reduce/reduce conflicts are *not* resolved by
//! production order: the grammar is rejected (paper §4.1).
//!
//! Everything runs over dense indices. Item `(p, dot)` is the number
//! `off[p] + dot`; a symbol is its terminal id, or `n_terms + nt` for a
//! nonterminal. Terminal ids follow [`Terminal::sort_key`], so sorting a
//! state's successors by symbol number orders them by content, and state
//! numbers do not depend on interner order.

use crate::bitset::{bits, BitSet};
use crate::build::{GrammarData, GrammarError};
use crate::prod::{Assoc, ProdId};
use crate::symbol::{NtId, Sym, Terminal};
use crate::tables::{ActionEntry, Conflict, Rows, Tables, TermId, NO_DEFAULT};
use std::collections::HashMap;
use std::time::Instant;

/// No symbol after the dot / no successor slot.
const NONE: u32 = u32::MAX;

/// Interns every terminal of the extended grammar: those on the real
/// productions' right-hand sides, plus `Goal(nt)` and `EndOf(nt)` for every
/// nonterminal, numbered in [`Terminal::sort_key`] order. The numbering is
/// a pure function of [`GrammarData`], which is what lets the on-disk table
/// cache store bare [`TermId`]s and recompute the terminal vector on load
/// instead of serializing interner state.
pub(crate) fn intern_terms(g: &GrammarData) -> (Vec<Terminal>, HashMap<Terminal, TermId>) {
    let mut terms: Vec<Terminal> = g
        .prods
        .iter()
        .flat_map(|p| p.rhs.iter().filter_map(|s| s.terminal()))
        .collect();
    for nt_idx in 1..g.nts.len() {
        let nt = NtId(nt_idx as u32);
        terms.push(Terminal::Goal(nt));
        terms.push(Terminal::EndOf(nt));
    }
    terms.sort_unstable();
    terms.dedup();
    terms.sort_by_cached_key(|t| t.sort_key());
    let term_ids = terms
        .iter()
        .enumerate()
        .map(|(i, t)| (*t, i as TermId))
        .collect();
    (terms, term_ids)
}

/// Ors row `src` of a flat `stride`-word set array into row `dst`; true if
/// `dst` grew.
fn union_rows(sets: &mut [u64], stride: usize, dst: usize, src: usize) -> bool {
    let mut grew = false;
    for w in 0..stride {
        let (d, s) = (sets[dst * stride + w], sets[src * stride + w]);
        grew |= d | s != d;
        sets[dst * stride + w] = d | s;
    }
    grew
}

/// Ors `src` into `dst` (equal lengths).
fn or_into(dst: &mut [u64], src: &[u64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d |= s;
    }
}

/// The extended grammar in dense form. Productions are the real ones
/// followed by one synthetic start production `__Start → Goal(nt) nt` per
/// nonterminal.
struct Gen<'g> {
    g: &'g GrammarData,
    real_count: usize,
    n_terms: usize,
    /// Words per lookahead set: `ceil(n_terms / 64)`.
    w: usize,
    terms: Vec<Terminal>,
    term_ids: HashMap<Terminal, TermId>,
    prod_lhs: Vec<u32>,
    /// First item of each production, plus one past the last item.
    off: Vec<u32>,
    /// Precedence per terminal id.
    term_prec: Vec<Option<(u16, Assoc)>>,
    /// The symbol after the dot of each item, `NONE` when complete.
    item_sym: Vec<u32>,
    item_prod: Vec<u32>,
    /// FIRST per nonterminal, `w` words each.
    first: Vec<u64>,
    nullable: Vec<bool>,
    /// FIRST of each item's β (the symbols after the one after the dot),
    /// `w` words each, and whether β is nullable.
    beta: Vec<u64>,
    beta_nullable: Vec<bool>,
    /// Per nonterminal, every production whose LHS is one of its left
    /// corners (itself included), ascending: the non-kernel items its
    /// occurrence after a dot adds to an LR(0) closure.
    left_corner: Rows<u32>,
}

impl<'g> Gen<'g> {
    fn new(g: &'g GrammarData) -> Gen<'g> {
        let (terms, term_ids) = intern_terms(g);
        let n_terms = terms.len();
        let n_nts = g.nts.len();
        let code = |s: &Sym| match s {
            Sym::T(t) => term_ids[t],
            Sym::N(nt) => n_terms as u32 + nt.0,
        };
        let real_count = g.prods.len();
        let mut prod_lhs = Vec::with_capacity(real_count + n_nts);
        let mut off = Vec::with_capacity(real_count + n_nts + 1);
        let mut item_sym = Vec::new();
        let mut item_prod = Vec::new();
        let mut push_prod = |lhs: u32, rhs: &mut dyn Iterator<Item = u32>| {
            let p = prod_lhs.len() as u32;
            prod_lhs.push(lhs);
            off.push(item_sym.len() as u32);
            item_sym.extend(rhs);
            item_sym.push(NONE);
            item_prod.resize(item_sym.len(), p);
        };
        for p in &g.prods {
            push_prod(p.lhs.0, &mut p.rhs.iter().map(code));
        }
        for nt_idx in 1..n_nts {
            let nt = NtId(nt_idx as u32);
            let start = [Sym::T(Terminal::Goal(nt)), Sym::N(nt)];
            push_prod(0, &mut start.iter().map(code));
        }
        off.push(item_sym.len() as u32);

        let mut gen = Gen {
            g,
            real_count,
            n_terms,
            w: n_terms.div_ceil(64),
            term_prec: terms.iter().map(|t| g.term_prec.get(t).copied()).collect(),
            terms,
            term_ids,
            prod_lhs,
            off,
            item_sym,
            item_prod,
            first: Vec::new(),
            nullable: Vec::new(),
            beta: Vec::new(),
            beta_nullable: Vec::new(),
            left_corner: Rows::with_rows(0),
        };
        gen.compute_first();
        gen.compute_beta();
        gen.compute_left_corners();
        gen
    }

    fn n_prods(&self) -> usize {
        self.prod_lhs.len()
    }

    /// The effective precedence of a production: explicit, else that of
    /// its rightmost terminal.
    fn prod_prec(&self, prod: ProdId) -> Option<(u16, Assoc)> {
        let p = prod.0 as usize;
        self.g.prods[p].prec.or_else(|| {
            let rhs = &self.item_sym[self.off[p] as usize..self.off[p + 1] as usize - 1];
            let t = rhs.iter().rev().find(|&&s| self.nt_of(s).is_none())?;
            self.term_prec[*t as usize]
        })
    }

    /// The nonterminal a symbol number names, if it names one.
    fn nt_of(&self, sym: u32) -> Option<usize> {
        (sym != NONE && sym as usize >= self.n_terms).then(|| sym as usize - self.n_terms)
    }

    fn compute_first(&mut self) {
        let (w, n_terms) = (self.w, self.n_terms);
        let mut first = vec![0u64; self.g.nts.len() * w];
        let mut nullable = vec![false; self.g.nts.len()];
        loop {
            let mut changed = false;
            for p in 0..self.n_prods() {
                let lhs = self.prod_lhs[p] as usize;
                let mut all_nullable = true;
                for &s in &self.item_sym[self.off[p] as usize..self.off[p + 1] as usize - 1] {
                    if (s as usize) < n_terms {
                        let word = &mut first[lhs * w + s as usize / 64];
                        changed |= *word & (1 << (s % 64)) == 0;
                        *word |= 1 << (s % 64);
                        all_nullable = false;
                        break;
                    }
                    let nt = s as usize - n_terms;
                    changed |= union_rows(&mut first, w, lhs, nt);
                    if !nullable[nt] {
                        all_nullable = false;
                        break;
                    }
                }
                if all_nullable && !nullable[lhs] {
                    nullable[lhs] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        self.first = first;
        self.nullable = nullable;
    }

    /// FIRST(β) for every item, right to left along each production.
    fn compute_beta(&mut self) {
        let w = self.w;
        let n_items = self.item_sym.len();
        let mut beta = vec![0u64; n_items * w];
        let mut beta_nullable = vec![true; n_items];
        for p in 0..self.n_prods() {
            let (start, complete) = (self.off[p] as usize, self.off[p + 1] as usize - 1);
            // The last symbol's β is empty; each earlier item's β starts
            // with the symbol after its next one.
            for x in (start..complete.saturating_sub(1)).rev() {
                let s = self.item_sym[x + 1];
                match self.nt_of(s) {
                    None => {
                        beta[x * w + s as usize / 64] |= 1 << (s % 64);
                        beta_nullable[x] = false;
                    }
                    Some(nt) => {
                        let (head, tail) = beta.split_at_mut((x + 1) * w);
                        let row = &mut head[x * w..];
                        row.copy_from_slice(&self.first[nt * w..(nt + 1) * w]);
                        if self.nullable[nt] {
                            or_into(row, &tail[..w]);
                            beta_nullable[x] = beta_nullable[x + 1];
                        } else {
                            beta_nullable[x] = false;
                        }
                    }
                }
            }
        }
        self.beta = beta;
        self.beta_nullable = beta_nullable;
    }

    fn compute_left_corners(&mut self) {
        let n_nts = self.g.nts.len();
        let mut by_lhs: Vec<Vec<u32>> = vec![Vec::new(); n_nts];
        for (p, &lhs) in self.prod_lhs.iter().enumerate() {
            by_lhs[lhs as usize].push(p as u32);
        }
        let mut seen = vec![NONE; n_nts];
        let mut stack = Vec::new();
        let mut lists = Rows::with_rows(n_nts);
        for a in 0..n_nts {
            let start = lists.cells.len();
            seen[a] = a as u32;
            stack.push(a);
            while let Some(b) = stack.pop() {
                for &p in &by_lhs[b] {
                    lists.cells.push(p);
                    if let Some(c) = self.nt_of(self.item_sym[self.off[p as usize] as usize]) {
                        if seen[c] != a as u32 {
                            seen[c] = a as u32;
                            stack.push(c);
                        }
                    }
                }
            }
            lists.cells[start..].sort_unstable();
            lists.end_row();
        }
        self.left_corner = lists;
    }
}

/// The LR(0) automaton, with each closure item's successor recorded.
struct Lr0 {
    /// Kernel items per state. A kernel item's index in `kernels.cells` is
    /// its lookahead slot.
    kernels: Rows<u32>,
    /// Closure items per state: the kernel, then the non-kernel items.
    closures: Rows<u32>,
    /// Per closure item, the lookahead slot of its advanced item in the
    /// successor state (`NONE` for complete items).
    succ: Vec<u32>,
    /// Transitions per state as `(symbol, target)`, in symbol order.
    trans: Rows,
}

impl Lr0 {
    fn n_states(&self) -> usize {
        self.kernels.n_rows()
    }
}

fn build_lr0(gen: &Gen<'_>) -> Lr0 {
    let start = &gen.off[gen.real_count..gen.n_prods()];
    let mut kernels = Rows {
        off: vec![0, start.len() as u32],
        cells: start.to_vec(),
    };
    let mut closures = Rows::with_rows(0);
    let mut succ = Vec::new();
    let mut trans = Rows::with_rows(0);
    // States are found by kernel through chains of the states that share
    // a first kernel item: `last_with[item]` heads the chain, `prev_with`
    // links it.
    let mut last_with = vec![NONE; gen.item_sym.len()];
    let mut prev_with = vec![NONE];
    if let Some(&item) = start.first() {
        last_with[item as usize] = 0;
    }
    let mut prod_stamp = vec![NONE; gen.n_prods()];
    let mut nt_stamp = vec![NONE; gen.g.nts.len()];
    let mut moves: Vec<(u32, u32, u32)> = Vec::new();
    let mut kernel = Vec::new();
    let mut i = 0;
    while i < kernels.n_rows() {
        let stamp = i as u32;
        let first = closures.cells.len();
        for &item in kernels.row(i) {
            closures.cells.push(item);
            let p = gen.item_prod[item as usize];
            if gen.off[p as usize] == item {
                prod_stamp[p as usize] = stamp;
            }
        }
        for &item in kernels.row(i) {
            let Some(a) = gen.nt_of(gen.item_sym[item as usize]) else {
                continue;
            };
            if nt_stamp[a] == stamp {
                continue;
            }
            nt_stamp[a] = stamp;
            for &p in gen.left_corner.row(a) {
                if prod_stamp[p as usize] != stamp {
                    prod_stamp[p as usize] = stamp;
                    closures.cells.push(gen.off[p as usize]);
                }
            }
        }
        closures.end_row();
        succ.resize(closures.cells.len(), NONE);

        moves.clear();
        for ci in first..closures.cells.len() {
            let item = closures.cells[ci];
            let sym = gen.item_sym[item as usize];
            if sym != NONE {
                moves.push((sym, item + 1, ci as u32));
            }
        }
        moves.sort_unstable();
        for run in moves.chunk_by(|a, b| a.0 == b.0) {
            kernel.clear();
            kernel.extend(run.iter().map(|m| m.1));
            let head = kernel[0] as usize;
            let mut j = last_with[head];
            while j != NONE && kernels.row(j as usize) != kernel.as_slice() {
                j = prev_with[j as usize];
            }
            if j == NONE {
                j = kernels.n_rows() as u32;
                kernels.cells.extend_from_slice(&kernel);
                kernels.end_row();
                prev_with.push(last_with[head]);
                last_with[head] = j;
            }
            let base = kernels.off[j as usize];
            for (pos, m) in run.iter().enumerate() {
                succ[m.2 as usize] = base + pos as u32;
            }
            trans.cells.push((run[0].0, j));
        }
        trans.end_row();
        i += 1;
    }
    Lr0 {
        kernels,
        closures,
        succ,
        trans,
    }
}

/// Lookahead sets, `w` words per slot. Slots are the kernel items of every
/// state (in kernel order), then one per complete non-kernel item (an
/// ε-production in some closure).
struct Lookaheads {
    sets: Vec<u64>,
    /// Every complete item as `(state, production, slot)`, ascending.
    complete: Vec<(u32, u32, u32)>,
}

/// LALR(1) lookaheads by spontaneous generation and propagation. Each
/// state's closure is analysed per nonterminal: the non-kernel items of one
/// nonterminal all receive the same spontaneous lookaheads and the same
/// kernel items' propagated ones.
fn lalr_lookaheads(gen: &Gen<'_>, aut: &Lr0) -> Lookaheads {
    let w = gen.w;
    let n_kernel_slots = aut.kernels.cells.len();
    let mut sets = vec![0u64; n_kernel_slots * w];
    for (slot, &item) in aut.kernels.row(0).iter().enumerate() {
        // `__Start → . Goal(nt) nt` gets the end terminal of its own goal,
        // keeping goals' lookaheads disjoint.
        if let Some(nt) = gen.nt_of(gen.item_sym[item as usize + 1]) {
            let end = gen.term_ids[&Terminal::EndOf(NtId(nt as u32))];
            sets[slot * w + end as usize / 64] |= 1 << (end % 64);
        }
    }

    let mut links: Vec<(u32, u32)> = Vec::new();
    let mut complete = Vec::new();
    let mut nt_stamp = vec![NONE; gen.g.nts.len()];
    let mut local = vec![0usize; gen.g.nts.len()];
    let mut spont: Vec<u64> = Vec::new();
    let mut reach: Vec<u64> = Vec::new();
    let mut edges: Vec<(usize, usize)> = Vec::new();
    let mut eps_sets: Vec<u64> = Vec::new();
    let mut n_eps = 0;
    for i in 0..aut.n_states() {
        let stamp = i as u32;
        let kbase = aut.kernels.off[i];
        let klen = aut.kernels.row(i).len();
        let kw = klen.div_ceil(64);
        let cl = aut.closures.row(i);
        let cl_succ = &aut.succ[aut.closures.off[i] as usize..aut.closures.off[i + 1] as usize];
        let lhs_of = |item: u32| gen.prod_lhs[gen.item_prod[item as usize] as usize] as usize;

        let mut n_local = 0;
        for &item in &cl[klen..] {
            let b = lhs_of(item);
            if nt_stamp[b] != stamp {
                nt_stamp[b] = stamp;
                local[b] = n_local;
                n_local += 1;
            }
        }
        spont.clear();
        spont.resize(n_local * w, 0);
        reach.clear();
        reach.resize(n_local * kw, 0);
        edges.clear();
        for (ci, &item) in cl.iter().enumerate() {
            let Some(c) = gen.nt_of(gen.item_sym[item as usize]) else {
                continue;
            };
            if nt_stamp[c] != stamp {
                continue; // a nonterminal without productions
            }
            let c = local[c];
            let x = item as usize;
            or_into(
                &mut spont[c * w..(c + 1) * w],
                &gen.beta[x * w..(x + 1) * w],
            );
            if gen.beta_nullable[x] {
                if ci < klen {
                    reach[c * kw + ci / 64] |= 1 << (ci % 64);
                } else {
                    edges.push((local[lhs_of(item)], c));
                }
            }
        }
        loop {
            let mut grew = false;
            for &(b, c) in &edges {
                grew |= union_rows(&mut spont, w, c, b);
                grew |= union_rows(&mut reach, kw, c, b);
            }
            if !grew {
                break;
            }
        }

        for (ci, (&item, &to)) in cl.iter().zip(cl_succ).enumerate() {
            if ci < klen {
                let slot = kbase + ci as u32;
                if to == NONE {
                    complete.push((stamp, gen.item_prod[item as usize], slot));
                } else {
                    links.push((slot, to));
                }
                continue;
            }
            let b = local[lhs_of(item)];
            let to = if to == NONE {
                // A complete non-kernel item (an ε-production) gets a slot
                // of its own.
                let slot = (n_kernel_slots + n_eps) as u32;
                n_eps += 1;
                eps_sets.extend_from_slice(&spont[b * w..(b + 1) * w]);
                complete.push((stamp, gen.item_prod[item as usize], slot));
                slot
            } else {
                or_into(
                    &mut sets[to as usize * w..(to as usize + 1) * w],
                    &spont[b * w..(b + 1) * w],
                );
                to
            };
            let reached = &reach[b * kw..(b + 1) * kw];
            if reached.iter().any(|&word| word != 0) {
                links.extend(bits(reached).map(|k| (kbase + k, to)));
            }
        }
    }
    sets.extend_from_slice(&eps_sets);
    propagate(&mut sets, w, n_kernel_slots + n_eps, &links);
    complete.sort_unstable();
    Lookaheads { sets, complete }
}

/// Pushes lookaheads along `links` until nothing grows, revisiting only
/// slots whose set grew.
fn propagate(sets: &mut [u64], w: usize, n_slots: usize, links: &[(u32, u32)]) {
    let mut out = vec![0u32; n_slots + 1];
    for &(from, _) in links {
        out[from as usize + 1] += 1;
    }
    for s in 0..n_slots {
        out[s + 1] += out[s];
    }
    let mut fill = out.clone();
    let mut to = vec![0u32; links.len()];
    for &(from, dst) in links {
        to[fill[from as usize] as usize] = dst;
        fill[from as usize] += 1;
    }
    let mut queued = vec![true; n_slots];
    let mut work: Vec<u32> = (0..n_slots as u32).rev().collect();
    while let Some(s) = work.pop() {
        queued[s as usize] = false;
        for &dst in &to[out[s as usize] as usize..out[s as usize + 1] as usize] {
            if dst != s && union_rows(sets, w, dst as usize, s as usize) && !queued[dst as usize] {
                queued[dst as usize] = true;
                work.push(dst);
            }
        }
    }
}

/// ACTION and GOTO rows, default reductions, and every conflict in
/// (state, terminal) order.
struct Actions {
    action: Rows,
    goto_: Rows,
    default_reduce: Vec<u32>,
    conflicts: Vec<Conflict>,
}

fn build_actions(gen: &Gen<'_>, aut: &Lr0, la: &Lookaheads) -> Actions {
    let n_states = aut.n_states();
    assert!(
        n_states < 1 << 30 && gen.n_prods() < 1 << 30,
        "packed action entries hold 30-bit states and productions"
    );
    let w = gen.w;
    let mut action = Rows::with_rows(n_states);
    let mut goto_ = Rows::with_rows(n_states);
    let mut default_reduce = Vec::with_capacity(n_states);
    let mut conflicts = Vec::new();
    let mut row: Vec<Option<ActionEntry>> = vec![None; gen.n_terms];
    // This state's conflicts as (terminal, description), in the order found.
    let mut state_conflicts: Vec<(TermId, String)> = Vec::new();
    let mut complete = la.complete.iter().peekable();
    for state in 0..n_states as u32 {
        let mut n_complete = 0;
        let mut only_reduce = None;
        // Reduce and accept actions, by ascending production.
        while let Some(&&(_, prod, slot)) = complete.peek().filter(|c| c.0 == state) {
            complete.next();
            n_complete += 1;
            let entry = if prod as usize >= gen.real_count {
                ActionEntry::Accept
            } else {
                only_reduce = Some(prod);
                ActionEntry::Reduce(ProdId(prod))
            };
            let slot = slot as usize;
            for t in bits(&la.sets[slot * w..(slot + 1) * w]) {
                let description = match row[t as usize] {
                    None => {
                        row[t as usize] = Some(entry);
                        continue;
                    }
                    Some(existing) if existing == entry => continue,
                    Some(ActionEntry::Reduce(other)) => format!(
                        "reduce/reduce conflict between productions {} and {prod}",
                        other.0
                    ),
                    Some(other) => format!("conflict between {entry:?} and {other:?}"),
                };
                state_conflicts.push((t, description));
            }
        }

        // Shifts and gotos, with precedence-based shift/reduce resolution.
        let mut shifts = false;
        for &(t, j) in aut.trans.row(state as usize) {
            if let Some(nt) = gen.nt_of(t) {
                goto_.cells.push((nt as u32, j));
                continue;
            }
            shifts = true;
            let cell = &mut row[t as usize];
            let description = match *cell {
                None => {
                    *cell = Some(ActionEntry::Shift(j));
                    continue;
                }
                Some(ActionEntry::Reduce(prod)) => {
                    match (gen.prod_prec(prod), gen.term_prec[t as usize]) {
                        (Some((pl, _)), Some((tl, ta))) => {
                            if pl < tl || (pl == tl && ta == Assoc::Right) {
                                *cell = Some(ActionEntry::Shift(j));
                            } else if pl == tl && ta == Assoc::NonAssoc {
                                // An explicit syntax error.
                                *cell = None;
                            }
                            continue;
                        }
                        _ => format!(
                            "shift/reduce conflict (reduce production {}) not resolved by \
                             precedence",
                            prod.0
                        ),
                    }
                }
                Some(other) => format!("shift conflicts with {other:?}"),
            };
            state_conflicts.push((t, description));
        }

        for (t, cell) in row.iter_mut().enumerate() {
            if let Some(entry) = cell.take() {
                action.cells.push((t as TermId, entry.pack()));
            }
        }
        action.end_row();
        goto_.end_row();
        state_conflicts.sort_by_key(|(t, _)| *t);
        conflicts.extend(state_conflicts.drain(..).map(|(t, description)| Conflict {
            state,
            on: gen.terms[t as usize],
            description,
        }));
        // A state with no shifts and exactly one complete item, a real
        // one, reduces without consulting the lookahead.
        default_reduce.push(match only_reduce {
            Some(prod) if !shifts && n_complete == 1 => prod,
            _ => NO_DEFAULT,
        });
    }
    Actions {
        action,
        goto_,
        default_reduce,
        conflicts,
    }
}

pub(crate) fn build_tables(g: &GrammarData) -> Result<Tables, GrammarError> {
    let _p = maya_telemetry::phase(maya_telemetry::Phase::TableBuild);
    maya_telemetry::count(maya_telemetry::Counter::TablesBuilt);
    let t0 = Instant::now();
    let gen = Gen::new(g);
    let t1 = Instant::now();
    let aut = build_lr0(&gen);
    let t2 = Instant::now();
    let la = lalr_lookaheads(&gen, &aut);
    let t3 = Instant::now();
    let actions = build_actions(&gen, &aut, &la);
    let t4 = Instant::now();
    maya_telemetry::trace(maya_telemetry::TraceKind::TableBuild, || {
        (
            format!(
                "{} productions, {} LR(0) states",
                g.prods.len(),
                aut.n_states()
            ),
            format!(
                "gen={:?} lr0={:?} la={:?} actions={:?}",
                t1 - t0,
                t2 - t1,
                t3 - t2,
                t4 - t3
            ),
        )
    });
    if !actions.conflicts.is_empty() {
        return Err(GrammarError::Conflicts(actions.conflicts));
    }
    let w = gen.w;
    Ok(Tables {
        n_states: aut.n_states() as u32,
        action: actions.action,
        goto_: actions.goto_,
        first_nt: (0..g.nts.len())
            .map(|nt| BitSet::from_words(gen.first[nt * w..(nt + 1) * w].to_vec()))
            .collect(),
        nullable_nt: gen.nullable,
        terms: gen.terms,
        term_ids: gen.term_ids,
        default_reduce: actions.default_reduce,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{GrammarBuilder, RhsItem};
    use maya_ast::NodeKind;
    use maya_lexer::TokenKind;

    /// The grammar of Figure 6(a):
    /// `A → a | b | c;  D → d;  F → f;  S → D e A | F A`.
    fn figure6() -> crate::Grammar {
        let mut b = GrammarBuilder::new();
        // Reuse node kinds as stand-ins for the paper's nonterminals.
        let a = NodeKind::Expression; // A
        let d = NodeKind::Statement; // D
        let f_nt = NodeKind::Formal; // F
        let s = NodeKind::CompilationUnit; // S
        for t in ["a", "b", "c"] {
            b.add_production(a, &[RhsItem::word(t)], None).unwrap();
        }
        b.add_production(d, &[RhsItem::word("d")], None).unwrap();
        b.add_production(f_nt, &[RhsItem::word("f")], None).unwrap();
        b.add_production(
            s,
            &[RhsItem::Kind(d), RhsItem::word("e"), RhsItem::Kind(a)],
            None,
        )
        .unwrap();
        b.add_production(s, &[RhsItem::Kind(f_nt), RhsItem::Kind(a)], None)
            .unwrap();
        b.finish()
    }

    #[test]
    fn figure6_builds() {
        let g = figure6();
        let t = g.tables().expect("figure 6 grammar is LALR(1)");
        assert!(t.n_states() > 5);
        // FIRST(A) = {a, b, c}
        let a_nt = g.nt_for_kind(NodeKind::Expression).unwrap();
        let first: Vec<Terminal> = t.first_of_nt(a_nt).iter().map(|i| t.term(i)).collect();
        assert_eq!(first.len(), 3);
        assert!(!t.nullable(a_nt));
    }

    #[test]
    fn ambiguous_grammar_rejected() {
        // E → E + E without precedence: shift/reduce conflict must reject.
        let mut b = GrammarBuilder::new();
        b.add_production(
            NodeKind::Expression,
            &[
                RhsItem::Kind(NodeKind::Expression),
                RhsItem::tok(TokenKind::Plus),
                RhsItem::Kind(NodeKind::Expression),
            ],
            None,
        )
        .unwrap();
        b.add_production(
            NodeKind::Expression,
            &[RhsItem::tok(TokenKind::IntLit)],
            None,
        )
        .unwrap();
        let g = b.finish();
        match g.tables() {
            Err(GrammarError::Conflicts(cs)) => assert!(!cs.is_empty()),
            other => panic!("expected conflicts, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn precedence_resolves_expression_grammar() {
        let mut b = GrammarBuilder::new();
        b.set_prec(Terminal::Tok(TokenKind::Plus), 10, Assoc::Left);
        b.set_prec(Terminal::Tok(TokenKind::Star), 20, Assoc::Left);
        for op in [TokenKind::Plus, TokenKind::Star] {
            b.add_production(
                NodeKind::Expression,
                &[
                    RhsItem::Kind(NodeKind::Expression),
                    RhsItem::tok(op),
                    RhsItem::Kind(NodeKind::Expression),
                ],
                None,
            )
            .unwrap();
        }
        b.add_production(
            NodeKind::Expression,
            &[RhsItem::tok(TokenKind::IntLit)],
            None,
        )
        .unwrap();
        let g = b.finish();
        let t = g.tables().expect("precedence resolves all conflicts");
        assert!(t.n_states() > 3);
    }

    #[test]
    fn nonassoc_kills_entry() {
        let mut b = GrammarBuilder::new();
        b.set_prec(Terminal::Tok(TokenKind::EqEq), 10, Assoc::NonAssoc);
        b.add_production(
            NodeKind::Expression,
            &[
                RhsItem::Kind(NodeKind::Expression),
                RhsItem::tok(TokenKind::EqEq),
                RhsItem::Kind(NodeKind::Expression),
            ],
            None,
        )
        .unwrap();
        b.add_production(
            NodeKind::Expression,
            &[RhsItem::tok(TokenKind::IntLit)],
            None,
        )
        .unwrap();
        let g = b.finish();
        // Grammar builds: `a == b == c` will simply fail to parse at runtime.
        g.tables()
            .expect("nonassoc resolves the conflict by erroring");
    }

    #[test]
    fn epsilon_productions() {
        // L → ε | L x  (via list lowering)
        let mut b = GrammarBuilder::new();
        b.add_production(
            NodeKind::ModifierList,
            &[RhsItem::List(Box::new(RhsItem::word("mod")), None)],
            None,
        )
        .unwrap();
        let g = b.finish();
        let t = g.tables().unwrap();
        let nt = g.nt_for_kind(NodeKind::ModifierList).unwrap();
        assert!(t.nullable(nt));
    }

    #[test]
    fn goal_markers_exist_for_all_nts() {
        let g = figure6();
        let t = g.tables().unwrap();
        for idx in 1..g.nt_count() {
            assert!(
                t.goal_term(NtId(idx as u32)).is_some(),
                "missing goal marker for nt {idx}"
            );
        }
    }

    /// Runs `t` from `goal` over `words` (identifiers), reducing through
    /// the tables alone; true when the input is accepted.
    fn accepts(g: &crate::Grammar, t: &Tables, goal: NtId, words: &[&str]) -> bool {
        let mut input: Vec<TermId> = words
            .iter()
            .map(|w| {
                t.term_id(Terminal::Word(maya_lexer::sym(w)))
                    .expect("word terminal")
            })
            .collect();
        input.push(t.end_of(goal).unwrap());
        let mut states = vec![t.start_state()];
        match t.action(t.start_state(), t.goal_term(goal).unwrap()) {
            Some(ActionEntry::Shift(j)) => states.push(j),
            other => panic!("no start shift: {other:?}"),
        }
        let mut at = 0;
        loop {
            let state = *states.last().unwrap();
            match t.action(state, input[at]) {
                Some(ActionEntry::Shift(j)) => {
                    states.push(j);
                    at += 1;
                }
                Some(ActionEntry::Reduce(p)) => {
                    let prod = g.production(p);
                    states.truncate(states.len() - prod.rhs.len());
                    let top = *states.last().unwrap();
                    states.push(t.goto(top, prod.lhs).expect("goto after reduce"));
                }
                Some(ActionEntry::Accept) => return at == input.len() - 1,
                None => return false,
            }
        }
    }

    #[test]
    fn kernel_wider_than_one_word() {
        // U → T_i z_i ;  T_i → x N_i ;  N_i → y_i | y_i w  for 70 values of
        // i. After `x` the kernel holds the 70 items T_i → x . N_i, each
        // with its own lookahead z_i, and each N_i's closure items must
        // trace back to the right kernel position, past the first 64 too:
        // after y_i, N_i → y_i reduces on z_i alone. State 0's kernel, one
        // start item per nonterminal, is wider still.
        let mut b = GrammarBuilder::new();
        let u = b.fresh_nonterminal("U");
        let word = |w: &str| Sym::T(Terminal::Word(maya_lexer::sym(w)));
        for i in 0..70 {
            let t = b.fresh_nonterminal(&format!("T{i}"));
            let n = b.fresh_nonterminal(&format!("N{i}"));
            let dispatch = crate::Action::Dispatch;
            b.add_lowered(u, vec![Sym::N(t), word(&format!("z{i}"))], dispatch, None);
            b.add_lowered(t, vec![word("x"), Sym::N(n)], dispatch, None);
            b.add_lowered(n, vec![word(&format!("y{i}"))], dispatch, None);
            b.add_lowered(n, vec![word(&format!("y{i}")), word("w")], dispatch, None);
        }
        let g = b.finish();
        let t = g.tables().expect("the grammar is LALR(1)");
        for i in 0..70 {
            let (y, z) = (format!("y{i}"), format!("z{i}"));
            assert!(
                accepts(&g, &t, u, &["x", &y, &z]),
                "U must accept x {y} {z}"
            );
            let other = format!("z{}", (i + 1) % 70);
            assert!(
                !accepts(&g, &t, u, &["x", &y, &other]),
                "U must reject x {y} {other}"
            );
        }
    }

    #[test]
    fn terminal_ids_cross_a_word_boundary() {
        // S → L | q ;  L → ε | L x_i  for 80 words x_i. The start state
        // shifts q, so L → ε reduces on its lookahead set, every x_i plus
        // S's end terminal: ids on both sides of a 64-bit word boundary.
        let mut b = GrammarBuilder::new();
        let s = b.fresh_nonterminal("S");
        let l = b.fresh_nonterminal("L");
        let word = |w: &str| Sym::T(Terminal::Word(maya_lexer::sym(w)));
        let dispatch = crate::Action::Dispatch;
        b.add_lowered(s, vec![Sym::N(l)], dispatch, None);
        b.add_lowered(s, vec![word("q")], dispatch, None);
        b.add_lowered(l, vec![], dispatch, None);
        let words: Vec<String> = (0..80).map(|i| format!("x{i:02}")).collect();
        for w in &words {
            b.add_lowered(l, vec![Sym::N(l), word(w)], dispatch, None);
        }
        let g = b.finish();
        let t = g.tables().expect("left-recursive list is LALR(1)");
        let id = |w: &str| t.term_id(Terminal::Word(maya_lexer::sym(w))).unwrap();
        assert!(
            id("x00") < 64 && id("x79") >= 64,
            "ids must straddle a word"
        );
        let all: Vec<&str> = words.iter().map(String::as_str).collect();
        assert!(accepts(&g, &t, s, &all));
        for first in ["x00", "x63", "x64", "x79"] {
            assert!(accepts(&g, &t, s, &[first, "x01"]), "L → ε on {first}");
        }
        assert!(accepts(&g, &t, s, &[]));
        assert!(accepts(&g, &t, s, &["q"]));
        assert!(!accepts(&g, &t, s, &["q", "x00"]));
    }

    #[test]
    fn cyclic_nullable_chain() {
        // A → B E | a ;  B → C F ;  C → A G ;  E, F, G → ε | e, f, g ;
        // D → A d | a e. A, B and C are left corners of one another with
        // nullable tails, so a closure holding them passes lookaheads
        // around the cycle A → B → C → A. Such a grammar is cyclic
        // (A ⇒+ A) and must be rejected, but only once the lookaheads have
        // settled: `f` starts at C and reaches B, and with it the
        // ε-reduction of F after C, only by going on through A.
        let build = || {
            let mut b = GrammarBuilder::new();
            let [a, bb, c, d, e, f, g] =
                ["A", "B", "C", "D", "E", "F", "G"].map(|n| b.fresh_nonterminal(n));
            let word = |w: &str| Sym::T(Terminal::Word(maya_lexer::sym(w)));
            let mut add = |lhs, rhs| b.add_lowered(lhs, rhs, crate::Action::Dispatch, None);
            add(a, vec![Sym::N(bb), Sym::N(e)]);
            let a_word = add(a, vec![word("a")]);
            add(bb, vec![Sym::N(c), Sym::N(f)]);
            add(c, vec![Sym::N(a), Sym::N(g)]);
            add(e, vec![]);
            add(e, vec![word("e")]);
            let f_empty = add(f, vec![]);
            add(f, vec![word("f")]);
            add(g, vec![]);
            add(g, vec![word("g")]);
            add(d, vec![Sym::N(a), word("d")]);
            add(d, vec![word("a"), word("e")]);
            let conflicts = match b.finish().tables() {
                Err(GrammarError::Conflicts(cs)) => cs,
                other => panic!(
                    "a cyclic grammar must be rejected, got {:?}",
                    other.map(|_| ())
                ),
            };
            (conflicts, a_word, f_empty)
        };
        let (conflicts, a_word, f_empty) = build();
        let has = |on: &str, prod: ProdId| {
            let description = format!(
                "shift/reduce conflict (reduce production {}) not resolved by precedence",
                prod.0
            );
            conflicts.iter().any(|c| {
                c.on == Terminal::Word(maya_lexer::sym(on)) && c.description == description
            })
        };
        assert!(has("f", f_empty), "{conflicts:#?}");
        assert!(has("e", a_word), "{conflicts:#?}");
        assert_eq!(
            format!("{conflicts:?}"),
            format!("{:?}", build().0),
            "report is deterministic"
        );
    }
}
