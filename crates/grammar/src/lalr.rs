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
//!
//! A state's closure ([`Closer`]), its lookahead analysis ([`Analyzer`])
//! and its action rows ([`ActionBuilder`]) are the building blocks of both
//! a full build and a derivation from a parent automaton
//! ([`crate::derive`]), which runs them only for the states an extension
//! changes.

use crate::bitset::bits;
use crate::build::{GrammarData, GrammarError};
use crate::prod::{Assoc, ProdId};
use crate::symbol::{NtId, Sym, Terminal};
use crate::tables::{ActionEntry, Conflict, Rows, Store, Tables, TermId, NO_DEFAULT};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// No symbol after the dot / no successor slot.
pub(crate) const NONE: u32 = u32::MAX;

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
pub(crate) struct Gen<'g> {
    pub(crate) g: &'g GrammarData,
    pub(crate) real_count: usize,
    pub(crate) n_terms: usize,
    /// Words per lookahead set: `ceil(n_terms / 64)`.
    pub(crate) w: usize,
    pub(crate) terms: Vec<Terminal>,
    pub(crate) term_ids: HashMap<Terminal, TermId>,
    pub(crate) prod_lhs: Vec<u32>,
    /// First item of each production, plus one past the last item.
    pub(crate) off: Vec<u32>,
    /// Precedence per terminal id.
    pub(crate) term_prec: Vec<Option<(u16, Assoc)>>,
    /// The symbol after the dot of each item, `NONE` when complete.
    pub(crate) item_sym: Vec<u32>,
    pub(crate) item_prod: Vec<u32>,
    /// FIRST per nonterminal, `w` words each.
    pub(crate) first: Vec<u64>,
    pub(crate) nullable: Vec<bool>,
    /// FIRST of each item's β (the symbols after the one after the dot),
    /// `w` words each, and whether β is nullable.
    pub(crate) beta: Vec<u64>,
    pub(crate) beta_nullable: Vec<bool>,
    /// Per nonterminal, every production whose LHS is one of its left
    /// corners (itself included), ascending: the non-kernel items its
    /// occurrence after a dot adds to an LR(0) closure.
    pub(crate) left_corner: Rows<u32>,
}

impl<'g> Gen<'g> {
    pub(crate) fn new(g: &'g GrammarData) -> Gen<'g> {
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

    pub(crate) fn n_prods(&self) -> usize {
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
    pub(crate) fn nt_of(&self, sym: u32) -> Option<usize> {
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

    /// |FIRST(β)| of item `x`.
    pub(crate) fn beta_count(&self, x: usize) -> u32 {
        let w = self.w;
        self.beta[x * w..(x + 1) * w]
            .iter()
            .map(|word| word.count_ones())
            .sum()
    }
}

/// Buffers for LR(0) closures: stamp arrays shared by every state.
pub(crate) struct Closer {
    prod_stamp: Vec<u32>,
    nt_stamp: Vec<u32>,
    stamp: u32,
}

impl Closer {
    pub(crate) fn new(gen: &Gen<'_>) -> Closer {
        Closer {
            prod_stamp: vec![NONE; gen.n_prods()],
            nt_stamp: vec![NONE; gen.g.nts.len()],
            stamp: 0,
        }
    }

    /// Appends the closure of `kernel` to `out`: the kernel items, then,
    /// for each nonterminal after a kernel item's dot (first occurrence
    /// only), the first items of its left-corner productions not there
    /// yet, in list order.
    pub(crate) fn close(&mut self, gen: &Gen<'_>, kernel: &[u32], out: &mut Vec<u32>) {
        let stamp = self.stamp;
        self.stamp += 1;
        for &item in kernel {
            out.push(item);
            let p = gen.item_prod[item as usize];
            if gen.off[p as usize] == item {
                self.prod_stamp[p as usize] = stamp;
            }
        }
        for &item in kernel {
            let Some(a) = gen.nt_of(gen.item_sym[item as usize]) else {
                continue;
            };
            if self.nt_stamp[a] == stamp {
                continue;
            }
            self.nt_stamp[a] = stamp;
            for &p in gen.left_corner.row(a) {
                if self.prod_stamp[p as usize] != stamp {
                    self.prod_stamp[p as usize] = stamp;
                    out.push(gen.off[p as usize]);
                }
            }
        }
    }
}

/// The moves out of a closure as `(symbol, advanced item, closure index)`,
/// sorted: each run of one symbol lists its target's kernel, ascending.
pub(crate) fn moves_of(gen: &Gen<'_>, closure: &[u32], moves: &mut Vec<(u32, u32, u32)>) {
    moves.clear();
    for (ci, &item) in closure.iter().enumerate() {
        let sym = gen.item_sym[item as usize];
        if sym != NONE {
            moves.push((sym, item + 1, ci as u32));
        }
    }
    moves.sort_unstable();
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
    let mut closer = Closer::new(gen);
    let mut moves = Vec::new();
    let mut kernel = Vec::new();
    let mut i = 0;
    while i < kernels.n_rows() {
        let first = closures.cells.len();
        closer.close(gen, kernels.row(i), &mut closures.cells);
        closures.end_row();
        succ.resize(closures.cells.len(), NONE);

        moves_of(gen, &closures.cells[first..], &mut moves);
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
                succ[first + m.2 as usize] = base + pos as u32;
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
/// ε-production in some closure), numbered in state and closure order.
pub(crate) struct Lookaheads {
    pub(crate) sets: Vec<u64>,
    /// Every complete item as `(state, production, slot)`, ascending.
    pub(crate) complete: Vec<(u32, u32, u32)>,
    /// The propagation links by source slot: slot `s` passes its set to
    /// `link_to[link_off[s]..link_off[s + 1]]`.
    pub(crate) link_off: Vec<u32>,
    pub(crate) link_to: Vec<u32>,
}

/// What the per-state analyses produce, before propagation.
pub(crate) struct LaParts {
    w: usize,
    /// Kernel slots' sets; the ε slots' follow in `eps`.
    pub(crate) sets: Vec<u64>,
    pub(crate) eps: Vec<u64>,
    pub(crate) n_kernel_slots: usize,
    pub(crate) links: Vec<(u32, u32)>,
    pub(crate) complete: Vec<(u32, u32, u32)>,
}

impl LaParts {
    pub(crate) fn new(n_kernel_slots: usize, w: usize) -> LaParts {
        LaParts {
            w,
            sets: vec![0u64; n_kernel_slots * w],
            eps: Vec::new(),
            n_kernel_slots,
            links: Vec::new(),
            complete: Vec::new(),
        }
    }

    /// The slot the next ε item gets.
    pub(crate) fn next_eps(&self) -> u32 {
        (self.n_kernel_slots + self.eps.len() / self.w) as u32
    }

    /// `__Start → . Goal(nt) nt` gets the end terminal of its own goal,
    /// keeping goals' lookaheads disjoint. `start` is state 0's kernel,
    /// whose slots come first.
    pub(crate) fn seed_start(&mut self, gen: &Gen<'_>, start: &[u32]) {
        let w = self.w;
        for (slot, &item) in start.iter().enumerate() {
            if let Some(nt) = gen.nt_of(gen.item_sym[item as usize + 1]) {
                let end = gen.term_ids[&Terminal::EndOf(NtId(nt as u32))];
                self.sets[slot * w + end as usize / 64] |= 1 << (end % 64);
            }
        }
    }

    /// Propagates the sets along the links to the least fixpoint above
    /// them, starting from the slots in `work` (every slot whose links may
    /// not hold yet); `None` starts from all of them.
    pub(crate) fn finish(mut self, work: Option<Vec<u32>>) -> Lookaheads {
        let n_slots = self.n_kernel_slots + self.eps.len() / self.w;
        self.sets.extend_from_slice(&self.eps);
        let (link_off, link_to) = link_csr(n_slots, &self.links);
        drop(self.links);
        let work = work.unwrap_or_else(|| (0..n_slots as u32).rev().collect());
        propagate(&mut self.sets, self.w, &link_off, &link_to, work);
        self.complete.sort_unstable();
        Lookaheads {
            sets: self.sets,
            complete: self.complete,
            link_off,
            link_to,
        }
    }
}

/// Buffers for one state's lookahead analysis. The closure is analysed per
/// nonterminal: the non-kernel items of one nonterminal all receive the
/// same spontaneous lookaheads and the same kernel items' propagated ones.
pub(crate) struct Analyzer {
    nt_stamp: Vec<u32>,
    local: Vec<usize>,
    stamp: u32,
    spont: Vec<u64>,
    reach: Vec<u64>,
    edges: Vec<(usize, usize)>,
}

impl Analyzer {
    pub(crate) fn new(gen: &Gen<'_>) -> Analyzer {
        Analyzer {
            nt_stamp: vec![NONE; gen.g.nts.len()],
            local: vec![0; gen.g.nts.len()],
            stamp: 0,
            spont: Vec::new(),
            reach: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Analyses `state`, whose closure is `cl` (the `klen` kernel items
    /// first, on slots from `kbase`) with successor slots `cl_succ`: ors
    /// spontaneous lookaheads into successor slots, and records links,
    /// complete items and ε slots in `out`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn analyze(
        &mut self,
        gen: &Gen<'_>,
        state: u32,
        kbase: u32,
        klen: usize,
        cl: &[u32],
        cl_succ: &[u32],
        out: &mut LaParts,
    ) {
        let w = gen.w;
        let stamp = self.stamp;
        self.stamp += 1;
        let kw = klen.div_ceil(64);
        let lhs_of = |item: u32| gen.prod_lhs[gen.item_prod[item as usize] as usize] as usize;

        let mut n_local = 0;
        for &item in &cl[klen..] {
            let b = lhs_of(item);
            if self.nt_stamp[b] != stamp {
                self.nt_stamp[b] = stamp;
                self.local[b] = n_local;
                n_local += 1;
            }
        }
        self.spont.clear();
        self.spont.resize(n_local * w, 0);
        self.reach.clear();
        self.reach.resize(n_local * kw, 0);
        self.edges.clear();
        for (ci, &item) in cl.iter().enumerate() {
            let Some(c) = gen.nt_of(gen.item_sym[item as usize]) else {
                continue;
            };
            if self.nt_stamp[c] != stamp {
                continue; // a nonterminal without productions
            }
            let c = self.local[c];
            let x = item as usize;
            or_into(
                &mut self.spont[c * w..(c + 1) * w],
                &gen.beta[x * w..(x + 1) * w],
            );
            if gen.beta_nullable[x] {
                if ci < klen {
                    self.reach[c * kw + ci / 64] |= 1 << (ci % 64);
                } else {
                    self.edges.push((self.local[lhs_of(item)], c));
                }
            }
        }
        loop {
            let mut grew = false;
            for &(b, c) in &self.edges {
                grew |= union_rows(&mut self.spont, w, c, b);
                grew |= union_rows(&mut self.reach, kw, c, b);
            }
            if !grew {
                break;
            }
        }

        for (ci, (&item, &to)) in cl.iter().zip(cl_succ).enumerate() {
            if ci < klen {
                let slot = kbase + ci as u32;
                if to == NONE {
                    out.complete
                        .push((state, gen.item_prod[item as usize], slot));
                } else {
                    out.links.push((slot, to));
                }
                continue;
            }
            let b = self.local[lhs_of(item)];
            let spont = &self.spont[b * w..(b + 1) * w];
            let to = if to == NONE {
                // A complete non-kernel item (an ε-production) gets a slot
                // of its own.
                let slot = out.next_eps();
                out.eps.extend_from_slice(spont);
                out.complete
                    .push((state, gen.item_prod[item as usize], slot));
                slot
            } else {
                or_into(&mut out.sets[to as usize * w..(to as usize + 1) * w], spont);
                to
            };
            let reached = &self.reach[b * kw..(b + 1) * kw];
            if reached.iter().any(|&word| word != 0) {
                out.links.extend(bits(reached).map(|k| (kbase + k, to)));
            }
        }
    }
}

/// LALR(1) lookaheads by spontaneous generation and propagation.
fn lalr_lookaheads(gen: &Gen<'_>, aut: &Lr0) -> Lookaheads {
    let mut parts = LaParts::new(aut.kernels.cells.len(), gen.w);
    parts.seed_start(gen, aut.kernels.row(0));
    let mut analyzer = Analyzer::new(gen);
    for i in 0..aut.n_states() {
        let (from, to) = (
            aut.closures.off[i] as usize,
            aut.closures.off[i + 1] as usize,
        );
        analyzer.analyze(
            gen,
            i as u32,
            aut.kernels.off[i],
            aut.kernels.row(i).len(),
            &aut.closures.cells[from..to],
            &aut.succ[from..to],
            &mut parts,
        );
    }
    parts.finish(None)
}

/// The links as compressed rows by source slot, in the order given.
fn link_csr(n_slots: usize, links: &[(u32, u32)]) -> (Vec<u32>, Vec<u32>) {
    let mut off = vec![0u32; n_slots + 1];
    for &(from, _) in links {
        off[from as usize + 1] += 1;
    }
    for s in 0..n_slots {
        off[s + 1] += off[s];
    }
    let mut fill = off.clone();
    let mut to = vec![0u32; links.len()];
    for &(from, dst) in links {
        to[fill[from as usize] as usize] = dst;
        fill[from as usize] += 1;
    }
    (off, to)
}

/// Pushes lookaheads along the links from the slots in `work` until nothing
/// grows, revisiting only slots whose set grew.
fn propagate(sets: &mut [u64], w: usize, off: &[u32], to: &[u32], mut work: Vec<u32>) {
    let mut queued = vec![false; off.len() - 1];
    for &s in &work {
        queued[s as usize] = true;
    }
    while let Some(s) = work.pop() {
        queued[s as usize] = false;
        for &dst in &to[off[s as usize] as usize..off[s as usize + 1] as usize] {
            if dst != s && union_rows(sets, w, dst as usize, s as usize) && !queued[dst as usize] {
                queued[dst as usize] = true;
                work.push(dst);
            }
        }
    }
}

/// ACTION and GOTO rows, default reductions, and every conflict in
/// (state, terminal) order.
pub(crate) struct Actions {
    pub(crate) action: Rows,
    pub(crate) goto_: Rows,
    pub(crate) default_reduce: Vec<u32>,
    pub(crate) conflicts: Vec<Conflict>,
}

impl Actions {
    pub(crate) fn with_states(n_states: usize) -> Actions {
        Actions {
            action: Rows::with_rows(n_states),
            goto_: Rows::with_rows(n_states),
            default_reduce: Vec::with_capacity(n_states),
            conflicts: Vec::new(),
        }
    }
}

/// Buffers for building one state's rows at a time.
pub(crate) struct ActionBuilder {
    row: Vec<Option<ActionEntry>>,
    /// This state's conflicts as (terminal, description), in the order
    /// found.
    state_conflicts: Vec<(TermId, String)>,
}

impl ActionBuilder {
    pub(crate) fn new(gen: &Gen<'_>) -> ActionBuilder {
        ActionBuilder {
            row: vec![None; gen.n_terms],
            state_conflicts: Vec::new(),
        }
    }

    /// Appends the rows of `state` to `out`: `complete` holds its complete
    /// items by ascending production, `trans` its transitions.
    pub(crate) fn state(
        &mut self,
        gen: &Gen<'_>,
        state: u32,
        complete: &[(u32, u32, u32)],
        trans: &[(u32, u32)],
        sets: &[u64],
        out: &mut Actions,
    ) {
        let w = gen.w;
        let row = &mut self.row;
        let mut only_reduce = None;
        // Reduce and accept actions, by ascending production.
        for &(_, prod, slot) in complete {
            let entry = if prod as usize >= gen.real_count {
                ActionEntry::Accept
            } else {
                only_reduce = Some(prod);
                ActionEntry::Reduce(ProdId(prod))
            };
            let slot = slot as usize;
            for t in bits(&sets[slot * w..(slot + 1) * w]) {
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
                self.state_conflicts.push((t, description));
            }
        }

        // Shifts and gotos, with precedence-based shift/reduce resolution.
        let mut shifts = false;
        for &(t, j) in trans {
            if let Some(nt) = gen.nt_of(t) {
                out.goto_.cells.push((nt as u32, j));
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
            self.state_conflicts.push((t, description));
        }

        for (t, cell) in row.iter_mut().enumerate() {
            if let Some(entry) = cell.take() {
                out.action.cells.push((t as TermId, entry.pack()));
            }
        }
        out.action.end_row();
        out.goto_.end_row();
        self.state_conflicts.sort_by_key(|(t, _)| *t);
        out.conflicts.extend(
            self.state_conflicts
                .drain(..)
                .map(|(t, description)| Conflict {
                    state,
                    on: gen.terms[t as usize],
                    description,
                }),
        );
        // A state with no shifts and exactly one complete item, a real
        // one, reduces without consulting the lookahead.
        out.default_reduce.push(match only_reduce {
            Some(prod) if !shifts && complete.len() == 1 => prod,
            _ => NO_DEFAULT,
        });
    }
}

/// Packed action entries hold 30-bit states and productions.
pub(crate) fn check_packable(n_states: usize, gen: &Gen<'_>) {
    assert!(
        n_states < 1 << 30 && gen.n_prods() < 1 << 30,
        "packed action entries hold 30-bit states and productions"
    );
}

fn build_actions(gen: &Gen<'_>, trans: &Rows, la: &Lookaheads) -> Actions {
    let n_states = trans.n_rows();
    check_packable(n_states, gen);
    let mut out = Actions::with_states(n_states);
    let mut builder = ActionBuilder::new(gen);
    let mut at = 0;
    for state in 0..n_states {
        let end = at
            + la.complete[at..]
                .iter()
                .take_while(|c| c.0 == state as u32)
                .count();
        builder.state(
            gen,
            state as u32,
            &la.complete[at..end],
            trans.row(state),
            &la.sets,
            &mut out,
        );
        at = end;
    }
    out
}

/// What a derivation reads of a built grammar's automaton: its dimensions,
/// the inputs whose growth marks a state for re-analysis, the kernels and
/// transitions, and the final lookaheads with the links that produced them.
pub(crate) struct Automaton {
    pub(crate) n_terms: usize,
    pub(crate) n_real: usize,
    pub(crate) n_nts: usize,
    /// The first item of the start productions.
    pub(crate) start_item: u32,
    /// Precedence per terminal id, as [`prec_code`]s.
    pub(crate) term_prec: Store<u32>,
    /// The length of each nonterminal's left-corner list.
    pub(crate) lc_len: Store<u32>,
    /// |FIRST(β)| per item, and whether β is nullable.
    pub(crate) beta_count: Store<u32>,
    pub(crate) beta_nullable: Store<bool>,
    /// Kernel items per state, as compressed rows.
    pub(crate) kernel_off: Store<u32>,
    pub(crate) kernel_items: Store<u32>,
    /// Transitions per state as `(symbol, target)`, as compressed rows.
    pub(crate) trans_off: Store<u32>,
    pub(crate) trans_cells: Store<(u32, u32)>,
    /// Final lookahead sets, `ceil(n_terms / 64)` words per slot.
    pub(crate) sets: Store<u64>,
    pub(crate) complete: Store<(u32, u32, u32)>,
    pub(crate) link_off: Store<u32>,
    pub(crate) link_to: Store<u32>,
}

impl Automaton {
    pub(crate) fn n_states(&self) -> usize {
        self.kernel_off.len() - 1
    }

    pub(crate) fn n_kernel_slots(&self) -> usize {
        self.kernel_items.len()
    }

    pub(crate) fn kernel(&self, s: usize) -> &[u32] {
        &self.kernel_items[self.kernel_off[s] as usize..self.kernel_off[s + 1] as usize]
    }

    pub(crate) fn trans(&self, s: usize) -> &[(u32, u32)] {
        &self.trans_cells[self.trans_off[s] as usize..self.trans_off[s + 1] as usize]
    }

    /// Assembles the record from the generator and its results.
    pub(crate) fn new(gen: &Gen<'_>, kernels: Rows<u32>, trans: Rows, la: Lookaheads) -> Automaton {
        Automaton {
            n_terms: gen.n_terms,
            n_real: gen.real_count,
            n_nts: gen.g.nts.len(),
            start_item: gen.off[gen.real_count],
            term_prec: gen.term_prec.iter().map(|&p| prec_code(p)).collect(),
            lc_len: (0..gen.left_corner.n_rows())
                .map(|a| gen.left_corner.row(a).len() as u32)
                .collect(),
            beta_count: (0..gen.item_sym.len()).map(|x| gen.beta_count(x)).collect(),
            beta_nullable: gen.beta_nullable.clone().into(),
            kernel_off: kernels.off.into(),
            kernel_items: kernels.cells.into(),
            trans_off: trans.off.into(),
            trans_cells: trans.cells.into(),
            sets: la.sets.into(),
            complete: la.complete.into(),
            link_off: la.link_off.into(),
            link_to: la.link_to.into(),
        }
    }
}

/// A terminal's precedence as one number: 0 for none, else the level
/// shifted past a two-bit associativity tag.
pub(crate) fn prec_code(p: Option<(u16, Assoc)>) -> u32 {
    match p {
        None => 0,
        Some((level, assoc)) => {
            let tag = match assoc {
                Assoc::Left => 1,
                Assoc::Right => 2,
                Assoc::NonAssoc => 3,
            };
            u32::from(level) << 2 | tag
        }
    }
}

/// The tables of a conflict-free build.
pub(crate) fn tables_from(gen: Gen<'_>, n_states: usize, actions: Actions) -> Tables {
    Tables {
        n_states: n_states as u32,
        action: actions.action.into(),
        goto_: actions.goto_.into(),
        first: gen.first.into(),
        nullable_nt: gen.nullable.into(),
        terms: gen.terms,
        term_ids: gen.term_ids,
        default_reduce: actions.default_reduce.into(),
    }
}

/// Builds `g`'s tables and automaton, derived from `parent`'s when one is
/// given and [`crate::derive`] can, in full otherwise. A derivation
/// that meets a conflict gives way to a full build, so a conflict report
/// is the full build's. With `must_derive`, there is no full build: the
/// result is `None` when `g` cannot be derived, and a derivation's own
/// conflicts otherwise.
pub(crate) fn generate(
    g: &GrammarData,
    parent: Option<(&Automaton, &Tables)>,
    must_derive: bool,
) -> Option<Result<(Tables, Automaton), GrammarError>> {
    let _p = maya_telemetry::phase(maya_telemetry::Phase::TableBuild);
    maya_telemetry::count(maya_telemetry::Counter::TablesBuilt);
    let t0 = Instant::now();
    let gen = Gen::new(g);
    let t1 = Instant::now();
    match parent.and_then(|(aut, tables)| crate::derive::derive(&gen, aut, tables)) {
        Some((actions, automaton, [lr0, la, acts])) => {
            trace_build(
                g,
                automaton.n_states(),
                "derived ",
                [t1 - t0, lr0, la, acts],
            );
            if actions.conflicts.is_empty() {
                let n_states = automaton.n_states();
                return Some(Ok((tables_from(gen, n_states, actions), automaton)));
            }
            if must_derive {
                return Some(Err(GrammarError::Conflicts(actions.conflicts)));
            }
        }
        None if must_derive => return None,
        None => {}
    }
    let ((kernels, trans, la, actions), [lr0, la_time, acts]) = full_stages(&gen);
    trace_build(g, trans.n_rows(), "", [t1 - t0, lr0, la_time, acts]);
    if !actions.conflicts.is_empty() {
        return Some(Err(GrammarError::Conflicts(actions.conflicts)));
    }
    let n_states = trans.n_rows();
    let automaton = Automaton::new(&gen, kernels, trans, la);
    Some(Ok((tables_from(gen, n_states, actions), automaton)))
}

/// `g`'s tables built in full outside telemetry: no count, phase or trace
/// event, so a check that builds does not show in what it checks. Debug
/// builds hold every table set they derive or read from the binary to it.
#[cfg(debug_assertions)]
pub(crate) fn full_tables_untraced(g: &GrammarData) -> Result<Tables, GrammarError> {
    let gen = Gen::new(g);
    let ((_, trans, _, actions), _) = full_stages(&gen);
    if !actions.conflicts.is_empty() {
        return Err(GrammarError::Conflicts(actions.conflicts));
    }
    let n_states = trans.n_rows();
    Ok(tables_from(gen, n_states, actions))
}

/// The LR(0), lookahead and action stages of a full build: the kernels and
/// transitions per state, the lookaheads and the actions, with each
/// stage's time.
fn full_stages(gen: &Gen<'_>) -> ((Rows<u32>, Rows, Lookaheads, Actions), [Duration; 3]) {
    let t1 = Instant::now();
    let aut = build_lr0(gen);
    let t2 = Instant::now();
    let la = lalr_lookaheads(gen, &aut);
    let t3 = Instant::now();
    // The closures are done with: free them before the rows grow.
    let Lr0 { kernels, trans, .. } = aut;
    let actions = build_actions(gen, &trans, &la);
    let t4 = Instant::now();
    ((kernels, trans, la, actions), [t2 - t1, t3 - t2, t4 - t3])
}

/// The `table-build` trace event: the grammar's size, then how the tables
/// were made and the time of each stage.
fn trace_build(
    g: &GrammarData,
    n_states: usize,
    how: &str,
    [gen, lr0, la, actions]: [Duration; 4],
) {
    maya_telemetry::trace(maya_telemetry::TraceKind::TableBuild, || {
        (
            format!("{} productions, {n_states} LR(0) states", g.prods.len()),
            format!("{how}gen={gen:?} lr0={lr0:?} la={la:?} actions={actions:?}"),
        )
    });
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
