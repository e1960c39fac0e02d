//! Extension tables derived from the parent grammar's automaton, after
//! Heering, Klint and Rekers, "Incremental Generation of Parsers" (IEEE
//! TSE 16(12), 1990).
//!
//! [`crate::Grammar::extend`] only appends productions and nonterminals,
//! and a derivation also requires every parent terminal to keep its
//! precedence. Then every parent item keeps its number (the start items
//! shift past the new productions), parent terminals keep their relative
//! order (new ones sort in between), and a parent state whose closure
//! reaches no nonterminal with new left-corner productions keeps its
//! closure and transitions. The derivation
//!
//! 1. rebuilds the LR(0) automaton breadth-first in the order a full build
//!    numbers it, copying the transitions of such clean states and
//!    computing only the others' closures;
//! 2. starts every surviving slot from the parent's final lookaheads and
//!    re-analyses only the states whose closure or β sets changed. A
//!    transition that a grown closure redirects, or a parent state no
//!    longer reached, removes links and spontaneous lookaheads, so the
//!    forward cone of what they fed is over-deleted and re-derived from
//!    its surviving predecessors, which are re-analysed too;
//! 3. copies the action rows of every clean state whose reductions kept
//!    their lookaheads, with ids remapped, and builds the rest.
//!
//! The result equals a full build's, byte for byte; a derivation that meets
//! a conflict gives way to a full build, so conflict reports are the full
//! build's too.

use crate::lalr::{
    check_packable, moves_of, prec_code, ActionBuilder, Actions, Analyzer, Automaton, Closer, Gen,
    LaParts, NONE,
};
use crate::tables::{ActionEntry, Rows, Tables};
use std::time::{Duration, Instant};

/// Where the parent's numbers land in the child.
struct Maps {
    /// Parent terminal id → child terminal id (increasing).
    term: Vec<u32>,
    /// The same map as runs `(first, end, shift)` of parent ids that all
    /// move by `shift`.
    runs: Vec<(u32, u32, u32)>,
    n_terms_p: u32,
    n_terms_c: u32,
    /// The parent's first start item, and how far the start items move.
    start_item_p: u32,
    item_delta: u32,
    /// The parent's first start production, and how far they move.
    start_prod_p: u32,
    prod_delta: u32,
}

impl Maps {
    fn prod(&self, p: u32) -> u32 {
        if p < self.start_prod_p {
            p
        } else {
            p + self.prod_delta
        }
    }

    fn item(&self, x: u32) -> u32 {
        if x < self.start_item_p {
            x
        } else {
            x + self.item_delta
        }
    }

    fn sym(&self, s: u32) -> u32 {
        if s < self.n_terms_p {
            self.term[s as usize]
        } else {
            s - self.n_terms_p + self.n_terms_c
        }
    }

    /// Ors the parent terminal set `src` into the child set `dst`, a word
    /// at a time within each run.
    fn or_set(&self, src: &[u64], dst: &mut [u64]) {
        if let [(0, _, 0)] = self.runs[..] {
            for (d, s) in dst.iter_mut().zip(src) {
                *d |= s;
            }
            return;
        }
        for &(first, end, shift) in &self.runs {
            let mut i = first;
            while i < end {
                let (word, bit) = ((i / 64) as usize, i % 64);
                let n = (64 - bit).min(end - i);
                let chunk = (src[word] >> bit) & (u64::MAX >> (64 - n));
                if chunk != 0 {
                    let to = i + shift;
                    let (dw, db) = ((to / 64) as usize, to % 64);
                    dst[dw] |= chunk << db;
                    if db + n > 64 {
                        dst[dw + 1] |= chunk >> (64 - db);
                    }
                }
                i += n;
            }
        }
    }
}

/// The child automaton as it is discovered: kernels in state order, each
/// state's parent origin, and kernel lookup through chains of the states
/// that share a first kernel item (as in the full build).
struct States {
    kernels: Rows<u32>,
    origin: Vec<u32>,
    child_of: Vec<u32>,
    last_with: Vec<u32>,
    prev_with: Vec<u32>,
}

impl States {
    fn add(&mut self, kernel: &[u32], origin: u32) -> u32 {
        let j = self.kernels.n_rows() as u32;
        self.kernels.cells.extend_from_slice(kernel);
        self.kernels.end_row();
        let head = kernel[0] as usize;
        self.prev_with.push(self.last_with[head]);
        self.last_with[head] = j;
        self.origin.push(origin);
        if origin != NONE {
            self.child_of[origin as usize] = j;
        }
        j
    }

    fn find(&self, kernel: &[u32]) -> u32 {
        let mut j = self.last_with[kernel[0] as usize];
        while j != NONE && self.kernels.row(j as usize) != kernel {
            j = self.prev_with[j as usize];
        }
        j
    }
}

/// Derives the action rows and automaton of `gen`'s grammar from its
/// parent's. `None` when the grammar is not a derivable extension of the
/// parent; the actions may hold conflicts, which the caller answers with a
/// full build. Also returns the LR(0), lookahead and action stage times.
pub(crate) fn derive(
    gen: &Gen<'_>,
    p: &Automaton,
    ptables: &Tables,
) -> Option<(Actions, Automaton, [Duration; 3])> {
    let t0 = Instant::now();
    let n_nts = gen.g.nts.len();
    if gen.real_count < p.n_real || n_nts < p.n_nts || ptables.terms.len() != p.n_terms {
        return None;
    }
    let mut term = Vec::with_capacity(p.n_terms);
    for (i, t) in ptables.terms.iter().enumerate() {
        let &c = gen.term_ids.get(t)?;
        if prec_code(gen.term_prec[c as usize]) != p.term_prec[i]
            || term.last().is_some_and(|&l| l >= c)
        {
            return None;
        }
        term.push(c);
    }
    let mut runs: Vec<(u32, u32, u32)> = Vec::new();
    for (i, &c) in term.iter().enumerate() {
        let (i, shift) = (i as u32, c - i as u32);
        match runs.last_mut() {
            Some((_, end, k)) if *k == shift => *end = i + 1,
            _ => runs.push((i, i + 1, shift)),
        }
    }
    let start_item_c = gen.off[gen.real_count];
    let maps = Maps {
        term,
        runs,
        n_terms_p: p.n_terms as u32,
        n_terms_c: gen.n_terms as u32,
        start_item_p: p.start_item,
        item_delta: start_item_c.checked_sub(p.start_item)?,
        start_prod_p: p.n_real as u32,
        prod_delta: (gen.real_count - p.n_real) as u32,
    };
    let start = &gen.off[gen.real_count..gen.n_prods()];
    if start.is_empty() || p.kernel(0).is_empty() {
        return None;
    }

    // ---- LR(0) ----
    let np = p.n_states();
    let grown: Vec<bool> = (0..p.n_nts)
        .map(|a| gen.left_corner.row(a).len() as u32 != p.lc_len[a])
        .collect();
    let nt_after = |x: u32| gen.nt_of(gen.item_sym[maps.item(x) as usize]);
    let mut dirty: Vec<bool> = (0..np)
        .map(|s| {
            p.kernel(s)
                .iter()
                .any(|&x| nt_after(x).is_some_and(|a| grown.get(a).copied().unwrap_or(true)))
        })
        .collect();
    // Parent kernels by mapped first item.
    let mut p_last = vec![NONE; gen.item_sym.len()];
    let mut p_prev = vec![NONE; np];
    for (s, prev) in p_prev.iter_mut().enumerate() {
        let head = maps.item(p.kernel(s)[0]) as usize;
        *prev = p_last[head];
        p_last[head] = s as u32;
    }
    let find_parent = |kernel: &[u32]| {
        let mut s = p_last[kernel[0] as usize];
        while s != NONE {
            let row = p.kernel(s as usize);
            if row.len() == kernel.len() && row.iter().zip(kernel).all(|(&x, &k)| maps.item(x) == k)
            {
                break;
            }
            s = p_prev[s as usize];
        }
        s
    };

    let mut st = States {
        kernels: Rows::with_rows(0),
        origin: Vec::new(),
        child_of: vec![NONE; np],
        last_with: vec![NONE; gen.item_sym.len()],
        prev_with: Vec::new(),
    };
    // New nonterminals add start items, so the start state grows but
    // keeps the parent's as a prefix: it stands in for it, recomputed.
    let mut s0 = find_parent(start);
    let p_start = p.kernel(0);
    if s0 == NONE
        && p_start.len() <= start.len()
        && p_start.iter().zip(start).all(|(&x, &k)| maps.item(x) == k)
    {
        s0 = 0;
        dirty[0] = true;
    }
    st.add(start, s0);
    let mut trans = Rows::with_rows(0);
    // Closures and successor slots of the states computed afresh.
    let mut closures = Rows::<u32>::with_rows(0);
    let mut closure_of: Vec<u32> = Vec::new();
    let mut succ: Vec<u32> = Vec::new();
    // Parent states that lost a transition from a dirty state.
    let mut redirected: Vec<u32> = Vec::new();
    let mut closer = Closer::new(gen);
    let mut moves = Vec::new();
    let mut kernel = Vec::new();
    let mut i = 0;
    while i < st.kernels.n_rows() {
        let o = st.origin[i];
        if o != NONE && !dirty[o as usize] {
            closure_of.push(NONE);
            for &(sym, pt) in p.trans(o as usize) {
                let mut j = st.child_of[pt as usize];
                if j == NONE {
                    kernel.clear();
                    kernel.extend(p.kernel(pt as usize).iter().map(|&x| maps.item(x)));
                    j = st.add(&kernel, pt);
                }
                trans.cells.push((maps.sym(sym), j));
            }
            trans.end_row();
            i += 1;
            continue;
        }
        closure_of.push(closures.n_rows() as u32);
        let first = closures.cells.len();
        closer.close(gen, st.kernels.row(i), &mut closures.cells);
        closures.end_row();
        succ.resize(closures.cells.len(), NONE);
        moves_of(gen, &closures.cells[first..], &mut moves);
        // Most runs keep the parent's target: try it before a search.
        let ptrans = if o == NONE {
            &[][..]
        } else {
            p.trans(o as usize)
        };
        let mut pt_at = 0;
        for run in moves.chunk_by(|a, b| a.0 == b.0) {
            kernel.clear();
            kernel.extend(run.iter().map(|m| m.1));
            while pt_at < ptrans.len() && maps.sym(ptrans[pt_at].0) < run[0].0 {
                pt_at += 1;
            }
            let mut j = NONE;
            if let Some(&(sym, pt)) = ptrans.get(pt_at) {
                let prow = p.kernel(pt as usize);
                if maps.sym(sym) == run[0].0
                    && prow.len() == kernel.len()
                    && prow.iter().zip(&kernel).all(|(&x, &k)| maps.item(x) == k)
                {
                    j = st.child_of[pt as usize];
                    if j == NONE {
                        j = st.add(&kernel, pt);
                    }
                }
            }
            if j == NONE {
                j = st.find(&kernel);
            }
            if j == NONE {
                j = st.add(&kernel, find_parent(&kernel));
            }
            let base = st.kernels.off[j as usize];
            for (pos, m) in run.iter().enumerate() {
                succ[first + m.2 as usize] = base + pos as u32;
            }
            trans.cells.push((run[0].0, j));
        }
        trans.end_row();
        if o != NONE {
            let row = trans.row(i);
            for &(sym, pt) in p.trans(o as usize) {
                let s = maps.sym(sym);
                let kept = row
                    .binary_search_by_key(&s, |c| c.0)
                    .is_ok_and(|k| row[k].1 == st.child_of[pt as usize]);
                if !kept {
                    redirected.push(pt);
                }
            }
        }
        i += 1;
    }
    let n_states = st.kernels.n_rows();
    let t1 = Instant::now();

    // ---- lookaheads ----
    let (w, wp) = (gen.w, p.n_terms.div_ceil(64));
    let n_ks_p = p.n_kernel_slots();
    let n_slots_p = p.link_off.len() - 1;
    // Parent kernel slot → child kernel slot, for the surviving states.
    let mut slot_map = vec![NONE; n_ks_p];
    for c in 0..n_states {
        let o = st.origin[c];
        if o != NONE {
            let (pb, cb) = (p.kernel_off[o as usize], st.kernels.off[c]);
            for k in 0..p.kernel(o as usize).len() as u32 {
                slot_map[(pb + k) as usize] = cb + k;
            }
        }
    }
    let mut complete_off = vec![0u32; np + 1];
    for &(s, _, _) in p.complete.iter() {
        complete_off[s as usize + 1] += 1;
    }
    for s in 0..np {
        complete_off[s + 1] += complete_off[s];
    }

    // Over-delete the forward cone of every removed link and spontaneous
    // lookahead: they fed the kernel slots of a redirected transition's
    // old target and of every dropped state's successors.
    let mut deleted = vec![false; n_slots_p];
    let mut stack: Vec<u32> = Vec::new();
    let seed = |s: u32, deleted: &mut Vec<bool>, stack: &mut Vec<u32>| {
        for k in p.kernel_off[s as usize]..p.kernel_off[s as usize + 1] {
            if !deleted[k as usize] {
                deleted[k as usize] = true;
                stack.push(k);
            }
        }
    };
    for &pt in &redirected {
        seed(pt, &mut deleted, &mut stack);
    }
    for s in 0..np {
        if st.child_of[s] == NONE {
            for &(_, q) in p.trans(s) {
                seed(q, &mut deleted, &mut stack);
            }
        }
    }
    let any_deleted = !stack.is_empty();
    while let Some(k) = stack.pop() {
        for &d in &p.link_to[p.link_off[k as usize] as usize..p.link_off[k as usize + 1] as usize] {
            if !deleted[d as usize] {
                deleted[d as usize] = true;
                stack.push(d);
            }
        }
    }

    // The states to analyse afresh: new and dirty ones, clean ones whose β
    // sets grew, every predecessor of a state with an over-deleted kernel
    // slot, and every owner of an over-deleted ε slot.
    let mut beta_memo: Vec<u8> = vec![0; p.beta_count.len()];
    let mut beta_changed = |x: u32| {
        if beta_memo[x as usize] == 0 {
            let c = maps.item(x) as usize;
            let changed = gen.beta_count(c) != p.beta_count[x as usize]
                || gen.beta_nullable[c] != p.beta_nullable[x as usize];
            beta_memo[x as usize] = 1 + u8::from(changed);
        }
        beta_memo[x as usize] == 2
    };
    let mut lc_changed: Vec<u8> = vec![0; p.n_nts];
    let mut reanalyze = vec![false; n_states];
    for (c, re) in reanalyze.iter_mut().enumerate() {
        let o = st.origin[c];
        if o == NONE || dirty[o as usize] {
            *re = true;
            continue;
        }
        *re = p.kernel(o as usize).iter().any(|&x| {
            let Some(a) = nt_after(x) else {
                return false;
            };
            if beta_changed(x) {
                return true;
            }
            if lc_changed[a] == 0 {
                let changed = gen
                    .left_corner
                    .row(a)
                    .iter()
                    .any(|&q| beta_changed(gen.off[q as usize]));
                lc_changed[a] = if changed { 2 } else { 1 };
            }
            lc_changed[a] == 2
        });
    }
    if any_deleted {
        let feeds: Vec<bool> = st
            .origin
            .iter()
            .map(|&o| {
                o != NONE
                    && (p.kernel_off[o as usize]..p.kernel_off[o as usize + 1])
                        .any(|k| deleted[k as usize])
            })
            .collect();
        for (c, re) in reanalyze.iter_mut().enumerate() {
            if trans.row(c).iter().any(|&(_, t)| feeds[t as usize]) {
                *re = true;
            }
        }
        for &(s, _, slot) in p.complete.iter() {
            let c = st.child_of[s as usize];
            if slot as usize >= n_ks_p && deleted[slot as usize] && c != NONE {
                reanalyze[c as usize] = true;
            }
        }
    }

    let mut parts = LaParts::new(st.kernels.cells.len(), w);
    parts.links.reserve(p.link_to.len() + p.link_to.len() / 8);
    parts
        .complete
        .reserve(p.complete.len() + p.complete.len() / 8);
    for (ps, &cs) in slot_map.iter().enumerate() {
        if cs != NONE && !deleted[ps] {
            let cs = cs as usize;
            maps.or_set(
                &p.sets[ps * wp..(ps + 1) * wp],
                &mut parts.sets[cs * w..(cs + 1) * w],
            );
        }
    }
    parts.seed_start(gen, st.kernels.row(0));
    let mut analyzer = Analyzer::new(gen);
    let (mut cl_buf, mut succ_buf) = (Vec::new(), Vec::new());
    let mut eps_map: Vec<(u32, u32)> = Vec::new();
    for c in 0..n_states {
        let kbase = st.kernels.off[c];
        let klen = st.kernels.row(c).len();
        if reanalyze[c] {
            let (cl, cl_succ): (&[u32], &[u32]) = if closure_of[c] != NONE {
                let r = closure_of[c] as usize;
                let (from, to) = (closures.off[r] as usize, closures.off[r + 1] as usize);
                (&closures.cells[from..to], &succ[from..to])
            } else {
                cl_buf.clear();
                closer.close(gen, st.kernels.row(c), &mut cl_buf);
                succ_buf.clear();
                succ_buf.resize(cl_buf.len(), NONE);
                moves_of(gen, &cl_buf, &mut moves);
                for (run, &(_, j)) in moves.chunk_by(|a, b| a.0 == b.0).zip(trans.row(c)) {
                    let base = st.kernels.off[j as usize];
                    for (pos, m) in run.iter().enumerate() {
                        succ_buf[m.2 as usize] = base + pos as u32;
                    }
                }
                (&cl_buf, &succ_buf)
            };
            analyzer.analyze(gen, c as u32, kbase, klen, cl, cl_succ, &mut parts);
            continue;
        }
        // A clean state with the parent's analysis: its complete items,
        // its ε slots (renumbered in closure order) with their final sets,
        // and its links.
        let o = st.origin[c] as usize;
        let pkb = p.kernel_off[o];
        let entries = &p.complete[complete_off[o] as usize..complete_off[o + 1] as usize];
        eps_map.clear();
        eps_map.extend(
            entries
                .iter()
                .filter(|e| e.2 as usize >= n_ks_p)
                .map(|e| (e.2, NONE)),
        );
        eps_map.sort_unstable();
        for e in &mut eps_map {
            e.1 = parts.next_eps();
            let at = parts.eps.len();
            parts.eps.resize(at + w, 0);
            let ps = e.0 as usize;
            maps.or_set(&p.sets[ps * wp..(ps + 1) * wp], &mut parts.eps[at..]);
        }
        let child_slot = |ps: u32| {
            if (ps as usize) < n_ks_p {
                slot_map[ps as usize]
            } else {
                let k = eps_map
                    .binary_search_by_key(&ps, |e| e.0)
                    .expect("own ε slot");
                eps_map[k].1
            }
        };
        for &(_, prod, ps) in entries {
            parts
                .complete
                .push((c as u32, maps.prod(prod), child_slot(ps)));
        }
        for k in 0..klen as u32 {
            let ps = (pkb + k) as usize;
            for &d in &p.link_to[p.link_off[ps] as usize..p.link_off[ps + 1] as usize] {
                parts.links.push((kbase + k, child_slot(d)));
            }
        }
    }
    // Every other slot starts from a fixpoint of the links it shares with
    // the parent: propagate from the slots of the re-analysed states and of
    // the states they feed.
    let mut from = reanalyze.clone();
    for (c, _) in reanalyze.iter().enumerate().filter(|(_, &re)| re) {
        for &(_, t) in trans.row(c) {
            from[t as usize] = true;
        }
    }
    let work: Vec<u32> = (0..n_states)
        .rev()
        .filter(|&c| from[c])
        .flat_map(|c| (st.kernels.off[c]..st.kernels.off[c + 1]).rev())
        .collect();
    drop((closures, succ, cl_buf, succ_buf, slot_map, deleted));
    let la = parts.finish(Some(work));
    let t2 = Instant::now();

    // ---- actions ----
    check_packable(n_states, gen);
    let mut out = Actions::with_states(n_states);
    let mut builder = ActionBuilder::new(gen);
    let mut mapped = vec![0u64; w];
    let mut at = 0;
    for c in 0..n_states {
        let end = at
            + la.complete[at..]
                .iter()
                .take_while(|e| e.0 == c as u32)
                .count();
        let complete = &la.complete[at..end];
        at = end;
        let o = st.origin[c];
        let same = o != NONE && !dirty[o as usize] && {
            let entries = &p.complete
                [complete_off[o as usize] as usize..complete_off[o as usize + 1] as usize];
            entries.len() == complete.len()
                && entries
                    .iter()
                    .zip(complete)
                    .all(|(&(_, _, ps), &(_, _, cs))| {
                        let (ps, cs) = (ps as usize, cs as usize);
                        mapped.fill(0);
                        maps.or_set(&p.sets[ps * wp..(ps + 1) * wp], &mut mapped);
                        mapped == la.sets[cs * w..(cs + 1) * w]
                    })
        };
        if !same {
            builder.state(gen, c as u32, complete, trans.row(c), &la.sets, &mut out);
            continue;
        }
        let o = o as usize;
        for &(t, v) in ptables.action.row(o) {
            let v = match ActionEntry::unpack(v) {
                Some(ActionEntry::Shift(j)) => ActionEntry::Shift(st.child_of[j as usize]).pack(),
                _ => v,
            };
            out.action.cells.push((maps.term[t as usize], v));
        }
        out.action.end_row();
        for &(nt, j) in ptables.goto_.row(o) {
            out.goto_.cells.push((nt, st.child_of[j as usize]));
        }
        out.goto_.end_row();
        out.default_reduce.push(ptables.default_reduce[o]);
    }
    let t3 = Instant::now();
    let automaton = Automaton::new(gen, st.kernels, trans, la);
    Some((out, automaton, [t1 - t0, t2 - t1, t3 - t2]))
}

#[cfg(test)]
mod tests {
    use crate::{Assoc, Built, Grammar, GrammarBuilder, GrammarError, RhsItem, Terminal};
    use maya_ast::NodeKind;
    use maya_lexer::{Delim, TokenKind};

    /// A small Java-like grammar: expressions with precedence, calls,
    /// statements with a dangling `else`, lists, subtrees and a lazy body.
    fn base() -> Grammar {
        use NodeKind::*;
        use TokenKind::*;
        let mut b = GrammarBuilder::new();
        for (toks, level, assoc) in [
            (&[KwElse][..], 2, Assoc::Right),
            (&[Assign][..], 3, Assoc::Right),
            (&[Plus, Minus][..], 13, Assoc::Left),
            (&[Star, Slash][..], 14, Assoc::Left),
            (&[Dot][..], 40, Assoc::Left),
        ] {
            for t in toks {
                b.set_prec(Terminal::Tok(*t), level, assoc);
            }
        }
        let (k, t) = (RhsItem::Kind, RhsItem::tok);
        let sub = |d, kind| RhsItem::Subtree(d, vec![RhsItem::Kind(kind)]);
        let mut add = |lhs, rhs: Vec<RhsItem>, prec| {
            b.add_production(lhs, &rhs, prec).expect("valid production");
        };
        add(Identifier, vec![t(Ident)], None);
        add(Expression, vec![k(Identifier)], None);
        add(Expression, vec![t(IntLit)], None);
        for op in [Plus, Minus, Star, Slash, Assign] {
            add(Expression, vec![k(Expression), t(op), k(Expression)], None);
        }
        add(Expression, vec![k(Expression), t(Dot), k(Identifier)], None);
        add(MethodName, vec![k(Identifier)], None);
        add(MethodName, vec![k(Expression), t(Dot), k(Identifier)], None);
        add(
            Expression,
            vec![k(MethodName), sub(Delim::Paren, ArgumentList)],
            None,
        );
        add(
            ArgumentList,
            vec![RhsItem::List(
                Box::new(k(Expression)),
                Some(Terminal::Tok(Comma)),
            )],
            None,
        );
        add(Statement, vec![k(Expression), t(Semi)], None);
        add(Statement, vec![sub(Delim::Brace, BlockStmts)], None);
        add(
            BlockStmts,
            vec![RhsItem::List(Box::new(k(Statement)), None)],
            None,
        );
        let cond = sub(Delim::Paren, Expression);
        add(
            Statement,
            vec![t(KwIf), cond.clone(), k(Statement)],
            Some((1, Assoc::Left)),
        );
        add(
            Statement,
            vec![t(KwIf), cond.clone(), k(Statement), t(KwElse), k(Statement)],
            None,
        );
        add(
            Statement,
            vec![t(KwWhile), cond, RhsItem::Lazy(Delim::Brace, BlockStmts)],
            None,
        );
        add(Formal, vec![k(TypeName), k(Identifier)], None);
        add(TypeName, vec![k(Identifier)], None);
        b.finish()
    }

    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(2685821657736338717) % n
        }

        fn pick<T: Clone>(&mut self, xs: &[T]) -> T {
            xs[self.below(xs.len() as u64) as usize].clone()
        }
    }

    fn item(rng: &mut Rng, fresh: &str) -> RhsItem {
        use NodeKind::*;
        match rng.below(9) {
            0 => RhsItem::word(fresh),
            1 => RhsItem::tok(rng.pick(&[TokenKind::Semi, TokenKind::Comma, TokenKind::Colon])),
            2 => RhsItem::tok(rng.pick(&[TokenKind::Plus, TokenKind::Ident, TokenKind::At])),
            3 => RhsItem::Subtree(
                rng.pick(&[Delim::Paren, Delim::Brack]),
                vec![RhsItem::Kind(rng.pick(&[Expression, Formal, Statement]))],
            ),
            4 => RhsItem::Lazy(Delim::Brace, rng.pick(&[BlockStmts, Statement])),
            5 => RhsItem::List(
                Box::new(RhsItem::Kind(rng.pick(&[
                    Expression,
                    Identifier,
                    CatchClause,
                ]))),
                rng.pick(&[None, Some(Terminal::Tok(TokenKind::Comma))]),
            ),
            _ => {
                RhsItem::Kind(rng.pick(&[Expression, Identifier, Statement, TypeName, CatchClause]))
            }
        }
    }

    /// Extends `g` by one to three random productions. Their heads cover a
    /// new word, an existing nonterminal (which redirects transitions), an
    /// existing terminal, and nothing at all (an ε-production); some carry
    /// precedence, and many conflict.
    fn extend(g: &Grammar, rng: &mut Rng, step: usize) -> Grammar {
        use NodeKind::*;
        let mut b = g.extend();
        for i in 0..=rng.below(3) {
            let fresh = format!("kw{step}x{i}");
            let lhs = rng.pick(&[
                Statement,
                Statement,
                Expression,
                MethodName,
                CatchClause,
                Formal,
            ]);
            let mut rhs = match rng.below(5) {
                0 | 1 => vec![RhsItem::word(&fresh)],
                2 => vec![RhsItem::Kind(
                    rng.pick(&[Expression, MethodName, Identifier, TypeName]),
                )],
                3 => vec![RhsItem::tok(rng.pick(&[
                    TokenKind::Ident,
                    TokenKind::KwIf,
                    TokenKind::Minus,
                ]))],
                _ => vec![],
            };
            for _ in 0..rng.below(4) {
                rhs.push(item(rng, &format!("{fresh}t")));
            }
            if rng.below(6) == 0 {
                b.set_prec(
                    Terminal::Word(maya_lexer::sym(&fresh)),
                    rng.below(30) as u16,
                    Assoc::Left,
                );
            }
            let prec = (rng.below(4) == 0).then(|| {
                (
                    rng.below(45) as u16,
                    rng.pick(&[Assoc::Left, Assoc::Right, Assoc::NonAssoc]),
                )
            });
            b.add_production(lhs, &rhs, prec).expect("valid production");
        }
        b.finish()
    }

    /// The derived result equals the full build's: every table field, the
    /// automaton a further derivation starts from, or the conflict list.
    fn check(g: &Grammar, from: &Built, what: &str) -> Option<Built> {
        let full = g.build_full();
        let derived = g.derive_from(from).expect("an extension is derivable");
        match (&full, &derived) {
            (Ok(f), Ok(d)) => {
                assert!(*f.tables == *d.tables, "{what}: derived tables differ");
                let (fa, da) = (&f.automaton, &d.automaton);
                assert!(
                    fa.kernel_off == da.kernel_off
                        && fa.kernel_items == da.kernel_items
                        && fa.trans_off == da.trans_off
                        && fa.trans_cells == da.trans_cells,
                    "{what}: LR(0) differs"
                );
                assert!(
                    fa.sets == da.sets && fa.complete == da.complete,
                    "{what}: lookaheads differ"
                );
                let links = |a: &crate::lalr::Automaton| {
                    let mut v: Vec<(usize, u32)> = (0..a.link_off.len() - 1)
                        .flat_map(|s| {
                            a.link_to[a.link_off[s] as usize..a.link_off[s + 1] as usize]
                                .iter()
                                .map(move |&d| (s, d))
                        })
                        .collect();
                    v.sort_unstable();
                    v
                };
                assert!(links(fa) == links(da), "{what}: links differ");
                Some(d.clone())
            }
            (Err(GrammarError::Conflicts(f)), Err(GrammarError::Conflicts(d))) => {
                assert_eq!(
                    format!("{f:?}"),
                    format!("{d:?}"),
                    "{what}: conflicts differ"
                );
                None
            }
            _ => panic!(
                "{what}: full build {} but derivation {}",
                if full.is_ok() { "succeeded" } else { "failed" },
                if derived.is_ok() {
                    "succeeded"
                } else {
                    "failed"
                },
            ),
        }
    }

    #[test]
    fn derived_tables_equal_full_builds_along_random_chains() {
        let base = base();
        let base_built = base
            .build_full()
            .expect("the test grammar is LALR(1)");
        let (mut derived, mut conflicted) = (0, 0);
        for seed in 1..=120u64 {
            let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
            let mut chain = vec![(base.clone(), base_built.clone())];
            for step in 0..=rng.below(4) as usize {
                let g = extend(&chain.last().unwrap().0, &mut rng, step);
                // Derive from the parent, and sometimes from an older
                // ancestor.
                let from = &chain[chain.len() - 1 - rng.below(chain.len() as u64) as usize].1;
                let what = format!("seed {seed} step {step}");
                match check(&g, from, &what) {
                    Some(built) => {
                        derived += 1;
                        chain.push((g, built));
                    }
                    None => {
                        conflicted += 1;
                        break;
                    }
                }
            }
        }
        assert!(
            derived > 60 && conflicted > 10,
            "{derived} derived, {conflicted} conflicted"
        );
    }

    #[test]
    fn a_parent_terminal_with_new_precedence_is_not_derived() {
        let base = base();
        let built = base.build_full().unwrap();
        let mut b = base.extend();
        b.set_prec(Terminal::Tok(TokenKind::Plus), 20, Assoc::Right);
        b.add_production(NodeKind::Statement, &[RhsItem::word("gizmo")], None)
            .unwrap();
        assert!(b.finish().derive_from(&built).is_none());
        // Nor is a grammar that does not extend it.
        let mut other = GrammarBuilder::new();
        other
            .add_production(NodeKind::Statement, &[RhsItem::tok(TokenKind::Semi)], None)
            .unwrap();
        assert!(other.finish().derive_from(&built).is_none());
    }
}
