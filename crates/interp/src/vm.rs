//! The bytecode VM — the fast execution tier.
//!
//! [`crate::bytecode`] compiles every lowerable body, straight from its
//! typed AST, into flat register bytecode; this module executes it.
//! Unlowerable bodies (`try`, lazy nodes, templates) run on the reference
//! tree walker in `interp.rs`, and the dispatch loop below must remain
//! *observationally identical* to it (same output bytes, same error text
//! and spans, same step counts, same telemetry call counters) —
//! `MAYA_NO_LOWER=1` pins the walker for differential testing, and the
//! fuzzer runs both tiers against each other.
//!
//! Call dispatch goes through [`PolySite`] polymorphic inline caches keyed
//! by (receiver class, exact argument keys): exact keys mean identical
//! runtime types, so the full `select_from_row` search is deterministic for
//! a hit and can be skipped entirely.  Sites with compiled callees are
//! additionally *spliced inline* by the refine pass, which rewrites a copy
//! of the body's cold bytecode with one guarded copy of the callee per
//! cache entry; the [`Instr::GuardInline`] handler reads the epoch and the
//! class the call dispatches on once, enters the callee frame of the first
//! member of the chain whose entry holds (class and argument keys), and
//! else passes to the generic call. A
//! run of the cold code that loops [`bytecode::OSR_BACKEDGES`] times
//! refines its body at the back-edge and continues in the copy (see
//! [`Interp::refine_on_stack`]).
//!
//! The arms finish the common cases in the loop itself — `int` arithmetic
//! and compares, `int` increments, a step under its limit — and hand every
//! other case to the out-of-line helpers the walker shares.

use crate::bytecode::{self, ArgKey, BcBody, FieldSite, InlineGuard, Instr, PolySite};
use crate::interp::{int_binary, Control, Eval, Interp};
use crate::lower::{class_key, LoweredBody};
use crate::value::Value;
use crate::widen;
use maya_ast::LazyNode;
use maya_lexer::{Span, Symbol};
use maya_telemetry::Counter;
use maya_types::{ClassId, MethodInfo, Type};
use std::rc::Rc;

/// Where Break/Continue routed to (see `route_control`).
enum Route {
    /// Jump to this pc inside the current bytecode frame.
    Jump(u32),
    /// Not ours — propagate to the caller.
    Out(Control),
}

/// The `this` of the callee frame a splice stands in for: the guarded
/// receiver register, or for an implicit call the caller's own `this`.
fn splice_this<'a>(
    g: &InlineGuard,
    regs: &'a [Value],
    this: &'a Option<Value>,
) -> Option<&'a Value> {
    match g.recv {
        Some(r) => Some(&regs[r as usize]),
        None => this.as_ref(),
    }
}

/// The member of the chain from the guard at `pc` on whose splice stands
/// for the call now, given the key `ck` of the class the call dispatches
/// on (see [`Interp::dispatch_key`]): its guard's pc and guard, the first
/// whose class key and argument keys match. Else the pc the chain's last
/// guard falls to, the generic path.
#[inline(always)]
fn chain_member<'b>(
    bc: &'b BcBody,
    mut pc: u32,
    ck: Option<u64>,
    regs: &[Value],
) -> Result<(u32, &'b InlineGuard), u32> {
    while let Instr::GuardInline { guard, fallback } = bc.code[pc as usize] {
        let g = &bc.guards[guard as usize];
        let mut args = g.keys.iter().zip(&*g.args);
        if ck == Some(g.ck) && args.all(|(k, &a)| k.matches(&regs[a as usize])) {
            return Ok((pc, g));
        }
        pc = fallback;
    }
    Err(pc)
}

/// `++`/`--` on a value; shared by `IncDecVal` and `IncLocal`.  Mirrors the
/// reference walker's `ExprKind::IncDec` arm exactly.
fn incdec_value(v: &Value, delta: i32, span: Span) -> Eval {
    Ok(match v {
        Value::Int(v) => Value::Int(v.wrapping_add(delta)),
        Value::Long(v) => Value::Long(v.wrapping_add(delta as i64)),
        Value::Double(v) => Value::Double(v + delta as f64),
        Value::Float(v) => Value::Float(v + delta as f32),
        Value::Char(c) => Value::Int(*c as i32 + delta),
        other => return Err(Control::error(format!("cannot ++/-- {other:?}"), span)),
    })
}

impl Interp {
    /// Bytecode for `lb`: the cold compile, replaced after
    /// [`bytecode::REFINE_EXECS`] runs by the refine pass's copy with its
    /// callees spliced in (by then the PICs are warm, so the receiver
    /// classes each site sees are visible).  The copy shares the cold
    /// body's call sites, keeping warmed cache lines.
    ///
    /// Runs are counted per PIC epoch (see [`LoweredBody`]): a body shared
    /// from an earlier request's compiler runs cold until it is refined
    /// under this interpreter's epoch.
    pub(crate) fn bytecode_for(&self, lb: &LoweredBody) -> Rc<BcBody> {
        let epoch = self.caches.sync(&self.ct);
        if !lb.note_exec(epoch) {
            return lb.current();
        }
        match bytecode::refine(lb.cold(), epoch) {
            Ok((bc, _)) => {
                let bc = Rc::new(bc);
                lb.set_refined(Rc::clone(&bc));
                bc
            }
            // A refine failure keeps the (working) cold bytecode.
            Err(_) => Rc::clone(lb.cold()),
        }
    }

    /// The on-stack refine at a backward jump to `target` of a run of
    /// `lb`'s cold code: a copy that splices at least one call becomes the
    /// body's current bytecode, the frame's registers grow to the copy's
    /// (with its preloads), and the running frame continues in the copy at
    /// the pc `target` maps to. `None` when another activation refined the
    /// body meanwhile (this one keeps running cold) or when nothing would
    /// splice, which makes no copy. Out of line: the dispatch loop only
    /// counts down to it.
    #[cold]
    #[inline(never)]
    fn refine_on_stack(
        &self,
        lb: &LoweredBody,
        regs: &mut Vec<Value>,
        target: u32,
    ) -> Option<(Rc<BcBody>, u32)> {
        let epoch = self.caches.sync(&self.ct);
        if !lb.unrefined() || !bytecode::splices_any(lb.cold(), epoch) {
            return None;
        }
        let (mut bc, pcs) = bytecode::refine(lb.cold(), epoch).ok()?;
        bc.on_stack = true;
        let bc = Rc::new(bc);
        lb.set_refined(Rc::clone(&bc));
        maya_telemetry::count(Counter::BcOsrSwitches);
        regs.resize(bc.n_regs as usize, Value::Null);
        for (r, v) in &bc.preloads {
            regs[*r as usize] = v.clone();
        }
        Some((bc, pcs[target as usize]))
    }

    /// Disassembly of `body`'s bytecode for `mayac --dump-bytecode`.
    /// `None` when the body is unlowerable (e.g. contains try/catch).
    pub fn bytecode_listing(&self, body: &LazyNode, m: &MethodInfo) -> Option<String> {
        let lb = self.lowered_body(body, &m.param_names, &m.params, Some(&m.ret))?;
        let epoch = self.caches.sync(&self.ct);
        Some(bytecode::disasm(&lb.current(), &self.ct, epoch, !lb.unrefined()))
    }

    /// The lowered body for a resolved method, if it is already forced and
    /// lowerable.  Used to prime/backfill PIC entries so hits dispatch
    /// straight to bytecode execution.
    fn lowered_for_method(&self, m: &Rc<MethodInfo>) -> Option<Rc<LoweredBody>> {
        if m.native.is_some() {
            return None;
        }
        let body = m.body.as_ref()?;
        if !body.is_forced() {
            return None;
        }
        self.lowered_body(body, &m.param_names, &m.params, Some(&m.ret))
    }

    /// Dispatches through a polymorphic inline cache.  Entries are keyed by
    /// (receiver class, exact
    /// [`ArgKey`]s): an exact-key hit implies the arguments' runtime types
    /// are identical to the install-time ones, so `select_from_row` would
    /// pick the same target — no per-argument assignability re-check needed.
    pub(crate) fn invoke_pic(
        &self,
        recv: Option<Value>,
        class: ClassId,
        name: Symbol,
        args: Vec<Value>,
        site: &Rc<PolySite>,
        span: Span,
    ) -> Eval {
        let epoch = self.caches.sync(&self.ct);
        let ck = class_key(Some(class));
        if let Some((m, lowered)) = site.lookup(epoch, ck, &args) {
            maya_telemetry::count(Counter::PicHits);
            let profiled = self.profile.get();
            if profiled {
                maya_telemetry::prof_site(Rc::as_ptr(site) as usize, true, || {
                    format!("{}.{}/{}", self.ct.fqcn(class), name, args.len())
                });
            }
            // Fast path: the entry carries the target's lowered body, so a
            // hit goes straight to bytecode execution.  Mirrors
            // `invoke`/`invoke_inner` exactly (same depth guard and error,
            // same counters).
            if let Some(lb) = lowered {
                let d = self.depth.get() + 1;
                let limit = self.stack_limit.get();
                if d > limit {
                    maya_telemetry::count(Counter::StepLimitHits);
                    return Err(Control::error(
                        format!("stack overflow (call depth > {limit})"),
                        span,
                    ));
                }
                self.depth.set(d);
                maya_telemetry::count(Counter::InterpCalls);
                if profiled {
                    maya_telemetry::prof_enter(Rc::as_ptr(&m) as usize, || {
                        self.method_label(class, &m)
                    });
                }
                let result = self.exec_lowered(&lb, recv, class, args);
                if profiled {
                    maya_telemetry::prof_exit();
                }
                self.depth.set(self.depth.get() - 1);
                return result;
            }
            let r = self.invoke(recv, class, &m, args, span);
            // The first full invoke forces (and lowers, when lowerable) the
            // body; backfill the entry so later hits take the fast path.
            // Keyed by target identity — recursion through this site may
            // have reordered or refilled the line meanwhile.
            if let Some(lb) = self.lowered_for_method(&m) {
                site.backfill_lowered(&m, lb);
            }
            return r;
        }
        maya_telemetry::count(Counter::PicMisses);
        if self.profile.get() {
            maya_telemetry::prof_site(Rc::as_ptr(site) as usize, false, || {
                format!("{}.{}/{}", self.ct.fqcn(class), name, args.len())
            });
        }
        let row = self.caches.row(&self.ct, class, name);
        let m = self.select_from_row(&row, class, name, &args, span)?;
        let keys: Box<[ArgKey]> = args.iter().map(ArgKey::of).collect();
        // Install before invoking so recursive calls through this site warm
        // up immediately; the lowered body is attached now if already known,
        // else backfilled after the invoke forces it.
        if site.install(ck, class, keys, Rc::clone(&m), self.lowered_for_method(&m)) {
            maya_telemetry::count(Counter::PicEvictions);
        }
        let r = self.invoke(recv, class, &m, args, span);
        if let Some(lb) = self.lowered_for_method(&m) {
            site.backfill_lowered(&m, lb);
        }
        r
    }

    /// `EnvLoad`'s resolution, shared with `EnvLoadAt`: `this.<field>` by
    /// declared layout slot through the site's (layout → offset) cache —
    /// `env_name`'s first probe — and the full name resolution for
    /// anything else (overflow fields, statics, class refs).
    #[inline(always)]
    fn env_load(
        &self,
        fs: &FieldSite,
        name: Symbol,
        this: Option<&Value>,
        class: ClassId,
        span: Span,
    ) -> Eval {
        if let Some(Value::Object(o)) = this {
            let lp = Rc::as_ptr(&o.layout) as usize;
            if let Some(off) = fs.get(lp) {
                return Ok(o.get_slot(off));
            }
            if let Some(off) = o.layout.offset(name) {
                fs.fill(lp, off);
                return Ok(o.get_slot(off));
            }
        }
        self.env_name(name, this, Some(class), span)
    }

    /// The key of the class the call behind `g`, a chain's first guard,
    /// dispatches on, when the chain was built under the current cache
    /// epoch (every guard of a refined body was). That class is the
    /// receiver object's, the class a qualified static call names
    /// (`Main.f(x)`), or — with no receiver and no `this` — the static
    /// frame's own. The generic path's `ensure_init` is a no-op for the
    /// last two: a static frame's class is initialized before its body
    /// runs, and a named class before the call that filled the PIC line
    /// the guard was built from.
    #[inline(always)]
    fn dispatch_key(
        &self,
        g: &InlineGuard,
        regs: &[Value],
        this: &Option<Value>,
        class: ClassId,
    ) -> Option<u64> {
        let dispatch = match splice_this(g, regs, this) {
            Some(Value::Object(o)) => o.class,
            Some(Value::ClassRef(c)) => *c,
            Some(_) => return None,
            None => class,
        };
        (self.caches.sync(&self.ct) == g.epoch).then(|| class_key(Some(dispatch)))
    }

    /// Enters the spliced callee frame of a passing guard: a verified PIC
    /// hit, with the counter and profiler sample the generic path would
    /// record, then the same depth guard, error and counters as
    /// `invoke`/`invoke_inner`.
    fn enter_splice(&self, bc: &BcBody, g: &InlineGuard, profiled: bool) -> Result<(), Control> {
        maya_telemetry::count(Counter::PicHits);
        maya_telemetry::count(Counter::BcInlineEntries);
        if profiled {
            maya_telemetry::prof_site(Rc::as_ptr(&g.site) as usize, true, || {
                format!("{}.{}/{}", self.ct.fqcn(g.class), g.name, g.keys.len())
            });
        }
        let d = self.depth.get() + 1;
        let limit = self.stack_limit.get();
        if d > limit {
            maya_telemetry::count(Counter::StepLimitHits);
            return Err(Control::error(
                format!("stack overflow (call depth > {limit})"),
                g.span,
            ));
        }
        self.depth.set(d);
        maya_telemetry::count(Counter::InterpCalls);
        if profiled {
            let (mi, mc) = &bc.methods[g.m as usize];
            maya_telemetry::prof_enter(Rc::as_ptr(mi) as usize, || self.method_label(*mc, mi));
        }
        Ok(())
    }

    /// Pop `n` spliced inline frames: profiler exits + call-depth credits.
    fn unwind_inline(&self, n: u16, profiled: bool) {
        for _ in 0..n {
            if profiled {
                maya_telemetry::prof_exit();
            }
            self.depth.set(self.depth.get() - 1);
        }
    }

    /// Route a `Control` raised at `pc`.  Break/Continue inside a loop
    /// region jump to the region's targets after restoring the ty-stack and
    /// inline-frame depths recorded for that region; everything else (and
    /// Break/Continue with no enclosing region) propagates to the caller.
    fn route_control(
        &self,
        bc: &BcBody,
        pc: u32,
        c: Control,
        tys: &mut Vec<Type>,
        inline_depth: &mut u16,
        profiled: bool,
    ) -> Route {
        let is_break = match c {
            Control::Break => true,
            Control::Continue => false,
            other => return Route::Out(other),
        };
        match bc.innermost_region(pc) {
            Some(r) => {
                self.unwind_inline(*inline_depth - r.inline_depth, profiled);
                *inline_depth = r.inline_depth;
                tys.truncate(r.ty_depth as usize);
                Route::Jump(if is_break { r.brk } else { r.cont })
            }
            None => Route::Out(if is_break {
                Control::Break
            } else {
                Control::Continue
            }),
        }
    }
}

impl Interp {
    /// Runs a lowered body's bytecode.  The argument vector `regs` becomes
    /// the register file (locals first, then temporaries, then preloaded
    /// constants); the buffer comes from — and returns to — the frame pool
    /// that call sites draw their argument vectors from.
    ///
    /// A run of the cold code counts its backward jumps; at the
    /// [`bytecode::OSR_BACKEDGES`]th it tries [`Interp::refine_on_stack`]
    /// once and, given a copy, continues in it at the jump's target. The
    /// switch keeps every live value where it is: the copy keeps the cold
    /// register layout and adds registers above it, the pc map `refine`
    /// returns sends each cold pc to its place in the copy, and a mapped
    /// pc has the same static type-stack depth and lies outside every
    /// splice (inline depth 0).
    pub(crate) fn exec_lowered(
        &self,
        lb: &LoweredBody,
        this: Option<Value>,
        class: ClassId,
        mut regs: Vec<Value>,
    ) -> Eval {
        let mut cur = self.bytecode_for(lb);
        regs.truncate(cur.n_params as usize);
        regs.resize(cur.n_regs as usize, Value::Null);
        for (r, v) in &cur.preloads {
            regs[*r as usize] = v.clone();
        }
        // Back-edges left before the on-stack refine; 0 once it is tried,
        // and for a run of refined code, which never tries one.
        let mut osr_in = if Rc::ptr_eq(&cur, lb.cold()) {
            bytecode::OSR_BACKEDGES
        } else {
            0
        };
        let profiled = self.profile.get();
        let cls = Some(class);
        // Type stack for New/NewArray/Decl sequences (balanced by compile).
        let mut tys: Vec<Type> = Vec::new();
        // Spliced inline frames currently entered (see GuardInline/CallExit).
        let mut inline_depth: u16 = 0;
        let mut pc: u32 = 0;
        let result: Eval;

        // Route a fallible handler's Err through `route_control`: loop
        // break/continue jumps within the frame, everything else unwinds.
        macro_rules! tryc {
            ($r:expr) => {
                match $r {
                    Ok(v) => v,
                    Err(c) => {
                        let route =
                            self.route_control(&cur, pc, c, &mut tys, &mut inline_depth, profiled);
                        match route {
                            // Unlabeled on purpose: every tryc! use site
                            // sits directly in the 'run loop (labels are
                            // hygienic in macros and can't be named here).
                            Route::Jump(to) => {
                                pc = to;
                                continue;
                            }
                            Route::Out(c) => {
                                result = Err(c);
                                break;
                            }
                        }
                    }
                }
            };
        }

        // Take the jump to `target`; a backward one may first switch the
        // frame to an on-stack refined copy (see above).
        macro_rules! jump {
            ($target:expr) => {{
                let target = $target;
                if target <= pc && osr_in > 0 {
                    osr_in -= 1;
                    if osr_in == 0 {
                        if let Some((copy, at)) = self.refine_on_stack(lb, &mut regs, target) {
                            cur = copy;
                            pc = at;
                            continue;
                        }
                    }
                }
                pc = target;
                // Unlabeled for the reason given in `tryc!`.
                continue;
            }};
        }

        'run: loop {
            let bc: &BcBody = &cur;
            let ins = bc.code[pc as usize];
            if profiled {
                maya_telemetry::prof_opcode(ins.mnemonic());
                // `eval_binary` parity: hot-pair samples are recorded before
                // the operands evaluate, so they hang off the first
                // instruction of the expression, not the Binary itself.
                if let Some(pairs) = bc.pairs.get(&pc) {
                    for (a, b) in pairs {
                        maya_telemetry::prof_binop_pair(a, b);
                    }
                }
            }
            match ins {
                Instr::Move { dst, src } => {
                    regs[dst as usize] = regs[src as usize].clone();
                }
                Instr::LoadThis { dst, span } => {
                    let r = this
                        .clone()
                        .ok_or_else(|| Control::error("no `this` in scope", span));
                    regs[dst as usize] = tryc!(r);
                }
                Instr::EnvLoad { dst, name, site, span } => {
                    let fs = &bc.field_sites[site as usize];
                    let r = self.env_load(fs, name, this.as_ref(), class, span);
                    regs[dst as usize] = tryc!(r);
                }
                Instr::EnvLoadAt { dst, guard, name, site, span } => {
                    // Resolved as the spliced callee's frame would: its
                    // `this` and the class it runs under.
                    let g = &bc.guards[guard as usize];
                    let fs = &bc.field_sites[site as usize];
                    let r = self.env_load(fs, name, splice_this(g, &regs, &this), g.class, span);
                    regs[dst as usize] = tryc!(r);
                }
                Instr::EnvStore { src, name, out, span } => {
                    let v = regs[src as usize].clone();
                    let stored = tryc!(self.env_assign_name(name, v, this.as_ref(), cls, span));
                    if let Some(o) = out {
                        regs[o as usize] = stored;
                    }
                }
                Instr::ClassRef { dst, fqcn, span } => {
                    let r = self
                        .ct
                        .by_fqcn(fqcn)
                        .ok_or_else(|| Control::error(format!("unknown class {fqcn}"), span));
                    regs[dst as usize] = Value::ClassRef(tryc!(r));
                }
                Instr::FieldGet { dst, obj, name, site, span } => {
                    let r = match &regs[obj as usize] {
                        Value::Object(o) => {
                            let fs = &bc.field_sites[site as usize];
                            let lp = Rc::as_ptr(&o.layout) as usize;
                            if let Some(off) = fs.get(lp) {
                                Ok(o.get_slot(off))
                            } else if let Some(off) = o.layout.offset(name) {
                                fs.fill(lp, off);
                                Ok(o.get_slot(off))
                            } else {
                                self.obj_field(o, name, span)
                            }
                        }
                        other => self.field_of(other.clone(), name, span),
                    };
                    regs[dst as usize] = tryc!(r);
                }
                Instr::FieldSet { obj, val, name, out, span } => {
                    let v = regs[val as usize].clone();
                    let stored = tryc!(self.field_store(&regs[obj as usize], name, v, span));
                    if let Some(o) = out {
                        regs[o as usize] = stored;
                    }
                }
                Instr::ArrGet { dst, arr, idx, spans } => {
                    let (espan, ispan) = bc.span_pairs[spans as usize];
                    let r = self
                        .int_of(regs[idx as usize].clone(), ispan)
                        .and_then(|i| match &regs[arr as usize] {
                            Value::Array(a) => {
                                let v = a.data.borrow().get(i as usize).cloned();
                                v.ok_or_else(|| {
                                    self.throw_simple(
                                        "java.lang.ArrayIndexOutOfBoundsException",
                                        espan,
                                    )
                                })
                            }
                            Value::Null => {
                                Err(self.throw_simple("java.lang.NullPointerException", espan))
                            }
                            other => {
                                Err(Control::error(format!("not an array: {other:?}"), espan))
                            }
                        });
                    regs[dst as usize] = tryc!(r);
                }
                Instr::ArrSet { arr, idx, val, spans, out } => {
                    let (espan, ispan) = bc.span_pairs[spans as usize];
                    let r = self
                        .int_of(regs[idx as usize].clone(), ispan)
                        .and_then(|i| {
                            let v = regs[val as usize].clone();
                            self.array_store(&regs[arr as usize], i, v, espan)
                        });
                    let stored = tryc!(r);
                    if let Some(o) = out {
                        regs[o as usize] = stored;
                    }
                }
                Instr::NewClass { ty, span } => {
                    let r = self
                        .resolve_type_slot(&bc.tys[ty as usize], cls, span)
                        .and_then(|t| match t {
                            Type::Class(_) => Ok(t),
                            _ => Err(Control::error("cannot instantiate non-class", span)),
                        });
                    tys.push(tryc!(r));
                }
                Instr::NewFinish { dst, base, n, span } => {
                    let Some(Type::Class(c)) = tys.pop() else {
                        unreachable!("NewClass pushed a class type");
                    };
                    let vals = regs[base as usize..(base + n) as usize].to_vec();
                    let r = self.construct(c, vals, span);
                    regs[dst as usize] = tryc!(r);
                }
                Instr::TyElem { ty, extra_dims, span } => {
                    let r = self.resolve_type_slot(&bc.tys[ty as usize], cls, span);
                    let mut t = tryc!(r);
                    for _ in 0..extra_dims {
                        t = t.array_of();
                    }
                    tys.push(t);
                }
                Instr::NewArrayFinish { dst, base, n, span } => {
                    let elem = tys.pop().expect("TyElem pushed the element type");
                    let mut sizes = Vec::with_capacity(n as usize);
                    for k in 0..n {
                        match regs[(base + k) as usize] {
                            Value::Int(i) => sizes.push(i),
                            _ => unreachable!("ToInt coerced every dimension"),
                        }
                    }
                    let r = self.alloc_array(&elem, &sizes, span);
                    regs[dst as usize] = tryc!(r);
                }
                Instr::ToInt { reg, span } => {
                    let r = self.int_of(regs[reg as usize].clone(), span);
                    regs[reg as usize] = Value::Int(tryc!(r));
                }
                Instr::TyDecl { ty, span } => {
                    let r = self.resolve_type_slot(&bc.tys[ty as usize], cls, span);
                    tys.push(tryc!(r));
                }
                Instr::DefaultVal { dst, dims } => {
                    let mut t = tys.last().expect("TyDecl pushed the decl type").clone();
                    for _ in 0..dims {
                        t = t.array_of();
                    }
                    regs[dst as usize] = Value::default_for(&t);
                }
                Instr::TyPop => {
                    tys.pop();
                }
                Instr::Binary { op, dst, a, b, to, span } => {
                    let v = match (&regs[a as usize], &regs[b as usize]) {
                        (Value::Int(x), Value::Int(y)) => int_binary(op, *x, *y),
                        _ => None,
                    };
                    regs[dst as usize] = match v {
                        Some(v) => v,
                        None => {
                            let (x, y) = (&regs[a as usize], &regs[b as usize]);
                            widen::to_declared(tryc!(self.binary_l_values(op, x, y, span)), to)
                        }
                    };
                }
                Instr::Unary { op, dst, src, span } => {
                    let r = self.eval_unary(op, regs[src as usize].clone(), span);
                    regs[dst as usize] = tryc!(r);
                }
                Instr::IncDecVal { dst, src, delta, span } => {
                    let r = incdec_value(&regs[src as usize], delta, span);
                    regs[dst as usize] = tryc!(r);
                }
                Instr::IncLocal { slot, delta, span } => {
                    if let Value::Int(v) = &mut regs[slot as usize] {
                        *v = v.wrapping_add(delta);
                    } else {
                        let r = incdec_value(&regs[slot as usize], delta, span);
                        regs[slot as usize] = tryc!(r);
                    }
                }
                Instr::CastV { dst, src, ty, span } => {
                    let r = self
                        .resolve_type_slot(&bc.tys[ty as usize], cls, span)
                        .and_then(|target| self.cast(regs[src as usize].clone(), &target, span));
                    regs[dst as usize] = tryc!(r);
                }
                Instr::InstOf { dst, src, ty, span } => {
                    let r = self.resolve_type_slot(&bc.tys[ty as usize], cls, span);
                    let target = tryc!(r);
                    regs[dst as usize] =
                        Value::Bool(self.value_instanceof(&regs[src as usize], &target));
                }
                Instr::Jmp { target } => jump!(target),
                Instr::JmpIfFalse { src, target, span } => {
                    let b = match &regs[src as usize] {
                        Value::Bool(b) => *b,
                        other => {
                            let r: Result<bool, Control> = Err(Control::error(
                                format!("condition evaluated to non-boolean {other:?}"),
                                span,
                            ));
                            tryc!(r)
                        }
                    };
                    if !b {
                        jump!(target);
                    }
                }
                Instr::JmpIfTrue { src, target, span } => {
                    let b = match &regs[src as usize] {
                        Value::Bool(b) => *b,
                        other => {
                            let r: Result<bool, Control> = Err(Control::error(
                                format!("condition evaluated to non-boolean {other:?}"),
                                span,
                            ));
                            tryc!(r)
                        }
                    };
                    if b {
                        jump!(target);
                    }
                }
                Instr::JmpIfCmp { op, a, b, when, target, span } => {
                    let v = match (&regs[a as usize], &regs[b as usize]) {
                        (Value::Int(x), Value::Int(y)) => int_binary(op, *x, *y),
                        _ => None,
                    };
                    let v = match v {
                        Some(v) => v,
                        None => {
                            let (x, y) = (&regs[a as usize], &regs[b as usize]);
                            tryc!(self.binary_l_values(op, x, y, span))
                        }
                    };
                    let t = match v {
                        Value::Bool(b) => b,
                        other => {
                            let r: Result<bool, Control> = Err(Control::error(
                                format!("condition evaluated to non-boolean {other:?}"),
                                span,
                            ));
                            tryc!(r)
                        }
                    };
                    if t == when {
                        jump!(target);
                    }
                }
                Instr::Step { n, at } => {
                    tryc!(self.count_steps(n, at, &bc.step_spans));
                }
                Instr::Ret { src } => {
                    result = Ok(regs[src as usize].clone());
                    break 'run;
                }
                Instr::RetNull => {
                    result = Ok(Value::Null);
                    break 'run;
                }
                Instr::RaiseBreak => {
                    let r: Result<(), Control> = Err(Control::Break);
                    tryc!(r);
                }
                Instr::RaiseContinue => {
                    let r: Result<(), Control> = Err(Control::Continue);
                    tryc!(r);
                }
                Instr::Throw { src } => {
                    let r: Result<(), Control> =
                        Err(Control::Throw(regs[src as usize].clone()));
                    tryc!(r);
                }
                Instr::RaiseInvalidAssign { span } => {
                    let r: Result<(), Control> =
                        Err(Control::error("invalid assignment target", span));
                    tryc!(r);
                }
                Instr::CallRecv { dst, recv, base, n, name, site, span } => {
                    let mut vals = self.frame_pool.borrow_mut().pop().unwrap_or_default();
                    vals.extend_from_slice(&regs[base as usize..(base + n) as usize]);
                    let site = &bc.sites[site as usize];
                    let r = match regs[recv as usize].clone() {
                        Value::ClassRef(c) => self.ensure_init(c).and_then(|()| {
                            self.invoke_pic(None, c, name, vals, site, span)
                                .map_err(|c| self.attach_frames(c))
                        }),
                        Value::Null => {
                            Err(self.throw_simple("java.lang.NullPointerException", span))
                        }
                        other => match other.class_of(&self.ct) {
                            Some(dyn_class) => {
                                self.invoke_pic(Some(other), dyn_class, name, vals, site, span)
                            }
                            None => Err(Control::error(
                                format!("cannot invoke {name} on {:?}", other),
                                span,
                            )),
                        },
                    };
                    regs[dst as usize] = tryc!(r);
                }
                Instr::CallSuper { dst, base, n, name, site, span } => {
                    let mut vals = self.frame_pool.borrow_mut().pop().unwrap_or_default();
                    vals.extend_from_slice(&regs[base as usize..(base + n) as usize]);
                    let site = &bc.sites[site as usize];
                    let r = this
                        .clone()
                        .ok_or_else(|| Control::error("super call without this", span))
                        .and_then(|t| {
                            let sup = self
                                .ct
                                .info(class)
                                .borrow()
                                .superclass
                                .ok_or_else(|| Control::error("no superclass", span))?;
                            self.invoke_pic(Some(t), sup, name, vals, site, span)
                        });
                    regs[dst as usize] = tryc!(r);
                }
                Instr::CallImplicit { dst, base, n, name, site, span } => {
                    let mut vals = self.frame_pool.borrow_mut().pop().unwrap_or_default();
                    vals.extend_from_slice(&regs[base as usize..(base + n) as usize]);
                    let site = &bc.sites[site as usize];
                    let r = match this.clone() {
                        Some(t) => match t.class_of(&self.ct) {
                            Some(dyn_class) => {
                                self.invoke_pic(Some(t), dyn_class, name, vals, site, span)
                            }
                            None => Err(Control::error(
                                format!("cannot invoke {name} on {:?}", t),
                                span,
                            )),
                        },
                        None => self.ensure_init(class).and_then(|()| {
                            self.invoke_pic(None, class, name, vals, site, span)
                                .map_err(|c| self.attach_frames(c))
                        }),
                    };
                    regs[dst as usize] = tryc!(r);
                }
                Instr::GuardInline { guard, .. } => {
                    // The dispatch class and the epoch are read once per
                    // call, and the chain's members are tried here in turn.
                    let ck = self.dispatch_key(&bc.guards[guard as usize], &regs, &this, class);
                    match chain_member(bc, pc, ck, &regs) {
                        Ok((at, g)) => {
                            pc = at;
                            tryc!(self.enter_splice(bc, g, profiled));
                            inline_depth += 1;
                        }
                        Err(generic) => {
                            maya_telemetry::count(Counter::BcInlineFallbacks);
                            pc = generic;
                            continue 'run;
                        }
                    }
                }
                Instr::CallExit { next } => {
                    if profiled {
                        maya_telemetry::prof_exit();
                    }
                    self.depth.set(self.depth.get() - 1);
                    inline_depth -= 1;
                    pc = next;
                    continue 'run;
                }
            }
            pc += 1;
        }

        // A Control that escaped the frame (throw, error, step limit, or a
        // Break/Continue with no enclosing loop) may have left spliced
        // callee frames entered — pop them before returning.
        self.unwind_inline(inline_depth, profiled);
        regs.clear();
        let mut pool = self.frame_pool.borrow_mut();
        if pool.len() < 32 {
            pool.push(regs);
        }
        result
    }
}
