//! Flat register bytecode: the fast execution tier.
//!
//! Lowering (`lower.rs`) compiles every lowerable body to a `BcBody` right
//! away: a dense `Vec<Instr>` over a flat register file (locals, preloaded
//! constants, and per-statement temporaries), executed by the
//! match-dispatch loop in `vm.rs`. A body the compiler declines is
//! unlowerable and runs on the reference tree walker in `interp.rs`. The
//! compiler preserves the walker's observable semantics exactly — step
//! counts, error strings, error spans, evaluation order — so both tiers
//! stay byte-identical over the corpus. Bytecode never leaves the process:
//! the VM runs only what [`compile`] emitted, so its register, site and
//! jump operands are in bounds by construction.
//!
//! Highlights:
//! - no `Const` instruction: constants are preloaded into dedicated
//!   registers once per frame entry (`BcBody::preloads`);
//! - superinstructions: fused compare+branch (`JmpIfCmp`), local
//!   increment (`IncLocal`), and store-fused binary ops (dst = local slot);
//! - polymorphic inline caches (`PolySite`, 2–4 entries keyed by receiver
//!   class + exact argument keys, MRU-front);
//! - tiny leaf callees (≤ `INLINE_MAX` instrs) are spliced inline at the
//!   refine recompile (`REFINE_EXECS`) behind `GuardInline` checks;
//! - `Break`/`Continue` surfacing from calls inside loop bodies are routed
//!   through a static region table (`Region`) instead of unwinding.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use maya_ast::{BinOp, IncDecOp, PrimKind, TypeName, TypeNameKind, UnOp};
use maya_lexer::{Span, Symbol};
use maya_types::{ClassId, ClassTable, MethodInfo};

use crate::lower::{LCallee, LExpr, LExprKind, LStmt, LStmtKind, LTarget, LoweredBody, TypeSlot};
use crate::value::Value;

/// Max entries in a polymorphic inline cache line.
pub(crate) const PIC_CAP: usize = 4;
/// Executions of the cold-compiled body before the refine (inlining) pass.
pub(crate) const REFINE_EXECS: u32 = 3;
/// Max callee instruction count eligible for inline splicing.
pub(crate) const INLINE_MAX: usize = 24;

/// The bytecode memoized on each `LoweredBody`: the cold compile, plus the
/// refine (inlining) recompile made after [`REFINE_EXECS`] runs.
///
/// Splice guards compare the PIC epoch they were built under, and every
/// interpreter allocates fresh epochs, so a refined body that a session's
/// `LowerStore` shares with a later request's compiler could never pass
/// one of its guards again. Runs are therefore counted per epoch: the
/// first run under a new epoch drops a refined body that holds splices,
/// the body runs cold, and it is refined again after `REFINE_EXECS` runs
/// under the new epoch.
pub(crate) struct BcState {
    /// Never changes.
    cold: Rc<BcBody>,
    refined: RefCell<Option<Rc<BcBody>>>,
    /// The epoch `execs` counts runs under.
    epoch: Cell<u64>,
    /// Runs under `epoch` so far; saturates at `REFINE_EXECS + 1`.
    execs: Cell<u32>,
}

impl BcState {
    pub(crate) fn new(bc: BcBody) -> BcState {
        BcState {
            cold: Rc::new(bc),
            refined: RefCell::new(None),
            epoch: Cell::new(u64::MAX),
            execs: Cell::new(0),
        }
    }

    /// The cold compile: what the splicer copies.
    pub(crate) fn cold(&self) -> &Rc<BcBody> {
        &self.cold
    }

    /// The bytecode a run uses now: the refined compile once there is one.
    pub(crate) fn current(&self) -> Rc<BcBody> {
        match &*self.refined.borrow() {
            Some(bc) => Rc::clone(bc),
            None => Rc::clone(&self.cold),
        }
    }

    /// Counts one run under `epoch`; true exactly on the first run after
    /// `REFINE_EXECS` runs under it, so the refine pass fires once per
    /// epoch that outdates a refined body's splices.
    pub(crate) fn note_exec(&self, epoch: u64) -> bool {
        if self.epoch.get() != epoch {
            self.epoch.set(epoch);
            let stale = self
                .refined
                .borrow()
                .as_ref()
                .is_some_and(|bc| !bc.guards.is_empty());
            if stale {
                self.refined.replace(None);
                self.execs.set(0);
            }
        }
        let n = self.execs.get();
        if n > REFINE_EXECS {
            return false;
        }
        self.execs.set(n + 1);
        n == REFINE_EXECS
    }

    pub(crate) fn set_refined(&self, bc: Rc<BcBody>) {
        self.refined.replace(Some(bc));
    }
}

/// One bytecode instruction. All operand types are `Copy`.
#[derive(Clone, Copy)]
pub(crate) enum Instr {
    Move { dst: u16, src: u16 },
    LoadThis { dst: u16, span: Span },
    EnvLoad { dst: u16, name: Symbol, site: u16, span: Span },
    /// A spliced callee's `EnvLoad`: resolves `name` against the `this`
    /// and class of the callee frame that `guard` stands in for (its
    /// receiver register, or the caller's `this` for an implicit call).
    EnvLoadAt { dst: u16, guard: u16, name: Symbol, site: u16, span: Span },
    EnvStore { src: u16, name: Symbol, span: Span },
    ClassRef { dst: u16, fqcn: Symbol, span: Span },
    FieldGet { dst: u16, obj: u16, name: Symbol, site: u16, span: Span },
    FieldSet { obj: u16, val: u16, name: Symbol, span: Span },
    /// `spans` indexes `BcBody::span_pairs` -> (expr span, index span).
    ArrGet { dst: u16, arr: u16, idx: u16, spans: u16 },
    ArrSet { arr: u16, idx: u16, val: u16, spans: u16 },
    /// Resolve + class-check the constructed type; push it on the ty stack.
    NewClass { ty: u16, span: Span },
    /// Pop the ty stack and construct with args at regs[base..base+n].
    NewFinish { dst: u16, base: u16, n: u16, span: Span },
    /// Resolve array element type (+extra dims); push on the ty stack.
    TyElem { ty: u16, extra_dims: u32, span: Span },
    NewArrayFinish { dst: u16, base: u16, n: u16, span: Span },
    /// In-place `int_of` coercion of a dimension register.
    ToInt { reg: u16, span: Span },
    /// Resolve a declaration's base type; push on the ty stack.
    TyDecl { ty: u16, span: Span },
    /// dst = default value of ty-stack top (+`dims` array dims).
    DefaultVal { dst: u16, dims: u32 },
    TyPop,
    Binary { op: BinOp, dst: u16, a: u16, b: u16, span: Span },
    Unary { op: UnOp, dst: u16, src: u16, span: Span },
    /// dst = src incremented/decremented (pure value op, no store).
    IncDecVal { dst: u16, src: u16, delta: i32, span: Span },
    /// Superinstruction: in-place ++/-- of a local slot.
    IncLocal { slot: u16, delta: i32, span: Span },
    CastV { dst: u16, src: u16, ty: u16, span: Span },
    InstOf { dst: u16, src: u16, ty: u16, span: Span },
    Jmp { target: u32 },
    JmpIfFalse { src: u16, target: u32, span: Span },
    JmpIfTrue { src: u16, target: u32, span: Span },
    /// Superinstruction: fused compare+branch. Branches when the compare
    /// result equals `when`.
    JmpIfCmp { op: BinOp, a: u16, b: u16, when: bool, target: u32, span: Span },
    /// One interpreter step (per lowered statement).
    Step { span: Span },
    Ret { src: u16 },
    RetNull,
    /// `break`/`continue` with no enclosing loop in this body: surface as
    /// control for the caller (routed by the caller's region table).
    RaiseBreak,
    RaiseContinue,
    Throw { src: u16 },
    RaiseInvalidAssign { span: Span },
    CallRecv { dst: u16, recv: u16, base: u16, n: u16, name: Symbol, site: u16, span: Span },
    CallSuper { dst: u16, base: u16, n: u16, name: Symbol, site: u16, span: Span },
    CallImplicit { dst: u16, base: u16, n: u16, name: Symbol, site: u16, span: Span },
    /// Inline-splice guard: if the guard's PIC shape no longer matches,
    /// jump to `fallback` (the generic call instruction).
    GuardInline { guard: u16, fallback: u32 },
    /// Enter an inlined frame (depth guard + profiler enter).
    CallEnter { m: u16, span: Span },
    CallExit,
}

impl Instr {
    pub(crate) fn mnemonic(&self) -> &'static str {
        match self {
            Instr::Move { .. } => "move",
            Instr::LoadThis { .. } => "load_this",
            Instr::EnvLoad { .. } => "env_load",
            Instr::EnvLoadAt { .. } => "env_load_at",
            Instr::EnvStore { .. } => "env_store",
            Instr::ClassRef { .. } => "class_ref",
            Instr::FieldGet { .. } => "field_get",
            Instr::FieldSet { .. } => "field_set",
            Instr::ArrGet { .. } => "arr_get",
            Instr::ArrSet { .. } => "arr_set",
            Instr::NewClass { .. } => "new_class",
            Instr::NewFinish { .. } => "new_finish",
            Instr::TyElem { .. } => "ty_elem",
            Instr::NewArrayFinish { .. } => "new_array",
            Instr::ToInt { .. } => "to_int",
            Instr::TyDecl { .. } => "ty_decl",
            Instr::DefaultVal { .. } => "default_val",
            Instr::TyPop => "ty_pop",
            Instr::Binary { .. } => "binary",
            Instr::Unary { .. } => "unary",
            Instr::IncDecVal { .. } => "incdec_val",
            Instr::IncLocal { .. } => "inc_local",
            Instr::CastV { .. } => "cast",
            Instr::InstOf { .. } => "instanceof",
            Instr::Jmp { .. } => "jmp",
            Instr::JmpIfFalse { .. } => "jmp_if_false",
            Instr::JmpIfTrue { .. } => "jmp_if_true",
            Instr::JmpIfCmp { .. } => "jmp_if_cmp",
            Instr::Step { .. } => "step",
            Instr::Ret { .. } => "ret",
            Instr::RetNull => "ret_null",
            Instr::RaiseBreak => "raise_break",
            Instr::RaiseContinue => "raise_continue",
            Instr::Throw { .. } => "throw",
            Instr::RaiseInvalidAssign { .. } => "raise_invalid_assign",
            Instr::CallRecv { .. } => "call_recv",
            Instr::CallSuper { .. } => "call_super",
            Instr::CallImplicit { .. } => "call_implicit",
            Instr::GuardInline { .. } => "guard_inline",
            Instr::CallEnter { .. } => "call_enter",
            Instr::CallExit => "call_exit",
        }
    }
}

/// A loop-body pc range with its break/continue targets and the ty-stack /
/// inline-frame depths to restore when control routes through it.
#[derive(Clone, Copy)]
pub(crate) struct Region {
    pub start: u32,
    pub end: u32,
    pub brk: u32,
    pub cont: u32,
    pub ty_depth: u16,
    pub inline_depth: u16,
}

/// A compact classification of a runtime argument, precise enough that two
/// arguments with equal non-[`ArgKey::Other`] keys are guaranteed to have
/// the same [`Value::runtime_type`].  `Other` (arrays, natives) never
/// matches, so such arguments always take the full method search.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum ArgKey {
    Null,
    Prim(PrimKind),
    Str,
    Class(ClassId),
    Other,
}

impl ArgKey {
    /// Classifies a runtime value.
    pub(crate) fn of(v: &Value) -> ArgKey {
        match v {
            Value::Null => ArgKey::Null,
            Value::Bool(_) => ArgKey::Prim(PrimKind::Boolean),
            Value::Char(_) => ArgKey::Prim(PrimKind::Char),
            Value::Int(_) => ArgKey::Prim(PrimKind::Int),
            Value::Long(_) => ArgKey::Prim(PrimKind::Long),
            Value::Float(_) => ArgKey::Prim(PrimKind::Float),
            Value::Double(_) => ArgKey::Prim(PrimKind::Double),
            Value::Str(_) => ArgKey::Str,
            Value::Object(o) => ArgKey::Class(o.class),
            _ => ArgKey::Other,
        }
    }

    /// Whether `v` is classified by this key.  `Other` matches nothing.
    pub(crate) fn matches(&self, v: &Value) -> bool {
        !matches!(self, ArgKey::Other) && *self == ArgKey::of(v)
    }
}

/// A monomorphic field-offset cache, guarded by the identity of the
/// receiver's [`crate::FieldLayout`].  An object's layout never changes
/// after construction (class mutation only gives *new* instances a new
/// layout), so layout identity is a sound guard with no epoch check.
pub(crate) struct FieldSite {
    layout: Cell<usize>,
    offset: Cell<u32>,
}

impl FieldSite {
    pub(crate) fn new() -> FieldSite {
        FieldSite {
            layout: Cell::new(0),
            offset: Cell::new(0),
        }
    }

    /// The cached offset when this site last saw the layout at `layout_ptr`.
    pub(crate) fn get(&self, layout_ptr: usize) -> Option<u32> {
        if layout_ptr != 0 && self.layout.get() == layout_ptr {
            return Some(self.offset.get());
        }
        None
    }

    /// Caches `offset` for the layout at `layout_ptr`.
    pub(crate) fn fill(&self, layout_ptr: usize, offset: u32) {
        self.layout.set(layout_ptr);
        self.offset.set(offset);
    }
}

/// One entry in a polymorphic inline cache line.
pub(crate) struct PicEntry {
    pub ck: u64,
    pub class: ClassId,
    pub keys: Box<[ArgKey]>,
    pub target: Rc<MethodInfo>,
    pub lowered: Option<Rc<LoweredBody>>,
}

/// Polymorphic inline cache: up to `PIC_CAP` entries, MRU-front.
pub(crate) struct PolySite {
    pub epoch: Cell<u64>,
    pub entries: RefCell<Vec<PicEntry>>,
}

/// Snapshot of a monomorphic site used to build an inline-splice guard.
pub(crate) struct MonoSnapshot {
    pub epoch: u64,
    pub ck: u64,
    pub class: ClassId,
    pub keys: Box<[ArgKey]>,
    pub target: Rc<MethodInfo>,
    pub lowered: Rc<LoweredBody>,
}

impl PolySite {
    pub(crate) fn new() -> Rc<Self> {
        Rc::new(PolySite { epoch: Cell::new(u64::MAX), entries: RefCell::new(Vec::new()) })
    }

    /// Look up (receiver class key, args) in the cache line. A stale epoch
    /// clears the line. On hit the entry moves to front and its target (and
    /// cached lowered body, if any) is returned.
    pub(crate) fn lookup(
        &self,
        epoch: u64,
        ck: u64,
        args: &[Value],
    ) -> Option<(Rc<MethodInfo>, Option<Rc<LoweredBody>>)> {
        if self.epoch.get() != epoch {
            self.entries.borrow_mut().clear();
            self.epoch.set(epoch);
            return None;
        }
        let mut entries = self.entries.borrow_mut();
        let pos = entries.iter().position(|e| {
            e.ck == ck
                && e.keys.len() == args.len()
                && e.keys.iter().zip(args).all(|(k, a)| k.matches(a))
        })?;
        if pos != 0 {
            let e = entries.remove(pos);
            entries.insert(0, e);
        }
        let e = &entries[0];
        Some((Rc::clone(&e.target), e.lowered.clone()))
    }

    /// Install a new front entry, evicting the LRU tail past `PIC_CAP`.
    /// Entries with any inexact (`Other`) key are not installed — they can
    /// never hit and would pollute the line. Returns true if evicted.
    pub(crate) fn install(
        &self,
        ck: u64,
        class: ClassId,
        keys: Box<[ArgKey]>,
        target: Rc<MethodInfo>,
        lowered: Option<Rc<LoweredBody>>,
    ) -> bool {
        if keys.iter().any(|k| matches!(k, ArgKey::Other)) {
            return false;
        }
        let mut entries = self.entries.borrow_mut();
        entries.insert(0, PicEntry { ck, class, keys, target, lowered });
        if entries.len() > PIC_CAP {
            entries.pop();
            return true;
        }
        false
    }

    /// Late-bind a lowered body to the entry holding `target`. Looked up by
    /// target identity (not front position): recursion through the same
    /// site may have reordered the line since the miss installed the entry.
    pub(crate) fn backfill_lowered(&self, target: &Rc<MethodInfo>, lb: Rc<LoweredBody>) {
        let mut entries = self.entries.borrow_mut();
        if let Some(e) = entries
            .iter_mut()
            .find(|e| Rc::ptr_eq(&e.target, target))
        {
            if e.lowered.is_none() {
                e.lowered = Some(lb);
            }
        }
    }

    /// Snapshot a monomorphic, fully-exact, lowered-cached site for inline
    /// splicing under `epoch`. Returns None if the line was filled under
    /// another epoch (a guard built from it could never pass), or the site
    /// is polymorphic, has inexact keys, targets a native, or has no
    /// lowered body yet.
    pub(crate) fn mono_snapshot(&self, epoch: u64) -> Option<MonoSnapshot> {
        let entries = self.entries.borrow();
        if self.epoch.get() != epoch || entries.len() != 1 {
            return None;
        }
        let e = &entries[0];
        if e.keys.iter().any(|k| matches!(k, ArgKey::Other)) || e.target.native.is_some() {
            return None;
        }
        let lowered = e.lowered.clone()?;
        Some(MonoSnapshot {
            epoch,
            ck: e.ck,
            class: e.class,
            keys: e.keys.clone(),
            target: Rc::clone(&e.target),
            lowered,
        })
    }

    /// Human-readable PIC shape for the disassembler.
    pub(crate) fn describe(&self, ct: &ClassTable) -> String {
        let entries = self.entries.borrow();
        if entries.is_empty() {
            return "empty".to_string();
        }
        let shapes: Vec<String> = entries
            .iter()
            .map(|e| {
                let cname = ct.info(e.class).borrow().fqcn;
                let keys: Vec<String> = e.keys.iter().map(|k| format!("{k:?}")).collect();
                format!("{cname}({})", keys.join(","))
            })
            .collect();
        shapes.join(" | ")
    }
}

/// Guard metadata for one inline splice site.
pub(crate) struct InlineGuard {
    pub epoch: u64,
    pub ck: u64,
    pub keys: Box<[ArgKey]>,
    /// Receiver register; None = an implicit call, whose callee shares the
    /// caller's `this` (and, in a static frame, dispatches on the frame's
    /// class).
    pub recv: Option<u16>,
    pub base: u16,
    pub site: Rc<PolySite>,
    pub name: Symbol,
    /// The class the callee frame runs under: the receiver's class, or the
    /// frame's class at a static implicit call site.
    pub class: ClassId,
}

/// A compiled body.
pub(crate) struct BcBody {
    pub n_params: u16,
    pub n_locals: u16,
    pub n_regs: u16,
    pub code: Vec<Instr>,
    /// (register, value) pairs applied once at frame entry.
    pub preloads: Vec<(u16, Value)>,
    pub field_sites: Vec<FieldSite>,
    pub sites: Vec<Rc<PolySite>>,
    pub tys: Vec<Rc<TypeSlot>>,
    /// (expr span, index span) pairs for array ops.
    pub span_pairs: Vec<(Span, Span)>,
    /// Inlined callee methods: (method, defining class).
    pub methods: Vec<(Rc<MethodInfo>, ClassId)>,
    pub guards: Vec<InlineGuard>,
    pub regions: Vec<Region>,
    /// pc -> hot binary-op pair labels (profiler parity with the reference
    /// walker's `eval_binary`).
    pub pairs: HashMap<u32, Vec<(&'static str, &'static str)>>,
    /// pcs of superinstructions (for telemetry + disasm annotation).
    pub super_pcs: Vec<u32>,
    /// (guard pc, exit pc, method index) per inline splice (for disasm).
    pub inlined: Vec<(u32, u32, u16)>,
}

impl BcBody {
    /// Innermost region containing `pc` (max start among matches).
    pub(crate) fn innermost_region(&self, pc: u32) -> Option<Region> {
        self.regions
            .iter()
            .filter(|r| r.start <= pc && pc < r.end)
            .max_by_key(|r| r.start)
            .copied()
    }
}

/// Compile-time bailout: this body can't be expressed in bytecode
/// (register pool exhausted, …); lowering then records it unlowerable.
pub(crate) struct Unsupported;

/// True iff evaluating `e` can write a local slot (Assign/IncDec with a
/// Local target anywhere inside). Calls cannot write caller locals.
fn writes_locals(e: &LExpr) -> bool {
    match &e.kind {
        LExprKind::Const(_)
        | LExprKind::Local(_)
        | LExprKind::EnvName(_)
        | LExprKind::This
        | LExprKind::ClassRefName(_) => false,
        LExprKind::FieldGet { target, .. } => writes_locals(target),
        LExprKind::ArrayGet(arr, idx) => writes_locals(arr) || writes_locals(idx),
        LExprKind::New { args, .. } => args.iter().any(writes_locals),
        LExprKind::NewArray { dims, .. } => dims.iter().any(writes_locals),
        LExprKind::Binary(_, l, r) => writes_locals(l) || writes_locals(r),
        LExprKind::Unary(_, x) => writes_locals(x),
        LExprKind::IncDec { read, write, .. } => {
            matches!(write, LTarget::Local(_)) || writes_locals(read) || target_writes(write)
        }
        LExprKind::Assign { compound, write, value } => {
            matches!(write, LTarget::Local(_))
                || compound.as_ref().is_some_and(|(_, read)| writes_locals(read))
                || target_writes(write)
                || writes_locals(value)
        }
        LExprKind::Cond(c, t, f) => writes_locals(c) || writes_locals(t) || writes_locals(f),
        LExprKind::Cast { x, .. } => writes_locals(x),
        LExprKind::Instanceof { x, .. } => writes_locals(x),
        LExprKind::Call { callee, args, .. } => {
            let recv = match callee {
                LCallee::Recv(r, _) => writes_locals(r),
                LCallee::Super(_) | LCallee::Implicit(_) => false,
            };
            recv || args.iter().any(writes_locals)
        }
    }
}

/// True iff evaluating the subexpressions of target `t` can write a local.
fn target_writes(t: &LTarget) -> bool {
    match t {
        LTarget::Local(_) => true,
        LTarget::EnvName(..) | LTarget::Invalid(_) => false,
        LTarget::Field { target, .. } => writes_locals(target),
        LTarget::Array { arr, idx, .. } => writes_locals(arr) || writes_locals(idx),
    }
}

/// True iff a type name resolves independently of class context (primitives
/// and arrays of primitives). `Named` types are context-dependent and make a
/// callee ineligible for inline splicing into a different class.
fn tn_is_prim(tn: &TypeName) -> bool {
    match &tn.kind {
        TypeNameKind::Prim(_) => true,
        TypeNameKind::Array(inner) => tn_is_prim(inner),
        _ => false,
    }
}

/// True iff `bc` is a leaf body eligible for inline splicing: short, no
/// calls/guards, no name stores, and only context-free types.  Reads of
/// `this` and of bare names are fine: the splicer rewrites `LoadThis` to
/// the guarded receiver register (an implicit call's callee shares the
/// caller's `this`) and `EnvLoad` to `EnvLoadAt`, which resolves in the
/// callee's class — so field getters and `side * side` areas inline too.
pub(crate) fn inline_ok(bc: &BcBody, n_args: usize) -> bool {
    if !bc.guards.is_empty() || bc.code.len() > INLINE_MAX {
        return false;
    }
    if bc.n_params as usize != n_args {
        return false;
    }
    if !bc.tys.iter().all(|t| tn_is_prim(&t.tn)) {
        return false;
    }
    bc.code.iter().all(|i| {
        matches!(
            i,
            Instr::Move { .. }
                | Instr::LoadThis { .. }
                | Instr::EnvLoad { .. }
                | Instr::Binary { .. }
                | Instr::Unary { .. }
                | Instr::IncDecVal { .. }
                | Instr::IncLocal { .. }
                | Instr::Jmp { .. }
                | Instr::JmpIfFalse { .. }
                | Instr::JmpIfTrue { .. }
                | Instr::JmpIfCmp { .. }
                | Instr::Step { .. }
                | Instr::Ret { .. }
                | Instr::RetNull
                | Instr::RaiseBreak
                | Instr::RaiseContinue
                | Instr::Throw { .. }
                | Instr::RaiseInvalidAssign { .. }
                | Instr::ToInt { .. }
                | Instr::ArrGet { .. }
                | Instr::ArrSet { .. }
                | Instr::FieldGet { .. }
                | Instr::FieldSet { .. }
                | Instr::DefaultVal { .. }
                | Instr::TyPop
                | Instr::TyDecl { .. }
        )
    })
}

// ---- compiler ----------------------------------------------------------------

/// Pending break/continue jump fixups for the innermost loop being compiled.
struct LoopCtx {
    break_fixups: Vec<u32>,
    continue_fixups: Vec<u32>,
}

/// Single-pass bytecode emitter over a [`LoweredBody`].
///
/// Register file layout: `[0, n_slots)` are the lowered frame slots (params
/// then locals), above that live preloaded constant registers (permanent,
/// tracked by `perm_base`) interleaved with per-statement temporaries
/// (released at each statement boundary by resetting `next_reg`).
struct Emit<'a> {
    code: Vec<Instr>,
    n_slots: u16,
    /// Next free register (temporaries and constants share the counter).
    next_reg: u32,
    /// Registers below this are permanent (slots + constants).
    perm_base: u32,
    /// High-water mark -> `BcBody::n_regs`.
    high_water: u32,
    preloads: Vec<(u16, Value)>,
    c_true: Option<u16>,
    c_false: Option<u16>,
    c_null: Option<u16>,
    field_sites: Vec<FieldSite>,
    sites: Vec<Rc<PolySite>>,
    /// Call-emission-order cursor into `old_sites` (refine pass reuses the
    /// cold pass's PolySites so warmed-up cache lines survive recompile).
    site_counter: usize,
    old_sites: &'a [Rc<PolySite>],
    tys: Vec<Rc<TypeSlot>>,
    span_pairs: Vec<(Span, Span)>,
    loops: Vec<LoopCtx>,
    regions: Vec<Region>,
    pairs: HashMap<u32, Vec<(&'static str, &'static str)>>,
    super_pcs: Vec<u32>,
    /// Current static ty-stack depth (for region capture).
    ty_depth: u16,
    /// On the refine pass, the epoch whose PIC lines splices snapshot.
    refine_epoch: Option<u64>,
    methods: Vec<(Rc<MethodInfo>, ClassId)>,
    guards: Vec<InlineGuard>,
    inlined: Vec<(u32, u32, u16)>,
}

fn idx16(n: usize) -> Result<u16, Unsupported> {
    u16::try_from(n).map_err(|_| Unsupported)
}

/// Sentinel base for constant registers during emission.  Temp register
/// indices are reused across statements, so a constant (preloaded once at
/// frame entry) must live *above* every temp the body ever touches — which
/// is only known at the end of compilation.  Consts are therefore emitted
/// at `CONST_BASE + k` and remapped to `high_water + k` by `compile`.
const CONST_BASE: u16 = 0x8000;

/// Applies `f` to every register operand of `ins` (not side-table indices
/// or jump targets).  Used by the final const-register remap.
fn map_regs(ins: &mut Instr, f: impl Fn(u16) -> u16) {
    match ins {
        Instr::Move { dst, src }
        | Instr::Unary { dst, src, .. }
        | Instr::IncDecVal { dst, src, .. }
        | Instr::CastV { dst, src, .. }
        | Instr::InstOf { dst, src, .. } => {
            *dst = f(*dst);
            *src = f(*src);
        }
        Instr::LoadThis { dst, .. }
        | Instr::EnvLoad { dst, .. }
        | Instr::EnvLoadAt { dst, .. }
        | Instr::ClassRef { dst, .. }
        | Instr::DefaultVal { dst, .. } => *dst = f(*dst),
        Instr::EnvStore { src, .. }
        | Instr::JmpIfFalse { src, .. }
        | Instr::JmpIfTrue { src, .. }
        | Instr::Ret { src }
        | Instr::Throw { src } => *src = f(*src),
        Instr::FieldGet { dst, obj, .. } => {
            *dst = f(*dst);
            *obj = f(*obj);
        }
        Instr::FieldSet { obj, val, .. } => {
            *obj = f(*obj);
            *val = f(*val);
        }
        Instr::ArrGet { dst, arr, idx, .. } => {
            *dst = f(*dst);
            *arr = f(*arr);
            *idx = f(*idx);
        }
        Instr::ArrSet { arr, idx, val, .. } => {
            *arr = f(*arr);
            *idx = f(*idx);
            *val = f(*val);
        }
        Instr::NewFinish { dst, base, .. } | Instr::NewArrayFinish { dst, base, .. } => {
            *dst = f(*dst);
            *base = f(*base);
        }
        Instr::ToInt { reg, .. } => *reg = f(*reg),
        Instr::Binary { dst, a, b, .. } => {
            *dst = f(*dst);
            *a = f(*a);
            *b = f(*b);
        }
        Instr::IncLocal { slot, .. } => *slot = f(*slot),
        Instr::JmpIfCmp { a, b, .. } => {
            *a = f(*a);
            *b = f(*b);
        }
        Instr::CallRecv { dst, recv, base, .. } => {
            *dst = f(*dst);
            *recv = f(*recv);
            *base = f(*base);
        }
        Instr::CallSuper { dst, base, .. } | Instr::CallImplicit { dst, base, .. } => {
            *dst = f(*dst);
            *base = f(*base);
        }
        Instr::NewClass { .. }
        | Instr::TyElem { .. }
        | Instr::TyDecl { .. }
        | Instr::TyPop
        | Instr::Jmp { .. }
        | Instr::Step { .. }
        | Instr::RetNull
        | Instr::RaiseBreak
        | Instr::RaiseContinue
        | Instr::RaiseInvalidAssign { .. }
        | Instr::GuardInline { .. }
        | Instr::CallEnter { .. }
        | Instr::CallExit => {}
    }
}

impl<'a> Emit<'a> {
    fn pc(&self) -> u32 {
        self.code.len() as u32
    }

    fn emit(&mut self, i: Instr) -> u32 {
        let pc = self.pc();
        self.code.push(i);
        pc
    }

    fn bump(&mut self, n: u32) -> Result<u16, Unsupported> {
        let r = self.next_reg;
        let end = r + n;
        if end >= u32::from(CONST_BASE) {
            return Err(Unsupported);
        }
        self.next_reg = end;
        self.high_water = self.high_water.max(end);
        Ok(r as u16)
    }

    fn alloc_temp(&mut self) -> Result<u16, Unsupported> {
        self.bump(1)
    }

    /// A contiguous block of `n` registers (call/ctor/array-dim arguments).
    fn alloc_block(&mut self, n: usize) -> Result<u16, Unsupported> {
        self.bump(u32::try_from(n).map_err(|_| Unsupported)?)
    }

    /// A constant register preloaded with `v` at frame entry.  Allocated
    /// in the sentinel space (see [`CONST_BASE`]) and remapped above the
    /// temp high-water mark when compilation finishes.
    fn alloc_const(&mut self, v: Value) -> Result<u16, Unsupported> {
        let k = self.preloads.len();
        if k >= usize::from(u16::MAX - CONST_BASE) {
            return Err(Unsupported);
        }
        let r = CONST_BASE + k as u16;
        self.preloads.push((r, v));
        Ok(r)
    }

    /// Constant register for `v`; `true`/`false`/`null` are deduplicated.
    fn const_reg(&mut self, v: &Value) -> Result<u16, Unsupported> {
        match v {
            Value::Bool(true) => {
                if let Some(r) = self.c_true {
                    return Ok(r);
                }
                let r = self.alloc_const(Value::Bool(true))?;
                self.c_true = Some(r);
                Ok(r)
            }
            Value::Bool(false) => {
                if let Some(r) = self.c_false {
                    return Ok(r);
                }
                let r = self.alloc_const(Value::Bool(false))?;
                self.c_false = Some(r);
                Ok(r)
            }
            Value::Null => Ok(self.null_reg()?),
            other => self.alloc_const(other.clone()),
        }
    }

    fn null_reg(&mut self) -> Result<u16, Unsupported> {
        if let Some(r) = self.c_null {
            return Ok(r);
        }
        let r = self.alloc_const(Value::Null)?;
        self.c_null = Some(r);
        Ok(r)
    }

    fn field_site(&mut self) -> Result<u16, Unsupported> {
        let i = idx16(self.field_sites.len())?;
        self.field_sites.push(FieldSite::new());
        Ok(i)
    }

    fn ty_slot(&mut self, ts: &Rc<TypeSlot>) -> Result<u16, Unsupported> {
        let i = idx16(self.tys.len())?;
        self.tys.push(Rc::clone(ts));
        Ok(i)
    }

    fn span_pair(&mut self, expr: Span, idx: Span) -> Result<u16, Unsupported> {
        let i = idx16(self.span_pairs.len())?;
        self.span_pairs.push((expr, idx));
        Ok(i)
    }

    /// Next call site: reuse the cold pass's PolySite in emission order so
    /// warmed cache lines survive the refine recompile.
    fn call_site(&mut self) -> Result<(u16, Rc<PolySite>), Unsupported> {
        let site = match self.old_sites.get(self.site_counter) {
            Some(s) => Rc::clone(s),
            None => PolySite::new(),
        };
        self.site_counter += 1;
        let i = idx16(self.sites.len())?;
        self.sites.push(Rc::clone(&site));
        Ok((i, site))
    }

    fn patch(&mut self, pcs: &[u32], to: u32) {
        for &pc in pcs {
            match &mut self.code[pc as usize] {
                Instr::Jmp { target }
                | Instr::JmpIfFalse { target, .. }
                | Instr::JmpIfTrue { target, .. }
                | Instr::JmpIfCmp { target, .. } => *target = to,
                Instr::GuardInline { fallback, .. } => *fallback = to,
                _ => unreachable!("patch target is not a jump"),
            }
        }
    }

    fn attach_pairs(&mut self, pc: u32, op: BinOp, l: &LExpr, r: &LExpr) {
        let mut v = Vec::new();
        if let LExprKind::Binary(inner, ..) = &l.kind {
            v.push((op.as_str(), inner.as_str()));
        }
        if let LExprKind::Binary(inner, ..) = &r.kind {
            v.push((op.as_str(), inner.as_str()));
        }
        if !v.is_empty() {
            self.pairs.entry(pc).or_default().extend(v);
        }
    }

    // ---- statements ----------------------------------------------------------

    fn stmt(&mut self, s: &LStmt) -> Result<(), Unsupported> {
        let mark = self.next_reg;
        self.emit(Instr::Step { span: s.span });
        match &s.kind {
            LStmtKind::Block(stmts) => {
                for c in stmts {
                    self.stmt(c)?;
                }
            }
            LStmtKind::Expr(e) => self.discard_expr(e)?,
            LStmtKind::Decl { ty, decls } => {
                // Fully-initialized primitive decls skip the runtime type
                // stack: no DefaultVal ever reads the resolved type, and
                // primitive resolution is infallible and context-free, so
                // the elision is unobservable (class-typed decls keep the
                // resolve so "unknown class" errors stay tier-identical).
                if tn_is_prim(&ty.tn) && decls.iter().all(|d| d.init.is_some()) {
                    for d in decls {
                        let dst = idx16(d.slot as usize)?;
                        let e = d.init.as_ref().expect("checked initialized");
                        self.expr_into(dst, e)?;
                    }
                } else {
                    let t = self.ty_slot(ty)?;
                    self.emit(Instr::TyDecl { ty: t, span: s.span });
                    self.ty_depth += 1;
                    for d in decls {
                        let dst = idx16(d.slot as usize)?;
                        match &d.init {
                            Some(e) => self.expr_into(dst, e)?,
                            None => {
                                self.emit(Instr::DefaultVal { dst, dims: d.dims });
                            }
                        }
                    }
                    self.emit(Instr::TyPop);
                    self.ty_depth -= 1;
                }
            }
            LStmtKind::If(c, t, e) => {
                let to_else = self.branch(c, false)?;
                self.stmt(t)?;
                match e {
                    Some(e) => {
                        let to_end = self.emit(Instr::Jmp { target: u32::MAX });
                        let here = self.pc();
                        self.patch(&to_else, here);
                        self.stmt(e)?;
                        let end = self.pc();
                        self.patch(&[to_end], end);
                    }
                    None => {
                        let here = self.pc();
                        self.patch(&to_else, here);
                    }
                }
            }
            LStmtKind::While(c, body) => {
                let l_cond = self.pc();
                let to_exit = self.branch(c, false)?;
                let l_body = self.pc();
                self.loops.push(LoopCtx { break_fixups: Vec::new(), continue_fixups: Vec::new() });
                self.stmt(body)?;
                let ctx = self.loops.pop().expect("loop ctx");
                let back = self.emit(Instr::Jmp { target: l_cond });
                let l_end = self.pc();
                self.patch(&to_exit, l_end);
                self.patch(&ctx.break_fixups, l_end);
                self.patch(&ctx.continue_fixups, l_cond);
                self.regions.push(Region {
                    start: l_body,
                    end: back,
                    brk: l_end,
                    cont: l_cond,
                    ty_depth: self.ty_depth,
                    inline_depth: 0,
                });
            }
            LStmtKind::Do(body, c) => {
                let l_body = self.pc();
                self.loops.push(LoopCtx { break_fixups: Vec::new(), continue_fixups: Vec::new() });
                self.stmt(body)?;
                let ctx = self.loops.pop().expect("loop ctx");
                let l_cond = self.pc();
                let back = self.branch(c, true)?;
                self.patch(&back, l_body);
                let l_end = self.pc();
                self.patch(&ctx.break_fixups, l_end);
                self.patch(&ctx.continue_fixups, l_cond);
                self.regions.push(Region {
                    start: l_body,
                    end: l_cond,
                    brk: l_end,
                    cont: l_cond,
                    ty_depth: self.ty_depth,
                    inline_depth: 0,
                });
            }
            LStmtKind::For { init_decl, init_exprs, cond, update, body } => {
                if let Some(d) = init_decl {
                    self.stmt(d)?;
                }
                for e in init_exprs {
                    self.discard_expr(e)?;
                }
                let l_cond = self.pc();
                let to_exit = match cond {
                    Some(c) => self.branch(c, false)?,
                    None => Vec::new(),
                };
                let l_body = self.pc();
                self.loops.push(LoopCtx { break_fixups: Vec::new(), continue_fixups: Vec::new() });
                self.stmt(body)?;
                let ctx = self.loops.pop().expect("loop ctx");
                let l_cont = self.pc();
                for u in update {
                    self.discard_expr(u)?;
                }
                self.emit(Instr::Jmp { target: l_cond });
                let l_end = self.pc();
                self.patch(&to_exit, l_end);
                self.patch(&ctx.break_fixups, l_end);
                self.patch(&ctx.continue_fixups, l_cont);
                self.regions.push(Region {
                    start: l_body,
                    end: l_cont,
                    brk: l_end,
                    cont: l_cont,
                    ty_depth: self.ty_depth,
                    inline_depth: 0,
                });
            }
            LStmtKind::Return(e) => match e {
                Some(e) => {
                    let (src, _) = self.operand(e, false)?;
                    self.emit(Instr::Ret { src });
                }
                None => {
                    self.emit(Instr::RetNull);
                }
            },
            LStmtKind::Break => match self.loops.last_mut() {
                Some(_) => {
                    let pc = self.emit(Instr::Jmp { target: u32::MAX });
                    self.loops.last_mut().expect("loop ctx").break_fixups.push(pc);
                }
                None => {
                    self.emit(Instr::RaiseBreak);
                }
            },
            LStmtKind::Continue => match self.loops.last_mut() {
                Some(_) => {
                    let pc = self.emit(Instr::Jmp { target: u32::MAX });
                    self.loops.last_mut().expect("loop ctx").continue_fixups.push(pc);
                }
                None => {
                    self.emit(Instr::RaiseContinue);
                }
            },
            LStmtKind::Throw(e) => {
                let (src, _) = self.operand(e, false)?;
                self.emit(Instr::Throw { src });
            }
            LStmtKind::Empty => {}
        }
        self.next_reg = mark.max(self.perm_base);
        Ok(())
    }

    // ---- expressions ---------------------------------------------------------

    /// Evaluate `e` for side effects only (expression statements, `for`
    /// inits/updates), fusing local increments and local-store compounds.
    fn discard_expr(&mut self, e: &LExpr) -> Result<(), Unsupported> {
        match &e.kind {
            // Side-effect-free leaves: nothing to do.
            LExprKind::Const(_) | LExprKind::Local(_) => Ok(()),
            // `x++` / `x--` on a local slot: one superinstruction.
            LExprKind::IncDec { op, read, write, .. } => {
                if let (LExprKind::Local(rs), LTarget::Local(ws)) = (&read.kind, write) {
                    if rs == ws {
                        let slot = idx16(*rs as usize)?;
                        let delta = if *op == IncDecOp::Inc { 1 } else { -1 };
                        let pc = self.emit(Instr::IncLocal { slot, delta, span: e.span });
                        self.super_pcs.push(pc);
                        return Ok(());
                    }
                }
                let t = self.alloc_temp()?;
                self.expr_into(t, e)
            }
            // `x = v`: compile the value straight into the slot.
            LExprKind::Assign { compound: None, write: LTarget::Local(ws), value } => {
                let dst = idx16(*ws as usize)?;
                self.expr_into(dst, value)
            }
            // `x op= v`: store-fused binary (reads the slot at execution
            // time, after the value — legacy's value-then-read order).
            // The reference walker records no hot pairs for compound
            // assignment, so no pairs entry here.
            LExprKind::Assign {
                compound: Some((op, read)),
                write: LTarget::Local(ws),
                value,
            } => {
                if let LExprKind::Local(rs) = &read.kind {
                    if rs == ws {
                        let slot = idx16(*ws as usize)?;
                        let (b, _) = self.operand(value, false)?;
                        let pc = self.emit(Instr::Binary {
                            op: *op,
                            dst: slot,
                            a: slot,
                            b,
                            span: e.span,
                        });
                        self.super_pcs.push(pc);
                        return Ok(());
                    }
                }
                let t = self.alloc_temp()?;
                self.expr_into(t, e)
            }
            _ => {
                let t = self.alloc_temp()?;
                self.expr_into(t, e)
            }
        }
    }

    /// Place `e` in a register. Direct local/constant registers are used
    /// as-is; `hazard` forces a copy when code evaluated *after* this
    /// operand (but before the consuming instruction) could overwrite a
    /// local slot.
    fn operand(&mut self, e: &LExpr, hazard: bool) -> Result<(u16, bool), Unsupported> {
        match &e.kind {
            LExprKind::Local(slot) if !hazard => Ok((idx16(*slot as usize)?, true)),
            LExprKind::Const(v) => {
                let v = v.clone();
                Ok((self.const_reg(&v)?, true))
            }
            _ => {
                let t = self.alloc_temp()?;
                self.expr_into(t, e)?;
                Ok((t, false))
            }
        }
    }

    /// Compile condition `c` and emit a conditional jump taken when the
    /// condition equals `jump_when`; returns the jump pcs to patch.
    /// Comparison conditions fuse into `JmpIfCmp`.
    fn branch(&mut self, c: &LExpr, jump_when: bool) -> Result<Vec<u32>, Unsupported> {
        use BinOp::*;
        if let LExprKind::Binary(op, l, r) = &c.kind {
            if matches!(op, Lt | Le | Gt | Ge | Eq | Ne) {
                let pc_before = self.pc();
                self.attach_pairs(pc_before, *op, l, r);
                let hazard_l = writes_locals(r);
                let (a, _) = self.operand(l, hazard_l)?;
                let (b, _) = self.operand(r, false)?;
                let pc = self.emit(Instr::JmpIfCmp {
                    op: *op,
                    a,
                    b,
                    when: jump_when,
                    target: u32::MAX,
                    span: c.span,
                });
                self.super_pcs.push(pc);
                return Ok(vec![pc]);
            }
        }
        let (src, _) = self.operand(c, false)?;
        let pc = if jump_when {
            self.emit(Instr::JmpIfTrue { src, target: u32::MAX, span: c.span })
        } else {
            self.emit(Instr::JmpIfFalse { src, target: u32::MAX, span: c.span })
        };
        Ok(vec![pc])
    }

    /// Store an already-computed value into an assignment target (target
    /// subexpressions evaluate *after* the value, matching legacy order).
    fn store(&mut self, t: &LTarget, val: u16) -> Result<(), Unsupported> {
        match t {
            LTarget::Local(slot) => {
                let dst = idx16(*slot as usize)?;
                if dst != val {
                    self.emit(Instr::Move { dst, src: val });
                }
            }
            LTarget::EnvName(name, span) => {
                self.emit(Instr::EnvStore { src: val, name: *name, span: *span });
            }
            LTarget::Field { target, name, span } => {
                let (obj, _) = self.operand(target, false)?;
                self.emit(Instr::FieldSet { obj, val, name: *name, span: *span });
            }
            LTarget::Array { arr, idx, span } => {
                let (a, _) = self.operand(arr, writes_locals(idx))?;
                let (i, _) = self.operand(idx, false)?;
                let spans = self.span_pair(*span, idx.span)?;
                self.emit(Instr::ArrSet { arr: a, idx: i, val, spans });
            }
            LTarget::Invalid(span) => {
                self.emit(Instr::RaiseInvalidAssign { span: *span });
            }
        }
        Ok(())
    }

    /// Compile `e` so its value lands in `dst`. Contract: on every path,
    /// only the final emitted instruction writes `dst` (protects fused
    /// stores whose target is re-read by intervening code).
    fn expr_into(&mut self, dst: u16, e: &LExpr) -> Result<(), Unsupported> {
        match &e.kind {
            LExprKind::Const(v) => {
                let v = v.clone();
                let r = self.const_reg(&v)?;
                if dst != r {
                    self.emit(Instr::Move { dst, src: r });
                }
            }
            LExprKind::Local(slot) => {
                let src = idx16(*slot as usize)?;
                if dst != src {
                    self.emit(Instr::Move { dst, src });
                }
            }
            LExprKind::EnvName(name) => {
                // The site caches (layout → slot) for the dominant case:
                // an unqualified read of one of `this`'s fields.
                let site = self.field_site()?;
                self.emit(Instr::EnvLoad { dst, name: *name, site, span: e.span });
            }
            LExprKind::This => {
                self.emit(Instr::LoadThis { dst, span: e.span });
            }
            LExprKind::ClassRefName(fqcn) => {
                self.emit(Instr::ClassRef { dst, fqcn: *fqcn, span: e.span });
            }
            LExprKind::FieldGet { target, name, .. } => {
                let (obj, _) = self.operand(target, false)?;
                let site = self.field_site()?;
                self.emit(Instr::FieldGet { dst, obj, name: *name, site, span: e.span });
            }
            LExprKind::ArrayGet(arr, idx) => {
                let (a, _) = self.operand(arr, writes_locals(idx))?;
                let (i, _) = self.operand(idx, false)?;
                let spans = self.span_pair(e.span, idx.span)?;
                self.emit(Instr::ArrGet { dst, arr: a, idx: i, spans });
            }
            LExprKind::New { ty, args } => {
                let ty = self.ty_slot(ty)?;
                self.emit(Instr::NewClass { ty, span: e.span });
                self.ty_depth += 1;
                let n = idx16(args.len())?;
                let base = self.alloc_block(args.len())?;
                for (k, a) in args.iter().enumerate() {
                    self.expr_into(base + k as u16, a)?;
                }
                self.emit(Instr::NewFinish { dst, base, n, span: e.span });
                self.ty_depth -= 1;
            }
            LExprKind::NewArray { elem, extra_dims, dims } => {
                let ty = self.ty_slot(elem)?;
                self.emit(Instr::TyElem { ty, extra_dims: *extra_dims, span: e.span });
                self.ty_depth += 1;
                let n = idx16(dims.len())?;
                let base = self.alloc_block(dims.len())?;
                for (k, d) in dims.iter().enumerate() {
                    let reg = base + k as u16;
                    self.expr_into(reg, d)?;
                    self.emit(Instr::ToInt { reg, span: d.span });
                }
                self.emit(Instr::NewArrayFinish { dst, base, n, span: e.span });
                self.ty_depth -= 1;
            }
            LExprKind::Binary(op, l, r) => {
                let pc_before = self.pc();
                self.attach_pairs(pc_before, *op, l, r);
                match op {
                    // Short-circuit chains with truthiness-check parity:
                    // each operand's non-boolean error fires at its own span.
                    BinOp::And => {
                        let t = self.const_reg(&Value::Bool(true))?;
                        let f = self.const_reg(&Value::Bool(false))?;
                        let (sl, _) = self.operand(l, false)?;
                        let j1 =
                            self.emit(Instr::JmpIfFalse { src: sl, target: u32::MAX, span: l.span });
                        let (sr, _) = self.operand(r, false)?;
                        let j2 =
                            self.emit(Instr::JmpIfFalse { src: sr, target: u32::MAX, span: r.span });
                        self.emit(Instr::Move { dst, src: t });
                        let je = self.emit(Instr::Jmp { target: u32::MAX });
                        let l_false = self.pc();
                        self.patch(&[j1, j2], l_false);
                        self.emit(Instr::Move { dst, src: f });
                        let l_end = self.pc();
                        self.patch(&[je], l_end);
                    }
                    BinOp::Or => {
                        let t = self.const_reg(&Value::Bool(true))?;
                        let f = self.const_reg(&Value::Bool(false))?;
                        let (sl, _) = self.operand(l, false)?;
                        let j1 =
                            self.emit(Instr::JmpIfTrue { src: sl, target: u32::MAX, span: l.span });
                        let (sr, _) = self.operand(r, false)?;
                        let j2 =
                            self.emit(Instr::JmpIfTrue { src: sr, target: u32::MAX, span: r.span });
                        self.emit(Instr::Move { dst, src: f });
                        let je = self.emit(Instr::Jmp { target: u32::MAX });
                        let l_true = self.pc();
                        self.patch(&[j1, j2], l_true);
                        self.emit(Instr::Move { dst, src: t });
                        let l_end = self.pc();
                        self.patch(&[je], l_end);
                    }
                    _ => {
                        let hazard_l = writes_locals(r);
                        let (a, da) = self.operand(l, hazard_l)?;
                        let (b, db) = self.operand(r, false)?;
                        let pc = self.emit(Instr::Binary { op: *op, dst, a, b, span: e.span });
                        // Superinstruction forms: both operands direct
                        // (load+load+op) or store-fused into a local slot.
                        if (da && db) || dst < self.n_slots {
                            self.super_pcs.push(pc);
                        }
                    }
                }
            }
            LExprKind::Unary(op, x) => {
                let (src, _) = self.operand(x, false)?;
                self.emit(Instr::Unary { op: *op, dst, src, span: e.span });
            }
            LExprKind::IncDec { op, prefix, read, write } => {
                let delta = if *op == IncDecOp::Inc { 1 } else { -1 };
                if *prefix {
                    let (r, _) = self.operand(read, false)?;
                    let t_new = self.alloc_temp()?;
                    self.emit(Instr::IncDecVal { dst: t_new, src: r, delta, span: e.span });
                    self.store(write, t_new)?;
                    self.emit(Instr::Move { dst, src: t_new });
                } else {
                    // Postfix must copy the old value before the store.
                    let t_old = self.alloc_temp()?;
                    self.expr_into(t_old, read)?;
                    let t_new = self.alloc_temp()?;
                    self.emit(Instr::IncDecVal { dst: t_new, src: t_old, delta, span: e.span });
                    self.store(write, t_new)?;
                    self.emit(Instr::Move { dst, src: t_old });
                }
            }
            LExprKind::Assign { compound, write, value } => match compound {
                None => {
                    let hazard = target_writes(write);
                    let (rv, _) = self.operand(value, hazard)?;
                    self.store(write, rv)?;
                    if dst != rv {
                        self.emit(Instr::Move { dst, src: rv });
                    }
                }
                Some((binop, read)) => {
                    let hazard = writes_locals(read) || target_writes(write);
                    let (rv, _) = self.operand(value, hazard)?;
                    let (lv, _) = self.operand(read, false)?;
                    let t = self.alloc_temp()?;
                    self.emit(Instr::Binary { op: *binop, dst: t, a: lv, b: rv, span: e.span });
                    self.store(write, t)?;
                    self.emit(Instr::Move { dst, src: t });
                }
            },
            LExprKind::Cond(c, t, f) => {
                let to_else = self.branch(c, false)?;
                self.expr_into(dst, t)?;
                let je = self.emit(Instr::Jmp { target: u32::MAX });
                let l_else = self.pc();
                self.patch(&to_else, l_else);
                self.expr_into(dst, f)?;
                let l_end = self.pc();
                self.patch(&[je], l_end);
            }
            LExprKind::Cast { ty, x } => {
                let (src, _) = self.operand(x, false)?;
                let ty = self.ty_slot(ty)?;
                self.emit(Instr::CastV { dst, src, ty, span: e.span });
            }
            LExprKind::Instanceof { x, ty } => {
                let (src, _) = self.operand(x, false)?;
                let ty = self.ty_slot(ty)?;
                self.emit(Instr::InstOf { dst, src, ty, span: e.span });
            }
            LExprKind::Call { callee, args, .. } => {
                self.compile_call(dst, callee, args, e.span)?;
            }
        }
        Ok(())
    }

    /// Compile a call: arguments first into a contiguous block, then the
    /// receiver (legacy order), then the call instruction — possibly
    /// guarded by an inline splice on the refine pass.
    fn compile_call(
        &mut self,
        dst: u16,
        callee: &LCallee,
        args: &[LExpr],
        span: Span,
    ) -> Result<(), Unsupported> {
        let (site_idx, site) = self.call_site()?;
        let n = idx16(args.len())?;
        let base = self.alloc_block(args.len())?;
        for (k, a) in args.iter().enumerate() {
            self.expr_into(base + k as u16, a)?;
        }
        match callee {
            LCallee::Recv(recv, name) => {
                let (r, _) = self.operand(recv, false)?;
                let generic =
                    Instr::CallRecv { dst, recv: r, base, n, name: *name, site: site_idx, span };
                if self.maybe_inline(dst, Some(r), base, args.len(), *name, &site, span, generic)? {
                    return Ok(());
                }
                self.emit(generic);
            }
            LCallee::Super(name) => {
                self.emit(Instr::CallSuper { dst, base, n, name: *name, site: site_idx, span });
            }
            LCallee::Implicit(name) => {
                let generic =
                    Instr::CallImplicit { dst, base, n, name: *name, site: site_idx, span };
                if self.maybe_inline(dst, None, base, args.len(), *name, &site, span, generic)? {
                    return Ok(());
                }
                self.emit(generic);
            }
        }
        Ok(())
    }

    /// On the refine pass, try to splice a monomorphic leaf callee inline
    /// behind a PIC-shape guard. Emits `GuardInline` + the remapped callee
    /// body + the generic call as the guard's fallback. Returns false
    /// (emitting nothing) when the site isn't eligible.
    #[allow(clippy::too_many_arguments)]
    fn maybe_inline(
        &mut self,
        dst: u16,
        recv: Option<u16>,
        base: u16,
        n_args: usize,
        name: Symbol,
        site: &Rc<PolySite>,
        span: Span,
        generic: Instr,
    ) -> Result<bool, Unsupported> {
        let Some(snap) = self
            .refine_epoch
            .and_then(|epoch| site.mono_snapshot(epoch))
        else {
            return Ok(false);
        };
        let callee = snap.lowered.bc.cold();
        if !inline_ok(callee, n_args) {
            return Ok(false);
        }
        let guard_idx = idx16(self.guards.len())?;
        self.guards.push(InlineGuard {
            epoch: snap.epoch,
            ck: snap.ck,
            keys: snap.keys.clone(),
            recv,
            base,
            site: Rc::clone(site),
            name,
            class: snap.class,
        });
        let gpc = self.emit(Instr::GuardInline { guard: guard_idx, fallback: u32::MAX });
        let m_idx = idx16(self.methods.len())?;
        self.methods.push((Rc::clone(&snap.target), snap.class));
        let ibase = self.alloc_block(callee.n_regs as usize)?;
        // Inlined frames are permanent register space: a loop around the
        // call site re-enters the splice, which must not collide with
        // temporaries of later statements.
        self.perm_base = self.perm_base.max(self.next_reg);
        let nullr = self.null_reg()?;
        self.emit(Instr::CallEnter { m: m_idx, span });
        for i in 0..callee.n_params {
            self.emit(Instr::Move { dst: ibase + i, src: base + i });
        }
        // Fresh-frame parity: callee non-param locals start at Null
        // (definite assignment is not guaranteed before declaration).
        for i in callee.n_params..callee.n_locals {
            self.emit(Instr::Move { dst: ibase + i, src: nullr });
        }
        // Index rebases for the callee's side tables.
        let fs_b = idx16(self.field_sites.len())?;
        let sp_b = idx16(self.span_pairs.len())?;
        let ty_b = idx16(self.tys.len())?;
        for _ in 0..callee.field_sites.len() {
            self.field_sites.push(FieldSite::new());
        }
        idx16(self.field_sites.len())?;
        self.span_pairs.extend(callee.span_pairs.iter().copied());
        idx16(self.span_pairs.len())?;
        for t in &callee.tys {
            self.tys.push(Rc::clone(t));
        }
        idx16(self.tys.len())?;
        // Callee constants re-enter the caller's const pool (sentinel
        // space): rebasing them by `ibase` would place preloaded registers
        // inside temp space, where an earlier statement's temporaries can
        // overwrite them before the splice runs.
        let mut cmap: HashMap<u16, u16> = HashMap::new();
        for &(r, ref v) in &callee.preloads {
            cmap.insert(r, self.const_reg(v)?);
        }
        let rb = |r: u16| cmap.get(&r).copied().unwrap_or(r + ibase);
        // pc map: Ret/RetNull expand to two instructions; newpos[len] is
        // the exit label (jump-to-end targets land there).
        let mut newpos = vec![0u32; callee.code.len() + 1];
        let mut pos = self.pc();
        for (i, ins) in callee.code.iter().enumerate() {
            newpos[i] = pos;
            pos += match ins {
                Instr::Ret { .. } | Instr::RetNull => 2,
                _ => 1,
            };
        }
        newpos[callee.code.len()] = pos;
        let lexit = pos;
        for ins in &callee.code {
            match *ins {
                Instr::LoadThis { dst: d, span } => match recv {
                    // The guard proved the receiver register holds an
                    // object of the expected class, so the callee's
                    // `this` is exactly that register — never absent.
                    Some(r) => {
                        self.emit(Instr::Move { dst: rb(d), src: r });
                    }
                    // An implicit call passes the caller's own `this`
                    // (none in a static frame, with the same error).
                    None => {
                        self.emit(Instr::LoadThis { dst: rb(d), span });
                    }
                },
                Instr::EnvLoad { dst: d, name, site, span } => {
                    self.emit(Instr::EnvLoadAt {
                        dst: rb(d),
                        guard: guard_idx,
                        name,
                        site: site + fs_b,
                        span,
                    });
                }
                Instr::Move { dst: d, src } => {
                    self.emit(Instr::Move { dst: rb(d), src: rb(src) });
                }
                Instr::Binary { op, dst: d, a, b, span } => {
                    self.emit(Instr::Binary {
                        op,
                        dst: rb(d),
                        a: rb(a),
                        b: rb(b),
                        span,
                    });
                }
                Instr::Unary { op, dst: d, src, span } => {
                    self.emit(Instr::Unary { op, dst: rb(d), src: rb(src), span });
                }
                Instr::IncDecVal { dst: d, src, delta, span } => {
                    self.emit(Instr::IncDecVal {
                        dst: rb(d),
                        src: rb(src),
                        delta,
                        span,
                    });
                }
                Instr::IncLocal { slot, delta, span } => {
                    self.emit(Instr::IncLocal { slot: rb(slot), delta, span });
                }
                Instr::Jmp { target } => {
                    self.emit(Instr::Jmp { target: newpos[target as usize] });
                }
                Instr::JmpIfFalse { src, target, span } => {
                    self.emit(Instr::JmpIfFalse {
                        src: rb(src),
                        target: newpos[target as usize],
                        span,
                    });
                }
                Instr::JmpIfTrue { src, target, span } => {
                    self.emit(Instr::JmpIfTrue {
                        src: rb(src),
                        target: newpos[target as usize],
                        span,
                    });
                }
                Instr::JmpIfCmp { op, a, b, when, target, span } => {
                    self.emit(Instr::JmpIfCmp {
                        op,
                        a: rb(a),
                        b: rb(b),
                        when,
                        target: newpos[target as usize],
                        span,
                    });
                }
                Instr::Step { span } => {
                    self.emit(Instr::Step { span });
                }
                Instr::Ret { src } => {
                    self.emit(Instr::Move { dst, src: rb(src) });
                    self.emit(Instr::Jmp { target: lexit });
                }
                Instr::RetNull => {
                    self.emit(Instr::Move { dst, src: nullr });
                    self.emit(Instr::Jmp { target: lexit });
                }
                Instr::RaiseBreak => {
                    self.emit(Instr::RaiseBreak);
                }
                Instr::RaiseContinue => {
                    self.emit(Instr::RaiseContinue);
                }
                Instr::Throw { src } => {
                    self.emit(Instr::Throw { src: rb(src) });
                }
                Instr::RaiseInvalidAssign { span } => {
                    self.emit(Instr::RaiseInvalidAssign { span });
                }
                Instr::ToInt { reg, span } => {
                    self.emit(Instr::ToInt { reg: rb(reg), span });
                }
                Instr::ArrGet { dst: d, arr, idx, spans } => {
                    self.emit(Instr::ArrGet {
                        dst: rb(d),
                        arr: rb(arr),
                        idx: rb(idx),
                        spans: spans + sp_b,
                    });
                }
                Instr::ArrSet { arr, idx, val, spans } => {
                    self.emit(Instr::ArrSet {
                        arr: rb(arr),
                        idx: rb(idx),
                        val: rb(val),
                        spans: spans + sp_b,
                    });
                }
                Instr::FieldGet { dst: d, obj, name, site, span } => {
                    self.emit(Instr::FieldGet {
                        dst: rb(d),
                        obj: rb(obj),
                        name,
                        site: site + fs_b,
                        span,
                    });
                }
                Instr::FieldSet { obj, val, name, span } => {
                    self.emit(Instr::FieldSet {
                        obj: rb(obj),
                        val: rb(val),
                        name,
                        span,
                    });
                }
                Instr::DefaultVal { dst: d, dims } => {
                    self.emit(Instr::DefaultVal { dst: rb(d), dims });
                }
                Instr::TyDecl { ty, span } => {
                    self.emit(Instr::TyDecl { ty: ty + ty_b, span });
                }
                Instr::TyPop => {
                    self.emit(Instr::TyPop);
                }
                _ => unreachable!("instruction rejected by inline_ok"),
            }
        }
        debug_assert_eq!(self.pc(), lexit);
        self.emit(Instr::CallExit);
        let je = self.emit(Instr::Jmp { target: u32::MAX });
        let fallback = self.pc();
        self.patch(&[gpc], fallback);
        self.emit(generic);
        let done = self.pc();
        self.patch(&[je], done);
        for (pc, v) in &callee.pairs {
            self.pairs
                .entry(newpos[*pc as usize])
                .or_default()
                .extend(v.iter().copied());
        }
        for pc in &callee.super_pcs {
            self.super_pcs.push(newpos[*pc as usize]);
        }
        for r in &callee.regions {
            self.regions.push(Region {
                start: newpos[r.start as usize],
                end: newpos[r.end as usize],
                brk: newpos[r.brk as usize],
                cont: newpos[r.cont as usize],
                ty_depth: r.ty_depth + self.ty_depth,
                inline_depth: r.inline_depth + 1,
            });
        }
        self.inlined.push((gpc, lexit, m_idx));
        Ok(true)
    }
}

/// Compile a lowered body (`code` over `n_slots` frame slots, the first
/// `n_params` of them arguments) to bytecode. `old_sites` seeds call-site
/// reuse in emission order (the refine pass keeps the cold pass's warmed
/// PIC lines); `refine_epoch` enables leaf-callee splicing at the sites
/// whose lines were filled under that epoch.
pub(crate) fn compile(
    code: &[LStmt],
    n_params: usize,
    n_slots: usize,
    old_sites: &[Rc<PolySite>],
    refine_epoch: Option<u64>,
) -> Result<BcBody, Unsupported> {
    let n_slots = idx16(n_slots)?;
    let n_params = idx16(n_params)?;
    let mut e = Emit {
        code: Vec::new(),
        n_slots,
        next_reg: u32::from(n_slots),
        perm_base: u32::from(n_slots),
        high_water: u32::from(n_slots),
        preloads: Vec::new(),
        c_true: None,
        c_false: None,
        c_null: None,
        field_sites: Vec::new(),
        sites: Vec::new(),
        site_counter: 0,
        old_sites,
        tys: Vec::new(),
        span_pairs: Vec::new(),
        loops: Vec::new(),
        regions: Vec::new(),
        pairs: HashMap::new(),
        super_pcs: Vec::new(),
        ty_depth: 0,
        refine_epoch,
        methods: Vec::new(),
        guards: Vec::new(),
        inlined: Vec::new(),
    };
    for s in code {
        e.stmt(s)?;
    }
    e.emit(Instr::RetNull);
    // Final register layout: [locals | temps | consts].  Constants were
    // emitted in the sentinel space (`CONST_BASE + k`, see `alloc_const`);
    // now that the temp high-water mark is known, land them above it.
    let n_temps = idx16(e.high_water as usize)?;
    let n_consts = idx16(e.preloads.len())?;
    if usize::from(n_temps) + usize::from(n_consts) > usize::from(CONST_BASE) {
        return Err(Unsupported);
    }
    let remap = |r: u16| {
        if r >= CONST_BASE {
            n_temps + (r - CONST_BASE)
        } else {
            r
        }
    };
    let mut code = e.code;
    for ins in &mut code {
        map_regs(ins, remap);
    }
    let preloads: Vec<(u16, Value)> =
        e.preloads.into_iter().map(|(r, v)| (remap(r), v)).collect();
    let mut guards = e.guards;
    for g in &mut guards {
        g.recv = g.recv.map(remap);
        g.base = remap(g.base);
    }
    Ok(BcBody {
        n_params,
        n_locals: n_slots,
        n_regs: n_temps + n_consts,
        code,
        preloads,
        field_sites: e.field_sites,
        sites: e.sites,
        tys: e.tys,
        span_pairs: e.span_pairs,
        methods: e.methods,
        guards,
        regions: e.regions,
        pairs: e.pairs,
        super_pcs: e.super_pcs,
        inlined: e.inlined,
    })
}

// ---- disassembler ------------------------------------------------------------

/// Renders `bc` for `mayac --dump-bytecode`: one line per instruction with
/// registers (`r<n>`), jump targets (`@<pc>`), superinstruction markers,
/// inline-splice extents, and current PIC shapes.
pub(crate) fn disasm(bc: &BcBody, ct: &ClassTable) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "params={} locals={} regs={} consts={} sites={} super={}",
        bc.n_params,
        bc.n_locals,
        bc.n_regs,
        bc.preloads.len(),
        bc.sites.len(),
        bc.super_pcs.len(),
    );
    for &(guard_pc, exit_pc, m) in &bc.inlined {
        let (mi, c) = &bc.methods[m as usize];
        let cname = ct.info(*c).borrow().fqcn;
        let _ = writeln!(
            out,
            "inline @{guard_pc}..@{exit_pc}: {cname}.{}/{}",
            mi.name,
            mi.params.len()
        );
    }
    for (pc, ins) in bc.code.iter().enumerate() {
        let body = match *ins {
            Instr::Move { dst, src } => format!("r{dst}, r{src}"),
            Instr::LoadThis { dst, .. } => format!("r{dst}"),
            Instr::EnvLoad { dst, name, site, .. } => format!("r{dst}, {name} [fs{site}]"),
            Instr::EnvLoadAt { dst, guard, name, site, .. } => {
                let g = &bc.guards[guard as usize];
                let this = g.recv.map_or("this".to_owned(), |r| format!("r{r}"));
                let cname = ct.info(g.class).borrow().fqcn;
                format!("r{dst}, {name} of {this} in {cname} [fs{site}]")
            }
            Instr::EnvStore { src, name, .. } => format!("{name}, r{src}"),
            Instr::ClassRef { dst, fqcn, .. } => format!("r{dst}, {fqcn}"),
            Instr::FieldGet { dst, obj, name, site, .. } => {
                format!("r{dst}, r{obj}.{name} [fs{site}]")
            }
            Instr::FieldSet { obj, val, name, .. } => format!("r{obj}.{name}, r{val}"),
            Instr::ArrGet { dst, arr, idx, .. } => format!("r{dst}, r{arr}[r{idx}]"),
            Instr::ArrSet { arr, idx, val, .. } => format!("r{arr}[r{idx}], r{val}"),
            Instr::NewClass { ty, .. } => format!("ty{ty}"),
            Instr::NewFinish { dst, base, n, .. } => format!("r{dst}, r{base}..+{n}"),
            Instr::TyElem { ty, extra_dims, .. } => format!("ty{ty}, dims+{extra_dims}"),
            Instr::NewArrayFinish { dst, base, n, .. } => format!("r{dst}, r{base}..+{n}"),
            Instr::ToInt { reg, .. } => format!("r{reg}"),
            Instr::TyDecl { ty, .. } => format!("ty{ty}"),
            Instr::DefaultVal { dst, dims } => format!("r{dst}, dims+{dims}"),
            Instr::TyPop => String::new(),
            Instr::Binary { op, dst, a, b, .. } => {
                format!("r{dst}, r{a} {} r{b}", op.as_str())
            }
            Instr::Unary { op, dst, src, .. } => format!("r{dst}, {} r{src}", op.as_str()),
            Instr::IncDecVal { dst, src, delta, .. } => format!("r{dst}, r{src}{delta:+}"),
            Instr::IncLocal { slot, delta, .. } => format!("r{slot}{delta:+}"),
            Instr::CastV { dst, src, ty, .. } => format!("r{dst}, r{src} as ty{ty}"),
            Instr::InstOf { dst, src, ty, .. } => format!("r{dst}, r{src} is ty{ty}"),
            Instr::Jmp { target } => format!("@{target}"),
            Instr::JmpIfFalse { src, target, .. } => format!("r{src}, @{target}"),
            Instr::JmpIfTrue { src, target, .. } => format!("r{src}, @{target}"),
            Instr::JmpIfCmp { op, a, b, when, target, .. } => {
                format!("r{a} {} r{b} =={when}, @{target}", op.as_str())
            }
            Instr::Step { .. } => String::new(),
            Instr::Ret { src } => format!("r{src}"),
            Instr::RetNull | Instr::RaiseBreak | Instr::RaiseContinue | Instr::CallExit => {
                String::new()
            }
            Instr::Throw { src } => format!("r{src}"),
            Instr::RaiseInvalidAssign { .. } => String::new(),
            Instr::CallRecv { dst, recv, base, n, name, site, .. } => {
                format!(
                    "r{dst}, r{recv}.{name}(r{base}..+{n}) [pic{site}: {}]",
                    bc.sites[site as usize].describe(ct)
                )
            }
            Instr::CallSuper { dst, base, n, name, site, .. } => {
                format!(
                    "r{dst}, super.{name}(r{base}..+{n}) [pic{site}: {}]",
                    bc.sites[site as usize].describe(ct)
                )
            }
            Instr::CallImplicit { dst, base, n, name, site, .. } => {
                format!(
                    "r{dst}, {name}(r{base}..+{n}) [pic{site}: {}]",
                    bc.sites[site as usize].describe(ct)
                )
            }
            Instr::GuardInline { guard, fallback } => {
                let g = &bc.guards[guard as usize];
                let cname = ct.info(g.class).borrow().fqcn;
                format!("g{guard} ({cname}.{}), else @{fallback}", g.name)
            }
            Instr::CallEnter { m, .. } => {
                let (mi, c) = &bc.methods[m as usize];
                let cname = ct.info(*c).borrow().fqcn;
                format!("{cname}.{}/{}", mi.name, mi.params.len())
            }
        };
        let sup = if bc.super_pcs.contains(&(pc as u32)) { " ; super" } else { "" };
        let _ = writeln!(out, "  {pc:4}  {:<18} {body}{sup}", ins.mnemonic());
    }
    out
}
