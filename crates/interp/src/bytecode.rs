//! Flat register bytecode: the fast execution tier.
//!
//! [`compile`] turns a typed body straight into a `BcBody` — a dense
//! `Vec<Instr>` over a flat register file (locals, per-statement
//! temporaries, and preloaded constants) — after the pre-pass in
//! `lower.rs` has sized the frame and folded constants. The match-dispatch
//! loop in `vm.rs` executes it. A body the compiler declines is
//! unlowerable and runs on the reference tree walker in `interp.rs`. The
//! compiler preserves the walker's observable semantics exactly — step
//! counts, error strings, error spans, evaluation order — so both tiers
//! stay byte-identical over the corpus. Bytecode never leaves the process:
//! the VM runs only what [`compile`] and [`refine`] produced, so its
//! register, site and jump operands are in bounds by construction.
//!
//! Highlights:
//! - no `Const` instruction: constants are preloaded into dedicated
//!   registers once per frame entry (`BcBody::preloads`);
//! - superinstructions: fused compare+branch (`JmpIfCmp`), local
//!   increment (`IncLocal`), and store-fused binary ops (dst = local slot);
//! - one `Step` per straight run of statements (see [`merge_steps`]),
//!   which charges the run's statements at once and fails at the limit
//!   exactly where one step per statement would;
//! - polymorphic inline caches (`PolySite`, 2–4 entries keyed by receiver
//!   class + exact argument keys, MRU-front);
//! - after `REFINE_EXECS` runs, [`refine`] copies the cold code and splices
//!   the hot call graph into it: each entry of a call's inline cache line
//!   as one member of a chain of `GuardInline` checks, copying the
//!   callee's refined copy (≤ `INLINE_MAX` instrs) with its own splices
//!   nested, into a frame that reads its arguments where the caller holds
//!   them; a run of the cold code that takes `OSR_BACKEDGES` loop
//!   back-edges refines the body early and switches to the copy in place
//!   (on-stack replacement, through `refine`'s cold→copy pc map);
//! - `Break`/`Continue` surfacing from calls inside loop bodies are routed
//!   through a static region table (`Region`) instead of unwinding.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use maya_ast::{
    BinOp, Block, Expr, ExprKind, ForInit, IncDecOp, LocalDeclarator, MethodName, PrimKind, Stmt,
    StmtKind, TypeName, TypeNameKind, UnOp,
};
use maya_lexer::{Span, Symbol};
use maya_telemetry::{self as telemetry, Counter};
use maya_types::{ClassId, ClassTable, MethodInfo};

use crate::lower::{
    is_place, lit_value, name_of, operands, Fold, LoweredBody, Shape, TypeSlot, Unlowerable,
};
use crate::value::Value;
use crate::widen;

/// Max entries in a polymorphic inline cache line.
pub(crate) const PIC_CAP: usize = 4;
/// Executions of the cold-compiled body before the refine (inlining) pass.
pub(crate) const REFINE_EXECS: u32 = 3;
/// Max callee instruction count eligible for inline splicing.
pub(crate) const INLINE_MAX: usize = 24;
/// Backward jumps one run of a body's cold bytecode takes before it
/// refines the body on-stack and switches to the copy. A body that runs
/// once, like a `main`, never reaches `REFINE_EXECS`, so without this its
/// loops would make a real call per iteration for their whole run. The
/// count is high enough that a loop's call sites have settled (a site
/// still filling splices nothing, or a receiver the loop stops using) and
/// that short loops, which would not repay the refine, never switch (a
/// loop of 10 iterations splices only through the regular refine), and
/// low enough that a loop of a few hundred iterations spends most of
/// them spliced.
pub(crate) const OSR_BACKEDGES: u32 = 64;

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
    /// `out`, here and on `FieldSet` and `ArrSet`: the register that takes
    /// the value as stored, converted to the place's type, which is the
    /// value of an assignment, a compound assignment or a prefix `++`/`--`
    /// (JLS §15.26, §15.15.1): the expression's destination, never the
    /// stored register, which may be a local or a constant.
    EnvStore { src: u16, name: Symbol, out: Option<u16>, span: Span },
    ClassRef { dst: u16, fqcn: Symbol, span: Span },
    FieldGet { dst: u16, obj: u16, name: Symbol, site: u16, span: Span },
    FieldSet { obj: u16, val: u16, name: Symbol, out: Option<u16>, span: Span },
    /// `spans` indexes `BcBody::span_pairs` -> (expr span, index span).
    ArrGet { dst: u16, arr: u16, idx: u16, spans: u16 },
    ArrSet { arr: u16, idx: u16, val: u16, spans: u16, out: Option<u16> },
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
    /// `to`: a compound assignment's local of that declared type, which
    /// a result in a wider representation converts back to (JLS
    /// §15.26.2); only operands other than two `int`s can make one, so
    /// only the general path reads it. `None` for any other binary.
    Binary { op: BinOp, dst: u16, a: u16, b: u16, to: Option<PrimKind>, span: Span },
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
    /// `n` interpreter steps, one per lowered statement: the statement
    /// the step starts, then the `n - 1` that follow it in a straight run
    /// (see [`merge_steps`]). Their spans are `BcBody::step_spans[at..at +
    /// n]`.
    Step { n: u16, at: u16 },
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
    /// Inline-splice guard, the first of a call's chain: enter the spliced
    /// callee frame (depth guard, call counter, profiler) of the first
    /// member whose PIC entry still matches the call, and run on at it;
    /// with none, continue at the generic path. `fallback` is where this
    /// member's failure leads: the next member's guard, or the generic
    /// path.
    GuardInline { guard: u16, fallback: u32 },
    /// Leave a spliced callee frame and continue at `next`, the
    /// instruction after the call's generic fallback.
    CallExit { next: u32 },
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
            Instr::CallExit { .. } => "call_exit",
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
#[derive(Clone)]
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

/// Guard metadata for one inline splice: one member of a call's chain.
#[derive(Clone)]
pub(crate) struct InlineGuard {
    pub epoch: u64,
    pub ck: u64,
    pub keys: Box<[ArgKey]>,
    /// Receiver register; None = an implicit call, whose callee shares the
    /// caller's `this` (and, in a static frame, dispatches on the frame's
    /// class).
    pub recv: Option<u16>,
    /// The register of each argument: its slot in the call's argument
    /// block, or the local or constant the refine pass reads it from in
    /// place (see [`moved_args`]).
    pub args: Box<[u16]>,
    pub site: Rc<PolySite>,
    pub name: Symbol,
    /// The class the callee frame runs under: the receiver's class, or the
    /// frame's class at a static implicit call site.
    pub class: ClassId,
    /// The spliced method (an index into `BcBody::methods`) and the call's
    /// span, for the frame entry a passing guard makes.
    pub m: u16,
    pub span: Span,
}

/// A compiled body.
#[derive(Default)]
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
    /// The span of each statement, in the order their steps were emitted;
    /// a `Step` indexes its run of them.
    pub step_spans: Vec<Span>,
    /// Inlined callee methods: (method, defining class).
    pub methods: Vec<(Rc<MethodInfo>, ClassId)>,
    pub guards: Vec<InlineGuard>,
    pub regions: Vec<Region>,
    /// pc -> hot binary-op pair labels (profiler parity with the reference
    /// walker's `eval_binary`, keyed on the source operands). A
    /// subexpression that folds whole, such as `(1 + 2) * 3`, runs no
    /// instruction and so records no pair, where the walker records one.
    pub pairs: HashMap<u32, Vec<(&'static str, &'static str)>>,
    /// pcs of superinstructions (for telemetry + disasm annotation).
    pub super_pcs: Vec<u32>,
    /// (guard pc, `call_exit` pc, method index) per inline splice, nested
    /// ones included (for disasm).
    pub inlined: Vec<(u32, u32, u16)>,
    /// Made by an on-stack switch rather than after `REFINE_EXECS` runs.
    pub on_stack: bool,
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

// ---- compiler ----------------------------------------------------------------

/// Pending break/continue jump fixups for the innermost loop being compiled.
#[derive(Default)]
struct LoopCtx {
    break_fixups: Vec<u32>,
    continue_fixups: Vec<u32>,
}

/// An expression as lowering sees it before any code is emitted for it.
/// `e` is the node it lowers to — a `?:` with a constant condition lowers
/// to the branch it picks — and the lowered form carries `e`'s span.
struct Low<'a> {
    e: &'a Expr,
    kind: LowKind,
}

enum LowKind {
    /// A literal or folded constant: no code.
    Const(Value),
    /// A statically resolved local or parameter slot: no code.
    Local(u16),
    /// A name with no static binding: implicit-`this` field, static field,
    /// or class reference — resolved by the environment walk.
    Env(Symbol),
    /// Anything else: the code of `e` itself.
    Code,
}

/// A resolved assignment target.
enum Place<'a> {
    Local(u16),
    Env(Symbol, Span),
    Field(&'a Expr, Symbol, Span),
    Array(&'a Expr, &'a Expr, Span),
    /// The walker reports "invalid assignment target" at run time.
    Invalid(Span),
}

/// Single-pass bytecode emitter over a body's typed AST.
///
/// Register file layout: `[0, n_locals)` are the frame slots (params, then
/// one per local declarator in declaration order); above that live
/// per-statement temporaries (released at each statement boundary by
/// resetting `next_reg`), and above every temporary the preloaded
/// constants (see [`CONST_BASE`]).
struct Emit<'a> {
    shape: &'a Shape,
    /// The body being emitted.
    bc: BcBody,
    /// Lexical scopes of (name → slot), flattened: innermost last, each
    /// open scope starting at its entry in `scope_marks`. Parameters live in
    /// the outermost scope, like the walker frame's starting scope.
    names: Vec<(Symbol, u16)>,
    /// Each slot's declared primitive type, if it has one.
    slot_prims: Vec<Option<PrimKind>>,
    /// The body's declared primitive return type, if it has one.
    ret: Option<PrimKind>,
    scope_marks: Vec<usize>,
    /// Next slot to declare; slots are never reused, so a frame is one flat
    /// register range.
    next_slot: u16,
    slots_resolved: u64,
    consts_folded: u64,
    /// Next free register (temporaries).
    next_reg: u32,
    /// High-water mark of temporaries: constants land above it.
    high_water: u32,
    /// The constant registers of `true`, `false` and `null`, which every
    /// use shares.
    shared_consts: [Option<u16>; 3],
    loops: Vec<LoopCtx>,
    /// Current static ty-stack depth (for region capture).
    ty_depth: u16,
    /// The pcs of the binaries that cannot fail (see [`Emit::binary`]),
    /// in order.
    pure: Vec<u32>,
}

fn idx16(n: usize) -> Result<u16, Unlowerable> {
    u16::try_from(n).map_err(|_| Unlowerable)
}

/// Appends `x` to a side table; its index is the instruction operand.
fn push_index<T>(table: &mut Vec<T>, x: T) -> Result<u16, Unlowerable> {
    let i = idx16(table.len())?;
    table.push(x);
    Ok(i)
}

/// The pc `ins` may transfer control to: a jump's target, a guard's
/// fallback, a splice exit's continuation.
fn target_mut(ins: &mut Instr) -> Option<&mut u32> {
    match ins {
        Instr::Jmp { target }
        | Instr::JmpIfFalse { target, .. }
        | Instr::JmpIfTrue { target, .. }
        | Instr::JmpIfCmp { target, .. }
        | Instr::GuardInline { fallback: target, .. }
        | Instr::CallExit { next: target } => Some(target),
        _ => None,
    }
}

/// [`target_mut`] read-only.
fn target(mut ins: Instr) -> Option<u32> {
    target_mut(&mut ins).copied()
}

/// The pcs control reaches other than from the instruction before: the
/// targets of jumps, guard fallbacks and splice exits, and every bound of
/// a loop region (a routed `break` or `continue` lands on one).
fn labels(bc: &BcBody) -> Vec<bool> {
    let mut at = vec![false; bc.code.len() + 1];
    let bounds = bc.regions.iter().flat_map(|r| [r.start, r.end, r.brk, r.cont]);
    for pc in bc.code.iter().filter_map(|&i| target(i)).chain(bounds) {
        at[pc as usize] = true;
    }
    at
}

/// Points the jumps at `pcs` to `to`.
fn patch(code: &mut [Instr], pcs: &[u32], to: u32) {
    for &pc in pcs {
        *target_mut(&mut code[pc as usize]).expect("patch target is a jump") = to;
    }
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
        Instr::JmpIfFalse { src, .. }
        | Instr::JmpIfTrue { src, .. }
        | Instr::Ret { src }
        | Instr::Throw { src } => *src = f(*src),
        Instr::EnvStore { src, out, .. } => {
            *src = f(*src);
            *out = out.map(&f);
        }
        Instr::FieldGet { dst, obj, .. } => {
            *dst = f(*dst);
            *obj = f(*obj);
        }
        Instr::FieldSet { obj, val, out, .. } => {
            *obj = f(*obj);
            *val = f(*val);
            *out = out.map(&f);
        }
        Instr::ArrGet { dst, arr, idx, .. } => {
            *dst = f(*dst);
            *arr = f(*arr);
            *idx = f(*idx);
        }
        Instr::ArrSet { arr, idx, val, out, .. } => {
            *arr = f(*arr);
            *idx = f(*idx);
            *val = f(*val);
            *out = out.map(&f);
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
        | Instr::CallExit { .. } => {}
    }
}

/// The register `ins` writes as its result without reading it there: the
/// `dst` of a computation, or the `out` of a store. `None` for an
/// instruction that writes no register or updates one in place.
fn result_reg(ins: &mut Instr) -> Option<&mut u16> {
    match ins {
        Instr::Move { dst, .. }
        | Instr::LoadThis { dst, .. }
        | Instr::EnvLoad { dst, .. }
        | Instr::EnvLoadAt { dst, .. }
        | Instr::ClassRef { dst, .. }
        | Instr::FieldGet { dst, .. }
        | Instr::ArrGet { dst, .. }
        | Instr::NewFinish { dst, .. }
        | Instr::NewArrayFinish { dst, .. }
        | Instr::DefaultVal { dst, .. }
        | Instr::Binary { dst, .. }
        | Instr::Unary { dst, .. }
        | Instr::IncDecVal { dst, .. }
        | Instr::CastV { dst, .. }
        | Instr::InstOf { dst, .. }
        | Instr::CallRecv { dst, .. }
        | Instr::CallSuper { dst, .. }
        | Instr::CallImplicit { dst, .. } => Some(dst),
        Instr::EnvStore { out, .. } | Instr::FieldSet { out, .. } | Instr::ArrSet { out, .. } => {
            out.as_mut()
        }
        Instr::ToInt { .. }
        | Instr::IncLocal { .. }
        | Instr::NewClass { .. }
        | Instr::TyElem { .. }
        | Instr::TyDecl { .. }
        | Instr::TyPop
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
        | Instr::GuardInline { .. }
        | Instr::CallExit { .. } => None,
    }
}

/// The register `ins` writes, if any.
fn written_reg(ins: &Instr) -> Option<u16> {
    match *ins {
        Instr::ToInt { reg, .. } | Instr::IncLocal { slot: reg, .. } => Some(reg),
        mut other => result_reg(&mut other).copied(),
    }
}

/// True iff `op` on operands of the primitive types `a` and `b` always
/// yields a value (see `Interp::binary_values`): `/` and `%` throw on an
/// integer zero, the bitwise and shift operators are undefined on
/// floating values, and arithmetic and ordering on booleans.
fn infallible_op(op: BinOp, a: PrimKind, b: PrimKind) -> bool {
    use BinOp::*;
    let boolean = |p| p == PrimKind::Boolean;
    let floating = |p| matches!(p, PrimKind::Float | PrimKind::Double);
    match op {
        Div | Rem | And | Or => false,
        Eq | Ne => true,
        BitAnd | BitOr | BitXor => boolean(a) == boolean(b) && !floating(a) && !floating(b),
        Shl | Shr | Ushr => ![a, b].into_iter().any(|p| boolean(p) || floating(p)),
        Add | Sub | Mul | Lt | Gt | Le | Ge => !boolean(a) && !boolean(b),
    }
}

impl<'a> Emit<'a> {
    fn pc(&self) -> u32 {
        self.bc.pc()
    }

    fn emit(&mut self, i: Instr) -> u32 {
        self.bc.push(i)
    }

    fn patch(&mut self, pcs: &[u32], to: u32) {
        patch(&mut self.bc.code, pcs, to);
    }

    /// A statement's step, with its span in the step table.
    fn step(&mut self, span: Span) -> Result<(), Unlowerable> {
        let at = push_index(&mut self.bc.step_spans, span)?;
        self.emit(Instr::Step { n: 1, at });
        Ok(())
    }

    /// Emits `dst = a op b`, the binary of the source operands `l` and
    /// `r`, and notes it as pure when it can neither fail nor run user
    /// code: both operands are statically primitive (a `String` `+` may
    /// call a `toString`) and `op` is defined on their types without
    /// throwing (see [`infallible_op`]).
    fn binary(
        &mut self,
        op: BinOp,
        dst: u16,
        (a, l): (u16, &Expr),
        (b, r): (u16, &Expr),
        to: Option<PrimKind>,
        span: Span,
    ) -> u32 {
        let pc = self.emit(Instr::Binary { op, dst, a, b, to, span });
        if let (Some(x), Some(y)) = (self.static_prim(l), self.static_prim(r)) {
            if infallible_op(op, x, y) {
                self.pure.push(pc);
            }
        }
        pc
    }

    /// A contiguous block of `n` temporaries (call/ctor/array-dim arguments).
    fn alloc_block(&mut self, n: usize) -> Result<u16, Unlowerable> {
        let r = self.next_reg;
        let end = r as usize + n;
        if end >= usize::from(CONST_BASE) {
            return Err(Unlowerable);
        }
        self.next_reg = end as u32;
        self.high_water = self.high_water.max(self.next_reg);
        Ok(r as u16)
    }

    fn alloc_temp(&mut self) -> Result<u16, Unlowerable> {
        self.alloc_block(1)
    }

    /// A constant register preloaded with `v` at frame entry.  Allocated
    /// in the sentinel space (see [`CONST_BASE`]) and remapped above the
    /// temp high-water mark when compilation finishes.
    fn alloc_const(&mut self, v: Value) -> Result<u16, Unlowerable> {
        let k = self.bc.preloads.len();
        if k >= usize::from(u16::MAX - CONST_BASE) {
            return Err(Unlowerable);
        }
        let r = CONST_BASE + k as u16;
        self.bc.preloads.push((r, v));
        Ok(r)
    }

    /// Constant register for `v`; `true`/`false`/`null` are deduplicated.
    fn const_reg(&mut self, v: Value) -> Result<u16, Unlowerable> {
        let k = match v {
            Value::Bool(true) => 0,
            Value::Bool(false) => 1,
            Value::Null => 2,
            other => return self.alloc_const(other),
        };
        if let Some(r) = self.shared_consts[k] {
            return Ok(r);
        }
        let r = self.alloc_const(v)?;
        self.shared_consts[k] = Some(r);
        Ok(r)
    }

    fn ty_slot(&mut self, tn: &TypeName) -> Result<u16, Unlowerable> {
        push_index(&mut self.bc.tys, TypeSlot::new(tn.clone()))
    }

    /// Hot-pair labels for the binary `l op r` at `pc`, keyed on the source
    /// operands as the walker's `eval_binary` keys them: an operand that
    /// folded to a constant still counts as the nested operator it was.
    fn attach_pairs(&mut self, pc: u32, op: BinOp, l: &Expr, r: &Expr) {
        for x in [l, r] {
            if let ExprKind::Binary(inner, ..) = &x.kind {
                let pairs = self.bc.pairs.entry(pc).or_default();
                pairs.push((op.as_str(), inner.as_str()));
            }
        }
    }

    // ---- scopes and the lowered view -----------------------------------------

    fn push_scope(&mut self) {
        self.scope_marks.push(self.names.len());
    }

    fn pop_scope(&mut self) {
        let mark = self.scope_marks.pop().expect("an open scope");
        self.names.truncate(mark);
    }

    /// Binds `name` to the next slot in the innermost scope.  A
    /// redeclaration in the same scope gets a new slot; later references
    /// resolve to it, which observes identically to the walker's map
    /// overwrite.
    fn declare(&mut self, name: Symbol, prim: Option<PrimKind>) {
        self.names.push((name, self.next_slot));
        self.slot_prims.push(prim);
        self.next_slot += 1;
    }

    /// The primitive static type of `e` (see [`widen::static_prim`]).
    fn static_prim(&self, e: &Expr) -> Option<PrimKind> {
        let local = |name| self.lookup(name).map(|slot| self.slot_prims[slot as usize]);
        widen::static_prim(e, &local)
    }

    /// Converts register `reg`, holding `value`, to the declared primitive
    /// `to` when their static types call for it.
    fn widen(&mut self, reg: u16, value: &Expr, to: Option<PrimKind>) -> Result<(), Unlowerable> {
        let Some(to) = to else { return Ok(()) };
        if self
            .static_prim(value)
            .is_some_and(|from| widen::converts(from, to))
        {
            let ty = self.ty_slot(&TypeName::prim(to))?;
            self.emit(Instr::CastV {
                dst: reg,
                src: reg,
                ty,
                span: value.span,
            });
        }
        Ok(())
    }

    /// The slot `name` is bound to, innermost binding first.
    fn lookup(&self, name: Symbol) -> Option<u16> {
        let found = self.names.iter().rev().find(|(n, _)| *n == name);
        found.map(|&(_, slot)| slot)
    }

    /// [`Emit::lookup`], counted as a slot resolution when bound.
    fn resolve(&mut self, name: Symbol) -> Option<u16> {
        let slot = self.lookup(name);
        self.slots_resolved += u64::from(slot.is_some());
        slot
    }

    /// Lowers `e` one level without emitting anything.  Called once for
    /// each evaluation of `e` the code performs (a compound assignment's
    /// place is evaluated twice), which is what the `slots_resolved` and
    /// `consts_folded` counters count.
    fn view(&mut self, e: &'a Expr) -> Low<'a> {
        let shape = self.shape;
        let kind = match (&e.kind, shape.fold(e)) {
            (ExprKind::Literal(l), _) => LowKind::Const(lit_value(l)),
            (ExprKind::Cond(c, t, f), Some(Fold::Pick(then))) => {
                self.consts_folded += 1;
                let (live, dead) = if *then { (t, f) } else { (f, t) };
                self.count_folded(c);
                self.count_folded(dead);
                return self.view(live);
            }
            (_, Some(Fold::Const(v))) => {
                self.count_folded(e);
                LowKind::Const(v.clone())
            }
            _ => match name_of(e) {
                Some(name) => match self.resolve(name) {
                    Some(slot) => LowKind::Local(slot),
                    None => LowKind::Env(name),
                },
                None => LowKind::Code,
            },
        };
        Low { e, kind }
    }

    /// Counts the slot resolutions and folds in a subtree that folding
    /// removed, as if it were lowered: the counters describe the source,
    /// whatever a fold discarded.  Counting a place that is stored to is
    /// counting it as read.
    fn count_folded(&mut self, e: &Expr) {
        self.consts_folded += u64::from(self.shape.fold(e).is_some());
        if let Some(name) = name_of(e) {
            self.resolve(name);
        }
        for (x, store) in operands(e) {
            if !store || is_place(x) {
                self.count_folded(x);
            }
        }
    }

    /// Resolves an assignment target; its operands are lowered when the
    /// store evaluates them.
    fn place(&mut self, e: &'a Expr) -> Place<'a> {
        match &e.kind {
            ExprKind::FieldAccess(x, name) => Place::Field(x, name.sym, e.span),
            ExprKind::ArrayAccess(a, i) => Place::Array(a, i, e.span),
            _ => match name_of(e) {
                Some(name) => match self.resolve(name) {
                    Some(slot) => Place::Local(slot),
                    None => Place::Env(name, e.span),
                },
                None => Place::Invalid(e.span),
            },
        }
    }

    /// True iff evaluating `e` can write a local slot (an assignment or
    /// `++`/`--` of one anywhere inside).  Calls cannot write caller
    /// locals, and folded subtrees run no code.
    fn writes_locals(&self, e: &Expr) -> bool {
        match (self.shape.fold(e), &e.kind) {
            (Some(Fold::Const(_)), _) => false,
            (Some(Fold::Pick(then)), ExprKind::Cond(_, t, f)) => {
                self.writes_locals(if *then { t } else { f })
            }
            _ => operands(e).any(|(x, store)| {
                if store {
                    self.store_writes(x)
                } else {
                    self.writes_locals(x)
                }
            }),
        }
    }

    /// True iff a store to target `e` — its operands, then the store
    /// itself — can write a local slot.
    fn store_writes(&self, e: &Expr) -> bool {
        match name_of(e) {
            Some(name) => self.lookup(name).is_some(),
            None => is_place(e) && self.writes_locals(e),
        }
    }

    // ---- statements ----------------------------------------------------------

    fn block(&mut self, stmts: &'a [Stmt]) -> Result<(), Unlowerable> {
        self.push_scope();
        for s in stmts {
            self.stmt(s)?;
        }
        self.pop_scope();
        Ok(())
    }

    /// Closes the innermost loop: its `break`s jump to `brk`, its
    /// `continue`s to `cont`, and its body `start..end` becomes a region
    /// that routes the ones raised by calls the same way.
    fn end_loop(&mut self, start: u32, end: u32, brk: u32, cont: u32) {
        let ctx = self.loops.pop().expect("loop ctx");
        self.patch(&ctx.break_fixups, brk);
        self.patch(&ctx.continue_fixups, cont);
        let ty_depth = self.ty_depth;
        let r = Region { start, end, brk, cont, ty_depth, inline_depth: 0 };
        self.bc.regions.push(r);
    }

    fn stmt(&mut self, s: &'a Stmt) -> Result<(), Unlowerable> {
        let mark = self.next_reg;
        self.step(s.span)?;
        match &s.kind {
            // Imports are compile-time; at runtime `use` is just a scope.
            StmtKind::Block(b) | StmtKind::Use(_, b) => self.block(&b.stmts)?,
            StmtKind::Expr(e) => self.discard_expr(e)?,
            StmtKind::Decl(tn, decls) => self.decl(s.span, tn, decls)?,
            StmtKind::If(c, t, e) => {
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
            StmtKind::While(c, body) => {
                let l_cond = self.pc();
                let to_exit = self.branch(c, false)?;
                let l_body = self.pc();
                self.loops.push(LoopCtx::default());
                self.stmt(body)?;
                let back = self.emit(Instr::Jmp { target: l_cond });
                let l_end = self.pc();
                self.patch(&to_exit, l_end);
                self.end_loop(l_body, back, l_end, l_cond);
            }
            StmtKind::Do(body, c) => {
                let l_body = self.pc();
                self.loops.push(LoopCtx::default());
                self.stmt(body)?;
                let l_cond = self.pc();
                let back = self.branch(c, true)?;
                self.patch(&back, l_body);
                let l_end = self.pc();
                self.end_loop(l_body, l_cond, l_end, l_cond);
            }
            StmtKind::For {
                init,
                cond,
                update,
                body,
            } => {
                self.push_scope();
                match init {
                    ForInit::None => {}
                    // The walker runs the init declaration as a statement of
                    // its own with a dummy span, charging one step.
                    ForInit::Decl(tn, decls) => {
                        let mark = self.next_reg;
                        self.step(Span::DUMMY)?;
                        self.decl(Span::DUMMY, tn, decls)?;
                        self.next_reg = mark;
                    }
                    ForInit::Exprs(es) => {
                        for e in es {
                            self.discard_expr(e)?;
                        }
                    }
                }
                let l_cond = self.pc();
                let to_exit = match cond {
                    Some(c) => self.branch(c, false)?,
                    None => Vec::new(),
                };
                let l_body = self.pc();
                self.loops.push(LoopCtx::default());
                // Names resolve statically, so a bare declaration as the
                // body stays invisible to the update, as to the condition.
                self.push_scope();
                self.stmt(body)?;
                self.pop_scope();
                let l_cont = self.pc();
                for u in update {
                    self.discard_expr(u)?;
                }
                self.emit(Instr::Jmp { target: l_cond });
                let l_end = self.pc();
                self.patch(&to_exit, l_end);
                self.end_loop(l_body, l_cont, l_end, l_cont);
                self.pop_scope();
            }
            StmtKind::Return(e) => match e {
                Some(e) => {
                    let ret = self.ret;
                    let src = if ret.is_some_and(|to| {
                        self.static_prim(e)
                            .is_some_and(|from| widen::converts(from, to))
                    }) {
                        let t = self.alloc_temp()?;
                        self.expr_into(t, e)?;
                        self.widen(t, e, ret)?;
                        t
                    } else {
                        self.operand(e, false)?.0
                    };
                    self.emit(Instr::Ret { src });
                }
                None => {
                    self.emit(Instr::RetNull);
                }
            },
            StmtKind::Break | StmtKind::Continue => {
                let brk = matches!(s.kind, StmtKind::Break);
                let pc = self.pc();
                match self.loops.last_mut() {
                    Some(ctx) => {
                        let fixups = match brk {
                            true => &mut ctx.break_fixups,
                            false => &mut ctx.continue_fixups,
                        };
                        fixups.push(pc);
                        self.emit(Instr::Jmp { target: u32::MAX });
                    }
                    // No enclosing loop in this body: surface as control for
                    // the caller, routed by its region table.
                    None => {
                        self.emit(if brk { Instr::RaiseBreak } else { Instr::RaiseContinue });
                    }
                }
            }
            StmtKind::Throw(e) => {
                let (src, _) = self.operand(e, false)?;
                self.emit(Instr::Throw { src });
            }
            StmtKind::Empty => {}
            // `try` runs on the reference walker: the bytecode has no
            // exception handlers.
            StmtKind::Try { .. } | StmtKind::Lazy(_) | StmtKind::Error => return Err(Unlowerable),
        }
        self.next_reg = mark;
        Ok(())
    }

    /// A local declaration.  Each initializer is emitted before its name
    /// is bound, so `int x = x;` reads the outer binding (or the
    /// environment), exactly like the walker's eval-then-declare order.
    fn decl(
        &mut self,
        span: Span,
        tn: &TypeName,
        decls: &'a [LocalDeclarator],
    ) -> Result<(), Unlowerable> {
        // Fully-initialized primitive decls skip the runtime type stack: no
        // DefaultVal ever reads the resolved type, and primitive resolution
        // is infallible and context-free, so the elision is unobservable
        // (class-typed decls keep the resolve so "unknown class" errors stay
        // tier-identical).
        let typed = !(tn_is_prim(tn) && decls.iter().all(|d| d.init.is_some()));
        if typed {
            let t = self.ty_slot(tn)?;
            self.emit(Instr::TyDecl { ty: t, span });
            self.ty_depth += 1;
        }
        let prim = widen::prim_of(tn);
        for d in decls {
            let dst = self.next_slot;
            let prim = prim.filter(|_| d.dims == 0);
            match &d.init {
                Some(e) => {
                    self.expr_into(dst, e)?;
                    self.widen(dst, e, prim)?;
                }
                None => {
                    self.emit(Instr::DefaultVal { dst, dims: d.dims });
                }
            }
            self.declare(d.name.sym, prim);
        }
        if typed {
            self.emit(Instr::TyPop);
            self.ty_depth -= 1;
        }
        Ok(())
    }

    // ---- expressions ---------------------------------------------------------

    /// Evaluate `e` for side effects only (expression statements, `for`
    /// inits/updates), fusing local increments and local-store compounds.
    fn discard_expr(&mut self, e: &'a Expr) -> Result<(), Unlowerable> {
        let low = self.view(e);
        let e = low.e;
        match (&low.kind, &e.kind) {
            // Side-effect-free leaves: nothing to do.
            (LowKind::Const(_) | LowKind::Local(_), _) => Ok(()),
            (LowKind::Code, ExprKind::IncDec(op, prefix, x)) => {
                let read = self.view(x);
                let write = self.place(x);
                // `x++` / `x--` on a local slot: one superinstruction.
                match (&read.kind, write) {
                    (LowKind::Local(rs), Place::Local(slot)) if *rs == slot => {
                        let delta = if *op == IncDecOp::Inc { 1 } else { -1 };
                        let pc = self.emit(Instr::IncLocal { slot, delta, span: e.span });
                        self.bc.super_pcs.push(pc);
                        self.narrow_for(slot, slot, e.span)
                    }
                    (_, write) => {
                        let t = self.alloc_temp()?;
                        self.incdec_into(t, *op, *prefix, read, write, e.span)
                    }
                }
            }
            (LowKind::Code, ExprKind::Assign(op, l, r)) => {
                let read = op.map(|_| self.view(l));
                let write = self.place(l);
                match (op, read.as_ref().map(|r| &r.kind), write) {
                    // `x = v`: compile the value straight into the slot.
                    (None, _, Place::Local(slot)) => {
                        self.expr_into(slot, r)?;
                        self.widen(slot, r, self.slot_prims[slot as usize])
                    }
                    // `x op= v`: store-fused binary (reads the slot at
                    // execution time, after the value — the walker's
                    // value-then-read order).  The walker records no hot
                    // pairs for compound assignment, so no pairs entry here.
                    (Some(op), Some(LowKind::Local(rs)), Place::Local(slot)) if *rs == slot => {
                        let (b, _) = self.operand(r, false)?;
                        let to = self.slot_prims[slot as usize];
                        let pc = self.binary(*op, slot, (slot, l), (b, r), to, e.span);
                        self.bc.super_pcs.push(pc);
                        self.narrow_for(slot, slot, e.span)
                    }
                    (_, _, write) => {
                        let t = self.alloc_temp()?;
                        self.assign_into(t, *op, l, read, write, r, e.span)
                    }
                }
            }
            _ => {
                let t = self.alloc_temp()?;
                self.low_into(t, low)
            }
        }
    }

    /// Place `e` in a register. Direct local/constant registers are used
    /// as-is; `hazard` forces a copy when code evaluated *after* this
    /// operand (but before the consuming instruction) could overwrite a
    /// local slot.
    fn operand(&mut self, e: &'a Expr, hazard: bool) -> Result<(u16, bool), Unlowerable> {
        let low = self.view(e);
        self.operand_low(low, hazard)
    }

    fn operand_low(&mut self, low: Low<'a>, hazard: bool) -> Result<(u16, bool), Unlowerable> {
        match low.kind {
            LowKind::Local(slot) if !hazard => Ok((slot, true)),
            LowKind::Const(v) => Ok((self.const_reg(v)?, true)),
            _ => {
                let t = self.alloc_temp()?;
                self.low_into(t, low)?;
                Ok((t, false))
            }
        }
    }

    /// A conditional jump on `src`, taken when it holds `when`.
    fn jump_if(&mut self, when: bool, src: u16, span: Span) -> u32 {
        let target = u32::MAX;
        self.emit(if when {
            Instr::JmpIfTrue { src, target, span }
        } else {
            Instr::JmpIfFalse { src, target, span }
        })
    }

    /// Compile condition `c` and emit a conditional jump taken when the
    /// condition equals `jump_when`; returns the jump pcs to patch.
    /// Comparison conditions fuse into `JmpIfCmp`.
    fn branch(&mut self, c: &'a Expr, jump_when: bool) -> Result<Vec<u32>, Unlowerable> {
        use BinOp::*;
        let low = self.view(c);
        let span = low.e.span;
        if let (LowKind::Code, ExprKind::Binary(op @ (Lt | Le | Gt | Ge | Eq | Ne), l, r)) =
            (&low.kind, &low.e.kind)
        {
            let pc_before = self.pc();
            self.attach_pairs(pc_before, *op, l, r);
            let hazard_l = self.writes_locals(r);
            let (a, _) = self.operand(l, hazard_l)?;
            let (b, _) = self.operand(r, false)?;
            let (op, target) = (*op, u32::MAX);
            let pc = self.emit(Instr::JmpIfCmp { op, a, b, when: jump_when, target, span });
            self.bc.super_pcs.push(pc);
            return Ok(vec![pc]);
        }
        let (src, _) = self.operand_low(low, false)?;
        Ok(vec![self.jump_if(jump_when, src, span)])
    }

    /// Store an already-computed value into an assignment target (target
    /// subexpressions evaluate *after* the value, matching walker order).
    /// `out`: the register that takes the value as stored (see
    /// [`Instr::EnvStore`]); a local is converted before its store, so it
    /// stores `val` itself.
    fn store(&mut self, t: Place<'a>, val: u16, out: Option<u16>) -> Result<(), Unlowerable> {
        match t {
            Place::Local(dst) => {
                if dst != val {
                    self.emit(Instr::Move { dst, src: val });
                }
                if let Some(o) = out.filter(|&o| o != val && o != dst) {
                    self.emit(Instr::Move { dst: o, src: val });
                }
            }
            Place::Env(name, span) => {
                self.emit(Instr::EnvStore { src: val, name, out, span });
            }
            Place::Field(target, name, span) => {
                let (obj, _) = self.operand(target, false)?;
                self.emit(Instr::FieldSet { obj, val, name, out, span });
            }
            Place::Array(arr, idx, span) => {
                let (arr, idx, spans) = self.array_operands(arr, idx, span)?;
                self.emit(Instr::ArrSet { arr, idx, val, spans, out });
            }
            Place::Invalid(span) => {
                self.emit(Instr::RaiseInvalidAssign { span });
            }
        }
        Ok(())
    }

    /// The array and index registers of `arr[idx]`, plus its span pair.
    fn array_operands(
        &mut self,
        arr: &'a Expr,
        idx: &'a Expr,
        span: Span,
    ) -> Result<(u16, u16, u16), Unlowerable> {
        let hazard = self.writes_locals(idx);
        let (a, _) = self.operand(arr, hazard)?;
        let idx = self.view(idx);
        let idx_span = idx.e.span;
        let (i, _) = self.operand_low(idx, false)?;
        Ok((a, i, push_index(&mut self.bc.span_pairs, (span, idx_span))?))
    }

    /// Compile `e` so its value lands in `dst`. Contract: on every path,
    /// only the final emitted instruction writes `dst` (protects fused
    /// stores whose target is re-read by intervening code).
    fn expr_into(&mut self, dst: u16, e: &'a Expr) -> Result<(), Unlowerable> {
        let low = self.view(e);
        self.low_into(dst, low)
    }

    fn low_into(&mut self, dst: u16, low: Low<'a>) -> Result<(), Unlowerable> {
        let src = match low.kind {
            LowKind::Const(v) => self.const_reg(v)?,
            LowKind::Local(slot) => slot,
            LowKind::Env(name) => {
                // The site caches (layout → slot) for the dominant case: an
                // unqualified read of one of `this`'s fields.
                let site = push_index(&mut self.bc.field_sites, FieldSite::new())?;
                let span = low.e.span;
                self.emit(Instr::EnvLoad { dst, name, site, span });
                return Ok(());
            }
            LowKind::Code => return self.code_into(dst, low.e),
        };
        if dst != src {
            self.emit(Instr::Move { dst, src });
        }
        Ok(())
    }

    /// The code of an expression that is neither a constant nor a name.
    fn code_into(&mut self, dst: u16, e: &'a Expr) -> Result<(), Unlowerable> {
        let span = e.span;
        match &e.kind {
            ExprKind::This => {
                self.emit(Instr::LoadThis { dst, span });
            }
            ExprKind::ClassRef(fqcn) => {
                self.emit(Instr::ClassRef { dst, fqcn: *fqcn, span });
            }
            ExprKind::FieldAccess(target, name) => {
                let (obj, _) = self.operand(target, false)?;
                let site = push_index(&mut self.bc.field_sites, FieldSite::new())?;
                let name = name.sym;
                self.emit(Instr::FieldGet { dst, obj, name, site, span });
            }
            ExprKind::ArrayAccess(arr, idx) => {
                let (arr, idx, spans) = self.array_operands(arr, idx, span)?;
                self.emit(Instr::ArrGet { dst, arr, idx, spans });
            }
            ExprKind::New(tn, args) => {
                let ty = self.ty_slot(tn)?;
                self.emit(Instr::NewClass { ty, span });
                self.ty_depth += 1;
                let (base, n) = self.args_into(args)?;
                self.emit(Instr::NewFinish { dst, base, n, span });
                self.ty_depth -= 1;
            }
            ExprKind::NewArray {
                elem,
                dims,
                extra_dims,
            } => {
                let ty = self.ty_slot(elem)?;
                self.emit(Instr::TyElem { ty, extra_dims: *extra_dims, span });
                self.ty_depth += 1;
                let n = idx16(dims.len())?;
                let base = self.alloc_block(dims.len())?;
                for (reg, d) in (base..).zip(dims) {
                    let d = self.view(d);
                    let span = d.e.span;
                    self.low_into(reg, d)?;
                    self.emit(Instr::ToInt { reg, span });
                }
                self.emit(Instr::NewArrayFinish { dst, base, n, span });
                self.ty_depth -= 1;
            }
            ExprKind::Binary(op, l, r) => {
                let pc_before = self.pc();
                self.attach_pairs(pc_before, *op, l, r);
                match op {
                    // Short-circuit chains with truthiness-check parity:
                    // each operand's non-boolean error fires at its own span.
                    BinOp::And | BinOp::Or => {
                        let and = *op == BinOp::And;
                        let t = self.const_reg(Value::Bool(true))?;
                        let f = self.const_reg(Value::Bool(false))?;
                        let mut shorts = Vec::with_capacity(2);
                        for x in [l, r] {
                            let x = self.view(x);
                            let x_span = x.e.span;
                            let (src, _) = self.operand_low(x, false)?;
                            shorts.push(self.jump_if(!and, src, x_span));
                        }
                        let (full, short) = if and { (t, f) } else { (f, t) };
                        self.emit(Instr::Move { dst, src: full });
                        let je = self.emit(Instr::Jmp { target: u32::MAX });
                        let l_short = self.pc();
                        self.patch(&shorts, l_short);
                        self.emit(Instr::Move { dst, src: short });
                        let l_end = self.pc();
                        self.patch(&[je], l_end);
                    }
                    _ => {
                        let hazard_l = self.writes_locals(r);
                        let (a, da) = self.operand(l, hazard_l)?;
                        let (b, db) = self.operand(r, false)?;
                        let pc = self.binary(*op, dst, (a, l), (b, r), None, span);
                        // Superinstruction forms: both operands direct
                        // (load+load+op) or store-fused into a local slot.
                        if (da && db) || dst < self.bc.n_locals {
                            self.bc.super_pcs.push(pc);
                        }
                    }
                }
            }
            ExprKind::Unary(op, x) => {
                let (src, _) = self.operand(x, false)?;
                self.emit(Instr::Unary { op: *op, dst, src, span });
            }
            ExprKind::IncDec(op, prefix, x) => {
                let read = self.view(x);
                let write = self.place(x);
                self.incdec_into(dst, *op, *prefix, read, write, span)?;
            }
            ExprKind::Assign(op, l, r) => {
                let read = op.map(|_| self.view(l));
                let write = self.place(l);
                self.assign_into(dst, *op, l, read, write, r, span)?;
            }
            ExprKind::Cond(c, t, f) => {
                let to_else = self.branch(c, false)?;
                self.expr_into(dst, t)?;
                let je = self.emit(Instr::Jmp { target: u32::MAX });
                let l_else = self.pc();
                self.patch(&to_else, l_else);
                self.expr_into(dst, f)?;
                let l_end = self.pc();
                self.patch(&[je], l_end);
            }
            ExprKind::Cast(tn, x) => {
                let (src, _) = self.operand(x, false)?;
                let ty = self.ty_slot(tn)?;
                self.emit(Instr::CastV { dst, src, ty, span });
            }
            ExprKind::Instanceof(x, tn) => {
                let (src, _) = self.operand(x, false)?;
                let ty = self.ty_slot(tn)?;
                self.emit(Instr::InstOf { dst, src, ty, span });
            }
            ExprKind::Call(mn, args) => self.call(dst, mn, args, span)?,
            // Constants and names lower in `view`; the pre-pass rejects
            // the rest.
            ExprKind::Literal(_)
            | ExprKind::Name(_)
            | ExprKind::VarRef(_)
            | ExprKind::Template(_)
            | ExprKind::Lazy(_)
            | ExprKind::TypeDims(_) => return Err(Unlowerable),
        }
        Ok(())
    }

    /// `x++`/`--x`/…: the place read as an r-value, then stored through
    /// `write`, which re-evaluates the place's operands like the walker.
    fn incdec_into(
        &mut self,
        dst: u16,
        op: IncDecOp,
        prefix: bool,
        read: Low<'a>,
        write: Place<'a>,
        span: Span,
    ) -> Result<(), Unlowerable> {
        let delta = if op == IncDecOp::Inc { 1 } else { -1 };
        if prefix {
            let (r, _) = self.operand_low(read, false)?;
            let t_new = self.alloc_temp()?;
            self.emit(Instr::IncDecVal { dst: t_new, src: r, delta, span });
            self.narrow_for_place(t_new, &write, span)?;
            self.store(write, t_new, Some(dst))?;
        } else {
            // Postfix must copy the old value before the store.
            let t_old = self.alloc_temp()?;
            self.low_into(t_old, read)?;
            let t_new = self.alloc_temp()?;
            self.emit(Instr::IncDecVal { dst: t_new, src: t_old, delta, span });
            self.narrow_for_place(t_new, &write, span)?;
            self.store(write, t_new, None)?;
            self.emit(Instr::Move { dst, src: t_old });
        }
        Ok(())
    }

    /// Casts `reg`, the result of a compound assignment or `++`/`--` about
    /// to be stored into the local `slot`, back to a `byte`, `short` or
    /// `char` slot's type (JLS §15.26.2, §15.14.2). `++`/`--` and the
    /// `int` fast path of a binary leave an `int` for them; every other
    /// local keeps its representation through `++`/`--` and is converted
    /// by a binary's `to`. A field or an array element narrows as the
    /// store converts (see [`Instr::EnvStore`]'s `out`).
    fn narrow_for(&mut self, reg: u16, slot: u16, span: Span) -> Result<(), Unlowerable> {
        let to = self.slot_prims[slot as usize];
        if let Some(to @ (PrimKind::Byte | PrimKind::Short | PrimKind::Char)) = to {
            let ty = self.ty_slot(&TypeName::prim(to))?;
            self.emit(Instr::CastV { dst: reg, src: reg, ty, span });
        }
        Ok(())
    }

    /// [`Emit::narrow_for`] when `place` is a local.
    fn narrow_for_place(
        &mut self,
        reg: u16,
        place: &Place<'a>,
        span: Span,
    ) -> Result<(), Unlowerable> {
        match *place {
            Place::Local(slot) => self.narrow_for(reg, slot, span),
            _ => Ok(()),
        }
    }

    /// `l = value` or `l op= value`: the walker evaluates the value, then
    /// (for compound ops) the place `l` as an r-value (`read`), then stores
    /// — re-evaluating the place's operands.
    #[allow(clippy::too_many_arguments)]
    fn assign_into(
        &mut self,
        dst: u16,
        op: Option<BinOp>,
        l: &'a Expr,
        read: Option<Low<'a>>,
        write: Place<'a>,
        value: &'a Expr,
        span: Span,
    ) -> Result<(), Unlowerable> {
        let hazard = self.store_writes(l) || (read.is_some() && self.writes_locals(l));
        let (rv, _) = self.operand(value, hazard)?;
        match (op, read) {
            (Some(op), Some(read)) => {
                let (lv, _) = self.operand_low(read, false)?;
                let t = self.alloc_temp()?;
                let to = match write {
                    Place::Local(slot) => self.slot_prims[slot as usize],
                    _ => None,
                };
                self.binary(op, t, (lv, l), (rv, value), to, span);
                self.narrow_for_place(t, &write, span)?;
                self.store(write, t, Some(dst))?;
            }
            _ => {
                let to = match write {
                    Place::Local(slot) => self.slot_prims[slot as usize],
                    _ => None,
                };
                let rv = match to {
                    Some(to)
                        if self
                            .static_prim(value)
                            .is_some_and(|from| widen::converts(from, to)) =>
                    {
                        let t = self.alloc_temp()?;
                        self.emit(Instr::Move { dst: t, src: rv });
                        self.widen(t, value, Some(to))?;
                        t
                    }
                    _ => rv,
                };
                self.store(write, rv, Some(dst))?;
            }
        }
        Ok(())
    }

    /// Arguments evaluated in order into a fresh contiguous block.
    fn args_into(&mut self, args: &'a [Expr]) -> Result<(u16, u16), Unlowerable> {
        let n = idx16(args.len())?;
        let base = self.alloc_block(args.len())?;
        for (reg, a) in (base..).zip(args) {
            self.expr_into(reg, a)?;
        }
        Ok((base, n))
    }

    /// Compile a call: arguments first into a contiguous block, then the
    /// receiver (the walker's order), then the call instruction.
    fn call(
        &mut self,
        dst: u16,
        mn: &'a MethodName,
        args: &'a [Expr],
        span: Span,
    ) -> Result<(), Unlowerable> {
        let site = push_index(&mut self.bc.sites, PolySite::new())?;
        let (base, n) = self.args_into(args)?;
        let name = mn.name.sym;
        let call = if mn.super_recv {
            Instr::CallSuper { dst, base, n, name, site, span }
        } else if let Some(recv) = &mn.receiver {
            let (recv, _) = self.operand(recv, false)?;
            Instr::CallRecv { dst, recv, base, n, name, site, span }
        } else {
            Instr::CallImplicit { dst, base, n, name, site, span }
        };
        self.emit(call);
        Ok(())
    }
}

/// Compiles a typed body (`block`, with `params` bound to the first
/// frame slots) straight to its cold bytecode: the pre-pass
/// ([`crate::lower::shape`]) sizes the frame and folds constants, then one
/// emission pass resolves names to slots and emits.  Pure: depends only
/// on the AST, `params` and the body's signature `sig` (the declared
/// primitive types of the parameters, then of the return type; see
/// [`crate::widen`]).
pub(crate) fn compile(
    block: &Block,
    params: &[Symbol],
    sig: &[Option<PrimKind>],
) -> Result<BcBody, Unlowerable> {
    let shape = crate::lower::shape(block, params.len())?;
    let n_slots = idx16(shape.n_slots)?;
    let n_params = idx16(params.len())?;
    let mut e = Emit {
        shape: &shape,
        bc: BcBody {
            n_params,
            n_locals: n_slots,
            ..BcBody::default()
        },
        names: params.iter().copied().zip(0..).collect(),
        slot_prims: (0..params.len())
            .map(|i| sig.get(i).copied().flatten())
            .collect(),
        ret: sig.get(params.len()).copied().flatten(),
        scope_marks: Vec::new(),
        next_slot: n_params,
        slots_resolved: 0,
        consts_folded: 0,
        next_reg: u32::from(n_slots),
        high_water: u32::from(n_slots),
        shared_consts: [None; 3],
        loops: Vec::new(),
        ty_depth: 0,
        pure: Vec::new(),
    };
    // Parameters of wide primitive types convert their arguments on entry.
    for slot in 0..n_params {
        if let Some(to) = widen::entry_prim(e.slot_prims[slot as usize]) {
            let ty = e.ty_slot(&TypeName::prim(to))?;
            e.emit(Instr::CastV {
                dst: slot,
                src: slot,
                ty,
                span: Span::DUMMY,
            });
        }
    }
    for s in &block.stmts {
        e.stmt(s)?;
    }
    e.emit(Instr::RetNull);
    debug_assert_eq!(e.next_slot, n_slots, "the pre-pass counts every declarator");
    // Final register layout: [locals | temps | consts].  Constants were
    // emitted in the sentinel space (`CONST_BASE + k`, see `alloc_const`);
    // now that the temp high-water mark is known, land them above it.
    let mut bc = e.bc;
    let n_temps = idx16(e.high_water as usize)?;
    let n_consts = idx16(bc.preloads.len())?;
    if usize::from(n_temps) + usize::from(n_consts) > usize::from(CONST_BASE) {
        return Err(Unlowerable);
    }
    let remap = |r: u16| {
        if r >= CONST_BASE {
            n_temps + (r - CONST_BASE)
        } else {
            r
        }
    };
    for ins in &mut bc.code {
        map_regs(ins, remap);
    }
    for (r, _) in &mut bc.preloads {
        *r = remap(*r);
    }
    bc.n_regs = n_temps + n_consts;
    merge_steps(&mut bc, &e.pure);
    telemetry::add(Counter::SlotsResolved, e.slots_resolved);
    telemetry::add(Counter::ConstsFolded, e.consts_folded);
    telemetry::count(Counter::BcCompiled);
    telemetry::add(Counter::BcSuperinsts, bc.super_pcs.len() as u64);
    Ok(bc)
}

/// Merges each straight run of statement steps into its first step: a
/// step is charged by the step before it when every instruction between
/// them only writes registers and cannot fail (a `move`, or a binary at a
/// pc of `pure`), and no label (see [`labels`]) lies after the first step
/// up to and including the second. The merged steps' spans follow the
/// first one's in `step_spans`, since steps are emitted in order, so a
/// merge only counts them; a dropped step's pc maps to the instruction
/// after it.
///
/// The merge is exact. Under the step limit a merged step adds its count.
/// At the limit it fails at the span of the statement where one step per
/// statement would have stopped and leaves the step counter where that
/// would have (see `Interp::count_steps`); the instructions it skips
/// write only registers of the frame the error unwinds.
fn merge_steps(bc: &mut BcBody, pure: &[u32]) {
    let labels = labels(bc);
    let cold = BcBody {
        code: std::mem::take(&mut bc.code),
        regions: std::mem::take(&mut bc.regions),
        pairs: std::mem::take(&mut bc.pairs),
        super_pcs: std::mem::take(&mut bc.super_pcs),
        ..BcBody::default()
    };
    let mut pcs = Vec::with_capacity(cold.code.len() + 1);
    // The step that charges the next one, while the run stays straight.
    let mut open: Option<usize> = None;
    for (pc, &ins) in cold.code.iter().enumerate() {
        pcs.push(bc.pc());
        if labels[pc] {
            open = None;
        }
        match ins {
            Instr::Step { .. } => match open.map(|q| &mut bc.code[q]) {
                Some(Instr::Step { n, .. }) if *n < u16::MAX => {
                    *n += 1;
                    continue;
                }
                _ => open = Some(bc.code.len()),
            },
            Instr::Move { .. } => {}
            Instr::Binary { .. } if pure.binary_search(&(pc as u32)).is_ok() => {}
            _ => open = None,
        }
        bc.push(ins);
    }
    pcs.push(bc.pc());
    bc.remap(&cold, &pcs, cold.code.len(), 0, 0);
}

// ---- refine: splicing the hot call graph -------------------------------------

/// Where a copied body's side tables start in the body it is copied into.
#[derive(Clone, Copy, Default)]
struct Bases {
    field_sites: u16,
    span_pairs: u16,
    step_spans: u16,
    tys: u16,
    sites: u16,
    guards: u16,
}

/// `ins` for a copy: registers through `reg`, side-table indices past `b`.
/// Jump targets are left for [`BcBody::remap`].
fn relocate(mut ins: Instr, reg: impl Fn(u16) -> u16, b: Bases) -> Instr {
    map_regs(&mut ins, reg);
    match &mut ins {
        Instr::EnvLoad { site, .. } | Instr::FieldGet { site, .. } => *site += b.field_sites,
        Instr::EnvLoadAt { site, guard, .. } => {
            *site += b.field_sites;
            *guard += b.guards;
        }
        Instr::ArrGet { spans, .. } | Instr::ArrSet { spans, .. } => *spans += b.span_pairs,
        Instr::Step { at, .. } => *at += b.step_spans,
        Instr::NewClass { ty, .. }
        | Instr::TyElem { ty, .. }
        | Instr::TyDecl { ty, .. }
        | Instr::CastV { ty, .. }
        | Instr::InstOf { ty, .. } => *ty += b.tys,
        Instr::CallRecv { site, .. }
        | Instr::CallSuper { site, .. }
        | Instr::CallImplicit { site, .. } => *site += b.sites,
        Instr::GuardInline { guard, .. } => *guard += b.guards,
        _ => {}
    }
    ins
}

/// How `ins` moves the VM's type stack.  Every push and its pop bracket
/// one statement or expression, so the running sum over the code is the
/// static depth at each pc.
fn ty_effect(ins: &Instr) -> i32 {
    match ins {
        Instr::NewClass { .. } | Instr::TyElem { .. } | Instr::TyDecl { .. } => 1,
        Instr::NewFinish { .. } | Instr::NewArrayFinish { .. } | Instr::TyPop => -1,
        _ => 0,
    }
}

/// Why the refine pass leaves a call to one PIC entry's callee generic.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Decline {
    /// The line was filled under another epoch: a guard built from it
    /// could never pass.
    Epoch,
    Native,
    /// The callee has no bytecode: it runs on the walker.
    Walker,
    /// The callee takes another number of arguments than the call passes.
    Arity,
    /// The callee makes a `super` call, which dispatches on its frame's
    /// class.
    Super,
    /// The callee stores to a bare name, which resolves in its frame.
    NameStore,
    /// The callee names a class type, which resolves in its frame's class.
    NamedType,
    /// The code a splice would copy is longer than `INLINE_MAX`.
    OverMax,
}

impl Decline {
    fn as_str(self) -> &'static str {
        match self {
            Decline::Epoch => "line filled under another epoch",
            Decline::Native => "native",
            Decline::Walker => "callee runs on the walker",
            Decline::Arity => "argument count",
            Decline::Super => "super call",
            Decline::NameStore => "name store",
            Decline::NamedType => "named type",
            Decline::OverMax => "callee over INLINE_MAX",
        }
    }
}

/// How many of `bc`'s instructions a splice copies: all but a final
/// `ret_null` after a `ret`, when no label (see [`labels`]) is on it.
fn copied_len(bc: &BcBody) -> usize {
    let n = bc.code.len();
    let dead = n >= 2
        && matches!(bc.code[n - 1], Instr::RetNull)
        && matches!(bc.code[n - 2], Instr::Ret { .. })
        && !labels(bc)[n - 1];
    n - usize::from(dead)
}

/// The pc of the instruction before the final `ret` of the `copied`
/// instructions a splice copies of `bc`, when that instruction computes the
/// returned value into a temporary as its result (see [`result_reg`]) and
/// no label (see [`labels`]) is on the `ret`: the splice points it at the
/// call's destination and copies no `ret`.
fn ret_producer(bc: &BcBody, copied: usize) -> Option<usize> {
    let at = copied.checked_sub(2)?;
    let Instr::Ret { src } = bc.code[at + 1] else {
        return None;
    };
    let mut prev = bc.code[at];
    let temp = src >= bc.n_locals && result_reg(&mut prev).copied() == Some(src);
    (temp && !labels(bc)[at + 1]).then_some(at)
}

/// How many of the argument moves right before the call at `pc` of `bc`
/// the refine pass moves to the call's generic path, so that a chain of
/// splices reads those arguments at the moves' sources: the moves of the
/// call's last arguments that copy a local or a constant, up to the first
/// other instruction or a label (see [`labels`]) between a move and the
/// call. A source keeps its value while a splice runs, which writes its
/// own frame and, at its exit, the call's destination only.
fn moved_args(bc: &BcBody, pc: usize, labels: &[bool]) -> usize {
    let (Instr::CallRecv { base, n, .. } | Instr::CallImplicit { base, n, .. }) = bc.code[pc] else {
        return 0;
    };
    let source = |r: u16| r < bc.n_locals || bc.preloads.iter().any(|&(c, _)| c == r);
    let mut k = 0;
    while k < usize::from(n) && k < pc && !labels[pc - k] {
        let arg = usize::from(base) + usize::from(n) - k - 1;
        match bc.code[pc - k - 1] {
            Instr::Move { dst, src } if usize::from(dst) == arg && source(src) => k += 1,
            _ => break,
        }
    }
    k
}

/// The code a splice of PIC entry `e`, called with `n_args` arguments,
/// copies under `epoch`, or why the refine pass declines it. The callee
/// must not depend on its frame's class except through what a splice
/// rebinds (`this`, bare-name loads, implicit calls and the guards of its
/// own splices): no `super` call, no store to a bare name, and only
/// primitive types. Its refined copy is copied, splices and all, when
/// every guard in it was built under `epoch`, else its cold code (a copy
/// of that would lose the refined copy's splices), and only when the code
/// fits `INLINE_MAX`. So `INLINE_MAX` bounds what is copied, nesting and
/// recursion included.
fn splice_source(e: &PicEntry, n_args: u16, epoch: u64) -> Result<Rc<BcBody>, Decline> {
    if e.target.native.is_some() {
        return Err(Decline::Native);
    }
    let lb = e.lowered.as_ref().ok_or(Decline::Walker)?;
    let cold = lb.cold();
    if cold.n_params != n_args {
        return Err(Decline::Arity);
    }
    for ins in &cold.code {
        match ins {
            Instr::CallSuper { .. } => return Err(Decline::Super),
            Instr::EnvStore { .. } => return Err(Decline::NameStore),
            _ => {}
        }
    }
    if !cold.tys.iter().all(|t| tn_is_prim(&t.tn)) {
        return Err(Decline::NamedType);
    }
    let current = lb.current();
    let src = match current.guards.iter().all(|g| g.epoch == epoch) {
        true => current,
        false => Rc::clone(cold),
    };
    match copied_len(&src) <= INLINE_MAX {
        true => Ok(src),
        false => Err(Decline::OverMax),
    }
}

/// The members of the chain the refine pass splices in place of `ins`, an
/// instruction of `bc`, in guard order: for a `CallRecv` or `CallImplicit`
/// whose PIC line was filled under `epoch`, each entry, most recently
/// used first, that [`splice_source`] admits, with the code it copies.
fn chain_members(bc: &BcBody, ins: Instr, epoch: u64) -> Vec<(PicEntry, Rc<BcBody>)> {
    let (Instr::CallRecv { site, n, .. } | Instr::CallImplicit { site, n, .. }) = ins else {
        return Vec::new();
    };
    let site = &bc.sites[site as usize];
    if site.epoch.get() != epoch {
        return Vec::new();
    }
    let entries = site.entries.borrow();
    entries
        .iter()
        .filter_map(|e| Some((e.clone(), splice_source(e, n, epoch).ok()?)))
        .collect()
}

impl BcBody {
    fn pc(&self) -> u32 {
        self.code.len() as u32
    }

    fn push(&mut self, i: Instr) -> u32 {
        let pc = self.pc();
        self.code.push(i);
        pc
    }

    /// `n` fresh registers above the current register file.
    fn grow_regs(&mut self, n: u16) -> Result<u16, Unlowerable> {
        let base = self.n_regs;
        self.n_regs = idx16(usize::from(base) + usize::from(n))?;
        Ok(base)
    }

    /// Appends fresh field sites and `src`'s span pairs, step spans, type
    /// slots and call sites (shared, so a copied call warms the same cache
    /// line); returns where they start.
    fn append_tables(&mut self, src: &BcBody) -> Result<Bases, Unlowerable> {
        let b = Bases {
            field_sites: idx16(self.field_sites.len())?,
            span_pairs: idx16(self.span_pairs.len())?,
            step_spans: idx16(self.step_spans.len())?,
            tys: idx16(self.tys.len())?,
            sites: idx16(self.sites.len())?,
            guards: idx16(self.guards.len())?,
        };
        self.field_sites
            .extend(src.field_sites.iter().map(|_| FieldSite::new()));
        self.span_pairs.extend_from_slice(&src.span_pairs);
        self.step_spans.extend_from_slice(&src.step_spans);
        self.tys.extend(src.tys.iter().cloned());
        self.sites.extend(src.sites.iter().cloned());
        for len in [
            self.field_sites.len(),
            self.span_pairs.len(),
            self.step_spans.len(),
            self.tys.len(),
            self.sites.len(),
        ] {
            idx16(len)?;
        }
        Ok(b)
    }

    /// Moves what refers to `src`'s pcs — the targets of its first
    /// `copied` instructions, its regions, hot pairs and
    /// superinstructions — to where its code was copied: pc `i` of `src`
    /// landed at `pcs[i]`, and `pcs[src.code.len()]` is the end. Copied
    /// regions sit `ty_depth` deeper in the type stack and `inline_depth`
    /// deeper in spliced frames than in `src`.
    fn remap(
        &mut self,
        src: &BcBody,
        pcs: &[u32],
        copied: usize,
        ty_depth: u16,
        inline_depth: u16,
    ) {
        let at = |pc: u32| pcs[pc as usize];
        for (i, &ins) in src.code[..copied].iter().enumerate() {
            if target(ins).is_some() {
                let t = target_mut(&mut self.code[pcs[i] as usize]).expect("a copied jump");
                *t = at(*t);
            }
        }
        self.regions.extend(src.regions.iter().map(|r| Region {
            start: at(r.start),
            end: at(r.end),
            brk: at(r.brk),
            cont: at(r.cont),
            ty_depth: r.ty_depth + ty_depth,
            inline_depth: r.inline_depth + inline_depth,
        }));
        for (&pc, pairs) in &src.pairs {
            self.pairs.entry(at(pc)).or_default().extend_from_slice(pairs);
        }
        self.super_pcs.extend(src.super_pcs.iter().map(|&pc| at(pc)));
    }

    /// Splices `call` as a chain: one member per entry of `members` (see
    /// [`chain_members`]), each behind its `GuardInline`, whose failure
    /// falls to the next member's guard and the last one's to the generic
    /// path: `moves`, the argument moves [`moved_args`] took off the
    /// call, then the call. Every member reads such an argument at its
    /// move's source, and its exits continue after the generic call.
    /// `null` is the null register, made by the first splice that needs
    /// one.
    fn splice_chain(
        &mut self,
        call: Instr,
        moves: &[Instr],
        members: Vec<(PicEntry, Rc<BcBody>)>,
        epoch: u64,
        ty_depth: u16,
        null: &mut Option<u16>,
    ) -> Result<(), Unlowerable> {
        let (Instr::CallRecv { base, n, .. } | Instr::CallImplicit { base, n, .. }) = call else {
            unreachable!("only receiver and implicit calls splice")
        };
        let mut args: Vec<u16> = (base..base + n).collect();
        for &m in moves {
            if let Instr::Move { dst, src } = m {
                args[usize::from(dst - base)] = src;
            }
        }
        let mut guards = Vec::with_capacity(members.len() + 1);
        let mut exits = Vec::new();
        for (e, src) in members {
            let at = self.splice(call, &args, e, &src, epoch, ty_depth, null, &mut exits)?;
            guards.push(at);
        }
        guards.push(self.pc());
        self.code.extend_from_slice(moves);
        let generic = self.push(call);
        for w in guards.windows(2) {
            patch(&mut self.code, &w[..1], w[1]);
        }
        patch(&mut self.code, &exits, generic + 1);
        Ok(())
    }

    /// Splices `src`, the code behind `call`'s PIC entry `e` (see
    /// [`splice_source`]), at static type-stack depth `ty_depth`: its
    /// `GuardInline`, which enters the callee frame when it passes, the
    /// frame's set-up, the code, and a `call_exit`. `args` holds the
    /// register of each argument. Returns the guard's pc; the pcs of the
    /// exits, whose continuation the chain patches, go to `exits`.
    ///
    /// The callee frame gets registers of its own above every register
    /// the body uses so far, its preloaded constants included, except for
    /// the parameters it never writes: it reads those in place from the
    /// argument registers, which nothing writes while it runs. Its set-up
    /// copies each other argument into its parameter and nothing more:
    /// every local's declaration writes its slot (an initializer, or a
    /// `default_val`) before any read. A `ret` moves its value into the
    /// call's destination and leaves the frame; the final one falls
    /// through to the exit, and a dead `ret_null` after it is not copied
    /// (see [`copied_len`]). When the instruction before the final `ret`
    /// computes its value (see [`ret_producer`]), that instruction writes
    /// the destination itself and no `ret` is copied.
    ///
    /// A copy of a refined body brings its own splices one frame deeper:
    /// their guards, call sites, methods, regions and exits are relocated
    /// with the code. Whatever in `src` stands for the callee frame's
    /// `this` is rebound to the guarded receiver register, when the call
    /// has one (a class reference for a class-qualified static call): a
    /// `LoadThis` becomes a move from it, an implicit call a call on it,
    /// and a guard on `this` (one of an implicit call) a guard on it.
    /// Each bare-name load becomes an `EnvLoadAt` through this splice's
    /// guard, which resolves in the callee frame's `this` and class. With
    /// no receiver the callee shares the caller's `this` and class, and
    /// those stay as they are.
    #[allow(clippy::too_many_arguments)]
    fn splice(
        &mut self,
        call: Instr,
        args: &[u16],
        e: PicEntry,
        src: &BcBody,
        epoch: u64,
        ty_depth: u16,
        null: &mut Option<u16>,
        exits: &mut Vec<u32>,
    ) -> Result<u32, Unlowerable> {
        let (Instr::CallRecv { dst, name, site, span, .. }
        | Instr::CallImplicit { dst, name, site, span, .. }) = call
        else {
            unreachable!("only receiver and implicit calls splice")
        };
        let recv = match call {
            Instr::CallRecv { recv, .. } => Some(recv),
            _ => None,
        };
        let m = push_index(&mut self.methods, (e.target, e.class))?;
        let site = Rc::clone(&self.sites[site as usize]);
        let (ck, keys, class) = (e.ck, e.keys, e.class);
        let g = InlineGuard { epoch, ck, keys, recv, args: args.into(), site, name, class, m, span };
        let guard = push_index(&mut self.guards, g)?;
        let mut written = vec![false; usize::from(src.n_params)];
        for r in src.code.iter().filter_map(written_reg) {
            if let Some(w) = written.get_mut(usize::from(r)) {
                *w = true;
            }
        }
        let ibase = self.grow_regs(src.n_regs)?;
        let reg = |r: u16| match written.get(usize::from(r)) {
            Some(false) => args[usize::from(r)],
            _ => ibase + r,
        };
        let consts = src.preloads.iter().map(|(r, v)| (reg(*r), v.clone()));
        self.preloads.extend(consts);
        let mb = idx16(self.methods.len())?;
        self.methods.extend(src.methods.iter().cloned());
        idx16(self.methods.len().max(self.guards.len() + src.guards.len()))?;
        let b = self.append_tables(src)?;
        for g in &src.guards {
            let (recv, m) = (g.recv.map(reg).or(recv), g.m + mb);
            let args = g.args.iter().map(|&a| reg(a)).collect();
            self.guards.push(InlineGuard { recv, args, m, ..g.clone() });
        }
        let gpc = self.push(Instr::GuardInline { guard, fallback: u32::MAX });
        for (i, &w) in (0..).zip(&written) {
            if w {
                self.push(Instr::Move { dst: ibase + i, src: args[usize::from(i)] });
            }
        }
        let copied = copied_len(src);
        let producer = ret_producer(src, copied);
        let mut pcs = Vec::with_capacity(src.code.len() + 1);
        for (i, &ins) in src.code[..copied].iter().enumerate() {
            pcs.push(self.pc());
            if producer.is_some_and(|p| i == p + 1) {
                break;
            }
            let mut copy = match (ins, recv) {
                (Instr::LoadThis { dst: d, .. }, Some(r)) => Instr::Move { dst: reg(d), src: r },
                (Instr::EnvLoad { dst: d, name, site, span }, _) => {
                    let site = site + b.field_sites;
                    Instr::EnvLoadAt { dst: reg(d), guard, name, site, span }
                }
                (Instr::CallImplicit { dst: d, base, n, name, site, span }, Some(r)) => {
                    let (dst, base, site) = (reg(d), reg(base), site + b.sites);
                    Instr::CallRecv { dst, recv: r, base, n, name, site, span }
                }
                (Instr::Ret { src }, _) => Instr::Move { dst, src: reg(src) },
                (Instr::RetNull, _) => {
                    let nullr = match *null {
                        Some(r) => r,
                        None => *null.insert(self.grow_regs(1)?),
                    };
                    Instr::Move { dst, src: nullr }
                }
                (other, _) => relocate(other, reg, b),
            };
            if producer == Some(i) {
                *result_reg(&mut copy).expect("a producer writes its result") = dst;
            }
            self.push(copy);
            if matches!(ins, Instr::Ret { .. } | Instr::RetNull) && i + 1 < copied {
                exits.push(self.push(Instr::CallExit { next: u32::MAX }));
            }
        }
        let exit = self.pc();
        pcs.resize(src.code.len() + 1, exit);
        self.remap(src, &pcs, copied, ty_depth, 1);
        let at = |pc: u32| pcs[pc as usize];
        let nested = src.inlined.iter().map(|&(g, x, m)| (at(g), at(x), m + mb));
        self.inlined.extend(nested);
        exits.push(self.push(Instr::CallExit { next: u32::MAX }));
        self.inlined.push((gpc, exit, m));
        Ok(gpc)
    }
}

/// True iff [`refine`] would splice at least one call of `cold` now.
pub(crate) fn splices_any(cold: &BcBody, epoch: u64) -> bool {
    cold.code
        .iter()
        .any(|&ins| !chain_members(cold, ins, epoch).is_empty())
}

/// The refine pass: a copy of `cold` in which every call with
/// [`chain_members`] runs them in place, as a chain of guarded splices
/// (see [`BcBody::splice_chain`]).  Caller and callee code are copied by
/// the same [`relocate`]; the caller keeps its registers and side-table
/// indices, and one pc map moves its jump targets, regions, hot pairs and
/// superinstructions past the splices.  The copy shares the cold body's
/// call sites, so warmed cache lines carry over.
///
/// Returns the copy with that map: pc `i` of `cold` lands at `pcs[i]` of
/// the copy (a spliced call at its first guard), where an on-stack switch
/// resumes a frame that was running `cold`.
pub(crate) fn refine(cold: &BcBody, epoch: u64) -> Result<(BcBody, Vec<u32>), Unlowerable> {
    let mut bc = BcBody {
        n_params: cold.n_params,
        n_locals: cold.n_locals,
        n_regs: cold.n_regs,
        preloads: cold.preloads.clone(),
        ..BcBody::default()
    };
    let b = bc.append_tables(cold)?;
    let labels = labels(cold);
    let mut pcs = Vec::with_capacity(cold.code.len() + 1);
    let mut null = None;
    let mut ty_depth = 0;
    for (pc, &ins) in cold.code.iter().enumerate() {
        pcs.push(bc.pc());
        let members = chain_members(cold, ins, epoch);
        if members.is_empty() {
            bc.push(relocate(ins, |r| r, b));
        } else {
            // The moves the chain reads at their sources were copied
            // already: take them back, and map their pcs to its first
            // guard.
            let k = moved_args(cold, pc, &labels);
            bc.code.truncate(bc.code.len() - k);
            let first = bc.pc();
            pcs[pc - k..].fill(first);
            let moves = &cold.code[pc - k..pc];
            bc.splice_chain(ins, moves, members, epoch, ty_depth as u16, &mut null)?;
        }
        ty_depth += ty_effect(&ins);
    }
    pcs.push(bc.pc());
    bc.remap(cold, &pcs, cold.code.len(), 0, 0);
    if let Some(r) = null {
        bc.preloads.push((r, Value::Null));
    }
    telemetry::count(Counter::BcCompiled);
    telemetry::add(Counter::BcSuperinsts, bc.super_pcs.len() as u64);
    Ok((bc, pcs))
}

// ---- disassembler ------------------------------------------------------------

/// Renders `bc` for `mayac --dump-bytecode`: one line per instruction with
/// registers (`r<n>`), jump targets (`@<pc>`), superinstruction markers and
/// current PIC shapes, after the tree of spliced call sites (see
/// [`splice_tree`]). In a `refined` body, each call left generic is marked
/// with why the refine pass would leave it so under `epoch` now (see
/// [`generic_mark`]).
pub(crate) fn disasm(bc: &BcBody, ct: &ClassTable, epoch: u64, refined: bool) -> String {
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
    if bc.on_stack {
        let _ = writeln!(out, "refined on-stack: a cold run switched here at a loop back-edge");
    }
    splice_tree(bc, ct, &mut out);
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
            Instr::EnvStore { src, name, out, .. } => format!("{name}, r{src}{}", stored(out)),
            Instr::ClassRef { dst, fqcn, .. } => format!("r{dst}, {fqcn}"),
            Instr::FieldGet { dst, obj, name, site, .. } => {
                format!("r{dst}, r{obj}.{name} [fs{site}]")
            }
            Instr::FieldSet { obj, val, name, out, .. } => {
                format!("r{obj}.{name}, r{val}{}", stored(out))
            }
            Instr::ArrGet { dst, arr, idx, .. } => format!("r{dst}, r{arr}[r{idx}]"),
            Instr::ArrSet { arr, idx, val, out, .. } => {
                format!("r{arr}[r{idx}], r{val}{}", stored(out))
            }
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
            Instr::Step { n: 1, .. } => String::new(),
            Instr::Step { n, .. } => format!("×{n}"),
            Instr::Ret { src } => format!("r{src}"),
            Instr::RetNull | Instr::RaiseBreak | Instr::RaiseContinue => String::new(),
            Instr::CallExit { next } => format!("@{next}"),
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
                let this = g.recv.map_or("this".to_owned(), |r| format!("r{r}"));
                format!("g{guard} ({} on {this}), else @{fallback}", method_label(bc, ct, g.m))
            }
        };
        let sup = if bc.super_pcs.contains(&(pc as u32)) { " ; super" } else { "" };
        let generic = match refined {
            true => generic_mark(bc, pc as u32, ct, epoch),
            false => String::new(),
        };
        let _ = writeln!(out, "  {pc:4}  {:<18} {body}{sup}{generic}", ins.mnemonic());
    }
    out
}

/// A store's `out` in a listing: the register that takes the value as
/// stored.
fn stored(out: Option<u16>) -> String {
    out.map_or(String::new(), |o| format!(" -> r{o}"))
}

/// `Class.name/arity` of `bc`'s spliced method `m`, by the class its frame
/// runs under.
fn method_label(bc: &BcBody, ct: &ClassTable, m: u16) -> String {
    let (mi, c) = &bc.methods[m as usize];
    let cname = ct.info(*c).borrow().fqcn;
    format!("{cname}.{}/{}", mi.name, mi.params.len())
}

/// The chain that the guard at `pc` heads or belongs to, from `pc` on: the
/// guards its fallbacks pass through, the generic path they end at, and
/// the generic call, after the argument moves the refine pass put there.
fn chain_from(bc: &BcBody, mut pc: u32) -> (Vec<u16>, u32, u32) {
    let mut guards = Vec::new();
    while let Instr::GuardInline { guard, fallback } = bc.code[pc as usize] {
        guards.push(guard);
        pc = fallback;
    }
    let generic = pc;
    while let Instr::Move { .. } = bc.code[pc as usize] {
        pc += 1;
    }
    (guards, generic, pc)
}

/// Lists `bc`'s spliced call sites as a tree: each site as one `call`
/// line, its chain's members under it in guard order (`inline
/// @guard..@exit: Class.method/arity`), and under each member the sites
/// spliced into it.
fn splice_tree(bc: &BcBody, ct: &ClassTable, out: &mut String) {
    use std::fmt::Write as _;
    let mut splices = bc.inlined.clone();
    splices.sort_unstable();
    let fallbacks: Vec<u32> = bc
        .code
        .iter()
        .filter_map(|i| match *i {
            Instr::GuardInline { fallback, .. } => Some(fallback),
            _ => None,
        })
        .collect();
    for &(g, x, m) in &splices {
        let depth = splices.iter().filter(|s| s.0 < g && g < s.1).count();
        let pad = "    ".repeat(depth);
        if !fallbacks.contains(&g) {
            let (guards, generic, call) = chain_from(bc, g);
            let call = match bc.code[call as usize] {
                Instr::CallRecv { name, n, site, .. }
                | Instr::CallImplicit { name, n, site, .. } => format!("{name}/{n} [pic{site}]"),
                _ => unreachable!("a chain ends at its generic call"),
            };
            let spliced = guards.len();
            let _ = writeln!(out, "{pad}call @{g}: {call}, {spliced} spliced, else @{generic}");
        }
        let _ = writeln!(out, "{pad}  inline @{g}..@{x}: {}", method_label(bc, ct, m));
    }
}

/// Why the call at `pc` of a refined body is generic, as a listing mark:
/// for each entry of its PIC line that no guard of its chain stands for,
/// the reason [`splice_source`] gives under `epoch`, or, for an entry it
/// admits now, that the line took it after the refine or (inside a
/// splice) that the copied callee code had the call generic. Empty for a
/// chain's fallback whose entries all splice.
fn generic_mark(bc: &BcBody, pc: u32, ct: &ClassTable, epoch: u64) -> String {
    let (site, n) = match bc.code[pc as usize] {
        Instr::CallSuper { .. } => return " ; generic: super call".to_owned(),
        Instr::CallRecv { site, n, .. } | Instr::CallImplicit { site, n, .. } => (site, n),
        _ => return String::new(),
    };
    let line = &bc.sites[site as usize];
    let entries = line.entries.borrow();
    let reasons: Vec<String> = if entries.is_empty() {
        vec!["line empty".to_owned()]
    } else if line.epoch.get() != epoch {
        vec![Decline::Epoch.as_str().to_owned()]
    } else {
        let guard_pcs = bc.code.iter().enumerate().filter_map(|(at, i)| match i {
            Instr::GuardInline { .. } => Some(at as u32),
            _ => None,
        });
        let spliced: Vec<u16> = guard_pcs
            .map(|at| chain_from(bc, at))
            .filter(|&(_, _, call)| call == pc)
            .map(|(guards, ..)| guards[0])
            .collect();
        let nested = bc.inlined.iter().any(|&(g, x, _)| g < pc && pc < x);
        entries
            .iter()
            .filter(|e| {
                !spliced.iter().any(|&g| {
                    let g = &bc.guards[g as usize];
                    g.ck == e.ck && g.keys == e.keys
                })
            })
            .map(|e| {
                let why = match splice_source(e, n, epoch) {
                    Err(d) => d.as_str(),
                    Ok(_) if nested => "generic in the copied callee",
                    Ok(_) => "filled after the refine",
                };
                let cname = ct.info(e.class).borrow().fqcn;
                format!("{cname}.{}/{} {why}", e.target.name, e.target.params.len())
            })
            .collect()
    };
    match reasons.is_empty() {
        true => String::new(),
        false => format!(" ; generic: {}", reasons.join(", ")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maya_ast::{Ident, Lit};
    use maya_lexer::sym;

    fn decl(p: PrimKind, name: &str, init: Expr) -> Stmt {
        let d = LocalDeclarator { name: Ident::from_str(name), dims: 0, init: Some(init) };
        Stmt::synth(StmtKind::Decl(TypeName::prim(p), vec![d]))
    }

    fn assign(op: Option<BinOp>, name: &str, value: Expr) -> Stmt {
        let e = ExprKind::Assign(op, Box::new(Expr::name(name)), Box::new(value));
        Stmt::expr(Expr::synth(e))
    }

    fn bin(op: BinOp, l: Expr, r: Expr) -> Expr {
        Expr::synth(ExprKind::Binary(op, Box::new(l), Box::new(r)))
    }

    /// The count of each step, in order, of a body with the `String`
    /// parameter `s` that declares `int x`, `int y` and `double d`, runs
    /// `between`, and assigns `x`.
    fn steps_around(between: Stmt) -> Vec<u16> {
        let double = Expr::synth(ExprKind::Literal(Lit::Double(1.5)));
        let stmts = vec![
            decl(PrimKind::Int, "x", Expr::int(1)),
            decl(PrimKind::Int, "y", Expr::int(2)),
            decl(PrimKind::Double, "d", double),
            between,
            assign(None, "x", Expr::int(3)),
        ];
        let bc = compile(&Block::synth(stmts), &[sym("s")], &[None]).ok().expect("lowerable");
        let steps = bc.code.iter().filter_map(|i| match *i {
            Instr::Step { n, .. } => Some(n),
            _ => None,
        });
        steps.collect()
    }

    #[test]
    fn which_instructions_end_a_merged_run_of_steps() {
        use BinOp::*;
        let x = || Expr::name("x");
        let two = || Expr::synth(ExprKind::Literal(Lit::Double(2.0)));
        let call = Expr::synth(ExprKind::Call(
            MethodName {
                span: Span::DUMMY,
                receiver: None,
                super_recv: false,
                name: Ident::from_str("f"),
            },
            vec![x()],
        ));
        let inc = Expr::synth(ExprKind::IncDec(IncDecOp::Inc, false, Box::new(x())));
        let branch = StmtKind::If(
            bin(Gt, x(), Expr::int(0)),
            Box::new(assign(None, "y", Expr::int(1))),
            None,
        );
        // A run goes on through a statement that only moves or computes a
        // primitive binary that cannot fail: the five statements share one
        // step. Anything else ends it after the statement's own step.
        let cases: Vec<(&str, Stmt, &[u16])> = vec![
            ("a move", assign(None, "y", x()), &[5]),
            ("an int binary", assign(None, "y", bin(Mul, x(), x())), &[5]),
            ("a double binary", assign(None, "d", bin(Mul, Expr::name("d"), two())), &[5]),
            ("a compound assignment", assign(Some(Add), "x", Expr::int(4)), &[5]),
            ("an int /", assign(None, "y", bin(Div, x(), Expr::int(2))), &[4, 1]),
            ("an int %", assign(None, "y", bin(Rem, x(), Expr::int(2))), &[4, 1]),
            ("a String +", assign(None, "s", bin(Add, Expr::name("s"), x())), &[4, 1]),
            ("a widening", assign(None, "d", x()), &[4, 1]),
            ("an increment", Stmt::expr(inc), &[4, 1]),
            ("a call", Stmt::expr(call), &[4, 1]),
            // The `if`'s jump ends the run, and the statement after the
            // `if` is a label.
            ("a branch", Stmt::synth(branch), &[4, 1, 1]),
        ];
        for (what, between, steps) in cases {
            assert_eq!(steps_around(between), steps, "{what}");
        }
    }

    #[test]
    fn infallible_operators_by_operand_type() {
        use BinOp::*;
        use PrimKind::*;
        assert!(infallible_op(Add, Int, Long));
        assert!(infallible_op(Mul, Double, Char));
        assert!(infallible_op(Shl, Long, Int));
        assert!(infallible_op(BitXor, Boolean, Boolean));
        assert!(infallible_op(Eq, Boolean, Int));
        assert!(!infallible_op(Div, Double, Double));
        assert!(!infallible_op(Rem, Int, Int));
        assert!(!infallible_op(BitAnd, Double, Int));
        assert!(!infallible_op(Ushr, Float, Int));
        assert!(!infallible_op(Lt, Boolean, Boolean));
        assert!(!infallible_op(BitOr, Boolean, Int));
    }
}
