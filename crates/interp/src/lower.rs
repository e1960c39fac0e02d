//! Runtime lowering: typed bodies → register bytecode, shared per session.
//!
//! After type checking (and lazy forcing), a method or constructor body is
//! compiled once, straight from its typed AST, into a [`LoweredBody`]: cold
//! bytecode (`bytecode.rs`) that the VM (`vm.rs`) runs. Compilation makes
//! two passes over the AST:
//!
//! * **The pre-pass** ([`shape`], here) sizes the frame — parameters plus
//!   one slot per local declarator, so temporaries start above every slot
//!   — and folds constants bottom-up, once per body: literal arithmetic,
//!   constant string concatenation, constant conditionals, `null
//!   instanceof T`, and numeric primitive casts. Only *infallible*
//!   operations fold (integer `/`/`%` can throw, so they never fold), and
//!   statements are never folded away, keeping step counting identical to
//!   the tree-walker. It also gives the verdict: bodies containing `try`,
//!   unforced lazy nodes, templates, or poison nodes are [`Unlowerable`]
//!   and execute on the reference tree walker in `interp.rs`.
//! * **The emitter** (`bytecode.rs`) resolves every local and parameter
//!   reference to its frame slot through a scope stack — names that are
//!   *not* statically bound (implicit `this` fields, statics, class names)
//!   stay symbolic — and emits instructions, reading the pre-pass's fold
//!   table instead of the subtrees that folded.
//!
//! Type references keep a private cache ([`TypeSlot`]) filled at run time
//! and guarded by the interpreter's cache *epoch* (see `layout.rs`), so a
//! lowered body contains no environment-dependent data and can be shared
//! between compilers in a session. The [`LowerStore`] memoizes both
//! outcomes per structural fingerprint so warm `mayad` runs skip the work
//! entirely. The memo is in-memory only: the persistent store
//! (`--cache-dir`) keeps LALR tables and whole-request outcomes, never
//! bodies, so a fresh process lowers every body it runs.
//!
//! Evaluation order, error messages, error spans, and observable side
//! effects are mirrored from `interp.rs` exactly — the conformance corpus
//! must be byte-identical with lowering on and off.

use crate::bytecode::{BcBody, REFINE_EXECS};
use crate::widen;
use crate::Value;
use maya_ast::{
    BinOp, Block, Expr, ExprKind, ForInit, Lit, LocalDeclarator, PrimKind, Stmt, StmtKind,
    TypeName, TypeNameKind, UnOp,
};
use maya_lexer::Symbol;
use maya_telemetry as telemetry;
use maya_telemetry::GenMemo;
use maya_types::Type;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

// ---- the lowered body --------------------------------------------------------

/// A lowered body: its cold bytecode, plus the refined copy that splices
/// its hot callees inline, made after [`REFINE_EXECS`] runs (see
/// `bytecode::refine`); a caller's refine copies that copy in turn.
///
/// Splice guards compare the PIC epoch they were built under, and every
/// interpreter allocates fresh epochs, so a refined body that a session's
/// `LowerStore` shares with a later request's compiler could never pass
/// one of its guards again. Runs are therefore counted per epoch: the
/// first run under a new epoch drops a refined body that holds splices,
/// the body runs cold, and it is refined again after `REFINE_EXECS` runs
/// under the new epoch.
///
/// A run of the cold code that loops long enough refines the body early,
/// on-stack (see `Interp::refine_on_stack`). That copy is provisional: it
/// leaves the run count alone, so the regular refine still replaces it
/// after `REFINE_EXECS` runs, from PIC lines that have seen those runs.
pub struct LoweredBody {
    /// Never changes.
    cold: Rc<BcBody>,
    refined: RefCell<Option<Rc<BcBody>>>,
    /// The epoch `execs` counts runs under.
    epoch: Cell<u64>,
    /// Runs under `epoch` so far; saturates at `REFINE_EXECS + 1`.
    execs: Cell<u32>,
}

impl LoweredBody {
    pub(crate) fn new(bc: BcBody) -> LoweredBody {
        LoweredBody {
            cold: Rc::new(bc),
            refined: RefCell::new(None),
            epoch: Cell::new(u64::MAX),
            execs: Cell::new(0),
        }
    }

    /// The cold compile: what the refine pass and the splicer copy.
    pub(crate) fn cold(&self) -> &Rc<BcBody> {
        &self.cold
    }

    /// The bytecode a run uses now: the refined copy once there is one.
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

    /// True while the body has no refined copy: every run since the epoch
    /// last outdated one has run the cold code.
    pub(crate) fn unrefined(&self) -> bool {
        self.refined.borrow().is_none()
    }
}

// ---- type-reference caches ---------------------------------------------------

/// Epoch+class guard key. Class `None` (no enclosing class) maps to 0.
pub(crate) fn class_key(class: Option<maya_types::ClassId>) -> u64 {
    match class {
        Some(c) => u64::from(c.0) + 1,
        None => 0,
    }
}

/// A memoized type-name resolution, keyed by (epoch, enclosing class).
/// Resolution failures are never cached (they re-raise identically).
pub struct TypeSlot {
    pub tn: TypeName,
    guard: Cell<(u64, u64)>,
    cached: RefCell<Option<Type>>,
}

impl TypeSlot {
    pub(crate) fn new(tn: TypeName) -> Rc<TypeSlot> {
        Rc::new(TypeSlot {
            tn,
            guard: Cell::new((0, u64::MAX)),
            cached: RefCell::new(None),
        })
    }

    /// The cached resolution under `(epoch, class)`, if filled.
    pub fn get(&self, epoch: u64, class: u64) -> Option<Type> {
        if self.guard.get() == (epoch, class) {
            return self.cached.borrow().clone();
        }
        None
    }

    /// Fills the cache for `(epoch, class)`.
    pub fn fill(&self, epoch: u64, class: u64, ty: Type) {
        self.guard.set((epoch, class));
        *self.cached.borrow_mut() = Some(ty);
    }
}

// ---- the shared store --------------------------------------------------------

/// A [`LowerStore`] key: the body's fingerprint, its parameter names, and
/// the primitive types of its parameters and then of its return type.
pub(crate) type LowerKey = (u128, Box<[Symbol]>, Box<[Option<PrimKind>]>);

/// Session-wide memo of lowered bodies, keyed by the body's structural
/// fingerprint plus its parameter names (slot assignment depends on them)
/// and its signature's primitive types (widening conversions do).
/// `None` records the *unlowerable* verdict so it is not re-derived.
/// Held in the session force cache so warm `mayad` runs reuse lowered code
/// across compilers, and bounded like it (see [`GenMemo`]): bodies no
/// recent request ran are evicted.
pub struct LowerStore {
    map: RefCell<GenMemo<LowerKey, Option<Rc<LoweredBody>>>>,
}

impl Default for LowerStore {
    fn default() -> LowerStore {
        LowerStore {
            map: RefCell::new(GenMemo::new(telemetry::CacheId::LowerStore)),
        }
    }
}

impl LowerStore {
    /// An empty store.
    pub fn new() -> LowerStore {
        LowerStore::default()
    }

    /// Looks up a memoized outcome.
    pub(crate) fn get(&self, key: &LowerKey) -> Option<Option<Rc<LoweredBody>>> {
        self.map.borrow_mut().get(key)
    }

    /// Records a freshly derived outcome.
    pub(crate) fn insert(&self, key: LowerKey, outcome: Option<Rc<LoweredBody>>) {
        self.map.borrow_mut().insert(key, outcome);
    }

    /// Marks the end of one request (see [`GenMemo::end_request`]).
    pub fn end_request(&self) {
        self.map.borrow_mut().end_request();
    }

    /// Number of memoized bodies.
    pub fn len(&self) -> usize {
        self.map.borrow().len()
    }

    /// True when nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.map.borrow().is_empty()
    }
}

// ---- the pre-pass ------------------------------------------------------------

/// The body contains syntax the bytecode cannot express (`try`, lazy
/// nodes, templates, poison nodes) or exhausts its registers; it will run
/// on the reference tree-walker.
pub(crate) struct Unlowerable;

/// What constant folding made of one expression.
pub(crate) enum Fold {
    /// It lowers to this constant.
    Const(Value),
    /// A `?:` whose condition is constant lowers to the branch that the
    /// condition picks: the first when true.
    Pick(bool),
}

/// What the emitter needs to know about a body before it emits it.
pub(crate) struct Shape {
    /// Frame slots: the parameters, then one per local declarator.
    pub n_slots: usize,
    /// Every expression that folds, by address in the AST being compiled.
    folds: HashMap<*const Expr, Fold>,
}

/// The pre-pass: sizes `block`'s frame and folds its constants bottom-up,
/// or rejects the body as unlowerable. Pure: depends only on the AST.
pub(crate) fn shape(block: &Block, n_params: usize) -> Result<Shape, Unlowerable> {
    let mut shape = Shape {
        n_slots: n_params,
        folds: HashMap::new(),
    };
    for s in &block.stmts {
        shape.stmt(s)?;
    }
    Ok(shape)
}

impl Shape {
    /// What `e` folded to, if anything.
    pub(crate) fn fold(&self, e: &Expr) -> Option<&Fold> {
        self.folds.get(&(e as *const Expr))
    }

    fn stmt(&mut self, s: &Stmt) -> Result<(), Unlowerable> {
        match &s.kind {
            StmtKind::Block(b) | StmtKind::Use(_, b) => {
                for s in &b.stmts {
                    self.stmt(s)?;
                }
            }
            StmtKind::Expr(e) | StmtKind::Throw(e) | StmtKind::Return(Some(e)) => {
                self.expr(e)?;
            }
            StmtKind::Decl(_, decls) => self.decls(decls)?,
            StmtKind::If(c, t, f) => {
                self.expr(c)?;
                self.stmt(t)?;
                if let Some(f) = f {
                    self.stmt(f)?;
                }
            }
            StmtKind::While(c, body) | StmtKind::Do(body, c) => {
                self.expr(c)?;
                self.stmt(body)?;
            }
            StmtKind::For {
                init,
                cond,
                update,
                body,
            } => {
                let init = match init {
                    ForInit::None => &[],
                    ForInit::Decl(_, decls) => {
                        self.decls(decls)?;
                        &[]
                    }
                    ForInit::Exprs(es) => &es[..],
                };
                for e in init.iter().chain(cond).chain(update) {
                    self.expr(e)?;
                }
                self.stmt(body)?;
            }
            StmtKind::Return(None) | StmtKind::Break | StmtKind::Continue | StmtKind::Empty => {}
            // `try` runs on the reference walker: the bytecode has no
            // exception handlers.
            StmtKind::Try { .. } | StmtKind::Lazy(_) | StmtKind::Error => return Err(Unlowerable),
        }
        Ok(())
    }

    fn decls(&mut self, decls: &[LocalDeclarator]) -> Result<(), Unlowerable> {
        for d in decls {
            if let Some(e) = &d.init {
                self.expr(e)?;
            }
            self.n_slots += 1;
        }
        Ok(())
    }

    /// Folds `e` bottom-up: the constant it lowers to, if any.
    fn expr(&mut self, e: &Expr) -> Result<Option<Value>, Unlowerable> {
        let folded = match &e.kind {
            ExprKind::Literal(l) => return Ok(Some(lit_value(l))),
            ExprKind::Binary(op, l, r) => {
                let l = self.expr(l)?;
                let r = self.expr(r)?;
                fold_binary(*op, l.as_ref(), r.as_ref())
            }
            ExprKind::Unary(op, x) => self.expr(x)?.and_then(|v| fold_unary(*op, &v)),
            ExprKind::Cast(tn, x) => self.expr(x)?.and_then(|v| fold_cast(tn, &v)),
            // `null instanceof T` is false for every T; no static type info
            // is available here, so only the null case folds.
            ExprKind::Instanceof(x, _) => {
                matches!(self.expr(x)?, Some(Value::Null)).then_some(Value::Bool(false))
            }
            ExprKind::Cond(c, t, f) => {
                let c = self.expr(c)?;
                let t = self.expr(t)?;
                let f = self.expr(f)?;
                // A constant condition has no effects; the walker evaluates
                // it and then exactly one branch.
                if let Some(Value::Bool(then)) = c {
                    self.folds.insert(e, Fold::Pick(then));
                    return Ok(if then { t } else { f });
                }
                None
            }
            ExprKind::Template(_) | ExprKind::Lazy(_) | ExprKind::TypeDims(_) => {
                return Err(Unlowerable)
            }
            _ => {
                for (x, store) in operands(e) {
                    // A store evaluates only its target's operands.
                    if !store || is_place(x) || no_bytecode(x) {
                        self.expr(x)?;
                    }
                }
                None
            }
        };
        if let Some(v) = &folded {
            self.folds.insert(e, Fold::Const(v.clone()));
        }
        Ok(folded)
    }
}

/// Expressions with no bytecode: the body is unlowerable.
fn no_bytecode(e: &Expr) -> bool {
    matches!(
        e.kind,
        ExprKind::Template(_) | ExprKind::Lazy(_) | ExprKind::TypeDims(_)
    )
}

/// The variable a name expression reads or writes.
pub(crate) fn name_of(e: &Expr) -> Option<Symbol> {
    match &e.kind {
        ExprKind::Name(id) => Some(id.sym),
        ExprKind::VarRef(name) => Some(*name),
        _ => None,
    }
}

/// True for the expressions an assignment can store to; any other target
/// is the walker's run-time "invalid assignment target".
pub(crate) fn is_place(e: &Expr) -> bool {
    matches!(
        e.kind,
        ExprKind::Name(_)
            | ExprKind::VarRef(_)
            | ExprKind::FieldAccess(..)
            | ExprKind::ArrayAccess(..)
    )
}

/// The operands lowering evaluates under `e`, in the walker's order, each
/// flagged `true` when it is the target of a store: a compound assignment
/// or `++`/`--` evaluates its place twice, read and then stored.
pub(crate) fn operands(e: &Expr) -> impl Iterator<Item = (&Expr, bool)> {
    let none: &[Expr] = &[];
    let (fixed, list, recv) = match &e.kind {
        ExprKind::FieldAccess(x, _)
        | ExprKind::Unary(_, x)
        | ExprKind::Cast(_, x)
        | ExprKind::Instanceof(x, _) => ([Some((&**x, false)), None, None], none, None),
        ExprKind::ArrayAccess(a, b) | ExprKind::Binary(_, a, b) => {
            ([Some((&**a, false)), Some((&**b, false)), None], none, None)
        }
        ExprKind::IncDec(_, _, x) => ([Some((&**x, false)), Some((&**x, true)), None], none, None),
        ExprKind::Assign(op, l, r) => {
            let read = op.map(|_| (&**l, false));
            ([Some((&**r, false)), read, Some((&**l, true))], none, None)
        }
        ExprKind::Cond(c, t, f) => ([c, t, f].map(|x| Some((&**x, false))), none, None),
        ExprKind::New(_, args) | ExprKind::NewArray { dims: args, .. } => {
            ([None; 3], &args[..], None)
        }
        // Arguments first, then the receiver; `super.m()` evaluates none.
        ExprKind::Call(mn, args) => {
            let recv = mn.receiver.as_deref().filter(|_| !mn.super_recv);
            ([None; 3], &args[..], recv)
        }
        _ => ([None; 3], none, None),
    };
    fixed
        .into_iter()
        .flatten()
        .chain(list.iter().map(|a| (a, false)))
        .chain(recv.map(|r| (r, false)))
}

// ---- constant folding --------------------------------------------------------

pub(crate) fn lit_value(l: &Lit) -> Value {
    match l {
        Lit::Int(v) => Value::Int(*v),
        Lit::Long(v) => Value::Long(*v),
        Lit::Float(v) => Value::Float(*v),
        Lit::Double(v) => Value::Double(*v),
        Lit::Bool(v) => Value::Bool(*v),
        Lit::Char(c) => Value::Char(*c),
        Lit::Str(s) => Value::str(s.as_str()),
        Lit::Null => Value::Null,
    }
}

/// Renders a constant the way `Interp::display` would.  Constants are
/// primitives, strings, or null, so no `toString` dispatch is possible.
fn display_const(v: &Value) -> Option<String> {
    Some(match v {
        Value::Null => "null".into(),
        Value::Bool(b) => b.to_string(),
        Value::Char(c) => c.to_string(),
        Value::Int(i) => i.to_string(),
        Value::Long(l) => l.to_string(),
        Value::Float(f) => f.to_string(),
        Value::Double(d) => d.to_string(),
        Value::Str(s) => s.to_string(),
        _ => return None,
    })
}

fn is_num(v: &Value) -> bool {
    matches!(
        v,
        Value::Int(_) | Value::Long(_) | Value::Float(_) | Value::Double(_) | Value::Char(_)
    )
}

fn as_f64(v: &Value) -> f64 {
    match v {
        Value::Int(i) => *i as f64,
        Value::Long(l) => *l as f64,
        Value::Float(f) => *f as f64,
        Value::Double(d) => *d,
        Value::Char(c) => *c as u32 as f64,
        _ => 0.0,
    }
}

fn as_i64(v: &Value) -> i64 {
    match v {
        Value::Int(i) => *i as i64,
        Value::Long(l) => *l,
        Value::Char(c) => *c as u32 as i64,
        Value::Float(f) => *f as i64,
        Value::Double(d) => *d as i64,
        _ => 0,
    }
}

/// Folds `l op r` over the sides' constants (`None`: not constant) when
/// the operation is *infallible* — it can neither throw (integer `/ 0`)
/// nor dispatch.  The arithmetic mirrors `Interp::binary_values` exactly.
fn fold_binary(op: BinOp, lv: Option<&Value>, rv: Option<&Value>) -> Option<Value> {
    use BinOp::*;
    // Short-circuit folds that do not need the right side evaluated.
    if op == And && matches!(lv, Some(Value::Bool(false))) {
        return Some(Value::Bool(false));
    }
    if op == Or && matches!(lv, Some(Value::Bool(true))) {
        return Some(Value::Bool(true));
    }
    let (lv, rv) = (lv?, rv?);
    // String concatenation of constants.
    if op == Add && (matches!(lv, Value::Str(_)) || matches!(rv, Value::Str(_))) {
        let s = format!("{}{}", display_const(lv)?, display_const(rv)?);
        return Some(Value::str(&s));
    }
    if matches!(op, Eq | Ne) {
        let eq = if is_num(lv) && is_num(rv) {
            as_f64(lv) == as_f64(rv)
        } else {
            lv.ref_eq(rv)
        };
        return Some(Value::Bool(if op == Eq { eq } else { !eq }));
    }
    if let (Value::Bool(a), Value::Bool(b)) = (lv, rv) {
        return Some(Value::Bool(match op {
            BitAnd => a & b,
            BitOr => a | b,
            BitXor => a ^ b,
            And => *a && *b,
            Or => *a || *b,
            _ => return None,
        }));
    }
    if !is_num(lv) || !is_num(rv) {
        return None;
    }
    let rank = |v: &Value| match v {
        Value::Double(_) => 4,
        Value::Float(_) => 3,
        Value::Long(_) => 2,
        _ => 1,
    };
    let r = rank(lv).max(rank(rv));
    match r {
        4 | 3 => {
            let a = as_f64(lv);
            let b = as_f64(rv);
            let out = match op {
                Add => a + b,
                Sub => a - b,
                Mul => a * b,
                Div => a / b,
                Rem => a % b,
                Lt => return Some(Value::Bool(a < b)),
                Gt => return Some(Value::Bool(a > b)),
                Le => return Some(Value::Bool(a <= b)),
                Ge => return Some(Value::Bool(a >= b)),
                _ => return None,
            };
            Some(if r == 4 {
                Value::Double(out)
            } else {
                Value::Float(out as f32)
            })
        }
        2 => {
            let a = as_i64(lv);
            let b = as_i64(rv);
            Some(match op {
                Add => Value::Long(a.wrapping_add(b)),
                Sub => Value::Long(a.wrapping_sub(b)),
                Mul => Value::Long(a.wrapping_mul(b)),
                // Div/Rem can throw ArithmeticException — never folded.
                Shl => Value::Long(a.wrapping_shl(b as u32 & 63)),
                Shr => Value::Long(a.wrapping_shr(b as u32 & 63)),
                Ushr => Value::Long(((a as u64) >> (b as u32 & 63)) as i64),
                BitAnd => Value::Long(a & b),
                BitOr => Value::Long(a | b),
                BitXor => Value::Long(a ^ b),
                Lt => Value::Bool(a < b),
                Gt => Value::Bool(a > b),
                Le => Value::Bool(a <= b),
                Ge => Value::Bool(a >= b),
                _ => return None,
            })
        }
        _ => {
            let a = as_i64(lv) as i32;
            let b = as_i64(rv) as i32;
            Some(match op {
                Add => Value::Int(a.wrapping_add(b)),
                Sub => Value::Int(a.wrapping_sub(b)),
                Mul => Value::Int(a.wrapping_mul(b)),
                Shl => Value::Int(a.wrapping_shl(b as u32 & 31)),
                Shr => Value::Int(a.wrapping_shr(b as u32 & 31)),
                Ushr => Value::Int(((a as u32) >> (b as u32 & 31)) as i32),
                BitAnd => Value::Int(a & b),
                BitOr => Value::Int(a | b),
                BitXor => Value::Int(a ^ b),
                Lt => Value::Bool(a < b),
                Gt => Value::Bool(a > b),
                Le => Value::Bool(a <= b),
                Ge => Value::Bool(a >= b),
                _ => return None,
            })
        }
    }
}

/// Folds unary operators on matching constants (mirrors
/// `Interp::eval_unary`; invalid combinations stay for the runtime error).
fn fold_unary(op: UnOp, v: &Value) -> Option<Value> {
    Some(match (op, v) {
        (UnOp::Neg, Value::Int(i)) => Value::Int(i.wrapping_neg()),
        (UnOp::Neg, Value::Long(l)) => Value::Long(l.wrapping_neg()),
        (UnOp::Neg, Value::Float(f)) => Value::Float(-f),
        (UnOp::Neg, Value::Double(d)) => Value::Double(-d),
        (UnOp::Plus, v @ (Value::Int(_) | Value::Long(_) | Value::Float(_) | Value::Double(_))) => {
            v.clone()
        }
        (UnOp::Not, Value::Bool(b)) => Value::Bool(!b),
        (UnOp::BitNot, Value::Int(i)) => Value::Int(!i),
        (UnOp::BitNot, Value::Long(l)) => Value::Long(!l),
        _ => return None,
    })
}

/// Folds primitive casts of numeric constants by the conversion
/// `Interp::cast` makes. Boolean targets error at runtime and reference
/// targets need resolution, so neither folds.
fn fold_cast(tn: &TypeName, v: &Value) -> Option<Value> {
    match &tn.kind {
        TypeNameKind::Prim(p) => widen::convert(v, *p),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::{compile, Instr};
    use maya_ast::Ident;
    use maya_lexer::sym;

    fn lower(stmts: Vec<Stmt>, params: &[&str]) -> Result<BcBody, Unlowerable> {
        let params: Vec<Symbol> = params.iter().map(|p| sym(p)).collect();
        compile(&Block::synth(stmts), &params, &[])
    }

    fn decl(ty: TypeName, name: &str, init: Expr) -> Stmt {
        Stmt::synth(StmtKind::Decl(
            ty,
            vec![LocalDeclarator {
                name: Ident::from_str(name),
                dims: 0,
                init: Some(init),
            }],
        ))
    }

    fn bin(op: BinOp, l: Expr, r: Expr) -> Expr {
        Expr::synth(ExprKind::Binary(op, Box::new(l), Box::new(r)))
    }

    #[test]
    fn params_and_locals_get_slots() {
        let bc = lower(
            vec![
                decl(TypeName::prim(PrimKind::Int), "x", Expr::name("a")),
                Stmt::expr(Expr::name("x")),
            ],
            &["a", "b"],
        )
        .ok()
        .expect("lowerable");
        assert_eq!(bc.n_params, 2);
        assert_eq!(bc.n_locals, 3);
        // The init copies param slot 0 into local slot 2; the statement
        // `x;` reads a slot and emits nothing.
        assert!(bc
            .code
            .iter()
            .any(|i| matches!(i, Instr::Move { dst: 2, src: 0 })));
    }

    #[test]
    fn unbound_names_stay_symbolic() {
        let bc = lower(vec![Stmt::expr(Expr::name("field"))], &[])
            .ok()
            .expect("lowerable");
        assert!(bc.code.iter().any(|i| matches!(i, Instr::EnvLoad { .. })));
    }

    #[test]
    fn folding_arithmetic_and_strings() {
        let bc = lower(
            vec![
                decl(
                    TypeName::prim(PrimKind::Int),
                    "five",
                    bin(BinOp::Add, Expr::int(2), Expr::int(3)),
                ),
                decl(
                    TypeName::named("String"),
                    "s",
                    bin(BinOp::Add, Expr::str_lit("n="), Expr::int(7)),
                ),
                Stmt::expr(bin(BinOp::Div, Expr::int(1), Expr::int(0))),
            ],
            &[],
        )
        .ok()
        .expect("lowerable");
        let preloads: Vec<&Value> = bc.preloads.iter().map(|(_, v)| v).collect();
        assert!(preloads.iter().any(|v| matches!(v, Value::Int(5))));
        assert!(preloads
            .iter()
            .any(|v| matches!(v, Value::Str(s) if &**s == "n=7")));
        // Folded operands are never materialized.
        assert!(!preloads
            .iter()
            .any(|v| matches!(v, Value::Int(2) | Value::Int(3))));
        // Integer division can throw: never folded.
        assert!(bc
            .code
            .iter()
            .any(|i| matches!(i, Instr::Binary { op: BinOp::Div, .. })));
    }

    #[test]
    fn lazy_statement_is_unlowerable() {
        let stmts = vec![Stmt::synth(StmtKind::Error)];
        assert!(lower(stmts, &[]).is_err());
    }

    #[test]
    fn try_body_is_unlowerable() {
        // try/finally has no bytecode: the body is unlowerable.
        let stmts = vec![Stmt::synth(StmtKind::Try {
            body: Block::synth(vec![Stmt::expr(Expr::int(1))]),
            catches: vec![],
            finally: Some(Block::synth(vec![Stmt::expr(Expr::int(2))])),
        })];
        assert!(lower(stmts, &[]).is_err());
    }
}
