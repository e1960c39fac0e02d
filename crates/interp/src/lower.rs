//! Runtime lowering: typed bodies → slot-resolved, pre-folded code, then
//! bytecode.
//!
//! After type checking (and lazy forcing), a method or constructor body is
//! lowered once into a [`LoweredBody`]:
//!
//! * **Slot resolution** — every local/parameter reference becomes a fixed
//!   frame-slot index; only names that are *not* statically bound (implicit
//!   `this` fields, statics, class names) stay symbolic ([`LExprKind::EnvName`]).
//! * **Constant folding** — literal arithmetic, constant string
//!   concatenation, constant conditionals, `null instanceof T`, and numeric
//!   primitive casts are folded bottom-up.  Only *infallible* operations
//!   fold (integer `/`/`%` can throw, so they never fold), and statements
//!   are never folded away, keeping step counting identical to the
//!   tree-walker.
//! * **Bytecode** — the lowered IR is the input of the bytecode compiler
//!   (`bytecode.rs`), which runs right away: every lowered body carries its
//!   cold bytecode, and the VM (`vm.rs`) is the only executor of lowered
//!   code.  Type references keep a private cache ([`TypeSlot`]) filled at
//!   run time and guarded by the interpreter's cache *epoch* (see
//!   `layout.rs`), so a lowered body contains no environment-dependent data
//!   and can be shared between compilers in a session.
//!
//! Lowering is a pure function of the body's AST and its parameter names.
//! Bodies containing `try`, unforced lazy nodes, templates, or poison
//! nodes — and bodies the bytecode compiler declines — are *unlowerable*
//! and execute on the reference tree walker in `interp.rs`; the
//! [`LowerStore`] memoizes both outcomes per structural fingerprint so warm
//! `mayad` runs skip the analysis entirely. The memo is in-memory only:
//! the persistent store (`--cache-dir`) keeps LALR tables and whole-request
//! outcomes, never bodies, so a fresh process lowers every body it runs.
//!
//! Evaluation order, error messages, error spans, and observable side
//! effects are mirrored from `interp.rs` exactly — the conformance corpus
//! must be byte-identical with lowering on and off.

use crate::Value;
use maya_ast::{
    fingerprint_block, BinOp, Block, Expr, ExprKind, ForInit, IncDecOp, Lit, MethodName, PrimKind,
    Stmt, StmtKind, TypeName, TypeNameKind, UnOp,
};
use maya_lexer::{Span, Symbol};
use maya_telemetry as telemetry;
use maya_telemetry::GenMemo;
use maya_types::Type;
use std::cell::{Cell, RefCell};
use std::rc::Rc;

// ---- lowered IR --------------------------------------------------------------

/// A lowered body and its bytecode.
pub struct LoweredBody {
    /// Number of leading slots filled from call arguments.
    pub n_params: usize,
    /// Total frame-slot count (params + every local ever declared).
    pub n_slots: usize,
    /// Top-level statements (the body block's statements): the input of
    /// the bytecode compiler's refine pass.
    pub code: Vec<LStmt>,
    /// The body's bytecode. Lives on the lowered body so it rides the
    /// [`LowerStore`] memo keying and is shared between compilers in a
    /// session.
    pub(crate) bc: crate::bytecode::BcState,
}

/// A lowered statement.
pub struct LStmt {
    pub span: Span,
    pub kind: LStmtKind,
}

/// One declarator of a lowered local declaration.
pub struct LDecl {
    pub slot: u32,
    /// Trailing `[]` pairs on the declarator.
    pub dims: u32,
    pub init: Option<LExpr>,
}

/// The shape of a lowered statement.  Scoping is resolved at lowering time,
/// so blocks are plain statement lists.
pub enum LStmtKind {
    Block(Vec<LStmt>),
    Expr(LExpr),
    Decl {
        ty: Rc<TypeSlot>,
        decls: Vec<LDecl>,
    },
    If(LExpr, Box<LStmt>, Option<Box<LStmt>>),
    While(LExpr, Box<LStmt>),
    Do(Box<LStmt>, LExpr),
    For {
        /// A synthesized `Decl` statement (legacy executes the init decl as
        /// a statement with a dummy span, charging one step).
        init_decl: Option<Box<LStmt>>,
        init_exprs: Vec<LExpr>,
        cond: Option<LExpr>,
        update: Vec<LExpr>,
        body: Box<LStmt>,
    },
    Return(Option<LExpr>),
    Break,
    Continue,
    Throw(LExpr),
    Empty,
}

/// A lowered expression.
pub struct LExpr {
    pub span: Span,
    pub kind: LExprKind,
}

/// The shape of a lowered expression.
pub enum LExprKind {
    /// A literal or folded constant.
    Const(Value),
    /// A statically resolved local/parameter slot.
    Local(u32),
    /// A name with no static binding: implicit-`this` field, static field,
    /// or class reference — resolved by the legacy environment walk.
    EnvName(Symbol),
    This,
    FieldGet {
        target: Box<LExpr>,
        name: Symbol,
    },
    ArrayGet(Box<LExpr>, Box<LExpr>),
    New {
        ty: Rc<TypeSlot>,
        args: Vec<LExpr>,
    },
    NewArray {
        elem: Rc<TypeSlot>,
        extra_dims: u32,
        dims: Vec<LExpr>,
    },
    Binary(BinOp, Box<LExpr>, Box<LExpr>),
    Unary(UnOp, Box<LExpr>),
    IncDec {
        op: IncDecOp,
        prefix: bool,
        /// The place read as an r-value (legacy evaluates it once…)
        read: Box<LExpr>,
        /// …then re-evaluates its sub-expressions when storing.
        write: LTarget,
    },
    Assign {
        /// For compound assignment: the operator and the place read as an
        /// r-value (legacy evaluates the place twice; both copies are
        /// lowered separately).
        compound: Option<(BinOp, Box<LExpr>)>,
        write: LTarget,
        value: Box<LExpr>,
    },
    Cond(Box<LExpr>, Box<LExpr>, Box<LExpr>),
    Cast {
        ty: Rc<TypeSlot>,
        x: Box<LExpr>,
    },
    Instanceof {
        x: Box<LExpr>,
        ty: Rc<TypeSlot>,
    },
    Call {
        callee: LCallee,
        args: Vec<LExpr>,
    },
    /// `ExprKind::ClassRef` — a strict class reference by fully qualified
    /// name.
    ClassRefName(Symbol),
}

/// What is left of `(` in a lowered call.
pub enum LCallee {
    /// `recv.name(...)`.
    Recv(Box<LExpr>, Symbol),
    /// `super.name(...)`.
    Super(Symbol),
    /// `name(...)` — implicit `this` or static context.
    Implicit(Symbol),
}

/// A lowered assignment target.
pub enum LTarget {
    Local(u32),
    EnvName(Symbol, Span),
    Field {
        target: Box<LExpr>,
        name: Symbol,
        span: Span,
    },
    Array {
        arr: Box<LExpr>,
        idx: Box<LExpr>,
        span: Span,
    },
    /// Legacy reports "invalid assignment target" at run time.
    Invalid(Span),
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

/// Session-wide memo of lowered bodies, keyed by the body's structural
/// fingerprint plus its parameter names (slot assignment depends on them).
/// `None` records the *unlowerable* verdict so it is not re-derived.
/// Held in the session force cache so warm `mayad` runs reuse lowered code
/// across compilers, and bounded like it (see [`GenMemo`]): bodies no
/// recent request ran are evicted.
pub struct LowerStore {
    map: RefCell<GenMemo<(u128, Box<[Symbol]>), Option<Rc<LoweredBody>>>>,
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
    pub fn get(&self, fp: u128, params: &[Symbol]) -> Option<Option<Rc<LoweredBody>>> {
        self.map
            .borrow_mut()
            .get(&(fp, params.to_vec().into_boxed_slice()))
    }

    /// Records a freshly derived outcome.
    pub fn insert(&self, fp: u128, params: &[Symbol], outcome: Option<Rc<LoweredBody>>) {
        self.map
            .borrow_mut()
            .insert((fp, params.to_vec().into_boxed_slice()), outcome);
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

/// Fingerprints a body block for the shared store (None: no stable shape).
pub fn body_fingerprint(block: &Block) -> Option<u128> {
    fingerprint_block(block)
}

// ---- the lowerer -------------------------------------------------------------

/// The body contains syntax the lowerer or the bytecode compiler cannot
/// handle (`try`, lazy nodes, templates, poison nodes, register
/// exhaustion); it will run on the reference tree-walker.
pub(crate) struct Unlowerable;

type Lower<T> = Result<T, Unlowerable>;

/// Lowers a body block and compiles its cold bytecode.  Pure: depends only
/// on the AST and `params`.
pub(crate) fn lower_body(block: &Block, params: &[Symbol]) -> Result<LoweredBody, Unlowerable> {
    let mut lw = Lowerer::new(params);
    let code = lw.stmts(&block.stmts)?;
    maya_telemetry::add(maya_telemetry::Counter::SlotsResolved, lw.slots_resolved);
    maya_telemetry::add(maya_telemetry::Counter::ConstsFolded, lw.consts_folded);
    let n_slots = lw.next_slot as usize;
    let bc = crate::bytecode::compile(&code, params.len(), n_slots, &[], None)
        .map_err(|_| Unlowerable)?;
    maya_telemetry::count(maya_telemetry::Counter::BcCompiled);
    maya_telemetry::add(
        maya_telemetry::Counter::BcSuperinsts,
        bc.super_pcs.len() as u64,
    );
    Ok(LoweredBody {
        n_params: params.len(),
        n_slots,
        code,
        bc: crate::bytecode::BcState::new(bc),
    })
}

struct Lowerer {
    /// Lexical scopes of (name → slot); innermost last.  Parameters live in
    /// the outermost scope, like the legacy frame's single starting scope.
    scopes: Vec<Vec<(Symbol, u32)>>,
    /// Monotonic; slots are never reused, so a frame is one flat `Vec`.
    next_slot: u32,
    slots_resolved: u64,
    consts_folded: u64,
}

impl Lowerer {
    fn new(params: &[Symbol]) -> Lowerer {
        let mut lw = Lowerer {
            scopes: vec![Vec::new()],
            next_slot: 0,
            slots_resolved: 0,
            consts_folded: 0,
        };
        for p in params {
            let slot = lw.next_slot;
            lw.next_slot += 1;
            lw.scopes[0].push((*p, slot));
        }
        lw
    }

    fn push(&mut self) {
        self.scopes.push(Vec::new());
    }

    fn pop(&mut self) {
        self.scopes.pop();
    }

    /// Declares a fresh slot for `name` in the innermost scope.  A
    /// redeclaration in the same scope gets a new slot; later references
    /// resolve to it, which observes identically to the legacy HashMap
    /// overwrite.
    fn declare(&mut self, name: Symbol) -> u32 {
        let slot = self.next_slot;
        self.next_slot += 1;
        self.scopes
            .last_mut()
            .expect("lowerer has a scope")
            .push((name, slot));
        slot
    }

    fn resolve(&mut self, name: Symbol) -> Option<u32> {
        for scope in self.scopes.iter().rev() {
            if let Some((_, slot)) = scope.iter().rev().find(|(n, _)| *n == name) {
                self.slots_resolved += 1;
                return Some(*slot);
            }
        }
        None
    }

    fn stmts(&mut self, stmts: &[Stmt]) -> Lower<Vec<LStmt>> {
        stmts.iter().map(|s| self.stmt(s)).collect()
    }

    /// Lowers a block with its own scope.
    fn block(&mut self, stmts: &[Stmt]) -> Lower<Vec<LStmt>> {
        self.push();
        let r = self.stmts(stmts);
        self.pop();
        r
    }

    fn stmt(&mut self, s: &Stmt) -> Lower<LStmt> {
        let kind = match &s.kind {
            StmtKind::Block(b) => LStmtKind::Block(self.block(&b.stmts)?),
            StmtKind::Expr(e) => LStmtKind::Expr(self.expr(e)?),
            StmtKind::Decl(tn, decls) => self.decl(tn, decls)?,
            StmtKind::If(c, t, f) => LStmtKind::If(
                self.expr(c)?,
                Box::new(self.stmt(t)?),
                match f {
                    Some(f) => Some(Box::new(self.stmt(f)?)),
                    None => None,
                },
            ),
            StmtKind::While(c, body) => {
                LStmtKind::While(self.expr(c)?, Box::new(self.stmt(body)?))
            }
            StmtKind::Do(body, c) => LStmtKind::Do(Box::new(self.stmt(body)?), self.expr(c)?),
            StmtKind::For {
                init,
                cond,
                update,
                body,
            } => {
                self.push();
                let r = (|| {
                    let (init_decl, init_exprs) = match init {
                        ForInit::None => (None, Vec::new()),
                        ForInit::Decl(tn, decls) => {
                            // Legacy synthesizes a dummy-span Decl statement
                            // and executes it (one step charged).
                            let kind = self.decl(tn, decls)?;
                            (
                                Some(Box::new(LStmt {
                                    span: Span::DUMMY,
                                    kind,
                                })),
                                Vec::new(),
                            )
                        }
                        ForInit::Exprs(es) => {
                            (None, es.iter().map(|e| self.expr(e)).collect::<Lower<_>>()?)
                        }
                    };
                    let cond = match cond {
                        Some(c) => Some(self.expr(c)?),
                        None => None,
                    };
                    let update = update.iter().map(|u| self.expr(u)).collect::<Lower<_>>()?;
                    let body = Box::new(self.stmt(body)?);
                    Ok(LStmtKind::For {
                        init_decl,
                        init_exprs,
                        cond,
                        update,
                        body,
                    })
                })();
                self.pop();
                r?
            }
            StmtKind::Return(e) => LStmtKind::Return(match e {
                Some(e) => Some(self.expr(e)?),
                None => None,
            }),
            StmtKind::Break => LStmtKind::Break,
            StmtKind::Continue => LStmtKind::Continue,
            StmtKind::Throw(e) => LStmtKind::Throw(self.expr(e)?),
            // Imports are compile-time; at runtime `use` is just a scope.
            StmtKind::Use(_, body) => LStmtKind::Block(self.block(&body.stmts)?),
            StmtKind::Empty => LStmtKind::Empty,
            // `try` runs on the reference walker: the bytecode has no
            // exception handlers.
            StmtKind::Try { .. } | StmtKind::Lazy(_) | StmtKind::Error => return Err(Unlowerable),
        };
        Ok(LStmt { span: s.span, kind })
    }

    fn decl(&mut self, tn: &TypeName, decls: &[maya_ast::LocalDeclarator]) -> Lower<LStmtKind> {
        let ty = TypeSlot::new(tn.clone());
        let mut out = Vec::with_capacity(decls.len());
        for d in decls {
            // The initializer is lowered *before* the name is bound, so
            // `int x = x;` resolves the right-hand `x` to the outer
            // binding (or the environment), exactly like the legacy
            // eval-then-declare order.
            let init = match &d.init {
                Some(e) => Some(self.expr(e)?),
                None => None,
            };
            let slot = self.declare(d.name.sym);
            out.push(LDecl {
                slot,
                dims: d.dims,
                init,
            });
        }
        Ok(LStmtKind::Decl { ty, decls: out })
    }

    fn expr(&mut self, e: &Expr) -> Lower<LExpr> {
        let kind = match &e.kind {
            ExprKind::Literal(l) => LExprKind::Const(lit_value(l)),
            ExprKind::Name(id) => self.name(id.sym),
            ExprKind::VarRef(name) => self.name(*name),
            ExprKind::ClassRef(fqcn) => LExprKind::ClassRefName(*fqcn),
            ExprKind::FieldAccess(target, name) => LExprKind::FieldGet {
                target: Box::new(self.expr(target)?),
                name: name.sym,
            },
            ExprKind::Call(mn, args) => self.call(mn, args)?,
            ExprKind::ArrayAccess(a, i) => {
                LExprKind::ArrayGet(Box::new(self.expr(a)?), Box::new(self.expr(i)?))
            }
            ExprKind::New(tn, args) => LExprKind::New {
                ty: TypeSlot::new(tn.clone()),
                args: args.iter().map(|a| self.expr(a)).collect::<Lower<_>>()?,
            },
            ExprKind::NewArray {
                elem,
                dims,
                extra_dims,
            } => LExprKind::NewArray {
                elem: TypeSlot::new(elem.clone()),
                extra_dims: *extra_dims,
                dims: dims.iter().map(|d| self.expr(d)).collect::<Lower<_>>()?,
            },
            ExprKind::Binary(op, l, r) => {
                let l = self.expr(l)?;
                let r = self.expr(r)?;
                match fold_binary(*op, &l, &r) {
                    Some(v) => {
                        self.consts_folded += 1;
                        LExprKind::Const(v)
                    }
                    None => LExprKind::Binary(*op, Box::new(l), Box::new(r)),
                }
            }
            ExprKind::Unary(op, x) => {
                let x = self.expr(x)?;
                match fold_unary(*op, &x) {
                    Some(v) => {
                        self.consts_folded += 1;
                        LExprKind::Const(v)
                    }
                    None => LExprKind::Unary(*op, Box::new(x)),
                }
            }
            ExprKind::IncDec(op, prefix, x) => LExprKind::IncDec {
                op: *op,
                prefix: *prefix,
                read: Box::new(self.expr(x)?),
                write: self.target(x)?,
            },
            ExprKind::Assign(op, l, r) => {
                // Legacy order: evaluate the r-value, then (for compound
                // ops) the place as an r-value, then store — re-evaluating
                // the place's sub-expressions.
                let value = Box::new(self.expr(r)?);
                let compound = match op {
                    Some(op) => Some((*op, Box::new(self.expr(l)?))),
                    None => None,
                };
                let write = self.target(l)?;
                LExprKind::Assign {
                    compound,
                    write,
                    value,
                }
            }
            ExprKind::Cond(c, t, f) => {
                let c = self.expr(c)?;
                let t = self.expr(t)?;
                let f = self.expr(f)?;
                // A constant condition has no effects; legacy evaluates it
                // and then exactly one branch.
                if let LExprKind::Const(Value::Bool(b)) = c.kind {
                    self.consts_folded += 1;
                    return Ok(if b { t } else { f });
                }
                LExprKind::Cond(Box::new(c), Box::new(t), Box::new(f))
            }
            ExprKind::Cast(tn, x) => {
                let x = self.expr(x)?;
                if let Some(v) = fold_cast(tn, &x) {
                    self.consts_folded += 1;
                    LExprKind::Const(v)
                } else {
                    LExprKind::Cast {
                        ty: TypeSlot::new(tn.clone()),
                        x: Box::new(x),
                    }
                }
            }
            ExprKind::Instanceof(x, tn) => {
                let x = self.expr(x)?;
                // `null instanceof T` is false for every T; no static type
                // info is available at lowering time, so only the null case
                // folds.
                if let LExprKind::Const(Value::Null) = x.kind {
                    self.consts_folded += 1;
                    LExprKind::Const(Value::Bool(false))
                } else {
                    LExprKind::Instanceof {
                        x: Box::new(x),
                        ty: TypeSlot::new(tn.clone()),
                    }
                }
            }
            ExprKind::This => LExprKind::This,
            ExprKind::Template(_) | ExprKind::Lazy(_) | ExprKind::TypeDims(_) => {
                return Err(Unlowerable)
            }
        };
        Ok(LExpr { span: e.span, kind })
    }

    fn name(&mut self, name: Symbol) -> LExprKind {
        match self.resolve(name) {
            Some(slot) => LExprKind::Local(slot),
            None => LExprKind::EnvName(name),
        }
    }

    fn call(&mut self, mn: &MethodName, args: &[Expr]) -> Lower<LExprKind> {
        // Legacy evaluates arguments first, then the receiver.
        let largs = args.iter().map(|a| self.expr(a)).collect::<Lower<_>>()?;
        let callee = if mn.super_recv {
            LCallee::Super(mn.name.sym)
        } else {
            match &mn.receiver {
                Some(recv) => LCallee::Recv(Box::new(self.expr(recv)?), mn.name.sym),
                None => LCallee::Implicit(mn.name.sym),
            }
        };
        Ok(LExprKind::Call {
            callee,
            args: largs,
        })
    }

    fn target(&mut self, e: &Expr) -> Lower<LTarget> {
        Ok(match &e.kind {
            ExprKind::Name(id) => match self.resolve(id.sym) {
                Some(slot) => LTarget::Local(slot),
                None => LTarget::EnvName(id.sym, e.span),
            },
            ExprKind::VarRef(name) => match self.resolve(*name) {
                Some(slot) => LTarget::Local(slot),
                None => LTarget::EnvName(*name, e.span),
            },
            ExprKind::FieldAccess(t, name) => LTarget::Field {
                target: Box::new(self.expr(t)?),
                name: name.sym,
                span: e.span,
            },
            ExprKind::ArrayAccess(a, i) => LTarget::Array {
                arr: Box::new(self.expr(a)?),
                idx: Box::new(self.expr(i)?),
                span: e.span,
            },
            ExprKind::Lazy(_) | ExprKind::Template(_) | ExprKind::TypeDims(_) => {
                return Err(Unlowerable)
            }
            _ => LTarget::Invalid(e.span),
        })
    }
}

// ---- constant folding --------------------------------------------------------

fn lit_value(l: &Lit) -> Value {
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

fn const_of(e: &LExpr) -> Option<&Value> {
    match &e.kind {
        LExprKind::Const(v) => Some(v),
        _ => None,
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

/// Folds `l op r` when both sides are constants and the operation is
/// *infallible* — it can neither throw (integer `/ 0`) nor dispatch.  The
/// arithmetic mirrors `Interp::binary_values` exactly.
fn fold_binary(op: BinOp, le: &LExpr, re: &LExpr) -> Option<Value> {
    use BinOp::*;
    // Short-circuit folds that do not need the right side evaluated.
    if op == And {
        if let Some(Value::Bool(false)) = const_of(le) {
            return Some(Value::Bool(false));
        }
    }
    if op == Or {
        if let Some(Value::Bool(true)) = const_of(le) {
            return Some(Value::Bool(true));
        }
    }
    let lv = const_of(le)?;
    let rv = const_of(re)?;
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
fn fold_unary(op: UnOp, xe: &LExpr) -> Option<Value> {
    let v = const_of(xe)?;
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

/// Folds primitive casts of numeric constants (mirrors `Interp::cast`).
/// Boolean targets error at runtime and reference targets need resolution,
/// so neither folds.
fn fold_cast(tn: &TypeName, xe: &LExpr) -> Option<Value> {
    let TypeNameKind::Prim(p) = &tn.kind else {
        return None;
    };
    let v = const_of(xe)?;
    let d = match v {
        Value::Int(i) => *i as f64,
        Value::Long(l) => *l as f64,
        Value::Float(f) => *f as f64,
        Value::Double(d) => *d,
        Value::Char(c) => *c as u32 as f64,
        _ => return None,
    };
    Some(match p {
        PrimKind::Byte => Value::Int(d as i64 as i8 as i32),
        PrimKind::Short => Value::Int(d as i64 as i16 as i32),
        PrimKind::Int => Value::Int(d as i64 as i32),
        PrimKind::Long => Value::Long(d as i64),
        PrimKind::Float => Value::Float(d as f32),
        PrimKind::Double => Value::Double(d),
        PrimKind::Char => Value::Char(char::from_u32((d as i64 as u32) & 0xFFFF).unwrap_or('\0')),
        PrimKind::Boolean => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use maya_ast::Ident;
    use maya_lexer::sym;

    fn lower(stmts: Vec<Stmt>, params: &[&str]) -> LoweredBody {
        let params: Vec<Symbol> = params.iter().map(|p| sym(p)).collect();
        lower_body(&Block::synth(stmts), &params).ok().expect("lowerable")
    }

    fn bin(op: BinOp, l: Expr, r: Expr) -> Expr {
        Expr::synth(ExprKind::Binary(op, Box::new(l), Box::new(r)))
    }

    #[test]
    fn params_and_locals_get_slots() {
        let body = lower(
            vec![
                Stmt::synth(StmtKind::Decl(
                    TypeName::prim(PrimKind::Int),
                    vec![maya_ast::LocalDeclarator {
                        name: Ident::from_str("x"),
                        dims: 0,
                        init: Some(Expr::name("a")),
                    }],
                )),
                Stmt::expr(Expr::name("x")),
            ],
            &["a", "b"],
        );
        assert_eq!(body.n_params, 2);
        assert_eq!(body.n_slots, 3);
        // The init reads param slot 0; the statement reads local slot 2.
        let LStmtKind::Decl { decls, .. } = &body.code[0].kind else {
            panic!("decl");
        };
        assert_eq!(decls[0].slot, 2);
        assert!(matches!(
            decls[0].init.as_ref().unwrap().kind,
            LExprKind::Local(0)
        ));
        let LStmtKind::Expr(e) = &body.code[1].kind else {
            panic!("expr");
        };
        assert!(matches!(e.kind, LExprKind::Local(2)));
    }

    #[test]
    fn unbound_names_stay_symbolic() {
        let body = lower(vec![Stmt::expr(Expr::name("field"))], &[]);
        let LStmtKind::Expr(e) = &body.code[0].kind else {
            panic!("expr");
        };
        assert!(matches!(e.kind, LExprKind::EnvName(_)));
    }

    #[test]
    fn folding_arithmetic_and_strings() {
        let body = lower(
            vec![
                Stmt::expr(bin(BinOp::Add, Expr::int(2), Expr::int(3))),
                Stmt::expr(bin(BinOp::Add, Expr::str_lit("n="), Expr::int(7))),
                Stmt::expr(bin(BinOp::Div, Expr::int(1), Expr::int(0))),
            ],
            &[],
        );
        let consts: Vec<Option<&Value>> = body
            .code
            .iter()
            .map(|s| match &s.kind {
                LStmtKind::Expr(e) => const_of(e),
                _ => None,
            })
            .collect();
        assert!(matches!(consts[0], Some(Value::Int(5))));
        assert!(matches!(consts[1], Some(Value::Str(s)) if &**s == "n=7"));
        // Integer division can throw: never folded.
        assert!(consts[2].is_none());
    }

    #[test]
    fn lazy_statement_is_unlowerable() {
        let stmts = vec![Stmt::synth(StmtKind::Error)];
        assert!(lower_body(&Block::synth(stmts), &[]).is_err());
    }

    #[test]
    fn try_body_is_unlowerable() {
        // try/finally has no bytecode: the body is unlowerable.
        let stmts = vec![Stmt::synth(StmtKind::Try {
            body: Block::synth(vec![Stmt::expr(Expr::int(1))]),
            catches: vec![],
            finally: Some(Block::synth(vec![Stmt::expr(Expr::int(2))])),
        })];
        assert!(lower_body(&Block::synth(stmts), &[]).is_err());
    }
}
