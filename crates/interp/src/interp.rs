//! The evaluator.
//!
//! A body runs on one of two tiers.  The *reference* tree-walker in this
//! file executes typed AST directly (and re-clones each lazy body per
//! call); it defines the semantics.  The *fast* tier compiles a body once,
//! straight from its typed AST, to register bytecode (`lower.rs` sizes the
//! frame and folds constants, `bytecode.rs` emits), and runs it on the VM
//! (`vm.rs`).  Unlowerable bodies — `try`, unforced lazy nodes, templates
//! — stay on the walker.  Both tiers must be observationally identical —
//! same output bytes, same error text, same spans, same step counts;
//! `MAYA_NO_LOWER=1` (or [`Interp::set_lowering`]) pins the walker for
//! differential testing.

use crate::layout::RuntimeCaches;
use crate::lower::{class_key, LowerStore, LoweredBody, TypeSlot};
use crate::widen;
use crate::{NativeFn, Obj, RuntimeError, Value};
use maya_ast::{
    BinOp, Expr, ExprKind, ForInit, IncDecOp, LazyNode, Lit, MethodName, Node, PrimKind, Stmt,
    StmtKind, TypeName, UnOp,
};
use maya_lexer::{sym, Span, Symbol};
use maya_types::{ClassId, ClassTable, CtorInfo, MethodInfo, ResolveCtx, Type};
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

/// Non-local control flow during evaluation.
#[derive(Clone, Debug)]
pub enum Control {
    Return(Value),
    Break,
    Continue,
    /// A MayaJava exception value in flight.
    Throw(Value),
    /// An internal failure (bad program state, missing native, …).  Boxed
    /// so the happy-path [`Eval`] stays a couple of machine words; the
    /// error payload is only touched when something actually went wrong.
    Error(Box<RuntimeError>),
}

impl Control {
    /// Builds an internal error.
    pub fn error(msg: impl Into<String>, span: Span) -> Control {
        Control::Error(Box::new(RuntimeError::new(msg, span)))
    }
}

/// The standard evaluation result.
pub type Eval = Result<Value, Control>;

/// One activation record.
#[derive(Default)]
pub struct Frame {
    scopes: Vec<HashMap<Symbol, Value>>,
    /// Per scope, the declared primitive types of its primitive locals
    /// (widening conversions, see [`crate::widen`]).
    prims: Vec<HashMap<Symbol, PrimKind>>,
    /// The running method's declared primitive return type.
    ret: Option<PrimKind>,
    pub this: Option<Value>,
    pub class: Option<ClassId>,
}

impl Frame {
    /// A frame with one empty scope.
    pub fn new() -> Frame {
        Frame {
            scopes: vec![HashMap::new()],
            prims: vec![HashMap::new()],
            ret: None,
            this: None,
            class: None,
        }
    }

    fn push(&mut self) {
        self.scopes.push(HashMap::new());
        self.prims.push(HashMap::new());
    }

    fn pop(&mut self) {
        self.scopes.pop();
        self.prims.pop();
    }

    /// Declares a local in the innermost scope.
    pub fn declare(&mut self, name: Symbol, v: Value) {
        self.declare_typed(name, v, None);
    }

    /// Declares a local of declared primitive type `prim` (`None` for any
    /// other type) in the innermost scope.
    fn declare_typed(&mut self, name: Symbol, v: Value, prim: Option<PrimKind>) {
        self.scopes
            .last_mut()
            .expect("frame has a scope")
            .insert(name, v);
        let prims = self.prims.last_mut().expect("frame has a scope");
        match prim {
            Some(p) => prims.insert(name, p),
            None => prims.remove(&name),
        };
    }

    /// How `name` resolves for [`widen::static_prim`].
    fn local_prim(&self, name: Symbol) -> Option<Option<PrimKind>> {
        let at = self.scopes.iter().rposition(|s| s.contains_key(&name))?;
        Some(self.prims.get(at).and_then(|p| p.get(&name)).copied())
    }

    /// The declared primitive type of `place` when it names a local of
    /// one (fields and array elements convert as they are stored).
    fn place_prim(&self, place: &Expr) -> Option<PrimKind> {
        crate::lower::name_of(place)
            .and_then(|n| self.local_prim(n))
            .flatten()
    }

    /// The primitive static type of `e` in this frame.
    fn static_prim(&self, e: &Expr) -> Option<PrimKind> {
        widen::static_prim(e, &|name| self.local_prim(name))
    }

    fn lookup(&self, name: Symbol) -> Option<&Value> {
        self.scopes.iter().rev().find_map(|s| s.get(&name))
    }

    /// Public lookup (used by the `maya.tree` bridge to resolve template
    /// slot names against the metaprogram frame).
    pub fn get_local(&self, name: Symbol) -> Option<Value> {
        self.lookup(name).cloned()
    }

    fn assign(&mut self, name: Symbol, v: Value) -> bool {
        for s in self.scopes.iter_mut().rev() {
            if let Some(slot) = s.get_mut(&name) {
                *slot = v;
                return true;
            }
        }
        false
    }
}

/// The interpreter. All evaluation methods take `&self`; mutable state is
/// interior.
pub struct Interp {
    pub ct: Rc<ClassTable>,
    natives: RefCell<HashMap<Symbol, NativeFn>>,
    statics: RefCell<HashMap<(ClassId, Symbol), Value>>,
    initializing: RefCell<HashSet<ClassId, BuildPtrHasher>>,
    initialized: RefCell<HashSet<ClassId, BuildPtrHasher>>,
    /// Captured program output (`System.out` / `System.err`).
    pub out: RefCell<String>,
    /// Echo output to the real stdout as well.
    pub echo: bool,
    class_ctx: RefCell<HashMap<ClassId, ResolveCtx>>,
    default_ctx: RefCell<ResolveCtx>,
    /// Hook used by the compiler to parse/check lazy bodies on first call.
    forcer: RefCell<Option<Rc<dyn Fn(&Interp, &LazyNode, ClassId) -> Result<(), RuntimeError>>>>,
    /// Hook used by the compiler to evaluate template (quasiquote)
    /// expressions inside metaprogram bodies.
    template_hook:
        RefCell<Option<Rc<dyn Fn(&Interp, &maya_ast::TemplateLit, &mut Frame) -> Eval>>>,
    /// Call-depth guard.
    pub(crate) depth: Cell<u32>,
    /// Maximum interpreted call depth before a "stack overflow" error.
    pub(crate) stack_limit: Cell<u32>,
    /// Maximum statements executed before a "step limit" error
    /// (`u64::MAX` = unlimited). Guards against runaway metaprograms.
    step_limit: Cell<u64>,
    /// Statements executed since the last [`Interp::reset_steps`].
    steps: Cell<u64>,
    /// Hook supplying expansion frames ("Mayan F at file:line:col") to
    /// attach to runtime errors; installed by the compiler.
    frame_provider: RefCell<Option<Rc<dyn Fn() -> Vec<String>>>>,
    /// Shape caches (field layouts, method rows, ctor rows), epoch-guarded
    /// against class-table mutation.
    pub(crate) caches: RuntimeCaches,
    /// Per-interpreter memo: lazy-body cell pointer → lowering outcome.
    /// The entry pins its [`LazyNode`] so the keyed allocation stays alive.
    lowered: RefCell<HashMap<usize, LoweredEntry, BuildPtrHasher>>,
    /// Session-wide lowered-body store (shared via the force cache so warm
    /// `mayad` runs reuse lowered code across compilers).
    lower_store: RefCell<Rc<LowerStore>>,
    /// Master switch for the fast path (`MAYA_NO_LOWER=1` turns it off).
    lower_enabled: Cell<bool>,
    /// Mirror of `maya_telemetry::profiling()`, synced at the public entry
    /// points so the per-call and per-binary-op hooks cost one field load
    /// instead of a thread-local lookup.
    pub(crate) profile: Cell<bool>,
    /// Recycled register buffers: argument vectors become VM register
    /// files, and finished ones come back here, so steady-state bytecode
    /// calls do not touch the allocator at all.
    pub(crate) frame_pool: RefCell<Vec<Vec<Value>>>,
}

struct LoweredEntry {
    _pin: LazyNode,
    result: Option<Rc<LoweredBody>>,
}

/// Hashes a single integer key (body-cell address, class id) by
/// multiplication alone.  These maps are probed on every method invocation;
/// SipHash on a word-sized key is measurable overhead there, and the keys
/// are already well distributed.
#[derive(Default)]
struct PtrHasher(u64);

impl std::hash::Hasher for PtrHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("PtrHasher only hashes integer keys");
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(n as u64);
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

type BuildPtrHasher = std::hash::BuildHasherDefault<PtrHasher>;

impl Interp {
    /// Creates an interpreter over a class table (runtime library must have
    /// been installed with [`crate::install_runtime`]).
    pub fn new(ct: Rc<ClassTable>) -> Interp {
        let i = Interp {
            ct,
            natives: RefCell::new(HashMap::new()),
            statics: RefCell::new(HashMap::new()),
            initializing: RefCell::new(HashSet::default()),
            initialized: RefCell::new(HashSet::default()),
            out: RefCell::new(String::new()),
            echo: false,
            class_ctx: RefCell::new(HashMap::new()),
            default_ctx: RefCell::new(ResolveCtx::default()),
            forcer: RefCell::new(None),
            template_hook: RefCell::new(None),
            depth: Cell::new(0),
            stack_limit: Cell::new(128),
            step_limit: Cell::new(u64::MAX),
            steps: Cell::new(0),
            frame_provider: RefCell::new(None),
            caches: RuntimeCaches::new(),
            lowered: RefCell::new(HashMap::default()),
            lower_store: RefCell::new(Rc::new(LowerStore::new())),
            lower_enabled: Cell::new(
                std::env::var("MAYA_NO_LOWER").map_or(true, |v| v.is_empty() || v == "0"),
            ),
            profile: Cell::new(false),
            frame_pool: RefCell::new(Vec::new()),
        };
        crate::runtime::register_natives(&i);
        i
    }

    /// Turns the lowering fast path on or off (the `MAYA_NO_LOWER`
    /// environment variable sets the initial state).
    pub fn set_lowering(&self, on: bool) {
        self.lower_enabled.set(on);
    }

    /// True when the lowering fast path is active.
    pub fn lowering_enabled(&self) -> bool {
        self.lower_enabled.get()
    }

    /// Installs a shared lowered-body store (the compiler wires the session
    /// force cache's store here so lowered bodies survive across compilers).
    pub fn set_lower_store(&self, store: Rc<LowerStore>) {
        *self.lower_store.borrow_mut() = store;
    }

    /// The current field layout of `class` (epoch-synced, memoized).
    pub(crate) fn layout_of(&self, class: ClassId) -> Rc<crate::FieldLayout> {
        self.caches.sync(&self.ct);
        self.caches.layout(&self.ct, class)
    }

    /// Registers a native method implementation.
    pub fn register_native(&self, key: &str, f: NativeFn) {
        self.natives.borrow_mut().insert(sym(key), f);
    }

    /// Installs the lazy-body forcer.
    pub fn set_forcer(&self, f: Rc<dyn Fn(&Interp, &LazyNode, ClassId) -> Result<(), RuntimeError>>) {
        *self.forcer.borrow_mut() = Some(f);
    }

    /// Installs the template-expression evaluator (the `maya.tree` bridge).
    pub fn set_template_hook(
        &self,
        f: Rc<dyn Fn(&Interp, &maya_ast::TemplateLit, &mut Frame) -> Eval>,
    ) {
        *self.template_hook.borrow_mut() = Some(f);
    }

    /// Sets the maximum interpreted call depth.
    pub fn set_stack_limit(&self, limit: u32) {
        self.stack_limit.set(limit.max(1));
    }

    /// Sets the maximum statements per [`Interp::run_main`] /
    /// metaprogram invocation (`u64::MAX` = unlimited).
    pub fn set_step_limit(&self, limit: u64) {
        self.step_limit.set(limit.max(1));
    }

    /// Resets the step budget (call before each top-level invocation).
    pub fn reset_steps(&self) {
        self.steps.set(0);
    }

    /// Statements charged since the last [`Interp::reset_steps`].
    pub fn steps(&self) -> u64 {
        self.steps.get()
    }

    /// Installs the expansion-frame provider used to annotate runtime
    /// errors raised inside metaprogram bodies.
    pub fn set_frame_provider(&self, f: Rc<dyn Fn() -> Vec<String>>) {
        *self.frame_provider.borrow_mut() = Some(f);
    }

    /// Records the lexical resolution context for a class's code.
    pub fn set_class_ctx(&self, class: ClassId, ctx: ResolveCtx) {
        self.class_ctx.borrow_mut().insert(class, ctx);
    }

    /// Sets the fallback resolution context.
    pub fn set_default_ctx(&self, ctx: ResolveCtx) {
        *self.default_ctx.borrow_mut() = ctx;
    }

    /// Appends to captured output.
    pub fn write_out(&self, s: &str) {
        self.out.borrow_mut().push_str(s);
        if self.echo {
            print!("{s}");
        }
    }

    /// Takes the captured output.
    pub fn take_output(&self) -> String {
        std::mem::take(&mut self.out.borrow_mut())
    }

    fn ctx_for(&self, class: Option<ClassId>) -> ResolveCtx {
        class
            .and_then(|c| self.class_ctx.borrow().get(&c).cloned())
            .unwrap_or_else(|| self.default_ctx.borrow().clone())
    }

    /// Renders a value the way Java string conversion would.
    pub fn display(&self, v: &Value) -> String {
        match v {
            Value::Null => "null".into(),
            Value::Bool(b) => b.to_string(),
            Value::Char(c) => c.to_string(),
            Value::Int(i) => i.to_string(),
            Value::Long(l) => l.to_string(),
            Value::Float(f) => f.to_string(),
            Value::Double(d) => d.to_string(),
            Value::Str(s) => s.to_string(),
            Value::Object(_) | Value::Native(_) => {
                // Try a toString override (the Object default never calls
                // back into display()).
                match self.invoke_by_name(v.clone(), sym("toString"), vec![], Span::DUMMY) {
                    Ok(Value::Str(s)) => s.to_string(),
                    _ => match v {
                        Value::Native(n) => n.display(),
                        Value::Object(o) => {
                            format!("{}@obj", self.ct.fqcn(o.class))
                        }
                        _ => unreachable!(),
                    },
                }
            }
            Value::Array(a) => format!("<array[{}]>", a.data.borrow().len()),
            Value::ClassRef(c) => format!("class {}", self.ct.fqcn(*c)),
        }
    }

    // ---- class initialization ---------------------------------------------

    pub(crate) fn ensure_init(&self, class: ClassId) -> Result<(), Control> {
        if self.initialized.borrow().contains(&class)
            || self.initializing.borrow().contains(&class)
        {
            return Ok(());
        }
        self.initializing.borrow_mut().insert(class);
        let info = self.ct.info(class);
        let (sup, static_fields): (Option<ClassId>, Vec<(Symbol, Option<Expr>, Type)>) = {
            let info = info.borrow();
            (
                info.superclass,
                info.fields
                    .iter()
                    .filter(|f| f.modifiers.is_static())
                    .map(|f| (f.name, f.init.clone(), f.ty.clone()))
                    .collect(),
            )
        };
        if let Some(s) = sup {
            self.ensure_init(s)?;
        }
        for (name, init, ty) in static_fields {
            let v = match init {
                Some(e) => {
                    let mut frame = Frame::new();
                    frame.class = Some(class);
                    self.eval(&e, &mut frame)?
                }
                None => Value::default_for(&ty),
            };
            let v = widen::to_declared(v, widen::prim_of_type(&ty));
            self.statics.borrow_mut().insert((class, name), v);
        }
        self.initializing.borrow_mut().remove(&class);
        self.initialized.borrow_mut().insert(class);
        Ok(())
    }

    /// Reads a static field (initializing the class first).
    pub fn static_field(&self, class: ClassId, name: Symbol) -> Eval {
        self.ensure_init(class)?;
        // Walk up the hierarchy for inherited statics.
        let mut cur = Some(class);
        while let Some(c) = cur {
            if let Some(v) = self.statics.borrow().get(&(c, name)) {
                return Ok(v.clone());
            }
            cur = self.ct.info(c).borrow().superclass;
        }
        Err(Control::error(
            format!("uninitialized static {}.{}", self.ct.fqcn(class), name),
            Span::DUMMY,
        ))
    }

    /// Writes a static field, converted to its declared primitive type
    /// (see [`widen::to_declared`]); returns the value stored.
    pub fn set_static_field(&self, class: ClassId, name: Symbol, v: Value) -> Eval {
        self.ensure_init(class)?;
        let v = widen::to_declared(v, self.field_prim(class, name));
        self.statics.borrow_mut().insert((class, name), v.clone());
        Ok(v)
    }

    /// The declared primitive type of the field `name` seen from `class`,
    /// if it has one.
    fn field_prim(&self, class: ClassId, name: Symbol) -> Option<PrimKind> {
        let mut cur = Some(class);
        while let Some(c) = cur {
            let info = self.ct.info(c);
            let info = info.borrow();
            if let Some(f) = info.fields.iter().find(|f| f.name == name) {
                return widen::prim_of_type(&f.ty);
            }
            cur = info.superclass;
        }
        None
    }

    // ---- invocation ---------------------------------------------------------

    /// Re-reads the thread's profiler switch into the interpreter's cached
    /// mirror. Called at the public entry points; everything below them
    /// reads the cached field.
    fn sync_profile(&self) {
        self.profile.set(maya_telemetry::profiling());
    }

    /// The profiler label of a resolved method. Only ever called from
    /// inside a lazy profiler closure, so it is kept out of the hot
    /// instruction stream.
    #[cold]
    #[inline(never)]
    pub(crate) fn method_label(&self, class: ClassId, m: &MethodInfo) -> String {
        format!("{}.{}/{}", self.ct.fqcn(class), m.name, m.params.len())
    }

    /// Invokes the best matching method named `name` on `recv` with `args`
    /// (virtual dispatch on the receiver's dynamic class).
    pub fn invoke_by_name(&self, recv: Value, name: Symbol, args: Vec<Value>, span: Span) -> Eval {
        self.sync_profile();
        let class = recv.class_of(&self.ct).ok_or_else(|| {
            Control::error(
                format!("cannot invoke {name} on {:?}", recv),
                span,
            )
        })?;
        let m = self.select_method(class, name, &args, span)?;
        self.invoke(Some(recv), class, &m, args, span)
    }

    /// Invokes a static method of a class.
    pub fn invoke_static(&self, class: ClassId, name: Symbol, args: Vec<Value>, span: Span) -> Eval {
        self.sync_profile();
        self.ensure_init(class)?;
        let m = self.select_method(class, name, &args, span)?;
        self.invoke(None, class, &m, args, span)
            .map_err(|c| self.attach_frames(c))
    }

    /// Annotates an error with the current expansion frames (innermost
    /// first) if a provider is installed and none are attached yet.
    pub(crate) fn attach_frames(&self, c: Control) -> Control {
        match c {
            Control::Error(mut e) if e.frames.is_empty() => {
                if let Some(p) = self.frame_provider.borrow().clone() {
                    e.frames = p();
                }
                Control::Error(e)
            }
            other => other,
        }
    }

    fn select_method(
        &self,
        class: ClassId,
        name: Symbol,
        args: &[Value],
        span: Span,
    ) -> Result<Rc<MethodInfo>, Control> {
        self.caches.sync(&self.ct);
        let row = self.caches.row(&self.ct, class, name);
        self.select_from_row(&row, class, name, args, span)
    }

    pub(crate) fn select_from_row(
        &self,
        row: &[(ClassId, Rc<MethodInfo>)],
        class: ClassId,
        name: Symbol,
        args: &[Value],
        span: Span,
    ) -> Result<Rc<MethodInfo>, Control> {
        let arg_types: Vec<Type> = args.iter().map(|a| a.runtime_type(&self.ct)).collect();
        let applicable: Vec<&(ClassId, Rc<MethodInfo>)> = row
            .iter()
            .filter(|(_, m)| {
                m.params.len() == args.len()
                    && m.params
                        .iter()
                        .zip(&arg_types)
                        .all(|(p, a)| self.ct.is_assignable(a, p))
            })
            .collect();
        // Most specific by pointwise assignability; falls back to the first
        // applicable (the checker already validated the static call).
        let best = applicable
            .iter()
            .find(|m| {
                applicable.iter().all(|n| {
                    m.1.params
                        .iter()
                        .zip(&n.1.params)
                        .all(|(a, b)| self.ct.is_assignable(a, b))
                })
            })
            .or_else(|| applicable.first());
        match best {
            Some((_, m)) => Ok(m.clone()),
            None => Err(Control::error(
                format!(
                    "no applicable method {}.{}({:?})",
                    self.ct.fqcn(class),
                    name,
                    arg_types.iter().map(|t| self.ct.describe(t)).collect::<Vec<_>>()
                ),
                span,
            )),
        }
    }

    /// Invokes a resolved method.
    pub fn invoke(
        &self,
        recv: Option<Value>,
        class: ClassId,
        m: &MethodInfo,
        args: Vec<Value>,
        span: Span,
    ) -> Eval {
        let d = self.depth.get() + 1;
        // Conservative: each interpreted frame uses many host frames,
        // and debug builds have large frames.
        let limit = self.stack_limit.get();
        if d > limit {
            maya_telemetry::count(maya_telemetry::Counter::StepLimitHits);
            return Err(Control::error(
                format!("stack overflow (call depth > {limit})"),
                span,
            ));
        }
        self.depth.set(d);
        let profiled = self.profile.get();
        if profiled {
            maya_telemetry::prof_enter(m as *const MethodInfo as usize, || {
                self.method_label(class, m)
            });
        }
        let result = self.invoke_inner(recv, class, m, args, span);
        if profiled {
            maya_telemetry::prof_exit();
        }
        self.depth.set(self.depth.get() - 1);
        result
    }

    fn invoke_inner(
        &self,
        recv: Option<Value>,
        class: ClassId,
        m: &MethodInfo,
        args: Vec<Value>,
        span: Span,
    ) -> Eval {
        maya_telemetry::count(maya_telemetry::Counter::InterpCalls);
        if let Some(key) = m.native {
            let f = self.natives.borrow().get(&key).cloned();
            let f = f.ok_or_else(|| {
                Control::error(format!("missing native implementation {key}"), span)
            })?;
            return f(self, recv.unwrap_or(Value::Null), args);
        }
        let Some(body) = &m.body else {
            return Err(Control::error(
                format!("abstract method {} called", m.name),
                span,
            ));
        };
        self.force_body(body, class, span)?;
        if let Some(lb) = self.lowered_body(body, &m.param_names, &m.params, Some(&m.ret)) {
            return self.exec_lowered(&lb, recv, class, args);
        }
        let node = body.forced_node().ok_or_else(|| {
            Control::error("internal error: body not forced", span)
        })?;
        let mut frame = Frame::new();
        frame.class = Some(class);
        frame.this = recv;
        frame.ret = widen::prim_of_type(&m.ret);
        self.bind_params(&mut frame, &m.param_names, &m.params, args, span)?;
        match self.exec_node(&node, &mut frame) {
            Ok(()) => Ok(Value::Null), // void fall-through
            Err(Control::Return(v)) => Ok(v),
            Err(other) => Err(other),
        }
    }

    /// The lowered form of a (forced) lazy body, or `None` when lowering is
    /// disabled or the body is unlowerable.  Memoized per body cell, and
    /// shared across interpreters through the [`LowerStore`] keyed by the
    /// body's structural fingerprint.
    pub(crate) fn lowered_body(
        &self,
        body: &LazyNode,
        params: &[Symbol],
        types: &[Type],
        ret: Option<&Type>,
    ) -> Option<Rc<LoweredBody>> {
        if !self.lower_enabled.get() {
            return None;
        }
        let key = Rc::as_ptr(&body.cell) as usize;
        if let Some(e) = self.lowered.borrow().get(&key) {
            return e.result.clone();
        }
        let result = self.lower_uncached(body, params, types, ret);
        self.lowered.borrow_mut().insert(
            key,
            LoweredEntry {
                _pin: body.clone(),
                result: result.clone(),
            },
        );
        result
    }

    fn lower_uncached(
        &self,
        body: &LazyNode,
        params: &[Symbol],
        types: &[Type],
        ret: Option<&Type>,
    ) -> Option<Rc<LoweredBody>> {
        let node = body.forced_node()?;
        let Node::Block(block) = &*node else {
            return None;
        };
        // Unfingerprintable bodies (unforced lazy statements, templates,
        // poison nodes) are unlowerable too.
        let fp = maya_ast::fingerprint_block(block)?;
        let sig: Box<[Option<PrimKind>]> =
            types.iter().chain(ret).map(widen::prim_of_type).collect();
        let key = (fp, params.into(), sig);
        let store = self.lower_store.borrow().clone();
        if let Some(hit) = store.get(&key) {
            return hit;
        }
        let result = crate::bytecode::compile(block, params, &key.2)
            .ok()
            .map(|bc| Rc::new(LoweredBody::new(bc)));
        store.insert(key, result.clone());
        result
    }

    /// Binds the arguments of a walker call in `frame`: a parameter of a
    /// wide primitive type converts its argument (see [`crate::widen`]).
    fn bind_params(
        &self,
        frame: &mut Frame,
        names: &[Symbol],
        types: &[Type],
        args: Vec<Value>,
        span: Span,
    ) -> Result<(), Control> {
        for (i, (name, v)) in names.iter().zip(args).enumerate() {
            let prim = types.get(i).and_then(widen::prim_of_type);
            let v = match widen::entry_prim(prim) {
                Some(to) => self.cast(v, &Type::Prim(to), span)?,
                None => v,
            };
            frame.declare_typed(*name, v, prim);
        }
        Ok(())
    }

    /// Resolves a lowered type reference through its per-site cache.
    pub(crate) fn resolve_type_slot(
        &self,
        ts: &TypeSlot,
        class: Option<ClassId>,
        span: Span,
    ) -> Result<Type, Control> {
        let epoch = self.caches.sync(&self.ct);
        let ck = class_key(class);
        if let Some(t) = ts.get(epoch, ck) {
            return Ok(t);
        }
        let ctx = self.ctx_for(class);
        let t = self
            .ct
            .resolve_type_name(&ts.tn, &ctx)
            .map_err(|e| Control::error(e.message, span))?;
        ts.fill(epoch, ck, t.clone());
        Ok(t)
    }

    fn force_body(&self, body: &LazyNode, class: ClassId, span: Span) -> Result<(), Control> {
        if body.is_forced() {
            return Ok(());
        }
        let f = self.forcer.borrow().clone();
        match f {
            Some(f) => f(self, body, class).map_err(|e| Control::Error(Box::new(e))),
            None => Err(Control::error(
                "method body is unforced and no forcer is installed",
                span,
            )),
        }
    }

    /// Constructs an instance of `class` with constructor `args`.
    pub fn construct(&self, class: ClassId, args: Vec<Value>, span: Span) -> Eval {
        self.ensure_init(class)?;
        // Native classes construct through a native ctor.
        self.caches.sync(&self.ct);
        let ctors = self.caches.ctor_row(&self.ct, class);
        let arg_types: Vec<Type> = args.iter().map(|a| a.runtime_type(&self.ct)).collect();
        let ctor: Option<&CtorInfo> = ctors.iter().find(|c| {
            c.params.len() == args.len()
                && c.params
                    .iter()
                    .zip(&arg_types)
                    .all(|(p, a)| self.ct.is_assignable(a, p))
        });
        if let Some(c) = &ctor {
            if let Some(key) = c.native {
                let f = self.natives.borrow().get(&key).cloned().ok_or_else(|| {
                    Control::error(format!("missing native constructor {key}"), span)
                })?;
                return f(self, Value::Null, args);
            }
        } else if !ctors.is_empty() || !args.is_empty() {
            return Err(Control::error(
                format!("no applicable constructor for {}", self.ct.fqcn(class)),
                span,
            ));
        }

        let layout = self.caches.layout(&self.ct, class);
        let obj = Rc::new(Obj::new(class, layout));
        let this = Value::Object(obj);
        self.init_fields(class, &this)?;
        if let Some(c) = ctor {
            if let Some(body) = &c.body {
                self.force_body(body, class, span)?;
                if let Some(lb) = self.lowered_body(body, &c.param_names, &c.params, None) {
                    // A ctor's return value (fall-through or `return`) is
                    // discarded; only abnormal completions propagate.
                    self.exec_lowered(&lb, Some(this.clone()), class, args)?;
                    return Ok(this);
                }
                let node = body
                    .forced_node()
                    .ok_or_else(|| Control::error("ctor body not forced", span))?;
                let mut frame = Frame::new();
                frame.class = Some(class);
                frame.this = Some(this.clone());
                self.bind_params(&mut frame, &c.param_names, &c.params, args, span)?;
                match self.exec_node(&node, &mut frame) {
                    Ok(()) | Err(Control::Return(_)) => {}
                    Err(other) => return Err(other),
                }
            }
        }
        Ok(this)
    }

    /// Runs instance field initializers (supers first).
    fn init_fields(&self, class: ClassId, this: &Value) -> Result<(), Control> {
        let info = self.ct.info(class);
        let (sup, fields): (Option<ClassId>, Vec<(Symbol, Option<Expr>, Type)>) = {
            let info = info.borrow();
            (
                info.superclass,
                info.fields
                    .iter()
                    .filter(|f| !f.modifiers.is_static())
                    .map(|f| (f.name, f.init.clone(), f.ty.clone()))
                    .collect(),
            )
        };
        if let Some(s) = sup {
            self.init_fields(s, this)?;
        }
        let Value::Object(obj) = this else {
            return Ok(());
        };
        for (name, init, ty) in fields {
            let v = match init {
                Some(e) => {
                    let mut frame = Frame::new();
                    frame.class = Some(class);
                    frame.this = Some(this.clone());
                    self.eval(&e, &mut frame)?
                }
                None => Value::default_for(&ty),
            };
            obj.set(name, v);
        }
        Ok(())
    }

    /// Convenience: run `ClassName.main()` (no-arg static) and return the
    /// captured output.
    ///
    /// # Errors
    ///
    /// Propagates runtime failures and uncaught exceptions.
    pub fn run_main(&self, class_fqcn: &str) -> Result<String, RuntimeError> {
        let _p = maya_telemetry::phase(maya_telemetry::Phase::Interp);
        let class = self.ct.by_fqcn_str(class_fqcn).ok_or_else(|| {
            RuntimeError::new(format!("unknown class {class_fqcn}"), Span::DUMMY)
        })?;
        match self.invoke_static(class, sym("main"), vec![], Span::DUMMY) {
            Ok(_) => Ok(self.take_output()),
            Err(Control::Throw(v)) => Err(RuntimeError::new(
                format!("uncaught exception: {}", self.display(&v)),
                Span::DUMMY,
            )),
            Err(Control::Error(e)) => Err(*e),
            Err(other) => Err(RuntimeError::new(
                format!("abnormal completion: {other:?}"),
                Span::DUMMY,
            )),
        }
    }

    // ---- statements ---------------------------------------------------------

    /// Executes a node (block, statement, or expression).
    pub fn exec_node(&self, node: &Node, frame: &mut Frame) -> Result<(), Control> {
        match node {
            Node::Block(b) => {
                for s in &b.stmts {
                    self.exec(s, frame)?;
                }
                Ok(())
            }
            Node::Stmt(s) => self.exec(s, frame),
            Node::Expr(e) => self.eval(e, frame).map(|_| ()),
            Node::Unit => Ok(()),
            other => Err(Control::error(
                format!("cannot execute node {:?}", other.node_kind()),
                Span::DUMMY,
            )),
        }
    }

    /// Charges one step against the budget (statements are the unit:
    /// every loop iteration executes at least one).  Inlined, so the VM's
    /// `Step` arm finishes a step under the limit without a call.
    #[inline]
    pub(crate) fn count_step(&self, span: Span) -> Result<(), Control> {
        let n = self.steps.get() + 1;
        self.steps.set(n);
        if n > self.step_limit.get() {
            return Err(self.step_limit_exceeded(span));
        }
        Ok(())
    }

    /// Charges a merged step (see `bytecode::merge_steps`): the `n`
    /// statements whose spans are `spans[at..at + n]`.  Inlined, so the
    /// VM's `Step` arm adds them under the limit without a call.
    #[inline]
    pub(crate) fn count_steps(&self, n: u16, at: u16, spans: &[Span]) -> Result<(), Control> {
        let total = self.steps.get() + u64::from(n);
        if total > self.step_limit.get() {
            return Err(self.merged_step_limit(&spans[usize::from(at)..]));
        }
        self.steps.set(total);
        Ok(())
    }

    /// A merged step past the limit fails as [`Interp::count_step`] would
    /// for its statements one by one: at the first one past the limit,
    /// with the counter one past the limit as well.
    #[cold]
    #[inline(never)]
    fn merged_step_limit(&self, spans: &[Span]) -> Control {
        let fit = self.step_limit.get().saturating_sub(self.steps.get());
        self.steps.set(self.steps.get() + fit + 1);
        self.step_limit_exceeded(spans[fit as usize])
    }

    #[cold]
    #[inline(never)]
    fn step_limit_exceeded(&self, span: Span) -> Control {
        maya_telemetry::count(maya_telemetry::Counter::StepLimitHits);
        let limit = self.step_limit.get();
        Control::error(
            format!(
                "interpreter step limit ({limit}) exceeded; \
                 the program or a metaprogram may be stuck in an infinite loop"
            ),
            span,
        )
    }

    /// Executes one statement.
    pub fn exec(&self, s: &Stmt, frame: &mut Frame) -> Result<(), Control> {
        self.count_step(s.span)?;
        match &s.kind {
            StmtKind::Block(b) => {
                frame.push();
                let r = (|| {
                    for s in &b.stmts {
                        self.exec(s, frame)?;
                    }
                    Ok(())
                })();
                frame.pop();
                r
            }
            StmtKind::Expr(e) => self.eval(e, frame).map(|_| ()),
            StmtKind::Decl(tn, decls) => {
                let base = self.resolve_type(tn, frame, s.span)?;
                for d in decls {
                    let mut ty = base.clone();
                    for _ in 0..d.dims {
                        ty = ty.array_of();
                    }
                    let prim = widen::prim_of_type(&ty);
                    let v = match &d.init {
                        Some(e) => {
                            let v = self.eval(e, frame)?;
                            self.widen(v, e, prim, frame)?
                        }
                        None => Value::default_for(&ty),
                    };
                    frame.declare_typed(d.name.sym, v, prim);
                }
                Ok(())
            }
            StmtKind::If(c, t, f) => {
                if self.truthy(c, frame)? {
                    self.exec(t, frame)
                } else if let Some(f) = f {
                    self.exec(f, frame)
                } else {
                    Ok(())
                }
            }
            StmtKind::While(c, body) => {
                while self.truthy(c, frame)? {
                    match self.exec(body, frame) {
                        Ok(()) | Err(Control::Continue) => {}
                        Err(Control::Break) => break,
                        Err(other) => return Err(other),
                    }
                }
                Ok(())
            }
            StmtKind::Do(body, c) => {
                loop {
                    match self.exec(body, frame) {
                        Ok(()) | Err(Control::Continue) => {}
                        Err(Control::Break) => break,
                        Err(other) => return Err(other),
                    }
                    if !self.truthy(c, frame)? {
                        break;
                    }
                }
                Ok(())
            }
            StmtKind::For {
                init,
                cond,
                update,
                body,
            } => {
                frame.push();
                let r = (|| {
                    match init {
                        ForInit::None => {}
                        ForInit::Decl(tn, decls) => {
                            let stmt = Stmt::synth(StmtKind::Decl(tn.clone(), decls.clone()));
                            self.exec(&stmt, frame)?;
                        }
                        ForInit::Exprs(es) => {
                            for e in es {
                                self.eval(e, frame)?;
                            }
                        }
                    }
                    loop {
                        if let Some(c) = cond {
                            if !self.truthy(c, frame)? {
                                break;
                            }
                        }
                        match self.exec(body, frame) {
                            Ok(()) | Err(Control::Continue) => {}
                            Err(Control::Break) => break,
                            Err(other) => return Err(other),
                        }
                        for u in update {
                            self.eval(u, frame)?;
                        }
                    }
                    Ok(())
                })();
                frame.pop();
                r
            }
            StmtKind::Return(v) => {
                let value = match v {
                    Some(e) => {
                        let v = self.eval(e, frame)?;
                        self.widen(v, e, frame.ret, frame)?
                    }
                    None => Value::Null,
                };
                Err(Control::Return(value))
            }
            StmtKind::Break => Err(Control::Break),
            StmtKind::Continue => Err(Control::Continue),
            StmtKind::Throw(e) => {
                let v = self.eval(e, frame)?;
                Err(Control::Throw(v))
            }
            StmtKind::Try {
                body,
                catches,
                finally,
            } => {
                frame.push();
                let mut result = (|| {
                    for s in &body.stmts {
                        self.exec(s, frame)?;
                    }
                    Ok(())
                })();
                frame.pop();
                if let Err(Control::Throw(exc)) = &result {
                    let exc = exc.clone();
                    let exc_class = exc.class_of(&self.ct);
                    for c in catches {
                        let catch_ty = self.resolve_type(&c.param.ty, frame, s.span)?;
                        let matches = match (&catch_ty, exc_class) {
                            (Type::Class(want), Some(have)) => {
                                self.ct.is_subclass_or_eq(have, *want)
                            }
                            _ => false,
                        };
                        if matches {
                            frame.push();
                            frame.declare(c.param.name.sym, exc);
                            result = (|| {
                                for s in &c.body.stmts {
                                    self.exec(s, frame)?;
                                }
                                Ok(())
                            })();
                            frame.pop();
                            break;
                        }
                    }
                }
                if let Some(fin) = finally {
                    frame.push();
                    let fin_result = (|| {
                        for s in &fin.stmts {
                            self.exec(s, frame)?;
                        }
                        Ok(())
                    })();
                    frame.pop();
                    fin_result?;
                }
                result
            }
            StmtKind::Use(_, body) => {
                // Imports are compile-time; at runtime only the scoped
                // statements remain.
                frame.push();
                let r = (|| {
                    for s in &body.stmts {
                        self.exec(s, frame)?;
                    }
                    Ok(())
                })();
                frame.pop();
                r
            }
            StmtKind::Empty => Ok(()),
            StmtKind::Error => Err(Control::error(
                "cannot execute code that failed to compile",
                s.span,
            )),
            StmtKind::Lazy(l) => {
                if !l.is_forced() {
                    let class = frame.class.ok_or_else(|| {
                        Control::error("lazy statement outside a class context", s.span)
                    })?;
                    self.force_body(l, class, s.span)?;
                }
                let node = l
                    .forced_node()
                    .ok_or_else(|| Control::error("lazy statement not forced", s.span))?;
                self.exec_node(&node, frame)
            }
        }
    }

    fn truthy(&self, e: &Expr, frame: &mut Frame) -> Result<bool, Control> {
        match self.eval(e, frame)? {
            Value::Bool(b) => Ok(b),
            other => Err(Control::error(
                format!("condition evaluated to non-boolean {other:?}"),
                e.span,
            )),
        }
    }

    fn resolve_type(&self, tn: &TypeName, frame: &Frame, span: Span) -> Result<Type, Control> {
        let ctx = self.ctx_for(frame.class);
        self.ct
            .resolve_type_name(tn, &ctx)
            .map_err(|e| Control::error(e.message, span))
    }

    // ---- expressions --------------------------------------------------------

    /// Evaluates an expression.
    pub fn eval(&self, e: &Expr, frame: &mut Frame) -> Eval {
        match &e.kind {
            ExprKind::Literal(l) => Ok(self.lit(l)),
            ExprKind::Name(id) => self.eval_name(id.sym, frame, e.span),
            ExprKind::VarRef(name) => self.eval_name(*name, frame, e.span),
            ExprKind::ClassRef(fqcn) => {
                let c = self.ct.by_fqcn(*fqcn).ok_or_else(|| {
                    Control::error(format!("unknown class {fqcn}"), e.span)
                })?;
                Ok(Value::ClassRef(c))
            }
            ExprKind::FieldAccess(target, name) => {
                let t = self.eval(target, frame)?;
                self.field_of(t, name.sym, e.span)
            }
            ExprKind::Call(mn, args) => self.eval_call(mn, args, frame, e.span),
            ExprKind::ArrayAccess(a, i) => {
                let arr = self.eval(a, frame)?;
                let idx = self.int_of(self.eval(i, frame)?, i.span)?;
                match arr {
                    Value::Array(a) => {
                        let data = a.data.borrow();
                        data.get(idx as usize).cloned().ok_or_else(|| {
                            self.throw_simple("java.lang.ArrayIndexOutOfBoundsException", e.span)
                        })
                    }
                    Value::Null => Err(self.throw_simple("java.lang.NullPointerException", e.span)),
                    other => Err(Control::error(format!("not an array: {other:?}"), e.span)),
                }
            }
            ExprKind::New(tn, args) => {
                let ty = self.resolve_type(tn, frame, e.span)?;
                let Type::Class(c) = ty else {
                    return Err(Control::error("cannot instantiate non-class", e.span));
                };
                let vals = args
                    .iter()
                    .map(|a| self.eval(a, frame))
                    .collect::<Result<Vec<_>, _>>()?;
                self.construct(c, vals, e.span)
            }
            ExprKind::NewArray {
                elem,
                dims,
                extra_dims,
            } => {
                let base = self.resolve_type(elem, frame, e.span)?;
                let mut elem_ty = base;
                for _ in 0..*extra_dims {
                    elem_ty = elem_ty.array_of();
                }
                let sizes = dims
                    .iter()
                    .map(|d| {
                        let v = self.eval(d, frame)?;
                        self.int_of(v, d.span)
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                self.alloc_array(&elem_ty, &sizes, e.span)
            }
            ExprKind::Binary(op, l, r) => self.eval_binary(*op, l, r, frame, e.span),
            ExprKind::Unary(op, x) => {
                let v = self.eval(x, frame)?;
                self.eval_unary(*op, v, e.span)
            }
            ExprKind::IncDec(op, prefix, x) => {
                let old = self.eval(x, frame)?;
                let delta = if *op == IncDecOp::Inc { 1 } else { -1 };
                let new = match old {
                    Value::Int(v) => Value::Int(v.wrapping_add(delta)),
                    Value::Long(v) => Value::Long(v.wrapping_add(delta as i64)),
                    Value::Double(v) => Value::Double(v + delta as f64),
                    Value::Float(v) => Value::Float(v + delta as f32),
                    Value::Char(c) => Value::Int(c as i32 + delta),
                    other => {
                        return Err(Control::error(format!("cannot ++/-- {other:?}"), e.span))
                    }
                };
                let new = widen::to_declared(new, frame.place_prim(x));
                let stored = self.assign_to(x, new, frame)?;
                Ok(if *prefix { stored } else { old })
            }
            ExprKind::Assign(op, l, r) => {
                let rv = self.eval(r, frame)?;
                match op {
                    // The value is the one stored, which a field or an
                    // element converts to its declared type (JLS §15.26.1).
                    None => {
                        let value = self.widen(rv, r, frame.place_prim(l), frame)?;
                        self.assign_to(l, value, frame)
                    }
                    // The value is the variable's after the store, which
                    // narrows to its type (JLS §15.26.2).
                    Some(binop) => {
                        let lv = self.eval(l, frame)?;
                        let v = self.binary_values(*binop, &lv, &rv, e.span)?;
                        self.assign_to(l, widen::to_declared(v, frame.place_prim(l)), frame)
                    }
                }
            }
            ExprKind::Cond(c, t, f) => {
                if self.truthy(c, frame)? {
                    self.eval(t, frame)
                } else {
                    self.eval(f, frame)
                }
            }
            ExprKind::Cast(tn, x) => {
                let v = self.eval(x, frame)?;
                let target = self.resolve_type(tn, frame, e.span)?;
                self.cast(v, &target, e.span)
            }
            ExprKind::Instanceof(x, tn) => {
                let v = self.eval(x, frame)?;
                let target = self.resolve_type(tn, frame, e.span)?;
                Ok(Value::Bool(self.value_instanceof(&v, &target)))
            }
            ExprKind::This => frame
                .this
                .clone()
                .ok_or_else(|| Control::error("no `this` in scope", e.span)),
            ExprKind::Template(t) => {
                let hook = self.template_hook.borrow().clone();
                match hook {
                    Some(h) => h(self, t, frame),
                    None => Err(Control::error(
                        "template expressions only execute inside metaprograms \
                         (install the maya.tree bridge)",
                        e.span,
                    )),
                }
            }
            ExprKind::TypeDims(_) => Err(Control::error(
                "array-type syntax evaluated as a value",
                e.span,
            )),
            ExprKind::Lazy(l) => {
                if !l.is_forced() {
                    let class = frame.class.ok_or_else(|| {
                        Control::error("lazy expression outside a class context", e.span)
                    })?;
                    self.force_body(l, class, e.span)?;
                }
                let node = l
                    .forced_node()
                    .ok_or_else(|| Control::error("lazy expression not forced", e.span))?;
                match Node::clone(&node).into_expr() {
                    Some(inner) => self.eval(&inner, frame),
                    None => Err(Control::error("lazy node is not an expression", e.span)),
                }
            }
        }
    }

    /// True when `v instanceof ty` holds at runtime.
    pub fn value_instanceof(&self, v: &Value, ty: &Type) -> bool {
        if v.is_null() {
            return false;
        }
        let rt = v.runtime_type(&self.ct);
        self.ct.is_subtype(&rt, ty)
    }

    pub(crate) fn throw_simple(&self, class_fqcn: &str, span: Span) -> Control {
        match self.ct.by_fqcn_str(class_fqcn) {
            Some(c) => match self.construct(c, vec![], span) {
                Ok(v) => Control::Throw(v),
                Err(c) => c,
            },
            None => Control::error(format!("exception {class_fqcn}"), span),
        }
    }

    pub(crate) fn alloc_array(&self, elem: &Type, sizes: &[i32], span: Span) -> Eval {
        let (first, rest) = match sizes.split_first() {
            Some(x) => x,
            None => return Ok(Value::default_for(elem)),
        };
        if *first < 0 {
            return Err(self.throw_simple("java.lang.NegativeArraySizeException", span));
        }
        let inner_elem = if rest.is_empty() {
            elem.clone()
        } else {
            let mut t = elem.clone();
            for _ in 0..rest.len() {
                t = t.array_of();
            }
            t
        };
        let mut data = Vec::with_capacity(*first as usize);
        for _ in 0..*first {
            if rest.is_empty() {
                data.push(Value::default_for(elem));
            } else {
                data.push(self.alloc_array(elem, rest, span)?);
            }
        }
        Ok(Value::Array(Rc::new(crate::ArrayObj {
            elem: inner_elem,
            data: RefCell::new(data),
        })))
    }

    /// `v`, the value of `e`, converted to the declared primitive `to` when
    /// their static types call for it (see [`crate::widen`]).
    fn widen(&self, v: Value, e: &Expr, to: Option<PrimKind>, frame: &Frame) -> Eval {
        match to {
            Some(to)
                if frame
                    .static_prim(e)
                    .is_some_and(|from| widen::converts(from, to)) =>
            {
                self.cast(v, &Type::Prim(to), e.span)
            }
            _ => Ok(v),
        }
    }

    pub(crate) fn cast(&self, v: Value, target: &Type, span: Span) -> Eval {
        match target {
            // A number fails to convert only to `boolean`.
            Type::Prim(p) => {
                widen::convert(&v, *p).ok_or_else(|| match widen::convert(&v, PrimKind::Int) {
                    Some(_) => Control::error("cannot cast to boolean", span),
                    None => Control::error(format!("cannot cast {v:?} to {target:?}"), span),
                })
            }
            _ => {
                if v.is_null() || self.value_instanceof(&v, target) {
                    Ok(v)
                } else {
                    Err(self.throw_simple("java.lang.ClassCastException", span))
                }
            }
        }
    }

    fn lit(&self, l: &Lit) -> Value {
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

    fn eval_name(&self, name: Symbol, frame: &mut Frame, span: Span) -> Eval {
        if let Some(v) = frame.lookup(name) {
            return Ok(v.clone());
        }
        self.env_name(name, frame.this.as_ref(), frame.class, span)
    }

    /// The environment tail of name resolution — everything after locals:
    /// implicit-`this` field, then (static) class field, then class name.
    /// Shared by both execution tiers.
    pub(crate) fn env_name(
        &self,
        name: Symbol,
        this: Option<&Value>,
        class: Option<ClassId>,
        span: Span,
    ) -> Eval {
        if let Some(Value::Object(obj)) = this {
            if let Some(v) = obj.get(name) {
                return Ok(v);
            }
        }
        if let Some(class) = class {
            if self.ct.lookup_field(class, name).is_some() {
                return self.static_field(class, name);
            }
        }
        let ctx = self.ctx_for(class);
        if let Some(c) = self.ct.resolve_simple(name, &ctx) {
            return Ok(Value::ClassRef(c));
        }
        Err(Control::error(format!("unresolved name {name}"), span))
    }

    pub(crate) fn field_of(&self, target: Value, name: Symbol, span: Span) -> Eval {
        match target {
            Value::ClassRef(c) => self.static_field(c, name),
            Value::Object(obj) => self.obj_field(&obj, name, span),
            Value::Array(a) if name.as_str() == "length" => {
                Ok(Value::Int(a.data.borrow().len() as i32))
            }
            Value::Null => Err(self.throw_simple("java.lang.NullPointerException", span)),
            other => Err(Control::error(
                format!("{other:?} has no field {name}"),
                span,
            )),
        }
    }

    /// Reads `obj.name`: an instance field, or the static field an
    /// instance qualifier names (`this.s`, `c.s`).  Layouts hold instance
    /// fields only.
    pub(crate) fn obj_field(&self, obj: &Obj, name: Symbol, span: Span) -> Eval {
        if let Some(v) = obj.get(name) {
            return Ok(v);
        }
        match self.static_owner(obj.class, name) {
            Some(owner) => self.static_field(owner, name),
            None => Err(Control::error(format!("no field {name}"), span)),
        }
    }

    /// Writes `obj.name`: an instance field, or the static field an
    /// instance qualifier names; returns the value stored.
    pub(crate) fn set_obj_field(&self, obj: &Obj, name: Symbol, v: Value) -> Eval {
        match obj.layout.offset(name) {
            Some(off) => Ok(obj.set_slot(off, v)),
            None => match self.static_owner(obj.class, name) {
                Some(owner) => self.set_static_field(owner, name, v),
                None => Ok(obj.set(name, v)),
            },
        }
    }

    /// The class declaring `name` when, seen from `class`, it is a static
    /// field.
    fn static_owner(&self, class: ClassId, name: Symbol) -> Option<ClassId> {
        match self.ct.lookup_field(class, name) {
            Some((owner, f)) if f.modifiers.is_static() => Some(owner),
            _ => None,
        }
    }

    fn eval_call(&self, mn: &MethodName, args: &[Expr], frame: &mut Frame, span: Span) -> Eval {
        let vals = args
            .iter()
            .map(|a| self.eval(a, frame))
            .collect::<Result<Vec<_>, _>>()?;
        if mn.super_recv {
            let this = frame
                .this
                .clone()
                .ok_or_else(|| Control::error("super call without this", span))?;
            let class = frame
                .class
                .ok_or_else(|| Control::error("super call without class", span))?;
            let sup = self
                .ct
                .info(class)
                .borrow()
                .superclass
                .ok_or_else(|| Control::error("no superclass", span))?;
            let m = self.select_method(sup, mn.name.sym, &vals, span)?;
            return self.invoke(Some(this), sup, &m, vals, span);
        }
        match &mn.receiver {
            Some(recv) => {
                let r = self.eval(recv, frame)?;
                match r {
                    Value::ClassRef(c) => self.invoke_static(c, mn.name.sym, vals, span),
                    Value::Null => {
                        Err(self.throw_simple("java.lang.NullPointerException", span))
                    }
                    other => self.invoke_by_name(other, mn.name.sym, vals, span),
                }
            }
            None => {
                let class = frame
                    .class
                    .ok_or_else(|| Control::error("call without enclosing class", span))?;
                match frame.this.clone() {
                    Some(this) => self.invoke_by_name(this, mn.name.sym, vals, span),
                    None => self.invoke_static(class, mn.name.sym, vals, span),
                }
            }
        }
    }

    /// Stores `v` into `target`; returns the value stored, which a field or
    /// an array element converts to its declared type.
    fn assign_to(&self, target: &Expr, v: Value, frame: &mut Frame) -> Eval {
        match &target.kind {
            ExprKind::Name(id) => self.assign_name(id.sym, v, frame, target.span),
            ExprKind::VarRef(name) => self.assign_name(*name, v, frame, target.span),
            ExprKind::FieldAccess(t, name) => {
                let tv = self.eval(t, frame)?;
                self.field_store(&tv, name.sym, v, target.span)
            }
            ExprKind::ArrayAccess(a, i) => {
                let arr = self.eval(a, frame)?;
                let idx = self.int_of(self.eval(i, frame)?, i.span)?;
                self.array_store(&arr, idx, v, target.span)
            }
            _ => Err(Control::error("invalid assignment target", target.span)),
        }
    }

    /// `target.name = v`, shared by both tiers: an object's field or a
    /// class's static field; returns the value stored.
    pub(crate) fn field_store(&self, target: &Value, name: Symbol, v: Value, span: Span) -> Eval {
        match target {
            Value::Object(obj) => self.set_obj_field(obj, name, v),
            Value::ClassRef(c) => self.set_static_field(*c, name, v),
            Value::Null => Err(self.throw_simple("java.lang.NullPointerException", span)),
            other => Err(Control::error(format!("cannot assign field of {other:?}"), span)),
        }
    }

    /// `arr[idx] = v`, shared by both tiers: throws like a read does —
    /// `ArrayIndexOutOfBoundsException` outside the array, and
    /// `NullPointerException` on a `null` array. A primitive element type
    /// converts `v` (see [`widen::to_declared`]); returns the value stored.
    pub(crate) fn array_store(&self, arr: &Value, idx: i32, v: Value, span: Span) -> Eval {
        match arr {
            Value::Array(a) => match a.data.borrow_mut().get_mut(idx as usize) {
                Some(slot) => {
                    *slot = widen::to_declared(v, widen::prim_of_type(&a.elem));
                    Ok(slot.clone())
                }
                None => Err(self.throw_simple("java.lang.ArrayIndexOutOfBoundsException", span)),
            },
            Value::Null => Err(self.throw_simple("java.lang.NullPointerException", span)),
            _ => Err(Control::error("not an array", span)),
        }
    }

    fn assign_name(&self, name: Symbol, v: Value, frame: &mut Frame, span: Span) -> Eval {
        if frame.assign(name, v.clone()) {
            return Ok(v);
        }
        self.env_assign_name(name, v, frame.this.as_ref(), frame.class, span)
    }

    /// The environment tail of name assignment (after locals): `this`
    /// field, then static field.  Shared by both execution tiers; returns
    /// the value stored.
    pub(crate) fn env_assign_name(
        &self,
        name: Symbol,
        v: Value,
        this: Option<&Value>,
        class: Option<ClassId>,
        span: Span,
    ) -> Eval {
        if let Some(Value::Object(obj)) = this {
            if obj.get(name).is_some() {
                return Ok(obj.set(name, v));
            }
        }
        if let Some(owner) = class.and_then(|c| self.static_owner(c, name)) {
            return self.set_static_field(owner, name, v);
        }
        Err(Control::error(format!("unresolved assignment to {name}"), span))
    }

    pub(crate) fn int_of(&self, v: Value, span: Span) -> Result<i32, Control> {
        match v {
            Value::Int(i) => Ok(i),
            Value::Char(c) => Ok(c as i32),
            other => Err(Control::error(format!("expected int, got {other:?}"), span)),
        }
    }

    pub(crate) fn eval_unary(&self, op: UnOp, v: Value, span: Span) -> Eval {
        Ok(match (op, v) {
            (UnOp::Neg, Value::Int(i)) => Value::Int(i.wrapping_neg()),
            (UnOp::Neg, Value::Long(l)) => Value::Long(l.wrapping_neg()),
            (UnOp::Neg, Value::Float(f)) => Value::Float(-f),
            (UnOp::Neg, Value::Double(d)) => Value::Double(-d),
            (UnOp::Plus, v) => v,
            (UnOp::Not, Value::Bool(b)) => Value::Bool(!b),
            (UnOp::BitNot, Value::Int(i)) => Value::Int(!i),
            (UnOp::BitNot, Value::Long(l)) => Value::Long(!l),
            (op, v) => {
                return Err(Control::error(
                    format!("invalid operand {v:?} for unary {op}"),
                    span,
                ))
            }
        })
    }

    fn eval_binary(&self, op: BinOp, l: &Expr, r: &Expr, frame: &mut Frame, span: Span) -> Eval {
        if self.profile.get() {
            if let ExprKind::Binary(inner, ..) = &l.kind {
                maya_telemetry::prof_binop_pair(op.as_str(), inner.as_str());
            }
            if let ExprKind::Binary(inner, ..) = &r.kind {
                maya_telemetry::prof_binop_pair(op.as_str(), inner.as_str());
            }
        }
        // Short-circuit first.
        if op == BinOp::And {
            return Ok(Value::Bool(self.truthy(l, frame)? && self.truthy(r, frame)?));
        }
        if op == BinOp::Or {
            return Ok(Value::Bool(self.truthy(l, frame)? || self.truthy(r, frame)?));
        }
        let lv = self.eval(l, frame)?;
        let rv = self.eval(r, frame)?;
        self.binary_values(op, &lv, &rv, span)
    }

    /// Applies a binary operator to already-evaluated values (borrowed —
    /// numeric and boolean results never need the operands moved):
    /// [`Interp::binary_values`] with a `long` fast path, for the VM's
    /// `Binary`/`JmpIfCmp` arms once [`int_binary`] declined the operands.
    pub(crate) fn binary_l_values(&self, op: BinOp, lv: &Value, rv: &Value, span: Span) -> Eval {
        use BinOp::*;
        // `long` fast path, including the int→long promoted pairs.  Same
        // contract as `int_binary`: every arm reproduces the generic
        // promotion result bit for bit.  Eq/Ne stay in `f64` because the
        // generic path compares all numeric pairs there — an exact `i64`
        // compare would *diverge* from the tree walker above 2^53.
        let wide = match (lv, rv) {
            (Value::Long(a), Value::Long(b)) => Some((*a, *b)),
            (Value::Long(a), Value::Int(b)) => Some((*a, i64::from(*b))),
            (Value::Int(a), Value::Long(b)) => Some((i64::from(*a), *b)),
            _ => None,
        };
        if let Some((a, b)) = wide {
            match op {
                Add => return Ok(Value::Long(a.wrapping_add(b))),
                Sub => return Ok(Value::Long(a.wrapping_sub(b))),
                Mul => return Ok(Value::Long(a.wrapping_mul(b))),
                Shl => return Ok(Value::Long(a.wrapping_shl(b as u32 & 63))),
                Shr => return Ok(Value::Long(a.wrapping_shr(b as u32 & 63))),
                Ushr => return Ok(Value::Long(((a as u64) >> (b as u32 & 63)) as i64)),
                BitAnd => return Ok(Value::Long(a & b)),
                BitOr => return Ok(Value::Long(a | b)),
                BitXor => return Ok(Value::Long(a ^ b)),
                Lt => return Ok(Value::Bool(a < b)),
                Gt => return Ok(Value::Bool(a > b)),
                Le => return Ok(Value::Bool(a <= b)),
                Ge => return Ok(Value::Bool(a >= b)),
                Eq => return Ok(Value::Bool(a as f64 == b as f64)),
                Ne => return Ok(Value::Bool(a as f64 != b as f64)),
                Div if b != 0 => return Ok(Value::Long(a.wrapping_div(b))),
                Rem if b != 0 => return Ok(Value::Long(a.wrapping_rem(b))),
                Div | Rem | And | Or => {}
            }
        }
        self.binary_values(op, lv, rv, span)
    }

    pub fn binary_values(&self, op: BinOp, lv: &Value, rv: &Value, span: Span) -> Eval {
        use BinOp::*;
        // String concatenation.
        if op == Add && (matches!(lv, Value::Str(_)) || matches!(rv, Value::Str(_))) {
            let s = format!("{}{}", self.display(lv), self.display(rv));
            return Ok(Value::owned_str(s));
        }
        if matches!(op, Eq | Ne) {
            let both_num = is_numeric(lv) && is_numeric(rv);
            let eq = if both_num {
                num_as_f64(lv) == num_as_f64(rv)
            } else {
                lv.ref_eq(rv)
            };
            return Ok(Value::Bool(if op == Eq { eq } else { !eq }));
        }
        if matches!(lv, Value::Bool(_)) || matches!(rv, Value::Bool(_)) {
            let (Value::Bool(a), Value::Bool(b)) = (lv, rv) else {
                return Err(Control::error("boolean operand mismatch", span));
            };
            return Ok(Value::Bool(match op {
                BitAnd => a & b,
                BitOr => a | b,
                BitXor => a ^ b,
                _ => return Err(Control::error(format!("bad boolean operator {op}"), span)),
            }));
        }
        if !is_numeric(lv) || !is_numeric(rv) {
            return Err(Control::error(
                format!("invalid operands {lv:?} {op} {rv:?}"),
                span,
            ));
        }
        // Binary numeric promotion.
        let rank = |v: &Value| match v {
            Value::Double(_) => 4,
            Value::Float(_) => 3,
            Value::Long(_) => 2,
            _ => 1,
        };
        let r = rank(lv).max(rank(rv));
        let div_zero = |c: Control| c;
        match r {
            4 | 3 => {
                let a = num_as_f64(lv);
                let b = num_as_f64(rv);
                let out = match op {
                    Add => a + b,
                    Sub => a - b,
                    Mul => a * b,
                    Div => a / b,
                    Rem => a % b,
                    Lt => return Ok(Value::Bool(a < b)),
                    Gt => return Ok(Value::Bool(a > b)),
                    Le => return Ok(Value::Bool(a <= b)),
                    Ge => return Ok(Value::Bool(a >= b)),
                    _ => {
                        return Err(Control::error(
                            format!("operator {op} undefined on floating point"),
                            span,
                        ))
                    }
                };
                Ok(if r == 4 {
                    Value::Double(out)
                } else {
                    Value::Float(out as f32)
                })
            }
            2 => {
                let a = num_as_i64(lv);
                let b = num_as_i64(rv);
                self.int_like_op(op, a, b, span)
                    .map(|v| match v {
                        IntOut::Num(n) => Value::Long(n),
                        IntOut::Bool(b) => Value::Bool(b),
                    })
                    .map_err(div_zero)
            }
            _ => {
                // 32-bit semantics: shifts mask to 5 bits, >>> is unsigned
                // in the 32-bit domain.
                let a = num_as_i64(lv) as i32;
                let b = num_as_i64(rv) as i32;
                use BinOp::*;
                let out = match op {
                    Shl => Value::Int(a.wrapping_shl(b as u32 & 31)),
                    Shr => Value::Int(a.wrapping_shr(b as u32 & 31)),
                    Ushr => Value::Int(((a as u32) >> (b as u32 & 31)) as i32),
                    _ => self
                        .int_like_op(op, a as i64, b as i64, span)
                        .map(|v| match v {
                            IntOut::Num(n) => Value::Int(n as i32),
                            IntOut::Bool(b) => Value::Bool(b),
                        })
                        .map_err(div_zero)?,
                };
                Ok(out)
            }
        }
    }

    fn int_like_op(&self, op: BinOp, a: i64, b: i64, span: Span) -> Result<IntOut, Control> {
        use BinOp::*;
        Ok(match op {
            Add => IntOut::Num(a.wrapping_add(b)),
            Sub => IntOut::Num(a.wrapping_sub(b)),
            Mul => IntOut::Num(a.wrapping_mul(b)),
            Div => {
                if b == 0 {
                    return Err(self.throw_simple("java.lang.ArithmeticException", span));
                }
                IntOut::Num(a.wrapping_div(b))
            }
            Rem => {
                if b == 0 {
                    return Err(self.throw_simple("java.lang.ArithmeticException", span));
                }
                IntOut::Num(a.wrapping_rem(b))
            }
            Shl => IntOut::Num(a.wrapping_shl(b as u32 & 63)),
            Shr => IntOut::Num(a.wrapping_shr(b as u32 & 63)),
            Ushr => IntOut::Num(((a as u64) >> (b as u32 & 63)) as i64),
            BitAnd => IntOut::Num(a & b),
            BitOr => IntOut::Num(a | b),
            BitXor => IntOut::Num(a ^ b),
            Lt => IntOut::Bool(a < b),
            Gt => IntOut::Bool(a > b),
            Le => IntOut::Bool(a <= b),
            Ge => IntOut::Bool(a >= b),
            Eq | Ne | And | Or => {
                return Err(Control::error("unexpected operator in int path", span))
            }
        })
    }
}

/// `int`⊗`int` for every operator that cannot fail — all but `/` and `%`
/// by zero (which throw) and the short-circuit `&&`/`||` (never a binary
/// instruction); `None` leaves the case to [`Interp::binary_l_values`].
/// The VM's `Binary` and `JmpIfCmp` arms call it in the dispatch loop.
/// Every arm reproduces the generic path's promotion result exactly (all
/// `i32` pairs are exact in `f64`, so even `==`/`!=` agree), and wrapping
/// div/rem matches the promoted `i64` computation on the MIN/-1 edge.
#[inline]
pub(crate) fn int_binary(op: BinOp, a: i32, b: i32) -> Option<Value> {
    use BinOp::*;
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
        Eq => Value::Bool(a == b),
        Ne => Value::Bool(a != b),
        Div if b != 0 => Value::Int(a.wrapping_div(b)),
        Rem if b != 0 => Value::Int(a.wrapping_rem(b)),
        Div | Rem | And | Or => return None,
    })
}

enum IntOut {
    Num(i64),
    Bool(bool),
}

fn is_numeric(v: &Value) -> bool {
    matches!(
        v,
        Value::Int(_) | Value::Long(_) | Value::Float(_) | Value::Double(_) | Value::Char(_)
    )
}

fn num_as_f64(v: &Value) -> f64 {
    match v {
        Value::Int(i) => *i as f64,
        Value::Long(l) => *l as f64,
        Value::Float(f) => *f as f64,
        Value::Double(d) => *d,
        Value::Char(c) => *c as u32 as f64,
        _ => 0.0,
    }
}

fn num_as_i64(v: &Value) -> i64 {
    match v {
        Value::Int(i) => *i as i64,
        Value::Long(l) => *l,
        Value::Char(c) => *c as u32 as i64,
        Value::Float(f) => *f as i64,
        Value::Double(d) => *d as i64,
        _ => 0,
    }
}
