//! The demand-driven type checker.
//!
//! Types are computed on demand (paper §4): the parser asks for the static
//! type of an expression while dispatch is in progress, and the checker in
//! turn *forces* lazy nodes through its [`CheckHost`] when it reaches them.

use crate::{
    ClassId, ClassTable, CtorInfo, MethodInfo, ResolveCtx, Scope, Type, TypeError, VarBinding,
    VarKind,
};
use maya_ast::{
    BinOp, Expr, ExprKind, LazyNode, Lit, MethodName, Node, NodeKind, PrimKind, Stmt, StmtKind,
    TypeNameKind, UnOp,
};
use maya_lexer::{Span, Symbol};

/// Host services the checker needs from the compiler: forcing lazy nodes and
/// typing template literals.
pub trait CheckHost {
    /// Forces a lazy node (parses it under its captured environment, with
    /// the *current* scope for any type-directed dispatch inside).
    ///
    /// # Errors
    ///
    /// Propagates parse and dispatch errors from the forced syntax.
    fn force_lazy(&mut self, lazy: &LazyNode, scope: &mut Scope) -> Result<(), TypeError>;

    /// The type of a template literal with the given goal kind (a
    /// `maya.tree.*` class).
    ///
    /// # Errors
    ///
    /// Fails when templates are not available in this context.
    fn template_type(&mut self, goal: NodeKind) -> Result<Type, TypeError> {
        let _ = goal;
        Err(TypeError::new(
            "templates are not available in this context",
            Span::DUMMY,
        ))
    }
}

/// A host that rejects lazy nodes — usable when input is fully forced.
pub struct NoHost;

impl CheckHost for NoHost {
    fn force_lazy(&mut self, _lazy: &LazyNode, _scope: &mut Scope) -> Result<(), TypeError> {
        Err(TypeError::new(
            "internal error: lazy node encountered without a forcing host",
            Span::DUMMY,
        ))
    }
}

/// What a (possibly partial) expression denotes during resolution.
enum Denot {
    Val(Type),
    Class(ClassId),
    Package(String),
}

/// The type checker. Borrowed pieces: the class table, the lexical
/// resolution context, and the forcing host.
pub struct Checker<'a> {
    pub ct: &'a ClassTable,
    pub ctx: &'a ResolveCtx,
    pub host: &'a mut dyn CheckHost,
    loop_depth: u32,
}

impl<'a> Checker<'a> {
    /// Creates a checker.
    pub fn new(ct: &'a ClassTable, ctx: &'a ResolveCtx, host: &'a mut dyn CheckHost) -> Checker<'a> {
        Checker {
            ct,
            ctx,
            host,
            loop_depth: 0,
        }
    }

    fn err<T>(&self, msg: impl Into<String>, span: Span) -> Result<T, TypeError> {
        Err(TypeError::new(msg, span))
    }

    /// The static type of an expression — `Expression.getStaticType()` of
    /// the paper's reflection API.
    ///
    /// # Errors
    ///
    /// Reports unresolved names, bad operand types, failed overload
    /// resolution, and errors from forcing lazy subterms.
    pub fn type_of_expr(&mut self, e: &Expr, scope: &mut Scope) -> Result<Type, TypeError> {
        let _p = maya_telemetry::phase(maya_telemetry::Phase::TypeCheck);
        match self.denot_expr(e, scope)? {
            Denot::Val(t) => Ok(t),
            Denot::Class(c) => self.err(
                format!("class {} used where a value is required", self.ct.fqcn(c)),
                e.span,
            ),
            Denot::Package(p) => {
                self.err(format!("package {p} used where a value is required"), e.span)
            }
        }
    }

    fn denot_expr(&mut self, e: &Expr, scope: &mut Scope) -> Result<Denot, TypeError> {
        let span = e.span;
        let val = |t: Type| Ok(Denot::Val(t));
        match &e.kind {
            ExprKind::Literal(l) => val(self.lit_type(l)),
            ExprKind::Name(id) => self.denot_name(id.sym, span, scope),
            ExprKind::FieldAccess(target, name) => {
                let target_denot = self.denot_expr(target, scope)?;
                self.denot_member(target_denot, name.sym, span)
            }
            ExprKind::Call(mn, args) => {
                let mut arg_tys = Vec::with_capacity(args.len());
                for a in args {
                    arg_tys.push(self.type_of_expr(a, scope)?);
                }
                let m = self.resolve_call(mn, &arg_tys, span, scope)?;
                val(m.ret)
            }
            ExprKind::ArrayAccess(a, i) => {
                let at = self.type_of_expr(a, scope)?;
                let it = self.type_of_expr(i, scope)?;
                if !it.is_integral() {
                    return self.err(
                        format!("array index must be integral, found {}", self.ct.describe(&it)),
                        i.span,
                    );
                }
                match at {
                    Type::Array(el) => val(*el),
                    Type::Error => val(Type::Error),
                    other => self.err(
                        format!("cannot index non-array type {}", self.ct.describe(&other)),
                        span,
                    ),
                }
            }
            ExprKind::New(tn, args) => {
                let ty = self.ct.resolve_type_name(tn, self.ctx)?;
                let Some(cid) = ty.class_id() else {
                    return self.err(format!("cannot instantiate {}", self.ct.describe(&ty)), span);
                };
                if self.ct.info(cid).borrow().is_interface {
                    return self.err(
                        format!("cannot instantiate interface {}", self.ct.fqcn(cid)),
                        span,
                    );
                }
                let mut arg_tys = Vec::with_capacity(args.len());
                for a in args {
                    arg_tys.push(self.type_of_expr(a, scope)?);
                }
                self.resolve_ctor(cid, &arg_tys, span)?;
                val(ty)
            }
            ExprKind::NewArray { elem, dims, .. } => {
                let base = self.ct.resolve_type_name(elem, self.ctx)?;
                let mut ty = base;
                for d in dims {
                    let dt = self.type_of_expr(d, scope)?;
                    if !dt.is_integral() {
                        return self.err("array dimension must be integral", d.span);
                    }
                    ty = ty.array_of();
                }
                if let ExprKind::NewArray { extra_dims, .. } = &e.kind {
                    for _ in 0..*extra_dims {
                        ty = ty.array_of();
                    }
                }
                val(ty)
            }
            ExprKind::Binary(op, l, r) => {
                let lt = self.type_of_expr(l, scope)?;
                let rt = self.type_of_expr(r, scope)?;
                val(self.binary_type(*op, &lt, &rt, span)?)
            }
            ExprKind::Unary(op, x) => {
                let t = self.type_of_expr(x, scope)?;
                let out = match op {
                    UnOp::Neg | UnOp::Plus => {
                        if !t.is_numeric() && t != Type::Error {
                            return self.err("unary +/- requires a numeric operand", span);
                        }
                        unary_promote(&t)
                    }
                    UnOp::Not => {
                        if t != Type::boolean() && t != Type::Error {
                            return self.err("! requires a boolean operand", span);
                        }
                        Type::boolean()
                    }
                    UnOp::BitNot => {
                        if !t.is_integral() && t != Type::Error {
                            return self.err("~ requires an integral operand", span);
                        }
                        unary_promote(&t)
                    }
                };
                val(out)
            }
            ExprKind::IncDec(_, _, x) => {
                let t = self.type_of_expr(x, scope)?;
                if !t.is_numeric() && t != Type::Error {
                    return self.err("++/-- requires a numeric operand", span);
                }
                self.require_lvalue(x)?;
                val(t)
            }
            ExprKind::Assign(op, l, r) => {
                let lt = self.type_of_expr(l, scope)?;
                let rt = self.type_of_expr(r, scope)?;
                self.require_lvalue(l)?;
                match op {
                    None => {
                        if !self.ct.is_assignable_value(r, &rt, &lt) {
                            return self.err(
                                format!(
                                    "cannot assign {} to {}",
                                    self.ct.describe(&rt),
                                    self.ct.describe(&lt)
                                ),
                                span,
                            );
                        }
                    }
                    Some(op) => {
                        // Compound assignment: the binary op must be valid
                        // and its result convertible back (Java narrows
                        // implicitly here; we accept it).
                        self.binary_type(*op, &lt, &rt, span)?;
                    }
                }
                val(lt)
            }
            ExprKind::Cond(c, t, f) => {
                let ct_ = self.type_of_expr(c, scope)?;
                if ct_ != Type::boolean() && ct_ != Type::Error {
                    return self.err("condition of ?: must be boolean", c.span);
                }
                let tt = self.type_of_expr(t, scope)?;
                let ft = self.type_of_expr(f, scope)?;
                val(self.merge_types(&tt, &ft, span)?)
            }
            ExprKind::Cast(tn, x) => {
                let target = self.ct.resolve_type_name(tn, self.ctx)?;
                let source = self.type_of_expr(x, scope)?;
                let ok = match (&source, &target) {
                    (s, t) if s.is_numeric() && t.is_numeric() => true,
                    (s, t) if s.is_reference() && t.is_reference() => {
                        // Up/downcasts allowed; unrelated classes allowed
                        // only through interfaces — we accept any ref cast
                        // and let the runtime check it.
                        true
                    }
                    (Type::Error, _) | (_, Type::Error) => true,
                    (s, t) => s == t,
                };
                if !ok {
                    return self.err(
                        format!(
                            "cannot cast {} to {}",
                            self.ct.describe(&source),
                            self.ct.describe(&target)
                        ),
                        span,
                    );
                }
                val(target)
            }
            ExprKind::Instanceof(x, tn) => {
                let t = self.type_of_expr(x, scope)?;
                let target = self.ct.resolve_type_name(tn, self.ctx)?;
                if !t.is_reference() && t != Type::Error {
                    return self.err("instanceof requires a reference operand", x.span);
                }
                if !target.is_reference() {
                    return self.err("instanceof requires a reference type", tn.span);
                }
                val(Type::boolean())
            }
            ExprKind::This => match scope.this_class {
                Some(c) if !scope.static_ctx => val(Type::Class(c)),
                Some(_) => self.err("this is not available in a static context", span),
                None => self.err("this is not available here", span),
            },
            ExprKind::VarRef(name) => {
                // Direct reference (Reference.makeExpr): exact local first,
                // then a field of the enclosing class even if shadowed.
                if let Some(b) = scope.lookup(*name) {
                    return val(b.ty.clone());
                }
                if let Some(c) = scope.this_class {
                    if let Some((_, f)) = self.ct.lookup_field(c, *name) {
                        return val(f.ty);
                    }
                }
                self.err(format!("unresolved direct reference {name}"), span)
            }
            ExprKind::ClassRef(fqcn) => match self.ct.by_fqcn(*fqcn) {
                Some(c) => Ok(Denot::Class(c)),
                None => self.err(format!("unknown class {fqcn}"), span),
            },
            ExprKind::Template(t) => val(self.host.template_type(t.goal)?),
            ExprKind::Lazy(l) => {
                self.host.force_lazy(l, scope)?;
                let node = l.forced_node().ok_or_else(|| {
                    TypeError::new("internal error: lazy node not fulfilled", span)
                })?;
                match Node::clone(&node).into_expr() {
                    Some(inner) => self.denot_expr(&inner, scope),
                    None => self.err("lazy node did not produce an expression", span),
                }
            }
            ExprKind::TypeDims(_) => {
                self.err("array-type syntax used where a value is required", span)
            }
        }
    }

    fn lit_type(&self, l: &Lit) -> Type {
        match l {
            Lit::Int(_) => Type::int(),
            Lit::Long(_) => Type::Prim(PrimKind::Long),
            Lit::Float(_) => Type::Prim(PrimKind::Float),
            Lit::Double(_) => Type::Prim(PrimKind::Double),
            Lit::Bool(_) => Type::boolean(),
            Lit::Char(_) => Type::Prim(PrimKind::Char),
            Lit::Str(_) => self.string_type(),
            Lit::Null => Type::Null,
        }
    }

    fn string_type(&self) -> Type {
        self.ct
            .by_fqcn_str("java.lang.String")
            .map(Type::Class)
            .unwrap_or(Type::Error)
    }

    fn is_string(&self, t: &Type) -> bool {
        t.class_id()
            .is_some_and(|c| Some(c) == self.ct.by_fqcn_str("java.lang.String"))
    }

    fn denot_name(&mut self, name: Symbol, span: Span, scope: &mut Scope) -> Result<Denot, TypeError> {
        if let Some(b) = scope.lookup(name) {
            return Ok(Denot::Val(b.ty.clone()));
        }
        if let Some(c) = scope.this_class {
            if let Some((_, f)) = self.ct.lookup_field(c, name) {
                if scope.static_ctx && !f.modifiers.is_static() {
                    return self.err(
                        format!("instance field {name} referenced from a static context"),
                        span,
                    );
                }
                return Ok(Denot::Val(f.ty));
            }
        }
        if let Some(c) = self.ct.resolve_simple(name, self.ctx) {
            return Ok(Denot::Class(c));
        }
        Ok(Denot::Package(name.to_string()))
    }

    fn denot_member(&mut self, target: Denot, name: Symbol, span: Span) -> Result<Denot, TypeError> {
        match target {
            Denot::Package(prefix) => {
                let dotted = format!("{prefix}.{name}");
                if let Some(c) = self.ct.by_fqcn_str(&dotted) {
                    return Ok(Denot::Class(c));
                }
                Ok(Denot::Package(dotted))
            }
            Denot::Class(c) => {
                if let Some((_, f)) = self.ct.lookup_field(c, name) {
                    if !f.modifiers.is_static() {
                        return self.err(
                            format!(
                                "instance field {name} accessed through class {}",
                                self.ct.fqcn(c)
                            ),
                            span,
                        );
                    }
                    return Ok(Denot::Val(f.ty));
                }
                self.err(
                    format!("class {} has no static field {name}", self.ct.fqcn(c)),
                    span,
                )
            }
            Denot::Val(ty) => match &ty {
                Type::Array(_) if name.as_str() == "length" => Ok(Denot::Val(Type::int())),
                Type::Class(c) => match self.ct.lookup_field(*c, name) {
                    Some((_, f)) => Ok(Denot::Val(f.ty)),
                    None => self.err(
                        format!("type {} has no field {name}", self.ct.fqcn(*c)),
                        span,
                    ),
                },
                Type::Error => Ok(Denot::Val(Type::Error)),
                other => self.err(
                    format!("type {} has no members", self.ct.describe(other)),
                    span,
                ),
            },
        }
    }

    /// Resolves a call through Java-style overload resolution and returns
    /// the selected method.
    ///
    /// # Errors
    ///
    /// Reports unknown methods and ambiguous or inapplicable overloads.
    pub fn resolve_call(
        &mut self,
        mn: &MethodName,
        arg_tys: &[Type],
        span: Span,
        scope: &mut Scope,
    ) -> Result<MethodInfo, TypeError> {
        let name = mn.name.sym;
        let (owner, candidates, static_only): (String, Vec<(ClassId, MethodInfo)>, bool) =
            if mn.super_recv {
                let Some(this) = scope.this_class else {
                    return self.err("super call outside a class", span);
                };
                let sup = self.ct.info(this).borrow().superclass;
                let Some(sup) = sup else {
                    return self.err("class has no superclass", span);
                };
                (
                    self.ct.fqcn(sup).to_string(),
                    self.ct.methods_named(sup, name),
                    false,
                )
            } else if let Some(recv) = &mn.receiver {
                match self.denot_expr(recv, scope)? {
                    Denot::Val(Type::Class(c)) => {
                        (self.ct.fqcn(c).to_string(), self.ct.methods_named(c, name), false)
                    }
                    Denot::Val(Type::Error) => {
                        return Ok(MethodInfo::native("<error>", vec![], Type::Error, "<error>"))
                    }
                    Denot::Val(other) => {
                        return self.err(
                            format!(
                                "cannot invoke {name} on non-class type {}",
                                self.ct.describe(&other)
                            ),
                            span,
                        )
                    }
                    Denot::Class(c) => {
                        (self.ct.fqcn(c).to_string(), self.ct.methods_named(c, name), true)
                    }
                    Denot::Package(p) => {
                        return self.err(format!("package {p} has no method {name}"), span)
                    }
                }
            } else {
                let Some(this) = scope.this_class else {
                    return self.err(format!("unresolved method {name}"), span);
                };
                (
                    self.ct.fqcn(this).to_string(),
                    self.ct.methods_named(this, name),
                    false,
                )
            };

        if candidates.is_empty() {
            return self.err(format!("{owner} has no method {name}"), span);
        }
        let applicable: Vec<&(ClassId, MethodInfo)> = candidates
            .iter()
            .filter(|(_, m)| {
                m.params.len() == arg_tys.len()
                    && m.params
                        .iter()
                        .zip(arg_tys)
                        .all(|(p, a)| self.ct.is_assignable(a, p))
                    && (!static_only || m.is_static())
            })
            .collect();
        if applicable.is_empty() {
            let shown: Vec<String> = arg_tys.iter().map(|t| self.ct.describe(t)).collect();
            return self.err(
                format!(
                    "no applicable overload of {owner}.{name}({})",
                    shown.join(", ")
                ),
                span,
            );
        }
        // Most specific: m such that every other applicable n has
        // m.params pointwise assignable to n.params.
        let mut best: Vec<&(ClassId, MethodInfo)> = Vec::new();
        'outer: for m in &applicable {
            for n in &applicable {
                let more_specific = m
                    .1
                    .params
                    .iter()
                    .zip(&n.1.params)
                    .all(|(a, b)| self.ct.is_assignable(a, b));
                if !more_specific {
                    continue 'outer;
                }
            }
            best.push(m);
        }
        match best.len() {
            1 => Ok(best[0].1.clone()),
            0 => self.err(format!("ambiguous call to {owner}.{name}"), span),
            _ => {
                // Identical signatures can appear via interfaces; accept
                // the first if all share a signature.
                if best.windows(2).all(|w| w[0].1.params == w[1].1.params) {
                    Ok(best[0].1.clone())
                } else {
                    self.err(format!("ambiguous call to {owner}.{name}"), span)
                }
            }
        }
    }

    fn resolve_ctor(
        &mut self,
        cid: ClassId,
        arg_tys: &[Type],
        span: Span,
    ) -> Result<CtorInfo, TypeError> {
        let ctors = self.ct.ctors(cid);
        if ctors.is_empty() && arg_tys.is_empty() {
            // Implicit default constructor.
            return Ok(CtorInfo {
                params: vec![],
                param_names: vec![],
                modifiers: maya_ast::Modifiers::none(),
                body: None,
                native: None,
            });
        }
        let applicable: Vec<&CtorInfo> = ctors
            .iter()
            .filter(|c| {
                c.params.len() == arg_tys.len()
                    && c.params
                        .iter()
                        .zip(arg_tys)
                        .all(|(p, a)| self.ct.is_assignable(a, p))
            })
            .collect();
        match applicable.len() {
            0 => self.err(
                format!("no applicable constructor for {}", self.ct.fqcn(cid)),
                span,
            ),
            _ => Ok(applicable[0].clone()),
        }
    }

    fn binary_type(
        &mut self,
        op: BinOp,
        lt: &Type,
        rt: &Type,
        span: Span,
    ) -> Result<Type, TypeError> {
        use BinOp::*;
        if *lt == Type::Error || *rt == Type::Error {
            return Ok(Type::Error);
        }
        match op {
            Add => {
                if self.is_string(lt) || self.is_string(rt) {
                    return Ok(self.string_type());
                }
                if lt.is_numeric() && rt.is_numeric() {
                    return Ok(binary_promote(lt, rt));
                }
                self.err(
                    format!(
                        "operator + undefined for {} and {}",
                        self.ct.describe(lt),
                        self.ct.describe(rt)
                    ),
                    span,
                )
            }
            Sub | Mul | Div | Rem => {
                if lt.is_numeric() && rt.is_numeric() {
                    Ok(binary_promote(lt, rt))
                } else {
                    self.err(format!("operator {op} requires numeric operands"), span)
                }
            }
            Shl | Shr | Ushr => {
                if lt.is_integral() && rt.is_integral() {
                    Ok(unary_promote(lt))
                } else {
                    self.err(format!("operator {op} requires integral operands"), span)
                }
            }
            Lt | Gt | Le | Ge => {
                if lt.is_numeric() && rt.is_numeric() {
                    Ok(Type::boolean())
                } else {
                    self.err(format!("operator {op} requires numeric operands"), span)
                }
            }
            Eq | Ne => {
                let ok = (lt.is_numeric() && rt.is_numeric())
                    || (*lt == Type::boolean() && *rt == Type::boolean())
                    || (lt.is_reference()
                        && rt.is_reference()
                        && (self.ct.is_subtype(lt, rt) || self.ct.is_subtype(rt, lt)));
                if ok {
                    Ok(Type::boolean())
                } else {
                    self.err(
                        format!(
                            "operator {op} undefined for {} and {}",
                            self.ct.describe(lt),
                            self.ct.describe(rt)
                        ),
                        span,
                    )
                }
            }
            BitAnd | BitXor | BitOr => {
                if lt.is_integral() && rt.is_integral() {
                    Ok(binary_promote(lt, rt))
                } else if *lt == Type::boolean() && *rt == Type::boolean() {
                    Ok(Type::boolean())
                } else {
                    self.err(format!("operator {op} requires integral or boolean operands"), span)
                }
            }
            And | Or => {
                if *lt == Type::boolean() && *rt == Type::boolean() {
                    Ok(Type::boolean())
                } else {
                    self.err(format!("operator {op} requires boolean operands"), span)
                }
            }
        }
    }

    fn merge_types(&mut self, a: &Type, b: &Type, span: Span) -> Result<Type, TypeError> {
        if a == b {
            return Ok(a.clone());
        }
        if a.is_numeric() && b.is_numeric() {
            return Ok(binary_promote(a, b));
        }
        if self.ct.is_assignable(a, b) {
            return Ok(b.clone());
        }
        if self.ct.is_assignable(b, a) {
            return Ok(a.clone());
        }
        self.err(
            format!(
                "incompatible branch types {} and {}",
                self.ct.describe(a),
                self.ct.describe(b)
            ),
            span,
        )
    }

    fn require_lvalue(&self, e: &Expr) -> Result<(), TypeError> {
        match &e.kind {
            ExprKind::Name(_)
            | ExprKind::FieldAccess(..)
            | ExprKind::ArrayAccess(..)
            | ExprKind::VarRef(_) => Ok(()),
            _ => Err(TypeError::new("not an assignable location", e.span)),
        }
    }

    /// Checks one statement, declaring variables into `scope`.
    ///
    /// # Errors
    ///
    /// Reports all static-semantics violations in the statement.
    pub fn check_stmt(&mut self, s: &Stmt, scope: &mut Scope) -> Result<(), TypeError> {
        match &s.kind {
            StmtKind::Block(b) => {
                scope.push();
                let r = self.check_stmts(&b.stmts, scope);
                scope.pop();
                r
            }
            StmtKind::Expr(e) => {
                self.type_of_expr(e, scope)?;
                match &e.kind {
                    ExprKind::Call(..)
                    | ExprKind::Assign(..)
                    | ExprKind::IncDec(..)
                    | ExprKind::New(..)
                    | ExprKind::Lazy(_) => Ok(()),
                    _ => self.err("not a statement expression", e.span),
                }
            }
            StmtKind::Decl(tn, decls) => {
                let base = self.ct.resolve_type_name(tn, self.ctx)?;
                for d in decls {
                    let mut ty = base.clone();
                    for _ in 0..d.dims {
                        ty = ty.array_of();
                    }
                    if let Some(init) = &d.init {
                        let it = self.type_of_expr(init, scope)?;
                        if !self.ct.is_assignable_value(init, &it, &ty) {
                            return self.err(
                                format!(
                                    "cannot initialize {} {} with {}",
                                    self.ct.describe(&ty),
                                    d.name,
                                    self.ct.describe(&it)
                                ),
                                init.span,
                            );
                        }
                    }
                    if !scope.declare(
                        d.name.sym,
                        VarBinding {
                            ty,
                            kind: VarKind::Local,
                            is_final: false,
                        },
                    ) {
                        return self.err(format!("duplicate variable {}", d.name), s.span);
                    }
                }
                Ok(())
            }
            StmtKind::If(c, t, f) => {
                self.reject_bare_declaration(t)?;
                if let Some(f) = f {
                    self.reject_bare_declaration(f)?;
                }
                self.check_bool(c, scope)?;
                self.check_stmt(t, scope)?;
                if let Some(f) = f {
                    self.check_stmt(f, scope)?;
                }
                Ok(())
            }
            StmtKind::While(c, body) => {
                self.reject_bare_declaration(body)?;
                self.check_bool(c, scope)?;
                self.loop_depth += 1;
                let r = self.check_stmt(body, scope);
                self.loop_depth -= 1;
                r
            }
            StmtKind::Do(body, c) => {
                self.reject_bare_declaration(body)?;
                self.loop_depth += 1;
                let r = self.check_stmt(body, scope);
                self.loop_depth -= 1;
                r?;
                self.check_bool(c, scope)
            }
            StmtKind::For {
                init,
                cond,
                update,
                body,
            } => {
                self.reject_bare_declaration(body)?;
                scope.push();
                let result = (|| {
                    match init {
                        maya_ast::ForInit::None => {}
                        maya_ast::ForInit::Decl(tn, decls) => {
                            let stmt = Stmt::synth(StmtKind::Decl(tn.clone(), decls.clone()));
                            self.check_stmt(&stmt, scope)?;
                        }
                        maya_ast::ForInit::Exprs(es) => {
                            for e in es {
                                self.type_of_expr(e, scope)?;
                            }
                        }
                    }
                    if let Some(c) = cond {
                        self.check_bool(c, scope)?;
                    }
                    for u in update {
                        self.type_of_expr(u, scope)?;
                    }
                    self.loop_depth += 1;
                    let r = self.check_stmt(body, scope);
                    self.loop_depth -= 1;
                    r
                })();
                scope.pop();
                result
            }
            StmtKind::Return(value) => {
                let expected = scope.return_type.clone();
                match (value, expected == Type::Void) {
                    (None, true) => Ok(()),
                    (None, false) => self.err("missing return value", s.span),
                    (Some(_), true) => self.err("void method returns a value", s.span),
                    (Some(v), false) => {
                        let vt = self.type_of_expr(v, scope)?;
                        if self.ct.is_assignable_value(v, &vt, &expected) {
                            Ok(())
                        } else {
                            self.err(
                                format!(
                                    "cannot return {} from a method returning {}",
                                    self.ct.describe(&vt),
                                    self.ct.describe(&expected)
                                ),
                                v.span,
                            )
                        }
                    }
                }
            }
            StmtKind::Break | StmtKind::Continue => {
                if self.loop_depth == 0 {
                    self.err("break/continue outside of a loop", s.span)
                } else {
                    Ok(())
                }
            }
            StmtKind::Throw(e) => {
                let t = self.type_of_expr(e, scope)?;
                if t.is_reference() || t == Type::Error {
                    Ok(())
                } else {
                    self.err("throw requires a reference value", e.span)
                }
            }
            StmtKind::Try {
                body,
                catches,
                finally,
            } => {
                scope.push();
                let r = self.check_stmts(&body.stmts, scope);
                scope.pop();
                r?;
                for c in catches {
                    scope.push();
                    let ty = self.ct.resolve_type_name(&c.param.ty, self.ctx)?;
                    scope.declare(
                        c.param.name.sym,
                        VarBinding {
                            ty,
                            kind: VarKind::Param,
                            is_final: false,
                        },
                    );
                    let r = self.check_stmts(&c.body.stmts, scope);
                    scope.pop();
                    r?;
                }
                if let Some(f) = finally {
                    scope.push();
                    let r = self.check_stmts(&f.stmts, scope);
                    scope.pop();
                    r?;
                }
                Ok(())
            }
            StmtKind::Use(_, body) => {
                scope.push();
                let r = self.check_stmts(&body.stmts, scope);
                scope.pop();
                r
            }
            StmtKind::Empty => Ok(()),
            // A poison node from parser recovery: the error was already
            // reported; checking it would only cascade.
            StmtKind::Error => Ok(()),
            StmtKind::Lazy(l) => {
                self.host.force_lazy(l, scope)?;
                let node = l.forced_node().ok_or_else(|| {
                    TypeError::new("internal error: lazy node not fulfilled", s.span)
                })?;
                self.check_node(&node, scope)
            }
        }
    }

    /// Rejects a local declaration standing as a loop body or an `if`
    /// branch, as javac does. Java's grammar has no declaration there,
    /// and the two execution tiers would disagree on whether a loop's
    /// update and later iterations see the variable.
    fn reject_bare_declaration(&self, s: &Stmt) -> Result<(), TypeError> {
        match s.kind {
            StmtKind::Decl(..) => self.err("variable declaration not allowed here", s.span),
            _ => Ok(()),
        }
    }

    /// Checks a statement sequence in the current frame.
    ///
    /// # Errors
    ///
    /// Stops at the first violation.
    pub fn check_stmts(&mut self, stmts: &[Stmt], scope: &mut Scope) -> Result<(), TypeError> {
        for s in stmts {
            self.check_stmt(s, scope)?;
        }
        Ok(())
    }

    /// Checks any node shape the checker can reach through laziness.
    ///
    /// # Errors
    ///
    /// Propagates the underlying check.
    pub fn check_node(&mut self, n: &Node, scope: &mut Scope) -> Result<(), TypeError> {
        let _p = maya_telemetry::phase(maya_telemetry::Phase::TypeCheck);
        match n {
            Node::Expr(e) => self.type_of_expr(e, scope).map(|_| ()),
            Node::Stmt(s) => self.check_stmt(s, scope),
            Node::Block(b) => self.check_stmts(&b.stmts, scope),
            Node::Lazy(l) => {
                self.host.force_lazy(l, scope)?;
                let inner = l.forced_node().ok_or_else(|| {
                    TypeError::new("internal error: lazy node not fulfilled", Span::DUMMY)
                })?;
                self.check_node(&inner, scope)
            }
            Node::Unit => Ok(()),
            other => Err(TypeError::new(
                format!("cannot check node of kind {}", other.node_kind().name()),
                Span::DUMMY,
            )),
        }
    }

    fn check_bool(&mut self, e: &Expr, scope: &mut Scope) -> Result<(), TypeError> {
        let t = self.type_of_expr(e, scope)?;
        if t == Type::boolean() || t == Type::Error {
            Ok(())
        } else {
            self.err(
                format!("condition must be boolean, found {}", self.ct.describe(&t)),
                e.span,
            )
        }
    }
}

/// Unary numeric promotion: byte/short/char → int.
fn unary_promote(t: &Type) -> Type {
    match t {
        Type::Prim(PrimKind::Byte | PrimKind::Short | PrimKind::Char) => Type::int(),
        other => other.clone(),
    }
}

/// Binary numeric promotion.
fn binary_promote(a: &Type, b: &Type) -> Type {
    use PrimKind::*;
    let rank = |t: &Type| match t {
        Type::Prim(Double) => 4,
        Type::Prim(Float) => 3,
        Type::Prim(Long) => 2,
        _ => 1,
    };
    let (ra, rb) = (rank(a), rank(b));
    let r = ra.max(rb);
    match r {
        4 => Type::Prim(Double),
        3 => Type::Prim(Float),
        2 => Type::Prim(Long),
        _ => Type::int(),
    }
}

/// JLS §5.2's narrowing of a constant: `value`, a constant expression of
/// type `byte`, `short`, `char` or `int`, initializes or is assigned to a
/// `byte`, `short` or `char` whose range holds its value.
pub(crate) fn narrows_constant(value: &Expr, from: &Type, to: &Type) -> bool {
    use PrimKind::*;
    let (Type::Prim(Byte | Short | Char | Int), Type::Prim(to @ (Byte | Short | Char))) =
        (from, to)
    else {
        return false;
    };
    match (int_constant(value), to) {
        (Some(v), Byte) => i8::try_from(v).is_ok(),
        (Some(v), Short) => i16::try_from(v).is_ok(),
        (Some(v), Char) => u16::try_from(v).is_ok(),
        _ => false,
    }
}

/// The value of `e` when it is a constant expression of an integral type
/// no wider than `int` (JLS §15.29, constant variables aside): `int` and
/// `char` literals combined by unary and binary operators and casts to
/// `byte`, `short`, `char` or `int`, in Java's `int` arithmetic.
fn int_constant(e: &Expr) -> Option<i32> {
    use BinOp::*;
    match &e.kind {
        ExprKind::Literal(Lit::Int(v)) => Some(*v),
        ExprKind::Literal(Lit::Char(c)) => Some(*c as i32),
        ExprKind::Unary(op, x) => {
            let v = int_constant(x)?;
            match op {
                UnOp::Neg => Some(v.wrapping_neg()),
                UnOp::Plus => Some(v),
                UnOp::BitNot => Some(!v),
                UnOp::Not => None,
            }
        }
        ExprKind::Binary(op, l, r) => {
            let (a, b) = (int_constant(l)?, int_constant(r)?);
            match op {
                Add => Some(a.wrapping_add(b)),
                Sub => Some(a.wrapping_sub(b)),
                Mul => Some(a.wrapping_mul(b)),
                Div => (b != 0).then(|| a.wrapping_div(b)),
                Rem => (b != 0).then(|| a.wrapping_rem(b)),
                Shl => Some(a.wrapping_shl(b as u32)),
                Shr => Some(a.wrapping_shr(b as u32)),
                Ushr => Some((a as u32).wrapping_shr(b as u32) as i32),
                BitAnd => Some(a & b),
                BitOr => Some(a | b),
                BitXor => Some(a ^ b),
                Lt | Gt | Le | Ge | Eq | Ne | And | Or => None,
            }
        }
        ExprKind::Cast(tn, x) => {
            let v = int_constant(x)?;
            match tn.kind {
                TypeNameKind::Prim(PrimKind::Byte) => Some(i32::from(v as i8)),
                TypeNameKind::Prim(PrimKind::Short) => Some(i32::from(v as i16)),
                TypeNameKind::Prim(PrimKind::Char) => Some(i32::from(v as u16)),
                TypeNameKind::Prim(PrimKind::Int) => Some(v),
                _ => None,
            }
        }
        ExprKind::Lazy(l) => int_constant(&Node::clone(&*l.forced_node()?).into_expr()?),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClassInfo, ClassTable};
    use maya_ast::{Expr, ExprKind, Ident, LocalDeclarator, TypeName};
    use maya_lexer::sym;

    fn setup() -> (ClassTable, ResolveCtx) {
        let ct = ClassTable::bootstrap();
        let obj = ct.by_fqcn_str("java.lang.Object").unwrap();
        let mut e = ClassInfo::new("java.util.Enumeration", true);
        e.superclass = Some(obj);
        let eid = ct.declare(e).unwrap();
        ct.add_method(
            eid,
            MethodInfo::native("hasMoreElements", vec![], Type::boolean(), "enum.has"),
        );
        ct.add_method(
            eid,
            MethodInfo::native(
                "nextElement",
                vec![],
                Type::Class(obj),
                "enum.next",
            ),
        );
        let mut h = ClassInfo::new("java.util.Hashtable", false);
        h.superclass = Some(obj);
        let hid = ct.declare(h).unwrap();
        ct.add_method(
            hid,
            MethodInfo::native("keys", vec![], Type::Class(eid), "ht.keys"),
        );
        ct.add_method(
            hid,
            MethodInfo::native(
                "get",
                vec![Type::Class(obj)],
                Type::Class(obj),
                "ht.get",
            ),
        );
        let mut ctx = ResolveCtx::default();
        ctx.wildcard_imports.push(sym("java.util"));
        (ct, ctx)
    }

    fn scope_with(ct: &ClassTable, vars: &[(&str, Type)]) -> Scope {
        let _ = ct;
        let mut s = Scope::new();
        for (n, t) in vars {
            s.declare(
                sym(n),
                VarBinding {
                    ty: t.clone(),
                    kind: VarKind::Local,
                    is_final: false,
                },
            );
        }
        s
    }

    #[test]
    fn static_type_of_call_chain() {
        let (ct, ctx) = setup();
        let h = Type::Class(ct.by_fqcn_str("java.util.Hashtable").unwrap());
        let mut scope = scope_with(&ct, &[("h", h)]);
        let mut host = NoHost;
        let mut checker = Checker::new(&ct, &ctx, &mut host);
        // h.keys() : Enumeration — this is the type EForEach dispatches on.
        let e = Expr::call_on(Expr::name("h"), "keys", vec![]);
        let t = checker.type_of_expr(&e, &mut scope).unwrap();
        assert_eq!(ct.describe(&t), "java.util.Enumeration");
        // h.keys().hasMoreElements() : boolean
        let e2 = Expr::call_on(e, "hasMoreElements", vec![]);
        assert_eq!(
            checker.type_of_expr(&e2, &mut scope).unwrap(),
            Type::boolean()
        );
    }

    #[test]
    fn string_concatenation() {
        let (ct, ctx) = setup();
        let mut scope = scope_with(&ct, &[("n", Type::int())]);
        let mut host = NoHost;
        let mut checker = Checker::new(&ct, &ctx, &mut host);
        let e = Expr::synth(ExprKind::Binary(
            BinOp::Add,
            Box::new(Expr::str_lit("x = ")),
            Box::new(Expr::name("n")),
        ));
        let t = checker.type_of_expr(&e, &mut scope).unwrap();
        assert_eq!(ct.describe(&t), "java.lang.String");
    }

    #[test]
    fn overload_resolution_picks_most_specific() {
        let (ct, ctx) = setup();
        let obj = ct.by_fqcn_str("java.lang.Object").unwrap();
        let string = ct.by_fqcn_str("java.lang.String").unwrap();
        let mut c = ClassInfo::new("p.Printer", false);
        c.superclass = Some(obj);
        let cid = ct.declare(c).unwrap();
        ct.add_method(
            cid,
            MethodInfo::native("p", vec![Type::Class(obj)], Type::int(), "p.obj"),
        );
        ct.add_method(
            cid,
            MethodInfo::native(
                "p",
                vec![Type::Class(string)],
                Type::boolean(),
                "p.str",
            ),
        );
        let mut scope = scope_with(&ct, &[("x", Type::Class(cid))]);
        let mut host = NoHost;
        let mut checker = Checker::new(&ct, &ctx, &mut host);
        let call = Expr::call_on(Expr::name("x"), "p", vec![Expr::str_lit("s")]);
        // The String overload is more specific.
        assert_eq!(
            checker.type_of_expr(&call, &mut scope).unwrap(),
            Type::boolean()
        );
    }

    #[test]
    fn declarations_flow_through_blocks() {
        let (ct, ctx) = setup();
        let mut scope = Scope::new();
        let mut host = NoHost;
        let mut checker = Checker::new(&ct, &ctx, &mut host);
        let decl = Stmt::synth(StmtKind::Decl(
            TypeName::prim(PrimKind::Int),
            vec![LocalDeclarator {
                name: Ident::from_str("i"),
                dims: 0,
                init: Some(Expr::int(3)),
            }],
        ));
        let use_it = Stmt::expr(Expr::synth(ExprKind::Assign(
            None,
            Box::new(Expr::name("i")),
            Box::new(Expr::int(4)),
        )));
        checker
            .check_stmts(&[decl, use_it], &mut scope)
            .expect("decl then use");
        // The variable is now visible.
        assert!(scope.lookup(sym("i")).is_some());
    }

    #[test]
    fn a_declaration_is_no_loop_body_or_if_branch() {
        let (ct, ctx) = setup();
        let mut host = NoHost;
        let mut checker = Checker::new(&ct, &ctx, &mut host);
        let decl = || {
            Box::new(Stmt::synth(StmtKind::Decl(
                TypeName::prim(PrimKind::Int),
                vec![LocalDeclarator {
                    name: Ident::from_str("y"),
                    dims: 0,
                    init: Some(Expr::int(1)),
                }],
            )))
        };
        let cond = || Expr::synth(ExprKind::Literal(Lit::Bool(true)));
        let empty = || Box::new(Stmt::synth(StmtKind::Empty));
        for s in [
            StmtKind::If(cond(), decl(), None),
            StmtKind::If(cond(), empty(), Some(decl())),
            StmtKind::While(cond(), decl()),
            StmtKind::Do(decl(), cond()),
            StmtKind::For {
                init: maya_ast::ForInit::None,
                cond: Some(cond()),
                update: vec![],
                body: decl(),
            },
        ] {
            let err = checker
                .check_stmt(&Stmt::synth(s), &mut Scope::new())
                .expect_err("a bare declaration is rejected");
            assert_eq!(err.message, "variable declaration not allowed here");
        }
        // Braced, the same declaration is fine.
        let block = maya_ast::Block::synth(vec![*decl()]);
        let braced = StmtKind::While(cond(), Box::new(Stmt::synth(StmtKind::Block(block))));
        checker
            .check_stmt(&Stmt::synth(braced), &mut Scope::new())
            .expect("a declaration inside a block");
    }

    #[test]
    fn type_errors_are_reported() {
        let (ct, ctx) = setup();
        let mut scope = scope_with(&ct, &[("b", Type::boolean())]);
        let mut host = NoHost;
        let mut checker = Checker::new(&ct, &ctx, &mut host);
        let bad = Expr::synth(ExprKind::Binary(
            BinOp::Sub,
            Box::new(Expr::name("b")),
            Box::new(Expr::int(1)),
        ));
        assert!(checker.type_of_expr(&bad, &mut scope).is_err());
        let unknown = Expr::call_on(Expr::name("b"), "nope", vec![]);
        assert!(checker.type_of_expr(&unknown, &mut scope).is_err());
        let br = Stmt::synth(StmtKind::Break);
        assert!(checker.check_stmt(&br, &mut scope).is_err());
    }

    #[test]
    fn numeric_promotion() {
        let (ct, ctx) = setup();
        let mut scope = scope_with(
            &ct,
            &[("i", Type::int()), ("d", Type::Prim(PrimKind::Double))],
        );
        let mut host = NoHost;
        let mut checker = Checker::new(&ct, &ctx, &mut host);
        let e = Expr::synth(ExprKind::Binary(
            BinOp::Mul,
            Box::new(Expr::name("i")),
            Box::new(Expr::name("d")),
        ));
        assert_eq!(
            checker.type_of_expr(&e, &mut scope).unwrap(),
            Type::Prim(PrimKind::Double)
        );
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::{ClassInfo, ClassTable};
    use maya_ast::{Expr, ExprKind, TypeName};

    fn ct() -> ClassTable {
        let t = ClassTable::bootstrap();
        let obj = t.by_fqcn_str("java.lang.Object").unwrap();
        let mut c = ClassInfo::new("p.C", false);
        c.superclass = Some(obj);
        let c = t.declare(c).unwrap();
        let mut d = ClassInfo::new("p.D", false);
        d.superclass = Some(c);
        t.declare(d).unwrap();
        t
    }

    fn check_expr(t: &ClassTable, vars: &[(&str, Type)], e: &Expr) -> Result<Type, TypeError> {
        let ctx = ResolveCtx {
            wildcard_imports: vec![maya_lexer::sym("p")],
            ..Default::default()
        };
        let mut scope = Scope::new();
        for (n, ty) in vars {
            scope.declare(
                maya_lexer::sym(n),
                VarBinding {
                    ty: ty.clone(),
                    kind: VarKind::Local,
                    is_final: false,
                },
            );
        }
        let mut host = NoHost;
        Checker::new(t, &ctx, &mut host).type_of_expr(e, &mut scope)
    }

    #[test]
    fn conditional_merges_by_subtyping() {
        let t = ct();
        let c = Type::Class(t.by_fqcn_str("p.C").unwrap());
        let d = Type::Class(t.by_fqcn_str("p.D").unwrap());
        let e = Expr::synth(ExprKind::Cond(
            Box::new(Expr::synth(ExprKind::Literal(maya_ast::Lit::Bool(true)))),
            Box::new(Expr::name("x")),
            Box::new(Expr::name("y")),
        ));
        let ty = check_expr(&t, &[("x", d.clone()), ("y", c.clone())], &e).unwrap();
        assert_eq!(ty, c, "merge widens to the supertype");
        // Null merges with any reference type.
        let e2 = Expr::synth(ExprKind::Cond(
            Box::new(Expr::synth(ExprKind::Literal(maya_ast::Lit::Bool(true)))),
            Box::new(Expr::name("x")),
            Box::new(Expr::synth(ExprKind::Literal(maya_ast::Lit::Null))),
        ));
        assert_eq!(check_expr(&t, &[("x", d)], &e2).unwrap(), Type::Class(t.by_fqcn_str("p.D").unwrap()));
    }

    #[test]
    fn cast_rules() {
        let t = ct();
        let c = Type::Class(t.by_fqcn_str("p.C").unwrap());
        // numeric ↔ numeric: fine.
        let e = Expr::synth(ExprKind::Cast(
            TypeName::prim(PrimKind::Int),
            Box::new(Expr::synth(ExprKind::Literal(maya_ast::Lit::Double(2.5)))),
        ));
        assert_eq!(check_expr(&t, &[], &e).unwrap(), Type::int());
        // ref → prim: rejected.
        let bad = Expr::synth(ExprKind::Cast(
            TypeName::prim(PrimKind::Int),
            Box::new(Expr::name("x")),
        ));
        assert!(check_expr(&t, &[("x", c)], &bad).is_err());
    }

    #[test]
    fn array_length_and_indexing() {
        let t = ct();
        let arr = Type::int().array_of();
        let len = Expr::field(Expr::name("a"), "length");
        assert_eq!(check_expr(&t, &[("a", arr.clone())], &len).unwrap(), Type::int());
        let idx = Expr::synth(ExprKind::ArrayAccess(
            Box::new(Expr::name("a")),
            Box::new(Expr::int(0)),
        ));
        assert_eq!(check_expr(&t, &[("a", arr.clone())], &idx).unwrap(), Type::int());
        // boolean index rejected.
        let bad = Expr::synth(ExprKind::ArrayAccess(
            Box::new(Expr::name("a")),
            Box::new(Expr::synth(ExprKind::Literal(maya_ast::Lit::Bool(true)))),
        ));
        assert!(check_expr(&t, &[("a", arr)], &bad).is_err());
    }

    #[test]
    fn var_ref_sees_shadowed_fields() {
        // Reference.makeExpr semantics: a VarRef falls back to a field of
        // the enclosing class even when a local would shadow it.
        let t = ct();
        let cid = t.by_fqcn_str("p.C").unwrap();
        t.add_field(
            cid,
            crate::FieldInfo {
                name: maya_lexer::sym("hidden"),
                ty: Type::int(),
                modifiers: maya_ast::Modifiers::none(),
                init: None,
            },
        );
        let ctx = ResolveCtx::default();
        let mut scope = Scope::new();
        scope.this_class = Some(cid);
        let mut host = NoHost;
        let e = Expr::synth(ExprKind::VarRef(maya_lexer::sym("hidden")));
        let ty = Checker::new(&t, &ctx, &mut host)
            .type_of_expr(&e, &mut scope)
            .unwrap();
        assert_eq!(ty, Type::int());
    }
}
