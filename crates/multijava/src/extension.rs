//! The MultiJava extension: productions, Mayans, and the class-processing
//! hook that performs the §5.2 translation.

use crate::dispatch_gen::{dispatch_arg, MultiMethod};
use maya_ast::{
    Block, Decl, Formal, Ident, LazyNode, Node, NodeKind, Stmt, StmtKind, TypeName,
};
use maya_core::{BaseProds, CompileError, Compiler, CompilerInner, CoreExpand, Shipped};
use maya_dispatch::{Bindings, DispatchError, ExpandCtx, ImportEnv, Mayan, MetaProgram, Param};
use maya_lexer::{sym, Span, Symbol};
use maya_types::{ClassId, MethodInfo, ResolveCtx, Type};
use std::cell::RefCell;
use std::rc::Rc;

/// An external method declaration awaiting its receiver class (resolved in
/// the class-processing hook, after every class has been declared).
struct ExternalMethod {
    receiver: Vec<Ident>,
    ret: TypeName,
    name: Ident,
    formals: Vec<Formal>,
    body: LazyNode,
    ctx: ResolveCtx,
    span: Span,
}

/// Shared state between the extension's Mayans and its class hook — the
/// analogue of the paper's `GenericFunction`/`MultiMethod` bookkeeping
/// objects (§5.2).
#[derive(Default)]
pub struct MjState {
    externals: RefCell<Vec<ExternalMethod>>,
}

/// The MultiJava metaprogram: `use MultiJava;` brings `@`-specializers and
/// external method declarations into scope.
pub struct MultiJava {
    prods: BaseProds,
    state: Rc<MjState>,
}

impl MetaProgram for MultiJava {
    fn run(&self, env: &mut dyn ImportEnv) -> Result<(), DispatchError> {
        self.add_formal_specializers(env)?;
        self.add_external_methods(env)?;
        self.add_method_validator(env)?;
        Ok(())
    }

    fn name(&self) -> &str {
        "MultiJava"
    }
}

impl MultiJava {
    /// `Formal → ModifierList TypeName @ TypeName UnboundLocal` — the §5.1
    /// parameter-specializer syntax `C@D c`.
    fn add_formal_specializers(&self, env: &mut dyn ImportEnv) -> Result<(), DispatchError> {
        let (lhs, rhs) = &Shipped::MultiJava.productions()[0];
        let prod = env.add_production(*lhs, rhs)?;
        env.import_mayan(Mayan::new(
            "MjFormal",
            prod,
            vec![
                Param::plain(NodeKind::Top),
                Param::named(NodeKind::TypeName, sym("base")),
                Param::plain(NodeKind::TokenNode),
                Param::named(NodeKind::TypeName, sym("spec")),
                Param::named(NodeKind::Identifier, sym("name")),
            ],
            Rc::new(|b: &Bindings, _ctx: &mut dyn ExpandCtx| {
                let base = b
                    .get("base")
                    .and_then(|n| n.as_type().cloned())
                    .ok_or_else(|| DispatchError::new("internal: formal base", Span::DUMMY))?;
                let spec = b
                    .get("spec")
                    .and_then(|n| n.as_type().cloned())
                    .ok_or_else(|| DispatchError::new("internal: formal spec", Span::DUMMY))?;
                let name = b
                    .get("name")
                    .and_then(Node::as_ident)
                    .ok_or_else(|| DispatchError::new("internal: formal name", Span::DUMMY))?;
                let mut f = Formal::new(base, name);
                f.specializer = Some(spec);
                Ok(Node::Formal(f))
            }),
        ));
        Ok(())
    }

    /// `Declaration → ModifierList TypeName QualifiedName . Identifier
    /// (FormalList) Throws lazy-block` — external methods (§5.1). The Mayan
    /// records the declaration; the hook attaches it once the receiver
    /// class exists.
    fn add_external_methods(&self, env: &mut dyn ImportEnv) -> Result<(), DispatchError> {
        let (lhs, rhs) = &Shipped::MultiJava.productions()[1];
        let prod = env.add_production(*lhs, rhs)?;
        let state = self.state.clone();
        env.import_mayan(Mayan::new(
            "MjExternal",
            prod,
            vec![
                Param::plain(NodeKind::Top),
                Param::named(NodeKind::TypeName, sym("ret")),
                Param::named(NodeKind::QualifiedName, sym("recv")),
                Param::plain(NodeKind::TokenNode),
                Param::named(NodeKind::Identifier, sym("name")),
                Param::named(NodeKind::Top, sym("formals")),
                Param::plain(NodeKind::Top),
                Param::named(NodeKind::Top, sym("body")),
            ],
            Rc::new(move |b: &Bindings, ctx: &mut dyn ExpandCtx| {
                let cx = ctx
                    .as_any()
                    .downcast_mut::<CoreExpand>()
                    .expect("MultiJava runs under the core compiler");
                let receiver = match b.get("recv") {
                    Some(Node::Name(parts)) => parts.clone(),
                    _ => return Err(DispatchError::new("internal: external receiver", Span::DUMMY)),
                };
                let ret = b
                    .get("ret")
                    .and_then(|n| n.as_type().cloned())
                    .ok_or_else(|| DispatchError::new("internal: external return", Span::DUMMY))?;
                let name = b
                    .get("name")
                    .and_then(Node::as_ident)
                    .ok_or_else(|| DispatchError::new("internal: external name", Span::DUMMY))?;
                let formals = match b.get("formals") {
                    Some(Node::Formals(f)) => f.clone(),
                    Some(Node::List(items)) => items
                        .iter()
                        .filter_map(|n| match n {
                            Node::Formal(f) => Some(f.clone()),
                            _ => None,
                        })
                        .collect(),
                    _ => vec![],
                };
                let body = match b.get("body").and_then(|n| n.as_lazy()) {
                    Some(l) => l.clone(),
                    None => {
                        return Err(DispatchError::new("internal: external body", Span::DUMMY))
                    }
                };
                let span = name.span;
                state.externals.borrow_mut().push(ExternalMethod {
                    receiver,
                    ret,
                    name,
                    formals,
                    body,
                    ctx: cx.resolve_ctx().clone(),
                    span,
                });
                // The declaration itself expands to nothing; the hook does
                // the intercession.
                Ok(Node::Decl(Decl::Empty))
            }),
        ));
        Ok(())
    }

    /// A Mayan on the *base* method-declaration production, winning by
    /// lexical tie-breaking (§5.2): it validates specializers and passes
    /// through with `nextRewrite` — "our implementation examines every
    /// ordinary method declaration".
    fn add_method_validator(&self, env: &mut dyn ImportEnv) -> Result<(), DispatchError> {
        for prod_name in ["method_decl", "method_decl_abs"] {
            let prod = self.prods.id(prod_name);
            env.import_mayan(Mayan::new(
                "MjMethodDecl",
                prod,
                maya_core::builtin_params(&env.grammar(), prod),
                Rc::new(|b: &Bindings, ctx: &mut dyn ExpandCtx| {
                    // args[3] is the formal list of the base production.
                    let formals: Vec<Formal> = match b.args.get(3) {
                        Some(Node::Formals(f)) => f.clone(),
                        Some(Node::List(items)) => items
                            .iter()
                            .filter_map(|n| match n {
                                Node::Formal(f) => Some(f.clone()),
                                _ => None,
                            })
                            .collect(),
                        _ => vec![],
                    };
                    {
                        let cx = ctx
                            .as_any()
                            .downcast_mut::<CoreExpand>()
                            .expect("MultiJava runs under the core compiler");
                        for f in &formals {
                            let Some(spec) = &f.specializer else { continue };
                            let classes = cx.c.cx.classes.clone();
                            let rctx = cx.resolve_ctx().clone();
                            let base = classes
                                .resolve_type_name(&f.ty, &rctx)
                                .map_err(|e| DispatchError::new(e.message, e.span))?;
                            let spec_ty = classes
                                .resolve_type_name(spec, &rctx)
                                .map_err(|e| DispatchError::new(e.message, e.span))?;
                            let ok = matches!((&base, &spec_ty), (Type::Class(_), Type::Class(_)))
                                && classes.is_subtype(&spec_ty, &base);
                            if !ok {
                                return Err(DispatchError::new(
                                    format!(
                                        "invalid specializer: {} is not a class subtype of {}",
                                        spec, f.ty
                                    ),
                                    spec.span,
                                ));
                            }
                        }
                    }
                    // Defer to the built-in translation.
                    ctx.next_rewrite()
                }),
            ));
        }
        Ok(())
    }
}

/// The class-processing hook: attach external methods, then translate
/// multimethod groups into hidden siblings plus a generated dispatcher
/// (Figure 8).
fn mj_hook(cx: &Rc<CompilerInner>, class: ClassId, state: &MjState) -> Result<(), CompileError> {
    let classes = &cx.classes;

    // 1. External methods targeting this class.
    let mut externals = state.externals.borrow_mut();
    let mut remaining = Vec::new();
    for ext in externals.drain(..) {
        let tn = TypeName::new(
            ext.span,
            maya_ast::TypeNameKind::Named(ext.receiver.clone()),
        );
        let target = classes.resolve_type_name(&tn, &ext.ctx).ok();
        if target != Some(Type::Class(class)) {
            remaining.push(ext);
            continue;
        }
        let mut params = Vec::new();
        let mut names = Vec::new();
        let mut specializers = Vec::new();
        for f in &ext.formals {
            params.push(classes.resolve_type_name(&f.ty, &ext.ctx)?);
            names.push(f.name.sym);
            specializers.push(match &f.specializer {
                Some(tn) => Some(classes.resolve_type_name(tn, &ext.ctx)?),
                None => None,
            });
        }
        classes.add_method(
            class,
            MethodInfo {
                name: ext.name.sym,
                params,
                param_names: names,
                ret: classes.resolve_type_name(&ext.ret, &ext.ctx)?,
                modifiers: maya_ast::Modifiers::just(maya_ast::Modifier::Public),
                body: Some(ext.body.clone()),
                native: None,
                specializers,
            },
        );
    }
    *externals = remaining;
    drop(externals);

    // 2. Multimethod groups (own methods with at least one specializer).
    // A class none of whose methods has a specializer has no generic
    // function: most classes, and every class of a program that never
    // imports MultiJava, stop here before any method is cloned.
    let specialized = classes
        .info(class)
        .borrow()
        .methods
        .iter()
        .any(|m| m.specializers.iter().any(Option::is_some));
    if !specialized {
        return Ok(());
    }
    let methods: Vec<MethodInfo> = classes.info(class).borrow().methods.clone();
    let mut groups: Vec<(Symbol, Vec<Type>, Vec<MethodInfo>)> = Vec::new();
    for m in &methods {
        match groups
            .iter_mut()
            .find(|(n, p, _)| *n == m.name && *p == m.params)
        {
            Some((_, _, g)) => g.push(m.clone()),
            None => groups.push((m.name, m.params.clone(), vec![m.clone()])),
        }
    }
    for (name, params, group) in groups {
        if !group
            .iter()
            .any(|m| m.specializers.iter().any(Option::is_some))
        {
            continue; // ordinary overloading, not a generic function
        }
        // The fallback may be defined here or *inherited* (MultiJava:
        // "define or inherit multimethods for all argument types").
        let own_fallback = group
            .iter()
            .find(|m| m.specializers.iter().all(Option::is_none))
            .cloned();
        let inherited_fallback = if own_fallback.is_none() {
            let sup = classes.info(class).borrow().superclass;
            sup.and_then(|s| {
                classes
                    .methods_named(s, name)
                    .into_iter()
                    .find(|(_, m)| {
                        m.params == params && m.specializers.iter().all(Option::is_none)
                    })
                    .map(|(_, m)| m)
            })
        } else {
            None
        };
        let fallback = own_fallback
            .as_ref()
            .or(inherited_fallback.as_ref())
            .ok_or_else(|| {
                CompileError::new(
                    format!(
                        "generic function {}.{} has no unspecialized multimethod \
                         (MultiJava completeness)",
                        classes.fqcn(class),
                        name
                    ),
                    Span::DUMMY,
                )
            })?
            .clone();
        if fallback.ret == Type::Void {
            return Err(CompileError::new(
                format!(
                    "void multimethods are not supported by the Figure 8 translation \
                     ({}.{})",
                    classes.fqcn(class),
                    name
                ),
                Span::DUMMY,
            ));
        }
        // Uniqueness of specializer tuples.
        for (i, a) in group.iter().enumerate() {
            for b in &group[i + 1..] {
                if a.specializers == b.specializers {
                    return Err(CompileError::new(
                        format!(
                            "duplicate multimethod specializers on {}.{}",
                            classes.fqcn(class),
                            name
                        ),
                        Span::DUMMY,
                    ));
                }
            }
        }
        // Rename the multimethods to hidden siblings m$1, m$2, … in
        // declaration order, and remove the originals. An inherited
        // fallback dispatches through super.m(...).
        let mut mangled_group = Vec::new();
        let mut renamed = Vec::new();
        for (i, m) in group.iter().enumerate() {
            let mangled = sym(&format!("{name}${}", i + 1));
            let mut hidden = m.clone();
            hidden.name = mangled;
            // The hidden method's parameter types narrow to the
            // specializers (the dispatcher casts at the call).
            hidden.params = m
                .specializers
                .iter()
                .zip(&m.params)
                .map(|(s, p)| s.clone().unwrap_or_else(|| p.clone()))
                .collect();
            hidden.specializers = vec![None; m.params.len()];
            renamed.push(hidden);
            mangled_group.push(MultiMethod {
                target: crate::dispatch_gen::Target::Mangled(mangled),
                specializers: m.specializers.clone(),
            });
        }
        if own_fallback.is_none() {
            mangled_group.push(MultiMethod {
                target: crate::dispatch_gen::Target::Super(name),
                specializers: vec![None; params.len()],
            });
        }
        classes.retain_methods(class, |m| !(m.name == name && m.params == params));
        for h in renamed {
            classes.add_method(class, h);
        }
        // Generate the dispatcher (Figure 8).
        let vars = fallback.param_names.clone();
        let refs: Vec<&MultiMethod> = mangled_group.iter().collect();
        let body_expr = dispatch_arg(classes, &vars, &refs, 0)?;
        let body = LazyNode::forced(
            NodeKind::BlockStmts,
            Node::Block(Block::synth(vec![Stmt::synth(StmtKind::Return(Some(
                body_expr,
            )))])),
        );
        classes.add_method(
            class,
            MethodInfo {
                name,
                params,
                param_names: vars,
                ret: fallback.ret.clone(),
                modifiers: fallback.modifiers,
                body: Some(body),
                native: None,
                specializers: vec![],
            },
        );
    }
    Ok(())
}

/// Registers MultiJava with a compiler: the metaprogram (importable as
/// `MultiJava` or `multijava.MultiJava`) and the class-processing hook.
pub fn install(compiler: &Compiler) {
    let state = Rc::new(MjState::default());
    let program = Rc::new(MultiJava {
        prods: compiler.base().prods.clone(),
        state: state.clone(),
    });
    compiler.register_metaprogram("MultiJava", program.clone());
    compiler.register_metaprogram("multijava.MultiJava", program);
    compiler.add_class_hook(Rc::new(move |cx, class| mj_hook(cx, class, &state)));
}
