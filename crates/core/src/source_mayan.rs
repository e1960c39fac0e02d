//! Compiling source-level `syntax` declarations into metaprograms — the
//! full pipeline of paper Figure 1: extension source is compiled by mayac
//! into `MetaProgram` objects whose bodies run *on the interpreter* at
//! application compile time.
//!
//! * `abstract LHS syntax(rhs…);` records a production declaration.
//! * `LHS syntax Name(params…) { body }` pattern-parses the parameter list
//!   to infer the production it implements (Figure 5), converts the
//!   parameters to dispatch specializers, and compiles the body into a
//!   hidden extension class whose `expand` method the interpreter executes
//!   each time the Mayan fires. Templates, `nextRewrite`, and the
//!   `maya.tree` reflection API are serviced by the bridge.

use crate::bridge::{ext_resolve_ctx, tree_value};
use crate::compiler::CompilerInner;
use crate::driver::{tree_class_fqcn, CoreExpand, EnvPair, LazyEnvPayload};
use crate::extension::TreeValue;
use crate::metagrammar::{parse_mayan_params, parse_rhs};
use crate::CompileError;
use maya_ast::{LazyNode, MayanDecl, Node, NodeKind, ProductionDecl};
use maya_dispatch::{
    params_from_pattern, Bindings, DispatchError, ExpandCtx, ImportEnv, Mayan, MetaProgram, Param,
};
use maya_grammar::{ProdId, RhsItem};
use maya_interp::{native_as, Control};
use maya_lexer::{sym, Symbol};
use maya_parser::trace::trace_parse;
use maya_types::{ClassId, ClassInfo, MethodInfo, ResolveCtx, Type};
use std::rc::Rc;

/// Registers `abstract LHS syntax(rhs…);` (paper §3.1). The production
/// takes effect for application code when an extension using it is
/// imported; within this compilation it is visible to later Mayan
/// declarations for parameter-list inference.
///
/// # Errors
///
/// Unknown LHS node types and malformed metagrammar.
pub fn register_production(
    cx: &Rc<CompilerInner>,
    decl: &ProductionDecl,
    _ctx: &ResolveCtx,
) -> Result<(), CompileError> {
    let lhs = NodeKind::from_symbol(decl.lhs.sym).ok_or_else(|| {
        CompileError::new(
            format!("unknown node type {} in production declaration", decl.lhs),
            decl.span,
        )
    })?;
    if !lhs.is_definable() {
        return Err(CompileError::new(
            format!("productions may not be defined on {}", decl.lhs),
            decl.span,
        ));
    }
    let rhs = parse_rhs(&decl.pattern.trees)?;
    cx.declared_prods.borrow_mut().push((lhs, rhs));
    Ok(())
}

/// How an imported Mayan finds its production.
enum ProdRef {
    /// A production already present in the base grammar (stable id).
    Existing(ProdId),
    /// A declared production added (or found) at import time.
    Declared(NodeKind, Vec<RhsItem>),
}

/// The compiled form of one source-level Mayan.
struct SourceMayan {
    name: String,
    prod: ProdRef,
    params: Vec<Param>,
    ext_class: ClassId,
    /// Named parameters in method-argument order.
    arg_names: Vec<Symbol>,
}

impl MetaProgram for SourceMayan {
    fn run(&self, env: &mut dyn ImportEnv) -> Result<(), DispatchError> {
        let prod = match &self.prod {
            ProdRef::Existing(id) => *id,
            ProdRef::Declared(lhs, rhs) => env.add_production(*lhs, rhs)?,
        };
        let ext_class = self.ext_class;
        let arg_names = self.arg_names.clone();
        let name = self.name.clone();
        let body = move |b: &Bindings, ctx: &mut dyn ExpandCtx| -> Result<Node, DispatchError> {
            let cx = ctx
                .as_any()
                .downcast_mut::<CoreExpand>()
                .expect("source Mayans run under the core compiler");
            let inner = cx.c.cx.clone();
            let span = cx.span;
            // Arguments: the named parameters as maya.tree values.
            let mut args = Vec::with_capacity(arg_names.len());
            for n in &arg_names {
                let node = b.get(n.as_str()).cloned().ok_or_else(|| {
                    DispatchError::new(format!("internal: unbound Mayan parameter {n}"), span)
                })?;
                args.push(tree_value(node));
            }
            // Run the body on the interpreter with this expansion on the
            // bridge's stack. Each invocation gets a fresh step budget so
            // one well-behaved expansion can't starve the next.
            inner.interp.reset_steps();
            inner.expand_stack.borrow_mut().push(cx.snapshot());
            let result = inner
                .interp
                .invoke_static(ext_class, sym("expand"), args, span);
            inner.expand_stack.borrow_mut().pop();
            match result {
                Ok(v) => native_as::<TreeValue>(&v)
                    .map(|t| t.node.clone())
                    .ok_or_else(|| {
                        DispatchError::new(
                            format!("Mayan {name} returned a non-tree value: {v:?}"),
                            span,
                        )
                    }),
                Err(Control::Error(e)) => {
                    // Anchor unlocated failures at the expansion site and
                    // name the Mayan (once — nested expansions of the same
                    // failure keep the innermost attribution).
                    let err_span = if e.span.is_dummy() { span } else { e.span };
                    let msg = if e.message.starts_with("error in expansion of Mayan ") {
                        e.message
                    } else {
                        format!("error in expansion of Mayan {name}: {}", e.message)
                    };
                    Err(DispatchError::new(msg, err_span))
                }
                Err(Control::Throw(v)) => Err(DispatchError::new(
                    format!("Mayan {name} threw: {}", inner.interp.display(&v)),
                    span,
                )),
                Err(other) => Err(DispatchError::new(
                    format!("Mayan {name} completed abnormally: {other:?}"),
                    span,
                )),
            }
        };
        env.import_mayan(Mayan::new(
            &self.name,
            prod,
            self.params.clone(),
            Rc::new(body),
        ));
        Ok(())
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Compiles `LHS syntax Name(params…) { body }` and registers it as an
/// importable metaprogram under `Name` (and `package.Name`).
///
/// # Errors
///
/// Unknown node kinds, unresolvable specializer types, parameter lists
/// that do not match any production, and body compilation failures.
pub fn register_mayan(
    cx: &Rc<CompilerInner>,
    decl: &MayanDecl,
    ctx: &ResolveCtx,
    package: Option<&str>,
) -> Result<(), CompileError> {
    let lhs = NodeKind::from_symbol(decl.lhs.sym).ok_or_else(|| {
        CompileError::new(
            format!("unknown node type {} in Mayan declaration", decl.lhs),
            decl.span,
        )
    })?;
    let ext_ctx = ext_resolve_ctx(ctx);
    let global = cx.global.borrow().clone();

    // Build the declaration grammar: the current environment plus every
    // production declared so far, so the parameter list can be
    // pattern-parsed against them (Figure 5).
    let declared = cx.declared_prods.borrow().clone();
    let mut gb = global.grammar.extend();
    let mut declared_ids = Vec::new();
    for (dlhs, rhs) in &declared {
        declared_ids.push(
            gb.add_production(*dlhs, rhs, None)
                .map_err(|e| CompileError::new(e.to_string(), decl.span))?,
        );
    }
    let dg = gb.finish();
    dg.tables()
        .map_err(|e| CompileError::new(e.to_string(), decl.span))?;

    // Pattern-parse the parameter list.
    let (inputs, specs) = parse_mayan_params(&dg, &cx.classes, &ext_ctx, &decl.params.trees)?;
    let goal = dg.nt_for_kind_lattice(lhs).ok_or_else(|| {
        CompileError::new(format!("no grammar nonterminal for {}", decl.lhs), decl.span)
    })?;
    let pat = trace_parse(&dg, &inputs, goal).map_err(|e| {
        CompileError::new(
            format!("Mayan parameter list does not parse: {}", e.message),
            decl.span,
        )
    })?;
    let (prod, params) = params_from_pattern(&dg, &global.denv, &pat, &specs)
        .map_err(|e| CompileError::new(e.message, e.span))?;

    let prod_ref = if let Some(i) = declared_ids.iter().position(|d| *d == prod) {
        let (dlhs, rhs) = declared[i].clone();
        ProdRef::Declared(dlhs, rhs)
    } else if (prod.0 as usize) < global.grammar.productions().len() {
        ProdRef::Existing(prod)
    } else {
        return Err(CompileError::new(
            "Mayan parameter list matched an internal helper production",
            decl.span,
        ));
    };

    // Compile the body into a hidden extension class.
    let mut ext_name = match package {
        Some(p) => format!("{p}.maya$ext${}", decl.name),
        None => format!("maya$ext${}", decl.name),
    };
    while cx.classes.by_fqcn_str(&ext_name).is_some() {
        ext_name.push('x');
    }
    let mut info = ClassInfo::new(&ext_name, false);
    info.superclass = cx.classes.by_fqcn_str("java.lang.Object");
    let ext_class = cx
        .classes
        .declare(info)
        .map_err(|e| CompileError::new(e.message, decl.span))?;

    // nextRewrite() is callable inside the body (receiverless static).
    let node_t = Type::Class(cx.classes.by_fqcn_str("maya.tree.Node").expect("bridge"));
    let mut next = MethodInfo::native("nextRewrite", vec![], node_t.clone(), "tree.nextRewrite");
    next.modifiers.add(maya_ast::Modifier::Static);
    cx.classes.add_method(ext_class, next);

    // The expand method: named parameters in order, typed with their
    // maya.tree classes.
    let arg_names: Vec<Symbol> = specs.iter().filter_map(|s| s.name).collect();
    let mut param_tys = Vec::new();
    for s in &specs {
        if s.name.is_none() {
            continue;
        }
        let fq = tree_class_fqcn(s.kind);
        param_tys.push(Type::Class(
            cx.classes.by_fqcn_str(fq).expect("bridge class"),
        ));
    }
    cx.lazy_created.set(cx.lazy_created.get() + 1);
    let body = LazyNode::new(
        NodeKind::BlockStmts,
        decl.body.clone(),
        Some(Rc::new(LazyEnvPayload {
            pair: EnvPair {
                grammar: global.grammar.clone(),
                denv: global.denv.clone(),
            },
            ctx: ext_ctx.clone(),
            class: Some(ext_class),
        })),
    );
    let mut expand = MethodInfo {
        name: sym("expand"),
        params: param_tys,
        param_names: arg_names.clone(),
        ret: node_t,
        modifiers: maya_ast::Modifiers::just(maya_ast::Modifier::Public),
        body: Some(body),
        native: None,
        specializers: vec![],
    };
    expand.modifiers.add(maya_ast::Modifier::Static);
    cx.classes.add_method(ext_class, expand);
    cx.class_meta.borrow_mut().insert(
        ext_class,
        Rc::new(crate::compiler::ClassMeta {
            env: global.clone(),
            ctx: ext_ctx.clone(),
            entry: None,
            forced: None,
        }),
    );
    cx.interp.set_class_ctx(ext_class, ext_ctx);

    let program = Rc::new(SourceMayan {
        name: decl.name.to_string(),
        prod: prod_ref,
        params,
        ext_class,
        arg_names,
    });
    let origin = (!decl.span.is_dummy()).then_some(decl.span.file);
    cx.register_metaprogram_at(&decl.name.to_string(), program.clone(), origin);
    if let Some(p) = package {
        cx.register_metaprogram_at(&format!("{p}.{}", decl.name), program, origin);
    }
    Ok(())
}
