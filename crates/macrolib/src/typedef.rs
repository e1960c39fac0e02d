//! `typedef` (paper Figure 3): an alternate name for a class within a block
//! of statements, implemented with **local Mayans**.
//!
//! The `Typedef` Mayan's expansion does not produce syntax for the
//! substitution itself; instead it allocates substitution Mayans *closed
//! over its arguments* (`var`, `val`) and exports them to the body through
//! a `UseStmt` — "one Mayan can expose state to other Mayans without
//! resorting to templates that define Mayans" (§3.3).

use maya_ast::{Expr, ExprKind, Node, NodeKind, Stmt, StmtKind, TypeName, UseTarget};
use maya_core::{BaseProds, CoreExpand, Shipped};
use maya_dispatch::{
    Bindings, DispatchError, ExpandCtx, ImportEnv, Mayan, MetaProgram, Param, Specializer,
};
use maya_lexer::{sym, Span, Symbol};
use std::rc::Rc;

/// The substitution metaprogram created per `typedef` use: local Mayans on
/// the base name productions that rewrite `var` to the aliased class. This
/// is Figure 3's `Subst`, closed over the enclosing Mayan's arguments.
pub struct Subst {
    var: Symbol,
    fqcn: Symbol,
    prods: BaseProds,
}

impl MetaProgram for Subst {
    fn run(&self, env: &mut dyn ImportEnv) -> Result<(), DispatchError> {
        let var = self.var;
        let fqcn = self.fqcn;
        // In expression position (`var x = …;` — the decl-statement type,
        // or any use of the name): substitute a direct class reference.
        env.import_mayan(Mayan::new(
            "Subst",
            self.prods.id("expr_name"),
            vec![Param::named(NodeKind::Identifier, sym("id"))
                .with_spec(Specializer::TokenValue(var))],
            Rc::new(move |_b: &Bindings, _ctx: &mut dyn ExpandCtx| {
                Ok(Node::Expr(Expr::synth(ExprKind::ClassRef(fqcn))))
            }),
        ));
        // In type position (formals, casts): substitute a strict type name.
        env.import_mayan(Mayan::new(
            "SubstType",
            self.prods.id("type_qname"),
            vec![Param::plain(NodeKind::QualifiedName)
                .with_spec(Specializer::TokenValue(var))],
            Rc::new(move |_b: &Bindings, _ctx: &mut dyn ExpandCtx| {
                Ok(Node::Type(TypeName::strict(fqcn)))
            }),
        ));
        // In `new var(...)`.
        env.import_mayan(Mayan::new(
            "SubstNew",
            self.prods.id("new_object"),
            vec![
                Param::plain(NodeKind::TokenNode),
                Param::plain(NodeKind::QualifiedName)
                    .with_spec(Specializer::TokenValue(var)),
                Param::named(NodeKind::ArgumentList, sym("args")),
            ],
            Rc::new(move |b: &Bindings, _ctx: &mut dyn ExpandCtx| {
                let args = match b.get("args") {
                    Some(Node::Args(a)) => a.clone(),
                    _ => vec![],
                };
                Ok(Node::Expr(Expr::synth(ExprKind::New(
                    TypeName::strict(fqcn),
                    args,
                ))))
            }),
        ));
        Ok(())
    }

    fn name(&self) -> &str {
        "Subst"
    }
}

/// The `typedef` extension (paper Figure 3).
pub struct Typedef {
    prods: BaseProds,
}

impl Typedef {
    /// Builds the extension.
    pub fn new(prods: &BaseProds) -> Typedef {
        Typedef {
            prods: prods.clone(),
        }
    }
}

impl MetaProgram for Typedef {
    fn run(&self, env: &mut dyn ImportEnv) -> Result<(), DispatchError> {
        // abstract Statement syntax(typedef(Identifier = StrictClassName)
        //                            lazy(BraceTree, BlockStmts));
        let (lhs, rhs) = &Shipped::Typedef.productions()[0];
        let prod = env.add_production(*lhs, rhs)?;
        let prods = self.prods.clone();
        let body = move |b: &Bindings, ctx: &mut dyn ExpandCtx| -> Result<Node, DispatchError> {
            let (var, val) = match b.get("head") {
                Some(Node::List(parts)) if parts.len() == 3 => {
                    let var = parts[0]
                        .as_ident()
                        .ok_or_else(|| DispatchError::new("typedef name", Span::DUMMY))?;
                    let val = parts[2]
                        .as_type()
                        .cloned()
                        .ok_or_else(|| DispatchError::new("typedef target", Span::DUMMY))?;
                    (var, val)
                }
                _ => return Err(DispatchError::new("internal: typedef head", Span::DUMMY)),
            };
            let cx = ctx
                .as_any()
                .downcast_mut::<CoreExpand>()
                .expect("typedef runs under the core compiler");
            // Resolve the target in the use-site context.
            let ty = cx
                .c
                .cx
                .classes
                .resolve_type_name(&val, cx.resolve_ctx())
                .map_err(|e| DispatchError::new(e.message, e.span))?;
            let Some(class) = ty.class_id() else {
                return Err(DispatchError::new(
                    "typedef target must be a class type",
                    val.span,
                ));
            };
            let fqcn = cx.c.cx.classes.fqcn(class);
            let subst = Rc::new(Subst {
                var: var.sym,
                fqcn,
                prods: prods.clone(),
            });
            // Re-wrap the lazy body so it parses under the environment
            // extended by the substitution Mayans — the UseStmt of Figure 3.
            let tree = match b.get("body").and_then(|n| n.as_lazy()) {
                Some(l) => l.unforced_tree().ok_or_else(|| {
                    DispatchError::new("typedef body already forced", Span::DUMMY)
                })?,
                None => {
                    return Err(DispatchError::new("internal: typedef body", Span::DUMMY))
                }
            };
            let lazy = cx.use_over(subst.as_ref(), tree, NodeKind::BlockStmts)?;
            let stmt = lazy
                .into_stmt()
                .ok_or_else(|| DispatchError::new("internal: typedef body", Span::DUMMY))?;
            Ok(Node::Stmt(Stmt::synth(StmtKind::Use(
                UseTarget::Instance(subst),
                maya_ast::Block::synth(vec![stmt]),
            ))))
        };
        env.import_mayan(Mayan::new(
            "Typedef",
            prod,
            vec![
                Param::plain(NodeKind::TokenNode),
                Param::named(NodeKind::Top, sym("head")),
                Param::named(NodeKind::BlockStmts, sym("body")),
            ],
            Rc::new(body),
        ));
        Ok(())
    }

    fn name(&self) -> &str {
        "Typedef"
    }
}
