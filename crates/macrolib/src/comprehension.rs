//! Collection comprehensions (paper §3 mentions "comprehension syntax for
//! building arrays and collections" in the macro library).
//!
//! `into(target, expr each Formal : source);` appends `expr` (with the
//! formal bound to each element of `source`, a `java.util.Vector`) to
//! `target`:
//!
//! ```text
//! into(squares, x * x each int x : numbers);
//! ```
//!
//! (`each` is a contextual keyword, not reserved — `|` would collide with
//! bitwise-or in the element expression.)

use maya_ast::{Expr, ExprKind, LocalDeclarator, Node, NodeKind, Stmt, StmtKind};
use maya_core::{CoreExpand, Shipped};
use maya_dispatch::{Bindings, DispatchError, ExpandCtx, ImportEnv, Mayan, MetaProgram, Param};
use maya_lexer::{sym, Span};
use maya_template::Template;
use std::cell::OnceCell;
use std::rc::Rc;

/// The comprehension extension.
pub struct Comprehension;

impl MetaProgram for Comprehension {
    fn run(&self, env: &mut dyn ImportEnv) -> Result<(), DispatchError> {
        // `into(target, element each Formal : source);`
        let (lhs, rhs) = &Shipped::Comprehension.productions()[0];
        let prod = env.add_production(*lhs, rhs)?;
        let template: OnceCell<Rc<Template>> = OnceCell::new();
        let body = move |b: &Bindings, ctx: &mut dyn ExpandCtx| -> Result<Node, DispatchError> {
            let cx = ctx
                .as_any()
                .downcast_mut::<CoreExpand>()
                .expect("comprehensions run under the core compiler");
            let t = match template.get() {
                Some(t) => t.clone(),
                None => {
                    let t = cx.compile_template(
                        NodeKind::Statement,
                        "{ java.util.Vector srcVar = $src ; \
                           for (int iVar = 0 ; iVar < srcVar.size() ; iVar++) { \
                             $decl \
                             $ref = ($castType) srcVar.elementAt(iVar) ; \
                             $target.addElement($elem) ; \
                           } \
                         }",
                        &[
                            ("src", NodeKind::Expression),
                            ("decl", NodeKind::Statement),
                            ("ref", NodeKind::Expression),
                            ("castType", NodeKind::TypeName),
                            ("target", NodeKind::Expression),
                            ("elem", NodeKind::Expression),
                        ],
                    )?;
                    template.get_or_init(|| t).clone()
                }
            };
            // The bundled subtree: [target, ",", elem, "|", formal, ":", src].
            let parts = match &b.args[1] {
                Node::List(items) => items.clone(),
                _ => return Err(DispatchError::new("internal: comprehension head", Span::DUMMY)),
            };
            let target = parts[0]
                .clone()
                .into_expr()
                .ok_or_else(|| DispatchError::new("internal: target", Span::DUMMY))?;
            let elem = parts[2]
                .clone()
                .into_expr()
                .ok_or_else(|| DispatchError::new("internal: element", Span::DUMMY))?;
            let var = match &parts[4] {
                Node::Formal(f) => f.clone(),
                _ => return Err(DispatchError::new("internal: formal", Span::DUMMY)),
            };
            let src = parts[6]
                .clone()
                .into_expr()
                .ok_or_else(|| DispatchError::new("internal: source", Span::DUMMY))?;
            let decl = Node::Stmt(Stmt::synth(StmtKind::Decl(
                var.ty.clone(),
                vec![LocalDeclarator::plain(var.name)],
            )));
            let refer = Node::Expr(Expr::synth(ExprKind::VarRef(var.name.sym)));
            let var_ty = cx
                .c
                .cx
                .classes
                .resolve_type_name(&var.ty, cx.resolve_ctx())
                .map_err(|e| DispatchError::new(e.message, e.span))?;
            let cast = Node::Type(
                crate::foreach::type_to_typename(&cx.c.cx.classes, &var_ty)?,
            );
            cx.instantiate_named(
                &t,
                &[
                    ("src", Node::Expr(src)),
                    ("decl", decl),
                    ("ref", refer),
                    ("castType", cast),
                    ("target", Node::Expr(target)),
                    ("elem", Node::Expr(elem)),
                ],
            )
        };
        env.import_mayan(Mayan::new(
            "Comprehension",
            prod,
            vec![
                Param::plain(NodeKind::TokenNode),
                Param::named(NodeKind::Top, sym("head")),
                Param::plain(NodeKind::TokenNode),
            ],
            Rc::new(body),
        ));
        Ok(())
    }

    fn name(&self) -> &str {
        "maya.util.Comprehension"
    }
}
