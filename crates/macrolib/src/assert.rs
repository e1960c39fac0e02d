//! `assert`: the paper's assertion macro.
//!
//! `assert(expr);` expands to a check that throws a `RuntimeException`
//! carrying the *source text* of the failed condition — something only a
//! compile-time metaprogram can produce.

use maya_ast::{Node, NodeKind};
use maya_core::{CoreExpand, Shipped};
use maya_dispatch::{Bindings, DispatchError, ExpandCtx, ImportEnv, Mayan, MetaProgram, Param};
use maya_lexer::{sym, Span};
use maya_template::Template;
use std::cell::OnceCell;
use std::rc::Rc;

/// The `assert` extension.
pub struct Assert;

impl MetaProgram for Assert {
    fn run(&self, env: &mut dyn ImportEnv) -> Result<(), DispatchError> {
        let (lhs, rhs) = &Shipped::Assert.productions()[0];
        let prod = env.add_production(*lhs, rhs)?;
        let template: OnceCell<Rc<Template>> = OnceCell::new();
        let body = move |b: &Bindings, ctx: &mut dyn ExpandCtx| -> Result<Node, DispatchError> {
            let cx = ctx
                .as_any()
                .downcast_mut::<CoreExpand>()
                .expect("assert runs under the core compiler");
            let t = match template.get() {
                Some(t) => t.clone(),
                None => {
                    let t = cx.compile_template(
                        NodeKind::Statement,
                        "if (!($cond)) { \
                           throw new java.lang.RuntimeException($msg) ; \
                         }",
                        &[
                            ("cond", NodeKind::Expression),
                            ("msg", NodeKind::Expression),
                        ],
                    )?;
                    template.get_or_init(|| t).clone()
                }
            };
            let cond = b
                .expr("cond")
                .ok_or_else(|| DispatchError::new("internal: assert condition", Span::DUMMY))?;
            let text = format!("assertion failed: {}", maya_ast::expr_str(&cond));
            let msg = Node::Expr(maya_ast::Expr::str_lit(&text));
            cx.instantiate_named(&t, &[("cond", Node::Expr(cond)), ("msg", msg)])
        };
        env.import_mayan(Mayan::new(
            "Assert",
            prod,
            vec![
                Param::plain(NodeKind::TokenNode),
                Param::named(NodeKind::Expression, sym("cond")),
                Param::plain(NodeKind::TokenNode),
            ],
            Rc::new(body),
        ));
        Ok(())
    }

    fn name(&self) -> &str {
        "maya.util.Assert"
    }
}
