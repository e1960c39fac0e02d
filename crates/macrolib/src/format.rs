//! `format`: printf-style string formatting, checked at compile time.
//!
//! `format("x=%s y=%s", a, b)` expands to string concatenation. The format
//! string must be a literal; placeholder/argument arity mismatches are
//! *compile-time* errors — the kind of static guarantee §3 motivates.

use maya_ast::{BinOp, Expr, ExprKind, Node, NodeKind};
use maya_core::Shipped;
use maya_dispatch::{Bindings, DispatchError, ExpandCtx, ImportEnv, Mayan, MetaProgram, Param};
use maya_lexer::{sym, Span};
use std::rc::Rc;

/// The `format` extension.
pub struct Format;

impl MetaProgram for Format {
    fn run(&self, env: &mut dyn ImportEnv) -> Result<(), DispatchError> {
        let (lhs, rhs) = &Shipped::Format.productions()[0];
        let prod = env.add_production(*lhs, rhs)?;
        let body = |b: &Bindings, _ctx: &mut dyn ExpandCtx| -> Result<Node, DispatchError> {
            let args = match b.get("args") {
                Some(Node::Args(a)) => a.clone(),
                _ => return Err(DispatchError::new("internal: format args", Span::DUMMY)),
            };
            let Some(first) = args.first() else {
                return Err(DispatchError::new(
                    "format expects a literal format string",
                    Span::DUMMY,
                ));
            };
            let ExprKind::Literal(maya_ast::Lit::Str(fmt)) = first.kind else {
                return Err(DispatchError::new(
                    "format's first argument must be a string literal",
                    first.span,
                ));
            };
            let rest = &args[1..];
            // Split on %s placeholders.
            let pieces: Vec<&str> = fmt.as_str().split("%s").collect();
            if pieces.len() - 1 != rest.len() {
                return Err(DispatchError::new(
                    format!(
                        "format string has {} placeholder(s) but {} argument(s) were given",
                        pieces.len() - 1,
                        rest.len()
                    ),
                    first.span,
                ));
            }
            // "" + p0 + a0 + p1 + a1 … — leading "" keeps + as string concat.
            let mut out = Expr::str_lit(pieces[0]);
            for (arg, piece) in rest.iter().zip(&pieces[1..]) {
                out = Expr::synth(ExprKind::Binary(
                    BinOp::Add,
                    Box::new(out),
                    Box::new(arg.clone()),
                ));
                if !piece.is_empty() {
                    out = Expr::synth(ExprKind::Binary(
                        BinOp::Add,
                        Box::new(out),
                        Box::new(Expr::str_lit(piece)),
                    ));
                }
            }
            Ok(Node::Expr(out))
        };
        env.import_mayan(Mayan::new(
            "Format",
            prod,
            vec![
                Param::plain(NodeKind::TokenNode),
                Param::named(NodeKind::ArgumentList, sym("args")),
            ],
            Rc::new(body),
        ));
        Ok(())
    }

    fn name(&self) -> &str {
        "maya.util.Format"
    }
}
