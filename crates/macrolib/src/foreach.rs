//! `foreach` (paper §3, Figures 2, 5 and 7).
//!
//! The production — `Statement → MethodName(Formal) lazy(BraceTree,
//! BlockStmts)` — avoids making `foreach` a reserved word: each Mayan
//! specializes the `MethodName`'s final identifier to the token value
//! `foreach`, and dispatch additionally narrows on the *static type* of the
//! receiver: `Enumeration` for the general expansion, `maya.util.Vector`
//! with `.elements()` substructure for the allocation-free expansion, and
//! arrays for the index-loop expansion.

use maya_ast::{
    Expr, ExprKind, Formal, LocalDeclarator, Node, NodeKind, Stmt, StmtKind, TypeName,
};
use maya_core::{BaseProds, Compiler, Shipped};
use maya_dispatch::{
    Bindings, DispatchError, ExpandCtx, ImportEnv, Mayan, MetaProgram, Param, Specializer,
};
use maya_lexer::{sym, Span};
use maya_template::Template;
use maya_types::{ClassTable, Type};
use std::cell::OnceCell;
use std::rc::Rc;

/// Renders a semantic type back to (strict) type-name syntax, so generated
/// casts and declarations are immune to shadowing at the splice site.
pub(crate) fn type_to_typename(ct: &ClassTable, ty: &Type) -> Result<TypeName, DispatchError> {
    match ty {
        Type::Prim(p) => Ok(TypeName::prim(*p)),
        Type::Class(c) => Ok(TypeName::strict(ct.fqcn(*c))),
        Type::Array(el) => Ok(type_to_typename(ct, el)?.array_of()),
        other => Err(DispatchError::new(
            format!("cannot name type {} in generated code", ct.describe(other)),
            Span::DUMMY,
        )),
    }
}

fn formal_of(b: &Bindings, name: &str) -> Result<Formal, DispatchError> {
    match b.get(name) {
        Some(Node::Formal(f)) => Ok(f.clone()),
        _ => Err(DispatchError::new("internal: foreach formal", Span::DUMMY)),
    }
}

/// The pieces every foreach expansion splices: the loop-variable
/// declaration, a direct reference to it, and the cast type.
fn var_parts(
    cx: &mut maya_core::CoreExpand,
    var: &Formal,
) -> Result<(Node, Node, Node), DispatchError> {
    // $(DeclStmt.make(var)) of Figure 2 line 12.
    let decl = Node::Stmt(Stmt::synth(StmtKind::Decl(
        var.ty.clone(),
        vec![LocalDeclarator::plain(var.name)],
    )));
    // $(Reference.makeExpr(var.getLocation())) of line 13: a direct
    // reference, immune to hygienic renaming.
    let refer = Node::Expr(Expr::synth(ExprKind::VarRef(var.name.sym)));
    // StrictTypeName.make(var.getType()) of line 7.
    let var_ty = cx
        .c
        .cx
        .classes
        .resolve_type_name(&var.ty, cx.resolve_ctx())
        .map_err(|e| DispatchError::new(e.message, e.span))?;
    let cast = Node::Type(type_to_typename(&cx.c.cx.classes, &var_ty)?);
    Ok((decl, refer, cast))
}

fn foreach_production(env: &mut dyn ImportEnv) -> Result<maya_grammar::ProdId, DispatchError> {
    let (lhs, rhs) = &Shipped::Foreach.productions()[0];
    env.add_production(*lhs, rhs)
}

fn core_expand<'a>(ctx: &'a mut dyn ExpandCtx) -> &'a mut maya_core::CoreExpand {
    ctx.as_any()
        .downcast_mut::<maya_core::CoreExpand>()
        .expect("macro library runs under the core compiler")
}

/// Shared parameter: `MethodName` whose receiver is `recv` and whose name
/// token is `foreach`.
fn foreach_mn_param(prods: &BaseProds, recv: Param) -> Param {
    Param {
        kind: NodeKind::MethodName,
        spec: Specializer::Structure {
            prod: prods.id("mn_recv"),
            children: vec![
                recv,
                Param::plain(NodeKind::TokenNode),
                Param::plain(NodeKind::Identifier)
                    .with_spec(Specializer::TokenValue(sym("foreach"))),
            ],
        },
        name: None,
    }
}

/// The general `foreach` on `java.util.Enumeration` (Figure 2).
pub struct EForEach {
    enum_ty: Type,
    prods: BaseProds,
}

impl EForEach {
    /// Builds the extension against a class table (for the static-type
    /// specializer) and the base production table (for substructure).
    pub fn new(ct: &ClassTable, prods: &BaseProds) -> EForEach {
        EForEach {
            enum_ty: Type::Class(
                ct.by_fqcn_str("java.util.Enumeration")
                    .expect("runtime installed"),
            ),
            prods: prods.clone(),
        }
    }

    fn mayan(&self, prod: maya_grammar::ProdId) -> Rc<Mayan> {
        let template: OnceCell<Rc<Template>> = OnceCell::new();
        let body = move |b: &Bindings, ctx: &mut dyn ExpandCtx| -> Result<Node, DispatchError> {
            let cx = core_expand(ctx);
            let t = match template.get() {
                Some(t) => t.clone(),
                None => {
                    let t = cx.compile_template(
                        NodeKind::Statement,
                        "for (java.util.Enumeration enumVar = $enumExp ; \
                              enumVar.hasMoreElements() ; ) { \
                             $decl \
                             $ref = ($castType) enumVar.nextElement() ; \
                             $body \
                         }",
                        &[
                            ("enumExp", NodeKind::Expression),
                            ("decl", NodeKind::Statement),
                            ("ref", NodeKind::Expression),
                            ("castType", NodeKind::TypeName),
                            ("body", NodeKind::Statement),
                        ],
                    )?;
                    template.get_or_init(|| t).clone()
                }
            };
            let var = formal_of(b, "var")?;
            let (decl, refer, cast) = var_parts(cx, &var)?;
            let enum_exp = b
                .get("enumExp")
                .cloned()
                .ok_or_else(|| DispatchError::new("internal: enumExp", Span::DUMMY))?;
            let body_node = b
                .get("body")
                .cloned()
                .ok_or_else(|| DispatchError::new("internal: body", Span::DUMMY))?;
            cx.instantiate_named(
                &t,
                &[
                    ("enumExp", enum_exp),
                    ("decl", decl),
                    ("ref", refer),
                    ("castType", cast),
                    ("body", body_node),
                ],
            )
        };
        Mayan::new(
            "EForEach",
            prod,
            vec![
                foreach_mn_param(
                    &self.prods,
                    Param::named(NodeKind::Expression, sym("enumExp"))
                        .with_spec(Specializer::StaticType(self.enum_ty.clone())),
                ),
                Param::named(NodeKind::Formal, sym("var")),
                Param::named(NodeKind::BlockStmts, sym("body")),
            ],
            Rc::new(body),
        )
    }
}

impl MetaProgram for EForEach {
    fn run(&self, env: &mut dyn ImportEnv) -> Result<(), DispatchError> {
        let prod = foreach_production(env)?;
        env.import_mayan(self.mayan(prod));
        Ok(())
    }

    fn name(&self) -> &str {
        "EForEach"
    }
}

/// `foreach` over arrays: falls through (`nextRewrite`) when the receiver
/// is not an array.
pub struct AForEach {
    prods: BaseProds,
}

impl AForEach {
    /// Builds the extension.
    pub fn new(_ct: &ClassTable, prods: &BaseProds) -> AForEach {
        AForEach {
            prods: prods.clone(),
        }
    }

    fn mayan(&self, prod: maya_grammar::ProdId) -> Rc<Mayan> {
        let template: OnceCell<Rc<Template>> = OnceCell::new();
        let body = move |b: &Bindings, ctx: &mut dyn ExpandCtx| -> Result<Node, DispatchError> {
            let arr_exp = b
                .expr("arr")
                .ok_or_else(|| DispatchError::new("internal: arr", Span::DUMMY))?;
            // Only applicable when the receiver's static type is an array;
            // otherwise defer to the next Mayan (layering, paper §4.4).
            let arr_ty = ctx.static_type_of(&arr_exp)?;
            let Type::Array(_) = arr_ty else {
                return ctx.next_rewrite();
            };
            let cx = core_expand(ctx);
            let t = match template.get() {
                Some(t) => t.clone(),
                None => {
                    let t = cx.compile_template(
                        NodeKind::Statement,
                        "{ $arrDecl \
                           for (int iVar = 0 ; iVar < $arrRef.length ; iVar++) { \
                             $decl \
                             $ref = ($castType) $arrRef2[iVar] ; \
                             $body \
                           } \
                         }",
                        &[
                            ("arrDecl", NodeKind::Statement),
                            ("arrRef", NodeKind::Expression),
                            ("decl", NodeKind::Statement),
                            ("ref", NodeKind::Expression),
                            ("castType", NodeKind::TypeName),
                            ("arrRef2", NodeKind::Expression),
                            ("body", NodeKind::Statement),
                        ],
                    )?;
                    template.get_or_init(|| t).clone()
                }
            };
            let var = formal_of(b, "var")?;
            let (decl, refer, cast) = var_parts(cx, &var)?;
            // A fresh name via Environment.makeId (paper §4.3), referenced
            // directly — the array expression is evaluated exactly once.
            let arr_name = cx.c.cx.fresh("arr");
            let arr_tn = type_to_typename(&cx.c.cx.classes, &arr_ty)?;
            let arr_decl = Node::Stmt(Stmt::synth(StmtKind::Decl(
                arr_tn,
                vec![LocalDeclarator {
                    name: maya_ast::Ident::synth(arr_name),
                    dims: 0,
                    init: Some(arr_exp),
                }],
            )));
            let arr_ref = || Node::Expr(Expr::synth(ExprKind::VarRef(arr_name)));
            let body_node = b
                .get("body")
                .cloned()
                .ok_or_else(|| DispatchError::new("internal: body", Span::DUMMY))?;
            cx.instantiate_named(
                &t,
                &[
                    ("arrDecl", arr_decl),
                    ("arrRef", arr_ref()),
                    ("decl", decl),
                    ("ref", refer),
                    ("castType", cast),
                    ("arrRef2", arr_ref()),
                    ("body", body_node),
                ],
            )
        };
        Mayan::new(
            "AForEach",
            prod,
            vec![
                foreach_mn_param(
                    &self.prods,
                    Param::named(NodeKind::Expression, sym("arr")),
                ),
                Param::named(NodeKind::Formal, sym("var")),
                Param::named(NodeKind::BlockStmts, sym("body")),
            ],
            Rc::new(body),
        )
    }
}

impl MetaProgram for AForEach {
    fn run(&self, env: &mut dyn ImportEnv) -> Result<(), DispatchError> {
        let prod = foreach_production(env)?;
        env.import_mayan(self.mayan(prod));
        Ok(())
    }

    fn name(&self) -> &str {
        "AForEach"
    }
}

/// The optimized `foreach` on `maya.util.Vector.elements()` (§3, §4.4,
/// Figure 7): the receiver must *syntactically* be a call to `elements()`
/// whose own receiver has static type `maya.util.Vector`. The expansion
/// avoids the Enumeration allocation and the per-element calls.
pub struct VForEach {
    vector_ty: Type,
    prods: BaseProds,
}

impl VForEach {
    /// Builds the extension.
    pub fn new(ct: &ClassTable, prods: &BaseProds) -> VForEach {
        VForEach {
            vector_ty: Type::Class(
                ct.by_fqcn_str("maya.util.Vector").expect("runtime installed"),
            ),
            prods: prods.clone(),
        }
    }

    fn mayan(&self, prod: maya_grammar::ProdId) -> Rc<Mayan> {
        let template: OnceCell<Rc<Template>> = OnceCell::new();
        let body = move |b: &Bindings, ctx: &mut dyn ExpandCtx| -> Result<Node, DispatchError> {
            let cx = core_expand(ctx);
            let t = match template.get() {
                Some(t) => t.clone(),
                None => {
                    let t = cx.compile_template(
                        NodeKind::Statement,
                        "{ maya.util.Vector vVar = $vexp ; \
                           int lenVar = vVar.size() ; \
                           java.lang.Object[] arrVar = vVar.getElementData() ; \
                           for (int iVar = 0 ; iVar < lenVar ; iVar++) { \
                             $decl \
                             $ref = ($castType) arrVar[iVar] ; \
                             $body \
                           } \
                         }",
                        &[
                            ("vexp", NodeKind::Expression),
                            ("decl", NodeKind::Statement),
                            ("ref", NodeKind::Expression),
                            ("castType", NodeKind::TypeName),
                            ("body", NodeKind::Statement),
                        ],
                    )?;
                    template.get_or_init(|| t).clone()
                }
            };
            let var = formal_of(b, "var")?;
            let (decl, refer, cast) = var_parts(cx, &var)?;
            let vexp = b
                .get("v")
                .cloned()
                .ok_or_else(|| DispatchError::new("internal: vector receiver", Span::DUMMY))?;
            let body_node = b
                .get("body")
                .cloned()
                .ok_or_else(|| DispatchError::new("internal: body", Span::DUMMY))?;
            cx.instantiate_named(
                &t,
                &[
                    ("vexp", vexp),
                    ("decl", decl),
                    ("ref", refer),
                    ("castType", cast),
                    ("body", body_node),
                ],
            )
        };
        // The receiver parameter of Figure 7: a CallExpr `$v.elements()`
        // whose inner receiver is specialized to maya.util.Vector.
        let elements_call = Param {
            kind: NodeKind::CallExpr,
            spec: Specializer::Structure {
                prod: self.prods.id("call"),
                children: vec![
                    Param {
                        kind: NodeKind::MethodName,
                        spec: Specializer::Structure {
                            prod: self.prods.id("mn_recv"),
                            children: vec![
                                Param::named(NodeKind::Expression, sym("v"))
                                    .with_spec(Specializer::StaticType(self.vector_ty.clone())),
                                Param::plain(NodeKind::TokenNode),
                                Param::plain(NodeKind::Identifier)
                                    .with_spec(Specializer::TokenValue(sym("elements"))),
                            ],
                        },
                        name: None,
                    },
                    Param::plain(NodeKind::ArgumentList),
                ],
            },
            name: None,
        };
        Mayan::new(
            "VForEach",
            prod,
            vec![
                foreach_mn_param(&self.prods, elements_call),
                Param::named(NodeKind::Formal, sym("var")),
                Param::named(NodeKind::BlockStmts, sym("body")),
            ],
            Rc::new(body),
        )
    }
}

impl MetaProgram for VForEach {
    fn run(&self, env: &mut dyn ImportEnv) -> Result<(), DispatchError> {
        let prod = foreach_production(env)?;
        env.import_mayan(self.mayan(prod));
        Ok(())
    }

    fn name(&self) -> &str {
        "VForEach"
    }
}

/// The aggregate of all foreach Mayans — the paper's `maya.util.Foreach`
/// class, whose `run` "instantiates and runs each built-in foreach Mayan in
/// turn" (§3.3).
pub struct Foreach {
    e: EForEach,
    a: AForEach,
    v: VForEach,
}

impl Foreach {
    /// Builds the aggregate.
    pub fn new(ct: &ClassTable, prods: &BaseProds) -> Foreach {
        Foreach {
            e: EForEach::new(ct, prods),
            a: AForEach::new(ct, prods),
            v: VForEach::new(ct, prods),
        }
    }

    /// Convenience: build from a compiler.
    pub fn from_compiler(c: &Compiler) -> Foreach {
        Foreach::new(&c.classes(), &c.base().prods)
    }
}

impl MetaProgram for Foreach {
    fn run(&self, env: &mut dyn ImportEnv) -> Result<(), DispatchError> {
        self.e.run(env)?;
        self.a.run(env)?;
        self.v.run(env)?;
        Ok(())
    }

    fn name(&self) -> &str {
        "maya.util.Foreach"
    }
}
