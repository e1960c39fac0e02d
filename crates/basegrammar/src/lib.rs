//! The base MayaJava grammar: its productions, precedence relations and
//! `use`-tail markers (paper §3.1).
//!
//! The declaration lives apart from the compiler so that `maya-core`'s
//! build script can build the grammar's LALR(1) tables once per compiler
//! build and embed them; `maya-core` builds the same grammar at run time
//! and imports the built-in Mayans for its productions. The syntax of the
//! extensions the compiler ships ([`Shipped`]) lives here for the same
//! reason.

mod shipped;

pub use shipped::Shipped;

use maya_ast::NodeKind;
use maya_grammar::{Assoc, Grammar, GrammarBuilder, NtId, ProdId, RhsItem, Terminal};
use maya_lexer::{Delim, TokenKind};
use std::cell::RefCell;
use std::collections::HashMap;

// Precedence bands. Conflicts compare a production's precedence (explicit,
// or its rightmost terminal's) against the lookahead terminal's.
const P_IF: u16 = 1;
const P_ELSE: u16 = 2;
const P_EXT: u16 = 2;
const P_ASSIGN: u16 = 3;
const P_COND: u16 = 4;
const P_OROR: u16 = 5;
const P_ANDAND: u16 = 6;
const P_BITOR: u16 = 7;
const P_BITXOR: u16 = 8;
const P_BITAND: u16 = 9;
const P_EQ: u16 = 10;
const P_REL: u16 = 11;
const P_SHIFT: u16 = 12;
const P_ADD: u16 = 13;
const P_MUL: u16 = 14;
const P_UNARY: u16 = 20;
const P_POSTFIX: u16 = 22;
const P_PAREN: u16 = 30;
const P_SUFFIX: u16 = 40; // `.` and `[...]`
const P_ATOM: u16 = 50; // cast-disambiguation band

/// The base grammar with its named productions.
pub struct BaseGrammar {
    pub grammar: Grammar,
    pub prods: BaseProds,
    /// The production-less marker nonterminal for statement-level `use`
    /// tails: only the ParseRest protocol can shift it, so the grammar has
    /// no list/continuation conflicts for use bodies.
    pub use_tail_stmts: NtId,
    /// Likewise for declaration-level `use` tails.
    pub use_tail_decls: NtId,
}

/// Named access to the base productions.
#[derive(Clone, Default, Debug)]
pub struct BaseProds {
    by_name: HashMap<&'static str, ProdId>,
    names: Vec<(&'static str, ProdId)>,
}

impl BaseProds {
    /// The production named `name`.
    ///
    /// # Panics
    ///
    /// Panics on unknown names — base production names are compile-time
    /// constants of this crate.
    pub fn id(&self, name: &str) -> ProdId {
        *self
            .by_name
            .get(name)
            .unwrap_or_else(|| panic!("unknown base production {name}"))
    }

    /// The name of a base production, if it is one.
    pub fn name_of(&self, id: ProdId) -> Option<&'static str> {
        self.names.iter().find(|(_, p)| *p == id).map(|(n, _)| *n)
    }

    /// All `(name, id)` pairs.
    pub fn all(&self) -> &[(&'static str, ProdId)] {
        &self.names
    }
}

fn t(kind: TokenKind) -> RhsItem {
    RhsItem::tok(kind)
}

fn k(kind: NodeKind) -> RhsItem {
    RhsItem::Kind(kind)
}

fn sub(d: Delim, inner: NodeKind) -> RhsItem {
    RhsItem::Subtree(d, vec![RhsItem::Kind(inner)])
}

fn lazy(d: Delim, inner: NodeKind) -> RhsItem {
    RhsItem::Lazy(d, inner)
}

fn tree(d: Delim) -> RhsItem {
    RhsItem::Term(Terminal::Tree(d))
}

fn list(inner: NodeKind, sep: Option<TokenKind>) -> RhsItem {
    RhsItem::List(Box::new(RhsItem::Kind(inner)), sep.map(Terminal::Tok))
}

/// Builds the base grammar.
pub fn build() -> BaseGrammar {
    use Delim::*;
    use NodeKind::*;
    use TokenKind::*;

    let mut b = GrammarBuilder::new();

    // ---- terminal precedence ------------------------------------------------
    let prec_table: &[(&[TokenKind], u16, Assoc)] = &[
        (&[KwElse], P_ELSE, Assoc::Right),
        (&[KwExtends], P_EXT, Assoc::Left),
        (
            &[
                Assign, PlusEq, MinusEq, StarEq, SlashEq, PercentEq, AmpEq, PipeEq, CaretEq, ShlEq,
                ShrEq, UshrEq,
            ],
            P_ASSIGN,
            Assoc::Right,
        ),
        (&[Question, Colon], P_COND, Assoc::Right),
        (&[OrOr], P_OROR, Assoc::Left),
        (&[AndAnd], P_ANDAND, Assoc::Left),
        (&[Pipe], P_BITOR, Assoc::Left),
        (&[Caret], P_BITXOR, Assoc::Left),
        (&[Amp], P_BITAND, Assoc::Left),
        (&[EqEq, Ne], P_EQ, Assoc::Left),
        (&[Lt, Gt, Le, Ge, KwInstanceof], P_REL, Assoc::Left),
        (&[Shl, Shr, Ushr], P_SHIFT, Assoc::Left),
        (&[Plus, Minus], P_ADD, Assoc::Left),
        (&[Star, Slash, Percent], P_MUL, Assoc::Left),
        (&[PlusPlus, MinusMinus], P_POSTFIX, Assoc::Left),
        (&[Dot], P_SUFFIX, Assoc::Left),
        // Cast-disambiguation band: tokens that may start the operand of a
        // cast (see the `paren`/`cast` productions below).
        (
            &[
                Ident, IntLit, LongLit, FloatLit, DoubleLit, CharLit, StringLit, KwTrue, KwFalse,
                KwNull, KwThis, KwNew, KwSuper, Bang, Tilde,
            ],
            P_ATOM,
            Assoc::Left,
        ),
    ];
    for (toks, level, assoc) in prec_table {
        for tk in *toks {
            b.set_prec(Terminal::Tok(*tk), *level, *assoc);
        }
    }
    b.set_prec(Terminal::Tree(Paren), P_ATOM, Assoc::Left);
    b.set_prec(Terminal::Tree(Brack), P_SUFFIX, Assoc::Left);

    // ---- productions ---------------------------------------------------------
    type Def = (&'static str, NodeKind, Vec<RhsItem>, Option<(u16, Assoc)>);
    let defs: RefCell<Vec<Def>> = RefCell::new(Vec::new());
    let def = |name: &'static str, lhs: NodeKind, rhs: Vec<RhsItem>| {
        defs.borrow_mut().push((name, lhs, rhs, None));
    };
    let defp = |name: &'static str, lhs: NodeKind, rhs: Vec<RhsItem>, prec: (u16, Assoc)| {
        defs.borrow_mut().push((name, lhs, rhs, Some(prec)));
    };

    // Identifiers and names.
    def("identifier", Identifier, vec![t(Ident)]);
    def("unbound_local", UnboundLocal, vec![t(Ident)]);
    def("qname_single", QualifiedName, vec![k(Identifier)]);
    def(
        "qname_dot",
        QualifiedName,
        vec![k(QualifiedName), t(Dot), k(Identifier)],
    );

    // Type names. The production precedence is below `.`/`[` so dotted
    // names and array brackets extend the type rather than ending it
    // (`x instanceof a.b.c`).
    defp(
        "type_qname",
        TypeName,
        vec![k(QualifiedName)],
        (P_EQ, Assoc::Left),
    );
    def("type_prim", TypeName, vec![k(PrimitiveTypeName)]);
    def("type_void", TypeName, vec![t(KwVoid)]);
    def("type_array", TypeName, vec![k(TypeName), tree(Brack)]);
    for (name, kw) in [
        ("prim_boolean", KwBoolean),
        ("prim_byte", KwByte),
        ("prim_short", KwShort),
        ("prim_char", KwChar),
        ("prim_int", KwInt),
        ("prim_long", KwLong),
        ("prim_float", KwFloat),
        ("prim_double", KwDouble),
    ] {
        def(name, PrimitiveTypeName, vec![t(kw)]);
    }

    // Literal expressions.
    for (name, kw) in [
        ("lit_int", IntLit),
        ("lit_long", LongLit),
        ("lit_float", FloatLit),
        ("lit_double", DoubleLit),
        ("lit_char", CharLit),
        ("lit_string", StringLit),
        ("lit_true", KwTrue),
        ("lit_false", KwFalse),
        ("lit_null", KwNull),
    ] {
        def(name, Expression, vec![t(kw)]);
    }

    // Primary expressions.
    def("expr_name", Expression, vec![k(Identifier)]);
    def("expr_this", Expression, vec![t(KwThis)]);
    def(
        "field_access",
        Expression,
        vec![k(Expression), t(Dot), k(Identifier)],
    );
    def("mn_simple", MethodName, vec![k(Identifier)]);
    def(
        "mn_recv",
        MethodName,
        vec![k(Expression), t(Dot), k(Identifier)],
    );
    def(
        "mn_super",
        MethodName,
        vec![t(KwSuper), t(Dot), k(Identifier)],
    );
    def(
        "call",
        Expression,
        vec![k(MethodName), sub(Paren, ArgumentList)],
    );
    def("args", ArgumentList, vec![list(Expression, Some(Comma))]);
    def("array_access", Expression, vec![k(Expression), tree(Brack)]);
    // `new` takes a non-array type head (QualifiedName or primitive):
    // `new T[n][]` folds extra dimensions through the array-access
    // production, avoiding the `new int[]`-vs-dimension ambiguity.
    def(
        "new_object",
        Expression,
        vec![t(KwNew), k(QualifiedName), sub(Paren, ArgumentList)],
    );
    def(
        "new_array",
        Expression,
        vec![t(KwNew), k(QualifiedName), sub(Brack, Expression)],
    );
    def(
        "new_array_prim",
        Expression,
        vec![t(KwNew), k(PrimitiveTypeName), sub(Brack, Expression)],
    );
    def(
        "template",
        Expression,
        vec![t(KwNew), k(QualifiedName), tree(Brace)],
    );
    // Parenthesized expression vs. cast: see DESIGN.md. The paren production
    // reduces below the "atom" band (so `(a) - b` is subtraction) and above
    // the operator bands; atoms shift into the cast production.
    defp(
        "paren",
        Expression,
        vec![tree(Paren)],
        (P_PAREN, Assoc::Left),
    );
    defp(
        "cast",
        Expression,
        vec![tree(Paren), k(Expression)],
        (P_UNARY, Assoc::Right),
    );

    // Operators.
    let binops: &[(&'static str, TokenKind)] = &[
        ("binary_add", Plus),
        ("binary_sub", Minus),
        ("binary_mul", Star),
        ("binary_div", Slash),
        ("binary_rem", Percent),
        ("binary_shl", Shl),
        ("binary_shr", Shr),
        ("binary_ushr", Ushr),
        ("binary_lt", Lt),
        ("binary_gt", Gt),
        ("binary_le", Le),
        ("binary_ge", Ge),
        ("binary_eq", EqEq),
        ("binary_ne", Ne),
        ("binary_bitand", Amp),
        ("binary_bitxor", Caret),
        ("binary_bitor", Pipe),
        ("binary_andand", AndAnd),
        ("binary_oror", OrOr),
    ];
    for (name, op) in binops {
        def(name, Expression, vec![k(Expression), t(*op), k(Expression)]);
    }
    let assigns: &[(&'static str, TokenKind)] = &[
        ("assign", Assign),
        ("assign_add", PlusEq),
        ("assign_sub", MinusEq),
        ("assign_mul", StarEq),
        ("assign_div", SlashEq),
        ("assign_rem", PercentEq),
        ("assign_bitand", AmpEq),
        ("assign_bitor", PipeEq),
        ("assign_bitxor", CaretEq),
        ("assign_shl", ShlEq),
        ("assign_shr", ShrEq),
        ("assign_ushr", UshrEq),
    ];
    for (name, op) in assigns {
        def(name, Expression, vec![k(Expression), t(*op), k(Expression)]);
    }
    def(
        "cond",
        Expression,
        vec![
            k(Expression),
            t(Question),
            k(Expression),
            t(Colon),
            k(Expression),
        ],
    );
    def(
        "instanceof",
        Expression,
        vec![k(Expression), t(KwInstanceof), k(TypeName)],
    );
    for (name, op) in [
        ("unary_neg", Minus),
        ("unary_plus", Plus),
        ("unary_not", Bang),
        ("unary_bitnot", Tilde),
        ("preinc", PlusPlus),
        ("predec", MinusMinus),
    ] {
        defp(
            name,
            Expression,
            vec![t(op), k(Expression)],
            (P_UNARY, Assoc::Right),
        );
    }
    def("postinc", Expression, vec![k(Expression), t(PlusPlus)]);
    def("postdec", Expression, vec![k(Expression), t(MinusMinus)]);

    // Statements.
    def("block_stmts", BlockStmts, vec![list(Statement, None)]);
    def("stmt_block", Statement, vec![sub(Brace, BlockStmts)]);
    def("stmt_expr", Statement, vec![k(Expression), t(Semi)]);
    def(
        "stmt_decl",
        Statement,
        vec![k(Expression), k(LocalDeclarator), t(Semi)],
    );
    def(
        "stmt_decl_prim",
        Statement,
        vec![k(PrimitiveTypeName), k(LocalDeclarator), t(Semi)],
    );
    def(
        "stmt_decl_prim_arr",
        Statement,
        vec![
            k(PrimitiveTypeName),
            tree(Brack),
            k(LocalDeclarator),
            t(Semi),
        ],
    );
    def("local_decl", LocalDeclarator, vec![k(UnboundLocal)]);
    def(
        "local_decl_init",
        LocalDeclarator,
        vec![k(UnboundLocal), t(Assign), k(Expression)],
    );
    def(
        "local_decl_arr",
        LocalDeclarator,
        vec![k(UnboundLocal), tree(Brack)],
    );
    def(
        "local_decl_arr_init",
        LocalDeclarator,
        vec![k(UnboundLocal), tree(Brack), t(Assign), k(Expression)],
    );
    defp(
        "stmt_if",
        Statement,
        vec![t(KwIf), sub(Paren, Expression), k(Statement)],
        (P_IF, Assoc::Left),
    );
    def(
        "stmt_if_else",
        Statement,
        vec![
            t(KwIf),
            sub(Paren, Expression),
            k(Statement),
            t(KwElse),
            k(Statement),
        ],
    );
    def(
        "stmt_while",
        Statement,
        vec![t(KwWhile), sub(Paren, Expression), k(Statement)],
    );
    def(
        "stmt_do",
        Statement,
        vec![
            t(KwDo),
            k(Statement),
            t(KwWhile),
            sub(Paren, Expression),
            t(Semi),
        ],
    );
    def(
        "stmt_for",
        Statement,
        vec![t(KwFor), sub(Paren, ForControl), k(Statement)],
    );
    def(
        "for_control",
        ForControl,
        vec![
            k(ForInit),
            t(Semi),
            list(Expression, Some(Comma)),
            t(Semi),
            list(Expression, Some(Comma)),
        ],
    );
    def("for_init_empty", ForInit, vec![]);
    def("for_init_expr", ForInit, vec![k(Expression)]);
    def(
        "for_init_decl",
        ForInit,
        vec![k(Expression), k(LocalDeclarator)],
    );
    def(
        "for_init_prim",
        ForInit,
        vec![k(PrimitiveTypeName), k(LocalDeclarator)],
    );
    def("stmt_return_void", Statement, vec![t(KwReturn), t(Semi)]);
    def(
        "stmt_return",
        Statement,
        vec![t(KwReturn), k(Expression), t(Semi)],
    );
    def("stmt_break", Statement, vec![t(KwBreak), t(Semi)]);
    def("stmt_continue", Statement, vec![t(KwContinue), t(Semi)]);
    def(
        "stmt_throw",
        Statement,
        vec![t(KwThrow), k(Expression), t(Semi)],
    );
    def("stmt_empty", Statement, vec![t(Semi)]);
    def(
        "stmt_try",
        Statement,
        vec![t(KwTry), sub(Brace, BlockStmts), list(CatchClause, None)],
    );
    def(
        "stmt_try_finally",
        Statement,
        vec![
            t(KwTry),
            sub(Brace, BlockStmts),
            list(CatchClause, None),
            t(KwFinally),
            sub(Brace, BlockStmts),
        ],
    );
    def(
        "catch_clause",
        CatchClause,
        vec![t(KwCatch), sub(Paren, Formal), sub(Brace, BlockStmts)],
    );
    def(
        "use_head",
        UseHead,
        vec![t(KwUse), k(QualifiedName), t(Semi)],
    );
    // stmt_use is registered after lowering (it references a fresh marker
    // nonterminal); see below.

    // Formals and modifiers.
    def(
        "formal",
        Formal,
        vec![k(ModifierList), k(TypeName), k(UnboundLocal)],
    );
    def("formal_list", FormalList, vec![list(Formal, Some(Comma))]);
    def("modifiers", ModifierList, vec![list(Modifier, None)]);
    for (name, kw) in [
        ("modifier_public", KwPublic),
        ("modifier_private", KwPrivate),
        ("modifier_protected", KwProtected),
        ("modifier_static", KwStatic),
        ("modifier_final", KwFinal),
        ("modifier_abstract", KwAbstract),
        ("modifier_native", KwNative),
        ("modifier_synchronized", KwSynchronized),
        ("modifier_transient", KwTransient),
        ("modifier_volatile", KwVolatile),
    ] {
        def(name, Modifier, vec![t(kw)]);
    }
    def("throws_none", Throws, vec![]);
    def(
        "throws_some",
        Throws,
        vec![t(KwThrows), list(TypeName, Some(Comma))],
    );

    // Member declarations.
    def(
        "method_decl",
        Declaration,
        vec![
            k(ModifierList),
            k(TypeName),
            k(Identifier),
            sub(Paren, FormalList),
            k(Throws),
            lazy(Brace, BlockStmts),
        ],
    );
    def(
        "method_decl_abs",
        Declaration,
        vec![
            k(ModifierList),
            k(TypeName),
            k(Identifier),
            sub(Paren, FormalList),
            k(Throws),
            t(Semi),
        ],
    );
    def(
        "ctor_decl",
        Declaration,
        vec![
            k(ModifierList),
            k(Identifier),
            sub(Paren, FormalList),
            k(Throws),
            lazy(Brace, BlockStmts),
        ],
    );
    def(
        "field_decl",
        Declaration,
        vec![k(ModifierList), k(TypeName), k(LocalDeclarator), t(Semi)],
    );
    defp("extends_none", ExtendsClause, vec![], (P_IF, Assoc::Left));
    def(
        "extends_some",
        ExtendsClause,
        vec![t(KwExtends), k(TypeName)],
    );
    def("impls_none", ImplementsClause, vec![]);
    def(
        "impls_some",
        ImplementsClause,
        vec![t(KwImplements), list(TypeName, Some(Comma))],
    );
    def(
        "impls_extends",
        ImplementsClause,
        vec![t(KwExtends), list(TypeName, Some(Comma))],
    );
    def(
        "class_decl",
        Declaration,
        vec![
            k(ModifierList),
            t(KwClass),
            k(Identifier),
            k(ExtendsClause),
            k(ImplementsClause),
            tree(Brace),
        ],
    );
    def(
        "iface_decl",
        Declaration,
        vec![
            k(ModifierList),
            t(KwInterface),
            k(Identifier),
            k(ImplementsClause),
            tree(Brace),
        ],
    );
    def(
        "prod_decl",
        Declaration,
        vec![
            k(ModifierList),
            k(QualifiedName),
            t(KwSyntax),
            tree(Paren),
            t(Semi),
        ],
    );
    def(
        "mayan_decl",
        Declaration,
        vec![
            k(ModifierList),
            k(QualifiedName),
            t(KwSyntax),
            k(Identifier),
            tree(Paren),
            tree(Brace),
        ],
    );
    // use_decl is registered after lowering; see below.
    def("class_body", ClassBody, vec![list(Declaration, None)]);

    // Compilation units.
    def("package_none", PackageDecl, vec![]);
    def(
        "package_some",
        PackageDecl,
        vec![t(KwPackage), k(QualifiedName), t(Semi)],
    );
    def(
        "import_plain",
        ImportDecl,
        vec![t(KwImport), k(QualifiedName), t(Semi)],
    );
    def(
        "import_star",
        ImportDecl,
        vec![t(KwImport), k(QualifiedName), t(Dot), t(Star), t(Semi)],
    );
    def(
        "comp_unit",
        CompilationUnit,
        vec![k(PackageDecl), list(ImportDecl, None), k(ClassBody)],
    );

    // Register everything.
    let defs = defs.into_inner();
    let mut prods = BaseProds::default();
    for (name, lhs, rhs, prec) in &defs {
        let id = b
            .add_production(*lhs, rhs, *prec)
            .unwrap_or_else(|e| panic!("base production {name}: {e}"));
        prods.by_name.insert(name, id);
        prods.names.push((name, id));
    }

    // `use` tails: production-less marker nonterminals shifted only through
    // the ParseRest protocol, so nested `use` bodies cannot conflict with
    // their surrounding statement/declaration lists.
    let use_tail_stmts = b.fresh_nonterminal("%use-tail-stmts");
    let use_tail_decls = b.fresh_nonterminal("%use-tail-decls");
    for (name, lhs, tail) in [
        ("stmt_use", Statement, use_tail_stmts),
        ("use_decl", Declaration, use_tail_decls),
    ] {
        let id = b
            .add_production(lhs, &[k(UseHead), RhsItem::Nt(tail)], None)
            .unwrap_or_else(|e| panic!("base production {name}: {e}"));
        prods.by_name.insert(name, id);
        prods.names.push((name, id));
    }

    BaseGrammar {
        grammar: b.finish(),
        prods,
        use_tail_stmts,
        use_tail_decls,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prod_names_resolve() {
        let base = build();
        for name in ["use_head", "expr_name", "call", "method_decl", "comp_unit"] {
            let id = base.prods.id(name);
            assert_eq!(base.prods.name_of(id), Some(name));
        }
        assert!(base.grammar.productions().len() > 100);
    }
}
