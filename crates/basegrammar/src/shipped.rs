//! The syntax of the extensions the compiler ships: the productions each
//! one adds to the grammar it is imported into, in the order it adds them.
//!
//! The extensions (`maya-macrolib`, `maya-multijava`) pass exactly these
//! productions to `ImportEnv::add_production`, and `maya-core`'s build
//! script builds the tables of the base grammar extended by each of them,
//! so a `use` of one over the base grammar builds no tables at run time.
//! An extension whose productions drift from this list still works, but
//! builds its tables in every process.

use maya_ast::NodeKind;
use maya_grammar::{Grammar, RhsItem};
use maya_lexer::{Delim, TokenKind};

/// An extension the compiler ships that adds syntax. The foreach family
/// (`Foreach` and its `EForEach`, `VForEach` and `AForEach` variants)
/// shares one production.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Shipped {
    Foreach,
    Assert,
    Format,
    Typedef,
    Comprehension,
    MultiJava,
}

impl Shipped {
    /// Every shipped extension that adds syntax.
    pub const ALL: [Shipped; 6] = [
        Shipped::Foreach,
        Shipped::Assert,
        Shipped::Format,
        Shipped::Typedef,
        Shipped::Comprehension,
        Shipped::MultiJava,
    ];

    /// `base` extended by the extension's productions with no precedence,
    /// as a `use` adds them: the grammar whose tables are compiled in.
    pub fn extend(self, base: &Grammar) -> Grammar {
        let mut b = base.extend();
        for (lhs, rhs) in self.productions() {
            b.add_production(lhs, &rhs, None)
                .unwrap_or_else(|e| panic!("{self:?}: {e}"));
        }
        b.finish()
    }

    /// The productions the extension adds, as `(lhs, rhs)` in the order it
    /// adds them. None carries a precedence.
    pub fn productions(self) -> Vec<(NodeKind, Vec<RhsItem>)> {
        use NodeKind::*;
        let kind = RhsItem::Kind;
        let sub = |items: Vec<RhsItem>| RhsItem::Subtree(Delim::Paren, items);
        let body = || RhsItem::Lazy(Delim::Brace, BlockStmts);
        match self {
            // `Statement → MethodName(Formal) lazy(BraceTree, BlockStmts)`
            // (paper Figure 2).
            Shipped::Foreach => vec![(
                Statement,
                vec![kind(MethodName), sub(vec![kind(Formal)]), body()],
            )],
            Shipped::Assert => vec![(
                Statement,
                vec![
                    RhsItem::word("assert"),
                    sub(vec![kind(Expression)]),
                    RhsItem::tok(TokenKind::Semi),
                ],
            )],
            Shipped::Format => vec![(
                Expression,
                vec![RhsItem::word("format"), sub(vec![kind(ArgumentList)])],
            )],
            // `typedef(Identifier = StrictClassName) lazy(BraceTree,
            // BlockStmts)` (paper Figure 3).
            Shipped::Typedef => vec![(
                Statement,
                vec![
                    RhsItem::word("typedef"),
                    sub(vec![
                        kind(Identifier),
                        RhsItem::tok(TokenKind::Assign),
                        kind(TypeName),
                    ]),
                    body(),
                ],
            )],
            // `into(target, expr each Formal : source);`
            Shipped::Comprehension => vec![(
                Statement,
                vec![
                    RhsItem::word("into"),
                    sub(vec![
                        kind(Expression),
                        RhsItem::tok(TokenKind::Comma),
                        kind(Expression),
                        RhsItem::word("each"),
                        kind(Formal),
                        RhsItem::tok(TokenKind::Colon),
                        kind(Expression),
                    ]),
                    RhsItem::tok(TokenKind::Semi),
                ],
            )],
            // The §5.1 parameter specializer `C@D c`, then external method
            // declarations `R C.m(…) … { … }`.
            Shipped::MultiJava => vec![
                (
                    Formal,
                    vec![
                        kind(ModifierList),
                        kind(TypeName),
                        RhsItem::tok(TokenKind::At),
                        kind(TypeName),
                        kind(UnboundLocal),
                    ],
                ),
                (
                    Declaration,
                    vec![
                        kind(ModifierList),
                        kind(TypeName),
                        kind(QualifiedName),
                        RhsItem::tok(TokenKind::Dot),
                        kind(Identifier),
                        sub(vec![kind(FormalList)]),
                        kind(Throws),
                        body(),
                    ],
                ),
            ],
        }
    }
}
