//! Reading the metagrammar of `syntax(...)` declarations (paper §3.1):
//! node-type names, `lazy(Tree, NT)`, `list(NT, sep)`, escaped literal
//! tokens (`\.`), and delimiter subtrees.

use crate::CompileError;
use maya_ast::NodeKind;
use maya_grammar::{RhsItem, Terminal};
use maya_lexer::{Delim, Span, TokenKind, TokenTree};

fn delim_by_name(name: &str) -> Option<Delim> {
    match name {
        "ParenTree" => Some(Delim::Paren),
        "BraceTree" => Some(Delim::Brace),
        "BrackTree" => Some(Delim::Brack),
        _ => None,
    }
}

/// Parses a production right-hand side from the tokens of a `syntax(...)`
/// tree: `MethodName(Formal) lazy(BraceTree, BlockStmts)` becomes the
/// corresponding [`RhsItem`]s.
///
/// # Errors
///
/// Reports unknown node types and malformed parameterized symbols.
pub fn parse_rhs(trees: &[TokenTree]) -> Result<Vec<RhsItem>, CompileError> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < trees.len() {
        match &trees[i] {
            TokenTree::Token(t) if t.kind == TokenKind::Backslash => {
                // `\.` — an escaped literal token.
                let Some(TokenTree::Token(lit)) = trees.get(i + 1) else {
                    return Err(CompileError::new("expected a token after `\\`", t.span));
                };
                out.push(if lit.kind == TokenKind::Ident {
                    RhsItem::Term(Terminal::Word(lit.text))
                } else {
                    RhsItem::Term(Terminal::Tok(lit.kind))
                });
                i += 2;
            }
            TokenTree::Token(t) if t.kind == TokenKind::Ident => {
                let name = t.text.as_str();
                if name == "lazy" {
                    let Some(TokenTree::Delim(args)) = trees.get(i + 1) else {
                        return Err(CompileError::new("lazy(...) expects arguments", t.span));
                    };
                    let (d, nt) = lazy_args(&args.trees[..], t.span)?;
                    out.push(RhsItem::Lazy(d, nt));
                    i += 2;
                } else if name == "list" {
                    let Some(TokenTree::Delim(args)) = trees.get(i + 1) else {
                        return Err(CompileError::new("list(...) expects arguments", t.span));
                    };
                    out.push(list_args(&args.trees[..], t.span)?);
                    i += 2;
                } else if let Some(kind) = NodeKind::from_name(name) {
                    // A node-type symbol, optionally followed by a subtree:
                    // `MethodName(Formal)` means "then a ParenTree whose
                    // contents parse to Formal".
                    out.push(RhsItem::Kind(kind));
                    i += 1;
                } else {
                    // A bare identifier is a contextual keyword (`typedef`).
                    out.push(RhsItem::Term(Terminal::Word(t.text)));
                    i += 1;
                }
            }
            TokenTree::Token(t) => {
                out.push(RhsItem::Term(Terminal::Tok(t.kind)));
                i += 1;
            }
            TokenTree::Delim(d) => {
                // `(Formal)` / `(Identifier = StrictClassName)`: an eagerly
                // parsed subtree over the inner sequence.
                let inner = parse_rhs(&d.trees)?;
                if inner.is_empty() {
                    return Err(CompileError::new(
                        "a delimiter subtree pattern must contain at least one symbol",
                        d.span(),
                    ));
                }
                out.push(RhsItem::Subtree(d.delim, inner));
                i += 1;
            }
        }
    }
    Ok(out)
}

fn lazy_args(trees: &[TokenTree], span: Span) -> Result<(Delim, NodeKind), CompileError> {
    let parts = split_commas(trees);
    if parts.len() != 2 {
        return Err(CompileError::new("lazy(Tree, NodeType) expects two arguments", span));
    }
    let d = match parts[0] {
        [TokenTree::Token(t)] => delim_by_name(t.text.as_str())
            .ok_or_else(|| CompileError::new("expected ParenTree/BraceTree/BrackTree", t.span))?,
        _ => return Err(CompileError::new("malformed lazy(...) tree argument", span)),
    };
    let nt = match parts[1] {
        [TokenTree::Token(t)] => NodeKind::from_name(t.text.as_str())
            .ok_or_else(|| CompileError::new(format!("unknown node type {}", t.text), t.span))?,
        _ => return Err(CompileError::new("malformed lazy(...) goal argument", span)),
    };
    Ok((d, nt))
}

fn list_args(trees: &[TokenTree], span: Span) -> Result<RhsItem, CompileError> {
    let parts = split_commas(trees);
    if parts.is_empty() || parts.len() > 2 {
        return Err(CompileError::new("list(NodeType[, sep]) expects 1–2 arguments", span));
    }
    let inner = parse_rhs(parts[0])?;
    if inner.len() != 1 {
        return Err(CompileError::new("list item must be a single symbol", span));
    }
    let sep = if parts.len() == 2 {
        match parts[1] {
            [TokenTree::Token(t)] => Some(Terminal::Tok(t.kind)),
            [TokenTree::Token(b), TokenTree::Token(t)] if b.kind == TokenKind::Backslash => {
                Some(Terminal::Tok(t.kind))
            }
            _ => return Err(CompileError::new("malformed list separator", span)),
        }
    } else {
        None
    };
    Ok(RhsItem::List(
        Box::new(inner.into_iter().next().expect("checked length")),
        sep,
    ))
}

/// Splits token trees on top-level commas (a comma escaped with `\` — a
/// literal separator token — does not split).
pub fn split_commas(trees: &[TokenTree]) -> Vec<&[TokenTree]> {
    let mut out = Vec::new();
    let mut start = 0;
    let mut i = 0;
    while i < trees.len() {
        match &trees[i] {
            TokenTree::Token(tok) if tok.kind == TokenKind::Backslash => {
                i += 2;
                continue;
            }
            TokenTree::Token(tok) if tok.kind == TokenKind::Comma => {
                out.push(&trees[start..i]);
                start = i + 1;
            }
            _ => {}
        }
        i += 1;
    }
    if start < trees.len() || !out.is_empty() {
        out.push(&trees[start..]);
    } else if !trees.is_empty() {
        out.push(trees);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use maya_lexer::tree_lex_str;

    fn rhs(src: &str) -> Result<Vec<RhsItem>, CompileError> {
        let trees = tree_lex_str(src).unwrap();
        parse_rhs(&trees)
    }

    #[test]
    fn paper_foreach_production() {
        // The §3.1 production: MethodName(Formal) lazy(BraceTree, BlockStmts)
        let items = rhs("MethodName(Formal) lazy(BraceTree, BlockStmts)").unwrap();
        assert_eq!(items.len(), 3);
        assert!(matches!(items[0], RhsItem::Kind(NodeKind::MethodName)));
        assert!(
            matches!(&items[1], RhsItem::Subtree(Delim::Paren, inner)
                if matches!(inner.as_slice(), [RhsItem::Kind(NodeKind::Formal)]))
        );
        assert!(matches!(
            items[2],
            RhsItem::Lazy(Delim::Brace, NodeKind::BlockStmts)
        ));
    }

    #[test]
    fn escaped_tokens_and_words() {
        // Figure 3's production: typedef(Identifier = StrictClassName) …
        let items = rhs("typedef(Identifier = StrictClassName)").unwrap();
        assert!(matches!(items[0], RhsItem::Term(Terminal::Word(w)) if w.as_str() == "typedef"));
        let items = rhs("Expression \\. foreach").unwrap();
        assert!(matches!(items[1], RhsItem::Term(Terminal::Tok(TokenKind::Dot))));
        assert!(matches!(items[2], RhsItem::Term(Terminal::Word(w)) if w.as_str() == "foreach"));
    }

    #[test]
    fn lists() {
        let items = rhs("list(Modifier) list(Expression, \\,)").unwrap();
        assert!(matches!(&items[0], RhsItem::List(_, None)));
        assert!(matches!(
            &items[1],
            RhsItem::List(_, Some(Terminal::Tok(TokenKind::Comma)))
        ));
    }

    #[test]
    fn errors() {
        assert!(rhs("lazy(BraceTree)").is_err());
        assert!(rhs("lazy(Nope, BlockStmts)").is_err());
        assert!(rhs("\\").is_err());
    }
}

use maya_parser::trace::PatTree;
use maya_parser::{Input, NtSel};

/// Parses a Mayan's formal parameter list (paper §3.2) into pattern input
/// plus the leaf parameter specs.
///
/// Grammar of one item:
///
/// * `NodeKind[:Type] [name]` — a node-type parameter, optionally
///   specialized on a static expression type, optionally binding `name`;
/// * `lazy(Tree, Kind) name` / `list(Kind[, sep]) name` — parameterized
///   symbols (the production must have declared them);
/// * `\tok` — an escaped literal token; a bare non-kind identifier is a
///   token-value specializer (`foreach`);
/// * `( … )` — a delimiter subtree containing a nested parameter pattern.
///
/// # Errors
///
/// Unknown node kinds, unresolvable specializer types, and malformed
/// parameterized symbols.
pub fn parse_mayan_params(
    grammar: &maya_grammar::Grammar,
    classes: &maya_types::ClassTable,
    ctx: &maya_types::ResolveCtx,
    trees: &[TokenTree],
) -> Result<(Vec<Input<PatTree>>, Vec<maya_dispatch::ParamSpec>), CompileError> {
    let mut specs: Vec<maya_dispatch::ParamSpec> = Vec::new();
    let input = params_rec(grammar, classes, ctx, trees, &mut specs)?;
    Ok((input, specs))
}

fn take_name(trees: &[TokenTree], i: usize) -> (Option<maya_lexer::Token>, usize) {
    match trees.get(i) {
        Some(TokenTree::Token(t))
            if t.kind == TokenKind::Ident
                && NodeKind::from_name(t.text.as_str()).is_none()
                && t.text.as_str() != "lazy"
                && t.text.as_str() != "list" =>
        {
            (Some(*t), i + 1)
        }
        _ => (None, i),
    }
}

fn params_rec(
    grammar: &maya_grammar::Grammar,
    classes: &maya_types::ClassTable,
    ctx: &maya_types::ResolveCtx,
    trees: &[TokenTree],
    specs: &mut Vec<maya_dispatch::ParamSpec>,
) -> Result<Vec<Input<PatTree>>, CompileError> {
    use maya_dispatch::{ParamSpec, Specializer};
    let mut out = Vec::new();
    let mut i = 0;
    while i < trees.len() {
        match &trees[i] {
            TokenTree::Token(t) if t.kind == TokenKind::Backslash => {
                let Some(TokenTree::Token(lit)) = trees.get(i + 1) else {
                    return Err(CompileError::new("expected a token after `\\`", t.span));
                };
                out.push(Input::Tok(*lit));
                i += 2;
            }
            TokenTree::Token(t)
                if t.kind == TokenKind::Ident && t.text.as_str() == "lazy" =>
            {
                let Some(TokenTree::Delim(args)) = trees.get(i + 1) else {
                    return Err(CompileError::new("lazy(...) expects arguments", t.span));
                };
                let (d, kind) = lazy_args(&args.trees[..], t.span)?;
                let helper = grammar.lazy_helper(d, kind).ok_or_else(|| {
                    CompileError::new(
                        "lazy(...) parameter does not match any production symbol",
                        t.span,
                    )
                })?;
                let (name, next) = take_name(trees, i + 2);
                let index = specs.len();
                specs.push(ParamSpec {
                    kind,
                    spec: Specializer::None,
                    name: name.map(|n| n.text),
                });
                out.push(Input::Nt(
                    NtSel::Id(helper),
                    PatTree::leaf(NtSel::Id(helper), index, t.span),
                    t.span,
                ));
                i = next;
            }
            TokenTree::Token(t)
                if t.kind == TokenKind::Ident && t.text.as_str() == "list" =>
            {
                let Some(TokenTree::Delim(args)) = trees.get(i + 1) else {
                    return Err(CompileError::new("list(...) expects arguments", t.span));
                };
                let item = list_args(&args.trees[..], t.span)?;
                let (inner, sep) = match item {
                    RhsItem::List(inner, sep) => (inner, sep),
                    _ => unreachable!("list_args returns List"),
                };
                let RhsItem::Kind(inner_kind) = *inner else {
                    return Err(CompileError::new(
                        "named list parameters must range over a node kind",
                        t.span,
                    ));
                };
                let helper = grammar.list_helper(inner_kind, sep).ok_or_else(|| {
                    CompileError::new(
                        "list(...) parameter does not match any production symbol",
                        t.span,
                    )
                })?;
                let (name, next) = take_name(trees, i + 2);
                let index = specs.len();
                specs.push(ParamSpec {
                    kind: NodeKind::ListNode,
                    spec: Specializer::None,
                    name: name.map(|n| n.text),
                });
                out.push(Input::Nt(
                    NtSel::Id(helper),
                    PatTree::leaf(NtSel::Id(helper), index, t.span),
                    t.span,
                ));
                i = next;
            }
            TokenTree::Token(t) if t.kind == TokenKind::Ident => {
                if let Some(kind) = NodeKind::from_name(t.text.as_str()) {
                    // Optional static-type specializer `:a.b.C`.
                    let mut spec = Specializer::None;
                    let mut j = i + 1;
                    if matches!(trees.get(j), Some(TokenTree::Token(c)) if c.kind == TokenKind::Colon)
                    {
                        j += 1;
                        let mut parts: Vec<maya_ast::Ident> = Vec::new();
                        loop {
                            match trees.get(j) {
                                Some(TokenTree::Token(p)) if p.kind == TokenKind::Ident => {
                                    parts.push(maya_ast::Ident::new(p.text, p.span));
                                    j += 1;
                                }
                                _ => break,
                            }
                            match trees.get(j) {
                                Some(TokenTree::Token(d)) if d.kind == TokenKind::Dot => j += 1,
                                _ => break,
                            }
                        }
                        if parts.is_empty() {
                            return Err(CompileError::new(
                                "expected a type after `:`",
                                t.span,
                            ));
                        }
                        let tn = maya_ast::TypeName::new(
                            t.span,
                            maya_ast::TypeNameKind::Named(parts),
                        );
                        let ty = classes.resolve_type_name(&tn, ctx)?;
                        spec = Specializer::StaticType(ty);
                    }
                    let (name, next) = take_name(trees, j);
                    let index = specs.len();
                    // `Node::Ident` carries kind Identifier even for
                    // UnboundLocal symbols.
                    let match_kind = if kind == NodeKind::UnboundLocal {
                        NodeKind::Identifier
                    } else {
                        kind
                    };
                    specs.push(ParamSpec {
                        kind: match_kind,
                        spec,
                        name: name.map(|n| n.text),
                    });
                    out.push(Input::Nt(
                        NtSel::Kind(kind),
                        PatTree::leaf(NtSel::Kind(kind), index, t.span),
                        t.span,
                    ));
                    i = next;
                } else {
                    // A bare identifier: token-value literal (`foreach`).
                    out.push(Input::Tok(*t));
                    i += 1;
                }
            }
            TokenTree::Token(t) => {
                out.push(Input::Tok(*t));
                i += 1;
            }
            TokenTree::Delim(d) => {
                let inner = params_rec(grammar, classes, ctx, &d.trees, specs)?;
                out.push(Input::Tree(d.clone(), Some(std::rc::Rc::new(inner))));
                i += 1;
            }
        }
    }
    Ok(out)
}
