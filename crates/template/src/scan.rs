//! Unquote scanning: template body tokens → pattern input with slot leaves.

use maya_ast::NodeKind;
use maya_lexer::{DelimTree, Span, Symbol, TokenKind, TokenTree};
use maya_parser::trace::PatTree;
use maya_parser::{Input, NtSel, ParseError};
use std::rc::Rc;

/// Where a slot's value comes from at instantiation.
#[derive(Clone, Debug)]
pub enum SlotSource {
    /// `$name`: a named value supplied by the Mayan.
    Named(Symbol),
    /// `$( tokens… )`: an expression evaluated in the Mayan's body (used by
    /// interpreted Mayans; native Mayans pass values directly).
    Expr(Vec<TokenTree>),
}

/// One unquote slot: its source and the grammar symbol it stands for.
#[derive(Clone, Debug)]
pub struct SlotInfo {
    pub source: SlotSource,
    pub kind: NodeKind,
    pub span: Span,
}

/// Resolves slot grammar symbols: "An unquote expression's grammar symbol
/// is determined by its static type or an explicit coercion operator"
/// (paper §4.2). `named` types `$name` slots; `expr` types `$(expr)` slots
/// without a coercion.
pub trait SlotKinds {
    /// The node kind of a named slot, or `None` if unknown.
    fn named(&mut self, name: Symbol) -> Option<NodeKind>;

    /// The node kind of an expression slot (from its static type).
    fn expr(&mut self, tokens: &[TokenTree]) -> Option<NodeKind>;
}

/// Scans a template body, replacing unquotes with nonterminal leaves.
/// Returns the pattern input plus the slot table (leaf `index` `i` refers to
/// `slots[i]`).
///
/// # Errors
///
/// Reports malformed unquotes and slots whose grammar symbol cannot be
/// determined.
pub fn scan_unquotes(
    body: &DelimTree,
    kinds: &mut dyn SlotKinds,
) -> Result<(Vec<Input<PatTree>>, Vec<SlotInfo>), ParseError> {
    let mut slots = Vec::new();
    let input = scan_seq(&body.trees, kinds, &mut slots)?;
    Ok((input, slots))
}

fn scan_seq(
    trees: &[TokenTree],
    kinds: &mut dyn SlotKinds,
    slots: &mut Vec<SlotInfo>,
) -> Result<Vec<Input<PatTree>>, ParseError> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < trees.len() {
        match &trees[i] {
            TokenTree::Token(t) if t.kind == TokenKind::Dollar => {
                let span = t.span;
                let (info, consumed) = match trees.get(i + 1) {
                    Some(TokenTree::Token(id)) if id.kind == TokenKind::Ident => {
                        let kind = kinds.named(id.text).ok_or_else(|| {
                            ParseError::new(
                                format!("cannot determine the grammar symbol of ${}", id.text),
                                id.span,
                            )
                        })?;
                        (
                            SlotInfo {
                                source: SlotSource::Named(id.text),
                                kind,
                                span: span.to(id.span),
                            },
                            2,
                        )
                    }
                    Some(TokenTree::Delim(d)) if d.delim == maya_lexer::Delim::Paren => {
                        (parse_expr_slot(d, kinds, span)?, 2)
                    }
                    _ => {
                        return Err(ParseError::new(
                            "`$` must be followed by an identifier or a parenthesized \
                             expression",
                            span,
                        ))
                    }
                };
                let index = slots.len();
                let kind = info.kind;
                let slot_span = info.span;
                slots.push(info);
                out.push(Input::Nt(
                    NtSel::Kind(kind),
                    PatTree::leaf(NtSel::Kind(kind), index, slot_span),
                    slot_span,
                ));
                i += consumed;
            }
            TokenTree::Token(t) => {
                out.push(Input::Tok(*t));
                i += 1;
            }
            TokenTree::Delim(d) => {
                let inner = scan_seq(&d.trees, kinds, slots)?;
                out.push(Input::Tree(d.clone(), Some(Rc::new(inner))));
                i += 1;
            }
        }
    }
    Ok(out)
}

/// Parses `$( … )`: either `(as Kind tokens…)` or `(tokens…)`.
fn parse_expr_slot(
    d: &DelimTree,
    kinds: &mut dyn SlotKinds,
    dollar_span: Span,
) -> Result<SlotInfo, ParseError> {
    let span = dollar_span.to(d.span());
    let mut toks = &d.trees[..];
    let mut explicit_kind = None;
    if let [TokenTree::Token(as_tok), TokenTree::Token(kind_tok), rest @ ..] = toks {
        if as_tok.is_ident("as") && kind_tok.kind == TokenKind::Ident {
            let kind = NodeKind::from_symbol(kind_tok.text).ok_or_else(|| {
                ParseError::new(
                    format!("unknown node kind {} in `as` coercion", kind_tok.text),
                    kind_tok.span,
                )
            })?;
            explicit_kind = Some(kind);
            toks = rest;
        }
    }
    if toks.is_empty() {
        return Err(ParseError::new("empty unquote expression", span));
    }
    let kind = match explicit_kind {
        Some(k) => k,
        None => kinds.expr(toks).ok_or_else(|| {
            ParseError::new(
                "cannot determine the grammar symbol of this unquote; use `$(as Kind …)`",
                span,
            )
        })?,
    };
    Ok(SlotInfo {
        source: SlotSource::Expr(toks.to_vec()),
        kind,
        span,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use maya_lexer::{sym, tree_lex_str, Delim};

    struct FixedKinds;

    impl SlotKinds for FixedKinds {
        fn named(&mut self, name: Symbol) -> Option<NodeKind> {
            match name.as_str() {
                "e" => Some(NodeKind::Expression),
                "body" => Some(NodeKind::Statement),
                _ => None,
            }
        }

        fn expr(&mut self, _tokens: &[TokenTree]) -> Option<NodeKind> {
            Some(NodeKind::Expression)
        }
    }

    fn body(src: &str) -> DelimTree {
        let trees = tree_lex_str(&format!("{{ {src} }}")).unwrap();
        trees[0].as_delim().unwrap().clone()
    }

    #[test]
    fn named_slots() {
        let (input, slots) = scan_unquotes(&body("x = $e ;"), &mut FixedKinds).unwrap();
        assert_eq!(slots.len(), 1);
        assert!(matches!(slots[0].source, SlotSource::Named(n) if n == sym("e")));
        assert_eq!(slots[0].kind, NodeKind::Expression);
        // x, =, <slot>, ;
        assert_eq!(input.len(), 4);
        assert!(matches!(input[2], Input::Nt(..)));
    }

    #[test]
    fn expr_and_coerced_slots() {
        let (_, slots) =
            scan_unquotes(&body("$(f(1)) ; $(as Statement mk()) ;"), &mut FixedKinds).unwrap();
        assert_eq!(slots.len(), 2);
        assert_eq!(slots[0].kind, NodeKind::Expression);
        assert_eq!(slots[1].kind, NodeKind::Statement);
        assert!(matches!(slots[1].source, SlotSource::Expr(ref t) if !t.is_empty()));
    }

    #[test]
    fn nested_trees_keep_pattern_contents() {
        let (input, slots) = scan_unquotes(&body("f ( $e ) ;"), &mut FixedKinds).unwrap();
        assert_eq!(slots.len(), 1);
        match &input[1] {
            Input::Tree(d, Some(inner)) => {
                assert_eq!(d.delim, Delim::Paren);
                assert!(matches!(inner[0], Input::Nt(..)));
            }
            other => panic!("expected pattern tree, got {other:?}"),
        }
    }

    #[test]
    fn errors() {
        assert!(scan_unquotes(&body("$unknown ;"), &mut FixedKinds).is_err());
        assert!(scan_unquotes(&body("$ ;"), &mut FixedKinds).is_err());
        assert!(scan_unquotes(&body("$() ;"), &mut FixedKinds).is_err());
        assert!(scan_unquotes(&body("$(as Bogus x) ;"), &mut FixedKinds).is_err());
    }
}
