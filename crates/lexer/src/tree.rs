//! The stream lexer: flat tokens → *token trees*.
//!
//! Following the paper (§4), a subtree is created for each pair of matching
//! delimiters. The resulting [`DelimTree`]s are the units of lazy parsing: a
//! `BraceTree` can be stored unparsed and forced later under whatever grammar
//! and scope are current at that point.

use crate::{scan_tokens, Fnv2, LexError, SourceMap, Span, Token, TokenKind};
use std::cell::OnceCell;
use std::fmt;
use std::ops::Deref;
use std::rc::Rc;

/// The three delimiter shapes that form subtrees.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum Delim {
    Paren,
    Brace,
    Brack,
}

impl Delim {
    /// The opening token kind.
    pub fn open_kind(self) -> TokenKind {
        match self {
            Delim::Paren => TokenKind::LParen,
            Delim::Brace => TokenKind::LBrace,
            Delim::Brack => TokenKind::LBrack,
        }
    }

    /// The closing token kind.
    pub fn close_kind(self) -> TokenKind {
        match self {
            Delim::Paren => TokenKind::RParen,
            Delim::Brace => TokenKind::RBrace,
            Delim::Brack => TokenKind::RBrack,
        }
    }

    /// Grammar-facing name, as used in the paper (`ParenTree` etc.).
    pub fn tree_name(self) -> &'static str {
        match self {
            Delim::Paren => "ParenTree",
            Delim::Brace => "BraceTree",
            Delim::Brack => "BrackTree",
        }
    }
}

/// A sequence of token trees — the contents of a delimiter subtree, or a
/// whole file — together with a memo of its content fingerprint.
///
/// The fingerprint covers every token's kind, text and span and, for each
/// nested subtree, its delimiter, spans and (memoised) contents, so two
/// sequences with equal fingerprints are interchangeable everywhere
/// downstream, diagnostics included. It is computed at most once per
/// sequence: subtree contents are shared (`Rc`) by every copy of their
/// [`DelimTree`], by the lazy nodes that defer them and by cached parses,
/// so a fingerprint taken once serves every later lookup in O(1).
pub struct TreeSeq {
    trees: Vec<TokenTree>,
    fingerprint: OnceCell<u128>,
}

impl TreeSeq {
    /// Wraps a tree sequence (its fingerprint is not taken yet).
    pub fn new(trees: Vec<TokenTree>) -> TreeSeq {
        TreeSeq {
            trees,
            fingerprint: OnceCell::new(),
        }
    }

    /// Converts worker-built trees (see [`SendTree`]).
    pub fn from_send(trees: &[SendTree]) -> TreeSeq {
        TreeSeq::new(trees.iter().map(SendTree::to_tree).collect())
    }

    /// The content fingerprint, computed on first use.
    pub fn fingerprint(&self) -> u128 {
        *self.fingerprint.get_or_init(|| {
            let mut h = Fnv2::new();
            h.u32(self.trees.len() as u32);
            for t in &self.trees {
                match t {
                    TokenTree::Token(Token { kind, text, span }) => {
                        h.byte(2);
                        h.str(kind.name());
                        h.str(text.as_str());
                        h.span(*span);
                    }
                    TokenTree::Delim(d) => {
                        h.byte(3);
                        h.bytes(&d.fingerprint().to_le_bytes());
                    }
                }
            }
            h.finish()
        })
    }
}

impl Deref for TreeSeq {
    type Target = [TokenTree];

    fn deref(&self) -> &[TokenTree] {
        &self.trees
    }
}

impl PartialEq for TreeSeq {
    fn eq(&self, other: &TreeSeq) -> bool {
        self.trees == other.trees
    }
}

impl Eq for TreeSeq {}

impl fmt::Debug for TreeSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.trees.fmt(f)
    }
}

/// A matched-delimiter subtree: the paper's `ParenTree` / `BraceTree` /
/// `BrackTree`. The contents are shared (`Rc`) so that lazy thunks can hold
/// them cheaply.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DelimTree {
    pub delim: Delim,
    pub trees: Rc<TreeSeq>,
    pub open: Span,
    pub close: Span,
}

impl DelimTree {
    /// Builds a tree from parts.
    pub fn new(delim: Delim, trees: Vec<TokenTree>, open: Span, close: Span) -> DelimTree {
        DelimTree {
            delim,
            trees: Rc::new(TreeSeq::new(trees)),
            open,
            close,
        }
    }

    /// The content fingerprint of the whole subtree (delimiter, spans and
    /// contents): O(1) once the contents' fingerprint is memoised. This is
    /// the force-cache and class-body-cache key.
    pub fn fingerprint(&self) -> u128 {
        let mut h = Fnv2::new();
        h.str(self.delim.open_kind().name());
        h.span(self.open);
        h.span(self.close);
        h.bytes(&self.trees.fingerprint().to_le_bytes());
        h.finish()
    }

    /// Builds a synthesized tree (dummy spans).
    pub fn synth(delim: Delim, trees: Vec<TokenTree>) -> DelimTree {
        DelimTree::new(delim, trees, Span::DUMMY, Span::DUMMY)
    }

    /// The span from the opening to the closing delimiter.
    pub fn span(&self) -> Span {
        self.open.to(self.close)
    }

    /// True when the tree has no contents (e.g. the `[]` of an array type).
    pub fn is_empty(&self) -> bool {
        self.trees.is_empty()
    }
}

/// One element of the stream lexer's output: a token or a delimiter subtree.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TokenTree {
    Token(Token),
    Delim(DelimTree),
}

impl TokenTree {
    /// The source span of this tree.
    pub fn span(&self) -> Span {
        match self {
            TokenTree::Token(t) => t.span,
            TokenTree::Delim(d) => d.span(),
        }
    }

    /// The token, if this is a leaf.
    pub fn as_token(&self) -> Option<&Token> {
        match self {
            TokenTree::Token(t) => Some(t),
            TokenTree::Delim(_) => None,
        }
    }

    /// The subtree, if this is a delimiter tree.
    pub fn as_delim(&self) -> Option<&DelimTree> {
        match self {
            TokenTree::Token(_) => None,
            TokenTree::Delim(d) => Some(d),
        }
    }

    /// Flattens the tree back into tokens, re-inserting delimiters.
    pub fn flatten_into(&self, out: &mut Vec<Token>) {
        match self {
            TokenTree::Token(t) => out.push(*t),
            TokenTree::Delim(d) => {
                out.push(Token::new(
                    d.delim.open_kind(),
                    crate::sym(TokenKind::name(d.delim.open_kind())),
                    d.open,
                ));
                for t in d.trees.iter() {
                    t.flatten_into(out);
                }
                out.push(Token::new(
                    d.delim.close_kind(),
                    crate::sym(TokenKind::name(d.delim.close_kind())),
                    d.close,
                ));
            }
        }
    }
}

impl fmt::Display for DelimTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", TokenKind::name(self.delim.open_kind()))?;
        for (i, t) in self.trees.iter().enumerate() {
            if i > 0 {
                f.write_str(" ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, "{}", TokenKind::name(self.delim.close_kind()))
    }
}

impl fmt::Display for TokenTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenTree::Token(t) => f.write_str(t.text.as_str()),
            TokenTree::Delim(d) => write!(f, "{d}"),
        }
    }
}

fn delim_of_open(kind: TokenKind) -> Option<Delim> {
    match kind {
        TokenKind::LParen => Some(Delim::Paren),
        TokenKind::LBrace => Some(Delim::Brace),
        TokenKind::LBrack => Some(Delim::Brack),
        _ => None,
    }
}

fn delim_of_close(kind: TokenKind) -> Option<Delim> {
    match kind {
        TokenKind::RParen => Some(Delim::Paren),
        TokenKind::RBrace => Some(Delim::Brace),
        TokenKind::RBrack => Some(Delim::Brack),
        _ => None,
    }
}

/// A `Send`-safe token tree, as produced by parallel front-end workers.
///
/// [`TokenTree`] shares subtree contents via `Rc` and cannot cross threads;
/// workers build `SendTree`s instead, and the consuming thread converts
/// them with [`SendTree::to_tree`] (one pass, preserving structure and
/// spans exactly).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SendTree {
    Token(Token),
    Delim {
        delim: Delim,
        trees: Vec<SendTree>,
        open: Span,
        close: Span,
    },
}

impl SendTree {
    /// Converts into the `Rc`-shared form used by the rest of the pipeline.
    pub fn to_tree(&self) -> TokenTree {
        match self {
            SendTree::Token(t) => TokenTree::Token(*t),
            SendTree::Delim {
                delim,
                trees,
                open,
                close,
            } => TokenTree::Delim(DelimTree::new(
                *delim,
                trees.iter().map(SendTree::to_tree).collect(),
                *open,
                *close,
            )),
        }
    }
}

/// Builds `Send`-safe token trees from a flat token slice. This is the one
/// delimiter-folding algorithm; [`build_trees`] is a conversion over it.
///
/// # Errors
///
/// Reports mismatched, unexpected, or unclosed delimiters.
pub fn build_send_trees(tokens: &[Token]) -> Result<Vec<SendTree>, LexError> {
    let _p = maya_telemetry::phase(maya_telemetry::Phase::Lex);
    let mut subtrees: u64 = 0;
    // Each stack frame is an open delimiter plus the trees accumulated inside.
    let mut stack: Vec<(Delim, Span, Vec<SendTree>)> = Vec::new();
    let mut top: Vec<SendTree> = Vec::new();
    for tok in tokens {
        if let Some(d) = delim_of_open(tok.kind) {
            stack.push((d, tok.span, std::mem::take(&mut top)));
        } else if let Some(d) = delim_of_close(tok.kind) {
            match stack.pop() {
                Some((open_d, open_span, outer)) if open_d == d => {
                    let inner = std::mem::replace(&mut top, outer);
                    subtrees += 1;
                    top.push(SendTree::Delim {
                        delim: d,
                        trees: inner,
                        open: open_span,
                        close: tok.span,
                    });
                }
                Some((open_d, open_span, _)) => {
                    return Err(LexError::new(
                        format!(
                            "mismatched delimiter: `{}` opened but `{}` found",
                            TokenKind::name(open_d.open_kind()),
                            tok.text
                        ),
                        open_span.to(tok.span),
                    ));
                }
                None => {
                    return Err(LexError::new(
                        format!("unexpected closing `{}`", tok.text),
                        tok.span,
                    ));
                }
            }
        } else {
            top.push(SendTree::Token(*tok));
        }
    }
    if let Some((d, span, _)) = stack.pop() {
        return Err(LexError::new(
            format!("unclosed `{}`", TokenKind::name(d.open_kind())),
            span,
        ));
    }
    maya_telemetry::add(maya_telemetry::Counter::TokenTreesBuilt, subtrees);
    Ok(top)
}

/// Builds token trees from a flat token slice.
///
/// # Errors
///
/// Reports mismatched, unexpected, or unclosed delimiters.
pub fn build_trees(tokens: &[Token]) -> Result<Vec<TokenTree>, LexError> {
    Ok(build_send_trees(tokens)?
        .iter()
        .map(SendTree::to_tree)
        .collect())
}

/// Runs the stream lexer on a registered file: scan, then fold delimiters.
///
/// # Errors
///
/// Propagates scan errors and delimiter-matching errors.
pub fn stream_lex(sm: &SourceMap, file: crate::FileId) -> Result<Vec<TokenTree>, LexError> {
    let tokens = scan_tokens(sm, file)?;
    build_trees(&tokens)
}

/// Runs the stream lexer to the `Send`-safe form (for worker threads).
///
/// # Errors
///
/// Propagates scan errors and delimiter-matching errors.
pub fn stream_lex_send(sm: &SourceMap, file: crate::FileId) -> Result<Vec<SendTree>, LexError> {
    let tokens = scan_tokens(sm, file)?;
    build_send_trees(&tokens)
}

/// Convenience for tests and tools: stream-lex a string using a throwaway
/// [`SourceMap`]. Spans refer to the throwaway map and should only be used
/// positionally.
pub fn tree_lex_str(src: &str) -> Result<Vec<TokenTree>, LexError> {
    let mut sm = SourceMap::new();
    let f = sm.add_file("<string>", src);
    stream_lex(&sm, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folds_nested_delimiters() {
        let trees = tree_lex_str("f(a, g(b)) { x[1]; }").unwrap();
        assert_eq!(trees.len(), 3); // f, (...), {...}
        let paren = trees[1].as_delim().unwrap();
        assert_eq!(paren.delim, Delim::Paren);
        assert_eq!(paren.trees.len(), 4); // a , g (...)
        let brace = trees[2].as_delim().unwrap();
        assert_eq!(brace.delim, Delim::Brace);
        assert_eq!(brace.trees.len(), 3); // x [...] ;
    }

    #[test]
    fn empty_trees() {
        let trees = tree_lex_str("int[] a () {}").unwrap();
        assert!(trees[1].as_delim().unwrap().is_empty());
        assert!(trees[3].as_delim().unwrap().is_empty());
        assert!(trees[4].as_delim().unwrap().is_empty());
    }

    #[test]
    fn mismatch_errors() {
        assert!(tree_lex_str("( ]").is_err());
        assert!(tree_lex_str(")").is_err());
        assert!(tree_lex_str("{ ( }").is_err());
        assert!(tree_lex_str("{").is_err());
    }

    #[test]
    fn flatten_roundtrip() {
        let src = "for ( int i = 0 ; i < n ; i ++ ) { a [ i ] = i * 2 ; }";
        let trees = tree_lex_str(src).unwrap();
        let mut toks = Vec::new();
        for t in &trees {
            t.flatten_into(&mut toks);
        }
        let rendered: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(rendered.join(" "), src);
    }

    #[test]
    fn display_roundtrips_structure() {
        let trees = tree_lex_str("f ( a , b )").unwrap();
        let s: Vec<String> = trees.iter().map(|t| t.to_string()).collect();
        assert_eq!(s.join(" "), "f (a , b)");
    }

    #[test]
    fn send_trees_are_send_and_convert_identically() {
        fn assert_send<T: Send>() {}
        assert_send::<SendTree>();
        let mut sm = SourceMap::new();
        let f = sm.add_file("<s>", "f(a, g(b)) { x[1]; }");
        let direct = stream_lex(&sm, f).unwrap();
        let via_send: Vec<TokenTree> = stream_lex_send(&sm, f)
            .unwrap()
            .iter()
            .map(SendTree::to_tree)
            .collect();
        assert_eq!(direct, via_send);
    }

    #[test]
    fn fingerprints_cover_content_and_spans_only() {
        let lex = |src: &str| TreeSeq::new(tree_lex_str(src).unwrap());
        let a = lex("f(a, g(b)) { x[1]; }");
        // Pinned: a fingerprint is a pure function of kinds, texts and
        // spans (no pointers, no interner indices), so it is the same in
        // every process and may key persistent artifacts.
        assert_eq!(a.fingerprint(), 0xdae9_f26c_6db1_8f57_10f3_f630_f8a4_c87f);
        assert_eq!(a.fingerprint(), lex("f(a, g(b)) { x[1]; }").fingerprint());
        // The same tokens one column later: every span moves.
        assert_ne!(a.fingerprint(), lex(" f(a, g(b)) { x[1]; }").fingerprint());
        assert_ne!(a.fingerprint(), lex("f(a, g(c)) { x[1]; }").fingerprint());
        let body = |s: &TreeSeq| s[2].as_delim().unwrap().fingerprint();
        assert_eq!(body(&a), body(&lex("f(a, g(b)) { x[1]; }")));
        assert_ne!(body(&a), body(&lex("f(a, g(b)) { x[2]; }")));
    }

    #[test]
    fn finds_end_of_body_without_parsing() {
        // The stream lexer's purpose: the class body below is one subtree even
        // though its contents would not parse as anything meaningful yet.
        let trees = tree_lex_str("class C { !!! ??? [ not java ] }").unwrap();
        assert_eq!(trees.len(), 3);
        assert_eq!(trees[2].as_delim().unwrap().delim, Delim::Brace);
    }
}
