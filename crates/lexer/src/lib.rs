//! Lexical analysis for Maya-rs: string interning, source locations, tokens,
//! and the *stream lexer* of the Maya paper (§4, Figure 4).
//!
//! The stream lexer does not produce a flat token stream. Following the paper,
//! it creates a subtree for each pair of matching delimiters — parentheses,
//! braces, and brackets. These subtrees (the paper calls them "lexers", since
//! they can provide input to the parser) are what enables *lazy parsing*: the
//! compiler can skip to the end of a method body or field initializer without
//! parsing its contents.
//!
//! # Example
//!
//! ```
//! use maya_lexer::{SourceMap, stream_lex, TokenTree, Delim};
//!
//! let mut sm = SourceMap::new();
//! let file = sm.add_file("demo.maya", "int f() { return 1 + 2; }");
//! let trees = stream_lex(&sm, file).unwrap();
//! // `int`, `f`, a ParenTree, and a BraceTree:
//! assert_eq!(trees.len(), 4);
//! assert!(matches!(trees[3], TokenTree::Delim(ref d) if d.delim == Delim::Brace));
//! ```

mod fnv;
mod intern;
mod loc;
mod scan;
mod token;
mod tree;

pub use fnv::Fnv2;
pub use intern::{sym, Symbol};
pub use loc::{FileId, LineCol, SourceFile, SourceMap, Span};
pub use scan::{scan_tokens, LexError};
pub use token::{keyword_kind, Token, TokenKind};
pub use tree::{
    build_send_trees, build_trees, stream_lex, stream_lex_send, tree_lex_str, Delim, DelimTree,
    SendTree, TokenTree, TreeSeq,
};
