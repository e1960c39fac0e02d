//! Tokens of the MayaJava language.
//!
//! `TokenKind` doubles as the *terminal alphabet* of the extensible grammar
//! (crate `maya-grammar`): every keyword and punctuator is its own kind, and
//! identifiers and literals are single kinds whose concrete text is carried in
//! [`Token::text`]. Mayans can dispatch on that text — this is how `foreach`
//! works without being a reserved word (paper §3.2).

use crate::{Span, Symbol};
use std::fmt;

/// The kind of a token. This is the terminal alphabet of the base grammar.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
#[non_exhaustive]
pub enum TokenKind {
    // Identifiers and literals ------------------------------------------------
    Ident,
    IntLit,
    LongLit,
    FloatLit,
    DoubleLit,
    CharLit,
    StringLit,

    // Keywords ---------------------------------------------------------------
    KwAbstract,
    KwBoolean,
    KwBreak,
    KwByte,
    KwCase,
    KwCatch,
    KwChar,
    KwClass,
    KwConst,
    KwContinue,
    KwDefault,
    KwDo,
    KwDouble,
    KwElse,
    KwExtends,
    KwFalse,
    KwFinal,
    KwFinally,
    KwFloat,
    KwFor,
    KwGoto,
    KwIf,
    KwImplements,
    KwImport,
    KwInstanceof,
    KwInt,
    KwInterface,
    KwLong,
    KwNative,
    KwNew,
    KwNull,
    KwPackage,
    KwPrivate,
    KwProtected,
    KwPublic,
    KwReturn,
    KwShort,
    KwStatic,
    KwSuper,
    KwSwitch,
    KwSynchronized,
    KwSyntax,
    KwThis,
    KwThrow,
    KwThrows,
    KwTransient,
    KwTrue,
    KwTry,
    KwUse,
    KwVoid,
    KwVolatile,
    KwWhile,

    // Punctuation ------------------------------------------------------------
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBrack,
    RBrack,
    Semi,
    Comma,
    Dot,
    Assign,     // =
    Lt,         // <
    Gt,         // >
    Bang,       // !
    Tilde,      // ~
    Question,   // ?
    Colon,      // :
    EqEq,       // ==
    Le,         // <=
    Ge,         // >=
    Ne,         // !=
    AndAnd,     // &&
    OrOr,       // ||
    PlusPlus,   // ++
    MinusMinus, // --
    Plus,
    Minus,
    Star,
    Slash,
    Amp,     // &
    Pipe,    // |
    Caret,   // ^
    Percent, // %
    Shl,     // <<
    Shr,     // >>
    Ushr,    // >>>
    PlusEq,
    MinusEq,
    StarEq,
    SlashEq,
    AmpEq,
    PipeEq,
    CaretEq,
    PercentEq,
    ShlEq,
    ShrEq,
    UshrEq,
    At,        // @   (MultiJava parameter specializers)
    Dollar,    // $   (template unquote)
    Backslash, // \   (escaped literal tokens in syntax patterns)

    /// End of a token stream / token tree.
    Eof,
}

impl TokenKind {
    /// True for keyword kinds.
    pub fn is_keyword(self) -> bool {
        use TokenKind::*;
        matches!(
            self,
            KwAbstract
                | KwBoolean
                | KwBreak
                | KwByte
                | KwCase
                | KwCatch
                | KwChar
                | KwClass
                | KwConst
                | KwContinue
                | KwDefault
                | KwDo
                | KwDouble
                | KwElse
                | KwExtends
                | KwFalse
                | KwFinal
                | KwFinally
                | KwFloat
                | KwFor
                | KwGoto
                | KwIf
                | KwImplements
                | KwImport
                | KwInstanceof
                | KwInt
                | KwInterface
                | KwLong
                | KwNative
                | KwNew
                | KwNull
                | KwPackage
                | KwPrivate
                | KwProtected
                | KwPublic
                | KwReturn
                | KwShort
                | KwStatic
                | KwSuper
                | KwSwitch
                | KwSynchronized
                | KwSyntax
                | KwThis
                | KwThrow
                | KwThrows
                | KwTransient
                | KwTrue
                | KwTry
                | KwUse
                | KwVoid
                | KwVolatile
                | KwWhile
        )
    }

    /// True for literal kinds (numbers, chars, strings — not `true`/`false`/`null`).
    pub fn is_literal(self) -> bool {
        use TokenKind::*;
        matches!(
            self,
            IntLit | LongLit | FloatLit | DoubleLit | CharLit | StringLit
        )
    }

    /// A short human-readable name used in diagnostics and grammar dumps.
    pub fn name(self) -> &'static str {
        use TokenKind::*;
        match self {
            Ident => "identifier",
            IntLit => "int-literal",
            LongLit => "long-literal",
            FloatLit => "float-literal",
            DoubleLit => "double-literal",
            CharLit => "char-literal",
            StringLit => "string-literal",
            KwAbstract => "abstract",
            KwBoolean => "boolean",
            KwBreak => "break",
            KwByte => "byte",
            KwCase => "case",
            KwCatch => "catch",
            KwChar => "char",
            KwClass => "class",
            KwConst => "const",
            KwContinue => "continue",
            KwDefault => "default",
            KwDo => "do",
            KwDouble => "double",
            KwElse => "else",
            KwExtends => "extends",
            KwFalse => "false",
            KwFinal => "final",
            KwFinally => "finally",
            KwFloat => "float",
            KwFor => "for",
            KwGoto => "goto",
            KwIf => "if",
            KwImplements => "implements",
            KwImport => "import",
            KwInstanceof => "instanceof",
            KwInt => "int",
            KwInterface => "interface",
            KwLong => "long",
            KwNative => "native",
            KwNew => "new",
            KwNull => "null",
            KwPackage => "package",
            KwPrivate => "private",
            KwProtected => "protected",
            KwPublic => "public",
            KwReturn => "return",
            KwShort => "short",
            KwStatic => "static",
            KwSuper => "super",
            KwSwitch => "switch",
            KwSynchronized => "synchronized",
            KwSyntax => "syntax",
            KwThis => "this",
            KwThrow => "throw",
            KwThrows => "throws",
            KwTransient => "transient",
            KwTrue => "true",
            KwTry => "try",
            KwUse => "use",
            KwVoid => "void",
            KwVolatile => "volatile",
            KwWhile => "while",
            LParen => "(",
            RParen => ")",
            LBrace => "{",
            RBrace => "}",
            LBrack => "[",
            RBrack => "]",
            Semi => ";",
            Comma => ",",
            Dot => ".",
            Assign => "=",
            Lt => "<",
            Gt => ">",
            Bang => "!",
            Tilde => "~",
            Question => "?",
            Colon => ":",
            EqEq => "==",
            Le => "<=",
            Ge => ">=",
            Ne => "!=",
            AndAnd => "&&",
            OrOr => "||",
            PlusPlus => "++",
            MinusMinus => "--",
            Plus => "+",
            Minus => "-",
            Star => "*",
            Slash => "/",
            Amp => "&",
            Pipe => "|",
            Caret => "^",
            Percent => "%",
            Shl => "<<",
            Shr => ">>",
            Ushr => ">>>",
            PlusEq => "+=",
            MinusEq => "-=",
            StarEq => "*=",
            SlashEq => "/=",
            AmpEq => "&=",
            PipeEq => "|=",
            CaretEq => "^=",
            PercentEq => "%=",
            ShlEq => "<<=",
            ShrEq => ">>=",
            UshrEq => ">>>=",
            At => "@",
            Dollar => "$",
            Backslash => "\\",
            Eof => "<eof>",
        }
    }
}

/// Maps an identifier's text to its keyword kind, if it is a keyword.
///
/// ```
/// use maya_lexer::{keyword_kind, TokenKind};
/// assert_eq!(keyword_kind("class"), Some(TokenKind::KwClass));
/// assert_eq!(keyword_kind("foreach"), None); // not reserved!
/// ```
pub fn keyword_kind(text: &str) -> Option<TokenKind> {
    use TokenKind::*;
    Some(match text {
        "abstract" => KwAbstract,
        "boolean" => KwBoolean,
        "break" => KwBreak,
        "byte" => KwByte,
        "case" => KwCase,
        "catch" => KwCatch,
        "char" => KwChar,
        "class" => KwClass,
        "const" => KwConst,
        "continue" => KwContinue,
        "default" => KwDefault,
        "do" => KwDo,
        "double" => KwDouble,
        "else" => KwElse,
        "extends" => KwExtends,
        "false" => KwFalse,
        "final" => KwFinal,
        "finally" => KwFinally,
        "float" => KwFloat,
        "for" => KwFor,
        "goto" => KwGoto,
        "if" => KwIf,
        "implements" => KwImplements,
        "import" => KwImport,
        "instanceof" => KwInstanceof,
        "int" => KwInt,
        "interface" => KwInterface,
        "long" => KwLong,
        "native" => KwNative,
        "new" => KwNew,
        "null" => KwNull,
        "package" => KwPackage,
        "private" => KwPrivate,
        "protected" => KwProtected,
        "public" => KwPublic,
        "return" => KwReturn,
        "short" => KwShort,
        "static" => KwStatic,
        "super" => KwSuper,
        "switch" => KwSwitch,
        "synchronized" => KwSynchronized,
        "syntax" => KwSyntax,
        "this" => KwThis,
        "throw" => KwThrow,
        "throws" => KwThrows,
        "transient" => KwTransient,
        "true" => KwTrue,
        "try" => KwTry,
        "use" => KwUse,
        "void" => KwVoid,
        "volatile" => KwVolatile,
        "while" => KwWhile,
        _ => return None,
    })
}

/// One token: a kind, the interned lexeme, and a source span.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Token {
    pub kind: TokenKind,
    pub text: Symbol,
    pub span: Span,
}

impl Token {
    /// Builds a token.
    pub fn new(kind: TokenKind, text: Symbol, span: Span) -> Token {
        Token { kind, text, span }
    }

    /// Builds a synthesized token (dummy span) from a kind and text.
    pub fn synth(kind: TokenKind, text: Symbol) -> Token {
        Token::new(kind, text, Span::DUMMY)
    }

    /// True if this token is the identifier `name` (not a keyword).
    pub fn is_ident(&self, name: &str) -> bool {
        self.kind == TokenKind::Ident && self.text.as_str() == name
    }
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.text.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sym;

    #[test]
    fn keyword_lookup() {
        assert_eq!(keyword_kind("instanceof"), Some(TokenKind::KwInstanceof));
        assert_eq!(keyword_kind("syntax"), Some(TokenKind::KwSyntax));
        assert_eq!(keyword_kind("use"), Some(TokenKind::KwUse));
        assert_eq!(keyword_kind("foreach"), None);
        assert_eq!(keyword_kind(""), None);
    }

    #[test]
    fn classification() {
        assert!(TokenKind::KwClass.is_keyword());
        assert!(!TokenKind::Ident.is_keyword());
        assert!(TokenKind::IntLit.is_literal());
        assert!(!TokenKind::KwTrue.is_literal());
    }

    #[test]
    fn token_display_and_ident_check() {
        let t = Token::synth(TokenKind::Ident, sym("foreach"));
        assert!(t.is_ident("foreach"));
        assert!(!t.is_ident("for"));
        assert_eq!(format!("{t}"), "foreach");
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(TokenKind::Ushr.name(), ">>>");
        assert_eq!(TokenKind::KwInstanceof.name(), "instanceof");
        assert_eq!(TokenKind::Ident.name(), "identifier");
    }
}
