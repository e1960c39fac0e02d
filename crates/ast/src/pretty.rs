//! A deterministic pretty printer, plus α-normalization of generated names.
//!
//! Golden tests compare *printed* trees: both the expected source (parsed
//! then printed) and the actual expansion go through this printer, so the
//! output only needs to be deterministic and structure-revealing, not
//! minimal. Hygienic fresh names (`enumVar$3`) are normalized by
//! [`normalize_generated_names`] so tests are insensitive to gensym counters.

use crate::{
    Block, CatchClause, Decl, Expr, ExprKind, ForInit, Formal, LazyCell, MethodName, Node, Stmt,
    StmtKind, UseTarget,
};
use std::fmt::Write as _;

/// The pretty printer. Accumulates text with indentation.
#[derive(Default)]
pub struct Pretty {
    out: String,
    indent: usize,
}

impl Pretty {
    /// Creates an empty printer.
    pub fn new() -> Pretty {
        Pretty::default()
    }

    /// Finishes and returns the printed text.
    pub fn finish(self) -> String {
        self.out
    }

    fn line(&mut self, s: &str) {
        self.open_line();
        self.out.push_str(s);
        self.out.push('\n');
    }

    fn open_line(&mut self) {
        for _ in 0..self.indent {
            self.out.push_str("    ");
        }
    }

    /// Prints any node.
    pub fn node(&mut self, n: &Node) {
        match n {
            Node::Unit => self.line("<unit>"),
            Node::Token(t) => self.line(t.text.as_str()),
            Node::Tree(t) => self.line(&t.to_string()),
            Node::Ident(i) => self.line(i.as_str()),
            Node::Expr(e) => {
                let s = expr_str(e);
                self.line(&s);
            }
            Node::Stmt(s) => self.stmt(s),
            Node::Block(b) => {
                for s in &b.stmts {
                    self.stmt(s);
                }
            }
            Node::Type(t) => self.line(&t.to_string()),
            Node::MethodName(m) => {
                let s = method_name_str(m);
                self.line(&s);
            }
            Node::Formal(f) => {
                let s = formal_str(f);
                self.line(&s);
            }
            Node::Formals(fs) => {
                let s: Vec<String> = fs.iter().map(formal_str).collect();
                self.line(&s.join(", "));
            }
            Node::Args(args) => {
                let s: Vec<String> = args.iter().map(expr_str).collect();
                self.line(&s.join(", "));
            }
            Node::Decl(d) => self.decl(d),
            Node::Decls(ds) => {
                for d in ds {
                    self.decl(d);
                }
            }
            Node::Modifiers(m) => self.line(&m.to_string()),
            Node::LocalDecl(ld) => {
                let mut s = ld.name.as_str().to_owned();
                for _ in 0..ld.dims {
                    s.push_str("[]");
                }
                if let Some(init) = &ld.init {
                    let _ = write!(s, " = {}", expr_str(init));
                }
                self.line(&s);
            }
            Node::Name(parts) => {
                let s: Vec<&str> = parts.iter().map(|i| i.as_str()).collect();
                self.line(&s.join("."));
            }
            Node::Lazy(l) => match &*l.cell.borrow() {
                LazyCell::Forced(n) => self.node(n),
                LazyCell::Unforced { tree, .. } => {
                    self.line(&format!("<lazy {}>", tree.delim.tree_name()))
                }
                LazyCell::InProgress => self.line("<lazy in-progress>"),
            },
            Node::List(items) => {
                for item in items {
                    self.node(item);
                }
            }
        }
    }

    /// Prints a statement.
    pub fn stmt(&mut self, s: &Stmt) {
        match &s.kind {
            StmtKind::Block(b) => self.braced_block(b),
            StmtKind::Expr(e) => self.line(&format!("{};", expr_str(e))),
            StmtKind::Decl(ty, decls) => {
                let mut out = ty.to_string();
                out.push(' ');
                for (i, d) in decls.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(d.name.as_str());
                    for _ in 0..d.dims {
                        out.push_str("[]");
                    }
                    if let Some(init) = &d.init {
                        let _ = write!(out, " = {}", expr_str(init));
                    }
                }
                out.push(';');
                self.line(&out);
            }
            StmtKind::If(c, t, e) => {
                self.line(&format!("if ({})", expr_str(c)));
                self.indented_stmt(t);
                if let Some(e) = e {
                    self.line("else");
                    self.indented_stmt(e);
                }
            }
            StmtKind::While(c, b) => {
                self.line(&format!("while ({})", expr_str(c)));
                self.indented_stmt(b);
            }
            StmtKind::Do(b, c) => {
                self.line("do");
                self.indented_stmt(b);
                self.line(&format!("while ({});", expr_str(c)));
            }
            StmtKind::For {
                init,
                cond,
                update,
                body,
            } => {
                let init_s = match init {
                    ForInit::None => String::new(),
                    ForInit::Decl(ty, decls) => {
                        let mut out = format!("{ty} ");
                        for (i, d) in decls.iter().enumerate() {
                            if i > 0 {
                                out.push_str(", ");
                            }
                            out.push_str(d.name.as_str());
                            if let Some(init) = &d.init {
                                let _ = write!(out, " = {}", expr_str(init));
                            }
                        }
                        out
                    }
                    ForInit::Exprs(es) => {
                        let v: Vec<String> = es.iter().map(expr_str).collect();
                        v.join(", ")
                    }
                };
                let cond_s = cond.as_ref().map(expr_str).unwrap_or_default();
                let upd: Vec<String> = update.iter().map(expr_str).collect();
                self.line(&format!("for ({init_s}; {cond_s}; {})", upd.join(", ")));
                self.indented_stmt(body);
            }
            StmtKind::Return(Some(e)) => self.line(&format!("return {};", expr_str(e))),
            StmtKind::Return(None) => self.line("return;"),
            StmtKind::Break => self.line("break;"),
            StmtKind::Continue => self.line("continue;"),
            StmtKind::Throw(e) => self.line(&format!("throw {};", expr_str(e))),
            StmtKind::Try {
                body,
                catches,
                finally,
            } => {
                self.line("try");
                self.braced_block(body);
                for CatchClause { param, body } in catches {
                    self.line(&format!("catch ({})", formal_str(param)));
                    self.braced_block(body);
                }
                if let Some(fin) = finally {
                    self.line("finally");
                    self.braced_block(fin);
                }
            }
            StmtKind::Use(target, body) => {
                match target {
                    UseTarget::Named(path) => {
                        let s: Vec<&str> = path.iter().map(|i| i.as_str()).collect();
                        self.line(&format!("use {};", s.join(".")));
                    }
                    UseTarget::Instance(_) => self.line("use <instance>;"),
                }
                for s in &body.stmts {
                    self.stmt(s);
                }
            }
            StmtKind::Empty => self.line(";"),
            StmtKind::Lazy(l) => {
                if let Some(n) = l.forced_node() {
                    self.node(&n);
                } else {
                    self.line("<lazy statement>");
                }
            }
            StmtKind::Error => self.line("<error>;"),
        }
    }

    fn indented_stmt(&mut self, s: &Stmt) {
        if let StmtKind::Block(b) = &s.kind {
            self.braced_block(b);
        } else {
            self.indent += 1;
            self.stmt(s);
            self.indent -= 1;
        }
    }

    fn braced_block(&mut self, b: &Block) {
        self.line("{");
        self.indent += 1;
        for s in &b.stmts {
            self.stmt(s);
        }
        self.indent -= 1;
        self.line("}");
    }

    /// Prints a declaration.
    pub fn decl(&mut self, d: &Decl) {
        match d {
            Decl::Class(c) => {
                let mut head = String::new();
                if c.modifiers.iter().next().is_some() {
                    let _ = write!(head, "{} ", c.modifiers);
                }
                let _ = write!(head, "class {}", c.name);
                if let Some(sup) = &c.superclass {
                    let _ = write!(head, " extends {sup}");
                }
                if !c.interfaces.is_empty() {
                    let s: Vec<String> = c.interfaces.iter().map(|t| t.to_string()).collect();
                    let _ = write!(head, " implements {}", s.join(", "));
                }
                self.line(&format!("{head} {{"));
                self.indent += 1;
                for m in &c.members {
                    self.decl(m);
                }
                self.indent -= 1;
                self.line("}");
            }
            Decl::Interface(i) => {
                let mut head = String::new();
                if i.modifiers.iter().next().is_some() {
                    let _ = write!(head, "{} ", i.modifiers);
                }
                let _ = write!(head, "interface {}", i.name);
                if !i.extends.is_empty() {
                    let s: Vec<String> = i.extends.iter().map(|t| t.to_string()).collect();
                    let _ = write!(head, " extends {}", s.join(", "));
                }
                self.line(&format!("{head} {{"));
                self.indent += 1;
                for m in &i.members {
                    self.decl(m);
                }
                self.indent -= 1;
                self.line("}");
            }
            Decl::Method(m) => {
                let mut head = String::new();
                if m.modifiers.iter().next().is_some() {
                    let _ = write!(head, "{} ", m.modifiers);
                }
                let formals: Vec<String> = m.formals.iter().map(formal_str).collect();
                let _ = write!(head, "{} {}({})", m.ret, m.name, formals.join(", "));
                if !m.throws.is_empty() {
                    let s: Vec<String> = m.throws.iter().map(|t| t.to_string()).collect();
                    let _ = write!(head, " throws {}", s.join(", "));
                }
                match &m.body {
                    None => self.line(&format!("{head};")),
                    Some(lazy) => {
                        self.line(&format!("{head} {{"));
                        self.indent += 1;
                        if let Some(node) = lazy.forced_node() {
                            self.node(&node);
                        } else {
                            self.line("<lazy body>");
                        }
                        self.indent -= 1;
                        self.line("}");
                    }
                }
            }
            Decl::Ctor(c) => {
                let mut head = String::new();
                if c.modifiers.iter().next().is_some() {
                    let _ = write!(head, "{} ", c.modifiers);
                }
                let formals: Vec<String> = c.formals.iter().map(formal_str).collect();
                let _ = write!(head, "{}({})", c.name, formals.join(", "));
                self.line(&format!("{head} {{"));
                self.indent += 1;
                if let Some(node) = c.body.forced_node() {
                    self.node(&node);
                } else {
                    self.line("<lazy body>");
                }
                self.indent -= 1;
                self.line("}");
            }
            Decl::Field(fd) => {
                let mut out = String::new();
                if fd.modifiers.iter().next().is_some() {
                    let _ = write!(out, "{} ", fd.modifiers);
                }
                let _ = write!(out, "{} {}", fd.ty, fd.name);
                if let Some(init) = &fd.init {
                    let _ = write!(out, " = {}", expr_str(init));
                }
                out.push(';');
                self.line(&out);
            }
            Decl::Production(p) => {
                self.line(&format!("abstract {} syntax{};", p.lhs, p.pattern));
            }
            Decl::Mayan(m) => {
                self.line(&format!("{} syntax {}{} {{ … }}", m.lhs, m.name, m.params));
            }
            Decl::Use(target, rest) => {
                match target {
                    UseTarget::Named(path) => {
                        let s: Vec<&str> = path.iter().map(|i| i.as_str()).collect();
                        self.line(&format!("use {};", s.join(".")));
                    }
                    UseTarget::Instance(_) => self.line("use <instance>;"),
                }
                for d in rest {
                    self.decl(d);
                }
            }
            Decl::Import(i) => {
                let s: Vec<&str> = i.path.iter().map(|x| x.as_str()).collect();
                let star = if i.wildcard { ".*" } else { "" };
                self.line(&format!("import {}{star};", s.join(".")));
            }
            Decl::Empty => self.line(";"),
            Decl::Error(_) => self.line("<error>;"),
        }
    }
}

fn formal_str(f: &Formal) -> String {
    let mut s = String::new();
    if f.is_final {
        s.push_str("final ");
    }
    let _ = write!(s, "{}", f.ty);
    if let Some(spec) = &f.specializer {
        let _ = write!(s, "@{spec}");
    }
    let _ = write!(s, " {}", f.name);
    s
}

fn method_name_str(m: &MethodName) -> String {
    let mut s = String::new();
    if m.super_recv {
        s.push_str("super.");
    } else if let Some(r) = &m.receiver {
        let _ = write!(s, "{}.", expr_str(r));
    }
    s.push_str(m.name.as_str());
    s
}

/// Renders an expression on one line. Nested non-primary expressions are
/// parenthesized, so output is unambiguous without a precedence table.
pub fn expr_str(e: &Expr) -> String {
    fn sub(e: &Expr) -> String {
        match &e.kind {
            ExprKind::Literal(_)
            | ExprKind::Name(_)
            | ExprKind::FieldAccess(..)
            | ExprKind::Call(..)
            | ExprKind::ArrayAccess(..)
            | ExprKind::This
            | ExprKind::VarRef(_)
            | ExprKind::ClassRef(_)
            | ExprKind::New(..)
            | ExprKind::NewArray { .. } => expr_str(e),
            _ => format!("({})", expr_str(e)),
        }
    }
    match &e.kind {
        ExprKind::Literal(l) => l.to_string(),
        ExprKind::Name(i) => i.as_str().to_owned(),
        ExprKind::FieldAccess(t, name) => format!("{}.{}", sub(t), name),
        ExprKind::Call(mn, args) => {
            let a: Vec<String> = args.iter().map(expr_str).collect();
            format!("{}({})", method_name_str(mn), a.join(", "))
        }
        ExprKind::ArrayAccess(a, i) => format!("{}[{}]", sub(a), expr_str(i)),
        ExprKind::New(ty, args) => {
            let a: Vec<String> = args.iter().map(expr_str).collect();
            format!("new {ty}({})", a.join(", "))
        }
        ExprKind::NewArray {
            elem,
            dims,
            extra_dims,
        } => {
            let mut s = format!("new {elem}");
            for d in dims {
                let _ = write!(s, "[{}]", expr_str(d));
            }
            for _ in 0..*extra_dims {
                s.push_str("[]");
            }
            s
        }
        ExprKind::Binary(op, l, r) => format!("{} {op} {}", sub(l), sub(r)),
        ExprKind::Unary(op, x) => format!("{op}{}", sub(x)),
        ExprKind::IncDec(op, prefix, x) => {
            if *prefix {
                format!("{op}{}", sub(x))
            } else {
                format!("{}{op}", sub(x))
            }
        }
        ExprKind::Assign(op, l, r) => {
            let op_s = match op {
                Some(op) => format!("{op}="),
                None => "=".to_owned(),
            };
            format!("{} {op_s} {}", sub(l), sub(r))
        }
        ExprKind::Cond(c, t, f) => format!("{} ? {} : {}", sub(c), sub(t), sub(f)),
        ExprKind::Cast(ty, x) => format!("({ty}) {}", sub(x)),
        ExprKind::Instanceof(x, ty) => format!("{} instanceof {ty}", sub(x)),
        ExprKind::This => "this".to_owned(),
        ExprKind::VarRef(s) => s.as_str().to_owned(),
        ExprKind::ClassRef(s) => s.as_str().to_owned(),
        ExprKind::Template(t) => format!("new {} {}", t.goal.name(), t.body),
        ExprKind::Lazy(l) => match l.forced_node().and_then(|n| Node::clone(&n).into_expr()) {
            Some(inner) => expr_str(&inner),
            None => "<lazy expr>".to_owned(),
        },
        ExprKind::TypeDims(base) => format!("{}[]", sub(base)),
    }
}

/// Pretty-prints a node to a string.
pub fn pretty_node(n: &Node) -> String {
    let mut p = Pretty::new();
    p.node(n);
    p.finish()
}

/// Replaces generated names (`foo$12`) with stable placeholders (`g$1`,
/// `g$2`, …) in first-occurrence order, so printed trees can be compared
/// independently of gensym counters.
pub fn normalize_generated_names(text: &str) -> String {
    let bytes = text.as_bytes();
    let mut out = String::with_capacity(text.len());
    let mut map: Vec<(String, String)> = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < bytes.len()
                && ((bytes[i] as char).is_ascii_alphanumeric()
                    || bytes[i] == b'_'
                    || bytes[i] == b'$')
            {
                i += 1;
            }
            let word = &text[start..i];
            if let Some(dollar) = word.find('$') {
                if word[dollar + 1..].chars().all(|c| c.is_ascii_digit())
                    && !word[dollar + 1..].is_empty()
                {
                    let replacement = match map.iter().find(|(w, _)| w == word) {
                        Some((_, r)) => r.clone(),
                        None => {
                            let r = format!("g${}", map.len() + 1);
                            map.push((word.to_owned(), r.clone()));
                            r
                        }
                    };
                    out.push_str(&replacement);
                    continue;
                }
            }
            out.push_str(word);
        } else {
            out.push(c);
            i += c.len_utf8();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BinOp, Ident, TypeName};

    #[test]
    fn expr_rendering() {
        let e = Expr::synth(ExprKind::Binary(
            BinOp::Add,
            Box::new(Expr::int(1)),
            Box::new(Expr::synth(ExprKind::Binary(
                BinOp::Mul,
                Box::new(Expr::int(2)),
                Box::new(Expr::int(3)),
            ))),
        ));
        assert_eq!(expr_str(&e), "1 + (2 * 3)");
    }

    #[test]
    fn stmt_rendering() {
        let s = Stmt::synth(StmtKind::If(
            Expr::name("x"),
            Box::new(Stmt::synth(StmtKind::Return(Some(Expr::int(1))))),
            Some(Box::new(Stmt::synth(StmtKind::Return(None)))),
        ));
        let mut p = Pretty::new();
        p.stmt(&s);
        let text = p.finish();
        assert!(text.contains("if (x)"));
        assert!(text.contains("return 1;"));
        assert!(text.contains("else"));
    }

    #[test]
    fn call_rendering() {
        let e = Expr::call_on(Expr::name("h"), "get", vec![Expr::name("st")]);
        assert_eq!(expr_str(&e), "h.get(st)");
    }

    #[test]
    fn normalization_is_consistent() {
        let a = "Enumeration enumVar$7 = x; enumVar$7.next(); other$2 = enumVar$7;";
        let b = "Enumeration enumVar$1 = x; enumVar$1.next(); other$9 = enumVar$1;";
        assert_eq!(
            normalize_generated_names(a),
            normalize_generated_names(b)
        );
        // Distinct gensyms stay distinct.
        let c = "a$1 b$2 a$1";
        assert_eq!(normalize_generated_names(c), "g$1 g$2 g$1");
    }

    #[test]
    fn normalization_leaves_plain_names() {
        assert_eq!(normalize_generated_names("foo bar$ baz"), "foo bar$ baz");
        assert_eq!(normalize_generated_names("m$1(x)"), "g$1(x)");
    }

    #[test]
    fn field_decl_rendering() {
        let d = Decl::Field(crate::FieldDecl {
            span: maya_lexer::Span::DUMMY,
            modifiers: crate::Modifiers::just(crate::Modifier::Private),
            ty: TypeName::named("String"),
            name: Ident::from_str("name"),
            init: Some(Expr::str_lit("hi")),
        });
        let mut p = Pretty::new();
        p.decl(&d);
        assert_eq!(p.finish(), "private String name = \"hi\";\n");
    }
}
