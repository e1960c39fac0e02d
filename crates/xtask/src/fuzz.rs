//! Grammar-aware differential fuzzing (`cargo xtask fuzz`).
//!
//! The generator derives structurally valid MayaJava programs — and
//! random Mayan extensions — directly from the base grammar's
//! productions, then layers splice/truncate/duplicate mutations on top
//! for the invalid-input half. Every case runs through six differential
//! oracles, each an invariant the system already promises:
//!
//! * **engine** — both execution tiers must produce byte-identical
//!   outcomes: the bytecode VM (default) and the legacy tree walker
//!   (`Interp::set_lowering(false)`, the in-process face of
//!   `MAYA_NO_LOWER`); every third case runs on both again under a
//!   seeded step limit below its own step count, where both must print
//!   the same output and stop at the same statement;
//! * **warm/post-edit** — a persistent [`Session`] (the `mayad` shape)
//!   fed hundreds of unrelated programs must match a cold batch compile,
//!   and so must each of its edits — an appended class, a signature edit
//!   that retypes a method `main` calls, and a class appended to the first
//!   file that shifts every later class's id — and the revert after them;
//! * **jobs** — `--jobs=1` vs `--jobs=4` must be byte-identical;
//! * **pool** — a campaign-persistent 4-worker [`CompilePool`] (the
//!   concurrent `mayad` service shape, Arc-shared warm tiers) answers
//!   each case for a rotating client and must match the cold batch
//!   compile byte for byte;
//! * **store** — a fresh session populating an empty persistent artifact
//!   store and a second fresh session hydrating from it (the
//!   cold-process-with-warm-`--cache-dir` shape) must both be
//!   byte-identical to a store-less cold compile;
//! * **faults** — under a sampled `MAYA_FAULTS`-style injection, armed
//!   identically on both engines, diagnostics may differ from the
//!   clean run but the engines must still agree, and no panic may escape
//!   the driver boundary;
//! * **tables** — every generated extension's grammar, derived from the
//!   automaton of the grammar it extends, must equal a full build of it
//!   (tables, or conflict list).
//!
//! Coverage feedback comes from the telemetry counters and cache gauges
//! that already exist: a case that lights a (counter, log2-magnitude)
//! pair never seen before is kept as a seed for later mutation. Any
//! diverging or panicking case is auto-minimized by a delta-debugging
//! pass at file and line (≈ statement/member/extension) granularity;
//! real divergences land under `tests/corpus/regressions/`, induced ones
//! (`--induce`, used to prove the minimizer end to end) stay in
//! `target/fuzz/`. Everything is summarized in `BENCH_fuzz.json`; the
//! whole run is deterministic for a given seed.

use crate::XorShift;
use maya::ast::NodeKind;
use maya::core::json::{parse_json, Json};
use maya::core::service::{CompilePool, PoolConfig, PoolRequest};
use maya::grammar::{Action, BuiltinAction, NtId, Sym, Terminal};
use maya::lexer::{Delim, TokenKind};
use maya::telemetry::{self, json_string, CacheId, Counter};
use maya::{CompileOptions, Compiler, Outcome, RequestOpts, Session};
use std::cell::RefCell;
use std::collections::HashSet;
use std::fmt::Write as _;
use std::panic::AssertUnwindSafe;
use std::path::Path;
use std::process::ExitCode;
use std::rc::Rc;
use std::sync::Arc;

pub(crate) const DEFAULT_CASES: usize = 300;
pub(crate) const DEFAULT_SEED: u64 = 7;

/// Hard cap on minimizer predicate evaluations per divergence (each
/// evaluation is a handful of compiles).
const MAX_MIN_EVALS: usize = 250;

pub(crate) struct FuzzConfig {
    pub cases: usize,
    pub seed: u64,
    /// Wall-clock budget; generation stops early when exceeded.
    pub budget_secs: Option<u64>,
    /// Arm a one-sided fault on the legacy engine every few cases to
    /// *induce* divergences — proves detection + minimization end to end.
    pub induce: bool,
}

// ---- grammar-derived generation ----------------------------------------------

/// Derives token text straight from the base grammar's productions, the
/// same tables the pattern parser runs on.
struct GrammarGen {
    grammar: maya::grammar::Grammar,
    /// Derivable production indices per LHS nonterminal (goal-marker and
    /// start plumbing excluded).
    by_nt: Vec<Vec<usize>>,
    /// Minimum derivation cost (symbols expanded) per nonterminal;
    /// `u64::MAX` marks nonterminals with no terminal derivation.
    cost: Vec<u64>,
}

/// Identifier pool; the `main` prelude declares the first few so grammar
/// derivations have semantically live names to land on.
const IDENTS: &[&str] = &["a", "b", "s", "v", "t", "u"];

impl GrammarGen {
    fn new() -> GrammarGen {
        let base = maya::core::Base::cached();
        let grammar = base.grammar.clone();
        let prods = grammar.productions();
        let n = grammar.nt_count();
        let mut by_nt = vec![Vec::new(); n];
        for (i, p) in prods.iter().enumerate() {
            let internal = matches!(p.action, Action::Builtin(BuiltinAction::StartAccept))
                || p.rhs.iter().any(|s| {
                    matches!(
                        s,
                        Sym::T(Terminal::Goal(_) | Terminal::EndOf(_) | Terminal::End)
                    )
                });
            if !internal {
                by_nt[p.lhs.0 as usize].push(i);
            }
        }
        // Min-cost fixpoint: cost(nt) = min over its productions of
        // 1 + Σ cost(sym), terminals costing 1. Nonterminals that never
        // converge (production-less markers) keep MAX and derive as ε.
        let mut cost = vec![u64::MAX; n];
        loop {
            let mut changed = false;
            for (nt, options) in by_nt.iter().enumerate() {
                let mut best = u64::MAX;
                for &pi in options {
                    best = best.min(prod_cost(&prods[pi].rhs, &cost));
                }
                if best < cost[nt] {
                    cost[nt] = best;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        GrammarGen { grammar, by_nt, cost }
    }

    fn nt(&self, kind: NodeKind) -> NtId {
        self.grammar
            .nt_for_kind(kind)
            .unwrap_or_else(|| panic!("base grammar registers {}", kind.name()))
    }

    /// Appends one derivation of `nt` to `out`. `budget` bounds the
    /// derivation size; at or below the nonterminal's minimum cost the
    /// cheapest production is forced, so recursion always terminates.
    fn derive(&self, rng: &mut XorShift, nt: NtId, budget: u64, out: &mut String) {
        let options = &self.by_nt[nt.0 as usize];
        if options.is_empty() || self.cost[nt.0 as usize] == u64::MAX {
            return; // production-less marker: derive ε
        }
        let prods = self.grammar.productions();
        let eb = budget.max(self.cost[nt.0 as usize]);
        let within: Vec<usize> = options
            .iter()
            .copied()
            .filter(|&pi| prod_cost(&prods[pi].rhs, &self.cost) <= eb)
            .collect();
        let pi = if within.is_empty() {
            // Unreachable given eb >= cost[nt], but stay total.
            *options
                .iter()
                .min_by_key(|&&pi| prod_cost(&prods[pi].rhs, &self.cost))
                .expect("non-empty options")
        } else {
            within[rng.below(within.len())]
        };
        let p = &prods[pi];
        let mut slack = eb.saturating_sub(prod_cost(&p.rhs, &self.cost));

        // Subtree helpers carry their goal in the action; the single
        // Tree terminal is rendered as delimiters around a goal derivation.
        if let Action::Builtin(
            BuiltinAction::ParseSubtree { goal } | BuiltinAction::LazySubtree { goal, .. },
        ) = p.action
        {
            if let Some(Sym::T(Terminal::Tree(d))) = p.rhs.first() {
                let (open, close) = delim_chars(*d);
                out.push(open);
                out.push(' ');
                self.derive(rng, goal, self.cost.get(goal.0 as usize).copied().unwrap_or(0).saturating_add(slack), out);
                out.push(close);
                out.push(' ');
                return;
            }
        }

        for sym in &p.rhs {
            match sym {
                Sym::T(t) => self.render_terminal(rng, *t, out),
                Sym::N(child) => {
                    let extra = if slack == 0 { 0 } else { rng.next() % (slack + 1) };
                    slack -= extra;
                    let child_min = self.cost.get(child.0 as usize).copied().unwrap_or(0);
                    let child_budget = if child_min == u64::MAX {
                        0
                    } else {
                        child_min.saturating_add(extra)
                    };
                    self.derive(rng, *child, child_budget, out);
                }
            }
        }
    }

    fn render_terminal(&self, rng: &mut XorShift, t: Terminal, out: &mut String) {
        match t {
            Terminal::Tok(k) => {
                match k {
                    TokenKind::Ident => out.push_str(IDENTS[rng.below(IDENTS.len())]),
                    TokenKind::IntLit => {
                        let _ = write!(out, "{}", rng.below(10));
                    }
                    TokenKind::LongLit => {
                        let _ = write!(out, "{}L", rng.below(10));
                    }
                    TokenKind::FloatLit => {
                        let _ = write!(out, "{}.5f", rng.below(4));
                    }
                    TokenKind::DoubleLit => {
                        let _ = write!(out, "{}.25", rng.below(4));
                    }
                    TokenKind::CharLit => out.push_str("'x'"),
                    TokenKind::StringLit => {
                        let _ = write!(out, "\"s{}\"", rng.below(4));
                    }
                    // Keywords and punctuators name themselves.
                    _ => out.push_str(k.name()),
                }
                out.push(' ');
            }
            Terminal::Word(w) => {
                out.push_str(w.as_str());
                out.push(' ');
            }
            // A raw delimiter tree with no goal (`(...)` expressions,
            // `[...]` array syntax): fill with something token-shaped.
            Terminal::Tree(d) => {
                let (open, close) = delim_chars(d);
                out.push(open);
                out.push(' ');
                match rng.below(3) {
                    0 => {}
                    1 => {
                        let _ = write!(out, "{} ", rng.below(10));
                    }
                    _ => {
                        out.push_str(IDENTS[rng.below(IDENTS.len())]);
                        out.push(' ');
                    }
                }
                out.push(close);
                out.push(' ');
            }
            Terminal::Goal(_) | Terminal::EndOf(_) | Terminal::End => {}
        }
    }
}

fn prod_cost(rhs: &[Sym], cost: &[u64]) -> u64 {
    let mut total = 1u64;
    for s in rhs {
        total = total.saturating_add(match s {
            Sym::T(_) => 1,
            Sym::N(nt) => cost.get(nt.0 as usize).copied().unwrap_or(u64::MAX),
        });
    }
    total
}

fn delim_chars(d: Delim) -> (char, char) {
    match d {
        Delim::Paren => ('(', ')'),
        Delim::Brace => ('{', '}'),
        Delim::Brack => ('[', ']'),
    }
}

// ---- generated Mayan extensions ----------------------------------------------

/// One pattern item of a generated extension. The same items render three
/// ways — abstract production RHS, concrete Mayan parameter list, and
/// use-site text — so the loop is closed by construction: whatever
/// pattern the generator declares, it also exercises.
enum ExtItem {
    /// `Expression[:java.lang.String] <name>` — a node parameter,
    /// optionally specialized on a static type.
    Expr { name: String, typed: bool },
    /// `(Formal <name>)` — a delimiter subtree around a formal.
    FormalSub { name: String },
    /// `lazy(BraceTree, BlockStmts) <name>` — a lazily parsed body.
    Lazy { name: String },
    /// A literal `;` terminator.
    Semi,
}

struct ExtSpec {
    /// Mayan name (`Gx3`), what the application `use`s.
    name: String,
    /// Leading contextual keyword; unique per extension so generated
    /// productions never collide in the LALR tables.
    marker: String,
    items: Vec<ExtItem>,
    /// Splice the lazy body twice (when present) — exercises template
    /// re-instantiation of the same lazy subtree.
    twice: bool,
    /// Drop every parameter: the body expands to `;`, so lazily parsed
    /// arguments must never be forced.
    drop_all: bool,
}

impl ExtSpec {
    fn gen(rng: &mut XorShift, tag: usize) -> ExtSpec {
        let mut items = Vec::new();
        let n_mid = 1 + rng.below(2);
        for k in 0..n_mid {
            match rng.below(3) {
                0 => items.push(ExtItem::Expr { name: format!("pe{k}"), typed: false }),
                1 => items.push(ExtItem::Expr { name: format!("pe{k}"), typed: true }),
                _ => items.push(ExtItem::FormalSub { name: format!("pf{k}") }),
            }
        }
        let lazy_tail = rng.below(5) != 0;
        if lazy_tail {
            items.push(ExtItem::Lazy { name: "body".to_owned() });
        } else {
            items.push(ExtItem::Semi);
        }
        ExtSpec {
            name: format!("Gx{tag}"),
            marker: format!("gxm{tag}"),
            items,
            twice: lazy_tail && rng.below(3) == 0,
            drop_all: rng.below(6) == 0,
        }
    }

    /// The extension-library source: abstract production + concrete Mayan.
    fn decl_source(&self) -> String {
        let mut rhs = vec![self.marker.clone()];
        let mut params = vec![self.marker.clone()];
        for item in &self.items {
            match item {
                ExtItem::Expr { name, typed } => {
                    rhs.push("Expression".to_owned());
                    params.push(if *typed {
                        format!("Expression:java.lang.String {name}")
                    } else {
                        format!("Expression {name}")
                    });
                }
                ExtItem::FormalSub { name } => {
                    rhs.push("(Formal)".to_owned());
                    params.push(format!("(Formal {name})"));
                }
                ExtItem::Lazy { name } => {
                    rhs.push("lazy(BraceTree, BlockStmts)".to_owned());
                    params.push(format!("lazy(BraceTree, BlockStmts) {name}"));
                }
                ExtItem::Semi => {
                    rhs.push(";".to_owned());
                    params.push(";".to_owned());
                }
            }
        }
        let mut body_stmts = Vec::new();
        if !self.drop_all {
            for item in &self.items {
                match item {
                    ExtItem::Expr { name, .. } => {
                        body_stmts.push(format!("System.out.println(${name});"));
                    }
                    ExtItem::FormalSub { name } => {
                        body_stmts.push(format!("$(DeclStmt.make({name}))"));
                    }
                    ExtItem::Lazy { name } => {
                        body_stmts.push(format!("${name}"));
                        if self.twice {
                            body_stmts.push(format!("${name}"));
                        }
                    }
                    ExtItem::Semi => {}
                }
            }
        }
        let body = if body_stmts.is_empty() {
            "    return new Statement { ; };".to_owned()
        } else {
            format!(
                "    return new Statement {{ {{ {} }} }};",
                body_stmts.join(" ")
            )
        };
        format!(
            "abstract Statement syntax({});\n\nStatement syntax\n{}({})\n{{\n{body}\n}}\n",
            rhs.join(" "),
            self.name,
            params.join(" ")
        )
    }

    /// The abstract production's right-hand side, as the metagrammar lowers
    /// [`ExtSpec::decl_source`]'s.
    fn rhs(&self) -> Vec<maya::grammar::RhsItem> {
        use maya::grammar::RhsItem;
        let mut rhs = vec![RhsItem::word(&self.marker)];
        rhs.extend(self.items.iter().map(|item| match item {
            ExtItem::Expr { .. } => RhsItem::Kind(NodeKind::Expression),
            ExtItem::FormalSub { .. } => {
                RhsItem::Subtree(Delim::Paren, vec![RhsItem::Kind(NodeKind::Formal)])
            }
            ExtItem::Lazy { .. } => RhsItem::Lazy(Delim::Brace, NodeKind::BlockStmts),
            ExtItem::Semi => RhsItem::tok(TokenKind::Semi),
        }));
        rhs
    }

    /// One use-site statement matching the declared pattern.
    fn use_site(&self, rng: &mut XorShift, gen: &GrammarGen) -> String {
        let mut out = self.marker.clone();
        out.push(' ');
        for (k, item) in self.items.iter().enumerate() {
            match item {
                ExtItem::Expr { typed, .. } => {
                    if *typed {
                        let _ = write!(out, "\"x{}\" ", rng.below(4));
                    } else {
                        match rng.below(3) {
                            0 => {
                                let _ = write!(out, "{} + {} ", rng.below(5), rng.below(5));
                            }
                            1 => out.push_str("a "),
                            _ => {
                                let _ = write!(out, "\"y{}\" ", rng.below(4));
                            }
                        }
                    }
                }
                ExtItem::FormalSub { .. } => {
                    let _ = write!(out, "(int q{k}) ");
                }
                ExtItem::Lazy { .. } => {
                    out.push_str("{ ");
                    match rng.below(3) {
                        0 => out.push_str("System.out.println(\"in\"); "),
                        1 => out.push_str("a = a + 1; "),
                        _ => {
                            let snt = gen.nt(NodeKind::Statement);
                            gen.derive(rng, snt, 8, &mut out);
                        }
                    }
                    out.push_str("} ");
                }
                ExtItem::Semi => out.push_str("; "),
            }
        }
        out
    }
}

// ---- case generation ---------------------------------------------------------

struct Case {
    sources: Vec<(String, String)>,
    /// The generated Mayan extensions' productions, in `use` order.
    extensions: Vec<Vec<maya::grammar::RhsItem>>,
}

fn gen_case(rng: &mut XorShift, gen: &GrammarGen, tag: usize) -> Case {
    let with_ext = rng.below(100) < 40;
    let mut sources = Vec::new();
    let mut ext_specs = Vec::new();
    if with_ext {
        let n = if rng.below(10) == 0 { 2 } else { 1 };
        let mut ext_src = String::new();
        for k in 0..n {
            let spec = ExtSpec::gen(rng, tag * 4 + k);
            ext_src.push_str(&spec.decl_source());
            ext_src.push('\n');
            ext_specs.push(spec);
        }
        sources.push(("fuzz_ext.maya".to_owned(), ext_src));
    }

    // The application: a Main with grammar-derived members and statements
    // over a small declared-local prelude, plus use sites for every
    // generated extension.
    let mut app = String::from("class Main {\n");
    let dnt = gen.nt(NodeKind::Declaration);
    if rng.below(10) < 3 {
        app.push_str("    ");
        let budget = 10 + rng.next() % 12;
        gen.derive(rng, dnt, budget, &mut app);
        app.push('\n');
    }
    app.push_str("    static void main() {\n");
    app.push_str("        int a = 1; int b = 2; String s = \"seed\";\n");
    let snt = gen.nt(NodeKind::Statement);
    for _ in 0..1 + rng.below(5) {
        app.push_str("        ");
        // Half the statements come from a semantically valid pool over
        // the prelude locals, so a good share of cases type-check and
        // actually reach both interpreters; the grammar-derived half
        // covers the front half of the pipeline.
        if rng.below(2) == 0 {
            app.push_str(VALID_STMTS[rng.below(VALID_STMTS.len())]);
            app.push(' ');
        } else {
            let budget = 6 + rng.next() % 18;
            gen.derive(rng, snt, budget, &mut app);
        }
        app.push('\n');
    }
    for spec in &ext_specs {
        let _ = writeln!(app, "        use {};", spec.name);
        app.push_str("        ");
        app.push_str(&spec.use_site(rng, gen));
        app.push('\n');
    }
    app.push_str("    }\n}\n");
    app.push_str(HOT_HELPER);
    sources.push(("fuzz_app.maya".to_owned(), app));

    // Mutation layer: the invalid-input half. Token splices, line
    // duplication/deletion, tail truncation.
    if rng.below(100) < 35 {
        mutate(rng, &mut sources);
    }
    Case {
        sources,
        extensions: ext_specs.iter().map(ExtSpec::rhs).collect(),
    }
}

/// The tables oracle: the grammars a case's extensions make, each derived
/// from the grammar it extends, against full builds. Returns how many it
/// checked and the first mismatch.
fn check_derivations(
    base: &maya::grammar::Built,
    extensions: &[Vec<maya::grammar::RhsItem>],
) -> (usize, Option<String>) {
    let mut g = maya::core::Base::cached().grammar;
    let mut parent = base.clone();
    for (k, rhs) in extensions.iter().enumerate() {
        let mut b = g.extend();
        if b.add_production(NodeKind::Statement, rhs, None).is_err() {
            return (k, None);
        }
        g = b.finish();
        let full = g.build_full();
        let derived = match g.derive_from(&parent) {
            Some(d) => d,
            None => return (k + 1, Some(format!("extension {k}: not derivable"))),
        };
        match (full, derived) {
            (Ok(f), Ok(d)) if **f.tables() == **d.tables() => parent = d,
            (Err(f), Err(d)) if format!("{f:?}") == format!("{d:?}") => return (k + 1, None),
            (f, d) => {
                let show = |r: &Result<maya::grammar::Built, maya::grammar::GrammarError>| match r {
                    Ok(_) => "tables".to_owned(),
                    Err(e) => e.to_string(),
                };
                return (
                    k + 1,
                    Some(format!(
                        "extension {k}: full build {} but derivation {}",
                        show(&f),
                        show(&d)
                    )),
                );
            }
        }
    }
    (extensions.len(), None)
}

/// A helper class every application carries. Statements run once, from
/// `main`, and the bytecode tier refines a body on its fourth run, so
/// without a method that a loop calls more often the engine oracle would
/// never compare a refined body or an inline splice. Called from the
/// hot-helper statement in [`VALID_STMTS`], `twice` and `fold` splice
/// the field getter `get` (as an implicit call and with a receiver) and
/// the static leaf `leaf` (from an instance and from a static frame).
/// `FuzzHotter` overrides `get`, for the statement whose loop switches
/// `main` to its refined copy on-stack and then changes the receiver, and
/// for the one whose loop alternates the receivers of `plus`, a non-leaf
/// that `main`'s on-stack copy splices as a chain, each member with the
/// chain of both `get` bodies nested.
const HOT_HELPER: &str = "class FuzzHot {
    int v;
    FuzzHot(int v) { this.v = v; }
    int get() { return v; }
    static int leaf(int x) { return x * 3 + 1; }
    int twice(int k) { return get() + leaf(k); }
    int plus(int k) { return get() + k; }
    static int fold(FuzzHot h, int k) { return h.get() - leaf(k); }
}
class FuzzHotter extends FuzzHot {
    FuzzHotter(int v) { this.v = v; }
    int get() { return v + 7; }
}
";

/// Statements that type-check and run over the `main` prelude locals
/// (`int a`, `int b`, `String s`): interleaved with grammar-derived
/// statements so a healthy share of cases reaches both interpreters.
const VALID_STMTS: &[&str] = &[
    "a = a + 1;",
    "b = a * 2 + b;",
    "s = s + \"!\";",
    "System.out.println(s);",
    "System.out.println(a + b);",
    "if (a > b) { a = a - b; } else { b = b - 1; }",
    "while (a < 5) { a = a + 1; }",
    "for (int i = 0; i < 3; i = i + 1) { b = b + i; }",
    "{ int c = a; a = b; b = c; }",
    "if (s != null) { System.out.println(\"ok\"); }",
    "{ FuzzHot h = new FuzzHot(a); for (int i = 0; i < 6; i = i + 1) { b = b + h.twice(i) + FuzzHot.fold(h, b); } }",
    // Past the on-stack refine's 64 back-edges with `get` spliced, then
    // a receiver of the subclass fails the splice's guard; the second
    // takes its back-edges by a `do` loop's conditional jump.
    "{ FuzzHot h = new FuzzHot(a); for (int i = 0; i < 90; i = i + 1) { if (i == 75) { h = new FuzzHotter(b); } b = b + h.get() * i; } }",
    "{ FuzzHot h = new FuzzHotter(b); int i = 0; do { i = i + 1; if (i % 9 == 0) { continue; } a = a + h.get() % 5; } while (i < 80); }",
    // Chains and nesting: `plus` runs with both receivers before the loop
    // switches, so its refined copy splices both `get` bodies, and the
    // switched copy splices both receivers' `plus` with them nested.
    "{ FuzzHot x = new FuzzHot(a); FuzzHot y = new FuzzHotter(b); for (int i = 0; i < 90; i = i + 1) { FuzzHot z = x; if (i % 2 == 1) { z = y; } b = b + z.plus(i); } }",
    // Compound assignment and `++` narrow to the variable's type, and the
    // expression's value is the variable's after the store; an `int`
    // holding a `char`'s value stays an `int`.
    "{ int c = \"q\".charAt(0); c++; byte[] e = new byte[1]; int y = (e[0] += a + b); char d = 'x'; d += a % 3; System.out.println(c + \" \" + y + \" \" + e[0] + d); }",
];

/// Raw fragments spliced in by the corruption pass.
const SPLICE: &[&str] = &["@", "$", ";", "}", "{", "(", "class", "syntax", "=", "use", "\\.", "abstract"];

fn mutate(rng: &mut XorShift, sources: &mut [(String, String)]) {
    let which = rng.below(sources.len());
    let src = &mut sources[which].1;
    for _ in 0..1 + rng.below(3) {
        match rng.below(4) {
            0 => {
                // Splice raw tokens at a char boundary.
                let mut at = rng.below(src.len().max(1));
                while at > 0 && !src.is_char_boundary(at) {
                    at -= 1;
                }
                src.insert_str(at, SPLICE[rng.below(SPLICE.len())]);
            }
            1 => {
                // Duplicate a random line.
                let lines: Vec<&str> = src.lines().collect();
                if !lines.is_empty() {
                    let l = lines[rng.below(lines.len())].to_owned();
                    let mut rebuilt: Vec<String> =
                        lines.iter().map(|s| (*s).to_owned()).collect();
                    rebuilt.insert(rng.below(rebuilt.len() + 1), l);
                    *src = rebuilt.join("\n");
                    src.push('\n');
                }
            }
            2 => {
                // Delete a random line.
                let mut lines: Vec<String> = src.lines().map(str::to_owned).collect();
                if lines.len() > 1 {
                    lines.remove(rng.below(lines.len()));
                    *src = lines.join("\n");
                    src.push('\n');
                }
            }
            _ => {
                // Truncate the tail.
                let mut at = src.len() / 2 + rng.below(src.len() / 2 + 1);
                while at > 0 && !src.is_char_boundary(at) {
                    at -= 1;
                }
                src.truncate(at);
            }
        }
    }
}

// ---- differential driver -----------------------------------------------------

fn fuzz_options(jobs: usize) -> CompileOptions {
    CompileOptions {
        echo_output: false,
        jobs,
        max_expand_depth: 50,
        expand_fuel: 500_000,
        interp_step_limit: 500_000,
        interp_stack_limit: 64,
        ..Default::default()
    }
}

/// One execution tier of the interpreter (see `maya_interp`): the engine
/// oracle requires both to be observationally identical.
#[derive(Clone, Copy, PartialEq)]
enum Engine {
    /// Legacy tree walker (`MAYA_NO_LOWER=1`).
    Legacy,
    /// Lowered + compiled register bytecode — the default tier.
    Bytecode,
}

fn installer(engine: Engine) -> Rc<dyn Fn(&Compiler)> {
    Rc::new(move |c: &Compiler| {
        maya::macrolib::install(c);
        maya::multijava::install(c);
        // Explicit so an ambient MAYA_NO_LOWER can't skew the differential.
        c.interp().set_lowering(engine == Engine::Bytecode);
    })
}

fn fresh_session(engine: Engine, jobs: usize) -> Session {
    Session::new(fuzz_options(jobs), Some(installer(engine)))
}

fn req_opts() -> RequestOpts {
    RequestOpts::default()
}

/// A worker pool with exactly the fuzzer's compile options on the
/// bytecode tier — so a pool reply must be byte-identical to
/// [`run_fresh`] on the same case.
fn fuzz_pool(workers: usize) -> CompilePool {
    let o = fuzz_options(1);
    CompilePool::start(PoolConfig {
        workers,
        queue_cap: 64,
        jobs: o.jobs,
        fuel: o.expand_fuel,
        max_expand_depth: o.max_expand_depth,
        interp_step_limit: o.interp_step_limit,
        interp_stack_limit: o.interp_stack_limit,
        installer: Some(Arc::new(|c: &Compiler| {
            maya::macrolib::install(c);
            maya::multijava::install(c);
            c.interp().set_lowering(true);
        })),
        ..PoolConfig::default()
    })
}

/// Submits one case to `pool` for `client` and decodes the reply into an
/// outcome signature. `Err` carries a protocol-level failure (refusal,
/// dropped reply, non-JSON) — always a divergence.
fn pool_sig(
    pool: &CompilePool,
    client: &str,
    sources: &[(String, String)],
) -> Result<(bool, String, String), String> {
    let request = PoolRequest::Sources { sources: sources.to_vec(), opts: req_opts() };
    let reply = pool
        .submit(client, request)
        .recv()
        .unwrap_or_else(|_| "worker pool dropped the reply".to_owned());
    let j = parse_json(&reply).map_err(|e| format!("pool reply is not JSON ({e}): {reply}"))?;
    if j.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("pool refused the request: {reply}"));
    }
    Ok((
        j.get("success").and_then(Json::as_bool).unwrap_or(false),
        j.get("stdout").and_then(Json::as_str).unwrap_or_default().to_owned(),
        j.get("stderr").and_then(Json::as_str).unwrap_or_default().to_owned(),
    ))
}

/// The pool oracle's comparison: cold baseline vs one pool reply.
fn compare_pool(
    cold: &Outcome,
    pool: &CompilePool,
    client: &str,
    sources: &[(String, String)],
) -> Option<String> {
    match pool_sig(pool, client, sources) {
        Err(detail) => Some(detail),
        Ok((success, stdout, stderr)) => {
            if (success, stdout.as_str(), stderr.as_str()) == outcome_sig(cold) {
                None
            } else {
                Some(format!(
                    "--- cold: success={} ---\nstdout:\n{}stderr:\n{}\
                     --- pool ({client}): success={success} ---\nstdout:\n{stdout}stderr:\n{stderr}",
                    cold.success, cold.stdout, cold.stderr
                ))
            }
        }
    }
}

fn outcome_sig(o: &Outcome) -> (bool, &str, &str) {
    (o.success, o.stdout.as_str(), o.stderr.as_str())
}

/// Compiles `sources` in a fresh session. `Err` means a panic escaped
/// the driver boundary — the invariant violation the fuzzer hunts for.
fn run_fresh(
    sources: &[(String, String)],
    engine: Engine,
    jobs: usize,
    fault: Option<&str>,
) -> Result<Outcome, String> {
    let r = maya::core::catch_ice(AssertUnwindSafe(|| {
        if let Some(spec) = fault {
            maya::core::faults::arm(spec);
        }
        let mut s = fresh_session(engine, jobs);
        s.compile_sources(sources, &req_opts())
    }));
    maya::core::faults::disarm();
    r
}

/// Compiles `sources` on `engine` in a fresh session whose step limit is
/// `limit`.
fn run_limited(sources: &[(String, String)], engine: Engine, limit: u64) -> Result<Outcome, String> {
    maya::core::catch_ice(AssertUnwindSafe(|| {
        let opts = CompileOptions { interp_step_limit: limit, ..fuzz_options(1) };
        Session::new(opts, Some(installer(engine))).compile_sources(sources, &req_opts())
    }))
}

/// The steps the last interpreted run of a fresh bytecode-tier compile of
/// `sources` took: `main`'s, or the last metaprogram's when `main` never
/// ran.
fn steps_taken(sources: &[(String, String)]) -> u64 {
    let interp = Rc::new(RefCell::new(None));
    let seen = Rc::clone(&interp);
    let install = installer(Engine::Bytecode);
    let installer: Rc<dyn Fn(&Compiler)> = Rc::new(move |c: &Compiler| {
        install(c);
        *seen.borrow_mut() = Some(c.interp());
    });
    let _ = maya::core::catch_ice(AssertUnwindSafe(|| {
        Session::new(fuzz_options(1), Some(installer)).compile_sources(sources, &req_opts())
    }));
    let steps = interp.borrow().as_ref().map_or(0, |i| i.steps());
    steps
}

/// The engine oracle: the bytecode tier (the default) against the legacy
/// tree walker, under an optional shared fault.
fn compare_engines(sources: &[(String, String)], fault: Option<&str>) -> Option<String> {
    let suffix = if fault.is_some() { "+fault" } else { "" };
    compare(
        run_fresh(sources, Engine::Bytecode, 1, fault),
        run_fresh(sources, Engine::Legacy, 1, fault),
        &format!("bytecode{suffix}"),
        &format!("legacy{suffix}"),
    )
}

fn diff_block(an: &str, a: &Outcome, bn: &str, b: &Outcome) -> String {
    format!(
        "--- {an}: success={} ---\nstdout:\n{}stderr:\n{}\
         --- {bn}: success={} ---\nstdout:\n{}stderr:\n{}",
        a.success, a.stdout, a.stderr, b.success, b.stdout, b.stderr
    )
}

fn compare(
    a: Result<Outcome, String>,
    b: Result<Outcome, String>,
    an: &str,
    bn: &str,
) -> Option<String> {
    match (a, b) {
        (Ok(x), Ok(y)) => {
            if outcome_sig(&x) == outcome_sig(&y) {
                None
            } else {
                Some(diff_block(an, &x, bn, &y))
            }
        }
        (Err(m), _) => Some(format!("{an} panicked out of the driver: {m}")),
        (_, Err(m)) => Some(format!("{bn} panicked out of the driver: {m}")),
    }
}

/// Which invariant a divergence violated — also the stateless reproduction
/// recipe the minimizer re-runs.
#[derive(Clone)]
enum Oracle {
    /// A fresh bytecode-tier compile panicked out of the driver.
    Panic,
    /// Bytecode VM vs legacy tree walker.
    Engine,
    /// Bytecode VM vs legacy tree walker under this step limit.
    StepLimit(u64),
    /// Same session, same input, compiled twice: replay must match.
    WarmReplay,
    /// Edit then revert through one session vs the original outcome.
    PostEdit,
    /// `--jobs=1` vs `--jobs=4`.
    Jobs,
    /// A fresh 4-worker pool vs a fresh cold compile.
    Pool,
    /// Fresh sessions against an empty then a prewarmed persistent
    /// artifact store vs a store-less cold compile.
    Store,
    /// Both engines under the same armed fault.
    Faults(String),
    /// Fault armed on the legacy side only (`--induce`): a guaranteed
    /// divergence that proves the minimizer.
    Induced(String),
}

impl Oracle {
    fn name(&self) -> &'static str {
        match self {
            Oracle::Panic => "panic",
            Oracle::Engine => "engine",
            Oracle::StepLimit(_) => "step_limit",
            Oracle::WarmReplay => "warm_replay",
            Oracle::PostEdit => "post_edit",
            Oracle::Jobs => "jobs",
            Oracle::Pool => "pool",
            Oracle::Store => "store",
            Oracle::Faults(_) => "faults",
            Oracle::Induced(_) => "induced",
        }
    }
}

/// Oracle::Store, statelessly: a store-less cold compile, a fresh
/// session populating an empty artifact store, and another fresh session
/// hydrating from the now-warm store must be byte-identical. The store
/// is installed on this thread only for the two store-backed runs and
/// its directory is removed afterwards, so neither the campaign nor a
/// minimization step can see stale artifacts.
fn store_check(sources: &[(String, String)]) -> Option<String> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "maya-fuzz-store-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let store = match maya::core::store::ArtifactStore::open(&dir, None) {
        Ok(s) => s,
        Err(e) => return Some(format!("cannot open fuzz store {}: {e}", dir.display())),
    };
    let cold = run_fresh(sources, Engine::Bytecode, 1, None);
    maya::core::store::install_thread(Some(store));
    let populate = run_fresh(sources, Engine::Bytecode, 1, None);
    let warm = run_fresh(sources, Engine::Bytecode, 1, None);
    maya::core::store::install_thread(None);
    let _ = std::fs::remove_dir_all(&dir);
    compare(cold.clone(), populate, "store-off", "store-populate")
        .or_else(|| compare(cold, warm, "store-off", "warm-store"))
}

/// Stateless check: does `sources` still violate `oracle`? Returns the
/// divergence detail when it does. Everything runs in fresh sessions so a
/// minimization step can't poison campaign state.
fn diverges(sources: &[(String, String)], oracle: &Oracle) -> Option<String> {
    match oracle {
        Oracle::Panic => run_fresh(sources, Engine::Bytecode, 1, None)
            .err()
            .map(|m| format!("panic escaped the driver: {m}")),
        Oracle::Engine => compare_engines(sources, None),
        Oracle::StepLimit(limit) => compare(
            run_limited(sources, Engine::Bytecode, *limit),
            run_limited(sources, Engine::Legacy, *limit),
            "bytecode",
            "legacy",
        ),
        Oracle::Jobs => compare(
            run_fresh(sources, Engine::Bytecode, 1, None),
            run_fresh(sources, Engine::Bytecode, 4, None),
            "jobs=1",
            "jobs=4",
        ),
        Oracle::Pool => match run_fresh(sources, Engine::Bytecode, 1, None) {
            Err(m) => Some(format!("cold baseline panicked: {m}")),
            Ok(cold) => compare_pool(&cold, &fuzz_pool(4), "min", sources),
        },
        Oracle::Store => store_check(sources),
        Oracle::Faults(spec) => compare_engines(sources, Some(spec)),
        Oracle::Induced(spec) => compare(
            run_fresh(sources, Engine::Bytecode, 1, None),
            run_fresh(sources, Engine::Legacy, 1, Some(spec)),
            "bytecode",
            "legacy+fault",
        ),
        Oracle::WarmReplay => {
            let r = maya::core::catch_ice(AssertUnwindSafe(|| {
                let mut s = fresh_session(Engine::Bytecode, 1);
                let first = s.compile_sources(sources, &req_opts());
                let replay = s.compile_sources(sources, &req_opts());
                (first, replay)
            }));
            match r {
                Err(m) => Some(format!("warm replay panicked: {m}")),
                Ok((first, replay)) => {
                    if outcome_sig(&first) == outcome_sig(&replay) {
                        None
                    } else {
                        Some(diff_block("first", &first, "replay", &replay))
                    }
                }
            }
        }
        Oracle::PostEdit => {
            let mut s = fresh_session(Engine::Bytecode, 1);
            match maya::core::catch_ice(AssertUnwindSafe(|| {
                s.compile_sources(sources, &req_opts())
            })) {
                Err(m) => Some(format!("post-edit cycle panicked: {m}")),
                Ok(first) => post_edit_check(&mut s, sources, &first),
            }
        }
    }
}

/// `FuzzHot.twice` as [`HOT_HELPER`] declares it, and retyped to return
/// `String`.
const TWICE_INT: &str = "int twice(int k) { return get() + leaf(k); }";
const TWICE_STRING: &str = "String twice(int k) { return \"\" + get() + leaf(k); }";

/// The post-edit oracle's edits of `sources`: a class appended to the last
/// file; a signature edit that retypes `FuzzHot.twice` to return
/// `String`; and, in a case with more than one file, an empty class
/// appended to the first file. The helper sits after `main`, so `main`
/// keeps its tokens and spans while the type of its call `h.twice(i)`
/// changes. The class in the first file shifts the `ClassId` of every
/// class declared in a later file while their tokens stay the same, and
/// the revert that follows the last edit shifts them back. A case whose
/// helper a mutation broke gets no signature edit.
fn post_edits(sources: &[(String, String)]) -> Vec<Vec<(String, String)>> {
    let appended = |at: usize, class: &str| {
        let mut edited = sources.to_vec();
        edited[at].1.push_str(&format!("\nclass {class} {{ }}\n"));
        edited
    };
    let mut edits = Vec::new();
    if let Some(last) = sources.len().checked_sub(1) {
        edits.push(appended(last, "ZZFuzzEdit"));
    }
    if sources.iter().any(|(_, src)| src.contains(TWICE_INT)) {
        edits.push(
            sources
                .iter()
                .map(|(n, src)| (n.clone(), src.replacen(TWICE_INT, TWICE_STRING, 1)))
                .collect(),
        );
    }
    if sources.len() > 1 {
        edits.push(appended(0, "ZZFuzzFirst"));
    }
    edits
}

/// Drives one warm session through [`post_edits`] and back: every edited
/// outcome must equal a cold compile of the edited sources, and the
/// revert must land on `original`, the cold outcome of `sources`.
fn post_edit_check(
    s: &mut Session,
    sources: &[(String, String)],
    original: &Outcome,
) -> Option<String> {
    for (k, edited) in post_edits(sources).iter().enumerate() {
        let warm =
            maya::core::catch_ice(AssertUnwindSafe(|| s.compile_sources(edited, &req_opts())));
        let cold = run_fresh(edited, Engine::Bytecode, 1, None);
        let (cn, wn) = (format!("cold edit {k}"), format!("warm edit {k}"));
        if let Some(d) = compare(cold, warm, &cn, &wn) {
            return Some(d);
        }
    }
    let back = maya::core::catch_ice(AssertUnwindSafe(|| s.compile_sources(sources, &req_opts())));
    compare(Ok(original.clone()), back, "cold", "post-edit revert")
}

// ---- minimization ------------------------------------------------------------

/// Delta-debugs `sources` down while `oracle` still diverges: whole files
/// first, then ddmin over each file's lines (one generated statement,
/// member, or extension item per line). Bounded by `MAX_MIN_EVALS`
/// predicate evaluations.
fn minimize(mut sources: Vec<(String, String)>, oracle: &Oracle) -> Vec<(String, String)> {
    let mut evals = 0usize;
    let check = |cand: &[(String, String)], evals: &mut usize| -> bool {
        if *evals >= MAX_MIN_EVALS {
            return false;
        }
        *evals += 1;
        diverges(cand, oracle).is_some()
    };

    // File granularity.
    let mut i = 0;
    while sources.len() > 1 && i < sources.len() {
        let mut cand = sources.clone();
        cand.remove(i);
        if check(&cand, &mut evals) {
            sources = cand;
        } else {
            i += 1;
        }
    }

    // Line granularity (ddmin) per file.
    for fi in 0..sources.len() {
        let mut lines: Vec<String> = sources[fi].1.lines().map(str::to_owned).collect();
        let mut n = 2usize;
        while lines.len() >= 2 && n <= lines.len() && evals < MAX_MIN_EVALS {
            let chunk = lines.len().div_ceil(n);
            let mut removed_any = false;
            let mut start = 0;
            while start < lines.len() {
                let end = (start + chunk).min(lines.len());
                let mut cand_lines = lines.clone();
                cand_lines.drain(start..end);
                let mut cand = sources.clone();
                cand[fi].1 = format!("{}\n", cand_lines.join("\n"));
                if check(&cand, &mut evals) {
                    lines = cand_lines;
                    sources = cand;
                    removed_any = true;
                    // Same start now addresses the next chunk.
                } else {
                    start = end;
                }
            }
            if removed_any {
                n = n.saturating_sub(1).max(2);
            } else {
                n *= 2;
            }
        }
    }
    sources
}

// ---- coverage signal ---------------------------------------------------------

/// Buckets a per-case telemetry report into (dimension, log2-magnitude)
/// pairs. A case is kept as a corpus seed iff it lights a pair no earlier
/// case lit — counters answer "did new machinery run", the magnitude
/// bucket answers "did it run at a new order of magnitude".
fn coverage_pairs(r: &telemetry::Report) -> Vec<(u16, u8)> {
    let mut pairs = Vec::new();
    for (i, c) in Counter::ALL.iter().enumerate() {
        let v = r.counter(*c);
        if v > 0 {
            pairs.push((i as u16, v.ilog2() as u8));
        }
    }
    let base = Counter::ALL.len() as u16;
    for (i, id) in CacheId::ALL.iter().enumerate() {
        let cs = r.cache(*id);
        if cs.hits > 0 {
            pairs.push((base + i as u16, cs.hits.ilog2() as u8));
        }
        if cs.misses > 0 {
            pairs.push((base + 64 + i as u16, cs.misses.ilog2() as u8));
        }
    }
    pairs
}

// ---- the campaign ------------------------------------------------------------

struct DivergenceReport {
    oracle: &'static str,
    case_index: usize,
    induced: bool,
    /// The stateless predicate reproduced the divergence and ddmin ran.
    minimized: bool,
    files: Vec<(String, String)>,
    detail: String,
}

#[derive(Default)]
struct Stats {
    cases: usize,
    clean: usize,
    diagnosed: usize,
    extension_cases: usize,
    generated_extensions: usize,
    escaped_panics: usize,
    corpus_kept: usize,
    engine_runs: usize,
    warm_runs: usize,
    post_edit_runs: usize,
    jobs_runs: usize,
    pool_runs: usize,
    store_runs: usize,
    fault_runs: usize,
    table_runs: usize,
    table_mismatches: usize,
    /// Cases in which some run switched a frame to an on-stack refined
    /// copy.
    osr_cases: usize,
    step_limit_runs: usize,
    /// Step-limit reruns whose bytecode run stopped at the limit.
    step_limit_hits: usize,
}

pub(crate) fn run(cfg: &FuzzConfig) -> ExitCode {
    let started = std::time::Instant::now();
    let root = crate::repo_root();
    let gen = GrammarGen::new();
    let opts = req_opts();
    let base_built = maya::core::Base::cached()
        .grammar
        .build_full()
        .expect("the base grammar is LALR(1)");

    // The persistent pair: one session per execution tier, both living
    // across the whole campaign like a long-running `mayad` fed hundreds
    // of unrelated requests.
    let mut warm = fresh_session(Engine::Bytecode, 1);
    let mut legacy = fresh_session(Engine::Legacy, 1);
    // ... plus the concurrent face of the same shape: a 4-worker pool fed
    // every case for a rotating client, like `mayad --workers=4` serving
    // four long-lived clients at once.
    let pool = fuzz_pool(4);

    let mut stats = Stats::default();
    let mut seen_pairs: HashSet<(u16, u8)> = HashSet::new();
    let mut corpus: Vec<Vec<(String, String)>> = Vec::new();
    let mut reports: Vec<DivergenceReport> = Vec::new();

    let fault_pool = [
        "lex:error",
        "lex:panic",
        "parse:error",
        "parse:panic",
        "dispatch:error",
        "dispatch:panic",
        "template:error",
        "template:panic",
        "type_check:error",
        "type_check:panic",
        "interp:error",
        "interp:panic",
        "dispatch:loop",
        "interp:loop",
    ];

    let record = |oracle: Oracle,
                      case_index: usize,
                      sources: &[(String, String)],
                      detail: String,
                      reports: &mut Vec<DivergenceReport>,
                      stats: &mut Stats| {
        let induced = matches!(oracle, Oracle::Induced(_));
        if matches!(oracle, Oracle::Panic) {
            stats.escaped_panics += 1;
        }
        eprintln!(
            "xtask fuzz: case {case_index}: {} divergence{}",
            oracle.name(),
            if induced { " (induced)" } else { "" }
        );
        // Reproduce statelessly, then shrink.
        let reproduced = diverges(sources, &oracle).is_some();
        let (files, minimized) = if reproduced {
            (minimize(sources.to_vec(), &oracle), true)
        } else {
            (sources.to_vec(), false)
        };
        let final_detail = if minimized {
            diverges(&files, &oracle).unwrap_or(detail)
        } else {
            detail
        };
        reports.push(DivergenceReport {
            oracle: oracle.name(),
            case_index,
            induced,
            minimized,
            files,
            detail: final_detail,
        });
    };

    for i in 0..cfg.cases {
        if let Some(limit) = cfg.budget_secs {
            if started.elapsed().as_secs() >= limit {
                eprintln!("xtask fuzz: budget exhausted after {i} cases");
                break;
            }
        }
        stats.cases += 1;
        let mut rng = XorShift::new(cfg.seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));

        // Generate: fresh from the grammar, or mutate a kept seed.
        let case = if !corpus.is_empty() && rng.below(100) < 20 {
            let mut sources = corpus[rng.below(corpus.len())].clone();
            mutate(&mut rng, &mut sources);
            Case {
                sources,
                extensions: Vec::new(),
            }
        } else {
            gen_case(&mut rng, &gen, i)
        };
        if !case.extensions.is_empty() {
            stats.extension_cases += 1;
            stats.generated_extensions += case.extensions.len();
            let (checked, mismatch) = check_derivations(&base_built, &case.extensions);
            stats.table_runs += checked;
            if let Some(detail) = mismatch {
                eprintln!("xtask fuzz: case {i}: tables divergence: {detail}");
                stats.table_mismatches += 1;
            }
        }
        let sources = &case.sources;
        if std::env::var_os("MAYA_FUZZ_DUMP").is_some() {
            for (name, src) in sources {
                eprintln!("=== case {i}: {name} ===\n{src}");
            }
        }

        let t = telemetry::Session::start(telemetry::Config::default());

        // Baseline: a cold batch compile (fresh session, bytecode tier).
        let cold = run_fresh(sources, Engine::Bytecode, 1, None);
        let cold = match cold {
            Err(m) => {
                record(
                    Oracle::Panic,
                    i,
                    sources,
                    format!("panic escaped the driver: {m}"),
                    &mut reports,
                    &mut stats,
                );
                t.finish();
                continue;
            }
            Ok(o) => o,
        };
        if cold.success {
            stats.clean += 1;
        } else {
            stats.diagnosed += 1;
        }

        // Oracle: warm persistent session must match the cold batch.
        stats.warm_runs += 1;
        let warm_out = maya::core::catch_ice(AssertUnwindSafe(|| {
            warm.compile_sources(sources, &opts)
        }));
        if let Some(detail) = compare(Ok(cold.clone()), warm_out, "cold", "warm session") {
            warm.reset();
            record(Oracle::WarmReplay, i, sources, detail, &mut reports, &mut stats);
        }

        // Oracle: the legacy tier (a persistent session) must match the
        // bytecode baseline byte for byte.
        stats.engine_runs += 1;
        let legacy_out = maya::core::catch_ice(AssertUnwindSafe(|| {
            legacy.compile_sources(sources, &opts)
        }));
        if let Some(detail) = compare(Ok(cold.clone()), legacy_out, "bytecode", "legacy") {
            legacy.reset();
            record(Oracle::Engine, i, sources, detail, &mut reports, &mut stats);
        }

        // Oracle: --jobs=N must be byte-identical.
        stats.jobs_runs += 1;
        if let Some(detail) =
            compare(Ok(cold.clone()), run_fresh(sources, Engine::Bytecode, 4, None), "jobs=1", "jobs=4")
        {
            record(Oracle::Jobs, i, sources, detail, &mut reports, &mut stats);
        }

        // Oracle: the persistent worker pool must answer with exactly the
        // cold outcome, whichever of its four clients (and thus worker
        // threads and Arc-shared warm tiers) the case lands on.
        stats.pool_runs += 1;
        if let Some(detail) = compare_pool(&cold, &pool, &format!("c{}", i % 4), sources) {
            record(Oracle::Pool, i, sources, detail, &mut reports, &mut stats);
        }

        // Oracle: a session populating a fresh persistent store, then a
        // session hydrating from it, must both match the store-less cold
        // compile byte for byte.
        stats.store_runs += 1;
        if let Some(detail) = store_check(sources) {
            record(Oracle::Store, i, sources, detail, &mut reports, &mut stats);
        }

        // Oracle: edits through the warm session match cold compiles of
        // the edited sources, and the revert lands back on the cold
        // outcome (the invalidation cone must be exact both ways).
        stats.post_edit_runs += 1;
        if let Some(detail) = post_edit_check(&mut warm, sources, &cold) {
            warm.reset();
            record(Oracle::PostEdit, i, sources, detail, &mut reports, &mut stats);
        }

        // Oracle: sampled fault injection, armed identically on both
        // engines. Diagnostics may differ from the clean run; the engines
        // must still agree, and no panic may escape.
        if i % 4 == 0 {
            stats.fault_runs += 1;
            let spec = fault_pool[rng.below(fault_pool.len())].to_owned();
            let oracle = Oracle::Faults(spec.clone());
            if let Some(detail) = diverges(sources, &oracle) {
                if detail.contains("panicked out of the driver") {
                    stats.escaped_panics += 1;
                }
                record(oracle, i, sources, detail, &mut reports, &mut stats);
            }
        }

        // Induced divergence (--induce): fault the legacy side only, so a
        // divergence is guaranteed whenever the site is reached — proves
        // the detector and the minimizer against a known-bad world.
        if cfg.induce && i % 10 == 5 {
            let oracle = Oracle::Induced("dispatch:error".to_owned());
            if let Some(detail) = diverges(sources, &oracle) {
                record(oracle, i, sources, detail, &mut reports, &mut stats);
            }
        }

        // Coverage: keep the case as a seed iff it lit a new
        // (counter, magnitude) pair.
        let report = t.finish();
        if report.counter(Counter::BcOsrSwitches) > 0 {
            stats.osr_cases += 1;
        }
        let mut new_pair = false;
        for p in coverage_pairs(&report) {
            if seen_pairs.insert(p) {
                new_pair = true;
            }
        }
        if new_pair {
            corpus.push(sources.clone());
            stats.corpus_kept += 1;
        }

        // Oracle: every third case runs on both tiers again under a seeded
        // step limit below its own step count. The bytecode tier charges a
        // straight run of statements at once, and must still stop where
        // the walker stops. Outside the coverage session, so the seeds the
        // campaign keeps stay as they were.
        if i % 3 == 1 {
            let steps = steps_taken(sources);
            if steps > 1 {
                let limit = 1 + rng.below(steps as usize - 1) as u64;
                stats.step_limit_runs += 1;
                let bytecode = run_limited(sources, Engine::Bytecode, limit);
                if bytecode.as_ref().is_ok_and(|o| o.stderr.contains("step limit")) {
                    stats.step_limit_hits += 1;
                }
                let legacy = run_limited(sources, Engine::Legacy, limit);
                if let Some(detail) = compare(bytecode, legacy, "bytecode", "legacy") {
                    let oracle = Oracle::StepLimit(limit);
                    record(oracle, i, sources, detail, &mut reports, &mut stats);
                }
            }
        }
    }

    // Land minimized real divergences as regression cases; induced ones
    // are the minimizer's proof and stay out of the committed tree.
    let real: Vec<&DivergenceReport> = reports.iter().filter(|r| !r.induced).collect();
    let induced: Vec<&DivergenceReport> = reports.iter().filter(|r| r.induced).collect();
    for (k, r) in real.iter().enumerate() {
        let dir = root.join("tests/corpus/regressions").join(format!(
            "{}_seed{}_case{}_{k}",
            r.oracle, cfg.seed, r.case_index
        ));
        if let Err(e) = write_divergence(&dir, r) {
            eprintln!("xtask fuzz: cannot write {}: {e}", dir.display());
        } else {
            eprintln!("xtask fuzz: minimized case written to {}", dir.display());
        }
    }
    for (k, r) in induced.iter().enumerate() {
        let dir = root
            .join("target/fuzz/minimized")
            .join(format!("{}_seed{}_case{}_{k}", r.oracle, cfg.seed, r.case_index));
        let _ = write_divergence(&dir, r);
    }

    let elapsed = started.elapsed().as_secs_f64();
    let unminimized = reports.iter().filter(|r| !r.minimized).count();
    let doc = render_report(cfg, &stats, &reports, unminimized);
    let out_path = root.join("BENCH_fuzz.json");
    if let Err(e) = std::fs::write(&out_path, &doc) {
        eprintln!("xtask fuzz: cannot write {}: {e}", out_path.display());
        return ExitCode::FAILURE;
    }

    println!(
        "xtask fuzz: {} cases (seed {}) in {elapsed:.1}s: {} clean, {} diagnosed, \
         {} with generated extensions ({} extensions), {} corpus seeds kept",
        stats.cases,
        cfg.seed,
        stats.clean,
        stats.diagnosed,
        stats.extension_cases,
        stats.generated_extensions,
        stats.corpus_kept
    );
    println!(
        "xtask fuzz: oracle runs: engine {}, warm {}, post-edit {}, jobs {}, pool {}, \
         store {}, faults {}, tables {} ({} mismatched)",
        stats.engine_runs,
        stats.warm_runs,
        stats.post_edit_runs,
        stats.jobs_runs,
        stats.pool_runs,
        stats.store_runs,
        stats.fault_runs,
        stats.table_runs,
        stats.table_mismatches
    );
    println!(
        "xtask fuzz: {} cases switched a frame to an on-stack refined copy",
        stats.osr_cases
    );
    println!(
        "xtask fuzz: {} step-limit reruns, {} stopped at the limit",
        stats.step_limit_runs, stats.step_limit_hits
    );
    println!(
        "xtask fuzz: {} escaped panics, {} divergences ({} induced), {} unminimized; \
         report at {}",
        stats.escaped_panics,
        reports.len(),
        induced.len(),
        unminimized,
        out_path.display()
    );

    // Gates. Real divergences and escaped panics always fail; induced
    // divergences are expected under --induce but must all have minimized.
    let mut failed = false;
    if stats.escaped_panics > 0 {
        eprintln!("xtask fuzz: FAILED: {} panics escaped the driver", stats.escaped_panics);
        failed = true;
    }
    if stats.table_mismatches > 0 {
        eprintln!(
            "xtask fuzz: FAILED: {} derived table sets differ from full builds",
            stats.table_mismatches
        );
        failed = true;
    }
    if !real.is_empty() {
        eprintln!("xtask fuzz: FAILED: {} real divergences (see BENCH_fuzz.json)", real.len());
        failed = true;
    }
    if unminimized > 0 {
        eprintln!("xtask fuzz: FAILED: {unminimized} divergences could not be minimized");
        failed = true;
    }
    if cfg.induce && induced.is_empty() {
        eprintln!("xtask fuzz: FAILED: --induce produced no divergence (detector is blind)");
        failed = true;
    }
    if stats.cases >= 10 && stats.extension_cases * 10 < stats.cases {
        eprintln!(
            "xtask fuzz: FAILED: only {}/{} cases carried a generated Mayan extension \
             (need at least 1 in 10)",
            stats.extension_cases, stats.cases
        );
        failed = true;
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn write_divergence(dir: &Path, r: &DivergenceReport) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for (name, src) in &r.files {
        std::fs::write(dir.join(name), src)?;
    }
    let mut repro = String::new();
    let _ = writeln!(repro, "oracle: {}", r.oracle);
    let _ = writeln!(repro, "case: {}", r.case_index);
    let _ = writeln!(repro, "induced: {}", r.induced);
    let _ = writeln!(repro, "minimized: {}", r.minimized);
    let _ = writeln!(repro, "\n{}", r.detail);
    std::fs::write(dir.join("REPRO.txt"), repro)
}

fn render_report(
    cfg: &FuzzConfig,
    s: &Stats,
    reports: &[DivergenceReport],
    unminimized: usize,
) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"maya-fuzz/1\",");
    let _ = writeln!(out, "  \"cases\": {},", s.cases);
    let _ = writeln!(out, "  \"seed\": {},", cfg.seed);
    let _ = writeln!(out, "  \"induce\": {},", cfg.induce);
    let _ = writeln!(out, "  \"clean\": {},", s.clean);
    let _ = writeln!(out, "  \"diagnosed\": {},", s.diagnosed);
    let _ = writeln!(out, "  \"extension_cases\": {},", s.extension_cases);
    let _ = writeln!(out, "  \"generated_extensions\": {},", s.generated_extensions);
    let _ = writeln!(out, "  \"oracle_runs\": {{");
    let _ = writeln!(out, "    \"engine\": {},", s.engine_runs);
    let _ = writeln!(out, "    \"warm_replay\": {},", s.warm_runs);
    let _ = writeln!(out, "    \"post_edit\": {},", s.post_edit_runs);
    let _ = writeln!(out, "    \"jobs\": {},", s.jobs_runs);
    let _ = writeln!(out, "    \"pool\": {},", s.pool_runs);
    let _ = writeln!(out, "    \"store\": {},", s.store_runs);
    let _ = writeln!(out, "    \"faults\": {},", s.fault_runs);
    let _ = writeln!(out, "    \"step_limit\": {},", s.step_limit_runs);
    let _ = writeln!(out, "    \"tables\": {}", s.table_runs);
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"escaped_panics\": {},", s.escaped_panics);
    let _ = writeln!(out, "  \"table_mismatches\": {},", s.table_mismatches);
    let _ = writeln!(out, "  \"osr_cases\": {},", s.osr_cases);
    let _ = writeln!(out, "  \"step_limit_hits\": {},", s.step_limit_hits);
    let _ = writeln!(out, "  \"divergences\": {},", reports.len());
    let _ = writeln!(
        out,
        "  \"induced_divergences\": {},",
        reports.iter().filter(|r| r.induced).count()
    );
    let _ = writeln!(out, "  \"unminimized_divergences\": {unminimized},");
    let _ = writeln!(out, "  \"corpus_kept\": {},", s.corpus_kept);
    out.push_str("  \"divergence_reports\": [");
    let blocks: Vec<String> = reports
        .iter()
        .map(|r| {
            let files: Vec<String> = r
                .files
                .iter()
                .map(|(n, src)| {
                    format!(
                        "        {{\"name\": {}, \"source\": {}}}",
                        json_string(n),
                        json_string(src)
                    )
                })
                .collect();
            format!(
                "\n    {{\n      \"oracle\": {},\n      \"case\": {},\n      \
                 \"induced\": {},\n      \"minimized\": {},\n      \"detail\": {},\n      \
                 \"files\": [\n{}\n      ]\n    }}",
                json_string(r.oracle),
                r.case_index,
                r.induced,
                r.minimized,
                json_string(&r.detail),
                files.join(",\n")
            )
        })
        .collect();
    out.push_str(&blocks.join(","));
    if !reports.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}
