//! The compile driver: the parser [`Driver`] that dispatches Mayans, the
//! lazy-forcing machinery, the [`ExpandCtx`] given to Mayan bodies, and the
//! template instantiation host.

use crate::compiler::CompilerInner;
use crate::CompileError;
use maya_ast::{
    ClassDecl, CtorDecl, Decl, Expr, ExprKind, InterfaceDecl, LazyCell, LazyNode, MethodDecl,
    Node, NodeKind, TypeName, TypeNameKind,
};
use maya_dispatch::{
    order_applicable, Bindings, DispatchEnv, DispatchError, ExpandCtx, Mayan,
};
use maya_grammar::{Action, BuiltinAction, Grammar, NtId, ProdId, Sym};
use maya_interp::Interp;
use maya_lexer::{DelimTree, Span, Symbol, TokenTree};
use maya_parser::{run_parse, Driver, DriverOut, Input, ParseError};
use maya_template::{InstHost, Template, TemplateThunk};
use maya_types::{CheckHost, Checker, ClassId, ClassTable, ResolveCtx, Scope, Type, TypeError};
use std::cell::RefCell;
use std::rc::Rc;

/// A grammar snapshot paired with its dispatch environment — the unit of
/// lexical scoping for syntax imports.
#[derive(Clone)]
pub struct EnvPair {
    pub grammar: Grammar,
    pub denv: DispatchEnv,
}

/// The payload captured into a lazy node: the environment it must be parsed
/// under (paper §4: "syntax that follows an imported Mayan must be parsed
/// lazily, after the Mayan defines any new productions").
pub struct LazyEnvPayload {
    pub pair: EnvPair,
    pub ctx: ResolveCtx,
    pub class: Option<ClassId>,
}

/// Reinterprets an expression as a type name (the `Vector[] v;` statement
/// trick: declaration statements parse their leading type as an expression).
///
/// # Errors
///
/// Fails when the expression is not name-shaped.
pub fn expr_as_type(e: &Expr) -> Result<TypeName, DispatchError> {
    fn collect(e: &Expr, out: &mut Vec<maya_ast::Ident>) -> bool {
        match &e.kind {
            ExprKind::Name(i) => {
                out.push(*i);
                true
            }
            ExprKind::FieldAccess(t, i) => {
                if !collect(t, out) {
                    return false;
                }
                out.push(*i);
                true
            }
            _ => false,
        }
    }
    match &e.kind {
        ExprKind::ClassRef(fqcn) => Ok(TypeName::new(e.span, TypeNameKind::Strict(*fqcn))),
        ExprKind::TypeDims(inner) => Ok(expr_as_type(inner)?.array_of()),
        _ => {
            let mut parts = Vec::new();
            if collect(e, &mut parts) {
                Ok(TypeName::new(e.span, TypeNameKind::Named(parts)))
            } else {
                Err(DispatchError::new(
                    "expected a type before the declared variable",
                    e.span,
                ))
            }
        }
    }
}

/// Renders a semantic type back to strict type-name syntax (immune to
/// shadowing at the splice site).
///
/// # Errors
///
/// Fails for types that cannot be named in source (`null`, `void`).
pub fn type_to_strict(
    ct: &maya_types::ClassTable,
    ty: &maya_types::Type,
) -> Result<TypeName, DispatchError> {
    use maya_types::Type as T;
    match ty {
        T::Prim(p) => Ok(TypeName::prim(*p)),
        T::Class(c) => Ok(TypeName::strict(ct.fqcn(*c))),
        T::Array(el) => Ok(type_to_strict(ct, el)?.array_of()),
        other => Err(DispatchError::new(
            format!("cannot name type {} in generated code", ct.describe(other)),
            Span::DUMMY,
        )),
    }
}

/// Renders a production for diagnostics (`Statement → MethodName … lazy-block`).
pub fn describe_prod(grammar: &Grammar, prod: ProdId) -> String {
    let p = grammar.production(prod);
    let mut out = format!("{} →", grammar.nt_def(p.lhs).name);
    for s in &p.rhs {
        out.push(' ');
        match s {
            Sym::T(t) => out.push_str(&t.to_string()),
            Sym::N(nt) => out.push_str(grammar.nt_def(*nt).name.as_str()),
        }
    }
    out
}

/// Shared context of one parse/expand activity.
#[derive(Clone)]
pub struct Cx {
    pub cx: Rc<CompilerInner>,
    pub pair: EnvPair,
    pub ctx: ResolveCtx,
    pub class: Option<ClassId>,
    pub scope: Rc<RefCell<Scope>>,
}

impl Cx {
    fn payload(&self) -> Rc<LazyEnvPayload> {
        Rc::new(LazyEnvPayload {
            pair: self.pair.clone(),
            ctx: self.ctx.clone(),
            class: self.class,
        })
    }

    /// Parses token trees with the given goal nonterminal under this
    /// context.
    pub fn parse_trees(&self, trees: &[TokenTree], goal: NtId) -> Result<Node, ParseError> {
        let input: Vec<Input<Node>> = Input::from_token_trees(trees);
        self.parse_input(&input, goal)
    }

    /// Parses prepared engine input — tokens, trees, or pre-built
    /// nonterminal leaves (error recovery splices poison nodes this way).
    pub fn parse_input(&self, input: &[Input<Node>], goal: NtId) -> Result<Node, ParseError> {
        if let Err(m) = crate::faults::trip("parse") {
            return Err(ParseError::new(m, Span::DUMMY));
        }
        let mut driver = CoreDriver { c: self.clone() };
        run_parse(&self.pair.grammar, input, goal, &mut driver)
    }

    /// Parses a delimiter tree's contents to a node kind.
    pub fn parse_tree_kind(&self, tree: &DelimTree, kind: NodeKind) -> Result<Node, DispatchError> {
        let goal = self.pair.grammar.nt_for_kind_lattice(kind).ok_or_else(|| {
            DispatchError::new(
                format!("no grammar nonterminal for {}", kind.name()),
                tree.span(),
            )
        })?;
        self.parse_trees(&tree.trees, goal)
            .map_err(|e| DispatchError::new(e.message, e.span))
    }

    /// Resolves the static type of an expression under this context's scope.
    pub fn static_type(&self, e: &Expr) -> Result<Type, TypeError> {
        let mut scope = self.scope.borrow_mut();
        let mut host = ForceHost { c: self.clone() };
        let ct = self.cx.classes.clone();
        let mut checker = Checker::new(&ct, &self.ctx, &mut host);
        checker.type_of_expr(e, &mut scope)
    }

    /// The semantic action of `prod` on `args` — builtins inline, node-type
    /// productions through full Mayan dispatch.
    ///
    /// # Errors
    ///
    /// Propagates dispatch failures ("no applicable Mayan", ambiguity,
    /// Mayan body errors).
    pub fn reduce(&self, prod: ProdId, args: Vec<Node>, span: Span) -> Result<Node, DispatchError> {
        // Expansion fuel: every materialized node costs one unit, so a
        // Mayan that expands to ever-growing syntax terminates with a
        // diagnostic instead of consuming all memory.
        let fuel = self.cx.expand_fuel.get();
        if fuel == 0 {
            maya_telemetry::count(maya_telemetry::Counter::FuelLimitHits);
            return Err(DispatchError::new(
                format!(
                    "expansion fuel exhausted ({} nodes materialized); \
                     a syntax extension may be expanding without bound",
                    self.cx.options.expand_fuel
                ),
                span,
            ));
        }
        self.cx.expand_fuel.set(fuel - 1);
        let action = self.pair.grammar.production(prod).action;
        match action {
            Action::Builtin(b) => self.apply_builtin(b, args, span),
            Action::Dispatch => {
                let this = self.clone();
                let mut type_of = move |e: &Expr| this.static_type(e).ok();
                // The description is rendered lazily: only diagnostics and
                // expansion traces pay for it, never the hot path.
                let grammar = self.pair.grammar.clone();
                let chain = order_applicable(
                    &self.pair.denv,
                    &self.cx.classes,
                    prod,
                    || describe_prod(&grammar, prod),
                    &args,
                    &mut type_of,
                    span,
                )?;
                self.run_chain(Rc::new(chain), 0, span)
            }
        }
    }

    pub(crate) fn run_chain(
        &self,
        chain: Rc<Vec<(Rc<Mayan>, Bindings)>>,
        idx: usize,
        span: Span,
    ) -> Result<Node, DispatchError> {
        let (mayan, bindings) = chain[idx].clone();
        let name = mayan.name;
        maya_telemetry::count(maya_telemetry::Counter::MayansFired);
        match crate::faults::check("dispatch") {
            Some(crate::faults::FaultAction::Panic) => panic!("injected fault at dispatch"),
            Some(crate::faults::FaultAction::Error) => {
                return Err(DispatchError::new("internal: injected fault at dispatch", span))
            }
            // `loop` models a runaway expansion: burn the remaining fuel so
            // the fuel guard must trip on the next materialized node.
            Some(crate::faults::FaultAction::Loop) => self.cx.expand_fuel.set(0),
            None => {}
        }
        // Depth guard: a Mayan whose expansion re-dispatches itself (via
        // templates or re-parsing) recurses through here; cut it off with a
        // diagnostic naming the Mayan instead of blowing the stack.
        let limit = self.cx.options.max_expand_depth;
        let depth = self.cx.expand_depth.get() + 1;
        if depth > limit {
            maya_telemetry::count(maya_telemetry::Counter::DepthLimitHits);
            return Err(DispatchError::new(
                format!(
                    "expansion depth limit ({limit}) exceeded while expanding Mayan {name}; \
                     is it expanding to syntax it matches itself?"
                ),
                span,
            ));
        }
        self.cx.expand_depth.set(depth);
        let mut expand = CoreExpand {
            c: self.clone(),
            chain,
            idx,
            span,
        };
        // Sandbox: a metaprogram bug (panic) becomes a located diagnostic
        // naming the Mayan, never a compiler abort.
        let result = crate::sandbox::catch(move || (mayan.body)(&bindings, &mut expand));
        self.cx.expand_depth.set(self.cx.expand_depth.get() - 1);
        match result {
            Ok(r) => r,
            Err(panic_msg) => {
                maya_telemetry::count(maya_telemetry::Counter::MayanPanics);
                Err(DispatchError::new(
                    format!("internal: Mayan {name} panicked during expansion: {panic_msg}"),
                    span,
                ))
            }
        }
    }

    fn apply_builtin(
        &self,
        b: BuiltinAction,
        mut args: Vec<Node>,
        span: Span,
    ) -> Result<Node, DispatchError> {
        match b {
            BuiltinAction::PassThrough(i) => Ok(args.swap_remove(i)),
            BuiltinAction::EmptyList => Ok(Node::List(vec![])),
            BuiltinAction::ListSingle => Ok(Node::List(args)),
            BuiltinAction::ListAppend { .. } => {
                let item = args.pop().ok_or_else(|| {
                    DispatchError::new("internal: list append without item", span)
                })?;
                let mut list = match args.into_iter().next() {
                    Some(Node::List(l)) => l,
                    _ => return Err(DispatchError::new("internal: list append target", span)),
                };
                list.push(item);
                Ok(Node::List(list))
            }
            BuiltinAction::StartAccept => Ok(args.swap_remove(1)),
            BuiltinAction::Bundle => Ok(Node::List(args)),
            BuiltinAction::ParseSubtree { goal } => {
                let tree = tree_arg(&args, span)?;
                self.parse_trees(&tree.trees, goal)
                    .map_err(|e| DispatchError::new(e.message, e.span))
            }
            BuiltinAction::LazySubtree { kind, .. } => {
                let tree = tree_arg(&args, span)?;
                self.cx.lazy_created.set(self.cx.lazy_created.get() + 1);
                Ok(Node::Lazy(LazyNode::new(kind, tree, Some(self.payload()))))
            }
        }
    }

    /// Creates a lazy node capturing this context's environment.
    pub fn make_lazy(&self, tree: DelimTree, kind: NodeKind) -> Node {
        self.cx.lazy_created.set(self.cx.lazy_created.get() + 1);
        Node::Lazy(LazyNode::new(kind, tree, Some(self.payload())))
    }

    /// Instantiates a compiled template under this context.
    ///
    /// # Errors
    ///
    /// Propagates dispatch failures from replayed reductions.
    pub fn instantiate(&self, t: &Template, values: Vec<Node>) -> Result<Node, DispatchError> {
        if let Err(m) = crate::faults::trip("template") {
            return Err(DispatchError::new(m, Span::DUMMY));
        }
        let mut host = CoreInstHost { c: self.clone() };
        let result = crate::sandbox::catch(move || t.instantiate(values, &mut host));
        match result {
            Ok(r) => r,
            Err(panic_msg) => {
                maya_telemetry::count(maya_telemetry::Counter::MayanPanics);
                Err(DispatchError::new(
                    format!("internal: template instantiation panicked: {panic_msg}"),
                    Span::DUMMY,
                ))
            }
        }
    }
}

fn tree_arg(args: &[Node], span: Span) -> Result<DelimTree, DispatchError> {
    match args.last() {
        Some(Node::Tree(TokenTree::Delim(d))) => Ok(d.clone()),
        _ => Err(DispatchError::new(
            "internal: expected a delimiter tree argument",
            span,
        )),
    }
}

// ---- the parser driver --------------------------------------------------------

/// The semantic parser driver: builds AST nodes, dispatches Mayans, handles
/// `use` imports with mid-stream environment switching.
pub struct CoreDriver {
    pub c: Cx,
}

impl Driver for CoreDriver {
    type V = Node;

    fn marker(&mut self) -> Node {
        Node::Unit
    }

    fn shift_token(&mut self, tok: &maya_lexer::Token) -> Node {
        Node::Token(*tok)
    }

    fn shift_tree(
        &mut self,
        tree: &DelimTree,
        _pattern: Option<&Rc<Vec<Input<Node>>>>,
    ) -> Node {
        Node::Tree(TokenTree::Delim(tree.clone()))
    }

    fn reduce(
        &mut self,
        _grammar: &Grammar,
        prod: ProdId,
        _action: Action,
        args: Vec<(Node, Span)>,
        span: Span,
    ) -> Result<DriverOut<Node>, ParseError> {
        let args: Vec<Node> = args.into_iter().map(|(v, _)| v).collect();
        // `use Name;` — run the metaprogram now, switch the environment for
        // the rest of the input (the ParseRest protocol).
        if prod == self.c.cx.base.prods.id("use_head") {
            let path = match &args[1] {
                Node::Name(parts) => parts.clone(),
                other => {
                    return Err(ParseError::new(
                        format!("internal: use target {:?}", other.node_kind()),
                        span,
                    ))
                }
            };
            let new_pair = self
                .c
                .cx
                .import_named(&self.c.pair, &self.c.ctx, &path, span)
                .map_err(|e| ParseError::new(e.message, e.span))?;
            // Dependency tracking: every `use` with a real source span is
            // an edge from the importing file to the metaprogram's
            // declaring file, tagged with the grammar/dispatch identity it
            // produced (the incremental session's invalidation input).
            if !span.is_dummy() {
                let dotted = {
                    let parts: Vec<&str> = path.iter().map(|i| i.as_str()).collect();
                    parts.join(".")
                };
                let origin = self.c.cx.metaprogram_origin(&dotted);
                self.c.cx.dep_log.borrow_mut().push(crate::compiler::DepEdge {
                    importer: span.file,
                    name: dotted,
                    origin,
                    grammar_hash: new_pair.grammar.content_hash(),
                    denv_version: new_pair.denv.version(),
                });
            }
            self.c.pair = new_pair;
            let goals: Vec<NtId> = vec![
                self.c.cx.base.use_tail_stmts,
                self.c.cx.base.use_tail_decls,
            ];
            return Ok(DriverOut::ParseRest {
                head: Node::Name(path),
                goals,
            });
        }
        let node = self
            .c
            .reduce(prod, args, span)
            .map_err(|e| ParseError::new(e.message, e.span))?;
        Ok(DriverOut::Value(node))
    }

    fn parse_rest(
        &mut self,
        _grammar: &Grammar,
        rest: &[Input<Node>],
        goal: NtId,
    ) -> Result<Node, ParseError> {
        // The marker nonterminal names the context; the tail content parses
        // as statements or declarations under the extended environment.
        let kind = if goal == self.c.cx.base.use_tail_decls {
            NodeKind::ClassBody
        } else {
            NodeKind::BlockStmts
        };
        let real_goal = self
            .c
            .pair
            .grammar
            .nt_for_kind(kind)
            .expect("base nonterminal");
        let mut driver = CoreDriver { c: self.c.clone() };
        run_parse(&self.c.pair.grammar, rest, real_goal, &mut driver)
    }
}

// ---- forcing -----------------------------------------------------------------

/// Forces a lazy node. `scope` builds the scope cell the parse sees; it
/// runs only when the force parses, so a force-cache hit builds no forcing
/// context at all.
///
/// # Errors
///
/// Reports cycles and parse/dispatch errors from the forced syntax.
pub fn force_lazy(
    cx: &Rc<CompilerInner>,
    lazy: &LazyNode,
    scope: impl FnOnce() -> Rc<RefCell<Scope>>,
) -> Result<(), CompileError> {
    if lazy.is_forced() {
        return Ok(());
    }
    let Some((tree, env)) = lazy.begin_force() else {
        return Err(CompileError::new(
            "cyclic laziness: node is already being forced",
            Span::DUMMY,
        ));
    };
    let _p = maya_telemetry::phase(maya_telemetry::Phase::Force);
    maya_telemetry::trace(maya_telemetry::TraceKind::Force, || {
        (
            lazy.goal.name().to_owned(),
            format!("forcing deferred {}", tree.delim.tree_name()),
        )
    });
    let result = force_payload(cx, lazy.goal, &tree, env.clone(), scope);
    match result {
        Ok(node) => {
            lazy.fulfill(node);
            Ok(())
        }
        Err(e) => {
            lazy.abandon(tree, env);
            Err(e)
        }
    }
}

fn force_payload(
    cx: &Rc<CompilerInner>,
    goal_kind: NodeKind,
    tree: &DelimTree,
    env: Option<Rc<dyn std::any::Any>>,
    scope: impl FnOnce() -> Rc<RefCell<Scope>>,
) -> Result<Rc<Node>, CompileError> {
    // Template thunk: replay the compiled sub-recipe.
    if let Some(payload) = env.as_ref() {
        if let Some(thunk) = payload.downcast_ref::<TemplateThunk>() {
            let inner = thunk
                .env
                .as_ref()
                .and_then(|e| e.downcast_ref::<LazyEnvPayload>());
            let c = match inner {
                Some(p) => Cx {
                    cx: cx.clone(),
                    pair: p.pair.clone(),
                    ctx: p.ctx.clone(),
                    class: p.class,
                    scope: scope(),
                },
                None => Cx {
                    cx: cx.clone(),
                    pair: cx.global.borrow().clone(),
                    ctx: ResolveCtx::default(),
                    class: None,
                    scope: scope(),
                },
            };
            let mut host = CoreInstHost { c };
            return thunk
                .replay(&mut host)
                .map(Rc::new)
                .map_err(CompileError::from);
        }
        if let Some(p) = payload.downcast_ref::<LazyEnvPayload>() {
            return forced_parse_memo(cx, &p.pair, goal_kind, tree, || Cx {
                cx: cx.clone(),
                pair: p.pair.clone(),
                ctx: p.ctx.clone(),
                class: p.class,
                scope: scope(),
            });
        }
    }
    // No payload: use the global environment.
    let pair = cx.global.borrow().clone();
    forced_parse_memo(cx, &pair, goal_kind, tree, || Cx {
        cx: cx.clone(),
        pair: pair.clone(),
        ctx: ResolveCtx::default(),
        class: None,
        scope: scope(),
    })
}

/// [`Cx::parse_tree_kind_goal`] through the session's [`ForceCache`],
/// when one is attached and the parse is provably pure. The forcing
/// context comes from `make_cx`, called only on a miss: a hit is one
/// probe and an `Rc` clone of the shared, immutable node.
///
/// A memoized result may only be served or recorded when the forcing
/// environment `pair` is the compiler's pristine base environment
/// (grammar content hash and dispatch-env version both match
/// construction time): under that environment every reachable semantic
/// action is a built-in constructor whose output is a function of the
/// tokens alone. Recording additionally requires that the parse imported
/// no metaprogram (the dep log did not grow), created no lazy node
/// (nothing captured an environment), and emitted no diagnostic — any of
/// those makes the result context-dependent, so it is recomputed on
/// every run exactly as a cold compiler would.
fn forced_parse_memo(
    cx: &Rc<CompilerInner>,
    pair: &EnvPair,
    goal_kind: NodeKind,
    tree: &DelimTree,
    make_cx: impl FnOnce() -> Cx,
) -> Result<Rc<Node>, CompileError> {
    let pristine = (pair.grammar.content_hash(), pair.denv.version()) == cx.pristine_env;
    let Some(cache) = cx.options.force_cache.as_ref().filter(|_| pristine) else {
        return make_cx().parse_tree_kind_goal(goal_kind, tree).map(Rc::new);
    };
    let key = (goal_kind, tree.fingerprint());
    if let Some(hit) = cache.get(&key) {
        maya_telemetry::count(maya_telemetry::Counter::ForceCacheHits);
        return Ok(hit);
    }
    let before = cx.purity_marks();
    let node = Rc::new(make_cx().parse_tree_kind_goal(goal_kind, tree)?);
    if cx.purity_marks() == before {
        cache.insert(key, node.clone());
    }
    Ok(node)
}

/// Rebuilds a cached compilation-unit AST for reuse by another compiler.
///
/// A unit parsed under the pristine base environment is pure syntax, *except*
/// for its lazy method/constructor bodies: their cells are interior-mutable
/// (forcing memoizes into them) and their payloads capture the parsing
/// compiler's environment. This walker deep-copies the declaration structure,
/// giving every lazy a brand-new unforced cell whose payload is `fresh` —
/// the borrowing compiler's own pristine environment — so nothing is shared
/// across compilers and every body re-forces (and re-logs dependencies)
/// exactly as a cold parse would.
///
/// Returns `None` when the unit contains anything the cache cannot prove
/// pure: grammar-extending declarations (`use`, `syntax`), recovery poison
/// nodes, already-forced lazies, lazies whose captured environment is not
/// pristine, or a lazy field initializer (impossible under the base grammar,
/// rejected defensively). `None` means the caller must re-parse.
pub(crate) fn refresh_unit(
    node: &Node,
    pristine: (u128, u64),
    fresh: &Rc<LazyEnvPayload>,
    make: MakeLazy,
) -> Option<Node> {
    let Node::List(parts) = node else { return None };
    if parts.len() != 3 {
        return None;
    }
    let Node::Decls(decls) = &parts[2] else { return None };
    let mut out = Vec::with_capacity(decls.len());
    for d in decls {
        out.push(refresh_decl(d, pristine, fresh, None, make)?);
    }
    Some(Node::List(vec![
        parts[0].clone(),
        parts[1].clone(),
        Node::Decls(out),
    ]))
}

/// [`refresh_unit`] for a class-body member list (the `shape_class` parse):
/// the same walk, with an explicit `expected` class. Lazies parsed inside a
/// class body capture that class in their payload, so the inserting
/// compiler verifies `expected = Some(its class)` while canonicalizing the
/// template to `class: None` (class ids are per-compiler and shift when an
/// edit adds or removes a class); a borrower builds its body cells from the
/// class layer's entry instead. The member list comes back as
/// `Node::Decls` or a `Node::List` of declarations.
pub(crate) fn refresh_members(
    node: &Node,
    pristine: (u128, u64),
    fresh: &Rc<LazyEnvPayload>,
    expected: Option<ClassId>,
    make: MakeLazy,
) -> Option<Node> {
    match node {
        Node::Decls(decls) => {
            let mut out = Vec::with_capacity(decls.len());
            for d in decls {
                out.push(refresh_decl(d, pristine, fresh, expected, make)?);
            }
            Some(Node::Decls(out))
        }
        Node::List(items) => {
            let mut out = Vec::with_capacity(items.len());
            for item in items {
                let Node::Decl(d) = item else { return None };
                out.push(Node::Decl(refresh_decl(
                    d, pristine, fresh, expected, make,
                )?));
            }
            Some(Node::List(out))
        }
        _ => None,
    }
}

fn refresh_decl(
    d: &Decl,
    pristine: (u128, u64),
    fresh: &Rc<LazyEnvPayload>,
    expected: Option<ClassId>,
    make: MakeLazy,
) -> Option<Decl> {
    Some(match d {
        Decl::Class(c) => {
            let mut members = Vec::with_capacity(c.members.len());
            for m in &c.members {
                members.push(refresh_decl(m, pristine, fresh, expected, make)?);
            }
            Decl::Class(ClassDecl { members, ..c.clone() })
        }
        Decl::Interface(i) => {
            let mut members = Vec::with_capacity(i.members.len());
            for m in &i.members {
                members.push(refresh_decl(m, pristine, fresh, expected, make)?);
            }
            Decl::Interface(InterfaceDecl { members, ..i.clone() })
        }
        Decl::Method(m) => {
            let body = match &m.body {
                Some(l) => Some(refresh_lazy(l, pristine, fresh, expected, make)?),
                None => None,
            };
            Decl::Method(MethodDecl { body, ..m.clone() })
        }
        Decl::Ctor(c) => Decl::Ctor(CtorDecl {
            body: refresh_lazy(&c.body, pristine, fresh, expected, make)?,
            ..c.clone()
        }),
        Decl::Field(f) => {
            if matches!(f.init.as_ref().map(|e| &e.kind), Some(ExprKind::Lazy(_))) {
                return None;
            }
            d.clone()
        }
        Decl::Import(_) | Decl::Empty => d.clone(),
        // Anything that can touch the environment — or that failed to
        // parse — is never cached.
        Decl::Production(_) | Decl::Mayan(_) | Decl::Use(..) | Decl::Error(_) => return None,
    })
}

fn refresh_lazy(
    l: &LazyNode,
    pristine: (u128, u64),
    fresh: &Rc<LazyEnvPayload>,
    expected: Option<ClassId>,
    make: MakeLazy,
) -> Option<LazyNode> {
    let cell = l.cell.borrow();
    let LazyCell::Unforced { tree, env } = &*cell else { return None };
    let payload = env.as_ref()?.downcast_ref::<LazyEnvPayload>()?;
    if (payload.pair.grammar.content_hash(), payload.pair.denv.version()) != pristine
        || payload.class != expected
    {
        return None;
    }
    Some(make(
        l.goal,
        tree.clone(),
        Some(fresh.clone() as Rc<dyn std::any::Any>),
    ))
}

/// How the `refresh_*` walks make each fresh cell: [`LazyNode::new`] when a
/// compile instantiates a template (the cells stand for the ones a cold
/// parse creates), [`LazyNode::template`] when it stores one.
pub(crate) type MakeLazy = fn(NodeKind, DelimTree, Option<Rc<dyn std::any::Any>>) -> LazyNode;

impl Cx {
    fn parse_tree_kind_goal(
        &self,
        goal_kind: NodeKind,
        tree: &DelimTree,
    ) -> Result<Node, CompileError> {
        let goal = self
            .pair
            .grammar
            .nt_for_kind_lattice(goal_kind)
            .ok_or_else(|| {
                CompileError::new(
                    format!("no grammar nonterminal for {}", goal_kind.name()),
                    tree.span(),
                )
            })?;
        // In multi-error mode, statement and member contexts synchronize at
        // boundaries instead of failing the whole body on the first error.
        if let Some(diags) = self.cx.diags.borrow().clone() {
            let poison = if goal_kind == NodeKind::BlockStmts
                || goal_kind.is_subkind_of(NodeKind::Statement)
            {
                Some(crate::recover::Poison::Stmt)
            } else if goal_kind == NodeKind::ClassBody
                || goal_kind.is_subkind_of(NodeKind::Declaration)
            {
                Some(crate::recover::Poison::Decl)
            } else {
                None
            };
            if let Some(poison) = poison {
                return crate::recover::parse_tree_recovering(self, tree, goal, poison, &diags)
                    .ok_or_else(|| CompileError::reported(tree.span()));
            }
        }
        self.parse_trees(&tree.trees, goal).map_err(CompileError::from)
    }
}

/// Forces a lazy node given a `&mut Scope` (the checker-facing adapter).
///
/// # Errors
///
/// Same as [`force_lazy`].
pub fn force_lazy_scoped(
    cx: &Rc<CompilerInner>,
    lazy: &LazyNode,
    scope: &mut Scope,
) -> Result<(), CompileError> {
    // The force gets a *copy*: bindings the parse registers for
    // type-directed dispatch are scratch state; the checker re-declares
    // everything properly while walking the forced tree.
    force_lazy(cx, lazy, || Rc::new(RefCell::new(scope.clone())))
}

/// The [`CheckHost`] used throughout compilation.
pub struct ForceHost {
    pub c: Cx,
}

impl CheckHost for ForceHost {
    fn force_lazy(&mut self, lazy: &LazyNode, scope: &mut Scope) -> Result<(), TypeError> {
        force_lazy_scoped(&self.c.cx, lazy, scope).map_err(|e| TypeError::new(e.message, e.span))
    }

    fn template_type(&mut self, goal: NodeKind) -> Result<Type, TypeError> {
        let category = tree_class_for(goal);
        self.c
            .cx
            .classes
            .by_fqcn_str(&format!("maya.tree.{category}"))
            .map(Type::Class)
            .ok_or_else(|| {
                TypeError::new(
                    format!(
                        "templates of kind {} require the maya.tree bridge",
                        goal.name()
                    ),
                    Span::DUMMY,
                )
            })
    }
}

/// Maps a node kind to its fully qualified `maya.tree` class name.
pub fn tree_class_fqcn(goal: NodeKind) -> &'static str {
    use NodeKind::*;
    if goal == StrictTypeName || goal == StrictClassName {
        "maya.tree.StrictTypeName"
    } else if goal.is_subkind_of(Expression) {
        "maya.tree.Expression"
    } else if goal.is_subkind_of(Statement) {
        "maya.tree.Statement"
    } else if goal == BlockStmts {
        "maya.tree.BlockStmts"
    } else if goal.is_subkind_of(TypeName) {
        "maya.tree.TypeName"
    } else if goal.is_subkind_of(Declaration) {
        "maya.tree.Declaration"
    } else if goal.is_subkind_of(Identifier) {
        "maya.tree.Identifier"
    } else if goal == Formal {
        "maya.tree.Formal"
    } else if goal == MethodName {
        "maya.tree.MethodName"
    } else {
        "maya.tree.Node"
    }
}

/// Maps a node kind to its `maya.tree` class name.
pub fn tree_class_for(goal: NodeKind) -> &'static str {
    use NodeKind::*;
    if goal.is_subkind_of(Expression) {
        "Expression"
    } else if goal.is_subkind_of(Statement) {
        "Statement"
    } else if goal == BlockStmts {
        "BlockStmts"
    } else if goal.is_subkind_of(TypeName) {
        "TypeName"
    } else if goal.is_subkind_of(Declaration) {
        "Declaration"
    } else if goal.is_subkind_of(Identifier) {
        "Identifier"
    } else {
        "Node"
    }
}

// ---- instantiation host --------------------------------------------------------

/// Template instantiation host: replays reductions through full dispatch.
pub struct CoreInstHost {
    pub c: Cx,
}

impl InstHost for CoreInstHost {
    fn reduce(&mut self, prod: ProdId, args: Vec<Node>, span: Span) -> Result<Node, DispatchError> {
        self.c.reduce(prod, args, span)
    }

    fn fresh(&mut self, base: &str) -> Symbol {
        self.c.cx.fresh(base)
    }

    fn thunk_env(&mut self) -> Option<Rc<dyn std::any::Any>> {
        Some(self.c.payload() as Rc<dyn std::any::Any>)
    }
}

// ---- the ExpandCtx given to Mayan bodies -----------------------------------------

/// The expansion context handed to Mayan bodies.
pub struct CoreExpand {
    pub c: Cx,
    chain: Rc<Vec<(Rc<Mayan>, Bindings)>>,
    idx: usize,
    pub span: Span,
}

/// A cloneable snapshot of one Mayan expansion, pushed onto the compiler's
/// expand stack while interpreted metaprogram bodies run: the `maya.tree`
/// bridge natives read the top to service `nextRewrite`, templates, and
/// the reflection API.
#[derive(Clone)]
pub struct ExpandSnapshot {
    pub c: Cx,
    pub chain: Rc<Vec<(Rc<Mayan>, Bindings)>>,
    pub idx: usize,
    pub span: Span,
}

impl ExpandSnapshot {
    /// Rebuilds an expansion context.
    pub fn to_expand(&self) -> CoreExpand {
        CoreExpand {
            c: self.c.clone(),
            chain: self.chain.clone(),
            idx: self.idx,
            span: self.span,
        }
    }

    /// `nextRewrite` for interpreted bodies.
    ///
    /// # Errors
    ///
    /// Fails when no less-applicable Mayan remains.
    pub fn next_rewrite(&self) -> Result<Node, DispatchError> {
        if self.idx + 1 >= self.chain.len() {
            return Err(DispatchError::new(
                "nextRewrite: no less-applicable Mayan remains",
                self.span,
            ));
        }
        self.c.run_chain(self.chain.clone(), self.idx + 1, self.span)
    }
}

impl CoreExpand {
    /// A cloneable snapshot of this expansion (for the expand stack).
    pub fn snapshot(&self) -> ExpandSnapshot {
        ExpandSnapshot {
            c: self.c.clone(),
            chain: self.chain.clone(),
            idx: self.idx,
            span: self.span,
        }
    }

    /// Parses a delimiter tree's contents under the expansion environment.
    ///
    /// # Errors
    ///
    /// Propagates parse errors.
    pub fn parse_tree(&self, tree: &DelimTree, kind: NodeKind) -> Result<Node, DispatchError> {
        self.c.parse_tree_kind(tree, kind)
    }

    /// Instantiates a compiled template with positional slot values.
    ///
    /// # Errors
    ///
    /// Propagates replay failures.
    pub fn instantiate(&self, t: &Template, values: Vec<Node>) -> Result<Node, DispatchError> {
        self.c.instantiate(t, values)
    }

    /// Creates a lazy node capturing the expansion environment.
    pub fn make_lazy(&self, tree: DelimTree, kind: NodeKind) -> Node {
        self.c.make_lazy(tree, kind)
    }

    /// The interpreter (for metaprograms that need compile-time execution).
    pub fn interp(&self) -> Rc<Interp> {
        self.c.cx.interp.clone()
    }

    /// Registers a local-variable binding in the *parse-time* scope, so
    /// Mayans later in the same block can dispatch on its static type
    /// (paper §1: "create variable bindings that are visible to other
    /// arguments"). Resolution failures are ignored here — the checker
    /// reports them properly after expansion.
    pub fn declare_parse_binding(&self, name: maya_lexer::Symbol, ty: &TypeName) {
        if let Ok(t) = self
            .c
            .cx
            .classes
            .resolve_type_name(ty, &self.c.ctx)
        {
            self.c.scope.borrow_mut().declare(
                name,
                maya_types::VarBinding {
                    ty: t,
                    kind: maya_types::VarKind::Local,
                    is_final: false,
                },
            );
        }
    }

    /// Records that a class body at this source position must be shaped
    /// under the current environment (a `use` earlier in the file may have
    /// extended it).
    pub fn record_decl_env(&self, tree: &DelimTree) {
        let span = tree.span();
        if !span.is_dummy() {
            self.c
                .cx
                .decl_envs
                .borrow_mut()
                .insert((span.file, span.lo), self.c.pair.clone());
        }
    }

    /// The current resolution context.
    pub fn resolve_ctx(&self) -> &ResolveCtx {
        &self.c.ctx
    }

    /// A resolver for class names in the current resolution context (used
    /// when compiling templates — referential transparency).
    pub fn class_resolver(&self) -> impl Fn(&str) -> Option<Symbol> + 'static {
        let classes = self.c.cx.classes.clone();
        let ctx = self.c.ctx.clone();
        move |dotted: &str| {
            if dotted.contains('.') {
                classes
                    .by_fqcn_str(dotted)
                    .map(|c| classes.fqcn(c))
            } else {
                classes
                    .resolve_simple(maya_lexer::sym(dotted), &ctx)
                    .map(|c| classes.fqcn(c))
            }
        }
    }

    /// Compiles a template from source text (braces are added around the
    /// body). `slots` names each `$name` unquote and its grammar symbol.
    ///
    /// # Errors
    ///
    /// Propagates template compile errors (syntax, hygiene).
    pub fn compile_template(
        &self,
        goal: NodeKind,
        source: &str,
        slots: &[(&str, NodeKind)],
    ) -> Result<Rc<Template>, DispatchError> {
        let trees = maya_lexer::tree_lex_str(&format!("{{ {source} }}"))
            .map_err(|e| DispatchError::new(e.message, e.span))?;
        let body = match &trees[..] {
            [maya_lexer::TokenTree::Delim(d)] => d.clone(),
            _ => {
                return Err(DispatchError::new(
                    "internal: template source did not lex to one tree",
                    Span::DUMMY,
                ))
            }
        };
        struct TableKinds(Vec<(maya_lexer::Symbol, NodeKind)>);
        impl maya_template::SlotKinds for TableKinds {
            fn named(&mut self, name: maya_lexer::Symbol) -> Option<NodeKind> {
                self.0.iter().find(|(n, _)| *n == name).map(|(_, k)| *k)
            }

            fn expr(&mut self, _tokens: &[maya_lexer::TokenTree]) -> Option<NodeKind> {
                None
            }
        }
        let mut kinds = TableKinds(
            slots
                .iter()
                .map(|(n, k)| (maya_lexer::sym(n), *k))
                .collect(),
        );
        let resolver = self.class_resolver();
        let t = Template::compile(
            &self.c.pair.grammar,
            &self.c.cx.base.hygiene,
            &resolver,
            goal,
            &body,
            &mut kinds,
        )
        .map_err(|e| DispatchError::new(e.message, e.span))?;
        Ok(Rc::new(t))
    }

    /// Instantiates a template with named slot values (names must cover the
    /// template's slot table).
    ///
    /// # Errors
    ///
    /// Unknown slot names and replay failures.
    pub fn instantiate_named(
        &self,
        t: &Template,
        values: &[(&str, Node)],
    ) -> Result<Node, DispatchError> {
        let ordered = t
            .slots
            .iter()
            .map(|slot| {
                let name = match &slot.source {
                    maya_template::SlotSource::Named(n) => *n,
                    maya_template::SlotSource::Expr(_) => {
                        return Err(DispatchError::new(
                            "expression slots require the interpreted-Mayan path",
                            slot.span,
                        ))
                    }
                };
                values
                    .iter()
                    .find(|(n, _)| maya_lexer::sym(n) == name)
                    .map(|(_, v)| v.clone())
                    .ok_or_else(|| {
                        DispatchError::new(format!("no value for template slot ${name}"), slot.span)
                    })
            })
            .collect::<Result<Vec<_>, _>>()?;
        self.c.instantiate(t, ordered)
    }

    /// Builds a `use`-style extension of the current environment by running
    /// a metaprogram, returning a lazy node for `tree` parsed under the
    /// extended environment. This is how local Mayans are exported to a
    /// body (`new UseStmt(new Subst(), body)` — paper Figure 3).
    ///
    /// # Errors
    ///
    /// Propagates grammar extension failures.
    pub fn use_over(
        &self,
        program: &dyn maya_dispatch::MetaProgram,
        tree: DelimTree,
        kind: NodeKind,
    ) -> Result<Node, DispatchError> {
        let pair = self.c.cx.run_import(&self.c.pair, program)?;
        let payload = Rc::new(LazyEnvPayload {
            pair,
            ctx: self.c.ctx.clone(),
            class: self.c.class,
        });
        self.c.cx.lazy_created.set(self.c.cx.lazy_created.get() + 1);
        Ok(Node::Lazy(LazyNode::new(kind, tree, Some(payload))))
    }
}

impl ExpandCtx for CoreExpand {
    fn next_rewrite(&mut self) -> Result<Node, DispatchError> {
        if self.idx + 1 >= self.chain.len() {
            return Err(DispatchError::new(
                "nextRewrite: no less-applicable Mayan remains",
                self.span,
            ));
        }
        self.c.run_chain(self.chain.clone(), self.idx + 1, self.span)
    }

    fn make_id(&mut self, base: &str) -> maya_ast::Ident {
        maya_ast::Ident::synth(self.c.cx.fresh(base))
    }

    fn static_type_of(&mut self, e: &Expr) -> Result<Type, DispatchError> {
        self.c
            .static_type(e)
            .map_err(|err| DispatchError::new(err.message, err.span))
    }

    fn class_table(&self) -> Rc<ClassTable> {
        self.c.cx.classes.clone()
    }

    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}
