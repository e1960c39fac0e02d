//! The `Compiler`: mayac's pipeline (file reader → class shaper → class
//! compiler) and the embedding API.

use crate::base::Base;
use crate::diag::{Diagnostic, Diagnostics};
use crate::driver::{force_lazy, Cx, EnvPair, ForceHost};
use crate::CompileError;
use maya_ast::{Decl, Ident, LazyCell, LazyNode, Node, NodeKind, TypeName};
use maya_dispatch::{DestructorFn, DispatchError, ImportEnv, Mayan, MetaProgram};
use maya_grammar::{Grammar, GrammarBuilder, ProdId, RhsItem};
use maya_interp::{install_runtime, Interp};
use maya_lexer::{
    stream_lex, stream_lex_send, FileId, LexError, SendTree, SourceMap, Span, Symbol, TreeSeq,
};
use maya_telemetry as telemetry;
use maya_telemetry::GenMemo;
use maya_template::__private_fresh::FreshNames;
use maya_types::{
    Checker, ClassId, ClassInfo, ClassTable, CtorInfo, FieldInfo, MethodInfo, ResolveCtx, Scope,
    Type, VarBinding, VarKind,
};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

/// Options for a compilation.
#[derive(Clone, Debug)]
pub struct CompileOptions {
    /// Echo interpreted output to the real stdout.
    pub echo_output: bool,
    /// Metaprogram names imported for every unit (the paper's `-use`
    /// command-line option, §3.3).
    pub uses: Vec<String>,
    /// Maximum nested Mayan expansion depth before the compiler gives up
    /// with a diagnostic (a Mayan expanding to syntax it matches itself).
    pub max_expand_depth: u32,
    /// Total nodes semantic actions may materialize in one compilation
    /// (bounds Mayans that expand to ever-growing syntax).
    pub expand_fuel: u64,
    /// Interpreter steps allowed per metaprogram invocation or program run
    /// (bounds `while (true)` in a metaprogram body).
    pub interp_step_limit: u64,
    /// Interpreter call-stack depth.
    pub interp_stack_limit: u32,
    /// Worker threads for the front end (lexing + token-tree construction
    /// of independent files in [`Compiler::add_sources_diags`]). `1`
    /// disables the thread pool; `0` means one per available CPU, looked
    /// up only when more than one file needs lexing. Output is identical
    /// for every value.
    pub jobs: usize,
    /// A cross-compilation memo of pure lazy-body parses (see
    /// [`ForceCache`]); an incremental [`crate::Session`] threads one
    /// cache through every compiler it creates.
    pub force_cache: Option<Rc<ForceCache>>,
}

impl Default for CompileOptions {
    fn default() -> CompileOptions {
        CompileOptions {
            echo_output: false,
            uses: Vec::new(),
            max_expand_depth: 200,
            expand_fuel: 10_000_000,
            interp_step_limit: 20_000_000,
            interp_stack_limit: 128,
            jobs: 1,
            force_cache: None,
        }
    }
}

/// A memo of **pure** lazy-body parses, keyed by goal kind and the token
/// trees' content fingerprint (spans included).
///
/// Forcing a lazy node re-parses its deferred token trees under the
/// environment captured at creation time. When that environment is the
/// compiler's pristine base environment (no syntax extensions in scope),
/// and the parse neither imports a metaprogram, creates a nested lazy
/// node, nor emits a diagnostic, the result is a pure function of the
/// tokens — every semantic action that ran was a built-in constructor.
/// Such results are safe to replay in a *different* compiler given the
/// same tokens, which is exactly what an incremental [`crate::Session`]
/// does: unchanged files keep their spans, so their method bodies hit this
/// cache and skip the parse/dispatch machinery entirely on warm
/// recompiles. Impure parses (anything under a `use`, anything that
/// expands a Mayan) are recomputed every time, preserving byte-identical
/// diagnostics and expansion behaviour.
///
/// A fourth layer records **clean checks**: members whose type check an
/// earlier request ran, under the same key, without a diagnostic, a
/// dependency, or a lazy node (see `crate::check_memo`). A member whose
/// key is recorded is still forced, but the checker does not run on it.
///
/// The **class layer** keeps one [`ClassEntry`] per class body, so that
/// an unchanged class replays in one probe per pass: its member templates,
/// its installed signatures, its forced bodies and the record of a clean
/// check of all its members. A hit stamps the per-member force and check
/// entries it stands for, so that a request falling back to them (the
/// edited class, a signature edit, a class added or removed, another
/// client of the same cache) finds them warm.
///
/// Every layer is a [`GenMemo`]: the sessions sharing the cache report
/// their request boundaries ([`ForceCache::end_request`]), and entries no
/// recent request touched — parses an edit superseded — are evicted, so a
/// long-lived `mayad` worker holds a constant multiple of the entries its
/// recent requests touched. Sessions sharing one cache (the clients of
/// one worker) share that bound and can evict each other's entries.
pub struct ForceCache {
    /// Forced lazy bodies. A hit is an `Rc` clone: forced nodes are
    /// immutable and shared by every compiler that forces the same tokens.
    map: RefCell<GenMemo<(NodeKind, u128), Rc<Node>>>,
    /// Lowered method/ctor bodies keyed by structural fingerprint (see
    /// `maya_interp::LowerStore`).  Lowered code is environment-free, so it
    /// is shared verbatim across the session's compilers — warm runs skip
    /// re-lowering entirely.
    lowered: Rc<maya_interp::LowerStore>,
    /// Whole-file compilation-unit parses, keyed by the file's token-tree
    /// fingerprint. Templates are stored with unforced lazy cells; every
    /// lookup rebuilds the lazies with fresh cells and a payload pointing
    /// at the borrowing compiler's own pristine environment (see
    /// `driver::refresh_unit`), so no state is shared across compilers.
    units: RefCell<GenMemo<u128, Node>>,
    /// The class layer, keyed by `check_memo::DeclTable::class_key`.
    classes: RefCell<GenMemo<u128, Rc<ClassEntry>>>,
    /// Member keys whose check ran clean (`check_memo::Signatures::member_key`).
    checks: RefCell<GenMemo<u128, ()>>,
}

impl ForceCache {
    /// An empty cache.
    pub fn new() -> ForceCache {
        ForceCache {
            map: RefCell::new(GenMemo::new(telemetry::CacheId::ForceCache)),
            lowered: Rc::new(maya_interp::LowerStore::new()),
            units: RefCell::new(GenMemo::new(telemetry::CacheId::UnitCache)),
            classes: RefCell::new(GenMemo::new(telemetry::CacheId::ClassBodyCache)),
            checks: RefCell::new(GenMemo::new(telemetry::CacheId::CheckCache)),
        }
    }

    /// The session-shared lowered-body store.
    pub fn lower_store(&self) -> Rc<maya_interp::LowerStore> {
        self.lowered.clone()
    }

    /// Marks the end of one request: layers whose young generation has
    /// outgrown the old drop the entries no recent request touched.
    pub fn end_request(&self) {
        self.map.borrow_mut().end_request();
        self.units.borrow_mut().end_request();
        self.classes.borrow_mut().end_request();
        self.checks.borrow_mut().end_request();
        self.lowered.end_request();
    }

    pub(crate) fn get(&self, key: &(NodeKind, u128)) -> Option<Rc<Node>> {
        self.map.borrow_mut().get(key)
    }

    pub(crate) fn insert(&self, key: (NodeKind, u128), node: Rc<Node>) {
        self.map.borrow_mut().insert(key, node);
    }

    /// True when a member with this key was checked clean before.
    pub(crate) fn check_hit(&self, key: u128) -> bool {
        self.checks.borrow_mut().get(&key).is_some()
    }

    pub(crate) fn record_check(&self, key: u128) {
        self.checks.borrow_mut().insert(key, ());
    }

    pub(crate) fn get_unit(&self, key: u128) -> Option<Node> {
        self.units.borrow_mut().get(&key)
    }

    pub(crate) fn insert_unit(&self, key: u128, node: Node) {
        self.units.borrow_mut().insert(key, node);
    }

    pub(crate) fn get_class(&self, key: u128) -> Option<Rc<ClassEntry>> {
        self.classes.borrow_mut().get(&key)
    }

    pub(crate) fn insert_class(&self, key: u128, entry: Rc<ClassEntry>) {
        self.classes.borrow_mut().insert(key, entry);
    }

    /// Keeps the force entries of a replayed class's bodies alive.
    fn touch_bodies(&self, entry: &ClassEntry) {
        let mut map = self.map.borrow_mut();
        for b in &entry.bodies {
            map.touch(&(b.goal, b.fingerprint));
        }
    }

    /// Keeps the clean-check entries of a class's members alive.
    fn touch_checks(&self, keys: &[u128]) {
        let mut checks = self.checks.borrow_mut();
        for k in keys {
            checks.touch(k);
        }
    }

    /// Number of memoized entries (lazy bodies, classes, whole units and
    /// clean checks).
    pub fn len(&self) -> usize {
        self.map.borrow().len()
            + self.units.borrow().len()
            + self.classes.borrow().len()
            + self.checks.borrow().len()
    }

    /// True when nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for ForceCache {
    fn default() -> ForceCache {
        ForceCache::new()
    }
}

impl std::fmt::Debug for ForceCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ForceCache({} entries)", self.len())
    }
}

/// The class layer's entry for one class body (see [`ForceCache`]).
///
/// The member templates are valid wherever the key matches. The rest is
/// filled in by the requests that use the entry, and each part holds
/// only under the condition stored with it: the signatures under one
/// declared-class table, the clean-check record under one signature
/// digest. The forced bodies are pure parses of the key's tokens.
pub(crate) struct ClassEntry {
    /// The member-list parse, in declaration order: lazies unforced, with
    /// the canonical payload (`class: None`).
    members: Vec<Decl>,
    /// Every member body, in check order: method bodies in declaration
    /// order, then constructor bodies.
    bodies: Vec<BodyTemplate>,
    /// Method bodies at the front of `bodies`.
    method_bodies: usize,
    /// The installed signatures, and the `DeclTable` digest they were
    /// resolved under.
    shaped: RefCell<Option<(u128, Rc<[Sig]>)>>,
    /// The forced bodies, in check order, once a request forced them all
    /// purely.
    forced: RefCell<Option<Rc<[Rc<Node>]>>>,
    /// The signature digest every member checked clean under, and the
    /// members' clean-check keys in check order.
    clean: RefCell<Option<(u128, Rc<[u128]>)>>,
}

/// One member body of a [`ClassEntry`]: its goal, its token tree and the
/// tree's fingerprint (the force key is `(goal, fingerprint)`).
struct BodyTemplate {
    goal: NodeKind,
    tree: maya_lexer::DelimTree,
    fingerprint: u128,
}

/// One installed member signature, without its body.
pub(crate) enum Sig {
    /// A method, and whether it has a body.
    Method(MethodInfo, bool),
    Ctor(CtorInfo),
    Field(FieldInfo),
}

impl ClassEntry {
    /// An entry for a member list whose lazies are unforced templates.
    fn new(members: Vec<Decl>) -> ClassEntry {
        let template = |l: &LazyNode| {
            let tree = l.unforced_tree().expect("member templates are unforced");
            BodyTemplate {
                goal: l.goal,
                fingerprint: tree.fingerprint(),
                tree,
            }
        };
        let mut bodies: Vec<BodyTemplate> = members
            .iter()
            .filter_map(|m| match m {
                Decl::Method(md) => md.body.as_ref().map(template),
                _ => None,
            })
            .collect();
        let method_bodies = bodies.len();
        bodies.extend(members.iter().filter_map(|m| match m {
            Decl::Ctor(cd) => Some(template(&cd.body)),
            _ => None,
        }));
        ClassEntry {
            members,
            bodies,
            method_bodies,
            shaped: RefCell::new(None),
            forced: RefCell::new(None),
            clean: RefCell::new(None),
        }
    }
}

/// Makes the bodies of a replayed class in installation order: the
/// entry's forced bodies, or fresh unforced lazies under `payload`.
struct ReplayBodies<'a> {
    entry: &'a ClassEntry,
    forced: Option<&'a [Rc<Node>]>,
    payload: Option<Rc<dyn std::any::Any>>,
    methods: usize,
    ctors: usize,
}

impl ReplayBodies<'_> {
    fn next(&mut self, ctor: bool) -> LazyNode {
        let i = if ctor {
            self.ctors += 1;
            self.entry.method_bodies + self.ctors - 1
        } else {
            self.methods += 1;
            self.methods - 1
        };
        let b = &self.entry.bodies[i];
        match self.forced {
            Some(forced) => LazyNode::replayed(b.goal, forced[i].clone()),
            None => LazyNode::new(b.goal, b.tree.clone(), self.payload.clone()),
        }
    }
}

/// What the clean-check pass learns about a class with a [`ClassEntry`]:
/// whether its bodies are exactly the entry's, all forced purely and all
/// checked clean.
struct ClassRecord {
    forced: Vec<Rc<Node>>,
    keys: Vec<u128>,
    exact: bool,
    pure: bool,
    clean: bool,
}

/// The declarations of a class-body parse: `Node::Decls`, or a
/// `Node::List` whose declarations are kept.
fn member_decls(node: Node) -> Option<Vec<Decl>> {
    match node {
        Node::Decls(d) => Some(d),
        Node::List(items) => Some(
            items
                .into_iter()
                .filter_map(|n| match n {
                    Node::Decl(d) => Some(d),
                    _ => None,
                })
                .collect(),
        ),
        _ => None,
    }
}

/// Adds one member to a class: `sig` with `body` as its body.
fn push_sig(info: &mut ClassInfo, sig: &Sig, body: Option<LazyNode>) {
    match sig {
        Sig::Method(
            MethodInfo {
                name,
                params,
                param_names,
                ret,
                modifiers,
                // Bodies are not part of a signature.
                body: _,
                native,
                specializers,
            },
            _,
        ) => info.methods.push(MethodInfo {
            name: *name,
            params: params.clone(),
            param_names: param_names.clone(),
            ret: ret.clone(),
            modifiers: *modifiers,
            body,
            native: *native,
            specializers: specializers.clone(),
        }),
        Sig::Ctor(CtorInfo {
            params,
            param_names,
            modifiers,
            body: _,
            native,
        }) => info.ctors.push(CtorInfo {
            params: params.clone(),
            param_names: param_names.clone(),
            modifiers: *modifiers,
            body,
            native: *native,
        }),
        Sig::Field(FieldInfo {
            name,
            ty,
            modifiers,
            init,
        }) => info.fields.push(FieldInfo {
            name: *name,
            ty: ty.clone(),
            modifiers: *modifiers,
            init: init.clone(),
        }),
    }
}

/// One recorded syntax-import event (`use Name;` with a real source span):
/// which file imported which metaprogram, where that metaprogram was
/// declared, and the grammar/dispatch identity that resulted.
///
/// The incremental session replays this log after every compilation to
/// rebuild its file-dependency graph: an edge `importer → origin` means
/// editing `origin` must recompile `importer`, while the grammar content
/// hash and dispatch-env version identify the environment snapshot the
/// import produced (invalidation keys on grammar identity, not file
/// identity).
#[derive(Clone, Debug)]
pub struct DepEdge {
    /// File containing the `use` directive.
    pub importer: FileId,
    /// Dotted metaprogram name as written in the directive.
    pub name: String,
    /// File whose source `syntax` declaration registered the metaprogram;
    /// `None` for native (built-in) metaprograms, which have no source file.
    pub origin: Option<FileId>,
    /// Content hash of the grammar snapshot the import produced.
    pub grammar_hash: u128,
    /// Version of the dispatch environment the import produced.
    pub denv_version: u64,
}

/// Per-class compile metadata.
pub(crate) struct ClassMeta {
    pub env: EnvPair,
    pub ctx: ResolveCtx,
    /// The class layer's entry for this class's member list, when it has
    /// one.
    pub entry: Option<Rc<ClassEntry>>,
    /// The entry's forced bodies, when the class was installed with them.
    pub forced: Option<Rc<[Rc<Node>]>>,
}

/// What a memoizable step must leave unchanged: the dependency log's
/// length, the lazy-creation counter and the diagnostic counts (see
/// [`ForceCache`]).
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) struct PurityMarks {
    deps: usize,
    lazies: u64,
    diags: Option<(usize, usize)>,
}

impl CompilerInner {
    pub(crate) fn purity_marks(&self) -> PurityMarks {
        PurityMarks {
            deps: self.dep_log.borrow().len(),
            lazies: self.lazy_created.get(),
            diags: self
                .diags
                .borrow()
                .as_ref()
                .map(|d| (d.error_count(), d.warning_count())),
        }
    }
}

struct Unit {
    #[allow(dead_code)]
    file: FileId,
    ctx: ResolveCtx,
    package: Option<String>,
    decls: Vec<Decl>,
}

/// Shared compiler state (reference-counted so drivers, Mayan bodies, and
/// hooks can all hold it).
pub struct CompilerInner {
    pub classes: Rc<ClassTable>,
    pub interp: Rc<Interp>,
    pub sm: RefCell<SourceMap>,
    pub base: Base,
    pub global: RefCell<EnvPair>,
    fresh: RefCell<FreshNames>,
    registry: RefCell<HashMap<String, (Rc<dyn MetaProgram>, Option<FileId>)>>,
    /// Syntax-import events observed during this compilation, in import
    /// order (see [`DepEdge`]).
    pub(crate) dep_log: RefCell<Vec<DepEdge>>,
    pub(crate) class_meta: RefCell<HashMap<ClassId, Rc<ClassMeta>>>,
    /// Environment snapshots captured when class declarations were parsed,
    /// keyed by the body tree's span start (a `use` earlier in the file may
    /// have extended the grammar the body must be shaped under).
    pub(crate) decl_envs: RefCell<HashMap<(maya_lexer::FileId, u32), EnvPair>>,
    units: RefCell<Vec<Unit>>,
    /// Current nesting of Mayan expansions (depth guard state).
    pub(crate) expand_depth: Cell<u32>,
    /// Remaining expansion fuel (counts down; see `CompileOptions`).
    pub(crate) expand_fuel: Cell<u64>,
    /// Dotted names of imports currently being applied (cycle detection).
    imports_in_progress: RefCell<Vec<String>>,
    /// The active multi-error sink, when compiling through the
    /// diagnostics API; `None` keeps the legacy fail-fast behavior.
    pub(crate) diags: RefCell<Option<Diagnostics>>,
    /// Grammar content hash and dispatch-env version of the pristine base
    /// environment this compiler was constructed with (before any global
    /// `-use` import); the force cache only serves parses performed under
    /// exactly this environment.
    pub(crate) pristine_env: (u128, u64),
    /// Lazy nodes created so far (the force cache's purity gate: a parse
    /// that defers work captures an environment and is not memoizable).
    pub(crate) lazy_created: Cell<u64>,
    /// This request's declared-class table for the class layer, taken
    /// once every class is declared when a force cache is attached.
    decl_table: RefCell<Option<Rc<crate::check_memo::DeclTable>>>,
    /// This request's class-signature digest for the clean-check layer,
    /// taken after the class hooks when a force cache is attached and no
    /// fault is armed.
    signatures: RefCell<Option<Rc<crate::check_memo::Signatures>>>,
    /// Class-processing hooks, run as a class declaration leaves the shaper
    /// (paper §4: "Maya provides class-processing hooks").
    pub class_hooks: RefCell<Vec<Rc<dyn Fn(&Rc<CompilerInner>, ClassId) -> Result<(), CompileError>>>>,
    pub(crate) options: CompileOptions,
    uses_applied: RefCell<bool>,
    /// Source-level `abstract … syntax(…)` declarations, in declaration
    /// order (extension compilation; see `source_mayan`).
    pub(crate) declared_prods: RefCell<Vec<(maya_ast::NodeKind, Vec<RhsItem>)>>,
    /// The stack of active Mayan expansions; the `maya.tree` bridge reads
    /// the top to service `nextRewrite`, templates, and the reflection API
    /// from interpreted metaprogram bodies.
    pub expand_stack: RefCell<Vec<crate::driver::ExpandSnapshot>>,
}

impl CompilerInner {
    /// A fresh `base$N` name, unique in this compilation.
    pub fn fresh(&self, base: &str) -> Symbol {
        self.fresh.borrow_mut().fresh(base)
    }

    /// Registers an importable metaprogram under a dotted name.
    pub fn register_metaprogram(&self, name: &str, program: Rc<dyn MetaProgram>) {
        self.register_metaprogram_at(name, program, None);
    }

    /// [`CompilerInner::register_metaprogram`], recording the source file
    /// whose declaration produced the metaprogram (dependency tracking for
    /// incremental recompilation).
    pub fn register_metaprogram_at(
        &self,
        name: &str,
        program: Rc<dyn MetaProgram>,
        origin: Option<FileId>,
    ) {
        self.registry
            .borrow_mut()
            .insert(name.to_owned(), (program, origin));
    }

    /// Looks up a metaprogram by the name used in a `use` directive.
    pub fn lookup_metaprogram(&self, path: &[Ident]) -> Option<Rc<dyn MetaProgram>> {
        let dotted: Vec<&str> = path.iter().map(|i| i.as_str()).collect();
        let dotted = dotted.join(".");
        self.registry.borrow().get(&dotted).map(|(p, _)| p.clone())
    }

    /// The source file that declared the metaprogram `dotted`, if any.
    pub fn metaprogram_origin(&self, dotted: &str) -> Option<FileId> {
        self.registry.borrow().get(dotted).and_then(|(_, o)| *o)
    }

    /// Runs a metaprogram against an environment pair, producing the
    /// extended pair (tables are validated eagerly so conflicts are
    /// reported at the import).
    ///
    /// # Errors
    ///
    /// Reports grammar conflicts and metaprogram failures.
    pub fn run_import(
        &self,
        pair: &EnvPair,
        program: &dyn MetaProgram,
    ) -> Result<EnvPair, DispatchError> {
        let mut env = CoreImportEnv {
            grammar: pair.grammar.clone(),
            builder: None,
            denv: pair.denv.extend(),
        };
        program.run(&mut env)?;
        let grammar = match env.builder {
            Some(b) => {
                let g = b.finish();
                if g.content_hash() == pair.grammar.content_hash() {
                    // Every added production deduplicated into an existing
                    // one: keep the old snapshot (and its already-built,
                    // already-validated tables).
                    pair.grammar.clone()
                } else {
                    g.tables()
                        .map_err(|e| DispatchError::new(e.to_string(), Span::DUMMY))?;
                    g
                }
            }
            None => env.grammar,
        };
        Ok(EnvPair {
            grammar,
            denv: env.denv.finish(),
        })
    }

    /// Resolves and runs the metaprogram behind `use path;`.
    ///
    /// # Errors
    ///
    /// Unknown names and import failures.
    pub fn import_named(
        &self,
        pair: &EnvPair,
        _ctx: &ResolveCtx,
        path: &[Ident],
        span: Span,
    ) -> Result<EnvPair, DispatchError> {
        let dotted = {
            let parts: Vec<&str> = path.iter().map(|i| i.as_str()).collect();
            parts.join(".")
        };
        // Cycle guard: importing A can compile A's extension classes, which
        // may `use` B, which may `use` A again. Without this the import
        // recursion never terminates.
        {
            let stack = self.imports_in_progress.borrow();
            if stack.contains(&dotted) {
                maya_telemetry::count(maya_telemetry::Counter::ImportCycles);
                return Err(DispatchError::new(
                    format!(
                        "import cycle detected: {} → {dotted}",
                        stack.join(" → ")
                    ),
                    span,
                ));
            }
        }
        let program = self.lookup_metaprogram(path).ok_or_else(|| {
            DispatchError::new(
                format!("unknown metaprogram {dotted} in use directive"),
                span,
            )
        })?;
        self.imports_in_progress.borrow_mut().push(dotted);
        let result = self.run_import(pair, program.as_ref());
        self.imports_in_progress.borrow_mut().pop();
        // Table-construction failures (grammar conflicts) have no source
        // span of their own; point them at the `use` directive.
        let new = result.map_err(|e| {
            if e.span.is_dummy() {
                DispatchError::new(e.message, span)
            } else {
                e
            }
        })?;
        maya_telemetry::trace(maya_telemetry::TraceKind::Import, || {
            let dotted: Vec<&str> = path.iter().map(|i| i.as_str()).collect();
            (
                dotted.join("."),
                format!(
                    "metaprogram imported; grammar now has {} production(s)",
                    new.grammar.productions().len()
                ),
            )
        });
        Ok(new)
    }
}

/// Lexes `files` (already registered in `sm`) to `Send`-safe token trees,
/// fanning the work out to scoped worker threads when `jobs > 1` (`0`:
/// one per available CPU) and there is more than one file. Results are
/// returned in `files` order regardless of completion order; worker
/// telemetry is merged into this thread's session.
///
/// This is the whole front end as a pure function of the source map, so
/// both [`Compiler::add_sources_diags`] and the incremental
/// [`crate::Session`] (which lexes changed files into a scratch map to
/// compare token streams) share one implementation.
pub fn lex_files(
    sm: &SourceMap,
    files: &[FileId],
    jobs: usize,
) -> Vec<Result<Vec<SendTree>, LexError>> {
    let jobs = match jobs {
        _ if files.len() <= 1 => 1,
        0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        n => n,
    }
    .min(files.len());
    if jobs <= 1 {
        return files.iter().map(|&f| lex_one(sm, f)).collect();
    }
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    let telemetry_on = maya_telemetry::enabled();
    // Workers inherit the driving session's span capture so a merged
    // `--jobs=N` trace shows every per-file lex on its worker's track.
    let capture_spans = maya_telemetry::spans_enabled();
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<Vec<SendTree>, LexError>>>> =
        files.iter().map(|_| Mutex::new(None)).collect();
    let mut reports: Vec<maya_telemetry::Report> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|_| {
                let next = &next;
                let slots = &slots;
                scope.spawn(move || {
                    // Workers have their own thread-local telemetry;
                    // collect into a session and hand the report back
                    // for merging.
                    let session = telemetry_on.then(|| {
                        maya_telemetry::Session::start(maya_telemetry::Config {
                            capture_spans,
                            ..maya_telemetry::Config::default()
                        })
                    });
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&file) = files.get(i) else { break };
                        let r = lex_one(sm, file);
                        *slots[i].lock().expect("lex slot poisoned") = Some(r);
                    }
                    session.map(maya_telemetry::Session::finish)
                })
            })
            .collect();
        for h in handles {
            if let Some(report) = h.join().expect("lexer worker panicked") {
                reports.push(report);
            }
        }
    });
    for r in &reports {
        maya_telemetry::absorb(r);
    }
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("lex slot poisoned")
                .expect("every file was lexed")
        })
        .collect()
}

/// Lexes one file under a `lex_file` span (tagged with the file name) and
/// records the duration into the `lex_file_ns` histogram.
fn lex_one(sm: &SourceMap, file: FileId) -> Result<Vec<SendTree>, LexError> {
    let span = telemetry::span_with("lex_file", || {
        vec![("file", sm.file(file).name.clone())]
    });
    let t0 = std::time::Instant::now();
    let r = stream_lex_send(sm, file);
    telemetry::record_hist("lex_file_ns", t0.elapsed().as_nanos() as u64);
    drop(span);
    r
}

struct CoreImportEnv {
    grammar: Grammar,
    builder: Option<GrammarBuilder>,
    denv: maya_dispatch::EnvBuilder,
}

impl ImportEnv for CoreImportEnv {
    fn add_production(&mut self, lhs: NodeKind, rhs: &[RhsItem]) -> Result<ProdId, DispatchError> {
        let b = self
            .builder
            .get_or_insert_with(|| self.grammar.extend());
        b.add_production(lhs, rhs, None)
            .map_err(|e| DispatchError::new(e.to_string(), e.span()))
    }

    fn import_mayan(&mut self, mayan: Rc<Mayan>) {
        self.denv.import(mayan);
    }

    fn register_destructor(&mut self, prod: ProdId, produced: NodeKind, f: DestructorFn) {
        self.denv.register_destructor(prod, produced, f);
    }

    fn grammar(&self) -> Grammar {
        self.grammar.clone()
    }

    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// The Maya compiler.
///
/// # Example
///
/// ```
/// use maya_core::Compiler;
///
/// let compiler = Compiler::new();
/// let out = compiler
///     .compile_and_run(
///         "Main.maya",
///         r#"class Main { static void main() { System.out.println(6 * 7); } }"#,
///         "Main",
///     )
///     .unwrap();
/// assert_eq!(out, "42\n");
/// ```
#[derive(Clone)]
pub struct Compiler {
    inner: Rc<CompilerInner>,
}

impl Default for Compiler {
    fn default() -> Compiler {
        Compiler::new()
    }
}

impl Compiler {
    /// Creates a compiler with default options.
    pub fn new() -> Compiler {
        Compiler::with_options(CompileOptions::default())
    }

    /// Creates a compiler.
    pub fn with_options(options: CompileOptions) -> Compiler {
        let classes = Rc::new(ClassTable::new());
        install_runtime(&classes);
        let interp = Rc::new(Interp::new(classes.clone()));
        if let Some(cache) = &options.force_cache {
            interp.set_lower_store(cache.lower_store());
        }
        let base = Base::cached();
        let global = EnvPair {
            grammar: base.grammar.clone(),
            denv: base.denv.clone(),
        };
        let pristine_env = (global.grammar.content_hash(), global.denv.version());
        let inner = Rc::new(CompilerInner {
            classes,
            interp,
            sm: RefCell::new(SourceMap::new()),
            base,
            global: RefCell::new(global),
            fresh: RefCell::new(FreshNames::new()),
            registry: RefCell::new(HashMap::new()),
            dep_log: RefCell::new(Vec::new()),
            class_meta: RefCell::new(HashMap::new()),
            decl_envs: RefCell::new(HashMap::new()),
            units: RefCell::new(Vec::new()),
            expand_depth: Cell::new(0),
            expand_fuel: Cell::new(options.expand_fuel),
            imports_in_progress: RefCell::new(Vec::new()),
            diags: RefCell::new(None),
            pristine_env,
            lazy_created: Cell::new(0),
            decl_table: RefCell::new(None),
            signatures: RefCell::new(None),
            class_hooks: RefCell::new(Vec::new()),
            options,
            uses_applied: RefCell::new(false),
            declared_prods: RefCell::new(Vec::new()),
            expand_stack: RefCell::new(Vec::new()),
        });
        inner
            .interp
            .set_stack_limit(inner.options.interp_stack_limit);
        inner.interp.set_step_limit(inner.options.interp_step_limit);
        crate::extension::install_tree_bridge(&inner);
        let compiler = Compiler { inner };
        compiler.install_runtime_forcer();
        compiler.install_frame_provider();
        compiler
    }

    /// The shared state (for extension crates).
    pub fn inner(&self) -> &Rc<CompilerInner> {
        &self.inner
    }

    /// Syntax-import events recorded during this compilation, in import
    /// order (see [`DepEdge`]).
    pub fn dep_log(&self) -> Vec<DepEdge> {
        self.inner.dep_log.borrow().clone()
    }

    /// The class table.
    pub fn classes(&self) -> Rc<ClassTable> {
        self.inner.classes.clone()
    }

    /// The interpreter.
    pub fn interp(&self) -> Rc<Interp> {
        self.inner.interp.clone()
    }

    /// The base environment (for tests and extension authors).
    pub fn base(&self) -> &Base {
        &self.inner.base
    }

    /// Registers a compiled extension under a dotted name, making it
    /// importable with `use name;`.
    pub fn register_metaprogram(&self, name: &str, program: Rc<dyn MetaProgram>) {
        self.inner.register_metaprogram(name, program);
    }

    /// Adds a class-processing hook.
    pub fn add_class_hook(
        &self,
        hook: Rc<dyn Fn(&Rc<CompilerInner>, ClassId) -> Result<(), CompileError>>,
    ) {
        self.inner.class_hooks.borrow_mut().push(hook);
    }

    /// Applies `use name;` to the *global* environment (the `-use`
    /// command-line option).
    ///
    /// # Errors
    ///
    /// Unknown names and import failures.
    pub fn use_globally(&self, name: &str) -> Result<(), CompileError> {
        let path: Vec<Ident> = name.split('.').map(Ident::from_str).collect();
        let pair = self.inner.global.borrow().clone();
        let new = self
            .inner
            .import_named(&pair, &ResolveCtx::default(), &path, Span::DUMMY)?;
        *self.inner.global.borrow_mut() = new;
        Ok(())
    }

    /// Applies the global `-use` imports once per compilation (the first
    /// source added triggers it).
    fn ensure_uses_applied(&self) -> Result<(), CompileError> {
        if !*self.inner.uses_applied.borrow() {
            *self.inner.uses_applied.borrow_mut() = true;
            for u in &self.inner.options.uses.clone() {
                self.use_globally(u)?;
            }
        }
        Ok(())
    }

    /// Reads one source file: lexes, parses the compilation unit (class
    /// bodies are left raw for the shaper), records imports.
    ///
    /// # Errors
    ///
    /// Lexical and syntax errors.
    pub fn add_source(&self, name: &str, text: &str) -> Result<(), CompileError> {
        self.ensure_uses_applied()?;
        let file = self.inner.sm.borrow_mut().add_file(name, text);
        let trees = {
            let sm = self.inner.sm.borrow();
            let span = telemetry::span_with("lex_file", || {
                vec![("file", sm.file(file).name.clone())]
            });
            let t0 = std::time::Instant::now();
            let r = stream_lex(&sm, file);
            telemetry::record_hist("lex_file_ns", t0.elapsed().as_nanos() as u64);
            drop(span);
            r?
        };
        self.process_lexed(file, Rc::new(TreeSeq::new(trees)))
    }

    /// The post-lex half of [`Compiler::add_source`]: parse the compilation
    /// unit and record it. Runs strictly in file order even when lexing was
    /// parallel, because parsing can extend the global environment.
    fn process_lexed(&self, file: FileId, trees: Rc<TreeSeq>) -> Result<(), CompileError> {
        if let Err(m) = crate::faults::trip("lex") {
            return Err(CompileError::new(m, Span::DUMMY));
        }
        let pair = self.inner.global.borrow().clone();
        let cx = Cx {
            cx: self.inner.clone(),
            pair: pair.clone(),
            ctx: ResolveCtx::default(),
            class: None,
            scope: Rc::new(RefCell::new(Scope::new())),
        };
        let goal = pair
            .grammar
            .nt_for_kind(NodeKind::CompilationUnit)
            .expect("CompilationUnit nt");
        // In multi-error mode, recover at member boundaries so every
        // top-level syntax error in the file is reported.
        let diags = self.inner.diags.borrow().clone();
        // Unit cache: under the pristine base environment a unit parse is a
        // pure function of the token trees, so a session can replay it into
        // this compiler (with fresh lazy cells) instead of re-parsing.
        let cache = self.inner.options.force_cache.clone();
        let unit_key = match &cache {
            Some(_)
                if (pair.grammar.content_hash(), pair.denv.version())
                    == self.inner.pristine_env =>
            {
                Some(trees.fingerprint())
            }
            _ => None,
        };
        let fresh_payload = Rc::new(crate::driver::LazyEnvPayload {
            pair: pair.clone(),
            ctx: ResolveCtx::default(),
            class: None,
        });
        let cached_unit = match (&cache, unit_key) {
            (Some(c), Some(key)) => c.get_unit(key).and_then(|template| {
                crate::driver::refresh_unit(
                    &template,
                    self.inner.pristine_env,
                    &fresh_payload,
                    LazyNode::new,
                )
            }),
            _ => None,
        };
        let unit_node = if let Some(unit) = cached_unit {
            maya_telemetry::count(maya_telemetry::Counter::UnitCacheHits);
            unit
        } else {
            let deps_before = self.inner.dep_log.borrow().len();
            let diags_before = diags.as_ref().map(|d| (d.error_count(), d.warning_count()));
            let unit_node = match &diags {
                Some(d) => crate::recover::parse_trees_recovering(
                    &cx,
                    &trees,
                    goal,
                    crate::recover::Poison::Decl,
                    d,
                )
                .ok_or_else(|| CompileError::reported(Span::DUMMY))?,
                None => cx.parse_trees(&trees, goal)?,
            };
            let diags_after = diags.as_ref().map(|d| (d.error_count(), d.warning_count()));
            if let (Some(c), Some(key)) = (&cache, unit_key) {
                let global = self.inner.global.borrow();
                let still_pristine = (global.grammar.content_hash(), global.denv.version())
                    == self.inner.pristine_env;
                drop(global);
                if still_pristine
                    && self.inner.dep_log.borrow().len() == deps_before
                    && diags_before == diags_after
                {
                    if let Some(template) = crate::driver::refresh_unit(
                        &unit_node,
                        self.inner.pristine_env,
                        &fresh_payload,
                        LazyNode::template,
                    ) {
                        c.insert_unit(key, template);
                    }
                }
            }
            unit_node
        };
        let Node::List(parts) = unit_node else {
            return Err(CompileError::new("internal: compilation unit shape", Span::DUMMY));
        };
        if parts.len() != 3 {
            return Err(CompileError::new("internal: compilation unit shape", Span::DUMMY));
        }
        let package = match &parts[0] {
            Node::Name(p) => {
                let s: Vec<&str> = p.iter().map(|i| i.as_str()).collect();
                Some(s.join("."))
            }
            _ => None,
        };
        let mut ctx = ResolveCtx::default();
        if let Some(p) = &package {
            ctx.package = Some(maya_lexer::sym(p));
        }
        if let Node::List(imports) = &parts[1] {
            for imp in imports {
                if let Node::Decl(Decl::Import(i)) = imp {
                    let s: Vec<&str> = i.path.iter().map(|x| x.as_str()).collect();
                    if i.wildcard {
                        ctx.wildcard_imports.push(maya_lexer::sym(&s.join(".")));
                    } else {
                        ctx.single_imports.push(maya_lexer::sym(&s.join(".")));
                    }
                }
            }
        }
        // Always visible packages.
        ctx.wildcard_imports.push(maya_lexer::sym("java.lang"));
        let decls = match &parts[2] {
            Node::Decls(d) => d.clone(),
            _ => return Err(CompileError::new("internal: declarations shape", Span::DUMMY)),
        };
        self.inner.units.borrow_mut().push(Unit {
            file,
            ctx,
            package,
            decls,
        });
        Ok(())
    }

    /// [`Compiler::add_source`] in multi-error mode: errors are reported
    /// into `diags` (with parser recovery at member boundaries) instead of
    /// stopping at the first, and a panic becomes an internal-compiler-error
    /// diagnostic. Returns `false` when the unit could not be added at all.
    pub fn add_source_diags(&self, name: &str, text: &str, diags: &Diagnostics) -> bool {
        *self.inner.diags.borrow_mut() = Some(diags.clone());
        let result = crate::sandbox::catch(|| self.add_source(name, text));
        *self.inner.diags.borrow_mut() = None;
        match result {
            Ok(Ok(())) => true,
            Ok(Err(e)) => {
                diags.compile_error(e);
                false
            }
            Err(panic_msg) => {
                diags.error(format!("internal: {panic_msg}"), Span::DUMMY);
                false
            }
        }
    }

    /// Adds a batch of sources in multi-error mode, lexing independent
    /// files on worker threads when [`CompileOptions::jobs`] `> 1`.
    ///
    /// Files are registered, parsed, and reported strictly in argument
    /// order, so the observable output (units, diagnostics, expanded code)
    /// is byte-identical to calling [`Compiler::add_source_diags`] once per
    /// file — only lexing and token-tree construction, which are pure per
    /// file, run concurrently. Returns `true` when every file was added
    /// cleanly.
    pub fn add_sources_diags(&self, sources: &[(String, String)], diags: &Diagnostics) -> bool {
        let prelexed = sources.iter().map(|_| None).collect();
        self.add_sources_prelexed_diags(sources, prelexed, diags)
    }

    /// [`Compiler::add_sources_diags`] with some files already lexed.
    ///
    /// `prelexed[i]`, when `Some`, is the lex result for `sources[i]` —
    /// typically the cached token trees of an incremental
    /// [`crate::Session`] file whose content did not change, shared as is
    /// (with their memoised fingerprints). Those slots skip the front end
    /// entirely (their lex telemetry was counted when they were first
    /// lexed); `None` slots are lexed here, in parallel when
    /// [`CompileOptions::jobs`] `> 1`. Everything downstream —
    /// registration order, parsing, diagnostics — is byte-identical to the
    /// all-`None` call, because lexing is pure per file.
    pub fn add_sources_prelexed_diags(
        &self,
        sources: &[(String, String)],
        prelexed: Vec<Option<Result<Rc<TreeSeq>, LexError>>>,
        diags: &Diagnostics,
    ) -> bool {
        assert_eq!(sources.len(), prelexed.len(), "one prelexed slot per source");
        *self.inner.diags.borrow_mut() = Some(diags.clone());
        // Global `-use` imports first, exactly as the first `add_source`
        // call would.
        match crate::sandbox::catch(|| self.ensure_uses_applied()) {
            Ok(Ok(())) => {}
            Ok(Err(e)) => {
                diags.compile_error(e);
                *self.inner.diags.borrow_mut() = None;
                return false;
            }
            Err(p) => {
                diags.error(format!("internal: {p}"), Span::DUMMY);
                *self.inner.diags.borrow_mut() = None;
                return false;
            }
        }
        // Register every file up front: FileIds (and thus every span in
        // every diagnostic) depend only on argument order.
        let files: Vec<FileId> = sources
            .iter()
            .map(|(name, text)| self.inner.sm.borrow_mut().add_file(name, text))
            .collect();
        // Lex only the files without a prelexed result, then stitch the
        // two result sets back into registration order.
        let need: Vec<FileId> = files
            .iter()
            .zip(&prelexed)
            .filter(|(_, p)| p.is_none())
            .map(|(&f, _)| f)
            .collect();
        let mut fresh = {
            let sm = self.inner.sm.borrow();
            lex_files(&sm, &need, self.inner.options.jobs).into_iter()
        };
        let lexed: Vec<Result<Rc<TreeSeq>, LexError>> = prelexed
            .into_iter()
            .map(|p| {
                p.unwrap_or_else(|| {
                    let r = fresh.next().expect("one lex result per needed file");
                    r.map(|trees| Rc::new(TreeSeq::from_send(&trees)))
                })
            })
            .collect();
        // Everything after lexing stays sequential in file order: parsing
        // a unit can extend the global environment (`use` at top level),
        // and diagnostics must come out in file order.
        let mut all_ok = true;
        for (file, result) in files.into_iter().zip(lexed) {
            if diags.at_cap() {
                all_ok = false;
                break;
            }
            let r = crate::sandbox::catch(|| -> Result<(), CompileError> {
                self.process_lexed(file, result?)
            });
            match r {
                Ok(Ok(())) => {}
                Ok(Err(e)) => {
                    diags.compile_error(e);
                    all_ok = false;
                }
                Err(p) => {
                    diags.error(format!("internal: {p}"), Span::DUMMY);
                    all_ok = false;
                }
            }
        }
        *self.inner.diags.borrow_mut() = None;
        all_ok
    }

    /// [`Compiler::compile`] in multi-error mode: classes compile
    /// independently, every error lands in `diags`, and a panic in any
    /// phase becomes an internal-compiler-error diagnostic instead of an
    /// abort.
    pub fn compile_diags(&self, diags: &Diagnostics) {
        *self.inner.diags.borrow_mut() = Some(diags.clone());
        self.compile_diags_inner(diags);
        *self.inner.diags.borrow_mut() = None;
    }

    fn compile_diags_inner(&self, diags: &Diagnostics) {
        use std::collections::HashSet;
        // Pass 1: declare every class, one unit at a time so a bad unit
        // doesn't hide its siblings.
        let mut shaped: Vec<(ClassId, Decl, ResolveCtx, usize)> = Vec::new();
        let unit_count = self.inner.units.borrow().len();
        for ui in 0..unit_count {
            if diags.at_cap() {
                return;
            }
            let (decls, ctx, package) = {
                let units = self.inner.units.borrow();
                (
                    units[ui].decls.clone(),
                    units[ui].ctx.clone(),
                    units[ui].package.clone(),
                )
            };
            match crate::sandbox::catch(|| {
                self.declare_decls(&decls, &ctx, package.as_deref(), ui, &mut shaped)
            }) {
                Ok(Ok(())) => {}
                Ok(Err(e)) => diags.compile_error(e),
                Err(p) => diags.error(
                    format!("internal: declaring classes panicked: {p}"),
                    Span::DUMMY,
                ),
            }
        }
        self.take_decl_table();
        // Pass 2: shape each class; a broken class is excluded from later
        // passes so its errors don't cascade.
        let mut broken: HashSet<ClassId> = HashSet::new();
        for (class, decl, ctx, _ui) in &shaped {
            if diags.at_cap() {
                break;
            }
            match crate::sandbox::catch(|| self.shape_class(*class, decl, ctx)) {
                Ok(Ok(())) => {}
                Ok(Err(e)) => {
                    broken.insert(*class);
                    diags.compile_error(e);
                }
                Err(p) => {
                    broken.insert(*class);
                    diags.error(
                        format!("internal: class shaping panicked: {p}"),
                        Span::DUMMY,
                    );
                }
            }
        }
        // Pass 3: class-processing hooks.
        let hooks = self.inner.class_hooks.borrow().clone();
        for (class, ..) in &shaped {
            if broken.contains(class) || diags.at_cap() {
                continue;
            }
            for h in &hooks {
                match crate::sandbox::catch(|| h(&self.inner, *class)) {
                    Ok(Ok(())) => {}
                    Ok(Err(e)) => {
                        broken.insert(*class);
                        diags.compile_error(e);
                        break;
                    }
                    Err(p) => {
                        broken.insert(*class);
                        diags.error(
                            format!("internal: class hook panicked: {p}"),
                            Span::DUMMY,
                        );
                        break;
                    }
                }
            }
        }
        self.take_signatures();
        // Pass 4: force + check every member, continuing across members.
        for (class, ..) in &shaped {
            if broken.contains(class) || diags.at_cap() {
                continue;
            }
            if let Err(m) = crate::faults::trip("type_check") {
                diags.error(m, Span::DUMMY);
                continue;
            }
            match crate::sandbox::catch(|| self.check_class_with(*class, Some(diags))) {
                Ok(Ok(())) => {}
                Ok(Err(e)) => diags.compile_error(e),
                Err(p) => diags.error(
                    format!("internal: type checking panicked: {p}"),
                    Span::DUMMY,
                ),
            }
        }
    }

    /// [`Compiler::run_main`] in multi-error mode: a runtime failure
    /// becomes a diagnostic carrying the Mayan expansion frames that were
    /// active when the error surfaced.
    pub fn run_main_diags(&self, class_fqcn: &str, diags: &Diagnostics) -> Option<String> {
        *self.inner.diags.borrow_mut() = Some(diags.clone());
        let result = crate::sandbox::catch(|| {
            if let Err(m) = crate::faults::trip("interp") {
                return Err(maya_interp::RuntimeError::new(m, Span::DUMMY));
            }
            self.inner.interp.reset_steps();
            self.inner.interp.run_main(class_fqcn)
        });
        *self.inner.diags.borrow_mut() = None;
        match result {
            Ok(Ok(out)) => Some(out),
            Ok(Err(e)) => {
                let mut d = Diagnostic::error(e.message.clone(), e.span);
                d.frames = e.frames.clone();
                diags.report(d);
                None
            }
            Err(p) => {
                diags.error(format!("internal: {p}"), Span::DUMMY);
                None
            }
        }
    }

    /// Runs the shaper and class compiler over everything added so far.
    ///
    /// # Errors
    ///
    /// Any compile error in any unit.
    pub fn compile(&self) -> Result<(), CompileError> {
        // Pass 1: declare every class (forward references).
        let mut shaped: Vec<(ClassId, Decl, ResolveCtx, usize)> = Vec::new();
        let unit_count = self.inner.units.borrow().len();
        for ui in 0..unit_count {
            let (decls, ctx, package) = {
                let units = self.inner.units.borrow();
                (
                    units[ui].decls.clone(),
                    units[ui].ctx.clone(),
                    units[ui].package.clone(),
                )
            };
            self.declare_decls(&decls, &ctx, package.as_deref(), ui, &mut shaped)?;
        }
        self.take_decl_table();
        // Pass 2: shape each class (parse bodies, compute member types).
        for (class, decl, ctx, _ui) in &shaped {
            self.shape_class(*class, decl, ctx)?;
        }
        // Pass 3: class-processing hooks.
        let hooks = self.inner.class_hooks.borrow().clone();
        for (class, ..) in &shaped {
            for h in &hooks {
                h(&self.inner, *class)?;
            }
        }
        self.take_signatures();
        // Pass 4: compile (force + check) every member.
        for (class, ..) in &shaped {
            self.check_class(*class)?;
        }
        Ok(())
    }

    fn declare_decls(
        &self,
        decls: &[Decl],
        ctx: &ResolveCtx,
        package: Option<&str>,
        ui: usize,
        shaped: &mut Vec<(ClassId, Decl, ResolveCtx, usize)>,
    ) -> Result<(), CompileError> {
        for d in decls {
            match d {
                Decl::Class(c) => {
                    let fqcn = match package {
                        Some(p) => format!("{p}.{}", c.name),
                        None => c.name.to_string(),
                    };
                    let id = self
                        .inner
                        .classes
                        .declare(ClassInfo::new(&fqcn, false))
                        .map_err(|e| CompileError::new(e.message, c.span))?;
                    shaped.push((id, d.clone(), ctx.clone(), ui));
                }
                Decl::Interface(i) => {
                    let fqcn = match package {
                        Some(p) => format!("{p}.{}", i.name),
                        None => i.name.to_string(),
                    };
                    let id = self
                        .inner
                        .classes
                        .declare(ClassInfo::new(&fqcn, true))
                        .map_err(|e| CompileError::new(e.message, i.span))?;
                    shaped.push((id, d.clone(), ctx.clone(), ui));
                }
                Decl::Use(_, inner) => {
                    self.declare_decls(inner, ctx, package, ui, shaped)?;
                }
                Decl::Production(p) => {
                    crate::extension::register_production_decl(&self.inner, p, ctx)?;
                }
                Decl::Mayan(m) => {
                    crate::extension::register_mayan_decl(&self.inner, m, ctx, package)?;
                }
                Decl::Import(_) | Decl::Empty => {}
                // Poison node from parser recovery: already reported.
                Decl::Error(_) => {}
                other => {
                    return Err(CompileError::new(
                        format!(
                            "unsupported top-level declaration {}",
                            other.node_kind().name()
                        ),
                        Span::DUMMY,
                    ))
                }
            }
        }
        Ok(())
    }

    fn env_for_body(&self, tree_span: Span) -> EnvPair {
        if !tree_span.is_dummy() {
            if let Some(p) = self
                .inner
                .decl_envs
                .borrow()
                .get(&(tree_span.file, tree_span.lo))
            {
                return p.clone();
            }
        }
        self.inner.global.borrow().clone()
    }

    fn shape_class(&self, class: ClassId, decl: &Decl, ctx: &ResolveCtx) -> Result<(), CompileError> {
        let (body_tree, superclass, interfaces, modifiers, is_interface) = match decl {
            Decl::Class(c) => (
                c.body_tree.clone(),
                c.superclass.clone(),
                c.interfaces.clone(),
                c.modifiers,
                false,
            ),
            Decl::Interface(i) => (
                i.body_tree.clone(),
                None,
                i.extends.clone(),
                i.modifiers,
                true,
            ),
            _ => return Ok(()),
        };
        let resolve = |tn: &TypeName| -> Result<ClassId, CompileError> {
            match self.inner.classes.resolve_type_name(tn, ctx)? {
                Type::Class(c) => Ok(c),
                other => Err(CompileError::new(
                    format!(
                        "{} is not a class type",
                        self.inner.classes.describe(&other)
                    ),
                    tn.span,
                )),
            }
        };
        {
            let info = self.inner.classes.info(class);
            let mut info = info.borrow_mut();
            info.modifiers = modifiers;
            info.superclass = match &superclass {
                Some(tn) => Some(resolve(tn)?),
                None if !is_interface => self.inner.classes.by_fqcn_str("java.lang.Object"),
                None => None,
            };
            info.interfaces = interfaces
                .iter()
                .map(resolve)
                .collect::<Result<Vec<_>, _>>()?;
        }

        let Some(tree) = body_tree else {
            return Ok(());
        };
        let pair = self.env_for_body(tree.span());
        let (name, simple) = {
            let info = self.inner.classes.info(class);
            let info = info.borrow();
            (info.fqcn, info.simple)
        };
        let mut class_ctx = ctx.clone();
        class_ctx.local_classes.push((simple, class));
        self.inner.interp.set_class_ctx(class, class_ctx.clone());

        // Class layer: under the pristine base environment the member list
        // is a pure function of the body tree, so an entry can replay it
        // (with fresh lazy cells bound to *this* class) instead of
        // re-parsing.
        let env = (pair.grammar.content_hash(), pair.denv.version());
        let layer = match (
            &self.inner.options.force_cache,
            &*self.inner.decl_table.borrow(),
        ) {
            (Some(cache), Some(table)) if env == self.inner.pristine_env => {
                let key = table.class_key(tree.fingerprint(), name, env, ctx);
                Some((cache.clone(), table.clone(), key))
            }
            _ => None,
        };
        if let Some((cache, table, key)) = &layer {
            if let Some(entry) = cache.get_class(*key) {
                maya_telemetry::count(maya_telemetry::Counter::ClassBodyCacheHits);
                return self.replay_class(class, entry, pair, class_ctx, cache, table);
            }
        }

        // Record per-class metadata before parsing members, so nested
        // lookups see it.
        self.inner.class_meta.borrow_mut().insert(
            class,
            Rc::new(ClassMeta {
                env: pair.clone(),
                ctx: class_ctx.clone(),
                entry: None,
                forced: None,
            }),
        );
        let cx = Cx {
            cx: self.inner.clone(),
            pair: pair.clone(),
            ctx: class_ctx.clone(),
            class: Some(class),
            scope: Rc::new(RefCell::new(Scope::new())),
        };
        let goal = pair
            .grammar
            .nt_for_kind(NodeKind::ClassBody)
            .expect("ClassBody nt");
        let diag_counts = || {
            self.inner
                .diags
                .borrow()
                .as_ref()
                .map(|d| (d.error_count(), d.warning_count()))
        };
        let deps_before = self.inner.dep_log.borrow().len();
        let diags_before = diag_counts();
        let members_node = cx.parse_trees(&tree.trees, goal)?;
        // Templates are stored class-agnostic (`class: None` payloads):
        // class ids are per-compiler and shift under edits, so a borrower
        // binds every lazy to its own class id.
        let entry = layer.as_ref().and_then(|(cache, _, key)| {
            let global = self.inner.global.borrow();
            let still_pristine =
                (global.grammar.content_hash(), global.denv.version()) == self.inner.pristine_env;
            drop(global);
            if !still_pristine
                || self.inner.dep_log.borrow().len() != deps_before
                || diag_counts() != diags_before
            {
                return None;
            }
            let canonical = Rc::new(crate::driver::LazyEnvPayload {
                pair: pair.clone(),
                ctx: ResolveCtx::default(),
                class: None,
            });
            let template = crate::driver::refresh_members(
                &members_node,
                self.inner.pristine_env,
                &canonical,
                Some(class),
                LazyNode::template,
            )?;
            let entry = Rc::new(ClassEntry::new(member_decls(template)?));
            cache.insert_class(*key, entry.clone());
            Some(entry)
        });
        let members = member_decls(members_node)
            .ok_or_else(|| CompileError::new("internal: class body shape", tree.span()))?;
        let mut sigs = layer
            .as_ref()
            .filter(|(_, table, _)| entry.is_some() && self.can_replay(table))
            .map(|_| Vec::new());
        self.install_members(
            class,
            &members,
            &class_ctx,
            &mut |l, _| l.clone(),
            sigs.as_mut(),
        )?;
        if let (Some(entry), Some(sigs), Some((_, table, _))) = (&entry, sigs, &layer) {
            *entry.shaped.borrow_mut() = Some((table.digest, sigs.into()));
        }
        if entry.is_some() {
            self.inner.class_meta.borrow_mut().insert(
                class,
                Rc::new(ClassMeta {
                    env: pair,
                    ctx: class_ctx,
                    entry,
                    forced: None,
                }),
            );
        }
        Ok(())
    }

    /// True when the class layer may replay signatures and bodies resolved
    /// under `table`: no fault is armed, and no class was declared since
    /// the table was taken.
    fn can_replay(&self, table: &crate::check_memo::DeclTable) -> bool {
        !crate::faults::any_armed() && table.current(&self.inner.classes)
    }

    /// Installs a class's members from its class-layer entry: straight from
    /// the recorded signatures when they were resolved under this request's
    /// declared-class table, else by resolving the member templates again.
    /// Bodies come forced from the entry when it has them.
    fn replay_class(
        &self,
        class: ClassId,
        entry: Rc<ClassEntry>,
        pair: EnvPair,
        class_ctx: ResolveCtx,
        cache: &ForceCache,
        table: &crate::check_memo::DeclTable,
    ) -> Result<(), CompileError> {
        let replay = self.can_replay(table);
        let forced = entry.forced.borrow().clone().filter(|_| replay);
        let shaped = entry
            .shaped
            .borrow()
            .clone()
            .filter(|(digest, _)| replay && *digest == table.digest);
        let payload = forced.is_none().then(|| {
            Rc::new(crate::driver::LazyEnvPayload {
                pair: pair.clone(),
                ctx: class_ctx.clone(),
                class: Some(class),
            }) as Rc<dyn std::any::Any>
        });
        let meta = Rc::new(ClassMeta {
            env: pair,
            ctx: class_ctx,
            entry: Some(entry.clone()),
            forced: forced.clone(),
        });
        self.inner
            .class_meta
            .borrow_mut()
            .insert(class, meta.clone());
        let mut bodies = ReplayBodies {
            entry: &entry,
            forced: forced.as_deref(),
            payload,
            methods: 0,
            ctors: 0,
        };
        let classes = &self.inner.classes;
        match shaped {
            Some((_, sigs)) => {
                let info = classes.info(class);
                let mut info = info.borrow_mut();
                let methods = sigs.iter().filter(|s| matches!(s, Sig::Method(..))).count();
                info.methods.reserve(methods);
                for sig in sigs.iter() {
                    let body = match sig {
                        Sig::Method(_, true) => Some(bodies.next(false)),
                        Sig::Ctor(_) => Some(bodies.next(true)),
                        Sig::Method(_, false) | Sig::Field(_) => None,
                    };
                    push_sig(&mut info, sig, body);
                }
                drop(info);
                classes.bump_version();
            }
            None => {
                let mut sigs = replay.then(Vec::new);
                self.install_members(
                    class,
                    &entry.members,
                    &meta.ctx,
                    &mut |_, ctor| bodies.next(ctor),
                    sigs.as_mut(),
                )?;
                if let Some(sigs) = sigs {
                    *entry.shaped.borrow_mut() = Some((table.digest, sigs.into()));
                }
            }
        }
        if forced.is_some() {
            cache.touch_bodies(&entry);
        }
        Ok(())
    }

    /// Resolves and installs a member list. `body` gives the lazy to
    /// install for each method and constructor body (`true` for a
    /// constructor); `sigs`, when given, receives every installed
    /// signature.
    fn install_members(
        &self,
        class: ClassId,
        members: &[Decl],
        ctx: &ResolveCtx,
        body: &mut dyn FnMut(&LazyNode, bool) -> LazyNode,
        mut sigs: Option<&mut Vec<Sig>>,
    ) -> Result<(), CompileError> {
        let classes = &self.inner.classes;
        let simple = classes.info(class).borrow().simple;
        for m in members {
            let (sig, lazy) = match m {
                Decl::Method(md) => {
                    let ret = classes.resolve_type_name(&md.ret, ctx)?;
                    let mut params = Vec::new();
                    let mut names = Vec::new();
                    let mut specializers = Vec::new();
                    for f in &md.formals {
                        params.push(classes.resolve_type_name(&f.ty, ctx)?);
                        names.push(f.name.sym);
                        specializers.push(match &f.specializer {
                            Some(tn) => Some(classes.resolve_type_name(tn, ctx)?),
                            None => None,
                        });
                    }
                    let info = MethodInfo {
                        name: md.name.sym,
                        params,
                        param_names: names,
                        ret,
                        modifiers: md.modifiers,
                        body: None,
                        native: None,
                        specializers,
                    };
                    let lazy = md.body.as_ref().map(|l| body(l, false));
                    (Sig::Method(info, lazy.is_some()), lazy)
                }
                Decl::Ctor(cd) => {
                    if cd.name.sym != simple {
                        return Err(CompileError::new(
                            format!(
                                "constructor name {} does not match class {}",
                                cd.name, simple
                            ),
                            cd.span,
                        ));
                    }
                    let mut params = Vec::new();
                    let mut names = Vec::new();
                    for f in &cd.formals {
                        params.push(classes.resolve_type_name(&f.ty, ctx)?);
                        names.push(f.name.sym);
                    }
                    let info = CtorInfo {
                        params,
                        param_names: names,
                        modifiers: cd.modifiers,
                        body: None,
                        native: None,
                    };
                    (Sig::Ctor(info), Some(body(&cd.body, true)))
                }
                Decl::Field(fd) => {
                    let info = FieldInfo {
                        name: fd.name.sym,
                        ty: classes.resolve_type_name(&fd.ty, ctx)?,
                        modifiers: fd.modifiers,
                        init: fd.init.clone(),
                    };
                    (Sig::Field(info), None)
                }
                Decl::Use(_, inner) => {
                    self.install_members(class, inner, ctx, body, sigs.as_deref_mut())?;
                    continue;
                }
                Decl::Production(p) => {
                    crate::extension::register_production_decl(&self.inner, p, ctx)?;
                    continue;
                }
                Decl::Mayan(md) => {
                    crate::extension::register_mayan_decl(&self.inner, md, ctx, None)?;
                    continue;
                }
                // Poison nodes from parser recovery were already reported.
                Decl::Empty | Decl::Import(_) | Decl::Error(_) => continue,
                other => {
                    return Err(CompileError::new(
                        format!("unsupported member {}", other.node_kind().name()),
                        Span::DUMMY,
                    ))
                }
            };
            push_sig(&mut classes.info(class).borrow_mut(), &sig, lazy);
            classes.bump_version();
            if let Some(sigs) = sigs.as_deref_mut() {
                sigs.push(sig);
            }
        }
        Ok(())
    }

    /// Takes the declared-class table for the class layer, once every
    /// class is declared (see `crate::check_memo::DeclTable`).
    fn take_decl_table(&self) {
        let table = self
            .inner
            .options
            .force_cache
            .as_ref()
            .map(|_| Rc::new(crate::check_memo::DeclTable::of(&self.inner.classes)));
        *self.inner.decl_table.borrow_mut() = table;
    }

    /// Digests the class signatures for the clean-check layer, once the
    /// class hooks have run (see `crate::check_memo`).
    fn take_signatures(&self) {
        let sigs = self
            .inner
            .options
            .force_cache
            .as_ref()
            .filter(|_| !crate::faults::any_armed())
            .map(|_| Rc::new(crate::check_memo::Signatures::of(&self.inner.classes)));
        *self.inner.signatures.borrow_mut() = sigs;
    }

    /// Forces and type-checks every member of a class.
    fn check_class(&self, class: ClassId) -> Result<(), CompileError> {
        self.check_class_with(class, None)
    }

    /// [`Compiler::check_class`], continuing past member errors when a
    /// diagnostics sink is given (each member fails independently).
    fn check_class_with(
        &self,
        class: ClassId,
        diags: Option<&Diagnostics>,
    ) -> Result<(), CompileError> {
        // Ok(true) = reported and at the error cap, stop checking.
        let settle = |r: Result<(), CompileError>| -> Result<bool, CompileError> {
            match r {
                Ok(()) => Ok(false),
                Err(e) => match diags {
                    Some(d) => {
                        d.compile_error(e);
                        Ok(d.at_cap())
                    }
                    None => Err(e),
                },
            }
        };
        let meta = self
            .inner
            .class_meta
            .borrow()
            .get(&class)
            .cloned()
            .unwrap_or_else(|| {
                Rc::new(ClassMeta {
                    env: self.inner.global.borrow().clone(),
                    ctx: ResolveCtx::default(),
                    entry: None,
                    forced: None,
                })
            });
        let classes = &self.inner.classes;
        // The clean-check layer serves this class only while its
        // environment is pristine and the table is the one digested.
        let checks = match (
            &self.inner.options.force_cache,
            self.inner.signatures.borrow().clone(),
        ) {
            (Some(cache), Some(sigs))
                if classes.version() == sigs.version
                    && (meta.env.grammar.content_hash(), meta.env.denv.version())
                        == self.inner.pristine_env =>
            {
                Some((cache.clone(), sigs))
            }
            _ => None,
        };
        // A class installed with its entry's forced bodies, whose members
        // an earlier request checked clean under this signature digest,
        // skips their checks.
        let clean = match (&checks, &meta.entry, &meta.forced) {
            (Some((cache, sigs)), Some(entry), Some(forced)) => {
                let keys = self.clean_replay(class, entry, forced, sigs.digest);
                if let Some(keys) = &keys {
                    cache.touch_checks(keys);
                }
                keys.is_some()
            }
            _ => false,
        };
        if !clean && self.check_members(class, &meta, checks.as_ref(), &settle)? {
            return Ok(());
        }
        let fields: Vec<FieldInfo> = classes
            .info(class)
            .borrow()
            .fields
            .iter()
            .filter(|f| f.init.is_some())
            .cloned()
            .collect();
        let host = || ForceHost {
            c: Cx {
                cx: self.inner.clone(),
                pair: meta.env.clone(),
                ctx: meta.ctx.clone(),
                class: Some(class),
                scope: Rc::new(RefCell::new(Scope::new())),
            },
        };
        for f in &fields {
            if let Some(init) = &f.init {
                let r = (|| -> Result<(), CompileError> {
                    let mut scope = Scope::new();
                    scope.this_class = Some(class);
                    scope.static_ctx = f.modifiers.is_static();
                    let mut host = host();
                    let mut checker = Checker::new(classes, &meta.ctx, &mut host);
                    let ty = checker.type_of_expr(init, &mut scope)?;
                    if !classes.is_assignable_value(init, &ty, &f.ty) {
                        return Err(CompileError::new(
                            format!(
                                "cannot initialize field {} : {} with {}",
                                f.name,
                                classes.describe(&f.ty),
                                classes.describe(&ty)
                            ),
                            init.span,
                        ));
                    }
                    Ok(())
                })();
                if settle(r)? {
                    return Ok(());
                }
            }
        }
        Ok(())
    }

    /// The clean-check keys a replayed class's entry recorded under
    /// `digest`, when the class's bodies after the hooks are exactly the
    /// forced bodies it was installed with, in check order. A hook may add
    /// members whose bodies live elsewhere (MultiJava's external methods);
    /// such a class is checked member by member.
    fn clean_replay(
        &self,
        class: ClassId,
        entry: &ClassEntry,
        forced: &[Rc<Node>],
        digest: u128,
    ) -> Option<Rc<[u128]>> {
        let keys = entry
            .clean
            .borrow()
            .as_ref()
            .filter(|(d, _)| *d == digest)
            .map(|(_, keys)| keys.clone())?;
        let info = self.inner.classes.info(class);
        let info = info.borrow();
        let mut bodies = info
            .methods
            .iter()
            .filter_map(|m| m.body.as_ref())
            .chain(info.ctors.iter().filter_map(|c| c.body.as_ref()));
        let exact = forced.iter().all(|f| {
            bodies.next().is_some_and(
                |b| matches!(&*b.cell.borrow(), LazyCell::Forced(n) if Rc::ptr_eq(n, f)),
            )
        }) && bodies.next().is_none();
        exact.then_some(keys)
    }

    /// Forces and checks every method and constructor body of a class,
    /// skipping members recorded clean; for a class with a class-layer
    /// entry, records the forced bodies and the clean check when every
    /// member qualifies. Returns `Ok(true)` when `settle` stopped at the
    /// error cap.
    fn check_members(
        &self,
        class: ClassId,
        meta: &ClassMeta,
        checks: Option<&(Rc<ForceCache>, Rc<crate::check_memo::Signatures>)>,
        settle: &dyn Fn(Result<(), CompileError>) -> Result<bool, CompileError>,
    ) -> Result<bool, CompileError> {
        let classes = &self.inner.classes;
        let (methods, ctors): (Vec<MethodInfo>, Vec<CtorInfo>) = {
            let info = classes.info(class);
            let info = info.borrow();
            (info.methods.clone(), info.ctors.clone())
        };
        let pristine = self.inner.pristine_env;
        let entry = meta.entry.as_ref().filter(|_| checks.is_some());
        let mut record = entry.map(|e| ClassRecord {
            forced: Vec::with_capacity(e.bodies.len()),
            keys: Vec::with_capacity(e.bodies.len()),
            exact: true,
            pure: true,
            clean: true,
        });
        let start = self.inner.purity_marks();
        let mut index = 0;
        let mut check_body = |body: &LazyNode,
                              param_names: &[Symbol],
                              params: &[Type],
                              ret: &Type,
                              is_static: bool,
                              mut record: Option<&mut ClassRecord>|
         -> Result<(), CompileError> {
            let i = index;
            index += 1;
            // The force key and the payload's context are read before
            // forcing: from the unforced cell, or from the entry for a body
            // installed forced from it.
            let source = match crate::check_memo::unforced_source(body, pristine) {
                Some((fingerprint, payload)) => Some(((body.goal, fingerprint), Some(payload))),
                None => {
                    meta.forced
                        .as_ref()
                        .zip(meta.entry.as_ref())
                        .and_then(|(forced, entry)| {
                            let cell = body.cell.borrow();
                            let LazyCell::Forced(node) = &*cell else {
                                return None;
                            };
                            // Usually at its own index; after bodies a hook
                            // added, further on.
                            let is = |f: &Rc<Node>| Rc::ptr_eq(node, f);
                            let at = match forced.get(i) {
                                Some(f) if is(f) => i,
                                _ => forced.iter().position(is)?,
                            };
                            let b = &entry.bodies[at];
                            Some(((b.goal, b.fingerprint), None))
                        })
                }
            };
            let memo = checks
                .zip(source.as_ref())
                .map(|((cache, sigs), (force_key, payload))| {
                    let payload_ctx = match payload {
                        Some(p) => (&p.ctx, p.class),
                        None => (&meta.ctx, Some(class)),
                    };
                    let key = sigs.member_key(
                        class,
                        &meta.ctx,
                        *force_key,
                        payload_ctx,
                        is_static,
                        ret,
                        param_names,
                        params,
                    );
                    (cache, key)
                });
            let make_scope = || {
                let mut scope = Scope::new();
                scope.this_class = Some(class);
                scope.static_ctx = is_static;
                scope.return_type = ret.clone();
                for (name, ty) in param_names.iter().zip(params) {
                    scope.declare(
                        *name,
                        VarBinding {
                            ty: ty.clone(),
                            kind: VarKind::Param,
                            is_final: false,
                        },
                    );
                }
                scope
            };
            if let Some(r) = record.as_deref_mut() {
                r.exact &= entry
                    .and_then(|e| e.bodies.get(i))
                    .map(|b| (b.goal, b.fingerprint))
                    == source.as_ref().map(|(k, _)| *k);
            }
            // Force with a scratch copy (parse-time dispatch bindings),
            // then check with a clean scope.
            let before = self.inner.purity_marks();
            force_lazy(&self.inner, body, || Rc::new(RefCell::new(make_scope())))?;
            let node = body
                .forced_node()
                .ok_or_else(|| CompileError::new("internal: body not forced", Span::DUMMY))?;
            if let Some(r) = record {
                r.pure &= self.inner.purity_marks() == before;
                r.forced.push(node.clone());
                match &memo {
                    Some((_, key)) => r.keys.push(*key),
                    None => r.clean = false,
                }
            }
            if let Some((cache, key)) = &memo {
                if cache.check_hit(*key) {
                    return Ok(());
                }
            }
            let mut host = ForceHost {
                c: Cx {
                    cx: self.inner.clone(),
                    pair: meta.env.clone(),
                    ctx: meta.ctx.clone(),
                    class: Some(class),
                    scope: Rc::new(RefCell::new(Scope::new())),
                },
            };
            let mut checker = Checker::new(classes, &meta.ctx, &mut host);
            checker.check_node(&node, &mut make_scope())?;
            // Only a check that reported nothing, and whose force and
            // check observed no `use` and deferred nothing, is recorded:
            // a member that reports anything is checked on every request.
            if let Some((cache, key)) = memo {
                if self.inner.purity_marks() == before {
                    cache.record_check(key);
                }
            }
            Ok(())
        };

        let bodies = methods
            .iter()
            .filter_map(|m| {
                let body = m.body.as_ref()?;
                Some((body, &m.param_names, &m.params, &m.ret, m.is_static()))
            })
            .chain(ctors.iter().filter_map(|c| {
                Some((
                    c.body.as_ref()?,
                    &c.param_names,
                    &c.params,
                    &Type::Void,
                    false,
                ))
            }));
        for (body, param_names, params, ret, is_static) in bodies {
            let r = check_body(body, param_names, params, ret, is_static, record.as_mut());
            if r.is_err() {
                if let Some(r) = record.as_mut() {
                    r.clean = false;
                }
            }
            if settle(r)? {
                return Ok(true);
            }
        }
        // Record what this pass learned, when the class's bodies are
        // exactly its entry's: the forced bodies once every force was pure,
        // and the clean check once, besides, every member checked clean and
        // the purity marks did not move across the class.
        if let (Some(entry), Some(r), Some((_, sigs))) = (entry, record, checks) {
            let n = entry.bodies.len();
            if r.exact && r.pure && index == n && r.forced.len() == n {
                let mut forced = entry.forced.borrow_mut();
                if forced.is_none() {
                    *forced = Some(r.forced.into());
                }
                if r.clean && r.keys.len() == n && self.inner.purity_marks() == start {
                    *entry.clean.borrow_mut() = Some((sigs.digest, r.keys.into()));
                }
            }
        }
        Ok(false)
    }

    /// Compiles everything and runs `Class.main()`, returning captured
    /// output.
    ///
    /// # Errors
    ///
    /// Compile errors, runtime errors, and uncaught exceptions.
    pub fn run_main(&self, class_fqcn: &str) -> Result<String, CompileError> {
        if let Err(m) = crate::faults::trip("interp") {
            return Err(CompileError::new(m, Span::DUMMY));
        }
        self.inner.interp.reset_steps();
        Ok(self.inner.interp.run_main(class_fqcn)?)
    }

    /// Lets the interpreter force lazy bodies it reaches unforced. The
    /// closure lives in the interpreter, which this compiler owns, so it
    /// holds the compiler weakly: a strong handle would be a cycle that
    /// keeps every compiler (and its class table and interpreter) alive.
    fn install_runtime_forcer(&self) {
        let w = Rc::downgrade(&self.inner);
        self.inner.interp.set_forcer(Rc::new(move |_i, lazy, _class| {
            let Some(inner) = w.upgrade() else {
                return Err(maya_interp::RuntimeError::new(
                    "internal: lazy body forced after its compiler was dropped",
                    Span::DUMMY,
                ));
            };
            force_lazy(&inner, lazy, || Rc::new(RefCell::new(Scope::new())))
                .map_err(|e| maya_interp::RuntimeError::new(e.message, e.span))
        }));
    }

    /// Points the interpreter's error-frame provider at the live Mayan
    /// expansion stack, so runtime errors raised inside `expand` bodies
    /// carry "in expansion of ..." notes.
    fn install_frame_provider(&self) {
        let w = Rc::downgrade(&self.inner);
        self.inner.interp.set_frame_provider(Rc::new(move || {
            let Some(inner) = w.upgrade() else {
                return Vec::new();
            };
            let sm = inner.sm.borrow();
            let frames: Vec<String> = inner
                .expand_stack
                .borrow()
                .iter()
                .rev()
                .map(|s| {
                    let (mayan, _) = &s.chain[s.idx];
                    format!("Mayan {} at {}", mayan.name, sm.describe(s.span))
                })
                .collect();
            frames
        }));
    }

    /// One-call convenience for tests and examples: add a source, compile,
    /// run `main`.
    ///
    /// # Errors
    ///
    /// See [`Compiler::add_source`], [`Compiler::compile`],
    /// [`Compiler::run_main`].
    pub fn compile_and_run(&self, name: &str, text: &str, main: &str) -> Result<String, CompileError> {
        self.add_source(name, text)?;
        self.compile()?;
        self.run_main(main)
    }
}
