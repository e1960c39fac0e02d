//! Compiler telemetry: phase timing, monotonic counters, and a structured
//! expansion trace.
//!
//! The paper's central performance claims — that lazy parsing interleaved
//! with lazy type checking avoids wasted work (§4), and that Mayan
//! multimethod dispatch is cheap enough to drive every grammar production
//! (§4.4) — are only checkable if the pipeline reports what it did. This
//! crate is the zero-dependency measurement substrate every other crate
//! reports through.
//!
//! # Design
//!
//! Telemetry is collected into a **thread-local session**. When no session
//! is active (the default), every instrumentation call is a single
//! thread-local boolean load and an early return, so the compiler pays no
//! measurable cost for being instrumented. A session is opened with
//! [`Session::start`] and closed with [`Session::finish`], which yields a
//! [`Report`]:
//!
//! ```
//! use maya_telemetry as telemetry;
//!
//! let session = telemetry::Session::start(telemetry::Config::default());
//! telemetry::add(telemetry::Counter::TokensLexed, 3);
//! {
//!     let _p = telemetry::phase(telemetry::Phase::Lex);
//!     // ... work ...
//! }
//! let report = session.finish();
//! assert_eq!(report.counter(telemetry::Counter::TokensLexed), 3);
//! assert_eq!(report.phase_calls(telemetry::Phase::Lex), 1);
//! ```
//!
//! Three consumers sit on top:
//!
//! * `mayac --time-passes` prints [`Report::time_passes_table`];
//! * `mayac --stats[=FILE]` emits [`Report::to_json`] (schema
//!   `maya-telemetry/1`, documented in README.md);
//! * `mayac --trace-expansion[=FILTER]` installs a streaming sink
//!   ([`Config::sink`]) that receives each [`TraceEvent`] as it happens.
//!
//! Phases nest (a parse forces a lazy node which parses which dispatches
//! which type-checks which parses …); a phase's wall-clock time is recorded
//! for the *outermost* activation only, so the per-phase times in a report
//! are true wall-clock totals, not double counted.

use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::{Duration, Instant};

mod caches;
mod hist;
mod jsonw;
mod profile;
mod spans;

pub use caches::{
    cache_eviction, cache_hit, cache_miss, cache_sized, cache_snapshot, cache_stats, CacheId,
    CacheStats, GenMemo, N_CACHES,
};
pub use hist::Histogram;
pub use jsonw::JsonWriter;
pub use profile::{
    prof_binop_pair, prof_enter, prof_exit, prof_opcode, prof_site, profiling, InterpProfile,
    MethodStat, SiteStat,
};
pub use spans::{SpanRec, NO_PARENT};

// ---- phases ------------------------------------------------------------------

/// A compiler phase, for `--time-passes` accounting.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase {
    /// Scanning and token-tree construction.
    Lex,
    /// LALR(1) table construction (base grammar and every extension).
    TableBuild,
    /// Table-driven parsing (including pattern parses and forced re-parses).
    Parse,
    /// Mayan applicability testing and chain ordering.
    Dispatch,
    /// Forcing lazy nodes (parse-on-demand).
    Force,
    /// Static type checking.
    TypeCheck,
    /// Template compilation (pattern parse, hygiene analysis, recipe).
    TemplateCompile,
    /// Template instantiation (recipe replay).
    TemplateInstantiate,
    /// Interpreter execution (metaprograms and the final `main`).
    Interp,
}

impl Phase {
    /// Every phase, in pipeline order.
    pub const ALL: [Phase; 9] = [
        Phase::Lex,
        Phase::TableBuild,
        Phase::Parse,
        Phase::Dispatch,
        Phase::Force,
        Phase::TypeCheck,
        Phase::TemplateCompile,
        Phase::TemplateInstantiate,
        Phase::Interp,
    ];

    /// Stable snake_case name (the JSON key).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Lex => "lex",
            Phase::TableBuild => "table_build",
            Phase::Parse => "parse",
            Phase::Dispatch => "dispatch",
            Phase::Force => "force",
            Phase::TypeCheck => "type_check",
            Phase::TemplateCompile => "template_compile",
            Phase::TemplateInstantiate => "template_instantiate",
            Phase::Interp => "interp",
        }
    }

    fn idx(self) -> usize {
        match self {
            Phase::Lex => 0,
            Phase::TableBuild => 1,
            Phase::Parse => 2,
            Phase::Dispatch => 3,
            Phase::Force => 4,
            Phase::TypeCheck => 5,
            Phase::TemplateCompile => 6,
            Phase::TemplateInstantiate => 7,
            Phase::Interp => 8,
        }
    }
}

const N_PHASES: usize = Phase::ALL.len();

// ---- counters ----------------------------------------------------------------

/// A monotonic counter. The set mirrors the paper's cost model: lexing,
/// parsing (eager vs. lazy), dispatch, templates, hygiene, interpretation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Counter {
    /// Tokens produced by the scanner.
    TokensLexed,
    /// Delimiter subtrees built by the stream lexer.
    TokenTreesBuilt,
    /// Source files lexed.
    FilesLexed,
    /// LALR(1) table constructions (cache misses, not lookups).
    TablesBuilt,
    /// Grammar snapshots extended (one per syntax import).
    GrammarExtensions,
    /// Terminals/subtrees shifted by the parse engine.
    ParserShifts,
    /// Productions reduced by the parse engine.
    ParserReductions,
    /// Lazy nodes created (candidates for never being parsed).
    LazyNodesCreated,
    /// Lazy nodes actually forced. The paper's laziness claim is
    /// `LazyNodesForced < LazyNodesCreated` on real programs.
    LazyNodesForced,
    /// Reductions routed through Mayan dispatch (vs. builtin actions).
    DispatchReductions,
    /// Mayan candidates considered across all dispatched reductions.
    DispatchCandidates,
    /// Individual applicability tests (parameter matches, including
    /// substructure recursion) executed.
    DispatchTests,
    /// Static-type applicability tests specifically (the expensive kind:
    /// each may force lazy context).
    DispatchTypeTests,
    /// Mayan bodies actually run (winners plus `nextRewrite` chains).
    MayansFired,
    /// Templates compiled (pattern-parsed into recipes).
    TemplatesCompiled,
    /// Template instantiations (recipe replays).
    TemplatesInstantiated,
    /// Hygiene renames: binders given fresh `name$N` identities at
    /// instantiation.
    HygieneRenames,
    /// Interpreter method/constructor invocations.
    InterpCalls,
    /// Mayan bodies (or template instantiations) that panicked and were
    /// converted into diagnostics by the sandbox.
    MayanPanics,
    /// Expansions aborted by the expansion-depth limit.
    DepthLimitHits,
    /// Expansions aborted by the expansion-fuel limit.
    FuelLimitHits,
    /// Interpreter runs aborted by the step (or stack) limit.
    StepLimitHits,
    /// Import cycles detected and reported (`use A` → `use B` → `use A`).
    ImportCycles,
    /// Syntax/semantic errors the parser recovered from (panic-mode
    /// synchronization at statement/member boundaries).
    ParseRecoveries,
    /// LALR table requests answered from the content-hash cache (in-process
    /// or on-disk) without running table construction.
    TableCacheHits,
    /// LALR table requests that missed every cache layer and built tables.
    TableCacheMisses,
    /// Dispatched reductions answered from the `(production, argument
    /// signature) → ordered candidates` memo with zero applicability tests.
    DispatchIndexHits,
    /// Dispatched reductions that ran the full applicability scan (and, for
    /// memoizable productions, populated the memo).
    DispatchIndexMisses,
    /// Compile requests served by a persistent [`Session`] (the `mayad`
    /// server, `mayac --watch`, or the embedding API).
    ServerRequests,
    /// Session requests answered entirely from the previous outcome: no
    /// file changed (byte- or token-identical), so nothing was rebuilt.
    IncrFullReuses,
    /// Files whose token stream actually changed since the last request.
    IncrFilesChanged,
    /// Files re-lexed/re-parsed because they were in the invalidation cone
    /// of a changed file (including the changed files themselves).
    IncrFilesRecompiled,
    /// Files outside every invalidation cone whose cached token trees were
    /// reused (the front end never touches their text again).
    IncrFilesReused,
    /// Syntax imports whose resulting grammar content hash was already
    /// seen by this session — the LALR table memo serves them for free.
    IncrGrammarReuses,
    /// Lazy-body parses served from the session's force cache: the body's
    /// token trees were unchanged and its previous parse was provably
    /// pure, so the memoized AST is returned without re-parsing.
    ForceCacheHits,
    /// Whole-file compilation-unit parses served from the session's force
    /// cache: the file's token trees were unchanged and its previous
    /// parse was provably pure, so the AST is rebuilt from the memo (with
    /// fresh lazy cells) without re-parsing.
    UnitCacheHits,
    /// Class-body member-list parses served from the session's force
    /// cache (same purity regime as `UnitCacheHits`, applied to the
    /// deferred `ClassBody` parse that shapes a class's members).
    ClassBodyCacheHits,
    /// Local/parameter references resolved to fixed frame slots by the
    /// runtime lowering pass.
    SlotsResolved,
    /// Expressions folded to constants by the lowering pre-pass
    /// (literal arithmetic, constant string concat, trivial tests).
    ConstsFolded,
    /// `mayad` requests that panicked outside the compile sandbox and
    /// were isolated by the server's request-level catch (the client got
    /// a JSON error response; the server kept running).
    ServerPanicsIsolated,
    /// Lowered bodies compiled to register bytecode by the VM tier.
    BcCompiled,
    /// Superinstructions emitted during bytecode compilation (fused
    /// load+load+op, compare+branch, local increment, store-fused ops).
    BcSuperinsts,
    /// Bytecode call sites answered by their polymorphic inline cache
    /// (receiver class and argument keys matched a cache entry).
    PicHits,
    /// Bytecode call sites that missed every polymorphic cache entry and
    /// ran full method selection.
    PicMisses,
    /// Polymorphic-cache entries evicted (LRU) to make room for a new
    /// receiver class at an already-full site.
    PicEvictions,
    /// Calls that entered a callee spliced inline by the bytecode refine
    /// pass (its guard passed; each also counts as a `PicHits`).
    BcInlineEntries,
    /// Splice guards that failed and fell back to the generic call (which
    /// then counts its own PIC hit or miss).
    BcInlineFallbacks,
    /// Activations that switched from a body's cold bytecode to a refined
    /// copy at a loop back-edge (on-stack replacement); each copy also
    /// counts as a `BcCompiled`.
    BcOsrSwitches,
}

impl Counter {
    /// Every counter, in report order.
    pub const ALL: [Counter; 48] = [
        Counter::TokensLexed,
        Counter::TokenTreesBuilt,
        Counter::FilesLexed,
        Counter::TablesBuilt,
        Counter::GrammarExtensions,
        Counter::ParserShifts,
        Counter::ParserReductions,
        Counter::LazyNodesCreated,
        Counter::LazyNodesForced,
        Counter::DispatchReductions,
        Counter::DispatchCandidates,
        Counter::DispatchTests,
        Counter::DispatchTypeTests,
        Counter::MayansFired,
        Counter::TemplatesCompiled,
        Counter::TemplatesInstantiated,
        Counter::HygieneRenames,
        Counter::InterpCalls,
        Counter::MayanPanics,
        Counter::DepthLimitHits,
        Counter::FuelLimitHits,
        Counter::StepLimitHits,
        Counter::ImportCycles,
        Counter::ParseRecoveries,
        Counter::TableCacheHits,
        Counter::TableCacheMisses,
        Counter::DispatchIndexHits,
        Counter::DispatchIndexMisses,
        Counter::ServerRequests,
        Counter::IncrFullReuses,
        Counter::IncrFilesChanged,
        Counter::IncrFilesRecompiled,
        Counter::IncrFilesReused,
        Counter::IncrGrammarReuses,
        Counter::ForceCacheHits,
        Counter::UnitCacheHits,
        Counter::ClassBodyCacheHits,
        Counter::SlotsResolved,
        Counter::ConstsFolded,
        Counter::ServerPanicsIsolated,
        Counter::BcCompiled,
        Counter::BcSuperinsts,
        Counter::PicHits,
        Counter::PicMisses,
        Counter::PicEvictions,
        Counter::BcInlineEntries,
        Counter::BcInlineFallbacks,
        Counter::BcOsrSwitches,
    ];

    /// Stable snake_case name (the JSON key).
    pub fn name(self) -> &'static str {
        match self {
            Counter::TokensLexed => "tokens_lexed",
            Counter::TokenTreesBuilt => "token_trees_built",
            Counter::FilesLexed => "files_lexed",
            Counter::TablesBuilt => "tables_built",
            Counter::GrammarExtensions => "grammar_extensions",
            Counter::ParserShifts => "parser_shifts",
            Counter::ParserReductions => "parser_reductions",
            Counter::LazyNodesCreated => "lazy_nodes_created",
            Counter::LazyNodesForced => "lazy_nodes_forced",
            Counter::DispatchReductions => "dispatch_reductions",
            Counter::DispatchCandidates => "dispatch_candidates",
            Counter::DispatchTests => "dispatch_tests",
            Counter::DispatchTypeTests => "dispatch_type_tests",
            Counter::MayansFired => "mayans_fired",
            Counter::TemplatesCompiled => "templates_compiled",
            Counter::TemplatesInstantiated => "templates_instantiated",
            Counter::HygieneRenames => "hygiene_renames",
            Counter::InterpCalls => "interp_calls",
            Counter::MayanPanics => "mayan_panics",
            Counter::DepthLimitHits => "depth_limit_hits",
            Counter::FuelLimitHits => "fuel_limit_hits",
            Counter::StepLimitHits => "step_limit_hits",
            Counter::ImportCycles => "import_cycles",
            Counter::ParseRecoveries => "parse_recoveries",
            Counter::TableCacheHits => "table_cache_hits",
            Counter::TableCacheMisses => "table_cache_misses",
            Counter::DispatchIndexHits => "dispatch_index_hits",
            Counter::DispatchIndexMisses => "dispatch_index_misses",
            Counter::ServerRequests => "server_requests",
            Counter::IncrFullReuses => "incr_full_reuses",
            Counter::IncrFilesChanged => "incr_files_changed",
            Counter::IncrFilesRecompiled => "incr_files_recompiled",
            Counter::IncrFilesReused => "incr_files_reused",
            Counter::IncrGrammarReuses => "incr_grammar_reuses",
            Counter::ForceCacheHits => "force_cache_hits",
            Counter::UnitCacheHits => "unit_cache_hits",
            Counter::ClassBodyCacheHits => "class_body_cache_hits",
            Counter::SlotsResolved => "slots_resolved",
            Counter::ConstsFolded => "consts_folded",
            Counter::ServerPanicsIsolated => "server_panics_isolated",
            Counter::BcCompiled => "bc_compiled",
            Counter::BcSuperinsts => "bc_superinsts",
            Counter::PicHits => "pic_hits",
            Counter::PicMisses => "pic_misses",
            Counter::PicEvictions => "pic_evictions",
            Counter::BcInlineEntries => "bc_inline_entries",
            Counter::BcInlineFallbacks => "bc_inline_fallbacks",
            Counter::BcOsrSwitches => "bc_osr_switches",
        }
    }

    fn idx(self) -> usize {
        Counter::ALL
            .iter()
            .position(|c| *c == self)
            .expect("counter listed in ALL")
    }
}

const N_COUNTERS: usize = Counter::ALL.len();

// ---- trace events ------------------------------------------------------------

/// What a trace event describes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TraceKind {
    /// A production reduced through Mayan dispatch.
    Dispatch,
    /// A lazy node forced (parsed on demand).
    Force,
    /// A lazy node created.
    MakeLazy,
    /// A metaprogram imported (`use`, `-use`, or `use_over`).
    Import,
    /// A template compiled.
    TemplateCompile,
    /// A template instantiated.
    TemplateInstantiate,
    /// An LALR table built.
    TableBuild,
}

impl TraceKind {
    /// Stable name (the JSON `kind` value and the trace-line tag).
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::Dispatch => "dispatch",
            TraceKind::Force => "force",
            TraceKind::MakeLazy => "make-lazy",
            TraceKind::Import => "import",
            TraceKind::TemplateCompile => "template-compile",
            TraceKind::TemplateInstantiate => "template-instantiate",
            TraceKind::TableBuild => "table-build",
        }
    }
}

/// One structured expansion-trace event: what happened (`kind`), to what
/// (`target` — a production, node kind, or metaprogram name), and the
/// human-readable outcome (`detail`).
#[derive(Clone, Debug)]
pub struct TraceEvent {
    pub kind: TraceKind,
    pub target: String,
    pub detail: String,
}

impl TraceEvent {
    /// Renders the event as one trace line.
    pub fn render(&self) -> String {
        if self.detail.is_empty() {
            format!("[{}] {}", self.kind.name(), self.target)
        } else {
            format!("[{}] {} — {}", self.kind.name(), self.target, self.detail)
        }
    }

    /// Case-sensitive substring filter over kind, target, and detail.
    pub fn matches(&self, filter: &str) -> bool {
        filter.is_empty()
            || self.kind.name().contains(filter)
            || self.target.contains(filter)
            || self.detail.contains(filter)
    }
}

/// A streaming consumer of trace events.
pub type TraceSink = Rc<dyn Fn(&TraceEvent)>;

// ---- the collector -----------------------------------------------------------

/// Session configuration.
#[derive(Clone)]
pub struct Config {
    /// Record [`TraceEvent`]s into the report (`--trace-expansion` and the
    /// JSON `events` array). Counters and phases are always recorded.
    pub capture_events: bool,
    /// Substring filter applied to captured/streamed events.
    pub event_filter: Option<String>,
    /// Streaming sink, invoked for each (filter-passing) event as it is
    /// recorded.
    pub sink: Option<TraceSink>,
    /// Record hierarchical [`SpanRec`]s (`--trace-out`, `--time-passes=tree`).
    /// Phase entries open spans automatically when this is on.
    pub capture_spans: bool,
    /// Span buffer cap; spans past it are counted in
    /// [`Report::spans_dropped`] rather than recorded.
    pub max_spans: usize,
    /// Enable the interpreter profiler, reporting the top N methods, call
    /// sites, and binary-op pairs (`--profile-interp[=N]`).
    pub profile_interp: Option<usize>,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            capture_events: false,
            event_filter: None,
            sink: None,
            capture_spans: false,
            max_spans: 1_048_576,
            profile_interp: None,
        }
    }
}

struct Collector {
    phase_ns: [u64; N_PHASES],
    phase_calls: [u64; N_PHASES],
    phase_depth: [u32; N_PHASES],
    phase_start: [Option<Instant>; N_PHASES],
    counters: [u64; N_COUNTERS],
    events: Vec<TraceEvent>,
    spans: Vec<SpanRec>,
    /// Indices into `spans` of the currently open spans, innermost last.
    span_stack: Vec<u32>,
    spans_dropped: u64,
    hists: BTreeMap<&'static str, Histogram>,
    /// Cache-registry snapshot at session start; the report carries the
    /// delta (the registry itself is cumulative per thread).
    cache_base: [CacheStats; N_CACHES],
    config: Config,
    started: Instant,
}

thread_local! {
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static COLLECTOR: RefCell<Option<Collector>> = const { RefCell::new(None) };
    /// Span capture on/off — split from ACTIVE so the disabled-span fast
    /// path (a session collecting only counters) is one boolean load.
    static SPANS_ON: Cell<bool> = const { Cell::new(false) };
    /// Session generation, bumped by every `Session::start`. Span guards
    /// remember the generation they opened under so a guard that outlives
    /// its session (the session was replaced) cannot close a stranger's
    /// span.
    static GEN: Cell<u64> = const { Cell::new(0) };
    /// The stack of active phases, maintained even without a session so
    /// internal-compiler-error reports can name the phase that was running.
    static PHASE_STACK: RefCell<Vec<Phase>> = const { RefCell::new(Vec::new()) };
    /// The most recently *entered* phase, never cleared on exit. Errors are
    /// usually reported after the failing phase's guard has unwound; this
    /// still names it.
    static LAST_PHASE: Cell<Option<Phase>> = const { Cell::new(None) };
}

/// The most recently entered phase on this thread, sticky across phase
/// exits. [`current_phase`] is precise while a phase is active; this is the
/// fallback for error reports that fire after the stack has unwound.
pub fn last_phase() -> Option<Phase> {
    LAST_PHASE.with(|p| p.get())
}

/// The innermost phase currently active on this thread, if any. Unlike the
/// timing data this is tracked unconditionally (a push/pop per phase entry),
/// so diagnostics can name the failing phase without a session.
pub fn current_phase() -> Option<Phase> {
    PHASE_STACK.with(|s| s.borrow().last().copied())
}

/// True when a telemetry session is active on this thread. This is the
/// fast path every instrumentation site checks first.
#[inline]
pub fn enabled() -> bool {
    ACTIVE.with(|a| a.get())
}

fn with_collector<R>(f: impl FnOnce(&mut Collector) -> R) -> Option<R> {
    COLLECTOR.with(|c| c.borrow_mut().as_mut().map(f))
}

/// Adds `n` to a counter. No-op without a session.
#[inline]
pub fn add(c: Counter, n: u64) {
    if !enabled() {
        return;
    }
    with_collector(|col| col.counters[c.idx()] += n);
}

/// Increments a counter by one. No-op without a session.
#[inline]
pub fn count(c: Counter) {
    add(c, 1);
}

/// Records a structured trace event. The closure is only called when a
/// session is active, so building the strings costs nothing when disabled.
#[inline]
pub fn trace(kind: TraceKind, make: impl FnOnce() -> (String, String)) {
    if !enabled() {
        return;
    }
    let (target, detail) = make();
    let ev = TraceEvent {
        kind,
        target,
        detail,
    };
    let sink = with_collector(|col| {
        let passes = match &col.config.event_filter {
            Some(f) => ev.matches(f),
            None => true,
        };
        if !passes {
            return None;
        }
        if col.config.capture_events {
            col.events.push(ev.clone());
        }
        col.config.sink.clone()
    })
    .flatten();
    // Run the sink outside the collector borrow so a sink that itself uses
    // telemetry (or panics) cannot poison the session.
    if let Some(sink) = sink {
        sink(&ev);
    }
}

// ---- spans -------------------------------------------------------------------

/// True when the active session is capturing spans. The parallel front end
/// reads this on the driving thread to configure its worker sessions.
#[inline]
pub fn spans_enabled() -> bool {
    SPANS_ON.with(|s| s.get())
}

/// RAII guard for an open span; closes it (records the duration and pops
/// the span stack) on drop.
pub struct SpanGuard {
    /// Index into the collector's span vector; `None` when spans are off
    /// or the buffer cap was hit.
    idx: Option<u32>,
    gen: u64,
}

impl SpanGuard {
    const INERT: SpanGuard = SpanGuard { idx: None, gen: 0 };

    /// Attaches one key/value argument to the span. The closure only runs
    /// when the span is live.
    pub fn arg(&self, key: &'static str, make: impl FnOnce() -> String) {
        let Some(idx) = self.idx else { return };
        if GEN.with(|g| g.get()) != self.gen {
            return;
        }
        with_collector(|col| {
            if let Some(s) = col.spans.get_mut(idx as usize) {
                s.args.push((key, make()));
            }
        });
    }
}

fn open_span(name: Cow<'static, str>, args: Vec<(&'static str, String)>) -> SpanGuard {
    let idx = with_collector(|col| {
        if col.spans.len() >= col.config.max_spans {
            col.spans_dropped += 1;
            return None;
        }
        let idx = col.spans.len() as u32;
        let parent = col.span_stack.last().copied().unwrap_or(NO_PARENT);
        col.spans.push(SpanRec {
            name,
            start_ns: col.started.elapsed().as_nanos() as u64,
            dur_ns: 0,
            parent,
            tid: spans::current_tid(),
            args,
        });
        col.span_stack.push(idx);
        Some(idx)
    })
    .flatten();
    SpanGuard {
        idx,
        gen: GEN.with(|g| g.get()),
    }
}

/// Opens a span. One boolean load when spans are off.
#[inline]
pub fn span(name: impl Into<Cow<'static, str>>) -> SpanGuard {
    if !spans_enabled() {
        return SpanGuard::INERT;
    }
    open_span(name.into(), Vec::new())
}

/// Opens a span with key/value arguments; the closure only runs when
/// spans are being captured.
#[inline]
pub fn span_with(
    name: impl Into<Cow<'static, str>>,
    make_args: impl FnOnce() -> Vec<(&'static str, String)>,
) -> SpanGuard {
    if !spans_enabled() {
        return SpanGuard::INERT;
    }
    open_span(name.into(), make_args())
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(idx) = self.idx else { return };
        if GEN.with(|g| g.get()) != self.gen {
            return; // session replaced under our feet
        }
        with_collector(|col| {
            let end = col.started.elapsed().as_nanos() as u64;
            if let Some(s) = col.spans.get_mut(idx as usize) {
                s.dur_ns = end.saturating_sub(s.start_ns);
            }
            // Truncate at our own stack entry: children leaked past their
            // parent close with it rather than dangling open.
            if let Some(at) = col.span_stack.iter().rposition(|&i| i == idx) {
                col.span_stack.truncate(at);
            }
        });
    }
}

/// Records one sample into a named session histogram (nanoseconds by
/// convention). No-op without a session.
#[inline]
pub fn record_hist(name: &'static str, v: u64) {
    if !enabled() {
        return;
    }
    with_collector(|col| col.hists.entry(name).or_default().record(v));
}

/// Merges a finished worker [`Report`] into the session active on this
/// thread: counters add up, phase times and call counts add up, histograms
/// merge, and (when this session captures spans) the worker's span tree is
/// spliced in with its timestamps shifted onto this session's clock and its
/// thread ids preserved. The parallel front end runs one short-lived
/// session per lexer worker and folds each worker's report back into the
/// driving session here, so `--stats` totals and `--trace-out` trees are
/// identical whatever `--jobs` was. (Phase times from concurrent workers
/// sum, so `lex` may exceed wall clock under `--jobs>1`.) Cache-registry
/// gauges are *not* merged: the registry is per-thread and cumulative, and
/// the session caches live on the driving thread. No-op without a session.
pub fn absorb(r: &Report) {
    if !enabled() {
        return;
    }
    with_collector(|col| {
        for i in 0..N_COUNTERS {
            col.counters[i] += r.counters[i];
        }
        for i in 0..N_PHASES {
            col.phase_ns[i] += r.phase_ns[i];
            col.phase_calls[i] += r.phase_calls[i];
        }
        for (name, h) in &r.hists {
            col.hists.entry(name).or_default().merge(h);
        }
        col.spans_dropped += r.spans_dropped;
        if col.config.capture_spans && !r.spans.is_empty() {
            let base = col.spans.len() as u32;
            let shift = r
                .started
                .saturating_duration_since(col.started)
                .as_nanos() as u64;
            let room = col.config.max_spans.saturating_sub(col.spans.len());
            if r.spans.len() > room {
                col.spans_dropped += (r.spans.len() - room) as u64;
            }
            // Taking a prefix is safe: a parent always precedes its
            // children, so no retained span links past `room`.
            for s in r.spans.iter().take(room) {
                let mut s = s.clone();
                s.start_ns += shift;
                if s.parent != NO_PARENT {
                    s.parent += base;
                }
                col.spans.push(s);
            }
        }
    });
}

/// RAII guard for a phase activation; records elapsed time on drop.
pub struct PhaseGuard {
    phase: Phase,
    armed: bool,
    /// The phase's span when the session captures spans; closes with us.
    _span: SpanGuard,
}

/// Enters a phase. Nested activations of the same phase are counted but
/// only the outermost contributes wall-clock time. When the session
/// captures spans, every activation (nested ones included) also opens a
/// span named after the phase, so the span tree shows the real nesting
/// the flat table collapses.
#[inline]
pub fn phase(p: Phase) -> PhaseGuard {
    PHASE_STACK.with(|s| s.borrow_mut().push(p));
    LAST_PHASE.with(|l| l.set(Some(p)));
    if !enabled() {
        return PhaseGuard {
            phase: p,
            armed: false,
            _span: SpanGuard::INERT,
        };
    }
    with_collector(|col| {
        let i = p.idx();
        col.phase_calls[i] += 1;
        col.phase_depth[i] += 1;
        if col.phase_depth[i] == 1 {
            col.phase_start[i] = Some(Instant::now());
        }
    });
    PhaseGuard {
        phase: p,
        armed: true,
        _span: span(p.name()),
    }
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        PHASE_STACK.with(|s| {
            let mut s = s.borrow_mut();
            // Pop our own entry; a stray restart cannot underflow this.
            if let Some(at) = s.iter().rposition(|p| *p == self.phase) {
                s.remove(at);
            }
        });
        if !self.armed {
            return;
        }
        with_collector(|col| {
            let i = self.phase.idx();
            if col.phase_depth[i] == 0 {
                return; // session restarted under our feet; ignore
            }
            col.phase_depth[i] -= 1;
            if col.phase_depth[i] == 0 {
                if let Some(t0) = col.phase_start[i].take() {
                    col.phase_ns[i] += t0.elapsed().as_nanos() as u64;
                }
            }
        });
    }
}

// ---- sessions ----------------------------------------------------------------

/// An active telemetry session on the current thread. Dropping the session
/// without calling [`Session::finish`] discards the data and disables
/// collection.
pub struct Session {
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Session {
    /// Starts a session, replacing any session already active on this
    /// thread (the previous session's data is discarded).
    pub fn start(config: Config) -> Session {
        GEN.with(|g| g.set(g.get() + 1));
        SPANS_ON.with(|s| s.set(config.capture_spans));
        profile::set_profiling(config.profile_interp.map(|_| Default::default()));
        COLLECTOR.with(|c| {
            *c.borrow_mut() = Some(Collector {
                phase_ns: [0; N_PHASES],
                phase_calls: [0; N_PHASES],
                phase_depth: [0; N_PHASES],
                phase_start: [None; N_PHASES],
                counters: [0; N_COUNTERS],
                events: Vec::new(),
                spans: Vec::new(),
                span_stack: Vec::new(),
                spans_dropped: 0,
                hists: BTreeMap::new(),
                cache_base: caches::cache_snapshot(),
                config,
                started: Instant::now(),
            });
        });
        ACTIVE.with(|a| a.set(true));
        Session {
            _not_send: std::marker::PhantomData,
        }
    }

    /// Ends the session and returns everything it collected.
    pub fn finish(self) -> Report {
        ACTIVE.with(|a| a.set(false));
        SPANS_ON.with(|s| s.set(false));
        let mut col = COLLECTOR
            .with(|c| c.borrow_mut().take())
            .expect("session collector present");
        // Close any spans still open (a report taken mid-pipeline).
        let end = col.started.elapsed().as_nanos() as u64;
        for &idx in &col.span_stack {
            if let Some(s) = col.spans.get_mut(idx as usize) {
                s.dur_ns = end.saturating_sub(s.start_ns);
            }
        }
        let interp_profile = profile::take_profiling()
            .map(|st| st.into_profile(col.config.profile_interp.unwrap_or(10)));
        let caches_now = caches::cache_snapshot();
        Report {
            total: col.started.elapsed(),
            started: col.started,
            phase_ns: col.phase_ns,
            phase_calls: col.phase_calls,
            counters: col.counters,
            events: col.events,
            spans: col.spans,
            spans_dropped: col.spans_dropped,
            hists: col.hists,
            caches: caches::cache_delta(&caches_now, &col.cache_base),
            interp_profile,
        }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        if enabled() {
            ACTIVE.with(|a| a.set(false));
            SPANS_ON.with(|s| s.set(false));
            profile::set_profiling(None);
            COLLECTOR.with(|c| c.borrow_mut().take());
        }
    }
}

// ---- reports -----------------------------------------------------------------

/// Everything a session collected.
#[derive(Clone, Debug)]
pub struct Report {
    /// Wall-clock duration of the whole session.
    pub total: Duration,
    /// When the session started; [`absorb`] uses it to shift a worker's
    /// span timestamps onto the absorbing session's clock.
    started: Instant,
    phase_ns: [u64; N_PHASES],
    phase_calls: [u64; N_PHASES],
    counters: [u64; N_COUNTERS],
    /// Captured trace events (empty unless [`Config::capture_events`]).
    pub events: Vec<TraceEvent>,
    /// Captured spans (empty unless [`Config::capture_spans`]).
    pub spans: Vec<SpanRec>,
    /// Spans lost to the [`Config::max_spans`] cap.
    pub spans_dropped: u64,
    hists: BTreeMap<&'static str, Histogram>,
    /// Cache-registry deltas over the session (sizes absolute).
    pub caches: [CacheStats; N_CACHES],
    /// The interpreter profile (present iff [`Config::profile_interp`]).
    pub interp_profile: Option<InterpProfile>,
}

impl Report {
    /// A counter's final value.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c.idx()]
    }

    /// A named session histogram, if any samples were recorded.
    pub fn hist(&self, name: &str) -> Option<&Histogram> {
        self.hists.get(name)
    }

    /// Every named histogram, in name order.
    pub fn hists(&self) -> impl Iterator<Item = (&'static str, &Histogram)> {
        self.hists.iter().map(|(k, v)| (*k, v))
    }

    /// One cache's session delta.
    pub fn cache(&self, c: CacheId) -> CacheStats {
        self.caches[CacheId::ALL.iter().position(|x| *x == c).expect("cache in ALL")]
    }

    /// Folds another report into this one for cross-request aggregation
    /// (the `mayad` server's lifetime stats): totals, counters, phase
    /// times, and histograms add; cache hit/miss/eviction deltas add with
    /// sizes last-wins, which is right for one thread's successive reports
    /// (a worker pool sums its workers' latest sizes itself). Spans and
    /// interpreter profiles are per-run views and are not merged.
    pub fn merge(&mut self, other: &Report) {
        self.total += other.total;
        for i in 0..N_COUNTERS {
            self.counters[i] += other.counters[i];
        }
        for i in 0..N_PHASES {
            self.phase_ns[i] += other.phase_ns[i];
            self.phase_calls[i] += other.phase_calls[i];
        }
        for (name, h) in &other.hists {
            self.hists.entry(name).or_default().merge(h);
        }
        for (a, b) in self.caches.iter_mut().zip(&other.caches) {
            a.hits += b.hits;
            a.misses += b.misses;
            a.evictions += b.evictions;
            a.size = b.size;
        }
    }

    /// The Chrome trace-event JSON document (`mayac --trace-out=FILE`),
    /// loadable in Perfetto or `chrome://tracing`.
    pub fn chrome_trace_json(&self) -> String {
        spans::render_chrome_trace(&self.spans)
    }

    /// The indented aggregate span tree (`--time-passes=tree`).
    pub fn time_passes_tree(&self) -> String {
        spans::render_tree(&self.spans, self.total.as_nanos() as u64, self.spans_dropped)
    }

    /// A phase's cumulative outermost wall-clock time.
    pub fn phase_time(&self, p: Phase) -> Duration {
        Duration::from_nanos(self.phase_ns[p.idx()])
    }

    /// How many times a phase was entered (nested activations included).
    pub fn phase_calls(&self, p: Phase) -> u64 {
        self.phase_calls[p.idx()]
    }

    /// The rustc-style `--time-passes` table.
    pub fn time_passes_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{:<22} {:>12} {:>10}", "phase", "time", "calls");
        for p in Phase::ALL {
            let ns = self.phase_ns[p.idx()];
            let calls = self.phase_calls[p.idx()];
            if calls == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "{:<22} {:>12} {:>10}",
                p.name(),
                fmt_duration(ns),
                calls
            );
        }
        let _ = writeln!(
            out,
            "{:<22} {:>12}",
            "total (wall)",
            fmt_duration(self.total.as_nanos() as u64)
        );
        out
    }

    /// The machine-readable stats document (schema `maya-telemetry/1`).
    ///
    /// Layout:
    ///
    /// ```json
    /// {
    ///   "schema": "maya-telemetry/1",
    ///   "total_ns": 123,
    ///   "phases": { "lex": { "ns": 1, "calls": 2 }, ... },
    ///   "counters": { "tokens_lexed": 42, ... },
    ///   "derived": { "dispatch_tests_per_reduction": 1.5, ... },
    ///   "events": [ { "kind": "dispatch", "target": "...", "detail": "..." } ]
    /// }
    /// ```
    ///
    /// `events` is present only when events were captured.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"schema\": \"maya-telemetry/1\",");
        let _ = writeln!(out, "  \"total_ns\": {},", self.total.as_nanos());
        out.push_str("  \"phases\": {\n");
        let phases: Vec<String> = Phase::ALL
            .iter()
            .map(|p| {
                format!(
                    "    \"{}\": {{ \"ns\": {}, \"calls\": {} }}",
                    p.name(),
                    self.phase_ns[p.idx()],
                    self.phase_calls[p.idx()]
                )
            })
            .collect();
        out.push_str(&phases.join(",\n"));
        out.push_str("\n  },\n");
        out.push_str("  \"counters\": {\n");
        let counters: Vec<String> = Counter::ALL
            .iter()
            .map(|c| format!("    \"{}\": {}", c.name(), self.counters[c.idx()]))
            .collect();
        out.push_str(&counters.join(",\n"));
        out.push_str("\n  },\n");
        out.push_str("  \"derived\": {\n");
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                "0.000".to_owned()
            } else {
                format!("{:.3}", num as f64 / den as f64)
            }
        };
        let hits = self.counter(Counter::TableCacheHits);
        let misses = self.counter(Counter::TableCacheMisses);
        let _ = writeln!(
            out,
            "    \"dispatch_tests_per_reduction\": {},",
            ratio(
                self.counter(Counter::DispatchTests),
                self.counter(Counter::DispatchReductions)
            )
        );
        let _ = writeln!(
            out,
            "    \"table_cache_hit_ratio\": {},",
            ratio(hits, hits + misses)
        );
        let ihits = self.counter(Counter::DispatchIndexHits);
        let imisses = self.counter(Counter::DispatchIndexMisses);
        let _ = writeln!(
            out,
            "    \"dispatch_index_hit_ratio\": {}",
            ratio(ihits, ihits + imisses)
        );
        out.push_str("  },\n");
        out.push_str("  \"caches\": {\n");
        let cache_rows: Vec<String> = CacheId::ALL
            .iter()
            .zip(&self.caches)
            .map(|(c, s)| {
                format!(
                    "    \"{}\": {{ \"hits\": {}, \"misses\": {}, \"size\": {}, \"evictions\": {}, \"hit_ratio\": {:.3} }}",
                    c.name(),
                    s.hits,
                    s.misses,
                    s.size,
                    s.evictions,
                    s.hit_ratio()
                )
            })
            .collect();
        out.push_str(&cache_rows.join(",\n"));
        out.push_str("\n  }");
        if !self.events.is_empty() {
            out.push_str(",\n  \"events\": [\n");
            let events: Vec<String> = self
                .events
                .iter()
                .map(|e| {
                    format!(
                        "    {{ \"kind\": {}, \"target\": {}, \"detail\": {} }}",
                        json_string(e.kind.name()),
                        json_string(&e.target),
                        json_string(&e.detail)
                    )
                })
                .collect();
            out.push_str(&events.join(",\n"));
            out.push_str("\n  ]");
        }
        out.push_str("\n}\n");
        out
    }
}

/// Renders nanoseconds with an adaptive unit (`42ns`, `1.5µs`, `3.000ms`,
/// `1.200s`).
pub fn fmt_duration(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Escapes a string as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default() {
        assert!(!enabled());
        // All of these must be harmless no-ops.
        count(Counter::TokensLexed);
        add(Counter::DispatchTests, 10);
        let _p = phase(Phase::Parse);
        trace(TraceKind::Dispatch, || panic!("must not be called"));
    }

    #[test]
    fn counters_and_phases_round_trip() {
        let s = Session::start(Config::default());
        add(Counter::LazyNodesCreated, 5);
        add(Counter::LazyNodesForced, 2);
        {
            let _outer = phase(Phase::Parse);
            {
                let _inner = phase(Phase::Parse); // nested: counted, not double-timed
            }
        }
        let r = s.finish();
        assert_eq!(r.counter(Counter::LazyNodesCreated), 5);
        assert_eq!(r.counter(Counter::LazyNodesForced), 2);
        assert_eq!(r.phase_calls(Phase::Parse), 2);
        assert!(!enabled());
    }

    #[test]
    fn events_capture_and_filter() {
        let s = Session::start(Config {
            capture_events: true,
            event_filter: Some("Foreach".into()),
            ..Config::default()
        });
        trace(TraceKind::Dispatch, || {
            ("Statement → …".into(), "reduced by Mayan `Foreach.visit`".into())
        });
        trace(TraceKind::Dispatch, || {
            ("Expression → …".into(), "reduced by Mayan `Other`".into())
        });
        let r = s.finish();
        assert_eq!(r.events.len(), 1);
        assert!(r.events[0].detail.contains("Foreach"));
    }

    #[test]
    fn sink_streams_events() {
        use std::cell::RefCell;
        let seen: Rc<RefCell<Vec<String>>> = Rc::new(RefCell::new(Vec::new()));
        let seen2 = seen.clone();
        let s = Session::start(Config {
            sink: Some(Rc::new(move |e: &TraceEvent| {
                seen2.borrow_mut().push(e.render());
            })),
            ..Config::default()
        });
        trace(TraceKind::Import, || ("Foreach".into(), String::new()));
        let _ = s.finish();
        assert_eq!(seen.borrow().len(), 1);
        assert!(seen.borrow()[0].contains("[import] Foreach"));
    }

    #[test]
    fn json_shape() {
        let s = Session::start(Config::default());
        add(Counter::DispatchTests, 7);
        let r = s.finish();
        let json = r.to_json();
        assert!(json.contains("\"schema\": \"maya-telemetry/1\""));
        assert!(json.contains("\"dispatch_tests\": 7"), "{json}");
    }

    #[test]
    fn time_passes_table_lists_active_phases() {
        let s = Session::start(Config::default());
        {
            let _p = phase(Phase::Lex);
        }
        let r = s.finish();
        let table = r.time_passes_table();
        assert!(table.contains("lex"));
        assert!(!table.contains("interp"), "{table}");
        assert!(table.contains("total (wall)"));
    }

    #[test]
    fn session_drop_disables() {
        let s = Session::start(Config::default());
        drop(s);
        assert!(!enabled());
    }

    #[test]
    fn current_phase_tracks_without_session() {
        assert!(!enabled());
        assert_eq!(current_phase(), None);
        {
            let _outer = phase(Phase::Parse);
            assert_eq!(current_phase(), Some(Phase::Parse));
            {
                let _inner = phase(Phase::Dispatch);
                assert_eq!(current_phase(), Some(Phase::Dispatch));
            }
            assert_eq!(current_phase(), Some(Phase::Parse));
        }
        assert_eq!(current_phase(), None);
    }

    #[test]
    fn absorb_merges_worker_reports() {
        // Simulate a worker session finishing, then fold it into a fresh
        // driving session.
        let worker = Session::start(Config::default());
        add(Counter::TokensLexed, 10);
        {
            let _p = phase(Phase::Lex);
        }
        let worker_report = worker.finish();

        let main = Session::start(Config::default());
        add(Counter::TokensLexed, 1);
        absorb(&worker_report);
        let r = main.finish();
        assert_eq!(r.counter(Counter::TokensLexed), 11);
        assert_eq!(r.phase_calls(Phase::Lex), 1);
    }

    #[test]
    fn derived_ratios_in_json() {
        let s = Session::start(Config::default());
        add(Counter::DispatchTests, 3);
        add(Counter::DispatchReductions, 2);
        add(Counter::TableCacheHits, 1);
        add(Counter::TableCacheMisses, 1);
        let r = s.finish();
        let json = r.to_json();
        assert!(json.contains("\"dispatch_tests_per_reduction\": 1.500"), "{json}");
        assert!(json.contains("\"table_cache_hit_ratio\": 0.500"), "{json}");
        assert!(json.contains("\"dispatch_index_hit_ratio\": 0.000"), "{json}");
    }

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    fn span_config() -> Config {
        Config {
            capture_spans: true,
            ..Config::default()
        }
    }

    #[test]
    fn spans_off_by_default() {
        let s = Session::start(Config::default());
        {
            let g = span("nothing");
            g.arg("k", || panic!("arg closure must not run"));
        }
        let _ = span_with("also nothing", || panic!("args closure must not run"));
        let r = s.finish();
        assert!(r.spans.is_empty());
    }

    #[test]
    fn spans_nest_and_close_in_order() {
        let s = Session::start(span_config());
        {
            let root = span("request");
            root.arg("file", || "a.my".into());
            {
                let _p = span("parse");
                let _d = span("dispatch");
            }
            let _p2 = span("parse");
        }
        let r = s.finish();
        assert_eq!(r.spans.len(), 4);
        assert_eq!(r.spans[0].name, "request");
        assert_eq!(r.spans[0].parent, NO_PARENT);
        assert_eq!(r.spans[0].args, vec![("file", "a.my".to_owned())]);
        assert_eq!(r.spans[1].parent, 0); // parse under request
        assert_eq!(r.spans[2].parent, 1); // dispatch under parse
        assert_eq!(r.spans[3].parent, 0); // second parse under request
        for s in &r.spans {
            assert!(s.start_ns + s.dur_ns <= r.total.as_nanos() as u64 + 1_000_000);
        }
        // Parents contain their children.
        let p = &r.spans[1];
        let d = &r.spans[2];
        assert!(d.start_ns >= p.start_ns);
        assert!(d.start_ns + d.dur_ns <= p.start_ns + p.dur_ns);
    }

    #[test]
    fn phases_open_spans_when_capturing() {
        let s = Session::start(span_config());
        {
            let _outer = phase(Phase::Parse);
            let _inner = phase(Phase::Dispatch);
        }
        let r = s.finish();
        assert_eq!(r.spans.len(), 2);
        assert_eq!(r.spans[0].name, "parse");
        assert_eq!(r.spans[1].name, "dispatch");
        assert_eq!(r.spans[1].parent, 0);
        // The flat table is unchanged by span capture.
        assert_eq!(r.phase_calls(Phase::Parse), 1);
    }

    #[test]
    fn span_cap_drops_and_counts() {
        let s = Session::start(Config {
            capture_spans: true,
            max_spans: 2,
            ..Config::default()
        });
        {
            let _a = span("a");
            let _b = span("b");
            let _c = span("c");
            let _d = span("d");
        }
        let r = s.finish();
        assert_eq!(r.spans.len(), 2);
        assert_eq!(r.spans_dropped, 2);
    }

    #[test]
    fn unfinished_spans_are_closed_at_session_end() {
        let s = Session::start(span_config());
        let _leaked = span("open-at-finish");
        let r = s.finish();
        assert_eq!(r.spans.len(), 1);
        // finish() assigned a duration even though the guard is still live.
        assert!(r.spans[0].start_ns + r.spans[0].dur_ns <= r.total.as_nanos() as u64);
        drop(_leaked); // stale guard: generation check makes this a no-op
    }

    #[test]
    fn stale_guard_cannot_touch_new_session() {
        let s1 = Session::start(span_config());
        let stale = span("from-first-session");
        drop(s1);
        let s2 = Session::start(span_config());
        drop(stale);
        let r = s2.finish();
        assert!(r.spans.is_empty());
    }

    #[test]
    fn absorb_merges_spans_and_hists() {
        let worker = Session::start(span_config());
        {
            let _f = span("lex_file");
            let _t = span("tokenize");
        }
        record_hist("lex_file_ns", 500);
        let wr = worker.finish();

        let main = Session::start(span_config());
        let _root = span("request");
        record_hist("lex_file_ns", 300);
        absorb(&wr);
        drop(_root);
        let r = main.finish();
        // 1 root + 2 worker spans, worker parent links shifted by 1.
        assert_eq!(r.spans.len(), 3);
        assert_eq!(r.spans[0].name, "request");
        assert_eq!(r.spans[1].name, "lex_file");
        assert_eq!(r.spans[1].parent, NO_PARENT, "worker roots stay roots");
        assert_eq!(r.spans[2].parent, 1, "intra-worker links shifted");
        let h = r.hist("lex_file_ns").expect("histogram merged");
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 800);
    }

    #[test]
    fn chrome_trace_parses_shape() {
        let s = Session::start(span_config());
        {
            let _a = span_with("request", || vec![("file", "x.my".to_owned())]);
            let _b = span("parse");
        }
        let r = s.finish();
        let doc = r.chrome_trace_json();
        assert!(doc.contains("\"traceEvents\""), "{doc}");
        assert!(doc.contains("\"request\""), "{doc}");
        assert!(doc.contains("\"parse\""), "{doc}");
        let tree = r.time_passes_tree();
        assert!(tree.contains("request"), "{tree}");
        assert!(tree.contains("  parse"), "{tree}");
    }

    #[test]
    fn report_merge_aggregates() {
        let s1 = Session::start(Config::default());
        add(Counter::ServerRequests, 1);
        record_hist("request_ns", 1_000);
        let mut a = s1.finish();
        let s2 = Session::start(Config::default());
        add(Counter::ServerRequests, 2);
        record_hist("request_ns", 3_000);
        let b = s2.finish();
        a.merge(&b);
        assert_eq!(a.counter(Counter::ServerRequests), 3);
        assert_eq!(a.hist("request_ns").unwrap().count(), 2);
    }

    #[test]
    fn json_includes_cache_table() {
        let s = Session::start(Config::default());
        cache_hit(CacheId::LalrMemo);
        cache_miss(CacheId::LalrMemo);
        cache_sized(CacheId::LalrMemo, 4);
        let r = s.finish();
        let json = r.to_json();
        assert!(json.contains("\"caches\""), "{json}");
        assert!(
            json.contains("\"lalr_memo\": { \"hits\": 1, \"misses\": 1, \"size\": 4, \"evictions\": 0, \"hit_ratio\": 0.500 }"),
            "{json}"
        );
        // The report carries the delta from session start, not all-time.
        let s2 = Session::start(Config::default());
        let r2 = s2.finish();
        assert_eq!(r2.cache(CacheId::LalrMemo).hits, 0);
        assert_eq!(r2.cache(CacheId::LalrMemo).size, 4, "sizes stay absolute");
    }

    #[test]
    fn profile_flows_through_session() {
        let s = Session::start(Config {
            profile_interp: Some(5),
            ..Config::default()
        });
        assert!(profiling());
        prof_enter(1, || "Main.main/0".into());
        prof_site(2, true, || "site".into());
        prof_binop_pair("+", "*");
        prof_exit();
        let r = s.finish();
        assert!(!profiling());
        let p = r.interp_profile.expect("profile captured");
        assert_eq!(p.top, 5);
        assert_eq!(p.methods.len(), 1);
        assert_eq!(p.sites.len(), 1);
        assert_eq!(p.pairs.len(), 1);

        // Without the flag, no profile is collected.
        let s = Session::start(Config::default());
        prof_enter(1, || panic!("must not run"));
        prof_exit();
        let r = s.finish();
        assert!(r.interp_profile.is_none());
    }
}
