//! The incremental compile session behind `mayad` and `mayac --watch`.
//!
//! Maya compilation is stateful by design — every syntax import composes a
//! new grammar, new LALR tables, and a new dispatch environment — which
//! makes cold starts expensive and warm state valuable. A [`Session`]
//! keeps that state alive across compile requests:
//!
//! * the **process-global interner** and the **thread-local LALR table
//!   memo** (`maya_grammar::cache`) survive because the session keeps its
//!   compiler on one thread;
//! * each source file's **token trees** are kept in the compiler's `Rc`
//!   form, converted once when the file is (re)lexed, and handed as is to
//!   every request's compiler. The fingerprints memoised inside them key
//!   the force cache's unit, class-body and lazy-body layers, so an
//!   unchanged file's keys are O(1) reads;
//! * the **force cache** (pure parses and lowered bodies) keeps what
//!   recent requests touched and evicts what edits superseded;
//! * a **dependency graph** rebuilt from [`crate::compiler::DepEdge`]
//!   records, per `use` directive, which file imported a metaprogram
//!   declared in which other file, so an **invalidation pass** can
//!   recompile exactly the downstream cone of a change;
//! * when *nothing* changed, the previous outcome is returned verbatim
//!   and no compiler is even constructed;
//! * with a persistent store installed, a session with no per-file state
//!   probes it for the request's outcome before lexing anything: the key
//!   is every file's name, readability and raw-content hash plus the
//!   options, so a hit skips the front end too. A warm session probes
//!   after change detection, so an in-memory full reuse never touches
//!   disk.
//!
//! Change detection is two-level: a raw byte hash first, and for files
//! whose bytes changed, a token-stream hash that *includes spans*. A
//! formatting-neutral edit (for example retyping a comment with the same
//! length) therefore hashes equal and reuses everything — and because
//! spans participate in the hash, reuse can never alter diagnostics.
//!
//! Each request builds a fresh compiler and drops it when the request
//! ends, which frees everything the compiler built (see DESIGN.md,
//! "Compiler lifetime").
//!
//! Correctness bar: a warm [`Session::compile`] must be **byte-identical**
//! to a cold `mayac` run — stdout (expanded code and interpreter output),
//! stderr (human or JSON diagnostics), and exit status. The session
//! guarantees this by re-running every semantic phase on every request
//! (parse, dispatch, check, run are cheap next to the front end and the
//! table builds) and reusing only results that are pure functions of
//! unchanged inputs: token trees, LALR tables, interned strings, and — in
//! the nothing-changed case — the entire previous outcome.

use crate::compiler::lex_files;
use crate::fingerprint::{hash128, lex_result_hash};
use crate::diag::Diagnostics;
use crate::{CompileOptions, Compiler};
use maya_lexer::{FileId, LexError, SendTree, SourceMap, Span, TreeSeq};
use maya_telemetry::{add as count_by, Counter};
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::rc::Rc;
use std::sync::{Arc, OnceLock, RwLock};

/// How diagnostics are rendered into [`Outcome::stderr`].
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub enum ErrorFormat {
    /// Per-line text, each line prefixed `mayac: ` (the CLI default).
    #[default]
    Human,
    /// One `maya-diagnostics/1` JSON document.
    Json,
}

/// Per-request options (the per-invocation subset of the `mayac` command
/// line). Two requests with equal options and unchanged files are
/// answered from cache.
#[derive(Clone, PartialEq, Debug)]
pub struct RequestOpts {
    /// Metaprogram names imported for every unit (`-use NAME`).
    pub uses: Vec<String>,
    /// Class whose `main` is run (`--main`, default `Main`).
    pub main_class: String,
    /// Run `main` after a successful compile. `mayac` always does; a
    /// server client may want check-only requests.
    pub run: bool,
    /// Render every compiled method body after expansion (`--expand`).
    pub expand: bool,
    /// Disassemble compiled bytecode after the run (`--dump-bytecode`).
    /// `Some("")` dumps every method; `Some(name)` filters by method name
    /// or `Class.method`.
    pub dump_bytecode: Option<String>,
    /// Diagnostic rendering for [`Outcome::stderr`].
    pub error_format: ErrorFormat,
    /// Stop reporting after this many errors (`--max-errors`).
    pub max_errors: usize,
    /// Exit nonzero on any warning (`--deny-warnings`).
    pub deny_warnings: bool,
    /// Per-request Mayan expansion fuel quota. `None` uses the session's
    /// configured fuel; `Some(f)` caps this request at `min(f, session
    /// fuel)` — a client can only lower its own budget, never raise it
    /// past the server's. Participates in the full-reuse key (a request
    /// that ran out of fuel must not be answered from a cached success).
    pub fuel: Option<u64>,
}

impl Default for RequestOpts {
    fn default() -> RequestOpts {
        RequestOpts {
            uses: Vec::new(),
            main_class: "Main".to_owned(),
            run: true,
            expand: false,
            dump_bytecode: None,
            error_format: ErrorFormat::Human,
            max_errors: 20,
            deny_warnings: false,
            fuel: None,
        }
    }
}

/// The result of one compile request: exactly what a cold `mayac` run
/// would have produced, plus incremental accounting.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Process stdout: expanded bodies (`--expand`) then program output.
    pub stdout: String,
    /// Process stderr: rendered diagnostics (telemetry excluded).
    pub stderr: String,
    /// Whether `mayac` would have exited 0.
    pub success: bool,
    /// The request was answered entirely from the previous outcome.
    pub full_reuse: bool,
    /// Files whose token stream differed from the previous request.
    pub files_changed: usize,
    /// Files whose cached token trees were reused (front end skipped).
    pub files_reused: usize,
    /// Files whose front end re-ran (changed files plus their
    /// invalidation cone).
    pub files_recompiled: usize,
    /// Syntax imports answered by an already-seen grammar snapshot.
    pub grammar_reuses: usize,
}

/// Cumulative per-session counters (mirrored into telemetry as
/// `server_requests` / `incr_*`).
#[derive(Clone, Copy, Default, Debug)]
pub struct SessionStats {
    pub requests: u64,
    pub full_reuses: u64,
    pub files_changed: u64,
    pub files_reused: u64,
    pub files_recompiled: u64,
    pub grammar_reuses: u64,
}

/// One file's front-end result in the `Send` form the process-global lex
/// share holds.
type SendLex = Result<Vec<SendTree>, LexError>;

/// One file's front-end result in the compiler's `Rc` form.
type Lexed = Result<Rc<TreeSeq>, LexError>;

/// A file's raw-content hash: its bytes, or its read error's message.
fn raw_hash(text: &Result<String, String>) -> u128 {
    match text {
        Ok(t) => hash128(t.as_bytes()),
        Err(e) => hash128(e.as_bytes()),
    }
}

/// A stored outcome: (stdout, stderr, success).
type Stored = (String, String, bool);

/// The outcome stored under `key`, if the store holds a sound one.
fn load_outcome(store: &Option<(Arc<crate::store::ArtifactStore>, u128)>) -> Option<Stored> {
    let (store, key) = store.as_ref()?;
    store
        .load(crate::store::Kind::Outcome, *key)
        .and_then(|p| crate::store::decode_outcome_payload(&p))
}

fn to_lexed(result: &SendLex) -> Lexed {
    match result {
        Ok(trees) => Ok(Rc::new(TreeSeq::from_send(trees))),
        Err(e) => Err(e.clone()),
    }
}

/// Per-file incremental state.
struct SessionFile {
    name: String,
    /// `false` when the last request could not read the file (the read
    /// error is part of the cached behavior).
    ok: bool,
    /// 128-bit hash of the raw bytes (or of the read-error message): the
    /// first-level change check, the lex-share key and the file's part of
    /// the persistent outcome key.
    raw_hash: u128,
    /// Hash of the token stream *including spans*; equal hashes make
    /// byte-different contents behaviorally identical.
    token_hash: u128,
    /// Cached front-end result for `ok` files, converted to the compiler's
    /// `Rc` form once, when the file was (re)lexed. Every request hands
    /// the same trees to its compiler, so the fingerprints memoised inside
    /// them (unit, class-body and force-cache keys) are taken once per
    /// file version, not once per request.
    lexed: Option<Lexed>,
}

// ---- the process-global lex share -------------------------------------------
//
// Lexing is a pure function of (file content, positional `FileId`): token
// trees embed spans whose `file` field is the registration index, and the
// file *name* never reaches the lexer. A compile-service worker pool can
// therefore share lexed trees across threads — client A's worker lexes
// `main.maya`, client B's worker reuses the trees — as long as the key
// carries both the 128-bit content hash and the `FileId` the spans were
// minted under. Opt-in per thread (like the grammar crate's shared table
// memo) so single-session paths and tests keep thread-local behavior.

/// Share entries kept before the map is cleared wholesale; bounds memory
/// under adversarial many-distinct-files traffic.
const LEX_SHARE_CAP: usize = 512;

thread_local! {
    static LEX_SHARE_ON: Cell<bool> = const { Cell::new(false) };
}

fn lex_share() -> &'static RwLock<HashMap<(u128, u32), Arc<SendLex>>> {
    static SHARE: OnceLock<RwLock<HashMap<(u128, u32), Arc<SendLex>>>> = OnceLock::new();
    SHARE.get_or_init(|| RwLock::new(HashMap::new()))
}

/// Opts this thread into (or out of) the process-global lexed-tree share.
/// Off by default; compile-service workers turn it on.
pub fn set_lex_share_enabled(on: bool) {
    LEX_SHARE_ON.with(|s| s.set(on));
}

/// Whether this thread participates in the global lex share.
pub fn lex_share_enabled() -> bool {
    LEX_SHARE_ON.with(|s| s.get())
}

/// Drops every entry in the global lex share (test isolation).
pub fn clear_lex_share() {
    lex_share().write().expect("lex share poisoned").clear();
}

/// An incremental compile session. See the module docs.
///
/// A session owns no threads and is deliberately single-threaded
/// (`Compiler` is `!Send`); `mayad` keeps one session on its main thread
/// and feeds it requests from a queue.
pub struct Session {
    /// Template for per-request [`CompileOptions`]; `uses` is replaced by
    /// the request's.
    base_options: CompileOptions,
    /// Registers native metaprograms on each fresh compiler (the binaries
    /// pass `macrolib::install` + `multijava::install`).
    installer: Option<Rc<dyn Fn(&Compiler)>>,
    files: Vec<SessionFile>,
    /// Reverse dependency edges from the last compile: metaprogram-
    /// declaring file name → names of files that imported from it.
    rdeps: BTreeMap<String, BTreeSet<String>>,
    /// Grammar content hashes produced by imports in earlier requests.
    seen_grammars: HashSet<u128>,
    /// The previous outcome, valid while nothing changes.
    cached: Option<(RequestOpts, Outcome)>,
    stats: SessionStats,
}

impl Session {
    /// Creates a session. `installer` runs once per fresh compiler, before
    /// any source is added.
    pub fn new(mut base_options: CompileOptions, installer: Option<Rc<dyn Fn(&Compiler)>>) -> Session {
        // Every compiler this session spawns shares one force cache, so
        // unchanged method bodies parse once per session, not once per
        // request.
        if base_options.force_cache.is_none() {
            base_options.force_cache = Some(Rc::new(crate::compiler::ForceCache::new()));
        }
        Session {
            base_options,
            installer,
            files: Vec::new(),
            rdeps: BTreeMap::new(),
            seen_grammars: HashSet::new(),
            cached: None,
            stats: SessionStats::default(),
        }
    }

    /// Cumulative counters.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Drops all per-file state (cached token trees, dependency edges,
    /// seen grammars, the memoized outcome) while keeping the session's
    /// interner, force cache, and options. The next request behaves like
    /// the first one on a fresh session.
    ///
    /// Used after a request is abandoned mid-flight (e.g. a panic caught
    /// outside the compile sandbox may leave change-detection state half
    /// updated) and by differential harnesses that want a cold-equivalent
    /// request without paying for a new interner.
    pub fn reset(&mut self) {
        self.files.clear();
        self.rdeps.clear();
        self.seen_grammars.clear();
        self.cached = None;
    }

    /// Compiles `paths` (reading them from disk), reusing session state.
    ///
    /// A panic anywhere in the pipeline is converted into the same
    /// internal-compiler-error outcome `mayac` would print, and the
    /// outcome cache is dropped so the next request recomputes.
    pub fn compile(&mut self, paths: &[String], opts: &RequestOpts) -> Outcome {
        let inputs: Vec<(String, Result<String, String>)> = paths
            .iter()
            .map(|p| {
                (
                    p.clone(),
                    std::fs::read_to_string(p).map_err(|e| e.to_string()),
                )
            })
            .collect();
        self.compile_inputs(&inputs, opts)
    }

    /// [`Session::compile`] over in-memory sources (tests, fuzzing).
    pub fn compile_sources(&mut self, sources: &[(String, String)], opts: &RequestOpts) -> Outcome {
        let inputs: Vec<(String, Result<String, String>)> = sources
            .iter()
            .map(|(n, t)| (n.clone(), Ok(t.clone())))
            .collect();
        self.compile_inputs(&inputs, opts)
    }

    fn compile_inputs(
        &mut self,
        inputs: &[(String, Result<String, String>)],
        opts: &RequestOpts,
    ) -> Outcome {
        maya_telemetry::count(Counter::ServerRequests);
        self.stats.requests += 1;
        let n_files = inputs.len();
        let _request = maya_telemetry::span_with("request", || {
            vec![("files", n_files.to_string())]
        });
        let req_start = std::time::Instant::now();
        let outcome = self.compile_inputs_inner(inputs, opts);
        maya_telemetry::record_hist("request_ns", req_start.elapsed().as_nanos() as u64);
        outcome
    }

    fn compile_inputs_inner(
        &mut self,
        inputs: &[(String, Result<String, String>)],
        opts: &RequestOpts,
    ) -> Outcome {
        // ---- change detection ------------------------------------------------
        // The file *structure* (names, order, readability) is part of the
        // session identity: when it shifts, FileIds shift, so every cached
        // span would lie. Drop everything and start cold.
        let structure_same = self.files.len() == inputs.len()
            && self
                .files
                .iter()
                .zip(inputs)
                .all(|(f, (name, text))| f.name == *name && f.ok == text.is_ok());
        if !structure_same {
            self.files.clear();
            self.rdeps.clear();
            self.cached = None;
        }

        // Raw-byte pass: which files even need re-lexing? A session with
        // no per-file state and no remembered outcome is cold: every
        // readable file is new.
        let cold = self.files.is_empty() && self.cached.is_none();
        let mut relex: Vec<usize> = Vec::new();
        if cold {
            for (name, text) in inputs {
                self.files.push(SessionFile {
                    name: name.clone(),
                    ok: text.is_ok(),
                    raw_hash: raw_hash(text),
                    token_hash: 0,
                    lexed: None,
                });
            }
            relex = (0..inputs.len()).filter(|&i| self.files[i].ok).collect();
        } else {
            for (i, (_, text)) in inputs.iter().enumerate() {
                let raw = raw_hash(text);
                if self.files[i].raw_hash != raw {
                    self.files[i].raw_hash = raw;
                    if self.files[i].ok {
                        relex.push(i);
                    } else {
                        // A read error with a different message is a
                        // behavioral change (the diagnostic text differs).
                        self.cached = None;
                    }
                }
            }
        }

        // ---- persistent outcome ----------------------------------------------
        // With a store installed, a whole request can be answered by an
        // earlier *process*: the key folds every file's raw-content hash
        // and every output-affecting option, so a hit replays
        // stdout/stderr/exit byte-identically. Gated off under armed
        // faults (perturbed runs must not be replayed) and under
        // `--dump-bytecode` (its output narrates runtime cache state).
        let outcome_store = crate::store::active()
            .filter(|_| opts.dump_bytecode.is_none() && !crate::faults::any_armed())
            .map(|s| (s, self.outcome_key(opts)));
        // A cold session probes once, here, before lexing: a hit skips the
        // front end as well as the compile. A warm session probes after
        // change detection instead (below), so an in-memory full reuse
        // never touches disk.
        if cold {
            if let Some(stored) = load_outcome(&outcome_store) {
                // Every readable file would have counted as changed.
                let changed: BTreeSet<&str> = inputs
                    .iter()
                    .filter(|(_, text)| text.is_ok())
                    .map(|(name, _)| name.as_str())
                    .collect();
                count_by(Counter::IncrFilesChanged, changed.len() as u64);
                self.stats.files_changed += changed.len() as u64;
                return self.replay(stored, inputs, changed.len(), &BTreeSet::new());
            }
        }

        // Token pass: lex byte-changed files into a scratch map laid out
        // exactly like the compiler's (same registration order → same
        // FileIds → identical spans), then compare token-stream hashes.
        let mut changed: BTreeSet<String> = BTreeSet::new();
        if !relex.is_empty() {
            let mut scratch = SourceMap::new();
            let mut ids: BTreeMap<usize, FileId> = BTreeMap::new();
            let mut ok_index = 0usize;
            for (i, (name, text)) in inputs.iter().enumerate() {
                if let Ok(t) = text {
                    let id = scratch.add_file(name, t);
                    debug_assert_eq!(id.0 as usize, ok_index);
                    ok_index += 1;
                    if relex.contains(&i) {
                        ids.insert(i, id);
                    }
                }
            }
            // Global share probe first: another pool worker may have
            // already lexed identical content under the same FileId.
            let share_on = lex_share_enabled();
            let mut entries: BTreeMap<usize, Lexed> = BTreeMap::new();
            let mut need: Vec<FileId> = Vec::new();
            let mut need_at: Vec<(usize, u128)> = Vec::new();
            for (&i, &id) in &ids {
                let content = self.files[i].raw_hash;
                if share_on {
                    let hit = lex_share()
                        .read()
                        .expect("lex share poisoned")
                        .get(&(content, id.0))
                        .cloned();
                    if let Some(e) = hit {
                        maya_telemetry::cache_hit(maya_telemetry::CacheId::LexShare);
                        entries.insert(i, to_lexed(&e));
                        continue;
                    }
                    maya_telemetry::cache_miss(maya_telemetry::CacheId::LexShare);
                }
                need.push(id);
                need_at.push((i, content));
            }
            let results = lex_files(&scratch, &need, self.base_options.jobs);
            for ((&(i, content), id), result) in need_at.iter().zip(&need).zip(results) {
                entries.insert(i, to_lexed(&result));
                if share_on {
                    let mut share = lex_share().write().expect("lex share poisoned");
                    if share.len() >= LEX_SHARE_CAP {
                        maya_telemetry::cache_eviction(maya_telemetry::CacheId::LexShare);
                        share.clear();
                    }
                    share.insert((content, id.0), Arc::new(result));
                    maya_telemetry::cache_sized(maya_telemetry::CacheId::LexShare, share.len());
                }
            }
            for (i, lexed) in entries {
                let f = &mut self.files[i];
                let token_hash = lex_result_hash(&lexed);
                if f.token_hash != token_hash || f.lexed.is_none() {
                    f.token_hash = token_hash;
                    f.lexed = Some(lexed);
                    changed.insert(f.name.clone());
                }
                // Token-identical content (e.g. a retyped same-length
                // comment): keep the cached trees — spans are part of the
                // hash, so they are interchangeable.
            }
        }

        count_by(Counter::IncrFilesChanged, changed.len() as u64);
        self.stats.files_changed += changed.len() as u64;

        // ---- full reuse ------------------------------------------------------
        if changed.is_empty() {
            if let Some((cached_opts, outcome)) = &self.cached {
                if cached_opts == opts {
                    maya_telemetry::count(Counter::IncrFullReuses);
                    self.stats.full_reuses += 1;
                    let mut out = outcome.clone();
                    out.full_reuse = true;
                    out.files_changed = 0;
                    out.files_reused = self.files.len();
                    out.files_recompiled = 0;
                    out.grammar_reuses = 0;
                    return out;
                }
            }
        }

        // ---- invalidation ----------------------------------------------------
        // The cone of a change: the changed files themselves plus, via the
        // reverse import edges of the last compile, every file that
        // imported a metaprogram declared in one — transitively, because
        // an importer may itself declare metaprograms for others.
        let mut cone: BTreeSet<String> = changed.clone();
        let mut frontier: Vec<String> = cone.iter().cloned().collect();
        while let Some(name) = frontier.pop() {
            if let Some(importers) = self.rdeps.get(&name) {
                for imp in importers {
                    if cone.insert(imp.clone()) {
                        frontier.push(imp.clone());
                    }
                }
            }
        }

        if !cold {
            if let Some(stored) = load_outcome(&outcome_store) {
                return self.replay(stored, inputs, changed.len(), &cone);
            }
        }

        // ---- compile ---------------------------------------------------------
        // A fresh compiler per request, dropped when the request ends:
        // class tables and interpreter state belong to one compilation and
        // are freed with it. The expensive state (interner, LALR table
        // memo, base environment, token trees and their fingerprints, the
        // force cache) lives outside the compiler and carries over.
        let compiler = Compiler::with_options(CompileOptions {
            uses: opts.uses.clone(),
            expand_fuel: opts
                .fuel
                .map_or(self.base_options.expand_fuel, |f| {
                    f.min(self.base_options.expand_fuel)
                }),
            ..self.base_options.clone()
        });
        if let Some(install) = &self.installer {
            install(&compiler);
        }
        let diags = Diagnostics::with_limits(opts.max_errors, opts.deny_warnings);

        let mut sources: Vec<(String, String)> = Vec::new();
        let mut prelexed: Vec<Option<Lexed>> = Vec::new();
        let mut reused = 0usize;
        let mut recompiled = 0usize;
        for (i, (name, text)) in inputs.iter().enumerate() {
            match text {
                Ok(t) => {
                    sources.push((name.clone(), t.clone()));
                    let f = &self.files[i];
                    if cone.contains(name) {
                        recompiled += 1;
                        // Changed files were already lexed this request
                        // (the scratch pass); unchanged cone members are
                        // re-lexed by the compiler, a genuinely cold front
                        // end for the whole cone.
                        if changed.contains(name) {
                            prelexed.push(f.lexed.clone());
                        } else {
                            prelexed.push(None);
                        }
                    } else if let Some(lexed) = &f.lexed {
                        reused += 1;
                        prelexed.push(Some(lexed.clone()));
                    } else {
                        // No cached trees (first sighting): cold path.
                        recompiled += 1;
                        prelexed.push(None);
                    }
                }
                Err(e) => diags.error(format!("cannot read {name}: {e}"), Span::DUMMY),
            }
        }
        count_by(Counter::IncrFilesReused, reused as u64);
        count_by(Counter::IncrFilesRecompiled, recompiled as u64);
        self.stats.files_reused += reused as u64;
        self.stats.files_recompiled += recompiled as u64;

        // The same last-resort safety net as `mayac`: a panic becomes an
        // ICE diagnostic, never an abort (and never a poisoned session —
        // the outcome cache is simply not populated).
        let piped = crate::sandbox::catch(|| {
            compiler.add_sources_prelexed_diags(&sources, prelexed, &diags);
            if diags.at_cap() {
                return (String::new(), None, String::new());
            }
            compiler.compile_diags(&diags);
            let mut expand_text = String::new();
            if opts.expand && !diags.should_fail() {
                expand_text = render_expansions(&compiler);
            }
            if diags.should_fail() || !opts.run {
                return (expand_text, None, String::new());
            }
            let out = compiler.run_main_diags(&opts.main_class, &diags);
            // Disassembled after the run: by then every reachable body is
            // forced and the inline caches carry their observed shapes.
            let bc_text = match (&opts.dump_bytecode, diags.should_fail()) {
                (Some(filter), false) => render_bytecode(&compiler, filter),
                _ => String::new(),
            };
            (expand_text, out, bc_text)
        });
        let (expand_text, program_out, bc_text, ice) = match piped {
            Ok((e, o, b)) => (e, o, b, false),
            Err(panic_msg) => {
                diags.error(format!("internal: {panic_msg}"), Span::DUMMY);
                (String::new(), None, String::new(), true)
            }
        };

        // ---- dependency graph + grammar accounting ---------------------------
        let mut grammar_reuses = 0usize;
        if !ice {
            let ok_file_names: Vec<&str> = sources.iter().map(|(n, _)| n.as_str()).collect();
            let name_of = |id: FileId| ok_file_names.get(id.0 as usize).map(|s| (*s).to_owned());
            self.rdeps.clear();
            for edge in compiler.dep_log() {
                if self.seen_grammars.contains(&edge.grammar_hash) {
                    grammar_reuses += 1;
                }
                self.seen_grammars.insert(edge.grammar_hash);
                if let (Some(importer), Some(origin)) =
                    (name_of(edge.importer), edge.origin.and_then(name_of))
                {
                    if importer != origin {
                        self.rdeps.entry(origin).or_default().insert(importer);
                    }
                }
            }
        }
        count_by(Counter::IncrGrammarReuses, grammar_reuses as u64);
        self.stats.grammar_reuses += grammar_reuses as u64;

        // ---- render (byte-identical to mayac) --------------------------------
        let mut stderr = String::new();
        if !diags.is_empty() || diags.should_fail() {
            let sm = compiler.inner().sm.borrow();
            match opts.error_format {
                ErrorFormat::Human => {
                    for line in diags.render_human(&sm).lines() {
                        stderr.push_str("mayac: ");
                        stderr.push_str(line);
                        stderr.push('\n');
                    }
                }
                ErrorFormat::Json => stderr.push_str(&diags.render_json(&sm)),
            }
        }
        // The request is over: free its compiler (nothing it built outlives
        // it) and let the shared caches drop what no recent request used.
        drop(compiler);
        if let Some(cache) = &self.base_options.force_cache {
            cache.end_request();
        }
        let success = !diags.should_fail();
        let mut stdout = expand_text;
        if success {
            if let Some(out) = program_out {
                stdout.push_str(&out);
            }
            stdout.push_str(&bc_text);
        }
        let outcome = Outcome {
            stdout,
            stderr,
            success,
            full_reuse: false,
            files_changed: changed.len(),
            files_reused: reused,
            files_recompiled: recompiled,
            grammar_reuses,
        };
        if ice {
            self.cached = None;
        } else {
            self.cached = Some((opts.clone(), outcome.clone()));
            if let Some((store, key)) = &outcome_store {
                if let Some(payload) = crate::store::encode_outcome_payload(
                    &outcome.stdout,
                    &outcome.stderr,
                    outcome.success,
                ) {
                    store.save(crate::store::Kind::Outcome, *key, &payload);
                }
            }
        }
        outcome
    }

    /// Answers a request from a stored outcome, with the reuse accounting
    /// the compile path would report for `files_changed` changed files and
    /// invalidation `cone`.
    ///
    /// The replay skipped the compile, so the dependency graph this
    /// session would use for the *next* invalidation pass was not rebuilt.
    /// Per-file state is reset: the next request starts cold (and likely
    /// hits the store again) instead of under-invalidating.
    fn replay(
        &mut self,
        (stdout, stderr, success): Stored,
        inputs: &[(String, Result<String, String>)],
        files_changed: usize,
        cone: &BTreeSet<String>,
    ) -> Outcome {
        let mut reused = 0usize;
        let mut recompiled = 0usize;
        for (i, (name, text)) in inputs.iter().enumerate() {
            if text.is_ok() {
                if cone.contains(name) || self.files[i].lexed.is_none() {
                    recompiled += 1;
                } else {
                    reused += 1;
                }
            }
        }
        count_by(Counter::IncrFilesReused, reused as u64);
        count_by(Counter::IncrFilesRecompiled, recompiled as u64);
        self.stats.files_reused += reused as u64;
        self.stats.files_recompiled += recompiled as u64;
        self.files.clear();
        self.rdeps.clear();
        self.seen_grammars.clear();
        self.cached = None;
        Outcome {
            stdout,
            stderr,
            success,
            full_reuse: false,
            files_changed,
            files_reused: reused,
            files_recompiled: recompiled,
            grammar_reuses: 0,
        }
    }

    /// The source-closure key for a persistent outcome artifact: every
    /// file's name, readability and raw-content hash (imports are folded
    /// in because the importing *and* the declaring file are both in the
    /// closure) plus every option that can change stdout/stderr/exit
    /// status. A file's tokens are a function of its bytes and of its
    /// position among the readable files, which the ordered names and
    /// readability fix, so the key needs no lexing. Both option structs
    /// are destructured without `..`, so a new field does not compile
    /// until it is keyed here or exempted with a reason.
    fn outcome_key(&self, opts: &RequestOpts) -> u128 {
        let RequestOpts {
            uses,
            main_class,
            run,
            expand,
            dump_bytecode,
            error_format,
            max_errors,
            deny_warnings,
            fuel,
        } = opts;
        let CompileOptions {
            // Echoes to the process's stdout; the outcome is the same.
            echo_output: _,
            // Replaced by the request's `uses`.
            uses: _,
            max_expand_depth,
            expand_fuel,
            interp_step_limit,
            interp_stack_limit,
            // Output is identical for every `--jobs` value.
            jobs: _,
            // A memo of pure parses: hits and misses print the same.
            force_cache: _,
        } = &self.base_options;
        let mut h = crate::store::outcome_key_hasher();
        h.u32(self.files.len() as u32);
        for f in &self.files {
            h.str(&f.name);
            h.byte(u8::from(f.ok));
            h.bytes(&f.raw_hash.to_le_bytes());
        }
        h.u32(uses.len() as u32);
        for u in uses {
            h.str(u);
        }
        h.str(main_class);
        h.byte(u8::from(*run));
        h.byte(u8::from(*expand));
        match dump_bytecode {
            None => h.byte(0),
            Some(f) => {
                h.byte(1);
                h.str(f);
            }
        }
        h.byte(match error_format {
            ErrorFormat::Human => 0,
            ErrorFormat::Json => 1,
        });
        h.u32(*max_errors as u32);
        h.byte(u8::from(*deny_warnings));
        // Limits outside `RequestOpts` that alter observable output when
        // a program runs into them.
        let fuel = fuel.map_or(*expand_fuel, |f| f.min(*expand_fuel));
        h.bytes(&fuel.to_le_bytes());
        h.bytes(&interp_step_limit.to_le_bytes());
        h.u32(*max_expand_depth);
        h.u32(*interp_stack_limit);
        h.finish()
    }
}

/// Renders `mayac --dump-bytecode[=FILTER]`: one disassembly block per
/// forced, bytecode-compilable method (same class walk and library-package
/// skip as `--expand`).  An empty filter passes everything; otherwise the
/// method name or `Class.method` must match.
fn render_bytecode(compiler: &Compiler, filter: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let interp = compiler.interp();
    let classes = compiler.classes();
    for idx in 0..classes.len() {
        let id = maya_types::ClassId(idx as u32);
        let info = classes.info(id);
        let info = info.borrow();
        if info.fqcn.as_str().starts_with("java.") || info.fqcn.as_str().starts_with("maya.") {
            continue;
        }
        for m in &info.methods {
            let label = format!("{}.{}", info.fqcn, m.name);
            if !filter.is_empty() && m.name.as_str() != filter && label != filter {
                continue;
            }
            let Some(body) = &m.body else { continue };
            if m.native.is_some() || !body.is_forced() {
                continue;
            }
            if let Some(text) = interp.bytecode_listing(body, m) {
                let _ = writeln!(out, "--- bytecode {label} ---");
                let _ = write!(out, "{text}");
                if !text.ends_with('\n') {
                    out.push('\n');
                }
            }
        }
    }
    out
}

/// `mayac --expand` as a string: every compiled method body of every
/// user class, pretty-printed after Mayan expansion.
fn render_expansions(compiler: &Compiler) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let classes = compiler.classes();
    for idx in 0..classes.len() {
        let id = maya_types::ClassId(idx as u32);
        let info = classes.info(id);
        let info = info.borrow();
        if info.fqcn.as_str().starts_with("java.") || info.fqcn.as_str().starts_with("maya.") {
            continue;
        }
        for m in &info.methods {
            if let Some(body) = &m.body {
                if let Some(node) = body.forced_node() {
                    let _ = writeln!(out, "--- {}.{} ---", info.fqcn, m.name);
                    let _ = writeln!(
                        out,
                        "{}",
                        maya_ast::normalize_generated_names(&maya_ast::pretty_node(&node))
                    );
                }
            }
        }
    }
    out
}
