//! The interpreter profiler (`mayac --profile-interp[=N]`).
//!
//! Per-method invocation counts with inclusive/exclusive wall time,
//! per-call-site inline-cache hit/miss counts, and a tally of nested
//! binary-operator pairs — the data the bytecode VM's superinstructions
//! were picked from.
//!
//! The recording API is keyed by raw addresses (`&MethodInfo`, `&PolySite`
//! — both live behind `Rc`s for the interpreter's lifetime) so the hot
//! path never hashes a string; names are rendered lazily by a closure that
//! only runs the first time a key is seen. The interpreter keeps its own
//! `Cell<bool>` mirror of [`profiling`] (synced at its public entry
//! points), so a disabled profiler costs one field load per call and
//! nothing per expression.
//!
//! Inclusive time is charged to the *outermost* activation of a method
//! only (an activation-depth map guards recursion), so a recursive
//! method's inclusive total is true wall time, not multiplied by depth.
//! Exclusive (self) time subtracts the time spent in profiled callees.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Per-method totals.
#[derive(Clone, Copy, Default, Debug)]
pub struct MethodStat {
    /// Invocations (every activation, recursive ones included).
    pub calls: u64,
    /// Wall time of outermost activations.
    pub incl_ns: u64,
    /// Wall time minus time spent in profiled callees.
    pub self_ns: u64,
}

/// Per-call-site inline-cache totals.
#[derive(Clone, Copy, Default, Debug)]
pub struct SiteStat {
    pub hits: u64,
    pub misses: u64,
}

impl SiteStat {
    /// hits / (hits + misses), or 0.0 with no traffic.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct ProfFrame {
    key: usize,
    started: Instant,
    /// Nanoseconds spent in profiled callees of this frame.
    child_ns: u64,
}

/// Live profiling state; owned by the telemetry session.
#[derive(Default)]
pub(crate) struct ProfState {
    methods: HashMap<usize, MethodStat>,
    names: HashMap<usize, String>,
    /// Activation depth per method key (recursion guard for incl_ns).
    active: HashMap<usize, u32>,
    stack: Vec<ProfFrame>,
    sites: HashMap<usize, SiteStat>,
    site_names: HashMap<usize, String>,
    pairs: HashMap<(&'static str, &'static str), u64>,
    opcodes: HashMap<&'static str, u64>,
}

thread_local! {
    static PROF_ON: Cell<bool> = const { Cell::new(false) };
    static PROF: RefCell<Option<ProfState>> = const { RefCell::new(None) };
}

/// True when the active session requested interpreter profiling. The
/// interpreter mirrors this into a `Cell<bool>` at its entry points; the
/// per-call/per-site hooks below re-check it themselves, so calling them
/// against a stale mirror is safe (just a wasted branch).
#[inline]
pub fn profiling() -> bool {
    PROF_ON.with(|p| p.get())
}

/// Installs (or clears) the profiling state. Session-start/finish only.
pub(crate) fn set_profiling(state: Option<ProfState>) {
    PROF_ON.with(|p| p.set(state.is_some()));
    PROF.with(|p| *p.borrow_mut() = state);
}

/// Takes the profiling state (session finish).
pub(crate) fn take_profiling() -> Option<ProfState> {
    PROF_ON.with(|p| p.set(false));
    PROF.with(|p| p.borrow_mut().take())
}

fn with_prof(f: impl FnOnce(&mut ProfState)) {
    if !profiling() {
        return;
    }
    PROF.with(|p| {
        if let Some(st) = p.borrow_mut().as_mut() {
            f(st);
        }
    });
}

/// Enters a profiled method activation. `key` must be stable for the
/// method's lifetime (the `MethodInfo` address); `name` renders the
/// human label and runs only on the key's first appearance.
pub fn prof_enter(key: usize, name: impl FnOnce() -> String) {
    with_prof(|st| {
        st.names.entry(key).or_insert_with(name);
        st.methods.entry(key).or_default().calls += 1;
        *st.active.entry(key).or_insert(0) += 1;
        st.stack.push(ProfFrame {
            key,
            started: Instant::now(),
            child_ns: 0,
        });
    });
}

/// Exits the innermost profiled activation (LIFO with [`prof_enter`]).
pub fn prof_exit() {
    with_prof(|st| {
        let Some(fr) = st.stack.pop() else { return };
        let elapsed = fr.started.elapsed().as_nanos() as u64;
        let stat = st.methods.entry(fr.key).or_default();
        stat.self_ns += elapsed.saturating_sub(fr.child_ns);
        let depth = st.active.entry(fr.key).or_insert(1);
        *depth = depth.saturating_sub(1);
        if *depth == 0 {
            stat.incl_ns += elapsed;
        }
        if let Some(parent) = st.stack.last_mut() {
            parent.child_ns += elapsed;
        }
    });
}

/// Records an inline-cache probe at a call site. `key` is the site's
/// address; `name` labels it (first appearance only).
pub fn prof_site(key: usize, hit: bool, name: impl FnOnce() -> String) {
    with_prof(|st| {
        st.site_names.entry(key).or_insert_with(name);
        let s = st.sites.entry(key).or_default();
        if hit {
            s.hits += 1;
        } else {
            s.misses += 1;
        }
    });
}

/// Records one nested binary-operator pair: an `outer` operation whose
/// operand is itself the `inner` operation (e.g. `a + b * c` records
/// `("+", "*")`). The superinstruction-selection signal.
pub fn prof_binop_pair(outer: &'static str, inner: &'static str) {
    with_prof(|st| {
        *st.pairs.entry((outer, inner)).or_insert(0) += 1;
    });
}

/// Tallies one executed bytecode instruction by mnemonic. The VM reads its
/// profiled flag once per body execution, so the disabled cost is one
/// predictable branch per instruction.
pub fn prof_opcode(name: &'static str) {
    with_prof(|st| {
        *st.opcodes.entry(name).or_insert(0) += 1;
    });
}

/// The finished interpreter profile carried by a [`crate::Report`].
#[derive(Clone, Debug, Default)]
pub struct InterpProfile {
    /// `(label, stat)` sorted by exclusive time, descending.
    pub methods: Vec<(String, MethodStat)>,
    /// `(label, stat)` sorted by probe count, descending.
    pub sites: Vec<(String, SiteStat)>,
    /// `("outer≺inner", count)` sorted by count, descending.
    pub pairs: Vec<(String, u64)>,
    /// `(mnemonic, executed count)` sorted by count, descending.
    pub opcodes: Vec<(String, u64)>,
    /// Requested report width (`--profile-interp=N`).
    pub top: usize,
}

impl ProfState {
    pub(crate) fn into_profile(mut self, top: usize) -> InterpProfile {
        // Close any activations still open when the session ended (a
        // profile taken mid-run); charge them as-is so totals stay sane.
        while !self.stack.is_empty() {
            let frames = std::mem::take(&mut self.stack);
            let mut st = ProfState {
                stack: frames,
                ..ProfState::default()
            };
            std::mem::swap(&mut st.methods, &mut self.methods);
            std::mem::swap(&mut st.active, &mut self.active);
            if let Some(fr) = st.stack.pop() {
                let elapsed = fr.started.elapsed().as_nanos() as u64;
                let stat = st.methods.entry(fr.key).or_default();
                stat.self_ns += elapsed.saturating_sub(fr.child_ns);
                stat.incl_ns += elapsed;
            }
            self.stack = st.stack;
            std::mem::swap(&mut st.methods, &mut self.methods);
            std::mem::swap(&mut st.active, &mut self.active);
        }
        let mut methods: Vec<(String, MethodStat)> = self
            .methods
            .into_iter()
            .map(|(k, v)| {
                (
                    self.names.get(&k).cloned().unwrap_or_else(|| format!("<{k:#x}>")),
                    v,
                )
            })
            .collect();
        methods.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then(a.0.cmp(&b.0)));
        let mut sites: Vec<(String, SiteStat)> = self
            .sites
            .into_iter()
            .map(|(k, v)| {
                (
                    self.site_names.get(&k).cloned().unwrap_or_else(|| format!("<{k:#x}>")),
                    v,
                )
            })
            .collect();
        sites.sort_by(|a, b| {
            (b.1.hits + b.1.misses).cmp(&(a.1.hits + a.1.misses)).then(a.0.cmp(&b.0))
        });
        let mut pairs: Vec<(String, u64)> = self
            .pairs
            .into_iter()
            .map(|((o, i), n)| (format!("{o} \u{227A} {i}"), n))
            .collect();
        pairs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut opcodes: Vec<(String, u64)> = self
            .opcodes
            .into_iter()
            .map(|(k, n)| (k.to_owned(), n))
            .collect();
        opcodes.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        InterpProfile {
            methods,
            sites,
            pairs,
            opcodes,
            top,
        }
    }
}

impl InterpProfile {
    /// The human report: top-N methods by exclusive time, top-N call
    /// sites with IC hit rates, top-N nested binary-op pairs.
    pub fn render(&self) -> String {
        let n = self.top.max(1);
        let mut out = String::new();
        let _ = writeln!(out, "interpreter profile (top {n})");
        let _ = writeln!(
            out,
            "  {:<40} {:>10} {:>12} {:>12}",
            "method", "calls", "incl", "self"
        );
        for (name, s) in self.methods.iter().take(n) {
            let _ = writeln!(
                out,
                "  {:<40} {:>10} {:>12} {:>12}",
                name,
                s.calls,
                crate::fmt_duration(s.incl_ns),
                crate::fmt_duration(s.self_ns)
            );
        }
        if self.methods.is_empty() {
            let _ = writeln!(out, "  (no profiled method calls)");
        }
        let _ = writeln!(out, "  call sites (inline caches):");
        let _ = writeln!(
            out,
            "  {:<40} {:>10} {:>10} {:>9}",
            "site", "hits", "misses", "hit rate"
        );
        for (name, s) in self.sites.iter().take(n) {
            let _ = writeln!(
                out,
                "  {:<40} {:>10} {:>10} {:>8.1}%",
                name,
                s.hits,
                s.misses,
                s.hit_ratio() * 100.0
            );
        }
        if self.sites.is_empty() {
            let _ = writeln!(out, "  (no inline-cache probes)");
        }
        let _ = writeln!(out, "  hot binary-op pairs (outer \u{227A} inner):");
        for (name, count) in self.pairs.iter().take(n) {
            let _ = writeln!(out, "  {:<40} {:>10}", name, count);
        }
        if self.pairs.is_empty() {
            let _ = writeln!(out, "  (no nested binary operations)");
        }
        if !self.opcodes.is_empty() {
            let total: u64 = self.opcodes.iter().map(|(_, n)| n).sum();
            let _ = writeln!(out, "  bytecode opcodes ({total} executed):");
            for (name, count) in self.opcodes.iter().take(n) {
                let _ = writeln!(out, "  {:<40} {:>10}", name, count);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_fresh_profiler(f: impl FnOnce()) -> InterpProfile {
        set_profiling(Some(ProfState::default()));
        f();
        take_profiling().expect("profiler state").into_profile(10)
    }

    #[test]
    fn disabled_hooks_are_noops() {
        assert!(!profiling());
        prof_enter(1, || panic!("name must not render"));
        prof_exit();
        prof_site(2, true, || panic!("name must not render"));
        prof_binop_pair("+", "*");
    }

    #[test]
    fn calls_and_times_accumulate() {
        let p = with_fresh_profiler(|| {
            prof_enter(10, || "A".into());
            prof_enter(20, || "B".into());
            prof_exit();
            prof_exit();
            prof_enter(10, || "ignored (first name wins)".into());
            prof_exit();
        });
        let a = p.methods.iter().find(|(n, _)| n == "A").expect("A profiled");
        let b = p.methods.iter().find(|(n, _)| n == "B").expect("B profiled");
        assert_eq!(a.1.calls, 2);
        assert_eq!(b.1.calls, 1);
        // A's exclusive time excludes B's inclusive time.
        assert!(a.1.incl_ns >= a.1.self_ns);
    }

    #[test]
    fn recursion_counts_outermost_inclusive_only() {
        let p = with_fresh_profiler(|| {
            prof_enter(1, || "rec".into());
            prof_enter(1, || "rec".into());
            prof_enter(1, || "rec".into());
            std::thread::sleep(std::time::Duration::from_millis(2));
            prof_exit();
            prof_exit();
            prof_exit();
        });
        let (_, s) = &p.methods[0];
        assert_eq!(s.calls, 3);
        // Inclusive charged once: it must be close to wall time, not 3x.
        // (self_ns of the innermost frame is also the whole sleep.)
        assert!(s.incl_ns < 2 * s.self_ns + 1_000_000, "incl={} self={}", s.incl_ns, s.self_ns);
    }

    #[test]
    fn sites_and_pairs_tally() {
        let p = with_fresh_profiler(|| {
            prof_site(7, true, || "Main.f/1".into());
            prof_site(7, true, || "x".into());
            prof_site(7, false, || "x".into());
            prof_binop_pair("+", "*");
            prof_binop_pair("+", "*");
            prof_binop_pair("-", "/");
        });
        assert_eq!(p.sites.len(), 1);
        let (name, s) = &p.sites[0];
        assert_eq!(name, "Main.f/1");
        assert_eq!((s.hits, s.misses), (2, 1));
        assert!((s.hit_ratio() - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(p.pairs[0], ("+ \u{227A} *".to_owned(), 2));
        let text = p.render();
        assert!(text.contains("Main.f/1"), "{text}");
        assert!(text.contains("66.7%"), "{text}");
    }
}
