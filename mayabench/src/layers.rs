//! Per-layer accounting for traced runs: span self times by layer, the
//! coverage check, and the work counters and cache gauges the binaries
//! already export.
//!
//! A layer's self time is the duration of its spans minus their child
//! spans. The benchmark's own spans (`bench.*`) around each call it makes
//! are the parents of the pipeline's phase spans; a `bench.*` span counts
//! towards the layer whose public entry point it wraps (`bench.run_main`
//! is the interpreter's), or towards `unattributed` otherwise.

use maya::core::json::Json;
use maya::telemetry::{CacheId, Counter, Phase, Report, NO_PARENT};
use std::collections::BTreeMap;

use crate::report::Table;
use crate::stats::ratio;

/// The benchmark's root span around one request.
pub const BENCH_REQUEST: &str = "bench.request";

/// Every per-layer self-time metric, in pipeline order.
const SELF_TIME_METRICS: [&str; 11] = [
    "grammar.table_build_self_ms",
    "lexer.self_ms",
    "parser.self_ms",
    "dispatch.self_ms",
    "ast.force_self_ms",
    "types.self_ms",
    "template.compile_self_ms",
    "template.instantiate_self_ms",
    "interp.self_ms",
    "session.self_ms",
    "mayac.startup_ms",
];

/// Hit-ratio metrics and the cache gauge (`CacheId::name`) each reads.
pub const CACHE_RATIOS: [(&str, &str); 9] = [
    ("session.force_cache_hit_ratio", "force_cache"),
    ("session.unit_cache_hit_ratio", "unit_cache"),
    ("session.class_body_cache_hit_ratio", "class_body_cache"),
    ("session.lower_store_hit_ratio", "lower_store"),
    ("session.lex_share_hit_ratio", "lex_share"),
    ("store.outcome_hit_ratio", "store_outcome"),
    ("store.tables_hit_ratio", "store_tables"),
    ("store.lex_hit_ratio", "store_lex"),
    ("store.body_hit_ratio", "store_body"),
];

/// The self-time metric a span's self time counts towards; `None` for
/// time no layer claims.
fn layer_of(name: &str) -> Result<Option<&'static str>, String> {
    Ok(Some(match name {
        "table_build" => "grammar.table_build_self_ms",
        "lex" | "lex_file" => "lexer.self_ms",
        "parse" => "parser.self_ms",
        "dispatch" => "dispatch.self_ms",
        "force" => "ast.force_self_ms",
        "type_check" => "types.self_ms",
        "template_compile" => "template.compile_self_ms",
        "template_instantiate" => "template.instantiate_self_ms",
        "interp" | "bench.run_main" => "interp.self_ms",
        // `Session::compile_inputs`: change detection, store and cache
        // lookups, and the code between phases.
        "request" => "session.self_ms",
        BENCH_REQUEST | "bench.with_options" | "bench.add_source" | "bench.compile" => {
            return Ok(None)
        }
        other => return Err(format!("span {other:?} belongs to no known layer")),
    }))
}

/// One span in a uniform shape, whichever exporter produced it.
pub struct Span {
    name: String,
    start_ns: u64,
    dur_ns: u64,
    parent: Option<usize>,
    tid: u64,
}

/// The spans of an in-process telemetry report.
pub fn spans_of_report(r: &Report) -> Result<Vec<Span>, String> {
    if r.spans_dropped > 0 {
        return Err(format!(
            "{} spans dropped at the buffer cap",
            r.spans_dropped
        ));
    }
    Ok(r.spans
        .iter()
        .map(|s| Span {
            name: s.name.to_string(),
            start_ns: s.start_ns,
            dur_ns: s.dur_ns,
            parent: (s.parent != NO_PARENT).then_some(s.parent as usize),
            tid: u64::from(s.tid),
        })
        .collect())
}

fn num(v: Option<&Json>) -> Option<f64> {
    match v {
        Some(Json::Num(n)) => Some(*n),
        _ => None,
    }
}

/// The spans of a Chrome trace-event document (`mayac --trace-out`).
/// Events are listed in open order; a span's parent is the innermost
/// earlier span on the same thread that is still open when it starts.
pub fn spans_of_chrome_trace(doc: &Json) -> Result<Vec<Span>, String> {
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("trace has no traceEvents array")?;
    let mut spans: Vec<Span> = Vec::with_capacity(events.len());
    let mut open: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for e in events {
        let field =
            |k: &str| num(e.get(k)).ok_or_else(|| format!("trace event without numeric {k}"));
        let name = e
            .get("name")
            .and_then(Json::as_str)
            .ok_or("trace event without name")?;
        let start_ns = (field("ts")? * 1000.0).round() as u64;
        let dur_ns = (field("dur")? * 1000.0).round() as u64;
        let tid = field("tid")? as u64;
        let stack = open.entry(tid).or_default();
        while let Some(&top) = stack.last() {
            if spans[top].start_ns + spans[top].dur_ns <= start_ns {
                stack.pop();
            } else {
                break;
            }
        }
        spans.push(Span {
            name: name.to_owned(),
            start_ns,
            dur_ns,
            parent: stack.last().copied(),
            tid,
        });
        stack.push(spans.len() - 1);
    }
    Ok(spans)
}

/// Self time per layer of one request's span tree. Fails on spans that
/// run on several threads (their times would overlap), on a child that
/// escapes its parent or overlaps a sibling, and on children that add up
/// to more than their parent: each would count some time twice.
fn self_times(spans: &[Span]) -> Result<BTreeMap<&'static str, u64>, String> {
    if let Some(s) = spans.iter().find(|s| s.tid != spans[0].tid) {
        return Err(format!(
            "span {:?} ran on another thread; its time cannot be attributed",
            s.name
        ));
    }
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    let mut by_layer = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let end = s.start_ns + s.dur_ns;
        let mut kids_ns = 0u64;
        let mut last_end = s.start_ns;
        for &c in &children[i] {
            let k = &spans[c];
            if k.start_ns < last_end || k.start_ns + k.dur_ns > end {
                return Err(format!(
                    "span {:?} overlaps a sibling or escapes its parent {:?}: double-counted time",
                    k.name, s.name
                ));
            }
            last_end = k.start_ns + k.dur_ns;
            kids_ns += k.dur_ns;
        }
        let own = s.dur_ns - kids_ns;
        if let Some(layer) = layer_of(&s.name)? {
            *by_layer.entry(layer).or_insert(0) += own;
        }
    }
    Ok(by_layer)
}

/// Counters and cache gauges of one request, keyed by their exported
/// names (`Counter::name`, `CacheId::name`).
#[derive(Default)]
pub struct Work {
    counters: BTreeMap<String, u64>,
    /// Cache name → (hits, misses).
    caches: BTreeMap<String, (u64, u64)>,
    /// Phase name → activations.
    phase_calls: BTreeMap<String, u64>,
}

impl Work {
    pub fn of_report(r: &Report) -> Work {
        Work {
            counters: Counter::ALL
                .iter()
                .map(|c| (c.name().to_owned(), r.counter(*c)))
                .collect(),
            caches: CacheId::ALL
                .iter()
                .map(|c| (c.name().to_owned(), (r.cache(*c).hits, r.cache(*c).misses)))
                .collect(),
            phase_calls: Phase::ALL
                .iter()
                .map(|p| (p.name().to_owned(), r.phase_calls(*p)))
                .collect(),
        }
    }

    /// A `maya-telemetry/1` stats document (`mayac --stats=FILE`).
    pub fn of_stats_json(doc: &Json) -> Result<Work, String> {
        let obj = |k: &str| match doc.get(k) {
            Some(Json::Obj(m)) => Ok(m),
            _ => Err(format!("stats document has no {k:?} object")),
        };
        let mut w = Work::default();
        for (k, v) in obj("counters")? {
            w.counters
                .insert(k.clone(), v.as_u64().ok_or("non-integer counter")?);
        }
        for (k, v) in obj("caches")? {
            let get = |f: &str| {
                v.get(f)
                    .and_then(Json::as_u64)
                    .ok_or("cache gauge without hits/misses")
            };
            w.caches.insert(k.clone(), (get("hits")?, get("misses")?));
        }
        for (k, v) in obj("phases")? {
            w.phase_calls.insert(
                k.clone(),
                v.get("calls")
                    .and_then(Json::as_u64)
                    .ok_or("phase without calls")?,
            );
        }
        Ok(w)
    }

    fn add(&mut self, other: &Work) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_default() += v;
        }
        for (k, (h, m)) in &other.caches {
            let e = self.caches.entry(k.clone()).or_default();
            e.0 += h;
            e.1 += m;
        }
    }

    fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    fn cache_ratio(&self, name: &str) -> f64 {
        let (h, m) = self.caches.get(name).copied().unwrap_or((0, 0));
        ratio(h, h + m)
    }
}

/// Layer totals over the traced requests of one run.
#[derive(Default)]
pub struct Tally {
    requests: u64,
    /// Traced wall time of each request, in milliseconds.
    pub wall_ms: Vec<f64>,
    layer_ns: BTreeMap<&'static str, u64>,
    unattributed_ns: u64,
    work: Work,
}

impl Tally {
    /// Adds one traced request: its wall time as the benchmark measured
    /// it, the part of that time the process spent outside the compiler's
    /// telemetry session (`mayac` start-up and exit; 0 in-process), its
    /// spans, and its work counters. This is the coverage check: every
    /// phase activation must have its span, and the layers' self times
    /// must not add up to more than the wall time.
    pub fn add_request(
        &mut self,
        wall_ns: u64,
        outside_ns: u64,
        spans: &[Span],
        work: Work,
    ) -> Result<(), String> {
        if spans.is_empty() {
            return Err("traced request recorded no spans".into());
        }
        for (phase, &calls) in &work.phase_calls {
            let n = spans.iter().filter(|s| s.name == *phase).count() as u64;
            if n != calls {
                return Err(format!(
                    "phase {phase}: {calls} activations but {n} spans (spans missing)"
                ));
            }
        }
        let mut layers = self_times(spans)?;
        if outside_ns > 0 {
            layers.insert("mayac.startup_ms", outside_ns);
        }
        let claimed: u64 = layers.values().sum();
        let Some(unattributed) = wall_ns.checked_sub(claimed) else {
            return Err(format!(
                "layer self times add up to {claimed} ns, more than the {wall_ns} ns wall time"
            ));
        };
        debug_assert_eq!(claimed + unattributed, wall_ns);
        for (layer, ns) in layers {
            *self.layer_ns.entry(layer).or_insert(0) += ns;
        }
        self.unattributed_ns += unattributed;
        self.requests += 1;
        self.wall_ms.push(wall_ns as f64 / 1e6);
        self.work.add(&work);
        Ok(())
    }

    /// Writes the per-layer metrics: self times as a mean per traced
    /// request, counts as totals over the traced stream.
    pub fn fill(&self, t: &mut Table) {
        let per_req_ms = |ns: u64| ns as f64 / self.requests.max(1) as f64 / 1e6;
        for m in SELF_TIME_METRICS {
            t.set(m, per_req_ms(self.layer_ns.get(m).copied().unwrap_or(0)));
        }
        t.set("unattributed.self_ms", per_req_ms(self.unattributed_ns));
        let w = &self.work;
        let c = |n: &str| w.counter(n);
        t.set("grammar.tables_built", c("tables_built") as f64);
        t.set(
            "grammar.table_memo_hit_ratio",
            ratio(
                c("table_cache_hits"),
                c("table_cache_hits") + c("table_cache_misses"),
            ),
        );
        t.set("lexer.tokens", c("tokens_lexed") as f64);
        t.set("parser.reductions", c("parser_reductions") as f64);
        t.set(
            "dispatch.tests_per_reduction",
            ratio(c("dispatch_tests"), c("dispatch_reductions")),
        );
        t.set(
            "dispatch.index_hit_ratio",
            ratio(
                c("dispatch_index_hits"),
                c("dispatch_index_hits") + c("dispatch_index_misses"),
            ),
        );
        t.set(
            "ast.lazy_forced_ratio",
            ratio(c("lazy_nodes_forced"), c("lazy_nodes_created")),
        );
        t.set("interp.bc_compiled", c("bc_compiled") as f64);
        t.set(
            "interp.pic_hit_ratio",
            ratio(c("pic_hits"), c("pic_hits") + c("pic_misses")),
        );
        t.set(
            "session.files_recompiled",
            c("incr_files_recompiled") as f64,
        );
        for (metric, cache) in CACHE_RATIOS {
            t.set(metric, w.cache_ratio(cache));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, dur_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            dur_ns,
            parent,
            tid: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span(BENCH_REQUEST, 0, 100, None),
            span("parse", 10, 50, Some(0)),
            span("dispatch", 20, 30, Some(1)),
            span("bench.run_main", 70, 20, Some(0)),
        ];
        let l = self_times(&spans).unwrap();
        assert_eq!(l["parser.self_ms"], 20);
        assert_eq!(l["dispatch.self_ms"], 30);
        assert_eq!(l["interp.self_ms"], 20);
        let mut t = Tally::default();
        t.add_request(120, 0, &spans, Work::default()).unwrap();
        assert_eq!(t.unattributed_ns, 50);
    }

    #[test]
    fn double_counting_fails() {
        let overlapping = [
            span(BENCH_REQUEST, 0, 100, None),
            span("parse", 10, 50, Some(0)),
            span("lex", 40, 30, Some(0)),
        ];
        assert!(self_times(&overlapping).is_err());
        let mut t = Tally::default();
        let fine = [
            span(BENCH_REQUEST, 0, 100, None),
            span("parse", 0, 100, Some(0)),
        ];
        assert!(
            t.add_request(50, 0, &fine, Work::default()).is_err(),
            "sum > wall"
        );
        assert!(
            self_times(&[span("mystery", 0, 1, None)]).is_err(),
            "unmapped span"
        );
    }

    #[test]
    fn chrome_parents_follow_containment() {
        let doc = maya::core::json::parse_json(
            r#"{"traceEvents": [
                {"name": "request", "ts": 0.000, "dur": 10.000, "tid": 1},
                {"name": "parse", "ts": 1.000, "dur": 2.000, "tid": 1},
                {"name": "dispatch", "ts": 1.500, "dur": 0.500, "tid": 1},
                {"name": "interp", "ts": 3.000, "dur": 5.000, "tid": 1}
            ]}"#,
        )
        .unwrap();
        let spans = spans_of_chrome_trace(&doc).unwrap();
        let parents: Vec<Option<usize>> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(1), Some(0)]);
        assert_eq!(self_times(&spans).unwrap()["session.self_ms"], 3000);
    }
}
