//! The cache metrics registry: uniform hit/miss/size/eviction gauges for
//! every memo in the pipeline.
//!
//! The compiler's fast paths are all caches — the LALR table memo, the
//! session force cache (lazy bodies, whole units, class bodies), the
//! shared lowered-body store, and the dispatch candidate memo. Each
//! already bumps its own [`crate::Counter`]s, but those are scattered and
//! asymmetric (several caches count hits only). This registry gives every
//! cache the same four gauges, updated *at the cache itself* (get/insert),
//! so `--stats` and the `mayad` `stats` command can render one uniform
//! table.
//!
//! Unlike session counters, the registry is **cumulative per thread** and
//! needs no active session: a long-lived server reports its lifetime cache
//! behaviour, while a [`crate::Report`] carries the delta between session
//! start and finish (sizes are absolute, not deltas). Every memo that lives
//! across requests reports its removals as `evictions`: the session memos
//! through [`GenMemo`] rotations, the capped memos when they clear, and the
//! persistent artifact store's size-capped GC (`store_*` rows).

use std::borrow::Borrow;
use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::Hash;

/// Every instrumented cache.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CacheId {
    /// The thread-local LALR table memo (in-process tier; disk hits count
    /// here too — both answer without building tables).
    LalrMemo,
    /// The session force cache's pure lazy-body parse memo.
    ForceCache,
    /// The session force cache's whole-file compilation-unit memo.
    UnitCache,
    /// The session force cache's class-body member-list memo.
    ClassBodyCache,
    /// The session force cache's memo of members checked clean.
    CheckCache,
    /// The session-shared lowered-body store.
    LowerStore,
    /// The dispatch `(production, signature) → ordered candidates` memo.
    DispatchMemo,
    /// The process-global lexed-tree share (compile-service worker pools;
    /// content-hash keyed `SendTree` results reused across threads).
    LexShare,
    /// Persistent artifact store: LALR tables (`--cache-dir`).
    StoreTables,
    /// Persistent artifact store: compiled-request outcomes (the
    /// source-closure-keyed extension artifacts).
    StoreOutcome,
}

impl CacheId {
    /// Every cache, in report order.
    pub const ALL: [CacheId; 10] = [
        CacheId::LalrMemo,
        CacheId::ForceCache,
        CacheId::UnitCache,
        CacheId::ClassBodyCache,
        CacheId::CheckCache,
        CacheId::LowerStore,
        CacheId::DispatchMemo,
        CacheId::LexShare,
        CacheId::StoreTables,
        CacheId::StoreOutcome,
    ];

    /// Stable snake_case name (the JSON key).
    pub fn name(self) -> &'static str {
        match self {
            CacheId::LalrMemo => "lalr_memo",
            CacheId::ForceCache => "force_cache",
            CacheId::UnitCache => "unit_cache",
            CacheId::ClassBodyCache => "class_body_cache",
            CacheId::CheckCache => "check_cache",
            CacheId::LowerStore => "lower_store",
            CacheId::DispatchMemo => "dispatch_memo",
            CacheId::LexShare => "lex_share",
            CacheId::StoreTables => "store_tables",
            CacheId::StoreOutcome => "store_outcome",
        }
    }

    /// True for caches with one instance per process, which every thread
    /// sees whole (the lex share and the on-disk store); the others are
    /// per thread, so a worker pool's total is the sum of its workers'.
    pub fn process_wide(self) -> bool {
        matches!(
            self,
            CacheId::LexShare | CacheId::StoreTables | CacheId::StoreOutcome
        )
    }

    fn idx(self) -> usize {
        CacheId::ALL
            .iter()
            .position(|c| *c == self)
            .expect("cache listed in ALL")
    }
}

/// Number of instrumented caches.
pub const N_CACHES: usize = CacheId::ALL.len();

/// One cache's gauges. `hits`/`misses`/`evictions` are monotonic;
/// `size` is the current entry count (a gauge, set on insert).
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub size: u64,
    pub evictions: u64,
}

impl CacheStats {
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

thread_local! {
    static CACHES: RefCell<[CacheStats; N_CACHES]> =
        const { RefCell::new([CacheStats { hits: 0, misses: 0, size: 0, evictions: 0 }; N_CACHES]) };
}

/// Records a cache hit.
#[inline]
pub fn cache_hit(c: CacheId) {
    CACHES.with(|s| s.borrow_mut()[c.idx()].hits += 1);
}

/// Records a cache miss.
#[inline]
pub fn cache_miss(c: CacheId) {
    CACHES.with(|s| s.borrow_mut()[c.idx()].misses += 1);
}

/// Records an eviction.
#[inline]
pub fn cache_eviction(c: CacheId) {
    cache_evictions(c, 1);
}

/// Records `n` evictions at once.
#[inline]
fn cache_evictions(c: CacheId, n: usize) {
    CACHES.with(|s| s.borrow_mut()[c.idx()].evictions += n as u64);
}

/// Sets a cache's current entry count.
#[inline]
pub fn cache_sized(c: CacheId, entries: usize) {
    CACHES.with(|s| s.borrow_mut()[c.idx()].size = entries as u64);
}

/// This thread's cumulative gauges for one cache.
pub fn cache_stats(c: CacheId) -> CacheStats {
    CACHES.with(|s| s.borrow()[c.idx()])
}

/// This thread's cumulative gauges for every cache, in [`CacheId::ALL`]
/// order.
pub fn cache_snapshot() -> [CacheStats; N_CACHES] {
    CACHES.with(|s| *s.borrow())
}

/// A memo bounded by what recent requests used, with its gauges built in.
///
/// Every entry carries the generation that last touched it. Inserts,
/// hits and [`GenMemo::touch`] stamp an entry with the current
/// generation in place, so the entries stamped current are exactly those
/// touched since the last rotation (the young ones), and every other
/// entry was touched in the interval before (the old ones). At a request
/// boundary ([`GenMemo::end_request`]) the memo rotates when the young
/// entries outnumber the old: the old ones — entries no request touched
/// since the last rotation — are dropped and counted as evictions, and a
/// new generation begins.
///
/// After every boundary the memo holds at most twice the entries touched
/// between the last two rotations, so a long edit stream keeps the live
/// entries and drops the ones its edits superseded. Requests that share
/// a memo share that bound: one whose working set outgrows the old
/// generation rotates out the entries another has not touched since.
pub struct GenMemo<K, V> {
    id: CacheId,
    map: HashMap<K, (V, u64)>,
    generation: u64,
    /// Entries stamped with the current generation.
    young: usize,
}

impl<K: Hash + Eq, V: Clone> GenMemo<K, V> {
    /// An empty memo reporting as `id`.
    pub fn new(id: CacheId) -> GenMemo<K, V> {
        GenMemo {
            id,
            map: HashMap::new(),
            generation: 0,
            young: 0,
        }
    }

    /// Stamps the entry for `key` with the current generation, returning
    /// it.
    fn stamp<Q>(&mut self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let (value, stamp) = self.map.get_mut(key)?;
        if *stamp != self.generation {
            *stamp = self.generation;
            self.young += 1;
        }
        Some(value)
    }

    /// Looks `key` up, recording a hit or a miss.
    pub fn get<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let hit = self.stamp(key).cloned();
        if hit.is_some() {
            cache_hit(self.id);
        } else {
            cache_miss(self.id);
        }
        hit
    }

    /// Keeps the entry for `key` alive as a hit would, without recording
    /// one: for an entry a caller stands for without reading it. Returns
    /// whether the entry is present.
    pub fn touch<Q>(&mut self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.stamp(key).is_some()
    }

    /// Records an entry in the current generation.
    pub fn insert(&mut self, key: K, value: V) {
        match self.map.insert(key, (value, self.generation)) {
            Some((_, stamp)) if stamp == self.generation => {}
            _ => self.young += 1,
        }
        cache_sized(self.id, self.len());
    }

    /// Ends one request's use of the memo, rotating the generations when
    /// the young entries outnumber the old. Returns the number of entries
    /// evicted.
    pub fn end_request(&mut self) -> usize {
        if self.young <= self.map.len() - self.young {
            return 0;
        }
        let before = self.map.len();
        let current = self.generation;
        self.map.retain(|_, (_, stamp)| *stamp == current);
        let evicted = before - self.map.len();
        self.generation += 1;
        self.young = 0;
        cache_evictions(self.id, evicted);
        cache_sized(self.id, self.len());
        evicted
    }

    /// Entries held in both generations.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is memoised.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The delta `now − base` for the monotonic gauges; sizes stay absolute
/// (a session reports the cache's current size, not its growth).
pub(crate) fn cache_delta(
    now: &[CacheStats; N_CACHES],
    base: &[CacheStats; N_CACHES],
) -> [CacheStats; N_CACHES] {
    let mut out = *now;
    for (o, b) in out.iter_mut().zip(base) {
        o.hits = o.hits.saturating_sub(b.hits);
        o.misses = o.misses.saturating_sub(b.misses);
        o.evictions = o.evictions.saturating_sub(b.evictions);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_accumulates_per_thread() {
        // Run on a private thread so parallel tests cannot interleave.
        std::thread::spawn(|| {
            cache_hit(CacheId::LalrMemo);
            cache_hit(CacheId::LalrMemo);
            cache_miss(CacheId::LalrMemo);
            cache_sized(CacheId::LalrMemo, 7);
            let s = cache_stats(CacheId::LalrMemo);
            assert_eq!((s.hits, s.misses, s.size, s.evictions), (2, 1, 7, 0));
            assert!((s.hit_ratio() - 2.0 / 3.0).abs() < 1e-9);
            assert_eq!(cache_stats(CacheId::DispatchMemo), CacheStats::default());
        })
        .join()
        .unwrap();
    }

    #[test]
    fn gen_memo_keeps_what_recent_requests_touched() {
        std::thread::spawn(|| {
            let mut m: GenMemo<u32, u32> = GenMemo::new(CacheId::UnitCache);
            // Request 1 inserts 0..4: the young generation outgrows the
            // empty old one and rotates, evicting nothing.
            for k in 0..4 {
                assert_eq!(m.get(&k), None);
                m.insert(k, k * 10);
            }
            assert_eq!(m.end_request(), 0);
            // Request 2 touches 1..4 and adds 4: entry 0 was not used for
            // a whole interval and goes at the boundary.
            for k in 1..4 {
                assert_eq!(m.get(&k), Some(k * 10));
            }
            m.insert(4, 40);
            assert_eq!(m.end_request(), 1);
            assert_eq!(m.len(), 4);
            assert_eq!(m.get(&0), None);
            let s = cache_stats(CacheId::UnitCache);
            assert_eq!((s.hits, s.misses, s.size, s.evictions), (3, 5, 4, 1));
        })
        .join()
        .unwrap();
    }

    #[test]
    fn gen_memo_touch_keeps_an_entry_without_a_hit() {
        std::thread::spawn(|| {
            let mut m: GenMemo<u32, u32> = GenMemo::new(CacheId::CheckCache);
            for k in 0..4 {
                m.insert(k, k);
            }
            assert_eq!(m.end_request(), 0);
            // Entry 0 is only touched, entry 1 not at all; 4 and 5 grow the
            // young generation past the old one.
            assert!(m.touch(&0));
            assert!(!m.touch(&9));
            for k in [2, 3] {
                assert_eq!(m.get(&k), Some(k));
            }
            m.insert(4, 4);
            m.insert(5, 5);
            assert_eq!(m.end_request(), 1);
            assert_eq!(m.get(&0), Some(0));
            assert_eq!(m.get(&1), None);
            let s = cache_stats(CacheId::CheckCache);
            assert_eq!((s.hits, s.misses, s.size, s.evictions), (3, 1, 5, 1));
        })
        .join()
        .unwrap();
    }

    /// Runs `keys` through `m` as one request, inserting on a miss.
    /// Returns the number of misses.
    fn request(m: &mut GenMemo<u32, u32>, keys: impl Iterator<Item = u32>) -> usize {
        let mut misses = 0;
        for k in keys {
            if m.get(&k).is_none() {
                misses += 1;
                m.insert(k, k);
            }
        }
        m.end_request();
        misses
    }

    #[test]
    fn gen_memo_stays_bounded_as_clients_come_and_go() {
        std::thread::spawn(|| {
            // Fifty clients with ten entries each; client c sends requests
            // 4c..4c+8, so two are active at a time and each leaves for
            // good. The memo holds the active ones' entries, never more
            // than twice that, and each client misses only on its first
            // request.
            let mut m: GenMemo<u32, u32> = GenMemo::new(CacheId::ForceCache);
            let mut misses = 0;
            for r in 0..200u32 {
                let active: Vec<u32> = (0..50)
                    .filter(|c| (4 * c..4 * c + 8).contains(&r))
                    .collect();
                let c = active[r as usize % active.len()];
                misses += request(&mut m, c * 100..c * 100 + 10);
                assert!(m.len() <= 2 * 20, "request {r}: {} entries", m.len());
            }
            assert_eq!(misses, 50 * 10);
            assert_eq!(cache_stats(CacheId::ForceCache).evictions, 48 * 10);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn gen_memo_requesters_share_one_bound() {
        std::thread::spawn(|| {
            // Client A (five entries) sends two requests for each of client
            // B's (three entries). A's second request finds its entries in
            // the young generation, outgrowing the old one, which then
            // holds only B's: the rotation drops B's working set every
            // round. The memo stays within its bound; B pays the misses.
            let mut m: GenMemo<u32, u32> = GenMemo::new(CacheId::ClassBodyCache);
            for round in 0..10 {
                let a = request(&mut m, 0..5) + request(&mut m, 0..5);
                let b = request(&mut m, 10..13);
                assert!(m.len() <= 2 * 8);
                if round > 0 {
                    assert_eq!((a, b), (0, 3), "round {round}");
                }
            }
        })
        .join()
        .unwrap();
    }

    #[test]
    fn delta_subtracts_monotonic_keeps_size() {
        let base = [CacheStats { hits: 2, misses: 1, size: 3, evictions: 0 }; N_CACHES];
        let mut now = base;
        now[0].hits = 10;
        now[0].size = 9;
        let d = cache_delta(&now, &base);
        assert_eq!(d[0], CacheStats { hits: 8, misses: 0, size: 9, evictions: 0 });
        assert_eq!(d[1], CacheStats { hits: 0, misses: 0, size: 3, evictions: 0 });
    }
}
