//! The content-addressed persistent artifact store (`--cache-dir`).
//!
//! Cold starts repeat work whose inputs rarely change between runs: LALR
//! table construction for already-seen grammars, and — when nothing at all
//! changed — the entire compile. This module persists both artifacts on
//! disk, keyed purely by content hash, so a fresh process (or a restarted
//! `mayad`) starts warm.
//!
//! **Soundness model.** Every key is a content hash of everything the
//! artifact is a function of — bytes, spans, options, format versions —
//! and every entry carries the `BUILD_ID` of the compiler that wrote it,
//! so an equal key under the same build means the cached value is
//! interchangeable with a recomputation. Nothing environment- or
//! process-dependent is stored: table payloads are index-based. The two
//! kinds:
//!
//! * [`Kind::Tables`] — LALR tables keyed by the grammar content hash;
//! * [`Kind::Outcome`] — whole-request compile outcomes (the compiled
//!   extension closure: stdout, stderr, exit status) keyed by the
//!   source-closure hash — every file's span-inclusive token-stream hash
//!   plus the full request options, so imports are folded in.
//!
//! Earlier builds also stored lexed token trees (`.lex`) and lowered
//! bodies (`.body`). Neither paid for its I/O, so nothing loads them any
//! more; `gc` and `clear` delete them.
//!
//! **Robustness.** Every entry carries a magic, a format version, the
//! build id, its own key, and a trailing checksum; a mismatch on any of
//! them is a silent miss (the entry is deleted and rebuilt), so entries
//! left by another build are replaced on their first lookup. Writes go to
//! a unique temp file in the store directory and are `rename`d into place,
//! so readers never observe a torn entry and concurrent writers of the
//! same key are idempotent. Eviction is LRU by file mtime (loads touch
//! their entry): `mayac cache gc` evicts to the configured cap, and saves
//! trigger the same sweep automatically once the store grows past it.

use maya_telemetry::CacheId;
use std::cell::RefCell;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::SystemTime;

use maya_lexer::Fnv2;

/// Bumped whenever the container layout changes. Payload layers carry
/// their own versions (table and outcome payloads), so this only guards
/// the envelope itself.
const STORE_FORMAT_VERSION: u32 = 2;

/// The compiler build: an FNV-1a hash of the workspace's `.rs` sources,
/// computed by `build.rs` over their sorted workspace-relative paths and
/// contents. Stamped into every entry header; an entry from another build
/// is a miss.
const BUILD_ID: u64 = include!(concat!(env!("OUT_DIR"), "/build_id.rs"));

/// Container magic: identifies store entries regardless of extension.
const MAGIC: &[u8; 8] = b"MAYASTOR";

/// Bumped whenever the outcome payload layout or key derivation changes.
const OUTCOME_PAYLOAD_VERSION: u32 = 3;

/// Extensions of the kinds earlier builds stored: lexed token trees and
/// lowered bodies. Nothing loads them; `gc` and `clear` delete them.
const RETIRED_EXTS: [&str; 2] = ["lex", "body"];

/// The artifact kinds the store persists. Each kind maps to a file
/// extension (so `stats`/`gc` can attribute entries without opening them)
/// and a telemetry cache id (`store_*` hit/miss/eviction gauges).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// LALR tables keyed by grammar content hash.
    Tables,
    /// Whole-request compile outcomes keyed by the source-closure hash.
    Outcome,
}

impl Kind {
    pub const ALL: [Kind; 2] = [Kind::Tables, Kind::Outcome];

    /// File extension for entries of this kind.
    pub fn ext(self) -> &'static str {
        match self {
            Kind::Tables => "tbl",
            Kind::Outcome => "out",
        }
    }

    /// Human label used by `mayac cache stats`.
    pub fn label(self) -> &'static str {
        match self {
            Kind::Tables => "tables",
            Kind::Outcome => "outcome",
        }
    }

    fn cache_id(self) -> CacheId {
        match self {
            Kind::Tables => CacheId::StoreTables,
            Kind::Outcome => CacheId::StoreOutcome,
        }
    }

    /// Container tag byte, and the kind's index in [`Kind::ALL`].
    fn tag(self) -> u8 {
        match self {
            Kind::Tables => 0,
            Kind::Outcome => 1,
        }
    }

    fn from_ext(ext: &str) -> Option<Kind> {
        Kind::ALL.iter().copied().find(|k| k.ext() == ext)
    }
}

/// Per-kind usage as reported by [`ArtifactStore::stats`].
#[derive(Clone, Copy, Default, Debug)]
pub struct KindStats {
    pub entries: u64,
    pub bytes: u64,
}

/// A handle to one on-disk store directory. Cheap to clone via `Arc`;
/// safe to share across the `mayad` worker pool (all filesystem-level
/// operations are atomic-rename based).
pub struct ArtifactStore {
    dir: PathBuf,
    /// Automatic-GC threshold; `None` disables automatic sweeps.
    max_bytes: Option<u64>,
    /// Bytes written since open plus the size found at open — an estimate
    /// that triggers the (exact, directory-scanning) automatic GC.
    approx_bytes: AtomicU64,
    /// Temp-file uniquifier within this handle.
    tmp_seq: AtomicU64,
}

impl ArtifactStore {
    /// Opens (creating if needed) the store at `dir`. `max_mb` caps the
    /// store size: saves that push past it trigger an LRU sweep.
    pub fn open(dir: impl Into<PathBuf>, max_mb: Option<u64>) -> io::Result<Arc<ArtifactStore>> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let store = ArtifactStore {
            dir,
            max_bytes: max_mb.map(|mb| mb.saturating_mul(1024 * 1024)),
            approx_bytes: AtomicU64::new(0),
            tmp_seq: AtomicU64::new(0),
        };
        let used: u64 = store.entries().iter().map(|e| e.bytes).sum();
        store.approx_bytes.store(used, Ordering::Relaxed);
        Ok(Arc::new(store))
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_of(&self, kind: Kind, key: u128) -> PathBuf {
        self.dir.join(format!("{key:032x}.{}", kind.ext()))
    }

    /// Loads the payload stored under (`kind`, `key`). Any mismatch —
    /// missing file, torn write, stale version, checksum failure, foreign
    /// content — is a miss; corrupt entries are deleted so the follow-up
    /// save rebuilds them. A hit touches the entry's mtime (the GC's LRU
    /// clock).
    pub fn load(&self, kind: Kind, key: u128) -> Option<Vec<u8>> {
        let path = self.path_of(kind, key);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(_) => {
                maya_telemetry::cache_miss(kind.cache_id());
                return None;
            }
        };
        match decode_entry(&bytes, kind, key) {
            Some(payload) => {
                maya_telemetry::cache_hit(kind.cache_id());
                let _ = fs::File::options()
                    .write(true)
                    .open(&path)
                    .and_then(|f| f.set_modified(SystemTime::now()));
                Some(payload.to_vec())
            }
            None => {
                // Corrupt or stale: silently rebuild.
                maya_telemetry::cache_miss(kind.cache_id());
                let _ = fs::remove_file(&path);
                None
            }
        }
    }

    /// Saves `payload` under (`kind`, `key`) via temp-file + rename.
    /// Content-addressed: an existing entry is left in place (equal key
    /// implies an interchangeable value). I/O errors are swallowed — the
    /// store is an accelerator, never a correctness dependency.
    pub fn save(&self, kind: Kind, key: u128, payload: &[u8]) {
        let path = self.path_of(kind, key);
        if path.exists() {
            return;
        }
        let bytes = encode_entry(kind, key, payload);
        let tmp = self.dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            self.tmp_seq.fetch_add(1, Ordering::Relaxed)
        ));
        if fs::write(&tmp, &bytes).is_err() {
            let _ = fs::remove_file(&tmp);
            return;
        }
        if fs::rename(&tmp, &path).is_err() {
            let _ = fs::remove_file(&tmp);
            return;
        }
        let used = self
            .approx_bytes
            .fetch_add(bytes.len() as u64, Ordering::Relaxed)
            + bytes.len() as u64;
        if let Some(cap) = self.max_bytes {
            if used > cap {
                self.gc(cap);
            }
        }
    }

    /// Every store entry in the directory (temp files and foreign files
    /// excluded), with its kind (`None` for a retired kind), size, and
    /// mtime.
    fn entries(&self) -> Vec<Entry> {
        let mut out = Vec::new();
        let Ok(rd) = fs::read_dir(&self.dir) else {
            return out;
        };
        for item in rd.flatten() {
            let path = item.path();
            let Some(ext) = path.extension().and_then(|e| e.to_str()) else {
                continue;
            };
            let kind = Kind::from_ext(ext);
            if kind.is_none() && !RETIRED_EXTS.contains(&ext) {
                continue;
            }
            let Ok(meta) = item.metadata() else {
                continue;
            };
            if !meta.is_file() {
                continue;
            }
            out.push(Entry {
                path,
                kind,
                bytes: meta.len(),
                mtime: meta.modified().unwrap_or(SystemTime::UNIX_EPOCH),
            });
        }
        out
    }

    /// Per-kind entry counts and byte totals (exact, from a directory
    /// scan), in [`Kind::ALL`] order. Retired entries are not counted.
    pub fn stats(&self) -> [(Kind, KindStats); 2] {
        let mut out = Kind::ALL.map(|k| (k, KindStats::default()));
        for e in self.entries() {
            if let Some(kind) = e.kind {
                let slot = &mut out[usize::from(kind.tag())].1;
                slot.entries += 1;
                slot.bytes += e.bytes;
            }
        }
        out
    }

    /// Deletes every retired entry, then evicts least-recently-used
    /// entries (oldest mtime first) until the store fits in `cap_bytes`.
    /// Returns (entries removed, bytes freed).
    pub fn gc(&self, cap_bytes: u64) -> (u64, u64) {
        let mut entries = self.entries();
        let mut total: u64 = entries.iter().map(|e| e.bytes).sum();
        entries.sort_by_key(|e| (e.kind.is_some(), e.mtime));
        let (mut evicted, mut freed) = (0u64, 0u64);
        for e in &entries {
            if total <= cap_bytes && e.kind.is_some() {
                break;
            }
            if fs::remove_file(&e.path).is_ok() {
                if let Some(kind) = e.kind {
                    maya_telemetry::cache_eviction(kind.cache_id());
                }
                total = total.saturating_sub(e.bytes);
                evicted += 1;
                freed += e.bytes;
            }
        }
        self.approx_bytes.store(total, Ordering::Relaxed);
        (evicted, freed)
    }

    /// Deletes every entry, retired ones included. Returns the number
    /// removed.
    pub fn clear(&self) -> u64 {
        let mut removed = 0;
        for e in self.entries() {
            if fs::remove_file(&e.path).is_ok() {
                removed += 1;
            }
        }
        self.approx_bytes.store(0, Ordering::Relaxed);
        removed
    }
}

struct Entry {
    path: PathBuf,
    kind: Option<Kind>,
    bytes: u64,
    mtime: SystemTime,
}

// ---- the container codec -----------------------------------------------------
//
// entry := MAGIC version:u32 build:u64 kind:u8 key:u128 payload checksum:u64
//
// The checksum (single-stream FNV-1a over everything before it) rejects
// bit flips and truncation; the key echo rejects renamed files; the
// version rejects entries written by another layout and the build id
// entries written by another compiler build.

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Everything an entry of (`kind`, `key`) written by this build holds
/// before its payload.
fn header(kind: Kind, key: u128) -> Vec<u8> {
    let mut buf = Vec::with_capacity(MAGIC.len() + 29);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&STORE_FORMAT_VERSION.to_le_bytes());
    buf.extend_from_slice(&BUILD_ID.to_le_bytes());
    buf.push(kind.tag());
    buf.extend_from_slice(&key.to_le_bytes());
    buf
}

fn encode_entry(kind: Kind, key: u128, payload: &[u8]) -> Vec<u8> {
    let mut buf = header(kind, key);
    buf.extend_from_slice(payload);
    let sum = fnv64(&buf);
    buf.extend_from_slice(&sum.to_le_bytes());
    buf
}

fn decode_entry(bytes: &[u8], kind: Kind, key: u128) -> Option<&[u8]> {
    let (body, sum) = bytes.split_at(bytes.len().checked_sub(8)?);
    if fnv64(body) != u64::from_le_bytes(sum.try_into().ok()?) {
        return None;
    }
    body.strip_prefix(header(kind, key).as_slice())
}

// ---- the thread-active store -------------------------------------------------
//
// Sessions and the grammar/interp disk hooks read the store through a
// thread-local handle: `mayac` installs it once on the main thread,
// `mayad` installs it on every pool worker. No handle installed (the
// default) means every probe short-circuits with zero filesystem I/O.

thread_local! {
    static ACTIVE: RefCell<Option<Arc<ArtifactStore>>> = const { RefCell::new(None) };
}

struct TableAdapter(Arc<ArtifactStore>);

impl maya_grammar::TableDisk for TableAdapter {
    fn load(&self, hash: u128) -> Option<Vec<u8>> {
        self.0.load(Kind::Tables, hash)
    }

    fn save(&self, hash: u128, payload: &[u8]) {
        self.0.save(Kind::Tables, hash, payload);
    }
}

/// Installs `store` as this thread's artifact store — wiring the grammar
/// crate's table-disk hook to it — or uninstalls it with `None`.
pub fn install_thread(store: Option<Arc<ArtifactStore>>) {
    ACTIVE.with(|a| a.borrow_mut().clone_from(&store));
    maya_grammar::set_table_disk(
        store.map(|s| Rc::new(TableAdapter(s)) as Rc<dyn maya_grammar::TableDisk>),
    );
}

/// The store installed on this thread, if any.
pub fn active() -> Option<Arc<ArtifactStore>> {
    ACTIVE.with(|a| a.borrow().clone())
}

// ---- payload codecs ----------------------------------------------------------
//
// Minimal little-endian helpers; every reader path is bounds-checked and
// returns `Option` so malformed payloads decode as misses, never panics.

struct Buf {
    b: Vec<u8>,
}

impl Buf {
    fn new() -> Buf {
        Buf { b: Vec::new() }
    }

    fn u8(&mut self, x: u8) {
        self.b.push(x);
    }

    fn u32(&mut self, x: u32) {
        self.b.extend_from_slice(&x.to_le_bytes());
    }

    fn str(&mut self, s: &str) -> Option<()> {
        self.u32(u32::try_from(s.len()).ok()?);
        self.b.extend_from_slice(s.as_bytes());
        Some(())
    }
}

struct Cur<'a> {
    b: &'a [u8],
    at: usize,
}

impl<'a> Cur<'a> {
    fn new(b: &'a [u8]) -> Cur<'a> {
        Cur { b, at: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.at.checked_add(n)?;
        let s = self.b.get(self.at..end)?;
        self.at = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn len(&mut self) -> Option<usize> {
        let n = self.u32()? as usize;
        if n > self.b.len() {
            return None; // bounds any allocation by the payload size
        }
        Some(n)
    }

    fn str(&mut self) -> Option<&'a str> {
        let n = self.len()?;
        std::str::from_utf8(self.take(n)?).ok()
    }

    fn done(&self) -> bool {
        self.at == self.b.len()
    }
}

// ---- outcome artifacts -------------------------------------------------------

/// A hasher pre-seeded for outcome keys; `Session` folds the source
/// closure and request options into it.
pub(crate) fn outcome_key_hasher() -> Fnv2 {
    let mut h = Fnv2::new();
    h.str("store-outcome");
    h.u32(OUTCOME_PAYLOAD_VERSION);
    h
}

/// Encodes a compile outcome's replayable fields.
pub(crate) fn encode_outcome_payload(stdout: &str, stderr: &str, success: bool) -> Option<Vec<u8>> {
    let mut w = Buf::new();
    w.u32(OUTCOME_PAYLOAD_VERSION);
    w.u8(u8::from(success));
    w.str(stdout)?;
    w.str(stderr)?;
    Some(w.b)
}

/// Decodes (stdout, stderr, success); `None` = corrupt or stale.
pub(crate) fn decode_outcome_payload(bytes: &[u8]) -> Option<(String, String, bool)> {
    let mut r = Cur::new(bytes);
    if r.u32()? != OUTCOME_PAYLOAD_VERSION {
        return None;
    }
    let success = match r.u8()? {
        0 => false,
        1 => true,
        _ => return None,
    };
    let stdout = r.str()?.to_owned();
    let stderr = r.str()?.to_owned();
    if !r.done() {
        return None;
    }
    Some((stdout, stderr, success))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "maya-store-unit-{}-{tag}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn container_round_trip_and_corruption_tolerance() {
        let dir = tmp_dir("container");
        let store = ArtifactStore::open(&dir, None).unwrap();
        store.save(Kind::Tables, 42, b"payload");
        assert_eq!(store.load(Kind::Tables, 42).as_deref(), Some(&b"payload"[..]));
        // Wrong kind and wrong key are misses, not mixups.
        assert_eq!(store.load(Kind::Outcome, 42), None);
        assert_eq!(store.load(Kind::Tables, 43), None);

        // A bit flip is silently dropped and rebuilt.
        let path = store.path_of(Kind::Tables, 42);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        assert_eq!(store.load(Kind::Tables, 42), None);
        assert!(!path.exists(), "corrupt entry deleted");
        store.save(Kind::Tables, 42, b"payload");
        assert!(store.load(Kind::Tables, 42).is_some());

        // Truncation is a miss too.
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        assert_eq!(store.load(Kind::Tables, 42), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_evicts_oldest_until_under_cap() {
        let dir = tmp_dir("gc");
        let store = ArtifactStore::open(&dir, None).unwrap();
        for key in 0u128..4 {
            store.save(Kind::Outcome, key, &[0u8; 100]);
            let when = SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(1000 + key as u64);
            fs::File::options()
                .write(true)
                .open(store.path_of(Kind::Outcome, key))
                .unwrap()
                .set_modified(when)
                .unwrap();
        }
        let per = fs::metadata(store.path_of(Kind::Outcome, 0)).unwrap().len();
        let (evicted, freed) = store.gc(per * 2);
        assert_eq!(evicted, 2);
        assert_eq!(freed, per * 2);
        // Oldest mtimes went first.
        assert_eq!(store.load(Kind::Outcome, 0), None);
        assert_eq!(store.load(Kind::Outcome, 1), None);
        assert!(store.load(Kind::Outcome, 2).is_some());
        assert!(store.load(Kind::Outcome, 3).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_count_per_kind_and_clear_empties() {
        let dir = tmp_dir("stats");
        let store = ArtifactStore::open(&dir, None).unwrap();
        store.save(Kind::Tables, 1, b"t");
        store.save(Kind::Outcome, 2, b"o");
        store.save(Kind::Outcome, 3, b"o2");
        let stats = store.stats();
        let of = |k: Kind| stats.iter().find(|(q, _)| *q == k).unwrap().1;
        assert_eq!(of(Kind::Tables).entries, 1);
        assert_eq!(of(Kind::Outcome).entries, 2);
        assert!(of(Kind::Outcome).bytes > 0);
        assert_eq!(store.clear(), 3);
        assert!(store.stats().iter().all(|(_, s)| s.entries == 0));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn entries_from_another_build_are_deleted_misses() {
        let dir = tmp_dir("build");
        let store = ArtifactStore::open(&dir, None).unwrap();
        store.save(Kind::Outcome, 7, b"payload");
        let path = store.path_of(Kind::Outcome, 7);
        let mut bytes = fs::read(&path).unwrap();
        let build = MAGIC.len() + 4;
        let other = BUILD_ID ^ 1;
        bytes[build..build + 8].copy_from_slice(&other.to_le_bytes());
        let n = bytes.len() - 8;
        let sum = fnv64(&bytes[..n]);
        bytes[n..].copy_from_slice(&sum.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        assert_eq!(store.load(Kind::Outcome, 7), None);
        assert!(!path.exists(), "an entry from another build is deleted");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_deletes_retired_kinds_whatever_the_cap() {
        let dir = tmp_dir("retired");
        let store = ArtifactStore::open(&dir, None).unwrap();
        store.save(Kind::Tables, 1, b"t");
        for ext in RETIRED_EXTS {
            fs::write(dir.join(format!("{:032x}.{ext}", 2)), b"old").unwrap();
        }
        assert_eq!(store.gc(u64::MAX), (2, 6));
        assert!(store.load(Kind::Tables, 1).is_some(), "live entries stay");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn outcome_payload_round_trips() {
        let bytes = encode_outcome_payload("out\n", "mayac: err\n", false).unwrap();
        let (stdout, stderr, success) = decode_outcome_payload(&bytes).unwrap();
        assert_eq!(stdout, "out\n");
        assert_eq!(stderr, "mayac: err\n");
        assert!(!success);
        let mut stale = bytes.clone();
        stale[0] ^= 0xff;
        assert!(decode_outcome_payload(&stale).is_none());
    }
}
