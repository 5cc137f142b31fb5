//! The artifact cache: an in-process memo layer, with a shared on-disk
//! artifact directory behind it for detail windows.
//!
//! One [`ArtifactCache`] serves a whole process. Lookups hit the memo
//! first (a mutexed map per artifact kind); detail windows then try
//! disk (`<store-dir>/artifacts/`) before recomputing — the disk layer
//! is what different processes (a `--resume`, a fleet of pool workers)
//! share. Traces and burst tables stay in the memo only (see the crate
//! docs for why). Every disk read is verified (schema, kind, key, length,
//! CRC) before use; failures quarantine the file and fall through to
//! recompute, so the cache can never change a result, only the time it
//! takes.
//!
//! Detail artifacts are written by a writer thread, so no simulating
//! thread waits on an fsync; [`ArtifactCache::flush`] (run by
//! `persist_session` and on drop) waits for the queued writes.
//!
//! Cache *failures* are warnings, not errors: a full disk or a
//! read-only artifact directory degrades the campaign to uncached,
//! it does not abort it.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;

use musa_apps::{generate, AppId, GenParams};
use musa_net::BurstTable;
use musa_obs::json::{from_slice, from_str, ToJson};
use musa_trace::AppTrace;

use crate::artifact::{
    artifact_file_name, quarantine, read_artifact, write_artifact, ArtifactKind, ArtifactRead,
    DetailArtifact, CACHE_WRITE_FAILPOINT,
};
use crate::fp::{trace_key, ArtifactKey};
use crate::integrity::{open_repairing, scan, OnCorrupt};

/// Name of the artifact directory under the campaign store directory.
pub const ARTIFACT_DIR: &str = "artifacts";

/// Per-process session tallies, appended under the artifact directory
/// so `dse cache stats` can attribute hits to the sequential and pool
/// paths after the processes are gone.
pub const SESSIONS_FILE: &str = "sessions.jsonl";

/// `MUSA_CACHE=0` disables the cache (the `--no-cache` flag sets it for
/// re-exec'd pool workers). Anything else — including unset — enables.
pub fn enabled_from_env() -> bool {
    std::env::var("MUSA_CACHE").map_or(true, |v| v != "0")
}

/// One process's cache activity, as persisted to [`SESSIONS_FILE`] and
/// aggregated by `dse cache stats`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SessionStats {
    /// Which pipeline wrote this line: `"sequential"` or
    /// `"pool-worker"`.
    pub label: String,
    /// Writer's process id (diagnostic only).
    pub pid: u32,
    /// Trace lookups served from memo or disk.
    pub trace_hits: u64,
    /// Trace lookups that had to generate.
    pub trace_misses: u64,
    /// Detail-window lookups served from memo or disk.
    pub detail_hits: u64,
    /// Detail-window lookups that had to simulate.
    pub detail_misses: u64,
    /// Burst-table lookups served from the memo.
    pub burst_hits: u64,
    /// Burst-table lookups that had to schedule the trace.
    pub burst_misses: u64,
    /// Artifacts quarantined after failing verification.
    pub quarantined: u64,
    /// Verified payload bytes read from disk.
    pub bytes_read: u64,
    /// Payload bytes written to disk.
    pub bytes_written: u64,
}

impl SessionStats {
    /// Total hits across kinds.
    pub fn hits(&self) -> u64 {
        self.trace_hits + self.detail_hits + self.burst_hits
    }

    /// Total misses across kinds.
    pub fn misses(&self) -> u64 {
        self.trace_misses + self.detail_misses + self.burst_misses
    }

    /// Fold another snapshot into this one (labels are kept by caller).
    pub fn absorb(&mut self, other: &SessionStats) {
        self.trace_hits += other.trace_hits;
        self.trace_misses += other.trace_misses;
        self.detail_hits += other.detail_hits;
        self.detail_misses += other.detail_misses;
        self.burst_hits += other.burst_hits;
        self.burst_misses += other.burst_misses;
        self.quarantined += other.quarantined;
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
    }

    /// Overall hit rate across kinds, `None` when nothing was looked
    /// up (a 0/0 session has no rate, not a 0% one).
    pub fn hit_rate(&self) -> Option<f64> {
        let lookups = self.hits() + self.misses();
        (lookups > 0).then(|| self.hits() as f64 / lookups as f64)
    }

    /// One-line human form for the end-of-run reuse report.
    pub fn report(&self) -> String {
        let rate = self
            .hit_rate()
            .map(|r| format!(" ({:.1}% hit rate)", r * 100.0))
            .unwrap_or_default();
        format!(
            "trace {}/{} · detail {}/{} · burst {}/{} hits/lookups{rate} · {} read, {} written{}",
            self.trace_hits,
            self.trace_hits + self.trace_misses,
            self.detail_hits,
            self.detail_hits + self.detail_misses,
            self.burst_hits,
            self.burst_hits + self.burst_misses,
            human_bytes(self.bytes_read),
            human_bytes(self.bytes_written),
            if self.quarantined > 0 {
                format!(" · {} quarantined", self.quarantined)
            } else {
                String::new()
            }
        )
    }
}

musa_obs::json_struct!(SessionStats {
    label,
    pid,
    trace_hits,
    trace_misses,
    detail_hits,
    detail_misses,
    burst_hits,
    burst_misses,
    quarantined,
    bytes_read,
    bytes_written,
});

/// Render a byte count with a binary-unit suffix.
pub fn human_bytes(n: u64) -> String {
    const UNITS: [&str; 4] = ["B", "KiB", "MiB", "GiB"];
    let mut v = n as f64;
    let mut unit = 0;
    while v >= 1024.0 && unit < UNITS.len() - 1 {
        v /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{n} B")
    } else {
        format!("{v:.1} {}", UNITS[unit])
    }
}

#[derive(Default)]
struct Counters {
    trace_hits: AtomicU64,
    trace_misses: AtomicU64,
    detail_hits: AtomicU64,
    detail_misses: AtomicU64,
    burst_hits: AtomicU64,
    burst_misses: AtomicU64,
    quarantined: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
}

/// The thread that writes detail artifacts, so a simulating thread
/// never waits on an fsync. Dropping `queue` lets it finish the writes
/// already queued and exit.
struct Writer {
    queue: mpsc::Sender<(ArtifactKey, String)>,
    thread: JoinHandle<()>,
}

/// The process-wide artifact cache. Cheap to share (`Arc`), safe to
/// hit from many simulation threads.
pub struct ArtifactCache {
    dir: PathBuf,
    traces: Mutex<HashMap<ArtifactKey, Arc<AppTrace>>>,
    details: Mutex<HashMap<ArtifactKey, DetailArtifact>>,
    bursts: Mutex<HashMap<ArtifactKey, Arc<BurstTable>>>,
    counters: Arc<Counters>,
    /// Started by the first [`Self::put_detail`], joined by
    /// [`Self::flush`].
    writer: Mutex<Option<Writer>>,
}

impl std::fmt::Debug for ArtifactCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArtifactCache")
            .field("dir", &self.dir)
            .finish_non_exhaustive()
    }
}

impl ArtifactCache {
    /// Open (creating if necessary) the artifact directory under
    /// `store_dir`.
    pub fn open(store_dir: &Path) -> io::Result<Arc<ArtifactCache>> {
        let dir = store_dir.join(ARTIFACT_DIR);
        std::fs::create_dir_all(&dir)?;
        Ok(Arc::new(ArtifactCache {
            dir,
            traces: Mutex::new(HashMap::new()),
            details: Mutex::new(HashMap::new()),
            bursts: Mutex::new(HashMap::new()),
            counters: Arc::default(),
            writer: Mutex::new(None),
        }))
    }

    /// The artifact directory this cache reads and writes.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The trace of `(app, gen)`: memo, else generate (memo only).
    /// Always returns the trace plus its key — the key seeds every
    /// detail and burst key downstream.
    pub fn trace(&self, app: AppId, gen: &GenParams) -> (Arc<AppTrace>, ArtifactKey) {
        let key = trace_key(app, gen);
        if let Some(t) = self.memo_get(&self.traces, key) {
            self.tally(ArtifactKind::Trace, true);
            return (t, key);
        }
        let t = {
            let _gen = musa_obs::span_app(musa_obs::phase::TRACE_GEN, app.label());
            Arc::new(generate(app, gen))
        };
        self.tally(ArtifactKind::Trace, false);
        self.memo_put(&self.traces, key, Arc::clone(&t));
        (t, key)
    }

    /// Look up a detailed-simulation window.
    pub fn detail(&self, key: ArtifactKey) -> Option<DetailArtifact> {
        if let Some(d) = self.memo_get(&self.details, key) {
            self.tally(ArtifactKind::Detail, true);
            return Some(d);
        }
        if let Some(payload) = self.disk_get(ArtifactKind::Detail, key) {
            match from_slice::<DetailArtifact>(&payload) {
                Ok(d) => {
                    self.memo_put(&self.details, key, d);
                    self.tally(ArtifactKind::Detail, true);
                    return Some(d);
                }
                Err(e) => self.quarantine_slot(ArtifactKind::Detail, key, &e),
            }
        }
        self.tally(ArtifactKind::Detail, false);
        None
    }

    /// Record a freshly computed detailed-simulation window: in the
    /// memo at once, on disk by the writer thread (see [`Self::flush`]).
    pub fn put_detail(&self, key: ArtifactKey, artifact: &DetailArtifact) {
        self.memo_put(&self.details, key, *artifact);
        let payload = artifact.to_json();
        let mut writer = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        let writer = writer.get_or_insert_with(|| {
            let (queue, jobs) = mpsc::channel::<(ArtifactKey, String)>();
            let dir = self.dir.clone();
            let counters = Arc::clone(&self.counters);
            let thread = std::thread::spawn(move || {
                for (key, payload) in jobs {
                    write_detail(&dir, &counters, key, payload.as_bytes());
                }
            });
            Writer { queue, thread }
        });
        // `flush` takes the writer out under this lock before dropping
        // its queue, so a send fails only if the writer panicked; a
        // lost write is only a future miss.
        let _ = writer.queue.send((key, payload));
    }

    /// Wait until every detail artifact put so far is on disk. Every
    /// process calls it (through [`Self::persist_session`] or drop)
    /// before it exits, so the next process finds the artifacts.
    pub fn flush(&self) {
        let writer = self.writer.lock().unwrap_or_else(|e| e.into_inner()).take();
        if let Some(Writer { queue, thread }) = writer {
            drop(queue);
            if thread.join().is_err() {
                musa_obs::warn(
                    "musa-cache",
                    "artifact writer panicked; queued artifacts may be missing",
                    &[("dir", self.dir.display().to_string().into())],
                );
            }
        }
    }

    /// Look up a trace's burst table at one core count (memo only).
    pub fn burst(&self, key: ArtifactKey) -> Option<Arc<BurstTable>> {
        let b = self.memo_get(&self.bursts, key);
        self.tally(ArtifactKind::Burst, b.is_some());
        b
    }

    /// Record a freshly built burst table (memo only).
    pub fn put_burst(&self, key: ArtifactKey, table: Arc<BurstTable>) {
        self.memo_put(&self.bursts, key, table);
    }

    /// Snapshot of this process's tallies (label left for the caller).
    pub fn stats(&self) -> SessionStats {
        let c = &self.counters;
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        SessionStats {
            label: String::new(),
            pid: std::process::id(),
            trace_hits: get(&c.trace_hits),
            trace_misses: get(&c.trace_misses),
            detail_hits: get(&c.detail_hits),
            detail_misses: get(&c.detail_misses),
            burst_hits: get(&c.burst_hits),
            burst_misses: get(&c.burst_misses),
            quarantined: get(&c.quarantined),
            bytes_read: get(&c.bytes_read),
            bytes_written: get(&c.bytes_written),
        }
    }

    /// Append this process's tallies (labelled with the pipeline that
    /// ran) to [`SESSIONS_FILE`] in the artifact directory, so hits
    /// from every process sharing the directory stay attributable
    /// after the fact. The ledger is a line log: the open repairs a
    /// crash-damaged tail (quarantining corrupt lines to the store's
    /// ledger) so the append cannot join onto an earlier line, then a
    /// single `O_APPEND` write lands the line. Losing it loses
    /// bookkeeping, never results.
    pub fn persist_session(&self, label: &str) {
        self.flush();
        let mut stats = self.stats();
        stats.label = label.to_string();
        let path = self.dir.join(SESSIONS_FILE);
        let store_dir = self.dir.parent().unwrap_or(&self.dir);
        let appended = open_repairing(
            &path,
            classify_session,
            OnCorrupt::Quarantine(store_dir),
            CACHE_WRITE_FAILPOINT,
        )
        .and_then(|(_, mut log)| {
            log.append(&stats.to_json());
            log.flush()
        });
        if let Err(e) = appended {
            musa_obs::warn(
                "musa-cache",
                "failed to persist session stats",
                &[
                    ("path", path.display().to_string().into()),
                    ("error", e.to_string().into()),
                ],
            );
        }
    }

    fn memo_get<V: Clone>(
        &self,
        memo: &Mutex<HashMap<ArtifactKey, V>>,
        key: ArtifactKey,
    ) -> Option<V> {
        memo.lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&key)
            .cloned()
    }

    fn memo_put<V>(&self, memo: &Mutex<HashMap<ArtifactKey, V>>, key: ArtifactKey, value: V) {
        memo.lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(key, value);
    }

    fn artifact_path(&self, kind: ArtifactKind, key: ArtifactKey) -> PathBuf {
        self.dir.join(artifact_file_name(kind, key))
    }

    /// Verified payload from disk, or `None` (quarantining en route if
    /// the file is corrupt).
    fn disk_get(&self, kind: ArtifactKind, key: ArtifactKey) -> Option<Vec<u8>> {
        let path = self.artifact_path(kind, key);
        match read_artifact(&path, kind, key) {
            ArtifactRead::Payload(p) => {
                self.counters
                    .bytes_read
                    .fetch_add(p.len() as u64, Ordering::Relaxed);
                musa_obs::counter_add("cache.bytes", p.len() as u64);
                Some(p)
            }
            ArtifactRead::Absent | ArtifactRead::Newer | ArtifactRead::Stale => None,
            ArtifactRead::Corrupt(why) => {
                self.quarantine_slot(kind, key, &why);
                None
            }
        }
    }

    fn quarantine_slot(&self, kind: ArtifactKind, key: ArtifactKey, why: &str) {
        let path = self.artifact_path(kind, key);
        let dest = quarantine(&path, why);
        self.counters.quarantined.fetch_add(1, Ordering::Relaxed);
        musa_obs::counter_add("cache.quarantined", 1);
        musa_obs::warn(
            "musa-cache",
            "corrupt artifact quarantined; recomputing",
            &[
                ("artifact", artifact_file_name(kind, key).into()),
                ("reason", why.to_string().into()),
                ("moved_to", dest.display().to_string().into()),
            ],
        );
    }

    fn tally(&self, kind: ArtifactKind, hit: bool) {
        let c = &self.counters;
        let slot = match (kind, hit) {
            (ArtifactKind::Trace, true) => &c.trace_hits,
            (ArtifactKind::Trace, false) => &c.trace_misses,
            (ArtifactKind::Detail, true) => &c.detail_hits,
            (ArtifactKind::Detail, false) => &c.detail_misses,
            (ArtifactKind::Burst, true) => &c.burst_hits,
            (ArtifactKind::Burst, false) => &c.burst_misses,
        };
        slot.fetch_add(1, Ordering::Relaxed);
        musa_obs::counter_add(if hit { "cache.hit" } else { "cache.miss" }, 1);
    }
}

impl Drop for ArtifactCache {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Best-effort durable write of one detail artifact into `dir`; failure
/// degrades to uncached.
fn write_detail(dir: &Path, counters: &Counters, key: ArtifactKey, payload: &[u8]) {
    let path = dir.join(artifact_file_name(ArtifactKind::Detail, key));
    match write_artifact(&path, ArtifactKind::Detail, key, payload) {
        Ok(()) => {
            counters
                .bytes_written
                .fetch_add(payload.len() as u64, Ordering::Relaxed);
            musa_obs::counter_add("cache.bytes", payload.len() as u64);
        }
        Err(e) => {
            musa_obs::warn(
                "musa-cache",
                "artifact write failed; continuing uncached",
                &[
                    ("path", path.display().to_string().into()),
                    ("error", e.to_string().into()),
                ],
            );
        }
    }
}

pub(crate) fn classify_session(_line_no: usize, line: &str) -> Result<SessionStats, String> {
    from_str(line).map_err(|e| format!("unparsable session line: {e}"))
}

/// Read every session line under `dir` (the artifact directory).
/// Unparseable lines (a torn tail, corruption) are skipped, not fatal.
pub fn load_sessions(dir: &Path) -> Vec<SessionStats> {
    scan(&dir.join(SESSIONS_FILE), classify_session)
        .unwrap_or_default()
        .values()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fp::{burst_key, detail_key};
    use musa_arch::NodeConfig;

    fn tmp_store(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("musa-cache-eng-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn trace_and_burst_stay_in_the_memo() {
        let store = tmp_store("trace");
        let gen = GenParams::tiny();

        let cache = ArtifactCache::open(&store).unwrap();
        let (t1, k1) = cache.trace(AppId::Hydro, &gen);
        let (t2, k2) = cache.trace(AppId::Hydro, &gen);
        assert_eq!(k1, k2);
        assert!(Arc::ptr_eq(&t1, &t2), "second lookup must hit the memo");
        let bk = burst_key(k1, 32);
        assert!(cache.burst(bk).is_none());
        let table = Arc::new(BurstTable::build(&t1, 32));
        cache.put_burst(bk, Arc::clone(&table));
        assert!(Arc::ptr_eq(&cache.burst(bk).unwrap(), &table));
        let s = cache.stats();
        assert_eq!((s.trace_hits, s.trace_misses), (1, 1));
        assert_eq!((s.burst_hits, s.burst_misses), (1, 1));
        assert_eq!(s.bytes_written, 0, "nothing reaches disk");
        assert!(std::fs::read_dir(cache.dir()).unwrap().next().is_none());

        // A fresh cache (new process, same directory) regenerates.
        let cache2 = ArtifactCache::open(&store).unwrap();
        let (t3, _) = cache2.trace(AppId::Hydro, &gen);
        assert_eq!(*t1, *t3, "generation is deterministic");
        assert!(cache2.burst(bk).is_none());
        let s2 = cache2.stats();
        assert_eq!((s2.trace_hits, s2.trace_misses), (0, 1));
        assert_eq!(s2.bytes_read, 0);

        let _ = std::fs::remove_dir_all(&store);
    }

    #[test]
    fn detail_roundtrips_across_instances() {
        let store = tmp_store("db");
        let t = trace_key(AppId::Spmz, &GenParams::tiny());
        let dk = detail_key(t, &NodeConfig::REFERENCE);

        let cache = ArtifactCache::open(&store).unwrap();
        assert!(cache.detail(dk).is_none());
        let d = DetailArtifact {
            region_ns: 1.5,
            busy_ns: 2.5,
            efficiency: 0.5,
            mem_stretch: 1.1,
            stats: Default::default(),
            dram: Default::default(),
        };
        cache.put_detail(dk, &d);
        assert_eq!(cache.detail(dk), Some(d), "memo hit before the write lands");
        cache.flush();
        assert!(cache.stats().bytes_written > 0);

        let cache2 = ArtifactCache::open(&store).unwrap();
        assert_eq!(
            cache2.detail(dk),
            Some(d),
            "disk hit from a second instance"
        );
        let s2 = cache2.stats();
        assert_eq!((s2.detail_hits, s2.detail_misses), (1, 0));
        assert!(s2.bytes_read > 0);

        let _ = std::fs::remove_dir_all(&store);
    }

    #[test]
    fn corrupt_artifact_is_quarantined_and_recomputed_value_wins() {
        let store = tmp_store("corrupt");
        let t = trace_key(AppId::Btmz, &GenParams::tiny());
        let dk = detail_key(t, &NodeConfig::REFERENCE);
        let d = DetailArtifact {
            region_ns: 4.0,
            ..Default::default()
        };

        let cache = ArtifactCache::open(&store).unwrap();
        cache.put_detail(dk, &d);
        cache.flush();
        // Corrupt it on disk behind the memo's back, then read through
        // a fresh instance (no memo).
        let path = cache
            .dir()
            .join(artifact_file_name(ArtifactKind::Detail, dk));
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let cache2 = ArtifactCache::open(&store).unwrap();
        assert!(cache2.detail(dk).is_none(), "corrupt artifact must miss");
        assert!(!path.exists(), "corrupt artifact must leave the slot");
        assert_eq!(cache2.stats().quarantined, 1);
        let qdir = cache2.dir().join("quarantine");
        assert!(qdir.read_dir().unwrap().next().is_some(), "evidence kept");
        // Recompute fills the slot again.
        cache2.put_detail(dk, &d);
        cache2.flush();
        assert!(path.exists());

        let _ = std::fs::remove_dir_all(&store);
    }

    #[test]
    fn sessions_append_and_aggregate() {
        let store = tmp_store("sessions");
        let cache = ArtifactCache::open(&store).unwrap();
        let t = trace_key(AppId::Hydro, &GenParams::tiny());
        let trace = generate(AppId::Hydro, &GenParams::tiny());
        cache.put_burst(burst_key(t, 32), Arc::new(BurstTable::build(&trace, 32)));
        cache.burst(burst_key(t, 32));
        cache.persist_session("sequential");
        cache.persist_session("pool-worker");

        let sessions = load_sessions(cache.dir());
        assert_eq!(sessions.len(), 2);
        assert_eq!(sessions[0].label, "sequential");
        assert_eq!(sessions[1].label, "pool-worker");
        assert_eq!(sessions[0].burst_hits, 1);
        assert!(sessions[0].report().contains("burst 1/1"));

        let mut total = SessionStats::default();
        for s in &sessions {
            total.absorb(s);
        }
        assert_eq!(total.burst_hits, 2);

        let _ = std::fs::remove_dir_all(&store);
    }

    /// A session line missing only its newline (a crash between the
    /// line and its `\n`) must not swallow the next process's line.
    #[test]
    fn session_after_an_unterminated_line_reads_back() {
        let store = tmp_store("sessions-nl");
        let cache = ArtifactCache::open(&store).unwrap();
        let earlier = SessionStats {
            label: "pool-worker".into(),
            detail_hits: 4,
            ..SessionStats::default()
        };
        std::fs::write(cache.dir().join(SESSIONS_FILE), earlier.to_json()).unwrap();
        cache.persist_session("sequential");

        let sessions = load_sessions(cache.dir());
        assert_eq!(sessions.len(), 2, "{sessions:?}");
        assert_eq!(sessions[0], earlier);
        assert_eq!(sessions[1].label, "sequential");
        let _ = std::fs::remove_dir_all(&store);
    }

    #[test]
    fn env_gate_parses() {
        // Not testing via set_var (process-global, racy across tests);
        // the semantics are: only the literal "0" disables.
        assert!(enabled_from_env() || std::env::var("MUSA_CACHE").as_deref() == Ok("0"));
    }

    #[test]
    fn human_bytes_renders() {
        assert_eq!(human_bytes(0), "0 B");
        assert_eq!(human_bytes(512), "512 B");
        assert_eq!(human_bytes(2048), "2.0 KiB");
        assert_eq!(human_bytes(3 * 1024 * 1024), "3.0 MiB");
    }
}
