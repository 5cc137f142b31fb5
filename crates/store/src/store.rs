//! The append-only campaign store.
//!
//! On disk a store is a directory of JSON-lines files (`*.jsonl`), one
//! row per simulated point. Rows are content-addressed by [`PointKey`]
//! — see [`crate::key`] — so re-opening a directory after a crash, or
//! after other processes wrote disjoint shard files into it, always
//! reconstructs exactly the set of completed points. Appends are
//! flushed once per batch: an interrupted sweep loses at most one batch
//! of results.
//!
//! ## Failure model
//!
//! Every row file is a sealed line log (see [`musa_cache::integrity`]
//! for the torn-tail rule, sealing, repair and the quarantine ledger).
//! The row classifier decides, in this order:
//!
//! * a row whose key fingerprint and checksum both verify loads;
//! * a row written by a newer or older schema stays on disk untouched
//!   and is skipped in memory;
//! * a current-schema row failing its key or checksum, or a line that
//!   does not parse, is corrupt and goes to
//!   [`QUARANTINE_FILE`](crate::QUARANTINE_FILE) when a writable open
//!   repairs the file.
//!
//! A read-only open ([`CampaignStore::open_read_only`]) never writes:
//! it skips the same rows, counts them in [`StoreHealth`], and
//! degrades past unreadable files instead of failing the whole load.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use musa_apps::{generate, AppId, GenParams};
use musa_arch::NodeConfig;
use musa_cache::{quarantine_rotation, ArtifactCache, LineLog, OnCorrupt, Tail, QUARANTINE_KEEP};
use musa_core::{par_map, Campaign, ConfigResult, MultiscaleSim, SweepOptions};
use musa_obs::json::{from_str, ToJson};
use musa_obs::Progress;

use crate::key::{PointKey, SCHEMA_VERSION};
use crate::shard::Shard;

/// Default name of the JSONL file unsharded runs append to.
pub const DEFAULT_WRITE_FILE: &str = "rows.jsonl";

/// Default number of points simulated between flushes.
pub const DEFAULT_BATCH: usize = 64;

/// Default flush retry budget for transient I/O errors.
pub const DEFAULT_MAX_RETRIES: u32 = 2;

/// One persisted campaign row: the simulation result plus everything
/// that went into its fingerprint, so stores are self-describing and
/// every row can be integrity-checked on load.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreRow {
    /// Hex [`PointKey`] of this row.
    pub key: String,
    /// Row schema version at write time.
    pub schema: u32,
    /// Trace-generation parameters the row was simulated at.
    pub gen: GenParams,
    /// Whether the full-application replay (step 3) ran.
    pub full_replay: bool,
    /// The simulation result.
    pub result: ConfigResult,
    /// CRC32 of the row's canonical JSON with this field absent: the
    /// [`musa_cache::seal`] written on append, verified against the
    /// stored bytes then stripped on load; `None` in memory and on rows
    /// from pre-checksum stores (grandfathered in unverified rather
    /// than rejected). Omitted from the JSON when `None`.
    pub crc: Option<u32>,
}

musa_obs::json_struct!(StoreRow {
    key,
    schema,
    gen,
    full_replay,
    result,
    crc
});

impl StoreRow {
    /// Build a row (and its key) from a freshly simulated result.
    pub fn new(gen: GenParams, full_replay: bool, result: ConfigResult) -> StoreRow {
        let key = PointKey::of(&result.app, &result.config, &gen, full_replay);
        StoreRow {
            key: key.to_hex(),
            schema: SCHEMA_VERSION,
            gen,
            full_replay,
            result,
            crc: None,
        }
    }

    /// The parsed key, if the hex field is well-formed.
    pub fn point_key(&self) -> Option<PointKey> {
        PointKey::from_hex(&self.key)
    }

    /// A row is consistent when its schema is current and its stored
    /// key matches the fingerprint recomputed from its own contents.
    pub fn is_consistent(&self) -> bool {
        self.schema == SCHEMA_VERSION
            && self.point_key()
                == Some(PointKey::of(
                    &self.result.app,
                    &self.result.config,
                    &self.gen,
                    self.full_replay,
                ))
    }
}

/// What the row classifier made of one line it kept.
enum RowLine {
    /// Current schema, key and checksum verified.
    Valid(StoreRow),
    /// Healthy row of a newer schema (its schema number).
    Newer(u32),
    /// Healthy row of an older schema (its schema number).
    Stale(u32),
}

/// The row family's line classifier. The order is the contract:
/// verified rows load, other-schema rows stay on disk, and only a
/// current-schema row that fails its key or checksum (or a line that
/// does not parse) is corrupt.
fn classify_row(line: &str) -> Result<RowLine, String> {
    let row = from_str::<StoreRow>(line).map_err(|e| format!("unparsable row: {e}"))?;
    let sealed = row.crc.is_none() || musa_cache::unseal(line) == Some(true);
    if row.is_consistent() && sealed {
        Ok(RowLine::Valid(row))
    } else if row.schema > SCHEMA_VERSION {
        Ok(RowLine::Newer(row.schema))
    } else if row.schema < SCHEMA_VERSION {
        Ok(RowLine::Stale(row.schema))
    } else if sealed {
        Err("stored key does not match the recomputed fingerprint".to_string())
    } else {
        Err("checksum mismatch (row bytes altered after write)".to_string())
    }
}

/// Best-effort text of a caught panic payload.
fn panic_reason(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// What loading found wrong with the on-disk store — the health the
/// serving layer reports from `/healthz`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreHealth {
    /// Corrupt rows moved to the quarantine ledger (write mode) or
    /// skipped in memory (read-only).
    pub quarantined: u64,
    /// Torn final lines truncated away (write mode) or skipped
    /// (read-only).
    pub tails_repaired: u64,
    /// Unreadable result files skipped (read-only opens only; a write
    /// open fails instead).
    pub files_skipped: u64,
    /// Rows written by a newer schema, skipped in memory.
    pub rows_newer_schema: u64,
    /// Rows written by an older schema, skipped in memory.
    pub rows_stale_schema: u64,
    /// Points the pool supervisor quarantined as poisoned (they killed
    /// more workers than `--poison-cap` allows), from the lease
    /// journal. These rows are *absent* from the store and a plain
    /// resume will not re-attempt them.
    pub pool_poisoned: u64,
    /// Quarantine records rotated out of the primary ledger file:
    /// lines sitting in `quarantine.N.jsonl`
    /// rotations at open time, plus lines moved out of the primary by
    /// rotations during this store's lifetime. Keeps the total
    /// quarantine evidence reported by `/healthz` honest after the
    /// size-capped primary rotates.
    pub quarantine_rotated: u64,
}

impl StoreHealth {
    /// `true` when the loaded campaign is incomplete for reasons a
    /// resume cannot heal on its own: corrupt rows, unreadable files,
    /// or pool-poisoned points. A repaired torn tail is a *normal*
    /// crash artifact and does not degrade the store.
    pub fn degraded(&self) -> bool {
        self.quarantined > 0 || self.files_skipped > 0 || self.pool_poisoned > 0
    }
}

/// One simulation point that panicked during [`CampaignStore::fill`]:
/// recorded (and skipped) instead of aborting the other 863 points.
/// Poisoned points are absent from the store, so a later `--resume`
/// re-attempts exactly these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoisonedPoint {
    /// Application label.
    pub app: String,
    /// Configuration label.
    pub config: String,
    /// Hex [`PointKey`] of the point.
    pub key: String,
    /// The caught panic payload.
    pub reason: String,
}

/// Options for [`CampaignStore::fill`].
#[derive(Debug, Clone, Copy)]
pub struct FillOptions {
    /// Simulation scale and mode (part of every point's fingerprint).
    pub sweep: SweepOptions,
    /// If set, simulate only the points this shard owns.
    pub shard: Option<Shard>,
    /// Points simulated between flushes (crash loses at most one batch).
    pub batch: usize,
    /// Report per-batch progress and ETA on stderr.
    pub progress: bool,
    /// Flush retries (with backoff) before a transient I/O error is
    /// fatal.
    pub max_retries: u32,
    /// Abort the sweep on the first poisoned point instead of
    /// recording it and continuing. Rows already simulated in the
    /// failing batch are persisted first.
    pub fail_fast: bool,
    /// Cooperative cancellation, polled between batches: when it
    /// returns `true`, the in-flight batch is flushed and [`fill`]
    /// returns early with [`FillReport::interrupted`] set. A plain fn
    /// pointer (typically backed by a signal-set atomic) keeps the
    /// options `Copy`.
    ///
    /// [`fill`]: CampaignStore::fill
    pub cancel: Option<fn() -> bool>,
}

impl FillOptions {
    /// Defaults: no shard, [`DEFAULT_BATCH`], progress on,
    /// [`DEFAULT_MAX_RETRIES`], keep going past poisoned points.
    pub fn new(sweep: SweepOptions) -> FillOptions {
        FillOptions {
            sweep,
            shard: None,
            batch: DEFAULT_BATCH,
            progress: true,
            max_retries: DEFAULT_MAX_RETRIES,
            fail_fast: false,
            cancel: None,
        }
    }
}

impl Default for FillOptions {
    fn default() -> Self {
        FillOptions::new(SweepOptions::default())
    }
}

/// What one [`CampaignStore::fill`] call did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FillReport {
    /// Points requested (`apps × configs`).
    pub requested: usize,
    /// Of those, points owned by this process's shard.
    pub in_shard: usize,
    /// In-shard points already present in the store.
    pub cached: usize,
    /// In-shard points simulated (and persisted) by this call.
    pub simulated: usize,
    /// Points whose simulation panicked — recorded, skipped, healed by
    /// a later `--resume`.
    pub poisoned: Vec<PoisonedPoint>,
    /// Flush retries spent on transient I/O errors.
    pub retries: u32,
    /// The fill stopped early because [`FillOptions::cancel`] fired
    /// (e.g. SIGINT). Every completed batch was flushed first; a
    /// `--resume` picks up exactly the un-simulated remainder.
    pub interrupted: bool,
}

/// A persistent, resumable campaign result store.
///
/// Lookups go through an in-memory index — `HashMap` by [`PointKey`]
/// plus a secondary index by application — instead of the O(n) linear
/// scans of [`Campaign`].
pub struct CampaignStore {
    dir: PathBuf,
    write_path: PathBuf,
    rows: Vec<StoreRow>,
    index: HashMap<u64, usize>,
    by_app: HashMap<String, Vec<usize>>,
    writer: Option<LineLog>,
    read_only: bool,
    /// Whether this open may rewrite files on disk (truncate torn
    /// tails, move corrupt rows to quarantine). False for read-only
    /// opens *and* for pool-worker opens: a worker loading the store
    /// while a sibling is mid-append must never rewrite the sibling's
    /// live file out from under it.
    repair: bool,
    health: StoreHealth,
    flush_seq: u64,
    /// Salt for flush-retry backoff jitter, derived from the write
    /// path so concurrent writers back off on different schedules.
    backoff_salt: u64,
    /// Artifact cache consulted by [`Self::fill`] for traces, detailed
    /// windows and burst tables. `None` (the default) computes
    /// everything; attach with [`Self::set_artifact_cache`].
    artifact_cache: Option<Arc<ArtifactCache>>,
}

impl CampaignStore {
    /// Open (or create) the store at `dir`, loading every `*.jsonl`
    /// file in it. New rows are appended to [`DEFAULT_WRITE_FILE`].
    pub fn open(dir: impl AsRef<Path>) -> std::io::Result<CampaignStore> {
        Self::open_with_write_file(dir, DEFAULT_WRITE_FILE)
    }

    /// Open the store, appending new rows to this shard's own file so
    /// concurrent shard processes never write to the same file.
    pub fn open_sharded(dir: impl AsRef<Path>, shard: Shard) -> std::io::Result<CampaignStore> {
        Self::open_with_write_file(dir, &shard.file_name())
    }

    /// Open the store **read-only** — the serving path. Unlike
    /// [`Self::open`], a missing directory is an error (a query service
    /// pointed at the wrong path should fail loudly, not silently serve
    /// an empty campaign it just created), and every append is refused.
    /// Nothing on disk is repaired: corrupt rows, torn tails and even
    /// unreadable files are skipped and counted in [`Self::health`] so
    /// the service can come up degraded instead of not at all.
    pub fn open_read_only(dir: impl AsRef<Path>) -> std::io::Result<CampaignStore> {
        let dir = dir.as_ref();
        if !dir.is_dir() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!("campaign store directory {} does not exist", dir.display()),
            ));
        }
        Self::open_impl(dir.to_path_buf(), DEFAULT_WRITE_FILE, true, false)
    }

    /// Open the store as a **pool worker**: writable (to the worker's
    /// own `write_file`) but load-lenient like a read-only open. A
    /// worker starts while sibling workers are appending to their own
    /// files; repairing — atomically rewriting a sibling's file to
    /// truncate what merely *looks* like a torn tail — would strand
    /// the sibling's writer on an unlinked inode and destroy its next
    /// flush. Only the supervisor (which opens the store before
    /// workers spawn and after they all exit) repairs.
    pub fn open_worker(dir: impl AsRef<Path>, write_file: &str) -> std::io::Result<CampaignStore> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        Self::open_impl(dir, write_file, false, false)
    }

    /// Open the store, appending new rows to `write_file` (created on
    /// first append).
    pub fn open_with_write_file(
        dir: impl AsRef<Path>,
        write_file: &str,
    ) -> std::io::Result<CampaignStore> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        Self::open_impl(dir, write_file, false, true)
    }

    /// Attach an artifact cache: subsequent [`Self::fill`] calls load
    /// traces, detailed windows and burst tables through it instead
    /// of recomputing them. Rows stay byte-identical either way; only
    /// the time to produce them changes.
    pub fn set_artifact_cache(&mut self, cache: Arc<ArtifactCache>) {
        self.artifact_cache = Some(cache);
    }

    /// The attached artifact cache, if any.
    pub fn artifact_cache(&self) -> Option<&Arc<ArtifactCache>> {
        self.artifact_cache.as_ref()
    }

    fn open_impl(
        dir: PathBuf,
        write_file: &str,
        read_only: bool,
        repair: bool,
    ) -> std::io::Result<CampaignStore> {
        let mut store = CampaignStore {
            write_path: dir.join(write_file),
            dir,
            rows: Vec::new(),
            index: HashMap::new(),
            by_app: HashMap::new(),
            writer: None,
            read_only,
            repair,
            health: StoreHealth::default(),
            flush_seq: 0,
            backoff_salt: musa_fault::key_of(&[write_file.as_bytes()]),
            artifact_cache: None,
        };
        let mut files: Vec<PathBuf> = std::fs::read_dir(&store.dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
            // Not row shards: the quarantine file and its rotations
            // (corrupt rows set aside by repair) and the profiling
            // flight record.
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_none_or(|n| !crate::is_quarantine_file(n) && n != musa_prof::PROFILES_FILE)
            })
            .collect();
        files.sort();
        // Count pre-existing rotation lines before any repair below
        // rotates more: evidence already outside the primary at open
        // time, never double-counted with this open's own rotations.
        for i in 1..=QUARANTINE_KEEP {
            if let Ok(text) = std::fs::read_to_string(quarantine_rotation(&store.dir, i)) {
                store.health.quarantine_rotated += text.lines().count() as u64;
            }
        }
        for file in files {
            store.load_file(&file)?;
        }
        // The lease journal (if a pool run left one) tells us which
        // points are quarantined as poisoned — campaign data that is
        // *missing* rather than corrupt, surfaced the same way.
        store.health.pool_poisoned = crate::journal::replay(&store.dir).poisoned().len() as u64;
        Ok(store)
    }

    /// Load one result file, classifying every line; in write mode,
    /// repair the file afterwards (truncate a torn tail, quarantine
    /// corrupt rows) so the next open is clean.
    fn load_file(&mut self, path: &Path) -> std::io::Result<()> {
        let scan = match musa_cache::scan(path, |_, line| classify_row(line)) {
            Ok(scan) => scan,
            Err(e) if !self.repair => {
                self.health.files_skipped += 1;
                musa_obs::warn(
                    "musa-store",
                    "unreadable result file skipped (lenient open serves the rest, degraded)",
                    &[
                        ("file", path.display().to_string().into()),
                        ("error", e.to_string().into()),
                    ],
                );
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        if scan.tail == Tail::Torn {
            self.health.tails_repaired += 1;
            musa_obs::counter_add("store.tail_truncated", 1);
            musa_obs::warn(
                "musa-store",
                "torn final line from an interrupted write, truncated",
                &[("file", path.display().to_string().into())],
            );
        }
        if let Some((first, reason)) = scan.corrupt().next() {
            let n = scan.corrupt().count();
            self.health.quarantined += n as u64;
            musa_obs::counter_add("store.quarantined", n as u64);
            // One warning per file, not one per row: a file with a
            // thousand corrupt rows is one incident, and a log flooded
            // by it buries every other signal.
            musa_obs::warn(
                "musa-store",
                if self.repair {
                    "corrupt rows quarantined"
                } else {
                    "corrupt rows skipped (lenient open; a repairing open would quarantine them)"
                },
                &[
                    ("file", path.display().to_string().into()),
                    ("rows", n.into()),
                    ("first_line", first.no.into()),
                    ("first_reason", reason.to_string().into()),
                ],
            );
        }
        if self.repair {
            self.health.quarantine_rotated += musa_cache::repair(
                path,
                &scan,
                OnCorrupt::Quarantine(&self.dir),
                "store.rewrite",
            )?;
        }
        for line in scan.lines {
            match line.class {
                Ok(RowLine::Valid(mut row)) => {
                    row.crc = None; // checksums live on disk, not in memory
                    self.insert_mem(row);
                }
                // Forward compatibility: a row written by a *newer*
                // musa-store (mixed-version shard directories, e.g. one
                // worker upgraded mid-campaign) is healthy data this
                // binary cannot interpret — skip it with its own
                // message and counter so the operator sees an upgrade
                // hint, not a corruption scare.
                Ok(RowLine::Newer(schema)) => {
                    self.health.rows_newer_schema += 1;
                    musa_obs::counter_add("store.rows_newer_schema", 1);
                    musa_obs::warn(
                        "musa-store",
                        "row written by a newer musa-store, skipped (upgrade this binary to read it)",
                        &[
                            ("file", path.display().to_string().into()),
                            ("line", line.no.into()),
                            ("row_schema", schema.into()),
                            ("supported_schema", SCHEMA_VERSION.into()),
                        ],
                    );
                }
                Ok(RowLine::Stale(schema)) => {
                    self.health.rows_stale_schema += 1;
                    musa_obs::warn(
                        "musa-store",
                        "stale-schema row skipped",
                        &[
                            ("file", path.display().to_string().into()),
                            ("line", line.no.into()),
                            ("row_schema", schema.into()),
                        ],
                    );
                }
                Err(_) => {}
            }
        }
        Ok(())
    }

    /// Directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of (distinct) rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// All rows, in load/insertion order.
    pub fn rows(&self) -> &[StoreRow] {
        &self.rows
    }

    /// O(1): is this point already simulated?
    pub fn contains(&self, app: AppId, config: &NodeConfig, opts: &SweepOptions) -> bool {
        self.index
            .contains_key(&PointKey::for_point(app, config, opts).0)
    }

    /// O(1) lookup of one point's result.
    pub fn get(
        &self,
        app: AppId,
        config: &NodeConfig,
        opts: &SweepOptions,
    ) -> Option<&ConfigResult> {
        self.get_by_key(PointKey::for_point(app, config, opts))
    }

    /// O(1) lookup by precomputed key.
    pub fn get_by_key(&self, key: PointKey) -> Option<&ConfigResult> {
        self.index.get(&key.0).map(|&i| &self.rows[i].result)
    }

    /// All rows of one application (secondary index, no full scan).
    pub fn rows_for_app(&self, app: AppId) -> impl Iterator<Item = &StoreRow> {
        self.by_app
            .get(app.label())
            .into_iter()
            .flatten()
            .map(|&i| &self.rows[i])
    }

    /// Insert into the in-memory index only. Returns false on duplicate
    /// key (the existing row wins; simulations are deterministic, so
    /// duplicates are identical).
    fn insert_mem(&mut self, row: StoreRow) -> bool {
        let Some(key) = row.point_key() else {
            return false;
        };
        if self.index.contains_key(&key.0) {
            return false;
        }
        let idx = self.rows.len();
        self.index.insert(key.0, idx);
        self.by_app
            .entry(row.result.app.clone())
            .or_default()
            .push(idx);
        self.rows.push(row);
        true
    }

    fn writer(&mut self) -> std::io::Result<&mut LineLog> {
        if self.writer.is_none() {
            self.writer = Some(LineLog::open(&self.write_path)?);
        }
        Ok(self.writer.as_mut().expect("writer just created"))
    }

    /// Consume the store and hand over its rows (load/insertion order)
    /// without cloning — how `musa-serve` moves a loaded campaign into
    /// its columnar query engine.
    pub fn into_rows(mut self) -> Vec<StoreRow> {
        std::mem::take(&mut self.rows)
    }

    /// Append one row (persisted on the next [`Self::flush`]). Returns
    /// false if the key was already present.
    pub fn append(&mut self, row: StoreRow) -> std::io::Result<bool> {
        if self.read_only {
            return Err(std::io::Error::new(
                std::io::ErrorKind::PermissionDenied,
                "campaign store opened read-only",
            ));
        }
        let mut row = row;
        row.crc = None;
        let canonical = row.to_json();
        if !self.insert_mem(row) {
            return Ok(false);
        }
        self.writer()?.append(&musa_cache::seal(&canonical));
        Ok(true)
    }

    /// Append a batch of rows and flush them to disk in one go.
    pub fn append_batch(
        &mut self,
        rows: impl IntoIterator<Item = StoreRow>,
    ) -> std::io::Result<usize> {
        self.append_batch_retrying(rows, 0).map(|(added, _)| added)
    }

    /// [`Self::append_batch`] with a flush retry budget: a transient
    /// flush error is retried with exponential backoff up to
    /// `max_retries` times before it propagates. Returns the rows
    /// added and the retries spent.
    pub fn append_batch_retrying(
        &mut self,
        rows: impl IntoIterator<Item = StoreRow>,
        max_retries: u32,
    ) -> std::io::Result<(usize, u32)> {
        let _flush = musa_obs::span(musa_obs::phase::STORE_FLUSH);
        let mut added = 0;
        for row in rows {
            if self.append(row)? {
                added += 1;
            }
        }
        let mut retries = 0u32;
        loop {
            match self.flush() {
                Ok(()) => break,
                Err(e) if retries < max_retries => {
                    retries += 1;
                    musa_obs::counter_add("fill.retries", 1);
                    musa_obs::warn(
                        "musa-store",
                        "flush failed, retrying",
                        &[
                            ("error", e.to_string().into()),
                            ("attempt", retries.into()),
                            ("max_retries", max_retries.into()),
                        ],
                    );
                    // Jittered, not fixed: concurrent pool workers
                    // hitting the same transient condition must not
                    // retry in lockstep. The salt is the write path,
                    // so each writer's schedule is still replayable.
                    std::thread::sleep(musa_fault::jittered_backoff(retries, self.backoff_salt));
                }
                Err(e) => return Err(e),
            }
        }
        musa_obs::counter_add("store.rows_appended", added as u64);
        musa_obs::counter_add("store.flushes", 1);
        musa_obs::hist_observe("store.batch_rows", added as f64);
        Ok((added, retries))
    }

    /// Flush buffered appends to disk.
    ///
    /// Carries the `store.flush` failpoint; the fault-decision key is
    /// the flush sequence number, so under a partial-probability I/O
    /// fault each retry rolls a fresh (but deterministic) decision.
    pub fn flush(&mut self) -> std::io::Result<()> {
        if self.writer.is_some() {
            self.flush_seq += 1;
            musa_fault::fail_io("store.flush", self.flush_seq)?;
        }
        if let Some(w) = self.writer.as_mut() {
            w.flush()?;
        }
        Ok(())
    }

    /// What loading found wrong with the on-disk store.
    pub fn health(&self) -> &StoreHealth {
        &self.health
    }

    /// Simulate **only the missing points** of `apps × configs` (the
    /// ones this shard owns, when sharded), in parallel over
    /// configurations ([`par_map`]), persisting after every batch and
    /// reporting progress/ETA on stderr.
    pub fn fill(
        &mut self,
        apps: &[AppId],
        configs: &[NodeConfig],
        opts: &FillOptions,
    ) -> std::io::Result<FillReport> {
        let mut report = FillReport {
            requested: apps.len() * configs.len(),
            ..FillReport::default()
        };
        let mut work: Vec<(AppId, Vec<NodeConfig>)> = Vec::new();
        for &app in apps {
            let mut missing = Vec::new();
            for cfg in configs {
                let key = PointKey::for_point(app, cfg, &opts.sweep);
                if !opts.shard.is_none_or(|s| s.owns(key)) {
                    continue;
                }
                report.in_shard += 1;
                if self.index.contains_key(&key.0) {
                    report.cached += 1;
                } else {
                    missing.push(*cfg);
                }
            }
            if !missing.is_empty() {
                work.push((app, missing));
            }
        }

        musa_obs::counter_add("store.cached_points", report.cached as u64);

        let total: usize = work.iter().map(|(_, m)| m.len()).sum();
        if total == 0 {
            return Ok(report);
        }
        let heartbeat = opts.progress.then(|| {
            let label = match opts.shard {
                Some(s) => format!("fill[shard {s}]"),
                None => "fill".to_string(),
            };
            Progress::new(label, total as u64)
        });
        let mut done = 0usize;
        for (app, missing) in work {
            musa_obs::info(
                "musa-store",
                "generating trace for missing points",
                &[
                    ("app", app.label().into()),
                    ("missing", missing.len().into()),
                ],
            );
            let (trace, trace_key) = match &self.artifact_cache {
                Some(cache) => {
                    let (t, k) = cache.trace(app, &opts.sweep.gen);
                    (t, Some(k))
                }
                None => {
                    let _gen = musa_obs::span_app(musa_obs::phase::TRACE_GEN, app.label());
                    (Arc::new(generate(app, &opts.sweep.gen)), None)
                }
            };
            // Trace acquisition ran on this coordinating thread, so its
            // TRACE_GEN span parked there; move the time onto the first
            // simulated point of this app — the point that paid for it.
            let carried_trace_ns = musa_prof::take_phase_ns(musa_obs::phase::TRACE_GEN);
            let mut sim = MultiscaleSim::new(&trace);
            if let (Some(cache), Some(key)) = (&self.artifact_cache, trace_key) {
                sim = sim.with_cache(Arc::clone(cache), key);
            }
            let mut first_chunk = true;
            for chunk in missing.chunks(opts.batch.max(1)) {
                // The previous batch's STORE_FLUSH span landed on this
                // coordinating thread, which simulates no point; drain
                // it so it cannot pile up here.
                let _ = musa_prof::take_phase_ns(musa_obs::phase::STORE_FLUSH);
                if opts.cancel.is_some_and(|cancelled| cancelled()) {
                    report.interrupted = true;
                    musa_obs::warn(
                        "musa-store",
                        "fill interrupted, stopping after the flushed batch",
                        &[("done", done.into()), ("total", total.into())],
                    );
                    if let Some(hb) = &heartbeat {
                        hb.finish(done as u64);
                    }
                    return Ok(report);
                }
                // A panic inside one simulation (a bug — or an injected
                // `sim.point` fault) poisons that point only: the other
                // points of the chunk are still persisted, and because a
                // poisoned point never reaches the store, `--resume`
                // re-attempts exactly the poisoned set.
                let outcomes: Vec<(Result<StoreRow, PoisonedPoint>, f64)> =
                    par_map(chunk, |i, cfg| {
                        musa_prof::point_begin();
                        if first_chunk && i == 0 {
                            musa_prof::add_phase_ns(musa_obs::phase::TRACE_GEN, carried_trace_ns);
                        }
                        let t0 = std::time::Instant::now();
                        let key = PointKey::for_point(app, cfg, &opts.sweep).to_hex();
                        let outcome =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                let result = sim.simulate(*cfg, opts.sweep.full_replay);
                                StoreRow::new(opts.sweep.gen, opts.sweep.full_replay, result)
                            }))
                            .map_err(|payload| PoisonedPoint {
                                app: app.label().to_string(),
                                config: cfg.label(),
                                key: key.clone(),
                                reason: panic_reason(payload),
                            });
                        musa_prof::point_finish(
                            &key,
                            app.label(),
                            &cfg.label(),
                            outcome.is_err(),
                            0,
                        );
                        (outcome, t0.elapsed().as_secs_f64())
                    });
                first_chunk = false;
                done += outcomes.len();
                let mut rows = Vec::with_capacity(outcomes.len());
                let mut poisoned = Vec::new();
                for (outcome, secs) in outcomes {
                    if let Some(hb) = &heartbeat {
                        hb.observe(secs);
                    }
                    match outcome {
                        Ok(row) => rows.push(row),
                        Err(p) => poisoned.push(p),
                    }
                }
                musa_obs::counter_add("store.simulated_points", rows.len() as u64);
                let (added, retries) = self.append_batch_retrying(rows, opts.max_retries)?;
                report.simulated += added;
                report.retries += retries;
                for p in &poisoned {
                    musa_obs::counter_add("fill.poisoned", 1);
                    musa_obs::warn(
                        "musa-store",
                        "simulation panicked, point poisoned (re-attempted on --resume)",
                        &[
                            ("app", p.app.clone().into()),
                            ("config", p.config.clone().into()),
                            ("reason", p.reason.clone().into()),
                        ],
                    );
                }
                let abort = opts.fail_fast && !poisoned.is_empty();
                report.poisoned.extend(poisoned);
                if abort {
                    let p = report.poisoned.last().expect("nonempty");
                    return Err(std::io::Error::other(format!(
                        "--fail-fast: simulation of {}/{} panicked: {}",
                        p.app, p.config, p.reason
                    )));
                }
                if let Some(hb) = &heartbeat {
                    hb.tick(done as u64);
                }
            }
        }
        if let Some(hb) = &heartbeat {
            hb.finish(done as u64);
        }
        Ok(report)
    }

    /// Every stored row as a [`Campaign`], sorted by (app, config
    /// label) so the result is independent of file and insertion order.
    /// Note this includes rows of *all* generation scales present in
    /// the directory; use [`Self::campaign_for`] to select one sweep.
    pub fn campaign(&self) -> Campaign {
        let mut results: Vec<ConfigResult> = self.rows.iter().map(|r| r.result.clone()).collect();
        results.sort_by(|a, b| {
            a.app
                .cmp(&b.app)
                .then_with(|| a.config.label().cmp(&b.config.label()))
        });
        Campaign { results }
    }

    /// The [`Campaign`] view of one sweep: the stored results of
    /// exactly `apps × configs` under `opts`, in enumeration order
    /// (app-major). Points not yet simulated are omitted — call
    /// [`Self::fill`] first for a complete campaign.
    pub fn campaign_for(
        &self,
        apps: &[AppId],
        configs: &[NodeConfig],
        opts: &SweepOptions,
    ) -> Campaign {
        let mut results = Vec::with_capacity(apps.len() * configs.len());
        for &app in apps {
            for cfg in configs {
                if let Some(r) = self.get(app, cfg, opts) {
                    results.push(r.clone());
                }
            }
        }
        Campaign { results }
    }
}

impl Drop for CampaignStore {
    fn drop(&mut self) {
        // Rows whose flush fails here were never reported durable; the
        // dropped `LineLog` discards them (a failed point must stay
        // missing, so a resume re-simulates it).
        let _ = self.flush();
    }
}
