//! File integrity primitives: CRC-32 checksums, crash-atomic file
//! replacement, and the sealed line log every durable JSONL family is
//! read, repaired and appended through.
//!
//! The checksum is the table-driven CRC-32/ISO-HDLC (the zlib/PNG
//! polynomial, reflected 0xEDB88320), and atomic replacement is the
//! classic tmp-in-same-directory + fsync + rename + fsync-parent
//! sequence, so a crash at any instruction leaves either the old file
//! or the new file, never a torn mixture.
//!
//! ## Line logs
//!
//! Store rows, the lease and search journals, profile records and
//! cache sessions are append-only files of one JSON record per line,
//! all read, repaired and appended through this module: each family
//! supplies only a line classifier. One torn-tail rule covers them all
//! ([`scan`]): an unterminated final line is kept if it classifies
//! clean (a crash between the record and its newline) and is a torn
//! tail otherwise. A repair ([`repair`], [`open_repairing`]) sends
//! corrupt complete lines to the one quarantine sink
//! ([`quarantine_evidence`]) before atomically rewriting the survivors,
//! so no later [`LineLog`] append can join onto an earlier line.

use std::collections::HashSet;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// CRC-32/ISO-HDLC of `bytes` (the checksum `crc32(1)` and zlib
/// compute).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Distinguishes concurrent `atomic_write` calls *within* one process:
/// two simulation threads can write the same detail artifact at once, and a pid-only temp name would make them clobber each other's
/// half-written bytes.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Replace `path` with `bytes` atomically: write a hidden temp file in
/// the same directory, fsync it, rename it over `path`, then fsync the
/// parent directory (best effort — some filesystems refuse directory
/// handles). A crash mid-call leaves the previous `path` intact; an
/// injected `failpoint` fault (fired just before the rename) must too.
///
/// Temp names carry the pid *and* a process-global sequence number, so
/// concurrent writers — across processes (pool workers sharing an
/// artifact directory) and across threads (points simulated in
/// parallel in one process) — never collide. Two racers producing the same content
/// both rename complete files; last rename wins, harmlessly.
pub fn atomic_write(path: &Path, bytes: &[u8], failpoint: &str) -> io::Result<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => std::path::PathBuf::from("."),
    };
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| io::Error::other(format!("bad export path {}", path.display())))?;
    // `.tmp` suffix keeps the temp file out of every load glob even if
    // a crash strands it.
    let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp = parent.join(format!(".{name}.{}.{seq}.tmp", std::process::id()));

    let write_and_sync = || -> io::Result<()> {
        let mut file = std::fs::File::create(&tmp)?;
        io::Write::write_all(&mut file, bytes)?;
        file.sync_all()?;
        musa_fault::fail_io(failpoint, musa_fault::key_of(&[name.as_bytes()]))?;
        std::fs::rename(&tmp, path)
    };
    if let Err(e) = write_and_sync() {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    if let Ok(dir) = std::fs::File::open(&parent) {
        let _ = dir.sync_all();
    }
    Ok(())
}

// ------------------------------------------------------------ sealing

/// The seal trailer: a sealed line is its canonical JSON object with
/// this member (then the checksum and the closing brace) appended.
const SEAL: &str = ",\"crc\":";

/// Seal a canonical JSON object: append `,"crc":N` where N is the
/// CRC-32 of the canonical bytes — exactly the serialisation of the
/// same object with a final `crc` member.
pub fn seal(canonical: &str) -> String {
    let body = canonical.strip_suffix('}').expect("a JSON object");
    format!("{body}{SEAL}{}}}", crc32(canonical.as_bytes()))
}

/// Verify a sealed line against its stored bytes: `None` when the line
/// carries no well-formed `,"crc":N` trailer, otherwise whether N is
/// the CRC-32 of the canonical prefix.
pub fn unseal(line: &str) -> Option<bool> {
    let body = line.trim_end().strip_suffix('}')?;
    let idx = body.rfind(SEAL)?;
    let crc: u32 = body[idx + SEAL.len()..].parse().ok()?;
    Some(crc32(format!("{}}}", &body[..idx]).as_bytes()) == crc)
}

// ------------------------------------------------------------ scanning

/// One non-blank line of a line log and its family classifier's
/// verdict: the parsed value, or the reason the line is corrupt (the
/// quarantine record's reason text).
#[derive(Debug, Clone, PartialEq)]
pub struct Line<T> {
    /// 1-based line number.
    pub no: usize,
    /// The line's bytes, verbatim.
    pub raw: String,
    /// The classifier's verdict.
    pub class: Result<T, String>,
}

/// State of a line log's end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tail {
    /// Empty, or ending in a newline.
    Clean,
    /// No final newline, but the final line classified clean (a crash
    /// between a record and its `\n`): kept, and a repair terminates it.
    Unterminated,
    /// No final newline and the final line does not classify (an append
    /// cut short): crash residue a repair truncates, never quarantines.
    Torn,
}

/// What [`scan`] found in one line log.
#[derive(Debug, Clone, PartialEq)]
pub struct Scan<T> {
    /// Every non-blank line in file order, a torn tail excluded.
    pub lines: Vec<Line<T>>,
    /// How the file ends.
    pub tail: Tail,
}

impl<T> Default for Scan<T> {
    fn default() -> Self {
        Scan {
            lines: Vec::new(),
            tail: Tail::Clean,
        }
    }
}

impl<T> Scan<T> {
    /// The corrupt lines and their reasons, in file order.
    pub fn corrupt(&self) -> impl Iterator<Item = (&Line<T>, &str)> {
        self.lines
            .iter()
            .filter_map(|l| l.class.as_ref().err().map(|r| (l, r.as_str())))
    }

    /// The accepted values, in file order.
    pub fn values(self) -> Vec<T> {
        self.lines
            .into_iter()
            .filter_map(|l| l.class.ok())
            .collect()
    }

    /// Append the corrupt lines to the quarantine ledger in `dir`,
    /// recorded as lines of `path` (named relative to `dir`); see
    /// [`quarantine_evidence`] for the result.
    pub fn quarantine(&self, dir: &Path, path: &Path) -> io::Result<u64> {
        let file = path.strip_prefix(dir).unwrap_or(path).display().to_string();
        let records: Vec<QuarantineRecord> = self
            .corrupt()
            .map(|(line, reason)| QuarantineRecord {
                file: file.clone(),
                line: line.no,
                reason: reason.to_string(),
                raw: line.raw.clone(),
            })
            .collect();
        quarantine_evidence(dir, &records)
    }
}

/// Classify every line of the log at `path` (read-only; a missing file
/// scans empty). `classify` gets the 1-based line number and the line,
/// and returns the parsed value or the reason the line is corrupt.
/// Blank lines are skipped.
pub fn scan<T>(
    path: &Path,
    mut classify: impl FnMut(usize, &str) -> Result<T, String>,
) -> io::Result<Scan<T>> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(e),
    };
    let terminated = text.is_empty() || text.ends_with('\n');
    let lines: Vec<&str> = text.lines().collect();
    let mut scan = Scan::default();
    for (i, &raw) in lines.iter().enumerate() {
        if raw.trim().is_empty() {
            continue;
        }
        let class = classify(i + 1, raw);
        if class.is_err() && i + 1 == lines.len() && !terminated {
            scan.tail = Tail::Torn;
        } else {
            let raw = raw.to_string();
            scan.lines.push(Line {
                no: i + 1,
                raw,
                class,
            });
        }
    }
    if !terminated && scan.tail == Tail::Clean {
        scan.tail = Tail::Unterminated;
    }
    Ok(scan)
}

// ------------------------------------------------------------- repairs

/// What a repair does with corrupt complete lines.
#[derive(Debug, Clone, Copy)]
pub enum OnCorrupt<'a> {
    /// Append them to the quarantine ledger in this directory, then
    /// drop them from the log.
    Quarantine(&'a Path),
    /// Leave them where they are (the search journal, whose resume
    /// check refuses the damaged line instead).
    Keep,
}

/// Repair the log at `path` as `scan` found it: quarantine corrupt
/// lines first (a crash between the two steps loses nothing), then
/// atomically rewrite the survivors, newline-terminated. A no-op when
/// the scan found nothing to repair. `failpoint` names the owner's
/// rewrite failpoint. Returns the ledger lines a rotation moved out of
/// its primary file.
pub fn repair<T>(
    path: &Path,
    scan: &Scan<T>,
    on_corrupt: OnCorrupt<'_>,
    failpoint: &str,
) -> io::Result<u64> {
    let corrupt = scan.corrupt().next().is_some();
    match on_corrupt {
        OnCorrupt::Quarantine(dir) if corrupt || scan.tail != Tail::Clean => {
            let quarantined = scan.quarantine(dir, path)?;
            let kept = scan.lines.iter().filter(|l| l.class.is_ok());
            rewrite(path, kept.map(|l| &l.raw), failpoint)?;
            Ok(quarantined)
        }
        OnCorrupt::Keep if scan.tail != Tail::Clean => {
            rewrite(path, scan.lines.iter().map(|l| &l.raw), failpoint)?;
            Ok(0)
        }
        _ => Ok(0),
    }
}

/// Atomically replace the line log at `path` with `lines`, each
/// newline-terminated ([`atomic_write`] under `failpoint`).
pub fn rewrite<S: AsRef<str>>(
    path: &Path,
    lines: impl IntoIterator<Item = S>,
    failpoint: &str,
) -> io::Result<()> {
    let mut text = String::new();
    for line in lines {
        text.push_str(line.as_ref());
        text.push('\n');
    }
    atomic_write(path, text.as_bytes(), failpoint)
}

/// [`scan`], then [`repair`], then open for append: the one way an
/// owner opens its line log for writing.
pub fn open_repairing<T>(
    path: &Path,
    classify: impl FnMut(usize, &str) -> Result<T, String>,
    on_corrupt: OnCorrupt<'_>,
    failpoint: &str,
) -> io::Result<(Scan<T>, LineLog)> {
    let scan = scan(path, classify)?;
    repair(path, &scan, on_corrupt, failpoint)?;
    Ok((scan, LineLog::open(path)?))
}

// ------------------------------------------------------------- appends

/// Append handle on a line log. [`Self::append`] only buffers; a line
/// is on disk once [`Self::flush`] (or [`Self::append_synced`])
/// returned `Ok`. Dropping the handle discards unflushed lines, so a
/// record whose flush failed is never written behind the caller's
/// back.
#[derive(Debug)]
pub struct LineLog {
    file: File,
    buf: Vec<u8>,
}

impl LineLog {
    /// Open `path` for appending, creating it if missing. No repair:
    /// callers that may not rewrite the file (a pool worker beside a
    /// live sibling) append as-is; owners use [`open_repairing`].
    pub fn open(path: &Path) -> io::Result<LineLog> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(LineLog {
            file,
            buf: Vec::new(),
        })
    }

    /// Buffer one line (one record, or several joined by newlines);
    /// the terminating newline is added here.
    pub fn append(&mut self, line: &str) {
        self.buf.extend_from_slice(line.as_bytes());
        self.buf.push(b'\n');
    }

    /// Write every buffered line. After a failed write the unwritten
    /// remainder stays buffered for the next flush.
    pub fn flush(&mut self) -> io::Result<()> {
        while !self.buf.is_empty() {
            match self.file.write(&self.buf) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.buf.drain(..n);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Append one line durably: write, then `fdatasync`.
    pub fn append_synced(&mut self, line: &str) -> io::Result<()> {
        self.append(line);
        self.flush()?;
        self.file.sync_data()
    }
}

// ---------------------------------------------------------- quarantine

/// The quarantine ledger: one [`QuarantineRecord`] per line, never
/// loaded as campaign data.
pub const QUARANTINE_FILE: &str = "quarantine.jsonl";

/// Size cap (bytes) at which [`QUARANTINE_FILE`] rotates to
/// `quarantine.1.jsonl` before the next append: existing rotations
/// shift up and the one past [`QUARANTINE_KEEP`] is dropped (its loss
/// recorded on the `store.quarantine_dropped` counter).
/// `MUSA_QUARANTINE_CAP` (bytes) overrides the cap — tests use tiny
/// ones to exercise rotation cheaply.
pub const QUARANTINE_ROTATE_BYTES: u64 = 1 << 20;

/// Rotated quarantine files kept beside the primary
/// (`quarantine.1.jsonl` … `quarantine.K.jsonl`, newest first).
pub const QUARANTINE_KEEP: u32 = 3;

/// `true` for the quarantine file and its rotations — provenance
/// evidence, never loaded as campaign rows. The prefix test matters:
/// a rotation (`quarantine.1.jsonl`) mistaken for a row shard would
/// flood the quarantine with its own records on the next open.
pub fn is_quarantine_file(name: &str) -> bool {
    name == QUARANTINE_FILE || (name.starts_with("quarantine.") && name.ends_with(".jsonl"))
}

/// Path of rotation `i` (1 = newest) of the ledger in `dir`.
pub fn quarantine_rotation(dir: &Path, i: u32) -> PathBuf {
    dir.join(format!("quarantine.{i}.jsonl"))
}

fn quarantine_cap() -> u64 {
    std::env::var("MUSA_QUARANTINE_CAP")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(QUARANTINE_ROTATE_BYTES)
}

/// Provenance of one quarantined line: where it sat, why it was pulled,
/// and its raw bytes (nothing is silently destroyed — an operator can
/// still inspect or salvage the line).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineRecord {
    /// File the line was quarantined from, relative to the ledger's
    /// directory.
    pub file: String,
    /// 1-based line number at quarantine time.
    pub line: usize,
    /// Why the line was rejected.
    pub reason: String,
    /// The verbatim rejected line.
    pub raw: String,
}

musa_obs::json_struct!(QuarantineRecord {
    file,
    line,
    reason,
    raw
});

/// Identity of a quarantine record for dedupe purposes: content
/// fingerprints of the raw line and the reason. File and line number
/// are deliberately excluded — the *same* bad line re-encountered at a
/// shifted offset is still the same incident.
fn quarantine_fingerprint(raw: &str, reason: &str) -> u64 {
    musa_fault::key_of(&[raw.as_bytes(), b"\0", reason.as_bytes()])
}

/// Fingerprints of every record in one ledger file. Unparsable lines
/// are ignored (the ledger is advisory provenance, not campaign data).
fn existing_quarantine_fingerprints(path: &Path, seen: &mut HashSet<u64>) {
    let Ok(text) = std::fs::read_to_string(path) else {
        return;
    };
    for line in text.lines() {
        if let Ok(v) = musa_obs::json::JsonValue::parse(line) {
            if let (Some(raw), Some(reason)) = (
                v.get("raw").and_then(|x| x.as_str()),
                v.get("reason").and_then(|x| x.as_str()),
            ) {
                seen.insert(quarantine_fingerprint(raw, reason));
            }
        }
    }
}

/// Append provenance records to `<dir>/quarantine.jsonl` — the one
/// quarantine sink every family (and the doctor) writes through.
/// Records already on file, in the primary or any rotation, are
/// suppressed: a line that keeps reappearing (same raw bytes, same
/// reason) must not grow the ledger across repeated opens. Before an
/// append would push a non-empty primary past the size cap, the ledger
/// rotates; returns the lines that rotation moved out of the primary.
pub fn quarantine_evidence(dir: &Path, records: &[QuarantineRecord]) -> io::Result<u64> {
    if records.is_empty() {
        return Ok(0);
    }
    let path = dir.join(QUARANTINE_FILE);
    let mut seen = HashSet::new();
    existing_quarantine_fingerprints(&path, &mut seen);
    for i in 1..=QUARANTINE_KEEP {
        existing_quarantine_fingerprints(&quarantine_rotation(dir, i), &mut seen);
    }
    let mut out = String::new();
    let mut suppressed = 0u64;
    for record in records {
        if seen.insert(quarantine_fingerprint(&record.raw, &record.reason)) {
            musa_obs::json::ToJson::write_json(record, &mut out);
            out.push('\n');
        } else {
            suppressed += 1;
        }
    }
    if suppressed > 0 {
        musa_obs::counter_add("store.quarantine_suppressed", suppressed);
        musa_obs::debug(
            "musa-store",
            "duplicate quarantine records suppressed",
            &[("rows", suppressed.into())],
        );
    }
    if out.is_empty() {
        return Ok(0);
    }
    // A non-empty primary is required so a single oversized batch still
    // lands somewhere instead of rotating forever.
    let current_len = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    let rotated = if current_len > 0 && current_len + out.len() as u64 > quarantine_cap() {
        rotate_quarantine(dir)?
    } else {
        0
    };
    let mut file = OpenOptions::new().create(true).append(true).open(path)?;
    file.write_all(out.as_bytes())?;
    file.sync_all()?;
    Ok(rotated)
}

/// Shift `quarantine.jsonl` → `quarantine.1.jsonl` → … and drop the
/// rotation past [`QUARANTINE_KEEP`] (dropped lines tick the
/// `store.quarantine_dropped` counter). Returns the lines moved out of
/// the primary.
fn rotate_quarantine(dir: &Path) -> io::Result<u64> {
    let oldest = quarantine_rotation(dir, QUARANTINE_KEEP);
    if let Ok(text) = std::fs::read_to_string(&oldest) {
        let dropped = text.lines().count() as u64;
        std::fs::remove_file(&oldest)?;
        musa_obs::counter_add("store.quarantine_dropped", dropped);
        musa_obs::warn(
            "musa-store",
            "oldest quarantine rotation dropped",
            &[("rows", dropped.into())],
        );
    }
    for i in (1..QUARANTINE_KEEP).rev() {
        let from = quarantine_rotation(dir, i);
        if from.exists() {
            std::fs::rename(&from, quarantine_rotation(dir, i + 1))?;
        }
    }
    let primary = dir.join(QUARANTINE_FILE);
    let rotated = std::fs::read_to_string(&primary)
        .map(|t| t.lines().count() as u64)
        .unwrap_or(0);
    std::fs::rename(&primary, quarantine_rotation(dir, 1))?;
    musa_obs::counter_add("store.quarantine_rotations", 1);
    musa_obs::info(
        "musa-store",
        "quarantine file rotated",
        &[("rows", rotated.into())],
    );
    Ok(rotated)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // The IEEE check value, plus edges.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_ne!(crc32(b"musa"), crc32(b"musb"));
    }

    #[test]
    fn atomic_write_replaces_and_cleans_up() {
        let dir = std::env::temp_dir().join(format!("musa-cache-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.art");
        atomic_write(&path, b"first", "cache.write").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        atomic_write(&path, b"second", "cache.write").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        // No temp litter.
        let stray: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(stray.is_empty(), "temp files left behind: {stray:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_writers_to_one_path_never_tear() {
        let dir = std::env::temp_dir().join(format!("musa-cache-race-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("contended.art");
        std::thread::scope(|s| {
            for t in 0..8u8 {
                let path = &path;
                s.spawn(move || {
                    // All writers produce the same content, as real
                    // cache racers do (deterministic artifacts).
                    let body = vec![t % 2 + b'x'; 4096];
                    for _ in 0..16 {
                        atomic_write(path, &body, "cache.write").unwrap();
                    }
                });
            }
        });
        let got = std::fs::read(&path).unwrap();
        assert_eq!(got.len(), 4096);
        assert!(
            got.iter().all(|&b| b == got[0]),
            "torn mixture of two writers' bytes"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Classifier of the sealed families (rows, profiles): the seal
    /// must verify against the stored bytes.
    fn sealed_line(_: usize, line: &str) -> Result<(), String> {
        match unseal(line) {
            Some(true) => Ok(()),
            _ => Err("seal does not verify".to_string()),
        }
    }

    /// Classifier of the journal families: a JSON object carrying the
    /// family's discriminating member.
    fn object_with(line: &str, member: &str) -> Result<(), String> {
        let v = musa_obs::json::JsonValue::parse(line)?;
        v.get(member)
            .map(drop)
            .ok_or_else(|| format!("no {member:?}"))
    }

    type Family = (
        &'static str,
        Vec<String>,
        fn(usize, &str) -> Result<(), String>,
    );

    /// Sample lines of every line-log family, each with a classifier
    /// of that family's shape (sessions use the real one).
    fn families() -> Vec<Family> {
        let session = |label: &str, hits: u64| {
            musa_obs::json::ToJson::to_json(&crate::SessionStats {
                label: label.to_string(),
                pid: 7,
                detail_hits: hits,
                ..crate::SessionStats::default()
            })
        };
        vec![
            (
                "rows",
                vec![
                    seal(r#"{"key":"00c0ffee00c0ffee","schema":2,"full_replay":false,"result":{"time_ns":1.5}}"#),
                    seal(r#"{"key":"0123456789abcdef","schema":2,"full_replay":true,"result":{"time_ns":2e-3}}"#),
                ],
                sealed_line,
            ),
            (
                "leases",
                vec![
                    r#"{"ev":"grant","lease":1,"attempt":0,"points":[0,3,7]}"#.to_string(),
                    r#"{"ev":"dead","lease":1,"attempt":0,"done":1,"blamed":null,"reason":"signal (killed)"}"#.to_string(),
                    r#"{"ev":"complete","simulated":3,"poisoned":0}"#.to_string(),
                ],
                |_, line| object_with(line, "ev"),
            ),
            (
                "search",
                vec![
                    r#"{"v":1,"kind":"header","strategy":"anneal","seed":42}"#.to_string(),
                    r#"{"v":1,"kind":"gen","gen":0,"temp":1,"hv":1.25}"#.to_string(),
                ],
                |_, line| object_with(line, "kind"),
            ),
            (
                "profiles",
                vec![
                    seal(r#"{"schema":1,"key":"aaaa","app":"hydro","phases":{"net-replay":25}}"#),
                    seal(r#"{"schema":1,"key":"bbbb","app":"spmz","phases":{}}"#),
                ],
                sealed_line,
            ),
            (
                "sessions",
                vec![session("sequential", 3), session("pool-worker", 0)],
                |n, line| crate::cache::classify_session(n, line).map(drop),
            ),
        ]
    }

    /// Truncating a line log at **every** byte offset keeps exactly the
    /// complete lines plus the final fragment iff it classifies clean
    /// (a crash between a record and its newline); the rest is a torn
    /// tail, never corruption. A repairing open then makes the next
    /// append land on a line of its own. Exhaustive rather than
    /// sampled, for every family's line shape.
    #[test]
    fn every_family_survives_truncation_at_every_offset() {
        let dir = std::env::temp_dir().join(format!("musa-linelog-cut-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log.jsonl");
        for (family, lines, classify) in families() {
            let full: String = lines.iter().map(|l| format!("{l}\n")).collect();
            let bytes = full.as_bytes();
            for n in 0..=bytes.len() {
                let complete = bytes[..n].iter().filter(|&&b| b == b'\n').count();
                let tail_start = bytes[..n]
                    .iter()
                    .rposition(|&b| b == b'\n')
                    .map_or(0, |p| p + 1);
                let tail = &full[tail_start..n];
                let tail_ok = !tail.is_empty() && classify(complete + 1, tail).is_ok();
                let expected = complete + usize::from(tail_ok);
                let tail_state = match (tail.is_empty(), tail_ok) {
                    (true, _) => Tail::Clean,
                    (false, true) => Tail::Unterminated,
                    (false, false) => Tail::Torn,
                };

                std::fs::write(&path, &bytes[..n]).unwrap();
                let found = scan(&path, classify).unwrap();
                assert!(
                    found.lines.iter().all(|l| l.class.is_ok()),
                    "{family}: cut at byte {n}"
                );
                let kept: Vec<&str> = found.lines.iter().map(|l| l.raw.as_str()).collect();
                assert_eq!(kept, lines[..expected], "{family}: cut at byte {n}");
                assert_eq!(found.tail, tail_state, "{family}: cut at byte {n}");

                let (_, mut log) = open_repairing(
                    &path,
                    classify,
                    OnCorrupt::Quarantine(&dir),
                    "store.rewrite",
                )
                .unwrap();
                log.append(&lines[0]);
                log.flush().unwrap();
                drop(log);
                let after = scan(&path, classify).unwrap();
                assert_eq!(after.tail, Tail::Clean, "{family}: cut at byte {n}");
                let kept: Vec<&str> = after.lines.iter().map(|l| l.raw.as_str()).collect();
                assert_eq!(kept.len(), expected + 1, "{family}: cut at byte {n}");
                assert_eq!(kept[..expected], lines[..expected]);
                assert_eq!(kept[expected], lines[0], "{family}: cut at byte {n}");
            }
        }
        assert!(
            !dir.join(QUARANTINE_FILE).exists(),
            "a truncation is crash residue, never quarantined"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
