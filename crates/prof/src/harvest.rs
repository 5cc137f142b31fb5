//! Reading profile files and the cross-process merge.
//!
//! A profile file is a line log of sealed [`PointProfile`] lines on
//! the shared path in [`musa_cache::integrity`]: the same torn-tail
//! rule, classifier-driven scan and quarantine ledger as every other
//! durable family. Reads are lenient — a corrupt line is counted and
//! skipped, because profiles are telemetry and refusing to start a
//! campaign over a damaged one would invert the priorities.
//!
//! [`harvest`] is the merge the supervisor (and the next `--resume`)
//! runs: quarantine corrupt lines, then fold `<dir>/profiles.jsonl`
//! plus every staged `pool/prof-*.jsonl` into one deduplicated,
//! chronologically sorted `profiles.jsonl`, rewritten atomically and
//! the staging files removed only after the rewrite landed. Dedup is
//! by point fingerprint, keeping the **latest attempt** — when a
//! worker died after profiling a point but before its row survived,
//! the re-simulation's record is the one that matches the surviving
//! row.

use std::path::{Path, PathBuf};

use musa_cache::{Scan, Tail};

use crate::record::{PointProfile, PROFILES_FILE, WORKER_PROFILE_PREFIX};

/// What reading / merging profile data found.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HarvestReport {
    /// Valid records after dedup.
    pub records: usize,
    /// Staged worker files merged (and removed).
    pub staged_files: usize,
    /// Records dropped as duplicate attempts of the same point.
    pub duplicates: usize,
    /// Torn final lines dropped (normal crash residue).
    pub torn_tails: usize,
    /// Complete final records missing their newline (kept; the merge
    /// terminates them so the next append cannot join onto them).
    pub unterminated: usize,
    /// Corrupt interior lines skipped (checksum or parse failure).
    pub corrupt: usize,
}

impl HarvestReport {
    /// True when the merge changed anything on disk worth reporting.
    pub fn repaired_anything(&self) -> bool {
        self.staged_files > 0
            || self.duplicates > 0
            || self.torn_tails > 0
            || self.unterminated > 0
            || self.corrupt > 0
    }

    fn absorb_scan(&mut self, scan: &Scan<PointProfile>) {
        self.torn_tails += usize::from(scan.tail == Tail::Torn);
        self.unterminated += usize::from(scan.tail == Tail::Unterminated);
        self.corrupt += scan.corrupt().count();
    }
}

/// The profile family's line classifier; its error is the quarantine
/// reason.
pub fn classify_line(_line_no: usize, line: &str) -> Result<PointProfile, String> {
    PointProfile::parse(line).ok_or_else(|| "profile record failed checksum or parse".to_string())
}

/// Read one profile file leniently. Missing file ⇒ empty. Records come
/// back in file order.
pub fn read_profile_file(path: &Path) -> std::io::Result<(Vec<PointProfile>, HarvestReport)> {
    let scan = musa_cache::scan(path, classify_line)?;
    let mut report = HarvestReport::default();
    report.absorb_scan(&scan);
    let records = scan.values();
    report.records = records.len();
    Ok((records, report))
}

/// Every profile file under `dir`: `profiles.jsonl`, then the staged
/// per-worker files under `<dir>/pool`, sorted.
pub fn profile_files(dir: &Path) -> Vec<PathBuf> {
    let mut staged: Vec<PathBuf> = std::fs::read_dir(dir.join("pool"))
        .into_iter()
        .flatten()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with(WORKER_PROFILE_PREFIX) && n.ends_with(".jsonl"))
        })
        .collect();
    staged.sort();
    staged.insert(0, dir.join(PROFILES_FILE));
    staged
}

/// Scan, merge, dedup and sort every profile record under `dir`;
/// with `quarantine`, corrupt lines go to the quarantine ledger in
/// `dir` on the way.
fn load(dir: &Path, quarantine: bool) -> std::io::Result<(Vec<PointProfile>, HarvestReport)> {
    let mut report = HarvestReport::default();
    let mut records = Vec::new();
    for (i, path) in profile_files(dir).iter().enumerate() {
        let scan = musa_cache::scan(path, classify_line)?;
        if quarantine {
            scan.quarantine(dir, path)?;
        }
        report.staged_files += usize::from(i > 0);
        report.absorb_scan(&scan);
        records.extend(scan.values());
    }
    let total = records.len();
    records = dedup_latest(records);
    report.duplicates = total - records.len();
    report.records = records.len();
    Ok((records, report))
}

/// Merge, dedup and sort every profile record under `dir` **in
/// memory** — the read path of `dse profile`, which must work on a
/// store directory another process is still writing to.
pub fn load_profiles(dir: &Path) -> std::io::Result<(Vec<PointProfile>, HarvestReport)> {
    load(dir, false)
}

/// Keep the latest attempt per point fingerprint, then sort
/// chronologically (start, pid, tid, key) so the merged file is a
/// deterministic timeline.
fn dedup_latest(mut records: Vec<PointProfile>) -> Vec<PointProfile> {
    records.sort_by(|a, b| {
        (a.start_us, a.pid, a.tid, &a.key).cmp(&(b.start_us, b.pid, b.tid, &b.key))
    });
    let mut by_key: std::collections::HashMap<String, PointProfile> =
        std::collections::HashMap::new();
    for r in records {
        by_key.insert(r.key.clone(), r); // later (sorted) attempt wins
    }
    let mut out: Vec<PointProfile> = by_key.into_values().collect();
    out.sort_by(|a, b| (a.start_us, a.pid, a.tid, &a.key).cmp(&(b.start_us, b.pid, b.tid, &b.key)));
    out
}

/// Repair + merge on disk: quarantine corrupt lines, fold staged
/// worker files and crash residue into `<dir>/profiles.jsonl` with an
/// atomic rewrite, then remove the staging files. Idempotent; a no-op
/// (no rewrite) when there is nothing to repair. Survives kill -9 at
/// any instruction: quarantine precedes the rewrite (the ledger
/// dedupes a replay), and staging files are only removed after the
/// rewrite landed (a crash between the two re-merges them harmlessly —
/// dedup makes the merge idempotent).
pub fn harvest(dir: &Path) -> std::io::Result<HarvestReport> {
    let (records, report) = load(dir, true)?;
    if !report.repaired_anything() {
        return Ok(report);
    }
    musa_cache::rewrite(
        &dir.join(PROFILES_FILE),
        records.iter().map(PointProfile::to_line),
        "prof.rewrite",
    )?;
    for staged in &profile_files(dir)[1..] {
        let _ = std::fs::remove_file(staged);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::sample;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("musa-prof-h-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_lines(path: &Path, records: &[PointProfile], torn: Option<&str>) {
        let mut text = String::new();
        for r in records {
            text.push_str(&r.to_line());
            text.push('\n');
        }
        if let Some(tail) = torn {
            text.push_str(tail); // no newline: a torn final append
        }
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, text).unwrap();
    }

    #[test]
    fn missing_files_read_as_empty() {
        let dir = tmp_dir("empty");
        let (records, report) = load_profiles(&dir).unwrap();
        assert!(records.is_empty());
        assert_eq!(report, HarvestReport::default());
        // Harvest of an empty dir creates nothing.
        harvest(&dir).unwrap();
        assert!(!dir.join(PROFILES_FILE).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn harvest_merges_staged_dedups_and_repairs_torn_tail() {
        let dir = tmp_dir("merge");
        let mut a = sample("aaaa", "hydro", "c64", 100);
        a.start_us = 1000;
        let mut b = sample("bbbb", "hydro", "c128", 200);
        b.start_us = 2000;
        // The sequential file holds a, b, and a torn tail.
        write_lines(
            &dir.join(PROFILES_FILE),
            &[a.clone(), b.clone()],
            Some("{\"schema\":1,\"key\":\"tor"),
        );
        // A staged worker file re-simulated b (later attempt) and adds c.
        let mut b2 = sample("bbbb", "hydro", "c128", 999);
        b2.start_us = 5000;
        b2.worker = "l0001-a1".into();
        let mut c = sample("cccc", "spmz", "c64", 300);
        c.start_us = 3000;
        write_lines(
            &dir.join("pool/prof-l0001-a1.jsonl"),
            &[b2.clone(), c.clone()],
            None,
        );

        let report = harvest(&dir).unwrap();
        assert_eq!(report.staged_files, 1);
        assert_eq!(report.torn_tails, 1);
        assert_eq!(report.duplicates, 1);
        assert_eq!(report.records, 3);
        // Staging removed, merged file clean and chronologically sorted.
        assert_eq!(profile_files(&dir).len(), 1);
        let (records, clean) = load_profiles(&dir).unwrap();
        assert_eq!(clean.torn_tails + clean.corrupt + clean.duplicates, 0);
        assert_eq!(
            records.iter().map(|r| r.key.as_str()).collect::<Vec<_>>(),
            ["aaaa", "cccc", "bbbb"]
        );
        // The later attempt of b won.
        assert_eq!(records[2].wall_ns, 999);
        assert_eq!(records[2].worker, "l0001-a1");

        // Idempotent: a second harvest changes nothing.
        let again = harvest(&dir).unwrap();
        assert!(!again.repaired_anything());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_interior_lines_are_skipped_not_fatal() {
        let dir = tmp_dir("corrupt");
        let a = sample("aaaa", "hydro", "c64", 100);
        let b = sample("bbbb", "hydro", "c128", 200);
        let mut text = a.to_line();
        text.push('\n');
        text.push_str("this is not json\n");
        text.push_str(&b.to_line());
        text.push('\n');
        std::fs::write(dir.join(PROFILES_FILE), text).unwrap();
        let (records, report) = load_profiles(&dir).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(report.corrupt, 1);
        assert_eq!(report.torn_tails, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A final record missing only its newline is complete: harvest
    /// keeps and terminates it, so the recorder's next append (the
    /// path `install_store_recorder` takes) lands on a line of its own
    /// and both records read back.
    #[test]
    fn unterminated_final_record_survives_the_next_append() {
        let dir = tmp_dir("unterminated");
        let a = sample("aaaa", "hydro", "c64", 100);
        let b = sample("bbbb", "spmz", "c64", 200);
        std::fs::write(dir.join(PROFILES_FILE), a.to_line()).unwrap();

        let report = harvest(&dir).unwrap();
        assert_eq!((report.unterminated, report.torn_tails), (1, 0));
        let mut log = musa_cache::LineLog::open(&dir.join(PROFILES_FILE)).unwrap();
        log.append(&b.to_line());
        log.flush().unwrap();

        let (records, stats) = read_profile_file(&dir.join(PROFILES_FILE)).unwrap();
        assert_eq!(records, [a, b]);
        assert_eq!((stats.corrupt, stats.torn_tails), (0, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
