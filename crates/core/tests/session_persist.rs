//! End-to-end tests of the on-disk session cache: round-trips, warm-from-disk
//! equivalence with cold runs, corruption quarantine, the lock protocol, and
//! crash consistency at every registered persistence faultpoint.

use araa::{Analysis, AnalysisOptions, AnalysisSession, SessionStore};
use std::sync::{Mutex, MutexGuard};
use support::testdir::TestDir;
use workloads::GenSource;

/// The faultpoint registry is process-global: a point armed by a crash
/// test fires in whichever test persists next, so every test in this file
/// holds one lock.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

const MAIN_F: &str = "\
program main
  real a(20)
  common /g/ a
  integer i
  do i = 1, 10
    a(i) = 0.0
  end do
  call mid
end
";
const MID_F: &str = "\
subroutine mid
  real a(20)
  common /g/ a
  a(11) = 1.0
  call leaf
end
";
const LEAF_F: &str = "\
subroutine leaf
  real a(20)
  common /g/ a
  integer i
  do i = 12, 20
    a(i) = 2.0
  end do
end
";
const LEAF_F_EDITED: &str = "\
subroutine leaf
  real a(20)
  common /g/ a
  integer i
  do i = 12, 18
    a(i) = 2.0
  end do
end
";

fn files(leaf: &str) -> Vec<GenSource> {
    vec![
        GenSource::fortran("main.f", MAIN_F),
        GenSource::fortran("mid.f", MID_F),
        GenSource::fortran("leaf.f", leaf),
    ]
}

fn cold(sources: &[GenSource]) -> Analysis {
    Analysis::analyze(sources, AnalysisOptions::default()).expect("cold run")
}

/// Paths of the content-addressed entry files currently in `dir`.
fn entry_paths(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
    let mut out: Vec<_> = std::fs::read_dir(dir)
        .expect("cache dir exists")
        .flatten()
        .filter(|e| {
            let n = e.file_name();
            let n = n.to_string_lossy();
            n.starts_with('e') && n.ends_with(".araa") && n.len() == 22
        })
        .map(|e| e.path())
        .collect();
    out.sort();
    out
}

fn flip_byte(path: &std::path::Path, offset_from_mid: i64) {
    let mut bytes = std::fs::read(path).expect("readable");
    let at = (bytes.len() as i64 / 2 + offset_from_mid)
        .clamp(0, bytes.len() as i64 - 1) as usize;
    bytes[at] ^= 0x20;
    std::fs::write(path, bytes).expect("writable");
}

fn seed(dir: &std::path::Path, sources: &[GenSource]) -> Analysis {
    let mut s = AnalysisSession::with_cache_dir(AnalysisOptions::default(), dir);
    s.update(sources).expect("seed update");
    assert!(s.persist(), "seed persist: {:?}", s.cache_incidents());
    assert!(s.cache_incidents().is_empty(), "{:?}", s.cache_incidents());
    s.into_analysis().expect("seeded analysis")
}

#[test]
fn persist_and_reload_round_trip() {
    let _guard = serial();
    let dir = TestDir::new("persist-roundtrip");
    let sources = files(LEAF_F);
    let seeded = seed(dir.path(), &sources);

    let mut warm = AnalysisSession::with_cache_dir(AnalysisOptions::default(), dir.path());
    assert!(warm.load(), "manifest present, load must succeed");
    assert!(warm.cache_incidents().is_empty(), "{:?}", warm.cache_incidents());
    let delta = warm.update(&sources).expect("warm update");
    assert_eq!(delta.summary_cache_misses, 0, "{delta:?}");
    assert!(delta.summaries_recomputed.is_empty(), "{delta:?}");
    assert_eq!(delta.rows_recomputed, 0, "{delta:?}");
    let a = warm.analysis().expect("analysis");
    assert_eq!(a.rows, seeded.rows);
    assert_eq!(a.degradations, seeded.degradations);
    let oracle = cold(&sources);
    assert_eq!(a.rows, oracle.rows, "warm-from-disk must be byte-identical to cold");
    assert_eq!(a.degradations, oracle.degradations);
}

#[test]
fn warm_from_disk_matches_cold_after_edit() {
    let _guard = serial();
    let dir = TestDir::new("persist-edit");
    seed(dir.path(), &files(LEAF_F));

    let edited = files(LEAF_F_EDITED);
    let mut warm = AnalysisSession::with_cache_dir(AnalysisOptions::default(), dir.path());
    assert!(warm.load());
    let delta = warm.update(&edited).expect("warm update");
    assert_eq!(delta.summaries_recomputed, vec!["leaf".to_string()], "{delta:?}");
    assert_eq!(delta.summary_cache_hits, 2, "{delta:?}");
    let oracle = cold(&edited);
    let a = warm.analysis().expect("analysis");
    assert_eq!(a.rows, oracle.rows);
    assert_eq!(a.degradations, oracle.degradations);
    // And the refreshed state persists over the old one.
    assert!(warm.persist());
    let mut again = AnalysisSession::with_cache_dir(AnalysisOptions::default(), dir.path());
    assert!(again.load());
    let d2 = again.update(&edited).expect("second warm update");
    assert_eq!(d2.summary_cache_misses, 0, "{d2:?}");
    assert_eq!(again.analysis().expect("analysis").rows, oracle.rows);
}

#[test]
fn warm_from_disk_mini_lu_identical() {
    let _guard = serial();
    let dir = TestDir::new("persist-minilu");
    let sources = workloads::mini_lu::sources();
    seed(dir.path(), &sources);

    let mut warm = AnalysisSession::with_cache_dir(AnalysisOptions::default(), dir.path());
    assert!(warm.load());
    let delta = warm.update(&sources).expect("warm update");
    assert_eq!(delta.summary_cache_misses, 0, "{delta:?}");
    let oracle = cold(&sources);
    let a = warm.analysis().expect("analysis");
    assert_eq!(a.rows, oracle.rows);
    assert_eq!(a.degradations, oracle.degradations);
}

#[test]
fn sessions_without_cache_dir_are_unaffected() {
    let _guard = serial();
    let mut s = AnalysisSession::new(AnalysisOptions::default());
    assert!(!s.load());
    s.update(&files(LEAF_F)).expect("update");
    assert!(!s.persist());
    assert!(s.store().is_none());
    assert!(s.cache_incidents().is_empty());
}

#[test]
fn empty_cache_dir_loads_cold_without_incident() {
    let _guard = serial();
    let dir = TestDir::new("persist-empty");
    let mut s = AnalysisSession::with_cache_dir(AnalysisOptions::default(), dir.path());
    assert!(!s.load(), "nothing to load");
    assert!(s.cache_incidents().is_empty(), "{:?}", s.cache_incidents());
}

#[test]
fn corrupt_entry_is_quarantined_and_recomputed() {
    let _guard = serial();
    let dir = TestDir::new("persist-badentry");
    let sources = files(LEAF_F);
    seed(dir.path(), &sources);
    let entries = entry_paths(dir.path());
    assert_eq!(entries.len(), 3, "one entry per procedure");
    flip_byte(&entries[1], 0);

    let mut warm = AnalysisSession::with_cache_dir(AnalysisOptions::default(), dir.path());
    assert!(warm.load(), "partial load still succeeds");
    assert!(
        !warm.cache_incidents().is_empty(),
        "corruption must be reported"
    );
    assert!(
        warm.cache_incidents().iter().any(|d| d.stage == "cache"
            && d.detail.contains("rejected")
            && d.detail.contains("quarantine")),
        "{:?}",
        warm.cache_incidents()
    );
    assert!(!entries[1].exists(), "rejected entry must be moved aside, not left");
    let quarantined: Vec<_> = std::fs::read_dir(dir.path().join("quarantine"))
        .expect("quarantine dir exists")
        .flatten()
        .collect();
    assert_eq!(quarantined.len(), 1, "the evidence is preserved");

    let delta = warm.update(&sources).expect("warm update");
    assert_eq!(delta.summary_cache_misses, 1, "exactly the corrupt procedure: {delta:?}");
    assert_eq!(delta.summary_cache_hits, 2, "{delta:?}");
    let oracle = cold(&sources);
    let a = warm.analysis().expect("analysis");
    assert_eq!(a.rows, oracle.rows);
    assert_eq!(a.degradations, oracle.degradations);
}

#[test]
fn corrupt_manifest_quarantines_and_starts_cold() {
    let _guard = serial();
    let dir = TestDir::new("persist-badmanifest");
    let sources = files(LEAF_F);
    seed(dir.path(), &sources);
    let mpath = dir.path().join("manifest.araa");
    flip_byte(&mpath, 3);

    let mut s = AnalysisSession::with_cache_dir(AnalysisOptions::default(), dir.path());
    assert!(!s.load(), "rejected manifest means cold start");
    assert!(!mpath.exists(), "rejected manifest must be moved aside");
    assert!(
        s.cache_incidents().iter().any(|d| d.detail.contains("manifest rejected")),
        "{:?}",
        s.cache_incidents()
    );
    let a = s.update(&sources).expect("cold update still works");
    assert!(a.summary_cache_misses > 0);
    let oracle = cold(&sources);
    assert_eq!(s.analysis().expect("analysis").rows, oracle.rows);
    // Re-persisting over the quarantined wreck works.
    assert!(s.persist());
    let mut again = AnalysisSession::with_cache_dir(AnalysisOptions::default(), dir.path());
    assert!(again.load());
}

#[test]
fn truncated_manifest_is_rejected_cleanly() {
    let _guard = serial();
    let dir = TestDir::new("persist-truncmanifest");
    let sources = files(LEAF_F);
    seed(dir.path(), &sources);
    let mpath = dir.path().join("manifest.araa");
    let bytes = std::fs::read(&mpath).expect("readable");
    std::fs::write(&mpath, &bytes[..bytes.len() / 3]).expect("writable");

    let mut s = AnalysisSession::with_cache_dir(AnalysisOptions::default(), dir.path());
    assert!(!s.load());
    assert!(!mpath.exists());
    let oracle = cold(&sources);
    s.update(&sources).expect("cold update");
    assert_eq!(s.analysis().expect("analysis").rows, oracle.rows);
}

#[test]
fn different_options_quarantine_the_manifest() {
    let _guard = serial();
    let dir = TestDir::new("persist-fingerprint");
    seed(dir.path(), &files(LEAF_F));

    let opts = AnalysisOptions::builder().include_propagated(false).build();
    let mut s = AnalysisSession::with_cache_dir(opts, dir.path());
    assert!(!s.load(), "other options' cache must not be reused");
    assert!(
        s.cache_incidents().iter().any(|d| d.detail.contains("fingerprint")),
        "{:?}",
        s.cache_incidents()
    );
}

#[test]
fn stale_lock_is_taken_over() {
    let _guard = serial();
    let dir = TestDir::new("persist-stalelock");
    let sources = files(LEAF_F);
    seed(dir.path(), &sources);
    // A lock left behind by a crashed process (a pid far beyond pid_max).
    std::fs::write(dir.path().join("LOCK"), "4000000000\n").expect("plant stale lock");

    let mut s = AnalysisSession::with_cache_dir(AnalysisOptions::default(), dir.path());
    assert!(s.load(), "stale lock must be broken, not waited on");
    assert!(s.cache_incidents().is_empty(), "{:?}", s.cache_incidents());
    let delta = s.update(&sources).expect("warm update");
    assert_eq!(delta.summary_cache_misses, 0, "{delta:?}");
}

#[test]
fn two_sessions_share_a_cache_dir_without_cross_talk() {
    let _guard = serial();
    let dir = TestDir::new("persist-shared");
    let v1 = files(LEAF_F);
    let v2 = files(LEAF_F_EDITED);

    // Session A seeds the cache with v1.
    let mut a = AnalysisSession::with_cache_dir(AnalysisOptions::default(), dir.path());
    a.update(&v1).expect("A update");
    assert!(a.persist());

    // Session B (a different session, same dir) warms from A's state and
    // moves the cache to v2.
    let mut b = AnalysisSession::with_cache_dir(AnalysisOptions::default(), dir.path());
    assert!(b.load());
    let db = b.update(&v2).expect("B update");
    assert_eq!(db.summaries_recomputed, vec!["leaf".to_string()], "{db:?}");
    assert!(b.persist());

    // A new session now sees exactly B's state; nothing was quarantined.
    let mut c = AnalysisSession::with_cache_dir(AnalysisOptions::default(), dir.path());
    assert!(c.load());
    assert!(c.cache_incidents().is_empty(), "{:?}", c.cache_incidents());
    let dc = c.update(&v2).expect("C update");
    assert_eq!(dc.summary_cache_misses, 0, "{dc:?}");
    assert_eq!(c.analysis().expect("analysis").rows, cold(&v2).rows);
    assert!(!dir.path().join("quarantine").exists(), "no file was ever rejected");
}

#[test]
fn store_stats_verify_and_clear() {
    let _guard = serial();
    let dir = TestDir::new("persist-store-ops");
    let sources = files(LEAF_F);
    seed(dir.path(), &sources);
    let store = SessionStore::new(dir.path(), &AnalysisOptions::default());

    let stats = store.stats().expect("stats");
    assert!(stats.manifest);
    assert_eq!(stats.procedures, 3);
    assert_eq!(stats.sources, 3);
    assert_eq!(stats.entry_files, 3);
    assert!(stats.bytes > 0);
    assert_eq!(stats.quarantined, 0);

    let report = store.verify().expect("verify");
    assert!(report.clean(), "{:?}", report.problems);
    assert_eq!(report.ok, 4, "manifest + 3 entries");
    assert_eq!(report.orphans, 0);

    // Corruption shows up in verify without destroying anything.
    flip_byte(&entry_paths(dir.path())[0], 1);
    let report = store.verify().expect("verify");
    assert!(!report.clean());
    assert_eq!(entry_paths(dir.path()).len(), 3, "verify is read-only");

    let removed = store.clear().expect("clear");
    assert_eq!(removed, 5, "manifest + stats snapshot + 3 entries");
    let stats = store.stats().expect("stats");
    assert!(!stats.manifest);
    assert_eq!(stats.entry_files, 0);
    let mut s = AnalysisSession::with_cache_dir(AnalysisOptions::default(), dir.path());
    assert!(!s.load(), "cleared cache is a clean cold start");
    assert!(s.cache_incidents().is_empty(), "{:?}", s.cache_incidents());
}

#[test]
fn gc_drops_entries_the_new_manifest_does_not_reference() {
    let _guard = serial();
    let dir = TestDir::new("persist-gc");
    let v1 = files(LEAF_F);
    let v2 = files(LEAF_F_EDITED);
    seed(dir.path(), &v1);
    let before = entry_paths(dir.path());
    assert_eq!(before.len(), 3);

    let mut s = AnalysisSession::with_cache_dir(AnalysisOptions::default(), dir.path());
    assert!(s.load());
    s.update(&v2).expect("update");
    assert!(s.persist());
    let after = entry_paths(dir.path());
    assert_eq!(after.len(), 3, "old leaf entry collected, new one written");
    assert_ne!(before, after);
    let store = SessionStore::new(dir.path(), &AnalysisOptions::default());
    let report = store.verify().expect("verify");
    assert!(report.clean(), "{:?}", report.problems);
    assert_eq!(report.orphans, 0);
}

// ---------------------------------------------------------------------------
// Fault injection (crash consistency). These arm the process-global
// faultpoint registry, so they serialize on a mutex.
// ---------------------------------------------------------------------------

#[cfg(feature = "fault-injection")]
mod crashes {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use support::faultpoint;
    use support::persist::{READ_FAULTPOINTS, WRITE_FAULTPOINTS};

    /// Every faultpoint a save can crash at: the four inside
    /// `atomic_write` plus the four in `SessionStore`'s commit protocol.
    const SAVE_FAULTPOINTS: &[&str] = &[
        "persist::torn_write",
        "persist::pre_sync",
        "persist::pre_rename",
        "persist::post_rename",
        "persist::entry_write",
        "persist::pre_manifest",
        "persist::post_manifest",
        "persist::gc",
    ];

    #[test]
    fn save_faultpoint_list_matches_the_registered_ones() {
        for fp in WRITE_FAULTPOINTS {
            assert!(SAVE_FAULTPOINTS.contains(fp), "untested write faultpoint {fp}");
        }
    }

    /// Kills a save at `point` (the `nth` hit) and asserts the cache is
    /// afterwards *fully old or fully new*: a fresh session loads without
    /// quarantining anything and reproduces the cold analysis of whichever
    /// source set survives.
    fn crash_save_then_recover(dir: &std::path::Path, point: &str, nth: u64) {
        let v2 = files(LEAF_F_EDITED);
        let mut s = AnalysisSession::with_cache_dir(AnalysisOptions::default(), dir);
        s.load();
        s.update(&v2).expect("update");
        faultpoint::arm(point, nth);
        let crashed = catch_unwind(AssertUnwindSafe(|| s.persist()));
        faultpoint::disarm_all();
        assert!(crashed.is_err(), "{point}:{nth} must fire during persist");
        drop(s);

        // Nothing on disk may be corrupt: old-or-new, never torn.
        let store = SessionStore::new(dir, &AnalysisOptions::default());
        let report = store.verify().expect("verify");
        let torn: Vec<_> = report
            .problems
            .iter()
            .filter(|p| !p.contains("no manifest"))
            .collect();
        assert!(torn.is_empty(), "{point}:{nth} left a torn cache: {torn:?}");

        let mut r = AnalysisSession::with_cache_dir(AnalysisOptions::default(), dir);
        r.load();
        assert!(
            !r.cache_incidents().iter().any(|d| d.detail.contains("quarantine")),
            "{point}:{nth} forced a quarantine: {:?}",
            r.cache_incidents()
        );
        let oracle = cold(&v2);
        r.update(&v2).expect("recovery update");
        assert_eq!(
            r.analysis().expect("analysis").rows,
            oracle.rows,
            "{point}:{nth} corrupted the recovered analysis"
        );
        // The wreck fully recovers: the next persist leaves a clean cache.
        assert!(r.persist(), "{:?}", r.cache_incidents());
        let report = store.verify().expect("verify");
        assert!(report.clean(), "{point}:{nth}: {:?}", report.problems);
    }

    #[test]
    fn crash_at_every_write_faultpoint_leaves_old_or_new_cache() {
        let _guard = serial();
        for point in SAVE_FAULTPOINTS {
            // First hit, over a seeded (old) cache.
            let dir = TestDir::new("crash-seeded");
            seed(dir.path(), &files(LEAF_F));
            crash_save_then_recover(dir.path(), point, 1);

            // First hit, into an empty cache dir (no old state to fall
            // back to: recovery must be a clean cold start).
            let dir = TestDir::new("crash-cold");
            crash_save_then_recover(dir.path(), point, 1);

            // A later hit, so earlier stages complete first (e.g. the
            // manifest's write, not an entry's). Only meaningful for
            // points that fire more than once per save — the manifest
            // stages fire exactly once.
            if !point.contains("manifest") && *point != "persist::gc" {
                let dir = TestDir::new("crash-later");
                seed(dir.path(), &files(LEAF_F));
                crash_save_then_recover(dir.path(), point, 2);
            }
        }
    }

    #[test]
    fn short_read_and_bit_flip_quarantine_and_recompute() {
        let _guard = serial();
        for &point in READ_FAULTPOINTS {
            // Fault the manifest read: cold start, nothing breaks.
            let sources = files(LEAF_F);
            let oracle = cold(&sources);
            let dir = TestDir::new("readfault-manifest");
            seed(dir.path(), &sources);
            faultpoint::arm(point, 1);
            let mut s =
                AnalysisSession::with_cache_dir(AnalysisOptions::default(), dir.path());
            let loaded = s.load();
            faultpoint::disarm_all();
            assert!(!loaded, "{point}: mangled manifest must not load");
            assert!(!s.cache_incidents().is_empty(), "{point}");
            s.update(&sources).expect("cold update");
            assert_eq!(s.analysis().expect("analysis").rows, oracle.rows, "{point}");

            // Fault an entry read: that procedure recomputes, rest hit.
            let dir = TestDir::new("readfault-entry");
            seed(dir.path(), &sources);
            faultpoint::arm(point, 2);
            let mut s =
                AnalysisSession::with_cache_dir(AnalysisOptions::default(), dir.path());
            let loaded = s.load();
            faultpoint::disarm_all();
            assert!(loaded, "{point}: one bad entry must not sink the load");
            assert!(
                s.cache_incidents().iter().any(|d| d.detail.contains("recomputing")),
                "{point}: {:?}",
                s.cache_incidents()
            );
            let delta = s.update(&sources).expect("warm update");
            assert_eq!(delta.summary_cache_misses, 1, "{point}: {delta:?}");
            assert_eq!(s.analysis().expect("analysis").rows, oracle.rows, "{point}");
        }
    }
}
