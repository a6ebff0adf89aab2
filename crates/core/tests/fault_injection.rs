//! Fault-injection tests of the pipeline's per-procedure isolation.
//!
//! Each test arms one named faultpoint (see `support::faultpoint`) so that
//! a pipeline stage panics mid-analysis, then asserts the contract of the
//! robustness work: the run still returns `Ok`, the failure shows up as a
//! structured degradation, and every *other* procedure still produces rows.
//!
//! Run with `cargo test -p araa --features fault-injection`.
#![cfg(feature = "fault-injection")]

use araa::{Analysis, AnalysisOptions};
use std::sync::Mutex;
use support::faultpoint;

/// The faultpoint registry is process-global and cargo runs tests on
/// multiple threads, so each test holds this lock while a point is armed.
static ARMED: Mutex<()> = Mutex::new(());

fn run_with_fault(point: &str, nth: u64, opts: AnalysisOptions) -> Analysis {
    let _guard = ARMED.lock().unwrap_or_else(|p| p.into_inner());
    faultpoint::arm(point, nth);
    let result = Analysis::analyze(&workloads::mini_lu::sources(), opts);
    faultpoint::disarm_all();
    result.unwrap_or_else(|e| panic!("fault at {point} must degrade, not fail: {e}"))
}

/// Distinct procedures that produced at least one row.
fn procs_with_rows(a: &Analysis) -> usize {
    let mut names: Vec<&str> = a.rows.iter().map(|r| r.proc.as_str()).collect();
    names.sort_unstable();
    names.dedup();
    names.len()
}

fn baseline() -> (usize, usize) {
    // Holds the lock too: a point armed by a concurrent test must not fire
    // inside the clean run.
    let _guard = ARMED.lock().unwrap_or_else(|p| p.into_inner());
    let a = Analysis::analyze(&workloads::mini_lu::sources(), AnalysisOptions::default())
        .expect("clean baseline");
    assert!(!a.degraded());
    (a.rows.len(), procs_with_rows(&a))
}

#[test]
fn panic_in_one_ipl_summary_spares_the_rest() {
    let (_, baseline_procs) = baseline();
    let a = run_with_fault("ipl::summarize", 1, AnalysisOptions::default());
    assert!(a.degraded(), "injected panic must surface as a degradation");
    assert!(
        a.degradations.iter().any(|d| d.stage == "ipl"),
        "expected an ipl-stage degradation: {:?}",
        a.degradations
    );
    assert!(
        a.degradations.iter().all(|d| d.detail.contains("fault injected")),
        "degradation detail should carry the panic message: {:?}",
        a.degradations
    );
    // The faulted procedure got a conservative summary, so rows survive for
    // at least every other procedure.
    assert!(
        procs_with_rows(&a) >= baseline_procs - 1,
        "one fault must not take out other procedures' rows"
    );
    assert!(!a.degradation_report().is_empty());
}

#[test]
fn panic_in_parallel_ipl_is_contained_too() {
    let (_, baseline_procs) = baseline();
    let opts = AnalysisOptions::builder().threads(4).build();
    let a = run_with_fault("ipl::summarize", 3, opts);
    assert!(a.degradations.iter().any(|d| d.stage == "ipl"));
    assert!(procs_with_rows(&a) >= baseline_procs - 1);
}

#[test]
fn panic_during_propagation_falls_back_to_local_summaries() {
    let a = run_with_fault("ipa::translate", 1, AnalysisOptions::default());
    assert!(
        a.degradations.iter().any(|d| d.stage == "ipa"),
        "expected an ipa-stage degradation: {:?}",
        a.degradations
    );
    // Local (non-propagated) summaries still yield rows for every procedure.
    let (_, baseline_procs) = baseline();
    assert_eq!(procs_with_rows(&a), baseline_procs);
}

#[test]
fn panic_inside_fourier_motzkin_degrades_one_procedure() {
    let (_, baseline_procs) = baseline();
    let a = run_with_fault("fm::eliminate", 1, AnalysisOptions::default());
    assert!(a.degraded());
    assert!(procs_with_rows(&a) >= baseline_procs - 1);
}

#[test]
fn panic_while_extracting_rows_keeps_other_procedures_rows() {
    let (baseline_rows, _) = baseline();
    let a = run_with_fault("extract::rows", 1, AnalysisOptions::default());
    assert!(
        a.degradations.iter().any(|d| d.stage == "extract"),
        "expected an extract-stage degradation: {:?}",
        a.degradations
    );
    assert!(!a.rows.is_empty(), "other procedures' rows must survive");
    assert!(a.rows.len() < baseline_rows, "the faulted procedure's rows are gone");
}

#[test]
fn unarmed_faultpoints_change_nothing() {
    let _guard = ARMED.lock().unwrap_or_else(|p| p.into_inner());
    faultpoint::disarm_all();
    let a = Analysis::analyze(&workloads::mini_lu::sources(), AnalysisOptions::default())
        .expect("clean run");
    assert!(!a.degraded());
}

/// Drives `ipa::isolate::summarize_subset_isolated` on four workers
/// directly: a worker panic must degrade exactly the faulted procedure's
/// summary to the conservative whole-array fallback, leaving every other
/// summary untouched.
#[test]
fn parallel_worker_panic_degrades_one_summary_in_place() {
    use frontend::{compile_to_h, SourceFile, DEFAULT_LAYOUT_BASE};
    let _guard = ARMED.lock().unwrap_or_else(|p| p.into_inner());
    faultpoint::disarm_all();
    let srcs: Vec<SourceFile> =
        workloads::mini_lu::sources().iter().map(SourceFile::from).collect();
    let program = compile_to_h(&srcs, DEFAULT_LAYOUT_BASE).expect("mini_lu compiles");
    let ids: Vec<whirl::ProcId> = program.procedures.indices().collect();
    let summarize_all = || -> Vec<ipa::ProcSummary> {
        ipa::isolate::summarize_subset_isolated(&program, &ids, 4, Default::default())
            .into_iter()
            .map(|(_, summary, _)| summary)
            .collect()
    };
    let clean = summarize_all();
    faultpoint::arm("ipl::summarize", 2);
    let faulted = summarize_all();
    faultpoint::disarm_all();
    assert_eq!(faulted.len(), program.procedure_count());
    let differing: Vec<usize> = clean
        .iter()
        .zip(&faulted)
        .enumerate()
        .filter(|(_, (c, f))| {
            c.accesses.len() != f.accesses.len()
                || c.accesses.iter().zip(&f.accesses).any(|(a, b)| {
                    a.array != b.array
                        || a.mode != b.mode
                        || a.region != b.region
                        || a.approx != b.approx
                })
        })
        .map(|(i, _)| i)
        .collect();
    assert_eq!(differing.len(), 1, "exactly one summary degrades: {differing:?}");
    assert!(
        faulted[differing[0]].accesses.iter().all(|r| r.approx),
        "the faulted summary is the approximate whole-array fallback"
    );
}

const SESS_MAIN: &str = "\
program main
  real a(20)
  common /g/ a
  integer i
  do i = 1, 10
    a(i) = 0.0
  end do
  call leaf
end
";

const SESS_LEAF: &str = "\
subroutine leaf
  real a(20)
  common /g/ a
  integer i
  do i = 11, 20
    a(i) = 2.0
  end do
end
";

/// A panic during a *warm* incremental update must degrade that update the
/// same way a cold run would — and the session must recover on the next
/// clean update instead of caching the contained failure forever.
#[test]
fn session_warm_update_contains_faults_and_recovers() {
    use araa::AnalysisSession;
    use frontend::SourceFile;
    use whirl::Lang;
    let _guard = ARMED.lock().unwrap_or_else(|p| p.into_inner());
    faultpoint::disarm_all();
    let files = |leaf: &str| {
        vec![
            SourceFile::new("main.f", SESS_MAIN, Lang::Fortran),
            SourceFile::new("leaf.f", leaf, Lang::Fortran),
        ]
    };
    let mut session = AnalysisSession::new(AnalysisOptions::default());
    session.update(files(SESS_LEAF)).expect("cold update");
    let edited = SESS_LEAF.replace("do i = 11, 20", "do i = 11, 18");
    faultpoint::arm("ipl::summarize", 1);
    let warm = session.update(files(&edited));
    faultpoint::disarm_all();
    let warm = warm.expect("faulted warm update must degrade, not fail");
    assert!(
        warm.degradations.iter().any(|d| d.stage == "ipl"),
        "expected a contained ipl degradation: {:?}",
        warm.degradations
    );
    assert!(session.analysis().is_some_and(Analysis::degraded));
    // Reverting the edit dirties `leaf` again (its conservative summary was
    // cached under the *edited* fingerprint), so it recomputes cleanly.
    let recovered = session.update(files(SESS_LEAF)).expect("recovery update");
    assert!(recovered.degradations.is_empty(), "{:?}", recovered.degradations);
    assert!(session.analysis().is_some_and(|a| !a.degraded()));
}
