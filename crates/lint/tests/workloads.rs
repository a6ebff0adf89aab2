//! The lint engine against every pre-existing workload: zero false
//! positives on the clean programs, exactly the paper's own dead store on
//! Fig. 10, cache-warm runs that re-lint nothing, and byte-identical
//! output at any thread count.

use araa::{Analysis, AnalysisOptions};
use lint::{LintCache, LintOptions, Rule, Severity};
use support::obs::{self, ClockKind, Collector, Counter};
use support::testdir::TestDir;

fn analyze(srcs: &[workloads::GenSource]) -> Analysis {
    Analysis::analyze(srcs, AnalysisOptions::default()).expect("analysis succeeds")
}

#[test]
fn pre_existing_clean_workloads_are_finding_free() {
    let clean: Vec<(&str, Vec<workloads::GenSource>)> = vec![
        ("fig1", vec![workloads::fig1::source()]),
        ("mini_lu", workloads::mini_lu::sources()),
        ("stencil", vec![workloads::stencil::source()]),
        ("caf", vec![workloads::caf::source()]),
        ("synthetic", vec![workloads::synthetic::generate(&Default::default())]),
    ];
    for (name, srcs) in clean {
        let a = analyze(&srcs);
        let report = lint::run(&a, &LintOptions::default());
        assert!(
            report.findings.is_empty(),
            "{name} must be finding-free, got:\n{}",
            report.render()
        );
        assert!(report.degradations.is_empty(), "{name} must not degrade");
    }
}

#[test]
fn fig10_reports_exactly_the_papers_dead_store() {
    // The paper's Fig. 10 evidence: `aarr` is declared `aarr[20]`, written
    // at `aarr[1..8]`, read only at `aarr[0..7]` — the store to index 8 is
    // dead, which is why the tool shrinks the declaration to `aarr[8]`.
    let a = analyze(&[workloads::fig10::source()]);
    let report = lint::run(&a, &LintOptions::default());
    assert_eq!(report.findings.len(), 1, "{}", report.render());
    let f = &report.findings[0];
    assert_eq!(f.rule, Rule::Dst03);
    assert_eq!(f.severity, Severity::Definite);
    assert_eq!(f.file, "matrix.c");
    assert_eq!(f.array, "aarr");
    assert!(f.line > 0, "finding carries a source anchor");
    assert!(f.message.contains("element 8"), "{}", f.message);
}

#[test]
fn warm_cache_relints_nothing_and_matches_cold_byte_for_byte() {
    let dir = TestDir::new("lint-warm");
    let srcs = workloads::mini_lu::sources();
    let a = analyze(&srcs);

    let mut cache = LintCache::empty();
    let cold = lint::run_with_cache(&a, &LintOptions::default(), &mut cache);
    assert_eq!(cold.procs_cached, 0);
    assert!(cold.procs_linted > 0);
    cache.save(dir.path()).expect("cache saves");

    // Reload from disk and lint the same analysis again: everything must
    // come from the cache, and the report must not change by one byte.
    let (mut warm_cache, incidents) = LintCache::load(dir.path());
    assert!(incidents.is_empty(), "{incidents:?}");
    let c = Collector::new(ClockKind::Logical);
    let warm = {
        let _g = obs::attach(c.clone());
        lint::run_with_cache(&a, &LintOptions::default(), &mut warm_cache)
    };
    assert_eq!(warm.procs_linted, 0, "warm run must re-lint nothing");
    assert_eq!(warm.procs_cached, cold.procs_linted);
    // Findings and refutation counts are byte-identical; only the
    // linted/cached accounting in the summary line may differ.
    assert_eq!(warm.findings, cold.findings, "warm findings differ from cold");
    assert_eq!(warm.suppressed, cold.suppressed);
    assert_eq!(c.counter(Counter::LintCached), warm.procs_cached as u64);
    assert_eq!(c.counter(Counter::LintRelinted), 0);
}

#[test]
fn editing_one_file_relints_only_affected_procedures() {
    let mut srcs = workloads::mini_lu::sources();
    let a = analyze(&srcs);
    let mut cache = LintCache::empty();
    lint::run_with_cache(&a, &LintOptions::default(), &mut cache);

    // Shrink one loop in rhs.f: `rhs` (and the ancestors whose propagated
    // summaries embed its regions) must re-lint; the rest must not.
    let rhs = srcs.iter_mut().find(|s| s.name == "rhs.f").expect("rhs.f");
    rhs.text = rhs.text.replace("do k = 1, 10", "do k = 1, 7");
    let edited = analyze(&srcs);
    let report = lint::run_with_cache(&edited, &LintOptions::default(), &mut cache);
    assert!(report.procs_linted > 0, "the edited procedure must re-lint");
    assert!(report.procs_cached > 0, "untouched procedures must stay cached");
    assert!(report.findings.is_empty(), "the edit introduces no defect");
}

#[test]
fn thread_count_does_not_change_a_single_byte() {
    let mut srcs = workloads::mini_lu::sources();
    srcs.push(workloads::fig10::source());
    let a = analyze(&srcs);
    // Lint under an attached collector: worker threads must record into it
    // exactly as the serial run does, so the counters match too.
    let observed = |threads: usize| {
        let c = Collector::new(ClockKind::Logical);
        let report = {
            let _g = obs::attach(c.clone());
            lint::run(&a, &LintOptions { threads })
        };
        (report, c.snapshot().counters)
    };
    let (serial, serial_counters) = observed(1);
    let (threaded, threaded_counters) = observed(8);
    assert_eq!(serial.render(), threaded.render());
    assert_eq!(
        lint::sarif::to_sarif(&serial, "test"),
        lint::sarif::to_sarif(&threaded, "test")
    );
    assert_eq!(serial_counters, threaded_counters, "counters depend on thread count");
}

/// A main that writes `t(1:5)` of its local `t(10)`, optionally stores
/// through an index array as well (an interval-precision DEF), then calls a
/// reader of `t(1:10)` from three lines. The three propagated USEs share
/// one region, so UBD-02 decides it once.
fn repeated_reader(interval_def: bool) -> workloads::GenSource {
    let gather = if interval_def {
        "  do i = 1, 3\n    idx(i) = 11 - i\n  end do\n  do i = 1, 3\n    t(idx(i)) = 2.0\n  end do\n"
    } else {
        ""
    };
    workloads::GenSource::fortran(
        "reader.f",
        format!(
            "program main
  double precision t(10)
  integer idx(3)
  integer i
  do i = 1, 5
    t(i) = 1.0
  end do
{gather}  call reader(t)
  call reader(t)
  call reader(t)
end program main

subroutine reader(x)
  double precision x(10)
  double precision s
  integer i
  s = 0.0
  do i = 1, 10
    s = s + x(i)
  end do
end subroutine reader
"
        ),
    )
}

#[test]
fn shared_use_regions_still_report_every_call_line() {
    for (interval_def, severity, first_call) in
        [(false, Severity::Definite, 8), (true, Severity::Possible, 14)]
    {
        let a = analyze(&[repeated_reader(interval_def)]);
        let serial = lint::run(&a, &LintOptions { threads: 1 });
        let ubd: Vec<_> = serial.findings.iter().filter(|f| f.rule == Rule::Ubd02).collect();
        let lines: Vec<u32> = ubd.iter().map(|f| f.line).collect();
        assert_eq!(lines, [first_call, first_call + 1, first_call + 2], "{}", serial.render());
        for f in &ubd {
            assert_eq!(f.severity, severity, "{}", serial.render());
            assert_eq!(f.array, "t");
            assert!(f.message.contains("element 5"), "{}", f.message);
        }
        let threaded = lint::run(&a, &LintOptions { threads: 8 });
        assert_eq!(
            lint::sarif::to_sarif(&serial, "test"),
            lint::sarif::to_sarif(&threaded, "test")
        );
    }
}
