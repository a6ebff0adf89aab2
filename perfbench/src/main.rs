//! The analyzer's benchmark: end-to-end metrics (untraced) or per-layer
//! metrics (traced) for one workload.
//!
//! ```text
//! perfbench --workload <flat_affine|deep_irregular|serve_mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a human-readable report, then one JSON line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! See `perfbench/README.md` for what each metric means.

mod bench;
mod checks;
mod gen;
mod serve_load;
mod stats;
mod trace;

use bench::{Setup, Workload};
use checks::Wrong;
use stats::{json_num, median, Ledger};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use support::obs::{self, Counter};

// The `dragon` binary installs the counting allocator; so does the
// benchmark, so memory accounting behaves as in the CLI and the traced
// run can read allocation churn.
#[global_allocator]
static ALLOC: support::obs::alloc::CountingAllocator<std::alloc::System> =
    support::obs::alloc::CountingAllocator::new(std::alloc::System);

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Shortest serve slice between batch rounds.
const MIN_SLICE: Duration = Duration::from_secs(2);
/// In-process replay of the serve edits (for `serve.overhead_ms`): edits
/// per project, and how many of them warm up untimed.
const REPLAY_EDITS: usize = 24;
const REPLAY_WARMUP: usize = 4;
/// Entry points the interpreter runs per check.
const DYNAMIC_SAMPLES: usize = 12;

/// Stable 64-bit digest of a document.
pub fn digest(s: &str) -> u64 {
    let mut h = support::hash::StableHasher::new();
    h.write_str(s);
    h.finish()
}

/// Operations attempted and failed (an `Err`, a degradation, a cache
/// incident, or a shed, deadline-expired or error response).
#[derive(Default)]
pub struct Failures {
    pub attempted: u64,
    pub failed: u64,
}

impl Failures {
    pub fn record(&mut self, failed: bool) {
        self.attempted += 1;
        self.failed += u64::from(failed);
    }
}

struct Args {
    workload: Workload,
    workload_name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    rss_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut rss_probe = false;
    let mut i = 0;
    while i < argv.len() {
        let val = || {
            argv.get(i + 1)
                .cloned()
                .ok_or_else(|| format!("{} needs a value", argv[i]))
        };
        match argv[i].as_str() {
            "--workload" => workload = Some(val()?),
            "--seed" => seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = val()? != "0",
            "--rss-probe" => {
                rss_probe = true;
                i += 1;
                continue;
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 2;
    }
    let workload_name = workload.ok_or("--workload is required")?;
    let workload = Workload::parse(&workload_name)
        .ok_or_else(|| format!("unknown workload `{workload_name}`"))?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload,
        workload_name,
        seed,
        seconds,
        trace,
        rss_probe,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.rss_probe {
        rss_probe(&args);
        return;
    }
    let tmp = PathBuf::from(".perfbench_tmp").join(std::process::id().to_string());
    let result = run(&args, &tmp);
    let _ = std::fs::remove_dir_all(&tmp);
    let _ = std::fs::remove_dir(".perfbench_tmp");
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Child-process mode: one cold analysis of the workload's batch program,
/// then report this process's peak resident set.
fn rss_probe(args: &Args) {
    let g = args.workload.batch(args.seed);
    let a = araa::Analysis::analyze(bench::sources(&g.sources), bench::opts());
    let rgn_len = a
        .as_ref()
        .map_or(0, |a| araa::rgn::write_rgn(&a.rows).len());
    let ok = a.as_ref().is_ok_and(|a| !a.degraded()) && rgn_len > 0;
    println!(
        "peak_rss_kb {} ok {}",
        peak_rss_kb().unwrap_or(0),
        u8::from(ok)
    );
}

fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn probe_rss(args: &Args, fails: &mut Failures) -> Option<f64> {
    let exe = std::env::current_exe().ok()?;
    let out = std::process::Command::new(exe)
        .args([
            "--rss-probe",
            "--workload",
            &args.workload_name,
            "--seed",
            &args.seed.to_string(),
        ])
        .output();
    let parsed = out.ok().filter(|o| o.status.success()).and_then(|o| {
        let text = String::from_utf8_lossy(&o.stdout).to_string();
        let f: Vec<&str> = text.split_whitespace().collect();
        match f.as_slice() {
            ["peak_rss_kb", kb, "ok", "1"] => kb.parse::<f64>().ok(),
            _ => None,
        }
    });
    fails.record(parsed.is_none());
    parsed.map(|kb| kb / 1024.0)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn run(args: &Args, tmp: &Path) -> Result<String, String> {
    if args.trace {
        traced(args, tmp)
    } else {
        untraced(args, tmp)
    }
}

/// The reference `.rgn` digests of `src` (variant 0) and `edited`.
fn cold_digest(src: &[workloads::GenSource]) -> Result<u64, String> {
    let a =
        araa::Analysis::analyze(bench::sources(src), bench::opts()).map_err(|e| e.to_string())?;
    Ok(digest(&araa::rgn::write_rgn(&a.rows)))
}

/// Check (c) for the daemon: every `query-rgn` answer equals the cold
/// analysis of the variant the project held.
fn check_served(
    setup: &Setup,
    load: &serve_load::LoadResult,
    wrong: &mut Wrong,
) -> Result<(), String> {
    let mut refs = Vec::new();
    for p in &setup.projects {
        refs.push([cold_digest(&p.variants[0])?, cold_digest(&p.variants[1])?]);
    }
    let mismatched = load
        .served
        .iter()
        .filter(|(p, v, d)| refs[*p][*v] != *d)
        .count();
    wrong.check(mismatched == 0, || {
        format!("{mismatched} query-rgn answer(s) differ from the cold .rgn")
    });
    wrong.check(!load.served.is_empty(), || {
        "the daemon served no query-rgn".to_string()
    });
    Ok(())
}

/// Every edit the run applies changes exactly one file.
fn check_edits(setup: &Setup, wrong: &mut Wrong) {
    checks::one_file_edit("batch", &setup.batch.sources, &setup.batch.edited, wrong);
    for p in &setup.projects {
        checks::one_file_edit(&p.name, &p.variants[0], &p.variants[1], wrong);
    }
}

fn untraced(args: &Args, tmp: &Path) -> Result<String, String> {
    let nproc = nproc();
    let mut fails = Failures::default();
    let mut wrong = Wrong::default();
    let mut setup_s = Vec::new();
    let mut setup = None;
    for k in 0..SETUPS {
        if let Some(prev) = setup.take() {
            Setup::teardown(prev);
        }
        let t = Instant::now();
        setup = Some(Setup::run(
            args.workload,
            args.seed,
            tmp.join(format!("s{k}")),
            nproc,
            &mut fails,
        )?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut setup = setup.ok_or("no set-up")?;
    check_edits(&setup, &mut wrong);
    let batch = &setup.batch;
    let ref_a = setup
        .session
        .analysis()
        .map(|a| digest(&araa::rgn::write_rgn(&a.rows)))
        .unwrap_or(0);

    // The window alternates batch rounds with serve slices sized so that
    // serve traffic gets its share of the time; both groups of metrics
    // then sample the whole window.
    let rss: Vec<f64> = probe_rss(args, &mut fails).into_iter().collect();
    let start = Instant::now();
    let window = Duration::from_secs_f64(args.seconds);
    let share = args.workload.serve_share();
    let clients = nproc.min(2);
    let mut loop_state = serve_load::LoopState::new(setup.projects.len(), clients);
    let mut load = serve_load::LoadResult::default();
    let mut credit = Duration::ZERO;
    let (mut cold_s, mut edit_s, mut rerun_s, mut lint_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut edited_digests = Vec::new();
    let mut lint_digest = None;
    while cold_s.is_empty() || start.elapsed() < window {
        let round = Instant::now();
        let cold = bench::cold(&batch.sources, &mut fails);
        cold_s.push(cold.cold_s);
        lint_s.push(cold.lint_s);
        wrong.check(cold.rgn_digest == ref_a, || {
            "cold .rgn differs from the warm session's".to_string()
        });
        match cold.report {
            Some(report) => {
                let d = digest(&report.render());
                if lint_digest.is_none() {
                    checks::lint_against_key(&report, cold.procedures, &batch.key, &mut wrong);
                }
                wrong.check(*lint_digest.get_or_insert(d) == d, || {
                    "lint findings changed between runs".to_string()
                });
            }
            None => wrong.check(false, || "lint produced no report".to_string()),
        }
        let (s, d) = bench::edit(&mut setup.session, &batch.edited, &mut fails);
        edit_s.push(s);
        edited_digests.push(d);
        let (s, d) = bench::edit(&mut setup.session, &batch.sources, &mut fails);
        edit_s.push(s);
        wrong.check(d == ref_a, || {
            "edit-then-revert .rgn differs from cold".to_string()
        });
        let (s, d) = bench::rerun(&setup.cache_dir, &batch.sources, &mut fails);
        rerun_s.push(s);
        wrong.check(d == ref_a, || {
            "disk rerun .rgn differs from cold".to_string()
        });
        // Serve time accrues with every batch round and is spent in slices
        // of at least `MIN_SLICE`: each slice starts with an idle daemon,
        // so short slices would over-sample the first-commit persist.
        credit += round.elapsed().mul_f64(share / (1.0 - share));
        let last = start.elapsed() >= window;
        if credit >= MIN_SLICE || (last && !credit.is_zero()) {
            let part =
                serve_load::closed_loop(&setup.daemon, &setup.projects, &mut loop_state, credit);
            serve_load::merge(&mut load, part);
            credit = Duration::ZERO;
        }
    }
    fails.attempted += load.attempted;
    fails.failed += load.shed + load.deadline_expired + load.errors;
    let measured_s = start.elapsed().as_secs_f64();

    // Checks (after the window, untimed).
    let ref_b = cold_digest(&batch.edited)?;
    let bad = edited_digests.iter().filter(|&&d| d != ref_b).count();
    wrong.check(bad == 0, || {
        format!("{bad} edited .rgn(s) differ from a cold analysis of the edit")
    });
    check_served(&setup, &load, &mut wrong)?;
    if let Some(a) = setup.session.analysis() {
        checks::dynamic_oracle(a, &batch.key, args.seed, DYNAMIC_SAMPLES, &mut wrong);
    }

    let mut l = Ledger::default();
    l.put_median("setup_s", &setup_s, 1.0, "s");
    l.put_median("cold_s", &cold_s, 1.0, "s");
    l.put_median("edit_ms", &edit_s, 1e3, "ms");
    l.put_median("rerun_s", &rerun_s, 1.0, "s");
    l.put_median("lint_s", &lint_s, 1.0, "s");
    l.put_median("peak_rss_mb", &rss, 1.0, "MB");
    l.put_percentile("serve_edit_p50_ms", &load.edit_ms, 0.50, 1.0, "ms");
    l.put_percentile("serve_edit_p95_ms", &load.edit_ms, 0.95, 1.0, "ms");
    l.put_percentile("serve_query_p50_ms", &load.query_ms, 0.50, 1.0, "ms");
    l.put_percentile("serve_query_p95_ms", &load.query_ms, 0.95, 1.0, "ms");
    l.put(
        "serve_rps",
        load.completed as f64 / load.elapsed_s.max(1e-9),
        "req/s",
        load.completed as usize,
    );
    let report_only = [
        ("wrong_outputs", wrong.count() as f64, "count"),
        (
            "failed_ratio",
            fails.failed as f64 / fails.attempted.max(1) as f64,
            "ratio",
        ),
    ];
    setup.teardown();
    Ok(finish(args, &l, &report_only, &wrong, &fails, measured_s))
}

fn traced(args: &Args, tmp: &Path) -> Result<String, String> {
    let nproc = nproc();
    let mut fails = Failures::default();
    let mut wrong = Wrong::default();
    let mut setup = Setup::run(args.workload, args.seed, tmp.join("s0"), nproc, &mut fails)?;
    check_edits(&setup, &mut wrong);
    let ref_a = setup
        .session
        .analysis()
        .map(|a| digest(&araa::rgn::write_rgn(&a.rows)))
        .unwrap_or(0);
    let batch_sources = setup.batch.sources.clone();
    let batch_edited = setup.batch.edited.clone();
    let key = setup.batch.key.clone();
    let ref_b = cold_digest(&batch_edited)?;

    let collector = obs::Collector::new(obs::ClockKind::Monotonic);
    let counter = |c: Counter| collector.counter(c);
    let mut t = trace::Tracer::new(format!(
        "{}-{}-{}",
        args.workload_name,
        args.seed,
        std::process::id()
    ));
    let start = Instant::now();
    let window = Duration::from_secs_f64(args.seconds);
    let batch_end = start + window.mul_f64(1.0 - args.workload.serve_share());

    let mut mirror: Option<bench::Mirror> = None;
    let mut cold_plain = Vec::new();
    let mut edit_plain = Vec::new();
    let mut counts: Vec<(&str, f64)> = Vec::new();
    let (mut lint_findings, mut rows, mut rgn_bytes) = (0usize, 0usize, 0usize);
    let mut rounds = 0;
    while rounds == 0 || Instant::now() < batch_end {
        rounds += 1;
        // Layered cold run, then the same untraced for the overhead ratio.
        let (fm0, iv0) = (
            counter(Counter::RegionsFmBailouts),
            counter(Counter::RegionsIntervalRecovered),
        );
        let cold = {
            let _g = obs::attach(collector.clone());
            bench::traced_cold(&mut t, &batch_sources, &mut fails)
        };
        if rounds == 1 {
            counts.push((
                "regions.fm_bailouts",
                (counter(Counter::RegionsFmBailouts) - fm0) as f64,
            ));
            counts.push((
                "regions.interval_recovered",
                (counter(Counter::RegionsIntervalRecovered) - iv0) as f64,
            ));
        }
        let Some(cold) = cold else { break };
        wrong.check(cold.rgn_digest == ref_a, || {
            "layered cold .rgn differs from the session's".to_string()
        });
        rows = cold.analysis.rows.len();
        rgn_bytes = cold.rgn_bytes;
        let report = t.time("lint.run", || {
            lint::run(&cold.analysis, &lint::LintOptions::default())
        });
        t.time("lint.sarif", || {
            lint::sarif::to_sarif(&report, env!("CARGO_PKG_VERSION"))
        });
        if rounds == 1 {
            checks::lint_against_key(
                &report,
                cold.analysis.program.procedure_count(),
                &key,
                &mut wrong,
            );
        }
        lint_findings = report.findings.len();
        let m = mirror.get_or_insert(cold);
        cold_plain.push(bench::cold(&batch_sources, &mut fails).cold_s);

        // Edit to the variant and back: layered, then the real session
        // update (whose difference is the session's own time), then its
        // persist (a changed-state save).
        for (src, want) in [(&batch_edited, ref_b), (&batch_sources, ref_a)] {
            let inv0 = counter(Counter::PropagateInvalidated);
            {
                let _g = obs::attach(collector.clone());
                bench::traced_edit(&mut t, m, src, &mut fails);
            }
            if rounds == 1 && want == ref_b {
                counts.push((
                    "propagate.invalidated",
                    (counter(Counter::PropagateInvalidated) - inv0) as f64,
                ));
            }
            let (s, d) = bench::edit(&mut setup.session, src, &mut fails);
            edit_plain.push(s);
            wrong.check(d == want, || {
                "edited .rgn differs from a cold analysis of the edit".to_string()
            });
            let saved = t.time("core.store_save", || setup.session.persist());
            fails.record(!saved);
        }

        // Disk rerun, layer by layer.
        let primed0 = counter(Counter::StorePrimed);
        let root = t.enter("rerun");
        let mut s = t.time("core.store_load", || {
            let _g = obs::attach(collector.clone());
            let mut s = araa::AnalysisSession::with_cache_dir(bench::opts(), &setup.cache_dir);
            let loaded = s.load();
            fails.record(!loaded);
            s
        });
        let delta = t.time("core.session_update", || {
            s.update(bench::sources(&batch_sources))
        });
        let saved = t.time("core.store_save_noop", || s.persist());
        t.exit(root);
        if rounds == 1 {
            counts.push((
                "store.primed",
                (counter(Counter::StorePrimed) - primed0) as f64,
            ));
        }
        fails.record(
            !saved
                || !s.cache_incidents().is_empty()
                || delta.map_or(true, |d| !d.degradations.is_empty()),
        );
        drop(s);

        let failed = t.time("ipa.ipl_nproc", || bench::ipl_all(m, nproc));
        fails.record(failed);
    }
    if let Some(m) = &mirror {
        wrong.check(bench::mirror_digest(m) == ref_a, || {
            "layered edit state differs from the session's".to_string()
        });
    }
    let (store_files, store_bytes) = bench::dir_usage(&setup.cache_dir);

    // Serve: client latency against an in-process update of the same edit.
    let serve_window = window.mul_f64(args.workload.serve_share());
    let mut loop_state = serve_load::LoopState::new(setup.projects.len(), nproc.min(2));
    let load = serve_load::closed_loop(
        &setup.daemon,
        &setup.projects,
        &mut loop_state,
        serve_window,
    );
    fails.attempted += load.attempted;
    fails.failed += load.shed + load.deadline_expired + load.errors;
    let mut inproc = Vec::new();
    for p in &setup.projects {
        let mut s = araa::AnalysisSession::new(bench::opts());
        let _ = bench::edit(&mut s, &p.variants[0], &mut fails);
        // The first edits after a cold start warm the session up; the
        // daemon's sessions are long warm by the time they are measured.
        for i in 0..REPLAY_EDITS {
            let ms = bench::edit(&mut s, &p.variants[1 - i % 2], &mut fails).0 * 1e3;
            if i >= REPLAY_WARMUP {
                inproc.push(ms);
            }
        }
    }
    check_served(&setup, &load, &mut wrong)?;
    let measured_s = start.elapsed().as_secs_f64();

    // Per-layer ledger.
    let mut l = Ledger::default();
    let cold_roots = t.roots("cold");
    let edit_roots = t.roots("edit");
    let child = |roots: &[trace::RootView], name: &str, bytes: bool| -> Vec<f64> {
        roots
            .iter()
            .map(|r| {
                r.children
                    .get(name)
                    .map_or(0.0, |&(ns, b)| if bytes { b as f64 } else { ns as f64 })
            })
            .collect()
    };
    let ms = 1e-6;
    let mb = 1.0 / (1024.0 * 1024.0);
    for (layer, metric) in [
        ("frontend.parse", "frontend.parse"),
        ("frontend.assemble", "frontend.assemble"),
        ("ipa.ipl", "ipa.ipl"),
        ("ipa.propagate", "ipa.propagate"),
        ("core.extract", "core.extract"),
    ] {
        l.put_median(
            &format!("{metric}_ms"),
            &child(&cold_roots, layer, false),
            ms,
            "ms",
        );
        l.put_median(
            &format!("{metric}_mb"),
            &child(&cold_roots, layer, true),
            mb,
            "MB",
        );
    }
    l.put_median(
        "ipa.callgraph_ms",
        &child(&cold_roots, "ipa.callgraph", false),
        ms,
        "ms",
    );
    l.put_median(
        "whirl.fingerprint_ms",
        &child(&cold_roots, "whirl.fingerprint", false),
        ms,
        "ms",
    );
    l.put_median(
        "core.rgn_ms",
        &child(&cold_roots, "core.rgn", false),
        ms,
        "ms",
    );
    l.put_median(
        "ipa.propagate_edit_ms",
        &child(&edit_roots, "ipa.propagate", false),
        ms,
        "ms",
    );
    let root_ns = |name: &str| {
        t.root_durations(name)
            .into_iter()
            .map(|d| d as f64)
            .collect::<Vec<_>>()
    };
    l.put_median("ipa.ipl_nproc_ms", &root_ns("ipa.ipl_nproc"), ms, "ms");
    l.put_median("lint.run_ms", &root_ns("lint.run"), ms, "ms");
    l.put_median("lint.sarif_ms", &root_ns("lint.sarif"), ms, "ms");
    let lint_mb: Vec<f64> = t
        .spans()
        .iter()
        .filter(|s| s.parent.is_none() && s.name == "lint.run")
        .map(|s| s.alloc_bytes as f64)
        .collect();
    l.put_median("lint.run_mb", &lint_mb, mb, "MB");
    l.put_median("core.store_save_ms", &root_ns("core.store_save"), ms, "ms");
    let rerun_roots = t.roots("rerun");
    l.put_median(
        "core.store_load_ms",
        &child(&rerun_roots, "core.store_load", false),
        ms,
        "ms",
    );
    l.put_median(
        "core.store_save_noop_ms",
        &child(&rerun_roots, "core.store_save_noop", false),
        ms,
        "ms",
    );
    let layered_edit: Vec<f64> = edit_roots
        .iter()
        .map(|r| (r.total_ns - r.self_ns) as f64 * 1e-9)
        .collect();
    if let (Some(e), Some(layers)) = (median(&edit_plain), median(&layered_edit)) {
        l.put(
            "core.session_self_ms",
            (e - layers) * 1e3,
            "ms",
            edit_plain.len(),
        );
    }
    let unattributed = |roots: &[trace::RootView]| {
        median(
            &roots
                .iter()
                .map(|r| r.self_ns as f64 / r.total_ns.max(1) as f64)
                .collect::<Vec<_>>(),
        )
    };
    if let (Some(c), Some(e)) = (unattributed(&cold_roots), unattributed(&edit_roots)) {
        l.put(
            "trace.unattributed_ratio",
            c.max(e),
            "ratio",
            cold_roots.len() + edit_roots.len(),
        );
    }
    let cold_traced: Vec<f64> = cold_roots
        .iter()
        .map(|r| r.total_ns as f64 * 1e-9)
        .collect();
    if let (Some(tr), Some(pl)) = (median(&cold_traced), median(&cold_plain)) {
        l.put("trace.overhead_ratio", tr / pl, "ratio", cold_plain.len());
    }
    if let (Some(s), Some(i)) = (median(&load.edit_ms), median(&inproc)) {
        l.put("serve.overhead_ms", s - i, "ms", load.edit_ms.len());
    }
    l.put_median("serve.request_bytes", &load.request_bytes, 1.0, "bytes");
    for (name, v) in counts {
        l.put(name, v, "count", 1);
    }
    l.put("core.rows", rows as f64, "count", 1);
    l.put("core.rgn_bytes", rgn_bytes as f64, "bytes", 1);
    l.put("core.store_bytes", store_bytes as f64, "bytes", 1);
    l.put("core.store_files", store_files as f64, "count", 1);
    l.put("lint.findings", lint_findings as f64, "count", 1);
    l.put(
        "serve.shed",
        load.shed as f64,
        "count",
        load.attempted as usize,
    );
    l.put(
        "serve.deadline_expired",
        load.deadline_expired as f64,
        "count",
        load.attempted as usize,
    );
    l.put(
        "serve.errors",
        load.errors as f64,
        "count",
        load.attempted as usize,
    );
    l.put("wrong_outputs", wrong.count() as f64, "count", 1);
    l.put(
        "failed_ratio",
        fails.failed as f64 / fails.attempted.max(1) as f64,
        "ratio",
        fails.attempted as usize,
    );

    let out_dir = Path::new(".perfbench_out");
    let path = out_dir.join(format!("trace_{}_{}.jsonl", args.workload_name, args.seed));
    if std::fs::create_dir_all(out_dir)
        .and_then(|_| std::fs::write(&path, t.to_jsonl()))
        .is_err()
    {
        eprintln!("perfbench: could not write {}", path.display());
    }
    setup.teardown();
    Ok(finish(args, &l, &[], &wrong, &fails, measured_s))
}

/// Prints the human-readable report and returns the JSON result line.
fn finish(
    args: &Args,
    l: &Ledger,
    report_only: &[(&str, f64, &str)],
    wrong: &Wrong,
    fails: &Failures,
    measured_s: f64,
) -> String {
    println!(
        "perfbench workload={} seed={} trace={} measured={measured_s:.1}s nproc={}",
        args.workload_name,
        args.seed,
        u8::from(args.trace),
        nproc()
    );
    for (name, (v, unit)) in &l.metrics {
        println!(
            "  {name:<28} {v:>14.4} {unit:<6} (n={})",
            l.samples.get(name).copied().unwrap_or(0)
        );
    }
    for (name, v, unit) in report_only {
        println!("  {name:<28} {v:>14.4} {unit:<6}");
    }
    for note in wrong.notes.iter().take(20) {
        println!("  WRONG: {note}");
    }
    let metrics: Vec<String> = l
        .metrics
        .iter()
        .map(|(name, (v, unit))| {
            format!(
                r#""{name}": {{"value": {}, "unit": "{unit}"}}"#,
                json_num(*v)
            )
        })
        .collect();
    format!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        wrong.count() == 0,
        fails.attempted.max(1),
        fails.failed,
        metrics.join(", ")
    )
}
