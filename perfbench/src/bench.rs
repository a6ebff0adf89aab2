//! Set-up, the timed operations, and the traced layer recompositions.

use crate::gen::{self, Generated};
use crate::serve_load::{self, Daemon, Project};
use crate::trace::Tracer;
use crate::{digest, Failures};
use araa::{Analysis, AnalysisOptions, AnalysisSession};
use frontend::{ParsedSource, SourceFile};
use ipa::{CallGraph, IpaResult, ProcSummary};
use std::path::{Path, PathBuf};
use std::time::Instant;
use support::idx::Idx;
use whirl::{ProcId, Program};

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FlatAffine,
    DeepIrregular,
    ServeMixed,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "flat_affine" => Some(Workload::FlatAffine),
            "deep_irregular" => Some(Workload::DeepIrregular),
            "serve_mixed" => Some(Workload::ServeMixed),
            _ => None,
        }
    }

    /// The program the batch (one-shot CLI and editor) operations run on.
    pub fn batch(self, seed: u64) -> Generated {
        match self {
            Workload::FlatAffine => gen::flat_affine(2001, seed),
            Workload::DeepIrregular => gen::deep_irregular(2000, 100, seed),
            Workload::ServeMixed => gen::deep_irregular(200, 10, seed),
        }
    }

    /// The projects the daemon serves.
    pub fn projects(self, seed: u64) -> Vec<Project> {
        let (count, make): (u64, fn(u64) -> Generated) = match self {
            Workload::FlatAffine => (2, |s| gen::flat_affine(201, s)),
            Workload::DeepIrregular => (2, |s| gen::deep_irregular(200, 10, s)),
            Workload::ServeMixed => (4, |s| gen::deep_irregular(200, 10, s)),
        };
        (0..count)
            .map(|k| {
                let s = seed.wrapping_mul(31).wrapping_add(1 + k);
                Project::new(format!("p{k}"), &make(s))
            })
            .collect()
    }

    /// Share of the measured window given to the serve closed loop.
    pub fn serve_share(self) -> f64 {
        match self {
            Workload::FlatAffine | Workload::DeepIrregular => 0.3,
            Workload::ServeMixed => 0.7,
        }
    }
}

pub fn opts() -> AnalysisOptions {
    AnalysisOptions::default()
}

pub fn sources(g: &[workloads::GenSource]) -> Vec<SourceFile> {
    g.iter().map(SourceFile::from).collect()
}

/// Everything set-up produces.
pub struct Setup {
    pub dir: PathBuf,
    pub batch: Generated,
    pub projects: Vec<Project>,
    pub daemon: Daemon,
    /// Warm session holding the batch program (variant 0), attached to
    /// `cache_dir`, which holds the same state on disk.
    pub session: AnalysisSession,
    pub cache_dir: PathBuf,
}

impl Setup {
    /// Generates the inputs, creates the temp dirs, starts the daemon,
    /// loads every project into it, and warms the batch session and its
    /// disk cache.
    pub fn run(
        w: Workload,
        seed: u64,
        dir: PathBuf,
        nproc: usize,
        fails: &mut Failures,
    ) -> Result<Setup, String> {
        let batch = w.batch(seed);
        let projects = w.projects(seed);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let daemon = Daemon::start(dir.join("d.sock"), dir.join("serve-cache"), nproc)?;
        let mut conn = daemon.connect()?;
        for (i, p) in projects.iter().enumerate() {
            let req = serve_load::analyze_request(i as u64, "analyze", &p.name, &p.variants[0]);
            let resp = conn.call(&req);
            fails.record(serve_load::classify(&resp) != serve_load::Outcome::Ok);
        }
        drop(conn);
        let cache_dir = dir.join("cli-cache");
        let mut session = AnalysisSession::with_cache_dir(opts(), &cache_dir);
        let delta = session
            .update(sources(&batch.sources))
            .map_err(|e| format!("cold update: {e}"))?;
        let persisted = session.persist();
        fails.record(
            !delta.degradations.is_empty() || !persisted || !session.cache_incidents().is_empty(),
        );
        Ok(Setup {
            dir,
            batch,
            projects,
            daemon,
            session,
            cache_dir,
        })
    }

    pub fn teardown(self) {
        let Setup {
            dir,
            mut daemon,
            session,
            ..
        } = self;
        daemon.stop();
        drop(session);
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// What one cold analysis of the batch program yields.
pub struct Cold {
    /// `dragon analyze`: the analysis plus the `.rgn` document.
    pub cold_s: f64,
    /// `dragon lint --sarif`: the same analysis, `lint::run`, and the
    /// SARIF document.
    pub lint_s: f64,
    pub rgn_digest: u64,
    pub report: Option<lint::LintReport>,
    pub procedures: usize,
}

/// One cold analysis, timed as both `dragon analyze` and `dragon lint
/// --sarif`, which share it. The analysis is dropped untimed.
pub fn cold(src: &[workloads::GenSource], fails: &mut Failures) -> Cold {
    let t = Instant::now();
    let result = Analysis::analyze(sources(src), opts());
    let analyzed = t.elapsed();
    let rgn = result.as_ref().map(|a| araa::rgn::write_rgn(&a.rows));
    let cold_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let report = result.as_ref().ok().map(|a| {
        let report = lint::run(a, &lint::LintOptions::default());
        std::hint::black_box(lint::sarif::to_sarif(&report, env!("CARGO_PKG_VERSION")));
        report
    });
    let lint_s = (analyzed + t.elapsed()).as_secs_f64();
    fails.record(result.as_ref().map_or(true, Analysis::degraded));
    fails.record(report.as_ref().is_none_or(|r| !r.degradations.is_empty()));
    Cold {
        cold_s,
        lint_s,
        rgn_digest: rgn.map(|r| digest(&r)).unwrap_or(0),
        report,
        procedures: result.as_ref().map_or(0, |a| a.program.procedure_count()),
    }
}

/// One warm update of `session` to `src`. Returns seconds and the digest
/// of the resulting `.rgn` (rendered untimed).
pub fn edit(
    session: &mut AnalysisSession,
    src: &[workloads::GenSource],
    fails: &mut Failures,
) -> (f64, u64) {
    let files = sources(src);
    let t = Instant::now();
    let delta = session.update(files);
    let secs = t.elapsed().as_secs_f64();
    fails.record(delta.as_ref().map_or(true, |d| !d.degradations.is_empty()));
    let d = session
        .analysis()
        .map(|a| digest(&araa::rgn::write_rgn(&a.rows)))
        .unwrap_or(0);
    (secs, d)
}

/// One `dragon --cache-dir` rerun: a fresh session on the cache dir, then
/// load, update with the same sources, and persist.
pub fn rerun(cache_dir: &Path, src: &[workloads::GenSource], fails: &mut Failures) -> (f64, u64) {
    let files = sources(src);
    let t = Instant::now();
    let mut s = AnalysisSession::with_cache_dir(opts(), cache_dir);
    let loaded = s.load();
    let delta = s.update(files);
    let persisted = s.persist();
    let secs = t.elapsed().as_secs_f64();
    fails.record(
        !loaded
            || !persisted
            || !s.cache_incidents().is_empty()
            || delta.as_ref().map_or(true, |d| !d.degradations.is_empty()),
    );
    let d = s
        .analysis()
        .map(|a| digest(&araa::rgn::write_rgn(&a.rows)))
        .unwrap_or(0);
    drop(s);
    (secs, d)
}

// ---------------------------------------------------------------------
// Traced recompositions: the same work the session does, as a sequence of
// calls into each layer's public functions, each inside a span.

/// The state an incremental re-analysis starts from, kept between traced
/// edits (the session keeps the same, privately). `analysis.rows` is only
/// valid right after the traced cold run that built it.
pub struct Mirror {
    pub analysis: Analysis,
    pub rgn_digest: u64,
    pub rgn_bytes: usize,
    texts: Vec<String>,
    parsed: Vec<ParsedSource>,
    fps: Vec<u64>,
    locals: Vec<ProcSummary>,
}

fn salt() -> u64 {
    whirl::hash::budget_salt(&opts().budget)
}

fn ipl(program: &Program, ids: &[ProcId], threads: usize) -> Vec<(ProcId, ProcSummary, bool)> {
    ipa::isolate::summarize_subset_isolated(program, ids, threads, opts().budget)
        .into_iter()
        .map(|(id, s, f)| (id, s, f.is_some()))
        .collect()
}

/// Traced cold analysis under root span `cold`: parse, assemble, call
/// graph, fingerprints, IPL, propagation, extraction, `.rgn`. Returns the
/// analysis with the state later traced edits start from.
pub fn traced_cold(
    t: &mut Tracer,
    src: &[workloads::GenSource],
    fails: &mut Failures,
) -> Option<Mirror> {
    let files = sources(src);
    let root = t.enter("cold");
    let parsed: Vec<ParsedSource> = files
        .iter()
        .map(|f| t.time("frontend.parse", || frontend::parse_source_with_recovery(f)))
        .collect();
    let cached = t.time("core.parse_cache", || parsed.clone());
    let assembled = t.time("frontend.assemble", || {
        frontend::assemble_to_h_with_recovery(parsed, opts().layout_base)
    });
    let Ok((program, diags)) = assembled else {
        t.exit(root);
        fails.record(true);
        return None;
    };
    let cg = t.time("ipa.callgraph", || CallGraph::build(&program));
    let n = cg.size();
    let salt = salt();
    let fps: Vec<u64> = t.time("whirl.fingerprint", || {
        (0..n)
            .map(|i| whirl::hash::proc_fingerprint(&program, ProcId::from_usize(i), salt))
            .collect()
    });
    let ids: Vec<ProcId> = (0..n).map(ProcId::from_usize).collect();
    let summarized = t.time("ipa.ipl", || ipl(&program, &ids, 1));
    let ipl_failed = summarized.iter().any(|(_, _, f)| *f);
    let locals: Vec<ProcSummary> = summarized.into_iter().map(|(_, s, _)| s).collect();
    let propagated = t.time("ipa.propagate", || {
        let _scope = support::budget::enter(opts().budget);
        ipa::propagate::propagate(&program, &cg, locals.clone())
    });
    let rows = t.time("core.extract", || {
        araa::extract_rows(&program, &cg, &propagated, araa::ExtractOptions::default())
    });
    let rgn = t.time("core.rgn", || araa::rgn::write_rgn(&rows));
    t.exit(root);
    fails.record(ipl_failed || !diags.is_empty());
    Some(Mirror {
        analysis: Analysis {
            program,
            callgraph: cg,
            ipa: propagated,
            rows,
            degradations: Vec::new(),
        },
        rgn_digest: digest(&rgn),
        rgn_bytes: rgn.len(),
        texts: files.into_iter().map(|f| f.text).collect(),
        parsed: cached,
        fps,
        locals,
    })
}

/// Traced incremental re-analysis under root span `edit`, from `m` to
/// `src`: re-parse changed files (clone the rest from the parse cache),
/// assemble, call graph, fingerprint the re-parsed procedures, IPL for
/// the dirty ones, and propagation over their ancestors. Row extraction
/// of the affected procedures happens through a crate-private function,
/// so it is left to `core.session_self_ms`.
pub fn traced_edit(
    t: &mut Tracer,
    m: &mut Mirror,
    src: &[workloads::GenSource],
    fails: &mut Failures,
) {
    let files = sources(src);
    let root = t.enter("edit");
    let changed: Vec<bool> = files
        .iter()
        .enumerate()
        .map(|(i, f)| m.texts.get(i) != Some(&f.text))
        .collect();
    let mut parsed = Vec::with_capacity(files.len());
    for (i, f) in files.iter().enumerate() {
        if changed[i] {
            let p = t.time("frontend.parse", || frontend::parse_source_with_recovery(f));
            parsed.push(p);
        } else {
            parsed.push(t.time("core.parse_cache", || m.parsed[i].clone()));
        }
    }
    let cached: Vec<ParsedSource> = t.time("core.parse_cache", || {
        parsed
            .iter()
            .enumerate()
            .filter(|(i, _)| changed[*i])
            .map(|(_, p)| p.clone())
            .collect()
    });
    let assembled = t.time("frontend.assemble", || {
        frontend::assemble_to_h_with_recovery(parsed, opts().layout_base)
    });
    let Ok((program, _)) = assembled else {
        t.exit(root);
        fails.record(true);
        return;
    };
    let cg = t.time("ipa.callgraph", || CallGraph::build(&program));
    let n = cg.size();
    let changed_names: Vec<&str> = files
        .iter()
        .zip(&changed)
        .filter(|(_, c)| **c)
        .map(|(f, _)| f.name.as_str())
        .collect();
    let salt = salt();
    let fps: Vec<u64> = t.time("whirl.fingerprint", || {
        (0..n)
            .map(|i| {
                let id = ProcId::from_usize(i);
                let file = program.interner.resolve(program.procedure(id).file);
                match m.fps.get(i) {
                    Some(&fp) if !changed_names.contains(&file) => fp,
                    _ => whirl::hash::proc_fingerprint(&program, id, salt),
                }
            })
            .collect()
    });
    let dirty: Vec<ProcId> = (0..n)
        .filter(|&i| m.fps.get(i) != Some(&fps[i]))
        .map(ProcId::from_usize)
        .collect();
    let summarized = t.time("ipa.ipl", || ipl(&program, &dirty, 1));
    let ipl_failed = summarized.iter().any(|(_, _, f)| *f);
    let mut locals = std::mem::take(&mut m.locals);
    locals.resize_with(n, ProcSummary::default);
    for (id, s, _) in summarized {
        locals[id.as_usize()] = s;
    }
    let mut old = std::mem::take(&mut m.analysis.ipa.summaries);
    old.resize_with(n, ProcSummary::default);
    let propagated = t.time("ipa.propagate", || {
        let affected = cg.ancestor_closure(dirty.iter().copied());
        let mut summaries: Vec<ProcSummary> = (0..n)
            .map(|i| {
                if affected[i] {
                    locals[i].clone()
                } else {
                    std::mem::take(&mut old[i])
                }
            })
            .collect();
        let _scope = support::budget::enter(opts().budget);
        ipa::propagate::propagate_subset(&program, &cg, &mut summaries, &affected);
        summaries
    });
    t.exit(root);
    fails.record(ipl_failed);
    let mut cached = cached.into_iter();
    for (i, c) in changed.iter().enumerate() {
        if *c {
            if let Some(p) = cached.next() {
                m.parsed[i] = p;
            }
            m.texts[i] = files[i].text.clone();
        }
    }
    m.analysis.program = program;
    m.analysis.callgraph = cg;
    m.analysis.ipa.summaries = propagated;
    m.fps = fps;
    m.locals = locals;
}

/// The `.rgn` digest of the mirror's current state (fidelity check of the
/// edit recomposition against the session).
pub fn mirror_digest(m: &Mirror) -> u64 {
    let a = &m.analysis;
    let ipa = IpaResult {
        index_facts: ipa::validated_index_facts(&a.ipa.summaries),
        summaries: a.ipa.summaries.clone(),
        recursion_cut: a.callgraph.is_recursive(),
    };
    let rows = araa::extract_rows(
        &a.program,
        &a.callgraph,
        &ipa,
        araa::ExtractOptions::default(),
    );
    digest(&araa::rgn::write_rgn(&rows))
}

/// IPL over every procedure of the mirror's program at `threads` workers.
pub fn ipl_all(m: &Mirror, threads: usize) -> bool {
    let program = &m.analysis.program;
    let ids: Vec<ProcId> = (0..program.procedure_count())
        .map(ProcId::from_usize)
        .collect();
    ipl(program, &ids, threads).iter().any(|(_, _, f)| *f)
}

/// Files and bytes under `dir`, recursively.
pub fn dir_usage(dir: &Path) -> (u64, u64) {
    let mut files = 0;
    let mut bytes = 0;
    if let Ok(rd) = std::fs::read_dir(dir) {
        for e in rd.flatten() {
            let Ok(meta) = e.metadata() else { continue };
            if meta.is_dir() {
                let (f, b) = dir_usage(&e.path());
                files += f;
                bytes += b;
            } else {
                files += 1;
                bytes += meta.len();
            }
        }
    }
    (files, bytes)
}
