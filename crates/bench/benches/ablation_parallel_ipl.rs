//! Ablation: parallel IPL summarization — per-procedure summaries are
//! independent, so the phase scales with worker threads (the governed
//! pool, `support::governor::par_map`, behind the isolated IPL entry point
//! the pipeline itself uses).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ipa::isolate::{summarize_subset_isolated, IplFailure};
use ipa::ProcSummary;
use std::hint::black_box;
use whirl::{ProcId, Program};
use workloads::synthetic::{generate, SynthConfig};

/// Isolated IPL over every procedure of `program` on `threads` workers.
fn summarize_all(
    program: &Program,
    threads: usize,
) -> Vec<(ProcId, ProcSummary, Option<IplFailure>)> {
    let ids: Vec<ProcId> = program.procedures.indices().collect();
    summarize_subset_isolated(program, &ids, threads, Default::default())
}

fn bench_thread_sweep(c: &mut Criterion) {
    let cfg = SynthConfig {
        procedures: 48,
        arrays: 6,
        loop_depth: 3,
        stmts_per_loop: 8,
        ..Default::default()
    };
    let src = generate(&cfg);
    let file = frontend::SourceFile::new(&src.name, &src.text, whirl::Lang::Fortran);
    let program =
        frontend::compile_to_h(std::slice::from_ref(&file), frontend::DEFAULT_LAYOUT_BASE)
            .unwrap();

    let mut group = c.benchmark_group("ipl/threads_48procs");
    group.sample_size(10);
    for &threads in &[1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                b.iter(|| black_box(summarize_all(black_box(&program), threads)))
            },
        );
    }
    group.finish();
}

fn bench_lu_threads(c: &mut Criterion) {
    let srcs = workloads::mini_lu::sources();
    let files: Vec<frontend::SourceFile> = srcs
        .iter()
        .map(|g| frontend::SourceFile::new(&g.name, &g.text, whirl::Lang::Fortran))
        .collect();
    let program = frontend::compile_to_h(&files, frontend::DEFAULT_LAYOUT_BASE).unwrap();
    let mut group = c.benchmark_group("ipl/threads_lu");
    for &threads in &[1usize, 4] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                b.iter(|| black_box(summarize_all(black_box(&program), threads)))
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    // Single-core container: short windows keep the full suite fast
    // while medians stay stable for these deterministic workloads.
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1200))
        .sample_size(10);
    targets = bench_thread_sweep, bench_lu_threads
}
criterion_main!(benches);
