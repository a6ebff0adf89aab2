//! Benchmark harness crate.
//!
//! This crate has no library API of its own; every paper table and figure is
//! regenerated by a Criterion bench target under `benches/`:
//!
//! | target | paper artifact |
//! |---|---|
//! | `fig1_interprocedural` | Fig. 1 pipeline + independence test |
//! | `fig2_methods` | Fig. 2 method taxonomy (insert/query/storage) |
//! | `fig9_matrix` | Figs. 9/10 per-stage pipeline costs |
//! | `fig11_callgraph` | Fig. 11 LU call graph + full LU pipeline |
//! | `alg1_extraction` | Algorithm 1 scaling (procedures × loop depth) |
//! | `table2_case1` | Case 1 cache-sim fusion payoff |
//! | `table3_case2` | Case 2 analysis + advice derivation |
//! | `table4_offload` | Table IV offload model sweep |
//! | `ablation_fm` | FM solver regimes (+ STEP_BUDGET widening stats) |
//! | `ablation_union` | approximate-union cost and precision loss |
//! | `ablation_parallel_ipl` | isolated IPL thread sweep (`governor::par_map`) |
//! | `ablation_loop_par` | loop-carried dependence test cost |
//!
//! The workspace-level integration tests (`/tests`) and runnable examples
//! (`/examples`) are also registered against this crate because the root is
//! a virtual manifest; see `[[test]]`/`[[example]]` entries in Cargo.toml.
//!
//! The one library module, [`report`], backs the `ARAA_BENCH_JSON` manual
//! mode of the two session benches (`BENCH_session.json`).

pub mod report;
