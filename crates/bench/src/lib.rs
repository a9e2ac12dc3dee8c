//! Benchmark harness reproducing the paper's evaluation (Section 7).
//!
//! Each evaluation figure has a matching binary (`fig13` … `fig19`, plus `table2`, and
//! `diag` for per-method work counters) that prints the corresponding CSV series;
//! `benches/micro.rs` holds plain `harness = false` micro-benchmarks and ablations.
//! End-to-end server measurements live in the `benchmark/` package at the workspace root,
//! not here.
//!
//! The harness honours the `MPN_BENCH_SCALE` environment variable:
//!
//! * `quick` (default) — reduced data sizes so every figure binary finishes in minutes,
//! * `paper` — the paper's sizes (21,287 POIs, 10 groups, 10,000 timestamps).

#![forbid(unsafe_code)]

pub mod datasets;
pub mod harness;
pub mod params;

pub use datasets::{build_poi_tree, build_workload, TrajectoryKind};
pub use harness::{method_suite, print_series, run_cell, MethodSpec};
pub use params::{Scale, DEFAULT_THETA};
