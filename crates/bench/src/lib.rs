//! Benchmark harness reproducing the paper's evaluation (Section 7).
//!
//! [`figures`] holds Figures 13–19 as one table with one runner and one checker of the
//! paper's claims; the `figures <13…19|table2|all>` binary prints the CSV series and exits
//! non-zero when a claim is violated (`diag` prints per-method work counters for one
//! snapshot).  `benches/micro.rs` holds plain `harness = false` micro-benchmarks and
//! ablations.  End-to-end server measurements live in the `benchmark/` package at the
//! workspace root, not here.
//!
//! The harness honours the `MPN_BENCH_SCALE` environment variable:
//!
//! * `smoke` — tiny sizes for CI: all seven figures finish in about three minutes,
//! * `quick` (default) — reduced data sizes so every figure finishes in minutes,
//! * `paper` — the paper's sizes (21,287 POIs, 10 groups, 10,000 timestamps).

#![forbid(unsafe_code)]

pub mod datasets;
pub mod figures;
pub mod params;

pub use datasets::{build_poi_tree, build_workload, TrajectoryKind};
pub use params::{Scale, DEFAULT_THETA};
