//! Spatial indexing of the POI set: an R-tree plus group nearest-neighbour (GNN) search.
//!
//! The MPN server (Fig. 3 of the paper) manages the points of interest in an R-tree.  Two
//! query capabilities are needed by the safe-region algorithms:
//!
//! 1. **Top-k group nearest neighbours** under the MAX or SUM aggregate (`FindMaxGNN` /
//!    `FindSumGNN` of Papadias et al., used by Algorithm 1 line 1 and by the buffering
//!    optimisation of Section 5.4) — see [`gnn`].
//! 2. **Candidate retrieval with per-user radius pruning** (Theorem 3 / Theorem 6 and the MBR
//!    pruning of Fig. 10) — see [`RTree::candidates_within_user_radii`] and
//!    [`RTree::candidates_within_sum_radius`].
//!
//! The R-tree is implemented from scratch and immutable, stored as arrays: one STR bulk load
//! builds it as the POIs in leaf order plus one node array per level, the GNN query is a
//! k-bounded branch-and-bound over it, and node accesses are counted so experiments can
//! report index I/O.
//!
//! Dynamic POI sets are served by [`world`]: a [`WorldView`] is one tree per world state —
//! every insert or delete edits the entry array and bulk loads it again, one bulk load
//! (≈ 3.6 ms at 21,287 POIs) a change, which the one writer the repository benchmark knows
//! asks for about once a second — and [`IndexView`], the query handle the engine layers
//! consume, is a borrowed tree.
//!
//! Each query runs for the one group that asks it: no result is shared across groups, as none
//! is in the paper's server (§3, Fig. 3).

#![forbid(unsafe_code)]

pub mod gnn;
pub mod rtree;
pub mod world;

pub use gnn::{frontier_pushes, Aggregate, GnnNeighbor, GnnSearch};
pub use rtree::{PoiEntry, QueryStats, RTree, RTreeConfig};
pub use world::{IndexView, WorldView};

/// Benchmark-only shim that caches nothing: `benchmark/src/trace.rs` still attaches one to
/// an engine, and ROADMAP item 1(c) deletes it.
#[derive(Debug, Default)]
pub struct QueryCache;

impl QueryCache {
    /// The shim's one constructor.
    pub fn new() -> Self {
        Self
    }
}

/// Benchmark-only shim read by `benchmark/src/trace.rs`; ROADMAP item 1(c) deletes it.
#[derive(Debug, Clone, Copy)]
pub struct CacheStats;

impl CacheStats {
    /// Always 0.0: nothing is cached.
    pub fn hit_rate(&self) -> f64 {
        0.0
    }
}
