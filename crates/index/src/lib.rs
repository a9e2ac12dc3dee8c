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
//! Dynamic POI sets are served by [`world`]: a [`WorldView`] wraps an immutable base tree in a
//! generation-stamped insert/delete overlay (compacted back into the base past a threshold),
//! and [`IndexView`] is the `Copy` query handle — over a plain tree or a world — that the
//! engine layers consume.
//!
//! Fleets full of near-duplicate groups can share their query results through [`cache`]: a
//! lock-striped [`QueryCache`] keyed by (quantized query point, k, world generation) is
//! attached per view ([`IndexView::with_cache`]) and replays results and [`QueryStats`]
//! bit-identically; the generation key makes invalidation free — a content change simply
//! turns every older entry into a miss.

#![forbid(unsafe_code)]

pub mod cache;
pub mod gnn;
pub mod rtree;
pub mod scratch;
pub mod world;

pub use cache::{
    CacheStats, QueryCache, DEFAULT_CACHE_QUANTUM, DEFAULT_CACHE_STRIPES, DEFAULT_STRIPE_CAPACITY,
};
pub use gnn::{Aggregate, GnnNeighbor, GnnSearch};
pub use rtree::{PoiEntry, QueryStats, RTree, RTreeConfig};
pub use scratch::{with_scratch, QueryScratch};
pub use world::{IndexView, WorldView, DEFAULT_COMPACTION_THRESHOLD};
