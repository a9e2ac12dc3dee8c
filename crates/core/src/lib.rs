//! Independent safe regions for meeting-point notification — the core algorithms of
//! *"Efficient Notification of Meeting Points for Moving Groups via Independent Safe Regions"*
//! (Li, Thomsen, Yiu, Mamoulis).
//!
//! A group of moving users continuously needs the optimal meeting point among a set of POIs:
//! the point minimising either the **maximum** user distance (the MPN problem) or the **sum**
//! of user distances (the Sum-MPN variant).  To keep the communication frequency low, the
//! server hands each user an *independent safe region*; while every user stays inside her own
//! region the meeting point provably cannot change (Definition 3).
//!
//! This crate implements both safe-region families of the paper and all their optimisations:
//!
//! | Paper section | Functionality | Module |
//! |---|---|---|
//! | §4.1 Lemma 1 | conservative group verification, exhaustive test oracle | [`verify`] |
//! | §4.2 Alg. 1, Thm. 1/5 | circular safe regions (Circle-MSR) | [`circle`] |
//! | §5.1–5.2 Alg. 2–3 | tile-based safe regions (Tile-MSR), orderings | [`tile`], [`ordering`] |
//! | §5.3 Thm. 2/3, Alg. 4 | incremental GT-Verify, index pruning | [`tile_verify`], [`tile`] |
//! | §5.4 Alg. 5, Thm. 4 | buffering of GNN prefixes | [`buffer`] |
//! | §6 Alg. 6, Thm. 5–7 | the sum-optimal variant | [`tile_verify`], [`circle`], [`buffer`] |
//! | §7.1 packet model | the lossless tile-region stream that is sent | [`compress`] |
//!
//! # Architecture: one method description, sessions
//!
//! [`Method`] is the one description of a safe-region configuration (Circle, or a Tile-MSR
//! configuration) and the one implementor of the [`SafeRegionEngine`] trait ([`engine`]),
//! the seam [`MpnServer`], the monitoring layer in `mpn-sim` and the benchmark compute
//! through; [`Method::engine`] boxes it for callers that hold a trait object.
//!
//! The paper's server is stateful: between updates for the same group it keeps the per-user
//! heading predictors, the §5.4 GNN buffer and the last answer.  [`SessionState`]
//! ([`session`]) carries exactly that state through
//! [`SafeRegionEngine::compute`] /
//! [`MpnServer::compute_session`], so with persistent buffers enabled a `Tile-D-b` update
//! typically issues **one** R-tree query (the Circle-MSR seed) instead of two.
//!
//! The entry point for one-shot queries is [`MpnServer`]:
//!
//! ```
//! use mpn_core::{Method, MpnServer, Objective};
//! use mpn_geom::Point;
//! use mpn_index::RTree;
//!
//! let pois = vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0), Point::new(5.0, 8.0)];
//! let tree = RTree::bulk_load(&pois);
//! let users = vec![Point::new(1.0, 1.0), Point::new(3.0, 0.0)];
//!
//! let server = MpnServer::new(&tree, Objective::Max, Method::tile());
//! let answer = server.compute(&users);
//! assert!(answer.all_inside(&users));
//! ```

#![forbid(unsafe_code)]

pub mod buffer;
pub mod circle;
pub mod compress;
pub mod engine;
pub mod ordering;
pub mod region;
pub mod server;
pub mod session;
pub mod tile;
pub mod tile_verify;
pub mod verify;

pub use buffer::BufferSet;
pub use circle::{circle_msr, CircleMsr, DEFAULT_RADIUS_CAP};
pub use compress::{
    decode_cells, encode_cells, packets_for_values, region_value_count, MAX_TILE_LEVEL,
    VALUES_PER_PACKET,
};
pub use engine::{EngineContext, SafeRegionEngine};
pub use ordering::TileOrdering;
pub use region::{SafeRegion, TileCell, TileFrame, TileRegion};
pub use server::{Answer, Method, MpnServer};
pub use session::SessionState;
pub use tile::{tile_msr, tile_msr_cached, BufferCache, TileMsr, TileMsrConfig};
pub use tile_verify::TileVerifier;

use mpn_index::{Aggregate, QueryStats};

/// The meeting-point objective monitored by the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Objective {
    /// Minimise the maximum distance any user travels (MPN, Definition 2).
    #[default]
    Max,
    /// Minimise the total distance travelled by the group (Sum-MPN, Definition 8).
    Sum,
}

impl Objective {
    /// The aggregate distance function used by the GNN queries for this objective.
    #[must_use]
    pub fn aggregate(self) -> Aggregate {
        match self {
            Objective::Max => Aggregate::Max,
            Objective::Sum => Aggregate::Sum,
        }
    }

    /// Human-readable name used in experiment output.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Objective::Max => "MPN",
            Objective::Sum => "Sum-MPN",
        }
    }
}

/// Work counters for one safe-region computation.
///
/// These drive the efficiency plots of the evaluation: the number of R-tree queries is what the
/// buffering optimisation reduces, and verification counts explain the CPU-time differences
/// between Circle, Tile and Tile-D.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ComputeStats {
    /// R-tree traversal work of the GNN queries (top-2 for the radius, top-(b+1) for buffering).
    pub gnn: QueryStats,
    /// R-tree traversal work of candidate retrieval (index pruning).
    pub candidate_retrieval: QueryStats,
    /// Number of distinct R-tree queries issued.
    pub rtree_queries: usize,
    /// Number of Divide-Verify invocations.
    pub verify_calls: usize,
    /// Tiles accepted into safe regions.
    pub tiles_accepted: usize,
    /// Tiles (or sub-tiles) rejected at the lowest recursion level.
    pub tiles_rejected: usize,
    /// Total (tile, candidate) verification pairs evaluated.
    pub candidates_checked: usize,
}

impl ComputeStats {
    /// Adds another record into this one (used when aggregating over a monitoring run).
    pub fn absorb(&mut self, other: &ComputeStats) {
        self.gnn.absorb(other.gnn);
        self.candidate_retrieval.absorb(other.candidate_retrieval);
        self.rtree_queries += other.rtree_queries;
        self.verify_calls += other.verify_calls;
        self.tiles_accepted += other.tiles_accepted;
        self.tiles_rejected += other.tiles_rejected;
        self.candidates_checked += other.candidates_checked;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objective_maps_to_aggregate_and_names() {
        assert_eq!(Objective::Max.aggregate(), Aggregate::Max);
        assert_eq!(Objective::Sum.aggregate(), Aggregate::Sum);
        assert_eq!(Objective::Max.name(), "MPN");
        assert_eq!(Objective::Sum.name(), "Sum-MPN");
        assert_eq!(Objective::default(), Objective::Max);
    }

    #[test]
    fn compute_stats_absorb_accumulates_every_field() {
        let mut a = ComputeStats {
            rtree_queries: 1,
            verify_calls: 2,
            tiles_accepted: 3,
            tiles_rejected: 4,
            candidates_checked: 5,
            ..ComputeStats::default()
        };
        let b = ComputeStats {
            rtree_queries: 10,
            verify_calls: 20,
            tiles_accepted: 30,
            tiles_rejected: 40,
            candidates_checked: 50,
            ..ComputeStats::default()
        };
        a.absorb(&b);
        assert_eq!(a.rtree_queries, 11);
        assert_eq!(a.verify_calls, 22);
        assert_eq!(a.tiles_accepted, 33);
        assert_eq!(a.tiles_rejected, 44);
        assert_eq!(a.candidates_checked, 55);
    }
}
