//! The safe-region engine interface.
//!
//! [`SafeRegionEngine`] is the seam between a safe-region computation and whoever drives it
//! (the one-shot [`MpnServer`](crate::server::MpnServer), the monitoring sessions of
//! `mpn-sim`, the benchmark's traced replays): callers hold a method and talk to it through
//! the trait.  Its one implementor is [`Method`], the description of a configuration — Circle
//! (Section 4, Circle-MSR) or any Tile / Tile-D / Tile-D-b configuration (Section 5), the
//! latter with optional reuse of the §5.4 GNN buffer across updates.
//!
//! The trait has two flavours of invocation:
//! [`compute_stateless`](SafeRegionEngine::compute_stateless) answers a one-shot query, while
//! [`compute`](SafeRegionEngine::compute) threads a mutable per-group
//! [`SessionState`] through the call so heading predictors, buffered GNN prefixes and the
//! last answer persist across updates — the stateful server loop of Fig. 3.

use std::fmt;

use mpn_geom::Point;
use mpn_index::IndexView;

use crate::circle::circle_msr_answer;
use crate::region::SafeRegion;
use crate::server::{Answer, Method};
use crate::session::SessionState;
use crate::tile::{tile_msr_cached, TileMsr};
use crate::Objective;

/// Everything an engine needs from the server: the POI index view and the objective.
///
/// Borrowed per call so one method value can serve many trees and objectives.  The view is an
/// [`IndexView`]: a plain `&RTree` converts directly, a mutable world contributes its
/// overlay and logical generation.
#[derive(Debug, Clone, Copy)]
pub struct EngineContext<'a> {
    /// The POI index view queried for meeting points and verification candidates.
    pub tree: IndexView<'a>,
    /// MAX (MPN) or SUM (Sum-MPN).
    pub objective: Objective,
}

impl<'a> EngineContext<'a> {
    /// Creates a context over the POI view (a `&RTree`, `&Arc<RTree>` or `&WorldView`).
    #[must_use]
    pub fn new(tree: impl Into<IndexView<'a>>, objective: Objective) -> Self {
        Self { tree: tree.into(), objective }
    }
}

/// A safe-region computation strategy.
///
/// `Send + Sync` because the monitoring engine advances many groups in parallel.
pub trait SafeRegionEngine: fmt::Debug + Send + Sync {
    /// One-shot computation: the optimal meeting point plus one safe region per user.
    ///
    /// `headings[i]`, when provided, is user `i`'s predicted travel direction (consumed by the
    /// directed tile ordering; Circle ignores it).
    fn compute_stateless(
        &self,
        ctx: EngineContext<'_>,
        users: &[Point],
        headings: Option<&[Option<f64>]>,
    ) -> Answer;

    /// Stateful computation threading the per-group session: the tile methods read the
    /// predicted headings from it and reuse its §5.4 GNN buffer when persistence is on.
    ///
    /// The answer is stored in (and borrowed back from) the session, so no per-update clone
    /// of the region vectors is paid; read it again later via [`SessionState::last_answer`].
    /// Callers must have fed the current locations to [`SessionState::observe`] beforehand
    /// (unless [`Method::uses_headings`] is `false`).
    fn compute<'s>(
        &self,
        ctx: EngineContext<'_>,
        users: &[Point],
        session: &'s mut SessionState,
    ) -> &'s Answer;
}

fn tile_answer(out: TileMsr) -> Answer {
    // Not `collect()`: it would keep the larger `Vec<TileRegion>` allocation for the answer.
    let mut regions = Vec::with_capacity(out.regions.len());
    regions.extend(out.regions.into_iter().map(|tiles| SafeRegion::Tiles(Box::new(tiles))));
    Answer {
        optimal_index: out.optimal.entry.id,
        optimal_point: out.optimal.entry.location,
        optimal_dist: out.optimal.dist,
        regions,
        stats: out.stats,
    }
}

impl SafeRegionEngine for Method {
    fn compute_stateless(
        &self,
        ctx: EngineContext<'_>,
        users: &[Point],
        headings: Option<&[Option<f64>]>,
    ) -> Answer {
        match self {
            Method::Circle { radius_cap } => {
                circle_msr_answer(ctx.tree, users, ctx.objective, *radius_cap)
            }
            Method::Tile(config) => tile_answer(tile_msr_cached(
                ctx.tree,
                users,
                ctx.objective,
                config,
                headings,
                &mut None,
            )),
        }
    }

    fn compute<'s>(
        &self,
        ctx: EngineContext<'_>,
        users: &[Point],
        session: &'s mut SessionState,
    ) -> &'s Answer {
        let answer = match self {
            // Circle-MSR never reads a heading, so the per-update `predicted_headings()`
            // vector is skipped: with a warm query cache the only allocation left in a
            // circle update is the answer's region vector.
            Method::Circle { .. } => self.compute_stateless(ctx, users, None),
            Method::Tile(config) => {
                let headings = session.predicted_headings();
                if let Some(cache) = session.buffer_slot_mut() {
                    tile_answer(tile_msr_cached(
                        ctx.tree,
                        users,
                        ctx.objective,
                        config,
                        Some(&headings),
                        cache,
                    ))
                } else {
                    self.compute_stateless(ctx, users, Some(&headings))
                }
            }
        };
        session.record_answer(answer, ctx.tree.generation())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::MpnServer;
    use mpn_index::RTree;

    fn world() -> (RTree, Vec<Point>) {
        let pois: Vec<Point> =
            (0..64).map(|i| Point::new(f64::from(i % 8) * 5.0, f64::from(i / 8) * 5.0)).collect();
        let users = vec![Point::new(11.0, 12.0), Point::new(14.0, 16.0), Point::new(9.0, 17.0)];
        (RTree::bulk_load(&pois), users)
    }

    #[test]
    fn engines_match_the_method_dispatch() {
        let (tree, users) = world();
        let ctx = EngineContext::new(&tree, Objective::Max);
        for method in [
            Method::circle(),
            Method::tile(),
            Method::tile_directed(0.8),
            Method::tile_directed_buffered(0.8, 20),
        ] {
            let via_server = MpnServer::new(&tree, Objective::Max, method).compute(&users);
            let via_engine = method.engine().compute_stateless(ctx, &users, None);
            assert_eq!(via_server.optimal_index, via_engine.optimal_index);
            assert_eq!(via_server.stats, via_engine.stats);
            assert_eq!(via_server.regions.len(), via_engine.regions.len());
        }
    }

    #[test]
    fn default_stateful_compute_records_the_answer() {
        let (tree, users) = world();
        let ctx = EngineContext::new(&tree, Objective::Max);
        let engine = Method::circle();
        let mut session = SessionState::new(users.len(), 0.3);
        session.observe(&users);
        assert!(session.last_answer().is_none());
        let optimal = engine.compute(ctx, &users, &mut session).optimal_index;
        assert_eq!(session.last_answer().unwrap().optimal_index, optimal);
    }

    #[test]
    fn persistent_buffers_are_reused_across_updates() {
        let (tree, users) = world();
        let ctx = EngineContext::new(&tree, Objective::Max);
        let engine = Method::tile_directed_buffered(0.8, 20);
        let mut session = SessionState::new(users.len(), 0.3).with_persistent_buffers(true);

        session.observe(&users);
        let first = engine.compute(ctx, &users, &mut session);
        let (first_queries, first_optimal) = (first.stats.rtree_queries, first.optimal_index);
        assert_eq!(first_queries, 2, "first compute builds the buffer");
        assert!(session.has_cached_buffer());

        // A small move: the optimum is unchanged, so the buffer must be reused.
        let moved: Vec<Point> = users.iter().map(|u| Point::new(u.x + 0.2, u.y)).collect();
        session.observe(&moved);
        let second = engine.compute(ctx, &moved, &mut session);
        assert_eq!(second.stats.rtree_queries, 1, "second compute reuses the buffer");
        assert_eq!(second.optimal_index, first_optimal);
    }

    #[test]
    fn without_persistence_every_compute_rebuilds() {
        let (tree, users) = world();
        let ctx = EngineContext::new(&tree, Objective::Max);
        let engine = Method::tile_directed_buffered(0.8, 20);
        let mut session = SessionState::new(users.len(), 0.3);
        for _ in 0..3 {
            session.observe(&users);
            let answer = engine.compute(ctx, &users, &mut session);
            assert_eq!(answer.stats.rtree_queries, 2);
        }
    }
}
