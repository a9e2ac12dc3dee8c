//! The open safe-region engine interface.
//!
//! The original server dispatched over a closed [`Method`](crate::server::Method) enum, so
//! adding a new safe-region family meant editing the server.  [`SafeRegionEngine`] inverts
//! that: each region family is an engine implementing one trait, the server (and the
//! monitoring layer in `mpn-sim`) only talk to the trait object, and new families plug in
//! without touching either.  Two engines ship with the crate:
//!
//! * [`CircleEngine`] — circular safe regions (Section 4, Circle-MSR);
//! * [`TileEngine`] — tile-based safe regions (Section 5, every Tile/Tile-D/Tile-D-b
//!   configuration), with optional reuse of the §5.4 GNN buffer across updates.
//!
//! Engines come in two flavours of invocation: [`compute_stateless`]
//! (SafeRegionEngine::compute_stateless) answers a one-shot query, while
//! [`compute`](SafeRegionEngine::compute) threads a mutable per-group
//! [`SessionState`] through the call so heading predictors, buffered GNN prefixes and the
//! last answer persist across updates — the stateful server loop of Fig. 3.

use std::fmt;

use mpn_geom::Point;
use mpn_index::IndexView;

use crate::circle::{circle_msr_answer, DEFAULT_RADIUS_CAP};
use crate::region::SafeRegion;
use crate::server::Answer;
use crate::session::SessionState;
use crate::tile::{tile_msr_cached, TileMsr, TileMsrConfig};
use crate::Objective;

/// Everything an engine needs from the server: the POI index view and the objective.
///
/// Borrowed per call so one engine instance can serve many trees and objectives (and so
/// engines stay `Send + Sync` for the sharded monitoring engine).  The view is an
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
/// Implementations must be `Send + Sync`: the monitoring engine advances many groups in
/// parallel, each holding its own boxed engine.
pub trait SafeRegionEngine: fmt::Debug + Send + Sync {
    /// Short name used in experiment output, mirroring the paper's legends.
    fn name(&self) -> &'static str;

    /// Whether this engine ever reads the session's predicted headings.
    ///
    /// Engines that return `false` let the monitoring layer skip the per-update
    /// [`SessionState::observe`] call entirely — one `atan2` per user per epoch on the tick
    /// hot path.  This is sound only when the engine never consults
    /// [`SessionState::predicted_headings`] (the predictor state becomes write-only, so not
    /// writing it is unobservable).  Defaults to `true`; the directed tile orderings are the
    /// reason the hook exists on the trait rather than being hard-coded per method.
    fn uses_headings(&self) -> bool {
        true
    }

    /// One-shot computation: the optimal meeting point plus one safe region per user.
    ///
    /// `headings[i]`, when provided, is user `i`'s predicted travel direction (consumed by the
    /// directed tile ordering; other engines ignore it).
    fn compute_stateless(
        &self,
        ctx: EngineContext<'_>,
        users: &[Point],
        headings: Option<&[Option<f64>]>,
    ) -> Answer;

    /// Stateful computation threading the per-group session.
    ///
    /// The answer is stored in (and borrowed back from) the session, so no per-update clone
    /// of the region vectors is paid; read it again later via [`SessionState::last_answer`].
    ///
    /// The default implementation reads the predicted headings from the session, delegates to
    /// [`compute_stateless`](SafeRegionEngine::compute_stateless) and records the answer in
    /// the session.  Engines with reusable state (e.g. the tile engine's GNN buffer) override
    /// it.  Callers must have fed the current locations to
    /// [`SessionState::observe`] beforehand.
    fn compute<'s>(
        &self,
        ctx: EngineContext<'_>,
        users: &[Point],
        session: &'s mut SessionState,
    ) -> &'s Answer {
        let headings = session.predicted_headings();
        let answer = self.compute_stateless(ctx, users, Some(&headings));
        session.record_answer(answer, ctx.tree.generation())
    }
}

/// Circular safe regions (Section 4, `Circle` in the experiments).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CircleEngine {
    /// Upper bound on the circle radius for degenerate data sets.
    pub radius_cap: f64,
}

impl CircleEngine {
    /// An engine with the given radius cap.
    #[must_use]
    pub fn new(radius_cap: f64) -> Self {
        Self { radius_cap }
    }
}

impl Default for CircleEngine {
    fn default() -> Self {
        Self { radius_cap: DEFAULT_RADIUS_CAP }
    }
}

impl SafeRegionEngine for CircleEngine {
    fn name(&self) -> &'static str {
        "Circle"
    }

    /// Circle-MSR is heading-oblivious: neither [`compute`](SafeRegionEngine::compute) below
    /// nor [`circle_msr_answer`] ever reads a predicted heading, so the monitoring layer may
    /// skip feeding the predictors for circle groups.
    fn uses_headings(&self) -> bool {
        false
    }

    fn compute_stateless(
        &self,
        ctx: EngineContext<'_>,
        users: &[Point],
        _headings: Option<&[Option<f64>]>,
    ) -> Answer {
        circle_msr_answer(ctx.tree, users, ctx.objective, self.radius_cap)
    }

    /// Circle-MSR ignores headings, so the stateful path skips the per-update
    /// `predicted_headings()` vector the default implementation would build — with a warm
    /// query cache the only allocation left in a circle update is the answer's region
    /// vector.
    fn compute<'s>(
        &self,
        ctx: EngineContext<'_>,
        users: &[Point],
        session: &'s mut SessionState,
    ) -> &'s Answer {
        let answer = self.compute_stateless(ctx, users, None);
        session.record_answer(answer, ctx.tree.generation())
    }
}

/// Tile-based safe regions (Section 5, `Tile` / `Tile-D` / `Tile-D-b` in the experiments).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TileEngine {
    /// The Tile-MSR configuration (ordering, pruning, buffering, …).
    pub config: TileMsrConfig,
}

impl TileEngine {
    /// An engine with the given Tile-MSR configuration.
    #[must_use]
    pub fn new(config: TileMsrConfig) -> Self {
        Self { config }
    }

    fn answer_from(out: TileMsr) -> Answer {
        Answer {
            optimal_index: out.optimal.entry.id,
            optimal_point: out.optimal.entry.location,
            optimal_dist: out.optimal.dist,
            regions: out.regions.into_iter().map(SafeRegion::Tiles).collect(),
            stats: out.stats,
        }
    }
}

impl SafeRegionEngine for TileEngine {
    fn name(&self) -> &'static str {
        self.config.name()
    }

    fn compute_stateless(
        &self,
        ctx: EngineContext<'_>,
        users: &[Point],
        headings: Option<&[Option<f64>]>,
    ) -> Answer {
        let out =
            tile_msr_cached(ctx.tree, users, ctx.objective, &self.config, headings, &mut None);
        Self::answer_from(out)
    }

    fn compute<'s>(
        &self,
        ctx: EngineContext<'_>,
        users: &[Point],
        session: &'s mut SessionState,
    ) -> &'s Answer {
        let headings = session.predicted_headings();
        let answer = if let Some(cache) = session.buffer_slot_mut() {
            let out = tile_msr_cached(
                ctx.tree,
                users,
                ctx.objective,
                &self.config,
                Some(&headings),
                cache,
            );
            if out.built_buffer {
                session.count_buffer_builds(1);
            }
            Self::answer_from(out)
        } else {
            self.compute_stateless(ctx, users, Some(&headings))
        };
        session.record_answer(answer, ctx.tree.generation())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{Method, MpnServer};
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
            assert_eq!(method.engine().name(), method.name());
        }
    }

    #[test]
    fn default_stateful_compute_records_the_answer() {
        let (tree, users) = world();
        let ctx = EngineContext::new(&tree, Objective::Max);
        let engine = CircleEngine::default();
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
        let engine = TileEngine::new(TileMsrConfig::tile_directed_buffered(0.8, 20));
        let mut session = SessionState::new(users.len(), 0.3).with_persistent_buffers(true);

        session.observe(&users);
        let first = engine.compute(ctx, &users, &mut session);
        let (first_queries, first_optimal) = (first.stats.rtree_queries, first.optimal_index);
        assert_eq!(first_queries, 2, "first compute builds the buffer");
        assert_eq!(session.buffer_builds(), 1);
        assert!(session.has_cached_buffer());

        // A small move: the optimum is unchanged, so the buffer must be reused.
        let moved: Vec<Point> = users.iter().map(|u| Point::new(u.x + 0.2, u.y)).collect();
        session.observe(&moved);
        let second = engine.compute(ctx, &moved, &mut session);
        assert_eq!(second.stats.rtree_queries, 1, "second compute reuses the buffer");
        assert_eq!(second.optimal_index, first_optimal);
        assert_eq!(session.buffer_builds(), 1);
    }

    #[test]
    fn without_persistence_every_compute_rebuilds() {
        let (tree, users) = world();
        let ctx = EngineContext::new(&tree, Objective::Max);
        let engine = TileEngine::new(TileMsrConfig::tile_directed_buffered(0.8, 20));
        let mut session = SessionState::new(users.len(), 0.3);
        for _ in 0..3 {
            session.observe(&users);
            let answer = engine.compute(ctx, &users, &mut session);
            assert_eq!(answer.stats.rtree_queries, 2);
        }
    }
}
