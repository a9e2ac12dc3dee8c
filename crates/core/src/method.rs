//! The one safe-region computation: step 3 of Fig. 3.
//!
//! [`Method`] describes a safe-region configuration — Circle-MSR (§4) or a Tile-MSR
//! configuration (§5, §6) — and computes with it.  Given the POI index view, the objective
//! and the users' locations it returns an [`Answer`]: the optimal meeting point plus one
//! independent safe region per user, and beside it the computation's [`ComputeStats`], which
//! the caller folds into its own tally at once.  There are two calls:
//!
//! * [`Method::answer`] answers a one-shot query.
//! * [`Method::answer_session`] answers a monitored group's update.  It threads the group's
//!   [`SessionState`] through the computation, so the heading predictors and the last answer
//!   persist across updates (the stateful server of Fig. 3).  A buffered Tile-MSR builds its
//!   §5.4 buffer inside every computation, one-shot or not.

use mpn_geom::Point;
use mpn_index::IndexView;

use crate::circle::{circle_msr, snapped_circle};
use crate::region::SafeRegion;
use crate::session::SessionState;
use crate::tile::{tile_msr, TileMsrConfig};
use crate::{ComputeStats, Objective};

/// The safe-region method used by the server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Method {
    /// Circular safe regions (Section 4, `Circle` in the experiments).
    Circle,
    /// Tile-based safe regions (Section 5, `Tile` / `Tile-D` / `Tile-D-b` in the experiments).
    Tile(TileMsrConfig),
}

impl Method {
    /// Circle-MSR.
    #[must_use]
    pub fn circle() -> Self {
        Method::Circle
    }

    /// Tile-MSR with the paper's default parameters (`Tile`).
    #[must_use]
    pub fn tile() -> Self {
        Method::Tile(TileMsrConfig::tile())
    }

    /// Tile-MSR with the directed ordering (`Tile-D`).
    #[must_use]
    pub fn tile_directed(theta: f64) -> Self {
        Method::Tile(TileMsrConfig::tile_directed(theta))
    }

    /// Tile-MSR with the directed ordering and buffering (`Tile-D-b`).
    #[must_use]
    pub fn tile_directed_buffered(theta: f64, b: usize) -> Self {
        Method::Tile(TileMsrConfig::tile_directed_buffered(theta, b))
    }

    /// Short name used in experiment output, mirroring the paper's legends.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Method::Circle => "Circle",
            Method::Tile(cfg) => cfg.name(),
        }
    }

    /// Whether this method ever reads the session's predicted headings.
    ///
    /// Circle-MSR does not, which lets the monitoring layer skip the per-epoch
    /// [`SessionState::observe`] call — one `atan2` per user on the tick hot path — for
    /// circle groups: the predictor state would be write-only, so not writing it is
    /// unobservable.
    #[must_use]
    pub fn uses_headings(&self) -> bool {
        matches!(self, Method::Tile(_))
    }

    /// One-shot computation: the optimal meeting point plus one safe region per user, and the
    /// computation's work counters.
    ///
    /// `view` is anything convertible to an [`IndexView`] (a `&RTree`, `&Arc<RTree>` or
    /// `&WorldView`).  `headings[i]`, when provided, is user `i`'s predicted travel direction
    /// (consumed by the directed tile ordering; Circle ignores it).
    ///
    /// # Panics
    /// Panics when the view or the user group is empty.
    #[must_use]
    pub fn answer<'a>(
        &self,
        view: impl Into<IndexView<'a>>,
        objective: Objective,
        users: &[Point],
        headings: Option<&[Option<f64>]>,
    ) -> (Answer, ComputeStats) {
        self.compute(view.into(), objective, users, headings)
    }

    /// Stateful computation for a monitored group: the tile methods read the predicted
    /// headings from the session.
    ///
    /// The answer is stored in (and borrowed back from) the session, so no per-update clone
    /// of the region vectors is paid; read it again later via [`SessionState::last_answer`].
    /// The work counters are returned beside it and not stored: a session keeps no tally.
    /// Callers must have fed the current locations to [`SessionState::observe`] beforehand
    /// (unless [`Method::uses_headings`] is `false`).
    ///
    /// # Panics
    /// Panics when the view or the user group is empty.
    pub fn answer_session<'a, 's>(
        &self,
        view: impl Into<IndexView<'a>>,
        objective: Objective,
        users: &[Point],
        session: &'s mut SessionState,
    ) -> (&'s Answer, ComputeStats) {
        let view = view.into();
        let (answer, stats) = match self {
            // Circle-MSR never reads a heading, so the per-update `predicted_headings()`
            // vector is skipped: the only allocation left in a circle update is the answer's
            // region vector.
            Method::Circle => self.compute(view, objective, users, None),
            Method::Tile(_) => {
                self.compute(view, objective, users, Some(&session.predicted_headings()))
            }
        };
        (session.record_answer(answer), stats)
    }

    fn compute(
        &self,
        view: IndexView<'_>,
        objective: Objective,
        users: &[Point],
        headings: Option<&[Option<f64>]>,
    ) -> (Answer, ComputeStats) {
        let (optimal, regions, stats) = match self {
            Method::Circle => {
                let out = circle_msr(view, users, objective);
                let stats = ComputeStats { gnn: out.stats, rtree_queries: 1, ..Default::default() };
                let circle = |u: &Point| SafeRegion::Circle(snapped_circle(*u, out.radius));
                (out.optimal, users.iter().map(circle).collect(), stats)
            }
            Method::Tile(config) => {
                let out = tile_msr(view, users, objective, config, headings);
                // Not `collect()`: it would keep the larger `Vec<TileRegion>` allocation, and
                // boxing that would copy it.  An exactly sized `Vec` boxes in place.
                let mut regions = Vec::with_capacity(out.regions.len());
                regions.extend(
                    out.regions.into_iter().map(|tiles| SafeRegion::Tiles(Box::new(tiles))),
                );
                (out.optimal, regions.into_boxed_slice(), out.stats)
            }
        };
        let answer = Answer {
            optimal_index: optimal.entry.id,
            optimal_point: optimal.entry.location,
            regions,
        };
        (answer, stats)
    }
}

/// A full answer from the server: the meeting point and one safe region per user.
#[derive(Debug, Clone)]
pub struct Answer {
    /// Index (POI id) of the optimal meeting point in the data set.
    pub optimal_index: usize,
    /// Location of the optimal meeting point `pᵒ`.
    pub optimal_point: Point,
    /// One safe region per user, in the order of the `users` slice (boxed: an answer never
    /// grows, so it keeps no capacity word).
    pub regions: Box<[SafeRegion]>,
}

impl Answer {
    /// Whether every user in `locations` is still inside her safe region.
    ///
    /// A `locations` slice of the wrong length is *not* inside: the answer describes a
    /// specific group, so a different group size can never satisfy it.
    #[must_use]
    pub fn all_inside(&self, locations: &[Point]) -> bool {
        locations.len() == self.regions.len()
            && self.regions.iter().zip(locations).all(|(region, l)| region.contains(*l))
    }

    /// How many users have left their safe regions: the exit check of every report, which
    /// allocates nothing.  `locations` holds one location per user, in the answer's order (a
    /// truncating `zip` would count the tail users as inside, so debug builds assert it).
    #[must_use]
    pub fn leavers(&self, locations: &[Point]) -> usize {
        debug_assert_eq!(locations.len(), self.regions.len(), "one location per safe region");
        self.regions.iter().zip(locations).filter(|(region, l)| !region.contains(**l)).count()
    }
}

// The benchmark's traced replay (`benchmark/src/trace.rs`) still computes through the trait
// below, and the benchmark is only ever changed on its own.  These four items exist for it
// alone: nothing else in the workspace names them (CI checks), and ROADMAP item 1(a) deletes
// them when `trace.rs` calls `Method::answer_session` directly.

/// The POI index view and the objective of one computation (benchmark shim, see above).
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

/// What [`SafeRegionEngine::compute`] returns (benchmark shim, see above).
pub struct SafeRegionEngineOutput {
    /// The computation's work counters (the answer is the session's last).
    pub stats: ComputeStats,
}

/// [`Method::answer_session`] behind a trait object (benchmark shim, see above).
pub trait SafeRegionEngine {
    /// Forwards to [`Method::answer_session`].
    fn compute(
        &self,
        ctx: EngineContext<'_>,
        users: &[Point],
        session: &mut SessionState,
    ) -> SafeRegionEngineOutput;
}

impl SafeRegionEngine for Method {
    fn compute(
        &self,
        ctx: EngineContext<'_>,
        users: &[Point],
        session: &mut SessionState,
    ) -> SafeRegionEngineOutput {
        SafeRegionEngineOutput {
            stats: self.answer_session(ctx.tree, ctx.objective, users, session).1,
        }
    }
}

impl Method {
    /// This method as a boxed [`SafeRegionEngine`] (benchmark shim, see above).
    #[must_use]
    pub fn engine(&self) -> Box<dyn SafeRegionEngine> {
        Box::new(*self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpn_index::RTree;

    fn world() -> (RTree, Vec<Point>) {
        let pois: Vec<Point> =
            (0..64).map(|i| Point::new(f64::from(i % 8) * 5.0, f64::from(i / 8) * 5.0)).collect();
        let users = vec![Point::new(11.0, 12.0), Point::new(14.0, 16.0), Point::new(9.0, 17.0)];
        (RTree::bulk_load(&pois), users)
    }

    #[test]
    fn method_names_match_the_paper_legends() {
        assert_eq!(Method::circle().name(), "Circle");
        assert_eq!(Method::tile().name(), "Tile");
        assert_eq!(Method::tile_directed(0.5).name(), "Tile-D");
        assert_eq!(Method::tile_directed_buffered(0.5, 100).name(), "Tile-D-b");
    }

    #[test]
    fn circle_and_tile_agree_on_the_optimal_point() {
        let (tree, users) = world();
        for objective in [Objective::Max, Objective::Sum] {
            let (circle, _) = Method::circle().answer(&tree, objective, &users, None);
            let (tile, _) = Method::tile().answer(&tree, objective, &users, None);
            assert_eq!(circle.optimal_index, tile.optimal_index);
            assert_eq!(circle.optimal_point, tile.optimal_point);
        }
    }

    #[test]
    fn answers_contain_one_region_per_user_and_users_start_inside() {
        let (tree, users) = world();
        for method in [Method::circle(), Method::tile(), Method::tile_directed(0.8)] {
            let (answer, _) = method.answer(&tree, Objective::Max, &users, None);
            assert_eq!(answer.regions.len(), users.len());
            assert!(answer.all_inside(&users));
            assert_eq!(answer.leavers(&users), 0);
        }
    }

    #[test]
    fn leavers_are_counted() {
        let (tree, users) = world();
        let (answer, _) = Method::circle().answer(&tree, Objective::Max, &users, None);
        let mut moved = users.clone();
        moved[1] = Point::new(1000.0, 1000.0);
        assert!(!answer.all_inside(&moved));
        assert_eq!(answer.leavers(&moved), 1);
        moved[2] = moved[1];
        assert_eq!(answer.leavers(&moved), 2);
    }

    #[test]
    fn mismatched_location_count_is_not_inside() {
        let (tree, users) = world();
        let (answer, _) = Method::circle().answer(&tree, Objective::Max, &users, None);
        assert!(!answer.all_inside(&users[..2]));
    }

    #[test]
    fn tile_regions_cover_at_least_the_circle_inscribed_square() {
        let (tree, users) = world();
        let (circle, _) = Method::circle().answer(&tree, Objective::Max, &users, None);
        let (tile, _) = Method::tile().answer(&tree, Objective::Max, &users, None);
        // The tile method is a refinement of the circle method: each tile region contains the
        // maximal square inscribed in the corresponding circle, so the user can travel at
        // least as far along the axes.
        for (c, t) in circle.regions.iter().zip(&tile.regions) {
            let (SafeRegion::Circle(circle), SafeRegion::Tiles(tiles)) = (c, t) else {
                panic!("unexpected region kinds");
            };
            let half = circle.radius / std::f64::consts::SQRT_2;
            for (sx, sy) in [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)] {
                let corner = Point::new(circle.center.x + sx * half, circle.center.y + sy * half);
                // Shrink the corner towards the centre a hair to avoid boundary ties.
                let towards = circle.center.lerp(corner, 0.999);
                assert!(tiles.contains(towards));
            }
        }
    }

    #[test]
    fn default_stateful_compute_records_the_answer() {
        let (tree, users) = world();
        let mut session = SessionState::new(users.len(), 0.3);
        session.observe(&users);
        assert!(session.last_answer().is_none());
        let optimal = Method::circle()
            .answer_session(&tree, Objective::Max, &users, &mut session)
            .0
            .optimal_index;
        assert_eq!(session.last_answer().unwrap().optimal_index, optimal);
    }

    #[test]
    fn every_buffered_compute_builds_its_buffer() {
        let (tree, users) = world();
        let method = Method::tile_directed_buffered(0.8, 20);
        // The flag is a benchmark-only shim: a session never keeps a buffer across updates,
        // so every update makes the seed GNN query and the buffer's, small move or not.
        let mut session = SessionState::new(users.len(), 0.3).with_persistent_buffers(true);
        for step in 0..3 {
            let moved: Vec<Point> =
                users.iter().map(|u| Point::new(u.x + 0.2 * f64::from(step), u.y)).collect();
            session.observe(&moved);
            let (_, stats) = method.answer_session(&tree, Objective::Max, &moved, &mut session);
            assert_eq!(stats.rtree_queries, 2, "update {step}");
        }
    }
}
