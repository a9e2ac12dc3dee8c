//! The server-side safe-region computation API.
//!
//! [`MpnServer`] bundles a POI R-tree, an objective (MAX or SUM) and a safe-region method
//! (Circle-MSR or a Tile-MSR configuration) behind a single `compute` call that returns the
//! optimal meeting point plus one safe region per user — exactly the reply of "Step 3" in the
//! system architecture of Fig. 3.
//!
//! [`Method`] is the one description of a safe-region configuration; it computes through its
//! [`SafeRegionEngine`] implementation (`crate::engine`).  For continuous monitoring,
//! [`MpnServer::compute_session`] threads a per-group [`SessionState`] through the method so
//! heading predictors and §5.4 GNN buffers persist across updates.

use mpn_geom::Point;
use mpn_index::IndexView;

use crate::circle::DEFAULT_RADIUS_CAP;
use crate::engine::{EngineContext, SafeRegionEngine};
use crate::region::SafeRegion;
use crate::session::SessionState;
use crate::tile::TileMsrConfig;
use crate::{ComputeStats, Objective};

/// The safe-region method used by the server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Method {
    /// Circular safe regions (Section 4, `Circle` in the experiments).
    Circle {
        /// Upper bound on the circle radius for degenerate data sets.
        radius_cap: f64,
    },
    /// Tile-based safe regions (Section 5, `Tile` / `Tile-D` / `Tile-D-b` in the experiments).
    Tile(TileMsrConfig),
}

impl Method {
    /// Circle-MSR with the default radius cap.
    #[must_use]
    pub fn circle() -> Self {
        Method::Circle { radius_cap: DEFAULT_RADIUS_CAP }
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
            Method::Circle { .. } => "Circle",
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

    /// This method as a boxed [`SafeRegionEngine`], for callers that hold a trait object.
    #[must_use]
    pub fn engine(&self) -> Box<dyn SafeRegionEngine> {
        Box::new(*self)
    }
}

/// A full answer from the server: the meeting point and one safe region per user.
#[derive(Debug, Clone)]
pub struct Answer {
    /// Index (POI id) of the optimal meeting point in the data set.
    pub optimal_index: usize,
    /// Location of the optimal meeting point `pᵒ`.
    pub optimal_point: Point,
    /// Aggregate distance of the group to `pᵒ` at computation time.
    pub optimal_dist: f64,
    /// One safe region per user, in the order of the `users` slice.
    pub regions: Vec<SafeRegion>,
    /// Work counters for the computation.
    pub stats: ComputeStats,
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

    /// Indices of the users that have left their safe regions.
    ///
    /// # Contract
    /// `locations` must hold exactly one location per user, in the order of the `users` slice
    /// the answer was computed for (`locations.len() == self.regions.len()`).  Unlike
    /// [`Answer::all_inside`], which treats a length mismatch as "not inside", this method has
    /// no sensible lenient reading — a silently truncating `zip` would report the tail users
    /// as compliant — so the contract is asserted in debug builds.
    #[must_use]
    pub fn violators(&self, locations: &[Point]) -> Vec<usize> {
        debug_assert_eq!(
            locations.len(),
            self.regions.len(),
            "violators requires one location per safe region"
        );
        self.regions
            .iter()
            .zip(locations)
            .enumerate()
            .filter(|(_, (region, l))| !region.contains(**l))
            .map(|(i, _)| i)
            .collect()
    }
}

/// Server-side safe-region computation bound to a POI index.
#[derive(Debug)]
pub struct MpnServer<'a> {
    view: IndexView<'a>,
    objective: Objective,
    method: Method,
}

impl<'a> MpnServer<'a> {
    /// Creates a server over the POI index (a `&RTree`, `&Arc<RTree>` or `&WorldView`).
    #[must_use]
    pub fn new(tree: impl Into<IndexView<'a>>, objective: Objective, method: Method) -> Self {
        Self { view: tree.into(), objective, method }
    }

    /// Computes the optimal meeting point and safe regions for the current user locations.
    #[must_use]
    pub fn compute(&self, users: &[Point]) -> Answer {
        self.compute_with_headings(users, None)
    }

    /// Like [`MpnServer::compute`], additionally passing per-user predicted headings for the
    /// directed tile ordering (ignored by other methods).
    #[must_use]
    pub fn compute_with_headings(
        &self,
        users: &[Point],
        headings: Option<&[Option<f64>]>,
    ) -> Answer {
        self.method.compute_stateless(self.context(), users, headings)
    }

    /// Stateful computation for continuous monitoring: reads the predicted headings from the
    /// session, lets the method reuse any persistent state (e.g. the §5.4 GNN buffer) and
    /// records the answer back into the session.
    ///
    /// The answer is owned by the session (also available as [`SessionState::last_answer`])
    /// and borrowed back, so no per-update copy of the region vectors is made.  Callers must
    /// have fed the current locations to [`SessionState::observe`] first.
    #[must_use]
    pub fn compute_session<'s>(
        &self,
        users: &[Point],
        session: &'s mut SessionState,
    ) -> &'s Answer {
        self.method.compute(self.context(), users, session)
    }

    fn context(&self) -> EngineContext<'a> {
        EngineContext::new(self.view, self.objective)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpn_index::RTree;

    fn world() -> (RTree, Vec<Point>) {
        let pois: Vec<Point> =
            (0..49).map(|i| Point::new(f64::from(i % 7) * 4.0, f64::from(i / 7) * 4.0)).collect();
        let users = vec![Point::new(9.0, 9.0), Point::new(13.0, 11.0), Point::new(10.0, 14.0)];
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
            let circle = MpnServer::new(&tree, objective, Method::circle()).compute(&users);
            let tile = MpnServer::new(&tree, objective, Method::tile()).compute(&users);
            assert_eq!(circle.optimal_index, tile.optimal_index);
            assert!((circle.optimal_dist - tile.optimal_dist).abs() < 1e-9);
        }
    }

    #[test]
    fn answers_contain_one_region_per_user_and_users_start_inside() {
        let (tree, users) = world();
        for method in [Method::circle(), Method::tile(), Method::tile_directed(0.8)] {
            let answer = MpnServer::new(&tree, Objective::Max, method).compute(&users);
            assert_eq!(answer.regions.len(), users.len());
            assert!(answer.all_inside(&users));
            assert!(answer.violators(&users).is_empty());
        }
    }

    #[test]
    fn violators_are_reported_by_index() {
        let (tree, users) = world();
        let answer = MpnServer::new(&tree, Objective::Max, Method::circle()).compute(&users);
        let mut moved = users.clone();
        moved[1] = Point::new(1000.0, 1000.0);
        assert!(!answer.all_inside(&moved));
        assert_eq!(answer.violators(&moved), vec![1]);
    }

    #[test]
    fn mismatched_location_count_is_not_inside() {
        let (tree, users) = world();
        let answer = MpnServer::new(&tree, Objective::Max, Method::circle()).compute(&users);
        assert!(!answer.all_inside(&users[..2]));
    }

    #[test]
    fn tile_regions_cover_at_least_the_circle_inscribed_square() {
        let (tree, users) = world();
        let circle = MpnServer::new(&tree, Objective::Max, Method::circle()).compute(&users);
        let tile = MpnServer::new(&tree, Objective::Max, Method::tile()).compute(&users);
        // The tile method is a refinement of the circle method: each tile region contains the
        // maximal square inscribed in the corresponding circle, so the user can travel at
        // least as far along the axes.
        for (c, t) in circle.regions.iter().zip(&tile.regions) {
            let (SafeRegion::Circle(circle), SafeRegion::Tiles(tiles)) = (c, t) else {
                panic!("unexpected region kinds");
            };
            let inscribed = circle.inscribed_square_rect();
            for corner in inscribed.corners() {
                // Shrink the corner towards the centre a hair to avoid boundary ties.
                let towards = circle.center.lerp(corner, 0.999);
                assert!(tiles.contains(towards));
            }
        }
    }
}
