//! Circular safe regions: the Circle-MSR algorithm (Section 4.2, Algorithm 1).
//!
//! Every user receives a circle around her current location, all within the same radius.
//! The maximal radius keeping the group valid is derived from the best and second-best
//! meeting points: Theorem 1 for the MAX objective, Theorem 5 for the SUM objective.
//! The circle sent is [`snapped_circle`]: `f32`-exact, and inside the Theorem 1 / 5 disc.

use mpn_geom::{Circle, Point};
use mpn_index::{GnnNeighbor, IndexView, QueryStats};

use crate::region::f32_down;
use crate::Objective;

/// Result of Circle-MSR: the optimum, the runner-up and the common radius.  Every user's
/// safe region is the circle of that radius centred at her location.
#[derive(Debug, Clone)]
pub struct CircleMsr {
    /// The optimal meeting point `pᵒ` (top-1 GNN).
    pub optimal: GnnNeighbor,
    /// The second-best meeting point, used to derive the radius; `None` when the data set has
    /// a single POI (the radius is then [`RADIUS_CAP`]).
    pub runner_up: Option<GnnNeighbor>,
    /// The maximal common radius `r_max`, at most [`RADIUS_CAP`].
    pub radius: f64,
    /// R-tree traversal statistics of the underlying GNN query.
    pub stats: QueryStats,
}

/// Upper bound applied to the circle radius when the POI set cannot bound it
/// (single-POI data sets).  Chosen to comfortably exceed any workload domain used in the
/// experiments while staying far from floating-point overflow.
pub const RADIUS_CAP: f64 = 1.0e9;

/// Maximal common radius for circular safe regions.
///
/// * MAX objective (Theorem 1): `r = (‖p₂, U‖max − ‖pᵒ, U‖max) / 2`.
/// * SUM objective (Theorem 5): `r = (‖p₂, U‖sum − ‖pᵒ, U‖sum) / (2m)`.
#[must_use]
pub fn maximal_circle_radius(
    objective: Objective,
    best_dist: f64,
    second_dist: f64,
    group_size: usize,
) -> f64 {
    let gap = (second_dist - best_dist).max(0.0);
    match objective {
        Objective::Max => gap / 2.0,
        Objective::Sum => gap / (2.0 * group_size as f64),
    }
}

/// The region sent to the user at `u` for the radius `r`: centred at the nearest `f32` point
/// `c′`, radius `r − ‖u, c′‖` rounded down to an `f32`, so every point of it is within `r` of
/// `u` (Theorem 1 / 5 holds).  The exact `Circle(u, r)` when that would not hold `u` strictly
/// inside: a best/runner-up tie (`r = 0`), or `r` below twice the snap.
#[must_use]
pub fn snapped_circle(u: Point, r: f64) -> Circle {
    let center = Point::new(f64::from(u.x as f32), f64::from(u.y as f32));
    let snap = u.dist(center);
    let radius = f32_down(r - snap);
    let (center, radius) = if radius > snap { (center, radius) } else { (u, r) };
    Circle::new(center, radius)
}

/// Runs Circle-MSR (Algorithm 1) over the POI view for the given user group: the top-2 GNN
/// plus the Theorem 1 / Theorem 5 radius.
///
/// Accepts anything convertible to an [`IndexView`]: a plain `&RTree`, an `&Arc<RTree>` or
/// a mutable world's current tree.
///
/// # Panics
/// Panics when the view is empty or the user group is empty — there is no meeting point to
/// monitor in either case.
#[must_use]
pub fn circle_msr<'a>(
    tree: impl Into<IndexView<'a>>,
    users: &[Point],
    objective: Objective,
) -> CircleMsr {
    let view = tree.into();
    assert!(!view.is_empty(), "Circle-MSR requires a non-empty POI set");
    assert!(!users.is_empty(), "Circle-MSR requires at least one user");

    let (best, runner_up, stats) = view.top2(users, objective.aggregate());
    let optimal = best.expect("a non-empty view yields a top-1 GNN");
    let radius = runner_up
        .map_or(RADIUS_CAP, |second| {
            maximal_circle_radius(objective, optimal.dist, second.dist, users.len())
        })
        .min(RADIUS_CAP);
    CircleMsr { optimal, runner_up, radius, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpn_geom::{max_dist_to_set, sum_dist_to_set, Circle, DistanceBounds};
    use mpn_index::RTree;

    fn small_world() -> (RTree, Vec<Point>) {
        let pois = vec![
            Point::new(2.0, 2.0),
            Point::new(8.0, 3.0),
            Point::new(5.0, 9.0),
            Point::new(-4.0, 1.0),
        ];
        let users = vec![Point::new(1.0, 1.0), Point::new(3.0, 2.0), Point::new(2.0, 4.0)];
        (RTree::bulk_load(&pois), users)
    }

    #[test]
    fn radius_formulas_match_theorems() {
        assert_eq!(maximal_circle_radius(Objective::Max, 4.0, 10.0, 3), 3.0);
        assert_eq!(maximal_circle_radius(Objective::Sum, 4.0, 10.0, 3), 1.0);
        // A tie between best and runner-up gives a zero radius, never a negative one.
        assert_eq!(maximal_circle_radius(Objective::Max, 5.0, 5.0, 2), 0.0);
        assert_eq!(maximal_circle_radius(Objective::Max, 5.0, 4.0, 2), 0.0);
    }

    #[test]
    fn circle_msr_picks_the_max_gnn_and_centres_circles_on_users() {
        let (tree, users) = small_world();
        let out = circle_msr(&tree, &users, Objective::Max);
        assert_eq!(out.optimal.entry.id, 0, "(2,2) minimises the max distance");
        assert!(out.radius > 0.0);
        let (answer, _) = crate::Method::Circle.answer(&tree, Objective::Max, &users, None);
        assert_eq!(answer.regions.len(), users.len());
        for (region, user) in answer.regions.iter().zip(&users) {
            let crate::SafeRegion::Circle(circle) = region else { panic!("not a circle") };
            // Centred within one `f32` snap of the user, shrunk by at least the snap.
            let snap = circle.center.dist(*user);
            assert!(snap <= f64::from(f32::EPSILON) * user.x.abs().max(user.y.abs()));
            assert!(circle.radius + snap <= out.radius);
            assert!(snap < circle.radius, "the user is strictly inside");
        }
    }

    #[test]
    fn circle_msr_radius_matches_manual_computation() {
        let (tree, users) = small_world();
        for objective in [Objective::Max, Objective::Sum] {
            let out = circle_msr(&tree, &users, objective);
            let agg = |p: Point| match objective {
                Objective::Max => max_dist_to_set(p, &users),
                Objective::Sum => sum_dist_to_set(p, &users),
            };
            let mut dists: Vec<f64> = tree.iter().map(|e| agg(e.location)).collect();
            dists.sort_by(f64::total_cmp);
            let expected = maximal_circle_radius(objective, dists[0], dists[1], users.len());
            assert!((out.radius - expected).abs() < 1e-9);
        }
    }

    #[test]
    fn circle_regions_are_valid_safe_regions() {
        // Sample locations inside the circles and confirm the optimum never changes.
        let (tree, users) = small_world();
        for objective in [Objective::Max, Objective::Sum] {
            let out = circle_msr(&tree, &users, objective);
            let pois: Vec<Point> = tree.iter().map(|e| e.location).collect();
            // Deterministic sampling on a small grid of offsets inside each circle.
            let offsets = [-0.99, -0.5, 0.0, 0.5, 0.99];
            for &ox in &offsets {
                for &oy in &offsets {
                    if ox * ox + oy * oy > 1.0 {
                        continue;
                    }
                    let moved: Vec<Point> = users
                        .iter()
                        .map(|u| Point::new(u.x + ox * out.radius, u.y + oy * out.radius))
                        .collect();
                    for (user, l) in users.iter().zip(&moved) {
                        assert!(Circle::new(*user, out.radius).contains(*l));
                    }
                    let agg = |p: Point| objective.aggregate().point_dist(p, &moved);
                    let best = pois.iter().map(|p| agg(*p)).fold(f64::INFINITY, f64::min);
                    let current = agg(out.optimal.entry.location);
                    assert!(
                        current <= best + 1e-9,
                        "{objective:?}: optimum changed after moving inside circles"
                    );
                }
            }
        }
    }

    #[test]
    fn single_poi_uses_the_radius_cap() {
        let tree = RTree::bulk_load(&[Point::new(0.0, 0.0)]);
        let users = vec![Point::new(1.0, 1.0)];
        let out = circle_msr(&tree, &users, Objective::Max);
        assert!(out.runner_up.is_none());
        assert_eq!(out.radius, RADIUS_CAP);
    }

    #[test]
    #[should_panic(expected = "non-empty POI set")]
    fn empty_tree_panics() {
        let tree = RTree::bulk_load(&[]);
        let _ = circle_msr(&tree, &[Point::ORIGIN], Objective::Max);
    }
}
