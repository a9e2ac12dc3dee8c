//! Minimisation of the focal difference `f(l) = ‖p', l‖ − ‖pᵒ, l‖` over a square tile.
//!
//! The SUM-objective verification (Section 6.3.1, Algorithm 6 of the paper) needs, for every
//! user tile `s`, the minimum of the focal difference between a candidate point `p'` and the
//! current optimum `pᵒ`.  The level sets of `f` are hyperbola branches with foci `p'` and `pᵒ`
//! (Fig. 12), and the paper observes that the minimum over a square occurs either at a corner
//! or where the square's boundary crosses the focal axis (the line through `p'` and `pᵒ`).
//!
//! We evaluate those analytical candidates *and* additionally run a bounded numeric
//! minimisation along every edge.  The extra pass costs a few dozen evaluations per tile and
//! guards against edge cases where an edge is tangent to a level hyperbola, so the returned
//! value can safely be used as a conservative lower bound by the verification predicates.

use crate::{DistanceBounds, Point, Square};

/// The focal difference `f(l) = ‖p_prime, l‖ − ‖p_opt, l‖` at a single location.
///
/// Negative values mean `l` is closer to the candidate `p_prime` than to the current optimum —
/// exactly the situation that can invalidate a safe region.
#[must_use]
pub fn focal_diff(p_prime: Point, p_opt: Point, l: Point) -> f64 {
    p_prime.dist(l) - p_opt.dist(l)
}

/// Minimum of the focal difference over a square tile.
///
/// This is the per-user term minimised independently in Equation (13) of the paper.  The value
/// is bounded below by `−‖p_prime, p_opt‖` and above by `+‖p_prime, p_opt‖` (triangle
/// inequality); the implementation asserts the lower bound in debug builds.
#[must_use]
pub fn min_focal_diff_over_square(p_prime: Point, p_opt: Point, tile: &Square) -> f64 {
    let mut best = f64::INFINITY;
    let mut consider = |l: Point| {
        let v = focal_diff(p_prime, p_opt, l);
        if v < best {
            best = v;
        }
    };

    // 1. Corners of the tile.
    for c in tile.corners() {
        consider(c);
    }

    // 2. Intersections of every edge with the focal axis (the infinite line p' pᵒ).
    let degenerate_axis = p_prime.dist(p_opt) < 1e-12;
    for edge in tile.edges() {
        if !degenerate_axis {
            if let Some(x) = edge.intersect_line(p_prime, p_opt) {
                consider(x);
            }
        }
        // 3. Numeric sweep + local refinement along the edge (robustness against tangency
        //    of an edge with a level hyperbola).
        const SAMPLES: usize = 16;
        let mut best_t = 0.0;
        let mut best_v = f64::INFINITY;
        for i in 0..=SAMPLES {
            let t = i as f64 / SAMPLES as f64;
            let v = focal_diff(p_prime, p_opt, edge.point_at(t));
            if v < best_v {
                best_v = v;
                best_t = t;
            }
        }
        // Golden-section refinement around the best sample.
        let mut lo = (best_t - 1.0 / SAMPLES as f64).max(0.0);
        let mut hi = (best_t + 1.0 / SAMPLES as f64).min(1.0);
        const PHI: f64 = 0.618_033_988_749_894_9;
        for _ in 0..32 {
            let m1 = hi - PHI * (hi - lo);
            let m2 = lo + PHI * (hi - lo);
            let f1 = focal_diff(p_prime, p_opt, edge.point_at(m1));
            let f2 = focal_diff(p_prime, p_opt, edge.point_at(m2));
            if f1 < f2 {
                hi = m2;
            } else {
                lo = m1;
            }
        }
        consider(edge.point_at((lo + hi) / 2.0));
    }

    // 4. If the tile contains either focus, the extreme values are attained exactly there.
    if tile.contains(p_prime) {
        consider(p_prime);
    }
    if tile.contains(p_opt) {
        consider(p_opt);
    }

    debug_assert!(
        best >= -p_prime.dist(p_opt) - 1e-9,
        "focal minimum {best} below the analytic lower bound"
    );
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute_force_min(p_prime: Point, p_opt: Point, tile: &Square, n: usize) -> f64 {
        let r = tile.to_rect();
        let mut best = f64::INFINITY;
        for i in 0..=n {
            for j in 0..=n {
                let l = Point::new(
                    r.lo.x + r.width() * i as f64 / n as f64,
                    r.lo.y + r.height() * j as f64 / n as f64,
                );
                best = best.min(focal_diff(p_prime, p_opt, l));
            }
        }
        best
    }

    #[test]
    fn focal_diff_sign_matches_proximity() {
        let p_prime = Point::new(-1.0, 0.0);
        let p_opt = Point::new(1.0, 0.0);
        assert!(focal_diff(p_prime, p_opt, Point::new(-2.0, 0.0)) < 0.0);
        assert!(focal_diff(p_prime, p_opt, Point::new(2.0, 0.0)) > 0.0);
        assert_eq!(focal_diff(p_prime, p_opt, Point::new(0.0, 5.0)), 0.0);
    }

    #[test]
    fn min_over_square_matches_brute_force_on_axis_straddling_tile() {
        let p_prime = Point::new(-1.0, 0.0);
        let p_opt = Point::new(1.0, 0.0);
        let tile = Square::new(Point::new(-3.0, 0.5), 2.0);
        let fast = min_focal_diff_over_square(p_prime, p_opt, &tile);
        let brute = brute_force_min(p_prime, p_opt, &tile, 400);
        assert!(fast <= brute + 1e-6, "fast {fast} must lower-bound brute {brute}");
        assert!((fast - brute).abs() < 1e-3);
    }

    #[test]
    fn min_over_square_matches_brute_force_off_axis() {
        let p_prime = Point::new(0.0, 0.0);
        let p_opt = Point::new(3.0, 1.0);
        let tile = Square::new(Point::new(2.0, 4.0), 1.5);
        let fast = min_focal_diff_over_square(p_prime, p_opt, &tile);
        let brute = brute_force_min(p_prime, p_opt, &tile, 400);
        assert!(fast <= brute + 1e-6);
        assert!((fast - brute).abs() < 1e-3);
    }

    #[test]
    fn tile_containing_candidate_focus_attains_global_minimum() {
        let p_prime = Point::new(0.0, 0.0);
        let p_opt = Point::new(4.0, 0.0);
        // The tile contains p_prime and extends beyond it on the far side of the axis,
        // so the minimum is exactly −‖p', pᵒ‖.
        let tile = Square::new(Point::new(-0.5, 0.0), 2.0);
        let v = min_focal_diff_over_square(p_prime, p_opt, &tile);
        assert!((v - (-4.0)).abs() < 1e-9);
    }

    #[test]
    fn degenerate_foci_give_zero() {
        let p = Point::new(1.0, 1.0);
        let tile = Square::new(Point::new(5.0, 5.0), 2.0);
        assert!(min_focal_diff_over_square(p, p, &tile).abs() < 1e-12);
    }

    #[test]
    fn value_is_within_triangle_inequality_bounds() {
        let p_prime = Point::new(-1.0, -2.0);
        let p_opt = Point::new(2.0, 2.0);
        let d = p_prime.dist(p_opt);
        for k in 0..20 {
            let tile = Square::new(Point::new(f64::from(k) - 10.0, 0.3 * f64::from(k)), 1.0);
            let v = min_focal_diff_over_square(p_prime, p_opt, &tile);
            assert!(v >= -d - 1e-9);
            assert!(v <= d + 1e-9);
        }
    }
}
