//! Minimisation of the focal difference `f(l) = ‖p', l‖ − ‖pᵒ, l‖` over a square tile.
//!
//! The SUM-objective verification (Section 6.3.1, Algorithm 6 of the paper) needs, for every
//! user tile `s`, the minimum of the focal difference between a candidate point `p'` and the
//! current optimum `pᵒ`.  The level sets of `f` are hyperbola branches with foci `p'` and `pᵒ`
//! (Fig. 12).  Away from the foci `f` has no interior stationary point except along the focal
//! axis beyond a focus, where it is constant out to the boundary, so the minimum over a tile
//! is attained at `p'` when the tile contains it and on the tile's boundary otherwise.
//!
//! # The minimum along one edge, in closed form
//!
//! Take an axis-parallel edge, let `a₁, a₂` be the positions of `p'`, `pᵒ` along the edge's
//! line and `h₁, h₂ ≥ 0` their perpendicular distances to it.  At offset `s` along the edge
//!
//! ```text
//! f(s) = √((s−a₁)² + h₁²) − √((s−a₂)² + h₂²),    f′(s) = (s−a₁)/d₁ − (s−a₂)/d₂.
//! ```
//!
//! `f′(s) = 0` squares to `(s−a₁)²·h₂² = (s−a₂)²·h₁²`, i.e. `(s−a₁)h₂ = ±(s−a₂)h₁`, which has
//! two roots:
//!
//! ```text
//! s₊ = (a₁h₂ − a₂h₁) / (h₂ − h₁),        s₋ = (a₁h₂ + a₂h₁) / (h₂ + h₁).
//! ```
//!
//! The two terms of `f′` carry the signs of `s−a₁` and `s−a₂`, so they can only cancel when
//! those signs agree: `s₊` is the stationary point and `s₋` is the root squaring introduced
//! (there `s−a₁` and `s−a₂` have opposite signs unless both sides vanish, which happens only at
//! a focus projection).  Geometrically one of the two is where the focal axis (the line through
//! `p'` and `pᵒ`) crosses the edge's line and the other is where the line through `p'` and the
//! *mirror image* of `pᵒ` in the edge's line crosses it; `f` along the line depends on `h₁, h₂`
//! only, not on which side a focus is on, so `s₊` is the axis crossing when both foci lie on
//! the same side and the **mirror** crossing when the line separates them.  The paper lists
//! only "a corner or a focal-axis crossing": for a separating edge that list names `s₋`, where
//! `f` is not stationary, and misses the tangency of the edge with a level hyperbola at `s₊`,
//! which can be the edge's minimum.
//!
//! A focus on the edge's line (`h = 0`) puts a kink in `f` at its projection, and `s₊` is then
//! exactly that projection; with both foci on the line `s₊` is `0/0`, but `f` is then constant
//! beyond either focus and an endpoint attains the minimum.  So the minimum over an edge is at
//! an endpoint or at `s₊`: three evaluations of `f`, no iteration.  A vanishing denominator
//! (`h₁ = h₂`: the stationary point is at infinity) yields a non-finite `s₊`, which lies in no
//! edge and fails the range test.

use crate::{DistanceBounds, Point, Square};

/// The focal difference `f(l) = ‖p_prime, l‖ − ‖p_opt, l‖` at a single location.
///
/// Negative values mean `l` is closer to the candidate `p_prime` than to the current optimum —
/// exactly the situation that can invalidate a safe region.
#[must_use]
pub fn focal_diff(p_prime: Point, p_opt: Point, l: Point) -> f64 {
    p_prime.dist(l) - p_opt.dist(l)
}

/// The stationary point `s₊` of `f` along a line (see the module docs): `a` is a focus'
/// position along the line, `h` its perpendicular distance to it.
fn stationary_offset(a1: f64, h1: f64, a2: f64, h2: f64) -> f64 {
    (a1 * h2 - a2 * h1) / (h2 - h1)
}

/// Minimum of the focal difference over a square tile.
///
/// This is the per-user term minimised independently in Equation (13) of the paper.  The value
/// is bounded below by `−‖p_prime, p_opt‖` and above by `+‖p_prime, p_opt‖` (triangle
/// inequality); the implementation asserts the lower bound in debug builds.
#[must_use]
pub fn min_focal_diff_over_square(p_prime: Point, p_opt: Point, tile: &Square) -> f64 {
    let rect = tile.to_rect();
    let (lo, hi) = (rect.lo, rect.hi);
    let mut best = f64::INFINITY;
    let mut consider = |l: Point| best = best.min(focal_diff(p_prime, p_opt, l));

    // Edge endpoints.
    for c in rect.corners() {
        consider(c);
    }
    // The stationary point of the two horizontal, then the two vertical edges.
    for y in [lo.y, hi.y] {
        let x = stationary_offset(p_prime.x, (p_prime.y - y).abs(), p_opt.x, (p_opt.y - y).abs());
        if lo.x < x && x < hi.x {
            consider(Point::new(x, y));
        }
    }
    for x in [lo.x, hi.x] {
        let y = stationary_offset(p_prime.y, (p_prime.x - x).abs(), p_opt.y, (p_opt.x - x).abs());
        if lo.y < y && y < hi.y {
            consider(Point::new(x, y));
        }
    }
    // Inside the tile the global minimum −‖p', pᵒ‖ is attained exactly at p'.
    if tile.contains(p_prime) {
        consider(p_prime);
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
