//! Property-based tests for the geometry primitives.

use mpn_geom::{focal_diff, min_focal_diff_over_tile, Circle, DistanceBounds, Point, Rect};
use proptest::prelude::*;

fn pt() -> impl Strategy<Value = Point> {
    (-100.0f64..100.0, -100.0f64..100.0).prop_map(|(x, y)| Point::new(x, y))
}

/// A square tile of side `side` centred at `center`, built as a tile's centre ∓ half side.
fn square(center: Point, side: f64) -> Rect {
    let half = (side / 2.0).max(0.0);
    Rect::new(
        Point::new(center.x - half, center.y - half),
        Point::new(center.x + half, center.y + half),
    )
}

/// The numeric minimiser the focal minimum used before the closed form (corners, focal-axis
/// crossings, and a 17-sample sweep plus 32 golden-section steps per edge), kept as an
/// independent reference.
fn sweep_min_focal_diff(p_prime: Point, p_opt: Point, tile: &Rect) -> f64 {
    let f = |l: Point| focal_diff(p_prime, p_opt, l);
    let corners = tile.corners();
    let mut best = corners.iter().map(|c| f(*c)).fold(f64::INFINITY, f64::min);
    let axis = p_opt - p_prime;
    let cross = |u: Point, v: Point| u.x * v.y - u.y * v.x;
    for i in 0..4 {
        let (a, b) = (corners[i], corners[(i + 1) % 4]);
        // Crossing of the edge with the focal axis: a + t·(b − a) = p' + u·axis.
        let denom = cross(b - a, axis);
        let t = cross(p_prime - a, axis) / denom;
        if denom.abs() >= 1e-18 && (0.0..=1.0).contains(&t) {
            best = best.min(f(a.lerp(b, t)));
        }
        const SAMPLES: usize = 16;
        let step = 1.0 / SAMPLES as f64;
        let at = |i: usize| f(a.lerp(b, i as f64 * step));
        let coarse = (0..=SAMPLES).min_by(|i, j| at(*i).total_cmp(&at(*j))).unwrap();
        let mut lo = (coarse as f64 * step - step).max(0.0);
        let mut hi = (coarse as f64 * step + step).min(1.0);
        const PHI: f64 = 0.618_033_988_749_894_9;
        for _ in 0..32 {
            let (m1, m2) = (hi - PHI * (hi - lo), lo + PHI * (hi - lo));
            if f(a.lerp(b, m1)) < f(a.lerp(b, m2)) {
                hi = m2;
            } else {
                lo = m1;
            }
        }
        best = best.min(f(a.lerp(b, (lo + hi) / 2.0)));
    }
    for focus in [p_prime, p_opt] {
        if tile.contains(focus) {
            best = best.min(f(focus));
        }
    }
    best
}

/// Minimum of the focal difference over `n` evenly spaced points of every edge.
fn boundary_scan_min(p_prime: Point, p_opt: Point, tile: &Rect, n: usize) -> f64 {
    let corners = tile.corners();
    let mut best = f64::INFINITY;
    for i in 0..4 {
        for k in 0..n {
            let l = corners[i].lerp(corners[(i + 1) % 4], k as f64 / n as f64);
            best = best.min(focal_diff(p_prime, p_opt, l));
        }
    }
    best
}

/// Random foci and tiles over scales 1…10⁴; `shape` forces the closed form's degenerate cases.
fn focal_case(
    unit: (f64, f64, f64, f64, f64, f64),
    side: f64,
    exponent: f64,
    shape: usize,
) -> (Point, Point, Rect, f64) {
    let scale = 10f64.powf(exponent);
    let (ax, ay, bx, by, cx, cy) = unit;
    let mut p_prime = Point::new(ax * scale, ay * scale);
    let mut p_opt = Point::new(bx * scale, by * scale);
    let (center, half) = (Point::new(cx * scale, cy * scale), side * scale / 2.0);
    let mut tile = square(center, side * scale);
    let lo = tile.lo;
    match shape {
        // A focus on an edge line (a kink of `f` along that edge).
        0 => p_prime.y = lo.y,
        1 => p_opt.x = lo.x,
        // Both foci on one edge line: `f` is piecewise linear along it, s₊ = 0/0.
        2 => (p_prime.y, p_opt.y) = (lo.y, lo.y),
        // A focus inside the tile.
        3 => p_prime = Point::new(center.x + ax * half, center.y + ay * half),
        4 => p_opt = p_prime,
        5 => tile = square(center, 0.0),
        // Focal axis parallel to an edge, which also makes h₁ = h₂ on the two edges along it.
        6 => p_opt.y = p_prime.y,
        // h₁ = h₂ (up to rounding) with the bottom edge's line separating the foci.
        7 => p_opt.y = lo.y - (p_prime.y - lo.y),
        _ => {}
    }
    (p_prime, p_opt, tile, scale)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn triangle_inequality(a in pt(), b in pt(), c in pt()) {
        prop_assert!(a.dist(c) <= a.dist(b) + b.dist(c) + 1e-9);
    }

    #[test]
    fn rect_min_le_max(a in pt(), b in pt(), p in pt()) {
        let r = Rect::new(a, b);
        prop_assert!(r.min_dist(p) <= r.max_dist(p) + 1e-9);
    }

    #[test]
    fn rect_distance_bounds_contain_distance_to_any_inner_point(
        a in pt(), b in pt(), p in pt(), tx in 0.0f64..=1.0, ty in 0.0f64..=1.0
    ) {
        let r = Rect::new(a, b);
        let inner = Point::new(r.lo.x + (r.hi.x - r.lo.x) * tx, r.lo.y + (r.hi.y - r.lo.y) * ty);
        let d = p.dist(inner);
        prop_assert!(d + 1e-9 >= r.min_dist(p));
        prop_assert!(d <= r.max_dist(p) + 1e-9);
    }

    #[test]
    fn circle_bounds_contain_distance_to_any_inner_point(
        c in pt(), radius in 0.0f64..50.0, p in pt(), ang in 0.0f64..std::f64::consts::TAU, t in 0.0f64..=1.0
    ) {
        let circle = Circle::new(c, radius);
        let inner = Point::new(c.x + radius * t * ang.cos(), c.y + radius * t * ang.sin());
        let d = p.dist(inner);
        prop_assert!(d + 1e-9 >= circle.min_dist(p));
        prop_assert!(d <= circle.max_dist(p) + 1e-9);
    }

    #[test]
    fn rect_union_contains_both(a in pt(), b in pt(), c in pt(), d in pt()) {
        let r1 = Rect::new(a, b);
        let r2 = Rect::new(c, d);
        let u = r1.union(r2);
        prop_assert!(u.contains_rect(&r1));
        prop_assert!(u.contains_rect(&r2));
        let area = |r: Rect| (r.hi.x - r.lo.x) * (r.hi.y - r.lo.y);
        prop_assert!(area(u) + 1e-9 >= area(r1).max(area(r2)));
    }

    #[test]
    fn focal_min_is_a_true_lower_bound(
        pp in pt(), po in pt(), c in pt(), side in 0.01f64..30.0,
        tx in 0.0f64..=1.0, ty in 0.0f64..=1.0
    ) {
        let r = square(c, side);
        let inner = Point::new(r.lo.x + (r.hi.x - r.lo.x) * tx, r.lo.y + (r.hi.y - r.lo.y) * ty);
        let min = min_focal_diff_over_tile(pp, po, &r);
        prop_assert!(focal_diff(pp, po, inner) + 1e-7 >= min);
    }

    #[test]
    fn focal_min_bounded_by_focus_distance(pp in pt(), po in pt(), c in pt(), side in 0.01f64..30.0) {
        let tile = square(c, side);
        let min = min_focal_diff_over_tile(pp, po, &tile);
        prop_assert!(min >= -pp.dist(po) - 1e-9);
        prop_assert!(min <= pp.dist(po) + 1e-9);
    }

    #[test]
    fn closed_form_focal_min_matches_a_boundary_scan_and_the_retired_sweep(
        unit in (-1.0f64..1.0, -1.0f64..1.0, -1.0f64..1.0, -1.0f64..1.0, -1.0f64..1.0, -1.0f64..1.0),
        side in 0.001f64..0.8, exponent in 0.0f64..4.0, shape in 0usize..16
    ) {
        let (p_prime, p_opt, tile, scale) = focal_case(unit, side, exponent, shape);
        let closed = min_focal_diff_over_tile(p_prime, p_opt, &tile);
        // Exact on the boundary: no sampled boundary point may undercut it.  A tile holding
        // p' attains the global minimum inside, below anything on its boundary.
        let scan = boundary_scan_min(p_prime, p_opt, &tile, 2_000);
        prop_assert!(closed <= scan + 1e-12 * scale, "closed {closed} above the scan {scan}");
        prop_assert!(closed >= -p_prime.dist(p_opt) - 1e-12 * scale);
        // Never less conservative than the minimiser it replaced, and no further below it
        // than the golden-section sweep's own resolution.
        let sweep = sweep_min_focal_diff(p_prime, p_opt, &tile);
        prop_assert!(closed <= sweep + 1e-12 * scale, "closed {closed} above the sweep {sweep}");
        prop_assert!(sweep - closed <= 1e-9 * scale, "sweep {sweep} far above closed {closed}");
    }
}
