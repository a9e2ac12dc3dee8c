//! Conservative verification of safe-region groups (Section 4.1, Lemma 1).
//!
//! Verification answers: *given one region per user, can a candidate point `p` ever beat the
//! current optimum `pᵒ` while every user stays inside her region?*  Lemma 1 gives a
//! conservative sufficient condition using the dominant distances of Definition 5:
//!
//! ```text
//!   ‖pᵒ, R‖⊤  ≤  ‖p, R‖⊥        where   ‖p, R‖⊤ = max_i ‖p, Rᵢ‖max ,  ‖p, R‖⊥ = max_i ‖p, Rᵢ‖min
//! ```
//!
//! The predicate may produce false negatives (rejecting a valid group) but never false
//! positives, which is exactly what the safe-region algorithms need.  [`lemma1_holds`] is the
//! one place the comparison (and its floating-point slack) is written down; the tile verifier
//! of [`crate::tile_verify`] feeds it dominant distances folded from its region summaries,
//! and [`verify_max_exhaustive`] — the exponential enumeration the paper calls IT-Verify —
//! feeds it one tile combination at a time and serves as the test oracle.

use mpn_geom::{DistanceBounds, Point, Square, EPSILON};

/// Lemma 1 for the MAX objective on already-folded dominant distances:
/// `dominant_max_opt = ‖pᵒ, R‖⊤` and `dominant_min_cand = ‖p, R‖⊥`.
///
/// A small epsilon on the safe side absorbs rounding in the distance computations.
#[must_use]
pub fn lemma1_holds(dominant_max_opt: f64, dominant_min_cand: f64) -> bool {
    dominant_max_opt <= dominant_min_cand + EPSILON
}

/// Exhaustive (exponential) verification used as a test oracle: checks Lemma 1 over every
/// combination of one square per user.  This is the "IT-Verify" enumeration of Section 5.3
/// and is only meant for small inputs.  A user without squares admits no combination, so
/// the check is vacuously true.
#[must_use]
pub fn verify_max_exhaustive(per_user_squares: &[Vec<Square>], p_opt: Point, p: Point) -> bool {
    if per_user_squares.iter().any(Vec::is_empty) {
        return true;
    }
    let m = per_user_squares.len();
    let mut indices = vec![0usize; m];
    loop {
        let combo = || indices.iter().enumerate().map(|(u, &i)| &per_user_squares[u][i]);
        let dominant_max = combo().map(|s| s.max_dist(p_opt)).fold(f64::NEG_INFINITY, f64::max);
        let dominant_min = combo().map(|s| s.min_dist(p)).fold(f64::NEG_INFINITY, f64::max);
        if !lemma1_holds(dominant_max, dominant_min) {
            return false;
        }
        // Advance the mixed-radix counter.
        let mut k = 0;
        loop {
            if k == m {
                return true;
            }
            indices[k] += 1;
            if indices[k] < per_user_squares[k].len() {
                break;
            }
            indices[k] = 0;
            k += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lemma1_passes_and_fails_as_in_fig6a() {
        // Figure 6(a): ‖pᵒ,R₂‖max < ‖p₁,R₁‖min so the group verifies.
        let po = Point::new(0.0, 0.0);
        let p1 = Point::new(100.0, 0.0);
        let group = vec![
            vec![Square::new(Point::new(10.0, 0.0), 2.0)], // far from p₁
            vec![Square::new(Point::new(2.0, 0.0), 2.0)],
            vec![Square::new(Point::new(-2.0, 1.0), 2.0)],
        ];
        assert!(verify_max_exhaustive(&group, po, p1));
        // A candidate sitting in the middle of the group is within the dominant max distance
        // of every region, so the conservative test must reject the group for it.
        assert!(!verify_max_exhaustive(&group, po, Point::new(5.0, 0.0)));
    }

    #[test]
    fn vacuous_verification_with_empty_member() {
        let group = vec![vec![Square::new(Point::new(0.0, 0.0), 2.0)], Vec::new()];
        assert!(verify_max_exhaustive(&group, Point::new(0.0, 0.0), Point::new(0.1, 0.0)));
    }

    #[test]
    fn degenerate_squares_reduce_to_exact_distances() {
        let group = vec![
            vec![Square::new(Point::new(0.0, 0.0), 0.0)],
            vec![Square::new(Point::new(4.0, 0.0), 0.0)],
        ];
        let po = Point::new(2.0, 0.0);
        let p = Point::new(10.0, 0.0);
        // With point regions Lemma 1 is exact: pᵒ dominates because max(2,2)=2 ≤ max(10,6).
        assert!(verify_max_exhaustive(&group, po, p));
        assert!(!verify_max_exhaustive(&group, p, po));
    }

    #[test]
    fn exhaustive_verification_agrees_with_lemma1_on_singletons() {
        let per_user = vec![
            vec![Square::new(Point::new(0.0, 0.0), 1.0)],
            vec![Square::new(Point::new(3.0, 0.0), 1.0)],
        ];
        let po = Point::new(1.5, 0.0);
        let p_far = Point::new(50.0, 0.0);
        // A candidate right next to pᵒ (but off-axis) can win for some location instances,
        // so the conservative check must reject it.
        let p_near = Point::new(1.5, 0.2);
        assert!(verify_max_exhaustive(&per_user, po, p_far));
        assert!(!verify_max_exhaustive(&per_user, po, p_near));
    }

    #[test]
    fn exhaustive_verification_is_tighter_than_whole_region_lemma1() {
        // Reproduces the Fig. 6(b) phenomenon: Lemma 1 over a whole region fails because the
        // dominant max (w.r.t. pᵒ) and dominant min (w.r.t. p₁) are contributed by two
        // different locations inside the same region, which cannot co-occur.  Checking the
        // region tile-by-tile succeeds.
        let po = Point::new(0.0, 0.0);
        let p1 = Point::new(10.0, 0.0);
        // Users 1 and 3 have tiny regions near pᵒ; user 2's region is a tall strip that stays
        // strictly on pᵒ's side of the bisector (every point is closer to pᵒ than to p₁), so
        // the safe-region group is genuinely valid.
        let group = [
            vec![Square::new(Point::new(0.0, 1.0), 0.2)],
            vec![
                Square::new(Point::new(3.0, 8.5), 1.0),
                Square::new(Point::new(3.0, 9.5), 1.0),
                Square::new(Point::new(3.0, 10.5), 1.0),
                Square::new(Point::new(3.0, 11.5), 1.0),
            ],
            vec![Square::new(Point::new(1.0, -1.0), 0.2)],
        ];
        let whole = |f: fn(&Square, Point) -> f64, q: Point, pick: fn(f64, f64) -> f64, id: f64| {
            group
                .iter()
                .map(|tiles| tiles.iter().map(|s| f(s, q)).fold(id, pick))
                .fold(f64::NEG_INFINITY, f64::max)
        };
        let dominant_max = whole(|s, q| s.max_dist(q), po, f64::max, f64::NEG_INFINITY);
        let dominant_min = whole(|s, q| s.min_dist(q), p1, f64::min, f64::INFINITY);
        assert!(!lemma1_holds(dominant_max, dominant_min));
        assert!(verify_max_exhaustive(&group, po, p1));
    }
}
