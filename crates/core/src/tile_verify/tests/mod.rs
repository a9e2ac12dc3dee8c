//! Unit tests of the tile verifiers, out of line because they outweigh the module: GT-Verify
//! and the SUM verifier against brute-force oracles, and GT-Verify's sorted summaries against
//! the per-pair Theorem 2 fold they replaced (kept here, and only here, as a reference).

use super::*;
use crate::region::{TileCell, TileFrame};
use crate::verify::verify_max_exhaustive;
use mpn_geom::sum_dist_to_set;
use proptest::prelude::*;

/// A verifier for `m` users whose anchors play no role in the test.
fn verifier(objective: Objective, p_opt: Point, m: usize) -> TileVerifier {
    let mut v = TileVerifier::default();
    v.begin(objective, p_opt, &vec![Point::ORIGIN; m]);
    v
}

/// The tile of side `side` centred at `center`.
fn square(center: Point, side: f64) -> Rect {
    TileFrame::centered_at(center, side).tile(TileCell::SEED)
}

/// Verifies one (tile, candidate) pair.
fn check(
    v: &mut TileVerifier,
    regions: &[TileRegion],
    user: usize,
    tile: &Rect,
    candidate: Point,
    slot: usize,
) -> bool {
    v.accepts(regions, user, tile, [(candidate, slot)], &mut ComputeStats::default())
}

fn region_at(center: Point, delta: f64, cells: &[TileCell]) -> TileRegion {
    let mut r = TileRegion::new(TileFrame::centered_at(center, delta));
    for c in cells {
        r.push(*c);
    }
    r
}

/// Brute-force oracle: samples location instances from the regions (plus the new tile for
/// `user`) and reports whether the candidate ever beats the optimum.
fn oracle_max_valid(
    regions: &[TileRegion],
    user: usize,
    tile: &Rect,
    candidate: Point,
    p_opt: Point,
) -> bool {
    let per_user: Vec<Vec<Rect>> = regions
        .iter()
        .enumerate()
        .map(|(j, r)| if j == user { vec![*tile] } else { r.tiles().collect() })
        .collect();
    // Sample the corner/centre lattice of every tile combination.
    fn samples(tile: &Rect) -> Vec<Point> {
        let mut v = tile.corners().to_vec();
        v.push(Point::new((tile.lo.x + tile.hi.x) / 2.0, (tile.lo.y + tile.hi.y) / 2.0));
        v
    }
    fn recurse(
        per_user: &[Vec<Rect>],
        chosen: &mut Vec<Point>,
        candidate: Point,
        p_opt: Point,
    ) -> bool {
        if chosen.len() == per_user.len() {
            let d_opt = chosen.iter().map(|l| l.dist(p_opt)).fold(0.0, f64::max);
            let d_cand = chosen.iter().map(|l| l.dist(candidate)).fold(0.0, f64::max);
            return d_opt <= d_cand + 1e-7;
        }
        let u = chosen.len();
        for tile in &per_user[u] {
            for s in samples(tile) {
                chosen.push(s);
                let ok = recurse(per_user, chosen, candidate, p_opt);
                chosen.pop();
                if !ok {
                    return false;
                }
            }
        }
        true
    }
    recurse(&per_user, &mut Vec::new(), candidate, p_opt)
}

#[test]
fn gt_accepts_obviously_safe_tiles() {
    let p_opt = Point::new(0.0, 0.0);
    let candidate = Point::new(100.0, 0.0);
    let regions = vec![
        region_at(Point::new(1.0, 0.0), 2.0, &[TileCell::SEED]),
        region_at(Point::new(-1.0, 1.0), 2.0, &[TileCell::SEED]),
    ];
    let tile = square(Point::new(3.0, 0.0), 2.0);
    let mut gt = verifier(Objective::Max, p_opt, 2);
    assert!(check(&mut gt, &regions, 0, &tile, candidate, 7));
}

#[test]
fn gt_rejects_tiles_next_to_the_candidate() {
    let p_opt = Point::new(0.0, 0.0);
    let candidate = Point::new(10.0, 0.0);
    let regions = vec![
        region_at(Point::new(1.0, 0.0), 2.0, &[TileCell::SEED]),
        region_at(Point::new(0.0, 1.0), 2.0, &[TileCell::SEED]),
    ];
    // A tile adjacent to the candidate pulls user 0 so close to it that the candidate wins.
    let tile = square(Point::new(9.5, 0.0), 2.0);
    let mut gt = verifier(Objective::Max, p_opt, 2);
    assert!(!check(&mut gt, &regions, 0, &tile, candidate, 3));
}

#[test]
fn gt_verify_is_conservative_wrt_oracle_on_a_grid_of_tiles() {
    let p_opt = Point::new(0.0, 0.0);
    let candidate = Point::new(8.0, 0.0);
    let regions = vec![
        region_at(Point::new(1.0, 0.5), 1.0, &[TileCell::SEED, TileCell::new(0, 1, 0)]),
        region_at(Point::new(-0.5, -1.0), 1.0, &[TileCell::SEED]),
    ];
    let mut gt = verifier(Objective::Max, p_opt, 2);
    for gx in -3..=9 {
        for gy in -3..=3 {
            let tile = square(Point::new(f64::from(gx), f64::from(gy)), 1.0);
            let oracle = oracle_max_valid(&regions, 0, &tile, candidate, p_opt);
            let gt_ok = check(&mut gt, &regions, 0, &tile, candidate, 11);
            let per_user = vec![vec![tile], regions[1].tiles().collect()];
            let it_ok = verify_max_exhaustive(&per_user, p_opt, candidate);
            // Conservativeness: an accepted tile must be genuinely valid.
            assert!(!gt_ok || oracle, "GT accepted an invalid tile at ({gx},{gy})");
            assert!(!it_ok || oracle, "IT accepted an invalid tile at ({gx},{gy})");
        }
    }
}

#[test]
fn gt_verify_with_many_users_remains_conservative() {
    let p_opt = Point::new(0.0, 0.0);
    let candidate = Point::new(6.0, 4.0);
    let regions = vec![
        region_at(Point::new(0.5, 0.0), 1.0, &[TileCell::SEED, TileCell::new(0, 0, 1)]),
        region_at(Point::new(-1.0, 0.5), 1.0, &[TileCell::SEED]),
        region_at(Point::new(0.0, -1.5), 1.0, &[TileCell::SEED, TileCell::new(0, -1, 0)]),
    ];
    let mut gt = verifier(Objective::Max, p_opt, 3);
    for gx in -2..=7 {
        for gy in -2..=5 {
            let tile = square(Point::new(f64::from(gx) * 0.8, f64::from(gy) * 0.8), 0.8);
            let oracle = oracle_max_valid(&regions, 1, &tile, candidate, p_opt);
            let gt_ok = check(&mut gt, &regions, 1, &tile, candidate, 1);
            assert!(!gt_ok || oracle, "GT accepted an invalid tile at ({gx},{gy})");
        }
    }
}

#[test]
fn sum_verifier_accepts_and_rejects_correctly() {
    let p_opt = Point::new(0.0, 0.0);
    let users = [Point::new(1.0, 0.0), Point::new(-1.0, 0.0)];
    let regions = vec![
        region_at(users[0], 1.0, &[TileCell::SEED]),
        region_at(users[1], 1.0, &[TileCell::SEED]),
    ];
    let mut v = verifier(Objective::Sum, p_opt, 2);
    // A far candidate can never beat pᵒ.
    let far = Point::new(50.0, 0.0);
    let tile_near_home = square(Point::new(1.5, 0.5), 1.0);
    assert!(check(&mut v, &regions, 0, &tile_near_home, far, 0));
    // A candidate at (4,0): moving user 0 right next to it makes the sum for the candidate
    // smaller than for pᵒ, so the tile must be rejected.
    let near = Point::new(4.0, 0.0);
    let tile_near_candidate = square(Point::new(3.8, 0.0), 1.0);
    assert!(!check(&mut v, &regions, 0, &tile_near_candidate, near, 1));
}

#[test]
fn sum_verifier_matches_brute_force_sampling() {
    let p_opt = Point::new(1.0, 1.0);
    let users = [Point::new(0.0, 0.0), Point::new(2.0, 1.0), Point::new(1.0, 3.0)];
    let regions: Vec<TileRegion> =
        users.iter().map(|u| region_at(*u, 1.0, &[TileCell::SEED])).collect();
    let mut v = verifier(Objective::Sum, p_opt, 3);
    let candidate = Point::new(4.0, 2.0);
    for gx in -2..=6 {
        for gy in -2..=5 {
            let center = Point::new(f64::from(gx), f64::from(gy));
            let tile = square(center, 1.0);
            let accepted = check(&mut v, &regions, 2, &tile, candidate, 0);
            if accepted {
                // Sample instances: the candidate's sum must never beat the optimum's.
                for &(t0x, t0y) in &[(0.45, 0.0), (-0.45, 0.3), (0.0, -0.45)] {
                    for &(t1x, t1y) in &[(0.45, 0.0), (-0.45, -0.4)] {
                        for &(sx, sy) in &[(0.49, 0.49), (-0.49, 0.0), (0.0, -0.49)] {
                            let instance = [
                                Point::new(users[0].x + t0x, users[0].y + t0y),
                                Point::new(users[1].x + t1x, users[1].y + t1y),
                                Point::new(center.x + sx, center.y + sy),
                            ];
                            // Clamp the third sample into the tile.
                            let l2 = Point::new(
                                instance[2].x.clamp(tile.lo.x, tile.hi.x),
                                instance[2].y.clamp(tile.lo.y, tile.hi.y),
                            );
                            let instance = [instance[0], instance[1], l2];
                            let d_opt = sum_dist_to_set(p_opt, &instance);
                            let d_cand = sum_dist_to_set(candidate, &instance);
                            assert!(
                                d_opt <= d_cand + 1e-6,
                                "accepted tile ({gx},{gy}) allows the candidate to win"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// The summaries must fold in tiles pushed between calls — for every user, in any
/// interleaving — and decide exactly as a verifier that sees the final regions cold.
#[test]
fn summaries_extended_across_pushes_match_a_fresh_verifier() {
    let p_opt = Point::new(0.0, 0.0);
    let candidates = [Point::new(6.0, 1.0), Point::new(-5.0, 4.0), Point::new(2.5, -7.0)];
    let growth =
        [(0, TileCell::new(0, 1, 0)), (1, TileCell::new(1, -1, 2)), (0, TileCell::new(0, 1, 1))];
    for objective in [Objective::Max, Objective::Sum] {
        let mut regions = vec![
            region_at(Point::new(2.0, 0.0), 1.0, &[TileCell::SEED]),
            region_at(Point::new(-2.0, 0.0), 1.0, &[TileCell::SEED]),
            region_at(Point::new(0.0, 2.5), 1.0, &[TileCell::SEED]),
        ];
        let mut memoised = verifier(objective, p_opt, 3);
        for (grown, cell) in growth {
            regions[grown].push(cell);
            for user in 0..3 {
                for gx in -4..=4 {
                    let tile = square(Point::new(f64::from(gx) * 1.5, 1.0), 1.0);
                    for (slot, candidate) in candidates.into_iter().enumerate() {
                        let warm = check(&mut memoised, &regions, user, &tile, candidate, slot);
                        let cold = check(
                            &mut verifier(objective, p_opt, 3),
                            &regions,
                            user,
                            &tile,
                            candidate,
                            slot,
                        );
                        assert_eq!(warm, cold, "{objective:?} user {user} tile {gx}");
                    }
                }
            }
        }
    }
}

#[test]
fn an_empty_region_makes_every_check_vacuously_true() {
    let p_opt = Point::new(0.0, 0.0);
    let regions = vec![
        region_at(Point::new(1.0, 0.0), 2.0, &[TileCell::SEED]),
        region_at(Point::new(0.0, 1.0), 2.0, &[]),
    ];
    // Right on top of the candidate: rejected for any non-empty partner region.
    let tile = square(Point::new(9.5, 0.0), 2.0);
    let mut gt = verifier(Objective::Max, p_opt, 2);
    assert!(check(&mut gt, &regions, 0, &tile, Point::new(10.0, 0.0), 0));
}

#[test]
fn begin_forgets_the_previous_computation() {
    let regions = vec![
        region_at(Point::new(1.0, 0.0), 2.0, &[TileCell::SEED]),
        region_at(Point::new(0.0, 1.0), 2.0, &[TileCell::SEED]),
    ];
    let tile = square(Point::new(9.5, 0.0), 2.0);
    let mut v = verifier(Objective::Max, Point::new(0.0, 0.0), 2);
    assert!(!check(&mut v, &regions, 0, &tile, Point::new(10.0, 0.0), 0));
    // Same slot, different optimum and candidate: nothing may leak from the first run.
    v.begin(Objective::Max, Point::new(10.0, 0.0), &[Point::ORIGIN; 2]);
    assert!(check(&mut v, &regions, 0, &tile, Point::new(-100.0, 0.0), 0));
}

/// `(max ‖pᵒ,·‖max, min ‖p,·‖min)` of each Theorem 2 group of one user, indexed by
/// `[‖pᵒ,s'‖max ≥ dᵒ] + 2·[‖p,s'‖min ≥ d_p]`, plus a bit set of the non-empty groups.
#[derive(Debug, Clone, Copy)]
struct Groups {
    max_opt: [f64; 4],
    min_cand: [f64; 4],
    present: u8,
}

const DD: u8 = 0b0001; // G↓↓
const UD: u8 = 0b0010; // G↑↓: ‖pᵒ,·‖max at least the tile's
const DU: u8 = 0b0100; // G↓↑: ‖p,·‖min at least the tile's
const UU: u8 = 0b1000; // G↑↑
const ALL: u8 = DD | UD | DU | UU;

impl Groups {
    const EMPTY: Self =
        Self { max_opt: [f64::NEG_INFINITY; 4], min_cand: [f64::INFINITY; 4], present: 0 };

    /// Dominant distances of the union of the groups in `mask` (`None` when it is empty).
    fn union(&self, mask: u8) -> Option<(f64, f64)> {
        if self.present & mask == 0 {
            return None;
        }
        let mut out = (f64::NEG_INFINITY, f64::INFINITY);
        for g in 0..4 {
            if mask & (1 << g) != 0 {
                out = (out.0.max(self.max_opt[g]), out.1.min(self.min_cand[g]));
            }
        }
        Some(out)
    }
}

/// GT-Verify as the per-pair fold computed it before the sorted summaries: the whole-region
/// check, then one pass over every other user's tiles folding the four Theorem 2 groups, then
/// the four cases over unions of those groups.  Stateless — every distance is computed afresh.
fn gt_verify(
    regions: &[TileRegion],
    user: usize,
    tile: &Rect,
    p_opt: Point,
    candidate: Point,
) -> bool {
    let m = regions.len();
    let (d_o, d_p) = (tile.max_dist(p_opt), tile.min_dist(candidate));

    let (mut dominant_max, mut dominant_min) = (d_o, d_p);
    for j in (0..m).filter(|&j| j != user) {
        if regions[j].is_empty() {
            return true;
        }
        let tiles: Vec<Rect> = regions[j].tiles().collect();
        let region_min = tiles.iter().fold(f64::INFINITY, |d, t| d.min(t.min_dist(candidate)));
        dominant_max = tiles.iter().fold(dominant_max, |d, t| d.max(t.max_dist(p_opt)));
        dominant_min = dominant_min.max(region_min);
    }
    if lemma1_holds(dominant_max, dominant_min) {
        return true;
    }

    let groups: Vec<Groups> = regions
        .iter()
        .map(|region| {
            let mut groups = Groups::EMPTY;
            for tile in region.tiles() {
                let (opt_max, cand_min) = (tile.max_dist(p_opt), tile.min_dist(candidate));
                let g = usize::from(opt_max >= d_o) + 2 * usize::from(cand_min >= d_p);
                groups.max_opt[g] = groups.max_opt[g].max(opt_max);
                groups.min_cand[g] = groups.min_cand[g].min(cand_min);
                groups.present |= 1 << g;
            }
            groups
        })
        .collect();
    let holds = |select: &dyn Fn(usize) -> u8| {
        let (mut dominant_max, mut dominant_min) = (d_o, d_p);
        for l in (0..m).filter(|&l| l != user) {
            let Some((max_opt, min_cand)) = groups[l].union(select(l)) else {
                return true;
            };
            dominant_max = dominant_max.max(max_opt);
            dominant_min = dominant_min.max(min_cand);
        }
        lemma1_holds(dominant_max, dominant_min)
    };
    if !holds(&|_| DD) || !holds(&|_| DD | UD) || !holds(&|_| DD | DU) {
        return false;
    }
    let others = || (0..m).filter(|&l| l != user);
    others().filter(|&j| groups[j].present & (UD | UU) != 0).all(|j| {
        others().filter(|&k| groups[k].present & (DU | UU) != 0).all(|k| {
            holds(&|l| match (l == j, l == k) {
                (true, true) => UU,
                (true, false) => UD | UU,
                (false, true) => DU | UU,
                (false, false) => ALL,
            })
        })
    })
}

/// A cell of one user's frame: `(user, level, ix, iy)`, the user taken modulo the group size.
fn arb_cell() -> impl Strategy<Value = (usize, u32, i32, i32)> {
    (0usize..5, 0u32..3, -4i32..5, -4i32..5)
}

fn arb_xy(span: f64) -> impl Strategy<Value = (f64, f64)> {
    (-span..span, -span..span)
}

// The sorted summaries decide every (tile, candidate) pair exactly as the retired fold: one
// long-lived verifier, pushes interleaved over the users (regions start empty and some stay
// so), several candidates under sparse slots, tiles under test at levels 0-2.  Half the cases
// put every frame on one grid of side 2 and pᵒ and the candidates on its points, so tiles of
// different users coincide and a threshold equals a summary's value exactly.  The probes of a
// step run in zigzag order of `dᵒ` (lowest, highest, next lowest, …), so the splits walk
// down and up from the ranks they cached, and the next push may land below those ranks.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn sorted_summaries_decide_as_the_retired_fold(
        m in 2usize..6,
        frames in proptest::collection::vec((arb_xy(20.0), 0.5f64..8.0), 5),
        p_opt in arb_xy(30.0),
        candidates in proptest::collection::vec(arb_xy(60.0), 1..6),
        pushes in proptest::collection::vec(arb_cell(), 0..24),
        probes in proptest::collection::vec(arb_cell(), 1..6),
        on_grid in 0usize..2,
    ) {
        let point = |(x, y): (f64, f64), grid: f64| {
            if on_grid == 1 {
                Point::new((x / grid).round() * 2.0, (y / grid).round() * 2.0)
            } else {
                Point::new(x, y)
            }
        };
        let mut regions: Vec<TileRegion> = frames[..m]
            .iter()
            .map(|&(anchor, delta)| {
                TileRegion::new(if on_grid == 1 {
                    TileFrame { origin: point(anchor, 20.0), delta: 2.0 }
                } else {
                    TileFrame::centered_at(point(anchor, 1.0), delta)
                })
            })
            .collect();
        let p_opt = point(p_opt, 6.0);
        let candidates: Vec<(Point, usize)> =
            candidates.iter().enumerate().map(|(k, c)| (point(*c, 6.0), 3 * k + 1)).collect();
        let anchors: Vec<Point> = regions.iter().map(|r| r.frame().origin).collect();
        let mut verifier = TileVerifier::default();
        verifier.begin(Objective::Max, p_opt, &anchors);

        let cell = |(_, level, ix, iy): (usize, u32, i32, i32)| TileCell::new(level as u8, ix, iy);
        for step in 0..=pushes.len() {
            if let Some(&push) = step.checked_sub(1).map(|k| &pushes[k]) {
                regions[push.0 % m].push(cell(push));
            }
            let mut tiles: Vec<(usize, Rect)> = probes
                .iter()
                .map(|&probe| (probe.0 % m, regions[probe.0 % m].frame().tile(cell(probe))))
                .collect();
            tiles.sort_by(|x, y| x.1.max_dist(p_opt).total_cmp(&y.1.max_dist(p_opt)));
            let n = tiles.len();
            let zigzag = (0..n).map(|i| if i % 2 == 0 { i / 2 } else { n - 1 - i / 2 });
            for (user, tile) in zigzag.map(|i| tiles[i]) {
                let mut expected = Vec::new();
                for &(candidate, slot) in &candidates {
                    let want = gt_verify(&regions, user, &tile, p_opt, candidate);
                    let mut stats = ComputeStats::default();
                    let got =
                        verifier.accepts(&regions, user, &tile, [(candidate, slot)], &mut stats);
                    prop_assert_eq!(got, want, "step {step}, user {user}, {tile:?}, slot {slot}");
                    expected.push(want);
                }
                // All candidates at once: the same verdict, after the same pairs.
                let mut stats = ComputeStats::default();
                let all =
                    verifier.accepts(&regions, user, &tile, candidates.iter().copied(), &mut stats);
                prop_assert_eq!(all, expected.iter().all(|&ok| ok));
                let pairs = expected.iter().position(|&ok| !ok).map_or(expected.len(), |k| k + 1);
                prop_assert_eq!(stats.candidates_checked, pairs);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // A split walked from any cached rank, stale ones past the end included, lands where
    // `partition_point` does, ties going up as `<` sends them, and caches that rank.
    #[test]
    fn walked_splits_land_on_the_partition_point(
        values in proptest::collection::vec(0u32..8, 0..24),
        start in 0usize..30,
        thresholds in proptest::collection::vec(0u32..9, 1..8),
    ) {
        let mut sorted: Vec<f64> = values.iter().map(|&v| f64::from(v)).collect();
        sorted.sort_by(f64::total_cmp);
        let mut rank = start;
        for threshold in thresholds.iter().map(|&t| f64::from(t)) {
            let walked = walk_split(&sorted, &mut rank, |&v| v < threshold);
            prop_assert_eq!(walked, sorted.partition_point(|&v| v < threshold));
            prop_assert_eq!(rank, walked);
        }
    }
}
