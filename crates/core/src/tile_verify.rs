//! Incremental tile verification: GT-Verify (Section 5.3, Theorem 2, Algorithm 4) and the
//! SUM-objective verification with hyperbola minimisation (Section 6.3.1, Algorithm 6), both
//! over memoised *region summaries*.
//!
//! The verifier answers one question: *may tile `s` be added to user `uᵢ`'s safe region
//! without ever letting the candidate `p` beat the current optimum `pᵒ`?*  Every answer is
//! conservative — `false` may be wrong (costing region size), `true` never is.
//!
//! # Summaries
//!
//! Within one Tile-MSR computation regions only grow, `pᵒ` is fixed and candidates recur
//! across thousands of (tile, candidate) pairs, so nothing about an *existing* tile is ever
//! computed twice.  A [`TileVerifier`] keeps, and extends by exactly the tiles pushed since
//! it last looked:
//!
//! * **per tile** of every user, `‖pᵒ, s‖max` — candidate-independent, so one array per user;
//! * **per (candidate, user)**, the array of `‖p, s‖min` over that user's tiles plus the
//!   running region minimum `‖p, Rⱼ‖min`.  This is the MAX analogue of the paper's per-user
//!   hash tables `H₁ … H_m` (Algorithm 6), and the SUM verifier keeps its running minimum
//!   focal difference `min_{l ∈ Rⱼ} (‖p, l‖ − ‖pᵒ, l‖)` in the very same table.  Entries are
//!   dense: a candidate is named by a caller-chosen *slot* (its position in the §5.4 buffer,
//!   or the order of first appearance when candidates come from the R-tree), never hashed;
//! * **per user**, the running `‖pᵒ, Rⱼ‖max` and `‖anchorⱼ, Rⱼ‖max`, which make the
//!   whole-region check of Algorithm 4 (lines 1–2), the slot distance of Algorithm 5
//!   (line 1) and the pruning radii of Theorems 3/6 `O(m)` look-ups instead of walks over
//!   every tile of every region.
//!
//! On top of these, the four tile groups `G↓↓ / G↑↓ / G↓↑ / G↑↑` of Theorem 2 are never
//! materialised: one pass of two compares per tile folds `(max ‖pᵒ,·‖max, min ‖p,·‖min)` per
//! group, and every union the theorem's cases need is a max/min over at most four of those
//! pairs.
//!
//! # Why the decisions are bit-identical to recomputing from scratch
//!
//! Every dominant distance is a `max`/`min` fold over per-tile distances that are computed
//! by the same `Square::{min_dist, max_dist}` calls on the same inputs.  Those values are
//! finite and non-negative (non-finite input is rejected at the server boundary), and over
//! such values `f64::max` and `f64::min` are associative and commutative, so folding them
//! tile by tile as regions grow, group by group, or all at once yields the same bits — and
//! Lemma 1 ([`lemma1_holds`]) then compares the same two numbers.  The SUM verifier adds its
//! per-user minima in user order exactly as before, because `+` is *not* order-independent.
//! The candidates themselves arrive in the index's output order whether they were queried
//! for this tile or filtered from the per-computation pool (a narrower query's output is the
//! in-order subsequence of a wider one's; see `CandidatePool` in `tile.rs`), so `accepts`
//! stops at the same first failing candidate and counts the same pairs.
//!
//! # Scratch
//!
//! The tables live for one computation but their buffers are reused: Tile-MSR (`tile.rs`)
//! parks one verifier per worker thread, beside the candidate pool that serves the unbuffered
//! Theorem 3/6 retrievals, and their vectors keep their capacity, so a warm recompute
//! performs no heap allocation in the verify loop.  The scratch is per worker thread, never
//! per session — a session-held copy would cost a Tile-D-b fleet more memory than the rest
//! of the server.

use mpn_geom::{min_focal_diff_over_square, DistanceBounds, Point, Square, EPSILON};

use crate::region::TileRegion;
use crate::verify::lemma1_holds;
use crate::{ComputeStats, Objective};

/// How many (candidate, user) tables a parked verifier keeps allocated between computations
/// (an unpruned computation can touch one per POI; a buffered one touches `b · m`).
const RETAINED_TABLES: usize = 1024;

/// Candidate-independent summary of one user's region.
#[derive(Debug, Default)]
struct UserSummary {
    /// The location `‖·, Rⱼ‖max` reach is measured from (buffer anchor or current location).
    anchor: Point,
    /// `‖pᵒ, s‖max` per tile, in region order.
    opt_max: Vec<f64>,
    /// Running `‖pᵒ, Rⱼ‖max` (−∞ for an empty region).
    opt_reach: f64,
    /// Running `‖anchorⱼ, Rⱼ‖max` (−∞ for an empty region).
    anchor_reach: f64,
}

/// One (candidate, user) entry of the memo table.
#[derive(Debug)]
struct CandidateTable {
    /// MAX only: `‖p, s‖min` per tile, in region order.
    tile_min: Vec<f64>,
    /// Number of the user's tiles already folded into `region_min`.
    folded: usize,
    /// MAX: running `‖p, Rⱼ‖min`.  SUM: running minimum focal difference over `Rⱼ`.
    region_min: f64,
}

impl CandidateTable {
    const EMPTY: Self = Self { tile_min: Vec::new(), folded: 0, region_min: f64::INFINITY };
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

/// The incremental verifier of one Tile-MSR computation (see the module docs).
///
/// Call [`begin`](Self::begin) once per computation, then [`accepts`](Self::accepts) per
/// tile.  The `regions` handed to successive calls must be the same group, only ever grown
/// by [`TileRegion::push`].
#[derive(Debug, Default)]
pub struct TileVerifier {
    objective: Objective,
    p_opt: Point,
    users: Vec<UserSummary>,
    /// Entry `slot · m + j` belongs to candidate `slot` and user `j`.
    tables: Vec<CandidateTable>,
    groups: Vec<Groups>,
}

impl TileVerifier {
    /// Starts a computation: forgets every summary (keeping the buffers) and fixes the
    /// objective, the optimum and one anchor location per user.
    pub fn begin(&mut self, objective: Objective, p_opt: Point, anchors: &[Point]) {
        self.objective = objective;
        self.p_opt = p_opt;
        self.users.resize_with(anchors.len(), UserSummary::default);
        for (user, anchor) in self.users.iter_mut().zip(anchors) {
            user.anchor = *anchor;
            user.opt_max.clear();
            user.opt_reach = f64::NEG_INFINITY;
            user.anchor_reach = f64::NEG_INFINITY;
        }
        self.tables.truncate(RETAINED_TABLES);
        for table in &mut self.tables {
            table.tile_min.clear();
            table.folded = 0;
            table.region_min = f64::INFINITY;
        }
        self.groups.clear();
        self.groups.resize(anchors.len(), Groups::EMPTY);
    }

    /// Folds the tiles pushed since the last call into the per-user summaries.
    pub(crate) fn sync(&mut self, regions: &[TileRegion]) {
        for (user, region) in self.users.iter_mut().zip(regions) {
            for sq in &region.squares()[user.opt_max.len()..] {
                let d = sq.max_dist(self.p_opt);
                user.opt_max.push(d);
                user.opt_reach = user.opt_reach.max(d);
                user.anchor_reach = user.anchor_reach.max(sq.max_dist(user.anchor));
            }
        }
    }

    /// `‖anchorⱼ, Rⱼ‖max` as of the last [`sync`](Self::sync) (−∞ for an empty region).
    pub(crate) fn anchor_reach(&self, user: usize) -> f64 {
        self.users[user].anchor_reach
    }

    /// `‖pᵒ, Rⱼ‖max` as of the last [`sync`](Self::sync) (−∞ for an empty region).
    pub(crate) fn opt_reach(&self, user: usize) -> f64 {
        self.users[user].opt_reach
    }

    /// Whether inserting `tile` into `regions[user]` provably keeps `pᵒ` optimal against
    /// every `(location, slot)` candidate, stopping at the first that does not verify.
    ///
    /// A slot must name the same candidate location for the whole computation; slots should
    /// be small and dense (the tables are indexed by them).  `stats.candidates_checked`
    /// counts the (tile, candidate) pairs evaluated.
    pub fn accepts(
        &mut self,
        regions: &[TileRegion],
        user: usize,
        tile: &Square,
        candidates: impl IntoIterator<Item = (Point, usize)>,
        stats: &mut ComputeStats,
    ) -> bool {
        debug_assert_eq!(regions.len(), self.users.len(), "one region per anchor");
        self.sync(regions);
        let tile_opt_max = tile.max_dist(self.p_opt);
        candidates.into_iter().all(|(candidate, slot)| {
            stats.candidates_checked += 1;
            let first = slot * regions.len();
            if self.tables.len() < first + regions.len() {
                self.tables.resize_with(first + regions.len(), || CandidateTable::EMPTY);
            }
            match self.objective {
                Objective::Max => {
                    self.gt_verify(regions, user, tile, tile_opt_max, candidate, first)
                }
                Objective::Sum => self.sum_verify(regions, user, tile, candidate, first),
            }
        })
    }

    /// GT-Verify (Theorem 2, Algorithm 4) for one candidate whose tables start at `first`.
    fn gt_verify(
        &mut self,
        regions: &[TileRegion],
        user: usize,
        tile: &Square,
        d_o: f64,
        candidate: Point,
        first: usize,
    ) -> bool {
        let m = regions.len();
        let d_p = tile.min_dist(candidate);

        // Lines 1-2 of Algorithm 4: the whole-region check often succeeds outright.  A user
        // without tiles admits no location combination, so the check is vacuously true.
        let (mut dominant_max, mut dominant_min) = (d_o, d_p);
        for j in (0..m).filter(|&j| j != user) {
            if regions[j].is_empty() {
                return true;
            }
            let table = &mut self.tables[first + j];
            for sq in &regions[j].squares()[table.folded..] {
                let d = sq.min_dist(candidate);
                table.tile_min.push(d);
                table.region_min = table.region_min.min(d);
            }
            table.folded = regions[j].len();
            dominant_max = dominant_max.max(self.users[j].opt_reach);
            dominant_min = dominant_min.max(table.region_min);
        }
        if lemma1_holds(dominant_max, dominant_min) {
            return true;
        }

        // One pass over the other users' tiles folds the dominant distances of the four
        // groups of Section 5.3 (thresholds: the tile's own dᵒ = ‖pᵒ,s‖max, d_p = ‖p,s‖min).
        for j in (0..m).filter(|&j| j != user) {
            let mut groups = Groups::EMPTY;
            let tile_min = &self.tables[first + j].tile_min;
            for (&opt_max, &cand_min) in self.users[j].opt_max.iter().zip(tile_min) {
                let g = usize::from(opt_max >= d_o) + 2 * usize::from(cand_min >= d_p);
                groups.max_opt[g] = groups.max_opt[g].max(opt_max);
                groups.min_cand[g] = groups.min_cand[g].min(cand_min);
                groups.present |= 1 << g;
            }
            self.groups[j] = groups;
        }
        let groups = &self.groups;
        // Lemma 1 over the tile plus, for every other user `l`, the union of `select(l)`;
        // vacuously true when some union is empty.
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

        // Theorem 2, cases 1-3: uᵢ dominates both distances / only the min / only the max.
        if !holds(&|_| DD) || !holds(&|_| DD | UD) || !holds(&|_| DD | DU) {
            return false;
        }

        // Theorem 2, case 4: combinations where uᵢ dominates neither distance.
        //
        // The paper also proposes a "witness" shortcut (an existing tile of Rᵢ at least as
        // extreme as `s` on both distances).  We deliberately do NOT use it: with incremental
        // candidate pruning the shortcut can accept combinations that were never actually
        // verified, which breaks conservativeness (caught by the workspace property tests).
        // Instead the remaining combinations are always covered with one grouped Lemma-1
        // check per (dominant-max user j, dominant-min user k) pair.  Each remaining
        // combination has its tiles contained in the corresponding grouped regions, so a pass
        // here implies the combination is valid.
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

    /// Sum-GT-Verify (Algorithm 6): the group is valid for candidate `p` when
    /// `Σᵢ min_{l ∈ Rᵢ} (‖p, l‖ − ‖pᵒ, l‖) ≥ 0`, with each user's minimum computed
    /// independently from the hyperbola geometry of Fig. 12 and memoised per candidate so
    /// that repeated verifications only evaluate newly added tiles.
    fn sum_verify(
        &mut self,
        regions: &[TileRegion],
        user: usize,
        tile: &Square,
        candidate: Point,
        first: usize,
    ) -> bool {
        let mut total = min_focal_diff_over_square(candidate, self.p_opt, tile);
        for (j, region) in regions.iter().enumerate() {
            if j == user || region.is_empty() {
                continue;
            }
            let table = &mut self.tables[first + j];
            for sq in &region.squares()[table.folded..] {
                let d = min_focal_diff_over_square(candidate, self.p_opt, sq);
                table.region_min = table.region_min.min(d);
            }
            table.folded = region.len();
            total += table.region_min;
            if total < -EPSILON {
                return false;
            }
        }
        total >= -EPSILON
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::{TileCell, TileFrame};
    use crate::verify::verify_max_exhaustive;
    use mpn_geom::sum_dist_to_set;

    /// A verifier for `m` users whose anchors play no role in the test.
    fn verifier(objective: Objective, p_opt: Point, m: usize) -> TileVerifier {
        let mut v = TileVerifier::default();
        v.begin(objective, p_opt, &vec![Point::ORIGIN; m]);
        v
    }

    /// Verifies one (tile, candidate) pair.
    fn check(
        v: &mut TileVerifier,
        regions: &[TileRegion],
        user: usize,
        tile: &Square,
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
        tile: &Square,
        candidate: Point,
        p_opt: Point,
    ) -> bool {
        let per_user: Vec<Vec<Square>> = regions
            .iter()
            .enumerate()
            .map(|(j, r)| if j == user { vec![*tile] } else { r.squares().to_vec() })
            .collect();
        // Sample the corner/centre lattice of every tile combination.
        fn samples(sq: &Square) -> Vec<Point> {
            let mut v = sq.corners().to_vec();
            v.push(sq.center);
            v
        }
        fn recurse(
            per_user: &[Vec<Square>],
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
            for sq in &per_user[u] {
                for s in samples(sq) {
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
        let tile = Square::new(Point::new(3.0, 0.0), 2.0);
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
        let tile = Square::new(Point::new(9.5, 0.0), 2.0);
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
                let tile = Square::new(Point::new(f64::from(gx), f64::from(gy)), 1.0);
                let oracle = oracle_max_valid(&regions, 0, &tile, candidate, p_opt);
                let gt_ok = check(&mut gt, &regions, 0, &tile, candidate, 11);
                let per_user = vec![vec![tile], regions[1].squares().to_vec()];
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
                let tile = Square::new(Point::new(f64::from(gx) * 0.8, f64::from(gy) * 0.8), 0.8);
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
        let tile_near_home = Square::new(Point::new(1.5, 0.5), 1.0);
        assert!(check(&mut v, &regions, 0, &tile_near_home, far, 0));
        // A candidate at (4,0): moving user 0 right next to it makes the sum for the candidate
        // smaller than for pᵒ, so the tile must be rejected.
        let near = Point::new(4.0, 0.0);
        let tile_near_candidate = Square::new(Point::new(3.8, 0.0), 1.0);
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
                let tile = Square::new(Point::new(f64::from(gx), f64::from(gy)), 1.0);
                let accepted = check(&mut v, &regions, 2, &tile, candidate, 0);
                if accepted {
                    // Sample instances: the candidate's sum must never beat the optimum's.
                    for &(t0x, t0y) in &[(0.45, 0.0), (-0.45, 0.3), (0.0, -0.45)] {
                        for &(t1x, t1y) in &[(0.45, 0.0), (-0.45, -0.4)] {
                            for &(sx, sy) in &[(0.49, 0.49), (-0.49, 0.0), (0.0, -0.49)] {
                                let instance = [
                                    Point::new(users[0].x + t0x, users[0].y + t0y),
                                    Point::new(users[1].x + t1x, users[1].y + t1y),
                                    Point::new(
                                        tile.center.x + sx * tile.side(),
                                        tile.center.y + sy * tile.side(),
                                    ),
                                ];
                                // Clamp the third sample into the tile.
                                let l2 = Point::new(
                                    instance[2].x.clamp(tile.to_rect().lo.x, tile.to_rect().hi.x),
                                    instance[2].y.clamp(tile.to_rect().lo.y, tile.to_rect().hi.y),
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
        let growth = [
            (0, TileCell::new(0, 1, 0)),
            (1, TileCell::new(1, -1, 2)),
            (0, TileCell::new(0, 1, 1)),
        ];
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
                        let tile = Square::new(Point::new(f64::from(gx) * 1.5, 1.0), 1.0);
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
        let tile = Square::new(Point::new(9.5, 0.0), 2.0);
        let mut gt = verifier(Objective::Max, p_opt, 2);
        assert!(check(&mut gt, &regions, 0, &tile, Point::new(10.0, 0.0), 0));
    }

    #[test]
    fn begin_forgets_the_previous_computation() {
        let regions = vec![
            region_at(Point::new(1.0, 0.0), 2.0, &[TileCell::SEED]),
            region_at(Point::new(0.0, 1.0), 2.0, &[TileCell::SEED]),
        ];
        let tile = Square::new(Point::new(9.5, 0.0), 2.0);
        let mut v = verifier(Objective::Max, Point::new(0.0, 0.0), 2);
        assert!(!check(&mut v, &regions, 0, &tile, Point::new(10.0, 0.0), 0));
        // Same slot, different optimum and candidate: nothing may leak from the first run.
        v.begin(Objective::Max, Point::new(10.0, 0.0), &[Point::ORIGIN; 2]);
        assert!(check(&mut v, &regions, 0, &tile, Point::new(-100.0, 0.0), 0));
    }
}
