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
//! * **per user**, her tiles in ascending `a = ‖pᵒ, s‖max` order (candidate-independent), and
//!   the running `‖pᵒ, Rⱼ‖max` and `‖anchorⱼ, Rⱼ‖max`, which make the whole-region check of
//!   Algorithm 4 (lines 1–2), the slot distance of Algorithm 5 (line 1) and the pruning radii
//!   of Theorems 3/6 `O(m)` look-ups instead of walks over every tile of every region;
//! * **per (candidate, user)**, the running region minimum `‖p, Rⱼ‖min`.  This is the MAX
//!   analogue of the paper's per-user hash tables `H₁ … H_m` (Algorithm 6), and the SUM
//!   verifier keeps its running minimum focal difference `min_{l ∈ Rⱼ} (‖p, l‖ − ‖pᵒ, l‖)` in
//!   the very same table.  Entries are dense: a candidate is named by a caller-chosen *slot*
//!   (its position in the §5.4 buffer, or the order of first appearance when candidates come
//!   from the R-tree), never hashed;
//! * **per (candidate, user) that reaches Theorem 2** (MAX only), a *sorted summary* of the
//!   pairs `(a, b) = (‖pᵒ, s‖max, ‖p, s‖min)` over the user's tiles: in `a` order the prefix
//!   and suffix minima of `b`, in `b` order each tile's `a` and the prefix and suffix maxima of
//!   `a`.  Only the pairs that fail the whole-region check need one — a few percent of the
//!   tables — and it is rebuilt only when the user's region has grown since it was built.
//!
//! For the tile `s` under test, with thresholds `dᵒ = ‖pᵒ, s‖max` and `d_p = ‖p, s‖min`, one
//! `partition_point` in each order splits a user's tiles at the thresholds, and the four groups
//! `G↓↓ / G↑↓ / G↓↑ / G↑↑` of Theorem 2 are never materialised: every union the theorem's
//! cases need is a prefix or a suffix of one order, so its `(max a, min b)` is one look-up.  A
//! tile whose `a` equals `dᵒ` (or whose `b` equals `d_p`) is *up*, as in the theorem's
//! `≥`: the searches count the tiles strictly below a threshold.  The one aggregate that is
//! neither a prefix nor a suffix is the least `b` of `G↑↑` alone (case 4 with one user
//! dominating both distances), and it is computed lazily: `G↑↑` is non-empty exactly when the
//! largest `a` over `{b ≥ d_p}` is at least `dᵒ`, which is then its largest `a`; its least `b`
//! is at least both the least `b` of `{b ≥ d_p}` and that of `{a ≥ dᵒ}`.  Lemma 1 is tried on
//! that bound first, and only when it fails is the exact value read by walking the `b` order
//! from `d_p` to the first tile with `a ≥ dᵒ`.
//!
//! # Why the decisions are bit-identical to recomputing from scratch
//!
//! Every dominant distance is a `max`/`min` over per-tile distances that are computed by the
//! same `Square::{min_dist, max_dist}` calls on the same inputs.  Those values are finite and
//! non-negative (non-finite input is rejected at the server boundary), and over such values
//! `f64::max` and `f64::min` do not depend on order or grouping, so folding them tile by tile
//! as regions grow, per group as the per-pair fold of earlier versions did, or as a prefix or
//! suffix of a sorted order yields the same bits.  The sorted split puts every tile on the same
//! side of a threshold as that fold's `>=` did (values are never NaN), so each case of
//! Theorem 2 hands Lemma 1 ([`lemma1_holds`]) the same two numbers, and a case is vacuous
//! exactly when the fold found a group empty.  The lazy bound only decides when the exact value
//! would decide the same way (Lemma 1 is monotone in the dominant minimum).  The unit tests pin
//! `accepts` to that fold, kept there as a reference.  The SUM verifier adds its per-user
//! minima in user order exactly as before, because `+` is *not* order-independent.  The
//! candidates themselves arrive in the index's output order whether they were queried for
//! this tile or filtered from the per-computation pool (a narrower query's output is the
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
    /// `(‖pᵒ, s‖max, index of s in the region)` per tile, in ascending `‖pᵒ, s‖max` order.
    by_opt: Vec<(f64, usize)>,
    /// Running `‖pᵒ, Rⱼ‖max` (−∞ for an empty region).
    opt_reach: f64,
    /// Running `‖anchorⱼ, Rⱼ‖max` (−∞ for an empty region).
    anchor_reach: f64,
}

/// One tile of a sorted summary, in ascending `‖p, s‖min` order.
#[derive(Debug, Clone, Copy)]
struct CandStep {
    /// `‖p, s‖min`, the sort key.
    cand_min: f64,
    /// `‖pᵒ, s‖max`.
    opt_max: f64,
    /// The largest `‖pᵒ,·‖max` of this tile and every tile before it.
    opt_max_upto: f64,
    /// The largest `‖pᵒ,·‖max` of this tile and every tile after it.
    opt_max_from: f64,
}

/// One (candidate, user) entry of the memo table.
#[derive(Debug)]
struct CandidateTable {
    /// Number of the user's tiles already folded into `region_min`.
    folded: usize,
    /// MAX: running `‖p, Rⱼ‖min`.  SUM: running minimum focal difference over `Rⱼ`.
    region_min: f64,
}

impl CandidateTable {
    const EMPTY: Self = Self { folded: 0, region_min: f64::INFINITY };
}

/// The sorted summary of one (candidate, user) entry, kept apart from the memo table so
/// that the tables every pair reads stay small.
#[derive(Debug, Default)]
struct SortedSummary {
    /// How many of the user's tiles the summary describes (0: none built).
    sorted: usize,
    /// The user's tiles in ascending `‖p, s‖min` order.
    by_cand: Vec<CandStep>,
    /// At each rank of the user's `by_opt` order, the least `‖p,·‖min` up to and including
    /// that rank and from it on.
    by_opt: Vec<(f64, f64)>,
}

impl SortedSummary {
    /// Rebuilds the summary of `candidate` over `squares`, the user's tiles.
    fn build(&mut self, user: &UserSummary, squares: &[Square], candidate: Point) {
        self.by_cand.clear();
        self.by_opt.clear();
        let mut least = f64::INFINITY;
        for &(opt_max, tile) in &user.by_opt {
            let cand_min = squares[tile].min_dist(candidate);
            least = least.min(cand_min);
            self.by_opt.push((least, cand_min));
            self.by_cand.push(CandStep { cand_min, opt_max, opt_max_upto: 0.0, opt_max_from: 0.0 });
        }
        let mut least = f64::INFINITY;
        for (_, from) in self.by_opt.iter_mut().rev() {
            least = least.min(*from);
            *from = least;
        }
        self.by_cand.sort_unstable_by(|x, y| x.cand_min.total_cmp(&y.cand_min));
        let mut most = f64::NEG_INFINITY;
        for step in &mut self.by_cand {
            most = most.max(step.opt_max);
            step.opt_max_upto = most;
        }
        let mut most = f64::NEG_INFINITY;
        for step in self.by_cand.iter_mut().rev() {
            most = most.max(step.opt_max);
            step.opt_max_from = most;
        }
        self.sorted = squares.len();
    }
}

/// One other user's tiles split at the thresholds `(dᵒ, d_p)` of the tile under test: the
/// `(max ‖pᵒ,·‖max, min ‖p,·‖min)` of every union of Theorem 2 groups that is a prefix or a
/// suffix of a sorted order (`None` when the union is empty).
#[derive(Debug, Clone, Copy, Default)]
struct Split {
    /// The whole region.
    all: (f64, f64),
    /// `G↓↓ ∪ G↓↑`, the tiles with `‖pᵒ,·‖max < dᵒ`: their least `‖p,·‖min`.
    low_opt: Option<f64>,
    /// `G↑↓ ∪ G↑↑`, the tiles with `‖pᵒ,·‖max ≥ dᵒ`.
    high_opt: Option<(f64, f64)>,
    /// `G↓↓ ∪ G↑↓`, the tiles with `‖p,·‖min < d_p`: their largest `‖pᵒ,·‖max`.
    low_cand: Option<f64>,
    /// `G↓↑ ∪ G↑↑`, the tiles with `‖p,·‖min ≥ d_p`.
    high_cand: Option<(f64, f64)>,
    /// How many tiles have `‖p,·‖min < d_p`: where `G↓↑ ∪ G↑↑` starts in the `b` order.
    cand_rank: usize,
}

/// Lemma 1 over the tile under test `(dᵒ, d_p)` and one `(‖pᵒ,·‖max, ‖p,·‖min)` pair per
/// other user.
fn lemma1_over(d_o: f64, d_p: f64, pairs: impl Iterator<Item = (f64, f64)>) -> bool {
    let (max, min) = pairs.fold((d_o, d_p), |(max, min), (a, b)| (max.max(a), min.max(b)));
    lemma1_holds(max, min)
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
    /// MAX only: the sorted summaries, indexed as `tables` and grown as pairs reach Theorem 2.
    summaries: Vec<SortedSummary>,
    /// Per user, her tiles split at the thresholds of the pair under Theorem 2.
    splits: Vec<Split>,
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
            user.by_opt.clear();
            user.opt_reach = f64::NEG_INFINITY;
            user.anchor_reach = f64::NEG_INFINITY;
        }
        self.tables.truncate(RETAINED_TABLES);
        for table in &mut self.tables {
            *table = CandidateTable::EMPTY;
        }
        self.summaries.truncate(RETAINED_TABLES);
        for summary in &mut self.summaries {
            summary.sorted = 0;
        }
        self.splits.resize(anchors.len(), Split::default());
    }

    /// Folds the tiles pushed since the last call into the per-user summaries.
    pub(crate) fn sync(&mut self, regions: &[TileRegion]) {
        for (user, region) in self.users.iter_mut().zip(regions) {
            for (tile, sq) in region.squares().iter().enumerate().skip(user.by_opt.len()) {
                let d = sq.max_dist(self.p_opt);
                let rank = user.by_opt.partition_point(|&(opt_max, _)| opt_max < d);
                user.by_opt.insert(rank, (d, tile));
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
        let others = || (0..m).filter(move |&l| l != user);

        // Lines 1-2 of Algorithm 4: the whole-region check often succeeds outright.  A user
        // without tiles admits no location combination, so the check is vacuously true.
        let (mut dominant_max, mut dominant_min) = (d_o, d_p);
        for j in others() {
            if regions[j].is_empty() {
                return true;
            }
            let table = &mut self.tables[first + j];
            for sq in &regions[j].squares()[table.folded..] {
                table.region_min = table.region_min.min(sq.min_dist(candidate));
            }
            table.folded = regions[j].len();
            dominant_max = dominant_max.max(self.users[j].opt_reach);
            dominant_min = dominant_min.max(table.region_min);
        }
        if lemma1_holds(dominant_max, dominant_min) {
            return true;
        }

        // Split every other user's tiles at the tile's thresholds dᵒ = ‖pᵒ,s‖max and
        // d_p = ‖p,s‖min (Section 5.3), and fold cases 2-3 of Theorem 2 on the way: uᵢ
        // dominates only the min (every G↓↓ ∪ G↑↓) or only the max (every G↓↓ ∪ G↓↑).  A case
        // with an empty union is vacuous.  Case 1 (uᵢ dominates both) needs no check of its
        // own: it fails only when every G↓↓ is non-empty and Lemma 1 fails on (dᵒ, d_p), and
        // then every G↓↓ ∪ G↓↑ is non-empty with its least ‖p,·‖min below d_p, so case 3
        // compares the same two numbers.
        if self.summaries.len() < first + m {
            self.summaries.resize_with(first + m, SortedSummary::default);
        }
        let (mut case2_max, mut case3_min) = (Some(d_o), Some(d_p));
        for j in others() {
            let (user, summary) = (&self.users[j], &mut self.summaries[first + j]);
            if summary.sorted != regions[j].len() {
                summary.build(user, regions[j].squares(), candidate);
            }
            let opt_rank = user.by_opt.partition_point(|&(opt_max, _)| opt_max < d_o);
            let cand_rank = summary.by_cand.partition_point(|step| step.cand_min < d_p);
            let split = Split {
                all: (user.opt_reach, self.tables[first + j].region_min),
                low_opt: opt_rank.checked_sub(1).map(|k| summary.by_opt[k].0),
                high_opt: summary.by_opt.get(opt_rank).map(|&(_, from)| (user.opt_reach, from)),
                low_cand: cand_rank.checked_sub(1).map(|k| summary.by_cand[k].opt_max_upto),
                high_cand: summary.by_cand.get(cand_rank).map(|s| (s.opt_max_from, s.cand_min)),
                cand_rank,
            };
            case2_max = case2_max.zip(split.low_cand).map(|(max, opt_max)| max.max(opt_max));
            case3_min = case3_min.zip(split.low_opt).map(|(min, cand_min)| min.max(cand_min));
            self.splits[j] = split;
        }
        if case2_max.is_some_and(|max| !lemma1_holds(max, d_p))
            || case3_min.is_some_and(|min| !lemma1_holds(d_o, min))
        {
            return false;
        }

        // Theorem 2, case 4: combinations where uᵢ dominates neither distance.
        //
        // The paper also proposes a "witness" shortcut (an existing tile of Rᵢ at least as
        // extreme as `s` on both distances).  We deliberately do NOT use it: with incremental
        // candidate pruning the shortcut can accept combinations that were never actually
        // verified, which breaks conservativeness (caught by the workspace property tests).
        // Instead the remaining combinations are always covered with one grouped Lemma-1
        // check per (dominant-max user j, dominant-min user k) pair: j's G↑↓ ∪ G↑↑, k's
        // G↓↑ ∪ G↑↑ and every other user's whole region, or G↑↑ alone when j = k.  Each
        // remaining combination has its tiles contained in the corresponding grouped regions,
        // so a pass here implies the combination is valid.
        let splits = &self.splits;
        for j in others() {
            let Some(high_opt) = splits[j].high_opt else { continue };
            for k in others().filter(|&k| k != j) {
                let Some(high_cand) = splits[k].high_cand else { continue };
                let pick = |l: usize| match l {
                    _ if l == j => high_opt,
                    _ if l == k => high_cand,
                    _ => splits[l].all,
                };
                if !lemma1_over(d_o, d_p, others().map(pick)) {
                    return false;
                }
            }
        }
        // j = k: G↑↑ is non-empty exactly when the largest ‖pᵒ,·‖max of G↓↑ ∪ G↑↑ reaches dᵒ.
        // Its least ‖p,·‖min is bounded below by those of G↓↑ ∪ G↑↑ and G↑↓ ∪ G↑↑; only when
        // Lemma 1 fails on that bound is the exact value read off the ‖p,·‖min order.
        others().all(|j| {
            let (Some((uu_max, cand_floor)), Some((_, opt_floor))) =
                (splits[j].high_cand, splits[j].high_opt)
            else {
                return true;
            };
            let holds = |uu_min: f64| {
                lemma1_over(
                    d_o,
                    d_p,
                    others().map(|l| if l == j { (uu_max, uu_min) } else { splits[l].all }),
                )
            };
            uu_max < d_o || holds(cand_floor.max(opt_floor)) || {
                let steps = &self.summaries[first + j].by_cand[splits[j].cand_rank..];
                steps
                    .iter()
                    .find(|step| step.opt_max >= d_o)
                    .is_none_or(|step| holds(step.cand_min))
            }
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
mod tests;
