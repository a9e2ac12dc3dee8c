//! Group nearest-neighbour (GNN) search over the R-tree.
//!
//! Given a group of user locations `U` and an aggregate function (MAX or SUM), the GNN query
//! returns the POIs with the smallest aggregate distance to the whole group.  This is the
//! `FindMaxGNN` / `FindSumGNN` primitive of Papadias et al. (the paper's reference \[24\]) which
//! the safe-region algorithms call in Algorithm 1 (top-2 for the circle radius) and in the
//! buffering optimisation of Section 5.4 (top-(b+1) to bound the candidate set).
//!
//! # Traversal: k-bounded branch-and-bound
//!
//! Nodes are ranked by [`Aggregate::rect_lower_bound`], an admissible lower bound of the aggregate
//! distance from the per-user minimum distances to the node MBR and, for SUM, the sum's tangent
//! plane at the MBR's centre, tight where the sum is flat.  The frontier holds *nodes only*, each
//! as its `(level, index)` in the tree's level arrays, so it borrows nothing and is a per-thread
//! buffer that every query reuses.  The result vector holds the `k` best entries seen so far, and
//! its last element is the pruning bound.  A point that does not beat the bound, or a child whose
//! lower bound exceeds the bound's distance, never enters anything.  A query pushes far more nodes
//! than it opens, so the frontier is a flat vector: a push is a `Vec::push`, and each step drops
//! the nodes above the k-th distance (it only falls, so they could never be opened) and opens the
//! smallest left, found by a linear scan, until none is left.  The nodes opened are exactly those
//! whose lower bound is at most the final k-th distance — the set the textbook incremental
//! best-first search (one heap of nodes *and* points) opens, so [`QueryStats`] are those of that
//! search whenever no heap key ties with the k-th distance (on such a tie best-first opens whatever
//! its heap happens to surface first; this search opens every tied node).
//!
//! # Batch kernels and the squared MAX
//!
//! A leaf's points and an internal node's child rectangles are scored up to 32 at a time:
//! the coordinates are gathered into fixed arrays and one branch-free loop per user folds
//! that user's distance into every lane, with compare-select in place of `f64::max` (whose
//! NaN handling keeps the loop scalar).  SUM adds one `sqrt` per user, in user order — the
//! summation order of [`sum_dist_to_set`].  MAX folds *squared* distances and takes one
//! `sqrt` per lane at the end: `sqrt` is monotone and correctly rounded, so
//! `sqrt(max d²)` and `max sqrt(d²)` are the same bits.  A SUM node's tangent plane takes a
//! second loop, one `sqrt` and one division per user and lane.  Either way a lane equals
//! [`Aggregate::point_dist`] / [`Aggregate::rect_lower_bound`] bit for bit.
//!
//! # Tie order
//!
//! Results are in ascending `(distance, id)` order — the order [`brute_force_gnn`]'s stable
//! sort yields — and pruning is strict so that the order is a function of the POI set, not of
//! the tree: a point is dropped only when its `(distance, id)` is not below the k-th best,
//! a node only when its lower bound *exceeds* the k-th distance.  Exact ties are real: for a
//! two-user SUM group every POI near the segment between the users rounds to the same sum.

use std::cell::Cell;

use crate::rtree::{Node, PoiEntry, QueryStats, RTree};
use mpn_geom::{max_dist_to_set, sum_dist_to_set, DistanceBounds, Point, Rect};

/// The aggregate distance function of the meeting-point objective.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Aggregate {
    /// Minimise the maximum user distance (MAX-GNN; the MPN problem, Definition 2).
    #[default]
    Max,
    /// Minimise the total user distance (SUM-GNN; the Sum-MPN variant, Definition 8).
    Sum,
}

impl Aggregate {
    /// Aggregate distance from a point to the user group (`‖p, U‖†` or `‖p, U‖sum`).
    #[must_use]
    pub fn point_dist(self, p: Point, users: &[Point]) -> f64 {
        match self {
            Aggregate::Max => max_dist_to_set(p, users),
            Aggregate::Sum => sum_dist_to_set(p, users),
        }
    }

    /// Admissible lower bound of the aggregate distance (as [`point_dist`](Aggregate::point_dist)
    /// computes it) from any point inside `rect` to the group; ∞ for the empty rectangle.
    ///
    /// MAX: the largest per-user minimum distance to `rect`.  SUM: the larger of the summed minimum
    /// distances (the MBM bound of Papadias et al.) and the tangent-plane bound `f(c) − |G_x|·h_x −
    /// |G_y|·h_y − δ`, with `c` the centre, `f(c) = Σ‖c − uᵢ‖`, `G = Σ (c − uᵢ)/‖c − uᵢ‖` (a user
    /// at `c` adds 0, a valid subgradient), `h_x = max(hi.x − c.x, c.x − lo.x)` (`h_y` likewise) so
    /// a rounded centre still covers `rect`, and `δ = 10⁻⁹·(f(c) + h_x + h_y)`.  SUM is convex, so
    /// its tangent plane at `c` lies below it, and over `rect` that plane is no lower than `f(c) −
    /// |G_x|·h_x − |G_y|·h_y`. Rounding moves `f(c)`, `G` and a point's computed sum by a few ulps
    /// of `f(c) + m·(h_x + h_y)` for `m` users, so `δ` is about 10⁶ times that and costs
    /// micrometres of pruning.  The summed minimum distances round from gaps no larger than a
    /// point's own, through the same monotone operations, so they need no slack.
    #[must_use]
    pub fn rect_lower_bound(self, rect: &Rect, users: &[Point]) -> f64 {
        match self {
            Aggregate::Max => users.iter().map(|u| rect.min_dist(*u)).fold(0.0, f64::max),
            Aggregate::Sum => {
                let at_c = users.iter().fold((0.0, Point::ORIGIN), |s, u| add_user(rect, s, *u));
                tangent_plane_or(users.iter().map(|u| rect.min_dist(*u)).sum(), rect, at_c)
            }
        }
    }

    /// Human-readable name used in experiment output.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Aggregate::Max => "max",
            Aggregate::Sum => "sum",
        }
    }
}

/// One result of a GNN query: the POI and its aggregate distance to the group.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GnnNeighbor {
    /// The point of interest.
    pub entry: PoiEntry,
    /// Aggregate (MAX or SUM) distance from the group to `entry`.
    pub dist: f64,
}

/// A group nearest-neighbour search bound to a tree, a user group and an aggregate.
#[derive(Debug, Clone, Copy)]
pub struct GnnSearch<'a> {
    tree: &'a RTree,
    users: &'a [Point],
    aggregate: Aggregate,
}

impl<'a> GnnSearch<'a> {
    /// Creates a search over `tree` for the group `users` under `aggregate`.
    ///
    /// # Panics
    /// Panics if `users` is empty — a meeting point for nobody is meaningless.
    #[must_use]
    pub fn new(tree: &'a RTree, users: &'a [Point], aggregate: Aggregate) -> Self {
        assert!(!users.is_empty(), "GNN search requires at least one user");
        Self { tree, users, aggregate }
    }

    /// The `k` best meeting points in ascending `(aggregate distance, id)` order, plus traversal
    /// statistics.
    #[must_use]
    pub fn top_k(&self, k: usize) -> (Vec<GnnNeighbor>, QueryStats) {
        let mut out = Vec::new();
        let stats = self.top_k_into(k, &mut out);
        (out, stats)
    }

    /// [`top_k`](GnnSearch::top_k) into a caller-provided buffer (cleared first), so a
    /// reused scratch vector pays no per-query result allocation.  Results and
    /// [`QueryStats`] are bit-identical to [`top_k`](GnnSearch::top_k).
    pub fn top_k_into(&self, k: usize, out: &mut Vec<GnnNeighbor>) -> QueryStats {
        out.clear();
        let mut stats = QueryStats::default();
        let Some((root, _)) = self.tree.root().filter(|_| k > 0) else {
            return stats;
        };
        out.reserve(k.min(self.tree.len()));
        // The k-th best distance once `k` entries are held; nothing is pruned before that.
        let kth_dist =
            |out: &[GnnNeighbor]| if out.len() == k { out[k - 1].dist } else { f64::INFINITY };
        let (mut frontier, mut pushed) = (FRONTIER.take(), 0);
        frontier.push((0.0, (root, 0)));
        while let Some((level, at)) = pop_nearest(&mut frontier, kth_dist(out)) {
            stats.nodes_visited += 1;
            let node = self.tree.level(level)[at];
            if level == 0 {
                let entries = self.tree.leaf_entries(&node);
                stats.points_examined += entries.len();
                for batch in entries.chunks(LANES) {
                    let dists = point_dists(self.aggregate, self.users, batch);
                    for (entry, dist) in batch.iter().zip(dists) {
                        offer(out, k, GnnNeighbor { entry: *entry, dist });
                    }
                }
            } else {
                let bound = kth_dist(out);
                let below = self.tree.level(level - 1);
                for first in node.children().step_by(LANES) {
                    let batch = &below[first..node.end.min(first + LANES)];
                    let bounds = rect_lower_bounds(self.aggregate, self.users, batch);
                    for (at, lower_bound) in (first..first + batch.len()).zip(bounds) {
                        if lower_bound <= bound {
                            frontier.push((lower_bound, (level - 1, at)));
                            pushed += 1;
                        }
                    }
                }
            }
        }
        PUSHED.set(PUSHED.get() + pushed);
        FRONTIER.set(frontier);
        stats
    }
}

impl RTree {
    /// The `k` best meeting points under `aggregate` for the group `users`, in ascending
    /// `(aggregate distance, id)` order, plus traversal statistics — `FindMaxGNN` /
    /// `FindSumGNN`.
    ///
    /// # Panics
    /// Panics when `users` is empty.
    #[must_use]
    pub fn top_k(
        &self,
        users: &[Point],
        aggregate: Aggregate,
        k: usize,
    ) -> (Vec<GnnNeighbor>, QueryStats) {
        GnnSearch::new(self, users, aggregate).top_k(k)
    }

    /// [`top_k`](RTree::top_k) into a caller-provided buffer (cleared first); with a reused
    /// buffer on a warm thread the search performs no heap allocation.
    ///
    /// # Panics
    /// Panics when `users` is empty.
    pub fn top_k_into(
        &self,
        users: &[Point],
        aggregate: Aggregate,
        k: usize,
        out: &mut Vec<GnnNeighbor>,
    ) -> QueryStats {
        GnnSearch::new(self, users, aggregate).top_k_into(k, out)
    }

    /// The best and second-best meeting points under `aggregate` — the Circle-MSR fast path
    /// (Algorithm 1 line 1 needs exactly the top-2).  Answers and stats are those of
    /// `top_k(users, aggregate, 2)`, but the neighbours are staged in a per-thread vector
    /// beside the GNN frontier, so a call on a warm thread allocates nothing.
    ///
    /// # Panics
    /// Panics when `users` is empty.
    #[must_use]
    pub fn top2(
        &self,
        users: &[Point],
        aggregate: Aggregate,
    ) -> (Option<GnnNeighbor>, Option<GnnNeighbor>, QueryStats) {
        let mut staged = TOP2.take();
        let stats = self.top_k_into(users, aggregate, 2, &mut staged);
        let (best, runner_up) = (staged.first().copied(), staged.get(1).copied());
        TOP2.set(staged);
        (best, runner_up, stats)
    }
}

/// Keeps `out` the `k` smallest neighbours offered so far, in ascending `(dist, id)` order.
fn offer(out: &mut Vec<GnnNeighbor>, k: usize, candidate: GnnNeighbor) {
    let before = |n: &GnnNeighbor| {
        n.dist.total_cmp(&candidate.dist).then(n.entry.id.cmp(&candidate.entry.id)).is_lt()
    };
    if out.len() == k {
        if before(&out[k - 1]) {
            return;
        }
        out.pop();
    }
    out.insert(out.partition_point(before), candidate);
}

thread_local! {
    /// The frontier of `(level, index)` nodes under their lower bounds (see "Traversal"): it
    /// borrows no tree, so it lives per thread, a query reuses the capacity the thread's
    /// earlier queries grew, and it goes back empty.
    static FRONTIER: Cell<Vec<(f64, (usize, usize))>> = const { Cell::new(Vec::new()) };
    /// [`RTree::top2`]'s staging vector, taken and put back like the frontier.
    static TOP2: Cell<Vec<GnnNeighbor>> = const { Cell::new(Vec::new()) };
    static PUSHED: Cell<usize> = const { Cell::new(0) };
}

/// How many nodes this thread's GNN searches have pushed onto their frontiers so far: a
/// running total, so the pushes of a batch of queries are the difference of two readings.
#[must_use]
pub fn frontier_pushes() -> usize {
    PUSHED.get()
}

/// Drops every frontier node above `bound`, the k-th distance, which only falls, so none of them
/// could ever be opened; takes out the smallest left, if any.
fn pop_nearest(frontier: &mut Vec<(f64, (usize, usize))>, bound: f64) -> Option<(usize, usize)> {
    frontier.retain(|node| node.0 <= bound);
    let (nearest, _) = frontier.iter().enumerate().min_by(|(_, a), (_, b)| a.0.total_cmp(&b.0))?;
    Some(frontier.swap_remove(nearest).1)
}

/// Width of one kernel batch (the default R-tree fan-out).
const LANES: usize = 32;

/// Folds, user by user, that user's squared distance to each of the first `n` lanes
/// (`squared(user)` yields them in lane order) into the aggregate distance per lane.  Every loop is a straight
/// line over slices of one length, so it vectorises.
#[inline(always)]
fn aggregate_lanes<I: Iterator<Item = f64>>(
    aggregate: Aggregate,
    users: &[Point],
    n: usize,
    squared: impl Fn(Point) -> I,
) -> [f64; LANES] {
    let mut acc = [0.0f64; LANES];
    let lanes = &mut acc[..n];
    match aggregate {
        Aggregate::Max => {
            for u in users {
                for (a, d) in lanes.iter_mut().zip(squared(*u)) {
                    *a = if d > *a { d } else { *a };
                }
            }
            for a in lanes {
                *a = a.sqrt();
            }
        }
        Aggregate::Sum => {
            for u in users {
                for (a, d) in lanes.iter_mut().zip(squared(*u)) {
                    *a += d.sqrt();
                }
            }
        }
    }
    acc
}

/// [`Aggregate::point_dist`] of up to [`LANES`] entries at once, bit for bit.
fn point_dists(aggregate: Aggregate, users: &[Point], batch: &[PoiEntry]) -> [f64; LANES] {
    let n = batch.len();
    let (mut xs, mut ys) = ([0.0f64; LANES], [0.0f64; LANES]);
    for ((x, y), e) in xs.iter_mut().zip(&mut ys).zip(batch) {
        (*x, *y) = (e.location.x, e.location.y);
    }
    aggregate_lanes(aggregate, users, n, |u| {
        xs[..n].iter().zip(&ys[..n]).map(move |(x, y)| {
            let (dx, dy) = (x - u.x, y - u.y);
            dx * dx + dy * dy
        })
    })
}

/// [`Aggregate::rect_lower_bound`] of up to [`LANES`] node MBRs at once, bit for bit.
fn rect_lower_bounds(aggregate: Aggregate, users: &[Point], batch: &[Node]) -> [f64; LANES] {
    let n = batch.len();
    // One lane array per coordinate: `lo.x`, `hi.x`, `lo.y`, `hi.y`.
    let [mut lo_x, mut hi_x, mut lo_y, mut hi_y] = [[0.0f64; LANES]; 4];
    for (i, Node { mbr, .. }) in batch.iter().enumerate() {
        (lo_x[i], hi_x[i], lo_y[i], hi_y[i]) = (mbr.lo.x, mbr.hi.x, mbr.lo.y, mbr.hi.y);
    }
    let (lo_x, hi_x, lo_y, hi_y) = (&lo_x[..n], &hi_x[..n], &lo_y[..n], &hi_y[..n]);
    // One axis of `Rect::min_dist`, with compare-select for its two `f64::max`.
    let gap = |lo: f64, hi: f64, at: f64| {
        let below = if lo - at > 0.0 { lo - at } else { 0.0 };
        if at - hi > below {
            at - hi
        } else {
            below
        }
    };
    let mut bounds = aggregate_lanes(aggregate, users, n, |u| {
        (0..n).map(move |i| {
            let (dx, dy) = (gap(lo_x[i], hi_x[i], u.x), gap(lo_y[i], hi_y[i], u.y));
            dx * dx + dy * dy
        })
    });
    if aggregate == Aggregate::Sum {
        raise_to_tangent_planes(users, batch, &mut bounds);
    }
    bounds
}

/// The SUM half of [`Aggregate::rect_lower_bound`]: raises each lane to its tangent plane.
/// Out of line: inlined, it slowed the cold MAX search by ≈ 2 %, which never calls it.
#[inline(never)]
fn raise_to_tangent_planes(users: &[Point], batch: &[Node], bounds: &mut [f64; LANES]) {
    let mut at_c = [(0.0, Point::ORIGIN); LANES];
    for u in users {
        for (at_c, node) in at_c.iter_mut().zip(batch) {
            *at_c = add_user(&node.mbr, *at_c, *u);
        }
    }
    for ((bound, node), at_c) in bounds.iter_mut().zip(batch).zip(at_c) {
        *bound = tangent_plane_or(*bound, &node.mbr, at_c);
    }
}

/// Folds user `u` into the SUM `f` at `rect`'s centre `c` and its subgradient `g` there: adds
/// `‖c − u‖`, and the unit vector from `u` towards `c` (0 where they coincide).
#[inline(always)]
fn add_user(rect: &Rect, (f, g): (f64, Point), u: Point) -> (f64, Point) {
    let (dx, dy) = (rect.center().x - u.x, rect.center().y - u.y);
    let d = (dx * dx + dy * dy).sqrt();
    let inv = if d > 0.0 { 1.0 / d } else { 0.0 };
    (f + d, Point::new(g.x + dx * inv, g.y + dy * inv))
}

/// The larger of `summed` and the tangent plane over `rect` of SUM `f`, slope `g` at the centre.
#[inline(always)]
fn tangent_plane_or(summed: f64, rect: &Rect, (f, g): (f64, Point)) -> f64 {
    let c = rect.center();
    let (hx, hy) = ((rect.hi.x - c.x).max(c.x - rect.lo.x), (rect.hi.y - c.y).max(c.y - rect.lo.y));
    summed.max(f - g.x.abs() * hx - g.y.abs() * hy - 1e-9 * (f + hx + hy))
}

/// Convenience: top-k GNN by brute force, used as a test oracle and by tiny data sets.
#[must_use]
pub fn brute_force_gnn(
    points: &[Point],
    users: &[Point],
    aggregate: Aggregate,
    k: usize,
) -> Vec<GnnNeighbor> {
    let mut all: Vec<GnnNeighbor> = points
        .iter()
        .enumerate()
        .map(|(i, p)| GnnNeighbor {
            entry: PoiEntry::new(i, *p),
            dist: aggregate.point_dist(*p, users),
        })
        .collect();
    all.sort_by(|a, b| a.dist.total_cmp(&b.dist));
    all.truncate(k);
    all
}

#[cfg(test)]
mod tests;
