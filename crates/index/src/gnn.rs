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
//! Nodes are ranked by a lower bound of the aggregate distance (the aggregate of per-user
//! minimum distances to the node MBR), which is admissible for both MAX and SUM.  The frontier
//! heap holds *nodes only*, each as its `(level, index)` in the tree's level arrays, so it
//! borrows nothing and is a per-thread buffer that every query reuses.  The result vector
//! holds the `k` best entries seen so far, and its last element is the pruning bound.  A
//! point that does not beat the bound, or a child whose lower bound exceeds the bound's
//! distance, never enters anything; the search ends when the frontier's smallest lower
//! bound exceeds the bound.  The nodes opened are exactly those
//! whose lower bound is at most the final k-th distance — the set the textbook incremental
//! best-first search (one heap of nodes *and* points) opens, so [`QueryStats`] are those of
//! that search whenever no heap key ties with the k-th distance (on such a tie best-first
//! opens whatever its heap happens to surface first; this search opens every tied node).
//!
//! # Batch kernels and the squared MAX
//!
//! A leaf's points and an internal node's child rectangles are scored up to 32 at a time:
//! the coordinates are gathered into fixed arrays and one branch-free loop per user folds
//! that user's distance into every lane, with compare-select in place of `f64::max` (whose
//! NaN handling keeps the loop scalar).  SUM adds one `sqrt` per user, in user order — the
//! summation order of [`sum_dist_to_set`].  MAX folds *squared* distances and takes one
//! `sqrt` per lane at the end: `sqrt` is monotone and correctly rounded, so
//! `sqrt(max d²)` and `max sqrt(d²)` are the same bits.  Either way a lane equals
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
use std::cmp::Ordering;
use std::collections::BinaryHeap;

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

    /// Admissible lower bound of the aggregate distance from any point inside `rect` to the
    /// group: the aggregate of per-user minimum distances to the rectangle.
    #[must_use]
    pub fn rect_lower_bound(self, rect: &Rect, users: &[Point]) -> f64 {
        match self {
            Aggregate::Max => users.iter().map(|u| rect.min_dist(*u)).fold(0.0, f64::max),
            Aggregate::Sum => users.iter().map(|u| rect.min_dist(*u)).sum(),
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

    /// The best meeting point (top-1 GNN), if the tree is non-empty.
    #[must_use]
    pub fn best(&self) -> Option<GnnNeighbor> {
        self.top_k(1).0.into_iter().next()
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
        let mut frontier = FRONTIER.take();
        frontier.clear();
        frontier.push(Ranked { key: 0.0, item: (root, 0) });
        while let Some(Ranked { key: lower_bound, item: (level, at) }) = frontier.pop() {
            if lower_bound > kth_dist(out) {
                break;
            }
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
                            frontier.push(Ranked { key: lower_bound, item: (level - 1, at) });
                        }
                    }
                }
            }
        }
        FRONTIER.set(frontier);
        stats
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

/// A heap item under its key (a frontier node under its lower bound); smallest key first,
/// so the ordering is reversed: std's `BinaryHeap` is a max-heap.
struct Ranked<T> {
    key: f64,
    item: T,
}

impl<T> PartialEq for Ranked<T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl<T> Eq for Ranked<T> {}
impl<T> PartialOrd for Ranked<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Ranked<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key.total_cmp(&self.key)
    }
}

thread_local! {
    /// The frontier of `(level, index)` nodes under their lower bounds: it borrows no tree,
    /// so it lives per thread beside the [`QueryScratch`](crate::QueryScratch) and a query
    /// reuses the capacity the thread's earlier queries grew.
    static FRONTIER: Cell<BinaryHeap<Ranked<(usize, usize)>>> =
        const { Cell::new(BinaryHeap::new()) };
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
    // Per lane `(lo.x, hi.x)` and `(lo.y, hi.y)`.
    let (mut xs, mut ys) = ([(0.0f64, 0.0f64); LANES], [(0.0f64, 0.0f64); LANES]);
    for ((x, y), Node { mbr, .. }) in xs.iter_mut().zip(&mut ys).zip(batch) {
        (*x, *y) = ((mbr.lo.x, mbr.hi.x), (mbr.lo.y, mbr.hi.y));
    }
    // One axis of `Rect::min_dist`, with compare-select for its two `f64::max`.
    let gap = |(lo, hi): (f64, f64), at: f64| {
        let below = if lo - at > 0.0 { lo - at } else { 0.0 };
        if at - hi > below {
            at - hi
        } else {
            below
        }
    };
    aggregate_lanes(aggregate, users, n, |u| {
        xs[..n].iter().zip(&ys[..n]).map(move |(x, y)| {
            let (dx, dy) = (gap(*x, u.x), gap(*y, u.y));
            dx * dx + dy * dy
        })
    })
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
