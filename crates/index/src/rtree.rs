//! A planar R-tree over points of interest.
//!
//! The tree is immutable to its readers: it is built in one STR (Sort-Tile-Recursive) bulk
//! load — the POI sets of the paper's experiments are static — and a changing world
//! ([`crate::world::WorldView`]) edits the entry array and bulk loads it again.  The STR pass
//! sorts on total keys, so the layout is a function of the POI set alone, whatever order the
//! entries arrive in.  The distance-ranked traversal is the GNN search of [`crate::gnn`]; the
//! two candidate walks of Theorems 3 and 6 live here.
//!
//! # Layout
//!
//! The tree is stored as what an STR pack produces: one array of the POIs in leaf order and
//! one array of nodes per level, leaves first and the root last.  A node is its MBR plus a
//! contiguous range of children — of the level below, or of the entry array for a leaf — so
//! a node is named by `(level, index)`, and nothing is boxed or nested.

use mpn_geom::{DistanceBounds, Point, Rect};

/// Configuration of the R-tree fan-out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RTreeConfig {
    /// Maximum number of entries per node.
    pub max_entries: usize,
}

impl Default for RTreeConfig {
    fn default() -> Self {
        // A fan-out of 32 models a small disk page of POI records.
        Self { max_entries: 32 }
    }
}

impl RTreeConfig {
    /// Creates a configuration, clamping a degenerate fan-out to 4.
    #[must_use]
    pub fn new(max_entries: usize) -> Self {
        Self { max_entries: max_entries.max(4) }
    }
}

/// A point of interest stored in the tree: a stable identifier plus its location.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoiEntry {
    /// Stable identifier of the POI (index into the original data set).
    pub id: usize,
    /// Location of the POI.
    pub location: Point,
}

impl PoiEntry {
    /// Creates an entry.
    #[must_use]
    pub const fn new(id: usize, location: Point) -> Self {
        Self { id, location }
    }
}

/// Counters describing the work performed by a single query.
///
/// `nodes_visited` is the number of R-tree nodes whose children were examined (a proxy for
/// index I/O); `points_examined` is the number of leaf entries whose exact distance was
/// evaluated.  The buffering optimisation of Section 5.4 exists precisely to reduce these
/// numbers, so the simulation reports them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Number of internal/leaf nodes expanded during the query.
    pub nodes_visited: usize,
    /// Number of POI entries whose distance was computed.
    pub points_examined: usize,
}

impl QueryStats {
    /// Adds another stats record into this one.
    pub fn absorb(&mut self, other: QueryStats) {
        self.nodes_visited += other.nodes_visited;
        self.points_examined += other.points_examined;
    }
}

/// One node of the packed tree: its MBR and its children, a contiguous range of the level
/// below (of the entry array, for a leaf).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Node {
    pub(crate) mbr: Rect,
    pub(crate) start: usize,
    pub(crate) end: usize,
}

impl Node {
    pub(crate) fn children(&self) -> std::ops::Range<usize> {
        self.start..self.end
    }
}

/// An R-tree over [`PoiEntry`] records.
#[derive(Debug, Clone)]
pub struct RTree {
    config: RTreeConfig,
    /// The POIs in leaf order.
    entries: Vec<PoiEntry>,
    /// The nodes of each level, leaves first; the last level is the root alone (no level at
    /// all for an empty tree).
    levels: Vec<Vec<Node>>,
    next_id: usize,
    generation: u64,
}

/// Process-unique stamp for [`RTree::generation`]: every construction and every rebuild gets
/// a fresh value from one counter, so two trees never share a generation and a world's
/// stamp strictly increases with each change.
fn next_generation() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

impl RTree {
    /// Bulk loads a tree from plain points; the entry id of each point is its slice index.
    #[must_use]
    pub fn bulk_load(points: &[Point]) -> Self {
        let entries = points.iter().enumerate().map(|(i, p)| PoiEntry::new(i, *p)).collect();
        Self::bulk_load_entries(entries, RTreeConfig::default())
    }

    /// Bulk loads a tree from pre-identified entries using Sort-Tile-Recursive packing: one
    /// `str_pack` pass over the entries makes the leaves, one over each level's nodes (by
    /// MBR centre) the level above, until one root is left.
    #[must_use]
    pub fn bulk_load_entries(mut entries: Vec<PoiEntry>, config: RTreeConfig) -> Self {
        let next_id = entries.iter().map(|e| e.id + 1).max().unwrap_or(0);
        let cap = config.max_entries;
        let mut levels = Vec::new();
        if !entries.is_empty() {
            let point = |e: &PoiEntry| Rect::from_point(e.location);
            levels.push(str_pack(&mut entries, cap, |e| (e.location, e.id), point));
        }
        while let Some(level) = levels.last_mut().filter(|level| level.len() > 1) {
            let above = str_pack(level, cap, |n| (n.mbr.center(), n.start), |n| n.mbr);
            levels.push(above);
        }
        Self { config, entries, levels, next_id, generation: next_generation() }
    }

    /// Number of POIs stored in the tree.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the tree holds no POIs.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Height of the tree (0 for an empty tree, 1 for a single leaf).
    #[must_use]
    pub fn height(&self) -> usize {
        self.levels.len()
    }

    /// Total number of nodes (leaves plus internal nodes).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.levels.iter().map(Vec::len).sum()
    }

    /// Minimum bounding rectangle of the whole data set.
    #[must_use]
    pub fn bounds(&self) -> Rect {
        self.root().map_or(Rect::EMPTY, |(_, root)| root.mbr)
    }

    /// The tree's fan-out configuration.
    #[must_use]
    pub fn config(&self) -> RTreeConfig {
        self.config
    }

    /// Process-unique identity stamp of this tree's contents.
    ///
    /// Every construction and every rebuild produces a fresh value, so anything keyed on the
    /// generation (a world's announced state) can detect a different tree without
    /// probabilistic address/content comparisons.  Cloning preserves the stamp: a clone holds
    /// identical contents.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Iterates over every entry (in leaf order).
    pub fn iter(&self) -> impl Iterator<Item = PoiEntry> + '_ {
        self.entries.iter().copied()
    }

    /// Candidate POIs for the MAX objective: every POI `p` such that `‖p, uᵢ‖ ≤ radiiᵢ` for all
    /// users `uᵢ` (the complement of the pruning rule of Theorem 3).  An R-tree node is pruned
    /// as soon as its MBR lies farther than `radiiᵢ` from some user (Fig. 10).
    #[must_use]
    pub fn candidates_within_user_radii(
        &self,
        users: &[Point],
        radii: &[f64],
    ) -> (Vec<PoiEntry>, QueryStats) {
        let mut out = Vec::new();
        let stats = self.candidates_within_user_radii_into(users, radii, &mut out);
        (out, stats)
    }

    /// [`candidates_within_user_radii`](RTree::candidates_within_user_radii) into a
    /// caller-provided buffer (cleared first): a reused scratch vector makes the walk
    /// allocation-free.  The visit stack is the program stack — the walk recurses, bounded
    /// by the tree height.
    pub fn candidates_within_user_radii_into(
        &self,
        users: &[Point],
        radii: &[f64],
        out: &mut Vec<PoiEntry>,
    ) -> QueryStats {
        assert_eq!(users.len(), radii.len(), "one radius per user");
        let prune = |mbr: &Rect| users.iter().zip(radii).any(|(u, r)| mbr.min_dist(*u) > *r);
        let keep = |p: Point| users.iter().zip(radii).all(|(u, r)| p.dist(*u) <= *r);
        self.walk_into(&prune, &keep, out)
    }

    /// Candidate POIs for the SUM objective: every POI whose summed distance to the users is at
    /// most `threshold` (the complement of the pruning rule of Theorem 6).  A node is pruned
    /// when its admissible SUM bound, [`crate::Aggregate::rect_lower_bound`], exceeds it.
    #[must_use]
    pub fn candidates_within_sum_radius(
        &self,
        users: &[Point],
        threshold: f64,
    ) -> (Vec<PoiEntry>, QueryStats) {
        let mut out = Vec::new();
        let stats = self.candidates_within_sum_radius_into(users, threshold, &mut out);
        (out, stats)
    }

    /// [`candidates_within_sum_radius`](RTree::candidates_within_sum_radius) into a
    /// caller-provided buffer (cleared first); same recursion/visit-order contract as
    /// [`candidates_within_user_radii_into`](RTree::candidates_within_user_radii_into).
    pub fn candidates_within_sum_radius_into(
        &self,
        users: &[Point],
        threshold: f64,
        out: &mut Vec<PoiEntry>,
    ) -> QueryStats {
        let prune = |mbr: &Rect| crate::Aggregate::Sum.rect_lower_bound(mbr, users) > threshold;
        let keep = |p: Point| users.iter().map(|u| p.dist(*u)).sum::<f64>() <= threshold;
        self.walk_into(&prune, &keep, out)
    }

    /// The candidate walk from the root into `out` (cleared first).
    fn walk_into(
        &self,
        prune: &impl Fn(&Rect) -> bool,
        keep: &impl Fn(Point) -> bool,
        out: &mut Vec<PoiEntry>,
    ) -> QueryStats {
        out.clear();
        let mut stats = QueryStats::default();
        if let Some((level, root)) = self.root() {
            self.walk(level, root, prune, keep, out, &mut stats);
        }
        stats
    }

    /// Depth-first candidate walk: a node whose MBR `prune`s is skipped, every entry of an
    /// opened leaf is examined and the ones that `keep` are emitted.  Children are descended
    /// in *reverse* order, which is the visit order of the historical explicit LIFO stack —
    /// output order is part of the bit-identity contract (cached payloads replay it
    /// verbatim).
    fn walk(
        &self,
        level: usize,
        node: &Node,
        prune: &impl Fn(&Rect) -> bool,
        keep: &impl Fn(Point) -> bool,
        out: &mut Vec<PoiEntry>,
        stats: &mut QueryStats,
    ) {
        if prune(&node.mbr) {
            return;
        }
        stats.nodes_visited += 1;
        if level == 0 {
            let entries = self.leaf_entries(node);
            stats.points_examined += entries.len();
            out.extend(entries.iter().filter(|e| keep(e.location)));
        } else {
            for child in self.levels[level - 1][node.children()].iter().rev() {
                self.walk(level - 1, child, prune, keep, out, stats);
            }
        }
    }

    /// The nodes of `level`, 0 being the leaves.
    pub(crate) fn level(&self, level: usize) -> &[Node] {
        &self.levels[level]
    }

    /// The entries of a leaf.
    pub(crate) fn leaf_entries(&self, leaf: &Node) -> &[PoiEntry] {
        &self.entries[leaf.children()]
    }

    /// The root and its level, unless the tree is empty.
    pub(crate) fn root(&self) -> Option<(usize, &Node)> {
        Some((self.levels.len().checked_sub(1)?, self.levels.last()?.first()?))
    }

    /// One past the largest id stored, recomputed by every bulk load.  A
    /// [`WorldView`](crate::world::WorldView) starts its own numbering here and keeps it, so
    /// a deleted highest id is never handed out again.
    pub(crate) fn next_id(&self) -> usize {
        self.next_id
    }

    /// Applies `edit` to the entry array and bulk loads the result in place of this tree,
    /// with a fresh generation.  The old node arrays are freed first and the entries are
    /// sorted in place, so the rebuild holds no second copy of either.
    pub(crate) fn rebuild<R>(&mut self, edit: impl FnOnce(&mut Vec<PoiEntry>) -> R) -> R {
        let mut entries = std::mem::take(&mut self.entries);
        self.levels = Vec::new();
        let out = edit(&mut entries);
        *self = Self::bulk_load_entries(entries, self.config);
        out
    }
}

/// One STR pass: sorts `items` by the `x` of their `at` point, cuts them into `⌈√groups⌉`
/// slices, sorts each slice by `y` and cuts it into groups of `cap`; returns one node per
/// group, over its range of the reordered `items`.
///
/// `at` also yields a key unique per item (an entry's id, a node's first child), and the
/// sorts are in place on total keys — `(x, key)`, then `(y, x, key)` — so the layout does not
/// depend on the input order and no sort scratch is allocated.  For items handed over in key
/// order this is the layout two stable sorts, by `x` and then by `y`, would build.
fn str_pack<T>(
    items: &mut [T],
    cap: usize,
    at: impl Fn(&T) -> (Point, usize),
    mbr: impl Fn(&T) -> Rect,
) -> Vec<Node> {
    let n = items.len();
    let groups = n.div_ceil(cap);
    let slices = (groups as f64).sqrt().ceil() as usize;
    items.sort_unstable_by(|a, b| {
        let ((p, i), (q, j)) = (at(a), at(b));
        p.x.total_cmp(&q.x).then(i.cmp(&j))
    });
    let per_slice = n.div_ceil(slices.max(1)).max(1);
    let mut nodes = Vec::with_capacity(groups);
    for (s, slice) in items.chunks_mut(per_slice).enumerate() {
        slice.sort_unstable_by(|a, b| {
            let ((p, i), (q, j)) = (at(a), at(b));
            p.y.total_cmp(&q.y).then(p.x.total_cmp(&q.x)).then(i.cmp(&j))
        });
        for (g, group) in slice.chunks(cap).enumerate() {
            let start = s * per_slice + g * cap;
            let mbr = group.iter().fold(Rect::EMPTY, |r, item| r.union(mbr(item)));
            nodes.push(Node { mbr, start, end: start + group.len() });
        }
    }
    nodes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gnn::{Aggregate, GnnNeighbor, GnnSearch};

    fn grid_points(n: usize) -> Vec<Point> {
        let side = (n as f64).sqrt().ceil() as usize;
        (0..n).map(|i| Point::new((i % side) as f64, (i / side) as f64)).collect()
    }

    /// The `k` nearest POIs to `q`: the single-user GNN query (MAX and SUM coincide).
    fn nearest_to(t: &RTree, q: Point, k: usize) -> Vec<GnnNeighbor> {
        GnnSearch::new(t, &[q], Aggregate::Max).top_k(k).0
    }

    #[test]
    fn generations_are_unique_per_construction_and_mutation() {
        let a = RTree::bulk_load(&grid_points(16));
        let b = RTree::bulk_load(&grid_points(16));
        assert_ne!(a.generation(), b.generation(), "distinct trees get distinct stamps");
        // A clone shares contents, so it keeps the stamp.
        assert_eq!(a.clone().generation(), a.generation());
        // The tree itself is immutable; a changed POI set is a rebuilt tree with a fresh stamp.
        let mut entries: Vec<PoiEntry> = b.iter().collect();
        entries.push(PoiEntry::new(b.next_id(), Point::new(100.0, 100.0)));
        let c = RTree::bulk_load_entries(entries, b.config());
        assert_ne!(c.generation(), b.generation());
        assert_eq!(c.next_id(), 17);
    }

    #[test]
    fn empty_tree_behaviour() {
        let t = RTree::bulk_load(&[]);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.height(), 0);
        assert_eq!(t.iter().count(), 0);
        assert!(nearest_to(&t, Point::ORIGIN, 1).is_empty());
        assert!(t.candidates_within_sum_radius(&[Point::ORIGIN], 1.0).0.is_empty());
        assert!(t.bounds().is_empty());
    }

    #[test]
    fn bulk_load_indexes_every_point() {
        let pts = grid_points(1000);
        let t = RTree::bulk_load(&pts);
        assert_eq!(t.len(), 1000);
        assert!(t.height() >= 2);
        let mut ids: Vec<usize> = t.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn bulk_load_single_point_and_empty() {
        let t = RTree::bulk_load(&[Point::new(3.0, 4.0)]);
        assert_eq!(t.len(), 1);
        assert_eq!(t.height(), 1);
        let nearest = nearest_to(&t, Point::ORIGIN, 1)[0];
        assert_eq!(nearest.entry.id, 0);
        assert!((nearest.dist - 5.0).abs() < 1e-12);

        let empty = RTree::bulk_load(&[]);
        assert!(empty.is_empty());
    }

    #[test]
    fn nearest_matches_linear_scan() {
        let pts = grid_points(500);
        let t = RTree::bulk_load(&pts);
        let queries = [
            Point::new(3.3, 7.9),
            Point::new(-5.0, -5.0),
            Point::new(30.0, 2.0),
            Point::new(11.5, 11.5), // four grid points tie: the smallest id wins
        ];
        for q in queries {
            let got = nearest_to(&t, q, 1)[0];
            // `min_by` keeps the first of equal minima, i.e. the smallest id.
            let (want_i, want_d) = pts
                .iter()
                .enumerate()
                .map(|(i, p)| (i, p.dist(q)))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .unwrap();
            assert_eq!(got.dist, want_d);
            assert_eq!(got.entry.id, want_i);
            // Asking for more neighbours than points returns everything, for none nothing.
            assert_eq!(nearest_to(&t, q, 1000).len(), 500);
            assert!(nearest_to(&t, q, 0).is_empty());
        }
    }

    #[test]
    fn node_capacity_is_respected() {
        for (n, cap) in [(200, 6), (97, 4), (1000, 32), (33, 32)] {
            let entries = grid_points(n).into_iter().enumerate().map(|(i, p)| PoiEntry::new(i, p));
            let t = RTree::bulk_load_entries(entries.collect(), RTreeConfig::new(cap));
            for level in &t.levels {
                assert!(level.iter().all(|node| (1..=cap).contains(&node.children().len())));
            }
            assert_eq!(t.levels.last().unwrap().len(), 1, "one root");
            assert!(t.node_count() >= n.div_ceil(cap));
        }
        assert_eq!(RTreeConfig::new(1).max_entries, 4, "a degenerate fan-out is clamped");
    }

    #[test]
    fn mbrs_cover_their_subtrees() {
        let t = RTree::bulk_load(&grid_points(777));
        for (level, nodes) in t.levels.iter().enumerate() {
            for node in nodes {
                if level == 0 {
                    let entries = &t.entries[node.children()];
                    assert!(entries.iter().all(|e| node.mbr.contains(e.location)));
                } else {
                    let children = &t.levels[level - 1][node.children()];
                    assert!(children.iter().all(|c| node.mbr.contains_rect(&c.mbr)));
                }
            }
        }
    }

    #[test]
    fn candidates_within_user_radii_matches_brute_force() {
        let pts = grid_points(400);
        let t = RTree::bulk_load(&pts);
        let users = [Point::new(4.0, 4.0), Point::new(10.0, 6.0)];
        let radii = [6.0, 8.0];
        let (got, stats) = t.candidates_within_user_radii(&users, &radii);
        let mut got_ids: Vec<usize> = got.iter().map(|e| e.id).collect();
        got_ids.sort_unstable();
        let mut want: Vec<usize> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| users.iter().zip(radii).all(|(u, r)| p.dist(*u) <= r))
            .map(|(i, _)| i)
            .collect();
        want.sort_unstable();
        assert_eq!(got_ids, want);
        // Pruning must have avoided visiting the whole tree.
        assert!(stats.points_examined < pts.len());
    }

    #[test]
    fn candidates_within_sum_radius_matches_brute_force() {
        let pts = grid_points(400);
        let t = RTree::bulk_load(&pts);
        let users = [Point::new(2.0, 2.0), Point::new(15.0, 15.0), Point::new(8.0, 1.0)];
        let threshold = 45.0;
        let (got, _) = t.candidates_within_sum_radius(&users, threshold);
        let mut got_ids: Vec<usize> = got.iter().map(|e| e.id).collect();
        got_ids.sort_unstable();
        let mut want: Vec<usize> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| users.iter().map(|u| p.dist(*u)).sum::<f64>() <= threshold)
            .map(|(i, _)| i)
            .collect();
        want.sort_unstable();
        assert_eq!(got_ids, want);
    }

    #[test]
    fn query_stats_absorb_accumulates() {
        let mut a = QueryStats { nodes_visited: 2, points_examined: 10 };
        a.absorb(QueryStats { nodes_visited: 3, points_examined: 4 });
        assert_eq!(a, QueryStats { nodes_visited: 5, points_examined: 14 });
    }

    #[test]
    fn subtree_entry_count_matches_len() {
        // Each level's child ranges cover the level below (the entries, below the leaves)
        // exactly once, so the root's subtree holds every entry.
        let t = RTree::bulk_load(&grid_points(321));
        let mut below = t.len();
        for level in &t.levels {
            let mut ranges: Vec<_> = level.iter().map(Node::children).collect();
            ranges.sort_by_key(|r| r.start);
            assert_eq!(ranges[0].start, 0);
            assert!(ranges.windows(2).all(|w| w[0].end == w[1].start));
            assert_eq!(ranges.last().unwrap().end, below);
            below = level.len();
        }
        assert_eq!(below, 1);
    }

    #[test]
    fn duplicate_points_are_all_retained() {
        let pts = vec![Point::new(1.0, 1.0); 50];
        let t = RTree::bulk_load(&pts);
        assert_eq!(t.len(), 50);
        assert_eq!(t.iter().count(), 50);
        let all = nearest_to(&t, Point::new(1.0, 1.0), 50);
        assert_eq!(all.iter().map(|n| n.entry.id).collect::<Vec<_>>(), (0..50).collect::<Vec<_>>());
    }
}
