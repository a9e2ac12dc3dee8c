//! A planar R-tree over points of interest.
//!
//! The tree is immutable: it is built in one STR (Sort-Tile-Recursive) bulk load — the POI
//! sets of the paper's experiments are static — and a changing world is served by the
//! insert/delete overlay of [`crate::world::WorldView`], which rebuilds the base with another
//! bulk load when the overlay outgrows its threshold.  The distance-ranked traversal is the
//! GNN search of [`crate::gnn`]; the two candidate walks of Theorems 3 and 6 live here.

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

#[derive(Debug, Clone)]
pub(crate) enum Node {
    Leaf { mbr: Rect, entries: Vec<PoiEntry> },
    Internal { mbr: Rect, children: Vec<Node> },
}

impl Node {
    pub(crate) fn mbr(&self) -> Rect {
        match self {
            Node::Leaf { mbr, .. } | Node::Internal { mbr, .. } => *mbr,
        }
    }

    fn recompute_mbr(&mut self) {
        match self {
            Node::Leaf { mbr, entries } => {
                *mbr =
                    entries.iter().fold(Rect::EMPTY, |r, e| r.union(Rect::from_point(e.location)));
            }
            Node::Internal { mbr, children } => {
                *mbr = children.iter().fold(Rect::EMPTY, |r, c| r.union(c.mbr()));
            }
        }
    }

    fn height(&self) -> usize {
        match self {
            Node::Leaf { .. } => 1,
            Node::Internal { children, .. } => {
                1 + children.iter().map(Node::height).max().unwrap_or(0)
            }
        }
    }

    fn node_count(&self) -> usize {
        match self {
            Node::Leaf { .. } => 1,
            Node::Internal { children, .. } => {
                1 + children.iter().map(Node::node_count).sum::<usize>()
            }
        }
    }

    /// Number of POI entries stored in the subtree (used by structural tests).
    #[cfg(test)]
    fn len(&self) -> usize {
        match self {
            Node::Leaf { entries, .. } => entries.len(),
            Node::Internal { children, .. } => children.iter().map(Node::len).sum(),
        }
    }
}

/// An R-tree over [`PoiEntry`] records.
#[derive(Debug, Clone)]
pub struct RTree {
    config: RTreeConfig,
    root: Option<Node>,
    len: usize,
    next_id: usize,
    generation: u64,
}

/// Process-unique stamp for [`RTree::generation`]: every construction gets a fresh value, so
/// two trees never share a generation.  The overlay of [`crate::world::WorldView`] mints its
/// logical generations from the same counter, so tree stamps and world stamps can never
/// collide.
pub(crate) fn next_generation() -> u64 {
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

    /// Bulk loads a tree from pre-identified entries using Sort-Tile-Recursive packing.
    #[must_use]
    pub fn bulk_load_entries(entries: Vec<PoiEntry>, config: RTreeConfig) -> Self {
        let len = entries.len();
        let next_id = entries.iter().map(|e| e.id + 1).max().unwrap_or(0);
        if entries.is_empty() {
            return Self { config, root: None, len: 0, next_id, generation: next_generation() };
        }
        let leaves = str_pack_leaves(entries, config.max_entries);
        let root = build_upper_levels(leaves, config.max_entries);
        Self { config, root: Some(root), len, next_id, generation: next_generation() }
    }

    /// Number of POIs stored in the tree.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree holds no POIs.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Height of the tree (0 for an empty tree, 1 for a single leaf).
    #[must_use]
    pub fn height(&self) -> usize {
        self.root.as_ref().map_or(0, Node::height)
    }

    /// Total number of nodes (leaves plus internal nodes).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.root.as_ref().map_or(0, Node::node_count)
    }

    /// Minimum bounding rectangle of the whole data set.
    #[must_use]
    pub fn bounds(&self) -> Rect {
        self.root.as_ref().map_or(Rect::EMPTY, Node::mbr)
    }

    /// The tree's fan-out configuration.
    #[must_use]
    pub fn config(&self) -> RTreeConfig {
        self.config
    }

    /// Process-unique identity stamp of this tree's contents.
    ///
    /// Every construction produces a fresh value, so caches keyed on the generation (e.g. the
    /// persistent §5.4 GNN buffer) can detect a different tree without probabilistic
    /// address/content comparisons.  Cloning preserves the stamp: a clone holds identical
    /// contents, so caches built from the original stay valid for it.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Iterates over every entry (in unspecified order).
    pub fn iter(&self) -> impl Iterator<Item = PoiEntry> + '_ {
        let mut stack: Vec<&Node> = self.root.iter().collect();
        std::iter::from_fn(move || loop {
            match stack.pop()? {
                Node::Leaf { entries, .. } => return Some(entries.iter().copied()),
                Node::Internal { children, .. } => stack.extend(children.iter()),
            }
        })
        .flatten()
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
        out.clear();
        let mut stats = QueryStats::default();
        if let Some(root) = &self.root {
            Self::user_radii_walk(root, users, radii, out, &mut stats);
        }
        stats
    }

    /// Depth-first candidate walk.  Children are descended in *reverse* order, which is the
    /// visit order of the historical explicit LIFO stack — output order is part of the
    /// bit-identity contract (cached payloads replay it verbatim).
    fn user_radii_walk(
        node: &Node,
        users: &[Point],
        radii: &[f64],
        out: &mut Vec<PoiEntry>,
        stats: &mut QueryStats,
    ) {
        let mbr = node.mbr();
        if users.iter().zip(radii).any(|(u, r)| mbr.min_dist(*u) > *r) {
            return;
        }
        stats.nodes_visited += 1;
        match node {
            Node::Leaf { entries, .. } => {
                for e in entries {
                    stats.points_examined += 1;
                    let keep = users.iter().zip(radii).all(|(u, r)| e.location.dist(*u) <= *r);
                    if keep {
                        out.push(*e);
                    }
                }
            }
            Node::Internal { children, .. } => {
                for c in children.iter().rev() {
                    Self::user_radii_walk(c, users, radii, out, stats);
                }
            }
        }
    }

    /// Candidate POIs for the SUM objective: every POI whose summed distance to the users is at
    /// most `threshold` (the complement of the pruning rule of Theorem 6).  A node is pruned
    /// when the sum of per-user minimum distances to its MBR already exceeds the threshold.
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
        out.clear();
        let mut stats = QueryStats::default();
        if let Some(root) = &self.root {
            Self::sum_radius_walk(root, users, threshold, out, &mut stats);
        }
        stats
    }

    fn sum_radius_walk(
        node: &Node,
        users: &[Point],
        threshold: f64,
        out: &mut Vec<PoiEntry>,
        stats: &mut QueryStats,
    ) {
        let mbr = node.mbr();
        let lower: f64 = users.iter().map(|u| mbr.min_dist(*u)).sum();
        if lower > threshold {
            return;
        }
        stats.nodes_visited += 1;
        match node {
            Node::Leaf { entries, .. } => {
                for e in entries {
                    stats.points_examined += 1;
                    let sum: f64 = users.iter().map(|u| e.location.dist(*u)).sum();
                    if sum <= threshold {
                        out.push(*e);
                    }
                }
            }
            Node::Internal { children, .. } => {
                for c in children.iter().rev() {
                    Self::sum_radius_walk(c, users, threshold, out, stats);
                }
            }
        }
    }

    pub(crate) fn root(&self) -> Option<&Node> {
        self.root.as_ref()
    }

    /// One past the largest id stored.  The delta overlay of [`crate::world::WorldView`]
    /// continues this numbering so overlay inserts never collide with base ids.
    pub(crate) fn next_id(&self) -> usize {
        self.next_id
    }
}

// ---------------------------------------------------------------------------------------------
// STR bulk loading.
// ---------------------------------------------------------------------------------------------

fn str_pack_leaves(mut entries: Vec<PoiEntry>, cap: usize) -> Vec<Node> {
    let n = entries.len();
    let leaf_count = n.div_ceil(cap);
    let slices = (leaf_count as f64).sqrt().ceil() as usize;
    entries.sort_by(|a, b| a.location.x.total_cmp(&b.location.x));
    let per_slice = n.div_ceil(slices.max(1));

    let mut leaves = Vec::with_capacity(leaf_count);
    for slice in entries.chunks(per_slice.max(1)) {
        let mut slice: Vec<PoiEntry> = slice.to_vec();
        slice.sort_by(|a, b| a.location.y.total_cmp(&b.location.y));
        for chunk in slice.chunks(cap) {
            let mut leaf = Node::Leaf { mbr: Rect::EMPTY, entries: chunk.to_vec() };
            leaf.recompute_mbr();
            leaves.push(leaf);
        }
    }
    leaves
}

fn build_upper_levels(mut level: Vec<Node>, cap: usize) -> Node {
    while level.len() > 1 {
        // Pack the current level with the same STR strategy applied to node centres.
        let n = level.len();
        let group_count = n.div_ceil(cap);
        let slices = (group_count as f64).sqrt().ceil() as usize;
        level.sort_by(|a, b| a.mbr().center().x.total_cmp(&b.mbr().center().x));
        let per_slice = n.div_ceil(slices.max(1));

        let mut next = Vec::with_capacity(group_count);
        let mut buf: Vec<Node> = Vec::new();
        std::mem::swap(&mut buf, &mut level);
        let mut chunks: Vec<Vec<Node>> = Vec::new();
        let mut iter = buf.into_iter().peekable();
        while iter.peek().is_some() {
            let slice: Vec<Node> = iter.by_ref().take(per_slice.max(1)).collect();
            chunks.push(slice);
        }
        for mut slice in chunks {
            slice.sort_by(|a, b| a.mbr().center().y.total_cmp(&b.mbr().center().y));
            let mut iter = slice.into_iter().peekable();
            while iter.peek().is_some() {
                let children: Vec<Node> = iter.by_ref().take(cap).collect();
                let mut node = Node::Internal { mbr: Rect::EMPTY, children };
                node.recompute_mbr();
                next.push(node);
            }
        }
        level = next;
    }
    level.pop().expect("non-empty level")
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
        fn check(node: &Node, cap: usize) {
            match node {
                Node::Leaf { entries, .. } => assert!((1..=cap).contains(&entries.len())),
                Node::Internal { children, .. } => {
                    assert!((1..=cap).contains(&children.len()));
                    children.iter().for_each(|c| check(c, cap));
                }
            }
        }
        for (n, cap) in [(200, 6), (97, 4), (1000, 32), (33, 32)] {
            let entries = grid_points(n).into_iter().enumerate().map(|(i, p)| PoiEntry::new(i, p));
            let t = RTree::bulk_load_entries(entries.collect(), RTreeConfig::new(cap));
            check(t.root().unwrap(), cap);
            assert!(t.node_count() >= n.div_ceil(cap));
        }
        assert_eq!(RTreeConfig::new(1).max_entries, 4, "a degenerate fan-out is clamped");
    }

    #[test]
    fn mbrs_cover_their_subtrees() {
        let t = RTree::bulk_load(&grid_points(777));
        fn check(node: &Node) {
            let mbr = node.mbr();
            match node {
                Node::Leaf { entries, .. } => {
                    for e in entries {
                        assert!(mbr.contains(e.location));
                    }
                }
                Node::Internal { children, .. } => {
                    for c in children {
                        assert!(mbr.contains_rect(&c.mbr()));
                        check(c);
                    }
                }
            }
        }
        check(t.root().unwrap());
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
        let t = RTree::bulk_load(&grid_points(321));
        assert_eq!(t.root().unwrap().len(), t.len());
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
