//! A mutable POI world over an immutable R-tree: generation-stamped delta overlay.
//!
//! The safe-region machinery assumes a frozen POI set: every engine query runs against an
//! immutable [`RTree`] shared across workers.  [`WorldView`] keeps that fast path while making
//! the world mutable: it owns a **base** tree (`Arc`-shared, never mutated) plus a small
//! insert/delete **overlay**, and answers every query as *base − deletes + inserts*.  When
//! the overlay grows past a threshold, [`WorldView::maybe_compact`] rebuilds the base from
//! the merged entry set in one STR bulk load and clears the overlay.
//!
//! Two identity stamps are involved:
//!
//! * the base tree's physical [`RTree::generation`], refreshed on every rebuild;
//! * the world's **logical** [`WorldView::generation`], bumped on every insert/delete but
//!   **kept across compaction** — compaction changes representation, not content, so caches
//!   keyed on the logical generation (the §5.4 GNN buffer) survive it.
//!
//! Queries go through [`IndexView`], a `Copy` borrow of either a plain tree or a world
//! (`From<&RTree>` / `From<&WorldView>`).  Every engine entry point in `mpn-core` accepts
//! `impl Into<IndexView>`, so existing `&tree` call sites compile unchanged while the
//! monitoring engine can thread a mutable world through the same code.

use std::collections::HashSet;
use std::sync::Arc;

use mpn_geom::Point;

use crate::cache::QueryCache;
use crate::gnn::{Aggregate, GnnNeighbor, GnnSearch};
use crate::rtree::{next_generation, PoiEntry, QueryStats, RTree};
use crate::scratch::with_scratch;

/// The pending delta against the base tree: inserted entries and deleted base ids.
///
/// Invariants: insert ids never collide with base ids (the world continues the base's id
/// numbering); `deletes` only holds ids that exist in the base (deleting an overlay insert
/// removes it from `inserts` directly).
#[derive(Debug, Clone, Default)]
pub struct Overlay {
    pub(crate) inserts: Vec<PoiEntry>,
    pub(crate) deletes: HashSet<usize>,
}

impl Overlay {
    fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }

    fn len(&self) -> usize {
        self.inserts.len() + self.deletes.len()
    }
}

/// Default overlay size (inserts + deletes) above which [`WorldView::maybe_compact`]
/// rebuilds the base tree.  Small enough that overlay scans stay cheap next to an R-tree
/// traversal, large enough that a burst of changes amortises one STR bulk load.
pub const DEFAULT_COMPACTION_THRESHOLD: usize = 64;

/// A mutable POI world: an immutable base [`RTree`] plus an insert/delete overlay.
#[derive(Debug, Clone)]
pub struct WorldView {
    base: Arc<RTree>,
    overlay: Overlay,
    /// Logical content stamp: bumped per mutation, preserved across compaction.
    generation: u64,
    /// Continues the base tree's id numbering for overlay inserts.
    next_id: usize,
    compaction_threshold: usize,
    compactions: usize,
}

impl WorldView {
    /// Creates a world over the given base tree with an empty overlay.
    ///
    /// The logical generation starts at the base's stamp, so a fresh world is
    /// indistinguishable from the plain tree to generation-keyed caches.
    #[must_use]
    pub fn new(base: impl Into<Arc<RTree>>) -> Self {
        let base = base.into();
        let generation = base.generation();
        let next_id = base.next_id();
        Self {
            base,
            overlay: Overlay::default(),
            generation,
            next_id,
            compaction_threshold: DEFAULT_COMPACTION_THRESHOLD,
            compactions: 0,
        }
    }

    /// Sets the overlay size at which [`WorldView::maybe_compact`] rebuilds the base.
    #[must_use]
    pub fn with_compaction_threshold(mut self, threshold: usize) -> Self {
        self.compaction_threshold = threshold.max(1);
        self
    }

    /// The immutable base tree (shared with whoever else holds the `Arc`).
    #[must_use]
    pub fn base(&self) -> &Arc<RTree> {
        &self.base
    }

    /// A borrowed, `Copy` query view of the current world state.
    #[must_use]
    pub fn view(&self) -> IndexView<'_> {
        IndexView {
            base: &self.base,
            overlay: (!self.overlay.is_empty()).then_some(&self.overlay),
            generation: self.generation,
            cache: None,
        }
    }

    /// Number of live POIs (base minus deletes plus inserts).
    #[must_use]
    pub fn len(&self) -> usize {
        self.base.len() - self.overlay.deletes.len() + self.overlay.inserts.len()
    }

    /// Whether the world holds no POIs.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Logical content stamp: process-unique, bumped on every [`insert`](WorldView::insert)
    /// and successful [`delete`](WorldView::delete), **unchanged** by compaction (the content
    /// is identical, so generation-keyed caches stay valid).
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Pending overlay size (inserts plus deletes).
    #[must_use]
    pub fn overlay_len(&self) -> usize {
        self.overlay.len()
    }

    /// How many times the base has been rebuilt from the merged entry set.
    #[must_use]
    pub fn compactions(&self) -> usize {
        self.compactions
    }

    /// Adds a POI at `location`, returning its fresh id (never reusing a base id).
    pub fn insert(&mut self, location: Point) -> usize {
        let id = self.next_id;
        self.next_id += 1;
        self.overlay.inserts.push(PoiEntry::new(id, location));
        self.generation = next_generation();
        id
    }

    /// Removes the POI with the given id.  Returns its location when it existed (in the base
    /// or the overlay), `None` when the id is unknown or already deleted.
    pub fn delete(&mut self, poi: usize) -> Option<Point> {
        if let Some(at) = self.overlay.inserts.iter().position(|e| e.id == poi) {
            let entry = self.overlay.inserts.remove(at);
            self.generation = next_generation();
            return Some(entry.location);
        }
        if self.overlay.deletes.contains(&poi) {
            return None;
        }
        let location = self.base.iter().find(|e| e.id == poi)?.location;
        self.overlay.deletes.insert(poi);
        self.generation = next_generation();
        Some(location)
    }

    /// Rebuilds the base from the merged entry set when the overlay has outgrown its
    /// threshold; returns whether a compaction ran.  Ids are preserved, the logical
    /// generation is **not** bumped (the content is unchanged).
    pub fn maybe_compact(&mut self) -> bool {
        if self.overlay.len() <= self.compaction_threshold {
            return false;
        }
        self.compact();
        true
    }

    /// Unconditionally rebuilds the base from the merged entry set and clears the overlay.
    /// The entries are bulk loaded in id order, so the new base is the tree a fresh bulk load
    /// of the same POI set builds, whatever the overlay's history.
    pub fn compact(&mut self) {
        let mut entries: Vec<PoiEntry> = self.view().iter().collect();
        entries.sort_unstable_by_key(|e| e.id);
        let config = self.base.config();
        self.base = Arc::new(RTree::bulk_load_entries(entries, config));
        self.overlay = Overlay::default();
        self.compactions += 1;
    }
}

impl From<Arc<RTree>> for WorldView {
    fn from(base: Arc<RTree>) -> Self {
        Self::new(base)
    }
}

impl From<RTree> for WorldView {
    fn from(base: RTree) -> Self {
        Self::new(Arc::new(base))
    }
}

/// A borrowed, `Copy` query view over either a plain [`RTree`] or a [`WorldView`].
///
/// This is what every `mpn-core` engine entry point consumes (`impl Into<IndexView>`): a
/// plain `&RTree` converts with no overlay, a `&WorldView` carries its overlay and logical
/// generation.  All query results are identical to a from-scratch tree built over the same
/// final POI set (ids included) — the overlay is an implementation detail of mutation, not a
/// semantic change.
#[derive(Debug, Clone, Copy)]
pub struct IndexView<'a> {
    base: &'a RTree,
    overlay: Option<&'a Overlay>,
    generation: u64,
    /// Optional shared result cache consulted by the query methods (see
    /// [`with_cache`](IndexView::with_cache)).
    cache: Option<&'a QueryCache>,
}

impl<'a> From<&'a RTree> for IndexView<'a> {
    fn from(tree: &'a RTree) -> Self {
        Self { base: tree, overlay: None, generation: tree.generation(), cache: None }
    }
}

impl<'a> From<&'a Arc<RTree>> for IndexView<'a> {
    fn from(tree: &'a Arc<RTree>) -> Self {
        Self::from(tree.as_ref())
    }
}

impl<'a> From<&'a WorldView> for IndexView<'a> {
    fn from(world: &'a WorldView) -> Self {
        world.view()
    }
}

impl<'a> IndexView<'a> {
    /// Number of live POIs in the view.
    #[must_use]
    pub fn len(&self) -> usize {
        match self.overlay {
            None => self.base.len(),
            Some(o) => self.base.len() - o.deletes.len() + o.inserts.len(),
        }
    }

    /// Whether the view holds no POIs.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The logical generation of the content served by this view (the plain tree's stamp, or
    /// the world's logical stamp).  Caches keyed on this value (the §5.4 GNN buffer, the
    /// shared [`QueryCache`]) detect any content change exactly.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Attaches a shared [`QueryCache`]: the three query methods first look their key up at
    /// this view's generation and insert on a miss.  Results (and [`QueryStats`]) are
    /// bit-identical with and without the cache — a hit replays what the same query computed
    /// earlier at the same generation — so attaching a cache is purely a performance choice.
    #[must_use]
    pub fn with_cache(mut self, cache: &'a QueryCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The attached shared result cache, if any.
    #[must_use]
    pub fn cache(&self) -> Option<&'a QueryCache> {
        self.cache
    }

    fn deleted(&self, id: usize) -> bool {
        self.overlay.is_some_and(|o| o.deletes.contains(&id))
    }

    fn inserts(&self) -> &'a [PoiEntry] {
        self.overlay.map_or(&[], |o| o.inserts.as_slice())
    }

    /// Iterates over every live entry (in unspecified order).
    pub fn iter(&self) -> impl Iterator<Item = PoiEntry> + 'a {
        let view = *self;
        self.base.iter().filter(move |e| !view.deleted(e.id)).chain(self.inserts().iter().copied())
    }

    /// The `k` best meeting points under `aggregate`, in increasing aggregate distance (ties
    /// in ascending id), plus traversal statistics — the overlay-aware `FindMaxGNN` /
    /// `FindSumGNN`.
    ///
    /// Deleting `d` base entries can promote at most `d` runners-up into the top-k, so the
    /// base is searched for `k + d` neighbours, deleted ids are dropped, and the overlay
    /// inserts (scored exactly, counted in `points_examined`) are merged in.
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
        let mut out = Vec::new();
        let stats = self.top_k_into(users, aggregate, k, &mut out);
        (out, stats)
    }

    /// [`top_k`](IndexView::top_k) into a caller-provided buffer (cleared first).  With a
    /// reused buffer and a warm cache the whole lookup — probe key, hit check, result copy —
    /// performs zero heap allocations; results and stats are bit-identical to
    /// [`top_k`](IndexView::top_k).
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
        assert!(!users.is_empty(), "GNN search requires at least one user");
        let Some(cache) = self.cache else {
            return self.top_k_uncached_into(users, aggregate, k, out);
        };
        with_scratch(|scratch| {
            let probe = cache.top_k_probe(self.generation, users, aggregate, k, &mut scratch.probe);
            if let Some(stats) = cache.get_neighbors_into(probe, out) {
                return stats;
            }
            let stats = self.top_k_uncached_into(users, aggregate, k, out);
            cache.put_neighbors(probe, out, stats);
            stats
        })
    }

    /// The best and second-best meeting points under `aggregate` — the Circle-MSR fast path
    /// (Algorithm 1 line 1 needs exactly the top-2).  Cache key, lookup counters and stats
    /// are identical to `top_k(users, aggregate, 2)`, but a warm-cache call allocates
    /// nothing: the probe key and the miss-path staging live in the per-worker
    /// [`QueryScratch`](crate::QueryScratch), and a hit copies out two `GnnNeighbor`s
    /// instead of cloning the payload vector.
    ///
    /// # Panics
    /// Panics when `users` is empty.
    #[must_use]
    pub fn top2(
        &self,
        users: &[Point],
        aggregate: Aggregate,
    ) -> (Option<GnnNeighbor>, Option<GnnNeighbor>, QueryStats) {
        assert!(!users.is_empty(), "GNN search requires at least one user");
        with_scratch(|scratch| {
            let Some(cache) = self.cache else {
                let stats = self.top_k_uncached_into(users, aggregate, 2, &mut scratch.neighbors);
                return (
                    scratch.neighbors.first().copied(),
                    scratch.neighbors.get(1).copied(),
                    stats,
                );
            };
            let probe = cache.top_k_probe(self.generation, users, aggregate, 2, &mut scratch.probe);
            if let Some(hit) = cache.get_top2(probe) {
                return hit;
            }
            let stats = self.top_k_uncached_into(users, aggregate, 2, &mut scratch.neighbors);
            cache.put_neighbors(probe, &scratch.neighbors, stats);
            (scratch.neighbors.first().copied(), scratch.neighbors.get(1).copied(), stats)
        })
    }

    fn top_k_uncached_into(
        &self,
        users: &[Point],
        aggregate: Aggregate,
        k: usize,
        out: &mut Vec<GnnNeighbor>,
    ) -> QueryStats {
        let Some(overlay) = self.overlay else {
            return GnnSearch::new(self.base, users, aggregate).top_k_into(k, out);
        };
        let mut stats =
            GnnSearch::new(self.base, users, aggregate).top_k_into(k + overlay.deletes.len(), out);
        out.retain(|n| !overlay.deletes.contains(&n.entry.id));
        stats.points_examined += overlay.inserts.len();
        out.extend(
            overlay
                .inserts
                .iter()
                .map(|e| GnnNeighbor { entry: *e, dist: aggregate.point_dist(e.location, users) }),
        );
        // Stable, and every insert id exceeds every base id: ascending `(dist, id)` again.
        out.sort_by(|a, b| a.dist.total_cmp(&b.dist));
        out.truncate(k);
        stats
    }

    /// Candidate POIs for the MAX objective: every live POI within `radii[i]` of every user
    /// `i` (Theorem 3 pruning on the base, exact filtering of the overlay).
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

    /// [`candidates_within_user_radii`](IndexView::candidates_within_user_radii) into a
    /// caller-provided buffer (cleared first); allocation-free with a reused buffer and a
    /// warm cache.
    pub fn candidates_within_user_radii_into(
        &self,
        users: &[Point],
        radii: &[f64],
        out: &mut Vec<PoiEntry>,
    ) -> QueryStats {
        let Some(cache) = self.cache else {
            return self.candidates_within_user_radii_uncached_into(users, radii, out);
        };
        with_scratch(|scratch| {
            let probe = cache.user_radii_probe(self.generation, users, radii, &mut scratch.probe);
            if let Some(stats) = cache.get_entries_into(probe, out) {
                return stats;
            }
            let stats = self.candidates_within_user_radii_uncached_into(users, radii, out);
            cache.put_entries(probe, out, stats);
            stats
        })
    }

    fn candidates_within_user_radii_uncached_into(
        &self,
        users: &[Point],
        radii: &[f64],
        out: &mut Vec<PoiEntry>,
    ) -> QueryStats {
        let mut stats = self.base.candidates_within_user_radii_into(users, radii, out);
        if let Some(overlay) = self.overlay {
            out.retain(|e| !overlay.deletes.contains(&e.id));
            stats.points_examined += overlay.inserts.len();
            out.extend(
                overlay
                    .inserts
                    .iter()
                    .copied()
                    .filter(|e| users.iter().zip(radii).all(|(u, r)| e.location.dist(*u) <= *r)),
            );
        }
        stats
    }

    /// Candidate POIs for the SUM objective: every live POI whose summed user distance is at
    /// most `threshold` (Theorem 6 pruning on the base, exact filtering of the overlay).
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

    /// [`candidates_within_sum_radius`](IndexView::candidates_within_sum_radius) into a
    /// caller-provided buffer (cleared first); allocation-free with a reused buffer and a
    /// warm cache.
    pub fn candidates_within_sum_radius_into(
        &self,
        users: &[Point],
        threshold: f64,
        out: &mut Vec<PoiEntry>,
    ) -> QueryStats {
        let Some(cache) = self.cache else {
            return self.candidates_within_sum_radius_uncached_into(users, threshold, out);
        };
        with_scratch(|scratch| {
            let probe =
                cache.sum_radius_probe(self.generation, users, threshold, &mut scratch.probe);
            if let Some(stats) = cache.get_entries_into(probe, out) {
                return stats;
            }
            let stats = self.candidates_within_sum_radius_uncached_into(users, threshold, out);
            cache.put_entries(probe, out, stats);
            stats
        })
    }

    fn candidates_within_sum_radius_uncached_into(
        &self,
        users: &[Point],
        threshold: f64,
        out: &mut Vec<PoiEntry>,
    ) -> QueryStats {
        let mut stats = self.base.candidates_within_sum_radius_into(users, threshold, out);
        if let Some(overlay) = self.overlay {
            out.retain(|e| !overlay.deletes.contains(&e.id));
            stats.points_examined += overlay.inserts.len();
            out.extend(
                overlay.inserts.iter().copied().filter(|e| {
                    users.iter().map(|u| e.location.dist(*u)).sum::<f64>() <= threshold
                }),
            );
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gnn::brute_force_gnn;

    fn grid_points(n: usize) -> Vec<Point> {
        let side = (n as f64).sqrt().ceil() as usize;
        (0..n).map(|i| Point::new((i % side) as f64, (i / side) as f64)).collect()
    }

    /// The from-scratch oracle: a plain tree over the world's current live entries.
    fn rebuilt(world: &WorldView) -> RTree {
        let entries: Vec<PoiEntry> = world.view().iter().collect();
        RTree::bulk_load_entries(entries, world.base().config())
    }

    fn churned_world() -> WorldView {
        let mut world = WorldView::new(RTree::bulk_load(&grid_points(100)));
        for i in (0..30).step_by(3) {
            world.delete(i);
        }
        for i in 0..12 {
            world.insert(Point::new(2.5 + i as f64 * 0.7, 3.1 + i as f64 * 0.4));
        }
        world.delete(world.len()); // unknown id: no-op
        world
    }

    #[test]
    fn fresh_world_matches_its_base_exactly() {
        let tree = Arc::new(RTree::bulk_load(&grid_points(64)));
        let world = WorldView::new(Arc::clone(&tree));
        assert_eq!(world.len(), 64);
        assert_eq!(world.generation(), tree.generation());
        let view = world.view();
        assert_eq!(view.len(), 64);
        assert_eq!(view.generation(), tree.generation());
        let users = [Point::new(3.0, 3.0), Point::new(5.0, 2.0)];
        let (a, sa) = view.top_k(&users, Aggregate::Max, 5);
        let (b, sb) = GnnSearch::new(&tree, &users, Aggregate::Max).top_k(5);
        assert_eq!(sa, sb, "an empty overlay adds no work");
        assert_eq!(
            a.iter().map(|n| n.entry.id).collect::<Vec<_>>(),
            b.iter().map(|n| n.entry.id).collect::<Vec<_>>()
        );
    }

    #[test]
    fn insert_and_delete_mutate_content_and_generation() {
        let mut world = WorldView::new(RTree::bulk_load(&grid_points(16)));
        let g0 = world.generation();
        let id = world.insert(Point::new(100.0, 100.0));
        assert_eq!(id, 16, "inserts continue the base numbering");
        assert_eq!(world.len(), 17);
        assert_ne!(world.generation(), g0);

        // Deleting the overlay insert removes it from the insert log, not the delete set.
        let g1 = world.generation();
        assert_eq!(world.delete(id), Some(Point::new(100.0, 100.0)));
        assert_eq!(world.len(), 16);
        assert_eq!(world.overlay_len(), 0);
        assert_ne!(world.generation(), g1);

        // Deleting a base id marks it; double-deletes and unknown ids are rejected.
        assert!(world.delete(3).is_some());
        assert_eq!(world.delete(3), None);
        assert_eq!(world.delete(999), None);
        assert_eq!(world.len(), 15);
        let ids: Vec<usize> = world.view().iter().map(|e| e.id).collect();
        assert!(!ids.contains(&3));
    }

    #[test]
    fn overlay_queries_match_a_from_scratch_tree() {
        let world = churned_world();
        let oracle = rebuilt(&world);
        let view = world.view();
        assert_eq!(view.len(), oracle.len());

        let mut got: Vec<usize> = view.iter().map(|e| e.id).collect();
        let mut want: Vec<usize> = oracle.iter().map(|e| e.id).collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);

        let users = [Point::new(4.0, 4.0), Point::new(7.0, 2.0), Point::new(3.0, 8.0)];
        for aggregate in [Aggregate::Max, Aggregate::Sum] {
            let (got, _) = view.top_k(&users, aggregate, 7);
            let pool: Vec<Point> = oracle.iter().map(|e| e.location).collect();
            let want = brute_force_gnn(&pool, &users, aggregate, 7);
            assert_eq!(got.len(), 7);
            for (g, w) in got.iter().zip(&want) {
                assert!((g.dist - w.dist).abs() < 1e-9, "{aggregate:?} ranking diverged");
            }
        }

        let radii = [6.0, 7.0, 9.0];
        let (got, _) = view.candidates_within_user_radii(&users, &radii);
        let (want, _) = oracle.candidates_within_user_radii(&users, &radii);
        let mut got: Vec<usize> = got.iter().map(|e| e.id).collect();
        let mut want: Vec<usize> = want.iter().map(|e| e.id).collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);

        let (got, _) = view.candidates_within_sum_radius(&users, 22.0);
        let (want, _) = oracle.candidates_within_sum_radius(&users, 22.0);
        let mut got: Vec<usize> = got.iter().map(|e| e.id).collect();
        let mut want: Vec<usize> = want.iter().map(|e| e.id).collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn compaction_preserves_content_ids_and_logical_generation() {
        let mut world = churned_world().with_compaction_threshold(4);
        let generation = world.generation();
        let mut before: Vec<usize> = world.view().iter().map(|e| e.id).collect();
        before.sort_unstable();

        assert!(world.maybe_compact(), "the overlay is past the threshold");
        assert_eq!(world.compactions(), 1);
        assert_eq!(world.overlay_len(), 0);
        assert_eq!(world.generation(), generation, "compaction does not change content");
        let mut after: Vec<usize> = world.view().iter().map(|e| e.id).collect();
        after.sort_unstable();
        assert_eq!(before, after, "compaction preserves ids");
        assert!(!world.maybe_compact(), "an empty overlay never compacts");

        // Fresh ids keep advancing past compaction (no id reuse).
        let id = world.insert(Point::ORIGIN);
        assert!(before.iter().all(|&existing| existing != id));
    }

    #[test]
    fn below_threshold_no_compaction_runs() {
        let mut world = WorldView::new(RTree::bulk_load(&grid_points(25)));
        world.insert(Point::new(9.0, 9.0));
        assert!(!world.maybe_compact());
        assert_eq!(world.compactions(), 0);
        assert_eq!(world.overlay_len(), 1);
    }
}
