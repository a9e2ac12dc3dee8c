//! A mutable POI world: one immutable R-tree per world state.
//!
//! The safe-region machinery queries an immutable [`RTree`].  [`WorldView`] makes the POI
//! set mutable without a second query path: every applied insert or delete edits the tree's
//! own entry array (one push or one `swap_remove`) and bulk loads that same array again, so
//! the world is always one tree and every query reads it directly.  The rebuilt tree carries
//! a fresh process-unique [`RTree::generation`], and that stamp is the world's: every applied
//! change raises it, and `Response::WorldUpdate` ships it.
//!
//! This rests on what a change costs against how often one comes: one bulk load (≈ 3.6 ms at
//! the paper's 21,287 POIs), while the one writer the repository benchmark knows makes about
//! one change a second.  The tree is edited through [`Arc::make_mut`]: the world holds the
//! only handle once the server owns it, so nothing is copied, and the STR pass sorts in place,
//! so a change allocates only the new node arrays.
//!
//! Queries go through [`IndexView`], a borrowed tree.  Every engine entry point in `mpn-core`
//! accepts `impl Into<IndexView>`, so a `&RTree`, a `&Arc<RTree>` and a `&WorldView` all
//! serve.

use std::sync::Arc;

use mpn_geom::Point;

use crate::rtree::{PoiEntry, RTree};

/// A mutable POI world: the current [`RTree`] plus the id numbering its inserts continue.
#[derive(Debug, Clone)]
pub struct WorldView {
    tree: Arc<RTree>,
    /// The next insert's id.  Kept here because a bulk load recomputes the tree's own from
    /// the ids it holds: once the highest id is deleted, that would hand it out again.
    next_id: usize,
}

impl WorldView {
    /// Creates a world over the given tree.
    #[must_use]
    pub fn new(tree: impl Into<Arc<RTree>>) -> Self {
        let tree = tree.into();
        let next_id = tree.next_id();
        Self { tree, next_id }
    }

    /// The current world state as a query view.
    #[must_use]
    pub fn view(&self) -> IndexView<'_> {
        &self.tree
    }

    /// Number of live POIs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// Whether the world holds no POIs.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// The current tree's process-unique stamp: every applied
    /// [`insert`](WorldView::insert) and [`delete`](WorldView::delete) builds a new tree, so
    /// it strictly increases with each change.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.tree.generation()
    }

    /// Benchmark-only shim, always 0 (`benchmark/src/serve.rs`; ROADMAP item 1(h)).
    pub fn overlay_len(&self) -> usize {
        0
    }

    /// Benchmark-only shim, always 0 (`benchmark/src/serve.rs`; ROADMAP item 1(h)).
    pub fn compactions(&self) -> usize {
        0
    }

    /// Adds a POI at `location` and rebuilds the tree; returns its fresh id (never a reused
    /// one).
    pub fn insert(&mut self, location: Point) -> usize {
        let id = self.next_id;
        self.next_id += 1;
        Arc::make_mut(&mut self.tree).rebuild(|entries| entries.push(PoiEntry::new(id, location)));
        id
    }

    /// Removes the POI with the given id and rebuilds the tree.  Returns its location when it
    /// was live; an unknown or already-deleted id touches nothing and returns `None`.
    pub fn delete(&mut self, poi: usize) -> Option<Point> {
        let at = self.tree.iter().position(|e| e.id == poi)?;
        Some(Arc::make_mut(&mut self.tree).rebuild(|entries| entries.swap_remove(at).location))
    }
}

impl From<Arc<RTree>> for WorldView {
    fn from(tree: Arc<RTree>) -> Self {
        Self::new(tree)
    }
}

impl From<RTree> for WorldView {
    fn from(tree: RTree) -> Self {
        Self::new(tree)
    }
}

/// The `Copy` query handle every `mpn-core` engine entry point consumes
/// (`impl Into<IndexView>`): a borrowed [`RTree`], taken from a plain tree, an
/// `Arc`-shared one or a [`WorldView`].
pub type IndexView<'a> = &'a RTree;

impl<'a> From<&'a Arc<RTree>> for IndexView<'a> {
    fn from(tree: &'a Arc<RTree>) -> Self {
        tree
    }
}

impl<'a> From<&'a WorldView> for IndexView<'a> {
    fn from(world: &'a WorldView) -> Self {
        world.view()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_points(n: usize) -> Vec<Point> {
        let side = (n as f64).sqrt().ceil() as usize;
        (0..n).map(|i| Point::new((i % side) as f64, (i / side) as f64)).collect()
    }

    #[test]
    fn fresh_world_matches_its_base_exactly() {
        let tree = Arc::new(RTree::bulk_load(&grid_points(64)));
        let world = WorldView::new(Arc::clone(&tree));
        assert_eq!(world.len(), 64);
        assert_eq!(world.generation(), tree.generation());
        assert!(std::ptr::eq(world.view(), &*tree), "a fresh world is its tree, not a copy");
    }

    #[test]
    fn insert_and_delete_mutate_content_and_generation() {
        let mut world = WorldView::new(RTree::bulk_load(&grid_points(16)));
        let g0 = world.generation();
        let id = world.insert(Point::new(100.0, 100.0));
        assert_eq!(id, 16, "inserts continue the base numbering");
        assert_eq!(world.len(), 17);
        assert!(world.generation() > g0);

        let g1 = world.generation();
        assert_eq!(world.delete(id), Some(Point::new(100.0, 100.0)));
        assert_eq!(world.len(), 16);
        assert!(world.generation() > g1);
        assert_eq!(world.insert(Point::ORIGIN), 17, "a deleted highest id is not handed out");

        // Double deletes and unknown ids are refused and touch nothing.
        assert!(world.delete(3).is_some());
        let g2 = world.generation();
        assert_eq!(world.delete(3), None);
        assert_eq!(world.delete(999), None);
        assert_eq!(world.generation(), g2);
        assert_eq!(world.len(), 16);
        assert!(!world.view().iter().any(|e| e.id == 3));
    }
}
