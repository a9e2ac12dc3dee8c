//! The buffering optimisation for index access (Section 5.4 and Theorem 7).
//!
//! Computing tile-based safe regions calls the verification routine many times, and each call
//! would otherwise query the R-tree for candidate points.  The buffering optimisation fetches
//! the best `b + 1` group nearest neighbours **once**, derives a ladder of distance thresholds
//! `β₁ ≤ β₂ ≤ … ≤ β_b` (Definition 6 / Theorem 7), and afterwards verifies each tile only
//! against the prefix of buffered points allowed by the smallest threshold that covers the
//! current extent of the safe regions (Algorithm 5).

use mpn_geom::Point;
use mpn_index::{IndexView, PoiEntry, QueryStats};

use crate::Objective;

/// The buffered GNN prefix and its threshold ladder.  The ladder is non-decreasing, so whether
/// a slot covers a distance, and whether a candidate is in its prefix, are one comparison each.
#[derive(Debug, Clone)]
pub struct BufferSet {
    /// The best `b + 1` meeting points in increasing aggregate distance (`entries[0]` = `pᵒ`).
    entries: Vec<PoiEntry>,
    /// `thresholds[z - 1] = β_z` for `z = 1 … b` (non-decreasing).
    thresholds: Vec<f64>,
    /// R-tree statistics of the single GNN query used to build the buffer.
    pub stats: QueryStats,
}

impl BufferSet {
    /// Builds the buffer by retrieving the best `b + 1` GNNs of the group (one R-tree query).
    ///
    /// # Panics
    /// Panics if the view or the user group is empty.
    #[must_use]
    pub fn build<'a>(
        tree: impl Into<IndexView<'a>>,
        users: &[Point],
        objective: Objective,
        b: usize,
    ) -> Self {
        let view = tree.into();
        assert!(!view.is_empty() && !users.is_empty(), "buffer needs data and users");
        let b = b.max(1);
        let (neighbors, stats) = view.top_k(users, objective.aggregate(), b + 1);
        let best = neighbors[0].dist;
        let denom = match objective {
            Objective::Max => 2.0,
            Objective::Sum => 2.0 * users.len() as f64,
        };
        let thresholds: Vec<f64> =
            neighbors.iter().skip(1).map(|n| ((n.dist - best) / denom).max(0.0)).collect();
        let entries = neighbors.into_iter().map(|n| n.entry).collect();
        Self { entries, thresholds, stats }
    }

    /// Number of usable threshold slots (`b`, or fewer when the data set is small).
    #[must_use]
    pub fn slots(&self) -> usize {
        self.thresholds.len()
    }

    /// Smallest slot `z` whose threshold `β_z` is at least `dist` (Algorithm 5, line 2).
    ///
    /// Returns `None` when even `β_b` is too small, in which case the tile violates the
    /// buffering condition of Theorem 4 / Theorem 7 and must be rejected.
    #[must_use]
    pub fn slot_for(&self, dist: f64) -> Option<usize> {
        let idx = self.thresholds.partition_point(|beta| *beta < dist);
        (idx < self.thresholds.len()).then_some(idx + 1)
    }

    /// Whether some slot covers `dist`, i.e. `β_b ≥ dist`: [`slot_for`](Self::slot_for) without
    /// the search.
    #[must_use]
    pub fn covers(&self, dist: f64) -> bool {
        self.thresholds.last().is_some_and(|beta| *beta >= dist)
    }

    /// Whether candidate `k` (its position in [`candidates`](Self::candidates)) is in the prefix
    /// of the slot covering `dist`: `β_{k+1} < dist`, because that prefix holds one candidate
    /// per threshold below `dist`.
    #[must_use]
    pub fn in_prefix(&self, k: usize, dist: f64) -> bool {
        self.thresholds.get(k).is_some_and(|beta| *beta < dist)
    }

    /// The candidate points to verify against for slot `z`: the buffered prefix `P*₁..z`
    /// minus the optimum itself.
    #[must_use]
    pub fn candidates(&self, slot: usize) -> &[PoiEntry] {
        let end = slot.min(self.entries.len().saturating_sub(1)).max(1);
        &self.entries[1..end]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpn_geom::{max_dist_to_set, sum_dist_to_set};
    use mpn_index::RTree;

    fn world() -> (RTree, Vec<Point>) {
        let pois: Vec<Point> =
            (0..20).map(|i| Point::new(f64::from(i % 5) * 3.0, f64::from(i / 5) * 3.0)).collect();
        let users = vec![Point::new(1.0, 1.0), Point::new(4.0, 2.0), Point::new(2.0, 5.0)];
        (RTree::bulk_load(&pois), users)
    }

    #[test]
    fn thresholds_are_nondecreasing_and_match_the_definition() {
        let (tree, users) = world();
        let buf = BufferSet::build(&tree, &users, Objective::Max, 10);
        assert_eq!(buf.slots(), 10);
        for w in buf.thresholds.windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
        // β_z = (‖p_{z+1}, U‖max − ‖pᵒ, U‖max) / 2 against a brute-force ranking.
        let mut dists: Vec<f64> =
            tree.iter().map(|e| max_dist_to_set(e.location, &users)).collect();
        dists.sort_by(f64::total_cmp);
        for z in 1..=5 {
            let expected = (dists[z] - dists[0]) / 2.0;
            assert!((buf.thresholds[z - 1] - expected).abs() < 1e-9);
        }
    }

    #[test]
    fn sum_thresholds_divide_by_group_size() {
        let (tree, users) = world();
        let max_buf = BufferSet::build(&tree, &users, Objective::Max, 5);
        let sum_buf = BufferSet::build(&tree, &users, Objective::Sum, 5);
        // The SUM ladder uses 2m in the denominator, the MAX one 2, over the same ranking.
        let m = users.len() as f64;
        for (max, sum) in max_buf.thresholds.iter().zip(&sum_buf.thresholds) {
            assert!(*max >= 0.0 && *sum >= 0.0);
        }
        assert_eq!(sum_buf.slots(), max_buf.slots());
        let sum_best = sum_dist_to_set(sum_buf.entries[0].location, &users);
        let sum_next = sum_dist_to_set(sum_buf.entries[1].location, &users);
        assert!((sum_buf.thresholds[0] - (sum_next - sum_best) / (2.0 * m)).abs() < 1e-9);
    }

    #[test]
    fn slot_lookup_is_the_minimal_covering_slot() {
        let (tree, users) = world();
        let buf = BufferSet::build(&tree, &users, Objective::Max, 10);
        // A zero distance is always covered by the first slot with a positive threshold.
        let z0 = buf.slot_for(0.0).unwrap();
        assert!(buf.thresholds[z0 - 1] >= 0.0);
        // A distance just below β_b maps to a slot whose threshold covers it.
        let beta = *buf.thresholds.last().expect("a non-empty ladder");
        let d = beta * 0.99;
        let z = buf.slot_for(d).unwrap();
        assert!(buf.thresholds[z - 1] >= d);
        if z >= 2 {
            assert!(buf.thresholds[z - 2] < d);
        }
        // Distances beyond β_b are rejected.
        assert!(buf.slot_for(beta + 1.0).is_none());
    }

    #[test]
    fn candidates_are_a_prefix_without_the_optimum() {
        let (tree, users) = world();
        let buf = BufferSet::build(&tree, &users, Objective::Max, 8);
        let optimal = tree
            .iter()
            .min_by(|a, b| {
                max_dist_to_set(a.location, &users).total_cmp(&max_dist_to_set(b.location, &users))
            })
            .expect("a POI");
        for z in 1..=buf.slots() {
            let cands = buf.candidates(z);
            assert_eq!(cands.len(), z - 1, "the prefix before slot {z}");
            assert!(cands.iter().all(|c| c.id != optimal.id));
            assert_eq!(cands, &buf.candidates(buf.slots())[..cands.len()], "a prefix");
        }
    }

    #[test]
    fn small_data_sets_shrink_the_ladder() {
        let pois = vec![Point::new(0.0, 0.0), Point::new(5.0, 0.0), Point::new(9.0, 3.0)];
        let tree = RTree::bulk_load(&pois);
        let users = vec![Point::new(1.0, 0.0)];
        let buf = BufferSet::build(&tree, &users, Objective::Max, 100);
        assert_eq!(buf.slots(), 2);
        assert_eq!(buf.candidates(buf.slots()).len(), 1);
        assert!(buf.slot_for(f64::INFINITY).is_none());
    }
}
