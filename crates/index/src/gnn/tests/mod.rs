//! Unit tests of the GNN search, out of line because they outweigh the module: the kernels
//! against the scalar aggregates, and the k-bounded traversal against brute force and against
//! the best-first traversal it replaced (kept here, and only here, as a reference).

use super::*;
use crate::rtree::RTreeConfig;
use crate::world::WorldView;
use proptest::prelude::*;

fn clustered_points(n: usize) -> Vec<Point> {
    // Deterministic pseudo-random layout (no external RNG needed for unit tests).
    let mut state = 0x9e3779b97f4a7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n).map(|_| Point::new(next() * 100.0, next() * 100.0)).collect()
}

#[test]
fn aggregate_point_dist() {
    let users = [Point::new(0.0, 0.0), Point::new(6.0, 8.0)];
    let p = Point::new(0.0, 0.0);
    assert!((Aggregate::Max.point_dist(p, &users) - 10.0).abs() < 1e-12);
    assert!((Aggregate::Sum.point_dist(p, &users) - 10.0).abs() < 1e-12);
    let q = Point::new(3.0, 4.0);
    assert!((Aggregate::Max.point_dist(q, &users) - 5.0).abs() < 1e-12);
    assert!((Aggregate::Sum.point_dist(q, &users) - 10.0).abs() < 1e-12);
}

#[test]
fn rect_lower_bound_is_admissible() {
    let users = [Point::new(0.0, 0.0), Point::new(20.0, 0.0), Point::new(10.0, 15.0)];
    let rect = Rect::new(Point::new(8.0, 2.0), Point::new(12.0, 6.0));
    for agg in [Aggregate::Max, Aggregate::Sum] {
        let lb = agg.rect_lower_bound(&rect, &users);
        // Sample points inside the rectangle; none may beat the lower bound.
        for i in 0..=10 {
            for j in 0..=10 {
                let p = Point::new(
                    rect.lo.x + rect.width() * f64::from(i) / 10.0,
                    rect.lo.y + rect.height() * f64::from(j) / 10.0,
                );
                assert!(agg.point_dist(p, &users) + 1e-9 >= lb);
            }
        }
    }
}

#[test]
fn max_gnn_matches_brute_force() {
    let pts = clustered_points(600);
    let tree = RTree::bulk_load(&pts);
    let users = [Point::new(30.0, 40.0), Point::new(50.0, 45.0), Point::new(35.0, 60.0)];
    let (got, stats) = GnnSearch::new(&tree, &users, Aggregate::Max).top_k(8);
    let want = brute_force_gnn(&pts, &users, Aggregate::Max, 8);
    assert_eq!(got.len(), 8);
    for (g, w) in got.iter().zip(&want) {
        assert!((g.dist - w.dist).abs() < 1e-9);
    }
    assert!(stats.points_examined <= pts.len());
}

#[test]
fn sum_gnn_matches_brute_force() {
    let pts = clustered_points(600);
    let tree = RTree::bulk_load(&pts);
    let users = [Point::new(80.0, 20.0), Point::new(70.0, 35.0)];
    let (got, _) = GnnSearch::new(&tree, &users, Aggregate::Sum).top_k(5);
    let want = brute_force_gnn(&pts, &users, Aggregate::Sum, 5);
    for (g, w) in got.iter().zip(&want) {
        assert!((g.dist - w.dist).abs() < 1e-9);
    }
}

#[test]
fn results_are_sorted_and_incremental() {
    let pts = clustered_points(300);
    let tree = RTree::bulk_load(&pts);
    let users = [Point::new(10.0, 90.0), Point::new(15.0, 80.0), Point::new(5.0, 85.0)];
    for agg in [Aggregate::Max, Aggregate::Sum] {
        let (top10, _) = GnnSearch::new(&tree, &users, agg).top_k(10);
        for w in top10.windows(2) {
            assert!(w[0].dist <= w[1].dist + 1e-12);
        }
        // top-1 is a prefix of top-10.
        let best = GnnSearch::new(&tree, &users, agg).best().unwrap();
        assert!((best.dist - top10[0].dist).abs() < 1e-12);
    }
}

#[test]
fn single_user_gnn_reduces_to_nearest_neighbor() {
    let pts = clustered_points(200);
    let tree = RTree::bulk_load(&pts);
    let user = [Point::new(42.0, 17.0)];
    let (nn, d) =
        pts.iter().map(|p| p.dist(user[0])).enumerate().min_by(|a, b| a.1.total_cmp(&b.1)).unwrap();
    for agg in [Aggregate::Max, Aggregate::Sum] {
        let best = GnnSearch::new(&tree, &user, agg).best().unwrap();
        assert_eq!((best.entry.id, best.dist), (nn, d));
    }
}

#[test]
fn k_larger_than_data_returns_everything() {
    let pts = clustered_points(25);
    let tree = RTree::bulk_load(&pts);
    let users = [Point::new(0.0, 0.0), Point::new(100.0, 100.0)];
    let (got, _) = GnnSearch::new(&tree, &users, Aggregate::Sum).top_k(100);
    assert_eq!(got.len(), 25);
}

#[test]
fn empty_tree_returns_no_results() {
    let tree = RTree::bulk_load(&[]);
    let users = [Point::new(0.0, 0.0)];
    assert!(GnnSearch::new(&tree, &users, Aggregate::Max).best().is_none());
}

#[test]
#[should_panic(expected = "at least one user")]
fn empty_user_group_panics() {
    let tree = RTree::bulk_load(&[Point::ORIGIN]);
    let _ = GnnSearch::new(&tree, &[], Aggregate::Max);
}

#[test]
fn aggregate_names() {
    assert_eq!(Aggregate::Max.name(), "max");
    assert_eq!(Aggregate::Sum.name(), "sum");
}

#[test]
fn kernels_match_the_scalar_aggregates_bit_for_bit() {
    let coords = clustered_points(10_000 + 6);
    let users = &coords[10_000..];
    let rect_at = |i: usize| {
        let (a, b) = (coords[i], coords[(i * 7 + 1) % 10_000]);
        match i % 5 {
            0 => Rect::from_point(a), // zero area
            1 => Rect::new(users[i % 6] - a * 0.01, users[i % 6] + b * 0.01), // holds a user
            2 => Rect::new(a, Point::new(b.x, a.y)), // zero height
            _ => Rect::new(a, b),
        }
    };
    let mut checked = 0;
    for m in 1..=users.len() {
        let users = &users[..m];
        // Batch widths 1..=LANES, cycling, so partial batches are covered too.
        let mut at = 0;
        for width in (1..=LANES).cycle() {
            if at + width > 10_000 {
                break;
            }
            let entries: Vec<PoiEntry> =
                (at..at + width).map(|i| PoiEntry::new(i, coords[i])).collect();
            let nodes: Vec<Node> =
                (at..at + width).map(|i| Node { mbr: rect_at(i), start: 0, end: 0 }).collect();
            for agg in [Aggregate::Max, Aggregate::Sum] {
                for (e, got) in entries.iter().zip(point_dists(agg, users, &entries)) {
                    let want = match agg {
                        Aggregate::Max => max_dist_to_set(e.location, users),
                        Aggregate::Sum => sum_dist_to_set(e.location, users),
                    };
                    assert_eq!(got.to_bits(), want.to_bits(), "{agg:?} point {e:?}");
                }
                for (n, got) in nodes.iter().zip(rect_lower_bounds(agg, users, &nodes)) {
                    let want = agg.rect_lower_bound(&n.mbr, users);
                    assert_eq!(got.to_bits(), want.to_bits(), "{agg:?} rect {:?}", n.mbr);
                    checked += 1;
                }
            }
            at += width;
        }
    }
    assert!(checked > 100_000);
    // A user on a zero-area rectangle, and the empty rectangle of an empty node.
    let on = [Node { mbr: Rect::from_point(users[0]), start: 0, end: 0 }];
    let empty = [Node { mbr: Rect::EMPTY, start: 0, end: 0 }];
    for agg in [Aggregate::Max, Aggregate::Sum] {
        assert_eq!(rect_lower_bounds(agg, &users[..1], &on)[0], 0.0);
        assert_eq!(rect_lower_bounds(agg, users, &empty)[0], f64::INFINITY);
    }
}

/// The traversal this module shipped until the k-bounded search replaced it — the
/// incremental best-first of Hjaltason & Samet: one heap of nodes *and* points, every
/// point of every opened leaf pushed, results popped in order.  Kept only as the
/// reference of `bounded_gnn_matches_the_retired_best_first`.  The flag reports whether
/// another heap key equalled the k-th distance, the one case where which nodes it opens
/// depends on `BinaryHeap`'s sift order.
fn retired_best_first(
    tree: &RTree,
    users: &[Point],
    aggregate: Aggregate,
    k: usize,
) -> (Vec<GnnNeighbor>, QueryStats, bool) {
    enum Item<'a> {
        Node(usize, &'a Node),
        Entry(PoiEntry),
    }
    let (mut out, mut stats, mut keys) = (Vec::new(), QueryStats::default(), Vec::new());
    let mut heap = BinaryHeap::new();
    let mut push = |heap: &mut BinaryHeap<_>, key: f64, item| {
        keys.push(key);
        heap.push(Ranked { key, item });
    };
    if let Some((level, root)) = tree.root().filter(|_| k > 0) {
        push(&mut heap, aggregate.rect_lower_bound(&root.mbr, users), Item::Node(level, root));
    }
    while let Some(Ranked { key, item }) = heap.pop() {
        match item {
            Item::Node(level, node) => {
                stats.nodes_visited += 1;
                if level == 0 {
                    for e in tree.leaf_entries(node) {
                        stats.points_examined += 1;
                        let d = aggregate.point_dist(e.location, users);
                        push(&mut heap, d, Item::Entry(*e));
                    }
                } else {
                    for c in &tree.level(level - 1)[node.children()] {
                        let lb = aggregate.rect_lower_bound(&c.mbr, users);
                        push(&mut heap, lb, Item::Node(level - 1, c));
                    }
                }
            }
            Item::Entry(entry) => {
                out.push(GnnNeighbor { entry, dist: key });
                if out.len() == k {
                    break;
                }
            }
        }
    }
    let kth_ties = out.len() == k && keys.iter().filter(|key| **key == out[k - 1].dist).count() > 1;
    (out, stats, kth_ties)
}

fn pt() -> impl Strategy<Value = Point> {
    (-500.0f64..500.0, -500.0f64..500.0).prop_map(|(x, y)| Point::new(x, y))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn bounded_gnn_matches_the_retired_best_first(
        points in proptest::collection::vec(pt(), 1..300),
        users in proptest::collection::vec(pt(), 1..7),
        fanout in 4usize..33,
        inserts in proptest::collection::vec(pt(), 0..12),
        deletes in proptest::collection::vec(0usize..300, 0..12),
        ties in 0usize..8,
    ) {
        // Half the cases force exact distance ties.
        let (mut points, mut users) = (points, users);
        let n = points.len();
        match ties {
            // Every location three times over: k = 1, 2 and 21 cut through a tie.
            4 => (0..n).for_each(|i| points[i] = points[i / 3]),
            // One location only: everything ties with everything.
            5 => (0..n).for_each(|i| points[i] = points[0]),
            // A two-user group with the POIs on the segment between the users, where
            // the SUM rounds to (nearly always) the same value.
            6 | 7 => {
                users.truncate(2);
                users.resize(2, Point::new(120.0, -75.0));
                let (a, b) = (users[0], users[1]);
                let step = 1.0 / (n + 1) as f64;
                (0..n).for_each(|i| points[i] = a + (b - a) * ((i + 1) as f64 * step));
            }
            _ => {}
        }
        let entries = points.iter().enumerate().map(|(id, p)| PoiEntry::new(id, *p)).collect();
        let tree = RTree::bulk_load_entries(entries, RTreeConfig::new(fanout));

        // The same tree under an overlay, mirrored in `live` / `deleted` / `inserted`.
        let mut world = WorldView::new(tree.clone());
        let mut live: Vec<PoiEntry> = tree.iter().collect();
        let (mut deleted, mut inserted) = (Vec::new(), Vec::new());
        for p in &inserts {
            let entry = PoiEntry::new(world.insert(*p), *p);
            live.push(entry);
            inserted.push(entry);
        }
        for id in deletes.iter().map(|id| id % (n + inserts.len())) {
            if world.delete(id).is_some() {
                live.retain(|e| e.id != id);
                inserted.retain(|e| e.id != id);
                if id < n {
                    deleted.push(id);
                }
            }
        }

        for aggregate in [Aggregate::Max, Aggregate::Sum] {
            let score = |e: &PoiEntry| GnnNeighbor {
                entry: *e,
                dist: aggregate.point_dist(e.location, &users),
            };
            for k in [1, 2, 21, 101, n + inserts.len() + 7] {
                // Plain tree: the retired traversal is the reference.
                let (got, stats) = GnnSearch::new(&tree, &users, aggregate).top_k(k);
                let (want, want_stats, kth_ties) = retired_best_first(&tree, &users, aggregate, k);
                same_answer(&got, &want, kth_ties)?;
                if !kth_ties {
                    prop_assert_eq!(stats, want_stats);
                }
                // The order is ascending (dist, id): `brute_force_gnn`'s, ties included.
                prop_assert_eq!(&got, &brute_force_gnn(&points, &users, aggregate, k));
                // Ties or not, the nodes opened are those whose lower bound is at most the
                // k-th distance: the ones the Theorem 3 / 6 candidate walk opens at that radius.
                if let Some(kth) = got.get(k - 1) {
                    let walk = match aggregate {
                        Aggregate::Max => {
                            tree.candidates_within_user_radii(&users, &vec![kth.dist; users.len()])
                        }
                        Aggregate::Sum => tree.candidates_within_sum_radius(&users, kth.dist),
                    };
                    prop_assert_eq!(stats, walk.1);
                }

                // Overlay: the exact ranking of the live entries, and the parent's merge
                // around the retired traversal.
                let (got, stats) = world.view().top_k(&users, aggregate, k);
                let mut ranking: Vec<GnnNeighbor> = live.iter().map(score).collect();
                ranking.sort_by(|a, b| a.dist.total_cmp(&b.dist).then(a.entry.id.cmp(&b.entry.id)));
                let cut_ties = ranking.get(k).is_some_and(|next| next.dist == ranking[k - 1].dist);
                ranking.truncate(k);
                prop_assert_eq!(&got, &ranking);

                let (mut want, mut want_stats, kth_ties) =
                    retired_best_first(&tree, &users, aggregate, k + deleted.len());
                want.retain(|n| !deleted.contains(&n.entry.id));
                want.extend(inserted.iter().map(score));
                want.sort_by(|a, b| a.dist.total_cmp(&b.dist));
                want.truncate(k);
                want_stats.points_examined += inserted.len();
                same_answer(&got, &want, kth_ties || cut_ties)?;
                if !kth_ties {
                    prop_assert_eq!(stats, want_stats);
                }
            }
        }
    }
}

/// Distances equal bit for bit; ids equal wherever the distance ties with no neighbour
/// (and, at the cut, with nothing left outside the answer).
fn same_answer(
    got: &[GnnNeighbor],
    want: &[GnnNeighbor],
    kth_ties: bool,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        prop_assert_eq!(g.dist.to_bits(), w.dist.to_bits());
        let tied = |j: usize| want.get(j).is_some_and(|other| other.dist == w.dist);
        let tied_with_a_neighbour = tied(i + 1) || (i > 0 && tied(i - 1));
        let tied_beyond_the_cut = kth_ties && i + 1 == want.len();
        if !tied_with_a_neighbour && !tied_beyond_the_cut {
            prop_assert_eq!(g.entry, w.entry);
        }
    }
    Ok(())
}
