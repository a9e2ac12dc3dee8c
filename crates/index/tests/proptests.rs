//! Property-based tests for the R-tree and the GNN search: every distance-ranked query must
//! agree with a brute-force linear scan, for arbitrary point sets and query locations.

use mpn_geom::Point;
use mpn_index::gnn::brute_force_gnn;
use mpn_index::{
    Aggregate, GnnNeighbor, GnnSearch, PoiEntry, QueryStats, RTree, RTreeConfig, WorldView,
};
use proptest::prelude::*;

fn pt() -> impl Strategy<Value = Point> {
    (-500.0f64..500.0, -500.0f64..500.0).prop_map(|(x, y)| Point::new(x, y))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // A single-user group is the plain nearest-neighbour query: MAX and SUM coincide and the
    // answer is the linear scan's, the smallest id among equidistant POIs.
    #[test]
    fn nearest_neighbour_matches_linear_scan(
        points in proptest::collection::vec(pt(), 1..200),
        query in pt(),
    ) {
        let tree = RTree::bulk_load(&points);
        let (id, dist) = points
            .iter()
            .map(|p| p.dist(query))
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap();
        for agg in [Aggregate::Max, Aggregate::Sum] {
            let (got, _) = GnnSearch::new(&tree, &[query], agg).top_k(1);
            prop_assert_eq!((got[0].entry.id, got[0].dist.to_bits()), (id, dist.to_bits()));
        }
    }

    #[test]
    fn gnn_matches_brute_force_for_both_aggregates(
        points in proptest::collection::vec(pt(), 1..150),
        users in proptest::collection::vec(pt(), 1..6),
        k in 1usize..8,
    ) {
        let tree = RTree::bulk_load(&points);
        for agg in [Aggregate::Max, Aggregate::Sum] {
            let (got, _) = GnnSearch::new(&tree, &users, agg).top_k(k);
            // Bit for bit, ids included: ties come back in ascending id order.
            prop_assert_eq!(got, brute_force_gnn(&points, &users, agg, k));
        }
    }

    #[test]
    fn candidate_retrieval_matches_brute_force(
        points in proptest::collection::vec(pt(), 0..150),
        users in proptest::collection::vec(pt(), 1..5),
        radius in 10.0f64..800.0,
    ) {
        let tree = RTree::bulk_load(&points);
        let radii: Vec<f64> = users.iter().enumerate().map(|(i, _)| radius + 20.0 * i as f64).collect();
        let (got, _) = tree.candidates_within_user_radii(&users, &radii);
        let mut got_ids: Vec<usize> = got.iter().map(|e| e.id).collect();
        got_ids.sort_unstable();
        let mut want: Vec<usize> = points
            .iter()
            .enumerate()
            .filter(|(_, p)| users.iter().zip(&radii).all(|(u, r)| p.dist(*u) <= *r))
            .map(|(i, _)| i)
            .collect();
        want.sort_unstable();
        prop_assert_eq!(got_ids, want);

        let threshold = radius * users.len() as f64;
        let (got_sum, _) = tree.candidates_within_sum_radius(&users, threshold);
        let mut got_sum_ids: Vec<usize> = got_sum.iter().map(|e| e.id).collect();
        got_sum_ids.sort_unstable();
        let mut want_sum: Vec<usize> = points
            .iter()
            .enumerate()
            .filter(|(_, p)| users.iter().map(|u| p.dist(*u)).sum::<f64>() <= threshold)
            .map(|(i, _)| i)
            .collect();
        want_sum.sort_unstable();
        prop_assert_eq!(got_sum_ids, want_sum);
    }

    // The contract `mpn-core`'s per-computation candidate pool rests on: the R-tree walk, on a
    // bulk-loaded tree and on a changed world's rebuilt one, emits entries in an order that
    // does not depend on the bounds, and keeps an entry by comparing its exact user distances
    // against them — so a query's output is the order-preserving filter of the output of any
    // query with bounds at least as large.
    #[test]
    fn narrower_candidate_queries_are_in_order_filters_of_wider_ones(
        points in proptest::collection::vec(pt(), 1..300),
        inserts in proptest::collection::vec(pt(), 0..12),
        deletes in proptest::collection::vec(0usize..300, 0..12),
        users in proptest::collection::vec(pt(), 1..5),
        radius in 10.0f64..800.0,
        shrink in proptest::collection::vec(0.0f64..=1.0, 5),
        fanout in 4usize..12,
    ) {
        let entries = points.iter().enumerate().map(|(id, p)| PoiEntry::new(id, *p)).collect();
        let tree = RTree::bulk_load_entries(entries, RTreeConfig::new(fanout));
        let mut world = WorldView::new(tree.clone());
        for p in &inserts {
            world.insert(*p);
        }
        for id in &deletes {
            world.delete(*id % (points.len() + inserts.len()));
        }
        let ids = |found: &[PoiEntry]| found.iter().map(|e| e.id).collect::<Vec<_>>();

        let wide_radii: Vec<f64> = (0..users.len()).map(|j| radius + 20.0 * j as f64).collect();
        let radii: Vec<f64> = wide_radii.iter().zip(&shrink).map(|(r, s)| r * s).collect();
        let wide_threshold = radius * users.len() as f64;
        let threshold = wide_threshold * shrink[4];
        for view in [&tree, world.view()] {
            let (wide, _) = view.candidates_within_user_radii(&users, &wide_radii);
            let (narrow, _) = view.candidates_within_user_radii(&users, &radii);
            let filtered: Vec<PoiEntry> = wide
                .into_iter()
                .filter(|e| users.iter().zip(&radii).all(|(u, r)| e.location.dist(*u) <= *r))
                .collect();
            prop_assert_eq!(ids(&narrow), ids(&filtered));

            let (wide, _) = view.candidates_within_sum_radius(&users, wide_threshold);
            let (narrow, _) = view.candidates_within_sum_radius(&users, threshold);
            let filtered: Vec<PoiEntry> = wide
                .into_iter()
                .filter(|e| users.iter().map(|u| e.location.dist(*u)).sum::<f64>() <= threshold)
                .collect();
            prop_assert_eq!(ids(&narrow), ids(&filtered));
        }
    }

    // `RTree::top2` stages its answer in a per-thread vector that every call on the thread
    // reuses: it must return `top_k(2)`'s first two neighbours and its `QueryStats` bit for bit,
    // on a one-POI tree (no runner-up), on calls one after another, and on a world rebuilt
    // between calls.
    #[test]
    fn top2_is_the_first_two_of_top_k(
        points in proptest::collection::vec(pt(), 1..200),
        inserts in proptest::collection::vec(pt(), 1..5),
        groups in proptest::collection::vec(proptest::collection::vec(pt(), 1..5), 1..4),
    ) {
        type Bits = (usize, u64, u64, u64);
        let bits = |n: Option<GnnNeighbor>| -> Option<Bits> {
            n.map(|n| {
                let at = n.entry.location;
                (n.entry.id, at.x.to_bits(), at.y.to_bits(), n.dist.to_bits())
            })
        };
        type Top2 = (Option<Bits>, Option<Bits>, QueryStats);
        let both = |tree: &RTree, users: &[Point], agg| -> (Top2, Top2) {
            let (best, runner_up, stats) = tree.top2(users, agg);
            let (top, top_stats) = tree.top_k(users, agg, 2);
            let expected = (bits(top.first().copied()), bits(top.get(1).copied()), top_stats);
            ((bits(best), bits(runner_up), stats), expected)
        };
        let lone = RTree::bulk_load(&points[..1]);
        let mut world = WorldView::new(RTree::bulk_load(&points));
        for users in &groups {
            for agg in [Aggregate::Max, Aggregate::Sum] {
                let (got, expected) = both(&lone, users, agg);
                prop_assert_eq!(got.1, None);
                prop_assert_eq!(got, expected);
                for p in &inserts {
                    let (got, expected) = both(world.view(), users, agg);
                    prop_assert_eq!(got, expected);
                    world.insert(*p);
                }
            }
        }
    }
}
