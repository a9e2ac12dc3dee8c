//! The tree's layout, pinned through the public API: which nodes a query opens, which entries
//! it examines and the order the candidate walks emit them in are part of the contract the
//! engines rest on (the per-computation candidate pool filters a wider walk's output in
//! order; the §5.4 buffer replays a GNN answer), so a change of representation must leave
//! every one of them as it was.

use mpn_geom::Point;
use mpn_index::{Aggregate, IndexView, PoiEntry, QueryStats, RTree, RTreeConfig, WorldView};

/// 64-bit FNV-1a over a stream of integers.
fn fnv1a(hash: &mut u64, value: u64) {
    for byte in value.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Deterministic uniform stream in `[0, 1)` (xorshift64).
fn stream(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Feeds one query's ordered output ids and its stats into `hash`.
fn absorb(hash: &mut u64, ids: impl IntoIterator<Item = usize>, stats: QueryStats) {
    let mut count = 0;
    for id in ids {
        fnv1a(hash, id as u64);
        count += 1;
    }
    fnv1a(hash, count);
    fnv1a(hash, stats.nodes_visited as u64);
    fnv1a(hash, stats.points_examined as u64);
}

/// Every query kind the engines run, over `groups`: GNN top-2 and top-101 under MAX and
/// SUM, and both candidate walks.
fn hash_queries(hash: &mut u64, view: IndexView<'_>, groups: &[Vec<Point>]) {
    for users in groups {
        for aggregate in [Aggregate::Max, Aggregate::Sum] {
            for k in [2, 101] {
                let (found, stats) = view.top_k(users, aggregate, k);
                absorb(hash, found.iter().map(|n| n.entry.id), stats);
            }
        }
        let radii: Vec<f64> = (0..users.len()).map(|i| 450.0 + 60.0 * i as f64).collect();
        let (found, stats) = view.candidates_within_user_radii(users, &radii);
        absorb(hash, found.iter().map(|e| e.id), stats);
        let (found, stats) = view.candidates_within_sum_radius(users, 1_500.0);
        absorb(hash, found.iter().map(|e| e.id), stats);
    }
}

/// 21,287 POIs (the paper's POI count) over a 10,000-unit square, every seventh an exact
/// duplicate of an earlier one, and 48 seeded groups of two to four users.
fn golden_world() -> (Vec<PoiEntry>, Vec<Vec<Point>>) {
    let mut next = stream(0x9e37_79b9_7f4a_7c15);
    let mut points: Vec<Point> = Vec::with_capacity(21_287);
    for i in 0..21_287 {
        let fresh = Point::new(next() * 10_000.0, next() * 10_000.0);
        let pick = (next() * i as f64) as usize;
        points.push(if i % 7 == 3 { points[pick] } else { fresh });
    }
    let entries = points.iter().enumerate().map(|(id, p)| PoiEntry::new(id, *p)).collect();
    let groups = (0..48)
        .map(|g| {
            let centre = Point::new(500.0 + next() * 9_000.0, 500.0 + next() * 9_000.0);
            (0..2 + g % 3)
                .map(|_| {
                    Point::new(centre.x + next() * 600.0 - 300.0, centre.y + next() * 600.0 - 300.0)
                })
                .collect()
        })
        .collect();
    (entries, groups)
}

/// The layout golden: one hash over every query on the plain tree, and one over the same
/// queries on a world after ten inserts and ten deletes.  Both were recorded before a world
/// change rebuilt the tree in place: the tree hash on the stable-sort STR pass, the world hash
/// as the hash of that world compacted into a fresh bulk load by id.  So the total-key sorts
/// lay out what stable sorts laid out, and a changed world is the tree a fresh bulk load of
/// its POI set builds.
#[test]
fn query_output_order_and_stats_match_the_golden_hashes() {
    let (entries, groups) = golden_world();
    let mut got = Vec::new();
    for fanout in [32, 6] {
        let tree = RTree::bulk_load_entries(entries.clone(), RTreeConfig::new(fanout));
        let mut world = WorldView::new(tree.clone());
        for i in 0..10 {
            // Half of them on top of an existing POI.
            let at = if i % 2 == 0 { entries[i * 1_999].location } else { groups[i][0] };
            world.insert(at);
        }
        for i in 0..10 {
            assert!(world.delete(i * 2_087 + 11).is_some());
        }
        let (mut tree_hash, mut world_hash) = (0xcbf2_9ce4_8422_2325, 0xcbf2_9ce4_8422_2325);
        hash_queries(&mut tree_hash, &tree, &groups);
        hash_queries(&mut world_hash, world.view(), &groups);
        got.push((fanout, tree.height(), tree.node_count(), tree_hash, world_hash));
    }
    for (fanout, height, nodes, tree_hash, world_hash) in &got {
        println!(
            "fan-out {fanout}: height {height}, {nodes} nodes, {tree_hash:#018x} / {world_hash:#018x}"
        );
    }
    assert_eq!(
        got,
        [
            (32, 3, 702, 0x6903_3813_cbd3_7865, 0xbfed_9899_e53b_089f),
            (6, 6, 4_322, 0xa5bb_d8ed_1253_5b6e, 0xe482_3db9_13b0_6fec),
        ]
    );
}

/// STR sorts on total keys, so the tree is a function of the POI set, not of the order its
/// entries arrive in — which is what lets a world change re-pack the entry array in whatever
/// order the last rebuild left it.  A grid with shuffled ids has equal `x` and `y`
/// everywhere, so an order-dependent tie shows in the walks' output and stats.
#[test]
fn the_layout_does_not_depend_on_the_input_order() {
    let config = RTreeConfig::new(6);
    let shuffled: Vec<PoiEntry> = (0..1_600)
        .map(|i| PoiEntry::new(i * 7_919 % 1_600, Point::new((i % 40) as f64, (i / 40) as f64)))
        .collect();
    let mut by_id = shuffled.clone();
    by_id.sort_by_key(|e| e.id);
    let (a, b) =
        (RTree::bulk_load_entries(shuffled, config), RTree::bulk_load_entries(by_id, config));

    let mut next = stream(0x2545_f491_4f6c_dd1d);
    let ids = |found: &[PoiEntry]| found.iter().map(|e| e.id).collect::<Vec<_>>();
    for _ in 0..200 {
        let users: Vec<Point> = (0..3).map(|_| Point::new(next() * 40.0, next() * 40.0)).collect();
        let radii = [9.0, 11.0, 13.0];
        let (x, x_stats) = a.candidates_within_user_radii(&users, &radii);
        let (y, y_stats) = b.candidates_within_user_radii(&users, &radii);
        assert_eq!((ids(&x), x_stats), (ids(&y), y_stats));
        let (x, x_stats) = a.candidates_within_sum_radius(&users, 30.0);
        let (y, y_stats) = b.candidates_within_sum_radius(&users, 30.0);
        assert_eq!((ids(&x), x_stats), (ids(&y), y_stats));
        for aggregate in [Aggregate::Max, Aggregate::Sum] {
            assert_eq!(a.top_k(&users, aggregate, 5), b.top_k(&users, aggregate, 5));
        }
    }
}
