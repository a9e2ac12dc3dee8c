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

/// The layout golden: one hash over every query on the plain tree and on a world with ten
/// inserts and ten deletes, and one over the same queries once that world is compacted.
/// Recorded on the nested-node tree, before the tree became one array per level; the
/// compacted hash with the id-order compaction of the test below already applied, since
/// until then compaction laid duplicate POIs out in the order the old tree iterated them.
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
        let mut hash = 0xcbf2_9ce4_8422_2325;
        hash_queries(&mut hash, IndexView::from(&tree), &groups);
        hash_queries(&mut hash, world.view(), &groups);
        let mut compacted = 0xcbf2_9ce4_8422_2325;
        world.compact();
        hash_queries(&mut compacted, world.view(), &groups);
        got.push((fanout, tree.height(), tree.node_count(), hash, compacted));
    }
    for (fanout, height, nodes, hash, compacted) in &got {
        println!(
            "fan-out {fanout}: height {height}, {nodes} nodes, {hash:#018x} / {compacted:#018x}"
        );
    }
    assert_eq!(
        got,
        [
            (32, 3, 702, 0xbc0b_bd52_004f_91e1, 0xbfed_9899_e53b_089f),
            (6, 6, 4_322, 0xd4d2_d48f_942e_00bd, 0xe482_3db9_13b0_6fec),
        ]
    );
}

/// Compaction rebuilds the base in one bulk load over the live entries.  STR's sorts are
/// stable, so the order those entries are handed over in decides how POIs with equal `x`
/// are laid out; handing them over by id makes the compacted tree the one a fresh bulk load
/// of the same POI set builds, whatever the overlay's history.  A grid world with shuffled
/// ids has equal `x` everywhere, so any other order shows in the walks' output and stats.
#[test]
fn a_compacted_world_is_the_tree_a_fresh_bulk_load_builds() {
    let config = RTreeConfig::new(6);
    let entries: Vec<PoiEntry> = (0..1_600)
        .map(|i| PoiEntry::new(i * 7_919 % 1_600, Point::new((i % 40) as f64, (i / 40) as f64)))
        .collect();
    let mut world = WorldView::new(RTree::bulk_load_entries(entries, config));
    for i in 0..30 {
        world.insert(Point::new((i * 13 % 40) as f64, (i * 7 % 40) as f64 + 0.5));
    }
    for i in 0..30 {
        assert!(world.delete(i * 53 + 7).is_some());
    }
    world.compact();
    let mut live: Vec<PoiEntry> = world.view().iter().collect();
    live.sort_by_key(|e| e.id);
    let fresh = RTree::bulk_load_entries(live, config);

    let mut next = stream(0x2545_f491_4f6c_dd1d);
    let ids = |found: &[PoiEntry]| found.iter().map(|e| e.id).collect::<Vec<_>>();
    for _ in 0..200 {
        let users: Vec<Point> = (0..3).map(|_| Point::new(next() * 40.0, next() * 40.0)).collect();
        let (compacted, fresh) = (world.view(), IndexView::from(&fresh));
        let radii = [9.0, 11.0, 13.0];
        let (a, a_stats) = compacted.candidates_within_user_radii(&users, &radii);
        let (b, b_stats) = fresh.candidates_within_user_radii(&users, &radii);
        assert_eq!((ids(&a), a_stats), (ids(&b), b_stats));
        let (a, a_stats) = compacted.candidates_within_sum_radius(&users, 30.0);
        let (b, b_stats) = fresh.candidates_within_sum_radius(&users, 30.0);
        assert_eq!((ids(&a), a_stats), (ids(&b), b_stats));
        for aggregate in [Aggregate::Max, Aggregate::Sum] {
            assert_eq!(compacted.top_k(&users, aggregate, 5), fresh.top_k(&users, aggregate, 5));
        }
    }
}
