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

/// Two FNV-1a hashes over a sequence of queries: one of what they return (ids in order, and
/// counts) and one of their [`QueryStats`].  The first pins the answers; the second moves
/// whenever a node bound prunes differently, which an admissible bound may do without
/// moving the first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Hashes {
    output: u64,
    stats: u64,
}

impl Hashes {
    const OFFSET: Self = Self { output: 0xcbf2_9ce4_8422_2325, stats: 0xcbf2_9ce4_8422_2325 };

    /// Feeds one query's ordered output ids and its stats in.
    fn absorb(&mut self, ids: impl IntoIterator<Item = usize>, stats: QueryStats) {
        let mut count = 0;
        for id in ids {
            fnv1a(&mut self.output, id as u64);
            count += 1;
        }
        fnv1a(&mut self.output, count);
        fnv1a(&mut self.stats, stats.nodes_visited as u64);
        fnv1a(&mut self.stats, stats.points_examined as u64);
    }
}

/// Every query kind the engines run, over `groups`: GNN top-2 and top-101 under MAX and
/// SUM, and both candidate walks.
fn hash_queries(view: IndexView<'_>, groups: &[Vec<Point>]) -> Hashes {
    let mut hashes = Hashes::OFFSET;
    for users in groups {
        for aggregate in [Aggregate::Max, Aggregate::Sum] {
            for k in [2, 101] {
                let (found, stats) = view.top_k(users, aggregate, k);
                hashes.absorb(found.iter().map(|n| n.entry.id), stats);
            }
        }
        let radii: Vec<f64> = (0..users.len()).map(|i| 450.0 + 60.0 * i as f64).collect();
        let (found, stats) = view.candidates_within_user_radii(users, &radii);
        hashes.absorb(found.iter().map(|e| e.id), stats);
        let (found, stats) = view.candidates_within_sum_radius(users, 1_500.0);
        hashes.absorb(found.iter().map(|e| e.id), stats);
    }
    hashes
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

/// The layout golden: hashes over every query on the plain tree, and over the same queries on
/// a world after ten inserts and ten deletes.  They began as one hash each, recorded before a
/// world change rebuilt the tree in place: the tree's on the stable-sort STR pass, the world's
/// as that world compacted into a fresh bulk load by id.  So the total-key sorts lay out what
/// stable sorts laid out, and a changed world is the tree a fresh bulk load of its POI set
/// builds.  When the SUM node bound gained its tangent plane, each was split in two: an
/// output hash, computed on the code before that change and unmoved by it, and a stats hash,
/// re-recorded because the tighter bound opens fewer nodes.
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
        let (tree_hashes, world_hashes) =
            (hash_queries(&tree, &groups), hash_queries(world.view(), &groups));
        got.push((fanout, tree.height(), tree.node_count(), tree_hashes, world_hashes));
    }
    for (fanout, height, nodes, tree, world) in &got {
        println!(
            "fan-out {fanout}: height {height}, {nodes} nodes, output {:#018x} / {:#018x}, \
             stats {:#018x} / {:#018x}",
            tree.output, world.output, tree.stats, world.stats
        );
    }
    let outputs: Vec<_> =
        got.iter().map(|(f, h, n, t, w)| (*f, *h, *n, t.output, w.output)).collect();
    assert_eq!(
        outputs,
        [
            (32, 3, 702, 0x8a01_15f3_77a6_15fd, 0x22b4_fd37_c2ca_162a),
            (6, 6, 4_322, 0xfdd1_7445_992c_a115, 0xabc2_4c72_a286_172e),
        ]
    );
    let stats: Vec<_> = got.iter().map(|(f, _, _, t, w)| (*f, t.stats, w.stats)).collect();
    assert_eq!(
        stats,
        [
            (32, 0x5652_1d99_dfba_d853, 0x6ebe_96b4_d25c_54c0),
            (6, 0x47ba_1d21_f9a3_0d99, 0x406e_27da_43ab_0bd9),
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
