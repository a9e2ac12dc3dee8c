//! Quickstart: compute the optimal meeting point and safe regions for a small group.
//!
//! Run with: `cargo run --example quickstart` (asserts what it prints; CI runs it).

use mpn::core::{region_value_count, Method, MpnServer, Objective, SessionState};
use mpn::geom::Point;
use mpn::index::RTree;

fn main() {
    // A handful of cafes in a small town.
    let cafes = vec![
        Point::new(200.0, 180.0),
        Point::new(850.0, 300.0),
        Point::new(500.0, 920.0),
        Point::new(400.0, 400.0),
        Point::new(650.0, 650.0),
    ];
    let tree = RTree::bulk_load(&cafes);

    // Three friends at their current locations.
    let friends =
        vec![Point::new(150.0, 250.0), Point::new(420.0, 300.0), Point::new(300.0, 520.0)];

    println!("== Meeting point notification quickstart ==\n");
    for (label, method) in
        [("Circle safe regions", Method::circle()), ("Tile safe regions", Method::tile())]
    {
        let server = MpnServer::new(&tree, Objective::Max, method);
        let answer = server.compute(&friends);
        assert_eq!(answer.optimal_index, 3, "cafe #3 minimises the longest walk");
        assert!(answer.all_inside(&friends), "fresh regions contain their users");
        println!("{label}:");
        println!(
            "  optimal meeting point: cafe #{} at {} (worst-case walk {:.1})",
            answer.optimal_index, answer.optimal_point, answer.optimal_dist
        );
        for (i, region) in answer.regions.iter().enumerate() {
            println!(
                "  friend {i}: safe region payload = {} values, still inside: {}",
                region_value_count(region, false),
                region.contains(friends[i])
            );
        }
        println!();
    }

    // As long as everyone stays inside their region, no communication is needed.
    let server = MpnServer::new(&tree, Objective::Max, Method::tile());
    let answer = server.compute(&friends);
    let mut moved = friends.clone();
    moved[0] = Point::new(180.0, 270.0); // a small move
    assert!(answer.all_inside(&moved));
    println!("after a small move, recomputation needed: {}", !answer.all_inside(&moved));
    moved[0] = Point::new(900.0, 900.0); // a big move
    assert_eq!(answer.violators(&moved), vec![0]);
    println!(
        "after a big move, recomputation needed:  {} (violators: {:?})",
        !answer.all_inside(&moved),
        answer.violators(&moved)
    );

    // For continuous monitoring the server keeps per-group state (heading predictors, the
    // §5.4 GNN buffer, the last answer) in a SessionState and threads it through every
    // recomputation.  With persistent buffers, Tile-D-b builds its buffer once (the seed
    // query plus the buffer query) and later updates reuse it: one R-tree query.
    let buffered = Method::tile_directed_buffered(std::f64::consts::FRAC_PI_4, 3);
    let server = MpnServer::new(&tree, Objective::Max, buffered);
    let mut session = SessionState::new(friends.len(), 0.3).with_persistent_buffers(true);
    session.observe(&friends);
    let first = server.compute_session(&friends, &mut session).stats.rtree_queries;
    moved[0] = Point::new(180.0, 270.0);
    session.observe(&moved);
    let second = server.compute_session(&moved, &mut session).stats.rtree_queries;
    assert_eq!((first, second), (2, 1), "the second update reuses the buffer");
    println!("\nstateful Tile-D-b session: {first} R-tree queries to build, {second} to reuse");

    moved[0] = Point::new(900.0, 900.0);
    let stale = session.last_answer().expect("computed above");
    assert!(!stale.all_inside(&moved));
    println!("last answer still valid after the big move: {}", stale.all_inside(&moved));
}
