//! Quickstart: compute the optimal meeting point and safe regions for a small group.
//!
//! Run with: `cargo run --example quickstart` (asserts what it prints; CI runs it).

use mpn::core::{region_value_count, Method, Objective, SessionState};
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
        let (answer, _) = method.answer(&tree, Objective::Max, &friends, None);
        assert_eq!(answer.optimal_index, 3, "cafe #3 minimises the longest walk");
        assert!(answer.all_inside(&friends), "fresh regions contain their users");
        println!("{label}:");
        println!(
            "  optimal meeting point: cafe #{} at {} (worst-case walk {:.1})",
            answer.optimal_index,
            answer.optimal_point,
            Objective::Max.aggregate().point_dist(answer.optimal_point, &friends)
        );
        // The payload the §7.1 model charges: tile regions travel compressed (the default).
        for (i, region) in answer.regions.iter().enumerate() {
            println!(
                "  friend {i}: safe region payload = {} values, still inside: {}",
                region_value_count(region, true),
                region.contains(friends[i])
            );
        }
        println!();
    }

    // As long as everyone stays inside their region, no communication is needed.
    let (answer, _) = Method::tile().answer(&tree, Objective::Max, &friends, None);
    let mut moved = friends.clone();
    moved[0] = Point::new(180.0, 270.0); // a small move
    assert!(answer.all_inside(&moved));
    println!("after a small move, recomputation needed: {}", !answer.all_inside(&moved));
    moved[0] = Point::new(900.0, 900.0); // a big move
    assert_eq!(answer.leavers(&moved), 1);
    println!(
        "after a big move, recomputation needed:  {} (users outside: {})",
        !answer.all_inside(&moved),
        answer.leavers(&moved)
    );

    // For continuous monitoring the server keeps per-group state (heading predictors, the
    // last answer) in a SessionState and threads it through every recomputation.  Tile-D-b
    // builds its §5.4 GNN buffer inside every computation, as the paper does: each update
    // makes the seed query plus the buffer query.
    let buffered = Method::tile_directed_buffered(std::f64::consts::FRAC_PI_4, 3);
    let mut session = SessionState::new(friends.len(), 0.3);
    session.observe(&friends);
    let (_, first) = buffered.answer_session(&tree, Objective::Max, &friends, &mut session);
    let first = first.rtree_queries;
    moved[0] = Point::new(180.0, 270.0);
    session.observe(&moved);
    let (_, second) = buffered.answer_session(&tree, Objective::Max, &moved, &mut session);
    let second = second.rtree_queries;
    assert_eq!((first, second), (2, 2), "every update builds its own buffer");
    println!(
        "\nstateful Tile-D-b session: {first} R-tree queries, then {second} on the next update"
    );

    moved[0] = Point::new(900.0, 900.0);
    let stale = session.last_answer().expect("computed above");
    assert!(!stale.all_inside(&moved));
    println!("last answer still valid after the big move: {}", stale.all_inside(&moved));
}
