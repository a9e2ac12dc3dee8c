//! Cross-crate integration tests: the full pipeline from workload generation through the
//! monitoring protocol.  The paper's qualitative §7 claims (tile methods update less often
//! than Circle, buffering cuts index work at equal update frequency) are checked on the
//! figures' own workloads by `mpn-bench`'s `figures::check`, not here.

use mpn::core::{Method, MpnServer, Objective};
use mpn::index::RTree;
use mpn::mobility::poi::{clustered_pois, PoiConfig};
use mpn::mobility::waypoint::{taxi_trajectory, TaxiConfig};
use mpn::mobility::Trajectory;
use mpn::sim::{run_monitoring, MonitorConfig};

fn poi_tree(count: usize, domain: f64, seed: u64) -> RTree {
    let pois = clustered_pois(&PoiConfig { count, domain, ..PoiConfig::default() }, seed);
    RTree::bulk_load(&pois)
}

fn taxi_group(m: usize, domain: f64, timestamps: usize, seed: u64) -> Vec<Trajectory> {
    let config = TaxiConfig { domain, speed_limit: 8.0, timestamps, ..TaxiConfig::default() };
    (0..m).map(|i| taxi_trajectory(&config, seed + i as u64)).collect()
}

#[test]
fn monitoring_never_misses_a_meeting_point_change() {
    // Replays a workload under every method and re-derives the optimum by brute force at every
    // timestamp where the users are still inside their safe regions: the stored answer must
    // still be optimal (within floating-point tolerance).  This is the end-to-end version of
    // Definition 3.
    let tree = poi_tree(400, 2_000.0, 5);
    let pois: Vec<_> = tree.iter().map(|e| e.location).collect();
    let group = taxi_group(3, 2_000.0, 250, 40);

    for objective in [Objective::Max, Objective::Sum] {
        for method in [Method::circle(), Method::tile(), Method::tile_directed(0.8)] {
            let server = MpnServer::new(&tree, objective, method);
            let mut locations: Vec<_> = group.iter().map(|t| t.at(0)).collect();
            let mut answer = server.compute(&locations);
            for t in 1..250 {
                locations.clear();
                locations.extend(group.iter().map(|traj| traj.at(t)));
                if answer.all_inside(&locations) {
                    // No update is triggered: the old answer must still be optimal.
                    let agg = |p| objective.aggregate().point_dist(p, &locations);
                    let best = pois.iter().map(|p| agg(*p)).fold(f64::INFINITY, f64::min);
                    let held = agg(answer.optimal_point);
                    assert!(
                        held <= best + 1e-6,
                        "{objective:?}/{}: stale answer at t={t} ({held} > {best})",
                        method.name()
                    );
                } else {
                    answer = server.compute(&locations);
                }
            }
        }
    }
}

#[test]
fn sum_and_max_objectives_can_disagree_and_are_both_served() {
    let tree = poi_tree(600, 3_000.0, 33);
    // A skewed group: three users clustered, one far away, which is where MAX and SUM optima
    // typically diverge.
    let users = vec![
        mpn::geom::Point::new(500.0, 500.0),
        mpn::geom::Point::new(620.0, 540.0),
        mpn::geom::Point::new(480.0, 650.0),
        mpn::geom::Point::new(2_700.0, 2_500.0),
    ];
    let max_answer = MpnServer::new(&tree, Objective::Max, Method::tile()).compute(&users);
    let sum_answer = MpnServer::new(&tree, Objective::Sum, Method::tile()).compute(&users);

    // Verify each optimum against brute force on its own objective.
    let pois: Vec<_> = tree.iter().map(|e| e.location).collect();
    let best_max = pois
        .iter()
        .map(|p| Objective::Max.aggregate().point_dist(*p, &users))
        .fold(f64::INFINITY, f64::min);
    let best_sum = pois
        .iter()
        .map(|p| Objective::Sum.aggregate().point_dist(*p, &users))
        .fold(f64::INFINITY, f64::min);
    assert!((max_answer.optimal_dist - best_max).abs() < 1e-6);
    assert!((sum_answer.optimal_dist - best_sum).abs() < 1e-6);
}

#[test]
fn compressed_and_uncompressed_runs_agree_on_updates() {
    let tree = poi_tree(500, 2_000.0, 71);
    let group = taxi_group(3, 2_000.0, 200, 19);
    let base = MonitorConfig::new(Objective::Max, Method::tile());
    let compressed = run_monitoring(&tree, &group, &base);
    let plain = run_monitoring(&tree, &group, &MonitorConfig { compress_regions: false, ..base });
    // Compression only affects packet counts, never the protocol behaviour.
    assert_eq!(compressed.updates, plain.updates);
    assert!(compressed.packets() <= plain.packets());
}
