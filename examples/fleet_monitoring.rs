//! Fleet monitoring: one server, many concurrent moving groups.
//!
//! The paper's evaluation replays one group at a time, but the production scenario is a
//! server monitoring a whole fleet of groups against one POI index.  This example registers
//! 24 groups (mixed objectives and safe-region methods, like a real mixed tenant base) with a
//! sharded `MonitoringEngine` whose persistent worker pool advances them in parallel ticks,
//! churns the membership mid-run — a handful of groups leave at tick 150 and rejoin under
//! their old ids at tick 450 — and prints live fleet summaries, the final per-group and
//! fleet-wide metrics, and the per-shard load counters.
//!
//! Run with: `cargo run --release --example fleet_monitoring`

use std::sync::Arc;

use mpn::core::{Method, Objective};
use mpn::index::RTree;
use mpn::mobility::poi::{clustered_pois, PoiConfig};
use mpn::mobility::waypoint::{taxi_trajectory, TaxiConfig};
use mpn::mobility::Trajectory;
use mpn::sim::{MonitorConfig, MonitoringEngine, TrajectoryFeed};

/// Groups that leave the fleet mid-run and rejoin later.
const CHURNERS: std::ops::Range<usize> = 0..4;

fn main() {
    // The shared POI index all groups are served from.
    let pois = clustered_pois(
        &PoiConfig { count: 4_000, domain: 8_000.0, clusters: 10, ..PoiConfig::default() },
        7,
    );
    let tree = RTree::bulk_load(&pois);

    // 24 groups of 3-5 users each, with a mix of objectives and methods.
    let taxi =
        TaxiConfig { domain: 8_000.0, speed_limit: 10.0, timestamps: 600, ..TaxiConfig::default() };
    let theta = std::f64::consts::FRAC_PI_4;
    let method_mix = [
        Method::circle(),
        Method::tile(),
        Method::tile_directed(theta),
        Method::tile_directed_buffered(theta, 100),
    ];

    // Generate the whole fleet first.  Each group's recording sits behind an `Arc`, so the
    // initial registration and the later rejoin replay the same data without copying it.
    let fleet: Vec<Arc<Vec<Trajectory>>> = (0..24u64)
        .map(|g| {
            let size = 3 + (g % 3) as usize;
            Arc::new((0..size).map(|i| taxi_trajectory(&taxi, g * 100 + i as u64)).collect())
        })
        .collect();

    let config_for = |g: usize| {
        let objective = if g.is_multiple_of(2) { Objective::Max } else { Objective::Sum };
        let method = method_mix[g % 4];
        MonitorConfig::new(objective, method)
            // The buffered methods keep their §5.4 GNN buffer alive across updates.
            .with_persistent_buffers(matches!(method, Method::Tile(c) if c.buffering.is_some()))
    };

    let mut engine = MonitoringEngine::new(tree, 8);
    for (g, group) in fleet.iter().enumerate() {
        engine.register(TrajectoryFeed::new(Arc::clone(group)), config_for(g));
    }

    println!(
        "== Fleet monitoring: {} groups, {} shards ==\n",
        engine.group_count(),
        engine.shard_count()
    );

    // Drive the fleet tick by tick, reporting every 100 ticks.  Membership is dynamic: at
    // tick 150 the churners leave (their session state is reclaimed, their metrics retained),
    // at tick 450 they rejoin under their old ids with fresh sessions.
    while !engine.is_finished() {
        let summary = engine.tick();
        if summary.tick.is_multiple_of(100) {
            println!(
                "tick {:>4}: {:>2} live groups, {:>2} updates, {:>2} violating users, {} retired",
                summary.tick, summary.advanced, summary.updated, summary.violators, summary.retired
            );
        }
        if summary.tick == 150 {
            for id in CHURNERS {
                let departed = engine.deregister(id).expect("churner is registered");
                println!(
                    "tick  150: group {id} left after {} updates / {} packets",
                    departed.updates,
                    departed.packets()
                );
            }
        }
        if summary.tick == 450 {
            for id in CHURNERS {
                engine.rejoin(id, TrajectoryFeed::new(Arc::clone(&fleet[id])), config_for(id));
            }
            println!(
                "tick  450: groups {CHURNERS:?} rejoined under their old ids ({} registered)",
                engine.group_count()
            );
        }
    }

    println!(
        "\n{:<6} {:<9} {:<10} {:>7} {:>12} {:>12} {:>14}",
        "group", "objective", "method", "users", "updates", "freq", "packets/ts"
    );
    for id in 0..engine.group_count() {
        let session = engine.group(id);
        let metrics = engine.group_metrics(id);
        println!(
            "{:<6} {:<9} {:<10} {:>7} {:>12} {:>12.4} {:>14.3}",
            id,
            session.config().objective.name(),
            session.config().method.name(),
            metrics.group_size,
            metrics.updates,
            metrics.update_frequency(),
            metrics.packets_per_timestamp()
        );
    }

    let fleet = engine.fleet_metrics();
    println!(
        "\nfleet: {} users, {} safe-region computations over {} group-timestamps, {} packets total",
        fleet.group_size,
        fleet.updates,
        fleet.timestamps,
        fleet.packets()
    );
    println!("       mean compute time {:.1} us", fleet.mean_compute_time().as_secs_f64() * 1e6);

    println!("\nshard   occupancy   live   idle_ticks   remaining_work");
    for load in engine.shard_loads() {
        println!(
            "{:<7} {:>9} {:>6} {:>12} {:>16}",
            load.shard, load.occupancy, load.live, load.idle_ticks, load.weight
        );
    }
}
