//! Property tests for the fleet-wide shared query cache (`mpn_index::QueryCache`).
//!
//! Soundness contract, exercised through the engine against a *mutating* world:
//!
//! * a cached candidate list is **bit-identical** to a fresh query at the same world
//!   generation (results and `QueryStats` replayed verbatim),
//! * a cached entry is **never served across generations** — after
//!   `apply_world_change` bumps the generation, every query behaves exactly as if the
//!   cache were cold for the new world,
//! * therefore an engine with the cache attached produces the same tick summaries,
//!   invalidation summaries and per-group protocol counters as one without it, for any
//!   interleaving of ticks and world mutations.
//!
//! Uses the offline `proptest` shim: cases are deterministic (seeded from the test name).

use std::sync::Arc;

use mpn::core::{ComputeStats, Method, Objective};
use mpn::geom::Point;
use mpn::index::{Aggregate, QueryCache, RTree};
use mpn::mobility::poi::{clustered_pois, PoiConfig};
use mpn::mobility::waypoint::{random_waypoint, WaypointConfig};
use mpn::mobility::Trajectory;
use mpn::sim::{
    EpochUpdate, MonitorConfig, MonitoringEngine, MonitoringMetrics, Traffic, TrajectoryFeed,
    WorldChange,
};
use proptest::collection::vec as prop_vec;
use proptest::prelude::*;

const HORIZON: usize = 16;
const DOMAIN: f64 = 500.0;
/// Distinct trajectories; each is shared by two groups, so every tick re-asks identical
/// questions and the cache is guaranteed traffic at every generation.
const DISTINCT: usize = 3;

fn world() -> (Arc<RTree>, Vec<Vec<Trajectory>>) {
    let pois =
        clustered_pois(&PoiConfig { count: 150, domain: DOMAIN, ..PoiConfig::default() }, 92);
    let tree = Arc::new(RTree::bulk_load(&pois));
    let config = WaypointConfig { domain: DOMAIN, speed_limit: 6.0, timestamps: HORIZON };
    let distinct: Vec<Vec<Trajectory>> = (0..DISTINCT)
        .map(|g| (0..2).map(|i| random_waypoint(&config, (g * 53 + i) as u64)).collect())
        .collect();
    // Flash-crowd fleet: two groups per trajectory set.
    let fleet = (0..DISTINCT * 2).map(|g| distinct[g % DISTINCT].clone()).collect();
    (tree, fleet)
}

#[derive(Debug, PartialEq, Eq)]
struct Counters {
    timestamps: usize,
    updates: usize,
    traffic: Traffic,
    stats: ComputeStats,
}

fn counters_of(metrics: &MonitoringMetrics) -> Counters {
    Counters {
        timestamps: metrics.timestamps,
        updates: metrics.updates,
        traffic: metrics.traffic,
        stats: metrics.stats,
    }
}

/// An [`mpn::sim::InvalidationSummary`] minus its `generation` field: generation numbers
/// are allocated from a process-global counter, so two engines applying the same change
/// legitimately hold different stamps — everything else must match exactly.
fn invalidation_shape(
    summary: &mpn::sim::InvalidationSummary,
) -> (bool, Option<usize>, usize, usize, Vec<usize>, bool) {
    (
        summary.applied,
        summary.poi,
        summary.groups_checked,
        summary.invalidated,
        summary.affected.clone(),
        summary.compacted,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cached_queries_are_bit_identical_and_never_cross_generations(
        ops in prop_vec((0usize..4, 0usize..1_000), 6..28),
    ) {
        let (tree, fleet) = world();
        let config = MonitorConfig::new(Objective::Max, Method::circle())
            .with_max_timestamps(HORIZON);

        // One worker on both sides: ticks are serial, so within a tick the first group of
        // each duplicated trajectory inserts and its twin *deterministically* hits.
        let mut cached =
            MonitoringEngine::new(Arc::clone(&tree), 1).with_query_cache(QueryCache::new());
        let mut plain = MonitoringEngine::new(Arc::clone(&tree), 1);
        let mut feeds = Vec::new();
        for group in &fleet {
            let id = cached.register_stream(group.len(), config);
            prop_assert_eq!(plain.register_stream(group.len(), config), id);
            feeds.push(TrajectoryFeed::from_group(group));
        }

        // Fixed probe group for the view-level bit-identity check below.
        let probe: Vec<Point> = fleet[0].iter().map(|t| t.at(0)).collect();
        let mut inserted: Vec<usize> = Vec::new();

        for (kind, value) in ops {
            match kind {
                // Ticks are twice as likely as either mutation, so most interleavings
                // actually exercise hits between generation bumps.
                0 | 1 => {
                    if cached.is_finished() {
                        continue;
                    }
                    // Every group reports its next recorded epoch to both engines.
                    for (id, feed) in feeds.iter_mut().enumerate() {
                        let positions = feed.next_epoch().expect("the recording covers the cap");
                        for engine in [&mut cached, &mut plain] {
                            let update = EpochUpdate { group_id: id, positions: positions.clone() };
                            engine.submit(update).expect("an unfinished group takes its epoch");
                        }
                    }
                    let a = cached.tick();
                    let b = plain.tick();
                    prop_assert_eq!(a, b, "a cached tick diverged from the uncached engine");
                }
                2 => {
                    // Insert a POI at a value-derived location; both engines see the same
                    // change and must invalidate the same groups.
                    let location = Point::new(
                        (value % 100) as f64 * (DOMAIN / 100.0),
                        (value / 100) as f64 * (DOMAIN / 10.0),
                    );
                    let a = cached.apply_world_change(WorldChange::PoiInsert { location });
                    let b = plain.apply_world_change(WorldChange::PoiInsert { location });
                    prop_assert_eq!(
                        invalidation_shape(&a),
                        invalidation_shape(&b),
                        "insert invalidation diverged under the cache"
                    );
                    if let Some(poi) = a.poi {
                        inserted.push(poi);
                    }
                }
                _ => {
                    // Delete a previously inserted POI — or attempt an unknown id, which
                    // both engines must reject identically.
                    let poi = if inserted.is_empty() {
                        usize::MAX - value
                    } else {
                        inserted.swap_remove(value % inserted.len())
                    };
                    let a = cached.apply_world_change(WorldChange::PoiDelete { poi });
                    let b = plain.apply_world_change(WorldChange::PoiDelete { poi });
                    prop_assert_eq!(
                        invalidation_shape(&a),
                        invalidation_shape(&b),
                        "delete invalidation diverged under the cache"
                    );
                }
            }

            // View-level bit-identity at the *current* generation: the cached view (warm or
            // cold — a stale cross-generation entry would surface here as a mismatch) must
            // equal the uncached view verbatim, results and stats alike.
            let cache = Arc::clone(cached.query_cache().expect("cache attached"));
            let fresh_view = cached.world().view();
            let cached_view = cached.world().view().with_cache(&cache);
            let fresh = fresh_view.top_k(&probe, Aggregate::Max, 4);
            prop_assert_eq!(
                cached_view.top_k(&probe, Aggregate::Max, 4),
                fresh.clone(),
                "first cached probe diverged from the fresh query"
            );
            // And a second time, now guaranteed warm: the replay must stay verbatim.
            prop_assert_eq!(
                cached_view.top_k(&probe, Aggregate::Max, 4),
                fresh,
                "warm cache replay diverged from the fresh query"
            );
        }

        for id in 0..fleet.len() {
            prop_assert_eq!(
                counters_of(cached.group_metrics(id)),
                counters_of(plain.group_metrics(id)),
                "group {} counters diverged under the cache", id
            );
        }
        // The duplicated trajectories guarantee deterministic hits on a serial engine: at
        // every generation each twin group replays its partner's insertions.
        let stats = cached.query_cache().expect("cache attached").stats();
        prop_assert!(stats.hits > 0, "duplicate groups must hit the shared cache");
        prop_assert!(stats.misses > 0, "generation bumps must miss and recompute");
        prop_assert_eq!(stats.lookups(), stats.hits + stats.misses);
    }
}
