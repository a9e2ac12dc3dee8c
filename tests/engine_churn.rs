//! Property tests for dynamic fleet membership: random interleavings of
//! `register_stream` / `deregister` / `tick` over a 16-group fleet, every registered group
//! submitting its next recorded epoch before each tick, must leave every group's protocol
//! counters identical to that group replayed solo — churn bookkeeping (the id free-list,
//! slot reuse and the ready list) must never corrupt or cross-wire a session.
//!
//! Uses the offline `proptest` shim: cases are deterministic (seeded from the test name), so
//! a failing case index reproduces exactly.

use std::sync::Arc;

use mpn::core::{ComputeStats, Method, Objective};
use mpn::index::RTree;
use mpn::mobility::poi::{clustered_pois, PoiConfig};
use mpn::mobility::waypoint::{random_waypoint, WaypointConfig};
use mpn::mobility::Trajectory;
use mpn::sim::{
    EpochUpdate, GroupId, GroupSession, MonitorConfig, MonitoringEngine, MonitoringMetrics,
    Traffic, TrajectoryFeed,
};
use proptest::collection::vec as prop_vec;
use proptest::prelude::*;

/// Size of the candidate fleet each interleaving draws from.
const GROUPS: usize = 16;
/// Horizon of every session (registration + 11 monitored timestamps).
const HORIZON: usize = 12;

fn world() -> (Arc<RTree>, Vec<Vec<Trajectory>>) {
    let pois = clustered_pois(&PoiConfig { count: 150, domain: 500.0, ..PoiConfig::default() }, 71);
    let tree = Arc::new(RTree::bulk_load(&pois));
    let config = WaypointConfig { domain: 500.0, speed_limit: 7.0, timestamps: HORIZON };
    let fleet = (0..GROUPS)
        .map(|g| (0..2).map(|i| random_waypoint(&config, (g * 31 + i) as u64)).collect())
        .collect();
    (tree, fleet)
}

fn feed(group: &[Trajectory]) -> TrajectoryFeed {
    TrajectoryFeed::from_group(group)
}

fn config() -> MonitorConfig {
    MonitorConfig::new(Objective::Max, Method::circle()).with_max_timestamps(HORIZON)
}

/// The deterministic protocol counters of a run (wall-clock timings excluded).
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

/// One registration epoch of a group: which group, the recording it submits from, how many
/// ticks it saw, and the metrics the engine reported for it (taken at deregistration or at
/// the end).
struct Epoch {
    gidx: usize,
    feed: TrajectoryFeed,
    advances: usize,
    metrics: Option<MonitoringMetrics>,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn churn_interleavings_match_solo_replays(
        ops in prop_vec((0usize..4, 0usize..GROUPS), 4..48),
    ) {
        let (tree, fleet) = world();
        let mut engine = MonitoringEngine::new(Arc::clone(&tree), 3);

        // Model state: which epoch (if any) each group is currently registered under, the
        // engine id it got, and the set of ids the model expects to be free.
        let mut active: Vec<Option<(GroupId, usize)>> = vec![None; GROUPS];
        let mut epochs: Vec<Epoch> = Vec::new();
        let mut freed: Vec<GroupId> = Vec::new();
        let mut next_fresh: GroupId = 0;

        for (kind, g) in ops {
            match kind {
                // Ticks are twice as likely as either membership op, so most interleavings
                // actually advance the fleet between joins and leaves.
                0 | 1 => {
                    for &(id, epoch) in active.iter().flatten() {
                        if let Some(positions) = epochs[epoch].feed.next_epoch() {
                            let update = EpochUpdate { group_id: id, positions };
                            engine.submit(update).expect("an unfinished group takes its epoch");
                        }
                    }
                    engine.tick();
                    for slot in active.iter().flatten() {
                        epochs[slot.1].advances += 1;
                    }
                }
                2 => {
                    if active[g].is_none() {
                        let id = engine.register_stream(fleet[g].len(), config());
                        // Pin the free-list: a freed id must be reused before a fresh one
                        // is allocated.
                        if let Some(pos) = freed.iter().position(|&f| f == id) {
                            freed.swap_remove(pos);
                        } else {
                            prop_assert_eq!(id, next_fresh, "fresh ids are dense");
                            next_fresh += 1;
                        }
                        active[g] = Some((id, epochs.len()));
                        let feed = feed(&fleet[g]);
                        epochs.push(Epoch { gidx: g, feed, advances: 0, metrics: None });
                    }
                }
                _ => {
                    if let Some((id, epoch)) = active[g].take() {
                        let metrics = engine.deregister(id);
                        prop_assert!(metrics.is_some(), "active ids deregister exactly once");
                        epochs[epoch].metrics = metrics;
                        freed.push(id);
                    }
                }
            }
            prop_assert_eq!(
                engine.group_count(),
                active.iter().flatten().count(),
                "group_count tracks the active set"
            );
            prop_assert_eq!(engine.retired_count(), freed.len());
        }

        // Snapshot the groups that are still registered at the end of the interleaving.
        for slot in active.iter().flatten() {
            epochs[slot.1].metrics = Some(engine.group_metrics(slot.0).clone());
        }

        // Every epoch must match its group replayed solo for the same number of advances.
        for (i, epoch) in epochs.iter().enumerate() {
            let mut recording = feed(&fleet[epoch.gidx]);
            let mut solo = GroupSession::streaming(fleet[epoch.gidx].len(), config());
            for _ in 0..epoch.advances {
                if let Some(positions) = recording.next_epoch() {
                    solo.submit(positions);
                }
                let _ = solo.advance(&*tree);
            }
            let engine_counters =
                counters_of(epoch.metrics.as_ref().expect("every epoch ends with metrics"));
            prop_assert_eq!(
                &engine_counters,
                &counters_of(solo.metrics()),
                "epoch {} (group {}, {} advances) diverged from its solo replay",
                i,
                epoch.gidx,
                epoch.advances
            );
        }
    }
}
