//! Property tests for dynamic fleet membership: random interleavings of
//! `register_session` / `deregister` / `tick` over a 16-group fleet, every registered group
//! submitting its next recorded epoch before each tick, must send every group the protocol
//! events that group replayed solo is sent, and leave the fleet's totals equal to the solo
//! replays' summed — churn bookkeeping (the id free-list, slot reuse and the ready list)
//! must never corrupt or cross-wire a session, nor drop or double a departed group's work.
//!
//! Uses the offline `proptest` shim: cases are deterministic (seeded from the test name), so
//! a failing case index reproduces exactly.

use std::sync::Arc;

use mpn::core::{ComputeStats, Method, Objective, SessionState};
use mpn::geom::Point;
use mpn::index::{RTree, WorldView};
use mpn::mobility::poi::{clustered_pois, PoiConfig};
use mpn::mobility::waypoint::{random_waypoint, WaypointConfig};
use mpn::mobility::Trajectory;
use mpn::sim::{
    EpochUpdate, GroupId, GroupSession, MonitorConfig, MonitoringEngine, MonitoringMetrics,
    SessionEvent, TrajectoryFeed, WorldChange,
};
use proptest::collection::vec as prop_vec;
use proptest::prelude::*;

/// Size of the candidate fleet each interleaving draws from.
const GROUPS: usize = 16;
/// Length of every recording (registration + 11 monitored timestamps).
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
    MonitorConfig::new(Objective::Max, Method::circle())
}

/// A streaming session of a fleet group whose ticks send its protocol events.
fn logged(size: usize) -> GroupSession {
    GroupSession::streaming(size, config()).with_events(true)
}

/// The deterministic measures of a fleet (wall-clock timings excluded).
fn counters_of(metrics: &MonitoringMetrics) -> impl PartialEq + std::fmt::Debug {
    (metrics.timestamps, metrics.updates, metrics.traffic, metrics.stats)
}

/// One registration epoch of a group: which group, the recording it submits from, and per
/// tick it saw, the events the engine sent it.
struct Epoch {
    gidx: usize,
    feed: TrajectoryFeed,
    ticks: Vec<Vec<SessionEvent>>,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn churn_interleavings_match_solo_replays(
        ops in prop_vec((0usize..4, 0usize..GROUPS), 4..48),
    ) {
        let (tree, fleet) = world();
        let mut engine = MonitoringEngine::new(Arc::clone(&tree), 1);

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
                    // Per engine id, the epoch registered under it.
                    let mut of_id = vec![None; next_fresh];
                    for &(id, epoch) in active.iter().flatten() {
                        if let Some(positions) = epochs[epoch].feed.next_epoch() {
                            let update = EpochUpdate { group_id: id, positions };
                            engine.submit(update).expect("a registered group takes its epoch");
                        }
                        of_id[id] = Some(epoch);
                        epochs[epoch].ticks.push(Vec::new());
                    }
                    engine.tick_with(&mut |id, event| {
                        let epoch = of_id[id].expect("only registered groups send");
                        epochs[epoch].ticks.last_mut().expect("this tick").push(event);
                    });
                }
                2 => {
                    if active[g].is_none() {
                        let id = engine.register_session(logged(fleet[g].len()));
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
                        epochs.push(Epoch { gidx: g, feed, ticks: Vec::new() });
                    }
                }
                _ => {
                    if let Some((id, _)) = active[g].take() {
                        let session = engine.deregister(id);
                        prop_assert!(session.is_some(), "active ids deregister exactly once");
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

        // Every epoch must be sent, tick for tick, what its group replayed solo through an
        // engine of its own is sent over as many ticks, and the fleet's totals must be all
        // solo replays' together.
        let mut solo_totals = MonitoringMetrics::default();
        for (i, epoch) in epochs.iter().enumerate() {
            let mut recording = feed(&fleet[epoch.gidx]);
            let mut solo = MonitoringEngine::new(Arc::clone(&tree), 1);
            let id = solo.register_session(logged(fleet[epoch.gidx].len()));
            for (t, sent) in epoch.ticks.iter().enumerate() {
                if let Some(positions) = recording.next_epoch() {
                    solo.submit(EpochUpdate { group_id: id, positions }).expect("a live group");
                }
                let mut alone = Vec::new();
                solo.tick_with(&mut |_, event| alone.push(event));
                prop_assert_eq!(
                    sent,
                    &alone,
                    "epoch {} (group {}) diverged from its solo replay at its tick {}",
                    i,
                    epoch.gidx,
                    t
                );
            }
            solo_totals.absorb(&solo.fleet_metrics());
        }
        prop_assert_eq!(counters_of(&engine.fleet_metrics()), counters_of(&solo_totals));
    }
}

/// The fleet's work counters hold every computation exactly once, a departed group's
/// included: through registrations, updates, a deregistration, the reuse of its id and a POI
/// delete's forced recomputes, they equal a solo `Method::answer_session` replay of the same
/// computations (one per `Assigned` event of user 0, at the positions the group last
/// reported) against a world that saw the same delete.
#[test]
fn fleet_stats_count_every_computation_once_across_churn() {
    let (tree, fleet) = world();
    let config = MonitorConfig::new(Objective::Max, Method::circle());
    let logged = || GroupSession::streaming(2, config).with_events(true);
    let replay = |events: Vec<(GroupId, SessionEvent)>,
                  last: &[Vec<Point>],
                  world: &WorldView,
                  solo: &mut ComputeStats| {
        for (id, event) in events {
            if matches!(event, SessionEvent::Assigned { user: 0, .. }) {
                let mut state = SessionState::new(2, config.heading_smoothing);
                let (_, stats) = config.method.answer_session(
                    world.view(),
                    config.objective,
                    &last[id],
                    &mut state,
                );
                solo.absorb(&stats);
            }
        }
    };
    let mut engine = MonitoringEngine::new(Arc::clone(&tree), 1);
    let mut world = WorldView::new(Arc::clone(&tree));
    let mut solo = ComputeStats::default();
    // Per id: the recording it reports from, and the positions it reported last.
    let mut recording: Vec<usize> = (0..3).collect();
    let mut last = vec![Vec::new(); 3];
    for _ in 0..3 {
        engine.register_session(logged());
    }
    let (mut departed, mut pushed) = (None, 0);
    for t in 0..HORIZON {
        if t == 4 {
            departed = engine.deregister(1);
            assert_eq!(engine.register_session(logged()), 1, "the freed id is reused");
            recording[1] = 3;
        }
        for id in 0..3 {
            last[id] = fleet[recording[id]].iter().map(|traj| traj.at(t)).collect();
            let positions = last[id].clone();
            engine.submit(EpochUpdate { group_id: id, positions }).expect("a live group");
        }
        engine.tick();
        replay(engine.drain_events(), &last, &world, &mut solo);
        if t == 8 {
            let answer = engine.group(0).session_state().last_answer();
            let poi = answer.expect("registered").optimal_index;
            pushed = engine.apply_world_change(WorldChange::PoiDelete { poi }).invalidated;
            world.delete(poi).expect("the optimum is a live POI");
            replay(engine.drain_events(), &last, &world, &mut solo);
        }
    }
    assert!(
        departed.is_some_and(|session| session.session_state().last_answer().is_some()),
        "group 1 left with work"
    );
    assert!(pushed > 0, "deleting an optimum forces a recompute");
    let fleet_metrics = engine.fleet_metrics();
    assert!(fleet_metrics.updates > 4, "the fleet must update beyond registering");
    assert_eq!(fleet_metrics.stats, solo);
}
