//! Parity tests for the stateful monitoring engine.
//!
//! The refactor to `GroupSession` / `MonitoringEngine` must not change what the paper
//! measures: this file replays the *legacy* stateless monitoring loop (the exact algorithm of
//! the original `run_monitoring`, re-implemented here as the baseline) and asserts that
//!
//! * the compatibility wrapper — a recording submitted epoch by epoch into one streaming
//!   session, like any client — reproduces its updates, packets and work counters exactly,
//! * `run_workload`'s per-group measures are `run_monitoring`'s of each group,
//! * a multi-group tick equals the single-group replays, each run on its own: its events
//!   are theirs, group by group, and its fleet totals are theirs summed,
//! * the engine path (`register_stream` + `EpochUpdate` submission) produces the same
//!   counters as a standalone session fed the same recording, epoch for epoch,
//! * a tick streamed to a callback (`tick_with`) sends exactly the events, in exactly the
//!   order, that `tick` collects and `drain_events` hands out, world-change pushes included,
//! * the report-driven engine — a ready list of the groups with a submitted epoch, sorted
//!   and advanced per tick, the starved tally derived from it — matches a serial
//!   walk-everything oracle tick for tick across churn (deregistering groups with queued
//!   epochs, reusing their ids in the same step), starvation, backlogs and world mutation,
//!   in every tick summary and in the fleet totals after every tick.

use std::sync::Arc;

use mpn::core::{region_value_count, ComputeStats, Method, Objective};
use mpn::geom::{HeadingPredictor, Point};
use mpn::index::{RTree, WorldView};
use mpn::mobility::poi::{clustered_pois, PoiConfig};
use mpn::mobility::waypoint::{random_waypoint, taxi_trajectory, TaxiConfig, WaypointConfig};
use mpn::mobility::{GroupWorkload, Trajectory};
use mpn::sim::{
    run_monitoring, run_workload, EpochUpdate, GroupId, GroupSession, MonitorConfig,
    MonitoringEngine, MonitoringMetrics, SessionEvent, StepOutcome, TickSummary, Traffic,
    TrajectoryFeed, WorldChange,
};
use proptest::collection::vec as prop_vec;
use proptest::prelude::*;

fn world(groups: usize, seed: u64) -> (Arc<RTree>, Vec<Vec<Trajectory>>) {
    let pois =
        clustered_pois(&PoiConfig { count: 900, domain: 2_000.0, ..PoiConfig::default() }, seed);
    let tree = Arc::new(RTree::bulk_load(&pois));
    let taxi =
        TaxiConfig { domain: 2_000.0, speed_limit: 8.0, timestamps: 220, ..TaxiConfig::default() };
    let fleet = (0..groups)
        .map(|g| (0..3).map(|i| taxi_trajectory(&taxi, seed + (g * 17 + i) as u64)).collect())
        .collect();
    (tree, fleet)
}

/// Every measure a [`MonitoringMetrics`] holds except the wall-clock time: the protocol
/// counters and the work counters of the computations.
#[derive(Debug, PartialEq, Eq)]
struct Counters {
    timestamps: usize,
    updates: usize,
    traffic: Traffic,
    stats: ComputeStats,
}

/// The original stateless monitoring loop, verbatim from the pre-refactor implementation:
/// per-update heading prediction, violation detection, step 1–3 message accounting, with the
/// server recomputing from scratch every time.  This is the parity baseline; it charges the
/// literal §7.1 costs (2 values per reported location, 1 per probe, meeting point + region
/// per notification) rather than naming `mpn-proto`'s definitions, so it pins them too.  It
/// runs to the end of the shortest recording; a caller that wants fewer timestamps passes
/// a truncated group ([`first`]).
fn legacy_run_monitoring(tree: &RTree, group: &[Trajectory], config: &MonitorConfig) -> Counters {
    let horizon = group.iter().map(Trajectory::len).min().unwrap_or(0);

    let mut timestamps = 0usize;
    let mut updates = 0usize;
    let mut stats = ComputeStats::default();
    let mut traffic = Traffic::default();
    let mut predictors: Vec<HeadingPredictor> =
        group.iter().map(|_| HeadingPredictor::new(config.heading_smoothing)).collect();

    let mut locations: Vec<Point> = group.iter().map(|t| t.at(0)).collect();
    for (predictor, location) in predictors.iter_mut().zip(&locations) {
        predictor.observe(*location);
    }
    for _ in group {
        traffic.record_uplink(2);
    }
    let headings: Vec<Option<f64>> = predictors.iter().map(HeadingPredictor::predicted).collect();
    let (method, objective) = (config.method, config.objective);
    let (mut answer, computed) = method.answer(tree, objective, &locations, Some(&headings));
    updates += 1;
    stats.absorb(&computed);
    for region in &answer.regions {
        traffic.record_downlink(2 + region_value_count(region, true));
    }

    for t in 1..horizon {
        timestamps += 1;
        locations.clear();
        locations.extend(group.iter().map(|traj| traj.at(t)));
        for (predictor, location) in predictors.iter_mut().zip(&locations) {
            predictor.observe(*location);
        }

        let violators = answer.leavers(&locations);
        if violators == 0 {
            continue;
        }
        for _ in 0..violators {
            traffic.record_uplink(2);
        }
        let others = group.len() - violators;
        for _ in 0..others {
            traffic.record_downlink(1);
            traffic.record_uplink(2);
        }
        let headings: Vec<Option<f64>> =
            predictors.iter().map(HeadingPredictor::predicted).collect();
        let computed;
        (answer, computed) = method.answer(tree, objective, &locations, Some(&headings));
        updates += 1;
        stats.absorb(&computed);
        for region in &answer.regions {
            traffic.record_downlink(2 + region_value_count(region, true));
        }
    }

    Counters { timestamps, updates, traffic, stats }
}

/// The first `n` timestamps of every user's recording.
fn first(group: &[Trajectory], n: usize) -> Vec<Trajectory> {
    group.iter().map(|t| Trajectory::new(t.points()[..n].to_vec())).collect()
}

/// Submits the next recorded epoch of every replay with one left to every engine (the
/// replays hold the same ids in each); `false` once every recording has run out.
fn submit_next(
    engines: &mut [&mut MonitoringEngine],
    replays: &mut [(usize, TrajectoryFeed)],
) -> bool {
    let mut fed = false;
    for (id, feed) in replays.iter_mut() {
        let Some(positions) = feed.next_epoch() else { continue };
        for engine in engines.iter_mut() {
            let update = EpochUpdate { group_id: *id, positions: positions.clone() };
            engine.submit(update).expect("a live replay");
        }
        fed = true;
    }
    fed
}

fn counters_of(metrics: &MonitoringMetrics) -> Counters {
    Counters {
        timestamps: metrics.timestamps,
        updates: metrics.updates,
        traffic: metrics.traffic,
        stats: metrics.stats,
    }
}

#[test]
fn wrapper_reproduces_the_legacy_loop_exactly_for_every_method() {
    let (tree, fleet) = world(1, 3);
    let group = &first(&fleet[0], 150);
    let theta = std::f64::consts::FRAC_PI_4;
    for objective in [Objective::Max, Objective::Sum] {
        for method in [
            Method::circle(),
            Method::tile(),
            Method::tile_directed(theta),
            Method::tile_directed_buffered(theta, 60),
        ] {
            let config = MonitorConfig::new(objective, method);
            let legacy = legacy_run_monitoring(&tree, group, &config);
            let session = run_monitoring(&tree, group, &config);
            assert_eq!(
                legacy,
                counters_of(&session),
                "{objective:?}/{} diverged from the legacy loop",
                method.name()
            );
        }
    }
}

/// The figures' contract: the per-group measures `run_workload` averages are, group by group
/// and in workload order, `run_monitoring`'s of that group, recordings of unequal length
/// included.  Every counter is compared bit for bit; only the wall-clock time differs.
#[test]
fn run_workload_per_group_equals_run_monitoring_of_each_group() {
    let (tree, fleet) = world(4, 13);
    let lengths = [120, 80, 150, 40];
    let workload =
        GroupWorkload::new(fleet.iter().zip(lengths).map(|(g, n)| first(g, n)).collect());
    let theta = std::f64::consts::FRAC_PI_4;
    for (objective, method) in [
        (Objective::Max, Method::circle()),
        (Objective::Sum, Method::tile()),
        (Objective::Max, Method::tile_directed_buffered(theta, 60)),
    ] {
        let config = MonitorConfig::new(objective, method);
        let summary = run_workload(&tree, &workload, &config);
        assert_eq!(summary.groups, lengths.len());
        let replayed: Vec<_> =
            workload.iter().map(|g| counters_of(&run_monitoring(&tree, g, &config))).collect();
        let per_group: Vec<_> = summary.per_group.iter().map(counters_of).collect();
        assert_eq!(per_group, replayed, "{objective:?}/{}", method.name());
    }
}

#[test]
fn engine_path_matches_the_wrapper_for_a_single_group() {
    let (tree, fleet) = world(1, 9);
    let config = MonitorConfig::new(Objective::Max, Method::tile_directed(0.8));
    let group = first(&fleet[0], 120);
    let wrapper = run_monitoring(&tree, &group, &config);

    let mut engine = MonitoringEngine::new(Arc::clone(&tree), 1);
    let mut replays = [(engine.register_stream(3, config), TrajectoryFeed::new(group))];
    while submit_next(&mut [&mut engine], &mut replays) {
        engine.tick();
    }
    // The engine serves this one group, so its fleet totals are the group's.
    assert_eq!(counters_of(&wrapper), counters_of(&engine.fleet_metrics()));
}

#[test]
fn streaming_submission_matches_the_feed_replay_epoch_for_epoch() {
    // The engine path — owned `EpochUpdate` batches submitted into a registered stream and
    // consumed by ticks — must be protocol-equivalent to a standalone session advanced on
    // the same recording: identical counters after every tick, for the legacy baseline too.
    let (tree, fleet) = world(1, 77);
    let group = &first(&fleet[0], 120);
    let config = MonitorConfig::new(Objective::Max, Method::tile());
    let legacy = legacy_run_monitoring(&tree, group, &config);

    let mut solo = GroupSession::streaming(group.len(), config);
    let mut solo_metrics = MonitoringMetrics::default();
    let mut stream = MonitoringEngine::new(Arc::clone(&tree), 1);
    let stream_id = stream.register_stream(group.len(), config);

    let mut source = TrajectoryFeed::from_group(group);
    for t in 0..120 {
        let positions = source.next_epoch().expect("the recording has 120 epochs");
        solo.submit(positions.clone());
        stream.submit(EpochUpdate { group_id: stream_id, positions }).expect("live group");
        let outcome = solo.advance(&*tree, &mut solo_metrics);
        let summary = stream.tick();
        assert_eq!((summary.advanced, summary.starved), (1, 0), "tick {t}");
        assert_eq!(summary.registered, usize::from(outcome == StepOutcome::Registered));
        assert_eq!(summary.updated, usize::from(matches!(outcome, StepOutcome::Updated { .. })));
        let streamed = counters_of(&stream.fleet_metrics());
        assert_eq!(counters_of(&solo_metrics), streamed, "tick {t}");
    }
    assert!(source.next_epoch().is_none(), "the whole recording was replayed");
    assert_eq!(legacy, counters_of(&solo_metrics));
}

#[test]
fn eight_group_tick_matches_eight_serial_runs() {
    let (tree, fleet) = world(8, 21);
    let config = MonitorConfig::new(Objective::Max, Method::tile());
    let fleet: Vec<_> = fleet.iter().map(|g| first(g, 100)).collect();

    let mut serial = MonitoringMetrics::default();
    for group in &fleet {
        serial.absorb(&run_monitoring(&tree, group, &config));
    }
    // Each group on its own, through an engine of its own: the events every tick sends it.
    let alone: Vec<Vec<Vec<SessionEvent>>> =
        fleet.iter().map(|g| events_alone(&tree, g, config)).collect();

    let mut engine = MonitoringEngine::new(Arc::clone(&tree), 1);
    let mut replays: Vec<_> = fleet
        .iter()
        .map(|g| (engine.register_session(logged(g.len(), config)), TrajectoryFeed::from_group(g)))
        .collect();
    let ids: Vec<GroupId> = replays.iter().map(|(id, _)| *id).collect();
    assert!(engine.group_count() >= 8, "the fleet must exercise at least 8 concurrent groups");

    // Drive the fleet tick by tick (each tick advances all 8 groups): every tick sends each
    // group what that group's own engine sent it on the same tick.
    let mut ticks = 0;
    while submit_next(&mut [&mut engine], &mut replays) {
        let mut sent = vec![Vec::new(); ids.len()];
        let summary = engine.tick_with(&mut |id, event| sent[id].push(event));
        assert!(summary.advanced <= 8);
        for (id, events) in sent.into_iter().enumerate() {
            assert_eq!(events, alone[id][ticks], "group {id} diverged at tick {ticks}");
        }
        ticks += 1;
    }
    assert_eq!(ticks, 100);

    // Fleet aggregation is the sum of the parts.
    assert_eq!(counters_of(&engine.fleet_metrics()), counters_of(&serial));
}

/// A streaming session of `size` users whose ticks send its protocol events.
fn logged(size: usize, config: MonitorConfig) -> GroupSession {
    GroupSession::streaming(size, config).with_events(true)
}

/// `group`'s recording replayed alone through an engine of its own: the events each tick
/// sent it.
fn events_alone(
    tree: &Arc<RTree>,
    group: &[Trajectory],
    config: MonitorConfig,
) -> Vec<Vec<SessionEvent>> {
    let mut engine = MonitoringEngine::new(Arc::clone(tree), 1);
    let mut replays =
        [(engine.register_session(logged(group.len(), config)), TrajectoryFeed::from_group(group))];
    let mut ticks = Vec::new();
    while submit_next(&mut [&mut engine], &mut replays) {
        let mut sent = Vec::new();
        engine.tick_with(&mut |_, event| sent.push(event));
        ticks.push(sent);
    }
    ticks
}

/// `tick_with` is the one body of a tick and `tick` + `drain_events` collect what it sends:
/// the two must agree event for event, with world-change pushes logged before the tick merged
/// in, also for a group that is pushed to and advances in the same tick.
#[test]
fn streamed_ticks_send_what_collected_ticks_drain() {
    let (tree, fleet) = world(6, 91);
    let config = MonitorConfig::new(Objective::Max, Method::circle());
    let mut streamed = MonitoringEngine::new(Arc::clone(&tree), 1);
    let mut collected = MonitoringEngine::new(Arc::clone(&tree), 1);
    let mut replays = Vec::new();
    for group in &fleet {
        let session = || GroupSession::streaming(group.len(), config).with_events(true);
        let id = streamed.register_session(session());
        assert_eq!(collected.register_session(session()), id);
        replays.push((id, TrajectoryFeed::new(first(group, 60))));
    }
    let (mut ticks, mut pushed_and_advanced) = (0, 0);
    while submit_next(&mut [&mut streamed, &mut collected], &mut replays) {
        let mut pushed = Vec::new();
        if ticks % 3 == 1 {
            // Two passes before the tick: the optimum of a late group, then of an early
            // one, so the logged pushes are not in id order as a whole.
            for id in [(ticks + 3) % fleet.len(), ticks % 3] {
                let answer = streamed.group(id).session_state().last_answer();
                let poi = answer.expect("registered").optimal_index;
                let change = WorldChange::PoiDelete { poi };
                // Generations are process-unique stamps: compare what the change did.
                let summary = streamed.apply_world_change(change);
                assert_eq!(collected.apply_world_change(change).affected, summary.affected);
                pushed.extend(summary.affected);
            }
        }
        let mut sent = Vec::new();
        let summary = streamed.tick_with(&mut |id, event| sent.push((id, event)));
        assert_eq!(summary, collected.tick(), "tick {ticks}");
        let drained = collected.drain_events();
        assert_eq!(sent, drained, "tick {ticks}: the events diverged");
        assert!(sent.windows(2).all(|w| w[0].0 <= w[1].0), "events out of id order");
        let size = fleet[0].len();
        pushed_and_advanced += pushed
            .iter()
            .filter(|&&id| sent.iter().filter(|(of, _)| *of == id).count() > size)
            .count();
        ticks += 1;
    }
    assert!(pushed_and_advanced > 0, "no group was pushed to and updated in one tick");
    assert!(streamed.drain_events().is_empty(), "a streamed tick leaves nothing behind");
}

/// Small-world fleet for the oracle property test: `sizes[g]` users per group, all with
/// recordings of the same short length, over a modest clustered POI set.
fn skewed_fleet(sizes: &[usize], timestamps: usize) -> (Arc<RTree>, Vec<Vec<Trajectory>>) {
    let pois = clustered_pois(&PoiConfig { count: 150, domain: 500.0, ..PoiConfig::default() }, 71);
    let tree = Arc::new(RTree::bulk_load(&pois));
    let config = WaypointConfig { domain: 500.0, speed_limit: 7.0, timestamps };
    let fleet = sizes
        .iter()
        .enumerate()
        .map(|(g, &size)| {
            (0..size).map(|i| random_waypoint(&config, (g * 31 + i) as u64)).collect()
        })
        .collect();
    (tree, fleet)
}

/// A serial "walk everything" oracle: the engine's semantics re-implemented as the plainest
/// possible loop — one [`WorldView`], one `Vec<Option<GroupSession>>` indexed by group id,
/// every session asked (and advanced when it has an epoch) on every tick.  No ready list, no
/// maintained tallies.  The ready list may only change which sessions a tick touches, never a counter;
/// this oracle is what "never a counter" is measured against.
struct WalkEverythingOracle {
    world: WorldView,
    sessions: Vec<Option<GroupSession>>,
    /// What every advance and forced recompute of every session measured.
    metrics: MonitoringMetrics,
    /// The users of every registration.
    users: usize,
    clock: usize,
}

impl WalkEverythingOracle {
    fn new(tree: &Arc<RTree>) -> Self {
        Self {
            world: WorldView::new(Arc::clone(tree)),
            sessions: Vec::new(),
            metrics: MonitoringMetrics::default(),
            users: 0,
            clock: 0,
        }
    }

    /// Mirrors an engine registration: the engine assigned `id`, the oracle stores the twin
    /// session under the same index (reusing the slot of a deregistered id exactly like the
    /// engine's free-list does).
    fn register(&mut self, id: usize, session: GroupSession) {
        self.users += session.group_size();
        if id == self.sessions.len() {
            self.sessions.push(Some(session));
        } else {
            let slot = &mut self.sessions[id];
            assert!(slot.is_none(), "the engine only reuses deregistered ids");
            *slot = Some(session);
        }
    }

    fn deregister(&mut self, id: usize) -> bool {
        self.sessions[id].take().is_some()
    }

    fn tick(&mut self) -> TickSummary {
        let mut tally = TickSummary::default();
        let view = self.world.view();
        for slot in &mut self.sessions {
            let Some(session) = slot else { continue };
            match session.advance(view, &mut self.metrics) {
                StepOutcome::Starved => tally.starved += 1,
                StepOutcome::Registered => {
                    tally.advanced += 1;
                    tally.registered += 1;
                }
                StepOutcome::Quiet => tally.advanced += 1,
                StepOutcome::Updated { violators } => {
                    tally.advanced += 1;
                    tally.updated += 1;
                    tally.violators += violators;
                }
            }
        }
        tally.retired = self.sessions.iter().filter(|s| s.is_none()).count();
        tally.tick = self.clock;
        self.clock += 1;
        tally
    }

    /// Mirrors `apply_world_change`: `(applied, groups checked, affected ids)`.
    fn apply(&mut self, change: WorldChange) -> (bool, usize, Vec<usize>) {
        let applied = match change {
            WorldChange::PoiInsert { location } => {
                self.world.insert(location);
                true
            }
            WorldChange::PoiDelete { poi } => self.world.delete(poi).is_some(),
        };
        if !applied {
            return (false, 0, Vec::new());
        }
        let view = self.world.view();
        let mut checked = 0usize;
        let mut affected = Vec::new();
        for (id, slot) in self.sessions.iter_mut().enumerate() {
            let Some(session) = slot else { continue };
            checked += 1;
            if session.world_change_invalidates(&change)
                && session.force_recompute(view, &mut self.metrics)
            {
                affected.push(id);
            }
        }
        (true, checked, affected)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // Report-driven ticks — a ready list of the ids with a submitted epoch, the starved
    // tally derived from it, an id-indexed slab with free-list reuse, per-thread query
    // scratch — must be invisible in every protocol counter.  A scripted fleet mixing
    // replays (whose recordings run out mid-run, after which they starve), streams (which
    // starve whenever the script withholds their epoch, and sometimes get two in one step, so a backlog
    // outlives a tick), churn (deregistering replays and streams, some with an epoch still
    // queued, and replays reusing the freed ids in the same step) and POI world mutation
    // runs side by side with the serial walk-everything oracle; every tick summary, every
    // invalidation result and the fleet totals after every tick must be identical.
    #[test]
    fn hot_cold_engine_matches_the_walk_everything_oracle(
        replay_sizes in prop_vec(1usize..=3, 1..6),
        stream_sizes in prop_vec(1usize..=3, 0..3),
        script in prop_vec(0usize..256, 10..17),
    ) {
        const HORIZON: usize = 8;
        let (tree, fleet) = skewed_fleet(&replay_sizes, 24);
        let config = MonitorConfig::new(Objective::Max, Method::circle());

        let mut engine = MonitoringEngine::new(Arc::clone(&tree), 1);
        let mut oracle = WalkEverythingOracle::new(&tree);

        let mut replays = Vec::new();
        for group in &fleet {
            let id = engine.register_stream(group.len(), config);
            oracle.register(id, GroupSession::streaming(group.len(), config));
            replays.push((id, TrajectoryFeed::new(first(group, HORIZON))));
        }
        let mut stream_ids = Vec::new();
        for &size in &stream_sizes {
            let id = engine.register_stream(size, config);
            oracle.register(id, GroupSession::streaming(size, config));
            stream_ids.push((id, size));
        }

        for (t, &op) in script.iter().enumerate() {
            // Feed roughly half the streams' ticks, a third of those twice: the withheld
            // ticks starve the streams, the doubled ones leave an epoch queued past the tick.
            for (i, &(id, size)) in stream_ids.iter().enumerate() {
                if (op >> (i % 8)) & 1 != 0 {
                    continue;
                }
                for k in 0..1 + usize::from(op % 3 == 0) {
                    let positions: Vec<Point> = (0..size)
                        .map(|u| Point::new(
                            40.0 + ((t * 13 + k * 5 + u * 7 + i * 3) % 400) as f64,
                            60.0 + ((t * 29 + k * 17 + u * 11) % 400) as f64,
                        ))
                        .collect();
                    engine
                        .submit(EpochUpdate { group_id: id, positions: positions.clone() })
                        .expect("streams take every epoch");
                    oracle.sessions[id]
                        .as_mut()
                        .expect("oracle mirrors the engine's membership")
                        .submit(positions);
                }
            }

            // Churn: deregister any group — a stream may leave with its epoch still queued —
            // then maybe register a replay, which reuses the freed id.
            if op % 7 == 0 {
                let id = (op / 7) % oracle.sessions.len();
                let engine_removed = engine.deregister(id).is_some();
                let oracle_removed = oracle.deregister(id);
                prop_assert_eq!(engine_removed, oracle_removed, "deregister({}) diverged", id);
                stream_ids.retain(|&(sid, _)| sid != id);
                replays.retain(|(rid, _)| *rid != id);
            }
            if op % 11 == 0 {
                let group = &fleet[op % fleet.len()];
                let id = engine.register_stream(group.len(), config);
                oracle.register(id, GroupSession::streaming(group.len(), config));
                replays.push((id, TrajectoryFeed::new(first(group, 4))));
            }

            // Every replay with an epoch left reports, a newly registered one included.
            for (id, feed) in &mut replays {
                let Some(positions) = feed.next_epoch() else { continue };
                let twin = oracle.sessions[*id].as_mut().expect("replays are registered");
                twin.submit(positions.clone());
                engine
                    .submit(EpochUpdate { group_id: *id, positions })
                    .expect("a registered replay takes its next epoch");
            }

            // World mutation: inserts and (sometimes unknown) deletes.
            if op % 5 == 0 {
                let change = if op % 2 == 0 {
                    WorldChange::PoiInsert {
                        location: Point::new(
                            ((op * 17 + t * 41) % 500) as f64,
                            ((op * 23 + t * 37) % 500) as f64,
                        ),
                    }
                } else {
                    WorldChange::PoiDelete { poi: (op * 13 + t) % 170 }
                };
                let summary = engine.apply_world_change(change);
                let (applied, checked, affected) = oracle.apply(change);
                prop_assert_eq!(summary.applied, applied, "tick {}: applied diverged", t);
                prop_assert_eq!(summary.groups_checked, checked, "tick {}: checked diverged", t);
                prop_assert_eq!(summary.invalidated, affected.len());
                prop_assert_eq!(summary.affected, affected, "tick {}: affected ids diverged", t);
            }

            let a = engine.tick();
            let b = oracle.tick();
            prop_assert_eq!(a, b, "tick {} diverged from the walk-everything oracle", t);

            // The fleet totals (live and departed groups) after every tick.
            let fleet_metrics = engine.fleet_metrics();
            prop_assert_eq!(
                counters_of(&fleet_metrics),
                counters_of(&oracle.metrics),
                "tick {}: the fleet totals diverged", t
            );
            prop_assert_eq!(fleet_metrics.group_size, oracle.users, "tick {}", t);
        }
    }
}
