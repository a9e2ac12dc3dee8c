//! Parity and concurrency tests for the stateful monitoring engine.
//!
//! The refactor to `GroupSession` / `MonitoringEngine` must not change what the paper
//! measures: this file replays the *legacy* stateless monitoring loop (the exact algorithm of
//! the original `run_monitoring`, re-implemented here as the baseline) and asserts that
//!
//! * the compatibility wrapper — a recording submitted epoch by epoch into one streaming
//!   session, like any client — reproduces its updates, packets and work counters exactly,
//! * a parallel multi-group tick equals the serial single-group replays,
//! * the engine path (`register_stream` + `EpochUpdate` submission) produces the same
//!   counters as a standalone session fed the same recording, epoch for epoch,
//! * an engine with several workers — one chunk per worker, or stolen session batches —
//!   produces the same fleet `TickSummary` sequence **and the same events in the same
//!   order** as a one-worker inline engine,
//! * the report-driven engine — a ready list of the groups with a submitted epoch, sorted
//!   and advanced per tick, maintained finished / starved tallies — matches a serial
//!   walk-everything oracle tick for tick across churn (deregistering groups with queued
//!   epochs, reusing their ids in the same step), starvation, backlogs, batch sizes and
//!   world mutation,
//! * persistent §5.4 buffers strictly reduce R-tree queries per update for `Tile-D-b`.

use std::sync::Arc;

use mpn::core::{region_value_count, Method, MpnServer, Objective};
use mpn::geom::{HeadingPredictor, Point};
use mpn::index::WorldView;
use mpn::index::{QueryCache, RTree};
use mpn::mobility::poi::{clustered_pois, PoiConfig};
use mpn::mobility::waypoint::{random_waypoint, taxi_trajectory, TaxiConfig, WaypointConfig};
use mpn::mobility::Trajectory;
use mpn::sim::{
    run_monitoring, EpochUpdate, GroupSession, MonitorConfig, MonitoringEngine, MonitoringMetrics,
    StepOutcome, TickExecutor, TickSummary, Traffic, TrajectoryFeed, WorldChange,
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

/// The protocol counters a monitoring run produces (everything except wall-clock times).
#[derive(Debug, PartialEq, Eq)]
struct Counters {
    timestamps: usize,
    updates: usize,
    traffic: Traffic,
    stats: mpn::core::ComputeStats,
}

/// The original stateless monitoring loop, verbatim from the pre-refactor implementation:
/// per-update heading prediction, violation detection, step 1–3 message accounting, with the
/// server recomputing from scratch every time.  This is the parity baseline; it charges the
/// literal §7.1 costs (2 values per reported location, 1 per probe, meeting point + region
/// per notification) rather than naming `mpn-proto`'s definitions, so it pins them too.
fn legacy_run_monitoring(tree: &RTree, group: &[Trajectory], config: &MonitorConfig) -> Counters {
    let horizon = group.iter().map(Trajectory::len).min().unwrap_or(0);
    let horizon = config.max_timestamps.map_or(horizon, |cap| horizon.min(cap));
    let server = MpnServer::new(tree, config.objective, config.method);

    let mut timestamps = 0usize;
    let mut updates = 0usize;
    let mut stats = mpn::core::ComputeStats::default();
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
    let mut answer = server.compute_with_headings(&locations, Some(&headings));
    updates += 1;
    stats.absorb(&answer.stats);
    for region in &answer.regions {
        traffic.record_downlink(2 + region_value_count(region, config.compress_regions));
    }

    for t in 1..horizon {
        timestamps += 1;
        locations.clear();
        locations.extend(group.iter().map(|traj| traj.at(t)));
        for (predictor, location) in predictors.iter_mut().zip(&locations) {
            predictor.observe(*location);
        }

        let violators = answer.violators(&locations);
        if violators.is_empty() {
            continue;
        }
        for _ in &violators {
            traffic.record_uplink(2);
        }
        let others = group.len() - violators.len();
        for _ in 0..others {
            traffic.record_downlink(1);
            traffic.record_uplink(2);
        }
        let headings: Vec<Option<f64>> =
            predictors.iter().map(HeadingPredictor::predicted).collect();
        answer = server.compute_with_headings(&locations, Some(&headings));
        updates += 1;
        stats.absorb(&answer.stats);
        for region in &answer.regions {
            traffic.record_downlink(2 + region_value_count(region, config.compress_regions));
        }
    }

    Counters { timestamps, updates, traffic, stats }
}

/// A recording replayed as a client: the feed it submits from and the configuration its
/// stream is registered with (capped at the recording).
fn replay(group: &[Trajectory], config: MonitorConfig) -> (TrajectoryFeed, MonitorConfig) {
    let feed = TrajectoryFeed::from_group(group);
    let capped = feed.capped(config);
    (feed, capped)
}

/// Submits the next recorded epoch of every unfinished replay to every engine (the replays
/// hold the same ids in each).
fn submit_next(engines: &mut [&mut MonitoringEngine], replays: &mut [(usize, TrajectoryFeed)]) {
    for (id, feed) in replays.iter_mut() {
        if engines[0].group(*id).is_finished() {
            continue;
        }
        let positions = feed.next_epoch().expect("the cap is within the recording");
        for engine in engines.iter_mut() {
            let update = EpochUpdate { group_id: *id, positions: positions.clone() };
            engine.submit(update).expect("a live replay");
        }
    }
}

fn counters_of(metrics: &mpn::sim::MonitoringMetrics) -> Counters {
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
    let group = &fleet[0];
    let theta = std::f64::consts::FRAC_PI_4;
    for objective in [Objective::Max, Objective::Sum] {
        for method in [
            Method::circle(),
            Method::tile(),
            Method::tile_directed(theta),
            Method::tile_directed_buffered(theta, 60),
        ] {
            let config = MonitorConfig::new(objective, method).with_max_timestamps(150);
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

#[test]
fn engine_path_matches_the_wrapper_for_a_single_group() {
    let (tree, fleet) = world(1, 9);
    let config =
        MonitorConfig::new(Objective::Max, Method::tile_directed(0.8)).with_max_timestamps(120);
    let wrapper = run_monitoring(&tree, &fleet[0], &config);

    let mut engine = MonitoringEngine::new(Arc::clone(&tree), 4);
    let (feed, capped) = replay(&fleet[0], config);
    let mut replays = [(engine.register_stream(3, capped), feed)];
    while !engine.is_finished() {
        submit_next(&mut [&mut engine], &mut replays);
        engine.tick();
    }
    assert_eq!(counters_of(&wrapper), counters_of(engine.group_metrics(replays[0].0)));
}

#[test]
fn streaming_submission_matches_the_feed_replay_epoch_for_epoch() {
    // The engine path — owned `EpochUpdate` batches submitted into a registered stream and
    // consumed by ticks — must be protocol-equivalent to a standalone session advanced on
    // the same recording: identical counters after every tick, for the legacy baseline too.
    let (tree, fleet) = world(1, 77);
    let group = &fleet[0];
    let config = MonitorConfig::new(Objective::Max, Method::tile()).with_max_timestamps(120);
    let legacy = legacy_run_monitoring(&tree, group, &config);

    let mut solo = GroupSession::streaming(group.len(), config);
    let mut stream = MonitoringEngine::new(Arc::clone(&tree), 2);
    let stream_id = stream.register_stream(group.len(), config);

    let mut source = TrajectoryFeed::from_group(group);
    for t in 0..120 {
        let positions = source.next_epoch().expect("the recording covers the horizon");
        solo.submit(positions.clone());
        stream.submit(EpochUpdate { group_id: stream_id, positions }).expect("live group");
        let outcome = solo.advance(&*tree);
        let summary = stream.tick();
        assert_eq!((summary.advanced, summary.starved), (1, 0), "tick {t}");
        assert_eq!(summary.registered, usize::from(outcome == StepOutcome::Registered));
        assert_eq!(summary.updated, usize::from(matches!(outcome, StepOutcome::Updated { .. })));
        assert_eq!(counters_of(solo.metrics()), counters_of(stream.group_metrics(stream_id)));
    }
    assert!(solo.is_finished() && stream.is_finished());
    assert_eq!(legacy, counters_of(stream.group_metrics(stream_id)));
}

#[test]
fn parallel_eight_group_tick_matches_eight_serial_runs() {
    let (tree, fleet) = world(8, 21);
    let config = MonitorConfig::new(Objective::Max, Method::tile()).with_max_timestamps(100);

    let serial: Vec<Counters> =
        fleet.iter().map(|g| counters_of(&run_monitoring(&tree, g, &config))).collect();

    let mut engine = MonitoringEngine::new(Arc::clone(&tree), 8);
    assert_eq!(engine.worker_count(), 8);
    let mut replays: Vec<_> = fleet
        .iter()
        .map(|g| {
            let (feed, capped) = replay(g, config);
            (engine.register_stream(g.len(), capped), feed)
        })
        .collect();
    let ids: Vec<_> = replays.iter().map(|(id, _)| *id).collect();
    assert!(engine.group_count() >= 8, "the fleet must exercise at least 8 concurrent groups");

    // Drive the fleet tick by tick (each tick advances all 8 groups on 8 threads).
    let mut ticks = 0;
    while !engine.is_finished() {
        submit_next(&mut [&mut engine], &mut replays);
        let summary = engine.tick();
        assert!(summary.advanced <= 8);
        ticks += 1;
    }
    assert_eq!(ticks, 100);

    for (id, expected) in ids.iter().zip(&serial) {
        assert_eq!(expected, &counters_of(engine.group_metrics(*id)), "group {id} diverged");
    }

    // Fleet aggregation is the sum of the parts.
    let fleet_metrics = engine.fleet_metrics();
    assert_eq!(fleet_metrics.updates, serial.iter().map(|c| c.updates).sum::<usize>());
    assert_eq!(
        fleet_metrics.traffic.packets,
        serial.iter().map(|c| c.traffic.packets).sum::<usize>()
    );
}

#[test]
fn pool_executor_matches_the_single_shard_engine_tick_for_tick() {
    // The test keeps its historical name: the one-worker engine is what a single shard was.
    let (tree, fleet) = world(8, 57);
    let config = MonitorConfig::new(Objective::Max, Method::tile()).with_max_timestamps(100);

    let mut pool = MonitoringEngine::with_executor(Arc::clone(&tree), 4, TickExecutor::WorkerPool);
    let mut inline = MonitoringEngine::new(Arc::clone(&tree), 1);
    assert_eq!(pool.executor(), TickExecutor::WorkerPool);
    assert_eq!((pool.worker_count(), inline.worker_count()), (4, 1));
    let mut replays = Vec::new();
    for group in &fleet {
        let (feed, capped) = replay(group, config);
        let session = || GroupSession::streaming(group.len(), capped).with_events(true);
        let id = pool.register_session(session());
        assert_eq!(inline.register_session(session()), id);
        replays.push((id, feed));
    }

    let mut ticks = 0;
    while !pool.is_finished() {
        submit_next(&mut [&mut pool, &mut inline], &mut replays);
        assert_eq!(pool.tick(), inline.tick(), "tick {ticks}: the pool changed a fleet summary");
        assert_eq!(
            pool.drain_events(),
            inline.drain_events(),
            "tick {ticks}: the pool changed an event or the ascending-id order"
        );
        ticks += 1;
    }
    assert_eq!(ticks, 100);
    assert!(inline.is_finished());
    for id in 0..fleet.len() {
        assert_eq!(
            counters_of(pool.group_metrics(id)),
            counters_of(inline.group_metrics(id)),
            "group {id} diverged between the pooled and the inline engine"
        );
    }
}

/// Small-world fleet for the steal-path property test: `sizes[g]` users per group, all with
/// the same short bounded horizon, over a modest clustered POI set.
fn skewed_fleet(sizes: &[usize], horizon: usize) -> (Arc<RTree>, Vec<Vec<Trajectory>>) {
    let pois = clustered_pois(&PoiConfig { count: 150, domain: 500.0, ..PoiConfig::default() }, 71);
    let tree = Arc::new(RTree::bulk_load(&pois));
    let config = WaypointConfig { domain: 500.0, speed_limit: 7.0, timestamps: horizon };
    let fleet = sizes
        .iter()
        .enumerate()
        .map(|(g, &size)| {
            (0..size).map(|i| random_waypoint(&config, (g * 31 + i) as u64)).collect()
        })
        .collect();
    (tree, fleet)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // The work-stealing executor — session batches, stolen across workers, through the
    // shared query cache — must produce the *exact* tick-summary sequence and per-group
    // counters *and the exact event sequence* of a one-worker inline engine (what a single
    // shard was), for any worker count, any (skewed) batch size and any skewed mix of group
    // sizes.  Stealing and caching may only change the schedule, never a counter or an event.
    #[test]
    fn stealing_ticks_match_a_single_shard_engine_for_any_skew(
        workers in 1usize..=8,
        batch in 1usize..=8,
        sizes in prop_vec(1usize..=4, 1..11),
    ) {
        const HORIZON: usize = 12;
        let (tree, fleet) = skewed_fleet(&sizes, HORIZON);
        let config = MonitorConfig::new(Objective::Max, Method::circle())
            .with_max_timestamps(HORIZON);

        let mut stealing = MonitoringEngine::with_executor(
            Arc::clone(&tree),
            workers,
            TickExecutor::WorkStealing { batch },
        )
        .with_query_cache(QueryCache::new());
        let mut inline = MonitoringEngine::new(Arc::clone(&tree), 1);
        let mut replays = Vec::new();
        for group in &fleet {
            let (feed, capped) = replay(group, config);
            let session = || GroupSession::streaming(group.len(), capped).with_events(true);
            let id = stealing.register_session(session());
            prop_assert_eq!(inline.register_session(session()), id);
            replays.push((id, feed));
        }

        let mut guard = 0usize;
        while !stealing.is_finished() {
            submit_next(&mut [&mut stealing, &mut inline], &mut replays);
            let a = stealing.tick();
            let b = inline.tick();
            prop_assert_eq!(a, b, "tick {} diverged under stealing", guard);
            prop_assert_eq!(
                stealing.drain_events(),
                inline.drain_events(),
                "tick {}: events diverged under stealing", guard
            );
            guard += 1;
            prop_assert!(guard <= HORIZON, "bounded fleets finish within their horizon");
        }
        prop_assert!(inline.is_finished());
        for id in 0..fleet.len() {
            prop_assert_eq!(
                counters_of(stealing.group_metrics(id)),
                counters_of(inline.group_metrics(id)),
                "group {} diverged from the inline engine", id
            );
        }
        // The cache saw every query of the run (each tick's lookups are hits + misses).
        let totals = stealing.exec_totals();
        prop_assert!(totals.cache_misses > 0, "a fresh cache cannot serve only hits");
        prop_assert!(totals.batches > 0, "every live tick dispatches at least one batch");
    }
}

/// A serial "walk everything" oracle: the engine's semantics re-implemented as the plainest
/// possible loop — one [`WorldView`], one `Vec<Option<GroupSession>>` indexed by group id,
/// every session asked (and advanced when live) on every tick.  No ready list, no maintained
/// tallies, no executor, no query cache.  The ready list may only change which sessions a
/// tick touches, never a counter; this oracle is what "never a counter" is measured against.
struct WalkEverythingOracle {
    world: WorldView,
    sessions: Vec<Option<GroupSession>>,
    retired: Vec<MonitoringMetrics>,
    clock: usize,
}

impl WalkEverythingOracle {
    fn new(tree: &Arc<RTree>) -> Self {
        Self {
            world: WorldView::new(Arc::clone(tree)),
            sessions: Vec::new(),
            retired: Vec::new(),
            clock: 0,
        }
    }

    /// Mirrors an engine registration: the engine assigned `id`, the oracle stores the twin
    /// session under the same index (reusing the slot of a deregistered id exactly like the
    /// engine's free-list does).
    fn register(&mut self, id: usize, session: GroupSession) {
        if id == self.sessions.len() {
            self.sessions.push(Some(session));
        } else {
            let slot = &mut self.sessions[id];
            assert!(slot.is_none(), "the engine only reuses deregistered ids");
            *slot = Some(session);
        }
    }

    fn deregister(&mut self, id: usize) -> bool {
        match self.sessions[id].take() {
            Some(session) => {
                self.retired.push(session.into_metrics());
                true
            }
            None => false,
        }
    }

    fn tick(&mut self) -> TickSummary {
        let mut tally = TickSummary::default();
        let view = self.world.view();
        for slot in &mut self.sessions {
            let Some(session) = slot else { continue };
            if session.is_finished() {
                tally.finished += 1;
                continue;
            }
            match session.advance(view) {
                StepOutcome::Finished => {}
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
            if session.is_finished() {
                tally.finished += 1;
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
            if session.world_change_invalidates(&change) && session.force_recompute(view) {
                affected.push(id);
            }
        }
        self.world.maybe_compact();
        (true, checked, affected)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // Report-driven ticks — a ready list of the ids with a submitted epoch, maintained
    // finished / starved tallies, an id-indexed slab with free-list reuse, per-worker query
    // scratch — must be invisible in every protocol counter.  A scripted fleet mixing
    // bounded replays (which finish mid-run), open-horizon streams (which starve whenever
    // the script withholds their epoch, and sometimes get two in one step, so a backlog
    // outlives a tick), churn (deregistering replays and streams, some with an epoch still
    // queued, and replays reusing the freed ids in the same step) and POI world mutation
    // runs side by side with the serial walk-everything oracle; every tick summary, every
    // invalidation result and every per-group counter must be identical.
    #[test]
    fn hot_cold_engine_matches_the_walk_everything_oracle(
        workers in 1usize..=4,
        batch in 1usize..=8,
        replay_sizes in prop_vec(1usize..=3, 1..6),
        stream_sizes in prop_vec(1usize..=3, 0..3),
        script in prop_vec(0usize..256, 10..17),
    ) {
        const HORIZON: usize = 8;
        let (tree, fleet) = skewed_fleet(&replay_sizes, 24);
        let replay_config = MonitorConfig::new(Objective::Max, Method::circle())
            .with_max_timestamps(HORIZON);
        let stream_config = MonitorConfig::new(Objective::Max, Method::circle());

        let mut engine = MonitoringEngine::with_executor(
            Arc::clone(&tree),
            workers,
            TickExecutor::WorkStealing { batch },
        )
        .with_query_cache(QueryCache::new());
        let mut oracle = WalkEverythingOracle::new(&tree);

        let mut replays = Vec::new();
        for group in &fleet {
            let (feed, capped) = replay(group, replay_config);
            let id = engine.register_stream(group.len(), capped);
            oracle.register(id, GroupSession::streaming(group.len(), capped));
            replays.push((id, feed));
        }
        let mut stream_ids = Vec::new();
        for &size in &stream_sizes {
            let id = engine.register_stream(size, stream_config);
            oracle.register(id, GroupSession::streaming(size, stream_config));
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
                        .expect("open-horizon streams take every epoch");
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
                let config = MonitorConfig::new(Objective::Max, Method::circle())
                    .with_max_timestamps(4);
                let (feed, capped) = replay(group, config);
                let id = engine.register_stream(group.len(), capped);
                oracle.register(id, GroupSession::streaming(group.len(), capped));
                replays.push((id, feed));
            }

            // Every unfinished replay reports, a newly registered one included.
            for (id, feed) in &mut replays {
                let twin = oracle.sessions[*id].as_mut().expect("replays are registered");
                if twin.is_finished() {
                    continue;
                }
                let positions = feed.next_epoch().expect("the cap is within the recording");
                twin.submit(positions.clone());
                engine
                    .submit(EpochUpdate { group_id: *id, positions })
                    .expect("an unfinished replay takes its next epoch");
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
        }

        // Every surviving group's counters, and the fleet-wide totals (live + departed),
        // must match the oracle's.
        for (id, slot) in oracle.sessions.iter().enumerate() {
            if let Some(session) = slot {
                prop_assert_eq!(
                    counters_of(engine.group_metrics(id)),
                    counters_of(session.metrics()),
                    "group {} diverged from its oracle twin", id
                );
            }
        }
        let fleet_metrics = engine.fleet_metrics();
        let oracle_all: Vec<&MonitoringMetrics> = oracle
            .sessions
            .iter()
            .filter_map(|s| s.as_ref().map(GroupSession::metrics))
            .chain(oracle.retired.iter())
            .collect();
        prop_assert_eq!(
            fleet_metrics.updates,
            oracle_all.iter().map(|m| m.updates).sum::<usize>()
        );
        prop_assert_eq!(
            fleet_metrics.timestamps,
            oracle_all.iter().map(|m| m.timestamps).sum::<usize>()
        );
        prop_assert_eq!(
            fleet_metrics.traffic.packets,
            oracle_all.iter().map(|m| m.traffic.packets).sum::<usize>()
        );
        prop_assert_eq!(
            fleet_metrics.group_size,
            oracle_all.iter().map(|m| m.group_size).sum::<usize>()
        );
    }
}

#[test]
fn persistent_buffers_cut_tile_d_b_index_work_versus_the_stateless_path() {
    let (tree, fleet) = world(1, 33);
    let base = MonitorConfig::new(Objective::Max, Method::tile_directed_buffered(0.8, 100))
        .with_max_timestamps(200);

    let stateless = run_monitoring(&tree, &fleet[0], &base);
    let stateful = run_monitoring(&tree, &fleet[0], &base.with_persistent_buffers(true));

    let stateless_q = stateless.stats.rtree_queries as f64 / stateless.updates as f64;
    let stateful_q = stateful.stats.rtree_queries as f64 / stateful.updates as f64;
    assert!(
        stateful_q < stateless_q,
        "persistent buffers must reduce R-tree queries per update ({stateful_q:.2} vs {stateless_q:.2})"
    );
    // The stateless buffered path issues exactly two queries per update (seed + buffer).
    assert!((stateless_q - 2.0).abs() < 1e-9);
}
