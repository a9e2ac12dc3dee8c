//! Regression tests for concrete inputs that once exposed bugs (found by the property tests),
//! and for behaviors whose documentation once disagreed with the code.

use std::sync::Arc;

use mpn::core::{Method, Objective, SafeRegion};
use mpn::geom::Point;
use mpn::index::RTree;
use mpn::mobility::waypoint::{random_waypoint, WaypointConfig};
use mpn::mobility::Trajectory;
use mpn::proto::{
    AdminRequest, NotificationKind, Request, Response, WireConfig, MAX_FRAME_LEN,
    MAX_REPORT_POSITIONS,
};
use mpn::sim::{
    EpochUpdate, GroupSession, MonitorConfig, MonitoringEngine, ServerCore, TickSummary,
    TrajectoryFeed,
};

/// Submits the next recorded epoch of every unfinished replay, then ticks.
fn replay_tick(
    engine: &mut MonitoringEngine,
    replays: &mut [(usize, TrajectoryFeed)],
) -> TickSummary {
    for (id, feed) in replays.iter_mut() {
        if !engine.group(*id).is_finished() {
            let positions = feed.next_epoch().expect("the cap is within the recording");
            engine.submit(EpochUpdate { group_id: *id, positions }).expect("a live replay");
        }
    }
    engine.tick()
}

/// `TickSummary::finished` was documented as a fleet-wide total but its relationship to
/// deregistration was implicit: a deregistered group silently vanished from the total, which
/// looked like a lost session.  The contract is now explicit — `finished` totals the
/// **currently registered** sessions past their horizon, deregistered groups move to
/// `retired` — and fleet metrics keep including the departed groups' counters.
#[test]
fn finished_total_excludes_deregistered_groups_which_move_to_retired() {
    let pois: Vec<Point> =
        (0..80).map(|i| Point::new(f64::from(i % 10) * 60.0, f64::from(i / 10) * 70.0)).collect();
    let tree = RTree::bulk_load(&pois);
    let traj = WaypointConfig { domain: 600.0, speed_limit: 6.0, timestamps: 40 };
    let fleet: Vec<Vec<Trajectory>> = (0..3)
        .map(|g| (0..2).map(|i| random_waypoint(&traj, (g * 7 + i) as u64)).collect())
        .collect();

    let horizons = [10usize, 10, 30];
    let mut engine = MonitoringEngine::new(tree, 2);
    let mut replays: Vec<_> = fleet
        .iter()
        .zip(horizons)
        .map(|(group, horizon)| {
            let config =
                MonitorConfig::new(Objective::Max, Method::circle()).with_max_timestamps(horizon);
            (engine.register_stream(group.len(), config), TrajectoryFeed::from_group(group))
        })
        .collect();
    let ids: Vec<_> = replays.iter().map(|(id, _)| *id).collect();

    let mut summary = replay_tick(&mut engine, &mut replays);
    for _ in 1..12 {
        summary = replay_tick(&mut engine, &mut replays);
    }
    assert_eq!(summary.finished, 2, "after 12 ticks the two 10-timestamp groups are done");
    assert_eq!(summary.retired, 0);

    // Deregistering a finished group moves it from `finished` to `retired`.
    let departed = engine.deregister(ids[0]).expect("group 0 is registered");
    replays.remove(0);
    assert_eq!(departed.timestamps, 9, "10-timestamp horizon = registration + 9 timestamps");
    let summary = replay_tick(&mut engine, &mut replays);
    assert_eq!(summary.finished, 1, "only registered sessions count as finished");
    assert_eq!(summary.retired, 1, "the deregistered group is accounted explicitly");

    // Fleet accounting must not shrink when a group leaves, nor when its id is reused.
    while !engine.is_finished() {
        replay_tick(&mut engine, &mut replays);
    }
    let live_updates: usize = ids[1..].iter().map(|&id| engine.group_metrics(id).updates).sum();
    let fleet_metrics = engine.fleet_metrics();
    assert_eq!(fleet_metrics.group_size, 6, "all three 2-user groups stay in the fleet totals");
    assert_eq!(fleet_metrics.updates, live_updates + departed.updates);
    assert_eq!(fleet_metrics.timestamps, 9 + 9 + 29);
    let config = MonitorConfig::new(Objective::Max, Method::circle()).with_max_timestamps(10);
    assert_eq!(engine.register_stream(2, config), ids[0]);
    let reused = engine.fleet_metrics();
    assert_eq!(reused.group_size, 8, "the new epoch's users are counted beside the old one's");
    assert_eq!((reused.updates, reused.timestamps), (fleet_metrics.updates, 9 + 9 + 29));

    // And the consuming accessor reports the registered groups in id order.
    let all = engine.into_group_metrics();
    assert_eq!(all.len(), 3);
    assert_eq!(all[0].timestamps, 0, "id 0 now holds the fresh, unticked epoch");
    assert_eq!(all[2].timestamps, 29);
}

/// A fleet horizon used to be `max().unwrap_or(0)` over per-session horizons — a streaming
/// session with no pre-known horizon had no honest representation and an empty fleet looked
/// "finished at 0".  The contract is now explicit: an uncapped session's horizon is `None`,
/// a fleet holding one is never finished, open sessions never count into
/// `TickSummary::finished` (they have nothing to finish) and they starve visibly
/// (`TickSummary::starved`) instead of advancing on missing data.
#[test]
fn open_horizon_streams_have_no_finish_line_and_never_count_as_finished() {
    let pois: Vec<Point> =
        (0..80).map(|i| Point::new(f64::from(i % 10) * 60.0, f64::from(i / 10) * 70.0)).collect();
    let tree = Arc::new(RTree::bulk_load(&pois));
    let traj = WaypointConfig { domain: 600.0, speed_limit: 6.0, timestamps: 40 };
    let group: Vec<Trajectory> = (0..2).map(|i| random_waypoint(&traj, 100 + i as u64)).collect();

    let mut engine = MonitoringEngine::new(Arc::clone(&tree), 2);
    let capped = MonitorConfig::new(Objective::Max, Method::circle()).with_max_timestamps(5);
    let bounded = engine.register_stream(2, capped);
    let mut replays = [(bounded, TrajectoryFeed::from_group(&group))];
    assert_eq!(engine.group(bounded).horizon(), Some(5));

    let open = engine.register_stream(2, MonitorConfig::new(Objective::Max, Method::circle()));
    assert_eq!(engine.group(open).horizon(), None);
    assert!(!engine.group(open).horizon_is_covered());

    // Drive the bounded replay to its end while feeding the stream only occasionally.
    for t in 0..8 {
        if t % 2 == 0 {
            let positions: Vec<Point> = group.iter().map(|traj| traj.at(t)).collect();
            engine.submit(EpochUpdate { group_id: open, positions }).unwrap();
        }
        let summary = replay_tick(&mut engine, &mut replays);
        assert_eq!(summary.starved, usize::from(t % 2 != 0), "unfed epochs starve visibly");
        assert_eq!(
            summary.finished,
            usize::from(engine.group(bounded).is_finished()),
            "only the bounded session can ever count as finished"
        );
    }
    assert!(engine.group(bounded).is_finished());
    assert!(!engine.group(open).is_finished(), "open sessions never finish on their own");
    assert!(!engine.is_finished());
    assert_eq!(engine.group_metrics(open).timestamps, 3, "4 fed epochs = registration + 3");

    // Deregistration is the only way out for an open session — and restores boundedness.
    engine.deregister(open).unwrap();
    assert!(engine.is_finished());
}

/// A capped session that was sent more reports than its cap wedged `ServerCore::backlog`:
/// `submit` only refused a session that *was* finished, the tick skips a finished session
/// without draining its inbox, and the backlog is only reduced by `summary.advanced` — so the
/// surplus epochs stayed queued, `has_work()` stayed true and the transport ran a whole-fleet
/// tick on every poll iteration until the group deregistered.  `submit` now refuses an epoch
/// once consumed plus queued epochs reach the horizon.
#[test]
fn reports_beyond_a_capped_horizon_are_refused_and_the_backlog_drains() {
    let pois: Vec<Point> = (0..9).map(|i| Point::new(f64::from(i % 3), f64::from(i / 3))).collect();
    let mut core = ServerCore::new(RTree::bulk_load(&pois), 1);
    let config = WireConfig { max_timestamps: Some(2), ..WireConfig::default() };
    core.enqueue(1, Request::Register { group_size: 2, config });
    for t in 0..6 {
        let positions = vec![Point::new(0.1 * f64::from(t), 0.5), Point::new(1.5, 1.0)];
        core.enqueue(1, Request::Report { group: 0, positions });
    }
    let refused = core
        .process()
        .responses
        .iter()
        .filter(|(_, r)| {
            matches!(r, Response::Notification { kind: NotificationKind::BadRequest, .. })
        })
        .count();
    assert_eq!(refused, 4, "the cap admits two epochs; the other four reports are answered");
    assert_eq!(core.backlog(), 1, "one epoch consumed by this tick, one waiting");
    core.process();
    assert_eq!(core.backlog(), 0);
    assert!(!core.has_work(), "nothing keeps the transport ticking");
    assert!(core.engine().group(0).is_finished());
    assert_eq!(core.engine().group(0).pending_epochs(), 0);
}

/// Deleting the last live POI used to empty the world first and then fail an assertion, so a
/// granted admin client could panic `ServerCore::process` (and with it the transport's one
/// thread) after the world had already changed.  The delete is now refused up front: the
/// operator gets `BadRequest` echoing the POI id (it exists, so not `UnknownPoi`) and the
/// world keeps its POI and its generation.
#[test]
fn deleting_the_last_poi_is_refused_before_the_world_changes() {
    let mut core =
        ServerCore::new(RTree::bulk_load(&[Point::new(0.0, 0.0), Point::new(5.0, 5.0)]), 1);
    core.grant_admin(1);
    core.enqueue(1, Request::Admin(AdminRequest::PoiDelete { poi: 0 }));
    let applied = Response::Notification { group: 0, kind: NotificationKind::AdminApplied };
    assert_eq!(core.process().responses, vec![(1, applied)]);
    let generation = core.engine().world().generation();

    for (poi, kind) in [(1, NotificationKind::BadRequest), (7, NotificationKind::UnknownPoi)] {
        core.enqueue(1, Request::Admin(AdminRequest::PoiDelete { poi }));
        let refused = Response::Notification { group: poi, kind };
        assert_eq!(core.process().responses, vec![(1, refused)]);
        assert_eq!(core.engine().world().len(), 1, "the last POI stays");
        assert_eq!(core.engine().world().generation(), generation, "nothing was touched");
    }
}

/// The registration cap was `MAX_FRAME_LEN / 16` users, which forgot the `Report` header: the
/// largest group the server admitted could never send a report (its frame was 13 bytes over
/// the cap, so the decoder answered `Oversize`).  The cap is now what one `Report` frame holds
/// after the tag and the longest group id, and a group one larger is refused.
#[test]
fn the_largest_group_the_server_admits_can_report() {
    let mut core = ServerCore::new(RTree::bulk_load(&[Point::new(0.0, 0.0)]), 1);
    let group_size = u32::try_from(MAX_REPORT_POSITIONS + 1).expect("fits the wire");
    core.enqueue(1, Request::Register { group_size, config: WireConfig::default() });
    let refused = Response::Notification { group: u64::MAX, kind: NotificationKind::BadRequest };
    assert_eq!(core.process().responses, vec![(1, refused)]);
    assert_eq!(core.engine().group_count(), 0, "nothing was registered");

    let report = Request::Report {
        group: u64::MAX,
        positions: vec![Point::new(1.0, 2.0); MAX_REPORT_POSITIONS],
    };
    let bytes = report.encoded();
    assert!(bytes.len() - 4 <= MAX_FRAME_LEN, "a {}-byte payload", bytes.len() - 4);
    assert_eq!(Request::decode(&bytes), Ok((report, bytes.len())));
}

/// `ProcessOutput::applied` used to be deduplicated by a linear scan per request; the set that
/// replaced it must keep the contract a transport frames its downlink by: every client once,
/// in first-arrival order, whatever one call has seen forgotten by the next.
#[test]
fn applied_lists_each_client_once_in_first_arrival_order() {
    let pois: Vec<Point> = (0..9).map(|i| Point::new(f64::from(i % 3), f64::from(i / 3))).collect();
    let mut core = ServerCore::new(RTree::bulk_load(&pois), 1);
    for order in [[9, 4, 9, 9, 7, 4, 9, 7], [7, 7, 9, 7, 4, 4, 9, 7]] {
        for client in order {
            core.enqueue(client, Request::Deregister { group: 1_000 });
        }
        let output = core.process();
        let mut first_arrivals = Vec::new();
        for client in order {
            if !first_arrivals.contains(&client) {
                first_arrivals.push(client);
            }
        }
        assert_eq!(output.applied, first_arrivals);
        assert_eq!(output.responses.len(), order.len(), "every request is answered");
    }
}

/// Sessions used to keep their own event logs, so undrained events came out session by
/// session and died with a deregistered session.  The tick-owned sink must behave the same:
/// several undrained ticks come out per session, not per tick, and a group that leaves takes
/// its undrained events along (its id may be reused before the next drain).
#[test]
fn undrained_events_stay_grouped_by_session_and_leave_with_their_group() {
    let pois: Vec<Point> =
        (0..80).map(|i| Point::new(f64::from(i % 10) * 60.0, f64::from(i / 10) * 70.0)).collect();
    let traj = WaypointConfig { domain: 600.0, speed_limit: 40.0, timestamps: 40 };
    let config = MonitorConfig::new(Objective::Max, Method::circle());
    let mut engine = MonitoringEngine::new(RTree::bulk_load(&pois), 2);
    let mut replays: Vec<_> = (0..2u64)
        .map(|g| {
            let group: Vec<Trajectory> =
                (0..2).map(|i| random_waypoint(&traj, g * 7 + i)).collect();
            let feed = TrajectoryFeed::from_group(&group);
            let session = GroupSession::streaming(2, feed.capped(config));
            (engine.register_session(session.with_events(true)), feed)
        })
        .collect();
    let ids: Vec<_> = replays.iter().map(|(id, _)| *id).collect();
    for _ in 0..6 {
        replay_tick(&mut engine, &mut replays);
    }
    let senders: Vec<_> = engine.drain_events().iter().map(|(id, _)| *id).collect();
    let (of_first, of_second): (Vec<_>, Vec<_>) = senders.iter().partition(|&&id| id == ids[0]);
    assert!(of_first.len() > 2 && of_second.len() > 2, "both groups updated after registering");
    assert_eq!(senders, [of_first, of_second].concat(), "one run per session");

    replay_tick(&mut engine, &mut replays);
    replay_tick(&mut engine, &mut replays);
    engine.deregister(ids[1]).expect("registered");
    assert!(engine.drain_events().iter().all(|(id, _)| *id == ids[0]));
}

/// Three almost-collinear POIs with two users on opposite sides: found by proptest as a case
/// where an over-eager tile acceptance changed the optimum.
#[test]
fn proptest_shrink_three_pois_two_users() {
    let pois = vec![
        Point::new(349.4986285023622, 609.9421413229721),
        Point::new(515.9105723892488, 538.6541063647203),
        Point::new(632.605792614647, 589.7641942564205),
    ];
    let users = vec![
        Point::new(130.31996032774566, 964.2313484724282),
        Point::new(891.0914317358817, 330.375238791278),
    ];
    let tree = RTree::bulk_load(&pois);

    for objective in [Objective::Max, Objective::Sum] {
        let answer = Method::tile().answer(&tree, objective, &users, None);
        eprintln!(
            "{objective:?}: optimal {} regions sizes {:?}",
            answer.optimal_index,
            answer
                .regions
                .iter()
                .map(|r| match r {
                    SafeRegion::Tiles(t) => t.len(),
                    SafeRegion::Circle(_) => 0,
                })
                .collect::<Vec<_>>()
        );
        // Exhaustively sample a fine grid of every region pair and assert the optimum holds.
        let regions: Vec<&SafeRegion> = answer.regions.iter().collect();
        let grids: Vec<Vec<Point>> = regions
            .iter()
            .map(|r| {
                let SafeRegion::Tiles(tiles) = r else { panic!("expected tiles") };
                let mut pts = Vec::new();
                for sq in tiles.squares() {
                    let rect = sq.to_rect();
                    for i in 0..=4 {
                        for j in 0..=4 {
                            pts.push(Point::new(
                                rect.lo.x + rect.width() * f64::from(i) / 4.0,
                                rect.lo.y + rect.height() * f64::from(j) / 4.0,
                            ));
                        }
                    }
                }
                pts
            })
            .collect();
        for l0 in &grids[0] {
            for l1 in &grids[1] {
                let instance = [*l0, *l1];
                let agg = |p: Point| objective.aggregate().point_dist(p, &instance);
                let best = pois.iter().map(|p| agg(*p)).fold(f64::INFINITY, f64::min);
                assert!(
                    agg(answer.optimal_point) <= best + 1e-6,
                    "{objective:?}: optimum changed at instance ({l0}, {l1}): held {} vs best {}",
                    agg(answer.optimal_point),
                    best
                );
            }
        }
    }
}

/// 64-bit FNV-1a over a stream of integers.
fn fnv1a(hash: &mut u64, value: i64) {
    for byte in value.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Golden fixture pinning every Tile-MSR accept/reject decision: a seeded POI set and 64
/// seeded groups (sizes 2–5, seeded headings) through `Tile`, `Tile-D` and `Tile-D-b` under
/// MAX and SUM, each computed cold and then again after a small move with the §5.4 buffer
/// cache carried over (so the reused-buffer path, whose anchors differ from the current
/// locations, is covered).  The constants were recorded on the commit *before* the
/// verification loop became incremental; a verifier change that flips a single decision
/// changes a region's cells or a work counter and fails here.
#[test]
fn tile_msr_decisions_match_the_golden_fixture() {
    use mpn::core::{tile_msr, ComputeStats, TileMsrConfig};
    use std::f64::consts::{FRAC_PI_4, TAU};

    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut rand01 = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let pois: Vec<Point> =
        (0..600).map(|_| Point::new(rand01() * 1000.0, rand01() * 1000.0)).collect();
    let tree = RTree::bulk_load(&pois);
    let groups: Vec<(Vec<Point>, Vec<Option<f64>>)> = (0..64)
        .map(|g| {
            let centre = Point::new(100.0 + rand01() * 800.0, 100.0 + rand01() * 800.0);
            let spread = 20.0 + rand01() * 80.0;
            let users = (0..2 + g % 4)
                .map(|_| {
                    Point::new(
                        centre.x + (rand01() - 0.5) * spread,
                        centre.y + (rand01() - 0.5) * spread,
                    )
                })
                .collect::<Vec<_>>();
            let headings = users.iter().map(|_| (rand01() < 0.8).then(|| rand01() * TAU)).collect();
            (users, headings)
        })
        .collect();

    // (hash of every region's cells, verify_calls, candidates_checked, tiles_accepted,
    //  tiles_rejected, rtree_queries), recorded when the test was written.  The four unbuffered rows'
    //  rtree_queries were re-recorded when the per-computation candidate pool replaced the
    //  per-tile index query (36,570 / 22,344 / 16,322 / 15,200 before); nothing else moved.
    let golden: [(&str, Objective, u64, [usize; 5]); 6] = [
        ("Tile", Objective::Max, 0xa797_eaf2_64ed_d67f, [664_478, 2_616_638, 18_035, 489_434, 717]),
        ("Tile", Objective::Sum, 0x0789_9847_154a_047f, [338_468, 1_908_786, 16_536, 242_869, 457]),
        ("Tile-D", Objective::Max, 0xf0e2_d6cd_88e8_2037, [255_094, 812_908, 12_254, 183_115, 649]),
        ("Tile-D", Objective::Sum, 0xe0c1_ab7a_e7b7_acca, [223_216, 948_695, 10_735, 160_445, 454]),
        (
            "Tile-D-b",
            Objective::Max,
            0x0148_e3e3_ee0e_785d,
            [219_125, 445_680, 11_961, 157_318, 193],
        ),
        (
            "Tile-D-b",
            Objective::Sum,
            0x34d5_ab36_18cb_e130,
            [191_117, 411_512, 10_881, 136_694, 193],
        ),
    ];

    let mut recorded = Vec::new();
    for (name, objective, ..) in golden {
        let config = match name {
            "Tile" => TileMsrConfig::tile(),
            "Tile-D" => TileMsrConfig::tile_directed(FRAC_PI_4),
            _ => TileMsrConfig::tile_directed_buffered(FRAC_PI_4, 40),
        };
        assert_eq!(config.name(), name);
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut stats = ComputeStats::default();
        for (users, headings) in &groups {
            let moved: Vec<Point> =
                users.iter().map(|u| Point::new(u.x + 0.75, u.y - 0.5)).collect();
            let mut cache = None;
            for locations in [users, &moved] {
                let out =
                    tile_msr(&tree, locations, objective, &config, Some(headings), &mut cache);
                stats.absorb(&out.stats);
                for region in &out.regions {
                    fnv1a(&mut hash, region.len() as i64);
                    for cell in region.cells() {
                        fnv1a(&mut hash, i64::from(cell.level));
                        fnv1a(&mut hash, i64::from(cell.ix));
                        fnv1a(&mut hash, i64::from(cell.iy));
                    }
                }
            }
        }
        let counters = [
            stats.verify_calls,
            stats.candidates_checked,
            stats.tiles_accepted,
            stats.tiles_rejected,
            stats.rtree_queries,
        ];
        recorded.push((name, objective, hash, counters));
    }
    assert_eq!(recorded, golden, "regions or work counters differ from the recorded run");
}
