//! Regression tests for concrete inputs that once exposed bugs (found by the property tests),
//! and for behaviors whose documentation once disagreed with the code.

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
    run_monitoring, EpochUpdate, GroupSession, MonitorConfig, MonitoringEngine, ServerCore,
    TickSummary, TrajectoryFeed,
};

/// Submits the next recorded epoch of every replay with one left, then ticks.
fn replay_tick(
    engine: &mut MonitoringEngine,
    replays: &mut [(usize, TrajectoryFeed)],
) -> TickSummary {
    for (id, feed) in replays.iter_mut() {
        if let Some(positions) = feed.next_epoch() {
            engine.submit(EpochUpdate { group_id: *id, positions }).expect("a live replay");
        }
    }
    engine.tick()
}

/// The first `n` timestamps of every user's recording.
fn first(group: &[Trajectory], n: usize) -> Vec<Trajectory> {
    group.iter().map(|t| Trajectory::new(t.points()[..n].to_vec())).collect()
}

/// A deregistered group used to vanish silently from the tick's totals, which looked like a
/// lost session.  The contract is now explicit — deregistered groups move to
/// `TickSummary::retired` — and fleet metrics keep including the departed groups' counters.
#[test]
fn deregistered_groups_move_to_retired_and_stay_in_the_fleet_totals() {
    let pois: Vec<Point> =
        (0..80).map(|i| Point::new(f64::from(i % 10) * 60.0, f64::from(i / 10) * 70.0)).collect();
    let tree = RTree::bulk_load(&pois);
    let traj = WaypointConfig { domain: 600.0, speed_limit: 6.0, timestamps: 40 };
    let config = MonitorConfig::new(Objective::Max, Method::circle());
    let mut engine = MonitoringEngine::new(tree.clone(), 1);
    let groups: Vec<Vec<Trajectory>> = [10, 10, 30]
        .into_iter()
        .enumerate()
        .map(|(g, length)| {
            let group: Vec<Trajectory> =
                (0..2).map(|i| random_waypoint(&traj, (g * 7 + i) as u64)).collect();
            first(&group, length)
        })
        .collect();
    let mut replays: Vec<_> = groups
        .iter()
        .map(|group| {
            (engine.register_stream(group.len(), config), TrajectoryFeed::from_group(group))
        })
        .collect();
    let ids: Vec<_> = replays.iter().map(|(id, _)| *id).collect();

    for _ in 0..12 {
        assert_eq!(replay_tick(&mut engine, &mut replays).retired, 0);
    }

    // Deregistering a group moves it to `retired`; its recording had run out.
    let departed = engine.deregister(ids[0]).expect("group 0 is registered");
    replays.remove(0);
    assert_eq!(departed.pending_epochs(), 0, "the session is handed back as it was");
    let summary = replay_tick(&mut engine, &mut replays);
    assert_eq!(summary.retired, 1, "the deregistered group is accounted explicitly");

    // Fleet accounting must not shrink when a group leaves, nor when its id is reused: it
    // holds every group's whole replay, the departed one's included.
    for _ in 13..30 {
        replay_tick(&mut engine, &mut replays);
    }
    let replayed: usize = groups.iter().map(|g| run_monitoring(&tree, g, &config).updates).sum();
    let fleet_metrics = engine.fleet_metrics();
    assert_eq!(fleet_metrics.group_size, 6, "all three 2-user groups stay in the fleet totals");
    assert_eq!(fleet_metrics.updates, replayed);
    assert_eq!(fleet_metrics.timestamps, 9 + 9 + 29);
    assert_eq!(engine.register_stream(2, config), ids[0]);
    let reused = engine.fleet_metrics();
    assert_eq!(reused.group_size, 8, "the new epoch's users are counted beside the old one's");
    assert_eq!((reused.updates, reused.timestamps), (fleet_metrics.updates, 9 + 9 + 29));
    assert_eq!(engine.group(ids[0]).pending_epochs(), 0, "id 0 now holds the fresh epoch");
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

/// The clients with a request applied used to be deduplicated by a linear scan per request;
/// the set that replaced it must keep the contract a transport frames its downlink by: the
/// counting pass addresses every such client once (its count of 0), in first-arrival order,
/// whatever one tick has seen forgotten by the next.
#[test]
fn applied_lists_each_client_once_in_first_arrival_order() {
    let pois: Vec<Point> = (0..9).map(|i| Point::new(f64::from(i % 3), f64::from(i / 3))).collect();
    let mut core = ServerCore::new(RTree::bulk_load(&pois), 1);
    for order in [[9, 4, 9, 9, 7, 4, 9, 7], [7, 7, 9, 7, 4, 4, 9, 7]] {
        for client in order {
            core.enqueue(client, Request::Deregister { group: 1_000 });
        }
        let mut applied = Vec::new();
        core.announce(|client, n| applied.extend((n == 0).then_some(client)));
        let output = core.process();
        let mut first_arrivals = Vec::new();
        for client in order {
            if !first_arrivals.contains(&client) {
                first_arrivals.push(client);
            }
        }
        assert_eq!(applied, first_arrivals);
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
    let mut engine = MonitoringEngine::new(RTree::bulk_load(&pois), 1);
    let mut replays: Vec<_> = (0..2u64)
        .map(|g| {
            let group: Vec<Trajectory> =
                (0..2).map(|i| random_waypoint(&traj, g * 7 + i)).collect();
            let feed = TrajectoryFeed::from_group(&group);
            let session = GroupSession::streaming(2, config);
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
        let (answer, _) = Method::tile().answer(&tree, objective, &users, None);
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
                for rect in tiles.tiles() {
                    let (width, height) = (rect.hi.x - rect.lo.x, rect.hi.y - rect.lo.y);
                    for i in 0..=4 {
                        for j in 0..=4 {
                            pts.push(Point::new(
                                rect.lo.x + width * f64::from(i) / 4.0,
                                rect.lo.y + height * f64::from(j) / 4.0,
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
    //  Every row was re-recorded once more when the seed frame became `f32`-exact (origin
    //  rounded up, `δ` down): every tile is then grown on a frame shifted by at most one `f32`
    //  step, so the cells move and the counters by at most 0.3 % (Tile/SUM's rtree_queries
    //  457 → 456: its candidate bounds follow the tiles).  The two Tile-D-b rows were
    //  re-recorded when a computation stopped keeping its §5.4 buffer for the next: each call
    //  builds its own (the second call of a group used to reuse the first's buffer when the
    //  optimum held), so rtree_queries is 2 a call; recorded before the change with a fresh
    //  buffer per call, and reproduced after it.  Their candidates_checked were re-recorded
    //  when Buffer-Divide-Verify began asking the candidate that rejected the last tile first
    //  (Tile-D-b/MAX 446,471 → 339,657, Tile-D-b/SUM 415,233 → 297,650): the verdicts are a
    //  conjunction, so only the number of pairs asked before a rejection moved.
    let golden: [(&str, Objective, u64, [usize; 5]); 6] = [
        ("Tile", Objective::Max, 0x744e_3dc9_9176_0243, [664_474, 2_616_630, 18_033, 489_433, 717]),
        ("Tile", Objective::Sum, 0xb337_b542_c353_47ac, [337_628, 1_903_648, 16_539, 242_226, 456]),
        ("Tile-D", Objective::Max, 0xabef_a66a_6c0f_693f, [255_094, 812_892, 12_255, 183_114, 649]),
        ("Tile-D", Objective::Sum, 0x2c74_a4cf_5cd9_6631, [223_216, 948_703, 10_736, 160_444, 454]),
        (
            "Tile-D-b",
            Objective::Max,
            0x7079_9078_cf5c_ec17,
            [219_206, 339_657, 11_968, 157_414, 256],
        ),
        (
            "Tile-D-b",
            Objective::Sum,
            0x8863_85d6_bd66_ae83,
            [192_692, 297_650, 10_952, 137_815, 256],
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
            for locations in [users, &moved] {
                let out = tile_msr(&tree, locations, objective, &config, Some(headings));
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
