//! Pins the `mpn-proto` wire accounting to the literal §7.1 costs.
//!
//! The paper's evaluation counts communication in §7.1 packets of 67 double-precision
//! values.  There is one definition of what a Fig. 3 message costs — `mpn-proto`'s
//! `LOCATION_VALUES`, `PROBE_VALUES` and `notification_values`, which both the wire
//! messages' `values` / `packets` and the monitoring sessions' `Traffic` tally are written
//! in terms of — so there is no second model to compare against; these are absolute pins,
//! and a change to any of them changes every figure the repository reproduces:
//!
//! * a reported user costs 2 values and 1 packet, alone or inside a batched
//!   `Request::Report`,
//! * a `Response::ProbeRequest` costs 1 value and 1 packet,
//! * a `Response::SafeRegion` costs the meeting point (2 values) plus the region — 3 for a
//!   circle; `region_value_count` for real tile regions produced by the server, compressed
//!   and plain,
//! * and a monitoring session's downlink tally is exactly the cost of the responses the
//!   server core produced for it.

use mpn::core::{
    encode_cells, packets_for_values, region_value_count, Method, Objective, SafeRegion,
};
use mpn::geom::{Circle, Point};
use mpn::index::RTree;
use mpn::mobility::poi::{clustered_pois, PoiConfig};
use mpn::mobility::waypoint::{random_waypoint, WaypointConfig};
use mpn::proto::{AdminRequest, Request, Response, WireConfig, WireMethod};
use mpn::sim::ServerCore;

fn report(positions: Vec<Point>) -> Request {
    Request::Report { group: 9, positions }
}

fn safe_region(region: SafeRegion) -> Response {
    Response::SafeRegion { group: 9, user: 0, meeting_point: Point::new(1.0, 2.0), region }
}

#[test]
fn single_user_reports_match_location_reports_and_probe_replies() {
    // A step-1 location report and a step-2 probe reply are the same uplink: her coordinates.
    let wire = report(vec![Point::new(3.0, 4.0)]);
    assert_eq!(wire.values(), 2);
    assert_eq!(wire.packets(), 1);
}

#[test]
fn batched_reports_cost_their_constituent_per_user_reports() {
    for users in 1..=40 {
        let wire = report((0..users).map(|i| Point::new(i as f64, 0.0)).collect());
        assert_eq!(wire.values(), 2 * users);
        assert_eq!(
            wire.packets(),
            users,
            "a {users}-user batch is {users} separate single-packet uplink transmissions"
        );
    }
}

#[test]
fn probe_requests_match_probe_messages() {
    let wire = Response::ProbeRequest { group: 9, user: 3 };
    for compress in [true, false] {
        assert_eq!(wire.values(compress), 1, "a probe carries only the query identifier");
        assert_eq!(wire.packets(compress), 1);
    }
}

#[test]
fn circle_safe_regions_match_result_notifications() {
    let region = SafeRegion::Circle(Circle::new(Point::new(5.0, 5.0), 2.0));
    for compress in [true, false] {
        let wire = safe_region(region.clone());
        assert_eq!(wire.values(compress), 5, "meeting point + centre + radius");
        assert_eq!(wire.packets(compress), 1);
    }
}

/// The control-plane additions of the mutable world stay inside the §7.1 packet model:
/// every admin message and the unsolicited world-update push each cost exactly one packet,
/// with the value counts pinned so the accounting can never drift silently.
#[test]
fn admin_and_world_update_costs_are_pinned() {
    let insert = Request::Admin(AdminRequest::PoiInsert { location: Point::new(1.0, 2.0) });
    assert_eq!(insert.values(), 2, "a POI insert ships one coordinate pair");
    assert_eq!(insert.packets(), 1);

    let delete = Request::Admin(AdminRequest::PoiDelete { poi: 42 });
    assert_eq!(delete.values(), 1, "a POI delete ships one id");
    assert_eq!(delete.packets(), 1);

    for compress in [true, false] {
        let update = Response::WorldUpdate { group: 9, generation: 7, revised: 3 };
        assert_eq!(update.values(compress), 2, "a push ships a generation and a region count");
        assert_eq!(update.packets(compress), 1, "the announcement always fits one packet");
    }
}

/// The world the real-region pins run on: 2,000 clustered POIs and a group of two.
fn parity_world() -> (RTree, Vec<Point>) {
    let pois =
        clustered_pois(&PoiConfig { count: 2_000, domain: 3_000.0, ..PoiConfig::default() }, 31);
    (RTree::bulk_load(&pois), vec![Point::new(900.0, 900.0), Point::new(1_400.0, 1_100.0)])
}

#[test]
fn real_tile_regions_match_result_notifications_compressed_and_plain() {
    // Regions straight out of the server, so the pin covers realistic tile counts (and the
    // compressed encoding path), not hand-built toys.
    let (tree, users) = parity_world();

    for objective in [Objective::Max, Objective::Sum] {
        let answer = Method::tile().answer(&tree, objective, &users, None);
        assert!(!answer.regions.is_empty());
        for region in &answer.regions {
            for compress in [true, false] {
                let wire = safe_region(region.clone());
                let values = 2 + region_value_count(region, compress);
                assert_eq!(
                    wire.values(compress),
                    values,
                    "{objective:?}/compress={compress}: meeting point + region payload"
                );
                assert_eq!(wire.packets(compress), packets_for_values(values));
            }
        }
    }
}

/// The §7.1 model charges a compressed tile 4 bytes (two tiles per value).  What the codec
/// sends for the same regions — every tile method, both objectives — round-trips bit for
/// bit, cells in order, and stays under 2 bytes a tile: the model is an upper bound on the
/// wire, not an estimate of it.
#[test]
fn real_tile_regions_round_trip_at_under_two_bytes_a_tile() {
    let (tree, users) = parity_world();
    let theta = std::f64::consts::FRAC_PI_4;
    let methods =
        [Method::tile(), Method::tile_directed(theta), Method::tile_directed_buffered(theta, 100)];
    let (mut tiles, mut tile_bytes) = (0, 0);
    for objective in [Objective::Max, Objective::Sum] {
        for method in methods {
            let answer = method.answer(&tree, objective, &users, None);
            for (user, region) in answer.regions.iter().enumerate() {
                let SafeRegion::Tiles(region_tiles) = region else { panic!("{method:?}") };
                let wire = Response::SafeRegion {
                    group: 9,
                    user: user as u32,
                    meeting_point: answer.optimal_point,
                    region: region.clone(),
                };
                let bytes = wire.encoded();
                assert_eq!(Response::decode(&bytes), Ok((wire, bytes.len())));
                let mut stream = Vec::new();
                encode_cells(region_tiles.cells(), &mut stream);
                assert!(bytes.ends_with(&stream), "the frame ends in the region's step stream");
                tiles += region_tiles.len();
                tile_bytes += stream.len();
                // Per region too: the model's doubles (origin, δ, count, two tiles a value)
                // cover the bytes sent for the same four things.
                let modelled = 8 * region_value_count(region, true);
                assert!(modelled >= stream.len() + 24, "{objective:?} {method:?}");
            }
        }
    }
    assert!(tiles >= 12, "{tiles} tiles is too few to speak of an aggregate");
    println!("{tile_bytes} B of step stream for {tiles} tiles");
    assert!(tile_bytes <= 2 * tiles, "{tile_bytes} B for {tiles} tiles");
}

#[test]
fn a_sessions_downlink_tally_is_the_cost_of_the_responses_it_produced() {
    let pois =
        clustered_pois(&PoiConfig { count: 500, domain: 1_000.0, ..PoiConfig::default() }, 19);
    let walk = WaypointConfig { domain: 1_000.0, speed_limit: 6.0, timestamps: 60 };
    let group: Vec<_> = (0..3).map(|i| random_waypoint(&walk, 70 + i)).collect();

    for compress_regions in [true, false] {
        let mut core = ServerCore::new(RTree::bulk_load(&pois), 1);
        let config =
            WireConfig { method: WireMethod::Tile, compress_regions, ..WireConfig::default() };
        core.enqueue(1, Request::Register { group_size: 3, config });
        core.process();
        let (mut packets, mut messages) = (0, 0);
        for t in 0..60 {
            let positions = group.iter().map(|traj| traj.at(t)).collect();
            core.enqueue(1, Request::Report { group: 0, positions });
            for (_, response) in core.process().responses {
                packets += response.packets(compress_regions);
                messages += 1;
            }
        }
        let traffic = core.engine().group_metrics(0).traffic;
        assert!(messages > 3, "the walk must trigger updates, not just the registration");
        assert_eq!(traffic.downlink_packets, packets, "compress = {compress_regions}");
        // Every update is answered by one uplink per user (her report or her probe reply).
        assert_eq!(traffic.messages - messages, 3 * core.engine().group_metrics(0).updates);
    }
}
