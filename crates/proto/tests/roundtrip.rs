//! Property tests for the wire codec: every encodable message decodes back bit-identically,
//! and no byte soup makes the decoders panic.
//!
//! Uses the offline `proptest` shim: cases are deterministic (seeded from the test name), so
//! a failing case index reproduces exactly.

use mpn_core::{SafeRegion, TileCell, TileFrame, TileRegion};
use mpn_geom::{Circle, Point};
use mpn_proto::{
    AdminRequest, DecodeError, NotificationKind, Request, Response, WireConfig, WireMethod,
    WireObjective,
};
use proptest::collection::vec as prop_vec;
use proptest::prelude::*;

fn wire_config(
    objective: usize,
    method: usize,
    theta: f64,
    buffer: u32,
    persist: bool,
) -> WireConfig {
    WireConfig {
        objective: if objective == 0 { WireObjective::Max } else { WireObjective::Sum },
        method: match method {
            0 => WireMethod::Circle,
            1 => WireMethod::Tile,
            2 => WireMethod::TileDirected { theta },
            _ => WireMethod::TileDirectedBuffered { theta, buffer },
        },
        persist_buffers: persist,
    }
}

fn tile_region(origin: Point, delta: f64, cells: &[(usize, i32, i32)]) -> SafeRegion {
    let mut region = TileRegion::new(TileFrame { origin, delta });
    for &(level, ix, iy) in cells {
        region.push(TileCell::new(level as u8, ix, iy));
    }
    SafeRegion::Tiles(Box::new(region))
}

/// Cells in the order Tile-MSR emits them at the paper's L = 2: mostly a small step from the
/// previous cell at the same level, sometimes one level down or up (coordinates doubled or
/// halved), now and then a jump — so most cells take the codec's one-byte path and a few
/// its escape.
fn tile_walk(moves: &[(usize, i32, i32, i32, i32)]) -> Vec<(usize, i32, i32)> {
    let (mut level, mut x, mut y) = (0usize, 0i32, 0i32);
    moves
        .iter()
        .map(|&(kind, dx, dy, jump_x, jump_y)| {
            match kind {
                0 if level < 2 => (level, x, y) = (level + 1, x << 1, y << 1),
                1 if level > 0 => (level, x, y) = (level - 1, x >> 1, y >> 1),
                2 => (x, y) = (jump_x, jump_y),
                _ => {}
            }
            (x, y) = (x + dx, y + dy);
            (level, x, y)
        })
        .collect()
}

/// Any `i32`, with the two ends and zero drawn often enough to be hit in every run.
fn any_coordinate() -> impl Strategy<Value = i32> {
    (0usize..8, 0u64..1 << 32).prop_map(|(pick, bits)| match pick {
        0 => i32::MIN,
        1 => i32::MAX,
        2 => 0,
        _ => bits as u32 as i32,
    })
}

fn assert_round_trips(response: &Response) -> Result<(), TestCaseError> {
    let bytes = response.encoded();
    let (decoded, consumed) = Response::decode(&bytes).expect("a valid frame");
    prop_assert_eq!(&decoded, response);
    prop_assert_eq!(consumed, bytes.len());
    Ok(())
}

/// At one byte a cell the largest frames hold 9× the cells they used to: decoding one must
/// not be quadratic in the count, whether it ends in a region or in a rejection.
#[test]
fn a_megabyte_of_valid_tokens_is_decoded_or_rejected_quickly() {
    let frame = TileFrame { origin: Point::new(0.0, 0.0), delta: 2.0 };
    let cells: Vec<TileCell> = (1..=1 << 20).map(|ix| TileCell::new(0, ix, 0)).collect();
    let region = TileRegion::from_cells(frame, cells).expect("distinct cells");
    let region = SafeRegion::Tiles(Box::new(region));
    let response = Response::SafeRegion { group: 1, user: 0, meeting_point: frame.origin, region };
    // Length, tag, one-byte group and user, meeting point, kind, origin and δ as `f32`s (all
    // three are `f32`-exact); a 3-byte count.
    const HEADER: usize = 4 + 1 + 1 + 1 + 16 + 1 + 8 + 4;
    // A million steps to the right; then the same frame with every step standing still.
    let walk = response.encoded();
    assert_eq!(walk.len(), HEADER + 3 + (1 << 20));
    let mut still = walk.clone();
    still[HEADER + 3..].fill(0x24);
    for (bytes, expected) in [
        (walk, Ok((response, HEADER + 3 + (1 << 20)))),
        (still, Err(DecodeError::Malformed("duplicate tile cells"))),
    ] {
        let started = std::time::Instant::now();
        assert_eq!(Response::decode(&bytes), expected);
        assert!(started.elapsed().as_secs_f64() < 1.0, "{:?}", started.elapsed());
    }
}

/// Ids at every varint length boundary round-trip through every message that carries one,
/// and cost the bytes of their information content: 1 below 128, 2 below 16,384, 3 above.
#[test]
fn ids_at_every_varint_boundary_round_trip() {
    for (id, id_bytes) in
        [(0, 1), (127, 1), (128, 2), (16_383, 2), (16_384, 3), (u32::MAX.into(), 5), (u64::MAX, 10)]
    {
        let user = u32::try_from(id).unwrap_or(u32::MAX);
        let requests = [
            Request::Register { group_size: user, config: wire_config(1, 3, 0.5, user, true) },
            Request::Report { group: id, positions: vec![Point::new(1.0, -2.0); 3] },
            Request::Deregister { group: id },
            Request::Admin(AdminRequest::PoiDelete { poi: id }),
        ];
        for request in &requests {
            let bytes = request.encoded();
            assert_eq!(Request::decode(&bytes), Ok((request.clone(), bytes.len())), "{id}");
        }
        assert_eq!(requests[1].encoded().len(), 4 + 1 + id_bytes + 3 * 16, "a report of {id}");
        assert_eq!(requests[2].encoded().len(), 4 + 1 + id_bytes, "a deregister of {id}");

        let region = SafeRegion::Circle(Circle::new(Point::new(3.0, 4.0), 5.0));
        let responses = [
            Response::SafeRegion { group: id, user, meeting_point: Point::ORIGIN, region },
            Response::ProbeRequest { group: id, user },
            Response::Notification { group: id, kind: NotificationKind::Registered },
            Response::WorldUpdate { group: id, generation: id, revised: user },
        ];
        for response in &responses {
            let bytes = response.encoded();
            assert_eq!(Response::decode(&bytes), Ok((response.clone(), bytes.len())), "{id}");
        }
        let user_bytes = id_bytes.min(5);
        // Meeting point 16 B; the `f32`-exact circle a kind byte and three 4-byte values.
        assert_eq!(responses[0].encoded().len(), 34 + id_bytes + user_bytes, "a circle of {id}");
        assert_eq!(responses[1].encoded().len(), 5 + id_bytes + user_bytes, "a probe of {id}");
        assert_eq!(responses[2].encoded().len(), 14, "a notification is fixed-width");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn register_frames_round_trip(
        group_size in 1u32..10_000,
        objective in 0usize..2,
        method in 0usize..4,
        theta in 1e-3f64..std::f64::consts::PI,
        buffer in 1u32..1_000,
        persist in 0usize..2,
    ) {
        let request = Request::Register {
            group_size,
            config: wire_config(objective, method, theta, buffer, persist == 1),
        };
        let bytes = request.encoded();
        let (decoded, consumed) = Request::decode(&bytes).expect("a valid frame");
        prop_assert_eq!(decoded, request);
        prop_assert_eq!(consumed, bytes.len());
    }

    #[test]
    fn report_and_deregister_frames_round_trip(
        group in 0u64..u64::MAX,
        coords in prop_vec((-50_000.0f64..50_000.0, -50_000.0f64..50_000.0), 1..40),
    ) {
        let positions: Vec<Point> = coords.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let report = Request::Report { group, positions };
        let bytes = report.encoded();
        let (decoded, consumed) = Request::decode(&bytes).expect("a valid frame");
        prop_assert_eq!(&decoded, &report);
        prop_assert_eq!(consumed, bytes.len());

        let deregister = Request::Deregister { group };
        let bytes = deregister.encoded();
        let (decoded, _) = Request::decode(&bytes).expect("a valid frame");
        prop_assert_eq!(decoded, deregister);
    }

    #[test]
    fn circle_safe_region_frames_round_trip(
        group in 0u64..1 << 48,
        user in 0u32..256,
        mx in -10_000.0f64..10_000.0,
        my in -10_000.0f64..10_000.0,
        radius in 1e-6f64..5_000.0,
    ) {
        let response = Response::SafeRegion {
            group,
            user,
            meeting_point: Point::new(mx, my),
            region: SafeRegion::Circle(Circle::new(Point::new(mx + 1.0, my - 1.0), radius)),
        };
        let bytes = response.encoded();
        let (decoded, consumed) = Response::decode(&bytes).expect("a valid frame");
        prop_assert_eq!(decoded, response);
        prop_assert_eq!(consumed, bytes.len());
    }

    #[test]
    fn tile_safe_region_frames_round_trip(
        ox in -10_000.0f64..10_000.0,
        oy in -10_000.0f64..10_000.0,
        delta in 0.5f64..500.0,
        cells in prop_vec((0usize..6, -2_000i32..2_000, -2_000i32..2_000), 1..80),
    ) {
        assert_round_trips(&Response::SafeRegion {
            group: 5,
            user: 1,
            meeting_point: Point::new(ox, oy),
            region: tile_region(Point::new(ox, oy), delta, &cells),
        })?;
    }

    #[test]
    fn tile_msr_shaped_and_full_range_regions_round_trip(
        moves in prop_vec(
            (0usize..12, -4i32..4, -4i32..4, -100_000i32..100_000, -100_000i32..100_000),
            1..120,
        ),
        wild in prop_vec((0usize..32, any_coordinate(), any_coordinate()), 1..40),
    ) {
        let origin = Point::new(-3.5, 1e6);
        let walk = tile_walk(&moves);
        let walked = tile_region(origin, 2.0, &walk);
        let SafeRegion::Tiles(tiles) = &walked else { unreachable!() };
        let steps = tiles.len();
        let response =
            Response::SafeRegion { group: 5, user: 1, meeting_point: origin, region: walked };
        assert_round_trips(&response)?;
        // 48 fixed bytes, a count, one byte a cell — except after a jump, and after a cell
        // `push` dropped as a duplicate (the next step is then taken from further back):
        // those may cost an escape, 8 bytes at these coordinates.
        let escapes = moves.iter().filter(|m| m.0 == 2).count() + (moves.len() - steps);
        prop_assert!(response.encoded().len() <= 50 + steps + 7 * escapes, "{steps} cells");

        // Levels to the cap and coordinates over the whole of `i32`: escapes, bit for bit.
        assert_round_trips(&Response::SafeRegion {
            group: u64::MAX,
            user: u32::MAX,
            meeting_point: origin,
            region: tile_region(origin, 0.5, &wild),
        })?;
    }

    #[test]
    fn probe_and_notification_frames_round_trip(
        group in 0u64..u64::MAX,
        user in 0u32..10_000,
        kind in 0usize..4,
    ) {
        let probe = Response::ProbeRequest { group, user };
        let bytes = probe.encoded();
        prop_assert_eq!(Response::decode(&bytes).expect("a valid frame").0, probe);

        let kind = [
            NotificationKind::Registered,
            NotificationKind::Deregistered,
            NotificationKind::UnknownGroup,
            NotificationKind::BadRequest,
        ][kind];
        let notification = Response::Notification { group, kind };
        let bytes = notification.encoded();
        prop_assert_eq!(Response::decode(&bytes).expect("a valid frame").0, notification);
    }

    #[test]
    fn admin_frames_round_trip_and_truncate_cleanly(
        x in -50_000.0f64..50_000.0,
        y in -50_000.0f64..50_000.0,
        poi in 0u64..u64::MAX,
        cut_frac in 0.0f64..1.0,
    ) {
        for request in [
            Request::Admin(AdminRequest::PoiInsert { location: Point::new(x, y) }),
            Request::Admin(AdminRequest::PoiDelete { poi }),
        ] {
            let bytes = request.encoded();
            let (decoded, consumed) = Request::decode(&bytes).expect("a valid frame");
            prop_assert_eq!(decoded, request.clone());
            prop_assert_eq!(consumed, bytes.len());
            // Any prefix of a valid admin frame is Incomplete, never an error or a panic.
            let cut = ((bytes.len() - 1) as f64 * cut_frac) as usize;
            prop_assert_eq!(Request::decode(&bytes[..cut]).unwrap_err(), DecodeError::Incomplete);
        }
    }

    #[test]
    fn world_update_and_admin_ack_frames_round_trip(
        group in 0u64..u64::MAX,
        generation in 0u64..u64::MAX,
        revised in 0u32..u32::MAX,
        kind in 0usize..3,
        cut_frac in 0.0f64..1.0,
    ) {
        let update = Response::WorldUpdate { group, generation, revised };
        let bytes = update.encoded();
        let (decoded, consumed) = Response::decode(&bytes).expect("a valid frame");
        prop_assert_eq!(decoded, update);
        prop_assert_eq!(consumed, bytes.len());
        let cut = ((bytes.len() - 1) as f64 * cut_frac) as usize;
        prop_assert_eq!(Response::decode(&bytes[..cut]).unwrap_err(), DecodeError::Incomplete);

        // The admin acks reuse the notification frame; the group field carries the POI id.
        let kind = [
            NotificationKind::AdminApplied,
            NotificationKind::AdminDenied,
            NotificationKind::UnknownPoi,
        ][kind];
        let ack = Response::Notification { group, kind };
        let bytes = ack.encoded();
        prop_assert_eq!(Response::decode(&bytes).expect("a valid frame").0, ack);
    }

    #[test]
    fn corrupted_admin_and_world_update_frames_never_panic(
        position in 0usize..1_000,
        value in 0usize..256,
        oversize in ((16usize << 20) + 1)..(1 << 30),
    ) {
        for bytes in [
            Request::Admin(AdminRequest::PoiInsert { location: Point::new(3.0, -4.0) }).encoded(),
            Request::Admin(AdminRequest::PoiDelete { poi: 99 }).encoded(),
            Response::WorldUpdate { group: 1, generation: 2, revised: 3 }.encoded(),
        ] {
            let mut corrupt = bytes.clone();
            let index = position % corrupt.len();
            corrupt[index] = value as u8;
            // The flip may hit the tag, the admin sub-command, the length or a payload
            // byte; any outcome but a panic (or an over-allocation) is acceptable.
            let _ = Request::decode(&corrupt);
            let _ = Response::decode(&corrupt);

            // A frame whose length prefix claims more than the cap is rejected as
            // Oversize before any allocation happens.
            let mut huge = bytes;
            huge[..4].copy_from_slice(&(oversize as u32).to_le_bytes());
            prop_assert_eq!(Request::decode(&huge).unwrap_err(), DecodeError::Oversize(oversize));
            prop_assert_eq!(Response::decode(&huge).unwrap_err(), DecodeError::Oversize(oversize));
        }
    }

    #[test]
    fn truncated_frames_are_incomplete_never_panics(
        coords in prop_vec((-100.0f64..100.0, -100.0f64..100.0), 1..10),
        cut_frac in 0.0f64..1.0,
    ) {
        let positions: Vec<Point> = coords.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let bytes = Request::Report { group: 3, positions }.encoded();
        let cut = ((bytes.len() - 1) as f64 * cut_frac) as usize;
        prop_assert_eq!(Request::decode(&bytes[..cut]).unwrap_err(), DecodeError::Incomplete);
    }

    #[test]
    fn byte_soup_never_panics_the_decoders(
        bytes in prop_vec(0usize..256, 0..96).prop_map(
            |v| v.into_iter().map(|b| b as u8).collect::<Vec<u8>>()
        ),
    ) {
        // Whatever the bytes say, decoding returns — it must not panic or over-allocate.
        let _ = Request::decode(&bytes);
        let _ = Response::decode(&bytes);
    }

    #[test]
    fn non_finite_or_negative_region_geometry_is_malformed(
        tiles in 0usize..2,
        f32_kind in 0usize..2,
        slot in 0usize..3,
        bad in 0usize..3,
        x in -10_000i32..10_000,
        size in 1u32..1_000,
    ) {
        // Whole numbers are `f32`-exact; a tenth on top of each makes the frame `f64`.
        let off = if f32_kind == 1 { 0.0 } else { 0.1 };
        let mut values = [f64::from(x) + off, f64::from(-x) + off, f64::from(size) + off];
        values[slot] = match (slot, bad) {
            (_, 0) => f64::NAN,
            (2, 1) => -values[2],
            (_, 1) => f64::NEG_INFINITY,
            _ => f64::INFINITY,
        };
        let [x, y, size] = values;
        let region = if tiles == 1 {
            tile_region(Point::new(x, y), size, &[(0, 0, 0), (1, 2, -3)])
        } else {
            SafeRegion::Circle(Circle { center: Point::new(x, y), radius: size })
        };
        let bytes =
            Response::SafeRegion { group: 1, user: 0, meeting_point: Point::ORIGIN, region }
                .encoded();
        let stream = if tiles == 1 { 3 } else { 0 };
        prop_assert_eq!(bytes.len() - stream, if f32_kind == 1 { 36 } else { 48 });
        prop_assert!(matches!(Response::decode(&bytes), Err(DecodeError::Malformed(_))));
    }

    #[test]
    fn corrupting_one_byte_of_a_valid_frame_never_panics(
        position in 0usize..1_000,
        value in 0usize..256,
    ) {
        let mut bytes = Response::SafeRegion {
            group: 11,
            user: 3,
            meeting_point: Point::new(1.0, 2.0),
            region: tile_region(Point::new(0.0, 0.0), 2.0, &[(0, 0, 0), (1, 2, -3), (2, 4, 4)]),
        }
        .encoded();
        let index = position % bytes.len();
        bytes[index] = value as u8;
        // The result may be Ok (the flip hit a coordinate) or any error — just never a panic.
        let _ = Response::decode(&bytes);
    }
}
