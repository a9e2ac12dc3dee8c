//! Property-based tests of the central safe-region invariant (Definition 3) across the whole
//! stack: for randomly generated POI sets, user groups and methods, no location instance drawn
//! from the computed safe regions may change the optimal meeting point.

use mpn::core::{circle_msr, encode_cells, Method, Objective, SafeRegion, TileCell, TileFrame};
use mpn::geom::{Circle, DistanceBounds, Point, Rect};
use mpn::index::RTree;
use mpn::proto::Response;
use proptest::prelude::*;

fn arb_point(domain: f64) -> impl Strategy<Value = Point> {
    (0.0..domain, 0.0..domain).prop_map(|(x, y)| Point::new(x, y))
}

fn arb_pois(domain: f64) -> impl Strategy<Value = Vec<Point>> {
    proptest::collection::vec(arb_point(domain), 2..40)
}

fn arb_users(domain: f64) -> impl Strategy<Value = Vec<Point>> {
    proptest::collection::vec(arb_point(domain), 2..5)
}

/// Samples a location inside a safe region using two unit parameters.
fn sample_in_region(region: &SafeRegion, u: f64, v: f64) -> Point {
    match region {
        SafeRegion::Circle(c) => {
            let angle = u * std::f64::consts::TAU;
            let radius = c.radius * v.sqrt();
            Point::new(c.center.x + radius * angle.cos(), c.center.y + radius * angle.sin())
        }
        SafeRegion::Tiles(tiles) => {
            let mut rects = tiles.tiles();
            let idx = ((u * rects.len() as f64) as usize).min(rects.len() - 1);
            let rect = rects.nth(idx).expect("a tile of the region");
            let (width, height) = (rect.hi.x - rect.lo.x, rect.hi.y - rect.lo.y);
            Point::new(rect.lo.x + width * v, rect.lo.y + height * (1.0 - u))
        }
    }
}

fn check_invariant(
    pois: &[Point],
    users: &[Point],
    objective: Objective,
    method: Method,
    samples: &[(f64, f64)],
) -> Result<(), TestCaseError> {
    let tree = RTree::bulk_load(pois);
    let (answer, _) = method.answer(&tree, objective, users, None);
    prop_assert_eq!(answer.regions.len(), users.len());
    prop_assert!(answer.all_inside(users));

    for &(u, v) in samples {
        let instance: Vec<Point> =
            answer.regions.iter().map(|region| sample_in_region(region, u, v)).collect();
        for (region, l) in answer.regions.iter().zip(&instance) {
            prop_assert!(region.contains(*l), "sampled location escaped its region");
        }
        let agg = |p: Point| objective.aggregate().point_dist(p, &instance);
        let best = pois.iter().map(|p| agg(*p)).fold(f64::INFINITY, f64::min);
        prop_assert!(
            agg(answer.optimal_point) <= best + 1e-6,
            "optimum changed for a location instance inside the safe regions"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    #[test]
    fn circle_regions_uphold_definition_3(
        pois in arb_pois(1_000.0),
        users in arb_users(1_000.0),
        samples in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 8),
    ) {
        for objective in [Objective::Max, Objective::Sum] {
            check_invariant(&pois, &users, objective, Method::circle(), &samples)?;
        }
    }

    #[test]
    fn tile_regions_uphold_definition_3(
        pois in arb_pois(1_000.0),
        users in arb_users(1_000.0),
        samples in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 8),
    ) {
        for objective in [Objective::Max, Objective::Sum] {
            check_invariant(&pois, &users, objective, Method::tile(), &samples)?;
        }
    }

    #[test]
    fn directed_and_buffered_tiles_uphold_definition_3(
        pois in arb_pois(1_000.0),
        users in arb_users(1_000.0),
        samples in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 6),
    ) {
        check_invariant(
            &pois,
            &users,
            Objective::Max,
            Method::tile_directed(std::f64::consts::FRAC_PI_4),
            &samples,
        )?;
        check_invariant(
            &pois,
            &users,
            Objective::Max,
            Method::tile_directed_buffered(std::f64::consts::FRAC_PI_4, 10),
            &samples,
        )?;
    }

    #[test]
    fn compression_round_trips_arbitrary_tile_regions(
        pois in arb_pois(1_000.0),
        users in arb_users(1_000.0),
    ) {
        let tree = RTree::bulk_load(&pois);
        let (answer, _) = Method::tile().answer(&tree, Objective::Max, &users, None);
        for (user, region) in answer.regions.iter().enumerate() {
            let SafeRegion::Tiles(tiles) = region else { continue };
            let response = Response::SafeRegion {
                group: 7,
                user: user as u32,
                meeting_point: answer.optimal_point,
                region: region.clone(),
            };
            let bytes = response.encoded();
            let (decoded, consumed) = Response::decode(&bytes).expect("a valid frame");
            prop_assert_eq!(consumed, bytes.len());
            let Response::SafeRegion { region: SafeRegion::Tiles(back), .. } = &decoded else {
                panic!("decoded to {decoded:?}");
            };
            prop_assert_eq!(back.cells(), tiles.cells());
            prop_assert_eq!(back.frame(), tiles.frame());
            prop_assert_eq!(&decoded, &response);
            // What the retired fixed-width layout cost: 62 header bytes + 9 a tile.
            prop_assert!(bytes.len() <= 62 + 9 * tiles.len());
        }
    }
}

/// A world far from the origin or not: a base point at 0, at the world edge (10,000), at
/// ±2²⁴ (where `f32`s are 2 apart), at the `i32` edges (256 apart) or anywhere in the world,
/// and points up to 100 from it.
fn arb_placed_world() -> impl Strategy<Value = (Vec<Point>, Vec<Point>)> {
    let base = (0usize..7, 0.0f64..10_000.0).prop_map(|(pick, any)| {
        [0.0, 10_000.0, 16_777_216.0, -16_777_216.0, f64::from(i32::MIN), f64::from(i32::MAX), any]
            [pick]
    });
    let near = || (0.0f64..100.0, 0.0f64..100.0);
    let (pois, users) =
        (proptest::collection::vec(near(), 2..30), proptest::collection::vec(near(), 1..5));
    (base, pois, users).prop_map(|(base, pois, users)| {
        let place = |&(x, y): &(f64, f64)| Point::new(base + x, base + y);
        (pois.iter().map(place).collect(), users.iter().map(place).collect())
    })
}

/// The region's geometry and cells as bits: what a decoder must rebuild exactly.
fn region_bits(region: &SafeRegion) -> (Vec<u64>, Vec<TileCell>) {
    let (values, cells) = match region {
        SafeRegion::Circle(c) => ([c.center.x, c.center.y, c.radius], vec![]),
        SafeRegion::Tiles(t) => {
            let f = t.frame();
            ([f.origin.x, f.origin.y, f.delta], t.cells().to_vec())
        }
    };
    (values.iter().map(|v| v.to_bits()).collect(), cells)
}

/// Whether the point is strictly inside the rectangle.
fn strictly_inside(rect: &Rect, p: Point) -> bool {
    rect.lo.x < p.x && p.x < rect.hi.x && rect.lo.y < p.y && p.y < rect.hi.y
}

// The regions as sent, for every method × objective: `f32` geometry where it is sound — inside
// the Theorem 1 / 5 disc or the exact inscribed seed square, with the user strictly inside —
// and the exact kind where it is not, every tie included; either way rebuilt bit for bit.
proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    #[test]
    fn sent_regions_round_trip_nest_in_the_theorem_regions_and_hold_their_users(
        world in arb_placed_world(),
        tie in 0usize..3,
    ) {
        let (pois, users) = world;
        // A POI set with every location twice forces a best/runner-up tie: `r_max = 0`.
        let pois = if tie == 0 { [pois.as_slice(), pois.as_slice()].concat() } else { pois };
        let tree = RTree::bulk_load(&pois);
        let methods = [
            Method::circle(),
            Method::tile(),
            Method::tile_directed(std::f64::consts::FRAC_PI_4),
            Method::tile_directed_buffered(std::f64::consts::FRAC_PI_4, 10),
        ];
        for method in methods {
            for objective in [Objective::Max, Objective::Sum] {
                let r_max = circle_msr(&tree, &users, objective).radius;
                prop_assert!(tie != 0 || r_max == 0.0, "duplicated POIs tie");
                let (answer, _) = method.answer(&tree, objective, &users, None);
                for (i, (region, &u)) in answer.regions.iter().zip(&users).enumerate() {
                    let response = Response::SafeRegion {
                        group: 7,
                        user: i as u32,
                        meeting_point: answer.optimal_point,
                        region: region.clone(),
                    };
                    let bytes = response.encoded();
                    let (decoded, _) = Response::decode(&bytes).expect("a valid frame");
                    let Response::SafeRegion { region: back, .. } = &decoded else {
                        panic!("decoded to {decoded:?}")
                    };
                    prop_assert_eq!(region_bits(back), region_bits(region), "bit for bit");

                    // Length, tag, one-byte ids and meeting point (23 B), the kind byte, then
                    // 24 B of `f64` geometry or 12 B of `f32`s; then a tile step stream.
                    let mut stream = Vec::new();
                    if let SafeRegion::Tiles(t) = region {
                        encode_cells(t.cells(), &mut stream);
                    }
                    let header = bytes.len() - stream.len();
                    prop_assert!(header == 36 || header == 48, "{header}-byte header");
                    let f32_kind = header == 36;
                    prop_assert!(r_max > 0.0 || !f32_kind, "a tie ships the exact kind");

                    match region {
                        SafeRegion::Circle(c) if f32_kind => {
                            let snap = c.center.dist(u);
                            prop_assert!(snap + c.radius <= r_max, "inside Circle(u, r_max)");
                            prop_assert!(snap < c.radius, "the user is strictly inside");
                        }
                        SafeRegion::Circle(c) => {
                            prop_assert_eq!(*c, Circle::new(u, r_max));
                            prop_assert!(c.contains(u));
                        }
                        SafeRegion::Tiles(t) => {
                            let delta = std::f64::consts::SQRT_2 * r_max;
                            let exact = TileFrame::centered_at(u, delta);
                            let seed = t.frame().tile(TileCell::SEED);
                            prop_assert_eq!(t.cells()[0], TileCell::SEED);
                            if f32_kind {
                                let inscribed = exact.tile(TileCell::SEED);
                                prop_assert!(inscribed.contains_rect(&seed), "nested seed");
                                prop_assert!(strictly_inside(&seed, u), "strictly inside");
                            } else {
                                prop_assert_eq!(t.frame(), exact);
                                prop_assert!(delta <= f64::EPSILON || strictly_inside(&seed, u));
                                prop_assert!(t.contains(u));
                            }
                        }
                    }
                }
            }
        }
    }
}

/// One tile push: which user's region grows, and by which cell of her frame.
fn arb_push() -> impl Strategy<Value = (usize, u8, i32, i32)> {
    (0usize..4, 0u32..2, -3i32..4, -3i32..4)
        .prop_map(|(user, level, ix, iy)| (user, level as u8, ix, iy))
}

// Lemma 1 soundness of the incremental GT-Verify: whatever it accepts, the exhaustive
// enumeration over every tile combination accepts too — with one long-lived verifier whose
// summaries are extended across pushes interleaved over the users, and with regions that
// start (and may stay) empty, where every check is vacuously true.
proptest! {
    #![proptest_config(ProptestConfig { cases: 256, .. ProptestConfig::default() })]

    #[test]
    fn incremental_gt_verify_is_sound_wrt_exhaustive_enumeration(
        frames in proptest::collection::vec((arb_point(60.0), 2.0f64..12.0), 2..5),
        pushes in proptest::collection::vec(arb_push(), 0..10),
        p_opt in arb_point(60.0),
        candidates in proptest::collection::vec(arb_point(120.0), 1..4),
        probe in arb_push(),
    ) {
        use mpn::core::verify::verify_max_exhaustive;
        use mpn::core::{ComputeStats, TileRegion, TileVerifier};

        let m = frames.len();
        let anchors: Vec<Point> = frames.iter().map(|(anchor, _)| *anchor).collect();
        let mut regions: Vec<TileRegion> = frames
            .iter()
            .map(|(anchor, delta)| TileRegion::new(TileFrame::centered_at(*anchor, *delta)))
            .collect();
        let mut verifier = TileVerifier::default();
        verifier.begin(Objective::Max, p_opt, &anchors);
        let mut stats = ComputeStats::default();

        // Step 0 verifies against the empty regions; every later step follows one push.
        let steps = std::iter::once(None).chain(pushes.iter().map(Some));
        for (step, push) in steps.enumerate() {
            if let Some(&(user, level, ix, iy)) = push {
                regions[user % m].push(TileCell::new(level, ix, iy));
            }
            let user = (probe.0 + step) % m;
            let tile = regions[user].frame().tile(TileCell::new(probe.1, probe.2, probe.3));
            let mut per_user: Vec<Vec<_>> = regions.iter().map(|r| r.tiles().collect()).collect();
            per_user[user] = vec![tile];
            for (slot, candidate) in candidates.iter().enumerate() {
                let accepted =
                    verifier.accepts(&regions, user, &tile, [(*candidate, slot)], &mut stats);
                let exhaustive = verify_max_exhaustive(&per_user, p_opt, *candidate);
                prop_assert!(
                    !accepted || exhaustive,
                    "step {step}: GT-Verify accepted a tile the enumeration rejects"
                );
                if per_user.iter().any(Vec::is_empty) {
                    prop_assert!(accepted, "step {step}: an empty region must verify vacuously");
                }
            }
        }
    }
}
