//! Property-based tests of the central safe-region invariant (Definition 3) across the whole
//! stack: for randomly generated POI sets, user groups and methods, no location instance drawn
//! from the computed safe regions may change the optimal meeting point.

use mpn::core::{Method, MpnServer, Objective, SafeRegion};
use mpn::geom::Point;
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
            let squares = tiles.squares();
            let idx = ((u * squares.len() as f64) as usize).min(squares.len() - 1);
            let rect = squares[idx].to_rect();
            Point::new(rect.lo.x + rect.width() * v, rect.lo.y + rect.height() * (1.0 - u))
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
    let server = MpnServer::new(&tree, objective, method);
    let answer = server.compute(users);
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
        let answer = MpnServer::new(&tree, Objective::Max, Method::tile()).compute(&users);
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
        use mpn::core::{ComputeStats, TileCell, TileFrame, TileRegion, TileVerifier};

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
            let tile = regions[user].frame().square(TileCell::new(probe.1, probe.2, probe.3));
            let mut per_user: Vec<_> = regions.iter().map(|r| r.squares().to_vec()).collect();
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
