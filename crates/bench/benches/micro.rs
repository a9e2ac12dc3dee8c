//! Micro-benchmarks and ablations (criterion-free).
//!
//! The build environment has no network access, so instead of criterion this is a plain
//! `harness = false` binary with a small measurement loop: per benchmark it warms up, then
//! reports the mean, median and p95 over a fixed wall-clock budget.  Run with
//! `cargo bench -p mpn-bench` (optionally `MPN_MICRO_MS=500` to change the per-benchmark
//! budget, `MPN_MICRO_FILTER=tile` to run a subset).
//!
//! Covered timings:
//!
//! * safe-region computation cost per engine (Circle vs Tile vs Tile-D vs Tile-D-b),
//! * one report into a registered Circle fleet of 200 and of 20,000 groups: a tick costs the
//!   groups that reported, not the fleet (printed side by side, never asserted as a ratio),
//! * GT-Verify (Section 5.3): a whole Tile-MSR run, ns per (tile, candidate) pair on the pass
//!   and the fail path of the incremental verifier, and 64 cold Tile-D-b/MAX first regions at
//!   the paper's data-set size,
//! * the exit check of a stored tile region (`Answer::leavers`), ns per user,
//! * the SUM side of the tile methods: ns per closed-form focal-difference minimum
//!   (Section 6.3.1) and a whole unbuffered Tile-D/SUM recompute served by one candidate pool,
//! * R-tree GNN query cost,
//! * tile-region compression encode/decode throughput,
//! * `mpn-proto` wire codec round-trip throughput (report and safe-region frames).
//!
//! The allocation gates of the tick hot path are a tier-1 test (`tests/alloc_gates.rs`).

use std::hint::black_box;
use std::time::{Duration, Instant};

use mpn_core::{
    circle_msr, decode_cells, encode_cells, tile_msr, ComputeStats, Method, Objective, SafeRegion,
    TileCell, TileFrame, TileMsrConfig, TileRegion, TileVerifier,
};
use mpn_geom::{min_focal_diff_over_tile, Point, Rect};
use mpn_index::{frontier_pushes, Aggregate, GnnSearch, QueryStats, RTree};
use mpn_mobility::poi::{clustered_pois, uniform_pois, PoiConfig};
use mpn_proto::{Request, Response};
use mpn_sim::{EpochUpdate, MonitorConfig, MonitoringEngine};

fn poi_tree(n: usize) -> RTree {
    let pois = clustered_pois(&PoiConfig { count: n, domain: 10_000.0, ..PoiConfig::default() }, 7);
    RTree::bulk_load(&pois)
}

fn users(m: usize) -> Vec<Point> {
    (0..m)
        .map(|i| Point::new(4_000.0 + 300.0 * i as f64, 5_000.0 + 170.0 * (i as f64).sin() * 200.0))
        .collect()
}

/// GT-Verify fixture: three users with 5 × 5 tiles each around `pᵒ` = the origin, a tile one
/// step beyond user 0's region, and 1,000 candidates on a ring — at radius 5,000 every pair
/// passes the whole-region check (Algorithm 4, lines 1-2), at radius 30 every pair fails it,
/// answers Theorem 2 from its sorted summaries (built on the first pass) and is rejected.
struct GtFixture {
    anchors: [Point; 3],
    regions: Vec<TileRegion>,
    tile: Rect,
    candidates: Vec<(Point, usize)>,
}

fn gt_fixture(ring_radius: f64) -> GtFixture {
    let anchors = [Point::new(-40.0, 10.0), Point::new(35.0, 25.0), Point::new(5.0, -45.0)];
    let regions: Vec<TileRegion> = anchors
        .iter()
        .map(|anchor| {
            let mut region = TileRegion::new(TileFrame::centered_at(*anchor, 8.0));
            for ix in -2..=2 {
                for iy in -2..=2 {
                    region.push(TileCell::new(0, ix, iy));
                }
            }
            region
        })
        .collect();
    let tile = regions[0].frame().tile(TileCell::new(0, 3, 0));
    let candidates = (0..1_000)
        .map(|k| {
            let angle = f64::from(k) * std::f64::consts::TAU / 1_000.0;
            (Point::new(ring_radius * angle.cos(), ring_radius * angle.sin()), k as usize)
        })
        .collect();
    GtFixture { anchors, regions, tile, candidates }
}

/// Runs `f` repeatedly for the configured budget and prints mean / median / p95.
fn bench<T>(name: &str, budget: Duration, filter: &str, mut f: impl FnMut() -> T) {
    if !name.contains(filter) {
        return;
    }
    // Warm-up: a tenth of the budget.
    let warm_until = Instant::now() + budget / 10;
    while Instant::now() < warm_until {
        black_box(f());
    }
    let mut samples: Vec<Duration> = Vec::new();
    let run_until = Instant::now() + budget;
    // Do-while: always take at least one sample, even with a zero budget.
    loop {
        let start = Instant::now();
        black_box(f());
        samples.push(start.elapsed());
        if Instant::now() >= run_until {
            break;
        }
    }
    samples.sort();
    let mean = samples.iter().sum::<Duration>() / samples.len() as u32;
    let median = samples[samples.len() / 2];
    let p95 = samples[(samples.len() as f64 * 0.95) as usize..][0];
    println!(
        "{name:<42} {:>10.1} us mean  {:>10.1} us median  {:>10.1} us p95  ({} iters)",
        mean.as_secs_f64() * 1e6,
        median.as_secs_f64() * 1e6,
        p95.as_secs_f64() * 1e6,
        samples.len()
    );
}

fn main() {
    let budget = Duration::from_millis(
        std::env::var("MPN_MICRO_MS").ok().and_then(|v| v.parse().ok()).unwrap_or(1_000),
    );
    let filter = std::env::var("MPN_MICRO_FILTER").unwrap_or_default();
    let b = |name: &str, f: &mut dyn FnMut()| bench(name, budget, &filter, f);

    println!("# mpn micro-benchmarks (budget {budget:?}/bench)\n");

    // Safe-region computation per method.
    {
        let tree = poi_tree(8_000);
        let group = users(3);
        let methods = [
            ("safe_region/circle", Method::circle()),
            ("safe_region/tile", Method::tile()),
            ("safe_region/tile_directed", Method::tile_directed(std::f64::consts::FRAC_PI_4)),
            (
                "safe_region/tile_directed_buffered",
                Method::tile_directed_buffered(std::f64::consts::FRAC_PI_4, 100),
            ),
        ];
        for (name, method) in methods {
            b(name, &mut || {
                black_box(method.answer(&tree, Objective::Max, black_box(&group), None));
            });
        }
        for (name, method) in
            [("safe_region/sum_tile", Method::tile()), ("safe_region/sum_circle", Method::circle())]
        {
            b(name, &mut || {
                black_box(method.answer(&tree, Objective::Sum, black_box(&group), None));
            });
        }
    }

    // One report into a quiet registered fleet: the paper's server does nothing for a group
    // until it reports (§3), so the tick that consumes one report should cost one session's
    // work whatever the fleet size.  Both fleets are stationary Circle/MAX groups of three
    // on a grid; each sample submits one group's (unchanged) positions and ticks once.
    for groups in [200usize, 20_000] {
        let config = MonitorConfig::new(Objective::Max, Method::circle());
        let mut engine = MonitoringEngine::new(poi_tree(8_000), 1);
        let spot = |g: usize| {
            let (x, y) = (300.0 + 65.0 * (g % 145) as f64, 300.0 + 65.0 * (g / 145) as f64);
            (0..3).map(|i| Point::new(x + 14.0 * i as f64, y + 8.0 * i as f64)).collect()
        };
        let report = |engine: &mut MonitoringEngine, group_id| {
            engine.submit(EpochUpdate { group_id, positions: spot(group_id) }).expect("live");
        };
        for _ in 0..groups {
            let id = engine.register_stream(3, config);
            report(&mut engine, id);
        }
        engine.tick(); // registration: every initial computation, once
        let mut next = 0;
        b(&format!("tick/one_report_of_{groups}"), &mut || {
            report(&mut engine, next);
            black_box(engine.tick());
            next = (next + 1) % groups;
        });
    }

    // The verifier: a whole Tile-MSR run and its per-candidate pass and fail paths.
    {
        let tree = poi_tree(4_000);
        let group = users(3);
        let config = TileMsrConfig { alpha: 10, ..TileMsrConfig::default() };
        b("ablation/gt_verify", &mut || {
            black_box(tile_msr(&tree, &group, Objective::Max, &config, None));
        });
        // One iteration verifies 1,000 (tile, candidate) pairs against warm summaries, so
        // the printed microseconds read as nanoseconds per candidate.
        for (name, ring_radius, expect) in [
            ("tile/gt_verify_ns_per_candidate/pass", 5_000.0, true),
            ("tile/gt_verify_ns_per_candidate/fail", 30.0, false),
        ] {
            let GtFixture { anchors, regions, tile, candidates } = gt_fixture(ring_radius);
            let mut verifier = TileVerifier::default();
            verifier.begin(Objective::Max, Point::ORIGIN, &anchors);
            let mut stats = ComputeStats::default();
            b(name, &mut || {
                for candidate in &candidates {
                    let ok = verifier.accepts(&regions, 0, &tile, [*candidate], &mut stats);
                    assert_eq!(ok, expect, "{name}: the fixture left its path");
                }
            });
        }
    }

    // First regions of the paper's main method at its data-set size: 64 groups of three spread
    // over the domain, one cold Tile-D-b/MAX `Method::answer` each (GNN buffer, seed circle,
    // tile growth with GT-Verify on every tried tile) — the work `drive_tile_max`'s `setup_s`
    // times for its 200 groups.  One iteration answers all 64; the section prints verify calls
    // and (tile, candidate) pairs per answer.
    {
        let tree = poi_tree(21_287);
        let method = Method::tile_directed_buffered(std::f64::consts::FRAC_PI_4, 100);
        let groups: Vec<[Point; 3]> = (0..64)
            .map(|g| {
                let t = f64::from(g);
                let centre = Point::new(
                    5_000.0 + 4_000.0 * (t * 0.731).sin(),
                    5_000.0 + 4_000.0 * (t * 1.237).cos(),
                );
                [0.0, 2.1, 4.2].map(|phase| {
                    let r = 200.0 + 600.0 * (t * 0.37 + phase).sin().abs();
                    Point::new(centre.x + r * (t + phase).cos(), centre.y + r * (t + phase).sin())
                })
            })
            .collect();
        let name = "tile/first_regions_tile_d_b_max";
        let (mut work, mut answers) = (ComputeStats::default(), 0);
        b(name, &mut || {
            for group in &groups {
                let answer = method.answer(&tree, Objective::Max, black_box(group), None);
                work.absorb(&black_box(answer).1);
            }
            answers += groups.len();
        });
        if answers > 0 {
            let per = |count: usize| count as f64 / answers as f64;
            let (calls, pairs) = (per(work.verify_calls), per(work.candidates_checked));
            println!("{name} per answer: {calls:.1} verify calls, {pairs:.1} pairs");
        }
    }

    // The exit check of a stored tile region, which maps each cell to its tile on the fly: a
    // Tile-D-b/MAX answer for four users against 250 epochs, alternately every user at the
    // centre of one of her tiles and every user 1 km off it (a miss scans every tile).  One
    // iteration checks 1,000 users, so the printed microseconds read as nanoseconds per user.
    {
        let method = Method::tile_directed_buffered(std::f64::consts::FRAC_PI_4, 100);
        let (answer, _) = method.answer(&poi_tree(8_000), Objective::Max, &users(4), None);
        let epochs: Vec<Vec<Point>> = (0..250)
            .map(|k| {
                let off = if k % 2 == 0 { 0.0 } else { 1_000.0 };
                let at = |(i, region): (usize, &SafeRegion)| match region {
                    SafeRegion::Tiles(t) => t.frame().tile(t.cells()[(7 * k + i) % t.len()]),
                    SafeRegion::Circle(_) => unreachable!("a tile method answers with tiles"),
                };
                let shifted = |t: Rect| Point::new(t.center().x + off, t.center().y - off);
                answer.regions.iter().enumerate().map(|r| shifted(at(r))).collect()
            })
            .collect();
        b("tile/violation_check_ns_per_user", &mut || {
            for (k, positions) in epochs.iter().enumerate() {
                let leavers = answer.leavers(black_box(positions));
                assert_eq!(leavers, (k % 2) * positions.len(), "the fixture left its path");
            }
        });
    }

    // The SUM verifier's kernel and the unbuffered recompute that calls it per (tile, candidate).
    {
        // One iteration minimises over 1,000 (candidate, tile) pairs around pᵒ = the origin,
        // so the printed microseconds read as nanoseconds per call.
        let cases: Vec<(Point, Rect)> = (0..1_000)
            .map(|k| {
                let angle = f64::from(k) * 0.61;
                let candidate = Point::new(900.0 * angle.cos(), 700.0 * angle.sin());
                let centre = Point::new(40.0 * (1.7 * angle).sin(), 55.0 * (2.3 * angle).cos());
                let half = (4.0 + f64::from(k % 7)) / 2.0;
                let half = Point::new(half, half);
                (candidate, Rect::new(centre - half, centre + half))
            })
            .collect();
        b("geom/min_focal_diff_ns", &mut || {
            for (candidate, tile) in &cases {
                black_box(min_focal_diff_over_tile(*candidate, Point::ORIGIN, black_box(tile)));
            }
        });
        let tree = poi_tree(8_000);
        let group = users(3);
        let config = TileMsrConfig::tile_directed(std::f64::consts::FRAC_PI_4);
        b("tile/sum_recompute_unbuffered", &mut || {
            black_box(tile_msr(&tree, black_box(&group), Objective::Sum, &config, None));
        });
    }

    // GNN query cost by data-set size.
    for n in [2_000usize, 8_000, 21_287] {
        let tree = poi_tree(n);
        let group = users(3);
        for agg in [Aggregate::Max, Aggregate::Sum] {
            let name = format!("gnn/top2_{}_{n}", agg.name());
            bench(&name, budget, &filter, || {
                black_box(GnnSearch::new(&tree, &group, agg).top_k(2));
            });
        }
    }

    // The same query cold: the sections above ask about one hot location, so the tree nodes
    // they touch never leave the cache.  One iteration runs 1,000 distinct groups of three
    // spread over the domain, so the printed microseconds read as nanoseconds per query.
    // Users sit 1–3 km from their group's centre in `cold`, as in the repository benchmark's
    // `churn_circle_sum` registrations, and each on its own over the domain in `spread_cold`, as
    // `walk_circle_max`'s walkers do.  Each prints nodes opened, points scored and frontier pushes
    // per query.
    {
        let tree = poi_tree(21_287);
        let centred: Vec<[Point; 3]> = (0..1_000)
            .map(|g| {
                let t = f64::from(g);
                let centre = Point::new(
                    5_000.0 + 4_500.0 * (t * 0.731).sin(),
                    5_000.0 + 4_500.0 * (t * 1.237).cos(),
                );
                [0.0, 2.1, 4.2].map(|phase| {
                    let r = 1_000.0 + 2_000.0 * (t * 0.37 + phase).sin().abs();
                    Point::new(centre.x + r * (t + phase).cos(), centre.y + r * (t + phase).sin())
                })
            })
            .collect();
        let spread: Vec<[Point; 3]> =
            uniform_pois(3_000, 10_000.0, 11).chunks(3).map(|u| [u[0], u[1], u[2]]).collect();
        for (kind, groups, agg) in [
            ("cold", &centred, Aggregate::Max),
            ("cold", &centred, Aggregate::Sum),
            ("spread_cold", &spread, Aggregate::Max),
        ] {
            let (mut out, mut work, mut queries) = (Vec::new(), QueryStats::default(), 0);
            let name = format!("gnn/top2_{}_{kind}_21287", agg.name());
            let before = frontier_pushes();
            b(&name, &mut || {
                for group in groups {
                    work.absorb(GnnSearch::new(&tree, group, agg).top_k_into(2, &mut out));
                }
                queries += groups.len();
            });
            if queries > 0 {
                let per = |count: usize| count as f64 / queries as f64;
                let (nodes, points) = (per(work.nodes_visited), per(work.points_examined));
                let pushes = per(frontier_pushes() - before);
                let counts = format!("{nodes:.1} nodes opened, {points:.1} points scored");
                println!("{name} per query: {counts}, {pushes:.1} frontier pushes");
            }
        }
    }

    // Circle-MSR at the paper's data-set size.
    {
        let tree = poi_tree(21_287);
        let group = users(5);
        b("circle_msr/21k_pois", &mut || {
            black_box(circle_msr(&tree, &group, Objective::Max));
        });
    }

    // Tile-region compression (the step stream `mpn-proto` sends), then the codec round-trips
    // around it: the serialisation cost a network front-end pays on top of the compute.
    {
        let tree = poi_tree(8_000);
        let group = users(3);
        let out = tile_msr(&tree, &group, Objective::Max, &TileMsrConfig::default(), None);
        let region =
            out.regions.iter().max_by_key(|r| r.len()).expect("at least one region").clone();
        let mut stream = Vec::new();
        b("compression/encode", &mut || {
            stream.clear();
            encode_cells(black_box(region.cells()), &mut stream);
        });
        b("compression/decode", &mut || {
            black_box(decode_cells(black_box(&stream)).expect("a valid stream"));
        });
        let report = Request::Report { group: 42, positions: users(5) };
        let safe_region = Response::SafeRegion {
            group: 42,
            user: 2,
            meeting_point: Point::new(4_000.0, 5_000.0),
            region: mpn_core::SafeRegion::Tiles(Box::new(region)),
        };
        b("proto/codec_roundtrip_report", &mut || {
            let bytes = black_box(&report).encoded();
            black_box(Request::decode(&bytes).unwrap());
        });
        b("proto/codec_roundtrip_safe_region", &mut || {
            let bytes = black_box(&safe_region).encoded();
            black_box(Response::decode(&bytes).unwrap());
        });
    }
}
