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
//! * stateful vs stateless Tile-D-b sessions (the §5.4 buffer-reuse win),
//! * quiet-tick executor overhead of the persistent worker pool,
//! * one report into a registered Circle fleet of 200 and of 20,000 groups: a tick costs the
//!   groups that reported, not the fleet (printed side by side, never asserted as a ratio),
//! * skewed-fleet busy ticks: Zipf group sizes, the big groups neighbours in id order —
//!   one chunk per worker vs work-stealing session batches vs stealing plus the shared
//!   query cache,
//! * GT-Verify (Section 5.3): a whole Tile-MSR run, ns per (tile, candidate) pair on the pass
//!   and the fail path of the incremental verifier, and 64 cold Tile-D-b/MAX first regions at
//!   the paper's data-set size,
//! * index pruning on/off (Theorem 3),
//! * the SUM side of the tile methods: ns per closed-form focal-difference minimum
//!   (Section 6.3.1) and a whole unbuffered Tile-D/SUM recompute served by one candidate pool,
//! * R-tree GNN query cost,
//! * tile-region compression encode/decode throughput,
//! * `mpn-proto` wire codec round-trip throughput (report and safe-region frames).
//!
//! The allocation gates of the tick hot path are a tier-1 test (`tests/alloc_gates.rs`).

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mpn_core::{
    circle_msr, decode_cells, encode_cells, tile_msr, ComputeStats, Method, Objective,
    SessionState, TileCell, TileFrame, TileMsrConfig, TileRegion, TileVerifier,
};
use mpn_geom::{min_focal_diff_over_square, Point, Square};
use mpn_index::{Aggregate, GnnSearch, QueryCache, RTree};
use mpn_mobility::poi::{clustered_pois, PoiConfig};
use mpn_mobility::Trajectory;
use mpn_proto::{Request, Response};
use mpn_sim::{EpochUpdate, MonitorConfig, MonitoringEngine, TickExecutor, TrajectoryFeed};

fn poi_tree(n: usize) -> RTree {
    let pois = clustered_pois(&PoiConfig { count: n, domain: 10_000.0, ..PoiConfig::default() }, 7);
    RTree::bulk_load(&pois)
}

fn users(m: usize) -> Vec<Point> {
    (0..m)
        .map(|i| Point::new(4_000.0 + 300.0 * i as f64, 5_000.0 + 170.0 * (i as f64).sin() * 200.0))
        .collect()
}

/// Registers one stream per feed and runs their registration tick; returns the ids beside
/// the feeds.
fn replay_fleet(
    engine: &mut MonitoringEngine,
    feeds: impl Iterator<Item = TrajectoryFeed>,
    config: MonitorConfig,
) -> Vec<(usize, TrajectoryFeed)> {
    let mut fleet: Vec<_> =
        feeds.map(|feed| (engine.register_stream(feed.group_size(), config), feed)).collect();
    replay_tick(engine, &mut fleet);
    fleet
}

/// Submits every replay's next recorded epoch, then ticks: what one sample of a replayed
/// fleet costs.
fn replay_tick(engine: &mut MonitoringEngine, replays: &mut [(usize, TrajectoryFeed)]) {
    for (group_id, feed) in replays.iter_mut() {
        let positions = feed.next_epoch().expect("horizon exhausted mid-bench");
        engine.submit(EpochUpdate { group_id: *group_id, positions }).expect("a live group");
    }
    black_box(engine.tick());
}

/// GT-Verify fixture: three users with 5 × 5 tiles each around `pᵒ` = the origin, a tile one
/// step beyond user 0's region, and 1,000 candidates on a ring — at radius 5,000 every pair
/// passes the whole-region check (Algorithm 4, lines 1-2), at radius 30 every pair fails it,
/// answers Theorem 2 from its sorted summaries (built on the first pass) and is rejected.
struct GtFixture {
    anchors: [Point; 3],
    regions: Vec<TileRegion>,
    tile: Square,
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
    let tile = regions[0].frame().square(TileCell::new(0, 3, 0));
    let candidates = (0..1_000)
        .map(|k| {
            let angle = f64::from(k) * std::f64::consts::TAU / 1_000.0;
            (Point::new(ring_radius * angle.cos(), ring_radius * angle.sin()), k as usize)
        })
        .collect();
    GtFixture { anchors, regions, tile, candidates }
}

/// Runs `f` repeatedly for the configured budget and prints mean / median / p95.
///
/// Returns the measured mean — `None` when the benchmark was filtered out — so sections
/// can compare variants (e.g. the skewed-fleet executor speedup) without re-measuring.
fn bench<T>(
    name: &str,
    budget: Duration,
    filter: &str,
    mut f: impl FnMut() -> T,
) -> Option<Duration> {
    if !name.contains(filter) {
        return None;
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
    Some(mean)
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

    // Stateful session vs stateless recomputation for the buffered method.
    {
        let tree = poi_tree(8_000);
        let group = users(3);
        let method = Method::tile_directed_buffered(std::f64::consts::FRAC_PI_4, 100);
        b("session/tile_d_b_stateless", &mut || {
            black_box(method.answer(&tree, Objective::Max, black_box(&group), None));
        });
        let mut session = SessionState::new(group.len(), 0.3).with_persistent_buffers(true);
        session.observe(&group);
        black_box(method.answer_session(&tree, Objective::Max, &group, &mut session)); // prime
        b("session/tile_d_b_persistent", &mut || {
            black_box(method.answer_session(
                &tree,
                Objective::Max,
                black_box(&group),
                &mut session,
            ));
        });
    }

    // Executor overhead on quiet ticks: a fleet of stationary groups never violates its safe
    // regions after registration, so every tick is pure violation checking — the per-tick
    // cost is dominated by how the executor wakes the pool workers, which the persistent
    // pool keeps parked between ticks.  Every group reports each sample, or the tick would
    // have nobody to advance.
    {
        let tree = Arc::new(poi_tree(2_000));
        let stationary: Arc<Vec<Trajectory>> =
            Arc::new(users(3).iter().map(|p| Trajectory::new(vec![*p; 400_000])).collect());
        let config = MonitorConfig::new(Objective::Max, Method::circle());
        let mut pool_engine = MonitoringEngine::new(Arc::clone(&tree), 8);
        // 32 groups sharing one recording (feeds share the Arc, never copy the data).
        let feeds = (0..32).map(|_| TrajectoryFeed::new(Arc::clone(&stationary)));
        let mut fleet = replay_fleet(&mut pool_engine, feeds, config);
        b("executor/quiet_tick_pool", &mut || replay_tick(&mut pool_engine, &mut fleet));
    }

    // One report into a quiet registered fleet: the paper's server does nothing for a group
    // until it reports (§3), so the tick that consumes one report should cost one session's
    // work whatever the fleet size.  Both fleets are stationary Circle/MAX groups of three
    // on a grid; each sample submits one group's (unchanged) positions and ticks once.
    for groups in [200usize, 20_000] {
        let tree = Arc::new(poi_tree(8_000));
        let config = MonitorConfig::new(Objective::Max, Method::circle());
        let mut engine = MonitoringEngine::new(Arc::clone(&tree), 1);
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

    // Skewed-fleet busy ticks: the workload the work-stealing executor exists for.  32
    // groups of Zipf-ish sizes [4, 3, 2, 1] teleport every epoch and therefore recompute
    // their safe regions on every tick.  The size classes are registered one after the
    // other, so they are contiguous in id order: one chunk per worker hands the eight
    // biggest groups to a single worker, which bounds the tick; stealing splits the slab
    // into session batches the workers with the lighter classes pull over.  Each size class
    // shares one recording, so the third variant adds the fleet-wide query cache: within a
    // batch the class twins replay each other's candidate lists.
    {
        const WORKERS: usize = 4;
        const CLASS_SIZES: [usize; 4] = [4, 3, 2, 1];
        const COPIES: usize = 8;
        const HOT_HORIZON: usize = 20_000;
        // Batches of two sessions: the heaviest size class must split across workers, or its
        // one monolithic batch becomes the critical path and stealing has nothing to move.
        const BATCH: usize = 2;
        let tree = Arc::new(poi_tree(8_000));
        let classes: Vec<Arc<Vec<Trajectory>>> = (0..CLASS_SIZES.len())
            .map(|c| {
                Arc::new(
                    (0..CLASS_SIZES[c])
                        .map(|i| {
                            let a = Point::new(
                                3_600.0 + 450.0 * c as f64 + 40.0 * i as f64,
                                4_600.0 + 250.0 * c as f64 + 90.0 * i as f64,
                            );
                            // A short local jump: far enough to violate every safe region
                            // (so every tick is a recomputation tick), near enough that
                            // both endpoints stay in the central POI band, where tile
                            // enumeration stays moderate.
                            let z = Point::new(a.x + 500.0, a.y + 300.0);
                            Trajectory::new(
                                (0..HOT_HORIZON).map(|t| if t % 2 == 0 { a } else { z }).collect(),
                            )
                        })
                        .collect(),
                )
            })
            .collect();
        // Tile regions: heavy enough (hundreds of microseconds per recomputation) that the
        // tick cost is compute-dominated, which is what stealing redistributes.
        let config = MonitorConfig::new(Objective::Max, Method::tile());
        let mut one_chunk =
            MonitoringEngine::with_executor(Arc::clone(&tree), WORKERS, TickExecutor::WorkerPool);
        let mut stealing = MonitoringEngine::with_executor(
            Arc::clone(&tree),
            WORKERS,
            TickExecutor::WorkStealing { batch: BATCH },
        );
        let mut stealing_cached = MonitoringEngine::with_executor(
            Arc::clone(&tree),
            WORKERS,
            TickExecutor::WorkStealing { batch: BATCH },
        )
        .with_query_cache(QueryCache::new());
        let [one_chunk_fleet, stealing_fleet, cached_fleet] =
            &mut [&mut one_chunk, &mut stealing, &mut stealing_cached].map(|engine| {
                let feeds = classes
                    .iter()
                    .flat_map(|class| (0..COPIES).map(|_| TrajectoryFeed::new(Arc::clone(class))));
                replay_fleet(engine, feeds, config)
            });
        // Each sample is a *pair* of ticks, every group reporting before each: the two
        // oscillation parities enumerate different tile neighbourhoods and so cost
        // differently, but a pair always covers both, keeping every sample (and thus the
        // variant means) directly comparable.
        let hot_one_chunk =
            bench("executor/skewed_tick_pair_chunk_per_worker", budget, &filter, || {
                replay_tick(&mut one_chunk, one_chunk_fleet);
                replay_tick(&mut one_chunk, one_chunk_fleet);
            });
        let hot_stealing = bench("executor/skewed_tick_pair_stealing", budget, &filter, || {
            replay_tick(&mut stealing, stealing_fleet);
            replay_tick(&mut stealing, stealing_fleet);
        });
        let hot_cached =
            bench("executor/skewed_tick_pair_stealing_cached", budget, &filter, || {
                replay_tick(&mut stealing_cached, cached_fleet);
                replay_tick(&mut stealing_cached, cached_fleet);
            });
        if let Some(totals) = hot_stealing.map(|_| stealing.exec_totals()) {
            println!(
                "  skewed stealing: {} batches, {} steals, summed imbalance {}",
                totals.batches, totals.steals, totals.imbalance
            );
            assert!(
                totals.steals > 0,
                "the skewed fleet must provoke steals: the biggest class's 4 batches sit on one worker"
            );
        }
        if let Some(totals) = hot_cached.map(|_| stealing_cached.exec_totals()) {
            println!(
                "  skewed cache: {} hits / {} misses ({:.1}% hit rate)",
                totals.cache_hits,
                totals.cache_misses,
                totals.cache_hit_rate() * 100.0
            );
            assert!(
                totals.cache_hit_rate() >= 0.5,
                "8 copies per size class must lift the shared-cache hit rate above 50%"
            );
        }
        if let (Some(one), Some(steal)) = (hot_one_chunk, hot_stealing) {
            let speedup = one.as_secs_f64() / steal.as_secs_f64();
            let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
            // Printed, not asserted: a ratio of two wall-clock means is a clock fact (the
            // same work bursts 2x on a shared host); the schedule facts are asserted above.
            println!(
                "  skewed speedup: stealing {speedup:.2}x vs one chunk per worker ({cores} cores)"
            );
        }
    }

    // Verifier and pruning ablations.
    {
        let tree = poi_tree(4_000);
        let group = users(3);
        let config = TileMsrConfig { alpha: 10, ..TileMsrConfig::default() };
        b("ablation/gt_verify", &mut || {
            black_box(tile_msr(&tree, &group, Objective::Max, &config, None, &mut None));
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
        for (name, pruning) in [("ablation/pruning_on", true), ("ablation/pruning_off", false)] {
            let config =
                TileMsrConfig { index_pruning: pruning, alpha: 10, ..TileMsrConfig::default() };
            b(name, &mut || {
                black_box(tile_msr(&tree, &group, Objective::Max, &config, None, &mut None));
            });
        }
    }

    // First regions of the paper's main method at its data-set size: 64 groups of three spread
    // over the domain, one cold Tile-D-b/MAX `Method::answer` each (GNN buffer, seed circle,
    // tile growth with GT-Verify on every tried tile) — the work `drive_tile_max`'s `setup_s`
    // times for its 200 groups.  One iteration answers all 64.
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
        b("tile/first_regions_tile_d_b_max", &mut || {
            for group in &groups {
                black_box(method.answer(&tree, Objective::Max, black_box(group), None));
            }
        });
    }

    // The SUM verifier's kernel and the unbuffered recompute that calls it per (tile, candidate).
    {
        // One iteration minimises over 1,000 (candidate, tile) pairs around pᵒ = the origin,
        // so the printed microseconds read as nanoseconds per call.
        let cases: Vec<(Point, Square)> = (0..1_000)
            .map(|k| {
                let angle = f64::from(k) * 0.61;
                let candidate = Point::new(900.0 * angle.cos(), 700.0 * angle.sin());
                let centre = Point::new(40.0 * (1.7 * angle).sin(), 55.0 * (2.3 * angle).cos());
                (candidate, Square::new(centre, 4.0 + f64::from(k % 7)))
            })
            .collect();
        b("geom/min_focal_diff_ns", &mut || {
            for (candidate, tile) in &cases {
                black_box(min_focal_diff_over_square(*candidate, Point::ORIGIN, black_box(tile)));
            }
        });
        let tree = poi_tree(8_000);
        let group = users(3);
        let config = TileMsrConfig::tile_directed(std::f64::consts::FRAC_PI_4);
        b("tile/sum_recompute_unbuffered", &mut || {
            black_box(tile_msr(&tree, black_box(&group), Objective::Sum, &config, None, &mut None));
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
    // Users sit 1–3 km from their group's centre, which makes a SUM query open 37.5 nodes and
    // score 979 points on average (MAX 5.9 / 93) — the work of the repository benchmark's
    // `churn_circle_sum` registrations (37.7 / 917).
    {
        let tree = poi_tree(21_287);
        let groups: Vec<[Point; 3]> = (0..1_000)
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
        for agg in [Aggregate::Max, Aggregate::Sum] {
            let mut out = Vec::new();
            b(&format!("gnn/top2_{}_cold_21287", agg.name()), &mut || {
                for group in &groups {
                    black_box(GnnSearch::new(&tree, black_box(group), agg).top_k_into(2, &mut out));
                }
            });
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
        let out =
            tile_msr(&tree, &group, Objective::Max, &TileMsrConfig::default(), None, &mut None);
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
