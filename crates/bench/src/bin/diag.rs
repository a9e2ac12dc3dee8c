//! Diagnostic tool: prints safe-region extents and work counters for one snapshot computation
//! on a representative workload.  Useful when tuning the tile parameters (`α`, `L`, ordering)
//! or investigating why a method's update frequency differs from expectations.

use mpn_bench::params::Scale;
use mpn_bench::{build_poi_tree, build_workload, TrajectoryKind};
use mpn_core::region::{TileFrame, TileRegion};
use mpn_core::{circle_msr, tile_msr, ComputeStats, Objective, TileMsrConfig, TileVerifier};
use mpn_geom::max_dist_to_set;

fn main() {
    let scale = Scale::from_env();
    let tree = build_poi_tree(scale, 1.0, 42);
    let workload = build_workload(TrajectoryKind::Geolife, scale, 3, 1.0, 100);
    let users = workload.locations_at(0, 50);

    let circle = circle_msr(&tree, &users, Objective::Max);
    println!("POIs: {}   users: {:?}", tree.len(), users);
    println!("circle radius r_max = {:.2}", circle.radius);

    for (label, config) in [
        ("Tile", TileMsrConfig::tile()),
        ("Tile-D", TileMsrConfig::tile_directed(std::f64::consts::FRAC_PI_4)),
        ("Tile-D-b", TileMsrConfig::tile_directed_buffered(std::f64::consts::FRAC_PI_4, 100)),
    ] {
        let out = tile_msr(&tree, &users, Objective::Max, &config, None);
        println!("\n== {label} ==");
        println!(
            "  tiles accepted {}  rejected {}  verify calls {}  candidate checks {}  rtree queries {}",
            out.stats.tiles_accepted,
            out.stats.tiles_rejected,
            out.stats.verify_calls,
            out.stats.candidates_checked,
            out.stats.rtree_queries
        );
        for (i, region) in out.regions.iter().enumerate() {
            let reach = region.max_dist(users[i]);
            println!(
                "  user {i}: {} tiles, area {:.0} (circle area {:.0}), reach {:.1} (circle {:.1})",
                region.len(),
                region.area(),
                std::f64::consts::PI * circle.radius * circle.radius,
                reach,
                circle.radius
            );
        }
    }

    // Round-by-round growth trace: how tiles are distributed across users by the round-robin.
    println!("\n== per-round growth trace (Tile) ==");
    for alpha in [1, 2, 3, 5, 10, 30] {
        let config = TileMsrConfig { alpha, ..TileMsrConfig::tile() };
        let out = tile_msr(&tree, &users, Objective::Max, &config, None);
        let sizes: Vec<usize> = out.regions.iter().map(TileRegion::len).collect();
        println!("  alpha = {alpha:>2}: tiles per user = {sizes:?}");
    }

    // Per-user seed-state acceptance probe: with everyone at her seed tile, how many of the
    // 8 first-layer tiles does GT-Verify accept for each user, and does a brute-force check
    // agree that the rejected ones are genuinely unsafe?
    println!("\n== first-layer acceptance probe (all regions at their seeds) ==");
    let delta = std::f64::consts::SQRT_2 * circle.radius;
    let p_opt = circle.optimal.entry.location;
    let pois: Vec<_> = tree.iter().map(|e| e.location).collect();
    for user in 0..users.len() {
        let seeds: Vec<TileRegion> = users
            .iter()
            .map(|u| TileRegion::with_seed(TileFrame::centered_at(*u, delta)))
            .collect();
        let frame = seeds[user].frame();
        let mut gt = TileVerifier::default();
        gt.begin(Objective::Max, p_opt, &users);
        let mut accepted = 0;
        let mut oracle_valid = 0;
        for cell in mpn_core::ordering::ring_cells(1) {
            let tile = frame.tile(cell);
            let candidates =
                tree.iter().filter(|e| e.location != p_opt).map(|e| (e.location, e.id));
            let gt_ok = gt.accepts(&seeds, user, &tile, candidates, &mut ComputeStats::default());
            // Brute-force: sample corners of every region/tile and check the optimum holds.
            let mut valid = true;
            'outer: for c0 in corner_samples(&seeds, 0, user, &tile) {
                for c1 in corner_samples(&seeds, 1, user, &tile) {
                    for c2 in corner_samples(&seeds, 2, user, &tile) {
                        let instance = [c0, c1, c2];
                        let best = pois
                            .iter()
                            .map(|p| max_dist_to_set(*p, &instance))
                            .fold(f64::INFINITY, f64::min);
                        if max_dist_to_set(p_opt, &instance) > best + 1e-6 {
                            valid = false;
                            break 'outer;
                        }
                    }
                }
            }
            if gt_ok {
                accepted += 1;
            }
            if valid {
                oracle_valid += 1;
            }
        }
        println!(
            "  user {user}: GT accepts {accepted}/8 layer-1 tiles, corner-sampling oracle says {oracle_valid}/8 are valid"
        );
    }
}

fn corner_samples(
    seeds: &[TileRegion],
    who: usize,
    user: usize,
    tile: &mpn_geom::Rect,
) -> Vec<mpn_geom::Point> {
    let mut out = Vec::new();
    if who == user {
        out.extend(tile.corners());
        out.push(tile.center());
    } else {
        for t in seeds[who].tiles() {
            out.extend(t.corners());
            out.push(t.center());
        }
    }
    out
}
