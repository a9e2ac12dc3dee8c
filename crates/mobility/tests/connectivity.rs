//! Property tests for `RoadNetwork` connectivity.
//!
//! The generator's removal pass can disconnect whole components (and with
//! `removal_fraction = 1.0` and no shortcuts, *every* node starts isolated); the
//! `connect_components` repair pass must bridge all of them, because a fragmented network
//! makes `trajectory()` burn its 50-attempt fallback on unreachable destinations and
//! strands shortest-path queries.  These tests pin the repair over the whole configuration
//! space, degenerate corners included.

use mpn_mobility::network::{NetworkConfig, RoadNetwork};
use proptest::prelude::*;

/// Asserts every node is reachable from node 0 and trajectories cover the full horizon.
fn assert_connected(config: &NetworkConfig, seed: u64) {
    let network = RoadNetwork::generate(config, seed);
    for v in 1..network.node_count() {
        assert!(
            network.shortest_path(0, v).is_some(),
            "node {v} unreachable from node 0 (grid={}, removal={}, shortcuts={}, seed={seed})",
            config.grid,
            config.removal_fraction,
            config.shortcuts
        );
    }
    // On a connected network the walk never stalls: full horizon, nonzero ground covered.
    let trajectory = network.trajectory(seed ^ 0xbeef, 0);
    assert_eq!(trajectory.len(), config.timestamps);
    assert!(
        trajectory.arc_length() > 0.0,
        "trajectory never moved (grid={}, removal={}, seed={seed})",
        config.grid,
        config.removal_fraction
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn every_generated_network_is_fully_connected(
        grid in 2usize..9,
        // 0..=10 mapped through /10.0 so removal_fraction = 1.0 (every grid edge gone)
        // is drawn with real probability, not just as a float-range endpoint.
        removal_tenths in 0u32..11,
        shortcuts in 0usize..12,
        jitter in 0.0f64..0.5,
        seed in 0u64..1_000_000,
    ) {
        let config = NetworkConfig {
            grid,
            removal_fraction: f64::from(removal_tenths) / 10.0,
            shortcuts,
            jitter,
            domain: 1_000.0,
            timestamps: 16,
            speed_limit: 25.0,
            ..NetworkConfig::default()
        };
        assert_connected(&config, seed);
    }
}

/// The fully degenerate corner: smallest grid, every edge removed, no shortcuts.  Before
/// the repair pass this network had zero edges and every shortest-path query failed.
#[test]
fn degenerate_network_is_repaired() {
    let config = NetworkConfig {
        grid: 2,
        removal_fraction: 1.0,
        shortcuts: 0,
        jitter: 0.0,
        domain: 100.0,
        timestamps: 8,
        ..NetworkConfig::default()
    };
    for seed in 0..16 {
        assert_connected(&config, seed);
        let network = RoadNetwork::generate(&config, seed);
        assert_eq!(network.node_count(), 4);
    }
}

/// Heavy removal on a larger grid — the historical failure mode was multi-node islands
/// (not just degree-0 nodes), which the old repair pass missed entirely.
#[test]
fn heavy_removal_leaves_no_islands() {
    let config = NetworkConfig {
        grid: 12,
        removal_fraction: 0.85,
        shortcuts: 2,
        timestamps: 12,
        ..NetworkConfig::default()
    };
    for seed in 0..8 {
        assert_connected(&config, seed);
    }
}
