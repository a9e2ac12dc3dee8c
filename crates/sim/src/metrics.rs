//! Metrics collected by a monitoring run: the three measures of Section 7.1, plus the
//! fleet engine's snapshot.
//!
//! Communication is measured in TCP packets: one packet carries at most
//! `(576 − 40) / 8 = 67` double-precision values (Section 7.1).  What each Fig. 3 message
//! costs in values is defined once, in `mpn-proto` (`LOCATION_VALUES`, `PROBE_VALUES`,
//! `notification_values`); [`Traffic`] only turns values into packets and tallies them by
//! direction.
//!
//! No session keeps a tally.  Whoever advances a session passes a [`MonitoringMetrics`] that
//! the advance adds its timestamp, update, compute time, messages and work counters to: the
//! engine passes its fleet totals ([`FleetMetrics`]), and a single-group replay
//! ([`run_monitoring`](crate::run_monitoring)) its own group's, which is what the figures
//! average per group.

use std::ops::Deref;
use std::time::Duration;

use mpn_core::{packets_for_values, ComputeStats};

use crate::engine::TickExecCounters;

/// Tally of messages and packets exchanged during a monitoring run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Traffic {
    /// Total messages sent (all kinds, both directions).
    pub messages: usize,
    /// Packets sent from clients to the server (uplink).
    pub uplink_packets: usize,
    /// Packets sent from the server to clients (downlink).
    pub downlink_packets: usize,
}

impl Traffic {
    /// Total TCP packets sent, both directions.
    #[must_use]
    pub fn packets(&self) -> usize {
        self.uplink_packets + self.downlink_packets
    }

    /// Records one client → server message of `values` double-precision values (a location
    /// report or a probe reply).
    pub fn record_uplink(&mut self, values: usize) {
        self.uplink_packets += self.record(values);
    }

    /// Records one server → client message of `values` double-precision values (a probe or
    /// a result notification).
    pub fn record_downlink(&mut self, values: usize) {
        self.downlink_packets += self.record(values);
    }

    /// Counts one message of `values` values; returns its packets.
    fn record(&mut self, values: usize) -> usize {
        self.messages += 1;
        packets_for_values(values)
    }

    /// Merges another tally into this one.
    pub fn absorb(&mut self, other: &Traffic) {
        self.messages += other.messages;
        self.uplink_packets += other.uplink_packets;
        self.downlink_packets += other.downlink_packets;
    }
}

/// One coherent engine-wide snapshot: everything a
/// [`MonitoringEngine`](crate::MonitoringEngine) can report about itself, read in one call
/// ([`MonitoringEngine::report`](crate::MonitoringEngine::report)) instead of four
/// accessors.
///
/// Each field maps onto one of the "numbers that matter" for the paper's evaluation:
///
/// * [`ticks`](EngineReport::ticks) — engine clock; with a wall-clock window this yields
///   **tick throughput** (epochs served per second).
/// * [`groups`](EngineReport::groups) / [`retired`](EngineReport::retired) — fleet
///   membership accounting: registered sessions, and deregistered ids awaiting reuse.
/// * [`exec`](EngineReport::exec) — a benchmark-only shim, always zero: every tick runs on
///   the calling thread.
/// * [`fleet`](EngineReport::fleet) — the [`FleetMetrics`] of every session, deregistered
///   ones included: the §7.1 measures (update frequency, mean per-update CPU time and
///   communication cost as packets), the lifetime user total and the work counters.
///
/// A report copies counters the engine keeps as it goes, so it costs the same for any
/// fleet; the counters are cumulative, so phase-based callers diff two reports.
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// Ticks executed so far (the engine clock).
    pub ticks: usize,
    /// Currently registered groups.
    pub groups: usize,
    /// Deregistered ids awaiting reuse.
    pub retired: usize,
    /// Benchmark-only shim, always zero (see [`TickExecCounters`]).
    pub exec: TickExecCounters,
    /// Benchmark-only shim, always `Some` (`benchmark/src/trace.rs`; ROADMAP item 1(c)).
    pub cache: Option<mpn_index::CacheStats>,
    /// Fleet-wide merged metrics (registered + departed groups).
    pub fleet: FleetMetrics,
}

/// The fleet's totals ([`fleet_metrics`](crate::MonitoringEngine::fleet_metrics)): the
/// [`MonitoringMetrics`] every advance of every group added to (read through `Deref`),
/// departed groups included, and the users the fleet registered.
#[derive(Debug, Clone, Copy, Default)]
pub struct FleetMetrics {
    /// The measures of every group, summed as the groups advanced.
    pub merged: MonitoringMetrics,
    /// Users monitored over the fleet's lifetime, counted at registration (a re-registered
    /// group counts again).
    pub group_size: usize,
}

impl Deref for FleetMetrics {
    type Target = MonitoringMetrics;

    fn deref(&self) -> &MonitoringMetrics {
        &self.merged
    }
}

/// The §7.1 measures of the sessions advanced into it (one group's for the figures, the
/// fleet's for the engine), and the work counters of their computations.
#[derive(Debug, Clone, Copy, Default)]
pub struct MonitoringMetrics {
    /// Number of replayed timestamps after the initial registration.
    pub timestamps: usize,
    /// Number of safe-region recomputations (including the initial one).
    pub updates: usize,
    /// Total CPU time spent computing safe regions.
    pub compute_time: Duration,
    /// Message and packet tally.
    pub traffic: Traffic,
    /// The work counters of every safe-region computation.
    pub stats: ComputeStats,
}

/// `total / n`, or zero for `n == 0`, divided as `u128` nanoseconds: `Duration / u32` would
/// silently wrap an `n` above `u32::MAX`, and divide by zero at exactly 2³².
pub(crate) fn mean_duration(total: Duration, n: usize) -> Duration {
    let mean = total.as_nanos().checked_div(n as u128).unwrap_or(0);
    Duration::from_nanos(u64::try_from(mean).unwrap_or(u64::MAX))
}

impl MonitoringMetrics {
    /// Records one safe-region computation: its CPU time and its work counters.
    pub fn record_update(&mut self, elapsed: Duration, stats: &ComputeStats) {
        self.updates += 1;
        self.compute_time += elapsed;
        self.stats.absorb(stats);
    }

    /// Update frequency: recomputations per monitored timestamp (the paper's primary measure).
    #[must_use]
    pub fn update_frequency(&self) -> f64 {
        if self.timestamps == 0 {
            return 0.0;
        }
        self.updates as f64 / self.timestamps as f64
    }

    /// Mean CPU time per safe-region computation.
    #[must_use]
    pub fn mean_compute_time(&self) -> Duration {
        mean_duration(self.compute_time, self.updates)
    }

    /// Packets per monitored timestamp (the communication-cost series of the figures).
    #[must_use]
    pub fn packets_per_timestamp(&self) -> f64 {
        if self.timestamps == 0 {
            return 0.0;
        }
        self.traffic.packets() as f64 / self.timestamps as f64
    }

    /// Merges another run's metrics into this one (used to average over user groups).
    pub fn absorb(&mut self, other: &MonitoringMetrics) {
        self.timestamps += other.timestamps;
        self.updates += other.updates;
        self.compute_time += other.compute_time;
        self.traffic.absorb(&other.traffic);
        self.stats.absorb(&other.stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpn_core::{SafeRegion, TileCell, TileFrame, TileRegion};
    use mpn_geom::{Circle, Point};
    use mpn_proto::{notification_values, LOCATION_VALUES, PROBE_VALUES};

    #[test]
    fn small_messages_fit_one_packet() {
        let mut t = Traffic::default();
        t.record_uplink(LOCATION_VALUES);
        assert_eq!((t.packets(), t.uplink_packets), (1, 1));
        t.record_downlink(PROBE_VALUES);
        assert_eq!((t.packets(), t.downlink_packets), (2, 1));
    }

    #[test]
    fn circle_notification_is_one_packet() {
        let region = SafeRegion::Circle(Circle::new(Point::ORIGIN, 5.0));
        assert_eq!(notification_values(&region, true), 5);
        let mut t = Traffic::default();
        t.record_downlink(notification_values(&region, true));
        assert_eq!(t.packets(), 1);
    }

    #[test]
    fn tile_notification_packets_depend_on_compression() {
        let mut tiles = TileRegion::with_seed(TileFrame::centered_at(Point::ORIGIN, 2.0));
        for i in 1..=120 {
            tiles.push(TileCell::new(0, i, 0));
        }
        let region = SafeRegion::Tiles(Box::new(tiles));
        let plain = notification_values(&region, false);
        let compressed = notification_values(&region, true);
        // 121 tiles * 3 values + 2 > 5 packets uncompressed; compressed fits in 2.
        assert_eq!(plain, 2 + 3 * 121);
        assert!(packets_for_values(plain) >= 5);
        assert!(compressed < plain / 3);
        assert!(packets_for_values(compressed) <= 2);
    }

    #[test]
    fn traffic_tallies_direction_correctly() {
        let mut t = Traffic::default();
        t.record_uplink(LOCATION_VALUES);
        t.record_downlink(PROBE_VALUES);
        t.record_uplink(LOCATION_VALUES);
        let region = SafeRegion::Circle(Circle::new(Point::ORIGIN, 1.0));
        t.record_downlink(notification_values(&region, true));
        assert_eq!(t.messages, 4);
        assert_eq!(t.packets(), 4);
        assert_eq!(t.uplink_packets, 2);
        assert_eq!(t.downlink_packets, 2);

        let mut total = Traffic::default();
        total.absorb(&t);
        total.absorb(&t);
        assert_eq!(total.messages, 8);
        assert_eq!(total.packets(), 8);
    }

    #[test]
    fn frequencies_and_means_handle_empty_runs() {
        let m = MonitoringMetrics::default();
        assert_eq!(m.update_frequency(), 0.0);
        assert_eq!(m.mean_compute_time(), Duration::ZERO);
        assert_eq!(m.packets_per_timestamp(), 0.0);
    }

    #[test]
    fn record_update_accumulates() {
        let mut m = MonitoringMetrics { timestamps: 10, ..MonitoringMetrics::default() };
        m.record_update(Duration::from_millis(4), &ComputeStats::default());
        m.record_update(
            Duration::from_millis(6),
            &ComputeStats { rtree_queries: 1, ..ComputeStats::default() },
        );
        assert_eq!(m.updates, 2);
        assert_eq!(m.stats.rtree_queries, 1);
        assert_eq!(m.update_frequency(), 0.2);
        assert_eq!(m.mean_compute_time(), Duration::from_millis(5));
    }

    #[test]
    fn absorb_merges_runs() {
        let mut a = MonitoringMetrics { timestamps: 100, ..MonitoringMetrics::default() };
        a.record_update(Duration::from_millis(1), &ComputeStats::default());
        let mut b = MonitoringMetrics { timestamps: 50, ..MonitoringMetrics::default() };
        let two_queries = ComputeStats { rtree_queries: 2, ..ComputeStats::default() };
        b.record_update(Duration::from_millis(3), &two_queries);
        b.record_update(Duration::from_millis(3), &two_queries);
        a.absorb(&b);
        assert_eq!(a.timestamps, 150);
        assert_eq!(a.updates, 3);
        assert_eq!(a.compute_time, Duration::from_millis(7));
        assert_eq!(a.stats.rtree_queries, 4);
        assert!((a.update_frequency() - 0.02).abs() < 1e-12);
    }

    #[test]
    fn mean_compute_time_survives_more_than_u32_max_updates() {
        // `Duration / (n as u32)` divided by zero here: 2³² truncates to 0.
        let m = MonitoringMetrics {
            updates: 1 << 32,
            compute_time: Duration::from_secs(3 << 32),
            ..MonitoringMetrics::default()
        };
        assert_eq!(m.mean_compute_time(), Duration::from_secs(3));
        assert_eq!(mean_duration(Duration::from_nanos(7), (1 << 32) + 1), Duration::ZERO);
    }
}
