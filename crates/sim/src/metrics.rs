//! Metrics collected by a monitoring run: the three measures of Section 7.1, plus the
//! fleet engine's snapshot.
//!
//! Communication is measured in TCP packets: one packet carries at most
//! `(576 − 40) / 8 = 67` double-precision values (Section 7.1).  What each Fig. 3 message
//! costs in values is defined once, in `mpn-proto` (`LOCATION_VALUES`, `PROBE_VALUES`,
//! `notification_values`); [`Traffic`] only turns values into packets and tallies them by
//! direction.

use std::time::Duration;

use mpn_core::{packets_for_values, ComputeStats};
use mpn_index::CacheStats;

use crate::engine::TickExecCounters;

/// Tally of messages and packets exchanged during a monitoring run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Traffic {
    /// Total messages sent (all kinds, both directions).
    pub messages: usize,
    /// Total TCP packets sent.
    pub packets: usize,
    /// Packets sent from clients to the server (uplink).
    pub uplink_packets: usize,
    /// Packets sent from the server to clients (downlink).
    pub downlink_packets: usize,
}

impl Traffic {
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

    /// Counts one message of `values` values in the totals; returns its packets.
    fn record(&mut self, values: usize) -> usize {
        let packets = packets_for_values(values);
        self.messages += 1;
        self.packets += packets;
        packets
    }

    /// Merges another tally into this one.
    pub fn absorb(&mut self, other: &Traffic) {
        self.messages += other.messages;
        self.packets += other.packets;
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
/// * [`exec`](EngineReport::exec) — lifetime executor totals (batches, steals, imbalance,
///   cache traffic): how the work was scheduled, as opposed to what it computed.
/// * [`cache`](EngineReport::cache) — the shared [`QueryCache`](mpn_index::QueryCache)'s
///   cumulative counters (`None` when no cache is attached).
/// * [`fleet`](EngineReport::fleet) — the merged [`MonitoringMetrics`] of every session,
///   deregistered ones included: the §7.1 measures (update frequency, mean per-update CPU
///   time and communication cost as packets); its `group_size` is the lifetime user total.
///
/// Building a report is O(fleet), so callers snapshot at phase boundaries (e.g. warm-up
/// end, measurement end) rather than per tick, and diff the cumulative counters.
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// Ticks executed so far (the engine clock).
    pub ticks: usize,
    /// Currently registered groups.
    pub groups: usize,
    /// Deregistered ids awaiting reuse.
    pub retired: usize,
    /// Executor diagnostics accumulated over every tick (batches, steals, imbalance,
    /// query-cache hit/miss traffic).
    pub exec: TickExecCounters,
    /// Cumulative shared query-cache counters, when a cache is attached.
    pub cache: Option<CacheStats>,
    /// Fleet-wide merged metrics (registered + departed groups).
    pub fleet: MonitoringMetrics,
}

/// Aggregated metrics of one monitoring run (one user group over one trajectory horizon).
#[derive(Debug, Clone)]
pub struct MonitoringMetrics {
    /// Number of users in the monitored group.
    pub group_size: usize,
    /// Number of replayed timestamps after the initial registration.
    pub timestamps: usize,
    /// Number of safe-region recomputations (including the initial one).
    pub updates: usize,
    /// Total CPU time spent computing safe regions.
    pub compute_time: Duration,
    /// Accumulated work counters of every safe-region computation.
    pub stats: ComputeStats,
    /// Message and packet tally.
    pub traffic: Traffic,
}

impl MonitoringMetrics {
    /// Creates an empty metrics record for a group of the given size.
    #[must_use]
    pub fn new(group_size: usize) -> Self {
        Self {
            group_size,
            timestamps: 0,
            updates: 0,
            compute_time: Duration::ZERO,
            stats: ComputeStats::default(),
            traffic: Traffic::default(),
        }
    }

    /// Records one safe-region computation.
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
        if self.updates == 0 {
            return Duration::ZERO;
        }
        self.compute_time / self.updates as u32
    }

    /// Total number of TCP packets exchanged.
    #[must_use]
    pub fn packets(&self) -> usize {
        self.traffic.packets
    }

    /// Packets per monitored timestamp (the communication-cost series of the figures).
    #[must_use]
    pub fn packets_per_timestamp(&self) -> f64 {
        if self.timestamps == 0 {
            return 0.0;
        }
        self.traffic.packets as f64 / self.timestamps as f64
    }

    /// Merges another run's metrics into this one (used to average over user groups).
    pub fn absorb(&mut self, other: &MonitoringMetrics) {
        self.timestamps += other.timestamps;
        self.updates += other.updates;
        self.compute_time += other.compute_time;
        self.stats.absorb(&other.stats);
        self.traffic.absorb(&other.traffic);
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
        assert_eq!((t.packets, t.uplink_packets), (1, 1));
        t.record_downlink(PROBE_VALUES);
        assert_eq!((t.packets, t.downlink_packets), (2, 1));
    }

    #[test]
    fn circle_notification_is_one_packet() {
        let region = SafeRegion::Circle(Circle::new(Point::ORIGIN, 5.0));
        assert_eq!(notification_values(&region, true), 5);
        let mut t = Traffic::default();
        t.record_downlink(notification_values(&region, true));
        assert_eq!(t.packets, 1);
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
        assert_eq!(t.packets, 4);
        assert_eq!(t.uplink_packets, 2);
        assert_eq!(t.downlink_packets, 2);

        let mut total = Traffic::default();
        total.absorb(&t);
        total.absorb(&t);
        assert_eq!(total.messages, 8);
        assert_eq!(total.packets, 8);
    }

    #[test]
    fn frequencies_and_means_handle_empty_runs() {
        let m = MonitoringMetrics::new(3);
        assert_eq!(m.update_frequency(), 0.0);
        assert_eq!(m.mean_compute_time(), Duration::ZERO);
        assert_eq!(m.packets_per_timestamp(), 0.0);
    }

    #[test]
    fn record_update_accumulates() {
        let mut m = MonitoringMetrics::new(2);
        m.timestamps = 10;
        m.record_update(Duration::from_millis(4), &ComputeStats::default());
        m.record_update(Duration::from_millis(6), &ComputeStats::default());
        assert_eq!(m.updates, 2);
        assert_eq!(m.update_frequency(), 0.2);
        assert_eq!(m.mean_compute_time(), Duration::from_millis(5));
    }

    #[test]
    fn absorb_merges_runs() {
        let mut a = MonitoringMetrics::new(2);
        a.timestamps = 100;
        a.record_update(Duration::from_millis(1), &ComputeStats::default());
        let mut b = MonitoringMetrics::new(2);
        b.timestamps = 50;
        b.record_update(Duration::from_millis(3), &ComputeStats::default());
        b.record_update(Duration::from_millis(3), &ComputeStats::default());
        a.absorb(&b);
        assert_eq!(a.timestamps, 150);
        assert_eq!(a.updates, 3);
        assert_eq!(a.compute_time, Duration::from_millis(7));
        assert!((a.update_frequency() - 0.02).abs() < 1e-12);
    }
}
