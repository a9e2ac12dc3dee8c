//! Workload-level experiment driver: runs every user group of a workload and averages the
//! metrics, which is exactly how the paper reports its numbers ("we partition each trajectory
//! set into 10 user groups and then report the average performance on these user groups").

use std::time::Duration;

use mpn_index::RTree;
use mpn_mobility::GroupWorkload;

use crate::engine::{EpochUpdate, GroupId, MonitoringEngine, TickSummary};
use crate::metrics::MonitoringMetrics;
use crate::monitor::{MonitorConfig, TrajectoryFeed};

/// Averaged results of running one method over a whole workload.
#[derive(Debug, Clone)]
pub struct WorkloadSummary {
    /// Number of user groups that were monitored.
    pub groups: usize,
    /// Mean update frequency across groups.
    pub update_frequency: f64,
    /// Mean number of updates per group.
    pub updates_per_group: f64,
    /// Mean CPU time per safe-region computation.
    pub mean_compute_time: Duration,
    /// Mean packets per timestamp across groups.
    pub packets_per_timestamp: f64,
    /// Mean R-tree queries per safe-region computation.
    pub rtree_queries_per_update: f64,
    /// Per-group metrics for detailed inspection.
    pub per_group: Vec<MonitoringMetrics>,
}

/// Runs one monitoring configuration over every group of the workload and averages the results.
///
/// This drives a [`MonitoringEngine`] with a **single worker**: the paper's figures report
/// per-update CPU time, and timing safe-region computations while other workers compete for
/// cores would inflate those numbers.  Each group is a stream capped at its recording
/// ([`TrajectoryFeed::capped`]) and, like any client, submits its next recorded epoch before
/// each tick (a tick that advances nobody before the end panics).  The engine shares its POI
/// index via `Arc`, so the tree and the workload's groups are cloned once per call — a
/// one-off memcpy that is negligible against the monitoring compute it feeds.
#[must_use]
pub fn run_workload(
    tree: &RTree,
    workload: &GroupWorkload,
    config: &MonitorConfig,
) -> WorkloadSummary {
    let mut engine = MonitoringEngine::new(tree.clone(), 1);
    let mut replays: Vec<_> = workload
        .iter()
        .map(|group| {
            let feed = TrajectoryFeed::from_group(group);
            (engine.register_stream(feed.group_size(), feed.capped(*config)), feed)
        })
        .collect();
    while !engine.is_finished() {
        let summary = submit_and_tick(&mut engine, &mut replays);
        assert!(summary.advanced > 0, "replay stalled: no unfinished group advanced");
    }
    summarize(engine.into_group_metrics())
}

/// Submits the next recorded epoch of every unfinished replay, then ticks once.
pub(crate) fn submit_and_tick(
    engine: &mut MonitoringEngine,
    replays: &mut [(GroupId, TrajectoryFeed)],
) -> TickSummary {
    for (group_id, feed) in replays.iter_mut() {
        if !engine.group(*group_id).is_finished() {
            let positions = feed.next_epoch().expect("the cap is within the recording");
            engine.submit(EpochUpdate { group_id: *group_id, positions }).expect("a live replay");
        }
    }
    engine.tick()
}

/// Averages a set of per-group metrics into a [`WorkloadSummary`].
#[must_use]
pub fn summarize(per_group: Vec<MonitoringMetrics>) -> WorkloadSummary {
    let groups = per_group.len().max(1);
    let update_frequency =
        per_group.iter().map(MonitoringMetrics::update_frequency).sum::<f64>() / groups as f64;
    let updates_per_group = per_group.iter().map(|m| m.updates as f64).sum::<f64>() / groups as f64;
    let packets_per_timestamp =
        per_group.iter().map(MonitoringMetrics::packets_per_timestamp).sum::<f64>() / groups as f64;
    let total_updates: usize = per_group.iter().map(|m| m.updates).sum();
    let total_time: Duration = per_group.iter().map(|m| m.compute_time).sum();
    let mean_compute_time =
        if total_updates == 0 { Duration::ZERO } else { total_time / total_updates as u32 };
    let total_queries: usize = per_group.iter().map(|m| m.stats.rtree_queries).sum();
    let rtree_queries_per_update =
        if total_updates == 0 { 0.0 } else { total_queries as f64 / total_updates as f64 };
    WorkloadSummary {
        groups: per_group.len(),
        update_frequency,
        updates_per_group,
        mean_compute_time,
        packets_per_timestamp,
        rtree_queries_per_update,
        per_group,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpn_core::{Method, Objective};
    use mpn_mobility::poi::{clustered_pois, PoiConfig};
    use mpn_mobility::waypoint::{random_waypoint, WaypointConfig};
    use mpn_mobility::{partition_into_groups, Trajectory};

    fn workload(groups: usize, m: usize) -> (RTree, GroupWorkload) {
        let pois =
            clustered_pois(&PoiConfig { count: 600, domain: 1000.0, ..PoiConfig::default() }, 3);
        let config = WaypointConfig { domain: 1000.0, speed_limit: 8.0, timestamps: 200 };
        let trajectories: Vec<Trajectory> =
            (0..groups * m).map(|i| random_waypoint(&config, 400 + i as u64)).collect();
        (RTree::bulk_load(&pois), partition_into_groups(trajectories, m))
    }

    #[test]
    fn run_workload_averages_over_groups() {
        let (tree, workload) = workload(3, 2);
        let summary = run_workload(
            &tree,
            &workload,
            &MonitorConfig::new(Objective::Max, Method::circle()).with_max_timestamps(100),
        );
        assert_eq!(summary.groups, 3);
        assert_eq!(summary.per_group.len(), 3);
        assert!(summary.update_frequency > 0.0 && summary.update_frequency <= 1.0);
        assert!(summary.packets_per_timestamp > 0.0);
        assert!(summary.updates_per_group >= 1.0);
        assert!(summary.rtree_queries_per_update >= 1.0);
    }

    #[test]
    fn summarize_handles_the_empty_case() {
        let summary = summarize(Vec::new());
        assert_eq!(summary.groups, 0);
        assert_eq!(summary.update_frequency, 0.0);
        assert_eq!(summary.mean_compute_time, Duration::ZERO);
    }
}
