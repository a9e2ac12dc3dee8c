//! Workload-level experiment driver: runs every user group of a workload and averages the
//! metrics, which is exactly how the paper reports its numbers ("we partition each trajectory
//! set into 10 user groups and then report the average performance on these user groups").

use std::time::Duration;

use mpn_index::RTree;
use mpn_mobility::GroupWorkload;

use crate::metrics::{mean_duration, MonitoringMetrics};
use crate::monitor::{run_monitoring, MonitorConfig};

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
    /// Per-group metrics, in workload order: what [`run_monitoring`] returns for each group.
    pub per_group: Vec<MonitoringMetrics>,
}

/// Runs one monitoring configuration over every group of the workload and averages the results.
///
/// Each group is replayed on its own with [`run_monitoring`], on the calling thread, so the
/// per-update CPU time the paper's figures report is the computation's own and each group's
/// measures are its replay's.  A group's replay stops when its recording runs out.
#[must_use]
pub fn run_workload(
    tree: &RTree,
    workload: &GroupWorkload,
    config: &MonitorConfig,
) -> WorkloadSummary {
    summarize(workload.iter().map(|group| run_monitoring(tree, group, config)).collect())
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
    let mean_compute_time = mean_duration(total_time, total_updates);
    let rtree_queries: usize = per_group.iter().map(|m| m.stats.rtree_queries).sum();
    let rtree_queries_per_update =
        if total_updates == 0 { 0.0 } else { rtree_queries as f64 / total_updates as f64 };
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
    use crate::monitor::tests::first;
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
        let (tree, workload) = workload(4, 2);
        // Each replay stops with its own recording, a shorter one included.
        let lengths = [100, 100, 60, 100];
        let workload = GroupWorkload::new(
            workload.iter().zip(lengths).map(|(group, length)| first(group, length)).collect(),
        );
        let summary =
            run_workload(&tree, &workload, &MonitorConfig::new(Objective::Max, Method::circle()));
        assert_eq!(summary.groups, 4);
        let timestamps: Vec<_> = summary.per_group.iter().map(|m| m.timestamps).collect();
        assert_eq!(timestamps, [99, 99, 59, 99], "recording length − 1 timestamps a group");
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
