//! The per-group monitoring state machine, message-driven and fully owned.
//!
//! [`GroupSession`] owns everything the server keeps for one moving group: its configuration
//! (objective and safe-region [`Method`]), the per-group [`SessionState`] (heading
//! predictors, §5.4 GNN buffer, last answer) and the accumulated metrics.  A session does
//! **not** borrow trajectory data; it consumes one *epoch* of owned user positions per
//! [`advance`](GroupSession::advance) call, and has one source of epochs: batches
//! [`submit`](GroupSession::submit)ted into its inbox (by a network front-end, or through
//! the [`MonitoringEngine`](crate::engine::MonitoringEngine)'s
//! [`submit`](crate::engine::MonitoringEngine::submit)), appended to the session's one flat
//! position buffer as they arrive off the wire.  A recording is replayed the same way: a
//! [`TrajectoryFeed`] plays it back as owned epochs that the driver submits like any client
//! (every counter bit-identical to the reference loop in `tests/engine_parity.rs`).
//!
//! Each consumed epoch replays one timestamp of the protocol of Fig. 3: the first epoch
//! registers the query (every user reports once, the server computes and notifies); each
//! later epoch is **violation detection** against the last answer, then — only when a user
//! left her region — the step 1–3 report/probe/recompute/notify exchange.  A session whose
//! inbox is empty reports [`StepOutcome::Starved`] and does not advance its clock: epochs
//! are data-driven, so a streaming group that reports slowly simply progresses slowly.
//!
//! Sessions are self-clocked and `Send`, so a
//! [`MonitoringEngine`](crate::engine::MonitoringEngine) can advance many of them from worker
//! threads.  A session created [`with_events`](GroupSession::with_events) appends the
//! per-user protocol sends of each epoch, as [`SessionEvent`]s tagged with its group id, to
//! the event sink of the engine tick that advanced it; [`ServerCore`](crate::server::ServerCore)
//! turns those into `mpn-proto` responses.  A session keeps no log of its own, and holds
//! only what its method needs (the crate docs list it).  [`run_monitoring`] replays one
//! recording through one session to its horizon.

use std::sync::Arc;
use std::time::Instant;

use mpn_core::{EngineContext, Method, Objective, SafeRegion, SafeRegionEngine, SessionState};
use mpn_geom::Point;
use mpn_index::{IndexView, RTree};
use mpn_mobility::Trajectory;

use mpn_proto::{notification_values, LOCATION_VALUES, PROBE_VALUES};

use crate::engine::{GroupId, WorldChange};
use crate::metrics::MonitoringMetrics;

/// Configuration of a monitoring run.
#[derive(Debug, Clone, Copy)]
pub struct MonitorConfig {
    /// MAX (MPN) or SUM (Sum-MPN) objective.
    pub objective: Objective,
    /// Safe-region method (Circle, Tile, Tile-D, Tile-D-b).
    pub method: Method,
    /// Whether tile regions are shipped with the lossless compression (the paper's default).
    pub compress_regions: bool,
    /// Smoothing factor of the per-user heading predictor feeding the directed ordering.
    pub heading_smoothing: f64,
    /// Optional cap on the number of monitored timestamps.  `None` means an **open
    /// horizon** — the session runs until it is deregistered (a replay caps it at the
    /// recording, see [`TrajectoryFeed::capped`]).
    pub max_timestamps: Option<usize>,
    /// Whether the session keeps its §5.4 GNN buffer alive across updates (Tile-D-b only).
    ///
    /// Off (the default) every buffered update rebuilds the buffer, exactly like the one-shot
    /// API; on, the buffer is rebuilt only when the optimum moves or
    /// the group strays from the buffer anchors, roughly halving R-tree queries per update.
    pub persist_buffers: bool,
}

impl MonitorConfig {
    /// A run with the given objective and method and default remaining settings.
    #[must_use]
    pub fn new(objective: Objective, method: Method) -> Self {
        Self {
            objective,
            method,
            compress_regions: true,
            heading_smoothing: 0.3,
            max_timestamps: None,
            persist_buffers: false,
        }
    }

    /// Limits the number of replayed timestamps.
    #[must_use]
    pub fn with_max_timestamps(mut self, limit: usize) -> Self {
        self.max_timestamps = Some(limit);
        self
    }

    /// Enables reuse of the §5.4 GNN buffer across updates.
    #[must_use]
    pub fn with_persistent_buffers(mut self, enabled: bool) -> Self {
        self.persist_buffers = enabled;
        self
    }
}

/// What one [`GroupSession::advance`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The first epoch: query registration plus the initial computation.
    Registered,
    /// Every user stayed inside her safe region; no communication happened.
    Quiet,
    /// At least one user violated her region; the full update protocol ran.
    Updated {
        /// Number of users that had left their safe regions.
        violators: usize,
    },
    /// The session had already consumed its whole horizon; nothing happened.
    Finished,
    /// No epoch was available (empty inbox): the session's clock did not move.
    Starved,
}

/// One epoch of the protocol as seen by a single user — the per-user sends a session created
/// [`with_events`](GroupSession::with_events) appends to its tick's event sink.
///
/// Events carry owned copies of the shipped payloads (the meeting point and the user's
/// region), so a front-end can serialise them long after the session has moved on.  They are
/// recorded **in addition to** the [`Traffic`](crate::metrics::Traffic) accounting, which is
/// unchanged either way.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionEvent {
    /// Step 2 (downlink): the server asked this user for her current location.
    Probed {
        /// Index of the user inside her group.
        user: usize,
    },
    /// Step 3 (downlink): the server shipped this user the fresh meeting point together with
    /// her new safe region (also sent after the registration epoch).
    Assigned {
        /// Index of the user inside her group.
        user: usize,
        /// The optimal meeting point of this update.
        meeting_point: Point,
        /// The user's new independent safe region.
        region: SafeRegion,
    },
}

/// Where protocol events are collected: a buffer owned by whoever advances the sessions (an
/// engine tick), each event tagged with the id of the group that sent it.
pub(crate) type EventSink = Vec<(GroupId, SessionEvent)>;

/// Replay source: plays a recorded trajectory set back as owned epochs of positions, which a
/// replay driver submits into a streaming [`GroupSession`] like any client's reports.
///
/// The trajectories sit behind an [`Arc`], so many feeds (or repeated replays) can share
/// one recorded data set without copying it — full-scale workloads are tens of megabytes.
/// The feed is exhausted after the common prefix every user has data for.
#[derive(Debug, Clone)]
pub struct TrajectoryFeed {
    group: Arc<Vec<Trajectory>>,
    cursor: usize,
    /// The common horizon, computed once at construction: the trajectories are immutable
    /// behind the `Arc`, so recomputing the min over the group on every epoch (as the
    /// original implementation did) is pure pointer-chasing in the tick hot path.
    horizon: usize,
}

impl TrajectoryFeed {
    /// Creates a feed over the group's trajectories (pass an `Arc` to share the data).
    ///
    /// # Panics
    /// Panics when the group is empty.
    #[must_use]
    pub fn new(group: impl Into<Arc<Vec<Trajectory>>>) -> Self {
        let group = group.into();
        assert!(!group.is_empty(), "monitoring requires at least one user trajectory");
        let horizon = group.iter().map(Trajectory::len).min().unwrap_or(0);
        Self { group, cursor: 0, horizon }
    }

    /// Creates a feed from a borrowed group, cloning the trajectories once.
    ///
    /// # Panics
    /// Panics when the group is empty.
    #[must_use]
    pub fn from_group(group: &[Trajectory]) -> Self {
        Self::new(group.to_vec())
    }

    /// Number of users in the recorded group.
    #[must_use]
    pub fn group_size(&self) -> usize {
        self.group.len()
    }

    /// `config` with its timestamp cap lowered to the recording: the configuration a
    /// streaming session replaying this feed is registered with, so that it finishes exactly
    /// when the feed runs out (or earlier, at the configured cap).
    #[must_use]
    pub fn capped(&self, config: MonitorConfig) -> MonitorConfig {
        config.with_max_timestamps(
            config.max_timestamps.map_or(self.horizon, |cap| cap.min(self.horizon)),
        )
    }

    /// The next epoch's positions as an owned batch, or `None` when exhausted.
    pub fn next_epoch(&mut self) -> Option<Vec<Point>> {
        if self.cursor >= self.horizon {
            return None;
        }
        let epoch = self.group.iter().map(|traj| traj.at(self.cursor)).collect();
        self.cursor += 1;
        Some(epoch)
    }
}

/// The monitoring state machine of one moving group, owning all of its server-side state.
#[derive(Debug)]
pub struct GroupSession {
    config: MonitorConfig,
    session: SessionState,
    metrics: MonitoringMetrics,
    /// Epochs of `group_size` positions, back to back: the epoch being monitored ends at
    /// `cursor`; the ones [`submit`](GroupSession::submit)ted since follow it and are
    /// consumed in place, FIFO.
    positions: Vec<Point>,
    cursor: usize,
    /// `None` = open horizon: the session monitors until deregistered (streaming sessions
    /// without a [`MonitorConfig::max_timestamps`] cap).
    horizon: Option<usize>,
    next_t: usize,
    registered: bool,
    /// Whether per-user protocol events go to the tick's event sink (see [`SessionEvent`]).
    log_events: bool,
}

impl GroupSession {
    /// Creates a streaming session for a group of `group_size` users whose positions arrive
    /// via [`submit`](GroupSession::submit).
    ///
    /// Without a [`MonitorConfig::max_timestamps`] cap the session has an **open horizon**:
    /// it is never [`finished`](GroupSession::is_finished) and monitors until deregistered.
    ///
    /// # Panics
    /// Panics when `group_size` is zero.
    #[must_use]
    pub fn streaming(group_size: usize, config: MonitorConfig) -> Self {
        assert!(group_size > 0, "monitoring requires at least one user trajectory");
        let session = SessionState::new(group_size, config.heading_smoothing)
            .with_persistent_buffers(config.persist_buffers);
        Self {
            session,
            metrics: MonitoringMetrics::new(group_size),
            positions: Vec::new(),
            cursor: 0,
            horizon: config.max_timestamps,
            next_t: 0,
            registered: false,
            log_events: false,
            config,
        }
    }

    /// Enables (or disables) the per-user protocol events: the engine tick that advances the
    /// session collects them, tagged with the group id, into the sink that
    /// [`drain_events`](crate::engine::MonitoringEngine::drain_events) hands out.
    ///
    /// Off by default: the replay drivers never pay for cloning regions into events.
    #[must_use]
    pub fn with_events(mut self, enabled: bool) -> Self {
        self.log_events = enabled;
        self
    }

    /// Number of users in the group.
    #[must_use]
    pub fn group_size(&self) -> usize {
        self.session.group_size()
    }

    /// The number of epochs this session will consume (including the registration), or
    /// `None` for an open-horizon streaming session.
    #[must_use]
    pub fn horizon(&self) -> Option<usize> {
        self.horizon
    }

    /// Whether the epochs consumed so far plus those waiting in the inbox reach the bounded
    /// horizon: one more submitted epoch would never be consumed.  Never true for an open
    /// horizon.
    #[must_use]
    pub fn horizon_is_covered(&self) -> bool {
        self.horizon.is_some_and(|h| self.next_t + self.pending_epochs() >= h)
    }

    /// The session's configuration.
    #[must_use]
    pub fn config(&self) -> &MonitorConfig {
        &self.config
    }

    /// The per-group engine state (heading predictors, buffer cache, last answer).
    #[must_use]
    pub fn session_state(&self) -> &SessionState {
        &self.session
    }

    /// Whether the whole (bounded) horizon has been consumed.  Open-horizon sessions are
    /// never finished; they leave the server via deregistration.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.registered && self.horizon.is_some_and(|h| self.next_t >= h)
    }

    /// Metrics accumulated so far.
    #[must_use]
    pub fn metrics(&self) -> &MonitoringMetrics {
        &self.metrics
    }

    /// Consumes the session, returning its metrics.
    #[must_use]
    pub fn into_metrics(self) -> MonitoringMetrics {
        self.metrics
    }

    /// Queues one epoch of user positions for the next [`advance`](GroupSession::advance).
    ///
    /// Batches are consumed strictly FIFO, one per advance.
    ///
    /// # Panics
    /// Panics when the batch does not hold exactly one position per user (callers that need
    /// graceful rejection — e.g. a network front-end — validate first; see
    /// [`MonitoringEngine::submit`](crate::engine::MonitoringEngine::submit)).
    pub fn submit(&mut self, positions: Vec<Point>) {
        assert_eq!(
            positions.len(),
            self.group_size(),
            "an epoch update needs one position per user"
        );
        if self.positions.capacity() == 0 {
            // A streaming session's steady state: the monitored epoch and one waiting.
            self.positions.reserve_exact(2 * self.group_size());
        }
        self.positions.extend_from_slice(&positions);
    }

    /// Number of submitted epochs waiting to be consumed.
    #[must_use]
    pub fn pending_epochs(&self) -> usize {
        (self.positions.len() - self.cursor) / self.group_size()
    }

    /// Position capacity currently held, in epochs (test hook for the release on drain).
    #[cfg(test)]
    pub(crate) fn inbox_capacity(&self) -> usize {
        self.positions.capacity() / self.group_size()
    }

    /// Consumes the next epoch of the protocol.
    ///
    /// The epoch's positions are the oldest [`submit`](GroupSession::submit)ted ones; with
    /// none waiting the session [`Starved`](StepOutcome::Starved)s and its clock does not
    /// move.  Protocol events are not recorded: only an engine tick has a sink for them.
    ///
    /// # Panics
    /// Panics when the POI view is empty.
    pub fn advance<'a>(&mut self, index: impl Into<IndexView<'a>>) -> StepOutcome {
        self.advance_into(index.into(), 0, &mut Vec::new())
    }

    /// [`advance`](GroupSession::advance), appending the epoch's protocol events (if
    /// [enabled](GroupSession::with_events)) to `events` under the id `group`.
    pub(crate) fn advance_into(
        &mut self,
        view: IndexView<'_>,
        group: GroupId,
        events: &mut EventSink,
    ) -> StepOutcome {
        assert!(!view.is_empty(), "monitoring requires a non-empty POI set");
        if self.is_finished() {
            return StepOutcome::Finished;
        }

        let m = self.group_size();
        if self.cursor == self.positions.len() {
            return StepOutcome::Starved;
        }
        self.cursor += m;
        if self.cursor == self.positions.len() && self.cursor > m {
            // Nothing else waits: drop the consumed epochs in front of this one, and
            // whatever capacity a burst (a reconnecting client's backlog) left behind.
            self.positions.copy_within(self.cursor - m.., 0);
            self.positions.truncate(m);
            self.cursor = m;
            self.positions.shrink_to(2 * m);
        }

        let t = self.next_t;
        // Circle groups skip the predictors (one `atan2` per user): nothing would read them,
        // so a Circle session never even creates them.
        if self.config.method.uses_headings() {
            self.session.observe(&self.positions[self.cursor - m..self.cursor]);
        }

        if !self.registered {
            // Query registration: every user reports her location once and receives the first
            // answer (counted like any other update).
            for _ in 0..self.group_size() {
                self.metrics.traffic.record_uplink(LOCATION_VALUES);
            }
            self.compute_and_notify(view, group, events);
            self.registered = true;
            self.next_t = t + 1;
            return StepOutcome::Registered;
        }

        self.metrics.timestamps += 1;
        self.next_t = t + 1;

        let violators = self
            .session
            .last_answer()
            .expect("a registered session always has an answer")
            .violators(&self.positions[self.cursor - m..self.cursor]);
        if violators.is_empty() {
            return StepOutcome::Quiet;
        }

        // Step 1: each violating user reports her location.
        for _ in &violators {
            self.metrics.traffic.record_uplink(LOCATION_VALUES);
        }
        // Step 2: the server probes every other user, who replies.
        let others = self.group_size() - violators.len();
        for _ in 0..others {
            self.metrics.traffic.record_downlink(PROBE_VALUES);
            self.metrics.traffic.record_uplink(LOCATION_VALUES);
        }
        if self.log_events {
            let mut violating = violators.iter().copied().peekable();
            for user in 0..self.group_size() {
                if violating.peek() == Some(&user) {
                    violating.next();
                } else {
                    events.push((group, SessionEvent::Probed { user }));
                }
            }
        }
        // Step 3: recompute and notify everyone.
        self.compute_and_notify(view, group, events);
        StepOutcome::Updated { violators: violators.len() }
    }

    /// Whether the given POI change can break this session's current safe regions
    /// (Definition 3 soundness, evaluated against the *last* answer — see
    /// [`SessionState::delete_invalidates`] / [`SessionState::insert_invalidates`]).
    ///
    /// An unregistered session (or one whose answer was reclaimed) has nothing to break.
    #[must_use]
    pub fn world_change_invalidates(&self, change: &WorldChange) -> bool {
        match *change {
            WorldChange::PoiDelete { poi } => self.session.delete_invalidates(poi),
            WorldChange::PoiInsert { location } => {
                self.session.insert_invalidates(location, self.config.objective)
            }
        }
    }

    /// Recomputes the safe regions against the (changed) POI view without consuming an
    /// epoch, re-notifying every user at her last observed location.
    ///
    /// This is the server-push half of the world-mutation protocol: a POI change that breaks
    /// a group's regions must not wait for the next violation report.  The recomputation
    /// runs the normal notify path, so metrics and traffic accounting flow exactly like a
    /// violation-triggered update (protocol events need an engine's sink, like
    /// [`advance`](GroupSession::advance)'s).
    ///
    /// Returns `false` (and does nothing) for a session that is not registered, has no
    /// current answer, or has already finished its horizon.
    pub fn force_recompute<'a>(&mut self, index: impl Into<IndexView<'a>>) -> bool {
        self.force_recompute_into(index.into(), 0, &mut Vec::new())
    }

    /// [`force_recompute`](GroupSession::force_recompute), appending the
    /// [`SessionEvent::Assigned`] events (if [enabled](GroupSession::with_events)) to `events`.
    pub(crate) fn force_recompute_into(
        &mut self,
        view: IndexView<'_>,
        group: GroupId,
        events: &mut EventSink,
    ) -> bool {
        if !self.registered || self.is_finished() || self.session.last_answer().is_none() {
            return false;
        }
        self.compute_and_notify(view, group, events);
        true
    }

    /// Runs one safe-region computation and pushes the notifications.
    fn compute_and_notify(&mut self, view: IndexView<'_>, group: GroupId, events: &mut EventSink) {
        let ctx = EngineContext::new(view, self.config.objective);
        let locations = &self.positions[self.cursor - self.group_size()..self.cursor];
        let start = Instant::now();
        let answer = self.config.method.compute(ctx, locations, &mut self.session);
        let elapsed = start.elapsed();
        self.metrics.record_update(elapsed, &answer.stats);
        debug_assert!(answer.all_inside(locations), "fresh safe regions must contain the users");
        for (user, region) in answer.regions.iter().enumerate() {
            self.metrics
                .traffic
                .record_downlink(notification_values(region, self.config.compress_regions));
            if self.log_events {
                events.push((
                    group,
                    SessionEvent::Assigned {
                        user,
                        meeting_point: answer.optimal_point,
                        region: region.clone(),
                    },
                ));
            }
        }
    }
}

/// Replays one user group against the server and collects metrics.
///
/// A single-group driver: one streaming session, capped at the recording
/// ([`TrajectoryFeed::capped`]), is submitted the recording's next epoch before every
/// advance.  With the default configuration (no persistent buffers) the resulting updates,
/// packets and work counters are bit-identical to the reference loop in
/// `tests/engine_parity.rs`.  The trajectories are cloned once into the feed.
///
/// # Panics
/// Panics when the group is empty or the POI tree is empty.
#[must_use]
pub fn run_monitoring(
    tree: &RTree,
    group: &[Trajectory],
    config: &MonitorConfig,
) -> MonitoringMetrics {
    assert!(!tree.is_empty(), "monitoring requires a non-empty POI set");
    let mut feed = TrajectoryFeed::from_group(group);
    let mut session = GroupSession::streaming(feed.group_size(), feed.capped(*config));
    while !session.is_finished() {
        session.submit(feed.next_epoch().expect("the cap is within the recording"));
        let outcome = session.advance(tree);
        debug_assert_ne!(outcome, StepOutcome::Starved, "a submitted epoch is consumed");
    }
    session.into_metrics()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpn_mobility::poi::{clustered_pois, PoiConfig};
    use mpn_mobility::waypoint::{random_waypoint, WaypointConfig};

    fn workload() -> (RTree, Vec<Trajectory>) {
        let pois =
            clustered_pois(&PoiConfig { count: 800, domain: 1000.0, ..PoiConfig::default() }, 11);
        let tree = RTree::bulk_load(&pois);
        let config = WaypointConfig { domain: 1000.0, speed_limit: 6.0, timestamps: 400 };
        let group: Vec<Trajectory> = (0..3).map(|i| random_waypoint(&config, 50 + i)).collect();
        (tree, group)
    }

    #[test]
    fn monitoring_produces_consistent_metrics() {
        let (tree, group) = workload();
        let metrics =
            run_monitoring(&tree, &group, &MonitorConfig::new(Objective::Max, Method::circle()));
        assert_eq!(metrics.timestamps, 399);
        assert!(metrics.updates >= 1, "the initial computation counts as an update");
        assert!(metrics.updates <= metrics.timestamps + 1);
        assert!(metrics.traffic.packets > 0);
        assert!(metrics.traffic.messages >= metrics.updates * group.len());
        assert!(metrics.mean_compute_time().as_nanos() > 0);
        assert!(metrics.update_frequency() <= 1.0);
    }

    #[test]
    fn tile_regions_reduce_update_frequency_compared_to_circles() {
        let (tree, group) = workload();
        let circle = run_monitoring(
            &tree,
            &group,
            &MonitorConfig::new(Objective::Max, Method::circle()).with_max_timestamps(250),
        );
        let tile = run_monitoring(
            &tree,
            &group,
            &MonitorConfig::new(Objective::Max, Method::tile()).with_max_timestamps(250),
        );
        assert!(
            tile.updates <= circle.updates,
            "tile-based regions must not trigger more updates (tile {}, circle {})",
            tile.updates,
            circle.updates
        );
    }

    #[test]
    fn sum_objective_monitoring_runs_end_to_end() {
        let (tree, group) = workload();
        let metrics = run_monitoring(
            &tree,
            &group,
            &MonitorConfig::new(Objective::Sum, Method::tile()).with_max_timestamps(150),
        );
        assert!(metrics.updates >= 1);
        assert!(metrics.traffic.packets > 0);
    }

    #[test]
    fn buffered_method_is_cheaper_per_update_in_index_work() {
        let (tree, group) = workload();
        let plain = run_monitoring(
            &tree,
            &group,
            &MonitorConfig::new(Objective::Max, Method::tile_directed(0.8))
                .with_max_timestamps(120),
        );
        let buffered = run_monitoring(
            &tree,
            &group,
            &MonitorConfig::new(Objective::Max, Method::tile_directed_buffered(0.8, 50))
                .with_max_timestamps(120),
        );
        let plain_queries_per_update = plain.stats.rtree_queries as f64 / plain.updates as f64;
        let buffered_queries_per_update =
            buffered.stats.rtree_queries as f64 / buffered.updates as f64;
        assert!(
            buffered_queries_per_update < plain_queries_per_update,
            "buffering must reduce R-tree queries per update ({buffered_queries_per_update} vs {plain_queries_per_update})"
        );
    }

    #[test]
    fn max_timestamp_cap_limits_the_run() {
        let (tree, group) = workload();
        let metrics = run_monitoring(
            &tree,
            &group,
            &MonitorConfig::new(Objective::Max, Method::circle()).with_max_timestamps(50),
        );
        assert_eq!(metrics.timestamps, 49);
    }

    #[test]
    fn sessions_report_their_protocol_steps() {
        let (tree, group) = workload();
        let mut feed = TrajectoryFeed::from_group(&group);
        let config = MonitorConfig::new(Objective::Max, Method::circle());
        assert_eq!(feed.capped(config).max_timestamps, Some(400), "capped at the recording");
        let mut session =
            GroupSession::streaming(group.len(), feed.capped(config.with_max_timestamps(60)));
        assert_eq!(session.horizon(), Some(60));
        assert!(!session.is_finished());
        session.submit(feed.next_epoch().unwrap());
        assert_eq!(session.advance(&tree), StepOutcome::Registered);
        let mut quiet = 0usize;
        let mut updated = 0usize;
        while !session.is_finished() {
            session.submit(feed.next_epoch().unwrap());
            match session.advance(&tree) {
                StepOutcome::Quiet => quiet += 1,
                StepOutcome::Updated { violators } => {
                    assert!(violators >= 1 && violators <= session.group_size());
                    updated += 1;
                }
                StepOutcome::Registered | StepOutcome::Finished | StepOutcome::Starved => {
                    panic!("unexpected outcome mid-run")
                }
            }
        }
        assert!(session.horizon_is_covered());
        assert_eq!(session.advance(&tree), StepOutcome::Finished);
        assert_eq!(quiet + updated, 59);
        assert_eq!(session.metrics().updates, updated + 1);
    }

    #[test]
    fn streaming_session_consumes_submitted_epochs_and_matches_the_replay() {
        let (tree, group) = workload();
        let config = MonitorConfig::new(Objective::Max, Method::circle()).with_max_timestamps(80);
        let replay = run_monitoring(&tree, &group, &config);

        // The same epochs, submitted as owned batches into a streaming session.
        let mut feed = TrajectoryFeed::from_group(&group);
        let mut session = GroupSession::streaming(group.len(), config);
        assert_eq!(session.advance(&tree), StepOutcome::Starved, "no data yet");
        let mut epochs = 0;
        while let Some(batch) = feed.next_epoch() {
            if epochs == 80 {
                break;
            }
            session.submit(batch);
            epochs += 1;
        }
        assert_eq!(session.pending_epochs(), 80);
        while !session.is_finished() {
            assert_ne!(session.advance(&tree), StepOutcome::Starved);
        }
        assert_eq!(session.metrics().timestamps, replay.timestamps);
        assert_eq!(session.metrics().updates, replay.updates);
        assert_eq!(session.metrics().traffic, replay.traffic);
        assert_eq!(session.metrics().stats, replay.stats);
    }

    #[test]
    fn open_horizon_sessions_never_finish_and_starve_without_data() {
        let (tree, group) = workload();
        let config = MonitorConfig::new(Objective::Max, Method::circle());
        let mut session = GroupSession::streaming(group.len(), config);
        assert_eq!(session.horizon(), None, "no cap means an open horizon");
        assert!(!session.horizon_is_covered());
        session.submit(group.iter().map(|t| t.at(0)).collect());
        assert_eq!(session.advance(&tree), StepOutcome::Registered);
        assert!(!session.is_finished(), "open-horizon sessions only leave by deregistration");
        assert_eq!(session.advance(&tree), StepOutcome::Starved);
        assert_eq!(session.metrics().timestamps, 0, "a starved epoch does not advance the clock");
    }

    #[test]
    fn event_log_records_the_per_user_protocol_sends() {
        let (tree, group) = workload();
        let config = MonitorConfig::new(Objective::Max, Method::circle()).with_max_timestamps(120);
        let mut feed = TrajectoryFeed::from_group(&group);
        let mut session = GroupSession::streaming(group.len(), config).with_events(true);
        let view = IndexView::from(&tree);
        let mut events = Vec::new();
        session.submit(feed.next_epoch().unwrap());
        assert_eq!(session.advance_into(view, 7, &mut events), StepOutcome::Registered);
        assert_eq!(events.len(), group.len(), "registration assigns every user a region");
        assert!(events.iter().all(|(id, e)| *id == 7
            && matches!(e, SessionEvent::Assigned { region, .. } if !region.is_empty())));

        // Find an epoch that updates: it must probe the non-violators and re-assign everyone.
        while !session.is_finished() {
            events.clear();
            session.submit(feed.next_epoch().unwrap());
            if let StepOutcome::Updated { violators } = session.advance_into(view, 7, &mut events) {
                let probes =
                    events.iter().filter(|(_, e)| matches!(e, SessionEvent::Probed { .. })).count();
                let assigned = events
                    .iter()
                    .filter(|(_, e)| matches!(e, SessionEvent::Assigned { .. }))
                    .count();
                assert_eq!(probes, group.len() - violators);
                assert_eq!(assigned, group.len());
                return;
            }
            assert!(events.is_empty(), "quiet epochs emit nothing");
        }
        panic!("the workload never produced an update");
    }

    #[test]
    fn drained_inboxes_release_burst_capacity() {
        let (tree, group) = workload();
        let config = MonitorConfig::new(Objective::Max, Method::circle());
        let mut feed = TrajectoryFeed::from_group(&group);
        let mut session = GroupSession::streaming(group.len(), config);

        // A reconnect-style burst: several hundred epochs flushed at once.
        for _ in 0..300 {
            session.submit(feed.next_epoch().unwrap());
        }
        assert!(session.inbox_capacity() >= 300);
        while session.pending_epochs() > 0 {
            assert_ne!(session.advance(&tree), StepOutcome::Starved);
        }
        assert!(
            session.inbox_capacity() <= 2,
            "draining the backlog must release the burst capacity (kept {})",
            session.inbox_capacity()
        );

        // The steady trickle fits what is kept: sessions keep working.
        session.submit(feed.next_epoch().unwrap());
        assert!(matches!(session.advance(&tree), StepOutcome::Quiet | StepOutcome::Updated { .. }));
    }

    #[test]
    #[should_panic(expected = "one position per user")]
    fn submit_rejects_wrong_batch_sizes() {
        let config = MonitorConfig::new(Objective::Max, Method::circle());
        let mut session = GroupSession::streaming(3, config);
        session.submit(vec![Point::ORIGIN]);
    }
}
