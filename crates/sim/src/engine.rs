//! The multi-group monitoring engine: many owned [`GroupSession`]s in one slab indexed by
//! group id, with dynamic fleet membership and message-driven position input.
//!
//! A production meeting-point service is a long-lived server: thousands of groups come and go
//! while the POI index stays hot, and the server's cost is dominated by per-update work, not
//! setup.  [`MonitoringEngine`] models exactly that (the crate docs describe its layout):
//!
//! * **Owned sessions, one slab.**  The engine shares its POI index via [`Arc<RTree>`] and
//!   every [`GroupSession`] owns its state.  A group's id *is* its slot: the paper's server
//!   (§3, Fig. 3) keeps one record per group and the groups are independent.  Position input
//!   has one way in, owned [`EpochUpdate`]s via [`submit`](MonitoringEngine::submit); a
//!   recorded replay submits [`TrajectoryFeed::next_epoch`](crate::TrajectoryFeed::next_epoch).
//! * **Report-driven ticks.**  Like the paper's server, a [`tick`](MonitoringEngine::tick)
//!   advances exactly the groups with a submitted epoch waiting (the ready list), one epoch
//!   each, in ascending id order, on the calling thread.
//! * **Fleet lifecycle.**  Groups [`register`](MonitoringEngine::register_stream) at any
//!   time and [`deregister`](MonitoringEngine::deregister) mid-run, and their ids are
//!   reused, most recently freed first.  A session monitors until it is deregistered.
//!   What the sessions measure goes to one set of fleet totals
//!   ([`fleet_metrics`](MonitoringEngine::fleet_metrics)) as they advance, so a departed
//!   group's work stays counted and nothing is kept per group.

use std::sync::Arc;

use mpn_geom::Point;
use mpn_index::{RTree, WorldView};

use crate::metrics::{EngineReport, FleetMetrics};
use crate::monitor::{EventSink, GroupSession, MonitorConfig, SessionEvent, StepOutcome};

/// Identifier of a registered group.
///
/// Ids are dense and handed out in registration order, and an id is the group's index into
/// the engine's slab; the id of a [`deregister`](MonitoringEngine::deregister)ed group goes
/// to a free-list and is reused by the next
/// [`register_session`](MonitoringEngine::register_session), so an id is only unique among
/// the groups alive at one time.
pub type GroupId = usize;

/// One epoch of owned user positions for a registered group — the unit of position input a
/// streaming front-end pushes into the engine via [`MonitoringEngine::submit`].
#[derive(Debug, Clone, PartialEq)]
pub struct EpochUpdate {
    /// The group the positions belong to.
    pub group_id: GroupId,
    /// One position per user, in user order.
    pub positions: Vec<Point>,
}

/// Why an [`EpochUpdate`] was rejected by [`MonitoringEngine::submit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The id is not registered (never allocated, or currently deregistered).
    UnknownGroup(GroupId),
    /// The batch does not hold exactly one position per user of the group.
    WrongGroupSize {
        /// The offending group.
        group_id: GroupId,
        /// The group's registered size.
        expected: usize,
        /// The batch's size.
        got: usize,
    },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::UnknownGroup(id) => write!(f, "group {id} is not registered"),
            SubmitError::WrongGroupSize { group_id, expected, got } => write!(
                f,
                "group {group_id} has {expected} users but the epoch update carries {got} positions"
            ),
        }
    }
}

impl std::error::Error for SubmitError {}

/// One mutation of the POI world: a point of interest appearing or disappearing while the
/// fleet is being monitored (a closing restaurant, a pop-up venue).
///
/// Applied via [`MonitoringEngine::apply_world_change`], which rebuilds the engine's
/// [`WorldView`] tree with the change and immediately recomputes exactly the sessions whose
/// safe regions the change can break.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorldChange {
    /// A new POI appears at `location`; its id is assigned by the world (reported in the
    /// [`InvalidationSummary`]).
    PoiInsert {
        /// Where the new POI appears.
        location: Point,
    },
    /// POI `poi` disappears.  Unknown (or already-deleted) ids, and the last live POI, are
    /// rejected gracefully — the summary reports `applied == false` and nothing is touched.
    PoiDelete {
        /// Id of the POI to remove.
        poi: usize,
    },
}

/// What one [`MonitoringEngine::apply_world_change`] call did.
#[derive(Debug, Clone, PartialEq)]
pub struct InvalidationSummary {
    /// Whether the change took effect (`false` only for a delete of an unknown id or of the
    /// last live POI).
    pub applied: bool,
    /// The POI the change concerned: the freshly assigned id of an insert, the deleted id, or
    /// the last live POI a refused delete named (`None` for an unknown id).
    pub poi: Option<usize>,
    /// The world generation after the change (unchanged when not applied).
    pub generation: u64,
    /// Registered sessions examined by the invalidation pass.
    pub groups_checked: usize,
    /// Sessions whose safe regions the change could break — each was force-recomputed
    /// against the new world and re-notified.
    pub invalidated: usize,
    /// The ids of the invalidated groups, ascending.
    pub affected: Vec<GroupId>,
}

/// Benchmark-only shim, ignored: every tick runs inline (`benchmark/src/trace.rs`; ROADMAP
/// item 1(b)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TickExecutor {
    /// Ignored, like its batch length.
    WorkStealing {
        /// Ignored.
        batch: usize,
    },
}

/// Benchmark-only shim (`benchmark/src/trace.rs`; ROADMAP item 1(b)): every tick runs
/// inline on the calling thread, so every counter is always 0.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TickExecCounters {
    /// Benchmark-only shim, always 0 (`benchmark/src/trace.rs`; ROADMAP item 1(b)).
    pub batches: usize,
    /// Benchmark-only shim, always 0 (`benchmark/src/trace.rs`; ROADMAP item 1(b)).
    pub steals: usize,
    /// Benchmark-only shim, always 0 (`benchmark/src/trace.rs`; ROADMAP item 1(b)).
    pub imbalance: usize,
}

/// Aggregate outcome of one fleet-wide tick.
///
/// Every field is deterministic — a count of what the groups did, never of how long — and
/// pinned by `tests/engine_parity.rs`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TickSummary {
    /// Index of the tick (0 = the registration tick of the initially registered groups).
    pub tick: usize,
    /// Sessions that were still live and advanced during this tick.
    pub advanced: usize,
    /// Sessions that ran the full update protocol (violation → probe → recompute → notify).
    pub updated: usize,
    /// Total users that violated their safe regions during this tick.
    pub violators: usize,
    /// Sessions that performed their initial registration during this tick.
    pub registered: usize,
    /// Live sessions that had no epoch to consume this tick (nothing submitted since their
    /// last advance): registered and not advanced.  This counts groups whose clients are
    /// reporting slower than the server ticks.
    pub starved: usize,
    /// Ids of deregistered groups awaiting reuse by the next registration (the vacant slab
    /// slots).
    pub retired: usize,
}

/// Runs `pass`, which sends in ascending group id, with the earlier passes' `logged` events
/// (ascending too) merged in: `send` sees ascending ids, a group's logged events first.
fn merged_with(
    logged: Vec<(GroupId, SessionEvent)>,
    send: &mut EventSink,
    pass: impl FnOnce(&mut EventSink),
) {
    let mut logged = logged.into_iter().peekable();
    pass(&mut |group, event| {
        while let Some((id, earlier)) = logged.next_if(|&(id, _)| id <= group) {
            send(id, earlier);
        }
        send(group, event);
    });
    logged.for_each(|(id, earlier)| send(id, earlier));
}

/// A stateful server monitoring a churning fleet of moving groups over one POI index.
///
/// # The slab and the ready list
///
/// * `slab` — the [`GroupSession`] bodies indexed by [`GroupId`] (configuration, last
///   answer, the flat position buffer; what else a body holds depends on its method —
///   see the crate docs).  A body keeps no event log: the protocol events of an advance go
///   to the tick's sink ([`MonitoringEngine::tick_with`]).  Deregistration empties the
///   slot and parks the id on the free-list; no other session moves, so `submit`, `group`
///   lookups and deregistration are one index away.  An id is vacant iff its slot is `None`
///   iff it is on the free-list.
/// * `ready` — the ids a tick will advance.  An id is ready iff its session is registered
///   and has at least one queued epoch: [`submit`](MonitoringEngine::submit) pushes it
///   when its queue goes from 0 to 1, registering a pre-built session that holds one pushes
///   it, a tick keeps it while an epoch is left, and deregistration removes it.
///   Order does not matter between ticks; a tick sorts the list in place, so its passes
///   visit the groups in ascending id.
#[derive(Debug)]
pub struct MonitoringEngine {
    /// The mutable POI world: one R-tree per world state, rebuilt by
    /// [`apply_world_change`](MonitoringEngine::apply_world_change).
    world: WorldView,
    /// Session bodies by id; `None` marks a vacant (deregistered) id.
    slab: Vec<Option<GroupSession>>,
    /// The ids the next tick advances (see the type docs for the invariant).
    ready: Vec<GroupId>,
    /// Ids of deregistered groups, available for reuse (most recently freed last).
    free_ids: Vec<GroupId>,
    /// The fleet totals: what every advance of every session measured, and the users of
    /// every registration.  Nothing is subtracted when a group leaves.
    fleet: FleetMetrics,
    /// Events not yet handed out, in ascending group id: world-change pushes the next tick
    /// sends, and what [`tick`](MonitoringEngine::tick) collected.
    events: Vec<(GroupId, SessionEvent)>,
    clock: usize,
}

impl MonitoringEngine {
    /// Creates an engine over the POI tree.  Every tick runs on the calling thread.
    ///
    /// Accepts the tree by value or as a pre-shared [`Arc`] (`Arc::clone` a handle to keep
    /// reading the index from outside the engine).  `_workers` is a benchmark-only shim
    /// (ROADMAP item 1(b)): ignored, every tick runs inline.
    ///
    /// # Panics
    /// Panics when the POI tree is empty.
    #[must_use]
    pub fn new(tree: impl Into<Arc<RTree>>, _workers: usize) -> Self {
        let world = WorldView::new(tree.into());
        assert!(!world.is_empty(), "monitoring requires a non-empty POI set");
        Self {
            world,
            slab: Vec::new(),
            ready: Vec::new(),
            free_ids: Vec::new(),
            fleet: FleetMetrics::default(),
            events: Vec::new(),
            clock: 0,
        }
    }

    /// Benchmark-only shim for [`new`](MonitoringEngine::new), which it calls with the
    /// executor ignored (`benchmark/src/trace.rs`; ROADMAP item 1(b)).
    #[must_use]
    pub fn with_executor(tree: impl Into<Arc<RTree>>, workers: usize, _: TickExecutor) -> Self {
        Self::new(tree, workers)
    }

    /// Benchmark-only shim, returns `self` (`benchmark/src/trace.rs`; ROADMAP item 1(c)).
    #[must_use]
    pub fn with_query_cache(self, _: mpn_index::QueryCache) -> Self {
        self
    }

    /// The engine's mutable POI world: the current R-tree and its generation.
    #[must_use]
    pub fn world(&self) -> &WorldView {
        &self.world
    }

    /// Registers a streaming group of `group_size` users and returns its id.
    ///
    /// The session consumes [`EpochUpdate`]s pushed via [`submit`](MonitoringEngine::submit)
    /// and monitors until deregistered.
    ///
    /// # Panics
    /// Panics when `group_size` is zero.
    pub fn register_stream(&mut self, group_size: usize, config: MonitorConfig) -> GroupId {
        self.register_session(GroupSession::streaming(group_size, config))
    }

    /// Registers a pre-built session (the general form of
    /// [`register_stream`](MonitoringEngine::register_stream), e.g. for a session with its
    /// events enabled).
    ///
    /// Its id is the most recently freed one when a deregistered id awaits reuse, else the
    /// next unused index.
    ///
    /// Groups registered after ticking has started are self-clocked (they start from their
    /// own `t = 0`); their registration message is counted on the next tick that feeds them,
    /// their users in the fleet's `group_size` now.
    pub fn register_session(&mut self, session: GroupSession) -> GroupId {
        let id = self.free_ids.pop().unwrap_or_else(|| {
            self.slab.push(None);
            self.slab.len() - 1
        });
        if session.pending_epochs() > 0 {
            self.ready.push(id);
        }
        self.fleet.group_size += session.group_size();
        self.slab[id] = Some(session);
        id
    }

    /// Removes a group from monitoring and returns its session, with the last answer, the
    /// heading predictors and any queued epochs; its undrained events are dropped.
    ///
    /// What the group measured went to [`fleet_metrics`](MonitoringEngine::fleet_metrics)
    /// as it advanced and stays there (a server's totals do not shrink when a group leaves).
    /// The id counts into
    /// [`retired_count`](MonitoringEngine::retired_count) until it is reused.
    ///
    /// Returns `None` for an unknown or already-deregistered id (deregistration is
    /// idempotent).
    pub fn deregister(&mut self, id: GroupId) -> Option<GroupSession> {
        let session = self.slab.get_mut(id)?.take()?;
        self.free_ids.push(id);
        if session.pending_epochs() > 0 {
            let at = self.ready.iter().position(|&r| r == id).expect("a fed group is ready");
            self.ready.swap_remove(at);
        }
        // Undrained events leave with the session: nobody owns the group any more, and the
        // id may be handed to a new one before the next drain.
        self.events.retain(|(group, _)| *group != id);
        Some(session)
    }

    /// Queues one epoch of owned positions for a streaming group; the batch is consumed by
    /// the next [`tick`](MonitoringEngine::tick) (batches queue FIFO, one per tick).
    ///
    /// # Errors
    /// Rejects updates for unknown / deregistered ids and batches whose size does not match
    /// the group — both without touching any session state, so a network front-end maps
    /// them to protocol-level error notifications instead of crashing the server.
    pub fn submit(&mut self, update: EpochUpdate) -> Result<(), SubmitError> {
        let EpochUpdate { group_id, positions } = update;
        let Some(session) = self.slab.get_mut(group_id).and_then(Option::as_mut) else {
            return Err(SubmitError::UnknownGroup(group_id));
        };
        if positions.len() != session.group_size() {
            return Err(SubmitError::WrongGroupSize {
                group_id,
                expected: session.group_size(),
                got: positions.len(),
            });
        }
        if session.pending_epochs() == 0 {
            self.ready.push(group_id);
        }
        session.submit(positions);
        Ok(())
    }

    /// Takes the events [`tick`](MonitoringEngine::tick) collected and world changes pushed
    /// since the last call: those of every session registered
    /// [`with_events`](GroupSession::with_events), tagged with the group id, in ascending
    /// group id order and, within one session, in the order they were sent.
    /// [`tick_with`](MonitoringEngine::tick_with) streams them instead.
    pub fn drain_events(&mut self) -> Vec<(GroupId, SessionEvent)> {
        std::mem::take(&mut self.events)
    }

    /// Applies one POI world change and recomputes exactly the sessions it can break.
    ///
    /// The change is applied to the engine's [`WorldView`] first — one bulk load of the edited
    /// entry array, which gives the world a fresh generation — then an invalidation pass runs
    /// over the slab on the calling thread: every registered session evaluates the break
    /// predicate ([`GroupSession::world_change_invalidates`] — a deleted POI that is the
    /// answer's optimum, or an inserted POI whose best-case aggregate undercuts the optimum's
    /// worst case over the regions) and the affected sessions are
    /// force-recomputed against the new world, re-notifying their users through the normal
    /// fleet metrics / [`SessionEvent`] path.  Unaffected sessions are untouched — their
    /// safe regions remain provably valid, so they recompute nothing.
    ///
    /// A delete of an unknown (or already-deleted) id is rejected gracefully: the summary
    /// reports `applied == false` and no session is examined.  So is a delete of the last
    /// live POI, before the world is touched: an empty world has no meeting point to monitor.
    pub fn apply_world_change(&mut self, change: WorldChange) -> InvalidationSummary {
        let (applied, poi) = match change {
            WorldChange::PoiInsert { location } => (true, Some(self.world.insert(location))),
            WorldChange::PoiDelete { poi } if self.world.len() == 1 => {
                (false, self.world.view().iter().any(|e| e.id == poi).then_some(poi))
            }
            WorldChange::PoiDelete { poi } => {
                let deleted = self.world.delete(poi).is_some();
                (deleted, deleted.then_some(poi))
            }
        };
        if !applied {
            return InvalidationSummary {
                applied: false,
                poi,
                generation: self.world.generation(),
                groups_checked: 0,
                invalidated: 0,
                affected: Vec::new(),
            };
        }
        let view = self.world.view();
        let mut groups_checked = 0;
        let mut affected = Vec::new();
        let (logged, mut events) = (std::mem::take(&mut self.events), Vec::new());
        // A forced recompute consumes no epoch and moves no clock: the ready list stays valid.
        merged_with(logged, &mut |id, event| events.push((id, event)), |send| {
            for (id, slot) in self.slab.iter_mut().enumerate() {
                let Some(session) = slot else { continue };
                groups_checked += 1;
                if session.world_change_invalidates(&change)
                    && session.force_recompute_into(view, id, &mut self.fleet.merged, send)
                {
                    affected.push(id);
                }
            }
        });
        self.events = events;
        InvalidationSummary {
            applied: true,
            poi,
            generation: self.world.generation(),
            groups_checked,
            invalidated: affected.len(),
            affected,
        }
    }

    /// Number of currently registered (active) groups.
    #[must_use]
    pub fn group_count(&self) -> usize {
        self.slab.len() - self.free_ids.len()
    }

    /// Number of deregistered ids awaiting reuse.
    #[must_use]
    pub fn retired_count(&self) -> usize {
        self.free_ids.len()
    }

    /// Number of ticks executed so far.
    #[must_use]
    pub fn clock(&self) -> usize {
        self.clock
    }

    /// One coherent snapshot of the whole engine: clock, membership accounting and the
    /// fleet metrics — see [`EngineReport`] for what each field measures.  It copies
    /// counters kept as the engine runs, so its cost does not grow with the fleet.
    #[must_use]
    pub fn report(&self) -> EngineReport {
        EngineReport {
            ticks: self.clock,
            groups: self.group_count(),
            retired: self.retired_count(),
            exec: TickExecCounters::default(),
            cache: Some(mpn_index::CacheStats),
            fleet: self.fleet_metrics(),
        }
    }

    /// Hands `count` the groups of the next [`tick_with`](MonitoringEngine::tick_with) and
    /// the events it sends each, changing nothing: 1 per logged world-change push, and what
    /// each ready session's advance sends (possibly 0).  A group may come twice; counts add.
    pub fn announce(&self, mut count: impl FnMut(GroupId, usize)) {
        self.events.iter().for_each(|&(group, _)| count(group, 1));
        let next = |id: GroupId| self.slab[id].as_ref().map_or(0, GroupSession::next_events);
        self.ready.iter().for_each(|&id| count(id, next(id)));
    }

    /// [`tick_with`](MonitoringEngine::tick_with), collecting the events it sends for
    /// [`drain_events`](MonitoringEngine::drain_events).
    pub fn tick(&mut self) -> TickSummary {
        let mut sent = Vec::new();
        let summary = self.tick_with(&mut |id, event| sent.push((id, event)));
        self.events = sent;
        summary
    }

    /// Advances every ready session — registered, with a submitted epoch waiting — one epoch,
    /// in ascending id order on the calling thread, handing `send` each event as it is sent,
    /// in ascending group id: the tick's own, merged with the pushes world changes logged
    /// since the last tick (a group's pushes first).  Every other session is untouched.
    pub fn tick_with(&mut self, send: &mut dyn FnMut(GroupId, SessionEvent)) -> TickSummary {
        let view = self.world.view();
        // Sorting in place and the pass allocate nothing: together with the per-thread query
        // scratch, a steady-state tick allocates nothing at all (`tests/alloc_gates.rs` pins
        // this).
        self.ready.sort_unstable();
        let logged = std::mem::take(&mut self.events);
        let mut summary = TickSummary::default();
        merged_with(logged, send, |send| {
            // Every ready session has an epoch queued, so each advance consumes one.
            for &id in &self.ready {
                let session = self.slab[id].as_mut().expect("a ready id holds a session");
                // What `announce` said this advance sends, checked against what it sends.
                let (announced, mut sent) =
                    (cfg!(debug_assertions).then(|| session.next_events()), 0);
                let outcome =
                    session.advance_into(view, id, &mut self.fleet.merged, &mut |g, e| {
                        sent += 1;
                        send(g, e);
                    });
                debug_assert!(
                    announced.is_none_or(|n| n == sent),
                    "announced {announced:?}, sent {sent}"
                );
                match outcome {
                    StepOutcome::Registered => summary.registered += 1,
                    StepOutcome::Quiet => {}
                    StepOutcome::Updated { violators } => {
                        summary.updated += 1;
                        summary.violators += violators;
                    }
                    StepOutcome::Starved => unreachable!("a ready session has an epoch to consume"),
                }
                summary.advanced += 1;
            }
        });
        summary.starved = self.group_count() - summary.advanced;
        let slab = &self.slab;
        self.ready.retain(|&id| slab[id].as_ref().is_some_and(|s| s.pending_epochs() > 0));
        summary.retired = self.retired_count();
        summary.tick = self.clock;
        self.clock += 1;
        summary
    }

    /// The session of one group.
    ///
    /// # Panics
    /// Panics on an unknown or deregistered id.
    #[must_use]
    pub fn group(&self, id: GroupId) -> &GroupSession {
        self.slab[id].as_ref().unwrap_or_else(|| panic!("group {id} has been deregistered"))
    }

    /// Fleet-wide metrics: what every advance and forced recompute of every group measured,
    /// **including** those of deregistered groups (a long-lived server's totals must not
    /// shrink when a group leaves or its id is recycled), and the work counters of every
    /// computation.  A copy of counters kept as the sessions advance: it allocates nothing
    /// and costs the same for any fleet.
    ///
    /// `group_size` is the total number of monitored users over the fleet's lifetime (each
    /// registration counts its users once).  A group's own measures are not kept: a caller
    /// that wants them replays the group on its own ([`run_monitoring`](crate::run_monitoring))
    /// or tallies the events its ticks send.
    #[must_use]
    pub fn fleet_metrics(&self) -> FleetMetrics {
        self.fleet
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MonitoringMetrics;
    use crate::monitor::tests::first;
    use crate::monitor::{run_monitoring, TrajectoryFeed};
    use mpn_core::{Method, Objective};
    use mpn_mobility::poi::{clustered_pois, PoiConfig};
    use mpn_mobility::waypoint::{random_waypoint, WaypointConfig};
    use mpn_mobility::Trajectory;

    fn world(groups: usize) -> (Arc<RTree>, Vec<Vec<Trajectory>>) {
        let pois =
            clustered_pois(&PoiConfig { count: 700, domain: 1000.0, ..PoiConfig::default() }, 5);
        let tree = Arc::new(RTree::bulk_load(&pois));
        let config = WaypointConfig { domain: 1000.0, speed_limit: 6.0, timestamps: 120 };
        let fleet = (0..groups)
            .map(|g| (0..3).map(|i| random_waypoint(&config, (g * 13 + i) as u64)).collect())
            .collect();
        (tree, fleet)
    }

    type Replays = Vec<(GroupId, TrajectoryFeed)>;

    /// Registers a stream for the first `n` timestamps of `group`'s recording; the returned
    /// feed is what the test submits from.
    fn replay(
        engine: &mut MonitoringEngine,
        group: &[Trajectory],
        n: usize,
        config: MonitorConfig,
    ) -> (GroupId, TrajectoryFeed) {
        let feed = TrajectoryFeed::new(first(group, n));
        (engine.register_stream(feed.group_size(), config), feed)
    }

    /// Submits the next recorded epoch of every replay with one left, then ticks once; `None`,
    /// without a tick, once every recording has run out.
    fn feed_and_tick(engine: &mut MonitoringEngine, replays: &mut Replays) -> Option<TickSummary> {
        let mut fed = false;
        for (group_id, feed) in replays.iter_mut() {
            if let Some(positions) = feed.next_epoch() {
                let update = EpochUpdate { group_id: *group_id, positions };
                engine.submit(update).expect("a live replay");
                fed = true;
            }
        }
        fed.then(|| engine.tick())
    }

    /// The measures of `group`'s first `n` timestamps replayed alone through an engine.
    fn alone(
        tree: &Arc<RTree>,
        group: &[Trajectory],
        n: usize,
        config: MonitorConfig,
    ) -> MonitoringMetrics {
        let mut engine = MonitoringEngine::new(Arc::clone(tree), 1);
        let mut replays = vec![replay(&mut engine, group, n, config)];
        run(&mut engine, &mut replays);
        engine.fleet_metrics().merged
    }

    /// Every measure but the wall-clock time.
    fn counters(m: &MonitoringMetrics) -> impl PartialEq + std::fmt::Debug {
        (m.timestamps, m.updates, m.traffic, m.stats)
    }

    /// Submits and ticks until every recording has run out; returns the ticks.
    fn run(engine: &mut MonitoringEngine, replays: &mut Replays) -> usize {
        let mut ticks = 0;
        while feed_and_tick(engine, replays).is_some() {
            ticks += 1;
        }
        ticks
    }

    /// One tick of [`feed_and_tick`] while a recording has an epoch left.
    fn step(engine: &mut MonitoringEngine, replays: &mut Replays) -> TickSummary {
        feed_and_tick(engine, replays).expect("a recording has an epoch left")
    }

    #[test]
    fn engine_ticks_match_serial_replays() {
        let (tree, fleet) = world(6);
        let config = MonitorConfig::new(Objective::Max, Method::tile());

        let mut serial = MonitoringMetrics::default();
        for group in &fleet {
            let replayed = run_monitoring(&tree, &first(group, 80), &config);
            // Each group ticked alone through an engine measures what its replay does.
            assert_eq!(counters(&alone(&tree, group, 80, config)), counters(&replayed));
            serial.absorb(&replayed);
        }

        let mut engine = MonitoringEngine::new(Arc::clone(&tree), 1);
        let mut replays: Replays =
            fleet.iter().map(|g| replay(&mut engine, g, 80, config)).collect();
        assert_eq!(run(&mut engine, &mut replays), 80, "an 80-timestamp recording takes 80 ticks");
        assert_eq!(counters(&engine.fleet_metrics()), counters(&serial));
    }

    #[test]
    fn tick_summaries_account_for_every_session() {
        let (tree, fleet) = world(5);
        let config = MonitorConfig::new(Objective::Max, Method::circle());
        let mut engine = MonitoringEngine::new(Arc::clone(&tree), 1);
        let mut replays: Replays =
            fleet.iter().map(|g| replay(&mut engine, g, 40, config)).collect();
        assert_eq!(engine.group_count(), 5);

        let initial = step(&mut engine, &mut replays);
        assert_eq!(initial.tick, 0);
        assert_eq!(initial.registered, 5, "first tick registers every group");
        assert_eq!(initial.advanced, 5);
        assert_eq!(initial.starved, 0, "every group reported");

        let second = step(&mut engine, &mut replays);
        assert_eq!(second.tick, 1);
        assert_eq!(second.registered, 0);
        assert_eq!(second.advanced, 5);

        assert_eq!(run(&mut engine, &mut replays), 38, "the recordings end after 40 ticks");
        let summary = engine.tick();
        assert_eq!(summary.advanced, 0, "sessions whose recordings ran out do not advance");
        assert_eq!(summary.starved, 5, "they starve: registered − advanced");
        assert_eq!(summary.retired, 0);
    }

    #[test]
    fn fleet_metrics_merge_all_groups() {
        let (tree, fleet) = world(3);
        let config = MonitorConfig::new(Objective::Max, Method::circle());
        let mut engine = MonitoringEngine::new(Arc::clone(&tree), 1);
        let mut replays: Replays =
            fleet.iter().map(|g| replay(&mut engine, g, 30, config)).collect();
        assert_eq!(engine.fleet_metrics().group_size, 9, "counted at registration");
        run(&mut engine, &mut replays);
        let fleet_metrics = engine.fleet_metrics();
        assert_eq!(fleet_metrics.group_size, 9, "3 groups of 3 users");
        assert_eq!(fleet_metrics.timestamps, 3 * 29);
        let per_group: usize = fleet.iter().map(|g| alone(&tree, g, 30, config).updates).sum();
        assert_eq!(fleet_metrics.updates, per_group);
    }

    #[test]
    fn heterogeneous_sessions_coexist() {
        let (tree, fleet) = world(2);
        let mut engine = MonitoringEngine::new(Arc::clone(&tree), 1);
        let circle = MonitorConfig::new(Objective::Max, Method::circle());
        let tile = MonitorConfig::new(Objective::Sum, Method::tile());
        let mut replays = vec![
            replay(&mut engine, &fleet[0], 20, circle),
            replay(&mut engine, &fleet[1], 50, tile),
        ];
        let (a, b) = (replays[0].0, replays[1].0);
        run(&mut engine, &mut replays);
        let (circle, tile) =
            (alone(&tree, &fleet[0], 20, circle), alone(&tree, &fleet[1], 50, tile));
        assert_eq!((circle.timestamps, tile.timestamps), (19, 49));
        let mut both = circle;
        both.absorb(&tile);
        assert_eq!(counters(&engine.fleet_metrics()), counters(&both));
        assert_eq!(engine.group(a).config().method.name(), "Circle");
        assert_eq!(engine.group(b).config().method.name(), "Tile");
    }

    #[test]
    fn late_registration_starts_from_the_groups_own_clock() {
        let (tree, fleet) = world(2);
        let config = MonitorConfig::new(Objective::Max, Method::circle());
        let mut engine = MonitoringEngine::new(Arc::clone(&tree), 1);
        let mut replays: Replays = vec![replay(&mut engine, &fleet[0], 25, config)];
        step(&mut engine, &mut replays);
        step(&mut engine, &mut replays);
        replays.push(replay(&mut engine, &fleet[1], 25, config));
        let summary = step(&mut engine, &mut replays);
        assert_eq!(summary.registered, 1, "the late group registers on its first tick");
        run(&mut engine, &mut replays);
        assert_eq!(engine.fleet_metrics().timestamps, 2 * 24, "late groups replay fully");
    }

    #[test]
    fn deregistered_groups_keep_their_metrics_and_free_their_ids() {
        let (tree, fleet) = world(4);
        let config = MonitorConfig::new(Objective::Max, Method::circle());
        let mut engine = MonitoringEngine::new(Arc::clone(&tree), 1);
        let mut replays: Replays =
            fleet.iter().map(|g| replay(&mut engine, g, 30, config)).collect();
        let ids: Vec<_> = replays.iter().map(|(id, _)| *id).collect();
        for _ in 0..10 {
            step(&mut engine, &mut replays);
        }
        let before = engine.fleet_metrics();
        assert_eq!(before.timestamps, 4 * 9, "10 ticks = registration + 9 monitored timestamps");

        let departed = engine.deregister(ids[1]).expect("group 1 is registered");
        replays.remove(1);
        assert_eq!(departed.group_size(), 3, "the session is handed back");
        assert_eq!(engine.group_count(), 3);
        assert_eq!(engine.retired_count(), 1);
        assert!(engine.deregister(ids[1]).is_none(), "deregistration is idempotent");
        // The departed group's counters stay in the fleet accounting.
        let fleet_before_reuse = engine.fleet_metrics();
        assert_eq!(counters(&fleet_before_reuse), counters(&before));
        assert_eq!(fleet_before_reuse.group_size, 12, "the departed users stay in the total");

        // The freed id is reused by the next registration; fleet totals do not shrink.
        replays.push(replay(&mut engine, &fleet[1], 30, config));
        assert_eq!(replays[3].0, ids[1]);
        assert_eq!(engine.group_count(), 4);
        assert_eq!(engine.retired_count(), 0);
        let fleet_after_reuse = engine.fleet_metrics();
        assert_eq!(fleet_after_reuse.updates, fleet_before_reuse.updates);
        assert_eq!(fleet_after_reuse.group_size, fleet_before_reuse.group_size + 3);

        run(&mut engine, &mut replays);
        assert_eq!(
            engine.fleet_metrics().timestamps,
            3 * 29 + 9 + 29,
            "the departed group's 9 stay, the new session replays its whole recording"
        );
    }

    #[test]
    fn rejecting_an_empty_group_leaves_the_bookkeeping_intact() {
        let (tree, fleet) = world(1);
        let config = MonitorConfig::new(Objective::Max, Method::circle());
        let mut engine = MonitoringEngine::new(Arc::clone(&tree), 1);
        let mut replays: Replays = vec![replay(&mut engine, &fleet[0], 10, config)];
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.register_stream(0, config);
        }));
        assert!(panicked.is_err(), "empty groups are rejected");
        assert_eq!(engine.group_count(), 1, "the failed registration left no trace");
        assert_eq!(engine.retired_count(), 0);
        run(&mut engine, &mut replays);
        assert_eq!(engine.fleet_metrics().group_size, 3, "only the registered group counts");
        assert_eq!(engine.fleet_metrics().timestamps, 9);
    }

    #[test]
    fn submitted_epochs_drive_streaming_sessions_through_ticks() {
        let (tree, fleet) = world(2);
        let config = MonitorConfig::new(Objective::Max, Method::circle());
        let group = first(&fleet[0], 30);
        let replay = run_monitoring(&tree, &group, &config);

        let mut engine = MonitoringEngine::new(Arc::clone(&tree), 1);
        let id = engine.register_stream(group.len(), config);
        let mut source = TrajectoryFeed::new(group);
        let mut tick = 0;
        while let Some(positions) = source.next_epoch() {
            engine.submit(EpochUpdate { group_id: id, positions }).expect("live group");
            let summary = engine.tick();
            assert_eq!(summary.advanced, 1);
            assert_eq!(summary.starved, 0);
            assert_eq!(summary.registered, usize::from(tick == 0));
            tick += 1;
        }
        assert_eq!(tick, 30);
        assert_eq!(counters(&engine.fleet_metrics()), counters(&replay));
    }

    #[test]
    fn starved_streams_are_counted_but_do_not_advance() {
        let (tree, fleet) = world(1);
        let config = MonitorConfig::new(Objective::Max, Method::circle());
        let mut engine = MonitoringEngine::new(Arc::clone(&tree), 1);
        let id = engine.register_stream(3, config);

        let summary = engine.tick();
        assert_eq!(summary.starved, 1);
        assert_eq!(summary.advanced, 0);

        let positions: Vec<Point> = fleet[0].iter().map(|t| t.at(0)).collect();
        engine.submit(EpochUpdate { group_id: id, positions }).unwrap();
        let summary = engine.tick();
        assert_eq!(summary.registered, 1);
        assert_eq!(summary.starved, 0);
        assert_eq!(engine.fleet_metrics().updates, 1);
    }

    #[test]
    fn submit_rejects_unknown_groups_and_bad_batches() {
        let (tree, fleet) = world(1);
        let config = MonitorConfig::new(Objective::Max, Method::circle());
        let mut engine = MonitoringEngine::new(Arc::clone(&tree), 1);
        let id = engine.register_stream(3, config);

        let bad = engine.submit(EpochUpdate { group_id: 99, positions: vec![Point::ORIGIN; 3] });
        assert_eq!(bad, Err(SubmitError::UnknownGroup(99)));
        let bad = engine.submit(EpochUpdate { group_id: id, positions: vec![Point::ORIGIN] });
        assert_eq!(bad, Err(SubmitError::WrongGroupSize { group_id: id, expected: 3, got: 1 }));

        engine.deregister(id).unwrap();
        let positions: Vec<Point> = fleet[0].iter().map(|t| t.at(0)).collect();
        let bad = engine.submit(EpochUpdate { group_id: id, positions });
        assert_eq!(bad, Err(SubmitError::UnknownGroup(id)), "deregistered ids reject updates");
    }

    #[test]
    fn drain_events_tags_session_events_with_group_ids() {
        let (tree, fleet) = world(2);
        let config = MonitorConfig::new(Objective::Max, Method::circle());
        let mut engine = MonitoringEngine::new(Arc::clone(&tree), 1);
        let silent = replay(&mut engine, &fleet[0], 20, config);
        let feed = TrajectoryFeed::from_group(&fleet[1]);
        let logged = engine.register_session(GroupSession::streaming(3, config).with_events(true));
        let mut replays = vec![silent, (logged, feed)];
        step(&mut engine, &mut replays);
        let events = engine.drain_events();
        assert!(events.iter().all(|(id, _)| *id == logged), "only logged sessions emit");
        assert_eq!(
            events.len(),
            engine.group(logged).group_size(),
            "registration assigns every user"
        );
        assert!(events.iter().any(|(_, e)| matches!(e, SessionEvent::Assigned { .. })));
        assert!(engine.drain_events().is_empty(), "draining is destructive");
    }
}
