//! The multi-group monitoring engine: many owned [`GroupSession`]s in one slab indexed by
//! group id, with dynamic fleet membership and message-driven position input.
//!
//! A production meeting-point service is a long-lived server: thousands of groups come and go
//! while the POI index stays hot, and the server's cost is dominated by per-update work, not
//! setup.  [`MonitoringEngine`] models exactly that:
//!
//! * **Owned sessions, one slab.**  The engine owns its POI index (an [`Arc<RTree>`] shared
//!   with whoever built it) and every registered [`GroupSession`] owns its state — there is
//!   no borrowed trajectory data and no lifetime tying the engine to a pre-baked workload.
//!   A group's id *is* its slot: the paper's server (§3, Fig. 3) keeps one record per group
//!   and the groups are independent, so nothing partitions them.  Position input has one way
//!   in: owned [`EpochUpdate`] batches via [`submit`](MonitoringEngine::submit).  A recorded
//!   replay is just another client, submitting
//!   [`TrajectoryFeed::next_epoch`](crate::TrajectoryFeed::next_epoch) each tick.
//! * **Report-driven ticks.**  The paper's server does nothing for a group until one of its
//!   users reports, and neither does a [`tick`](MonitoringEngine::tick): the engine keeps a
//!   ready list of the ids with a submitted epoch waiting and advances exactly those, one
//!   epoch each, in ascending id order.  A quiet fleet receiving one report costs one
//!   session's work; the finished and starved tallies are maintained counters.
//! * **Workers slice the slab.**  A one-worker engine ticks inline and is the serial
//!   reference of the parity suites (`tests/engine_parity.rs`).  With more workers the engine
//!   owns an [`mpn_pool::WorkerPool`] — long-lived threads parked between ticks and woken by
//!   the tick barrier ([`WorkerPool::scoped`](mpn_pool::WorkerPool::scoped)) — and each tick
//!   cuts the *same* slab into contiguous chunks of ids ([`TickExecutor`] picks their
//!   length).  Every pass visits the groups in ascending id order whatever the worker count,
//!   so a parallel tick produces exactly the counters **and the events** of a serial one.
//! * **Fleet lifecycle.**  Groups [`register`](MonitoringEngine::register_stream) at any
//!   time and can [`deregister`](MonitoringEngine::deregister) mid-run (their session state
//!   — heading predictors, §5.4 buffer, last answer — is reclaimed, their metrics are handed
//!   back and folded into the fleet totals).  Freed ids are reused, most recently freed
//!   first, before a new one is allocated, so the slab stays dense under churn.
//!
//! Sessions may have different horizons (and even different methods/objectives); a session
//! past its bounded horizon takes no more epochs, and an **open-horizon** streaming session
//! (no [`MonitorConfig`] timestamp cap) never finishes — it leaves the fleet via
//! deregistration.  Per-group / fleet-wide metrics (the latter including those of
//! deregistered groups) are available throughout via
//! [`group_metrics`](MonitoringEngine::group_metrics) /
//! [`fleet_metrics`](MonitoringEngine::fleet_metrics).

use std::sync::Arc;

use mpn_geom::Point;
use mpn_index::{IndexView, QueryCache, RTree, WorldView};
use mpn_pool::WorkerPool;

use crate::metrics::{EngineReport, MonitoringMetrics};
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
    /// The epochs the session has consumed plus those already queued reach its bounded
    /// horizon: one more would never be consumed, only sit in the inbox until deregistration.
    Finished(GroupId),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::UnknownGroup(id) => write!(f, "group {id} is not registered"),
            SubmitError::WrongGroupSize { group_id, expected, got } => write!(
                f,
                "group {group_id} has {expected} users but the epoch update carries {got} positions"
            ),
            SubmitError::Finished(id) => {
                write!(
                    f,
                    "group {id} has its whole horizon consumed or queued and takes no more epochs"
                )
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// One mutation of the POI world: a point of interest appearing or disappearing while the
/// fleet is being monitored (a closing restaurant, a pop-up venue).
///
/// Applied via [`MonitoringEngine::apply_world_change`], which threads the change through the
/// engine's [`WorldView`] overlay and immediately recomputes exactly the sessions whose safe
/// regions the change can break.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorldChange {
    /// A new POI appears at `location`; its id is assigned by the world (reported in the
    /// [`InvalidationSummary`]).
    PoiInsert {
        /// Where the new POI appears.
        location: Point,
    },
    /// POI `poi` disappears.  Unknown (or already-deleted) ids are rejected gracefully —
    /// the summary reports `applied == false` and nothing is touched.
    PoiDelete {
        /// Id of the POI to remove.
        poi: usize,
    },
}

/// What one [`MonitoringEngine::apply_world_change`] call did.
#[derive(Debug, Clone, PartialEq)]
pub struct InvalidationSummary {
    /// Whether the change took effect (`false` only for a delete of an unknown id).
    pub applied: bool,
    /// The POI the change concerned: the freshly assigned id of an insert, or the deleted id.
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
    /// Whether the delta overlay was folded back into the base index afterwards.
    pub compacted: bool,
}

/// How an engine with several workers cuts the slab into pool jobs (a one-worker engine
/// ticks inline whatever the executor).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TickExecutor {
    /// One chunk of `⌈slots / workers⌉` ids per worker (the default): the cheapest dispatch,
    /// and the faster choice for large quiet fleets, where small batches cost more in boxed
    /// jobs than stealing wins back.
    #[default]
    WorkerPool,
    /// *Session batches*: the slab is cut into chunks of `batch` ids, neighbouring chunks
    /// pushed onto the same worker's deque; workers that drain their deque steal batches
    /// from stragglers, so a run of expensive groups no longer bounds the tick (see
    /// `mpn-pool`'s module docs for the deque discipline).  Counters and events are
    /// identical to [`WorkerPool`](TickExecutor::WorkerPool) — only the schedule changes,
    /// surfaced via [`TickSummary::exec`].
    WorkStealing {
        /// Slab slots per job (clamped to at least 1).
        batch: usize,
    },
}

/// Executor diagnostics of one tick: how the work was scheduled and what the shared query
/// cache did, as opposed to what the fleet computed.
///
/// These counters are **not** part of [`TickSummary`]'s equality — they are scheduling
/// artifacts that legitimately differ between executors, runs and machines (a steal happens
/// when a worker *happens* to go idle first; a cache hit depends on which racing session got
/// there first), while the protocol counters are bit-identical by contract.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TickExecCounters {
    /// Chunks the slab was cut into (session batches for [`TickExecutor::WorkStealing`], one
    /// per worker otherwise), including the one the calling thread ran itself.
    pub batches: usize,
    /// Jobs a pool worker took from another worker's deque (0 without a pool).
    pub steals: usize,
    /// Jobs run by the busiest minus the laziest pool worker after stealing (the chunk run
    /// on the calling thread is no pool job).
    pub imbalance: usize,
    /// Shared-cache lookups answered from the cache during this tick (0 without a cache).
    pub cache_hits: u64,
    /// Shared-cache lookups that fell through to a real traversal during this tick.
    pub cache_misses: u64,
}

impl TickExecCounters {
    /// Folds another tick's counters into this one (for cumulative engine totals).
    pub fn absorb(&mut self, other: &TickExecCounters) {
        self.batches += other.batches;
        self.steals += other.steals;
        self.imbalance += other.imbalance;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
    }

    /// Fraction of this tick's shared-cache lookups that hit (0.0 without lookups).
    #[must_use]
    pub fn cache_hit_rate(&self) -> f64 {
        let lookups = self.cache_hits + self.cache_misses;
        if lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / lookups as f64
        }
    }
}

/// Aggregate outcome of one fleet-wide tick.
///
/// Equality deliberately covers only the *protocol* counters (everything except
/// [`exec`](TickSummary::exec)): those are deterministic — identical across executors,
/// worker counts and cache configurations — and pinned by `tests/engine_parity.rs`, while
/// the executor diagnostics describe the racy schedule that produced them.
#[derive(Debug, Clone, Copy, Default)]
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
    /// Sessions that have consumed their whole **bounded** horizon, totalled over every
    /// currently registered session (not a per-tick delta).  Open-horizon streaming sessions
    /// never count here — they have nothing to finish — and a deregistered group leaves this
    /// total for [`retired`](TickSummary::retired).
    pub finished: usize,
    /// Live sessions that had no epoch to consume this tick (nothing submitted since their
    /// last advance): registered, unfinished and not advanced.  This counts groups whose
    /// clients are reporting slower than the server ticks.
    pub starved: usize,
    /// Ids of deregistered groups awaiting reuse by the next registration (the vacant slab
    /// slots).
    pub retired: usize,
    /// Executor diagnostics (batches, steals, imbalance, cache hits/misses).  Excluded from
    /// equality — see the type docs.
    pub exec: TickExecCounters,
}

impl PartialEq for TickSummary {
    fn eq(&self, other: &Self) -> bool {
        // Protocol counters only: `exec` is a scheduling artifact (see the type docs).
        self.tick == other.tick
            && self.advanced == other.advanced
            && self.updated == other.updated
            && self.violators == other.violators
            && self.registered == other.registered
            && self.finished == other.finished
            && self.starved == other.starved
            && self.retired == other.retired
    }
}

impl Eq for TickSummary {}

/// Advances the ready sessions of one contiguous chunk of the slab — the ids
/// `first..first + slab.len()` — one epoch each; returns the chunk's tick tally.
///
/// `ready` is the engine's whole ready list, sorted: the chunk takes its ids by binary
/// search, so a pass costs the sessions that reported, never the chunk's length.  Every
/// ready session has an epoch queued and is unfinished, so each advance consumes one; the
/// tally counts the advances and the sessions they finished.  Sessions are fully
/// independent, so where the slab is cut (and which worker runs a chunk) changes only the
/// schedule, never any counter (`tests/engine_parity.rs` pins it).
fn advance_chunk(
    first: GroupId,
    slab: &mut [Option<GroupSession>],
    ready: &[GroupId],
    view: IndexView<'_>,
    events: &mut EventSink,
) -> TickSummary {
    let lo = ready.partition_point(|&id| id < first);
    let hi = ready.partition_point(|&id| id < first + slab.len());
    let mut tally = TickSummary::default();
    for &id in &ready[lo..hi] {
        let session = slab[id - first].as_mut().expect("a ready id holds a session");
        match session.advance_into(view, id, events) {
            StepOutcome::Registered => tally.registered += 1,
            StepOutcome::Quiet => {}
            StepOutcome::Updated { violators } => {
                tally.updated += 1;
                tally.violators += violators;
            }
            StepOutcome::Finished | StepOutcome::Starved => {
                unreachable!("a ready session has an epoch to consume")
            }
        }
        tally.advanced += 1;
        if session.is_finished() {
            tally.finished += 1;
        }
    }
    tally
}

/// The invalidation pass of one world change over one chunk of the slab: evaluates the break
/// predicate for every session and force-recomputes the affected ones against the new view,
/// their revised regions going to `events`.  Returns `(sessions checked, affected ids)`.
///
/// A forced recompute consumes no epoch and moves no clock, so the ready list stays valid.
fn invalidate_chunk(
    first: GroupId,
    slab: &mut [Option<GroupSession>],
    view: IndexView<'_>,
    change: &WorldChange,
    events: &mut EventSink,
) -> (usize, Vec<GroupId>) {
    let mut affected = Vec::new();
    let mut checked = 0usize;
    for (id, slot) in (first..).zip(slab.iter_mut()) {
        let Some(session) = slot else { continue };
        checked += 1;
        if session.world_change_invalidates(change)
            && session.force_recompute_into(view, id, events)
        {
            affected.push(id);
        }
    }
    (checked, affected)
}

/// Runs `pass` over the whole slab and hands each result to `fold`, in ascending id order;
/// returns how the work was scheduled.
///
/// Without a pool (one worker) — or when the slab fits one chunk — that is a single inline
/// call writing straight to `events`, with no allocation of its own.  Otherwise the slab is
/// cut into contiguous chunks (`⌈len / workers⌉` slots under [`TickExecutor::WorkerPool`],
/// `batch` under [`TickExecutor::WorkStealing`]), each with an event buffer of its own;
/// neighbouring chunks go to the same worker's deque and move elsewhere only by stealing,
/// the last chunk runs on the calling thread (which would otherwise only wait at the
/// barrier), and behind the barrier the buffers are concatenated in chunk order — so
/// `events` and the sequence `fold` sees are those of the inline call.
///
/// A free function over the slab's parts, so a caller can hold a view of the engine's world
/// while it runs.
fn for_each_chunk<T: Send>(
    pool: Option<&mut WorkerPool>,
    executor: TickExecutor,
    slab: &mut [Option<GroupSession>],
    events: &mut EventSink,
    pass: impl Fn(GroupId, &mut [Option<GroupSession>], &mut EventSink) -> T + Sync,
    mut fold: impl FnMut(T),
) -> TickExecCounters {
    let workers = pool.as_ref().map_or(1, |pool| pool.worker_count());
    let len = match executor {
        TickExecutor::WorkerPool => slab.len().div_ceil(workers),
        TickExecutor::WorkStealing { batch } => batch,
    }
    .max(1);
    let chunks = slab.len().div_ceil(len);
    let Some(pool) = pool.filter(|_| chunks > 1) else {
        fold(pass(0, slab, events));
        return TickExecCounters { batches: 1, ..TickExecCounters::default() };
    };
    let mut outcomes: Vec<(Option<T>, EventSink)> =
        (0..chunks).map(|_| (None, Vec::new())).collect();
    pool.scoped(|scope| {
        let pass = &pass;
        let mut work = slab.chunks_mut(len).zip(outcomes.iter_mut()).enumerate();
        let inline = work.next_back();
        for (i, (chunk, (result, sent))) in work {
            scope.execute_on(i * workers / chunks, move || {
                *result = Some(pass(i * len, chunk, sent));
            });
        }
        if let Some((i, (chunk, (result, sent)))) = inline {
            *result = Some(pass(i * len, chunk, sent));
        }
    });
    for (result, mut sent) in outcomes {
        events.append(&mut sent);
        fold(result.expect("the scope barrier ran every job"));
    }
    let stats = pool.last_scope_stats();
    TickExecCounters {
        batches: chunks,
        steals: stats.steals,
        imbalance: stats.imbalance(),
        ..TickExecCounters::default()
    }
}

/// Folds one chunk's tally into an accumulator (the fleet-wide fields — `tick`, `finished`,
/// `starved`, `retired`, `exec` — are filled in by the caller, not summed).
fn merge_counts(acc: &mut TickSummary, t: &TickSummary) {
    acc.advanced += t.advanced;
    acc.updated += t.updated;
    acc.violators += t.violators;
    acc.registered += t.registered;
    acc.finished += t.finished;
}

/// A stateful server monitoring a churning fleet of moving groups over one POI index.
///
/// The engine has no lifetime parameters: it shares the POI index via [`Arc`] and every
/// session owns its data, so engines can be moved into server threads, held alongside their
/// workload, and fed from the network.
///
/// # The slab and the ready list
///
/// * `slab` — the [`GroupSession`] bodies indexed by [`GroupId`] (configuration, metrics,
///   last answer, the flat position buffer; what else a body holds depends on its method —
///   see the crate docs).  A body keeps no event log: the protocol events of an advance go
///   to the tick's sink ([`MonitoringEngine::drain_events`]).  Deregistration empties the
///   slot and parks the id on the free-list; no other session moves, so `submit`, `group`
///   lookups and deregistration are one index away.  An id is vacant iff its slot is `None`
///   iff it is on the free-list.
/// * `ready` — the ids a tick will advance.  An id is ready iff its session is registered,
///   not finished, and has at least one queued epoch: [`submit`](MonitoringEngine::submit)
///   pushes it when its queue goes from 0 to 1, registering a pre-built session that holds
///   one pushes it, a tick keeps it while an epoch is left, and deregistration removes it.
///   Order does not matter between ticks; a tick sorts the list in place, so its passes
///   visit the groups in ascending id.
#[derive(Debug)]
pub struct MonitoringEngine {
    /// The mutable POI world: a shared base R-tree plus the generation-stamped delta overlay
    /// maintained by [`apply_world_change`](MonitoringEngine::apply_world_change).
    world: WorldView,
    /// Session bodies by id; `None` marks a vacant (deregistered) id.
    slab: Vec<Option<GroupSession>>,
    /// The ids the next tick advances (see the type docs for the invariant).
    ready: Vec<GroupId>,
    /// Registered sessions that have consumed their whole bounded horizon.
    finished: usize,
    /// Ids of deregistered groups, available for reuse (most recently freed last).
    free_ids: Vec<GroupId>,
    /// Merged metrics of every group that deregistered (`group_size` = their users), so
    /// fleet-wide totals never shrink when a group leaves.
    departed: MonitoringMetrics,
    /// The event sink: what sessions registered [`with_events`](GroupSession::with_events)
    /// sent since the last [`drain_events`](MonitoringEngine::drain_events), each pass (a
    /// tick, a world change) appending in ascending id order.
    events: EventSink,
    /// A pass appended to a sink that already held an earlier pass's events, so the sink as
    /// a whole is no longer in id order; `drain_events` restores it.
    events_interleaved: bool,
    clock: usize,
    executor: TickExecutor,
    /// Present iff there is more than one worker (a single worker always ticks inline).
    pool: Option<WorkerPool>,
    /// Optional fleet-wide shared query cache, attached to every tick's [`IndexView`] so
    /// near-duplicate groups reuse candidate lists within a generation.
    cache: Option<Arc<QueryCache>>,
    /// Executor diagnostics accumulated over every tick so far (batches, steals, cache
    /// traffic) — the lifetime counterpart of the per-tick [`TickSummary::exec`].
    exec_totals: TickExecCounters,
}

impl MonitoringEngine {
    /// Creates an engine over the POI tree that ticks on `workers` threads, with the default
    /// one-chunk-per-worker executor.
    ///
    /// Accepts the tree by value or as a pre-shared [`Arc`] (`Arc::clone` a handle to keep
    /// reading the index from outside the engine).  `workers` is clamped to at least 1.
    /// One worker means fully serial, inline ticks.
    ///
    /// # Panics
    /// Panics when the POI tree is empty.
    #[must_use]
    pub fn new(tree: impl Into<Arc<RTree>>, workers: usize) -> Self {
        Self::with_executor(tree, workers, TickExecutor::default())
    }

    /// Creates an engine with an explicit tick executor.
    ///
    /// The engine spawns its persistent pool workers up front (none for a single worker,
    /// which always ticks inline).
    ///
    /// # Panics
    /// Panics when the POI tree is empty.
    #[must_use]
    pub fn with_executor(
        tree: impl Into<Arc<RTree>>,
        workers: usize,
        executor: TickExecutor,
    ) -> Self {
        let world = WorldView::new(tree.into());
        assert!(!world.is_empty(), "monitoring requires a non-empty POI set");
        Self {
            world,
            slab: Vec::new(),
            ready: Vec::new(),
            finished: 0,
            free_ids: Vec::new(),
            departed: MonitoringMetrics::new(0),
            events: Vec::new(),
            events_interleaved: false,
            clock: 0,
            executor,
            pool: (workers > 1).then(|| WorkerPool::new(workers)),
            cache: None,
            exec_totals: TickExecCounters::default(),
        }
    }

    /// Attaches a fleet-wide shared query cache: every tick (and every
    /// [`apply_world_change`](MonitoringEngine::apply_world_change) invalidation pass)
    /// queries the index through it, so groups monitoring the same region reuse candidate
    /// lists within a world generation.  Pass a pre-shared [`Arc`] to share one cache across
    /// several engines watching the same world.
    ///
    /// Results are replayed bit-identically (see [`QueryCache`]), so counters do not change —
    /// only [`QueryStats`](mpn_index::QueryStats) node-access work is saved.  Per-tick hit /
    /// miss deltas land on [`TickSummary::exec`].
    #[must_use]
    pub fn with_query_cache(mut self, cache: impl Into<Arc<QueryCache>>) -> Self {
        self.cache = Some(cache.into());
        self
    }

    /// The shared query cache, when one is attached.
    #[must_use]
    pub fn query_cache(&self) -> Option<&Arc<QueryCache>> {
        self.cache.as_ref()
    }

    /// Executor diagnostics accumulated over every tick so far: total batches dispatched,
    /// batches stolen across workers, summed per-tick imbalance, and query-cache traffic.
    #[must_use]
    pub fn exec_totals(&self) -> TickExecCounters {
        self.exec_totals
    }

    /// The engine's mutable POI world (base index plus delta overlay).
    #[must_use]
    pub fn world(&self) -> &WorldView {
        &self.world
    }

    /// Registers a streaming group of `group_size` users and returns its id.
    ///
    /// The session consumes [`EpochUpdate`]s pushed via [`submit`](MonitoringEngine::submit);
    /// without a [`MonitorConfig`] timestamp cap it has an open horizon and monitors until
    /// deregistered.
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
    /// own `t = 0`); their registration message is counted on the next tick that feeds them.
    pub fn register_session(&mut self, session: GroupSession) -> GroupId {
        let id = self.free_ids.pop().unwrap_or_else(|| {
            self.slab.push(None);
            self.slab.len() - 1
        });
        if session.is_finished() {
            self.finished += 1;
        } else if session.pending_epochs() > 0 {
            self.ready.push(id);
        }
        self.slab[id] = Some(session);
        id
    }

    /// Removes a group from monitoring, reclaiming its session state.
    ///
    /// The session is dropped (the cached §5.4 GNN buffer, the last answer, any queued epochs
    /// and undrained events along with the heading predictors) and its accumulated metrics
    /// are returned.  They also stay part of [`fleet_metrics`](MonitoringEngine::fleet_metrics)
    /// — a server's totals do not shrink when a group leaves — but no longer per id: a
    /// caller that wants a departed group's own numbers keeps the returned record.  The id
    /// counts into [`retired_count`](MonitoringEngine::retired_count) until it is reused.
    ///
    /// Returns `None` for an unknown or already-deregistered id (deregistration is
    /// idempotent).
    pub fn deregister(&mut self, id: GroupId) -> Option<MonitoringMetrics> {
        let session = self.slab.get_mut(id)?.take()?;
        self.free_ids.push(id);
        if session.is_finished() {
            self.finished -= 1;
        } else if session.pending_epochs() > 0 {
            let at = self.ready.iter().position(|&r| r == id).expect("a fed group is ready");
            self.ready.swap_remove(at);
        }
        // Undrained events leave with the session: nobody owns the group any more, and the
        // id may be handed to a new one before the next drain.
        if !self.events.is_empty() {
            self.events.retain(|(group, _)| *group != id);
        }
        let metrics = session.into_metrics();
        self.departed.group_size += metrics.group_size;
        self.departed.absorb(&metrics);
        Some(metrics)
    }

    /// Queues one epoch of owned positions for a streaming group; the batch is consumed by
    /// the next [`tick`](MonitoringEngine::tick) (batches queue FIFO, one per tick).
    ///
    /// # Errors
    /// Rejects updates for unknown / deregistered ids, batches whose size does not match the
    /// group, and epochs beyond a bounded horizon (consumed plus queued epochs already reach
    /// it, so the batch would sit in the inbox forever, unconsumed) — all without touching
    /// any session state, so a network front-end maps these to protocol-level error
    /// notifications instead of crashing the server.
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
        if session.horizon_is_covered() {
            return Err(SubmitError::Finished(group_id));
        }
        if session.pending_epochs() == 0 {
            self.ready.push(group_id);
        }
        session.submit(positions);
        Ok(())
    }

    /// Takes the event sink: the protocol events of every session registered
    /// [`with_events`](GroupSession::with_events) since the last call, tagged with the group
    /// id, in ascending group id order — whatever the worker count or executor — and, within
    /// one session, in the order they were sent.
    ///
    /// Sessions without events contribute nothing; the
    /// [`ServerCore`](crate::server::ServerCore) turns these into wire responses after each
    /// tick.  The sink's capacity goes with it — a burst of first regions does not stay
    /// resident — and a tick that sends nothing allocates nothing.
    pub fn drain_events(&mut self) -> Vec<(GroupId, SessionEvent)> {
        if std::mem::take(&mut self.events_interleaved) {
            // Stable: a session's forced recompute stays ahead of its later advance.
            self.events.sort_by_key(|(group, _)| *group);
        }
        std::mem::take(&mut self.events)
    }

    /// Applies one POI world change and recomputes exactly the sessions it can break.
    ///
    /// The change is written into the engine's [`WorldView`] overlay first (bumping the
    /// world generation), then an invalidation pass runs over the slab, cut over the workers
    /// like a tick: every registered session evaluates
    /// the break predicate ([`GroupSession::world_change_invalidates`] — a deleted POI that
    /// participates in the answer or the cached §5.4 buffer, or an inserted POI whose
    /// best-case aggregate undercuts the optimum's worst case over the regions) and the
    /// affected sessions are force-recomputed against the new world, re-notifying their
    /// users through the normal metrics / traffic / [`SessionEvent`] path.  Unaffected
    /// sessions are untouched — their safe regions remain provably valid, so they recompute
    /// nothing.
    ///
    /// A delete of an unknown (or already-deleted) id is rejected gracefully: the summary
    /// reports `applied == false` and no session is examined.  After the pass the overlay is
    /// compacted back into the base index when it has outgrown its threshold (content and
    /// generation are preserved, so cached buffers stay valid).
    pub fn apply_world_change(&mut self, change: WorldChange) -> InvalidationSummary {
        let poi = match change {
            WorldChange::PoiInsert { location } => Some(self.world.insert(location)),
            WorldChange::PoiDelete { poi } => self.world.delete(poi).map(|_| poi),
        };
        if poi.is_none() {
            return InvalidationSummary {
                applied: false,
                poi: None,
                generation: self.world.generation(),
                groups_checked: 0,
                invalidated: 0,
                affected: Vec::new(),
                compacted: false,
            };
        }
        assert!(!self.world.is_empty(), "a POI delete may not empty the monitored world");

        self.events_interleaved |= !self.events.is_empty();
        let view = match self.cache.as_deref() {
            Some(cache) => self.world.view().with_cache(cache),
            None => self.world.view(),
        };
        let mut groups_checked = 0;
        let mut affected = Vec::new();
        for_each_chunk(
            self.pool.as_mut(),
            self.executor,
            &mut self.slab,
            &mut self.events,
            |first, slab, events| invalidate_chunk(first, slab, view, &change, events),
            |(checked, ids)| {
                groups_checked += checked;
                affected.extend(ids);
            },
        );
        let generation = self.world.generation();
        let compacted = self.world.maybe_compact();
        InvalidationSummary {
            applied: true,
            poi,
            generation,
            groups_checked,
            invalidated: affected.len(),
            affected,
            compacted,
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

    /// Number of threads a tick's chunks are spread over (1 = inline on the caller).
    #[must_use]
    pub fn worker_count(&self) -> usize {
        self.pool.as_ref().map_or(1, WorkerPool::worker_count)
    }

    /// How a tick's slab is cut into pool jobs.
    #[must_use]
    pub fn executor(&self) -> TickExecutor {
        self.executor
    }

    /// Number of ticks executed so far.
    #[must_use]
    pub fn clock(&self) -> usize {
        self.clock
    }

    /// Whether every registered session has consumed its whole bounded horizon.  A fleet
    /// holding any open-horizon streaming session is never finished.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.finished == self.group_count()
    }

    /// One coherent snapshot of the whole engine: clock, membership accounting, executor
    /// totals, query-cache counters and the merged fleet metrics — see [`EngineReport`] for
    /// what each field measures.
    ///
    /// Cost is O(fleet) — snapshot at phase boundaries, not per tick.
    #[must_use]
    pub fn report(&self) -> EngineReport {
        EngineReport {
            ticks: self.clock,
            groups: self.group_count(),
            retired: self.retired_count(),
            exec: self.exec_totals,
            cache: self.cache.as_deref().map(QueryCache::stats),
            fleet: self.fleet_metrics(),
        }
    }

    /// Advances every ready session — registered, unfinished, with a submitted epoch waiting
    /// — one epoch, in ascending id order; every other session is untouched.
    ///
    /// A one-worker engine ticks fully inline.  With more workers the slab is cut into
    /// contiguous chunks of ids — one per worker under [`TickExecutor::WorkerPool`], `batch`
    /// slots each under [`TickExecutor::WorkStealing`] — all but the last pushed onto the
    /// pool, the last run on the calling thread.  Counters and events are deterministic:
    /// groups are independent and every chunk's events are concatenated in id order, so the
    /// summary, all per-group metrics and [`drain_events`](MonitoringEngine::drain_events)
    /// are identical to a serial replay regardless of worker count and executor.
    pub fn tick(&mut self) -> TickSummary {
        self.events_interleaved |= !self.events.is_empty();
        let cache_before = self.cache.as_deref().map(QueryCache::stats);
        let view = match self.cache.as_deref() {
            Some(cache) => self.world.view().with_cache(cache),
            None => self.world.view(),
        };
        // Sorting in place and the inline one-worker pass allocate nothing: together with
        // the per-worker query scratch, a steady-state tick allocates nothing at all
        // (`tests/alloc_gates.rs` pins this).
        self.ready.sort_unstable();
        let ready = &self.ready;
        let mut summary = TickSummary::default();
        summary.exec = for_each_chunk(
            self.pool.as_mut(),
            self.executor,
            &mut self.slab,
            &mut self.events,
            |first, slab, events| advance_chunk(first, slab, ready, view, events),
            |tally| merge_counts(&mut summary, &tally),
        );
        summary.starved = self.group_count() - self.finished - summary.advanced;
        self.finished += summary.finished;
        summary.finished = self.finished;
        let slab = &self.slab;
        self.ready.retain(|&id| {
            slab[id].as_ref().is_some_and(|s| !s.is_finished() && s.pending_epochs() > 0)
        });
        if let (Some(before), Some(cache)) = (cache_before, self.cache.as_deref()) {
            let delta = cache.stats().since(&before);
            summary.exec.cache_hits = delta.hits;
            summary.exec.cache_misses = delta.misses;
        }
        self.exec_totals.absorb(&summary.exec);
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

    /// The metrics one registered group has accumulated so far.
    ///
    /// # Panics
    /// Panics on an unknown or deregistered id (a departed group's record is what
    /// [`deregister`](MonitoringEngine::deregister) returned).
    #[must_use]
    pub fn group_metrics(&self, id: GroupId) -> &MonitoringMetrics {
        self.group(id).metrics()
    }

    /// Fleet-wide metrics: every group's counters merged into one record, **including**
    /// those of deregistered groups (a long-lived server's totals must not shrink when a
    /// group leaves or its id is recycled).
    ///
    /// `group_size` is the total number of monitored users over the fleet's lifetime (each
    /// epoch of a churning group counts its users once).
    #[must_use]
    pub fn fleet_metrics(&self) -> MonitoringMetrics {
        let users = self.sessions().map(GroupSession::group_size).sum::<usize>();
        let mut fleet = MonitoringMetrics::new(users + self.departed.group_size);
        for session in self.sessions() {
            fleet.absorb(session.metrics());
        }
        fleet.absorb(&self.departed);
        fleet
    }

    /// Consumes the engine, returning the metrics of every registered group in ascending id
    /// order (without churn: one record per group, in registration order).
    #[must_use]
    pub fn into_group_metrics(mut self) -> Vec<MonitoringMetrics> {
        // `mem::take` instead of destructuring: the engine implements `Drop` (worker-pool
        // shutdown), so fields cannot be moved out of `self` directly.
        let slab = std::mem::take(&mut self.slab);
        slab.into_iter().flatten().map(GroupSession::into_metrics).collect()
    }

    fn sessions(&self) -> impl Iterator<Item = &GroupSession> {
        self.slab.iter().flatten()
    }
}

impl Drop for MonitoringEngine {
    /// Shuts the worker pool down; in debug builds, asserts every worker joined cleanly (a
    /// hung or panicked worker here means a pool shutdown bug — surface it in tests rather
    /// than leaking threads).
    fn drop(&mut self) {
        if let Some(pool) = &mut self.pool {
            let clean = pool.shutdown();
            debug_assert!(clean, "monitoring engine dropped with unclean pool workers");
            debug_assert!(pool.is_shut_down(), "pool shutdown must join every worker");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::submit_and_tick;
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

    /// Registers `group`'s recording as a stream capped at the recording; the returned feed
    /// is what the test submits from.
    fn replay(
        engine: &mut MonitoringEngine,
        group: &[Trajectory],
        config: MonitorConfig,
    ) -> (GroupId, TrajectoryFeed) {
        let feed = TrajectoryFeed::from_group(group);
        (engine.register_stream(feed.group_size(), feed.capped(config)), feed)
    }

    /// Submits and ticks until every session has consumed its horizon; returns the ticks.
    fn run(engine: &mut MonitoringEngine, replays: &mut Replays) -> usize {
        let mut ticks = 0;
        while !engine.is_finished() {
            submit_and_tick(engine, replays);
            ticks += 1;
        }
        ticks
    }

    #[test]
    fn parallel_ticks_match_serial_replays() {
        let (tree, fleet) = world(6);
        let config = MonitorConfig::new(Objective::Max, Method::tile()).with_max_timestamps(80);

        let serial: Vec<_> = fleet.iter().map(|g| run_monitoring(&tree, g, &config)).collect();

        let mut engine = MonitoringEngine::new(Arc::clone(&tree), 4);
        let mut replays: Replays = fleet.iter().map(|g| replay(&mut engine, g, config)).collect();
        assert_eq!(run(&mut engine, &mut replays), 80, "80-timestamp horizon takes 80 ticks");
        let parallel = engine.into_group_metrics();

        assert_eq!(parallel.len(), serial.len());
        for (p, s) in parallel.iter().zip(&serial) {
            assert_eq!(p.updates, s.updates);
            assert_eq!(p.timestamps, s.timestamps);
            assert_eq!(p.traffic, s.traffic);
            assert_eq!(p.stats, s.stats);
        }
    }

    #[test]
    fn tick_summaries_account_for_every_session() {
        let (tree, fleet) = world(5);
        let config = MonitorConfig::new(Objective::Max, Method::circle()).with_max_timestamps(40);
        let mut engine = MonitoringEngine::new(Arc::clone(&tree), 2);
        let mut replays: Replays = fleet.iter().map(|g| replay(&mut engine, g, config)).collect();
        assert_eq!(engine.group_count(), 5);

        let first = submit_and_tick(&mut engine, &mut replays);
        assert_eq!(first.tick, 0);
        assert_eq!(first.registered, 5, "first tick registers every group");
        assert_eq!(first.advanced, 5);
        assert_eq!(first.starved, 0, "every group reported");

        let second = submit_and_tick(&mut engine, &mut replays);
        assert_eq!(second.tick, 1);
        assert_eq!(second.registered, 0);
        assert_eq!(second.advanced, 5);

        run(&mut engine, &mut replays);
        assert!(engine.is_finished());
        let summary = engine.tick();
        assert_eq!(summary.advanced, 0, "finished sessions do not advance");
        assert_eq!(summary.finished, 5);
        assert_eq!(summary.starved, 0, "finished sessions do not starve");
        assert_eq!(summary.retired, 0);
    }

    #[test]
    fn fleet_metrics_merge_all_groups() {
        let (tree, fleet) = world(3);
        let config = MonitorConfig::new(Objective::Max, Method::circle()).with_max_timestamps(30);
        let mut engine = MonitoringEngine::new(Arc::clone(&tree), 8);
        let mut replays: Replays = fleet.iter().map(|g| replay(&mut engine, g, config)).collect();
        run(&mut engine, &mut replays);
        let fleet_metrics = engine.fleet_metrics();
        assert_eq!(fleet_metrics.group_size, 9, "3 groups of 3 users");
        assert_eq!(fleet_metrics.timestamps, 3 * 29);
        let per_group: usize = (0..3).map(|id| engine.group_metrics(id).updates).sum();
        assert_eq!(fleet_metrics.updates, per_group);
    }

    #[test]
    fn heterogeneous_sessions_coexist() {
        let (tree, fleet) = world(2);
        let mut engine = MonitoringEngine::new(Arc::clone(&tree), 3);
        let circle = MonitorConfig::new(Objective::Max, Method::circle()).with_max_timestamps(20);
        let tile = MonitorConfig::new(Objective::Sum, Method::tile()).with_max_timestamps(50);
        let mut replays =
            vec![replay(&mut engine, &fleet[0], circle), replay(&mut engine, &fleet[1], tile)];
        let (a, b) = (replays[0].0, replays[1].0);
        run(&mut engine, &mut replays);
        assert_eq!(engine.group_metrics(a).timestamps, 19);
        assert_eq!(engine.group_metrics(b).timestamps, 49);
        assert_eq!(engine.group(a).config().method.name(), "Circle");
        assert_eq!(engine.group(b).config().method.name(), "Tile");
    }

    #[test]
    fn late_registration_starts_from_the_groups_own_clock() {
        let (tree, fleet) = world(2);
        let config = MonitorConfig::new(Objective::Max, Method::circle()).with_max_timestamps(25);
        let mut engine = MonitoringEngine::new(Arc::clone(&tree), 2);
        let mut replays: Replays = vec![replay(&mut engine, &fleet[0], config)];
        submit_and_tick(&mut engine, &mut replays);
        submit_and_tick(&mut engine, &mut replays);
        replays.push(replay(&mut engine, &fleet[1], config));
        let summary = submit_and_tick(&mut engine, &mut replays);
        assert_eq!(summary.registered, 1, "the late group registers on its first tick");
        run(&mut engine, &mut replays);
        assert_eq!(engine.group_metrics(replays[1].0).timestamps, 24, "late groups replay fully");
    }

    #[test]
    fn deregistered_groups_keep_their_metrics_and_free_their_ids() {
        let (tree, fleet) = world(4);
        let config = MonitorConfig::new(Objective::Max, Method::circle()).with_max_timestamps(30);
        let mut engine = MonitoringEngine::new(Arc::clone(&tree), 2);
        let mut replays: Replays = fleet.iter().map(|g| replay(&mut engine, g, config)).collect();
        let ids: Vec<_> = replays.iter().map(|(id, _)| *id).collect();
        for _ in 0..10 {
            submit_and_tick(&mut engine, &mut replays);
        }

        let departed = engine.deregister(ids[1]).expect("group 1 is registered");
        replays.remove(1);
        assert_eq!(departed.timestamps, 9, "10 ticks = registration + 9 monitored timestamps");
        assert_eq!(engine.group_count(), 3);
        assert_eq!(engine.retired_count(), 1);
        assert!(engine.deregister(ids[1]).is_none(), "deregistration is idempotent");
        // The departed group's counters keep feeding fleet accounting.
        let live_updates: usize =
            [0, 2, 3].iter().map(|&i| engine.group_metrics(ids[i]).updates).sum();
        let fleet_before_reuse = engine.fleet_metrics();
        assert_eq!(fleet_before_reuse.updates, live_updates + departed.updates);
        assert_eq!(fleet_before_reuse.group_size, 12, "the departed users stay in the total");

        // The freed id is reused by the next registration; fleet totals do not shrink.
        replays.push(replay(&mut engine, &fleet[1], config));
        assert_eq!(replays[3].0, ids[1]);
        assert_eq!(engine.group_count(), 4);
        assert_eq!(engine.retired_count(), 0);
        let fleet_after_reuse = engine.fleet_metrics();
        assert_eq!(fleet_after_reuse.updates, fleet_before_reuse.updates);
        assert_eq!(fleet_after_reuse.group_size, fleet_before_reuse.group_size + 3);

        run(&mut engine, &mut replays);
        let all = engine.into_group_metrics();
        assert_eq!(all.len(), 4);
        assert_eq!(all[ids[1]].timestamps, 29, "the new session replays its full horizon");
    }

    #[test]
    fn rejecting_an_empty_group_leaves_the_bookkeeping_intact() {
        let (tree, fleet) = world(1);
        let config = MonitorConfig::new(Objective::Max, Method::circle()).with_max_timestamps(10);
        let mut engine = MonitoringEngine::new(Arc::clone(&tree), 2);
        let mut replays: Replays = vec![replay(&mut engine, &fleet[0], config)];
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.register_stream(0, config);
        }));
        assert!(panicked.is_err(), "empty groups are rejected");
        assert_eq!(engine.group_count(), 1, "the failed registration left no trace");
        assert_eq!(engine.retired_count(), 0);
        run(&mut engine, &mut replays);
        assert_eq!(engine.into_group_metrics().len(), 1);
    }

    #[test]
    fn submitted_epochs_drive_streaming_sessions_through_ticks() {
        let (tree, fleet) = world(2);
        let config = MonitorConfig::new(Objective::Max, Method::circle()).with_max_timestamps(30);
        let replay = run_monitoring(&tree, &fleet[0], &config);

        let mut engine = MonitoringEngine::new(Arc::clone(&tree), 2);
        let id = engine.register_stream(fleet[0].len(), config);
        assert_eq!(engine.group(id).horizon(), Some(30), "a capped stream is bounded");

        let mut source = TrajectoryFeed::from_group(&fleet[0]);
        for tick in 0..30 {
            let positions = source.next_epoch().expect("the recording covers the horizon");
            engine.submit(EpochUpdate { group_id: id, positions }).expect("live group");
            let summary = engine.tick();
            assert_eq!(summary.advanced, 1);
            assert_eq!(summary.starved, 0);
            assert_eq!(summary.registered, usize::from(tick == 0));
        }
        assert!(engine.is_finished());
        assert_eq!(engine.group_metrics(id).updates, replay.updates);
        assert_eq!(engine.group_metrics(id).traffic, replay.traffic);
        assert_eq!(engine.group_metrics(id).stats, replay.stats);
    }

    #[test]
    fn starved_streams_are_counted_but_do_not_advance() {
        let (tree, fleet) = world(1);
        let config = MonitorConfig::new(Objective::Max, Method::circle());
        let mut engine = MonitoringEngine::new(Arc::clone(&tree), 2);
        let id = engine.register_stream(3, config);
        assert_eq!(engine.group(id).horizon(), None, "an uncapped stream has an open horizon");
        assert!(!engine.is_finished(), "open-horizon fleets are never finished");

        let summary = engine.tick();
        assert_eq!(summary.starved, 1);
        assert_eq!(summary.advanced, 0);
        assert_eq!(summary.finished, 0, "open-horizon sessions never count as finished");

        let positions: Vec<Point> = fleet[0].iter().map(|t| t.at(0)).collect();
        engine.submit(EpochUpdate { group_id: id, positions }).unwrap();
        let summary = engine.tick();
        assert_eq!(summary.registered, 1);
        assert_eq!(summary.starved, 0);
        assert_eq!(engine.group_metrics(id).updates, 1);
    }

    #[test]
    fn submit_rejects_unknown_groups_and_bad_batches() {
        let (tree, fleet) = world(1);
        let config = MonitorConfig::new(Objective::Max, Method::circle());
        let mut engine = MonitoringEngine::new(Arc::clone(&tree), 2);
        let id = engine.register_stream(3, config);

        let bad = engine.submit(EpochUpdate { group_id: 99, positions: vec![Point::ORIGIN; 3] });
        assert_eq!(bad, Err(SubmitError::UnknownGroup(99)));
        let bad = engine.submit(EpochUpdate { group_id: id, positions: vec![Point::ORIGIN] });
        assert_eq!(bad, Err(SubmitError::WrongGroupSize { group_id: id, expected: 3, got: 1 }));

        engine.deregister(id).unwrap();
        let positions: Vec<Point> = fleet[0].iter().map(|t| t.at(0)).collect();
        let bad = engine.submit(EpochUpdate { group_id: id, positions });
        assert_eq!(bad, Err(SubmitError::UnknownGroup(id)), "deregistered ids reject updates");

        // A bounded stream past its horizon rejects further epochs instead of queueing them
        // forever (its inbox would never be drained again).
        let capped = MonitorConfig::new(Objective::Max, Method::circle()).with_max_timestamps(2);
        let done = engine.register_stream(3, capped);
        for _ in 0..2 {
            let positions: Vec<Point> = fleet[0].iter().map(|t| t.at(0)).collect();
            engine.submit(EpochUpdate { group_id: done, positions }).unwrap();
            engine.tick();
        }
        assert!(engine.group(done).is_finished());
        let positions: Vec<Point> = fleet[0].iter().map(|t| t.at(0)).collect();
        let bad = engine.submit(EpochUpdate { group_id: done, positions });
        assert_eq!(bad, Err(SubmitError::Finished(done)));
        assert_eq!(engine.group(done).pending_epochs(), 0, "nothing was queued");
    }

    #[test]
    fn drain_events_tags_session_events_with_group_ids() {
        let (tree, fleet) = world(2);
        let config = MonitorConfig::new(Objective::Max, Method::circle()).with_max_timestamps(20);
        let mut engine = MonitoringEngine::new(Arc::clone(&tree), 2);
        let silent = replay(&mut engine, &fleet[0], config);
        let feed = TrajectoryFeed::from_group(&fleet[1]);
        let logged = engine
            .register_session(GroupSession::streaming(3, feed.capped(config)).with_events(true));
        let mut replays = vec![silent, (logged, feed)];
        submit_and_tick(&mut engine, &mut replays);
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

    #[test]
    fn engine_shutdown_joins_the_pool_workers() {
        let (tree, fleet) = world(4);
        let config = MonitorConfig::new(Objective::Max, Method::circle()).with_max_timestamps(10);
        let mut engine = MonitoringEngine::new(Arc::clone(&tree), 4);
        let mut replays: Replays = fleet.iter().map(|g| replay(&mut engine, g, config)).collect();
        submit_and_tick(&mut engine, &mut replays);
        submit_and_tick(&mut engine, &mut replays);
        // Dropping mid-run must join the parked workers promptly (a hang here shows up as a
        // timeout under `cargo test -- --test-threads=1`); the debug assertions in `Drop`
        // check the workers exited cleanly.
        drop(engine);

        // An engine that never ticked in parallel (one worker: no pool) also drops cleanly.
        let mut serial = MonitoringEngine::new(Arc::clone(&tree), 1);
        let mut replays = vec![replay(&mut serial, &fleet[0], config)];
        run(&mut serial, &mut replays);
        drop(serial);
    }
}
