//! The multi-group monitoring engine: many owned [`GroupSession`]s, sharded, ticked by a
//! persistent worker pool, with dynamic fleet membership and message-driven position input.
//!
//! A production meeting-point service is a long-lived server: thousands of groups come and go
//! while the POI index stays hot, and the server's cost is dominated by per-update work, not
//! setup.  [`MonitoringEngine`] models exactly that:
//!
//! * **Owned, sharded sessions.**  The engine owns its POI index (an [`Arc<RTree>`] shared
//!   with whoever built it) and every registered [`GroupSession`] owns its state — there is
//!   no borrowed trajectory data and no lifetime tying the engine to a pre-baked workload.
//!   Position input arrives as owned [`EpochUpdate`] batches via
//!   [`submit`](MonitoringEngine::submit) (the streaming path) or from a per-session
//!   [`TrajectoryFeed`] (the replay path); every [`tick`](MonitoringEngine::tick) advances
//!   all live sessions one epoch.  Groups are fully independent, so a parallel tick
//!   produces exactly the counters of the equivalent serial replay, regardless of shard
//!   count or executor.
//! * **Persistent executor.**  A multi-shard engine owns an [`mpn_pool::WorkerPool`]: one
//!   long-lived thread per shard, parked between ticks and woken by the tick barrier
//!   ([`WorkerPool::scoped`](mpn_pool::WorkerPool::scoped)).  A single-shard engine ticks
//!   inline and is the serial reference of the parity suites (`tests/engine_parity.rs`).
//! * **Fleet lifecycle.**  Beyond late [`register`](MonitoringEngine::register)-ation, groups
//!   can [`deregister`](MonitoringEngine::deregister) mid-run (their session state — heading
//!   predictors, §5.4 buffer, last answer — is reclaimed, their metrics are retained for
//!   fleet accounting) and later [`rejoin`](MonitoringEngine::rejoin) under their old id.
//!   Freed ids are kept in a free-list over the shard directory and reused; new groups are
//!   placed on the shard with the least **remaining work** — occupancy weighted by each
//!   session's remaining horizon ([`GroupSession::remaining_horizon`]), with open-horizon
//!   streaming sessions counting as [`OPEN_HORIZON_WEIGHT`] — so a fleet mixing short
//!   replays with long-running streams balances by load, not head-count.
//!
//! Sessions may have different horizons (and even different methods/objectives); a session
//! past its bounded horizon is skipped, and an **open-horizon** streaming session (no
//! [`MonitorConfig`](crate::MonitorConfig) timestamp cap) never finishes — it leaves the
//! fleet via deregistration.  [`run_to_completion`](MonitoringEngine::run_to_completion)
//! ticks until every registered session finished and therefore requires a fleet of bounded,
//! feed-driven sessions.  Per-group / fleet-wide metrics (including those of deregistered
//! groups) are available throughout via [`group_metrics`](MonitoringEngine::group_metrics) /
//! [`fleet_metrics`](MonitoringEngine::fleet_metrics) and per-shard load via
//! [`shard_loads`](MonitoringEngine::shard_loads).

use std::sync::Arc;

use mpn_geom::Point;
use mpn_index::{IndexView, QueryCache, RTree, WorldView};
use mpn_pool::WorkerPool;

use crate::metrics::{EngineReport, MonitoringMetrics, ShardLoad};
use crate::monitor::{
    EventSink, GroupSession, MonitorConfig, SessionEvent, StepOutcome, TrajectoryFeed,
};

/// Identifier of a registered group.
///
/// Ids are dense and handed out in registration order; the id of a
/// [`deregister`](MonitoringEngine::deregister)ed group goes to a free-list and is reused by
/// the next [`register`](MonitoringEngine::register) / [`rejoin`](MonitoringEngine::rejoin),
/// so an id is only unique among the groups alive at one time.
pub type GroupId = usize;

/// Placement weight of an open-horizon streaming session (a session with no timestamp cap,
/// which runs until deregistered).
///
/// Horizon-aware placement sums each shard's *remaining* epochs; an open-ended session has no
/// such bound, so it is charged a large constant — heavier than any realistic bounded replay
/// (≈12 days of 1 Hz epochs), so streams spread across shards before piling onto one.
pub const OPEN_HORIZON_WEIGHT: usize = 1 << 20;

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
    /// The session has consumed its whole bounded horizon: it will never advance again, so
    /// queueing more epochs would only grow its inbox until deregistration.
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
                write!(f, "group {id} has finished its horizon and consumes no more epochs")
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
    /// The ids of the invalidated groups, in shard order.
    pub affected: Vec<GroupId>,
    /// Whether the delta overlay was folded back into the base index afterwards.
    pub compacted: bool,
}

/// How a multi-shard engine slices a tick's live shards into pool jobs (a single-shard
/// engine ticks inline whatever the executor).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TickExecutor {
    /// One monolithic chunk per live shard (the default): the cheapest dispatch, and the
    /// faster choice for large quiet fleets, where small batches cost more in boxed jobs
    /// than stealing wins back.
    #[default]
    WorkerPool,
    /// *Session batches* instead of one chunk per shard: every live shard's sessions are
    /// split into chunks of `batch` and pushed onto the shard's own worker deque; workers
    /// that drain their deque steal batches from stragglers, so one hot shard no longer
    /// bounds the tick (see `mpn-pool`'s module docs for the deque discipline).  Counters
    /// are identical to [`WorkerPool`](TickExecutor::WorkerPool) — only the schedule
    /// changes, surfaced via [`TickSummary::exec`].
    WorkStealing {
        /// Sessions per job (clamped to at least 1).
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
    /// Chunks the tick was sliced into (session batches for
    /// [`TickExecutor::WorkStealing`], whole shards otherwise), including the one the
    /// calling thread ran itself.
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
/// shard counts and cache configurations — and pinned by `tests/engine_parity.rs`, while
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
    /// Live sessions that had no epoch to consume this tick (empty inbox, no or exhausted
    /// feed).  Replay fleets never starve before their horizon; for a streaming fleet this
    /// counts groups whose clients are reporting slower than the server ticks.
    pub starved: usize,
    /// Deregistered groups whose retired metrics are still attributed to their id (an id
    /// reused by `register`/`rejoin` leaves this total; its old epoch then only feeds the
    /// fleet-wide reclaimed-epochs aggregate).
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

/// Placement weight of one session: its remaining bounded horizon, or
/// [`OPEN_HORIZON_WEIGHT`] for an open-horizon stream.
fn session_weight(session: &GroupSession) -> usize {
    session.remaining_horizon().unwrap_or(OPEN_HORIZON_WEIGHT)
}

/// The per-session **hot** state: the few bytes a tick must read to decide whether the
/// session's cold body needs to be touched at all (see the [`Shard`] docs for the split).
///
/// Every field is a mirror of session state that only changes at known points — after an
/// [`advance`](GroupSession::advance) (refreshed on the worker by [`HotEntry::refresh`]),
/// on [`submit`](MonitoringEngine::submit) (`pending`), and on placement / deregistration
/// (`vacant`) — so reading the mirror is always equivalent to asking the session.
#[derive(Debug, Clone, Copy)]
struct HotEntry {
    /// The group occupying this slot (stale while `vacant`).
    id: GroupId,
    /// The slot is free: its session was deregistered and the slot awaits reuse.
    vacant: bool,
    /// Mirror of [`GroupSession::is_finished`]: the whole bounded horizon is consumed.
    finished: bool,
    /// Mirror of [`GroupSession::feed_has_next`]: the replay feed can supply an epoch.
    feed_ready: bool,
    /// Mirror of [`GroupSession::pending_epochs`]: submitted batches waiting in the inbox.
    pending: usize,
    /// Mirror of [`session_weight`]: the session's remaining-work placement weight.
    weight: usize,
}

impl HotEntry {
    fn new(id: GroupId, session: &GroupSession) -> Self {
        let mut entry = HotEntry {
            id,
            vacant: false,
            finished: false,
            feed_ready: false,
            pending: 0,
            weight: 0,
        };
        entry.refresh(session);
        entry
    }

    /// Re-mirrors the session after an advance (the one place its clock, feed cursor and
    /// inbox all change).
    fn refresh(&mut self, session: &GroupSession) {
        self.finished = session.is_finished();
        self.feed_ready = session.feed_has_next();
        self.pending = session.pending_epochs();
        self.weight = session_weight(session);
    }
}

/// Advances one slice of a shard — a whole shard, or one work-stealing batch — one epoch
/// per live session; returns the slice's tick tally and its remaining-work weight.
///
/// This is the unit of parallel work, and the engine's memory hot path: the loop *streams*
/// the dense [`HotEntry`] array and dereferences a session's cold body only when that
/// session actually has an epoch to consume.  The skip tallies are exact mirrors of what a
/// full [`GroupSession::advance`] would have returned:
///
/// * `vacant` — no session, nothing to count;
/// * `finished` — `advance` would return [`StepOutcome::Finished`] (no counters) and the
///   follow-up `is_finished()` check would tally one `finished`; the weight contribution is
///   0 by definition (a finished horizon has no remaining epochs);
/// * `pending == 0 && !feed_ready` — `advance` would pop nothing and return
///   [`StepOutcome::Starved`] without moving the session's clock, so the cached weight is
///   still current.
///
/// Sessions are fully independent, so slicing a shard into batches (and letting idle
/// workers steal them) changes only the schedule, never any counter; and the skip paths
/// above change only which memory is touched, never what is counted
/// (`tests/engine_parity.rs` pins both).
fn advance_chunk(
    hot: &mut [HotEntry],
    cold: &mut [Option<GroupSession>],
    view: IndexView<'_>,
    events: &mut EventSink,
) -> (TickSummary, usize) {
    debug_assert_eq!(hot.len(), cold.len(), "hot and cold chunks must be sliced in lockstep");
    let mut tally = TickSummary::default();
    let mut weight = 0usize;
    for (entry, slot) in hot.iter_mut().zip(cold.iter_mut()) {
        if entry.vacant {
            continue;
        }
        if entry.finished {
            tally.finished += 1;
            continue;
        }
        if entry.pending == 0 && !entry.feed_ready {
            // Active-set scheduling: a session with nothing to consume is tallied as
            // starved without walking its cold body (positions, cached answer).
            tally.starved += 1;
            weight = weight.saturating_add(entry.weight);
            continue;
        }
        let session = slot.as_mut().expect("a non-vacant slot holds a session");
        match session.advance_into(view, entry.id, events) {
            StepOutcome::Finished => {}
            StepOutcome::Starved => tally.starved += 1,
            StepOutcome::Registered => {
                tally.advanced += 1;
                tally.registered += 1;
            }
            StepOutcome::Quiet => tally.advanced += 1,
            StepOutcome::Updated { violators } => {
                tally.advanced += 1;
                tally.updated += 1;
                tally.violators += violators;
            }
        }
        if session.is_finished() {
            tally.finished += 1;
        }
        // The tick is the one place sessions' remaining horizons change, and it already
        // walks every advanced session — refresh the hot mirror for free, on the worker.
        entry.refresh(session);
        weight = weight.saturating_add(entry.weight);
    }
    (tally, weight)
}

/// Folds one tally's protocol counters into an accumulator (the per-tick bookkeeping fields
/// — `tick`, `retired`, `exec` — are filled in by the caller, not summed).
fn merge_counts(acc: &mut TickSummary, t: &TickSummary) {
    acc.advanced += t.advanced;
    acc.updated += t.updated;
    acc.violators += t.violators;
    acc.registered += t.registered;
    acc.finished += t.finished;
    acc.starved += t.starved;
}

/// One shard: a slice of the fleet advanced by a single worker per tick (or, under
/// [`TickExecutor::WorkStealing`], split into stealable session batches).
///
/// # The hot/cold session split
///
/// The shard stores its sessions in two parallel arrays indexed by **slot**:
///
/// * [`hot`](Shard::hot) — a dense `Vec<HotEntry>` of per-tick decision state (a few dozen
///   bytes per session: vacancy, finished/feed flags, waiting epochs, placement weight).  The
///   tick streams this array linearly; sessions with nothing to do are skipped or tallied
///   right here, cache line after cache line, without dereferencing anything.
/// * [`cold`](Shard::cold) — a slot-stable slab of the full [`GroupSession`] bodies
///   (configuration, metrics, last answer, the flat position buffer; what else a body holds
///   depends on its method — see the crate docs).  Only sessions that actually consume an
///   epoch touch their cold body.  A body keeps no event log: the protocol events of an
///   advance go to the tick's sink ([`MonitoringEngine::drain_events`]).
///
/// Slots are **stable**: deregistration marks the hot entry vacant, parks the slot on
/// [`free_slots`](Shard::free_slots) and never moves another session, so directory entries
/// `(shard, slot)` stay valid without the swap-remove fixups of the old single-vec layout
/// — `submit`, `group` lookups and deregistration stay O(1).  `hot.len() == cold.len()`
/// always; a slot is vacant iff its hot entry says so iff its cold option is `None`.
#[derive(Debug, Default)]
struct Shard {
    /// Dense per-slot tick state, streamed by [`advance_chunk`].
    hot: Vec<HotEntry>,
    /// Slot-stable slab of session bodies; `None` marks a vacant (deregistered) slot.
    cold: Vec<Option<GroupSession>>,
    /// Vacant slots available for reuse by the next placement on this shard.
    free_slots: Vec<usize>,
    /// Ticks during which this shard had no live session (no worker was woken for it).
    idle_ticks: usize,
    /// Ticks during which this shard *had* live sessions but advanced none of them — every
    /// live session starved (slow-reporting clients).  Disjoint from
    /// [`idle_ticks`](Shard::idle_ticks): a starved shard still costs a worker wake-up and
    /// still holds remaining work, so placement must not treat it as free capacity.
    starved_ticks: usize,
    /// Cached remaining work (the sum of [`session_weight`] over live sessions), maintained
    /// incrementally: adjusted on placement and deregistration, recomputed by
    /// [`advance_all`](Shard::advance_all) while the tick is already streaming every hot
    /// entry.  Keeping it current at every mutation point makes `register` placement
    /// O(shards) instead of a full O(fleet) re-scan per call.
    weight: usize,
}

impl Shard {
    /// Number of registered sessions (occupied slots).
    fn occupancy(&self) -> usize {
        self.hot.iter().filter(|h| !h.vacant).count()
    }

    /// Whether any registered session still has horizon left — read entirely off the hot
    /// array.
    fn has_live(&self) -> bool {
        self.hot.iter().any(|h| !h.vacant && !h.finished)
    }

    /// Advances every live session one epoch; returns this shard's tick tally (the
    /// single-shard inline path).
    fn advance_all(&mut self, view: IndexView<'_>, events: &mut EventSink) -> TickSummary {
        let (tally, weight) = advance_chunk(&mut self.hot, &mut self.cold, view, events);
        self.weight = weight;
        self.note_tick_outcome(&tally);
        tally
    }

    /// Records the starved-tick counter from a completed tick's tally (the shard was woken,
    /// so it was live; if nothing advanced, every live session starved).
    fn note_tick_outcome(&mut self, tally: &TickSummary) {
        if tally.advanced == 0 && tally.starved > 0 {
            self.starved_ticks += 1;
        }
    }

    /// The invalidation pass of one world change: evaluates the break predicate for every
    /// session and force-recomputes the affected ones against the new view, their revised
    /// regions going to `events`.  Returns `(sessions checked, affected group ids)`.
    ///
    /// A forced recompute consumes no epoch and moves no clock, so the hot mirrors
    /// (pending, feed, finished, weight) stay valid without a refresh.
    fn invalidate_all(
        &mut self,
        view: IndexView<'_>,
        change: &WorldChange,
        events: &mut EventSink,
    ) -> (usize, Vec<GroupId>) {
        let mut affected = Vec::new();
        let mut checked = 0usize;
        for (entry, slot) in self.hot.iter().zip(self.cold.iter_mut()) {
            let Some(session) = slot else { continue };
            checked += 1;
            if session.world_change_invalidates(change)
                && session.force_recompute_into(view, entry.id, events)
            {
                affected.push(entry.id);
            }
        }
        (checked, affected)
    }

    /// Recomputes the remaining work from scratch (the debug cross-check of the cached
    /// [`weight`](Shard::weight) counter).
    #[cfg(debug_assertions)]
    fn recompute_weight(&self) -> usize {
        self.cold.iter().flatten().map(session_weight).fold(0usize, usize::saturating_add)
    }

    /// Slab invariants: the arrays run in lockstep and vacancy agrees between them (debug
    /// cross-check; see the type docs).
    #[cfg(debug_assertions)]
    fn check_slab(&self) {
        debug_assert_eq!(self.hot.len(), self.cold.len(), "hot/cold arrays drifted");
        for (slot, (entry, session)) in self.hot.iter().zip(self.cold.iter()).enumerate() {
            debug_assert_eq!(
                entry.vacant,
                session.is_none(),
                "slot {slot}: hot vacancy disagrees with the cold slab"
            );
        }
        debug_assert!(
            self.free_slots.iter().all(|&slot| self.hot[slot].vacant),
            "free list holds an occupied slot"
        );
    }
}

/// One entry of the shard directory: where a group's session lives, or what it left behind.
#[derive(Debug)]
enum DirectoryEntry {
    /// The group is registered: its cold session body sits at `shards[shard].cold[slot]`
    /// with the matching hot entry at `shards[shard].hot[slot]`.
    Active { shard: usize, slot: usize },
    /// The group deregistered: its session was torn down, these metrics remain for fleet
    /// accounting until the id is reused.
    Retired(Box<MonitoringMetrics>),
}

/// A sharded, stateful server monitoring a churning fleet of moving groups over one POI index.
///
/// Since the owned-session refactor the engine has no lifetime parameters: it shares the POI
/// index via [`Arc`] and every session owns its data, so engines can be moved into server
/// threads, held alongside their workload, and fed from the network.
#[derive(Debug)]
pub struct MonitoringEngine {
    /// The mutable POI world: a shared base R-tree plus the generation-stamped delta overlay
    /// maintained by [`apply_world_change`](MonitoringEngine::apply_world_change).
    world: WorldView,
    shards: Vec<Shard>,
    /// `id -> session location (or retired metrics)`, indexed by [`GroupId`].
    directory: Vec<DirectoryEntry>,
    /// Ids of deregistered groups, available for reuse (every entry is `Retired` in the
    /// directory, and vice versa).
    free_ids: Vec<GroupId>,
    /// Aggregate metrics of past epochs whose ids were reused: folded out of the directory by
    /// `place` so fleet-wide totals never shrink, even though per-id attribution is gone.
    reclaimed: MonitoringMetrics,
    /// The event sink: what sessions registered [`with_events`](GroupSession::with_events)
    /// sent since the last [`drain_events`](MonitoringEngine::drain_events), each pass (a
    /// tick, a world change) appending in shard/slot order.
    events: EventSink,
    /// A pass appended to a sink that already held an earlier pass's events, so the sink as
    /// a whole is no longer in shard/slot order; `drain_events` restores it.
    events_interleaved: bool,
    clock: usize,
    executor: TickExecutor,
    /// Present iff there is more than one shard (a single shard always ticks inline).
    pool: Option<WorkerPool>,
    /// Optional fleet-wide shared query cache, attached to every tick's [`IndexView`] so
    /// near-duplicate groups reuse candidate lists within a generation.
    cache: Option<Arc<QueryCache>>,
    /// Executor diagnostics accumulated over every tick so far (batches, steals, cache
    /// traffic) — the lifetime counterpart of the per-tick [`TickSummary::exec`].
    exec_totals: TickExecCounters,
}

impl MonitoringEngine {
    /// Creates an engine over the POI tree with `num_shards` worker shards and the default
    /// one-chunk-per-shard executor.
    ///
    /// Accepts the tree by value or as a pre-shared [`Arc`] (`Arc::clone` a handle to keep
    /// reading the index from outside the engine).  `num_shards` is clamped to at least 1.
    /// One shard means fully serial ticks.
    ///
    /// # Panics
    /// Panics when the POI tree is empty.
    #[must_use]
    pub fn new(tree: impl Into<Arc<RTree>>, num_shards: usize) -> Self {
        Self::with_executor(tree, num_shards, TickExecutor::default())
    }

    /// Creates an engine with an explicit tick executor.
    ///
    /// The engine spawns one persistent worker per shard up front (none for a single shard,
    /// which always ticks inline).
    ///
    /// # Panics
    /// Panics when the POI tree is empty.
    #[must_use]
    pub fn with_executor(
        tree: impl Into<Arc<RTree>>,
        num_shards: usize,
        executor: TickExecutor,
    ) -> Self {
        let world = WorldView::new(tree.into());
        assert!(!world.is_empty(), "monitoring requires a non-empty POI set");
        let num_shards = num_shards.max(1);
        let pool = (num_shards > 1).then(|| WorkerPool::new(num_shards));
        Self {
            world,
            shards: (0..num_shards).map(|_| Shard::default()).collect(),
            directory: Vec::new(),
            free_ids: Vec::new(),
            reclaimed: MonitoringMetrics::new(0),
            events: Vec::new(),
            events_interleaved: false,
            clock: 0,
            executor,
            pool,
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

    /// Registers a replay group for monitoring and returns its id.
    ///
    /// This is the replay path: the feed plays its recorded trajectories back one epoch per
    /// tick (see [`TrajectoryFeed`]), giving the session a bounded horizon.  Shorthand for
    /// [`register_session`](MonitoringEngine::register_session) with a
    /// [`GroupSession::replay`] session.
    ///
    /// # Panics
    /// Panics when the feed's group is empty (checked at feed construction).
    pub fn register(&mut self, feed: TrajectoryFeed, config: MonitorConfig) -> GroupId {
        self.register_session(GroupSession::replay(feed, config))
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
    /// [`register`](MonitoringEngine::register) /
    /// [`register_stream`](MonitoringEngine::register_stream), e.g. for a session with its
    /// events enabled).
    ///
    /// The session is placed on the shard with the least **remaining work** (occupancy
    /// weighted by remaining horizon, lowest index on ties); its id is popped from the
    /// free-list of deregistered ids when one is available (folding that id's retired metrics
    /// record into the reclaimed-epochs aggregate), else freshly allocated.
    ///
    /// Groups registered after ticking has started are self-clocked (they start from their
    /// own `t = 0`); their registration message is counted on the next tick that feeds them.
    pub fn register_session(&mut self, session: GroupSession) -> GroupId {
        let id = self.free_ids.pop().unwrap_or_else(|| {
            // Placeholder entry; `place` overwrites it with the real location.
            self.directory.push(DirectoryEntry::Active { shard: 0, slot: 0 });
            self.directory.len() - 1
        });
        self.place(id, session);
        id
    }

    /// Removes a group from monitoring, reclaiming its session state.
    ///
    /// The session is dropped (the cached §5.4 GNN buffer, the last answer, any queued epochs
    /// and undrained events along with the heading predictors) and its accumulated metrics
    /// are returned.  A copy of those metrics is
    /// retained in the shard directory: counted by
    /// [`retired_count`](MonitoringEngine::retired_count), included in
    /// [`fleet_metrics`](MonitoringEngine::fleet_metrics) and
    /// [`into_group_metrics`](MonitoringEngine::into_group_metrics).  When the id is reused
    /// by [`register`](MonitoringEngine::register) / [`rejoin`](MonitoringEngine::rejoin) the
    /// record loses its per-id slot but keeps feeding the fleet totals through the
    /// reclaimed-epochs aggregate ([`reclaimed_metrics`](MonitoringEngine::reclaimed_metrics)).
    ///
    /// Returns `None` for an unknown or already-deregistered id (deregistration is
    /// idempotent).
    pub fn deregister(&mut self, id: GroupId) -> Option<MonitoringMetrics> {
        let &DirectoryEntry::Active { shard, slot } = self.directory.get(id)? else {
            return None;
        };
        // Slot-stable teardown: the slot is marked vacant and parked for reuse; no other
        // session moves, so no directory entry needs fixing up.
        let session =
            self.shards[shard].cold[slot].take().expect("an active directory entry has a session");
        self.shards[shard].hot[slot].vacant = true;
        self.shards[shard].free_slots.push(slot);
        self.shards[shard].weight =
            self.shards[shard].weight.saturating_sub(session_weight(&session));
        // Undrained events leave with the session: nobody owns the group any more, and the
        // id may be handed to a new one before the next drain.
        if !self.events.is_empty() {
            self.events.retain(|(group, _)| *group != id);
        }
        let metrics = session.into_metrics();
        self.directory[id] = DirectoryEntry::Retired(Box::new(metrics.clone()));
        self.free_ids.push(id);
        Some(metrics)
    }

    /// Re-registers a replay group under the id of a previously deregistered one.
    ///
    /// The new session starts fresh from its own `t = 0` (sessions are self-clocked).  The
    /// id's retired metrics record moves into the reclaimed-epochs aggregate — still part of
    /// [`fleet_metrics`](MonitoringEngine::fleet_metrics), no longer attributed to the id —
    /// so callers who want the previous epoch's numbers per group take them from
    /// [`deregister`](MonitoringEngine::deregister)'s return value.  Placement is
    /// least-remaining-work, like [`register`](MonitoringEngine::register).
    ///
    /// # Panics
    /// Panics when `id` is not currently free (never registered, or still active); the empty
    /// group case panics at feed construction.
    pub fn rejoin(&mut self, id: GroupId, feed: TrajectoryFeed, config: MonitorConfig) -> GroupId {
        self.rejoin_session(id, GroupSession::replay(feed, config))
    }

    /// Re-registers a pre-built session under the id of a previously deregistered group (the
    /// general form of [`rejoin`](MonitoringEngine::rejoin)).
    ///
    /// # Panics
    /// Panics when `id` is not currently free (never registered, or still active).
    pub fn rejoin_session(&mut self, id: GroupId, session: GroupSession) -> GroupId {
        let pos = self
            .free_ids
            .iter()
            .position(|&free| free == id)
            .expect("rejoin requires the id of a deregistered group");
        self.free_ids.swap_remove(pos);
        self.place(id, session);
        id
    }

    /// Queues one epoch of owned positions for a streaming group; the batch is consumed by
    /// the next [`tick`](MonitoringEngine::tick) (batches queue FIFO, one per tick).
    ///
    /// # Errors
    /// Rejects updates for unknown / deregistered ids, batches whose size does not match the
    /// group, and sessions past their bounded horizon (their inbox would otherwise grow
    /// forever, unconsumed) — all without touching any session state, so a network front-end
    /// maps these to protocol-level error notifications instead of crashing the server.
    pub fn submit(&mut self, update: EpochUpdate) -> Result<(), SubmitError> {
        let EpochUpdate { group_id, positions } = update;
        let Some(&DirectoryEntry::Active { shard, slot }) = self.directory.get(group_id) else {
            return Err(SubmitError::UnknownGroup(group_id));
        };
        let session = self.shards[shard].cold[slot]
            .as_mut()
            .expect("an active directory entry has a session");
        if positions.len() != session.group_size() {
            return Err(SubmitError::WrongGroupSize {
                group_id,
                expected: session.group_size(),
                got: positions.len(),
            });
        }
        if session.is_finished() {
            return Err(SubmitError::Finished(group_id));
        }
        session.submit(positions);
        // Keep the hot mirror current: the next tick's active-set walk must see the queued
        // epoch without asking the session.
        self.shards[shard].hot[slot].pending = session.pending_epochs();
        Ok(())
    }

    /// Takes the event sink: the protocol events of every session registered
    /// [`with_events`](GroupSession::with_events) since the last call, tagged with the group
    /// id, in shard then slot order and, within one session, in the order they were sent.
    ///
    /// Sessions without events contribute nothing; the
    /// [`ServerCore`](crate::server::ServerCore) turns these into wire responses after each
    /// tick.  The sink's capacity goes with it — a burst of first regions does not stay
    /// resident — and a tick that sends nothing allocates nothing.
    pub fn drain_events(&mut self) -> Vec<(GroupId, SessionEvent)> {
        if std::mem::take(&mut self.events_interleaved) {
            let directory = &self.directory;
            // Stable: a session's forced recompute stays ahead of its later advance.
            self.events.sort_by_key(|(group, _)| match directory[*group] {
                DirectoryEntry::Active { shard, slot } => (shard, slot),
                DirectoryEntry::Retired(_) => unreachable!("deregister purged its events"),
            });
        }
        std::mem::take(&mut self.events)
    }

    /// Applies one POI world change and recomputes exactly the sessions it can break.
    ///
    /// The change is written into the engine's [`WorldView`] overlay first (bumping the
    /// world generation), then an invalidation pass fans out over the occupied shards on
    /// the worker pool: every registered session evaluates
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
        let change = &change;
        let events = &mut self.events;
        let occupied: Vec<&mut Shard> =
            self.shards.iter_mut().filter(|s| s.occupancy() > 0).collect();
        let results: Vec<(usize, Vec<GroupId>)> = if occupied.len() <= 1 {
            occupied.into_iter().map(|shard| shard.invalidate_all(view, change, events)).collect()
        } else {
            let pool = self.pool.as_mut().expect("a multi-shard engine owns a pool");
            // One buffer per job, concatenated in shard order behind the barrier.
            let mut slots: Vec<_> = occupied.iter().map(|_| (None, Vec::new())).collect();
            pool.scoped(|scope| {
                for (shard, (result, sent)) in occupied.into_iter().zip(slots.iter_mut()) {
                    scope.execute(move || {
                        *result = Some(shard.invalidate_all(view, change, sent));
                    });
                }
            });
            slots
                .into_iter()
                .map(|(result, mut sent)| {
                    events.append(&mut sent);
                    result.expect("the scope barrier ran every job")
                })
                .collect()
        };

        let mut groups_checked = 0;
        let mut affected = Vec::new();
        for (checked, ids) in results {
            groups_checked += checked;
            affected.extend(ids);
        }
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

    /// Inserts a fresh session for `id` on the least-loaded shard, reusing a vacant slot
    /// when that shard has one (so a churning fleet's slabs stay dense instead of growing
    /// without bound).  If the id carries a retired metrics record (it is being reused), the
    /// record is folded into the reclaimed-epochs aggregate so fleet-wide totals never
    /// shrink.
    fn place(&mut self, id: GroupId, session: GroupSession) {
        let shard = self.least_loaded_shard();
        let target = &mut self.shards[shard];
        let entry = HotEntry::new(id, &session);
        target.weight = target.weight.saturating_add(entry.weight);
        let slot = match target.free_slots.pop() {
            Some(slot) => {
                target.hot[slot] = entry;
                target.cold[slot] = Some(session);
                slot
            }
            None => {
                target.hot.push(entry);
                target.cold.push(Some(session));
                target.hot.len() - 1
            }
        };
        #[cfg(debug_assertions)]
        target.check_slab();
        if let DirectoryEntry::Retired(previous) =
            std::mem::replace(&mut self.directory[id], DirectoryEntry::Active { shard, slot })
        {
            self.reclaimed.group_size += previous.group_size;
            self.reclaimed.absorb(&previous);
        }
    }

    /// The shard with the least remaining work — occupancy weighted by remaining horizon,
    /// open-horizon sessions charged [`OPEN_HORIZON_WEIGHT`] (lowest index on ties).
    ///
    /// Reads the incrementally maintained per-shard weight counters, so placement costs
    /// O(shards) per registration regardless of fleet size.
    fn least_loaded_shard(&self) -> usize {
        #[cfg(debug_assertions)]
        for shard in &self.shards {
            debug_assert_eq!(
                shard.weight,
                shard.recompute_weight(),
                "cached shard weight drifted from its sessions"
            );
        }
        self.shards
            .iter()
            .enumerate()
            .min_by_key(|(_, shard)| shard.weight)
            .map(|(i, _)| i)
            .expect("an engine always has at least one shard")
    }

    /// Number of currently registered (active) groups.
    #[must_use]
    pub fn group_count(&self) -> usize {
        self.directory.len() - self.free_ids.len()
    }

    /// Number of deregistered groups whose retired metrics are still held.
    #[must_use]
    pub fn retired_count(&self) -> usize {
        self.free_ids.len()
    }

    /// Number of shards ticked in parallel.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The executor advancing live shards on each tick.
    #[must_use]
    pub fn executor(&self) -> TickExecutor {
        self.executor
    }

    /// Number of ticks executed so far.
    #[must_use]
    pub fn clock(&self) -> usize {
        self.clock
    }

    /// The longest horizon over all registered sessions: `Some(max)` when every session is
    /// bounded (0 for an empty fleet), `None` as soon as any registered session has an open
    /// horizon — the fleet then has no finite completion point.
    #[must_use]
    pub fn horizon(&self) -> Option<usize> {
        self.sessions().try_fold(0usize, |acc, s| s.horizon().map(|h| acc.max(h)))
    }

    /// Whether every registered session has consumed its whole bounded horizon.  A fleet
    /// holding any open-horizon streaming session is never finished.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.sessions().all(GroupSession::is_finished)
    }

    /// One coherent snapshot of the whole engine: clock, membership accounting, executor
    /// totals, query-cache counters, per-shard load and the merged fleet metrics — see
    /// [`EngineReport`] for what each field measures.
    ///
    /// It replaces poking
    /// [`clock`](MonitoringEngine::clock)/[`exec_totals`](MonitoringEngine::exec_totals)/
    /// [`shard_loads`](MonitoringEngine::shard_loads)/[`fleet_metrics`](MonitoringEngine::fleet_metrics)
    /// one by one.  Cost is O(fleet) — snapshot at phase boundaries, not per tick.
    #[must_use]
    pub fn report(&self) -> EngineReport {
        EngineReport {
            ticks: self.clock,
            groups: self.group_count(),
            retired: self.retired_count(),
            reclaimed_users: self.reclaimed.group_size,
            exec: self.exec_totals,
            cache: self.cache.as_deref().map(QueryCache::stats),
            shards: self.shard_loads(),
            fleet: self.fleet_metrics(),
        }
    }

    /// Per-shard occupancy, idle-tick, starved-tick and remaining-work counters, in shard
    /// order.
    #[must_use]
    pub fn shard_loads(&self) -> Vec<ShardLoad> {
        self.shards
            .iter()
            .enumerate()
            .map(|(shard, s)| ShardLoad {
                shard,
                occupancy: s.occupancy(),
                live: s.hot.iter().filter(|h| !h.vacant && !h.finished).count(),
                idle_ticks: s.idle_ticks,
                starved_ticks: s.starved_ticks,
                weight: s.weight,
            })
            .collect()
    }

    /// Advances every live session one epoch.
    ///
    /// There are two execution paths.  A single-shard engine ticks fully inline.  A
    /// multi-shard engine slices its *live* shards into chunks — one per live shard under
    /// [`TickExecutor::WorkerPool`], `batch` sessions each under
    /// [`TickExecutor::WorkStealing`] — pushes all but one onto the owning shard's pool
    /// worker and runs the remaining one on the calling thread, so a tick with a single
    /// chunk wakes no worker at all.  Shards whose sessions have all finished (or that hold
    /// none) are skipped — their [`idle_ticks`](ShardLoad::idle_ticks) counter is bumped
    /// instead.  Counters are deterministic: groups are independent, so the summary and all
    /// per-group metrics are identical to a serial replay regardless of shard count and
    /// executor.
    pub fn tick(&mut self) -> TickSummary {
        self.events_interleaved |= !self.events.is_empty();
        let events = &mut self.events;
        let cache_before = self.cache.as_deref().map(QueryCache::stats);
        let view = match self.cache.as_deref() {
            Some(cache) => self.world.view().with_cache(cache),
            None => self.world.view(),
        };
        let mut exec = TickExecCounters::default();
        let mut already_finished = 0usize;

        // Single-shard engines tick fully inline: no live-shard vector, no tally vector, no
        // executor bookkeeping.  Together with the per-worker query scratch this makes a
        // steady-state warm-cache tick allocate nothing at all (`benches/micro.rs` asserts
        // this under the `bench` feature).
        let mut summary = if self.shards.len() == 1 {
            let shard = &mut self.shards[0];
            if shard.has_live() {
                exec.batches = 1;
                shard.advance_all(view, events)
            } else {
                shard.idle_ticks += 1;
                already_finished += shard.occupancy();
                TickSummary::default()
            }
        } else {
            let mut live: Vec<&mut Shard> = Vec::with_capacity(self.shards.len());
            for shard in &mut self.shards {
                if shard.has_live() {
                    live.push(shard);
                } else {
                    shard.idle_ticks += 1;
                    already_finished += shard.occupancy();
                }
            }
            let batch = match self.executor {
                TickExecutor::WorkerPool => usize::MAX,
                TickExecutor::WorkStealing { batch } => batch.max(1),
            };
            let mut owners: Vec<usize> = Vec::new();
            let mut chunks = Vec::new();
            for (owner, shard) in live.iter_mut().enumerate() {
                let Shard { hot, cold, .. } = &mut **shard;
                for pair in hot.chunks_mut(batch).zip(cold.chunks_mut(batch)) {
                    owners.push(owner);
                    chunks.push(pair);
                }
            }
            exec.batches = chunks.len();
            // Each chunk sends to a buffer of its own; behind the barrier they are
            // concatenated in chunk order, which is shard then slot order.
            let mut outcomes: Vec<_> =
                chunks.iter().map(|_| ((TickSummary::default(), 0usize), Vec::new())).collect();
            let pool = self.pool.as_mut().expect("a multi-shard engine owns a pool");
            let workers = pool.worker_count();
            pool.scoped(|scope| {
                let mut work = owners.iter().zip(chunks).zip(outcomes.iter_mut());
                // The caller would otherwise only wait at the barrier: it takes the last
                // chunk itself and the pool gets the rest, routed to the owning shard's
                // worker and moved elsewhere only by stealing.
                let inline = work.next_back();
                for ((owner, (hot, cold)), (outcome, sent)) in work {
                    scope.execute_on(owner % workers, move || {
                        *outcome = advance_chunk(hot, cold, view, sent);
                    });
                }
                if let Some(((_, (hot, cold)), (outcome, sent))) = inline {
                    *outcome = advance_chunk(hot, cold, view, sent);
                }
            });
            let stats = pool.last_scope_stats();
            exec.steals = stats.steals;
            exec.imbalance = stats.imbalance();
            // Merge the chunk tallies back per shard: the shard's weight is the sum over
            // its chunks, and its starved-tick counter looks at the whole-shard tally.
            let mut merged = vec![(TickSummary::default(), 0usize); live.len()];
            for (owner, ((tally, weight), mut sent)) in owners.into_iter().zip(outcomes) {
                events.append(&mut sent);
                let (acc, total_weight) = &mut merged[owner];
                merge_counts(acc, &tally);
                *total_weight = total_weight.saturating_add(weight);
            }
            let mut fleet = TickSummary::default();
            for ((tally, weight), shard) in merged.into_iter().zip(live) {
                shard.weight = weight;
                shard.note_tick_outcome(&tally);
                merge_counts(&mut fleet, &tally);
            }
            fleet
        };
        if let (Some(before), Some(cache)) = (cache_before, self.cache.as_deref()) {
            let delta = cache.stats().since(&before);
            exec.cache_hits = delta.hits;
            exec.cache_misses = delta.misses;
        }
        summary.exec = exec;
        self.exec_totals.absorb(&summary.exec);
        summary.finished += already_finished;
        summary.retired = self.retired_count();
        summary.tick = self.clock;
        self.clock += 1;
        summary
    }

    /// Ticks until every session has consumed its whole horizon; returns the tick count.
    ///
    /// This is a replay-fleet driver: every session must have a **bounded** horizon (an
    /// open-horizon streaming session never finishes) and epochs to consume on every tick
    /// (a feed, or pre-[`submit`](MonitoringEngine::submit)ted batches covering the
    /// horizon).
    ///
    /// # Panics
    /// Panics when a registered session has an open horizon, or when a tick makes no
    /// progress because every unfinished session starved — both would otherwise loop
    /// forever.
    pub fn run_to_completion(&mut self) -> usize {
        assert!(
            self.horizon().is_some(),
            "run_to_completion requires bounded horizons; open-horizon streaming sessions \
             only leave the fleet via deregister"
        );
        let mut ticks = 0;
        while !self.is_finished() {
            let summary = self.tick();
            ticks += 1;
            assert!(
                summary.advanced > 0 || self.is_finished(),
                "run_to_completion stalled: every unfinished session starved (no feed and no \
                 submitted epochs)"
            );
        }
        ticks
    }

    /// The session of one group.
    ///
    /// # Panics
    /// Panics on an unknown or deregistered id.
    #[must_use]
    pub fn group(&self, id: GroupId) -> &GroupSession {
        match &self.directory[id] {
            DirectoryEntry::Active { shard, slot } => self.shards[*shard].cold[*slot]
                .as_ref()
                .expect("the directory never points at a vacant slot"),
            DirectoryEntry::Retired(_) => panic!("group {id} has been deregistered"),
        }
    }

    /// The metrics of one group accumulated so far — a live group's running counters, or the
    /// retained record of a deregistered one.
    ///
    /// # Panics
    /// Panics on an unknown id.
    #[must_use]
    pub fn group_metrics(&self, id: GroupId) -> &MonitoringMetrics {
        match &self.directory[id] {
            DirectoryEntry::Active { shard, slot } => self.shards[*shard].cold[*slot]
                .as_ref()
                .expect("the directory never points at a vacant slot")
                .metrics(),
            DirectoryEntry::Retired(metrics) => metrics,
        }
    }

    /// Aggregate metrics of past epochs whose ids have been reused by
    /// [`register`](MonitoringEngine::register) / [`rejoin`](MonitoringEngine::rejoin): no
    /// longer attributable to a live id, but still part of the fleet's lifetime totals.
    #[must_use]
    pub fn reclaimed_metrics(&self) -> &MonitoringMetrics {
        &self.reclaimed
    }

    /// Fleet-wide metrics: every group's counters merged into one record, **including** the
    /// retained metrics of deregistered groups and the reclaimed epochs of reused ids (a
    /// long-lived server's totals must not shrink when a group leaves or its id is recycled).
    ///
    /// `group_size` is the total number of monitored users over the fleet's lifetime (each
    /// epoch of a churning group counts its users once).
    #[must_use]
    pub fn fleet_metrics(&self) -> MonitoringMetrics {
        let retired = self.directory.iter().filter_map(|entry| match entry {
            DirectoryEntry::Retired(metrics) => Some(&**metrics),
            DirectoryEntry::Active { .. } => None,
        });
        let users = self.sessions().map(GroupSession::group_size).sum::<usize>()
            + retired.clone().map(|m| m.group_size).sum::<usize>()
            + self.reclaimed.group_size;
        let mut fleet = MonitoringMetrics::new(users);
        for session in self.sessions() {
            fleet.absorb(session.metrics());
        }
        for metrics in retired {
            fleet.absorb(metrics);
        }
        fleet.absorb(&self.reclaimed);
        fleet
    }

    /// Consumes the engine, returning every group's metrics by id (registration order):
    /// live sessions' accumulated counters plus the retained records of deregistered groups.
    /// Earlier epochs of reused ids are not per-id attributable — read them off
    /// [`reclaimed_metrics`](MonitoringEngine::reclaimed_metrics) before consuming the
    /// engine.
    #[must_use]
    pub fn into_group_metrics(mut self) -> Vec<MonitoringMetrics> {
        // `mem::take` instead of destructuring: the engine implements `Drop` (worker-pool
        // shutdown), so fields cannot be moved out of `self` directly.
        let shards = std::mem::take(&mut self.shards);
        let directory = std::mem::take(&mut self.directory);
        let mut by_id: Vec<Option<MonitoringMetrics>> = directory
            .into_iter()
            .map(|entry| match entry {
                DirectoryEntry::Retired(metrics) => Some(*metrics),
                DirectoryEntry::Active { .. } => None,
            })
            .collect();
        for shard in shards {
            for (entry, slot) in shard.hot.into_iter().zip(shard.cold) {
                if let Some(session) = slot {
                    by_id[entry.id] = Some(session.into_metrics());
                }
            }
        }
        by_id
            .into_iter()
            .map(|m| m.expect("every directory entry is either active or retired"))
            .collect()
    }

    fn sessions(&self) -> impl Iterator<Item = &GroupSession> {
        self.shards.iter().flat_map(|shard| shard.cold.iter().filter_map(Option::as_ref))
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
    use crate::monitor::run_monitoring;
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

    fn feed(group: &[Trajectory]) -> TrajectoryFeed {
        TrajectoryFeed::from_group(group)
    }

    #[test]
    fn parallel_ticks_match_serial_replays() {
        let (tree, fleet) = world(6);
        let config = MonitorConfig::new(Objective::Max, Method::tile()).with_max_timestamps(80);

        let serial: Vec<_> = fleet.iter().map(|g| run_monitoring(&tree, g, &config)).collect();

        let mut engine = MonitoringEngine::new(Arc::clone(&tree), 4);
        for group in &fleet {
            engine.register(feed(group), config);
        }
        let ticks = engine.run_to_completion();
        assert_eq!(ticks, 80, "80-timestamp horizon takes 80 ticks");
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
        for group in &fleet {
            engine.register(feed(group), config);
        }
        assert_eq!(engine.group_count(), 5);
        assert_eq!(engine.horizon(), Some(40));

        let first = engine.tick();
        assert_eq!(first.tick, 0);
        assert_eq!(first.registered, 5, "first tick registers every group");
        assert_eq!(first.advanced, 5);
        assert_eq!(first.starved, 0, "replay feeds cover their horizon");

        let second = engine.tick();
        assert_eq!(second.tick, 1);
        assert_eq!(second.registered, 0);
        assert_eq!(second.advanced, 5);

        engine.run_to_completion();
        assert!(engine.is_finished());
        let summary = engine.tick();
        assert_eq!(summary.advanced, 0, "finished sessions do not advance");
        assert_eq!(summary.finished, 5);
        assert_eq!(summary.retired, 0);
    }

    #[test]
    fn fleet_metrics_merge_all_groups() {
        let (tree, fleet) = world(3);
        let config = MonitorConfig::new(Objective::Max, Method::circle()).with_max_timestamps(30);
        let mut engine = MonitoringEngine::new(Arc::clone(&tree), 8);
        for group in &fleet {
            engine.register(feed(group), config);
        }
        engine.run_to_completion();
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
        let a = engine.register(
            feed(&fleet[0]),
            MonitorConfig::new(Objective::Max, Method::circle()).with_max_timestamps(20),
        );
        let b = engine.register(
            feed(&fleet[1]),
            MonitorConfig::new(Objective::Sum, Method::tile()).with_max_timestamps(50),
        );
        engine.run_to_completion();
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
        engine.register(feed(&fleet[0]), config);
        engine.tick();
        engine.tick();
        let late = engine.register(feed(&fleet[1]), config);
        let summary = engine.tick();
        assert_eq!(summary.registered, 1, "the late group registers on its first tick");
        engine.run_to_completion();
        assert_eq!(engine.group_metrics(late).timestamps, 24, "late groups replay fully");
    }

    #[test]
    fn deregistered_groups_keep_their_metrics_and_free_their_ids() {
        let (tree, fleet) = world(4);
        let config = MonitorConfig::new(Objective::Max, Method::circle()).with_max_timestamps(30);
        let mut engine = MonitoringEngine::new(Arc::clone(&tree), 2);
        let ids: Vec<_> = fleet.iter().map(|g| engine.register(feed(g), config)).collect();
        for _ in 0..10 {
            engine.tick();
        }

        let departed = engine.deregister(ids[1]).expect("group 1 is registered");
        assert_eq!(departed.timestamps, 9, "10 ticks = registration + 9 monitored timestamps");
        assert_eq!(engine.group_count(), 3);
        assert_eq!(engine.retired_count(), 1);
        assert!(engine.deregister(ids[1]).is_none(), "deregistration is idempotent");
        // The retained record stays readable and feeds fleet accounting.
        assert_eq!(engine.group_metrics(ids[1]).timestamps, 9);
        assert_eq!(engine.group_metrics(ids[1]).updates, departed.updates);
        assert!(engine.fleet_metrics().group_size >= departed.group_size);
        let fleet_before_reuse = engine.fleet_metrics();

        // The freed id is reused by the next registration; the old epoch moves into the
        // reclaimed aggregate so fleet totals never shrink.
        let reused = engine.register(feed(&fleet[1]), config);
        assert_eq!(reused, ids[1]);
        assert_eq!(engine.group_count(), 4);
        assert_eq!(engine.retired_count(), 0);
        assert_eq!(engine.reclaimed_metrics().updates, departed.updates);
        assert_eq!(engine.reclaimed_metrics().group_size, departed.group_size);
        let fleet_after_reuse = engine.fleet_metrics();
        assert_eq!(fleet_after_reuse.updates, fleet_before_reuse.updates);
        assert_eq!(fleet_after_reuse.group_size, fleet_before_reuse.group_size + 3);

        engine.run_to_completion();
        let all = engine.into_group_metrics();
        assert_eq!(all.len(), 4);
        assert_eq!(all[ids[1]].timestamps, 29, "the rejoined epoch replays its full horizon");
    }

    #[test]
    fn rejecting_an_empty_group_leaves_the_bookkeeping_intact() {
        let (tree, fleet) = world(1);
        let config = MonitorConfig::new(Objective::Max, Method::circle()).with_max_timestamps(10);
        let mut engine = MonitoringEngine::new(Arc::clone(&tree), 2);
        engine.register(feed(&fleet[0]), config);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.register(TrajectoryFeed::from_group(&[]), config);
        }));
        assert!(panicked.is_err(), "empty groups are rejected");
        assert_eq!(engine.group_count(), 1, "the failed registration left no trace");
        assert_eq!(engine.retired_count(), 0);
        engine.run_to_completion();
        assert_eq!(engine.into_group_metrics().len(), 1);
    }

    #[test]
    fn rejoin_requires_a_freed_id_and_restarts_the_group() {
        let (tree, fleet) = world(2);
        let config = MonitorConfig::new(Objective::Max, Method::circle()).with_max_timestamps(20);
        let mut engine = MonitoringEngine::new(Arc::clone(&tree), 2);
        let id = engine.register(feed(&fleet[0]), config);
        for _ in 0..5 {
            engine.tick();
        }
        engine.deregister(id).unwrap();
        let back = engine.rejoin(id, feed(&fleet[0]), config);
        assert_eq!(back, id);
        let summary = engine.tick();
        assert_eq!(summary.registered, 1, "a rejoined group re-registers on its next tick");
        engine.run_to_completion();
        assert_eq!(engine.group_metrics(id).timestamps, 19, "the new epoch starts from t = 0");
    }

    #[test]
    fn registration_fills_the_least_loaded_shard() {
        let (tree, fleet) = world(6);
        let config = MonitorConfig::new(Objective::Max, Method::circle()).with_max_timestamps(10);
        let mut engine = MonitoringEngine::new(Arc::clone(&tree), 3);
        let ids: Vec<_> = fleet.iter().map(|g| engine.register(feed(g), config)).collect();
        let loads = engine.shard_loads();
        assert!(loads.iter().all(|l| l.occupancy == 2), "6 groups spread 2-2-2 over 3 shards");
        assert!(loads.iter().all(|l| l.weight == 20), "2 sessions x 10 remaining epochs");

        // Empty one shard, then register twice: both go to the emptied shard.
        engine.deregister(ids[0]).unwrap();
        engine.deregister(ids[3]).unwrap();
        let loads = engine.shard_loads();
        assert_eq!(loads[0].occupancy, 0, "ids 0 and 3 both lived on shard 0");
        let a = engine.register(feed(&fleet[0]), config);
        let b = engine.register(feed(&fleet[3]), config);
        let loads = engine.shard_loads();
        assert_eq!(loads[0].occupancy, 2, "both replacements fill the emptied shard");
        assert!(a != b);
    }

    #[test]
    fn placement_weights_occupancy_by_remaining_horizon() {
        let (tree, fleet) = world(3);
        let long = MonitorConfig::new(Objective::Max, Method::circle()).with_max_timestamps(100);
        let short = MonitorConfig::new(Objective::Max, Method::circle()).with_max_timestamps(10);
        let mut engine = MonitoringEngine::new(Arc::clone(&tree), 2);
        // One long session lands on shard 0; five short sessions (50 epochs of total work)
        // are still lighter than it, so they all pile onto shard 1 — occupancy-only
        // placement would have alternated.
        engine.register(feed(&fleet[0]), long);
        for _ in 0..5 {
            engine.register(feed(&fleet[1]), short);
        }
        let loads = engine.shard_loads();
        assert_eq!(loads[0].occupancy, 1);
        assert_eq!(loads[1].occupancy, 5);
        assert_eq!(loads[0].weight, 100);
        assert_eq!(loads[1].weight, 50);
        // The sixth short session tips shard 1 to 60 — still the lighter shard.
        engine.register(feed(&fleet[2]), short);
        assert_eq!(engine.shard_loads()[1].occupancy, 6);

        // An open-horizon stream outweighs any bounded replay.
        let mut engine = MonitoringEngine::new(Arc::clone(&tree), 2);
        engine.register_stream(3, MonitorConfig::new(Objective::Max, Method::circle()));
        let loads = engine.shard_loads();
        assert_eq!(loads[0].weight, OPEN_HORIZON_WEIGHT);
        for _ in 0..4 {
            engine.register(feed(&fleet[0]), long);
        }
        let loads = engine.shard_loads();
        assert_eq!(loads[0].occupancy, 1, "bounded sessions avoid the stream's shard");
        assert_eq!(loads[1].occupancy, 4);
    }

    #[test]
    fn idle_shards_are_skipped_and_counted() {
        let (tree, fleet) = world(2);
        let short = MonitorConfig::new(Objective::Max, Method::circle()).with_max_timestamps(5);
        let long = MonitorConfig::new(Objective::Max, Method::circle()).with_max_timestamps(15);
        let mut engine = MonitoringEngine::new(Arc::clone(&tree), 2);
        engine.register(feed(&fleet[0]), short);
        engine.register(feed(&fleet[1]), long);
        engine.run_to_completion();
        let loads = engine.shard_loads();
        assert_eq!(loads[0].idle_ticks, 10, "the short group's shard idles for 10 ticks");
        assert_eq!(loads[1].idle_ticks, 0);
        assert_eq!(loads[0].live, 0);
        assert_eq!(loads[0].weight, 0, "a finished shard has no remaining work");
    }

    #[test]
    fn submitted_epochs_drive_streaming_sessions_through_ticks() {
        let (tree, fleet) = world(2);
        let config = MonitorConfig::new(Objective::Max, Method::circle()).with_max_timestamps(30);
        let replay = run_monitoring(&tree, &fleet[0], &config);

        let mut engine = MonitoringEngine::new(Arc::clone(&tree), 2);
        let id = engine.register_stream(fleet[0].len(), config);
        assert_eq!(engine.horizon(), Some(30), "a capped stream is bounded");

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
        assert_eq!(engine.horizon(), None, "an uncapped stream has an open horizon");
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
    fn run_to_completion_rejects_open_horizons() {
        let (tree, _) = world(1);
        let mut engine = MonitoringEngine::new(Arc::clone(&tree), 2);
        engine.register_stream(3, MonitorConfig::new(Objective::Max, Method::circle()));
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.run_to_completion();
        }));
        assert!(panicked.is_err(), "an open-horizon fleet can never run to completion");
    }

    #[test]
    fn drain_events_tags_session_events_with_group_ids() {
        let (tree, fleet) = world(2);
        let config = MonitorConfig::new(Objective::Max, Method::circle()).with_max_timestamps(20);
        let mut engine = MonitoringEngine::new(Arc::clone(&tree), 2);
        let silent = engine.register(feed(&fleet[0]), config);
        let logged = engine
            .register_session(GroupSession::replay(feed(&fleet[1]), config).with_events(true));
        engine.tick();
        let events = engine.drain_events();
        assert!(events.iter().all(|(id, _)| *id == logged), "only logged sessions emit");
        assert_eq!(
            events.len(),
            engine.group(logged).group_size(),
            "registration assigns every user"
        );
        assert!(events.iter().any(|(_, e)| matches!(e, SessionEvent::Assigned { .. })));
        let _ = silent;
        assert!(engine.drain_events().is_empty(), "draining is destructive");
    }

    #[test]
    fn engine_shutdown_joins_the_pool_workers() {
        let (tree, fleet) = world(4);
        let config = MonitorConfig::new(Objective::Max, Method::circle()).with_max_timestamps(10);
        let mut engine = MonitoringEngine::new(Arc::clone(&tree), 4);
        for group in &fleet {
            engine.register(feed(group), config);
        }
        engine.tick();
        engine.tick();
        // Dropping mid-run must join the parked workers promptly (a hang here shows up as a
        // timeout under `cargo test -- --test-threads=1`); the debug assertions in `Drop`
        // check the workers exited cleanly.
        drop(engine);

        // An engine that never ticked in parallel (single shard: no pool) also drops cleanly.
        let mut serial = MonitoringEngine::new(Arc::clone(&tree), 1);
        serial.register(feed(&fleet[0]), config);
        serial.run_to_completion();
        drop(serial);
    }
}
