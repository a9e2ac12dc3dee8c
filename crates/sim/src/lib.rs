//! Stateful client–server monitoring for meeting-point notification.
//!
//! This crate glues the safe-region methods (`mpn-core`), the POI index (`mpn-index`) and the
//! workload generators (`mpn-mobility`) into the monitoring protocol of Fig. 3 and measures
//! what the paper's evaluation measures:
//!
//! * **update frequency** — safe-region recomputations per timestamp,
//! * **running time** — CPU time per safe-region computation,
//! * **communication cost** — TCP packets exchanged between clients and the server.
//!
//! # Architecture: own-and-consume
//!
//! Nothing in the monitoring stack borrows workload data; position input flows *into* the
//! server as owned per-epoch batches, which is what a real deployment looks like.  The stack
//! has three layers:
//!
//! * [`GroupSession`] ([`monitor`]) — the protocol state machine of *one* moving group.  It
//!   owns its configuration (objective and safe-region `Method`), its
//!   [`mpn_core::SessionState`] (last answer; heading predictors and the §5.4 GNN buffer
//!   where the method uses them) and its metrics, and **consumes** one epoch of owned
//!   positions per [`advance`](GroupSession::advance) from its one input path, the batches
//!   queued via [`submit`](GroupSession::submit).  A recording is replayed the same way: a
//!   [`TrajectoryFeed`] (`Arc`-shared recorded trajectories) hands out owned epochs that the
//!   driver submits like any client.  A session without a timestamp cap has an **open
//!   horizon**: it monitors until deregistered.
//! * [`MonitoringEngine`] ([`engine`]) — a churning fleet of sessions in one slab indexed
//!   by group id.  A [`tick`](MonitoringEngine::tick) advances exactly the groups with a
//!   submitted epoch waiting, one epoch each (inline, or sliced per tick over a persistent
//!   worker pool).
//!   The engine owns its POI index as a [`mpn_index::WorldView`] (a shared base R-tree
//!   behind a generation-stamped mutation overlay) and has no lifetime parameters, so it
//!   moves freely into server threads.  Dynamic membership
//!   ([`register_stream`](MonitoringEngine::register_stream) /
//!   [`register_session`](MonitoringEngine::register_session) /
//!   [`deregister`](MonitoringEngine::deregister)) runs over a free-list of group ids (most
//!   recently freed first, else the next unused index); input arrives as [`EpochUpdate`]s
//!   via [`submit`](MonitoringEngine::submit).
//! * [`ServerCore`] ([`server`]) — the `mpn-proto` server core: a queue of client-tagged
//!   wire-shaped `Request`s drained into engine ticks, with the sessions'
//!   [`SessionEvent`]s routed back to the client owning each group (probe requests,
//!   safe-region assignments).  The core is transport-agnostic and multi-tenant.
//!
//! Communication cost follows the §7.1 packet model (packets of 67 doubles).  What a Fig. 3
//! message costs is defined once, in `mpn-proto`; a session charges those costs to its
//! [`Traffic`] tally ([`metrics`]), so the simulated figures and the wire accounting are the
//! same numbers by construction.
//!
//! # The core and its one transport
//!
//! `ServerCore` is the in-process API: decoded `Request` values enqueued under a
//! [`ClientId`] and `process()`ed on the caller's cadence — no transport, no framing; what
//! tests, the benchmark's in-process depth and embedded deployments use.  Its one transport
//! is the readiness-driven event loop `mpn_net::MuxServer`: one thread, thousands of
//! non-blocking sockets, per-connection incremental decode (`mpn_proto::FrameReader`),
//! requests batched into the shared core once per poll iteration, write-buffered responses
//! with backpressure (see `mpn-net`'s crate docs for the backpressure contract: a client
//! that stops draining first stops being read, then is dropped and deregistered).  The
//! transport only frames what the core produced, so its downlink is **byte-identical** to
//! the in-process output for the same request trace (pinned by `tests/mux_parity.rs`).
//!
//! # The mutable world: generations, invalidation, push
//!
//! The POI set is live data.  [`MonitoringEngine::apply_world_change`] applies a
//! [`WorldChange`] (POI insert or delete) to the engine's `WorldView` and returns an
//! [`InvalidationSummary`].  The contract, end to end:
//!
//! * **Generations** — every mutation stamps the world with a fresh, strictly increasing
//!   generation; every computed answer is stamped with the generation it was computed
//!   against (`mpn_core::SessionState::answer_generation`).  Compaction — folding the
//!   overlay into a rebuilt base once it outgrows its threshold — preserves ids and does
//!   *not* bump the generation, because the content is unchanged; §5.4 buffer caches keyed
//!   on the generation therefore survive it.
//! * **Invalidation is precise, not conservative-rebuild**: a delete breaks a group iff the
//!   deleted POI participates in its answer or its §5.4 GNN buffer; an insert breaks it iff
//!   the new POI's best-case aggregate over the group's safe regions undercuts the current
//!   optimum's worst case (`mpn_core::SessionState::{delete_invalidates,
//!   insert_invalidates}`).  Both predicates are *sound*: a group they leave alone still
//!   upholds Definition 3 against the new world (pinned by the workspace property test
//!   `tests/world_mutation.rs`).  Only broken groups are force-recomputed — the pass is
//!   sliced over the workers exactly like a tick — and the summary names exactly those
//!   groups, so callers can account per-group work.
//! * **Push** — [`ServerCore`] maps an applied admin mutation ([`mpn_proto::Request::Admin`],
//!   gated per client by [`ServerCore::grant_admin`]) to unsolicited downlink for each
//!   affected group's owner: a [`mpn_proto::Response::WorldUpdate`] announcing the new
//!   generation, followed by the force-recomputed `SafeRegion`s, even if that client sent
//!   nothing this tick.  The network front-ends deliver these through their ordinary batch
//!   machinery (see `mpn-net`'s crate docs for the idle-connection delivery and ordering
//!   guarantees).
//!
//! # Shared caches and when they help
//!
//! Ticks can route every index query through a fleet-wide, lock-striped
//! [`mpn_index::QueryCache`] attached via [`MonitoringEngine::with_query_cache`] (or
//! [`ServerCore::with_engine`] for the server paths).  The cache is keyed by
//! *(query kind, quantized query geometry, k, world generation)* and replays candidate lists
//! **and** their [`mpn_index::QueryStats`] verbatim, so counters stay bit-identical with or
//! without it — only repeated R-tree / GNN traversal work is saved.  The generation in the
//! key makes invalidation free: after [`MonitoringEngine::apply_world_change`] bumps the
//! generation, every older entry is simply never looked up again (and is eventually evicted
//! by capacity), with no flush pass and no cross-tick bookkeeping.
//!
//! When does it help?  Exactly when distinct sessions ask *bit-identical* questions within
//! one generation: flash-crowd fleets (many groups converging on the same venue share GNN
//! candidate lists), replicated monitors (several subscribers watching the same group), or
//! dense fleets whose groups quantize onto the same grid cell.  It does **not** help a fleet
//! of geometrically unique groups — every lookup is a miss plus an insert — which is why the
//! cache is opt-in rather than default.  Hit/miss deltas per tick are reported on
//! [`TickSummary::exec`] ([`TickExecCounters`]) and as engine-lifetime totals on
//! [`MonitoringEngine::exec_totals`], so a deployment can measure its own hit rate and drop
//! the cache when it pays for nothing.
//!
//! The same `exec` counters expose how a tick was scheduled.  A one-worker engine advances
//! the slab inline; with more workers the same slab is cut into contiguous chunks of ids
//! that run on the persistent worker pool, the last of them on the calling thread.
//! [`TickExecutor`] only picks the chunk length — one chunk per worker
//! ([`TickExecutor::WorkerPool`], the default) or stealable session *batches*
//! ([`TickExecutor::WorkStealing`]), so idle workers finish a straggling run of expensive
//! groups (`steals`, `imbalance`).  Like the cache, the schedule changes no protocol counter
//! and no event — each stays identical to the serial replay.
//!
//! # Memory layout of the tick hot path
//!
//! At fleet scale most groups are quiet most of the time, so what a tick costs is set by
//! how many sessions it touches.  Four layout decisions keep that number at the sessions
//! that reported (pinned counter-bit-identical by `tests/engine_parity.rs`'s
//! walk-everything oracle):
//!
//! * **A ready list, not a scan** — the engine keeps one plain `Vec` of the group ids with a
//!   submitted epoch waiting ([`submit`](MonitoringEngine::submit) pushes an id when its
//!   queue goes from empty to one) and a tick sorts it in place and advances exactly those
//!   sessions, in ascending id; nothing walks the fleet.  The finished tally is a counter
//!   kept at the advance that finishes a session and at deregistration, and the starved
//!   tally follows from it (registered − finished − advanced).  A group's id is its slot
//!   and never moves, so lookups need no directory.
//! * **A session holds what its method needs** — always: the configuration, the metrics,
//!   the last answer and one flat buffer of positions (the epoch being monitored, then the
//!   submitted ones, consumed in place).  Heading predictors exist once a method that reads
//!   headings has observed a position (never for Circle); the §5.4 buffer is a boxed slot
//!   that only Tile-D-b with persistent buffers fills; a tile region inside `SafeRegion` is
//!   boxed.  A Circle/MAX group of three costs ≈ 700 live heap bytes, slab slot and owner
//!   included (it was 1,269); `tests/alloc_gates.rs` gates it at 720 and prints the table
//!   by owner.
//! * **One event sink per tick** — sessions keep no event log.  What a session created
//!   [`with_events`](GroupSession::with_events) sends is appended, tagged with its group
//!   id, to a buffer the engine owns (one per chunk under the pool, concatenated in
//!   ascending id order) and [`MonitoringEngine::drain_events`] takes that buffer whole.  A
//!   world change's forced recomputes write to the same sink; when passes pile up
//!   undrained, a stable sort restores id order, so a session's push still
//!   precedes its later epoch.  Nothing walks the fleet to collect events, and a tick that
//!   sends nothing allocates nothing.
//! * **Per-worker query scratch arenas** — the index layer stages probe keys and GNN
//!   candidate staging in thread-local [`mpn_index::QueryScratch`] buffers
//!   ([`mpn_index::with_scratch`]) and keeps the GNN frontier per thread beside them, so a
//!   warm-cache query, and one with no cache at all, performs *zero* heap allocations.
//!   Pool workers persist across ticks, so each worker's arenas warm once and are reused
//!   for the engine's lifetime; one-worker engines additionally tick through an
//!   allocation-free inline path (asserted by the counting allocator of the tier-1 test
//!   `tests/alloc_gates.rs`).
//!
//! # Engine-wide snapshots
//!
//! [`MonitoringEngine::report`] returns an [`EngineReport`]: one coherent struct holding
//! the engine clock, membership accounting (registered groups / ids awaiting reuse),
//! lifetime [`TickExecCounters`], the shared query cache's
//! [`CacheStats`](mpn_index::CacheStats) and the merged fleet [`MonitoringMetrics`]
//! (departed groups included).  A measurement tool (the `benchmark/` package's traced run)
//! reads this one snapshot instead of poking four accessors.  Every field is a fixed-size counter
//! — no per-update sample is kept anywhere — so a report costs O(fleet) and a session's
//! metrics never grow.  Reports are cumulative; phase-based tools snapshot at phase
//! boundaries and diff the counters.
//!
//! [`run_monitoring`] replays one recording through one session to its horizon (its
//! counters are pinned bit-identical to the reference loop in `tests/engine_parity.rs`) and
//! [`experiment::run_workload`] replays a whole multi-group workload through a one-worker
//! engine, submitting every group's next recorded epoch before each tick, which is how
//! `mpn-bench`'s `figures` binary reproduces — and checks — every figure of the paper.

#![forbid(unsafe_code)]

pub mod engine;
pub mod experiment;
pub mod metrics;
pub mod monitor;
pub mod server;

pub use engine::{
    EpochUpdate, GroupId, InvalidationSummary, MonitoringEngine, SubmitError, TickExecCounters,
    TickExecutor, TickSummary, WorldChange,
};
pub use experiment::{run_workload, WorkloadSummary};
pub use metrics::{EngineReport, MonitoringMetrics, Traffic};
pub use monitor::{
    run_monitoring, GroupSession, MonitorConfig, SessionEvent, StepOutcome, TrajectoryFeed,
};
pub use server::{monitor_config, ClientId, ProcessOutput, ServerCore};
