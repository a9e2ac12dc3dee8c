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
//!   owns its configuration (objective and safe-region `Method`) and its
//!   [`mpn_core::SessionState`] (last answer; heading predictors where the method uses
//!   them), and **consumes** one epoch of owned
//!   positions per [`advance`](GroupSession::advance) from its one input path, the batches
//!   queued via [`submit`](GroupSession::submit), adding what the epoch measures to the
//!   caller's [`MonitoringMetrics`].  A recording is replayed the same way: a
//!   [`TrajectoryFeed`] (`Arc`-shared recorded trajectories) hands out owned epochs that the
//!   driver submits like any client.  A session monitors until it is deregistered.
//! * [`MonitoringEngine`] ([`engine`]) — a churning fleet of sessions in one slab indexed
//!   by group id.  A [`tick`](MonitoringEngine::tick) advances exactly the groups with a
//!   submitted epoch waiting, one epoch each, on the calling thread.
//!   The engine owns its POI index as a [`mpn_index::WorldView`] (one R-tree per world
//!   state, rebuilt on every POI change) and has no lifetime parameters, so it moves freely
//!   into server threads.  Dynamic membership
//!   ([`register_stream`](MonitoringEngine::register_stream) /
//!   [`register_session`](MonitoringEngine::register_session) /
//!   [`deregister`](MonitoringEngine::deregister)) runs over a free-list of group ids (most
//!   recently freed first, else the next unused index); input arrives as [`EpochUpdate`]s
//!   via [`submit`](MonitoringEngine::submit).
//! * [`ServerCore`] ([`server`]) — the `mpn-proto` server core: client-tagged wire-shaped
//!   `Request`s applied as they arrive, their answers sent with the next engine tick, and the
//!   sessions' [`SessionEvent`]s routed back to the client owning each group (probe requests,
//!   safe-region assignments).  The core is transport-agnostic and multi-tenant.
//!
//! Communication cost follows the §7.1 packet model (packets of 67 doubles).  What a Fig. 3
//! message costs is defined once, in `mpn-proto`; a session charges those costs to the
//! [`Traffic`] tally of the caller's accumulator ([`metrics`]), so the simulated figures and
//! the wire accounting are the same numbers by construction.
//!
//! # The core and its one transport
//!
//! `ServerCore` is the in-process API: decoded `Request` values applied under a
//! [`ClientId`] and answered on the caller's cadence — no transport, no framing; what
//! tests, the benchmark's in-process depth and embedded deployments use.  Its one transport
//! is the readiness-driven event loop `mpn_net::MuxServer`: one thread, thousands of
//! non-blocking sockets, per-connection incremental decode (`mpn_proto::FrameReader`),
//! each request applied by the shared core as it is decoded, one tick per poll iteration,
//! write-buffered responses
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
//! * **One tree per world state** — an applied change edits the tree's entry array (one
//!   push or one `swap_remove`) and bulk loads it again, so every query reads one plain
//!   R-tree.  A change costs one bulk load (≈ 3.6 ms at the paper's 21,287 POIs); that is
//!   the right trade while changes are rare next to queries — the one writer the repository
//!   benchmark knows makes about one change a second.
//! * **Generations** — the rebuilt tree's process-unique stamp is the world's generation,
//!   so every applied change raises it strictly.
//! * **Invalidation is precise, not conservative-rebuild**: a delete breaks a group iff the
//!   deleted POI is its meeting point (a computation's §5.4 buffer dies with it); an insert
//!   breaks it iff the new POI's best-case aggregate over the group's safe regions undercuts
//!   the current optimum's worst case (`mpn_core::SessionState::{delete_invalidates,
//!   insert_invalidates}`).  Both predicates are *sound*: a group they leave alone still
//!   upholds Definition 3 against the new world (pinned by the workspace property test
//!   `tests/world_mutation.rs`).  Only broken groups are force-recomputed, on the calling
//!   thread, and the summary names exactly those groups, so callers can account per-group
//!   work.
//! * **Push** — [`ServerCore`] maps an applied admin mutation ([`mpn_proto::Request::Admin`],
//!   gated per client by [`ServerCore::grant_admin`]) to unsolicited downlink for each
//!   affected group's owner: a [`mpn_proto::Response::WorldUpdate`] announcing the new
//!   generation, followed by the force-recomputed `SafeRegion`s, even if that client sent
//!   nothing this tick.  The network front-ends deliver these through their ordinary batch
//!   machinery (see `mpn-net`'s crate docs for the idle-connection delivery and ordering
//!   guarantees).
//!
//! # One thread by design
//!
//! A tick advances its ready list on the calling thread, and nothing in the crate spawns a
//! thread.  The paper's server (§3, Fig. 3) handles each group's report, probe, recompute
//! and notify on its own, and a tick that fanned batches of its ready list out over scoped
//! threads was measured against this one and deleted, for two reasons:
//!
//! * the served benchmark pins its server process to one CPU, so a second thread there only
//!   shares that CPU;
//! * unpinned, on two shared vCPUs (10 alternating 1-vs-2-worker pairs a workload at seed 1,
//!   20 s each, every count equal), two workers won nowhere.  On `drive_tile_max` the
//!   medians were `setup_s` 0.171 → 0.167 s (lower in 6 of 10 pairs), server CPU per report
//!   622 → 613 µs (4 of 10) and `server_rss_mb` 6.38 → 7.67.  On `walk_circle_max` they were
//!   `setup_s` 0.127 → 0.115 s (6 of 10), server CPU per report 1.69 → 1.95 µs, the median
//!   notify latency 0.224 → 0.302 ms and `server_rss_mb` 20.7 → 24.2 (all worse in 10 of 10).
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
//!   sessions, in ascending id; nothing walks the fleet.  The starved tally needs no walk
//!   either: it is registered − advanced.  A group's id is its slot and never moves, so
//!   lookups need no directory.
//! * **A session holds what its method needs** — always: a handle to its configuration,
//!   the last answer (meeting point, its POI id and the regions) and one flat buffer of
//!   positions (the epoch being monitored, then the submitted ones, consumed in place).
//!   Heading predictors exist once a method that reads headings has observed a position
//!   (never for Circle); a tile region inside `SafeRegion` is boxed.  The slab slot is
//!   120 B (184, 192, 232, and 464 before): the [`MonitorConfig`] (56 B) is an `Arc` that
//!   [`ServerCore`] shares between groups registered alike, what an advance measures (the
//!   §7.1 messages, updates and CPU time, and the computations'
//!   [`ComputeStats`](mpn_core::ComputeStats)) goes to one fleet accumulator in the engine
//!   instead of a record per slot, the group size and epoch clock are not kept twice, and
//!   what never grows (the answer's regions, the predictors) is a boxed slice.  A
//!   Circle/MAX group of three costs ≈ 333 live heap bytes, slab slot and owner included
//!   (396.6, 404.6, 443.6 and 675.6 before, 1,269 at first); `tests/alloc_gates.rs` gates
//!   it and the slot size and prints the table.
//! * **One event stream per tick** — sessions keep no event log.  What a session created
//!   [`with_events`](GroupSession::with_events) sends goes, tagged with its group id, to
//!   the callback of [`MonitoringEngine::tick_with`] as it is sent, merged in ascending id
//!   with the pushes of world changes since the last tick; [`ServerCore`] encodes each one
//!   as it arrives.  A tick that sends nothing allocates nothing.
//! * **Per-thread query buffers** — the index layer keeps the GNN frontier and the
//!   neighbours [`RTree::top2`](mpn_index::RTree::top2) stages in thread-local vectors, so a
//!   query on a warm thread performs *zero* heap allocations.  The engine ticks on the
//!   calling thread, whose buffers warm once and serve the engine's lifetime through an
//!   allocation-free tick (asserted by the counting allocator of the tier-1 test
//!   `tests/alloc_gates.rs`).
//!
//! # Engine-wide snapshots
//!
//! [`MonitoringEngine::report`] returns an [`EngineReport`]: one coherent struct holding
//! the engine clock, membership accounting (registered groups / ids awaiting reuse),
//! the always-zero [`TickExecCounters`] the benchmark still reads and the [`FleetMetrics`]:
//! the [`MonitoringMetrics`] every advance of every group added to (departed groups
//! included), the fleet's work counters among them, and the users it registered.  A
//! measurement tool (the `benchmark/` package's traced run) reads this one snapshot instead
//! of poking four accessors.  Every field is a fixed-size counter, kept as the sessions
//! advance — no per-update sample and no per-group record is kept anywhere — so a report is
//! a copy whose cost does not grow with the fleet.  Reports are cumulative; phase-based
//! tools snapshot at phase boundaries and diff the counters.
//!
//! The paper's §7.1 measures are averages over groups, so a group's own measures are an
//! experiment's business, not the server's: [`run_monitoring`] replays one recording
//! through one session into an accumulator of its own (its counters are pinned
//! bit-identical to the reference loop in `tests/engine_parity.rs`), and
//! [`experiment::run_workload`] replays each group of a workload that way and averages
//! them; both stop when the recordings run out.  That is how `mpn-bench`'s `figures` binary
//! reproduces — and checks — every figure of the paper.

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
pub use metrics::{EngineReport, FleetMetrics, MonitoringMetrics, Traffic};
pub use monitor::{
    run_monitoring, GroupSession, MonitorConfig, SessionEvent, StepOutcome, TrajectoryFeed,
};
pub use server::{monitor_config, ClientId, ProcessOutput, ServerCore};
