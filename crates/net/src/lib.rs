//! The network front-end of the meeting-point monitoring server.
//!
//! `mpn-sim`'s [`ServerCore`](mpn_sim::ServerCore) is transport-agnostic: client-tagged
//! requests applied as they arrive, an engine tick, client-tagged responses.  This crate supplies the
//! transport — and nothing but the transport — on top of `std` alone (no external event
//! library; a private readiness layer talks to Linux `epoll` directly).
//!
//! # One transport over one core
//!
//! [`MuxServer`] is one event-loop thread, thousands of non-blocking sockets, one *shared*
//! core.  Readiness events drive per-connection state machines whose incremental
//! [`mpn_proto::FrameReader`]s reassemble frames across arbitrarily fragmented reads; each
//! decoded request from every ready socket is applied by the core at once, one engine tick
//! runs per loop iteration, and each addressed client gets one count-prefixed batch
//! ([`envelope`]) whose count the core announces before the tick; each response is encoded
//! into its outbox as the core's [`process_with`](mpn_sim::ServerCore::process_with) produces
//! it and written out every 64 KiB, so no connection holds a whole burst tick.  The loop only
//! frames what the core produced, so a connection's downlink is **byte-identical** to the
//! in-process `ServerCore` output for the same lock-step request trace (pinned by the
//! workspace test `tests/mux_parity.rs`).
//!
//! # The backpressure contract
//!
//! A multiplexed client that stops draining its downlink is contained in two phases, sized
//! by [`MuxConfig`]:
//!
//! 1. **Pause** — once a connection's outbox exceeds `soft_outbox_limit`, the loop stops
//!    *reading* it (read interest is dropped).  The client can no longer submit work, so its
//!    sessions go quiet and the outbox stops growing from its own traffic; TCP flow control
//!    propagates the stall to the peer.  Reading resumes as soon as the outbox drains back
//!    under the soft limit.
//! 2. **Drop** — a paused connection can still accrue downlink from already-submitted epochs
//!    (inbox backlog).  If the outbox exceeds `hard_outbox_limit` after a flush (a tick is
//!    judged once it ends, however often it wrote), the connection is closed outright and
//!    [`disconnect`](mpn_sim::ServerCore::disconnect)ed from the core:
//!    its owned groups are deregistered and the responses it was still owed dropped.  A slow reader is
//!    never allowed to hold unbounded server memory, and a vanished client never leaks live
//!    sessions.
//!
//! A completely flushed outbox, like a frame reader that decoded all it was fed, keeps at
//! most 64 KiB of capacity: a burst tick does not leave its buffers behind for good.
//!
//! The same disconnect path runs on EOF, on undecodable uplink bytes (framing cannot be
//! resynchronised, so the connection is closed — requests decoded before the bad frame were
//! applied already, and the close then deregisters the groups they registered), and on
//! socket errors.
//!
//! # The push path (server-initiated downlink)
//!
//! Since the mutable world landed, downlink is no longer purely reactive: an admin client's
//! [`Request::Admin`](mpn_proto::Request::Admin) world mutation (a POI insert or delete,
//! gated per client by [`grant_admin`](mpn_sim::ServerCore::grant_admin), reachable on a
//! running [`MuxServer`] via [`core_mut`](MuxServer::core_mut) between poll iterations) can
//! force safe-region recomputations for groups owned by clients that sent **nothing** this
//! tick.  No transport code changed for this: the core tags the resulting responses — a
//! [`Response::WorldUpdate`](mpn_proto::Response::WorldUpdate) announcing the new world
//! generation, then the revised `SafeRegion`s — with the affected owners, and the event
//! loop already envelopes one batch for *every* client with pending responses, idle or not.
//! An idle connection simply receives an unsolicited batch through its outbox, subject to
//! the exact same backpressure contract as solicited downlink (a paused client's pushes
//! accumulate toward its hard limit like any other traffic).  Delivery is pinned end to end
//! by the workspace test `tests/world_mutation.rs`.
//!
//! Per-client ordering guarantee: the owner of an affected group always sees the
//! `WorldUpdate` before the revised regions it announces, because the core sends the
//! announcement during request application and the recomputed regions only with the tick.

#![forbid(unsafe_op_in_unsafe_fn)]
#![deny(unsafe_code)]

mod conn;
pub mod envelope;
pub mod mux;
#[allow(unsafe_code)] // epoll and setsockopt FFI
mod poll;

pub use envelope::{encode_batch, read_batch};
pub use mux::{MuxConfig, MuxServer, MuxStats};
