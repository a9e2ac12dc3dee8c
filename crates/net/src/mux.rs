//! The readiness-driven multiplexed front-end: one event loop, thousands of sockets, one
//! shared [`ServerCore`].
//!
//! [`MuxServer`] owns a non-blocking listener, a slab of `Connection`s keyed by poll
//! `Token`, and the shared core.  One [`poll_once`](MuxServer::poll_once) iteration:
//!
//! 1. waits for readiness (accepts, reads, writes) under the caller's timeout;
//! 2. drains every readable socket through its incremental [`FrameReader`](mpn_proto::FrameReader) state machine,
//!    handing each request to the core, tagged with the connection's [`ClientId`], the
//!    moment it is decoded — the core applies it there, and partial frames simply park in
//!    the per-connection reader;
//! 3. if the core has work (responses to send, or inbox epochs from an earlier burst), runs
//!    **one** engine tick and routes the client-tagged responses back as the tick produces
//!    them: each addressed connection gets one count-prefixed batch ([`crate::envelope`]),
//!    its count announced before the tick, written out every 64 KiB while it is encoded.
//!
//! Closed, malformed and backpressured connections are deregistered from both the poller and
//! the core ([`ServerCore::disconnect`]), so a vanished client never leaks live sessions.
//! See the crate docs for the full backpressure contract.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use mpn_sim::{ClientId, ServerCore};

use crate::conn::{CloseReason, Connection};
use crate::poll::{Interest, PollEvent, Poller, Token};

/// Tuning of the event loop's buffers and limits.
#[derive(Debug, Clone, Copy)]
pub struct MuxConfig {
    /// Outbox level above which a connection stops being read (backpressure, phase 1).
    pub soft_outbox_limit: usize,
    /// Outbox level above which a connection is dropped and deregistered (phase 2).
    pub hard_outbox_limit: usize,
    /// Accepted connections beyond this are closed immediately.
    pub max_connections: usize,
    /// When set, each accepted socket's kernel send buffer is pinned to roughly this many
    /// bytes (`SO_SNDBUF`), which also disables autotuning — at
    /// thousands of connections the multi-megabyte autotuned default dominates server
    /// memory, and an unpinned buffer absorbs a slow reader's downlink long before the
    /// outbox limits can act.
    pub socket_send_buffer: Option<usize>,
}

impl Default for MuxConfig {
    /// 256 KiB soft / 4 MiB hard outbox limits, 16k connections, default kernel buffers.
    fn default() -> Self {
        Self {
            soft_outbox_limit: 256 << 10,
            hard_outbox_limit: 4 << 20,
            max_connections: 16 * 1024,
            socket_send_buffer: None,
        }
    }
}

/// Lifetime counters of one event loop (all monotone).
#[derive(Debug, Clone, Copy, Default)]
pub struct MuxStats {
    /// Connections accepted.
    pub accepted: u64,
    /// Connections the `max_connections` cap refused.
    pub rejected: u64,
    /// Connections closed by peer EOF.
    pub disconnected: u64,
    /// Connections closed over an undecodable uplink stream.
    pub closed_malformed: u64,
    /// Connections dropped by the hard backpressure limit.
    pub closed_backpressure: u64,
    /// Connections closed on I/O errors.
    pub closed_error: u64,
    /// Times a connection entered the read-paused (soft backpressure) state.
    pub paused: u64,
    /// Engine ticks run.
    pub ticks: u64,
    /// Requests decoded and handed to the core.
    pub requests: u64,
    /// Responses encoded and queued.
    pub responses: u64,
    /// Bytes consumed off sockets.
    pub bytes_in: u64,
    /// Bytes written to sockets.
    pub bytes_out: u64,
    /// The largest outbox level any connection reached with a response pushed into it.
    pub outbox_peak: usize,
}

/// The poll token of the listener; connections use `slot + 1`.
const LISTENER: Token = Token(0);

/// Connection slab: slot-addressed storage with free-list reuse, `Token(slot + 1)` keys.
#[derive(Debug, Default)]
struct Slab {
    entries: Vec<Option<Connection>>,
    free: Vec<usize>,
}

impl Slab {
    fn insert(&mut self, conn: Connection) -> Token {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.entries.push(None);
            self.entries.len() - 1
        });
        self.entries[slot] = Some(conn);
        Token(slot + 1)
    }

    fn get_mut(&mut self, token: Token) -> Option<&mut Connection> {
        self.entries.get_mut(token.0.checked_sub(1)?)?.as_mut()
    }

    fn remove(&mut self, token: Token) -> Option<Connection> {
        let slot = token.0.checked_sub(1)?;
        let conn = self.entries.get_mut(slot)?.take()?;
        self.free.push(slot);
        Some(conn)
    }

    fn len(&self) -> usize {
        self.entries.len() - self.free.len()
    }
}

/// A multiplexed monitoring server: many clients, one event-loop thread, one shared engine.
#[derive(Debug)]
pub struct MuxServer {
    poller: Poller,
    listener: TcpListener,
    conns: Slab,
    /// Live client → connection token (client ids are never reused; tokens are).
    clients: HashMap<ClientId, Token>,
    core: ServerCore,
    config: MuxConfig,
    stats: MuxStats,
    next_client: ClientId,
    events: Vec<PollEvent>,
    /// The connections a tick sends a batch to (kept for its capacity).
    addressed: Vec<Token>,
}

impl MuxServer {
    /// Binds a listener and wraps it around the given core.
    ///
    /// # Errors
    /// Propagates bind/poller-creation errors.
    pub fn bind(addr: impl ToSocketAddrs, core: ServerCore, config: MuxConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let mut poller = Poller::new()?;
        poller.register(listener.as_raw_fd(), LISTENER, Interest::READ)?;
        Ok(Self {
            poller,
            listener,
            conns: Slab::default(),
            clients: HashMap::new(),
            core,
            config,
            stats: MuxStats::default(),
            // Connections are numbered from 1 in accept order (see `core_mut`).
            next_client: 1,
            events: Vec::new(),
            addressed: Vec::new(),
        })
    }

    /// The bound listening address.
    ///
    /// # Errors
    /// Propagates the OS error.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared server core (engine telemetry, fleet metrics).
    #[must_use]
    pub fn core(&self) -> &ServerCore {
        &self.core
    }

    /// Mutable access to the shared core, for out-of-band administration between poll
    /// iterations — above all [`grant_admin`](ServerCore::grant_admin): connections are
    /// numbered from 1 in accept order, so a deployment that connects its operator console
    /// first grants client 1 here before serving tenants.
    pub fn core_mut(&mut self) -> &mut ServerCore {
        &mut self.core
    }

    /// Lifetime event-loop counters.
    #[must_use]
    pub fn stats(&self) -> &MuxStats {
        &self.stats
    }

    /// Total downlink bytes buffered in connection outboxes (not yet accepted by the
    /// kernel) — the server-side memory the backpressure limits bound.
    #[must_use]
    pub fn outbox_bytes(&self) -> usize {
        self.conns.entries.iter().flatten().map(Connection::outbox_len).sum()
    }

    /// Runs one event-loop iteration: wait (up to `timeout`), service every ready socket,
    /// then — iff the core has work — run one engine tick and send the responses.
    ///
    /// Returns the number of readiness events serviced (0 = the wait timed out idle).
    ///
    /// # Errors
    /// Propagates unexpected poller/listener errors; per-connection I/O errors close that
    /// connection instead of failing the loop.
    pub fn poll_once(&mut self, timeout: Option<Duration>) -> io::Result<usize> {
        self.events.clear();
        self.poller.wait(&mut self.events, timeout)?;
        let events = std::mem::take(&mut self.events);
        for event in &events {
            if event.token == LISTENER {
                self.accept_ready()?;
            } else {
                self.service(event);
            }
        }
        self.events = events;
        if self.core.has_work() {
            self.tick();
        }
        Ok(self.events.len())
    }

    /// Drives the loop until `stop` is raised, polling at `interval`.
    ///
    /// # Errors
    /// Propagates [`poll_once`](MuxServer::poll_once) errors.
    pub fn run(&mut self, stop: &AtomicBool, interval: Duration) -> io::Result<()> {
        while !stop.load(Ordering::Relaxed) {
            self.poll_once(Some(interval))?;
        }
        Ok(())
    }

    /// Accepts every pending connection (the listener is level-triggered, but draining here
    /// saves wait round-trips under an accept burst).
    fn accept_ready(&mut self) -> io::Result<()> {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if self.conns.len() >= self.config.max_connections {
                        self.stats.rejected += 1;
                        drop(stream);
                        continue;
                    }
                    stream.set_nonblocking(true)?;
                    // Lock-step request/response traffic: never trade latency for Nagle.
                    let _ = stream.set_nodelay(true);
                    if let Some(bytes) = self.config.socket_send_buffer {
                        let _ = crate::poll::set_send_buffer(stream.as_raw_fd(), bytes);
                    }
                    let client = self.next_client;
                    self.next_client += 1;
                    let token = self.conns.insert(Connection::new(stream, client));
                    let conn = self.conns.get_mut(token).expect("just inserted");
                    let fd = conn.stream().as_raw_fd();
                    self.poller.register(fd, token, conn.interest)?;
                    self.clients.insert(client, token);
                    self.stats.accepted += 1;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Transient per-connection accept failures (ECONNABORTED &c) are skipped.
                Err(_) => return Ok(()),
            }
        }
    }

    /// Services one connection's readiness event.
    fn service(&mut self, event: &PollEvent) {
        let Some(conn) = self.conns.get_mut(event.token) else {
            return; // Already closed earlier in this iteration.
        };
        if event.readable || event.closed {
            let (was_paused, client) = (conn.is_paused(), conn.client);
            let (core, requests) = (&mut self.core, &mut self.stats.requests);
            let close = conn.handle_readable(
                self.config.soft_outbox_limit,
                &mut self.stats.bytes_in,
                |request| {
                    *requests += 1;
                    core.enqueue(client, request);
                },
            );
            if conn.is_paused() && !was_paused {
                self.stats.paused += 1;
            }
            if let Some(reason) = close {
                self.close(event.token, reason);
                return;
            }
            if event.closed {
                // Error/hangup without data: read returned WouldBlock but the peer is gone.
                self.close(event.token, CloseReason::Error);
                return;
            }
        }
        if event.writable {
            self.flush_and_sync(event.token);
        } else {
            self.sync_interest(event.token);
        }
    }

    /// Runs one engine tick after the applied requests and routes the responses: one
    /// count-prefixed batch per addressed connection.
    ///
    /// One batch per client this tick: every client with an applied request answers
    /// (possibly count 0 — a quiet epoch), plus any client whose sessions produced events
    /// without a fresh request (burst uplink draining from the inbox).  Each batch opens with
    /// the count [`ServerCore::announce`] gave, then each response is encoded into its
    /// connection's outbox as the core produces it.
    fn tick(&mut self) {
        let (conns, clients) = (&mut self.conns, &self.clients);
        let mut addressed = std::mem::take(&mut self.addressed);
        self.core.announce(|client, responses| {
            let Some(&token) = clients.get(&client) else { return };
            if conns.get_mut(token).is_some_and(|conn| conn.announce(responses)) {
                addressed.push(token);
            }
        });
        for &token in &addressed {
            conns.get_mut(token).expect("an announced connection is open").begin_batch();
        }
        let (stats, soft_limit) = (&mut self.stats, self.config.soft_outbox_limit);
        // Responses come in per-client runs: the connection is looked up once per run.
        let mut run: Option<(ClientId, Option<Token>)> = None;
        self.core.process_with(|client, response| {
            stats.responses += 1;
            if run.is_none_or(|(of, _)| of != client) {
                run = Some((client, clients.get(&client).copied()));
            }
            if let Some(conn) = run.and_then(|(_, token)| conns.get_mut(token?)) {
                let level = conn.push_response(&response, soft_limit, &mut stats.bytes_out);
                stats.outbox_peak = stats.outbox_peak.max(level);
            }
        });
        self.stats.ticks += 1;
        for token in addressed.drain(..) {
            if let Some(conn) = self.conns.get_mut(token) {
                conn.end_batch();
            }
            self.flush_and_sync(token);
        }
        self.addressed = addressed;
    }

    /// Flushes a connection's outbox, then applies the backpressure verdict and re-registers
    /// interest if it changed.
    fn flush_and_sync(&mut self, token: Token) {
        let Some(conn) = self.conns.get_mut(token) else {
            return;
        };
        match conn.flush(self.config.soft_outbox_limit, &mut self.stats.bytes_out) {
            Ok(_drained) => {
                if conn.outbox_len() > self.config.hard_outbox_limit {
                    self.close(token, CloseReason::Backpressure);
                } else {
                    self.sync_interest(token);
                }
            }
            Err(_) => self.close(token, CloseReason::Error),
        }
    }

    /// Re-registers a connection's poll interest when it differs from what is registered.
    fn sync_interest(&mut self, token: Token) {
        let Some(conn) = self.conns.get_mut(token) else {
            return;
        };
        let desired = conn.desired_interest();
        if desired != conn.interest {
            let fd = conn.stream().as_raw_fd();
            if self.poller.reregister(fd, token, desired).is_ok() {
                if let Some(conn) = self.conns.get_mut(token) {
                    conn.interest = desired;
                }
            }
        }
    }

    /// Closes a connection: poller deregistration, slab removal, and core disconnect (owned
    /// groups are deregistered, responses not yet sent dropped).
    fn close(&mut self, token: Token, reason: CloseReason) {
        let Some(conn) = self.conns.remove(token) else {
            return;
        };
        let _ = self.poller.deregister(conn.stream().as_raw_fd());
        self.clients.remove(&conn.client);
        self.core.disconnect(conn.client);
        match reason {
            CloseReason::Disconnected => self.stats.disconnected += 1,
            CloseReason::Malformed => self.stats.closed_malformed += 1,
            CloseReason::Backpressure => self.stats.closed_backpressure += 1,
            CloseReason::Error => self.stats.closed_error += 1,
        }
    }
}
