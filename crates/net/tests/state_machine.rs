//! Connection state-machine tests for the multiplexed front-end: frame reassembly across
//! fragmented reads, malformed-uplink closes that still apply the requests before the bad
//! frame, both phases of the backpressure contract, mid-session disconnect cleanup, and many
//! connections sharing one loop without crosstalk.
//!
//! Every test drives a real [`MuxServer`] over loopback sockets from a single thread,
//! interleaving `poll_once` with client-side socket work, so the event loop's behaviour is
//! observed end to end without sleeps or cross-thread races.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mpn_index::RTree;
use mpn_mobility::poi::{clustered_pois, PoiConfig};
use mpn_mobility::waypoint::{taxi_trajectory, TaxiConfig};
use mpn_net::{MuxConfig, MuxServer};
use mpn_proto::{
    DecodeError, NotificationKind, Request, Response, WireConfig, WireMethod, WireObjective,
};
use mpn_sim::{ServerCore, TrajectoryFeed};

const DEADLINE: Duration = Duration::from_secs(30);

fn test_core() -> ServerCore {
    let pois = clustered_pois(
        &PoiConfig { count: 400, domain: 2_000.0, clusters: 4, ..PoiConfig::default() },
        11,
    );
    ServerCore::new(Arc::new(RTree::bulk_load(&pois)), 1)
}

fn circle_config() -> WireConfig {
    WireConfig {
        objective: WireObjective::Max,
        method: WireMethod::Circle,
        ..WireConfig::default()
    }
}

fn feed(seed: u64, size: usize, epochs: usize) -> TrajectoryFeed {
    let taxi = TaxiConfig {
        domain: 2_000.0,
        speed_limit: 9.0,
        timestamps: epochs,
        ..TaxiConfig::default()
    };
    TrajectoryFeed::new(
        (0..size).map(|i| taxi_trajectory(&taxi, seed + i as u64)).collect::<Vec<_>>(),
    )
}

/// A non-blocking loopback client that reassembles count-prefixed response batches from raw
/// bytes and queues its own uplink, so tests never issue a blocking call that could deadlock
/// against a backpressured server or consume half a batch.
struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
    pos: usize,
    pending: Vec<u8>,
    sent: usize,
    dead: bool,
}

impl Client {
    fn connect(server: &MuxServer) -> Self {
        let stream = TcpStream::connect(server.local_addr().expect("addr")).expect("connect");
        stream.set_nonblocking(true).expect("nonblocking client");
        stream.set_nodelay(true).expect("nodelay client");
        Self { stream, buf: Vec::new(), pos: 0, pending: Vec::new(), sent: 0, dead: false }
    }

    /// Drains whatever downlink bytes the kernel has for us.
    fn pump_read(&mut self) {
        let mut scratch = [0u8; 4096];
        loop {
            match self.stream.read(&mut scratch) {
                Ok(0) => break,
                Ok(n) => self.buf.extend_from_slice(&scratch[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => panic!("client read failed: {e}"),
            }
        }
    }

    /// Parses one whole batch out of the buffer, or `None` until more bytes arrive.
    fn try_batch(&mut self) -> Option<Vec<Response>> {
        let avail = &self.buf[self.pos..];
        if avail.len() < 4 {
            return None;
        }
        let count = u32::from_le_bytes(avail[..4].try_into().expect("4 bytes")) as usize;
        let mut at = 4;
        let mut responses = Vec::with_capacity(count);
        for _ in 0..count {
            match Response::decode(&avail[at..]) {
                Ok((response, consumed)) => {
                    responses.push(response);
                    at += consumed;
                }
                Err(DecodeError::Incomplete) => return None,
                Err(e) => panic!("undecodable downlink: {e}"),
            }
        }
        self.pos += at;
        Some(responses)
    }

    /// Pumps the event loop until one whole batch arrives.
    fn read_batch(&mut self, server: &mut MuxServer) -> Vec<Response> {
        let deadline = Instant::now() + DEADLINE;
        loop {
            server.poll_once(Some(Duration::from_millis(1))).expect("poll");
            self.flush_uplink();
            self.pump_read();
            if let Some(batch) = self.try_batch() {
                return batch;
            }
            assert!(Instant::now() < deadline, "no batch within the deadline");
        }
    }

    /// Queues uplink bytes without touching the socket (delivery happens in
    /// [`flush_uplink`](Self::flush_uplink)).
    fn enqueue(&mut self, bytes: &[u8]) {
        self.pending.extend_from_slice(bytes);
    }

    /// Writes as much queued uplink as the kernel accepts.  A connection reset (the server
    /// dropped us) marks the client dead instead of panicking — the backpressure tests
    /// expect exactly that.
    fn flush_uplink(&mut self) {
        while self.sent < self.pending.len() && !self.dead {
            match self.stream.write(&self.pending[self.sent..]) {
                Ok(0) => self.dead = true,
                Ok(n) => self.sent += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => self.dead = true,
            }
        }
    }

    /// Queues and immediately delivers uplink; for the lock-step tests whose payloads always
    /// fit the kernel buffers.
    fn send(&mut self, bytes: &[u8]) {
        self.enqueue(bytes);
        self.flush_uplink();
        assert_eq!(self.sent, self.pending.len(), "lock-step uplink fits the socket buffers");
    }
}

/// Connections accepted and not yet closed, for any reason.
fn open_connections(server: &MuxServer) -> usize {
    let s = server.stats();
    let closed = s.disconnected + s.closed_malformed + s.closed_backpressure + s.closed_error;
    usize::try_from(s.accepted - closed).expect("a count of connections")
}

fn pump(server: &mut MuxServer, times: usize) {
    for _ in 0..times {
        server.poll_once(Some(Duration::from_millis(1))).expect("poll");
    }
}

fn registered_id(batch: &[Response]) -> u64 {
    batch
        .iter()
        .find_map(|r| match r {
            Response::Notification { group, kind: NotificationKind::Registered } => Some(*group),
            _ => None,
        })
        .expect("registration ack")
}

#[test]
fn partial_frames_reassemble_across_reads() {
    let mut server =
        MuxServer::bind("127.0.0.1:0", test_core(), MuxConfig::default()).expect("bind");
    let mut client = Client::connect(&server);
    pump(&mut server, 2); // accept

    // Register, one byte at a time, polling between every byte: the FrameReader must park
    // the partial frame across an arbitrary number of reads.
    let mut group = feed(500, 3, 8);
    let register =
        Request::Register { group_size: group.group_size() as u32, config: circle_config() }
            .encoded();
    for &byte in &register {
        client.send(&[byte]);
        pump(&mut server, 1);
    }
    let ack = client.read_batch(&mut server);
    let id = registered_id(&ack);
    assert_eq!(server.stats().requests, 1, "exactly one request decoded from the byte dribble");

    // Report in ragged 3-byte chunks: same reassembly, and the epoch round-trips.
    let positions = group.next_epoch().expect("epoch");
    let report = Request::Report { group: id, positions }.encoded();
    for chunk in report.chunks(3) {
        client.send(chunk);
        pump(&mut server, 1);
    }
    let epoch = client.read_batch(&mut server);
    assert!(
        epoch.iter().any(|r| matches!(r, Response::SafeRegion { .. })),
        "the first epoch assigns initial safe regions"
    );
    assert_eq!(server.stats().requests, 2);

    // Deregister whole; the farewell comes back and the engine is empty again.
    client.send(&Request::Deregister { group: id }.encoded());
    let farewell = client.read_batch(&mut server);
    assert!(farewell
        .contains(&Response::Notification { group: id, kind: NotificationKind::Deregistered }));
    assert_eq!(server.core().engine().group_count(), 0);
}

#[test]
fn malformed_frame_closes_the_connection_but_honours_earlier_requests() {
    let mut server =
        MuxServer::bind("127.0.0.1:0", test_core(), MuxConfig::default()).expect("bind");
    let mut client = Client::connect(&server);
    pump(&mut server, 2);

    // A valid registration followed, in the same write, by garbage that decodes as no
    // request: the register must still be applied, then the connection closed.
    let mut bytes = Request::Register { group_size: 2, config: circle_config() }.encoded();
    bytes.extend_from_slice(&[0xFF; 16]);
    client.send(&bytes);

    let deadline = Instant::now() + DEADLINE;
    while server.stats().closed_malformed == 0 {
        pump(&mut server, 1);
        assert!(Instant::now() < deadline, "malformed close not observed");
    }
    assert_eq!(server.stats().requests, 1, "the valid frame before the garbage was decoded");
    assert_eq!(open_connections(&server), 0);
    // The registration was applied: its group of two counts in the fleet's lifetime users,
    // and the close, which disconnects the client, deregistered it again.
    let engine = server.core().engine();
    assert_eq!(engine.fleet_metrics().group_size, 2, "the registration was applied");
    assert_eq!(engine.retired_count(), 1, "the close deregistered the group");
    assert_eq!(engine.group_count(), 0);
}

#[test]
fn mid_session_disconnect_deregisters_owned_groups() {
    let mut server =
        MuxServer::bind("127.0.0.1:0", test_core(), MuxConfig::default()).expect("bind");
    let mut client = Client::connect(&server);
    pump(&mut server, 2);

    let mut group = feed(900, 2, 8);
    client.send(
        &Request::Register { group_size: group.group_size() as u32, config: circle_config() }
            .encoded(),
    );
    let id = registered_id(&client.read_batch(&mut server));
    for _ in 0..3 {
        let positions = group.next_epoch().expect("epoch");
        client.send(&Request::Report { group: id, positions }.encoded());
        client.read_batch(&mut server);
    }
    assert_eq!(server.core().engine().group_count(), 1);

    // The phone dies mid-session: EOF must deregister the group, not leak the session.
    drop(client.stream);
    let deadline = Instant::now() + DEADLINE;
    while server.stats().disconnected == 0 {
        pump(&mut server, 1);
        assert!(Instant::now() < deadline, "disconnect not observed");
    }
    assert_eq!(open_connections(&server), 0);
    assert_eq!(server.core().engine().group_count(), 0);
    assert_eq!(server.core().backlog(), 0, "inbox epochs of the dead client are reclaimed");
}

/// A ~20-byte `Register` declaring four billion users must cost the hostile connection a
/// `BadRequest` and nothing else: the server neither aborts on the allocation nor stalls the
/// loop, the connection stays open, and another client's session keeps receiving regions.
#[test]
fn an_absurd_group_size_is_refused_without_disturbing_other_sessions() {
    let mut server =
        MuxServer::bind("127.0.0.1:0", test_core(), MuxConfig::default()).expect("bind");
    let mut tenant = Client::connect(&server);
    let mut hostile = Client::connect(&server);
    pump(&mut server, 2);

    let mut group = feed(1_300, 2, 8);
    tenant.send(
        &Request::Register { group_size: group.group_size() as u32, config: circle_config() }
            .encoded(),
    );
    let id = registered_id(&tenant.read_batch(&mut server));
    let positions = group.next_epoch().expect("epoch");
    tenant.send(&Request::Report { group: id, positions }.encoded());
    tenant.read_batch(&mut server);

    hostile.send(&Request::Register { group_size: u32::MAX, config: circle_config() }.encoded());
    assert_eq!(
        hostile.read_batch(&mut server),
        vec![Response::Notification { group: u64::MAX, kind: NotificationKind::BadRequest }]
    );
    assert_eq!(open_connections(&server), 2, "a refused request does not close the connection");
    assert_eq!(server.core().engine().group_count(), 1);

    // The tenant is still served: a jump across the domain leaves her region and is answered.
    let mut positions = group.next_epoch().expect("epoch");
    positions.iter_mut().for_each(|p| p.x += 900.0);
    tenant.send(&Request::Report { group: id, positions }.encoded());
    let answer = tenant.read_batch(&mut server);
    assert!(answer.iter().any(|r| matches!(r, Response::SafeRegion { .. })), "{answer:?}");
}

/// Queues registrations and one report epoch for `groups` two-user groups, without ever
/// reading the downlink — the slow-reader setup both backpressure tests start from.  The
/// uplink is queued, not written: the tests deliver it with `flush_uplink` as the (shrunken)
/// kernel buffers allow.
fn blast(client: &mut Client, groups: u64, positions_seed: u64) {
    let mut group = feed(positions_seed, 2, 8);
    let positions = group.next_epoch().expect("epoch");
    for _ in 0..groups {
        client.enqueue(&Request::Register { group_size: 2, config: circle_config() }.encoded());
    }
    // Group ids are assigned from the fresh engine's free-list in queue order: 0, 1, 2, ...
    for id in 0..groups {
        client.enqueue(&Request::Report { group: id, positions: positions.clone() }.encoded());
    }
}

/// Groups each backpressure test bursts: enough downlink (~350 KiB of acks and initial
/// safe-region assignments) to overwhelm the pinned server send buffer plus the client's
/// ~128 KiB receive window.
const BURST_GROUPS: u64 = 2_500;

#[test]
fn soft_backpressure_pauses_reads_and_resumes_after_drain() {
    let config = MuxConfig {
        soft_outbox_limit: 32 << 10,
        hard_outbox_limit: 64 << 20, // Never reached: this test is about the pause phase.
        socket_send_buffer: Some(4 << 10),
        ..MuxConfig::default()
    };
    let mut server = MuxServer::bind("127.0.0.1:0", test_core(), config).expect("bind");
    let mut client = Client::connect(&server);
    pump(&mut server, 2);

    // A downlink burst the unread client cannot absorb: once the kernel buffers fill the
    // outbox retains bytes far past the soft limit.
    blast(&mut client, BURST_GROUPS, 700);
    let deadline = Instant::now() + DEADLINE;
    while server.stats().paused == 0 && server.outbox_bytes() <= 32 << 10 {
        client.flush_uplink();
        pump(&mut server, 1);
        assert!(Instant::now() < deadline, "outbox never backed up past the soft limit");
    }

    // The next uplink frame meets a backed-up outbox: the loop must pause the connection
    // instead of decoding it.  (If uplink was still in flight when the outbox backed up,
    // the pause has already happened — either way the deregister stays parked.)
    client.enqueue(&Request::Deregister { group: 0 }.encoded());
    let deadline = Instant::now() + DEADLINE;
    while server.stats().paused == 0 {
        client.flush_uplink();
        pump(&mut server, 1);
        assert!(Instant::now() < deadline, "pause not observed");
    }
    assert_eq!(open_connections(&server), 1, "pause is containment, not a close");
    assert!(
        server.stats().requests < 2 * BURST_GROUPS + 1,
        "a paused connection's trailing uplink stays undecoded"
    );

    // While paused and undrained, the decoded-request count must freeze even though uplink
    // keeps arriving in the kernel.
    let frozen = server.stats().requests;
    for _ in 0..20 {
        client.flush_uplink();
        pump(&mut server, 1);
    }
    assert_eq!(server.stats().requests, frozen, "paused means not reading");

    // The client finally drains its downlink: the outbox empties, reading resumes, and the
    // whole parked uplink — through the final deregister — goes through.
    let deadline = Instant::now() + DEADLINE;
    while server.stats().requests < 2 * BURST_GROUPS + 1
        || server.core().engine().group_count() != BURST_GROUPS as usize - 1
    {
        client.flush_uplink();
        client.pump_read();
        pump(&mut server, 1);
        assert!(Instant::now() < deadline, "read interest did not resume");
    }
    assert!(!client.dead, "soft backpressure never drops the connection");
}

#[test]
fn hard_backpressure_drops_the_connection_and_deregisters() {
    let config = MuxConfig {
        soft_outbox_limit: 16 << 10,
        hard_outbox_limit: 64 << 10,
        socket_send_buffer: Some(4 << 10),
        ..MuxConfig::default()
    };
    let mut server = MuxServer::bind("127.0.0.1:0", test_core(), config).expect("bind");
    let mut client = Client::connect(&server);
    pump(&mut server, 2);

    // The same burst, but with a hard limit the unread downlink must cross: the connection
    // is dropped outright and every session it owned is reclaimed.
    blast(&mut client, BURST_GROUPS, 800);
    let deadline = Instant::now() + DEADLINE;
    while server.stats().closed_backpressure == 0 {
        client.flush_uplink();
        pump(&mut server, 1);
        assert!(Instant::now() < deadline, "hard-limit drop not observed");
    }
    assert_eq!(open_connections(&server), 0);
    assert_eq!(server.core().engine().group_count(), 0);
    assert_eq!(server.core().backlog(), 0);
}

/// Pumps the event loop until every client holds one whole batch; returns them in client
/// order.
fn read_batches(clients: &mut [Client], server: &mut MuxServer) -> Vec<Vec<Response>> {
    let deadline = Instant::now() + DEADLINE;
    let mut batches: Vec<Option<Vec<Response>>> = vec![None; clients.len()];
    loop {
        for (client, batch) in clients.iter_mut().zip(&mut batches) {
            if batch.is_none() {
                client.pump_read();
                *batch = client.try_batch();
            }
        }
        if batches.iter().all(Option::is_some) {
            return batches.into_iter().flatten().collect();
        }
        assert!(Instant::now() < deadline, "a client never got its batch");
        pump(server, 1);
    }
}

/// The group a downlink response is about.
fn group_of(response: &Response) -> u64 {
    match response {
        Response::SafeRegion { group, .. }
        | Response::ProbeRequest { group, .. }
        | Response::Notification { group, .. }
        | Response::WorldUpdate { group, .. } => *group,
    }
}

#[test]
fn many_connections_share_one_loop_without_crosstalk() {
    const CONNS: usize = 256;
    const EPOCHS: usize = 5;
    let mut server =
        MuxServer::bind("127.0.0.1:0", test_core(), MuxConfig::default()).expect("bind");
    let mut clients: Vec<Client> = (0..CONNS)
        .map(|_| {
            let client = Client::connect(&server);
            pump(&mut server, 1); // accept as we go: the listen backlog is shorter than CONNS
            client
        })
        .collect();
    let deadline = Instant::now() + DEADLINE;
    while server.stats().accepted < CONNS as u64 {
        pump(&mut server, 1);
        assert!(Instant::now() < deadline, "not every connection was accepted");
    }

    for client in &mut clients {
        client.send(&Request::Register { group_size: 2, config: circle_config() }.encoded());
    }
    let ids: Vec<u64> =
        read_batches(&mut clients, &mut server).iter().map(|ack| registered_id(ack)).collect();
    let mut distinct = ids.clone();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(distinct.len(), CONNS, "every connection owns a group of its own");

    // Lock-step epochs, every group on a course of its own: each request is answered by
    // exactly one batch, and that batch speaks of the reader's group only.
    let mut feeds: Vec<TrajectoryFeed> =
        (0..CONNS).map(|i| feed(3_000 + 10 * i as u64, 2, EPOCHS)).collect();
    let mut responses_read = CONNS; // the registration acks
    for epoch in 0..EPOCHS {
        for ((client, &id), feed) in clients.iter_mut().zip(&ids).zip(&mut feeds) {
            let positions = feed.next_epoch().expect("epoch");
            client.send(&Request::Report { group: id, positions }.encoded());
        }
        for (batch, &id) in read_batches(&mut clients, &mut server).iter().zip(&ids) {
            assert!(
                batch.iter().all(|response| group_of(response) == id),
                "group {id}'s connection read another group's downlink: {batch:?}"
            );
            assert!(epoch > 0 || batch.iter().any(|r| matches!(r, Response::SafeRegion { .. })));
            responses_read += batch.len();
        }
    }
    let stats = *server.stats();
    assert_eq!(stats.accepted, CONNS as u64);
    assert_eq!(stats.requests, (CONNS * (1 + EPOCHS)) as u64);
    assert_eq!(stats.responses, responses_read as u64, "every response reached a client");
    assert_eq!(server.core().engine().group_count(), CONNS);

    // Half the phones die mid-session: exactly their groups are reclaimed.
    clients.truncate(CONNS / 2);
    let deadline = Instant::now() + DEADLINE;
    while server.stats().disconnected < (CONNS / 2) as u64 {
        pump(&mut server, 1);
        assert!(Instant::now() < deadline, "not every disconnect was observed");
    }
    assert_eq!(server.stats().disconnected, (CONNS / 2) as u64);
    assert_eq!(open_connections(&server), CONNS / 2);
    assert_eq!(server.core().engine().group_count(), CONNS / 2);
    for &id in &ids[..CONNS / 2] {
        assert!(server.core().owner(id as usize).is_some(), "a survivor lost group {id}");
    }
}
