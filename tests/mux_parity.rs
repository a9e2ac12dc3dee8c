//! Transport parity: the multiplexed event loop's downlink must be **byte-identical** to the
//! in-process `ServerCore` output for the same lock-step request trace.
//!
//! The transport only frames responses the transport-agnostic core produced (applied in
//! request order, one tick per request, one count-prefixed batch per tick), so any
//! divergence — ordering, routing, extra or missing batches — shows up here as a raw byte
//! mismatch.  A second case does the same for one tick carrying a burst of first reports from
//! two clients and a world change, and pins a hash of the decoded responses and one of the
//! bytes: the order of a tick's downlink is part of the contract, not an accident of how
//! events are collected.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use mpn::geom::Point;
use mpn::index::RTree;
use mpn::mobility::poi::{clustered_pois, PoiConfig};
use mpn::mobility::waypoint::{taxi_trajectory, TaxiConfig};
use mpn::mobility::Trajectory;
use mpn::net::{encode_batch, MuxConfig, MuxServer};
use mpn::proto::{
    AdminRequest, DecodeError, NotificationKind, Request, Response, WireConfig, WireMethod,
    WireObjective,
};
use mpn::sim::{ServerCore, TrajectoryFeed};

const EPOCHS: usize = 40;

fn test_core() -> ServerCore {
    let pois = clustered_pois(
        &PoiConfig { count: 800, domain: 3_000.0, clusters: 5, ..PoiConfig::default() },
        17,
    );
    ServerCore::new(Arc::new(RTree::bulk_load(&pois)), 1)
}

/// The identical uplink trace both sides replay: one group registering, streaming epochs in
/// lock-step, and deregistering.
fn trace() -> (WireConfig, TrajectoryFeed) {
    let config = WireConfig {
        objective: WireObjective::Max,
        method: WireMethod::TileDirectedBuffered { theta: std::f64::consts::FRAC_PI_4, buffer: 60 },
        ..WireConfig::default()
    };
    let taxi = TaxiConfig {
        domain: 3_000.0,
        speed_limit: 9.0,
        timestamps: EPOCHS,
        ..TaxiConfig::default()
    };
    let group: Vec<Trajectory> = (0..3).map(|i| taxi_trajectory(&taxi, 4_400 + i)).collect();
    (config, TrajectoryFeed::new(group))
}

/// A blocking lock-step client that keeps every raw downlink byte it ever read.
struct LockStep {
    stream: TcpStream,
    raw: Vec<u8>,
    pos: usize,
}

impl LockStep {
    fn connect(addr: std::net::SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream.set_read_timeout(Some(Duration::from_secs(60))).expect("read timeout");
        Self { stream, raw: Vec::new(), pos: 0 }
    }

    /// Reads exactly one count-prefixed batch, appending the raw bytes to the transcript.
    fn next_batch(&mut self) -> Vec<Response> {
        loop {
            if let Some((batch, consumed)) = parse_batch(&self.raw[self.pos..]) {
                self.pos += consumed;
                return batch;
            }
            let mut scratch = [0u8; 4096];
            let n = self.stream.read(&mut scratch).expect("downlink read");
            assert!(n > 0, "server closed mid-batch");
            self.raw.extend_from_slice(&scratch[..n]);
        }
    }

    fn send(&mut self, request: &Request) {
        self.stream.write_all(&request.encoded()).expect("uplink write");
    }
}

/// Parses one whole batch from the front of `bytes`, returning it and the bytes consumed.
fn parse_batch(bytes: &[u8]) -> Option<(Vec<Response>, usize)> {
    if bytes.len() < 4 {
        return None;
    }
    let count = u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes")) as usize;
    let mut at = 4;
    let mut batch = Vec::with_capacity(count);
    for _ in 0..count {
        match Response::decode(&bytes[at..]) {
            Ok((response, consumed)) => {
                batch.push(response);
                at += consumed;
            }
            Err(DecodeError::Incomplete) => return None,
            Err(e) => panic!("undecodable downlink: {e}"),
        }
    }
    Some((batch, at))
}

/// Replays the trace in lock-step: `exchange` delivers one request and returns the batch
/// that answers it.
fn replay_trace(mut exchange: impl FnMut(&Request) -> Vec<Response>) {
    let (config, mut feed) = trace();

    let ack = exchange(&Request::Register { group_size: feed.group_size() as u32, config });
    let id = ack
        .iter()
        .find_map(|r| match r {
            Response::Notification { group, kind: NotificationKind::Registered } => Some(*group),
            _ => None,
        })
        .expect("registration ack");

    let mut regions = 0usize;
    for _ in 0..EPOCHS {
        let positions = feed.next_epoch().expect("the recording covers every epoch");
        regions += exchange(&Request::Report { group: id, positions })
            .iter()
            .filter(|r| matches!(r, Response::SafeRegion { .. }))
            .count();
    }
    assert!(regions > 0, "the trace must exercise real safe-region traffic");

    let farewell = exchange(&Request::Deregister { group: id });
    assert!(farewell
        .contains(&Response::Notification { group: id, kind: NotificationKind::Deregistered }));
}

#[test]
fn multiplexed_downlink_is_byte_identical_to_the_in_process_core() {
    // The reference: the core driven in-process, each tick's responses enveloped as the
    // batch a transport would send.  Client ids never reach the wire, so any id will do.
    const CLIENT: u64 = 7;
    let mut core = test_core();
    let mut core_bytes = Vec::new();
    replay_trace(|request| {
        core.enqueue(CLIENT, request.clone());
        let output = core.process();
        assert!(!core.has_work(), "one lock-step request is one tick");
        assert!(output.responses.iter().all(|(to, _)| *to == CLIENT));
        let batch: Vec<Response> = output.responses.into_iter().map(|(_, r)| r).collect();
        encode_batch(&batch, &mut core_bytes);
        batch
    });
    assert_eq!(core.engine().group_count(), 0);

    // The same trace over loopback TCP through the event loop, same core construction.
    let mut mux =
        MuxServer::bind("127.0.0.1:0", test_core(), MuxConfig::default()).expect("bind mux");
    let addr = mux.local_addr().expect("addr");
    let stop = Arc::new(AtomicBool::new(false));
    let server = {
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            mux.run(&stop, Duration::from_millis(1)).expect("event loop");
            mux
        })
    };
    let mut client = LockStep::connect(addr);
    replay_trace(|request| {
        client.send(request);
        client.next_batch()
    });
    assert_eq!(client.pos, client.raw.len(), "no trailing unparsed downlink");
    stop.store(true, Ordering::Relaxed);
    let mux = server.join().expect("mux server thread");
    assert_eq!(mux.core().engine().group_count(), 0);

    assert_eq!(
        core_bytes, client.raw,
        "the transport must frame exactly the bytes the core produced for the same trace"
    );
}

/// Groups each of the two clients reports for the first time in the burst tick.
const BURST_GROUPS: usize = 1_024;
/// Groups per registration tick: the clients take turns, so ownership alternates in runs of
/// this many ids.
const RUN: usize = 64;
/// Users per group (a `Report` of two is at most 39 bytes: one client's burst stays under
/// 64 KB, the least a loopback receive window starts at, so a blocking write never waits for
/// the loop).
const PAIR: usize = 2;

/// Something that applies one tick's uplink of the two clients (client ids 1 and 2) in one
/// `ServerCore::process` and hands each client her batch, `None` if she was not addressed.
trait Harness {
    fn tick(&mut self, uplink: [&[Request]; 2]) -> [Option<Vec<Response>>; 2];
    fn core(&self) -> &ServerCore;
}

/// The reference: the core in-process, each client's batch enveloped by `encode_batch`.
struct InProcess {
    core: ServerCore,
    bytes: [Vec<u8>; 2],
}

impl Harness for InProcess {
    fn tick(&mut self, uplink: [&[Request]; 2]) -> [Option<Vec<Response>>; 2] {
        for (client, requests) in (1u64..).zip(uplink) {
            for request in requests {
                self.core.enqueue(client, request.clone());
            }
        }
        // A client gets a batch if the counting pass addresses her, even with a count of 0.
        let mut batches = [None, None];
        self.core.announce(|client, _| {
            batches[client as usize - 1].get_or_insert_with(Vec::new);
        });
        let output = self.core.process();
        for (client, response) in output.responses {
            batches[client as usize - 1].get_or_insert_with(Vec::new).push(response);
        }
        for (batch, bytes) in batches.iter().zip(&mut self.bytes) {
            if let Some(batch) = batch {
                encode_batch(batch, bytes);
            }
        }
        batches
    }

    fn core(&self) -> &ServerCore {
        &self.core
    }
}

/// The same over loopback TCP, the event loop driven from this thread so that what one tick
/// sees is decided here and not by the scheduler.
struct OverTcp {
    mux: MuxServer,
    clients: [LockStep; 2],
}

impl OverTcp {
    fn new() -> Self {
        let mut mux =
            MuxServer::bind("127.0.0.1:0", test_core(), MuxConfig::default()).expect("bind mux");
        let addr = mux.local_addr().expect("addr");
        // Connections are numbered in accept order: connect and accept one at a time.
        let clients = [1, 2].map(|accepted| {
            let client = LockStep::connect(addr);
            let deadline = Instant::now() + Duration::from_secs(30);
            while mux.stats().accepted < accepted {
                mux.poll_once(Some(Duration::from_millis(1))).expect("poll");
                assert!(Instant::now() < deadline, "connection {accepted} was never accepted");
            }
            client
        });
        mux.core_mut().grant_admin(1);
        Self { mux, clients }
    }
}

impl Harness for OverTcp {
    fn tick(&mut self, uplink: [&[Request]; 2]) -> [Option<Vec<Response>>; 2] {
        // Everything is in the kernel before the loop looks: one poll reads both sockets dry.
        for (client, requests) in self.clients.iter_mut().zip(uplink) {
            let mut bytes = Vec::new();
            for request in requests {
                request.encode(&mut bytes);
            }
            client.stream.write_all(&bytes).expect("uplink write");
        }
        let ticks = self.mux.stats().ticks;
        let mut batches = [None, None];
        let deadline = Instant::now() + Duration::from_secs(60);
        for client in &self.clients {
            client.stream.set_nonblocking(true).expect("nonblocking reads");
        }
        while batches.iter().zip(uplink).any(|(batch, sent)| batch.is_none() && !sent.is_empty()) {
            self.mux.poll_once(Some(Duration::from_millis(1))).expect("poll");
            for (client, batch) in self.clients.iter_mut().zip(&mut batches) {
                let mut scratch = [0u8; 16 * 1024];
                while let Ok(n) = client.stream.read(&mut scratch) {
                    assert!(n > 0, "server closed the connection");
                    client.raw.extend_from_slice(&scratch[..n]);
                }
                if batch.is_none() {
                    if let Some((parsed, consumed)) = parse_batch(&client.raw[client.pos..]) {
                        client.pos += consumed;
                        *batch = Some(parsed);
                    }
                }
            }
            assert!(Instant::now() < deadline, "no batch within the deadline");
        }
        for client in &self.clients {
            client.stream.set_nonblocking(false).expect("blocking writes");
        }
        assert_eq!(self.mux.stats().ticks, ticks + 1, "the uplink must reach the core as one tick");
        batches
    }

    fn core(&self) -> &ServerCore {
        self.mux.core()
    }
}

fn registered_ids(batch: &[Response]) -> Vec<u64> {
    batch
        .iter()
        .filter_map(|r| match r {
            Response::Notification { group, kind: NotificationKind::Registered } => Some(*group),
            _ => None,
        })
        .collect()
}

/// Group `g`'s two users, spread over the POI domain.
fn pair_at(g: u64) -> Vec<Point> {
    let (x, y) = (150.0 + 42.0 * (g % 64) as f64, 150.0 + 80.0 * (g / 64) as f64);
    vec![Point::new(x, y), Point::new(x + 9.0, y + 6.0)]
}

/// The burst trace: a veteran group with an answer, 2 x 1,024 groups registered in
/// alternating runs, then one tick in which every one of them reports for the first time
/// while the operator deletes the veteran's meeting point — a forced recompute of a group
/// that also advances in the same tick.
fn replay_burst(harness: &mut impl Harness) {
    let config = WireConfig {
        objective: WireObjective::Max,
        method: WireMethod::Circle,
        ..WireConfig::default()
    };
    let register = Request::Register { group_size: PAIR as u32, config };
    let mut veteran = 0;
    let mut groups: [Vec<u64>; 2] = [Vec::new(), Vec::new()];
    for run in 0..2 * BURST_GROUPS / RUN {
        if run == BURST_GROUPS / RUN {
            // Half-way, so that the veteran sits in the middle of the slab.
            let [ack, _] = harness.tick([std::slice::from_ref(&register), &[]]);
            veteran = registered_ids(&ack.expect("client 1 is answered"))[0];
            let first = Request::Report { group: veteran, positions: pair_at(veteran) };
            harness.tick([&[first], &[]]);
        }
        let turn = run % 2;
        let mut uplink: [Vec<Request>; 2] = [Vec::new(), Vec::new()];
        uplink[turn] = vec![register.clone(); RUN];
        let mut acks = harness.tick([&uplink[0], &uplink[1]]);
        assert!(acks[1 - turn].is_none(), "the idle client hears nothing");
        groups[turn]
            .extend(registered_ids(&acks[turn].take().expect("the registrant is answered")));
    }
    assert!(groups.iter().all(|owned| owned.len() == BURST_GROUPS));

    let doomed = harness
        .core()
        .engine()
        .group(veteran as usize)
        .session_state()
        .last_answer()
        .expect("the veteran has an answer")
        .optimal_index;
    // The veteran's first user leaves her region; the second is probed.
    let mut moved = pair_at(veteran);
    moved[0] = Point::new(moved[0].x + 900.0, moved[0].y + 700.0);
    let mut uplink: [Vec<Request>; 2] = [
        vec![
            Request::Report { group: veteran, positions: moved },
            Request::Admin(AdminRequest::PoiDelete { poi: doomed as u64 }),
        ],
        Vec::new(),
    ];
    for (requests, owned) in uplink.iter_mut().zip(&groups) {
        requests.extend(owned.iter().map(|&g| Request::Report { group: g, positions: pair_at(g) }));
    }
    let [operator, tenant] = harness.tick([&uplink[0], &uplink[1]]);
    let (operator, tenant) = (operator.expect("addressed"), tenant.expect("addressed"));

    let regions = |batch: &[Response]| {
        batch.iter().filter(|r| matches!(r, Response::SafeRegion { .. })).count()
    };
    assert_eq!(regions(&tenant), PAIR * BURST_GROUPS);
    assert_eq!(regions(&operator), PAIR * (BURST_GROUPS + 2), "the veteran is notified twice");
    assert!(
        matches!(
            operator[..2],
            [
                Response::Notification { kind: NotificationKind::AdminApplied, .. },
                Response::WorldUpdate { group, .. }
            ] if group == veteran
        ),
        "control notifications lead the batch: {:?}",
        &operator[..2]
    );
    // Events come in ascending group id, not in the order they were logged: the veteran's
    // push was logged before the tick, yet groups with lower ids precede it.  Then her own
    // epoch follows at once: a probe for the user who stayed, fresh regions for both.
    let of_veteran = |r: &Response| match r {
        Response::SafeRegion { group, .. } | Response::ProbeRequest { group, .. } => {
            *group == veteran
        }
        _ => false,
    };
    let at = operator.iter().position(of_veteran).expect("the veteran is notified");
    assert!(at > 2 + PAIR * RUN, "lower ids must come first, the veteran's push is at {at}");
    let hers = &operator[at..at + 2 * PAIR + 1];
    assert!(hers.iter().all(of_veteran), "{hers:?}");
    assert!(matches!(hers[PAIR], Response::ProbeRequest { user: 1, .. }), "{hers:?}");
    assert!(!operator[at + 2 * PAIR + 1..].iter().any(of_veteran));
}

/// World generations are process-unique stamps, so no two cores agree on them: zeroes the one
/// field of a downlink transcript that carries one.
fn scrub_generations(raw: &mut [u8]) {
    let mut at = 0;
    while at < raw.len() {
        let count = u32::from_le_bytes(raw[at..at + 4].try_into().expect("4 bytes"));
        at += 4;
        for _ in 0..count {
            let (response, consumed) = Response::decode(&raw[at..]).expect("whole frames");
            if let Response::WorldUpdate { group, revised, .. } = response {
                let scrubbed = Response::WorldUpdate { group, generation: 0, revised }.encoded();
                raw[at..at + consumed].copy_from_slice(&scrubbed);
            }
            at += consumed;
        }
    }
}

#[test]
fn a_burst_tick_keeps_its_downlink_order_over_the_wire() {
    let mut reference = InProcess { core: test_core(), bytes: [Vec::new(), Vec::new()] };
    reference.core.grant_admin(1);
    replay_burst(&mut reference);

    let mut wire = OverTcp::new();
    replay_burst(&mut wire);
    for (client, expected) in wire.clients.iter_mut().zip(&mut reference.bytes) {
        assert_eq!(client.pos, client.raw.len(), "no trailing unparsed downlink");
        scrub_generations(&mut client.raw);
        scrub_generations(expected);
        assert!(client.raw == *expected, "the transport must frame exactly the core's bytes");
    }

    // FNV-1a over both clients' downlink: control notifications, `WorldUpdate` before its
    // regions, then the tick's events in ascending group id.  Two hashes, because content and
    // encoding change for different reasons.  The value hash covers the decoded responses
    // (their `Debug` rendering).  It was first recorded from the bytes a one-shard engine
    // sent for this trace with `test_core()`.  A codec change must leave it alone; the byte
    // hash pins the encoding and moves with it.
    // Both were re-recorded once when safe regions became `f32`-exact: the circles' centres
    // and radii, the tile frames' origins and `δ` changed value, and ship in 12 fewer bytes.
    let fnv1a = |hash: u64, bytes: &[u8]| {
        bytes
            .iter()
            .fold(hash, |hash, &byte| (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3))
    };
    let (mut values, mut bytes) = (0xcbf2_9ce4_8422_2325u64, 0xcbf2_9ce4_8422_2325u64);
    for raw in &reference.bytes {
        bytes = fnv1a(bytes, raw);
        let mut rest = &raw[..];
        while let Some((batch, consumed)) = parse_batch(rest) {
            rest = &rest[consumed..];
            for response in batch {
                values = fnv1a(values, format!("{response:?}").as_bytes());
            }
        }
        assert!(rest.is_empty(), "the transcript is whole batches");
    }
    assert_eq!(values, 0x01dc_7d28_260d_452c, "what the burst trace says changed");
    assert_eq!(bytes, 0x01d4_1a81_6b43_5c30, "how the burst trace is encoded changed");
}
