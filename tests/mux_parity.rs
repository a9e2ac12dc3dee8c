//! Transport parity: the multiplexed event loop's downlink must be **byte-identical** to the
//! in-process `ServerCore` output for the same lock-step request trace.
//!
//! The transport only frames responses the transport-agnostic core produced (applied in
//! request order, one tick per request, one count-prefixed batch per tick), so any
//! divergence — ordering, routing, extra or missing batches — shows up here as a raw byte
//! mismatch.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use mpn::index::RTree;
use mpn::mobility::poi::{clustered_pois, PoiConfig};
use mpn::mobility::waypoint::{taxi_trajectory, TaxiConfig};
use mpn::mobility::Trajectory;
use mpn::net::{encode_batch, MuxConfig, MuxServer};
use mpn::proto::{
    DecodeError, NotificationKind, Request, Response, WireConfig, WireMethod, WireObjective,
};
use mpn::sim::{ServerCore, TrajectoryFeed};

const EPOCHS: usize = 40;

fn test_core() -> ServerCore {
    let pois = clustered_pois(
        &PoiConfig { count: 800, domain: 3_000.0, clusters: 5, ..PoiConfig::default() },
        17,
    );
    ServerCore::new(Arc::new(RTree::bulk_load(&pois)), 3)
}

/// The identical uplink trace both sides replay: one group registering, streaming epochs in
/// lock-step, and deregistering.
fn trace() -> (WireConfig, TrajectoryFeed) {
    let config = WireConfig {
        objective: WireObjective::Max,
        method: WireMethod::TileDirectedBuffered { theta: std::f64::consts::FRAC_PI_4, buffer: 60 },
        compress_regions: true,
        persist_buffers: true,
        max_timestamps: None,
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
