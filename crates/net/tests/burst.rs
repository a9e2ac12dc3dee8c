//! A burst tick is written while it is encoded, not held in the outbox.
//!
//! A restarted server computes every user's first region in one tick.  Over a loopback
//! [`MuxServer`] with a client that keeps reading, 16,384 Circle groups register on one
//! connection and then send all their first reports at once (≈ 1.8 MB of downlink).  The
//! stream must be what the in-process [`ServerCore`] sends for the same trace, one batch per
//! tick, and no connection's outbox may pass 256 KiB on the way: the core announces each
//! batch's count before the tick, so its header goes first and its frames follow as they
//! are encoded, 64 KiB at a time.

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use mpn_geom::Point;
use mpn_index::RTree;
use mpn_mobility::poi::{clustered_pois, PoiConfig};
use mpn_net::{read_batch, MuxConfig, MuxServer};
use mpn_proto::{Request, Response, WireConfig};
use mpn_sim::ServerCore;

const GROUPS: usize = 16_384;

/// The highest outbox level the burst may reach.
const OUTBOX_BOUND: usize = 256 << 10;

fn core() -> ServerCore {
    let pois = clustered_pois(&PoiConfig { count: 2_000, ..PoiConfig::default() }, 42);
    ServerCore::new(Arc::new(RTree::bulk_load(&pois)), 1)
}

/// Group `g`'s three users, on a 128-wide grid of groups.
fn first_report(g: usize) -> Request {
    let (x, y) = (600.0 + 65.0 * (g % 128) as f64, 600.0 + 65.0 * (g / 128) as f64);
    let positions = (0..3).map(|i| Point::new(x + 14.0 * i as f64, y + 8.0 * i as f64)).collect();
    Request::Report { group: g as u64, positions }
}

/// Polls the server until `done` holds.
fn pump_until(server: &mut MuxServer, done: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(120);
    while !done() {
        server.poll_once(Some(Duration::from_millis(1))).expect("poll");
        assert!(Instant::now() < deadline, "the burst did not arrive");
    }
}

#[test]
fn a_burst_tick_is_written_while_it_is_encoded() {
    let register = Request::Register { group_size: 3, config: WireConfig::default() };
    let reports: Vec<Request> = (0..GROUPS).map(first_report).collect();

    // The same trace in process: every registration, then every first report.
    let mut reference = core();
    let mut expected = Vec::new();
    for requests in [vec![register.clone(); GROUPS], reports.clone()] {
        requests.into_iter().for_each(|request| reference.enqueue(1, request));
        expected.extend(reference.process().responses.into_iter().map(|(_, response)| response));
    }
    let total = expected.len();

    let mut server = MuxServer::bind("127.0.0.1:0", core(), MuxConfig::default()).expect("bind");
    let stream = TcpStream::connect(server.local_addr().expect("addr")).expect("connect");
    let mut downlink = BufReader::new(stream.try_clone().expect("clone"));
    let received = Arc::new(AtomicUsize::new(0));
    let counted = Arc::clone(&received);
    let reader = thread::spawn(move || {
        let mut batches: Vec<Vec<Response>> = Vec::new();
        while counted.load(Ordering::Relaxed) < total {
            let batch = read_batch(&mut downlink).expect("a whole batch");
            counted.fetch_add(batch.len(), Ordering::Relaxed);
            batches.push(batch);
        }
        batches
    });
    let (go, wait) = mpsc::channel::<()>();
    let writer = thread::spawn(move || {
        let mut uplink = stream;
        let encoded = |requests: &[Request]| -> Vec<u8> {
            requests.iter().flat_map(Request::encoded).collect()
        };
        uplink.write_all(&encoded(&vec![register; GROUPS])).expect("registrations");
        wait.recv().expect("the go-ahead");
        uplink.write_all(&encoded(&reports)).expect("reports");
        uplink
    });

    pump_until(&mut server, || received.load(Ordering::Relaxed) >= GROUPS);
    let before = *server.stats();
    // Let the reports pile up in the kernel, so that as few ticks as possible take them.
    go.send(()).expect("the writer waits");
    thread::sleep(Duration::from_millis(300));
    pump_until(&mut server, || reader.is_finished());
    let batches = reader.join().expect("the reader");
    let _uplink = writer.join().expect("the writer");
    let stats = *server.stats();

    assert_eq!(batches.len() as u64, stats.ticks, "one batch per tick");
    assert_eq!(batches.concat(), expected, "the downlink is the in-process core's");
    let burst_ticks = stats.ticks - before.ticks;
    let encoded = stats.bytes_out - before.bytes_out;
    println!(
        "burst tick of {} responses: outbox peaked {} B of {encoded} B encoded ({burst_ticks} \
         ticks)",
        total - GROUPS,
        stats.outbox_peak
    );
    assert!(
        stats.outbox_peak <= OUTBOX_BOUND,
        "an outbox held {} B of a {encoded} B burst",
        stats.outbox_peak
    );
}
