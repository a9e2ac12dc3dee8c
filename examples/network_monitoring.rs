//! Network monitoring: the Fig. 3 client/server protocol, for real.
//!
//! Two demonstrations of the `mpn-proto` + `ServerCore` stack — the core and its one
//! transport, as described in `mpn-net`'s crate docs:
//!
//! 1. **In-process** — decoded `Request`s enqueued on a `ServerCore` under two client ids
//!    and drained into engine ticks: two phone groups register with different
//!    objectives/methods, stream their epochs, and each client receives its own probe
//!    requests and safe-region assignments back.
//! 2. **Multiplexed** — `mpn::net::MuxServer`: one event-loop thread serving many concurrent
//!    lock-step clients over non-blocking sockets, all sharing one engine.
//!
//! Over the socket each uplink request is answered with a 4-byte little-endian response
//! count followed by that many response frames (`mpn::net::read_batch`) — the count makes
//! quiet epochs observable, so lock-step clients never guess from read timeouts.
//!
//! Run with: `cargo run --release --example network_monitoring`

use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use mpn::index::RTree;
use mpn::mobility::poi::{clustered_pois, PoiConfig};
use mpn::mobility::waypoint::{taxi_trajectory, TaxiConfig};
use mpn::mobility::Trajectory;
use mpn::net::{read_batch, MuxConfig, MuxServer};
use mpn::proto::{NotificationKind, Request, Response, WireConfig, WireMethod, WireObjective};
use mpn::sim::{ClientId, ServerCore, TrajectoryFeed};

/// Epochs each client streams before deregistering.
const EPOCHS: usize = 150;

fn main() {
    let pois = clustered_pois(
        &PoiConfig { count: 1_500, domain: 4_000.0, clusters: 6, ..PoiConfig::default() },
        13,
    );
    let tree = Arc::new(RTree::bulk_load(&pois));

    in_process_demo(Arc::clone(&tree));
    multiplexed_demo(tree);
}

/// A moving group as a protocol client sees it: a recording it reports epoch by epoch.
fn phone_group(seed: u64, size: usize) -> TrajectoryFeed {
    phone_group_epochs(seed, size, EPOCHS)
}

fn phone_group_epochs(seed: u64, size: usize, epochs: usize) -> TrajectoryFeed {
    let taxi = TaxiConfig {
        domain: 4_000.0,
        speed_limit: 9.0,
        timestamps: epochs,
        ..TaxiConfig::default()
    };
    let group: Vec<Trajectory> =
        (0..size).map(|i| taxi_trajectory(&taxi, seed + i as u64)).collect();
    TrajectoryFeed::new(group)
}

fn registered_id(responses: &[Response]) -> u64 {
    responses
        .iter()
        .find_map(|r| match r {
            Response::Notification { group, kind: NotificationKind::Registered } => Some(*group),
            _ => None,
        })
        .expect("the server acknowledges a registration")
}

/// Tally of the downlink messages one client received, and their §7.1 packets.
#[derive(Default)]
struct Downlink {
    probes: usize,
    assignments: usize,
    epochs_with_update: usize,
    packets: usize,
}

impl Downlink {
    fn absorb(&mut self, responses: &[Response]) {
        let before = self.assignments;
        for response in responses {
            match response {
                Response::ProbeRequest { .. } => self.probes += 1,
                Response::SafeRegion { .. } => self.assignments += 1,
                Response::Notification { .. } | Response::WorldUpdate { .. } => continue,
            }
            self.packets += response.packets(true);
        }
        if self.assignments > before {
            self.epochs_with_update += 1;
        }
    }
}

/// The responses of one tick addressed to `client`.
fn downlink_of(responses: &[(ClientId, Response)], client: ClientId) -> Vec<Response> {
    responses.iter().filter(|(to, _)| *to == client).map(|(_, r)| r.clone()).collect()
}

fn in_process_demo(tree: Arc<RTree>) {
    println!("== In-process: requests applied on arrival, then engine ticks ==\n");
    let mut server = ServerCore::new(tree, 1);

    // One client per group: the core routes every response to the client owning the group.
    let clients: [(ClientId, &str, WireConfig); 2] = [
        (
            1,
            "friends/MAX/Tile-D-b",
            WireConfig {
                objective: WireObjective::Max,
                method: WireMethod::TileDirectedBuffered {
                    theta: std::f64::consts::FRAC_PI_4,
                    buffer: 100,
                },
                ..WireConfig::default()
            },
        ),
        (
            2,
            "carpool/SUM/Circle",
            WireConfig {
                objective: WireObjective::Sum,
                method: WireMethod::Circle,
                ..WireConfig::default()
            },
        ),
    ];

    let mut feeds = [phone_group(1_000, 3), phone_group(2_000, 4)];
    for ((client, _, config), feed) in clients.iter().zip(&feeds) {
        let group_size = feed.group_size() as u32;
        server.enqueue(*client, Request::Register { group_size, config: *config });
    }
    let acks = server.process().responses;
    let ids: Vec<u64> =
        clients.iter().map(|(client, ..)| registered_id(&downlink_of(&acks, *client))).collect();
    println!("registered groups {ids:?}\n");

    let mut tallies = [Downlink::default(), Downlink::default()];
    for _ in 0..EPOCHS {
        for ((feed, &id), (client, ..)) in feeds.iter_mut().zip(&ids).zip(&clients) {
            let positions = feed.next_epoch().expect("the recording covers every epoch");
            server.enqueue(*client, Request::Report { group: id, positions });
        }
        let responses = server.process().responses;
        for (tally, (client, ..)) in tallies.iter_mut().zip(&clients) {
            tally.absorb(&downlink_of(&responses, *client));
        }
    }

    // Per group, what its client received; the server keeps only fleet totals.
    println!(
        "{:<22} {:>8} {:>12} {:>12} {:>16}",
        "group", "updates", "probes", "regions", "downlink packets"
    );
    for ((client, label, _), (tally, &id)) in clients.iter().zip(tallies.iter().zip(&ids)) {
        println!(
            "{:<22} {:>8} {:>12} {:>12} {:>16}",
            label, tally.epochs_with_update, tally.probes, tally.assignments, tally.packets
        );
        server.enqueue(*client, Request::Deregister { group: id });
    }
    let farewells = server.process().responses;
    assert!(farewells.iter().all(|(_, r)| matches!(
        r,
        Response::Notification { kind: NotificationKind::Deregistered, .. }
    )));
    let fleet = server.engine().fleet_metrics();
    let received: usize = tallies.iter().map(|tally| tally.packets).sum();
    assert_eq!(received, fleet.traffic.downlink_packets, "the server charged what it sent");
    println!(
        "\nboth groups deregistered; fleet lifetime totals: {} updates, {} packets ({} downlink)\n",
        fleet.updates,
        fleet.traffic.packets(),
        fleet.traffic.downlink_packets
    );
}

// ---------------------------------------------------------------------------------------
// Loopback TCP, multiplexed
// ---------------------------------------------------------------------------------------

/// Registers, streams `feed` to the end, deregisters — the full lock-step client lifetime.
fn lock_step_session(stream: &mut TcpStream, mut feed: TrajectoryFeed) -> Downlink {
    let config = WireConfig {
        objective: WireObjective::Max,
        method: WireMethod::Tile,
        ..WireConfig::default()
    };
    stream
        .write_all(&Request::Register { group_size: feed.group_size() as u32, config }.encoded())
        .expect("send register");
    let id = registered_id(&read_batch(stream).expect("registration ack"));

    let mut tally = Downlink::default();
    while let Some(positions) = feed.next_epoch() {
        let frame = Request::Report { group: id, positions }.encoded();
        stream.write_all(&frame).expect("send report");
        tally.absorb(&read_batch(stream).expect("epoch downlink"));
    }

    stream.write_all(&Request::Deregister { group: id }.encoded()).expect("send deregister");
    let farewell = read_batch(stream).expect("deregistration ack");
    assert!(
        farewell
            .contains(&Response::Notification { group: id, kind: NotificationKind::Deregistered }),
        "the server must acknowledge the deregistration"
    );
    tally
}

fn multiplexed_demo(tree: Arc<RTree>) {
    const CLIENTS: usize = 12;
    const MUX_EPOCHS: usize = 60;

    println!("\n== Loopback TCP, multiplexed: one event loop, {CLIENTS} concurrent clients ==\n");
    let core = ServerCore::new(tree, 1);
    let mut server =
        MuxServer::bind("127.0.0.1:0", core, MuxConfig::default()).expect("bind mux loopback");
    let addr = server.local_addr().expect("local addr");

    let stop = Arc::new(AtomicBool::new(false));
    let server_thread = {
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            server.run(&stop, Duration::from_millis(1)).expect("event loop");
            server
        })
    };

    let clients: Vec<_> = (0..CLIENTS)
        .map(|i| {
            thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("connect to mux server");
                stream.set_nodelay(true).expect("nodelay");
                lock_step_session(
                    &mut stream,
                    phone_group_epochs(10_000 + 100 * i as u64, 3, MUX_EPOCHS),
                )
            })
        })
        .collect();

    let mut total = Downlink::default();
    for client in clients {
        let tally = client.join().expect("client thread");
        total.probes += tally.probes;
        total.assignments += tally.assignments;
        total.epochs_with_update += tally.epochs_with_update;
        total.packets += tally.packets;
    }
    stop.store(true, Ordering::Relaxed);
    let server = server_thread.join().expect("event loop thread");

    let stats = server.stats();
    println!(
        "event loop: {} conns accepted, {} requests in {} ticks, {} responses, {} B in / {} B out",
        stats.accepted,
        stats.requests,
        stats.ticks,
        stats.responses,
        stats.bytes_in,
        stats.bytes_out
    );
    println!(
        "clients: {} updates, {} probes, {} safe regions across {CLIENTS} concurrent sessions",
        total.epochs_with_update, total.probes, total.assignments
    );
    assert_eq!(stats.accepted, CLIENTS as u64);
    assert_eq!(server.core().engine().group_count(), 0, "every session deregistered");
    let fleet = server.core().engine().fleet_metrics();
    assert_eq!(total.packets, fleet.traffic.downlink_packets, "the server charged what it sent");
    println!("\nall {CLIENTS} clients deregistered cleanly; engine is empty");
}
