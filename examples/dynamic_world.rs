//! The mutable world end to end over loopback TCP: cafés close, pop-ups open, and the
//! multiplexed server pushes revised safe regions to exactly the groups each change broke.
//!
//! The cast:
//!
//! * a **city** of cafés in two districts (a `WorldView`: one POI tree per world state,
//!   rebuilt with a fresh generation on every change);
//! * two **groups** of friends converging on a meeting point, one per district, each on its
//!   own multiplexed TCP connection;
//! * an **operator console** — the first accepted connection, granted admin rights out of
//!   band — closing and opening cafés while both groups sit idle.
//!
//! The script demonstrates the whole push pipeline: a closure that breaks the north group's
//! answer arrives at that group as an unsolicited `WorldUpdate` (naming the new world
//! generation) followed by its revised safe regions, while the south group — whose answer
//! never referenced the closed café — receives nothing at all.  A pop-up
//! café right at the north group's meeting point then undercuts its new optimum and
//! triggers a second push.
//!
//! Run with: `cargo run --release --example dynamic_world`

use std::io::{ErrorKind, Write as _};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use mpn::core::{Method, Objective};
use mpn::geom::Point;
use mpn::index::RTree;
use mpn::net::{read_batch, MuxConfig, MuxServer};
use mpn::proto::{
    AdminRequest, NotificationKind, Request, Response, WireConfig, WireMethod, WireObjective,
};
use mpn::sim::ServerCore;

fn main() {
    // The city: 24 cafés in the north district, 24 in the south.
    let cafes: Vec<Point> = (0..48)
        .map(|i| {
            let (cx, cy) = if i < 24 { (200.0, 800.0) } else { (800.0, 200.0) };
            Point::new(cx + (i % 6) as f64 * 12.0, cy + (i / 6 % 4) as f64 * 12.0)
        })
        .collect();
    let tree = Arc::new(RTree::bulk_load(&cafes));
    let north_friends = vec![Point::new(190.0, 815.0), Point::new(245.0, 810.0)];
    let south_friends = vec![Point::new(790.0, 215.0), Point::new(845.0, 210.0)];

    // Where will the north group meet?  Compute it client-side so the console knows which
    // café to close for the demonstration.
    let doomed = Method::circle()
        .answer(tree.as_ref(), Objective::Max, &north_friends, None)
        .0
        .optimal_index;

    let core = ServerCore::new(Arc::clone(&tree), 1);
    let mut server =
        MuxServer::bind("127.0.0.1:0", core, MuxConfig::default()).expect("bind loopback");
    let addr = server.local_addr().expect("local addr");
    // Connections are numbered from 1 in accept order; the console connects first.
    server.core_mut().grant_admin(1);

    let stop = Arc::new(AtomicBool::new(false));
    let server_thread = {
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            server.run(&stop, Duration::from_millis(1)).expect("event loop");
            server
        })
    };

    // The console round-trips before the tenants connect, pinning accept order.
    let mut console = connect(addr);
    request(&mut console, &Request::Admin(AdminRequest::PoiDelete { poi: u64::MAX }));
    let ack = read_batch(&mut console).expect("console ack");
    assert!(matches!(
        ack.first(),
        Some(Response::Notification { kind: NotificationKind::UnknownPoi, .. })
    ));
    println!("console online (admin granted, probe answered with UnknownPoi)");

    let (mut north, north_id) = register(addr, &north_friends);
    let (mut south, south_id) = register(addr, &south_friends);
    println!(
        "north group registered as {north_id} ({} regions), south as {south_id} ({} regions)",
        north_friends.len(),
        south_friends.len()
    );

    // Act 1: the north group's café closes.  Both groups are idle — nothing in flight.
    request(&mut console, &Request::Admin(AdminRequest::PoiDelete { poi: doomed as u64 }));
    let ack = read_batch(&mut console).expect("close ack");
    assert_eq!(
        ack,
        vec![Response::Notification { group: doomed as u64, kind: NotificationKind::AdminApplied }]
    );
    println!("\ncafé {doomed} closed;");

    let push = read_batch(&mut north).expect("north push");
    let generation = expect_push(&push, north_id, north_friends.len());
    println!(
        "  north group pushed: WorldUpdate(generation {generation}) + {} revised regions",
        north_friends.len()
    );
    assert!(quiet(&mut south), "the south group must hear nothing about a north closure");
    println!("  south group: silence (its answer never referenced café {doomed})");

    // Act 2: a pop-up café opens right where the north group now plans to meet,
    // undercutting the optimum they were just re-assigned.
    let meeting = push
        .iter()
        .find_map(|r| match r {
            Response::SafeRegion { meeting_point, .. } => Some(*meeting_point),
            _ => None,
        })
        .expect("the push carries the revised meeting point");
    request(&mut console, &Request::Admin(AdminRequest::PoiInsert { location: meeting }));
    let ack = read_batch(&mut console).expect("open ack");
    let popup = match ack.first() {
        Some(Response::Notification { group, kind: NotificationKind::AdminApplied }) => *group,
        other => panic!("expected the pop-up to be applied, got {other:?}"),
    };
    println!("\npop-up café {popup} opened at the north group's meeting point;");

    let push = read_batch(&mut north).expect("north push 2");
    let next_generation = expect_push(&push, north_id, north_friends.len());
    assert!(next_generation > generation, "each change stamps a fresh generation");
    println!("  north group pushed again: WorldUpdate(generation {next_generation})");
    assert!(quiet(&mut south), "a pop-up in the north cannot break the south group");
    println!("  south group: still silence");

    // Curtain: everyone leaves; the world keeps its net change (one closed, one opened).
    for (stream, id) in [(&mut north, north_id), (&mut south, south_id)] {
        request(stream, &Request::Deregister { group: id });
        let farewell = read_batch(stream).expect("farewell");
        assert!(farewell
            .contains(&Response::Notification { group: id, kind: NotificationKind::Deregistered }));
    }
    stop.store(true, Ordering::Relaxed);
    let server = server_thread.join().expect("event loop thread");
    let world = server.core().engine().world();
    assert_eq!(world.len(), cafes.len(), "one café closed, one opened: net zero");
    assert_eq!(server.core().engine().group_count(), 0);
    println!(
        "\ndone: {} cafés live at generation {}, every session deregistered",
        world.len(),
        world.generation()
    );
}

fn connect(addr: std::net::SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("read timeout");
    stream
}

fn request(stream: &mut TcpStream, request: &Request) {
    stream.write_all(&request.encoded()).expect("uplink write");
}

/// Registers a two-member group and reports its first positions, returning the connection
/// and the assigned wire group id after the initial safe regions arrived.
fn register(addr: std::net::SocketAddr, friends: &[Point]) -> (TcpStream, u64) {
    let mut stream = connect(addr);
    let config = WireConfig {
        objective: WireObjective::Max,
        method: WireMethod::Circle,
        ..WireConfig::default()
    };
    request(&mut stream, &Request::Register { group_size: friends.len() as u32, config });
    let ack = read_batch(&mut stream).expect("registration ack");
    let id = ack
        .iter()
        .find_map(|r| match r {
            Response::Notification { group, kind: NotificationKind::Registered } => Some(*group),
            _ => None,
        })
        .expect("registered id");
    request(&mut stream, &Request::Report { group: id, positions: friends.to_vec() });
    let first = read_batch(&mut stream).expect("initial regions");
    assert_eq!(
        first.iter().filter(|r| matches!(r, Response::SafeRegion { .. })).count(),
        friends.len()
    );
    (stream, id)
}

/// Asserts `batch` is a well-formed unsolicited push for `group`: a `WorldUpdate` heading
/// `revised` safe regions.  Returns the announced world generation.
fn expect_push(batch: &[Response], group: u64, revised: usize) -> u64 {
    let generation = match batch.first() {
        Some(&Response::WorldUpdate { group: g, generation, revised: r }) => {
            assert_eq!(g, group);
            assert_eq!(r as usize, revised);
            generation
        }
        other => panic!("expected a WorldUpdate heading the push, got {other:?}"),
    };
    assert_eq!(
        batch.iter().filter(|r| matches!(r, Response::SafeRegion { .. })).count(),
        revised,
        "the push must carry every revised region"
    );
    generation
}

/// Whether nothing arrives on `stream` within a short grace window (the connection is
/// expected to stay silent).
fn quiet(stream: &mut TcpStream) -> bool {
    stream.set_read_timeout(Some(Duration::from_millis(300))).expect("read timeout");
    let silent = match read_batch(stream) {
        Err(e) => matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
        Ok(batch) => panic!("expected silence, got {batch:?}"),
    };
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("read timeout");
    silent
}
