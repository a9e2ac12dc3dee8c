//! The system under test: the benchmark binary re-executed in `serve` mode.
//!
//! The child receives only generated inputs: the POI set arrives on its stdin (a `u64` count,
//! then `x`/`y` pairs, little-endian).  It bulk-loads the R-tree, binds `127.0.0.1:0`, prints
//! `LISTEN <port> <bulk_load_ns>` and then loops `poll_once(1 ms)` over a
//! `ServerCore::new(tree, 1)` — library defaults: no query cache, one shard, so all work is on
//! this thread.  A byte `s` on stdin asks for a `STATS` line (the generator diffs two of them
//! to get the counters of one window); end of stdin asks for a last one and ends the process.

use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mpn_geom::Point;
use mpn_index::RTree;
use mpn_net::{MuxConfig, MuxServer};
use mpn_sim::ServerCore;

use crate::procfs;

/// Counters the event loop accumulates itself, because the library only exposes the last
/// tick's summary and the current outbox level.
#[derive(Default)]
struct LoopCounters {
    advanced: u64,
    updated: u64,
    violators: u64,
    starved: u64,
    outbox_peak: usize,
}

/// Runs the server child until its stdin closes.
pub fn serve(cpu: Option<usize>) -> io::Result<()> {
    let pinned = cpu.is_some_and(|cpu| procfs::pin_to_cpu(0, cpu));
    let pois = read_pois(&mut io::stdin().lock())?;
    let started = Instant::now();
    let tree = RTree::bulk_load(&pois);
    let bulk_load_ns = started.elapsed().as_nanos();

    let core = ServerCore::new(tree, 1);
    let mut server = MuxServer::bind("127.0.0.1:0", core, MuxConfig::default())?;
    // Connections are numbered from 1 in accept order; the generator's first is the console.
    server.core_mut().grant_admin(1);
    println!("LISTEN {} {bulk_load_ns} {}", server.local_addr()?.port(), u8::from(pinned));
    io::stdout().flush()?;

    let stop = Arc::new(AtomicBool::new(false));
    let snapshot = Arc::new(AtomicBool::new(false));
    let watcher = {
        let (stop, snapshot) = (Arc::clone(&stop), Arc::clone(&snapshot));
        std::thread::spawn(move || {
            let mut byte = [0u8; 1];
            // Any read error is treated like end of input: the parent is gone.
            while matches!(io::stdin().lock().read(&mut byte), Ok(1)) {
                snapshot.store(true, Ordering::SeqCst);
            }
            stop.store(true, Ordering::SeqCst);
        })
    };

    let mut counters = LoopCounters::default();
    let mut ticks_seen = 0;
    while !stop.load(Ordering::SeqCst) {
        server.poll_once(Some(Duration::from_millis(1)))?;
        if server.stats().ticks != ticks_seen {
            ticks_seen = server.stats().ticks;
            let tick = server.core().last_summary().expect("a tick ran");
            counters.advanced += tick.advanced as u64;
            counters.updated += tick.updated as u64;
            counters.violators += tick.violators as u64;
            counters.starved += tick.starved as u64;
        }
        counters.outbox_peak = counters.outbox_peak.max(server.outbox_bytes());
        if snapshot.swap(false, Ordering::SeqCst) {
            print_stats(&server, &counters)?;
        }
    }
    print_stats(&server, &counters)?;
    watcher.join().expect("the stdin watcher does not panic");
    Ok(())
}

fn read_pois(input: &mut impl Read) -> io::Result<Vec<Point>> {
    let mut word = [0u8; 8];
    input.read_exact(&mut word)?;
    let count = u64::from_le_bytes(word);
    // The generator never sends more than the paper's data set; refuse before allocating.
    if count == 0 || count > 10_000_000 {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "implausible POI count"));
    }
    let mut pois = Vec::with_capacity(count as usize);
    for _ in 0..count {
        input.read_exact(&mut word)?;
        let x = f64::from_le_bytes(word);
        input.read_exact(&mut word)?;
        pois.push(Point::new(x, f64::from_le_bytes(word)));
    }
    Ok(pois)
}

/// The POI set as the child's stdin expects it.
pub fn encode_pois(pois: &[Point]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + pois.len() * 16);
    out.extend_from_slice(&(pois.len() as u64).to_le_bytes());
    for p in pois {
        out.extend_from_slice(&p.x.to_le_bytes());
        out.extend_from_slice(&p.y.to_le_bytes());
    }
    out
}

/// Prints the cumulative counters the generator reads as one `STATS key=value ...` line: all
/// of `MuxStats`, the loop's own tallies, and the fleet's work counters.
fn print_stats(server: &MuxServer, counters: &LoopCounters) -> io::Result<()> {
    let mux = server.stats();
    let engine = server.core().engine();
    let fleet = engine.fleet_metrics();
    let world = engine.world();
    let fields: &[(&str, u64)] = &[
        ("accepted", mux.accepted),
        ("disconnected", mux.disconnected),
        ("closed_malformed", mux.closed_malformed),
        ("closed_backpressure", mux.closed_backpressure),
        ("closed_error", mux.closed_error),
        ("paused", mux.paused),
        ("ticks", mux.ticks),
        ("requests", mux.requests),
        ("responses", mux.responses),
        ("bytes_in", mux.bytes_in),
        ("bytes_out", mux.bytes_out),
        ("outbox_peak", counters.outbox_peak as u64),
        ("advanced", counters.advanced),
        ("updated", counters.updated),
        ("violators", counters.violators),
        ("starved", counters.starved),
        ("updates", fleet.updates as u64),
        ("rtree_queries", fleet.stats.rtree_queries as u64),
        ("verify_calls", fleet.stats.verify_calls as u64),
        ("tiles_accepted", fleet.stats.tiles_accepted as u64),
        ("tiles_rejected", fleet.stats.tiles_rejected as u64),
        ("candidates_checked", fleet.stats.candidates_checked as u64),
        ("overlay_len", world.overlay_len() as u64),
        ("compactions", world.compactions() as u64),
        ("pending", server.core().pending_requests() as u64),
        ("backlog", server.core().backlog() as u64),
    ];
    let mut line = String::from("STATS");
    for (key, value) in fields {
        line.push_str(&format!(" {key}={value}"));
    }
    println!("{line}");
    io::stdout().flush()
}
