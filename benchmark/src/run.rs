//! One run of one workload: set-up repetitions, the paced window, the saturation window,
//! off-clock verification, and the metrics of the chosen mode.

use std::io;
use std::time::Instant;

use crate::loadgen::{BlockLog, Generator, Server, ServerStats};
use crate::oracle::{self, RunView, Verdict};
use crate::procfs;
use crate::report::{self, Metrics, END_TO_END, PER_LAYER};
use crate::serve::encode_pois;
use crate::stats::{self, ratio};
use crate::trace;
use crate::workload::{Block, BlockKind, Encoded, Inputs, Op, Plan, Script, Spec};

/// A notification later than this many epoch periods counts as a failed operation.  One
/// period would be the natural limit, but on a shared host a process can lose its CPU for a
/// few hundred milliseconds, and that must not turn a run into a failed one.
const LIMIT_PERIODS: u64 = 4;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub spec: Spec,
    pub seed: u64,
    pub seconds: f64,
    /// Per-layer metrics and the traced run instead of the end-to-end metrics.
    pub trace: bool,
    /// A twentieth of the epochs and one set-up: a check that everything runs.
    pub smoke: bool,
}

/// What a run established.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    /// The line the driver reads.
    pub result_line: String,
}

/// A server child with the generator connected to it and the whole fleet registered.
struct Live {
    server: Server,
    generator: Generator,
    logs: Vec<BlockLog>,
}

/// One cold start: spawn → bulk load → bind → connect → register the fleet → every user's
/// first safe region received.  Returns the live pair and how long the start took.
fn cold_start(
    script: &Script,
    encoded: &[Encoded],
    poi_bytes: &[u8],
    server_cpu: Option<usize>,
    clock: Instant,
) -> io::Result<(Live, f64)> {
    let started = Instant::now();
    let server = Server::spawn(poi_bytes, server_cpu)?;
    let mut generator = Generator::connect(server.port, clock)?;
    let pid = server.pid();
    let cpu = move || procfs::cpu_ns(pid).unwrap_or(0);
    let mut logs = Vec::new();
    for (block, encoded) in setup_blocks(script).zip(encoded) {
        logs.push(generator.run_block(block, encoded, &[], &cpu)?);
    }
    Ok((Live { server, generator, logs }, started.elapsed().as_secs_f64()))
}

fn setup_blocks(script: &Script) -> impl Iterator<Item = &Block> {
    script.blocks.iter().take_while(|block| block.kind == BlockKind::Setup)
}

/// Runs one workload once and prints everything it measured.
pub fn run(options: &Options) -> io::Result<Outcome> {
    let spec = &options.spec;
    let plan = spec.plan(options.seconds, options.smoke);
    println!(
        "workload {} seed {} seconds {} trace {} smoke {}: {} groups, period {} ms, \
         {} paced + {} saturation epochs, {} set-ups",
        spec.name,
        options.seed,
        options.seconds,
        u8::from(options.trace),
        u8::from(options.smoke),
        spec.groups,
        spec.period_ms,
        plan.paced_epochs,
        plan.sat_epochs,
        plan.setup_reps
    );
    for (key, value) in procfs::environment() {
        println!("{key:<36} {value}");
    }

    // One runnable thread per process: the generator takes CPU 0 and the child CPU 1 when
    // the machine has two and the kernel lets us choose.
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let generator_pinned = cpus >= 2 && procfs::pin_to_cpu(0, 0);
    let server_cpu = (cpus >= 2).then_some(1);

    let inputs = Inputs::generate(spec, &plan, options.seed);
    let script = Script::build(spec, &plan, &inputs, options.seed);
    let encoded: Vec<Encoded> =
        script.blocks.iter().map(|block| script.encode(spec, &inputs, block)).collect();
    let input_bytes: usize = encoded.iter().map(|e| e.tx[0].len() + e.tx[1].len()).sum();
    let poi_bytes = encode_pois(&inputs.pois);
    let clock = Instant::now();

    // Set-up, repeated on fresh children; the last one stays for the measured windows.  The
    // traced mode reports no set-up time, so one start is enough there.
    let reps = if options.trace { 1 } else { plan.setup_reps };
    let mut setup_s = Vec::with_capacity(reps);
    let mut live = None;
    for _ in 0..reps {
        if let Some(Live { server, generator, .. }) = live.take() {
            drop(generator);
            server.finish()?;
        }
        let (started, seconds) = cold_start(&script, &encoded, &poi_bytes, server_cpu, clock)?;
        setup_s.push(seconds);
        live = Some(started);
    }
    let Live { mut server, mut generator, mut logs } = live.expect("at least one set-up ran");
    let server_pinned = server.pinned;
    let bulk_load_ms = server.bulk_load_ns as f64 / 1e6;
    println!(
        "{:<36} {}",
        "pinned (generator, server)",
        format_args!("{generator_pinned}, {server_pinned}")
    );

    let pid = server.pid();
    let cpu = move || procfs::cpu_ns(pid).unwrap_or(0);
    let paced_at = script.first_block(BlockKind::Paced);
    let paced_block = &script.blocks[paced_at];
    // The server's CPU clock is read whenever the first epoch of a new sub-window is due.
    let marks: Vec<u64> = (2..=plan.paced_epochs)
        .filter(|&e| plan.sub_window_of(e) != plan.sub_window_of(e - 1))
        .map(|e| spec.slot_due_ns(e, 0))
        .collect();

    let before_paced = server.snapshot()?;
    logs.push(generator.run_block(paced_block, &encoded[paced_at], &marks, &cpu)?);
    let after_paced = server.snapshot()?;
    for (block, encoded) in script.blocks.iter().zip(&encoded).skip(paced_at + 1) {
        logs.push(generator.run_block(block, encoded, &[], &cpu)?);
    }
    let rss_kb = procfs::peak_rss_kb(pid).unwrap_or(0);
    let Generator { conns, .. } = generator;
    let last = server.finish()?;

    let verdict = oracle::verify(&RunView {
        spec,
        inputs: &inputs,
        script: &script,
        conns: &conns,
        logs: &logs,
        encoded: &encoded,
        limit_ns: LIMIT_PERIODS * spec.period_ms * 1_000_000,
    });

    let mut failures = verdict.failures;
    // A connection the server closed, or work it still held when it stopped, is a failure
    // whatever the oracle saw.
    for key in ["closed_malformed", "closed_backpressure", "closed_error", "pending", "backlog"] {
        failures.protocol += last.get(key) as usize;
    }
    let attempted: usize = script.blocks.iter().map(|block| block.reports).sum();
    let failed = failures.total();
    // A late answer is a failed operation but not a wrong one.
    let correct = failed == failures.over_limit;

    let paced_log = &logs[paced_at];
    let paced = PacedWindow::measure(spec, &plan, &script, paced_log, &encoded[paced_at], &verdict);
    let paced_reports = paced_block.reports as f64;
    let mut metrics = Metrics::default();

    // End to end.
    metrics.set("setup_s", stats::median(&setup_s));
    metrics.set(
        "packets_per_epoch",
        (verdict.paced_request_packets + verdict.paced.packets) as f64
            / (spec.groups * plan.paced_epochs) as f64,
    );
    metrics.set(
        "wire_bytes_per_report",
        (paced_log.tx_bytes + verdict.paced.frame_bytes) as f64 / paced_reports,
    );
    metrics.set("server_rss_mb", rss_kb as f64 / 1024.0);

    if options.trace {
        let sat_reports = script.blocks[paced_at + 1..].iter().map(|block| block.reports).sum();
        per_layer_counts(
            &mut metrics,
            spec,
            &paced,
            &verdict,
            (&before_paced, &after_paced, &last),
            (&logs[paced_at + 1..], sat_reports),
        );
        metrics.set("mobility.gen_s", inputs.gen_s);
        metrics.set("loadgen.input_mb", input_bytes as f64 / (1 << 20) as f64);
        metrics.set("loadgen.failed_share", failed as f64 / attempted as f64);
        trace::run(spec, &plan, &inputs, &script, options.smoke, &mut metrics)?;
        // The child's own bulk load, the one a cold start pays, next to the traced run's.
        println!("{:<36} {bulk_load_ms:>16.4} ms", "server child bulk load");
    }

    println!("{:<36} {:?}", "set-up times (s)", setup_s);
    println!(
        "{:<36} p50/p90 from {} notifications in {} sub-windows",
        "latency samples",
        paced.notifications,
        plan.sub_windows()
    );
    println!("{:<36} {:>16.4} share", "server utilisation (paced)", paced.server_utilisation);
    println!("{:<36} {:>16.4} ms", "send lag p50", paced.send_lag_p50_ms);
    println!("{:<36} {:.1?}", "server cpu/report by sub-window (us)", paced.cpu_us_by_sub_window);
    println!("{:<36} {:>16.4} us", "server cpu/report (quiet quartile)", paced.cpu_us_per_report);
    println!("{:<36} {:>16.4} ms", "notify p50 (quiet quartile)", paced.notify_p50_ms);
    println!("{:<36} {:>16.4} ms", "notify p90 (quiet quartile)", paced.notify_p90_ms);
    println!("{:<36} {}", "meeting points checked", verdict.meeting_points_checked);
    println!("{:<36} {}", "world changes acknowledged", verdict.world_changes_acked);
    println!("{:<36} {failures:?}", "failures");
    metrics.print();
    println!("{:<36} {attempted}", "attempted");
    println!("{:<36} {failed}", "failed");
    println!("{:<36} {correct}", "correct");

    let table = if options.trace { PER_LAYER } else { END_TO_END };
    let result_line = report::result_line(&metrics, table, correct, attempted, failed);
    Ok(Outcome { correct, result_line })
}

/// What the paced window measured on the generator's side.
struct PacedWindow {
    notify_p50_ms: f64,
    notify_p90_ms: f64,
    notify_p99_ms: f64,
    notify_top_ms: f64,
    notifications: usize,
    cpu_us_per_report: f64,
    cpu_us_by_sub_window: Vec<f64>,
    server_utilisation: f64,
    send_lag_p50_ms: f64,
    send_lag_p99_ms: f64,
    own_cpu_share: f64,
}

impl PacedWindow {
    fn measure(
        spec: &Spec,
        plan: &Plan,
        script: &Script,
        log: &BlockLog,
        encoded: &Encoded,
        verdict: &Verdict,
    ) -> Self {
        let block = &script.blocks[script.first_block(BlockKind::Paced)];
        let period_ns = spec.slot_due_ns(2, 0);
        let window_ns = spec.slot_due_ns(plan.paced_epochs + 1, 0);
        let sub_window_of = |due_ns: u64| plan.sub_window_of((due_ns / period_ns) as usize + 1);
        // Notification latency: percentiles per sub-window, then their lower quartile.
        let mut windows = vec![Vec::new(); plan.sub_windows()];
        let mut all = Vec::with_capacity(verdict.latencies_ms.len());
        for &(due_ns, ms) in &verdict.latencies_ms {
            windows[sub_window_of(due_ns - log.t0_ns)].push(ms);
            all.push(ms);
        }
        stats::sort(&mut all);

        // Server CPU per report: the CPU clock was read at every sub-window boundary.
        let mut reports = vec![0usize; plan.sub_windows()];
        let mut lags = Vec::with_capacity(block.slots.len());
        for (slot, &end) in block.slots.iter().zip(&encoded.slot_end) {
            let sent = script.ops[slot.ops.clone()]
                .iter()
                .filter(|op| matches!(op, Op::Report { .. }))
                .count();
            if slot.due_ns < window_ns {
                reports[sub_window_of(slot.due_ns)] += sent;
                let lag = log.sent_ns(slot.conn, end).saturating_sub(log.t0_ns + slot.due_ns);
                lags.push(lag as f64 / 1e6);
            }
        }
        stats::sort(&mut lags);
        let cpu_us: Vec<f64> = log
            .cpu_marks
            .windows(2)
            .zip(&reports)
            .filter(|(_, &n)| n > 0)
            .map(|(marks, &n)| (marks[1] - marks[0]) as f64 / 1e3 / n as f64)
            .collect();
        let cpu_total = log.cpu_marks.last().expect("marks") - log.cpu_marks[0];
        let wall = (log.end_ns - log.t0_ns) as f64;
        Self {
            notify_p50_ms: stats::quiet_quartile_of(&windows, |s| stats::percentile(s, 50.0)),
            notify_p90_ms: stats::quiet_quartile_of(&windows, |s| stats::percentile(s, 90.0)),
            notify_p99_ms: stats::percentile(&all, 99.0),
            notify_top_ms: stats::top_percentile(&all).1,
            notifications: all.len(),
            cpu_us_per_report: stats::quiet_quartile(&cpu_us),
            cpu_us_by_sub_window: cpu_us,
            server_utilisation: cpu_total as f64 / wall,
            send_lag_p50_ms: stats::percentile(&lags, 50.0),
            send_lag_p99_ms: stats::percentile(&lags, 99.0),
            own_cpu_share: log.own_cpu_ns as f64 / wall,
        }
    }
}

/// The per-layer metrics that are counts: the server child's counters over the paced window
/// and what the generator saw.
fn per_layer_counts(
    metrics: &mut Metrics,
    spec: &Spec,
    paced: &PacedWindow,
    verdict: &Verdict,
    (before, after, last): (&ServerStats, &ServerStats, &ServerStats),
    (saturation, sat_reports): (&[BlockLog], usize),
) {
    let d = |key: &str| after.since(before, key);
    let reports = d("advanced");
    metrics.set("net.reports_per_tick", ratio(d("requests"), d("ticks")));
    metrics.set("net.bytes_in_per_report", ratio(d("bytes_in"), reports));
    metrics.set("net.bytes_out_per_report", ratio(d("bytes_out"), reports));
    metrics.set("net.outbox_peak_bytes", last.get("outbox_peak") as f64);
    metrics.set("net.paused", last.get("paused") as f64);
    metrics.set("net.closed_backpressure", last.get("closed_backpressure") as f64);
    metrics.set("net.closed_error", last.get("closed_error") as f64);
    metrics.set(
        "proto.packets_per_response",
        ratio(verdict.paced.packets as u64, verdict.paced.frames as u64),
    );
    metrics.set("sim.updated_share", ratio(d("updated"), reports));
    metrics.set("sim.starved_share", ratio(d("starved"), d("starved") + reports));
    metrics.set("sim.violators_per_update", ratio(d("violators"), d("updated")));
    let updates = d("updates");
    metrics.set("core.updates_per_report", ratio(updates, reports));
    metrics.set("core.rtree_queries_per_update", ratio(d("rtree_queries"), updates));
    metrics.set("core.verify_calls_per_update", ratio(d("verify_calls"), updates));
    metrics.set("core.candidates_checked_per_update", ratio(d("candidates_checked"), updates));
    metrics.set("core.tiles_accepted_per_update", ratio(d("tiles_accepted"), updates));
    metrics.set(
        "core.tile_reject_share",
        ratio(d("tiles_rejected"), d("tiles_rejected") + d("tiles_accepted")),
    );
    // With persistent buffers an update issues the Circle seed query and, only when the
    // buffer had to be rebuilt, a second one.
    let reuse = if spec.config.persist_buffers {
        1.0 - ratio(d("rtree_queries").saturating_sub(updates), updates)
    } else {
        0.0
    };
    metrics.set("core.buffer_reuse_share", reuse);
    metrics.set(
        "core.region_values_per_update",
        ratio(verdict.paced.region_values as u64, verdict.paced.region_sets as u64),
    );
    metrics.set("index.overlay_len", last.get("overlay_len") as f64);
    metrics.set("index.compactions", last.get("compactions") as f64);

    metrics.set("loadgen.cpu_share", paced.own_cpu_share);
    metrics.set("loadgen.send_lag_p50_ms", paced.send_lag_p50_ms);
    metrics.set("loadgen.send_lag_p99_ms", paced.send_lag_p99_ms);
    metrics.set("loadgen.server_utilisation", paced.server_utilisation);
    metrics.set("loadgen.server_cpu_us_per_report", paced.cpu_us_per_report);
    metrics.set("loadgen.notify_p50_ms", paced.notify_p50_ms);
    metrics.set("loadgen.notify_p90_ms", paced.notify_p90_ms);
    metrics.set("loadgen.notify_p99_ms", paced.notify_p99_ms);
    metrics.set("loadgen.notify_ptop_ms", paced.notify_top_ms);
    metrics.set("loadgen.notifications_expected", verdict.notifications_expected as f64);
    metrics.set("loadgen.notifications_received", verdict.notifications_received as f64);

    // Saturation: the closed loop's rate, and whether the server or the generator set it.
    let wall: u64 = saturation.iter().map(|log| log.end_ns - log.t0_ns).sum();
    let cpu: u64 =
        saturation.iter().map(|log| log.cpu_marks.last().expect("marks") - log.cpu_marks[0]).sum();
    metrics.set("loadgen.sat_reports_per_s", sat_reports as f64 / (wall as f64 / 1e9));
    metrics.set("loadgen.client_bound", f64::from(u8::from(ratio(cpu, wall) < 0.9)));
}
