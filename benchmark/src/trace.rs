//! The traced run: the same operations replayed in-process at three depths, with a span
//! around every call into a layer's public functions.
//!
//! After the same set-up, an eighth of the paced window's reports is replayed at the *engine*
//! depth (`MonitoringEngine::register_session/submit/tick/drain_events`), the *core* depth
//! (`ServerCore::enqueue/process`) and the *wire* depth (`MuxServer::poll_once` driven by this
//! thread over loopback).  The difference between adjacent depths is the layer between them.
//! What lies below the engine is split by standalone replays of what the engine depth
//! recorded: the safe-region computations, the index queries they issue, and the codec calls
//! of the wire depth.
//!
//! All replays advance in lock-step, slot by slot: the host's speed for memory-bound code
//! drifts by tens of percent over seconds, and a difference between two replays run one after
//! the other would mostly measure that drift.  Stepped together, every replay sees the same
//! drift, and it cancels in the differences.
//!
//! Spans are recorded from the benchmark's own files only, so a call made many times in a row
//! (one `submit` per report of a slot) shares one span carrying the call count; the clock is
//! read twice per slot and layer, not twice per report.  Spans stay in memory and are written
//! to `benchmark/out/trace-<workload>.json` when the run ends.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mpn_core::{ComputeStats, EngineContext, SafeRegion, SafeRegionEngine, SessionState};
use mpn_geom::Point;
use mpn_index::{IndexView, PoiEntry, QueryCache, QueryStats, RTree, WorldView};
use mpn_net::{encode_batch, MuxConfig, MuxServer};
use mpn_proto::{FrameReader, Request, Response, WireMethod, WireObjective};
use mpn_sim::{
    monitor_config, ClientId, EpochUpdate, GroupSession, MonitorConfig, MonitoringEngine,
    ServerCore, SessionEvent, TickExecutor, WorldChange,
};

use crate::report::Metrics;
use crate::stats;
use crate::workload::{request_for, BlockKind, Inputs, Op, Plan, Script, Spec, GROUP_SIZE};

/// One timed interval: a call (or a run of identical calls) into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<u32>,
    /// The script slot the work belongs to; spans of one slot share it.
    pub tick: u32,
    /// How many calls the span covers.
    pub calls: u32,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans in memory.
pub struct Tracer {
    clock: Instant,
    pub spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// All tracers of a traced run share one clock, so their spans line up in the output.
    pub fn new(clock: Instant) -> Self {
        Self { clock, spans: Vec::new(), open: Vec::new() }
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, tick: u32) {
        let parent = self.open.last().copied();
        self.open.push(self.spans.len() as u32);
        let start_ns = self.clock.elapsed().as_nanos() as u64;
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, tick, calls: 0 });
    }

    /// Closes the innermost open span, which covered `calls` calls; returns its duration.
    pub fn exit(&mut self, calls: usize) -> u64 {
        let end_ns = self.clock.elapsed().as_nanos() as u64;
        let id = self.open.pop().expect("exit() follows enter()");
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.calls = calls as u32;
        span.ns()
    }

    /// Total time and calls of the spans with this name at or after tick `from`.
    pub fn total(&self, name: &str, from: u32) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.tick >= from)
            .fold((0, 0), |(ns, calls), s| (ns + s.ns(), calls + u64::from(s.calls)))
    }

    /// Self time per span name: a span's duration minus what its children cover.
    pub fn self_times(&self) -> Vec<(&'static str, u64)> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent as usize] = own[parent as usize].saturating_sub(span.ns());
            }
        }
        let mut by_name: Vec<(&'static str, u64)> = Vec::new();
        for (span, ns) in self.spans.iter().zip(own) {
            match by_name.iter_mut().find(|(name, _)| *name == span.name) {
                Some((_, total)) => *total += ns,
                None => by_name.push((span.name, ns)),
            }
        }
        by_name
    }

    /// What one `enter`/`exit` pair costs, measured on a scratch tracer.
    fn cost_per_span_ns() -> f64 {
        const PAIRS: usize = 100_000;
        let mut scratch = Tracer::new(Instant::now());
        scratch.spans.reserve(PAIRS);
        let started = Instant::now();
        for _ in 0..PAIRS {
            scratch.enter("calibration", 0);
            scratch.exit(1);
        }
        std::hint::black_box(&scratch.spans);
        started.elapsed().as_nanos() as f64 / PAIRS as f64
    }

    /// Appends the spans as JSON objects, one per line, tagged with the replay they belong to.
    fn write_json(&self, replay: &str, first: &mut bool, out: &mut impl Write) -> io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_owned(), |p| p.to_string());
            let comma = if std::mem::take(first) { "" } else { ",\n" };
            write!(
                out,
                "{comma}{{\"replay\":\"{replay}\",\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\
                 \"end_ns\":{},\"parent\":{parent},\"tick\":{},\"calls\":{}}}",
                s.name, s.start_ns, s.end_ns, s.tick, s.calls
            )?;
        }
        Ok(())
    }
}

/// One slot of the traced prefix: the script's slot restricted to the traced groups.
struct TracedSlot {
    tick: u32,
    conn: usize,
    ops: Vec<Op>,
}

/// What every replay works from: the workload, the traced slots and the ids the server will
/// assign when only the traced groups register.
struct Prefix<'a> {
    spec: &'a Spec,
    inputs: &'a Inputs,
    slots: Vec<TracedSlot>,
    wire_id: Vec<u64>,
    /// Tick id of the first paced slot; budget numbers count spans from here on.
    paced_from: u32,
    /// Reports and requests of the paced part.
    reports: usize,
    requests: usize,
}

impl<'a> Prefix<'a> {
    /// The whole set-up, then as many paced epochs as hold an eighth of the window's reports,
    /// for the first `trace_groups` groups.  Fences are skipped: in one thread the replay
    /// knows when the server is done.
    fn of(spec: &'a Spec, plan: &Plan, inputs: &'a Inputs, script: &Script, groups: usize) -> Self {
        let traced = |g: u32| (g as usize) < groups;
        let epochs = (plan.paced_epochs * spec.groups).div_ceil(8 * groups);
        let horizon =
            (epochs.clamp(1, plan.paced_epochs) * spec.slots_per_epoch()) as u64 * spec.slot_ns();
        let mut prefix = Self {
            spec,
            inputs,
            slots: Vec::new(),
            wire_id: vec![u64::MAX; spec.groups],
            paced_from: u32::MAX,
            reports: 0,
            requests: 0,
        };
        let mut registered = 0;
        for block in &script.blocks {
            let paced = match block.kind {
                BlockKind::Setup => false,
                BlockKind::Paced => true,
                BlockKind::Saturation => break,
            };
            for slot in block.slots.iter().filter(|slot| !paced || slot.due_ns < horizon) {
                let ops: Vec<Op> = script.ops[slot.ops.clone()]
                    .iter()
                    .copied()
                    .filter(|op| match *op {
                        Op::Register { g } | Op::Report { g, .. } | Op::Deregister { g } => {
                            traced(g)
                        }
                        Op::AdminDelete { .. } | Op::AdminInsert { .. } => true,
                        Op::Fence { .. } => false,
                    })
                    .collect();
                if ops.is_empty() {
                    continue;
                }
                for op in &ops {
                    // First registrations number the groups; a later one reuses the id its
                    // group just freed.
                    if let (Op::Register { g }, false) = (*op, paced) {
                        prefix.wire_id[g as usize] = registered;
                        registered += 1;
                    }
                }
                if paced {
                    prefix.paced_from = prefix.paced_from.min(slot.tick);
                    prefix.requests += ops.len();
                    prefix.reports +=
                        ops.iter().filter(|op| matches!(op, Op::Report { .. })).count();
                }
                prefix.slots.push(TracedSlot { tick: slot.tick, conn: slot.conn, ops });
            }
        }
        prefix
    }

    fn request(&self, op: Op) -> Request {
        request_for(self.spec, self.inputs, &self.wire_id, op)
    }

    fn encode(&self, slot: &TracedSlot, out: &mut Vec<u8>) {
        out.clear();
        for &op in &slot.ops {
            self.request(op).encode(out);
        }
    }
}

/// Maximal runs of operations of one kind, so each run is one span.
fn runs(ops: &[Op]) -> impl Iterator<Item = &[Op]> {
    ops.chunk_by(|a, b| std::mem::discriminant(a) == std::mem::discriminant(b))
}

/// One safe-region computation the engine depth performed, for the standalone replay.
#[derive(Debug, Clone, Copy)]
struct ComputeRec {
    g: u32,
    /// Epoch of the positions the computation ran on.
    e: u32,
    /// The first computation of a (re-)registered session.
    first: bool,
}

/// What the standalone replay must do, in the order the engine did it.
#[derive(Debug, Clone, Copy)]
enum Recorded {
    Compute(ComputeRec),
    Change(WorldChange),
}

/// How the engine under an engine-depth replay is configured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Variant {
    /// Library defaults, as the server child runs: one shard, no cache.
    Default,
    /// A fleet-wide `QueryCache::new()` attached.
    Cached,
    /// Two shards on the work-stealing executor.
    TwoShards,
}

/// The engine depth: `MonitoringEngine` driven directly with decoded values.
struct EngineReplay {
    engine: MonitoringEngine,
    config: MonitorConfig,
    tracer: Tracer,
    /// Engine id per group, and back.
    ids: Vec<usize>,
    group_of: HashMap<usize, u32>,
    /// Per group: the epoch of her last submitted report, and whether her session has
    /// computed since it registered.
    last_epoch: Vec<u32>,
    computed: Vec<bool>,
    changes: usize,
    invalidated: usize,
}

impl EngineReplay {
    fn new(prefix: &Prefix<'_>, tree: &Arc<RTree>, variant: Variant, clock: Instant) -> Self {
        let engine = match variant {
            Variant::Default => MonitoringEngine::new(Arc::clone(tree), 1),
            Variant::Cached => {
                MonitoringEngine::new(Arc::clone(tree), 1).with_query_cache(QueryCache::new())
            }
            Variant::TwoShards => MonitoringEngine::with_executor(
                Arc::clone(tree),
                2,
                TickExecutor::WorkStealing { batch: 64 },
            ),
        };
        Self {
            engine,
            config: monitor_config(&prefix.spec.config),
            tracer: Tracer::new(clock),
            ids: vec![usize::MAX; prefix.spec.groups],
            group_of: HashMap::new(),
            last_epoch: vec![0; prefix.spec.groups],
            computed: vec![false; prefix.spec.groups],
            changes: 0,
            invalidated: 0,
        }
    }

    /// Applies one slot and ticks once; appends what the engine computed to `recorded`.
    fn step(&mut self, prefix: &Prefix<'_>, slot: &TracedSlot, recorded: &mut Vec<Recorded>) {
        let tick = slot.tick;
        // Engine ids pushed to by this slot's world changes.
        let mut pushed: Vec<usize> = Vec::new();
        self.tracer.enter("engine.slot", tick);
        for run in runs(&slot.ops) {
            match run[0] {
                Op::Register { .. } => {
                    self.tracer.enter("sim.engine.register_session", tick);
                    for op in run {
                        let Op::Register { g } = *op else { unreachable!("a run has one kind") };
                        let session =
                            GroupSession::streaming(GROUP_SIZE, self.config).with_events(true);
                        let id = self.engine.register_session(session);
                        self.ids[g as usize] = id;
                        self.group_of.insert(id, g);
                        self.computed[g as usize] = false;
                    }
                    self.tracer.exit(run.len());
                }
                Op::Report { .. } => {
                    let updates: Vec<EpochUpdate> = run
                        .iter()
                        .map(|op| {
                            let Op::Report { g, e } = *op else {
                                unreachable!("a run has one kind")
                            };
                            self.last_epoch[g as usize] = e;
                            EpochUpdate {
                                group_id: self.ids[g as usize],
                                positions: prefix.inputs.at(g as usize, e as usize).to_vec(),
                            }
                        })
                        .collect();
                    self.tracer.enter("sim.engine.submit", tick);
                    for update in updates {
                        self.engine.submit(update).expect("the script reports registered groups");
                    }
                    self.tracer.exit(run.len());
                }
                Op::Deregister { .. } => {
                    self.tracer.enter("sim.engine.deregister", tick);
                    for op in run {
                        let Op::Deregister { g } = *op else { unreachable!("a run has one kind") };
                        self.engine
                            .deregister(self.ids[g as usize])
                            .expect("the group was registered");
                    }
                    self.tracer.exit(run.len());
                }
                Op::AdminDelete { .. } | Op::AdminInsert { .. } => {
                    for op in run {
                        let change = match *op {
                            Op::AdminDelete { poi } => WorldChange::PoiDelete { poi: poi as usize },
                            Op::AdminInsert { at } => WorldChange::PoiInsert { location: at },
                            _ => unreachable!("a run has one kind"),
                        };
                        self.tracer.enter("sim.engine.apply_world_change", tick);
                        let summary = self.engine.apply_world_change(change);
                        self.tracer.exit(1);
                        self.changes += 1;
                        self.invalidated += summary.invalidated;
                        recorded.push(Recorded::Change(change));
                        for id in summary.affected {
                            pushed.push(id);
                            let g = self.group_of[&id];
                            recorded.push(Recorded::Compute(ComputeRec {
                                g,
                                e: self.last_epoch[g as usize],
                                first: false,
                            }));
                        }
                    }
                }
                Op::Fence { .. } => {}
            }
        }
        self.tracer.enter("sim.engine.tick", tick);
        self.engine.tick();
        self.tracer.exit(1);
        self.tracer.enter("sim.engine.drain_events", tick);
        let events = self.engine.drain_events();
        self.tracer.exit(1);
        // One `Assigned` for user 0 per computation.  A group pushed to in this slot logged
        // the push first (recorded with the change above); anything else is the tick's.
        for (id, event) in &events {
            if !matches!(event, SessionEvent::Assigned { user: 0, .. }) {
                continue;
            }
            if let Some(at) = pushed.iter().position(|p| p == id) {
                pushed.swap_remove(at);
                continue;
            }
            let g = self.group_of[id];
            recorded.push(Recorded::Compute(ComputeRec {
                g,
                e: self.last_epoch[g as usize],
                first: !std::mem::replace(&mut self.computed[g as usize], true),
            }));
        }
        debug_assert!(pushed.is_empty(), "every push logged its regions");
        self.tracer.exit(0);
    }

    /// Time in the engine's public functions at or after tick `from`.
    fn total(&self, from: u32) -> u64 {
        [
            "sim.engine.register_session",
            "sim.engine.submit",
            "sim.engine.deregister",
            "sim.engine.apply_world_change",
            "sim.engine.tick",
            "sim.engine.drain_events",
        ]
        .iter()
        .map(|name| self.tracer.total(name, from).0)
        .sum()
    }
}

/// The client a connection is at the core depth (the server numbers clients from 1).
fn client_of(conn: usize) -> ClientId {
    conn as ClientId + 1
}

/// The core depth: `ServerCore` fed decoded requests.
struct CoreReplay {
    core: ServerCore,
    tracer: Tracer,
}

impl CoreReplay {
    fn new(tree: &Arc<RTree>, clock: Instant) -> Self {
        let mut core = ServerCore::new(Arc::clone(tree), 1);
        core.grant_admin(client_of(0));
        Self { core, tracer: Tracer::new(clock) }
    }

    /// Applies one slot; returns the responses addressed to each client.
    fn step(&mut self, prefix: &Prefix<'_>, slot: &TracedSlot) -> [Vec<Response>; 2] {
        let tick = slot.tick;
        self.tracer.enter("core.slot", tick);
        let requests: Vec<Request> = slot.ops.iter().map(|&op| prefix.request(op)).collect();
        let count = requests.len();
        self.tracer.enter("sim.server.enqueue", tick);
        for request in requests {
            self.core.enqueue(client_of(slot.conn), request);
        }
        self.tracer.exit(count);
        self.tracer.enter("sim.server.process", tick);
        let output = self.core.process();
        self.tracer.exit(1);
        self.tracer.exit(0);
        let mut per_client: [Vec<Response>; 2] = [Vec::new(), Vec::new()];
        for (to, response) in output.responses {
            per_client[(to - 1) as usize].push(response);
        }
        per_client
    }
}

/// The wire depth: a `MuxServer` polled by this thread, with two loopback clients.
struct WireReplay {
    server: MuxServer,
    clients: Vec<TcpStream>,
    tracer: Tracer,
    sink: Vec<u8>,
}

impl WireReplay {
    fn new(tree: &Arc<RTree>, clock: Instant) -> io::Result<Self> {
        let core = ServerCore::new(Arc::clone(tree), 1);
        let mut server = MuxServer::bind("127.0.0.1:0", core, MuxConfig::default())?;
        server.core_mut().grant_admin(client_of(0));
        let port = server.local_addr()?.port();
        let mut clients = Vec::new();
        for _ in 0..2 {
            let stream = TcpStream::connect(("127.0.0.1", port))?;
            stream.set_nodelay(true)?;
            stream.set_nonblocking(true)?;
            // Accept now, so the next connection is numbered after this one.
            server.poll_once(Some(Duration::ZERO))?;
            clients.push(stream);
        }
        Ok(Self { server, clients, tracer: Tracer::new(clock), sink: vec![0u8; 256 << 10] })
    }

    /// Writes one slot's bytes, polls until the server has nothing left to do, and drains
    /// what it answered.
    fn step(&mut self, slot: &TracedSlot, bytes: &[u8]) -> io::Result<()> {
        let tick = slot.tick;
        self.tracer.enter("wire.slot", tick);
        let mut written = 0;
        loop {
            if written < bytes.len() {
                match self.clients[slot.conn].write(&bytes[written..]) {
                    Ok(n) => written += n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                    Err(e) => return Err(e),
                }
            }
            self.tracer.enter("net.mux.poll_once", tick);
            let events = self.server.poll_once(Some(Duration::ZERO))?;
            self.tracer.exit(1);
            for client in &mut self.clients {
                loop {
                    match client.read(&mut self.sink) {
                        Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                        Ok(_) => {}
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) => return Err(e),
                    }
                }
            }
            let idle =
                events == 0 && !self.server.core().has_work() && self.server.outbox_bytes() == 0;
            if written == bytes.len() && idle {
                break;
            }
        }
        self.tracer.exit(0);
        Ok(())
    }
}

/// Work of the index queries inside the recorded computations, and what the standalone
/// replays of such queries cost per unit of it.
#[derive(Default)]
struct IndexModel {
    gnn_queries: usize,
    gnn_ns: u64,
    gnn_work: usize,
    candidate_queries: usize,
    candidate_replays: usize,
    candidate_ns: u64,
    candidate_work: usize,
    candidates_returned: usize,
}

fn work(stats: QueryStats) -> usize {
    stats.nodes_visited + stats.points_examined
}

/// The computations the engine depth performed, replayed on their own: each recorded
/// `compute`, each world change, and the index queries such a computation issues.
struct ComputeReplay {
    engine: Box<dyn SafeRegionEngine>,
    config: MonitorConfig,
    world: WorldView,
    sessions: Vec<SessionState>,
    /// The next epoch each session's heading predictors have not seen yet.
    observed: Vec<u32>,
    tracer: Tracer,
    /// Totals over the paced part.
    stats: ComputeStats,
    computes: usize,
    compute_us: Vec<f64>,
    model: IndexModel,
    neighbors: Vec<mpn_index::GnnNeighbor>,
    candidates: Vec<PoiEntry>,
}

impl ComputeReplay {
    fn new(prefix: &Prefix<'_>, tree: &Arc<RTree>, clock: Instant) -> Self {
        let config = monitor_config(&prefix.spec.config);
        let mut replay = Self {
            engine: config.method.engine(),
            config,
            world: WorldView::new(Arc::clone(tree)),
            sessions: Vec::new(),
            observed: vec![0; prefix.spec.groups],
            tracer: Tracer::new(clock),
            stats: ComputeStats::default(),
            computes: 0,
            compute_us: Vec::new(),
            model: IndexModel::default(),
            neighbors: Vec::new(),
            candidates: Vec::new(),
        };
        replay.sessions = (0..prefix.spec.groups).map(|_| replay.fresh()).collect();
        replay
    }

    fn fresh(&self) -> SessionState {
        SessionState::new(GROUP_SIZE, self.config.heading_smoothing)
            .with_persistent_buffers(self.config.persist_buffers)
    }

    fn step(&mut self, prefix: &Prefix<'_>, slot: &TracedSlot, recorded: &[Recorded]) {
        let tick = slot.tick;
        let paced = tick >= prefix.paced_from;
        let method = prefix.spec.config.method;
        for record in recorded {
            let rec = match *record {
                Recorded::Change(WorldChange::PoiDelete { poi }) => {
                    self.tracer.enter("index.world.delete", tick);
                    self.world.delete(poi).expect("the script deletes live POIs");
                    self.tracer.exit(1);
                    continue;
                }
                Recorded::Change(WorldChange::PoiInsert { location }) => {
                    self.tracer.enter("index.world.insert", tick);
                    self.world.insert(location);
                    self.tracer.exit(1);
                    continue;
                }
                Recorded::Compute(rec) => rec,
            };
            let g = rec.g as usize;
            if rec.first {
                self.sessions[g] = self.fresh();
                self.observed[g] = rec.e;
            }
            // The session sees every epoch it consumed: `GroupSession::advance` feeds the
            // heading predictors before it checks for violations.
            for e in self.observed[g]..=rec.e {
                self.sessions[g].observe(prefix.inputs.at(g, e as usize));
            }
            self.observed[g] = rec.e + 1;
            let users = prefix.inputs.at(g, rec.e as usize);
            let view = self.world.view();
            let ctx = EngineContext::new(view, self.config.objective);
            self.tracer.enter("core.engine.compute", tick);
            let answer_stats = self.engine.compute(ctx, users, &mut self.sessions[g]).stats;
            let compute_ns = self.tracer.exit(1);
            if paced {
                self.computes += 1;
                self.stats.absorb(&answer_stats);
                self.compute_us.push(compute_ns as f64 / 1e3);
            }

            // The queries such a computation issues, on their own: the Circle seed's top-2,
            // the §5.4 buffer's top-(b+1) when one was built, and a candidate retrieval at
            // the radii the finished regions imply.
            let (gnn_queries, k) = match method {
                WireMethod::TileDirectedBuffered { buffer, .. }
                    if answer_stats.rtree_queries > 1 =>
                {
                    (2, buffer as usize + 1)
                }
                _ => (1, 2),
            };
            let aggregate = self.config.objective.aggregate();
            self.tracer.enter("index.view.top_k", tick);
            let gnn = view.top_k_into(users, aggregate, k, &mut self.neighbors);
            let gnn_ns = self.tracer.exit(1);
            if paced {
                self.model.gnn_queries += gnn_queries;
                self.model.gnn_ns += gnn_ns;
                self.model.gnn_work += work(gnn);
            }
            if matches!(method, WireMethod::Tile | WireMethod::TileDirected { .. }) {
                let answer = self.sessions[g].last_answer().expect("just computed");
                let (stats, ns) = replay_candidates(
                    &mut self.tracer,
                    tick,
                    view,
                    users,
                    answer.optimal_point,
                    &answer.regions,
                    prefix.spec.config.objective,
                    &mut self.candidates,
                );
                if paced {
                    self.model.candidate_queries += answer_stats.rtree_queries - gnn_queries;
                    self.model.candidate_replays += 1;
                    self.model.candidate_ns += ns;
                    self.model.candidate_work += work(stats);
                    self.model.candidates_returned += self.candidates.len();
                }
            }
        }
    }
}

/// The candidate retrieval of the tile method at the state the finished regions imply: the
/// widest (and last) such query of the computation.  Returns its statistics and duration.
#[allow(clippy::too_many_arguments)]
fn replay_candidates(
    tracer: &mut Tracer,
    tick: u32,
    view: IndexView<'_>,
    users: &[Point],
    optimum: Point,
    regions: &[SafeRegion],
    objective: WireObjective,
    out: &mut Vec<PoiEntry>,
) -> (QueryStats, u64) {
    let reach: Vec<f64> = regions.iter().zip(users).map(|(r, u)| r.max_dist(*u)).collect();
    match objective {
        WireObjective::Max => {
            let dominant = regions.iter().map(|r| r.max_dist(optimum)).fold(0.0, f64::max);
            let radii: Vec<f64> = reach.iter().map(|r| dominant + r).collect();
            tracer.enter("index.view.candidates_within_user_radii", tick);
            let stats = view.candidates_within_user_radii_into(users, &radii, out);
            (stats, tracer.exit(1))
        }
        WireObjective::Sum => {
            let base: f64 = users.iter().map(|u| optimum.dist(*u)).sum();
            let threshold = base + 2.0 * reach.iter().sum::<f64>();
            tracer.enter("index.view.candidates_within_sum_radius", tick);
            let stats = view.candidates_within_sum_radius_into(users, threshold, out);
            (stats, tracer.exit(1))
        }
    }
}

/// The codec calls of the wire depth on their own: the frame reader over a slot's request
/// bytes, the batch encoder over the batches the core produced for it.
struct ProtoReplay {
    tracer: Tracer,
    request_bytes: usize,
    response_bytes: usize,
    responses: usize,
    wire: Vec<u8>,
}

impl ProtoReplay {
    fn new(clock: Instant) -> Self {
        Self {
            tracer: Tracer::new(clock),
            request_bytes: 0,
            response_bytes: 0,
            responses: 0,
            wire: Vec::new(),
        }
    }

    fn step(&mut self, slot: &TracedSlot, bytes: &[u8], batches: &[Vec<Response>; 2]) {
        let tick = slot.tick;
        self.request_bytes += bytes.len();
        let mut reader = FrameReader::new();
        self.tracer.enter("proto.frame_reader.next_request", tick);
        reader.feed(bytes);
        let mut decoded = 0;
        while let Some(request) = reader.next_request().expect("the script encodes valid frames") {
            std::hint::black_box(&request);
            decoded += 1;
        }
        self.tracer.exit(decoded);
        for batch in batches.iter().filter(|batch| !batch.is_empty()) {
            self.wire.clear();
            self.tracer.enter("proto.encode_batch", tick);
            encode_batch(batch, &mut self.wire);
            self.tracer.exit(batch.len());
            std::hint::black_box(&self.wire);
            self.response_bytes += self.wire.len() - 4;
            self.responses += batch.len();
        }
    }
}

/// A total per count, e.g. nanoseconds per report.
fn per(total: u64, count: usize) -> f64 {
    stats::ratio(total, count as u64)
}

/// Runs every replay of the traced run in lock-step, prints the budget table, writes the
/// spans and sets the per-layer time metrics.
pub fn run(
    spec: &Spec,
    plan: &Plan,
    inputs: &Inputs,
    script: &Script,
    smoke: bool,
    metrics: &mut Metrics,
) -> io::Result<()> {
    let groups = spec.traced_groups(smoke);
    let prefix = Prefix::of(spec, plan, inputs, script, groups);
    let from = prefix.paced_from;
    let reports = prefix.reports;

    let started = Instant::now();
    let tree = Arc::new(RTree::bulk_load(&inputs.pois));
    metrics.set("index.bulk_load_ms", started.elapsed().as_secs_f64() * 1e3);

    let clock = Instant::now();
    let mut engine = EngineReplay::new(&prefix, &tree, Variant::Default, clock);
    let mut cached = EngineReplay::new(&prefix, &tree, Variant::Cached, clock);
    let mut sharded = EngineReplay::new(&prefix, &tree, Variant::TwoShards, clock);
    let mut core = CoreReplay::new(&tree, clock);
    let mut wire = WireReplay::new(&tree, clock)?;
    let mut computes = ComputeReplay::new(&prefix, &tree, clock);
    let mut proto = ProtoReplay::new(clock);
    // Every replay queries the same R-tree nodes for the same groups in the same slot, so
    // whichever goes first warms the cache for the others: the starting replay rotates.  The
    // standalone computations need what the engine depth recorded, so they trail one slot.
    let mut recorded: [Vec<Recorded>; 2] = [Vec::new(), Vec::new()];
    let (mut ignored, mut bytes) = (Vec::new(), Vec::new());
    let mut batches: [Vec<Response>; 2] = [Vec::new(), Vec::new()];
    for (at, slot) in prefix.slots.iter().enumerate() {
        let (now, before) = (at % 2, (at + 1) % 2);
        prefix.encode(slot, &mut bytes);
        for turn in 0..4 {
            match (at + turn) % 4 {
                0 => {
                    recorded[now].clear();
                    engine.step(&prefix, slot, &mut recorded[now]);
                }
                1 => batches = core.step(&prefix, slot),
                2 => wire.step(slot, &bytes)?,
                _ => {
                    if let Some(previous) = at.checked_sub(1) {
                        computes.step(&prefix, &prefix.slots[previous], &recorded[before]);
                    }
                }
            }
        }
        if slot.tick >= from {
            proto.step(slot, &bytes, &batches);
        }
        ignored.clear();
        cached.step(&prefix, slot, &mut ignored);
        ignored.clear();
        sharded.step(&prefix, slot, &mut ignored);
    }
    if let Some(last) = prefix.slots.len().checked_sub(1) {
        computes.step(&prefix, &prefix.slots[last], &recorded[last % 2]);
    }

    // Depth totals over the paced part: the calls into each depth's layer.
    let sum = |tracer: &Tracer, names: &[&str]| -> u64 {
        names.iter().map(|name| tracer.total(name, from).0).sum()
    };
    let t_engine = engine.total(from);
    let t_core = sum(&core.tracer, &["sim.server.enqueue", "sim.server.process"]);
    let t_wire = sum(&wire.tracer, &["net.mux.poll_once"]);
    let t_compute = sum(&computes.tracer, &["core.engine.compute"]);
    let t_world = sum(&computes.tracer, &["index.world.delete", "index.world.insert"]);
    let t_decode = sum(&proto.tracer, &["proto.frame_reader.next_request"]);
    let t_encode = sum(&proto.tracer, &["proto.encode_batch"]);

    // Index time inside the computations: the recorded traversal work at the cost per unit
    // of work the standalone queries showed.
    let model = &computes.model;
    let gnn_ns = per(model.gnn_ns, model.gnn_work) * work(computes.stats.gnn) as f64;
    let candidate_ns = per(model.candidate_ns, model.candidate_work)
        * work(computes.stats.candidate_retrieval) as f64;
    let t_index_in_compute = (gnn_ns + candidate_ns).min(t_compute as f64);

    let (t_wire, t_core, t_engine) = (t_wire as f64, t_core as f64, t_engine as f64);
    let t_proto = (t_decode + t_encode) as f64;
    let rows = [
        ("net", (t_wire - t_core - t_proto).max(0.0)),
        ("proto", t_proto),
        ("sim server", (t_core - t_engine).max(0.0)),
        ("sim engine", (t_engine - t_compute as f64 - t_world as f64).max(0.0)),
        ("core", t_compute as f64 - t_index_in_compute),
        ("index", t_index_in_compute + t_world as f64),
    ];
    let attributed: f64 = rows.iter().map(|(_, ns)| ns).sum();
    let unattributed = (t_wire - attributed).abs() / t_wire.max(1.0);

    println!(
        "traced prefix: {} of {} groups, {reports} paced reports after the set-up",
        groups, spec.groups
    );
    println!(
        "depth totals (ms): wire {:.1}, core {:.1}, engine {:.1}, computes {:.1}",
        t_wire / 1e6,
        t_core / 1e6,
        t_engine / 1e6,
        t_compute as f64 / 1e6
    );
    println!("budget of the wire depth:");
    println!("  {:<12} {:>14} {:>8}", "layer", "ns/report", "share");
    let by_report = |ns: f64| ns / reports.max(1) as f64;
    for (layer, ns) in rows {
        println!("  {:<12} {:>14.1} {:>8.3}", layer, by_report(ns), ns / t_wire.max(1.0));
    }
    println!("  {:<12} {:>14.1} {:>8.3}", "wire depth", by_report(t_wire), 1.0);

    metrics.set("net.self_ns_per_report", by_report(rows[0].1));
    metrics.set("proto.ns_per_report", by_report(rows[1].1));
    metrics.set("sim.server_self_ns_per_report", by_report(rows[2].1));
    metrics.set("sim.engine_self_ns_per_report", by_report(rows[3].1));
    metrics.set("core.self_ns_per_report", by_report(rows[4].1));
    metrics.set("index.ns_per_report", by_report(rows[5].1));
    metrics.set("trace.unattributed_share", unattributed);
    // Tracing cost: the spans the wire depth recorded at what one span costs to record.
    let wire_spans = wire.tracer.spans.iter().filter(|s| s.tick >= from).count();
    metrics.set(
        "trace.overhead_share",
        wire_spans as f64 * Tracer::cost_per_span_ns() / t_wire.max(1.0),
    );
    metrics.set("trace.rounds", 7.0);

    metrics.set("proto.decode_ns_per_request", per(t_decode, prefix.requests));
    metrics.set("proto.encode_ns_per_response", per(t_encode, proto.responses));
    metrics.set("proto.request_bytes", per(proto.request_bytes as u64, prefix.requests));
    metrics.set("proto.response_bytes", per(proto.response_bytes as u64, proto.responses));

    let (enqueue_ns, enqueued) = core.tracer.total("sim.server.enqueue", from);
    metrics.set("sim.enqueue_ns_per_request", per(enqueue_ns, enqueued as usize));
    metrics.set(
        "sim.process_ns_per_report",
        per(core.tracer.total("sim.server.process", from).0, reports),
    );
    let (tick_ns, ticks) = engine.tracer.total("sim.engine.tick", from);
    metrics.set("sim.tick_ns_per_session", per(tick_ns, ticks as usize * groups));
    metrics.set("sim.tick_ns_per_advanced", per(tick_ns, reports));
    let (register_ns, registered) = engine.tracer.total("sim.engine.register_session", 0);
    metrics.set("sim.register_ns_per_group", per(register_ns, registered as usize));
    let (deregister_ns, deregistered) = engine.tracer.total("sim.engine.deregister", 0);
    metrics.set("sim.deregister_ns_per_group", per(deregister_ns, deregistered as usize));
    let (change_ns, _) = engine.tracer.total("sim.engine.apply_world_change", 0);
    metrics.set("sim.world_change_ms", per(change_ns, engine.changes) / 1e6);
    metrics.set("sim.invalidated_per_change", per(engine.invalidated as u64, engine.changes));

    let mut compute_us = computes.compute_us.clone();
    stats::sort(&mut compute_us);
    metrics.set("core.self_us_per_update", per(rows[4].1 as u64, computes.computes) / 1e3);
    metrics.set("core.compute_p50_us", stats::percentile(&compute_us, 50.0));
    metrics.set("core.compute_p99_us", stats::percentile(&compute_us, 99.0));

    metrics.set("index.gnn_ns_per_query", per(gnn_ns as u64, model.gnn_queries));
    metrics.set(
        "index.gnn_node_accesses",
        per(computes.stats.gnn.nodes_visited as u64, model.gnn_queries),
    );
    metrics.set("index.candidate_ns_per_query", per(candidate_ns as u64, model.candidate_queries));
    metrics.set(
        "index.candidates_per_query",
        per(model.candidates_returned as u64, model.candidate_replays),
    );
    let (insert_ns, inserts) = computes.tracer.total("index.world.insert", 0);
    metrics.set("index.insert_ns", per(insert_ns, inserts as usize));
    let (delete_ns, deletes) = computes.tracer.total("index.world.delete", 0);
    metrics.set("index.delete_ns", per(delete_ns, deletes as usize));
    let cache = cached.engine.report().cache.expect("the cached variant has a cache");
    metrics.set("index.cache_hit_share", cache.hit_rate());
    metrics.set("index.cache_speedup", t_engine / cached.total(from).max(1) as f64);

    let sharded_report = sharded.engine.report();
    let sharded_ticks = sharded_report.ticks.max(1) as f64;
    metrics.set("pool.batches_per_tick", sharded_report.exec.batches as f64 / sharded_ticks);
    metrics.set("pool.steals_per_tick", sharded_report.exec.steals as f64 / sharded_ticks);
    metrics.set("pool.imbalance_per_tick", sharded_report.exec.imbalance as f64 / sharded_ticks);
    let sharded_tick_ns = sharded.tracer.total("sim.engine.tick", from).0;
    metrics.set("pool.tick_speedup", tick_ns as f64 / sharded_tick_ns.max(1) as f64);

    println!("self time by span name, wire depth:");
    for (name, ns) in wire.tracer.self_times() {
        println!("  {name:<28} {:>12.3} ms", ns as f64 / 1e6);
    }

    std::fs::create_dir_all("benchmark/out")?;
    let path = format!("benchmark/out/trace-{}.json", spec.name);
    let mut file = io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(file, "{{\"workload\":\"{}\",\"paced_from_tick\":{from},\"spans\":[", spec.name)?;
    let replays = [
        ("engine", &engine.tracer),
        ("core", &core.tracer),
        ("wire", &wire.tracer),
        ("compute", &computes.tracer),
        ("proto", &proto.tracer),
        ("engine+cache", &cached.tracer),
        ("engine+2shards", &sharded.tracer),
    ];
    let mut first = true;
    for (replay, tracer) in replays {
        tracer.write_json(replay, &mut first, &mut file)?;
    }
    writeln!(file, "\n]}}")?;
    file.flush()?;
    let spans: usize = replays.iter().map(|(_, tracer)| tracer.spans.len()).sum();
    println!("trace: {spans} spans written to {path}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<u32>,
        tick: u32,
        calls: u32,
    ) -> Span {
        Span { name, start_ns, end_ns, parent, tick, calls }
    }

    #[test]
    fn self_time_is_a_span_minus_its_children() {
        let mut tracer = Tracer::new(Instant::now());
        tracer.spans = vec![
            span("slot", 0, 100, None, 0, 0),
            span("submit", 10, 30, Some(0), 0, 5),
            span("tick", 30, 90, Some(0), 0, 1),
            span("slot", 100, 150, None, 1, 0),
            span("tick", 110, 140, Some(3), 1, 1),
        ];
        let own = tracer.self_times();
        assert_eq!(own, vec![("slot", 20 + 20), ("submit", 20), ("tick", 60 + 30)]);
        assert_eq!(tracer.total("tick", 0), (90, 2));
        assert_eq!(tracer.total("tick", 1), (30, 1));
        assert_eq!(tracer.total("submit", 0), (20, 5));
    }

    #[test]
    fn spans_nest_under_the_innermost_open_span() {
        let mut tracer = Tracer::new(Instant::now());
        tracer.enter("outer", 7);
        tracer.enter("inner", 7);
        tracer.exit(3);
        tracer.exit(0);
        tracer.enter("next", 8);
        let ns = tracer.exit(1);
        assert_eq!(tracer.spans[1].parent, Some(0));
        assert_eq!(tracer.spans[1].calls, 3);
        assert_eq!(tracer.spans[2].parent, None);
        assert_eq!(ns, tracer.spans[2].end_ns - tracer.spans[2].start_ns);
        assert!(tracer.spans.iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn runs_split_a_slot_into_stretches_of_one_kind() {
        let ops = [
            Op::Report { g: 0, e: 1 },
            Op::Report { g: 1, e: 1 },
            Op::Deregister { g: 2 },
            Op::Register { g: 2 },
            Op::Report { g: 3, e: 1 },
        ];
        let lens: Vec<usize> = runs(&ops).map(<[Op]>::len).collect();
        assert_eq!(lens, vec![2, 1, 1, 1]);
    }
}
