//! The four workloads: seeded inputs, the fixed-work script and its wire encoding.
//!
//! A workload is a fixed number of epochs of pre-generated reports, never a number of
//! seconds: `--seconds` only selects the epoch counts ([`Spec::plan`]), so two runs with the
//! same seed and the same `--seconds` send byte-identical traffic.  One [`Script`] — the
//! slot-ordered list of protocol operations — is the single description of that traffic; the
//! measured run encodes it to request bytes ([`Script::encode`]) and the traced run replays
//! the same operations as decoded values at three depths.

use std::ops::Range;
use std::time::Instant;

use mpn_geom::Point;
use mpn_mobility::network::{NetworkConfig, RoadNetwork};
use mpn_mobility::poi::{clustered_pois, PoiConfig};
use mpn_mobility::waypoint::{taxi_trajectory, TaxiConfig};
use mpn_mobility::DEFAULT_SPEED_LIMIT;
use mpn_proto::{AdminRequest, Request, WireConfig, WireMethod, WireObjective};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Users per group (the paper's default group size).
pub const GROUP_SIZE: usize = 3;

/// The paced window is cut into at most this many sub-windows of whole epochs; a timing
/// metric is the lower quartile of its sub-window values.
const MAX_SUB_WINDOWS: usize = 20;

/// Share of `--seconds` the paced window takes; saturation and the set-up repetitions share
/// the rest.
const PACED_SHARE: f64 = 0.70;

/// Saturation epochs per paced epoch: the closed loop runs at roughly twice the paced rate,
/// so this keeps the saturation window near a fifth of the paced one.
const SAT_EPOCH_SHARE: f64 = 0.40;

/// Group ids at and above this value are never assigned by the server; a `Deregister` for
/// one is answered with an `UnknownGroup` notification, which the generator uses as a fence.
pub const FENCE_BASE: u64 = u64::MAX - (1 << 32);

/// How the users of a workload move.
#[derive(Debug, Clone, Copy)]
pub enum Mobility {
    /// Hotspot waypoint model in free space, at this speed limit per epoch.
    Walk { speed: f64 },
    /// Shortest-path driving on a generated road network, at this speed limit per epoch.
    Drive { speed: f64 },
}

/// One workload: who moves how, monitored by which method, at which offered rate.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: what the workload stresses.
    pub why: &'static str,
    pub groups: usize,
    pub mobility: Mobility,
    pub config: WireConfig,
    /// The epoch period `P` in milliseconds, chosen once so the server sits near half a core
    /// at the commit that added the benchmark, then frozen.
    pub period_ms: u64,
    /// Width of one send slot in milliseconds: every due time is a multiple of it, and the
    /// server sees one burst — hence runs one tick — per slot.  A tick scans the whole fleet,
    /// so for a large fleet the slot width, not the period, sets the server's load.
    pub slot_ms: u64,
    /// Cold starts per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// How many groups (the first ones) the traced run replays.  The whole fleet where a tick's
    /// cost depends on its size; a quarter on the tile workloads, where one first safe region
    /// costs 15 ms and every replay has to compute them all again.
    pub trace_groups: usize,
    /// Whether groups re-register and POIs are deleted and re-inserted during the run.
    pub churn: bool,
}

fn wire(objective: WireObjective, method: WireMethod, persist_buffers: bool) -> WireConfig {
    WireConfig { objective, method, persist_buffers, ..WireConfig::default() }
}

/// The benchmark's workloads, in the order `BENCHMARK.json` lists them.
pub fn specs() -> [Spec; 4] {
    let theta = std::f64::consts::FRAC_PI_4;
    [
        Spec {
            name: "walk_circle_max",
            why: "20,000 slow groups, Circle/MAX: net read, proto decode, sim enqueue and the \
                  tick scan do nearly all the work; also the large-fleet memory and \
                  registration workload",
            groups: 20_000,
            mobility: Mobility::Walk { speed: 0.02 * DEFAULT_SPEED_LIMIT },
            config: wire(WireObjective::Max, WireMethod::Circle, false),
            period_ms: 320,
            slot_ms: 2,
            setup_reps: 9,
            trace_groups: 20_000,
            churn: false,
        },
        Spec {
            name: "drive_tile_max",
            why: "200 driving groups, Tile-D-b/MAX with persistent buffers (the paper's main \
                  method): core tile growth and GT-verify dominate; net, proto and the scan \
                  are noise",
            groups: 200,
            mobility: Mobility::Drive { speed: DEFAULT_SPEED_LIMIT },
            config: wire(
                WireObjective::Max,
                WireMethod::TileDirectedBuffered { theta, buffer: 100 },
                true,
            ),
            period_ms: 1600,
            slot_ms: 1,
            setup_reps: 3,
            trace_groups: 50,
            churn: false,
        },
        Spec {
            name: "drive_tile_sum",
            why: "200 driving groups, unbuffered Tile-D/SUM: about thirty R-tree candidate \
                  queries per update plus the SUM verifier, so index has ten times the share \
                  it has in drive_tile_max",
            groups: 200,
            mobility: Mobility::Drive { speed: DEFAULT_SPEED_LIMIT },
            config: wire(WireObjective::Sum, WireMethod::TileDirected { theta }, false),
            period_ms: 1600,
            slot_ms: 1,
            setup_reps: 3,
            trace_groups: 50,
            churn: false,
        },
        Spec {
            name: "churn_circle_sum",
            why: "5,000 fast groups, Circle/SUM, nearly every report updates, while groups \
                  re-register and a POI is deleted and re-inserted: writes beside reads \
                  through sim, core and index",
            groups: 5_000,
            mobility: Mobility::Drive { speed: DEFAULT_SPEED_LIMIT },
            config: wire(WireObjective::Sum, WireMethod::Circle, false),
            period_ms: 520,
            slot_ms: 2,
            setup_reps: 9,
            trace_groups: 5_000,
            churn: true,
        },
    ]
}

/// Looks a workload up by name.
pub fn spec_by_name(name: &str) -> Option<Spec> {
    specs().into_iter().find(|s| s.name == name)
}

/// Epoch counts of one run, fixed by `--seconds` (and `--smoke`), never by the clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Plan {
    pub paced_epochs: usize,
    pub sat_epochs: usize,
    pub setup_reps: usize,
}

impl Plan {
    /// Sub-windows of the paced window.  Each holds whole epochs, so each holds every group
    /// equally often and sub-windows are comparable even when groups differ widely in cost.
    pub fn sub_windows(&self) -> usize {
        self.paced_epochs.min(MAX_SUB_WINDOWS)
    }

    /// The sub-window of paced epoch `e` (1-based).
    pub fn sub_window_of(&self, e: usize) -> usize {
        (e - 1) * self.sub_windows() / self.paced_epochs
    }

    /// Epochs of positions a run needs: the first report, then both windows.
    pub fn epochs(&self) -> usize {
        1 + self.paced_epochs + self.sat_epochs
    }
}

impl Spec {
    /// The epoch counts for a run of `seconds`; `smoke` divides them by twenty.
    pub fn plan(&self, seconds: f64, smoke: bool) -> Plan {
        let paced = (PACED_SHARE * seconds * 1_000.0 / self.period_ms as f64).round() as usize;
        let paced = if smoke { (paced / 20).max(1) } else { paced.max(2) };
        let sat = ((paced as f64 * SAT_EPOCH_SHARE).round() as usize).max(1);
        Plan {
            paced_epochs: paced,
            sat_epochs: sat,
            setup_reps: if smoke { 1 } else { self.setup_reps },
        }
    }

    /// How many groups the traced run replays; a smoke run replays a fifth of them where
    /// every first safe region is expensive.
    pub fn traced_groups(&self, smoke: bool) -> usize {
        if smoke && self.trace_groups < self.groups {
            self.trace_groups / 5
        } else {
            self.trace_groups
        }
    }

    /// Width of one send slot in nanoseconds.
    pub fn slot_ns(&self) -> u64 {
        self.slot_ms * 1_000_000
    }

    /// Send slots per epoch.
    pub fn slots_per_epoch(&self) -> usize {
        (self.period_ms / self.slot_ms) as usize
    }

    /// Slots that carry reports.  A churn workload keeps the tail of every period quiet so
    /// the world change sent there is applied between two epochs of every group.
    pub fn active_slots(&self) -> usize {
        let slots = self.slots_per_epoch();
        let active = if self.churn { slots - slots / 10 } else { slots };
        active - active % 2
    }

    /// The quiet slot in which a churn workload sends its world change.
    fn admin_slot(&self) -> usize {
        (self.active_slots() + self.slots_per_epoch()) / 2
    }

    /// The send slot of group `g` inside its epoch (monotone in `g`).
    pub fn slot_of(&self, g: usize) -> usize {
        g * self.active_slots() / self.groups
    }

    /// The connection group `g` lives on: slots alternate, so each slot is one write on one
    /// connection and the server sees one burst per slot.
    pub fn conn_of(&self, g: usize) -> usize {
        self.slot_of(g) % 2
    }

    /// Due time of a slot of paced epoch `e` (1-based) since the window opened; group `g`
    /// reports in slot [`slot_of(g)`](Spec::slot_of).
    pub fn slot_due_ns(&self, e: usize, slot: usize) -> u64 {
        debug_assert!(e >= 1, "epoch 0 is the set-up report");
        ((e - 1) * self.slots_per_epoch() + slot) as u64 * self.slot_ns()
    }
}

/// The city — the POI set and the road network — is the same for every seed; `--seed`
/// decides who moves where in it (every trajectory) and the churn schedule.  With the city
/// drawn from the seed too, the counts of a 20,000-group fleet moved by 5 % from seed to seed
/// only because the POI clusters fell elsewhere, and no bound on a count could be tight.
const WORLD_SEED: u64 = 2013;

/// SplitMix64 step: derives independent sub-seeds from `--seed`.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Everything generated from the seed before a run: the POI set and every position.
#[derive(Debug)]
pub struct Inputs {
    pub pois: Vec<Point>,
    /// Positions as `[group][epoch][user]`, flat.
    positions: Vec<Point>,
    pub epochs: usize,
    /// Wall time spent generating (the `mobility.gen_s` metric).
    pub gen_s: f64,
}

impl Inputs {
    /// Generates the POI set and every group's trajectory from `seed`.
    pub fn generate(spec: &Spec, plan: &Plan, seed: u64) -> Self {
        let started = Instant::now();
        let epochs = plan.epochs();
        let pois = clustered_pois(&PoiConfig::default(), mix(WORLD_SEED, 1));
        let mut positions = vec![Point::ORIGIN; spec.groups * epochs * GROUP_SIZE];
        let network = match spec.mobility {
            Mobility::Walk { .. } => None,
            Mobility::Drive { speed } => Some(RoadNetwork::generate(
                &NetworkConfig {
                    speed_limit: speed,
                    timestamps: epochs,
                    ..NetworkConfig::default()
                },
                mix(WORLD_SEED, 2),
            )),
        };
        for g in 0..spec.groups {
            for u in 0..GROUP_SIZE {
                let user_seed = mix(seed, 16 + (g * GROUP_SIZE + u) as u64);
                let trajectory = match (&network, spec.mobility) {
                    (Some(network), _) => network.trajectory(user_seed, g + u),
                    (None, Mobility::Walk { speed }) => taxi_trajectory(
                        &TaxiConfig {
                            speed_limit: speed,
                            timestamps: epochs,
                            ..TaxiConfig::default()
                        },
                        user_seed,
                    ),
                    (None, Mobility::Drive { .. }) => unreachable!("driving builds a network"),
                };
                for e in 0..epochs {
                    positions[(g * epochs + e) * GROUP_SIZE + u] = trajectory.at(e);
                }
            }
        }
        Self { pois, positions, epochs, gen_s: started.elapsed().as_secs_f64() }
    }

    /// The positions group `g` reports at epoch `e`.
    pub fn at(&self, g: usize, e: usize) -> &[Point] {
        let start = (g * self.epochs + e) * GROUP_SIZE;
        &self.positions[start..start + GROUP_SIZE]
    }
}

/// One protocol operation of the script.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    Register {
        g: u32,
    },
    Report {
        g: u32,
        e: u32,
    },
    Deregister {
        g: u32,
    },
    AdminDelete {
        poi: u64,
    },
    AdminInsert {
        at: Point,
    },
    /// A `Deregister` for an id the server never assigns; its `UnknownGroup` answer tells
    /// the generator that everything sent before it on that connection has been applied.
    Fence {
        id: u64,
    },
}

/// One write: the operations due together on one connection.
#[derive(Debug, Clone, PartialEq)]
pub struct Slot {
    /// Due time since the block started (0 in set-up and saturation blocks).
    pub due_ns: u64,
    pub conn: usize,
    pub ops: Range<usize>,
    /// Global tick id: the index of this slot over the whole script.
    pub tick: u32,
}

/// What a block of slots is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockKind {
    /// Registration of one connection's groups, or the fleet's first reports.
    Setup,
    /// The open-loop window: slots sent at their due times.
    Paced,
    /// One closed-loop epoch: sent at once, the next follows its fences.
    Saturation,
}

/// Slots sent together and closed by one fence per connection.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    pub kind: BlockKind,
    pub slots: Vec<Slot>,
    /// The fence id closing the block on each connection.
    pub fences: [u64; 2],
    pub reports: usize,
}

/// One scheduled world change and what the generator predicts about it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdminEvent {
    pub epoch: usize,
    /// The POI id the `AdminApplied` acknowledgement must name.
    pub poi: u64,
    pub at: Point,
    pub insert: bool,
}

/// The whole run as a slot-ordered list of operations.
#[derive(Debug)]
pub struct Script {
    pub ops: Vec<Op>,
    pub blocks: Vec<Block>,
    /// The wire id the server will assign to each group (registration order is fixed).
    pub wire_id: Vec<u64>,
    /// Per group, the epochs (ascending) at which it deregisters and registers again.
    pub rejoins: Vec<Vec<u32>>,
    pub admin: Vec<AdminEvent>,
}

/// The request bytes of one block: one buffer per connection, and where each slot ends in it.
#[derive(Debug)]
pub struct Encoded {
    pub tx: [Vec<u8>; 2],
    /// End offset of slot `i` inside `tx[slots[i].conn]`.
    pub slot_end: Vec<usize>,
}

impl Script {
    /// Builds the script of one run: registrations, first reports, the paced window, the
    /// saturation epochs and (for a churn workload) the seeded churn schedule.
    pub fn build(spec: &Spec, plan: &Plan, inputs: &Inputs, seed: u64) -> Self {
        let groups = spec.groups;
        let on_conn =
            |conn: usize| (0..groups).filter(move |&g| spec.conn_of(g) == conn).collect::<Vec<_>>();
        let mut wire_id = vec![0u64; groups];
        for (rank, g) in on_conn(0).into_iter().chain(on_conn(1)).enumerate() {
            wire_id[g] = rank as u64;
        }
        let mut script = Self {
            ops: Vec::new(),
            blocks: Vec::new(),
            wire_id,
            rejoins: Vec::new(),
            admin: Vec::new(),
        };
        let schedule = ChurnSchedule::build(spec, plan, inputs, seed);
        let mut builder = Builder { script: &mut script, next_fence: FENCE_BASE, next_tick: 0 };

        // Set-up: connection 0 registers first, then connection 1, so ids are predictable.
        for conn in 0..2 {
            builder.begin(BlockKind::Setup);
            builder.slot(0, conn, on_conn(conn).into_iter().map(|g| Op::Register { g: g as u32 }));
            builder.end(0);
        }
        builder.begin(BlockKind::Setup);
        for conn in 0..2 {
            builder.slot(
                0,
                conn,
                on_conn(conn).into_iter().map(|g| Op::Report { g: g as u32, e: 0 }),
            );
        }
        builder.end(0);

        builder.begin(BlockKind::Paced);
        for e in 1..=plan.paced_epochs {
            builder.epoch(spec, &schedule, e, |slot| spec.slot_due_ns(e, slot));
        }
        builder.end(spec.slot_due_ns(plan.paced_epochs + 1, 0));

        for e in plan.paced_epochs + 1..plan.epochs() {
            builder.begin(BlockKind::Saturation);
            builder.epoch(spec, &schedule, e, |_| 0);
            builder.end(0);
        }
        script.rejoins = schedule.rejoins;
        script.admin = schedule.admin;
        script
    }

    /// The first block of the given kind.
    pub fn first_block(&self, kind: BlockKind) -> usize {
        self.blocks.iter().position(|b| b.kind == kind).expect("every script has every kind")
    }

    /// The request an operation stands for.
    pub fn request(&self, spec: &Spec, inputs: &Inputs, op: Op) -> Request {
        request_for(spec, inputs, &self.wire_id, op)
    }

    /// Encodes one block to the bytes the generator writes.
    pub fn encode(&self, spec: &Spec, inputs: &Inputs, block: &Block) -> Encoded {
        let mut encoded = Encoded { tx: [Vec::new(), Vec::new()], slot_end: Vec::new() };
        for slot in &block.slots {
            let out = &mut encoded.tx[slot.conn];
            for &op in &self.ops[slot.ops.clone()] {
                self.request(spec, inputs, op).encode(out);
            }
            encoded.slot_end.push(out.len());
        }
        encoded
    }
}

/// The request an operation stands for, given the wire id of every group.
pub fn request_for(spec: &Spec, inputs: &Inputs, wire_id: &[u64], op: Op) -> Request {
    match op {
        Op::Register { .. } => {
            Request::Register { group_size: GROUP_SIZE as u32, config: spec.config }
        }
        Op::Report { g, e } => Request::Report {
            group: wire_id[g as usize],
            positions: inputs.at(g as usize, e as usize).to_vec(),
        },
        Op::Deregister { g } => Request::Deregister { group: wire_id[g as usize] },
        Op::AdminDelete { poi } => Request::Admin(AdminRequest::PoiDelete { poi }),
        Op::AdminInsert { at } => Request::Admin(AdminRequest::PoiInsert { location: at }),
        Op::Fence { id } => Request::Deregister { group: id },
    }
}

/// Appends blocks and slots to a script, numbering ticks and fences.
struct Builder<'a> {
    script: &'a mut Script,
    next_fence: u64,
    next_tick: u32,
}

impl Builder<'_> {
    fn begin(&mut self, kind: BlockKind) {
        self.script.blocks.push(Block { kind, slots: Vec::new(), fences: [0; 2], reports: 0 });
    }

    fn slot(&mut self, due_ns: u64, conn: usize, ops: impl Iterator<Item = Op>) {
        let start = self.script.ops.len();
        self.script.ops.extend(ops);
        let ops = start..self.script.ops.len();
        if ops.is_empty() {
            return;
        }
        let block = self.script.blocks.last_mut().expect("begin() opened a block");
        block.reports += self.script.ops[ops.clone()]
            .iter()
            .filter(|op| matches!(op, Op::Report { .. }))
            .count();
        block.slots.push(Slot { due_ns, conn, ops, tick: self.next_tick });
        self.next_tick += 1;
    }

    /// One epoch of reports, with the churn schedule's re-registrations and world change.
    fn epoch(
        &mut self,
        spec: &Spec,
        schedule: &ChurnSchedule,
        e: usize,
        due: impl Fn(usize) -> u64,
    ) {
        let mut g = 0;
        for slot in 0..spec.active_slots() {
            let first = g;
            while g < spec.groups && spec.slot_of(g) == slot {
                g += 1;
            }
            let ops = (first..g).flat_map(|g| {
                if schedule.rejoins[g].contains(&(e as u32)) {
                    [Some(Op::Deregister { g: g as u32 }), Some(Op::Register { g: g as u32 })]
                } else {
                    [Some(Op::Report { g: g as u32, e: e as u32 }), None]
                }
                .into_iter()
                .flatten()
            });
            self.slot(due(slot), slot % 2, ops);
        }
        if let Some(event) = schedule.admin.iter().find(|a| a.epoch == e) {
            let op = if event.insert {
                Op::AdminInsert { at: event.at }
            } else {
                Op::AdminDelete { poi: event.poi }
            };
            self.slot(due(spec.admin_slot()), 0, std::iter::once(op));
        }
    }

    /// Closes the block with one fence per connection, due at `due_ns`.
    fn end(&mut self, due_ns: u64) {
        for conn in 0..2 {
            let id = self.next_fence;
            self.next_fence += 1;
            self.script.blocks.last_mut().expect("begin() opened a block").fences[conn] = id;
            self.slot(due_ns, conn, std::iter::once(Op::Fence { id }));
        }
    }
}

/// Which groups re-register when, and which POI is deleted and re-inserted when.
struct ChurnSchedule {
    rejoins: Vec<Vec<u32>>,
    admin: Vec<AdminEvent>,
}

/// Share of the fleet that deregisters and registers again per epoch.
const REJOIN_SHARE: f64 = 0.005;

/// A POI is deleted every this many epochs and re-inserted two epochs later.
const ADMIN_CYCLE: usize = 4;

impl ChurnSchedule {
    fn build(spec: &Spec, plan: &Plan, inputs: &Inputs, seed: u64) -> Self {
        let mut schedule = Self { rejoins: vec![Vec::new(); spec.groups], admin: Vec::new() };
        if !spec.churn {
            return schedule;
        }
        let mut rng = StdRng::seed_from_u64(mix(seed, 3));
        // Re-registration and world changes both travel on connection 0: the server frees
        // and reuses ids last-in-first-out, so one ordered stream keeps every id predictable.
        let candidates: Vec<usize> = (0..spec.groups).filter(|&g| spec.conn_of(g) == 0).collect();
        let per_epoch = ((spec.groups as f64 * REJOIN_SHARE).round() as usize).max(1);
        let objective = spec.config.objective;
        let mut live: Vec<Option<Point>> = inputs.pois.iter().copied().map(Some).collect();
        let mut pending_insert: Option<(usize, Point)> = None;
        // The last epoch is left alone so every re-registered group still sends a first
        // report.
        for e in 1..plan.epochs() - 1 {
            let mut chosen = 0;
            while chosen < per_epoch {
                let g = candidates[rng.gen_range(0..candidates.len())];
                let recent = schedule.rejoins[g].last().is_some_and(|&last| last + 1 >= e as u32);
                if !recent {
                    schedule.rejoins[g].push(e as u32);
                    chosen += 1;
                }
            }
            if let Some((due, at)) = pending_insert {
                if due == e {
                    live.push(Some(at));
                    let poi = (live.len() - 1) as u64;
                    schedule.admin.push(AdminEvent { epoch: e, poi, at, insert: true });
                    pending_insert = None;
                }
            } else if e % ADMIN_CYCLE == 1 {
                // Delete the POI that is some stable group's optimum right now: by
                // Definition 3 the optimum at her last report is the one the server holds.
                let g = loop {
                    let g = rng.gen_range(0..spec.groups);
                    let rejoining =
                        schedule.rejoins[g].last().is_some_and(|&last| last + 1 >= e as u32);
                    if !rejoining {
                        break g;
                    }
                };
                let (poi, at) = best_poi(&live, inputs.at(g, e), objective);
                live[poi] = None;
                schedule.admin.push(AdminEvent { epoch: e, poi: poi as u64, at, insert: false });
                pending_insert = Some((e + 2, at));
            }
        }
        schedule
    }
}

/// Aggregate distance of `users` to `p` under the objective.
pub fn aggregate_dist(p: Point, users: &[Point], objective: WireObjective) -> f64 {
    let dists = users.iter().map(|u| u.dist(p));
    match objective {
        WireObjective::Max => dists.fold(0.0, f64::max),
        WireObjective::Sum => dists.sum(),
    }
}

/// Linear scan for the optimal meeting point over the live POIs (`None` = deleted).
pub fn best_poi(
    live: &[Option<Point>],
    users: &[Point],
    objective: WireObjective,
) -> (usize, Point) {
    live.iter()
        .enumerate()
        .filter_map(|(id, p)| p.map(|p| (id, p, aggregate_dist(p, users, objective))))
        .min_by(|a, b| a.2.total_cmp(&b.2))
        .map(|(id, p, _)| (id, p))
        .expect("the world is never emptied")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(churn: bool) -> Spec {
        Spec {
            name: "tiny",
            why: "",
            groups: 40,
            mobility: Mobility::Drive { speed: DEFAULT_SPEED_LIMIT },
            config: wire(WireObjective::Sum, WireMethod::Circle, false),
            period_ms: 20,
            slot_ms: 1,
            setup_reps: 1,
            trace_groups: 40,
            churn,
        }
    }

    #[test]
    fn sub_windows_hold_whole_epochs() {
        let plan = Plan { paced_epochs: 7, sat_epochs: 1, setup_reps: 1 };
        assert_eq!(plan.sub_windows(), 7);
        assert_eq!(
            (1..=7).map(|e| plan.sub_window_of(e)).collect::<Vec<_>>(),
            [0, 1, 2, 3, 4, 5, 6]
        );
        let plan = Plan { paced_epochs: 44, sat_epochs: 1, setup_reps: 1 };
        assert_eq!(plan.sub_windows(), 20);
        assert_eq!(plan.sub_window_of(1), 0);
        assert_eq!(plan.sub_window_of(3), 0);
        assert_eq!(plan.sub_window_of(4), 1);
        assert_eq!(plan.sub_window_of(44), 19);
        // Sub-windows are never empty and never shrink below two epochs here.
        let sizes: Vec<usize> =
            (0..20).map(|w| (1..=44).filter(|&e| plan.sub_window_of(e) == w).count()).collect();
        assert!(sizes.iter().all(|&n| n == 2 || n == 3));
    }

    #[test]
    fn plan_is_a_function_of_seconds_only() {
        // 70 % of two seconds at a 20 ms period.
        let spec = tiny(false);
        assert_eq!(spec.plan(2.0, false), spec.plan(2.0, false));
        let full = spec.plan(2.0, false);
        assert_eq!(full.paced_epochs, 70);
        assert_eq!(full.sat_epochs, 28);
        assert_eq!(spec.plan(2.0, true).paced_epochs, 3);
    }

    #[test]
    fn due_times_stagger_groups_over_the_period_in_whole_slots() {
        let spec = tiny(false);
        // 40 groups over 20 slots: two per slot, connection = slot parity.
        assert_eq!(spec.slot_of(0), 0);
        assert_eq!(spec.slot_of(1), 0);
        assert_eq!(spec.slot_of(2), 1);
        assert_eq!(spec.slot_of(39), 19);
        assert_eq!(spec.conn_of(2), 1);
        let due = |g: usize, e: usize| spec.slot_due_ns(e, spec.slot_of(g));
        assert_eq!(due(0, 1), 0);
        assert_eq!(due(2, 1), spec.slot_ns());
        assert_eq!(due(0, 2), 20 * spec.slot_ns());
        assert_eq!(due(39, 3), (40 + 19) * spec.slot_ns());
    }

    #[test]
    fn paced_slots_are_due_in_order_and_alternate_connections() {
        let spec = tiny(false);
        let plan = Plan { paced_epochs: 3, sat_epochs: 1, setup_reps: 1 };
        let inputs = Inputs::generate(&spec, &plan, 7);
        let script = Script::build(&spec, &plan, &inputs, 7);
        let paced = &script.blocks[script.first_block(BlockKind::Paced)];
        assert_eq!(paced.reports, 3 * 40);
        assert!(paced.slots.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        for slot in &paced.slots[..paced.slots.len() - 2] {
            assert_eq!(slot.conn as u64, (slot.due_ns / spec.slot_ns()) % 2);
        }
        // The two fences close the window one period after the last epoch began.
        let fence = &paced.slots[paced.slots.len() - 1];
        assert_eq!(fence.due_ns, 3 * 20 * spec.slot_ns());
        assert!(matches!(script.ops[fence.ops.start], Op::Fence { .. }));
    }

    #[test]
    fn the_same_seed_encodes_the_same_bytes_and_another_seed_does_not() {
        let spec = tiny(true);
        let plan = Plan { paced_epochs: 6, sat_epochs: 2, setup_reps: 1 };
        let encode = |seed| {
            let inputs = Inputs::generate(&spec, &plan, seed);
            let script = Script::build(&spec, &plan, &inputs, seed);
            let block = &script.blocks[script.first_block(BlockKind::Paced)];
            script.encode(&spec, &inputs, block).tx
        };
        assert_eq!(encode(11), encode(11));
        assert_ne!(encode(11), encode(12));
    }

    #[test]
    fn churn_keeps_the_tail_of_the_period_quiet_and_predicts_poi_ids() {
        let spec = tiny(true);
        let plan = Plan { paced_epochs: 8, sat_epochs: 2, setup_reps: 1 };
        let inputs = Inputs::generate(&spec, &plan, 5);
        let script = Script::build(&spec, &plan, &inputs, 5);
        assert_eq!(spec.active_slots(), 18);
        assert_eq!(spec.admin_slot(), 19);
        let deletes: Vec<_> = script.admin.iter().filter(|a| !a.insert).collect();
        let inserts: Vec<_> = script.admin.iter().filter(|a| a.insert).collect();
        assert_eq!(deletes[0].epoch, 1);
        assert_eq!(inserts[0].epoch, 3);
        assert_eq!(inserts[0].at, deletes[0].at);
        // Inserted POIs continue the base numbering.
        assert_eq!(inserts[0].poi, inputs.pois.len() as u64);
        // Re-registering groups live on connection 0 and never in two adjacent epochs.
        for (g, epochs) in script.rejoins.iter().enumerate() {
            assert!(epochs.is_empty() || spec.conn_of(g) == 0);
            assert!(epochs.windows(2).all(|w| w[0] + 1 < w[1]));
        }
        assert!(script.rejoins.iter().any(|epochs| !epochs.is_empty()));
    }
}
