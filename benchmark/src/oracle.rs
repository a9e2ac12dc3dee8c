//! The off-clock correctness oracle: decodes what the run received and checks it against
//! what was sent.
//!
//! For every group the oracle replays her reports against the regions she was sent.  A report
//! that takes a user out of her current region must be answered by exactly one update (else
//! `missing` / `unexpected`), every region received must contain the position it answers
//! (`containment`), a fixed sample of meeting points is checked against a linear scan over
//! the POIs alive at that moment (`meeting_point`), and every world change must be
//! acknowledged with the predicted POI id and its announced pushes delivered in full
//! (`push_mismatch`).  The same replay yields the report→notification matches whose
//! timestamps become the latency metrics.
//!
//! A pushed region set is not caused by a report, and the order in which the server applied
//! a world change and a report that were in flight together cannot be read off the wire.  The
//! replay therefore searches for *an* interleaving that explains the stream: a push may take
//! effect between any two reports, as long as the regions still contain the last position
//! the server had seen.

use std::collections::{HashMap, HashSet};
use std::ops::Range;

use mpn_core::SafeRegion;
use mpn_geom::Point;
use mpn_proto::{DecodeError, NotificationKind, Response};

use crate::loadgen::{BlockLog, Conn};
use crate::workload::{
    aggregate_dist, best_poi, BlockKind, Encoded, Inputs, Op, Script, Spec, FENCE_BASE, GROUP_SIZE,
};

/// One decoded downlink frame and where it sat in the stream.
#[derive(Debug)]
pub struct Frame {
    /// Offset just past the frame in the connection's `rx`.
    pub end: usize,
    /// Encoded size of the frame, length prefix included.
    pub len: usize,
    /// Index of the batch (one per tick and client) the frame arrived in.
    pub batch: u32,
    pub response: Response,
}

/// Decodes a whole downlink stream: count-prefixed batches of frames.
pub fn decode_stream(rx: &[u8]) -> Result<Vec<Frame>, DecodeError> {
    let mut frames = Vec::new();
    let mut pos = 0;
    let mut batch = 0;
    while pos < rx.len() {
        let header = rx.get(pos..pos + 4).ok_or(DecodeError::Incomplete)?;
        let count = u32::from_le_bytes(header.try_into().expect("4 bytes"));
        pos += 4;
        for _ in 0..count {
            let (response, used) = Response::decode(&rx[pos..])?;
            pos += used;
            frames.push(Frame { end: pos, len: used, batch, response });
        }
        batch += 1;
    }
    Ok(frames)
}

/// The regions one update (or push, or registration) shipped to a group.
#[derive(Debug, Clone)]
pub struct RegionSet {
    pub regions: Vec<SafeRegion>,
    pub meeting_point: Point,
    /// Probe requests that preceded the regions.
    pub probes: usize,
    /// Offset just past the last region in the connection's `rx`.
    pub end: usize,
    pub batch: u32,
    /// Announced by a `WorldUpdate`: caused by a world change, not by a report.
    pub push: bool,
}

impl RegionSet {
    fn contains(&self, positions: &[Point]) -> bool {
        self.regions.iter().zip(positions).all(|(region, p)| region.contains(*p))
    }

    fn violators(&self, positions: &[Point]) -> usize {
        self.regions.iter().zip(positions).filter(|(region, p)| !region.contains(**p)).count()
    }
}

/// What a group received, in stream order.
#[derive(Debug, Clone)]
pub enum GroupEvent {
    Registered,
    Deregistered,
    Set(RegionSet),
}

/// One report as the replay sees it.
#[derive(Debug, Clone, Copy)]
pub struct Report<'a> {
    pub positions: &'a [Point],
    /// When the write carrying it returned.
    pub sent_ns: u64,
    /// Due time on the run's clock, for a paced report.
    pub paced_due_ns: Option<u64>,
}

/// A report that needed an update, and the update that answered it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Match {
    pub report: usize,
    pub set: usize,
}

/// Why a session's stream could not be explained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mismatch {
    /// Fewer updates arrived than reports needed.
    Missing(usize),
    /// More updates arrived than reports needed.
    Unexpected(usize),
    /// The counts agree but a region does not contain the position it answers.
    Containment,
}

/// Replays one session — the reports between a registration and the next deregistration —
/// against the region sets it received.  `arrival_ns` gives the time a set had fully arrived.
///
/// Returns the report→set matches of the first interleaving that explains the stream.
pub fn replay_session(
    reports: &[Report<'_>],
    sets: &[RegionSet],
    arrival_ns: impl Fn(&RegionSet) -> u64,
) -> Result<Vec<Match>, Mismatch> {
    let mut search = Search { reports, sets, arrival_ns, dead: HashSet::new(), path: Vec::new() };
    let opens = match (reports.first(), sets.first()) {
        (None, None) => return Ok(Vec::new()),
        (Some(first), Some(set)) => !set.push && set.probes == 0 && set.contains(first.positions),
        _ => false,
    };
    if opens {
        search.path.push(Match { report: 0, set: 0 });
        if search.explain(1, 1) {
            return Ok(search.path);
        }
    }
    Err(search.classify())
}

struct Search<'a, F> {
    reports: &'a [Report<'a>],
    sets: &'a [RegionSet],
    arrival_ns: F,
    /// States from which no explanation exists.
    dead: HashSet<(usize, usize)>,
    path: Vec<Match>,
}

impl<F: Fn(&RegionSet) -> u64> Search<'_, F> {
    /// Whether reports `i..` and sets `k..` can be explained, given that set `k - 1` is in
    /// force and report `i - 1` is the last one the server consumed.
    fn explain(&mut self, i: usize, k: usize) -> bool {
        if i == self.reports.len() {
            // Pushes may still trail the last report; updates may not.
            let last = self.reports[i - 1].positions;
            return self.sets[k..].iter().all(|set| set.push && set.contains(last));
        }
        if self.dead.contains(&(i, k)) {
            return false;
        }
        let next_is_push = self.sets.get(k).is_some_and(|set| set.push);
        // A push that had arrived before the report left was certainly applied first; try
        // the certain order first and the other one only if it fails.
        let push_first =
            next_is_push && (self.arrival_ns)(&self.sets[k]) <= self.reports[i].sent_ns;
        let explained = if push_first {
            self.apply_push(i, k) || self.consume_report(i, k)
        } else {
            self.consume_report(i, k) || (next_is_push && self.apply_push(i, k))
        };
        if !explained {
            self.dead.insert((i, k));
        }
        explained
    }

    fn apply_push(&mut self, i: usize, k: usize) -> bool {
        self.sets[k].contains(self.reports[i - 1].positions) && self.explain(i, k + 1)
    }

    fn consume_report(&mut self, i: usize, k: usize) -> bool {
        let positions = self.reports[i].positions;
        let violators = self.sets[k - 1].violators(positions);
        if violators == 0 {
            return self.explain(i + 1, k);
        }
        let answered = self.sets.get(k).is_some_and(|set| {
            !set.push && set.probes == GROUP_SIZE - violators && set.contains(positions)
        });
        if !answered {
            return false;
        }
        self.path.push(Match { report: i, set: k });
        if self.explain(i + 1, k + 1) {
            return true;
        }
        self.path.pop();
        false
    }

    /// Names the failure: replays greedily, applying every push where it sits in the stream.
    fn classify(&self) -> Mismatch {
        let mut sets = self.sets.iter().peekable();
        let mut current: Option<&RegionSet> = None;
        let (mut needed, mut received) = (0usize, 0usize);
        for report in self.reports {
            while let Some(set) = sets.next_if(|set| set.push) {
                current = Some(set);
            }
            if current.is_none_or(|set| set.violators(report.positions) > 0) {
                needed += 1;
                if let Some(set) = sets.next() {
                    received += 1;
                    current = Some(set);
                }
            }
        }
        received += sets.filter(|set| !set.push).count();
        match needed.cmp(&received) {
            std::cmp::Ordering::Greater => Mismatch::Missing(needed - received),
            std::cmp::Ordering::Less => Mismatch::Unexpected(received - needed),
            std::cmp::Ordering::Equal => Mismatch::Containment,
        }
    }
}

/// Failed checks by kind; a run is correct only when all are zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Failures {
    pub missing: usize,
    pub unexpected: usize,
    pub containment: usize,
    pub meeting_point: usize,
    pub push_mismatch: usize,
    /// Error notifications, wrong ids, undecodable bytes.
    pub protocol: usize,
    /// Notifications later than the epoch period.
    pub over_limit: usize,
}

impl Failures {
    pub fn total(&self) -> usize {
        self.missing
            + self.unexpected
            + self.containment
            + self.meeting_point
            + self.push_mismatch
            + self.protocol
            + self.over_limit
    }
}

/// Totals over the frames one window received.
#[derive(Debug, Clone, Copy, Default)]
pub struct FrameTotals {
    pub frames: usize,
    /// Encoded frame bytes, without the batch count headers.
    pub frame_bytes: usize,
    /// §7.1 packets of every response.
    pub packets: usize,
    pub region_sets: usize,
    /// §7.1 values of the safe regions shipped.
    pub region_values: usize,
}

/// Everything the oracle established about one run.
#[derive(Debug, Default)]
pub struct Verdict {
    pub failures: Failures,
    /// Notification latencies of the paced window in milliseconds, by due time.
    pub latencies_ms: Vec<(u64, f64)>,
    pub notifications_expected: usize,
    pub notifications_received: usize,
    pub meeting_points_checked: usize,
    /// Totals over the frames the paced window received.
    pub paced: FrameTotals,
    /// §7.1 packets of the paced window's requests.
    pub paced_request_packets: usize,
    pub world_changes_acked: usize,
}

/// What the oracle needs to know about a finished run.
pub struct RunView<'a> {
    pub spec: &'a Spec,
    pub inputs: &'a Inputs,
    pub script: &'a Script,
    pub conns: &'a [Conn; 2],
    /// One log and one encoding per script block, in order.
    pub logs: &'a [BlockLog],
    pub encoded: &'a [Encoded],
    /// Notifications later than this count as failed.
    pub limit_ns: u64,
}

/// How many meeting points a run checks against a linear scan (the floor is 200).
const MEETING_POINT_SAMPLE: usize = 512;

/// Runs every check of the oracle over a finished run.
pub fn verify(view: &RunView<'_>) -> Verdict {
    let mut verdict = Verdict::default();
    let mut decoded = Vec::new();
    for conn in view.conns {
        match decode_stream(&conn.rx) {
            Ok(frames) => decoded.push(frames),
            Err(_) => {
                verdict.failures.protocol += 1;
                decoded.push(Vec::new());
            }
        }
    }

    let mut acks = Vec::new();
    let mut events: HashMap<u64, Vec<GroupEvent>> = HashMap::new();
    for frames in &decoded {
        collect_events(frames, &mut events, &mut acks, &mut verdict.failures);
    }
    check_world_changes(view, &acks, &events, &mut verdict);

    let paced_at = view.script.first_block(BlockKind::Paced);
    let paced_log = &view.logs[paced_at];
    for (conn, frames) in decoded.iter().enumerate() {
        tally_frames(frames, &paced_log.rx[conn], &mut verdict.paced);
    }
    verdict.paced_request_packets = view.script.blocks[paced_at]
        .slots
        .iter()
        .flat_map(|slot| &view.script.ops[slot.ops.clone()])
        .map(|&op| view.script.request(view.spec, view.inputs, op).packets())
        .sum();

    let timeline = ReportTimeline::build(view);
    let mut samples = Vec::new();
    for g in 0..view.spec.groups {
        let conn = &view.conns[view.spec.conn_of(g)];
        let group_events = events.remove(&view.script.wire_id[g]).unwrap_or_default();
        replay_group(view, &timeline, g, group_events, conn, &mut verdict, &mut samples);
    }
    check_meeting_points(view, &acks, &samples, &mut verdict);
    verdict.notifications_expected = verdict.notifications_received + verdict.failures.missing;
    verdict
}

/// An `AdminApplied` acknowledgement: the POI it names and the batch it arrived in.
struct Ack {
    poi: u64,
    batch: u32,
}

/// Sorts one connection's frames into per-group events, counting protocol-level failures.
fn collect_events(
    frames: &[Frame],
    events: &mut HashMap<u64, Vec<GroupEvent>>,
    acks: &mut Vec<Ack>,
    failures: &mut Failures,
) {
    /// A region set still being assembled.
    #[derive(Default)]
    struct Partial {
        probes: usize,
        regions: Vec<SafeRegion>,
        meeting_point: Option<Point>,
    }
    let mut partial: HashMap<u64, Partial> = HashMap::new();
    // Pushes announced in the current batch and not yet delivered, per group.
    let mut announced: HashMap<u64, usize> = HashMap::new();
    let mut batch = u32::MAX;
    for frame in frames {
        if frame.batch != batch {
            batch = frame.batch;
            // An announced push must be delivered inside the batch that announced it.
            failures.push_mismatch += announced.drain().map(|(_, n)| n).sum::<usize>();
        }
        match &frame.response {
            Response::ProbeRequest { group, .. } => partial.entry(*group).or_default().probes += 1,
            Response::SafeRegion { group, user, meeting_point, region } => {
                let p = partial.entry(*group).or_default();
                if *user as usize != p.regions.len() {
                    failures.protocol += 1;
                }
                p.regions.push(region.clone());
                p.meeting_point = Some(*meeting_point);
                if p.regions.len() == GROUP_SIZE {
                    let p = partial.remove(group).expect("just filled");
                    let pending = announced.entry(*group).or_default();
                    let push = *pending > 0;
                    *pending -= usize::from(push);
                    events.entry(*group).or_default().push(GroupEvent::Set(RegionSet {
                        regions: p.regions,
                        meeting_point: p.meeting_point.expect("set with the regions"),
                        probes: p.probes,
                        end: frame.end,
                        batch: frame.batch,
                        push,
                    }));
                }
            }
            Response::WorldUpdate { group, revised, .. } => {
                if *revised as usize != GROUP_SIZE {
                    failures.push_mismatch += 1;
                }
                *announced.entry(*group).or_default() += 1;
            }
            Response::Notification { group, kind } => match kind {
                NotificationKind::Registered => {
                    events.entry(*group).or_default().push(GroupEvent::Registered);
                }
                NotificationKind::Deregistered => {
                    events.entry(*group).or_default().push(GroupEvent::Deregistered);
                }
                NotificationKind::AdminApplied => {
                    acks.push(Ack { poi: *group, batch: frame.batch })
                }
                NotificationKind::UnknownGroup if *group >= FENCE_BASE => {}
                NotificationKind::UnknownGroup
                | NotificationKind::BadRequest
                | NotificationKind::AdminDenied
                | NotificationKind::UnknownPoi => failures.protocol += 1,
            },
        }
    }
    failures.push_mismatch += announced.values().sum::<usize>();
    // A set cut short by the end of the stream was never completed.
    failures.missing += partial.len();
}

/// Every scheduled world change must be acknowledged, in order, with the predicted POI id,
/// and every delete must have pushed to at least the group whose optimum it removed.
fn check_world_changes(
    view: &RunView<'_>,
    acks: &[Ack],
    events: &HashMap<u64, Vec<GroupEvent>>,
    verdict: &mut Verdict,
) {
    verdict.world_changes_acked = acks.len();
    let predicted: Vec<u64> = view.script.admin.iter().map(|a| a.poi).collect();
    let acked: Vec<u64> = acks.iter().map(|a| a.poi).collect();
    if predicted != acked {
        verdict.failures.push_mismatch += predicted.len().abs_diff(acked.len()).max(1);
    }
    let pushes = events
        .values()
        .flatten()
        .filter(|event| matches!(event, GroupEvent::Set(set) if set.push))
        .count();
    let deletes = view.script.admin.iter().filter(|a| !a.insert).count();
    if pushes < deletes {
        verdict.failures.push_mismatch += deletes - pushes;
    }
}

fn tally_frames(frames: &[Frame], range: &Range<usize>, totals: &mut FrameTotals) {
    for frame in frames.iter().filter(|f| f.end > range.start && f.end <= range.end) {
        totals.frames += 1;
        totals.frame_bytes += frame.len;
        totals.packets += frame.response.packets(true);
        if let Response::SafeRegion { user, .. } = &frame.response {
            totals.region_values += frame.response.values(true) - 2;
            totals.region_sets += usize::from(*user as usize == GROUP_SIZE - 1);
        }
    }
}

/// Where and when every report of the script was sent.
struct ReportTimeline {
    epochs: usize,
    /// Per `(group, epoch)`: the block and slot that carried the report.
    at: Vec<(u32, u32)>,
}

impl ReportTimeline {
    fn build(view: &RunView<'_>) -> Self {
        let epochs = view.inputs.epochs;
        let mut at = vec![(u32::MAX, u32::MAX); view.spec.groups * epochs];
        for (b, block) in view.script.blocks.iter().enumerate() {
            for (s, slot) in block.slots.iter().enumerate() {
                for op in &view.script.ops[slot.ops.clone()] {
                    if let Op::Report { g, e } = *op {
                        at[g as usize * epochs + e as usize] = (b as u32, s as u32);
                    }
                }
            }
        }
        Self { epochs, at }
    }

    fn report<'a>(&self, view: &RunView<'a>, g: usize, e: usize) -> Report<'a> {
        let (b, s) = self.at[g * self.epochs + e];
        let (block, log) = (&view.script.blocks[b as usize], &view.logs[b as usize]);
        let slot = &block.slots[s as usize];
        Report {
            positions: view.inputs.at(g, e),
            sent_ns: log.sent_ns(slot.conn, view.encoded[b as usize].slot_end[s as usize]),
            paced_due_ns: (block.kind == BlockKind::Paced).then_some(log.t0_ns + slot.due_ns),
        }
    }
}

/// A matched update kept for the meeting-point check.
struct Sample<'a> {
    positions: &'a [Point],
    meeting_point: Point,
    batch: u32,
    /// Whether the group shares connection 0 with the world changes, whose stream order then
    /// says exactly which POIs were alive when the answer was computed.
    ordered: bool,
}

/// Splits a group's events into sessions and replays each against its reports.
fn replay_group<'a>(
    view: &RunView<'a>,
    timeline: &ReportTimeline,
    g: usize,
    events: Vec<GroupEvent>,
    conn: &Conn,
    verdict: &mut Verdict,
    samples: &mut Vec<Sample<'a>>,
) {
    // Session j covers the epochs between rejoin j-1 (exclusive) and rejoin j (exclusive).
    let rejoins = &view.script.rejoins[g];
    let mut bounds = vec![0usize];
    bounds.extend(rejoins.iter().map(|&e| e as usize + 1));
    let ends = rejoins.iter().map(|&e| e as usize).chain([view.inputs.epochs]);

    let mut sessions: Vec<Vec<RegionSet>> = Vec::new();
    let (mut registered, mut deregistered) = (0usize, 0usize);
    for event in events {
        match event {
            GroupEvent::Registered => {
                registered += 1;
                sessions.push(Vec::new());
            }
            GroupEvent::Deregistered => deregistered += 1,
            GroupEvent::Set(set) => match sessions.last_mut() {
                Some(session) => session.push(set),
                None => verdict.failures.unexpected += 1,
            },
        }
    }
    if registered != bounds.len() || deregistered != rejoins.len() {
        verdict.failures.protocol += 1;
    }
    sessions.resize(bounds.len(), Vec::new());

    for ((&first, end), sets) in bounds.iter().zip(ends).zip(&sessions) {
        let reports: Vec<Report<'a>> = (first..end).map(|e| timeline.report(view, g, e)).collect();
        match replay_session(&reports, sets, |set| conn.arrival_ns(set.end)) {
            Ok(matches) => {
                for m in matches {
                    let (report, set) = (&reports[m.report], &sets[m.set]);
                    samples.push(Sample {
                        positions: report.positions,
                        meeting_point: set.meeting_point,
                        batch: set.batch,
                        ordered: view.spec.conn_of(g) == 0,
                    });
                    let (Some(due), true) = (report.paced_due_ns, m.report > 0) else { continue };
                    let latency = conn.arrival_ns(set.end).saturating_sub(due);
                    verdict.notifications_received += 1;
                    verdict.failures.over_limit += usize::from(latency > view.limit_ns);
                    verdict.latencies_ms.push((due, latency as f64 / 1e6));
                }
            }
            Err(Mismatch::Missing(n)) => verdict.failures.missing += n,
            Err(Mismatch::Unexpected(n)) => verdict.failures.unexpected += n,
            Err(Mismatch::Containment) => verdict.failures.containment += 1,
        }
    }
}

/// Checks an evenly spaced sample of answers against a linear scan over the POIs that were
/// alive when each was computed.
fn check_meeting_points(
    view: &RunView<'_>,
    acks: &[Ack],
    samples: &[Sample<'_>],
    verdict: &mut Verdict,
) {
    // With world changes in the run only connection 0's stream orders an answer against
    // them; without, every answer saw the one and only world.
    let eligible: Vec<&Sample<'_>> =
        samples.iter().filter(|s| s.ordered || view.script.admin.is_empty()).collect();
    let step = (eligible.len() / MEETING_POINT_SAMPLE).max(1);
    let objective = view.spec.config.objective;
    for sample in eligible.iter().step_by(step) {
        // A change acknowledged in the same batch was applied before that batch's tick.
        let applied = acks.iter().filter(|ack| ack.batch <= sample.batch).count();
        let mut live: Vec<Option<Point>> = view.inputs.pois.iter().copied().map(Some).collect();
        for event in &view.script.admin[..applied.min(view.script.admin.len())] {
            if event.insert {
                live.push(Some(event.at));
            } else {
                live[event.poi as usize] = None;
            }
        }
        let (_, best) = best_poi(&live, sample.positions, objective);
        let got = aggregate_dist(sample.meeting_point, sample.positions, objective);
        let want = aggregate_dist(best, sample.positions, objective);
        let is_a_live_poi = live.iter().flatten().any(|p| *p == sample.meeting_point);
        verdict.meeting_points_checked += 1;
        if !is_a_live_poi || got > want + 1e-9 * want.max(1.0) {
            verdict.failures.meeting_point += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpn_geom::Circle;

    /// A set of three unit-radius circles centred on `centres`.
    fn set(centres: [f64; 3], probes: usize, push: bool, end: usize) -> RegionSet {
        RegionSet {
            regions: centres
                .iter()
                .map(|&x| SafeRegion::Circle(Circle::new(Point::new(x, 0.0), 1.0)))
                .collect(),
            meeting_point: Point::ORIGIN,
            probes,
            end,
            batch: 0,
            push,
        }
    }

    fn at(xs: [f64; 3]) -> Vec<Point> {
        xs.iter().map(|&x| Point::new(x, 0.0)).collect()
    }

    fn reports(positions: &[Vec<Point>]) -> Vec<Report<'_>> {
        positions
            .iter()
            .enumerate()
            .map(|(i, p)| Report { positions: p, sent_ns: 100 * i as u64, paced_due_ns: None })
            .collect()
    }

    fn arrival(set: &RegionSet) -> u64 {
        set.end as u64
    }

    #[test]
    fn quiet_reports_need_no_update_and_a_leaving_report_needs_exactly_one() {
        let positions = [
            at([0.0, 10.0, 20.0]),
            at([0.5, 10.0, 20.0]),
            at([3.0, 10.0, 20.0]),
            at([3.2, 10.0, 20.0]),
        ];
        let sets = [set([0.0, 10.0, 20.0], 0, false, 10), set([3.0, 10.0, 20.0], 2, false, 250)];
        let matches = replay_session(&reports(&positions), &sets, arrival).expect("explained");
        assert_eq!(matches, vec![Match { report: 0, set: 0 }, Match { report: 2, set: 1 }]);
    }

    #[test]
    fn a_missing_and_an_unexpected_update_are_told_apart() {
        let positions = [at([0.0, 10.0, 20.0]), at([3.0, 10.0, 20.0])];
        let only_first = [set([0.0, 10.0, 20.0], 0, false, 10)];
        assert_eq!(
            replay_session(&reports(&positions), &only_first, arrival),
            Err(Mismatch::Missing(1))
        );
        let quiet = [at([0.0, 10.0, 20.0]), at([0.1, 10.0, 20.0])];
        let extra = [set([0.0, 10.0, 20.0], 0, false, 10), set([0.1, 10.0, 20.0], 2, false, 150)];
        assert_eq!(replay_session(&reports(&quiet), &extra, arrival), Err(Mismatch::Unexpected(1)));
    }

    #[test]
    fn a_region_that_does_not_contain_its_position_fails_containment() {
        let positions = [at([0.0, 10.0, 20.0]), at([3.0, 10.0, 20.0])];
        let sets = [set([0.0, 10.0, 20.0], 0, false, 10), set([9.0, 10.0, 20.0], 2, false, 150)];
        assert_eq!(
            replay_session(&reports(&positions), &sets, arrival),
            Err(Mismatch::Containment)
        );
    }

    #[test]
    fn the_probe_count_must_match_the_users_that_stayed_inside() {
        let positions = [at([0.0, 10.0, 20.0]), at([3.0, 13.0, 20.0])];
        let right = [set([0.0, 10.0, 20.0], 0, false, 10), set([3.0, 13.0, 20.0], 1, false, 150)];
        assert!(replay_session(&reports(&positions), &right, arrival).is_ok());
        let wrong = [set([0.0, 10.0, 20.0], 0, false, 10), set([3.0, 13.0, 20.0], 2, false, 150)];
        assert!(replay_session(&reports(&positions), &wrong, arrival).is_err());
    }

    #[test]
    fn a_push_in_flight_with_a_report_is_tried_in_both_orders() {
        // Report 1 stays inside the registration regions but leaves the pushed ones, so the
        // update that follows the push is only explained if the push was applied first —
        // although it arrived (t = 180) after report 1 was sent (t = 100).
        let positions = [at([0.0, 10.0, 20.0]), at([0.9, 10.0, 20.0]), at([0.9, 10.0, 20.0])];
        let sets = [
            set([0.0, 10.0, 20.0], 0, false, 10),
            set([-0.5, 10.0, 20.0], 0, true, 180),
            set([0.9, 10.0, 20.0], 2, false, 190),
        ];
        let matches = replay_session(&reports(&positions), &sets, arrival).expect("explained");
        assert_eq!(matches, vec![Match { report: 0, set: 0 }, Match { report: 1, set: 2 }]);

        // The same stream with the push applied after a report that it does not contain
        // cannot be explained at all.
        let moved = [at([0.0, 10.0, 20.0]), at([5.0, 10.0, 20.0])];
        let sets = [set([0.0, 10.0, 20.0], 0, false, 10), set([0.0, 10.0, 20.0], 0, true, 180)];
        assert!(replay_session(&reports(&moved), &sets, arrival).is_err());
    }

    #[test]
    fn a_group_that_registers_again_mid_window_is_replayed_as_two_sessions() {
        // The matcher itself sees one session at a time; this checks the split the caller
        // makes: events before the second `Registered` belong to the first session.
        let events = [
            GroupEvent::Registered,
            GroupEvent::Set(set([0.0, 10.0, 20.0], 0, false, 10)),
            GroupEvent::Set(set([3.0, 10.0, 20.0], 2, false, 150)),
            GroupEvent::Deregistered,
            GroupEvent::Registered,
            GroupEvent::Set(set([7.0, 10.0, 20.0], 0, false, 450)),
        ];
        let mut sessions: Vec<Vec<RegionSet>> = Vec::new();
        for event in &events {
            match event {
                GroupEvent::Registered => sessions.push(Vec::new()),
                GroupEvent::Deregistered => {}
                GroupEvent::Set(set) => sessions.last_mut().expect("registered").push(set.clone()),
            }
        }
        assert_eq!(sessions.iter().map(Vec::len).collect::<Vec<_>>(), vec![2, 1]);
        // Epochs 0..2 belong to the first session; epoch 2 carried the deregistration and
        // no report; epoch 3 is the second session's registration report.
        let first = [at([0.0, 10.0, 20.0]), at([3.0, 10.0, 20.0])];
        let second = [at([7.0, 10.0, 20.0]), at([7.4, 10.0, 20.0])];
        let matched = replay_session(&reports(&first), &sessions[0], arrival).expect("first");
        assert_eq!(matched.len(), 2);
        let matched = replay_session(&reports(&second), &sessions[1], arrival).expect("second");
        assert_eq!(matched, vec![Match { report: 0, set: 0 }]);
        // A first report answered with probes is not a registration answer.
        let probed = [set([7.0, 10.0, 20.0], 1, false, 450)];
        assert!(replay_session(&reports(&second), &probed, arrival).is_err());
    }
}
