//! The meeting-point monitoring protocol, wire-shaped.
//!
//! The paper's system architecture (Fig. 3) is a client/server protocol: clients stream
//! location reports uplink, the server answers downlink with safe regions, probes and
//! notifications.  This crate holds those messages — a transport-independent [`Request`] /
//! [`Response`] pair with a compact length-prefixed binary [`codec`], usable in-process (a
//! queue of decoded values) or over any byte stream (`std::net::TcpStream` in
//! `examples/network_monitoring.rs`) — and what each of them costs in the paper's packet
//! model.
//!
//! # Message shapes
//!
//! Uplink ([`Request`], client → server):
//!
//! * [`Request::Register`] — open a monitoring session for a group (`group_size` users and a
//!   [`WireConfig`] choosing objective, safe-region method and horizon);
//! * [`Request::Report`] — one epoch of user positions for a registered group (both the
//!   spontaneous step-1 violation reports and the step-2 probe replies travel as reports);
//! * [`Request::Deregister`] — close the session;
//! * [`Request::Admin`] — a world mutation ([`AdminRequest`]: POI insert / delete), accepted
//!   only from clients the server has granted admin rights.
//!
//! Downlink ([`Response`], server → client):
//!
//! * [`Response::SafeRegion`] — the step-3 unicast: the fresh optimal meeting point plus one
//!   user's new independent safe region;
//! * [`Response::ProbeRequest`] — the step-2 downlink: the server asks one user for her
//!   current location;
//! * [`Response::Notification`] — control-plane acknowledgements and errors
//!   ([`NotificationKind`]); a `Registered` notification carries the server-assigned group
//!   id every later message is addressed by;
//! * [`Response::WorldUpdate`] — the **unsolicited push** of the mutable-world protocol:
//!   a POI change invalidated this group's safe regions, revised [`Response::SafeRegion`]s
//!   follow in the same batch.  Unlike every other downlink message it is not a reply to
//!   anything the receiving client sent.
//!
//! # Cost accounting
//!
//! The paper's evaluation measures communication in TCP packets of
//! [`VALUES_PER_PACKET`](mpn_core::VALUES_PER_PACKET) double-precision values (§7.1).  The
//! cost of the three Fig. 3 messages is defined **once**, here: one user's location on the
//! uplink is [`LOCATION_VALUES`] (a step-1 report and a step-2 probe reply alike), a probe
//! is [`PROBE_VALUES`], and a step-3 notification is [`notification_values`] — the meeting
//! point plus [`region_value_count`].
//! [`values`](Request::values) / [`packets`](Request::packets) of every protocol message
//! are written in terms of them, and the monitoring sessions of `mpn-sim` charge the same
//! three definitions to their traffic tally, so the wire and the simulated figures cannot
//! drift apart (`tests/proto_parity.rs` pins the absolute numbers).  A multi-user
//! [`Request::Report`] is accounted as its constituent per-user reports — the users'
//! uplinks are physically separate transmissions, the batch is only the server-side framing.
//! The byte [`codec`] is an implementation detail underneath this model, and for tile regions
//! it stays below it: the step stream it sends ([`mpn_core::compress`]) averages a little
//! over one byte a tile on real regions against the model's own 4 (two tiles per value), so
//! modelled packets bound the real ones from above (`tests/wire_gates.rs`).  The model
//! charges an id or a count a whole value; the codec sends every integer as a varint of its
//! information content (one byte below 128), except three fixed-width fields the repository
//! benchmark walks by hand — the `u32` frame length, the `u32` batch count and the 10-byte
//! [`Response::Notification`] (see [`codec`]).
//!
//! Control-plane messages (`Register`, `Deregister`, `Notification`) have no counterpart in
//! the paper's Fig. 3 accounting; they are charged their literal payload (1–2 values).

#![forbid(unsafe_code)]

pub mod codec;

pub use codec::{read_frame, DecodeError, FrameReader, MAX_FRAME_LEN, MAX_REPORT_POSITIONS};

use mpn_core::{packets_for_values, region_value_count, Method, Objective, SafeRegion};
use mpn_geom::Point;

/// §7.1 cost of one user's location on the uplink — her coordinates — whether she reports
/// on her own (step 1 of Fig. 3) or answers a probe (step 2).
pub const LOCATION_VALUES: usize = 2;

/// §7.1 cost of a step-2 probe: it carries only the query identifier.
pub const PROBE_VALUES: usize = 1;

/// §7.1 cost of a step-3 notification to one user: the meeting point's coordinates plus her
/// safe region ([`region_value_count`]; `compress` selects the lossless tile encoding, circles
/// are always 3 plain values).
#[must_use]
pub fn notification_values(region: &SafeRegion, compress: bool) -> usize {
    2 + region_value_count(region, compress)
}

/// Server-assigned identifier of a monitored group, carried by every post-registration
/// message (`mpn-sim`'s dense `GroupId`, widened for the wire).
pub type WireGroupId = u64;

/// The objective a client requests, as shipped on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireObjective {
    /// Minimise the maximum user distance (MPN).
    Max,
    /// Minimise the total user distance (Sum-MPN).
    Sum,
}

impl From<WireObjective> for Objective {
    fn from(wire: WireObjective) -> Self {
        match wire {
            WireObjective::Max => Objective::Max,
            WireObjective::Sum => Objective::Sum,
        }
    }
}

impl From<Objective> for WireObjective {
    fn from(objective: Objective) -> Self {
        match objective {
            Objective::Max => WireObjective::Max,
            Objective::Sum => WireObjective::Sum,
        }
    }
}

/// The safe-region method a client requests, as shipped on the wire.
///
/// This is the compact client-facing description; it resolves to a full server-side
/// [`Method`] (with the server's default tuning parameters) via [`WireMethod::to_method`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WireMethod {
    /// Circular safe regions (`Circle`).
    Circle,
    /// Tile-based safe regions with the default ordering (`Tile`).
    Tile,
    /// Tile-based regions with the directed ordering (`Tile-D`).
    TileDirected {
        /// Half-angle of the heading cone steering the ordering.
        theta: f64,
    },
    /// Tile-based regions with the directed ordering and §5.4 buffering (`Tile-D-b`).
    TileDirectedBuffered {
        /// Half-angle of the heading cone steering the ordering.
        theta: f64,
        /// Buffer size `b` (GNN prefix length).
        buffer: u32,
    },
}

impl WireMethod {
    /// Resolves the wire description to a server-side [`Method`] with default tuning.
    #[must_use]
    pub fn to_method(self) -> Method {
        match self {
            WireMethod::Circle => Method::circle(),
            WireMethod::Tile => Method::tile(),
            WireMethod::TileDirected { theta } => Method::tile_directed(theta),
            WireMethod::TileDirectedBuffered { theta, buffer } => {
                Method::tile_directed_buffered(theta, buffer as usize)
            }
        }
    }
}

/// The monitoring configuration a client chooses at registration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireConfig {
    /// MAX or SUM objective.
    pub objective: WireObjective,
    /// Safe-region method.
    pub method: WireMethod,
    /// Whether tile regions are shipped compressed (the paper's default).
    pub compress_regions: bool,
    /// Whether the server keeps the §5.4 GNN buffer alive across updates (Tile-D-b only).
    pub persist_buffers: bool,
    /// Cap on monitored timestamps; `None` = open horizon (monitor until deregistration).
    pub max_timestamps: Option<u32>,
}

impl Default for WireConfig {
    /// MAX objective, circular regions, compression on, open horizon.
    fn default() -> Self {
        Self {
            objective: WireObjective::Max,
            method: WireMethod::Circle,
            compress_regions: true,
            persist_buffers: false,
            max_timestamps: None,
        }
    }
}

/// An uplink protocol message (client → server).
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Open a monitoring session for a group of `group_size` users.
    Register {
        /// Number of users in the group.
        group_size: u32,
        /// The requested monitoring configuration.
        config: WireConfig,
    },
    /// One epoch of location reports for the whole group (one position per user, in user
    /// order) — step 1 of Fig. 3 for violators, and the step-2 probe replies.
    Report {
        /// The group the positions belong to.
        group: WireGroupId,
        /// One position per user.
        positions: Vec<Point>,
    },
    /// Close the session; the server reclaims its state and folds its metrics into the
    /// fleet totals.
    Deregister {
        /// The group to deregister.
        group: WireGroupId,
    },
    /// A POI world mutation, gated per-client: the server only honours it from clients it
    /// has granted admin rights (everyone else gets [`NotificationKind::AdminDenied`]).
    Admin(AdminRequest),
}

/// The world mutation an admin client requests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdminRequest {
    /// A new POI appears at `location`; the server assigns its id and echoes it in the
    /// [`NotificationKind::AdminApplied`] acknowledgement.
    PoiInsert {
        /// Where the new POI appears.
        location: Point,
    },
    /// POI `poi` disappears; an unknown id earns [`NotificationKind::UnknownPoi`], the last
    /// live POI [`NotificationKind::BadRequest`] (the world may not become empty).
    PoiDelete {
        /// Id of the POI to remove.
        poi: u64,
    },
}

/// A downlink protocol message (server → client).
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Step 3 of Fig. 3, per user: the fresh optimal meeting point together with the user's
    /// new independent safe region.
    SafeRegion {
        /// The group the assignment belongs to.
        group: WireGroupId,
        /// Index of the user inside her group.
        user: u32,
        /// The optimal meeting point of this update.
        meeting_point: Point,
        /// The user's new safe region.
        region: SafeRegion,
    },
    /// Step 2 of Fig. 3 (downlink): the server asks one user for her current location.
    ProbeRequest {
        /// The group being probed.
        group: WireGroupId,
        /// Index of the probed user.
        user: u32,
    },
    /// Control-plane acknowledgement or error.
    Notification {
        /// The group the notification concerns (the assigned id for
        /// [`NotificationKind::Registered`], the echoed id otherwise; for the admin
        /// acknowledgements this field carries the **POI id** instead).
        group: WireGroupId,
        /// What happened.
        kind: NotificationKind,
    },
    /// Unsolicited server push: a POI world change broke this group's safe regions and the
    /// server recomputed them.  `revised` [`Response::SafeRegion`] messages (one per user)
    /// follow in the same response batch.
    WorldUpdate {
        /// The affected group.
        group: WireGroupId,
        /// The world generation the revised regions are valid for.
        generation: u64,
        /// How many revised safe-region messages follow.
        revised: u32,
    },
}

/// What a [`Response::Notification`] announces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NotificationKind {
    /// The registration succeeded; the notification's `group` is the assigned id.
    Registered,
    /// The deregistration succeeded; the session's state was reclaimed.
    Deregistered,
    /// The addressed group is not registered (never was, or already deregistered).
    UnknownGroup,
    /// The request was malformed at the protocol level: a report whose batch does not hold
    /// one position per user, a registration for an empty group or for one too large to
    /// ever fit a report frame (more than [`MAX_REPORT_POSITIONS`] users), or an admin delete
    /// of the last live POI (the `group` field echoes its id).
    BadRequest,
    /// The admin request was applied; the notification's `group` field carries the POI id
    /// the change concerned (the freshly assigned id of an insert, or the deleted id).
    AdminApplied,
    /// The client holds no admin rights; the world was not touched.
    AdminDenied,
    /// The admin delete addressed a POI id the world does not contain (the `group` field
    /// echoes that id).
    UnknownPoi,
}

impl Request {
    /// Payload size of this message in §7.1 double-precision values.
    ///
    /// A [`Report`](Request::Report) is [`LOCATION_VALUES`] per contained position; the
    /// control-plane messages are charged their literal payload.
    #[must_use]
    pub fn values(&self) -> usize {
        match self {
            // Control plane: group size + config word.
            Request::Register { .. } => 2,
            Request::Report { positions, .. } => LOCATION_VALUES * positions.len(),
            Request::Deregister { .. } => 1,
            // An insert carries one coordinate pair, a delete one id.
            Request::Admin(AdminRequest::PoiInsert { .. }) => 2,
            Request::Admin(AdminRequest::PoiDelete { .. }) => 1,
        }
    }

    /// Number of §7.1 TCP packets this message costs.
    ///
    /// A [`Report`](Request::Report) batch is accounted as its constituent per-user
    /// transmissions (each user uplinks separately; the batch is server-side framing).
    #[must_use]
    pub fn packets(&self) -> usize {
        match self {
            Request::Report { positions, .. } => {
                positions.len() * packets_for_values(LOCATION_VALUES)
            }
            other => packets_for_values(other.values()),
        }
    }
}

impl Response {
    /// Payload size of this message in §7.1 double-precision values.
    ///
    /// A [`SafeRegion`](Response::SafeRegion) costs [`notification_values`] — `compress`
    /// chooses the paper's compressed tile encoding, exactly like the group's
    /// `MonitorConfig::compress_regions`.
    #[must_use]
    pub fn values(&self, compress: bool) -> usize {
        match self {
            Response::SafeRegion { region, .. } => notification_values(region, compress),
            Response::ProbeRequest { .. } => PROBE_VALUES,
            Response::Notification { .. } => 1,
            // Generation stamp + revised-region count.
            Response::WorldUpdate { .. } => 2,
        }
    }

    /// Number of §7.1 TCP packets this message costs.
    #[must_use]
    pub fn packets(&self, compress: bool) -> usize {
        packets_for_values(self.values(compress))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpn_geom::Circle;

    #[test]
    fn wire_objective_and_method_resolve_to_core_types() {
        assert_eq!(Objective::from(WireObjective::Max), Objective::Max);
        assert_eq!(Objective::from(WireObjective::Sum), Objective::Sum);
        assert_eq!(WireObjective::from(Objective::Sum), WireObjective::Sum);
        assert_eq!(WireMethod::Circle.to_method().name(), "Circle");
        assert_eq!(WireMethod::Tile.to_method().name(), "Tile");
        assert_eq!(WireMethod::TileDirected { theta: 0.8 }.to_method().name(), "Tile-D");
        assert_eq!(
            WireMethod::TileDirectedBuffered { theta: 0.8, buffer: 50 }.to_method().name(),
            "Tile-D-b"
        );
    }

    #[test]
    fn report_accounting_is_per_user() {
        let report = Request::Report {
            group: 7,
            positions: vec![Point::new(1.0, 2.0), Point::new(3.0, 4.0), Point::new(5.0, 6.0)],
        };
        assert_eq!(report.values(), 6);
        assert_eq!(report.packets(), 3, "three separate single-packet uplinks");
    }

    #[test]
    fn safe_region_response_counts_meeting_point_plus_region() {
        let response = Response::SafeRegion {
            group: 1,
            user: 0,
            meeting_point: Point::new(9.0, 9.0),
            region: SafeRegion::Circle(Circle::new(Point::new(9.0, 9.0), 4.0)),
        };
        assert_eq!(response.values(true), 5);
        assert_eq!(response.packets(true), 1);
        let probe = Response::ProbeRequest { group: 1, user: 2 };
        assert_eq!(probe.values(true), 1);
        assert_eq!(probe.packets(true), 1);
    }
}
