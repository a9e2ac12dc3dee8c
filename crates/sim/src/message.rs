//! Client–server messages and their packet cost.
//!
//! The system architecture (Fig. 3) uses three message types:
//!
//! 1. a user who left her safe region reports her location to the server,
//! 2. the server probes the remaining users, who reply with their locations,
//! 3. the server notifies every user of the (possibly new) optimal meeting point together
//!    with her new safe region.
//!
//! The experiments measure communication in TCP packets: one packet carries at most
//! `(576 − 40) / 8 = 67` double-precision values (Section 7.1).  Shapes cost 3 values per
//! circle, 3 values per square tile and 4 values per rectangle; the lossless compression of
//! `mpn-core::compress` reduces tile regions to roughly half a value per tile.

use mpn_core::{packets_for_values, region_value_count, SafeRegion};

/// The direction and kind of a message, mirroring Fig. 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MessageKind {
    /// Step 1: a user reports that she left her safe region (carries her location).
    LocationReport,
    /// Step 2 (downlink): the server asks a user for her current location.
    Probe,
    /// Step 2 (uplink): a user answers a probe with her location.
    ProbeReply,
    /// Step 3: the server sends the optimal meeting point and a safe region to a user.
    ResultNotification,
}

/// A message together with its payload size in double-precision values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Message {
    /// What kind of message this is.
    pub kind: MessageKind,
    /// Payload size in 8-byte values.
    pub values: usize,
}

impl Message {
    /// A location report: the user's coordinates.
    #[must_use]
    pub fn location_report() -> Self {
        Self { kind: MessageKind::LocationReport, values: 2 }
    }

    /// A probe request: carries only the query identifier (1 value).
    #[must_use]
    pub fn probe() -> Self {
        Self { kind: MessageKind::Probe, values: 1 }
    }

    /// A probe reply: the user's coordinates.
    #[must_use]
    pub fn probe_reply() -> Self {
        Self { kind: MessageKind::ProbeReply, values: 2 }
    }

    /// A result notification: meeting point coordinates plus the safe-region payload.
    ///
    /// When `compress` is true, tile regions are shipped in the lossless compressed encoding;
    /// circles are always 3 plain values.  The region payload size is the shared §7.1
    /// definition [`mpn_core::region_value_count`], which also pins the `mpn-proto` wire
    /// accounting.
    #[must_use]
    pub fn result_notification(region: &SafeRegion, compress: bool) -> Self {
        Self {
            kind: MessageKind::ResultNotification,
            values: 2 + region_value_count(region, compress),
        }
    }

    /// Number of TCP packets this message occupies.
    #[must_use]
    pub fn packets(&self) -> usize {
        packets_for_values(self.values)
    }
}

/// Tally of messages and packets exchanged during a monitoring run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Traffic {
    /// Total messages sent (all kinds, both directions).
    pub messages: usize,
    /// Total TCP packets sent.
    pub packets: usize,
    /// Packets sent from clients to the server (uplink).
    pub uplink_packets: usize,
    /// Packets sent from the server to clients (downlink).
    pub downlink_packets: usize,
}

impl Traffic {
    /// Records one message.
    pub fn record(&mut self, message: Message) {
        self.messages += 1;
        let packets = message.packets();
        self.packets += packets;
        match message.kind {
            MessageKind::LocationReport | MessageKind::ProbeReply => self.uplink_packets += packets,
            MessageKind::Probe | MessageKind::ResultNotification => {
                self.downlink_packets += packets;
            }
        }
    }

    /// Merges another tally into this one.
    pub fn absorb(&mut self, other: &Traffic) {
        self.messages += other.messages;
        self.packets += other.packets;
        self.uplink_packets += other.uplink_packets;
        self.downlink_packets += other.downlink_packets;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpn_core::{TileCell, TileFrame, TileRegion};
    use mpn_geom::{Circle, Point};

    #[test]
    fn small_messages_fit_one_packet() {
        assert_eq!(Message::location_report().packets(), 1);
        assert_eq!(Message::probe().packets(), 1);
        assert_eq!(Message::probe_reply().packets(), 1);
    }

    #[test]
    fn circle_notification_is_one_packet() {
        let region = SafeRegion::Circle(Circle::new(Point::ORIGIN, 5.0));
        let msg = Message::result_notification(&region, true);
        assert_eq!(msg.values, 5);
        assert_eq!(msg.packets(), 1);
    }

    #[test]
    fn tile_notification_packets_depend_on_compression() {
        let mut tiles = TileRegion::with_seed(TileFrame::centered_at(Point::ORIGIN, 2.0));
        for i in 1..=120 {
            tiles.push(TileCell::new(0, i, 0));
        }
        let region = SafeRegion::Tiles(tiles);
        let plain = Message::result_notification(&region, false);
        let compressed = Message::result_notification(&region, true);
        // 121 tiles * 3 values + 2 > 5 packets uncompressed; compressed fits in 2.
        assert_eq!(plain.values, 2 + 3 * 121);
        assert!(plain.packets() >= 5);
        assert!(compressed.values < plain.values / 3);
        assert!(compressed.packets() <= 2);
    }

    #[test]
    fn traffic_tallies_direction_correctly() {
        let mut t = Traffic::default();
        t.record(Message::location_report());
        t.record(Message::probe());
        t.record(Message::probe_reply());
        let region = SafeRegion::Circle(Circle::new(Point::ORIGIN, 1.0));
        t.record(Message::result_notification(&region, true));
        assert_eq!(t.messages, 4);
        assert_eq!(t.packets, 4);
        assert_eq!(t.uplink_packets, 2);
        assert_eq!(t.downlink_packets, 2);

        let mut total = Traffic::default();
        total.absorb(&t);
        total.absorb(&t);
        assert_eq!(total.messages, 8);
        assert_eq!(total.packets, 8);
    }
}
