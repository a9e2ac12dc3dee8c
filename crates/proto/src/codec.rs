//! The compact length-prefixed binary codec of the protocol.
//!
//! Every message travels as one **frame**: a little-endian `u32` payload length, a one-byte
//! message tag, then the tag's payload.  Every integer field of a payload — group, user and
//! POI ids, the group size, the buffer and horizon of a [`WireConfig`], a world generation and
//! its revised count — is a canonical LEB128 varint ([`mpn_core::compress::put_varint`]), one
//! byte below 128.  A [`Request::Report`] carries no position count: its positions are the
//! rest of the frame, 16 bytes each.  `f64`s ship as their little-endian IEEE-754 bit patterns
//! (the round-trip is exact, which the property tests pin); tile regions ship as their shared
//! frame plus the step stream of [`mpn_core::compress`] — one byte per cell that neighbours
//! its predecessor, the whole cell after an escape byte otherwise — and are rebuilt exactly,
//! cells in their original order, on decode.
//!
//! Three things stay fixed-width, because the repository benchmark walks them by hand without
//! the codec (`FenceScan` in `benchmark/src/loadgen.rs`, `decode_stream` in
//! `benchmark/src/oracle.rs`): the `u32` frame length, the `u32` message count in front of a
//! downlink batch (`mpn-net`'s `encode_batch`), and the 10-byte [`Response::Notification`]
//! payload — tag, `u64` group, kind — whose `UnknownGroup` echo the load generator scans for.
//!
//! Uplink and downlink tags live in disjoint ranges (`0x01..` vs `0x81..`), so a captured
//! frame identifies its direction and [`Request::decode`] cannot silently parse a response
//! (and vice versa).
//!
//! Decoding is incremental-friendly: [`DecodeError::Incomplete`] means "feed me more bytes",
//! which is exactly what a socket read loop needs — or use [`read_frame`] to pull one whole
//! frame off any [`std::io::Read`].  All other errors are malformed input; decoders never
//! panic, and allocate in proportion to the [`MAX_FRAME_LEN`]-bounded bytes actually present.

use std::io::Read;

use mpn_core::compress::{put_varint, varint};
use mpn_core::{decode_cells, encode_cells, SafeRegion, TileFrame, TileRegion};
use mpn_geom::{Circle, Point};

use crate::{
    AdminRequest, NotificationKind, Request, Response, WireConfig, WireMethod, WireObjective,
};

/// Upper bound on a frame's declared payload length: decoders reject anything larger before
/// allocating.  16 MiB comfortably holds any realistic epoch batch or tile region while
/// keeping a malicious length prefix harmless.
pub const MAX_FRAME_LEN: usize = 16 << 20;

/// Most positions one [`Request::Report`] frame can carry: what [`MAX_FRAME_LEN`] leaves after
/// the tag and the longest (10-byte) group varint, at 16 bytes a position.
pub const MAX_REPORT_POSITIONS: usize = (MAX_FRAME_LEN - 11) / 16;

/// Why a frame failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ends before the frame does — not an error over a stream, just "read more".
    Incomplete,
    /// The frame's message tag is unknown (or belongs to the opposite direction).
    UnknownTag(u8),
    /// The declared payload length exceeds [`MAX_FRAME_LEN`].
    Oversize(usize),
    /// The payload does not parse as the tag's message.
    Malformed(&'static str),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Incomplete => write!(f, "frame is incomplete; more bytes are needed"),
            DecodeError::UnknownTag(tag) => write!(f, "unknown message tag {tag:#04x}"),
            DecodeError::Oversize(len) => {
                write!(f, "declared frame length {len} exceeds the {MAX_FRAME_LEN} byte cap")
            }
            DecodeError::Malformed(what) => write!(f, "malformed frame: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

// Message tags.  Uplink is 0x01.., downlink 0x81.. — disjoint on purpose.
const TAG_REGISTER: u8 = 0x01;
const TAG_REPORT: u8 = 0x02;
const TAG_DEREGISTER: u8 = 0x03;
const TAG_ADMIN: u8 = 0x04;
const TAG_SAFE_REGION: u8 = 0x81;
const TAG_PROBE_REQUEST: u8 = 0x82;
const TAG_NOTIFICATION: u8 = 0x83;
const TAG_WORLD_UPDATE: u8 = 0x84;

// Sub-tags.  Region kind 1 was the retired 9-bytes-a-cell tile layout: it stays unassigned
// so that an old frame is "unknown region kind", not a misread step stream.
const REGION_CIRCLE: u8 = 0;
const REGION_TILES: u8 = 2;
const ADMIN_POI_INSERT: u8 = 0;
const ADMIN_POI_DELETE: u8 = 1;

/// Sequential reader over the unread rest of one frame's payload.
struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if n > self.rest.len() {
            return Err(DecodeError::Malformed("truncated payload"));
        }
        let (head, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("take returned 8 bytes")))
    }

    fn varint(&mut self) -> Result<u64, DecodeError> {
        varint(&mut self.rest).map_err(DecodeError::Malformed)
    }

    /// A varint of a field the protocol types as `u32`.
    fn varint_u32(&mut self) -> Result<u32, DecodeError> {
        u32::try_from(self.varint()?).map_err(|_| DecodeError::Malformed("varint exceeds u32"))
    }

    fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn point(&mut self) -> Result<Point, DecodeError> {
        Ok(Point::new(self.f64()?, self.f64()?))
    }

    fn finish(self) -> Result<(), DecodeError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(DecodeError::Malformed("trailing bytes after the payload"))
        }
    }
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

fn put_point(out: &mut Vec<u8>, p: Point) {
    put_f64(out, p.x);
    put_f64(out, p.y);
}

/// Encodes `payload` as one frame (length prefix + tag + payload bytes) appended to `out`.
fn frame(out: &mut Vec<u8>, tag: u8, payload: impl FnOnce(&mut Vec<u8>)) {
    let len_at = out.len();
    out.extend_from_slice(&[0; 4]); // patched below
    out.push(tag);
    payload(out);
    let len = out.len() - len_at - 4;
    debug_assert!(len <= MAX_FRAME_LEN, "encoder produced an oversize frame");
    out[len_at..len_at + 4]
        .copy_from_slice(&u32::try_from(len).expect("frame fits u32").to_le_bytes());
}

/// Splits one frame off the front of `buf`: returns the payload (tag included) and the total
/// number of bytes consumed.
fn split_frame(buf: &[u8]) -> Result<(&[u8], usize), DecodeError> {
    let Some(len_bytes) = buf.get(..4) else {
        return Err(DecodeError::Incomplete);
    };
    let len = u32::from_le_bytes(len_bytes.try_into().expect("sliced 4 bytes")) as usize;
    if len > MAX_FRAME_LEN {
        return Err(DecodeError::Oversize(len));
    }
    if len == 0 {
        return Err(DecodeError::Malformed("empty frame (no message tag)"));
    }
    let Some(payload) = buf.get(4..4 + len) else {
        return Err(DecodeError::Incomplete);
    };
    Ok((payload, 4 + len))
}

fn encode_config(out: &mut Vec<u8>, config: &WireConfig) {
    out.push(match config.objective {
        WireObjective::Max => 0,
        WireObjective::Sum => 1,
    });
    match config.method {
        WireMethod::Circle => out.push(0),
        WireMethod::Tile => out.push(1),
        WireMethod::TileDirected { theta } => {
            out.push(2);
            put_f64(out, theta);
        }
        WireMethod::TileDirectedBuffered { theta, buffer } => {
            out.push(3);
            put_f64(out, theta);
            put_varint(out, buffer.into());
        }
    }
    out.push(u8::from(config.compress_regions) | (u8::from(config.persist_buffers) << 1));
    match config.max_timestamps {
        None => out.push(0),
        Some(cap) => {
            out.push(1);
            put_varint(out, cap.into());
        }
    }
}

fn decode_config(r: &mut Reader<'_>) -> Result<WireConfig, DecodeError> {
    let objective = match r.u8()? {
        0 => WireObjective::Max,
        1 => WireObjective::Sum,
        _ => return Err(DecodeError::Malformed("unknown objective")),
    };
    let method = match r.u8()? {
        0 => WireMethod::Circle,
        1 => WireMethod::Tile,
        2 => WireMethod::TileDirected { theta: r.f64()? },
        3 => WireMethod::TileDirectedBuffered { theta: r.f64()?, buffer: r.varint_u32()? },
        _ => return Err(DecodeError::Malformed("unknown method")),
    };
    let flags = r.u8()?;
    if flags > 0b11 {
        return Err(DecodeError::Malformed("unknown config flags"));
    }
    let max_timestamps = match r.u8()? {
        0 => None,
        1 => Some(r.varint_u32()?),
        _ => return Err(DecodeError::Malformed("unknown horizon marker")),
    };
    Ok(WireConfig {
        objective,
        method,
        compress_regions: flags & 1 != 0,
        persist_buffers: flags & 2 != 0,
        max_timestamps,
    })
}

fn encode_region(out: &mut Vec<u8>, region: &SafeRegion) {
    match region {
        SafeRegion::Circle(circle) => {
            out.push(REGION_CIRCLE);
            put_point(out, circle.center);
            put_f64(out, circle.radius);
        }
        SafeRegion::Tiles(tiles) => {
            out.push(REGION_TILES);
            let frame = tiles.frame();
            put_point(out, frame.origin);
            put_f64(out, frame.delta);
            encode_cells(tiles.cells(), out);
        }
    }
}

fn decode_region(r: &mut Reader<'_>) -> Result<SafeRegion, DecodeError> {
    match r.u8()? {
        REGION_CIRCLE => {
            let center = r.point()?;
            let radius = r.f64()?;
            Ok(SafeRegion::Circle(Circle::new(center, radius)))
        }
        REGION_TILES => {
            let origin = r.point()?;
            let delta = r.f64()?;
            // The stream bounds its count by the remaining payload before allocating; one
            // sort finds duplicates, so a megabyte of one-byte cells is not 10¹² compares.
            let (cells, used) = decode_cells(r.rest).map_err(DecodeError::Malformed)?;
            r.rest = &r.rest[used..];
            let region = TileRegion::from_cells(TileFrame { origin, delta }, cells)
                .ok_or(DecodeError::Malformed("duplicate tile cells"))?;
            Ok(SafeRegion::Tiles(Box::new(region)))
        }
        _ => Err(DecodeError::Malformed("unknown region kind")),
    }
}

impl Request {
    /// Appends this message to `out` as one length-prefixed frame.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Request::Register { group_size, config } => frame(out, TAG_REGISTER, |out| {
                put_varint(out, (*group_size).into());
                encode_config(out, config);
            }),
            Request::Report { group, positions } => frame(out, TAG_REPORT, |out| {
                put_varint(out, *group);
                for p in positions {
                    put_point(out, *p);
                }
            }),
            Request::Deregister { group } => frame(out, TAG_DEREGISTER, |out| {
                put_varint(out, *group);
            }),
            Request::Admin(admin) => frame(out, TAG_ADMIN, |out| match admin {
                AdminRequest::PoiInsert { location } => {
                    out.push(ADMIN_POI_INSERT);
                    put_point(out, *location);
                }
                AdminRequest::PoiDelete { poi } => {
                    out.push(ADMIN_POI_DELETE);
                    put_varint(out, *poi);
                }
            }),
        }
    }

    /// This message as a fresh frame.
    #[must_use]
    pub fn encoded(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Decodes one frame off the front of `buf`; returns the message and the bytes consumed.
    ///
    /// # Errors
    /// [`DecodeError::Incomplete`] when `buf` holds less than one whole frame (read more and
    /// retry); any other error means the frame is not a valid uplink message.
    pub fn decode(buf: &[u8]) -> Result<(Self, usize), DecodeError> {
        let (payload, consumed) = split_frame(buf)?;
        let mut r = Reader { rest: &payload[1..] };
        let request = match payload[0] {
            TAG_REGISTER => {
                let group_size = r.varint_u32()?;
                let config = decode_config(&mut r)?;
                Request::Register { group_size, config }
            }
            TAG_REPORT => {
                let group = r.varint()?;
                // The positions are the rest of the frame, whose length bounds the allocation.
                if !r.rest.len().is_multiple_of(16) {
                    return Err(DecodeError::Malformed("report ends inside a position"));
                }
                let mut positions = Vec::with_capacity(r.rest.len() / 16);
                while !r.rest.is_empty() {
                    positions.push(r.point()?);
                }
                Request::Report { group, positions }
            }
            TAG_DEREGISTER => Request::Deregister { group: r.varint()? },
            TAG_ADMIN => Request::Admin(match r.u8()? {
                ADMIN_POI_INSERT => AdminRequest::PoiInsert { location: r.point()? },
                ADMIN_POI_DELETE => AdminRequest::PoiDelete { poi: r.varint()? },
                _ => return Err(DecodeError::Malformed("unknown admin command")),
            }),
            tag => return Err(DecodeError::UnknownTag(tag)),
        };
        r.finish()?;
        Ok((request, consumed))
    }
}

impl Response {
    /// Appends this message to `out` as one length-prefixed frame.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Response::SafeRegion { group, user, meeting_point, region } => {
                frame(out, TAG_SAFE_REGION, |out| {
                    put_varint(out, *group);
                    put_varint(out, (*user).into());
                    put_point(out, *meeting_point);
                    encode_region(out, region);
                });
            }
            Response::ProbeRequest { group, user } => frame(out, TAG_PROBE_REQUEST, |out| {
                put_varint(out, *group);
                put_varint(out, (*user).into());
            }),
            // Fixed-width on purpose: the benchmark's load generator scans for this layout.
            Response::Notification { group, kind } => frame(out, TAG_NOTIFICATION, |out| {
                put_u64(out, *group);
                out.push(match kind {
                    NotificationKind::Registered => 0,
                    NotificationKind::Deregistered => 1,
                    NotificationKind::UnknownGroup => 2,
                    NotificationKind::BadRequest => 3,
                    NotificationKind::AdminApplied => 4,
                    NotificationKind::AdminDenied => 5,
                    NotificationKind::UnknownPoi => 6,
                });
            }),
            Response::WorldUpdate { group, generation, revised } => {
                frame(out, TAG_WORLD_UPDATE, |out| {
                    put_varint(out, *group);
                    put_varint(out, *generation);
                    put_varint(out, (*revised).into());
                });
            }
        }
    }

    /// This message as a fresh frame.
    #[must_use]
    pub fn encoded(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Decodes one frame off the front of `buf`; returns the message and the bytes consumed.
    ///
    /// # Errors
    /// [`DecodeError::Incomplete`] when `buf` holds less than one whole frame (read more and
    /// retry); any other error means the frame is not a valid downlink message.
    pub fn decode(buf: &[u8]) -> Result<(Self, usize), DecodeError> {
        let (payload, consumed) = split_frame(buf)?;
        let mut r = Reader { rest: &payload[1..] };
        let response = match payload[0] {
            TAG_SAFE_REGION => {
                let group = r.varint()?;
                let user = r.varint_u32()?;
                let meeting_point = r.point()?;
                let region = decode_region(&mut r)?;
                Response::SafeRegion { group, user, meeting_point, region }
            }
            TAG_PROBE_REQUEST => {
                Response::ProbeRequest { group: r.varint()?, user: r.varint_u32()? }
            }
            TAG_NOTIFICATION => {
                let group = r.u64()?;
                let kind = match r.u8()? {
                    0 => NotificationKind::Registered,
                    1 => NotificationKind::Deregistered,
                    2 => NotificationKind::UnknownGroup,
                    3 => NotificationKind::BadRequest,
                    4 => NotificationKind::AdminApplied,
                    5 => NotificationKind::AdminDenied,
                    6 => NotificationKind::UnknownPoi,
                    _ => return Err(DecodeError::Malformed("unknown notification kind")),
                };
                Response::Notification { group, kind }
            }
            TAG_WORLD_UPDATE => Response::WorldUpdate {
                group: r.varint()?,
                generation: r.varint()?,
                revised: r.varint_u32()?,
            },
            tag => return Err(DecodeError::UnknownTag(tag)),
        };
        r.finish()?;
        Ok((response, consumed))
    }
}

/// Reads exactly one frame (length prefix included) off a byte stream.
///
/// Returns `Ok(None)` on a clean end-of-stream *between* frames (the peer closed the
/// connection); an EOF in the middle of a frame is an [`std::io::ErrorKind::UnexpectedEof`]
/// error.  The returned bytes feed straight into [`Request::decode`] / [`Response::decode`].
///
/// # Errors
/// Propagates I/O errors; an oversize length prefix is reported as
/// [`std::io::ErrorKind::InvalidData`] before any payload allocation.
pub fn read_frame(stream: &mut impl Read) -> std::io::Result<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0;
    while filled < len_bytes.len() {
        match stream.read(&mut len_bytes[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "stream closed inside a frame's length prefix",
                ))
            }
            n => filled += n,
        }
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME_LEN {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            DecodeError::Oversize(len).to_string(),
        ));
    }
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body)?;
    let mut out = Vec::with_capacity(4 + len);
    out.extend_from_slice(&len_bytes);
    out.extend_from_slice(&body);
    Ok(Some(out))
}

/// Incremental frame assembler for readiness-driven (non-blocking) transports.
///
/// [`read_frame`] needs a blocking [`Read`]; an event loop instead gets arbitrary byte chunks
/// whenever a socket is readable.  A `FrameReader` buffers those chunks
/// ([`feed`](FrameReader::feed)) and hands back whole decoded messages as soon as they are
/// complete ([`next_request`](FrameReader::next_request)), mapping the codec's
/// [`DecodeError::Incomplete`] to `Ok(None)` — "wait for more bytes" is not an error on a
/// stream.  Every other [`DecodeError`] **is** final: the stream is desynchronised (unknown
/// tag, lying length, malformed payload) and the connection should be closed; the reader
/// makes no attempt to resynchronise.
///
/// Consumed bytes are compacted away lazily, so a long-lived connection's buffer stays
/// proportional to its largest in-flight frame, not its lifetime traffic.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// Bytes of `buf` before this offset are already decoded and await compaction.
    pos: usize,
}

impl FrameReader {
    /// Creates an empty reader.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends bytes read off the transport (any chunking, including one byte at a time).
    pub fn feed(&mut self, bytes: &[u8]) {
        // Compact before growing: reuse the dead prefix instead of enlarging the buffer.
        if self.pos > 0 && (self.pos == self.buf.len() || self.pos >= 4096) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes fed but not yet decoded into a message.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Decodes the next complete uplink message, `Ok(None)` when more bytes are needed.
    ///
    /// # Errors
    /// Any error other than the internally-absorbed [`DecodeError::Incomplete`]: the stream
    /// is broken and cannot be decoded further.
    pub fn next_request(&mut self) -> Result<Option<Request>, DecodeError> {
        match Request::decode(&self.buf[self.pos..]) {
            Ok((message, consumed)) => {
                self.pos += consumed;
                Ok(Some(message))
            }
            Err(DecodeError::Incomplete) => Ok(None),
            Err(fatal) => Err(fatal),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpn_core::{TileCell, MAX_TILE_LEVEL};

    /// A `SafeRegion` frame of region `kind` (all-zero ids, meeting point and tile frame) and
    /// `stream` verbatim: puts a step stream no encoder would write in front of the decoder.
    fn region_frame(kind: u8, stream: &[u8]) -> Vec<u8> {
        let mut bytes = Vec::new();
        frame(&mut bytes, TAG_SAFE_REGION, |out| {
            out.extend_from_slice(&[0; 18]);
            out.push(kind);
            out.extend_from_slice(&[0; 24]);
            out.extend_from_slice(stream);
        });
        bytes
    }

    fn tile_region() -> SafeRegion {
        let mut region = TileRegion::with_seed(TileFrame::centered_at(Point::new(4.0, -3.0), 2.0));
        for (level, ix, iy) in [(0, 1, 0), (1, -2, 3), (2, 5, -7)] {
            region.push(TileCell::new(level, ix, iy));
        }
        SafeRegion::Tiles(Box::new(region))
    }

    #[test]
    fn requests_round_trip() {
        let requests = [
            Request::Register {
                group_size: 4,
                config: WireConfig {
                    objective: WireObjective::Sum,
                    method: WireMethod::TileDirectedBuffered { theta: 0.75, buffer: 100 },
                    compress_regions: true,
                    persist_buffers: true,
                    max_timestamps: Some(500),
                },
            },
            Request::Report {
                group: 42,
                positions: vec![Point::new(1.5, -2.5), Point::new(0.0, 9.75)],
            },
            Request::Deregister { group: u64::MAX },
            Request::Admin(AdminRequest::PoiInsert { location: Point::new(-7.25, 1e9) }),
            Request::Admin(AdminRequest::PoiDelete { poi: 123_456 }),
        ];
        for request in &requests {
            let bytes = request.encoded();
            let (decoded, consumed) = Request::decode(&bytes).expect("a valid frame");
            assert_eq!(&decoded, request);
            assert_eq!(consumed, bytes.len());
        }
    }

    #[test]
    fn responses_round_trip_including_tile_regions() {
        let responses = [
            Response::SafeRegion {
                group: 3,
                user: 1,
                meeting_point: Point::new(10.0, 20.0),
                region: SafeRegion::Circle(Circle::new(Point::new(1.0, 2.0), 5.5)),
            },
            Response::SafeRegion {
                group: 3,
                user: 2,
                meeting_point: Point::new(-4.0, 0.25),
                region: tile_region(),
            },
            Response::ProbeRequest { group: 3, user: 0 },
            Response::Notification { group: 9, kind: NotificationKind::Registered },
            Response::Notification { group: 9, kind: NotificationKind::BadRequest },
            Response::Notification { group: 17, kind: NotificationKind::AdminApplied },
            Response::Notification { group: 0, kind: NotificationKind::AdminDenied },
            Response::Notification { group: 17, kind: NotificationKind::UnknownPoi },
            Response::WorldUpdate { group: 5, generation: u64::MAX, revised: 3 },
        ];
        for response in &responses {
            let bytes = response.encoded();
            let (decoded, consumed) = Response::decode(&bytes).expect("a valid frame");
            assert_eq!(&decoded, response);
            assert_eq!(consumed, bytes.len());
        }
    }

    #[test]
    fn concatenated_frames_decode_sequentially() {
        let mut wire = Vec::new();
        Request::Deregister { group: 1 }.encode(&mut wire);
        Request::Report { group: 2, positions: vec![Point::new(3.0, 4.0)] }.encode(&mut wire);
        let (first, used) = Request::decode(&wire).unwrap();
        assert_eq!(first, Request::Deregister { group: 1 });
        let (second, used_second) = Request::decode(&wire[used..]).unwrap();
        assert_eq!(second, Request::Report { group: 2, positions: vec![Point::new(3.0, 4.0)] });
        assert_eq!(used + used_second, wire.len());
    }

    #[test]
    fn incomplete_buffers_ask_for_more_bytes() {
        let bytes = Request::Report { group: 5, positions: vec![Point::new(1.0, 1.0)] }.encoded();
        for cut in 0..bytes.len() {
            assert_eq!(
                Request::decode(&bytes[..cut]).unwrap_err(),
                DecodeError::Incomplete,
                "a {cut}-byte prefix is incomplete, not malformed"
            );
        }
    }

    #[test]
    fn malformed_frames_are_rejected_without_panicking() {
        // Unknown tag (a downlink tag fed to the request decoder and vice versa).
        let bytes = Response::ProbeRequest { group: 0, user: 0 }.encoded();
        assert_eq!(Request::decode(&bytes).unwrap_err(), DecodeError::UnknownTag(0x82));
        let bytes = Request::Deregister { group: 0 }.encoded();
        assert_eq!(Response::decode(&bytes).unwrap_err(), DecodeError::UnknownTag(0x03));

        // Oversize declared length.
        let mut huge = ((MAX_FRAME_LEN + 1) as u32).to_le_bytes().to_vec();
        huge.push(TAG_DEREGISTER);
        assert!(matches!(Request::decode(&huge).unwrap_err(), DecodeError::Oversize(_)));

        // One payload per way a frame can lie, and the fault it must be named by.  A varint
        // must be canonical (no padding or trailing zero group, at most ten bytes, nothing
        // above `u64`), and fit `u32` where the field is one; a report's positions are the
        // rest of its frame, so a ragged tail is malformed.
        let over_long = "varint is over-long or exceeds u64";
        let (eleven, above_u64) =
            ([[0x80; 10].as_slice(), &[1]].concat(), [[0xFF; 9].as_slice(), &[2]].concat());
        let ragged = [&[1][..], &[0; 16 * 1024 + 5]].concat();
        let lies: [(u8, &[u8], &str); 10] = [
            (TAG_DEREGISTER, &[0x81, 0x80, 0x80, 0x00], over_long),
            (TAG_DEREGISTER, &eleven, over_long),
            (TAG_DEREGISTER, &above_u64, over_long),
            (TAG_DEREGISTER, &[0x80, 0x00], over_long),
            (TAG_DEREGISTER, &[0x80, 0x80], "truncated payload"),
            (TAG_DEREGISTER, &[1, 0xEE], "trailing bytes after the payload"),
            (TAG_REPORT, &ragged, "report ends inside a position"),
            (TAG_ADMIN, &[2, 1], "unknown admin command"),
            (TAG_PROBE_REQUEST, &[1, 0x80, 0x80, 0x80, 0x80, 0x10], "varint exceeds u32"),
            (TAG_WORLD_UPDATE, &[1, 0x80], "truncated payload"),
        ];
        for (tag, payload, message) in lies {
            let mut bytes = Vec::new();
            frame(&mut bytes, tag, |out| out.extend_from_slice(payload));
            let got = if tag < 0x80 {
                Request::decode(&bytes).map(drop)
            } else {
                Response::decode(&bytes).map(drop)
            };
            assert_eq!(got, Err(DecodeError::Malformed(message)), "{tag:#04x} {payload:02x?}");
        }

        // One case per way a tile region can lie (0xC0 escapes, 0x24 stays, 0x2C steps right),
        // after the retired 9-bytes-a-cell layout (kind 1: `u32` count, `u8` level, 2 × `i32`).
        const T: u8 = REGION_TILES;
        let leaves = "tile step leaves the i32 grid";
        let lies: [(u8, &[u8], &str); 12] = [
            (1, &[1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], "unknown region kind"),
            (T, &[], "truncated payload"),
            (T, &[3, 0x24, 0x2C], "tile count exceeds the payload"),
            (T, &[0xFF, 0xFF, 0xFF, 0xFF, 0x0F], "tile count exceeds the payload"),
            // An escaped level `TileFrame::side_at` could not shift by.
            (T, &[1, 0xC0, MAX_TILE_LEVEL + 1, 0, 0], "tile level out of range"),
            (T, &[1, 0xC1], "unknown tile escape byte"),
            (T, &[1, 0xC0, 0, 0x80, 0x80, 0x80, 0x80, 0x10, 0], "tile coordinate exceeds u32"),
            (T, &[1, 0xC0, 0, 0x81, 0x00, 0], over_long),
            // From (0, i32::MAX, 0): one step right, or one level down.
            (T, &[2, 0xC0, 0, 0xFE, 0xFF, 0xFF, 0xFF, 0x0F, 0, 0x2C], leaves),
            (T, &[2, 0xC0, 0, 0xFE, 0xFF, 0xFF, 0xFF, 0x0F, 0, 0x64], leaves),
            // The seed, one step right, one step back.
            (T, &[3, 0x24, 0x2C, 0x1C], "duplicate tile cells"),
            (T, &[1, 0x24, 0x24], "trailing bytes after the payload"),
        ];
        for (kind, stream, message) in lies {
            let got = Response::decode(&region_frame(kind, stream)).unwrap_err();
            assert_eq!(got, DecodeError::Malformed(message), "{stream:02x?}");
        }
    }

    #[test]
    fn frame_reader_reassembles_any_chunking() {
        let requests = [
            Request::Register { group_size: 3, config: WireConfig::default() },
            Request::Report { group: 7, positions: vec![Point::new(1.0, 2.0)] },
            Request::Deregister { group: 7 },
        ];
        let mut wire = Vec::new();
        for request in &requests {
            request.encode(&mut wire);
        }
        // Feed the whole trace one byte at a time: every prefix must park as `Ok(None)`,
        // every completed frame must pop out exactly once, in order.
        for chunk in [1usize, 2, 3, 5, wire.len()] {
            let mut reader = FrameReader::new();
            let mut decoded = Vec::new();
            for bytes in wire.chunks(chunk) {
                reader.feed(bytes);
                while let Some(request) = reader.next_request().expect("a clean stream") {
                    decoded.push(request);
                }
            }
            assert_eq!(decoded, requests, "chunk size {chunk}");
            assert_eq!(reader.buffered(), 0, "nothing left over");
        }
    }

    #[test]
    fn frame_reader_surfaces_fatal_errors_and_compacts() {
        // Oversize prefix is fatal on the first look.
        let mut reader = FrameReader::new();
        reader.feed(&((MAX_FRAME_LEN + 1) as u32).to_le_bytes());
        assert!(matches!(reader.next_request(), Err(DecodeError::Oversize(_))));

        // A downlink frame on the uplink decoder is fatal too.
        let mut reader = FrameReader::new();
        reader.feed(&Response::ProbeRequest { group: 0, user: 0 }.encoded());
        assert!(matches!(reader.next_request(), Err(DecodeError::UnknownTag(_))));

        // The dead prefix is compacted away once consumed: buffer stays bounded by the
        // in-flight frame, not the connection's lifetime traffic.
        let mut reader = FrameReader::new();
        let frame = Request::Deregister { group: 1 }.encoded();
        for _ in 0..2_000 {
            reader.feed(&frame);
            assert!(reader.next_request().unwrap().is_some());
        }
        assert_eq!(reader.buffered(), 0);
        assert!(reader.buf.len() < 8192, "consumed bytes must not accumulate");
    }

    #[test]
    fn read_frame_pulls_whole_frames_off_a_stream() {
        let mut wire = Vec::new();
        Request::Register { group_size: 2, config: WireConfig::default() }.encode(&mut wire);
        Request::Deregister { group: 0 }.encode(&mut wire);
        let mut cursor = std::io::Cursor::new(wire);
        let first = read_frame(&mut cursor).unwrap().expect("first frame");
        assert!(matches!(Request::decode(&first).unwrap().0, Request::Register { .. }));
        let second = read_frame(&mut cursor).unwrap().expect("second frame");
        assert!(matches!(Request::decode(&second).unwrap().0, Request::Deregister { .. }));
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF between frames");

        // EOF inside a frame is an error, not a silent None.
        let mut truncated = std::io::Cursor::new(vec![9u8, 0, 0, 0, TAG_DEREGISTER]);
        assert!(read_frame(&mut truncated).is_err());
    }
}
