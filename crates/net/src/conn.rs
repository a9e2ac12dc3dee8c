//! The per-connection state machine of the multiplexed front-end.
//!
//! One [`Connection`] owns one non-blocking [`TcpStream`] and the two buffers that decouple
//! it from the shared engine:
//!
//! * **uplink** — raw readable bytes feed a [`FrameReader`]; each whole [`Request`] goes to
//!   the caller's callback the moment it is decoded, so a read pass holds no list of them.
//!   Partial frames park in the reader across any number of reads; a malformed/oversize
//!   frame is fatal for the connection (the stream cannot be resynchronised), but every
//!   request decoded before it has already been handed over.
//! * **downlink** — a tick's batch opens with its announced count, its frames are encoded
//!   into an outbox written out every [`BUFFER_FLOOR`] bytes, and what the socket refuses
//!   drains whenever it is writable.  The outbox level drives the **backpressure contract**
//!   (see the crate docs): above the soft limit the connection stops being read, above the
//!   hard limit it is dropped.  A drained outbox shrinks back to [`BUFFER_FLOOR`].
//!
//! The connection never talks to the engine itself: it hands requests on and reports why it
//! must close ([`CloseReason`]), and the event loop decides.

use std::io::{self, Read, Write};
use std::net::TcpStream;

use mpn_proto::{codec::BUFFER_FLOOR, DecodeError, FrameReader, Request, Response};
use mpn_sim::ClientId;

use crate::poll::Interest;

/// Why a connection must be closed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloseReason {
    /// The peer closed the stream (EOF) — the normal end of a session.
    Disconnected,
    /// The uplink byte stream does not decode (unknown tag, lying length, oversize frame,
    /// malformed payload): the framing is unrecoverable.
    Malformed,
    /// The peer stopped draining its downlink and the outbox crossed the hard limit.
    Backpressure,
    /// An I/O error other than `WouldBlock`/`Interrupted`.
    Error,
}

/// One multiplexed client connection.
#[derive(Debug)]
pub struct Connection {
    stream: TcpStream,
    /// The core-level identity (never reused, unlike tokens).
    pub client: ClientId,
    reader: FrameReader,
    outbox: Vec<u8>,
    /// Bytes of `outbox` already written to the socket.
    sent: usize,
    /// The batch of this tick: the responses announced for it, and those sent so far.
    batch: Option<(u32, u32)>,
    /// The outbox level at which a push flushes: [`BUFFER_FLOOR`] above what the last left.
    write_at: usize,
    /// The interest currently registered with the poller (kept here so the loop only issues
    /// `reregister` syscalls on actual changes).
    pub interest: Interest,
    /// Whether reads are paused by backpressure (outbox above the soft limit).
    paused: bool,
}

impl Connection {
    /// Wraps an accepted stream (the caller has already made it non-blocking).
    pub fn new(stream: TcpStream, client: ClientId) -> Self {
        Self {
            stream,
            client,
            reader: FrameReader::new(),
            outbox: Vec::new(),
            sent: 0,
            batch: None,
            write_at: BUFFER_FLOOR,
            interest: Interest::READ,
            paused: false,
        }
    }

    /// The underlying stream (for fd registration).
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Bytes queued for the peer and not yet written to the socket.
    #[must_use]
    pub fn outbox_len(&self) -> usize {
        self.outbox.len() - self.sent
    }

    /// Whether reads are currently paused by backpressure.
    #[must_use]
    pub fn is_paused(&self) -> bool {
        self.paused
    }

    /// Handles a readable event: drains the socket into the frame reader and hands `deliver`
    /// every whole request, in arrival order, as soon as it is decoded.  Reading stops early
    /// (without consuming the socket dry) when the outbox is already above `soft_limit` — a
    /// client that does not drain its downlink does not get to keep filling the uplink.
    ///
    /// Returns the close verdict, if the connection must close.  The requests decoded before
    /// a malformed frame were validly framed and have been delivered by then; the caller's
    /// close then undoes what they registered.  `bytes_in` is incremented by the number of
    /// bytes consumed off the socket.
    pub fn handle_readable(
        &mut self,
        soft_limit: usize,
        bytes_in: &mut u64,
        mut deliver: impl FnMut(Request),
    ) -> Option<CloseReason> {
        let mut scratch = [0u8; 16 * 1024];
        loop {
            if self.outbox_len() > soft_limit {
                self.paused = true;
                break;
            }
            match self.stream.read(&mut scratch) {
                Ok(0) => return Some(CloseReason::Disconnected),
                Ok(n) => {
                    *bytes_in += n as u64;
                    self.reader.feed(&scratch[..n]);
                    loop {
                        match self.reader.next_request() {
                            Ok(Some(request)) => deliver(request),
                            Ok(None) => break,
                            Err(DecodeError::Incomplete) => unreachable!("absorbed by FrameReader"),
                            Err(_) => return Some(CloseReason::Malformed),
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return Some(CloseReason::Error),
            }
        }
        None
    }

    /// Adds `responses` to the count of this tick's batch; returns `true` when that opened it.
    pub fn announce(&mut self, responses: usize) -> bool {
        let opened = self.batch.is_none();
        self.batch.get_or_insert((0, 0)).0 += u32::try_from(responses).expect("a batch fits u32");
        opened
    }

    /// Writes the batch's count header ([`crate::envelope`]), before any of its frames.
    pub fn begin_batch(&mut self) {
        let (announced, _) = self.batch.expect("a batch was announced");
        self.outbox.extend_from_slice(&announced.to_le_bytes());
    }

    /// Encodes one response into the outbox, as the next frame of the batch, and
    /// [`flush`](Connection::flush)es (`soft`, `out` passed on) once the outbox grew
    /// [`BUFFER_FLOOR`] past what the last flush left; an I/O error is left for the flush after
    /// the tick.  Returns the level the frame reached.
    ///
    /// # Panics
    /// Panics when no batch is open.
    pub fn push_response(&mut self, response: &Response, soft: usize, out: &mut u64) -> usize {
        self.batch.as_mut().expect("a batch is open").1 += 1;
        response.encode(&mut self.outbox);
        let level = self.outbox_len();
        if level >= self.write_at && self.flush(soft, out).is_err() {
            self.write_at = usize::MAX;
        }
        level
    }

    /// Closes the batch, which must have sent what it announced, for the next flush.
    pub fn end_batch(&mut self) {
        if let Some((announced, sent)) = self.batch.take() {
            assert_eq!(sent, announced, "a batch sends the responses it announced");
        }
    }

    /// Writes as much of the outbox as the socket accepts right now.
    ///
    /// Returns `Ok(true)` when the outbox drained completely; `Err` means the connection is
    /// dead.  `bytes_out` is incremented by what was written.  Once the outbox falls back
    /// below `soft_limit` a paused connection resumes reading (the caller re-registers
    /// interest afterwards).
    pub fn flush(&mut self, soft_limit: usize, bytes_out: &mut u64) -> io::Result<bool> {
        while self.sent < self.outbox.len() {
            match self.stream.write(&self.outbox[self.sent..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.sent += n;
                    *bytes_out += n as u64;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.sent == self.outbox.len() {
            self.outbox.clear();
            self.outbox.shrink_to(BUFFER_FLOOR);
            self.sent = 0;
        } else if self.sent >= BUFFER_FLOOR {
            // Compact occasionally so a long-lived slow reader does not pin dead bytes.
            self.outbox.drain(..self.sent);
            self.sent = 0;
        }
        self.write_at = self.outbox_len() + BUFFER_FLOOR;
        if self.paused && self.outbox_len() <= soft_limit {
            self.paused = false;
        }
        Ok(self.outbox_len() == 0)
    }

    /// The interest this connection wants right now: read unless paused, write while the
    /// outbox holds bytes.
    #[must_use]
    pub fn desired_interest(&self) -> Interest {
        Interest { read: !self.paused, write: self.outbox_len() > 0 }
    }
}
