//! The per-connection state machine of the multiplexed front-end.
//!
//! One [`Connection`] owns one non-blocking [`TcpStream`] and the two buffers that decouple
//! it from the shared engine:
//!
//! * **uplink** — raw readable bytes feed a [`FrameReader`]; whole decoded [`Request`]s pop
//!   out and go to the server core.  Partial frames park in the reader across any number of
//!   reads; a malformed/oversize frame is fatal for the connection (the stream cannot be
//!   resynchronised).
//! * **downlink** — encoded response bytes queue in an outbox and drain whenever the socket
//!   is writable.  The outbox level drives the **backpressure contract** (see the crate
//!   docs): above the soft limit the connection stops being read, above the hard limit it is
//!   dropped.
//!
//! The connection never talks to the engine itself; it only classifies what happened
//! ([`ReadOutcome`]) and lets the event loop decide.

use std::io::{self, Read, Write};
use std::net::TcpStream;

use mpn_proto::{DecodeError, FrameReader, Request, Response};
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

/// What one readable-event handling pass produced.
#[derive(Debug, Default)]
pub struct ReadOutcome {
    /// Whole requests decoded off the stream, in arrival order.
    pub requests: Vec<Request>,
    /// Set when the connection must be closed (requests decoded before the failure are still
    /// delivered — they were validly framed).
    pub close: Option<CloseReason>,
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
    /// The batch the event loop is still appending to: where its count header sits in
    /// `outbox`, and the responses counted so far.
    batch: Option<(usize, u32)>,
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

    /// Handles a readable event: drains the socket into the frame reader and decodes every
    /// whole request.  Reading stops early (without consuming the socket dry) when the
    /// outbox is already above `soft_limit` — a client that does not drain its downlink does
    /// not get to keep filling the uplink.
    ///
    /// Returns the decoded requests plus an optional close verdict; `bytes_in` is
    /// incremented by the number of bytes consumed off the socket.
    pub fn handle_readable(&mut self, soft_limit: usize, bytes_in: &mut u64) -> ReadOutcome {
        let mut outcome = ReadOutcome::default();
        let mut scratch = [0u8; 16 * 1024];
        loop {
            if self.outbox_len() > soft_limit {
                self.paused = true;
                break;
            }
            match self.stream.read(&mut scratch) {
                Ok(0) => {
                    outcome.close = Some(CloseReason::Disconnected);
                    break;
                }
                Ok(n) => {
                    *bytes_in += n as u64;
                    self.reader.feed(&scratch[..n]);
                    loop {
                        match self.reader.next_request() {
                            Ok(Some(request)) => outcome.requests.push(request),
                            Ok(None) => break,
                            Err(DecodeError::Incomplete) => unreachable!("absorbed by FrameReader"),
                            Err(_) => {
                                outcome.close = Some(CloseReason::Malformed);
                                return outcome;
                            }
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    outcome.close = Some(CloseReason::Error);
                    break;
                }
            }
        }
        outcome
    }

    /// Opens this tick's count-prefixed batch ([`crate::envelope`]) at the end of the
    /// outbox, its count to be patched in by [`end_batch`](Connection::end_batch); returns
    /// `false` when one is open already.
    pub fn begin_batch(&mut self) -> bool {
        if self.batch.is_some() {
            return false;
        }
        self.batch = Some((self.outbox.len(), 0));
        self.outbox.extend_from_slice(&0u32.to_le_bytes());
        true
    }

    /// Encodes one response straight into the outbox, as the next frame of the open batch.
    ///
    /// # Panics
    /// Panics when no batch is open.
    pub fn push_response(&mut self, response: &Response) {
        self.batch.as_mut().expect("a batch is open").1 += 1;
        response.encode(&mut self.outbox);
    }

    /// Closes the open batch; its bytes are then ready to [`flush`](Connection::flush).
    pub fn end_batch(&mut self) {
        if let Some((header, count)) = self.batch.take() {
            self.outbox[header..header + 4].copy_from_slice(&count.to_le_bytes());
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
            self.sent = 0;
        } else if self.sent >= 64 * 1024 {
            // Compact occasionally so a long-lived slow reader does not pin dead bytes.
            self.outbox.drain(..self.sent);
            self.sent = 0;
        }
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
