//! The load generator: one thread, two connections, raw bytes only while the clock runs.
//!
//! Inside a block the generator writes slices of pre-encoded request bytes when they are due
//! and appends whatever the sockets return to a buffer, stamping every `read()`.  It never
//! decodes a response on the clock; the only look it takes at the downlink is a walk over
//! frame headers to find the block's fence, and that starts after the last byte is written.
//! Between due times it sleeps in `ppoll` on both sockets — the two processes may share one
//! physical core, and a spinning generator would slow the server it measures — and spins only
//! through the last 100 µs before a due time, so a timer's lateness never delays a send.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

use crate::procfs;
use crate::workload::{Block, Encoded};

/// One cumulative `STATS` line of the server child.
#[derive(Debug, Clone, Default)]
pub struct ServerStats(Vec<(String, u64)>);

impl ServerStats {
    fn parse(line: &str) -> Option<Self> {
        let fields = line.strip_prefix("STATS ")?;
        fields
            .split_whitespace()
            .map(|field| {
                let (key, value) = field.split_once('=')?;
                Some((key.to_owned(), value.parse().ok()?))
            })
            .collect::<Option<Vec<_>>>()
            .map(Self)
    }

    /// A cumulative counter (0 when the child did not print it).
    pub fn get(&self, key: &str) -> u64 {
        self.0.iter().find(|(k, _)| k == key).map_or(0, |(_, v)| *v)
    }

    /// How much a counter grew since an earlier snapshot.
    pub fn since(&self, earlier: &ServerStats, key: &str) -> u64 {
        self.get(key).saturating_sub(earlier.get(key))
    }
}

/// The server child process and the pipes that control it.
pub struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    pub port: u16,
    pub bulk_load_ns: u64,
    pub pinned: bool,
}

impl Server {
    /// Spawns the benchmark binary in `serve` mode, hands it the POI set and waits for its
    /// `LISTEN` line.
    pub fn spawn(poi_bytes: &[u8], cpu: Option<usize>) -> io::Result<Self> {
        let mut command = Command::new(std::env::current_exe()?);
        command.arg("serve");
        if let Some(cpu) = cpu {
            command.arg(cpu.to_string());
        }
        let mut child = command
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let mut stdin = child.stdin.take().expect("stdin was piped");
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        stdin.write_all(poi_bytes)?;
        stdin.flush()?;
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        let mut fields = line.split_whitespace();
        let parsed = (|| {
            (fields.next()? == "LISTEN").then_some(())?;
            Some((
                fields.next()?.parse::<u16>().ok()?,
                fields.next()?.parse::<u64>().ok()?,
                fields.next()? == "1",
            ))
        })();
        let Some((port, bulk_load_ns, pinned)) = parsed else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("the server child did not announce its port: {line:?}"),
            ));
        };
        Ok(Self { child, stdin: Some(stdin), stdout, port, bulk_load_ns, pinned })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    fn read_stats(&mut self) -> io::Result<ServerStats> {
        let mut line = String::new();
        self.stdout.read_line(&mut line)?;
        ServerStats::parse(line.trim_end()).ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, format!("not a STATS line: {line:?}"))
        })
    }

    /// Asks the child for its cumulative counters (between windows, never inside one).
    pub fn snapshot(&mut self) -> io::Result<ServerStats> {
        let stdin = self.stdin.as_mut().expect("the child is still running");
        stdin.write_all(b"s")?;
        stdin.flush()?;
        self.read_stats()
    }

    /// Closes the child's stdin, collects its last counters and waits until it has ended.
    pub fn finish(mut self) -> io::Result<ServerStats> {
        drop(self.stdin.take());
        let stats = self.read_stats();
        let status = self.child.wait()?;
        if !status.success() {
            return Err(io::Error::other(format!("the server child ended with {status}")));
        }
        stats
    }
}

impl Drop for Server {
    /// A run that fails half-way must not leave the child behind.
    fn drop(&mut self) {
        if self.stdin.take().is_some() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One stamped `read()` or `write()` that made progress: when it returned, and how many bytes
/// of the stream had been transferred by then.
#[derive(Debug, Clone, Copy)]
pub struct Stamp {
    pub t_ns: u64,
    pub upto: usize,
}

/// When the stream had reached `offset`: the time of the first stamp at or beyond it.
fn when_reached(stamps: &[Stamp], offset: usize) -> u64 {
    let at = stamps.partition_point(|stamp| stamp.upto < offset);
    stamps[at.min(stamps.len() - 1)].t_ns
}

/// One non-blocking connection to the server with everything it ever received.
pub struct Conn {
    stream: TcpStream,
    /// Every downlink byte since the connection opened.
    pub rx: Vec<u8>,
    /// One stamp per successful `read()`.
    pub reads: Vec<Stamp>,
    scan: FenceScan,
}

impl Conn {
    pub fn connect(port: u16) -> io::Result<Self> {
        let stream = TcpStream::connect(("127.0.0.1", port))?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Self { stream, rx: Vec::new(), reads: Vec::new(), scan: FenceScan::default() })
    }

    /// Appends what the socket holds right now.
    fn pump(&mut self, clock: &Instant, scratch: &mut [u8]) -> io::Result<()> {
        match self.stream.read(scratch) {
            Ok(0) => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "the server closed a connection mid-run",
            )),
            Ok(n) => {
                self.rx.extend_from_slice(&scratch[..n]);
                self.reads
                    .push(Stamp { t_ns: clock.elapsed().as_nanos() as u64, upto: self.rx.len() });
                Ok(())
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// When the byte at `offset - 1` had arrived: the stamp of the `read()` that delivered it.
    pub fn arrival_ns(&self, offset: usize) -> u64 {
        when_reached(&self.reads, offset)
    }
}

/// Walks batch and frame headers of a downlink stream looking for one fence.
///
/// A batch is a little-endian `u32` count followed by that many frames; a frame is a `u32`
/// payload length, a tag byte and the payload.  A fence is the `UnknownGroup` notification
/// (tag `0x83`, 10 payload bytes) that echoes the fence id.  The walk resumes where it
/// stopped, and reports the fence only once the batch holding it is complete, because the
/// tick's safe regions follow the notification inside the same batch.
#[derive(Debug, Default)]
pub struct FenceScan {
    /// Offset of the next unread header.
    pos: usize,
    /// Frames still to come in the current batch.
    frames_left: u32,
    found: bool,
}

const TAG_NOTIFICATION: u8 = 0x83;
const NOTIFICATION_LEN: usize = 10;
const KIND_UNKNOWN_GROUP: u8 = 2;

impl FenceScan {
    /// Advances over the complete frames of `rx`; returns true once the batch holding the
    /// fence `id` has fully arrived.
    pub fn advance(&mut self, rx: &[u8], id: u64) -> bool {
        loop {
            if self.frames_left == 0 {
                if self.found {
                    self.found = false;
                    return true;
                }
                let Some(header) = rx.get(self.pos..self.pos + 4) else { return false };
                self.frames_left = u32::from_le_bytes(header.try_into().expect("4 bytes"));
                self.pos += 4;
                continue;
            }
            let Some(header) = rx.get(self.pos..self.pos + 4) else { return false };
            let len = u32::from_le_bytes(header.try_into().expect("4 bytes")) as usize;
            let Some(frame) = rx.get(self.pos + 4..self.pos + 4 + len) else { return false };
            if len == NOTIFICATION_LEN
                && frame[0] == TAG_NOTIFICATION
                && frame[1..9] == id.to_le_bytes()
                && frame[9] == KIND_UNKNOWN_GROUP
            {
                self.found = true;
            }
            self.pos += 4 + len;
            self.frames_left -= 1;
        }
    }
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 1;

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

/// The generator spins instead of sleeping when less than this is left until a due time.
const SPIN_BEFORE_DUE_NS: u64 = 100_000;

/// Sleeps until one of the sockets is readable or `timeout_ns` has passed.
fn wait_readable(fds: [i32; 2], timeout_ns: u64) {
    let mut fds = fds.map(|fd| PollFd { fd, events: POLLIN, revents: 0 });
    let timeout = Timespec {
        tv_sec: (timeout_ns / 1_000_000_000) as i64,
        tv_nsec: (timeout_ns % 1_000_000_000) as i64,
    };
    // SAFETY: `fds` is a valid array of two `pollfd`s and `timeout` a valid `timespec`, both
    // alive for the call; a null signal mask leaves the mask unchanged.  The result is
    // ignored on purpose: readable, timed out and interrupted all mean "look again".
    unsafe { ppoll(fds.as_mut_ptr(), 2, &timeout, std::ptr::null()) };
}

/// What one block left behind, all offsets into each connection's `rx`.
#[derive(Debug)]
pub struct BlockLog {
    /// Clock reading when the block started (its due times count from here).
    pub t0_ns: u64,
    /// Clock reading when both fences had been seen.
    pub end_ns: u64,
    /// Per connection: the `rx` range this block's answers occupy.
    pub rx: [std::ops::Range<usize>; 2],
    /// Per connection: every write that made progress.
    pub sent: [Vec<Stamp>; 2],
    /// Server CPU at the start, at every sub-window boundary crossed, and at the end.
    pub cpu_marks: Vec<u64>,
    /// Generator CPU over the block.
    pub own_cpu_ns: u64,
    pub tx_bytes: usize,
}

impl BlockLog {
    /// When slot `i` of the block had been handed to the kernel in full.
    pub fn sent_ns(&self, conn: usize, slot_end: usize) -> u64 {
        when_reached(&self.sent[conn], slot_end)
    }
}

/// The generator's side of one run: the clock, the two connections and a read scratch.
pub struct Generator {
    pub clock: Instant,
    pub conns: [Conn; 2],
    scratch: Vec<u8>,
}

impl Generator {
    /// Connects twice, in order: the server numbers clients by accept order and the first is
    /// the admin console, so the second connection opens only after the first is accepted.
    pub fn connect(port: u16, clock: Instant) -> io::Result<Self> {
        let first = Conn::connect(port)?;
        let second = Conn::connect(port)?;
        Ok(Self { clock, conns: [first, second], scratch: vec![0u8; 256 << 10] })
    }

    fn now_ns(&self) -> u64 {
        self.clock.elapsed().as_nanos() as u64
    }

    /// Sends one block — each slot when it is due — and returns once both fences are back.
    ///
    /// `cpu_marks_at` lists due times (ascending) at which the server's CPU clock is sampled;
    /// `server_cpu` reads it.
    pub fn run_block(
        &mut self,
        block: &Block,
        encoded: &Encoded,
        cpu_marks_at: &[u64],
        server_cpu: &dyn Fn() -> u64,
    ) -> io::Result<BlockLog> {
        let own_pid = std::process::id();
        let own_cpu_before = procfs::cpu_ns(own_pid).unwrap_or(0);
        let rx_start = [self.conns[0].rx.len(), self.conns[1].rx.len()];
        let mut log = BlockLog {
            t0_ns: 0,
            end_ns: 0,
            rx: [rx_start[0]..rx_start[0], rx_start[1]..rx_start[1]],
            sent: [Vec::new(), Vec::new()],
            cpu_marks: vec![server_cpu()],
            own_cpu_ns: 0,
            tx_bytes: encoded.tx[0].len() + encoded.tx[1].len(),
        };
        let mut written = [0usize; 2];
        let mut target = [0usize; 2];
        let mut fenced = [false; 2];
        let mut next_slot = 0;
        let mut next_mark = 0;
        log.t0_ns = self.now_ns();
        while !(fenced[0] && fenced[1]) {
            let elapsed = self.now_ns() - log.t0_ns;
            while next_slot < block.slots.len() && block.slots[next_slot].due_ns <= elapsed {
                target[block.slots[next_slot].conn] = encoded.slot_end[next_slot];
                next_slot += 1;
            }
            if next_mark < cpu_marks_at.len() && cpu_marks_at[next_mark] <= elapsed {
                log.cpu_marks.push(server_cpu());
                next_mark += 1;
            }
            for conn in 0..2 {
                if written[conn] < target[conn] {
                    match self.conns[conn]
                        .stream
                        .write(&encoded.tx[conn][written[conn]..target[conn]])
                    {
                        Ok(n) => {
                            written[conn] += n;
                            log.sent[conn].push(Stamp { t_ns: self.now_ns(), upto: written[conn] });
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(e) => return Err(e),
                    }
                }
                self.conns[conn].pump(&self.clock, &mut self.scratch)?;
                // The fence is looked for only after the last byte is out, so a paced
                // window's clock never pays for the walk.
                if written[conn] == encoded.tx[conn].len() && !fenced[conn] {
                    let Conn { rx, scan, .. } = &mut self.conns[conn];
                    fenced[conn] = scan.advance(rx, block.fences[conn]);
                }
            }
            // Nothing left to write right now: sleep until data arrives or shortly before
            // the next due time (a millisecond at a time once only fences are outstanding).
            if written == target && !(fenced[0] && fenced[1]) {
                let next_due = [
                    block.slots.get(next_slot).map(|slot| slot.due_ns),
                    cpu_marks_at.get(next_mark).copied(),
                ]
                .into_iter()
                .flatten()
                .min();
                let remaining = match next_due {
                    Some(due) => due.saturating_sub(self.now_ns() - log.t0_ns),
                    None => 1_000_000 + SPIN_BEFORE_DUE_NS,
                };
                if remaining > SPIN_BEFORE_DUE_NS {
                    let fds = [&self.conns[0], &self.conns[1]].map(|c| c.stream.as_raw_fd());
                    wait_readable(fds, remaining - SPIN_BEFORE_DUE_NS);
                }
            }
        }
        log.end_ns = self.now_ns();
        log.cpu_marks.push(server_cpu());
        for conn in 0..2 {
            log.rx[conn].end = self.conns[conn].rx.len();
        }
        log.own_cpu_ns = procfs::cpu_ns(own_pid).unwrap_or(0).saturating_sub(own_cpu_before);
        Ok(log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpn_geom::{Circle, Point};
    use mpn_net::encode_batch;
    use mpn_proto::{NotificationKind, Response};

    fn region(group: u64) -> Response {
        Response::SafeRegion {
            group,
            user: 0,
            meeting_point: Point::new(1.0, 2.0),
            region: mpn_core::SafeRegion::Circle(Circle::new(Point::new(3.0, 4.0), 5.0)),
        }
    }

    fn fence(id: u64) -> Response {
        Response::Notification { group: id, kind: NotificationKind::UnknownGroup }
    }

    #[test]
    fn fence_is_found_only_when_its_whole_batch_has_arrived() {
        let mut rx = Vec::new();
        encode_batch(&[region(1), region(2)], &mut rx);
        encode_batch(&[], &mut rx);
        let before_fence = rx.len();
        // The fence leads its batch; the tick's regions follow it.
        encode_batch(&[fence(77), region(3), region(4)], &mut rx);

        let mut scan = FenceScan::default();
        assert!(!scan.advance(&rx[..before_fence], 77));
        // Fed byte by byte, the verdict flips exactly at the last byte of the batch.
        for end in before_fence..rx.len() {
            assert!(!scan.advance(&rx[..end], 77), "batch incomplete at {end}");
        }
        assert!(scan.advance(&rx, 77));
    }

    #[test]
    fn another_fence_or_a_group_notification_is_not_the_fence() {
        let mut rx = Vec::new();
        encode_batch(&[fence(76), region(77)], &mut rx);
        encode_batch(
            &[Response::Notification { group: 77, kind: NotificationKind::Registered }],
            &mut rx,
        );
        let mut scan = FenceScan::default();
        assert!(!scan.advance(&rx, 77));
        let mut scan = FenceScan::default();
        assert!(scan.advance(&rx, 76));
    }

    #[test]
    fn stats_lines_parse_and_diff() {
        let early = ServerStats::parse("STATS ticks=10 requests=100").expect("parses");
        let late = ServerStats::parse("STATS ticks=25 requests=350").expect("parses");
        assert_eq!(late.since(&early, "ticks"), 15);
        assert_eq!(late.since(&early, "requests"), 250);
        assert_eq!(late.get("absent"), 0);
        assert!(ServerStats::parse("LISTEN 1 2").is_none());
        assert!(ServerStats::parse("STATS ticks=ten").is_none());
    }
}
