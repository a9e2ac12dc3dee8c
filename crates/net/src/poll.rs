//! A std-only readiness facility: the thin slice of Linux `epoll` the event loop needs, with
//! no external crates.
//!
//! The build environment is offline, so this module binds the libc entry points by hand
//! (`std` already links libc on every Unix target; declaring the prototypes costs nothing).
//! The surface is deliberately tiny and `mio`-shaped: register a file descriptor under a
//! caller-chosen [`Token`] with a read/write [`Interest`], then [`Poller::wait`] for
//! [`PollEvent`]s.  Readiness is **level-triggered**: an event repeats every wait until the
//! condition is drained, which keeps the connection state machine free of edge-triggered
//! starvation hazards.
//!
//! This module contains the workspace's only networking `unsafe` (FFI calls and the
//! `epoll_event` layout); everything above it is safe Rust.

use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

#[cfg(not(target_os = "linux"))]
compile_error!("mpn-net's readiness poller is Linux epoll only");

/// Caller-chosen identifier attached to a registered file descriptor and echoed in every
/// [`PollEvent`] — the key into the owner's connection slab.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Token(pub usize);

/// Which readiness directions a registration asks for.  With neither, the descriptor stays
/// registered but wakes only for errors and hangups (how the loop parks a backpressured
/// connection without losing its slot).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the descriptor is readable (or a peer hangup is pending).
    pub read: bool,
    /// Wake when the descriptor is writable.
    pub write: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READ: Self = Self { read: true, write: false };
}

/// One readiness notification.
#[derive(Debug, Clone, Copy)]
pub struct PollEvent {
    /// The token the descriptor was registered under.
    pub token: Token,
    /// The descriptor is readable (data, or EOF, is waiting).
    pub readable: bool,
    /// The descriptor is writable.
    pub writable: bool,
    /// The peer hung up or the descriptor errored; the owner should read to the error/EOF
    /// and close.
    pub closed: bool,
}

// The `epoll_event` layout: packed on x86-64 (the kernel ABI packs the struct there),
// natural alignment elsewhere.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLL_CLOEXEC: i32 = 0o2000000;

const SOL_SOCKET: i32 = 1;
const SO_SNDBUF: i32 = 7;

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn close(fd: i32) -> i32;
    fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
}

fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

fn mask(interest: Interest) -> u32 {
    let mut events = EPOLLRDHUP;
    if interest.read {
        events |= EPOLLIN;
    }
    if interest.write {
        events |= EPOLLOUT;
    }
    events
}

/// Pins a socket's kernel **send** buffer to roughly `bytes`.
///
/// Setting `SO_SNDBUF` explicitly also disables the kernel's autotuning, which on Linux
/// loopback otherwise grows the buffer to megabytes — at thousands of connections that
/// dominates server memory, so the event loop offers this as a
/// [`MuxConfig`](crate::MuxConfig) knob; the backpressure tests use it to make kernel
/// absorption small and deterministic.  The kernel clamps and rounds the value (Linux
/// doubles it and enforces a floor), so the result is best-effort by design.
///
/// # Errors
/// Propagates the OS error (e.g. a bad descriptor).
pub fn set_send_buffer(fd: RawFd, bytes: usize) -> io::Result<()> {
    let value = i32::try_from(bytes).unwrap_or(i32::MAX);
    // SAFETY: `value` outlives the call and the length matches its type.
    cvt(unsafe { setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &value, std::mem::size_of::<i32>() as u32) })
        .map(|_| ())
}

/// Converts a wait timeout to `epoll_wait`'s millisecond argument (`-1` = forever).
fn timeout_ms(timeout: Option<Duration>) -> i32 {
    let Some(t) = timeout else { return -1 };
    // Round sub-millisecond (but non-zero) timeouts up so they do not busy-spin as 0 ms.
    let ms = match t.as_millis() {
        0 if !t.is_zero() => 1,
        ms => ms,
    };
    i32::try_from(ms).unwrap_or(i32::MAX)
}

/// The `epoll` readiness poller.
///
/// See the [module docs](self) for the model; all methods are level-triggered.
#[derive(Debug)]
pub struct Poller {
    epfd: RawFd,
}

impl Poller {
    /// Creates a poller.
    ///
    /// # Errors
    /// Propagates the OS error when the epoll instance cannot be created.
    pub fn new() -> io::Result<Self> {
        // SAFETY: plain syscall; the returned fd is owned by the Poller and closed on drop.
        let epfd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Self { epfd })
    }

    /// Starts watching `fd` under `token` with the given interest.
    ///
    /// # Errors
    /// Propagates the OS error (e.g. the fd is already registered or invalid).
    pub fn register(&mut self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Replaces the token/interest of an already-registered `fd`.
    ///
    /// # Errors
    /// Propagates the OS error (e.g. the fd was never registered).
    pub fn reregister(&mut self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Stops watching `fd`.
    ///
    /// # Errors
    /// Propagates the OS error (e.g. the fd was never registered).
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        // A non-null event pointer keeps pre-2.6.9 kernels happy; the contents are unused.
        let mut event = EpollEvent { events: 0, data: 0 };
        // SAFETY: `event` outlives the call; the kernel copies what it needs.
        cvt(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut event) }).map(|_| ())
    }

    fn ctl(&mut self, op: i32, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        let mut event = EpollEvent { events: mask(interest), data: token.0 as u64 };
        // SAFETY: `event` outlives the call; the kernel copies what it needs.
        cvt(unsafe { epoll_ctl(self.epfd, op, fd, &mut event) }).map(|_| ())
    }

    /// Blocks until readiness (or `timeout`), appending events to `out`; returns the number
    /// of ready descriptors (0 on timeout).  `None` blocks indefinitely.  `EINTR` is retried
    /// internally.
    ///
    /// # Errors
    /// Propagates unexpected OS errors.
    pub fn wait(
        &mut self,
        out: &mut Vec<PollEvent>,
        timeout: Option<Duration>,
    ) -> io::Result<usize> {
        let mut events = [EpollEvent { events: 0, data: 0 }; 256];
        let n = loop {
            // SAFETY: the buffer pointer/length pair is valid for the whole call.
            let ret = unsafe {
                epoll_wait(self.epfd, events.as_mut_ptr(), events.len() as i32, timeout_ms(timeout))
            };
            match cvt(ret) {
                Ok(n) => break n as usize,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        };
        for event in &events[..n] {
            let (bits, data) = (event.events, event.data);
            out.push(PollEvent {
                token: Token(data as usize),
                readable: bits & (EPOLLIN | EPOLLRDHUP) != 0,
                writable: bits & EPOLLOUT != 0,
                closed: bits & (EPOLLERR | EPOLLHUP) != 0,
            });
        }
        Ok(n)
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: the fd was created by `epoll_create1` and is closed exactly once.
        unsafe { close(self.epfd) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{ErrorKind, Read, Write};
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;

    const NOW: Option<Duration> = Some(Duration::ZERO);

    fn wait_now(poller: &mut Poller) -> Vec<(usize, bool, bool, bool)> {
        let mut out = Vec::new();
        poller.wait(&mut out, NOW).unwrap();
        out.iter().map(|e| (e.token.0, e.readable, e.writable, e.closed)).collect()
    }

    #[test]
    fn readiness_is_level_triggered_until_drained() {
        let (mut a, mut b) = UnixStream::pair().unwrap();
        let mut poller = Poller::new().unwrap();
        poller.register(a.as_raw_fd(), Token(7), Interest::READ).unwrap();
        b.write_all(&[1]).unwrap();
        assert_eq!(wait_now(&mut poller), [(7, true, false, false)]);
        assert_eq!(wait_now(&mut poller), [(7, true, false, false)]);
        a.read_exact(&mut [0]).unwrap();
        assert_eq!(wait_now(&mut poller), []);
    }

    #[test]
    fn registration_errors_name_their_cause() {
        let (a, _b) = UnixStream::pair().unwrap();
        let (fd, mut poller) = (a.as_raw_fd(), Poller::new().unwrap());
        let kind = |r: io::Result<()>| r.unwrap_err().kind();
        assert_eq!(kind(poller.reregister(fd, Token(1), Interest::READ)), ErrorKind::NotFound);
        assert_eq!(kind(poller.deregister(fd)), ErrorKind::NotFound);
        poller.register(fd, Token(1), Interest::READ).unwrap();
        assert_eq!(kind(poller.register(fd, Token(1), Interest::READ)), ErrorKind::AlreadyExists);
    }

    #[test]
    fn a_parked_socket_still_reports_hangup_and_write_interest_reports_writable() {
        let (a, b) = UnixStream::pair().unwrap();
        let mut poller = Poller::new().unwrap();
        poller.register(a.as_raw_fd(), Token(3), Interest { read: false, write: true }).unwrap();
        assert_eq!(wait_now(&mut poller), [(3, false, true, false)]);
        let parked = Interest { read: false, write: false };
        poller.reregister(a.as_raw_fd(), Token(3), parked).unwrap();
        assert_eq!(wait_now(&mut poller), []);
        drop(b);
        assert_eq!(wait_now(&mut poller), [(3, true, false, true)]);
    }

    #[test]
    fn timeouts_round_up_to_whole_milliseconds_and_saturate() {
        let cases = [
            (None, -1),
            (Some(Duration::ZERO), 0),
            (Some(Duration::from_nanos(1)), 1),
            (Some(Duration::from_micros(1_500)), 1),
            (Some(Duration::MAX), i32::MAX),
        ];
        for (timeout, ms) in cases {
            assert_eq!(timeout_ms(timeout), ms, "{timeout:?}");
        }
    }
}
