//! A std-only readiness facility: the thin slice of `epoll` (Linux) / `poll` (other Unixes)
//! the event loop needs, with no external crates.
//!
//! The build environment is offline, so this module binds the two libc entry points by hand
//! (`std` already links libc on every Unix target; declaring the prototypes costs nothing).
//! The surface is deliberately tiny and `mio`-shaped: register a file descriptor under a
//! caller-chosen [`Token`] with a read/write [`Interest`], then [`Poller::wait`] for
//! [`PollEvent`]s.  Readiness is **level-triggered** on both backends: an event repeats every
//! wait until the condition is drained, which keeps the connection state machine free of
//! edge-triggered starvation hazards.
//!
//! This module contains the workspace's only networking `unsafe` (FFI calls and the
//! `epoll_event` layout); everything above it is safe Rust.

use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

/// Caller-chosen identifier attached to a registered file descriptor and echoed in every
/// [`PollEvent`] — the key into the owner's connection slab.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Token(pub usize);

/// Which readiness directions a registration asks for.
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
    /// Write-only interest.
    pub const WRITE: Self = Self { read: false, write: true };
    /// Both directions.
    pub const BOTH: Self = Self { read: true, write: true };
    /// Neither direction: the descriptor stays registered but wakes only for errors/hangups
    /// (how the loop parks a backpressured connection without losing its slot).
    pub const NONE: Self = Self { read: false, write: false };
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
    sockopt::set_buffer(fd, sockopt::SO_SNDBUF, bytes)
}

mod sockopt {
    use std::io;
    use std::os::fd::RawFd;

    #[cfg(target_os = "linux")]
    const SOL_SOCKET: i32 = 1;
    #[cfg(target_os = "linux")]
    pub const SO_SNDBUF: i32 = 7;

    #[cfg(all(unix, not(target_os = "linux")))]
    const SOL_SOCKET: i32 = 0xffff;
    #[cfg(all(unix, not(target_os = "linux")))]
    pub const SO_SNDBUF: i32 = 0x1001;

    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
    }

    pub fn set_buffer(fd: RawFd, name: i32, bytes: usize) -> io::Result<()> {
        let value = i32::try_from(bytes).unwrap_or(i32::MAX);
        // SAFETY: `value` outlives the call and the length matches its type.
        let ret =
            unsafe { setsockopt(fd, SOL_SOCKET, name, &value, std::mem::size_of::<i32>() as u32) };
        if ret < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }
}

/// Converts a wait timeout to the millisecond argument both backends take (`-1` = forever).
fn timeout_ms(timeout: Option<Duration>) -> i32 {
    let Some(t) = timeout else { return -1 };
    // Round sub-millisecond (but non-zero) timeouts up so they do not busy-spin as 0 ms.
    let ms = match t.as_millis() {
        0 if !t.is_zero() => 1,
        ms => ms,
    };
    i32::try_from(ms).unwrap_or(i32::MAX)
}

#[cfg(target_os = "linux")]
mod backend {
    use super::{timeout_ms, Interest, PollEvent, Token};
    use std::io;
    use std::os::fd::RawFd;
    use std::time::Duration;

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

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn close(fd: i32) -> i32;
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

    /// The Linux epoll readiness backend.
    #[derive(Debug)]
    pub struct Poller {
        epfd: RawFd,
    }

    impl Poller {
        pub fn new() -> io::Result<Self> {
            // SAFETY: plain syscall; the returned fd is owned by the Poller and closed on drop.
            let epfd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
            Ok(Self { epfd })
        }

        pub fn register(&mut self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, interest)
        }

        pub fn reregister(
            &mut self,
            fd: RawFd,
            token: Token,
            interest: Interest,
        ) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, interest)
        }

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

        pub fn wait(
            &mut self,
            out: &mut Vec<PollEvent>,
            timeout: Option<Duration>,
        ) -> io::Result<usize> {
            let mut events = [EpollEvent { events: 0, data: 0 }; 256];
            let n = loop {
                // SAFETY: the buffer pointer/length pair is valid for the whole call.
                let ret = unsafe {
                    epoll_wait(
                        self.epfd,
                        events.as_mut_ptr(),
                        events.len() as i32,
                        timeout_ms(timeout),
                    )
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
}

#[cfg(all(unix, not(target_os = "linux")))]
mod backend {
    //! Portable `poll(2)` fallback for non-Linux Unixes (macOS, the BSDs): O(n) per wait,
    //! which is fine for tests and development boxes; the Linux deployment target gets epoll.

    use super::{timeout_ms, Interest, PollEvent, Token};
    use std::io;
    use std::os::fd::RawFd;
    use std::time::Duration;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    }

    #[derive(Debug)]
    pub struct Poller {
        registered: Vec<(RawFd, Token, Interest)>,
    }

    impl Poller {
        pub fn new() -> io::Result<Self> {
            Ok(Self { registered: Vec::new() })
        }

        pub fn register(&mut self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
            if self.registered.iter().any(|(f, _, _)| *f == fd) {
                return Err(io::Error::new(io::ErrorKind::AlreadyExists, "fd already registered"));
            }
            self.registered.push((fd, token, interest));
            Ok(())
        }

        pub fn reregister(
            &mut self,
            fd: RawFd,
            token: Token,
            interest: Interest,
        ) -> io::Result<()> {
            let entry =
                self.registered.iter_mut().find(|(f, _, _)| *f == fd).ok_or_else(|| {
                    io::Error::new(io::ErrorKind::NotFound, "fd is not registered")
                })?;
            *entry = (fd, token, interest);
            Ok(())
        }

        pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            let before = self.registered.len();
            self.registered.retain(|(f, _, _)| *f != fd);
            if self.registered.len() == before {
                return Err(io::Error::new(io::ErrorKind::NotFound, "fd is not registered"));
            }
            Ok(())
        }

        pub fn wait(
            &mut self,
            out: &mut Vec<PollEvent>,
            timeout: Option<Duration>,
        ) -> io::Result<usize> {
            let mut fds: Vec<PollFd> = self
                .registered
                .iter()
                .map(|(fd, _, interest)| PollFd {
                    fd: *fd,
                    events: (if interest.read { POLLIN } else { 0 })
                        | (if interest.write { POLLOUT } else { 0 }),
                    revents: 0,
                })
                .collect();
            let n = loop {
                // SAFETY: the buffer pointer/length pair is valid for the whole call.
                let ret = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms(timeout)) };
                if ret >= 0 {
                    break ret as usize;
                }
                let e = io::Error::last_os_error();
                if e.kind() != io::ErrorKind::Interrupted {
                    return Err(e);
                }
            };
            for (pollfd, (_, token, _)) in fds.iter().zip(&self.registered) {
                if pollfd.revents != 0 {
                    out.push(PollEvent {
                        token: *token,
                        readable: pollfd.revents & (POLLIN | POLLHUP) != 0,
                        writable: pollfd.revents & POLLOUT != 0,
                        closed: pollfd.revents & (POLLERR | POLLHUP) != 0,
                    });
                }
            }
            Ok(n)
        }
    }
}

#[cfg(not(unix))]
compile_error!("mpn-net's readiness poller requires a Unix target (epoll or poll)");

/// The platform readiness poller: `epoll` on Linux, `poll(2)` elsewhere on Unix.
///
/// See the [module docs](self) for the model; all methods are level-triggered.
#[derive(Debug)]
pub struct Poller {
    inner: backend::Poller,
}

impl Poller {
    /// Creates a poller.
    ///
    /// # Errors
    /// Propagates the OS error when the underlying facility cannot be created.
    pub fn new() -> io::Result<Self> {
        Ok(Self { inner: backend::Poller::new()? })
    }

    /// Starts watching `fd` under `token` with the given interest.
    ///
    /// # Errors
    /// Propagates the OS error (e.g. the fd is already registered or invalid).
    pub fn register(&mut self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        self.inner.register(fd, token, interest)
    }

    /// Replaces the token/interest of an already-registered `fd`.
    ///
    /// # Errors
    /// Propagates the OS error (e.g. the fd was never registered).
    pub fn reregister(&mut self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        self.inner.reregister(fd, token, interest)
    }

    /// Stops watching `fd`.
    ///
    /// # Errors
    /// Propagates the OS error (e.g. the fd was never registered).
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        self.inner.deregister(fd)
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
        self.inner.wait(out, timeout)
    }
}
