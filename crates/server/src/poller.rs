//! Readiness notification for the event-driven accept loop, std-only.
//!
//! Two interchangeable backends behind one [`Poller`] API:
//!
//! * **Epoll** (Linux): a thin shim over `epoll_create1`/`epoll_ctl`/
//!   `epoll_wait`, used level-triggered — O(ready) wakeups at any
//!   connection count.
//! * **Poll** (portable fallback): classic `poll(2)` over an fd array —
//!   O(registered) per wait, fine for moderate fan-in and for exercising
//!   the same server logic on non-Linux unix.
//!
//! No `libc` crate is pulled in: the handful of symbols needed are
//! declared `extern "C"` and resolved from the C library every Rust
//! binary already links. Both backends are compiled on Linux so the
//! fallback stays tested where CI runs.
//!
//! Tokens are opaque `u64`s chosen by the caller; `ERR`/`HUP` conditions
//! are surfaced as *both* readable and writable so the owning connection
//! performs its next read/write, observes the error, and closes —
//! no separate error plumbing.

use std::io;
use std::os::raw::{c_int, c_short, c_ulong};
use std::os::unix::io::RawFd;

/// One readiness event from [`Poller::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PollEvent {
    /// The caller-chosen token passed at registration.
    pub token: u64,
    /// The fd can be read without blocking (or has hit EOF/error).
    pub readable: bool,
    /// The fd can be written without blocking (or has hit an error).
    pub writable: bool,
}

/// Which readiness backend a [`Poller`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Linux `epoll` — O(ready) scalability.
    #[cfg(target_os = "linux")]
    Epoll,
    /// Portable `poll(2)` — O(registered) per wait.
    Poll,
}

// ---------------------------------------------------------------------------
// Raw syscall surface (resolved from the already-linked C library).
// ---------------------------------------------------------------------------

#[cfg(target_os = "linux")]
mod sys_epoll {
    use super::*;

    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;
    pub const EPOLLIN: u32 = 0x1;
    pub const EPOLLOUT: u32 = 0x4;
    pub const EPOLLERR: u32 = 0x8;
    pub const EPOLLHUP: u32 = 0x10;

    /// Kernel `struct epoll_event`. Packed on x86-64, where the kernel ABI
    /// lays the 64-bit payload at offset 4.
    #[derive(Clone, Copy)]
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout_ms: c_int,
        ) -> c_int;
    }
}

mod sys_poll {
    use super::*;

    pub const POLLIN: c_short = 0x1;
    pub const POLLOUT: c_short = 0x4;
    pub const POLLERR: c_short = 0x8;
    pub const POLLHUP: c_short = 0x10;
    pub const POLLNVAL: c_short = 0x20;

    #[derive(Clone, Copy)]
    #[repr(C)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: c_short,
        pub revents: c_short,
    }

    extern "C" {
        pub fn poll(fds: *mut PollFd, nfds: c_ulong, timeout_ms: c_int) -> c_int;
    }
}

extern "C" {
    fn close(fd: c_int) -> c_int;
}

/// `-1` from a syscall → the thread's `errno` as an `io::Error`.
fn last_os_error(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// Clamp an optional wait timeout to the `c_int` milliseconds the
/// syscalls take (`-1` = block forever; sub-millisecond rounds up to 1 so
/// a short timeout never becomes a busy spin at 0).
fn timeout_ms(timeout: Option<std::time::Duration>) -> c_int {
    match timeout {
        None => -1,
        Some(d) => {
            if d.is_zero() {
                0
            } else {
                d.as_millis().clamp(1, c_int::MAX as u128) as c_int
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The poller proper.
// ---------------------------------------------------------------------------

/// Interest registration entry (also the `poll(2)` backend's whole state).
#[derive(Debug, Clone, Copy)]
struct Registration {
    fd: RawFd,
    token: u64,
    read: bool,
    write: bool,
}

enum Inner {
    #[cfg(target_os = "linux")]
    Epoll {
        epfd: RawFd,
        /// Scratch buffer reused across waits.
        events: Vec<sys_epoll::EpollEvent>,
    },
    Poll {
        regs: Vec<Registration>,
        fds: Vec<sys_poll::PollFd>,
    },
}

/// A readiness poller over raw fds with caller-chosen tokens.
pub struct Poller {
    inner: Inner,
}

impl Poller {
    /// The platform's best backend: epoll on Linux, `poll(2)` elsewhere.
    pub fn new() -> io::Result<Poller> {
        #[cfg(target_os = "linux")]
        {
            Poller::with_backend(Backend::Epoll)
        }
        #[cfg(not(target_os = "linux"))]
        {
            Poller::with_backend(Backend::Poll)
        }
    }

    /// A poller using the named backend (tests exercise the `poll(2)`
    /// fallback on Linux through this).
    pub fn with_backend(backend: Backend) -> io::Result<Poller> {
        let inner = match backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll => {
                let epfd =
                    last_os_error(unsafe { sys_epoll::epoll_create1(sys_epoll::EPOLL_CLOEXEC) })?;
                Inner::Epoll {
                    epfd,
                    events: vec![sys_epoll::EpollEvent { events: 0, data: 0 }; 256],
                }
            }
            Backend::Poll => Inner::Poll {
                regs: Vec::new(),
                fds: Vec::new(),
            },
        };
        Ok(Poller { inner })
    }

    /// Which backend this poller runs on.
    pub fn backend(&self) -> Backend {
        match &self.inner {
            #[cfg(target_os = "linux")]
            Inner::Epoll { .. } => Backend::Epoll,
            Inner::Poll { .. } => Backend::Poll,
        }
    }

    /// Start watching `fd` under `token` for the given interests.
    pub fn register(&mut self, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()> {
        match &mut self.inner {
            #[cfg(target_os = "linux")]
            Inner::Epoll { epfd, .. } => {
                let mut ev = sys_epoll::EpollEvent {
                    events: interest_mask(read, write),
                    data: token,
                };
                last_os_error(unsafe {
                    sys_epoll::epoll_ctl(*epfd, sys_epoll::EPOLL_CTL_ADD, fd, &mut ev)
                })?;
                Ok(())
            }
            Inner::Poll { regs, .. } => {
                if regs.iter().any(|r| r.fd == fd) {
                    return Err(io::Error::new(
                        io::ErrorKind::AlreadyExists,
                        "fd already registered",
                    ));
                }
                regs.push(Registration {
                    fd,
                    token,
                    read,
                    write,
                });
                Ok(())
            }
        }
    }

    /// Change the interests (and token) of an already-registered fd.
    pub fn modify(&mut self, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()> {
        match &mut self.inner {
            #[cfg(target_os = "linux")]
            Inner::Epoll { epfd, .. } => {
                let mut ev = sys_epoll::EpollEvent {
                    events: interest_mask(read, write),
                    data: token,
                };
                last_os_error(unsafe {
                    sys_epoll::epoll_ctl(*epfd, sys_epoll::EPOLL_CTL_MOD, fd, &mut ev)
                })?;
                Ok(())
            }
            Inner::Poll { regs, .. } => {
                let reg = regs
                    .iter_mut()
                    .find(|r| r.fd == fd)
                    .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "fd not registered"))?;
                reg.token = token;
                reg.read = read;
                reg.write = write;
                Ok(())
            }
        }
    }

    /// Stop watching `fd`. Must be called **before** the fd is closed.
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        match &mut self.inner {
            #[cfg(target_os = "linux")]
            Inner::Epoll { epfd, .. } => {
                let mut ev = sys_epoll::EpollEvent { events: 0, data: 0 };
                last_os_error(unsafe {
                    sys_epoll::epoll_ctl(*epfd, sys_epoll::EPOLL_CTL_DEL, fd, &mut ev)
                })?;
                Ok(())
            }
            Inner::Poll { regs, .. } => {
                let before = regs.len();
                regs.retain(|r| r.fd != fd);
                if regs.len() == before {
                    return Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"));
                }
                Ok(())
            }
        }
    }

    /// Block until at least one fd is ready or `timeout` passes, filling
    /// `out` (cleared first) with one event per ready fd. A timeout or an
    /// interrupted wait (`EINTR`) yields zero events, not an error.
    pub fn wait(
        &mut self,
        out: &mut Vec<PollEvent>,
        timeout: Option<std::time::Duration>,
    ) -> io::Result<()> {
        out.clear();
        match &mut self.inner {
            #[cfg(target_os = "linux")]
            Inner::Epoll { epfd, events } => {
                let n = unsafe {
                    sys_epoll::epoll_wait(
                        *epfd,
                        events.as_mut_ptr(),
                        events.len() as c_int,
                        timeout_ms(timeout),
                    )
                };
                let n = match last_os_error(n) {
                    Ok(n) => n as usize,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
                    Err(e) => return Err(e),
                };
                for ev in &events[..n] {
                    let bits = ev.events;
                    let error = bits & (sys_epoll::EPOLLERR | sys_epoll::EPOLLHUP) != 0;
                    out.push(PollEvent {
                        token: ev.data,
                        readable: bits & sys_epoll::EPOLLIN != 0 || error,
                        writable: bits & sys_epoll::EPOLLOUT != 0 || error,
                    });
                }
                // A full buffer means more may be pending; grow so the
                // next wait drains a bigger batch.
                if n == events.len() {
                    let len = events.len() * 2;
                    events.resize(len, sys_epoll::EpollEvent { events: 0, data: 0 });
                }
                Ok(())
            }
            Inner::Poll { regs, fds } => {
                fds.clear();
                for r in regs.iter() {
                    let mut events = 0;
                    if r.read {
                        events |= sys_poll::POLLIN;
                    }
                    if r.write {
                        events |= sys_poll::POLLOUT;
                    }
                    fds.push(sys_poll::PollFd {
                        fd: r.fd,
                        events,
                        revents: 0,
                    });
                }
                let n = unsafe {
                    sys_poll::poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms(timeout))
                };
                match last_os_error(n) {
                    Ok(_) => {}
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => return Ok(()),
                    Err(e) => return Err(e),
                }
                for (r, pfd) in regs.iter().zip(fds.iter()) {
                    let bits = pfd.revents;
                    if bits == 0 {
                        continue;
                    }
                    let error =
                        bits & (sys_poll::POLLERR | sys_poll::POLLHUP | sys_poll::POLLNVAL) != 0;
                    out.push(PollEvent {
                        token: r.token,
                        readable: bits & sys_poll::POLLIN != 0 || error,
                        writable: bits & sys_poll::POLLOUT != 0 || error,
                    });
                }
                Ok(())
            }
        }
    }
}

#[cfg(target_os = "linux")]
fn interest_mask(read: bool, write: bool) -> u32 {
    // Level-triggered on purpose: a connection whose buffered bytes were
    // only partially processed is re-reported on the next wait, so the
    // state machine never needs an internal readiness queue.
    let mut mask = 0;
    if read {
        mask |= sys_epoll::EPOLLIN;
    }
    if write {
        mask |= sys_epoll::EPOLLOUT;
    }
    mask
}

impl Drop for Poller {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        if let Inner::Epoll { epfd, .. } = &self.inner {
            unsafe {
                close(*epfd);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;
    use std::time::Duration;

    fn backends() -> Vec<Backend> {
        #[cfg(target_os = "linux")]
        {
            vec![Backend::Epoll, Backend::Poll]
        }
        #[cfg(not(target_os = "linux"))]
        {
            vec![Backend::Poll]
        }
    }

    #[test]
    fn reports_readability_when_bytes_arrive() {
        for backend in backends() {
            let mut poller = Poller::with_backend(backend).unwrap();
            let (mut a, b) = UnixStream::pair().unwrap();
            b.set_nonblocking(true).unwrap();
            poller.register(b.as_raw_fd(), 7, true, false).unwrap();

            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_millis(10)))
                .unwrap();
            assert!(events.is_empty(), "{backend:?}: nothing to read yet");

            a.write_all(b"x").unwrap();
            poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert_eq!(events.len(), 1, "{backend:?}");
            assert_eq!(events[0].token, 7);
            assert!(events[0].readable);
        }
    }

    #[test]
    fn modify_switches_interest_to_writable() {
        for backend in backends() {
            let mut poller = Poller::with_backend(backend).unwrap();
            let (_a, b) = UnixStream::pair().unwrap();
            b.set_nonblocking(true).unwrap();
            poller.register(b.as_raw_fd(), 1, true, false).unwrap();
            poller.modify(b.as_raw_fd(), 2, false, true).unwrap();

            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert_eq!(events.len(), 1, "{backend:?}: socket buffer has room");
            assert_eq!(events[0].token, 2, "token updated by modify");
            assert!(events[0].writable);
        }
    }

    #[test]
    fn deregister_stops_reporting() {
        for backend in backends() {
            let mut poller = Poller::with_backend(backend).unwrap();
            let (mut a, b) = UnixStream::pair().unwrap();
            b.set_nonblocking(true).unwrap();
            poller.register(b.as_raw_fd(), 3, true, false).unwrap();
            a.write_all(b"x").unwrap();
            poller.deregister(b.as_raw_fd()).unwrap();

            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_millis(20)))
                .unwrap();
            assert!(events.is_empty(), "{backend:?}: deregistered fd is silent");
        }
    }

    #[test]
    fn peer_close_reports_readable() {
        // A closed peer must surface as readable (read returns Ok(0)) so
        // the connection state machine observes EOF and cleans up.
        for backend in backends() {
            let mut poller = Poller::with_backend(backend).unwrap();
            let (a, mut b) = UnixStream::pair().unwrap();
            b.set_nonblocking(true).unwrap();
            poller.register(b.as_raw_fd(), 9, true, false).unwrap();
            drop(a);

            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert_eq!(events.len(), 1, "{backend:?}");
            assert!(events[0].readable, "{backend:?}: HUP surfaces as readable");
            let mut sink = [0u8; 8];
            assert_eq!(b.read(&mut sink).unwrap(), 0, "EOF observable");
        }
    }

    #[test]
    fn both_backends_register_many_fds() {
        for backend in backends() {
            let mut poller = Poller::with_backend(backend).unwrap();
            let mut pairs = Vec::new();
            for i in 0..64 {
                let (a, b) = UnixStream::pair().unwrap();
                b.set_nonblocking(true).unwrap();
                poller
                    .register(b.as_raw_fd(), i as u64, true, false)
                    .unwrap();
                pairs.push((a, b));
            }
            // Make every odd fd readable; exactly those must report.
            for (i, (a, _)) in pairs.iter_mut().enumerate() {
                if i % 2 == 1 {
                    a.write_all(b"!").unwrap();
                }
            }
            let mut events = Vec::new();
            let mut ready = std::collections::BTreeSet::new();
            // epoll may deliver across several waits if the scratch buffer
            // is small; loop until quiescent.
            loop {
                poller
                    .wait(&mut events, Some(Duration::from_millis(50)))
                    .unwrap();
                if events.is_empty() {
                    break;
                }
                for ev in &events {
                    ready.insert(ev.token);
                    // Drain so level-triggered reporting stops.
                    let (_, b) = &mut pairs[ev.token as usize];
                    let mut sink = [0u8; 8];
                    let _ = b.read(&mut sink);
                }
            }
            let expected: std::collections::BTreeSet<u64> =
                (0..64).filter(|i| i % 2 == 1).collect();
            assert_eq!(ready, expected, "{backend:?}");
        }
    }
}
