//! Readiness-driven I/O: a minimal reactor over `epoll` (Linux) or a
//! timed sweep (the portable fallback, everywhere else).
//!
//! The workspace carries no external dependencies, so the epoll backend
//! declares the handful of syscalls it needs directly (the crate-wide
//! `unsafe` exception lives in the private `sys` module); everything
//! above the syscall boundary is safe Rust. The reactor is deliberately
//! small: level-triggered readiness, `u64` tokens chosen by the caller,
//! and a cross-thread [`Waker`] — enough for one event-loop thread to own
//! thousands of nonblocking sockets.
//!
//! Backend choice is [`ReactorKind::Auto`] unless overridden (the
//! `--reactor` flag on `distfl-serve`); the sweep backend trades
//! efficiency for portability by reporting every registered token as
//! possibly-ready on a short tick, which is semantically sound for
//! level-triggered consumers of nonblocking sockets.

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Which readiness backend to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReactorKind {
    /// Best available: `epoll` on Linux, sweep elsewhere.
    Auto,
    /// Linux `epoll` (fails at construction off Linux).
    Epoll,
    /// Portable timed sweep: every registered token reports ready on a
    /// short tick. Correct (level-triggered consumers retry on
    /// `WouldBlock`) but burns a tick even when idle.
    Sweep,
}

impl std::str::FromStr for ReactorKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(ReactorKind::Auto),
            "epoll" => Ok(ReactorKind::Epoll),
            "sweep" => Ok(ReactorKind::Sweep),
            other => Err(format!("unknown reactor {other:?} (expected auto|epoll|sweep)")),
        }
    }
}

impl ReactorKind {
    /// The backend `Auto` resolves to on this platform.
    pub fn resolved(self) -> ReactorKind {
        match self {
            ReactorKind::Auto => {
                if cfg!(target_os = "linux") {
                    ReactorKind::Epoll
                } else {
                    ReactorKind::Sweep
                }
            }
            other => other,
        }
    }

    /// The backend's name (for logs and bench documents).
    pub fn name(self) -> &'static str {
        match self {
            ReactorKind::Auto => "auto",
            ReactorKind::Epoll => "epoll",
            ReactorKind::Sweep => "sweep",
        }
    }
}

/// What a waited-on token is ready for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The token supplied at registration.
    pub token: u64,
    /// Readable (or peer-closed / errored — a subsequent read reports it).
    pub readable: bool,
    /// Writable (or errored — a subsequent write reports it).
    pub writable: bool,
}

/// Readiness interest for one registered source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when readable.
    pub read: bool,
    /// Wake when writable.
    pub write: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READ: Interest = Interest { read: true, write: false };
    /// Read + write interest.
    pub const BOTH: Interest = Interest { read: true, write: true };
}

/// The token the reactor reserves for its own [`Waker`].
pub const WAKE_TOKEN: u64 = u64::MAX;

/// A raw I/O source id. On Unix this is the file descriptor; on other
/// platforms (sweep backend only) it is an opaque caller-chosen id.
#[cfg(unix)]
pub type SourceId = std::os::unix::io::RawFd;
/// A raw I/O source id (opaque off Unix; the sweep backend never
/// dereferences it).
#[cfg(not(unix))]
pub type SourceId = i32;

/// The raw source id of a socket, usable with [`Poller::register`].
#[cfg(unix)]
pub fn source_id<T: std::os::unix::io::AsRawFd>(io: &T) -> SourceId {
    io.as_raw_fd()
}

#[cfg(not(unix))]
static NEXT_SOURCE: std::sync::atomic::AtomicI32 = std::sync::atomic::AtomicI32::new(1);

/// A unique opaque id (off Unix the kernel id is unavailable through a
/// portable API; the sweep backend only needs distinctness).
#[cfg(not(unix))]
pub fn source_id<T>(_io: &T) -> SourceId {
    NEXT_SOURCE.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

/// Cross-thread wakeup handle for a [`Poller`]; cheap to clone.
#[derive(Clone)]
pub struct Waker {
    inner: WakerInner,
}

#[derive(Clone)]
enum WakerInner {
    #[cfg(target_os = "linux")]
    Pipe(Arc<std::os::unix::net::UnixStream>),
    Flag(Arc<SweepShared>),
}

impl Waker {
    /// Makes the poller's current (or next) [`Poller::wait`] return with a
    /// [`WAKE_TOKEN`] event. Idempotent between waits.
    pub fn wake(&self) {
        match &self.inner {
            #[cfg(target_os = "linux")]
            WakerInner::Pipe(tx) => {
                use std::io::Write;
                // A full pipe already guarantees a pending wakeup.
                let _ = (&**tx).write(&[1]);
            }
            WakerInner::Flag(shared) => {
                shared.woken.store(true, Ordering::SeqCst);
                let guard = shared.tick.0.lock().unwrap_or_else(|e| e.into_inner());
                shared.tick.1.notify_all();
                drop(guard);
            }
        }
    }
}

/// State shared between the sweep backend and its wakers.
struct SweepShared {
    woken: AtomicBool,
    tick: (Mutex<()>, Condvar),
}

/// A readiness poller: register sources, wait for events.
pub struct Poller {
    backend: Backend,
}

enum Backend {
    #[cfg(target_os = "linux")]
    Epoll(epoll::Epoll),
    Sweep(sweep::Sweep),
}

// Off Linux only the sweep backend exists, and it ignores source ids and
// interest sets.
#[cfg_attr(not(target_os = "linux"), allow(unused_variables))]
impl Poller {
    /// Opens a poller with the requested backend ([`ReactorKind::Auto`]
    /// picks the best available).
    ///
    /// # Errors
    ///
    /// Fails when the backend is unavailable on this platform or the
    /// kernel refuses the underlying handle.
    pub fn new(kind: ReactorKind) -> io::Result<Poller> {
        let backend = match kind.resolved() {
            #[cfg(target_os = "linux")]
            ReactorKind::Epoll => Backend::Epoll(epoll::Epoll::new()?),
            ReactorKind::Sweep => Backend::Sweep(sweep::Sweep::new()),
            #[allow(unreachable_patterns)]
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::Unsupported,
                    format!("reactor backend {} unavailable on this platform", other.name()),
                ))
            }
        };
        Ok(Poller { backend })
    }

    /// A cloneable cross-thread wakeup handle.
    pub fn waker(&self) -> Waker {
        match &self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(b) => b.waker(),
            Backend::Sweep(b) => b.waker(),
        }
    }

    /// Starts watching `source` under `token` with `interest`.
    ///
    /// # Errors
    ///
    /// Propagates kernel registration failures.
    pub fn register(&mut self, source: SourceId, token: u64, interest: Interest) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(b) => b.register(source, token, interest),
            Backend::Sweep(b) => b.register(token),
        }
    }

    /// Changes the interest set of a registered source.
    ///
    /// # Errors
    ///
    /// Propagates kernel failures (e.g. the source is not registered).
    pub fn set_interest(
        &mut self,
        source: SourceId,
        token: u64,
        interest: Interest,
    ) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(b) => b.set_interest(source, token, interest),
            Backend::Sweep(_) => Ok(()),
        }
    }

    /// Stops watching a source. Must be called before the source closes.
    pub fn deregister(&mut self, source: SourceId, token: u64) {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(b) => b.deregister(source),
            Backend::Sweep(b) => b.deregister(token),
        }
    }

    /// Blocks until at least one registered source is ready (or `timeout`
    /// elapses, or a [`Waker`] fires), filling `events`. A waker fire
    /// surfaces as a readable [`WAKE_TOKEN`] event.
    ///
    /// # Errors
    ///
    /// Propagates kernel wait failures (`EINTR` is retried internally).
    pub fn wait(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        events.clear();
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(b) => b.wait(events, timeout),
            Backend::Sweep(b) => b.wait(events, timeout),
        }
    }
}

/// The syscall boundary: the only unsafe code in the crate. Each
/// declaration mirrors the POSIX/Linux prototype; no pointers outlive the
/// call they are passed to.
#[cfg(unix)]
#[allow(unsafe_code)]
mod sys {
    use std::io;

    /// Clamps a socket's kernel send buffer (`SO_SNDBUF`). Best-effort
    /// off Linux (constant values differ; we only tune on Linux).
    pub fn set_send_buffer(fd: i32, bytes: usize) -> io::Result<()> {
        #[cfg(target_os = "linux")]
        {
            const SOL_SOCKET: i32 = 1;
            const SO_SNDBUF: i32 = 7;
            extern "C" {
                fn setsockopt(
                    fd: i32,
                    level: i32,
                    name: i32,
                    value: *const core::ffi::c_void,
                    len: u32,
                ) -> i32;
            }
            let value = bytes.min(i32::MAX as usize) as i32;
            // SAFETY: passes a pointer to a live i32 with its exact size.
            let rc = unsafe {
                setsockopt(
                    fd,
                    SOL_SOCKET,
                    SO_SNDBUF,
                    (&value as *const i32).cast(),
                    std::mem::size_of::<i32>() as u32,
                )
            };
            if rc != 0 {
                return Err(io::Error::last_os_error());
            }
        }
        #[cfg(not(target_os = "linux"))]
        let _ = (fd, bytes);
        Ok(())
    }

    #[cfg(target_os = "linux")]
    pub mod linux {
        use std::io;

        /// Linux `epoll_event`. x86 packs it to 12 bytes; other ABIs use
        /// natural alignment.
        #[repr(C)]
        #[cfg_attr(any(target_arch = "x86_64", target_arch = "x86"), repr(packed))]
        #[derive(Clone, Copy)]
        pub struct EpollEvent {
            pub events: u32,
            pub data: u64,
        }

        pub const EPOLLIN: u32 = 0x001;
        pub const EPOLLOUT: u32 = 0x004;
        pub const EPOLLERR: u32 = 0x008;
        pub const EPOLLHUP: u32 = 0x010;
        pub const EPOLL_CTL_ADD: i32 = 1;
        pub const EPOLL_CTL_DEL: i32 = 2;
        pub const EPOLL_CTL_MOD: i32 = 3;
        const EPOLL_CLOEXEC: i32 = 0x80000;

        extern "C" {
            fn epoll_create1(flags: i32) -> i32;
            fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
            fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
            fn close(fd: i32) -> i32;
        }

        /// Creates an epoll instance (close-on-exec).
        pub fn create() -> io::Result<i32> {
            // SAFETY: plain syscall, no pointers.
            let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(fd)
        }

        /// `epoll_ctl` with an event payload (ADD/MOD).
        pub fn ctl(epfd: i32, op: i32, fd: i32, events: u32, data: u64) -> io::Result<()> {
            let mut ev = EpollEvent { events, data };
            // SAFETY: `ev` is a live stack value for the call's duration.
            let rc = unsafe { epoll_ctl(epfd, op, fd, &mut ev) };
            if rc != 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        /// `epoll_ctl(EPOLL_CTL_DEL)`; the event pointer is ignored on
        /// kernels ≥ 2.6.9.
        pub fn ctl_del(epfd: i32, fd: i32) -> io::Result<()> {
            let mut ev = EpollEvent { events: 0, data: 0 };
            // SAFETY: as above; DEL ignores the payload.
            let rc = unsafe { epoll_ctl(epfd, EPOLL_CTL_DEL, fd, &mut ev) };
            if rc != 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        /// Blocks in `epoll_wait`; `timeout_ms < 0` waits indefinitely.
        pub fn wait(epfd: i32, buf: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
            loop {
                // SAFETY: `buf` is a valid exclusively borrowed slice; the
                // kernel fills at most `buf.len()` entries.
                let rc =
                    unsafe { epoll_wait(epfd, buf.as_mut_ptr(), buf.len() as i32, timeout_ms) };
                if rc >= 0 {
                    return Ok(rc as usize);
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            }
        }

        /// Closes the epoll fd.
        pub fn close_fd(fd: i32) {
            // SAFETY: fd was returned by epoll_create1 and closed once.
            let _ = unsafe { close(fd) };
        }
    }
}

/// Clamps a socket's kernel send buffer (Unix; no-op elsewhere). A
/// serving-side tuning knob: smaller kernel buffers bound per-connection
/// kernel memory and surface backpressure to the user-space write buffer
/// sooner.
pub fn set_send_buffer_size(source: SourceId, bytes: usize) -> io::Result<()> {
    #[cfg(unix)]
    return sys::set_send_buffer(source, bytes);
    #[cfg(not(unix))]
    {
        let _ = (source, bytes);
        Ok(())
    }
}

#[cfg(target_os = "linux")]
fn wake_pair() -> io::Result<(std::os::unix::net::UnixStream, std::os::unix::net::UnixStream)> {
    let (rx, tx) = std::os::unix::net::UnixStream::pair()?;
    rx.set_nonblocking(true)?;
    tx.set_nonblocking(true)?;
    Ok((rx, tx))
}

/// Drains a nonblocking wake stream so level-triggered polling settles.
#[cfg(target_os = "linux")]
fn drain_wake(rx: &std::os::unix::net::UnixStream) {
    use std::io::Read;
    let mut sink = [0u8; 64];
    while let Ok(n) = (&*rx).read(&mut sink) {
        if n < sink.len() {
            break;
        }
    }
}

#[cfg(target_os = "linux")]
mod epoll {
    use super::sys::linux as ep;
    use super::*;
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;

    pub struct Epoll {
        epfd: i32,
        wake_rx: UnixStream,
        wake_tx: Arc<UnixStream>,
        buf: Vec<ep::EpollEvent>,
    }

    fn timeout_ms(timeout: Option<Duration>) -> i32 {
        match timeout {
            None => -1,
            Some(d) => d.as_millis().min(i32::MAX as u128) as i32,
        }
    }

    fn mask(interest: Interest) -> u32 {
        let mut m = 0;
        if interest.read {
            m |= ep::EPOLLIN;
        }
        if interest.write {
            m |= ep::EPOLLOUT;
        }
        m
    }

    impl Epoll {
        pub fn new() -> io::Result<Epoll> {
            let epfd = ep::create()?;
            let (wake_rx, wake_tx) = match wake_pair() {
                Ok(pair) => pair,
                Err(e) => {
                    ep::close_fd(epfd);
                    return Err(e);
                }
            };
            if let Err(e) =
                ep::ctl(epfd, ep::EPOLL_CTL_ADD, wake_rx.as_raw_fd(), ep::EPOLLIN, WAKE_TOKEN)
            {
                ep::close_fd(epfd);
                return Err(e);
            }
            Ok(Epoll {
                epfd,
                wake_rx,
                wake_tx: Arc::new(wake_tx),
                buf: vec![ep::EpollEvent { events: 0, data: 0 }; 1024],
            })
        }

        pub fn waker(&self) -> Waker {
            Waker { inner: WakerInner::Pipe(Arc::clone(&self.wake_tx)) }
        }

        pub fn register(&mut self, fd: SourceId, token: u64, interest: Interest) -> io::Result<()> {
            ep::ctl(self.epfd, ep::EPOLL_CTL_ADD, fd, mask(interest), token)
        }

        pub fn set_interest(
            &mut self,
            fd: SourceId,
            token: u64,
            interest: Interest,
        ) -> io::Result<()> {
            ep::ctl(self.epfd, ep::EPOLL_CTL_MOD, fd, mask(interest), token)
        }

        pub fn deregister(&mut self, fd: SourceId) {
            let _ = ep::ctl_del(self.epfd, fd);
        }

        pub fn wait(
            &mut self,
            events: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<()> {
            let n = ep::wait(self.epfd, &mut self.buf, timeout_ms(timeout))?;
            for raw in &self.buf[..n] {
                let (bits, token) = (raw.events, raw.data);
                if token == WAKE_TOKEN {
                    drain_wake(&self.wake_rx);
                    events.push(Event { token, readable: true, writable: false });
                    continue;
                }
                // Errors/hangups surface as both-ready so the owner's next
                // read/write observes and reports the failure.
                let broken = bits & (ep::EPOLLERR | ep::EPOLLHUP) != 0;
                events.push(Event {
                    token,
                    readable: broken || bits & ep::EPOLLIN != 0,
                    writable: broken || bits & ep::EPOLLOUT != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Epoll {
        fn drop(&mut self) {
            ep::close_fd(self.epfd);
        }
    }
}

mod sweep {
    use super::*;

    /// Tick period: the latency floor of the fallback backend.
    const TICK: Duration = Duration::from_millis(1);

    pub struct Sweep {
        shared: Arc<SweepShared>,
        tokens: Vec<u64>,
    }

    impl Sweep {
        pub fn new() -> Sweep {
            Sweep {
                shared: Arc::new(SweepShared {
                    woken: AtomicBool::new(false),
                    tick: (Mutex::new(()), Condvar::new()),
                }),
                tokens: Vec::new(),
            }
        }

        pub fn waker(&self) -> Waker {
            Waker { inner: WakerInner::Flag(Arc::clone(&self.shared)) }
        }

        pub fn register(&mut self, token: u64) -> io::Result<()> {
            self.tokens.push(token);
            Ok(())
        }

        pub fn deregister(&mut self, token: u64) {
            self.tokens.retain(|&t| t != token);
        }

        pub fn wait(
            &mut self,
            events: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<()> {
            let nap = timeout.unwrap_or(TICK).min(TICK);
            if !self.shared.woken.swap(false, Ordering::SeqCst) {
                let guard = self.shared.tick.0.lock().unwrap_or_else(|e| e.into_inner());
                let guard = self
                    .shared
                    .tick
                    .1
                    .wait_timeout(guard, nap)
                    .map(|(g, _)| g)
                    .unwrap_or_else(|e| e.into_inner().0);
                drop(guard);
            }
            if self.shared.woken.swap(false, Ordering::SeqCst) {
                events.push(Event { token: WAKE_TOKEN, readable: true, writable: false });
            }
            for &token in &self.tokens {
                events.push(Event { token, readable: true, writable: true });
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};

    fn roundtrip_on(kind: ReactorKind) {
        let mut poller = Poller::new(kind).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        poller.register(source_id(&listener), 1, Interest::READ).unwrap();

        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let mut events = Vec::new();
        // Accept becomes readable.
        let accepted = loop {
            poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
            if events.iter().any(|e| e.token == 1 && e.readable) {
                break listener.accept().unwrap().0;
            }
        };
        accepted.set_nonblocking(true).unwrap();
        poller.register(source_id(&accepted), 2, Interest::BOTH).unwrap();

        client.write_all(b"hi").unwrap();
        let mut got = Vec::new();
        while got.len() < 2 {
            poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
            for event in events.iter().filter(|e| e.token == 2 && e.readable) {
                let _ = event;
                let mut buf = [0u8; 16];
                match (&accepted).read(&mut buf) {
                    Ok(n) => got.extend_from_slice(&buf[..n]),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                    Err(e) => panic!("read: {e}"),
                }
            }
        }
        assert_eq!(got, b"hi");
        poller.deregister(source_id(&accepted), 2);
        poller.deregister(source_id(&listener), 1);
    }

    #[test]
    fn accept_and_read_via_default_backend() {
        roundtrip_on(ReactorKind::Auto);
    }

    #[test]
    fn accept_and_read_via_sweep_backend() {
        roundtrip_on(ReactorKind::Sweep);
    }

    #[test]
    fn waker_interrupts_an_indefinite_wait() {
        for kind in [ReactorKind::Auto, ReactorKind::Sweep] {
            let mut poller = Poller::new(kind).unwrap();
            let waker = poller.waker();
            let handle = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(30));
                waker.wake();
            });
            let mut events = Vec::new();
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            loop {
                poller.wait(&mut events, Some(Duration::from_secs(1))).unwrap();
                if events.iter().any(|e| e.token == WAKE_TOKEN) {
                    break;
                }
                assert!(std::time::Instant::now() < deadline, "waker never fired ({kind:?})");
            }
            handle.join().unwrap();
        }
    }
}
