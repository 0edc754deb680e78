//! The TCP server: a readiness-driven event loop plus per-shard batching
//! schedulers.
//!
//! Data flow: one **reactor thread** owns the listener and every
//! connection as nonblocking sockets behind a [`crate::reactor::Poller`]
//! (epoll on Linux). A readable socket is drained into a
//! [`crate::frame::LineFramer`]; every complete NDJSON line is parsed in
//! place and the whole burst is admitted to its connection's **shard
//! queue as one group** ([`Admission::push_group`]) — pipelined requests
//! never wait one scheduler tick each. A line that fails to parse joins
//! the group as its rendered error, so a burst's answers come back in line
//! order; only control acks (`ping`, `shutdown`) and admission refusals
//! (`queue_full`, `shutting_down`) are written on arrival and may overtake
//! answers still queued. Connections map to one of N shard
//! queues by a hash of their socket id, so admission contention is spread
//! across shards instead of a single global queue. Each shard's
//! scheduler thread pops batches and fans them out on the shared worker
//! pool; rendered responses come back through a completion list that
//! wakes the reactor, which appends them to the connection's **bounded**
//! write buffer and flushes opportunistically. A client that stops
//! draining its socket overflows that buffer and is shed with a typed
//! `slow_reader` error — it never stalls workers, shards, or other
//! connections.
//!
//! The inbound side is bounded too. Each connection may have at most
//! [`PENDING_BUDGET`] (1 MiB) of request bytes admitted and not yet
//! answered; at the budget the reactor stops reading that connection until
//! answers go out, so the rest of a pipelined burst waits in the kernel's
//! socket buffers instead of in parsed form in a shard queue. The first
//! line is always admitted, however long (lines are capped at 16 MiB).
//! Reading in order has one consequence: a `ping` or `shutdown` sent
//! behind a paused backlog on the same connection is read, and answered,
//! only once that backlog drains. Other connections are not held up.
//!
//! Responses stay byte-deterministic: request execution is a pure
//! function of the request line, so batch composition, worker count,
//! shard count, and reactor timing never leak into response bytes.
//!
//! Shutdown (the `{"cmd":"shutdown"}` SIGTERM-equivalent, or
//! [`Server::shutdown`]) drains rather than aborts: stop accepting,
//! close the shard queues for admission, let the schedulers answer
//! everything already admitted, flush every write buffer, then close.
//! No admitted request loses its response.

use std::collections::VecDeque;
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use distfl_pool::WorkerPool;

use crate::conn::{Append, WriteBuf};
use crate::frame::{Framed, LineFramer};
use crate::proto::{self, Command, ErrorKind, Parsed, ServeError};
use crate::queue::{Admission, AdmitError};
use crate::reactor::{self, Event, Interest, Poller, ReactorKind, Waker, WAKE_TOKEN};
use crate::scheduler::{self, Job, Work};
use crate::session::SessionCache;

/// Instrumentation hook invoked with each batch's size after it is
/// popped and before it executes (see [`ServeConfig::batch_hook`]).
pub type BatchHook = Arc<dyn Fn(usize) + Send + Sync>;

/// The reactor's reserved token for the listening socket.
const LISTEN_TOKEN: u64 = u64::MAX - 1;

/// Hard cap on one request line (an oversized line is refused and
/// skipped, not buffered).
const MAX_LINE: usize = 16 * 1024 * 1024;

/// Most bytes drained from one connection per readiness event, so a
/// firehose connection cannot starve its neighbours.
const READ_BURST: usize = 256 * 1024;

/// Most request bytes one connection may have admitted and not yet had
/// answered. At the budget the reactor stops reading the connection until
/// answers go out, so the rest of a pipelined burst waits in the kernel's
/// socket buffers rather than in server memory. Lines are admitted whole:
/// a connection holds at most the budget plus one read chunk's lines, and
/// a line that arrives under the budget is admitted however long it is.
const PENDING_BUDGET: usize = 1024 * 1024;

/// How long a drain waits for write buffers to flush before force-closing
/// lingering connections.
const DRAIN_LINGER: Duration = Duration::from_secs(5);

/// How long a shed connection lingers (discarding inbound bytes) after
/// its error line has flushed, so closing never RSTs the error away.
const SHED_LINGER: Duration = Duration::from_secs(2);

/// Server tuning knobs. `Default` suits tests and small deployments.
#[derive(Clone)]
pub struct ServeConfig {
    /// Bound on requests admitted but not yet executing, **per shard**.
    /// Admission beyond it returns a `queue_full` error immediately.
    pub queue_capacity: usize,
    /// Most requests one shard fork/join executes together.
    pub max_batch: usize,
    /// Worker threads: `Some(n)` takes the process-wide shared pool of
    /// that size ([`WorkerPool::shared`]), `None` the global pool
    /// ([`WorkerPool::global`]) — either way the pool outlives the
    /// server and is reused by later servers and sweeps in-process.
    pub workers: Option<usize>,
    /// Shard queues (and scheduler threads). `0` picks the machine's
    /// available parallelism. Connections map to shards by socket-id
    /// hash; responses are byte-identical at any shard count.
    pub shards: usize,
    /// Cap on one connection's pending response bytes. A client that
    /// stops draining its socket overflows this and is shed with a typed
    /// `slow_reader` error instead of growing server memory. Clamped to
    /// at least 1024.
    pub write_buffer_cap: usize,
    /// Readiness backend: `Auto` is epoll on Linux and the portable
    /// timed sweep elsewhere; `Sweep` forces the sweep anywhere.
    pub reactor: ReactorKind,
    /// When set, clamps each connection's kernel send buffer
    /// (`SO_SNDBUF`): bounds per-connection kernel memory at high
    /// connection counts and surfaces backpressure to the user-space
    /// write buffer sooner. Unix only; ignored elsewhere.
    pub sock_send_buffer: Option<usize>,
    /// Called on a shard's scheduler thread with each popped batch's
    /// size, before the batch executes. A logging/telemetry point; tests
    /// use a blocking hook to pin a scheduler at a known position.
    pub batch_hook: Option<BatchHook>,
    /// Most sessions pinned at once (see [`crate::session`]). Creating a
    /// new session beyond it evicts the least-recently-touched one.
    /// Clamped to at least 1.
    pub session_capacity: usize,
}

impl std::fmt::Debug for ServeConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeConfig")
            .field("queue_capacity", &self.queue_capacity)
            .field("max_batch", &self.max_batch)
            .field("workers", &self.workers)
            .field("shards", &self.shards)
            .field("write_buffer_cap", &self.write_buffer_cap)
            .field("reactor", &self.reactor)
            .field("sock_send_buffer", &self.sock_send_buffer)
            .field("batch_hook", &self.batch_hook.as_ref().map(|_| "Fn"))
            .field("session_capacity", &self.session_capacity)
            .finish()
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_capacity: 256,
            max_batch: 16,
            workers: None,
            shards: 0,
            write_buffer_cap: 256 * 1024,
            reactor: ReactorKind::Auto,
            sock_send_buffer: None,
            batch_hook: None,
            session_capacity: 64,
        }
    }
}

fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// State shared by the reactor, the shard schedulers, and the shutdown
/// path.
struct Shared {
    /// One bounded admission queue per shard.
    queues: Vec<Arc<Admission<Job>>>,
    /// Rendered responses on their way back to the reactor.
    completions: Mutex<Vec<(u64, String)>>,
    /// Wakes the reactor (completions ready, or drain initiated).
    waker: Waker,
    draining: AtomicBool,
    /// Shard scheduler threads still running (drain completes at 0).
    active_shards: AtomicUsize,
    /// Session-pinned instances, shared by every shard.
    sessions: Arc<SessionCache>,
    addr: SocketAddr,
}

impl Shared {
    /// Flips the server into draining mode (idempotent): close admission
    /// on every shard and wake the reactor so it stops accepting.
    fn begin_shutdown(&self) {
        if self.draining.swap(true, Ordering::SeqCst) {
            return;
        }
        for queue in &self.queues {
            queue.close();
        }
        self.waker.wake();
    }
}

/// A running solver service bound to a local address.
///
/// Dropping a `Server` without calling [`Server::shutdown`] detaches the
/// background threads (they keep serving); shut down explicitly to drain.
pub struct Server {
    shared: Arc<Shared>,
    reactor_thread: Option<JoinHandle<()>>,
    shard_threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts the reactor and shard scheduler threads.
    ///
    /// # Errors
    ///
    /// Propagates bind failures and reactor-backend construction
    /// failures (e.g. forcing `epoll` off Linux).
    pub fn start(addr: impl ToSocketAddrs, config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let mut poller = Poller::new(config.reactor)?;
        poller.register(reactor::source_id(&listener), LISTEN_TOKEN, Interest::READ)?;
        let waker = poller.waker();

        let pool = match config.workers {
            Some(workers) => WorkerPool::shared(workers),
            None => WorkerPool::global(),
        };
        let shards = match config.shards {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        };
        let shared = Arc::new(Shared {
            queues: (0..shards).map(|_| Arc::new(Admission::new(config.queue_capacity))).collect(),
            completions: Mutex::new(Vec::new()),
            waker,
            draining: AtomicBool::new(false),
            active_shards: AtomicUsize::new(shards),
            sessions: Arc::new(SessionCache::new(config.session_capacity)),
            addr: local,
        });

        let shard_threads = (0..shards)
            .map(|index| {
                let shared = Arc::clone(&shared);
                let queue = Arc::clone(&shared.queues[index]);
                let pool = Arc::clone(&pool);
                let max_batch = config.max_batch.max(1);
                let hook = config.batch_hook.clone();
                std::thread::Builder::new()
                    .name(format!("distfl-serve-shard{index}"))
                    .spawn(move || {
                        let sink = {
                            let shared = Arc::clone(&shared);
                            move |batch: Vec<(u64, String)>| {
                                relock(&shared.completions).extend(batch);
                                shared.waker.wake();
                            }
                        };
                        let sessions = Arc::clone(&shared.sessions);
                        scheduler::run_shard(
                            &queue,
                            &pool,
                            &sessions,
                            max_batch,
                            hook.as_deref(),
                            &sink,
                        );
                        shared.active_shards.fetch_sub(1, Ordering::SeqCst);
                        shared.waker.wake();
                    })
                    .expect("spawn shard scheduler thread")
            })
            .collect();

        let reactor_thread = {
            let shared = Arc::clone(&shared);
            let write_cap = config.write_buffer_cap.max(1024);
            let sock_send_buffer = config.sock_send_buffer;
            std::thread::Builder::new()
                .name("distfl-serve-reactor".to_owned())
                .spawn(move || {
                    Reactor::new(poller, listener, shared, write_cap, sock_send_buffer).run()
                })
                .expect("spawn reactor thread")
        };

        Ok(Server { shared, reactor_thread: Some(reactor_thread), shard_threads })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The number of shard queues in use.
    pub fn shards(&self) -> usize {
        self.shared.queues.len()
    }

    /// How many sessions are currently pinned (for tests and monitoring).
    pub fn session_count(&self) -> usize {
        self.shared.sessions.len()
    }

    /// Initiates a graceful drain and blocks until it completes; every
    /// admitted request is answered before this returns.
    pub fn shutdown(mut self) {
        self.shared.begin_shutdown();
        self.join_all();
    }

    /// Blocks until a drain is initiated elsewhere (a client `shutdown`
    /// command) and completes — the run loop of the `distfl-serve`
    /// binary.
    pub fn wait(mut self) {
        self.join_all();
    }

    /// Joins shard schedulers, then the reactor (which exits only after
    /// the schedulers finish and every response has been flushed or its
    /// connection shed), then releases the session cache — after the
    /// joins, so no in-flight session job ever observes a vanishing
    /// session. Idempotent.
    fn join_all(&mut self) {
        for handle in self.shard_threads.drain(..) {
            let _ = handle.join();
        }
        if let Some(handle) = self.reactor_thread.take() {
            let _ = handle.join();
        }
        self.shared.sessions.clear();
    }
}

/// One live connection owned by the reactor.
struct Conn {
    stream: TcpStream,
    source: reactor::SourceId,
    token: u64,
    framer: LineFramer,
    write: WriteBuf,
    interest: Interest,
    /// Bytes of each line admitted to a shard queue whose answer is still
    /// due, in admission order (a shard answers a connection in that
    /// order).
    pending: VecDeque<usize>,
    /// The sum of `pending`; reading pauses while it is at least
    /// [`PENDING_BUDGET`].
    pending_bytes: usize,
    /// Backpressure overflow tripped: requests ignored, responses
    /// discarded, closing once the shed error line has flushed.
    shed: bool,
    /// Peer closed its write half (or a read error occurred).
    read_closed: bool,
    /// Set once the shed error has flushed: the write half is shut down
    /// and inbound bytes are discarded until EOF or this deadline, so the
    /// close never turns into a RST that purges the error line
    /// client-side.
    linger_until: Option<Instant>,
}

/// A parse outcome carried out of the framing closure (which cannot touch
/// the connection it is framing for — borrow-wise — so outcomes are
/// staged and applied right after), with the byte length of its line.
enum LineOut {
    Parsed(Parsed, usize),
    Error(ServeError, u64, usize),
}

/// Obs handles the reactor updates.
struct Metrics {
    requests: distfl_obs::Counter,
    bytes_read: distfl_obs::Counter,
    bytes_written: distfl_obs::Counter,
    pipelined: distfl_obs::Counter,
    wakeups: distfl_obs::Counter,
    shed: distfl_obs::Counter,
    open_conns: distfl_obs::Gauge,
    queue_depth: distfl_obs::Gauge,
}

/// The reactor: the event loop thread's whole state.
struct Reactor {
    poller: Poller,
    listener: Option<TcpListener>,
    shared: Arc<Shared>,
    slots: Vec<Option<Conn>>,
    free: Vec<usize>,
    /// Per-slot generation stamp, detecting stale completion tokens.
    generations: Vec<u32>,
    live: usize,
    /// Shed connections in their lingering-close window.
    lingering: usize,
    write_cap: usize,
    sock_send_buffer: Option<usize>,
    scratch: Vec<u8>,
    drain_deadline: Option<Instant>,
    metrics: Metrics,
}

impl Reactor {
    fn new(
        poller: Poller,
        listener: TcpListener,
        shared: Arc<Shared>,
        write_cap: usize,
        sock_send_buffer: Option<usize>,
    ) -> Reactor {
        Reactor {
            poller,
            listener: Some(listener),
            shared,
            slots: Vec::new(),
            free: Vec::new(),
            generations: Vec::new(),
            live: 0,
            lingering: 0,
            write_cap,
            sock_send_buffer,
            scratch: vec![0u8; 64 * 1024],
            drain_deadline: None,
            metrics: Metrics {
                requests: distfl_obs::counter("serve.requests"),
                bytes_read: distfl_obs::counter("serve.bytes_read"),
                bytes_written: distfl_obs::counter("serve.bytes_written"),
                pipelined: distfl_obs::counter("serve.pipelined_requests"),
                wakeups: distfl_obs::counter("serve.reactor_wakeups"),
                shed: distfl_obs::counter("serve.connections_shed"),
                open_conns: distfl_obs::gauge("serve.open_connections"),
                queue_depth: distfl_obs::gauge("serve.queue_depth"),
            },
        }
    }

    fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            let draining = self.shared.draining.load(Ordering::SeqCst);
            if draining {
                self.enter_drain();
                if self.drain_complete() {
                    self.close_all();
                    return;
                }
            }
            let timeout = if draining {
                Some(Duration::from_millis(50))
            } else if self.lingering > 0 {
                Some(Duration::from_millis(100))
            } else {
                None
            };
            if self.poller.wait(&mut events, timeout).is_err() {
                // A broken poller cannot serve; treat as a hard drain.
                self.close_all();
                return;
            }
            self.metrics.wakeups.incr();
            let mut accept_ready = false;
            for &event in &events {
                match event.token {
                    WAKE_TOKEN => {}
                    LISTEN_TOKEN => accept_ready = true,
                    token => self.on_conn_event(token, event.readable, event.writable),
                }
            }
            // Completions may have arrived with or without a wake event;
            // applying them every iteration is one cheap lock.
            self.apply_completions();
            if accept_ready {
                self.accept_ready();
            }
            if self.lingering > 0 {
                self.expire_lingerers();
            }
        }
    }

    /// Force-closes shed connections whose lingering-close window ran out
    /// (the client neither read the error nor closed).
    fn expire_lingerers(&mut self) {
        let now = Instant::now();
        for index in 0..self.slots.len() {
            let expired = matches!(
                &self.slots[index],
                Some(conn) if conn.linger_until.is_some_and(|d| now >= d)
            );
            if expired {
                self.close_conn(index);
            }
        }
    }

    /// First-iteration-of-drain work: stop accepting, start the linger
    /// clock.
    fn enter_drain(&mut self) {
        if self.drain_deadline.is_some() {
            return;
        }
        self.drain_deadline = Some(Instant::now() + DRAIN_LINGER);
        if let Some(listener) = self.listener.take() {
            self.poller.deregister(reactor::source_id(&listener), LISTEN_TOKEN);
        }
    }

    /// True once every response has been delivered into a write buffer
    /// and flushed (or the linger expired): schedulers done, completion
    /// list empty, all buffers empty.
    fn drain_complete(&mut self) -> bool {
        if self.shared.active_shards.load(Ordering::SeqCst) != 0 {
            return false;
        }
        if !relock(&self.shared.completions).is_empty() {
            return false;
        }
        let flushed = self.slots.iter().flatten().all(|c| c.write.is_empty());
        flushed || self.drain_deadline.is_some_and(|d| Instant::now() >= d)
    }

    fn close_all(&mut self) {
        for index in 0..self.slots.len() {
            if self.slots[index].is_some() {
                self.close_conn(index);
            }
        }
    }

    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = self.listener.as_ref() else { return };
            match listener.accept() {
                Ok((stream, _)) => self.add_conn(stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(_) => return,
            }
        }
    }

    fn add_conn(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        // Responses are small lines; Nagle-delaying them costs tens of
        // milliseconds of latency for nothing.
        let _ = stream.set_nodelay(true);
        let source = reactor::source_id(&stream);
        if let Some(bytes) = self.sock_send_buffer {
            let _ = reactor::set_send_buffer_size(source, bytes);
        }
        let index = match self.free.pop() {
            Some(index) => index,
            None => {
                self.slots.push(None);
                self.generations.push(0);
                self.slots.len() - 1
            }
        };
        let token = (index as u64) | (u64::from(self.generations[index]) << 32);
        if self.poller.register(source, token, Interest::READ).is_err() {
            self.free.push(index);
            return;
        }
        self.slots[index] = Some(Conn {
            stream,
            source,
            token,
            framer: LineFramer::new(MAX_LINE),
            write: WriteBuf::new(self.write_cap),
            interest: Interest::READ,
            pending: VecDeque::new(),
            pending_bytes: 0,
            shed: false,
            read_closed: false,
            linger_until: None,
        });
        self.live += 1;
        self.metrics.open_conns.set(self.live as f64);
    }

    /// Slot index of a live connection token, if it still refers to one.
    fn resolve(&self, token: u64) -> Option<usize> {
        let index = (token & u32::MAX as u64) as usize;
        match self.slots.get(index) {
            Some(Some(conn)) if conn.token == token => Some(index),
            _ => None,
        }
    }

    fn close_conn(&mut self, index: usize) {
        if let Some(conn) = self.slots[index].take() {
            if conn.linger_until.is_some() {
                self.lingering -= 1;
            }
            self.poller.deregister(conn.source, conn.token);
            self.generations[index] = self.generations[index].wrapping_add(1);
            self.free.push(index);
            self.live -= 1;
            self.metrics.open_conns.set(self.live as f64);
        }
    }

    fn on_conn_event(&mut self, token: u64, readable: bool, writable: bool) {
        let Some(index) = self.resolve(token) else { return };
        if readable {
            self.read_conn(index);
        }
        if self.slots[index].is_some() {
            let _ = writable; // maintain() always attempts a flush
            self.maintain(index);
        }
    }

    /// Drains readable bytes, frames them, parses every complete line,
    /// and admits the parsed requests to the connection's shard as one
    /// group. Reads stop for good at end of input, and until answers go
    /// out once the admitted and staged lines reach [`PENDING_BUDGET`].
    fn read_conn(&mut self, index: usize) {
        let conn = self.slots[index].as_mut().expect("resolved index is live");
        if conn.read_closed {
            return;
        }
        if conn.shed {
            // Lingering discard: consume inbound bytes without processing
            // so the eventual close finds an empty receive queue (no RST).
            let mut drained = 0;
            loop {
                match conn.stream.read(&mut self.scratch) {
                    Ok(0) => {
                        conn.read_closed = true;
                        break;
                    }
                    Ok(n) => {
                        drained += n;
                        if drained >= READ_BURST {
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        conn.read_closed = true;
                        break;
                    }
                }
            }
            return;
        }
        let mut outs: Vec<LineOut> = Vec::new();
        let (mut drained, mut staged) = (0, 0);
        while conn.pending_bytes + staged < PENDING_BUDGET {
            match conn.stream.read(&mut self.scratch) {
                Ok(0) => {
                    conn.read_closed = true;
                    break;
                }
                Ok(n) => {
                    drained += n;
                    self.metrics.bytes_read.add(n as u64);
                    let chunk = &self.scratch[..n];
                    conn.framer.feed(chunk, &mut |framed| match framed {
                        Framed::Line(line) => {
                            staged += line.len();
                            if let Some(out) = classify_line(line) {
                                outs.push(out);
                            }
                        }
                        Framed::Oversized { dropped } => {
                            outs.push(LineOut::Error(
                                ServeError {
                                    kind: ErrorKind::MalformedRequest,
                                    detail: format!(
                                        "request line exceeds {MAX_LINE} bytes ({dropped} \
                                         buffered); line skipped"
                                    ),
                                    id: None,
                                },
                                0,
                                0,
                            ));
                        }
                    });
                    if drained >= READ_BURST {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    conn.read_closed = true;
                    break;
                }
            }
        }
        self.apply_lines(index, outs);
    }

    /// Applies staged line outcomes: immediate replies for commands,
    /// grouped shard admission for requests and for parse errors, which
    /// join the group as rendered answers so they keep their place among
    /// the burst's answers.
    fn apply_lines(&mut self, index: usize, outs: Vec<LineOut>) {
        let mut group: Vec<(Job, usize)> = Vec::new();
        let token = self.slots[index].as_ref().expect("live conn").token;
        for out in outs {
            self.metrics.requests.incr();
            match out {
                LineOut::Parsed(Parsed::Request(request), bytes) => {
                    group.push((Job { work: Work::Request(*request), conn: token }, bytes));
                }
                LineOut::Parsed(Parsed::Command(cmd), _) => {
                    // Requests sent ahead of a shutdown command on the same
                    // socket burst must be admitted before the drain closes
                    // the queues.
                    if cmd == Command::Shutdown {
                        self.admit_group(index, &mut group);
                    }
                    self.append_response(index, &proto::render_command_ack(cmd));
                    if cmd == Command::Shutdown {
                        self.shared.begin_shutdown();
                    }
                }
                LineOut::Error(error, span, bytes) => {
                    let answer = proto::render_error(&error, span);
                    group.push((Job { work: Work::Answer(answer), conn: token }, bytes));
                }
            }
            if self.slots[index].is_none() {
                return; // connection shed and closed mid-burst
            }
        }
        self.admit_group(index, &mut group);
    }

    /// Admits a pipelined group to the connection's shard queue under one
    /// lock; refused requests get their typed error immediately, and a
    /// refused answer is written as is. Each job comes with its line's
    /// byte length, which counts against the connection's budget until
    /// the job is answered.
    fn admit_group(&mut self, index: usize, group: &mut Vec<(Job, usize)>) {
        if group.is_empty() {
            return;
        }
        let (batch, bytes): (Vec<Job>, Vec<usize>) = std::mem::take(group).into_iter().unzip();
        let size = batch.len();
        let conn = self.slots[index].as_mut().expect("live conn");
        let shard = shard_of(conn.source, self.shared.queues.len());
        let queue = Arc::clone(&self.shared.queues[shard]);
        let rejected = queue.push_group(batch);
        let admitted = size - rejected.len();
        if size > 1 {
            self.metrics.pipelined.add(size as u64);
        }
        self.metrics.queue_depth.set(queue.depth() as f64);
        // The queue cannot drain while `push_group` holds its lock, so the
        // admitted jobs are the group's first `admitted`.
        if let Some(conn) = self.slots[index].as_mut() {
            conn.pending_bytes += bytes[..admitted].iter().sum::<usize>();
            conn.pending.extend(&bytes[..admitted]);
        }
        for (job, reason) in rejected {
            let request = match job.work {
                Work::Request(request) => request,
                Work::Answer(answer) => {
                    self.append_response(index, &answer);
                    continue;
                }
            };
            let (kind, detail) = match reason {
                AdmitError::Full => (
                    ErrorKind::QueueFull,
                    format!("admission queue at capacity {}", queue.capacity()),
                ),
                AdmitError::Closed => (
                    ErrorKind::ShuttingDown,
                    "server is draining and admits no new work".to_owned(),
                ),
            };
            let error = ServeError { kind, detail, id: Some(request.id) };
            self.append_response(index, &proto::render_error(&error, request.span_id));
        }
    }

    /// Appends one response line to a connection's bounded write buffer,
    /// shedding the connection on overflow.
    fn append_response(&mut self, index: usize, line: &str) {
        let Some(conn) = self.slots[index].as_mut() else { return };
        if conn.shed {
            return;
        }
        if conn.write.append_line(line) == Append::Overflow {
            self.shed_conn(index);
        }
    }

    /// Backpressure trip: drop undelivered responses (on line boundaries
    /// only), queue the typed `slow_reader` error, stop reading. The
    /// connection closes once the error flushes.
    fn shed_conn(&mut self, index: usize) {
        let cap = self.write_cap;
        let Some(conn) = self.slots[index].as_mut() else { return };
        conn.shed = true;
        self.metrics.shed.incr();
        let error = ServeError {
            kind: ErrorKind::SlowReader,
            detail: format!(
                "client stopped reading: write buffer exceeded {cap} bytes; connection shed"
            ),
            id: None,
        };
        conn.write.shed_to(&proto::render_error(&error, 0));
    }

    /// Takes the completion list and routes every response to its
    /// connection (silently dropping those whose connection is gone or
    /// shed — undeliverable by definition).
    fn apply_completions(&mut self) {
        let completed = std::mem::take(&mut *relock(&self.shared.completions));
        if completed.is_empty() {
            return;
        }
        let mut touched: Vec<usize> = Vec::new();
        for (token, line) in completed {
            let Some(index) = self.resolve(token) else { continue };
            let conn = self.slots[index].as_mut().expect("resolved");
            conn.pending_bytes -= conn.pending.pop_front().unwrap_or(0);
            self.append_response(index, &line);
            if !touched.contains(&index) {
                touched.push(index);
            }
        }
        for index in touched {
            if self.slots[index].is_some() {
                self.maintain(index);
            }
        }
    }

    /// Post-event housekeeping for one connection: flush what the socket
    /// accepts, update readiness interest, close when finished.
    fn maintain(&mut self, index: usize) {
        let conn = self.slots[index].as_mut().expect("live conn");
        if !conn.write.is_empty() {
            match conn.write.flush_into(&mut conn.stream) {
                Ok(n) => self.metrics.bytes_written.add(n as u64),
                Err(_) => {
                    self.close_conn(index);
                    return;
                }
            }
        }
        let conn = self.slots[index].as_mut().expect("live conn");
        let done_writing = conn.write.is_empty();
        if conn.shed && done_writing {
            // The error line reached the kernel. Close right away if the
            // peer is gone; otherwise shut down our write half and linger,
            // discarding inbound bytes, so the close cannot RST the error
            // out of the client's receive queue.
            if conn.read_closed {
                self.close_conn(index);
                return;
            }
            if conn.linger_until.is_none() {
                let _ = conn.stream.shutdown(std::net::Shutdown::Write);
                conn.linger_until = Some(Instant::now() + SHED_LINGER);
                self.lingering += 1;
            }
            let want = Interest::READ;
            if want != conn.interest {
                conn.interest = want;
                let _ = self.poller.set_interest(conn.source, conn.token, want);
            }
            return;
        }
        if conn.read_closed && conn.pending.is_empty() && done_writing {
            self.close_conn(index);
            return;
        }
        let paused = conn.pending_bytes >= PENDING_BUDGET;
        let want = Interest { read: !conn.read_closed && !paused, write: !done_writing };
        if want != conn.interest {
            conn.interest = want;
            let _ = self.poller.set_interest(conn.source, conn.token, want);
        }
    }
}

/// Stable shard assignment for a socket id (split-mix finalizer over the
/// raw fd). Responses never depend on it; only contention spread does.
fn shard_of(source: reactor::SourceId, shards: usize) -> usize {
    let mut x = source as u64;
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    (x % shards.max(1) as u64) as usize
}

/// Parses one framed line into a staged outcome (`None` = blank line).
fn classify_line(line: &[u8]) -> Option<LineOut> {
    let Ok(text) = std::str::from_utf8(line) else {
        return Some(LineOut::Error(
            ServeError {
                kind: ErrorKind::MalformedRequest,
                detail: "request line is not valid UTF-8".to_owned(),
                id: None,
            },
            proto::span_id(line),
            line.len(),
        ));
    };
    let trimmed = text.trim();
    if trimmed.is_empty() {
        return None;
    }
    Some(match proto::parse_line(trimmed) {
        Ok(parsed) => LineOut::Parsed(parsed, line.len()),
        Err(error) => LineOut::Error(error, proto::span_id(trimmed.as_bytes()), line.len()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_assignment_is_stable_and_in_range() {
        for shards in [1usize, 2, 4, 7] {
            for fd in 0..64 {
                let a = shard_of(fd, shards);
                let b = shard_of(fd, shards);
                assert_eq!(a, b);
                assert!(a < shards);
            }
        }
        // The hash actually spreads consecutive fds.
        let spread: std::collections::BTreeSet<usize> = (0..16).map(|fd| shard_of(fd, 4)).collect();
        assert!(spread.len() > 1, "consecutive fds all hash to one shard");
    }

    #[test]
    fn classify_line_stages_parse_outcomes() {
        assert!(classify_line(b"").is_none());
        assert!(classify_line(b"   ").is_none());
        match classify_line(br#"{"cmd":"ping"}"#) {
            Some(LineOut::Parsed(Parsed::Command(Command::Ping), 14)) => {}
            _ => panic!("ping should classify as a command"),
        }
        match classify_line(&[0xff, 0xfe]) {
            Some(LineOut::Error(error, _, 2)) => {
                assert_eq!(error.kind, ErrorKind::MalformedRequest);
                assert!(error.detail.contains("UTF-8"), "{}", error.detail);
            }
            _ => panic!("invalid UTF-8 should classify as an error"),
        }
    }
}
