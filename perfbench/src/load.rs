//! The load generator: one thread driving pipelined TCP connections in
//! an open loop (fixed rate, latency timed from each request's scheduled
//! send) or a closed loop (a fixed window of requests in flight per
//! connection).
//!
//! Each response is paired with its request by the id it echoes: the
//! oldest request in flight on the connection that carries that id. Ok
//! responses on a connection come back in admission order, but the
//! server answers an admission refusal at once, so a refusal can overtake
//! responses to requests admitted before it.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::time::{Duration, Instant};

use crate::calib;
use crate::feed::Feed;
use crate::sys;

/// How a request was answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Answer {
    Ok,
    Error,
    QueueFull,
}

/// Classifies a response line by its `ok` flag and error kind.
pub fn classify(line: &[u8]) -> Answer {
    let text = std::str::from_utf8(line).unwrap_or("");
    if text.contains("\"ok\":true") && !text.contains("\"error\":") {
        Answer::Ok
    } else if text.contains("\"kind\":\"queue_full\"") {
        Answer::QueueFull
    } else {
        Answer::Error
    }
}

/// The id a response echoes; every response line starts `{"id":"<id>"`
/// unless the request had no readable id.
fn echoed_id(line: &[u8]) -> Option<&[u8]> {
    let rest = line.strip_prefix(b"{\"id\":\"")?;
    let end = rest.iter().position(|&b| b == b'"')?;
    Some(&rest[..end])
}

struct Flight {
    tag: u64,
    id: String,
    /// Scheduled send (open loop) or actual send (closed loop).
    since: Instant,
}

struct Conn {
    stream: TcpStream,
    fd: RawFd,
    out: Vec<u8>,
    out_pos: usize,
    partial: Vec<u8>,
    pending: VecDeque<Flight>,
}

impl Conn {
    fn flush(&mut self) {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => panic!("server closed a load connection"),
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => panic!("load connection write failed: {e}"),
            }
        }
        self.out.clear();
        self.out_pos = 0;
    }

    /// Pairs one response line with its request in flight and hands it
    /// to `feed` and `on`; returns false for a line that answers no
    /// request in flight on this connection.
    fn deliver(
        &mut self,
        line: &[u8],
        received: Instant,
        feed: &mut Feed,
        on: &mut dyn FnMut(Instant, Instant, &[u8]),
    ) -> bool {
        let Some(at) =
            echoed_id(line).and_then(|id| self.pending.iter().position(|f| f.id.as_bytes() == id))
        else {
            return false;
        };
        let flight = self.pending.remove(at).expect("position is in range");
        feed.answer(flight.tag, line);
        on(flight.since, received, line);
        true
    }
}

/// One slice of a phase.
#[derive(Debug, Default)]
pub struct Slice {
    /// Open loop: latencies in µs of the requests scheduled in this
    /// slice. The closed loop keeps no per-request samples, so that the
    /// benchmark's own memory does not grow with the program's
    /// throughput and move `rss_peak_mb`.
    pub latency_us: Vec<f64>,
    /// Responses received in this slice.
    pub ops: usize,
    pub wall: Duration,
    /// Process CPU time over the slice (closed loop).
    pub cpu: Duration,
    /// The load generator thread's own share of `cpu`.
    pub gen_cpu: Duration,
    /// Hypervisor steal over the slice (all CPUs).
    pub steal: Duration,
}

/// Indices of the half of `steal_shares` (rounded up) with the least
/// steal, earlier ones first among equals. A stretch in which the
/// hypervisor ran other guests measures the neighbours, not the program,
/// so timed figures are medians over this half.
pub fn calmest_half(steal_shares: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..steal_shares.len()).collect();
    order.sort_by(|&a, &b| steal_shares[a].total_cmp(&steal_shares[b]).then(a.cmp(&b)));
    order.truncate(order.len().div_ceil(2));
    order
}

/// What one phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Open loop: per-request latency in µs from the scheduled send, in
    /// response order.
    pub latency_us: Vec<f64>,
    /// Open loop: how late each send left, in µs.
    pub lateness_us: Vec<f64>,
    pub sent: usize,
    pub ok: usize,
    pub errors: usize,
    pub queue_full: usize,
    pub unanswered: usize,
    pub slices: Vec<Slice>,
    /// Closed loop with calibration: the host factor (see [`calib`])
    /// before the first slice and after each.
    pub calib: Vec<f64>,
}

impl Phase {
    pub fn failed(&self) -> usize {
        self.errors + self.queue_full + self.unanswered
    }

    pub fn answered(&self) -> usize {
        self.ok + self.errors + self.queue_full
    }

    /// Responses per second over the slices.
    pub fn throughput(&self) -> f64 {
        let ops: usize = self.slices.iter().map(|s| s.ops).sum();
        let wall: f64 = self.slices.iter().map(|s| s.wall.as_secs_f64()).sum();
        ops as f64 / wall.max(f64::MIN_POSITIVE)
    }

    fn count(&mut self, answer: Answer) {
        match answer {
            Answer::Ok => self.ok += 1,
            Answer::Error => self.errors += 1,
            Answer::QueueFull => self.queue_full += 1,
        }
    }
}

/// Steal readings at the equal time slices of an open-loop phase.
struct Marks {
    start: Instant,
    slice: Duration,
    count: usize,
    steal: Vec<Duration>,
}

impl Marks {
    fn new(start: Instant, duration: Duration, count: usize) -> Marks {
        let count = count.max(1);
        Marks { start, slice: duration / count as u32, count, steal: vec![sys::steal_time()] }
    }

    /// Takes the readings of every boundary `now` has passed.
    fn update(&mut self, now: Instant) {
        while self.steal.len() <= self.count && now >= self.next() {
            self.steal.push(sys::steal_time());
        }
    }

    fn next(&self) -> Instant {
        self.start + self.slice * self.steal.len() as u32
    }

    fn index(&self, at: Instant) -> Option<usize> {
        let offset = at.checked_duration_since(self.start)?;
        let index = (offset.as_nanos() / self.slice.as_nanos().max(1)) as usize;
        (index < self.count).then_some(index)
    }

    fn finish(mut self, slices: &mut [Slice]) {
        while self.steal.len() <= self.count {
            self.steal.push(sys::steal_time());
        }
        for (k, slice) in slices.iter_mut().enumerate() {
            slice.wall = self.slice;
            slice.steal = self.steal[k + 1] - self.steal[k];
        }
    }
}

/// A set of connections to one server, driven from the calling thread.
pub struct Client {
    conns: Vec<Conn>,
    scratch: Vec<u8>,
    ready: Vec<sys::Ready>,
    /// Response lines that answered no request in flight (at most five).
    pub unmatched: Vec<String>,
    pub unmatched_count: usize,
}

/// How long a phase waits for stragglers after its window closes.
const GRACE: Duration = Duration::from_secs(10);

impl Client {
    pub fn connect(addr: SocketAddr, connections: usize) -> Client {
        sys::tight_timer_slack();
        let conns = (0..connections)
            .map(|_| {
                let stream = TcpStream::connect(addr).expect("connect to the server");
                stream.set_nodelay(true).expect("set TCP_NODELAY");
                stream.set_nonblocking(true).expect("set nonblocking");
                let fd = stream.as_raw_fd();
                Conn {
                    stream,
                    fd,
                    out: Vec::new(),
                    out_pos: 0,
                    partial: Vec::new(),
                    pending: VecDeque::new(),
                }
            })
            .collect();
        Client {
            conns,
            scratch: vec![0; 256 * 1024],
            ready: Vec::new(),
            unmatched: Vec::new(),
            unmatched_count: 0,
        }
    }

    fn in_flight(&self) -> usize {
        self.conns.iter().map(|c| c.pending.len()).sum()
    }

    fn send(&mut self, conn: usize, feed: &mut Feed, since: Instant) {
        let c = &mut self.conns[conn];
        let (tag, id) = feed.next(conn, &mut c.out);
        c.pending.push_back(Flight { tag, id, since });
    }

    fn flush_all(&mut self) {
        for c in &mut self.conns {
            c.flush();
        }
    }

    /// Waits up to `timeout` for readiness, flushes what became writable,
    /// and hands every complete response to `on` as
    /// `(since, received, line)`; returns the connection of each.
    fn pump(
        &mut self,
        timeout: Option<Duration>,
        feed: &mut Feed,
        on: &mut dyn FnMut(Instant, Instant, &[u8]),
    ) -> Vec<usize> {
        let fds: Vec<(RawFd, bool)> =
            self.conns.iter().map(|c| (c.fd, c.out_pos < c.out.len())).collect();
        let mut ready = std::mem::take(&mut self.ready);
        sys::wait(&fds, timeout, &mut ready);
        let mut answered_on = Vec::new();
        for (index, r) in ready.iter().enumerate() {
            if r.writable {
                self.conns[index].flush();
            }
            if !r.readable {
                continue;
            }
            loop {
                let c = &mut self.conns[index];
                match c.stream.read(&mut self.scratch) {
                    Ok(0) => panic!("server closed load connection {index}"),
                    Ok(n) => {
                        let received = Instant::now();
                        let mut chunk = &self.scratch[..n];
                        while let Some(nl) = chunk.iter().position(|&b| b == b'\n') {
                            let joined;
                            let line: &[u8] = if c.partial.is_empty() {
                                &chunk[..nl]
                            } else {
                                c.partial.extend_from_slice(&chunk[..nl]);
                                joined = std::mem::take(&mut c.partial);
                                &joined
                            };
                            if c.deliver(line, received, feed, on) {
                                answered_on.push(index);
                            } else {
                                self.unmatched_count += 1;
                                if self.unmatched.len() < 5 {
                                    self.unmatched.push(String::from_utf8_lossy(line).into_owned());
                                }
                            }
                            chunk = &chunk[nl + 1..];
                        }
                        c.partial.extend_from_slice(chunk);
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => panic!("load connection read failed: {e}"),
                }
            }
        }
        self.ready = ready;
        answered_on
    }

    /// Sends `count[c]` requests on each connection `c` at once and waits
    /// for every response (set-up work: creates and warm-up passes).
    /// Returns how many were not answered ok.
    pub fn exchange(&mut self, feed: &mut Feed, count: &[usize]) -> usize {
        let now = Instant::now();
        for (conn, &n) in count.iter().enumerate() {
            for _ in 0..n {
                self.send(conn, feed, now);
            }
        }
        self.flush_all();
        let deadline = now + GRACE * 3;
        let mut bad = 0;
        while self.in_flight() > 0 {
            let left = deadline.checked_duration_since(Instant::now()).expect("set-up timed out");
            self.pump(Some(left), feed, &mut |_, _, line| {
                if classify(line) != Answer::Ok {
                    bad += 1;
                }
            });
        }
        bad
    }

    /// Open loop: request `i` is due at `start + i / rate`, on connection
    /// `i mod connections`, whatever the responses so far. The duration is
    /// cut into `slices` equal slices; a request's latency belongs to the
    /// slice it was scheduled in.
    pub fn open_loop(
        &mut self,
        feed: &mut Feed,
        rate: f64,
        duration: Duration,
        slices: usize,
    ) -> Phase {
        let total = (rate * duration.as_secs_f64()).round() as usize;
        let interval = Duration::from_secs_f64(1.0 / rate);
        let start = Instant::now() + Duration::from_millis(1);
        let mut marks = Marks::new(start, duration, slices);
        let mut phase = Phase {
            latency_us: Vec::with_capacity(total),
            lateness_us: Vec::with_capacity(total),
            slices: (0..marks.count).map(|_| Slice::default()).collect(),
            ..Phase::default()
        };
        let due = |i: usize| start + interval.mul_f64(i as f64);
        let end = start + duration;
        let deadline = end + GRACE;
        let mut next = 0usize;
        loop {
            let now = Instant::now();
            marks.update(now);
            let mut sent_any = false;
            while next < total && due(next) <= now {
                let conn = next % self.conns.len();
                self.send(conn, feed, due(next));
                phase.lateness_us.push((now - due(next)).as_secs_f64() * 1e6);
                next += 1;
                sent_any = true;
            }
            if sent_any {
                self.flush_all();
            }
            let idle = self.in_flight() == 0;
            if (next == total && idle && now >= end) || now >= deadline {
                break;
            }
            let wake = if next < total {
                due(next)
            } else if idle {
                end
            } else {
                deadline
            };
            let wake = if marks.steal.len() <= marks.count { wake.min(marks.next()) } else { wake };
            let timeout = wake.saturating_duration_since(Instant::now());
            let mut answers = Vec::new();
            self.pump(Some(timeout), feed, &mut |since, received, line| {
                let us = (received - since).as_secs_f64() * 1e6;
                answers.push((marks.index(since), marks.index(received), us, classify(line)));
            });
            for (scheduled_in, received_in, us, answer) in answers {
                phase.latency_us.push(us);
                if let Some(k) = scheduled_in {
                    phase.slices[k].latency_us.push(us);
                }
                if let Some(k) = received_in {
                    phase.slices[k].ops += 1;
                }
                phase.count(answer);
            }
        }
        marks.finish(&mut phase.slices);
        phase.sent = next;
        phase.unanswered = self.in_flight();
        phase
    }

    /// Closed loop: `window` requests in flight per connection, each
    /// response answered by the next request on its connection, for
    /// `slices` slices of equal length. With `calibrate`, the calibration
    /// kernel runs before the first slice and after each, while the
    /// server is idle.
    pub fn closed_loop(
        &mut self,
        feed: &mut Feed,
        window: usize,
        duration: Duration,
        slices: usize,
        calibrate: bool,
    ) -> Phase {
        let count = slices.max(1);
        let length = duration / count as u32;
        let mut phase = Phase::default();
        if calibrate {
            phase.calib.push(calib::measure());
        }
        for _ in 0..count {
            let slice = self.closed_slice(feed, window, length, &mut phase);
            phase.slices.push(slice);
            if calibrate {
                phase.calib.push(calib::measure());
            }
        }
        phase.unanswered = self.in_flight();
        phase
    }

    /// One closed-loop slice: fills the window, keeps it full until
    /// `length` has passed, then drains, so that every request the slice
    /// sent is answered inside it and its CPU time is all its own.
    fn closed_slice(
        &mut self,
        feed: &mut Feed,
        window: usize,
        length: Duration,
        phase: &mut Phase,
    ) -> Slice {
        let (cpu, gen_cpu, steal) = (sys::cpu_time(), sys::thread_cpu_time(), sys::steal_time());
        let start = Instant::now();
        for conn in 0..self.conns.len() {
            for _ in 0..window {
                self.send(conn, feed, start);
                phase.sent += 1;
            }
        }
        self.flush_all();
        let end = start + length;
        let deadline = end + GRACE;
        let mut slice = Slice::default();
        loop {
            let now = Instant::now();
            if self.in_flight() == 0 || now >= deadline {
                break;
            }
            let wake = if now < end { end } else { deadline };
            let answered_on =
                self.pump(Some(wake - now), feed, &mut |_, _, line| phase.count(classify(line)));
            slice.ops += answered_on.len();
            let now = Instant::now();
            if now < end {
                for conn in answered_on {
                    self.send(conn, feed, now);
                    phase.sent += 1;
                }
                self.flush_all();
            }
        }
        slice.wall = start.elapsed();
        slice.cpu = sys::cpu_time() - cpu;
        slice.gen_cpu = sys::thread_cpu_time() - gen_cpu;
        slice.steal = sys::steal_time() - steal;
        slice
    }
}
