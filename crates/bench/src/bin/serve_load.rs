//! Load generator for the `distfl-serve` solver service.
//!
//! Starts an in-process [`distfl_serve::Server`] and measures it three
//! ways, producing one JSON document:
//!
//! - **Open-loop throughput/latency curve** — a single-threaded
//!   multiplexed client (reusing the serve crate's public
//!   [`distfl_serve::reactor::Poller`]) holds ~1000 concurrent
//!   connections and offers requests at a fixed schedule, sweeping the
//!   offered rate. Latency is measured from each request's *scheduled*
//!   send time (no coordinated omission: a client that falls behind
//!   still charges the queueing delay to the server). Each sweep point
//!   records offered vs achieved rps, queue_full rejections, and
//!   p50/p90/p99 latency. The peak achieved rate is the headline number.
//! - **Heavy closed-loop mix** — the BENCH_5-comparable run: 64 blocking
//!   clients × 6 solver-bound requests cycling all four wire solvers
//!   over inline and OR-Library payloads. Reports throughput, latency
//!   percentiles, the **true mean scheduler batch size**
//!   (`serve.requests / serve.batches` — the configured cap is reported
//!   separately as `max_batch`), and pipelining/byte counters.
//! - **Determinism replay** — the same mix against a restarted server, a
//!   different worker count, and different shard counts; every response
//!   line must be byte-identical.
//!
//! Usage: `serve_load [--smoke] [--out PATH]` — a full run writes the
//! document to `--out` (default `BENCH_6.json`). `--smoke` shrinks
//! everything for CI while still exercising the pipelined framing path
//! (asserted via the `serve.pipelined_requests` counter); it writes only
//! to an explicit `--out` and otherwise prints the document on stdout, so
//! a smoke run never overwrites the committed snapshot. Progress goes to
//! stderr.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use distfl_instance::generators::{InstanceGenerator, UniformRandom};
use distfl_serve::frame::{Framed, LineFramer};
use distfl_serve::reactor::{self, Event, Interest, Poller, ReactorKind};
use distfl_serve::{ServeConfig, Server};

// ---------------------------------------------------------------------------
// Open-loop multiplexed client
// ---------------------------------------------------------------------------

/// One sweep point: offer `rate` requests/second for `duration`.
#[derive(Clone, Copy)]
struct SweepPoint {
    rate: f64,
    duration: Duration,
}

/// What one sweep point measured.
struct PointResult {
    offered_rps: f64,
    achieved_rps: f64,
    ok: usize,
    rejected: usize,
    unanswered: usize,
    /// Sorted scheduled-send→response latencies (ns) of ok responses.
    latencies: Vec<u64>,
}

/// One multiplexed load connection.
struct LoadConn {
    stream: TcpStream,
    framer: LineFramer,
    out: Vec<u8>,
    out_pos: usize,
    interest: Interest,
}

impl LoadConn {
    /// Writes pending outbound bytes until the socket pushes back.
    /// Returns false if the connection failed.
    fn flush(&mut self) -> bool {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return false,
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
        true
    }
}

/// The fixed request line for open-loop request `i` (id = the index, so
/// a response can be matched to its scheduled send time).
fn open_loop_line(i: usize) -> String {
    format!(
        r#"{{"id":"{i}","solver":"greedy","instance":{{"opening":[4.0,3.0],"links":[[0,1.0,1,2.0],[1,0.5]]}}}}"#
    )
}

/// Runs one open-loop sweep point against `addr` from `connections`
/// multiplexed sockets. Requests are assigned round-robin and their send
/// times follow a uniform schedule at `point.rate`.
fn run_open_loop_point(
    addr: std::net::SocketAddr,
    connections: usize,
    point: SweepPoint,
) -> PointResult {
    let total = (point.rate * point.duration.as_secs_f64()).round().max(1.0) as usize;
    let interval = Duration::from_secs_f64(1.0 / point.rate);

    let mut poller = Poller::new(ReactorKind::Auto).expect("client poller");
    let mut conns: Vec<LoadConn> = (0..connections)
        .map(|token| {
            let stream = TcpStream::connect(addr).expect("connect load conn");
            stream.set_nodelay(true).expect("nodelay");
            stream.set_nonblocking(true).expect("nonblocking");
            poller
                .register(reactor::source_id(&stream), token as u64, Interest::READ)
                .expect("register load conn");
            LoadConn {
                stream,
                framer: LineFramer::new(1 << 20),
                out: Vec::new(),
                out_pos: 0,
                interest: Interest::READ,
            }
        })
        .collect();

    let start = Instant::now();
    let deadline = start + point.duration * 4 + Duration::from_secs(10);
    let mut latencies: Vec<u64> = Vec::with_capacity(total);
    let mut rejected = 0usize;
    let mut answered = 0usize;
    let mut next_send = 0usize;
    let mut events: Vec<Event> = Vec::new();
    let mut scratch = vec![0u8; 64 * 1024];
    let mut dirty: Vec<usize> = Vec::new();

    while answered < total && Instant::now() < deadline {
        // Enqueue every request whose scheduled time has come.
        let now = Instant::now();
        while next_send < total && start + interval.mul_f64(next_send as f64) <= now {
            let conn = &mut conns[next_send % connections];
            if conn.out.is_empty() {
                dirty.push(next_send % connections);
            }
            conn.out.extend_from_slice(open_loop_line(next_send).as_bytes());
            conn.out.push(b'\n');
            next_send += 1;
        }
        // Flush the connections touched this tick; re-arm write interest
        // on the ones the kernel pushed back on.
        for &index in &dirty {
            let conn = &mut conns[index];
            assert!(conn.flush(), "load connection {index} failed");
            let want = Interest { read: true, write: !conn.out.is_empty() };
            if want != conn.interest {
                conn.interest = want;
                poller
                    .set_interest(reactor::source_id(&conn.stream), index as u64, want)
                    .expect("set interest");
            }
        }
        dirty.clear();

        let timeout = if next_send < total {
            let due = start + interval.mul_f64(next_send as f64);
            due.saturating_duration_since(Instant::now())
        } else {
            Duration::from_millis(5)
        };
        poller.wait(&mut events, Some(timeout)).expect("client poll");
        for &event in &events {
            let index = event.token as usize;
            if index >= conns.len() {
                continue;
            }
            if event.writable {
                dirty.push(index);
            }
            if !event.readable {
                continue;
            }
            loop {
                let conn = &mut conns[index];
                match conn.stream.read(&mut scratch) {
                    Ok(0) => panic!("server closed load connection {index} mid-run"),
                    Ok(n) => {
                        let received = Instant::now();
                        let chunk = &scratch[..n];
                        conns[index].framer.feed(chunk, &mut |framed| {
                            let Framed::Line(line) = framed else {
                                panic!("oversized response line")
                            };
                            let text = std::str::from_utf8(line).expect("UTF-8 response");
                            let id: usize =
                                extract_id(text).parse().expect("open-loop ids are indices");
                            answered += 1;
                            if text.contains(r#""ok":true"#) {
                                let scheduled = start + interval.mul_f64(id as f64);
                                latencies
                                    .push(received.saturating_duration_since(scheduled).as_nanos()
                                        as u64);
                            } else {
                                assert!(
                                    text.contains(r#""kind":"queue_full""#),
                                    "unexpected failure: {text}"
                                );
                                rejected += 1;
                            }
                        });
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => panic!("load connection {index} read error: {e}"),
                }
            }
        }
    }

    let wall = start.elapsed().as_secs_f64();
    latencies.sort_unstable();
    PointResult {
        offered_rps: point.rate,
        achieved_rps: latencies.len() as f64 / wall,
        ok: latencies.len(),
        rejected,
        unanswered: total - answered,
        latencies,
    }
}

// ---------------------------------------------------------------------------
// Heavy closed-loop mix (BENCH_5-comparable)
// ---------------------------------------------------------------------------

/// The shape of one closed-loop run.
#[derive(Clone)]
struct Plan {
    clients: usize,
    per_client: usize,
    workers: usize,
    max_batch: usize,
    shards: usize,
}

impl Plan {
    fn heavy(smoke: bool) -> Plan {
        if smoke {
            Plan { clients: 8, per_client: 3, workers: 2, max_batch: 8, shards: 0 }
        } else {
            Plan { clients: 64, per_client: 6, workers: 4, max_batch: 16, shards: 0 }
        }
    }

    fn requests(&self) -> usize {
        self.clients * self.per_client
    }
}

/// The deterministic heavy request line for client `ci`, request `ri`:
/// cycles all four wire solvers over inline and OR-Library payloads.
fn heavy_request_line(ci: usize, ri: usize) -> String {
    let solver = ["greedy", "local-search", "jv", "paydual"][(ci + ri) % 4];
    let seed = (ci * 31 + ri) as u64;
    let mut w = distfl_obs::JsonWriter::object();
    w.key("id").string(&format!("c{ci}-r{ri}"));
    w.key("solver").string(solver);
    w.key("seed").number_u64(seed);
    if (ci + ri).is_multiple_of(2) {
        let shift = (ci % 5) as f64 * 0.25;
        w.key("instance").begin_object();
        w.key("opening").begin_array().number(4.0 + shift).number(3.0).end_array();
        w.key("links").begin_array();
        w.begin_array().number_u64(0).number(1.0 + shift).number_u64(1).number(2.0).end_array();
        w.begin_array().number_u64(1).number(0.5).end_array();
        w.end_array();
        w.end_object();
    } else {
        let facilities = 4 + ri % 3;
        let clients = 10 + (ci % 4) * 3;
        let inst = UniformRandom::new(facilities, clients)
            .expect("mix instance shape")
            .generate(seed)
            .expect("mix instance");
        w.key("orlib").string(&distfl_instance::orlib::to_string(&inst).expect("orlib encode"));
    }
    w.finish()
}

struct RunResult {
    /// Sorted round-trip times in nanoseconds.
    latencies: Vec<u64>,
    responses: BTreeMap<String, String>,
    wall_secs: f64,
    /// `serve.requests / serve.batches` — the batch size the scheduler
    /// actually achieved (NOT the configured cap).
    mean_batch: f64,
}

/// One closed-loop run: blocking clients released together by a barrier
/// so admissions burst and the schedulers actually batch.
fn run_closed_loop(plan: &Plan, mix: &[Vec<String>]) -> RunResult {
    distfl_obs::metrics_reset();
    let config = ServeConfig {
        queue_capacity: 256,
        max_batch: plan.max_batch,
        workers: Some(plan.workers),
        shards: plan.shards,
        ..ServeConfig::default()
    };
    let server = Server::start("127.0.0.1:0", config).expect("bind load server");
    let addr = server.local_addr();

    type Collected = (Vec<u64>, BTreeMap<String, String>);
    let barrier = Arc::new(Barrier::new(mix.len()));
    let collected: Arc<Mutex<Collected>> = Arc::new(Mutex::new((Vec::new(), BTreeMap::new())));
    let started = Instant::now();
    std::thread::scope(|scope| {
        for lines in mix {
            let barrier = Arc::clone(&barrier);
            let collected = Arc::clone(&collected);
            scope.spawn(move || {
                let stream = TcpStream::connect(addr).expect("connect load client");
                stream.set_nodelay(true).expect("set nodelay");
                let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
                let mut writer = stream;
                let mut latencies = Vec::with_capacity(lines.len());
                let mut responses = BTreeMap::new();
                barrier.wait();
                for line in lines {
                    let sent = Instant::now();
                    writeln!(writer, "{line}").expect("send request");
                    let mut response = String::new();
                    let n = reader.read_line(&mut response).expect("read response");
                    assert!(n > 0, "server closed mid-run");
                    latencies.push(sent.elapsed().as_nanos() as u64);
                    let response = response.trim_end().to_owned();
                    let id = extract_id(&response).to_owned();
                    assert!(response.contains(r#""ok":true"#), "failed response: {response}");
                    responses.insert(id, response);
                }
                let mut guard = collected.lock().expect("collect lock");
                guard.0.extend(latencies);
                guard.1.extend(responses);
            });
        }
    });
    let wall_secs = started.elapsed().as_secs_f64();
    server.shutdown();

    let requests = distfl_obs::counter("serve.requests").get();
    let batches = distfl_obs::counter("serve.batches").get();
    let mean_batch = if batches > 0 { requests as f64 / batches as f64 } else { 0.0 };
    let (mut latencies, responses) =
        Arc::try_unwrap(collected).expect("collectors done").into_inner().expect("collect lock");
    latencies.sort_unstable();
    RunResult { latencies, responses, wall_secs, mean_batch }
}

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

/// The `"id"` member of a response line (responses put it first).
fn extract_id(response: &str) -> &str {
    let rest = response.strip_prefix(r#"{"id":""#).expect("response starts with id");
    &rest[..rest.find('"').expect("id is terminated")]
}

/// The `q`-th percentile (0–100) of sorted `values`, nearest-rank.
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

fn us(ns: u64) -> f64 {
    (ns as f64 / 100.0).round() / 10.0
}

fn main() {
    let mut smoke = false;
    let mut out = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => out = Some(args.next().expect("--out needs a path")),
            other => {
                eprintln!("usage: serve_load [--smoke] [--out PATH] (got {other:?})");
                std::process::exit(2);
            }
        }
    }
    // Metrics feed the batching/pipelining numbers; spans stay cheap and
    // in-memory.
    distfl_obs::set_enabled(true);

    // --- Open-loop sweep -------------------------------------------------
    let connections = if smoke { 32 } else { 1000 };
    let sweep: Vec<SweepPoint> = if smoke {
        vec![SweepPoint { rate: 2_000.0, duration: Duration::from_millis(300) }]
    } else {
        [4_000.0, 8_000.0, 16_000.0, 24_000.0, 32_000.0, 48_000.0]
            .into_iter()
            .map(|rate| SweepPoint { rate, duration: Duration::from_secs(2) })
            .collect()
    };
    // One shard and an inline pool: on a single-core host extra threads
    // only add context switches to the hot path.
    distfl_obs::metrics_reset();
    let curve_config = ServeConfig {
        queue_capacity: 4096,
        max_batch: 64,
        workers: Some(0),
        shards: 1,
        ..ServeConfig::default()
    };
    let curve_server = Server::start("127.0.0.1:0", curve_config).expect("bind curve server");
    let curve_addr = curve_server.local_addr();
    eprintln!("serve_load: open-loop sweep, {connections} connections");
    let mut curve: Vec<PointResult> = Vec::new();
    for point in &sweep {
        let result = run_open_loop_point(curve_addr, connections, *point);
        eprintln!(
            "  offered {:>6.0} rps -> achieved {:>6.0} rps, ok {} rejected {} unanswered {}, \
             p50 {:.0}us p99 {:.0}us",
            result.offered_rps,
            result.achieved_rps,
            result.ok,
            result.rejected,
            result.unanswered,
            us(percentile(&result.latencies, 50.0)),
            us(percentile(&result.latencies, 99.0)),
        );
        curve.push(result);
    }
    // Deterministic pipelined burst: 50 requests in one write() syscall,
    // so the framing/group-admission path is exercised even when the
    // sweep's rate never makes sends coalesce.
    {
        let mut stream = TcpStream::connect(curve_addr).expect("connect burst conn");
        stream.set_nodelay(true).expect("nodelay");
        let mut burst = String::new();
        for i in 0..50 {
            burst.push_str(&open_loop_line(1_000_000 + i));
            burst.push('\n');
        }
        stream.write_all(burst.as_bytes()).expect("write burst");
        let mut reader = BufReader::new(stream);
        for _ in 0..50 {
            let mut line = String::new();
            assert!(reader.read_line(&mut line).expect("read burst response") > 0);
            assert!(line.contains(r#""ok":true"#), "{line}");
        }
    }
    let pipelined = distfl_obs::counter("serve.pipelined_requests").get();
    let wakeups = distfl_obs::counter("serve.reactor_wakeups").get();
    let bytes_read = distfl_obs::counter("serve.bytes_read").get();
    let bytes_written = distfl_obs::counter("serve.bytes_written").get();
    curve_server.shutdown();
    assert!(pipelined > 0, "the pipelined framing path must be exercised");
    let peak = curve.iter().map(|p| p.achieved_rps).fold(0.0f64, f64::max);

    // --- Heavy closed-loop mix -------------------------------------------
    let plan = Plan::heavy(smoke);
    let mix: Vec<Vec<String>> = (0..plan.clients)
        .map(|ci| (0..plan.per_client).map(|ri| heavy_request_line(ci, ri)).collect())
        .collect();
    eprintln!(
        "serve_load: heavy mix, {} clients x {} requests, {} workers, max_batch {}",
        plan.clients, plan.per_client, plan.workers, plan.max_batch
    );
    let heavy = run_closed_loop(&plan, &mix);
    assert_eq!(heavy.responses.len(), plan.requests(), "every request answered once");
    let heavy_rps = plan.requests() as f64 / heavy.wall_secs;

    // --- Determinism replays ----------------------------------------------
    let restarted = run_closed_loop(&plan, &mix);
    let resized = run_closed_loop(&Plan { workers: plan.workers / 2, ..plan.clone() }, &mix);
    let one_shard = run_closed_loop(&Plan { shards: 1, ..plan.clone() }, &mix);
    let four_shards = run_closed_loop(&Plan { shards: 4, ..plan.clone() }, &mix);
    assert_eq!(heavy.responses, restarted.responses, "responses changed across a restart");
    assert_eq!(heavy.responses, resized.responses, "responses changed with the worker count");
    assert_eq!(heavy.responses, one_shard.responses, "responses changed with 1 shard");
    assert_eq!(heavy.responses, four_shards.responses, "responses changed with 4 shards");

    // --- Report -----------------------------------------------------------
    let mut w = distfl_obs::JsonWriter::object();
    w.key("bench").string("serve_load");
    w.key("mode").string(if smoke { "smoke" } else { "full" });
    w.key("open_loop").begin_object();
    w.key("connections").number_u64(connections as u64);
    w.key("point_duration_secs").number(sweep[0].duration.as_secs_f64());
    w.key("peak_achieved_rps").number((peak * 10.0).round() / 10.0);
    w.key("pipelined_requests").number_u64(pipelined);
    w.key("reactor_wakeups").number_u64(wakeups);
    w.key("bytes_read").number_u64(bytes_read);
    w.key("bytes_written").number_u64(bytes_written);
    w.key("curve").begin_array();
    for point in &curve {
        w.begin_object();
        w.key("offered_rps").number(point.offered_rps);
        w.key("achieved_rps").number((point.achieved_rps * 10.0).round() / 10.0);
        w.key("ok").number_u64(point.ok as u64);
        w.key("rejected").number_u64(point.rejected as u64);
        w.key("unanswered").number_u64(point.unanswered as u64);
        w.key("latency_us").begin_object();
        w.key("p50").number(us(percentile(&point.latencies, 50.0)));
        w.key("p90").number(us(percentile(&point.latencies, 90.0)));
        w.key("p99").number(us(percentile(&point.latencies, 99.0)));
        w.end_object();
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.key("heavy_mix").begin_object();
    w.key("clients").number_u64(plan.clients as u64);
    w.key("requests_per_client").number_u64(plan.per_client as u64);
    w.key("workers").number_u64(plan.workers as u64);
    w.key("requests").number_u64(plan.requests() as u64);
    w.key("wall_secs").number((heavy.wall_secs * 1e6).round() / 1e6);
    w.key("throughput_rps").number((heavy_rps * 10.0).round() / 10.0);
    w.key("latency_us").begin_object();
    w.key("p50").number(us(percentile(&heavy.latencies, 50.0)));
    w.key("p90").number(us(percentile(&heavy.latencies, 90.0)));
    w.key("p99").number(us(percentile(&heavy.latencies, 99.0)));
    w.end_object();
    w.key("mean_batch_size").number((heavy.mean_batch * 100.0).round() / 100.0);
    w.key("max_batch").number_u64(plan.max_batch as u64);
    w.end_object();
    w.key("deterministic").begin_object();
    w.key("across_restart").boolean(true);
    w.key("across_worker_counts").boolean(true);
    w.key("across_shard_counts").boolean(true);
    w.end_object();
    let doc = w.finish();
    distfl_obs::validate_json(&doc).expect("bench document is valid JSON");
    let out = out.or_else(|| (!smoke).then(|| "BENCH_6.json".to_owned()));
    match &out {
        Some(path) => std::fs::write(path, format!("{doc}\n")).expect("write bench document"),
        None => println!("{doc}"),
    }

    eprintln!(
        "  open-loop peak {:.0} rps; heavy mix {:.0} rps, mean batch {:.2} (cap {})",
        peak, heavy_rps, heavy.mean_batch, plan.max_batch
    );
    eprintln!("  responses byte-identical across restart, worker, and shard counts");
    if let Some(path) = out {
        eprintln!("  wrote {path}");
    }
}
