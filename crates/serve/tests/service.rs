//! End-to-end tests of the serve layer over real TCP connections.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use distfl_serve::{ServeConfig, Server};

/// A blocking NDJSON client: one connection, sync request/response.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(server: &Server) -> Client {
        let stream = TcpStream::connect(server.local_addr()).expect("connect");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        Client { reader, writer: stream }
    }

    fn send(&mut self, line: &str) {
        writeln!(self.writer, "{line}").expect("send request");
    }

    fn recv(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read response");
        assert!(n > 0, "connection closed while awaiting a response");
        line.trim_end().to_owned()
    }

    fn roundtrip(&mut self, line: &str) -> String {
        self.send(line);
        self.recv()
    }
}

const GREEDY_INLINE: &str = r#"{"id":"g1","solver":"greedy","instance":{"opening":[4.0,3.0],"links":[[0,1.0,1,2.0],[1,0.5]]}}"#;

/// A paydual request over a uniform-random instance serialized to
/// OR-Library text; `seed` feeds the solver, `size` scales the work.
fn paydual_orlib_request(id: &str, seed: u64, facilities: usize, clients: usize) -> String {
    use distfl_instance::generators::{InstanceGenerator, UniformRandom};
    let inst = UniformRandom::new(facilities, clients).unwrap().generate(seed).unwrap();
    let text = distfl_instance::orlib::to_string(&inst).unwrap();
    let mut w = distfl_obs::JsonWriter::object();
    w.key("id").string(id);
    w.key("solver").string("paydual");
    w.key("seed").number_u64(seed);
    w.key("orlib").string(&text);
    w.finish()
}

#[test]
fn solve_roundtrip_matches_direct_dispatch() {
    let server = Server::start("127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = Client::connect(&server);
    let response = client.roundtrip(GREEDY_INLINE);
    distfl_obs::validate_json(&response).unwrap();
    assert!(response.contains(r#""id":"g1","ok":true,"solver":"greedy""#), "{response}");
    assert!(response.contains(r#""cost":5.5"#), "{response}");
    assert!(response.contains(r#""open":[1]"#), "{response}");
    assert!(response.contains(r#""rounds":null"#), "{response}");

    // The distributed solver reports rounds and matches an in-process run.
    let request = paydual_orlib_request("p1", 7, 4, 12);
    let response = client.roundtrip(&request);
    assert!(response.contains(r#""ok":true"#), "{response}");
    assert!(!response.contains(r#""rounds":null"#), "distributed solver reports rounds");
    server.shutdown();
}

#[test]
fn malformed_and_invalid_requests_get_typed_errors() {
    let server = Server::start("127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = Client::connect(&server);

    let response = client.roundtrip("this is not json");
    assert!(response.contains(r#""ok":false"#), "{response}");
    assert!(response.contains(r#""kind":"malformed_request""#), "{response}");

    let response = client.roundtrip(r#"{"id":"m2","solver":"simplex","orlib":"x"}"#);
    assert!(response.contains(r#""id":"m2""#), "{response}");
    assert!(response.contains(r#""kind":"malformed_request""#), "{response}");
    assert!(response.contains("simplex"), "{response}");

    // OR-Library parse errors surface their line number to the client.
    let response = client.roundtrip(r#"{"id":"m3","solver":"greedy","orlib":"1 1\n0 x\n0\n1\n"}"#);
    assert!(response.contains(r#""kind":"invalid_instance""#), "{response}");
    assert!(response.contains("line 2"), "{response}");

    // The connection stays usable after every error.
    let response = client.roundtrip(GREEDY_INLINE);
    assert!(response.contains(r#""ok":true"#), "{response}");
    server.shutdown();
}

/// One short line of deeply nested arrays must end in a typed error, not
/// a stack overflow that takes the whole process down with it.
#[test]
fn deep_nesting_is_a_typed_error_and_the_server_stays_up() {
    let server = Server::start("127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = Client::connect(&server);
    let response = client.roundtrip(&"[".repeat(10_000));
    assert!(response.contains(r#""ok":false"#), "{response}");
    assert!(response.contains(r#""kind":"malformed_request""#), "{response}");
    assert!(client.roundtrip(r#"{"cmd":"ping"}"#).contains(r#""pong":true"#));
    server.shutdown();
}

/// OR-Library header counts are checked before anything is sized from
/// them: a huge or non-finite count is a typed error, not an allocation
/// abort or a panicked shard, and the connection's shard keeps solving.
#[test]
fn hostile_orlib_headers_are_typed_errors_and_the_server_stays_up() {
    let server = Server::start("127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = Client::connect(&server);
    // A request that is never answered must fail the test, not hang it.
    client.reader.get_ref().set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    for header in ["1e18 1", "inf 1"] {
        let request = format!(r#"{{"id":"a","solver":"greedy","orlib":"{header}\n0 1\n0\n1\n"}}"#);
        let response = client.roundtrip(&request);
        assert!(response.contains(r#""kind":"invalid_instance""#), "{response}");
        assert!(response.contains("line 1"), "{response}");
    }
    let response = client.roundtrip(GREEDY_INLINE);
    assert!(response.contains(r#""ok":true"#), "{response}");
    server.shutdown();
}

/// Finite but extreme coefficients are typed errors rather than panicked
/// shards: costs whose sums overflow (the local-search start, PayDual's
/// spread) are rejected when the instance or a delta is built, and a JV
/// ascent whose clock reaches 2^53 still terminates. Every line on the
/// one shard is answered, and the shard keeps solving after them.
#[test]
fn extreme_costs_are_typed_errors_and_the_shard_keeps_solving() {
    let config = ServeConfig { shards: 1, ..ServeConfig::default() };
    let server = Server::start("127.0.0.1:0", config).unwrap();
    let mut client = Client::connect(&server);
    // A request that is never answered must fail the test, not hang it.
    client.reader.get_ref().set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let invalid = r#""kind":"invalid_instance""#;
    for line in [
        r#"{"id":"h1","solver":"local-search","instance":{"opening":[1e308,1e308],"links":[[0,1e308,1,1e308],[0,1e308]]}}"#,
        r#"{"id":"h2","solver":"paydual","instance":{"opening":[5e-324,1e308],"links":[[0,1e308,1,5e-324],[0,5e-324,1,1e308]]}}"#,
    ] {
        let response = client.roundtrip(line);
        assert!(response.contains(invalid), "{response}");
        assert!(response.contains("out of range"), "{response}");
    }

    let response = client.roundtrip(
        r#"{"cmd":"create","id":"s1","session":"x","instance":{"opening":[4.0,3.0],"links":[[0,1.0,1,2.0],[1,0.5]]}}"#,
    );
    assert!(response.contains(r#""ok":true"#), "{response}");
    let response = client.roundtrip(
        r#"{"cmd":"mutate","id":"s2","session":"x","delta":{"reprice":[[0,0,1e308],[0,1,1e308],[1,1,1e308]]}}"#,
    );
    assert!(response.contains(invalid), "{response}");
    let response =
        client.roundtrip(r#"{"cmd":"solve","id":"s3","session":"x","solver":"local-search"}"#);
    assert!(
        response.contains(r#""cost":5.5"#),
        "the rejected delta left the session as it was: {response}"
    );

    let response = client.roundtrip(
        r#"{"id":"j1","solver":"jv","instance":{"opening":[1],"links":[[0,9007199254740992]]}}"#,
    );
    assert!(response.contains(r#""id":"j1","ok":true"#), "{response}");

    let response = client.roundtrip(GREEDY_INLINE);
    assert!(response.contains(r#""ok":true"#), "{response}");
    server.shutdown();
}

/// One burst of hostile lines in a single write — truncated, byte-flipped,
/// byte-deleted, spliced with extreme tokens, not UTF-8, and session verbs
/// carrying such tokens: every line gets exactly one answer (success or a
/// typed error), and the connection and its shard keep answering.
#[test]
fn a_burst_of_hostile_lines_is_answered_line_by_line_and_the_server_stays_up() {
    let server = Server::start("127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = Client::connect(&server);
    client.reader.get_ref().set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let inline = r#"{"opening":[4.0,3.0],"links":[[0,1.0,1,2.0],[1,0.5]]}"#;
    let solve = |id: &str, kind: &str, instance: &str| {
        format!(r#"{{"id":"{id}","solver":"{kind}","instance":{instance}}}"#).into_bytes()
    };
    let mut flipped = solve("f", "greedy", inline);
    flipped[0] ^= 0x04;
    let lines: Vec<Vec<u8>> = vec![
        // Truncated, byte-flipped, byte-deleted.
        solve("t", "greedy", inline)[..60].to_vec(),
        flipped,
        br#"{"id":"d","solver""greedy","orlib":"2 1\n0 4\n0 3\n0\n1 2\n"}"#.to_vec(),
        // Spliced tokens.
        solve("x1", "greedy", r#"{"opening":[1e309,3.0],"links":[[0,1.0],[1,0.5]]}"#),
        solve("x2", "jv", r#"{"opening":[4.0,3.0],"links":[[-1,1.0],[1,0.5]]}"#),
        solve("x3", "paydual", r#"{"opening":[NaN,3.0],"links":[[0,1.0],[1,0.5]]}"#),
        solve("x4", "local-search", r#"{"opening":[4.0,3.0],"links":[[0,5e-324],[1,0.5]]}"#),
        solve("x5", "metricball", r#"{"opening":[4.0,3.0],"links":[[4294967296,1.0],[1,0.5]]}"#),
        solve(r"\ud800", "outliers", inline),
        [b"[".repeat(200), solve("x7", "auto", inline)].concat(),
        // Not UTF-8.
        b"{\"id\":\"\xff\xfe\",\"solver\":\"greedy\"}".to_vec(),
        // Session verbs.
        format!(r#"{{"cmd":"create","id":"c","session":"s","instance":{inline}}}"#).into_bytes(),
        br#"{"cmd":"mutate","id":"m1","session":"s","delta":{"reprice":[[0,0,1e309]]}}"#.to_vec(),
        br#"{"cmd":"mutate","id":"m2","session":"s","delta":{"remove":[4294967296]}}"#.to_vec(),
        br#"{"cmd":"mutate","id":"m3","session":"s","delta":{"add":[[1,5e-324]]}}"#.to_vec(),
        br#"{"cmd":"solve","id":"q","session":"s","solver":"jv","seed":-1}"#.to_vec(),
        br#"{"cmd":"drop","id":"d","session":"s"}"#.to_vec(),
    ];
    let sent = lines.len();
    let mut burst = lines.join(&b'\n');
    burst.push(b'\n');
    client.writer.write_all(&burst).unwrap();
    for k in 0..sent {
        let response = client.recv();
        distfl_obs::validate_json(&response).unwrap();
        let typed = response.contains(r#""ok":false,"error":{"kind":""#);
        assert!(typed || response.contains(r#""ok":true"#), "line {k}: {response}");
    }
    assert!(client.roundtrip(r#"{"cmd":"ping"}"#).contains(r#""pong":true"#));
    let response = client.roundtrip(GREEDY_INLINE);
    assert!(response.contains(r#""ok":true"#), "{response}");
    server.shutdown();
}

/// `inst` as an inline `instance` object: the opening costs, then each
/// client's links as a flat `[facility, cost, ...]` list.
fn inline_instance(w: &mut distfl_obs::JsonWriter, inst: &distfl_instance::Instance) {
    w.key("instance").begin_object();
    w.key("opening").begin_array();
    for i in inst.facilities() {
        w.number(inst.opening_cost(i).value());
    }
    w.end_array();
    w.key("links").begin_array();
    for j in inst.clients() {
        w.begin_array();
        for (i, c) in inst.client_links(j).iter() {
            w.number_u64(u64::from(i)).number(c);
        }
        w.end_array();
    }
    w.end_array();
    w.end_object();
}

/// A session `mutate` line that removes client 0, adds a client linked to
/// each of 5 facilities, and reprices `(client, facility, cost)` triples.
fn churn_mutate(id: &str, reprice: &[(u32, u32, f64)]) -> String {
    let mut w = distfl_obs::JsonWriter::object();
    w.key("cmd").string("mutate");
    w.key("id").string(id);
    w.key("session").string("x");
    w.key("delta").begin_object();
    w.key("remove").begin_array().number_u64(0).end_array();
    w.key("reprice").begin_array();
    for &(j, i, c) in reprice {
        w.begin_array().number_u64(u64::from(j)).number_u64(u64::from(i)).number(c).end_array();
    }
    w.end_array();
    w.key("add").begin_array().begin_array();
    for i in 0..5u32 {
        w.number_u64(u64::from(i)).number(10.0 + f64::from(i));
    }
    w.end_array().end_array();
    w.end_object();
    w.finish()
}

#[test]
fn warm_jv_after_a_drift_fallback_answers_and_the_shard_keeps_solving() {
    // Every mutate is structural (d2 also reprices 145 of 200 links), so
    // each marks both solver families for a re-sort and only the JV
    // solves re-sort theirs. The JV solve after d3 must answer: a client
    // row left in its old order once spun the shard forever.
    use distfl_instance::generators::{Euclidean, InstanceGenerator};
    let config = ServeConfig { shards: 1, workers: Some(1), ..ServeConfig::default() };
    let server = Server::start("127.0.0.1:0", config).unwrap();
    let mut client = Client::connect(&server);
    client.reader.get_ref().set_read_timeout(Some(Duration::from_secs(30))).unwrap();

    let inst = Euclidean::new(5, 40).unwrap().generate(3).unwrap();
    let mut create = distfl_obs::JsonWriter::object();
    create.key("cmd").string("create");
    create.key("id").string("c");
    create.key("session").string("x");
    inline_instance(&mut create, &inst);
    let drift: Vec<(u32, u32, f64)> =
        (1..30).flat_map(|j| (0..5).map(move |i| (j, i, 1.0 + f64::from(j + i)))).collect();
    let solve_jv =
        |id: &str| format!(r#"{{"cmd":"solve","id":"{id}","session":"x","solver":"jv"}}"#);
    let script = [
        create.finish(),
        churn_mutate("d1", &[(6, 0, 0.01)]),
        churn_mutate("d2", &drift),
        solve_jv("q1"),
        churn_mutate("d3", &[(20, 2, 0.001), (20, 3, 99.0)]),
        solve_jv("q2"),
    ];
    for line in &script {
        let response = client.roundtrip(line);
        assert!(response.contains(r#""ok":true"#), "{response}");
    }

    let mut fresh = Client::connect(&server);
    fresh.reader.get_ref().set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let response = fresh.roundtrip(GREEDY_INLINE);
    assert!(response.contains(r#""ok":true"#), "{response}");
    server.shutdown();
}

#[test]
fn queue_full_is_an_immediate_typed_error() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex};

    // A batch hook that holds the scheduler after it pops a batch, so the
    // test can fill the (capacity-1) queue at a known position.
    let popped = Arc::new(AtomicUsize::new(0));
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let hook: distfl_serve::BatchHook = {
        let popped = Arc::clone(&popped);
        let gate = Arc::clone(&gate);
        Arc::new(move |_size| {
            popped.fetch_add(1, Ordering::SeqCst);
            let (lock, cv) = &*gate;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
        })
    };
    let config = ServeConfig {
        queue_capacity: 1,
        max_batch: 1,
        workers: Some(0),
        shards: 1, // one queue, so its capacity is the test's only capacity
        batch_hook: Some(hook),
        ..ServeConfig::default()
    };
    let server = Server::start("127.0.0.1:0", config).unwrap();
    let mut client = Client::connect(&server);

    // Occupy the scheduler: it pops "slow" (queue empty again) and then
    // blocks in the hook.
    client.send(r#"{"id":"slow","solver":"greedy","instance":{"opening":[4.0,3.0],"links":[[0,1.0,1,2.0],[1,0.5]]}}"#);
    let deadline = Instant::now() + Duration::from_secs(30);
    while popped.load(Ordering::SeqCst) == 0 {
        assert!(Instant::now() < deadline, "scheduler never picked up the slow request");
        std::thread::sleep(Duration::from_millis(2));
    }

    // One request fits the queue; the next one must be refused at once —
    // the reader handles lines in order, so "over" is only examined after
    // "g1" has been admitted.
    client.send(GREEDY_INLINE);
    let started = Instant::now();
    let response = client.roundtrip(
        r#"{"id":"over","solver":"greedy","instance":{"opening":[1.0],"links":[[0,1.0]]}}"#,
    );
    assert!(response.contains(r#""id":"over""#), "{response}");
    assert!(response.contains(r#""kind":"queue_full""#), "{response}");
    assert!(response.contains("capacity 1"), "{response}");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "queue_full reply must not wait for the solver"
    );

    // Release the scheduler; the held and queued requests complete in
    // admission order.
    {
        let (lock, cv) = &*gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
    }
    assert!(client.recv().contains(r#""id":"slow""#));
    assert!(client.recv().contains(r#""id":"g1""#));
    server.shutdown();
}

#[test]
fn a_pipelined_backlog_past_the_byte_budget_waits_in_the_socket_not_the_queue() {
    use distfl_instance::generators::{InstanceGenerator, UniformRandom};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex};

    // The scheduler is held after its first pop, as in the queue_full
    // test, while one connection pipelines 40 lines of about 100 KB: four
    // times the per-connection byte budget, and more lines than the queue
    // holds.
    let popped = Arc::new(AtomicUsize::new(0));
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let hook: distfl_serve::BatchHook = {
        let popped = Arc::clone(&popped);
        let gate = Arc::clone(&gate);
        Arc::new(move |_size| {
            popped.fetch_add(1, Ordering::SeqCst);
            let (lock, cv) = &*gate;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
        })
    };
    let config = ServeConfig {
        queue_capacity: 16,
        max_batch: 1,
        workers: Some(0),
        shards: 1,
        batch_hook: Some(hook),
        ..ServeConfig::default()
    };
    let server = Server::start("127.0.0.1:0", config).unwrap();

    let inst = UniformRandom::new(10, 450).unwrap().generate(4).unwrap();
    let lines: Vec<String> = (0..40)
        .map(|k| {
            let mut w = distfl_obs::JsonWriter::object();
            w.key("id").string(&format!("b{k}"));
            w.key("solver").string("greedy");
            inline_instance(&mut w, &inst);
            w.finish()
        })
        .collect();
    assert!((80_000..140_000).contains(&lines[0].len()), "{} bytes", lines[0].len());

    let mut client = Client::connect(&server);
    let mut writer = client.writer.try_clone().unwrap();
    // The server stops reading past its budget, so the writes may block
    // until the scheduler is released: send from another thread.
    let sender = std::thread::spawn(move || {
        for line in &lines {
            writeln!(writer, "{line}").expect("send a backlog line");
        }
    });
    let deadline = Instant::now() + Duration::from_secs(30);
    while popped.load(Ordering::SeqCst) == 0 {
        assert!(Instant::now() < deadline, "scheduler never picked up the first line");
        std::thread::sleep(Duration::from_millis(2));
    }

    // Without the budget, the lines past the queue's capacity would be
    // refused with queue_full at once. With it, nothing is answered while
    // the scheduler is held.
    client.reader.get_ref().set_read_timeout(Some(Duration::from_millis(1500))).unwrap();
    let mut early = String::new();
    let quiet = client.reader.read_line(&mut early);
    assert!(
        matches!(&quiet, Err(e) if matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)),
        "answered while the scheduler was held: {quiet:?} {early}"
    );
    assert!(early.is_empty(), "{early}");

    // A paused connection holds up no other connection.
    let mut other = Client::connect(&server);
    other.reader.get_ref().set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    assert!(other.roundtrip(r#"{"cmd":"ping"}"#).contains(r#""pong":true"#));

    {
        let (lock, cv) = &*gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
    }
    client.reader.get_ref().set_read_timeout(Some(Duration::from_secs(120))).unwrap();
    for k in 0..40 {
        let response = client.recv();
        assert!(response.contains(&format!(r#""id":"b{k}","ok":true"#)), "{response}");
    }
    sender.join().unwrap();
    server.shutdown();
}

#[test]
fn graceful_shutdown_drains_admitted_requests() {
    let config = ServeConfig {
        queue_capacity: 64,
        max_batch: 4,
        workers: Some(2),
        ..ServeConfig::default()
    };
    let server = Server::start("127.0.0.1:0", config).unwrap();
    let mut client = Client::connect(&server);
    for i in 0..10 {
        client.send(&paydual_orlib_request(&format!("d{i}"), i as u64, 5, 15));
    }
    // The reader admits lines in order, so the pong proves all ten
    // requests were admitted (capacity 64 — none refused) before the
    // drain begins.
    client.send(r#"{"cmd":"ping"}"#);
    let mut seen = Vec::new();
    loop {
        let response = client.recv();
        if response.contains(r#""pong":true"#) {
            break;
        }
        seen.push(response);
    }
    let addr = server.local_addr();
    server.shutdown();
    // Every admitted request was answered before shutdown returned.
    while seen.len() < 10 {
        seen.push(client.recv());
    }
    for response in &seen {
        assert!(response.contains(r#""ok":true"#), "{response}");
    }
    // The listener is gone.
    assert!(TcpStream::connect(addr).is_err(), "server still accepting after shutdown");
}

#[test]
fn shutdown_command_drains_like_a_signal() {
    let server = Server::start("127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = Client::connect(&server);
    assert!(client.roundtrip(r#"{"cmd":"ping"}"#).contains(r#""pong":true"#));
    client.send(GREEDY_INLINE);
    let ack_or_result = client.roundtrip(r#"{"cmd":"shutdown"}"#);
    // The solve response and the shutdown ack may arrive in either
    // order; collect both.
    let second = client.recv();
    let both = format!("{ack_or_result}\n{second}");
    assert!(both.contains(r#""shutdown":true"#), "{both}");
    assert!(both.contains(r#""id":"g1","ok":true"#), "{both}");
    server.wait();
}

#[test]
fn requests_after_drain_get_shutting_down_errors() {
    let server = Server::start("127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = Client::connect(&server);
    // Trigger the drain from a second connection, then race a request in
    // on the first; it must get a typed shutting_down (or, if the server
    // already closed the connection, a failed send / EOF — but never a
    // hang and never a solved response).
    let mut other = Client::connect(&server);
    assert!(other.roundtrip(r#"{"cmd":"shutdown"}"#).contains(r#""shutdown":true"#));
    let _ = writeln!(client.writer, "{GREEDY_INLINE}");
    let mut line = String::new();
    let n = client.reader.read_line(&mut line).unwrap_or(0);
    if n > 0 {
        assert!(line.contains(r#""kind":"shutting_down""#), "{line}");
    }
    server.wait();
}

#[test]
fn responses_are_byte_identical_across_restarts_and_worker_counts() {
    let mix: Vec<String> = (0..6)
        .flat_map(|i| {
            vec![
                paydual_orlib_request(&format!("mix{i}"), i as u64, 4, 10 + i),
                format!(
                    r#"{{"id":"inl{i}","solver":"local-search","seed":{i},"instance":{{"opening":[4.0,3.0],"links":[[0,1.0,1,2.0],[1,0.5]]}}}}"#
                ),
            ]
        })
        .collect();
    let mut runs: Vec<Vec<String>> = Vec::new();
    for workers in [0, 1, 3] {
        let config = ServeConfig {
            queue_capacity: 64,
            max_batch: 5,
            workers: Some(workers),
            ..ServeConfig::default()
        };
        let server = Server::start("127.0.0.1:0", config).unwrap();
        let mut client = Client::connect(&server);
        let responses: Vec<String> = mix.iter().map(|r| client.roundtrip(r)).collect();
        server.shutdown();
        runs.push(responses);
    }
    assert_eq!(runs[0], runs[1], "workers 0 vs 1 diverge");
    assert_eq!(runs[0], runs[2], "workers 0 vs 3 diverge");
}

#[test]
fn responses_are_byte_identical_across_shard_counts_and_reactors() {
    use distfl_serve::reactor::ReactorKind;

    // Four concurrent connections (so multiple shards actually engage),
    // each with its own request mix, replayed against different shard
    // counts and reactor backends. Per-connection transcripts must match
    // byte for byte.
    let mixes: Vec<Vec<String>> = (0..4)
        .map(|c| {
            (0..5)
                .map(|i| match (c + i) % 3 {
                    0 => paydual_orlib_request(&format!("c{c}r{i}"), (c * 31 + i) as u64, 4, 9),
                    1 => format!(
                        r#"{{"id":"c{c}r{i}","solver":"greedy","instance":{{"opening":[4.0,3.0],"links":[[0,1.0,1,2.0],[1,0.5]]}}}}"#
                    ),
                    _ => format!(
                        r#"{{"id":"c{c}r{i}","solver":"local-search","seed":{i},"instance":{{"opening":[2.0,2.0],"links":[[0,1.5,1,0.5],[1,1.0]]}}}}"#
                    ),
                })
                .collect()
        })
        .collect();

    let mut runs: Vec<Vec<Vec<String>>> = Vec::new();
    for (shards, reactor) in
        [(1, ReactorKind::Auto), (4, ReactorKind::Auto), (4, ReactorKind::Sweep)]
    {
        let config = ServeConfig {
            queue_capacity: 64,
            max_batch: 4,
            workers: Some(2),
            shards,
            reactor,
            ..ServeConfig::default()
        };
        let server = Server::start("127.0.0.1:0", config).unwrap();
        assert_eq!(server.shards(), shards);
        let mut clients: Vec<Client> = (0..4).map(|_| Client::connect(&server)).collect();
        let transcripts: Vec<Vec<String>> = clients
            .iter_mut()
            .zip(&mixes)
            .map(|(client, mix)| mix.iter().map(|r| client.roundtrip(r)).collect())
            .collect();
        server.shutdown();
        runs.push(transcripts);
    }
    assert_eq!(runs[0], runs[1], "1 shard vs 4 shards diverge");
    assert_eq!(runs[0], runs[2], "epoll vs sweep reactor diverge");
}

#[test]
fn pipelined_requests_in_one_write_are_answered_in_order() {
    let server = Server::start("127.0.0.1:0", ServeConfig::default()).unwrap();

    // Reference: sequential roundtrips.
    let requests: Vec<String> = (0..20)
        .map(|i| {
            format!(
                r#"{{"id":"p{i}","solver":"greedy","seed":{i},"instance":{{"opening":[{}.0,3.0],"links":[[0,1.0,1,2.0],[1,0.5]]}}}}"#,
                3 + (i % 4)
            )
        })
        .collect();
    let mut reference = Client::connect(&server);
    let expected: Vec<String> = requests.iter().map(|r| reference.roundtrip(r)).collect();

    // Pipelined: all 20 requests in a single write() syscall, so the
    // reactor frames the whole burst out of one read and admits it as one
    // group.
    let mut pipelined = Client::connect(&server);
    let mut burst = String::new();
    for request in &requests {
        burst.push_str(request);
        burst.push('\n');
    }
    pipelined.writer.write_all(burst.as_bytes()).expect("burst write");
    let got: Vec<String> = (0..requests.len()).map(|_| pipelined.recv()).collect();
    assert_eq!(got, expected, "pipelining changed response bytes or order");
    server.shutdown();
}

#[test]
fn a_malformed_line_keeps_its_place_among_a_pipelined_bursts_answers() {
    // A parse error is answered in line order like any request, so a
    // `"id":null` error can be placed by its position.
    let server = Server::start("127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = Client::connect(&server);
    client.reader.get_ref().set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let lines = [
        r#"{"cmd":"create","id":"c","session":"s","instance":{"opening":[4.0,3.0],"links":[[0,1.0,1,2.0],[1,0.5]]}}"#,
        r#"{"id":"bad","solver":"greedy"}"#,
        r#"{"cmd":"solve","id":"q","session":"s","solver":"greedy"}"#,
        "not json",
        GREEDY_INLINE,
    ];
    client.writer.write_all(format!("{}\n", lines.join("\n")).as_bytes()).unwrap();
    let ids: Vec<Option<String>> = lines
        .iter()
        .map(|_| {
            let response = distfl_obs::Json::parse(&client.recv()).unwrap();
            response.get("id").and_then(distfl_obs::Json::as_str).map(str::to_owned)
        })
        .collect();
    let expected = [Some("c"), Some("bad"), Some("q"), None, Some("g1")];
    assert_eq!(ids, expected.map(|id| id.map(str::to_owned)), "answers out of line order");
    server.shutdown();
}

#[test]
fn slow_reader_is_shed_with_a_typed_error_and_others_keep_working() {
    let config = ServeConfig {
        queue_capacity: 1024,
        write_buffer_cap: 1024,    // the minimum: overflow fast
        sock_send_buffer: Some(1), // clamp the kernel's help to its floor
        ..ServeConfig::default()
    };
    let server = Server::start("127.0.0.1:0", config).unwrap();

    // The hog sends a flood of requests whose responses (padded ids make
    // each ~1 KiB) vastly exceed everything the kernel and the 1 KiB
    // write buffer can hold — and never reads.
    let mut hog = Client::connect(&server);
    let padding = "x".repeat(1024);
    for i in 0..600 {
        hog.send(&format!(
            r#"{{"id":"hog{i}-{padding}","solver":"greedy","instance":{{"opening":[1.0],"links":[[0,1.0]]}}}}"#
        ));
    }

    // A well-behaved connection keeps getting answers while the hog sits
    // unshed or shed — it must never be stalled by the hog.
    let mut polite = Client::connect(&server);
    for _ in 0..5 {
        let response = polite.roundtrip(GREEDY_INLINE);
        assert!(response.contains(r#""ok":true"#), "{response}");
    }

    // Now drain the hog's socket: some complete responses, then the typed
    // slow_reader error, then EOF. Every line must be intact JSON —
    // shedding never tears a response mid-line.
    let mut lines = Vec::new();
    loop {
        let mut line = String::new();
        let n = hog.reader.read_line(&mut line).expect("read hog responses");
        if n == 0 {
            break;
        }
        lines.push(line.trim_end().to_owned());
    }
    let last = lines.last().expect("the shed error line must be delivered");
    assert!(last.contains(r#""kind":"slow_reader""#), "{last}");
    assert!(lines.len() < 600, "shedding must drop undelivered responses, got {}", lines.len());
    for line in &lines {
        distfl_obs::validate_json(line).expect("every delivered line is intact JSON");
    }

    // The polite connection survived the shed.
    assert!(polite.roundtrip(GREEDY_INLINE).contains(r#""ok":true"#));
    server.shutdown();
}

#[test]
fn session_mutate_solve_is_byte_identical_across_restarts() {
    // A pinned session streamed deltas: create → solve → mutate → solve →
    // mutate → solve → drop. The full transcript must be byte-identical
    // across server restarts, worker counts, and shard counts — the warm
    // path may never leak into response bytes.
    let script: Vec<String> = vec![
        r#"{"cmd":"create","id":"c1","session":"s1","instance":{"opening":[4.0,3.0],"links":[[0,1.0,1,2.0],[1,0.5],[0,3.0,1,1.0]]}}"#.into(),
        r#"{"cmd":"solve","id":"q1","session":"s1","solver":"greedy"}"#.into(),
        r#"{"cmd":"mutate","id":"m1","session":"s1","delta":{"reprice":[[0,0,0.25]],"add":[[0,0.5,1,4.0]]}}"#.into(),
        r#"{"cmd":"solve","id":"q2","session":"s1","solver":"jv"}"#.into(),
        r#"{"cmd":"mutate","id":"m2","session":"s1","delta":{"remove":[1,3]}}"#.into(),
        r#"{"cmd":"solve","id":"q3","session":"s1","solver":"local-search"}"#.into(),
        r#"{"cmd":"drop","id":"d1","session":"s1"}"#.into(),
    ];
    let mut runs: Vec<Vec<String>> = Vec::new();
    for (workers, shards) in [(0, 1), (2, 4), (3, 2)] {
        let config = ServeConfig { workers: Some(workers), shards, ..ServeConfig::default() };
        let server = Server::start("127.0.0.1:0", config).unwrap();
        let mut client = Client::connect(&server);
        let transcript: Vec<String> = script.iter().map(|r| client.roundtrip(r)).collect();
        assert_eq!(server.session_count(), 0, "drop released the session");
        server.shutdown();
        runs.push(transcript);
    }
    assert_eq!(runs[0], runs[1], "restart/worker-count changed session response bytes");
    assert_eq!(runs[0], runs[2], "restart/shard-count changed session response bytes");
    for response in &runs[0] {
        distfl_obs::validate_json(response).unwrap();
        assert!(response.contains(r#""ok":true"#), "{response}");
    }
    assert!(runs[0][2].contains(r#""epoch":1"#), "{}", runs[0][2]);
    assert!(runs[0][4].contains(r#""epoch":2"#) && runs[0][4].contains(r#""removed":2"#));
}

#[test]
fn session_solve_matches_stateless_solve_of_the_mutated_instance() {
    let server = Server::start("127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = Client::connect(&server);
    client.roundtrip(
        r#"{"cmd":"create","id":"c1","session":"s","instance":{"opening":[4.0,3.0],"links":[[0,1.0,1,2.0],[1,0.5]]}}"#,
    );
    // Remove client 1, reprice (0,1), add a client on both facilities:
    // post-mutation instance = opening [4,3], links [[0,1.0,1,0.75],[0,2.5,1,6.0]].
    client.roundtrip(
        r#"{"cmd":"mutate","id":"m1","session":"s","delta":{"remove":[1],"reprice":[[0,1,0.75]],"add":[[0,2.5,1,6.0]]}}"#,
    );
    let strip_span = |s: String| s.split(r#","span""#).next().unwrap().to_owned();
    for solver in ["greedy", "local-search", "jv", "paydual"] {
        let warm = client.roundtrip(&format!(
            r#"{{"cmd":"solve","id":"q","session":"s","solver":"{solver}","seed":5}}"#
        ));
        let cold = client.roundtrip(&format!(
            r#"{{"id":"q","solver":"{solver}","seed":5,"instance":{{"opening":[4.0,3.0],"links":[[0,1.0,1,0.75],[0,2.5,1,6.0]]}}}}"#
        ));
        assert_eq!(strip_span(warm), strip_span(cold), "warm vs cold diverge for {solver}");
    }
    server.shutdown();
}

/// An `auto` request over a Euclidean (metric) instance serialized to
/// OR-Library text — the classifier must route it to the metric solver.
fn auto_euclidean_request(id: &str, seed: u64, facilities: usize, clients: usize) -> String {
    use distfl_instance::generators::{Euclidean, InstanceGenerator};
    let inst = Euclidean::new(facilities, clients).unwrap().generate(seed).unwrap();
    let text = distfl_instance::orlib::to_string(&inst).unwrap();
    let mut w = distfl_obs::JsonWriter::object();
    w.key("id").string(id);
    w.key("solver").string("auto");
    w.key("seed").number_u64(seed);
    w.key("orlib").string(&text);
    w.finish()
}

#[test]
fn auto_routing_reports_routes_and_is_byte_identical_across_restarts() {
    // Metric (Euclidean) payloads must route to metricball; a small
    // non-metric inline instance must route to local-search. The whole
    // transcript — including the routed field — must be byte-identical
    // across restarts, worker counts, and shard counts.
    let mut mix: Vec<String> =
        (0..4).map(|i| auto_euclidean_request(&format!("a{i}"), i, 4, 10 + i as usize)).collect();
    // c(0,c1)=10 > c(0,c0)+c(1,c0)+c(1,c1) = 1.2: a real metric violation.
    mix.push(
        r#"{"id":"nm","solver":"auto","instance":{"opening":[4.0,3.0],"links":[[0,1.0,1,0.1],[0,10.0,1,0.1]]}}"#
            .into(),
    );
    let mut runs: Vec<Vec<String>> = Vec::new();
    for (workers, shards) in [(0, 1), (2, 4), (3, 2)] {
        let config = ServeConfig { workers: Some(workers), shards, ..ServeConfig::default() };
        let server = Server::start("127.0.0.1:0", config).unwrap();
        let mut client = Client::connect(&server);
        let transcript: Vec<String> = mix.iter().map(|r| client.roundtrip(r)).collect();
        server.shutdown();
        runs.push(transcript);
    }
    assert_eq!(runs[0], runs[1], "restart/worker-count changed auto response bytes");
    assert_eq!(runs[0], runs[2], "restart/shard-count changed auto response bytes");
    for response in &runs[0][..4] {
        distfl_obs::validate_json(response).unwrap();
        assert!(response.contains(r#""solver":"auto""#), "{response}");
        assert!(response.contains(r#""routed":"metricball""#), "{response}");
        // The routed solver is distributed: the response reports rounds.
        assert!(!response.contains(r#""rounds":null"#), "{response}");
    }
    let nm = &runs[0][4];
    assert!(nm.contains(r#""routed":"local-search""#), "{nm}");
    assert!(nm.contains(r#""rounds":null"#), "{nm}");
}

#[test]
fn session_verbs_on_missing_sessions_get_typed_errors() {
    let server = Server::start("127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = Client::connect(&server);
    for line in [
        r#"{"cmd":"solve","id":"q","session":"ghost","solver":"greedy"}"#,
        r#"{"cmd":"mutate","id":"m","session":"ghost","delta":{"remove":[0]}}"#,
        r#"{"cmd":"drop","id":"d","session":"ghost"}"#,
    ] {
        let response = client.roundtrip(line);
        assert!(response.contains(r#""kind":"unknown_session""#), "{response}");
        assert!(response.contains("ghost"), "{response}");
    }
    // An unknown verb reports the registry-derived menu.
    let response = client.roundtrip(r#"{"cmd":"reboot"}"#);
    assert!(response.contains("create, mutate, solve or drop"), "{response}");
    // The connection stays usable.
    assert!(client.roundtrip(GREEDY_INLINE).contains(r#""ok":true"#));
    server.shutdown();
}
