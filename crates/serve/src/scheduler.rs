//! The per-shard batching scheduler: drains one shard's admission queue
//! in batches and fans each batch out over the shared worker pool.
//!
//! One scheduler thread per shard. Each blocks on its own queue, takes up
//! to `max_batch` jobs at once, partitions the batch into **units** —
//! every stateless solve is its own unit; all requests naming the same
//! session form one unit, kept in admission order — and executes the
//! units with [`WorkerPool::map_indexed`], so concurrent requests from
//! independent connections share one fork/join while a connection's
//! create → mutate → solve pipeline still runs serially against its
//! session. A job may also carry an answer rendered on arrival (a line
//! that failed to parse); it is its own unit and passes through as is, so
//! it keeps its place among its burst's answers. The rendered responses
//! are scattered back to admission order and go to the reactor through
//! the batch sink (which appends them to per-connection write buffers and
//! wakes the event loop).
//!
//! Batch membership, shard assignment, and reactor timing never leak into
//! response bytes: [`execute`] is a pure function of the request and (for
//! session verbs) the session's request history, which is what keeps
//! responses byte-deterministic regardless of batching, worker count, and
//! shard count. Same-session requests arriving on *different*
//! connections have no defined relative order (last-write-wins on the
//! session), exactly like two clients mutating one resource over any
//! protocol.

use std::borrow::Cow;
use std::sync::Arc;

use distfl_instance::{ClientId, Cost, DeltaBatch, FacilityId, Instance};
use distfl_pool::WorkerPool;

use crate::proto::{
    self, Action, DeltaSpec, ErrorKind, InstanceSource, Request, ServeError, SessionShape,
};
use crate::queue::Admission;
use crate::session::{SessionCache, SessionState};

/// What one admitted line asks of its shard.
#[derive(Debug)]
pub enum Work {
    /// A parsed request, executed on a worker.
    Request(Request),
    /// A response line already rendered on arrival (the line's parse
    /// error), handed back unchanged in admission order.
    Answer(String),
}

/// One admitted line's work together with the way back to its client.
#[derive(Debug)]
pub struct Job {
    /// The request to execute, or the answer to pass through.
    pub work: Work,
    /// Token of the connection that sent it (opaque to the scheduler;
    /// the reactor resolves it back to a live connection, if any).
    pub conn: u64,
}

/// Where a shard delivers its rendered batches: a callback that hands
/// `(connection token, response line)` pairs — in admission order — back
/// to the reactor and wakes it.
pub type BatchSink = dyn Fn(Vec<(u64, String)>) + Send + Sync;

/// Obs handles for the scheduler-side metrics.
struct Metrics {
    batches: distfl_obs::Counter,
    batch_size: distfl_obs::Gauge,
    queue_depth: distfl_obs::Gauge,
}

/// Splits a batch into execution units: stateless solves and passed-through
/// answers are singleton units; same-session requests collapse into one
/// unit in admission order. Unit order follows each unit's first member, so
/// the partition is a pure function of the batch.
fn partition(batch: &[Job]) -> Vec<Vec<usize>> {
    let mut units: Vec<Vec<usize>> = Vec::with_capacity(batch.len());
    let mut session_unit: Vec<(String, usize)> = Vec::new();
    for (index, job) in batch.iter().enumerate() {
        let session = match &job.work {
            Work::Request(request) => request.action.session(),
            Work::Answer(_) => None,
        };
        match session {
            None => units.push(vec![index]),
            Some(name) => match session_unit.iter().find(|(n, _)| n == name) {
                Some(&(_, unit)) => units[unit].push(index),
                None => {
                    session_unit.push((name.to_owned(), units.len()));
                    units.push(vec![index]);
                }
            },
        }
    }
    units
}

/// Runs one shard's scheduler loop until its queue is closed and drained,
/// executing up to `max_batch` requests per fork/join.
///
/// `batch_hook`, when present, observes each popped batch's size before
/// it executes (see [`crate::ServeConfig::batch_hook`]).
///
/// Every popped job is answered exactly once through `sink` — the drain
/// contract the server's graceful shutdown relies on.
pub fn run_shard(
    queue: &Admission<Job>,
    pool: &Arc<WorkerPool>,
    sessions: &Arc<SessionCache>,
    max_batch: usize,
    batch_hook: Option<&(dyn Fn(usize) + Send + Sync)>,
    sink: &BatchSink,
) {
    let metrics = Metrics {
        batches: distfl_obs::counter("serve.batches"),
        batch_size: distfl_obs::gauge("serve.batch_size"),
        queue_depth: distfl_obs::gauge("serve.queue_depth"),
    };
    loop {
        let batch = queue.pop_batch(max_batch);
        if batch.is_empty() {
            return;
        }
        metrics.batches.incr();
        metrics.batch_size.set(batch.len() as f64);
        metrics.queue_depth.set(queue.depth() as f64);
        if let Some(hook) = batch_hook {
            hook(batch.len());
        }
        let units = partition(&batch);
        let unit_responses = pool.map_indexed(units.len(), |u| {
            units[u]
                .iter()
                .map(|&index| match &batch[index].work {
                    Work::Request(request) => execute(request, sessions),
                    Work::Answer(line) => line.clone(),
                })
                .collect::<Vec<String>>()
        });
        // Scatter unit results back to admission order.
        let mut responses: Vec<Option<(u64, String)>> = batch.iter().map(|_| None).collect();
        for (unit, rendered) in units.iter().zip(unit_responses) {
            for (&index, response) in unit.iter().zip(rendered) {
                responses[index] = Some((batch[index].conn, response));
            }
        }
        sink(responses.into_iter().map(|r| r.expect("every job answered")).collect());
    }
}

/// Executes one request on a worker: resolve the action, dispatch, render
/// the response line. Stateless solves are pure in the request; session
/// verbs are pure in the request plus the session's prior request history
/// — two identical request sequences render identical response bytes, on
/// any thread, in any batch, on any shard.
pub fn execute(request: &Request, sessions: &SessionCache) -> String {
    let _span = distfl_obs::span_arg("serve", "request", request.span_id);
    let fail = |kind: ErrorKind, detail: String| {
        let error = ServeError { kind, detail, id: Some(request.id.clone()) };
        proto::render_error(&error, request.span_id)
    };
    match &request.action {
        Action::Solve { solver, seed, source } => {
            let instance = match build_source(source) {
                Ok(instance) => instance,
                Err(detail) => return fail(ErrorKind::InvalidInstance, detail),
            };
            // Resolve `auto` here (not inside `solve`) so the response can
            // report the route and the per-route counter can tick.
            let resolved = solver.resolve(&instance);
            let routed = (*solver != resolved).then_some(resolved);
            if let Some(resolved) = routed {
                distfl_obs::counter(auto_route_counter(resolved)).incr();
            }
            match resolved.solve(&instance, *seed) {
                Ok(outcome) => render_outcome(request, *solver, *seed, routed, &instance, &outcome),
                Err(e) => fail(ErrorKind::SolverFailed, e.to_string()),
            }
        }
        Action::Create { session, source } => {
            let instance = match build_source(source) {
                Ok(instance) => instance,
                Err(detail) => return fail(ErrorKind::InvalidInstance, detail),
            };
            let shape = SessionShape {
                facilities: instance.num_facilities(),
                clients: instance.num_clients(),
                links: instance.num_links(),
                epoch: 0,
            };
            sessions.create(session, instance.into_owned());
            proto::render_create_ack(request, session, shape)
        }
        Action::Mutate { session, delta } => {
            let Some(handle) = sessions.get(session) else {
                return fail(ErrorKind::UnknownSession, unknown_session_detail(session));
            };
            let batch = match build_delta(delta) {
                Ok(batch) => batch,
                Err(detail) => return fail(ErrorKind::InvalidInstance, detail),
            };
            let mut guard = handle.lock().unwrap();
            let SessionState { instance, warm, epoch } = &mut *guard;
            // `apply_delta` validates before mutating, so a rejected
            // batch leaves the session exactly as it was.
            let report = match instance.apply_delta(&batch) {
                Ok(report) => report,
                Err(e) => return fail(ErrorKind::InvalidInstance, e.to_string()),
            };
            warm.apply_delta(instance, &report);
            *epoch += 1;
            let shape = SessionShape {
                facilities: instance.num_facilities(),
                clients: instance.num_clients(),
                links: instance.num_links(),
                epoch: *epoch,
            };
            proto::render_mutate_ack(
                request,
                session,
                shape,
                delta.remove.len(),
                delta.add.len(),
                delta.reprice.len(),
            )
        }
        Action::SessionSolve { session, solver, seed } => {
            let Some(handle) = sessions.get(session) else {
                return fail(ErrorKind::UnknownSession, unknown_session_detail(session));
            };
            let mut guard = handle.lock().unwrap();
            let SessionState { instance, warm, .. } = &mut *guard;
            // Portfolio kinds (metricball, outliers, auto) decline warm
            // sessions with `CoreError::WarmUnsupported`, which surfaces
            // here as a typed solver_failed response — the documented
            // session boundary.
            match solver.solve_warm(instance, *seed, warm) {
                Ok(outcome) => render_outcome(request, *solver, *seed, None, instance, &outcome),
                Err(e) => fail(ErrorKind::SolverFailed, e.to_string()),
            }
        }
        Action::Drop { session } => {
            if sessions.drop_session(session) {
                proto::render_drop_ack(request, session)
            } else {
                fail(ErrorKind::UnknownSession, unknown_session_detail(session))
            }
        }
    }
}

fn unknown_session_detail(session: &str) -> String {
    format!("session '{session}' is not held (never created, dropped, or evicted)")
}

/// Materializes a request's instance payload: an inline instance is
/// borrowed, an OR-Library payload parsed.
fn build_source(source: &InstanceSource) -> Result<Cow<'_, Instance>, String> {
    match source {
        InstanceSource::Inline(instance) => Ok(Cow::Borrowed(instance)),
        InstanceSource::OrLib(payload) => {
            distfl_instance::orlib::from_str(payload).map(Cow::Owned).map_err(|e| e.to_string())
        }
    }
}

/// Converts a wire [`DeltaSpec`] into a [`DeltaBatch`], validating costs
/// (id-range errors are left to `apply_delta`, which knows the shape).
fn build_delta(spec: &DeltaSpec) -> Result<DeltaBatch, String> {
    let mut batch = DeltaBatch::new();
    for &j in &spec.remove {
        batch.remove_client(ClientId::new(j));
    }
    for &(j, i, c) in &spec.reprice {
        let cost = Cost::new(c).map_err(|e| format!("reprice ({j},{i}): {e}"))?;
        batch.reprice(ClientId::new(j), FacilityId::new(i), cost);
    }
    for (index, links) in spec.add.iter().enumerate() {
        let p = batch.add_client();
        for &(i, c) in links {
            let cost = Cost::new(c).map_err(|e| format!("add[{index}] facility {i}: {e}"))?;
            batch.link(p, FacilityId::new(i), cost).map_err(|e| format!("add[{index}]: {e}"))?;
        }
    }
    Ok(batch)
}

/// The per-route counter name for an `auto` request that resolved to
/// `kind`. A match (not `format!`) because obs counter names are
/// `&'static str`; `resolve` never returns `Auto`, so that arm is
/// unreachable.
fn auto_route_counter(kind: distfl_core::SolverKind) -> &'static str {
    use distfl_core::SolverKind;
    match kind {
        SolverKind::Greedy => "serve.auto.greedy",
        SolverKind::LocalSearch => "serve.auto.local-search",
        SolverKind::JainVazirani => "serve.auto.jv",
        SolverKind::PayDual => "serve.auto.paydual",
        SolverKind::MetricBall => "serve.auto.metricball",
        SolverKind::MetricOutliers => "serve.auto.outliers",
        SolverKind::Auto => unreachable!("resolve never returns Auto"),
    }
}

/// Renders a solve outcome as a success line.
fn render_outcome(
    request: &Request,
    solver: distfl_core::SolverKind,
    seed: u64,
    routed: Option<distfl_core::SolverKind>,
    instance: &Instance,
    outcome: &distfl_core::Outcome,
) -> String {
    let cost = outcome.solution.cost(instance).value();
    let open: Vec<usize> = outcome.solution.open_facilities().map(|i| i.index()).collect();
    let rounds = outcome.transcript.as_ref().map(|t| t.num_rounds()).or(outcome.modeled_rounds);
    proto::render_success(request, solver, seed, routed, cost, &open, rounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{parse_line, Parsed};
    use std::sync::Mutex;

    fn request(line: &str) -> Request {
        match parse_line(line).unwrap() {
            Parsed::Request(req) => *req,
            other => panic!("expected request, got {other:?}"),
        }
    }

    fn cache() -> Arc<SessionCache> {
        Arc::new(SessionCache::new(8))
    }

    type Collected = Arc<Mutex<Vec<(u64, String)>>>;

    /// A sink collecting every delivered (conn, response) pair in order.
    fn collecting_sink() -> (Collected, Box<BatchSink>) {
        let collected = Arc::new(Mutex::new(Vec::new()));
        let sink = {
            let collected = Arc::clone(&collected);
            Box::new(move |batch: Vec<(u64, String)>| {
                collected.lock().unwrap().extend(batch);
            })
        };
        (collected, sink)
    }

    #[test]
    fn execute_is_deterministic_across_pool_sizes() {
        let line = r#"{"id":"d","solver":"paydual","seed":9,"orlib":"2 3\n0 4\n0 6\n0\n1 5\n0\n2 2\n0\n9 1\n"}"#;
        let req = request(line);
        let direct = execute(&req, &cache());
        distfl_obs::validate_json(&direct).unwrap();
        for workers in [0, 2] {
            let pool = Arc::new(WorkerPool::new(workers));
            let sessions = cache();
            let queue = Admission::new(8);
            for _ in 0..3 {
                assert!(queue
                    .push_group(vec![Job { work: Work::Request(req.clone()), conn: 1 }])
                    .is_empty());
            }
            queue.close();
            let (collected, sink) = collecting_sink();
            run_shard(&queue, &pool, &sessions, 4, None, &*sink);
            let responses = collected.lock().unwrap();
            assert_eq!(responses.len(), 3);
            for (_, r) in responses.iter() {
                assert_eq!(r, &direct, "workers={workers}");
            }
        }
    }

    #[test]
    fn orlib_parse_failures_surface_line_numbers() {
        let req = request(r#"{"id":"bad","solver":"greedy","orlib":"1 1\n0 x\n0\n1\n"}"#);
        let response = execute(&req, &cache());
        distfl_obs::validate_json(&response).unwrap();
        assert!(response.contains("\"kind\":\"invalid_instance\""), "{response}");
        assert!(response.contains("line 2"), "{response}");
    }

    #[test]
    fn run_shard_answers_every_job_in_admission_order() {
        let pool = Arc::new(WorkerPool::new(2));
        let sessions = cache();
        let queue = Admission::new(64);
        for i in 0..40u64 {
            let line = format!(
                r#"{{"id":"n{i}","solver":"greedy","instance":{{"opening":[1.0],"links":[[0,1.0]]}}}}"#
            );
            assert!(queue
                .push_group(vec![Job { work: Work::Request(request(&line)), conn: i }])
                .is_empty());
        }
        queue.close();
        let (collected, sink) = collecting_sink();
        run_shard(&queue, &pool, &sessions, 16, None, &*sink);
        let responses = collected.lock().unwrap();
        assert_eq!(responses.len(), 40, "every admitted job answered");
        let conns: Vec<u64> = responses.iter().map(|(c, _)| *c).collect();
        assert_eq!(conns, (0..40).collect::<Vec<u64>>(), "admission order preserved");
    }

    #[test]
    fn partition_groups_same_session_jobs_in_admission_order() {
        let jobs: Vec<Job> = [
            r#"{"id":"a","solver":"greedy","instance":{"opening":[1.0],"links":[[0,1.0]]}}"#
                .to_string(),
            r#"{"cmd":"create","id":"b","session":"s1","instance":{"opening":[1.0],"links":[[0,1.0]]}}"#
                .to_string(),
            r#"{"cmd":"create","id":"c","session":"s2","instance":{"opening":[1.0],"links":[[0,1.0]]}}"#
                .to_string(),
            r#"{"cmd":"solve","id":"d","session":"s1","solver":"greedy"}"#.to_string(),
            r#"{"id":"e","solver":"greedy","instance":{"opening":[1.0],"links":[[0,1.0]]}}"#
                .to_string(),
            r#"{"cmd":"drop","id":"f","session":"s1"}"#.to_string(),
        ]
        .iter()
        .enumerate()
        .map(|(i, line)| Job { work: Work::Request(request(line)), conn: i as u64 })
        .collect();
        let units = partition(&jobs);
        assert_eq!(units, vec![vec![0], vec![1, 3, 5], vec![2], vec![4]]);
    }

    #[test]
    fn session_lifecycle_executes_through_the_cache() {
        let sessions = cache();
        let create = request(
            r#"{"cmd":"create","id":"c1","session":"s","instance":{"opening":[4.0,3.0],"links":[[0,1.0,1,2.0],[1,0.5]]}}"#,
        );
        let ack = execute(&create, &sessions);
        assert!(ack.contains("\"created\":true") && ack.contains("\"epoch\":0"), "{ack}");
        assert_eq!(sessions.len(), 1);

        // The pinned instance solves identically to a stateless solve.
        let solve = request(r#"{"cmd":"solve","id":"q1","session":"s","solver":"greedy"}"#);
        let warm = execute(&solve, &sessions);
        let stateless = execute(
            &request(
                r#"{"id":"q1","solver":"greedy","instance":{"opening":[4.0,3.0],"links":[[0,1.0,1,2.0],[1,0.5]]}}"#,
            ),
            &sessions,
        );
        let strip_span = |s: &str| s.split("\"span\"").next().unwrap().to_string();
        assert_eq!(strip_span(&warm), strip_span(&stateless));

        // Mutate: drop client 1, reprice (0,0), add a client on facility 1.
        let mutate = request(
            r#"{"cmd":"mutate","id":"m1","session":"s","delta":{"remove":[1],"reprice":[[0,0,1.5]],"add":[[1,0.25]]}}"#,
        );
        let ack = execute(&mutate, &sessions);
        assert!(ack.contains("\"epoch\":1"), "{ack}");
        assert!(ack.contains("\"removed\":1") && ack.contains("\"added\":1"), "{ack}");

        // Warm solve of the mutated session == stateless solve of the
        // mutated instance.
        let warm = execute(&solve, &sessions);
        let stateless = execute(
            &request(
                r#"{"id":"q1","solver":"greedy","instance":{"opening":[4.0,3.0],"links":[[0,1.5,1,2.0],[1,0.25]]}}"#,
            ),
            &sessions,
        );
        assert_eq!(strip_span(&warm), strip_span(&stateless));

        let drop = request(r#"{"cmd":"drop","id":"d1","session":"s"}"#);
        assert!(execute(&drop, &sessions).contains("\"dropped\":true"));
        let gone = execute(&drop, &sessions);
        assert!(gone.contains("\"kind\":\"unknown_session\""), "{gone}");
    }

    /// A 2×3 line-metric instance (points on a segment): the classifier
    /// verifies it and auto routes it to the metric solver.
    const METRIC_INSTANCE: &str = r#""instance":{"opening":[1.0,1.0],"links":[[0,0.25,1,0.75],[0,0.5,1,0.5],[0,0.75,1,0.25]]}"#;

    #[test]
    fn auto_requests_report_their_route_and_match_the_direct_kind() {
        let auto = execute(
            &request(&format!(r#"{{"id":"a","solver":"auto","seed":4,{METRIC_INSTANCE}}}"#)),
            &cache(),
        );
        distfl_obs::validate_json(&auto).unwrap();
        assert!(auto.contains("\"solver\":\"auto\""), "{auto}");
        assert!(auto.contains("\"routed\":\"metricball\""), "{auto}");
        let direct = execute(
            &request(&format!(r#"{{"id":"a","solver":"metricball","seed":4,{METRIC_INSTANCE}}}"#)),
            &cache(),
        );
        assert!(!direct.contains("routed"), "concrete kinds must not emit routed: {direct}");
        // From `seed` to `span` (cost, open set, rounds) the two lines are
        // byte-identical: auto ran exactly the kind it reported.
        let payload = |s: &str| s.split("\"seed\"").nth(1).unwrap().to_string();
        let strip_span = |s: &str| s.split("\"span\"").next().unwrap().to_string();
        assert_eq!(strip_span(&payload(&auto)), strip_span(&payload(&direct)));
    }

    #[test]
    fn auto_declines_warm_session_solves_with_a_typed_error() {
        let sessions = cache();
        execute(
            &request(&format!(r#"{{"cmd":"create","id":"c","session":"s",{METRIC_INSTANCE}}}"#)),
            &sessions,
        );
        for solver in ["auto", "metricball", "outliers"] {
            let line = format!(r#"{{"cmd":"solve","id":"q","session":"s","solver":"{solver}"}}"#);
            let response = execute(&request(&line), &sessions);
            assert!(response.contains("\"kind\":\"solver_failed\""), "{response}");
            assert!(response.contains("warm-start"), "{response}");
        }
        // The session survives the declined solves.
        let greedy = execute(
            &request(r#"{"cmd":"solve","id":"g","session":"s","solver":"greedy"}"#),
            &sessions,
        );
        assert!(greedy.contains("\"ok\":true"), "{greedy}");
    }

    #[test]
    fn mutate_rejections_leave_the_session_intact() {
        let sessions = cache();
        let create = request(
            r#"{"cmd":"create","id":"c1","session":"s","instance":{"opening":[4.0],"links":[[0,1.0],[0,2.0]]}}"#,
        );
        execute(&create, &sessions);
        // Client 9 does not exist: apply_delta rejects, epoch stays 0.
        let bad = request(r#"{"cmd":"mutate","id":"m1","session":"s","delta":{"remove":[9]}}"#);
        let response = execute(&bad, &sessions);
        assert!(response.contains("\"kind\":\"invalid_instance\""), "{response}");
        let handle = sessions.get("s").unwrap();
        let state = handle.lock().unwrap();
        assert_eq!(state.epoch, 0);
        assert_eq!(state.instance.num_clients(), 2);
    }
}
