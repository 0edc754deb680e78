//! The serve wire protocol: newline-delimited JSON requests and
//! responses.
//!
//! Every line the client sends is one JSON object; every line the server
//! sends back is one JSON object. Two request shapes exist:
//!
//! **Solve request** — names a solver and carries the instance either
//! inline or as an OR-Library payload:
//!
//! ```json
//! {"id":"r1","solver":"greedy","seed":7,
//!  "instance":{"opening":[4.0,3.0],"links":[[0,1.0,1,2.0],[1,0.5]]}}
//! {"id":"r2","solver":"paydual","orlib":"2 1\n0 4\n0 3\n0\n1 2\n"}
//! ```
//!
//! `opening` lists the opening cost of each facility; `links[j]` is a
//! flat `[facility, cost, facility, cost, ...]` pair list for client `j`.
//! `seed` is optional (default 0) and only affects randomized solvers.
//!
//! **Command** — `{"cmd":"ping"}` (liveness probe) or
//! `{"cmd":"shutdown"}` (the SIGTERM-equivalent: acknowledge, stop
//! admitting, drain, exit).
//!
//! **Session verbs** — a connection can pin an instance server-side and
//! stream cheap mutations at it instead of re-uploading after every
//! change (the warm-start delta path; see `distfl_core::warm`):
//!
//! ```json
//! {"cmd":"create","id":"c1","session":"s1",
//!  "instance":{"opening":[4.0,3.0],"links":[[0,1.0,1,2.0],[1,0.5]]}}
//! {"cmd":"mutate","id":"m1","session":"s1",
//!  "delta":{"remove":[1],"reprice":[[0,0,1.5]],"add":[[1,0.25]]}}
//! {"cmd":"solve","id":"s1q","session":"s1","solver":"greedy","seed":7}
//! {"cmd":"drop","id":"d1","session":"s1"}
//! ```
//!
//! `delta.remove` lists client ids to delete (pre-mutation ids),
//! `delta.reprice` holds `[client, facility, cost]` triples over existing
//! links, and `delta.add` appends new clients as flat
//! `[facility, cost, ...]` pair lists. A session `solve` runs the named
//! solver against the session's current instance through its warm cache —
//! bit-identical to a stateless solve of the same instance. The verb set
//! is defined once in [`COMMANDS`]; the "unknown cmd" error text derives
//! from it, so the message cannot drift as verbs land.
//!
//! Responses echo the request `id` and are *byte-deterministic*: for a
//! fixed request and seed the response line is identical across restarts
//! and worker counts. Success:
//!
//! ```json
//! {"id":"r1","ok":true,"solver":"greedy","seed":7,"cost":5.5,
//!  "open":[0],"rounds":null,"span":"a93c4f0212d08e11"}
//! ```
//!
//! `rounds` is the CONGEST round count for distributed solvers and
//! `null` for sequential ones. A request with `"solver":"auto"` is routed
//! by the instance classifier (`distfl_instance::classify` through
//! `SolverKind::resolve`) and its response additionally carries
//! `"routed":"<concrete kind>"` right after `solver`; concrete-kind
//! responses never carry the field, so their bytes are unchanged by the
//! portfolio. `span` is the request's span id — the
//! FNV-1a hash of the request line, which also tags the `serve`-category
//! span recorded in the `distfl-obs` registry, so a trace of a live
//! request can be joined to its response. Errors are typed:
//!
//! ```json
//! {"id":"r3","ok":false,"error":{"kind":"queue_full",
//!  "detail":"admission queue at capacity 256"},"span":"..."}
//! ```
//!
//! with `kind` one of `malformed_request`, `invalid_instance`,
//! `queue_full`, `solver_failed`, `shutting_down`, `unknown_session`
//! (a session verb named a session the server does not hold — never
//! created, dropped, or evicted), `slow_reader` (the connection's bounded
//! write buffer overflowed and the connection is being shed).

use distfl_core::SolverKind;
use distfl_instance::{Cost, FacilityId, Instance, InstanceBuilder};
use distfl_obs::JsonWriter;

use crate::json::Json;

/// Limit on request ids, to keep response lines and span labels bounded.
const MAX_ID_LEN: usize = 128;

/// How a request supplies its instance.
#[derive(Debug, Clone, PartialEq)]
pub enum InstanceSource {
    /// Inline `{"opening":[...],"links":[[...]]}` object, already
    /// validated and built.
    Inline(Instance),
    /// An OR-Library text payload, parsed on the worker (so oversized
    /// payloads do not stall the connection thread).
    OrLib(String),
}

/// A parsed `delta` payload for the `mutate` verb, in raw wire ids (the
/// executor converts and validates against the session's instance).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeltaSpec {
    /// Client ids to remove (pre-mutation ids).
    pub remove: Vec<u32>,
    /// `(client, facility, new cost)` reprices over existing links.
    pub reprice: Vec<(u32, u32, f64)>,
    /// New clients, each a `(facility, cost)` link list.
    pub add: Vec<Vec<(u32, f64)>>,
}

/// What an admitted request asks the scheduler to do.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Stateless solve: build the instance from the payload, dispatch,
    /// discard.
    Solve {
        /// Which solver to dispatch to.
        solver: SolverKind,
        /// Seed for randomized solvers (default 0).
        seed: u64,
        /// The instance payload.
        source: InstanceSource,
    },
    /// Pin an instance under a session name (replacing any previous
    /// instance held under it).
    Create {
        /// The session to create or replace.
        session: String,
        /// The instance payload.
        source: InstanceSource,
    },
    /// Apply a delta batch to a pinned session's instance.
    Mutate {
        /// The session to mutate.
        session: String,
        /// The parsed delta payload.
        delta: DeltaSpec,
    },
    /// Solve a pinned session's current instance through its warm cache.
    SessionSolve {
        /// The session to solve.
        session: String,
        /// Which solver to dispatch to.
        solver: SolverKind,
        /// Seed for randomized solvers (default 0).
        seed: u64,
    },
    /// Release a pinned session.
    Drop {
        /// The session to drop.
        session: String,
    },
}

impl Action {
    /// The session this action touches, if any — the scheduler groups
    /// same-session actions of a batch into one serial unit so a
    /// connection's create → mutate → solve pipeline executes in
    /// admission order.
    pub fn session(&self) -> Option<&str> {
        match self {
            Action::Solve { .. } => None,
            Action::Create { session, .. }
            | Action::Mutate { session, .. }
            | Action::SessionSolve { session, .. }
            | Action::Drop { session } => Some(session),
        }
    }
}

/// One admitted request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen id, echoed on the response.
    pub id: String,
    /// What to do.
    pub action: Action,
    /// FNV-1a hash of the request line: the span id on the response and
    /// on the `serve.request` obs span.
    pub span_id: u64,
}

/// Control commands, handled on the connection thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Liveness probe; answered with `{"ok":true,"pong":true}`.
    Ping,
    /// Graceful drain: acknowledge, then stop admitting and exit once
    /// in-flight requests have been answered.
    Shutdown,
}

/// How each registered `cmd` verb is handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verb {
    /// Answered on the connection thread ([`Command`]).
    Control(Command),
    /// Admitted to a shard queue as a session action.
    Create,
    /// Admitted as a mutate action.
    Mutate,
    /// Admitted as a session solve action.
    SessionSolve,
    /// Admitted as a drop action.
    Drop,
}

/// The single registry of every `cmd` verb the protocol accepts. Parsing
/// dispatches through this table and the "unknown cmd" error text is
/// derived from it, so the two cannot drift apart as verbs land.
pub const COMMANDS: [&str; 6] = ["ping", "shutdown", "create", "mutate", "solve", "drop"];

/// Wire name → handling, in [`COMMANDS`] order.
const VERBS: [(&str, Verb); 6] = [
    ("ping", Verb::Control(Command::Ping)),
    ("shutdown", Verb::Control(Command::Shutdown)),
    ("create", Verb::Create),
    ("mutate", Verb::Mutate),
    ("solve", Verb::SessionSolve),
    ("drop", Verb::Drop),
];

/// The error detail for an unrecognized `cmd`, derived from [`COMMANDS`].
pub fn unknown_cmd_detail() -> String {
    let mut names = String::new();
    for (index, name) in COMMANDS.iter().enumerate() {
        if index > 0 {
            names.push_str(if index + 1 == COMMANDS.len() { " or " } else { ", " });
        }
        names.push_str(name);
    }
    format!("unknown cmd (expected {names})")
}

/// A successfully parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Parsed {
    /// A solve request, ready for admission.
    Request(Box<Request>),
    /// A control command.
    Command(Command),
}

/// Error categories the protocol reports to clients.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The line is not valid JSON or misses/mistypes required fields.
    MalformedRequest,
    /// The instance payload does not describe a valid instance (parse
    /// errors carry OR-Library line numbers).
    InvalidInstance,
    /// The admission queue is at capacity; retry later.
    QueueFull,
    /// The solver rejected the request (e.g. invalid parameters).
    SolverFailed,
    /// The server is draining and admits no new work.
    ShuttingDown,
    /// The connection's bounded write buffer overflowed because the
    /// client stopped draining its socket; the connection is shed.
    SlowReader,
    /// A session verb named a session the server does not hold (never
    /// created, already dropped, or LRU-evicted).
    UnknownSession,
}

impl ErrorKind {
    /// The wire name of the category.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::MalformedRequest => "malformed_request",
            ErrorKind::InvalidInstance => "invalid_instance",
            ErrorKind::QueueFull => "queue_full",
            ErrorKind::SolverFailed => "solver_failed",
            ErrorKind::ShuttingDown => "shutting_down",
            ErrorKind::SlowReader => "slow_reader",
            ErrorKind::UnknownSession => "unknown_session",
        }
    }
}

/// A typed protocol error: category, human detail, and the request id if
/// one was recovered from the line.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeError {
    /// Category reported as `error.kind`.
    pub kind: ErrorKind,
    /// Human-readable detail reported as `error.detail`.
    pub detail: String,
    /// The request id, when the line was parsed far enough to know it.
    pub id: Option<String>,
}

impl ServeError {
    /// A malformed-request error with no recovered id.
    fn malformed(detail: impl Into<String>) -> Self {
        ServeError { kind: ErrorKind::MalformedRequest, detail: detail.into(), id: None }
    }
}

/// FNV-1a 64-bit hash of `bytes` — the deterministic span id of a
/// request line (no RNG, no clock: restarts reproduce it).
pub fn span_id(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Parses one request line into a solve request, session verb, or
/// command.
///
/// # Errors
///
/// Returns a typed [`ServeError`] (always `malformed_request` or
/// `invalid_instance`) carrying the request id when it was recoverable.
pub fn parse_line(line: &str) -> Result<Parsed, ServeError> {
    let value = Json::parse(line)
        .map_err(|e| ServeError::malformed(format!("request is not valid JSON: {e}")))?;
    if let Some(cmd) = value.get("cmd") {
        let verb = cmd
            .as_str()
            .and_then(|name| VERBS.iter().find(|(n, _)| *n == name))
            .map(|&(_, verb)| verb)
            .ok_or_else(|| ServeError::malformed(unknown_cmd_detail()))?;
        if let Verb::Control(command) = verb {
            return Ok(Parsed::Command(command));
        }
        let id = parse_id(&value)?;
        let fail =
            |kind: ErrorKind, detail: String| ServeError { kind, detail, id: Some(id.clone()) };
        let session = match value.get("session") {
            Some(Json::Str(s)) if !s.is_empty() && s.len() <= MAX_ID_LEN => s.clone(),
            Some(_) => {
                return Err(fail(
                    ErrorKind::MalformedRequest,
                    format!("session must be a string of 1..={MAX_ID_LEN} characters"),
                ))
            }
            None => return Err(fail(ErrorKind::MalformedRequest, "missing field: session".into())),
        };
        let action = match verb {
            Verb::Control(_) => unreachable!("control verbs returned above"),
            Verb::Create => Action::Create { session, source: parse_source(&value, &fail)? },
            Verb::Mutate => Action::Mutate { session, delta: parse_delta(&value, &fail)? },
            Verb::SessionSolve => Action::SessionSolve {
                session,
                solver: parse_solver(&value, &fail)?,
                seed: parse_seed(&value, &fail)?,
            },
            Verb::Drop => Action::Drop { session },
        };
        return Ok(Parsed::Request(Box::new(Request {
            id,
            action,
            span_id: span_id(line.as_bytes()),
        })));
    }

    let id = parse_id(&value)?;
    let fail = |kind: ErrorKind, detail: String| ServeError { kind, detail, id: Some(id.clone()) };
    let action = Action::Solve {
        solver: parse_solver(&value, &fail)?,
        seed: parse_seed(&value, &fail)?,
        source: parse_source(&value, &fail)?,
    };
    Ok(Parsed::Request(Box::new(Request { id, action, span_id: span_id(line.as_bytes()) })))
}

/// Extracts and validates the request id.
fn parse_id(value: &Json) -> Result<String, ServeError> {
    match value.get("id") {
        Some(Json::Str(s)) if !s.is_empty() && s.len() <= MAX_ID_LEN => Ok(s.clone()),
        Some(Json::Str(_)) => {
            Err(ServeError::malformed(format!("id must be 1..={MAX_ID_LEN} characters")))
        }
        Some(_) => Err(ServeError::malformed("id must be a string")),
        None => Err(ServeError::malformed("missing field: id")),
    }
}

/// Extracts and parses the `solver` field.
fn parse_solver(
    value: &Json,
    fail: &dyn Fn(ErrorKind, String) -> ServeError,
) -> Result<SolverKind, ServeError> {
    match value.get("solver").and_then(Json::as_str) {
        Some(name) => {
            name.parse::<SolverKind>().map_err(|e| fail(ErrorKind::MalformedRequest, e.to_string()))
        }
        None => Err(fail(ErrorKind::MalformedRequest, "missing field: solver".into())),
    }
}

/// Extracts the optional `seed` field (default 0).
fn parse_seed(
    value: &Json,
    fail: &dyn Fn(ErrorKind, String) -> ServeError,
) -> Result<u64, ServeError> {
    match value.get("seed") {
        None => Ok(0),
        Some(v) => v.as_u64().ok_or_else(|| {
            fail(ErrorKind::MalformedRequest, "seed must be a non-negative integer".into())
        }),
    }
}

/// Extracts the instance payload (`instance` inline or `orlib` text).
fn parse_source(
    value: &Json,
    fail: &dyn Fn(ErrorKind, String) -> ServeError,
) -> Result<InstanceSource, ServeError> {
    match (value.get("instance"), value.get("orlib")) {
        (Some(inline), None) => Ok(InstanceSource::Inline(
            build_inline(inline).map_err(|detail| fail(ErrorKind::InvalidInstance, detail))?,
        )),
        (None, Some(Json::Str(payload))) => Ok(InstanceSource::OrLib(payload.clone())),
        (None, Some(_)) => Err(fail(ErrorKind::MalformedRequest, "orlib must be a string".into())),
        (Some(_), Some(_)) => {
            Err(fail(ErrorKind::MalformedRequest, "give either instance or orlib, not both".into()))
        }
        (None, None) => {
            Err(fail(ErrorKind::MalformedRequest, "missing field: instance or orlib".into()))
        }
    }
}

/// Parses the `delta` object of a `mutate` verb into a [`DeltaSpec`].
fn parse_delta(
    value: &Json,
    fail: &dyn Fn(ErrorKind, String) -> ServeError,
) -> Result<DeltaSpec, ServeError> {
    let delta = value
        .get("delta")
        .ok_or_else(|| fail(ErrorKind::MalformedRequest, "missing field: delta".into()))?;
    let mut spec = DeltaSpec::default();
    if let Some(remove) = delta.get("remove") {
        let items = remove.as_array().ok_or_else(|| {
            fail(ErrorKind::MalformedRequest, "delta.remove must be an array of client ids".into())
        })?;
        for (index, item) in items.iter().enumerate() {
            let j = item.as_u64().filter(|&j| j <= u64::from(u32::MAX)).ok_or_else(|| {
                fail(
                    ErrorKind::MalformedRequest,
                    format!("delta.remove[{index}] is not a client id"),
                )
            })?;
            spec.remove.push(j as u32);
        }
    }
    if let Some(reprice) = delta.get("reprice") {
        let items = reprice.as_array().ok_or_else(|| {
            fail(
                ErrorKind::MalformedRequest,
                "delta.reprice must be an array of [client, facility, cost] triples".into(),
            )
        })?;
        for (index, item) in items.iter().enumerate() {
            let bad = || {
                fail(
                    ErrorKind::MalformedRequest,
                    format!("delta.reprice[{index}] must be a [client, facility, cost] triple"),
                )
            };
            let triple = item.as_array().ok_or_else(bad)?;
            if triple.len() != 3 {
                return Err(bad());
            }
            let j = triple[0].as_u64().filter(|&x| x <= u64::from(u32::MAX)).ok_or_else(bad)?;
            let i = triple[1].as_u64().filter(|&x| x <= u64::from(u32::MAX)).ok_or_else(bad)?;
            let c = triple[2].as_f64().ok_or_else(bad)?;
            spec.reprice.push((j as u32, i as u32, c));
        }
    }
    if let Some(add) = delta.get("add") {
        let rows = add.as_array().ok_or_else(|| {
            fail(
                ErrorKind::MalformedRequest,
                "delta.add must be an array of [facility, cost, ...] pair lists".into(),
            )
        })?;
        for (index, row) in rows.iter().enumerate() {
            let pairs = row.as_array().ok_or_else(|| {
                fail(ErrorKind::MalformedRequest, format!("delta.add[{index}] is not a pair array"))
            })?;
            if pairs.len() % 2 != 0 || pairs.is_empty() {
                return Err(fail(
                    ErrorKind::MalformedRequest,
                    format!("delta.add[{index}] must hold (facility, cost) pairs"),
                ));
            }
            let mut links = Vec::with_capacity(pairs.len() / 2);
            for pair in pairs.chunks(2) {
                let i =
                    pair[0].as_u64().filter(|&x| x <= u64::from(u32::MAX)).ok_or_else(|| {
                        fail(
                            ErrorKind::MalformedRequest,
                            format!(
                                "delta.add[{index}]: facility index is not a non-negative \
                                 integer below 2^32"
                            ),
                        )
                    })?;
                let c = pair[1].as_f64().ok_or_else(|| {
                    fail(
                        ErrorKind::MalformedRequest,
                        format!("delta.add[{index}]: cost is not a number"),
                    )
                })?;
                links.push((i as u32, c));
            }
            spec.add.push(links);
        }
    }
    if spec.remove.is_empty() && spec.reprice.is_empty() && spec.add.is_empty() {
        return Err(fail(
            ErrorKind::MalformedRequest,
            "delta must carry at least one of remove, reprice, add".into(),
        ));
    }
    Ok(spec)
}

/// Builds an [`Instance`] from the inline `{"opening", "links"}` shape.
fn build_inline(value: &Json) -> Result<Instance, String> {
    let opening = value
        .get("opening")
        .and_then(Json::as_array)
        .ok_or("instance.opening must be an array of opening costs")?;
    let links = value
        .get("links")
        .and_then(Json::as_array)
        .ok_or("instance.links must be an array (one pair list per client)")?;

    let mut builder = InstanceBuilder::new();
    let mut fids = Vec::with_capacity(opening.len());
    for (index, cost) in opening.iter().enumerate() {
        let cost = cost.as_f64().ok_or_else(|| format!("opening[{index}] is not a number"))?;
        let cost = Cost::new(cost).map_err(|e| format!("opening[{index}]: {e}"))?;
        fids.push(builder.add_facility(cost));
    }
    for (j, pairs) in links.iter().enumerate() {
        let pairs = pairs.as_array().ok_or_else(|| format!("links[{j}] is not a pair array"))?;
        if pairs.len() % 2 != 0 {
            return Err(format!("links[{j}] must hold (facility, cost) pairs"));
        }
        let client = builder.add_client();
        for pair in pairs.chunks(2) {
            let facility = pair[0].as_u64().ok_or_else(|| {
                format!("links[{j}]: facility index is not a non-negative integer")
            })?;
            let facility = usize::try_from(facility).expect("u64 fits usize on 64-bit");
            if facility >= fids.len() {
                return Err(format!(
                    "links[{j}]: facility index {facility} out of range ({} facilities)",
                    fids.len()
                ));
            }
            let cost =
                pair[1].as_f64().ok_or_else(|| format!("links[{j}]: cost is not a number"))?;
            let cost = Cost::new(cost).map_err(|e| format!("links[{j}]: {e}"))?;
            builder
                .link(client, FacilityId::new(facility as u32), cost)
                .map_err(|e| format!("links[{j}]: {e}"))?;
        }
    }
    builder.build().map_err(|e| e.to_string())
}

/// Renders `span_id` the way responses carry it: 16 lowercase hex digits.
pub fn span_hex(span_id: u64) -> String {
    format!("{span_id:016x}")
}

/// Renders a solve success response line (no trailing newline). `solver`
/// and `seed` are passed explicitly because both stateless and session
/// solves report them. `routed` is the concrete kind the classifier
/// picked when the request asked for `auto`; it is **only** emitted for
/// auto requests, so response bytes for every concrete kind are identical
/// to what they were before the portfolio existed.
pub fn render_success(
    request: &Request,
    solver: SolverKind,
    seed: u64,
    routed: Option<SolverKind>,
    cost: f64,
    open: &[usize],
    rounds: Option<u32>,
) -> String {
    let mut w = JsonWriter::object();
    w.key("id").string(&request.id);
    w.key("ok").boolean(true);
    w.key("solver").string(solver.name());
    if let Some(routed) = routed {
        w.key("routed").string(routed.name());
    }
    w.key("seed").number_u64(seed);
    w.key("cost").number(cost);
    w.key("open").begin_array();
    for &i in open {
        w.number_u64(i as u64);
    }
    w.end_array();
    match rounds {
        Some(r) => w.key("rounds").number_u64(u64::from(r)),
        None => w.key("rounds").null(),
    };
    w.key("span").string(&span_hex(request.span_id));
    w.finish()
}

/// Shape of a session's instance, echoed on create/mutate acks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionShape {
    /// Facility count.
    pub facilities: usize,
    /// Client count after the action.
    pub clients: usize,
    /// Link count after the action.
    pub links: usize,
    /// Mutation epoch: 0 at create, +1 per applied delta.
    pub epoch: u64,
}

/// Renders the acknowledgement for a `create` verb.
pub fn render_create_ack(request: &Request, session: &str, shape: SessionShape) -> String {
    let mut w = JsonWriter::object();
    w.key("id").string(&request.id);
    w.key("ok").boolean(true);
    w.key("session").string(session);
    w.key("created").boolean(true);
    write_shape(&mut w, shape);
    w.key("span").string(&span_hex(request.span_id));
    w.finish()
}

/// Renders the acknowledgement for a `mutate` verb. `removed`, `added`,
/// and `repriced` echo the applied delta's shape so a client can confirm
/// what landed.
pub fn render_mutate_ack(
    request: &Request,
    session: &str,
    shape: SessionShape,
    removed: usize,
    added: usize,
    repriced: usize,
) -> String {
    let mut w = JsonWriter::object();
    w.key("id").string(&request.id);
    w.key("ok").boolean(true);
    w.key("session").string(session);
    w.key("removed").number_u64(removed as u64);
    w.key("added").number_u64(added as u64);
    w.key("repriced").number_u64(repriced as u64);
    write_shape(&mut w, shape);
    w.key("span").string(&span_hex(request.span_id));
    w.finish()
}

/// Renders the acknowledgement for a `drop` verb.
pub fn render_drop_ack(request: &Request, session: &str) -> String {
    let mut w = JsonWriter::object();
    w.key("id").string(&request.id);
    w.key("ok").boolean(true);
    w.key("session").string(session);
    w.key("dropped").boolean(true);
    w.key("span").string(&span_hex(request.span_id));
    w.finish()
}

fn write_shape(w: &mut JsonWriter, shape: SessionShape) {
    w.key("facilities").number_u64(shape.facilities as u64);
    w.key("clients").number_u64(shape.clients as u64);
    w.key("links").number_u64(shape.links as u64);
    w.key("epoch").number_u64(shape.epoch);
}

/// Renders a typed error response line (no trailing newline). `span_id`
/// is 0 when the line never parsed far enough to hash meaningfully.
pub fn render_error(error: &ServeError, span_id: u64) -> String {
    let mut w = JsonWriter::object();
    match &error.id {
        Some(id) => w.key("id").string(id),
        None => w.key("id").null(),
    };
    w.key("ok").boolean(false);
    w.key("error").begin_object();
    w.key("kind").string(error.kind.as_str());
    w.key("detail").string(&error.detail);
    w.end_object();
    w.key("span").string(&span_hex(span_id));
    w.finish()
}

/// Renders the acknowledgement for a [`Command`].
pub fn render_command_ack(cmd: Command) -> String {
    let mut w = JsonWriter::object();
    w.key("ok").boolean(true);
    match cmd {
        Command::Ping => w.key("pong").boolean(true),
        Command::Shutdown => w.key("shutdown").boolean(true),
    };
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    const INLINE: &str = r#"{"id":"r1","solver":"greedy","seed":3,"instance":{"opening":[4.0,3.0],"links":[[0,1.0,1,2.0],[1,0.5]]}}"#;

    #[test]
    fn parses_an_inline_request() {
        let parsed = parse_line(INLINE).unwrap();
        let Parsed::Request(req) = parsed else { panic!("expected a request") };
        assert_eq!(req.id, "r1");
        let Action::Solve { solver, seed, source } = &req.action else { panic!("expected solve") };
        assert_eq!(*solver, SolverKind::Greedy);
        assert_eq!(*seed, 3);
        let InstanceSource::Inline(inst) = source else { panic!("expected inline") };
        assert_eq!(inst.num_facilities(), 2);
        assert_eq!(inst.num_clients(), 2);
        assert_eq!(req.span_id, span_id(INLINE.as_bytes()));
    }

    #[test]
    fn parses_an_orlib_request_lazily() {
        let line = r#"{"id":"x","solver":"jv","orlib":"2 1\n0 4\n0 3\n0\n1 2\n"}"#;
        let Parsed::Request(req) = parse_line(line).unwrap() else { panic!() };
        let Action::Solve { seed, source, .. } = &req.action else { panic!("expected solve") };
        assert!(matches!(source, InstanceSource::OrLib(_)));
        assert_eq!(*seed, 0, "seed defaults to 0");
    }

    #[test]
    fn commands_parse() {
        assert_eq!(parse_line(r#"{"cmd":"ping"}"#).unwrap(), Parsed::Command(Command::Ping));
        assert_eq!(
            parse_line(r#"{"cmd":"shutdown"}"#).unwrap(),
            Parsed::Command(Command::Shutdown)
        );
        assert!(parse_line(r#"{"cmd":"reboot"}"#).is_err());
    }

    #[test]
    fn unknown_cmd_error_derives_from_the_registry() {
        // The message lists every registered verb, straight from COMMANDS,
        // so it cannot drift as verbs land.
        let err = parse_line(r#"{"cmd":"reboot"}"#).unwrap_err();
        assert_eq!(err.detail, unknown_cmd_detail());
        for name in COMMANDS {
            assert!(err.detail.contains(name), "{} missing from: {}", name, err.detail);
        }
        assert_eq!(
            unknown_cmd_detail(),
            "unknown cmd (expected ping, shutdown, create, mutate, solve or drop)"
        );
        // Every registered verb is recognized: parsing may fail on missing
        // fields, but never with the unknown-cmd message.
        for name in COMMANDS {
            let line = format!(r#"{{"cmd":"{name}"}}"#);
            if let Err(err) = parse_line(&line) {
                assert_ne!(err.detail, unknown_cmd_detail(), "cmd {name} reported as unknown");
            }
        }
    }

    #[test]
    fn session_verbs_parse() {
        let line = r#"{"cmd":"create","id":"c1","session":"s1","instance":{"opening":[4.0],"links":[[0,1.0]]}}"#;
        let Parsed::Request(req) = parse_line(line).unwrap() else { panic!() };
        assert_eq!(req.action.session(), Some("s1"));
        assert!(matches!(req.action, Action::Create { .. }));

        let line = r#"{"cmd":"mutate","id":"m1","session":"s1","delta":{"remove":[1],"reprice":[[0,0,1.5]],"add":[[1,0.25,0,2.0]]}}"#;
        let Parsed::Request(req) = parse_line(line).unwrap() else { panic!() };
        let Action::Mutate { session, delta } = &req.action else { panic!("expected mutate") };
        assert_eq!(session, "s1");
        assert_eq!(delta.remove, vec![1]);
        assert_eq!(delta.reprice, vec![(0, 0, 1.5)]);
        assert_eq!(delta.add, vec![vec![(1, 0.25), (0, 2.0)]]);

        let line = r#"{"cmd":"solve","id":"q1","session":"s1","solver":"jv","seed":9}"#;
        let Parsed::Request(req) = parse_line(line).unwrap() else { panic!() };
        let Action::SessionSolve { session, solver, seed } = &req.action else { panic!() };
        assert_eq!((session.as_str(), *solver, *seed), ("s1", SolverKind::JainVazirani, 9));

        let line = r#"{"cmd":"drop","id":"d1","session":"s1"}"#;
        let Parsed::Request(req) = parse_line(line).unwrap() else { panic!() };
        assert_eq!(req.action, Action::Drop { session: "s1".into() });
    }

    #[test]
    fn session_verbs_validate_their_fields() {
        let err = parse_line(r#"{"cmd":"mutate","id":"m1","delta":{"remove":[0]}}"#).unwrap_err();
        assert!(err.detail.contains("session"), "{}", err.detail);
        assert_eq!(err.id.as_deref(), Some("m1"));

        let err = parse_line(r#"{"cmd":"mutate","id":"m2","session":"s","delta":{}}"#).unwrap_err();
        assert!(err.detail.contains("at least one"), "{}", err.detail);

        let err =
            parse_line(r#"{"cmd":"mutate","id":"m3","session":"s","delta":{"reprice":[[0,0]]}}"#)
                .unwrap_err();
        assert!(err.detail.contains("triple"), "{}", err.detail);

        let err = parse_line(r#"{"cmd":"mutate","id":"m4","session":"s","delta":{"add":[[0]]}}"#)
            .unwrap_err();
        assert!(err.detail.contains("pairs"), "{}", err.detail);

        for bad in ["-1", "4294967296", "0.5"] {
            let line = format!(
                r#"{{"cmd":"mutate","id":"m5","session":"s","delta":{{"add":[[{bad},1.0]]}}}}"#
            );
            let err = parse_line(&line).unwrap_err();
            assert_eq!(err.kind, ErrorKind::MalformedRequest);
            assert!(err.detail.contains("non-negative integer below 2^32"), "{}", err.detail);
        }

        let err = parse_line(r#"{"cmd":"solve","id":"q","session":"s"}"#).unwrap_err();
        assert!(err.detail.contains("solver"), "{}", err.detail);
    }

    #[test]
    fn malformed_lines_keep_the_id_when_recoverable() {
        let err = parse_line(r#"{"id":"r9","solver":"simplex","orlib":"x"}"#).unwrap_err();
        assert_eq!(err.kind, ErrorKind::MalformedRequest);
        assert_eq!(err.id.as_deref(), Some("r9"));
        let err = parse_line("not json").unwrap_err();
        assert_eq!(err.kind, ErrorKind::MalformedRequest);
        assert_eq!(err.id, None);
    }

    #[test]
    fn inline_validation_is_typed_invalid_instance() {
        let line =
            r#"{"id":"r2","solver":"greedy","instance":{"opening":[1.0],"links":[[5,1.0]]}}"#;
        let err = parse_line(line).unwrap_err();
        assert_eq!(err.kind, ErrorKind::InvalidInstance);
        assert!(err.detail.contains("out of range"), "{}", err.detail);

        for bad in ["-1", "0.5"] {
            let line = format!(
                r#"{{"id":"r3","solver":"greedy","instance":{{"opening":[1.0],"links":[[{bad},1.0]]}}}}"#
            );
            let err = parse_line(&line).unwrap_err();
            assert_eq!(err.kind, ErrorKind::InvalidInstance);
            assert!(err.detail.contains("non-negative integer"), "{}", err.detail);
        }
    }

    #[test]
    fn responses_are_wellformed_json() {
        let Parsed::Request(req) = parse_line(INLINE).unwrap() else { panic!() };
        let ok = render_success(&req, SolverKind::Greedy, 3, None, 5.5, &[0, 2], Some(17));
        distfl_obs::validate_json(&ok).unwrap();
        assert!(ok.contains("\"rounds\":17"), "{ok}");
        assert!(!ok.contains("routed"), "concrete kinds must not emit routed: {ok}");
        let auto = render_success(
            &req,
            SolverKind::Auto,
            3,
            Some(SolverKind::MetricBall),
            5.5,
            &[0],
            Some(9),
        );
        distfl_obs::validate_json(&auto).unwrap();
        assert!(
            auto.contains("\"solver\":\"auto\"") && auto.contains("\"routed\":\"metricball\""),
            "{auto}"
        );
        let shape = SessionShape { facilities: 2, clients: 3, links: 5, epoch: 1 };
        let ack = render_create_ack(&req, "s1", shape);
        distfl_obs::validate_json(&ack).unwrap();
        assert!(ack.contains("\"created\":true"), "{ack}");
        let ack = render_mutate_ack(&req, "s1", shape, 1, 2, 0);
        distfl_obs::validate_json(&ack).unwrap();
        assert!(ack.contains("\"epoch\":1") && ack.contains("\"added\":2"), "{ack}");
        let ack = render_drop_ack(&req, "s1");
        distfl_obs::validate_json(&ack).unwrap();
        assert!(ack.contains("\"dropped\":true"), "{ack}");
        let err = render_error(
            &ServeError { kind: ErrorKind::QueueFull, detail: "full".into(), id: Some("a".into()) },
            7,
        );
        distfl_obs::validate_json(&err).unwrap();
        assert!(err.contains("\"kind\":\"queue_full\""), "{err}");
        assert!(err.contains("\"span\":\"0000000000000007\""), "{err}");
        distfl_obs::validate_json(&render_command_ack(Command::Ping)).unwrap();
    }

    #[test]
    fn span_ids_are_stable() {
        // FNV-1a is part of the wire contract (byte-deterministic
        // responses across restarts); pin a reference value.
        assert_eq!(span_id(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(span_id(INLINE.as_bytes()), span_id(INLINE.as_bytes()));
    }
}
