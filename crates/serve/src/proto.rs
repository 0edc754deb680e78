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
//! `seed` is optional (default 0) and only affects randomized solvers. It
//! must be a non-negative integer below 2^53: requests are read as JSON
//! numbers (`f64`), which hold every such integer exactly, and a larger
//! seed is refused as `malformed_request` rather than silently rounded.
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
//!
//! **One decoder.** [`parse_line`] decodes a line in one pass of the
//! workspace's JSON [`Cursor`] and builds no tree: the numbers of an
//! inline instance go straight into the client-major lanes of a
//! [`RowBuilder`], a `delta` straight into its [`DeltaSpec`], and an
//! `orlib` string is decoded once and moved into the request. The pass
//! always reaches the end of the line, so a syntax error anywhere wins.
//! Along the way each member keeps its last value, or the first fault
//! found in it: a read that meets a value of another type rewinds and
//! skips that value, and the skip either fails with the syntax error a
//! tree parse reports there, or shows a type fault. A client's row of
//! links is linked in one read and read again only when it holds a fault.
//! After the line, the faults are checked in a fixed order (`cmd`, `id`,
//! `session`, then the action's fields). The tree decoder this replaced
//! lives on in `tests/support` as the oracle of the equivalence
//! properties in `tests/framing_properties.rs`, which pin every error
//! byte to it: kind, detail, which error wins, and the id it carries.

use std::borrow::Cow;

use distfl_core::SolverKind;
use distfl_instance::{Cost, FacilityId, Instance, RowBuilder};
use distfl_obs::JsonWriter;

use crate::json::Cursor;

/// Limit on request ids, to keep response lines and span labels bounded.
const MAX_ID_LEN: usize = 128;

/// How a request supplies its instance.
#[derive(Debug, Clone, PartialEq)]
pub enum InstanceSource {
    /// Inline `{"opening":[...],"links":[[...]]}` object, already
    /// validated and built while the line was decoded; the scheduler
    /// solves it in place, without a copy.
    Inline(Instance),
    /// An OR-Library text payload, decoded from its JSON string once and
    /// parsed on the worker (so oversized payloads do not stall the
    /// reactor thread).
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
/// Decodes the line in one pass of the reader's [`Cursor`]: numbers go
/// straight into the instance's lanes (through a [`RowBuilder`]) or the
/// [`DeltaSpec`], and the OR-Library string is decoded once and moved.
/// The pass always reaches the end of the line, so a syntax error
/// anywhere wins. Each member keeps its last value, or the first fault
/// found in it, and the faults are then checked in a fixed order: `cmd`,
/// `id`, `session`, then the action's own fields.
///
/// # Errors
///
/// Returns a typed [`ServeError`] (always `malformed_request` or
/// `invalid_instance`) carrying the request id when it was recoverable.
pub fn parse_line(line: &str) -> Result<Parsed, ServeError> {
    let mut c = Cursor::new(line);
    let mut m = Members::default();
    if let Err(e) = members(&mut c, &mut m).and_then(|()| c.end()) {
        return Err(ServeError::malformed(format!("request is not valid JSON: {e}")));
    }
    request(m, line)
}

/// A step of the decode: `Err` is the line's syntax error, which ends the
/// decode, since it wins over every other fault.
type Scan<T> = Result<T, String>;

/// A value decoded from well-formed JSON: the value, or the detail of its
/// first fault.
type Checked<T> = Result<T, String>;

/// The members of a request object, as the last occurrence of each left
/// them. A string or number member is `None` when absent and `Some(None)`
/// when its value has another JSON type.
#[derive(Default)]
struct Members<'a> {
    cmd: Option<Option<Cow<'a, str>>>,
    id: Option<Option<Cow<'a, str>>>,
    session: Option<Option<Cow<'a, str>>>,
    solver: Option<Option<Cow<'a, str>>>,
    orlib: Option<Option<Cow<'a, str>>>,
    seed: Option<Option<f64>>,
    instance: Option<Checked<Instance>>,
    delta: Option<Checked<DeltaSpec>>,
}

/// Reads the members of a request object, checking the syntax of all of
/// it. A root that is not an object has no members.
fn members<'a>(c: &mut Cursor<'a>, m: &mut Members<'a>) -> Scan<()> {
    let Some(mut more) = typed(c, Cursor::begin_object)? else {
        return Ok(());
    };
    while more {
        match &*c.key()? {
            "cmd" => m.cmd = Some(typed(c, Cursor::string)?),
            "id" => m.id = Some(typed(c, Cursor::string)?),
            "session" => m.session = Some(typed(c, Cursor::string)?),
            "solver" => m.solver = Some(typed(c, Cursor::string)?),
            "orlib" => m.orlib = Some(typed(c, Cursor::string)?),
            "seed" => m.seed = Some(typed(c, Cursor::number)?),
            "instance" => m.instance = Some(instance(c)?),
            "delta" => m.delta = Some(delta(c)?),
            _ => c.skip_value()?,
        }
        more = c.next_member()?;
    }
    Ok(())
}

/// The request the members name, or the error of the first faulty field:
/// `cmd` (a control verb needs nothing else), then `id`, then the
/// action's fields, each error after `id` carrying the id.
fn request(mut m: Members<'_>, line: &str) -> Result<Parsed, ServeError> {
    let verb = match m.cmd.take() {
        None => None,
        Some(cmd) => match cmd.and_then(|name| VERBS.iter().find(|(n, _)| *n == name)) {
            Some(&(_, Verb::Control(command))) => return Ok(Parsed::Command(command)),
            Some(&(_, verb)) => Some(verb),
            None => return Err(ServeError::malformed(unknown_cmd_detail())),
        },
    };
    let id = match m.id.take() {
        Some(Some(id)) if is_name(&id) => id.into_owned(),
        Some(Some(_)) => {
            return Err(ServeError::malformed(format!("id must be 1..={MAX_ID_LEN} characters")))
        }
        Some(None) => return Err(ServeError::malformed("id must be a string")),
        None => return Err(ServeError::malformed("missing field: id")),
    };
    match action(verb, m) {
        Ok(action) => {
            Ok(Parsed::Request(Box::new(Request { id, action, span_id: span_id(line.as_bytes()) })))
        }
        Err(error) => Err(ServeError { id: Some(id), ..error }),
    }
}

/// The action of a request whose verb is `verb` (`None`: a stateless
/// solve), or the error of its first faulty field.
fn action(verb: Option<Verb>, m: Members<'_>) -> Result<Action, ServeError> {
    let Some(verb) = verb else {
        return Ok(Action::Solve {
            solver: solver(m.solver)?,
            seed: seed(m.seed)?,
            source: source(m.instance, m.orlib)?,
        });
    };
    let session = match m.session {
        Some(Some(name)) if is_name(&name) => name.into_owned(),
        Some(_) => {
            return Err(ServeError::malformed(format!(
                "session must be a string of 1..={MAX_ID_LEN} characters"
            )))
        }
        None => return Err(ServeError::malformed("missing field: session")),
    };
    Ok(match verb {
        Verb::Control(_) => unreachable!("control verbs are answered before any field is read"),
        Verb::Create => Action::Create { session, source: source(m.instance, m.orlib)? },
        Verb::Mutate => {
            let delta = m.delta.ok_or_else(|| ServeError::malformed("missing field: delta"))?;
            Action::Mutate { session, delta: delta.map_err(ServeError::malformed)? }
        }
        Verb::SessionSolve => {
            Action::SessionSolve { session, solver: solver(m.solver)?, seed: seed(m.seed)? }
        }
        Verb::Drop => Action::Drop { session },
    })
}

/// Whether `name` may be a request id or session name.
fn is_name(name: &str) -> bool {
    !name.is_empty() && name.len() <= MAX_ID_LEN
}

/// The `solver` member; a value that is not a string counts as missing.
fn solver(value: Option<Option<Cow<'_, str>>>) -> Result<SolverKind, ServeError> {
    match value.flatten() {
        Some(name) => {
            name.parse().map_err(|e: distfl_core::CoreError| ServeError::malformed(e.to_string()))
        }
        None => Err(ServeError::malformed("missing field: solver")),
    }
}

/// The optional `seed` member (default 0).
fn seed(value: Option<Option<f64>>) -> Result<u64, ServeError> {
    match value {
        None => Ok(0),
        Some(v) => v.and_then(seed_of).ok_or_else(|| ServeError::malformed(SEED_DETAIL)),
    }
}

/// Why a request's seed was refused.
const SEED_DETAIL: &str = "seed must be a non-negative integer below 2^53";

/// The seed a number names: a non-negative integer below 2^53. Numbers
/// are read as `f64`, which holds every integer below 2^53 exactly but
/// not every one above it (9007199254740993 reads as 2^53), so a larger
/// seed is refused rather than silently changed.
fn seed_of(v: f64) -> Option<u64> {
    (v >= 0.0 && v.fract() == 0.0 && v < 9_007_199_254_740_992.0).then_some(v as u64)
}

/// The instance payload: `instance` inline or `orlib` text, not both.
fn source(
    instance: Option<Checked<Instance>>,
    orlib: Option<Option<Cow<'_, str>>>,
) -> Result<InstanceSource, ServeError> {
    match (instance, orlib) {
        (Some(inline), None) => inline.map(InstanceSource::Inline).map_err(|detail| ServeError {
            kind: ErrorKind::InvalidInstance,
            detail,
            id: None,
        }),
        (None, Some(Some(payload))) => Ok(InstanceSource::OrLib(payload.into_owned())),
        (None, Some(None)) => Err(ServeError::malformed("orlib must be a string")),
        (Some(_), Some(_)) => Err(ServeError::malformed("give either instance or orlib, not both")),
        (None, None) => Err(ServeError::malformed("missing field: instance or orlib")),
    }
}

/// Reads one value with `read`, or skips a value `read` refuses and
/// returns `None`. The skip starts again where the value starts, so when
/// it fails its error is the line's syntax error, the message and byte
/// offset a tree parse reports; when it passes, the value only has
/// another type. A value `read` accepts is read once.
fn typed<'a, T>(
    c: &mut Cursor<'a>,
    read: impl FnOnce(&mut Cursor<'a>) -> Result<T, String>,
) -> Scan<Option<T>> {
    let start = c.clone();
    match read(c) {
        Ok(value) => Ok(Some(value)),
        Err(_) => {
            *c = start;
            c.skip_value().map(|()| None)
        }
    }
}

/// Reads an array, handing the cursor to `element` at each element.
/// Returns `false`, the value skipped, when it is not an array.
fn array<'a>(
    c: &mut Cursor<'a>,
    mut element: impl FnMut(&mut Cursor<'a>) -> Scan<()>,
) -> Scan<bool> {
    let Some(mut more) = typed(c, Cursor::begin_array)? else {
        return Ok(false);
    };
    while more {
        element(c)?;
        more = c.next_element()?;
    }
    Ok(true)
}

/// Reads an array into the items `item` decodes, given each element and
/// its index, or into the first fault `item` finds (the elements after it
/// are only skipped). `None` when the value is not an array.
fn list<'a, T>(
    c: &mut Cursor<'a>,
    mut item: impl FnMut(&mut Cursor<'a>, usize) -> Scan<Checked<T>>,
) -> Scan<Option<Checked<Vec<T>>>> {
    let mut items = Ok(Vec::new());
    let is_array = array(c, |c| {
        match &mut items {
            Ok(done) => match item(c, done.len())? {
                Ok(value) => done.push(value),
                Err(fault) => items = Err(fault),
            },
            Err(_) => c.skip_value()?,
        }
        Ok(())
    })?;
    Ok(is_array.then_some(items))
}

/// Reads row `index` of `what`, a `[facility, cost, ...]` pair list,
/// handing each pair's values (`None`: not a number) to `pair` until one
/// fails. The row's fault is, in this order: it is not an array, its
/// length is odd, or the first failure of `pair`.
fn pairs(
    c: &mut Cursor<'_>,
    what: &str,
    index: usize,
    mut pair: impl FnMut(Option<f64>, Option<f64>) -> Checked<()>,
) -> Scan<Checked<()>> {
    let Some(mut more) = typed(c, Cursor::begin_array)? else {
        return Ok(Err(format!("{what}[{index}] is not a pair array")));
    };
    let mut fault = Ok(());
    while more {
        let facility = typed(c, Cursor::number)?;
        if !c.next_element()? {
            return Ok(Err(format!("{what}[{index}] must hold (facility, cost) pairs")));
        }
        let cost = typed(c, Cursor::number)?;
        if fault.is_ok() {
            fault = pair(facility, cost);
        }
        more = c.next_element()?;
    }
    Ok(fault)
}

/// A number that is an exact integer in `0..2^64`.
fn whole(v: f64) -> Option<u64> {
    // `u64::MAX as f64` rounds up to 2^64, the first value out of range.
    (v >= 0.0 && v.fract() == 0.0 && v < u64::MAX as f64).then_some(v as u64)
}

/// A number that is a wire id: an exact integer in `0..2^32`.
fn wire_id(v: Option<f64>) -> Option<u32> {
    v.and_then(whole).and_then(|v| u32::try_from(v).ok())
}

/// Why an inline instance has no `opening` array.
const NO_OPENING: &str = "instance.opening must be an array of opening costs";

/// Why an inline instance with an `opening` array has no `links` array.
const NO_LINKS: &str = "instance.links must be an array (one pair list per client)";

/// Decodes an `instance` value into the instance it describes, or the
/// first fault of these checks: an `opening` array, a `links` array, each
/// opening cost, each client's row, then the instance's own rules
/// ([`RowBuilder::build`]). When `opening` comes once and before `links`,
/// as it usually does, the links go straight into the lanes; otherwise
/// the last of each is decoded after the object, from a cursor at its
/// start.
fn instance(c: &mut Cursor<'_>) -> Scan<Checked<Instance>> {
    let Some(mut more) = typed(c, Cursor::begin_object)? else {
        return Ok(Err(NO_OPENING.into()));
    };
    let (mut opening_at, mut links_at) = (None, None);
    // The last `opening` read, until links decoded against it take it.
    let mut opening = None;
    // The instance from links decoded against the last `opening`.
    let mut built = None;
    while more {
        match &*c.key()? {
            "opening" => {
                opening_at = Some(c.clone());
                opening = Some(opening_costs(c)?);
                built = None;
            }
            "links" => {
                links_at = Some(c.clone());
                built = match opening.take() {
                    Some(Some(costs)) => Some(links(c, costs)?),
                    // An `opening` that is not an array settles it.
                    taken => {
                        c.skip_value()?;
                        taken.map(|_| Err(NO_OPENING.into()))
                    }
                };
            }
            _ => c.skip_value()?,
        }
        more = c.next_member()?;
    }
    if let Some(built) = built {
        return Ok(built);
    }
    let opening = match opening {
        Some(costs) => Some(costs),
        None => opening_at.map(|mut at| opening_costs(&mut at)).transpose()?,
    };
    match (opening, links_at) {
        (Some(Some(costs)), Some(mut at)) => links(&mut at, costs),
        (Some(Some(_)), None) => Ok(Err(NO_LINKS.into())),
        _ => Ok(Err(NO_OPENING.into())),
    }
}

/// Decodes an `opening` array into its costs, or its first fault; `None`
/// when the value is not an array.
fn opening_costs(c: &mut Cursor<'_>) -> Scan<Option<Checked<Vec<Cost>>>> {
    list(c, |c, index| {
        Ok(match typed(c, Cursor::number)? {
            Some(cost) => Cost::new(cost).map_err(|e| format!("opening[{index}]: {e}")),
            None => Err(format!("opening[{index}] is not a number")),
        })
    })
}

/// Decodes a `links` value against an `opening` array (its costs, or its
/// first fault), one row per client, straight into a [`RowBuilder`]. A
/// well-formed row is read once, by [`link_row`]; a row it gives up on is
/// read again from its start by [`row_fault`], which finds the row's
/// first fault.
fn links(c: &mut Cursor<'_>, opening: Checked<Vec<Cost>>) -> Scan<Checked<Instance>> {
    let facilities = opening.as_ref().map_or(0, Vec::len);
    // The rows so far, or the first fault.
    let mut rows = opening.map(RowBuilder::new);
    let is_array = array(c, |c| {
        let Ok(builder) = &mut rows else {
            return c.skip_value();
        };
        let j = builder.add_client().index();
        let (start, mut linked) = (c.clone(), 0);
        if link_row(c, builder, facilities, &mut linked).is_none() {
            *c = start;
            if let Err(fault) = row_fault(c, builder, facilities, j, linked)? {
                rows = Err(fault);
            }
        }
        Ok(())
    })?;
    if !is_array {
        return Ok(Err(NO_LINKS.into()));
    }
    Ok(rows.and_then(|rows| rows.build().map_err(|e| e.to_string())))
}

/// Links a `[facility, cost, ...]` row into `rows`, counting the pairs
/// `linked`. `None` at the first token, index, cost or link that is not
/// as a well-formed row has it, which leaves the cursor anywhere.
fn link_row(
    c: &mut Cursor<'_>,
    rows: &mut RowBuilder,
    facilities: usize,
    linked: &mut usize,
) -> Option<()> {
    if c.begin_array().ok()? {
        loop {
            let i = c.number().ok().and_then(whole).filter(|&i| i < facilities as u64)?;
            c.next_element().ok()?.then_some(())?;
            let cost = Cost::new(c.number().ok()?).ok()?;
            rows.link(FacilityId::new(i as u32), cost).ok()?;
            *linked += 1;
            if !c.next_element().ok()? {
                break;
            }
        }
    }
    Some(())
}

/// Reads client `j`'s row again from its start, after [`link_row`] gave
/// up on it with its first `linked` pairs linked: checks and links the
/// pairs after those, and returns the row's first fault (or its syntax
/// error). At most one row of a line gets here.
#[cold]
fn row_fault(
    c: &mut Cursor<'_>,
    rows: &mut RowBuilder,
    facilities: usize,
    j: usize,
    linked: usize,
) -> Scan<Checked<()>> {
    let mut read = 0;
    pairs(c, "links", j, |facility, cost| {
        read += 1;
        if read <= linked {
            return Ok(());
        }
        let i = facility
            .and_then(whole)
            .ok_or_else(|| format!("links[{j}]: facility index is not a non-negative integer"))?;
        if i >= facilities as u64 {
            return Err(format!(
                "links[{j}]: facility index {i} out of range ({facilities} facilities)"
            ));
        }
        let cost = cost.ok_or_else(|| format!("links[{j}]: cost is not a number"))?;
        let cost = Cost::new(cost).map_err(|e| format!("links[{j}]: {e}"))?;
        rows.link(FacilityId::new(i as u32), cost).map_err(|e| format!("links[{j}]: {e}"))
    })
}

/// Decodes a `delta` value into its [`DeltaSpec`], or the first fault of
/// these checks: `remove`, `reprice`, `add` (each item by index), then
/// that the delta is not empty. A value that is not an object is empty.
fn delta(c: &mut Cursor<'_>) -> Scan<Checked<DeltaSpec>> {
    let (mut remove, mut reprice, mut add) = (None, None, None);
    if let Some(mut more) = typed(c, Cursor::begin_object)? {
        while more {
            match &*c.key()? {
                "remove" => remove = Some(delta_list(c, "remove", "client ids", remove_item)?),
                "reprice" => {
                    let what = "[client, facility, cost] triples";
                    reprice = Some(delta_list(c, "reprice", what, reprice_item)?);
                }
                "add" => {
                    add = Some(delta_list(c, "add", "[facility, cost, ...] pair lists", add_item)?);
                }
                _ => c.skip_value()?,
            }
            more = c.next_member()?;
        }
    }
    let spec = || {
        let spec = DeltaSpec {
            remove: remove.transpose()?.unwrap_or_default(),
            reprice: reprice.transpose()?.unwrap_or_default(),
            add: add.transpose()?.unwrap_or_default(),
        };
        if spec.remove.is_empty() && spec.reprice.is_empty() && spec.add.is_empty() {
            return Err("delta must carry at least one of remove, reprice, add".to_owned());
        }
        Ok(spec)
    };
    Ok(spec())
}

/// Member `key` of a delta: an array of `what`, each element decoded by
/// `item`.
fn delta_list<'a, T>(
    c: &mut Cursor<'a>,
    key: &str,
    what: &str,
    item: impl FnMut(&mut Cursor<'a>, usize) -> Scan<Checked<T>>,
) -> Scan<Checked<Vec<T>>> {
    let items = list(c, item)?;
    Ok(items.unwrap_or_else(|| Err(format!("delta.{key} must be an array of {what}"))))
}

/// Item `index` of `delta.remove`: a client id.
fn remove_item(c: &mut Cursor<'_>, index: usize) -> Scan<Checked<u32>> {
    let id = wire_id(typed(c, Cursor::number)?);
    Ok(id.ok_or_else(|| format!("delta.remove[{index}] is not a client id")))
}

/// Item `index` of `delta.reprice`: a `[client, facility, cost]` triple.
fn reprice_item(c: &mut Cursor<'_>, index: usize) -> Scan<Checked<(u32, u32, f64)>> {
    let (mut values, mut len) = ([None; 3], 0);
    let is_array = array(c, |c| {
        let value = typed(c, Cursor::number)?;
        if let Some(slot) = values.get_mut(len) {
            *slot = value;
        }
        len += 1;
        Ok(())
    })?;
    let [j, i, cost] = values;
    Ok(match (wire_id(j), wire_id(i), cost) {
        (Some(j), Some(i), Some(cost)) if is_array && len == 3 => Ok((j, i, cost)),
        _ => Err(format!("delta.reprice[{index}] must be a [client, facility, cost] triple")),
    })
}

/// Item `index` of `delta.add`: a new client's `[facility, cost, ...]`
/// pairs, at least one.
fn add_item(c: &mut Cursor<'_>, index: usize) -> Scan<Checked<Vec<(u32, f64)>>> {
    let mut links = Vec::new();
    let row = pairs(c, "delta.add", index, |facility, cost| {
        let i = wire_id(facility).ok_or_else(|| {
            format!("delta.add[{index}]: facility index is not a non-negative integer below 2^32")
        })?;
        let cost = cost.ok_or_else(|| format!("delta.add[{index}]: cost is not a number"))?;
        links.push((i, cost));
        Ok(())
    })?;
    Ok(row.and_then(|()| {
        if links.is_empty() {
            return Err(format!("delta.add[{index}] must hold (facility, cost) pairs"));
        }
        Ok(links)
    }))
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
    fn seeds_are_integers_below_two_to_the_53() {
        let line = |seed: &str| {
            format!(r#"{{"id":"s","solver":"greedy","seed":{seed},"orlib":"1 1\n0 1\n0\n1\n"}}"#)
        };
        for (seed, want) in [("0", 0), ("9007199254740991", (1 << 53) - 1)] {
            let Parsed::Request(req) = parse_line(&line(seed)).unwrap() else {
                panic!("expected a request")
            };
            assert!(matches!(req.action, Action::Solve { seed, .. } if seed == want), "{seed}");
        }
        for seed in
            ["9007199254740992", "9007199254740993", "18446744073709551615", "-1", "0.5", "\"7\""]
        {
            let err = parse_line(&line(seed)).unwrap_err();
            assert_eq!(err.kind, ErrorKind::MalformedRequest, "{seed}");
            assert_eq!(err.detail, SEED_DETAIL, "{seed}");
            assert_eq!(err.id.as_deref(), Some("s"));
        }
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
    fn an_id_with_a_bad_surrogate_pair_is_malformed() {
        let line = r#"{"id":"\ud800\u0041","solver":"greedy","instance":{"opening":[4.0],"links":[[0,1.0]]}}"#;
        let err = parse_line(line).unwrap_err();
        assert_eq!(err.kind, ErrorKind::MalformedRequest);
        assert!(err.detail.contains("bad surrogate pair"), "{}", err.detail);
    }

    #[test]
    fn inline_validation_is_typed_invalid_instance() {
        let line =
            r#"{"id":"r2","solver":"greedy","instance":{"opening":[1.0],"links":[[5,1.0]]}}"#;
        let err = parse_line(line).unwrap_err();
        assert_eq!(err.kind, ErrorKind::InvalidInstance);
        assert!(err.detail.contains("out of range"), "{}", err.detail);

        // 2^64 is the first integer past `u64::MAX`, so it is no index either.
        for bad in ["-1", "0.5", "18446744073709551616"] {
            let line = format!(
                r#"{{"id":"r3","solver":"greedy","instance":{{"opening":[1.0],"links":[[{bad},1.0]]}}}}"#
            );
            let err = parse_line(&line).unwrap_err();
            assert_eq!(err.kind, ErrorKind::InvalidInstance);
            assert_eq!(err.detail, "links[0]: facility index is not a non-negative integer");
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
