//! The equivalence oracle of `proto::parse_line`: the tree decoder it
//! replaced. [`parse_line_reference`] parses a whole line into a [`Json`]
//! tree and then looks each field up, so which error a line gets, and its
//! kind, detail and id, follow from a few lines per field. The properties
//! in `framing_properties.rs` check that the one-pass decoder answers
//! every line exactly as this does.

use distfl_core::SolverKind;
use distfl_instance::{Cost, FacilityId, Instance, InstanceBuilder};
use distfl_serve::json::Json;
use distfl_serve::proto::{
    span_id, unknown_cmd_detail, Action, Command, DeltaSpec, ErrorKind, InstanceSource, Parsed,
    Request, ServeError,
};

/// Limit on request ids and session names.
const MAX_ID_LEN: usize = 128;

/// Why a request's seed was refused.
const SEED_DETAIL: &str = "seed must be a non-negative integer below 2^53";

/// How each `cmd` verb is handled.
#[derive(Clone, Copy)]
enum Verb {
    Control(Command),
    Create,
    Mutate,
    SessionSolve,
    Drop,
}

/// Wire name -> handling.
const VERBS: [(&str, Verb); 6] = [
    ("ping", Verb::Control(Command::Ping)),
    ("shutdown", Verb::Control(Command::Shutdown)),
    ("create", Verb::Create),
    ("mutate", Verb::Mutate),
    ("solve", Verb::SessionSolve),
    ("drop", Verb::Drop),
];

/// A malformed-request error with no recovered id.
fn malformed(detail: impl Into<String>) -> ServeError {
    ServeError { kind: ErrorKind::MalformedRequest, detail: detail.into(), id: None }
}

/// [`Json::parse`] the whole line, then look each field up: `cmd`, `id`,
/// `session`, then the action's fields, each error after `id` carrying
/// the id.
pub fn parse_line_reference(line: &str) -> Result<Parsed, ServeError> {
    let value =
        Json::parse(line).map_err(|e| malformed(format!("request is not valid JSON: {e}")))?;
    if let Some(cmd) = value.get("cmd") {
        let verb = cmd
            .as_str()
            .and_then(|name| VERBS.iter().find(|(n, _)| *n == name))
            .map(|&(_, verb)| verb)
            .ok_or_else(|| malformed(unknown_cmd_detail()))?;
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
        Some(Json::Str(_)) => Err(malformed(format!("id must be 1..={MAX_ID_LEN} characters"))),
        Some(_) => Err(malformed("id must be a string")),
        None => Err(malformed("missing field: id")),
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
        Some(v) => v
            .as_f64()
            .and_then(seed_of)
            .ok_or_else(|| fail(ErrorKind::MalformedRequest, SEED_DETAIL.into())),
    }
}

/// The seed a number names: a non-negative integer below 2^53.
fn seed_of(v: f64) -> Option<u64> {
    (v >= 0.0 && v.fract() == 0.0 && v < 9_007_199_254_740_992.0).then_some(v as u64)
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
