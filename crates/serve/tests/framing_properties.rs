//! Property tests pinning the pipelined-framing invariant: how the
//! kernel happens to split a byte stream into `read()` chunks must never
//! change which request lines the server sees — nor, therefore, a single
//! response byte.
//!
//! Splits are adversarial on purpose: one byte at a time, mid-JSON-escape
//! (between the `\` and the `n` of `\n` inside a string), and mid-UTF-8
//! (between the bytes of a multi-byte scalar). Framing is byte-defined
//! (everything up to `\n`), so none of these may desynchronize it.
//!
//! The lines themselves are hostile too: valid requests of every shape,
//! truncated, byte-flipped, byte-deleted, or spliced with extreme tokens,
//! must each get exactly one answer — success or a typed error — and
//! leave the pipeline answering the next line.

use proptest::prelude::*;

use distfl_serve::frame::{Framed, LineFramer};
use distfl_serve::json::Json;
use distfl_serve::proto::{self, ErrorKind, Parsed, ServeError};
use distfl_serve::scheduler;
use distfl_serve::session::SessionCache;

/// Feeds `buffer` to a fresh framer in chunks of the given sizes (cycled
/// until the buffer is consumed) and returns the framed lines in order.
fn frame_with_chunks(buffer: &[u8], sizes: &[usize]) -> Vec<Vec<u8>> {
    let mut framer = LineFramer::new(1 << 20);
    let mut lines = Vec::new();
    let mut rest = buffer;
    let mut cursor = 0usize;
    while !rest.is_empty() {
        let take = sizes[cursor % sizes.len()].clamp(1, rest.len());
        cursor += 1;
        let (chunk, after) = rest.split_at(take);
        framer.feed(chunk, &mut |framed| match framed {
            Framed::Line(line) => lines.push(line.to_vec()),
            Framed::Oversized { .. } => panic!("no oversized lines in this test"),
        });
        rest = after;
    }
    lines
}

/// Runs the framed lines through the real parse/execute pipeline and
/// renders the full response transcript (requests execute, commands ack,
/// errors render — exactly the server's per-line behavior).
fn respond(lines: &[Vec<u8>]) -> Vec<String> {
    let sessions = SessionCache::new(8);
    lines.iter().filter_map(|raw| respond_line(raw, &sessions)).collect()
}

/// The server's answer to one framed line, `None` for a blank line: a
/// line that is not UTF-8 is a typed error, a request executes, a command
/// acks, and a parse failure renders its typed error.
fn respond_line(raw: &[u8], sessions: &SessionCache) -> Option<String> {
    let Ok(text) = std::str::from_utf8(raw) else {
        let error = ServeError {
            kind: ErrorKind::MalformedRequest,
            detail: "request line is not valid UTF-8".to_owned(),
            id: None,
        };
        return Some(proto::render_error(&error, proto::span_id(raw)));
    };
    let trimmed = text.trim();
    if trimmed.is_empty() {
        return None;
    }
    Some(match proto::parse_line(trimmed) {
        Ok(Parsed::Request(request)) => scheduler::execute(&request, sessions),
        Ok(Parsed::Command(cmd)) => proto::render_command_ack(cmd),
        Err(error) => proto::render_error(&error, proto::span_id(trimmed.as_bytes())),
    })
}

/// One request line with a hostile id: multi-byte UTF-8 (é is 2 bytes,
/// 界 is 3, 𝄞 is 4) and JSON escapes (`\n`, `\"`) that a chunk boundary
/// can land inside.
fn request_line(pick: usize, seed: u64, opening: u32) -> String {
    let id = match pick % 5 {
        0 => format!("plain{seed}"),
        1 => "café-界-𝄞".to_owned(),
        2 => r"piped\nid".to_owned(),
        3 => r#"quo\"ted"#.to_owned(),
        _ => r"escéé".to_owned(),
    };
    format!(
        r#"{{"id":"{id}","solver":"greedy","seed":{seed},"instance":{{"opening":[{opening}.0],"links":[[0,1.0]]}}}}"#
    )
}

/// A full wire buffer: several lines — requests with hostile ids, blanks,
/// malformed junk, commands (the error and ack paths must be
/// split-invariant too) — newline-joined.
fn buffer_strategy() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec((0usize..7, 0u64..1000, 1u32..50), 1..10).prop_map(|items| {
        let mut buffer = Vec::new();
        for (pick, seed, opening) in items {
            let line = match pick {
                0..=3 => request_line(pick + seed as usize, seed, opening),
                4 => String::new(),
                5 => "this is not json".to_owned(),
                _ => r#"{"cmd":"ping"}"#.to_owned(),
            };
            buffer.extend_from_slice(line.as_bytes());
            buffer.push(b'\n');
        }
        buffer
    })
}

const KINDS: [&str; 7] =
    ["greedy", "local-search", "jv", "paydual", "metricball", "outliers", "auto"];

const INSTANCE: &str = r#"{"opening":[4.0,3.0],"links":[[0,1.0,1,2.0],[1,0.5]]}"#;

/// Creates session `s`.
fn create_line() -> String {
    format!(r#"{{"cmd":"create","id":"c","session":"s","instance":{INSTANCE}}}"#)
}

/// Valid request lines of every shape: a stateless solve of each kind,
/// inline and as OR-Library text, then the session verbs on session `s`.
fn valid_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for kind in KINDS {
        lines.push(format!(
            r#"{{"id":"i-{kind}","solver":"{kind}","seed":3,"instance":{INSTANCE}}}"#
        ));
        lines.push(format!(
            r#"{{"id":"o-{kind}","solver":"{kind}","orlib":"2 1\n0 4\n0 3\n0\n1 2\n"}}"#
        ));
    }
    lines.push(create_line());
    lines.push(r#"{"cmd":"mutate","id":"r","session":"s","delta":{"reprice":[[0,0,1.5]]}}"#.into());
    lines.push(
        r#"{"cmd":"mutate","id":"m","session":"s","delta":{"remove":[1],"add":[[1,0.25]]}}"#.into(),
    );
    for kind in ["greedy", "local-search", "jv"] {
        lines.push(format!(r#"{{"cmd":"solve","id":"q","session":"s","solver":"{kind}"}}"#));
    }
    lines.push(r#"{"cmd":"drop","id":"d","session":"s"}"#.into());
    lines
}

/// Tokens spliced into lines: out-of-range, negative, non-finite,
/// subnormal and 2^32 numbers, a lone surrogate escape, deep nesting.
fn hostile_tokens() -> [String; 7] {
    [
        "1e309".into(),
        "-1".into(),
        "NaN".into(),
        "5e-324".into(),
        "4294967296".into(),
        r#""\ud800""#.into(),
        "[".repeat(200),
    ]
}

/// One mutation of `line`: truncate at, flip the byte at, delete the byte
/// at, or insert a hostile token at byte `at` (wrapped to the length).
fn mutate(line: &str, class: usize, at: usize, flip: u8, token: usize) -> Vec<u8> {
    let mut bytes = line.as_bytes().to_vec();
    let at = at % (bytes.len() + 1);
    match class {
        0 => bytes.truncate(at),
        1 if at < bytes.len() => bytes[at] ^= flip.max(1),
        2 if at < bytes.len() => {
            bytes.remove(at);
        }
        _ => {
            let token = &hostile_tokens()[token];
            bytes.splice(at..at, token.bytes());
        }
    }
    // The framer splits on newlines, so a flipped-in one would frame as
    // two lines; keep each mutation one line.
    bytes.retain(|&b| b != b'\n');
    bytes
}

/// Whether `response` is one JSON line answering with success or a typed
/// error.
fn answers(response: &str) -> bool {
    let typed = [
        "malformed_request",
        "invalid_instance",
        "solver_failed",
        "unknown_session",
        "queue_full",
        "shutting_down",
        "slow_reader",
    ]
    .iter()
    .any(|kind| response.contains(&format!(r#""ok":false,"error":{{"kind":"{kind}""#)));
    !response.contains('\n')
        && distfl_obs::validate_json(response).is_ok()
        && (response.contains(r#""ok":true"#) || typed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn every_mutated_request_line_gets_one_typed_answer(
        edits in prop::collection::vec(
            (any::<usize>(), 0usize..4, any::<usize>(), any::<u8>(), 0usize..7),
            1..8,
        ),
    ) {
        let lines = valid_lines();
        let sessions = SessionCache::new(4);
        // A live session, so mutated session verbs reach a warm cache.
        let created = respond_line(create_line().as_bytes(), &sessions).unwrap();
        prop_assert!(created.contains(r#""created":true"#), "{created}");
        for (pick, class, at, flip, token) in edits {
            let line = mutate(&lines[pick % lines.len()], class, at, flip, token);
            let shown = String::from_utf8_lossy(&line).into_owned();
            match respond_line(&line, &sessions) {
                Some(response) => prop_assert!(answers(&response), "{shown} -> {response}"),
                None => prop_assert!(
                    line.iter().all(u8::is_ascii_whitespace),
                    "non-blank line got no answer: {shown}"
                ),
            }
            let pong = respond_line(br#"{"cmd":"ping"}"#, &sessions).unwrap();
            prop_assert!(pong.contains(r#""pong":true"#), "after {shown}: {pong}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn framing_is_invariant_under_arbitrary_chunk_splits(
        buffer in buffer_strategy(),
        sizes in prop::collection::vec(1usize..17, 1..32),
    ) {
        let whole = frame_with_chunks(&buffer, &[buffer.len()]);
        let split = frame_with_chunks(&buffer, &sizes);
        prop_assert_eq!(&whole, &split, "chunking changed the framed line sequence");
    }

    #[test]
    fn responses_are_byte_identical_under_chunk_splits(
        buffer in buffer_strategy(),
        sizes in prop::collection::vec(1usize..9, 1..16),
    ) {
        let whole = respond(&frame_with_chunks(&buffer, &[buffer.len()]));
        let split = respond(&frame_with_chunks(&buffer, &sizes));
        prop_assert_eq!(&whole, &split, "chunking changed response bytes");
    }
}

/// A JSON string literal for `s`.
fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A tiny deterministic generator for the restyling choices.
fn next(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Re-renders a JSON value with the variations the typed decoder either
/// decodes or hands to the tree path: every object's members in a random
/// order (so `links` may precede `opening`), `ws` around every token, and
/// in some objects a `tweak` — 1 repeats a member with another member's
/// value, 2 escapes a key's first letter (`"\u0069d"`), 3 adds an unknown
/// key.
fn restyle(value: &Json, state: &mut u64, ws: &str, tweak: u8) -> String {
    match value {
        Json::Obj(map) => {
            let mut members: Vec<(String, String)> =
                map.iter().map(|(k, v)| (quote(k), restyle(v, state, ws, tweak))).collect();
            for k in (1..members.len()).rev() {
                members.swap(k, next(state) as usize % (k + 1));
            }
            if !members.is_empty() && next(state).is_multiple_of(2) {
                let pick = next(state) as usize % members.len();
                match tweak {
                    1 => {
                        let other = next(state) as usize % members.len();
                        let repeat = (members[pick].0.clone(), members[other].1.clone());
                        let at = next(state) as usize % (members.len() + 1);
                        members.insert(at, repeat);
                    }
                    2 => {
                        let key = &mut members[pick].0;
                        let first = key[1..].chars().next().unwrap_or('x');
                        let escaped = format!("\\u{:04x}", first as u32);
                        key.replace_range(1..1 + first.len_utf8(), &escaped);
                    }
                    3 => members.insert(pick, (quote("zz"), r#"[1,{"q":null},"s",-2.5e3]"#.into())),
                    _ => {}
                }
            }
            let body: Vec<String> =
                members.iter().map(|(k, v)| format!("{ws}{k}{ws}:{ws}{v}{ws}")).collect();
            format!("{{{}}}", body.join(","))
        }
        Json::Arr(items) => {
            let body: Vec<String> =
                items.iter().map(|v| format!("{ws}{}{ws}", restyle(v, state, ws, tweak))).collect();
            format!("[{}]", body.join(","))
        }
        Json::Str(s) => quote(s),
        Json::Num(v) => format!("{v:?}"),
        Json::Bool(b) => b.to_string(),
        Json::Null => "null".into(),
    }
}

/// Every valid line: the stateless, session and command shapes, plus a
/// few more that exercise the decoder's own paths.
fn equivalence_lines() -> Vec<String> {
    let mut lines = valid_lines();
    lines.extend(
        [
            r#"{"cmd":"ping"}"#,
            r#"{"cmd":"shutdown","id":5,"extra":[1,2]}"#,
            r#"{"id":"e","solver":"jv","seed":18446744073709551615,"instance":{"links":[[0,1]],"opening":[0]}}"#,
            r#"{"id":"f","solver":"greedy","seed":1e3,"instance":{"opening":[-0.0,1E+0],"links":[[1,0.5,0,2.5e-1],[0,1]],"note":{}}}"#,
            r#"{"cmd":"mutate","id":"g","session":"s","delta":{"add":[[0,1.0,1,-2.0]],"remove":[],"x":null}}"#,
            r#"{"cmd":"create","id":"h","session":"s","orlib":"1 1\n0 1\n0\n2\n","seed":"ignored"}"#,
        ]
        .map(String::from),
    );
    lines
}

/// A line for the equivalence property: `lines[pick]` as written, or
/// restyled, then perhaps mutated; `None` when the mutation left no UTF-8
/// text (the server rejects such a line before parsing it).
fn equivalence_line(
    lines: &[String],
    pick: usize,
    style: (u8, u64, u8),
    edit: Option<(usize, usize, u8, usize)>,
) -> Option<String> {
    let (ws, state, tweak) = style;
    let line = &lines[pick % lines.len()];
    let line = match ws {
        0 => line.clone(),
        _ => {
            let ws = ["", " ", "\t \r\n", "  "][usize::from(ws) % 4];
            restyle(&Json::parse(line).unwrap(), &mut (state | 1), ws, tweak)
        }
    };
    match edit {
        None => Some(line),
        Some((class, at, flip, token)) => {
            String::from_utf8(mutate(&line, class, at, flip, token)).ok()
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn the_typed_decoder_matches_the_tree_path(
        pick in any::<usize>(),
        style in (0u8..5, any::<u64>(), 0u8..4),
        edit in prop::option::of((0usize..4, any::<usize>(), any::<u8>(), 0usize..7)),
    ) {
        let lines = equivalence_lines();
        if let Some(line) = equivalence_line(&lines, pick, style, edit) {
            prop_assert_eq!(
                proto::parse_line(&line),
                proto::parse_line_reference(&line),
                "line {}", line
            );
        }
    }
}

/// A `create` line with a 50x500 inline instance (about 0.5 MB), and a
/// 4 KB `mutate` line: both decoders agree on them and on a few mutations.
#[test]
fn the_typed_decoder_matches_the_tree_path_on_large_lines() {
    use distfl_instance::generators::{InstanceGenerator, UniformRandom};
    let inst = UniformRandom::new(50, 500).unwrap().generate(7).unwrap();
    let mut w = distfl_obs::JsonWriter::object();
    w.key("cmd").string("create");
    w.key("id").string("big");
    w.key("session").string("s");
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
    let create = w.finish();
    assert!(create.len() > 400_000, "{} bytes", create.len());

    let mut w = distfl_obs::JsonWriter::object();
    w.key("cmd").string("mutate");
    w.key("id").string("m");
    w.key("session").string("s");
    w.key("delta").begin_object();
    w.key("remove").begin_array().number_u64(3).number_u64(9).end_array();
    w.key("reprice").begin_array();
    for k in 0..180u32 {
        w.begin_array().number_u64(u64::from(k)).number_u64(u64::from(k % 50));
        w.number(0.125 + f64::from(k) * 1.37).end_array();
    }
    w.end_array();
    w.key("add").begin_array().begin_array();
    for i in 0..50u32 {
        w.number_u64(u64::from(i)).number(2.5 + f64::from(i));
    }
    w.end_array().end_array();
    w.end_object();
    let mutate_line = w.finish();
    assert!((3_500..5_000).contains(&mutate_line.len()), "{} bytes", mutate_line.len());

    for line in [&create, &mutate_line] {
        let parsed = proto::parse_line(line);
        assert!(parsed.is_ok(), "{parsed:?}");
        assert_eq!(parsed, proto::parse_line_reference(line));
        for (class, at) in [(0, line.len() / 2), (1, line.len() / 3), (2, 40), (3, line.len() - 9)]
        {
            let Ok(bad) = String::from_utf8(mutate(line, class, at, 0x20, at % 7)) else {
                continue;
            };
            assert_eq!(proto::parse_line(&bad), proto::parse_line_reference(&bad));
        }
    }
}

#[test]
fn one_byte_chunks_split_every_escape_and_utf8_scalar() {
    let buffer = "{\"id\":\"caf\u{e9}-\u{754c}-\u{1d11e}-esc\\n\\\"\",\"solver\":\"greedy\",\
         \"instance\":{\"opening\":[1.0],\"links\":[[0,1.0]]}}\n"
        .as_bytes()
        .to_vec();
    let whole = frame_with_chunks(&buffer, &[buffer.len()]);
    let bytewise = frame_with_chunks(&buffer, &[1]);
    assert_eq!(whole, bytewise);
    assert_eq!(respond(&whole), respond(&bytewise));
    assert_eq!(respond(&whole).len(), 1);
    assert!(respond(&whole)[0].contains(r#""ok":true"#), "{}", respond(&whole)[0]);
}

#[test]
fn invalid_utf8_is_framed_bytewise_and_rejected_per_line() {
    // A line that is not UTF-8 at all must still frame identically under
    // any split (framing is byte-level; validation happens per line).
    let mut buffer = Vec::new();
    buffer.extend_from_slice(&[0xff, 0xfe, 0x80]);
    buffer.push(b'\n');
    buffer.extend_from_slice(br#"{"cmd":"ping"}"#);
    buffer.push(b'\n');
    let whole = frame_with_chunks(&buffer, &[buffer.len()]);
    let bytewise = frame_with_chunks(&buffer, &[1]);
    assert_eq!(whole, bytewise);
    assert_eq!(whole.len(), 2);
    assert!(std::str::from_utf8(&whole[0]).is_err());
    assert_eq!(whole[1], br#"{"cmd":"ping"}"#);
}
