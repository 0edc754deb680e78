//! A minimal JSON value type and recursive-descent parser.
//!
//! The workspace carries no JSON dependency by design: this is its only
//! JSON *reader*, the complement of the writer ([`crate::JsonWriter`]);
//! [`crate::validate_json`] is a parse whose tree is dropped. It parses
//! one complete JSON value into a [`Json`] tree with byte-offset error
//! reporting — enough for line-delimited serve requests and for checking
//! exported documents, and deliberately nothing more (no streaming, no
//! zero-copy, no serde-style typed decoding).

use std::collections::BTreeMap;

/// Deepest nesting of arrays and objects [`Json::parse`] accepts. The
/// parser recurses once per level, so input from outside the program must
/// not choose the depth: a short line of `[` would overflow the stack.
/// The deepest serve request nests 4 levels (`{"instance":{"links":[[…]]}}`)
/// and the documents the workspace writes a few more.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
///
/// Objects preserve no duplicate keys (last wins) and are stored in a
/// [`BTreeMap`] so iteration order — and everything derived from it — is
/// deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parses exactly one JSON value from `text` (surrounding whitespace
    /// allowed, trailing data rejected).
    ///
    /// # Errors
    ///
    /// Returns a message naming the byte offset of the first syntax error,
    /// or of the first container nested deeper than 64 levels.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }

    /// Member `key` of an object, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The numeric payload as an exact non-negative integer, if this is a
    /// number with no fractional part representable in a `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= u64::MAX as f64 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if b.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", c as char, *pos))
    }
}

/// Parses one value whose enclosing containers nest `depth` levels deep.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{' | b'[') if depth >= MAX_DEPTH => {
            Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", *pos))
        }
        Some(b'{') => parse_object(b, pos, depth + 1),
        Some(b'[') => parse_array(b, pos, depth + 1),
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(b't') => parse_lit(b, pos, b"true").map(|()| Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, b"false").map(|()| Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, b"null").map(|()| Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        _ => Err(format!("expected a value at byte {}", *pos)),
    }
}

fn parse_object(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let value = parse_value(b, pos, depth)?;
        map.insert(key, value);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    let mut run = *pos;
    loop {
        match b.get(*pos) {
            Some(b'"') => {
                out.push_str(utf8_slice(b, run, *pos)?);
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                out.push_str(utf8_slice(b, run, *pos)?);
                *pos += 1;
                let escaped = match b.get(*pos) {
                    Some(b'"') => '"',
                    Some(b'\\') => '\\',
                    Some(b'/') => '/',
                    Some(b'b') => '\u{8}',
                    Some(b'f') => '\u{c}',
                    Some(b'n') => '\n',
                    Some(b'r') => '\r',
                    Some(b't') => '\t',
                    Some(b'u') => {
                        *pos += 1;
                        let unit = parse_hex4(b, pos)?;
                        // Decode a surrogate pair if a high surrogate is
                        // followed by \uXXXX with a low surrogate.
                        let c = if (0xD800..0xDC00).contains(&unit) {
                            if b.get(*pos) == Some(&b'\\') && b.get(*pos + 1) == Some(&b'u') {
                                *pos += 2;
                                let low = parse_hex4(b, pos)?;
                                let combined = 0x10000
                                    + ((u32::from(unit) - 0xD800) << 10)
                                    + (u32::from(low).wrapping_sub(0xDC00));
                                char::from_u32(combined)
                                    .ok_or_else(|| format!("bad surrogate pair at byte {}", *pos))?
                            } else {
                                return Err(format!("lone surrogate at byte {}", *pos));
                            }
                        } else {
                            char::from_u32(u32::from(unit))
                                .ok_or_else(|| format!("bad \\u escape at byte {}", *pos))?
                        };
                        out.push(c);
                        run = *pos;
                        continue;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                };
                out.push(escaped);
                *pos += 1;
                run = *pos;
            }
            Some(c) if *c < 0x20 => return Err(format!("raw control char at byte {}", *pos)),
            Some(_) => *pos += 1,
            None => return Err("unterminated string".to_owned()),
        }
    }
}

/// The bytes `b[from..to]` as UTF-8 text.
fn utf8_slice(b: &[u8], from: usize, to: usize) -> Result<&str, String> {
    std::str::from_utf8(&b[from..to]).map_err(|_| format!("invalid UTF-8 near byte {from}"))
}

/// Four hex digits at `pos`, advancing past them.
fn parse_hex4(b: &[u8], pos: &mut usize) -> Result<u16, String> {
    if b.len() < *pos + 4 {
        return Err(format!("bad \\u escape at byte {}", *pos));
    }
    let text = utf8_slice(b, *pos, *pos + 4)?;
    let unit =
        u16::from_str_radix(text, 16).map_err(|_| format!("bad \\u escape at byte {}", *pos))?;
    *pos += 4;
    Ok(unit)
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &[u8]) -> Result<(), String> {
    if b.len() >= *pos + lit.len() && &b[*pos..*pos + lit.len()] == lit {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits = |b: &[u8], pos: &mut usize| {
        let from = *pos;
        while *pos < b.len() && b[*pos].is_ascii_digit() {
            *pos += 1;
        }
        *pos > from
    };
    let int_start = *pos;
    if !digits(b, pos) {
        return Err(format!("bad number at byte {start}"));
    }
    if b[int_start] == b'0' && *pos > int_start + 1 {
        return Err(format!("leading zero at byte {start}"));
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !digits(b, pos) {
            return Err(format!("bad number at byte {start}"));
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !digits(b, pos) {
            return Err(format!("bad number at byte {start}"));
        }
    }
    let text = utf8_slice(b, start, *pos)?;
    let value = text.parse::<f64>().map_err(|_| format!("bad number at byte {start}"))?;
    Ok(Json::Num(value))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_values() {
        let v = Json::parse(r#" {"a":[1,-2.5e1,true,null],"b":{"c":"x"}} "#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[1].as_f64(), Some(-25.0));
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[3], Json::Null);
    }

    #[test]
    fn decodes_escapes_and_surrogate_pairs() {
        let v = Json::parse(r#""a\n\"\\\u0041\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("a\n\"\\A\u{1F600}"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in
            ["", "{", "{\"a\":}", "[1,]", "{\"a\":1} extra", "\"\\ud800\"", "01", "nul", "--1"]
        {
            assert!(Json::parse(bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn round_trips_the_obs_writer_output() {
        let mut w = crate::JsonWriter::object();
        w.key("s").string("a\"b\nc");
        w.key("n").number(1.5);
        w.key("arr").begin_array();
        w.number_u64(7).boolean(false).null();
        let text = w.finish();
        let v = Json::parse(&text).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some("a\"b\nc"));
        assert_eq!(v.get("n").unwrap().as_f64(), Some(1.5));
        assert_eq!(v.get("arr").unwrap().as_array().unwrap().len(), 3);
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        // Far past the cap the parser stops at the cap: no deep recursion.
        assert!(Json::parse(&"[".repeat(1_000_000)).is_err());
        assert!(Json::parse(&r#"{"a":"#.repeat(MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn as_u64_rejects_fractions_and_negatives() {
        assert_eq!(Json::parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(Json::parse("4.5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("-1").unwrap().as_u64(), None);
    }
}
