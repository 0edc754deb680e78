//! The workspace's one JSON reader: a pull [`Cursor`] over one JSON text,
//! and the [`Json`] tree built on it.
//!
//! The workspace carries no JSON dependency by design: this is its only
//! JSON *reader*, the complement of the writer ([`crate::JsonWriter`]).
//! Both ways of reading share one tokenizer:
//!
//! - [`Cursor`] streams a text token by token (object keys, strings,
//!   numbers, array elements, skipping a value, end of input). A caller
//!   that knows the shape it expects decodes straight into its own types
//!   and allocates nothing per number; strings without escapes are
//!   borrowed from the text. Skipping a value builds no tree, and
//!   [`crate::validate_json`] is a skip of the whole text.
//! - [`Json::parse`] drives the same cursor to build a tree, for callers
//!   that want to look values up by key.
//!
//! Either way, nesting is capped at 64 levels and errors name the byte
//! offset of the first problem. A number is read in one scan by the
//! exact decimal reader ([`crate::Decimal`]), which hands only literals
//! of more than 19 digits or an exponent outside −22..=22 to
//! `str::parse`; every value is `str::parse`'s to the bit. A string skips
//! its plain bytes eight at a time. Deliberately absent: incremental
//! input (the text is one complete value in memory) and serde-style
//! derive.

use std::borrow::Cow;
use std::collections::BTreeMap;

use crate::Decimal;

/// Deepest nesting of arrays and objects the reader accepts. The tree
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
        let mut cursor = Cursor::new(text);
        let value = cursor.value()?;
        cursor.end()?;
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
            // `u64::MAX as f64` rounds up to 2^64, the first value out of range.
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v < u64::MAX as f64 => {
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

/// A pull cursor over one JSON text.
///
/// Each method skips leading whitespace, reads one token and leaves the
/// cursor after it. A caller walks an object as
///
/// ```
/// use distfl_obs::Cursor;
///
/// let mut c = Cursor::new(r#"{"a":[1,2],"b":"x"}"#);
/// let mut sum = 0.0;
/// if c.begin_object()? {
///     loop {
///         match c.key()?.as_ref() {
///             "a" => {
///                 if c.begin_array()? {
///                     loop {
///                         sum += c.number()?;
///                         if !c.next_element()? {
///                             break;
///                         }
///                     }
///                 }
///             }
///             _ => c.skip_value()?,
///         }
///         if !c.next_member()? {
///             break;
///         }
///     }
/// }
/// c.end()?;
/// assert_eq!(sum, 3.0);
/// # Ok::<(), String>(())
/// ```
///
/// Errors are the messages [`Json::parse`] reports, with the byte offset
/// of the problem. After an error the cursor's position is unspecified;
/// a clone taken before a read can rewind to it.
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    text: &'a str,
    pos: usize,
    /// Containers opened and not yet closed.
    depth: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `text`.
    pub fn new(text: &'a str) -> Cursor<'a> {
        Cursor { text, pos: 0, depth: 0 }
    }

    /// Skips whitespace and returns the next byte without consuming it
    /// (`None` at the end of input).
    #[inline]
    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes().get(self.pos).copied()
    }

    /// Opens an object. Returns whether it has a first member (read it
    /// with [`Cursor::key`]); an empty object is already closed.
    ///
    /// # Errors
    ///
    /// The next token is not `{`, or the object would nest deeper than 64
    /// levels.
    pub fn begin_object(&mut self) -> Result<bool, String> {
        self.open(b'{', b'}')
    }

    /// Reads a member key and the `:` after it.
    ///
    /// # Errors
    ///
    /// The next token is not a string followed by `:`.
    pub fn key(&mut self) -> Result<Cow<'a, str>, String> {
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        Ok(key)
    }

    /// Reads the `,` or `}` after an object member. Returns `true` when
    /// another member follows.
    ///
    /// # Errors
    ///
    /// The next token is neither `,` nor `}`.
    pub fn next_member(&mut self) -> Result<bool, String> {
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            Some(b'}') => {
                self.pos += 1;
                self.depth -= 1;
                Ok(false)
            }
            _ => Err(format!("expected ',' or '}}' at byte {}", self.pos)),
        }
    }

    /// Opens an array. Returns whether it has a first element; an empty
    /// array is already closed.
    ///
    /// # Errors
    ///
    /// The next token is not `[`, or the array would nest deeper than 64
    /// levels.
    pub fn begin_array(&mut self) -> Result<bool, String> {
        self.open(b'[', b']')
    }

    /// Reads the `,` or `]` after an array element. Returns `true` when
    /// another element follows.
    ///
    /// # Errors
    ///
    /// The next token is neither `,` nor `]`.
    #[inline]
    pub fn next_element(&mut self) -> Result<bool, String> {
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            Some(b']') => {
                self.pos += 1;
                self.depth -= 1;
                Ok(false)
            }
            _ => Err(format!("expected ',' or ']' at byte {}", self.pos)),
        }
    }

    /// Reads a string, decoding escapes. The result borrows the text
    /// unless the string holds an escape.
    ///
    /// # Errors
    ///
    /// The next token is not a well-formed string.
    pub fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.skip_ws();
        self.expect(b'"')?;
        let b = self.bytes();
        let start = self.pos;
        // `out` collects the text up to the last escape and `run` is where
        // the text after it starts; a string without escapes is borrowed.
        let (mut out, mut run) = (String::new(), start);
        loop {
            // Skip plain bytes eight at a time, up to the first `"`, `\` or
            // control byte.
            while let Some(word) = b.get(self.pos..self.pos + 8) {
                let special = special_bytes(u64::from_le_bytes(word.try_into().expect("8 bytes")));
                if special != 0 {
                    self.pos += special.trailing_zeros() as usize / 8;
                    break;
                }
                self.pos += 8;
            }
            match b.get(self.pos) {
                Some(b'"') => {
                    let tail = self.slice(run, self.pos)?;
                    self.pos += 1;
                    if run == start {
                        return Ok(Cow::Borrowed(tail));
                    }
                    out.push_str(tail);
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    out.push_str(self.slice(run, self.pos)?);
                    self.pos += 1;
                    out.push(self.escape()?);
                    run = self.pos;
                }
                Some(c) if *c < 0x20 => {
                    return Err(format!("raw control char at byte {}", self.pos))
                }
                Some(_) => self.pos += 1,
                None => return Err("unterminated string".to_owned()),
            }
        }
    }

    /// Reads a number in one scan: its digits go to a [`Decimal`], eight
    /// bytes per step, which converts a literal of at most 19 digits and a
    /// decimal exponent in `-22..=22` exactly. Any other number goes to
    /// `str::parse`, so the value is always exactly `str::parse::<f64>`'s.
    ///
    /// # Errors
    ///
    /// The next token is not a number in JSON's grammar.
    #[inline]
    pub fn number(&mut self) -> Result<f64, String> {
        self.skip_ws();
        let b = self.bytes();
        let start = self.pos;
        let negative = b.get(start) == Some(&b'-');
        let int_start = start + usize::from(negative);
        let mut decimal = Decimal::default();
        let mut p = decimal.digits(b, int_start);
        if p == int_start {
            return Err(format!("bad number at byte {start}"));
        }
        if b[int_start] == b'0' && p - int_start > 1 {
            return Err(format!("leading zero at byte {start}"));
        }
        let mut scale = 0i64;
        if b.get(p) == Some(&b'.') {
            let frac_start = p + 1;
            p = decimal.digits(b, frac_start);
            if p == frac_start {
                return Err(format!("bad number at byte {start}"));
            }
            scale = -((p - frac_start).min(1 << 20) as i64);
        }
        if matches!(b.get(p), Some(b'e' | b'E')) {
            p += 1;
            let sign = match b.get(p) {
                Some(b'-') => -1,
                Some(b'+') => 1,
                _ => 0,
            };
            p += usize::from(sign != 0);
            let exp_start = p;
            let mut exp = 0i64;
            while p < b.len() && b[p].is_ascii_digit() {
                exp = (exp * 10 + i64::from(b[p] - b'0')).min(1 << 20);
                p += 1;
            }
            if p == exp_start {
                return Err(format!("bad number at byte {start}"));
            }
            scale += if sign < 0 { -exp } else { exp };
        }
        self.pos = p;
        if let Some(value) = decimal.to_f64(negative, scale) {
            return Ok(value);
        }
        let text = self.slice(start, p)?;
        text.parse::<f64>().map_err(|_| format!("bad number at byte {start}"))
    }

    /// Skips one value of any kind, checking it as [`Json::parse`] would:
    /// the same walk over the same token methods, and so the same errors,
    /// but no tree. A string is borrowed unless it holds
    /// an escape, and a number is read and dropped.
    ///
    /// # Errors
    ///
    /// The value is malformed or nests deeper than 64 levels.
    pub fn skip_value(&mut self) -> Result<(), String> {
        match self.peek() {
            Some(b'{') => {
                if self.begin_object()? {
                    loop {
                        self.key()?;
                        self.skip_value()?;
                        if !self.next_member()? {
                            break;
                        }
                    }
                }
                Ok(())
            }
            Some(b'[') => {
                if self.begin_array()? {
                    loop {
                        self.skip_value()?;
                        if !self.next_element()? {
                            break;
                        }
                    }
                }
                Ok(())
            }
            Some(b'"') => self.string().map(drop),
            Some(b't') => self.literal(b"true"),
            Some(b'f') => self.literal(b"false"),
            Some(b'n') => self.literal(b"null"),
            Some(c) if c.is_ascii_digit() || c == b'-' => self.number().map(drop),
            _ => Err(format!("expected a value at byte {}", self.pos)),
        }
    }

    /// Reads one value of any kind into a tree.
    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => {
                let mut map = BTreeMap::new();
                if self.begin_object()? {
                    loop {
                        let key = self.key()?.into_owned();
                        let value = self.value()?;
                        map.insert(key, value);
                        if !self.next_member()? {
                            break;
                        }
                    }
                }
                Ok(Json::Obj(map))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                if self.begin_array()? {
                    loop {
                        items.push(self.value()?);
                        if !self.next_element()? {
                            break;
                        }
                    }
                }
                Ok(Json::Arr(items))
            }
            Some(b'"') => self.string().map(|s| Json::Str(s.into_owned())),
            Some(b't') => self.literal(b"true").map(|()| Json::Bool(true)),
            Some(b'f') => self.literal(b"false").map(|()| Json::Bool(false)),
            Some(b'n') => self.literal(b"null").map(|()| Json::Null),
            Some(c) if c.is_ascii_digit() || c == b'-' => self.number().map(Json::Num),
            _ => Err(format!("expected a value at byte {}", self.pos)),
        }
    }

    /// Checks that only whitespace is left.
    ///
    /// # Errors
    ///
    /// Anything but whitespace follows the cursor.
    pub fn end(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(format!("trailing data at byte {}", self.pos))
        }
    }

    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    #[inline]
    fn skip_ws(&mut self) {
        let b = self.bytes();
        while self.pos < b.len() && matches!(b[self.pos], b' ' | b'\t' | b'\n' | b'\r') {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.bytes().get(self.pos) == Some(&c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, self.pos))
        }
    }

    /// Opens a container whose delimiters are `open` and `close`.
    fn open(&mut self, open: u8, close: u8) -> Result<bool, String> {
        self.skip_ws();
        if self.depth >= MAX_DEPTH && self.bytes().get(self.pos) == Some(&open) {
            return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.pos));
        }
        self.expect(open)?;
        self.skip_ws();
        if self.bytes().get(self.pos) == Some(&close) {
            self.pos += 1;
            return Ok(false);
        }
        self.depth += 1;
        Ok(true)
    }

    /// The text `from..to` (both at character boundaries unless the text
    /// splits a character there).
    fn slice(&self, from: usize, to: usize) -> Result<&'a str, String> {
        self.text.get(from..to).ok_or_else(|| format!("invalid UTF-8 near byte {from}"))
    }

    /// Decodes the escape after a `\`, leaving the cursor after it.
    fn escape(&mut self) -> Result<char, String> {
        let escaped = match self.bytes().get(self.pos) {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                let unit = self.hex4()?;
                // A high surrogate must be followed by \uXXXX with a low
                // surrogate; the pair decodes to one scalar.
                return if (0xD800..0xDC00).contains(&unit) {
                    let b = self.bytes();
                    if b.get(self.pos) == Some(&b'\\') && b.get(self.pos + 1) == Some(&b'u') {
                        self.pos += 2;
                        let low = self.hex4()?;
                        char::decode_utf16([unit, low])
                            .next()
                            .and_then(Result::ok)
                            .ok_or_else(|| format!("bad surrogate pair at byte {}", self.pos))
                    } else {
                        Err(format!("lone surrogate at byte {}", self.pos))
                    }
                } else {
                    char::from_u32(u32::from(unit))
                        .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))
                };
            }
            _ => return Err(format!("bad escape at byte {}", self.pos)),
        };
        self.pos += 1;
        Ok(escaped)
    }

    /// Four hex digits at the cursor, advancing past them.
    fn hex4(&mut self) -> Result<u16, String> {
        let b = self.bytes();
        if b.len() < self.pos + 4 {
            return Err(format!("bad \\u escape at byte {}", self.pos));
        }
        let text = std::str::from_utf8(&b[self.pos..self.pos + 4])
            .map_err(|_| format!("invalid UTF-8 near byte {}", self.pos))?;
        let unit = u16::from_str_radix(text, 16)
            .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
        self.pos += 4;
        Ok(unit)
    }

    fn literal(&mut self, lit: &[u8]) -> Result<(), String> {
        let b = self.bytes();
        if b.len() >= self.pos + lit.len() && &b[self.pos..self.pos + lit.len()] == lit {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }
}

/// The high bit of each byte of `word` (first byte lowest) that ends a
/// plain run of string bytes (`"`, `\` or a control byte), exact up to
/// the first such byte and perhaps spurious above it: zero exactly when
/// all eight bytes are plain.
#[inline(always)]
fn special_bytes(word: u64) -> u64 {
    const ONES: u64 = 0x0101_0101_0101_0101;
    // `x - n` borrows into a byte's high bit where the byte is below `n`,
    // and `& !x` drops the bytes of 0x80 and up. A borrow starts only at
    // a byte below `n` and runs upward, so the lowest bit set is exact.
    let below = |x: u64, n: u8| x.wrapping_sub(ONES * u64::from(n)) & !x;
    let quote = word ^ (ONES * u64::from(b'"'));
    let backslash = word ^ (ONES * u64::from(b'\\'));
    (below(quote, 1) | below(backslash, 1) | below(word, 0x20)) & (ONES << 7)
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

    /// Texts that are not JSON.
    const MALFORMED: [&str; 11] = [
        "",
        "{",
        "{\"a\":}",
        "[1,]",
        "{\"a\":1} extra",
        "\"\\ud800\"",
        "01",
        "nul",
        "--1",
        "\"\\ud800\\u0041\"",
        "\"\\udbff\\ud800\"",
    ];

    /// Malformed texts and the error each one gets.
    const OFFSET_ERRORS: [(&str, &str); 14] = [
        ("{\"a\" 1}", "expected ':' at byte 5"),
        ("[1 2]", "expected ',' or ']' at byte 3"),
        ("{\"a\":1 \"b\"}", "expected ',' or '}' at byte 7"),
        ("{1:2}", "expected '\"' at byte 1"),
        ("[\"a\u{1}\"]", "raw control char at byte 3"),
        ("\"\\x\"", "bad escape at byte 2"),
        ("\"\\u12g4\"", "bad \\u escape at byte 3"),
        ("[1.]", "bad number at byte 1"),
        ("[-]", "bad number at byte 1"),
        ("007", "leading zero at byte 0"),
        ("tru", "bad literal at byte 0"),
        ("\"abc", "unterminated string"),
        ("1 2", "trailing data at byte 2"),
        ("[,]", "expected a value at byte 1"),
    ];

    #[test]
    fn rejects_malformed_input() {
        for bad in MALFORMED {
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
        // Empty containers at the cap count as nested, as non-empty ones do.
        let empty = format!("{}{{}}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&empty).unwrap_err().contains("nesting deeper than"));
    }

    #[test]
    fn as_u64_rejects_fractions_and_negatives() {
        assert_eq!(Json::parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(Json::parse("4.5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("-1").unwrap().as_u64(), None);
        assert_eq!(Json::parse("18446744073709551616").unwrap().as_u64(), None);
        assert_eq!(
            Json::parse("18446744073709549568").unwrap().as_u64(),
            Some(18_446_744_073_709_549_568)
        );
    }

    #[test]
    fn errors_name_the_byte_offset() {
        for (text, message) in OFFSET_ERRORS {
            assert_eq!(Json::parse(text).unwrap_err(), message, "{text:?}");
        }
    }

    #[test]
    fn skipping_reports_the_errors_of_the_tree_parse() {
        let skip = |text: &str| {
            let mut c = Cursor::new(text);
            c.skip_value()?;
            c.end()
        };
        let nested = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let deep_objects = r#"{"a":"#.repeat(MAX_DEPTH + 1);
        let texts = MALFORMED.into_iter().chain(OFFSET_ERRORS.map(|(text, _)| text));
        for text in texts.chain([nested.as_str(), deep_objects.as_str()]) {
            let want = Json::parse(text).map(drop);
            assert!(want.is_err(), "{text:?}");
            assert_eq!(skip(text), want, "{text:?}");
        }
        assert_eq!(skip(r#" {"k":[1,{"x":null}],"\u0073":"a\tb"} "#), Ok(()));
    }

    #[test]
    fn numbers_match_the_standard_conversion() {
        for text in [
            "0",
            "-0",
            "7",
            "-42",
            "999999999999999",
            "9999999999999999",
            "18446744073709551615",
            "18446744073709551616",
            "123456789012345678901234567890",
            "0.1",
            "-2.5e1",
            "1e309",
            "5e-324",
            "1E+2",
            "123.456789012345678",
            // Ties between two doubles above 2^53: half to even.
            "9007199254740993",
            "9007199254740995",
            "18014398509481985",
            "-9007199254740993e-3",
            // 19- and 20-digit mantissas.
            "1234567890123456789",
            "9999999999999999999",
            "1.234567890123456789",
            "-99999999.99999999999",
            "12345678901234567891",
            "1234567890.1234567891",
            "1e22",
            "1e23",
            "1e-22",
            "1e-23",
            "-0.0",
            "0.000000000000000000000000001",
        ] {
            let got = Cursor::new(text).number().unwrap();
            let want = text.parse::<f64>().unwrap();
            assert_eq!(got.to_bits(), want.to_bits(), "{text}");
        }
    }

    #[test]
    fn digit_runs_end_at_any_byte_at_every_offset() {
        for offset in 0..8 {
            for len in 0..=17 {
                let digits: String = (0..len).map(|k| char::from(b"1234567890"[k % 10])).collect();
                for stop in ["/", ":", ".5", "e1", "\u{E9}"] {
                    let text = format!("{}{digits}{stop}", " ".repeat(offset));
                    let mut c = Cursor::new(&text);
                    if len == 0 {
                        let err = c.number().unwrap_err();
                        assert_eq!(err, format!("bad number at byte {offset}"), "{text:?}");
                        continue;
                    }
                    let literal = text.trim_start().trim_end_matches(['/', ':', '\u{E9}']);
                    let want = literal.parse::<f64>().unwrap();
                    assert_eq!(c.number().unwrap().to_bits(), want.to_bits(), "{text:?}");
                    match c.end() {
                        Ok(()) => assert!(stop.len() == 2, "{text:?}"),
                        Err(e) => assert_eq!(e, format!("trailing data at byte {}", offset + len)),
                    }
                }
            }
        }
    }

    #[test]
    fn strings_skip_plain_runs_at_every_offset() {
        for offset in 0..17 {
            let head = "a".repeat(offset);
            for (body, want) in [
                (format!("{head}\"tail"), Ok(head.clone())),
                (format!("{head}\\n{}\"", "b".repeat(9)), Ok(format!("{head}\n{}", "b".repeat(9)))),
                (
                    format!("{head}\u{E9}\u{7F}{}\"", "b".repeat(9)),
                    Ok(format!("{head}\u{E9}\u{7F}bbbbbbbbb")),
                ),
                (
                    format!("{head}\u{1}{}\"", "b".repeat(9)),
                    Err(format!("raw control char at byte {}", offset + 1)),
                ),
            ] {
                let text = format!("\"{body}");
                let got = Cursor::new(&text).string().map(Cow::into_owned);
                assert_eq!(got, want, "{text:?}");
            }
        }
    }

    #[test]
    fn the_cursor_streams_without_a_tree() {
        let mut c = Cursor::new(r#" { "k" : [ 1 , 2.5 ] , "s" : "a\tb" , "x" : {"y":[null]} } "#);
        assert!(c.begin_object().unwrap());
        assert_eq!(c.key().unwrap(), "k");
        assert!(c.begin_array().unwrap());
        assert_eq!(c.number().unwrap(), 1.0);
        assert!(c.next_element().unwrap());
        assert_eq!(c.number().unwrap(), 2.5);
        assert!(!c.next_element().unwrap());
        assert!(c.next_member().unwrap());
        assert!(matches!(c.key().unwrap(), Cow::Borrowed("s")));
        assert!(matches!(c.string().unwrap(), Cow::Owned(s) if s == "a\tb"));
        assert!(c.next_member().unwrap());
        assert_eq!(c.key().unwrap(), "x");
        c.skip_value().unwrap();
        assert!(!c.next_member().unwrap());
        c.end().unwrap();
        assert_eq!(c.peek(), None);

        let mut c = Cursor::new("[] {}");
        assert!(!c.begin_array().unwrap(), "an empty array is closed at once");
        assert_eq!(c.end().unwrap_err(), "trailing data at byte 3");
    }
}
