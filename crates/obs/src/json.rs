//! A small push-based JSON writer, the complement of
//! [`crate::validate_json`].
//!
//! The workspace deliberately carries no JSON dependency. Serve
//! responses, the `bench` suites' documents and `serve_load`'s report
//! are built with this writer; the trace exporter formats its event rows
//! by hand with the same string and number helpers. The writer manages
//! commas and nesting so call sites cannot produce structurally invalid
//! output: anything built through [`JsonWriter`] passes
//! [`crate::validate_json`] by construction (strings are escaped,
//! non-finite floats become `null`, separators are inserted
//! automatically).
//!
//! ```
//! use distfl_obs::JsonWriter;
//!
//! let mut w = JsonWriter::object();
//! w.key("id").string("req-1");
//! w.key("cost").number(12.5);
//! w.key("open").begin_array();
//! w.number_u64(0).number_u64(2);
//! w.end_array();
//! let json = w.finish();
//! assert_eq!(json, r#"{"id":"req-1","cost":12.5,"open":[0,2]}"#);
//! distfl_obs::validate_json(&json).unwrap();
//! ```

/// What container the writer is currently inside, for comma placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Frame {
    /// Inside an object, before/between keys.
    Object { first: bool },
    /// Inside an array, before/between values.
    Array { first: bool },
}

/// An append-only JSON builder with automatic separators.
///
/// Start with [`JsonWriter::object`] or [`JsonWriter::array`], push keys
/// and values, close nested containers with `end_*`, and take the final
/// text with [`JsonWriter::finish`] (which closes any still-open
/// containers).
///
/// Value methods must follow [`JsonWriter::key`] inside objects and stand
/// alone inside arrays; debug assertions catch misuse.
#[derive(Debug)]
pub struct JsonWriter {
    out: String,
    stack: Vec<Frame>,
    /// Inside an object: a key has been written and awaits its value.
    pending_value: bool,
}

impl JsonWriter {
    /// A writer whose top-level value is an object.
    pub fn object() -> Self {
        let mut w = JsonWriter { out: String::new(), stack: Vec::new(), pending_value: false };
        w.out.push('{');
        w.stack.push(Frame::Object { first: true });
        w
    }

    /// A writer whose top-level value is an array.
    pub fn array() -> Self {
        let mut w = JsonWriter { out: String::new(), stack: Vec::new(), pending_value: false };
        w.out.push('[');
        w.stack.push(Frame::Array { first: true });
        w
    }

    /// Places the separator a new element needs in the current container.
    fn separate(&mut self) {
        if self.pending_value {
            // Key already wrote "key": — the value follows with no comma.
            self.pending_value = false;
            return;
        }
        match self.stack.last_mut() {
            Some(Frame::Object { first }) | Some(Frame::Array { first }) => {
                if *first {
                    *first = false;
                } else {
                    self.out.push(',');
                }
            }
            None => debug_assert!(false, "value written after the top-level value closed"),
        }
    }

    /// Writes an object key; the next call must write its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        debug_assert!(
            matches!(self.stack.last(), Some(Frame::Object { .. })) && !self.pending_value,
            "key() is only valid inside an object, between values"
        );
        self.separate();
        push_json_string(&mut self.out, key);
        self.out.push(':');
        self.pending_value = true;
        self
    }

    /// Writes a string value (escaped).
    pub fn string(&mut self, s: &str) -> &mut Self {
        self.separate();
        push_json_string(&mut self.out, s);
        self
    }

    /// Writes a float value; non-finite values become `null` (JSON has no
    /// NaN/infinity tokens).
    pub fn number(&mut self, v: f64) -> &mut Self {
        self.separate();
        self.out.push_str(&json_f64(v));
        self
    }

    /// Writes an unsigned integer value.
    pub fn number_u64(&mut self, v: u64) -> &mut Self {
        self.separate();
        let _ = std::fmt::Write::write_fmt(&mut self.out, format_args!("{v}"));
        self
    }

    /// Writes a boolean value.
    pub fn boolean(&mut self, v: bool) -> &mut Self {
        self.separate();
        self.out.push_str(if v { "true" } else { "false" });
        self
    }

    /// Writes a `null` value.
    pub fn null(&mut self) -> &mut Self {
        self.separate();
        self.out.push_str("null");
        self
    }

    /// Writes pre-rendered JSON as one value. The caller vouches that
    /// `json` is itself well-formed (e.g. the output of another writer).
    pub fn raw(&mut self, json: &str) -> &mut Self {
        self.separate();
        self.out.push_str(json);
        self
    }

    /// Opens a nested object value.
    pub fn begin_object(&mut self) -> &mut Self {
        self.separate();
        self.out.push('{');
        self.stack.push(Frame::Object { first: true });
        self
    }

    /// Opens a nested array value.
    pub fn begin_array(&mut self) -> &mut Self {
        self.separate();
        self.out.push('[');
        self.stack.push(Frame::Array { first: true });
        self
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) -> &mut Self {
        debug_assert!(
            matches!(self.stack.last(), Some(Frame::Object { .. })) && !self.pending_value,
            "end_object() must close an object with no dangling key"
        );
        self.stack.pop();
        self.out.push('}');
        self
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) -> &mut Self {
        debug_assert!(
            matches!(self.stack.last(), Some(Frame::Array { .. })),
            "end_array() must close an array"
        );
        self.stack.pop();
        self.out.push(']');
        self
    }

    /// Closes every still-open container and returns the JSON text.
    pub fn finish(mut self) -> String {
        debug_assert!(!self.pending_value, "finish() with a dangling key");
        while let Some(frame) = self.stack.pop() {
            self.out.push(match frame {
                Frame::Object { .. } => '}',
                Frame::Array { .. } => ']',
            });
        }
        self.out
    }
}

/// Appends `s` as a JSON string literal (quotes + escapes).
pub(crate) fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Renders an `f64` as a JSON number (JSON has no NaN/inf tokens).
pub(crate) fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate_json;

    #[test]
    fn nested_structures_validate() {
        let mut w = JsonWriter::object();
        w.key("name").string("bench");
        w.key("runs").begin_array();
        for i in 0..3 {
            w.begin_object();
            w.key("i").number_u64(i);
            w.key("ok").boolean(i % 2 == 0);
            w.key("note").null();
            w.end_object();
        }
        w.end_array();
        w.key("meta").begin_object();
        w.key("p99").number(1.25);
        let json = w.finish();
        validate_json(&json).expect("writer output parses");
        assert!(json.ends_with("\"p99\":1.25}}"), "{json}");
    }

    #[test]
    fn escaping_and_nonfinite_floats_are_safe() {
        let mut w = JsonWriter::object();
        w.key("s").string("a\"b\\c\nd\u{1}");
        w.key("nan").number(f64::NAN);
        w.key("inf").number(f64::INFINITY);
        let json = w.finish();
        validate_json(&json).expect("escaped output parses");
        assert!(json.contains("\\u0001"), "{json}");
        assert!(json.contains("\"nan\":null"), "{json}");
        assert!(json.contains("\"inf\":null"), "{json}");
    }

    #[test]
    fn top_level_array_and_raw_values() {
        let mut inner = JsonWriter::object();
        inner.key("k").number_u64(7);
        let inner = inner.finish();
        let mut w = JsonWriter::array();
        w.number_u64(1).raw(&inner).string("end");
        let json = w.finish();
        assert_eq!(json, r#"[1,{"k":7},"end"]"#);
        validate_json(&json).unwrap();
    }

    #[test]
    fn finish_closes_open_containers() {
        let mut w = JsonWriter::object();
        w.key("a").begin_array();
        w.begin_object();
        w.key("b").number_u64(1);
        let json = w.finish();
        assert_eq!(json, r#"{"a":[{"b":1}]}"#);
        validate_json(&json).unwrap();
    }

    #[test]
    fn empty_containers_render() {
        assert_eq!(JsonWriter::object().finish(), "{}");
        assert_eq!(JsonWriter::array().finish(), "[]");
    }
}
