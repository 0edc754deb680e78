//! OR-Library ("cap") format support.
//!
//! The de-facto benchmark interchange for uncapacitated facility location
//! is Beasley's OR-Library format (the `cap71`–`cap134` and `capa/b/c`
//! files, also used by UflLib):
//!
//! ```text
//! m n
//! <capacity_1> <opening_cost_1>
//! ...                              (m facility lines)
//! <demand_1>
//! <c_11> <c_12> ... <c_1m>         (n blocks: demand, then m allocation
//! ...                               costs, free-form line wrapping)
//! ```
//!
//! Capacities and demands are carried by the format but ignored by the
//! uncapacitated problem (the allocation costs are already totals); the
//! parser is token-stream based, so the arbitrary line wrapping found in
//! the published files is handled. This lets `distfl` load the classic
//! benchmark suite directly — the bridge between the synthetic generators
//! and instances the facility-location literature actually reports on.

use std::fmt::Write as _;

use distfl_obs::Decimal;

use crate::cost::Cost;
use crate::error::InstanceError;
use crate::instance::{FacilityId, Instance, InstanceBuilder, RowBuilder};

/// Serializes an instance in OR-Library format (capacities and demands
/// written as 0; sparse instances are rejected because the format is
/// dense).
///
/// # Errors
///
/// Returns [`InstanceError::UnreachableClient`] naming the first client
/// with a missing link if the instance is not complete.
pub fn to_string(instance: &Instance) -> Result<String, InstanceError> {
    if !instance.is_complete() {
        let j = instance
            .clients()
            .find(|&j| instance.client_links(j).len() != instance.num_facilities())
            .expect("incomplete instance has a short client");
        return Err(InstanceError::UnreachableClient { client: j.index() });
    }
    let mut out = String::new();
    let _ = writeln!(out, "{} {}", instance.num_facilities(), instance.num_clients());
    for i in instance.facilities() {
        let _ = writeln!(out, "0 {}", instance.opening_cost(i).value());
    }
    for j in instance.clients() {
        let _ = writeln!(out, "0");
        let row: Vec<String> =
            instance.client_links(j).costs.iter().map(|c| c.to_string()).collect();
        let _ = writeln!(out, "{}", row.join(" "));
    }
    Ok(out)
}

/// Parses an instance from OR-Library format.
///
/// One pass of a byte tokenizer feeds a [`RowBuilder`]: each client's
/// costs are appended to the instance's lanes as they are read, with no
/// per-client list. Separators are exactly those of `split_whitespace`
/// (ASCII and Unicode white space). A plain `-?digits(.digits)?` token
/// followed by an ASCII separator or the end of the text is converted by
/// the exact [`Decimal`] reader while it is scanned; every other token is
/// cut out and read by `str::parse`. Either way each value is exactly
/// `str::parse`'s.
///
/// # Errors
///
/// Returns [`InstanceError::Parse`] describing the first problem with the
/// 1-based line number the offending token sits on (the tokenizer tracks
/// line numbers even though the format wraps lines freely, so clients of
/// the serve layer can point at the exact input line). Truncated input
/// reports the last line of the text.
pub fn from_str(text: &str) -> Result<Instance, InstanceError> {
    let mut tokens = Tokens { text, pos: 0, line: 1 };
    let number = |_: f64| true;
    // Header counts are untrusted: each must be a whole number that fits a
    // u32, and they bound loops but size no allocation beyond what the
    // text can hold, so a huge count fails on the missing tokens rather
    // than in the allocator.
    let count = |v: f64| v.fract() == 0.0 && (0.0..=f64::from(u32::MAX)).contains(&v);

    let m = tokens.next("facility count", count)? as u32;
    let n = tokens.next("client count", count)? as u32;
    if m == 0 {
        return Err(InstanceError::NoFacilities);
    }
    if n == 0 {
        return Err(InstanceError::NoClients);
    }

    // A facility takes at least 4 bytes ("0 1\n"), a link at least 2.
    let mut opening = Vec::with_capacity((m as usize).min(text.len() / 4));
    for _ in 0..m {
        let _capacity = tokens.next("capacity", number)?;
        opening.push(Cost::new(tokens.next("opening cost", number)?)?);
    }
    let links = (m as usize).saturating_mul(n as usize).min(text.len() / 2);
    let mut rows = RowBuilder::with_capacity(opening, links);
    for _ in 0..n {
        let _demand = tokens.next("demand", number)?;
        rows.add_client();
        for i in 0..m {
            let c = tokens.next("allocation cost", number)?;
            rows.link(FacilityId::new(i), Cost::new(c)?)?;
        }
    }
    rows.build()
}

/// The whitespace-separated tokens of a text, with their line numbers.
struct Tokens<'a> {
    text: &'a str,
    pos: usize,
    /// 1-based line of `pos`: one more than the `\n`s before it.
    line: usize,
}

impl<'a> Tokens<'a> {
    /// Reads the next token as a number `valid` accepts. A plain
    /// `-?digits(.digits)?` token that ends at an ASCII separator or the
    /// end of the text is read by the exact decimal reader as it is
    /// scanned; any other token, or one `valid` refuses, is cut out and
    /// given to `str::parse` from its start.
    fn next(&mut self, what: &str, valid: fn(f64) -> bool) -> Result<f64, InstanceError> {
        if self.skip_space() {
            if let Some((v, end)) = self.plain().filter(|&(v, _)| valid(v)) {
                self.pos = end;
                return Ok(v);
            }
        }
        let Some(tok) = self.token() else {
            return Err(InstanceError::Parse {
                line: last_line(self.text),
                reason: format!("unexpected end of input while reading {what}"),
            });
        };
        match tok.parse::<f64>() {
            Ok(v) if valid(v) => Ok(v),
            _ => Err(InstanceError::Parse {
                line: self.line,
                reason: format!("invalid {what}: '{tok}'"),
            }),
        }
    }

    /// The value of a plain token at the cursor and the position after
    /// it, when the exact decimal reader converts it.
    fn plain(&self) -> Option<(f64, usize)> {
        let b = self.text.as_bytes();
        let negative = b[self.pos] == b'-';
        let int_start = self.pos + usize::from(negative);
        let mut decimal = Decimal::default();
        let mut end = decimal.digits(b, int_start);
        if end == int_start {
            return None;
        }
        let mut scale = 0;
        if b.get(end) == Some(&b'.') {
            let frac_start = end + 1;
            end = decimal.digits(b, frac_start);
            if end == frac_start {
                return None;
            }
            scale = -((end - frac_start) as i64);
        }
        if !matches!(b.get(end).map(|&c| class(c)), None | Some(Byte::Space)) {
            return None;
        }
        Some((decimal.to_f64(negative, scale)?, end))
    }

    /// Skips separators; returns whether a token follows.
    fn skip_space(&mut self) -> bool {
        let b = self.text.as_bytes();
        while let Some(&c) = b.get(self.pos) {
            match class(c) {
                Byte::Token => return true,
                Byte::Space => {
                    self.line += usize::from(c == b'\n');
                    self.pos += 1;
                }
                _ => match self.wide() {
                    (true, len) => self.pos += len,
                    (false, _) => return true,
                },
            }
        }
        false
    }

    /// The next token, or `None` at the end of the text.
    fn token(&mut self) -> Option<&'a str> {
        let (text, b) = (self.text, self.text.as_bytes());
        if !self.skip_space() {
            return None;
        }
        let start = self.pos;
        while let Some(&c) = b.get(self.pos) {
            match class(c) {
                Byte::Token => self.pos += 1,
                Byte::Space => break,
                _ => match self.wide() {
                    (true, _) => break,
                    (false, len) => self.pos += len,
                },
            }
        }
        Some(&text[start..self.pos])
    }

    /// Whether the multi-byte character at the cursor is white space, and
    /// its byte length.
    fn wide(&self) -> (bool, usize) {
        let c = self.text[self.pos..].chars().next().expect("the cursor is inside the text");
        (c.is_whitespace(), c.len_utf8())
    }
}

/// How the tokenizer reads a byte.
enum Byte {
    /// Part of a token.
    Token,
    /// An ASCII separator: `char::is_whitespace`'s tab through carriage
    /// return (so `\x0B` too), and space.
    Space,
    /// The first byte of a multi-byte character, which `char::is_whitespace`
    /// decides.
    Wide,
}

fn class(c: u8) -> Byte {
    match c {
        b'\t'..=b'\r' | b' ' => Byte::Space,
        0x80.. => Byte::Wide,
        _ => Byte::Token,
    }
}

/// The line a truncated text reports: `str::lines().count()`, at least 1.
fn last_line(text: &str) -> usize {
    let newlines = text.bytes().filter(|&b| b == b'\n').count();
    (newlines + usize::from(!text.is_empty() && !text.ends_with('\n'))).max(1)
}

/// The reference twin of [`from_str`]: the same format and the same
/// results, by `str::lines` and `split_whitespace` over an
/// [`InstanceBuilder`]. Kept as the oracle the equivalence properties
/// compare [`from_str`] against.
///
/// # Errors
///
/// Exactly the errors of [`from_str`].
pub fn from_str_reference(text: &str) -> Result<Instance, InstanceError> {
    let last_line = text.lines().count().max(1);
    let mut tokens = text
        .lines()
        .enumerate()
        .flat_map(|(index, line)| line.split_whitespace().map(move |tok| (index + 1, tok)));
    let mut next = |what: &str, valid: fn(f64) -> bool| -> Result<f64, InstanceError> {
        let (line, tok) = tokens.next().ok_or_else(|| InstanceError::Parse {
            line: last_line,
            reason: format!("unexpected end of input while reading {what}"),
        })?;
        match tok.parse::<f64>() {
            Ok(v) if valid(v) => Ok(v),
            _ => Err(InstanceError::Parse { line, reason: format!("invalid {what}: '{tok}'") }),
        }
    };
    let number = |_: f64| true;
    // Header counts are untrusted: each must be a whole number that fits a
    // u32, and they bound loops but size no allocation, so a huge count
    // fails on the missing tokens rather than in the allocator.
    let count = |v: f64| v.fract() == 0.0 && (0.0..=f64::from(u32::MAX)).contains(&v);

    let m = next("facility count", count)? as u32;
    let n = next("client count", count)? as u32;
    if m == 0 {
        return Err(InstanceError::NoFacilities);
    }
    if n == 0 {
        return Err(InstanceError::NoClients);
    }

    let mut builder = InstanceBuilder::new();
    let mut fids = Vec::new();
    for _ in 0..m {
        let _capacity = next("capacity", number)?;
        let opening = next("opening cost", number)?;
        fids.push(builder.add_facility(Cost::new(opening)?));
    }
    for _ in 0..n {
        let _demand = next("demand", number)?;
        let j = builder.add_client();
        for &fid in &fids {
            let c = next("allocation cost", number)?;
            builder.link(j, fid, Cost::new(c)?)?;
        }
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{InstanceGenerator, UniformRandom};
    use crate::{ClientId, FacilityId};

    /// A miniature file in the published format, with wrapped cost lines.
    const FIXTURE: &str = "\
 3 4
0 7500.5
0 8000
0 9000
 12
 100 200
 300
 7
 150 250 350
 9
 120 220 320
 4
 110 210
 310
";

    #[test]
    fn parses_the_published_shape() {
        let inst = from_str(FIXTURE).unwrap();
        assert_eq!(inst.num_facilities(), 3);
        assert_eq!(inst.num_clients(), 4);
        assert!(inst.is_complete());
        assert_eq!(inst.opening_cost(FacilityId::new(0)).value(), 7500.5);
        assert_eq!(
            inst.connection_cost(ClientId::new(0), FacilityId::new(2)).unwrap().value(),
            300.0
        );
        assert_eq!(
            inst.connection_cost(ClientId::new(3), FacilityId::new(1)).unwrap().value(),
            210.0
        );
    }

    #[test]
    fn round_trips_generated_instances() {
        let inst = UniformRandom::new(5, 12).unwrap().generate(9).unwrap();
        let text = to_string(&inst).unwrap();
        let parsed = from_str(&text).unwrap();
        assert_eq!(inst, parsed);
    }

    #[test]
    fn rejects_sparse_instances_on_write() {
        let mut b = InstanceBuilder::new();
        let f0 = b.add_facility(Cost::new(1.0).unwrap());
        let _f1 = b.add_facility(Cost::new(1.0).unwrap());
        let c = b.add_client();
        b.link(c, f0, Cost::new(1.0).unwrap()).unwrap();
        let inst = b.build().unwrap();
        assert!(matches!(to_string(&inst), Err(InstanceError::UnreachableClient { client: 0 })));
    }

    #[test]
    fn rejects_truncated_input() {
        let e = from_str("2 2\n0 10\n0 20\n0\n1 2\n0\n3").unwrap_err();
        match e {
            InstanceError::Parse { line, reason } => {
                assert_eq!(line, 7, "truncation reported on the last line");
                assert!(reason.contains("end of input"), "{reason}");
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn rejects_bad_tokens_with_position() {
        let e = from_str("2 2\n0 ten\n").unwrap_err();
        match e {
            InstanceError::Parse { line, reason } => {
                assert_eq!(line, 2, "line number of 'ten'");
                assert!(reason.contains("ten"));
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn malformed_fixture_errors_carry_the_wrapped_line_number() {
        // The FIXTURE with one allocation cost corrupted on a *wrapped*
        // continuation line: the parser must name line 11 ("abc" below),
        // not a token index and not the logical record start.
        let malformed = "\
 3 4
0 7500.5
0 8000
0 9000
 12
 100 200
 300
 7
 150 250 350
 9
 120 abc 320
 4
 110 210
 310
";
        let e = from_str(malformed).unwrap_err();
        match e {
            InstanceError::Parse { line, reason } => {
                assert_eq!(line, 11, "error on the wrapped cost line");
                assert!(reason.contains("abc"), "{reason}");
                assert!(reason.contains("allocation cost"), "{reason}");
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn rejects_header_counts_that_are_not_u32() {
        for bad in ["1e18", "inf", "nan", "-3", "2.5", "4294967296"] {
            for text in [format!("{bad} 1\n0 1\n0\n1\n"), format!("1 {bad}\n0 1\n0\n1\n")] {
                match from_str(&text) {
                    Err(InstanceError::Parse { line, reason }) => {
                        assert_eq!(line, 1, "{text:?}");
                        assert!(reason.contains(bad), "{reason}");
                        assert!(reason.contains("count"), "{reason}");
                    }
                    other => panic!("{text:?} gave {other:?}"),
                }
            }
        }
        // The largest count is accepted; the input then runs out of tokens.
        let e = from_str("4294967295 1\n0 1\n").unwrap_err();
        assert!(matches!(e, InstanceError::Parse { line: 2, .. }), "{e}");
    }

    #[test]
    fn plain_tokens_end_only_at_ascii_separators() {
        // A digit run followed by a Unicode separator is still one token;
        // followed by anything else that is not ASCII white space, it is
        // the start of a longer token that `str::parse` refuses whole.
        for (text, outcome) in [
            ("1 1\n0 5\u{A0}0\n1.5", Ok(())),
            ("1 1\n0 5\u{2028}0\n\u{3000}1.5\u{85}", Ok(())),
            ("1 1\n0 5x\n0\n1\n", Err("invalid opening cost: '5x'")),
            ("1 1\n0 5\u{E9}\n0\n1\n", Err("invalid opening cost: '5\u{E9}'")),
            ("1 1\n0 5.\u{200B}\n0\n1\n", Err("invalid opening cost: '5.\u{200B}'")),
            ("1 1\n0 -\n0\n1\n", Err("invalid opening cost: '-'")),
        ] {
            let parsed = from_str(text);
            assert_eq!(parsed, from_str_reference(text), "{text:?}");
            match (parsed, outcome) {
                (Ok(inst), Ok(())) => {
                    assert_eq!(inst.opening_cost(FacilityId::new(0)).value(), 5.0);
                    let cost = inst.connection_cost(ClientId::new(0), FacilityId::new(0));
                    assert_eq!(cost.unwrap().value(), 1.5);
                }
                (Err(InstanceError::Parse { line: 2, reason }), Err(want)) => {
                    assert_eq!(reason, want)
                }
                (other, _) => panic!("{text:?} gave {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_empty_dimensions() {
        assert!(matches!(from_str("0 5"), Err(InstanceError::NoFacilities)));
        assert!(matches!(from_str("5 0"), Err(InstanceError::NoClients)));
    }

    #[test]
    fn negative_costs_are_rejected() {
        let e = from_str("1 1\n0 -5\n0\n1\n").unwrap_err();
        assert!(matches!(e, InstanceError::InvalidCost { .. }));
    }
}
