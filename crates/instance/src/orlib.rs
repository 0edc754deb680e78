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

use crate::cost::Cost;
use crate::error::InstanceError;
use crate::instance::{Instance, InstanceBuilder};

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
/// # Errors
///
/// Returns [`InstanceError::Parse`] describing the first problem with the
/// 1-based line number the offending token sits on (the tokenizer tracks
/// line numbers even though the format wraps lines freely, so clients of
/// the serve layer can point at the exact input line). Truncated input
/// reports the last line of the text.
pub fn from_str(text: &str) -> Result<Instance, InstanceError> {
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
