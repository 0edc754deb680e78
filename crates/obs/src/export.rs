//! Trace exporters: Chrome `trace_event` JSON and flat CSV.
//!
//! Both render a [`Snapshot`] — the merged drain of every thread's ring
//! buffer plus the metric values at drain time. The JSON form is the
//! object-wrapped `trace_event` flavor (`{"traceEvents": [...]}`): spans
//! become `"ph": "X"` complete events and each counter/gauge becomes one
//! trailing `"ph": "C"` counter sample, so Perfetto and `chrome://tracing`
//! render a track per thread plus one per metric.
//!
//! **Units.** [`TraceEvent`] stores nanoseconds; Chrome's `ts`/`dur`
//! fields are microseconds. The JSON exporter performs that conversion —
//! the only unit conversion in the crate — emitting fractional
//! microseconds (`"ts":10.500`) when an event does not fall on a whole
//! microsecond, which both viewers accept. The CSV keeps raw nanoseconds.

use crate::json::{json_f64, push_json_string};
use crate::metrics::MetricValue;
use crate::{Json, TraceEvent};

/// Renders a nanosecond quantity as Chrome microseconds: whole µs when the
/// value is a multiple of 1000 ns, otherwise with a 3-digit fraction.
fn push_micros(out: &mut String, nanos: u64) {
    let (us, frac) = (nanos / 1_000, nanos % 1_000);
    if frac == 0 {
        out.push_str(&us.to_string());
    } else {
        out.push_str(&format!("{us}.{frac:03}"));
    }
}

/// A drained trace: events (oldest first) plus the metric values observed
/// at drain time. Produced by [`crate::snapshot`].
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// All recorded spans, sorted by start timestamp.
    pub events: Vec<TraceEvent>,
    /// Registered metrics, name-sorted.
    pub metrics: Vec<(&'static str, MetricValue)>,
    /// Events lost to ring-buffer overwrites since the previous drain.
    pub dropped: u64,
}

impl Snapshot {
    /// Events lost to ring-buffer overwrites since the previous drain.
    pub fn dropped_events(&self) -> u64 {
        self.dropped
    }

    /// The value of the metric named `name`, if registered.
    pub fn metric(&self, name: &str) -> Option<&MetricValue> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|(_, v)| v)
    }

    /// Renders the snapshot as Chrome `trace_event` JSON.
    pub fn chrome_json(&self) -> String {
        let mut out = String::with_capacity(128 + self.events.len() * 96);
        out.push_str("{\"traceEvents\":[");
        let mut first = true;
        for ev in &self.events {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("\n{\"name\":");
            push_json_string(&mut out, ev.name);
            out.push_str(",\"cat\":");
            push_json_string(&mut out, ev.cat);
            out.push_str(",\"ph\":\"X\",\"ts\":");
            push_micros(&mut out, ev.ts_nanos);
            out.push_str(",\"dur\":");
            push_micros(&mut out, ev.dur_nanos);
            out.push_str(&format!(",\"pid\":1,\"tid\":{}", ev.tid));
            if let Some(arg) = ev.arg {
                out.push_str(&format!(",\"args\":{{\"arg\":{arg}}}"));
            }
            out.push('}');
        }
        // One counter sample per metric at the end of the captured window
        // gives the viewers a value track without a time series.
        let last_ts =
            self.events.iter().map(|e| e.ts_nanos.saturating_add(e.dur_nanos)).max().unwrap_or(0);
        for (name, value) in &self.metrics {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("\n{\"name\":");
            push_json_string(&mut out, name);
            let rendered = match value {
                MetricValue::Counter(v) => v.to_string(),
                MetricValue::Gauge(v) => json_f64(*v),
            };
            out.push_str(",\"ph\":\"C\",\"ts\":");
            push_micros(&mut out, last_ts);
            out.push_str(&format!(",\"pid\":1,\"tid\":0,\"args\":{{\"value\":{rendered}}}"));
            out.push('}');
        }
        out.push_str(&format!(
            "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"dropped_events\":\"{}\"}}}}",
            self.dropped
        ));
        out
    }

    /// Renders the snapshot as a flat CSV: one row per span, then one row
    /// per metric, with blank cells where a column does not apply.
    pub fn csv(&self) -> String {
        let mut out = String::from("kind,cat,name,ts_nanos,dur_nanos,tid,value\n");
        for ev in &self.events {
            out.push_str(&format!(
                "span,{},{},{},{},{},{}\n",
                ev.cat,
                ev.name,
                ev.ts_nanos,
                ev.dur_nanos,
                ev.tid,
                ev.arg.map(|a| a.to_string()).unwrap_or_default()
            ));
        }
        for (name, value) in &self.metrics {
            match value {
                MetricValue::Counter(v) => out.push_str(&format!("counter,,{name},,,,{v}\n")),
                MetricValue::Gauge(v) => {
                    out.push_str(&format!("gauge,,{name},,,,{}\n", json_f64(*v)));
                }
            }
        }
        out
    }
}

/// Checks that `s` is a single well-formed JSON value: a [`Json::parse`]
/// whose tree is dropped. Used by the exporter tests and the `exp_all`
/// trace smoke to ensure the written trace parses.
///
/// # Errors
///
/// Returns the byte offset and a short description of the first syntax
/// error.
pub fn validate_json(s: &str) -> Result<(), String> {
    Json::parse(s).map(drop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_serial as serial;

    fn sample() -> Snapshot {
        Snapshot {
            events: vec![
                TraceEvent {
                    name: "round",
                    cat: "engine",
                    ts_nanos: 10_000,
                    dur_nanos: 5_000,
                    tid: 1,
                    arg: Some(7),
                },
                TraceEvent {
                    name: "stage.deliver",
                    cat: "engine",
                    ts_nanos: 12_000,
                    dur_nanos: 2_000,
                    tid: 2,
                    arg: None,
                },
            ],
            metrics: vec![
                ("engine.messages", MetricValue::Counter(123)),
                ("pool.utilization", MetricValue::Gauge(0.75)),
            ],
            dropped: 1,
        }
    }

    #[test]
    fn chrome_json_is_wellformed_and_complete() {
        let json = sample().chrome_json();
        validate_json(&json).expect("trace JSON parses");
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"name\":\"round\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"args\":{\"arg\":7}"));
        assert!(json.contains("\"value\":123"));
        assert!(json.contains("\"dropped_events\":\"1\""));
    }

    /// Pins the exporter's unit contract: events store nanoseconds, the
    /// Chrome JSON emits microseconds. A 5 000 ns span must render as
    /// `"dur":5` — if a call site's nanoseconds ever reach the JSON
    /// unscaled (the historical 1000× skew), this fails.
    #[test]
    fn chrome_json_converts_nanos_to_micros() {
        let json = sample().chrome_json();
        assert!(json.contains("\"ts\":10,\"dur\":5,"), "whole-µs conversion, got: {json}");
        let frac = Snapshot {
            events: vec![TraceEvent {
                name: "tick",
                cat: "sim",
                ts_nanos: 10_500,
                dur_nanos: 1_250_042,
                tid: 1,
                arg: None,
            }],
            metrics: Vec::new(),
            dropped: 0,
        };
        let json = frac.chrome_json();
        validate_json(&json).expect("fractional-µs trace parses");
        assert!(json.contains("\"ts\":10.500,\"dur\":1250.042,"), "fractional µs, got: {json}");
    }

    #[test]
    fn csv_round_trips_rows_and_blanks() {
        let csv = sample().csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "kind,cat,name,ts_nanos,dur_nanos,tid,value");
        assert_eq!(lines[1], "span,engine,round,10000,5000,1,7");
        assert_eq!(lines[2], "span,engine,stage.deliver,12000,2000,2,");
        assert_eq!(lines[3], "counter,,engine.messages,,,,123");
        assert_eq!(lines[4], "gauge,,pool.utilization,,,,0.75");
        // Every row has the full column count (blank cells, never missing).
        for line in &lines {
            assert_eq!(line.matches(',').count(), 6, "{line}");
        }
    }

    #[test]
    fn empty_snapshot_still_exports() {
        let snap = Snapshot { events: Vec::new(), metrics: Vec::new(), dropped: 0 };
        validate_json(&snap.chrome_json()).expect("empty trace parses");
        assert_eq!(snap.csv().lines().count(), 1);
    }

    #[test]
    fn end_to_end_snapshot_exports() {
        let _g = serial();
        crate::set_enabled(true);
        {
            let _s = crate::span_arg("engine", "round", 1);
        }
        crate::counter("test.export.msgs").add(9);
        crate::set_enabled(false);
        let snap = crate::snapshot();
        let json = snap.chrome_json();
        validate_json(&json).expect("trace JSON parses");
        assert!(json.contains("\"name\":\"round\""));
        assert!(json.contains("test.export.msgs"));
    }

    #[test]
    fn json_string_escaping() {
        let mut s = String::new();
        push_json_string(&mut s, "a\"b\\c\nd\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\"");
        let mut wrapped = String::from("{\"k\":");
        wrapped.push_str(&s);
        wrapped.push('}');
        validate_json(&wrapped).expect("escaped string parses");
    }

    #[test]
    fn validator_rejects_malformed_json() {
        for bad in ["", "{", "{\"a\":}", "[1,]", "{\"a\":1} extra", "\"unterminated", "01x"] {
            assert!(validate_json(bad).is_err(), "{bad:?} accepted");
        }
        for good in ["{}", "[]", "null", "-1.5e-3", "{\"a\":[1,2,{\"b\":null}]}"] {
            assert!(validate_json(good).is_ok(), "{good:?} rejected");
        }
    }
}
