//! What a run prints: a human table of every metric with its unit and
//! sample count, one detail line, and as the last line the result object
//! `{"correct", "attempted", "failed", "metrics"}`.

use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How many measurements the value rests on.
    pub samples: usize,
    /// Whether the result object carries it (an end-to-end metric that
    /// is reported but not gated appears only in the table and detail).
    pub gated: bool,
}

/// The outcome of one workload run.
#[derive(Debug, Default)]
pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
    /// Why the run's outputs are wrong; empty when they are all correct.
    pub mismatches: Vec<String>,
    /// Extra facts about the run (generator lateness, bound sources, ...),
    /// as `(key, JSON value)`.
    pub detail: Vec<(String, String)>,
}

impl Report {
    pub fn new(workload: &str, seed: u64) -> Report {
        Report { workload: workload.to_owned(), seed, ..Report::default() }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        let gated = crate::spec::in_result(name);
        self.metrics.push(Metric { name: name.to_owned(), value, unit, samples, gated });
    }

    pub fn detail(&mut self, key: &str, json: String) {
        self.detail.push((key.to_owned(), json));
    }

    pub fn mismatch(&mut self, what: String) {
        if self.mismatches.len() < 20 {
            self.mismatches.push(what);
        } else if self.mismatches.len() == 20 {
            self.mismatches.push("(further mismatches not shown)".to_owned());
        }
    }

    pub fn correct(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// Prints the table, the detail line and the result line.
    pub fn print(&self) {
        let width = self.metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
        println!("# workload {} seed {}", self.workload, self.seed);
        for m in &self.metrics {
            let note = if m.gated { "" } else { "  (reported, not gated)" };
            println!("  {:width$}  {:>16.6} {:<6} n={}{note}", m.name, m.value, m.unit, m.samples);
        }
        for mismatch in &self.mismatches {
            println!("  MISMATCH {mismatch}");
        }
        let mut detail = String::from("{");
        let _ = write!(detail, "\"workload\":{},\"seed\":{}", json_str(&self.workload), self.seed);
        let _ = write!(detail, ",\"samples\":{{");
        for (k, m) in self.metrics.iter().enumerate() {
            let sep = if k > 0 { "," } else { "" };
            let _ = write!(detail, "{sep}{}:{}", json_str(&m.name), m.samples);
        }
        detail.push_str("},\"not_gated\":{");
        for (k, m) in self.metrics.iter().filter(|m| !m.gated).enumerate() {
            let sep = if k > 0 { "," } else { "" };
            let _ = write!(
                detail,
                "{sep}{}:{{\"value\":{},\"unit\":{}}}",
                json_str(&m.name),
                m.value,
                json_str(m.unit)
            );
        }
        detail.push('}');
        for (key, value) in &self.detail {
            let _ = write!(detail, ",{}:{value}", json_str(key));
        }
        detail.push('}');
        println!("{detail}");
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (k, m) in self.metrics.iter().filter(|m| m.gated).enumerate() {
            let sep = if k > 0 { "," } else { "" };
            let _ = write!(
                out,
                "{sep}{}:{{\"value\":{},\"unit\":{}}}",
                json_str(&m.name),
                m.value,
                json_str(m.unit)
            );
        }
        out.push_str("}}");
        println!("{out}");
    }
}

/// `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
