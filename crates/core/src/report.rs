//! Experiment-facing run reports.

/// One algorithm's measured result on one instance, with everything the
/// experiment tables need.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Algorithm name including parameters, e.g. `paydual(s=6)`.
    pub algorithm: String,
    /// Total solution cost.
    pub cost: f64,
    /// Number of open facilities.
    pub num_open: usize,
    /// CONGEST rounds used (`None` for sequential baselines).
    pub rounds: Option<u32>,
    /// Messages delivered (`None` for sequential baselines).
    pub messages: Option<u64>,
    /// Total bits delivered (`None` for sequential baselines).
    pub total_bits: Option<u64>,
    /// Largest single message in bits (`None` for sequential baselines).
    pub max_message_bits: Option<u64>,
    /// Certified lower bound on `OPT` used as the ratio denominator.
    pub lower_bound: f64,
    /// Provenance of the lower bound (`"exact"`, `"dual-fitting"`,
    /// `"trivial"`).
    pub bound_source: String,
    /// `cost / lower_bound` — an upper bound on the true approximation
    /// ratio (`None` when the lower bound is zero).
    pub ratio: Option<f64>,
}

impl RunReport {
    /// Formats the report as one aligned table row (matches
    /// [`RunReport::table_header`]).
    pub fn table_row(&self) -> String {
        format!(
            "{:<22} {:>12.2} {:>6} {:>8} {:>10} {:>12.2} {:>8} {:>7}",
            self.algorithm,
            self.cost,
            self.num_open,
            self.rounds.map_or_else(|| "-".into(), |r| r.to_string()),
            self.messages.map_or_else(|| "-".into(), |m| m.to_string()),
            self.lower_bound,
            self.ratio.map_or_else(|| "-".into(), |r| format!("{r:.3}")),
            self.bound_source,
        )
    }

    /// The header matching [`RunReport::table_row`].
    pub fn table_header() -> String {
        format!(
            "{:<22} {:>12} {:>6} {:>8} {:>10} {:>12} {:>8} {:>7}",
            "algorithm", "cost", "open", "rounds", "messages", "LB", "ratio", "src"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunReport {
        RunReport {
            algorithm: "paydual(s=6)".into(),
            cost: 123.456,
            num_open: 4,
            rounds: Some(22),
            messages: Some(1000),
            total_bits: Some(64_000),
            max_message_bits: Some(72),
            lower_bound: 100.0,
            bound_source: "exact".into(),
            ratio: Some(1.23456),
        }
    }

    #[test]
    fn table_row_contains_fields() {
        let row = sample().table_row();
        assert!(row.contains("paydual(s=6)"));
        assert!(row.contains("123.46"));
        assert!(row.contains("22"));
        assert!(row.contains("1.235"));
        assert!(row.contains("exact"));
    }

    #[test]
    fn sequential_baseline_renders_dashes() {
        let mut r = sample();
        r.rounds = None;
        r.messages = None;
        r.ratio = None;
        let row = r.table_row();
        assert!(row.contains('-'));
    }

    #[test]
    fn header_and_row_have_same_column_count() {
        let header = RunReport::table_header();
        let row = sample().table_row();
        assert_eq!(header.split_whitespace().count(), row.split_whitespace().count());
    }
}
