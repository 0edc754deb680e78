//! Round and run statistics.
//!
//! The simulator's whole purpose is to *measure* the CONGEST quantities the
//! paper reasons about: number of rounds, number of messages, message sizes,
//! and per-edge congestion. A [`Transcript`] accumulates one [`RoundStats`]
//! per executed round.
//!
//! Engine *performance* telemetry lives in a separate [`EngineProfile`]
//! (one [`StageTimings`] per round): wall-clock stage timings and pool
//! scheduling counters are machine- and timing-dependent, so they must
//! never enter the [`Transcript`], which tests compare for bit-identity
//! across worker counts.

/// Statistics for a single executed round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundStats {
    /// Round number (0-based).
    pub round: u32,
    /// Messages successfully delivered this round.
    pub messages: u64,
    /// Messages dropped by fault injection this round.
    pub dropped: u64,
    /// Total delivered bits this round.
    pub bits: u64,
    /// Largest single message, in bits.
    pub max_message_bits: u64,
    /// Maximum number of messages sent over a single directed edge.
    /// Values above 1 are CONGEST violations (recorded when the duplicate
    /// policy is `Record`).
    pub max_messages_per_edge: u64,
}

/// Aggregated statistics of a complete run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Transcript {
    rounds: Vec<RoundStats>,
}

impl Transcript {
    /// An empty transcript.
    pub fn new() -> Self {
        Transcript::default()
    }

    /// Appends statistics of one executed round.
    pub(crate) fn push(&mut self, stats: RoundStats) {
        self.rounds.push(stats);
    }

    /// Per-round statistics, in execution order.
    pub fn rounds(&self) -> &[RoundStats] {
        &self.rounds
    }

    /// Number of executed rounds.
    pub fn num_rounds(&self) -> u32 {
        self.rounds.len() as u32
    }

    /// Total delivered messages.
    pub fn total_messages(&self) -> u64 {
        self.rounds.iter().map(|r| r.messages).sum()
    }

    /// Total dropped messages.
    pub fn total_dropped(&self) -> u64 {
        self.rounds.iter().map(|r| r.dropped).sum()
    }

    /// Total delivered bits.
    pub fn total_bits(&self) -> u64 {
        self.rounds.iter().map(|r| r.bits).sum()
    }

    /// Largest single message observed, in bits.
    pub fn max_message_bits(&self) -> u64 {
        self.rounds.iter().map(|r| r.max_message_bits).max().unwrap_or(0)
    }

    /// Largest per-directed-edge message count observed in any round.
    pub fn max_messages_per_edge(&self) -> u64 {
        self.rounds.iter().map(|r| r.max_messages_per_edge).max().unwrap_or(0)
    }

    /// Whether every round respected the CONGEST discipline: at most one
    /// message per directed edge and every message at most `bit_limit` bits.
    pub fn congest_compliant(&self, bit_limit: u64) -> bool {
        self.max_messages_per_edge() <= 1 && self.max_message_bits() <= bit_limit
    }
}

/// Wall-clock stage timings and pool scheduling counters for one round.
///
/// Collected by the engine on every round and exposed via
/// `Network::profile`. Deliberately **not** part of [`RoundStats`]: two
/// runs that differ only in worker count must produce equal transcripts,
/// and timings/steal counts are nondeterministic by nature.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Round number (0-based).
    pub round: u32,
    /// Whether the round took the fused serial fast path (in which case
    /// the whole round is attributed to `step_nanos` and no pool tasks
    /// were dispatched).
    pub fused: bool,
    /// Wall-clock nanoseconds spent in the step stage.
    pub step_nanos: u64,
    /// Wall-clock nanoseconds spent in the delivery stage.
    pub deliver_nanos: u64,
    /// Pool tasks dispatched this round (step chunks + delivery shards).
    pub pool_tasks: u64,
    /// Pool tasks executed by a worker other than the one whose deque
    /// they were pushed to (work stealing in action).
    pub stolen_tasks: u64,
    /// Whether the round failed with an error before completing. Aborted
    /// rows keep whatever stage timings were measured up to the failure
    /// point (a step-stage error leaves `deliver_nanos` at 0 because the
    /// delivery stage never ran, *not* because delivery was free); the
    /// [`EngineProfile`] aggregates skip them.
    pub aborted: bool,
}

/// Per-round engine performance telemetry for one run: one
/// [`StageTimings`] entry per *attempted* round, in execution order.
/// Rounds that failed mid-pipeline are present with
/// [`StageTimings::aborted`] set; the aggregate accessors ignore them so
/// an errored round can never masquerade as a zero-cost delivery.
#[derive(Debug, Clone, Default)]
pub struct EngineProfile {
    rounds: Vec<StageTimings>,
}

impl EngineProfile {
    /// Appends one round's timings.
    pub(crate) fn push(&mut self, timings: StageTimings) {
        self.rounds.push(timings);
    }

    /// Per-round timings, in execution order (aborted rounds included).
    pub fn rounds(&self) -> &[StageTimings] {
        &self.rounds
    }

    /// Timings of rounds that ran the full pipeline.
    fn completed(&self) -> impl Iterator<Item = &StageTimings> {
        self.rounds.iter().filter(|t| !t.aborted)
    }

    /// Total wall-clock nanoseconds spent in step stages (fused rounds
    /// count entirely as step time; aborted rounds are excluded).
    pub fn total_step_nanos(&self) -> u64 {
        self.completed().map(|t| t.step_nanos).sum()
    }

    /// Total wall-clock nanoseconds spent in delivery stages (aborted
    /// rounds are excluded).
    pub fn total_deliver_nanos(&self) -> u64 {
        self.completed().map(|t| t.deliver_nanos).sum()
    }

    /// Total pool tasks dispatched across all completed rounds.
    pub fn total_pool_tasks(&self) -> u64 {
        self.completed().map(|t| t.pool_tasks).sum()
    }

    /// Total pool tasks executed by stealing across all completed rounds.
    pub fn total_stolen_tasks(&self) -> u64 {
        self.completed().map(|t| t.stolen_tasks).sum()
    }

    /// Number of completed rounds that took the fused serial fast path.
    pub fn fused_rounds(&self) -> u32 {
        self.completed().filter(|t| t.fused).count() as u32
    }

    /// Number of rounds that failed before completing their pipeline.
    pub fn aborted_rounds(&self) -> u32 {
        self.rounds.iter().filter(|t| t.aborted).count() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(round: u32, messages: u64, bits: u64, max_msg: u64, per_edge: u64) -> RoundStats {
        RoundStats {
            round,
            messages,
            dropped: 0,
            bits,
            max_message_bits: max_msg,
            max_messages_per_edge: per_edge,
        }
    }

    #[test]
    fn empty_transcript() {
        let t = Transcript::new();
        assert_eq!(t.num_rounds(), 0);
        assert_eq!(t.total_messages(), 0);
        assert_eq!(t.total_bits(), 0);
        assert_eq!(t.max_message_bits(), 0);
        assert!(t.congest_compliant(64));
    }

    #[test]
    fn aggregation() {
        let mut t = Transcript::new();
        t.push(stats(0, 10, 640, 64, 1));
        t.push(stats(1, 5, 200, 128, 1));
        assert_eq!(t.num_rounds(), 2);
        assert_eq!(t.total_messages(), 15);
        assert_eq!(t.total_bits(), 840);
        assert_eq!(t.max_message_bits(), 128);
        assert_eq!(t.max_messages_per_edge(), 1);
        assert!(t.congest_compliant(128));
        assert!(!t.congest_compliant(64));
    }

    #[test]
    fn profile_aggregates_per_round_telemetry() {
        let mut p = EngineProfile::default();
        p.push(StageTimings { round: 0, fused: true, step_nanos: 100, ..Default::default() });
        p.push(StageTimings {
            round: 1,
            fused: false,
            step_nanos: 40,
            deliver_nanos: 60,
            pool_tasks: 8,
            stolen_tasks: 3,
            aborted: false,
        });
        assert_eq!(p.rounds().len(), 2);
        assert_eq!(p.total_step_nanos(), 140);
        assert_eq!(p.total_deliver_nanos(), 60);
        assert_eq!(p.total_pool_tasks(), 8);
        assert_eq!(p.total_stolen_tasks(), 3);
        assert_eq!(p.fused_rounds(), 1);
        assert_eq!(p.aborted_rounds(), 0);
    }

    #[test]
    fn aborted_rounds_are_visible_but_excluded_from_aggregates() {
        let mut p = EngineProfile::default();
        p.push(StageTimings { round: 0, fused: true, step_nanos: 100, ..Default::default() });
        p.push(StageTimings {
            round: 1,
            fused: false,
            step_nanos: 50,
            aborted: true,
            ..Default::default()
        });
        assert_eq!(p.rounds().len(), 2, "aborted rows stay in the per-round view");
        assert_eq!(p.aborted_rounds(), 1);
        assert_eq!(p.total_step_nanos(), 100, "aborted step time must not pollute totals");
        assert_eq!(p.total_deliver_nanos(), 0);
        assert_eq!(p.fused_rounds(), 1);
    }

    #[test]
    fn congestion_violation_detected() {
        let mut t = Transcript::new();
        t.push(stats(0, 4, 64, 16, 2));
        assert!(!t.congest_compliant(1024));
        assert_eq!(t.max_messages_per_edge(), 2);
    }
}
