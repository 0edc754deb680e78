//! Round and run statistics.
//!
//! The simulator's whole purpose is to *measure* the CONGEST quantities the
//! paper reasons about: number of rounds, number of messages, message sizes,
//! and per-edge congestion. A [`Transcript`] accumulates one [`RoundStats`]
//! per executed round.

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
    /// Maximum number of messages sent over a single directed edge. A
    /// second send over an edge fails the round, so a completed round
    /// reads 1 if it sent anything and 0 otherwise; the field is kept for
    /// E6's congestion column.
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
    fn congestion_violation_detected() {
        let mut t = Transcript::new();
        t.push(stats(0, 4, 64, 16, 2));
        assert!(!t.congest_compliant(1024));
        assert_eq!(t.max_messages_per_edge(), 2);
    }
}
