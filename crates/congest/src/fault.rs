//! Deterministic fault injection.
//!
//! The PODC 2005 model is synchronous and fault-free; fault injection exists
//! so the test suite can check that the algorithms' *safety* properties
//! (feasibility of the output where produced, no CONGEST violations) are
//! robust to lossy links, and to exercise engine code paths.

use crate::node::NodeId;
use crate::rng::NodeRng;

/// A deterministic plan for dropping messages.
///
/// Whether a given `(round, src, dst)` delivery is dropped is a pure
/// function of the plan, so replays with the same plan observe identical
/// faults regardless of execution order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Independent drop probability per delivered message, in `[0, 1]`.
    drop_prob: f64,
    /// Seed decorrelating this plan from the protocol's own randomness.
    seed: u64,
}

impl FaultPlan {
    /// Creates a plan that drops each message independently with
    /// probability `drop_prob`.
    ///
    /// # Panics
    ///
    /// Panics if `drop_prob` is not a probability (`NaN` or outside
    /// `[0, 1]`).
    pub fn drop_with_probability(drop_prob: f64, seed: u64) -> Self {
        assert!(
            drop_prob.is_finite() && (0.0..=1.0).contains(&drop_prob),
            "drop probability must be in [0, 1], got {drop_prob}"
        );
        FaultPlan { drop_prob, seed }
    }

    /// The configured drop probability.
    pub fn drop_prob(&self) -> f64 {
        self.drop_prob
    }

    /// Whether the message `src → dst` in `round` is dropped.
    pub fn drops(&self, round: u32, src: NodeId, dst: NodeId) -> bool {
        if self.drop_prob <= 0.0 {
            return false;
        }
        if self.drop_prob >= 1.0 {
            return true;
        }
        // Derive a one-shot stream keyed by the full delivery coordinate.
        // The seed and the edge key are absorbed sequentially by
        // `derive_keyed` — folding them together with XOR here would alias
        // every `(seed, src, dst)` pair sharing the same `seed ^ key`.
        let key = (u64::from(src.raw()) << 32) | u64::from(dst.raw());
        let mut rng = NodeRng::derive_keyed(self.seed, key, round);
        rng.bernoulli(self.drop_prob)
    }
}

/// A typed per-node verdict produced by fault attribution: *which* nodes
/// misbehaved during a run, and how. Modeled on tofn's `ProtocolFaulters`
/// idea — a protocol should identify faulters, not merely tolerate them.
///
/// Verdicts are severity-ordered (see [`FaultVerdict::severity`]) so a
/// convergecast can aggregate "worst offender" with a plain max.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultVerdict {
    /// No fault observed for this node.
    Honest,
    /// The node stopped participating at the given round (crash-stop).
    Crashed {
        /// First round the node no longer executed.
        round: u32,
    },
    /// The share of the node's outbound payloads that were lost exceeded
    /// the attribution threshold.
    DroppedAboveThreshold {
        /// Payloads lost in transit from this node.
        dropped: u64,
        /// Total payloads the node sent.
        sent: u64,
    },
    /// The node sent more than one message over a single directed edge in
    /// one round — a CONGEST bandwidth violation (duplicate/equivocation).
    Equivocated {
        /// First round the violation was observed.
        round: u32,
    },
}

impl FaultVerdict {
    /// Severity rank for max-aggregation: `Honest` < `Crashed` (fail-stop)
    /// < `DroppedAboveThreshold` (lossy) < `Equivocated` (protocol
    /// violation).
    pub fn severity(&self) -> u32 {
        match self {
            FaultVerdict::Honest => 0,
            FaultVerdict::Crashed { .. } => 1,
            FaultVerdict::DroppedAboveThreshold { .. } => 2,
            FaultVerdict::Equivocated { .. } => 3,
        }
    }

    /// Whether the verdict names an actual fault.
    pub fn is_faulty(&self) -> bool {
        self.severity() > 0
    }
}

/// Packs an accusation `(accused, severity)` into an `f64` that a max
/// convergecast aggregates losslessly: `severity * 2^32 + accused.raw()`.
/// Both components fit well inside the 53-bit mantissa, any real
/// accusation (severity ≥ 1) dominates every "nothing to report" value
/// (severity 0), and ties within a severity resolve to the highest node
/// id — deterministically.
pub fn encode_accusation(accused: NodeId, severity: u32) -> f64 {
    ((u64::from(severity) << 32) | u64::from(accused.raw())) as f64
}

/// Inverse of [`encode_accusation`]. Returns `None` when the encoded value
/// carries no fault (severity 0) or is out of range.
pub fn decode_accusation(encoded: f64) -> Option<(NodeId, u32)> {
    if !(encoded.is_finite() && encoded >= 0.0 && encoded.fract() == 0.0) {
        return None;
    }
    let bits = encoded as u64;
    if bits >= (1u64 << 53) {
        return None;
    }
    let severity = (bits >> 32) as u32;
    if severity == 0 {
        return None;
    }
    Some((NodeId::new(bits as u32), severity))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_probability_never_drops() {
        let plan = FaultPlan::drop_with_probability(0.0, 1);
        for r in 0..50 {
            assert!(!plan.drops(r, NodeId::new(0), NodeId::new(1)));
        }
    }

    #[test]
    fn one_probability_always_drops() {
        let plan = FaultPlan::drop_with_probability(1.0, 1);
        for r in 0..50 {
            assert!(plan.drops(r, NodeId::new(0), NodeId::new(1)));
        }
    }

    #[test]
    fn drops_are_deterministic() {
        let plan = FaultPlan::drop_with_probability(0.5, 77);
        for r in 0..100 {
            let a = plan.drops(r, NodeId::new(3), NodeId::new(9));
            let b = plan.drops(r, NodeId::new(3), NodeId::new(9));
            assert_eq!(a, b);
        }
    }

    #[test]
    fn drop_rate_close_to_requested() {
        let plan = FaultPlan::drop_with_probability(0.3, 42);
        let mut dropped = 0u32;
        let trials = 20_000u32;
        for r in 0..trials {
            if plan.drops(r, NodeId::new(r % 17), NodeId::new(r % 13)) {
                dropped += 1;
            }
        }
        let rate = f64::from(dropped) / f64::from(trials);
        assert!((rate - 0.3).abs() < 0.02, "observed drop rate {rate}");
    }

    #[test]
    fn direction_matters() {
        let plan = FaultPlan::drop_with_probability(0.5, 7);
        let forward: Vec<bool> =
            (0..64).map(|r| plan.drops(r, NodeId::new(1), NodeId::new(2))).collect();
        let backward: Vec<bool> =
            (0..64).map(|r| plan.drops(r, NodeId::new(2), NodeId::new(1))).collect();
        assert_ne!(forward, backward);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn rejects_invalid_probability() {
        let _ = FaultPlan::drop_with_probability(1.5, 0);
    }

    /// Cross-plan decorrelation: distinct `(seed, src, dst)` coordinates
    /// whose `seed ^ key` collide must not share drop streams. Under the
    /// old fold-by-XOR derivation every pair below observed *identical*
    /// drops on every round.
    #[test]
    fn xor_colliding_plans_are_decorrelated() {
        let rounds = 256u32;
        for (s1, d1, s2, d2) in
            [(3u32, 9u32, 9u32, 3u32), (1, 2, 5, 6), (0, 7, 7, 0), (10, 20, 30, 40)]
        {
            let key = |a: u32, b: u32| (u64::from(a) << 32) | u64::from(b);
            let seed_a = 0xDEAD_BEEF_u64;
            // Choose seed_b so the XOR-folded stream keys collide exactly.
            let seed_b = seed_a ^ key(s1, d1) ^ key(s2, d2);
            let plan_a = FaultPlan::drop_with_probability(0.5, seed_a);
            let plan_b = FaultPlan::drop_with_probability(0.5, seed_b);
            let a: Vec<bool> =
                (0..rounds).map(|r| plan_a.drops(r, NodeId::new(s1), NodeId::new(d1))).collect();
            let b: Vec<bool> =
                (0..rounds).map(|r| plan_b.drops(r, NodeId::new(s2), NodeId::new(d2))).collect();
            assert_ne!(a, b, "colliding coordinates ({s1},{d1})/({s2},{d2}) share a stream");
        }
    }

    #[test]
    fn distinct_seeds_decorrelate_same_edge() {
        let edge = (NodeId::new(4), NodeId::new(11));
        let a = FaultPlan::drop_with_probability(0.5, 1);
        let b = FaultPlan::drop_with_probability(0.5, 2);
        let da: Vec<bool> = (0..256).map(|r| a.drops(r, edge.0, edge.1)).collect();
        let db: Vec<bool> = (0..256).map(|r| b.drops(r, edge.0, edge.1)).collect();
        assert_ne!(da, db);
    }

    #[test]
    fn verdict_severity_is_totally_ordered() {
        let verdicts = [
            FaultVerdict::Honest,
            FaultVerdict::Crashed { round: 3 },
            FaultVerdict::DroppedAboveThreshold { dropped: 5, sent: 10 },
            FaultVerdict::Equivocated { round: 1 },
        ];
        for w in verdicts.windows(2) {
            assert!(w[0].severity() < w[1].severity());
        }
        assert!(!verdicts[0].is_faulty());
        assert!(verdicts[1..].iter().all(FaultVerdict::is_faulty));
    }

    #[test]
    fn accusation_encoding_round_trips_and_orders() {
        // Severity dominates node id under max-aggregation.
        let low = encode_accusation(NodeId::new(u32::MAX), 1);
        let high = encode_accusation(NodeId::new(0), 2);
        assert!(high > low);
        assert!(low > encode_accusation(NodeId::new(u32::MAX), 0));
        assert_eq!(decode_accusation(high), Some((NodeId::new(0), 2)));
        assert_eq!(decode_accusation(low), Some((NodeId::new(u32::MAX), 1)));
        // Severity 0 ("nothing to report") and junk decode to no fault.
        assert_eq!(decode_accusation(encode_accusation(NodeId::new(7), 0)), None);
        assert_eq!(decode_accusation(-1.0), None);
        assert_eq!(decode_accusation(f64::NAN), None);
        assert_eq!(decode_accusation(1.5), None);
    }
}
