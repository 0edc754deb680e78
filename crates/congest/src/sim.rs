//! Simulated time: the lock-step run, priced as if its links were
//! asynchronous.
//!
//! ## Why
//!
//! The lock-step [`Network`] charges every round one unit of time, which is
//! exactly the CONGEST cost model — but the paper's O(k)-round guarantee is
//! most interesting when rounds cost real, heterogeneous time. The
//! simulator times the same protocols in simulated nanoseconds, with
//! per-edge latency drawn from a pluggable distribution.
//!
//! ## The clock
//!
//! Over asynchronous links a lock-step protocol runs unmodified under the
//! α-synchronizer: in every round each node sends one envelope per incident
//! edge (its message, or an empty *pulse*), and it steps round `r` once it
//! holds the round-`r − 1` envelope of every neighbour that sent one and
//! its own round-`r − 1` compute has ended. Every start time is therefore a
//! max over times known one round earlier:
//!
//! ```text
//! start(v, 0) = 0
//! start(v, r) = max(start(v, r−1) + C,
//!                   max over neighbours u that sent in round r−1 of
//!                       start(u, r−1) + C + latency(u→v, r−1))
//! ```
//!
//! with `C` the fixed 1 µs compute time of a step and each latency one draw
//! from a stream keyed by `(latency seed, directed edge, round)`. A node
//! done before round 0 sends its final pulses at time 0 with no compute,
//! and round 1 waits for them unless that node is crashed at round 0.
//!
//! The synchronizer decides only *when* a node steps, never what its inbox
//! holds, so [`Simulator`] runs the protocol on a [`Network`] and applies
//! the recurrence after each round: the [`Transcript`], the node states and
//! the errors are the engine's by construction. The clock equals the
//! schedule of an event-driven simulator over per-edge envelopes and the
//! synchronizer's round buffers; the unit tests keep that simulator as a
//! reference and compare the two.
//!
//! Timing never touches the transcript; it lives in the separate
//! [`SimReport`], where each step and each envelope counts as one event.
//! When tracing is enabled the simulated timeline is exported through
//! [`distfl_obs::complete_at`] with category `"sim"`, so `--trace` renders
//! virtual rounds in the same Chrome trace as wall-clock spans; the run
//! records the engine's own `engine/round` spans and counters too.

use crate::engine::{crash_rounds, CongestConfig, Network};
use crate::error::CongestError;
use crate::fault::FaultPlan;
use crate::metrics::{RoundStats, Transcript};
use crate::node::{NodeId, NodeLogic};
use crate::rng::NodeRng;
use crate::topology::Topology;

#[cfg(test)]
mod reference;
#[cfg(test)]
mod synchronizer;

/// Per-edge message latency distribution, sampled deterministically from a
/// [`NodeRng`] stream keyed by `(latency seed, directed edge, round)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LatencyModel {
    /// Every message takes exactly this many nanoseconds.
    Constant(u64),
    /// Uniform in `[lo, hi]` nanoseconds (inclusive). Wide ranges produce
    /// heavy reordering across edges and rounds.
    Uniform {
        /// Minimum latency.
        lo: u64,
        /// Maximum latency (inclusive; must be `>= lo`).
        hi: u64,
    },
    /// Log-normal with the given median (nanoseconds) and shape `sigma`
    /// (the standard deviation of the underlying normal): a long-tailed
    /// model of real network latency. Samples are clamped to
    /// `[1, 10^15]` ns.
    LogNormal {
        /// Median latency in nanoseconds (`exp(mu)` of the underlying
        /// normal); must be positive and finite.
        median_nanos: f64,
        /// Shape parameter; must be finite and non-negative.
        sigma: f64,
    },
}

impl LatencyModel {
    /// Validates the model's parameters.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are out of range (empty uniform interval,
    /// non-positive median, non-finite or negative sigma).
    fn validate(&self) {
        match *self {
            LatencyModel::Constant(_) => {}
            LatencyModel::Uniform { lo, hi } => {
                assert!(lo <= hi, "uniform latency needs lo <= hi, got [{lo}, {hi}]");
            }
            LatencyModel::LogNormal { median_nanos, sigma } => {
                assert!(
                    median_nanos.is_finite() && median_nanos > 0.0,
                    "lognormal median must be positive and finite, got {median_nanos}"
                );
                assert!(
                    sigma.is_finite() && sigma >= 0.0,
                    "lognormal sigma must be finite and non-negative, got {sigma}"
                );
            }
        }
    }

    /// Draws one latency in nanoseconds.
    fn sample(&self, rng: &mut NodeRng) -> u64 {
        match *self {
            LatencyModel::Constant(nanos) => nanos,
            LatencyModel::Uniform { lo, hi } => {
                if lo == hi {
                    lo
                } else {
                    lo + rng.below(hi - lo + 1)
                }
            }
            LatencyModel::LogNormal { median_nanos, sigma } => {
                // Box–Muller on two uniforms; u1 shifted into (0, 1] so the
                // logarithm is finite.
                let u1 = 1.0 - rng.next_f64();
                let u2 = rng.next_f64();
                let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                (median_nanos * (sigma * z).exp()).clamp(1.0, 1e15) as u64
            }
        }
    }

    /// The latency of the envelope `src → dst` of `round`: one draw from
    /// the stream keyed by `(seed, directed edge, round)`.
    fn draw(&self, seed: u64, src: NodeId, dst: NodeId, round: u32) -> u64 {
        let key = (u64::from(src.raw()) << 32) | u64::from(dst.raw());
        self.sample(&mut NodeRng::derive_keyed(seed, key, round))
    }
}

/// Configuration of one simulated execution.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Per-edge propagation latency model.
    pub latency: LatencyModel,
    /// Seed of the latency sampling streams. Independent of the
    /// protocol's `master_seed`: changing it reshuffles the timing without
    /// touching the transcript.
    pub latency_seed: u64,
    /// Deterministic message-drop plan, handed to the engine as
    /// [`CongestConfig::fault`](crate::CongestConfig).
    pub fault: Option<FaultPlan>,
    /// Crash-stop schedule, handed to the engine as
    /// [`CongestConfig::crashes`](crate::CongestConfig).
    pub crashes: Vec<(NodeId, u32)>,
}

/// Virtual nanoseconds of local computation charged per node step;
/// envelopes depart this long after the step starts.
const COMPUTE_NANOS: u64 = 1_000;

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            latency: LatencyModel::Constant(50_000),
            latency_seed: 0,
            fault: None,
            crashes: Vec::new(),
        }
    }
}

/// Virtual-clock measurements of one simulated run. Everything here is
/// timing — none of it feeds back into the [`Transcript`], which is the
/// lock-step engine's.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimReport {
    /// Virtual time of the last event (simulated makespan).
    pub virtual_nanos: u64,
    /// Events: one per node step and one per envelope.
    pub events_processed: u64,
    /// Envelopes the sender addressed a message to, even if the fault
    /// plan dropped it in transit.
    pub protocol_envelopes: u64,
    /// Pure synchronizer pulses (envelopes nothing was addressed to) — the
    /// α-synchronizer's overhead.
    pub pulse_envelopes: u64,
    /// Per round: virtual `(start, end)` of the round's step executions
    /// (end includes the final step's compute time).
    pub round_spans: Vec<(u64, u64)>,
}

/// The CONGEST simulator: a lock-step run timed by the recurrence in the
/// [module docs](self).
pub struct Simulator<L: NodeLogic> {
    net: Network<L>,
    latency: LatencyModel,
    latency_seed: u64,
    /// Round from which each node is crashed (`u32::MAX` = never).
    crash_round: Vec<u32>,
    /// Per node: the earliest start of its next step, the max of its last
    /// step's end and the arrivals of the envelopes it waits for.
    ready: Vec<u64>,
    /// The nodes stepping in the current round, with their start times.
    steps: Vec<(usize, u64)>,
    transcript: Transcript,
    report: SimReport,
    /// What `run` returned, once it has run.
    outcome: Option<Result<(), CongestError>>,
}

impl<L: NodeLogic> std::fmt::Debug for Simulator<L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("network", &self.net)
            .field("virtual_nanos", &self.report.virtual_nanos)
            .finish_non_exhaustive()
    }
}

impl<L: NodeLogic> Simulator<L> {
    /// Creates a simulator over `topo` running one logic per node.
    ///
    /// # Errors
    ///
    /// Returns [`CongestError::NodeCountMismatch`] if `nodes.len()`
    /// differs from the topology's node count.
    ///
    /// # Panics
    ///
    /// Panics if the latency model's parameters are out of range
    /// (misconfiguration, like [`FaultPlan::drop_with_probability`]).
    pub fn new(
        topo: Topology,
        nodes: Vec<L>,
        master_seed: u64,
        config: SimConfig,
    ) -> Result<Self, CongestError> {
        let n = nodes.len();
        let SimConfig { latency, latency_seed, fault, crashes } = config;
        let crash_round = crash_rounds(n, &crashes);
        let engine = CongestConfig { fault, crashes, ..CongestConfig::default() };
        let net = Network::with_config(topo, nodes, master_seed, engine)?;
        latency.validate();
        Ok(Simulator {
            net,
            latency,
            latency_seed,
            crash_round,
            ready: vec![0; n],
            steps: Vec::new(),
            transcript: Transcript::new(),
            report: SimReport::default(),
            outcome: None,
        })
    }

    /// The communication graph.
    pub fn topology(&self) -> &Topology {
        self.net.topology()
    }

    /// All node logics, indexed by node id.
    pub fn nodes(&self) -> &[L] {
        self.net.nodes()
    }

    /// The statistics accumulated by the run.
    pub fn transcript(&self) -> &Transcript {
        &self.transcript
    }

    /// Consumes the simulator, returning node logics and transcript.
    pub fn into_parts(self) -> (Vec<L>, Transcript) {
        (self.net.into_parts().0, self.transcript)
    }

    /// Virtual-clock measurements of the run.
    pub fn report(&self) -> &SimReport {
        &self.report
    }

    /// Runs the protocol on the lock-step engine until every node is done
    /// (or crashed), timing each round as it completes. Idempotent:
    /// calling again returns the cached outcome.
    ///
    /// # Errors
    ///
    /// Returns the engine's errors: [`CongestError::NotNeighbor`] and
    /// [`CongestError::EdgeCongestion`], after which the transcript is
    /// left empty, and [`CongestError::RoundLimit`] when some live node is
    /// still not done after `max_rounds` rounds, after which the
    /// transcript holds those rounds.
    pub fn run(&mut self, max_rounds: u32) -> Result<&Transcript, CongestError> {
        if self.outcome.is_none() {
            self.outcome = Some(self.drive(max_rounds));
        }
        match &self.outcome {
            Some(Err(err)) => Err(err.clone()),
            _ => Ok(&self.transcript),
        }
    }

    /// Sends the pulses of the nodes done before round 0, then steps and
    /// times rounds with the engine's own loop condition.
    fn drive(&mut self, max_rounds: u32) -> Result<(), CongestError> {
        for u in 0..self.net.nodes().len() {
            if self.net.nodes()[u].is_done() {
                // Nobody waits for a node crashed at round 0.
                self.send_envelopes(u, 0, 0, self.crash_round[u] > 0);
            }
        }
        while !self.net.all_done() && self.net.round() < max_rounds {
            let round = self.net.round();
            // The engine steps the live nodes that are not done; each start
            // depends only on earlier rounds.
            self.steps.clear();
            for (v, node) in self.net.nodes().iter().enumerate() {
                if !node.is_done() && self.crash_round[v] > round {
                    self.steps.push((v, if round == 0 { 0 } else { self.ready[v] }));
                }
            }
            let stats = self.net.step()?;
            self.time_round(round, stats);
        }
        self.transcript = self.net.transcript().clone();
        if distfl_obs::enabled() {
            for (r, &(start, end)) in self.report.round_spans.iter().enumerate() {
                distfl_obs::complete_at(
                    "sim",
                    "round",
                    start,
                    end.saturating_sub(start),
                    Some(r as u64),
                );
            }
            distfl_obs::complete_at("sim", "run", 0, self.report.virtual_nanos, None);
        }
        // Every node is done, or the engine reports its round limit.
        self.net.run(max_rounds).map(|_| ())
    }

    /// Applies the recurrence to the round just stepped: each step ends
    /// one compute time after its start, and its envelopes leave then.
    fn time_round(&mut self, round: u32, stats: RoundStats) {
        let steps = std::mem::take(&mut self.steps);
        let mut span = (u64::MAX, 0);
        for &(v, start) in &steps {
            let end = start + COMPUTE_NANOS;
            span = (span.0.min(start), span.1.max(end));
            self.ready[v] = self.ready[v].max(end);
            self.send_envelopes(v, round, end, true);
        }
        // An edge carries at most one message a round, so the envelopes
        // with a message are the round's messages, delivered or dropped.
        let addressed = stats.messages + stats.dropped;
        self.report.protocol_envelopes += addressed;
        self.report.pulse_envelopes -= addressed;
        self.report.events_processed += steps.len() as u64;
        self.report.virtual_nanos = self.report.virtual_nanos.max(span.1);
        self.report.round_spans.push(span);
        self.steps = steps;
    }

    /// Sends `u`'s round-`round` envelopes at `send`, counting each as a
    /// pulse. Each lands one latency draw later; if `waited`, its
    /// receiver's next step waits for it.
    fn send_envelopes(&mut self, u: usize, round: u32, send: u64, waited: bool) {
        let src = NodeId::new(u as u32);
        let neighbors = self.net.topology().neighbors(src);
        for &dst in neighbors {
            let at = send + self.latency.draw(self.latency_seed, src, dst, round);
            self.report.virtual_nanos = self.report.virtual_nanos.max(at);
            if waited {
                self.ready[dst.index()] = self.ready[dst.index()].max(at);
            }
        }
        self.report.events_processed += neighbors.len() as u64;
        self.report.pulse_envelopes += neighbors.len() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Payload;
    use proptest::prelude::*;

    /// Variable-width payload so bit accounting is non-trivial.
    #[derive(Clone, Debug, PartialEq)]
    struct Num(u64);
    impl Payload for Num {
        fn size_bits(&self) -> u64 {
            u64::from(64 - self.0.leading_zeros()) + 8
        }
    }

    /// A gossip protocol exercising inbox order, per-round RNG, and
    /// variable fan-out: every round each node folds its inbox into an
    /// accumulator, then broadcasts a salted digest until its horizon.
    #[derive(Clone, Debug, PartialEq)]
    struct Gossip {
        horizon: u32,
        acc: u64,
        done: bool,
    }
    impl Gossip {
        fn new(horizon: u32) -> Self {
            Gossip { horizon, acc: 0, done: false }
        }
    }
    impl NodeLogic for Gossip {
        type Msg = Num;
        fn step(&mut self, ctx: &mut crate::engine::StepCtx<'_, Num>) {
            for (src, m) in ctx.inbox() {
                self.acc = self.acc.wrapping_mul(31).wrapping_add(m.0 ^ u64::from(src.raw()));
            }
            if ctx.round() + 1 >= self.horizon {
                self.done = true;
                return;
            }
            let salt = ctx.rng().below(1 << 20);
            ctx.broadcast(Num(self.acc.wrapping_add(salt) & 0xFFFF));
        }
        fn is_done(&self) -> bool {
            self.done
        }
    }

    fn engine_run(
        topo: &Topology,
        nodes: Vec<Gossip>,
        seed: u64,
        config: CongestConfig,
        max_rounds: u32,
    ) -> (Result<(), CongestError>, Transcript, Vec<Gossip>) {
        let mut net = Network::with_config(topo.clone(), nodes, seed, config).unwrap();
        let res = net.run(max_rounds).map(|_| ()).map_err(|e| e.clone());
        (res, net.transcript().clone(), net.nodes().to_vec())
    }

    fn sim_run(
        topo: &Topology,
        nodes: Vec<Gossip>,
        seed: u64,
        config: SimConfig,
        max_rounds: u32,
    ) -> (Result<(), CongestError>, Simulator<Gossip>) {
        let mut sim = Simulator::new(topo.clone(), nodes, seed, config).unwrap();
        let res = sim.run(max_rounds).map(|_| ()).map_err(|e| e.clone());
        (res, sim)
    }

    fn gossips(n: usize, horizon: u32) -> Vec<Gossip> {
        (0..n).map(|_| Gossip::new(horizon)).collect()
    }

    #[test]
    fn transcript_matches_engine_on_default_config() {
        let topo = Topology::ring(6).unwrap();
        let (eres, etr, enodes) =
            engine_run(&topo, gossips(6, 5), 42, CongestConfig::default(), 20);
        let (sres, sim) = sim_run(&topo, gossips(6, 5), 42, SimConfig::default(), 20);
        assert_eq!(eres, sres);
        assert_eq!(&etr, sim.transcript());
        assert_eq!(&enodes, sim.nodes());
        assert!(etr.total_messages() > 0);
    }

    #[test]
    fn transcript_matches_engine_across_latency_models() {
        let topo = Topology::grid(3, 4).unwrap();
        let (_, etr, enodes) = engine_run(&topo, gossips(12, 6), 7, CongestConfig::default(), 20);
        let models = [
            LatencyModel::Constant(10),
            LatencyModel::Uniform { lo: 1, hi: 1_000_000 },
            LatencyModel::LogNormal { median_nanos: 50_000.0, sigma: 1.5 },
        ];
        for model in models {
            for latency_seed in [0u64, 99] {
                let config = SimConfig { latency: model, latency_seed, ..SimConfig::default() };
                let (res, sim) = sim_run(&topo, gossips(12, 6), 7, config, 20);
                assert_eq!(res, Ok(()), "{model:?}");
                assert_eq!(&etr, sim.transcript(), "{model:?} seed {latency_seed}");
                assert_eq!(&enodes, sim.nodes(), "{model:?} seed {latency_seed}");
            }
        }
    }

    #[test]
    fn simulation_is_deterministic() {
        let topo = Topology::ring(5).unwrap();
        let config = SimConfig {
            latency: LatencyModel::Uniform { lo: 10, hi: 500_000 },
            latency_seed: 3,
            ..SimConfig::default()
        };
        let (_, a) = sim_run(&topo, gossips(5, 7), 11, config.clone(), 20);
        let (_, b) = sim_run(&topo, gossips(5, 7), 11, config, 20);
        assert_eq!(a.transcript(), b.transcript());
        assert_eq!(a.report(), b.report());
        assert_eq!(a.nodes(), b.nodes());
    }

    #[test]
    fn latency_seed_reshuffles_timing_but_not_transcript() {
        let topo = Topology::ring(5).unwrap();
        let mk = |latency_seed| SimConfig {
            latency: LatencyModel::Uniform { lo: 10, hi: 500_000 },
            latency_seed,
            ..SimConfig::default()
        };
        let (_, a) = sim_run(&topo, gossips(5, 7), 11, mk(3), 20);
        let (_, b) = sim_run(&topo, gossips(5, 7), 11, mk(4), 20);
        assert_eq!(a.transcript(), b.transcript());
        assert_eq!(a.nodes(), b.nodes());
        assert_ne!(
            a.report().virtual_nanos,
            b.report().virtual_nanos,
            "different latency seeds should land on different makespans"
        );
    }

    #[test]
    fn fault_plan_drops_identically_to_engine() {
        let topo = Topology::ring(5).unwrap();
        let plan = FaultPlan::drop_with_probability(0.3, 77);
        let econfig = CongestConfig { fault: Some(plan), ..CongestConfig::default() };
        let sconfig = SimConfig { fault: Some(plan), ..SimConfig::default() };
        let (eres, etr, enodes) = engine_run(&topo, gossips(5, 8), 13, econfig, 20);
        let (sres, sim) = sim_run(&topo, gossips(5, 8), 13, sconfig, 20);
        assert_eq!(eres, sres);
        assert_eq!(&etr, sim.transcript());
        assert_eq!(&enodes, sim.nodes());
        assert!(etr.total_dropped() > 0, "plan should actually drop something");
    }

    #[test]
    fn crash_stops_a_node_like_engine() {
        let topo = Topology::ring(4).unwrap();
        let crashes = vec![(NodeId::new(1), 2)];
        let econfig = CongestConfig { crashes: crashes.clone(), ..CongestConfig::default() };
        let sconfig = SimConfig { crashes, ..SimConfig::default() };
        let (eres, etr, enodes) = engine_run(&topo, gossips(4, 6), 5, econfig, 10);
        let (sres, sim) = sim_run(&topo, gossips(4, 6), 5, sconfig, 10);
        assert_eq!(eres, Ok(()), "crashed nodes count as done for termination");
        assert_eq!(eres, sres);
        assert_eq!(&etr, sim.transcript());
        assert_eq!(&enodes, sim.nodes());
    }

    #[test]
    fn crash_past_the_limit_still_trips_round_limit() {
        // Node 2 crashes *after* the limit, so it does not count as done
        // and both executions must report it pending.
        let topo = Topology::ring(4).unwrap();
        let crashes = vec![(NodeId::new(2), 50)];
        let econfig = CongestConfig { crashes: crashes.clone(), ..CongestConfig::default() };
        let sconfig = SimConfig { crashes, ..SimConfig::default() };
        let (eres, etr, _) = engine_run(&topo, gossips(4, 1_000), 5, econfig, 6);
        let (sres, sim) = sim_run(&topo, gossips(4, 1_000), 5, sconfig, 6);
        assert_eq!(eres, Err(CongestError::RoundLimit { limit: 6, pending: 4 }));
        assert_eq!(eres, sres);
        assert_eq!(&etr, sim.transcript());
    }

    #[test]
    fn round_limit_without_faults_matches_engine() {
        let topo = Topology::ring(3).unwrap();
        let (eres, etr, _) = engine_run(&topo, gossips(3, 1_000), 9, CongestConfig::default(), 5);
        let (sres, sim) = sim_run(&topo, gossips(3, 1_000), 9, SimConfig::default(), 5);
        assert_eq!(eres, Err(CongestError::RoundLimit { limit: 5, pending: 3 }));
        assert_eq!(eres, sres);
        assert_eq!(&etr, sim.transcript());
    }

    #[test]
    fn done_at_start_node_is_skipped_like_engine() {
        let topo = Topology::ring(4).unwrap();
        let mut nodes = gossips(4, 4);
        nodes[0].done = true;
        let (eres, etr, enodes) = engine_run(&topo, nodes.clone(), 8, CongestConfig::default(), 20);
        let (sres, sim) = sim_run(&topo, nodes, 8, SimConfig::default(), 20);
        assert_eq!(eres, sres);
        assert_eq!(&etr, sim.transcript());
        assert_eq!(&enodes, sim.nodes());
    }

    /// A step starts no earlier than the end of its node's previous step.
    /// Node 0 is done before round 0, so its final pulse leaves at 0 and
    /// lands at 500 ns, while node 1 computes round 0 until 1000 ns.
    #[test]
    fn a_step_waits_for_its_own_previous_compute() {
        let topo = Topology::from_edges(2, [(NodeId::new(0), NodeId::new(1))]).unwrap();
        let mut nodes = gossips(2, 2);
        nodes[0].done = true;
        let config = SimConfig { latency: LatencyModel::Constant(500), ..SimConfig::default() };
        let (res, sim) = sim_run(&topo, nodes, 0, config, 10);
        assert_eq!(res, Ok(()));
        assert_eq!(sim.report().round_spans, [(0, 1000), (1000, 2000)]);
        assert_eq!(sim.report().virtual_nanos, 2500);
    }

    #[test]
    fn report_counts_pulses_and_protocol_envelopes() {
        let topo = Topology::ring(4).unwrap();
        let (_, sim) = sim_run(&topo, gossips(4, 4), 2, SimConfig::default(), 20);
        let report = sim.report();
        assert!(report.protocol_envelopes > 0);
        assert!(report.pulse_envelopes > 0, "final rounds ride on pulse envelopes");
        assert!(report.events_processed > 0);
        assert_eq!(report.round_spans.len(), sim.transcript().num_rounds() as usize);
        assert!(report.round_spans.windows(2).all(|w| w[0].0 <= w[1].0));
        assert!(report.round_spans.iter().all(|&(s, e)| s < e));
    }

    #[test]
    fn fully_dropped_envelopes_still_count_as_protocol_traffic() {
        // Gossip broadcasts until its horizon whatever it hears, so both
        // runs address the same envelopes; one loses every payload.
        let topo = Topology::ring(4).unwrap();
        let (_, clean) = sim_run(&topo, gossips(4, 4), 2, SimConfig::default(), 20);
        let fault = Some(FaultPlan::drop_with_probability(1.0, 5));
        let (_, lossy) =
            sim_run(&topo, gossips(4, 4), 2, SimConfig { fault, ..SimConfig::default() }, 20);
        assert_eq!(lossy.transcript().total_messages(), 0);
        assert!(lossy.transcript().total_dropped() > 0);
        assert_eq!(lossy.report().protocol_envelopes, clean.report().protocol_envelopes);
        assert_eq!(lossy.report().pulse_envelopes, clean.report().pulse_envelopes);
    }

    /// How [`Rogue`] node 2 breaks the CONGEST discipline in round 1.
    #[derive(Clone, Copy, Debug)]
    enum Offence {
        SendTwice,
        NotNeighbor,
    }

    /// Broadcasts every round and never finishes, except that node 2
    /// commits `offence` in round 1 instead of broadcasting.
    #[derive(Clone, Debug)]
    struct Rogue(Offence);
    impl NodeLogic for Rogue {
        type Msg = Num;
        fn step(&mut self, ctx: &mut crate::engine::StepCtx<'_, Num>) {
            if ctx.round() == 1 && ctx.id() == NodeId::new(2) {
                let nb = ctx.neighbors()[0];
                match self.0 {
                    Offence::SendTwice => {
                        ctx.send(nb, Num(1)).unwrap();
                        ctx.send(nb, Num(2)).unwrap();
                    }
                    Offence::NotNeighbor => {
                        // The error is latched even though it is ignored.
                        let _ = ctx.send(NodeId::new(5), Num(1));
                    }
                }
                return;
            }
            ctx.broadcast(Num(u64::from(ctx.id().raw())));
        }
        fn is_done(&self) -> bool {
            false
        }
    }

    /// The error `Network::run` and `Simulator::run` (under each latency
    /// model) return for a ring of six `Rogue(offence)` nodes.
    fn errors_of(offence: Offence) -> Vec<CongestError> {
        let topo = Topology::ring(6).unwrap();
        let nodes = vec![Rogue(offence); 6];
        let mut net = Network::new(topo.clone(), nodes.clone(), 3).unwrap();
        let mut errors = vec![net.run(10).unwrap_err()];
        for latency in [
            LatencyModel::Constant(50_000),
            LatencyModel::Uniform { lo: 1, hi: 1_000_000 },
            LatencyModel::LogNormal { median_nanos: 50_000.0, sigma: 1.5 },
        ] {
            let config = SimConfig { latency, latency_seed: 4, ..SimConfig::default() };
            let mut sim = Simulator::new(topo.clone(), nodes.clone(), 3, config).unwrap();
            errors.push(sim.run(10).unwrap_err());
            assert_eq!(sim.transcript().num_rounds(), 0, "a failed run leaves no transcript");
        }
        errors
    }

    #[test]
    fn duplicate_send_fails_like_engine() {
        let expected =
            CongestError::EdgeCongestion { from: NodeId::new(2), to: NodeId::new(1), round: 1 };
        assert_eq!(errors_of(Offence::SendTwice), vec![expected; 4]);
    }

    #[test]
    fn send_to_non_neighbor_fails_like_engine() {
        let expected = CongestError::NotNeighbor { from: NodeId::new(2), to: NodeId::new(5) };
        assert_eq!(errors_of(Offence::NotNeighbor), vec![expected; 4]);
    }

    #[test]
    fn run_is_idempotent() {
        let topo = Topology::ring(3).unwrap();
        let (_, mut sim) = sim_run(&topo, gossips(3, 3), 1, SimConfig::default(), 20);
        let first = sim.transcript().clone();
        let again = sim.run(20).unwrap().clone();
        assert_eq!(first, again);
    }

    #[test]
    fn latency_models_sample_within_bounds() {
        let mut rng = NodeRng::derive(1, 2, 3);
        assert_eq!(LatencyModel::Constant(42).sample(&mut rng), 42);
        for _ in 0..1_000 {
            let v = LatencyModel::Uniform { lo: 10, hi: 20 }.sample(&mut rng);
            assert!((10..=20).contains(&v));
            let l = LatencyModel::LogNormal { median_nanos: 1_000.0, sigma: 2.0 }.sample(&mut rng);
            assert!(l >= 1);
        }
    }

    #[test]
    #[should_panic(expected = "uniform latency needs lo <= hi")]
    fn invalid_uniform_latency_is_rejected() {
        let topo = Topology::ring(3).unwrap();
        let config =
            SimConfig { latency: LatencyModel::Uniform { lo: 5, hi: 4 }, ..SimConfig::default() };
        let _ = Simulator::new(topo, gossips(3, 3), 0, config);
    }

    /// Sends its state word to a random subset of its neighbours every
    /// round until its own horizon, so envelopes mix messages and pulses
    /// and nodes finish at different rounds; horizon 0 is done before
    /// round 0.
    #[derive(Clone, Debug, PartialEq)]
    struct Chatter {
        horizon: u32,
        state: u64,
        done: bool,
    }
    impl NodeLogic for Chatter {
        type Msg = Num;
        fn step(&mut self, ctx: &mut crate::engine::StepCtx<'_, Num>) {
            for (src, m) in ctx.inbox() {
                self.state =
                    self.state.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (m.0 + u64::from(src.raw()));
            }
            let mask = ctx.rng().next_raw();
            for (i, &nb) in ctx.neighbors().iter().enumerate() {
                if mask >> i & 1 == 1 {
                    ctx.send(nb, Num(self.state & 0xFFFF)).unwrap();
                }
            }
            self.done = ctx.round() + 1 >= self.horizon;
        }
        fn is_done(&self) -> bool {
            self.done
        }
    }

    /// Every latency family, with zero latency and latencies below the
    /// compute time among the draws.
    fn any_latency() -> impl Strategy<Value = LatencyModel> {
        prop_oneof![
            Just(LatencyModel::Constant(0)),
            (0u64..3_000).prop_map(LatencyModel::Constant),
            (0u64..200_000).prop_map(LatencyModel::Constant),
            (0u64..5_000, 0u64..50_000)
                .prop_map(|(lo, span)| LatencyModel::Uniform { lo, hi: lo + span }),
            (1.0f64..100_000.0, 0.0f64..2.0)
                .prop_map(|(median_nanos, sigma)| LatencyModel::LogNormal { median_nanos, sigma }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3_000))]

        /// The recurrence reproduces the event-driven simulator: the same
        /// transcript or error, the same final node states and the same
        /// report, over random graphs of 2–13 nodes, every latency family,
        /// drop plans, crashes at round 0 and later, nodes done before
        /// round 0, and round limits that trip.
        #[test]
        fn clock_matches_the_event_driven_reference(
            n in 2usize..14,
            raw_edges in prop::collection::vec((0usize..13, 0usize..13), 0..40),
            horizons in prop::collection::vec(0u32..7, 13),
            latency in any_latency(),
            latency_seed in 0u64..1_000,
            drop_p in prop::option::of(0.0f64..1.0),
            raw_crashes in prop::collection::vec((0usize..13, 0u32..6), 0..4),
            max_rounds in 0u32..9,
            seed in 0u64..1_000,
        ) {
            let edges = raw_edges
                .iter()
                .map(|&(a, b)| (a % n, b % n))
                .filter(|(a, b)| a != b)
                .map(|(a, b)| (NodeId::new(a.min(b) as u32), NodeId::new(a.max(b) as u32)))
                .collect::<std::collections::BTreeSet<_>>();
            let topo = Topology::from_edges(n, edges).unwrap();
            let nodes: Vec<Chatter> = horizons[..n]
                .iter()
                .map(|&horizon| Chatter { horizon, state: 0, done: horizon == 0 })
                .collect();
            let config = SimConfig {
                latency,
                latency_seed,
                fault: drop_p.map(|p| FaultPlan::drop_with_probability(p, seed)),
                crashes: raw_crashes
                    .iter()
                    .map(|&(v, round)| (NodeId::new((v % n) as u32), round))
                    .collect(),
            };
            let (expected, expected_nodes, expected_report) =
                reference::Simulator::new(topo.clone(), nodes.clone(), seed, config.clone())
                    .run(max_rounds);
            let mut sim = Simulator::new(topo, nodes, seed, config).unwrap();
            prop_assert_eq!(sim.run(max_rounds).cloned(), expected);
            prop_assert_eq!(sim.nodes(), &expected_nodes[..]);
            prop_assert_eq!(sim.report(), &expected_report);
        }
    }
}
