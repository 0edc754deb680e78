//! Discrete-event simulation of the CONGEST network under *asynchronous*
//! links, with the α-synchronizer (`synchronizer.rs`) layered on top so
//! lock-step [`NodeLogic`] protocols run unmodified.
//!
//! ## Why
//!
//! The lock-step [`Network`](crate::Network) charges every round one unit
//! of time, which is exactly the CONGEST cost model — but the paper's
//! O(k)-round guarantee is most interesting when rounds cost real,
//! heterogeneous time. The simulator executes the same protocols over an
//! event queue of simulated nanoseconds, with per-edge latency drawn from
//! a pluggable distribution. Messages reorder naturally — two envelopes on
//! different edges, or on the same edge in different rounds, arrive in
//! latency order, not send order.
//!
//! ## Machinery
//!
//! A binary heap orders events by `(virtual time, sequence number)`; the
//! sequence number is assigned at push time by a single-threaded loop, so
//! ties break deterministically and the whole simulation is a pure
//! function of `(topology, nodes, master_seed, SimConfig)`. There are two
//! event kinds: the *arrival* of one edge-envelope, and the *step* of one
//! node's next round (scheduled the moment its dependencies are met, see
//! the synchronizer module docs in `synchronizer.rs`).
//!
//! Local computation goes through the same `step_into` routine as the
//! engine — same inbox layout, same `(master seed, node, round)` RNG
//! stream, same outbox ordering — which is why the produced
//! [`Transcript`] is bit-identical to lock-step execution (proptested in
//! `tests/sim_properties.rs`). Message accounting happens at *send* time
//! against the sender's round, matching the engine's convention that
//! round `r`'s statistics describe the messages sent in round `r`.
//!
//! Virtual-clock quantities (latency draws, the fixed compute time per
//! step, synchronizer pulses) never touch the transcript; they live in the
//! separate [`SimReport`]. When tracing is enabled the simulated
//! timeline is exported through [`distfl_obs::complete_at`] with
//! category `"sim"`, so `--trace` renders virtual rounds in the same
//! Chrome trace as wall-clock spans.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::engine::{crash_rounds, deliver_one, step_into};
use crate::error::CongestError;
use crate::fault::FaultPlan;
use crate::metrics::{RoundStats, Transcript};
use crate::node::{NodeId, NodeLogic};
use crate::rng::NodeRng;
use crate::synchronizer::{Envelope, SyncState};
use crate::topology::Topology;

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
}

/// Configuration of one simulated execution.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Per-edge propagation latency model.
    pub latency: LatencyModel,
    /// Seed of the latency sampling streams. Independent of the
    /// protocol's `master_seed`: changing it reshuffles the timing (and
    /// hence event order) without touching the transcript.
    pub latency_seed: u64,
    /// Deterministic message-drop plan, identical semantics (and identical
    /// drop decisions) to [`CongestConfig::fault`](crate::CongestConfig).
    pub fault: Option<FaultPlan>,
    /// Crash-stop schedule, identical semantics to
    /// [`CongestConfig::crashes`](crate::CongestConfig).
    pub crashes: Vec<(NodeId, u32)>,
}

/// Virtual nanoseconds of local computation charged per node step;
/// envelopes depart this long after the step fires.
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
/// timing — none of it feeds back into the [`Transcript`], which stays
/// bit-identical to lock-step execution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimReport {
    /// Virtual time of the last processed event (simulated makespan).
    pub virtual_nanos: u64,
    /// Events popped from the queue.
    pub events_processed: u64,
    /// Envelopes the sender addressed at least one payload to, even if
    /// the fault plan dropped every one of them in transit.
    pub protocol_envelopes: u64,
    /// Pure synchronizer pulses (envelopes nothing was addressed to) — the
    /// α-synchronizer's overhead.
    pub pulse_envelopes: u64,
    /// Per round: virtual `(start, end)` of the round's step executions
    /// (end includes the final step's compute time).
    pub round_spans: Vec<(u64, u64)>,
}

/// One queued event: an envelope arrival or a node step.
#[derive(Debug)]
enum Ev<M> {
    Arrival { dst: NodeId, env: Envelope<M> },
    Step { node: NodeId, round: u32 },
}

/// Heap entry ordered by `(time, seq)` — `seq` is assigned in push order
/// by the (single-threaded) event loop, so ties are deterministic.
#[derive(Debug)]
struct Scheduled<M> {
    time: u64,
    seq: u64,
    ev: Ev<M>,
}

impl<M> PartialEq for Scheduled<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<M> Eq for Scheduled<M> {}
impl<M> PartialOrd for Scheduled<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Scheduled<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we pop earliest-first.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// How one run ended (cached so repeated `run` calls are idempotent).
#[derive(Debug, Clone)]
enum RunOutcome {
    Ok,
    Failed(CongestError),
}

/// The discrete-event CONGEST simulator. See the [module docs](self).
pub struct Simulator<L: NodeLogic> {
    topo: Topology,
    nodes: Vec<L>,
    states: Vec<SyncState<L::Msg>>,
    config: SimConfig,
    master_seed: u64,
    heap: BinaryHeap<Scheduled<L::Msg>>,
    seq: u64,
    now: u64,
    /// Virtual time each node finishes its current step's computation.
    free_at: Vec<u64>,
    /// Round from which each node is crashed (`u32::MAX` = never).
    crash_round: Vec<u32>,
    /// Per-round statistics, indexed by round; grown as rounds execute.
    rows: Vec<RoundStats>,
    /// Rounds executed (1 + highest stepped round; 0 before any step).
    rounds_executed: u32,
    max_rounds: u32,
    transcript: Transcript,
    report: SimReport,
    outcome: Option<RunOutcome>,
    scratch_inbox: Vec<(NodeId, L::Msg)>,
    scratch_outbox: Vec<(NodeId, L::Msg)>,
    /// Owned copy of the stepping node's adjacency, so envelope emission
    /// can mutate queue/report state without holding a topology borrow.
    scratch_neighbors: Vec<NodeId>,
}

impl<L: NodeLogic> std::fmt::Debug for Simulator<L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("num_nodes", &self.nodes.len())
            .field("now", &self.now)
            .field("rounds_executed", &self.rounds_executed)
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
        if topo.num_nodes() != nodes.len() {
            return Err(CongestError::NodeCountMismatch {
                topology: topo.num_nodes(),
                logics: nodes.len(),
            });
        }
        config.latency.validate();
        let n = nodes.len();
        let crash_round = crash_rounds(n, &config.crashes);
        let states = (0..n).map(|i| SyncState::new(topo.degree(NodeId::new(i as u32)))).collect();
        Ok(Simulator {
            topo,
            nodes,
            states,
            config,
            master_seed,
            heap: BinaryHeap::new(),
            seq: 0,
            now: 0,
            free_at: vec![0; n],
            crash_round,
            rows: Vec::new(),
            rounds_executed: 0,
            max_rounds: u32::MAX,
            transcript: Transcript::new(),
            report: SimReport::default(),
            outcome: None,
            scratch_inbox: Vec::new(),
            scratch_outbox: Vec::new(),
            scratch_neighbors: Vec::new(),
        })
    }

    /// The communication graph.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// All node logics, indexed by node id.
    pub fn nodes(&self) -> &[L] {
        &self.nodes
    }

    /// The statistics accumulated by the run.
    pub fn transcript(&self) -> &Transcript {
        &self.transcript
    }

    /// Consumes the simulator, returning node logics and transcript.
    pub fn into_parts(self) -> (Vec<L>, Transcript) {
        (self.nodes, self.transcript)
    }

    /// Virtual-clock measurements of the run.
    pub fn report(&self) -> &SimReport {
        &self.report
    }

    /// Runs the simulation until every node is done (or crashed) or some
    /// node would exceed `max_rounds`. Idempotent: calling again returns
    /// the cached outcome.
    ///
    /// # Errors
    ///
    /// Propagates protocol errors ([`CongestError::NotNeighbor`],
    /// [`CongestError::EdgeCongestion`]) and returns
    /// [`CongestError::RoundLimit`] when some *live* node (crashed nodes
    /// count as done, as in the engine's `all_done`) is still not done
    /// after `max_rounds` rounds. In that case the engine
    /// executes exactly `max_rounds` rounds — some as no-ops — so the
    /// simulator pads its transcript with the same empty rows to stay
    /// bit-identical. On a protocol error the transcript is left empty.
    /// Where several violations exist, the one surfaced is the first in
    /// *virtual-time* order, which may differ from the engine's
    /// `(source, position)` order.
    pub fn run(&mut self, max_rounds: u32) -> Result<&Transcript, CongestError> {
        if let Some(outcome) = &self.outcome {
            return match outcome {
                RunOutcome::Ok => Ok(&self.transcript),
                RunOutcome::Failed(err) => Err(err.clone()),
            };
        }
        self.max_rounds = max_rounds;
        match self.drive() {
            Ok(()) => {
                let limit_hit = (0..self.nodes.len())
                    .any(|i| !self.nodes[i].is_done() && self.crash_round[i] > max_rounds);
                if limit_hit {
                    let pending = self.nodes.iter().filter(|l| !l.is_done()).count();
                    // The engine spins no-op rounds (done/crashed nodes
                    // step into empty outboxes) until the limit trips;
                    // replicate its empty trailing stats rows.
                    while self.rows.len() < max_rounds as usize {
                        let r = self.rows.len() as u32;
                        self.rows.push(RoundStats { round: r, ..RoundStats::default() });
                    }
                    self.rounds_executed = max_rounds;
                    self.finalize();
                    let err = CongestError::RoundLimit { limit: max_rounds, pending };
                    self.outcome = Some(RunOutcome::Failed(err.clone()));
                    return Err(err);
                }
                self.finalize();
                self.outcome = Some(RunOutcome::Ok);
                Ok(&self.transcript)
            }
            Err(err) => {
                self.outcome = Some(RunOutcome::Failed(err.clone()));
                Err(err)
            }
        }
    }

    /// Bootstraps round 0 and processes events to completion.
    fn drive(&mut self) -> Result<(), CongestError> {
        // Bootstrap: nodes already done emit a final round-0 pulse (their
        // neighbors will never hear from them — exactly the engine, where
        // a done node is stepped into an empty outbox forever). Crashed-
        // at-0 nodes are covered by the failure-detector initialization
        // below. Everyone else gets its round-0 step scheduled.
        for index in 0..self.nodes.len() {
            let id = NodeId::new(index as u32);
            // Perfect failure detection: receivers know the crash schedule,
            // as the engine's delivery loop does.
            for (j, &nb) in self.topo.neighbors(id).iter().enumerate() {
                let crash = self.crash_round[nb.index()];
                if crash != u32::MAX {
                    self.states[index].silence(j, crash);
                }
            }
        }
        for index in 0..self.nodes.len() {
            let id = NodeId::new(index as u32);
            if self.nodes[index].is_done() {
                self.states[index].done = true;
                self.send_final_pulse(id);
            } else if self.crash_round[index] > 0 {
                self.try_schedule(id, 0);
            }
        }
        while let Some(scheduled) = self.heap.pop() {
            debug_assert!(scheduled.time >= self.now, "virtual time must be monotone");
            self.now = scheduled.time;
            self.report.events_processed += 1;
            self.report.virtual_nanos = self.report.virtual_nanos.max(self.now);
            match scheduled.ev {
                Ev::Arrival { dst, env } => self.process_arrival(dst, env),
                Ev::Step { node, round } => self.process_step(node, round)?,
            }
        }
        Ok(())
    }

    fn push_event(&mut self, time: u64, ev: Ev<L::Msg>) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Scheduled { time, seq, ev });
    }

    /// Buffers an arrived envelope and checks whether it unblocked the
    /// receiver's next round.
    fn process_arrival(&mut self, dst: NodeId, env: Envelope<L::Msg>) {
        let neighbors = self.topo.neighbors(dst);
        let degree = neighbors.len();
        let j = neighbors.binary_search(&env.src).expect("envelope from a non-neighbor");
        let state = &mut self.states[dst.index()];
        state.receive(j, degree, env);
        self.try_schedule(dst, self.now);
    }

    /// Schedules the node's next step if its dependencies are met, it is
    /// live, and the round limit allows it. Steps fire no earlier than the
    /// node's own compute-completion time.
    fn try_schedule(&mut self, node: NodeId, now: u64) {
        let index = node.index();
        let state = &mut self.states[index];
        if state.done || state.step_scheduled {
            return;
        }
        let round = state.next_round;
        if round >= self.crash_round[index] {
            return;
        }
        if round >= self.max_rounds {
            return;
        }
        if !state.ready() {
            return;
        }
        state.step_scheduled = true;
        let at = now.max(self.free_at[index]);
        self.push_event(at, Ev::Step { node, round });
    }

    /// Executes one node step: reassemble the inbox, run the logic through
    /// the engine's `step_into`, account the outbox against the sender's
    /// round, and emit one envelope per edge.
    fn process_step(&mut self, node: NodeId, round: u32) -> Result<(), CongestError> {
        let index = node.index();
        let t = self.now;

        // Reassemble the round inbox in ascending neighbor order; each
        // envelope preserves its sender's outbox order, so this is the
        // engine's inbox byte for byte.
        let envelopes = self.states[index].take_inbox_envelopes(round);
        let mut inbox = std::mem::take(&mut self.scratch_inbox);
        inbox.clear();
        for env in envelopes.into_iter().flatten() {
            let src = env.src;
            inbox.extend(env.payloads.into_iter().map(|m| (src, m)));
        }

        let mut outbox = std::mem::take(&mut self.scratch_outbox);
        let mut error = None;
        step_into(
            &self.topo,
            &mut self.nodes[index],
            index,
            &inbox,
            &mut outbox,
            &mut error,
            false,
            round,
            self.master_seed,
        );
        inbox.clear();
        self.scratch_inbox = inbox;
        if let Some(err) = error {
            self.scratch_outbox = outbox;
            return Err(err);
        }

        // Round bookkeeping. Every stepped round owns a stats row, even if
        // nothing was sent — the engine pushes one RoundStats per executed
        // round too.
        while self.rows.len() <= round as usize {
            let r = self.rows.len() as u32;
            self.rows.push(RoundStats { round: r, ..RoundStats::default() });
        }
        self.rounds_executed = self.rounds_executed.max(round + 1);
        let end = t + COMPUTE_NANOS;
        while self.report.round_spans.len() <= round as usize {
            self.report.round_spans.push((t, end));
        }
        let span = &mut self.report.round_spans[round as usize];
        span.0 = span.0.min(t);
        span.1 = span.1.max(end);
        self.report.virtual_nanos = self.report.virtual_nanos.max(end);

        let done = self.nodes[index].is_done();
        let state = &mut self.states[index];
        state.step_scheduled = false;
        state.next_round = round + 1;
        state.done = done;

        let result = self.send_round(node, round, end, done, &mut outbox);
        outbox.clear();
        self.scratch_outbox = outbox;
        result?;

        if !done {
            // The step may already be unblocked (all next-round envelopes
            // arrived while this one computed).
            self.try_schedule(node, end);
        }
        Ok(())
    }

    /// Scans the sorted outbox with the engine's delivery rule
    /// ([`deliver_one`]) and emits one envelope per incident edge — a
    /// pulse where no payloads are addressed.
    fn send_round(
        &mut self,
        src: NodeId,
        round: u32,
        send_t: u64,
        final_round: bool,
        outbox: &mut [(NodeId, L::Msg)],
    ) -> Result<(), CongestError> {
        let fault = self.config.fault;
        // Stats accumulate in a local copy (written back below) so the
        // loop can freely borrow the queue and report.
        let mut stats = self.rows[round as usize];
        let mut neighbors = std::mem::take(&mut self.scratch_neighbors);
        neighbors.clear();
        neighbors.extend_from_slice(self.topo.neighbors(src));

        let mut cursor = 0usize;
        let mut last = None;
        let mut failure = None;
        'edges: for &dst in &neighbors {
            let mut payloads = Vec::new();
            let mut addressed = false;
            while let Some((d, msg)) = outbox.get(cursor) {
                if *d != dst {
                    debug_assert!(*d > dst, "outbox sorted by destination");
                    break;
                }
                cursor += 1;
                addressed = true;
                match deliver_one(fault, &mut stats, &mut last, round, src, dst, msg) {
                    Ok(true) => payloads.push(msg.clone()),
                    Ok(false) => {}
                    Err(err) => {
                        failure = Some(err);
                        break 'edges;
                    }
                }
            }
            if addressed {
                self.report.protocol_envelopes += 1;
            } else {
                self.report.pulse_envelopes += 1;
            }
            let arrival = self.delivery_time(src, dst, round, send_t);
            let env = Envelope { src, round, payloads, final_round };
            self.push_event(arrival, Ev::Arrival { dst, env });
        }
        self.rows[round as usize] = stats;
        neighbors.clear();
        self.scratch_neighbors = neighbors;
        match failure {
            Some(err) => Err(err),
            None => {
                debug_assert_eq!(cursor, outbox.len(), "every outbox message addresses a neighbor");
                Ok(())
            }
        }
    }

    /// When the envelope `src → dst` sent at `send_t` arrives: one latency
    /// draw from the per-`(edge, round)` stream after the send.
    fn delivery_time(&self, src: NodeId, dst: NodeId, round: u32, send_t: u64) -> u64 {
        let key = (u64::from(src.raw()) << 32) | u64::from(dst.raw());
        let mut rng = NodeRng::derive_keyed(self.config.latency_seed, key, round);
        send_t + self.config.latency.sample(&mut rng)
    }

    /// Emits the round-0 final pulse of a node that was done before ever
    /// stepping, so its neighbors do not wait on it.
    fn send_final_pulse(&mut self, src: NodeId) {
        let mut neighbors = std::mem::take(&mut self.scratch_neighbors);
        neighbors.clear();
        neighbors.extend_from_slice(self.topo.neighbors(src));
        for &dst in &neighbors {
            self.report.pulse_envelopes += 1;
            let arrival = self.delivery_time(src, dst, 0, 0);
            let env = Envelope { src, round: 0, payloads: Vec::new(), final_round: true };
            self.push_event(arrival, Ev::Arrival { dst, env });
        }
        neighbors.clear();
        self.scratch_neighbors = neighbors;
    }

    /// Builds the transcript and exports the simulated timeline to the obs
    /// layer.
    fn finalize(&mut self) {
        for row in self.rows.drain(..) {
            self.transcript.push(row);
        }
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{CongestConfig, Network};
    use crate::message::Payload;

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
}
