//! The synchronous round engine.
//!
//! A round is one loop over the nodes in ascending index. Each node is
//! stepped against its current inbox, filling a *pooled* outbox (recycled
//! across rounds, no allocation in steady state), and that outbox is
//! drained at once, while it is still hot in cache: every message is
//! charged and *moved* (not cloned) into its destination's next-round
//! inbox. Outboxes produced in ascending destination order — the common
//! case, since node logic iterates `ctx.neighbors()` in order — are
//! detected in `O(len)` and the per-node sort is elided.
//!
//! When [`CongestConfig::threads`] asks for more than one lane, the
//! round's steps run first, one task per contiguous chunk of nodes, on a
//! persistent work-stealing [`WorkerPool`](distfl_pool::WorkerPool)
//! (the `distfl-pool` crate), and the loop then only delivers. Delivery
//! is always that one serial pass, so inbox contents, [`RoundStats`] and
//! error selection are identical for every lane count by construction.
//!
//! Every message, in the engine and in the discrete-event simulator, is
//! charged by one rule, [`deliver_one`]: duplicate detection, fault drops,
//! the bit budget, and the [`RoundStats`] update. Callers differ only in
//! where a delivered message goes.
//!
//! Inboxes are double-buffered (`inboxes`/`next_inboxes`) and all buffer
//! sets keep their capacity across rounds, so a steady-state round
//! performs no heap allocation.

use crate::error::CongestError;
use crate::fault::FaultPlan;
use crate::message::Payload;
use crate::metrics::{RoundStats, Transcript};
use crate::node::{NodeId, NodeLogic};
use crate::rng::NodeRng;
use crate::topology::Topology;
use distfl_pool::WorkerPool;
use std::sync::Arc;
use std::time::Instant;

/// What to do when a node sends two messages over the same directed edge in
/// one round (a CONGEST violation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DuplicatePolicy {
    /// Fail the run with [`CongestError::EdgeCongestion`] (the default:
    /// correct algorithms never violate the discipline).
    #[default]
    Reject,
    /// Deliver everything but record the violation in the transcript's
    /// `max_messages_per_edge`, so experiments can report it.
    Record,
}

/// Engine configuration.
#[derive(Debug, Clone, Default)]
pub struct CongestConfig {
    /// Handling of one-message-per-edge violations.
    pub duplicate_policy: DuplicatePolicy,
    /// Number of lanes a round's node steps run on; `None` or `Some(1)`
    /// steps serially. `Some(k)` steps every round's nodes in
    /// `min(k, pool parallelism, node count)` contiguous chunks on the
    /// worker pool (its workers plus the submitting thread), then delivers
    /// serially. Results are bit-identical either way.
    pub threads: Option<usize>,
    /// The worker pool parallel steps dispatch to. `None` uses the
    /// process-wide [`WorkerPool::global`] pool (sized from
    /// `DISTFL_POOL_THREADS` or the machine's parallelism). Supplying a
    /// pool explicitly lets tests and benches exercise any worker count
    /// on any machine; results are bit-identical for every choice.
    pub pool: Option<Arc<WorkerPool>>,
    /// Optional deterministic message-drop plan.
    pub fault: Option<FaultPlan>,
    /// Crash-stop schedule: `(node, round)` pairs; from `round` on, the
    /// node neither steps nor sends (crash-stop failures). Crashed nodes
    /// count as done for termination purposes.
    pub crashes: Vec<(NodeId, u32)>,
    /// Optional hard per-message bit budget; a message declaring more
    /// bits fails the run with [`CongestError::MessageTooLarge`]. `None`
    /// records sizes in the transcript without enforcing.
    pub max_message_bits: Option<u64>,
}

/// Per-round context handed to [`NodeLogic::step`].
///
/// Provides the node's identity, neighbors, inbox, a deterministic random
/// stream, and the send interface.
#[derive(Debug)]
pub struct StepCtx<'a, M: Payload> {
    id: NodeId,
    round: u32,
    neighbors: &'a [NodeId],
    inbox: &'a [(NodeId, M)],
    rng: NodeRng,
    outbox: &'a mut Vec<(NodeId, M)>,
    send_error: Option<CongestError>,
}

impl<'a, M: Payload> StepCtx<'a, M> {
    /// This node's id.
    #[inline]
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The current round number (0-based).
    #[inline]
    pub fn round(&self) -> u32 {
        self.round
    }

    /// This node's sorted neighbor list.
    #[inline]
    pub fn neighbors(&self) -> &'a [NodeId] {
        self.neighbors
    }

    /// This node's degree.
    #[inline]
    pub fn degree(&self) -> usize {
        self.neighbors.len()
    }

    /// Messages received this round as `(sender, message)` pairs, sorted by
    /// sender id.
    #[inline]
    pub fn inbox(&self) -> &'a [(NodeId, M)] {
        self.inbox
    }

    /// The message from `src` this round, if any (and if unique).
    pub fn from(&self, src: NodeId) -> Option<&'a M> {
        let pos = self.inbox.partition_point(|(s, _)| *s < src);
        match self.inbox.get(pos) {
            Some((s, m)) if *s == src => Some(m),
            _ => None,
        }
    }

    /// This node's deterministic random stream for this round.
    ///
    /// Streams are derived from `(master seed, node id, round)`, so parallel
    /// and serial execution observe identical randomness.
    #[inline]
    pub fn rng(&mut self) -> &mut NodeRng {
        &mut self.rng
    }

    /// Queues `msg` for delivery to neighbor `dst` next round.
    ///
    /// # Errors
    ///
    /// Returns [`CongestError::NotNeighbor`] if `dst` is not adjacent; the
    /// violation is also latched so the engine fails the round even if the
    /// caller ignores the error.
    pub fn send(&mut self, dst: NodeId, msg: M) -> Result<(), CongestError> {
        if self.neighbors.binary_search(&dst).is_err() {
            let err = CongestError::NotNeighbor { from: self.id, to: dst };
            self.send_error.get_or_insert(err.clone());
            return Err(err);
        }
        self.outbox.push((dst, msg));
        Ok(())
    }

    /// Sends a clone of `msg` to every neighbor.
    pub fn broadcast(&mut self, msg: M) {
        for &nb in self.neighbors {
            self.outbox.push((nb, msg.clone()));
        }
    }
}

/// A synchronous CONGEST network executing one [`NodeLogic`] per node.
///
/// See the [crate documentation](crate) for a complete example.
pub struct Network<L: NodeLogic> {
    topo: Topology,
    nodes: Vec<L>,
    config: CongestConfig,
    master_seed: u64,
    round: u32,
    /// Inboxes read by the current round's steps.
    inboxes: Vec<Vec<(NodeId, L::Msg)>>,
    /// Inboxes the current round delivers into; swapped with `inboxes` at
    /// the end of the round (double buffering).
    next_inboxes: Vec<Vec<(NodeId, L::Msg)>>,
    /// Per-node outboxes, pooled across rounds.
    outboxes: Vec<Vec<(NodeId, L::Msg)>>,
    /// Per-node send-error slots, pooled across rounds.
    step_errors: Vec<Option<CongestError>>,
    /// Round from which each node is crashed (`u32::MAX` = never).
    crash_round: Vec<u32>,
    /// The persistent worker pool parallel steps dispatch to.
    pool: Arc<WorkerPool>,
    /// Lanes a round's steps run on: `threads` capped at the pool's
    /// parallelism and the node count. At most 1 steps inline.
    lanes: usize,
    transcript: Transcript,
}

impl<L: NodeLogic> std::fmt::Debug for Network<L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("num_nodes", &self.nodes.len())
            .field("round", &self.round)
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl<L: NodeLogic> Network<L> {
    /// Creates a network with default configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CongestError::NodeCountMismatch`] if `nodes.len()` differs
    /// from the topology's node count.
    pub fn new(topo: Topology, nodes: Vec<L>, master_seed: u64) -> Result<Self, CongestError> {
        Self::with_config(topo, nodes, master_seed, CongestConfig::default())
    }

    /// Creates a network with an explicit [`CongestConfig`].
    ///
    /// # Errors
    ///
    /// Returns [`CongestError::NodeCountMismatch`] if `nodes.len()` differs
    /// from the topology's node count.
    pub fn with_config(
        topo: Topology,
        nodes: Vec<L>,
        master_seed: u64,
        config: CongestConfig,
    ) -> Result<Self, CongestError> {
        if topo.num_nodes() != nodes.len() {
            return Err(CongestError::NodeCountMismatch {
                topology: topo.num_nodes(),
                logics: nodes.len(),
            });
        }
        let n = nodes.len();
        let crash_round = crash_rounds(n, &config.crashes);
        let pool = config.pool.clone().unwrap_or_else(WorkerPool::global);
        let lanes = config.threads.unwrap_or(1).min(pool.parallelism()).min(n);
        Ok(Network {
            topo,
            nodes,
            config,
            master_seed,
            round: 0,
            inboxes: (0..n).map(|_| Vec::new()).collect(),
            next_inboxes: (0..n).map(|_| Vec::new()).collect(),
            outboxes: (0..n).map(|_| Vec::new()).collect(),
            step_errors: (0..n).map(|_| None).collect(),
            crash_round,
            pool,
            lanes,
            transcript: Transcript::new(),
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

    /// The logic of one node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> &L {
        &self.nodes[id.index()]
    }

    /// Consumes the network, returning the node logics.
    pub fn into_nodes(self) -> Vec<L> {
        self.nodes
    }

    /// The statistics accumulated so far.
    pub fn transcript(&self) -> &Transcript {
        &self.transcript
    }

    /// Consumes the network, returning the accumulated transcript.
    pub fn into_transcript(self) -> Transcript {
        self.transcript
    }

    /// Consumes the network, returning node logics and transcript together
    /// (for callers that need to keep both without cloning either).
    pub fn into_parts(self) -> (Vec<L>, Transcript) {
        (self.nodes, self.transcript)
    }

    /// The next round to execute (0-based).
    pub fn round(&self) -> u32 {
        self.round
    }

    /// Whether node `index` has crashed by round `round`.
    #[inline]
    fn is_crashed(&self, index: usize, round: u32) -> bool {
        self.crash_round[index] <= round
    }

    /// Whether every node reports done (crashed nodes count as done).
    pub fn all_done(&self) -> bool {
        let round = self.round;
        self.nodes.iter().enumerate().all(|(i, l)| l.is_done() || self.is_crashed(i, round))
    }

    /// Executes one synchronous round.
    ///
    /// Nodes are visited in ascending index: each is stepped (unless this
    /// round's steps already ran on the pool) and its outbox is delivered
    /// at once. A step error beats any delivery error, and among step
    /// errors the lowest node index wins. After an error, later nodes
    /// still step but nothing more is delivered.
    ///
    /// # Errors
    ///
    /// Returns [`CongestError::NotNeighbor`] if any node addressed a
    /// non-neighbor, or [`CongestError::EdgeCongestion`] under
    /// [`DuplicatePolicy::Reject`]. After an error the network's message
    /// buffers are in an unspecified (but memory-safe) state; discard it.
    pub fn step(&mut self) -> Result<RoundStats, CongestError> {
        let round = self.round;
        // One relaxed atomic load per round is the entire disabled-tracing
        // cost.
        let round_started = distfl_obs::enabled().then(Instant::now);
        let stepped = self.lanes > 1;
        if stepped {
            self.step_on_pool(round);
        }

        let rule = DeliveryRule::of(&self.config);
        let mut stats = RoundStats { round, ..RoundStats::default() };
        let mut step_error: Option<CongestError> = None;
        let mut deliver_error: Option<CongestError> = None;
        for (index, node) in self.nodes.iter_mut().enumerate() {
            let outbox = &mut self.outboxes[index];
            let slot = &mut self.step_errors[index];
            if !stepped {
                step_into(
                    &self.topo,
                    node,
                    index,
                    &self.inboxes[index],
                    outbox,
                    slot,
                    self.crash_round[index] <= round,
                    round,
                    self.master_seed,
                );
            }
            if let Some(err) = slot.take() {
                step_error.get_or_insert(err);
                continue;
            }
            if step_error.is_some() || deliver_error.is_some() {
                continue;
            }
            let src = NodeId::new(index as u32);
            let mut run = SendRun::default();
            for (dst, msg) in outbox.drain(..) {
                match deliver_one(&rule, &mut stats, &mut run, round, src, dst, &msg, || false) {
                    Ok(Some(_)) => self.next_inboxes[dst.index()].push((src, msg)),
                    Ok(None) => {}
                    Err(err) => {
                        deliver_error = Some(err);
                        break;
                    }
                }
            }
        }
        if let Some(err) = step_error.or(deliver_error) {
            // Leave no half-delivered messages behind.
            for ib in &mut self.next_inboxes {
                ib.clear();
            }
            return Err(err);
        }
        debug_assert!(self.next_inboxes.iter().all(|ib| ib.is_sorted_by_key(|(s, _)| *s)));

        std::mem::swap(&mut self.inboxes, &mut self.next_inboxes);
        for ib in &mut self.next_inboxes {
            ib.clear();
        }
        self.transcript.push(stats);
        self.round += 1;
        if let Some(started) = round_started {
            record_round_span(round, started, &stats);
        }
        Ok(stats)
    }

    /// Steps every node on the worker pool, one task per contiguous chunk
    /// of nodes, filling the pooled outboxes (sorted by destination) and
    /// the per-node error slots. Only called when `lanes > 1`.
    fn step_on_pool(&mut self, round: u32) {
        let chunk = self.nodes.len().div_ceil(self.lanes);
        let topo = &self.topo;
        let seed = self.master_seed;
        let crash_round = &self.crash_round;
        let node_chunks = self.nodes.chunks_mut(chunk);
        let inbox_chunks = self.inboxes.chunks(chunk);
        let outbox_chunks = self.outboxes.chunks_mut(chunk);
        let error_chunks = self.step_errors.chunks_mut(chunk);
        self.pool.scope(|scope| {
            for (chunk_index, (((nodes, inboxes), outboxes), errors)) in
                node_chunks.zip(inbox_chunks).zip(outbox_chunks).zip(error_chunks).enumerate()
            {
                let base = chunk_index * chunk;
                scope.spawn(move || {
                    for (offset, node) in nodes.iter_mut().enumerate() {
                        let index = base + offset;
                        step_into(
                            topo,
                            node,
                            index,
                            &inboxes[offset],
                            &mut outboxes[offset],
                            &mut errors[offset],
                            crash_round[index] <= round,
                            round,
                            seed,
                        );
                    }
                });
            }
        });
    }

    /// Runs rounds until every node is done or `max_rounds` is reached.
    ///
    /// Returns a reference to the accumulated transcript on success; use
    /// [`Network::transcript`], [`Network::into_transcript`], or
    /// [`Network::into_parts`] to keep it around without an O(rounds) copy.
    ///
    /// # Errors
    ///
    /// Propagates [`Network::step`] errors and returns
    /// [`CongestError::RoundLimit`] if the protocol does not terminate in
    /// `max_rounds` rounds.
    pub fn run(&mut self, max_rounds: u32) -> Result<&Transcript, CongestError> {
        while !self.all_done() {
            if self.round >= max_rounds {
                let pending = self.nodes.iter().filter(|l| !l.is_done()).count();
                return Err(CongestError::RoundLimit { limit: max_rounds, pending });
            }
            self.step()?;
        }
        Ok(&self.transcript)
    }
}

/// Cached handles into the obs metrics registry; looked up once per
/// process so the per-round cost is a handful of relaxed adds.
struct EngineCounters {
    rounds: distfl_obs::Counter,
    messages: distfl_obs::Counter,
    dropped: distfl_obs::Counter,
}

fn engine_counters() -> &'static EngineCounters {
    static COUNTERS: std::sync::OnceLock<EngineCounters> = std::sync::OnceLock::new();
    COUNTERS.get_or_init(|| EngineCounters {
        rounds: distfl_obs::counter("engine.rounds"),
        messages: distfl_obs::counter("engine.messages"),
        dropped: distfl_obs::counter("engine.dropped_messages"),
    })
}

/// Emits the round's trace span and bumps the engine counters. Only
/// called when tracing was enabled at the top of the round; kept out of
/// `step`'s instruction stream so the disabled path stays lean.
#[cold]
#[inline(never)]
fn record_round_span(round: u32, started: Instant, stats: &RoundStats) {
    let counters = engine_counters();
    counters.rounds.incr();
    counters.messages.add(stats.messages);
    counters.dropped.add(stats.dropped);
    let nanos = started.elapsed().as_nanos() as u64;
    distfl_obs::complete("engine", "round", started, nanos, Some(u64::from(round)));
}

/// Steps one node into its pooled outbox, leaving the outbox sorted by
/// destination. Crashed and done nodes produce an empty outbox.
///
/// Crate-visible: the discrete-event simulator ([`crate::sim`]) steps
/// nodes through this exact function, so local computation — RNG stream,
/// outbox order, error latching — is bit-identical to the engine by
/// construction.
#[allow(clippy::too_many_arguments)]
pub(crate) fn step_into<L: NodeLogic>(
    topo: &Topology,
    node: &mut L,
    index: usize,
    inbox: &[(NodeId, L::Msg)],
    outbox: &mut Vec<(NodeId, L::Msg)>,
    error: &mut Option<CongestError>,
    crashed: bool,
    round: u32,
    master_seed: u64,
) {
    outbox.clear();
    *error = None;
    if crashed || node.is_done() {
        return;
    }
    let id = NodeId::new(index as u32);
    let mut ctx = StepCtx {
        id,
        round,
        neighbors: topo.neighbors(id),
        inbox,
        rng: NodeRng::derive(master_seed, id.raw(), round),
        outbox,
        send_error: None,
    };
    node.step(&mut ctx);
    *error = ctx.send_error;
    // Sort elision: node logic usually sends in neighbor order, so the
    // outbox is already ascending; detect that in O(len) and skip the
    // (stable) sort that delivery relies on.
    if !outbox.is_sorted_by_key(|(dst, _)| *dst) {
        outbox.sort_by_key(|(dst, _)| *dst);
    }
}

/// Dense crash schedule: the round from which each of `n` nodes is
/// crashed (`u32::MAX` = never). The earliest entry for a node wins;
/// entries naming nodes outside the network are ignored.
pub(crate) fn crash_rounds(n: usize, crashes: &[(NodeId, u32)]) -> Vec<u32> {
    let mut crash_round = vec![u32::MAX; n];
    for &(id, r) in crashes {
        if let Some(slot) = crash_round.get_mut(id.index()) {
            *slot = (*slot).min(r);
        }
    }
    crash_round
}

/// The configuration [`deliver_one`] charges messages against, read from
/// [`CongestConfig`] or [`SimConfig`](crate::SimConfig).
#[derive(Debug, Clone, Copy)]
pub(crate) struct DeliveryRule {
    pub(crate) policy: DuplicatePolicy,
    pub(crate) fault: Option<FaultPlan>,
    pub(crate) max_bits: Option<u64>,
}

impl DeliveryRule {
    fn of(config: &CongestConfig) -> Self {
        DeliveryRule {
            policy: config.duplicate_policy,
            fault: config.fault,
            max_bits: config.max_message_bits,
        }
    }
}

/// One source's current run of sends to a single destination; outboxes
/// are sorted by destination, so a run is a maximal block of equal `dst`.
#[derive(Debug, Default)]
pub(crate) struct SendRun {
    dst: Option<NodeId>,
    len: u64,
}

/// Charges one message `src → dst` sent in `round`: the CONGEST delivery
/// rule of the engine and the simulator, so their transcripts agree by
/// construction.
///
/// In order: a repeated send over the same edge fails the round under
/// [`DuplicatePolicy::Reject`] (and raises `max_messages_per_edge`
/// otherwise); the fault plan, then `lost` (the simulator's lossy-node
/// draw; `|| false` elsewhere), may drop the message; the bit budget may
/// fail the round. Returns `Ok(Some(bits))` for a delivered message and
/// `Ok(None)` for a dropped one, with `stats` updated either way.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn deliver_one<M: Payload>(
    rule: &DeliveryRule,
    stats: &mut RoundStats,
    run: &mut SendRun,
    round: u32,
    src: NodeId,
    dst: NodeId,
    msg: &M,
    lost: impl FnOnce() -> bool,
) -> Result<Option<u64>, CongestError> {
    if run.dst == Some(dst) {
        run.len += 1;
    } else {
        run.dst = Some(dst);
        run.len = 1;
    }
    if run.len > 1 && rule.policy == DuplicatePolicy::Reject {
        return Err(CongestError::EdgeCongestion { from: src, to: dst, round });
    }
    stats.max_messages_per_edge = stats.max_messages_per_edge.max(run.len);
    if rule.fault.is_some_and(|f| f.drops(round, src, dst)) || lost() {
        stats.dropped += 1;
        return Ok(None);
    }
    let bits = msg.size_bits();
    if let Some(limit) = rule.max_bits {
        if bits > limit {
            return Err(CongestError::MessageTooLarge { from: src, to: dst, bits, limit });
        }
    }
    stats.messages += 1;
    stats.bits += bits;
    stats.max_message_bits = stats.max_message_bits.max(bits);
    Ok(Some(bits))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Floods the node's id for `ttl` rounds, summing everything heard.
    struct Flood {
        ttl: u32,
        heard: u64,
        done: bool,
    }

    impl NodeLogic for Flood {
        type Msg = u64;
        fn step(&mut self, ctx: &mut StepCtx<'_, u64>) {
            self.heard += ctx.inbox().iter().map(|(_, m)| *m).sum::<u64>();
            if ctx.round() < self.ttl {
                ctx.broadcast(u64::from(ctx.id().raw()) + 1);
            } else {
                self.done = true;
            }
        }
        fn is_done(&self) -> bool {
            self.done
        }
    }

    fn flood_net(n: usize, ttl: u32, threads: Option<usize>) -> Network<Flood> {
        let topo = Topology::ring(n).unwrap();
        let nodes = (0..n).map(|_| Flood { ttl, heard: 0, done: false }).collect();
        let config = CongestConfig { threads, ..CongestConfig::default() };
        Network::with_config(topo, nodes, 7, config).unwrap()
    }

    #[test]
    fn flood_terminates_and_counts() {
        let mut net = flood_net(6, 2, None);
        net.run(10).unwrap();
        let t = net.transcript();
        assert_eq!(t.num_rounds(), 3);
        // Nodes broadcast in rounds 0 and 1 (2 messages each, 6 nodes).
        assert_eq!(t.total_messages(), 2 * 12);
        assert!(t.congest_compliant(64));
        // Each node heard its two neighbors twice.
        for (i, node) in net.nodes().iter().enumerate() {
            let left = ((i + 5) % 6) as u64 + 1;
            let right = ((i + 1) % 6) as u64 + 1;
            assert_eq!(node.heard, 2 * (left + right), "node {i}");
        }
    }

    /// Tracing must be a pure observer: same seed, same transcript, with
    /// the round spans showing up in the obs snapshot.
    #[test]
    fn tracing_observes_rounds_without_perturbing_the_transcript() {
        let mut plain = flood_net(6, 2, None);
        plain.run(10).unwrap();
        let was_enabled = distfl_obs::enabled();
        distfl_obs::set_enabled(true);
        let mut traced = flood_net(6, 2, None);
        traced.run(10).unwrap();
        distfl_obs::set_enabled(was_enabled);
        assert_eq!(plain.transcript(), traced.transcript());
        let snap = distfl_obs::snapshot();
        let rounds: Vec<_> =
            snap.events.iter().filter(|e| e.cat == "engine" && e.name == "round").collect();
        assert!(rounds.len() >= 3, "expected >= 3 round spans, got {}", rounds.len());
        assert!(rounds.iter().any(|e| e.arg == Some(0)));
    }

    #[test]
    fn parallel_matches_serial() {
        let mut serial = flood_net(31, 3, None);
        serial.run(10).unwrap();
        let hs: Vec<u64> = serial.nodes().iter().map(|n| n.heard).collect();
        // An explicit 3-worker pool steps every round on 4 lanes on any
        // machine.
        let topo = Topology::ring(31).unwrap();
        let nodes = (0..31).map(|_| Flood { ttl: 3, heard: 0, done: false }).collect();
        let config = CongestConfig {
            threads: Some(4),
            pool: Some(WorkerPool::shared(3)),
            ..CongestConfig::default()
        };
        let mut parallel = Network::with_config(topo, nodes, 7, config).unwrap();
        parallel.run(10).unwrap();
        assert_eq!(serial.transcript(), parallel.transcript());
        let hp: Vec<u64> = parallel.nodes().iter().map(|n| n.heard).collect();
        assert_eq!(hs, hp);
    }

    /// `threads` really steps on the pool: the first node of each chunk
    /// waits until a second thread has stepped a node in the same round.
    /// Serial stepping never meets that condition, so the wait runs out
    /// at its deadline and the test fails instead of hanging.
    #[test]
    fn parallel_step_runs_chunks_concurrently() {
        type Entries = Arc<std::sync::Mutex<Vec<(u32, std::thread::ThreadId)>>>;
        struct Rendezvous {
            waits: bool,
            entered: Entries,
            met: Vec<bool>,
        }
        impl NodeLogic for Rendezvous {
            type Msg = u64;
            fn step(&mut self, ctx: &mut StepCtx<'_, u64>) {
                let (round, me) = (ctx.round(), std::thread::current().id());
                self.entered.lock().unwrap().push((round, me));
                if self.waits {
                    let peer =
                        || self.entered.lock().unwrap().iter().any(|&(r, t)| r == round && t != me);
                    let deadline = Instant::now() + std::time::Duration::from_secs(3);
                    while !peer() && Instant::now() < deadline {
                        std::thread::yield_now();
                    }
                    self.met.push(peer());
                }
                ctx.broadcast(1);
            }
            fn is_done(&self) -> bool {
                false
            }
        }
        // 8 nodes on 2 lanes: chunks 0..4 and 4..8.
        let entered = Entries::default();
        let nodes = (0..8)
            .map(|i| Rendezvous { waits: i % 4 == 0, entered: Arc::clone(&entered), met: vec![] })
            .collect();
        let config = CongestConfig {
            threads: Some(2),
            pool: Some(WorkerPool::shared(1)),
            ..CongestConfig::default()
        };
        let mut net = Network::with_config(Topology::ring(8).unwrap(), nodes, 0, config).unwrap();
        for round in 0..3 {
            net.step().unwrap();
            for waiter in [0, 4] {
                let met = net.nodes()[waiter].met[round];
                assert!(met, "node {waiter} stepped alone in round {round}: steps ran serially");
            }
        }
    }

    #[test]
    fn run_returns_borrowed_transcript() {
        let mut net = flood_net(6, 1, None);
        let rounds = net.run(10).unwrap().num_rounds();
        assert_eq!(rounds, 2);
        let (nodes, transcript) = net.into_parts();
        assert_eq!(nodes.len(), 6);
        assert_eq!(transcript.num_rounds(), 2);
    }

    #[test]
    fn round_limit_error() {
        struct Never;
        impl NodeLogic for Never {
            type Msg = ();
            fn step(&mut self, _: &mut StepCtx<'_, ()>) {}
            fn is_done(&self) -> bool {
                false
            }
        }
        let topo = Topology::ring(3).unwrap();
        let mut net = Network::new(topo, vec![Never, Never, Never], 0).unwrap();
        let err = net.run(5).unwrap_err();
        assert_eq!(err, CongestError::RoundLimit { limit: 5, pending: 3 });
    }

    #[test]
    fn node_count_mismatch() {
        let topo = Topology::ring(3).unwrap();
        let err = Network::new(topo, vec![Flood { ttl: 0, heard: 0, done: false }], 0).unwrap_err();
        assert!(matches!(err, CongestError::NodeCountMismatch { topology: 3, logics: 1 }));
    }

    #[test]
    fn send_to_non_neighbor_fails_round() {
        struct Bad;
        impl NodeLogic for Bad {
            type Msg = u64;
            fn step(&mut self, ctx: &mut StepCtx<'_, u64>) {
                // Node 0 tries to reach node 2 across the ring of 4: not
                // adjacent. The error is latched even though we ignore it.
                if ctx.id() == NodeId::new(0) {
                    let _ = ctx.send(NodeId::new(2), 1);
                }
            }
            fn is_done(&self) -> bool {
                false
            }
        }
        let topo = Topology::ring(4).unwrap();
        let mut net = Network::new(topo, vec![Bad, Bad, Bad, Bad], 0).unwrap();
        let err = net.step().unwrap_err();
        assert_eq!(err, CongestError::NotNeighbor { from: NodeId::new(0), to: NodeId::new(2) });
    }

    #[test]
    fn duplicate_send_rejected_by_default() {
        struct Dup {
            done: bool,
        }
        impl NodeLogic for Dup {
            type Msg = u64;
            fn step(&mut self, ctx: &mut StepCtx<'_, u64>) {
                let nb = ctx.neighbors()[0];
                ctx.send(nb, 1).unwrap();
                ctx.send(nb, 2).unwrap();
                self.done = true;
            }
            fn is_done(&self) -> bool {
                self.done
            }
        }
        let topo = Topology::ring(3).unwrap();
        let mk = || vec![Dup { done: false }, Dup { done: false }, Dup { done: false }];
        let mut net = Network::new(topo.clone(), mk(), 0).unwrap();
        assert!(matches!(net.step(), Err(CongestError::EdgeCongestion { .. })));

        // Record policy delivers and reports the violation instead.
        let config =
            CongestConfig { duplicate_policy: DuplicatePolicy::Record, ..CongestConfig::default() };
        let mut net = Network::with_config(topo, mk(), 0, config).unwrap();
        let stats = net.step().unwrap();
        assert_eq!(stats.max_messages_per_edge, 2);
        assert_eq!(stats.messages, 6);
    }

    /// Two distinct nodes in different step chunks violate the discipline;
    /// parallel stepping must surface the same error serial execution does
    /// (the violation earliest in source order), not whichever chunk
    /// finishes first.
    #[test]
    fn duplicate_error_matches_serial_order_across_threads() {
        struct DupAt {
            offender: bool,
            done: bool,
        }
        impl NodeLogic for DupAt {
            type Msg = u64;
            fn step(&mut self, ctx: &mut StepCtx<'_, u64>) {
                if self.offender {
                    let nb = *ctx.neighbors().last().unwrap();
                    ctx.send(nb, 1).unwrap();
                    ctx.send(nb, 2).unwrap();
                }
                self.done = true;
            }
            fn is_done(&self) -> bool {
                self.done
            }
        }
        let mk = |n: usize| {
            (0..n).map(|i| DupAt { offender: i == 3 || i == 12, done: false }).collect::<Vec<_>>()
        };
        let errs: Vec<CongestError> =
            [(None, None), (Some(4), None), (Some(4), Some(WorkerPool::shared(3)))]
                .into_iter()
                .map(|(threads, pool)| {
                    let topo = Topology::ring(16).unwrap();
                    let config = CongestConfig { threads, pool, ..CongestConfig::default() };
                    let mut net = Network::with_config(topo, mk(16), 0, config).unwrap();
                    net.step().unwrap_err()
                })
                .collect();
        assert_eq!(errs[0], errs[1]);
        assert_eq!(errs[0], errs[2]);
        assert!(matches!(errs[0], CongestError::EdgeCongestion { .. }));
    }

    #[test]
    fn fault_plan_drops_messages() {
        let topo = Topology::ring(5).unwrap();
        let nodes = (0..5).map(|_| Flood { ttl: 1, heard: 0, done: false }).collect();
        let config = CongestConfig {
            fault: Some(FaultPlan::drop_with_probability(1.0, 3)),
            ..CongestConfig::default()
        };
        let mut net = Network::with_config(topo, nodes, 0, config).unwrap();
        net.run(10).unwrap();
        let t = net.transcript();
        assert_eq!(t.total_messages(), 0);
        // One broadcast round: 5 nodes x 2 neighbors, all dropped.
        assert_eq!(t.total_dropped(), 10);
        assert!(net.nodes().iter().all(|n| n.heard == 0));
    }

    #[test]
    fn message_size_budget_is_enforced_when_configured() {
        let topo = Topology::ring(3).unwrap();
        let mk = || (0..3).map(|_| Flood { ttl: 1, heard: 0, done: false }).collect();
        // 64-bit messages pass a 64-bit budget...
        let config = CongestConfig { max_message_bits: Some(64), ..CongestConfig::default() };
        let mut net = Network::with_config(topo.clone(), mk(), 0, config).unwrap();
        assert!(net.run(5).is_ok());
        // ...and fail a 32-bit one.
        let config = CongestConfig { max_message_bits: Some(32), ..CongestConfig::default() };
        let mut net = Network::with_config(topo, mk(), 0, config).unwrap();
        let err = net.run(5).unwrap_err();
        assert!(matches!(err, CongestError::MessageTooLarge { bits: 64, limit: 32, .. }));
    }

    #[test]
    fn inbox_from_lookup() {
        struct Probe {
            saw_left: bool,
            done: bool,
        }
        impl NodeLogic for Probe {
            type Msg = u64;
            fn step(&mut self, ctx: &mut StepCtx<'_, u64>) {
                if ctx.round() == 0 {
                    ctx.broadcast(u64::from(ctx.id().raw()));
                } else {
                    let left = ctx.neighbors()[0];
                    self.saw_left = ctx.from(left).is_some();
                    assert!(ctx.from(ctx.id()).is_none());
                    self.done = true;
                }
            }
            fn is_done(&self) -> bool {
                self.done
            }
        }
        let topo = Topology::ring(4).unwrap();
        let nodes = (0..4).map(|_| Probe { saw_left: false, done: false }).collect();
        let mut net = Network::new(topo, nodes, 0).unwrap();
        net.run(5).unwrap();
        assert!(net.nodes().iter().all(|p| p.saw_left));
    }

    #[test]
    fn deterministic_rng_across_replays() {
        struct Roll {
            value: u64,
            done: bool,
        }
        impl NodeLogic for Roll {
            type Msg = ();
            fn step(&mut self, ctx: &mut StepCtx<'_, ()>) {
                self.value = ctx.rng().below(1_000_000);
                self.done = true;
            }
            fn is_done(&self) -> bool {
                self.done
            }
        }
        let run = || {
            let topo = Topology::ring(8).unwrap();
            let nodes = (0..8).map(|_| Roll { value: 0, done: false }).collect();
            let mut net = Network::new(topo, nodes, 42).unwrap();
            net.run(2).unwrap();
            net.into_nodes().iter().map(|r| r.value).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    /// Sends out-of-order on purpose so the sort-elision fallback path
    /// (stable sort) is exercised.
    #[test]
    fn unsorted_sends_still_deliver_sorted() {
        struct Reverse {
            inbox_sorted: bool,
            done: bool,
        }
        impl NodeLogic for Reverse {
            type Msg = u64;
            fn step(&mut self, ctx: &mut StepCtx<'_, u64>) {
                if ctx.round() == 0 {
                    let neighbors: Vec<NodeId> = ctx.neighbors().iter().rev().copied().collect();
                    for nb in neighbors {
                        ctx.send(nb, u64::from(ctx.id().raw())).unwrap();
                    }
                } else {
                    self.inbox_sorted = ctx.inbox().windows(2).all(|w| w[0].0 <= w[1].0);
                    assert!(!ctx.inbox().is_empty());
                    self.done = true;
                }
            }
            fn is_done(&self) -> bool {
                self.done
            }
        }
        for (threads, pool) in
            [(None, None), (Some(4), None), (Some(4), Some(WorkerPool::shared(3)))]
        {
            let topo = Topology::complete_bipartite(4, 9).unwrap();
            let nodes = (0..13).map(|_| Reverse { inbox_sorted: false, done: false }).collect();
            let config = CongestConfig { threads, pool, ..CongestConfig::default() };
            let mut net = Network::with_config(topo, nodes, 0, config).unwrap();
            net.run(5).unwrap();
            assert!(net.nodes().iter().all(|n| n.inbox_sorted));
        }
    }

    /// Steady-state rounds must not grow any buffer: capacities reached in
    /// round 0 are reused in every later round.
    #[test]
    fn buffers_are_pooled_across_rounds() {
        let mut net = flood_net(16, 6, None);
        net.step().unwrap();
        net.step().unwrap();
        let caps: Vec<usize> = net.outboxes.iter().map(Vec::capacity).collect();
        let icaps: Vec<usize> = net.inboxes.iter().map(Vec::capacity).collect();
        for _ in 0..4 {
            net.step().unwrap();
        }
        assert_eq!(caps, net.outboxes.iter().map(Vec::capacity).collect::<Vec<_>>());
        assert_eq!(icaps, net.inboxes.iter().map(Vec::capacity).collect::<Vec<_>>());
    }
}
