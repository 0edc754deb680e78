//! The event-driven simulator that the clock recurrence of
//! [`Simulator`](super::Simulator) replaced, kept as its test oracle.
//!
//! It re-executes a protocol over an event heap of simulated nanoseconds,
//! per-edge envelopes and the α-synchronizer's round buffers
//! (`synchronizer.rs`), stepping each node through the engine's own
//! `step_into` and charging each message with `deliver_one`. A binary heap
//! orders events by `(virtual time, sequence number)`; the sequence number
//! is assigned at push time, so ties break deterministically. There are two
//! event kinds: the *arrival* of one edge-envelope, and the *step* of one
//! node's next round, scheduled once the synchronizer holds every envelope
//! the round needs and the node's previous compute has ended.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use super::synchronizer::{Envelope, SyncState};
use super::{SimConfig, SimReport, COMPUTE_NANOS};
use crate::engine::{crash_rounds, deliver_one, step_into};
use crate::error::CongestError;
use crate::metrics::{RoundStats, Transcript};
use crate::node::{NodeId, NodeLogic};
use crate::topology::Topology;

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

/// The event-driven simulator. See the [module docs](self).
pub(super) struct Simulator<L: NodeLogic> {
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
    max_rounds: u32,
    report: SimReport,
}

impl<L: NodeLogic> Simulator<L> {
    /// A simulator over `topo` running one logic per node; `nodes` must
    /// match the topology's node count.
    pub(super) fn new(topo: Topology, nodes: Vec<L>, master_seed: u64, config: SimConfig) -> Self {
        assert_eq!(topo.num_nodes(), nodes.len(), "one logic per node");
        let n = nodes.len();
        let crash_round = crash_rounds(n, &config.crashes);
        let states = (0..n).map(|i| SyncState::new(topo.degree(NodeId::new(i as u32)))).collect();
        Simulator {
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
            max_rounds: u32::MAX,
            report: SimReport::default(),
        }
    }

    /// Runs until every node is done (or crashed) or some node would
    /// exceed `max_rounds`, and returns the transcript or the error, the
    /// final node states and the report. A protocol error leaves no
    /// transcript; a tripped round limit pads it to `max_rounds` rows, as
    /// the engine executes that many rounds.
    pub(super) fn run(
        mut self,
        max_rounds: u32,
    ) -> (Result<Transcript, CongestError>, Vec<L>, SimReport) {
        self.max_rounds = max_rounds;
        let result = self.drive().and_then(|()| {
            let mut transcript = Transcript::new();
            let limit_hit = (0..self.nodes.len())
                .any(|i| !self.nodes[i].is_done() && self.crash_round[i] > max_rounds);
            if limit_hit {
                // The engine spins no-op rounds (done/crashed nodes step
                // into empty outboxes) until the limit trips; replicate its
                // empty trailing stats rows.
                while self.rows.len() < max_rounds as usize {
                    let r = self.rows.len() as u32;
                    self.rows.push(RoundStats { round: r, ..RoundStats::default() });
                }
            }
            for row in self.rows.drain(..) {
                transcript.push(row);
            }
            if limit_hit {
                let pending = self.nodes.iter().filter(|l| !l.is_done()).count();
                return Err(CongestError::RoundLimit { limit: max_rounds, pending });
            }
            Ok(transcript)
        });
        (result, self.nodes, self.report)
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
        if round >= self.crash_round[index] || round >= self.max_rounds || !state.ready() {
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
        let mut inbox = Vec::new();
        for env in self.states[index].take_inbox_envelopes(round).into_iter().flatten() {
            let src = env.src;
            inbox.extend(env.payloads.into_iter().map(|m| (src, m)));
        }
        let mut outbox = Vec::new();
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
        if let Some(err) = error {
            return Err(err);
        }

        // Every stepped round owns a stats row, even if nothing was sent —
        // the engine pushes one RoundStats per executed round too.
        while self.rows.len() <= round as usize {
            let r = self.rows.len() as u32;
            self.rows.push(RoundStats { round: r, ..RoundStats::default() });
        }
        let end = t + COMPUTE_NANOS;
        self.free_at[index] = end;
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

        self.send_round(node, round, end, done, &outbox)?;
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
        outbox: &[(NodeId, L::Msg)],
    ) -> Result<(), CongestError> {
        let fault = self.config.fault;
        let mut stats = self.rows[round as usize];
        let neighbors = self.topo.neighbors(src).to_vec();
        let mut cursor = 0usize;
        let mut last = None;
        for dst in neighbors {
            let mut payloads = Vec::new();
            let mut addressed = false;
            while let Some((d, msg)) = outbox.get(cursor) {
                if *d != dst {
                    break;
                }
                cursor += 1;
                addressed = true;
                match deliver_one(fault, &mut stats, &mut last, round, src, dst, msg) {
                    Ok(true) => payloads.push(msg.clone()),
                    Ok(false) => {}
                    Err(err) => return Err(err),
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
        debug_assert_eq!(cursor, outbox.len(), "every outbox message addresses a neighbor");
        Ok(())
    }

    /// When the envelope `src → dst` sent at `send_t` arrives.
    fn delivery_time(&self, src: NodeId, dst: NodeId, round: u32, send_t: u64) -> u64 {
        send_t + self.config.latency.draw(self.config.latency_seed, src, dst, round)
    }

    /// Emits the round-0 final pulse of a node that was done before ever
    /// stepping, so its neighbors do not wait on it.
    fn send_final_pulse(&mut self, src: NodeId) {
        for dst in self.topo.neighbors(src).to_vec() {
            self.report.pulse_envelopes += 1;
            let arrival = self.delivery_time(src, dst, 0, 0);
            let env = Envelope { src, round: 0, payloads: Vec::new(), final_round: true };
            self.push_event(arrival, Ev::Arrival { dst, env });
        }
    }
}
