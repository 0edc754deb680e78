//! The straw-man, **actually implemented**: sequential greedy simulated
//! faithfully in the CONGEST model.
//!
//! [`crate::seqsim`] *models* the straw-man's round count; this module
//! *executes* it, so experiment E2's "rounds grow with the input" side is
//! a measurement, not a model. The protocol:
//!
//! 1. **Tree phase.** Build a BFS tree from node 0 (`Grow`/`ChildOf`
//!    adoption handshake, as in [`distfl_congest::bfs`]).
//! 2. **Greedy cycles**, each one star of the sequential greedy:
//!    * **Select** — convergecast the minimum `(star ratio, facility id)`
//!      up the tree; the root broadcasts the winner (or `stop` when every
//!      facility reports "no unserved clients").
//!    * **Serve & refresh** — a two-round, per-edge handshake: every
//!      facility messages each linked client (`serve` from the winner's
//!      star, `pass` otherwise) and every client replies with its served
//!      status. After the handshake each facility's view of its unserved
//!      neighborhood is exactly current, so the next cycle's ratios are
//!      correct — this is the synchronization the model charges as
//!      "2·depth + 2 per iteration", and it is why the straw-man cannot
//!      be local: every star costs tree waves across the whole graph.
//!
//! Each facility prices its star with the greedy's own scan
//! ([`crate::greedy`]'s `star_scan`) over its links sorted by cost once
//! when the node is built, so the select wave compares exactly the greedy's
//! ratios, by construction. The output is therefore bit-identical to
//! [`crate::greedy`] (same ratios, same tie-breaks; the tests assert it),
//! while the transcript shows the input-dependent round count the PODC 2005
//! algorithm eliminates.

use distfl_congest::{CongestConfig, NodeId, NodeLogic, Payload, StepCtx, Transcript};
use distfl_instance::{FacilityId, Instance, Solution};

use crate::error::CoreError;
use crate::greedy::{star_row, star_scan};
use crate::model::{
    client_link_table, clients, execute, facility_link_table, topology_of, Executor, LinkCursor,
    Node,
};
use crate::runner::{FlAlgorithm, Outcome};

/// Sentinel facility id for "no candidate".
const NONE_FID: u32 = u32::MAX;

/// Messages of the faithful straw-man protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SeqMsg {
    /// Tree wave.
    Grow,
    /// Adoption confirmation.
    ChildOf,
    /// Upward select wave: best `(ratio, facility)` in the subtree.
    Up {
        /// Greedy cycle number.
        cycle: u32,
        /// Best star ratio in the subtree (`INFINITY` = none).
        ratio: f64,
        /// Facility achieving it (`NONE_FID` = none).
        fid: u32,
    },
    /// Downward winner broadcast.
    Down {
        /// Greedy cycle number.
        cycle: u32,
        /// Winning facility (`NONE_FID` with `stop`).
        fid: u32,
        /// Whether the greedy is finished.
        stop: bool,
    },
    /// Facility → client handshake: `serve` iff the client is in the
    /// winner's star this cycle.
    Offer {
        /// Greedy cycle number.
        cycle: u32,
        /// Whether this client is being served now.
        serve: bool,
    },
    /// Combined `Down` + `Offer` for a facility's tree-children clients
    /// (one message per edge per round).
    DownOffer {
        /// Greedy cycle number.
        cycle: u32,
        /// Winning facility.
        fid: u32,
        /// Whether this client is being served now.
        serve: bool,
    },
    /// Client → facility handshake reply: current served status.
    Status {
        /// Greedy cycle number.
        cycle: u32,
        /// Whether the client is (now) served.
        served: bool,
    },
}

impl Payload for SeqMsg {
    fn size_bits(&self) -> u64 {
        match self {
            SeqMsg::Grow | SeqMsg::ChildOf => 8,
            SeqMsg::Offer { .. } | SeqMsg::Status { .. } => 48,
            SeqMsg::Up { .. } | SeqMsg::Down { .. } | SeqMsg::DownOffer { .. } => 136,
        }
    }

    /// Canonical wire encoding: one tag byte, then the variant's fields in
    /// declaration order, big-endian, booleans as one byte — within the
    /// [`SeqMsg::size_bits`] budget (the 136-bit class is sized for its
    /// largest member, `Up`; `Down`/`DownOffer` encode smaller). Used by
    /// the wire-format test to keep the declared sizes honest.
    fn encode(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(17);
        match self {
            SeqMsg::Grow => b.push(0),
            SeqMsg::ChildOf => b.push(1),
            SeqMsg::Up { cycle, ratio, fid } => {
                b.push(2);
                b.extend_from_slice(&cycle.to_be_bytes());
                b.extend_from_slice(&ratio.to_be_bytes());
                b.extend_from_slice(&fid.to_be_bytes());
            }
            SeqMsg::Down { cycle, fid, stop } => {
                b.push(3);
                b.extend_from_slice(&cycle.to_be_bytes());
                b.extend_from_slice(&fid.to_be_bytes());
                b.push(u8::from(*stop));
            }
            SeqMsg::Offer { cycle, serve } => {
                b.push(4);
                b.extend_from_slice(&cycle.to_be_bytes());
                b.push(u8::from(*serve));
            }
            SeqMsg::DownOffer { cycle, fid, serve } => {
                b.push(5);
                b.extend_from_slice(&cycle.to_be_bytes());
                b.extend_from_slice(&fid.to_be_bytes());
                b.push(u8::from(*serve));
            }
            SeqMsg::Status { cycle, served } => {
                b.push(6);
                b.extend_from_slice(&cycle.to_be_bytes());
                b.push(u8::from(*served));
            }
        }
        b
    }
}

/// Shared tree/wave state of both roles.
#[derive(Debug, Clone)]
struct WaveState {
    is_root: bool,
    joined: bool,
    parent: Option<NodeId>,
    children: Vec<NodeId>,
    answered: usize,
    answered_target: usize,
    /// Current greedy cycle.
    cycle: u32,
    /// Children's reports collected for the current cycle.
    children_reported: usize,
    /// Aggregated best of the subtree (children + self).
    best: (f64, u32),
    /// Whether this node's local state is current for `cycle` (handshake
    /// of the previous cycle complete).
    state_current: bool,
    up_sent: bool,
    done: bool,
}

impl WaveState {
    fn new(is_root: bool) -> Self {
        WaveState {
            is_root,
            joined: false,
            parent: None,
            children: Vec::new(),
            answered: 0,
            answered_target: usize::MAX,
            cycle: 0,
            children_reported: 0,
            best: (f64::INFINITY, NONE_FID),
            state_current: true,
            up_sent: false,
            done: false,
        }
    }

    fn tree_ready(&self) -> bool {
        self.joined && self.answered == self.answered_target
    }

    /// Handles tree-building messages; returns true if the node joined
    /// this step (and must flood `Grow`).
    fn absorb_tree_msgs(&mut self, ctx: &StepCtx<'_, SeqMsg>) -> bool {
        if self.joined {
            for &(src, msg) in ctx.inbox() {
                match msg {
                    SeqMsg::ChildOf => {
                        self.children.push(src);
                        self.answered += 1;
                    }
                    SeqMsg::Grow => self.answered += 1,
                    _ => {}
                }
            }
            return false;
        }
        if self.is_root {
            self.joined = true;
            self.answered_target = ctx.degree();
            return true;
        }
        let grow_from: Option<NodeId> = ctx
            .inbox()
            .iter()
            .filter(|(_, m)| matches!(m, SeqMsg::Grow))
            .map(|&(src, _)| src)
            .min();
        if let Some(parent) = grow_from {
            self.joined = true;
            self.parent = Some(parent);
            self.answered_target = ctx.degree() - 1;
            self.answered += ctx
                .inbox()
                .iter()
                .filter(|(src, m)| matches!(m, SeqMsg::Grow) && *src != parent)
                .count();
            return true;
        }
        false
    }

    /// Joins `Up` reports of the current cycle into the aggregate.
    fn absorb_up(&mut self, cycle: u32, ratio: f64, fid: u32) {
        debug_assert_eq!(cycle, self.cycle, "wave discipline violated");
        self.children_reported += 1;
        if (ratio, fid) < self.best {
            self.best = (ratio, fid);
        }
    }

    /// Whether the subtree aggregate is complete and can go up.
    fn ready_to_up(&self) -> bool {
        self.tree_ready()
            && self.state_current
            && !self.up_sent
            && self.children_reported == self.children.len()
    }

    /// Resets per-cycle wave state for the next cycle.
    fn next_cycle(&mut self) {
        self.cycle += 1;
        self.children_reported = 0;
        self.best = (f64::INFINITY, NONE_FID);
        self.state_current = false;
        self.up_sent = false;
    }
}

/// Facility node.
#[derive(Debug, Clone)]
pub struct SeqFacility {
    wave: WaveState,
    my_id: u32,
    opening: f64,
    links: Vec<(NodeId, f64)>,
    /// The links' positions sorted by `(cost, position)` and their costs,
    /// sorted once at build time: the row [`star_scan`] prices.
    star_row: (Vec<u32>, Vec<f64>),
    /// Whether each linked client was served at the last handshake
    /// (aligned with `links`).
    served: Vec<bool>,
    open: bool,
    replies: usize,
}

/// Client node.
#[derive(Debug, Clone)]
pub struct SeqClient {
    wave: WaveState,
    links: Vec<(NodeId, f64)>,
    assigned: Option<usize>,
    offers: usize,
    serve_from: Option<usize>,
    replied: bool,
}

/// One node of the protocol.
pub type SeqNode = Node<SeqFacility, SeqClient>;

impl SeqFacility {
    /// This facility's current best star over its unserved links: its
    /// ratio and its size `k` (0 when every link is served). The star is
    /// the first `k` unserved entries of the star row.
    fn star(&self) -> (f64, usize) {
        let residual = if self.open { 0.0 } else { self.opening };
        let (ids, costs) = &self.star_row;
        let (ratio, k, _) = star_scan(ids, costs, residual, |idx| self.served[idx as usize]);
        (ratio, k)
    }

    fn handle_down(&mut self, ctx: &mut StepCtx<'_, SeqMsg>, cycle: u32, fid: u32, stop: bool) {
        debug_assert_eq!(cycle, self.wave.cycle, "down wave out of order");
        if stop {
            for &child in &self.wave.children.clone() {
                ctx.send(child, SeqMsg::Down { cycle, fid, stop }).expect("children are neighbors");
            }
            self.wave.done = true;
            return;
        }
        // Non-stop Down forwarding is folded into the handshake below
        // (every child of a facility is one of its linked clients).
        // Start the handshake: offers to every linked client, combined
        // with the Down forward for tree children (one message per edge).
        let mut star = Vec::new();
        if fid == self.my_id {
            let (_, k) = self.star();
            let ids = self.star_row.0.iter().filter(|&&idx| !self.served[idx as usize]);
            star.extend(ids.take(k).map(|&idx| idx as usize));
            self.open = true;
        }
        for (idx, &(client, _)) in self.links.iter().enumerate() {
            let serve = star.contains(&idx);
            let msg = if self.wave.children.contains(&client) {
                SeqMsg::DownOffer { cycle, fid, serve }
            } else {
                SeqMsg::Offer { cycle, serve }
            };
            ctx.send(client, msg).expect("links are neighbors");
        }
        self.replies = 0;
        self.wave.next_cycle();
        // Degenerate case: a facility with no links is immediately current
        // (cannot occur on connected topologies, kept for safety).
        if self.links.is_empty() {
            self.wave.state_current = true;
        }
    }

    fn emit_up_or_decide(&mut self, ctx: &mut StepCtx<'_, SeqMsg>, best: (f64, u32)) {
        self.wave.up_sent = true;
        let cycle = self.wave.cycle;
        if self.wave.is_root {
            let stop = best.1 == NONE_FID;
            self.handle_down(ctx, cycle, best.1, stop);
        } else {
            let parent = self.wave.parent.expect("non-root has a parent");
            ctx.send(parent, SeqMsg::Up { cycle, ratio: best.0, fid: best.1 })
                .expect("parent is a neighbor");
        }
    }
}

impl NodeLogic for SeqFacility {
    type Msg = SeqMsg;

    fn is_done(&self) -> bool {
        self.wave.done
    }

    fn step(&mut self, ctx: &mut StepCtx<'_, SeqMsg>) {
        if self.wave.absorb_tree_msgs(ctx) {
            // Just joined: flood the tree wave.
            for &nb in ctx.neighbors() {
                let msg = if Some(nb) == self.wave.parent { SeqMsg::ChildOf } else { SeqMsg::Grow };
                ctx.send(nb, msg).expect("neighbors are valid");
            }
            return;
        }
        let mut cursor = LinkCursor::default();
        for &(src, msg) in ctx.inbox() {
            match msg {
                SeqMsg::Up { cycle, ratio, fid } => self.wave.absorb_up(cycle, ratio, fid),
                SeqMsg::Down { cycle, fid, stop } => {
                    self.handle_down(ctx, cycle, fid, stop);
                }
                SeqMsg::Status { cycle, served } => {
                    debug_assert_eq!(cycle, self.wave.cycle - 1, "stale status");
                    let idx = cursor.seek(&self.links, src).expect("replies arrive over links");
                    self.served[idx] = served;
                    self.replies += 1;
                    if self.replies == self.links.len() {
                        self.wave.state_current = true;
                    }
                }
                _ => {}
            }
        }
        if self.wave.ready_to_up() {
            let mut best = self.wave.best;
            let (ratio, k) = self.star();
            if k > 0 && (ratio, self.my_id) < best {
                best = (ratio, self.my_id);
            }
            self.emit_up_or_decide(ctx, best);
        }
    }
}

impl NodeLogic for SeqClient {
    type Msg = SeqMsg;

    fn is_done(&self) -> bool {
        self.wave.done
    }

    fn step(&mut self, ctx: &mut StepCtx<'_, SeqMsg>) {
        if self.wave.absorb_tree_msgs(ctx) {
            for &nb in ctx.neighbors() {
                let msg = if Some(nb) == self.wave.parent { SeqMsg::ChildOf } else { SeqMsg::Grow };
                ctx.send(nb, msg).expect("neighbors are valid");
            }
            return;
        }
        // Pass 1: waves (a Down and an Offer can share an inbox; the Down
        // must advance the cycle before its offers are counted).
        let mut forwarded_down = false;
        for &(_, msg) in ctx.inbox() {
            match msg {
                SeqMsg::Up { cycle, ratio, fid } => self.wave.absorb_up(cycle, ratio, fid),
                SeqMsg::Down { cycle, fid, stop: _ }
                | SeqMsg::DownOffer { cycle, fid, serve: _ } => {
                    let stop = matches!(msg, SeqMsg::Down { stop: true, .. });
                    debug_assert_eq!(cycle, self.wave.cycle, "down wave out of order");
                    for &child in &self.wave.children.clone() {
                        ctx.send(child, SeqMsg::Down { cycle, fid, stop })
                            .expect("children are neighbors");
                    }
                    if stop {
                        self.wave.done = true;
                    } else {
                        self.wave.next_cycle();
                        self.offers = 0;
                        self.serve_from = None;
                        self.replied = false;
                    }
                    forwarded_down = true;
                }
                _ => {}
            }
        }
        // Pass 2: handshake offers of the (now-current) cycle.
        let mut cursor = LinkCursor::default();
        for &(src, msg) in ctx.inbox() {
            let (cycle, serve) = match msg {
                SeqMsg::Offer { cycle, serve } => (cycle, serve),
                SeqMsg::DownOffer { cycle, serve, .. } => (cycle, serve),
                _ => continue,
            };
            debug_assert_eq!(cycle, self.wave.cycle - 1, "stale offer");
            let _ = cycle;
            let idx = cursor.seek(&self.links, src).expect("offers arrive over links");
            if serve {
                debug_assert!(self.serve_from.is_none(), "two winners in one cycle");
                self.serve_from = Some(idx);
            }
            self.offers += 1;
        }
        // A step that forwarded a Down already used this node's tree edges;
        // replies and reports wait for the next step (one message per edge
        // per round).
        if forwarded_down {
            return;
        }
        // Once every linked facility has made its offer, accept and reply.
        if !self.replied && self.wave.cycle > 0 && self.offers == self.links.len() {
            if let Some(idx) = self.serve_from {
                if self.assigned.is_none() {
                    self.assigned = Some(idx);
                }
            }
            let cycle = self.wave.cycle - 1;
            let served = self.assigned.is_some();
            for &(facility, _) in &self.links {
                ctx.send(facility, SeqMsg::Status { cycle, served }).expect("links are neighbors");
            }
            self.replied = true;
            self.wave.state_current = true;
            // The Status replies used every incident edge; the Up report
            // goes out next step.
            return;
        }
        if self.wave.ready_to_up() {
            self.wave.up_sent = true;
            let (ratio, fid) = self.wave.best;
            if self.wave.is_root {
                // A client root decides exactly like a facility root.
                let stop = fid == NONE_FID;
                for &child in &self.wave.children.clone() {
                    ctx.send(child, SeqMsg::Down { cycle: self.wave.cycle, fid, stop })
                        .expect("children are neighbors");
                }
                if stop {
                    self.wave.done = true;
                } else {
                    self.wave.next_cycle();
                    self.offers = 0;
                    self.serve_from = None;
                    self.replied = false;
                }
            } else {
                let parent = self.wave.parent.expect("non-root has a parent");
                ctx.send(parent, SeqMsg::Up { cycle: self.wave.cycle, ratio, fid })
                    .expect("parent is a neighbor");
            }
        }
    }
}

/// The faithful CONGEST implementation of the sequential-greedy straw-man.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DistSeqGreedy;

impl DistSeqGreedy {
    /// Creates the algorithm.
    pub fn new() -> Self {
        DistSeqGreedy
    }
}

/// Runs the protocol, returning the solution and transcript.
///
/// # Errors
///
/// Returns [`CoreError::InvalidParams`] on disconnected communication
/// graphs (tree waves need connectivity) and propagates simulation errors.
pub fn run_protocol(instance: &Instance) -> Result<(Solution, Transcript), CoreError> {
    let topology = topology_of(instance)?;
    if !topology.is_connected() {
        return Err(CoreError::InvalidParams {
            reason: "the straw-man needs a connected communication graph".to_owned(),
        });
    }
    let m = instance.num_facilities();
    let mut nodes = Vec::with_capacity(m + instance.num_clients());
    for i in instance.facilities() {
        let links = facility_link_table(instance, i);
        nodes.push(Node::Facility(SeqFacility {
            wave: WaveState::new(i.raw() == 0),
            my_id: i.raw(),
            opening: instance.opening_cost(i).value(),
            star_row: star_row(instance.facility_links(i).costs),
            served: vec![false; links.len()],
            links,
            open: false,
            replies: 0,
        }));
    }
    for j in instance.clients() {
        nodes.push(Node::Client(SeqClient {
            wave: WaveState::new(false),
            links: client_link_table(instance, j),
            assigned: None,
            offers: 0,
            serve_from: None,
            replied: false,
        }));
    }
    let n_total = (m + instance.num_clients()) as u32;
    // Every greedy iteration costs at most ~4 tree depths + 4 rounds, and
    // there are at most n iterations plus the tree phase.
    let limit = (instance.num_clients() as u32 + 2) * (4 * n_total + 8) + 4 * n_total + 16;
    let executor = Executor::LockStep(CongestConfig::default());
    let run = execute(topology, nodes, 0, executor, limit, |nodes| {
        let assignment = clients(nodes).map(|c| {
            let idx = c.assigned.expect("greedy serves every client before stopping");
            FacilityId::new(c.links[idx].0.raw())
        });
        Ok(Solution::from_assignment(instance, assignment.collect())?)
    })?;
    Ok((run.harvest, run.transcript))
}

impl FlAlgorithm for DistSeqGreedy {
    fn name(&self) -> String {
        "seq-greedy-real".to_owned()
    }

    fn run(&self, instance: &Instance, _seed: u64) -> Result<Outcome, CoreError> {
        let (solution, transcript) = run_protocol(instance)?;
        Ok(Outcome { solution, transcript: Some(transcript), dual: None, modeled_rounds: None })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy;
    use distfl_instance::generators::{
        AdversarialGreedy, Euclidean, InstanceGenerator, UniformRandom,
    };

    #[test]
    fn wire_encoding_fits_the_declared_budget_and_is_distinct() {
        let msgs = [
            SeqMsg::Grow,
            SeqMsg::ChildOf,
            SeqMsg::Up { cycle: 3, ratio: 1.5, fid: 7 },
            SeqMsg::Down { cycle: 3, fid: 7, stop: false },
            SeqMsg::Offer { cycle: 3, serve: true },
            SeqMsg::DownOffer { cycle: 3, fid: 7, serve: true },
            SeqMsg::Status { cycle: 3, served: true },
        ];
        let mut encodings = Vec::new();
        for m in msgs {
            let enc = m.encode();
            assert!(
                (enc.len() as u64) * 8 <= m.size_bits(),
                "{m:?} encodes to {} bits but declares {}",
                enc.len() * 8,
                m.size_bits()
            );
            encodings.push(enc);
        }
        // Same field values, different tags: encodings must differ.
        assert_eq!(encodings.iter().collect::<std::collections::HashSet<_>>().len(), 7);
        // The ratio round-trips through the big-endian bytes after the
        // tag byte and the 32-bit cycle.
        let enc = SeqMsg::Up { cycle: 1, ratio: 42.25, fid: 2 }.encode();
        assert_eq!(f64::from_be_bytes(enc[5..13].try_into().unwrap()), 42.25);
    }

    #[test]
    fn matches_sequential_greedy_exactly() {
        for seed in 0..5 {
            let inst = UniformRandom::new(5, 15).unwrap().generate(seed).unwrap();
            let (expected, _) = greedy::solve(&inst);
            let (got, _) = run_protocol(&inst).unwrap();
            assert_eq!(got, expected, "seed {seed}");
        }
    }

    #[test]
    fn matches_on_the_adversarial_family() {
        let inst = AdversarialGreedy::new(8).unwrap().generate(0).unwrap();
        let (expected, _) = greedy::solve(&inst);
        let (got, _) = run_protocol(&inst).unwrap();
        assert_eq!(got, expected);
    }

    #[test]
    fn rounds_grow_with_the_instance() {
        let small = UniformRandom::new(4, 10).unwrap().generate(1).unwrap();
        let large = UniformRandom::new(10, 60).unwrap().generate(1).unwrap();
        let (_, t_small) = run_protocol(&small).unwrap();
        let (_, t_large) = run_protocol(&large).unwrap();
        assert!(
            t_large.num_rounds() > t_small.num_rounds(),
            "rounds: {} vs {}",
            t_small.num_rounds(),
            t_large.num_rounds()
        );
    }

    #[test]
    fn congest_discipline_holds() {
        let inst = Euclidean::new(6, 20).unwrap().generate(2).unwrap();
        let (_, t) = run_protocol(&inst).unwrap();
        assert!(t.congest_compliant(136));
        assert_eq!(t.max_messages_per_edge(), 1);
    }

    #[test]
    fn modeled_rounds_are_in_the_right_ballpark() {
        // The seqsim model should agree with the measurement within a
        // small constant factor.
        let inst = UniformRandom::new(8, 40).unwrap().generate(3).unwrap();
        let (_, t) = run_protocol(&inst).unwrap();
        let modeled =
            crate::seqsim::SimulatedSeqGreedy::new().run(&inst, 0).unwrap().modeled_rounds.unwrap();
        let measured = t.num_rounds();
        let factor = f64::from(measured) / f64::from(modeled);
        assert!(
            (0.3..6.0).contains(&factor),
            "model {modeled} vs measured {measured} (factor {factor})"
        );
    }
}
