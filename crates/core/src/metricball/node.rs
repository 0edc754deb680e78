//! Node state machines for MetricBall.

use distfl_congest::{NodeId, NodeLogic, Payload, StepCtx};
use distfl_instance::{FacilityId, Instance};

use crate::model::{client_link_table, LinkCursor, Node};
use crate::mp;

/// Upper bound on any MetricBall message, in bits: one tag byte plus one
/// 64-bit scalar. The CONGEST discipline check in the tests uses this.
pub const MAX_MESSAGE_BITS: u64 = 72;

/// Messages of the MetricBall protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricBallMsg {
    /// Facility → clients, bid rounds: "I want to open", carrying the
    /// phase's random priority.
    Bid(f64),
    /// Client → facility, deny rounds: "do not open this phase".
    Deny,
    /// Facility → clients, resolve rounds: "I am open".
    Open,
    /// Client → facility, coverage round: "open for me" (sent to the
    /// cheapest link by clients no opened ball reached).
    Demand,
}

impl Payload for MetricBallMsg {
    fn size_bits(&self) -> u64 {
        match self {
            MetricBallMsg::Bid(_) => MAX_MESSAGE_BITS,
            _ => 8,
        }
    }

    /// Canonical wire encoding: one tag byte plus the big-endian scalar —
    /// exactly the [`MetricBallMsg::size_bits`] budget.
    fn encode(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(9);
        match self {
            MetricBallMsg::Bid(v) => {
                b.push(0);
                b.extend_from_slice(&v.to_be_bytes());
            }
            MetricBallMsg::Deny => b.push(1),
            MetricBallMsg::Open => b.push(2),
            MetricBallMsg::Demand => b.push(3),
        }
        b
    }
}

/// One MetricBall node: either a facility or a client state machine.
pub type MetricBallNode = Node<FacilityState, ClientState>;

/// The globally-known radius schedule `R_0 < … < R_{s−1}`: a geometric
/// ladder from the instance's positive cost floor up to twice its largest
/// coefficient (every Mettu–Plaxton radius lies below the top rung).
/// Baked into every node at build time — like PayDual's size bound, these
/// are global knowledge, and `theory::metricball_rounds` charges no rounds
/// for them. A real deployment would learn them in `O(diameter)`
/// pre-rounds with a convergecast over the [`distfl_congest::bfs`] tree
/// that takes the maximum of the costs and the minimum of each node's
/// smallest positive cost where that module sums.
pub(crate) fn radius_schedule(r_lo: f64, r_cap: f64, phases: u32) -> Vec<f64> {
    if phases <= 1 {
        return vec![r_cap];
    }
    let ratio = r_cap / r_lo;
    let mut rungs: Vec<f64> =
        (0..phases).map(|p| r_lo * ratio.powf(f64::from(p) / f64::from(phases - 1))).collect();
    // powf rounding can land the top rung a hair under r_cap; pin it so
    // every facility's radius is covered by the final phase.
    rungs[phases as usize - 1] = r_cap;
    rungs
}

/// The first phase whose threshold covers `radius` (`schedule.len()` when
/// none does — the facility never bids and coverage falls to the demand
/// round).
pub(crate) fn first_phase(radius: f64, schedule: &[f64]) -> u32 {
    schedule.iter().position(|&t| radius <= t).map_or(schedule.len() as u32, |p| p as u32)
}

/// Whether bid `(prio, id)` beats the current best: higher priority wins,
/// ties go to the lower node id. Shared verbatim by the client state
/// machine and the sequential reference so their elections agree bitwise.
pub(crate) fn better_bid(prio: f64, id: NodeId, best: Option<(f64, NodeId)>) -> bool {
    best.is_none_or(|(bp, bid)| prio > bp || (prio == bp && id < bid))
}

/// Builds the node vector for an instance: facilities `0..m`, then clients.
pub fn build_nodes(instance: &Instance, phases: u32) -> Vec<MetricBallNode> {
    let m = instance.num_facilities();
    let r_lo = distfl_instance::spread::positive_floor(instance).value();
    let r_cap = 2.0 * distfl_instance::spread::max_coefficient(instance).value();
    let schedule = radius_schedule(r_lo, r_cap, phases);
    let last_round = crate::theory::metricball_rounds(phases) - 1;
    let demand_round = 3 * phases;
    let mut nodes = Vec::with_capacity(m + instance.num_clients());
    for i in instance.facilities() {
        let phase = first_phase(mp::radius(instance, i), &schedule);
        nodes.push(Node::Facility(FacilityState::new(phase, demand_round, last_round)));
    }
    for j in instance.clients() {
        let links = client_link_table(instance, j);
        nodes.push(Node::Client(ClientState::new(
            links,
            schedule.clone(),
            demand_round,
            last_round,
        )));
    }
    nodes
}

/// Facility state machine.
#[derive(Debug, Clone)]
pub struct FacilityState {
    /// First phase whose radius threshold covers this facility's
    /// Mettu–Plaxton radius.
    first_phase: u32,
    open: bool,
    /// Whether a bid is outstanding (sent last bid round, resolved next
    /// resolve round).
    bidding: bool,
    demand_round: u32,
    last_round: u32,
    done: bool,
}

impl FacilityState {
    fn new(first_phase: u32, demand_round: u32, last_round: u32) -> Self {
        FacilityState {
            first_phase,
            open: false,
            bidding: false,
            demand_round,
            last_round,
            done: false,
        }
    }

    /// Whether the facility declared itself open during the run.
    pub fn is_open(&self) -> bool {
        self.open
    }
}

impl NodeLogic for FacilityState {
    type Msg = MetricBallMsg;

    fn is_done(&self) -> bool {
        self.done
    }

    fn step(&mut self, ctx: &mut StepCtx<'_, MetricBallMsg>) {
        let r = ctx.round();
        if r < self.demand_round {
            match r % 3 {
                0 if !self.open && self.first_phase <= r / 3 => {
                    // Bid round of phase p = r / 3: an unopened facility
                    // whose radius the phase covers draws its priority —
                    // the round's first (and only) RNG draw, which is what
                    // lets the sequential reference re-derive it — and
                    // bids everywhere.
                    let prio = ctx.rng().next_f64();
                    ctx.broadcast(MetricBallMsg::Bid(prio));
                    self.bidding = true;
                }
                2 if self.bidding => {
                    // Resolve round: open iff no linked client denied.
                    let denied = ctx.inbox().iter().any(|(_, m)| matches!(m, MetricBallMsg::Deny));
                    if !denied {
                        self.open = true;
                        ctx.broadcast(MetricBallMsg::Open);
                    }
                    self.bidding = false;
                }
                _ => {}
            }
        } else if r == self.demand_round + 1
            && !self.open
            && ctx.inbox().iter().any(|(_, m)| matches!(m, MetricBallMsg::Demand))
        {
            // Coverage round: a demand forces the facility open.
            self.open = true;
            ctx.broadcast(MetricBallMsg::Open);
        }
        if r >= self.last_round {
            self.done = true;
        }
    }
}

/// Client state machine.
#[derive(Debug, Clone)]
pub struct ClientState {
    /// Linked facilities (node id, connection cost), sorted by node id.
    links: Vec<(NodeId, f64)>,
    /// The phase radius schedule (globally known, see [`radius_schedule`]).
    schedule: Vec<f64>,
    known_open: Vec<bool>,
    /// Cheapest connection cost among facilities known open (`+∞` until
    /// the first `Open` arrives); the near-open blocking rule reads it.
    best_open_cost: f64,
    connected: Option<usize>,
    demand_round: u32,
    last_round: u32,
    done: bool,
}

impl ClientState {
    fn new(
        links: Vec<(NodeId, f64)>,
        schedule: Vec<f64>,
        demand_round: u32,
        last_round: u32,
    ) -> Self {
        let degree = links.len();
        ClientState {
            links,
            schedule,
            known_open: vec![false; degree],
            best_open_cost: f64::INFINITY,
            connected: None,
            demand_round,
            last_round,
            done: false,
        }
    }

    /// The facility this client connected to (`None` before termination).
    pub fn connected_facility(&self) -> Option<FacilityId> {
        self.connected.map(|idx| FacilityId::new(self.links[idx].0.raw()))
    }

    /// Index of the cheapest link (ties to the lowest node id — links are
    /// id-sorted, so the first strict minimum).
    fn cheapest_link(&self) -> usize {
        let mut best = 0;
        for (idx, &(_, c)) in self.links.iter().enumerate().skip(1) {
            if c < self.links[best].1 {
                best = idx;
            }
        }
        best
    }
}

impl NodeLogic for ClientState {
    type Msg = MetricBallMsg;

    fn is_done(&self) -> bool {
        self.done
    }

    fn step(&mut self, ctx: &mut StepCtx<'_, MetricBallMsg>) {
        let r = ctx.round();
        // Open announcements land in rounds ≡ 0 (mod 3); digesting them
        // unconditionally first keeps every later rule phase-agnostic.
        let inbox = ctx.inbox();
        let mut cursor = LinkCursor::default();
        for &(src, msg) in inbox {
            if matches!(msg, MetricBallMsg::Open) {
                let idx = cursor
                    .seek(&self.links, src)
                    .expect("announcements only arrive over existing links");
                if !self.known_open[idx] {
                    self.known_open[idx] = true;
                    self.best_open_cost = self.best_open_cost.min(self.links[idx].1);
                }
            }
        }
        if r < self.demand_round && r % 3 == 1 {
            // Deny round of phase p: block bidders already served by a
            // near-open facility, and elect one winner per ball.
            let radius = self.schedule[(r / 3) as usize];
            let block = 2.0 * radius;
            let mut best: Option<(f64, NodeId)> = None;
            let mut cursor = LinkCursor::default();
            for &(src, msg) in inbox {
                let MetricBallMsg::Bid(prio) = msg else { continue };
                let idx =
                    cursor.seek(&self.links, src).expect("bids only arrive over existing links");
                let c = self.links[idx].1;
                if self.best_open_cost + c <= block || c > radius {
                    continue;
                }
                if better_bid(prio, src, best) {
                    best = Some((prio, src));
                }
            }
            let mut cursor = LinkCursor::default();
            for &(src, msg) in inbox {
                let MetricBallMsg::Bid(_) = msg else { continue };
                let idx =
                    cursor.seek(&self.links, src).expect("bids only arrive over existing links");
                let c = self.links[idx].1;
                let blocked = self.best_open_cost + c <= block;
                let in_ball = c <= radius;
                let elected = best.is_some_and(|(_, id)| id == src);
                if blocked || (in_ball && !elected) {
                    ctx.send(src, MetricBallMsg::Deny).expect("bidders are neighbors");
                }
            }
        } else if r == self.demand_round && !self.best_open_cost.is_finite() {
            // No opened ball reached this client: demand its cheapest link.
            let dst = self.links[self.cheapest_link()].0;
            ctx.send(dst, MetricBallMsg::Demand).expect("links are neighbors");
        } else if r == self.last_round {
            // Connect to the cheapest known-open link (ties to the lowest
            // id — first strict minimum over the id-sorted table).
            let mut best: Option<usize> = None;
            for (idx, &(_, c)) in self.links.iter().enumerate() {
                if self.known_open[idx] && best.is_none_or(|b| c < self.links[b].1) {
                    best = Some(idx);
                }
            }
            self.connected = best;
        }
        if r >= self.last_round {
            self.done = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_sizes_respect_congest() {
        assert!(MetricBallMsg::Bid(0.5).size_bits() <= MAX_MESSAGE_BITS);
        assert_eq!(MetricBallMsg::Deny.size_bits(), 8);
        assert_eq!(MetricBallMsg::Open.size_bits(), 8);
        assert_eq!(MetricBallMsg::Demand.size_bits(), 8);
    }

    #[test]
    fn wire_encoding_fits_the_declared_budget_and_is_distinct() {
        let msgs = [
            MetricBallMsg::Bid(0.25),
            MetricBallMsg::Deny,
            MetricBallMsg::Open,
            MetricBallMsg::Demand,
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
        assert_eq!(encodings.iter().collect::<std::collections::HashSet<_>>().len(), 4);
        let enc = MetricBallMsg::Bid(0.75).encode();
        assert_eq!(f64::from_be_bytes(enc[1..9].try_into().unwrap()), 0.75);
    }

    #[test]
    fn radius_schedule_spans_floor_to_cap() {
        let s = radius_schedule(1.0, 64.0, 4);
        assert_eq!(s.len(), 4);
        assert_eq!(s[0], 1.0);
        assert_eq!(s[3], 64.0);
        assert!(s.windows(2).all(|w| w[0] < w[1]), "schedule not increasing: {s:?}");
        assert_eq!(radius_schedule(1.0, 64.0, 1), vec![64.0]);
    }

    #[test]
    fn first_phase_covers_edge_radii() {
        let s = radius_schedule(1.0, 64.0, 4);
        assert_eq!(first_phase(0.0, &s), 0);
        assert_eq!(first_phase(1.0, &s), 0);
        assert_eq!(first_phase(1.5, &s), 1);
        assert_eq!(first_phase(64.0, &s), 3);
        assert_eq!(first_phase(65.0, &s), 4, "uncovered radius defers to the demand round");
    }

    #[test]
    fn better_bid_orders_by_priority_then_id() {
        let a = NodeId::new(1);
        let b = NodeId::new(2);
        assert!(better_bid(0.5, a, None));
        assert!(better_bid(0.9, b, Some((0.5, a))));
        assert!(!better_bid(0.1, b, Some((0.5, a))));
        assert!(better_bid(0.5, a, Some((0.5, b))), "ties go to the lower id");
        assert!(!better_bid(0.5, b, Some((0.5, a))));
    }

    #[test]
    fn build_nodes_shapes() {
        use distfl_instance::generators::{InstanceGenerator, UniformRandom};
        let inst = UniformRandom::new(3, 5).unwrap().generate(0).unwrap();
        let nodes = build_nodes(&inst, 4);
        assert_eq!(nodes.len(), 8);
        assert!(matches!(nodes[0], MetricBallNode::Facility(_)));
        assert!(matches!(nodes[2], MetricBallNode::Facility(_)));
        assert!(matches!(nodes[3], MetricBallNode::Client(_)));
        assert!(matches!(nodes[7], MetricBallNode::Client(_)));
    }
}
