//! Node state machines for PayDual.

use distfl_congest::{NodeId, NodeLogic, Payload, StepCtx};
use distfl_instance::{FacilityId, Instance};

use super::ConnectRule;
use crate::model::{client_link_table, facility_link_table, LinkCursor, Node};

/// Upper bound on any PayDual message, in bits: one tag byte plus one
/// 64-bit scalar. The CONGEST discipline check in the tests uses this.
pub const MAX_MESSAGE_BITS: u64 = 72;

/// Messages of the PayDual protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PayDualMsg {
    /// Facility → clients, round 0: the opening cost.
    AnnounceOpening(f64),
    /// Client → facility, offer rounds: the current dual value.
    Offer(f64),
    /// Facility → clients, open rounds: "I am open".
    Open,
    /// Client → facility, connect rounds: "I connect to you", carrying the
    /// dual value whose slack freezes into the facility's payment.
    Connect(f64),
}

impl Payload for PayDualMsg {
    fn size_bits(&self) -> u64 {
        match self {
            PayDualMsg::Open => 8,
            _ => MAX_MESSAGE_BITS,
        }
    }

    /// Canonical wire encoding: one tag byte plus the big-endian scalar —
    /// exactly the [`PayDualMsg::size_bits`] budget. Used by the
    /// wire-format tests to keep the declared sizes honest.
    fn encode(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(9);
        match self {
            PayDualMsg::AnnounceOpening(v) => {
                b.push(0);
                b.extend_from_slice(&v.to_be_bytes());
            }
            PayDualMsg::Offer(v) => {
                b.push(1);
                b.extend_from_slice(&v.to_be_bytes());
            }
            PayDualMsg::Open => b.push(2),
            PayDualMsg::Connect(v) => {
                b.push(3);
                b.extend_from_slice(&v.to_be_bytes());
            }
        }
        b
    }
}

/// One PayDual node: either a facility or a client state machine.
pub type PayDualNode = Node<FacilityState, ClientState>;

/// Builds the node vector for an instance: facilities `0..m`, then clients.
pub fn build_nodes(
    instance: &Instance,
    phases: u32,
    connect_rule: ConnectRule,
) -> Vec<PayDualNode> {
    let m = instance.num_facilities();
    let last_round = crate::theory::paydual_rounds(phases) - 1;
    let mut nodes = Vec::with_capacity(m + instance.num_clients());
    for i in instance.facilities() {
        let links = facility_link_table(instance, i);
        let opening = instance.opening_cost(i).value();
        nodes.push(Node::Facility(FacilityState::new(opening, links, last_round)));
    }
    let size_bound = (m + instance.num_clients()) as f64;
    for j in instance.clients() {
        let links = client_link_table(instance, j);
        nodes.push(Node::Client(ClientState::new(
            links,
            phases,
            size_bound,
            last_round,
            connect_rule,
        )));
    }
    nodes
}

/// Facility state machine.
#[derive(Debug, Clone)]
pub struct FacilityState {
    opening: f64,
    /// Linked clients (node id, connection cost), sorted by node id.
    links: Vec<(NodeId, f64)>,
    open: bool,
    /// Frozen contributions of connected clients.
    frozen: f64,
    connected: Vec<NodeId>,
    last_round: u32,
    done: bool,
}

impl FacilityState {
    fn new(opening: f64, links: Vec<(NodeId, f64)>, last_round: u32) -> Self {
        FacilityState {
            opening,
            links,
            open: false,
            frozen: 0.0,
            connected: Vec::new(),
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
    type Msg = PayDualMsg;

    fn is_done(&self) -> bool {
        self.done
    }

    fn step(&mut self, ctx: &mut StepCtx<'_, PayDualMsg>) {
        let r = ctx.round();
        if r == 0 {
            ctx.broadcast(PayDualMsg::AnnounceOpening(self.opening));
        } else if r % 3 == 2 {
            // Open round: tally offers, open if fully paid, announce.
            let mut pay = self.frozen;
            let mut cursor = LinkCursor::default();
            for &(src, msg) in ctx.inbox() {
                if let PayDualMsg::Offer(alpha) = msg {
                    let idx = cursor
                        .seek(&self.links, src)
                        .expect("offers only arrive over existing links");
                    pay += (alpha - self.links[idx].1).max(0.0);
                }
            }
            if pay >= self.opening {
                self.open = true;
            }
            if self.open {
                ctx.broadcast(PayDualMsg::Open);
            }
        } else if r % 3 == 1 && r > 1 {
            // Harvest round: record connections, freeze contributions.
            let mut cursor = LinkCursor::default();
            for &(src, msg) in ctx.inbox() {
                if let PayDualMsg::Connect(alpha) = msg {
                    let idx = cursor
                        .seek(&self.links, src)
                        .expect("connections only arrive over existing links");
                    self.frozen += (alpha - self.links[idx].1).max(0.0);
                    self.connected.push(src);
                }
            }
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
    phases: u32,
    size_bound: f64,
    alpha: f64,
    gamma: f64,
    cap: f64,
    known_open: Vec<bool>,
    connected: Option<usize>,
    /// Link index of the cheapest `(c + f)` bundle, used as the local
    /// recovery target when fault injection suppresses the normal
    /// connection path.
    fallback: Option<usize>,
    connect_rule: ConnectRule,
    last_round: u32,
    done: bool,
}

impl ClientState {
    fn new(
        links: Vec<(NodeId, f64)>,
        phases: u32,
        size_bound: f64,
        last_round: u32,
        connect_rule: ConnectRule,
    ) -> Self {
        let degree = links.len();
        ClientState {
            links,
            phases,
            size_bound,
            alpha: 0.0,
            gamma: 1.0,
            cap: 0.0,
            known_open: vec![false; degree],
            connected: None,
            fallback: None,
            connect_rule,
            last_round,
            done: false,
        }
    }

    /// The facility this client connected to (`None` before termination).
    pub fn connected_facility(&self) -> Option<FacilityId> {
        self.connected.map(|idx| FacilityId::new(self.links[idx].0.raw()))
    }

    /// The client's cheapest-bundle facility, the local recovery target
    /// when lossy links (fault injection) prevented a normal connection.
    pub fn fallback_facility(&self) -> Option<FacilityId> {
        self.fallback.map(|idx| FacilityId::new(self.links[idx].0.raw()))
    }

    /// The client's final dual value.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Initializes `α`, `γ`, the cap, and the fallback target from the
    /// announced opening costs. Tolerates missing announcements (possible
    /// only under fault injection) by treating the affected facilities as
    /// unknown.
    fn initialize(&mut self, ctx: &StepCtx<'_, PayDualMsg>) {
        let mut target = f64::INFINITY;
        let min_c = self.links.iter().map(|&(_, c)| c).fold(f64::INFINITY, f64::min);
        let mut cursor = LinkCursor::default();
        for &(src, msg) in ctx.inbox() {
            let PayDualMsg::AnnounceOpening(f) = msg else {
                continue;
            };
            let Some(idx) = cursor.seek(&self.links, src) else {
                continue;
            };
            let bundle = self.links[idx].1 + f;
            if bundle < target {
                target = bundle;
                self.fallback = Some(idx);
            }
        }
        if !target.is_finite() {
            // Every announcement was lost (fault injection): stay at the
            // cheapest link and let the fallback extraction recover.
            self.fallback = Some(
                self.links
                    .iter()
                    .enumerate()
                    .min_by(|(_, (_, a)), (_, (_, b))| a.total_cmp(b))
                    .map(|(idx, _)| idx)
                    .expect("instance invariant: every client has a link"),
            );
            self.alpha = min_c;
            self.gamma = 1.0;
            self.cap = min_c;
            return;
        }
        if target <= 0.0 {
            // A free facility at a free link: connect at dual zero.
            self.alpha = 0.0;
            self.gamma = 1.0;
            self.cap = 0.0;
            return;
        }
        // Start at the cheapest connection cost; when that is zero, start a
        // 1/N fraction below the self-pay target so cooperative payment of
        // cheap facilities is still possible.
        let start = if min_c > 0.0 { min_c } else { target / self.size_bound.max(2.0) };
        self.alpha = start;
        self.cap = 2.0 * target;
        self.gamma = (self.cap / start).powf(1.0 / f64::from(self.phases));
    }

    /// Scans for the best eligible open facility under the configured
    /// connect rule (ties to the lowest id).
    fn best_open(&self) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (idx, &(_, c)) in self.links.iter().enumerate() {
            if self.known_open[idx] && self.alpha >= c {
                let score = match self.connect_rule {
                    ConnectRule::MaxSlack => self.alpha - c,
                    ConnectRule::CheapestEligible => -c,
                };
                if best.is_none_or(|(_, s)| score > s) {
                    best = Some((idx, score));
                }
            }
        }
        best.map(|(idx, _)| idx)
    }
}

impl NodeLogic for ClientState {
    type Msg = PayDualMsg;

    fn is_done(&self) -> bool {
        self.done
    }

    fn step(&mut self, ctx: &mut StepCtx<'_, PayDualMsg>) {
        let r = ctx.round();
        if r == 0 {
            return;
        }
        if r == 1 {
            self.initialize(ctx);
            ctx.broadcast(PayDualMsg::Offer(self.alpha));
            return;
        }
        match r % 3 {
            0 => {
                // Connect round: digest OPEN announcements, then connect or
                // raise.
                let mut cursor = LinkCursor::default();
                for &(src, msg) in ctx.inbox() {
                    if matches!(msg, PayDualMsg::Open) {
                        let idx = cursor
                            .seek(&self.links, src)
                            .expect("announcements only arrive over existing links");
                        self.known_open[idx] = true;
                    }
                }
                if let Some(idx) = self.best_open() {
                    let dst = self.links[idx].0;
                    ctx.send(dst, PayDualMsg::Connect(self.alpha))
                        .expect("connect targets are neighbors");
                    self.connected = Some(idx);
                    self.done = true;
                } else {
                    self.alpha = (self.alpha * self.gamma).min(self.cap);
                }
            }
            1 => {
                // Offer round (still active).
                ctx.broadcast(PayDualMsg::Offer(self.alpha));
            }
            _ => {}
        }
        if r >= self.last_round {
            // In the fault-free model `connected` is always set here (the
            // termination guarantee); under fault injection the harvest
            // falls back to `fallback_facility`.
            self.done = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_sizes_respect_congest() {
        assert!(PayDualMsg::AnnounceOpening(1.0).size_bits() <= MAX_MESSAGE_BITS);
        assert!(PayDualMsg::Offer(1.0).size_bits() <= MAX_MESSAGE_BITS);
        assert!(PayDualMsg::Open.size_bits() <= MAX_MESSAGE_BITS);
        assert!(PayDualMsg::Connect(1.0).size_bits() <= MAX_MESSAGE_BITS);
    }

    #[test]
    fn wire_encoding_fits_the_declared_budget_and_is_distinct() {
        let msgs = [
            PayDualMsg::AnnounceOpening(1.5),
            PayDualMsg::Offer(1.5),
            PayDualMsg::Open,
            PayDualMsg::Connect(1.5),
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
        // Same payload value, different tags: encodings must differ.
        assert_eq!(encodings.iter().collect::<std::collections::HashSet<_>>().len(), 4);
        // Value round-trips through the big-endian bytes.
        let enc = PayDualMsg::Offer(42.25).encode();
        assert_eq!(f64::from_be_bytes(enc[1..9].try_into().unwrap()), 42.25);
    }

    #[test]
    fn build_nodes_shapes() {
        use distfl_instance::generators::{InstanceGenerator, UniformRandom};
        let inst = UniformRandom::new(3, 5).unwrap().generate(0).unwrap();
        let nodes = build_nodes(&inst, 4, ConnectRule::default());
        assert_eq!(nodes.len(), 8);
        assert!(matches!(nodes[0], PayDualNode::Facility(_)));
        assert!(matches!(nodes[2], PayDualNode::Facility(_)));
        assert!(matches!(nodes[3], PayDualNode::Client(_)));
        assert!(matches!(nodes[7], PayDualNode::Client(_)));
    }
}
