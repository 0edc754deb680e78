//! **DistRound** — distributed randomized rounding in the CONGEST model.
//!
//! Consumes a fractional opening vector (each facility knows its own `y_i`,
//! each client knows its own fractional support — purely local data) and
//! produces a feasible integral solution:
//!
//! * **Trials** (`T` of them, 2 rounds each): facility `i` opens with
//!   probability `min(1, λ·y_i)` — independently per trial, sticky once
//!   open — and announces `OPEN`; an unserved client connects to the
//!   cheapest announced facility in its fractional support.
//! * **Fallback** (2 rounds): a client still unserved after all trials
//!   forces open its cheapest `(c_ij + f_i)` bundle, so the output is
//!   feasible with probability 1.
//!
//! With `λ·T = Θ(log(n+m))` every client is served in the randomized
//! trials w.h.p. and the expected cost is `O(log(n+m))` times the
//! fractional objective — the `log(m+n)` factor of the paper's bound.
//! Experiment E5 sweeps `T` to trace the success/cost trade-off, and
//! cross-validates against the sequential oracle
//! [`distfl_lp::rounding::round`].
//!
//! Rounds: `2T + 5`, independent of the input size.

use distfl_congest::{CongestConfig, NodeId, NodeLogic, Payload, StepCtx};
use distfl_instance::{FacilityId, Instance, Solution};
use distfl_lp::FractionalSolution;

use crate::error::CoreError;
use crate::model::{client_node, execute, facility_node, node_role, topology_of, Executor, Role};

/// Parameters for [`distributed_round`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistRoundParams {
    /// Per-trial opening boost `λ`.
    pub boost: f64,
    /// Number of randomized trials `T`.
    pub trials: u32,
    /// Worker threads for the simulator.
    pub threads: Option<usize>,
    /// Optional deterministic message-drop plan (the output stays feasible
    /// because the fallback is a local decision).
    pub fault: Option<distfl_congest::FaultPlan>,
}

impl DistRoundParams {
    /// The standard configuration: `λ = 2`, `T = ⌈log₂(n+m)⌉ + 2`,
    /// computed safely for degenerate totals by
    /// [`distfl_lp::rounding::standard_trials`].
    pub fn for_instance(instance: &Instance) -> Self {
        DistRoundParams {
            boost: 2.0,
            trials: distfl_lp::rounding::standard_trials(
                instance.num_clients() + instance.num_facilities(),
            ),
            threads: None,
            fault: None,
        }
    }
}

/// Total CONGEST rounds for the given trial count.
pub fn rounding_rounds(trials: u32) -> u32 {
    2 * trials + 5
}

/// Messages of the rounding protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
enum RoundMsg {
    /// Facility → clients, round 0: opening cost (for the fallback).
    Announce(f64),
    /// Facility → clients: "I am open".
    Open,
    /// Client → facility: connection.
    Connect,
    /// Client → facility: forced opening (fallback).
    Force,
}

impl Payload for RoundMsg {
    fn size_bits(&self) -> u64 {
        match self {
            RoundMsg::Announce(_) => 72,
            _ => 8,
        }
    }

    /// Canonical wire encoding: one tag byte, plus the big-endian opening
    /// cost for `Announce` — exactly the [`RoundMsg::size_bits`] budget.
    /// Used by the wire-format test to keep the declared sizes honest.
    fn encode(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(9);
        match self {
            RoundMsg::Announce(v) => {
                b.push(0);
                b.extend_from_slice(&v.to_be_bytes());
            }
            RoundMsg::Open => b.push(1),
            RoundMsg::Connect => b.push(2),
            RoundMsg::Force => b.push(3),
        }
        b
    }
}

#[derive(Debug, Clone)]
enum RoundNode {
    Facility(FacilityState),
    Client(ClientState),
}

#[derive(Debug, Clone)]
struct FacilityState {
    y: f64,
    /// The true opening cost, announced for the clients' fallback choice.
    y_opening_cost: f64,
    boost: f64,
    trials: u32,
    open: bool,
    used: bool,
    last_round: u32,
    done: bool,
}

#[derive(Debug, Clone)]
struct ClientState {
    /// All links `(facility node, cost)`, sorted by node id.
    links: Vec<(NodeId, f64)>,
    /// Whether each link is in the fractional support (aligned).
    in_support: Vec<bool>,
    opening: Vec<f64>,
    trials: u32,
    known_open: Vec<bool>,
    assigned: Option<usize>,
    served_in_trial: Option<u32>,
    last_round: u32,
    done: bool,
}

impl NodeLogic for RoundNode {
    type Msg = RoundMsg;

    fn step(&mut self, ctx: &mut StepCtx<'_, RoundMsg>) {
        match self {
            RoundNode::Facility(f) => f.step(ctx),
            RoundNode::Client(c) => c.step(ctx),
        }
    }

    fn is_done(&self) -> bool {
        match self {
            RoundNode::Facility(f) => f.done,
            RoundNode::Client(c) => c.done,
        }
    }
}

impl FacilityState {
    fn step(&mut self, ctx: &mut StepCtx<'_, RoundMsg>) {
        let r = ctx.round();
        if r == 0 {
            ctx.broadcast(RoundMsg::Announce(self.y_opening_cost));
        } else if r % 2 == 1 && (r - 1) / 2 < self.trials {
            // Trial round: flip the coin, announce if open.
            if !self.open && ctx.rng().bernoulli((self.boost * self.y).min(1.0)) {
                self.open = true;
            }
            if self.open {
                ctx.broadcast(RoundMsg::Open);
            }
        } else if r % 2 == 0 && r >= 2 {
            // Harvest: record connections and forced openings.
            for &(_, msg) in ctx.inbox() {
                match msg {
                    RoundMsg::Connect => self.used = true,
                    RoundMsg::Force => {
                        self.open = true;
                        self.used = true;
                    }
                    _ => {}
                }
            }
        }
        if r >= self.last_round {
            self.done = true;
        }
    }
}

impl ClientState {
    fn step(&mut self, ctx: &mut StepCtx<'_, RoundMsg>) {
        let r = ctx.round();
        if r == 0 {
            return;
        }
        if r == 1 {
            // Record announcements by sender; drops (fault injection) leave
            // the slot at infinity so the fallback avoids that facility
            // unless nothing else is known.
            self.opening = vec![f64::INFINITY; self.links.len()];
            for &(src, msg) in ctx.inbox() {
                if let RoundMsg::Announce(f) = msg {
                    if let Ok(idx) = self.links.binary_search_by_key(&src, |(id, _)| *id) {
                        self.opening[idx] = f;
                    }
                }
            }
            // Round 1 is also the first trial round for facilities; the
            // client reacts starting round 2.
            return;
        }
        let fallback_round = 2 * self.trials + 3;
        if r % 2 == 0 && r < fallback_round {
            // React to trial announcements.
            for &(src, msg) in ctx.inbox() {
                if matches!(msg, RoundMsg::Open) {
                    let idx = self
                        .links
                        .binary_search_by_key(&src, |(id, _)| *id)
                        .expect("announcements only arrive over existing links");
                    self.known_open[idx] = true;
                }
            }
            if self.assigned.is_none() {
                let best = self
                    .links
                    .iter()
                    .enumerate()
                    .filter(|(idx, _)| self.in_support[*idx] && self.known_open[*idx])
                    .min_by(|(ia, (_, ca)), (ib, (_, cb))| ca.total_cmp(cb).then(ia.cmp(ib)))
                    .map(|(idx, _)| idx);
                if let Some(idx) = best {
                    self.assigned = Some(idx);
                    self.served_in_trial = Some((r - 2) / 2);
                    ctx.send(self.links[idx].0, RoundMsg::Connect)
                        .expect("connection targets are neighbors");
                    self.done = true;
                }
            }
        } else if r == fallback_round && self.assigned.is_none() {
            let (idx, _) = self
                .links
                .iter()
                .enumerate()
                .map(|(idx, &(_, c))| {
                    let f = self.opening[idx];
                    (idx, if f.is_finite() { c + f } else { f64::MAX })
                })
                .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
                .expect("instance invariant: every client has a link");
            self.assigned = Some(idx);
            ctx.send(self.links[idx].0, RoundMsg::Force).expect("fallback target is a neighbor");
            self.done = true;
        }
        if r >= self.last_round {
            self.done = true;
        }
    }
}

/// Diagnostics of a distributed rounding run.
#[derive(Debug, Clone, PartialEq)]
pub struct DistRoundOutcome {
    /// The feasible integral solution.
    pub solution: Solution,
    /// CONGEST statistics.
    pub transcript: distfl_congest::Transcript,
    /// Clients served by the deterministic fallback.
    pub fallback_clients: usize,
    /// Trial index (0-based) at which each randomized-served client
    /// connected.
    pub served_in_trial: Vec<Option<u32>>,
}

/// Rounds `fractional` into an integral solution over the instance's
/// CONGEST network.
///
/// # Errors
///
/// Returns a [`CoreError`] for invalid parameters or a fractional point
/// whose shape does not match the instance.
pub fn distributed_round(
    instance: &Instance,
    fractional: &FractionalSolution,
    params: DistRoundParams,
    seed: u64,
) -> Result<DistRoundOutcome, CoreError> {
    let _span = distfl_obs::span_arg("solver", "distround", u64::from(params.trials));
    if !(params.boost.is_finite() && params.boost > 0.0) {
        return Err(CoreError::InvalidParams {
            reason: format!("boost must be positive, got {}", params.boost),
        });
    }
    if fractional.y().len() != instance.num_facilities() {
        return Err(CoreError::InvalidParams {
            reason: "fractional solution shape does not match instance".into(),
        });
    }
    let m = instance.num_facilities();
    let last_round = rounding_rounds(params.trials) - 1;
    let mut nodes = Vec::with_capacity(m + instance.num_clients());
    for i in instance.facilities() {
        nodes.push(RoundNode::Facility(FacilityState {
            y: fractional.y()[i.index()],
            y_opening_cost: instance.opening_cost(i).value(),
            boost: params.boost,
            trials: params.trials,
            open: false,
            used: false,
            last_round,
            done: false,
        }));
    }
    for j in instance.clients() {
        let links: Vec<(NodeId, f64)> = instance
            .client_links(j)
            .iter()
            .map(|(i, c)| (facility_node(FacilityId::new(i)), c))
            .collect();
        let in_support: Vec<bool> = instance
            .client_links(j)
            .iter()
            .map(|(i, _)| fractional.x(j).iter().any(|&(fi, v)| fi.raw() == i && v > 0.0))
            .collect();
        nodes.push(RoundNode::Client(ClientState {
            known_open: vec![false; links.len()],
            opening: Vec::with_capacity(links.len()),
            links,
            in_support,
            trials: params.trials,
            assigned: None,
            served_in_trial: None,
            last_round,
            done: false,
        }));
    }
    let config =
        CongestConfig { threads: params.threads, fault: params.fault, ..CongestConfig::default() };
    let executor = Executor::LockStep(config);
    let rounds = rounding_rounds(params.trials);
    let run = execute(topology_of(instance)?, nodes, seed, executor, rounds, |nodes| {
        let mut assignment = vec![FacilityId::new(0); instance.num_clients()];
        let mut served_in_trial = vec![None; instance.num_clients()];
        let mut fallback = 0;
        for (index, node) in nodes.iter().enumerate() {
            if let (Role::Client(j), RoundNode::Client(c)) =
                (node_role(m, NodeId::new(index as u32)), node)
            {
                let idx = c.assigned.expect("fallback guarantees assignment");
                assignment[j.index()] = FacilityId::new(c.links[idx].0.raw());
                served_in_trial[j.index()] = c.served_in_trial;
                if c.served_in_trial.is_none() {
                    fallback += 1;
                }
            }
        }
        let solution = Solution::from_assignment(instance, assignment)?;
        Ok((solution, fallback, served_in_trial))
    })?;
    let (solution, fallback_clients, served_in_trial) = run.harvest;
    let _ = client_node(m, distfl_instance::ClientId::new(0));
    Ok(DistRoundOutcome { solution, transcript: run.transcript, fallback_clients, served_in_trial })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fraclp::spread_fractional;
    use distfl_instance::generators::{GridNetwork, InstanceGenerator, UniformRandom};

    #[test]
    fn output_is_always_feasible() {
        for seed in 0..8 {
            let inst = UniformRandom::new(6, 20).unwrap().generate(seed).unwrap();
            let frac = spread_fractional(&inst, 3);
            let out = distributed_round(&inst, &frac, DistRoundParams::for_instance(&inst), seed)
                .unwrap();
            out.solution.check_feasible(&inst).unwrap();
        }
    }

    #[test]
    fn round_count_matches_formula() {
        let inst = UniformRandom::new(5, 15).unwrap().generate(1).unwrap();
        let frac = spread_fractional(&inst, 2);
        let params = DistRoundParams { boost: 2.0, trials: 4, threads: None, fault: None };
        let out = distributed_round(&inst, &frac, params, 3).unwrap();
        assert_eq!(out.transcript.num_rounds(), rounding_rounds(4));
    }

    #[test]
    fn zero_trials_serves_everyone_by_fallback() {
        let inst = UniformRandom::new(5, 12).unwrap().generate(2).unwrap();
        let frac = spread_fractional(&inst, 2);
        let params = DistRoundParams { boost: 2.0, trials: 0, threads: None, fault: None };
        let out = distributed_round(&inst, &frac, params, 1).unwrap();
        assert_eq!(out.fallback_clients, 12);
        out.solution.check_feasible(&inst).unwrap();
    }

    #[test]
    fn enough_trials_rarely_fall_back() {
        let inst = UniformRandom::new(6, 30).unwrap().generate(3).unwrap();
        let frac = spread_fractional(&inst, 3);
        let params = DistRoundParams { boost: 3.0, trials: 25, threads: None, fault: None };
        let out = distributed_round(&inst, &frac, params, 5).unwrap();
        assert_eq!(out.fallback_clients, 0);
        // Most clients served in the first few trials.
        let early = out.served_in_trial.iter().filter(|t| t.is_some_and(|v| v < 5)).count();
        assert!(early >= 25, "only {early}/30 served early");
    }

    #[test]
    fn wire_encoding_fits_the_declared_budget_and_is_distinct() {
        let msgs = [RoundMsg::Announce(1.5), RoundMsg::Open, RoundMsg::Connect, RoundMsg::Force];
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
        // Four variants: encodings must be pairwise distinct.
        assert_eq!(encodings.iter().collect::<std::collections::HashSet<_>>().len(), 4);
        // The announced cost round-trips through the big-endian bytes.
        let enc = RoundMsg::Announce(42.25).encode();
        assert_eq!(f64::from_be_bytes(enc[1..9].try_into().unwrap()), 42.25);
    }

    #[test]
    fn congest_discipline_holds() {
        let inst = GridNetwork::new(8, 8, 5, 20).unwrap().generate(4).unwrap();
        let frac = spread_fractional(&inst, 2);
        let out = distributed_round(&inst, &frac, DistRoundParams::for_instance(&inst), 2).unwrap();
        assert!(out.transcript.congest_compliant(72));
    }

    #[test]
    fn deterministic_per_seed() {
        let inst = UniformRandom::new(6, 18).unwrap().generate(5).unwrap();
        let frac = spread_fractional(&inst, 3);
        let params = DistRoundParams::for_instance(&inst);
        let a = distributed_round(&inst, &frac, params, 9).unwrap();
        let b = distributed_round(&inst, &frac, params, 9).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn standard_trials_always_cover_the_smallest_instances() {
        // Regression for the float-cast collapse on tiny totals: the
        // smallest legal instance (1 facility, 1 client) must get at least
        // as many trials as the degenerate-helper floor, and growing the
        // instance never shrinks the budget.
        let tiny = inst_1x1();
        let p = DistRoundParams::for_instance(&tiny);
        assert_eq!(p.trials, 3);
        assert!(p.trials >= distfl_lp::rounding::standard_trials(0));
        let bigger = UniformRandom::new(6, 20).unwrap().generate(0).unwrap();
        assert!(DistRoundParams::for_instance(&bigger).trials >= p.trials);
    }

    fn inst_1x1() -> Instance {
        let mut b = distfl_instance::InstanceBuilder::new();
        let f = b.add_facility(distfl_instance::Cost::new(2.0).unwrap());
        let c = b.add_client();
        b.link(c, f, distfl_instance::Cost::new(1.0).unwrap()).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn rejects_bad_parameters() {
        let inst = UniformRandom::new(3, 6).unwrap().generate(0).unwrap();
        let frac = spread_fractional(&inst, 2);
        let bad = DistRoundParams { boost: 0.0, trials: 3, threads: None, fault: None };
        assert!(distributed_round(&inst, &frac, bad, 0).is_err());
        let mismatched = FractionalSolution::new(vec![1.0], vec![]);
        let params = DistRoundParams::for_instance(&inst);
        assert!(distributed_round(&inst, &mismatched, params, 0).is_err());
    }
}
