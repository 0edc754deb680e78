//! **GreedyBucket** — bucketed parallel greedy with the paper's two-level
//! phase structure.
//!
//! The sequential greedy picks stars in increasing ratio order; its
//! selection *times* span the multiplicative range `[lo, hi]` of possible
//! star ratios. GreedyBucket compresses that continuum into
//! `s_out` geometric *ratio buckets* (outer phases) of width
//! `Γ = (2·hi/lo)^{1/(s_out−1)}` each, and within a bucket runs `s_in`
//! randomized *inner iterations*: every facility whose current best star
//! ratio is under the bucket threshold proposes its star with probability
//! ½ (symmetry breaking à la Luby, so simultaneously-proposing facilities
//! don't silently double-serve), clients accept the lowest-id proposal and
//! announce their departure to all other facilities. This is the
//! `√k (outer) × √k (inner)` nesting behind the paper's
//! `O(√k·(mρ)^{1/√k}·log(m+n))` bound: coarser buckets (small `s_out`)
//! cost the `Γ` factor, too few inner iterations leave stars unpicked
//! inside a bucket (experiment E7 ablates both knobs).
//!
//! A facility prices its best star with the sequential greedy's own scan,
//! [`crate::greedy`]'s `star_scan`, over its links sorted by cost once when
//! the node is built, so a proposal's ratio is exactly the one the greedy
//! would price on the same unserved set. The threshold grid is anchored at
//! the least star ratio with nothing served, the same scan.
//!
//! A deterministic two-round fallback after the last bucket force-opens
//! the cheapest `(c_ij + f_i)` bundle of any still-unserved client, so the
//! output is always feasible. Thresholds are per-facility geometric grids
//! computed from local information only, preserving the paper's assumption
//! that nodes know nothing global.
//!
//! Rounds: `2·s_out·s_in + 5`, independent of the input size.

use distfl_congest::{CongestConfig, NodeId, NodeLogic, Payload, StepCtx};
use distfl_instance::{FacilityId, Instance, Solution};
use distfl_lp::DualSolution;

use crate::error::CoreError;
use crate::greedy::{star_row, star_scan};
use crate::model::{
    client_link_table, clients, execute, facility_link_table, topology_of, Announced, Executor,
    LinkCursor, Node,
};
use crate::runner::{FlAlgorithm, Outcome};
use crate::theory::harmonic;

/// Tuning parameters for [`GreedyBucket`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BucketParams {
    /// Outer phases `s_out ≥ 1`: number of geometric ratio buckets.
    pub outer: u32,
    /// Inner iterations `s_in ≥ 1` per bucket.
    pub inner: u32,
    /// Optional deterministic message-drop plan (the output stays feasible
    /// because the fallback is a local decision).
    pub fault: Option<distfl_congest::FaultPlan>,
}

impl BucketParams {
    /// Parameters with the given nesting and no fault plan.
    pub fn new(outer: u32, inner: u32) -> Self {
        BucketParams { outer, inner, fault: None }
    }
}

impl Default for BucketParams {
    /// `6 × 4` — a mid-range point of the trade-off.
    fn default() -> Self {
        BucketParams::new(6, 4)
    }
}

/// Total CONGEST rounds GreedyBucket uses for the given parameters.
pub fn bucket_rounds(params: BucketParams) -> u32 {
    2 * params.outer * params.inner + 5
}

/// Messages of the GreedyBucket protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BucketMsg {
    /// Facility → clients, round 0: opening cost (for the fallback).
    Announce(f64),
    /// Facility → star clients: proposal to serve, carrying the star
    /// ratio (the dual certificate).
    Serve(f64),
    /// Client → chosen facility: acceptance.
    Accept,
    /// Client → other facilities: "I am served elsewhere".
    Served,
    /// Client → facility, fallback: "open for me".
    Force,
}

impl Payload for BucketMsg {
    fn size_bits(&self) -> u64 {
        match self {
            BucketMsg::Announce(_) | BucketMsg::Serve(_) => 72,
            _ => 8,
        }
    }

    /// Canonical wire encoding: one tag byte, plus the big-endian scalar
    /// for the variants that carry one — exactly the
    /// [`BucketMsg::size_bits`] budget. Used by the wire-format test to
    /// keep the declared sizes honest.
    fn encode(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(9);
        match self {
            BucketMsg::Announce(v) => {
                b.push(0);
                b.extend_from_slice(&v.to_be_bytes());
            }
            BucketMsg::Serve(v) => {
                b.push(1);
                b.extend_from_slice(&v.to_be_bytes());
            }
            BucketMsg::Accept => b.push(2),
            BucketMsg::Served => b.push(3),
            BucketMsg::Force => b.push(4),
        }
        b
    }
}

/// One GreedyBucket node.
pub type BucketNode = Node<FacilityState, ClientState>;

/// Facility state machine.
#[derive(Debug, Clone)]
pub struct FacilityState {
    opening: f64,
    links: Vec<(NodeId, f64)>,
    /// The links' positions sorted by `(cost, position)` and their costs,
    /// sorted once at build time: the row [`star_scan`] prices.
    star_row: (Vec<u32>, Vec<f64>),
    outer: u32,
    inner: u32,
    /// Endpoints of the shared threshold grid (common knowledge of the
    /// instance's coefficient range, the paper's `rho` assumption).
    grid_lo: f64,
    grid_hi: f64,
    /// Whether the opening cost has been spent (an Accept or Force
    /// arrived).
    open: bool,
    served: Vec<bool>, // aligned with links
    last_round: u32,
    done: bool,
}

impl FacilityState {
    /// Threshold of outer phase `t`: a geometric grid over the *shared*
    /// ratio range, so phase `t` admits only facilities whose current best
    /// star is globally competitive — the distributed analogue of the
    /// greedy's selection order.
    fn threshold(&self, t: u32) -> f64 {
        if self.outer <= 1 || self.grid_lo <= 0.0 {
            return self.grid_hi;
        }
        let gamma = (self.grid_hi / self.grid_lo).max(1.0).powf(1.0 / f64::from(self.outer - 1));
        (self.grid_lo * gamma.powi(t as i32)).min(self.grid_hi)
    }
}

impl NodeLogic for FacilityState {
    type Msg = BucketMsg;

    fn is_done(&self) -> bool {
        self.done
    }

    fn step(&mut self, ctx: &mut StepCtx<'_, BucketMsg>) {
        let r = ctx.round();
        if r == 0 {
            ctx.broadcast(BucketMsg::Announce(self.opening));
        } else if r >= 2 && r % 2 == 0 {
            // Process responses from the previous respond round.
            let mut cursor = LinkCursor::default();
            for &(src, msg) in ctx.inbox() {
                let idx = cursor
                    .seek(&self.links, src)
                    .expect("responses only arrive over existing links");
                match msg {
                    BucketMsg::Accept | BucketMsg::Force => {
                        self.open = true;
                        self.served[idx] = true;
                    }
                    BucketMsg::Served => self.served[idx] = true,
                    _ => {}
                }
            }
            let q = (r - 2) / 2;
            if q < self.outer * self.inner {
                let t = q / self.inner;
                // The best star over the unserved links, at the residual
                // opening cost: its first `k` unserved row entries.
                let residual = if self.open { 0.0 } else { self.opening };
                let (ids, costs) = &self.star_row;
                let served = |idx: u32| self.served[idx as usize];
                let (ratio, k, _) = star_scan(ids, costs, residual, served);
                if k > 0 && ratio <= self.threshold(t) && ctx.rng().bernoulli(0.5) {
                    for &idx in ids.iter().filter(|&&idx| !served(idx)).take(k) {
                        let dst = self.links[idx as usize].0;
                        ctx.send(dst, BucketMsg::Serve(ratio)).expect("star members are neighbors");
                    }
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
    links: Vec<(NodeId, f64)>,
    opening: Announced,
    iterations: u32,
    assigned: Option<usize>,
    /// The ratio of the star that served this client (the dual
    /// certificate), or the forced bundle cost.
    service_ratio: f64,
    last_round: u32,
    done: bool,
}

impl NodeLogic for ClientState {
    type Msg = BucketMsg;

    fn is_done(&self) -> bool {
        self.done
    }

    fn step(&mut self, ctx: &mut StepCtx<'_, BucketMsg>) {
        let r = ctx.round();
        if r == 0 {
            return;
        }
        if r == 1 {
            let announce = |msg| match msg {
                BucketMsg::Announce(f) => Some(f),
                _ => None,
            };
            self.opening.record(&self.links, ctx.inbox(), announce);
            return;
        }
        let fallback_round = 2 * self.iterations + 3;
        if r % 2 == 1 && r < fallback_round {
            // Respond round: accept the lowest-id proposal, if any.
            // Accept the best (lowest-ratio) proposal, ties to the lowest
            // facility index.
            let mut chosen: Option<(usize, f64)> = None;
            let mut cursor = LinkCursor::default();
            for &(src, msg) in ctx.inbox() {
                if let BucketMsg::Serve(ratio) = msg {
                    let idx = cursor
                        .seek(&self.links, src)
                        .expect("proposals only arrive over existing links");
                    let better = match chosen {
                        None => true,
                        Some((bi, br)) => ratio < br || (ratio == br && idx < bi),
                    };
                    if better {
                        chosen = Some((idx, ratio));
                    }
                }
            }
            if let Some((idx, ratio)) = chosen {
                self.assigned = Some(idx);
                self.service_ratio = ratio;
                for (other, &(dst, _)) in self.links.iter().enumerate() {
                    let msg = if other == idx { BucketMsg::Accept } else { BucketMsg::Served };
                    ctx.send(dst, msg).expect("links are neighbors");
                }
                self.done = true;
            }
        } else if r == fallback_round {
            // Fallback: force open the cheapest bundle.
            let (idx, bundle) = self.opening.cheapest_bundle(&self.links);
            self.assigned = Some(idx);
            self.service_ratio = bundle;
            ctx.send(self.links[idx].0, BucketMsg::Force).expect("fallback target is a neighbor");
            self.done = true;
        }
        if r >= self.last_round {
            self.done = true;
        }
    }
}

/// The bucketed parallel greedy algorithm (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GreedyBucket {
    params: BucketParams,
}

impl GreedyBucket {
    /// Creates the algorithm with explicit parameters.
    pub fn new(params: BucketParams) -> Self {
        GreedyBucket { params }
    }

    /// The configured parameters.
    pub fn params(&self) -> BucketParams {
        self.params
    }
}

impl FlAlgorithm for GreedyBucket {
    fn name(&self) -> String {
        format!("bucket(out={},in={})", self.params.outer, self.params.inner)
    }

    fn run(&self, instance: &Instance, seed: u64) -> Result<Outcome, CoreError> {
        if self.params.outer == 0 || self.params.inner == 0 {
            return Err(CoreError::InvalidParams {
                reason: "bucket needs at least one outer phase and one inner iteration".into(),
            });
        }
        let last_round = bucket_rounds(self.params) - 1;
        let rows: Vec<_> =
            instance.facilities().map(|i| star_row(instance.facility_links(i).costs)).collect();
        // Shared threshold grid over the instance's ratio range. In the
        // model this is common knowledge (the paper assumes the coefficient
        // range — equivalently rho — is known up to a polynomial bound).
        // It is anchored at the least star ratio with nothing served.
        let grid_lo = instance
            .facilities()
            .zip(&rows)
            .map(|(i, (ids, costs))| {
                star_scan(ids, costs, instance.opening_cost(i).value(), |_| false).0
            })
            .fold(f64::INFINITY, f64::min)
            .max(f64::MIN_POSITIVE);
        let grid_hi = 2.0
            * instance
                .facilities()
                .map(|i| {
                    let max_c =
                        instance.facility_links(i).costs.iter().copied().fold(0.0f64, f64::max);
                    instance.opening_cost(i).value() + max_c
                })
                .fold(f64::MIN_POSITIVE, f64::max);
        let mut nodes = Vec::with_capacity(instance.num_facilities() + instance.num_clients());
        for (i, star_row) in instance.facilities().zip(rows) {
            let links = facility_link_table(instance, i);
            nodes.push(Node::Facility(FacilityState {
                opening: instance.opening_cost(i).value(),
                served: vec![false; links.len()],
                links,
                star_row,
                outer: self.params.outer,
                inner: self.params.inner,
                grid_lo,
                grid_hi,
                open: false,
                last_round,
                done: false,
            }));
        }
        for j in instance.clients() {
            nodes.push(Node::Client(ClientState {
                links: client_link_table(instance, j),
                opening: Announced::default(),
                iterations: self.params.outer * self.params.inner,
                assigned: None,
                service_ratio: 0.0,
                last_round,
                done: false,
            }));
        }
        let config = CongestConfig { fault: self.params.fault, ..CongestConfig::default() };
        let executor = Executor::LockStep(config);
        let rounds = bucket_rounds(self.params);
        let run = execute(topology_of(instance)?, nodes, seed, executor, rounds, |nodes| {
            let (assignment, ratios): (Vec<_>, Vec<_>) = clients(nodes)
                .map(|c| {
                    let idx = c.assigned.expect("fallback guarantees assignment");
                    (FacilityId::new(c.links[idx].0.raw()), c.service_ratio)
                })
                .unzip();
            let solution = Solution::from_assignment(instance, assignment)?;
            Ok((solution.reassign_greedily(instance), ratios))
        })?;
        let (solution, ratios) = run.harvest;
        let h = harmonic(instance.num_clients());
        let alpha: Vec<f64> = ratios.iter().map(|r| r / h).collect();
        Ok(Outcome {
            solution,
            transcript: Some(run.transcript),
            dual: Some(DualSolution::new(alpha)),
            modeled_rounds: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distfl_instance::generators::{
        AdversarialGreedy, Euclidean, GridNetwork, InstanceGenerator, UniformRandom,
    };
    use distfl_lp::exact;

    #[test]
    fn wire_encoding_fits_the_declared_budget_and_is_distinct() {
        let msgs = [
            BucketMsg::Announce(1.5),
            BucketMsg::Serve(1.5),
            BucketMsg::Accept,
            BucketMsg::Served,
            BucketMsg::Force,
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
        assert_eq!(encodings.iter().collect::<std::collections::HashSet<_>>().len(), 5);
        // The scalar round-trips through the big-endian bytes.
        let enc = BucketMsg::Serve(42.25).encode();
        assert_eq!(f64::from_be_bytes(enc[1..9].try_into().unwrap()), 42.25);
    }

    fn run(instance: &Instance, outer: u32, inner: u32, seed: u64) -> Outcome {
        GreedyBucket::new(BucketParams::new(outer, inner)).run(instance, seed).unwrap()
    }

    #[test]
    fn feasible_across_families_and_parameters() {
        let instances: Vec<Instance> = vec![
            UniformRandom::new(6, 20).unwrap().generate(1).unwrap(),
            Euclidean::new(5, 15).unwrap().generate(2).unwrap(),
            GridNetwork::new(8, 8, 5, 20).unwrap().generate(3).unwrap(),
            AdversarialGreedy::new(10).unwrap().generate(0).unwrap(),
        ];
        for inst in &instances {
            for (outer, inner) in [(1, 1), (4, 2), (6, 6)] {
                let out = run(inst, outer, inner, 9);
                out.solution.check_feasible(inst).unwrap();
            }
        }
    }

    #[test]
    fn round_count_matches_formula_and_is_size_independent() {
        let small = UniformRandom::new(4, 8).unwrap().generate(0).unwrap();
        let large = UniformRandom::new(10, 120).unwrap().generate(0).unwrap();
        let params = BucketParams::new(3, 2);
        let a = run(&small, 3, 2, 0).transcript.unwrap().num_rounds();
        let b = run(&large, 3, 2, 0).transcript.unwrap().num_rounds();
        assert_eq!(a, bucket_rounds(params));
        assert_eq!(a, b);
    }

    #[test]
    fn congest_discipline_holds() {
        let inst = UniformRandom::new(8, 40).unwrap().generate(2).unwrap();
        let out = run(&inst, 5, 3, 4);
        assert!(out.transcript.unwrap().congest_compliant(72));
    }

    #[test]
    fn quality_improves_with_more_structure() {
        // With a deep grid and enough inner iterations, quality should be
        // within a small factor of OPT; the 1x1 run may be much worse.
        let inst = UniformRandom::new(8, 30).unwrap().generate(7).unwrap();
        let opt = exact::solve(&inst).unwrap().cost.value();
        let fine: f64 =
            (0..5).map(|s| run(&inst, 8, 6, s).solution.cost(&inst).value() / opt).sum::<f64>()
                / 5.0;
        assert!(fine < 5.0, "deep-grid average ratio {fine} too large");
    }

    #[test]
    fn deterministic_per_seed_and_seed_sensitive() {
        let inst = UniformRandom::new(6, 25).unwrap().generate(4).unwrap();
        let a = run(&inst, 4, 3, 11);
        let b = run(&inst, 4, 3, 11);
        assert_eq!(a.solution, b.solution);
        // Randomized proposals: some other seed should differ somewhere.
        let differs = (0..10).any(|s| run(&inst, 4, 3, s).solution != a.solution);
        assert!(differs, "proposal coin flips appear inert");
    }

    #[test]
    fn rejects_zero_parameters() {
        let inst = UniformRandom::new(2, 2).unwrap().generate(0).unwrap();
        assert!(GreedyBucket::new(BucketParams::new(0, 1)).run(&inst, 0).is_err());
        assert!(GreedyBucket::new(BucketParams::new(1, 0)).run(&inst, 0).is_err());
    }

    #[test]
    fn dual_certificate_stays_below_opt() {
        for seed in 0..4 {
            let inst = UniformRandom::new(6, 18).unwrap().generate(seed).unwrap();
            let out = run(&inst, 5, 4, seed);
            let lb = out.dual.unwrap().lower_bound(&inst, distfl_lp::TOLERANCE);
            let opt = exact::solve(&inst).unwrap().cost.value();
            assert!(lb <= opt + 1e-6, "seed {seed}: {lb} > {opt}");
        }
    }
}
