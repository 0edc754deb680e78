//! Instance classification for solver routing.
//!
//! The solver portfolio (DESIGN.md §3.7) needs to know, per request,
//! whether an instance is *metric* — the constant-factor ball-growing
//! solver is only guaranteed there — and how many links it has, which
//! picks between the general-case solvers. This module computes an
//! [`InstanceProfile`] deterministically from the instance alone: same
//! instance, same profile, no clocks and no ambient randomness, so routed
//! responses stay byte-deterministic.
//!
//! Metricity is decided exhaustively (via [`crate::metric::metricity_defect`])
//! when the instance is small enough, and by **deterministic sampling** of
//! four-point quadruples otherwise. Sampling can only ever *find* a real
//! violation — every reported defect is an actual cost quadruple — so a
//! truly metric instance is never labelled [`Metricity::Violated`]
//! (property-tested in `classify_properties`). The converse is weaker by
//! construction: a non-metric instance whose violations hide from the
//! sample is labelled [`Metricity::LikelyMetric`]; the metric solver still
//! produces a feasible (just not factor-guaranteed) solution there.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::instance::{ClientId, FacilityId, Instance};
use crate::metric;
use crate::spread;

/// Above this many links the exhaustive `O(L²)` four-point scan is
/// replaced by quadruple sampling.
pub const EXHAUSTIVE_LINK_LIMIT: usize = 2_000;

/// Number of quadruple samples drawn in sampling mode.
pub const SAMPLE_QUADRUPLES: u32 = 4_096;

/// Relative tolerance under which a four-point defect counts as rounding
/// noise rather than a metricity violation (scaled by the largest
/// connection cost, so shortest-path closures pass exactly).
pub const METRIC_REL_TOLERANCE: f64 = 1e-9;

/// How the classifier decided on metricity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metricity {
    /// Every four-point quadruple was checked; none violates the
    /// condition beyond tolerance.
    Verified,
    /// Sampled quadruples only; no violation found. May still be
    /// non-metric, but metric solvers remain feasible.
    LikelyMetric,
    /// A concrete violating quadruple was found (exhaustively or by
    /// sampling); its defect is in [`InstanceProfile::observed_defect`].
    Violated,
}

impl Metricity {
    /// Whether routing may treat the instance as metric.
    #[inline]
    pub fn admits_metric_solver(self) -> bool {
        !matches!(self, Metricity::Violated)
    }
}

/// The routing profile of one instance, computed by [`classify`].
/// Everything `SolverKind::Auto` routing consumes lives here; the decision
/// tree itself lives in `distfl_core::dispatch` (this crate stays
/// solver-agnostic).
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceProfile {
    /// Number of links `L`.
    pub links: usize,
    /// The metricity verdict.
    pub metricity: Metricity,
    /// Worst additive four-point defect observed (0.0 when none was
    /// found; exact when `metricity` is [`Metricity::Verified`] or an
    /// exhaustive [`Metricity::Violated`], a lower bound when sampled).
    pub observed_defect: f64,
    /// Whether the defect came from the exhaustive scan (`true`) or
    /// sampling (`false`).
    pub exhaustive: bool,
}

/// Classifies an instance for solver routing.
///
/// Deterministic: the sampling RNG is seeded from a fixed constant and
/// the instance shape, never from ambient state, so the same instance
/// always yields the same profile (and therefore the same `auto` route).
///
/// ```
/// use distfl_instance::classify::{classify, Metricity};
/// use distfl_instance::generators::{Euclidean, InstanceGenerator, UniformRandom};
///
/// # fn main() -> Result<(), distfl_instance::InstanceError> {
/// let metric = classify(&Euclidean::new(5, 20)?.generate(3)?);
/// assert!(metric.metricity.admits_metric_solver());
///
/// let skewed = classify(&UniformRandom::new(5, 20)?.generate(3)?);
/// assert_eq!(skewed.metricity, Metricity::Violated);
/// assert!(skewed.observed_defect > 0.0);
/// # Ok(())
/// # }
/// ```
pub fn classify(instance: &Instance) -> InstanceProfile {
    let links = instance.num_links();
    let max_cost = spread::max_coefficient(instance).value();
    let tolerance = METRIC_REL_TOLERANCE * max_cost;

    let exhaustive = links <= EXHAUSTIVE_LINK_LIMIT;
    let (defect, verdict) = if exhaustive {
        let defect = metric::metricity_defect(instance);
        let verdict = if defect <= tolerance { Metricity::Verified } else { Metricity::Violated };
        (defect, verdict)
    } else {
        let defect = sampled_defect(instance);
        let verdict =
            if defect <= tolerance { Metricity::LikelyMetric } else { Metricity::Violated };
        (defect, verdict)
    };

    InstanceProfile { links, metricity: verdict, observed_defect: defect, exhaustive }
}

/// Worst four-point defect over [`SAMPLE_QUADRUPLES`] deterministically
/// sampled quadruples. Every evaluated slack is a real cost quadruple, so
/// a positive return is a genuine metricity violation; zero only means
/// none was *found*.
fn sampled_defect(instance: &Instance) -> f64 {
    let n = instance.num_clients();
    // Fixed seed mixed with the shape: classification is a pure function
    // of the instance, independent of callers and of each other.
    let seed = 0x5EED_C1A5u64 ^ ((instance.num_facilities() as u64) << 32) ^ n as u64;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut worst = 0.0f64;
    for _ in 0..SAMPLE_QUADRUPLES {
        // Quadruple (i, j, k, l): client j linked to facilities i and k,
        // client l linked to facility k; the condition needs c(i,l) too.
        let j = ClientId::new(rng.gen_range(0..n) as u32);
        let j_links = instance.client_links(j);
        if j_links.len() < 2 {
            continue;
        }
        let a = rng.gen_range(0..j_links.len());
        let mut b = rng.gen_range(0..j_links.len() - 1);
        if b >= a {
            b += 1;
        }
        let (i, c_ij) = (FacilityId::new(j_links.ids[a]), j_links.costs[a]);
        let (k, c_kj) = (FacilityId::new(j_links.ids[b]), j_links.costs[b]);
        let k_links = instance.facility_links(k);
        let p = rng.gen_range(0..k_links.len());
        let l = ClientId::new(k_links.ids[p]);
        if l == j {
            continue;
        }
        let c_kl = k_links.costs[p];
        let Some(c_il) = instance.connection_cost(l, i) else {
            continue;
        };
        worst = worst.max(c_il.value() - c_ij - c_kj - c_kl);
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Cost;
    use crate::generators::{Euclidean, InstanceGenerator, Metricized, PowerLaw, UniformRandom};
    use crate::instance::InstanceBuilder;

    #[test]
    fn small_metric_instance_is_verified() {
        // With one facility no quadruple exists, so the scan verifies.
        let mut b = InstanceBuilder::new();
        let f = b.add_facility(Cost::new(3.0).unwrap());
        let c0 = b.add_client();
        b.link(c0, f, Cost::ZERO).unwrap();
        let c1 = b.add_client();
        b.link(c1, f, Cost::new(3.0).unwrap()).unwrap();
        let one_facility = b.build().unwrap();
        for (inst, links) in
            [(Euclidean::new(4, 12).unwrap().generate(5).unwrap(), 48), (one_facility, 2)]
        {
            let profile = classify(&inst);
            assert_eq!(profile.metricity, Metricity::Verified);
            assert!(profile.exhaustive);
            assert!(profile.metricity.admits_metric_solver());
            assert_eq!(profile.links, links);
        }
    }

    #[test]
    fn small_non_metric_instance_is_violated() {
        let inst = UniformRandom::new(4, 12).unwrap().generate(5).unwrap();
        let profile = classify(&inst);
        assert_eq!(profile.metricity, Metricity::Violated);
        assert!(profile.observed_defect > 0.0);
        assert!(!profile.metricity.admits_metric_solver());
    }

    #[test]
    fn large_instances_are_sampled() {
        let raw = UniformRandom::new(30, 120).unwrap().generate(2).unwrap();
        assert!(raw.num_links() > EXHAUSTIVE_LINK_LIMIT);
        let profile = classify(&raw);
        assert!(!profile.exhaustive);
        // A dense uniform-random instance has violations everywhere; the
        // sampler must find one.
        assert_eq!(profile.metricity, Metricity::Violated);

        let closed =
            classify(&Metricized::new(UniformRandom::new(30, 120).unwrap()).generate(2).unwrap());
        assert!(!closed.exhaustive);
        assert_eq!(closed.metricity, Metricity::LikelyMetric);
        assert!(closed.metricity.admits_metric_solver());
    }

    #[test]
    fn classification_is_deterministic() {
        let inst = PowerLaw::new(25, 110, 1e6).unwrap().generate(8).unwrap();
        assert_eq!(classify(&inst), classify(&inst));
    }
}
