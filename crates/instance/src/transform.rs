//! Instance transformations.
//!
//! Utilities a workload pipeline needs around the generators: uniform
//! scaling (the algorithms are scale-invariant — asserted in the
//! integration tests), normalization to a unit cost floor, multiplicative
//! noise, and disjoint unions.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::cost::Cost;
use crate::error::InstanceError;
use crate::instance::{FacilityId, Instance, InstanceBuilder};
use crate::spread;

/// Rebuilds an instance with every coefficient passed through `map`.
fn map_costs(
    instance: &Instance,
    mut map: impl FnMut(Cost) -> Result<Cost, InstanceError>,
) -> Result<Instance, InstanceError> {
    let mut b = InstanceBuilder::new();
    let fids: Vec<FacilityId> = instance
        .facilities()
        .map(|i| Ok(b.add_facility(map(instance.opening_cost(i))?)))
        .collect::<Result<_, InstanceError>>()?;
    for j in instance.clients() {
        let c = b.add_client();
        for (i, cost) in instance.client_links(j).iter() {
            b.link(c, fids[i as usize], map(Cost::from_validated(cost))?)?;
        }
    }
    b.build()
}

/// Multiplies every coefficient by `factor`.
///
/// # Errors
///
/// Returns [`InstanceError::InvalidCost`] for non-finite or negative
/// factors (via the cost constructor), and
/// [`InstanceError::CostOutOfRange`] when a scaled cost leaves the range
/// instances accept.
pub fn scale_costs(instance: &Instance, factor: f64) -> Result<Instance, InstanceError> {
    map_costs(instance, |c| Cost::new(c.value() * factor))
}

/// Rescales the instance so its smallest positive coefficient is exactly
/// 1, returning the instance and the scale that was divided out.
///
/// # Errors
///
/// Propagates [`scale_costs`]'s errors: [`InstanceError::CostOutOfRange`]
/// when the instance's coefficient spread exceeds 2^256.
pub fn normalize(instance: &Instance) -> Result<(Instance, f64), InstanceError> {
    let floor = spread::positive_floor(instance).value();
    Ok((scale_costs(instance, 1.0 / floor)?, floor))
}

/// Multiplies every coefficient independently by `1 + U[-noise, +noise]`.
///
/// # Errors
///
/// Returns [`InstanceError::InvalidGenerator`] for `noise` outside
/// `[0, 1)`.
pub fn perturb(instance: &Instance, noise: f64, seed: u64) -> Result<Instance, InstanceError> {
    if !noise.is_finite() || !(0.0..1.0).contains(&noise) {
        return Err(InstanceError::InvalidGenerator {
            reason: format!("noise must lie in [0, 1), got {noise}"),
        });
    }
    let mut rng = StdRng::seed_from_u64(seed);
    map_costs(instance, |c| {
        let factor = 1.0 + rng.gen_range(-noise..=noise);
        Cost::new(c.value() * factor)
    })
}

/// Disjoint union: facilities and clients of `a` followed by those of
/// `b`, with no cross links (two independent markets in one instance).
///
/// # Errors
///
/// Propagates construction errors (cannot occur for valid inputs).
pub fn merge(a: &Instance, b: &Instance) -> Result<Instance, InstanceError> {
    let mut builder = InstanceBuilder::new();
    let a_fids: Vec<FacilityId> =
        a.facilities().map(|i| builder.add_facility(a.opening_cost(i))).collect();
    let b_fids: Vec<FacilityId> =
        b.facilities().map(|i| builder.add_facility(b.opening_cost(i))).collect();
    for j in a.clients() {
        let c = builder.add_client();
        for (i, cost) in a.client_links(j).iter() {
            builder.link(c, a_fids[i as usize], Cost::from_validated(cost))?;
        }
    }
    for j in b.clients() {
        let c = builder.add_client();
        for (i, cost) in b.client_links(j).iter() {
            builder.link(c, b_fids[i as usize], Cost::from_validated(cost))?;
        }
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{InstanceGenerator, UniformRandom};
    use crate::instance::ClientId;

    fn inst(seed: u64) -> Instance {
        UniformRandom::new(5, 12).unwrap().generate(seed).unwrap()
    }

    #[test]
    fn scaling_scales_every_coefficient() {
        let a = inst(1);
        let b = scale_costs(&a, 2.5).unwrap();
        for (ca, cb) in a.coefficients().zip(b.coefficients()) {
            assert!((cb.value() - 2.5 * ca.value()).abs() < 1e-9);
        }
        // Spread is scale-invariant.
        assert!((spread::coefficient_spread(&a) - spread::coefficient_spread(&b)).abs() < 1e-6);
    }

    #[test]
    fn normalize_sets_the_floor_to_one() {
        let a = inst(2);
        let (normalized, scale) = normalize(&a).unwrap();
        assert!((spread::positive_floor(&normalized).value() - 1.0).abs() < 1e-12);
        assert!(scale > 0.0);
        // Round-trip: scaling back recovers the original.
        let back = scale_costs(&normalized, scale).unwrap();
        for (ca, cb) in a.coefficients().zip(back.coefficients()) {
            assert!((ca.value() - cb.value()).abs() < 1e-9 * ca.value().max(1.0));
        }
    }

    #[test]
    fn perturbation_stays_in_the_band() {
        let a = inst(3);
        let b = perturb(&a, 0.2, 7).unwrap();
        for (ca, cb) in a.coefficients().zip(b.coefficients()) {
            let ratio = cb.value() / ca.value();
            assert!((0.8..=1.2).contains(&ratio), "ratio {ratio}");
        }
        assert!(perturb(&a, 1.0, 7).is_err());
        assert!(perturb(&a, -0.1, 7).is_err());
        // Deterministic per seed.
        assert_eq!(perturb(&a, 0.2, 7).unwrap(), b);
    }

    #[test]
    fn merge_is_a_disjoint_union() {
        let a = inst(6);
        let b = inst(7);
        let merged = merge(&a, &b).unwrap();
        assert_eq!(merged.num_facilities(), 10);
        assert_eq!(merged.num_clients(), 24);
        assert_eq!(merged.num_links(), a.num_links() + b.num_links());
        // No cross links.
        assert_eq!(merged.connection_cost(ClientId::new(0), FacilityId::new(7)), None);
        // Costs preserved with offsets.
        assert_eq!(
            merged.connection_cost(ClientId::new(12), FacilityId::new(5)),
            b.connection_cost(ClientId::new(0), FacilityId::new(0))
        );
    }
}
