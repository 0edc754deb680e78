//! Instance transformations.
//!
//! Utilities a workload pipeline needs around the generators: uniform
//! scaling (the algorithms are scale-invariant — asserted in the
//! integration tests), normalization to a unit cost floor, multiplicative
//! noise, induced sub-instances, and disjoint unions.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::cost::Cost;
use crate::error::InstanceError;
use crate::instance::{ClientId, FacilityId, Instance, InstanceBuilder};
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

/// The sub-instance induced by keeping only the given facilities (client
/// set unchanged).
///
/// # Errors
///
/// Returns [`InstanceError::UnreachableClient`] if some client loses all
/// its links.
pub fn restrict_facilities(
    instance: &Instance,
    keep: &[FacilityId],
) -> Result<Instance, InstanceError> {
    let mut keep_mask = vec![false; instance.num_facilities()];
    for &i in keep {
        if i.index() >= keep_mask.len() {
            return Err(InstanceError::FacilityOutOfRange {
                facility: i.index(),
                num_facilities: keep_mask.len(),
            });
        }
        keep_mask[i.index()] = true;
    }
    let mut b = InstanceBuilder::new();
    let mut new_id = vec![None; instance.num_facilities()];
    for i in instance.facilities() {
        if keep_mask[i.index()] {
            new_id[i.index()] = Some(b.add_facility(instance.opening_cost(i)));
        }
    }
    for j in instance.clients() {
        let c = b.add_client();
        for (i, cost) in instance.client_links(j).iter() {
            if let Some(ni) = new_id[i as usize] {
                b.link(c, ni, Cost::from_validated(cost))?;
            }
        }
    }
    b.build()
}

/// The sub-instance induced by keeping only the given clients (facility
/// set unchanged; facilities may end up linkless, which is allowed).
///
/// # Errors
///
/// Returns [`InstanceError::ClientOutOfRange`] for bad indices or
/// [`InstanceError::NoClients`] if `keep` is empty.
pub fn restrict_clients(instance: &Instance, keep: &[ClientId]) -> Result<Instance, InstanceError> {
    let mut b = InstanceBuilder::new();
    let fids: Vec<FacilityId> =
        instance.facilities().map(|i| b.add_facility(instance.opening_cost(i))).collect();
    for &j in keep {
        if j.index() >= instance.num_clients() {
            return Err(InstanceError::ClientOutOfRange {
                client: j.index(),
                num_clients: instance.num_clients(),
            });
        }
        let c = b.add_client();
        for (i, cost) in instance.client_links(j).iter() {
            b.link(c, fids[i as usize], Cost::from_validated(cost))?;
        }
    }
    b.build()
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
    use crate::generators::{GridNetwork, InstanceGenerator, UniformRandom};

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
    fn facility_restriction_keeps_reachable_clients() {
        let a = inst(4);
        let keep = [FacilityId::new(0), FacilityId::new(3)];
        let restricted = restrict_facilities(&a, &keep).unwrap();
        assert_eq!(restricted.num_facilities(), 2);
        assert_eq!(restricted.num_clients(), a.num_clients());
        assert_eq!(restricted.opening_cost(FacilityId::new(1)), a.opening_cost(FacilityId::new(3)));
        // Dropping every facility a client uses is an error.
        let sparse = GridNetwork::with_radius(8, 8, 4, 16, 2).unwrap().generate(1).unwrap();
        let only_first = [FacilityId::new(0)];
        let out = restrict_facilities(&sparse, &only_first);
        // Either every client reaches facility 0 (fine) or the builder
        // rejects with UnreachableClient.
        if let Err(e) = out {
            assert!(matches!(e, InstanceError::UnreachableClient { .. }));
        }
    }

    #[test]
    fn client_restriction_selects_rows() {
        let a = inst(5);
        let keep = [ClientId::new(2), ClientId::new(7), ClientId::new(11)];
        let restricted = restrict_clients(&a, &keep).unwrap();
        assert_eq!(restricted.num_clients(), 3);
        for (new_j, &old_j) in keep.iter().enumerate() {
            for i in a.facilities() {
                assert_eq!(
                    restricted.connection_cost(ClientId::new(new_j as u32), i),
                    a.connection_cost(old_j, i)
                );
            }
        }
        assert!(restrict_clients(&a, &[]).is_err());
        assert!(restrict_clients(&a, &[ClientId::new(99)]).is_err());
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
