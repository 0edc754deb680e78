//! Dual solutions and dual-fitting lower bounds.

use distfl_instance::Instance;

/// A dual point `α` of the facility-location LP.
///
/// The dual constraint for facility `i` is
/// `payment_i(α) = Σ_j max(0, α_j − c_ij) ≤ f_i`. Arbitrary dual points
/// (such as the ones the distributed dual-ascent algorithm produces) may
/// violate it; [`DualSolution::feasibility_factor`] quantifies by how much,
/// and `Σ_j α_j / factor` is then a valid lower bound on `OPT` — the
/// *dual-fitting* argument at the heart of the paper's analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct DualSolution {
    alpha: Vec<f64>,
}

impl DualSolution {
    /// Wraps raw dual values.
    ///
    /// # Panics
    ///
    /// Panics if any value is negative or not finite.
    pub fn new(alpha: Vec<f64>) -> Self {
        assert!(
            alpha.iter().all(|a| a.is_finite() && *a >= 0.0),
            "dual values must be finite and non-negative"
        );
        DualSolution { alpha }
    }

    /// The dual variables, indexed by client.
    pub fn alpha(&self) -> &[f64] {
        &self.alpha
    }

    /// The dual objective `Σ_j α_j`.
    pub fn value(&self) -> f64 {
        self.alpha.iter().sum()
    }

    /// The payment this dual point offers facility `i`:
    /// `Σ_j max(0, α_j − c_ij)` over `i`'s links.
    ///
    /// # Panics
    ///
    /// Panics if the dual's length does not match `instance`.
    pub fn payment(&self, instance: &Instance, i: distfl_instance::FacilityId) -> f64 {
        assert_eq!(self.alpha.len(), instance.num_clients(), "dual/instance shape mismatch");
        instance.facility_links(i).iter().map(|(j, c)| (self.alpha[j as usize] - c).max(0.0)).sum()
    }

    /// The smallest `v ≥ 1` such that `α / v` is dual-feasible.
    ///
    /// For facilities with positive opening cost this is
    /// `payment_i / f_i`; for zero-opening-cost facilities it is the
    /// largest `α_j / c_ij` over paying links (`f64::INFINITY` if a client
    /// pays over a zero-cost link, in which case no scaling helps).
    pub fn feasibility_factor(&self, instance: &Instance, tolerance: f64) -> f64 {
        let mut factor = 1.0f64;
        for i in instance.facilities() {
            let f = instance.opening_cost(i).value();
            if f > 0.0 {
                factor = factor.max(self.payment(instance, i) / f);
            } else {
                for (j, c) in instance.facility_links(i).iter() {
                    let a = self.alpha[j as usize];
                    if a > c + tolerance {
                        if c > 0.0 {
                            factor = factor.max(a / c);
                        } else {
                            return f64::INFINITY;
                        }
                    }
                }
            }
        }
        factor
    }

    /// Whether this point is dual-feasible up to an additive tolerance on
    /// each constraint.
    pub fn is_feasible(&self, instance: &Instance, tolerance: f64) -> bool {
        instance
            .facilities()
            .all(|i| self.payment(instance, i) <= instance.opening_cost(i).value() + tolerance)
    }

    /// A certified lower bound on `OPT` by dual fitting: the dual value
    /// scaled by the feasibility factor (weak duality), or 0 if no finite
    /// scaling exists.
    pub fn lower_bound(&self, instance: &Instance, tolerance: f64) -> f64 {
        let factor = self.feasibility_factor(instance, tolerance);
        if factor.is_finite() {
            self.value() / factor
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distfl_instance::{Cost, FacilityId, InstanceBuilder};

    fn inst() -> Instance {
        // f0: opening 3, serves both clients at cost 1.
        // f1: opening 0, serves client 1 at cost 2.
        let mut b = InstanceBuilder::new();
        let f0 = b.add_facility(Cost::new(3.0).unwrap());
        let f1 = b.add_facility(Cost::ZERO);
        let c0 = b.add_client();
        let c1 = b.add_client();
        b.link(c0, f0, Cost::new(1.0).unwrap()).unwrap();
        b.link(c1, f0, Cost::new(1.0).unwrap()).unwrap();
        b.link(c1, f1, Cost::new(2.0).unwrap()).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn payment_and_feasibility() {
        let inst = inst();
        let dual = DualSolution::new(vec![2.0, 2.0]);
        // payment(f0) = (2-1) + (2-1) = 2 <= 3.
        assert!((dual.payment(&inst, FacilityId::new(0)) - 2.0).abs() < 1e-12);
        // payment(f1) = max(0, 2-2) = 0 <= 0.
        assert_eq!(dual.payment(&inst, FacilityId::new(1)), 0.0);
        assert!(dual.is_feasible(&inst, 1e-9));
        assert_eq!(dual.feasibility_factor(&inst, 1e-9), 1.0);
        assert!((dual.lower_bound(&inst, 1e-9) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn infeasible_dual_is_scaled() {
        let inst = inst();
        let dual = DualSolution::new(vec![4.0, 4.0]);
        // payment(f0) = 3+3 = 6 > 3 -> factor >= 2.
        // f1 has opening 0 and alpha_1=4 > c=2 -> factor >= 2.
        let factor = dual.feasibility_factor(&inst, 1e-9);
        assert!((factor - 2.0).abs() < 1e-12, "factor {factor}");
        assert!(!dual.is_feasible(&inst, 1e-9));
        // Scaled bound: 8 / 2 = 4; and indeed OPT here is 3 + 1 + 1 = 5 >= 4.
        assert!((dual.lower_bound(&inst, 1e-9) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn zero_cost_link_on_free_facility_degenerates() {
        let mut b = InstanceBuilder::new();
        let f = b.add_facility(Cost::ZERO);
        let g = b.add_facility(Cost::new(1.0).unwrap());
        let c = b.add_client();
        b.link(c, f, Cost::ZERO).unwrap();
        b.link(c, g, Cost::new(1.0).unwrap()).unwrap();
        let inst = b.build().unwrap();
        let dual = DualSolution::new(vec![0.5]);
        assert_eq!(dual.feasibility_factor(&inst, 1e-9), f64::INFINITY);
        assert_eq!(dual.lower_bound(&inst, 1e-9), 0.0);
    }

    #[test]
    fn lower_bound_is_below_any_feasible_solution() {
        // Weak duality smoke test on the fixture.
        let inst = inst();
        let dual = DualSolution::new(vec![10.0, 7.0]);
        let lb = dual.lower_bound(&inst, 1e-9);
        // OPT = open f0 (3) + 1 + 1 = 5.
        assert!(lb <= 5.0 + 1e-9, "lb {lb} exceeds OPT");
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn rejects_negative_alpha() {
        let _ = DualSolution::new(vec![-1.0]);
    }
}
