//! Fractional primal solutions.

use distfl_instance::{ClientId, FacilityId, Instance};

/// A reason a fractional point is infeasible.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PrimalViolation {
    /// A variable is negative or not finite.
    InvalidValue {
        /// Human-readable location.
        at: String,
        /// The offending value.
        value: f64,
    },
    /// Client `j`'s assignments sum to less than 1.
    UnderCovered {
        /// The client.
        client: ClientId,
        /// The coverage `Σ_i x_ij`.
        coverage: f64,
    },
    /// `x_ij` exceeds `y_i`.
    ExceedsOpening {
        /// The client.
        client: ClientId,
        /// The facility.
        facility: FacilityId,
        /// The assignment value `x_ij`.
        x: f64,
        /// The opening value `y_i`.
        y: f64,
    },
    /// `x_ij` is positive on a pair with no link.
    MissingLink {
        /// The client.
        client: ClientId,
        /// The facility.
        facility: FacilityId,
    },
    /// Vector lengths do not match the instance.
    ShapeMismatch,
}

impl std::fmt::Display for PrimalViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PrimalViolation::InvalidValue { at, value } => {
                write!(f, "invalid value {value} at {at}")
            }
            PrimalViolation::UnderCovered { client, coverage } => {
                write!(f, "client {client} covered only {coverage}")
            }
            PrimalViolation::ExceedsOpening { client, facility, x, y } => {
                write!(f, "x[{client},{facility}] = {x} exceeds y[{facility}] = {y}")
            }
            PrimalViolation::MissingLink { client, facility } => {
                write!(f, "positive assignment on missing link ({client}, {facility})")
            }
            PrimalViolation::ShapeMismatch => write!(f, "solution shape does not match instance"),
        }
    }
}

impl std::error::Error for PrimalViolation {}

/// A fractional primal point `(y, x)` of the facility-location LP.
///
/// `x` is stored sparsely per client as `(facility, value)` pairs; pairs
/// with zero value may be omitted.
#[derive(Debug, Clone, PartialEq)]
pub struct FractionalSolution {
    /// Opening variables `y_i`, indexed by facility.
    y: Vec<f64>,
    /// Assignment variables per client: `(facility, x_ij)` pairs.
    x: Vec<Vec<(FacilityId, f64)>>,
}

impl FractionalSolution {
    /// Creates a fractional point without validation; call
    /// [`FractionalSolution::check_feasible`] to verify it.
    pub fn new(y: Vec<f64>, x: Vec<Vec<(FacilityId, f64)>>) -> Self {
        FractionalSolution { y, x }
    }

    /// The canonical fractional point induced by an integral solution.
    pub fn from_integral(instance: &Instance, solution: &distfl_instance::Solution) -> Self {
        let y =
            instance.facilities().map(|i| if solution.is_open(i) { 1.0 } else { 0.0 }).collect();
        let x = instance.clients().map(|j| vec![(solution.assigned(j), 1.0)]).collect();
        FractionalSolution { y, x }
    }

    /// Opening variables.
    pub fn y(&self) -> &[f64] {
        &self.y
    }

    /// Assignment variables of client `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn x(&self, j: ClientId) -> &[(FacilityId, f64)] {
        &self.x[j.index()]
    }

    /// LP objective value `Σ f_i y_i + Σ c_ij x_ij`.
    ///
    /// # Panics
    ///
    /// Panics if the shape does not match `instance` or an assignment
    /// references a missing link.
    pub fn objective(&self, instance: &Instance) -> f64 {
        let opening: f64 = instance
            .facilities()
            .map(|i| instance.opening_cost(i).value() * self.y[i.index()])
            .sum();
        let connection: f64 = instance
            .clients()
            .flat_map(|j| {
                self.x[j.index()].iter().map(move |&(i, v)| {
                    instance
                        .connection_cost(j, i)
                        .expect("assignment references existing link")
                        .value()
                        * v
                })
            })
            .sum();
        opening + connection
    }

    /// Verifies LP feasibility up to an additive tolerance.
    ///
    /// # Errors
    ///
    /// Returns the first [`PrimalViolation`] found.
    pub fn check_feasible(
        &self,
        instance: &Instance,
        tolerance: f64,
    ) -> Result<(), PrimalViolation> {
        if self.y.len() != instance.num_facilities() || self.x.len() != instance.num_clients() {
            return Err(PrimalViolation::ShapeMismatch);
        }
        for (i, &yi) in self.y.iter().enumerate() {
            if !yi.is_finite() || yi < -tolerance {
                return Err(PrimalViolation::InvalidValue { at: format!("y[{i}]"), value: yi });
            }
        }
        for j in instance.clients() {
            let mut coverage = 0.0;
            for &(i, v) in &self.x[j.index()] {
                if !v.is_finite() || v < -tolerance {
                    return Err(PrimalViolation::InvalidValue {
                        at: format!("x[{j},{i}]"),
                        value: v,
                    });
                }
                if v > tolerance && instance.connection_cost(j, i).is_none() {
                    return Err(PrimalViolation::MissingLink { client: j, facility: i });
                }
                let y = self.y.get(i.index()).copied().unwrap_or(0.0);
                if v > y + tolerance {
                    return Err(PrimalViolation::ExceedsOpening {
                        client: j,
                        facility: i,
                        x: v,
                        y,
                    });
                }
                coverage += v;
            }
            if coverage < 1.0 - tolerance {
                return Err(PrimalViolation::UnderCovered { client: j, coverage });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distfl_instance::{Cost, InstanceBuilder, Solution};

    fn inst() -> Instance {
        let mut b = InstanceBuilder::new();
        let f0 = b.add_facility(Cost::new(10.0).unwrap());
        let f1 = b.add_facility(Cost::new(6.0).unwrap());
        let c0 = b.add_client();
        let c1 = b.add_client();
        b.link(c0, f0, Cost::new(1.0).unwrap()).unwrap();
        b.link(c0, f1, Cost::new(2.0).unwrap()).unwrap();
        b.link(c1, f1, Cost::new(3.0).unwrap()).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn feasible_fractional_point() {
        let inst = inst();
        let sol = FractionalSolution::new(
            vec![0.5, 1.0],
            vec![
                vec![(FacilityId::new(0), 0.5), (FacilityId::new(1), 0.5)],
                vec![(FacilityId::new(1), 1.0)],
            ],
        );
        sol.check_feasible(&inst, 1e-9).unwrap();
        // 10*0.5 + 6*1 + 1*0.5 + 2*0.5 + 3*1 = 15.5.
        assert!((sol.objective(&inst) - 15.5).abs() < 1e-12);
    }

    #[test]
    fn from_integral_is_feasible_with_same_cost() {
        let inst = inst();
        let integral =
            Solution::from_assignment(&inst, vec![FacilityId::new(1), FacilityId::new(1)]).unwrap();
        let frac = FractionalSolution::from_integral(&inst, &integral);
        frac.check_feasible(&inst, 0.0).unwrap();
        assert!((frac.objective(&inst) - integral.cost(&inst).value()).abs() < 1e-12);
    }

    #[test]
    fn detects_under_coverage() {
        let inst = inst();
        let sol = FractionalSolution::new(
            vec![1.0, 1.0],
            vec![vec![(FacilityId::new(0), 0.4)], vec![(FacilityId::new(1), 1.0)]],
        );
        assert!(matches!(
            sol.check_feasible(&inst, 1e-9),
            Err(PrimalViolation::UnderCovered { coverage, .. }) if (coverage - 0.4).abs() < 1e-12
        ));
    }

    #[test]
    fn detects_x_exceeding_y() {
        let inst = inst();
        let sol = FractionalSolution::new(
            vec![0.3, 1.0],
            vec![
                vec![(FacilityId::new(0), 0.8), (FacilityId::new(1), 0.2)],
                vec![(FacilityId::new(1), 1.0)],
            ],
        );
        assert!(matches!(
            sol.check_feasible(&inst, 1e-9),
            Err(PrimalViolation::ExceedsOpening { .. })
        ));
    }

    #[test]
    fn detects_missing_link_and_bad_values() {
        let inst = inst();
        // Client 1 has no link to facility 0.
        let sol = FractionalSolution::new(
            vec![1.0, 1.0],
            vec![vec![(FacilityId::new(0), 1.0)], vec![(FacilityId::new(0), 1.0)]],
        );
        assert!(matches!(
            sol.check_feasible(&inst, 1e-9),
            Err(PrimalViolation::MissingLink { .. })
        ));

        let sol = FractionalSolution::new(
            vec![-1.0, 1.0],
            vec![vec![(FacilityId::new(1), 1.0)], vec![(FacilityId::new(1), 1.0)]],
        );
        assert!(matches!(
            sol.check_feasible(&inst, 1e-9),
            Err(PrimalViolation::InvalidValue { .. })
        ));
    }

    #[test]
    fn detects_shape_mismatch() {
        let inst = inst();
        let sol = FractionalSolution::new(vec![1.0], vec![]);
        assert_eq!(sol.check_feasible(&inst, 1e-9), Err(PrimalViolation::ShapeMismatch));
    }
}
