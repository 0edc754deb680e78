//! Integral solutions: open facilities plus a client assignment.

use crate::cost::Cost;
use crate::error::InstanceError;
use crate::instance::{ClientId, FacilityId, Instance};

/// An integral facility-location solution.
///
/// Holds the set of open facilities and each client's assigned facility.
/// Construct one with [`Solution::new`] (validated against an instance) or
/// [`Solution::from_assignment`] (opens exactly the used facilities).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Solution {
    open: Vec<bool>,
    assignment: Vec<FacilityId>,
}

impl Solution {
    /// Creates a solution and validates feasibility against `instance`:
    /// every client must be assigned to an *open* facility it has a link
    /// to.
    ///
    /// # Errors
    ///
    /// Returns an [`InstanceError`] naming the first infeasible client or
    /// out-of-range index.
    pub fn new(
        instance: &Instance,
        open: Vec<bool>,
        assignment: Vec<FacilityId>,
    ) -> Result<Self, InstanceError> {
        if open.len() != instance.num_facilities() {
            return Err(InstanceError::FacilityOutOfRange {
                facility: open.len(),
                num_facilities: instance.num_facilities(),
            });
        }
        if assignment.len() != instance.num_clients() {
            return Err(InstanceError::ClientOutOfRange {
                client: assignment.len(),
                num_clients: instance.num_clients(),
            });
        }
        let solution = Solution { open, assignment };
        solution.check_feasible(instance)?;
        Ok(solution)
    }

    /// Creates a solution from an assignment alone, opening exactly the
    /// facilities that serve at least one client.
    ///
    /// # Errors
    ///
    /// Returns an [`InstanceError`] if any assigned link does not exist.
    pub fn from_assignment(
        instance: &Instance,
        assignment: Vec<FacilityId>,
    ) -> Result<Self, InstanceError> {
        let mut open = vec![false; instance.num_facilities()];
        for &i in &assignment {
            if i.index() >= open.len() {
                return Err(InstanceError::FacilityOutOfRange {
                    facility: i.index(),
                    num_facilities: open.len(),
                });
            }
            open[i.index()] = true;
        }
        Solution::new(instance, open, assignment)
    }

    /// Verifies feasibility against `instance`.
    ///
    /// # Errors
    ///
    /// Returns an [`InstanceError`] if the solution's shape does not match
    /// the instance, or names the first client assigned to a closed
    /// facility or over a missing link.
    pub fn check_feasible(&self, instance: &Instance) -> Result<(), InstanceError> {
        if self.open.len() != instance.num_facilities() {
            return Err(InstanceError::FacilityOutOfRange {
                facility: self.open.len(),
                num_facilities: instance.num_facilities(),
            });
        }
        if self.assignment.len() != instance.num_clients() {
            return Err(InstanceError::ClientOutOfRange {
                client: self.assignment.len(),
                num_clients: instance.num_clients(),
            });
        }
        for j in instance.clients() {
            let i = self.assignment[j.index()];
            if i.index() >= self.open.len()
                || !self.open[i.index()]
                || instance.connection_cost(j, i).is_none()
            {
                return Err(InstanceError::UnreachableClient { client: j.index() });
            }
        }
        Ok(())
    }

    /// Whether facility `i` is open.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn is_open(&self, i: FacilityId) -> bool {
        self.open[i.index()]
    }

    /// The facility assigned to client `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    #[inline]
    pub fn assigned(&self, j: ClientId) -> FacilityId {
        self.assignment[j.index()]
    }

    /// Iterates over the open facilities.
    pub fn open_facilities(&self) -> impl Iterator<Item = FacilityId> + '_ {
        self.open.iter().enumerate().filter(|(_, o)| **o).map(|(i, _)| FacilityId::new(i as u32))
    }

    /// Number of open facilities.
    pub fn num_open(&self) -> usize {
        self.open.iter().filter(|o| **o).count()
    }

    /// Total opening cost of the open facilities.
    pub fn opening_cost(&self, instance: &Instance) -> Cost {
        self.open_facilities().map(|i| instance.opening_cost(i)).sum()
    }

    /// Total connection cost of the assignment.
    ///
    /// # Panics
    ///
    /// Panics if any assigned link is missing from `instance` (cannot
    /// happen for a validated solution).
    pub fn connection_cost(&self, instance: &Instance) -> Cost {
        instance
            .clients()
            .map(|j| {
                instance
                    .connection_cost(j, self.assignment[j.index()])
                    .expect("validated solution references existing links")
            })
            .sum()
    }

    /// Total cost: opening plus connection.
    pub fn cost(&self, instance: &Instance) -> Cost {
        self.opening_cost(instance) + self.connection_cost(instance)
    }

    /// Returns a copy with every client reassigned to its *cheapest open*
    /// facility and unused facilities closed. Never increases cost; useful
    /// as a final polish after any algorithm.
    ///
    /// # Panics
    ///
    /// Panics if `self` is infeasible for `instance`.
    pub fn reassign_greedily(&self, instance: &Instance) -> Solution {
        let assignment: Vec<FacilityId> = instance
            .clients()
            .map(|j| {
                // First-win strict `<` over the id-sorted row matches the
                // `(cost, facility id)`-lexicographic minimum (lanes are
                // NaN-free with no negative zero).
                let links = instance.client_links(j);
                let mut best: Option<(u32, f64)> = None;
                for (i, c) in links.iter() {
                    if self.open[i as usize] && best.is_none_or(|(_, bc)| c < bc) {
                        best = Some((i, c));
                    }
                }
                let (i, _) =
                    best.expect("feasible solution keeps at least the assigned facility open");
                FacilityId::new(i)
            })
            .collect();
        Solution::from_assignment(instance, assignment)
            .expect("reassignment over open facilities stays feasible")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::cost;
    use crate::instance::InstanceBuilder;

    fn inst() -> Instance {
        let mut b = InstanceBuilder::new();
        let f0 = b.add_facility(cost(10.0));
        let f1 = b.add_facility(cost(1.0));
        let c0 = b.add_client();
        let c1 = b.add_client();
        b.link(c0, f0, cost(1.0)).unwrap();
        b.link(c0, f1, cost(2.0)).unwrap();
        b.link(c1, f0, cost(5.0)).unwrap();
        b.link(c1, f1, cost(1.0)).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn cost_accounting() {
        let inst = inst();
        let sol =
            Solution::new(&inst, vec![true, true], vec![FacilityId::new(0), FacilityId::new(1)])
                .unwrap();
        assert_eq!(sol.opening_cost(&inst), cost(11.0));
        assert_eq!(sol.connection_cost(&inst), cost(2.0));
        assert_eq!(sol.cost(&inst), cost(13.0));
        assert_eq!(sol.num_open(), 2);
        assert!(sol.is_open(FacilityId::new(0)));
        assert_eq!(sol.assigned(ClientId::new(1)), FacilityId::new(1));
    }

    #[test]
    fn from_assignment_opens_used_only() {
        let inst = inst();
        let sol =
            Solution::from_assignment(&inst, vec![FacilityId::new(1), FacilityId::new(1)]).unwrap();
        assert_eq!(sol.num_open(), 1);
        assert_eq!(sol.open_facilities().collect::<Vec<_>>(), vec![FacilityId::new(1)]);
        assert_eq!(sol.cost(&inst), cost(1.0 + 2.0 + 1.0));
    }

    #[test]
    fn rejects_assignment_to_closed_facility() {
        let inst = inst();
        let out =
            Solution::new(&inst, vec![true, false], vec![FacilityId::new(0), FacilityId::new(1)]);
        assert!(matches!(out, Err(InstanceError::UnreachableClient { client: 1 })));
    }

    #[test]
    fn rejects_assignment_over_missing_link() {
        let mut b = InstanceBuilder::new();
        let f0 = b.add_facility(cost(1.0));
        let _f1 = b.add_facility(cost(1.0));
        let c0 = b.add_client();
        b.link(c0, f0, cost(1.0)).unwrap();
        let inst = b.build().unwrap();
        // Client 0 has no link to facility 1.
        let out = Solution::new(&inst, vec![true, true], vec![FacilityId::new(1)]);
        assert!(matches!(out, Err(InstanceError::UnreachableClient { client: 0 })));
    }

    #[test]
    fn rejects_wrong_lengths() {
        let inst = inst();
        assert!(Solution::new(&inst, vec![true], vec![FacilityId::new(0); 2]).is_err());
        assert!(Solution::new(&inst, vec![true, true], vec![FacilityId::new(0)]).is_err());
    }

    #[test]
    fn greedy_reassignment_never_increases_cost() {
        let inst = inst();
        // Assign both clients to the expensive facility 0 while 1 is open.
        let sol =
            Solution::new(&inst, vec![true, true], vec![FacilityId::new(0), FacilityId::new(0)])
                .unwrap();
        let improved = sol.reassign_greedily(&inst);
        assert!(improved.cost(&inst) <= sol.cost(&inst));
        // Client 1 should have moved to the cheaper facility 1.
        assert_eq!(improved.assigned(ClientId::new(1)), FacilityId::new(1));
    }
}
