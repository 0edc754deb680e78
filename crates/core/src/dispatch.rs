//! Uniform solver selection: one enum naming every solver the outward
//! layers (the serve protocol, load generators, CLIs) can request.
//!
//! The individual algorithms live in their own modules with their own
//! parameter types; [`SolverKind`] is the stable, string-addressable
//! subset a *request* can pick from, with fixed mid-range parameters so
//! that a `(kind, instance, seed)` triple fully determines the output —
//! the property the serve layer's byte-deterministic responses rest on.

use std::str::FromStr;

use distfl_instance::classify;
use distfl_instance::Instance;

use crate::error::CoreError;
use crate::greedy::StarGreedy;
use crate::jv::JainVazirani;
use crate::metricball::{MetricBall, MetricBallParams};
use crate::outliers::{Outliers, OutliersParams};
use crate::paydual::{PayDual, PayDualParams};
use crate::runner::{FlAlgorithm, Outcome};
use crate::warm::WarmCache;
use crate::{greedy, localsearch};

/// Move cap for [`SolverKind::LocalSearch`]. Local search on UFL
/// converges long before this on any instance the service admits; the cap
/// only bounds the worst case so a request cannot run unboundedly.
const LOCAL_SEARCH_MAX_MOVES: u32 = 10_000;

/// Link-count ceiling under which [`SolverKind::Auto`] picks local search
/// for non-metric instances (the quality option, affordable when small);
/// above it, greedy (the throughput option).
pub const AUTO_LOCAL_SEARCH_LINK_LIMIT: usize = 20_000;

/// The solvers addressable by name from outside the crate.
///
/// `solve` dispatches to the corresponding algorithm with fixed default
/// parameters, so equal `(kind, instance, seed)` inputs always produce
/// equal solutions — across processes, worker counts, and restarts.
///
/// ```
/// use distfl_core::SolverKind;
/// use distfl_instance::generators::{InstanceGenerator, UniformRandom};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let instance = UniformRandom::new(5, 20)?.generate(7)?;
/// let kind: SolverKind = "paydual".parse()?;
/// let outcome = kind.solve(&instance, 1)?;
/// outcome.solution.check_feasible(&instance)?;
/// // The distributed solver reports its CONGEST round count.
/// assert!(outcome.transcript.unwrap().num_rounds() > 0);
/// // Equal inputs give equal outputs.
/// assert_eq!(outcome.solution, kind.solve(&instance, 1)?.solution);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolverKind {
    /// Sequential star greedy ([`crate::greedy`]): the classic
    /// `ln n`-approximation.
    Greedy,
    /// Star greedy start followed by open/close local search
    /// ([`crate::localsearch`]), which never ends above the cost it starts
    /// from.
    LocalSearch,
    /// Jain–Vazirani primal–dual ([`crate::jv`]). Its 3-approximation
    /// guarantee assumes a metric instance; dispatch skips the quadratic
    /// metricity check and still returns a feasible solution (with a dual
    /// lower bound) on non-metric inputs.
    JainVazirani,
    /// The reproduced distributed algorithm ([`crate::paydual`]) with the
    /// default phase count, executed in the CONGEST simulator; reports a
    /// round count.
    PayDual,
    /// The distributed ball-growing metric solver
    /// ([`crate::metricball`]): constant-factor on metric instances,
    /// feasible (but unguaranteed) elsewhere; reports a round count.
    MetricBall,
    /// The robust/outliers variant ([`crate::outliers`]): drops the
    /// budgeted most-expensive clients, solves the core with MetricBall,
    /// reattaches; reports the core solve's round count.
    MetricOutliers,
    /// Classifier-driven routing: [`Self::resolve`] profiles the instance
    /// (metricity, size) and dispatches to the best concrete kind. The
    /// classifier is deterministic, so `auto` keeps the byte-deterministic
    /// response property.
    Auto,
}

impl SolverKind {
    /// Every kind, in protocol-name order — for enumerating what a
    /// service supports.
    pub const ALL: [SolverKind; 7] = [
        SolverKind::Greedy,
        SolverKind::LocalSearch,
        SolverKind::JainVazirani,
        SolverKind::PayDual,
        SolverKind::MetricBall,
        SolverKind::MetricOutliers,
        SolverKind::Auto,
    ];

    /// The canonical protocol name (`greedy`, `local-search`, `jv`,
    /// `paydual`, `metricball`, `outliers`, `auto`) — the inverse of
    /// [`FromStr`].
    pub fn name(self) -> &'static str {
        match self {
            SolverKind::Greedy => "greedy",
            SolverKind::LocalSearch => "local-search",
            SolverKind::JainVazirani => "jv",
            SolverKind::PayDual => "paydual",
            SolverKind::MetricBall => "metricball",
            SolverKind::MetricOutliers => "outliers",
            SolverKind::Auto => "auto",
        }
    }

    /// The concrete kind a request for `self` runs on `instance`: the
    /// identity for every concrete kind, and the classifier decision tree
    /// for [`SolverKind::Auto`] — never returns `Auto`.
    ///
    /// The tree (see DESIGN.md §3.7): instances the
    /// [`classify::Metricity`] verdict admits as metric route to
    /// [`SolverKind::MetricBall`] (the constant-factor specialist); the
    /// rest route by size, [`SolverKind::LocalSearch`] up to
    /// [`AUTO_LOCAL_SEARCH_LINK_LIMIT`] links and [`SolverKind::Greedy`]
    /// beyond. The classifier is a pure function of the instance, so the
    /// route — and therefore the response — is byte-deterministic.
    ///
    /// ```
    /// use distfl_core::SolverKind;
    /// use distfl_instance::generators::{Euclidean, InstanceGenerator};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let metric = Euclidean::new(5, 20)?.generate(7)?;
    /// assert_eq!(SolverKind::Auto.resolve(&metric), SolverKind::MetricBall);
    /// assert_eq!(SolverKind::Greedy.resolve(&metric), SolverKind::Greedy);
    /// # Ok(())
    /// # }
    /// ```
    pub fn resolve(self, instance: &Instance) -> SolverKind {
        match self {
            SolverKind::Auto => {
                let profile = classify::classify(instance);
                if profile.metricity.admits_metric_solver() {
                    SolverKind::MetricBall
                } else if profile.links <= AUTO_LOCAL_SEARCH_LINK_LIMIT {
                    SolverKind::LocalSearch
                } else {
                    SolverKind::Greedy
                }
            }
            concrete => concrete,
        }
    }

    /// Runs the selected solver on `instance`.
    ///
    /// `seed` drives all randomness (only [`SolverKind::PayDual`] draws
    /// any); sequential kinds accept and ignore it, so a request is one
    /// uniform triple regardless of kind.
    ///
    /// # Errors
    ///
    /// Propagates the underlying algorithm's [`CoreError`] (e.g. invalid
    /// parameters or CONGEST model violations).
    pub fn solve(self, instance: &Instance, seed: u64) -> Result<Outcome, CoreError> {
        match self {
            SolverKind::Greedy => StarGreedy::new().run(instance, seed),
            SolverKind::LocalSearch => {
                let (start, _alphas) = greedy::solve(instance);
                let run = localsearch::optimize(instance, &start, LOCAL_SEARCH_MAX_MOVES);
                Ok(Outcome::sequential(run.solution))
            }
            SolverKind::JainVazirani => JainVazirani::unchecked().run(instance, seed),
            SolverKind::PayDual => PayDual::new(PayDualParams::default()).run(instance, seed),
            SolverKind::MetricBall => {
                MetricBall::new(MetricBallParams::default()).run(instance, seed)
            }
            SolverKind::MetricOutliers => {
                Outliers::new(OutliersParams::default()).run(instance, seed)
            }
            SolverKind::Auto => self.resolve(instance).solve(instance, seed),
        }
    }

    /// Runs the selected solver through a [`WarmCache`] kept in sync with
    /// `instance`, producing **bit-identical** output to [`Self::solve`]
    /// on the same inputs — the property the serve layer's session cache
    /// rests on.
    ///
    /// Every concrete kind solves in a session. The sequential kinds reuse
    /// the cache's instance-derived structures; the distributed kinds
    /// ([`SolverKind::PayDual`], [`SolverKind::MetricBall`],
    /// [`SolverKind::MetricOutliers`]) have none to reuse, since their cost
    /// is the CONGEST run itself, so they run cold on the session's current
    /// instance, exactly as a stateless solve does. [`SolverKind::Auto`]
    /// alone declines, with the typed [`CoreError::WarmUnsupported`]: it
    /// could re-route mid-session (a classifier flip after a mutation),
    /// which would break the session's fixed-kind contract. Callers that
    /// want `auto` on a mutating instance should solve cold per revision.
    ///
    /// # Errors
    ///
    /// Propagates the underlying algorithm's [`CoreError`], exactly as
    /// [`Self::solve`] does, and [`CoreError::WarmUnsupported`] for
    /// [`SolverKind::Auto`].
    pub fn solve_warm(
        self,
        instance: &Instance,
        seed: u64,
        warm: &mut WarmCache,
    ) -> Result<Outcome, CoreError> {
        match self {
            SolverKind::Greedy => {
                let run = warm.solve_greedy(instance);
                // Dual-fitting certificate, as in `StarGreedy::run`.
                let h = crate::theory::harmonic(instance.num_clients());
                let alpha: Vec<f64> = run.ratios.iter().map(|r| r / h).collect();
                Ok(Outcome {
                    solution: run.solution,
                    transcript: None,
                    dual: Some(distfl_lp::DualSolution::new(alpha)),
                    modeled_rounds: None,
                })
            }
            SolverKind::LocalSearch => {
                let run = warm.solve_local_search(instance, LOCAL_SEARCH_MAX_MOVES);
                Ok(Outcome::sequential(run.solution))
            }
            SolverKind::JainVazirani => {
                let (solution, dual) = warm.solve_jv(instance);
                Ok(Outcome { solution, transcript: None, dual: Some(dual), modeled_rounds: None })
            }
            SolverKind::PayDual | SolverKind::MetricBall | SolverKind::MetricOutliers => {
                self.solve(instance, seed)
            }
            SolverKind::Auto => Err(CoreError::WarmUnsupported { kind: self.name() }),
        }
    }
}

impl std::fmt::Display for SolverKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for SolverKind {
    type Err = CoreError;

    /// Parses a protocol name. Accepted spellings per kind:
    /// `greedy`; `local-search` / `localsearch` / `local_search`;
    /// `jv` / `jain-vazirani`; `paydual` / `pay-dual`;
    /// `metricball` / `metric-ball` / `metric`; `outliers` / `robust`;
    /// `auto`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "greedy" => Ok(SolverKind::Greedy),
            "local-search" | "localsearch" | "local_search" => Ok(SolverKind::LocalSearch),
            "jv" | "jain-vazirani" => Ok(SolverKind::JainVazirani),
            "paydual" | "pay-dual" => Ok(SolverKind::PayDual),
            "metricball" | "metric-ball" | "metric" => Ok(SolverKind::MetricBall),
            "outliers" | "robust" => Ok(SolverKind::MetricOutliers),
            "auto" => Ok(SolverKind::Auto),
            other => Err(CoreError::InvalidParams {
                reason: format!(
                    "unknown solver '{other}' (expected greedy, local-search, jv, paydual, \
                     metricball, outliers, or auto)"
                ),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distfl_instance::generators::{Euclidean, InstanceGenerator, UniformRandom};

    #[test]
    fn names_round_trip_through_from_str() {
        for kind in SolverKind::ALL {
            assert_eq!(kind.name().parse::<SolverKind>().unwrap(), kind);
            assert_eq!(kind.to_string(), kind.name());
        }
        assert_eq!("JAIN-VAZIRANI".parse::<SolverKind>().unwrap(), SolverKind::JainVazirani);
        assert_eq!(" localsearch ".parse::<SolverKind>().unwrap(), SolverKind::LocalSearch);
    }

    #[test]
    fn unknown_names_are_rejected_with_the_menu() {
        let err = "simplex".parse::<SolverKind>().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("simplex"), "{msg}");
        assert!(msg.contains("paydual"), "{msg}");
    }

    #[test]
    fn every_kind_solves_feasibly_and_deterministically() {
        let inst = UniformRandom::new(6, 25).unwrap().generate(11).unwrap();
        for kind in SolverKind::ALL {
            let a = kind.solve(&inst, 5).unwrap();
            a.solution.check_feasible(&inst).unwrap();
            let b = kind.solve(&inst, 5).unwrap();
            assert_eq!(a.solution, b.solution, "{kind} not deterministic");
            match kind {
                SolverKind::PayDual | SolverKind::MetricBall | SolverKind::MetricOutliers => {
                    assert!(a.transcript.is_some(), "{kind} should report rounds")
                }
                // Auto routes this small non-metric instance to the
                // sequential local search, which has no transcript.
                _ => assert!(a.transcript.is_none(), "{kind} should be sequential here"),
            }
        }
    }

    #[test]
    fn auto_routes_metric_instances_to_metricball() {
        let metric = Euclidean::new(6, 24).unwrap().generate(3).unwrap();
        assert_eq!(SolverKind::Auto.resolve(&metric), SolverKind::MetricBall);
        let via_auto = SolverKind::Auto.solve(&metric, 9).unwrap();
        let direct = SolverKind::MetricBall.solve(&metric, 9).unwrap();
        assert_eq!(via_auto.solution, direct.solution, "auto must equal its route");
    }

    #[test]
    fn auto_routes_small_non_metric_instances_to_local_search() {
        let inst = UniformRandom::new(6, 25).unwrap().generate(11).unwrap();
        assert_eq!(SolverKind::Auto.resolve(&inst), SolverKind::LocalSearch);
        let via_auto = SolverKind::Auto.solve(&inst, 2).unwrap();
        let direct = SolverKind::LocalSearch.solve(&inst, 2).unwrap();
        assert_eq!(via_auto.solution, direct.solution);
    }

    #[test]
    fn resolve_never_returns_auto_and_is_identity_on_concrete_kinds() {
        let inst = UniformRandom::new(4, 12).unwrap().generate(0).unwrap();
        for kind in SolverKind::ALL {
            let resolved = kind.resolve(&inst);
            assert_ne!(resolved, SolverKind::Auto);
            if kind != SolverKind::Auto {
                assert_eq!(resolved, kind);
            }
        }
    }

    #[test]
    fn auto_alone_declines_warm_sessions_with_a_typed_error() {
        let inst = UniformRandom::new(4, 12).unwrap().generate(0).unwrap();
        let mut warm = WarmCache::new();
        match SolverKind::Auto.solve_warm(&inst, 1, &mut warm) {
            Err(CoreError::WarmUnsupported { kind: name }) => assert_eq!(name, "auto"),
            other => panic!("auto should decline warm sessions, got {other:?}"),
        }
    }

    #[test]
    fn local_search_never_loses_to_its_greedy_start() {
        let inst = UniformRandom::new(8, 40).unwrap().generate(3).unwrap();
        let g = SolverKind::Greedy.solve(&inst, 0).unwrap();
        let ls = SolverKind::LocalSearch.solve(&inst, 0).unwrap();
        assert!(
            ls.solution.cost(&inst).value() <= g.solution.cost(&inst).value() + 1e-9,
            "local search worse than its start"
        );
    }
}
