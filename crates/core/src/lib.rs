//! # distfl-core
//!
//! Distributed approximation algorithms for uncapacitated facility location
//! in the CONGEST model — the primary contribution of the `distfl`
//! reproduction of **“Facility Location: Distributed Approximation”
//! (Moscibroda–Wattenhofer, PODC 2005)**.
//!
//! ## The reproduced result
//!
//! For every round budget `k`, a distributed algorithm computes an
//! `O(√k·(m·ρ)^{1/√k}·log(m+n))`-approximation in `O(k)` communication
//! rounds, where `ρ` is the instance's coefficient spread. This crate
//! reconstructs that technique family (the paper's exact pseudo-code is
//! unavailable; see DESIGN.md):
//!
//! * [`paydual::PayDual`] — distributed dual ascent with per-client
//!   geometric raising; `s` phases cost `3s + O(1)` rounds and lose a
//!   per-phase factor `γ = B^{1/s}`,
//! * [`bucket::GreedyBucket`] — the two-level (`s_out × s_in`) bucketed
//!   parallel greedy mirroring the paper's `√k × √k` nesting,
//! * [`round::distributed_round`] — distributed randomized rounding of fractional
//!   openings (the `log(m+n)` factor),
//!
//! plus the baselines a credible evaluation needs: sequential star greedy
//! ([`greedy`]), Jain–Vazirani ([`jv`]) and Mettu–Plaxton ([`mp`])
//! 3-approximations for metric instances, and the straw-man simulated
//! sequential greedy ([`seqsim`]) whose round count the paper's algorithm
//! beats.
//!
//! ## Quick start
//!
//! ```
//! use distfl_core::paydual::{PayDual, PayDualParams};
//! use distfl_core::FlAlgorithm;
//! use distfl_instance::generators::{InstanceGenerator, UniformRandom};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let instance = UniformRandom::new(8, 30)?.generate(42)?;
//! let algo = PayDual::new(PayDualParams::with_phases(6));
//! let outcome = algo.run(&instance, 1)?;
//! outcome.solution.check_feasible(&instance)?;
//! println!(
//!     "cost {} in {} CONGEST rounds",
//!     outcome.solution.cost(&instance),
//!     outcome.transcript.unwrap().num_rounds()
//! );
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod bucket;
pub mod capacitated;
mod dispatch;
mod error;
pub mod fraclp;
pub mod greedy;
pub mod jv;
pub mod kmedian;
pub mod localsearch;
pub mod metricball;
mod model;
pub mod mp;
pub mod outliers;
pub mod paydual;
mod report;
pub mod round;
mod runner;
pub mod seqdist;
pub mod seqsim;
pub mod theory;
pub mod warm;

pub use dispatch::{SolverKind, AUTO_LOCAL_SEARCH_LINK_LIMIT};
pub use error::CoreError;
pub use model::{client_node, facility_node, node_role, topology_of, Node, Role};
pub use report::RunReport;
pub use runner::{evaluate, FlAlgorithm, Outcome};
