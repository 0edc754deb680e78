//! # distfl-instance
//!
//! Problem instances for **uncapacitated facility location (UFL)** — the
//! workload substrate of the `distfl` reproduction of Moscibroda–Wattenhofer
//! (PODC 2005).
//!
//! An [`Instance`] is a bipartite structure: `m` facilities with opening
//! costs, `n` clients, and per-pair connection costs stored sparsely (an
//! absent pair means the client cannot use that facility; in the distributed
//! model it also means there is no communication edge). All costs are
//! validated non-negative finite numbers behind the [`Cost`] newtype, and
//! an instance's positive costs lie in [`MIN_POSITIVE_COST`]`..=`[`MAX_COST`].
//!
//! The crate also provides:
//!
//! * [`Solution`] — an open-set + assignment with feasibility checking and
//!   cost evaluation,
//! * the [`generators`] module — workload families spanning the axes the
//!   paper's bounds depend on (metric vs non-metric, low vs high coefficient
//!   spread `ρ`, sparse vs dense),
//! * [`spread`] — the coefficient-spread quantities `ρ` and `B` that drive
//!   the round/approximation trade-off,
//! * [`metric`] — metricity diagnostics, and [`classify`] — the
//!   deterministic instance profiler behind `SolverKind::Auto` routing,
//! * [`textio`] — a dependency-free plain-text serialization format,
//! * [`orlib`] — reader/writer for the OR-Library benchmark format.
//!
//! ```
//! use distfl_instance::generators::{InstanceGenerator, UniformRandom};
//!
//! # fn main() -> Result<(), distfl_instance::InstanceError> {
//! let gen = UniformRandom::new(10, 40)?;
//! let inst = gen.generate(7)?;
//! assert_eq!(inst.num_facilities(), 10);
//! assert_eq!(inst.num_clients(), 40);
//! assert!(distfl_instance::spread::coefficient_spread(&inst) >= 1.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classify;
mod cost;
mod error;
pub mod generators;
mod instance;
pub mod metric;
pub mod orlib;
mod solution;
pub mod spread;
pub mod textio;
pub mod transform;

pub use cost::{Cost, MAX_COST, MIN_POSITIVE_COST};
pub use error::InstanceError;
pub use instance::delta::{DeltaBatch, DeltaReport, PendingClient};
pub use instance::{ClientId, FacilityId, Instance, InstanceBuilder, LinkSlice, RowBuilder};
pub use solution::Solution;
