//! # distfl-congest
//!
//! A deterministic, synchronous message-passing simulator for the **CONGEST**
//! model of distributed computing, built as the execution substrate for the
//! distributed facility-location algorithms of Moscibroda–Wattenhofer
//! (PODC 2005) reproduced by the `distfl` workspace.
//!
//! ## Model
//!
//! A network is an undirected graph of `N` nodes. Computation proceeds in
//! synchronous rounds. In every round each node:
//!
//! 1. receives all messages sent to it in the previous round,
//! 2. performs arbitrary local computation, and
//! 3. sends at most one message per incident edge, each of bounded size
//!    (`O(log N)` bits; numeric fields of fixed precision are charged a
//!    constant number of machine words).
//!
//! The simulator *enforces and measures* this discipline: it counts rounds,
//! messages, and message bits; it fails a round in which a node sends to a
//! non-neighbor or sends twice over one edge. Message sizes are recorded,
//! not enforced. Results are bit-for-bit deterministic for a given master
//! seed, whether execution is serial or parallel.
//!
//! ## Quick example
//!
//! A two-round "ping-pong" protocol on a ring:
//!
//! ```
//! use distfl_congest::{Network, NodeId, NodeLogic, Payload, StepCtx, Topology};
//!
//! #[derive(Clone, Debug)]
//! struct Ping(u64);
//! impl Payload for Ping {
//!     fn size_bits(&self) -> u64 { 64 }
//! }
//!
//! struct Echo { heard: u64, done: bool }
//! impl NodeLogic for Echo {
//!     type Msg = Ping;
//!     fn step(&mut self, ctx: &mut StepCtx<'_, Ping>) {
//!         if ctx.round() == 0 {
//!             ctx.broadcast(Ping(u64::from(ctx.id().index() as u32)));
//!         } else {
//!             self.heard = ctx.inbox().iter().map(|(_, m)| m.0).sum();
//!             self.done = true;
//!         }
//!     }
//!     fn is_done(&self) -> bool { self.done }
//! }
//!
//! # fn main() -> Result<(), distfl_congest::CongestError> {
//! let topo = Topology::ring(5)?;
//! let nodes = (0..5).map(|_| Echo { heard: 0, done: false }).collect();
//! let mut net = Network::new(topo, nodes, 42)?;
//! let transcript = net.run(10)?;
//! assert_eq!(transcript.num_rounds(), 2);
//! assert!(net.nodes().iter().all(|n| n.done));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bfs;
mod engine;
mod error;
mod fault;
mod message;
mod metrics;
mod node;
mod rng;
pub mod sim;
mod topology;

pub use engine::{CongestConfig, Network, StepCtx};
pub use error::CongestError;
pub use fault::FaultPlan;
pub use message::Payload;
pub use metrics::{RoundStats, Transcript};
pub use sim::{LatencyModel, SimConfig, SimReport, Simulator};

// The worker pool parallel steps dispatch to; re-exported so callers can
// hand the engine an explicitly sized pool (`CongestConfig::pool`) without
// depending on `distfl-pool` directly.
pub use distfl_pool::WorkerPool;
pub use node::{NodeId, NodeLogic};
pub use rng::NodeRng;
pub use topology::Topology;
