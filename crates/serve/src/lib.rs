//! # distfl-serve
//!
//! The outward-facing layer of the `distfl` workspace: a TCP solver
//! service that accepts **newline-delimited JSON** solve requests,
//! batches them through a bounded admission queue onto the shared
//! [`distfl_pool::WorkerPool`], and streams back deterministic responses.
//!
//! Pipeline: a readiness-driven **reactor** ([`reactor`]: epoll on
//! Linux, a timed sweep elsewhere) owns every socket nonblocking →
//! pipelined NDJSON framing ([`frame`]) slices complete lines out of
//! each read burst → [`proto`] parse → per-core **sharded admission**
//! (the burst enters one of N [`queue::Admission`] queues as a single
//! group; full = typed `queue_full` error, never a hang) →
//! [`scheduler`] batch → pool workers ([`distfl_core::SolverKind`]
//! dispatch) → bounded per-connection write buffer (overflow = the
//! client is shed with a typed `slow_reader` error, never unbounded
//! memory). Per-request spans and the `serve.requests` /
//! `serve.bytes_read` / `serve.bytes_written` /
//! `serve.pipelined_requests` / `serve.reactor_wakeups` /
//! `serve.open_connections` / `serve.queue_depth` /
//! `serve.batch_size` metrics land in the [`distfl_obs`] registry when
//! tracing is enabled.
//!
//! Responses are **byte-deterministic**: for a fixed request line and
//! seed, the response bytes are identical across server restarts, worker
//! counts, and batch compositions. Shutdown is a **graceful drain**
//! (`{"cmd":"shutdown"}` or [`Server::shutdown`]): everything admitted
//! is answered before the server exits.
//!
//! ```
//! use std::io::{BufRead, BufReader, Write};
//! use std::net::TcpStream;
//! use distfl_serve::{ServeConfig, Server};
//!
//! # fn main() -> std::io::Result<()> {
//! let server = Server::start("127.0.0.1:0", ServeConfig::default())?;
//! let mut conn = TcpStream::connect(server.local_addr())?;
//! writeln!(
//!     conn,
//!     r#"{{"id":"r1","solver":"greedy","instance":{{"opening":[4.0,3.0],"links":[[0,1.0,1,2.0],[1,0.5]]}}}}"#
//! )?;
//! let mut response = String::new();
//! BufReader::new(&conn).read_line(&mut response)?;
//! assert!(response.contains(r#""id":"r1","ok":true"#), "{response}");
//! assert!(response.contains(r#""cost":5.5"#), "{response}");
//! server.shutdown();
//! # Ok(())
//! # }
//! ```

// Unsafe is denied crate-wide; the single exception is the raw syscall
// shim in `reactor::sys` (epoll/setsockopt FFI), which opts back in
// locally with `#[allow(unsafe_code)]`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod conn;
pub mod frame;
pub mod proto;
pub mod queue;
pub mod reactor;
pub mod scheduler;
mod server;
pub mod session;

pub use server::{BatchHook, ServeConfig, Server};

/// The request reader: the workspace's one JSON reader, which lives in
/// `distfl-obs` next to the writer.
pub mod json {
    pub use distfl_obs::Json;
}
