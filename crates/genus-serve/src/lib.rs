//! genus-serve: a concurrent execution service for Genus programs.
//!
//! Converts the batch compiler into a long-running server: JSON-lines
//! requests (over stdin/stdout or a TCP listener) are compiled **once
//! per distinct source** into a content-hash-keyed shared [`cache`],
//! dispatched to a fixed worker [`pool`], and executed under per-request
//! resource governance — a fuel budget and heap cap threaded through
//! both engines' dispatch loops (trap codes `R0009` / `R0010`) plus a
//! scheduler-enforced wall-clock deadline.
//!
//! What makes the cache sound is the paper's central design point:
//! Genus resolves models per instantiation, modularly, so a checked
//! program is self-contained — nothing about one request's
//! instantiations can invalidate another's, and the same compiled
//! program (checked AST + `Arc`'d bytecode) can serve any number of
//! concurrent requests.
//!
//! # Examples
//!
//! ```
//! use genus_serve::{Request, ServeConfig, Server};
//!
//! let server = Server::new(ServeConfig { workers: 2, ..ServeConfig::default() });
//! let mut req = Request::new("r1", "int main() { return 40 + 2; }");
//! req.limits.fuel = Some(10_000);
//! let resp = &server.run_batch(vec![req])[0];
//! assert_eq!(resp.to_json_line().contains("\"outcome\":\"ok\""), true);
//! server.shutdown();
//! ```

pub mod cache;
pub mod metrics;
pub mod persist;
pub mod pool;
pub mod proto;
pub mod server;
pub mod session;

pub use cache::{CachedProgram, ProgramCache, ProgramCacheStats};
pub use genus_vm::exec::Engine;
pub use metrics::ServerMetrics;
pub use persist::{DiskCache, FORMAT_VERSION};
pub use pool::WorkerPool;
pub use proto::{Action, Outcome, Request, Response, SessionReuse};
pub use server::{ServeConfig, Server, DEFAULT_FUEL};
pub use session::SessionRegistry;
