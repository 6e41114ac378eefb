//! # drhw-net
//!
//! The concurrent TCP serving tier of the DRHW workspace: one listener,
//! many simultaneous connections, every connection a *session* speaking the
//! same JSON-lines protocol as the stdin/stdout `engine_serve` front-end
//! ([`drhw_engine::serve`](mod@drhw_engine::serve)), all multiplexed onto one shared
//! [`Engine`](drhw_engine::Engine).
//!
//! What the tier adds on top of the single-client protocol:
//!
//! * **Per-client job queues with priorities** — each session owns a
//!   bounded queue; the `priority` envelope field reorders jobs within it
//!   (higher first, submission order on ties), so a session's transcript
//!   without priorities is byte-identical to the stdin/stdout front-end's.
//! * **Admission control with backpressure** — a per-client quota and a
//!   server-wide pending bound. An over-quota submit gets an *immediate*
//!   structured `rejected` line naming the client and the limit, instead of
//!   queueing unboundedly.
//! * **Graceful drain** — [`ServerHandle::shutdown`] (or the wire
//!   `{"cmd":"shutdown"}` command, or SIGTERM in the `engine_net` binary)
//!   stops the listener accepting work, refuses late connections with a
//!   structured reason, lets every accepted job finish (exactly one
//!   terminal line each), flushes every session and returns.
//!
//! ```no_run
//! use std::sync::Arc;
//! use drhw_engine::Engine;
//! use drhw_net::{Server, ServerConfig};
//!
//! let engine = Arc::new(Engine::builder().build());
//! let server = Server::start(engine, ServerConfig::default()).expect("bind");
//! println!("listening on {}", server.local_addr());
//! server.handle().shutdown();
//! let stats = server.join();
//! assert_eq!(stats.jobs_completed, 0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

mod config;
mod server;
mod session;
mod wire;

pub use config::ServerConfig;
pub use server::{Server, ServerHandle, ServerStats};
pub use wire::{refused_json, rejected_json, RejectScope};
