//! # uninet-server
//!
//! The serving plane: a threaded wire-protocol front-end over a cloned
//! [`uninet_core::Engine`].
//!
//! The engine facade already supports cheap cloning (one `Arc` bump) and
//! lock-free epoch-snapshot reads; this crate puts a socket in front of it:
//!
//! * [`serve`] binds a TCP address or Unix socket and answers the
//!   length-prefixed binary protocol in [`proto`] — `vector`, `cosine`,
//!   `top_k`, `top_k_batch`, `metrics`, `epoch`.
//! * **One snapshot per request, answered on its connection thread**: the
//!   thread that read a request takes one embedding snapshot, checks the
//!   request's ids against its universe and answers from it, so the answer
//!   and the epoch it reports always belong together.
//! * **Admission control** bounds data-plane concurrency
//!   ([`ServerConfig::max_inflight`]); excess requests get a typed
//!   `Overloaded` reply instead of unbounded queueing. `metrics` and
//!   `epoch` bypass admission so a saturated instance stays observable.
//! * Per-endpoint latency histograms and request/rejection counters are
//!   registered in the engine's own `MetricsRegistry` under `server.*`,
//!   visible through `Engine::metrics()` and `--metrics-json`.
//!
//! The `uninet` CLI binary lives here too, wiring the durability plane
//! (`--wal-dir`, `--recover`) and the serving plane (`--serve`) onto the
//! engine builder.
//!
//! ```no_run
//! use uninet_core::{Engine, ModelSpec};
//! use uninet_graph::generators::{rmat, RmatConfig};
//! use uninet_server::{serve, Client, ServeAddr, ServerConfig};
//!
//! let graph = rmat(&RmatConfig { num_nodes: 100, num_edges: 600, ..Default::default() });
//! let engine = Engine::builder().graph(graph).model(ModelSpec::DeepWalk).build()?;
//! engine.train()?;
//! let server = serve(&engine, &ServeAddr::parse("127.0.0.1:0"), ServerConfig::default())?;
//! let addr = server.addr().to_string();
//! let mut client = Client::connect(addr.as_str())?;
//! let (epoch, neighbors) = client.top_k(0, 5, Default::default())?;
//! assert!(epoch >= 1 && neighbors.len() <= 5);
//! server.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod client;
pub mod metrics;
pub mod proto;
pub mod server;

pub use client::{Client, ClientError};
pub use metrics::ServerMetrics;
pub use proto::{ErrorCode, ProtoError, Request, Response, MAX_FRAME_BYTES};
pub use server::{serve, ServeAddr, ServerConfig, ServerHandle};
