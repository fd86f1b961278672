//! # ttsnn-serve
//!
//! The **network serving plane**: everything between a TCP socket and
//! the in-process serving cluster of `ttsnn_infer`.
//!
//! * [`wire`] — a length-prefixed, versioned binary protocol carrying
//!   tenant id, priority class, deadline, plan name, and the timestep
//!   tensor payload; logits return as raw f32 bits, so a network answer
//!   is **bit-identical** to the in-process one. Malformed and oversized
//!   frames are rejected in-band without killing the connection.
//! * [`Router`] — several frozen checkpoints (f32 and int8 plans)
//!   mounted behind one listener, routed by plan name, with online
//!   int8-vs-f32 drift measurement ([`Router::drift`]).
//! * [`Server`] — a std-only accept loop plus fixed worker pool
//!   ([`ServerConfig`]: bind address, worker count), speaking the binary
//!   protocol and a minimal HTTP/1.1 side for `GET /metrics`
//!   (Prometheus text exposition, rendered by [`prom`]),
//!   `GET /healthz` (JSON readiness body), `GET /debug/requests`
//!   (the `ttsnn_obs` flight recorder), and `GET /trace?id=<trace>`
//!   (one request as Chrome trace-event JSON).
//! * Request-lifecycle tracing: every frame carries a trace id (minted at
//!   decode when the client sends 0) through the scheduler and back in
//!   the response; stage spans `admit` / `queue_wait` / `batch_form` /
//!   `execute` / `serialize` / `write` feed the per-stage latency
//!   histograms on `/metrics`. Disable with `TTSNN_TRACE=off`.
//! * Overload control lives in `ttsnn_infer::sched`: per-tenant weighted
//!   fair queueing and token-bucket rate limits, surfaced here as
//!   structured retryable wire statuses with retry-after hints.
//! * Continuous telemetry ([`telemetry`]): a background sampler thread
//!   snapshots every plan's metrics into bounded time-series rings,
//!   evaluates multi-window SLO burn rates, and runs a per-plan health
//!   watchdog whose verdict drives `/healthz` (503 + reason when
//!   `Unhealthy`). History is browsable at `GET /debug/slo` and
//!   `GET /debug/timeline`, and exported as `ttsnn_slo_*` /
//!   `ttsnn_health_state` gauges on `/metrics`. Tick, ring size, SLO and
//!   watchdog thresholds are [`TelemetryOptions`] fields of
//!   [`ServerConfig::telemetry`]; `enabled: false` spawns no sampler.
//!
//! The determinism contract survives the network hop: scheduling order,
//! fair-queueing policy, worker count, and replica count change
//! wall-clock only, never a logit bit. `crates/serve/tests/loopback.rs`
//! pins socket-vs-in-process bit equality on both the f32 and int8
//! planes.
//!
//! ## Quickstart
//!
//! ```no_run
//! use ttsnn_serve::{PlanSpec, Router, Server, ServerConfig};
//! use ttsnn_infer::{ArchSpec, ClusterConfig, EngineConfig};
//! use ttsnn_snn::{ConvPolicy, VggConfig};
//!
//! # fn main() -> std::io::Result<()> {
//! # let checkpoint: Vec<u8> = vec![];
//! let cfg = VggConfig::vgg9(3, 10, (8, 8), 16);
//! let router = Router::load(vec![PlanSpec {
//!     name: "vgg-f32".into(),
//!     config: ClusterConfig::new(EngineConfig::new(
//!         ArchSpec::Vgg(cfg),
//!         ConvPolicy::Baseline,
//!         4,
//!     )),
//!     quant: None,
//!     checkpoint,
//! }])?;
//! let config = ServerConfig { addr: "127.0.0.1:7878".into(), ..ServerConfig::default() };
//! let server = Server::bind(config, router)?;
//! println!("serving on {}", server.addr());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod prom;
pub mod router;
pub mod server;
pub mod telemetry;
pub mod wire;

pub use client::{http_get, Client};
pub use router::{PlanSpec, Router};
pub use server::{Server, ServerConfig};
pub use telemetry::{TelemetryOptions, TelemetryPlane, TelemetryShared};
