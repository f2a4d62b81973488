//! dagscope-serve: an online DAG query service over a characterized sample.
//!
//! The batch pipeline answers "what does this workload look like?" once;
//! this crate keeps the answer queryable. It loads an
//! [`IndexSnapshot`](dagscope_core::IndexSnapshot) written by the pipeline
//! into an immutable in-memory [`ServeIndex`] and serves JSON over a
//! hand-rolled HTTP/1.1 stack — a non-blocking epoll event loop
//! ([`reactor`]) multiplexing every connection, with CPU work on the
//! [`dagscope_par::WorkerPool`]; no external dependencies:
//!
//! | Endpoint | Answers |
//! |---|---|
//! | `POST /v1/classify` | reconstruct a DAG from `batch_task` rows, place it in a group |
//! | `POST /v1/advise` | scheduling hints (predicted work / critical path, priority, confidence) from the group model |
//! | `GET /v1/jobs/{name}` | structural features + group of an indexed job |
//! | `GET /v1/similar/{name}?k=` | top-k WL-nearest indexed jobs |
//! | `GET /v1/census` | group populations and shape-pattern counts |
//! | `GET /healthz` | liveness + index size |
//! | `GET /metrics` | request counts and latency histograms |
//!
//! **Concurrency model.** One reactor thread owns every socket:
//! level-triggered epoll readiness drives per-connection state machines
//! (read → dispatch → write → keep-alive), a timer wheel carries
//! request deadlines and idle expiries, and workers return results
//! through a completion queue plus a self-pipe waker — sockets never
//! block and never cross threads. Every parsed request, classify
//! included, is one pool task. The index itself is built once and never
//! mutated: probes embed against the frozen WL vocabulary
//! ([`dagscope_wl::KernelCache::probe`]) with novel labels resolved in a
//! call-local overlay, so every worker reads shared state lock-free.
//! Classification online is **bit-identical** to the offline pipeline
//! because the index replays the same deterministic derivation chain
//! over the snapshot's rows.

// `deny` rather than `forbid`: the reactor's `sys` module carries the
// crate's one scoped `#[allow(unsafe_code)]` for the raw epoll/pipe FFI;
// everything else stays unsafe-free and the lint catches regressions.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod http;
pub mod index;
pub mod json;
pub mod metrics;
pub mod reactor;
pub mod server;

pub use client::{ClientResponse, RetriesExhausted, RetryPolicy};
pub use http::MAX_BODY;
pub use index::{AdviseOutcome, ClassifyOutcome, Neighbour, ServeIndex};
pub use json::Json;
pub use metrics::{Endpoint, Metrics};
pub use server::{Server, ServerConfig, ServerHandle};
