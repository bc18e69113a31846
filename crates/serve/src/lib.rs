//! quill-serve: a resident multi-tenant streaming daemon over
//! [`quill_core`]'s session API.
//!
//! One daemon process owns one [`Session`](quill_core::prelude::Session)
//! — a single shared disorder-control core — and fans its staged stream
//! out to any number of concurrently registered continuous queries, each
//! with its own quality target and bounded result subscription.
//!
//! * **Ingest**: one TCP port accepting newline-delimited text or
//!   length-prefixed binary frames ([`wire`]), with per-source heartbeats
//!   for punctuation-driven strategies, per-connection timeouts and idle
//!   eviction ([`config::ConnConfig`]), and a bounded queue whose
//!   backpressure propagates to sources through the TCP receive window.
//! * **Control**: an HTTP port exposing Prometheus metrics, live query
//!   registration/deregistration, result polling and graceful drain
//!   ([`http`]).
//! * **Clients**: [`client::IngestClient`] streams frames with reconnect
//!   support; `quill-ingest` wraps it as a fixture-sending CLI.
//! * **Plan text**: strategies and queries are read and listed in
//!   [`quill_core::dsl`]'s vocabulary — the one the simulator's
//!   reproducers and the experiments also write — re-exported as
//!   [`StrategySpec`], [`config::parse_query`] and [`config::query_to_dsl`].
//!
//! Start a daemon in-process with [`Server::start`], or from the CLI:
//!
//! ```text
//! quill-serve --ingest 127.0.0.1:7001 --http 127.0.0.1:7002 \
//!     --strategy aq:0.95 --query 'tumbling:1000;sum:0:total;key=1'
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod client;
pub mod config;
pub mod error;
pub mod http;
pub mod json;
pub mod server;
pub mod wire;

pub use client::IngestClient;
pub use config::{ConnConfig, RetryPolicy, ServeConfig, StrategySpec};
pub use error::{ServeError, ServeResult};
pub use server::{Server, ServerHandle};
pub use wire::Frame;
