//! # lcmsr-service
//!
//! A concurrent query-serving subsystem for the LCMSR engine: the paper
//! frames region-of-interest retrieval as an *interactive* primitive — many
//! users issue queries against one shared road network and expect sub-second
//! answers — and this crate is the front-end that carries
//! [`lcmsr_core::engine::LcmsrEngine`] from a library to a service.
//!
//! Everything is hand-rolled on `std::net` (the build environment has no
//! crates.io access):
//!
//! * [`http`] — a minimal HTTP/1.1 listener: an acceptor thread and one
//!   thread per connection, at most `http_workers` at once (later
//!   connections wait in the listen backlog), keep-alive, byte limits,
//!   graceful shutdown; a panicking request closes only its own connection;
//! * [`json`] — a JSON codec (encoder + recursive-descent decoder with a
//!   nesting cap) whose `f64` round-trip is bit-exact;
//! * [`api`] — the wire types: query requests (`algorithm`, `keywords`,
//!   `rect`, `budget`, optional `k`) and region responses with full
//!   [`lcmsr_core::stats::RunStats`] including queue wait;
//! * [`scheduler`] — the heart: an **admission scheduler** with two
//!   priority lanes (interactive callers get free permits first).  Each
//!   query runs on the thread of the connection that received it, once one of
//!   `batch_workers` permits is free; callers wait for a permit in their
//!   lane, FIFO.  There is no batching window, so an idle service starts a
//!   query as soon as it is admitted.  A request that finds `queue_capacity`
//!   callers already parked is shed with `503`, and a request whose
//!   `deadline_ms` is already blown — or predicted to be blown by the
//!   callers ahead of it in its lane — is shed up front with `503` +
//!   `Retry-After` instead of burning engine time; deadlines that expire
//!   while parked or mid-solve yield the solver's best-so-far answer with
//!   `"partial": true`;
//! * [`metrics`] — atomically-maintained counters and a fixed-bucket latency
//!   histogram behind `/metrics`, plus `/healthz`;
//! * [`client`] — a tiny blocking client for tests and the benchmark's
//!   served workload;
//! * [`diag`] — per-query diagnostics: `X-Request-Id` propagation, rings of
//!   recently completed and slow query traces behind `/debug/trace/recent`
//!   and `/debug/slow`, and the sampled slow-query log.
//!
//! ## Starting a server
//!
//! ```no_run
//! use lcmsr_datagen::prelude::*;
//! use lcmsr_service::{leak_engine, serve, ServiceConfig};
//!
//! let dataset = Dataset::build(DatasetConfig::tiny(42));
//! let engine = leak_engine(dataset.network, dataset.collection);
//! let handle = serve(engine, ServiceConfig::default()).unwrap();
//! println!("listening on http://{}", handle.addr());
//! handle.wait();
//! ```
//!
//! The engine must be `'static` because handler threads outlive any stack
//! frame; [`leak_engine`] trades one permanent allocation for that (a server
//! holds its dataset for the process lifetime anyway).

#![warn(missing_docs)]

pub mod api;
pub mod client;
pub mod diag;
pub mod http;
pub mod json;
pub mod metrics;
pub mod scheduler;
pub mod service;
mod sync;

pub use api::{QueryRequest, QueryResponse, RegionDto, StatsDto};
pub use client::{ClientResponse, HttpClient};
pub use diag::{Diagnostics, DiagnosticsConfig};
pub use metrics::ServiceMetrics;
pub use scheduler::{BatchConfig, Scheduler};
pub use service::{serve, ServiceConfig, ServiceHandle};

use lcmsr_core::engine::LcmsrEngine;
use lcmsr_geotext::collection::ObjectCollection;
use lcmsr_roadnet::graph::RoadNetwork;

/// Leaks a network and collection to obtain a process-lifetime engine for
/// serving.
///
/// `LcmsrEngine` borrows its dataset; service threads need `'static`
/// references.  A server owns its dataset until the process exits, so leaking
/// the two allocations (plus the engine itself) is the honest way to express
/// that without `unsafe` (which the workspace denies) or reworking the
/// engine's borrow-based API that every solver test depends on.
pub fn leak_engine(
    network: RoadNetwork,
    collection: ObjectCollection,
) -> &'static LcmsrEngine<'static> {
    let network: &'static RoadNetwork = Box::leak(Box::new(network));
    let collection: &'static ObjectCollection = Box::leak(Box::new(collection));
    Box::leak(Box::new(LcmsrEngine::new(network, collection)))
}
