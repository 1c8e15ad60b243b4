//! # lcmsr
//!
//! A Rust implementation of **Length-Constrained Maximum-Sum Region (LCMSR)**
//! queries over road networks — a reproduction of *"Retrieving Regions of
//! Interest for User Exploration"* (Xin Cao, Gao Cong, Christian S. Jensen,
//! Man Lung Yiu; PVLDB 7(9): 733–744, 2014).
//!
//! Given a road network whose nodes host geo-textual objects (points of
//! interest with textual descriptions), an LCMSR query `⟨ψ, ∆, Λ⟩` finds the
//! connected subgraph inside the rectangle `Λ` whose total road length is at
//! most `∆` and whose objects are most relevant to the keywords `ψ` — the
//! "best neighbourhood to explore" for a user who wants to browse several
//! relevant places on foot.
//!
//! This crate is a facade over the workspace:
//!
//! * [`roadnet`] — road-network graph substrate (graph model, DIMACS reader,
//!   traversal, synthetic generators),
//! * [`geotext`] — geo-textual objects, TF–IDF scoring, a grid index whose
//!   per-cell inverted lists share one flat CSR,
//! * [`datagen`] — synthetic NY-like / USANW-like data sets and query workloads,
//! * [`core`] — the LCMSR algorithms: APP (5+ε approximation), TGEN, Greedy,
//!   their top-k variants, an exact reference solver and the MaxRS baseline,
//! * [`service`] — a concurrent HTTP serving subsystem: each query runs on
//!   its HTTP worker under priority-laned permits, hand-rolled JSON codec,
//!   `/healthz` and `/metrics`.
//!
//! # Quick start
//!
//! ```
//! use lcmsr::prelude::*;
//!
//! // Build a small synthetic city and index its points of interest.
//! let dataset = Dataset::build(DatasetConfig::tiny(42));
//! let engine = LcmsrEngine::new(&dataset.network, &dataset.collection);
//!
//! // Ask for a walkable region of restaurants.
//! let roi = dataset.network.bounding_rect().unwrap();
//! let query = LcmsrQuery::new(["restaurant"], 1_500.0, roi).unwrap();
//! let request = QueryRequest::new(&query, Algorithm::Tgen(TgenParams { alpha: 50.0 }));
//! let outcome = engine.execute(&request).unwrap();
//! if let Some(region) = outcome.best() {
//!     assert!(region.length <= 1_500.0);
//!     assert!(region.weight > 0.0);
//! }
//! ```

pub use lcmsr_core as core;
pub use lcmsr_datagen as datagen;
pub use lcmsr_geotext as geotext;
pub use lcmsr_roadnet as roadnet;
pub use lcmsr_service as service;

/// One-stop re-exports for applications.
pub mod prelude {
    pub use lcmsr_core::prelude::*;
    pub use lcmsr_datagen::prelude::*;
    pub use lcmsr_geotext::prelude::*;
    pub use lcmsr_roadnet::prelude::*;
    // The wire DTO is aliased so the engine's `QueryRequest` — the primary
    // query surface since PR 6 — keeps the unqualified name.
    pub use lcmsr_service::{
        leak_engine, serve, BatchConfig, HttpClient, QueryRequest as WireQueryRequest,
        QueryResponse, ServiceConfig,
    };
}
