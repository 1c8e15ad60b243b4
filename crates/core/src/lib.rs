//! # lcmsr-core
//!
//! Length-Constrained Maximum-Sum Region (LCMSR) query processing — the core
//! contribution of "Retrieving Regions of Interest for User Exploration"
//! (Cao, Cong, Jensen, Yiu; PVLDB 7(9), 2014), reimplemented in Rust.
//!
//! Given a road network with geo-textual objects, an LCMSR query
//! `Q = ⟨ψ, ∆, Λ⟩` asks for the connected subgraph ("region") inside the
//! rectangle `Λ` whose total road length is at most `∆` and whose objects are
//! most relevant to the keywords `ψ`.  Answering the query exactly is NP-hard;
//! the crate provides the paper's three algorithms plus supporting machinery:
//!
//! * [`app`] — the (5+ε)-approximation APP (weight scaling + k-MST binary
//!   search + tree dynamic program),
//! * [`tgen`] — the TGEN heuristic (graph-wide region-tuple generation),
//! * [`greedy`] — the fast Greedy expansion,
//! * [`topk`] — top-k variants of all three,
//! * [`kmst`] — APP's node-weighted k-MST oracle (Garg-style λ search over the
//!   GW primal–dual),
//! * [`exact`] — an exhaustive solver used to validate accuracy on small inputs,
//! * [`maxrs`] — the MaxRS fixed-rectangle baseline used in the paper's
//!   comparison study,
//! * [`engine`] — the end-to-end [`engine::LcmsrEngine`] tying indexes and
//!   algorithms together.
//!
//! # Example
//!
//! ```
//! use lcmsr_core::prelude::*;
//! use lcmsr_geotext::prelude::*;
//! use lcmsr_roadnet::prelude::*;
//!
//! // A tiny road network: four nodes along a street.
//! let mut b = GraphBuilder::new();
//! let n: Vec<_> = (0..4).map(|i| b.add_node(Point::new(i as f64 * 100.0, 0.0))).collect();
//! for w in n.windows(2) { b.add_edge(w[0], w[1], 100.0).unwrap(); }
//! let network = b.build().unwrap();
//!
//! // Three restaurants and one museum.
//! let objects = vec![
//!     GeoTextObject::from_keywords(0u64, Point::new(5.0, 5.0), ["restaurant"]),
//!     GeoTextObject::from_keywords(1u64, Point::new(105.0, 5.0), ["restaurant"]),
//!     GeoTextObject::from_keywords(2u64, Point::new(205.0, 5.0), ["restaurant"]),
//!     GeoTextObject::from_keywords(3u64, Point::new(305.0, 5.0), ["museum"]),
//! ];
//! let collection = ObjectCollection::build(&network, objects, 100.0).unwrap();
//!
//! // Find the best region of restaurants reachable within 150 m of walking.
//! let engine = LcmsrEngine::new(&network, &collection);
//! let query = LcmsrQuery::new(["restaurant"], 150.0,
//!                             network.bounding_rect().unwrap().expanded(10.0)).unwrap();
//! let request = QueryRequest::new(&query, Algorithm::Tgen(TgenParams { alpha: 1.0 }));
//! let outcome = engine.execute(&request).unwrap();
//! let region = outcome.best().unwrap();
//! assert_eq!(region.node_count(), 2);          // two adjacent restaurant nodes
//! assert!(region.length <= 150.0);
//! ```

#![warn(missing_docs)]

pub mod app;
pub mod arena;
pub mod cache;
pub mod cancel;
pub mod engine;
pub mod error;
pub mod exact;
pub mod greedy;
pub mod kmst;
pub mod maxrs;
pub mod opt_tree;
pub mod query;
pub mod query_graph;
pub mod region;
pub mod stats;
pub mod tgen;
pub mod topk;
pub mod trace;
pub mod tuple_array;

/// Convenient re-exports of the most commonly used types.
pub mod prelude {
    pub use crate::app::{AppParams, BinarySearchStep};
    pub use crate::arena::{IdSetHandle, TupleArena};
    pub use crate::cache::{CacheLookup, ResponseCache};
    pub use crate::cancel::{CancelToken, Deadline};
    pub use crate::engine::{
        Algorithm, LcmsrEngine, MaxRsRegion, QueryOptions, QueryOutcome, QueryRequest,
        QueryWorkspace, WorkspacePool,
    };
    pub use crate::error::{LcmsrError, Result as LcmsrResult};
    pub use crate::exact::{ExactSolver, ExactTopK};
    pub use crate::greedy::GreedyParams;
    pub use crate::query::LcmsrQuery;
    pub use crate::query_graph::{QueryGraph, QueryGraphBuilder};
    pub use crate::region::Region;
    pub use crate::stats::{PartialCause, RunStats};
    pub use crate::tgen::TgenParams;
    pub use crate::topk::TopKOutcome;
    pub use crate::trace::{QueryTrace, SpanId, SpanRecord, TraceCollector};
}

pub use app::AppParams;
pub use arena::TupleArena;
pub use cache::{CacheLookup, ResponseCache};
pub use cancel::{CancelToken, Deadline};
pub use engine::{
    Algorithm, LcmsrEngine, QueryOptions, QueryOutcome, QueryRequest, QueryWorkspace, WorkspacePool,
};
pub use error::{LcmsrError, Result};
pub use greedy::GreedyParams;
pub use query::LcmsrQuery;
pub use query_graph::{QueryGraph, QueryGraphBuilder};
pub use region::Region;
pub use tgen::TgenParams;
pub use trace::{QueryTrace, TraceCollector};
