//! # lcmsr-roadnet
//!
//! Road-network substrate for the LCMSR reproduction ("Retrieving Regions of
//! Interest for User Exploration", Cao et al., PVLDB 2014).
//!
//! The crate models the road network graph `G = (V, E, τ, λ)` of the paper's
//! Definition 1:
//!
//! * [`graph::RoadNetwork`] — immutable, validated graph with CSR adjacency,
//! * [`builder::GraphBuilder`] — incremental construction with validation,
//! * [`geo`] — planar geometry, rectangles (`Q.Λ`), WGS84→UTM projection,
//! * [`subgraph::RegionView`] — the subgraph induced by a query rectangle,
//! * [`order`] — linear-time orderings of unique keys for the prepare path,
//! * [`traversal`] — connected components (used by [`generator`]) and the
//!   Dijkstra reference for the region view's distances,
//! * [`dimacs`] — reader for the DIMACS challenge-9 files the paper's New York
//!   and USA networks are distributed in,
//! * [`generator`] — deterministic synthetic network generators used by the
//!   data-substitution layer (`lcmsr-datagen`).
//!
//! # Example
//!
//! ```
//! use lcmsr_roadnet::prelude::*;
//!
//! let mut b = GraphBuilder::new();
//! let a = b.add_node(Point::new(0.0, 0.0));
//! let c = b.add_node(Point::new(100.0, 0.0));
//! b.add_edge(a, c, 100.0).unwrap();
//! let network = b.build().unwrap();
//! assert_eq!(network.node_count(), 2);
//! let view = RegionView::whole(&network);
//! assert_eq!(view.edge_count(), 1);
//! ```

#![warn(missing_docs)]

pub mod builder;
pub mod dimacs;
pub mod edge;
pub mod epoch;
pub mod error;
pub mod generator;
pub mod geo;
pub mod graph;
pub mod node;
pub mod order;
pub mod spatial;
pub mod subgraph;
pub mod traversal;

/// Convenient re-exports of the most commonly used types.
pub mod prelude {
    pub use crate::builder::GraphBuilder;
    pub use crate::edge::{EdgeId, RoadEdge};
    pub use crate::error::{Result as RoadNetResult, RoadNetError};
    pub use crate::geo::{km, to_km, LatLon, Point, Rect};
    pub use crate::graph::{NetworkStats, RoadNetwork};
    pub use crate::node::{NodeId, RoadNode};
    pub use crate::spatial::{GridCover, NodeGrid};
    pub use crate::subgraph::RegionView;
}

pub use builder::GraphBuilder;
pub use edge::{EdgeId, RoadEdge};
pub use error::{Result, RoadNetError};
pub use geo::{LatLon, Point, Rect};
pub use graph::{NetworkStats, RoadNetwork};
pub use node::{NodeId, RoadNode};
pub use subgraph::RegionView;
