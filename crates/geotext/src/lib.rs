//! # lcmsr-geotext
//!
//! Geo-textual object substrate for the LCMSR reproduction ("Retrieving
//! Regions of Interest for User Exploration", Cao et al., PVLDB 2014).
//!
//! The crate implements the indexing layer of Section 3 of the paper:
//!
//! * [`object::GeoTextObject`] — points of interest with term-frequency descriptions,
//! * [`vocab::Vocabulary`] — term interning and document frequencies,
//! * [`vsm`] — the TF–IDF vector-space relevance model (Equations 1 and 2),
//! * [`grid::GridIndex`] — the uniform spatial grid; every cell's inverted
//!   list of `(object, wto(t))` postings lives in one flat CSR built once
//!   (the paper keeps these lists in a disk-based B⁺-tree; here they are in
//!   memory),
//! * [`collection::ObjectCollection`] — the assembled data set scoring a query
//!   into dense scratch and producing the per-node query weights (`σ_v`,
//!   [`collection::NodeWeights`]) consumed by `lcmsr-core`.
//!
//! # Example
//!
//! ```
//! use lcmsr_geotext::prelude::*;
//! use lcmsr_roadnet::prelude::*;
//!
//! let mut b = GraphBuilder::new();
//! let a = b.add_node(Point::new(0.0, 0.0));
//! let c = b.add_node(Point::new(100.0, 0.0));
//! b.add_edge(a, c, 100.0).unwrap();
//! let network = b.build().unwrap();
//!
//! let objects = vec![
//!     GeoTextObject::from_keywords(0u64, Point::new(1.0, 1.0), ["restaurant"]),
//!     GeoTextObject::from_keywords(1u64, Point::new(99.0, 1.0), ["cafe"]),
//! ];
//! let collection = ObjectCollection::build(&network, objects, 50.0).unwrap();
//! let rect = network.bounding_rect().unwrap().expanded(10.0);
//! let weights = collection.node_weights_for_keywords(&["restaurant"], &rect);
//! assert_eq!(weights.relevant_node_count(), 1);
//! ```

#![warn(missing_docs)]

pub mod collection;
pub mod error;
pub mod grid;
pub mod object;
pub mod vocab;
pub mod vsm;

/// Convenient re-exports of the most commonly used types.
pub mod prelude {
    pub use crate::collection::{NodeWeights, ObjectCollection};
    pub use crate::error::{GeoTextError, Result as GeoTextResult};
    pub use crate::grid::GridIndex;
    pub use crate::object::{GeoTextObject, ObjectId};
    pub use crate::vocab::{TermId, Vocabulary};
    pub use crate::vsm::QueryVector;
}

pub use collection::{NodeWeights, ObjectCollection};
pub use error::{GeoTextError, Result};
pub use object::{GeoTextObject, ObjectId};
pub use vocab::{TermId, Vocabulary};
pub use vsm::QueryVector;
