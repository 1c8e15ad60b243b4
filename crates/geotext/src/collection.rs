//! [`ObjectCollection`]: the assembled geo-textual data set.
//!
//! A collection owns the objects, the corpus vocabulary, the flat grid index
//! and the object→road-node mapping.  It is the query-time entry point that
//! turns a set of query keywords plus a region of interest into *node
//! weights* — the `σ_v` values the LCMSR algorithms consume.
//!
//! # Scoring
//!
//! [`ObjectCollection::node_weights_into`] walks the postings of the grid
//! cells covering `Q.Λ` and adds each posting's `w_{Q.ψ,t} · wto(t)` into
//! epoch-stamped dense per-slot scratch held by the caller's
//! [`NodeWeights`], so a reused `NodeWeights` scores a query without
//! allocating or clearing anything proportional to the collection.  Two
//! summation orders are fixed, which makes every score bit-reproducible:
//!
//! * an object's partial score sums from 0.0 in query-term order;
//! * a node's weight sums its objects' scores in ascending [`ObjectId`] order.
//!
//! The scored objects reach both orders through a stable radix sort
//! ([`lcmsr_roadnet::order::RadixSorter`]), first by object id and then by
//! node, in time linear in their number.

use crate::error::Result;
use crate::grid::GridIndex;
use crate::object::{GeoTextObject, ObjectId};
use crate::vocab::{TermId, Vocabulary};
use crate::vsm::QueryVector;
use lcmsr_roadnet::epoch::EpochMap;
use lcmsr_roadnet::geo::{Point, Rect};
use lcmsr_roadnet::graph::RoadNetwork;
use lcmsr_roadnet::node::NodeId;
use lcmsr_roadnet::order::RadixSorter;
use std::collections::BTreeMap;

/// Default grid cell size in metres (roughly a city block neighbourhood).
pub const DEFAULT_CELL_SIZE: f64 = 500.0;

/// Per-node relevance weights for one query (the `σ_v` of the paper), together
/// with per-object scores for inspection.
///
/// Both are vectors sorted by id.  A `NodeWeights` filled by an
/// [`ObjectCollection`] also keeps that query's dense scoring scratch, so
/// reusing one across queries allocates nothing once the scratch has grown.
#[derive(Debug, Clone, Default)]
pub struct NodeWeights {
    /// `(node, σ_v)`, ascending node; only nodes hosting a scored object.
    by_node: Vec<(NodeId, f64)>,
    /// `(object, score)`, ascending object id; only objects scoring above 0.
    by_object: Vec<(ObjectId, f64)>,
    scratch: ScoreScratch,
}

/// One object that made the cut: id, host node and score.
type Scored = (ObjectId, NodeId, f64);

/// Dense per-query scoring scratch: epoch-stamped slot accumulators, the
/// list of scored objects and the sorter that orders them.  Cleared in O(1)
/// per query; the epoch table spans the slot band of the cells scored, not
/// the collection.
#[derive(Debug, Clone, Default)]
struct ScoreScratch {
    /// Slot → position in `partials`, live for the current query only.
    touched: EpochMap,
    /// `(slot, Σ w_{Q.ψ,t}·wto(t))` per touched slot, in first-touch order.
    partials: Vec<(u32, f64)>,
    /// Objects kept for the answer, in no particular order.
    kept: Vec<Scored>,
    /// Orders `kept` by object id, then by node.
    radix: RadixSorter<Scored>,
}

impl ScoreScratch {
    /// Starts a query whose smallest touched slot is expected at `first_slot`.
    fn begin(&mut self, first_slot: usize) {
        self.touched.begin_at(first_slot);
        self.partials.clear();
        self.kept.clear();
    }

    /// Adds one posting's contribution to `slot`'s partial score.
    #[inline]
    fn add(&mut self, slot: u32, x: f64) {
        match self.touched.get(slot as usize) {
            Some(i) => self.partials[i as usize].1 += x,
            None => {
                self.touched
                    .insert(slot as usize, self.partials.len() as u32);
                // `0.0 + x` equals `x` for every x but -0.0, and a -0.0
                // partial never survives the score > 0 filter.
                self.partials.push((slot, x));
            }
        }
    }
}

impl NodeWeights {
    /// Weights given directly per node, for test fixtures and callers that
    /// weight nodes themselves.  A node listed twice keeps its last weight.
    pub fn from_node_weights(weights: impl IntoIterator<Item = (NodeId, f64)>) -> Self {
        let by_node: BTreeMap<NodeId, f64> = weights.into_iter().collect();
        NodeWeights {
            by_node: by_node.into_iter().collect(),
            ..Self::default()
        }
    }

    /// Weight of a node (0 if it hosts no relevant object).
    pub fn weight(&self, node: NodeId) -> f64 {
        self.by_node
            .binary_search_by_key(&node, |&(n, _)| n)
            .map_or(0.0, |i| self.by_node[i].1)
    }

    /// Score of an object, if it is relevant to the query.
    pub fn object_score(&self, object: ObjectId) -> Option<f64> {
        self.by_object
            .binary_search_by_key(&object, |&(o, _)| o)
            .ok()
            .map(|i| self.by_object[i].1)
    }

    /// `(node, σ_v)` pairs of the relevant nodes, ascending node id.
    pub fn by_node(&self) -> &[(NodeId, f64)] {
        &self.by_node
    }

    /// `(object, score)` pairs of the relevant objects, ascending object id.
    pub fn by_object(&self) -> &[(ObjectId, f64)] {
        &self.by_object
    }

    /// The largest node weight (`σ_max`), or 0 when no node is relevant.
    pub fn max_weight(&self) -> f64 {
        self.by_node.iter().fold(0.0f64, |a, &(_, b)| a.max(b))
    }

    /// Number of nodes with a positive weight.
    pub fn relevant_node_count(&self) -> usize {
        self.by_node.len()
    }

    /// Total weight over all relevant nodes.
    pub fn total_weight(&self) -> f64 {
        self.by_node.iter().map(|&(_, w)| w).sum()
    }

    /// Whether no node is relevant to the query.
    pub fn is_empty(&self) -> bool {
        self.by_node.is_empty()
    }

    fn clear(&mut self) {
        self.by_node.clear();
        self.by_object.clear();
    }

    /// Turns the scratch's kept objects into the answer: `by_object` in
    /// ascending id order, and each node's weight summed over its objects in
    /// ascending id order.  Object ids are unique, so a radix sort by id and
    /// then a stable one by node give exactly the `(node, id)` order.
    fn finish(&mut self) {
        let ScoreScratch { kept, radix, .. } = &mut self.scratch;
        radix.sort_by_key(kept, |&(id, ..)| id.0);
        self.by_object
            .extend(kept.iter().map(|&(id, _, score)| (id, score)));
        radix.sort_by_key(kept, |&(_, node, _)| u64::from(node.0));
        for &(_, node, score) in kept.iter() {
            match self.by_node.last_mut() {
                Some(last) if last.0 == node => last.1 += score,
                _ => self.by_node.push((node, score)),
            }
        }
    }
}

/// A complete geo-textual data set bound to a road network.
#[derive(Debug, Clone)]
pub struct ObjectCollection {
    /// The indexed objects, in input order.
    objects: Vec<GeoTextObject>,
    vocabulary: Vocabulary,
    grid: GridIndex,
    /// Per grid slot: the object's id, location and mapped node.
    slot_ids: Vec<ObjectId>,
    slot_points: Vec<Point>,
    slot_nodes: Vec<NodeId>,
    /// Slots in ascending object-id order, for lookups by id.
    slots_by_id: Vec<u32>,
    /// `node_objects[node_offsets[n]..node_offsets[n + 1]]` are the objects
    /// mapped to node `n`, in input order.
    node_offsets: Vec<u32>,
    node_objects: Vec<ObjectId>,
}

impl ObjectCollection {
    /// Builds a collection: registers every object in the vocabulary, indexes
    /// it in the grid, and maps it to its nearest road-network node.
    ///
    /// Objects with empty descriptions or locations outside the network's
    /// bounding box (expanded by one cell; an empty network has none, so it
    /// keeps no object) are skipped rather than rejected, so noisy synthetic
    /// or crawled data does not abort the build; so is every object
    /// repeating the id of an earlier kept object.
    /// [`ObjectCollection::len`] counts the objects kept.
    pub fn build(
        network: &RoadNetwork,
        objects: Vec<GeoTextObject>,
        cell_size: f64,
    ) -> Result<Self> {
        // An empty network has no bounding box, so every object lies outside
        // it.
        let extent = network
            .bounding_rect()
            .map(|r| r.expanded(cell_size.max(1.0)));
        let usable: Vec<GeoTextObject> = objects
            .into_iter()
            .filter(|o| {
                !o.is_empty() && o.point.is_finite() && extent.is_some_and(|e| e.contains(&o.point))
            })
            .collect();
        // The first object of each id wins.
        let mut first: Vec<(ObjectId, usize)> =
            usable.iter().enumerate().map(|(i, o)| (o.id, i)).collect();
        first.sort_unstable();
        first.dedup_by_key(|&mut (id, _)| id);
        let mut keep = vec![false; usable.len()];
        for (_, i) in first {
            keep[i] = true;
        }
        let objects: Vec<GeoTextObject> = usable
            .into_iter()
            .zip(keep)
            .filter_map(|(o, keep)| keep.then_some(o))
            .collect();

        let mut vocabulary = Vocabulary::new();
        // With no objects, any extent of positive size indexes nothing.
        let grid = GridIndex::build(
            extent.unwrap_or_else(|| Rect::new(0.0, 0.0, 1.0, 1.0)),
            cell_size,
            &objects,
            &mut vocabulary,
        )?;
        let points: Vec<Point> = objects.iter().map(|o| o.point).collect();
        // Each object sits on its nearest node (the paper's mapping); objects
        // are kept only on a non-empty network, so every one has a node.
        let object_nodes: Vec<NodeId> = points
            .iter()
            .filter_map(|p| network.nearest_node(p))
            .collect();

        let slot_object = |s: usize| grid.slot_object(s);
        let slot_ids: Vec<ObjectId> = (0..objects.len())
            .map(|s| objects[slot_object(s)].id)
            .collect();
        let slot_points = (0..objects.len()).map(|s| points[slot_object(s)]).collect();
        let slot_nodes = (0..objects.len())
            .map(|s| object_nodes[slot_object(s)])
            .collect();
        let mut slots_by_id: Vec<u32> = (0..objects.len() as u32).collect();
        slots_by_id.sort_unstable_by_key(|&s| slot_ids[s as usize]);

        // Objects per node by counting sort (input order within a node).
        let mut node_offsets = vec![0u32; network.node_count() + 1];
        for node in &object_nodes {
            node_offsets[node.index() + 1] += 1;
        }
        for n in 1..node_offsets.len() {
            node_offsets[n] += node_offsets[n - 1];
        }
        let mut cursor = node_offsets.clone();
        let mut node_objects = vec![ObjectId::default(); objects.len()];
        for (object, node) in objects.iter().zip(&object_nodes) {
            let at = &mut cursor[node.index()];
            node_objects[*at as usize] = object.id;
            *at += 1;
        }

        Ok(ObjectCollection {
            objects,
            vocabulary,
            grid,
            slot_ids,
            slot_points,
            slot_nodes,
            slots_by_id,
            node_offsets,
            node_objects,
        })
    }

    /// Builds a collection with the default grid cell size.
    pub fn build_default(network: &RoadNetwork, objects: Vec<GeoTextObject>) -> Result<Self> {
        Self::build(network, objects, DEFAULT_CELL_SIZE)
    }

    /// Number of indexed objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Whether the collection holds no objects.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// The indexed objects, in input order.
    pub fn objects(&self) -> &[GeoTextObject] {
        &self.objects
    }

    /// The corpus vocabulary.
    pub fn vocabulary(&self) -> &Vocabulary {
        &self.vocabulary
    }

    /// The spatial grid index.
    pub fn grid(&self) -> &GridIndex {
        &self.grid
    }

    /// Number of distinct keywords in the corpus.
    pub fn keyword_count(&self) -> usize {
        self.vocabulary.len()
    }

    /// The grid slot of an object id.
    fn slot_of(&self, object: ObjectId) -> Option<usize> {
        self.slots_by_id
            .binary_search_by_key(&object, |&s| self.slot_ids[s as usize])
            .ok()
            .map(|i| self.slots_by_id[i] as usize)
    }

    /// The node an object is mapped to, if the object exists.
    pub fn node_of(&self, object: ObjectId) -> Option<NodeId> {
        self.slot_of(object).map(|s| self.slot_nodes[s])
    }

    /// Objects hosted by a node.
    pub fn objects_at(&self, node: NodeId) -> &[ObjectId] {
        match (
            self.node_offsets.get(node.index()),
            self.node_offsets.get(node.index() + 1),
        ) {
            (Some(&lo), Some(&hi)) => &self.node_objects[lo as usize..hi as usize],
            _ => &[],
        }
    }

    /// An object by id.
    pub fn object(&self, id: ObjectId) -> Option<&GeoTextObject> {
        self.slot_of(id)
            .map(|s| &self.objects[self.grid.slot_object(s)])
    }

    /// Builds the query vector for a set of keywords against this corpus.
    pub fn query_vector(&self, keywords: &[impl AsRef<str>]) -> QueryVector {
        QueryVector::new(&self.vocabulary, keywords)
    }

    /// Computes per-node relevance weights (`σ_v`) for a query restricted to
    /// the region of interest `Q.Λ` given by `rect`.
    ///
    /// Implementation follows the paper: the grid index retrieves the postings
    /// lists for the query keywords from the cells intersecting the rectangle
    /// (Equation 2), per-object scores are normalised by the query norm, objects
    /// outside the rectangle are discarded, and each object's score is added to
    /// the node it is mapped to.
    pub fn node_weights(&self, query: &QueryVector, rect: &Rect) -> NodeWeights {
        let mut weights = NodeWeights::default();
        self.node_weights_into(query, rect, &mut weights);
        weights
    }

    /// Like [`ObjectCollection::node_weights`], but writes into a caller-owned
    /// [`NodeWeights`], reusing its output vectors and scoring scratch.
    ///
    /// Sums the Equation-2 partial of every slot the postings of the covering
    /// cells touch, then keeps the objects that lie inside `rect` (cells only
    /// approximate it) and score above 0.
    pub fn node_weights_into(&self, query: &QueryVector, rect: &Rect, out: &mut NodeWeights) {
        out.clear();
        if query.norm == 0.0 {
            return;
        }
        let query_terms: Vec<(TermId, f64)> = query
            .terms
            .iter()
            .filter_map(|t| t.id.map(|id| (id, t.weight)))
            .collect();
        let scratch = &mut out.scratch;
        let mut cells = self.grid.cover_cells(rect).peekable();
        scratch.begin(cells.peek().map_or(0, |&c| self.grid.slot_range(c).start));
        for c in cells {
            self.grid
                .accumulate_cell(c, &query_terms, |slot, x| scratch.add(slot, x));
        }
        for &(slot, partial) in &scratch.partials {
            let s = slot as usize;
            if !rect.contains(&self.slot_points[s]) {
                continue;
            }
            let score = partial / query.norm;
            if score <= 0.0 {
                continue;
            }
            scratch
                .kept
                .push((self.slot_ids[s], self.slot_nodes[s], score));
        }
        out.finish();
    }

    /// Convenience wrapper: computes node weights from raw keyword strings.
    pub fn node_weights_for_keywords(
        &self,
        keywords: &[impl AsRef<str>],
        rect: &Rect,
    ) -> NodeWeights {
        let q = self.query_vector(keywords);
        self.node_weights(&q, rect)
    }

    /// The alternative scoring strategy of Section 2 of the paper: an object's
    /// score is its rating/popularity when it matches at least one query
    /// keyword, and zero otherwise, so the region score represents the
    /// popularity of a relevant region.  Objects without a rating count as
    /// `default_rating`.  Node weights sum in ascending object-id order, as
    /// in [`ObjectCollection::node_weights`].
    pub fn node_weights_by_rating(
        &self,
        keywords: &[impl AsRef<str>],
        rect: &Rect,
        default_rating: f64,
    ) -> NodeWeights {
        let mut weights = NodeWeights::default();
        let normalized: Vec<String> = keywords
            .iter()
            .map(|k| crate::object::normalize_term(k.as_ref()))
            .filter(|k| !k.is_empty())
            .collect();
        if normalized.is_empty() {
            return weights;
        }
        for c in self.grid.cover_cells(rect) {
            for slot in self.grid.slot_range(c) {
                if !rect.contains(&self.slot_points[slot]) {
                    continue;
                }
                let object = &self.objects[self.grid.slot_object(slot)];
                if !normalized.iter().any(|k| object.contains_term(k)) {
                    continue;
                }
                let score = object.rating.unwrap_or(default_rating).max(0.0);
                if score <= 0.0 {
                    continue;
                }
                weights
                    .scratch
                    .kept
                    .push((object.id, self.slot_nodes[slot], score));
            }
        }
        weights.finish();
        weights
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcmsr_roadnet::builder::GraphBuilder;

    fn line_network() -> RoadNetwork {
        // A 5-node line network with 100 m segments.
        let mut b = GraphBuilder::new();
        let ids: Vec<NodeId> = (0..5)
            .map(|i| b.add_node(Point::new(i as f64 * 100.0, 0.0)))
            .collect();
        for w in ids.windows(2) {
            b.add_edge(w[0], w[1], 100.0).unwrap();
        }
        b.build().unwrap()
    }

    fn network_and_objects() -> (RoadNetwork, Vec<GeoTextObject>) {
        let objects = vec![
            GeoTextObject::from_keywords(0u64, Point::new(5.0, 5.0), ["restaurant", "italian"]),
            GeoTextObject::from_keywords(1u64, Point::new(102.0, -3.0), ["restaurant", "pizza"]),
            GeoTextObject::from_keywords(2u64, Point::new(108.0, 4.0), ["cafe"]),
            GeoTextObject::from_keywords(3u64, Point::new(395.0, 0.0), ["restaurant"]),
            GeoTextObject::from_keywords(4u64, Point::new(250.0, 2.0), Vec::<String>::new()),
            GeoTextObject::from_keywords(5u64, Point::new(9999.0, 9999.0), ["restaurant"]),
        ];
        (line_network(), objects)
    }

    /// `(id, bits)` of every entry, for bit-exact comparisons.
    fn bits<K: Copy>(entries: &[(K, f64)]) -> Vec<(K, u64)> {
        entries.iter().map(|&(k, w)| (k, w.to_bits())).collect()
    }

    #[test]
    fn build_skips_unusable_objects() {
        let (network, objects) = network_and_objects();
        let coll = ObjectCollection::build(&network, objects, 200.0).unwrap();
        // The empty object and the far-away object are skipped.
        assert_eq!(coll.len(), 4);
        assert!(!coll.is_empty());
        assert_eq!(coll.keyword_count(), 4);
        assert!(coll.object(ObjectId(5)).is_none());
        assert!(coll.object(ObjectId(0)).is_some());
        // Input order is preserved.
        let ids: Vec<ObjectId> = coll.objects().iter().map(|o| o.id).collect();
        assert_eq!(
            ids,
            vec![ObjectId(0), ObjectId(1), ObjectId(2), ObjectId(3)]
        );
    }

    #[test]
    fn duplicate_ids_keep_the_first_object_only() {
        // Two `cafe` objects share id 7, at nodes 0 and 4.  Indexing both
        // would merge their partials under one id at the second object's
        // point and node: a score of 2.0 (a cosine score cannot exceed 1)
        // on node 4, and nothing for a rect around the first object only.
        let network = line_network();
        let objects = vec![
            GeoTextObject::from_keywords(7u64, Point::new(1.0, 1.0), ["cafe"]),
            GeoTextObject::from_keywords(8u64, Point::new(200.0, 1.0), ["museum"]),
            GeoTextObject::from_keywords(7u64, Point::new(399.0, 1.0), ["cafe"]),
        ];
        let coll = ObjectCollection::build(&network, objects, 50.0).unwrap();
        assert_eq!(coll.len(), 2);
        assert_eq!(
            coll.object(ObjectId(7)).unwrap().point,
            Point::new(1.0, 1.0)
        );
        assert_eq!(coll.node_of(ObjectId(7)), Some(NodeId(0)));
        assert!(coll.objects_at(NodeId(4)).is_empty());
        // The vocabulary counts the kept objects only: |D| = 2, f_cafe = 1.
        assert_eq!(coll.vocabulary().document_count(), 2);

        let whole = network.bounding_rect().unwrap().expanded(10.0);
        let w = coll.node_weights_for_keywords(&["cafe"], &whole);
        assert_eq!(bits(w.by_node()), bits(&[(NodeId(0), 1.0)]));
        assert_eq!(bits(w.by_object()), bits(&[(ObjectId(7), 1.0)]));
        let first_only = Rect::new(-5.0, -5.0, 20.0, 5.0);
        let w = coll.node_weights_for_keywords(&["cafe"], &first_only);
        assert_eq!(w.object_score(ObjectId(7)), Some(1.0));
        assert_eq!(w.weight(NodeId(0)), 1.0);
        // A duplicate of a skipped object is not a duplicate: the first
        // usable occurrence is kept.
        let objects = vec![
            GeoTextObject::from_keywords(3u64, Point::new(1.0, 1.0), Vec::<String>::new()),
            GeoTextObject::from_keywords(3u64, Point::new(399.0, 1.0), ["cafe"]),
        ];
        let coll = ObjectCollection::build(&network, objects, 50.0).unwrap();
        assert_eq!(coll.node_of(ObjectId(3)), Some(NodeId(4)));
    }

    #[test]
    fn objects_map_to_nearest_nodes() {
        let (network, objects) = network_and_objects();
        let coll = ObjectCollection::build(&network, objects, 200.0).unwrap();
        assert_eq!(coll.node_of(ObjectId(0)), Some(NodeId(0)));
        assert_eq!(coll.node_of(ObjectId(1)), Some(NodeId(1)));
        assert_eq!(coll.node_of(ObjectId(2)), Some(NodeId(1)));
        assert_eq!(coll.node_of(ObjectId(3)), Some(NodeId(4)));
        assert_eq!(coll.node_of(ObjectId(9)), None);
        assert_eq!(coll.objects_at(NodeId(1)), &[ObjectId(1), ObjectId(2)]);
        assert!(coll.objects_at(NodeId(2)).is_empty());
        assert!(coll.objects_at(NodeId(99)).is_empty());
    }

    #[test]
    fn node_weights_sum_object_scores_per_node() {
        let (network, objects) = network_and_objects();
        let coll = ObjectCollection::build(&network, objects, 200.0).unwrap();
        let rect = network.bounding_rect().unwrap().expanded(50.0);
        let q = coll.query_vector(&["restaurant"]);
        let w = coll.node_weights(&q, &rect);
        assert_eq!(w.relevant_node_count(), 3); // nodes 0, 1, 4
        assert!(w.weight(NodeId(0)) > 0.0);
        assert!(w.weight(NodeId(1)) > 0.0);
        assert!(w.weight(NodeId(4)) > 0.0);
        assert_eq!(w.weight(NodeId(2)), 0.0);
        // Object 3 has the single keyword "restaurant" → its score is maximal,
        // so node 4 carries the largest weight among single-object nodes.
        assert!(w.weight(NodeId(4)) >= w.weight(NodeId(0)));
        assert!(w.max_weight() > 0.0);
        let sum: f64 = w.by_node().iter().map(|&(_, x)| x).sum();
        assert!((w.total_weight() - sum).abs() < 1e-12);
        // Both views come out id-sorted.
        assert!(w.by_node().windows(2).all(|p| p[0].0 < p[1].0));
        assert!(w.by_object().windows(2).all(|p| p[0].0 < p[1].0));
    }

    #[test]
    fn node_weights_respect_query_rectangle() {
        let (network, objects) = network_and_objects();
        let coll = ObjectCollection::build(&network, objects, 200.0).unwrap();
        // Rectangle covering only the first two nodes' surroundings.
        let rect = Rect::new(-20.0, -20.0, 150.0, 20.0);
        let w = coll.node_weights_for_keywords(&["restaurant"], &rect);
        assert!(w.weight(NodeId(0)) > 0.0);
        assert!(w.weight(NodeId(1)) > 0.0);
        assert_eq!(
            w.weight(NodeId(4)),
            0.0,
            "object outside Q.Λ must not count"
        );
    }

    #[test]
    fn irrelevant_or_unknown_queries_give_empty_weights() {
        let (network, objects) = network_and_objects();
        let coll = ObjectCollection::build(&network, objects, 200.0).unwrap();
        let rect = network.bounding_rect().unwrap().expanded(50.0);
        let w = coll.node_weights_for_keywords(&["spaceship"], &rect);
        assert!(w.is_empty());
        assert_eq!(w.max_weight(), 0.0);
        let w = coll.node_weights_for_keywords(&Vec::<String>::new(), &rect);
        assert!(w.is_empty());
    }

    #[test]
    fn multi_keyword_queries_score_multi_matching_objects_higher() {
        let (network, objects) = network_and_objects();
        let coll = ObjectCollection::build(&network, objects, 200.0).unwrap();
        let rect = network.bounding_rect().unwrap().expanded(50.0);
        let w = coll.node_weights_for_keywords(&["restaurant", "pizza"], &rect);
        // Object 1 (restaurant+pizza) on node 1 scores higher than object 0
        // (restaurant+italian) on node 0.
        let s1 = w.object_score(ObjectId(1)).unwrap_or(0.0);
        let s0 = w.object_score(ObjectId(0)).unwrap_or(0.0);
        assert!(s1 > s0);
    }

    #[test]
    fn rating_based_scoring_uses_ratings_of_matching_objects() {
        let (network, mut objects) = network_and_objects();
        // Give two relevant objects explicit ratings.
        objects[0] = objects[0].clone().with_rating(4.5); // restaurant at node 0
        objects[3] = objects[3].clone().with_rating(2.0); // restaurant at node 4
        let coll = ObjectCollection::build(&network, objects, 200.0).unwrap();
        let rect = network.bounding_rect().unwrap().expanded(50.0);
        let w = coll.node_weights_by_rating(&["restaurant"], &rect, 1.0);
        assert!((w.weight(NodeId(0)) - 4.5).abs() < 1e-12);
        assert!((w.weight(NodeId(4)) - 2.0).abs() < 1e-12);
        // Object 1 (restaurant, no rating) falls back to the default rating.
        assert!((w.weight(NodeId(1)) - 1.0).abs() < 1e-12);
        // The cafe does not match and contributes nothing.
        assert!(w.object_score(ObjectId(2)).is_none());
        // No keywords → empty; unknown keywords → empty.
        assert!(coll
            .node_weights_by_rating(&Vec::<String>::new(), &rect, 1.0)
            .is_empty());
        assert!(coll
            .node_weights_by_rating(&["spaceship"], &rect, 1.0)
            .is_empty());
    }

    #[test]
    fn reused_node_weights_match_fresh_ones() {
        let (network, objects) = network_and_objects();
        let coll = ObjectCollection::build(&network, objects, 200.0).unwrap();
        let rect = network.bounding_rect().unwrap().expanded(50.0);
        let mut reused = NodeWeights::default();
        for keywords in [vec!["restaurant"], vec!["cafe", "pizza"], vec!["spaceship"]] {
            let fresh = coll.node_weights_for_keywords(&keywords, &rect);
            coll.node_weights_into(&coll.query_vector(&keywords), &rect, &mut reused);
            assert_eq!(bits(fresh.by_node()), bits(reused.by_node()));
            assert_eq!(bits(fresh.by_object()), bits(reused.by_object()));
        }
        // Stale entries from a previous query never leak into the next one.
        coll.node_weights_into(&coll.query_vector(&["restaurant"]), &rect, &mut reused);
        coll.node_weights_into(&coll.query_vector(&["spaceship"]), &rect, &mut reused);
        assert!(reused.is_empty());
        assert!(reused.by_object().is_empty());
    }

    #[test]
    fn fixture_weights_keep_the_last_weight_per_node() {
        let w = NodeWeights::from_node_weights([
            (NodeId(3), 0.5),
            (NodeId(1), 0.25),
            (NodeId(3), 0.75),
        ]);
        assert_eq!(
            bits(w.by_node()),
            bits(&[(NodeId(1), 0.25), (NodeId(3), 0.75)])
        );
        assert_eq!(w.weight(NodeId(3)), 0.75);
        assert_eq!(w.weight(NodeId(2)), 0.0);
        assert_eq!(w.relevant_node_count(), 2);
        assert!(w.by_object().is_empty());
    }

    #[test]
    fn build_on_an_empty_network_keeps_no_object() {
        let network = GraphBuilder::new().build().unwrap();
        let objects = vec![GeoTextObject::from_keywords(
            0u64,
            Point::new(0.5, 0.5),
            ["cafe"],
        )];
        let coll = ObjectCollection::build(&network, objects, 100.0).unwrap();
        assert_eq!(coll.len(), 0);
        assert!(coll.node_of(ObjectId(0)).is_none());
    }

    #[test]
    fn build_default_uses_default_cell_size() {
        let (network, objects) = network_and_objects();
        let coll = ObjectCollection::build_default(&network, objects).unwrap();
        assert!(coll.grid().cell_size() == DEFAULT_CELL_SIZE);
        assert_eq!(coll.len(), 4);
    }
}
