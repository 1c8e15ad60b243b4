//! The uniform spatial grid index of Section 3, stored as one flat CSR.
//!
//! "We use a grid index to organize the geo-textual objects.  We partition the
//! entire space according to a uniform grid, and each object is stored in the
//! grid cell that its point location belongs to.  In each grid cell, we
//! maintain an inverted list with the keywords of the objects stored in this
//! cell."
//!
//! [`GridIndex`] partitions the bounding extent into square cells of a
//! configurable size.  All per-cell inverted lists share one
//! compressed-sparse-row layout, built once:
//!
//! ```text
//! occupied cells (ascending CellId)
//!   → the cell's terms (ascending TermId)
//!     → the term's postings (slot, wto(t)), ascending slot
//! ```
//!
//! Objects are renumbered into cell-major **slots**: the objects of one cell
//! occupy a contiguous slot range, in input order.  Postings name slots, so a
//! caller scoring a query accumulates into dense per-slot scratch and keeps
//! each slot's object id, point and node in parallel arrays.  Only occupied
//! cells are stored, so memory tracks the objects and their postings, never
//! `extent / cell_size`.

use crate::error::{GeoTextError, Result};
use crate::object::GeoTextObject;
use crate::vocab::{TermId, Vocabulary};
use crate::vsm::{object_norm, tf_weight};
use lcmsr_roadnet::geo::{Point, Rect};
use std::ops::Range;

/// Identifier of a grid cell as (column, row).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CellId {
    /// Column index (x direction).
    pub col: u32,
    /// Row index (y direction).
    pub row: u32,
}

/// The inclusive cell range of a query rectangle.
#[derive(Debug, Clone, Copy)]
struct Cover {
    col_lo: u32,
    col_hi: u32,
    row_lo: u32,
    row_hi: u32,
}

/// A uniform grid index over geo-textual objects with flat per-cell
/// inverted lists (see the module docs for the layout).
#[derive(Debug, Clone)]
pub struct GridIndex {
    extent: Rect,
    cell_size: f64,
    cols: u32,
    rows: u32,
    /// Occupied cells, ascending.
    cells: Vec<CellId>,
    /// `cell_slots[c]..cell_slots[c + 1]` are the slots of occupied cell `c`.
    cell_slots: Vec<u32>,
    /// `cell_terms[c]..cell_terms[c + 1]` index cell `c`'s entries in `terms`.
    cell_terms: Vec<u32>,
    /// One entry per (cell, term), ascending term within a cell.
    terms: Vec<TermId>,
    /// `term_postings[e]..term_postings[e + 1]` are term entry `e`'s postings.
    term_postings: Vec<u32>,
    /// Posting payload: the object's slot and its `wto(t)`.
    posting_slots: Vec<u32>,
    posting_weights: Vec<f64>,
    /// Position in the build input of the object in each slot.
    slot_objects: Vec<u32>,
}

impl GridIndex {
    /// Builds the index over `objects` with square cells of `cell_size`
    /// metres covering `extent`, registering every object as a document of
    /// `vocabulary` in input order (so term ids follow encounter order).
    ///
    /// Fails, before touching `vocabulary`, on a non-positive cell size, an
    /// empty extent, or an object that is empty, has a non-finite location
    /// or lies outside the extent.
    pub fn build(
        extent: Rect,
        cell_size: f64,
        objects: &[GeoTextObject],
        vocabulary: &mut Vocabulary,
    ) -> Result<Self> {
        if !(cell_size.is_finite() && cell_size > 0.0) {
            return Err(GeoTextError::InvalidGridConfig {
                message: format!("cell size must be positive, got {cell_size}"),
            });
        }
        if extent.width() <= 0.0 || extent.height() <= 0.0 {
            return Err(GeoTextError::InvalidGridConfig {
                message: "extent must have positive width and height".into(),
            });
        }
        let mut grid = GridIndex {
            extent,
            cell_size,
            cols: (extent.width() / cell_size).ceil().max(1.0) as u32,
            rows: (extent.height() / cell_size).ceil().max(1.0) as u32,
            cells: Vec::new(),
            cell_slots: Vec::new(),
            cell_terms: vec![0],
            terms: Vec::new(),
            term_postings: Vec::new(),
            posting_slots: Vec::new(),
            posting_weights: Vec::new(),
            slot_objects: Vec::with_capacity(objects.len()),
        };

        let mut located = Vec::with_capacity(objects.len());
        for (i, object) in objects.iter().enumerate() {
            located.push((grid.validate_and_locate(object)?, i as u32));
        }
        // Each object's postings in input order — its term ids, interned
        // once, and their `wto(t)`: entries `term_offsets[i]..term_offsets[i
        // + 1]` of `term_ids`/`term_weights` for object `i`.
        let mut term_offsets = Vec::with_capacity(objects.len() + 1);
        let mut term_ids = Vec::new();
        let mut term_weights = Vec::new();
        let mut document = Vec::new();
        term_offsets.push(0);
        for object in objects {
            let norm = object_norm(object);
            document.clear();
            for (term, &tf) in &object.terms {
                document.push(vocabulary.intern(term));
                term_weights.push(tf_weight(tf) / norm);
            }
            term_ids.extend_from_slice(&document);
            term_offsets.push(term_ids.len());
            vocabulary.register_ids(&mut document);
        }
        // Every object has a posting, so this bounds the slots too.
        assert!(
            u32::try_from(term_ids.len()).is_ok(),
            "the grid index addresses postings and slots with u32"
        );

        // Slots: objects sorted by (cell, input position).
        located.sort_unstable();
        for (slot, &(cell, i)) in located.iter().enumerate() {
            if grid.cells.last() != Some(&cell) {
                grid.cells.push(cell);
                grid.cell_slots.push(slot as u32);
            }
            grid.slot_objects.push(i);
        }
        grid.cell_slots.push(objects.len() as u32);
        drop(located);

        // Postings, one cell at a time: gather the cell's (term, slot, wto)
        // triples in slot order; a stable sort by term then groups them while
        // keeping each term's postings in slot order.
        let mut cell_postings: Vec<(TermId, u32, f64)> = Vec::new();
        for c in 0..grid.cells.len() {
            cell_postings.clear();
            for slot in grid.cell_slots[c]..grid.cell_slots[c + 1] {
                let i = grid.slot_objects[slot as usize] as usize;
                let entries = term_offsets[i]..term_offsets[i + 1];
                for (&id, &weight) in term_ids[entries.clone()].iter().zip(&term_weights[entries]) {
                    cell_postings.push((id, slot, weight));
                }
            }
            cell_postings.sort_by_key(|&(term, _, _)| term);
            let first_entry = grid.terms.len();
            for &(term, slot, weight) in &cell_postings {
                if grid.terms.len() == first_entry || grid.terms.last() != Some(&term) {
                    grid.terms.push(term);
                    grid.term_postings.push(grid.posting_slots.len() as u32);
                }
                grid.posting_slots.push(slot);
                grid.posting_weights.push(weight);
            }
            grid.cell_terms.push(grid.terms.len() as u32);
        }
        grid.term_postings.push(grid.posting_slots.len() as u32);
        Ok(grid)
    }

    /// The extent covered by the grid.
    pub fn extent(&self) -> Rect {
        self.extent
    }

    /// The configured cell size in metres.
    pub fn cell_size(&self) -> f64 {
        self.cell_size
    }

    /// Grid dimensions as (columns, rows).
    pub fn dimensions(&self) -> (u32, u32) {
        (self.cols, self.rows)
    }

    /// Number of cells that contain at least one object.
    pub fn occupied_cells(&self) -> usize {
        self.cells.len()
    }

    /// Total number of indexed objects (= slots).
    pub fn object_count(&self) -> usize {
        self.slot_objects.len()
    }

    /// Total number of postings (one per object and distinct term).
    pub fn posting_count(&self) -> usize {
        self.posting_slots.len()
    }

    /// Position in the build input of the object stored in `slot`.
    pub(crate) fn slot_object(&self, slot: usize) -> usize {
        self.slot_objects[slot] as usize
    }

    /// The cell id containing `p`, or `None` if `p` lies outside the extent.
    pub fn cell_of(&self, p: &Point) -> Option<CellId> {
        if !self.extent.contains(p) {
            return None;
        }
        let col = (((p.x - self.extent.min_x) / self.cell_size) as u32).min(self.cols - 1);
        let row = (((p.y - self.extent.min_y) / self.cell_size) as u32).min(self.rows - 1);
        Some(CellId { col, row })
    }

    /// Rectangle covered by a cell.
    pub fn cell_rect(&self, cell: CellId) -> Rect {
        let min_x = self.extent.min_x + cell.col as f64 * self.cell_size;
        let min_y = self.extent.min_y + cell.row as f64 * self.cell_size;
        Rect::new(
            min_x,
            min_y,
            (min_x + self.cell_size).min(self.extent.max_x),
            (min_y + self.cell_size).min(self.extent.max_y),
        )
    }

    /// Validates an object and resolves its cell.
    fn validate_and_locate(&self, object: &GeoTextObject) -> Result<CellId> {
        if !object.point.is_finite() {
            return Err(GeoTextError::InvalidLocation {
                object: object.id.0,
            });
        }
        if object.is_empty() {
            return Err(GeoTextError::EmptyDescription {
                object: object.id.0,
            });
        }
        self.cell_of(&object.point)
            .ok_or(GeoTextError::InvalidLocation {
                object: object.id.0,
            })
    }

    /// Slot range of occupied cell index `c`.
    pub(crate) fn slot_range(&self, c: usize) -> Range<usize> {
        self.cell_slots[c] as usize..self.cell_slots[c + 1] as usize
    }

    /// The id of occupied cell index `c`.
    pub(crate) fn cell_id(&self, c: usize) -> CellId {
        self.cells[c]
    }

    /// Indices of the occupied cells intersecting `rect`, ascending: per
    /// covered column, the run of occupied cells inside the row range.
    pub(crate) fn cover_cells(&self, rect: &Rect) -> impl Iterator<Item = usize> + '_ {
        let mut from = 0;
        self.cover_of(rect)
            .into_iter()
            .flat_map(|c| {
                (c.col_lo..=c.col_hi)
                    .map(move |col| (CellId { col, row: c.row_lo }, CellId { col, row: c.row_hi }))
            })
            .flat_map(move |(first, last)| {
                let lo = from + self.cells[from..].partition_point(|&id| id < first);
                let hi = lo + self.cells[lo..].partition_point(|&id| id <= last);
                from = hi;
                lo..hi
            })
    }

    /// The inclusive cell range intersecting `rect`, or `None` when disjoint.
    fn cover_of(&self, rect: &Rect) -> Option<Cover> {
        let clipped = self.extent.intersection(rect)?;
        let col = |x: f64| (((x - self.extent.min_x) / self.cell_size) as u32).min(self.cols - 1);
        let row = |y: f64| (((y - self.extent.min_y) / self.cell_size) as u32).min(self.rows - 1);
        Some(Cover {
            col_lo: col(clipped.min_x),
            col_hi: col(clipped.max_x),
            row_lo: row(clipped.min_y),
            row_hi: row(clipped.max_y),
        })
    }

    /// Ids of the occupied cells whose rectangle intersects `rect`.
    pub fn cells_intersecting(&self, rect: &Rect) -> Vec<CellId> {
        self.cover_cells(rect).map(|c| self.cells[c]).collect()
    }

    /// Feeds occupied cell `c`'s Equation-2 terms to `add`: for each query
    /// term in order (zero-IDF terms skipped), every posting of that term in
    /// the cell as `(slot, w_{Q.ψ,t} · wto(t))`.  Summing the calls per slot
    /// from 0.0 yields the object's partial score `Σ w_{Q.ψ,t}·wto(t)`; the
    /// caller divides by the query norm.
    pub(crate) fn accumulate_cell(
        &self,
        c: usize,
        query_terms: &[(TermId, f64)],
        mut add: impl FnMut(u32, f64),
    ) {
        let entries = self.cell_terms[c] as usize..self.cell_terms[c + 1] as usize;
        let cell_terms = &self.terms[entries.clone()];
        for &(term, idf) in query_terms {
            if idf == 0.0 {
                continue;
            }
            let Ok(i) = cell_terms.binary_search(&term) else {
                continue;
            };
            let e = entries.start + i;
            let postings = self.term_postings[e] as usize..self.term_postings[e + 1] as usize;
            for (&slot, &weight) in self.posting_slots[postings.clone()]
                .iter()
                .zip(&self.posting_weights[postings])
            {
                add(slot, idf * weight);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::ObjectId;
    use std::collections::BTreeMap;

    fn make_objects() -> Vec<GeoTextObject> {
        vec![
            GeoTextObject::from_keywords(0u64, Point::new(50.0, 50.0), ["restaurant"]),
            GeoTextObject::from_keywords(1u64, Point::new(150.0, 50.0), ["restaurant", "pizza"]),
            GeoTextObject::from_keywords(2u64, Point::new(950.0, 950.0), ["cafe"]),
            GeoTextObject::from_keywords(3u64, Point::new(450.0, 450.0), ["museum"]),
            GeoTextObject::from_keywords(4u64, Point::new(60.0, 40.0), ["pizza"]),
        ]
    }

    fn build(objects: &[GeoTextObject]) -> (GridIndex, Vocabulary) {
        let mut vocab = Vocabulary::new();
        let extent = Rect::new(0.0, 0.0, 1000.0, 1000.0);
        let grid = GridIndex::build(extent, 100.0, objects, &mut vocab).unwrap();
        (grid, vocab)
    }

    /// The slots stored in `cell`, if it holds any objects.
    fn cell_slots(grid: &GridIndex, cell: CellId) -> Option<Range<usize>> {
        let c = grid.cells.binary_search(&cell).ok()?;
        Some(grid.slot_range(c))
    }

    /// Per-object partial sums over the cells intersecting `rect`.
    fn scores(grid: &GridIndex, rect: &Rect, terms: &[(TermId, f64)]) -> BTreeMap<usize, f64> {
        let mut acc = BTreeMap::new();
        for c in grid.cover_cells(rect) {
            grid.accumulate_cell(c, terms, |slot, x| {
                *acc.entry(grid.slot_object(slot as usize)).or_insert(0.0) += x;
            });
        }
        acc
    }

    fn idf_terms(vocab: &Vocabulary, words: &[&str]) -> Vec<(TermId, f64)> {
        words
            .iter()
            .map(|t| {
                let id = vocab.lookup(t).unwrap();
                (id, vocab.idf(id))
            })
            .collect()
    }

    #[test]
    fn rejects_invalid_configuration() {
        let vocab = &mut Vocabulary::new();
        let extent = Rect::new(0.0, 0.0, 100.0, 100.0);
        assert!(GridIndex::build(extent, 0.0, &[], vocab).is_err());
        assert!(GridIndex::build(extent, -5.0, &[], vocab).is_err());
        assert!(GridIndex::build(Rect::new(0.0, 0.0, 0.0, 10.0), 10.0, &[], vocab).is_err());
        assert!(GridIndex::build(extent, 10.0, &[], vocab).is_ok());
    }

    #[test]
    fn grid_dimensions_cover_extent() {
        let vocab = &mut Vocabulary::new();
        let grid = GridIndex::build(Rect::new(0.0, 0.0, 1050.0, 980.0), 100.0, &[], vocab).unwrap();
        assert_eq!(grid.dimensions(), (11, 10));
        assert_eq!(grid.cell_size(), 100.0);
        assert_eq!(grid.occupied_cells(), 0);
        assert!(grid.cells_intersecting(&grid.extent()).is_empty());
    }

    #[test]
    fn objects_land_in_cell_major_slots() {
        let objects = make_objects();
        let (grid, _) = build(&objects);
        assert_eq!(grid.object_count(), 5);
        assert_eq!(grid.occupied_cells(), 4);
        assert_eq!(grid.posting_count(), 6);
        assert_eq!(
            grid.cell_of(&Point::new(50.0, 50.0)),
            Some(CellId { col: 0, row: 0 })
        );
        // A point exactly on the max boundary clamps into the last cell.
        assert_eq!(
            grid.cell_of(&Point::new(1000.0, 1000.0)),
            Some(CellId { col: 9, row: 9 })
        );
        assert_eq!(grid.cell_of(&Point::new(-1.0, 0.0)), None);
        // Cell (0, 0) holds objects 0 and 4 in input order, in slots 0..2.
        let slots = cell_slots(&grid, CellId { col: 0, row: 0 }).unwrap();
        assert_eq!(slots, 0..2);
        let ids: Vec<ObjectId> = slots.map(|s| objects[grid.slot_object(s)].id).collect();
        assert_eq!(ids, vec![ObjectId(0), ObjectId(4)]);
        // Cells are slotted in ascending (col, row) order.
        assert_eq!(cell_slots(&grid, CellId { col: 1, row: 0 }), Some(2..3));
        assert_eq!(cell_slots(&grid, CellId { col: 4, row: 4 }), Some(3..4));
        assert_eq!(cell_slots(&grid, CellId { col: 9, row: 9 }), Some(4..5));
        assert!(cell_slots(&grid, CellId { col: 5, row: 5 }).is_none());
    }

    #[test]
    fn cell_rect_tiles_the_extent() {
        let (grid, _) = build(&make_objects());
        let r = grid.cell_rect(CellId { col: 1, row: 0 });
        assert_eq!(r, Rect::new(100.0, 0.0, 200.0, 100.0));
        let last = grid.cell_rect(CellId { col: 9, row: 9 });
        assert_eq!(last.max_x, 1000.0);
        assert_eq!(last.max_y, 1000.0);
    }

    #[test]
    fn rejects_bad_objects() {
        let extent = Rect::new(0.0, 0.0, 1000.0, 1000.0);
        let cases = [
            (
                GeoTextObject::from_keywords(10u64, Point::new(5000.0, 0.0), ["bar"]),
                GeoTextError::InvalidLocation { object: 10 },
            ),
            (
                GeoTextObject::from_keywords(11u64, Point::new(10.0, 10.0), Vec::<String>::new()),
                GeoTextError::EmptyDescription { object: 11 },
            ),
            (
                GeoTextObject::from_keywords(12u64, Point::new(f64::NAN, 10.0), ["bar"]),
                GeoTextError::InvalidLocation { object: 12 },
            ),
        ];
        for (object, expected) in cases {
            let mut vocab = Vocabulary::new();
            let err = GridIndex::build(extent, 100.0, &[object], &mut vocab).unwrap_err();
            assert_eq!(err, expected);
            assert_eq!(
                vocab.document_count(),
                0,
                "a failed build registers nothing"
            );
        }
    }

    #[test]
    fn cells_intersecting_finds_occupied_cells_only() {
        let (grid, _) = build(&make_objects());
        let all = grid.cells_intersecting(&Rect::new(0.0, 0.0, 1000.0, 1000.0));
        assert_eq!(all.len(), 4);
        assert!(all.windows(2).all(|w| w[0] < w[1]), "ascending cell order");
        let corner = grid.cells_intersecting(&Rect::new(0.0, 0.0, 160.0, 90.0));
        assert_eq!(
            corner,
            vec![CellId { col: 0, row: 0 }, CellId { col: 1, row: 0 }]
        );
        let nothing = grid.cells_intersecting(&Rect::new(600.0, 0.0, 800.0, 200.0));
        assert!(nothing.is_empty());
        let outside = grid.cells_intersecting(&Rect::new(2000.0, 2000.0, 3000.0, 3000.0));
        assert!(outside.is_empty());
        // A column range whose rows skip occupied cells in between.
        let band = grid.cells_intersecting(&Rect::new(0.0, 400.0, 1000.0, 1000.0));
        assert_eq!(
            band,
            vec![CellId { col: 4, row: 4 }, CellId { col: 9, row: 9 }]
        );
    }

    #[test]
    fn accumulation_is_limited_to_the_cover_and_matches_vsm() {
        let objects = make_objects();
        let (grid, vocab) = build(&objects);
        let terms = idf_terms(&vocab, &["restaurant", "pizza"]);
        let acc = scores(&grid, &Rect::new(0.0, 0.0, 200.0, 100.0), &terms);
        assert_eq!(acc.keys().copied().collect::<Vec<_>>(), vec![0, 1, 4]);
        let q = crate::vsm::QueryVector::new(&vocab, &["restaurant", "pizza"]);
        for (&i, &partial) in &acc {
            let direct = q.score_object(&objects[i]);
            assert!((direct - partial / q.norm).abs() < 1e-12, "object {i}");
        }
        // Whole space: the cafe and the museum never match.
        let all = scores(&grid, &Rect::new(0.0, 0.0, 1000.0, 1000.0), &terms);
        assert_eq!(all.len(), 3);
        assert!(!all.contains_key(&2));
    }

    #[test]
    fn zero_idf_and_absent_terms_contribute_nothing() {
        let objects = make_objects();
        let (grid, vocab) = build(&objects);
        let restaurant = vocab.lookup("restaurant").unwrap();
        let extent = grid.extent();
        assert!(scores(&grid, &extent, &[(restaurant, 0.0)]).is_empty());
        assert!(scores(&grid, &extent, &[(TermId(999), 1.0)]).is_empty());
    }
}
