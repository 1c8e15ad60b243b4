//! [`NodeGrid`]: a uniform spatial grid over the network's node locations.
//!
//! `Q.Λ` extraction used to scan every node of the network per query — fine
//! at a few thousand nodes, a prepare-phase wall at continent scale.  The
//! grid buckets node ids by cell in a CSR layout (one offset table, one flat
//! id array — no per-cell allocation), so a query rectangle touches only the
//! nodes of its **cell cover**: the cost is proportional to the covered area,
//! not to `|V|`.
//!
//! The grid is built once per network in [`crate::graph::RoadNetwork`]'s
//! constructor.  Cell size is chosen from the node density so the average
//! cell holds a handful of nodes; within a cell, ids ascend (the build is a
//! counting sort over nodes in id order), which downstream sorted merges rely
//! on.  The same grid answers [`crate::graph::RoadNetwork::nearest_node`]
//! with a ring search, which is how objects are mapped onto their nearest
//! nodes.

use crate::geo::{Point, Rect};
use crate::node::{NodeId, RoadNode};
use serde::{Deserialize, Serialize};

/// Target average number of nodes per occupied grid cell.
const TARGET_NODES_PER_CELL: f64 = 8.0;

/// A uniform grid mapping cells to the node ids located inside them.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NodeGrid {
    /// Bounding rectangle of all node locations; `None` for an empty network.
    extent: Option<Rect>,
    cell_size: f64,
    cols: u32,
    rows: u32,
    /// CSR offsets: cell `(col, row)` owns
    /// `node_ids[cell_offsets[row * cols + col] .. cell_offsets[row * cols + col + 1]]`.
    cell_offsets: Vec<u32>,
    /// Node ids grouped by cell, ascending id within each cell.
    node_ids: Vec<NodeId>,
}

/// The grid cells intersecting a query rectangle: an inclusive column and row
/// range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridCover {
    /// First intersecting column.
    pub col_lo: u32,
    /// Last intersecting column (inclusive).
    pub col_hi: u32,
    /// First intersecting row.
    pub row_lo: u32,
    /// Last intersecting row (inclusive).
    pub row_hi: u32,
}

impl GridCover {
    /// Number of cells in the cover.
    pub fn cell_count(&self) -> u64 {
        u64::from(self.col_hi - self.col_lo + 1) * u64::from(self.row_hi - self.row_lo + 1)
    }
}

impl NodeGrid {
    /// Builds the grid for a node set (counting-sort CSR; nodes are visited
    /// in id order so per-cell id lists come out ascending).
    pub(crate) fn build(nodes: &[RoadNode]) -> NodeGrid {
        let Some(extent) = Rect::bounding(nodes.iter().map(|n| n.point)) else {
            return NodeGrid {
                extent: None,
                cell_size: 1.0,
                cols: 0,
                rows: 0,
                cell_offsets: vec![0],
                node_ids: Vec::new(),
            };
        };
        // Aim for TARGET_NODES_PER_CELL nodes per cell on average.  Degenerate
        // extents (all nodes collinear or coincident) get a floor on each
        // dimension so the arithmetic stays finite and the grid stays tiny.
        let cells_target = ((nodes.len() as f64) / TARGET_NODES_PER_CELL).max(1.0);
        let width = extent.width().max(1e-6);
        let height = extent.height().max(1e-6);
        let cell_size = (width * height / cells_target).sqrt().max(1e-9);
        let cols = ((width / cell_size).ceil() as u32).max(1);
        let rows = ((height / cell_size).ceil() as u32).max(1);

        let cell_of = |n: &RoadNode| -> usize {
            let col = (((n.point.x - extent.min_x) / cell_size) as u32).min(cols - 1);
            let row = (((n.point.y - extent.min_y) / cell_size) as u32).min(rows - 1);
            row as usize * cols as usize + col as usize
        };

        let cell_count = cols as usize * rows as usize;
        let mut cell_offsets = vec![0u32; cell_count + 1];
        for n in nodes {
            cell_offsets[cell_of(n) + 1] += 1;
        }
        for i in 0..cell_count {
            cell_offsets[i + 1] += cell_offsets[i];
        }
        let mut cursor: Vec<u32> = cell_offsets[..cell_count].to_vec();
        let mut node_ids = vec![NodeId(0); nodes.len()];
        for n in nodes {
            let c = cell_of(n);
            node_ids[cursor[c] as usize] = n.id;
            cursor[c] += 1;
        }
        NodeGrid {
            extent: Some(extent),
            cell_size,
            cols,
            rows,
            cell_offsets,
            node_ids,
        }
    }

    /// Grid dimensions as `(cols, rows)`.
    pub fn dimensions(&self) -> (u32, u32) {
        (self.cols, self.rows)
    }

    /// Side length of a cell in metres.
    pub fn cell_size(&self) -> f64 {
        self.cell_size
    }

    /// The inclusive cell range intersecting `rect`, or `None` when the rect
    /// misses the grid extent entirely (or the network is empty).
    pub fn cover(&self, rect: &Rect) -> Option<GridCover> {
        let extent = self.extent.as_ref()?;
        let clip = rect.intersection(extent)?;
        let col = |x: f64| (((x - extent.min_x) / self.cell_size) as u32).min(self.cols - 1);
        let row = |y: f64| (((y - extent.min_y) / self.cell_size) as u32).min(self.rows - 1);
        Some(GridCover {
            col_lo: col(clip.min_x),
            col_hi: col(clip.max_x),
            row_lo: row(clip.min_y),
            row_hi: row(clip.max_y),
        })
    }

    /// Appends every node id bucketed in the cover's cells to `out`, row by
    /// row.  Candidates only: a node in an edge cell may still fall outside
    /// the query rectangle, so callers filter by point containment.
    pub fn candidates_in_cover(&self, cover: &GridCover, out: &mut Vec<NodeId>) {
        for row in cover.row_lo..=cover.row_hi {
            let base = row as usize * self.cols as usize;
            // Cells of one row are contiguous in the CSR arrays, so the whole
            // column span is a single slice copy.
            let start = self.cell_offsets[base + cover.col_lo as usize] as usize;
            let end = self.cell_offsets[base + cover.col_hi as usize + 1] as usize;
            out.extend_from_slice(&self.node_ids[start..end]);
        }
    }

    /// Total number of node ids bucketed in the cover's cells.
    pub fn candidate_count(&self, cover: &GridCover) -> usize {
        let mut total = 0usize;
        for row in cover.row_lo..=cover.row_hi {
            let base = row as usize * self.cols as usize;
            let start = self.cell_offsets[base + cover.col_lo as usize] as usize;
            let end = self.cell_offsets[base + cover.col_hi as usize + 1] as usize;
            total += end - start;
        }
        total
    }

    /// The node of `nodes` (the slice the grid was built from) nearest to
    /// `p`: least squared distance, then lowest id.  `None` for an empty
    /// grid.
    ///
    /// Scans square rings of cells outward from `p`'s cell and stops once
    /// the best squared distance is strictly below the squared distance from
    /// `p` to the nearest unscanned cell, so a tie in the next ring is never
    /// skipped.
    pub(crate) fn nearest(&self, nodes: &[RoadNode], p: &Point) -> Option<NodeId> {
        let extent = self.extent.as_ref()?;
        let (cols, rows) = (i64::from(self.cols), i64::from(self.rows));
        // The build's cell arithmetic; the saturating cast and the `min`
        // clamp a probe outside the extent to the nearest border cell.
        let col = i64::from((((p.x - extent.min_x) / self.cell_size) as u32).min(self.cols - 1));
        let row = i64::from((((p.y - extent.min_y) / self.cell_size) as u32).min(self.rows - 1));
        let edge_x = |c: i64| extent.min_x + c as f64 * self.cell_size;
        let edge_y = |r: i64| extent.min_y + r as f64 * self.cell_size;
        let mut best: Option<(f64, NodeId)> = None;
        for ring in 0.. {
            let (c_lo, c_hi, r_lo, r_hi) = (col - ring, col + ring, row - ring, row + ring);
            let mut scan = |r: i64, lo: i64, hi: i64| {
                // Cells `lo..=hi` of row `r` are contiguous in the CSR arrays.
                let start = self.cell_offsets[(r * cols + lo) as usize] as usize;
                let end = self.cell_offsets[(r * cols + hi + 1) as usize] as usize;
                for &id in &self.node_ids[start..end] {
                    let d = nodes[id.index()].point.distance_sq(p);
                    if best.map_or(true, |b| (d, id) < b) {
                        best = Some((d, id));
                    }
                }
            };
            for r in r_lo.max(0)..=r_hi.min(rows - 1) {
                if r == r_lo || r == r_hi {
                    scan(r, c_lo.max(0), c_hi.min(cols - 1));
                } else {
                    // Inner rows of the ring hold only its two end cells.
                    if c_lo >= 0 {
                        scan(r, c_lo, c_lo);
                    }
                    if c_hi < cols {
                        scan(r, c_hi, c_hi);
                    }
                }
            }
            // Distance to the nearest cell beyond the scanned square, over
            // the sides that still have cells beyond them.
            let gap = [
                (c_lo > 0, p.x - edge_x(c_lo)),
                (c_hi + 1 < cols, edge_x(c_hi + 1) - p.x),
                (r_lo > 0, p.y - edge_y(r_lo)),
                (r_hi + 1 < rows, edge_y(r_hi + 1) - p.y),
            ]
            .into_iter()
            .filter_map(|(beyond, d)| beyond.then_some(d.max(0.0)))
            .fold(f64::INFINITY, f64::min);
            if gap == f64::INFINITY || best.is_some_and(|(d, _)| d < gap * gap) {
                break;
            }
        }
        best.map(|(_, id)| id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes_on_grid(side: u32, spacing: f64) -> Vec<RoadNode> {
        let mut nodes = Vec::new();
        for y in 0..side {
            for x in 0..side {
                nodes.push(RoadNode {
                    id: NodeId(y * side + x),
                    point: Point::new(f64::from(x) * spacing, f64::from(y) * spacing),
                });
            }
        }
        nodes
    }

    #[test]
    fn empty_grid_has_no_cover() {
        let g = NodeGrid::build(&[]);
        assert!(g.cover(&Rect::new(0.0, 0.0, 1.0, 1.0)).is_none());
        assert_eq!(g.dimensions(), (0, 0));
    }

    #[test]
    fn cover_and_candidates_match_a_linear_scan() {
        let nodes = nodes_on_grid(20, 100.0);
        let g = NodeGrid::build(&nodes);
        for rect in [
            Rect::new(0.0, 0.0, 1900.0, 1900.0),
            Rect::new(250.0, 250.0, 750.0, 1100.0),
            Rect::new(0.0, 0.0, 0.0, 0.0),
            Rect::new(1899.0, 1899.0, 5000.0, 5000.0),
        ] {
            let mut candidates = Vec::new();
            if let Some(cover) = g.cover(&rect) {
                g.candidates_in_cover(&cover, &mut candidates);
                assert_eq!(candidates.len(), g.candidate_count(&cover));
            }
            candidates.retain(|id| rect.contains(&nodes[id.index()].point));
            candidates.sort_unstable();
            let expected: Vec<NodeId> = nodes
                .iter()
                .filter(|n| rect.contains(&n.point))
                .map(|n| n.id)
                .collect();
            assert_eq!(candidates, expected, "rect {rect:?}");
        }
    }

    #[test]
    fn rect_outside_extent_has_no_cover() {
        let nodes = nodes_on_grid(4, 100.0);
        let g = NodeGrid::build(&nodes);
        assert!(g
            .cover(&Rect::new(1000.0, 1000.0, 2000.0, 2000.0))
            .is_none());
        assert!(g.cover(&Rect::new(-50.0, -50.0, -1.0, -1.0)).is_none());
    }

    #[test]
    fn small_cover_touches_few_candidates() {
        let nodes = nodes_on_grid(100, 100.0); // 10k nodes over ~10km x 10km
        let g = NodeGrid::build(&nodes);
        let cover = g.cover(&Rect::new(4000.0, 4000.0, 4400.0, 4400.0)).unwrap();
        // A ~0.2% area rect must not touch anywhere near the whole network.
        assert!(
            g.candidate_count(&cover) < nodes.len() / 10,
            "cover touched {} of {} nodes",
            g.candidate_count(&cover),
            nodes.len()
        );
    }

    #[test]
    fn degenerate_extents_build_finite_grids() {
        // All nodes coincident.
        let coincident: Vec<RoadNode> = (0..5)
            .map(|i| RoadNode {
                id: NodeId(i),
                point: Point::new(3.0, 4.0),
            })
            .collect();
        let g = NodeGrid::build(&coincident);
        let cover = g.cover(&Rect::new(0.0, 0.0, 10.0, 10.0)).unwrap();
        let mut out = Vec::new();
        g.candidates_in_cover(&cover, &mut out);
        assert_eq!(out.len(), 5);
        // All nodes collinear.
        let collinear: Vec<RoadNode> = (0..50)
            .map(|i| RoadNode {
                id: NodeId(i),
                point: Point::new(f64::from(i) * 10.0, 0.0),
            })
            .collect();
        let g = NodeGrid::build(&collinear);
        let cover = g.cover(&Rect::new(95.0, -1.0, 205.0, 1.0)).unwrap();
        let mut out = Vec::new();
        g.candidates_in_cover(&cover, &mut out);
        out.retain(|id| Rect::new(95.0, -1.0, 205.0, 1.0).contains(&collinear[id.index()].point));
        assert_eq!(out.len(), 11); // nodes at 100, 110, …, 200
    }
}
