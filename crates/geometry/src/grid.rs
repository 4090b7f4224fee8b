//! Square-grid rasterization of the monitored field.
//!
//! The exact face arrangement induced by all pairs' Apollonius circles is a
//! hard computational-geometry problem; the paper instead rasterizes the
//! field into square cells, labels each cell centre with its signature
//! vector, and groups equal labels into faces whose location estimate is the
//! centroid of their cells (Section 4.3, Fig. 6, eq. 5). [`Grid`] is that
//! rasterization: an immutable description of the cell lattice with
//! index ↔ coordinate conversions and 4-neighbourhood queries (used to build
//! the neighbor-face links of Definition 8).

use crate::aabb::Rect;
use crate::point::Point;

/// Index of one grid cell: column `ix`, row `iy`, both zero-based from the
/// lower-left corner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellIndex {
    /// Column (x direction).
    pub ix: u32,
    /// Row (y direction).
    pub iy: u32,
}

impl CellIndex {
    /// Creates a cell index.
    #[inline]
    pub const fn new(ix: u32, iy: u32) -> Self {
        Self { ix, iy }
    }
}

/// An immutable square-cell lattice covering a rectangle.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid {
    rect: Rect,
    cell: f64,
    nx: u32,
    ny: u32,
}

impl Grid {
    /// Covers `rect` with square cells of side `cell`. The last column/row
    /// may extend past `rect.max` (cells never shrink).
    ///
    /// # Panics
    ///
    /// Panics if `cell` is non-positive/non-finite or the grid would exceed
    /// `u32` cells per axis.
    pub fn cover(rect: Rect, cell: f64) -> Self {
        assert!(
            cell.is_finite() && cell > 0.0,
            "cell size must be positive, got {cell}"
        );
        let nx = (rect.width() / cell).ceil().max(1.0);
        let ny = (rect.height() / cell).ceil().max(1.0);
        assert!(
            nx <= u32::MAX as f64 && ny <= u32::MAX as f64,
            "grid too large"
        );
        Self {
            rect,
            cell,
            nx: nx as u32,
            ny: ny as u32,
        }
    }

    /// The covered rectangle (the monitored field).
    #[inline]
    pub fn rect(&self) -> Rect {
        self.rect
    }

    /// Cell side length in metres.
    #[inline]
    pub fn cell_size(&self) -> f64 {
        self.cell
    }

    /// Number of columns.
    #[inline]
    pub fn nx(&self) -> u32 {
        self.nx
    }

    /// Number of rows.
    #[inline]
    pub fn ny(&self) -> u32 {
        self.ny
    }

    /// Total number of cells.
    #[inline]
    pub fn cell_count(&self) -> usize {
        self.nx as usize * self.ny as usize
    }

    /// Centre of cell `idx`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `idx` is out of range.
    #[inline]
    pub fn center(&self, idx: CellIndex) -> Point {
        debug_assert!(
            idx.ix < self.nx && idx.iy < self.ny,
            "cell index out of range"
        );
        Point::new(
            self.rect.min.x + (idx.ix as f64 + 0.5) * self.cell,
            self.rect.min.y + (idx.iy as f64 + 0.5) * self.cell,
        )
    }

    /// Cell containing `p`, or `None` if `p` lies outside the lattice.
    pub fn index_of(&self, p: Point) -> Option<CellIndex> {
        if p.x < self.rect.min.x || p.y < self.rect.min.y {
            return None;
        }
        let ix = ((p.x - self.rect.min.x) / self.cell).floor();
        let iy = ((p.y - self.rect.min.y) / self.cell).floor();
        if ix >= self.nx as f64 || iy >= self.ny as f64 || !ix.is_finite() || !iy.is_finite() {
            return None;
        }
        Some(CellIndex::new(ix as u32, iy as u32))
    }

    /// Row-major linear index of `idx` (rows are y, columns x).
    #[inline]
    pub fn linear(&self, idx: CellIndex) -> usize {
        idx.iy as usize * self.nx as usize + idx.ix as usize
    }

    /// Inverse of [`Grid::linear`].
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `lin` is out of range.
    #[inline]
    pub fn from_linear(&self, lin: usize) -> CellIndex {
        debug_assert!(lin < self.cell_count(), "linear index out of range");
        CellIndex::new(
            (lin % self.nx as usize) as u32,
            (lin / self.nx as usize) as u32,
        )
    }

    /// Iterates all cells in row-major order with their centres.
    pub fn iter_centers(&self) -> impl Iterator<Item = (CellIndex, Point)> + '_ {
        (0..self.cell_count()).map(move |lin| {
            let idx = self.from_linear(lin);
            (idx, self.center(idx))
        })
    }

    /// The 4-neighbourhood of `idx` (left/right/down/up, in-range only).
    pub fn neighbors4(&self, idx: CellIndex) -> impl Iterator<Item = CellIndex> + '_ {
        let (ix, iy) = (idx.ix as i64, idx.iy as i64);
        let (nx, ny) = (self.nx as i64, self.ny as i64);
        [(ix - 1, iy), (ix + 1, iy), (ix, iy - 1), (ix, iy + 1)]
            .into_iter()
            .filter(move |&(x, y)| x >= 0 && y >= 0 && x < nx && y < ny)
            .map(|(x, y)| CellIndex::new(x as u32, y as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_10x10() -> Grid {
        Grid::cover(Rect::square(10.0), 1.0)
    }

    #[test]
    fn cover_dimensions() {
        let g = grid_10x10();
        assert_eq!(g.nx(), 10);
        assert_eq!(g.ny(), 10);
        assert_eq!(g.cell_count(), 100);
        assert_eq!(g.cell_size(), 1.0);
    }

    #[test]
    fn cover_rounds_up_partial_cells() {
        let g = Grid::cover(Rect::square(10.0), 3.0);
        assert_eq!(g.nx(), 4);
        assert_eq!(g.ny(), 4);
    }

    #[test]
    fn center_and_index_round_trip() {
        let g = grid_10x10();
        for (idx, center) in g.iter_centers() {
            assert_eq!(g.index_of(center), Some(idx));
            assert_eq!(g.from_linear(g.linear(idx)), idx);
        }
    }

    #[test]
    fn first_cell_center_per_paper_convention() {
        // Paper Fig. 6: the bottom-left cell centre is the lattice origin of
        // the coordinate system; with a field starting at (0,0) and 1 m
        // cells, that centre sits at (0.5, 0.5).
        let g = grid_10x10();
        assert_eq!(g.center(CellIndex::new(0, 0)), Point::new(0.5, 0.5));
    }

    #[test]
    fn index_of_outside_is_none() {
        let g = grid_10x10();
        assert_eq!(g.index_of(Point::new(-0.01, 5.0)), None);
        assert_eq!(g.index_of(Point::new(5.0, 10.01)), None);
        assert!(g.index_of(Point::new(9.99, 9.99)).is_some());
    }

    #[test]
    fn neighbors4_corner_edge_interior() {
        let g = grid_10x10();
        assert_eq!(g.neighbors4(CellIndex::new(0, 0)).count(), 2);
        assert_eq!(g.neighbors4(CellIndex::new(5, 0)).count(), 3);
        assert_eq!(g.neighbors4(CellIndex::new(5, 5)).count(), 4);
        let nbrs: Vec<_> = g.neighbors4(CellIndex::new(9, 9)).collect();
        assert_eq!(nbrs.len(), 2);
        assert!(nbrs.contains(&CellIndex::new(8, 9)));
        assert!(nbrs.contains(&CellIndex::new(9, 8)));
    }

    #[test]
    fn iter_centers_is_row_major_and_complete() {
        let g = Grid::cover(Rect::square(3.0), 1.0);
        let cells: Vec<_> = g.iter_centers().map(|(i, _)| i).collect();
        assert_eq!(cells.len(), 9);
        assert_eq!(cells[0], CellIndex::new(0, 0));
        assert_eq!(cells[1], CellIndex::new(1, 0));
        assert_eq!(cells[3], CellIndex::new(0, 1));
        assert_eq!(cells[8], CellIndex::new(2, 2));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_cell_size_rejected() {
        let _ = Grid::cover(Rect::square(1.0), 0.0);
    }
}
