//! The region lattice: a total partition of the grid into rectangular
//! regions.

use sdso_core::ObjectId;

/// A region's index in its lattice, row-major (`ry * regions_x + rx`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegionId(pub u16);

/// Partitions a `width x height` grid of cells into a `regions_x x
/// regions_y` lattice of rectangular regions.
///
/// Every cell belongs to exactly one region (the partition proptest pins
/// this totality), and the cell → object mapping follows the game's
/// row-major convention: cell `(x, y)` is `ObjectId(y * width + x)`.
/// Regions are `width.div_ceil(regions_x)` cells wide, so when the grid
/// does not divide evenly the right/bottom edge regions are smaller,
/// never empty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionLattice {
    width: u16,
    height: u16,
    regions_x: u16,
    regions_y: u16,
    /// Cells per region column (`width.div_ceil(regions_x)`).
    cell_w: u16,
    /// Cells per region row (`height.div_ceil(regions_y)`).
    cell_h: u16,
}

/// The region edge length the default lattices aim for: the paper's
/// 32x24 grid becomes 4x3 regions of 8x8 cells.
const DEFAULT_REGION_EDGE: u16 = 8;

impl RegionLattice {
    /// A lattice of `regions_x x regions_y` regions over a `width x
    /// height` grid. Region counts are clamped into `1..=dimension`, so
    /// any positive inputs produce a valid total partition.
    pub fn new(width: u16, height: u16, regions_x: u16, regions_y: u16) -> Self {
        assert!(width > 0 && height > 0, "lattice over an empty grid");
        let cell_w = width.div_ceil(regions_x.clamp(1, width));
        let cell_h = height.div_ceil(regions_y.clamp(1, height));
        RegionLattice {
            width,
            height,
            // Re-derive the counts from the cell size: with ceiling cell
            // sizing the requested count can overshoot what the grid uses
            // (11 cells / 7 regions → 2-wide cells → 6 regions), and the
            // trailing region would be empty. `width.div_ceil(cell_w)`
            // regions of `cell_w` cells are all nonempty.
            regions_x: width.div_ceil(cell_w),
            regions_y: height.div_ceil(cell_h),
            cell_w,
            cell_h,
        }
    }

    /// The default lattice for a grid: regions of (at most)
    /// [`DEFAULT_REGION_EDGE`] cells per side — 4x3 regions on the
    /// paper's 32x24 grid, scaling with the grid for larger clusters.
    pub fn for_grid(width: u16, height: u16) -> Self {
        RegionLattice::new(
            width,
            height,
            width.div_ceil(DEFAULT_REGION_EDGE),
            height.div_ceil(DEFAULT_REGION_EDGE),
        )
    }

    /// Total region count.
    pub fn regions(&self) -> u16 {
        self.regions_x * self.regions_y
    }

    /// The region containing cell `(x, y)`. Coordinates beyond the grid
    /// clamp to the edge region, so callers working from possibly-stale
    /// positions always get a valid region.
    pub fn region_of_xy(&self, x: u16, y: u16) -> RegionId {
        let rx = (x / self.cell_w).min(self.regions_x - 1);
        let ry = (y / self.cell_h).min(self.regions_y - 1);
        RegionId(ry * self.regions_x + rx)
    }

    /// The region containing an object, under the row-major cell → object
    /// convention. Ids beyond the grid clamp to the last cell.
    pub fn region_of_object(&self, object: ObjectId) -> RegionId {
        let idx = object.0.min(u32::from(self.width) * u32::from(self.height) - 1);
        let x = (idx % u32::from(self.width)) as u16;
        let y = (idx / u32::from(self.width)) as u16;
        self.region_of_xy(x, y)
    }

    /// All regions intersecting the Chebyshev box of radius `d` around
    /// `(x, y)` (a superset of the Manhattan ball the game's sensing
    /// range uses — conservative on purpose), ascending.
    pub fn regions_within(&self, x: u16, y: u16, d: u16) -> Vec<RegionId> {
        let x0 = x.saturating_sub(d);
        let y0 = y.saturating_sub(d);
        let x1 = (x.saturating_add(d)).min(self.width - 1);
        let y1 = (y.saturating_add(d)).min(self.height - 1);
        let RegionId(first) = self.region_of_xy(x0, y0);
        let RegionId(last) = self.region_of_xy(x1, y1);
        let (rx0, ry0) = (first % self.regions_x, first / self.regions_x);
        let (rx1, ry1) = (last % self.regions_x, last / self.regions_x);
        let mut out = Vec::with_capacity(usize::from(rx1 - rx0 + 1) * usize::from(ry1 - ry0 + 1));
        for ry in ry0..=ry1 {
            for rx in rx0..=rx1 {
                out.push(RegionId(ry * self.regions_x + rx));
            }
        }
        out
    }
}

#[cfg(test)]
impl RegionLattice {
    /// The paper-grid lattice: 4x3 regions of 8x8 cells over 32x24.
    pub fn paper() -> Self {
        RegionLattice::for_grid(32, 24)
    }

    /// Region columns.
    pub fn regions_x(&self) -> u16 {
        self.regions_x
    }

    /// Region rows.
    pub fn regions_y(&self) -> u16 {
        self.regions_y
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_lattice_is_4x3_of_8x8() {
        let l = RegionLattice::paper();
        assert_eq!((l.regions_x(), l.regions_y()), (4, 3));
        assert_eq!(l.regions(), 12);
        assert_eq!(l.region_of_xy(0, 0), RegionId(0));
        assert_eq!(l.region_of_xy(7, 7), RegionId(0));
        assert_eq!(l.region_of_xy(8, 0), RegionId(1));
        assert_eq!(l.region_of_xy(31, 23), RegionId(11));
    }

    #[test]
    fn object_mapping_matches_row_major_cells() {
        let l = RegionLattice::paper();
        for (x, y) in [(0u16, 0u16), (9, 3), (31, 23), (15, 8)] {
            let object = ObjectId(u32::from(y) * 32 + u32::from(x));
            assert_eq!(l.region_of_object(object), l.region_of_xy(x, y));
        }
    }

    #[test]
    fn every_cell_maps_to_exactly_one_in_range_region() {
        let l = RegionLattice::new(33, 10, 4, 3); // non-dividing edges
        let mut per_region = vec![0u32; usize::from(l.regions())];
        for y in 0..10 {
            for x in 0..33 {
                per_region[usize::from(l.region_of_xy(x, y).0)] += 1;
            }
        }
        assert_eq!(per_region.iter().sum::<u32>(), 330, "partition is total");
        assert!(per_region.iter().all(|&c| c > 0), "no region is empty");
    }

    #[test]
    fn regions_within_covers_the_sensing_box() {
        let l = RegionLattice::paper();
        // Radius 3 around (8, 8): straddles regions 0, 1, 4, 5.
        let within = l.regions_within(8, 8, 3);
        assert_eq!(within, vec![RegionId(0), RegionId(1), RegionId(4), RegionId(5)]);
        // Every cell in the Chebyshev box is in one of the regions.
        for y in 5..=11u16 {
            for x in 5..=11u16 {
                assert!(within.contains(&l.region_of_xy(x, y)));
            }
        }
        // Corner positions clamp instead of wrapping.
        assert_eq!(l.regions_within(0, 0, 2), vec![RegionId(0)]);
        assert_eq!(l.regions_within(31, 23, 40).len(), usize::from(l.regions()));
    }

    #[test]
    fn out_of_range_coordinates_clamp_to_the_edge_region() {
        let l = RegionLattice::paper();
        assert_eq!(l.region_of_xy(500, 500), RegionId(11));
        assert_eq!(l.region_of_object(ObjectId(u32::MAX)), RegionId(11));
    }

    proptest! {
        // ------------------------------------------------------------------
        // Total partition: every cell maps to exactly one region, every
        // region id is in range, and no region is empty.
        // ------------------------------------------------------------------
        #[test]
        fn region_assignment_is_a_total_partition(
            width in 1u16..48,
            height in 1u16..48,
            regions_x in 1u16..8,
            regions_y in 1u16..8,
        ) {
            let lattice = RegionLattice::new(width, height, regions_x, regions_y);
            let mut per_region = vec![0u32; usize::from(lattice.regions())];
            for y in 0..height {
                for x in 0..width {
                    let RegionId(r) = lattice.region_of_xy(x, y);
                    prop_assert!(r < lattice.regions(), "region id in range");
                    per_region[usize::from(r)] += 1;
                    // The object mapping agrees with the coordinate mapping.
                    let object = ObjectId(u32::from(y) * u32::from(width) + u32::from(x));
                    prop_assert_eq!(lattice.region_of_object(object), RegionId(r));
                }
            }
            let total: u32 = per_region.iter().sum();
            prop_assert_eq!(total, u32::from(width) * u32::from(height), "partition is total");
            prop_assert!(per_region.iter().all(|&c| c > 0), "no region is empty");
        }
    }
}
