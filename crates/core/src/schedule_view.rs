//! Textual rendering of scheduler occupancy (the paper's Fig. 3/4 view).
//!
//! The paper explains the LSF policy with a *schedule grid*: one row per
//! intermediate port, one column per stripe-size class, with stripes drawn as
//! vertical bars.  This module renders the live occupancy of an input port's
//! scheduler (or of an intermediate port, which uses the same shape of data)
//! as a small text table — handy in examples, debugging sessions and test
//! failure messages.

use crate::fifo::FifoGrid;
use crate::lsf::{levels, RowScanLsf};

/// A snapshot of per-row, per-level queue occupancy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OccupancyGrid {
    n: usize,
    levels: usize,
    /// `counts[row][level]` = queued packets at that grid cell.
    counts: Vec<Vec<usize>>,
}

impl OccupancyGrid {
    /// Build an empty grid for an `n`-port switch.
    pub fn new(n: usize) -> Self {
        assert!(n.is_power_of_two());
        let levels = levels(n);
        OccupancyGrid {
            n,
            levels,
            counts: vec![vec![0; levels]; n],
        }
    }

    /// Snapshot the occupancy of a row-scan LSF scheduler.
    pub fn from_row_scan(scheduler: &RowScanLsf, queues: &FifoGrid) -> Self {
        let n = scheduler.n();
        let mut grid = Self::new(n);
        for row in 0..n {
            for level in 0..grid.levels {
                grid.counts[row][level] = scheduler.queue_len(queues, row, level);
            }
        }
        grid
    }

    /// Set one cell (used when building snapshots from other sources, e.g.
    /// an intermediate port's per-output queues).
    pub fn set(&mut self, row: usize, level: usize, count: usize) {
        self.counts[row][level] = count;
    }

    /// Occupancy of one cell.
    pub fn get(&self, row: usize, level: usize) -> usize {
        self.counts[row][level]
    }

    /// Total queued packets.
    pub fn total(&self) -> usize {
        self.counts.iter().flatten().sum()
    }

    /// Total queued packets destined to one row (intermediate port).
    pub fn row_total(&self, row: usize) -> usize {
        self.counts[row].iter().sum()
    }

    /// Render the grid as a text table: rows are intermediate ports, columns
    /// are stripe sizes from 1 up to N (left to right), mirroring Fig. 4 of
    /// the paper.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("        ");
        for level in 0..self.levels {
            out.push_str(&format!("{:>6}", 1usize << level));
        }
        out.push_str("   total\n");
        for row in 0..self.n {
            out.push_str(&format!("port {row:>3}"));
            for level in 0..self.levels {
                let c = self.counts[row][level];
                if c == 0 {
                    out.push_str("     .");
                } else {
                    out.push_str(&format!("{c:>6}"));
                }
            }
            out.push_str(&format!("{:>8}\n", self.row_total(row)));
        }
        out.push_str(&format!("total queued: {}\n", self.total()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::PacketHandle;
    use crate::voq::Voq;

    /// An `n`-port row-scan scheduler (grid queues from 1) holding the given
    /// `(start, size)` stripes, each released by a VOQ from grid queue 0.
    fn scheduler_with(n: usize, stripes: &[(usize, usize)]) -> (RowScanLsf, FifoGrid) {
        let mut grid = FifoGrid::new(1 + RowScanLsf::queue_count(n));
        let mut s = RowScanLsf::new(n, 1);
        for &(start, size) in stripes {
            let mut voq = Voq::new(n, 0, start, size);
            for k in 0..size as u32 {
                voq.push(&mut grid, PacketHandle::from_raw(k), 1);
            }
            let stripe = voq.release_stripe().expect("size packets fill a stripe");
            s.insert(&mut grid, stripe);
        }
        (s, grid)
    }

    #[test]
    fn snapshot_reflects_scheduler_contents() {
        let (s, queues) = scheduler_with(8, &[(0, 4), (6, 2)]);
        let grid = OccupancyGrid::from_row_scan(&s, &queues);
        assert_eq!(grid.total(), 6);
        assert_eq!(grid.get(0, 2), 1);
        assert_eq!(grid.get(3, 2), 1);
        assert_eq!(grid.get(6, 1), 1);
        assert_eq!(grid.get(6, 0), 0);
        assert_eq!(grid.row_total(6), 1);
        assert_eq!(grid.row_total(4), 0);
    }

    #[test]
    fn render_contains_headers_and_counts() {
        let (s, queues) = scheduler_with(4, &[(0, 4)]);
        let grid = OccupancyGrid::from_row_scan(&s, &queues);
        let text = grid.render();
        assert!(text.contains("port   0"));
        assert!(text.contains("total queued: 4"));
        // Column headers 1, 2, 4.
        assert!(text.contains('1') && text.contains('2') && text.contains('4'));
        assert_eq!(text.lines().count(), 4 + 2);
    }

    #[test]
    fn empty_grid_renders_dots() {
        let grid = OccupancyGrid::new(4);
        let text = grid.render();
        assert!(text.contains('.'));
        assert!(text.contains("total queued: 0"));
    }

    #[test]
    fn manual_cells_can_be_set() {
        let mut grid = OccupancyGrid::new(8);
        grid.set(5, 2, 7);
        assert_eq!(grid.get(5, 2), 7);
        assert_eq!(grid.total(), 7);
    }
}
