//! The Largest Stripe First (LSF) scheduler of the input stage (§3.4,
//! Algorithm 1).
//!
//! An input port must decide, whenever the first fabric connects it to an
//! intermediate port ("row"), which queued packet to send.  [`Lsf`] keeps
//! one FIFO per dyadic interval — `2N − 1` in all, the count §3.4.2 gives —
//! and lets a stripe *start* service only when the connection reaches the
//! first port of its interval, largest stripe first; the stripe is then
//! served to completion in consecutive slots, so it leaves the input port in
//! one contiguous burst, which is what keeps every VOQ in order.
//!
//! The scheduler owns no queue storage: its queues are a contiguous range of
//! the input port's [`FifoGrid`], the same grid that holds the VOQ ready
//! queues, so a stripe enters the schedule by moving entries between queues
//! of one grid (usually one O(1) splice).  It keeps a bitmask of non-empty
//! levels per start row, so "largest first" is one `leading_zeros` instead
//! of a scan over the levels.

use crate::fifo::FifoGrid;
use crate::store::PacketHandle;
use crate::stripe::Stripe;

/// The number of stripe-size levels for an `n`-port switch: `log₂(n) + 1`.
pub fn levels(n: usize) -> usize {
    debug_assert!(n.is_power_of_two());
    n.trailing_zeros() as usize + 1
}

/// The highest level whose bit is set in a non-zero level mask.
#[inline]
pub(crate) fn top_level(mask: u32) -> usize {
    debug_assert_ne!(mask, 0);
    (31 - mask.leading_zeros()) as usize
}

/// What the scheduler hands the first fabric: a packet's handle, its output
/// port, and the level (`log₂` size) of the stripe it belongs to.
pub type Served = (PacketHandle, u32, usize);

/// The stripe the scheduler is in the middle of serving.
#[derive(Debug, Clone, Copy)]
struct InService {
    /// The interval queue the stripe heads.
    queue: usize,
    level: usize,
    /// Packets of the stripe still to send.
    remaining: usize,
}

/// Algorithm 1 of the paper: stripes start only at the first port of their
/// interval and are served to completion in consecutive slots.
///
/// Because a stripe is always served whole and in offset order, an interval's
/// queue of stripes is simply a FIFO of their packets back to back: inserting
/// a stripe that is all its VOQ holds splices the VOQ's queue onto the tail
/// in O(1), and every service slot pops one head.
#[derive(Debug, Clone)]
pub struct Lsf {
    n: usize,
    /// First of this scheduler's grid queues: one FIFO per dyadic interval —
    /// `2N − 1` in total, exactly as §3.4.2 observes.  The interval
    /// `[index·2^level, (index+1)·2^level)` has queue
    /// `base + 2N − (2N >> level) + index`.
    base: usize,
    /// Per row, the levels whose interval *starting at that row* has a queued
    /// packet.
    start_levels: Vec<u32>,
    in_service: Option<InService>,
    queued: usize,
}

impl Lsf {
    /// Grid queues the scheduler of an `n`-port switch occupies.
    pub fn queue_count(n: usize) -> usize {
        2 * n - 1
    }

    /// Create an empty scheduler for an `n`-port switch whose queues are
    /// grid queues `base .. base + queue_count(n)`.
    pub fn new(n: usize, base: usize) -> Self {
        assert!(
            n.is_power_of_two(),
            "switch size {n} must be a power of two"
        );
        Lsf {
            n,
            base,
            start_levels: vec![0; n],
            in_service: None,
            queued: 0,
        }
    }

    /// The grid queue of the level-`level` interval containing `row`.  Levels
    /// `0..level` hold `N + N/2 + … = 2N − (2N >> level)` queues.
    #[inline]
    fn queue(&self, row: usize, level: usize) -> usize {
        self.base + 2 * self.n - ((2 * self.n) >> level) + (row >> level)
    }

    /// Insert a freshly released stripe behind the others of its interval.
    // lint: hot-path
    #[inline]
    pub fn insert(&mut self, grid: &mut FifoGrid, stripe: Stripe) {
        let level = stripe.level();
        let start = stripe.interval.start();
        debug_assert!(stripe.interval.end() <= self.n);
        let q = self.queue(start, level);
        if stripe.drains_source {
            grid.splice(stripe.source, q);
        } else {
            for _ in 0..stripe.size() {
                let Some((handle, output)) = grid.pop(stripe.source) else {
                    debug_assert!(false, "a released stripe is at the head of its source");
                    break;
                };
                grid.push(q, handle, output);
            }
        }
        self.start_levels[start] |= 1 << level;
        self.queued += stripe.size();
    }

    /// Serve the given row (intermediate port): the packet to transmit in
    /// this slot, or `None` if no stripe is in service and none starts here.
    // lint: hot-path
    #[inline]
    pub fn serve(&mut self, grid: &mut FifoGrid, row: usize) -> Option<Served> {
        let (q, level, remaining) = match self.in_service {
            // Continue a stripe already in service: its next packet is always
            // destined to the current row because the connection pattern
            // advances one intermediate port per slot and the stripe's ports
            // are consecutive.
            Some(svc) => {
                debug_assert_eq!(
                    row & ((1 << svc.level) - 1),
                    (1 << svc.level) - svc.remaining
                );
                (svc.queue, svc.level, svc.remaining - 1)
            }
            // Otherwise, among the stripes whose interval starts at this row,
            // pick the largest (FCFS within a level, and levels with larger
            // stripes win).
            None => {
                let mask = self.start_levels[row];
                if mask == 0 {
                    return None;
                }
                let level = top_level(mask);
                (self.queue(row, level), level, (1 << level) - 1)
            }
        };
        let (handle, output) = grid.pop(q)?;
        self.in_service = (remaining > 0).then_some(InService {
            queue: q,
            level,
            remaining,
        });
        if grid.is_empty(q) {
            // Clearing the low `level` bits of `row` gives the interval's
            // first port.
            self.start_levels[row & !((1 << level) - 1)] &= !(1 << level);
        }
        self.queued -= 1;
        Some((handle, output, level))
    }

    /// Total number of packets currently queued.
    #[inline]
    pub fn queued_packets(&self) -> usize {
        self.queued
    }

    /// True if no packets are queued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.queued == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::voq::Voq;
    use proptest::prelude::*;

    impl Lsf {
        /// Is a stripe currently mid-service?
        fn stripe_in_service(&self) -> bool {
            self.in_service.is_some()
        }

        /// Packets of interval queue `q` that the stripe in service has
        /// already sent (0 unless `q` is the queue it heads).
        fn sent_from(&self, q: usize) -> usize {
            match self.in_service {
                Some(svc) if svc.queue == q => (1 << svc.level) - svc.remaining,
                _ => 0,
            }
        }

        /// Number of queued stripes (not counting the one in service), by
        /// walking every interval queue.
        fn queued_stripes(&self, grid: &FifoGrid) -> usize {
            let mut stripes = 0;
            for level in 0..levels(self.n) {
                for row in (0..self.n).step_by(1 << level) {
                    let q = self.queue(row, level);
                    // Round the in-service stripe's remainder away.
                    stripes += grid.len(q) >> level;
                }
            }
            stripes
        }

        /// Number of queued packets destined to `row` (walks the queues of
        /// the intervals containing it).
        pub(crate) fn queued_in_row(&self, grid: &FifoGrid, row: usize) -> usize {
            let mut count = 0;
            for level in 0..levels(self.n) {
                let q = self.queue(row, level);
                // The queue holds whole stripes, except that the one in
                // service has already sent its first `sent` offsets.
                let sent = self.sent_from(q);
                count += (grid.len(q) + sent) >> level;
                if row & ((1 << level) - 1) < sent {
                    count -= 1;
                }
            }
            count
        }
    }

    /// A grid for an `n`-port scheduler at base 1, with queue 0 as the
    /// scratch VOQ queue the test stripes are released from.
    fn grid_for(queue_count: usize) -> FifoGrid {
        FifoGrid::new(1 + queue_count)
    }

    /// Have a VOQ over `[start, start + size)` release a stripe of packets
    /// whose handles are `seq·100 + offset`.
    fn mk_stripe(grid: &mut FifoGrid, n: usize, start: usize, size: usize, seq: u32) -> Stripe {
        assert!(start + size <= n);
        let mut voq = Voq::new(n, 0, start, size);
        for offset in 0..size as u32 {
            voq.push(grid, PacketHandle::from_raw(seq * 100 + offset), 1);
        }
        voq.release_stripe().expect("size packets fill a stripe")
    }

    /// The stripe size a served packet reports.
    fn size_of(served: Served) -> usize {
        1 << served.2
    }

    #[test]
    fn atomic_starts_only_at_interval_start() {
        let mut grid = grid_for(Lsf::queue_count(8));
        let mut s = Lsf::new(8, 1);
        let stripe = mk_stripe(&mut grid, 8, 0, 4, 0);
        s.insert(&mut grid, stripe);
        assert_eq!(s.queued_stripes(&grid), 1);
        // Rows 1..4 cannot start the stripe.
        assert!(s.serve(&mut grid, 1).is_none());
        assert!(s.serve(&mut grid, 2).is_none());
        // Row 0 starts it; rows 1..3 then continue it.
        assert!(s.serve(&mut grid, 0).is_some());
        assert!(s.stripe_in_service());
        assert_eq!(s.queued_stripes(&grid), 0);
        assert!(s.serve(&mut grid, 1).is_some());
        assert!(s.serve(&mut grid, 2).is_some());
        assert!(s.serve(&mut grid, 3).is_some());
        assert!(!s.stripe_in_service());
        assert!(s.is_empty());
    }

    #[test]
    fn atomic_serves_stripe_contiguously_in_offset_order() {
        let mut grid = grid_for(Lsf::queue_count(8));
        let mut s = Lsf::new(8, 1);
        let stripe = mk_stripe(&mut grid, 8, 4, 4, 3);
        s.insert(&mut grid, stripe);
        for (offset, row) in (4..8).enumerate() {
            let (handle, output, level) = s.serve(&mut grid, row).unwrap();
            assert_eq!((output, level), (1, 2));
            assert_eq!(handle.raw(), 300 + offset as u32);
        }
    }

    #[test]
    fn atomic_prefers_largest_stripe_at_start_row() {
        let mut grid = grid_for(Lsf::queue_count(8));
        let mut s = Lsf::new(8, 1);
        let small = mk_stripe(&mut grid, 8, 0, 2, 0);
        s.insert(&mut grid, small);
        let large = mk_stripe(&mut grid, 8, 0, 8, 1);
        s.insert(&mut grid, large);
        let p = s.serve(&mut grid, 0).unwrap();
        assert_eq!(size_of(p), 8);
        // The size-2 stripe must wait until the size-8 stripe finishes and the
        // connection wraps around to row 0 again.
        for row in 1..8 {
            let q = s.serve(&mut grid, row).unwrap();
            assert_eq!(size_of(q), 8);
        }
        let p = s.serve(&mut grid, 0).unwrap();
        assert_eq!(size_of(p), 2);
    }

    #[test]
    fn atomic_fcfs_within_same_interval() {
        let mut grid = grid_for(Lsf::queue_count(4));
        let mut s = Lsf::new(4, 1);
        let first = mk_stripe(&mut grid, 4, 0, 2, 0);
        s.insert(&mut grid, first);
        let second = mk_stripe(&mut grid, 4, 0, 2, 1);
        s.insert(&mut grid, second);
        let (first, ..) = s.serve(&mut grid, 0).unwrap();
        s.serve(&mut grid, 1).unwrap();
        let (second, ..) = s.serve(&mut grid, 0).unwrap();
        assert!(
            first.raw() < second.raw(),
            "stripes of the same interval are FCFS"
        );
    }

    #[test]
    fn queued_in_row_tracks_insertions_and_service() {
        let mut grid = grid_for(Lsf::queue_count(8));
        let mut s = Lsf::new(8, 1);
        for (start, size, seq) in [(0, 2, 0), (0, 8, 1)] {
            let stripe = mk_stripe(&mut grid, 8, start, size, seq);
            s.insert(&mut grid, stripe);
        }
        for (row, expected) in [(0, 2), (1, 2), (5, 1)] {
            assert_eq!(s.queued_in_row(&grid, row), expected);
        }
        // The scheduler is now mid-stripe: the served offset is gone, the
        // rest of the size-8 stripe still counts.
        s.serve(&mut grid, 0).unwrap();
        assert_eq!(s.queued_in_row(&grid, 0), 1);
        assert_eq!(s.queued_in_row(&grid, 1), 2);
        s.serve(&mut grid, 1).unwrap();
        assert_eq!(s.queued_in_row(&grid, 1), 1);
        assert_eq!(s.queued_in_row(&grid, 7), 1);
    }

    #[test]
    fn levels_helper() {
        assert_eq!(levels(1), 1);
        assert_eq!(levels(2), 2);
        assert_eq!(levels(8), 4);
        assert_eq!(levels(1024), 11);
    }

    proptest! {
        /// The scheduler conserves packets and always emits each stripe as
        /// one contiguous burst in offset order.
        #[test]
        fn atomic_emits_contiguous_bursts(starts in proptest::collection::vec((0usize..8, 0usize..4), 1..20)) {
            let n = 8usize;
            let mut grid = grid_for(Lsf::queue_count(n));
            let mut s = Lsf::new(n, 1);
            let mut inserted = 0usize;
            for (seq, (port, level)) in starts.into_iter().enumerate() {
                let size = 1usize << level;
                let start = (port / size) * size;
                let stripe = mk_stripe(&mut grid, n, start, size, seq as u32);
                s.insert(&mut grid, stripe);
                inserted += size;
            }
            // (slot, handle, row) of every served packet.
            let mut served: Vec<(usize, u32, usize)> = Vec::new();
            let mut slot = 0usize;
            while served.len() < inserted && slot < inserted * n + n {
                let row = slot % n;
                if let Some((handle, ..)) = s.serve(&mut grid, row) {
                    served.push((slot, handle.raw(), row));
                }
                slot += 1;
            }
            prop_assert_eq!(served.len(), inserted);
            prop_assert!(s.is_empty());
            // Group by (handle / 100) which identifies the stripe in mk_stripe,
            // and check contiguity in time and offset order.
            use std::collections::HashMap;
            let mut by_stripe: HashMap<u32, Vec<(usize, u32, usize)>> = HashMap::new();
            for (slot, raw, row) in &served {
                by_stripe.entry(raw / 100).or_default().push((*slot, raw % 100, *row));
            }
            for (_, mut v) in by_stripe {
                v.sort();
                for w in v.windows(2) {
                    prop_assert_eq!(w[1].0, w[0].0 + 1, "stripe served in consecutive slots");
                    prop_assert_eq!(w[1].1, w[0].1 + 1, "stripe served in offset order");
                    prop_assert_eq!(w[1].2, w[0].2 + 1, "offset o crosses port start + o");
                }
            }
        }
    }
}
