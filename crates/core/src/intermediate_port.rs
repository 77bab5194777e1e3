//! A Sprinklers intermediate port: one physical row of every output's
//! distributed virtual LSF schedule grid (§3.4.3).
//!
//! Each intermediate port keeps, for every output `j`, one FIFO queue per
//! stripe-size level.  Together with the identical structures at the other
//! `N − 1` intermediate ports these form the *virtual schedule grid* for
//! output `j`; the only coordination the paper requires is that every packet
//! carries its stripe size in an internal header — here, the level the first
//! fabric hands over with the packet's handle, which picks the FIFO.
//!
//! When the second fabric connects this port to output `j`, the port sends
//! the head of output `j`'s largest non-empty stripe-size level — the same
//! Largest-Stripe-First rule the input ports use.  The `N·(log₂N+1)` FIFOs
//! are one flat [`FifoGrid`] of handles, and a per-output bitmask of
//! non-empty levels makes "largest non-empty" a single `leading_zeros`.

use crate::config::AlignmentMode;
use crate::fifo::FifoGrid;
use crate::lsf::{levels, top_level};
use crate::store::{PacketHandle, PacketStore};

/// A packet staged until its whole stripe has reached the intermediate stage
/// (only used in [`AlignmentMode::StripeComplete`]).
#[derive(Debug, Clone, Copy)]
struct StagedPacket {
    handle: PacketHandle,
    level: usize,
    /// Slot at which the packet becomes eligible for the second fabric.
    eligible_at: u64,
    /// Canonical key that orders stripes identically at every intermediate
    /// port: `(input, output, VOQ sequence number of the stripe's first
    /// packet)`.
    stripe_key: (usize, usize, u64),
    /// Position in this port's staging order, the final tie-break: it makes
    /// the (allocation-free) unstable sort reproduce a stable one.
    order: u64,
}

/// One Sprinklers intermediate port.
pub struct SprinklersIntermediatePort {
    port_id: usize,
    n: usize,
    levels: usize,
    alignment: AlignmentMode,
    /// Queue `output · levels + level`: eligible packets destined to `output`
    /// that belong to stripes of size `2^level`, in arrival (FIFO) order.
    queues: FifoGrid,
    /// Per output, the levels whose queue is non-empty.  A zero mask makes a
    /// [`Self::dequeue`] miss — the common case when the sparse stepping loop
    /// probes whichever output the fabric rotation reaches — one load.
    output_levels: Vec<u32>,
    /// Packets waiting for stripe-completion alignment.
    staged: Vec<StagedPacket>,
    /// Scratch for [`Self::release_eligible`], held on the struct so the
    /// per-slot release pass allocates nothing in steady state.
    ready_scratch: Vec<StagedPacket>,
    /// Earliest `eligible_at` among the staged packets (`u64::MAX` if none),
    /// so a slot in which nothing can be released costs one comparison.
    next_release: u64,
    /// Packets staged since the port was built.
    staged_total: u64,
    queued: usize,
}

impl SprinklersIntermediatePort {
    /// Create intermediate port `port_id` of an `n`-port switch.
    pub fn new(port_id: usize, n: usize, alignment: AlignmentMode) -> Self {
        assert!(n.is_power_of_two());
        let lv = levels(n);
        SprinklersIntermediatePort {
            port_id,
            n,
            levels: lv,
            alignment,
            queues: FifoGrid::new(n * lv),
            output_levels: vec![0; n],
            staged: Vec::new(),
            ready_scratch: Vec::new(),
            next_release: u64::MAX,
            staged_total: 0,
            queued: 0,
        }
    }

    /// This port's index.
    pub fn port_id(&self) -> usize {
        self.port_id
    }

    /// Total packets buffered at this port (eligible + staged).
    #[inline]
    pub fn queued_packets(&self) -> usize {
        self.queued + self.staged.len()
    }

    /// Packets buffered for a particular output (walks its FIFOs; for tests
    /// and inspection).
    pub fn queued_for_output(&self, output: usize) -> usize {
        (0..self.levels)
            .map(|level| self.queues.len(output * self.levels + level))
            .sum::<usize>()
            + self
                .staged
                .iter()
                .filter(|s| s.stripe_key.1 == output)
                .count()
    }

    /// Accept from input `input`, over the first fabric at slot `now`, a
    /// packet for `output` of a stripe of size `2^level`.  Only the
    /// stripe-complete alignment looks at the stored body (for the packet's
    /// VOQ sequence number).
    // lint: hot-path
    #[inline]
    pub fn receive(
        &mut self,
        store: &PacketStore,
        handle: PacketHandle,
        input: usize,
        output: usize,
        level: usize,
        now: u64,
    ) {
        debug_assert!(level < self.levels);
        debug_assert!(output < self.n);
        match self.alignment {
            AlignmentMode::Immediate => self.enqueue(handle, output, level),
            AlignmentMode::StripeComplete => {
                // The last packet of this stripe reaches the intermediate
                // stage `stripe_size - 1 - stripe_index` slots after this one
                // (stripes leave the input port in consecutive slots).  The
                // stripe becomes eligible at the next frame boundary after
                // that, a value every port of the stripe computes identically.
                let size = 1usize << level;
                let stripe_index = self.port_id & (size - 1);
                let last_arrival = now + (size - 1 - stripe_index) as u64;
                let eligible_at = (last_arrival / self.n as u64 + 1) * self.n as u64;
                let first_seq = store
                    .get(handle)
                    .voq_seq
                    .saturating_sub(stripe_index as u64);
                self.staged.push(StagedPacket {
                    handle,
                    level,
                    eligible_at,
                    stripe_key: (input, output, first_seq),
                    order: self.staged_total,
                });
                self.staged_total += 1;
                self.next_release = self.next_release.min(eligible_at);
            }
        }
    }

    /// Move staged packets whose stripes are complete into the eligible
    /// queues.  Must be called once per slot (before [`Self::dequeue`]) when
    /// stripe-complete alignment is enabled; it is a no-op otherwise.
    // lint: hot-path
    #[inline]
    pub fn release_eligible(&mut self, now: u64) {
        if now < self.next_release {
            return;
        }
        // Split off the eligible packets, keeping the rest in staging order.
        // In steady state both vectors keep their capacity, so this pass
        // allocates nothing.
        let mut ready = std::mem::take(&mut self.ready_scratch);
        ready.clear();
        let mut next_release = u64::MAX;
        self.staged.retain(|s| {
            if s.eligible_at <= now {
                ready.push(*s);
                false
            } else {
                next_release = next_release.min(s.eligible_at);
                true
            }
        });
        self.next_release = next_release;
        // Insert in a canonical order so every intermediate port builds its
        // FIFOs in the same stripe order.
        ready.sort_unstable_by_key(|s| (s.eligible_at, s.stripe_key, s.order));
        for s in &ready {
            self.enqueue(s.handle, s.stripe_key.1, s.level);
        }
        self.ready_scratch = ready;
    }

    /// Serve output `output`: the handle and stripe level of the packet to
    /// send over the second fabric in this slot, or `None` if nothing is
    /// eligible for that output.
    // lint: hot-path
    #[inline]
    pub fn dequeue(&mut self, output: usize) -> Option<(PacketHandle, usize)> {
        let mask = self.output_levels[output];
        if mask == 0 {
            return None;
        }
        let level = top_level(mask);
        let q = output * self.levels + level;
        let (handle, _) = self.queues.pop(q)?;
        if self.queues.is_empty(q) {
            self.output_levels[output] &= !(1 << level);
        }
        self.queued -= 1;
        Some((handle, level))
    }

    // lint: hot-path
    #[inline]
    fn enqueue(&mut self, handle: PacketHandle, output: usize, level: usize) {
        self.queues.push(output * self.levels + level, handle, 0);
        self.output_levels[output] |= 1 << level;
        self.queued += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Packet;

    /// Store a packet from `input` to `output` with the given VOQ sequence
    /// number.
    fn stored(store: &mut PacketStore, input: usize, output: usize, voq_seq: u64) -> PacketHandle {
        store.insert(Packet::new(input, output, 0, 0).with_voq_seq(voq_seq))
    }

    #[test]
    fn immediate_mode_serves_largest_stripe_first() {
        let mut store = PacketStore::new();
        let mut port = SprinklersIntermediatePort::new(2, 8, AlignmentMode::Immediate);
        let small = stored(&mut store, 0, 5, 0);
        let large = stored(&mut store, 0, 5, 0);
        port.receive(&store, small, 0, 5, 0, 0);
        port.receive(&store, large, 0, 5, 3, 1);
        assert_eq!(port.queued_packets(), 2);
        assert_eq!(port.queued_for_output(5), 2);
        assert_eq!(port.queued_for_output(4), 0);
        assert_eq!(
            port.dequeue(5),
            Some((large, 3)),
            "LSF serves the larger stripe first"
        );
        assert_eq!(port.dequeue(5), Some((small, 0)));
        assert!(port.dequeue(5).is_none());
    }

    #[test]
    fn packets_are_fifo_within_a_level() {
        let mut store = PacketStore::new();
        let mut port = SprinklersIntermediatePort::new(0, 4, AlignmentMode::Immediate);
        let a = stored(&mut store, 0, 1, 10);
        let b = stored(&mut store, 0, 1, 20);
        port.receive(&store, a, 0, 1, 1, 0);
        port.receive(&store, b, 0, 1, 1, 4);
        assert_eq!(port.dequeue(1), Some((a, 1)));
        assert_eq!(port.dequeue(1), Some((b, 1)));
    }

    #[test]
    fn stripe_complete_mode_stages_until_frame_boundary() {
        let n = 8;
        let mut store = PacketStore::new();
        let mut port = SprinklersIntermediatePort::new(4, n, AlignmentMode::StripeComplete);
        // Port 4 carries offset 0 of a size-4 stripe over [4, 8).  Arriving at
        // slot 10, the stripe's last packet arrives at slot 13, so it becomes
        // eligible at the next frame boundary after 13, i.e. slot 16.
        let h = stored(&mut store, 0, 6, 0);
        port.receive(&store, h, 0, 6, 2, 10);
        assert_eq!(port.queued_packets(), 1);
        assert_eq!(port.queued_for_output(6), 1);
        port.release_eligible(12);
        assert!(
            port.dequeue(6).is_none(),
            "not eligible before the stripe completes"
        );
        port.release_eligible(15);
        assert!(
            port.dequeue(6).is_none(),
            "not eligible before the frame boundary"
        );
        port.release_eligible(16);
        assert_eq!(port.dequeue(6), Some((h, 2)));
        assert_eq!(port.queued_packets(), 0);
    }

    #[test]
    fn stripe_complete_release_orders_by_eligibility_then_key() {
        let n = 4;
        let mut store = PacketStore::new();
        let mut port = SprinklersIntermediatePort::new(0, n, AlignmentMode::StripeComplete);
        // Two size-1 stripes (same level) from different inputs, both eligible
        // at the same boundary; ordering must follow the canonical key.
        let late = stored(&mut store, 3, 2, 7);
        let early = stored(&mut store, 1, 2, 9);
        port.receive(&store, late, 3, 2, 0, 1);
        port.receive(&store, early, 1, 2, 0, 2);
        port.release_eligible(4);
        assert_eq!(
            port.dequeue(2),
            Some((early, 0)),
            "canonical order is by (input, output, stripe seq)"
        );
        assert_eq!(port.dequeue(2), Some((late, 0)));
    }

    #[test]
    fn immediate_mode_release_is_a_noop() {
        let mut store = PacketStore::new();
        let mut port = SprinklersIntermediatePort::new(0, 4, AlignmentMode::Immediate);
        let h = stored(&mut store, 0, 1, 0);
        port.receive(&store, h, 0, 1, 0, 0);
        port.release_eligible(100);
        assert_eq!(port.queued_packets(), 1);
    }
}
