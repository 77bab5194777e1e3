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
//!
//! The fabric reaches output `j` from this port at one phase per frame, so
//! the port also keeps the switch's [`PhaseRows`] index in step with that
//! bitmask: its bit in the row of `j`'s phase is set exactly while the mask
//! of `j` is non-zero, and the second-fabric pass visits the port only then.

use crate::config::AlignmentMode;
use crate::fifo::FifoGrid;
use crate::lsf::{levels, top_level};
use crate::occupancy::PhaseRows;
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
    /// Per output, the levels whose queue is non-empty.  Non-zero exactly
    /// while this port's bit is set in the switch's [`PhaseRows`] row of
    /// [`Self::phase_of`] that output.
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

    /// True while packets wait here for stripe-completion alignment — the
    /// ports [`Self::release_eligible`] has to be called on.
    #[inline]
    pub fn has_staged(&self) -> bool {
        !self.staged.is_empty()
    }

    /// The fabric phase `t` at which the second fabric connects this port to
    /// `output`: `output == (port − t) mod n`.
    #[inline]
    pub fn phase_of(&self, output: usize) -> usize {
        if self.port_id >= output {
            self.port_id - output
        } else {
            self.port_id + self.n - output
        }
    }

    /// True if an eligible packet for `output` is queued here — what this
    /// port's [`PhaseRows`] bit at [`Self::phase_of`] `output` mirrors.
    #[inline]
    pub fn has_eligible_for(&self, output: usize) -> bool {
        self.output_levels[output] != 0
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

    /// Accept, over the first fabric at slot `now`, a packet for `output` of
    /// a stripe of size `2^level`.  Only the stripe-complete alignment looks
    /// at the stored body (for the packet's input and VOQ sequence number); a
    /// packet that becomes eligible at once marks this port in `ready`.
    // lint: hot-path
    #[inline]
    pub fn receive(
        &mut self,
        store: &PacketStore,
        ready: &mut PhaseRows,
        handle: PacketHandle,
        output: usize,
        level: usize,
        now: u64,
    ) {
        debug_assert!(level < self.levels);
        debug_assert!(output < self.n);
        match self.alignment {
            AlignmentMode::Immediate => self.enqueue(ready, handle, output, level),
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
                let body = store.get(handle);
                let first_seq = body.voq_seq.saturating_sub(stripe_index as u64);
                self.staged.push(StagedPacket {
                    handle,
                    level,
                    eligible_at,
                    stripe_key: (body.input(), output, first_seq),
                    order: self.staged_total,
                });
                self.staged_total += 1;
                self.next_release = self.next_release.min(eligible_at);
            }
        }
    }

    /// Move staged packets whose stripes are complete into the eligible
    /// queues, marking this port in `ready` for their outputs.  Must be
    /// called once per slot (before [`Self::dequeue`]) while
    /// [`Self::has_staged`]; it is a no-op otherwise.
    // lint: hot-path
    #[inline]
    pub fn release_eligible(&mut self, now: u64, ready_rows: &mut PhaseRows) {
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
            self.enqueue(ready_rows, s.handle, s.stripe_key.1, s.level);
        }
        self.ready_scratch = ready;
    }

    /// Serve output `output`: the handle and stripe level of the packet to
    /// send over the second fabric in this slot, and whether it was the last
    /// one eligible for that output — the caller then clears this port's
    /// [`PhaseRows`] bit at [`Self::phase_of`] `output` (the sharded walk
    /// only reads the index, so the clear is the merge's to apply).  `None`
    /// if nothing is eligible for that output.
    // lint: hot-path
    #[inline]
    pub fn dequeue(&mut self, output: usize) -> Option<(PacketHandle, usize, bool)> {
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
        Some((handle, level, self.output_levels[output] == 0))
    }

    // lint: hot-path
    #[inline]
    fn enqueue(
        &mut self,
        ready: &mut PhaseRows,
        handle: PacketHandle,
        output: usize,
        level: usize,
    ) {
        self.queues.push(output * self.levels + level, handle, 0);
        if self.output_levels[output] == 0 {
            ready.set(self.phase_of(output), self.port_id);
        }
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
        let mut ready = PhaseRows::new(8);
        let small = stored(&mut store, 0, 5, 0);
        let large = stored(&mut store, 0, 5, 0);
        port.receive(&store, &mut ready, small, 5, 0, 0);
        port.receive(&store, &mut ready, large, 5, 3, 1);
        assert_eq!(port.queued_packets(), 2);
        assert_eq!(port.queued_for_output(5), 2);
        assert_eq!(port.queued_for_output(4), 0);
        // Port 2 faces output 5 at phase (2 − 5) mod 8 = 5, and only then.
        assert_eq!(port.phase_of(5), 5);
        assert_eq!(ready.ports(5).collect::<Vec<_>>(), vec![2]);
        assert_eq!((0..8).map(|t| ready.ports(t).count()).sum::<usize>(), 1);
        assert_eq!(
            port.dequeue(5),
            Some((large, 3, false)),
            "LSF serves the larger stripe first"
        );
        assert_eq!(
            port.dequeue(5),
            Some((small, 0, true)),
            "the last packet for an output says so"
        );
        assert!(port.dequeue(5).is_none());
    }

    #[test]
    fn packets_are_fifo_within_a_level() {
        let mut store = PacketStore::new();
        let mut port = SprinklersIntermediatePort::new(0, 4, AlignmentMode::Immediate);
        let mut ready = PhaseRows::new(4);
        let a = stored(&mut store, 0, 1, 10);
        let b = stored(&mut store, 0, 1, 20);
        port.receive(&store, &mut ready, a, 1, 1, 0);
        port.receive(&store, &mut ready, b, 1, 1, 4);
        assert_eq!(port.dequeue(1), Some((a, 1, false)));
        assert_eq!(port.dequeue(1), Some((b, 1, true)));
    }

    #[test]
    fn stripe_complete_mode_stages_until_frame_boundary() {
        let n = 8;
        let mut store = PacketStore::new();
        let mut port = SprinklersIntermediatePort::new(4, n, AlignmentMode::StripeComplete);
        let mut ready = PhaseRows::new(n);
        // Port 4 carries offset 0 of a size-4 stripe over [4, 8).  Arriving at
        // slot 10, the stripe's last packet arrives at slot 13, so it becomes
        // eligible at the next frame boundary after 13, i.e. slot 16.
        let h = stored(&mut store, 0, 6, 0);
        port.receive(&store, &mut ready, h, 6, 2, 10);
        assert_eq!(port.queued_packets(), 1);
        assert_eq!(port.queued_for_output(6), 1);
        port.release_eligible(12, &mut ready);
        assert!(
            port.dequeue(6).is_none(),
            "not eligible before the stripe completes"
        );
        port.release_eligible(15, &mut ready);
        assert!(
            port.dequeue(6).is_none(),
            "not eligible before the frame boundary"
        );
        assert!(port.has_staged());
        assert_eq!(
            ready.ports(port.phase_of(6)).count(),
            0,
            "staged is not ready"
        );
        port.release_eligible(16, &mut ready);
        assert!(!port.has_staged());
        assert!(ready.contains(port.phase_of(6), 4));
        assert_eq!(port.dequeue(6), Some((h, 2, true)));
        assert_eq!(port.queued_packets(), 0);
    }

    #[test]
    fn stripe_complete_release_orders_by_eligibility_then_key() {
        let n = 4;
        let mut store = PacketStore::new();
        let mut port = SprinklersIntermediatePort::new(0, n, AlignmentMode::StripeComplete);
        let mut ready = PhaseRows::new(n);
        // Two size-1 stripes (same level) from different inputs, both eligible
        // at the same boundary; ordering must follow the canonical key.
        let late = stored(&mut store, 3, 2, 7);
        let early = stored(&mut store, 1, 2, 9);
        port.receive(&store, &mut ready, late, 2, 0, 1);
        port.receive(&store, &mut ready, early, 2, 0, 2);
        port.release_eligible(4, &mut ready);
        assert_eq!(
            port.dequeue(2),
            Some((early, 0, false)),
            "canonical order is by (input, output, stripe seq)"
        );
        assert_eq!(port.dequeue(2), Some((late, 0, true)));
    }

    #[test]
    fn immediate_mode_release_is_a_noop() {
        let mut store = PacketStore::new();
        let mut port = SprinklersIntermediatePort::new(0, 4, AlignmentMode::Immediate);
        let mut ready = PhaseRows::new(4);
        let h = stored(&mut store, 0, 1, 0);
        port.receive(&store, &mut ready, h, 1, 0, 0);
        port.release_eligible(100, &mut ready);
        assert_eq!(port.queued_packets(), 1);
    }
}
