//! The intermediate stage of the two-stage kernel: every intermediate port's
//! FIFOs, held as one structure.
//!
//! Each port keeps, for every output `j`, one FIFO per stripe-size level and
//! sends `j` the head of its largest non-empty level: with Sprinklers'
//! `log₂N + 1` levels these form output `j`'s virtual schedule grid
//! (§3.4.3), with the baselines' one level a plain FIFO.  The stripe size a
//! packet carries — the only coordination the paper requires — is the tag of
//! its queue entry.  The `N·N·levels` FIFOs are one [`FifoGrid`], and a mask
//! of non-empty levels per (port, output) pair makes "largest non-empty" one
//! `leading_zeros`.  Port `ℓ` faces output `j` at one phase per frame, so a
//! [`PhaseRows`] bit per pair is set exactly while its mask is non-zero, and
//! the second-fabric walk visits the port only then.
//!
//! Under stripe-complete alignment a packet is *staged* on arrival and only
//! queued once its whole stripe has reached the intermediate stage.

use crate::fabric::second_fabric_output_at;
use crate::fifo::FifoGrid;
use crate::lsf::top_level;
use crate::occupancy::PhaseRows;
use crate::store::{PacketHandle, PacketStore};
use crate::two_stage::untag;

/// A packet staged until its whole stripe has reached the intermediate stage.
#[derive(Debug, Clone, Copy)]
struct Staged {
    handle: PacketHandle,
    tag: u32,
    port: usize,
    /// Slot at which the packet becomes eligible for the second fabric.
    eligible_at: u64,
    /// Canonical key that orders stripes identically at every intermediate
    /// port: `(input, output, VOQ sequence number of the stripe's first
    /// packet)`.
    stripe_key: (usize, usize, u64),
    /// Position in the staging order, the final tie-break: it makes the
    /// (allocation-free) unstable sort reproduce a stable one.
    order: u64,
}

/// Every intermediate port of an `n`-port switch.
pub struct IntermediateStage {
    n: usize,
    levels: usize,
    /// Packets wait for their whole stripe (stripe-complete alignment).
    pub(crate) aligned: bool,
    /// Queue `(port·n + output)·levels + level`: packets at `port` for
    /// `output` of stripes of size `2^level`, in arrival order.
    queues: FifoGrid,
    /// Per `port·n + output`, the levels whose queue is non-empty.
    masks: Vec<u32>,
    /// Bit `port` of row `t` is set iff `port` holds a packet for the output
    /// the second fabric connects it to at phase `t`: the ports the walk of
    /// phase `t` visits.
    pub(crate) ready: PhaseRows,
    /// Packets waiting for stripe-complete alignment, in staging order.
    staged: Vec<Staged>,
    /// Scratch for [`Self::release`], so the pass allocates nothing in
    /// steady state.
    scratch: Vec<Staged>,
    /// Earliest `eligible_at` among the staged packets (`u64::MAX` if none),
    /// so a slot in which nothing can be released costs one comparison.
    next_release: u64,
    /// Packets staged so far.
    staged_total: u64,
}

impl IntermediateStage {
    /// The intermediate ports of an `n`-port switch with `levels` FIFOs per
    /// (port, output) pair, staging packets until their stripe is complete
    /// if `aligned`.
    pub fn new(n: usize, levels: usize, aligned: bool) -> Self {
        assert!((1..=32).contains(&levels), "a level mask has 32 bits");
        IntermediateStage {
            n,
            levels,
            aligned,
            queues: FifoGrid::new(n * n * levels),
            masks: vec![0; n * n],
            ready: PhaseRows::new(n),
            staged: Vec::new(),
            scratch: Vec::new(),
            next_release: u64::MAX,
            staged_total: 0,
        }
    }

    /// The phase `t` at which the second fabric connects `port` to `output`,
    /// `(port − output) mod n`: the fabric's pattern with `t` and the output
    /// swapped.
    #[inline]
    fn phase_of(&self, port: usize, output: usize) -> usize {
        second_fabric_output_at(port, output, self.n)
    }

    /// Accept `handle`, with entry tag `tag` (its input and stripe size), at
    /// `port` for `output` over the first fabric at slot `now`.  Only
    /// stripe-complete alignment reads the stored body (for the packet's VOQ
    /// sequence number).
    // lint: hot-path
    #[inline]
    pub fn receive(
        &mut self,
        store: &PacketStore,
        handle: PacketHandle,
        port: usize,
        output: usize,
        tag: u32,
        now: u64,
    ) {
        if !self.aligned {
            self.enqueue(port, output, handle, tag);
            return;
        }
        // The last packet of this stripe reaches the intermediate stage
        // `size - 1 - stripe_index` slots after this one (stripes leave the
        // input port in consecutive slots).  The stripe becomes eligible at
        // the next frame boundary after that, a value every port of the
        // stripe computes identically.
        let (input, size) = untag(tag);
        let stripe_index = port % size;
        let last_arrival = now + (size - 1 - stripe_index) as u64;
        let eligible_at = (last_arrival / self.n as u64 + 1) * self.n as u64;
        let first_seq = store
            .get(handle)
            .voq_seq
            .saturating_sub(stripe_index as u64);
        self.staged.push(Staged {
            handle,
            tag,
            port,
            eligible_at,
            stripe_key: (input, output, first_seq),
            order: self.staged_total,
        });
        self.staged_total += 1;
        self.next_release = self.next_release.min(eligible_at);
    }

    /// Queue the staged packets whose stripes are complete by slot `now`.
    /// Call once per slot, before the second fabric walks the phase index.
    // lint: hot-path
    #[inline]
    pub fn release(&mut self, now: u64) {
        if now < self.next_release {
            return;
        }
        // Split off the eligible packets, keeping the rest in staging order.
        // In steady state both vectors keep their capacity.
        let mut ready = std::mem::take(&mut self.scratch);
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
        // Queue in a canonical order so every intermediate port builds its
        // FIFOs in the same stripe order.
        ready.sort_unstable_by_key(|s| (s.eligible_at, s.stripe_key, s.order));
        for s in &ready {
            self.enqueue(s.port, s.stripe_key.1, s.handle, s.tag);
        }
        self.scratch = ready;
    }

    /// Serve `output` from `port`: the head of its largest non-empty level,
    /// as `(handle, tag)`.  Clears the port's phase-index bit when that was
    /// its last packet for `output`.
    // lint: hot-path
    #[inline]
    pub fn pop(&mut self, port: usize, output: usize) -> Option<(PacketHandle, u32)> {
        let pair = port * self.n + output;
        let mask = self.masks[pair];
        if mask == 0 {
            return None;
        }
        let level = top_level(mask);
        let q = pair * self.levels + level;
        let entry = self.queues.pop(q)?;
        if self.queues.is_empty(q) {
            self.masks[pair] = mask & !(1 << level);
            if self.masks[pair] == 0 {
                self.ready.clear(self.phase_of(port, output), port);
            }
        }
        Some(entry)
    }

    // lint: hot-path
    #[inline]
    fn enqueue(&mut self, port: usize, output: usize, handle: PacketHandle, tag: u32) {
        // Sprinklers' stripe sizes are powers of two; a stage of fewer levels
        // keeps the larger sizes in its last one.
        let level = (untag(tag).1.trailing_zeros() as usize).min(self.levels - 1);
        let pair = port * self.n + output;
        self.queues.push(pair * self.levels + level, handle, tag);
        if self.masks[pair] == 0 {
            self.ready.set(self.phase_of(port, output), port);
        }
        self.masks[pair] |= 1 << level;
    }

    /// Check every level mask against a brute-force scan of its FIFOs, every
    /// phase-index bit against its mask and the release bound against the
    /// staged packets; returns the packets the stage holds.
    pub fn assert_consistent(&self) -> usize {
        let n = self.n;
        let mut held = self.staged.len();
        for port in 0..n {
            for output in 0..n {
                let pair = port * n + output;
                let mut mask = 0u32;
                for level in 0..self.levels {
                    let len = self.queues.len(pair * self.levels + level);
                    held += len;
                    mask |= u32::from(len > 0) << level;
                }
                assert_eq!(self.masks[pair], mask, "port {port} output {output} levels");
                let t = self.phase_of(port, output);
                assert_eq!(
                    second_fabric_output_at(port, t, n),
                    output,
                    "phase of {port}"
                );
                assert_eq!(
                    self.ready.contains(t, port),
                    mask != 0,
                    "phase row {t} bit {port} diverged from the level scan"
                );
            }
        }
        let next_release = self.staged.iter().map(|s| s.eligible_at).min();
        assert_eq!(self.next_release, next_release.unwrap_or(u64::MAX));
        held
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Packet;
    use crate::two_stage::tag;

    /// Store a packet from `input` to `output` with the given VOQ sequence
    /// number.
    fn stored(store: &mut PacketStore, input: usize, output: usize, voq_seq: u64) -> PacketHandle {
        store.insert(Packet::new(input, output, 0, 0).with_voq_seq(voq_seq))
    }

    fn ready_ports(stage: &IntermediateStage, phase: usize) -> Vec<usize> {
        stage.ready.ports(phase).collect()
    }

    #[test]
    fn immediate_mode_serves_largest_stripe_first() {
        let mut store = PacketStore::new();
        let mut stage = IntermediateStage::new(8, 4, false);
        let small = stored(&mut store, 0, 5, 0);
        let large = stored(&mut store, 0, 5, 0);
        stage.receive(&store, small, 2, 5, tag(0, 1), 0);
        stage.receive(&store, large, 2, 5, tag(0, 8), 1);
        assert_eq!(stage.assert_consistent(), 2);
        // Port 2 faces output 5 at phase (2 − 5) mod 8 = 5, and only then.
        assert_eq!(stage.phase_of(2, 5), 5);
        assert_eq!(ready_ports(&stage, 5), vec![2]);
        assert_eq!(
            (0..8).map(|t| stage.ready.ports(t).count()).sum::<usize>(),
            1
        );
        assert_eq!(
            stage.pop(2, 5),
            Some((large, tag(0, 8))),
            "LSF serves the larger stripe first"
        );
        assert_eq!(ready_ports(&stage, 5), vec![2]);
        assert_eq!(stage.pop(2, 5), Some((small, tag(0, 1))));
        assert!(
            ready_ports(&stage, 5).is_empty(),
            "the last packet for an output clears the port's bit"
        );
        assert!(stage.pop(2, 5).is_none());
        assert_eq!(stage.assert_consistent(), 0);
    }

    #[test]
    fn packets_are_fifo_within_a_level() {
        let mut store = PacketStore::new();
        // One level, as the baselines run it: sizes 1 and N share the FIFO.
        let mut stage = IntermediateStage::new(4, 1, false);
        let a = stored(&mut store, 0, 1, 10);
        let b = stored(&mut store, 0, 1, 20);
        stage.receive(&store, a, 0, 1, tag(0, 4), 0);
        stage.receive(&store, b, 0, 1, tag(3, 1), 4);
        assert_eq!(stage.pop(0, 1), Some((a, tag(0, 4))));
        assert_eq!(stage.pop(0, 1), Some((b, tag(3, 1))));
    }

    #[test]
    fn stripe_complete_mode_stages_until_frame_boundary() {
        let n = 8;
        let mut store = PacketStore::new();
        let mut stage = IntermediateStage::new(n, 4, true);
        // Port 4 carries offset 0 of a size-4 stripe over [4, 8).  Arriving at
        // slot 10, the stripe's last packet arrives at slot 13, so it becomes
        // eligible at the next frame boundary after 13, i.e. slot 16.
        let h = stored(&mut store, 0, 6, 0);
        stage.receive(&store, h, 4, 6, tag(0, 4), 10);
        assert_eq!(stage.assert_consistent(), 1);
        stage.release(12);
        assert!(
            stage.pop(4, 6).is_none(),
            "not eligible before the stripe completes"
        );
        stage.release(15);
        assert!(
            stage.pop(4, 6).is_none(),
            "not eligible before the frame boundary"
        );
        assert_eq!(stage.next_release, 16);
        assert!(
            ready_ports(&stage, stage.phase_of(4, 6)).is_empty(),
            "staged is not ready"
        );
        stage.release(16);
        assert!(stage.staged.is_empty());
        assert!(stage.ready.contains(stage.phase_of(4, 6), 4));
        assert_eq!(stage.pop(4, 6), Some((h, tag(0, 4))));
        assert_eq!(stage.assert_consistent(), 0);
    }

    #[test]
    fn stripe_complete_release_orders_by_eligibility_then_key() {
        let n = 4;
        let mut store = PacketStore::new();
        let mut stage = IntermediateStage::new(n, 3, true);
        // Two size-1 stripes (same level) from different inputs, both eligible
        // at the same boundary; ordering must follow the canonical key.
        let late = stored(&mut store, 3, 2, 7);
        let early = stored(&mut store, 1, 2, 9);
        stage.receive(&store, late, 0, 2, tag(3, 1), 1);
        stage.receive(&store, early, 0, 2, tag(1, 1), 2);
        stage.release(4);
        assert_eq!(
            stage.pop(0, 2),
            Some((early, tag(1, 1))),
            "canonical order is by (input, output, stripe seq)"
        );
        assert_eq!(stage.pop(0, 2), Some((late, tag(3, 1))));
    }

    #[test]
    fn immediate_mode_release_is_a_noop() {
        let mut store = PacketStore::new();
        let mut stage = IntermediateStage::new(4, 3, false);
        let h = stored(&mut store, 0, 1, 0);
        stage.receive(&store, h, 0, 1, tag(0, 1), 0);
        stage.release(100);
        assert_eq!(stage.assert_consistent(), 1);
        assert_eq!(stage.pop(0, 1), Some((h, tag(0, 1))));
    }
}
