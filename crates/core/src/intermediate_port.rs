//! The intermediate stage of the two-stage kernel: every intermediate port's
//! FIFOs, held as one structure.
//!
//! Each port keeps, for every output `j`, one FIFO per stripe-size level and
//! sends `j` the head of its largest non-empty level: with Sprinklers'
//! `log₂N + 1` levels these form output `j`'s virtual schedule grid
//! (§3.4.3), with the baselines' one level a plain FIFO.  The stripe size a
//! packet carries — the only coordination the paper requires — is the tag of
//! its queue entry.  The `N·N·levels` FIFOs are one [`FifoGrid`] laid out
//! level by level, so its zeroed headers commit pages only for the levels a
//! run uses, and a mask of non-empty levels per (port, output) pair makes
//! "largest non-empty" one `leading_zeros`.  Port `ℓ` faces output `j` at
//! one phase per frame, so a [`PhaseRows`] bit per pair is set exactly while
//! its mask is non-zero, and the second-fabric walk visits the port only
//! then.
//!
//! A packet is eligible for the second fabric from the slot after it
//! arrives.

use crate::fabric::second_fabric_output_at;
use crate::fifo::FifoGrid;
use crate::lsf::top_level;
use crate::occupancy::PhaseRows;
use crate::store::PacketHandle;
use crate::two_stage::untag;

/// Every intermediate port of an `n`-port switch.
pub struct IntermediateStage {
    n: usize,
    levels: usize,
    /// Queue `level·n² + port·n + output`: packets at `port` for `output` of
    /// stripes of size `2^level`, in arrival order.
    queues: FifoGrid,
    /// Per `port·n + output`, the levels whose queue is non-empty.
    masks: Vec<u32>,
    /// Bit `port` of row `t` is set iff `port` holds a packet for the output
    /// the second fabric connects it to at phase `t`: the ports the walk of
    /// phase `t` visits.
    pub(crate) ready: PhaseRows,
}

impl IntermediateStage {
    /// The intermediate ports of an `n`-port switch with `levels` FIFOs per
    /// (port, output) pair.
    pub fn new(n: usize, levels: usize) -> Self {
        assert!((1..=32).contains(&levels), "a level mask has 32 bits");
        IntermediateStage {
            n,
            levels,
            queues: FifoGrid::new(n * n * levels),
            masks: vec![0; n * n],
            ready: PhaseRows::new(n),
        }
    }

    /// The phase `t` at which the second fabric connects `port` to `output`,
    /// `(port − output) mod n`: the fabric's pattern with `t` and the output
    /// swapped.
    #[inline]
    fn phase_of(&self, port: usize, output: usize) -> usize {
        second_fabric_output_at(port, output, self.n)
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
        let q = level * self.n * self.n + pair;
        let entry = self.queues.pop(q)?;
        if self.queues.is_empty(q) {
            self.masks[pair] = mask & !(1 << level);
            if self.masks[pair] == 0 {
                self.ready.clear(self.phase_of(port, output), port);
            }
        }
        Some(entry)
    }

    /// Accept `handle`, with entry tag `tag` (its input and stripe size), at
    /// `port` for `output` over the first fabric.
    // lint: hot-path
    #[inline]
    pub fn receive(&mut self, handle: PacketHandle, port: usize, output: usize, tag: u32) {
        // Sprinklers' stripe sizes are powers of two; a stage of fewer levels
        // keeps the larger sizes in its last one.
        let level = (untag(tag).1.trailing_zeros() as usize).min(self.levels - 1);
        let pair = port * self.n + output;
        let q = level * self.n * self.n + pair;
        self.queues.push(q, handle, tag);
        if self.masks[pair] == 0 {
            self.ready.set(self.phase_of(port, output), port);
        }
        self.masks[pair] |= 1 << level;
    }

    /// Check every level mask against a brute-force scan of its FIFOs and
    /// every phase-index bit against its mask; returns the packets the stage
    /// holds.
    pub fn assert_consistent(&self) -> usize {
        let n = self.n;
        let mut held = 0;
        for port in 0..n {
            for output in 0..n {
                let pair = port * n + output;
                let mut mask = 0u32;
                for level in 0..self.levels {
                    let len = self.queues.len(level * n * n + pair);
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
        held
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::two_stage::tag;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, VecDeque};

    fn ready_ports(stage: &IntermediateStage, phase: usize) -> Vec<usize> {
        stage.ready.ports(phase).collect()
    }

    #[test]
    fn immediate_mode_serves_largest_stripe_first() {
        let mut stage = IntermediateStage::new(8, 4);
        let (small, large) = (PacketHandle::from_raw(0), PacketHandle::from_raw(1));
        stage.receive(small, 2, 5, tag(0, 1));
        stage.receive(large, 2, 5, tag(0, 8));
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
        // One level, as the baselines run it: sizes 1 and N share the FIFO.
        let mut stage = IntermediateStage::new(4, 1);
        let (a, b) = (PacketHandle::from_raw(0), PacketHandle::from_raw(1));
        stage.receive(a, 0, 1, tag(0, 4));
        stage.receive(b, 0, 1, tag(3, 1));
        assert_eq!(stage.pop(0, 1), Some((a, tag(0, 4))));
        assert_eq!(stage.pop(0, 1), Some((b, tag(3, 1))));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Random receive / pop traffic agrees with one `VecDeque` per
        /// (port, output, level) — a pop serves the highest non-empty level —
        /// at small and wide switches, with one level and with `log₂N + 1`,
        /// and every mask and phase bit stays consistent after each step.
        #[test]
        fn stage_agrees_with_a_vecdeque_per_level(
            ops in proptest::collection::vec((0u32..3, 0usize..3, 0usize..3, 0usize..16), 1..32)
        ) {
            for n in [2usize, 8, 64, 256] {
                for levels in [1, n.trailing_zeros() as usize + 1] {
                    let mut stage = IntermediateStage::new(n, levels);
                    let mut model: BTreeMap<(usize, usize, usize), VecDeque<(PacketHandle, u32)>> =
                        BTreeMap::new();
                    for (step, &(op, x, y, k)) in ops.iter().enumerate() {
                        // A few (port, output) pairs spread over the switch,
                        // so pops find what receives queued.
                        let (port, output) = ((x * 97 + 5) % n, (y * 61 + 3) % n);
                        if op < 2 {
                            let size = 1 << (k % (n.trailing_zeros() as usize + 1));
                            let handle = PacketHandle::from_raw(step as u32);
                            let entry = tag(x, size);
                            stage.receive(handle, port, output, entry);
                            let level = (size.trailing_zeros() as usize).min(levels - 1);
                            model
                                .entry((port, output, level))
                                .or_default()
                                .push_back((handle, entry));
                        } else {
                            let expected = (0..levels).rev().find_map(|level| {
                                model.get_mut(&(port, output, level))?.pop_front()
                            });
                            prop_assert_eq!(stage.pop(port, output), expected);
                        }
                        let held: usize = model.values().map(VecDeque::len).sum();
                        prop_assert_eq!(stage.assert_consistent(), held);
                    }
                }
            }
        }
    }
}
