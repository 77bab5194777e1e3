//! The baseline load-balanced switch of Chang et al. (reference \[2\] of the
//! paper).
//!
//! Each input keeps a single FIFO of arriving packets and, in every slot,
//! forwards its head-of-line packet to whichever intermediate port the first
//! fabric connects it to.  Intermediate ports keep one FIFO per output and
//! forward over the second fabric.  This achieves 100% throughput for any
//! admissible traffic and has the lowest possible average delay of the
//! schemes studied — but packets of the same VOQ take different paths with
//! different queueing delays, so departures can be badly out of order.  The
//! paper uses it as the delay lower bound in Figures 6 and 7.

use crate::NewSwitch;
use sprinklers_core::fifo::FifoGrid;
use sprinklers_core::packet::Packet;
use sprinklers_core::store::{PacketHandle, PacketStore};
use sprinklers_core::two_stage::{InputPolicy, Served, TwoStage};

/// The baseline (unordered) load-balanced switch.
pub type BaselineLbSwitch = TwoStage<BaselineLb>;

/// Baseline LB's input stage: one FIFO per input, head of line to whichever
/// intermediate port is connected.
pub struct BaselineLb {
    /// Queue `i` is input `i`'s FIFO; an entry is tagged with its output.
    inputs: FifoGrid,
}

impl NewSwitch for BaselineLbSwitch {
    /// Create an `n`-port baseline load-balanced switch.
    fn new(n: usize) -> Self {
        let inputs = FifoGrid::new(n);
        TwoStage::with_policy(n, BaselineLb { inputs })
    }
}

impl InputPolicy for BaselineLb {
    const NAME: &'static str = "baseline-lb";

    // lint: hot-path
    #[inline]
    fn arrive(&mut self, packet: &Packet, store: impl FnOnce() -> PacketHandle) -> bool {
        let handle = store();
        self.inputs
            .push(packet.input(), handle, packet.output() as u32);
        true
    }

    // lint: hot-path
    #[inline]
    fn serve(
        &mut self,
        input: usize,
        _connected: usize,
        _slot: u64,
        _store: &mut PacketStore,
    ) -> Served {
        Served {
            sent: self.inputs.pop(input),
            stripe_size: 1,
            minted: 0,
            servable: !self.inputs.is_empty(input),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprinklers_core::switch::Switch;
    use sprinklers_core::two_stage::CheckInput;

    impl CheckInput for BaselineLb {
        fn check_input(&self, input: usize, servable: bool) -> usize {
            let held = self.inputs.len(input);
            assert_eq!(servable, held > 0, "input {input} bit");
            held
        }
    }

    fn pkt(input: usize, output: usize, seq: u64, slot: u64) -> Packet {
        Packet::new(input, output, seq, slot).with_voq_seq(seq)
    }

    #[test]
    fn single_packet_is_delivered_to_the_right_output() {
        let mut sw = BaselineLbSwitch::new(8);
        sw.arrive(pkt(2, 5, 0, 0));
        let mut delivered = Vec::new();
        for slot in 0..24 {
            sw.step(slot, &mut delivered);
        }
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].packet.output(), 5);
        assert_eq!(sw.stats().total_departures, 1);
    }

    #[test]
    fn input_fifo_is_served_one_packet_per_slot() {
        let mut sw = BaselineLbSwitch::new(4);
        for k in 0..4 {
            sw.arrive(pkt(0, 0, k, 0));
        }
        assert_eq!(sw.stats().queued_at_inputs, 4);
        sw.step(0, &mut sprinklers_core::switch::NullSink);
        assert_eq!(sw.stats().queued_at_inputs, 3);
        sw.step(1, &mut sprinklers_core::switch::NullSink);
        assert_eq!(sw.stats().queued_at_inputs, 2);
    }

    #[test]
    fn packets_spread_across_intermediate_ports() {
        let mut sw = BaselineLbSwitch::new(4);
        for k in 0..4 {
            sw.arrive(pkt(0, 2, k, 0));
        }
        let mut delivered = Vec::new();
        for slot in 0..4 {
            sw.step(slot, &mut delivered);
        }
        // One packet left the input per slot; some may already have departed.
        let stats = sw.stats();
        assert_eq!(stats.queued_at_inputs, 0);
        assert_eq!(stats.queued_at_intermediates + delivered.len(), 4);
        for slot in 4..16 {
            sw.step(slot, &mut delivered);
        }
        // The four packets went through four distinct intermediate ports.
        let mut ports: Vec<usize> = delivered.iter().map(|d| d.packet.intermediate()).collect();
        ports.sort_unstable();
        assert_eq!(ports, [0, 1, 2, 3]);
    }

    #[test]
    fn conserves_packets() {
        let mut sw = BaselineLbSwitch::new(8);
        let mut sent = 0u64;
        // Destinations decorrelated from the fabric's connection pattern, at
        // 7/8 load so the intermediate queues stay stable.
        for slot in 0..100u64 {
            for i in 0..8 {
                if (i + slot as usize).is_multiple_of(8) {
                    continue;
                }
                sw.arrive(pkt(i, (i + 3 * slot as usize + 1) % 8, slot, slot));
                sent += 1;
            }
            sw.step(slot, &mut sprinklers_core::switch::NullSink);
            sw.assert_consistent();
        }
        for slot in 100..2000u64 {
            sw.step(slot, &mut sprinklers_core::switch::NullSink);
            sw.assert_consistent();
        }
        assert_eq!(sw.stats().total_departures, sent);
        assert_eq!(sw.stats().total_queued(), 0);
    }
}
