//! An ideal output-queued (OQ) switch — the delay lower bound of switching
//! theory.
//!
//! Every arriving packet is placed directly into a FIFO at its output port,
//! as if the fabric had infinite internal speedup; the output then drains one
//! packet per slot (its line rate).  No real two-stage load-balanced switch
//! can beat this delay, which makes OQ the natural reference curve for the
//! delay–load figures: the gap between a scheme and OQ is the price that
//! scheme pays for being implementable at line rate.
//!
//! Because each output is a single FIFO, packets of a VOQ (and of a flow)
//! always depart in arrival order — OQ is trivially reordering-free.  Like
//! the store-and-forward switches it is compared against, a packet arriving
//! in slot `t` can depart no earlier than slot `t + 1`.

use sprinklers_core::occupancy::{OccupancySet, PortCursor};
use sprinklers_core::packet::{DeliveredPacket, Packet};
use sprinklers_core::switch::{step_batch_rotating, DeliverySink, Switch, SwitchStats};
use std::collections::VecDeque;

/// The ideal output-queued switch.
pub struct OutputQueuedSwitch {
    n: usize,
    outputs: Vec<VecDeque<Packet>>,
    /// Outputs with at least one buffered packet — the only queues a step
    /// has to look at, so a slot costs O(backlogged outputs) instead of O(N).
    occupied: OccupancySet,
    arrivals: u64,
    departures: u64,
}

impl OutputQueuedSwitch {
    /// Create an `n`-port output-queued switch.  The per-output FIFOs start
    /// empty and grow to the deepest backlog they hold, so memory follows
    /// what the run queues, not the port count.
    pub fn new(n: usize) -> Self {
        assert!(n >= 2, "a switch needs at least two ports");
        sprinklers_core::packet::assert_ports_fit(n);
        OutputQueuedSwitch {
            n,
            outputs: (0..n).map(|_| VecDeque::new()).collect(),
            occupied: OccupancySet::new(n),
            arrivals: 0,
            departures: 0,
        }
    }
}

impl Switch for OutputQueuedSwitch {
    fn n(&self) -> usize {
        self.n
    }

    fn name(&self) -> &'static str {
        "oq"
    }

    fn arrive(&mut self, packet: Packet) {
        debug_assert!(packet.input() < self.n && packet.output() < self.n);
        self.arrivals += 1;
        self.occupied.insert(packet.output());
        self.outputs[packet.output()].push_back(packet);
    }

    // lint: hot-path
    fn step_batch(&mut self, first_slot: u64, count: u32, sink: &mut dyn DeliverySink) {
        // OQ has no fabric phase, so the rotated `t` goes unused; an empty
        // switch — the degenerate case of the per-output occupancy check —
        // elides the rest of the batch.
        step_batch_rotating(self.n, first_slot, count, |slot, _t| {
            if self.occupied.is_empty() {
                return false;
            }
            // Walk only the backlogged outputs, in ascending order like the
            // dense loop did (empty queues were no-ops there).
            let mut cursor = PortCursor::default();
            while let Some(j) = self.occupied.next_port(&mut cursor) {
                let queue = &mut self.outputs[j];
                // Store-and-forward: a packet needs at least one slot inside
                // the switch, so same-slot arrivals are not eligible yet.
                let eligible = queue
                    .front()
                    .is_some_and(|packet| packet.arrival_slot < slot);
                if eligible {
                    if let Some(packet) = queue.pop_front() {
                        if queue.is_empty() {
                            self.occupied.remove(j);
                        }
                        self.departures += 1;
                        sink.deliver(DeliveredPacket::new(packet, slot));
                    }
                }
            }
            true
        });
    }

    fn stats(&self) -> SwitchStats {
        SwitchStats {
            queued_at_inputs: 0,
            queued_at_intermediates: 0,
            // Packets only ever wait at the outputs, so the occupancy the
            // engine samples every N slots is a counter difference, not an
            // O(N) rescan of the queues.
            queued_at_outputs: (self.arrivals - self.departures) as usize,
            total_arrivals: self.arrivals,
            total_departures: self.departures,
            total_dropped: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprinklers_core::switch::NullSink;

    fn pkt(input: usize, output: usize, seq: u64, slot: u64) -> Packet {
        Packet::new(input, output, seq, slot).with_voq_seq(seq)
    }

    #[test]
    fn packet_departs_exactly_one_slot_after_arrival_when_uncontended() {
        let mut sw = OutputQueuedSwitch::new(4);
        sw.arrive(pkt(0, 2, 0, 0));
        let mut delivered = Vec::new();
        sw.step(0, &mut delivered);
        assert!(delivered.is_empty(), "store-and-forward needs one slot");
        sw.step(1, &mut delivered);
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].delay(), 1);
        assert_eq!(delivered[0].packet.output(), 2);
    }

    #[test]
    fn one_departure_per_output_per_slot() {
        let n = 4;
        let mut sw = OutputQueuedSwitch::new(n);
        for i in 0..n {
            sw.arrive(pkt(i, 1, i as u64, 0));
        }
        let mut delivered = Vec::new();
        for slot in 0..8u64 {
            delivered.clear();
            sw.step(slot, &mut delivered);
            assert!(delivered.len() <= 1, "output 1 is a single line");
        }
        assert_eq!(sw.stats().total_departures, n as u64);
    }

    #[test]
    fn departures_preserve_voq_order() {
        let n = 4;
        let mut sw = OutputQueuedSwitch::new(n);
        let mut delivered = Vec::new();
        for slot in 0..64u64 {
            sw.arrive(pkt(0, 3, slot, slot));
            sw.step(slot, &mut delivered);
        }
        for slot in 64..256u64 {
            sw.step(slot, &mut delivered);
        }
        assert_eq!(delivered.len(), 64);
        let seqs: Vec<u64> = delivered.iter().map(|d| d.packet.voq_seq).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(seqs, sorted, "OQ must never reorder");
    }

    #[test]
    fn conserves_packets() {
        let n = 8;
        let mut sw = OutputQueuedSwitch::new(n);
        let mut sent = 0u64;
        for slot in 0..200u64 {
            for i in 0..n {
                if !(i + slot as usize).is_multiple_of(3) {
                    sw.arrive(pkt(i, (i + slot as usize) % n, slot, slot));
                    sent += 1;
                }
            }
            sw.step(slot, &mut NullSink);
        }
        for slot in 200..4000u64 {
            sw.step(slot, &mut NullSink);
        }
        assert_eq!(sw.stats().total_departures, sent);
        assert_eq!(sw.stats().total_queued(), 0);
    }

    #[test]
    fn stats_count_output_queueing() {
        let mut sw = OutputQueuedSwitch::new(4);
        sw.arrive(pkt(0, 1, 0, 0));
        sw.arrive(pkt(2, 1, 0, 0));
        assert_eq!(sw.stats().queued_at_outputs, 2);
        assert_eq!(sw.stats().queued_at_inputs, 0);
    }
}
