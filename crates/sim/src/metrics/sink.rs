//! The metrics pipeline as a [`DeliverySink`].
//!
//! `MetricsSink` is how the engine consumes deliveries: instead of collecting
//! packets into a `Vec` and iterating afterwards, the switch pushes each
//! delivered packet straight into the delay histogram and the reordering
//! detector.  Both are tables sized at construction — the detector's per-VOQ
//! state included, so a VOQ's *first* delivery costs no more than its
//! thousandth — and a steady-state simulation slot performs no heap
//! allocation end to end.  The exceptions are by nature unbounded and off
//! the paper's workloads: a delay at or above the histogram cap (65 536
//! slots) is kept in a sorted overflow list, a VOQ that carries a flow id
//! other than 0 tracks its flows in a map, and so does a VOQ whose sequence
//! numbers outgrow 31 bits (see
//! [`ReorderDetector`]).
//! [`MetricsSink::into_parts`] cuts the histogram to the delays seen, since
//! the report it goes into may be kept for a whole sweep.
//!
//! The sink also numbers the packets it will check: [`MetricsSink::stamp`]
//! gives each arrival its `voq_seq` from the same per-VOQ record its delivery
//! reads, so a run keeps one n² table of VOQ state — 8 bytes per VOQ,
//! allocated zeroed so pairs that never carry a packet commit no page — not
//! one for the numbering and one for the checking.

use crate::metrics::delay::DelayStats;
use crate::metrics::reorder::{ReorderDetector, ReorderStats};
use sprinklers_core::packet::{DeliveredPacket, Packet};
use sprinklers_core::switch::DeliverySink;

/// A delivery sink that feeds the delay and reordering metrics in place.
#[derive(Debug, Clone)]
pub struct MetricsSink {
    delay: DelayStats,
    reorder: ReorderDetector,
    delivered: u64,
    padding: u64,
    warmup_slots: u64,
    /// Data packets delivered per output port (index = output).  Sized once
    /// at construction, so the deliver path stays allocation-free.
    per_output: Vec<u64>,
}

impl MetricsSink {
    /// Create a sink for a switch with `n` ports (this sizes the per-output
    /// and per-VOQ tables); packets that *arrived* before `warmup_slots` are
    /// excluded from the delay statistics (they still count for reordering
    /// and conservation).
    pub fn new(warmup_slots: u64, n: usize) -> Self {
        MetricsSink {
            delay: DelayStats::default(),
            reorder: ReorderDetector::new(n),
            delivered: 0,
            padding: 0,
            warmup_slots,
            per_output: vec![0; n],
        }
    }

    /// Give each of a slot's arrivals its per-VOQ sequence number (`voq_seq`)
    /// as it enters the switch, through the record its delivery will be
    /// checked against (see [`ReorderDetector::stamp`]).
    #[inline]
    pub fn stamp(&mut self, packets: &mut [Packet]) {
        self.reorder.stamp(packets);
    }

    /// Data packets delivered so far.
    pub fn delivered_packets(&self) -> u64 {
        self.delivered
    }

    /// Padding packets delivered so far.
    pub fn padding_packets(&self) -> u64 {
        self.padding
    }

    /// Data packets delivered so far per output port.
    pub fn per_output_delivered(&self) -> &[u64] {
        &self.per_output
    }

    /// Reordering statistics accumulated so far.
    pub fn reordering(&self) -> ReorderStats {
        self.reorder.stats()
    }

    /// Borrow the delay statistics.
    pub fn delay(&self) -> &DelayStats {
        &self.delay
    }

    /// Consume the sink, returning its accumulated pieces, the delay
    /// histogram cut to the delays seen.
    pub fn into_parts(mut self) -> SinkTotals {
        let reordering = self.reorder.stats();
        self.delay.shrink_to_fit();
        SinkTotals {
            delay: self.delay,
            reordering,
            delivered: self.delivered,
            padding: self.padding,
            per_output_delivered: self.per_output,
        }
    }
}

/// Everything a finished [`MetricsSink`] accumulated, by value.
#[derive(Debug, Clone)]
pub struct SinkTotals {
    /// Delay statistics over post-warm-up deliveries.
    pub delay: DelayStats,
    /// Reordering statistics over every data delivery.
    pub reordering: ReorderStats,
    /// Total data packets delivered.
    pub delivered: u64,
    /// Total padding packets delivered.
    pub padding: u64,
    /// Data packets delivered per output port.
    pub per_output_delivered: Vec<u64>,
}

impl DeliverySink for MetricsSink {
    // lint: hot-path
    fn deliver(&mut self, delivered: DeliveredPacket) {
        if delivered.packet.is_padding() {
            self.padding += 1;
            return;
        }
        self.delivered += 1;
        self.per_output[delivered.packet.output()] += 1;
        self.reorder.observe(&delivered.packet);
        if delivered.packet.arrival_slot >= self.warmup_slots {
            self.delay.record(delivered.delay());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprinklers_core::packet::Packet;

    fn delivery(seq: u64, arrival: u64, departure: u64) -> DeliveredPacket {
        DeliveredPacket::new(Packet::new(0, 1, seq, arrival).with_voq_seq(seq), departure)
    }

    #[test]
    fn counts_and_measures_post_warmup_packets() {
        let mut sink = MetricsSink::new(10, 4);
        sink.deliver(delivery(0, 5, 8)); // pre-warm-up arrival: counted, not measured
        sink.deliver(delivery(1, 12, 20)); // measured, delay 8
        assert_eq!(sink.delivered_packets(), 2);
        assert_eq!(sink.delay().count(), 1);
        assert_eq!(sink.delay().max(), 8);
        assert!(sink.reordering().is_ordered());
    }

    #[test]
    fn padding_is_counted_separately_and_ignored_by_metrics() {
        let mut sink = MetricsSink::new(0, 4);
        sink.deliver(DeliveredPacket::new(Packet::padding(0, 1, 0), 4));
        assert_eq!(sink.delivered_packets(), 0);
        assert_eq!(sink.padding_packets(), 1);
        assert_eq!(sink.delay().count(), 0);
        assert_eq!(sink.per_output_delivered(), &[0, 0, 0, 0]);
    }

    #[test]
    fn reordering_is_observed_through_the_sink() {
        let mut sink = MetricsSink::new(0, 4);
        sink.deliver(delivery(3, 0, 1));
        sink.deliver(delivery(1, 0, 2));
        assert!(!sink.reordering().is_ordered());
        assert_eq!(sink.reordering().voq_reorder_events, 1);
    }

    #[test]
    fn per_output_counts_follow_each_packet_destination() {
        let mut sink = MetricsSink::new(0, 4);
        let to = |output: usize, seq: u64| {
            DeliveredPacket::new(Packet::new(0, output, seq, 0).with_voq_seq(seq), 1)
        };
        sink.deliver(to(1, 0));
        sink.deliver(to(1, 1));
        sink.deliver(to(3, 0));
        // Padding never counts toward an output's delivered share.
        sink.deliver(DeliveredPacket::new(Packet::padding(0, 1, 0), 1));
        assert_eq!(sink.per_output_delivered(), &[0, 2, 0, 1]);
        let totals = sink.into_parts();
        assert_eq!(totals.per_output_delivered, vec![0, 2, 0, 1]);
        assert_eq!(
            totals.per_output_delivered.iter().sum::<u64>(),
            totals.delivered
        );
    }
}
