//! Packet reordering detection.
//!
//! The paper's central claim is that a Sprinklers switch never reorders
//! packets within a VOQ (and therefore never within an application flow).
//! This module checks both properties on the delivered packet stream:
//!
//! * **VOQ order** — for each `(input, output)` pair, the `voq_seq` numbers of
//!   delivered data packets must be strictly increasing.
//! * **Flow order** — for each `(input, output, flow)` triple, the `voq_seq`
//!   numbers must also be increasing (a flow is a subsequence of one VOQ, so
//!   VOQ order implies flow order, but schemes such as TCP hashing preserve
//!   only flow order; measuring both separates the two guarantees).
//!
//! Every violation is counted, and the maximum observed displacement (how far
//! behind the newest already-delivered sequence number a late packet was) is
//! tracked, which corresponds to the size of the resequencing buffer an
//! output would need to repair the ordering (the quantity FOFF bounds by
//! O(N²)).
//!
//! The detector also hands out the numbers it checks.  Each VOQ has one
//! 16-byte record, `{ next_seq, high }`: [`ReorderDetector::stamp`] numbers
//! arriving packets from `next_seq`, and [`ReorderDetector::observe`] checks
//! deliveries against `high`.  Flow marks need no per-VOQ field: a VOQ that
//! has carried only flow id 0 has the VOQ's own mark as its flow mark, and
//! the first other flow id moves the VOQ's flows into a map (see
//! [`ReorderDetector`]).

use sprinklers_core::packet::Packet;
use std::collections::BTreeMap;

/// Aggregate reordering statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReorderStats {
    /// Packets delivered with a `voq_seq` lower than one already delivered
    /// for the same VOQ.
    pub voq_reorder_events: u64,
    /// Packets delivered with a `voq_seq` lower than one already delivered
    /// for the same `(input, output, flow)` triple.
    pub flow_reorder_events: u64,
    /// Largest sequence-number displacement observed within a VOQ.
    pub max_voq_displacement: u64,
    /// Number of distinct VOQs that experienced at least one reordering.
    pub reordered_voqs: u64,
}

impl ReorderStats {
    /// True if no reordering of any kind was observed.
    pub fn is_ordered(&self) -> bool {
        self.voq_reorder_events == 0 && self.flow_reorder_events == 0
    }
}

/// Per-VOQ record, one table entry per `(input, output)` pair: both ends of
/// the VOQ's sequence numbering in one 16-byte line.
#[derive(Debug, Clone, Copy, Default)]
struct VoqRecord {
    /// The `voq_seq` [`ReorderDetector::stamp`] gives the VOQ's next packet.
    next_seq: u64,
    /// `voq_seq + 1` of the highest sequence number delivered so far;
    /// 0 = nothing delivered yet.
    high: u64,
}

/// Flag: the VOQ has had at least one violation.
const DIRTY: u8 = 1;
/// Flag: the VOQ has carried a flow id other than 0; its flows live in
/// `flow_high`.
const SPILLED: u8 = 2;

/// Streaming reordering detector for an `n`-port switch, and the numbering
/// it checks.
///
/// All per-VOQ state sits in flat `n·n` tables sized once at construction,
/// indexed `input · n + output`, so stamping or observing a packet is a
/// couple of array accesses and no allocation.  A VOQ's record holds the
/// next sequence number to hand out and the highest one delivered, so
/// the line [`Self::stamp`] writes as a packet enters the switch is the line
/// [`Self::observe`] reads when it leaves: on a wide switch the delivery
/// finds it cached.
///
/// Flow order needs no state of its own while a VOQ has carried only flow
/// id 0 — every workload of the paper, whose packets carry no flow: that
/// flow sees the VOQ's exact sequence under the same update rule, so its
/// high-water mark *is* the VOQ's and the two event counters move together.
/// The first packet with another flow id *spills* the VOQ: flow 0 is entered
/// into the `(input, output, flow)` map with the VOQ's high-water mark from
/// before the packet at hand (if anything was delivered), and from then on
/// every flow of that VOQ is tracked in the map.
///
/// The spill map is a `BTreeMap`, not a hash map, because the deterministic
/// simulation core admits no container with a randomized hasher (the
/// repo-wide rule `sprinklers-lint` enforces); nothing iterates it.
///
/// `voq_seq` must be below `u64::MAX`, which is the padding marker.
#[derive(Debug, Clone)]
pub struct ReorderDetector {
    n: usize,
    voqs: Vec<VoqRecord>,
    /// [`DIRTY`] | [`SPILLED`] per VOQ.
    flags: Vec<u8>,
    /// Highest `voq_seq` delivered so far per (input, output, flow), for the
    /// flows of spilled VOQs only.
    flow_high: BTreeMap<(usize, usize, u64), u64>,
    stats: ReorderStats,
}

impl ReorderDetector {
    /// Create an empty detector for packets with ports in `0..n`.
    pub fn new(n: usize) -> Self {
        ReorderDetector {
            n,
            voqs: vec![VoqRecord::default(); n * n],
            flags: vec![0; n * n],
            flow_high: BTreeMap::new(),
            stats: ReorderStats::default(),
        }
    }

    /// The VOQ record of `(input, output)`.  With the table's own bounds
    /// check this rejects every port outside `0..n` instead of aliasing it
    /// onto another VOQ's entry.
    #[inline]
    fn index(&self, input: usize, output: usize) -> usize {
        assert!(output < self.n, "output {output} of an {}-port run", self.n);
        input * self.n + output
    }

    /// Give each of `packets` the next sequence number of its VOQ, in slice
    /// order: every VOQ counts from 0, independently of the others.
    // lint: hot-path
    pub fn stamp(&mut self, packets: &mut [Packet]) {
        for packet in packets {
            let idx = self.index(packet.input(), packet.output());
            let voq = &mut self.voqs[idx];
            packet.voq_seq = voq.next_seq;
            voq.next_seq += 1;
        }
    }

    /// Observe a delivered packet.  Padding packets are ignored.
    // lint: hot-path
    pub fn observe(&mut self, packet: &Packet) {
        if packet.is_padding() {
            return;
        }
        let (input, output) = packet.voq();
        let idx = self.index(input, output);
        let seq = packet.voq_seq;
        let voq = &mut self.voqs[idx];
        let flags = &mut self.flags[idx];

        // VOQ order.  `prev` is the high-water mark before this packet.
        let prev = voq.high;
        let late = seq + 1 < prev;
        if late {
            self.stats.voq_reorder_events += 1;
            let displacement = prev - 1 - seq;
            self.stats.max_voq_displacement = self.stats.max_voq_displacement.max(displacement);
            if *flags & DIRTY == 0 {
                *flags |= DIRTY;
                self.stats.reordered_voqs += 1;
            }
        } else {
            voq.high = seq + 1;
        }

        // Flow order.
        if *flags & SPILLED == 0 {
            if packet.flow == 0 {
                self.stats.flow_reorder_events += u64::from(late);
                return;
            }
            *flags |= SPILLED;
            if prev != 0 {
                self.flow_high.insert((input, output, 0), prev - 1);
            }
        }
        match self.flow_high.get_mut(&(input, output, packet.flow)) {
            None => {
                self.flow_high.insert((input, output, packet.flow), seq);
            }
            Some(high) => {
                if seq < *high {
                    self.stats.flow_reorder_events += 1;
                } else {
                    *high = seq;
                }
            }
        }
    }

    /// The statistics accumulated so far.
    pub fn stats(&self) -> ReorderStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(input: usize, output: usize, flow: u64, seq: u64) -> Packet {
        Packet::new(input, output, seq, 0)
            .with_flow(flow)
            .with_voq_seq(seq)
    }

    #[test]
    fn in_order_delivery_is_clean() {
        let mut d = ReorderDetector::new(4);
        for seq in 0..100 {
            d.observe(&pkt(0, 1, 7, seq));
        }
        assert!(d.stats().is_ordered());
        assert_eq!(d.stats().reordered_voqs, 0);
    }

    #[test]
    fn a_single_swap_is_detected() {
        let mut d = ReorderDetector::new(4);
        d.observe(&pkt(0, 1, 7, 0));
        d.observe(&pkt(0, 1, 7, 2));
        d.observe(&pkt(0, 1, 7, 1));
        let s = d.stats();
        assert_eq!(s.voq_reorder_events, 1);
        assert_eq!(s.flow_reorder_events, 1);
        assert_eq!(s.max_voq_displacement, 1);
        assert_eq!(s.reordered_voqs, 1);
        assert!(!s.is_ordered());
    }

    #[test]
    fn voq_reordering_across_different_flows_is_not_flow_reordering() {
        let mut d = ReorderDetector::new(4);
        // Two flows interleaved within the same VOQ: the VOQ sees 0, 2, 1, 3
        // (reordered) but each flow individually is in order.
        d.observe(&pkt(0, 1, 100, 0));
        d.observe(&pkt(0, 1, 200, 2));
        d.observe(&pkt(0, 1, 100, 1));
        d.observe(&pkt(0, 1, 200, 3));
        let s = d.stats();
        assert_eq!(s.voq_reorder_events, 1);
        assert_eq!(s.flow_reorder_events, 0);
    }

    #[test]
    fn different_voqs_do_not_interfere() {
        let mut d = ReorderDetector::new(4);
        d.observe(&pkt(0, 1, 1, 5));
        d.observe(&pkt(1, 1, 2, 0));
        d.observe(&pkt(0, 2, 3, 0));
        assert!(d.stats().is_ordered());
    }

    #[test]
    fn displacement_tracks_the_worst_case() {
        let mut d = ReorderDetector::new(4);
        d.observe(&pkt(0, 1, 7, 10));
        d.observe(&pkt(0, 1, 7, 3));
        d.observe(&pkt(0, 1, 7, 9));
        let s = d.stats();
        assert_eq!(s.voq_reorder_events, 2);
        assert_eq!(s.max_voq_displacement, 7);
        assert_eq!(s.reordered_voqs, 1);
    }

    #[test]
    fn padding_packets_are_ignored() {
        let mut d = ReorderDetector::new(4);
        d.observe(&pkt(0, 1, 7, 5));
        d.observe(&Packet::padding(0, 1, 0));
        assert!(d.stats().is_ordered());
    }

    #[test]
    fn stamp_numbers_each_voq_from_zero_on_its_own() {
        let mut d = ReorderDetector::new(4);
        let voqs = [(0, 1), (2, 1), (0, 1), (3, 3), (0, 1), (2, 1), (1, 0)];
        let mut packets: Vec<Packet> = voqs
            .iter()
            .map(|&(i, o)| Packet::new(i, o, 0, 0).with_voq_seq(99))
            .collect();
        d.stamp(&mut packets[..3]);
        d.stamp(&mut packets[3..]);
        let seqs: Vec<u64> = packets.iter().map(|p| p.voq_seq).collect();
        assert_eq!(seqs, [0, 0, 1, 0, 2, 1, 0]);
        // Delivering them in stamp order is clean.
        for p in &packets {
            d.observe(p);
        }
        assert!(d.stats().is_ordered());
    }

    #[test]
    fn a_voq_of_one_nonzero_flow_counts_flow_reorders_as_voq_reorders() {
        let mut d = ReorderDetector::new(4);
        for seq in [0, 3, 1, 4, 2, 2, 5, 0] {
            d.observe(&pkt(1, 2, 7, seq));
        }
        let s = d.stats();
        assert_eq!(s.voq_reorder_events, 4);
        assert_eq!(s.flow_reorder_events, s.voq_reorder_events);
        assert_eq!(s.max_voq_displacement, 5);
    }

    #[test]
    fn a_second_flow_carries_flow_zeros_mark_into_the_map() {
        // Counts the two-map detector of `reorder_oracle.rs` gives.
        // A late flow-0 packet behind its own flow's newest packet: late in
        // the VOQ and in flow 0.
        let mut d = ReorderDetector::new(4);
        for (flow, seq) in [(0, 0), (0, 2), (5, 3), (0, 1)] {
            d.observe(&pkt(0, 1, flow, seq));
        }
        let s = d.stats();
        assert_eq!((s.voq_reorder_events, s.flow_reorder_events), (1, 1));
        assert_eq!((s.max_voq_displacement, s.reordered_voqs), (2, 1));

        // Late only behind flow 5: late in the VOQ, in order in flow 0.
        let mut d = ReorderDetector::new(4);
        for (flow, seq) in [(0, 0), (5, 2), (0, 1), (5, 3), (0, 4)] {
            d.observe(&pkt(0, 1, flow, seq));
        }
        let s = d.stats();
        assert_eq!((s.voq_reorder_events, s.flow_reorder_events), (1, 0));
        assert_eq!((s.max_voq_displacement, s.reordered_voqs), (1, 1));
    }
}
