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

use serde::{Deserialize, Serialize};
use sprinklers_core::packet::Packet;
use std::collections::BTreeMap;

/// Aggregate reordering statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
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

/// Per-VOQ detector state, one table entry per `(input, output)` pair.
#[derive(Debug, Clone, Copy, Default)]
struct VoqState {
    /// `voq_seq + 1` of the highest sequence number delivered so far;
    /// 0 = nothing delivered yet.
    high: u64,
    /// The one flow id this VOQ has carried.  Meaningful once `high != 0`
    /// and until the VOQ spills.
    sole_flow: u64,
}

/// Flag: the VOQ has had at least one violation.
const DIRTY: u8 = 1;
/// Flag: the VOQ has carried a second flow id; its flows live in `flow_high`.
const SPILLED: u8 = 2;

/// Streaming reordering detector for an `n`-port switch.
///
/// All per-VOQ state sits in flat `n·n` tables sized once at construction,
/// indexed `input · n + output`, so observing a packet is a couple of array
/// accesses and no allocation.  Flow order needs no state of its own while a
/// VOQ has carried a single flow id: that flow sees the VOQ's exact sequence
/// under the same update rule, so its high-water mark *is* the VOQ's and the
/// two event counters move together.  Only when a second flow id shows up
/// does the VOQ *spill*: the first flow is entered into the
/// `(input, output, flow)` map with the VOQ's high-water mark from before the
/// packet at hand, and from then on every flow of that VOQ is tracked in the
/// map.  Flowless traffic — every workload of the paper — never spills.
///
/// The spill map is a `BTreeMap`, not a hash map, because the deterministic
/// simulation core admits no container with a randomized hasher (the
/// repo-wide rule `sprinklers-lint` enforces); nothing iterates it.
///
/// `voq_seq` must be below `u64::MAX`, which is the padding marker.
#[derive(Debug, Clone)]
pub struct ReorderDetector {
    n: usize,
    voqs: Vec<VoqState>,
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
            voqs: vec![VoqState::default(); n * n],
            flags: vec![0; n * n],
            flow_high: BTreeMap::new(),
            stats: ReorderStats::default(),
        }
    }

    /// Observe a delivered packet.  Padding packets are ignored.
    // lint: hot-path
    pub fn observe(&mut self, packet: &Packet) {
        if packet.is_padding() {
            return;
        }
        let (input, output) = packet.voq();
        // With the table lookup's own bounds check this rejects every port
        // outside `0..n` instead of aliasing it onto another VOQ's entry.
        assert!(output < self.n, "output {output} of an {}-port run", self.n);
        let idx = input * self.n + output;
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
        if prev == 0 {
            voq.sole_flow = packet.flow;
            return;
        }
        if *flags & SPILLED == 0 {
            if voq.sole_flow == packet.flow {
                self.stats.flow_reorder_events += u64::from(late);
                return;
            }
            *flags |= SPILLED;
            self.flow_high
                .insert((input, output, voq.sole_flow), prev - 1);
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
}
