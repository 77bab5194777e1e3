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
//! 8-byte record of two `u32` words, `[next_seq, high]`:
//! [`ReorderDetector::stamp`] numbers arriving packets from `next_seq`, and
//! [`ReorderDetector::observe`] checks deliveries against `high`.  Each
//! word's top bit is a flag, so a VOQ's whole state is one record.  Flow
//! marks need no per-VOQ field: a VOQ that has carried only flow id 0 has
//! the VOQ's own mark as its flow mark, and the first other flow id moves
//! the VOQ's flows into a map (see [`ReorderDetector`]).

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

/// A VOQ's record: `[next_seq, high]`, one table entry per
/// `(input, output)` pair.  The low 31 bits of `NEXT` are the `voq_seq`
/// [`ReorderDetector::stamp`] gives the VOQ's next packet; those of `HIGH`
/// are `voq_seq + 1` of the highest sequence number delivered so far (0 =
/// nothing delivered yet).  The top bits are [`SPILLED`] and [`DIRTY`].
type VoqRecord = [u32; 2];

/// Word of a [`VoqRecord`] holding `next_seq` and [`SPILLED`].
const NEXT: usize = 0;
/// Word of a [`VoqRecord`] holding `high` and [`DIRTY`].
const HIGH: usize = 1;
/// Flag in the `NEXT` word: the VOQ has carried a flow id other than 0; its
/// flows live in `flow_high`.
const SPILLED: u32 = 1 << 31;
/// Flag in the `HIGH` word: the VOQ has had at least one violation.
const DIRTY: u32 = 1 << 31;
/// The count bits of both words.  A `NEXT` count of `WIDE` itself marks a
/// VOQ whose counts have outgrown the record and live in `wide` instead.
const WIDE: u32 = (1 << 31) - 1;

/// Streaming reordering detector for an `n`-port switch, and the numbering
/// it checks.
///
/// All per-VOQ state sits in one flat `n·n` table of 8-byte records sized
/// once at construction, indexed `input · n + output`, so stamping or
/// observing a packet is one record access and no allocation.  The table is
/// allocated zeroed, so the pages of VOQs that never see a packet are never
/// committed.  A VOQ's record holds the next sequence number to hand out and
/// the highest one delivered, so the line [`Self::stamp`] writes as a packet
/// enters the switch is the line [`Self::observe`] reads when it leaves: on
/// a wide switch the delivery finds it cached.
///
/// The record counts in 31 bits.  A VOQ whose `next_seq` reaches `2³¹ − 1`,
/// or that is delivered a `voq_seq` of `2³¹ − 1` or more, moves both counts
/// into a `u64` map at its next stamp or delivery and keeps them there, so
/// numbering and checking stay exact at any run length.
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
/// Both maps are `BTreeMap`s, not hash maps, because the deterministic
/// simulation core admits no container with a randomized hasher (the
/// repo-wide rule `sprinklers-lint` enforces); nothing iterates them.
///
/// `voq_seq` must be below `u64::MAX`, which is the padding marker.
#[derive(Debug, Clone)]
pub struct ReorderDetector {
    n: usize,
    voqs: Vec<VoqRecord>,
    /// `[next_seq, high]` of the VOQs whose `NEXT` count is [`WIDE`], by
    /// table index.
    wide: BTreeMap<usize, [u64; 2]>,
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
            voqs: vec![[0; 2]; n * n],
            wide: BTreeMap::new(),
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

    /// The `u64` counts `[next_seq, high]` of the VOQ at `idx`, moved out of
    /// its record on first use.  Marking the record [`WIDE`] keeps its flag.
    #[cold]
    fn wide(&mut self, idx: usize) -> &mut [u64; 2] {
        let record = &mut self.voqs[idx];
        let counts = [record[NEXT] & WIDE, record[HIGH] & WIDE].map(u64::from);
        record[NEXT] |= WIDE;
        self.wide.entry(idx).or_insert(counts)
    }

    /// Give each of `packets` the next sequence number of its VOQ, in slice
    /// order: every VOQ counts from 0, independently of the others.
    // lint: hot-path
    pub fn stamp(&mut self, packets: &mut [Packet]) {
        for packet in packets {
            let idx = self.index(packet.input(), packet.output());
            let next = &mut self.voqs[idx][NEXT];
            let seq = *next & WIDE;
            if seq < WIDE {
                packet.voq_seq = u64::from(seq);
                // Below `WIDE`, so the flag bit is untouched.
                *next += 1;
            } else {
                let counts = self.wide(idx);
                packet.voq_seq = counts[NEXT];
                counts[NEXT] += 1;
            }
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
        let record = self.voqs[idx];

        // VOQ order.  `prev` is the high-water mark before this packet.
        let prev = if record[NEXT] & WIDE < WIDE && seq < u64::from(WIDE) {
            let prev = u64::from(record[HIGH] & WIDE);
            if seq + 1 >= prev {
                // `seq + 1 ≤ WIDE`, so the count stays clear of the flag.
                self.voqs[idx][HIGH] = (record[HIGH] & DIRTY) | (seq as u32 + 1);
            }
            prev
        } else {
            let counts = self.wide(idx);
            let prev = counts[HIGH];
            if seq + 1 >= prev {
                counts[HIGH] = seq + 1;
            }
            prev
        };
        let late = seq + 1 < prev;
        if late {
            self.stats.voq_reorder_events += 1;
            let displacement = prev - 1 - seq;
            self.stats.max_voq_displacement = self.stats.max_voq_displacement.max(displacement);
            if record[HIGH] & DIRTY == 0 {
                self.voqs[idx][HIGH] |= DIRTY;
                self.stats.reordered_voqs += 1;
            }
        }

        // Flow order.
        if record[NEXT] & SPILLED == 0 {
            if packet.flow == 0 {
                self.stats.flow_reorder_events += u64::from(late);
                return;
            }
            self.voqs[idx][NEXT] |= SPILLED;
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

    /// The detector's rules on `u64` counts for one VOQ, with one map entry
    /// per flow and no spilling: the model the record's 31-bit limit is
    /// checked against.
    #[derive(Default)]
    struct U64Model {
        next_seq: u64,
        high: Option<u64>,
        flows: BTreeMap<u64, u64>,
        dirty: bool,
        stats: ReorderStats,
    }

    impl U64Model {
        fn stamp(&mut self) -> u64 {
            self.next_seq += 1;
            self.next_seq - 1
        }

        fn observe(&mut self, flow: u64, seq: u64) {
            match self.high {
                Some(high) if seq < high => {
                    self.stats.voq_reorder_events += 1;
                    self.stats.max_voq_displacement =
                        self.stats.max_voq_displacement.max(high - seq);
                    if !self.dirty {
                        self.dirty = true;
                        self.stats.reordered_voqs += 1;
                    }
                }
                _ => self.high = Some(seq),
            }
            match self.flows.get_mut(&flow) {
                Some(high) if seq < *high => self.stats.flow_reorder_events += 1,
                Some(high) => *high = seq,
                None => {
                    self.flows.insert(flow, seq);
                }
            }
        }
    }

    /// One step of a limit-test script for VOQ (1, 2) of a 4-port detector.
    #[derive(Clone, Copy)]
    enum Step {
        /// Stamp one packet of this flow and remember it.
        Stamp(u64),
        /// Deliver the `k`-th packet stamped so far.
        Deliver(usize),
        /// Deliver a packet of this flow and `voq_seq` that was never stamped.
        Raw(u64, u64),
    }

    /// Run `script` on a detector whose VOQ (1, 2) starts at `start` and on
    /// the model, comparing every stamped number and the stats after every
    /// step; returns the detector.
    fn run_against_the_model(start: u32, script: &[Step]) -> ReorderDetector {
        let mut d = ReorderDetector::new(4);
        let idx = d.index(1, 2);
        d.voqs[idx][NEXT] = start;
        let mut model = U64Model {
            next_seq: u64::from(start),
            ..U64Model::default()
        };
        let mut stamped = Vec::new();
        for (at, &step) in script.iter().enumerate() {
            match step {
                Step::Stamp(flow) => {
                    let mut packets = [Packet::new(1, 2, 0, 0).with_flow(flow)];
                    d.stamp(&mut packets);
                    let [packet] = packets;
                    assert_eq!(packet.voq_seq, model.stamp(), "step {at}");
                    stamped.push(packet);
                }
                Step::Deliver(k) => {
                    d.observe(&stamped[k]);
                    model.observe(stamped[k].flow, stamped[k].voq_seq);
                }
                Step::Raw(flow, seq) => {
                    d.observe(&pkt(1, 2, flow, seq));
                    model.observe(flow, seq);
                }
            }
            assert_eq!(d.stats(), model.stats, "step {at}");
        }
        // The other VOQs kept their compact records.
        assert!(d.wide.keys().all(|&k| k == idx));
        d
    }

    #[test]
    fn numbering_and_checking_stay_exact_across_the_record_limit() {
        use Step::*;
        // `2³¹ − 2`: the last number the record holds, so the VOQ moves at
        // its next stamp or delivery.
        let start = WIDE - 1;
        // In order across the limit, then a late packet, then a second flow
        // id after the VOQ has moved to the map, then a late flow-0 packet
        // behind it.
        let d = run_against_the_model(
            start,
            &[
                Stamp(0),
                Stamp(0),
                Stamp(0),
                Stamp(0),
                Deliver(0),
                Deliver(1),
                Deliver(3),
                Deliver(2),
                Stamp(0),
                Stamp(5),
                Stamp(0),
                Deliver(5),
                Deliver(4),
                Deliver(6),
                Stamp(5),
                Deliver(7),
            ],
        );
        let idx = d.index(1, 2);
        assert_eq!(d.wide[&idx], [u64::from(start) + 8, u64::from(start) + 8]);
        assert_eq!(d.voqs[idx][NEXT], SPILLED | WIDE);
        assert_eq!(d.voqs[idx][HIGH] & DIRTY, DIRTY);
        let s = d.stats();
        assert_eq!((s.voq_reorder_events, s.flow_reorder_events), (2, 1));
        assert_eq!((s.max_voq_displacement, s.reordered_voqs), (1, 1));
    }

    #[test]
    fn the_move_carries_the_mark_of_deliveries_made_before_it() {
        use Step::*;
        // Three numbers left in the record: the second is delivered before
        // the move, the first only after it, behind the carried mark.
        let d = run_against_the_model(
            WIDE - 3,
            &[
                Stamp(0),
                Stamp(0),
                Deliver(1),
                Stamp(0),
                Deliver(0),
                Deliver(2),
            ],
        );
        let s = d.stats();
        assert_eq!((s.voq_reorder_events, s.max_voq_displacement), (1, 1));
    }

    #[test]
    fn a_delivered_number_past_the_limit_moves_a_fresh_voq_to_the_map() {
        use Step::*;
        let limit = u64::from(WIDE);
        let d = run_against_the_model(
            0,
            &[
                Raw(0, limit - 1),
                Raw(0, limit),
                Raw(0, 3),
                Stamp(0),
                Deliver(0),
                Raw(9, 1 << 40),
                Raw(0, limit + 1),
                Stamp(9),
            ],
        );
        let idx = d.index(1, 2);
        assert_eq!(d.wide[&idx], [2, (1 << 40) + 1]);
        assert_eq!(d.stats().max_voq_displacement, (1 << 40) - limit - 1);
    }

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
