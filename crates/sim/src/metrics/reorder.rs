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
//! 4-byte record: [`ReorderDetector::stamp`] numbers arriving packets from
//! its `next_seq` count, and [`ReorderDetector::observe`] checks deliveries
//! against its `high` count.  The record also holds the VOQ's two flags, so
//! a VOQ's whole state is one `u32`; a VOQ whose counts outgrow the record
//! keeps them in a side table of `u64`s instead.  Flow marks need no per-VOQ
//! field: a VOQ that has carried only flow id 0 has the VOQ's own mark as
//! its flow mark, and the first other flow id moves the VOQ's flows into a
//! map (see [`ReorderDetector`]).

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

/// A VOQ's record, one table entry per `(input, output)` pair.
///
/// *Narrow* (top bit clear), from the top: [`DIRTY`], [`SPILLED`], a 15-bit
/// `high` and a 14-bit `next_seq`.  `next_seq` is the `voq_seq`
/// [`ReorderDetector::stamp`] gives the VOQ's next packet; `high` is
/// `voq_seq + 1` of the highest sequence number delivered so far (0 =
/// nothing delivered yet).  All zero is a fresh VOQ.
///
/// *Wide* ([`WIDE`] set): the low 31 bits index the VOQ's [`WideVoq`] in
/// the side table, which holds both counts and both flags.
type VoqRecord = u32;

/// Record bit: the VOQ's state lives in the side table.
const WIDE: u32 = 1 << 31;
/// Flag: the VOQ has had at least one violation.
const DIRTY: u32 = 1 << 30;
/// Flag: the VOQ has carried a flow id other than 0; its flows live in
/// `flow_high`.
const SPILLED: u32 = 1 << 29;
/// A narrow record's `next_seq` bits.  A count of `NEXT_MASK` itself is
/// full: the VOQ moves to the side table at its next stamp.
const NEXT_MASK: u32 = (1 << 14) - 1;
/// Shift of a narrow record's `high` count.
const HIGH_SHIFT: u32 = 14;
/// A narrow record's `high` count, once shifted down: a delivered
/// `voq_seq` below `HIGH_MASK` is checked in the record.
const HIGH_MASK: u32 = (1 << 15) - 1;

/// The exact state of a VOQ whose counts have outgrown its record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WideVoq {
    next_seq: u64,
    high: u64,
    /// [`DIRTY`] and [`SPILLED`], as in a narrow record.
    flags: u32,
}

/// Streaming reordering detector for an `n`-port switch, and the numbering
/// it checks.
///
/// All per-VOQ state sits in one flat `n·n` table of 4-byte records sized
/// once at construction, indexed `input · n + output`, so stamping or
/// observing a packet is one record access and no allocation.  The table is
/// allocated zeroed, so the pages of VOQs that never see a packet are never
/// committed.  A VOQ's record holds the next sequence number to hand out and
/// the highest one delivered, so the line [`Self::stamp`] writes as a packet
/// enters the switch is the line [`Self::observe`] reads when it leaves: on
/// a wide switch the delivery finds it cached.
///
/// A record counts `next_seq` in 14 bits and `high` in 15.  A VOQ that is
/// stamped its 16 384th packet, or delivered a `voq_seq` of `2¹⁵ − 1` or
/// more, moves both counts and its flags into one flat side table of `u64`
/// counts and keeps them there; its record then holds the entry's index.
/// Numbering and checking thus stay exact at any run length, and the side
/// table grows only with the VOQs that have carried that many packets —
/// none on the paper's workloads.  Violations and spilling never move a
/// VOQ.
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
/// The flow map is a `BTreeMap`, not a hash map, because the deterministic
/// simulation core admits no container with a randomized hasher (the
/// repo-wide rule `sprinklers-lint` enforces); nothing iterates it.
///
/// `voq_seq` must be below `u64::MAX`, which is the padding marker.
#[derive(Debug, Clone)]
pub struct ReorderDetector {
    n: usize,
    voqs: Vec<VoqRecord>,
    /// The state of the VOQs whose record is [`WIDE`], in the order they
    /// moved.
    wide: Vec<WideVoq>,
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
            voqs: vec![0; n * n],
            wide: Vec::new(),
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

    /// The side-table entry of the VOQ at `idx`, moved out of its record on
    /// first use.
    fn wide_voq(&mut self, idx: usize) -> &mut WideVoq {
        let record = self.voqs[idx];
        let slot = if record & WIDE == 0 {
            self.widen(idx)
        } else {
            (record & !WIDE) as usize
        };
        &mut self.wide[slot]
    }

    /// Move the narrow record at `idx` into a new side-table entry, point
    /// the record at it and return its index.
    #[cold]
    fn widen(&mut self, idx: usize) -> usize {
        let record = self.voqs[idx];
        let slot = self.wide.len();
        let tag = u32::try_from(slot)
            .ok()
            .filter(|&tag| tag & WIDE == 0)
            .expect("side-table index fits a record");
        self.wide.push(WideVoq {
            next_seq: u64::from(record & NEXT_MASK),
            high: u64::from((record >> HIGH_SHIFT) & HIGH_MASK),
            flags: record & (DIRTY | SPILLED),
        });
        self.voqs[idx] = WIDE | tag;
        slot
    }

    /// The word holding the flags of the VOQ at `idx`: its record, or its
    /// side-table entry once wide.
    fn flags(&mut self, idx: usize) -> &mut u32 {
        let record = self.voqs[idx];
        if record & WIDE == 0 {
            &mut self.voqs[idx]
        } else {
            &mut self.wide[(record & !WIDE) as usize].flags
        }
    }

    /// Give each of `packets` the next sequence number of its VOQ, in slice
    /// order: every VOQ counts from 0, independently of the others.
    // lint: hot-path
    pub fn stamp(&mut self, packets: &mut [Packet]) {
        for packet in packets {
            let idx = self.index(packet.input(), packet.output());
            let record = &mut self.voqs[idx];
            // Below `NEXT_MASK` only for a narrow record with room left.
            if *record & (WIDE | NEXT_MASK) < NEXT_MASK {
                packet.voq_seq = u64::from(*record & NEXT_MASK);
                *record += 1;
            } else {
                let voq = self.wide_voq(idx);
                packet.voq_seq = voq.next_seq;
                voq.next_seq += 1;
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
        let (prev, flags) = if record & WIDE == 0 && seq < u64::from(HIGH_MASK) {
            let prev = u64::from((record >> HIGH_SHIFT) & HIGH_MASK);
            if seq + 1 >= prev {
                // `seq + 1 ≤ HIGH_MASK`, so the count stays in its field.
                self.voqs[idx] =
                    (record & !(HIGH_MASK << HIGH_SHIFT)) | ((seq as u32 + 1) << HIGH_SHIFT);
            }
            (prev, record)
        } else {
            let voq = self.wide_voq(idx);
            let prev = voq.high;
            if seq + 1 >= prev {
                voq.high = seq + 1;
            }
            (prev, voq.flags)
        };
        let late = seq + 1 < prev;
        if late {
            self.stats.voq_reorder_events += 1;
            let displacement = prev - 1 - seq;
            self.stats.max_voq_displacement = self.stats.max_voq_displacement.max(displacement);
            if flags & DIRTY == 0 {
                *self.flags(idx) |= DIRTY;
                self.stats.reordered_voqs += 1;
            }
        }

        // Flow order.
        if flags & SPILLED == 0 {
            if packet.flow == 0 {
                self.stats.flow_reorder_events += u64::from(late);
                return;
            }
            *self.flags(idx) |= SPILLED;
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
    /// per flow and no spilling: the model the record's limits are checked
    /// against.
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

    /// Run `script` on a detector whose VOQ (1, 2) starts numbering at
    /// `start` (a narrow count) and on the model, comparing every stamped
    /// number and the stats after every step; returns the detector.
    fn run_against_the_model(start: u32, script: &[Step]) -> ReorderDetector {
        assert!(start <= NEXT_MASK);
        let mut d = ReorderDetector::new(4);
        let idx = d.index(1, 2);
        d.voqs[idx] = start;
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
        // The other VOQs kept their narrow records.
        assert!(d.wide.len() <= 1);
        assert!(d
            .voqs
            .iter()
            .enumerate()
            .all(|(k, &record)| k == idx || record & WIDE == 0));
        d
    }

    /// The side-table entry of VOQ (1, 2), which must have moved.
    fn wide_entry(d: &ReorderDetector) -> WideVoq {
        let record = d.voqs[d.index(1, 2)];
        assert_eq!(record & WIDE, WIDE, "VOQ (1, 2) is still narrow");
        d.wide[(record & !WIDE) as usize]
    }

    #[test]
    fn numbering_and_checking_stay_exact_across_the_record_limit() {
        use Step::*;
        // `2¹⁴ − 2`: the last number the record hands out, so the VOQ moves
        // at its second stamp.
        let start = NEXT_MASK - 1;
        // In order across the limit, then a late packet, then a second flow
        // id after the VOQ has moved to the side table, then a late flow-0
        // packet behind it.
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
        let end = u64::from(start) + 8;
        assert_eq!(
            wide_entry(&d),
            WideVoq {
                next_seq: end,
                high: end,
                flags: DIRTY | SPILLED,
            }
        );
        let s = d.stats();
        assert_eq!((s.voq_reorder_events, s.flow_reorder_events), (2, 1));
        assert_eq!((s.max_voq_displacement, s.reordered_voqs), (1, 1));
    }

    #[test]
    fn the_move_carries_the_mark_of_deliveries_made_before_it() {
        use Step::*;
        // Two numbers left in the record: the second is delivered before
        // the third stamp moves the VOQ, the first only after it, behind
        // the carried mark.
        let d = run_against_the_model(
            NEXT_MASK - 2,
            &[
                Stamp(0),
                Stamp(0),
                Deliver(1),
                Stamp(0),
                Deliver(0),
                Deliver(2),
            ],
        );
        assert_eq!(wide_entry(&d).flags, DIRTY);
        let s = d.stats();
        assert_eq!((s.voq_reorder_events, s.max_voq_displacement), (1, 1));
    }

    #[test]
    fn a_delivered_number_past_the_limit_moves_a_fresh_voq_to_the_map() {
        use Step::*;
        // `2¹⁵ − 1`: the first delivered number the record cannot hold.
        let limit = u64::from(HIGH_MASK);
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
        let entry = wide_entry(&d);
        assert_eq!((entry.next_seq, entry.high), (2, (1 << 40) + 1));
        assert_eq!(d.stats().max_voq_displacement, (1 << 40) - limit - 1);
    }

    #[test]
    fn violations_and_spilling_keep_a_voq_narrow() {
        let mut d = ReorderDetector::new(4);
        for (flow, seq) in [(0, 9), (0, 2), (7, 5), (0, 1), (7, 3)] {
            d.observe(&pkt(2, 3, flow, seq));
        }
        let mut packets = [Packet::new(2, 3, 0, 0)];
        d.stamp(&mut packets);
        assert_eq!(
            d.voqs[d.index(2, 3)],
            DIRTY | SPILLED | (10 << HIGH_SHIFT) | 1
        );
        assert!(d.wide.is_empty());
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
