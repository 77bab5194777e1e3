//! Differential test of the flat-table `ReorderDetector` against the
//! detector it replaced.
//!
//! The oracle below is the previous implementation, kept verbatim: two
//! `BTreeMap`s of high-water marks, one keyed by VOQ and one by
//! `(input, output, flow)`, each updated independently on every packet.  The
//! production detector keeps the VOQ marks in a flat table and derives the
//! flow marks from them until a VOQ carries a second flow id; the two must
//! report identical `ReorderStats` after *every* packet of any delivered
//! stream, not just at the end.

use proptest::prelude::*;
use sprinklers_core::packet::Packet;
use sprinklers_sim::metrics::reorder::{ReorderDetector, ReorderStats};
use std::collections::{BTreeMap, BTreeSet};

#[derive(Default)]
struct OracleDetector {
    voq_high: BTreeMap<(usize, usize), u64>,
    flow_high: BTreeMap<(usize, usize, u64), u64>,
    dirty_voqs: BTreeSet<(usize, usize)>,
    stats: ReorderStats,
}

impl OracleDetector {
    fn observe(&mut self, packet: &Packet) {
        if packet.is_padding() {
            return;
        }
        let voq = packet.voq();
        match self.voq_high.get_mut(&voq) {
            None => {
                self.voq_high.insert(voq, packet.voq_seq);
            }
            Some(high) => {
                if packet.voq_seq < *high {
                    self.stats.voq_reorder_events += 1;
                    let displacement = *high - packet.voq_seq;
                    self.stats.max_voq_displacement =
                        self.stats.max_voq_displacement.max(displacement);
                    if self.dirty_voqs.insert(voq) {
                        self.stats.reordered_voqs += 1;
                    }
                } else {
                    *high = packet.voq_seq;
                }
            }
        }
        let flow_key = (packet.input(), packet.output(), packet.flow);
        match self.flow_high.get_mut(&flow_key) {
            None => {
                self.flow_high.insert(flow_key, packet.voq_seq);
            }
            Some(high) => {
                if packet.voq_seq < *high {
                    self.stats.flow_reorder_events += 1;
                } else {
                    *high = packet.voq_seq;
                }
            }
        }
    }
}

const N: usize = 3;

/// Flow ids at both ends of the range (`u64::MAX` itself is the padding
/// marker's flow id and never reaches the detector on a data packet).
const FLOWS: [u64; 4] = [0, u64::MAX - 1, 1, 7];

/// How many of [`FLOWS`] a VOQ draws from: a third of the VOQs stay
/// single-flow for good, the rest spill sooner or later.
fn flows_of(input: usize, output: usize) -> usize {
    [1, 2, 4][(input + output) % 3]
}

fn data(input: usize, output: usize, flow: u64, seq: u64) -> Packet {
    Packet::new(input, output, 0, 0)
        .with_flow(flow)
        .with_voq_seq(seq)
}

/// Feed `stream` to both detectors, comparing after every packet.
fn check(stream: &[Packet]) -> Result<ReorderStats, TestCaseError> {
    let mut oracle = OracleDetector::default();
    let mut detector = ReorderDetector::new(N);
    for (at, packet) in stream.iter().enumerate() {
        oracle.observe(packet);
        detector.observe(packet);
        prop_assert_eq!(
            detector.stats(),
            oracle.stats,
            "after packet {} of {}: {:?}",
            at,
            stream.len(),
            packet
        );
    }
    Ok(oracle.stats)
}

#[test]
fn a_second_flow_first_seen_right_after_a_violation() {
    let (a, b) = (0, u64::MAX - 1);
    let stream = [
        data(0, 1, a, 5),
        data(0, 1, a, 2), // violation: the VOQ mark stays at 5
        data(0, 1, b, 3), // second flow: `a` must be seeded with 5, not 2 or 3
        data(0, 1, a, 4), // late in the VOQ and in flow `a`
        data(0, 1, b, 1), // late in the VOQ and in flow `b`
        data(0, 1, b, 9),
        data(0, 1, a, 9), // equal to the VOQ mark: in order for both
    ];
    let stats = check(&stream).unwrap();
    assert_eq!(stats.voq_reorder_events, 4);
    assert_eq!(stats.flow_reorder_events, 3);
    assert_eq!(stats.max_voq_displacement, 4);
    assert_eq!(stats.reordered_voqs, 1);
}

proptest! {
    /// Sequence numbers drawn at random from a small range: most packets are
    /// late, many repeat a number, and violations land on first deliveries'
    /// heels.
    #[test]
    fn heavy_reordering_matches_the_oracle(
        raw in collection::vec((0usize..N, 0usize..N, 0usize..48, 0u64..16), 0..400),
    ) {
        let stream: Vec<Packet> = raw
            .into_iter()
            .map(|(input, output, pick, seq)| {
                // One packet in twelve is padding.
                if pick / 4 == 0 {
                    Packet::padding(input, output, 0)
                } else {
                    data(input, output, FLOWS[pick % flows_of(input, output)], seq)
                }
            })
            .collect();
        check(&stream)?;
    }

    /// Nearly in-order delivery, the way a real switch misbehaves: each VOQ
    /// counts up, and now and then a packet is delivered a few places late.
    #[test]
    fn occasional_late_packets_match_the_oracle(
        raw in collection::vec((0usize..N, 0usize..N, 0usize..24, 0u64..4), 0..600),
    ) {
        let mut next_seq = [0u64; N * N];
        let stream: Vec<Packet> = raw
            .into_iter()
            .map(|(input, output, pick, back)| {
                let next = &mut next_seq[input * N + output];
                *next += 1;
                // One packet in six falls `back` places behind.
                let seq = if pick / 4 == 0 { next.saturating_sub(back) } else { *next };
                data(input, output, FLOWS[pick % flows_of(input, output)], seq)
            })
            .collect();
        let stats = check(&stream)?;
        // A flow is a subsequence of its VOQ, so a packet late in its flow
        // is late in its VOQ too.
        prop_assert!(stats.flow_reorder_events <= stats.voq_reorder_events);
    }
}

/// Where a VOQ's numbers start: a dozen below 2¹⁴ (the most a record
/// stamps), 2¹⁵ (the highest delivered number a record holds) or 2³¹ (the
/// limit of the 8-byte record the 4-byte one replaced).
fn start_of(input: usize, output: usize) -> u64 {
    [(1 << 14) - 12, (1 << 15) - 12, (1 << 31) - 12][(input + 2 * output) % 3]
}

#[test]
fn stamping_past_the_record_limit_counts_on_exactly() {
    // One busy VOQ of a 2-port detector takes 40 000 numbers, its
    // neighbours a few each, in slots of up to four packets.
    const PACKETS: usize = 40_000;
    let mut detector = ReorderDetector::new(2);
    let mut counters = [0u64; 4];
    let mut stamped = Vec::with_capacity(PACKETS);
    let mut slot = Vec::new();
    for k in 0..PACKETS {
        let (input, output) = if k % 7 == 3 {
            (k % 2, (k / 2) % 2)
        } else {
            (1, 0)
        };
        slot.push(Packet::new(input, output, 0, 0).with_voq_seq(u64::MAX - 1));
        if slot.len() == 1 + k % 4 || k + 1 == PACKETS {
            detector.stamp(&mut slot);
            for packet in slot.drain(..) {
                let counter = &mut counters[packet.input() * 2 + packet.output()];
                assert_eq!(packet.voq_seq, *counter, "packet {k}");
                *counter += 1;
                stamped.push(packet);
            }
        }
    }
    assert!(counters[2] > 1 << 15);
    // Delivered in stamp order, every VOQ is in order; one packet of the
    // busy VOQ from before the limit, delivered again last, is late.
    for packet in &stamped {
        detector.observe(packet);
    }
    assert!(detector.stats().is_ordered());
    let early = stamped
        .iter()
        .rfind(|p| p.voq() == (1, 0) && p.voq_seq == 9_000);
    detector.observe(early.unwrap());
    let stats = detector.stats();
    assert_eq!((stats.voq_reorder_events, stats.reordered_voqs), (1, 1));
    assert_eq!(stats.max_voq_displacement, counters[2] - 1 - 9_000);
}

proptest! {
    /// Each VOQ counts up across one of the record's limits: now and then a
    /// packet is delivered a few places late or repeats the last number, one
    /// packet in twelve is padding, and most VOQs carry a second flow.
    #[test]
    fn numbers_across_the_record_limits_match_the_oracle(
        raw in collection::vec((0usize..N, 0usize..N, 0usize..48, 0u64..4), 0..600),
    ) {
        let mut next_seq = [0u64; N * N];
        let stream: Vec<Packet> = raw
            .into_iter()
            .map(|(input, output, pick, back)| {
                if pick / 4 == 0 {
                    return Packet::padding(input, output, 0);
                }
                let next = &mut next_seq[input * N + output];
                // One packet in twelve repeats the last number.
                if pick / 4 != 1 {
                    *next += 1;
                }
                // One packet in twelve falls `back` places behind.
                let offset = if pick / 4 == 2 { next.saturating_sub(back) } else { *next };
                let flow = FLOWS[pick % flows_of(input, output)];
                data(input, output, flow, start_of(input, output) + offset)
            })
            .collect();
        let stats = check(&stream)?;
        prop_assert!(stats.flow_reorder_events <= stats.voq_reorder_events);
    }
}
