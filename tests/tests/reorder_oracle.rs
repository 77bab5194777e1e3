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
