//! Output-side resequencing buffers (used by FOFF).
//!
//! FOFF lets packets of incomplete frames race ahead of each other through
//! the switch, bounding — but not preventing — reordering.  Each output port
//! therefore keeps a resequencing buffer: packets are held until every
//! earlier packet of the same VOQ has departed, and the output releases at
//! most one packet per time slot (its line rate).
//!
//! The buffer is deliberately allocation-free in steady state: per-input
//! state lives in flat `Vec`s sized at construction (an output's resequencer
//! only ever sees packets from the switch's `N` inputs), the out-of-order
//! packets of each input sit in a small sorted vector rather than a
//! node-allocating `BTreeMap`, and every container keeps its capacity across
//! the fill/drain cycle.  FOFF's per-packet `receive` therefore stops heap
//! allocating once the buffers have warmed up, which is what lets the
//! batched `step_batch` path run allocation-free end to end.

use sprinklers_core::packet::Packet;
use std::collections::VecDeque;

/// A per-output resequencer of an `n`-input switch.
///
/// Packets of each VOQ must carry strictly increasing `voq_seq` values in
/// arrival order (the simulation harness guarantees this); the resequencer
/// releases them in exactly that order.
pub(crate) struct Resequencer {
    /// Buffered out-of-order packets per input, sorted by **descending**
    /// `voq_seq` so the next candidate (the smallest) pops from the tail.
    pending: Vec<Vec<Packet>>,
    /// Next expected sequence numbers per input, in release order (populated
    /// from the arrival log the switch feeds us).
    expected: Vec<VecDeque<u64>>,
    /// Packets ready to depart, in the order they became ready.
    ready: VecDeque<Packet>,
    buffered: usize,
}

impl Resequencer {
    /// Create an empty resequencer for an `n`-input switch.
    ///
    /// The per-input out-of-order buffers are pre-sized to `2n`: FOFF's
    /// uncommitted packets race across at most the `n` intermediate paths,
    /// so per-input displacement beyond that is rare and the usual fill /
    /// drain cycle never reallocates.
    pub(crate) fn new(n: usize) -> Self {
        Resequencer {
            pending: (0..n).map(|_| Vec::with_capacity(2 * n)).collect(),
            expected: (0..n).map(|_| VecDeque::with_capacity(2 * n)).collect(),
            // A single promote can release a whole blocked backlog at once,
            // so the ready line-rate queue gets the same headroom.
            ready: VecDeque::with_capacity(4 * n),
            buffered: 0,
        }
    }

    /// Record that a packet with this `(input, voq_seq)` was accepted by the
    /// switch, so the resequencer knows the order in which to release packets
    /// of that VOQ.  Must be called in arrival order.
    // lint: hot-path
    #[inline]
    pub(crate) fn note_arrival(&mut self, input: usize, voq_seq: u64) {
        self.expected[input].push_back(voq_seq);
    }

    /// Accept a (possibly out-of-order) packet from the second fabric.
    // lint: hot-path
    #[inline]
    pub(crate) fn receive(&mut self, packet: Packet) {
        let input = packet.input();
        let pending = &mut self.pending[input];
        let pos = pending.partition_point(|p| p.voq_seq > packet.voq_seq);
        pending.insert(pos, packet);
        self.buffered += 1;
        self.promote(input);
    }

    /// Release at most one packet (the output line transmits one packet per
    /// slot).
    // lint: hot-path
    #[inline]
    pub(crate) fn release_one(&mut self) -> Option<Packet> {
        self.ready.pop_front()
    }

    /// Packets currently buffered (pending plus ready).
    pub(crate) fn buffered_packets(&self) -> usize {
        self.buffered + self.ready.len()
    }

    // lint: hot-path
    #[inline]
    fn promote(&mut self, input: usize) {
        let expected = &mut self.expected[input];
        let pending = &mut self.pending[input];
        while let (Some(&next_seq), Some(candidate)) = (expected.front(), pending.last()) {
            if candidate.voq_seq != next_seq {
                break;
            }
            let Some(packet) = pending.pop() else { break };
            expected.pop_front();
            self.buffered -= 1;
            self.ready.push_back(packet);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(input: usize, seq: u64) -> Packet {
        Packet::new(input, 0, seq, 0).with_voq_seq(seq)
    }

    #[test]
    fn in_order_packets_flow_straight_through() {
        let mut r = Resequencer::new(4);
        for seq in 0..5 {
            r.note_arrival(0, seq);
        }
        for seq in 0..5 {
            r.receive(pkt(0, seq));
            assert_eq!(r.release_one().unwrap().voq_seq, seq);
        }
        assert_eq!(r.buffered_packets(), 0);
    }

    #[test]
    fn out_of_order_packets_are_held_back() {
        let mut r = Resequencer::new(8);
        for seq in 0..3 {
            r.note_arrival(4, seq);
        }
        r.receive(pkt(4, 1));
        r.receive(pkt(4, 2));
        assert!(r.release_one().is_none(), "seq 0 has not arrived yet");
        assert_eq!(r.buffered_packets(), 2);
        r.receive(pkt(4, 0));
        assert_eq!(r.release_one().unwrap().voq_seq, 0);
        assert_eq!(r.release_one().unwrap().voq_seq, 1);
        assert_eq!(r.release_one().unwrap().voq_seq, 2);
        assert!(r.release_one().is_none());
    }

    #[test]
    fn one_release_per_call_models_the_line_rate() {
        let mut r = Resequencer::new(2);
        for seq in 0..4 {
            r.note_arrival(1, seq);
        }
        for seq in [3u64, 2, 1, 0] {
            r.receive(pkt(1, seq));
        }
        // Everything became ready at once, but departures happen one per slot.
        let mut released = Vec::new();
        while let Some(p) = r.release_one() {
            released.push(p.voq_seq);
        }
        assert_eq!(released, vec![0, 1, 2, 3]);
    }

    #[test]
    fn inputs_are_independent() {
        let mut r = Resequencer::new(2);
        r.note_arrival(0, 0);
        r.note_arrival(1, 0);
        r.receive(pkt(1, 0));
        assert_eq!(r.release_one().unwrap().input(), 1);
    }

    #[test]
    fn non_contiguous_sequence_numbers_are_handled() {
        // FOFF only needs relative order; the harness's voq_seq values are
        // contiguous, but the resequencer must not assume that.
        let mut r = Resequencer::new(1);
        r.note_arrival(0, 10);
        r.note_arrival(0, 20);
        r.receive(pkt(0, 20));
        assert!(r.release_one().is_none());
        r.receive(pkt(0, 10));
        assert_eq!(r.release_one().unwrap().voq_seq, 10);
        assert_eq!(r.release_one().unwrap().voq_seq, 20);
    }

    #[test]
    fn steady_state_cycle_retains_capacity() {
        // Fill/drain the same input repeatedly: the internal vectors must
        // reuse their capacity rather than reallocating each cycle.
        let mut r = Resequencer::new(2);
        let mut seq = 0u64;
        for _ in 0..100 {
            for k in 0..8 {
                r.note_arrival(0, seq + k);
            }
            for k in (0..8).rev() {
                r.receive(pkt(0, seq + k));
            }
            seq += 8;
            let mut got = 0;
            while r.release_one().is_some() {
                got += 1;
            }
            assert_eq!(got, 8);
            assert_eq!(r.buffered_packets(), 0);
        }
    }
}
