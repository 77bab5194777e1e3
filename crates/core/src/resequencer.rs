//! Output-side resequencing buffers (used by FOFF).
//!
//! FOFF lets packets of incomplete frames race ahead of each other through
//! the switch, bounding — but not preventing — reordering.  Each output port
//! therefore keeps a resequencing buffer: packets are held until every
//! earlier packet of the same VOQ has departed, and the output releases at
//! most one packet per time slot (its line rate).
//!
//! One [`Resequencer`] serves every output of a switch and moves handles,
//! never bodies.  When the switch accepts a packet it is linked behind the
//! previous arrival of its VOQ, so the packets of a VOQ that are inside the
//! switch form a chain in arrival order whatever their `voq_seq` values are.
//! The head of a chain is the one packet of that VOQ its output may release.
//! A packet that reaches its output while it is the head — in order — goes
//! straight onto the output's ready queue and takes with it every successor
//! already waiting; one that overtook the head is only marked as waiting,
//! by keeping its tag in its link entry.
//! Nothing is sorted, searched or logged: every step is O(1) per packet,
//! and memory is two words per VOQ plus two per packet slot of the store.

use crate::fifo::FifoGrid;
use crate::store::{PacketHandle, PAGE_SLOTS};

/// The resequencing buffers of an `n`-port switch's outputs.
///
/// Chain links name a packet by its handle slot plus one, 0 meaning none.
pub(crate) struct Resequencer {
    n: usize,
    /// Per VOQ, at `output·n + input`: `[head, tail]` of its chain.  The
    /// tail — the latest arrival — is meaningful while there is a head.
    chains: Vec<[u32; 2]>,
    /// Per handle slot: the next arrival of the same VOQ, and `tag + 1` once
    /// the packet waits at its output out of order (0 while it does not).
    links: Vec<[u32; 2]>,
    /// Per output: packets free to depart, in the order they became so.
    ready: FifoGrid,
}

impl Resequencer {
    /// Empty buffers for the outputs of an `n`-port switch.
    pub(crate) fn new(n: usize) -> Self {
        Resequencer {
            n,
            chains: vec![[0; 2]; n * n],
            links: Vec::new(),
            ready: FifoGrid::new(n),
        }
    }

    /// Record that the switch accepted the packet stored under `handle` into
    /// VOQ `(input, output)`.  Must be called in arrival order.
    // lint: hot-path
    #[inline]
    pub(crate) fn note_arrival(&mut self, input: usize, output: usize, handle: PacketHandle) {
        let slot = handle.raw() as usize;
        if slot >= self.links.len() {
            // The store hands out slots densely, a page at a time.
            self.links
                .resize((slot / PAGE_SLOTS + 1) * PAGE_SLOTS, [0; 2]);
        }
        self.links[slot] = [0; 2];
        let [head, tail] = &mut self.chains[output * self.n + input];
        let me = handle.raw() + 1;
        if *head == 0 {
            *head = me;
        } else {
            self.links[*tail as usize - 1][0] = me;
        }
        *tail = me;
    }

    /// Accept a (possibly out-of-order) packet of VOQ `(input, output)` from
    /// the second fabric; `tag` (any value but `u32::MAX`) is handed back
    /// with it on release.
    /// Returns whether that made a packet of `output` ready to depart.
    // lint: hot-path
    #[inline]
    pub(crate) fn receive(
        &mut self,
        output: usize,
        input: usize,
        handle: PacketHandle,
        tag: u32,
    ) -> bool {
        debug_assert_ne!(tag, u32::MAX);
        let head = &mut self.chains[output * self.n + input][0];
        let link = &mut self.links[handle.raw() as usize];
        if *head != handle.raw() + 1 {
            link[1] = tag + 1;
            return false;
        }
        self.ready.push(output, handle, tag);
        // Whatever was waiting for this packet follows it out.
        let mut next = link[0];
        while next != 0 {
            let [after, state] = self.links[next as usize - 1];
            if state == 0 {
                break;
            }
            let follower = PacketHandle::from_raw(next - 1);
            self.ready.push(output, follower, state - 1);
            next = after;
        }
        *head = next;
        true
    }

    /// Release at most one packet of `output` (the line transmits one packet
    /// per slot), with the tag it was received under.
    // lint: hot-path
    #[inline]
    pub(crate) fn release_one(&mut self, output: usize) -> Option<(PacketHandle, u32)> {
        self.ready.pop(output)
    }

    /// True if `output` has a packet free to depart.
    #[inline]
    pub(crate) fn has_ready(&self, output: usize) -> bool {
        !self.ready.is_empty(output)
    }

    /// Packets `output` holds, waiting or ready, by walking its chains (the
    /// kernel's consistency check).
    pub(crate) fn buffered_packets(&self, output: usize) -> usize {
        let mut held = self.ready.len(output);
        for chain in &self.chains[output * self.n..][..self.n] {
            let mut next = chain[0];
            while next != 0 {
                let [after, state] = self.links[next as usize - 1];
                held += usize::from(state != 0);
                next = after;
            }
        }
        held
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A resequencer for one output whose packets are identified by their
    /// `voq_seq`: the handle *is* the sequence number.
    struct OneOutput(Resequencer);

    impl OneOutput {
        fn new(n: usize) -> Self {
            OneOutput(Resequencer::new(n))
        }

        fn note_arrival(&mut self, input: usize, seq: u64) {
            self.0
                .note_arrival(input, 0, PacketHandle::from_raw(seq as u32));
        }

        fn receive(&mut self, input: usize, seq: u64) {
            let handle = PacketHandle::from_raw(seq as u32);
            self.0.receive(0, input, handle, input as u32);
        }

        /// `(input, voq_seq)` of the released packet.
        fn release_one(&mut self) -> Option<(usize, u64)> {
            let (handle, input) = self.0.release_one(0)?;
            Some((input as usize, u64::from(handle.raw())))
        }
    }

    #[test]
    fn in_order_packets_flow_straight_through() {
        let mut r = OneOutput::new(4);
        for seq in 0..5 {
            r.note_arrival(0, seq);
        }
        for seq in 0..5 {
            r.receive(0, seq);
            assert_eq!(r.release_one(), Some((0, seq)));
        }
        assert_eq!(r.0.buffered_packets(0), 0);
    }

    #[test]
    fn out_of_order_packets_are_held_back() {
        let mut r = OneOutput::new(8);
        for seq in 0..3 {
            r.note_arrival(4, seq);
        }
        r.receive(4, 1);
        r.receive(4, 2);
        assert!(r.release_one().is_none(), "seq 0 has not arrived yet");
        assert!(!r.0.has_ready(0));
        assert_eq!(r.0.buffered_packets(0), 2);
        r.receive(4, 0);
        assert_eq!(r.release_one(), Some((4, 0)));
        assert_eq!(r.release_one(), Some((4, 1)));
        assert_eq!(r.release_one(), Some((4, 2)));
        assert!(r.release_one().is_none());
    }

    #[test]
    fn one_release_per_call_models_the_line_rate() {
        let mut r = OneOutput::new(2);
        for seq in 0..4 {
            r.note_arrival(1, seq);
        }
        for seq in [3u64, 2, 1, 0] {
            r.receive(1, seq);
        }
        // Everything became ready at once, but departures happen one per slot.
        let released: Vec<u64> = std::iter::from_fn(|| r.release_one())
            .map(|(_, seq)| seq)
            .collect();
        assert_eq!(released, vec![0, 1, 2, 3]);
    }

    #[test]
    fn inputs_are_independent() {
        let mut r = OneOutput::new(2);
        r.note_arrival(0, 7);
        r.note_arrival(1, 8);
        r.receive(1, 8);
        assert_eq!(r.release_one(), Some((1, 8)));
    }

    #[test]
    fn non_contiguous_sequence_numbers_are_handled() {
        // FOFF only needs relative order; the harness's voq_seq values are
        // contiguous, but the resequencer must not assume that.
        let mut r = OneOutput::new(2);
        r.note_arrival(0, 10);
        r.note_arrival(0, 20);
        r.receive(0, 20);
        assert!(r.release_one().is_none());
        r.receive(0, 10);
        assert_eq!(r.release_one(), Some((0, 10)));
        assert_eq!(r.release_one(), Some((0, 20)));
    }

    #[test]
    fn steady_state_cycle_retains_capacity() {
        // Fill/drain the same input repeatedly, reusing the same handles as
        // a store would: the link table is sized by the slots in use, not
        // by the packets that have passed through.
        let mut r = OneOutput::new(2);
        for _ in 0..100 {
            for k in 0..8 {
                r.note_arrival(0, k);
            }
            for k in (0..8).rev() {
                r.receive(0, k);
            }
            let released: Vec<u64> = std::iter::from_fn(|| r.release_one())
                .map(|(_, seq)| seq)
                .collect();
            assert_eq!(released, (0..8).collect::<Vec<_>>());
            assert_eq!(r.0.buffered_packets(0), 0);
            assert_eq!(r.0.links.len(), PAGE_SLOTS);
        }
    }

    /// The resequencer this one replaced, kept verbatim (hot-path markers
    /// aside) as an independent oracle: one per output, it buffers packet
    /// bodies, logs every accepted `voq_seq` per input and releases a packet
    /// when its sequence number is at the front of that log.
    mod oracle {
        use crate::packet::Packet;
        use std::collections::VecDeque;

        pub(super) struct Resequencer {
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
            pub(super) fn new(n: usize) -> Self {
                Resequencer {
                    pending: (0..n).map(|_| Vec::with_capacity(2 * n)).collect(),
                    expected: (0..n).map(|_| VecDeque::with_capacity(2 * n)).collect(),
                    // A single promote can release a whole blocked backlog at once,
                    // so the ready line-rate queue gets the same headroom.
                    ready: VecDeque::with_capacity(4 * n),
                    buffered: 0,
                }
            }

            pub(super) fn note_arrival(&mut self, input: usize, voq_seq: u64) {
                self.expected[input].push_back(voq_seq);
            }

            pub(super) fn receive(&mut self, packet: Packet) {
                let input = packet.input();
                let pending = &mut self.pending[input];
                let pos = pending.partition_point(|p| p.voq_seq > packet.voq_seq);
                pending.insert(pos, packet);
                self.buffered += 1;
                self.promote(input);
            }

            pub(super) fn release_one(&mut self) -> Option<Packet> {
                self.ready.pop_front()
            }

            pub(super) fn buffered_packets(&self) -> usize {
                self.buffered + self.ready.len()
            }

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
    }

    const INPUTS: usize = 3;

    proptest! {
        /// Old and new agree on every release and on the packets held after
        /// every step: several inputs feed two outputs, sequence numbers
        /// skip, each packet reaches its output a bounded number of slots
        /// late (so packets of a VOQ overtake each other), arrivals keep
        /// coming while earlier packets are received, and each output
        /// releases one packet per slot.
        #[test]
        fn releases_match_the_oracle(
            packets in proptest::collection::vec(
                (0..INPUTS, 0usize..2, 1u64..4, 0usize..7),
                1..250,
            )
        ) {
            let mut new = Resequencer::new(INPUTS);
            let mut old = [oracle::Resequencer::new(INPUTS), oracle::Resequencer::new(INPUTS)];
            let mut seqs = [0u64; 2 * INPUTS];
            let mut bodies = Vec::new();
            let last = packets.len() + 7;
            for slot in 0..last + packets.len() {
                if let Some(&(input, output, gap, _)) = packets.get(slot) {
                    let seq = &mut seqs[output * INPUTS + input];
                    *seq += gap;
                    let handle = PacketHandle::from_raw(slot as u32);
                    new.note_arrival(input, output, handle);
                    old[output].note_arrival(input, *seq);
                    let body = crate::packet::Packet::new(input, output, slot as u64, 0);
                    bodies.push(body.with_voq_seq(*seq));
                }
                for (k, &(input, output, _, late)) in packets.iter().enumerate() {
                    if k + late == slot {
                        let handle = PacketHandle::from_raw(k as u32);
                        let was_ready = new.has_ready(output);
                        let ready = new.receive(output, input, handle, k as u32 ^ 0x5a5a);
                        prop_assert_eq!(was_ready || ready, new.has_ready(output));
                        old[output].receive(bodies[k].clone());
                    }
                }
                for (output, old) in old.iter_mut().enumerate() {
                    prop_assert_eq!(new.buffered_packets(output), old.buffered_packets());
                    let released = new.release_one(output);
                    prop_assert_eq!(
                        released.map(|(handle, _)| u64::from(handle.raw())),
                        old.release_one().map(|p| p.id)
                    );
                    if let Some((handle, tag)) = released {
                        prop_assert_eq!(tag, handle.raw() ^ 0x5a5a);
                    }
                    prop_assert_eq!(new.buffered_packets(output), old.buffered_packets());
                }
            }
            for output in 0..2 {
                prop_assert_eq!(new.buffered_packets(output), 0, "everything drains");
            }
        }
    }
}
