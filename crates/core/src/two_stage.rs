//! The two-stage load-balanced switch of Fig. 1, written once for every
//! load-balanced scheme of the paper's comparison.
//!
//! Sprinklers, baseline LB, UFS, FOFF, Padded Frames and TCP hashing are one
//! machine: inputs, a periodic first fabric, FIFOs at every intermediate
//! port, a periodic second fabric and — for FOFF — resequencing buffers at
//! the outputs.  [`TwoStage`] owns all of it: the [`PacketStore`] (a body
//! is written once and read at departure, every queue in between holds its
//! handle; the policy decides when the body is written — the baselines at
//! arrival, Sprinklers when the packet leaves its input), the
//! [`IntermediateStage`], the occupancy bitsets,
//! every [`SwitchStats`] counter, the per-slot passes and the one
//! `impl Switch`.  A scheme is an [`InputPolicy`]: what an input does with
//! an arrival, which packet it hands the first fabric when connected to an
//! intermediate port, and how many stripe-size levels the intermediate
//! FIFOs keep.
//!
//! Every walk visits ports in ascending order — the ports a dense `0..n`
//! loop would have found work at.  Being generic, the passes are compiled in
//! the crate that turns a `TwoStage<P>` into a `dyn Switch`; the per-packet
//! functions they call are `#[inline]` to follow.

use crate::fabric::{first_fabric_at, second_fabric_output_at};
use crate::intermediate_port::IntermediateStage;
use crate::occupancy::{OccupancySet, PortCursor};
use crate::packet::{assert_ports_fit, DeliveredPacket, Packet};
use crate::resequencer::Resequencer;
use crate::store::{PacketHandle, PacketStore};
use crate::stripe::stamp_routing;
use crate::switch::{step_batch_rotating, DeliverySink, Switch, SwitchStats};

/// A queue entry's tag: a port in the high 16 bits and the size of the stripe
/// the packet travels in in the low 16 — the packet's input while it waits
/// at an intermediate port, the intermediate port it crossed once it has.
#[inline]
pub(crate) fn tag(port: usize, stripe_size: usize) -> u32 {
    debug_assert!(port < 1 << 16 && stripe_size < 1 << 16);
    // lint: allow(cast) — port < n and stripe_size <= n, and n <= MAX_PORTS < 2^16
    (port << 16 | stripe_size) as u32
}

/// The `(port, stripe size)` of a [`tag`].
#[inline]
pub(crate) fn untag(tag: u32) -> (usize, usize) {
    ((tag >> 16) as usize, (tag & 0xffff) as usize)
}

/// What an input did with its first-fabric connection in one slot.
pub struct Served {
    /// The packet it sends to the connected intermediate port, if any: its
    /// handle and its output port.
    pub sent: Option<(PacketHandle, u32)>,
    /// The size of the stripe that packet travels in: `2^k` for a Sprinklers
    /// stripe, `N` for a frame (packet `k` crossing intermediate port `k`), 1
    /// for a packet travelling alone.
    pub stripe_size: usize,
    /// Fake packets it minted this slot (PF padding a frame); they join the
    /// input-stage backlog until sent.
    pub minted: usize,
    /// Whether some later slot could still move a packet out of this input
    /// with no further arrival.
    pub servable: bool,
}

/// The input stage of one load-balanced scheme.
///
/// "Servable" is the input-occupancy criterion: an input is visited in a
/// slot only while it reports that some slot could move a packet out of it.
/// Packets it strands until the next arrival (a partial UFS frame, a PF VOQ
/// below the threshold, a Sprinklers stripe still filling) do not count,
/// which is what lets an idle stretch be skipped while they wait.
pub trait InputPolicy {
    /// The scheme's registry name.
    const NAME: &'static str;
    /// Whether outputs restore per-VOQ order before releasing (FOFF).
    const RESEQUENCES: bool = false;

    /// FIFOs per (intermediate, output) pair: a packet of a size-`2^k`
    /// stripe waits in FIFO `k` (the last one if there are fewer), and the
    /// second fabric serves the highest non-empty FIFO first.
    fn levels(&self) -> usize {
        1
    }

    /// Whether [`Self::maintain`] has to run every slot; such a switch is
    /// never elided.
    fn maintains(&self) -> bool {
        false
    }

    /// Queue `packet` at its input; returns whether the input is now
    /// servable.  `store` writes the packet's body and returns its handle
    /// (noting its arrival with FOFF's resequencer too).  A policy calls it
    /// at once, or — to hold the packet by value while it waits — not at
    /// all, and writes the body itself when [`Self::serve`] sends it.
    fn arrive(&mut self, packet: &Packet, store: impl FnOnce() -> PacketHandle) -> bool;

    /// Load what [`Self::arrive`] will read first for `packet` and return
    /// bits of it; called for a whole slot's arrivals before any of them
    /// arrives, so their cache misses overlap.
    fn warm(&self, _packet: &Packet) -> u64 {
        0
    }

    /// `input` is connected to intermediate port `connected` in `slot`.
    /// `store` is the switch's packet store, for a policy that mints packets
    /// of its own (PF's padding) or sends one it held by value.
    fn serve(
        &mut self,
        input: usize,
        connected: usize,
        slot: u64,
        store: &mut PacketStore,
    ) -> Served;

    /// `packet` has just left the switch; returns whether its input is
    /// servable now (`false` if the policy does not track deliveries).
    fn delivered(&mut self, _packet: &Packet) -> bool {
        false
    }

    /// One slot's upkeep of `input` for a policy that
    /// [`maintains`](Self::maintains); returns whether it is servable after.
    fn maintain(&mut self, _input: usize, _slot: u64) -> bool {
        false
    }
}

/// A policy's half of [`TwoStage::assert_consistent`].
pub trait CheckInput {
    /// Assert the policy's own bookkeeping for `input` against a brute-force
    /// scan — including that `servable` is the bit it should be — and
    /// return the number of packets the input holds.
    fn check_input(&self, input: usize, servable: bool) -> usize;

    /// How many of the packets `input` holds have no body in the store.
    fn held_by_value(&self, _input: usize) -> usize {
        0
    }
}

/// A two-stage load-balanced switch running input policy `P`.
pub struct TwoStage<P> {
    n: usize,
    policy: P,
    /// Every packet body inside the switch, padding included.
    store: PacketStore,
    intermediates: IntermediateStage,
    /// Sized for `n` outputs when `P::RESEQUENCES`, for none otherwise.
    resequencer: Resequencer,
    /// The slot's departures, `(handle, tag)` with the intermediate port in
    /// the tag, between the pass that collects them and their delivery.
    departing: Vec<(PacketHandle, u32)>,
    /// Servable inputs, and outputs with an in-order packet to release.
    occupied_inputs: OccupancySet,
    occupied_outputs: OccupancySet,
    /// Running totals so `stats()` is O(1) at every sampling boundary.
    queued_inputs: usize,
    queued_intermediates: usize,
    queued_outputs: usize,
    arrivals: u64,
    departures: u64,
    /// Ports the second-fabric walk visited, to hold against `departures`.
    #[cfg(test)]
    pub(crate) second_fabric_visits: u64,
}

impl<P: InputPolicy> TwoStage<P> {
    /// An `n`-port switch around `policy`.
    pub fn with_policy(n: usize, policy: P) -> Self {
        assert!(n >= 2, "a switch needs at least two ports");
        assert_ports_fit(n);
        let intermediates = IntermediateStage::new(n, policy.levels());
        TwoStage {
            n,
            policy,
            store: PacketStore::new(),
            intermediates,
            resequencer: Resequencer::new(if P::RESEQUENCES { n } else { 0 }),
            departing: Vec::with_capacity(n),
            occupied_inputs: OccupancySet::new(n),
            occupied_outputs: OccupancySet::new(n),
            queued_inputs: 0,
            queued_intermediates: 0,
            queued_outputs: 0,
            arrivals: 0,
            departures: 0,
            #[cfg(test)]
            second_fabric_visits: 0,
        }
    }

    /// The input policy, for the scheme-specific accessors.
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// The high-water mark of resident packets, rounded up to whole pages.
    pub fn store_capacity(&self) -> usize {
        self.store.capacity()
    }

    /// Let `update` change the policy's state of every input in turn (a
    /// reconfiguration, the maintenance pass); it returns whether the input
    /// is servable afterwards.
    // lint: hot-path
    #[inline]
    pub(crate) fn update_inputs(&mut self, mut update: impl FnMut(&mut P, usize) -> bool) {
        for i in 0..self.n {
            if update(&mut self.policy, i) {
                self.occupied_inputs.insert(i);
            }
        }
    }

    /// Queue an arriving packet at its input, which stores it when its
    /// policy asks to.
    // lint: hot-path
    #[inline]
    fn admit(&mut self, packet: &Packet) {
        debug_assert!(packet.input() < self.n && packet.output() < self.n);
        self.arrivals += 1;
        self.queued_inputs += 1;
        let (store, resequencer) = (&mut self.store, &mut self.resequencer);
        let stored = || {
            let handle = store.insert(packet);
            if P::RESEQUENCES {
                // The output resequencer needs the arrival order of each VOQ.
                let (input, output) = packet.voq();
                resequencer.note_arrival(input, output, handle);
            }
            handle
        };
        if self.policy.arrive(packet, stored) {
            self.occupied_inputs.insert(packet.input());
        }
    }

    /// Advance one slot whose fabric phase `t == slot mod N` the
    /// phase-rotating `step_batch` has already reduced.  The slot runs back
    /// to front, so a packet crosses at most one fabric per slot.
    // lint: hot-path
    fn step_at(&mut self, slot: u64, t: usize, sink: &mut dyn DeliverySink) {
        self.second_fabric(t);
        if P::RESEQUENCES {
            self.release_outputs();
        }
        self.depart_all(slot, sink);
        self.first_fabric(slot, t);
        if self.policy.maintains() {
            self.update_inputs(|policy, i| policy.maintain(i, slot));
        }
    }

    /// Second fabric: every intermediate port holding a packet for the
    /// output it faces in phase `t` sends one, into that output's resequencer
    /// or straight out.
    // lint: hot-path
    fn second_fabric(&mut self, t: usize) {
        let mut cursor = PortCursor::default();
        while let Some(l) = self.intermediates.ready.next_port(t, &mut cursor) {
            #[cfg(test)]
            {
                self.second_fabric_visits += 1;
            }
            let output = second_fabric_output_at(l, t, self.n);
            let Some((handle, entry)) = self.intermediates.pop(l, output) else {
                debug_assert!(
                    false,
                    "phase row {t} lists {l}, which holds nothing for {output}"
                );
                continue;
            };
            self.queued_intermediates -= 1;
            let (input, stripe_size) = untag(entry);
            let crossed = tag(l, stripe_size);
            if P::RESEQUENCES {
                self.queued_outputs += 1;
                if self.resequencer.receive(output, input, handle, crossed) {
                    self.occupied_outputs.insert(output);
                }
            } else {
                self.departing.push((handle, crossed));
            }
        }
    }

    /// Each output with an in-order packet releases one (its line rate).
    /// Packets still waiting for an earlier one of their VOQ stay behind,
    /// and do not make their output a port to visit.
    // lint: hot-path
    fn release_outputs(&mut self) {
        let mut cursor = PortCursor::default();
        while let Some(output) = self.occupied_outputs.next_port(&mut cursor) {
            let Some(released) = self.resequencer.release_one(output) else {
                continue;
            };
            if !self.resequencer.has_ready(output) {
                self.occupied_outputs.remove(output);
            }
            self.queued_outputs -= 1;
            self.departing.push(released);
        }
    }

    /// Hand the slot's departures to the sink in the order they were
    /// collected: each body's one read.  A body is read long after it was
    /// written, so the reads are issued side by side first, where their cache
    /// misses overlap.  Each packet is stamped, then reported to the policy,
    /// whose clearance accounting may make its input servable.  Padding is
    /// delivered — the metrics count it — but is not a departure.
    // lint: hot-path
    fn depart_all(&mut self, slot: u64, sink: &mut dyn DeliverySink) {
        self.store
            .warm(self.departing.iter().map(|&(handle, _)| handle));
        for (handle, crossed) in self.departing.drain(..) {
            let mut packet = self.store.take(handle);
            let (l, stripe_size) = untag(crossed);
            stamp_routing(&mut packet, l, stripe_size);
            if self.policy.delivered(&packet) {
                self.occupied_inputs.insert(packet.input());
            }
            self.departures += u64::from(!packet.is_padding());
            sink.deliver(DeliveredPacket::new(packet, slot));
        }
    }

    /// First fabric: every servable input sends the intermediate port it is
    /// connected to whatever its policy picks, which queues it at once.  An
    /// occupied input may still send nothing: a frame waiting for port 0, a
    /// stripe waiting for the first port of its interval, a flow pinned
    /// elsewhere.
    // lint: hot-path
    fn first_fabric(&mut self, slot: u64, t: usize) {
        let mut cursor = PortCursor::default();
        while let Some(i) = self.occupied_inputs.next_port(&mut cursor) {
            let connected = first_fabric_at(i, t, self.n);
            let served = self.policy.serve(i, connected, slot, &mut self.store);
            self.queued_inputs += served.minted;
            if !served.servable {
                self.occupied_inputs.remove(i);
            }
            if let Some((handle, output)) = served.sent {
                self.queued_inputs -= 1;
                self.queued_intermediates += 1;
                let entry = tag(i, served.stripe_size);
                self.intermediates
                    .receive(handle, connected, output as usize, entry);
            }
        }
    }
}

impl<P: InputPolicy> Switch for TwoStage<P> {
    fn n(&self) -> usize {
        self.n
    }

    fn name(&self) -> &'static str {
        P::NAME
    }

    // lint: hot-path
    fn arrive(&mut self, packet: Packet) {
        self.admit(&packet);
    }

    // lint: hot-path
    fn arrive_batch(&mut self, packets: &[Packet]) {
        // An arrival can start with dependent loads into tables far larger
        // than the cache (a Sprinklers VOQ record, then its ready queue's
        // tail chunk), so one packet's chain cannot overlap itself but the
        // chains of different packets can: touch them all first, with
        // nothing waiting on the values, then arrive the packets in order.
        let mut bits = 0u64;
        for packet in packets {
            bits ^= self.policy.warm(packet);
        }
        std::hint::black_box(bits);
        for packet in packets {
            self.admit(packet);
        }
    }

    fn step_batch(&mut self, first_slot: u64, count: u32, sink: &mut dyn DeliverySink) {
        step_batch_rotating(self.n, first_slot, count, |slot, t| {
            // A step is a provable no-op when the policy does not observe
            // idle slots, nothing is queued past the inputs (padding counts
            // like data) and no input is servable.  Nothing but an arrival
            // ends that, and a batch carries none, so the rest of it can be
            // elided.
            if !self.policy.maintains()
                && self.occupied_inputs.is_empty()
                && self.queued_intermediates + self.queued_outputs == 0
            {
                return false;
            }
            self.step_at(slot, t, sink);
            true
        });
    }

    fn stats(&self) -> SwitchStats {
        SwitchStats {
            queued_at_inputs: self.queued_inputs,
            queued_at_intermediates: self.queued_intermediates,
            queued_at_outputs: self.queued_outputs,
            total_arrivals: self.arrivals,
            total_departures: self.departures,
            total_dropped: 0,
        }
    }
}

impl<P: InputPolicy + CheckInput> TwoStage<P> {
    /// Check every occupancy bit, phase-index bit and running counter
    /// against a brute-force scan of the queues it summarizes, and the store
    /// against the counters; every scheme's interleaving test calls this.
    /// The counters checked are also what batch elision reads.
    pub fn assert_consistent(&self) {
        let (mut at_inputs, mut by_value) = (0, 0);
        for i in 0..self.n {
            at_inputs += self.policy.check_input(i, self.occupied_inputs.contains(i));
            by_value += self.policy.held_by_value(i);
        }
        assert_eq!(self.queued_inputs, at_inputs, "input-stage counter");
        let at_intermediates = self.intermediates.assert_consistent();
        assert_eq!(
            self.queued_intermediates, at_intermediates,
            "intermediate-stage counter"
        );
        let mut at_outputs = 0;
        for j in 0..self.n {
            let ready = P::RESEQUENCES && self.resequencer.has_ready(j);
            assert_eq!(self.occupied_outputs.contains(j), ready, "output {j} bit");
            if P::RESEQUENCES {
                at_outputs += self.resequencer.buffered_packets(j);
            }
        }
        assert_eq!(self.queued_outputs, at_outputs, "output-stage counter");
        assert_eq!(
            self.store.live(),
            at_inputs - by_value + at_intermediates + at_outputs,
            "every stored body is queued at exactly one stage"
        );
    }
}
