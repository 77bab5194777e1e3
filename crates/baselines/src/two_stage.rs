//! The two-stage load-balanced switch of Fig. 1, written once.
//!
//! Baseline LB, UFS, FOFF, Padded Frames and TCP hashing are the same
//! machine: inputs, a periodic first fabric, one FIFO per output at every
//! intermediate port, a periodic second fabric and — for FOFF — resequencing
//! buffers at the outputs.  [`TwoStage`] owns all of that: the ports, the
//! occupancy bitsets that let a slot visit only ports holding work, every
//! [`SwitchStats`] counter, the per-slot passes and the one `impl Switch`.
//! A scheme is an [`InputPolicy`]: what an input does with an arrival, and
//! which packet it hands the first fabric when connected to an intermediate
//! port.
//!
//! A slot runs store-and-forward, back to front, so a packet crosses at most
//! one fabric per slot: second fabric (intermediate → output), output
//! release (resequencing schemes only), first fabric (input → intermediate).
//! Every pass walks its occupancy bitset in ascending port order — exactly
//! the ports a dense `0..n` loop would have found work at.  Being generic,
//! the passes are compiled in the crate that turns a `TwoStage<P>` into a
//! `dyn Switch`; the per-packet functions they call are `#[inline]` to follow.

use crate::fabric::{first_fabric_at, second_fabric_output_at};
use crate::intermediate::SimpleIntermediate;
use crate::resequencer::Resequencer;
use sprinklers_core::occupancy::{OccupancySet, PortCursor};
use sprinklers_core::packet::{assert_ports_fit, DeliveredPacket, Packet};
use sprinklers_core::switch::{step_batch_rotating, DeliverySink, Switch, SwitchStats};

/// What an input did with its first-fabric connection in one slot.
pub struct Served {
    /// The packet it sends to the connected intermediate port, if any.
    pub packet: Option<Packet>,
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
/// below the threshold) do not count, which is what lets an idle stretch be
/// skipped while they wait.
pub trait InputPolicy {
    /// The scheme's registry name.
    const NAME: &'static str;
    /// Whether outputs restore per-VOQ order before releasing (FOFF).
    const RESEQUENCES: bool = false;

    /// Take an arriving packet; returns whether its input is now servable.
    fn arrive(&mut self, packet: Packet) -> bool;

    /// `input` is connected to intermediate port `connected` in `slot`.
    /// A sent packet carries its routing header (intermediate port, stripe
    /// size and index) already stamped.
    fn serve(&mut self, input: usize, connected: usize, slot: u64) -> Served;
}

/// A two-stage load-balanced switch running input policy `P`.
pub struct TwoStage<P> {
    n: usize,
    policy: P,
    intermediates: Vec<SimpleIntermediate>,
    /// One per output when `P::RESEQUENCES`, empty otherwise.
    resequencers: Vec<Resequencer>,
    /// Servable inputs, intermediates with queued packets, outputs with
    /// buffered packets — the only ports a slot has to visit.
    occupied_inputs: OccupancySet,
    occupied_intermediates: OccupancySet,
    occupied_outputs: OccupancySet,
    /// Running totals so `stats()` is O(1) at every sampling boundary.
    queued_inputs: usize,
    queued_intermediates: usize,
    queued_outputs: usize,
    arrivals: u64,
    departures: u64,
}

impl<P: InputPolicy> TwoStage<P> {
    /// An `n`-port switch around `policy`.
    pub(crate) fn with_policy(n: usize, policy: P) -> Self {
        assert!(n >= 2, "a switch needs at least two ports");
        assert_ports_fit(n);
        let resequencers = if P::RESEQUENCES { n } else { 0 };
        TwoStage {
            n,
            policy,
            intermediates: (0..n).map(|_| SimpleIntermediate::new(n)).collect(),
            resequencers: (0..resequencers).map(|_| Resequencer::new(n)).collect(),
            occupied_inputs: OccupancySet::new(n),
            occupied_intermediates: OccupancySet::new(n),
            occupied_outputs: OccupancySet::new(n),
            queued_inputs: 0,
            queued_intermediates: 0,
            queued_outputs: 0,
            arrivals: 0,
            departures: 0,
        }
    }

    /// The input policy, for the scheme-specific accessors.
    pub(crate) fn policy(&self) -> &P {
        &self.policy
    }

    /// True when a step is a provable no-op: nothing is queued at the
    /// intermediate or output stage (padding sets the same bits data does)
    /// and no input is servable, which only an arrival can change.
    fn is_idle(&self) -> bool {
        self.occupied_inputs.is_empty()
            && self.occupied_intermediates.is_empty()
            && self.occupied_outputs.is_empty()
    }

    /// Advance one slot whose fabric phase `t == slot mod N` is already
    /// reduced (shared by `step` and the phase-rotating `step_batch`).
    // lint: hot-path
    fn step_at(&mut self, slot: u64, t: usize, sink: &mut dyn DeliverySink) {
        self.second_fabric(slot, t, sink);
        if P::RESEQUENCES {
            self.release_outputs(slot, sink);
        }
        self.first_fabric(slot, t);
    }

    /// Second fabric: every backlogged intermediate port serves the output
    /// it is connected to, into that output's resequencer or straight out.
    // lint: hot-path
    fn second_fabric(&mut self, slot: u64, t: usize, sink: &mut dyn DeliverySink) {
        let mut cursor = PortCursor::default();
        while let Some(l) = self.occupied_intermediates.next_port(&mut cursor) {
            let output = second_fabric_output_at(l, t, self.n);
            let Some(packet) = self.intermediates[l].dequeue(output) else {
                continue;
            };
            if self.intermediates[l].queued_packets() == 0 {
                self.occupied_intermediates.remove(l);
            }
            self.queued_intermediates -= 1;
            if P::RESEQUENCES {
                self.queued_outputs += 1;
                self.occupied_outputs.insert(output);
                self.resequencers[output].receive(packet);
            } else {
                self.depart(packet, slot, sink);
            }
        }
    }

    /// Each output releases at most one in-order packet (its line rate).  A
    /// resequencer can be occupied and still release nothing: everything it
    /// buffers may be waiting for an earlier sequence number.
    // lint: hot-path
    fn release_outputs(&mut self, slot: u64, sink: &mut dyn DeliverySink) {
        let mut cursor = PortCursor::default();
        while let Some(output) = self.occupied_outputs.next_port(&mut cursor) {
            let Some(packet) = self.resequencers[output].release_one() else {
                continue;
            };
            debug_assert_eq!(packet.output(), output);
            if self.resequencers[output].buffered_packets() == 0 {
                self.occupied_outputs.remove(output);
            }
            self.queued_outputs -= 1;
            self.depart(packet, slot, sink);
        }
    }

    /// Hand a packet to the sink.  Padding is delivered — the metrics count
    /// it — but is not a departure: it never arrived.
    // lint: hot-path
    fn depart(&mut self, packet: Packet, slot: u64, sink: &mut dyn DeliverySink) {
        self.departures += u64::from(!packet.is_padding());
        sink.deliver(DeliveredPacket::new(packet, slot));
    }

    /// First fabric: every servable input offers the intermediate port it is
    /// connected to whatever its policy picks.  An occupied input may still
    /// send nothing — a frame waiting for port 0, a flow pinned elsewhere.
    // lint: hot-path
    fn first_fabric(&mut self, slot: u64, t: usize) {
        let mut cursor = PortCursor::default();
        while let Some(i) = self.occupied_inputs.next_port(&mut cursor) {
            let connected = first_fabric_at(i, t, self.n);
            let served = self.policy.serve(i, connected, slot);
            self.queued_inputs += served.minted;
            if !served.servable {
                self.occupied_inputs.remove(i);
            }
            if let Some(packet) = served.packet {
                debug_assert_eq!(packet.intermediate(), connected);
                self.queued_inputs -= 1;
                self.queued_intermediates += 1;
                self.occupied_intermediates.insert(connected);
                self.intermediates[connected].receive(packet);
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
        debug_assert!(packet.input() < self.n && packet.output() < self.n);
        self.arrivals += 1;
        self.queued_inputs += 1;
        if P::RESEQUENCES {
            // The output resequencer needs the arrival order of each VOQ.
            self.resequencers[packet.output()].note_arrival(packet.input(), packet.voq_seq);
        }
        let input = packet.input();
        if self.policy.arrive(packet) {
            self.occupied_inputs.insert(input);
        }
    }

    fn step(&mut self, slot: u64, sink: &mut dyn DeliverySink) {
        let t = (slot % self.n as u64) as usize;
        self.step_at(slot, t, sink);
    }

    fn step_batch(&mut self, first_slot: u64, count: u32, sink: &mut dyn DeliverySink) {
        step_batch_rotating(self.n, first_slot, count, |slot, t| {
            // Nothing but an arrival ends idleness, and a batch carries
            // none, so the rest of it can be elided.
            if self.is_idle() {
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

/// A policy's half of [`TwoStage::assert_consistent`].
#[cfg(test)]
pub trait CheckInput {
    /// Assert the policy's own bookkeeping for `input` against a brute-force
    /// scan — including that `servable` is the bit it should be — and
    /// return the number of packets the input holds.
    fn check_input(&self, input: usize, servable: bool) -> usize;
}

#[cfg(test)]
impl<P: InputPolicy + CheckInput> TwoStage<P> {
    /// Check every occupancy bit and running counter against a brute-force
    /// scan of the queues it summarizes.
    pub(crate) fn assert_consistent(&self) {
        let mut at_inputs = 0;
        for i in 0..self.n {
            at_inputs += self.policy.check_input(i, self.occupied_inputs.contains(i));
        }
        assert_eq!(self.queued_inputs, at_inputs, "input-stage counter");

        let mut at_intermediates = 0;
        for (l, port) in self.intermediates.iter().enumerate() {
            assert_eq!(port.queued_packets(), port.rescan(), "intermediate {l}");
            assert_eq!(
                self.occupied_intermediates.contains(l),
                port.queued_packets() > 0,
                "intermediate {l} bit"
            );
            at_intermediates += port.queued_packets();
        }
        assert_eq!(self.queued_intermediates, at_intermediates);

        let mut at_outputs = 0;
        for (j, reseq) in self.resequencers.iter().enumerate() {
            assert_eq!(
                self.occupied_outputs.contains(j),
                reseq.buffered_packets() > 0,
                "output {j} bit"
            );
            at_outputs += reseq.buffered_packets();
        }
        assert_eq!(self.queued_outputs, at_outputs, "output-stage counter");
        assert!(P::RESEQUENCES || self.occupied_outputs.is_empty());
    }
}
