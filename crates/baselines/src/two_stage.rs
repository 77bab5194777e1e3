//! The two-stage load-balanced switch of Fig. 1, written once.
//!
//! Baseline LB, UFS, FOFF, Padded Frames and TCP hashing are the same
//! machine: inputs, a periodic first fabric, one FIFO per output at every
//! intermediate port, a periodic second fabric and — for FOFF — resequencing
//! buffers at the outputs.  [`TwoStage`] owns all of that: the packet store,
//! the intermediate FIFOs, the occupancy bitsets that let a slot visit only
//! ports holding work, every [`SwitchStats`] counter, the per-slot passes and
//! the one `impl Switch`.  A scheme is an [`InputPolicy`]: what an input does
//! with an arrival, and which packet it hands the first fabric when connected
//! to an intermediate port.
//!
//! A packet body is written once, into the [`PacketStore`] at `arrive`, and
//! read once, when it departs; every queue in between holds its four-byte
//! handle in a [`FifoGrid`].  The routing header is not stored at all while
//! the packet is inside: it follows from the intermediate port the packet
//! crossed and whether it travelled in a frame, which ride along as the
//! queue entry's tag and are stamped on the way out.
//!
//! A slot runs store-and-forward, back to front, so a packet crosses at most
//! one fabric per slot: second fabric (intermediate → output), output
//! release (resequencing schemes only), first fabric (input → intermediate).
//! Every pass walks its occupancy bitset in ascending port order — exactly
//! the ports a dense `0..n` loop would have found work at.  Being generic,
//! the passes are compiled in the crate that turns a `TwoStage<P>` into a
//! `dyn Switch`; the per-packet functions they call are `#[inline]` to follow.

use crate::fabric::{first_fabric_at, second_fabric_output_at};
use crate::resequencer::Resequencer;
use sprinklers_core::fifo::FifoGrid;
use sprinklers_core::occupancy::{OccupancySet, PortCursor};
use sprinklers_core::packet::{assert_ports_fit, DeliveredPacket, Packet};
use sprinklers_core::store::{PacketHandle, PacketStore};
use sprinklers_core::switch::{step_batch_rotating, DeliverySink, Switch, SwitchStats};

/// What an input did with its first-fabric connection in one slot.
pub struct Served {
    /// The packet it sends to the connected intermediate port, if any: its
    /// handle and its output port.
    pub sent: Option<(PacketHandle, u32)>,
    /// Whether that packet is one of a frame — packet `k` of `N`, crossing
    /// intermediate port `k` — rather than travelling alone.
    pub framed: bool,
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

    /// Queue the handle of an arriving packet of VOQ `(input, output)` and
    /// application flow `flow`, whose body the kernel has just stored;
    /// returns whether its input is now servable.
    fn arrive(&mut self, input: usize, output: usize, flow: u64, handle: PacketHandle) -> bool;

    /// `input` is connected to intermediate port `connected` in `slot`.
    /// `store` is the switch's packet store, for a policy that mints packets
    /// of its own (PF's padding).
    fn serve(
        &mut self,
        input: usize,
        connected: usize,
        slot: u64,
        store: &mut PacketStore,
    ) -> Served;
}

/// A two-stage load-balanced switch running input policy `P`.
pub struct TwoStage<P> {
    n: usize,
    policy: P,
    /// Every packet body inside the switch, padding included.
    store: PacketStore,
    /// Queue `l·n + j` is intermediate port `l`'s FIFO for output `j`.  An
    /// entry's tag is `input << 1 | framed`.
    intermediates: FifoGrid,
    /// Packets queued at each intermediate port.
    at_intermediate: Vec<u32>,
    /// Sized for `n` outputs when `P::RESEQUENCES`, for none otherwise.
    resequencer: Resequencer,
    /// The slot's departures, `(handle, intermediate << 1 | framed)`, between
    /// the pass that collects them and their delivery.
    departing: Vec<(PacketHandle, u32)>,
    /// Servable inputs, intermediates with queued packets, outputs with an
    /// in-order packet to release — the only ports a slot has to visit.
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
        TwoStage {
            n,
            policy,
            store: PacketStore::new(),
            intermediates: FifoGrid::new(n * n),
            at_intermediate: vec![0; n],
            resequencer: Resequencer::new(if P::RESEQUENCES { n } else { 0 }),
            departing: Vec::with_capacity(n),
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
    /// intermediate or output stage (padding counts like data) and no input
    /// is servable, which only an arrival can change.
    fn is_idle(&self) -> bool {
        self.occupied_inputs.is_empty() && self.queued_intermediates + self.queued_outputs == 0
    }

    /// Advance one slot whose fabric phase `t == slot mod N` is already
    /// reduced (shared by `step` and the phase-rotating `step_batch`).
    // lint: hot-path
    fn step_at(&mut self, slot: u64, t: usize, sink: &mut dyn DeliverySink) {
        self.second_fabric(t);
        if P::RESEQUENCES {
            self.release_outputs();
        }
        self.depart_all(slot, sink);
        self.first_fabric(slot, t);
    }

    /// Second fabric: every backlogged intermediate port serves the output
    /// it is connected to, into that output's resequencer or straight out.
    // lint: hot-path
    fn second_fabric(&mut self, t: usize) {
        let mut cursor = PortCursor::default();
        while let Some(l) = self.occupied_intermediates.next_port(&mut cursor) {
            let output = second_fabric_output_at(l, t, self.n);
            let Some((handle, tag)) = self.intermediates.pop(l * self.n + output) else {
                continue;
            };
            self.at_intermediate[l] -= 1;
            if self.at_intermediate[l] == 0 {
                self.occupied_intermediates.remove(l);
            }
            self.queued_intermediates -= 1;
            let crossed = (l as u32) << 1 | tag & 1;
            if P::RESEQUENCES {
                let input = (tag >> 1) as usize;
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

    /// Hand the slot's departures to the sink, in the order they were
    /// collected: each body's one read.  A body is read long after it was
    /// written, so the reads are issued side by side first, where their cache
    /// misses overlap.  The routing header follows from `intermediate << 1 |
    /// framed` — packet `k` of a frame crosses intermediate port `k`, a lone
    /// packet is a stripe of one.  Padding is delivered — the metrics count
    /// it — but is not a departure: it never arrived.
    // lint: hot-path
    fn depart_all(&mut self, slot: u64, sink: &mut dyn DeliverySink) {
        self.store
            .warm(self.departing.iter().map(|&(handle, _)| handle));
        for (handle, crossed) in self.departing.drain(..) {
            let mut packet = self.store.take(handle);
            let l = (crossed >> 1) as usize;
            packet.set_intermediate(l);
            if crossed & 1 == 1 {
                packet.set_stripe_size(self.n);
                packet.set_stripe_index(l);
            } else {
                packet.set_stripe_size(1);
            }
            self.departures += u64::from(!packet.is_padding());
            sink.deliver(DeliveredPacket::new(packet, slot));
        }
    }

    /// First fabric: every servable input offers the intermediate port it is
    /// connected to whatever its policy picks.  An occupied input may still
    /// send nothing — a frame waiting for port 0, a flow pinned elsewhere.
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
                self.at_intermediate[connected] += 1;
                self.occupied_intermediates.insert(connected);
                let tag = (i as u32) << 1 | u32::from(served.framed);
                self.intermediates
                    .push(connected * self.n + output as usize, handle, tag);
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
        let (input, output) = packet.voq();
        let flow = packet.flow;
        let handle = self.store.insert(packet);
        if P::RESEQUENCES {
            // The output resequencer needs the arrival order of each VOQ.
            self.resequencer.note_arrival(input, output, handle);
        }
        if self.policy.arrive(input, output, flow, handle) {
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
    /// scan of the queues it summarizes, and the store against the counters.
    pub(crate) fn assert_consistent(&self) {
        let n = self.n;
        let mut at_inputs = 0;
        for i in 0..n {
            at_inputs += self.policy.check_input(i, self.occupied_inputs.contains(i));
        }
        assert_eq!(self.queued_inputs, at_inputs, "input-stage counter");

        let mut at_intermediates = 0;
        for l in 0..n {
            let held: usize = (0..n).map(|j| self.intermediates.len(l * n + j)).sum();
            assert_eq!(self.at_intermediate[l] as usize, held, "intermediate {l}");
            assert_eq!(
                self.occupied_intermediates.contains(l),
                held > 0,
                "intermediate {l} bit"
            );
            at_intermediates += held;
        }
        assert_eq!(self.queued_intermediates, at_intermediates);

        let mut at_outputs = 0;
        for j in 0..n {
            let ready = P::RESEQUENCES && self.resequencer.has_ready(j);
            assert_eq!(self.occupied_outputs.contains(j), ready, "output {j} bit");
            if P::RESEQUENCES {
                at_outputs += self.resequencer.buffered_packets(j);
            }
        }
        assert_eq!(self.queued_outputs, at_outputs, "output-stage counter");
        assert_eq!(
            self.store.live(),
            at_inputs + at_intermediates + at_outputs,
            "every stored body is queued at exactly one stage"
        );
    }
}
