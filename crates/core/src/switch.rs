//! The `Switch` abstraction shared by Sprinklers, every baseline and the
//! multi-switch fabrics, and the push-based [`DeliverySink`] that receives
//! delivered packets.
//!
//! A switch in this workspace is a synchronous, slotted-time N×N packet
//! switch: packets are injected at input ports with [`Switch::arrive`] and the
//! switch advances a run of time slots with [`Switch::step_batch`], which
//! *pushes* every packet that reaches an output port during those slots into
//! a caller-provided [`DeliverySink`].  The engine in `sprinklers-sim` drives
//! any implementation of this trait, so Sprinklers and the baselines
//! (baseline load-balanced switch, output-queued, UFS, FOFF, Padded Frames,
//! TCP hashing) are directly comparable — and so is a fabric of them, which
//! is a switch whose ports are its hosts.
//!
//! # Why a sink instead of a returned `Vec`?
//!
//! The paper's Largest-Stripe-First scheduler is explicitly constant time per
//! slot (§3.4.2); a `tick() -> Vec<DeliveredPacket>` API would undo that by
//! heap-allocating on every slot of every simulated switch — millions of
//! allocations per run at evaluation scale.  With a sink, the hot loop
//! performs **zero per-slot allocations** in steady state: the metrics
//! pipeline consumes deliveries in place, benchmarks drive a no-op
//! [`NullSink`], and tests that want a `Vec` simply pass one (`Vec` implements
//! `DeliverySink`).
//!
//! The sink parameter is `&mut dyn DeliverySink` rather than
//! `&mut impl DeliverySink` so the trait stays object-safe: the scheme
//! registry hands out `Box<dyn Switch>` and the engine drives it through the
//! same code path as a concrete switch.

use crate::packet::{DeliveredPacket, Packet};

/// Receives packets as they are delivered to output ports.
///
/// Implementations must be cheap: `deliver` sits on the per-slot fast path of
/// every switch.  `Vec<DeliveredPacket>` collects deliveries for inspection,
/// [`NullSink`] discards them (drain loops, throughput benchmarks), and
/// [`CountingSink`] tallies them without storing; the metrics pipeline in
/// `sprinklers-sim` feeds its delay/reordering statistics directly from
/// `deliver`.
pub trait DeliverySink {
    /// Accept one packet that crossed the second fabric into its output.
    fn deliver(&mut self, delivered: DeliveredPacket);
}

impl DeliverySink for Vec<DeliveredPacket> {
    fn deliver(&mut self, delivered: DeliveredPacket) {
        self.push(delivered);
    }
}

impl<S: DeliverySink + ?Sized> DeliverySink for &mut S {
    fn deliver(&mut self, delivered: DeliveredPacket) {
        (**self).deliver(delivered);
    }
}

/// A sink that discards every delivery (for drain loops and benchmarks).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl DeliverySink for NullSink {
    fn deliver(&mut self, _delivered: DeliveredPacket) {}
}

/// A sink that counts deliveries without storing them.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountingSink {
    /// Data packets delivered.
    pub data_packets: u64,
    /// Padding (fake) packets delivered by padding-based schemes.
    pub padding_packets: u64,
}

impl CountingSink {
    /// Total deliveries, data and padding alike.
    pub fn total(&self) -> u64 {
        self.data_packets + self.padding_packets
    }
}

impl DeliverySink for CountingSink {
    fn deliver(&mut self, delivered: DeliveredPacket) {
        if delivered.packet.is_padding() {
            self.padding_packets += 1;
        } else {
            self.data_packets += 1;
        }
    }
}

/// Drive a phase-rotating batched step loop: calls `step(slot, t)` for every
/// slot in `[first_slot, first_slot + count)` with the fabric phase
/// `t == slot mod n` maintained incrementally (one add + compare per slot
/// instead of a `u64` modulo), stopping early when `step` returns `false`
/// (the idle-switch elision).
///
/// This is the one shared loop behind every scheme's [`Switch::step_batch`]
/// override: each implementation passes a closure that performs its own
/// emptiness check and delegates to its per-slot `step_at`, so the rotation
/// and elision mechanics live in exactly one place.
pub fn step_batch_rotating<F>(n: usize, first_slot: u64, count: u32, mut step: F)
where
    F: FnMut(u64, usize) -> bool,
{
    let mut t = (first_slot % n as u64) as usize;
    for k in 0..u64::from(count) {
        if !step(first_slot + k, t) {
            return;
        }
        t += 1;
        if t == n {
            t = 0;
        }
    }
}

/// Aggregate occupancy/throughput counters a switch exposes for metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwitchStats {
    /// Packets currently buffered at input ports (including VOQ ready queues).
    pub queued_at_inputs: usize,
    /// Packets currently buffered at intermediate ports.
    pub queued_at_intermediates: usize,
    /// Packets currently buffered at output-side resequencing buffers (zero
    /// for switches that do not need them).
    pub queued_at_outputs: usize,
    /// Total packets accepted so far.
    pub total_arrivals: u64,
    /// Total data packets delivered to outputs so far.
    pub total_departures: u64,
    /// Total data packets dropped so far (fault-injected fabrics; always
    /// zero for single switches, which never lose packets).
    pub total_dropped: u64,
}

impl SwitchStats {
    /// Total packets currently inside the switch.
    pub fn total_queued(&self) -> usize {
        self.queued_at_inputs + self.queued_at_intermediates + self.queued_at_outputs
    }
}

/// A synchronous slotted-time N×N switch: one scheme's switch, or a
/// multi-switch fabric whose ports are its hosts.  The engine drives every
/// world through this one trait.
pub trait Switch {
    /// Number of externally visible ports (hosts, for a fabric).  Injected
    /// packets address this port space; delivered packets are reported in it.
    fn n(&self) -> usize;

    /// Short human-readable name for reports: the scheme's key in the
    /// `sprinklers-sim` registry, or a fabric's topology tag.
    fn name(&self) -> &str;

    /// Inject a packet at its input port.  The packet's `arrival_slot` field
    /// is treated as the current time for rate-measurement purposes, so the
    /// caller should arrange `arrive` calls in nondecreasing `arrival_slot`
    /// order and step the matching slot afterwards.
    fn arrive(&mut self, packet: Packet);

    /// Inject every packet arriving in one slot, in order.
    ///
    /// Semantically this is **exactly** `for p in packets { arrive(p) }`, and
    /// the default implementation is that loop.  The batched form lets a
    /// caller cross the `dyn Switch` boundary once per slot, and lets an
    /// implementation look at the whole slot before it starts — to overlap
    /// the cache misses of arrivals that touch unrelated queues, say.
    fn arrive_batch(&mut self, packets: &[Packet]) {
        for packet in packets {
            self.arrive(packet.clone());
        }
    }

    /// Advance the switch by one time slot: exactly
    /// `step_batch(slot, 1, sink)`, which is the implementation.
    fn step(&mut self, slot: u64, sink: &mut dyn DeliverySink) {
        self.step_batch(slot, 1, sink);
    }

    /// Advance the switch by `count` consecutive slots starting at
    /// `first_slot`, pushing every packet delivered to an output port in
    /// those slots into `sink` (padding too, for padding-based schemes); at
    /// most one packet per output is delivered per slot.
    ///
    /// Slots advance by exactly 1 overall, starting from 0, and packets
    /// arriving at slot `s` are injected before the call that steps `s` —
    /// so a batch may never span a slot whose arrivals have not been
    /// injected yet.  How the slots are split into calls never changes a
    /// delivery: one call over `k + m` slots is exactly a call over `k`
    /// followed by one over `m` — same packets, same order, same departure
    /// slots.  So a caller that steps many slots with no interleaved
    /// [`Switch::arrive`] (the engine's drain, empty slots at light load)
    /// crosses the `dyn Switch` boundary once per batch, and an
    /// implementation hoists per-slot setup — the `slot mod N` fabric
    /// phase — out of its inner loop and elides the rest of a batch once
    /// nothing it holds can move.
    ///
    /// Implementations must not allocate on this path in steady state.
    fn step_batch(&mut self, first_slot: u64, count: u32, sink: &mut dyn DeliverySink);

    /// Inert: stepping is serial and nothing overrides this; its last caller
    /// is the benchmark harness, and it goes with that call.
    fn set_threads(&mut self, _threads: usize) {}

    /// Current occupancy and throughput counters.
    fn stats(&self) -> SwitchStats;
}

/// [`Switch`] under the benchmark harness's names, plus the inert
/// `set_parallelism`.  Every switch has it through the blanket impl; its one
/// user is `benchmark/src/passes.rs`, and it goes when that loop does.
#[rustfmt::skip]
pub trait Steppable: Switch {
    /// [`Switch::n`].
    fn ports(&self) -> usize { self.n() }
    /// [`Switch::name`], owned.
    fn label(&self) -> String { self.name().to_string() }
    /// [`Switch::arrive`].
    fn inject(&mut self, packet: Packet) { self.arrive(packet) }
    /// [`Switch::step_batch`].
    fn advance(&mut self, first: u64, count: u32, sink: &mut dyn DeliverySink) { self.step_batch(first, count, sink) }
    /// [`Switch::stats`].
    fn counters(&self) -> SwitchStats { self.stats() }
    /// Inert, like [`Switch::set_threads`].
    fn set_parallelism(&mut self, _threads: usize) {}
}

impl<S: Switch + ?Sized> Steppable for S {}

impl<T: Switch + ?Sized> Switch for Box<T> {
    fn n(&self) -> usize {
        (**self).n()
    }
    fn name(&self) -> &str {
        (**self).name()
    }
    fn arrive(&mut self, packet: Packet) {
        (**self).arrive(packet)
    }
    fn arrive_batch(&mut self, packets: &[Packet]) {
        (**self).arrive_batch(packets)
    }
    fn step_batch(&mut self, first_slot: u64, count: u32, sink: &mut dyn DeliverySink) {
        (**self).step_batch(first_slot, count, sink)
    }
    fn stats(&self) -> SwitchStats {
        (**self).stats()
    }
}

impl<T: Switch + ?Sized> Switch for &mut T {
    fn n(&self) -> usize {
        (**self).n()
    }
    fn name(&self) -> &str {
        (**self).name()
    }
    fn arrive(&mut self, packet: Packet) {
        (**self).arrive(packet)
    }
    fn arrive_batch(&mut self, packets: &[Packet]) {
        (**self).arrive_batch(packets)
    }
    fn step_batch(&mut self, first_slot: u64, count: u32, sink: &mut dyn DeliverySink) {
        (**self).step_batch(first_slot, count, sink)
    }
    fn stats(&self) -> SwitchStats {
        (**self).stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_total_queued_sums_all_stages() {
        let s = SwitchStats {
            queued_at_inputs: 3,
            queued_at_intermediates: 5,
            queued_at_outputs: 2,
            total_arrivals: 100,
            total_departures: 90,
            total_dropped: 0,
        };
        assert_eq!(s.total_queued(), 10);
    }

    #[test]
    fn stats_default_is_zeroed() {
        let s = SwitchStats::default();
        assert_eq!(s.total_queued(), 0);
        assert_eq!(s.total_arrivals, 0);
    }

    fn delivered(is_padding: bool) -> DeliveredPacket {
        let packet = if is_padding {
            Packet::padding(0, 1, 0)
        } else {
            Packet::new(0, 1, 7, 0)
        };
        DeliveredPacket::new(packet, 5)
    }

    #[test]
    fn vec_sink_collects_deliveries() {
        let mut sink: Vec<DeliveredPacket> = Vec::new();
        sink.deliver(delivered(false));
        sink.deliver(delivered(true));
        assert_eq!(sink.len(), 2);
        assert_eq!(sink[0].packet.id, 7);
    }

    #[test]
    fn null_sink_discards_everything() {
        let mut sink = NullSink;
        for _ in 0..100 {
            sink.deliver(delivered(false));
        }
    }

    #[test]
    fn counting_sink_separates_data_from_padding() {
        let mut sink = CountingSink::default();
        sink.deliver(delivered(false));
        sink.deliver(delivered(false));
        sink.deliver(delivered(true));
        assert_eq!(sink.data_packets, 2);
        assert_eq!(sink.padding_packets, 1);
        assert_eq!(sink.total(), 3);
    }

    #[test]
    fn mut_ref_sink_forwards() {
        let mut inner = CountingSink::default();
        {
            let sink = &mut inner;
            sink.deliver(delivered(false));
        }
        assert_eq!(inner.data_packets, 1);
    }

    /// A switch that records every `step_batch` call and delivers one packet
    /// per slot, to pin the provided `step` (and the forwarding impls) to
    /// one-slot batches.
    struct SlotRecorder {
        calls: Vec<(u64, u32)>,
    }

    impl Switch for SlotRecorder {
        fn n(&self) -> usize {
            2
        }
        fn name(&self) -> &str {
            "slot-recorder"
        }
        fn arrive(&mut self, _packet: Packet) {}
        fn step_batch(&mut self, first_slot: u64, count: u32, sink: &mut dyn DeliverySink) {
            self.calls.push((first_slot, count));
            for slot in first_slot..first_slot + u64::from(count) {
                sink.deliver(DeliveredPacket::new(Packet::new(0, 1, slot, 0), slot));
            }
        }
        fn stats(&self) -> SwitchStats {
            SwitchStats::default()
        }
    }

    #[test]
    fn default_step_is_a_one_slot_step_batch() {
        let mut sw = SlotRecorder { calls: Vec::new() };
        let mut sink: Vec<DeliveredPacket> = Vec::new();
        for slot in 10..13 {
            sw.step(slot, &mut sink);
        }
        assert_eq!(sw.calls, vec![(10, 1), (11, 1), (12, 1)]);
        let departures: Vec<u64> = sink.iter().map(|d| d.departure_slot).collect();
        assert_eq!(departures, vec![10, 11, 12]);
    }

    #[test]
    fn step_batch_rotating_tracks_the_phase_and_stops_on_false() {
        let n = 4;
        let mut seen: Vec<(u64, usize)> = Vec::new();
        step_batch_rotating(n, 6, 7, |slot, t| {
            assert_eq!(t, (slot % n as u64) as usize);
            seen.push((slot, t));
            slot < 10 // ask to stop once slot 10 has been attempted
        });
        let slots: Vec<u64> = seen.iter().map(|&(s, _)| s).collect();
        assert_eq!(slots, vec![6, 7, 8, 9, 10], "stops after the false slot");
    }

    #[test]
    fn default_step_batch_of_zero_slots_is_a_noop() {
        // The shared loop behind every scheme's `step_batch` steps nothing...
        step_batch_rotating(4, 7, 0, |_, _| panic!("zero-slot batch must not step"));
        // ...so a loaded switch neither delivers nor drains on a zero-slot batch.
        let mut sw = crate::SprinklersSwitch::new(crate::SprinklersConfig::new(4), 3);
        sw.arrive(Packet::new(0, 1, 0, 0));
        let before = sw.stats();
        let mut sink: Vec<DeliveredPacket> = Vec::new();
        sw.step_batch(0, 0, &mut sink);
        assert!(sink.is_empty());
        assert_eq!(sw.stats(), before);
    }

    #[test]
    fn every_switch_is_steppable_through_the_blanket_impl() {
        let mut sw = SlotRecorder { calls: Vec::new() };
        assert_eq!(sw.ports(), 2);
        assert_eq!(sw.label(), "slot-recorder");
        sw.inject(Packet::new(0, 1, 0, 0));
        let mut sink: Vec<DeliveredPacket> = Vec::new();
        sw.advance(2, 3, &mut sink);
        assert_eq!(sw.calls, vec![(2, 3)]);
        assert_eq!(sw.counters(), SwitchStats::default());
        // Boxed trait objects are steppable too (`Box<dyn Switch>` is a
        // `Switch`, so the blanket impl covers it).
        let mut boxed: Box<dyn Switch> = Box::new(SlotRecorder { calls: Vec::new() });
        boxed.advance(0, 1, &mut NullSink);
        assert_eq!(boxed.label(), "slot-recorder");
    }

    #[test]
    fn default_arrive_batch_is_the_sequential_arrive_loop() {
        #[derive(Default)]
        struct ArrivalRecorder(Vec<u64>);
        impl Switch for ArrivalRecorder {
            fn n(&self) -> usize {
                2
            }
            fn name(&self) -> &str {
                "arrival-recorder"
            }
            fn arrive(&mut self, packet: Packet) {
                self.0.push(packet.id);
            }
            fn step_batch(&mut self, _first: u64, _count: u32, _sink: &mut dyn DeliverySink) {}
            fn stats(&self) -> SwitchStats {
                SwitchStats::default()
            }
        }
        let slot: Vec<Packet> = (0..3).map(|id| Packet::new(0, 1, id, 0)).collect();
        let mut sw = ArrivalRecorder::default();
        sw.arrive_batch(&slot);
        sw.arrive_batch(&slot[1..]);
        sw.arrive_batch(&[]);
        assert_eq!(sw.0, vec![0, 1, 2, 1, 2]);
    }

    /// A missed forwarder would not change a single delivery — the default
    /// loop is correct — it would only drop an implementation's batch path
    /// without a trace, so pin that every wrapper reaches the override.
    #[test]
    fn boxed_borrowed_and_steppable_switches_forward_arrive_batch() {
        /// Overrides the batch call: records batch sizes, and any packet
        /// that came through `arrive` instead.
        #[derive(Default)]
        struct BatchRecorder {
            batches: Vec<usize>,
            singles: usize,
        }
        impl Switch for BatchRecorder {
            fn n(&self) -> usize {
                2
            }
            fn name(&self) -> &str {
                "batch-recorder"
            }
            fn arrive(&mut self, _packet: Packet) {
                self.singles += 1;
            }
            fn arrive_batch(&mut self, packets: &[Packet]) {
                self.batches.push(packets.len());
            }
            fn step_batch(&mut self, _first: u64, _count: u32, _sink: &mut dyn DeliverySink) {}
            fn stats(&self) -> SwitchStats {
                SwitchStats::default()
            }
        }
        let slot: Vec<Packet> = (0..3).map(|id| Packet::new(0, 1, id, 0)).collect();
        let mut concrete = BatchRecorder::default();
        fn through_bound<S: Switch>(mut switch: S, packets: &[Packet]) {
            switch.arrive_batch(packets);
        }
        through_bound(&mut concrete, &slot);
        through_bound(Box::new(&mut concrete) as Box<dyn Switch + '_>, &slot[..2]);
        (&mut concrete as &mut dyn Switch).arrive_batch(&slot[..1]);
        assert_eq!(concrete.batches, vec![3, 2, 1]);
        assert_eq!(concrete.singles, 0);
    }

    #[test]
    fn boxed_and_borrowed_switches_forward_step_batch() {
        let mut boxed: Box<dyn Switch> = Box::new(SlotRecorder { calls: Vec::new() });
        boxed.step_batch(0, 3, &mut NullSink);
        boxed.step(3, &mut NullSink);

        // Drive through a generic bound so the `impl Switch for &mut T`
        // blanket impl (not auto-deref) is the code path exercised.
        fn drive<S: Switch>(mut switch: S) {
            switch.step_batch(3, 2, &mut NullSink);
            switch.step(5, &mut NullSink);
        }
        let mut concrete = SlotRecorder { calls: Vec::new() };
        drive(&mut concrete);
        assert_eq!(concrete.calls, vec![(3, 2), (5, 1)]);
    }
}
