//! The full Sprinklers switch: two switching fabrics with deterministic
//! periodic connection patterns, N input ports and N intermediate ports.
//!
//! * At slot `t` the **first** fabric connects input `i` to intermediate port
//!   `(i + t) mod N` (the paper's "increasing" sequence).
//! * At slot `t` the **second** fabric connects intermediate port `ℓ` to
//!   output `(ℓ − t) mod N` (the "decreasing" sequence), equivalently output
//!   `j` receives from intermediate port `(j + t) mod N`.
//!
//! Each port transfers at most one packet per slot.  Within a slot the second
//! fabric is processed before the first, so a packet never crosses both
//! fabrics in the same slot (store-and-forward).

use crate::config::{AlignmentMode, SizingMode, SprinklersConfig};
use crate::input_port::SprinklersInputPort;
use crate::intermediate_port::SprinklersIntermediatePort;
use crate::lsf::Served;
use crate::matrix::TrafficMatrix;
use crate::occupancy::{OccupancySet, PhaseRows, PortCursor};
use crate::ols::WeaklyUniformOls;
use crate::packet::{DeliveredPacket, Packet};
use crate::sizing::stripe_size;
use crate::store::{PacketHandle, PacketStore};
use crate::stripe::stamp_routing;
use crate::switch::{DeliverySink, Switch, SwitchStats};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// What the second-fabric walk collects from an intermediate port that has a
/// packet for the output it is connected to: `(intermediate, handle, stripe
/// level, that was the port's last packet for the output)`.
type Delivery = (usize, PacketHandle, usize, bool);

/// What the first-fabric walk collects from an input port that has a packet
/// for the intermediate it is connected to: `(input, intermediate, served
/// packet, input still servable)`.
type Transfer = (usize, usize, Served, bool);

/// A complete Sprinklers switch.
pub struct SprinklersSwitch {
    config: SprinklersConfig,
    n: usize,
    ols: WeaklyUniformOls,
    /// Every resident packet's body.  `arrive` writes it, delivery reads and
    /// frees it, and all the queues of the ports below hold handles into it.
    store: PacketStore,
    inputs: Vec<SprinklersInputPort>,
    intermediates: Vec<SprinklersIntermediatePort>,
    /// Inputs whose scheduler holds at least one servable packet — the ports
    /// the first-fabric pass has to probe.  Packets still accumulating in VOQ
    /// ready queues don't set the bit (the fabric can't serve them), so a
    /// lightly loaded switch walks only the handful of inputs with plastered
    /// stripes instead of all N.
    occupied_inputs: OccupancySet,
    /// Second-fabric readiness by phase: bit `l` of row `t` is set iff
    /// intermediate `l` holds an eligible packet for output `(l − t) mod n`,
    /// the one the fabric connects it to at phase `t`.  The intermediate
    /// ports set bits as they enqueue; the second-fabric merge clears them.
    /// Slot `t` walks row `t`, so every port it visits delivers.
    ready: PhaseRows,
    /// Intermediate ports with packets staged for stripe-complete alignment
    /// (always empty under immediate alignment): the ports whose
    /// `release_eligible` has to run before the walk reads `ready`.
    staged_intermediates: OccupancySet,
    /// True for adaptive sizing, which observes idle slots (VOQs shrink) and
    /// therefore still needs the dense per-slot maintenance pass.
    adaptive: bool,
    /// Running totals so [`Switch::stats`] is O(1) instead of an O(N) rescan
    /// at every engine sampling boundary.
    queued_inputs: usize,
    queued_intermediates: usize,
    /// Running total of committed stripe-size changes (see
    /// [`SprinklersSwitch::total_resizes`]).
    resizes: u64,
    arrivals: u64,
    departures: u64,
    /// Second-fabric scratch: what the walk dequeued this slot, in ascending
    /// port order, for the merge to deliver.  It has room for all `n` ports,
    /// so a step never grows it.
    deliveries: Vec<Delivery>,
    /// First-fabric scratch, same shape.
    transfers: Vec<Transfer>,
    /// Intermediate ports the second-fabric walk was sent to, to hold
    /// against `departures`.
    #[cfg(test)]
    second_fabric_visits: u64,
}

impl SprinklersSwitch {
    /// Build a switch from a configuration and an RNG seed (which determines
    /// the weakly uniform random OLS and nothing else).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; use
    /// [`SprinklersSwitch::try_new`] for a fallible constructor.
    pub fn new(config: SprinklersConfig, seed: u64) -> Self {
        Self::try_new(config, seed).expect("invalid Sprinklers configuration")
    }

    /// Fallible constructor.
    pub fn try_new(config: SprinklersConfig, seed: u64) -> Result<Self, crate::error::SwitchError> {
        config.validate()?;
        let mut rng = StdRng::seed_from_u64(seed);
        let ols = WeaklyUniformOls::random(config.n, &mut rng);
        Ok(Self::with_ols(config, ols))
    }

    /// Build a switch with an explicitly provided OLS (useful for tests and
    /// for reproducing a specific configuration).
    pub fn with_ols(config: SprinklersConfig, ols: WeaklyUniformOls) -> Self {
        assert_eq!(ols.order(), config.n);
        let n = config.n;
        let inputs = (0..n)
            .map(|i| SprinklersInputPort::new(i, &config, &ols))
            .collect();
        let intermediates = (0..n)
            .map(|l| SprinklersIntermediatePort::new(l, n, config.alignment))
            .collect();
        let adaptive = matches!(config.sizing, SizingMode::Adaptive(_));
        SprinklersSwitch {
            config,
            n,
            ols,
            store: PacketStore::new(),
            inputs,
            intermediates,
            occupied_inputs: OccupancySet::new(n),
            ready: PhaseRows::new(n),
            staged_intermediates: OccupancySet::new(n),
            adaptive,
            queued_inputs: 0,
            queued_intermediates: 0,
            resizes: 0,
            arrivals: 0,
            departures: 0,
            deliveries: Vec::with_capacity(n),
            transfers: Vec::with_capacity(n),
            #[cfg(test)]
            second_fabric_visits: 0,
        }
    }

    /// The switch's OLS (primary intermediate port of every VOQ).
    pub fn ols(&self) -> &WeaklyUniformOls {
        &self.ols
    }

    /// The switch's configuration.
    pub fn config(&self) -> &SprinklersConfig {
        &self.config
    }

    /// Current stripe size of the VOQ at `input` destined to `output`.
    pub fn voq_stripe_size(&self, input: usize, output: usize) -> usize {
        self.inputs[input].voq(output).stripe_size()
    }

    /// Reconfigure every VOQ's stripe size from a new traffic matrix.  Each
    /// VOQ that changes size goes through the clearance phase (§5) before the
    /// new size takes effect, so packet order is preserved across the
    /// reconfiguration.
    pub fn reconfigure_from_matrix(&mut self, matrix: &TrafficMatrix) {
        assert_eq!(matrix.n(), self.n);
        for input in 0..self.n {
            let before = self.inputs[input].resizes_committed();
            for output in 0..self.n {
                let size = stripe_size(matrix.rate(input, output), self.n);
                self.inputs[input].request_resize(output, size);
            }
            self.resizes += self.inputs[input].resizes_committed() - before;
            // Immediately-committed resizes can release backlogged stripes
            // into the scheduler; reflect that in the occupancy bitset.
            if self.inputs[input].has_servable() {
                self.occupied_inputs.insert(input);
            }
        }
    }

    /// Cumulative number of committed stripe-size changes across all VOQs,
    /// from a running counter bumped on commit (O(1); this used to be an
    /// O(N²) rescan of every VOQ per call).
    pub fn total_resizes(&self) -> u64 {
        self.resizes
    }

    /// Intermediate port connected to input `i` at slot `t` (first fabric).
    pub fn first_fabric(&self, input: usize, slot: u64) -> usize {
        (input + (slot % self.n as u64) as usize) % self.n
    }

    /// Output port connected to intermediate `l` at slot `t` (second fabric).
    pub fn second_fabric(&self, intermediate: usize, slot: u64) -> usize {
        let t = (slot % self.n as u64) as usize;
        (intermediate + self.n - t) % self.n
    }

    /// Advance one slot whose fabric phase `t == slot mod N` the caller has
    /// already computed.  [`Switch::step`] computes the phase from scratch;
    /// [`Switch::step_batch`] rotates it across the batch so the inner loop
    /// performs no `u64` modulo at all.
    ///
    /// Neither fabric pass walks `0..N`.  The second walks row `t` of the
    /// phase index — the intermediate ports holding a packet for the output
    /// they face in this slot — so it costs O(deliveries); the first walks
    /// the inputs with plastered stripes, O(occupied inputs).  Both only skip
    /// probes that provably find nothing, in the dense loops' ascending port
    /// order, which is what keeps the delivery stream byte-identical.
    ///
    /// Each pass has two halves.  The *walk* does the port-local work — pick
    /// the packet each occupied port sends over its current connection — and
    /// only collects `(port, handle, …)` entries; the *merge* then applies
    /// every cross-port effect, in the same ascending port order.  Splitting
    /// them puts the slot's packet-body reads (one per delivery — cold, the
    /// body was written at arrival) side by side, where the merge can overlap
    /// them instead of taking one cache miss per loop iteration.
    // lint: hot-path
    fn step_at(&mut self, slot: u64, t: usize, sink: &mut dyn DeliverySink) {
        self.second_fabric_pass(slot, t, sink);
        self.first_fabric_pass(slot, t);

        // Per-slot maintenance.  Only adaptive sizing observes idle slots
        // (VOQs shrink), so only it pays the dense pass; for fixed and
        // matrix-driven sizing there is no sizing clock, and complete stripes
        // are released at the call that completes them (arrive, delivery, or
        // an explicit resize).
        if self.adaptive {
            for i in 0..self.n {
                let before = self.inputs[i].resizes_committed();
                self.inputs[i].maintain(slot);
                self.resizes += self.inputs[i].resizes_committed() - before;
                if self.inputs[i].has_servable() {
                    self.occupied_inputs.insert(i);
                }
            }
        }
    }

    /// Second fabric: packets that arrived at the intermediate stage in
    /// earlier slots may move to their outputs.
    // lint: hot-path
    fn second_fabric_pass(&mut self, slot: u64, t: usize, sink: &mut dyn DeliverySink) {
        let n = self.n;
        // Stripe-complete alignment: stripes complete by this slot become
        // eligible — and their ports ready — before the walk reads the index.
        let mut cursor = PortCursor::default();
        while let Some(l) = self.staged_intermediates.next_port(&mut cursor) {
            let port = &mut self.intermediates[l];
            port.release_eligible(slot, &mut self.ready);
            if !port.has_staged() {
                self.staged_intermediates.remove(l);
            }
        }

        // The walk: row `t` lists exactly the ports with a packet for the
        // output they are connected to, so the port-local work — pop the head
        // of that output's largest non-empty level — never comes up empty.
        let mut deliveries = std::mem::take(&mut self.deliveries);
        for l in self.ready.ports(t) {
            #[cfg(test)]
            {
                self.second_fabric_visits += 1;
            }
            let output = if l >= t { l - t } else { l + n - t };
            let served = self.intermediates[l].dequeue(output);
            debug_assert!(
                served.is_some(),
                "phase row {t} lists intermediate {l}, which holds nothing for output {output}"
            );
            if let Some((handle, level, last)) = served {
                deliveries.push((l, handle, level, last));
            }
        }

        // The merge, in the walk's ascending port order.
        self.store
            .warm(deliveries.iter().map(|&(_, handle, ..)| handle));
        for (l, handle, level, last) in deliveries.drain(..) {
            if last {
                self.ready.clear(t, l);
            }
            self.queued_intermediates -= 1;
            self.deliver(l, handle, level, slot, sink);
        }
        self.deliveries = deliveries;
    }

    /// One second-fabric delivery: the packet's single read.  Take the body
    /// out of the store (freeing its slot), fill in the routing header from
    /// where the packet travelled — intermediate port `l`, a FIFO of stripe
    /// level `level` — then notify the originating VOQ (clearance-phase
    /// accounting; a committing resize can release backlogged stripes into
    /// the input's scheduler, which may set its occupancy bit) and push the
    /// packet into the sink.
    // lint: hot-path
    #[inline]
    fn deliver(
        &mut self,
        l: usize,
        handle: PacketHandle,
        level: usize,
        slot: u64,
        sink: &mut dyn DeliverySink,
    ) {
        let mut packet = self.store.take(handle);
        stamp_routing(&mut packet, l, level);
        let input = packet.input();
        let before = self.inputs[input].resizes_committed();
        self.inputs[input].packet_delivered(packet.output());
        self.resizes += self.inputs[input].resizes_committed() - before;
        if self.inputs[input].has_servable() {
            self.occupied_inputs.insert(input);
        }
        self.departures += 1;
        sink.deliver(DeliveredPacket::new(packet, slot));
    }

    /// First fabric: each occupied input may push one packet to the
    /// intermediate port it is connected to in this slot.  The first fabric
    /// connects input `i` to intermediate `(i + t) mod n` — a bijection — so
    /// at most one packet lands on any intermediate per slot.
    // lint: hot-path
    fn first_fabric_pass(&mut self, slot: u64, t: usize) {
        let n = self.n;
        // The walk: the port-local work of input `i` is the LSF dequeue for
        // the connected intermediate.
        let mut transfers = std::mem::take(&mut self.transfers);
        let mut cursor = PortCursor::default();
        while let Some(i) = self.occupied_inputs.next_port(&mut cursor) {
            let l = if i + t >= n { i + t - n } else { i + t };
            let port = &mut self.inputs[i];
            if let Some(served) = port.dequeue(l) {
                transfers.push((i, l, served, port.has_servable()));
            }
        }

        // Merge: occupancy bits, counters and the intermediate-side receive.
        let staging = self.config.alignment == AlignmentMode::StripeComplete;
        if staging {
            // Stripe-complete staging reads each body's VOQ sequence number.
            self.store
                .warm(transfers.iter().map(|&(_, _, served, _)| served.0));
        }
        for (i, l, (handle, output, level), still_servable) in transfers.drain(..) {
            if !still_servable {
                self.occupied_inputs.remove(i);
            }
            self.queued_inputs -= 1;
            self.queued_intermediates += 1;
            if staging {
                self.staged_intermediates.insert(l);
            }
            self.intermediates[l].receive(
                &self.store,
                &mut self.ready,
                handle,
                output as usize,
                level,
                slot,
            );
        }
        self.transfers = transfers;
    }
}

impl Switch for SprinklersSwitch {
    fn n(&self) -> usize {
        self.n
    }

    fn name(&self) -> &'static str {
        "sprinklers"
    }

    // lint: hot-path
    fn arrive(&mut self, packet: Packet) {
        debug_assert!(packet.input() < self.n && packet.output() < self.n);
        self.arrivals += 1;
        self.queued_inputs += 1;
        let input = packet.input();
        let before = self.inputs[input].resizes_committed();
        self.inputs[input].arrive(&mut self.store, packet);
        self.resizes += self.inputs[input].resizes_committed() - before;
        // The arrival may have completed a stripe (or, under adaptive
        // sizing, committed a resize that released backlogged ones).
        if self.inputs[input].has_servable() {
            self.occupied_inputs.insert(input);
        }
    }

    // lint: hot-path
    fn arrive_batch(&mut self, packets: &[Packet]) {
        // An arrival starts with three dependent loads — VOQ record, ready
        // queue header, tail chunk — into tables far larger than the cache
        // (N² VOQs), so at large N each is a likely miss and one packet's
        // chain cannot overlap itself.  The chains of different packets can:
        // touch them all first, with nothing waiting on the values, then
        // arrive the packets in order.
        let mut bits = 0u64;
        for packet in packets {
            bits ^= self.inputs[packet.input()].warm_arrival(packet.output());
        }
        std::hint::black_box(bits);
        for packet in packets {
            // lint: allow(hot-path) — a Packet is 48 plain bytes: the clone is a copy, not a heap allocation
            self.arrive(packet.clone());
        }
    }

    fn step(&mut self, slot: u64, sink: &mut dyn DeliverySink) {
        let t = (slot % self.n as u64) as usize;
        self.step_at(slot, t, sink);
    }

    fn step_batch(&mut self, first_slot: u64, count: u32, sink: &mut dyn DeliverySink) {
        // Whole-switch elision is the degenerate case of the per-port
        // occupancy check: with no servable input and nothing at the
        // intermediate stage, a non-adaptive step is a provable no-op — both
        // fabric passes have no port to visit, and
        // any packets still parked in VOQ ready queues (stranded partial
        // stripes) can only move on an arrive/delivery/resize event, none of
        // which happens mid-batch — so the rest of an arrival-free batch
        // returns immediately.  Adaptive sizing observes idle slots (VOQs
        // shrink), so it steps every slot.
        let elidable = !self.adaptive;
        crate::switch::step_batch_rotating(self.n, first_slot, count, |slot, t| {
            if elidable && self.occupied_inputs.is_empty() && self.queued_intermediates == 0 {
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
            queued_at_outputs: 0,
            total_arrivals: self.arrivals,
            total_departures: self.departures,
            total_dropped: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::InputDiscipline;

    fn pkt(input: usize, output: usize, id: u64, slot: u64, seq: u64) -> Packet {
        Packet::new(input, output, id, slot).with_voq_seq(seq)
    }

    fn drain(sw: &mut SprinklersSwitch, from_slot: u64, slots: u64) -> Vec<DeliveredPacket> {
        let mut out = Vec::new();
        for s in from_slot..from_slot + slots {
            sw.step(s, &mut out);
        }
        out
    }

    #[test]
    fn fabric_patterns_are_periodic_and_complementary() {
        let sw = SprinklersSwitch::new(
            SprinklersConfig::new(8).with_sizing(SizingMode::FixedSize(1)),
            1,
        );
        for slot in 0..32u64 {
            for i in 0..8 {
                let l = sw.first_fabric(i, slot);
                assert_eq!(l, (i + slot as usize) % 8);
            }
            for l in 0..8 {
                let j = sw.second_fabric(l, slot);
                // Output j is reached from intermediate (j + t) mod N.
                assert_eq!((j + slot as usize) % 8, l);
            }
        }
    }

    #[test]
    fn single_packet_traverses_the_switch() {
        let mut sw = SprinklersSwitch::new(
            SprinklersConfig::new(8).with_sizing(SizingMode::FixedSize(1)),
            7,
        );
        sw.arrive(pkt(0, 3, 0, 0, 0));
        let delivered = drain(&mut sw, 0, 24);
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].packet.output(), 3);
        assert_eq!(sw.stats().total_departures, 1);
        assert_eq!(sw.stats().total_queued(), 0);
    }

    #[test]
    fn packet_is_never_delivered_in_its_arrival_slot_stage() {
        // A packet needs at least one slot to cross each fabric.
        let mut sw = SprinklersSwitch::new(
            SprinklersConfig::new(4).with_sizing(SizingMode::FixedSize(1)),
            3,
        );
        sw.arrive(pkt(0, 0, 0, 0, 0));
        let delivered = drain(&mut sw, 0, 16);
        assert_eq!(delivered.len(), 1);
        assert!(delivered[0].delay() >= 1);
    }

    #[test]
    fn all_packets_are_conserved() {
        let mut sw = SprinklersSwitch::new(
            SprinklersConfig::new(8).with_sizing(SizingMode::FixedSize(2)),
            11,
        );
        let mut id = 0u64;
        let mut seqs = vec![vec![0u64; 8]; 8];
        for slot in 0..64u64 {
            for (input, seq_row) in seqs.iter_mut().enumerate() {
                let output = (input + slot as usize) % 8;
                let seq = seq_row[output];
                seq_row[output] += 1;
                sw.arrive(pkt(input, output, id, slot, seq));
                id += 1;
            }
            sw.step(slot, &mut crate::switch::NullSink);
        }
        // Drain: with fixed stripe size 2 every VOQ has an even number of
        // packets (each VOQ received exactly 8 packets above), so everything
        // can leave the switch.
        let mut counter = crate::switch::CountingSink::default();
        for slot in 64..64 + 1024u64 {
            sw.step(slot, &mut counter);
        }
        assert_eq!(sw.stats().total_departures, id);
        assert!(
            counter.data_packets > 0,
            "the drain phase must deliver packets"
        );
        assert_eq!(sw.stats().total_queued(), 0);
    }

    #[test]
    fn voq_packets_depart_in_order() {
        // Hammer a single VOQ and check departures are in voq_seq order.
        for discipline in [InputDiscipline::StripeAtomic, InputDiscipline::RowScan] {
            for alignment in [AlignmentMode::Immediate, AlignmentMode::StripeComplete] {
                let mut sw = SprinklersSwitch::new(
                    SprinklersConfig::new(8)
                        .with_sizing(SizingMode::FixedSize(4))
                        .with_input_discipline(discipline)
                        .with_alignment(alignment),
                    5,
                );
                let mut delivered = Vec::new();
                for slot in 0..512u64 {
                    // Two packets per slot to VOQ (2, 6) would oversubscribe;
                    // one per slot is the maximum admissible rate.
                    sw.arrive(pkt(2, 6, slot, slot, slot));
                    sw.step(slot, &mut delivered);
                }
                for slot in 512..2048u64 {
                    sw.step(slot, &mut delivered);
                }
                let seqs: Vec<u64> = delivered.iter().map(|d| d.packet.voq_seq).collect();
                let mut sorted = seqs.clone();
                sorted.sort_unstable();
                assert_eq!(
                    seqs, sorted,
                    "reordering with discipline {discipline:?}, alignment {alignment:?}"
                );
                assert_eq!(delivered.len(), 512);
            }
        }
    }

    #[test]
    fn matrix_sizing_sets_expected_stripe_sizes() {
        let n = 32;
        let matrix = TrafficMatrix::uniform(n, 0.8);
        let sw = SprinklersSwitch::new(
            SprinklersConfig::new(n).with_sizing(SizingMode::FromMatrix(matrix)),
            9,
        );
        // Uniform 0.8 load: every VOQ has rate 0.8/32 = 0.025, F(r) = 32.
        assert_eq!(sw.voq_stripe_size(0, 0), 32);
        let matrix = TrafficMatrix::uniform(n, 0.1);
        let sw = SprinklersSwitch::new(
            SprinklersConfig::new(n).with_sizing(SizingMode::FromMatrix(matrix)),
            9,
        );
        // 0.1/32 * 32² = 3.2 → size 4.
        assert_eq!(sw.voq_stripe_size(5, 17), 4);
    }

    #[test]
    fn reconfigure_from_matrix_goes_through_clearance() {
        let n = 8;
        let matrix = TrafficMatrix::uniform(n, 0.1);
        let mut sw = SprinklersSwitch::new(
            SprinklersConfig::new(n).with_sizing(SizingMode::FromMatrix(matrix)),
            13,
        );
        let before = sw.voq_stripe_size(0, 0);
        let new_matrix = TrafficMatrix::uniform(n, 0.9);
        sw.reconfigure_from_matrix(&new_matrix);
        // Nothing was in flight, so the resize is immediate.
        assert_ne!(sw.voq_stripe_size(0, 0), before);
        assert!(sw.total_resizes() > 0);
    }

    #[test]
    fn step_batch_matches_slot_at_a_time_stepping() {
        for alignment in [AlignmentMode::Immediate, AlignmentMode::StripeComplete] {
            let config = || {
                SprinklersConfig::new(8)
                    .with_sizing(SizingMode::FixedSize(2))
                    .with_alignment(alignment)
            };
            let mut reference = SprinklersSwitch::new(config(), 11);
            let mut batched = SprinklersSwitch::new(config(), 11);
            // Preload a mix of VOQs, then compare pure stepping.
            for (k, (i, j)) in [(0, 3), (0, 3), (2, 5), (2, 5), (7, 1), (7, 1)]
                .into_iter()
                .enumerate()
            {
                let seq = (k % 2) as u64;
                reference.arrive(pkt(i, j, k as u64, 0, seq));
                batched.arrive(pkt(i, j, k as u64, 0, seq));
            }
            let expected = drain(&mut reference, 0, 40);
            let mut got = Vec::new();
            // Uneven splits, starting mid-frame after the first chunk.
            for (start, count) in [(0u64, 1u32), (1, 7), (8, 13), (21, 19)] {
                batched.step_batch(start, count, &mut got);
            }
            assert_eq!(got, expected, "alignment {alignment:?} diverged");
            assert_eq!(batched.stats().total_queued(), 0);
        }
    }

    /// The occupancy bitsets, every row of the phase index and the running
    /// counters must agree with brute-force port scans at every point of a
    /// random arrive/step interleaving — at n = 8 (single bitset word) and
    /// n = 128 (two words + summary level), under both alignments.
    #[test]
    fn occupancy_bitsets_agree_with_brute_force_scans() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        fn check(sw: &SprinklersSwitch, context: &str) {
            for i in 0..sw.n {
                assert_eq!(
                    sw.occupied_inputs.contains(i),
                    sw.inputs[i].has_servable(),
                    "{context}: input {i} occupancy bit diverged from the scheduler scan"
                );
            }
            for (l, port) in sw.intermediates.iter().enumerate() {
                for t in 0..sw.n {
                    let output = sw.second_fabric(l, t as u64);
                    assert_eq!(port.phase_of(output), t);
                    assert_eq!(
                        sw.ready.contains(t, l),
                        port.has_eligible_for(output),
                        "{context}: phase row {t} bit {l} diverged from the output_levels scan"
                    );
                }
                assert_eq!(
                    sw.staged_intermediates.contains(l),
                    port.has_staged(),
                    "{context}: intermediate {l} staged bit diverged from the port scan"
                );
            }
            // What batch elision reads in place of an intermediate bitset.
            assert_eq!(
                sw.queued_intermediates == 0,
                sw.intermediates.iter().all(|p| p.queued_packets() == 0),
                "{context}: elision disagrees with the port scan"
            );
            assert_eq!(
                sw.queued_inputs,
                sw.inputs.iter().map(|p| p.queued_packets()).sum::<usize>(),
                "{context}: input counter diverged"
            );
            assert_eq!(
                sw.queued_intermediates,
                sw.intermediates
                    .iter()
                    .map(|p| p.queued_packets())
                    .sum::<usize>(),
                "{context}: intermediate counter diverged"
            );
            assert_eq!(
                sw.store.live(),
                sw.queued_inputs + sw.queued_intermediates,
                "{context}: the store holds a packet no queue does, or the reverse"
            );
        }

        for n in [8usize, 128] {
            for alignment in [AlignmentMode::Immediate, AlignmentMode::StripeComplete] {
                let mut sw = SprinklersSwitch::new(
                    SprinklersConfig::new(n)
                        .with_sizing(SizingMode::FixedSize(2))
                        .with_alignment(alignment),
                    3,
                );
                let mut rng = StdRng::seed_from_u64(42);
                let mut voq_seq = vec![0u64; n * n];
                let mut id = 0u64;
                for slot in 0..(6 * n as u64) {
                    for input in 0..n {
                        if rng.gen_range(0.0..1.0) < 0.3 {
                            let output = rng.gen_range(0..n);
                            let key = input * n + output;
                            sw.arrive(pkt(input, output, id, slot, voq_seq[key]));
                            voq_seq[key] += 1;
                            id += 1;
                        }
                    }
                    sw.step(slot, &mut crate::switch::NullSink);
                    if slot % 5 == 0 {
                        check(&sw, &format!("n={n} {alignment:?} slot={slot}"));
                    }
                }
                for slot in (6 * n as u64)..(20 * n as u64) {
                    sw.step(slot, &mut crate::switch::NullSink);
                }
                check(&sw, &format!("n={n} {alignment:?} post-drain"));
            }
        }
    }

    /// The phase index sends the second-fabric walk only to ports that
    /// deliver: on the wide, sparse cell where the per-port walk made about
    /// twenty visits per delivery, visits and deliveries are the same number.
    #[test]
    fn second_fabric_visits_equal_deliveries() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let n = 256usize;
        let matrix = TrafficMatrix::diagonal(n, 0.05);
        let mut sw = SprinklersSwitch::new(
            SprinklersConfig::new(n).with_sizing(SizingMode::FromMatrix(matrix)),
            2014,
        );
        let mut rng = StdRng::seed_from_u64(7);
        let mut voq_seq = vec![0u64; n * n];
        let mut id = 0u64;
        let offered = 40 * n as u64;
        for slot in 0..offered + 40 * n as u64 {
            for input in 0..n {
                if slot < offered && rng.gen_range(0.0..1.0) < 0.05 {
                    // Quasi-diagonal: half to the input's own output.
                    let output = if rng.gen_range(0.0..1.0) < 0.5 {
                        input
                    } else {
                        rng.gen_range(0..n)
                    };
                    let key = input * n + output;
                    sw.arrive(pkt(input, output, id, slot, voq_seq[key]));
                    voq_seq[key] += 1;
                    id += 1;
                }
            }
            sw.step(slot, &mut crate::switch::NullSink);
        }
        let delivered = sw.stats().total_departures;
        assert!(delivered > 10_000, "only {delivered} deliveries");
        assert_eq!(sw.second_fabric_visits, delivered);
    }

    #[test]
    fn stats_track_occupancy() {
        let mut sw = SprinklersSwitch::new(
            SprinklersConfig::new(4).with_sizing(SizingMode::FixedSize(2)),
            1,
        );
        sw.arrive(pkt(0, 1, 0, 0, 0));
        assert_eq!(sw.stats().queued_at_inputs, 1);
        assert_eq!(sw.stats().total_arrivals, 1);
        sw.arrive(pkt(0, 1, 1, 0, 1));
        assert_eq!(sw.stats().queued_at_inputs, 2);
    }
}
