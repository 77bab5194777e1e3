//! The full Sprinklers switch: the two-stage kernel ([`TwoStage`]) run by
//! Sprinklers' input policy.
//!
//! Sprinklers is the load-balanced switch of Fig. 1 with two changes, and
//! both are a policy here.  Each input groups a VOQ's packets into stripes
//! sized from the VOQ's rate and hands the first fabric the largest stripe
//! first ([`SprinklersInputPort`]); the intermediate ports keep one FIFO per
//! stripe-size level (`log₂N + 1` of them) and serve the largest stripe
//! first too.  Everything else — the packet store, the two periodic fabrics,
//! the phase index of the second fabric, departure stamping, batched
//! stepping with elision — is the kernel the baselines run on, which is the
//! "comparable implementation cost" the paper claims for Sprinklers.

use crate::config::{SizingMode, SprinklersConfig};
use crate::error::SwitchError;
use crate::fifo::FifoGrid;
use crate::input_port::SprinklersInputPort;
use crate::lsf::Lsf;
use crate::matrix::TrafficMatrix;
use crate::ols::WeaklyUniformOls;
use crate::packet::Packet;
use crate::rng::SimRng;
use crate::sizing::stripe_size;
use crate::store::{PacketHandle, PacketStore};
use crate::switch::Switch;
use crate::two_stage::{InputPolicy, Served, TwoStage};
use crate::voq::{AdaptiveRule, StartLevels};

/// A complete Sprinklers switch.
pub type SprinklersSwitch = TwoStage<Sprinklers>;

/// Sprinklers' input stage: one [`SprinklersInputPort`] per input, the one
/// queue grid they all share, the OLS their VOQs derive their primary ports
/// from, and the switch-wide state its accessors report.
pub struct Sprinklers {
    /// Adaptive sizing's constants, kept once for every VOQ; its idle slots
    /// shrink the VOQs' stripes.
    adaptive: Option<AdaptiveRule>,
    /// The weakly uniform random OLS: two permutations, O(N), from which a
    /// VOQ's primary port is derived each time it releases a stripe.
    ols: WeaklyUniformOls,
    /// Every input's queues: input `i`'s LSF schedule is its range of
    /// `2N − 1` queues, and all VOQ ready queues draw on the grid's pool.
    /// The ends of all `N·(2N − 1)` queues are one zeroed block, so a page
    /// of them is committed only once one of its queues is used.
    queues: FifoGrid,
    inputs: Vec<SprinklersInputPort>,
    /// Committed stripe-size changes across all VOQs.
    resizes: u64,
}

/// [`stripe_size`] of a stream of rates, computed once per value unless
/// the value is neither of the last two seen: a row of a synthetic matrix
/// holds two values, and the rows of a dense one mostly repeat theirs.
struct RateSizes {
    n: usize,
    /// `(rate bits, size)` of the last two distinct rates, newest first.
    seen: [(u64, usize); 2],
}

impl RateSizes {
    fn new(n: usize) -> Self {
        // All ones is a NaN's bits, and no validated rate is a NaN.
        RateSizes {
            n,
            seen: [(u64::MAX, 0); 2],
        }
    }

    fn of(&mut self, rate: f64) -> usize {
        let bits = rate.to_bits();
        if self.seen[1].0 == bits {
            self.seen.swap(0, 1);
        } else if self.seen[0].0 != bits {
            self.seen = [(bits, stripe_size(rate, self.n)), self.seen[0]];
        }
        self.seen[0].1
    }
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
    ///
    /// Construction does O(N) work plus zeroed allocations: the sizing
    /// rule is evaluated once per distinct rate — one fixed size, adaptive
    /// sizing's initial size, or the two values of a synthetic matrix — and
    /// becomes each port's [`StartLevels`], so no VOQ record is written.
    /// Only a dense matrix pays one pass over its entries.
    pub fn try_new(config: SprinklersConfig, seed: u64) -> Result<Self, SwitchError> {
        config.validate()?;
        let n = config.n;
        let ols = WeaklyUniformOls::random(n, &mut SimRng::seed_from_u64(seed));
        let adaptive = match &config.sizing {
            SizingMode::Adaptive(params) => Some(AdaptiveRule::new(n, params)),
            _ => None,
        };
        let uniform = |start: StartLevels| -> Vec<SprinklersInputPort> {
            (0..n)
                .map(|i| SprinklersInputPort::new(i, n, start, adaptive.as_ref()))
                .collect()
        };
        let inputs = match &config.sizing {
            SizingMode::FixedSize(size) => uniform(StartLevels::uniform(*size)),
            SizingMode::Adaptive(params) => {
                uniform(StartLevels::uniform(params.initial_size.clamp(1, n)))
            }
            SizingMode::FromMatrix(matrix) => match matrix.one_entry_per_row() {
                Some((shift, hot, rest)) => {
                    let (hot, rest) = (stripe_size(hot, n), stripe_size(rest, n));
                    (0..n)
                        .map(|i| {
                            let start = StartLevels::one_hot((i + shift) % n, hot, rest);
                            SprinklersInputPort::new(i, n, start, None)
                        })
                        .collect()
                }
                None => {
                    let mut sizes = RateSizes::new(n);
                    (0..n)
                        .map(|i| {
                            let mut port =
                                SprinklersInputPort::new(i, n, StartLevels::uniform(1), None);
                            for j in 0..n {
                                port.start_at(j, sizes.of(matrix.rate(i, j)));
                            }
                            port
                        })
                        .collect()
                }
            },
        };
        let policy = Sprinklers {
            adaptive,
            ols,
            queues: FifoGrid::new(n * Lsf::queue_count(n)),
            inputs,
            resizes: 0,
        };
        Ok(TwoStage::with_policy(n, policy))
    }

    /// Current stripe size of the VOQ at `input` destined to `output`.
    pub fn voq_stripe_size(&self, input: usize, output: usize) -> usize {
        self.policy().inputs[input].voqs().stripe_size(output)
    }

    /// Reconfigure every VOQ's stripe size from a new traffic matrix.  Each
    /// VOQ that changes size goes through the clearance phase (§5) before the
    /// new size takes effect, so packet order is preserved across the
    /// reconfiguration.
    pub fn reconfigure_from_matrix(&mut self, matrix: &TrafficMatrix) {
        let n = self.n();
        assert_eq!(matrix.n(), n);
        let mut sizes = RateSizes::new(n);
        self.update_inputs(|policy, input| {
            let port = &mut policy.inputs[input];
            for output in 0..n {
                let size = sizes.of(matrix.rate(input, output));
                policy.resizes +=
                    u64::from(port.request_resize(&mut policy.queues, output, size, &policy.ols));
            }
            // Immediately-committed resizes can release backlogged stripes
            // into the scheduler.
            port.has_servable()
        });
    }

    /// Cumulative number of committed stripe-size changes across all VOQs,
    /// from a running counter bumped on commit (O(1)).
    pub fn total_resizes(&self) -> u64 {
        self.policy().resizes
    }
}

impl InputPolicy for Sprinklers {
    const NAME: &'static str = "sprinklers";

    fn levels(&self) -> usize {
        crate::lsf::levels(self.inputs.len())
    }

    /// Adaptive sizing observes idle slots: its VOQs shrink.
    fn maintains(&self) -> bool {
        self.adaptive.is_some()
    }

    /// The arrival may complete a stripe — or, under adaptive sizing, commit
    /// a resize that releases backlogged ones.
    // lint: hot-path
    #[inline]
    fn arrive(&mut self, packet: &Packet, store: impl FnOnce() -> PacketHandle) -> bool {
        let port = &mut self.inputs[packet.input()];
        let resized = port.arrive(
            &mut self.queues,
            packet,
            store,
            &self.ols,
            self.adaptive.as_ref(),
        );
        self.resizes += u64::from(resized);
        port.has_servable()
    }

    // lint: hot-path
    #[inline]
    fn warm(&self, packet: &Packet) -> u64 {
        self.inputs[packet.input()].warm_arrival(&self.queues, packet.output())
    }

    /// The LSF dequeue for the connected intermediate port, which writes the
    /// body of a packet the input held by value.
    // lint: hot-path
    #[inline]
    fn serve(
        &mut self,
        input: usize,
        connected: usize,
        _slot: u64,
        store: &mut PacketStore,
    ) -> Served {
        let port = &mut self.inputs[input];
        let served = port.dequeue(&mut self.queues, store, connected);
        Served {
            sent: served.map(|(handle, output, _)| (handle, output)),
            stripe_size: served.map_or(1, |(.., level)| 1 << level),
            minted: 0,
            servable: port.has_servable(),
        }
    }

    /// Clearance-phase accounting: the delivery may commit a pending resize,
    /// which can release backlogged stripes into the input's scheduler.
    // lint: hot-path
    #[inline]
    fn delivered(&mut self, packet: &Packet) -> bool {
        let port = &mut self.inputs[packet.input()];
        let resized = port.packet_delivered(&mut self.queues, packet.output(), &self.ols);
        self.resizes += u64::from(resized);
        port.has_servable()
    }

    fn maintain(&mut self, input: usize, slot: u64) -> bool {
        let port = &mut self.inputs[input];
        if let Some(rule) = &self.adaptive {
            self.resizes += u64::from(port.maintain(&mut self.queues, slot, &self.ols, rule));
        }
        port.has_servable()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{first_fabric_at, second_fabric_output_at};
    use crate::packet::DeliveredPacket;
    use crate::stripe::stamp_routing;
    use crate::two_stage::CheckInput;

    impl CheckInput for Sprinklers {
        fn check_input(&self, input: usize, servable: bool) -> usize {
            let port = &self.inputs[input];
            assert_eq!(
                servable,
                port.has_servable(),
                "input {input} occupancy bit diverged from the scheduler scan"
            );
            // The kernel holds its input counter against the ports' own.
            port.queued_packets()
        }

        fn held_by_value(&self, input: usize) -> usize {
            self.inputs[input].held_by_value(&self.queues)
        }
    }

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
        let n = 8;
        for slot in 0..32u64 {
            let t = (slot % n as u64) as usize;
            for i in 0..n {
                let l = first_fabric_at(i, t, n);
                assert_eq!(l, (i + slot as usize) % n);
            }
            for l in 0..n {
                let j = second_fabric_output_at(l, t, n);
                // Output j is reached from intermediate (j + t) mod N.
                assert_eq!((j + slot as usize) % n, l);
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
        let mut sw = SprinklersSwitch::new(
            SprinklersConfig::new(8).with_sizing(SizingMode::FixedSize(4)),
            5,
        );
        let mut delivered = Vec::new();
        for slot in 0..512u64 {
            // Two packets per slot to VOQ (2, 6) would oversubscribe; one per
            // slot is the maximum admissible rate.
            sw.arrive(pkt(2, 6, slot, slot, slot));
            sw.step(slot, &mut delivered);
        }
        for slot in 512..2048u64 {
            sw.step(slot, &mut delivered);
        }
        let seqs: Vec<u64> = delivered.iter().map(|d| d.packet.voq_seq).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(seqs, sorted, "reordering");
        assert_eq!(delivered.len(), 512);
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

    /// Construction writes no VOQ record, yet every VOQ reads back the
    /// sizing rule's stripe size and the OLS's primary port — under each
    /// sizing, at n = 2, 64 and 256, and again after a reconfiguration.
    #[test]
    fn derived_voq_fields_match_the_sizing_rule_and_the_ols() {
        use crate::config::AdaptiveSizing;
        for n in [2usize, 64, 256] {
            let hotspot = TrafficMatrix::hotspot(n, 0.6, 0.3);
            let sizings = [
                SizingMode::FromMatrix(TrafficMatrix::uniform(n, 0.3)),
                SizingMode::FromMatrix(TrafficMatrix::diagonal(n, 0.05)),
                SizingMode::FromMatrix(hotspot.clone()),
                SizingMode::FromMatrix(TrafficMatrix::diagonal(n, 0.5).scaled(1.0)),
                SizingMode::FixedSize(2),
                SizingMode::Adaptive(AdaptiveSizing {
                    initial_size: n / 2,
                    ..AdaptiveSizing::default()
                }),
            ];
            for (k, sizing) in sizings.into_iter().enumerate() {
                let seed = 40 + k as u64;
                let expected: Box<dyn Fn(usize, usize) -> usize> = match &sizing {
                    SizingMode::FromMatrix(m) => {
                        let m = m.clone();
                        Box::new(move |i, j| stripe_size(m.rate(i, j), n))
                    }
                    SizingMode::FixedSize(size) => {
                        let size = *size;
                        Box::new(move |_, _| size)
                    }
                    SizingMode::Adaptive(params) => {
                        let size = params.initial_size;
                        Box::new(move |_, _| size)
                    }
                };
                let mut sw =
                    SprinklersSwitch::new(SprinklersConfig::new(n).with_sizing(sizing), seed);
                let ols = WeaklyUniformOls::random(n, &mut SimRng::seed_from_u64(seed));
                let check = |sw: &SprinklersSwitch, size: &dyn Fn(usize, usize) -> usize| {
                    for i in 0..n {
                        for j in 0..n {
                            assert_eq!(
                                sw.voq_stripe_size(i, j),
                                size(i, j),
                                "n {n} case {k} ({i}, {j})"
                            );
                            assert_eq!(sw.policy().ols.primary_port(i, j), ols.primary_port(i, j));
                        }
                    }
                };
                check(&sw, &*expected);
                // Nothing is in flight, so every resize commits at once.
                let next = if k == 2 {
                    TrafficMatrix::diagonal(n, 0.9)
                } else {
                    hotspot.clone()
                };
                sw.reconfigure_from_matrix(&next);
                check(&sw, &|i, j| stripe_size(next.rate(i, j), n));
            }
        }
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
        let config = || SprinklersConfig::new(8).with_sizing(SizingMode::FixedSize(2));
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
        assert_eq!(got, expected);
        assert_eq!(batched.stats().total_queued(), 0);
    }

    /// The occupancy bitsets, every row of the phase index and the running
    /// counters must agree with brute-force port scans at every point of a
    /// random arrive/step interleaving — at n = 8 (single bitset word) and
    /// n = 128 (two words + summary level).
    #[test]
    fn occupancy_bitsets_agree_with_brute_force_scans() {
        for n in [8usize, 128] {
            let mut sw = SprinklersSwitch::new(
                SprinklersConfig::new(n).with_sizing(SizingMode::FixedSize(2)),
                3,
            );
            let mut rng = SimRng::seed_from_u64(42);
            let mut voq_seq = vec![0u64; n * n];
            let mut id = 0u64;
            for slot in 0..(6 * n as u64) {
                for input in 0..n {
                    if rng.unit_f64() < 0.3 {
                        let output = rng.below(n as u64) as usize;
                        let key = input * n + output;
                        sw.arrive(pkt(input, output, id, slot, voq_seq[key]));
                        voq_seq[key] += 1;
                        id += 1;
                    }
                }
                sw.step(slot, &mut crate::switch::NullSink);
                if slot % 5 == 0 {
                    sw.assert_consistent();
                }
            }
            for slot in (6 * n as u64)..(20 * n as u64) {
                sw.step(slot, &mut crate::switch::NullSink);
            }
            sw.assert_consistent();
        }
    }

    /// The phase index sends the second-fabric walk only to ports that
    /// deliver: on the wide, sparse cell where the per-port walk made about
    /// twenty visits per delivery, visits and deliveries are the same number.
    #[test]
    fn second_fabric_visits_equal_deliveries() {
        let n = 256usize;
        let matrix = TrafficMatrix::diagonal(n, 0.05);
        let mut sw = SprinklersSwitch::new(
            SprinklersConfig::new(n).with_sizing(SizingMode::FromMatrix(matrix)),
            2014,
        );
        let mut rng = SimRng::seed_from_u64(7);
        let mut voq_seq = vec![0u64; n * n];
        let mut id = 0u64;
        let offered = 40 * n as u64;
        for slot in 0..offered + 40 * n as u64 {
            for input in 0..n {
                if slot < offered && rng.unit_f64() < 0.05 {
                    // Quasi-diagonal: half to the input's own output.
                    let output = if rng.unit_f64() < 0.5 {
                        input
                    } else {
                        rng.below(n as u64) as usize
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

    /// Run `arrivals` — `(slot offset, input, output)`, in slot order —
    /// through a switch built from `config`, from slot `origin` until 64·N
    /// slots past the last arrival, reconfiguring at the offsets listed in
    /// `reconfigure`.  Packet `k` gets its identity from
    /// `identity(k, slot, input, output)`.  Returns the packets offered and
    /// the deliveries; the switch is checked against brute-force scans every
    /// 16 slots.
    fn run_identities(
        config: &SprinklersConfig,
        reconfigure: &[(u64, TrafficMatrix)],
        origin: u64,
        arrivals: &[(u64, usize, usize)],
        mut identity: impl FnMut(usize, u64, usize, usize) -> Packet,
    ) -> (Vec<Packet>, Vec<DeliveredPacket>, u64) {
        let mut sw = SprinklersSwitch::new(config.clone(), 5);
        let (mut offered, mut delivered) = (Vec::new(), Vec::new());
        let mut pending = arrivals.iter().peekable();
        let end = arrivals.last().map_or(0, |a| a.0) + 64 * config.n as u64;
        for offset in 0..end {
            for (_, matrix) in reconfigure.iter().filter(|r| r.0 == offset) {
                sw.reconfigure_from_matrix(matrix);
            }
            while let Some(&(_, input, output)) = pending.next_if(|a| a.0 == offset) {
                let packet = identity(offered.len(), origin + offset, input, output);
                offered.push(packet.clone());
                sw.arrive(packet);
            }
            sw.step(origin + offset, &mut delivered);
            if offset % 16 == 0 {
                sw.assert_consistent();
            }
        }
        sw.assert_consistent();
        (offered, delivered, sw.total_resizes())
    }

    /// Scheduling never reads a packet's identity, so one arrival schedule
    /// run twice — once with benign identities (ids 0, 1, 2, …, flow 0,
    /// consecutive seqs), once with adversarial ones — must depart the
    /// same packets in the same slots through the same ports, and every
    /// adversarial packet must come back exact.  The adversary mixes, inside
    /// one VOQ's run, ids and arrival slots on both sides of a by-value
    /// entry's bounds (u32::MAX, 2³¹), seqs that jump, repeat, stay 0 as a
    /// fabric cell's do or cross 2³², and non-zero flows.  It runs under
    /// fixed sizes, under a matrix reconfigured mid-run (a shrink that
    /// commits over a backlog releases stripes that leave packets behind),
    /// and under adaptive sizing, whose VOQs shrink the same way; arrival
    /// slots drive adaptive sizing, so there they are the real ones.
    #[test]
    fn identities_never_change_the_schedule_and_come_back_exact() {
        use crate::config::AdaptiveSizing;
        const N: usize = 8;
        let mut rng = SimRng::seed_from_u64(2014);
        let mut arrivals = Vec::new();
        for offset in 0..320u64 {
            for input in 0..N {
                if rng.unit_f64() < 0.6 {
                    arrivals.push((offset, input, rng.below(N as u64) as usize));
                }
            }
        }
        let adaptive = AdaptiveSizing {
            window: 32,
            gamma: 1.0,
            patience: 0,
            initial_size: N,
        };
        let cases = [
            (SizingMode::FixedSize(4), vec![], 0, true),
            (
                SizingMode::FromMatrix(TrafficMatrix::uniform(N, 0.9)),
                vec![
                    (120, TrafficMatrix::uniform(N, 0.02)),
                    (220, TrafficMatrix::uniform(N, 0.3)),
                ],
                0,
                true,
            ),
            (SizingMode::Adaptive(adaptive), vec![], 0, false),
        ];
        for (sizing, reconfigure, origin, vary_slots) in cases {
            let config = SprinklersConfig::new(N).with_sizing(sizing);
            let mut seqs = vec![0u64; N * N];
            let benign = |k: usize, slot, input: usize, output: usize| {
                let seq = &mut seqs[input * N + output];
                *seq += 1;
                Packet::new(input, output, k as u64, slot).with_voq_seq(*seq - 1)
            };
            let (_, calm, calm_resizes) =
                run_identities(&config, &reconfigure, origin, &arrivals, benign);
            let wide = 1u64 << 32;
            let mut next_seq: Vec<u64> =
                (0..N * N).map(|v| [0, 9, wide - 3, wide][v % 4]).collect();
            let adversary = |k: usize, slot: u64, input: usize, output: usize| {
                let bits = (k as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                let next = &mut next_seq[input * N + output];
                let seq = match bits >> 61 {
                    0 => *next + 1 + (bits >> 32) % 4,
                    1 => next.saturating_sub(1),
                    2 => 0,
                    _ => *next,
                };
                *next = (*next).max(seq + 1);
                let id = [k as u64, wide - 2, wide - 1, wide, k as u64 | 1 << 40]
                    [(bits >> 8) as usize % 5];
                let half = 1u64 << 31;
                let slots = [slot, half - 1, half, half + 1, wide - 1, wide, slot, slot];
                let slot = if vary_slots {
                    slots[(bits >> 16) as usize % 8]
                } else {
                    slot
                };
                let flow = if (bits >> 24).is_multiple_of(5) {
                    bits >> 40 | 1
                } else {
                    0
                };
                Packet::new(input, output, id, slot)
                    .with_voq_seq(seq)
                    .with_flow(flow)
            };
            let (offered, wild, wild_resizes) =
                run_identities(&config, &reconfigure, origin, &arrivals, adversary);
            assert!(
                calm.len() * 2 > offered.len(),
                "only {} delivered",
                calm.len()
            );
            assert_eq!(calm.len(), wild.len());
            assert_eq!(calm_resizes, wild_resizes);
            assert_eq!(calm_resizes > 0, !reconfigure.is_empty() || !vary_slots);
            for (a, b) in calm.iter().zip(&wild) {
                assert_eq!(a.departure_slot, b.departure_slot);
                let mut want = offered[a.packet.id as usize].clone();
                stamp_routing(&mut want, a.packet.intermediate(), a.packet.stripe_size());
                assert_eq!(want.stripe_index(), a.packet.stripe_index());
                assert_eq!(b.packet, want, "departure slot {}", a.departure_slot);
            }
        }
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
