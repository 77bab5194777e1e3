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
use crate::input_port::SprinklersInputPort;
use crate::matrix::TrafficMatrix;
use crate::ols::WeaklyUniformOls;
use crate::packet::Packet;
use crate::rng::SimRng;
use crate::sizing::stripe_size;
use crate::store::{PacketHandle, PacketStore};
use crate::switch::Switch;
use crate::two_stage::{InputPolicy, Served, TwoStage};

/// A complete Sprinklers switch.
pub type SprinklersSwitch = TwoStage<Sprinklers>;

/// Sprinklers' input stage: one [`SprinklersInputPort`] per input, and the
/// switch-wide state its accessors report.
pub struct Sprinklers {
    config: SprinklersConfig,
    ols: WeaklyUniformOls,
    inputs: Vec<SprinklersInputPort>,
    /// Committed stripe-size changes across all VOQs.
    resizes: u64,
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
    pub fn try_new(config: SprinklersConfig, seed: u64) -> Result<Self, SwitchError> {
        config.validate()?;
        let mut rng = SimRng::seed_from_u64(seed);
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
        let policy = Sprinklers {
            config,
            ols,
            inputs,
            resizes: 0,
        };
        TwoStage::with_policy(n, policy)
    }

    /// The switch's OLS (primary intermediate port of every VOQ).
    pub fn ols(&self) -> &WeaklyUniformOls {
        &self.policy().ols
    }

    /// The switch's configuration.
    pub fn config(&self) -> &SprinklersConfig {
        &self.policy().config
    }

    /// Current stripe size of the VOQ at `input` destined to `output`.
    pub fn voq_stripe_size(&self, input: usize, output: usize) -> usize {
        self.policy().inputs[input].voq(output).stripe_size()
    }

    /// Reconfigure every VOQ's stripe size from a new traffic matrix.  Each
    /// VOQ that changes size goes through the clearance phase (§5) before the
    /// new size takes effect, so packet order is preserved across the
    /// reconfiguration.
    pub fn reconfigure_from_matrix(&mut self, matrix: &TrafficMatrix) {
        let n = self.n();
        assert_eq!(matrix.n(), n);
        self.update_inputs(|policy, input| {
            let port = &mut policy.inputs[input];
            for output in 0..n {
                let size = stripe_size(matrix.rate(input, output), n);
                policy.resizes += u64::from(port.request_resize(output, size));
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
        crate::lsf::levels(self.config.n)
    }

    /// Adaptive sizing observes idle slots: its VOQs shrink.
    fn maintains(&self) -> bool {
        matches!(self.config.sizing, SizingMode::Adaptive(_))
    }

    /// The arrival may complete a stripe — or, under adaptive sizing, commit
    /// a resize that releases backlogged ones.
    // lint: hot-path
    #[inline]
    fn arrive(&mut self, packet: &Packet, handle: PacketHandle) -> bool {
        let port = &mut self.inputs[packet.input()];
        self.resizes += u64::from(port.arrive(packet, handle));
        port.has_servable()
    }

    // lint: hot-path
    #[inline]
    fn warm(&self, packet: &Packet) -> u64 {
        self.inputs[packet.input()].warm_arrival(packet.output())
    }

    /// The LSF dequeue for the connected intermediate port.
    // lint: hot-path
    #[inline]
    fn serve(
        &mut self,
        input: usize,
        connected: usize,
        _slot: u64,
        _store: &mut PacketStore,
    ) -> Served {
        let port = &mut self.inputs[input];
        let served = port.dequeue(connected);
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
        self.resizes += u64::from(port.packet_delivered(packet.output()));
        port.has_servable()
    }

    fn maintain(&mut self, input: usize, slot: u64) -> bool {
        let port = &mut self.inputs[input];
        self.resizes += u64::from(port.maintain(slot));
        port.has_servable()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{first_fabric_at, second_fabric_output_at};
    use crate::packet::DeliveredPacket;
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
