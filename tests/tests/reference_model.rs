//! Differential oracle for the Sprinklers data path.
//!
//! [`ReferenceSprinklers`] is the switch written straight from the paper's
//! description, with none of the machinery the production core uses to go
//! fast: every queue is a `VecDeque<Packet>` holding packets by value, a
//! stripe is a `Vec<Packet>` whose routing header is written when the stripe
//! is assembled, every per-slot loop is a dense `0..N`, and there are no
//! occupancy bitsets, no batching, no packet store, no handles and no pools.
//! It covers fixed and matrix-driven sizing.
//!
//! The property: for any arrival schedule, the production switch — at batch 1
//! or 64 — delivers exactly the reference's `DeliveredPacket`s in exactly its
//! order.  Equality is on the whole record, so it also pins the `stripe_size`
//! / `stripe_index` / `intermediate` fields the core derives at delivery
//! against the values the reference stamped at assembly.

use proptest::prelude::*;
use sprinklers_core::matrix::TrafficMatrix;
use sprinklers_core::ols::WeaklyUniformOls;
use sprinklers_core::packet::{DeliveredPacket, Packet};
use sprinklers_core::rng::SimRng;
use sprinklers_core::sizing::stripe_size;
use sprinklers_core::switch::{Switch, SwitchStats};
use sprinklers_integration_tests::drive_schedule;
use sprinklers_sim::registry;
use sprinklers_sim::spec::SizingSpec;
use std::collections::VecDeque;

// ---------------------------------------------------------------------------
// The reference model
// ---------------------------------------------------------------------------

/// A stripe as the paper draws it: `packets[o]` goes through intermediate
/// port `start + o`.
struct RefStripe {
    start: usize,
    packets: Vec<Packet>,
}

struct RefVoq {
    /// Stripe size (fixed for the run) and first port of the stripe interval.
    size: usize,
    start: usize,
    ready: VecDeque<Packet>,
}

struct RefInput {
    voqs: Vec<RefVoq>,
    /// `stripes[level][index]`, one FIFO per dyadic interval.
    stripes: Vec<Vec<VecDeque<RefStripe>>>,
    /// The stripe being served and its next offset.
    in_service: Option<(RefStripe, usize)>,
}

struct RefIntermediate {
    /// `queues[output][level]`.
    queues: Vec<Vec<VecDeque<Packet>>>,
}

struct ReferenceSprinklers {
    n: usize,
    levels: usize,
    inputs: Vec<RefInput>,
    intermediates: Vec<RefIntermediate>,
    arrivals: u64,
    departures: u64,
}

impl ReferenceSprinklers {
    /// `size_of(input, output)` is the VOQ's stripe size; primary ports come
    /// from the same seeded OLS the production constructor draws.
    fn new(n: usize, seed: u64, size_of: impl Fn(usize, usize) -> usize) -> Self {
        let ols = WeaklyUniformOls::random(n, &mut SimRng::seed_from_u64(seed));
        let levels = n.trailing_zeros() as usize + 1;
        let level_queues = || (0..levels).map(|_| VecDeque::new()).collect::<Vec<_>>();
        let inputs = (0..n)
            .map(|i| RefInput {
                voqs: (0..n)
                    .map(|j| {
                        let size = size_of(i, j).clamp(1, n);
                        assert!(size.is_power_of_two());
                        RefVoq {
                            size,
                            start: ols.primary_port(i, j) / size * size,
                            ready: VecDeque::new(),
                        }
                    })
                    .collect(),
                stripes: (0..levels)
                    .map(|level| (0..n >> level).map(|_| VecDeque::new()).collect())
                    .collect(),
                in_service: None,
            })
            .collect();
        let intermediates = (0..n)
            .map(|_| RefIntermediate {
                queues: (0..n).map(|_| level_queues()).collect(),
            })
            .collect();
        ReferenceSprinklers {
            n,
            levels,
            inputs,
            intermediates,
            arrivals: 0,
            departures: 0,
        }
    }

    fn arrive(&mut self, packet: Packet) {
        self.arrivals += 1;
        let input = &mut self.inputs[packet.input()];
        let voq = &mut input.voqs[packet.output()];
        voq.ready.push_back(packet);
        if voq.ready.len() < voq.size {
            return;
        }
        // A full stripe: stamp the routing header and plaster it.
        let mut packets: Vec<Packet> = voq.ready.drain(..voq.size).collect();
        for (offset, p) in packets.iter_mut().enumerate() {
            p.set_stripe_size(voq.size);
            p.set_stripe_index(offset);
            p.set_intermediate(voq.start + offset);
        }
        let (start, level) = (voq.start, voq.size.trailing_zeros() as usize);
        input.stripes[level][start >> level].push_back(RefStripe { start, packets });
    }

    /// What input `i` sends to intermediate `row` in this slot.
    fn serve_input(&mut self, i: usize, row: usize) -> Option<Packet> {
        let input = &mut self.inputs[i];
        if input.in_service.is_none() {
            // Largest stripe whose interval starts at this row.
            let stripe = (0..self.levels)
                .rev()
                .filter(|level| row.is_multiple_of(1 << level))
                .find_map(|level| input.stripes[level][row >> level].pop_front())?;
            input.in_service = Some((stripe, 0));
        }
        let (stripe, offset) = input.in_service.as_mut()?;
        assert_eq!(
            stripe.start + *offset,
            row,
            "stripes are served contiguously"
        );
        let packet = stripe.packets[*offset].clone();
        *offset += 1;
        if *offset == stripe.packets.len() {
            input.in_service = None;
        }
        Some(packet)
    }

    fn receive(&mut self, l: usize, packet: Packet) {
        let level = packet.stripe_size().trailing_zeros() as usize;
        self.intermediates[l].queues[packet.output()][level].push_back(packet);
    }

    fn step(&mut self, slot: u64, out: &mut Vec<DeliveredPacket>) {
        let n = self.n;
        let t = (slot % n as u64) as usize;
        // Second fabric first, so no packet crosses both in one slot.
        for l in 0..n {
            let output = (l + n - t) % n;
            let queues = &mut self.intermediates[l].queues[output];
            if let Some(packet) = (0..self.levels)
                .rev()
                .find_map(|level| queues[level].pop_front())
            {
                self.departures += 1;
                out.push(DeliveredPacket::new(packet, slot));
            }
        }
        for i in 0..n {
            let l = (i + t) % n;
            if let Some(packet) = self.serve_input(i, l) {
                assert_eq!(packet.intermediate(), l);
                self.receive(l, packet);
            }
        }
    }

    fn stats(&self) -> SwitchStats {
        let queued_at_inputs = self
            .inputs
            .iter()
            .map(|input| {
                let ready: usize = input.voqs.iter().map(|v| v.ready.len()).sum();
                let stripes: usize = input
                    .stripes
                    .iter()
                    .flatten()
                    .flatten()
                    .map(|s| s.packets.len())
                    .sum();
                let in_service = input
                    .in_service
                    .as_ref()
                    .map_or(0, |(s, offset)| s.packets.len() - offset);
                ready + stripes + in_service
            })
            .sum();
        let queued_at_intermediates = self
            .intermediates
            .iter()
            .map(|port| {
                port.queues
                    .iter()
                    .flatten()
                    .map(VecDeque::len)
                    .sum::<usize>()
            })
            .sum();
        SwitchStats {
            queued_at_inputs,
            queued_at_intermediates,
            queued_at_outputs: 0,
            total_arrivals: self.arrivals,
            total_departures: self.departures,
            total_dropped: 0,
        }
    }
}

// ---------------------------------------------------------------------------
// The differential harness
// ---------------------------------------------------------------------------

/// How a case sizes its stripes.
#[derive(Debug, Clone)]
enum Sizing {
    Fixed(usize),
    Matrix(TrafficMatrix),
}

/// A matrix whose VOQ `(i, i + k)` rates fall steeply with `k`, so one switch
/// mixes stripes of every size from N down to 1.
fn skewed_matrix(n: usize) -> TrafficMatrix {
    let mut matrix = TrafficMatrix::zero(n);
    for i in 0..n {
        for (k, rate) in [0.5, 0.2, 0.05, 0.004].into_iter().enumerate() {
            matrix.set(i, (i + k) % n, rate);
        }
    }
    matrix
}

/// Bernoulli arrivals concentrated on the four VOQs per input that
/// [`skewed_matrix`] loads, so even size-N stripes fill within the horizon.
fn schedule(n: usize, seed: u64, load: f64, offered: u64, total: u64) -> Vec<Vec<Packet>> {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut voq_seq = vec![0u64; n * n];
    let mut id = 0u64;
    (0..total)
        .map(|slot| {
            let mut arrivals = Vec::new();
            for input in 0..n {
                if slot < offered && rng.unit_f64() < load {
                    let k = [0, 0, 0, 1, 1, 2, 2, 3][rng.below(8) as usize];
                    let output = (input + k) % n;
                    let key = input * n + output;
                    arrivals.push(
                        Packet::new(input, output, id, slot)
                            .with_flow(rng.below(5))
                            .with_voq_seq(voq_seq[key]),
                    );
                    voq_seq[key] += 1;
                    id += 1;
                }
            }
            arrivals
        })
        .collect()
}

fn run_reference(
    n: usize,
    sizing: &Sizing,
    seed: u64,
    schedule: &[Vec<Packet>],
) -> (Vec<DeliveredPacket>, SwitchStats) {
    let mut reference = ReferenceSprinklers::new(n, seed, |i, j| match sizing {
        Sizing::Fixed(size) => *size,
        Sizing::Matrix(matrix) => stripe_size(matrix.rate(i, j), n),
    });
    let mut out = Vec::new();
    for (slot, arrivals) in schedule.iter().enumerate() {
        for p in arrivals {
            reference.arrive(p.clone());
        }
        reference.step(slot as u64, &mut out);
    }
    (out, reference.stats())
}

/// The production switch, built through the registry.
fn build_production(n: usize, sizing: &Sizing, seed: u64) -> Box<dyn Switch> {
    match sizing {
        Sizing::Fixed(size) => registry::build_named(
            "sprinklers",
            n,
            &SizingSpec::Fixed(*size),
            &TrafficMatrix::zero(n),
            seed,
        ),
        Sizing::Matrix(matrix) => {
            registry::build_named("sprinklers", n, &SizingSpec::Matrix, matrix, seed)
        }
    }
    .expect("registry scheme builds")
}

/// Every batch size against the reference, on one schedule.
fn check_against_reference(
    n: usize,
    sizing: &Sizing,
    seed: u64,
    schedule: &[Vec<Packet>],
    batches: &[u64],
) -> Result<(), TestCaseError> {
    let (expected, expected_stats) = run_reference(n, sizing, seed, schedule);
    prop_assert!(
        expected.len() > n,
        "{:?}: the reference delivered {} packets — too few to compare",
        sizing,
        expected.len()
    );
    for &batch in batches {
        let mut switch = build_production(n, sizing, seed);
        let got = drive_schedule(switch.as_mut(), schedule, batch);
        if let Some(k) = (0..got.len().min(expected.len())).find(|&k| got[k] != expected[k]) {
            prop_assert!(
                false,
                "batch={}: delivery {} differs\n  production {:?}\n  reference  {:?}",
                batch,
                k,
                got[k],
                expected[k]
            );
        }
        prop_assert_eq!(got.len(), expected.len(), "batch={}: stream length", batch);
        prop_assert_eq!(switch.stats(), expected_stats, "batch={}: stats", batch);
    }
    Ok(())
}

const BATCHES: [u64; 2] = [1, 64];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Small switches, every sizing: the production switch at batch 1/64
    /// delivers exactly what the reference delivers.
    #[test]
    fn production_matches_the_reference_model(
        seed in 0u64..u64::MAX,
        log_n in 1u32..5,
        load in 0.3f64..0.95,
        fixed_level in 0u32..5,
        use_matrix in 0u32..2,
    ) {
        let n = 1usize << log_n;
        let sizing = if use_matrix == 1 {
            Sizing::Matrix(skewed_matrix(n))
        } else {
            Sizing::Fixed(1 << fixed_level.min(log_n))
        };
        let offered = 40 * n as u64;
        let arrivals = schedule(n, seed, load, offered, offered + 12 * n as u64);
        check_against_reference(n, &sizing, seed, &arrivals, &BATCHES)?;
    }
}

/// One wide, hot case: at n = 128 the occupancy sets and phase rows span two
/// words, walked against the dense reference.
#[test]
fn wide_switch_matches_the_reference() {
    let n = 128;
    let arrivals = schedule(n, 77, 0.95, 6 * n as u64, 10 * n as u64);
    for sizing in [Sizing::Fixed(2), Sizing::Matrix(skewed_matrix(n))] {
        check_against_reference(n, &sizing, 77, &arrivals, &BATCHES)
            .unwrap_or_else(|e| panic!("{e:?}"));
    }
}
