//! Differential property suite for `Switch::step_batch`.
//!
//! The batched stepping contract is absolute: `step_batch(s, c, sink)` must
//! produce a delivery stream **byte-identical** to `step(s), step(s+1), …,
//! step(s+c-1)` — same packets, same order, same departure slots — for every
//! scheme in the registry, because the engine silently substitutes one for
//! the other and the paper's reordering-free claims are judged on that
//! stream.  These properties drive two identically-seeded instances of every
//! registered scheme with the same random arrivals; the reference instance
//! steps slot by slot, the other steps in random batch splits (broken at
//! arrival-bearing slots, exactly like the engine breaks its runs), and the
//! two full `DeliveredPacket` streams must compare equal.

use proptest::prelude::*;
use sprinklers_core::matrix::TrafficMatrix;
use sprinklers_core::packet::{DeliveredPacket, Packet};
use sprinklers_core::rng::SimRng;
use sprinklers_core::switch::Switch;
use sprinklers_sim::registry;
use sprinklers_sim::spec::SizingSpec;

const N: usize = 8;
const OFFERED_SLOTS: u64 = 96;
const TOTAL_SLOTS: u64 = 512;

/// A large port count that crosses the occupancy bitsets' 64-port word
/// boundary, so the sparse stepping paths exercise the two-level summary
/// walk (a power of two, so every Sprinklers variant builds too).
const N_WIDE: usize = 128;
const WIDE_OFFERED_SLOTS: u64 = 64;
const WIDE_TOTAL_SLOTS: u64 = 768;

/// A deterministic random arrival schedule: `schedule[slot]` holds the fully
/// identity-stamped packets injected before stepping `slot`.
fn arrival_schedule_for(
    n: usize,
    offered_slots: u64,
    total_slots: u64,
    seed: u64,
    load: f64,
) -> Vec<Vec<Packet>> {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut voq_seq = vec![0u64; n * n];
    let mut id = 0u64;
    let mut schedule = Vec::with_capacity(total_slots as usize);
    for slot in 0..total_slots {
        let mut arrivals = Vec::new();
        if slot < offered_slots {
            for input in 0..n {
                if rng.unit_f64() < load {
                    let output = rng.below(n as u64) as usize;
                    let key = input * n + output;
                    let mut p = Packet::new(input, output, id, slot)
                        .with_flow(rng.below(3))
                        .with_voq_seq(voq_seq[key]);
                    p.arrival_slot = slot;
                    voq_seq[key] += 1;
                    id += 1;
                    arrivals.push(p);
                }
            }
        }
        schedule.push(arrivals);
    }
    schedule
}

fn arrival_schedule(seed: u64, load: f64) -> Vec<Vec<Packet>> {
    arrival_schedule_for(N, OFFERED_SLOTS, TOTAL_SLOTS, seed, load)
}

/// Reference semantics: slot-at-a-time stepping.
fn run_reference(switch: &mut dyn Switch, schedule: &[Vec<Packet>]) -> Vec<DeliveredPacket> {
    let mut delivered = Vec::new();
    for (slot, arrivals) in schedule.iter().enumerate() {
        for p in arrivals {
            switch.arrive(p.clone());
        }
        switch.step(slot as u64, &mut delivered);
    }
    delivered
}

/// Batched stepping with random splits.  Chunk lengths are drawn from
/// `split_seed`; a chunk is additionally broken at every arrival-bearing
/// slot, because a batch may never step a slot whose packets have not been
/// injected yet — the same rule the engine applies.
fn run_batched(
    switch: &mut dyn Switch,
    schedule: &[Vec<Packet>],
    split_seed: u64,
    max_chunk: u32,
) -> Vec<DeliveredPacket> {
    let mut rng = SimRng::seed_from_u64(split_seed);
    let mut delivered = Vec::new();
    let total = schedule.len() as u64;
    let mut slot = 0u64;
    while slot < total {
        for p in &schedule[slot as usize] {
            switch.arrive(p.clone());
        }
        let chunk = 1 + rng.below(u64::from(max_chunk));
        let mut end = slot + 1;
        while end < total && end < slot + chunk && schedule[end as usize].is_empty() {
            end += 1;
        }
        switch.step_batch(slot, (end - slot) as u32, &mut delivered);
        slot = end;
    }
    delivered
}

fn build_n(scheme: &str, n: usize, seed: u64) -> Box<dyn Switch> {
    // The sizing matrix only has to be fixed and identical for both copies;
    // it deliberately does not match the random arrivals (stripe sizing must
    // not matter for equivalence).
    let matrix = TrafficMatrix::uniform(n, 0.7);
    registry::build_named(scheme, n, &SizingSpec::Matrix, &matrix, seed)
        .expect("registry scheme builds")
}

fn build(scheme: &str, seed: u64) -> Box<dyn Switch> {
    build_n(scheme, N, seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For every registered scheme: random arrivals + random batch splits
    /// produce a delivery stream identical to slot-at-a-time stepping.
    #[test]
    fn batched_stepping_is_byte_identical_for_every_scheme(
        seed in 0u64..u64::MAX,
        split_seed in 0u64..u64::MAX,
        load in 0.05f64..0.95,
        max_chunk in 1u32..48,
    ) {
        let schedule = arrival_schedule(seed, load);
        for scheme in registry::schemes() {
            let mut reference = build(scheme, seed);
            let mut batched = build(scheme, seed);
            let expected = run_reference(reference.as_mut(), &schedule);
            let got = run_batched(batched.as_mut(), &schedule, split_seed, max_chunk);
            prop_assert_eq!(
                got.len(),
                expected.len(),
                "{} delivered a different packet count", scheme
            );
            // Element-wise: same packet, same order, same departure slot.
            for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
                prop_assert_eq!(
                    g, e,
                    "{} diverged at delivery #{} (batch splits max_chunk={})",
                    scheme, i, max_chunk
                );
            }
            // The two instances must also agree on their internal counters.
            prop_assert_eq!(
                batched.stats(),
                reference.stats(),
                "{} stats diverged", scheme
            );
        }
    }

    /// The wide-switch variant: at n = 128 the occupancy bitsets span two
    /// words plus a summary level, so this pins the sparse stepping paths —
    /// cursor walks across the word boundary, bit clears near it, the
    /// summary-guided skip — to the slot-at-a-time reference for every
    /// scheme.  A shorter offered window than the n = 8 suite keeps the
    /// 16×-larger per-slot work affordable.
    #[test]
    fn batched_stepping_is_byte_identical_across_the_word_boundary(
        seed in 0u64..u64::MAX,
        split_seed in 0u64..u64::MAX,
        load in 0.02f64..0.6,
        max_chunk in 1u32..96,
    ) {
        let schedule =
            arrival_schedule_for(N_WIDE, WIDE_OFFERED_SLOTS, WIDE_TOTAL_SLOTS, seed, load);
        for scheme in registry::schemes() {
            let mut reference = build_n(scheme, N_WIDE, seed);
            let mut batched = build_n(scheme, N_WIDE, seed);
            let expected = run_reference(reference.as_mut(), &schedule);
            let got = run_batched(batched.as_mut(), &schedule, split_seed, max_chunk);
            prop_assert_eq!(
                &got,
                &expected,
                "{} diverged at n={} (max_chunk={})",
                scheme,
                N_WIDE,
                max_chunk
            );
            prop_assert_eq!(
                batched.stats(),
                reference.stats(),
                "{} stats diverged at n={}",
                scheme,
                N_WIDE
            );
        }
    }

    /// One maximal batch over the whole drain phase (the engine's most
    /// aggressive use) equals slot-at-a-time draining.
    #[test]
    fn a_single_giant_drain_batch_is_equivalent(
        seed in 0u64..u64::MAX,
        load in 0.2f64..0.9,
    ) {
        let schedule = arrival_schedule(seed, load);
        let offered = OFFERED_SLOTS as usize;
        for scheme in registry::schemes() {
            let mut reference = build(scheme, seed);
            let mut batched = build(scheme, seed);
            let expected = run_reference(reference.as_mut(), &schedule);

            let mut got = Vec::new();
            for (slot, arrivals) in schedule[..offered].iter().enumerate() {
                for p in arrivals {
                    batched.arrive(p.clone());
                }
                batched.step(slot as u64, &mut got);
            }
            batched.step_batch(
                OFFERED_SLOTS,
                (TOTAL_SLOTS - OFFERED_SLOTS) as u32,
                &mut got,
            );
            prop_assert_eq!(&got, &expected, "{} drain batch diverged", scheme);
        }
    }
}
