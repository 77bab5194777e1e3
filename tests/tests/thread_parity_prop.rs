//! Differential property suite for `Switch::set_threads`.
//!
//! The intra-slot parallelism contract is absolute: any thread count must
//! produce a delivery stream **byte-identical** to serial stepping — same
//! packets, same order, same departure slots, same stats — for every scheme
//! in the registry, at every batch size.  `--threads` is sold as a pure
//! performance knob (specs exclude it from scientific identity, the
//! `thread-parity` CI job `cmp`s whole CSVs), and these properties are the
//! ground truth behind that claim.
//!
//! The switch runs wide (n = 128) and hot (load up to 0.95) on purpose:
//! Sprinklers only engages its worker pool once a phase has at least
//! `PAR_MIN_OCCUPIED` occupied ports, so a small or lightly loaded switch
//! would silently test the serial fallback against itself.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sprinklers_core::matrix::TrafficMatrix;
use sprinklers_core::packet::Packet;
use sprinklers_core::switch::Switch;
use sprinklers_integration_tests::drive_schedule;
use sprinklers_sim::engine::{Engine, RunConfig};
use sprinklers_sim::registry;
use sprinklers_sim::spec::{ScenarioSpec, SizingSpec, TrafficSpec};

/// Crosses the occupancy bitsets' 64-port word boundary *and* clears the
/// Sprinklers parallel path's minimum-occupancy threshold at high load.
const N: usize = 128;
const OFFERED_SLOTS: u64 = 64;
const TOTAL_SLOTS: u64 = 768;

/// A deterministic random arrival schedule: `schedule[slot]` holds the fully
/// identity-stamped packets injected before stepping `slot`.
fn arrival_schedule(seed: u64, load: f64) -> Vec<Vec<Packet>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut voq_seq = vec![0u64; N * N];
    let mut id = 0u64;
    let mut schedule = Vec::with_capacity(TOTAL_SLOTS as usize);
    for slot in 0..TOTAL_SLOTS {
        let mut arrivals = Vec::new();
        if slot < OFFERED_SLOTS {
            for input in 0..N {
                if rng.gen_range(0.0..1.0) < load {
                    let output = rng.gen_range(0..N);
                    let key = input * N + output;
                    let mut p = Packet::new(input, output, id, slot)
                        .with_flow(rng.gen_range(0..3u64))
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

fn build(scheme: &str, seed: u64) -> Box<dyn Switch> {
    // Fixed small stripes: at n = 128 the matrix sizing rule saturates at
    // stripe = N, and partial stripes of that size don't clear inside this
    // suite's short horizon — every Sprinklers variant would trivially
    // deliver nothing.  Parity must be proven on a stream with traffic in it.
    let matrix = TrafficMatrix::uniform(N, 0.7);
    registry::build_named(scheme, N, &SizingSpec::Fixed(2), &matrix, seed)
        .expect("registry scheme builds")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For every registered scheme: threads × batch grid against the serial
    /// slot-at-a-time reference.  Streams and stats must be byte-identical.
    #[test]
    fn thread_count_never_changes_the_delivery_stream(
        seed in 0u64..u64::MAX,
        load in 0.4f64..0.95,
    ) {
        let schedule = arrival_schedule(seed, load);
        for scheme in registry::schemes() {
            let mut serial = build(scheme, seed);
            let expected = drive_schedule(serial.as_mut(), &schedule, 1, 1);
            // Frame-building schemes (ufs, padded-frames) legitimately sit on
            // partial n=128 frames for this whole horizon; everything else
            // must actually move traffic or the comparison is vacuous.
            if !matches!(*scheme, "ufs" | "padded-frames" | "foff") {
                prop_assert!(
                    !expected.is_empty(),
                    "{} delivered nothing — schedule too light to mean anything", scheme
                );
            }
            for threads in [2usize, 4] {
                for batch in [1u64, 64] {
                    let mut parallel = build(scheme, seed);
                    let got = drive_schedule(parallel.as_mut(), &schedule, threads, batch);
                    prop_assert_eq!(
                        &got,
                        &expected,
                        "{} diverged at threads={} batch={}",
                        scheme, threads, batch
                    );
                    prop_assert_eq!(
                        parallel.stats(),
                        serial.stats(),
                        "{} stats diverged at threads={} batch={}",
                        scheme, threads, batch
                    );
                }
            }
        }
    }
}

/// End-to-end through the engine: the `threads` spec knob must leave the
/// whole `SimReport` (the CSV the suite runner merges) byte-identical for
/// every scheme.  The n = 128 high-load scenario engages the Sprinklers
/// worker pool for real; the stats assertions in the property above cover
/// the serial-fallback regimes.
#[test]
fn engine_reports_are_identical_at_any_thread_count() {
    for scheme in registry::schemes() {
        let spec = |threads: u32| {
            ScenarioSpec::new(*scheme, N)
                .with_sizing(SizingSpec::Fixed(2))
                .with_traffic(TrafficSpec::Uniform { load: 0.85 })
                .with_run(RunConfig {
                    slots: 192,
                    warmup_slots: 32,
                    drain_slots: 512,
                })
                .with_seed(2014)
                .with_threads(threads)
        };
        let mut engine = Engine::new();
        let reference_report = engine.run(&spec(1)).unwrap();
        if !matches!(*scheme, "ufs" | "padded-frames" | "foff") {
            assert!(
                reference_report.delivered_packets > 0,
                "{scheme} delivered nothing — the parity comparison would be vacuous"
            );
        }
        let reference = reference_report.csv_row();
        for threads in [2u32, 4, 64] {
            let report = engine.run(&spec(threads)).unwrap().csv_row();
            assert_eq!(
                report, reference,
                "{scheme} report moved at threads={threads}"
            );
        }
    }
}
