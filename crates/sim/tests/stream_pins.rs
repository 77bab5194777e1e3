//! Arrival-stream pins: a fast failure ahead of the golden CSVs.
//!
//! The seeded generators promise a draw-for-draw stable stream (see the
//! traffic section of the README): the same seed yields the same
//! `(slot, input, output, flow)` tuples, release after release.  Every golden
//! CSV under `tests/` depends on that, but a golden that moves says only
//! "something changed"; these hashes say "the generator changed" in a
//! fraction of a second.  The constants were captured on the commit *before*
//! the generators moved from a per-row `Vec<f64>` binary search to the flat
//! guide-table sampler, so they pin the original streams, not a
//! re-derivation of them.

use sprinklers_core::matrix::TrafficMatrix;
use sprinklers_sim::cache::fnv1a_128;
use sprinklers_sim::traffic::bernoulli::BernoulliTraffic;
use sprinklers_sim::traffic::bursty::BurstyTraffic;
use sprinklers_sim::traffic::flows::FlowTraffic;
use sprinklers_sim::traffic::TrafficGenerator;

const TUPLES: usize = 20_000;

/// FNV-1a/128 over the little-endian bytes of the first [`TUPLES`] arrivals.
fn stream_hash(gen: &mut dyn TrafficGenerator) -> u128 {
    let mut bytes = Vec::with_capacity(TUPLES * 32);
    let mut arrivals = Vec::new();
    let mut tuples = 0;
    'slots: for slot in 0u64.. {
        arrivals.clear();
        gen.arrivals_into(slot, &mut arrivals);
        for p in &arrivals {
            assert_eq!(p.arrival_slot, slot);
            for field in [slot, p.input() as u64, p.output() as u64, p.flow] {
                bytes.extend_from_slice(&field.to_le_bytes());
            }
            tuples += 1;
            if tuples == TUPLES {
                break 'slots;
            }
        }
    }
    fnv1a_128(&bytes)
}

#[test]
fn seeded_arrival_streams_are_pinned() {
    // A lopsided matrix with an idle input and zero-probability outputs, so
    // the "zero load draws nothing" rule and duplicate CDF values are pinned
    // along with the paper's patterns.
    let mut lopsided = TrafficMatrix::zero(5);
    for (i, j, r) in [
        (0, 1, 0.3),
        (0, 4, 0.6),
        (2, 2, 0.05),
        (3, 0, 1.0),
        (4, 3, 0.5),
    ] {
        lopsided.set(i, j, r);
    }

    let cases: [(&str, Box<dyn TrafficGenerator>, u128); 7] = [
        (
            "uniform n=64 rho=0.9 seed=1",
            Box::new(BernoulliTraffic::uniform(64, 0.9, 1)),
            0x860b303e_b9a8e1a0_6951c8d4_9f4bba01,
        ),
        (
            "diagonal n=256 rho=0.05 seed=2",
            Box::new(BernoulliTraffic::diagonal(256, 0.05, 2)),
            0xf0a9a198_6e71cfeb_49c8fa57_0e148fdc,
        ),
        (
            "hotspot n=16 rho=0.7 hot=0.4 seed=3",
            Box::new(BernoulliTraffic::hotspot(16, 0.7, 0.4, 3)),
            0x5523dac1_d296c65b_88270ef6_90ee1de2,
        ),
        (
            "uniform n=1000 rho=0.01 seed=4",
            Box::new(BernoulliTraffic::uniform(1000, 0.01, 4)),
            0x4130dd6f_1798dc46_9ddac784_08d1045e,
        ),
        (
            "lopsided n=5 seed=5",
            Box::new(BernoulliTraffic::from_matrix(lopsided, 5, "lopsided")),
            0x7c00f4f2_8b3ced24_dd4ca53a_472c21fa,
        ),
        (
            "bursty n=32 rho=0.4 peak=0.9 burst=20 seed=6",
            Box::new(BurstyTraffic::uniform(32, 0.4, 0.9, 20.0, 6)),
            0xcf5843fc_5f0794d5_67fe2463_ee0dc697,
        ),
        (
            "flows n=16 rho=0.8 mean_len=6 seed=7",
            Box::new(FlowTraffic::uniform(16, 0.8, 6.0, 7)),
            0x2c2982f7_f4a7495a_8d6ac029_d1cfc859,
        ),
    ];
    for (name, mut gen, pinned) in cases {
        let hash = stream_hash(gen.as_mut());
        assert_eq!(
            hash, pinned,
            "{name}: arrival stream changed (got {hash:#034x})"
        );
    }
}
