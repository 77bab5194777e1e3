//! Arrival-stream pins: a fast failure ahead of the golden CSVs.
//!
//! The seeded generators promise a draw-for-draw stable stream (see the
//! traffic section of the README): the same seed yields the same
//! `(slot, input, output, flow)` tuples, release after release.  Every golden
//! CSV under `tests/` depends on that, but a golden that moves says only
//! "something changed"; these hashes say "the generator changed" in a
//! fraction of a second.  The first seven constants were captured on the
//! commit *before* the generators moved from a per-row `Vec<f64>` binary
//! search to the flat guide-table sampler, the next three on the commit
//! before destinations moved out of the draw loop into one resolve pass per
//! slot, and the last four on the commit before synthetic matrices were
//! sampled in closed form, so they pin the original streams, not a
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
    assert_pinned(cases);
}

#[test]
fn wide_and_stateful_streams_are_pinned() {
    // The widest benchmark cell's generator (where the n²-sized sampler
    // tables no longer fit in cache), and the two generators with state
    // besides the RNG at a size where a slot carries dozens of arrivals:
    // the on/off chain, and the per-VOQ flow ids handed out after the
    // slot's destinations are known.
    let cases: [(&str, Box<dyn TrafficGenerator>, u128); 3] = [
        (
            "diagonal n=1024 rho=0.01 seed=2014",
            Box::new(BernoulliTraffic::diagonal(1024, 0.01, 2014)),
            0x0bad0fe1_b0fe0089_5e74e2b1_1cd84294,
        ),
        (
            "bursty n=256 diagonal rho=0.3 peak=0.8 burst=10 seed=8",
            Box::new(BurstyTraffic::new(
                TrafficMatrix::diagonal(256, 0.3),
                0.8,
                10.0,
                8,
            )),
            0xb3af714b_0aee2853_da766a7f_5f82cd1e,
        ),
        (
            "flows n=256 diagonal rho=0.5 mean_len=4 seed=9",
            Box::new(FlowTraffic::from_matrix(
                TrafficMatrix::diagonal(256, 0.5),
                4.0,
                9,
            )),
            0x1e1d5b26_2e632d85_7c70515c_3accd31e,
        ),
    ];
    assert_pinned(cases);
}

#[test]
fn one_entry_per_row_streams_are_pinned() {
    // Captured on commit b9d9cedd1cc9800cba6940e2fd414711b38e56bb, before
    // the synthetic patterns' destinations moved from the n²-sized CDF table
    // to a closed form.  Cases: the hot column wrapping at row n − 1 on a
    // wide switch; a hot-spot whose other outputs have rate 0, so the CDF is
    // flat except at the hot column; a non-power-of-two n with inexact row
    // loads; and a small uniform switch.
    let cases: [(&str, Box<dyn TrafficGenerator>, u128); 4] = [
        (
            "hotspot n=1024 rho=0.3 hot=0.5 seed=10",
            Box::new(BernoulliTraffic::hotspot(1024, 0.3, 0.5, 10)),
            0xfdaa4c1f_2a0de31d_827b6537_8deeed9b,
        ),
        (
            "hotspot n=64 rho=0.6 hot=1.0 seed=11",
            Box::new(BernoulliTraffic::hotspot(64, 0.6, 1.0, 11)),
            0x56b8c7b0_3e2f6e54_6dcb0bdb_21d3815b,
        ),
        (
            "diagonal n=1000 rho=0.7 seed=12",
            Box::new(BernoulliTraffic::diagonal(1000, 0.7, 12)),
            0x69ead9f2_3ef71dff_27b91e7f_fc82bd8e,
        ),
        (
            "uniform n=96 rho=0.8 seed=13",
            Box::new(BernoulliTraffic::uniform(96, 0.8, 13)),
            0x8a15175b_3ba8a7b4_323b1eba_3acdf51a,
        ),
    ];
    assert_pinned(cases);
}

fn assert_pinned<const N: usize>(cases: [(&str, Box<dyn TrafficGenerator>, u128); N]) {
    for (name, mut gen, pinned) in cases {
        let hash = stream_hash(gen.as_mut());
        assert_eq!(
            hash, pinned,
            "{name}: arrival stream changed (got {hash:#034x})"
        );
    }
}
