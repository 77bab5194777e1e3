//! Delivery-stream pins for every two-stage scheme: a fast failure ahead of
//! the golden CSVs.
//!
//! The five load-balanced baselines (baseline LB, UFS, FOFF, Padded Frames,
//! TCP hashing) are pure functions of their arrivals: the same packets in
//! the same slots yield the same deliveries in the same order with the same
//! routing header, and the same occupancy counters at every sampling
//! boundary.  The golden CSVs depend on that but aggregate it, and
//! `batch_equivalence_prop` only compares a scheme with itself; these hashes
//! cover every field of every [`DeliveredPacket`] (padding included) plus
//! the [`SwitchStats`] the engine samples once per frame.  The constants
//! were captured on the commit *before* the five schemes moved onto the
//! shared two-stage kernel — before any source edit of that change — so they
//! pin the five original hand-written switches, not a re-derivation of them.
//!
//! `n = 5` exercises the non-power-of-two wrap of both periodic fabrics.
//!
//! A second set of constants — [`WIDE_PINS`] and [`DEEP_PINS`] — was captured
//! on commit `5dbc38b` (the by-value `TwoStage` kernel), again before any
//! source edit, ahead of that kernel's port onto the handle store:
//! `n = 65` and `n = 130` put every occupancy bitset and FOFF's round-robin
//! across one and two word boundaries, and `n = 32` at uniform load 0.9 over
//! 20 000 + 12 000 slots holds full frames, PF padding and deep FOFF
//! out-of-order buffering in one long stream.
//!
//! A third set — [`SPRINKLERS_PINS`] and [`WIDE_SPRINKLERS_PINS`] — pins
//! Sprinklers and its adaptive variant the same way.  They were captured on
//! the commit before Sprinklers became an input policy on the two-stage
//! kernel, before any source edit.  Matrix-sized `sprinklers` takes its
//! stripes from the uniform 0.5 matrix `run_hash` builds with (8 at n = 16,
//! 16 at n = 32, 128 at n = 256).  `sprinklers-adaptive` runs 8 192 + 4 096
//! slots from unit stripes.  Under the default window (2 048 slots,
//! patience 2) its VOQs commit their first resizes at slot 6 144, so the pin
//! covers adaptive sizing and the clearance phase, which the reference model
//! does not.  At n = 256, diagonal 0.05, the matrix-sized `sprinklers`
//! stripes cannot fill within 2 600 slots, so that row pins only the
//! counters.  The `sprinklers-adaptive` row beside it starts with unit
//! stripes and delivers over every bitset word.
//!
//! Every case is driven twice — one `step` per slot, and arrival-free runs
//! of up to 64 slots per `step_batch` as the engine batches them — and both
//! must produce the pinned hash.

use sprinklers_core::matrix::TrafficMatrix;
use sprinklers_core::packet::DeliveredPacket;
use sprinklers_core::switch::{DeliverySink, Switch};
use sprinklers_sim::cache::fnv1a_128;
use sprinklers_sim::registry::build_named;
use sprinklers_sim::spec::SizingSpec;
use sprinklers_sim::traffic::bernoulli::BernoulliTraffic;
use sprinklers_sim::traffic::flows::FlowTraffic;
use sprinklers_sim::traffic::TrafficGenerator;

const SEED: u64 = 2014;

/// Slots with arrivals, then arrival-free slots to drain.
#[derive(Clone, Copy)]
struct Length {
    slots: u64,
    drain: u64,
}

const SHORT: Length = Length {
    slots: 1_200,
    drain: 1_200,
};
const WIDE: Length = Length {
    slots: 2_600,
    drain: 2_600,
};
const DEEP: Length = Length {
    slots: 20_000,
    drain: 12_000,
};
const ADAPTIVE: Length = Length {
    slots: 8_192,
    drain: 4_096,
};

/// Appends every field of every delivery, little-endian.
#[derive(Default)]
struct ByteSink(Vec<u8>);

impl ByteSink {
    fn words(&mut self, words: &[u64]) {
        for w in words {
            self.0.extend_from_slice(&w.to_le_bytes());
        }
    }
}

impl DeliverySink for ByteSink {
    fn deliver(&mut self, d: DeliveredPacket) {
        let p = &d.packet;
        self.words(&[
            d.departure_slot,
            p.id,
            p.flow,
            p.arrival_slot,
            p.voq_seq,
            p.input() as u64,
            p.output() as u64,
            p.intermediate() as u64,
            p.stripe_size() as u64,
            p.stripe_index() as u64,
            u64::from(p.is_padding()),
        ]);
    }
}

/// Step `len` slots from `start`: one `step` each when `batch` is 1 (the
/// path without elision), otherwise one `step_batch`.
fn advance(sw: &mut dyn Switch, batch: u64, start: u64, len: u32, sink: &mut ByteSink) {
    if batch == 1 {
        for slot in start..start + u64::from(len) {
            sw.step(slot, sink);
        }
    } else if len > 0 {
        sw.step_batch(start, len, sink);
    }
}

/// Run `scheme` over `traffic` the way the engine does — number and inject a
/// slot's arrivals, then step it — and hash the delivery stream together
/// with the counters at every frame boundary.  `batch` is the longest
/// arrival-free run handed to one `step_batch`.
fn run_hash(
    scheme: &str,
    n: usize,
    traffic: &mut dyn TrafficGenerator,
    length: Length,
    batch: u64,
) -> u128 {
    let matrix = TrafficMatrix::uniform(n, 0.5);
    let mut sw: Box<dyn Switch> =
        build_named(scheme, n, &SizingSpec::Matrix, &matrix, SEED).expect("registered scheme");
    let mut sink = ByteSink::default();
    let mut arrivals = Vec::new();
    let mut voq_seq = vec![0u64; n * n];
    let mut next_id = 0u64;
    let (mut run_start, mut run_len) = (0u64, 0u32);
    for slot in 0..length.slots + length.drain {
        arrivals.clear();
        if slot < length.slots {
            traffic.arrivals_into(slot, &mut arrivals);
        }
        let flush = !arrivals.is_empty() || u64::from(run_len) == batch;
        if flush {
            advance(sw.as_mut(), batch, run_start, run_len, &mut sink);
            (run_start, run_len) = (slot, 0);
        }
        for mut packet in arrivals.drain(..) {
            packet.id = next_id;
            next_id += 1;
            packet.arrival_slot = slot;
            let key = packet.input() * n + packet.output();
            packet.voq_seq = voq_seq[key];
            voq_seq[key] += 1;
            sw.arrive(packet);
        }
        run_len += 1;
        if slot % n as u64 == 0 {
            advance(sw.as_mut(), batch, run_start, run_len, &mut sink);
            (run_start, run_len) = (slot + 1, 0);
            let s = sw.stats();
            sink.words(&[
                s.queued_at_inputs as u64,
                s.queued_at_intermediates as u64,
                s.queued_at_outputs as u64,
                s.total_arrivals,
                s.total_departures,
                s.total_dropped,
            ]);
        }
    }
    advance(sw.as_mut(), batch, run_start, run_len, &mut sink);
    assert!(next_id > 0, "{scheme} n={n}: the generator offered nothing");
    fnv1a_128(&sink.0)
}

fn check(
    name: &str,
    scheme: &str,
    n: usize,
    length: Length,
    make: &dyn Fn() -> Box<dyn TrafficGenerator>,
    pinned: u128,
) {
    for batch in [1, 64] {
        let hash = run_hash(scheme, n, make().as_mut(), length, batch);
        assert_eq!(
            hash, pinned,
            "{name} batch={batch}: delivery stream changed (got {hash:#034x})"
        );
    }
}

#[test]
fn baseline_delivery_streams_are_pinned() {
    const PINS: [(&str, usize, u128, u128); 15] = [
        (
            "baseline-lb",
            5,
            0xd3d2503a_0169151b_f2f319ae_dfca05d3,
            0x16d5e1a4_1e6b55f3_abcd0e5f_63b3b806,
        ),
        (
            "baseline-lb",
            16,
            0xc31d978a_9f1db7be_5e50c492_0f3d78d8,
            0xc9df4f6b_84a5300d_f57606af_71707294,
        ),
        (
            "baseline-lb",
            32,
            0x18dd407d_cfaf69d0_28378448_e9716f3b,
            0x942537c7_b4da2090_2a00340c_71276d0b,
        ),
        (
            "ufs",
            5,
            0xaacd732d_d6b93387_1aa04158_cf7499bc,
            0xd7f867eb_a34fb322_f37ceb31_0768d9b5,
        ),
        (
            "ufs",
            16,
            0x8a55f694_ea141c34_a53d23c5_c34feb90,
            0xedf2c291_2c8f027c_c5c321e4_fcb2313c,
        ),
        (
            "ufs",
            32,
            0x867fdb16_150dfbd1_dd992e84_7c6fd596,
            0xa3588cfc_0ca691ff_a4645d9d_82563990,
        ),
        (
            "foff",
            5,
            0x96c53ac6_493cac41_86f53656_a6e0a8bc,
            0xcd361f21_5e57ed26_fa68ec7b_72a1f7c0,
        ),
        (
            "foff",
            16,
            0xf9e06b32_dfd0b16f_c3f3904a_ab6183a5,
            0x17182b34_6f2d61a0_bcfa71e2_ce2092c0,
        ),
        (
            "foff",
            32,
            0x5ad6e368_55071142_6219a622_03f7119a,
            0xa6eaba9e_eb3317c5_02c1313b_804c01a8,
        ),
        (
            "padded-frames",
            5,
            0x99e6ac59_7dcc369f_2350a842_dd2f5d54,
            0xcabaf129_6d8e9911_b8766214_34b11d12,
        ),
        (
            "padded-frames",
            16,
            0x81f1d978_31414a03_863088f1_cf81fc56,
            0xf37175b6_4bbd0abf_ac1f7245_052067b0,
        ),
        (
            "padded-frames",
            32,
            0x63b21cf4_ecbee2b7_3e07f460_3460a1c3,
            0x449917e2_65450a66_0fba3c09_718cfa59,
        ),
        (
            "tcp-hash",
            5,
            0x81b64b89_3c673335_344b4575_f1f6ef56,
            0x8a5635b5_2e686dbb_dfdac187_c86cd248,
        ),
        (
            "tcp-hash",
            16,
            0x023c9713_ad071fd3_0d316ada_6fb9243f,
            0x556f01df_ee2d274a_9804c1b6_6642f63d,
        ),
        (
            "tcp-hash",
            32,
            0xc1f319a0_fea1a7ca_a078642d_e2c20f2b,
            0x0b5a0e36_c5c5065e_1cc11cc6_9ca8af5f,
        ),
    ];
    for (scheme, n, uniform, diagonal) in PINS {
        check(
            &format!("{scheme} n={n} uniform 0.9"),
            scheme,
            n,
            SHORT,
            &|| Box::new(BernoulliTraffic::uniform(n, 0.9, SEED)),
            uniform,
        );
        check(
            &format!("{scheme} n={n} diagonal 0.6"),
            scheme,
            n,
            SHORT,
            &|| Box::new(BernoulliTraffic::diagonal(n, 0.6, SEED)),
            diagonal,
        );
    }
}

/// TCP hashing is the one scheme whose path choice reads `Packet::flow`;
/// the Bernoulli generators give every VOQ a single flow, so pin it under
/// many short flows per VOQ as well.
#[test]
fn tcp_hash_multi_flow_stream_is_pinned() {
    check(
        "tcp-hash n=16 flows 0.8 mean_len=6",
        "tcp-hash",
        16,
        SHORT,
        &|| Box::new(FlowTraffic::uniform(16, 0.8, 6.0, SEED)),
        0x05027d6d_aa057a13_a416f1dd_2db6ed11,
    );
}

const SCHEMES: [&str; 5] = ["baseline-lb", "ufs", "foff", "padded-frames", "tcp-hash"];

/// `(n, [uniform 0.9, diagonal 0.6] per scheme of SCHEMES)`, 2 600 + 2 600
/// slots: every bitset spans two (n = 65) or three (n = 130) words.
const WIDE_PINS: [(usize, [(u128, u128); 5]); 2] = [
    (
        65,
        [
            (
                0x0f51b8b4_3a02333a_41dc7f80_783e8c47,
                0x5d2a74bf_6923cd60_588dc39e_ad45b662,
            ),
            (
                0x20d8b0fe_e48aadc3_cfc8cccb_f7a898a5,
                0x5b1a960e_61759a51_f9a6b8db_38d94198,
            ),
            (
                0x28329300_9daf9734_b2729ac9_e6c42d19,
                0xbe2dfef4_71fb1b6c_bd7d9c2d_ffcffd3c,
            ),
            (
                0x9d811ffe_623ae39a_112bd22f_a0ddb117,
                0xa3049904_2dfa0b91_7a9ba274_25dd1fe4,
            ),
            (
                0x4338d216_0cc8bd22_1f63add6_dff76e62,
                0xef64ab1e_e1aa39c8_c50ab97a_20d69d23,
            ),
        ],
    ),
    (
        130,
        [
            (
                0x68b4c557_870222bc_f637bf85_2ab9d3f8,
                0x794370dc_abb60df9_d1d85a8f_957596e3,
            ),
            (
                0x946fab05_f0365810_6aa65d40_949faf49,
                0x4d7488d0_ad03b150_4c840f98_dc977a32,
            ),
            (
                0x2c915bda_81646e4c_440c3e8e_7aa28cfd,
                0x53ab9a60_792b2219_dd42c39f_cfb97445,
            ),
            (
                0x946fab05_f0365810_6aa65d40_949faf49,
                0xc363abe8_38c326ad_240a5782_7fe5e13b,
            ),
            (
                0xea04c085_0eec2b15_2bec5a3c_e2731e61,
                0xa4852ed4_55dac402_107ca34c_772533f2,
            ),
        ],
    ),
];

/// Per scheme of SCHEMES: n = 32, uniform 0.9, 20 000 + 12 000 slots.
const DEEP_PINS: [u128; 5] = [
    0x0580cac3_f1c4e793_a9293364_f3d65cae,
    0x9ff673ac_cf03ca8c_82242e04_b02b60a6,
    0xadb8999b_d31d89ca_be6d2f3f_003de467,
    0x17e72d3a_c0bb7bc9_1a90568b_507aa472,
    0x2b7229fe_a94ec7ef_30fc8e31_adc4b310,
];

#[test]
fn wide_delivery_streams_are_pinned() {
    for (n, pins) in WIDE_PINS {
        for (scheme, (uniform, diagonal)) in SCHEMES.into_iter().zip(pins) {
            check(
                &format!("{scheme} n={n} uniform 0.9"),
                scheme,
                n,
                WIDE,
                &|| Box::new(BernoulliTraffic::uniform(n, 0.9, SEED)),
                uniform,
            );
            check(
                &format!("{scheme} n={n} diagonal 0.6"),
                scheme,
                n,
                WIDE,
                &|| Box::new(BernoulliTraffic::diagonal(n, 0.6, SEED)),
                diagonal,
            );
        }
    }
}

#[test]
fn deep_delivery_streams_are_pinned() {
    for (scheme, pinned) in SCHEMES.into_iter().zip(DEEP_PINS) {
        check(
            &format!("{scheme} n=32 uniform 0.9 deep"),
            scheme,
            32,
            DEEP,
            &|| Box::new(BernoulliTraffic::uniform(32, 0.9, SEED)),
            pinned,
        );
    }
}

/// `(scheme, n, length, uniform 0.9, diagonal 0.6)`.
const SPRINKLERS_PINS: [(&str, usize, Length, u128, u128); 4] = [
    (
        "sprinklers",
        16,
        SHORT,
        0x023912aa_971ffa2f_23c542f5_8edd7e96,
        0x7aaaae1a_fa5a6f59_cd083705_a5ef7966,
    ),
    (
        "sprinklers",
        32,
        SHORT,
        0x12ac325f_0302a136_ba5d63a2_96e795ec,
        0xc1f8cf1e_85d253ca_e9b678a4_d1446dbe,
    ),
    (
        "sprinklers-adaptive",
        16,
        ADAPTIVE,
        0x653a0625_d1bd9fa5_39d846ef_1639010a,
        0x36840eaf_ca130d92_bffcfe96_e70d4040,
    ),
    (
        "sprinklers-adaptive",
        32,
        ADAPTIVE,
        0xf4bb0031_7f345db0_ea1190b7_fce41f92,
        0x46c8cc08_f32b9f22_59a60f21_14791bfb,
    ),
];

#[test]
fn sprinklers_delivery_streams_are_pinned() {
    for (scheme, n, length, uniform, diagonal) in SPRINKLERS_PINS {
        check(
            &format!("{scheme} n={n} uniform 0.9"),
            scheme,
            n,
            length,
            &|| Box::new(BernoulliTraffic::uniform(n, 0.9, SEED)),
            uniform,
        );
        check(
            &format!("{scheme} n={n} diagonal 0.6"),
            scheme,
            n,
            length,
            &|| Box::new(BernoulliTraffic::diagonal(n, 0.6, SEED)),
            diagonal,
        );
    }
}

/// `(scheme, diagonal 0.05)` at n = 256, 2 600 + 2 600 slots.
const WIDE_SPRINKLERS_PINS: [(&str, u128); 2] = [
    ("sprinklers", 0xcea48b82_bd29263f_f7355b40_ae1f55f1),
    ("sprinklers-adaptive", 0x14921cbb_48fe2b9a_9071363b_5b98e7b8),
];

#[test]
fn wide_sprinklers_delivery_streams_are_pinned() {
    for (scheme, pinned) in WIDE_SPRINKLERS_PINS {
        check(
            &format!("{scheme} n=256 diagonal 0.05"),
            scheme,
            256,
            WIDE,
            &|| Box::new(BernoulliTraffic::diagonal(256, 0.05, SEED)),
            pinned,
        );
    }
}
