//! Adaptive stripe sizing end to end: stripe sizes track load changes through
//! the clearance phase, and packet order is preserved across every resize.

use sprinklers_core::config::{AdaptiveSizing, SizingMode, SprinklersConfig};
use sprinklers_core::matrix::TrafficMatrix;
use sprinklers_core::sprinklers::SprinklersSwitch;
use sprinklers_core::switch::{NullSink, Switch};
use sprinklers_sim::metrics::reorder::ReorderDetector;
use sprinklers_sim::traffic::bernoulli::BernoulliTraffic;
use sprinklers_sim::traffic::TrafficGenerator;

fn adaptive_switch(n: usize, window: u64) -> SprinklersSwitch {
    SprinklersSwitch::new(
        SprinklersConfig::new(n).with_sizing(SizingMode::Adaptive(AdaptiveSizing {
            window,
            gamma: 0.8,
            patience: 1,
            initial_size: 1,
        })),
        9,
    )
}

#[test]
fn stripe_sizes_grow_under_load_and_shrink_when_idle() {
    let n = 16;
    let mut sw = adaptive_switch(n, 256);
    let mut gen = BernoulliTraffic::uniform(n, 0.9, 17);
    let mut detector = ReorderDetector::new(n);
    // Phase 1: heavy uniform load.  Expected stripe size F(0.9/16) = 16.
    for slot in 0..20_000u64 {
        let mut arrivals = gen.arrivals(slot);
        detector.stamp(&mut arrivals);
        for p in arrivals {
            sw.arrive(p);
        }
        sw.step(slot, &mut NullSink);
    }
    let grown = sw.voq_stripe_size(0, 0);
    assert!(
        grown >= 8,
        "heavily loaded VOQ should have grown its stripe (got {grown})"
    );

    // Phase 2: silence.  Every VOQ should shrink back to unit stripes.
    for slot in 20_000..80_000u64 {
        sw.step(slot, &mut NullSink);
    }
    assert_eq!(
        sw.voq_stripe_size(0, 0),
        1,
        "idle VOQ should shrink back to 1"
    );
    assert!(sw.total_resizes() > 0);
}

#[test]
fn no_reordering_across_a_load_shift() {
    let n = 16;
    let mut sw = adaptive_switch(n, 512);
    let mut detector = ReorderDetector::new(n);
    let mut deliveries = Vec::new();
    let mut light = BernoulliTraffic::uniform(n, 0.15, 3);
    let mut heavy = BernoulliTraffic::uniform(n, 0.85, 4);
    let mut offered = 0u64;
    let mut delivered = 0u64;
    for slot in 0..90_000u64 {
        if slot < 60_000 {
            let mut arrivals = if slot < 30_000 {
                light.arrivals(slot)
            } else {
                heavy.arrivals(slot)
            };
            detector.stamp(&mut arrivals);
            for mut p in arrivals {
                p.arrival_slot = slot;
                offered += 1;
                sw.arrive(p);
            }
        }
        deliveries.clear();
        sw.step(slot, &mut deliveries);
        for d in &deliveries {
            delivered += 1;
            detector.observe(&d.packet);
        }
    }
    assert_eq!(
        detector.stats().voq_reorder_events,
        0,
        "resizing across the load shift reordered packets"
    );
    assert!(
        delivered as f64 > offered as f64 * 0.9,
        "only {delivered}/{offered} packets delivered"
    );
    assert!(
        sw.total_resizes() > 0,
        "the load shift should have triggered resizes"
    );
}

#[test]
fn explicit_reconfiguration_preserves_order_mid_traffic() {
    let n = 8;
    let initial = TrafficMatrix::uniform(n, 0.2);
    let mut sw = SprinklersSwitch::new(
        SprinklersConfig::new(n).with_sizing(SizingMode::FromMatrix(initial)),
        5,
    );
    let mut gen = BernoulliTraffic::uniform(n, 0.7, 12);
    let mut detector = ReorderDetector::new(n);
    let mut deliveries = Vec::new();
    for slot in 0..30_000u64 {
        if slot == 10_000 {
            // Operator pushes a new traffic matrix while packets are in flight.
            sw.reconfigure_from_matrix(&TrafficMatrix::uniform(n, 0.7));
        }
        if slot < 20_000 {
            let mut arrivals = gen.arrivals(slot);
            detector.stamp(&mut arrivals);
            for mut p in arrivals {
                p.arrival_slot = slot;
                sw.arrive(p);
            }
        }
        deliveries.clear();
        sw.step(slot, &mut deliveries);
        for d in &deliveries {
            detector.observe(&d.packet);
        }
    }
    assert_eq!(detector.stats().voq_reorder_events, 0);
    assert!(
        sw.total_resizes() > 0,
        "the reconfiguration should have changed stripe sizes"
    );
}

#[test]
fn adaptive_and_matrix_sizing_converge_to_the_same_sizes() {
    let n = 16;
    let load = 0.8;
    // Matrix-driven sizes.
    let matrix = TrafficMatrix::uniform(n, load);
    let reference = SprinklersSwitch::new(
        SprinklersConfig::new(n).with_sizing(SizingMode::FromMatrix(matrix)),
        1,
    );
    let expected = reference.voq_stripe_size(3, 3);

    // Adaptive sizes after enough measurement windows.
    let mut sw = adaptive_switch(n, 256);
    let mut gen = BernoulliTraffic::uniform(n, load, 77);
    let mut detector = ReorderDetector::new(n);
    for slot in 0..40_000u64 {
        let mut arrivals = gen.arrivals(slot);
        detector.stamp(&mut arrivals);
        for p in arrivals {
            sw.arrive(p);
        }
        sw.step(slot, &mut NullSink);
    }
    let adaptive = sw.voq_stripe_size(3, 3);
    assert!(
        adaptive == expected || adaptive == expected * 2 || adaptive * 2 == expected,
        "adaptive size {adaptive} should be within one power of two of the matrix-driven size {expected}"
    );
}
