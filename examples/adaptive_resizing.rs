//! Adaptive stripe sizing under a load shift.
//!
//! The switch starts under light uniform traffic, then one input suddenly
//! directs a heavy flow of traffic at one output.  With adaptive sizing the
//! affected VOQ measures the new rate, widens its stripe interval (after the
//! clearance phase of §5), and the switch keeps delivering every packet in
//! order throughout the transition.
//!
//! Run with:
//! ```text
//! cargo run --release -p sprinklers-bench --example adaptive_resizing
//! ```

use sprinklers_core::config::{AdaptiveSizing, SizingMode, SprinklersConfig};
use sprinklers_core::packet::Packet;
use sprinklers_core::sprinklers::SprinklersSwitch;
use sprinklers_core::switch::Switch;
use sprinklers_sim::metrics::reorder::ReorderDetector;
use sprinklers_sim::traffic::bernoulli::BernoulliTraffic;
use sprinklers_sim::traffic::TrafficGenerator;

fn main() {
    let n = 16;
    let hot_input = 2;
    let hot_output = 5;
    let config = SprinklersConfig::new(n).with_sizing(SizingMode::Adaptive(AdaptiveSizing {
        window: 512,
        gamma: 0.7,
        patience: 1,
        initial_size: 1,
    }));
    let mut switch = SprinklersSwitch::new(config, 11);

    let mut light = BernoulliTraffic::uniform(n, 0.2, 3);
    let mut detector = ReorderDetector::new(n);
    let mut offered = 0u64;
    let mut delivered = 0u64;
    // Reused across slots: a Vec is a DeliverySink, and clearing it each slot
    // keeps the loop allocation-free once it reaches steady state.
    let mut deliveries = Vec::new();

    let phase_a = 20_000u64; // light uniform traffic
    let phase_b = 40_000u64; // plus a hot VOQ at ~0.45 load
    let drain = 20_000u64;

    println!("slot      hot-VOQ stripe size   total resizes");
    let mut shifted_size = 0;
    for slot in 0..(phase_b + drain) {
        if slot < phase_b {
            let mut arrivals = light.arrivals(slot);
            // In phase B, add a heavy stream on one VOQ (roughly 0.45 load).
            if slot >= phase_a && slot % 9 < 4 {
                arrivals.retain(|p| p.input() != hot_input);
                arrivals.push(Packet::new(hot_input, hot_output, 0, slot));
            }
            detector.stamp(&mut arrivals);
            for mut p in arrivals {
                p.arrival_slot = slot;
                offered += 1;
                switch.arrive(p);
            }
        }
        deliveries.clear();
        switch.step(slot, &mut deliveries);
        for d in &deliveries {
            delivered += 1;
            detector.observe(&d.packet);
        }
        if slot + 1 == phase_b {
            shifted_size = switch.voq_stripe_size(hot_input, hot_output);
        }
        if slot % 4096 == 0 {
            println!(
                "{slot:>8} {:>21} {:>15}",
                switch.voq_stripe_size(hot_input, hot_output),
                switch.total_resizes()
            );
        }
    }

    // The idle drain lets the hot VOQ shrink back, so its widened stripe is
    // read at the end of phase B.
    let final_size = switch.voq_stripe_size(hot_input, hot_output);
    println!();
    println!("offered {offered}, delivered {delivered}");
    println!("hot VOQ stripe size at the end of the load shift: {shifted_size}");
    println!("hot VOQ stripe size after the idle drain: {final_size}");
    println!(
        "total committed stripe-size changes: {}",
        switch.total_resizes()
    );
    println!(
        "reordering events across the whole run: {} (must be 0)",
        detector.stats().voq_reorder_events
    );
    assert_eq!(detector.stats().voq_reorder_events, 0);
    assert!(
        shifted_size > 1,
        "the hot VOQ should have widened its stripe"
    );
}
