//! Shared helpers for the cross-crate integration tests.
//!
//! The actual tests live in `tests/tests/*.rs`; this small library provides
//! the scaffolding they share: building switches through the
//! `sprinklers-sim` registry and running short, seeded simulations with
//! consistent metrics through the engine.

use sprinklers_core::matrix::TrafficMatrix;
use sprinklers_core::packet::{DeliveredPacket, Packet};
use sprinklers_core::switch::Switch;
use sprinklers_sim::engine::{Engine, RunConfig};
use sprinklers_sim::registry;
use sprinklers_sim::report::SimReport;
use sprinklers_sim::spec::SizingSpec;
use sprinklers_sim::traffic::TrafficGenerator;

/// Build any registered switch by name with matrix-driven sizing.
pub fn switch_by_name(name: &str, n: usize, matrix: &TrafficMatrix, seed: u64) -> Box<dyn Switch> {
    registry::build_named(name, n, &SizingSpec::Matrix, matrix, seed)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// The schemes that promise per-VOQ in-order delivery (the paper's ordered
/// comparison set; `registry::ORDERED_SCHEMES` adds `sprinklers-adaptive`
/// and the OQ reference).
pub const ORDERED_SCHEMES: [&str; 4] = ["sprinklers", "ufs", "foff", "padded-frames"];

/// Run a switch against a generator with a short, deterministic configuration.
pub fn run<S: Switch, G: TrafficGenerator>(switch: S, traffic: G, slots: u64) -> SimReport {
    Engine::new().run_parts(
        switch,
        traffic,
        RunConfig {
            slots,
            warmup_slots: slots / 10,
            drain_slots: slots.max(4_096) * 2,
        },
    )
}

/// Drive a switch through a per-slot arrival schedule the way the engine
/// does — `schedule[slot]` is injected before `slot` is stepped, and a
/// `step_batch` call never spans an arrival-bearing slot — with the given
/// `batch` knob.  Returns the delivery stream.
pub fn drive_schedule(
    switch: &mut dyn Switch,
    schedule: &[Vec<Packet>],
    batch: u64,
) -> Vec<DeliveredPacket> {
    let mut delivered = Vec::new();
    let total = schedule.len() as u64;
    let mut slot = 0u64;
    while slot < total {
        for p in &schedule[slot as usize] {
            switch.arrive(p.clone());
        }
        let mut end = slot + 1;
        while end < total && end < slot + batch && schedule[end as usize].is_empty() {
            end += 1;
        }
        switch.step_batch(slot, (end - slot) as u32, &mut delivered);
        slot = end;
    }
    delivered
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprinklers_sim::traffic::bernoulli::BernoulliTraffic;

    #[test]
    fn switch_by_name_covers_all_registered_schemes() {
        let m = TrafficMatrix::uniform(8, 0.5);
        for name in registry::schemes() {
            let sw = switch_by_name(name, 8, &m, 3);
            assert_eq!(sw.n(), 8);
        }
    }

    #[test]
    fn run_helper_produces_a_report() {
        let m = TrafficMatrix::uniform(8, 0.3);
        let sw = switch_by_name("sprinklers", 8, &m, 3);
        let report = run(sw, BernoulliTraffic::uniform(8, 0.3, 9), 2_000);
        assert!(report.offered_packets > 0);
    }
}
