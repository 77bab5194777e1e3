//! Differential tests for the extended observability layer.
//!
//! The metrics sidecar is additive: the windowed time series must *sum* to
//! the whole-run totals the CSV already reports (for every scheme, not
//! just the well-behaved ones), the per-output delivered counts must
//! conserve packets, and the Jain fairness index must rank balanced
//! traffic above skewed traffic — exactly 1.0 when deliveries are exactly
//! equal.

use sprinklers_core::matrix::TrafficMatrix;
use sprinklers_core::packet::Packet;
use sprinklers_sim::engine::{Engine, RunConfig};
use sprinklers_sim::registry;
use sprinklers_sim::spec::{ScenarioSpec, TrafficSpec};
use sprinklers_sim::traffic::TrafficGenerator;

const N: usize = 8;

fn spec_for(scheme: &str) -> ScenarioSpec {
    ScenarioSpec::new(scheme, N)
        .with_traffic(TrafficSpec::Uniform { load: 0.7 })
        .with_run(RunConfig {
            slots: 1_100, // deliberately not a multiple of n: exercises the tail window
            warmup_slots: 110,
            drain_slots: 4_096,
        })
        .with_seed(17)
}

#[test]
fn window_sums_equal_whole_run_totals_for_every_scheme() {
    let mut engine = Engine::new();
    for scheme in registry::schemes() {
        let report = engine.run(&spec_for(scheme)).unwrap();
        let w = &report.windows;
        assert_eq!(w.stride(), N as u64, "{scheme}: stride is the frame length");
        assert!(!w.samples().is_empty(), "{scheme}: no windows sampled");
        assert_eq!(
            w.total_offered(),
            report.offered_packets,
            "{scheme}: offered mass lost between windows"
        );
        assert_eq!(
            w.total_delivered(),
            report.delivered_packets,
            "{scheme}: delivered mass lost between windows"
        );
        assert_eq!(
            w.total_padding(),
            report.padding_packets,
            "{scheme}: padding mass lost between windows"
        );
        // Windows are disjoint and ordered; the last one covers the drain.
        let mut prev = 0;
        for s in w.samples() {
            assert!(s.end_slot > prev, "{scheme}: non-increasing window ends");
            prev = s.end_slot;
        }
        // Per-output counts conserve the delivered total.
        assert_eq!(report.per_output_delivered.len(), N, "{scheme}");
        assert_eq!(
            report.per_output_delivered.iter().sum::<u64>(),
            report.delivered_packets,
            "{scheme}: per-output counts do not add up"
        );
        let util = report.per_output_utilization();
        assert_eq!(util.len(), N, "{scheme}");
        assert!(
            util.iter().all(|&u| (0.0..=1.0).contains(&u)),
            "{scheme}: utilization out of [0, 1]: {util:?}"
        );
    }
}

/// Deterministic round-robin arrivals: every slot below `offered_slots`,
/// input `i` sends one packet to output `(i + slot) % n`, so every output
/// receives exactly the same number of packets.
struct RoundRobin {
    n: usize,
    offered_slots: u64,
}

impl TrafficGenerator for RoundRobin {
    fn n(&self) -> usize {
        self.n
    }
    fn arrivals_into(&mut self, slot: u64, out: &mut Vec<Packet>) {
        if slot >= self.offered_slots {
            return;
        }
        for input in 0..self.n {
            let output = (input + slot as usize) % self.n;
            out.push(Packet::new(input, output, 0, slot));
        }
    }
    fn rate_matrix(&self) -> TrafficMatrix {
        TrafficMatrix::uniform(self.n, 1.0)
    }
    fn label(&self) -> String {
        "round-robin(deterministic)".into()
    }
}

#[test]
fn jain_fairness_is_exactly_one_for_perfectly_balanced_deliveries() {
    let m = TrafficMatrix::uniform(N, 1.0);
    let report = Engine::new().run_parts(
        sprinklers_integration_tests::switch_by_name("oq", N, &m, 5),
        RoundRobin {
            n: N,
            offered_slots: 400,
        },
        RunConfig {
            slots: 400,
            warmup_slots: 0,
            drain_slots: 4_096,
        },
    );
    assert_eq!(report.delivery_ratio(), 1.0, "OQ must drain everything");
    let per_output = &report.per_output_delivered;
    assert!(
        per_output.iter().all(|&c| c == per_output[0]),
        "round-robin deliveries should be exactly equal: {per_output:?}"
    );
    assert_eq!(report.jain_fairness(), 1.0);
}

/// Deterministic skew: every input sends each slot to output `input / 2`,
/// so on an 8-port switch outputs 0–3 each absorb two inputs' worth of
/// traffic and outputs 4–7 receive nothing.
struct HalfTheOutputs {
    n: usize,
    offered_slots: u64,
}

impl TrafficGenerator for HalfTheOutputs {
    fn n(&self) -> usize {
        self.n
    }
    fn arrivals_into(&mut self, slot: u64, out: &mut Vec<Packet>) {
        if slot >= self.offered_slots {
            return;
        }
        for input in 0..self.n {
            out.push(Packet::new(input, input / 2, 0, slot));
        }
    }
    fn rate_matrix(&self) -> TrafficMatrix {
        TrafficMatrix::uniform(self.n, 1.0)
    }
    fn label(&self) -> String {
        "half-the-outputs(deterministic)".into()
    }
}

#[test]
fn jain_fairness_ranks_skewed_traffic_below_uniform() {
    // Hotspot/diagonal patterns rotate each input's favourite output, so
    // their *column* sums stay balanced; real per-output skew needs traffic
    // that concentrates on a strict output subset.
    let uniform = Engine::new().run(&spec_for("sprinklers")).unwrap();
    assert!(
        uniform.jain_fairness() > 0.99,
        "uniform Bernoulli should be near-fair, got {}",
        uniform.jain_fairness()
    );

    let m = TrafficMatrix::uniform(N, 1.0);
    let skewed = Engine::new().run_parts(
        sprinklers_integration_tests::switch_by_name("oq", N, &m, 5),
        HalfTheOutputs {
            n: N,
            offered_slots: 200,
        },
        RunConfig {
            slots: 200,
            warmup_slots: 0,
            drain_slots: 4_096,
        },
    );
    assert_eq!(skewed.delivery_ratio(), 1.0, "OQ must drain everything");
    // Exactly half the outputs share the load equally: J = (n/2)/n = 0.5.
    assert_eq!(skewed.jain_fairness(), 0.5);
    assert!(skewed.jain_fairness() < uniform.jain_fairness());
}
