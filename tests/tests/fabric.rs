//! End-to-end properties of multi-switch fabrics.
//!
//! Three claims from the fabric layer are pinned here:
//!
//! 1. **Reorder freedom** — Sprinklers-style edge striping (`stripe`
//!    routing: per host pair, a run of packets holds one random path and
//!    only re-randomizes when the pair has nothing in flight) combined with
//!    order-preserving node schemes delivers every packet in VOQ order
//!    *end to end*, across both topology kinds, many seeds and loads.
//! 2. **The metric engages** — per-packet random routing does reorder
//!    under the same contention, so ordered fabrics aren't vacuous.
//! 3. **Determinism** — the worker count is a pure performance knob for
//!    fabrics too: the CSV row and the full metrics JSON are byte-identical
//!    at every value, with the engine's batched stepping (every
//!    arrival-free run in one `step_batch` call) underneath.
//! 4. **Reconvergence safety** — claims 1 and 3 survive fault injection:
//!    striped fabrics stay reorder-free under random link-failure
//!    schedules (survivor traffic is never inverted by a path change),
//!    every loss is typed (delivered + dropped + residual == offered), and
//!    faulted runs stay byte-identical across workers.

use proptest::prelude::*;
use sprinklers_sim::engine::RunConfig;
use sprinklers_sim::prelude::*;

/// A small admissible fat-tree whose node sizes are powers of two (edge
/// nodes 4+4 = 8 ports, cores 2), so Sprinklers can run at every node.
/// Remote demand per edge at load 0.5 is 4·0.5·½ = 1 packet/slot against a
/// 4-wide uplink trunk.
fn fat_tree(routing: RoutingSpec) -> TopologySpec {
    TopologySpec::FatTree2 {
        edges: 2,
        cores: 4,
        hosts_per_edge: 4,
        routing,
        link: LinkSpec { latency: 2, gap: 1 },
    }
}

/// A 4-switch flattened butterfly, 5 hosts each: 5 + 3 = 8-port nodes.
/// Loads stay ≤ 0.35 here — Valiant-style two-hop detours double link
/// usage, and each switch has only 3 unit-rate mesh links.
fn butterfly(routing: RoutingSpec) -> TopologySpec {
    TopologySpec::Butterfly {
        switches: 4,
        hosts_per_switch: 5,
        routing,
        link: LinkSpec { latency: 1, gap: 1 },
    }
}

fn fabric_spec(topo: TopologySpec, scheme: &str, load: f64, seed: u64) -> ScenarioSpec {
    ScenarioSpec::new(scheme, topo.hosts())
        .with_topology(topo)
        .with_traffic(TrafficSpec::Uniform { load })
        .with_run(RunConfig {
            slots: 4_000,
            warmup_slots: 400,
            drain_slots: 30_000,
        })
        .with_seed(seed)
}

#[test]
fn striped_fabrics_are_reorder_free_end_to_end() {
    // The tentpole ordering claim, fuzzed over topology kind, node scheme,
    // seed and load.  `oq` and `sprinklers` nodes are both order-preserving,
    // so any end-to-end inversion would be the *fabric's* fault: a stripe
    // that changed path while packets were still in flight.
    let mut engine = Engine::new();
    for (topo, loads) in [
        (fat_tree(RoutingSpec::Stripe), [0.3, 0.55]),
        (butterfly(RoutingSpec::Stripe), [0.2, 0.35]),
    ] {
        for scheme in ["oq", "sprinklers"] {
            for seed in [1u64, 7, 42] {
                for load in loads {
                    let spec = fabric_spec(topo.clone(), scheme, load, seed);
                    let report = engine.run(&spec).unwrap();
                    let tag = format!("{} seed={seed} load={load}", report.switch_name);
                    assert!(
                        report.reordering.is_ordered(),
                        "striped fabric reordered: {tag}"
                    );
                    // Work-conserving OQ nodes must drain completely;
                    // Sprinklers nodes may hold partial stripes at the end
                    // of the drain (exactly as a single switch does), so
                    // there we bound the leftovers instead.
                    if scheme == "oq" {
                        assert_eq!(report.residual_packets, 0, "packets stuck: {tag}");
                    } else {
                        assert!(report.delivery_ratio() > 0.9, "fabric stalled: {tag}");
                    }
                    assert!(report.offered_packets > 0, "no traffic: {tag}");
                }
            }
        }
    }
}

#[test]
fn ecmp_fabrics_are_reorder_free_too() {
    // One path per host pair is trivially ordered; cheap cross-check that
    // the per-hop rewrite itself never scrambles a VOQ.
    let mut engine = Engine::new();
    for topo in [
        fat_tree(RoutingSpec::EcmpHash),
        butterfly(RoutingSpec::EcmpHash),
    ] {
        let report = engine.run(&fabric_spec(topo, "oq", 0.4, 9)).unwrap();
        assert!(report.reordering.is_ordered());
        assert_eq!(report.residual_packets, 0);
    }
}

#[test]
fn random_routing_reorders_under_contention() {
    // The negative control: independent per-packet path choice races the
    // same VOQ down unequal queues, so end-to-end inversions must appear.
    // If this ever passes ordered, the reorder metric is not measuring the
    // fabric path.  Two cores only, so the uplinks actually queue.
    let topo = TopologySpec::FatTree2 {
        edges: 2,
        cores: 2,
        hosts_per_edge: 4,
        routing: RoutingSpec::RandomPacket,
        link: LinkSpec { latency: 2, gap: 1 },
    };
    let spec = fabric_spec(topo, "oq", 0.6, 3);
    let report = Engine::new().run(&spec).unwrap();
    assert!(
        report.reordering.voq_reorder_events > 0,
        "random per-packet routing should reorder at load 0.5"
    );
    assert_eq!(report.residual_packets, 0);
}

#[test]
fn fabric_delay_includes_the_wire_latency() {
    // Remote traffic crosses three switches and two wires of latency 2, so
    // even the minimum end-to-end delay must exceed a single switch's.
    let spec = fabric_spec(fat_tree(RoutingSpec::Stripe), "oq", 0.3, 5);
    let report = Engine::new().run(&spec).unwrap();
    // min delay over remote packets is 3 + 2·2 = 7; local pairs dilute the
    // mean but half the uniform traffic is remote here.
    assert!(
        report.delay.mean() > 2.0,
        "mean delay {} should reflect multi-hop paths",
        report.delay.mean()
    );
    assert!(report.delay.count() > 0);
}

/// A random link-failure schedule whose recovery time is short against the
/// drain, so every down link comes back well before the run ends.
fn random_faults(seed: u64) -> FaultSpec {
    FaultSpec {
        events: vec![],
        random: Some(RandomFaultSpec {
            mtbf: 1_200,
            mttr: 60,
            seed,
        }),
    }
}

#[test]
fn striped_fabrics_stay_reorder_free_under_random_failures() {
    // The tentpole reconvergence claim: random link failures force stripes
    // off dead paths mid-run, and the park-until-drained discipline must
    // keep every *surviving* packet in VOQ order end to end.  Fuzzed over
    // both topology kinds, both order-preserving node schemes and several
    // fault seeds.
    let mut engine = Engine::new();
    for (topo, load) in [
        (fat_tree(RoutingSpec::Stripe), 0.4),
        (butterfly(RoutingSpec::Stripe), 0.25),
    ] {
        for scheme in ["oq", "sprinklers"] {
            for fault_seed in [1u64, 9, 77] {
                let spec = fabric_spec(topo.clone(), scheme, load, 42)
                    .with_faults(random_faults(fault_seed));
                let report = engine.run(&spec).unwrap();
                let tag = format!("{} fault_seed={fault_seed}", report.switch_name);
                assert!(
                    report.reordering.is_ordered(),
                    "faulted striped fabric reordered survivors: {tag}"
                );
                assert!(
                    report.dropped_packets > 0,
                    "mtbf 1200 over 4000 slots must cost packets: {tag}"
                );
                // Conservation: every offered packet is delivered, typed-
                // dropped, or residual (parked/queued at run end) — never
                // silently lost.
                assert_eq!(
                    report.offered_packets,
                    report.delivered_packets + report.dropped_packets + report.residual_packets,
                    "conservation violated: {tag}"
                );
                if scheme == "oq" {
                    // Links recover fast (mttr 60 « drain 30k), so work-
                    // conserving nodes still drain every survivor.
                    assert_eq!(report.residual_packets, 0, "survivors stuck: {tag}");
                }
                let faults = report.faults.as_ref().expect("faulted report");
                assert_eq!(faults.total_dropped(), report.dropped_packets, "{tag}");
                assert!(!faults.events.is_empty(), "{tag}");
            }
        }
    }
}

#[test]
fn random_routing_still_reorders_under_failures() {
    // Negative control for the faulted fuzz: per-packet random routing
    // reorders with or without failures, so the ordered faulted runs above
    // aren't vacuous (the reorder metric still engages on faulted fabrics).
    let topo = TopologySpec::FatTree2 {
        edges: 2,
        cores: 2,
        hosts_per_edge: 4,
        routing: RoutingSpec::RandomPacket,
        link: LinkSpec { latency: 2, gap: 1 },
    };
    let spec = fabric_spec(topo, "oq", 0.6, 3).with_faults(random_faults(5));
    let report = Engine::new().run(&spec).unwrap();
    assert!(
        report.reordering.voq_reorder_events > 0,
        "random per-packet routing should reorder under failures too"
    );
}

#[test]
fn scripted_faults_report_typed_losses_and_reconvergence() {
    // A deterministic scripted schedule on the fat-tree: cut one core
    // uplink mid-run, heal it, then bounce a core switch.  The report must
    // carry one tracker per event and only typed losses.
    let spec = fabric_spec(fat_tree(RoutingSpec::Stripe), "oq", 0.4, 11).with_faults(FaultSpec {
        events: vec![
            FaultEventSpec {
                slot: 500,
                kind: FaultKind::LinkDown,
                index: 0,
            },
            FaultEventSpec {
                slot: 1_500,
                kind: FaultKind::LinkUp,
                index: 0,
            },
            FaultEventSpec {
                slot: 2_000,
                kind: FaultKind::NodeDown,
                index: 2,
            },
            FaultEventSpec {
                slot: 2_600,
                kind: FaultKind::NodeUp,
                index: 2,
            },
        ],
        random: None,
    });
    let report = Engine::new().run(&spec).unwrap();
    assert!(report.reordering.is_ordered());
    let faults = report.faults.as_ref().expect("faulted report");
    assert_eq!(faults.events.len(), 4);
    assert_eq!(
        report.offered_packets,
        report.delivered_packets + report.dropped_packets + report.residual_packets
    );
    // The link-down flushes wire traffic at load 0.4; its victims must
    // resume within the run (the metric is slots *after* the event).
    let cut = &faults.events[0];
    assert_eq!(cut.slot, 500);
    assert!(cut.dropped > 0, "a loaded uplink holds packets at slot 500");
    let reconverged = cut.reconverged_slot.expect("survivor pairs resume");
    assert!(
        reconverged >= cut.slot && reconverged < 4_000,
        "reconvergence at {reconverged} should land inside the run"
    );
    // Both up events cost nothing and reconverge trivially.
    assert_eq!(faults.events[1].dropped, 0);
    assert_eq!(faults.events[1].reconverged_slot, Some(1_500));
    // The metrics sidecar carries the whole block.
    let json = report.metrics_json();
    assert!(json.contains("\"faults\":{\"dropped_by_cause\""));
    assert!(json.contains("\"reconvergence_slots\""));
}

#[test]
fn faulted_fabrics_are_byte_identical_across_workers_and_batch() {
    // Determinism is the whole point of *deterministic* fault injection:
    // a faulted run is as byte-stable as a healthy one at every worker
    // count, including the full metrics JSON (fault block included).
    let base = fabric_spec(fat_tree(RoutingSpec::Stripe), "sprinklers", 0.45, 7)
        .with_run(RunConfig {
            slots: 1_500,
            warmup_slots: 150,
            drain_slots: 12_000,
        })
        .with_faults(FaultSpec {
            events: vec![FaultEventSpec {
                slot: 400,
                kind: FaultKind::NodeDown,
                index: 2,
            }],
            random: Some(RandomFaultSpec {
                mtbf: 700,
                mttr: 50,
                seed: 3,
            }),
        });
    let reference = Engine::new().run(&base).unwrap();
    assert!(
        reference.dropped_packets > 0,
        "the schedule must actually bite"
    );
    let want_row = reference.csv_row();
    let want_json = reference.metrics_json();
    for workers in [1usize, 4] {
        let got = &run_specs_parallel_ok(std::slice::from_ref(&base), workers).unwrap()[0];
        assert_eq!(got.csv_row(), want_row, "csv diverged at workers={workers}");
        assert_eq!(
            got.metrics_json(),
            want_json,
            "metrics diverged at workers={workers}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Workers are a pure perf knob for fabric scenarios: the merged CSV
    /// row and the full metrics JSON never move by a byte.
    #[test]
    fn fabric_parity_across_workers_and_batch(
        seed in 0u64..1_000,
        stripe in 0u32..2,
    ) {
        let routing = if stripe == 1 { RoutingSpec::Stripe } else { RoutingSpec::RandomPacket };
        let base = fabric_spec(fat_tree(routing), "sprinklers", 0.45, seed)
            .with_run(RunConfig { slots: 1_500, warmup_slots: 150, drain_slots: 12_000 });

        // Reference: one engine, no worker pool.
        let reference = Engine::new().run(&base).unwrap();
        let want_row = reference.csv_row();
        let want_json = reference.metrics_json();

        for workers in [1usize, 4] {
            let got = &run_specs_parallel_ok(std::slice::from_ref(&base), workers).unwrap()[0];
            prop_assert_eq!(
                got.csv_row(),
                want_row.clone(),
                "csv diverged at workers={}",
                workers
            );
            prop_assert_eq!(
                got.metrics_json(),
                want_json.clone(),
                "metrics diverged at workers={}",
                workers
            );
        }
    }
}
