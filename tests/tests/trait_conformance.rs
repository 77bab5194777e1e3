//! Trait-level conformance suite for every scheme in the registry.
//!
//! Nothing in this file names an individual scheme except the harness
//! sanity checks: every test iterates [`registry::schemes`], so a newly
//! registered scheme is covered automatically the moment it lands in the
//! registry — the contract checks, the engine round-trip *and* its
//! [`registry::is_reordering_free`] claim.
//!
//! Every switch the registry can build must honour the `Switch` contract
//! through the sink path:
//!
//! * **Conservation** — no packet is lost or duplicated: everything offered
//!   is either delivered through the sink or still queued (per `stats()`),
//!   and delivered ids are unique.
//! * **Output line rate** — at most one packet per output port per slot.
//! * **Ordering** — schemes that promise reordering-free delivery
//!   (`registry::is_reordering_free`) never emit a VOQ-reordered packet.
//!
//! The checks observe the switch exclusively through a custom
//! [`DeliverySink`], so they exercise exactly the interface the engine uses.

use sprinklers_baselines::NewSwitch;
use sprinklers_core::matrix::TrafficMatrix;
use sprinklers_core::packet::{DeliveredPacket, Packet};
use sprinklers_core::switch::{DeliverySink, Switch, SwitchStats};
use sprinklers_sim::engine::{Engine, RunConfig};
use sprinklers_sim::fabric::FabricWorld;
use sprinklers_sim::metrics::reorder::ReorderDetector;
use sprinklers_sim::registry;
use sprinklers_sim::spec::{
    LinkSpec, RoutingSpec, ScenarioSpec, SizingSpec, TopologySpec, TrafficSpec,
};
use sprinklers_sim::traffic::flows::FlowTraffic;
use sprinklers_sim::traffic::TrafficGenerator;
use std::collections::HashSet;

/// A sink that checks the per-slot delivery contract as packets arrive.
struct ConformanceSink {
    n: usize,
    slot: u64,
    /// Outputs that already received a packet in the current slot.
    outputs_this_slot: Vec<bool>,
    seen_ids: HashSet<u64>,
    reorder: ReorderDetector,
    delivered: u64,
    padding: u64,
    violations: Vec<String>,
}

impl ConformanceSink {
    fn new(n: usize) -> Self {
        ConformanceSink {
            n,
            slot: 0,
            outputs_this_slot: vec![false; n],
            seen_ids: HashSet::new(),
            reorder: ReorderDetector::new(n),
            delivered: 0,
            padding: 0,
            violations: Vec::new(),
        }
    }

    /// Start a new slot: reset the per-output flags.
    fn begin_slot(&mut self, slot: u64) {
        self.slot = slot;
        self.outputs_this_slot.iter_mut().for_each(|b| *b = false);
    }
}

impl DeliverySink for ConformanceSink {
    fn deliver(&mut self, d: DeliveredPacket) {
        if d.departure_slot != self.slot {
            self.violations.push(format!(
                "delivery stamped slot {} during slot {}",
                d.departure_slot, self.slot
            ));
        }
        let output = d.packet.output();
        if output >= self.n {
            self.violations
                .push(format!("output {output} out of range"));
            return;
        }
        if self.outputs_this_slot[output] {
            self.violations.push(format!(
                "two deliveries to output {output} in slot {}",
                self.slot
            ));
        }
        self.outputs_this_slot[output] = true;
        if d.packet.is_padding() {
            self.padding += 1;
            return;
        }
        if !self.seen_ids.insert(d.packet.id) {
            self.violations
                .push(format!("packet id {} delivered twice", d.packet.id));
        }
        self.delivered += 1;
        self.reorder.observe(&d.packet);
    }
}

/// Drive `switch` against flow-structured traffic at `load` through the
/// sink, checking the contract on every slot.  Returns (offered, sink).
fn drive_conformance(
    switch: &mut dyn Switch,
    load: f64,
    seed: u64,
    slots: u64,
    drain: u64,
) -> (u64, ConformanceSink) {
    let n = switch.n();
    // Flow-rich traffic so the TCP-hashing baseline spreads over paths; every
    // other scheme ignores the flow ids.
    let mut traffic = FlowTraffic::uniform(n, load, 10.0, seed);
    let mut sink = ConformanceSink::new(n);
    let mut arrivals: Vec<Packet> = Vec::with_capacity(n);
    let mut offered = 0u64;
    let mut next_id = 0u64;
    for slot in 0..slots + drain {
        if slot < slots {
            arrivals.clear();
            traffic.arrivals_into(slot, &mut arrivals);
            sink.reorder.stamp(&mut arrivals);
            for mut p in arrivals.drain(..) {
                p.id = next_id;
                next_id += 1;
                offered += 1;
                switch.arrive(p);
            }
        }
        sink.begin_slot(slot);
        switch.step(slot, &mut sink);
    }
    (offered, sink)
}

/// Build a registry scheme at size `n` with matrix sizing, uniform load.
fn build(scheme: &str, n: usize, load: f64, seed: u64) -> Box<dyn Switch> {
    let matrix = TrafficMatrix::uniform(n, load);
    registry::build_named(scheme, n, &SizingSpec::Matrix, &matrix, seed)
        .unwrap_or_else(|e| panic!("registry refused to build '{scheme}': {e}"))
}

#[test]
fn registry_scheme_list_is_well_formed() {
    let schemes = registry::schemes();
    assert!(schemes.len() >= 7, "registry lost schemes");
    let unique: HashSet<&str> = schemes.iter().copied().collect();
    assert_eq!(unique.len(), schemes.len(), "duplicate scheme names");
    assert!(schemes.iter().all(|s| !s.is_empty()));
    // Every name the ordering claim mentions must actually be buildable.
    for scheme in schemes {
        let sw = build(scheme, 8, 0.5, 3);
        assert_eq!(sw.n(), 8, "{scheme}");
        assert!(!sw.name().is_empty(), "{scheme}");
    }
}

/// Assert the contract on one finished [`drive_conformance`] run: no
/// per-slot violation, conservation against `stats()`, most packets out,
/// and no VOQ reordering where `ordered` promises none.
fn assert_contract(
    what: &str,
    world: &dyn Switch,
    offered: u64,
    sink: &ConformanceSink,
    ordered: bool,
) {
    assert!(
        sink.violations.is_empty(),
        "{what}: {:?}",
        &sink.violations[..sink.violations.len().min(5)]
    );

    // Conservation: delivered + still-queued == offered, nothing duplicated.
    let stats = world.stats();
    assert_eq!(
        sink.delivered + stats.total_queued() as u64,
        offered,
        "{what} lost or duplicated packets"
    );
    assert_eq!(
        stats.total_departures, sink.delivered,
        "{what}: stats disagree with the sink"
    );
    assert!(
        sink.delivered as f64 > offered as f64 * 0.8,
        "{what} delivered only {}/{offered}",
        sink.delivered
    );
    if ordered {
        assert_eq!(
            sink.reorder.stats().voq_reorder_events,
            0,
            "{what} promises reordering-free delivery but reordered"
        );
    }
}

#[test]
fn every_scheme_satisfies_the_sink_contract() {
    let n = 8;
    for scheme in registry::schemes() {
        let mut switch = build(scheme, n, 0.6, 11);
        let (offered, sink) = drive_conformance(switch.as_mut(), 0.6, 31, 4_000, 12_000);
        // The is_reordering_free claim, asserted per scheme through the sink.
        let ordered = registry::is_reordering_free(scheme);
        assert_contract(scheme, switch.as_ref(), offered, &sink, ordered);
    }
}

#[test]
fn fabrics_satisfy_the_sink_contract() {
    // A fabric is a `Switch` whose ports are its hosts, so the same harness
    // drives it end to end.  Pair-pinned routing (ECMP hash) and striping
    // both keep a host VOQ in order over reorder-free nodes.  A node's
    // padding reaches the sink addressed to the host its port faces, so a
    // padding scheme keeps the output line rate too.
    let link = LinkSpec { latency: 2, gap: 1 };
    let topologies = [
        TopologySpec::FatTree2 {
            edges: 2,
            cores: 4,
            hosts_per_edge: 4,
            routing: RoutingSpec::Stripe,
            link,
        },
        TopologySpec::Butterfly {
            switches: 5,
            hosts_per_switch: 4,
            routing: RoutingSpec::EcmpHash,
            link,
        },
    ];
    for topo in &topologies {
        for scheme in ["oq", "sprinklers", "padded-frames"] {
            let mut world = FabricWorld::build(topo, scheme, &SizingSpec::Matrix, 13, 0.5)
                .unwrap_or_else(|e| panic!("{e}"));
            let (offered, sink) = drive_conformance(&mut world, 0.5, 37, 2_000, 6_000);
            assert!(offered > 5_000, "{}: workload too small", world.name());
            assert_contract(world.name(), &world, offered, &sink, true);
        }
    }
}

#[test]
fn the_harness_detects_reordering_from_some_unordered_scheme() {
    // Sanity check that the conformance harness can see reordering at all —
    // otherwise the ordered-scheme assertions above are vacuous.  At 90%
    // load every scheme that does NOT claim reordering-freedom must trip the
    // detector, so `ORDERED_SCHEMES` is exact in both directions.
    let n = 8;
    let unordered: Vec<&str> = registry::schemes()
        .iter()
        .copied()
        .filter(|s| !registry::is_reordering_free(s))
        .collect();
    assert!(
        !unordered.is_empty(),
        "registry claims every scheme is ordered; the sanity check is gone"
    );
    for scheme in &unordered {
        let mut switch = build(scheme, n, 0.9, 1);
        let (_, sink) = drive_conformance(switch.as_mut(), 0.9, 77, 30_000, 0);
        assert!(
            sink.violations.is_empty(),
            "{scheme}: {:?}",
            sink.violations.first()
        );
        assert!(
            sink.reorder.stats().voq_reorder_events > 0,
            "{scheme} is not in ORDERED_SCHEMES but never reordered at 90% load"
        );
    }
}

/// One slot's worth of stamped arrivals per entry, as the engine would hand
/// them over: flow-rich uniform traffic at `load` for `slots` slots.
fn stamped_arrivals(n: usize, load: f64, seed: u64, slots: u64) -> Vec<Vec<Packet>> {
    let mut traffic = FlowTraffic::uniform(n, load, 10.0, seed);
    let mut detector = ReorderDetector::new(n);
    let mut next_id = 0u64;
    (0..slots)
        .map(|slot| {
            let mut arrivals = traffic.arrivals(slot);
            detector.stamp(&mut arrivals);
            for p in &mut arrivals {
                p.id = next_id;
                next_id += 1;
            }
            arrivals
        })
        .collect()
}

/// Drive `world` over `arrivals` plus a drain, handing each slot over either
/// in one `arrive_batch` call or packet by packet.
fn drive_injecting(
    world: &mut dyn Switch,
    arrivals: &[Vec<Packet>],
    drain: u64,
    batched: bool,
) -> (Vec<DeliveredPacket>, SwitchStats) {
    let mut out = Vec::new();
    for slot in 0..arrivals.len() as u64 + drain {
        if let Some(packets) = arrivals.get(slot as usize) {
            if batched {
                world.arrive_batch(packets);
            } else {
                for p in packets {
                    world.arrive(p.clone());
                }
            }
        }
        world.step(slot, &mut out);
    }
    (out, world.stats())
}

#[test]
fn arrive_batch_is_the_arrive_loop_for_every_scheme() {
    // n = 16 at load 0.8: several arrivals in nearly every slot, full
    // stripes at the Sprinklers inputs, frames at the frame-based baselines.
    let (n, load) = (16, 0.8);
    let arrivals = stamped_arrivals(n, load, 23, 3_000);
    for scheme in registry::schemes() {
        let (reference, ref_stats) =
            drive_injecting(&mut build(scheme, n, load, 11), &arrivals, 6_000, false);
        let (got, stats) = drive_injecting(&mut build(scheme, n, load, 11), &arrivals, 6_000, true);
        assert!(
            reference.len() > 10_000,
            "{scheme}: workload too small to compare anything"
        );
        assert_eq!(
            got, reference,
            "{scheme}: arrive_batch changed the deliveries"
        );
        assert_eq!(stats, ref_stats, "{scheme}: arrive_batch changed stats()");
    }

    // A fabric takes the slot through the same `Switch::arrive_batch`.
    let topo = TopologySpec::FatTree2 {
        edges: 2,
        cores: 4,
        hosts_per_edge: 4,
        routing: RoutingSpec::EcmpHash,
        link: LinkSpec { latency: 2, gap: 1 },
    };
    let hosts = topo.hosts();
    let arrivals = stamped_arrivals(hosts, 0.5, 29, 2_000);
    let world = || {
        FabricWorld::build(&topo, "sprinklers", &SizingSpec::Matrix, 7, 0.5)
            .unwrap_or_else(|e| panic!("{e}"))
    };
    let (reference, ref_stats) = drive_injecting(&mut world(), &arrivals, 4_000, false);
    let (got, stats) = drive_injecting(&mut world(), &arrivals, 4_000, true);
    assert!(reference.len() > 5_000, "fabric workload too small");
    assert_eq!(
        got, reference,
        "fabric: arrive_batch changed the deliveries"
    );
    assert_eq!(stats, ref_stats, "fabric: arrive_batch changed stats()");
}

#[test]
fn borrowed_switches_drive_through_the_blanket_impl() {
    // `&mut T` implements `Switch`, so generic drivers work on borrows —
    // the registry's boxed switches and plain structs alike.
    fn drive_two_slots<S: Switch>(mut sw: S) -> u64 {
        let mut out: Vec<DeliveredPacket> = Vec::new();
        sw.arrive(Packet::new(0, 1, 0, 0));
        sw.step(0, &mut out);
        sw.step(1, &mut out);
        sw.stats().total_arrivals
    }

    let mut boxed = build("oq", 8, 0.5, 1);
    assert_eq!(drive_two_slots(&mut boxed), 1);
    // The original box is still usable afterwards: the borrow drove the same
    // underlying switch.
    assert_eq!(boxed.stats().total_arrivals, 1);

    let mut plain = sprinklers_baselines::BaselineLbSwitch::new(8);
    assert_eq!(drive_two_slots(&mut plain), 1);
    assert_eq!(plain.stats().total_arrivals, 1);
}

#[test]
fn every_scheme_runs_through_the_engine_from_one_spec_type() {
    // The acceptance-level property: every registered scheme is drivable
    // end to end from a ScenarioSpec through Engine::run, and the engine's
    // view of the ordering claim matches the registry's.
    let mut engine = Engine::new();
    for scheme in registry::schemes() {
        let spec = ScenarioSpec::new(*scheme, 8)
            .with_traffic(TrafficSpec::Flows {
                load: 0.5,
                mean_flow_len: 10.0,
            })
            .with_run(RunConfig {
                slots: 3_000,
                warmup_slots: 300,
                drain_slots: 9_000,
            })
            .with_seed(5);
        let report = engine.run(&spec).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(report.n, 8, "{scheme}");
        assert!(
            report.delivery_ratio() > 0.8,
            "{scheme} delivered only {:.1}%",
            report.delivery_ratio() * 100.0
        );
        if registry::is_reordering_free(scheme) {
            assert_eq!(
                report.reordering.voq_reorder_events, 0,
                "{scheme} reordered through the engine"
            );
        }
    }
}
