//! Fabric delivery-stream pins: a fast failure ahead of the golden CSVs.
//!
//! A fabric run is a pure function of its spec: the same topology, routing,
//! node scheme, seed and fault schedule yield the same delivered packets in
//! the same order, the same occupancy counters and the same fault summary.
//! The golden CSVs depend on that, but they aggregate; these hashes cover
//! every field of every [`DeliveredPacket`] (padding included), the final
//! [`SwitchStats`] and the full [`FaultSummary`], so a change that reorders
//! two deliveries inside one slot, stamps a different routing header or
//! moves one reconvergence slot shows here first.  The constants were
//! captured on the commit *before* the fabric moved from by-value packets
//! and a per-packet identity table to the handle store, so they pin the
//! original streams, not a re-derivation of them.  The 18 `padded-frames`
//! rows were re-captured once since, when a node's padding at a host port
//! began to be addressed to that host instead of the node-local port: the
//! padding counts are unchanged, only its output field moved.
//!
//! Every case is driven twice — one slot per `step_batch` call, and arrival-free
//! runs of up to 64 slots per call as the engine batches them — and both
//! must produce the pinned hash.

use sprinklers_core::packet::DeliveredPacket;
use sprinklers_core::switch::{DeliverySink, Switch};
use sprinklers_sim::cache::fnv1a_128;
use sprinklers_sim::engine::RunConfig;
use sprinklers_sim::fabric::FabricWorld;
use sprinklers_sim::report::FaultSummary;
use sprinklers_sim::spec::{
    FaultEventSpec, FaultKind, FaultSpec, LinkSpec, RandomFaultSpec, RoutingSpec, SizingSpec,
    TopologySpec,
};
use sprinklers_sim::traffic::bernoulli::BernoulliTraffic;
use sprinklers_sim::traffic::TrafficGenerator;

const RUN: RunConfig = RunConfig {
    slots: 1_500,
    warmup_slots: 0,
    drain_slots: 1_500,
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

/// 4 edges × 4 cores × 4 hosts: 8-port edges and 4-port cores, so every
/// node is a power of two and Sprinklers runs at each of them.
fn fat_tree(routing: RoutingSpec) -> TopologySpec {
    TopologySpec::FatTree2 {
        edges: 4,
        cores: 4,
        hosts_per_edge: 4,
        routing,
        link: LinkSpec { latency: 2, gap: 1 },
    }
}

/// 5 switches × 4 hosts: 4 + 4 = 8-port nodes.
fn butterfly(routing: RoutingSpec) -> TopologySpec {
    TopologySpec::Butterfly {
        switches: 5,
        hosts_per_switch: 4,
        routing,
        link: LinkSpec { latency: 1, gap: 2 },
    }
}

/// Link failures with and without recovery, overlapping a node failure —
/// node 5 is a fat-tree core and node 2 a butterfly switch with hosts, so
/// the two topologies see transit-only and injection-blocking node loss.
fn scripted(node: usize) -> FaultSpec {
    let event = |slot, kind, index| FaultEventSpec { slot, kind, index };
    FaultSpec {
        events: vec![
            event(200, FaultKind::LinkDown, 0),
            event(400, FaultKind::LinkDown, 17),
            event(500, FaultKind::NodeDown, node),
            event(600, FaultKind::LinkUp, 0),
            event(900, FaultKind::NodeUp, node),
            event(1_700, FaultKind::LinkDown, 3),
        ],
        random: None,
    }
}

fn random_faults() -> FaultSpec {
    FaultSpec {
        events: Vec::new(),
        random: Some(RandomFaultSpec {
            mtbf: 400,
            mttr: 60,
            seed: 11,
        }),
    }
}

/// Drive one case the way the engine does — ids and VOQ sequence numbers
/// assigned at injection, arrival-free runs of at most `batch` slots per
/// `step_batch` — and hash the delivery stream, the final counters and the
/// fault summary.
fn run_hash(
    topo: &TopologySpec,
    scheme: &str,
    load: f64,
    faults: Option<&FaultSpec>,
    batch: u32,
) -> (u128, Option<FaultSummary>) {
    let hosts = topo.hosts();
    let mut world = FabricWorld::build(topo, scheme, &SizingSpec::Matrix, 2014, load).unwrap();
    if let Some(faults) = faults {
        faults.validate(topo, &RUN).unwrap();
        world = world.with_faults(faults, &RUN);
    }
    let mut traffic = BernoulliTraffic::uniform(hosts, load, 99);
    let mut sink = ByteSink::default();
    let mut arrivals = Vec::new();
    let mut voq_seq = vec![0u64; hosts * hosts];
    let mut next_id = 0u64;
    let (mut run_start, mut run_len) = (0u64, 0u32);
    for slot in 0..RUN.slots + RUN.drain_slots {
        arrivals.clear();
        if slot < RUN.slots {
            traffic.arrivals_into(slot, &mut arrivals);
        }
        if run_len == batch || (run_len > 0 && !arrivals.is_empty()) {
            world.step_batch(run_start, run_len, &mut sink);
            run_len = 0;
        }
        if run_len == 0 {
            run_start = slot;
        }
        for mut packet in arrivals.drain(..) {
            packet.id = next_id;
            next_id += 1;
            packet.arrival_slot = slot;
            let key = packet.input() * hosts + packet.output();
            packet.voq_seq = voq_seq[key];
            voq_seq[key] += 1;
            world.arrive(packet);
        }
        run_len += 1;
    }
    world.step_batch(run_start, run_len, &mut sink);

    let stats = world.stats();
    assert_eq!(stats.total_arrivals, next_id);
    assert!(stats.total_departures > next_id / 2, "the fabric stalled");
    sink.words(&[
        stats.queued_at_inputs as u64,
        stats.queued_at_intermediates as u64,
        stats.queued_at_outputs as u64,
        stats.total_arrivals,
        stats.total_departures,
        stats.total_dropped,
    ]);
    let summary = world.fault_summary();
    if let Some(summary) = &summary {
        assert_eq!(summary.total_dropped(), stats.total_dropped);
        sink.words(&[
            summary.dropped_link_failure,
            summary.dropped_node_failure,
            summary.dropped_dead_link,
            summary.dropped_dead_node,
            summary.events.len() as u64,
        ]);
        for e in &summary.events {
            sink.words(&[
                e.slot,
                e.kind as u64,
                e.index as u64,
                e.dropped,
                e.affected_pairs as u64,
                e.reconverged_slot.map_or(u64::MAX, |s| s),
            ]);
        }
    }
    (fnv1a_128(&sink.0), summary)
}

/// Hashes in case order: topology (fat-tree, butterfly) × routing (ecmp,
/// random, stripe) × scheme (oq, sprinklers, padded-frames) × faults (none,
/// scripted, random).
const PINS: [u128; 54] = [
    0x30316ef7bb035ad0727fb7d36c9f2f3c, // fat-tree2 ecmp oq faults=none
    0x2a9fe190d91cea413e273acfa3ac9dfd, // fat-tree2 ecmp oq faults=scripted
    0x693bc1bfaebdfb6bb3fd780d617f2169, // fat-tree2 ecmp oq faults=random
    0xf7ca6987a7a8b90460ea637b5c9a2dc6, // fat-tree2 ecmp sprinklers faults=none
    0x365f66f527b83547c02fdc0046f82221, // fat-tree2 ecmp sprinklers faults=scripted
    0xdbe859e59d1aa520f3d2dbc29cdcf1de, // fat-tree2 ecmp sprinklers faults=random
    0x260cdbb219984381f0849d17300b9b7c, // fat-tree2 ecmp padded-frames faults=none
    0x7b63c62ab440a289d8240f60be1baa14, // fat-tree2 ecmp padded-frames faults=scripted
    0xa62f1403761630929ef09a1f336ee188, // fat-tree2 ecmp padded-frames faults=random
    0x3cc792046a4dac66ccc87f8e32097c84, // fat-tree2 random oq faults=none
    0xd1776727f9284396bb985628f0ddeefa, // fat-tree2 random oq faults=scripted
    0xb546c6f959b07cd12fed84c951384366, // fat-tree2 random oq faults=random
    0x42d2948900c9d7aa23fbde774a344e76, // fat-tree2 random sprinklers faults=none
    0x025bbbee6fae72314eaccadad2b2f010, // fat-tree2 random sprinklers faults=scripted
    0x43aa41c5bac5b31de6b794a43211c34f, // fat-tree2 random sprinklers faults=random
    0x7d4ddc9733adde67e52a3d26bc2154ca, // fat-tree2 random padded-frames faults=none
    0x4b453c8152318763fe7b330691571a61, // fat-tree2 random padded-frames faults=scripted
    0xd41ab3771cd1f44148dad0b110b7415b, // fat-tree2 random padded-frames faults=random
    0xa246cd802040679d657c70a43e621e36, // fat-tree2 stripe oq faults=none
    0xd415668f2e436ba8b5bf62ae6fd62523, // fat-tree2 stripe oq faults=scripted
    0xf7ff630e42950b3a75eff9ae93eb1743, // fat-tree2 stripe oq faults=random
    0x2f950ff8fb2b96c9ece4a3ab13dd6472, // fat-tree2 stripe sprinklers faults=none
    0x12829b2857f457baff62b24fd1ca3ada, // fat-tree2 stripe sprinklers faults=scripted
    0xbf4f6f8555e499ffe7ef7e3c69cb99bc, // fat-tree2 stripe sprinklers faults=random
    0x1ceee0e013d434a3f39ecf69c1e49f17, // fat-tree2 stripe padded-frames faults=none
    0xc32ca1e61c7b8c38e1cd8662d2c4ee0a, // fat-tree2 stripe padded-frames faults=scripted
    0xd566b4749d3d28a8e2d3270a8082b032, // fat-tree2 stripe padded-frames faults=random
    0x1ed08ba51c9800517ba84d19e3fe224f, // butterfly ecmp oq faults=none
    0xd1005c1ff9ba640cf9fcbbf1a0ddabe5, // butterfly ecmp oq faults=scripted
    0xef65780955d3aa38a004a8492448f470, // butterfly ecmp oq faults=random
    0xcbe2a2368da05b9175b32c74fc22e944, // butterfly ecmp sprinklers faults=none
    0x81652d6420bfa4019e9d73ed29ac9fe8, // butterfly ecmp sprinklers faults=scripted
    0x6cbce1458d22d89ad82c2b14e898395a, // butterfly ecmp sprinklers faults=random
    0x81e0ab6d601267094bad1fa5a92cb328, // butterfly ecmp padded-frames faults=none
    0xabcb44cd43cfdaff67df5020c6085685, // butterfly ecmp padded-frames faults=scripted
    0x211fa5737267c2c7cba7621459eac6e3, // butterfly ecmp padded-frames faults=random
    0x2cd2ecaf2b9e4fe7c063624210a67d94, // butterfly random oq faults=none
    0xc839426cb1a05371cd68c735c07f157b, // butterfly random oq faults=scripted
    0xf4646f98462d7d23452078a5182752d1, // butterfly random oq faults=random
    0xd5c8feb77e9979d0aa131ab43b18fdec, // butterfly random sprinklers faults=none
    0x550b497e1f9466611290b0fc9f343fb4, // butterfly random sprinklers faults=scripted
    0x288244cfc588d4c529b04d60de2ad8a0, // butterfly random sprinklers faults=random
    0xa8a5d32fc2f1ec4153bb1c44068f22e2, // butterfly random padded-frames faults=none
    0x99d4971bc6b900fed19551b088ac3a07, // butterfly random padded-frames faults=scripted
    0x0a2be3ed9b6f121ce6655775bab71101, // butterfly random padded-frames faults=random
    0x9cf9c621be6703bc0bc5a03bd0f74cce, // butterfly stripe oq faults=none
    0x5f97394001c5e192842aacac83dffa3f, // butterfly stripe oq faults=scripted
    0xb753e01cb9b7a14114206ebdd8320a33, // butterfly stripe oq faults=random
    0x35da03691b704dd9e0581e86a4ab8d8a, // butterfly stripe sprinklers faults=none
    0x996231fdf2c824aae687b014286ce827, // butterfly stripe sprinklers faults=scripted
    0x0aa8e599f6ec1b64fbd2ec748cbc266f, // butterfly stripe sprinklers faults=random
    0xe7430e1b59f953d86d8ae7051b8a8452, // butterfly stripe padded-frames faults=none
    0xfd8a4c5f09eb9dd423c028c77193257a, // butterfly stripe padded-frames faults=scripted
    0x2d4731ae74d931b5b8fa3645e385feb7, // butterfly stripe padded-frames faults=random
];

#[test]
fn fabric_delivery_streams_are_pinned() {
    let routings = [
        RoutingSpec::EcmpHash,
        RoutingSpec::RandomPacket,
        RoutingSpec::Stripe,
    ];
    let mut pins = PINS.iter();
    let mut mismatches = Vec::new();
    // What the faulted cases exercised, summed over all of them: every loss
    // cause and both reconvergence outcomes must occur, or the pins are
    // vacuous on that path.
    let mut causes = [0u64; 4];
    let (mut reconverged_late, mut never_reconverged) = (0, 0);
    for (kind, load, node) in [("fat-tree2", 0.5, 5), ("butterfly", 0.3, 2)] {
        for routing in routings {
            let topo = match kind {
                "fat-tree2" => fat_tree(routing),
                _ => butterfly(routing),
            };
            for scheme in ["oq", "sprinklers", "padded-frames"] {
                let fault_cases = [
                    ("none", None),
                    ("scripted", Some(scripted(node))),
                    ("random", Some(random_faults())),
                ];
                for (faults_name, faults) in &fault_cases {
                    let case = format!("{kind} {} {scheme} faults={faults_name}", routing.name());
                    let (stepped, summary) = run_hash(&topo, scheme, load, faults.as_ref(), 1);
                    let (batched, _) = run_hash(&topo, scheme, load, faults.as_ref(), 64);
                    assert_eq!(stepped, batched, "batching changed the stream: {case}");
                    assert_eq!(summary.is_some(), faults.is_some(), "{case}");
                    if let Some(s) = &summary {
                        causes[0] += s.dropped_link_failure;
                        causes[1] += s.dropped_node_failure;
                        causes[2] += s.dropped_dead_link;
                        causes[3] += s.dropped_dead_node;
                        for e in &s.events {
                            match e.reconverged_slot {
                                Some(slot) if slot > e.slot => reconverged_late += 1,
                                None => never_reconverged += 1,
                                Some(_) => {}
                            }
                        }
                    }
                    let pin = *pins.next().expect("one pin per case");
                    if stepped != pin {
                        mismatches.push(format!("    {stepped:#034x}, // {case}"));
                    }
                }
            }
        }
    }
    assert!(causes.iter().all(|&c| c > 0), "loss causes {causes:?}");
    assert!(reconverged_late > 0 && never_reconverged > 0);
    assert!(
        mismatches.is_empty(),
        "{} fabric stream(s) moved:\n{}",
        mismatches.len(),
        mismatches.join("\n")
    );
}
