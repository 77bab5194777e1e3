//! Steady-state allocation-count assertions for the switch hot paths.
//!
//! The sink-based `step` contract — and now the batched `step_batch`
//! contract — is "zero heap allocation in steady state".  This test makes
//! that claim falsifiable: a counting global allocator wraps the system
//! allocator, every switch is warmed up until all its internal containers
//! (the packet store and the index queues' chunk pools of the Sprinklers
//! variants and of the load-balanced baselines, the FOFF resequencer's link
//! table, OQ's output queues) have reached their high-water capacity, and then a long measurement window of
//! the *same* deterministic workload must allocate exactly nothing.
//!
//! Part 1 hand-rolls its arrivals and counts deliveries, which isolates the
//! switch.  Part 2 puts the slot's other half around it — the real
//! `BernoulliTraffic::arrivals_into` in front, the real `MetricsSink` behind —
//! and hands the warmed-up switch a *fresh* sink at the edge of the window, so
//! every VOQ's first delivery (the one that used to insert two B-tree nodes
//! into the reordering detector) falls inside the measurement.
//!
//! Part 3 does the same for a whole faulted fabric — generator →
//! `FabricWorld` → `MetricsSink` — over a stretch in which no fault event is
//! due, and then checks the other half of "bounded memory": however long the
//! run and however many packets the faults cost, the fabric's packet store is
//! no larger at the end than after the first tenth.
//!
//! Part 4 is about construction rather than steady state: the allocator also
//! sums the bytes requested, and building a load-balanced baseline at
//! `n = 256` and running it lightly loaded must request memory in proportion
//! to its n² queues and its resident packets — not reserve capacity for every
//! queue up front, which for FOFF's resequencers used to be cubic in ports.
//!
//! Part 5 drives every seeded generator alone, from its first slot: each
//! keeps its slot's destination draws in a scratch buffer reserved at
//! construction, so no slot — not even one with more arrivals than any
//! before it — allocates.  This includes the widest benchmark cell's
//! generator (n = 1 024, load 0.01).
//!
//! Part 6 is about construction again, at the widest benchmark cell: a short
//! `Engine::run` of `oq` at n = 1 024 must request memory for the run's one
//! per-VOQ record table and its sampler, not for n² tables that only restate
//! the traffic pattern or duplicate that record.
//!
//! Part 7 bounds the packet store the same way, at the `wide-sprinklers`
//! benchmark cell: a Sprinklers run at n = 256 stores a body only for the
//! packets past its inputs, and requests little beyond its chunk pools.
//!
//! Part 8 is about a suite rather than a switch: the allocator also tracks
//! live bytes and their peak, and a `--metrics full` suite of 32 cases,
//! cold and then warm, must peak no higher than one of 8 cases plus one
//! case's sidecar entry and a little slack — a suite emits each case as
//! soon as the cases before it are out and drops its metrics then.
//!
//! This file deliberately contains a single `#[test]`: the allocation
//! counter is process-global, so a second concurrently-running test would
//! pollute the measurement.

use sprinklers_core::config::{SizingMode, SprinklersConfig};
use sprinklers_core::matrix::TrafficMatrix;
use sprinklers_core::packet::{DeliveredPacket, Packet};
use sprinklers_core::rng::SimRng;
use sprinklers_core::sprinklers::SprinklersSwitch;
use sprinklers_core::store::PAGE_SLOTS;
use sprinklers_core::switch::{CountingSink, DeliverySink, Switch};
use sprinklers_sim::cache::ExperimentCache;
use sprinklers_sim::engine::{Engine, RunConfig};
use sprinklers_sim::fabric::FabricWorld;
use sprinklers_sim::metrics::sink::MetricsSink;
use sprinklers_sim::registry;
use sprinklers_sim::spec::{
    FaultEventSpec, FaultKind, FaultSpec, LinkSpec, RoutingSpec, ScenarioSpec, SizingSpec,
    SuiteCase, SuiteRun, TopologySpec, TrafficSpec,
};
use sprinklers_sim::traffic::bernoulli::BernoulliTraffic;
use sprinklers_sim::traffic::bursty::BurstyTraffic;
use sprinklers_sim::traffic::flows::FlowTraffic;
use sprinklers_sim::traffic::TrafficGenerator;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Bytes requested: every `alloc`'s size plus every `realloc`'s new size.
static REQUESTED: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated and not yet freed, and the most of them since the last
/// [`reset_peak`].
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grow_live(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: the allocator is a transparent pass-through to `System`, which
// upholds the `GlobalAlloc` contract; the only added behavior is relaxed
// atomic counter updates, which never allocate and cannot unwind.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: forwards the caller's layout to `System.alloc` unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        REQUESTED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        grow_live(layout.size());
        System.alloc(layout)
    }

    // SAFETY: forwards the caller's pointer/layout to `System.realloc` unchanged.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        REQUESTED.fetch_add(new_size as u64, Ordering::Relaxed);
        match new_size.checked_sub(layout.size()) {
            Some(grown) => grow_live(grown),
            None => _ = LIVE.fetch_sub((layout.size() - new_size) as u64, Ordering::Relaxed),
        }
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: forwards the caller's pointer/layout to `System.dealloc` unchanged.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

fn requested_bytes() -> u64 {
    REQUESTED.load(Ordering::Relaxed)
}

/// Start a new peak at the bytes live now, and return them.
fn reset_peak() -> u64 {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    live
}

const N: usize = 16;
const LOAD: f64 = 0.3;

/// Drive `slots` slots of a deterministic seeded workload (Bernoulli-ish
/// arrivals at 30% load, random outputs, 64 distinct flows) through the
/// per-slot arrive + step path.  Returns the updated identity counters so a
/// measurement window continues the warm-up's exact packet sequence.
fn drive(
    switch: &mut dyn Switch,
    rng: &mut SimRng,
    voq_seq: &mut [u64],
    next_id: &mut u64,
    from_slot: u64,
    slots: u64,
) {
    let mut sink = CountingSink::default();
    for slot in from_slot..from_slot + slots {
        for input in 0..N {
            if rng.unit_f64() >= LOAD {
                continue;
            }
            let output = rng.below(N as u64) as usize;
            let key = input * N + output;
            let p = Packet::new(input, output, *next_id, slot)
                .with_flow(rng.below(64))
                .with_voq_seq(voq_seq[key]);
            voq_seq[key] += 1;
            *next_id += 1;
            switch.arrive(p);
        }
        switch.step(slot, &mut sink);
    }
}

/// Capacity-inflating warm-up phase: 2N slots of all-inputs-to-one-output
/// hotspot per output, cycling over every output.  This drives every queue
/// in the switch far past the depth the 30%-load measurement window can ever
/// reach — and, because each VOQ receives 2N packets, it also forms a glut
/// of simultaneous full frames at the frame-based schemes — so a rare
/// steady-state excursion can never trigger a first-time capacity growth
/// mid-measurement.  Packets cycle through
/// `flows` flow ids.
fn hotspot_burst(
    switch: &mut dyn Switch,
    voq_seq: &mut [u64],
    next_id: &mut u64,
    from_slot: u64,
    flows: u64,
) -> u64 {
    let mut sink = CountingSink::default();
    let mut slot = from_slot;
    for hot in 0..N {
        for _ in 0..2 * N {
            for input in 0..N {
                let key = input * N + hot;
                let p = Packet::new(input, hot, *next_id, slot)
                    .with_flow(*next_id % flows)
                    .with_voq_seq(voq_seq[key]);
                voq_seq[key] += 1;
                *next_id += 1;
                switch.arrive(p);
            }
            switch.step(slot, &mut sink);
            slot += 1;
        }
    }
    slot
}

/// Part 2's driver: the engine's inner loop in miniature.  The generator
/// fills the reused `arrivals` buffer, each packet gets its id and per-VOQ
/// sequence number, and deliveries go to whatever `sink` the caller attached.
fn drive_generated(
    switch: &mut dyn Switch,
    traffic: &mut BernoulliTraffic,
    arrivals: &mut Vec<Packet>,
    sink: &mut dyn DeliverySink,
    voq_seq: &mut [u64],
    slots: std::ops::Range<u64>,
) {
    let n = switch.n();
    for slot in slots {
        arrivals.clear();
        traffic.arrivals_into(slot, arrivals);
        for mut p in arrivals.drain(..) {
            let key = p.input() * n + p.output();
            p.voq_seq = voq_seq[key];
            voq_seq[key] += 1;
            switch.arrive(p);
        }
        switch.step(slot, sink);
    }
}

/// A `MetricsSink` that also counts the VOQs it hears from for the first
/// time (in a table sized up front, like the sink's own).
struct FirstDeliveries {
    metrics: MetricsSink,
    seen: Vec<bool>,
    first: usize,
}

impl DeliverySink for FirstDeliveries {
    fn deliver(&mut self, delivered: DeliveredPacket) {
        let p = &delivered.packet;
        if !p.is_padding() {
            let seen = &mut self.seen[p.input() * N + p.output()];
            self.first += usize::from(!*seen);
            *seen = true;
        }
        self.metrics.deliver(delivered);
    }
}

/// Part 3's fabric: 2 edges × 2 cores × 4 hosts with striped routing, so a
/// failed link parks traffic, and a fault schedule that never rests — a link
/// fails for 50 slots in every 100, the links taking turns, and a core is
/// down for 300 slots in every 1 000 — except over `quiet`, which it leaves
/// event-free with every link and node up.
fn soak_fabric(slots: u64, quiet: std::ops::Range<u64>) -> FabricWorld {
    let topo = TopologySpec::FatTree2 {
        edges: 2,
        cores: 2,
        hosts_per_edge: 4,
        routing: RoutingSpec::Stripe,
        link: LinkSpec { latency: 2, gap: 1 },
    };
    let run = RunConfig {
        slots,
        warmup_slots: 0,
        drain_slots: 0,
    };
    let mut events = Vec::new();
    let mut fail = |kinds: (FaultKind, FaultKind), index: usize, down: u64, up: u64| {
        if up < slots && !(down < quiet.end && up >= quiet.start) {
            let event = |slot, kind| FaultEventSpec { slot, kind, index };
            events.extend([event(down, kinds.0), event(up, kinds.1)]);
        }
    };
    for k in 0..slots / 100 {
        let link = (k % topo.link_count() as u64) as usize;
        let kinds = (FaultKind::LinkDown, FaultKind::LinkUp);
        fail(kinds, link, 100 * k + 10, 100 * k + 60);
    }
    for k in 0..slots / 1_000 {
        let core = 2 + (k % 2) as usize;
        let kinds = (FaultKind::NodeDown, FaultKind::NodeUp);
        fail(kinds, core, 1_000 * k + 500, 1_000 * k + 800);
    }
    let faults = FaultSpec {
        events,
        random: None,
    };
    faults.validate(&topo, &run).unwrap();
    FabricWorld::build(&topo, "oq", &SizingSpec::Matrix, 7, 0.5)
        .unwrap()
        .with_faults(&faults, &run)
}

/// Part 3's driver: the engine's inner loop around a fabric.
fn drive_fabric(
    world: &mut FabricWorld,
    traffic: &mut BernoulliTraffic,
    arrivals: &mut Vec<Packet>,
    sink: &mut MetricsSink,
    voq_seq: &mut [u64],
    slots: std::ops::Range<u64>,
) {
    let hosts = world.n();
    for slot in slots {
        arrivals.clear();
        traffic.arrivals_into(slot, arrivals);
        for mut p in arrivals.drain(..) {
            let key = p.input() * hosts + p.output();
            p.voq_seq = voq_seq[key];
            voq_seq[key] += 1;
            world.arrive(p);
        }
        world.step_batch(slot, 1, sink);
    }
}

/// Part 3: a faulted fabric allocates nothing while no event is due, and its
/// store stops growing once it has seen the fabric at its fullest.
fn fabric_is_allocation_free_between_faults_and_bounded_over_a_long_run() {
    const SLOTS: u64 = 60_000;
    let tenth = SLOTS / 10;
    let quiet = tenth..tenth + 4_096;
    let mut world = soak_fabric(SLOTS, quiet.clone());
    let mut traffic = BernoulliTraffic::uniform(8, 0.5, 2014);
    let mut arrivals = Vec::with_capacity(8);
    let mut sink = MetricsSink::new(0, 8);
    let mut voq_seq = vec![0u64; 64];
    let mut drive = |world: &mut FabricWorld, slots| {
        drive_fabric(
            world,
            &mut traffic,
            &mut arrivals,
            &mut sink,
            &mut voq_seq,
            slots,
        );
    };

    drive(&mut world, 0..quiet.start);
    let events_before = world.fault_summary().unwrap().events.len();
    assert!(events_before > 100, "the warm-up is a faulted run");
    let capacity = world.store_capacity();
    assert_eq!(capacity, PAGE_SLOTS);

    let before = allocations();
    drive(&mut world, quiet.clone());
    let new = allocations() - before;
    assert_eq!(
        new, 0,
        "generator + faulted fabric + MetricsSink allocated {new} time(s) \
         over 4096 slots with no fault event due"
    );
    let summary = world.fault_summary().unwrap();
    assert_eq!(summary.events.len(), events_before, "the stretch was quiet");

    drive(&mut world, quiet.end..SLOTS);
    let summary = world.fault_summary().unwrap();
    assert!(summary.events.len() > 10 * events_before / 2);
    assert!(
        summary.total_dropped() > 2 * PAGE_SLOTS as u64,
        "one leaked slot per lost packet would have outgrown the first page"
    );
    assert_eq!(
        world.store_capacity(),
        capacity,
        "the store grew after the first tenth of the run"
    );
    let stats = world.stats();
    assert!(stats.total_departures > 9 * stats.total_arrivals / 10);
    assert_eq!(sink.delivered_packets(), stats.total_departures);
}

/// Part 4: what a baseline asks the allocator for follows its queues (a few
/// words each) and the packets it holds, never ports³.
fn baselines_request_memory_in_proportion_to_queues_and_packets() {
    const WIDE: usize = 256;
    const SLOTS: u64 = 2_000;
    let budget = (64 * WIDE * WIDE) as u64;
    let matrix = TrafficMatrix::uniform(WIDE, 0.02);
    for scheme in ["baseline-lb", "ufs", "foff", "padded-frames", "tcp-hash"] {
        let mut traffic = BernoulliTraffic::diagonal(WIDE, 0.02, 2014);
        let mut arrivals = Vec::with_capacity(WIDE);
        let mut voq_seq = vec![0u64; WIDE * WIDE];
        let mut sink = CountingSink::default();
        let before = requested_bytes();
        let mut switch =
            registry::build_named(scheme, WIDE, &SizingSpec::Matrix, &matrix, 7).unwrap();
        drive_generated(
            switch.as_mut(),
            &mut traffic,
            &mut arrivals,
            &mut sink,
            &mut voq_seq,
            0..SLOTS,
        );
        let requested = requested_bytes() - before;
        assert!(switch.stats().total_arrivals > 4 * SLOTS);
        assert!(
            requested <= budget,
            "{scheme} at n = {WIDE} requested {requested} bytes building and running \
             {SLOTS} light-load slots; the budget is 64·n² = {budget}"
        );
    }
}

/// Part 5: a seeded generator allocates nothing after construction.
fn generators_allocate_nothing_after_construction() {
    let generators: [(&str, Box<dyn TrafficGenerator>, u64); 4] = [
        (
            "bernoulli n=1024 rho=0.01",
            Box::new(BernoulliTraffic::diagonal(1024, 0.01, 2014)),
            4_096,
        ),
        (
            "bernoulli n=64 rho=0.9",
            Box::new(BernoulliTraffic::uniform(64, 0.9, 3)),
            4_096,
        ),
        (
            "bursty n=64 rho=0.5 peak=1",
            Box::new(BurstyTraffic::uniform(64, 0.5, 1.0, 16.0, 4)),
            16_384,
        ),
        (
            "flows n=64 rho=0.9",
            Box::new(FlowTraffic::uniform(64, 0.9, 8.0, 5)),
            4_096,
        ),
    ];
    for (name, mut traffic, slots) in generators {
        let mut arrivals = Vec::with_capacity(traffic.n());
        let mut most = 0;
        let mut records = 0;
        let before = allocations();
        for slot in 0..slots {
            arrivals.clear();
            traffic.arrivals_into(slot, &mut arrivals);
            if arrivals.len() > most {
                most = arrivals.len();
                records += 1;
            }
        }
        let new = allocations() - before;
        assert_eq!(
            new, 0,
            "{name} allocated {new} time(s) over its first {slots} slots"
        );
        assert!(
            records > 1,
            "{name}: some slot should outgrow every slot before it"
        );
    }
}

/// Part 6: the `wide-oq` benchmark cell (`oq`, n = 1 024, diagonal load
/// 0.01), run briefly end to end, requests at most 6 MiB in total (4.78 MiB
/// measured).  Its one n² table is the reorder detector's 4-byte per-VOQ
/// records (4 MiB); the generator samples the diagonal matrix in closed
/// form, three floats per row (24 KiB).  The same run requested 8.78 MiB
/// when the records were 8 bytes, 26.3 MiB when they were 16 bytes plus a
/// flag byte (17 MiB) and the sampler held an n² CDF and its guide
/// (8.5 MiB), and 53.1 MiB when the generator, `Engine::run`'s copy of its
/// matrix and the engine's own sequence table each held an 8 MiB n² table,
/// and every OQ output reserved 64 packets up front.  A second n² table of
/// 4-byte entries takes it past the budget.
fn the_widest_cell_requests_only_the_tables_it_uses() {
    let spec = ScenarioSpec::new("oq", 1024)
        .with_traffic(TrafficSpec::Diagonal { load: 0.01 })
        .with_run(RunConfig {
            slots: 2_000,
            warmup_slots: 200,
            drain_slots: 1_000,
        })
        .with_seed(2014);
    let before = requested_bytes();
    let report = Engine::new().run(&spec).unwrap();
    let requested = requested_bytes() - before;
    assert!(report.delivered_packets > 10_000);
    assert!(
        requested <= 6 << 20,
        "a 3 000-slot oq run at n = 1 024 requested {:.2} MiB; the budget is 6 MiB",
        requested as f64 / f64::from(1 << 20)
    );
}

/// Part 7: the `wide-sprinklers` benchmark cell (matrix-sized Sprinklers,
/// n = 256, diagonal load 0.05) for 20 000 slots, by which time 183 k
/// packets are resident, nearly all of them waiting at the inputs for
/// their stripes to fill.  A waiting packet has no store body — its ready
/// queue holds it by value — so the store never holds more than one page
/// past the most packets ever beyond the inputs (11.7 k here).  Past what
/// the switch requests at construction — its grids' queue ends and its
/// zeroed 16-byte VOQ records, 7.1 MiB — the run requests at most 5 MiB,
/// nearly all of it for the grids' chunk pools, which grow a 4 KiB page at
/// a time (4.81 MiB measured).  With a 16-byte body written at every
/// arrival the same run requested 7.43 MiB, with 32-byte bodies 10.22 MiB,
/// and with 48-byte bodies and a 4-byte free-list entry per slot 22.05 MiB.
fn the_wide_sprinklers_cell_stores_only_packets_past_the_inputs() {
    const WIDE: usize = 256;
    const SLOTS: u64 = 20_000;
    let matrix = TrafficMatrix::diagonal(WIDE, 0.05);
    let config = SprinklersConfig::new(WIDE).with_sizing(SizingMode::FromMatrix(matrix));
    let mut traffic = BernoulliTraffic::diagonal(WIDE, 0.05, 2014);
    let mut arrivals = Vec::with_capacity(WIDE);
    let mut voq_seq = vec![0u64; WIDE * WIDE];
    let mut sink = CountingSink::default();
    let before = requested_bytes();
    let mut switch = SprinklersSwitch::new(config, 7);
    let built = requested_bytes() - before;
    let mut past_inputs = 0;
    for slot in 0..SLOTS {
        drive_generated(
            &mut switch,
            &mut traffic,
            &mut arrivals,
            &mut sink,
            &mut voq_seq,
            slot..slot + 1,
        );
        let stats = switch.stats();
        past_inputs = past_inputs.max(stats.queued_at_intermediates + stats.queued_at_outputs);
    }
    let ran = requested_bytes() - before - built;
    assert!(switch.stats().total_queued() > 150_000);
    assert!(
        switch.store_capacity() <= past_inputs + PAGE_SLOTS,
        "the store grew to {} slots, but at most {past_inputs} packets were ever past the inputs",
        switch.store_capacity()
    );
    assert!(
        ran <= 5 << 20,
        "{SLOTS} slots of matrix-sized sprinklers at n = {WIDE} requested {:.2} MiB past \
         construction ({:.2} MiB); the budget is 5 MiB",
        ran as f64 / f64::from(1 << 20),
        built as f64 / f64::from(1 << 20),
    );
}

/// Part 8: a `--metrics full` suite holds one case's metrics at a time.
/// Over 32 cases it peaks at most one sidecar entry and 256 KiB above the
/// same suite over 8, cold (every case simulated and stored) and warm
/// (every case loaded from the cache).  A suite that kept every case's
/// metrics document to the end, and joined them into one more string before
/// writing the sidecar, held about two documents per case.
fn a_suite_holds_one_case_of_metrics_at_a_time() {
    let root = std::env::temp_dir().join(format!("sprinklers-suite-peak-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let base = ScenarioSpec::new("sprinklers", 8)
        .with_traffic(TrafficSpec::Uniform { load: 0.7 })
        .with_run(RunConfig {
            slots: 3_000,
            warmup_slots: 300,
            drain_slots: 3_000,
        });
    // Peak live bytes above the start of a cold and of a warm run, and the
    // sidecar's bytes per case.
    let peaks = |count: u64| {
        let cases: Vec<SuiteCase> = (0..count)
            .map(|seed| SuiteCase {
                name: format!("case{seed}"),
                spec: base.clone().with_seed(seed),
            })
            .collect();
        let dir = root.join(count.to_string());
        let cache = ExperimentCache::open(dir.join("cache")).unwrap();
        let sidecar = dir.join("out.csv.metrics.json");
        let peak = |hits| {
            let start = reset_peak();
            let out = std::io::BufWriter::new(std::fs::File::create(&sidecar).unwrap());
            let run = SuiteRun::probe(&cases, Some(&cache), Some(out)).unwrap();
            assert_eq!(cases.len() - run.misses(), hits);
            let outputs = run.finish(1).unwrap();
            let peak = PEAK.load(Ordering::Relaxed) - start;
            drop(outputs);
            peak
        };
        let cold = peak(0);
        let warm = peak(cases.len());
        let entry = std::fs::metadata(&sidecar).unwrap().len() / count;
        (cold, warm, entry)
    };
    let (cold_8, warm_8, entry_8) = peaks(8);
    let (cold_32, warm_32, entry_32) = peaks(32);
    let entry = entry_8.max(entry_32);
    assert!(entry > 8 << 10, "a case's sidecar entry is only {entry} B");
    for (what, few, many) in [("cold", cold_8, cold_32), ("warm", warm_8, warm_32)] {
        assert!(
            many <= few + entry + (256 << 10),
            "a {what} suite of 32 cases peaked at {many} B live, one of 8 at {few} B; \
             one case's sidecar entry is {entry} B"
        );
    }
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn hot_paths_do_not_allocate_in_steady_state() {
    // Every scheme must be allocation-free on the full arrive + step cycle.
    // For the baselines that includes frame formation (a splice of handle
    // queues) and FOFF's resequencing (links in a table sized by the store);
    // for both Sprinklers schemes it includes stripe formation, which
    // moves handles between index queues of a pooled grid instead of
    // building a stripe on the heap, and adaptive sizing's per-slot
    // maintenance pass.
    let matrix = TrafficMatrix::uniform(N, LOAD);
    for scheme in [
        "sprinklers",
        "sprinklers-adaptive",
        "oq",
        "baseline-lb",
        "ufs",
        "foff",
        "padded-frames",
        "tcp-hash",
    ] {
        let mut switch = registry::build_named(scheme, N, &SizingSpec::Matrix, &matrix, 7).unwrap();
        let mut rng = SimRng::seed_from_u64(2014);
        let mut voq_seq = vec![0u64; N * N];
        let mut next_id = 0u64;
        // The warm-up itself must stay cheap too: filling every container to
        // its high-water mark grows the store and the chunk pools a page at
        // a time, never anywhere near one allocation per packet.  Bound it
        // at one allocation per 16 warm-up packets — a per-packet
        // allocation regression overshoots that by an order of magnitude.
        let warmup_before = allocations();
        let warm_from = hotspot_burst(switch.as_mut(), &mut voq_seq, &mut next_id, 0, 64);
        drive(
            switch.as_mut(),
            &mut rng,
            &mut voq_seq,
            &mut next_id,
            warm_from,
            8_192,
        );
        let warmup_allocs = allocations() - warmup_before;
        assert!(
            warmup_allocs * 16 < next_id,
            "{scheme} allocated {warmup_allocs} time(s) warming up on {next_id} \
             packets: warm-up must stay far below one allocation per packet"
        );

        let before = allocations();
        drive(
            switch.as_mut(),
            &mut rng,
            &mut voq_seq,
            &mut next_id,
            warm_from + 8_192,
            4_096,
        );
        let new = allocations() - before;
        assert_eq!(
            new, 0,
            "{scheme} allocated {new} time(s) during 4096 steady-state slots"
        );

        // Part 2: generator → switch → `MetricsSink`.  A second switch of the
        // same scheme is inflated the same way and then warmed up on the
        // generated (single-flow) traffic with a throwaway sink; the metrics
        // sink is attached only for the window, so all of its N² VOQs
        // deliver for the first time while allocations are being counted.
        // `tcp-hash` sits this part out: Bernoulli packets all carry flow 0,
        // which it hashes onto one intermediate port, and a switch overloaded
        // several-fold has no steady state to measure.
        if scheme == "tcp-hash" {
            continue;
        }
        let mut switch = registry::build_named(scheme, N, &SizingSpec::Matrix, &matrix, 7).unwrap();
        let mut traffic = BernoulliTraffic::uniform(N, LOAD, 2014);
        let mut arrivals = Vec::with_capacity(N);
        let mut voq_seq = vec![0u64; N * N];
        let warm_from = hotspot_burst(switch.as_mut(), &mut voq_seq, &mut 0, 0, 1);
        let window_from = warm_from + 8_192;
        drive_generated(
            switch.as_mut(),
            &mut traffic,
            &mut arrivals,
            &mut CountingSink::default(),
            &mut voq_seq,
            warm_from..window_from,
        );
        let mut sink = FirstDeliveries {
            metrics: MetricsSink::new(0, N),
            seen: vec![false; N * N],
            first: 0,
        };

        let before = allocations();
        drive_generated(
            switch.as_mut(),
            &mut traffic,
            &mut arrivals,
            &mut sink,
            &mut voq_seq,
            window_from..window_from + 4_096,
        );
        let new = allocations() - before;
        assert_eq!(
            new, 0,
            "{scheme}: generator + switch + MetricsSink allocated {new} time(s) \
             during 4096 steady-state slots"
        );
        assert_eq!(
            sink.first,
            N * N,
            "{scheme}: every VOQ should deliver for the first time inside the window"
        );
        assert!(sink.metrics.delivered_packets() > 4_096);
    }

    fabric_is_allocation_free_between_faults_and_bounded_over_a_long_run();
    baselines_request_memory_in_proportion_to_queues_and_packets();
    generators_allocate_nothing_after_construction();
    the_widest_cell_requests_only_the_tables_it_uses();
    the_wide_sprinklers_cell_stores_only_packets_past_the_inputs();
    a_suite_holds_one_case_of_metrics_at_a_time();
}
