//! Per-layer metrics of one traced pass, computed from its folds and
//! counts.  A metric of a layer the workload does not use reads 0.

use crate::catalog::{BUSY_LAYERS, WORLD_LAYERS};
use crate::trace::Tracer;
use std::collections::BTreeMap;

/// What was measured beside the traced pass, which its tracer cannot know.
#[derive(Debug)]
pub(crate) struct Beside {
    /// Seconds the untraced twin pass spent inside `Engine::run`.
    pub(crate) engine_s: f64,
    /// Wall seconds and worker count of one `run_specs_parallel` over the
    /// same specs (suite-cold only).
    pub(crate) parallel: Option<(f64, usize)>,
    /// Peak of live heap bytes during the traced pass.
    pub(crate) peak_live_bytes: u64,
    /// Mean size of a cache entry file after the pass.
    pub(crate) cache_entry_bytes: f64,
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// Every per-layer metric except `trace.overhead_share`, which compares
/// whole sets of passes and is the caller's to add.
pub(crate) fn layer_metrics(t: &Tracer, beside: &Beside) -> BTreeMap<String, f64> {
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |name: String, value: f64| {
        m.insert(name, value);
    };
    let busy = |layer: &str, phase: &str| t.total(layer, phase).0;
    let calls = |layer: &str, phase: &str| t.total(layer, phase).1 as f64;
    let count = |layer: &str, name: &str| t.counted(layer, name) as f64;

    let files = count("spec", "files");
    let parsing = busy("spec", "parse") + busy("spec", "load_cases");
    put("spec.parse_us_per_file".into(), ratio(parsing * 1e6, files));
    put(
        "spec.load_cases_ms".into(),
        busy("spec", "load_cases") * 1e3,
    );
    put("spec.files".into(), files);

    let packets = count("traffic", "packets");
    let polls = calls("traffic", "gen");
    put("traffic.build_ms".into(), busy("traffic", "build") * 1e3);
    put(
        "traffic.gen_ns_per_slot".into(),
        ratio(busy("traffic", "gen") * 1e9, polls),
    );
    put(
        "traffic.gen_ns_per_packet".into(),
        ratio(busy("traffic", "gen") * 1e9, packets),
    );
    put("traffic.packets".into(), packets);
    put(
        "traffic.empty_slot_share".into(),
        ratio(count("traffic", "empty_polls"), polls),
    );

    put("registry.build_ms".into(), busy("registry", "build") * 1e3);

    for layer in WORLD_LAYERS {
        let slots = count(layer, "offered_slots") + count(layer, "drain_slots");
        let advances = calls(layer, "advance") + calls(layer, "drain");
        let stepping = busy(layer, "advance") + busy(layer, "drain");
        let mut world = |suffix: &str, value: f64| put(format!("{layer}.{suffix}"), value);
        world(
            "inject_ns_per_packet",
            ratio(busy(layer, "inject") * 1e9, count(layer, "packets")),
        );
        world(
            "advance_ns_per_slot",
            ratio(busy(layer, "advance") * 1e9, count(layer, "offered_slots")),
        );
        world(
            "drain_ns_per_slot",
            ratio(busy(layer, "drain") * 1e9, count(layer, "drain_slots")),
        );
        world("advance_calls", advances);
        world("slots_per_call", ratio(slots, advances));
        world(
            "counters_ns_per_call",
            ratio(busy(layer, "counters") * 1e9, calls(layer, "counters")),
        );
        world("resident_peak_packets", count(layer, "resident_peak"));
        match layer {
            "baselines" => world(
                "padding_share",
                ratio(count(layer, "padding"), count(layer, "deliveries")),
            ),
            "fabric" => {
                world("build_ms", busy(layer, "build") * 1e3);
                world(
                    "advance_ns_per_node_slot",
                    ratio(stepping * 1e9, count(layer, "node_slots")),
                );
                world("dropped_packets", count(layer, "dropped"));
            }
            _ => {}
        }
    }

    let deliveries = count("metrics", "deliveries");
    put(
        "metrics.deliver_ns_per_packet".into(),
        ratio(busy("metrics", "deliver") * 1e9, deliveries),
    );
    put(
        "metrics.sample_ns_per_window".into(),
        ratio(busy("metrics", "sample") * 1e9, calls("metrics", "sample")),
    );
    put("metrics.finish_ms".into(), busy("metrics", "finish") * 1e3);
    put("metrics.deliveries".into(), deliveries);

    put(
        "report.csv_row_us".into(),
        ratio(busy("report", "csv_row") * 1e6, calls("report", "csv_row")),
    );
    put(
        "report.metrics_json_ms".into(),
        ratio(
            busy("report", "metrics_json") * 1e3,
            calls("report", "metrics_json"),
        ),
    );
    put(
        "report.metrics_json_bytes".into(),
        count("report", "sidecar_bytes"),
    );
    put("report.merge_ms".into(), busy("report", "merge") * 1e3);
    put("report.write_ms".into(), busy("report", "write") * 1e3);

    let (hits, misses) = (count("cache", "hits"), count("cache", "misses"));
    put(
        "cache.hash_us_per_case".into(),
        ratio(busy("cache", "hash") * 1e6, calls("cache", "hash")),
    );
    put(
        "cache.load_us_per_hit".into(),
        ratio(busy("cache", "load_hit") * 1e6, hits),
    );
    put(
        "cache.store_us_per_entry".into(),
        ratio(busy("cache", "store") * 1e6, calls("cache", "store")),
    );
    put("cache.hits".into(), hits);
    put("cache.misses".into(), misses);
    put("cache.hit_share".into(), ratio(hits, hits + misses));
    put("cache.entry_bytes".into(), beside.cache_entry_bytes);

    let serial_s = beside.engine_s;
    let (parallel_s, workers) = beside.parallel.unwrap_or((0.0, 1));
    let speedup = ratio(serial_s, parallel_s);
    put("parallel.wall_s".into(), parallel_s);
    put(
        "parallel.serial_sum_s".into(),
        if beside.parallel.is_some() {
            serial_s
        } else {
            0.0
        },
    );
    put("parallel.speedup".into(), speedup);
    put("parallel.efficiency".into(), speedup / workers as f64);

    put("engine.run_s".into(), serial_s);
    put(
        "engine.ns_per_slot".into(),
        ratio(serial_s * 1e9, count("engine", "slots")),
    );
    put(
        "engine.ns_per_packet".into(),
        ratio(serial_s * 1e9, packets),
    );
    put(
        "engine.self_ns_per_packet".into(),
        ratio(t.layer_busy_s("engine") * 1e9, packets),
    );

    put("alloc.setup_count".into(), count("alloc", "setup"));
    put("alloc.steady_count".into(), count("alloc", "steady"));
    put(
        "alloc.peak_live_mb".into(),
        beside.peak_live_bytes as f64 / (1024.0 * 1024.0),
    );

    put("trace.spans".into(), t.spans.len() as f64);

    let wall = t.wall_s();
    for layer in BUSY_LAYERS {
        let busy_s = t.layer_busy_s(layer);
        put(format!("{layer}.busy_s"), busy_s);
        put(format!("{layer}.busy_share"), ratio(busy_s, wall));
    }
    m
}
