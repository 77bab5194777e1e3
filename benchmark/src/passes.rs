//! In-process passes over a workload's inputs: the same public calls the
//! `scenario` and `suite` binaries make, from spec file to written CSV and
//! sidecar, with a [`Tracer`] around each of them.
//!
//! A pass runs traced or untraced.  Traced, every case is simulated by
//! [`drive`] — the harness's own copy of the engine's window loop, which
//! times each layer's calls apart.  Untraced, the simulation goes through
//! `Engine::run` itself, so the difference between the two walls is what
//! tracing costs (`trace.overhead_share`).  Either way the bytes written
//! must equal the child binary's, which the caller checks.

use crate::alloc;
use crate::catalog::Kind;
use crate::checks::Outputs;
use crate::trace::{Fold, Tracer};
use sprinklers_bench::cli::load_spec_file;
use sprinklers_core::packet::{DeliveredPacket, Packet};
use sprinklers_core::switch::{DeliverySink, Steppable, Switch};
use sprinklers_sim::cache::{CachedRun, ExperimentCache};
use sprinklers_sim::engine::{Engine, RunConfig};
use sprinklers_sim::fabric::FabricWorld;
use sprinklers_sim::metrics::occupancy::OccupancySampler;
use sprinklers_sim::metrics::sink::MetricsSink;
use sprinklers_sim::metrics::window::WindowSeries;
use sprinklers_sim::parallel::run_specs_parallel;
use sprinklers_sim::registry;
use sprinklers_sim::report::{merge_csv_rows, metrics_sidecar_json, SimReport};
use sprinklers_sim::spec::{ScenarioSpec, SpecError, SuiteSpec};
use sprinklers_sim::traffic::TrafficGenerator;
use std::path::Path;
use std::time::{Duration, Instant};

/// The world a spec builds: one registry switch, or a fabric of them.
pub(crate) enum World {
    Switch(Box<dyn Switch>),
    Fabric(Box<FabricWorld>),
}

/// The layer a spec's world is accounted under: `fabric` for a topology
/// (its nodes' time cannot be told apart from outside), `core` for the
/// Sprinklers variants, `baselines` for every other scheme.
pub(crate) fn world_layer(spec: &ScenarioSpec) -> &'static str {
    if spec.topology.is_some() {
        "fabric"
    } else if spec.scheme.starts_with("sprinklers") {
        "core"
    } else {
        "baselines"
    }
}

/// Program set-up before the first simulated slot, call for call what
/// `Engine::run` does with a parsed spec: build the traffic generator, then
/// the switch (sized from the generator's rate matrix) or the fabric with
/// its fault schedule.
pub(crate) fn set_up(
    spec: &ScenarioSpec,
    tracer: &mut Tracer,
) -> Result<(Box<dyn TrafficGenerator>, World), SpecError> {
    if let Some(topo) = &spec.topology {
        topo.validate(spec.n)?;
        if let Some(faults) = &spec.faults {
            faults.validate(topo, &spec.run)?;
        }
        let traffic = tracer.timed("traffic", "build", || spec.build_traffic())?;
        let world = tracer.timed("fabric", "build", || {
            let mut world = FabricWorld::build(
                topo,
                &spec.scheme,
                &spec.sizing,
                spec.seed,
                spec.traffic.load(),
            )?;
            world.set_parallelism(spec.threads as usize);
            if let Some(faults) = spec.faults.as_ref().filter(|f| !f.is_empty()) {
                world = world.with_faults(faults, &spec.run);
            }
            Ok::<_, SpecError>(world)
        })?;
        return Ok((traffic, World::Fabric(Box::new(world))));
    }
    let traffic = tracer.timed("traffic", "build", || spec.build_traffic())?;
    let matrix = tracer.timed("traffic", "build", || traffic.rate_matrix());
    let switch = tracer.timed("registry", "build", || {
        let mut switch =
            registry::build_named(&spec.scheme, spec.n, &spec.sizing, &matrix, spec.seed)?;
        switch.set_threads(spec.threads as usize);
        Ok::<_, SpecError>(switch)
    })?;
    Ok((traffic, World::Switch(switch)))
}

/// The segments [`drive`] splits its wall into.  Each clock read closes one
/// segment and opens the next, so the segments add up to the loop's wall
/// with nothing left over, and a slot costs five clock reads, a packet none.
#[derive(Debug, Clone, Copy)]
enum Lap {
    /// Engine: buffers and per-VOQ sequence table.
    Init,
    /// Traffic: one `arrivals_into` call.
    Gen,
    /// Engine: packet ids, arrival slots, `voq_seq` for one slot's arrivals.
    Ids,
    /// World: `inject` for one slot's arrivals.
    Inject,
    /// World: one `advance` call that starts while traffic is offered.
    Advance,
    /// World: one `advance` call in the drain phase.
    Drain,
    /// Metrics: `MetricsSink::deliver` for everything one `advance` delivered.
    Deliver,
    /// World: one `counters` snapshot.
    Counters,
    /// Metrics: `OccupancySampler::sample` + `WindowSeries::record`.
    Sample,
    /// Metrics: closing the series and the sink into a `SimReport`.
    Finish,
}

const LAPS: usize = 10;

/// (layer, phase) of each lap; `None` stands for the case's world layer.
const LAP_NAMES: [(Option<&str>, &str); LAPS] = [
    (Some("engine"), "init"),
    (Some("traffic"), "gen"),
    (Some("engine"), "ids"),
    (None, "inject"),
    (None, "advance"),
    (None, "drain"),
    (Some("metrics"), "deliver"),
    (None, "counters"),
    (Some("metrics"), "sample"),
    (Some("metrics"), "finish"),
];

struct LapClock {
    last: Instant,
    folds: [Fold; LAPS],
}

impl LapClock {
    fn lap(&mut self, lap: Lap) {
        let now = Instant::now();
        let fold = &mut self.folds[lap as usize];
        fold.calls += 1;
        fold.busy_ns += (now - self.last).as_nanos() as u64;
        self.last = now;
    }
}

/// `Engine::run_loop`, copied so that each layer's calls can be timed apart
/// from outside the program: deliveries are buffered in a `Vec` so `advance`
/// (the world) and the `MetricsSink::deliver` loop after it (metrics) are
/// two segments, and a slot's arrivals get their identities in one loop
/// (engine) before a second loop injects them (the world).  Neither split
/// changes what any layer is handed or in which order, so the report is the
/// engine's byte for byte — which the caller verifies.
fn drive<W: Steppable, G: TrafficGenerator>(
    world: &mut W,
    traffic: &mut G,
    config: RunConfig,
    batch: u32,
    layer: &'static str,
    tracer: &mut Tracer,
) -> SimReport {
    assert_eq!(
        world.ports(),
        traffic.n(),
        "world and traffic disagree on n"
    );
    let mut clock = LapClock {
        last: Instant::now(),
        folds: [Fold::default(); LAPS],
    };
    let n = world.ports();
    let n_u64 = n as u64;
    let batch = u64::from(batch.max(1));
    let mut next_packet_id = 0u64;
    let mut voq_seq = vec![0u64; n * n];
    let mut sink = MetricsSink::new(config.warmup_slots, n);
    let mut occupancy = OccupancySampler::new();
    let mut windows = WindowSeries::new(n_u64);
    let mut offered = 0u64;
    let mut arrival_buf: Vec<Packet> = Vec::new();
    let mut delivered_buf: Vec<DeliveredPacket> = Vec::new();
    let (mut empty_polls, mut offered_slots, mut drain_slots) = (0u64, 0u64, 0u64);
    let (mut deliveries, mut resident_peak) = (0u64, 0u64);
    let mut allocs_at_warmup = None;
    clock.lap(Lap::Init);

    let mut advance =
        |world: &mut W, sink: &mut MetricsSink, clock: &mut LapClock, first: u64, count: u32| {
            world.advance(first, count, &mut delivered_buf);
            if first < config.slots {
                offered_slots += u64::from(count);
                clock.lap(Lap::Advance);
            } else {
                drain_slots += u64::from(count);
                clock.lap(Lap::Drain);
            }
            deliveries += delivered_buf.len() as u64;
            for delivered in delivered_buf.drain(..) {
                sink.deliver(delivered);
            }
            clock.lap(Lap::Deliver);
        };

    let total_slots = config.slots + config.drain_slots;
    let mut slot = 0u64;
    while slot < total_slots {
        if allocs_at_warmup.is_none() && slot >= config.warmup_slots {
            allocs_at_warmup = Some(alloc::calls());
        }
        let until_sample = (n_u64 - slot % n_u64) % n_u64 + 1;
        let window = batch.min(until_sample).min(total_slots - slot);
        let mut run_start = slot;
        let mut run_len = 0u32;
        for s in slot..slot + window {
            if s < config.slots {
                arrival_buf.clear();
                traffic.arrivals_into(s, &mut arrival_buf);
                clock.lap(Lap::Gen);
                if arrival_buf.is_empty() {
                    empty_polls += 1;
                } else {
                    if run_len > 0 {
                        advance(world, &mut sink, &mut clock, run_start, run_len);
                    }
                    run_start = s;
                    run_len = 0;
                    for packet in &mut arrival_buf {
                        packet.id = next_packet_id;
                        next_packet_id += 1;
                        packet.arrival_slot = s;
                        let key = packet.input() * n + packet.output();
                        packet.voq_seq = voq_seq[key];
                        voq_seq[key] += 1;
                    }
                    offered += arrival_buf.len() as u64;
                    clock.lap(Lap::Ids);
                    for packet in arrival_buf.drain(..) {
                        world.inject(packet);
                    }
                    clock.lap(Lap::Inject);
                }
            }
            run_len += 1;
        }
        if run_len > 0 {
            advance(world, &mut sink, &mut clock, run_start, run_len);
        }
        slot += window;
        if (slot - 1).is_multiple_of(n_u64) {
            let stats = world.counters();
            clock.lap(Lap::Counters);
            resident_peak = resident_peak.max(stats.total_queued() as u64);
            occupancy.sample(&stats);
            windows.record(
                slot,
                offered,
                sink.delivered_packets(),
                sink.padding_packets(),
                &stats,
            );
            clock.lap(Lap::Sample);
        }
    }
    let final_stats = world.counters();
    clock.lap(Lap::Counters);
    windows.finish(
        total_slots,
        offered,
        sink.delivered_packets(),
        sink.padding_packets(),
        &final_stats,
    );
    let dropped = final_stats.total_dropped;
    let totals = sink.into_parts();
    let report = SimReport {
        switch_name: world.label(),
        traffic_label: traffic.label(),
        n,
        slots: config.slots,
        warmup_slots: config.warmup_slots,
        offered_packets: offered,
        delivered_packets: totals.delivered,
        padding_packets: totals.padding,
        residual_packets: offered - totals.delivered - dropped,
        dropped_packets: dropped,
        delay: totals.delay,
        reordering: totals.reordering,
        occupancy: occupancy.stats(),
        per_output_delivered: totals.per_output_delivered,
        windows,
        faults: None,
    };
    clock.lap(Lap::Finish);

    for (fold, (fixed_layer, phase)) in clock.folds.iter().zip(LAP_NAMES) {
        let busy = Duration::from_nanos(fold.busy_ns);
        tracer.add(fixed_layer.unwrap_or(layer), phase, fold.calls, busy);
    }
    tracer.count("traffic", "packets", offered);
    tracer.count("traffic", "empty_polls", empty_polls);
    tracer.count(layer, "packets", offered);
    tracer.count(layer, "offered_slots", offered_slots);
    tracer.count(layer, "drain_slots", drain_slots);
    tracer.count(layer, "deliveries", deliveries);
    tracer.count(layer, "padding", report.padding_packets);
    tracer.count(layer, "dropped", dropped);
    tracer.count_max(layer, "resident_peak", resident_peak);
    tracer.count("metrics", "deliveries", deliveries);
    tracer.count(
        "alloc",
        "steady",
        alloc::calls() - allocs_at_warmup.unwrap_or_else(alloc::calls),
    );
    report
}

/// Set one parsed spec up and simulate it through the traced loop, inside
/// the `setup` and `loop` spans of the case span already open.
fn simulate_traced(spec: &ScenarioSpec, tracer: &mut Tracer) -> Result<SimReport, SpecError> {
    let layer = world_layer(spec);
    let allocs_before = alloc::calls();
    let (mut traffic, world) = tracer.span("setup", |t| set_up(spec, t))?;
    tracer.count("alloc", "setup", alloc::calls() - allocs_before);
    let total_slots = spec.run.slots + spec.run.drain_slots;
    tracer.count("engine", "slots", total_slots);
    Ok(tracer.span("loop", |t| match world {
        World::Switch(mut switch) => {
            drive(&mut switch, &mut traffic, spec.run, spec.batch, layer, t)
        }
        World::Fabric(mut fabric) => {
            let nodes = spec.topology.as_ref().map_or(0, |topo| topo.node_count()) as u64;
            t.count("fabric", "node_slots", nodes * total_slots);
            let mut report = drive(&mut *fabric, &mut traffic, spec.run, spec.batch, layer, t);
            report.faults = fabric.fault_summary();
            report
        }
    }))
}

/// What one in-process pass did, beyond what its tracer holds.
#[derive(Debug)]
pub(crate) struct Pass {
    /// Wall clock of the whole pass, spec file(s) in to files written.
    pub(crate) wall_s: f64,
    /// Of that, seconds inside `Engine::run` (untraced passes only).
    pub(crate) engine_s: f64,
    /// The bytes the pass wrote.
    pub(crate) outputs: Outputs,
    /// CSV rows in case order, without the suite's leading case column.
    pub(crate) rows: Vec<String>,
}

/// Run `kind`'s program path over `input` in this process, writing the CSV
/// to `csv_path` and the sidecar to `sidecar_path`.  Suites use (and fill)
/// the cache at `cache_dir`.
pub(crate) fn run_pass(
    kind: Kind,
    input: &Path,
    cache_dir: &Path,
    csv_path: &Path,
    sidecar_path: &Path,
    tracer: &mut Tracer,
) -> Result<Pass, SpecError> {
    let start = Instant::now();
    let mut engine_s = 0.0;
    let (csv, sidecar, rows) = tracer.span("workload", |t| {
        let (csv, sidecar, rows) = if kind == Kind::Scenario {
            scenario(input, &mut engine_s, t)?
        } else {
            suite(input, cache_dir, &mut engine_s, t)?
        };
        t.span("write", |t| {
            t.timed("report", "write", || {
                std::fs::write(csv_path, &csv).and_then(|()| std::fs::write(sidecar_path, &sidecar))
            })
        })
        .unwrap_or_else(|e| panic!("cannot write the pass's outputs: {e}"));
        t.count("report", "sidecar_bytes", sidecar.len() as u64);
        Ok::<_, SpecError>((csv, sidecar, rows))
    })?;
    Ok(Pass {
        wall_s: start.elapsed().as_secs_f64(),
        engine_s,
        outputs: Outputs { csv, sidecar },
        rows,
    })
}

type Rendered = (String, String, Vec<String>);

/// What `scenario --spec F --metrics full --metrics-out M > CSV` does.
fn scenario(
    spec_path: &Path,
    engine_s: &mut f64,
    tracer: &mut Tracer,
) -> Result<Rendered, SpecError> {
    tracer.case_span(0, |t| {
        let path = spec_path.to_string_lossy();
        let report = if t.enabled {
            let spec = t.span("load", |t| {
                t.timed("spec", "parse", || load_spec_file(&path))
            });
            t.count("spec", "files", 1);
            simulate_traced(&spec, t)?
        } else {
            let spec = load_spec_file(&path);
            let start = Instant::now();
            let report = Engine::new().run(&spec)?;
            *engine_s = start.elapsed().as_secs_f64();
            report
        };
        Ok(t.span("report", |t| {
            let row = t.timed("report", "csv_row", || report.csv_row());
            let mut json = t.timed("report", "metrics_json", || report.metrics_json());
            json.push('\n');
            let csv = format!("{}\n{row}\n", SimReport::csv_header());
            (csv, json, vec![row])
        }))
    })
}

/// What `suite --dir D --workers 1 --cache C --metrics full --out CSV` does,
/// minus the summary table it prints to stderr.
fn suite(
    dir: &Path,
    cache_dir: &Path,
    engine_s: &mut f64,
    tracer: &mut Tracer,
) -> Result<Rendered, SpecError> {
    let cases = tracer.span("load", |t| {
        t.timed("spec", "load_cases", || SuiteSpec::new(dir).load_cases())
    })?;
    tracer.count("spec", "files", cases.len() as u64);
    let cache = ExperimentCache::open(cache_dir)
        .unwrap_or_else(|e| panic!("cannot open cache {}: {e}", cache_dir.display()));

    let mut runs: Vec<Option<CachedRun>> = tracer.span("probe", |t| {
        cases
            .iter()
            .map(|case| {
                let hash = t.timed("cache", "hash", || case.spec.content_hash());
                let start = Instant::now();
                let run = cache.load(hash).filter(|run| run.metrics_json.is_some());
                let phase = if run.is_some() {
                    "load_hit"
                } else {
                    "load_miss"
                };
                t.add("cache", phase, 1, start.elapsed());
                run
            })
            .collect()
    });
    let misses: Vec<usize> = (0..runs.len()).filter(|&i| runs[i].is_none()).collect();
    tracer.count("cache", "hits", (runs.len() - misses.len()) as u64);
    tracer.count("cache", "misses", misses.len() as u64);

    if tracer.enabled {
        for &i in &misses {
            let spec = &cases[i].spec;
            runs[i] = Some(tracer.case_span(i, |t| {
                let report = simulate_traced(spec, t)?;
                // `CachedRun::from_report`, field by field, so the two
                // renderings it makes are timed under the layer that owns
                // them.
                let run = t.span("report", |t| CachedRun {
                    csv_row: t.timed("report", "csv_row", || report.csv_row()),
                    mean_delay: report.delay.mean(),
                    p99_delay: report.delay.percentile(0.99),
                    voq_reorders: report.reordering.voq_reorder_events,
                    delivery_ratio: report.delivery_ratio(),
                    metrics_json: Some(t.timed("report", "metrics_json", || report.metrics_json())),
                });
                t.span("cache", |t| {
                    let hash = t.timed("cache", "hash", || spec.content_hash());
                    t.timed("cache", "store", || cache.store(hash, &run))
                })
                .unwrap_or_else(|e| panic!("cannot store a cache entry: {e}"));
                Ok::<_, SpecError>(run)
            })?);
        }
    } else {
        let specs: Vec<ScenarioSpec> = misses.iter().map(|&i| cases[i].spec.clone()).collect();
        let start = Instant::now();
        let results = run_specs_parallel(&specs, 1);
        *engine_s = start.elapsed().as_secs_f64();
        for (&i, result) in misses.iter().zip(results) {
            let run = CachedRun::from_report(&result?, true);
            cache
                .store(cases[i].spec.content_hash(), &run)
                .unwrap_or_else(|e| panic!("cannot store a cache entry: {e}"));
            runs[i] = Some(run);
        }
    }
    let runs: Vec<CachedRun> = runs.into_iter().flatten().collect();

    Ok(tracer.span("merge", |t| {
        let names = || cases.iter().map(|c| c.name.as_str());
        let csv = t.timed("report", "merge", || {
            merge_csv_rows(names().zip(runs.iter().map(|r| r.csv_row.clone())))
        });
        let sidecar = t.timed("report", "merge", || {
            metrics_sidecar_json(
                names().zip(
                    runs.iter()
                        .map(|r| r.metrics_json.as_deref().unwrap_or("null")),
                ),
            )
        });
        let rows = runs.into_iter().map(|r| r.csv_row).collect();
        (csv, sidecar, rows)
    }))
}
