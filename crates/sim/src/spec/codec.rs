//! Spec files: [`ScenarioSpec::to_json`] and [`ScenarioSpec::from_json`].
//!
//! Every object of a spec file is read through one [`Fields`] reader, so
//! an unknown, repeated, missing or mistyped key — or one that does not
//! apply to the pattern, kind or mode the object names — is a typed error
//! naming the object and the key, in every block alike.  Blocks a file
//! leaves out fall back to the defaults of [`ScenarioSpec::new`].
//!
//! The writer's layout is frozen: one top-level member per line, nested
//! blocks compact, `topology` and `faults` only when present.  Cache keys
//! hash these bytes ([`ScenarioSpec::scientific_identity_json`]), so a
//! layout change would orphan every stored entry.

use super::{
    FaultEventSpec, FaultKind, FaultSpec, LinkSpec, RandomFaultSpec, RoutingSpec, ScenarioSpec,
    SizingSpec, SpecError, TopologySpec, TrafficSpec,
};
use crate::engine::RunConfig;
use crate::json::{Fields, ObjectWriter, Value};
use crate::traffic::trace_io::MAX_REPEAT;

impl ScenarioSpec {
    /// Render the spec as a spec file.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        let mut spec = ObjectWriter::lines(&mut out);
        spec.str("scheme", &self.scheme).uint("n", self.n);
        spec.object("sizing", |o| write_sizing(o, self.sizing));
        if let Some(topology) = &self.topology {
            spec.object("topology", |o| write_topology(o, topology));
        }
        if let Some(faults) = &self.faults {
            spec.object("faults", |o| write_faults(o, faults));
        }
        spec.object("traffic", |o| write_traffic(o, &self.traffic));
        spec.object("run", |o| {
            o.uint("slots", self.run.slots)
                .uint("warmup_slots", self.run.warmup_slots)
                .uint("drain_slots", self.run.drain_slots);
        });
        spec.uint("seed", self.seed)
            .uint("batch", self.batch)
            .uint("threads", self.threads);
        spec.close();
        out
    }

    /// Parse a spec file (the format [`Self::to_json`] writes).  `scheme`
    /// and `n` are required; every other block falls back to the defaults
    /// of [`Self::new`].
    pub fn from_json(text: &str) -> Result<Self, SpecError> {
        let value = Value::parse(text)?;
        let top = Fields::new(
            &value,
            "spec",
            &[
                "scheme", "n", "sizing", "topology", "faults", "traffic", "run", "seed", "batch",
                "threads",
            ],
        )?;
        let mut spec = ScenarioSpec::new(top.str("scheme")?, top.usize("n")?);
        if let Some(sizing) = top.get("sizing") {
            spec.sizing = read_sizing(sizing)?;
        }
        if let Some(topology) = top.get("topology") {
            spec.topology = Some(read_topology(topology)?);
        }
        if let Some(faults) = top.get("faults") {
            spec.faults = Some(read_faults(faults)?);
        }
        if let Some(traffic) = top.get("traffic") {
            spec.traffic = read_traffic(traffic)?;
        }
        if let Some(run) = top.get("run") {
            spec.run = read_run(run)?;
        }
        if let Some(seed) = top.opt_u64("seed")? {
            spec.seed = seed;
        }
        if let Some(batch) = top.opt_u64("batch")? {
            spec.batch = inert_knob("batch", batch)?;
        }
        if let Some(threads) = top.opt_u64("threads")? {
            spec.threads = inert_knob("threads", threads)?;
        }
        Ok(spec)
    }
}

/// An inert field's value, range-checked as it was while it was a knob.
fn inert_knob(key: &str, value: u64) -> Result<u32, SpecError> {
    u32::try_from(value)
        .ok()
        .filter(|&v| v > 0)
        .ok_or_else(|| SpecError::new(format!("{key} must be in 1..=u32::MAX, got {value}")))
}

fn write_sizing(o: &mut ObjectWriter<'_>, sizing: SizingSpec) {
    match sizing {
        SizingSpec::Matrix => o.str("mode", "matrix"),
        SizingSpec::Adaptive => o.str("mode", "adaptive"),
        SizingSpec::Fixed(size) => o.str("mode", "fixed").uint("size", size),
    };
}

fn read_sizing(value: &Value) -> Result<SizingSpec, SpecError> {
    let sizing = Fields::new(value, "sizing", &["mode", "size"])?;
    let mode = sizing.str("mode")?;
    let spec = match mode {
        "matrix" => SizingSpec::Matrix,
        "adaptive" => SizingSpec::Adaptive,
        "fixed" => SizingSpec::Fixed(sizing.usize("size")?),
        other => {
            return Err(SpecError::new(format!(
                "unknown sizing mode '{other}' (known: matrix, adaptive, fixed)"
            )))
        }
    };
    if !matches!(spec, SizingSpec::Fixed(_)) {
        sizing.only(&["mode"], &format!("mode '{mode}'"))?;
    }
    Ok(spec)
}

fn read_run(value: &Value) -> Result<RunConfig, SpecError> {
    let run = Fields::new(value, "run", &["slots", "warmup_slots", "drain_slots"])?;
    Ok(RunConfig {
        slots: run.u64("slots")?,
        warmup_slots: run.u64("warmup_slots")?,
        drain_slots: run.u64("drain_slots")?,
    })
}

/// Synthetic patterns are written `{"pattern": ..., "load": ..., ...}`,
/// trace replays `{"kind": "trace", "path": ..., "repeat": ..., "scale": ...}`.
fn write_traffic(o: &mut ObjectWriter<'_>, traffic: &TrafficSpec) {
    match *traffic {
        TrafficSpec::Trace {
            ref path,
            repeat,
            scale,
        } => {
            o.str("kind", "trace")
                .str("path", path)
                .uint("repeat", repeat)
                .f64("scale", scale);
        }
        ref synthetic => {
            o.str("pattern", synthetic.pattern_name())
                .f64("load", synthetic.load());
            match *synthetic {
                TrafficSpec::Hotspot { hot_fraction, .. } => {
                    o.f64("hot_fraction", hot_fraction);
                }
                TrafficSpec::Bursty {
                    peak, mean_burst, ..
                } => {
                    o.f64("peak", peak).f64("mean_burst", mean_burst);
                }
                TrafficSpec::Flows { mean_flow_len, .. } => {
                    o.f64("mean_flow_len", mean_flow_len);
                }
                _ => {}
            }
        }
    }
}

fn read_traffic(value: &Value) -> Result<TrafficSpec, SpecError> {
    let traffic = Fields::new(
        value,
        "traffic",
        &[
            "pattern",
            "load",
            "hot_fraction",
            "peak",
            "mean_burst",
            "mean_flow_len",
            "kind",
            "path",
            "format",
            "repeat",
            "scale",
        ],
    )?;
    if let Some(pattern) = traffic.opt_str("pattern")? {
        let load = traffic.f64("load")?;
        let (spec, keys) = match pattern {
            "uniform" => (TrafficSpec::Uniform { load }, &["pattern", "load"][..]),
            "diagonal" => (TrafficSpec::Diagonal { load }, &["pattern", "load"][..]),
            "hotspot" => (
                TrafficSpec::Hotspot {
                    load,
                    hot_fraction: traffic.f64("hot_fraction")?,
                },
                &["pattern", "load", "hot_fraction"][..],
            ),
            "bursty" => (
                TrafficSpec::Bursty {
                    load,
                    peak: traffic.f64("peak")?,
                    mean_burst: traffic.f64("mean_burst")?,
                },
                &["pattern", "load", "peak", "mean_burst"][..],
            ),
            "flows" => (
                TrafficSpec::Flows {
                    load,
                    mean_flow_len: traffic.f64("mean_flow_len")?,
                },
                &["pattern", "load", "mean_flow_len"][..],
            ),
            other => {
                return Err(SpecError::new(format!(
                    "unknown traffic pattern '{other}' \
                     (known: uniform, diagonal, hotspot, bursty, flows)"
                )))
            }
        };
        traffic.only(keys, &format!("pattern '{pattern}'"))?;
        return Ok(spec);
    }
    let kind = traffic.opt_str("kind")?.ok_or_else(|| {
        SpecError::new("traffic needs a 'pattern' (synthetic) or 'kind' (trace) key")
    })?;
    if kind != "trace" {
        return Err(SpecError::new(format!(
            "unknown traffic kind '{kind}' (known: trace)"
        )));
    }
    traffic.only(
        &["kind", "path", "format", "repeat", "scale"],
        "kind 'trace'",
    )?;
    // Older writers named the encoding, which the file's bytes decide now:
    // a known name is read and dropped.
    let format = traffic.opt_str("format")?;
    if let Some(other) = format.filter(|f| !matches!(*f, "csv" | "sprt")) {
        return Err(SpecError::new(format!(
            "unknown trace format '{other}' (known: csv, sprt)"
        )));
    }
    let repeat = match traffic.opt_u64("repeat")? {
        None => 1,
        Some(repeat) => u32::try_from(repeat)
            .ok()
            .filter(|r| (1..=MAX_REPEAT).contains(r))
            .ok_or_else(|| {
                SpecError::new(format!(
                    "trace repeat must be in 1..={MAX_REPEAT}, got {repeat}"
                ))
            })?,
    };
    let scale = match traffic.opt_f64("scale")? {
        None => 1.0,
        // The parser admits finite numbers only.
        Some(scale) if scale > 0.0 => scale,
        Some(scale) => {
            return Err(SpecError::new(format!(
                "trace scale must be finite and positive, got {scale}"
            )))
        }
    };
    Ok(TrafficSpec::Trace {
        path: traffic.str("path")?.to_string(),
        repeat,
        scale,
    })
}

fn write_topology(o: &mut ObjectWriter<'_>, topology: &TopologySpec) {
    o.str("kind", topology.kind_name());
    match *topology {
        TopologySpec::FatTree2 {
            edges,
            cores,
            hosts_per_edge,
            ..
        } => o
            .uint("edges", edges)
            .uint("cores", cores)
            .uint("hosts_per_edge", hosts_per_edge),
        TopologySpec::Butterfly {
            switches,
            hosts_per_switch,
            ..
        } => o
            .uint("switches", switches)
            .uint("hosts_per_switch", hosts_per_switch),
    };
    let link = topology.link();
    o.str("routing", topology.routing().name())
        .object("link", |l| {
            l.uint("latency", link.latency).uint("gap", link.gap);
        });
}

/// A `"kind"` key selects the shape and its dimension keys are required;
/// `"routing"` and `"link"` default to ECMP hashing over line-rate,
/// latency-1 links.
fn read_topology(value: &Value) -> Result<TopologySpec, SpecError> {
    let topo = Fields::new(
        value,
        "topology",
        &[
            "kind",
            "edges",
            "cores",
            "hosts_per_edge",
            "switches",
            "hosts_per_switch",
            "routing",
            "link",
        ],
    )?;
    let kind = topo.str("kind")?;
    let routing = match topo.opt_str("routing")? {
        Some(name) => RoutingSpec::from_name(name)?,
        None => RoutingSpec::EcmpHash,
    };
    let link = match topo.get("link") {
        Some(link) => {
            let link = Fields::new(link, "link", &["latency", "gap"])?;
            let default = LinkSpec::default();
            LinkSpec {
                latency: link.opt_u64("latency")?.unwrap_or(default.latency),
                gap: link.opt_u64("gap")?.unwrap_or(default.gap),
            }
        }
        None => LinkSpec::default(),
    };
    let (spec, keys) = match kind {
        "fat-tree2" => (
            TopologySpec::FatTree2 {
                edges: topo.usize("edges")?,
                cores: topo.usize("cores")?,
                hosts_per_edge: topo.usize("hosts_per_edge")?,
                routing,
                link,
            },
            [
                "kind",
                "edges",
                "cores",
                "hosts_per_edge",
                "routing",
                "link",
            ]
            .as_slice(),
        ),
        "butterfly" => (
            TopologySpec::Butterfly {
                switches: topo.usize("switches")?,
                hosts_per_switch: topo.usize("hosts_per_switch")?,
                routing,
                link,
            },
            ["kind", "switches", "hosts_per_switch", "routing", "link"].as_slice(),
        ),
        other => {
            return Err(SpecError::new(format!(
                "unknown topology kind '{other}' (known: fat-tree2, butterfly)"
            )))
        }
    };
    topo.only(keys, &format!("kind '{kind}'"))?;
    Ok(spec)
}

/// An event targets a `"link"` or a `"node"`, as its kind says.
fn write_faults(o: &mut ObjectWriter<'_>, faults: &FaultSpec) {
    o.array("events", |events| {
        for event in &faults.events {
            events.object(|e| {
                e.uint("slot", event.slot)
                    .str("kind", event.kind.name())
                    .uint(target_key(event.kind), event.index);
            });
        }
    });
    if let Some(random) = &faults.random {
        o.object("random", |r| {
            r.uint("mtbf", random.mtbf)
                .uint("mttr", random.mttr)
                .uint("seed", random.seed);
        });
    }
}

fn target_key(kind: FaultKind) -> &'static str {
    if kind.is_link() {
        "link"
    } else {
        "node"
    }
}

fn read_faults(value: &Value) -> Result<FaultSpec, SpecError> {
    let faults = Fields::new(value, "faults", &["events", "random"])?;
    let mut spec = FaultSpec::default();
    for (i, event) in faults
        .opt_array("events")?
        .unwrap_or_default()
        .iter()
        .enumerate()
    {
        spec.events
            .push(read_fault_event(event).map_err(|e| e.context(format!("event #{i}")))?);
    }
    if let Some(random) = faults.get("random") {
        let random = Fields::new(random, "random fault", &["mtbf", "mttr", "seed"])?;
        spec.random = Some(RandomFaultSpec {
            mtbf: random.u64("mtbf")?,
            mttr: random.u64("mttr")?,
            seed: random.opt_u64("seed")?.unwrap_or(0),
        });
    }
    Ok(spec)
}

fn read_fault_event(value: &Value) -> Result<FaultEventSpec, SpecError> {
    let event = Fields::new(value, "fault event", &["slot", "kind", "link", "node"])?;
    let kind = FaultKind::from_name(event.str("kind")?)?;
    let target = target_key(kind);
    event.only(
        &["slot", "kind", target],
        &format!("kind '{}'", kind.name()),
    )?;
    Ok(FaultEventSpec {
        slot: event.u64("slot")?,
        kind,
        index: event.usize(target)?,
    })
}
