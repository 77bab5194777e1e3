//! Declarative scenario specifications.
//!
//! A [`ScenarioSpec`] is the single value that describes one simulation run:
//! which scheme, how many ports, how stripe sizes are chosen, what traffic is
//! offered, how long to run, and the RNG seed.  Sweeps, benchmark binaries,
//! examples and integration tests all construct runs from this one type and
//! hand it to [`crate::engine::Engine::run`], which resolves the scheme
//! through [`crate::registry`].
//!
//! Specs are plain data: they derive the serde traits, and — because the
//! offline build uses marker-trait serde shims — they also carry a small
//! hand-rolled JSON round-trip ([`ScenarioSpec::to_json`] /
//! [`ScenarioSpec::from_json`]) so scenario files work regardless of which
//! serde is linked.
//!
//! Two fields are inert: `batch` and `threads` were performance knobs that
//! never changed a result.  They are still parsed, range-checked and
//! emitted so old spec files load and cache keys do not move, but the
//! engine reads neither; the CLIs print one note when a spec sets them.

use crate::engine::RunConfig;
use crate::traffic::bernoulli::BernoulliTraffic;
use crate::traffic::bursty::BurstyTraffic;
use crate::traffic::flows::FlowTraffic;
use crate::traffic::trace_io::{TraceFormat, MAX_REPEAT};
use crate::traffic::trace_stream::TraceStream;
use crate::traffic::TrafficGenerator;
use serde::{Deserialize, Serialize};
use sprinklers_core::matrix::TrafficMatrix;
use sprinklers_core::packet::MAX_PORTS;
use std::fmt;
use std::fmt::Write as _;
use std::path::Path;

/// How the Sprinklers switch chooses stripe sizes in this scenario
/// (baselines ignore it).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SizingSpec {
    /// Derive sizes from the scenario traffic's rate matrix (the paper's
    /// evaluation setting, where the matrix is known a priori).
    Matrix,
    /// Measure VOQ rates online and adapt sizes with the default parameters.
    Adaptive,
    /// Fixed power-of-two stripe size for every VOQ.
    Fixed(usize),
}

/// The offered traffic pattern of a scenario: one of the synthetic
/// generators, or a recorded trace replayed from disk.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TrafficSpec {
    /// Bernoulli arrivals, uniform destinations (Figure 6).
    Uniform {
        /// Offered load ρ per input.
        load: f64,
    },
    /// Bernoulli arrivals, quasi-diagonal destinations (Figure 7).
    Diagonal {
        /// Offered load ρ per input.
        load: f64,
    },
    /// Bernoulli arrivals with a hot output per input.
    Hotspot {
        /// Offered load ρ per input.
        load: f64,
        /// Fraction of each input's load aimed at its hot output.
        hot_fraction: f64,
    },
    /// On/off bursty arrivals with uniform destinations.
    Bursty {
        /// Long-run offered load ρ per input.
        load: f64,
        /// In-burst arrival probability cap.
        peak: f64,
        /// Mean burst length in slots.
        mean_burst: f64,
    },
    /// Bernoulli arrivals carrying geometric application flows (uniform
    /// destinations); required by the TCP-hashing baseline.
    Flows {
        /// Offered load ρ per input.
        load: f64,
        /// Mean flow length in packets.
        mean_flow_len: f64,
    },
    /// Replay a recorded workload trace from disk, streamed with bounded
    /// memory (see [`crate::traffic::trace_stream::TraceStream`]).
    Trace {
        /// Trace file path.  Relative paths in spec files are resolved
        /// against the spec file's directory by the loaders
        /// ([`ScenarioSpec::rebase_paths`]).
        path: String,
        /// On-disk encoding; `None` selects by file extension.
        format: Option<TraceFormat>,
        /// Number of back-to-back copies to replay (each offset by the
        /// recorded slot span).
        repeat: u32,
        /// Time-dilation factor: recorded slots map to `floor(slot/scale)`,
        /// so `scale < 1` lowers the offered load and `scale > 1` raises it
        /// (up to inadmissible overload).  This is the knob load sweeps
        /// drive for traces ([`Self::with_load`]).
        scale: f64,
    },
}

impl TrafficSpec {
    /// A trace replay at its recorded timebase (`repeat = 1`, `scale = 1`),
    /// format chosen by file extension.
    pub fn trace(path: impl Into<String>) -> Self {
        TrafficSpec::Trace {
            path: path.into(),
            format: None,
            repeat: 1,
            scale: 1.0,
        }
    }

    /// The long-run rate matrix of this pattern at size `n`.  For traces
    /// this opens and validates the file: the recorded analytic matrix when
    /// the header carries one, else empirical rates from the data.
    pub fn try_matrix(&self, n: usize) -> Result<TrafficMatrix, SpecError> {
        Ok(match self {
            TrafficSpec::Uniform { load } => TrafficMatrix::uniform(n, *load),
            TrafficSpec::Diagonal { load } => TrafficMatrix::diagonal(n, *load),
            TrafficSpec::Hotspot { load, hot_fraction } => {
                TrafficMatrix::hotspot(n, *load, *hot_fraction)
            }
            TrafficSpec::Bursty { load, .. } => TrafficMatrix::uniform(n, *load),
            TrafficSpec::Flows { load, .. } => TrafficMatrix::uniform(n, *load),
            TrafficSpec::Trace {
                path,
                format,
                repeat,
                scale,
            } => TraceStream::open(path, *format, n, *repeat, *scale)?.rate_matrix(),
        })
    }

    /// Infallible form of [`Self::try_matrix`] for the synthetic patterns.
    ///
    /// # Panics
    ///
    /// Panics for [`TrafficSpec::Trace`] when the trace file cannot be read
    /// or validated; fallible callers should use [`Self::try_matrix`].
    pub fn matrix(&self, n: usize) -> TrafficMatrix {
        self.try_matrix(n)
            .expect("trace specs need try_matrix for error handling")
    }

    /// Check the numbers a spec file, a `--load` flag or a suite's `--loads`
    /// override put here.  The synthetic generators offer at most one packet
    /// per input per slot, so an offered load (and a hot-spot fraction) is a
    /// probability: finite and in `[0, 1]`.  A bursty source's `peak` is an
    /// in-burst arrival probability in `(0, 1]` that its long-run `load`
    /// cannot exceed, and a mean burst or flow length is at least one (slot
    /// or packet).  A trace's `scale` is checked where the file is opened.
    pub fn validate(&self) -> Result<(), SpecError> {
        let probability = |what: &str, value: f64| {
            if (0.0..=1.0).contains(&value) {
                Ok(())
            } else {
                Err(SpecError::new(format!(
                    "traffic {what} must be a finite number in [0, 1] (got {value})"
                )))
            }
        };
        let mean_length = |what: &str, value: f64| {
            if value.is_finite() && value >= 1.0 {
                Ok(())
            } else {
                Err(SpecError::new(format!(
                    "traffic {what} must be a finite number of at least 1 (got {value})"
                )))
            }
        };
        match self {
            TrafficSpec::Trace { .. } => Ok(()),
            TrafficSpec::Hotspot { load, hot_fraction } => {
                probability("load", *load)?;
                probability("hot_fraction", *hot_fraction)
            }
            TrafficSpec::Bursty {
                load,
                peak,
                mean_burst,
            } => {
                probability("load", *load)?;
                if !(*peak > 0.0 && *peak <= 1.0) {
                    return Err(SpecError::new(format!(
                        "traffic peak must be a finite number in (0, 1] (got {peak})"
                    )));
                }
                // `BurstyTraffic::new`'s own tolerance.
                if *load > peak + 1e-9 {
                    return Err(SpecError::new(format!(
                        "traffic load {load} exceeds the bursty peak rate {peak}"
                    )));
                }
                mean_length("mean_burst", *mean_burst)
            }
            TrafficSpec::Flows {
                load,
                mean_flow_len,
            } => {
                probability("load", *load)?;
                mean_length("mean_flow_len", *mean_flow_len)
            }
            synthetic => probability("load", synthetic.load()),
        }
    }

    /// Instantiate the traffic generator, after [`Self::validate`].  Trace
    /// replay can also fail on the file, which is opened and validated here.
    pub fn build(&self, n: usize, seed: u64) -> Result<Box<dyn TrafficGenerator>, SpecError> {
        self.validate()?;
        Ok(match self {
            TrafficSpec::Uniform { load } => Box::new(BernoulliTraffic::uniform(n, *load, seed)),
            TrafficSpec::Diagonal { load } => Box::new(BernoulliTraffic::diagonal(n, *load, seed)),
            TrafficSpec::Hotspot { load, hot_fraction } => {
                Box::new(BernoulliTraffic::hotspot(n, *load, *hot_fraction, seed))
            }
            TrafficSpec::Bursty {
                load,
                peak,
                mean_burst,
            } => Box::new(BurstyTraffic::uniform(n, *load, *peak, *mean_burst, seed)),
            TrafficSpec::Flows {
                load,
                mean_flow_len,
            } => Box::new(FlowTraffic::uniform(n, *load, *mean_flow_len, seed)),
            TrafficSpec::Trace {
                path,
                format,
                repeat,
                scale,
            } => Box::new(TraceStream::open(path, *format, n, *repeat, *scale)?),
        })
    }

    /// The pattern's offered load.  For traces this is the `scale` knob —
    /// the load multiplier relative to the recorded workload.
    pub fn load(&self) -> f64 {
        match self {
            TrafficSpec::Uniform { load }
            | TrafficSpec::Diagonal { load }
            | TrafficSpec::Hotspot { load, .. }
            | TrafficSpec::Bursty { load, .. }
            | TrafficSpec::Flows { load, .. } => *load,
            TrafficSpec::Trace { scale, .. } => *scale,
        }
    }

    /// The same pattern at a different offered load (for load sweeps).  For
    /// traces the load knob is `scale`: sweeping loads over a trace sweeps
    /// its time compression.
    #[must_use]
    pub fn with_load(mut self, new_load: f64) -> Self {
        match &mut self {
            TrafficSpec::Uniform { load }
            | TrafficSpec::Diagonal { load }
            | TrafficSpec::Hotspot { load, .. }
            | TrafficSpec::Bursty { load, .. }
            | TrafficSpec::Flows { load, .. } => *load = new_load,
            TrafficSpec::Trace { scale, .. } => *scale = new_load,
        }
        self
    }

    fn pattern_name(&self) -> &'static str {
        match self {
            TrafficSpec::Uniform { .. } => "uniform",
            TrafficSpec::Diagonal { .. } => "diagonal",
            TrafficSpec::Hotspot { .. } => "hotspot",
            TrafficSpec::Bursty { .. } => "bursty",
            TrafficSpec::Flows { .. } => "flows",
            TrafficSpec::Trace { .. } => "trace",
        }
    }
}

/// Inter-switch link parameters of a fabric topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkSpec {
    /// Propagation latency in slots (≥ 1): a packet admitted onto the wire
    /// at slot `t` arrives at the far switch at slot `t + latency`.
    pub latency: u64,
    /// Admission gap in slots (≥ 1): at most one packet enters the wire per
    /// `gap` slots, so link capacity is `1/gap` packets per slot (1 = the
    /// switch line rate).
    pub gap: u64,
}

impl LinkSpec {
    /// Upper bound on `latency` and `gap` (2³² slots).  Far beyond any
    /// meaningful configuration, and it makes the fabric's arrival-slot
    /// arithmetic (`slot + latency`, `slot + gap`) documented-safe: with
    /// both bounded by 2³², a `u64` addition could only overflow after
    /// ~1.8·10¹⁹ simulated slots, which no realizable run reaches.
    /// Values above the bound are typed [`SpecError`]s at validation time
    /// ([`TopologySpec::validate`]), never silent wraparound.
    pub const MAX_LINK_SLOTS: u64 = 1 << 32;
}

impl Default for LinkSpec {
    fn default() -> Self {
        LinkSpec { latency: 1, gap: 1 }
    }
}

/// How an edge switch picks the core (fat-tree) or intermediate switch
/// (butterfly) for packets destined to a remote host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RoutingSpec {
    /// Deterministic hash of the `(source, destination)` host pair: every
    /// host VOQ is pinned to one path, so order is trivially preserved but
    /// load can clump on unlucky hash collisions (classic ECMP).
    EcmpHash,
    /// Independent uniform random choice per packet: ideal load spreading,
    /// but unequal path queues reorder packets end to end.
    RandomPacket,
    /// Sprinklers striping at the edge: a host VOQ sticks to its current
    /// path while any of its packets are in flight and re-randomizes (with
    /// a fresh power-of-two stripe budget) only once the VOQ has drained
    /// end to end — load-balanced *and* inversion-free.
    Stripe,
}

impl RoutingSpec {
    /// The spec-file name of this strategy.
    pub fn name(&self) -> &'static str {
        match self {
            RoutingSpec::EcmpHash => "ecmp",
            RoutingSpec::RandomPacket => "random",
            RoutingSpec::Stripe => "stripe",
        }
    }

    fn from_name(name: &str) -> Result<Self, SpecError> {
        Ok(match name {
            "ecmp" => RoutingSpec::EcmpHash,
            "random" => RoutingSpec::RandomPacket,
            "stripe" => RoutingSpec::Stripe,
            other => {
                return Err(SpecError::new(format!(
                    "unknown routing strategy '{other}' (known: ecmp, random, stripe)"
                )))
            }
        })
    }
}

/// A multi-switch fabric topology.  When a [`ScenarioSpec`] carries one, the
/// engine builds one registry switch (of the spec's scheme) per topology
/// node, wires them with [`LinkSpec`] links, and reports end-to-end
/// delay/reordering over the whole network instead of a single switch.  The
/// spec's `n` must equal the topology's total host count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TopologySpec {
    /// Two-level fat-tree: `edges` edge switches with `hosts_per_edge`
    /// hosts each, every edge connected up to each of `cores` core
    /// switches.  Edge nodes have `hosts_per_edge + cores` ports; core
    /// nodes have `edges` ports.
    FatTree2 {
        /// Number of edge switches (≥ 2; each core switch has one port per
        /// edge, and switches need at least two ports).
        edges: usize,
        /// Number of core switches (≥ 1); the routing strategy's path
        /// choices.
        cores: usize,
        /// Hosts attached to each edge switch (≥ 1).
        hosts_per_edge: usize,
        /// Path-choice strategy at the edge switches.
        routing: RoutingSpec,
        /// Inter-switch link parameters.
        link: LinkSpec,
    },
    /// Flattened butterfly: `switches` directly meshed switches with
    /// `hosts_per_switch` hosts each.  Remote packets either take the
    /// direct one-hop path or detour through one intermediate switch
    /// (Valiant style), chosen by the routing strategy.
    Butterfly {
        /// Number of switches in the full mesh (≥ 2).
        switches: usize,
        /// Hosts attached to each switch (≥ 1).
        hosts_per_switch: usize,
        /// Intermediate-switch choice strategy at the source switch.
        routing: RoutingSpec,
        /// Inter-switch link parameters.
        link: LinkSpec,
    },
}

impl TopologySpec {
    /// Total number of hosts (the fabric's external port space; must equal
    /// the owning spec's `n`).
    pub fn hosts(&self) -> usize {
        match self {
            TopologySpec::FatTree2 {
                edges,
                hosts_per_edge,
                ..
            } => edges * hosts_per_edge,
            TopologySpec::Butterfly {
                switches,
                hosts_per_switch,
                ..
            } => switches * hosts_per_switch,
        }
    }

    /// The routing strategy.
    pub fn routing(&self) -> RoutingSpec {
        match self {
            TopologySpec::FatTree2 { routing, .. } | TopologySpec::Butterfly { routing, .. } => {
                *routing
            }
        }
    }

    /// The inter-switch link parameters.
    pub fn link(&self) -> LinkSpec {
        match self {
            TopologySpec::FatTree2 { link, .. } | TopologySpec::Butterfly { link, .. } => *link,
        }
    }

    /// The spec-file name of the topology kind.
    pub fn kind_name(&self) -> &'static str {
        match self {
            TopologySpec::FatTree2 { .. } => "fat-tree2",
            TopologySpec::Butterfly { .. } => "butterfly",
        }
    }

    /// Number of switch nodes in the wired fabric, in the node-index space
    /// fault events address (edge switches first, then cores, for the
    /// fat-tree; mesh switches in order for the butterfly — see
    /// `fabric::topology::Wiring`).
    pub fn node_count(&self) -> usize {
        match *self {
            TopologySpec::FatTree2 { edges, cores, .. } => edges + cores,
            TopologySpec::Butterfly { switches, .. } => switches,
        }
    }

    /// Number of directed inter-switch links, in the link-index space fault
    /// events address (ascending source node, then ascending source port —
    /// the same creation order `fabric::topology::Wiring` walks each slot).
    pub fn link_count(&self) -> usize {
        match *self {
            TopologySpec::FatTree2 { edges, cores, .. } => 2 * edges * cores,
            TopologySpec::Butterfly { switches, .. } => switches * (switches - 1),
        }
    }

    /// Check the topology's shape against the owning spec's port count `n`
    /// and the per-node switch size bounds.
    pub fn validate(&self, n: usize) -> Result<(), SpecError> {
        let link = self.link();
        if link.latency == 0 {
            return Err(SpecError::new(
                "link latency must be at least 1 slot".to_string(),
            ));
        }
        if link.gap == 0 {
            return Err(SpecError::new(
                "link gap must be at least 1 slot (1 = line rate)".to_string(),
            ));
        }
        if link.latency > LinkSpec::MAX_LINK_SLOTS {
            return Err(SpecError::new(format!(
                "link latency {} exceeds the {} slot bound (arrival-slot \
                 arithmetic must never overflow)",
                link.latency,
                LinkSpec::MAX_LINK_SLOTS
            )));
        }
        if link.gap > LinkSpec::MAX_LINK_SLOTS {
            return Err(SpecError::new(format!(
                "link gap {} exceeds the {} slot bound (admission-slot \
                 arithmetic must never overflow)",
                link.gap,
                LinkSpec::MAX_LINK_SLOTS
            )));
        }
        let node_sizes: [usize; 2] = match *self {
            TopologySpec::FatTree2 {
                edges,
                cores,
                hosts_per_edge,
                ..
            } => {
                if edges < 2 {
                    return Err(SpecError::new(format!(
                        "fat-tree2 needs at least 2 edge switches (got {edges})"
                    )));
                }
                if cores == 0 || hosts_per_edge == 0 {
                    return Err(SpecError::new(format!(
                        "fat-tree2 needs cores >= 1 and hosts_per_edge >= 1 \
                         (got cores={cores}, hosts_per_edge={hosts_per_edge})"
                    )));
                }
                [hosts_per_edge + cores, edges]
            }
            TopologySpec::Butterfly {
                switches,
                hosts_per_switch,
                ..
            } => {
                if switches < 2 || hosts_per_switch == 0 {
                    return Err(SpecError::new(format!(
                        "butterfly needs switches >= 2 and hosts_per_switch >= 1 \
                         (got switches={switches}, hosts_per_switch={hosts_per_switch})"
                    )));
                }
                [
                    hosts_per_switch + switches - 1,
                    hosts_per_switch + switches - 1,
                ]
            }
        };
        for size in node_sizes {
            if size > sprinklers_core::packet::MAX_PORTS {
                return Err(SpecError::new(format!(
                    "topology node size {size} exceeds the {}-port switch bound",
                    sprinklers_core::packet::MAX_PORTS
                )));
            }
        }
        if self.hosts() != n {
            return Err(SpecError::new(format!(
                "spec n = {n} must equal the topology's host count {} \
                 ({} topology)",
                self.hosts(),
                self.kind_name()
            )));
        }
        Ok(())
    }

    fn to_json_inline(&self) -> String {
        let link = self.link();
        let tail = format!(
            r#""routing":"{}","link":{{"latency":{},"gap":{}}}"#,
            self.routing().name(),
            link.latency,
            link.gap
        );
        match *self {
            TopologySpec::FatTree2 {
                edges,
                cores,
                hosts_per_edge,
                ..
            } => format!(
                r#"{{"kind":"fat-tree2","edges":{edges},"cores":{cores},"hosts_per_edge":{hosts_per_edge},{tail}}}"#
            ),
            TopologySpec::Butterfly {
                switches,
                hosts_per_switch,
                ..
            } => format!(
                r#"{{"kind":"butterfly","switches":{switches},"hosts_per_switch":{hosts_per_switch},{tail}}}"#
            ),
        }
    }
}

/// What a timed fault event does, and to which entity class.
///
/// Link indices address the directed inter-switch links in wiring order
/// ([`TopologySpec::link_count`]); node indices address switch nodes
/// ([`TopologySpec::node_count`]).  Host attachment points never fail —
/// faults model the fabric, not the end hosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Take a directed link down: packets on its wire and in its ingress
    /// queue are dropped (typed losses) and nothing is admitted until the
    /// matching `link-up`.
    LinkDown,
    /// Restore a previously failed link.
    LinkUp,
    /// Take a switch node down: every packet buffered inside it is dropped
    /// and the node discards all traffic until the matching `node-up`, at
    /// which point it resumes empty (a rebooted switch keeps no state).
    NodeDown,
    /// Restore a previously failed node.
    NodeUp,
}

impl FaultKind {
    /// The spec-file name of this event kind.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::LinkDown => "link-down",
            FaultKind::LinkUp => "link-up",
            FaultKind::NodeDown => "node-down",
            FaultKind::NodeUp => "node-up",
        }
    }

    /// True for the link-targeting kinds.
    pub fn is_link(&self) -> bool {
        matches!(self, FaultKind::LinkDown | FaultKind::LinkUp)
    }

    /// True for the recovery kinds.
    pub fn is_up(&self) -> bool {
        matches!(self, FaultKind::LinkUp | FaultKind::NodeUp)
    }

    fn from_name(name: &str) -> Result<Self, SpecError> {
        Ok(match name {
            "link-down" => FaultKind::LinkDown,
            "link-up" => FaultKind::LinkUp,
            "node-down" => FaultKind::NodeDown,
            "node-up" => FaultKind::NodeUp,
            other => {
                return Err(SpecError::new(format!(
                    "unknown fault kind '{other}' (known: link-down, link-up, \
                     node-down, node-up)"
                )))
            }
        })
    }
}

/// One timed fault event: at the start of `slot` (after that slot's
/// injections, before the fabric's wire-arrival phase), apply `kind` to the
/// link or node `index` addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultEventSpec {
    /// Absolute slot the event fires at (must precede the run end,
    /// `slots + drain_slots`).
    pub slot: u64,
    /// What happens.
    pub kind: FaultKind,
    /// Link index for link events, node index for node events.
    pub index: usize,
}

/// Seeded random link-failure generator: each link (except those already
/// scripted by explicit events) alternates up/down phases with durations
/// drawn uniformly from `1..=2·mean − 1` slots — integer-uniform with the
/// requested mean — from its own seed-derived RNG, so the schedule is a
/// pure function of the spec.  Nodes never fail randomly; script those
/// explicitly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RandomFaultSpec {
    /// Mean slots between failures (mean up-phase length, ≥ 1).
    pub mtbf: u64,
    /// Mean slots to repair (mean down-phase length, ≥ 1).
    pub mttr: u64,
    /// Generator seed (independent of the scenario seed, so failure
    /// schedules can be varied without moving traffic or routing draws).
    pub seed: u64,
}

/// Deterministic fault schedule of a fabric scenario: explicit timed
/// events, an optional random link-failure generator, or both.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Explicit timed events, applied in deterministic order regardless of
    /// how they are listed here.
    pub events: Vec<FaultEventSpec>,
    /// Optional seeded random link-failure generator.
    pub random: Option<RandomFaultSpec>,
}

impl FaultSpec {
    /// True when the spec describes no fault activity at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.random.is_none()
    }

    /// Check the schedule against the topology it applies to and the run
    /// length.  Every degenerate shape is a typed error: events addressing
    /// nonexistent links/nodes, events at or past the run end, duplicate
    /// events for one entity at one slot, an `up` with no prior `down`
    /// (or `down`/`up` repeated without alternation), and zero MTBF/MTTR.
    pub fn validate(&self, topo: &TopologySpec, run: &RunConfig) -> Result<(), SpecError> {
        let total_slots = run.slots.saturating_add(run.drain_slots);
        let links = topo.link_count();
        let nodes = topo.node_count();
        for event in &self.events {
            let (space, count) = if event.kind.is_link() {
                ("link", links)
            } else {
                ("node", nodes)
            };
            if event.index >= count {
                return Err(SpecError::new(format!(
                    "fault event '{}' at slot {} references {space} {} but the \
                     {} topology has only {count} {space}s",
                    event.kind.name(),
                    event.slot,
                    event.index,
                    topo.kind_name()
                )));
            }
            if event.slot >= total_slots {
                return Err(SpecError::new(format!(
                    "fault event '{}' on {space} {} at slot {} is at or past \
                     the run end (slots + drain_slots = {total_slots})",
                    event.kind.name(),
                    event.index,
                    event.slot
                )));
            }
        }
        // Per-entity timeline: `(is_link, index)` identifies the entity, so
        // sorting groups each entity's events in slot order.
        let mut timeline: Vec<(bool, usize, u64, bool)> = self
            .events
            .iter()
            .map(|e| (e.kind.is_link(), e.index, e.slot, e.kind.is_up()))
            .collect();
        timeline.sort_unstable();
        for pair in timeline.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            if (a.0, a.1, a.2) == (b.0, b.1, b.2) {
                let space = if a.0 { "link" } else { "node" };
                return Err(SpecError::new(format!(
                    "duplicate fault events for {space} {} at slot {} \
                     (at most one event per entity per slot)",
                    a.1, a.2
                )));
            }
        }
        let mut prev: Option<(bool, usize, bool)> = None;
        for &(is_link, index, slot, is_up) in &timeline {
            let space = if is_link { "link" } else { "node" };
            let same_entity = prev.is_some_and(|(pl, pi, _)| (pl, pi) == (is_link, index));
            // An entity's first event must be a down; after that the states
            // strictly alternate.
            let expected_up = same_entity && !prev.unwrap().2;
            if is_up != expected_up {
                if is_up && !same_entity {
                    return Err(SpecError::new(format!(
                        "fault event '{space}-up' on {space} {index} at slot \
                         {slot} has no prior '{space}-down'"
                    )));
                }
                return Err(SpecError::new(format!(
                    "fault events on {space} {index} must alternate down/up \
                     (the event at slot {slot} repeats the '{}' state)",
                    if is_up { "up" } else { "down" }
                )));
            }
            prev = Some((is_link, index, is_up));
        }
        if let Some(random) = &self.random {
            if random.mtbf == 0 {
                return Err(SpecError::new(
                    "random fault mtbf must be at least 1 slot".to_string(),
                ));
            }
            if random.mttr == 0 {
                return Err(SpecError::new(
                    "random fault mttr must be at least 1 slot".to_string(),
                ));
            }
        }
        Ok(())
    }

    fn to_json_inline(&self) -> String {
        let mut out = String::from(r#"{"events":["#);
        for (i, event) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let target = if event.kind.is_link() { "link" } else { "node" };
            let _ = write!(
                out,
                r#"{{"slot":{},"kind":"{}","{target}":{}}}"#,
                event.slot,
                event.kind.name(),
                event.index
            );
        }
        out.push(']');
        if let Some(random) = &self.random {
            let _ = write!(
                out,
                r#","random":{{"mtbf":{},"mttr":{},"seed":{}}}"#,
                random.mtbf, random.mttr, random.seed
            );
        }
        out.push('}');
        out
    }
}

/// Everything needed to reproduce one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Scheme name, resolved through [`crate::registry`] (see
    /// [`crate::registry::schemes`] for the known names).
    pub scheme: String,
    /// Switch size (ports).
    pub n: usize,
    /// Stripe sizing policy (Sprinklers variants only).
    pub sizing: SizingSpec,
    /// Multi-switch fabric topology, when this scenario simulates a network
    /// of switches instead of a single one.  `None` (the default, and the
    /// only form legacy spec files can express) is the classic single-switch
    /// run.  When set, `n` is the topology's total host count and `scheme`
    /// names the per-node switch every topology node is built from.
    pub topology: Option<TopologySpec>,
    /// Deterministic fault schedule, only meaningful together with a
    /// `topology` (single switches have no links or nodes to fail; the
    /// engine rejects faults without one).  `None` — the default, and the
    /// only form legacy spec files can express — is the failure-free run.
    /// Faults are part of the scenario's scientific identity: a faulted
    /// spec hashes differently from a healthy one, so the experiment cache
    /// can never serve a healthy result for a faulted run.
    pub faults: Option<FaultSpec>,
    /// Offered traffic.
    pub traffic: TrafficSpec,
    /// Run length configuration.
    pub run: RunConfig,
    /// Seed for the switch's and the traffic generator's randomness.
    pub seed: u64,
    /// Inert: the engine picks every stepping window itself (see the
    /// `engine` module docs) and never reads this.  Still parsed,
    /// range-checked and emitted so spec files, `to_json` bytes and cache
    /// identities written while it was a knob stay valid.
    pub batch: u32,
    /// Inert like `batch`: stepping is serial and nothing in the simulator
    /// reads this.
    pub threads: u32,
}

impl ScenarioSpec {
    /// A scenario with workable defaults: matrix sizing, uniform Bernoulli
    /// traffic at 60% load, the default run length, seed 1.
    pub fn new(scheme: impl Into<String>, n: usize) -> Self {
        ScenarioSpec {
            scheme: scheme.into(),
            n,
            sizing: SizingSpec::Matrix,
            topology: None,
            faults: None,
            traffic: TrafficSpec::Uniform { load: 0.6 },
            run: RunConfig::default(),
            seed: 1,
            // The values these fields had as knobs, so `to_json` bytes and
            // cache identities stay what they were.
            batch: 64,
            threads: 1,
        }
    }

    /// Set the sizing policy.
    #[must_use]
    pub fn with_sizing(mut self, sizing: SizingSpec) -> Self {
        self.sizing = sizing;
        self
    }

    /// Set a multi-switch fabric topology (see [`TopologySpec`]).
    #[must_use]
    pub fn with_topology(mut self, topology: TopologySpec) -> Self {
        self.topology = Some(topology);
        self
    }

    /// Set a deterministic fault schedule (see [`FaultSpec`]; requires a
    /// topology to be meaningful).
    #[must_use]
    pub fn with_faults(mut self, faults: FaultSpec) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Set the traffic pattern.
    #[must_use]
    pub fn with_traffic(mut self, traffic: TrafficSpec) -> Self {
        self.traffic = traffic;
        self
    }

    /// Set the run configuration.
    #[must_use]
    pub fn with_run(mut self, run: RunConfig) -> Self {
        self.run = run;
        self
    }

    /// Set the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The seed handed to this scenario's traffic generator.  Derived from
    /// the spec seed; the engine and the `trace record` pipeline both go
    /// through here, so a recorded trace captures exactly the arrival
    /// stream the engine would have generated.
    pub fn traffic_seed(&self) -> u64 {
        self.seed.wrapping_add(1)
    }

    /// Check everything about the scenario that can be checked without
    /// building it: the port count, the topology and its fault schedule, the
    /// traffic numbers.  [`crate::engine::Engine::run`] calls this first, so
    /// a bad value from a spec file or a command line surfaces as a typed
    /// error, never as a panic inside a generator or a sizing routine.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.n < 2 {
            return Err(SpecError::new(format!(
                "port count n must be at least 2 (got {})",
                self.n
            )));
        }
        if self.n > MAX_PORTS {
            return Err(SpecError::new(format!(
                "port count n must be at most {MAX_PORTS} (got {})",
                self.n
            )));
        }
        if self.faults.is_some() && self.topology.is_none() {
            return Err(SpecError::new(
                "fault injection requires a fabric topology (single switches \
                 have no links or nodes to fail)"
                    .to_string(),
            ));
        }
        if let Some(topo) = &self.topology {
            topo.validate(self.n)?;
            if let Some(faults) = &self.faults {
                faults.validate(topo, &self.run)?;
            }
        }
        self.traffic.validate()
    }

    /// Instantiate this scenario's traffic generator (see
    /// [`Self::traffic_seed`]).
    pub fn build_traffic(&self) -> Result<Box<dyn TrafficGenerator>, SpecError> {
        self.traffic.build(self.n, self.traffic_seed())
    }

    /// Resolve any relative trace path against `base` (typically the
    /// directory of the spec file this scenario was loaded from), so specs
    /// can reference traces checked in next to them regardless of the
    /// process working directory.  Absolute paths are left untouched.
    pub fn rebase_paths(&mut self, base: &Path) {
        if let TrafficSpec::Trace { path, .. } = &mut self.traffic {
            if Path::new(path.as_str()).is_relative() && !base.as_os_str().is_empty() {
                *path = base.join(path.as_str()).to_string_lossy().into_owned();
            }
        }
    }

    /// Render the spec as JSON.
    pub fn to_json(&self) -> String {
        let sizing = match self.sizing {
            SizingSpec::Matrix => r#"{"mode":"matrix"}"#.to_string(),
            SizingSpec::Adaptive => r#"{"mode":"adaptive"}"#.to_string(),
            SizingSpec::Fixed(size) => format!(r#"{{"mode":"fixed","size":{size}}}"#),
        };
        let traffic = match &self.traffic {
            TrafficSpec::Uniform { load } => {
                format!(r#"{{"pattern":"uniform","load":{load}}}"#)
            }
            TrafficSpec::Diagonal { load } => {
                format!(r#"{{"pattern":"diagonal","load":{load}}}"#)
            }
            TrafficSpec::Hotspot { load, hot_fraction } => {
                format!(r#"{{"pattern":"hotspot","load":{load},"hot_fraction":{hot_fraction}}}"#)
            }
            TrafficSpec::Bursty {
                load,
                peak,
                mean_burst,
            } => format!(
                r#"{{"pattern":"bursty","load":{load},"peak":{peak},"mean_burst":{mean_burst}}}"#
            ),
            TrafficSpec::Flows {
                load,
                mean_flow_len,
            } => format!(r#"{{"pattern":"flows","load":{load},"mean_flow_len":{mean_flow_len}}}"#),
            TrafficSpec::Trace {
                path,
                format,
                repeat,
                scale,
            } => {
                let format = match format {
                    Some(f) => format!(r#","format":"{}""#, f.name()),
                    None => String::new(),
                };
                format!(
                    r#"{{"kind":"trace","path":"{}"{format},"repeat":{repeat},"scale":{scale}}}"#,
                    escape_json_string(path),
                )
            }
        };
        // The topology line is emitted only when present, so legacy
        // (single-switch) specs keep their exact historical JSON — and,
        // through `scientific_identity_json`, their cache keys.
        let topology = match &self.topology {
            None => String::new(),
            Some(topo) => format!("  \"topology\": {},\n", topo.to_json_inline()),
        };
        // Like topology: emitted only when present, so fault-free specs keep
        // their exact historical JSON — and, through
        // `scientific_identity_json`, their cache keys — while faulted specs
        // hash differently by construction.
        let faults = match &self.faults {
            None => String::new(),
            Some(faults) => format!("  \"faults\": {},\n", faults.to_json_inline()),
        };
        format!(
            concat!(
                "{{\n",
                "  \"scheme\": \"{}\",\n",
                "  \"n\": {},\n",
                "  \"sizing\": {},\n",
                "{}",
                "{}",
                "  \"traffic\": {},\n",
                "  \"run\": {{\"slots\":{},\"warmup_slots\":{},\"drain_slots\":{}}},\n",
                "  \"seed\": {},\n",
                "  \"batch\": {},\n",
                "  \"threads\": {}\n",
                "}}"
            ),
            escape_json_string(&self.scheme),
            self.n,
            sizing,
            topology,
            faults,
            traffic,
            self.run.slots,
            self.run.warmup_slots,
            self.run.drain_slots,
            self.seed,
            self.batch,
            self.threads,
        )
    }

    /// Parse a spec from JSON (the format produced by [`Self::to_json`];
    /// unknown keys are rejected, missing optional blocks fall back to the
    /// defaults of [`Self::new`]).
    pub fn from_json(text: &str) -> Result<Self, SpecError> {
        let value = json::parse(text)?;
        let obj = value.as_object("top level")?;
        let mut spec = ScenarioSpec::new(obj.get_str("scheme")?, obj.get_u64("n")? as usize);
        for (key, val) in &obj.entries {
            match key.as_str() {
                "scheme" | "n" => {}
                "seed" => spec.seed = val.as_u64(key)?,
                "batch" => {
                    let batch = val.as_u64(key)?;
                    if batch == 0 || batch > u64::from(u32::MAX) {
                        return Err(SpecError::new(format!(
                            "batch must be in 1..=u32::MAX, got {batch}"
                        )));
                    }
                    spec.batch = batch as u32;
                }
                "threads" => {
                    let threads = val.as_u64(key)?;
                    if threads == 0 || threads > u64::from(u32::MAX) {
                        return Err(SpecError::new(format!(
                            "threads must be in 1..=u32::MAX, got {threads}"
                        )));
                    }
                    spec.threads = threads as u32;
                }
                "run" => {
                    let run = val.as_object(key)?;
                    spec.run = RunConfig {
                        slots: run.get_u64("slots")?,
                        warmup_slots: run.get_u64("warmup_slots")?,
                        drain_slots: run.get_u64("drain_slots")?,
                    };
                }
                "sizing" => {
                    let sizing = val.as_object(key)?;
                    spec.sizing = match sizing.get_str("mode")?.as_str() {
                        "matrix" => SizingSpec::Matrix,
                        "adaptive" => SizingSpec::Adaptive,
                        "fixed" => SizingSpec::Fixed(sizing.get_u64("size")? as usize),
                        other => {
                            return Err(SpecError::new(format!("unknown sizing mode '{other}'")))
                        }
                    };
                }
                "traffic" => {
                    spec.traffic = parse_traffic(val.as_object(key)?)?;
                }
                "topology" => {
                    spec.topology = Some(parse_topology(val.as_object(key)?)?);
                }
                "faults" => {
                    spec.faults = Some(parse_faults(val.as_object(key)?)?);
                }
                other => return Err(SpecError::new(format!("unknown key '{other}'"))),
            }
        }
        Ok(spec)
    }

    /// A short human-readable summary (used in logs and CSV labels).
    pub fn label(&self) -> String {
        let base = format!(
            "{}/n={}/{}@{:.2}",
            self.scheme,
            self.n,
            self.traffic.pattern_name(),
            self.traffic.load()
        );
        match &self.topology {
            None => base,
            Some(topo) => format!("{base}/{}", topo.kind_name()),
        }
    }
}

/// A suite of scenarios: a directory of [`ScenarioSpec`] JSON files, plus
/// optional scheme and load grid overrides that cross every base spec.
///
/// A suite is the unit the `suite` binary executes: the directory provides
/// the base scenarios (sorted by file name, so expansion order — and
/// therefore the merged CSV — is deterministic), and the overrides turn each
/// base spec into a scheme × load grid, which is exactly the shape of the
/// paper's figure experiments.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SuiteSpec {
    /// Directory containing the `*.json` scenario files.
    pub dir: std::path::PathBuf,
    /// When set, each base spec is re-run once per scheme name, overriding
    /// the spec's own scheme.
    pub schemes: Option<Vec<String>>,
    /// When set, each (spec, scheme) pair is re-run once per load,
    /// overriding the spec traffic's load.
    pub loads: Option<Vec<f64>>,
}

/// One expanded member of a suite: a stable name (file stem plus any
/// override suffixes) and the fully resolved spec to run.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteCase {
    /// Deterministic case label, e.g. `smoke_uniform+foff@0.80`.
    pub name: String,
    /// The resolved scenario.
    pub spec: ScenarioSpec,
}

impl SuiteSpec {
    /// A suite over `dir` with no overrides.
    pub fn new(dir: impl Into<std::path::PathBuf>) -> Self {
        SuiteSpec {
            dir: dir.into(),
            schemes: None,
            loads: None,
        }
    }

    /// Cross every base spec with these scheme names.
    #[must_use]
    pub fn with_schemes(mut self, schemes: Vec<String>) -> Self {
        self.schemes = Some(schemes);
        self
    }

    /// Cross every (spec, scheme) pair with these offered loads.
    #[must_use]
    pub fn with_loads(mut self, loads: Vec<f64>) -> Self {
        self.loads = Some(loads);
        self
    }

    /// Read and parse every `*.json` file under the suite directory
    /// (recursively; sorted by full path) and expand the scheme/load
    /// overrides into the full case list.  Errors carry the offending
    /// file's path as context.
    ///
    /// Case names are file *stems*, so two spec files with the same stem in
    /// different subdirectories would silently share one merged-CSV case
    /// label; that collision is detected here and reported as a typed error
    /// naming both paths.
    pub fn load_cases(&self) -> Result<Vec<SuiteCase>, SpecError> {
        let mut paths: Vec<std::path::PathBuf> = Vec::new();
        collect_spec_paths(&self.dir, &mut paths)?;
        paths.sort();
        if paths.is_empty() {
            return Err(SpecError::new(format!(
                "no *.json scenario specs in {}",
                self.dir.display()
            )));
        }
        let mut stems: Vec<(String, &std::path::PathBuf)> = Vec::new();
        let mut cases = Vec::new();
        for path in &paths {
            let text = std::fs::read_to_string(path)
                .map_err(|e| SpecError::new(format!("cannot read {}: {e}", path.display())))?;
            let mut base = ScenarioSpec::from_json(&text)
                .map_err(|e| e.context(format!("spec file {}", path.display())))?;
            // Trace paths in suite members are relative to the spec file.
            base.rebase_paths(path.parent().unwrap_or_else(|| Path::new("")));
            let stem = path
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| "spec".to_string());
            // The stem becomes the merged CSV's leading `case` column
            // verbatim; a comma or newline in it would silently splice extra
            // columns or rows into every downstream consumer.  Reject at
            // load time with a typed error instead.
            if stem.contains(',') || stem.contains('\n') || stem.contains('\r') {
                return Err(SpecError::new(format!(
                    "spec file name '{}' contains a comma or newline; case names \
                     form the merged CSV's first column, so these characters would \
                     corrupt its structure ({})",
                    stem.escape_debug(),
                    path.display()
                )));
            }
            if let Some((_, first)) = stems.iter().find(|(s, _)| *s == stem) {
                return Err(SpecError::new(format!(
                    "duplicate spec file stem '{stem}': {} and {} would share \
                     one case label in the merged CSV, making their rows \
                     unattributable; rename one of them",
                    first.display(),
                    path.display()
                )));
            }
            stems.push((stem.clone(), path));
            cases.extend(self.expand(&stem, &base));
        }
        Ok(cases)
    }

    /// Cross one base spec with the suite's overrides.  With no overrides
    /// the base spec is the single case; each applied override is recorded
    /// in the case name (`+scheme` / `@load`).
    pub fn expand(&self, name: &str, base: &ScenarioSpec) -> Vec<SuiteCase> {
        let schemes: Vec<Option<&str>> = match &self.schemes {
            Some(list) => list.iter().map(|s| Some(s.as_str())).collect(),
            None => vec![None],
        };
        let loads: Vec<Option<f64>> = match &self.loads {
            Some(list) => list.iter().copied().map(Some).collect(),
            None => vec![None],
        };
        let mut cases = Vec::with_capacity(schemes.len() * loads.len());
        for scheme in &schemes {
            for load in &loads {
                let mut spec = base.clone();
                let mut case_name = name.to_string();
                if let Some(scheme) = scheme {
                    spec.scheme = scheme.to_string();
                    case_name.push('+');
                    case_name.push_str(scheme);
                }
                if let Some(load) = *load {
                    spec.traffic = spec.traffic.with_load(load);
                    // Full float Display (shortest round-trip form), not a
                    // rounded rendering: distinct loads must yield distinct
                    // case names or merged CSV rows become unattributable.
                    case_name.push_str(&format!("@{load}"));
                }
                cases.push(SuiteCase {
                    name: case_name,
                    spec,
                });
            }
        }
        cases
    }
}

/// Recursively collect every `*.json` file under `dir`.  Unsorted; the
/// caller sorts the combined list by full path so traversal order (which
/// the OS does not guarantee) never leaks into case order.
fn collect_spec_paths(
    dir: &std::path::Path,
    out: &mut Vec<std::path::PathBuf>,
) -> Result<(), SpecError> {
    let entries = std::fs::read_dir(dir)
        .map_err(|e| SpecError::new(format!("cannot read suite dir {}: {e}", dir.display())))?;
    for entry in entries.filter_map(Result::ok) {
        let path = entry.path();
        if path.is_dir() {
            collect_spec_paths(&path, out)?;
        } else if path.extension().is_some_and(|ext| ext == "json") {
            out.push(path);
        }
    }
    Ok(())
}

/// Parse the `traffic` object of a spec.  Synthetic patterns carry a
/// `"pattern"` key; trace replays are written `{"kind": "trace", "path":
/// ..., ["format": "csv"|"sprt",] ["repeat": R,] ["scale": S]}`.
fn parse_traffic(traffic: &json::Object) -> Result<TrafficSpec, SpecError> {
    if traffic.maybe("pattern").is_some() {
        let load = traffic.get_num("load")?;
        return Ok(match traffic.get_str("pattern")?.as_str() {
            "uniform" => TrafficSpec::Uniform { load },
            "diagonal" => TrafficSpec::Diagonal { load },
            "hotspot" => TrafficSpec::Hotspot {
                load,
                hot_fraction: traffic.get_num("hot_fraction")?,
            },
            "bursty" => TrafficSpec::Bursty {
                load,
                peak: traffic.get_num("peak")?,
                mean_burst: traffic.get_num("mean_burst")?,
            },
            "flows" => TrafficSpec::Flows {
                load,
                mean_flow_len: traffic.get_num("mean_flow_len")?,
            },
            other => return Err(SpecError::new(format!("unknown traffic pattern '{other}'"))),
        });
    }
    let kind = traffic.get_str("kind").map_err(|_| {
        SpecError::new("traffic needs a 'pattern' (synthetic) or 'kind' (trace) key".to_string())
    })?;
    if kind != "trace" {
        return Err(SpecError::new(format!("unknown traffic kind '{kind}'")));
    }
    let path = traffic.get_str("path")?;
    let format = match traffic.maybe("format") {
        None => None,
        Some(value) => match value {
            json::Value::String(name) => Some(TraceFormat::from_name(name)?),
            other => {
                return Err(SpecError::new(format!(
                    "format should be a string, got {other:?}"
                )))
            }
        },
    };
    let repeat = match traffic.maybe("repeat") {
        None => 1,
        Some(value) => {
            let repeat = value.as_u64("repeat")?;
            if repeat == 0 || repeat > u64::from(MAX_REPEAT) {
                return Err(SpecError::new(format!(
                    "trace repeat must be in 1..={MAX_REPEAT}, got {repeat}"
                )));
            }
            repeat as u32
        }
    };
    let scale = match traffic.maybe("scale") {
        None => 1.0,
        Some(value) => {
            let scale = value.as_number("scale")?;
            if !scale.is_finite() || scale <= 0.0 {
                return Err(SpecError::new(format!(
                    "trace scale must be finite and positive, got {scale}"
                )));
            }
            scale
        }
    };
    Ok(TrafficSpec::Trace {
        path,
        format,
        repeat,
        scale,
    })
}

/// Parse the `topology` object of a spec: a `"kind"` key selects the shape,
/// the shape's dimension keys are required, and `"routing"`/`"link"` are
/// optional (defaulting to ECMP hashing over line-rate latency-1 links).
fn parse_topology(topo: &json::Object) -> Result<TopologySpec, SpecError> {
    let kind = topo.get_str("kind")?;
    let mut routing = RoutingSpec::EcmpHash;
    let mut link = LinkSpec::default();
    let mut edges = None;
    let mut cores = None;
    let mut hosts_per_edge = None;
    let mut switches = None;
    let mut hosts_per_switch = None;
    for (key, val) in &topo.entries {
        match key.as_str() {
            "kind" => {}
            "routing" => routing = RoutingSpec::from_name(&topo.get_str(key)?)?,
            "link" => link = parse_link(val.as_object(key)?)?,
            "edges" => edges = Some(val.as_u64(key)? as usize),
            "cores" => cores = Some(val.as_u64(key)? as usize),
            "hosts_per_edge" => hosts_per_edge = Some(val.as_u64(key)? as usize),
            "switches" => switches = Some(val.as_u64(key)? as usize),
            "hosts_per_switch" => hosts_per_switch = Some(val.as_u64(key)? as usize),
            other => return Err(SpecError::new(format!("unknown topology key '{other}'"))),
        }
    }
    let require = |value: Option<usize>, name: &str| {
        value.ok_or_else(|| SpecError::new(format!("topology kind '{kind}' needs key '{name}'")))
    };
    let forbid = |value: Option<usize>, name: &str| match value {
        Some(_) => Err(SpecError::new(format!(
            "topology key '{name}' does not apply to kind '{kind}'"
        ))),
        None => Ok(()),
    };
    match kind.as_str() {
        "fat-tree2" => {
            forbid(switches, "switches")?;
            forbid(hosts_per_switch, "hosts_per_switch")?;
            Ok(TopologySpec::FatTree2 {
                edges: require(edges, "edges")?,
                cores: require(cores, "cores")?,
                hosts_per_edge: require(hosts_per_edge, "hosts_per_edge")?,
                routing,
                link,
            })
        }
        "butterfly" => {
            forbid(edges, "edges")?;
            forbid(cores, "cores")?;
            forbid(hosts_per_edge, "hosts_per_edge")?;
            Ok(TopologySpec::Butterfly {
                switches: require(switches, "switches")?,
                hosts_per_switch: require(hosts_per_switch, "hosts_per_switch")?,
                routing,
                link,
            })
        }
        other => Err(SpecError::new(format!(
            "unknown topology kind '{other}' (known: fat-tree2, butterfly)"
        ))),
    }
}

/// Parse the optional `link` object of a topology.
fn parse_link(link: &json::Object) -> Result<LinkSpec, SpecError> {
    let mut spec = LinkSpec::default();
    for (key, val) in &link.entries {
        match key.as_str() {
            "latency" => spec.latency = val.as_u64(key)?,
            "gap" => spec.gap = val.as_u64(key)?,
            other => return Err(SpecError::new(format!("unknown link key '{other}'"))),
        }
    }
    Ok(spec)
}

/// Parse the `faults` object of a spec: an `"events"` array of timed
/// events, an optional `"random"` MTBF/MTTR generator block, or both.
fn parse_faults(faults: &json::Object) -> Result<FaultSpec, SpecError> {
    let mut spec = FaultSpec::default();
    for (key, val) in &faults.entries {
        match key.as_str() {
            "events" => {
                for (i, item) in val.as_array(key)?.iter().enumerate() {
                    let event = item.as_object(&format!("faults event #{i}"))?;
                    spec.events.push(
                        parse_fault_event(event).map_err(|e| e.context(format!("event #{i}")))?,
                    );
                }
            }
            "random" => {
                let random = val.as_object(key)?;
                for (rkey, _) in &random.entries {
                    match rkey.as_str() {
                        "mtbf" | "mttr" | "seed" => {}
                        other => {
                            return Err(SpecError::new(format!(
                                "unknown random-fault key '{other}'"
                            )))
                        }
                    }
                }
                spec.random = Some(RandomFaultSpec {
                    mtbf: random.get_u64("mtbf")?,
                    mttr: random.get_u64("mttr")?,
                    seed: match random.maybe("seed") {
                        None => 0,
                        Some(value) => value.as_u64("seed")?,
                    },
                });
            }
            other => return Err(SpecError::new(format!("unknown faults key '{other}'"))),
        }
    }
    Ok(spec)
}

/// Parse one fault event: `{"slot": S, "kind": "link-down", "link": L}` —
/// the index key must match the kind's entity class (`"link"` for link
/// events, `"node"` for node events).
fn parse_fault_event(event: &json::Object) -> Result<FaultEventSpec, SpecError> {
    let kind = FaultKind::from_name(&event.get_str("kind")?)?;
    let (want, wrong) = if kind.is_link() {
        ("link", "node")
    } else {
        ("node", "link")
    };
    for (key, _) in &event.entries {
        match key.as_str() {
            "slot" | "kind" => {}
            k if k == want => {}
            k if k == wrong => {
                return Err(SpecError::new(format!(
                    "fault kind '{}' targets a {want}, not a {wrong}",
                    kind.name()
                )))
            }
            other => return Err(SpecError::new(format!("unknown fault event key '{other}'"))),
        }
    }
    Ok(FaultEventSpec {
        slot: event.get_u64("slot")?,
        kind,
        index: event.get_u64(want)? as usize,
    })
}

/// Escape a string for embedding in a JSON string literal, so
/// [`ScenarioSpec::to_json`] round-trips through [`ScenarioSpec::from_json`]
/// even when the (unvalidated-at-spec-level) scheme name contains quotes,
/// backslashes or control characters.
pub(crate) fn escape_json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Error produced when a scenario spec cannot be parsed or resolved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    message: String,
}

impl SpecError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        SpecError {
            message: message.into(),
        }
    }

    /// Prefix the error with where it happened (a scheme name, a sweep point,
    /// a spec file path), so grid and suite runners can attribute a failure
    /// to the exact run that produced it.
    #[must_use]
    pub fn context(self, ctx: impl fmt::Display) -> Self {
        SpecError {
            message: format!("{ctx}: {}", self.message),
        }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scenario spec error: {}", self.message)
    }
}

impl std::error::Error for SpecError {}

/// Minimal JSON reader used by [`ScenarioSpec::from_json`].
mod json {
    use super::SpecError;

    // The spec format only needs objects, arrays, numbers and strings;
    // booleans and null are rejected at parse time.  Numbers carry the exact
    // u64 alongside the f64 when the literal is a plain non-negative
    // integer, because seeds and slot counts exceed f64's 2^53 exact-integer
    // range (a round-trip through f64 alone silently corrupts large seeds).
    #[derive(Debug, Clone)]
    pub(super) enum Value {
        Object(Object),
        Array(Vec<Value>),
        Number { value: f64, integer: Option<u64> },
        String(String),
    }

    #[derive(Debug, Clone, Default)]
    pub(super) struct Object {
        pub entries: Vec<(String, Value)>,
    }

    impl Object {
        fn get(&self, key: &str) -> Result<&Value, SpecError> {
            self.maybe(key)
                .ok_or_else(|| SpecError::new(format!("missing key '{key}'")))
        }

        /// The value under `key`, when present (for optional fields).
        pub(super) fn maybe(&self, key: &str) -> Option<&Value> {
            self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
        }

        pub(super) fn get_str(&self, key: &str) -> Result<String, SpecError> {
            match self.get(key)? {
                Value::String(s) => Ok(s.clone()),
                other => Err(SpecError::new(format!(
                    "key '{key}' should be a string, got {other:?}"
                ))),
            }
        }

        pub(super) fn get_num(&self, key: &str) -> Result<f64, SpecError> {
            self.get(key)?.as_number(key)
        }

        pub(super) fn get_u64(&self, key: &str) -> Result<u64, SpecError> {
            self.get(key)?.as_u64(key)
        }
    }

    impl Value {
        pub(super) fn as_object(&self, what: &str) -> Result<&Object, SpecError> {
            match self {
                Value::Object(o) => Ok(o),
                other => Err(SpecError::new(format!(
                    "{what} should be an object, got {other:?}"
                ))),
            }
        }

        pub(super) fn as_array(&self, what: &str) -> Result<&[Value], SpecError> {
            match self {
                Value::Array(items) => Ok(items),
                other => Err(SpecError::new(format!(
                    "{what} should be an array, got {other:?}"
                ))),
            }
        }

        pub(super) fn as_number(&self, what: &str) -> Result<f64, SpecError> {
            match self {
                Value::Number { value, .. } => Ok(*value),
                other => Err(SpecError::new(format!(
                    "{what} should be a number, got {other:?}"
                ))),
            }
        }

        /// The exact integer value — unlike [`Self::as_number`] this never
        /// goes through f64, so 64-bit seeds round-trip losslessly.
        pub(super) fn as_u64(&self, what: &str) -> Result<u64, SpecError> {
            match self {
                Value::Number {
                    integer: Some(i), ..
                } => Ok(*i),
                other => Err(SpecError::new(format!(
                    "{what} should be a non-negative integer, got {other:?}"
                ))),
            }
        }
    }

    pub(super) fn parse(text: &str) -> Result<Value, SpecError> {
        let mut p = Parser {
            chars: text.char_indices().peekable(),
            text,
        };
        let v = p.value()?;
        p.skip_ws();
        if let Some((i, c)) = p.chars.peek() {
            return Err(SpecError::new(format!("trailing input at byte {i}: '{c}'")));
        }
        Ok(v)
    }

    struct Parser<'a> {
        chars: std::iter::Peekable<std::str::CharIndices<'a>>,
        text: &'a str,
    }

    impl Parser<'_> {
        fn skip_ws(&mut self) {
            while matches!(self.chars.peek(), Some((_, c)) if c.is_whitespace()) {
                self.chars.next();
            }
        }

        fn expect(&mut self, want: char) -> Result<(), SpecError> {
            self.skip_ws();
            match self.chars.next() {
                Some((_, c)) if c == want => Ok(()),
                Some((i, c)) => Err(SpecError::new(format!(
                    "expected '{want}' at byte {i}, got '{c}'"
                ))),
                None => Err(SpecError::new(format!(
                    "expected '{want}', got end of input"
                ))),
            }
        }

        fn value(&mut self) -> Result<Value, SpecError> {
            self.skip_ws();
            match self.chars.peek().copied() {
                Some((_, '{')) => self.object(),
                Some((_, '[')) => self.array(),
                Some((_, '"')) => Ok(Value::String(self.string()?)),
                Some((_, c)) if c == '-' || c.is_ascii_digit() => self.number(),
                Some((i, c)) => Err(SpecError::new(format!(
                    "unexpected character '{c}' at byte {i}"
                ))),
                None => Err(SpecError::new("unexpected end of input")),
            }
        }

        fn object(&mut self) -> Result<Value, SpecError> {
            self.expect('{')?;
            let mut obj = Object::default();
            self.skip_ws();
            if matches!(self.chars.peek(), Some((_, '}'))) {
                self.chars.next();
                return Ok(Value::Object(obj));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.expect(':')?;
                let val = self.value()?;
                obj.entries.push((key, val));
                self.skip_ws();
                match self.chars.next() {
                    Some((_, ',')) => continue,
                    Some((_, '}')) => return Ok(Value::Object(obj)),
                    other => {
                        return Err(SpecError::new(format!(
                            "expected ',' or '}}' in object, got {other:?}"
                        )))
                    }
                }
            }
        }

        fn array(&mut self) -> Result<Value, SpecError> {
            self.expect('[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if matches!(self.chars.peek(), Some((_, ']'))) {
                self.chars.next();
                return Ok(Value::Array(items));
            }
            loop {
                items.push(self.value()?);
                self.skip_ws();
                match self.chars.next() {
                    Some((_, ',')) => continue,
                    Some((_, ']')) => return Ok(Value::Array(items)),
                    other => {
                        return Err(SpecError::new(format!(
                            "expected ',' or ']' in array, got {other:?}"
                        )))
                    }
                }
            }
        }

        fn string(&mut self) -> Result<String, SpecError> {
            self.expect('"')?;
            let mut out = String::new();
            loop {
                match self.chars.next() {
                    Some((_, '"')) => return Ok(out),
                    Some((_, '\\')) => match self.chars.next() {
                        Some((_, '"')) => out.push('"'),
                        Some((_, '\\')) => out.push('\\'),
                        Some((_, 'n')) => out.push('\n'),
                        Some((_, 't')) => out.push('\t'),
                        Some((_, 'r')) => out.push('\r'),
                        Some((_, '/')) => out.push('/'),
                        Some((_, 'u')) => {
                            let mut code = 0u32;
                            for _ in 0..4 {
                                let digit = match self.chars.next() {
                                    Some((_, c)) => c.to_digit(16).ok_or_else(|| {
                                        SpecError::new(format!(
                                            "invalid hex digit {c:?} in \\u escape"
                                        ))
                                    })?,
                                    None => return Err(SpecError::new("unterminated \\u escape")),
                                };
                                code = code * 16 + digit;
                            }
                            match char::from_u32(code) {
                                Some(c) => out.push(c),
                                None => {
                                    return Err(SpecError::new(format!(
                                        "\\u{code:04x} is not a scalar value (surrogate \
                                         pairs are not supported)"
                                    )))
                                }
                            }
                        }
                        other => {
                            return Err(SpecError::new(format!(
                                "unsupported escape {other:?} in string"
                            )))
                        }
                    },
                    Some((_, c)) => out.push(c),
                    None => return Err(SpecError::new("unterminated string")),
                }
            }
        }

        fn number(&mut self) -> Result<Value, SpecError> {
            let start = match self.chars.peek() {
                Some((i, _)) => *i,
                None => return Err(SpecError::new("unexpected end of input")),
            };
            let mut end = start;
            while let Some((i, c)) = self.chars.peek().copied() {
                if c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E' || c.is_ascii_digit() {
                    end = i + c.len_utf8();
                    self.chars.next();
                } else {
                    break;
                }
            }
            let literal = &self.text[start..end];
            let value = literal
                .parse::<f64>()
                .map_err(|e| SpecError::new(format!("bad number '{literal}': {e}")))?;
            Ok(Value::Number {
                value,
                // Plain digit strings keep their exact u64 so integer fields
                // (seeds, slot counts) survive values beyond 2^53.
                integer: literal.parse::<u64>().ok(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let spec = ScenarioSpec::new("sprinklers", 16);
        assert_eq!(spec.scheme, "sprinklers");
        assert_eq!(spec.n, 16);
        assert_eq!(spec.sizing, SizingSpec::Matrix);
        assert_eq!(spec.traffic.load(), 0.6);
    }

    /// Every synthetic pattern at `load`, for the load-validation tests.
    fn synthetic_patterns(load: f64) -> Vec<TrafficSpec> {
        vec![
            TrafficSpec::Uniform { load },
            TrafficSpec::Diagonal { load },
            TrafficSpec::Hotspot {
                load,
                hot_fraction: 0.5,
            },
            TrafficSpec::Bursty {
                load,
                peak: 1.0,
                mean_burst: 8.0,
            },
            TrafficSpec::Flows {
                load,
                mean_flow_len: 10.0,
            },
        ]
    }

    /// Assert that `traffic` is refused — by its own check, by the scenario's
    /// and by the generator constructor — naming `what` and the value.
    fn assert_traffic_rejected(traffic: TrafficSpec, what: &str) {
        let message = traffic.validate().unwrap_err().to_string();
        assert!(
            message.contains(&format!("traffic {what} must be a finite number in [0, 1]")),
            "{traffic:?}: {message}"
        );
        assert!(
            traffic.build(8, 1).is_err(),
            "{traffic:?} built a generator"
        );
        let spec = ScenarioSpec::new("sprinklers", 8).with_traffic(traffic);
        assert_eq!(spec.validate().unwrap_err().to_string(), message);
    }

    #[test]
    fn negative_load_is_a_typed_error() {
        for traffic in synthetic_patterns(-0.1) {
            assert_traffic_rejected(traffic, "load");
        }
    }

    #[test]
    fn non_finite_load_is_a_typed_error() {
        for load in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for traffic in synthetic_patterns(load) {
                assert_traffic_rejected(traffic, "load");
            }
        }
    }

    #[test]
    fn load_above_one_is_a_typed_error() {
        // One packet per input per slot is all a generator can offer.
        for traffic in synthetic_patterns(1.5) {
            assert_traffic_rejected(traffic, "load");
        }
    }

    #[test]
    fn hot_fraction_outside_the_unit_interval_is_a_typed_error() {
        for hot_fraction in [-0.2, 1.01, f64::NAN] {
            assert_traffic_rejected(
                TrafficSpec::Hotspot {
                    load: 0.5,
                    hot_fraction,
                },
                "hot_fraction",
            );
        }
    }

    #[test]
    fn load_validation_accepts_the_closed_unit_interval_and_trace_scales() {
        for load in [0.0, 0.05, 1.0] {
            for traffic in synthetic_patterns(load) {
                assert!(traffic.validate().is_ok(), "{traffic:?}");
            }
        }
        // A trace's load knob is its time scale, which may exceed 1.
        assert!(TrafficSpec::trace("t.sprt")
            .with_load(1.5)
            .validate()
            .is_ok());
    }

    #[test]
    fn load_overrides_are_validated_where_the_case_runs() {
        // A suite's `--loads` (and the CLI's `--load`) rewrite the spec after
        // it was parsed; the engine's validation is what catches them.
        let base = ScenarioSpec::new("oq", 8).with_run(RunConfig::quick());
        let cases = SuiteSpec::new("unused")
            .with_loads(vec![0.3, -0.1])
            .expand("case", &base);
        let mut engine = crate::engine::Engine::new();
        assert!(engine.run(&cases[0].spec).is_ok());
        let message = engine.run(&cases[1].spec).unwrap_err().to_string();
        assert!(message.contains("traffic load"), "{message}");
    }

    #[test]
    fn json_round_trip_preserves_every_field() {
        let spec = ScenarioSpec::new("foff", 32)
            .with_sizing(SizingSpec::Fixed(4))
            .with_traffic(TrafficSpec::Hotspot {
                load: 0.85,
                hot_fraction: 0.4,
            })
            .with_run(RunConfig {
                slots: 1234,
                warmup_slots: 56,
                drain_slots: 789,
            })
            .with_seed(99);
        let parsed = ScenarioSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(parsed, spec);
    }

    #[test]
    fn json_round_trip_escapes_hostile_scheme_names() {
        for scheme in ["a\"b", "back\\slash", "tab\there", "new\nline", "\u{1}"] {
            let spec = ScenarioSpec::new(scheme, 8);
            let parsed = ScenarioSpec::from_json(&spec.to_json()).unwrap();
            assert_eq!(parsed.scheme, scheme);
        }
    }

    #[test]
    fn json_round_trip_covers_all_traffic_patterns() {
        for traffic in [
            TrafficSpec::Uniform { load: 0.5 },
            TrafficSpec::Diagonal { load: 0.9 },
            TrafficSpec::Bursty {
                load: 0.6,
                peak: 1.0,
                mean_burst: 32.0,
            },
            TrafficSpec::Flows {
                load: 0.7,
                mean_flow_len: 20.0,
            },
        ] {
            let spec = ScenarioSpec::new("ufs", 8).with_traffic(traffic);
            assert_eq!(ScenarioSpec::from_json(&spec.to_json()).unwrap(), spec);
        }
    }

    #[test]
    fn batch_round_trips_and_defaults() {
        let mut spec = ScenarioSpec::new("sprinklers", 8);
        spec.batch = 17;
        let parsed = ScenarioSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(parsed.batch, 17);
        assert_eq!(parsed, spec);
        // Specs without the key parse to the default.
        let legacy = ScenarioSpec::from_json(r#"{"scheme": "oq", "n": 8}"#).unwrap();
        assert_eq!(legacy.batch, 64);
    }

    #[test]
    fn zero_and_fractional_batches_are_rejected() {
        for bad in [
            r#"{"scheme": "oq", "n": 8, "batch": 0}"#,
            r#"{"scheme": "oq", "n": 8, "batch": 1.5}"#,
            r#"{"scheme": "oq", "n": 8, "batch": 4294967296}"#,
        ] {
            assert!(ScenarioSpec::from_json(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn threads_round_trips_and_defaults() {
        let mut spec = ScenarioSpec::new("sprinklers", 8);
        spec.threads = 4;
        let parsed = ScenarioSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(parsed.threads, 4);
        assert_eq!(parsed, spec);
        // Specs without the key parse to the default.
        let legacy = ScenarioSpec::from_json(r#"{"scheme": "oq", "n": 8}"#).unwrap();
        assert_eq!(legacy.threads, 1);
    }

    #[test]
    fn zero_and_fractional_thread_counts_are_rejected() {
        for bad in [
            r#"{"scheme": "oq", "n": 8, "threads": 0}"#,
            r#"{"scheme": "oq", "n": 8, "threads": 2.5}"#,
            r#"{"scheme": "oq", "n": 8, "threads": 4294967296}"#,
        ] {
            assert!(ScenarioSpec::from_json(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn seeds_beyond_f64_precision_round_trip_exactly() {
        // Found by the spec_roundtrip_prop property suite: the JSON reader
        // used to funnel integers through f64, corrupting seeds > 2^53.
        for seed in [u64::MAX, u64::MAX - 1, (1 << 53) + 1, 16591238828776808448] {
            let spec = ScenarioSpec::new("oq", 8).with_seed(seed);
            let parsed = ScenarioSpec::from_json(&spec.to_json()).unwrap();
            assert_eq!(parsed.seed, seed);
        }
    }

    #[test]
    fn integer_fields_reject_fractional_values() {
        for bad in [
            r#"{"scheme": "oq", "n": 8.5}"#,
            r#"{"scheme": "oq", "n": 8, "seed": 1.25}"#,
            r#"{"scheme": "oq", "n": 8, "run": {"slots":1e3,"warmup_slots":0,"drain_slots":0}}"#,
        ] {
            assert!(ScenarioSpec::from_json(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn missing_blocks_fall_back_to_defaults() {
        let spec = ScenarioSpec::from_json(r#"{"scheme": "oq", "n": 8}"#).unwrap();
        assert_eq!(spec, ScenarioSpec::new("oq", 8));
    }

    #[test]
    fn unknown_keys_are_rejected() {
        let err = ScenarioSpec::from_json(r#"{"scheme": "oq", "n": 8, "bogus": 1}"#).unwrap_err();
        assert!(err.to_string().contains("bogus"));
    }

    #[test]
    fn malformed_json_reports_an_error() {
        assert!(ScenarioSpec::from_json("{").is_err());
        assert!(ScenarioSpec::from_json(r#"{"scheme": 3, "n": 8}"#).is_err());
        assert!(ScenarioSpec::from_json("").is_err());
    }

    #[test]
    fn with_load_changes_only_the_load() {
        let t = TrafficSpec::Hotspot {
            load: 0.5,
            hot_fraction: 0.3,
        };
        let t2 = t.with_load(0.9);
        assert_eq!(t2.load(), 0.9);
        match t2 {
            TrafficSpec::Hotspot { hot_fraction, .. } => assert_eq!(hot_fraction, 0.3),
            _ => panic!("pattern changed"),
        }
    }

    #[test]
    fn label_is_compact() {
        let spec = ScenarioSpec::new("sprinklers", 32);
        assert_eq!(spec.label(), "sprinklers/n=32/uniform@0.60");
    }

    #[test]
    fn context_prefixes_the_error_message() {
        let err = SpecError::new("boom").context("file x.json");
        assert_eq!(err.to_string(), "scenario spec error: file x.json: boom");
    }

    #[test]
    fn suite_expand_without_overrides_is_the_base_spec() {
        let base = ScenarioSpec::new("oq", 8);
        let cases = SuiteSpec::new("unused").expand("case", &base);
        assert_eq!(cases.len(), 1);
        assert_eq!(cases[0].name, "case");
        assert_eq!(cases[0].spec, base);
    }

    #[test]
    fn suite_expand_crosses_schemes_and_loads_deterministically() {
        let base = ScenarioSpec::new("oq", 8);
        let suite = SuiteSpec::new("unused")
            .with_schemes(vec!["sprinklers".into(), "foff".into()])
            .with_loads(vec![0.3, 0.9]);
        let cases = suite.expand("base", &base);
        assert_eq!(cases.len(), 4);
        let names: Vec<&str> = cases.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "base+sprinklers@0.3",
                "base+sprinklers@0.9",
                "base+foff@0.3",
                "base+foff@0.9",
            ]
        );
        assert_eq!(cases[0].spec.scheme, "sprinklers");
        assert_eq!(cases[3].spec.scheme, "foff");
        assert_eq!(cases[3].spec.traffic.load(), 0.9);
        // Everything not overridden is inherited from the base spec.
        assert!(cases.iter().all(|c| c.spec.n == 8 && c.spec.seed == 1));
    }

    #[test]
    fn suite_case_names_distinguish_nearby_loads() {
        // Labels must never round loads: distinct override values need
        // distinct case names or merged CSV rows become unattributable.
        let base = ScenarioSpec::new("oq", 8);
        let suite = SuiteSpec::new("unused").with_loads(vec![0.301, 0.299]);
        let cases = suite.expand("x", &base);
        assert_eq!(cases[0].name, "x@0.301");
        assert_eq!(cases[1].name, "x@0.299");
        let unique: std::collections::HashSet<&str> =
            cases.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(unique.len(), cases.len());
    }

    #[test]
    fn suite_loads_a_directory_sorted_by_file_name() {
        let dir = std::env::temp_dir().join(format!("sprinklers-suite-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("b_second.json"),
            ScenarioSpec::new("foff", 8).to_json(),
        )
        .unwrap();
        std::fs::write(
            dir.join("a_first.json"),
            ScenarioSpec::new("oq", 8).to_json(),
        )
        .unwrap();
        std::fs::write(dir.join("ignored.txt"), "not a spec").unwrap();

        let cases = SuiteSpec::new(&dir).load_cases().unwrap();
        assert_eq!(cases.len(), 2);
        assert_eq!(cases[0].name, "a_first");
        assert_eq!(cases[0].spec.scheme, "oq");
        assert_eq!(cases[1].name, "b_second");

        // A malformed member file fails with the file path in the message.
        std::fs::write(dir.join("c_bad.json"), "{ nope").unwrap();
        let err = SuiteSpec::new(&dir).load_cases().unwrap_err().to_string();
        assert!(err.contains("c_bad.json"), "{err}");

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn csv_hostile_spec_file_names_are_rejected_at_load_time() {
        // Regression: a stem like `evil,0.9` used to flow straight into the
        // merged CSV's `case` column, silently shifting every later column
        // of that row.  Now it is a typed load-time error.
        let dir = std::env::temp_dir().join(format!("sprinklers-inject-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("ok.json"), ScenarioSpec::new("oq", 8).to_json()).unwrap();
        std::fs::write(
            dir.join("evil,case.json"),
            ScenarioSpec::new("oq", 8).to_json(),
        )
        .unwrap();
        let err = SuiteSpec::new(&dir).load_cases().unwrap_err().to_string();
        assert!(err.contains("comma or newline"), "{err}");
        assert!(err.contains("evil,case"), "{err}");

        // A newline in the file name is just as hostile: it would inject a
        // whole extra CSV row.
        std::fs::remove_file(dir.join("evil,case.json")).unwrap();
        std::fs::write(
            dir.join("evil\nrow.json"),
            ScenarioSpec::new("oq", 8).to_json(),
        )
        .unwrap();
        let err = SuiteSpec::new(&dir).load_cases().unwrap_err().to_string();
        assert!(err.contains("comma or newline"), "{err}");

        // Clean stems still load fine once the hostile file is gone.
        std::fs::remove_file(dir.join("evil\nrow.json")).unwrap();
        assert_eq!(SuiteSpec::new(&dir).load_cases().unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn fat_tree(routing: RoutingSpec) -> TopologySpec {
        TopologySpec::FatTree2 {
            edges: 2,
            cores: 4,
            hosts_per_edge: 8,
            routing,
            link: LinkSpec { latency: 2, gap: 1 },
        }
    }

    #[test]
    fn topology_specs_round_trip_through_json() {
        for topo in [
            fat_tree(RoutingSpec::EcmpHash),
            fat_tree(RoutingSpec::RandomPacket),
            fat_tree(RoutingSpec::Stripe),
            TopologySpec::Butterfly {
                switches: 4,
                hosts_per_switch: 4,
                routing: RoutingSpec::Stripe,
                link: LinkSpec::default(),
            },
        ] {
            let spec = ScenarioSpec::new("oq", topo.hosts()).with_topology(topo);
            let parsed = ScenarioSpec::from_json(&spec.to_json()).unwrap();
            assert_eq!(parsed, spec, "json was: {}", spec.to_json());
        }
    }

    #[test]
    fn topology_free_specs_emit_the_exact_legacy_json() {
        // The topology line is only emitted when present, so single-switch
        // specs keep their historical bytes — and therefore their
        // content-addressed cache keys.
        let spec = ScenarioSpec::new("oq", 8);
        assert!(!spec.to_json().contains("topology"));
        assert_eq!(ScenarioSpec::from_json(&spec.to_json()).unwrap(), spec);
    }

    #[test]
    fn topology_json_defaults_routing_and_link() {
        let spec = ScenarioSpec::from_json(
            r#"{"scheme": "oq", "n": 4,
                "topology": {"kind": "fat-tree2", "edges": 2, "cores": 2, "hosts_per_edge": 2}}"#,
        )
        .unwrap();
        let topo = spec.topology.unwrap();
        assert_eq!(topo.routing(), RoutingSpec::EcmpHash);
        assert_eq!(topo.link(), LinkSpec { latency: 1, gap: 1 });
    }

    #[test]
    fn malformed_topology_json_is_rejected() {
        for bad in [
            // Unknown kind.
            r#"{"scheme": "oq", "n": 4, "topology": {"kind": "torus", "edges": 2}}"#,
            // Missing a dimension.
            r#"{"scheme": "oq", "n": 4, "topology": {"kind": "fat-tree2", "edges": 2, "cores": 2}}"#,
            // Dimension from the other kind.
            r#"{"scheme": "oq", "n": 4,
                "topology": {"kind": "butterfly", "switches": 2, "hosts_per_switch": 2, "edges": 2}}"#,
            // Unknown topology key.
            r#"{"scheme": "oq", "n": 4,
                "topology": {"kind": "fat-tree2", "edges": 2, "cores": 2, "hosts_per_edge": 2, "bogus": 1}}"#,
            // Unknown routing strategy.
            r#"{"scheme": "oq", "n": 4,
                "topology": {"kind": "fat-tree2", "edges": 2, "cores": 2, "hosts_per_edge": 2, "routing": "lava"}}"#,
            // Unknown link key.
            r#"{"scheme": "oq", "n": 4,
                "topology": {"kind": "fat-tree2", "edges": 2, "cores": 2, "hosts_per_edge": 2, "link": {"mtu": 9000}}}"#,
        ] {
            assert!(ScenarioSpec::from_json(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn topology_validation_rejects_degenerate_shapes() {
        let ok = fat_tree(RoutingSpec::EcmpHash);
        assert!(ok.validate(16).is_ok());
        // Host-count mismatch with the owning spec's n.
        assert!(ok.validate(8).is_err());
        // One edge switch would make 1-port core switches.
        let one_edge = TopologySpec::FatTree2 {
            edges: 1,
            cores: 2,
            hosts_per_edge: 4,
            routing: RoutingSpec::EcmpHash,
            link: LinkSpec::default(),
        };
        assert!(one_edge.validate(4).is_err());
        // Zero-latency links are meaningless in slotted time.
        let zero_latency = TopologySpec::FatTree2 {
            edges: 2,
            cores: 2,
            hosts_per_edge: 2,
            routing: RoutingSpec::EcmpHash,
            link: LinkSpec { latency: 0, gap: 1 },
        };
        assert!(zero_latency.validate(4).is_err());
        let zero_gap = TopologySpec::Butterfly {
            switches: 2,
            hosts_per_switch: 2,
            routing: RoutingSpec::EcmpHash,
            link: LinkSpec { latency: 1, gap: 0 },
        };
        assert!(zero_gap.validate(4).is_err());
        let tiny_mesh = TopologySpec::Butterfly {
            switches: 1,
            hosts_per_switch: 4,
            routing: RoutingSpec::EcmpHash,
            link: LinkSpec::default(),
        };
        assert!(tiny_mesh.validate(4).is_err());
    }

    #[test]
    fn topology_label_carries_the_kind() {
        let spec = ScenarioSpec::new("oq", 16).with_topology(fat_tree(RoutingSpec::Stripe));
        assert_eq!(spec.label(), "oq/n=16/uniform@0.60/fat-tree2");
    }

    #[test]
    fn suite_loads_subdirectories_recursively() {
        let dir = std::env::temp_dir().join(format!("sprinklers-rec-{}", std::process::id()));
        let sub = dir.join("nested/deeper");
        std::fs::create_dir_all(&sub).unwrap();
        std::fs::write(dir.join("b_top.json"), ScenarioSpec::new("oq", 8).to_json()).unwrap();
        std::fs::write(
            sub.join("a_deep.json"),
            ScenarioSpec::new("foff", 8).to_json(),
        )
        .unwrap();

        let cases = SuiteSpec::new(&dir).load_cases().unwrap();
        assert_eq!(cases.len(), 2);
        // Sorted by full path: "b_top.json" < "nested/...", so the
        // top-level file still comes first even though its stem sorts later.
        assert_eq!(cases[0].name, "b_top");
        assert_eq!(cases[1].name, "a_deep");
        assert_eq!(cases[1].spec.scheme, "foff");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn suite_rejects_duplicate_stems_across_subdirectories() {
        // Regression: two spec files with the same stem in different
        // subdirectories used to share one merged-CSV case label, making
        // their rows unattributable.  Now it is a typed load-time error
        // naming both paths.
        let dir = std::env::temp_dir().join(format!("sprinklers-dup-{}", std::process::id()));
        let sub = dir.join("variant");
        std::fs::create_dir_all(&sub).unwrap();
        std::fs::write(dir.join("case.json"), ScenarioSpec::new("oq", 8).to_json()).unwrap();
        std::fs::write(
            sub.join("case.json"),
            ScenarioSpec::new("foff", 8).to_json(),
        )
        .unwrap();

        let err = SuiteSpec::new(&dir).load_cases().unwrap_err().to_string();
        assert!(err.contains("duplicate spec file stem 'case'"), "{err}");
        assert!(err.contains("variant"), "both paths should be named: {err}");

        // Renaming one of them resolves the collision.
        std::fs::rename(sub.join("case.json"), sub.join("case_variant.json")).unwrap();
        let cases = SuiteSpec::new(&dir).load_cases().unwrap();
        assert_eq!(cases.len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn trace_specs_round_trip_through_json() {
        use crate::traffic::trace_io::TraceFormat;
        for traffic in [
            TrafficSpec::trace("traces/capture.sprt"),
            TrafficSpec::Trace {
                path: "with \"quotes\"\\and\\slashes.csv".into(),
                format: Some(TraceFormat::Csv),
                repeat: 7,
                scale: 1.75,
            },
            TrafficSpec::Trace {
                path: "/abs/path.sprt".into(),
                format: Some(TraceFormat::Sprt),
                repeat: 1,
                scale: 0.25,
            },
        ] {
            let spec = ScenarioSpec::new("foff", 8).with_traffic(traffic);
            let parsed = ScenarioSpec::from_json(&spec.to_json()).unwrap();
            assert_eq!(parsed, spec, "json was: {}", spec.to_json());
        }
    }

    #[test]
    fn trace_json_accepts_the_kind_key_with_defaults() {
        let spec = ScenarioSpec::from_json(
            r#"{"scheme": "oq", "n": 8,
                "traffic": {"kind": "trace", "path": "t.sprt"}}"#,
        )
        .unwrap();
        assert_eq!(spec.traffic, TrafficSpec::trace("t.sprt"));
        assert_eq!(spec.traffic.load(), 1.0);
    }

    #[test]
    fn malformed_trace_traffic_json_is_rejected() {
        for bad in [
            // Missing path.
            r#"{"scheme": "oq", "n": 8, "traffic": {"kind": "trace"}}"#,
            // Unknown kind.
            r#"{"scheme": "oq", "n": 8, "traffic": {"kind": "pcap", "path": "t"}}"#,
            // Neither pattern nor kind.
            r#"{"scheme": "oq", "n": 8, "traffic": {"path": "t.sprt"}}"#,
            // Unknown format.
            r#"{"scheme": "oq", "n": 8, "traffic": {"kind": "trace", "path": "t", "format": "pcap"}}"#,
            // Repeat out of range.
            r#"{"scheme": "oq", "n": 8, "traffic": {"kind": "trace", "path": "t", "repeat": 0}}"#,
            r#"{"scheme": "oq", "n": 8, "traffic": {"kind": "trace", "path": "t", "repeat": 1000000}}"#,
            // Scale must be positive.
            r#"{"scheme": "oq", "n": 8, "traffic": {"kind": "trace", "path": "t", "scale": 0}}"#,
            r#"{"scheme": "oq", "n": 8, "traffic": {"kind": "trace", "path": "t", "scale": -2}}"#,
        ] {
            assert!(ScenarioSpec::from_json(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn trace_load_knob_is_the_scale() {
        let t = TrafficSpec::trace("t.sprt").with_load(1.5);
        assert_eq!(t.load(), 1.5);
        match t {
            TrafficSpec::Trace { scale, repeat, .. } => {
                assert_eq!(scale, 1.5);
                assert_eq!(repeat, 1);
            }
            _ => panic!("pattern changed"),
        }
    }

    #[test]
    fn rebase_resolves_relative_trace_paths_only() {
        let mut spec = ScenarioSpec::new("oq", 8).with_traffic(TrafficSpec::trace("traces/t.sprt"));
        spec.rebase_paths(Path::new("/specs/smoke"));
        match &spec.traffic {
            TrafficSpec::Trace { path, .. } => {
                assert_eq!(path, "/specs/smoke/traces/t.sprt")
            }
            _ => panic!("pattern changed"),
        }
        // Absolute paths and synthetic patterns are untouched.
        let mut abs = ScenarioSpec::new("oq", 8).with_traffic(TrafficSpec::trace("/t.sprt"));
        abs.rebase_paths(Path::new("/specs/smoke"));
        assert_eq!(abs.traffic, TrafficSpec::trace("/t.sprt"));
        let mut synth = ScenarioSpec::new("oq", 8);
        synth.rebase_paths(Path::new("/specs/smoke"));
        assert_eq!(synth.traffic, TrafficSpec::Uniform { load: 0.6 });
    }

    #[test]
    fn build_traffic_uses_the_engine_seed_derivation() {
        // The recorded-trace pipeline relies on record and replay agreeing
        // on how the generator is seeded; pin the derivation.
        let spec = ScenarioSpec::new("oq", 8).with_seed(41);
        assert_eq!(spec.traffic_seed(), 42);
        let mut a = spec.build_traffic().unwrap();
        let mut b = spec.traffic.build(spec.n, 42).unwrap();
        for slot in 0..64 {
            assert_eq!(a.arrivals(slot).len(), b.arrivals(slot).len());
        }
    }

    #[test]
    fn suite_rejects_missing_and_empty_directories() {
        let missing = SuiteSpec::new("/nonexistent/sprinklers-suite");
        assert!(missing.load_cases().is_err());

        let dir = std::env::temp_dir().join(format!("sprinklers-empty-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let err = SuiteSpec::new(&dir).load_cases().unwrap_err().to_string();
        assert!(err.contains("no *.json"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn event(slot: u64, kind: FaultKind, index: usize) -> FaultEventSpec {
        FaultEventSpec { slot, kind, index }
    }

    fn faulted_spec(faults: FaultSpec) -> ScenarioSpec {
        ScenarioSpec::new("oq", 16)
            .with_topology(fat_tree(RoutingSpec::Stripe))
            .with_faults(faults)
    }

    #[test]
    fn fault_specs_round_trip_through_json() {
        let faults = FaultSpec {
            events: vec![
                event(100, FaultKind::LinkDown, 3),
                event(200, FaultKind::LinkUp, 3),
                event(150, FaultKind::NodeDown, 5),
                event(400, FaultKind::NodeUp, 5),
            ],
            random: Some(RandomFaultSpec {
                mtbf: 5_000,
                mttr: 300,
                seed: u64::MAX, // exercises the exact-u64 path
            }),
        };
        let spec = faulted_spec(faults);
        let parsed = ScenarioSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(parsed, spec, "json was: {}", spec.to_json());

        // Events-only and random-only forms round-trip too.
        let events_only = faulted_spec(FaultSpec {
            events: vec![event(1, FaultKind::LinkDown, 0)],
            random: None,
        });
        assert_eq!(
            ScenarioSpec::from_json(&events_only.to_json()).unwrap(),
            events_only
        );
        let random_only = faulted_spec(FaultSpec {
            events: vec![],
            random: Some(RandomFaultSpec {
                mtbf: 10,
                mttr: 2,
                seed: 0,
            }),
        });
        assert_eq!(
            ScenarioSpec::from_json(&random_only.to_json()).unwrap(),
            random_only
        );
    }

    #[test]
    fn fault_free_specs_emit_the_exact_legacy_json() {
        // Like the topology line, the faults line is only emitted when
        // present, so pre-fault spec files keep their historical bytes and
        // their content-addressed cache keys.
        let spec = ScenarioSpec::new("oq", 16).with_topology(fat_tree(RoutingSpec::Stripe));
        assert!(!spec.to_json().contains("faults"));
        assert_eq!(ScenarioSpec::from_json(&spec.to_json()).unwrap(), spec);
    }

    #[test]
    fn fault_validation_rejects_degenerate_schedules() {
        let topo = fat_tree(RoutingSpec::Stripe); // 16 links, 6 nodes
        let run = RunConfig {
            slots: 1_000,
            warmup_slots: 100,
            drain_slots: 500,
        };
        let check = |faults: FaultSpec| faults.validate(&topo, &run);

        // A clean schedule passes.
        assert!(check(FaultSpec {
            events: vec![
                event(10, FaultKind::LinkDown, 0),
                event(20, FaultKind::LinkUp, 0),
                event(30, FaultKind::NodeDown, 5),
            ],
            random: Some(RandomFaultSpec {
                mtbf: 100,
                mttr: 10,
                seed: 1
            }),
        })
        .is_ok());

        // Nonexistent link.
        let err = check(FaultSpec {
            events: vec![event(10, FaultKind::LinkDown, 16)],
            random: None,
        })
        .unwrap_err()
        .to_string();
        assert!(err.contains("only 16 links"), "{err}");

        // Nonexistent node.
        let err = check(FaultSpec {
            events: vec![event(10, FaultKind::NodeDown, 6)],
            random: None,
        })
        .unwrap_err()
        .to_string();
        assert!(err.contains("only 6 nodes"), "{err}");

        // Event at the run end (slots + drain_slots = 1500).
        let err = check(FaultSpec {
            events: vec![event(1_500, FaultKind::LinkDown, 0)],
            random: None,
        })
        .unwrap_err()
        .to_string();
        assert!(err.contains("run end"), "{err}");

        // Duplicate events for one entity at one slot.
        let err = check(FaultSpec {
            events: vec![
                event(10, FaultKind::LinkDown, 2),
                event(10, FaultKind::LinkUp, 2),
            ],
            random: None,
        })
        .unwrap_err()
        .to_string();
        assert!(err.contains("duplicate fault events"), "{err}");

        // Up with no prior down.
        let err = check(FaultSpec {
            events: vec![event(10, FaultKind::LinkUp, 0)],
            random: None,
        })
        .unwrap_err()
        .to_string();
        assert!(err.contains("no prior 'link-down'"), "{err}");
        let err = check(FaultSpec {
            events: vec![event(10, FaultKind::NodeUp, 0)],
            random: None,
        })
        .unwrap_err()
        .to_string();
        assert!(err.contains("no prior 'node-down'"), "{err}");

        // Down repeated without an intervening up.
        let err = check(FaultSpec {
            events: vec![
                event(10, FaultKind::LinkDown, 0),
                event(20, FaultKind::LinkDown, 0),
            ],
            random: None,
        })
        .unwrap_err()
        .to_string();
        assert!(err.contains("must alternate"), "{err}");

        // Zero MTBF / MTTR.
        for (mtbf, mttr) in [(0, 10), (10, 0)] {
            let err = check(FaultSpec {
                events: vec![],
                random: Some(RandomFaultSpec {
                    mtbf,
                    mttr,
                    seed: 0,
                }),
            })
            .unwrap_err()
            .to_string();
            assert!(err.contains("at least 1 slot"), "{err}");
        }

        // The same entity index in the other space is fine: link 0 and
        // node 0 are different entities.
        assert!(check(FaultSpec {
            events: vec![
                event(10, FaultKind::LinkDown, 0),
                event(10, FaultKind::NodeDown, 0),
            ],
            random: None,
        })
        .is_ok());
    }

    #[test]
    fn link_spec_bounds_reject_overflowing_latency_and_gap() {
        // Arrival-slot arithmetic adds latency (and gap backlog) to absolute
        // slot numbers; values near u64::MAX would overflow, so they are
        // typed errors at validation time.
        let huge_latency = TopologySpec::FatTree2 {
            edges: 2,
            cores: 2,
            hosts_per_edge: 2,
            routing: RoutingSpec::EcmpHash,
            link: LinkSpec {
                latency: u64::MAX,
                gap: 1,
            },
        };
        let err = huge_latency.validate(4).unwrap_err().to_string();
        assert!(err.contains("latency"), "{err}");
        let huge_gap = TopologySpec::FatTree2 {
            edges: 2,
            cores: 2,
            hosts_per_edge: 2,
            routing: RoutingSpec::EcmpHash,
            link: LinkSpec {
                latency: 1,
                gap: LinkSpec::MAX_LINK_SLOTS + 1,
            },
        };
        let err = huge_gap.validate(4).unwrap_err().to_string();
        assert!(err.contains("gap"), "{err}");
        // The bound itself is inclusive-safe.
        let at_bound = TopologySpec::FatTree2 {
            edges: 2,
            cores: 2,
            hosts_per_edge: 2,
            routing: RoutingSpec::EcmpHash,
            link: LinkSpec {
                latency: LinkSpec::MAX_LINK_SLOTS,
                gap: 1,
            },
        };
        assert!(at_bound.validate(4).is_ok());
    }

    #[test]
    fn malformed_fault_json_is_rejected() {
        for bad in [
            // Link event targeting a node.
            r#"{"scheme": "oq", "n": 4, "faults": {"events": [{"slot": 1, "kind": "link-down", "node": 0}]}}"#,
            // Node event targeting a link.
            r#"{"scheme": "oq", "n": 4, "faults": {"events": [{"slot": 1, "kind": "node-down", "link": 0}]}}"#,
            // Unknown kind.
            r#"{"scheme": "oq", "n": 4, "faults": {"events": [{"slot": 1, "kind": "cable-cut", "link": 0}]}}"#,
            // Unknown event key.
            r#"{"scheme": "oq", "n": 4, "faults": {"events": [{"slot": 1, "kind": "link-down", "link": 0, "x": 1}]}}"#,
            // Unknown faults key.
            r#"{"scheme": "oq", "n": 4, "faults": {"evnts": []}}"#,
            // Events must be an array.
            r#"{"scheme": "oq", "n": 4, "faults": {"events": {"slot": 1}}}"#,
            // Random block missing mttr.
            r#"{"scheme": "oq", "n": 4, "faults": {"random": {"mtbf": 100}}}"#,
            // Unknown random key.
            r#"{"scheme": "oq", "n": 4, "faults": {"random": {"mtbf": 100, "mttr": 10, "jitter": 3}}}"#,
        ] {
            assert!(ScenarioSpec::from_json(bad).is_err(), "accepted: {bad}");
        }
    }
}
