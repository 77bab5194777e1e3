//! The multi-switch fabric a scenario may run instead of one switch.

use super::SpecError;
use sprinklers_core::packet::MAX_PORTS;

/// Inter-switch link parameters of a fabric topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

    pub(super) fn from_name(name: &str) -> Result<Self, SpecError> {
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

/// A multi-switch fabric topology.  When a [`super::ScenarioSpec`] carries one, the
/// engine builds one registry switch (of the spec's scheme) per topology
/// node, wires them with [`LinkSpec`] links, and reports end-to-end
/// delay/reordering over the whole network instead of a single switch.  The
/// spec's `n` must equal the topology's total host count.
#[derive(Debug, Clone, PartialEq)]
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
                [hosts_per_edge.saturating_add(cores), edges]
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
                    hosts_per_switch.saturating_add(switches - 1),
                    hosts_per_switch.saturating_add(switches - 1),
                ]
            }
        };
        for size in node_sizes {
            if size > MAX_PORTS {
                return Err(SpecError::new(format!(
                    "topology node size {size} exceeds the {}-port switch bound",
                    MAX_PORTS
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
}
