//! The fault schedule of a fabric scenario.

use super::{SpecError, TopologySpec};
use crate::engine::RunConfig;

/// What a timed fault event does, and to which entity class.
///
/// Link indices address the directed inter-switch links in wiring order
/// ([`TopologySpec::link_count`]); node indices address switch nodes
/// ([`TopologySpec::node_count`]).  Host attachment points never fail —
/// faults model the fabric, not the end hosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

    pub(super) fn from_name(name: &str) -> Result<Self, SpecError> {
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
#[derive(Debug, Clone, Default, PartialEq)]
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
}
