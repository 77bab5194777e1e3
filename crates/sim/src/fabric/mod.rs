//! Multi-switch fabrics: several switch nodes wired by latency/capacity
//! links, driven as one [`Switch`] whose ports are the hosts.
//!
//! A [`FabricWorld`] instantiates one registry scheme per switch node of a
//! [`TopologySpec`] (every node is an independent N×N switch with its own
//! derived seed), wires the nodes with the directed links the
//! [`topology::Wiring`] describes, and routes packets host-to-host: the
//! engine injects packets addressed by *global* host pair, every hop sees a
//! node-local `(input, output)` cell, and the packet the engine injected —
//! ports, id, VOQ sequence number and original arrival slot — comes back
//! out the moment it reaches its destination host.  The existing
//! [`MetricsSink`](crate::metrics::sink::MetricsSink) therefore measures
//! true end-to-end delay and end-to-end reordering without knowing fabrics
//! exist.
//!
//! # How the fabric holds a packet
//!
//! An injected packet is written once into the fabric's
//! [`PacketStore`] and taken out once, at its destination host or at its
//! typed drop; memory follows the packets resident in the fabric, not the
//! length of the run, and a packet's `id` is payload the fabric never
//! interprets.  In between only the store's `u32` handle moves:
//!
//! * **inside a node** the switch holds a node-local *cell* — a [`Packet`]
//!   whose `id` is the handle, whose ports and `arrival_slot` are the hop's
//!   own and whose `flow` is the packet's (no scheme reads `id` or
//!   `voq_seq`; `tcp-hash` reads `flow`).  Padding a node generates keeps
//!   `id == u64::MAX` and is never in the store;
//! * **on a link** the ingress queue and the wire hold bare handles;
//! * **parked** at its source host (see below) a packet is a handle in its
//!   pair's queue.
//!
//! A `location` tag per handle names the node holding the cell (or none):
//! [`FabricWorld::enqueue_at`] sets it, dispatch clears it, and a
//! `node-down` event finds what the node held by one walk over the tags
//! instead of per-hop bookkeeping.  Links that hold anything sit in one
//! occupancy set, so the wire-arrival and admission phases visit those and
//! no others, and running counts of link-resident and store-resident
//! packets make [`Switch::stats`] O(nodes) and "the fabric is empty"
//! O(1).
//!
//! # Determinism
//!
//! The fabric advances in a fixed phase order — fault events and
//! parked-traffic release (faulted runs only), then link arrivals
//! (ascending link index), node steps (ascending node index), link
//! admissions (ascending link index) — and draws randomness from a single
//! seed-derived RNG in the router plus one derived seed per node.  While
//! anything is resident [`Switch::step_batch`] takes those phases strictly
//! slot by slot however many slots the engine hands it; while *nothing*
//! is — no packet in the store, no cell or padding in any node — no phase
//! can move or deliver a packet, so the rest of the call collapses to the
//! fault events at their slots plus one [`Switch::step_batch`] per node
//! (whose contract is exactly that many single steps).  That is why the
//! engine's windows need no fault-event boundary, and why the suite worker
//! count is a pure performance knob: the delivered packet stream is
//! byte-identical at any setting.
//!
//! # Fault injection
//!
//! A [`FaultSpec`] (installed with [`FabricWorld::with_faults`]) expands to
//! a deterministic event timeline applied at the *start* of each event's
//! slot — after that slot's injections (the engine injects slot-`s` packets
//! before the `step_batch` covering slot `s`), before the wire-arrival phase.
//! Losses are typed, never silent: packets flushed off a failing link or
//! node, packets arriving at an already-dead link or node, and injections
//! at a dead source node all decrement the pair's in-flight count and tick
//! a per-cause drop counter.  A down node's switch is rebuilt fresh from
//! its derived seed (a rebooted switch keeps no state).  Striped traffic
//! whose current path dies is *parked* at the source host until the pair's
//! in-flight packets drain (or the path recovers), so the re-randomized
//! path can never overtake surviving packets — reconvergence preserves the
//! fabric's reorder-freedom guarantee.
//!
//! Which paths are alive changes only at those events, so failure-aware
//! routing reads a per-node-pair bitmask from a cache every event
//! invalidates (see [`routing`]), and a delivery is matched only against
//! the events still waiting for some pair to deliver again — usually none.

mod faults;
pub mod routing;
pub mod topology;

use std::collections::{BTreeMap, VecDeque};
use std::mem;

use crate::engine::RunConfig;
use crate::registry;
use crate::report::{FaultEventReport, FaultSummary};
use crate::spec::{FaultKind, FaultSpec, SizingSpec, SpecError, TopologySpec};
use sprinklers_core::matrix::TrafficMatrix;
use sprinklers_core::occupancy::{OccupancySet, PortCursor};
use sprinklers_core::packet::{DeliveredPacket, Packet};
use sprinklers_core::rng;
use sprinklers_core::store::{PacketHandle, PacketStore};
use sprinklers_core::switch::{DeliverySink, Switch, SwitchStats};

use faults::{FaultEvent, FaultSchedule};
use routing::{mask_contains, PathMasks, Router};
use topology::{PortTarget, Wiring};

/// `location` tag of a handle whose packet is in no node: on a link,
/// parked, or not in the fabric at all.
const NOT_IN_NODE: u32 = u32::MAX;

/// What every node is built from, kept so a `node-down` rebuilds a node
/// exactly as [`FabricWorld::build`] made it.
struct NodeRecipe {
    scheme: String,
    sizing: SizingSpec,
    /// Offered load of the uniform matrix matrix-sized schemes size from.
    load: f64,
    /// The scenario seed; node `idx` runs on `rng::derive(seed, idx)`.
    seed: u64,
}

impl NodeRecipe {
    /// A fresh switch for node `idx` with `n` ports and no state.
    fn node(&self, idx: usize, n: usize) -> Result<Box<dyn Switch>, SpecError> {
        let matrix = TrafficMatrix::uniform(n, self.load);
        let seed = rng::derive(self.seed, idx as u64);
        registry::build_named(&self.scheme, n, &self.sizing, &matrix, seed)
            .map_err(|e| e.context(format!("fabric node {idx} ({n} ports)")))
    }
}

/// One directed inter-switch link: an ingress queue feeding a fixed-latency
/// wire that admits at most one packet per `gap` slots.  Both hold store
/// handles.
struct Link {
    to_node: usize,
    to_port: usize,
    latency: u64,
    gap: u64,
    /// Packets waiting to be admitted onto the wire.
    ingress: VecDeque<u32>,
    /// In-flight packets with their arrival slots (non-decreasing order).
    wire: VecDeque<(u64, u32)>,
    /// First slot at which the wire accepts the next packet.
    next_free: u64,
}

/// All fault machinery of one faulted run.  Absent (`None`) on healthy
/// fabrics, which therefore pay nothing and keep their exact legacy RNG
/// draw sequence.
struct FaultState {
    schedule: FaultSchedule,
    /// Current state per directed link / per node.
    link_up: Vec<bool>,
    node_up: Vec<bool>,
    /// Live-path bitmasks per (source node, destination node), valid until
    /// the next applied event.
    masks: PathMasks,
    /// What the run reports: the typed loss counters and one record per
    /// applied event, in application order.
    summary: FaultSummary,
    /// Per entry of `summary.events`: the affected pairs still awaiting
    /// their first post-event delivery (sorted; drained by
    /// [`FaultState::note_delivery`]).
    waiting: Vec<Vec<usize>>,
    /// Striped traffic parked at the source host, by pair: filled while the
    /// pair's current path is dead with packets still in flight, drained —
    /// FIFO, ascending pair order — once the pair drains or the path
    /// recovers.  Only pairs with something parked have an entry.
    parked: BTreeMap<usize, VecDeque<u32>>,
    parked_count: u64,
    /// Reusable scratch: the pairs an event cost packets.
    affected: Vec<usize>,
    /// Indices of the events still waiting on some pair, ascending.
    open: Vec<usize>,
}

impl FaultState {
    /// A pair delivered a packet at `slot`: strike it from every event
    /// still waiting on it; an event whose last waiting pair resumes marks
    /// its reconvergence slot.
    // lint: hot-path
    #[inline]
    fn note_delivery(&mut self, pair: usize, slot: u64) {
        if self.open.is_empty() {
            return;
        }
        let (waiting, events) = (&mut self.waiting, &mut self.summary.events);
        self.open.retain(|&index| {
            let waiting = &mut waiting[index];
            if let Ok(pos) = waiting.binary_search(&pair) {
                waiting.remove(pos);
                if waiting.is_empty() {
                    events[index].reconverged_slot = Some(slot);
                    return false;
                }
            }
            true
        });
    }

    /// The live-path mask from host `src` to remote host `dst`.
    #[inline]
    fn live_paths(&mut self, wiring: &Wiring, src: usize, dst: usize) -> &[u64] {
        let FaultState {
            masks,
            link_up,
            node_up,
            ..
        } = self;
        let key = wiring.host_node(src) * wiring.nodes.len() + wiring.host_node(dst);
        masks.get(key, |choice| {
            wiring.path_is_live(src, dst, choice, link_up, node_up)
        })
    }
}

/// A multi-switch fabric: a [`Switch`] whose ports are the hosts.
pub struct FabricWorld {
    wiring: Wiring,
    /// One switch per node of the wiring.
    nodes: Vec<Box<dyn Switch>>,
    links: Vec<Link>,
    /// Links with anything in their ingress queue or on their wire.
    active_links: OccupancySet,
    /// Packets on links (ingress + wire), all links together.
    on_links: usize,
    router: Router,
    label: String,
    hosts: usize,
    /// The body of every packet inside the fabric (in a node, on a link or
    /// parked), as the engine injected it.
    store: PacketStore,
    /// Per store handle: the node holding the packet's cell, or
    /// [`NOT_IN_NODE`].  Always as long as the store's capacity.
    location: Vec<u32>,
    /// Packets currently inside the fabric per `(src, dst)` host pair
    /// (`src * hosts + dst`) — the striping router's path-change guard.
    in_flight: Vec<u64>,
    injected: u64,
    delivered: u64,
    /// Reusable per-node delivery buffer (no steady-state allocation).
    scratch: Vec<DeliveredPacket>,
    recipe: NodeRecipe,
    /// Fault machinery; `None` for failure-free runs (the legacy path).
    faults: Option<FaultState>,
}

impl FabricWorld {
    /// Build the fabric a validated topology describes, with one `scheme`
    /// switch per node.
    ///
    /// Every node gets a seed derived from the scenario `seed` and its node
    /// index, and — for matrix-sized Sprinklers variants — a uniform rate
    /// matrix at the scenario's offered `load`, since each hop of a
    /// load-balanced fabric sees an approximately uniform mix of the host
    /// traffic.
    pub fn build(
        topo: &TopologySpec,
        scheme: &str,
        sizing: &SizingSpec,
        seed: u64,
        load: f64,
    ) -> Result<FabricWorld, SpecError> {
        let wiring = Wiring::build(topo);
        // Node indices share `location`'s u32 with the `NOT_IN_NODE` tag.
        assert!(wiring.nodes.len() < NOT_IN_NODE as usize);
        let hosts = wiring.hosts.len();
        let link_spec = topo.link();
        let recipe = NodeRecipe {
            scheme: scheme.to_string(),
            sizing: *sizing,
            load: if load.is_finite() {
                load.clamp(0.0, 1.0)
            } else {
                0.0
            },
            seed,
        };
        let nodes = wiring
            .nodes
            .iter()
            .enumerate()
            .map(|(idx, desc)| recipe.node(idx, desc.ports.len()))
            .collect::<Result<Vec<_>, SpecError>>()?;
        let links: Vec<Link> = wiring
            .links
            .iter()
            .map(|desc| Link {
                to_node: desc.to_node,
                to_port: desc.to_port,
                latency: link_spec.latency,
                gap: link_spec.gap,
                ingress: VecDeque::new(),
                wire: VecDeque::new(),
                next_free: 0,
            })
            .collect();
        let router = Router::new(
            topo.routing(),
            hosts,
            wiring.path_choices(),
            seed.wrapping_mul(rng::GOLDEN_GAMMA).wrapping_add(0xABCD),
        );
        let label = format!(
            "fabric:{}[{}/{}]",
            topo.kind_name(),
            scheme,
            topo.routing().name()
        );
        Ok(FabricWorld {
            active_links: OccupancySet::new(links.len()),
            on_links: 0,
            wiring,
            nodes,
            links,
            router,
            label,
            hosts,
            store: PacketStore::new(),
            location: Vec::new(),
            in_flight: vec![0; hosts * hosts],
            injected: 0,
            delivered: 0,
            scratch: Vec::new(),
            recipe,
            faults: None,
        })
    }

    /// Install a fault schedule (validated against this fabric's topology
    /// via [`FaultSpec::validate`]).  The schedule expands here — explicit
    /// events plus the seeded random generator — so the whole faulted run
    /// is a pure function of the spec.
    pub fn with_faults(mut self, faults: &FaultSpec, run: &RunConfig) -> Self {
        let nodes = self.nodes.len();
        self.faults = Some(FaultState {
            schedule: FaultSchedule::expand(faults, self.links.len(), run),
            link_up: vec![true; self.links.len()],
            node_up: vec![true; nodes],
            masks: PathMasks::new(nodes * nodes, self.wiring.path_choices()),
            summary: FaultSummary::default(),
            waiting: Vec::new(),
            parked: BTreeMap::new(),
            parked_count: 0,
            affected: Vec::new(),
            open: Vec::new(),
        });
        self
    }

    /// The fault-injection summary of this run (`None` when the world was
    /// built without faults).
    pub fn fault_summary(&self) -> Option<FaultSummary> {
        self.faults.as_ref().map(|f| f.summary.clone())
    }

    /// Packets the store has room for without growing: its high-water mark
    /// of resident packets, rounded up to whole pages.  It follows how full
    /// the fabric has been, never how long it has run.
    pub fn store_capacity(&self) -> usize {
        self.store.capacity()
    }

    /// Write an injected packet's body into the store — the one write of
    /// its stay in the fabric — keeping `location` as long as the store.
    #[inline]
    fn admit(store: &mut PacketStore, location: &mut Vec<u32>, packet: &Packet) -> u32 {
        let handle = store.insert(packet).raw();
        if handle as usize >= location.len() {
            location.resize(store.capacity(), NOT_IN_NODE);
        }
        handle
    }

    /// A packet is lost: take its body out of the store and the packet out
    /// of its pair's in-flight count.  Returns the pair.
    #[inline]
    fn lose(store: &mut PacketStore, in_flight: &mut [u64], hosts: usize, handle: u32) -> usize {
        let body = store.take(PacketHandle::from_raw(handle));
        let pair = body.input() * hosts + body.output();
        in_flight[pair] -= 1;
        pair
    }

    /// Hand the packet behind `handle` to `node`'s switch as a node-local
    /// cell: local ports, zeroed single-switch routing fields (each hop
    /// stripes afresh), the packet's own `flow`, and `slot` — the hop-entry
    /// slot — as its arrival slot.
    // lint: hot-path
    #[inline]
    fn enqueue_at(
        &mut self,
        node_idx: usize,
        in_port: usize,
        out_port: usize,
        handle: u32,
        flow: u64,
        slot: u64,
    ) {
        self.location[handle as usize] = node_idx as u32;
        let cell = Packet::new(in_port, out_port, u64::from(handle), slot).with_flow(flow);
        self.nodes[node_idx].arrive(cell);
    }

    /// Route one delivery off a node: out to a host (as the packet the
    /// engine injected) or onto the ingress of the next link.
    // lint: hot-path
    #[inline]
    fn dispatch(
        &mut self,
        node_idx: usize,
        mut delivered: DeliveredPacket,
        sink: &mut dyn DeliverySink,
    ) {
        let target = self.wiring.nodes[node_idx].ports[delivered.packet.output()];
        if delivered.packet.is_padding() {
            // Padding is a node-local artifact (frame fill): the metrics
            // sink counts it at the host its port faces, and it never
            // crosses a link — it has no destination.
            if let PortTarget::Host(host) = target {
                let input = delivered.packet.input();
                delivered.packet.set_ports(input, host);
                sink.deliver(delivered);
            }
            return;
        }
        let handle = delivered.packet.id as u32;
        self.location[handle as usize] = NOT_IN_NODE;
        match target {
            PortTarget::Host(host) => {
                // The body's one read: identity back, the last hop's
                // routing header kept.
                let body = self.store.take(PacketHandle::from_raw(handle));
                debug_assert_eq!(host, body.output(), "packet surfaced at the wrong host");
                let packet = &mut delivered.packet;
                packet.id = body.id;
                packet.set_ports(body.input(), body.output());
                packet.voq_seq = body.voq_seq;
                packet.arrival_slot = body.arrival_slot;
                let pair = body.input() * self.hosts + body.output();
                self.in_flight[pair] -= 1;
                self.delivered += 1;
                if let Some(f) = &mut self.faults {
                    f.note_delivery(pair, delivered.departure_slot);
                }
                sink.deliver(delivered);
            }
            PortTarget::Link(link_idx) => {
                if let Some(f) = &mut self.faults {
                    if !f.link_up[link_idx] {
                        // The node committed this packet to a link that is
                        // down: a typed loss, not a silent drop.
                        f.summary.dropped_dead_link += 1;
                        Self::lose(&mut self.store, &mut self.in_flight, self.hosts, handle);
                        return;
                    }
                }
                self.links[link_idx].ingress.push_back(handle);
                self.active_links.insert(link_idx);
                self.on_links += 1;
            }
        }
    }

    /// One slot of fabric time, in the fixed deterministic phase order:
    /// fault events and parked release (faulted runs only), then wire
    /// arrivals, node steps, wire admissions.
    // lint: hot-path
    fn step_slot(&mut self, slot: u64, sink: &mut dyn DeliverySink) {
        // Phase 0 (faulted runs only): apply due fault events, then try to
        // release parked pairs whose path drained or recovered.
        self.apply_due_faults(slot);
        self.release_parked();
        // Phase 1: packets whose wire latency elapsed enter the far node.
        // A link leaves the active set once this empties it.
        let mut cursor = PortCursor::default();
        while let Some(link_idx) = self.active_links.next_port(&mut cursor) {
            let (to_node, to_port) = {
                let link = &self.links[link_idx];
                (link.to_node, link.to_port)
            };
            while let Some(&(due, handle)) = self.links[link_idx].wire.front() {
                if due > slot {
                    break;
                }
                self.links[link_idx].wire.pop_front();
                self.on_links -= 1;
                if let Some(f) = &mut self.faults {
                    if !f.node_up[to_node] {
                        // The wire delivered into a dead node: typed loss.
                        f.summary.dropped_dead_node += 1;
                        Self::lose(&mut self.store, &mut self.in_flight, self.hosts, handle);
                        continue;
                    }
                }
                let stored = PacketHandle::from_raw(handle);
                let (dst, flow) = (self.store.output(stored), self.store.flow(stored));
                let out = self.wiring.transit_port(to_node, dst);
                self.enqueue_at(to_node, to_port, out, handle, flow, slot);
            }
            let link = &self.links[link_idx];
            if link.wire.is_empty() && link.ingress.is_empty() {
                self.active_links.remove(link_idx);
            }
        }
        // Phase 2: every node switches one slot; classify its deliveries.
        // Down nodes are skipped entirely: every scheme derives its phase
        // from the slot value itself (not from a step count), so a rebuilt
        // switch resumes correctly from any slot after `node-up`.
        let mut scratch = mem::take(&mut self.scratch);
        for node_idx in 0..self.nodes.len() {
            if self.faults.as_ref().is_some_and(|f| !f.node_up[node_idx]) {
                continue;
            }
            debug_assert!(scratch.is_empty());
            self.nodes[node_idx].step(slot, &mut scratch);
            for delivered in scratch.drain(..) {
                self.dispatch(node_idx, delivered, sink);
            }
        }
        self.scratch = scratch;
        // Phase 3: links admit at most one queued packet per `gap` slots.
        // A down link is never active: it was flushed at the event and
        // dispatch keeps it empty while down.
        let mut cursor = PortCursor::default();
        while let Some(link_idx) = self.active_links.next_port(&mut cursor) {
            let link = &mut self.links[link_idx];
            if slot >= link.next_free {
                if let Some(handle) = link.ingress.pop_front() {
                    link.wire.push_back((slot + link.latency, handle));
                    link.next_free = slot + link.gap;
                }
            }
        }
    }

    /// Slots `first..end` with the fabric idle: only fault events and the
    /// nodes' own clocks move.  The events apply at their slots (phase 0)
    /// and every up node takes each event-free stretch as one
    /// [`Switch::step_batch`] — the same steps a slot-by-slot walk would
    /// give it, and since no node holds a cell or padding, none of them
    /// delivers anything whose order across nodes could matter.
    fn idle_jump(&mut self, first: u64, end: u64) {
        let mut slot = first;
        while slot < end {
            self.apply_due_faults(slot);
            let faults = self.faults.as_ref();
            let next_event = faults.and_then(|f| f.schedule.next_slot());
            let until = next_event.map_or(end, |at| at.min(end));
            // `step_batch` counts slots in a u32, so the stretch fits one.
            let count = (until - slot) as u32;
            for (node_idx, node) in self.nodes.iter_mut().enumerate() {
                if faults.is_none_or(|f| f.node_up[node_idx]) {
                    node.step_batch(slot, count, &mut self.scratch);
                }
            }
            debug_assert!(self.scratch.is_empty(), "an idle node delivered");
            slot = until;
        }
    }

    /// True when no phase of [`FabricWorld::step_slot`] can move or deliver
    /// anything: the store holds no packet (so no link does and nothing is
    /// parked) and no up node holds a cell or padding.
    fn is_idle(&self) -> bool {
        self.store.live() == 0
            && self.nodes.iter().enumerate().all(|(node_idx, node)| {
                // A down node was rebuilt empty and takes no steps.
                self.faults.as_ref().is_some_and(|f| !f.node_up[node_idx])
                    || node.stats().total_queued() == 0
            })
    }

    /// Apply every fault event due at `slot` (phase 0a).
    fn apply_due_faults(&mut self, slot: u64) {
        while let Some(event) = self.faults.as_mut().and_then(|f| f.schedule.pop_due(slot)) {
            self.apply_fault_event(event);
        }
    }

    /// Apply one fault event: flip the link/node state, flush in-flight
    /// packets off the failing element as typed losses, and record the
    /// event, waiting on the pairs that lost packets to deliver again.
    fn apply_fault_event(&mut self, event: FaultEvent) {
        let Some(f) = &mut self.faults else { return };
        let hosts = self.hosts;
        f.masks.invalidate();
        f.affected.clear();
        let mut dropped = 0u64;
        match event.kind {
            FaultKind::LinkDown => {
                f.link_up[event.index] = false;
                let link = &mut self.links[event.index];
                let flushed = link.ingress.len() + link.wire.len();
                for handle in link
                    .ingress
                    .drain(..)
                    .chain(link.wire.drain(..).map(|(_, handle)| handle))
                {
                    let pair = Self::lose(&mut self.store, &mut self.in_flight, hosts, handle);
                    f.affected.push(pair);
                }
                self.on_links -= flushed;
                self.active_links.remove(event.index);
                dropped = flushed as u64;
                f.summary.dropped_link_failure += dropped;
            }
            FaultKind::LinkUp => f.link_up[event.index] = true,
            FaultKind::NodeDown => {
                f.node_up[event.index] = false;
                // Everything buffered inside the node is lost; the location
                // tags say exactly what that was.
                let idx = event.index;
                for (handle, at) in self.location.iter_mut().enumerate() {
                    if *at == idx as u32 {
                        *at = NOT_IN_NODE;
                        let handle = handle as u32;
                        let pair = Self::lose(&mut self.store, &mut self.in_flight, hosts, handle);
                        f.affected.push(pair);
                        dropped += 1;
                    }
                }
                f.summary.dropped_node_failure += dropped;
                // Rebuild the node fresh from its derived seed: a rebooted
                // switch keeps no state.  `node-up` just flips the flag
                // back; the rebuilt switch has been idle since.
                let n = self.nodes[idx].n();
                self.nodes[idx] = self
                    .recipe
                    .node(idx, n)
                    .expect("node scheme built once at construction");
            }
            FaultKind::NodeUp => f.node_up[event.index] = true,
        }
        f.affected.sort_unstable();
        f.affected.dedup();
        // Events that cost nothing reconverge trivially at their own slot.
        let reconverged_slot = f.affected.is_empty().then_some(event.slot);
        if reconverged_slot.is_none() {
            f.open.push(f.waiting.len());
        }
        f.waiting.push(f.affected.clone());
        f.summary.events.push(FaultEventReport {
            slot: event.slot,
            kind: event.kind,
            index: event.index,
            dropped,
            affected_pairs: f.affected.len(),
            reconverged_slot,
        });
    }

    /// Phase 0b: re-inject parked packets for every pair whose stripe can
    /// now move (nothing in flight, or the old path recovered), in
    /// ascending pair order.
    fn release_parked(&mut self) {
        // Lend the fault state out for the walk, so a release can borrow
        // the rest of the world.
        let Some(mut f) = self.faults.take_if(|f| !f.parked.is_empty()) else {
            return;
        };
        let mut parked = mem::take(&mut f.parked);
        parked.retain(|&pair, queue| !self.try_release_pair(&mut f, pair, queue));
        f.parked = parked;
        self.faults = Some(f);
    }

    /// Try to drain one pair's parked queue.  Returns `true` when the queue
    /// emptied (the pair leaves the parked set).
    fn try_release_pair(
        &mut self,
        f: &mut FaultState,
        pair: usize,
        queue: &mut VecDeque<u32>,
    ) -> bool {
        let (src, dst) = (pair / self.hosts, pair % self.hosts);
        // Parking is stripe-only, so the pair has a current path.
        let path_dead = self
            .router
            .current_choice(src, dst)
            .is_some_and(|current| !mask_contains(f.live_paths(&self.wiring, src, dst), current));
        if self.in_flight[pair] > 0 && path_dead {
            return false; // still draining onto a dead path
        }
        let (src_node, in_port) = self.wiring.hosts[src];
        while let Some(handle) = queue.pop_front() {
            f.parked_count -= 1;
            if !f.node_up[src_node] {
                // The source node died while the packet was parked.
                self.store.take(PacketHandle::from_raw(handle));
                f.summary.dropped_dead_node += 1;
                continue;
            }
            let mask = f.live_paths(&self.wiring, src, dst);
            let choice = self
                .router
                .choose(src, dst, self.in_flight[pair], Some(mask));
            let out = self.wiring.first_hop_port(src, dst, choice);
            self.in_flight[pair] += 1;
            let stored = PacketHandle::from_raw(handle);
            let (flow, arrival_slot) = (self.store.flow(stored), self.store.arrival_slot(stored));
            self.enqueue_at(src_node, in_port, out, handle, flow, arrival_slot);
        }
        true
    }
}

impl Switch for FabricWorld {
    fn n(&self) -> usize {
        self.hosts
    }

    fn name(&self) -> &str {
        &self.label
    }

    // lint: hot-path
    fn arrive(&mut self, packet: Packet) {
        let src = packet.input();
        let dst = packet.output();
        self.injected += 1;
        let (src_node, in_port) = self.wiring.hosts[src];
        let pair = src * self.hosts + dst;
        let in_flight = self.in_flight[pair];
        if let Some(f) = &mut self.faults {
            if !f.node_up[src_node] {
                // Injection at a dead source node: the host's NIC has
                // nowhere to hand the packet.  Typed loss, never in flight.
                f.summary.dropped_dead_node += 1;
                return;
            }
        }
        let out = if src_node == self.wiring.host_node(dst) {
            // Same-node traffic never leaves the switch: no path choice.
            self.wiring.transit_port(src_node, dst)
        } else {
            let mut live = None;
            if let Some(f) = &mut self.faults {
                // Striped pairs whose current path died must not
                // re-randomize while packets are in flight: park the packet
                // at the source host until the pair drains or the path
                // recovers.  A non-empty parked queue parks unconditionally
                // (FIFO order).
                let queued = f.parked.contains_key(&pair);
                let mask = f.live_paths(&self.wiring, src, dst);
                let path_dead = self
                    .router
                    .current_choice(src, dst)
                    .is_some_and(|current| !mask_contains(mask, current));
                if queued || (in_flight > 0 && path_dead) {
                    let handle = Self::admit(&mut self.store, &mut self.location, &packet);
                    f.parked.entry(pair).or_default().push_back(handle);
                    f.parked_count += 1;
                    return;
                }
                live = Some(mask);
            }
            let choice = self.router.choose(src, dst, in_flight, live);
            self.wiring.first_hop_port(src, dst, choice)
        };
        self.in_flight[pair] += 1;
        let (flow, slot) = (packet.flow, packet.arrival_slot);
        let handle = Self::admit(&mut self.store, &mut self.location, &packet);
        self.enqueue_at(src_node, in_port, out, handle, flow, slot);
    }

    fn step_batch(&mut self, first_slot: u64, count: u32, sink: &mut dyn DeliverySink) {
        let end = first_slot + u64::from(count);
        let mut slot = first_slot;
        while slot < end {
            if self.is_idle() {
                self.idle_jump(slot, end);
                return;
            }
            self.step_slot(slot, sink);
            slot += 1;
        }
    }

    fn stats(&self) -> SwitchStats {
        let mut stats = SwitchStats {
            total_arrivals: self.injected,
            total_departures: self.delivered,
            queued_at_intermediates: self.on_links,
            ..SwitchStats::default()
        };
        for node in &self.nodes {
            let s = node.stats();
            stats.queued_at_inputs += s.queued_at_inputs;
            stats.queued_at_intermediates += s.queued_at_intermediates;
            stats.queued_at_outputs += s.queued_at_outputs;
        }
        if let Some(f) = &self.faults {
            stats.total_dropped = f.summary.total_dropped();
            // Parked packets wait at the source host, i.e. at the fabric's
            // input edge.
            stats.queued_at_inputs += f.parked_count as usize;
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{LinkSpec, RoutingSpec};

    fn fat_tree(routing: RoutingSpec, latency: u64) -> TopologySpec {
        TopologySpec::FatTree2 {
            edges: 2,
            cores: 2,
            hosts_per_edge: 4,
            routing,
            link: LinkSpec { latency, gap: 1 },
        }
    }

    fn drive(world: &mut FabricWorld, slots: std::ops::Range<u64>) -> Vec<DeliveredPacket> {
        let mut out = Vec::new();
        for slot in slots {
            world.step_slot(slot, &mut out);
            assert_consistent(world);
        }
        out
    }

    /// Per-slot bookkeeping canary: the store holds exactly the in-flight
    /// and parked packets, each of them is in one place — a node (by its
    /// location tag), a link or a parked queue — and the running link
    /// counters agree with the queues.  These tests run `oq` nodes, which
    /// never pad, so a node's own occupancy is its tagged packets.
    fn assert_consistent(world: &FabricWorld) {
        let in_flight: u64 = world.in_flight.iter().sum();
        let parked = world.faults.as_ref().map_or(0, |f| f.parked_count);
        assert_eq!(world.store.live() as u64, in_flight + parked);
        assert_eq!(world.location.len(), world.store.capacity());

        let mut on_links = 0;
        for (link_idx, link) in world.links.iter().enumerate() {
            let held = link.ingress.len() + link.wire.len();
            assert_eq!(world.active_links.contains(link_idx), held > 0);
            on_links += held;
        }
        assert_eq!(world.on_links, on_links);
        let mut in_nodes = 0;
        for (node_idx, node) in world.nodes.iter().enumerate() {
            let tagged = world
                .location
                .iter()
                .filter(|&&at| at == node_idx as u32)
                .count();
            assert_eq!(node.stats().total_queued(), tagged);
            in_nodes += tagged;
        }
        assert_eq!((in_nodes + on_links) as u64, in_flight);
        assert_eq!(world.is_idle(), world.store.live() == 0);
        if let Some(f) = &world.faults {
            assert!(f.parked.values().all(|queue| !queue.is_empty()));
            let queued: usize = f.parked.values().map(VecDeque::len).sum();
            assert_eq!(queued as u64, f.parked_count);
            let open: Vec<usize> = (0..f.summary.events.len())
                .filter(|&t| f.summary.events[t].reconverged_slot.is_none())
                .collect();
            assert_eq!(f.open, open);
        }
    }

    #[test]
    fn local_packet_crosses_one_switch() {
        let topo = fat_tree(RoutingSpec::EcmpHash, 1);
        let mut world = FabricWorld::build(&topo, "oq", &SizingSpec::Matrix, 7, 0.5).unwrap();
        assert_eq!(world.n(), 8);
        // Host 1 -> host 2: same edge switch, one hop.
        let mut p = Packet::new(1, 2, 0, 0).with_flow(42);
        p.voq_seq = 9;
        world.arrive(p);
        let out = drive(&mut world, 1..6);
        assert_eq!(out.len(), 1);
        let d = &out[0];
        assert_eq!((d.packet.input(), d.packet.output()), (1, 2));
        assert_eq!(d.packet.voq_seq, 9, "global voq_seq restored");
        assert_eq!(d.packet.flow, 42);
        assert_eq!(d.packet.arrival_slot, 0, "global arrival slot restored");
        assert_eq!(d.departure_slot, 1, "OQ forwards in the next slot");
    }

    #[test]
    fn remote_packet_delay_is_three_hops_plus_two_wires() {
        // src edge (1 slot) + wire (latency) + core (1) + wire (latency) +
        // dst edge (1): with OQ nodes and an empty fabric the end-to-end
        // delay is exactly 3 + 2·latency.
        for latency in [1u64, 3] {
            let topo = fat_tree(RoutingSpec::EcmpHash, latency);
            let mut world = FabricWorld::build(&topo, "oq", &SizingSpec::Matrix, 7, 0.5).unwrap();
            // Host 0 -> host 6 (edge 0 -> edge 1).
            world.arrive(Packet::new(0, 6, 0, 0));
            let out = drive(&mut world, 1..64);
            assert_eq!(out.len(), 1, "latency {latency}");
            assert_eq!(out[0].delay(), 3 + 2 * latency, "latency {latency}");
        }
    }

    #[test]
    fn counters_balance_after_a_drain() {
        let topo = fat_tree(RoutingSpec::RandomPacket, 2);
        let mut world = FabricWorld::build(&topo, "oq", &SizingSpec::Matrix, 3, 0.5).unwrap();
        let mut id = 0;
        for slot in 0..32u64 {
            for src in 0..8usize {
                let dst = (src + 3) % 8;
                let mut p = Packet::new(src, dst, id, slot);
                p.voq_seq = slot;
                world.arrive(p);
                id += 1;
            }
            let mut out = Vec::new();
            world.step_slot(slot, &mut out);
            assert_consistent(&world);
        }
        // Drain well past the last injection; every packet must surface.
        drive(&mut world, 32..2_000);
        let stats = world.stats();
        assert_eq!(stats.total_arrivals, 8 * 32);
        assert_eq!(stats.total_departures, stats.total_arrivals);
        assert_eq!(stats.total_queued(), 0, "fully drained");
        assert!(world.in_flight.iter().all(|&f| f == 0));
    }

    use crate::spec::{FaultEventSpec, FaultSpec};

    fn faulted_world(topo: &TopologySpec, events: Vec<FaultEventSpec>, seed: u64) -> FabricWorld {
        let spec = FaultSpec {
            events,
            random: None,
        };
        let run = RunConfig {
            slots: 4_000,
            warmup_slots: 0,
            drain_slots: 4_000,
        };
        FabricWorld::build(topo, "oq", &SizingSpec::Matrix, seed, 0.5)
            .unwrap()
            .with_faults(&spec, &run)
    }

    fn event(slot: u64, kind: FaultKind, index: usize) -> FaultEventSpec {
        FaultEventSpec { slot, kind, index }
    }

    /// Per-slot conservation canary: every injected packet is delivered,
    /// dropped (typed), in flight, or parked — at every single slot — and
    /// the store holds exactly the last two.
    fn assert_conserved(world: &FabricWorld) {
        assert_consistent(world);
        let f = world.faults.as_ref().expect("faulted world");
        let in_flight: u64 = world.in_flight.iter().sum();
        assert_eq!(
            world.injected,
            world.delivered + f.summary.total_dropped() + in_flight + f.parked_count,
            "conservation violated: injected {} delivered {} dropped {} in_flight {} parked {}",
            world.injected,
            world.delivered,
            f.summary.total_dropped(),
            in_flight,
            f.parked_count
        );
    }

    #[test]
    fn a_link_down_flushes_in_flight_packets_as_typed_losses() {
        let topo = fat_tree(RoutingSpec::EcmpHash, 4);
        // ECMP pins pair (0, 6) to one core; find its uplink and cut it
        // right after injection, while the packet rides the wire.
        let mut world = faulted_world(&topo, vec![], 7);
        world.arrive(Packet::new(0, 6, 0, 0));
        drive(&mut world, 0..3); // through the edge switch, onto the wire
        let live_links: Vec<usize> = (0..world.links.len())
            .filter(|&l| world.links[l].ingress.len() + world.links[l].wire.len() > 0)
            .collect();
        assert_eq!(live_links.len(), 1, "one packet on one uplink");
        let cut = live_links[0];

        let mut world = faulted_world(&topo, vec![event(3, FaultKind::LinkDown, cut)], 7);
        world.arrive(Packet::new(0, 6, 0, 0));
        let out = drive(&mut world, 0..64);
        assert!(out.is_empty(), "the only packet died on the cut link");
        let f = world.faults.as_ref().unwrap();
        assert_eq!(f.summary.dropped_link_failure, 1);
        assert_eq!(world.stats().total_dropped, 1);
        assert_conserved(&world);
        let summary = world.fault_summary().unwrap();
        assert_eq!(summary.events.len(), 1);
        assert_eq!(summary.events[0].dropped, 1);
        assert_eq!(summary.events[0].affected_pairs, 1);
        assert_eq!(
            summary.events[0].reconverged_slot, None,
            "no later delivery for the pair: never reconverged"
        );
    }

    #[test]
    fn a_node_down_drops_buffered_packets_and_blocks_injection() {
        let topo = fat_tree(RoutingSpec::EcmpHash, 2);
        // Node 0 is the edge switch of hosts 0..4.  Kill it with a packet
        // buffered inside, then inject at a dead host.
        let mut world = faulted_world(&topo, vec![event(1, FaultKind::NodeDown, 0)], 7);
        world.arrive(Packet::new(0, 2, 0, 0)); // local pair, buffered in node 0
        world.step_slot(0, &mut Vec::new());
        let out = drive(&mut world, 1..8);
        assert!(out.is_empty());
        let f = world.faults.as_ref().unwrap();
        assert_eq!(
            f.summary.dropped_node_failure, 1,
            "buffered packet lost at node-down"
        );
        // An injection at a host of the dead node is a typed dead-node loss.
        world.arrive(Packet::new(1, 2, 1, 8));
        let f = world.faults.as_ref().unwrap();
        assert_eq!(f.summary.dropped_dead_node, 1);
        assert_conserved(&world);
    }

    #[test]
    fn a_node_down_loses_what_the_node_holds_not_what_already_left_it() {
        let topo = fat_tree(RoutingSpec::EcmpHash, 4);
        let mut world = faulted_world(&topo, vec![event(2, FaultKind::NodeDown, 0)], 7);
        // Remote packets leave edge 0 from slot 1 on and ride its uplinks
        // (4 slots to the cores); two more packets enter the node at slot 1
        // and are still buffered when it dies at slot 2.
        world.arrive(Packet::new(0, 6, 0, 0));
        world.arrive(Packet::new(1, 5, 1, 0));
        drive(&mut world, 0..1);
        world.arrive(Packet::new(2, 7, 2, 1));
        world.arrive(Packet::new(3, 1, 3, 1));
        drive(&mut world, 1..2);
        let left = world.on_links;
        let held = world.nodes[0].stats().total_queued();
        assert!(left >= 1, "a packet is already on an uplink");
        assert!(held >= 2, "the slot-1 arrivals are still inside");
        assert_eq!(left + held, 4);

        let out = drive(&mut world, 2..32);
        assert_eq!(out.len(), left, "what had left the node lands");
        assert!(out
            .iter()
            .all(|d| d.packet.id < 2 && d.packet.output() >= 4));
        let f = world.faults.as_ref().unwrap();
        assert_eq!(
            f.summary.dropped_node_failure, held as u64,
            "what it held is lost"
        );
        assert_eq!(f.summary.total_dropped(), held as u64);
        let report = world.fault_summary().unwrap().events[0];
        assert_eq!((report.dropped, report.affected_pairs), (held as u64, held));
        assert_eq!(
            report.reconverged_slot, None,
            "the losing pairs' hosts hang off the dead node"
        );
        assert!(world.in_flight.iter().all(|&f| f == 0));
        assert_conserved(&world);
    }

    #[test]
    fn packet_ids_are_payload_not_indices() {
        // Ids are whatever the caller says — sparse, huge, unordered; the
        // fabric must neither size anything by them nor confuse them with
        // its own handles.  Each packet comes back as it went in.
        let topo = fat_tree(RoutingSpec::Stripe, 2);
        let mut world = faulted_world(&topo, vec![event(1, FaultKind::LinkDown, 1)], 7);
        let ids = [0, 1 << 40, u64::MAX - 1];
        for (k, &id) in ids.iter().enumerate() {
            let mut p = Packet::new(k, 7 - k, id, 0).with_flow(1_000 + id % 7);
            p.voq_seq = 50 + k as u64;
            world.arrive(p);
        }
        let out = drive(&mut world, 0..64);
        assert_eq!(out.len() + world.stats().total_dropped as usize, 3);
        assert!(!out.is_empty());
        for d in &out {
            let k = ids.iter().position(|&id| id == d.packet.id).unwrap();
            assert_eq!((d.packet.input(), d.packet.output()), (k, 7 - k));
            assert_eq!(d.packet.voq_seq, 50 + k as u64);
            assert_eq!(d.packet.flow, 1_000 + ids[k] % 7);
            assert_eq!(d.packet.arrival_slot, 0);
        }
        assert_eq!(world.store.capacity(), sprinklers_core::store::PAGE_SLOTS);
        assert_conserved(&world);
    }

    #[test]
    fn an_idle_fabric_jumps_between_fault_events_and_stays_in_step() {
        // One world takes the quiet stretch in a single `advance`, its twin
        // slot by slot; a node and a link fail and recover while nothing is
        // resident.  Both must then carry the same traffic the same way.
        let topo = fat_tree(RoutingSpec::Stripe, 2);
        let events = || {
            vec![
                event(100, FaultKind::NodeDown, 2),
                event(150, FaultKind::LinkDown, 3),
                event(300, FaultKind::NodeUp, 2),
                event(1_200, FaultKind::LinkDown, 0),
            ]
        };
        let mut jumped = faulted_world(&topo, events(), 5);
        let mut stepped = faulted_world(&topo, events(), 5);
        let burst = |world: &mut FabricWorld, slot: u64| {
            for src in 0..8usize {
                let mut p = Packet::new(src, (src + 4) % 8, slot * 8 + src as u64, slot);
                p.voq_seq = slot;
                world.arrive(p);
            }
        };
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for start in [0u64, 1_000] {
            burst(&mut jumped, start);
            burst(&mut stepped, start);
            jumped.step_batch(start, 1_000, &mut a);
            for slot in start..start + 1_000 {
                stepped.step_batch(slot, 1, &mut b);
            }
            assert_consistent(&jumped);
            assert_eq!(a, b);
            assert_eq!(jumped.fault_summary(), stepped.fault_summary());
            assert_eq!(jumped.stats(), stepped.stats());
        }
        assert!(jumped.is_idle());
        assert_eq!(jumped.fault_summary().unwrap().events.len(), 4);
        assert_eq!(a.len() as u64 + jumped.stats().total_dropped, 16);
    }

    #[test]
    fn a_recovered_node_carries_traffic_again() {
        let topo = fat_tree(RoutingSpec::EcmpHash, 1);
        let mut world = faulted_world(
            &topo,
            vec![
                event(1, FaultKind::NodeDown, 0),
                event(10, FaultKind::NodeUp, 0),
            ],
            7,
        );
        drive(&mut world, 0..12); // apply down + up with nothing in flight
        world.arrive(Packet::new(1, 2, 0, 12));
        let out = drive(&mut world, 12..20);
        assert_eq!(out.len(), 1, "rebuilt switch forwards again");
        assert_eq!(out[0].packet.output(), 2);
        assert_conserved(&world);
        let summary = world.fault_summary().unwrap();
        assert_eq!(summary.events.len(), 2);
        assert_eq!(
            summary.events[0].reconverged_slot,
            Some(1),
            "nothing was in flight: the down event reconverges trivially"
        );
    }

    #[test]
    fn a_flushed_link_drains_the_pair_immediately() {
        let topo = fat_tree(RoutingSpec::Stripe, 6);
        let mut world = faulted_world(&topo, vec![], 3);
        // Open the stripe for pair (0, 6) and put the packet on its uplink
        // wire, then cut that uplink: the packet is flushed as a typed
        // loss and the pair is fully drained again.
        world.arrive(Packet::new(0, 6, 0, 0));
        let current = world.router.current_choice(0, 6).unwrap();
        drive(&mut world, 0..2); // edge forwards at slot 1, wire admits
        let uplink = world.wiring.link_between(0, 2 + current).unwrap();
        world.apply_fault_event(FaultEvent {
            slot: 2,
            kind: FaultKind::LinkDown,
            index: uplink,
        });
        assert_eq!(world.in_flight[6], 0, "flushed off the cut wire");
        assert_eq!(
            world.faults.as_ref().unwrap().summary.dropped_link_failure,
            1
        );
        assert_conserved(&world);
    }

    #[test]
    fn striped_pairs_park_on_a_dead_path_and_release_after_drain() {
        let topo = fat_tree(RoutingSpec::Stripe, 6);
        let mut world = faulted_world(&topo, vec![], 3);
        // Put pair (0, 6)'s first packet on its uplink wire, then cut the
        // *downlink* of the same path: the packet survives (it has not
        // reached the downlink yet) but the path is now dead.
        world.arrive(Packet::new(0, 6, 0, 0));
        let current = world.router.current_choice(0, 6).unwrap();
        drive(&mut world, 0..3); // on the uplink wire, due at slot 7
        let downlink = world.wiring.link_between(2 + current, 1).unwrap();
        world.apply_fault_event(FaultEvent {
            slot: 3,
            kind: FaultKind::LinkDown,
            index: downlink,
        });
        assert_eq!(world.in_flight[6], 1, "the survivor is still in flight");
        // A new injection for the pair must park: re-randomizing now could
        // overtake the survivor.
        world.arrive(Packet::new(0, 6, 1, 3));
        let f = world.faults.as_ref().unwrap();
        assert_eq!(f.parked_count, 1, "injection parked behind the survivor");
        assert_eq!(f.parked.keys().copied().collect::<Vec<_>>(), vec![6]);
        assert_conserved(&world);
        // The survivor eventually hits the dead downlink and becomes a
        // typed loss; the pair drains, the parked packet releases onto the
        // other (live) core and delivers.
        let out = drive(&mut world, 3..128);
        assert_eq!(out.len(), 1, "only the released packet lands");
        assert_eq!(out[0].packet.output(), 6);
        let f = world.faults.as_ref().unwrap();
        assert_eq!(
            f.summary.dropped_dead_link, 1,
            "survivor died at the dead hop"
        );
        assert_eq!(f.parked_count, 0);
        assert!(f.parked.is_empty());
        assert_eq!(
            world.router.current_choice(0, 6),
            Some(1 - current),
            "the released stripe re-randomized onto the surviving core"
        );
        assert_conserved(&world);
    }

    #[test]
    fn faulted_counters_include_drops_and_parked_traffic() {
        let topo = fat_tree(RoutingSpec::Stripe, 2);
        let mut world = faulted_world(&topo, vec![event(2, FaultKind::NodeDown, 2)], 9);
        let mut id = 0;
        for slot in 0..64u64 {
            for src in 0..8usize {
                let dst = (src + 4) % 8; // all remote: every pair crosses a core
                let mut p = Packet::new(src, dst, id, slot);
                p.voq_seq = slot;
                world.arrive(p);
                id += 1;
            }
            world.step_slot(slot, &mut Vec::new());
            assert_conserved(&world);
        }
        drive(&mut world, 64..4_000);
        assert_conserved(&world);
        let stats = world.stats();
        let f = world.faults.as_ref().unwrap();
        assert_eq!(stats.total_dropped, f.summary.total_dropped());
        assert!(stats.total_dropped > 0, "a dead core must cost packets");
        assert_eq!(
            stats.total_arrivals,
            stats.total_departures + stats.total_dropped,
            "after a full drain: delivered + dropped == injected"
        );
    }
}
