//! Node/port wiring of the fabric topologies.
//!
//! A [`Wiring`] turns a validated [`TopologySpec`] into the concrete shape
//! the fabric world executes: one [`NodeDesc`] per switch (its port count
//! and what each port connects to), the directed inter-switch link list in
//! a fixed deterministic order, and the host attachment table.  It also
//! answers the two routing questions every hop needs: which local output
//! port a source-node packet takes for a given path choice, and which local
//! output port a transiting packet takes toward its destination host.
//!
//! Port conventions (a port is both an input and an output of its N×N
//! node):
//!
//! * **Fat-tree (2-level)** — edge switch `e` has ports `0..H` facing its
//!   hosts (`host = e·H + p`) and ports `H..H+C` facing the cores; core
//!   switch `c` has one port per edge (`port e ↔ edge e`).
//! * **Flattened butterfly** — switch `s` has ports `0..H` facing its hosts
//!   and ports `H..H+S-1` meshed to every other switch in ascending switch
//!   order (switch `w` sits at port `H + w` for `w < s`, `H + w - 1`
//!   otherwise).

use crate::spec::TopologySpec;

/// Where one of a node's ports leads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortTarget {
    /// The port faces this global host: packets delivered here leave the
    /// fabric.
    Host(usize),
    /// The port feeds the ingress of this directed inter-switch link.
    Link(usize),
}

/// One directed inter-switch wire: which node (and which of its local
/// ports) the far end attaches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkDesc {
    /// Destination node index.
    pub to_node: usize,
    /// Local port at the destination node the wire feeds.
    pub to_port: usize,
}

/// One switch node: its port map (length = the node's port count).
#[derive(Debug, Clone)]
pub struct NodeDesc {
    /// What each local port connects to.
    pub ports: Vec<PortTarget>,
}

#[derive(Debug, Clone, Copy)]
enum Shape {
    FatTree2 {
        edges: usize,
        cores: usize,
        hosts_per_edge: usize,
    },
    Butterfly {
        switches: usize,
        hosts_per_switch: usize,
    },
}

/// The wired-up shape of a fabric.
#[derive(Debug)]
pub struct Wiring {
    /// Per-node port maps, node index order.
    pub nodes: Vec<NodeDesc>,
    /// Directed links in creation order (ascending source node, then
    /// ascending source port) — the order every per-slot link phase walks.
    pub links: Vec<LinkDesc>,
    /// Per host: the `(node, local port)` it attaches to.
    pub hosts: Vec<(usize, usize)>,
    shape: Shape,
}

impl Wiring {
    /// Wire up a topology.  The spec must already be validated
    /// ([`TopologySpec::validate`]).
    pub fn build(spec: &TopologySpec) -> Wiring {
        match *spec {
            TopologySpec::FatTree2 {
                edges,
                cores,
                hosts_per_edge,
                ..
            } => Self::fat_tree2(edges, cores, hosts_per_edge),
            TopologySpec::Butterfly {
                switches,
                hosts_per_switch,
                ..
            } => Self::butterfly(switches, hosts_per_switch),
        }
    }

    fn fat_tree2(edges: usize, cores: usize, hosts_per_edge: usize) -> Wiring {
        let mut nodes = Vec::with_capacity(edges + cores);
        let mut links = Vec::with_capacity(2 * edges * cores);
        let mut hosts = Vec::with_capacity(edges * hosts_per_edge);
        // Edge switches first (node indices 0..edges).
        for e in 0..edges {
            let mut ports = Vec::with_capacity(hosts_per_edge + cores);
            for p in 0..hosts_per_edge {
                let host = e * hosts_per_edge + p;
                ports.push(PortTarget::Host(host));
                hosts.push((e, p));
            }
            for c in 0..cores {
                // Uplink to core c; the core's port for edge e is e.
                ports.push(PortTarget::Link(links.len()));
                links.push(LinkDesc {
                    to_node: edges + c,
                    to_port: e,
                });
            }
            nodes.push(NodeDesc { ports });
        }
        // Core switches (node indices edges..edges+cores).
        for c in 0..cores {
            let mut ports = Vec::with_capacity(edges);
            for e in 0..edges {
                // Downlink to edge e; the edge's port for core c is H + c.
                ports.push(PortTarget::Link(links.len()));
                links.push(LinkDesc {
                    to_node: e,
                    to_port: hosts_per_edge + c,
                });
            }
            nodes.push(NodeDesc { ports });
        }
        Wiring {
            nodes,
            links,
            hosts,
            shape: Shape::FatTree2 {
                edges,
                cores,
                hosts_per_edge,
            },
        }
    }

    /// Local port at butterfly switch `s` that faces switch `w` (`w != s`).
    fn peer_port(hosts_per_switch: usize, s: usize, w: usize) -> usize {
        debug_assert_ne!(s, w);
        hosts_per_switch + if w < s { w } else { w - 1 }
    }

    fn butterfly(switches: usize, hosts_per_switch: usize) -> Wiring {
        let mut nodes = Vec::with_capacity(switches);
        let mut links = Vec::with_capacity(switches * (switches - 1));
        let mut hosts = Vec::with_capacity(switches * hosts_per_switch);
        for s in 0..switches {
            let mut ports = Vec::with_capacity(hosts_per_switch + switches - 1);
            for p in 0..hosts_per_switch {
                let host = s * hosts_per_switch + p;
                ports.push(PortTarget::Host(host));
                hosts.push((s, p));
            }
            for w in (0..switches).filter(|&w| w != s) {
                ports.push(PortTarget::Link(links.len()));
                links.push(LinkDesc {
                    to_node: w,
                    to_port: Self::peer_port(hosts_per_switch, w, s),
                });
            }
            nodes.push(NodeDesc { ports });
        }
        Wiring {
            nodes,
            links,
            hosts,
            shape: Shape::Butterfly {
                switches,
                hosts_per_switch,
            },
        }
    }

    /// Node a host attaches to.
    pub fn host_node(&self, host: usize) -> usize {
        self.hosts[host].0
    }

    /// Number of path choices the routing strategy picks from: cores for
    /// the fat-tree, intermediate switches for the butterfly.
    pub fn path_choices(&self) -> usize {
        match self.shape {
            Shape::FatTree2 { cores, .. } => cores,
            Shape::Butterfly { switches, .. } => switches,
        }
    }

    /// First-hop local output port at `src`'s node for a packet to a
    /// *remote* `dst`, given the routing strategy's path `choice`.
    ///
    /// For the fat-tree the choice is the core switch.  For the butterfly
    /// the choice is the intermediate switch; choosing the source or
    /// destination switch itself means the direct one-hop path.
    pub fn first_hop_port(&self, src: usize, dst: usize, choice: usize) -> usize {
        match self.shape {
            Shape::FatTree2 { hosts_per_edge, .. } => {
                debug_assert_ne!(src / hosts_per_edge, dst / hosts_per_edge);
                hosts_per_edge + choice
            }
            Shape::Butterfly {
                hosts_per_switch, ..
            } => {
                let s = src / hosts_per_switch;
                let d = dst / hosts_per_switch;
                debug_assert_ne!(s, d);
                let via = if choice == s || choice == d {
                    d
                } else {
                    choice
                };
                Self::peer_port(hosts_per_switch, s, via)
            }
        }
    }

    /// Directed link index from switch `from` to switch `to`, where the two
    /// are directly wired (`None` otherwise).  Link indices follow creation
    /// order: fat-tree uplink `(e, c)` is `e·C + c`, downlink `(c, e)` is
    /// `E·C + c·E + e`; butterfly `s → w` is `s·(S−1) + (w < s ? w : w−1)`.
    pub fn link_between(&self, from: usize, to: usize) -> Option<usize> {
        match self.shape {
            Shape::FatTree2 { edges, cores, .. } => {
                if from < edges && to >= edges && to < edges + cores {
                    Some(from * cores + (to - edges))
                } else if from >= edges && from < edges + cores && to < edges {
                    Some(edges * cores + (from - edges) * edges + to)
                } else {
                    None
                }
            }
            Shape::Butterfly { switches, .. } => {
                if from < switches && to < switches && from != to {
                    Some(from * (switches - 1) + if to < from { to } else { to - 1 })
                } else {
                    None
                }
            }
        }
    }

    /// Whether the remote path `choice` from `src` to `dst` is fully alive
    /// *beyond the source node*: every link and every intermediate/egress
    /// node the packet would traverse is up.  The source node itself is the
    /// injection point and is checked separately by the caller.
    pub fn path_is_live(
        &self,
        src: usize,
        dst: usize,
        choice: usize,
        link_up: &[bool],
        node_up: &[bool],
    ) -> bool {
        match self.shape {
            Shape::FatTree2 {
                edges,
                cores,
                hosts_per_edge,
            } => {
                let src_edge = src / hosts_per_edge;
                let dst_edge = dst / hosts_per_edge;
                debug_assert_ne!(src_edge, dst_edge);
                debug_assert!(choice < cores);
                let core = edges + choice;
                link_up[src_edge * cores + choice]
                    && node_up[core]
                    && link_up[edges * cores + choice * edges + dst_edge]
                    && node_up[dst_edge]
            }
            Shape::Butterfly {
                switches,
                hosts_per_switch,
            } => {
                let s = src / hosts_per_switch;
                let d = dst / hosts_per_switch;
                debug_assert_ne!(s, d);
                let hop = |from: usize, to: usize| {
                    link_up[from * (switches - 1) + if to < from { to } else { to - 1 }]
                };
                let via = if choice == s || choice == d {
                    d
                } else {
                    choice
                };
                if via == d {
                    hop(s, d) && node_up[d]
                } else {
                    hop(s, via) && node_up[via] && hop(via, d) && node_up[d]
                }
            }
        }
    }

    /// Local output port at `node` for a packet destined to host `dst`:
    /// the host port when `dst` attaches here, else the (deterministic)
    /// next hop toward `dst`'s node.
    pub fn transit_port(&self, node: usize, dst: usize) -> usize {
        // The attachment table, not `dst / hosts_per_node`: this runs once
        // per packet per hop.
        let (dst_node, dst_port) = self.hosts[dst];
        if node == dst_node {
            return dst_port;
        }
        match self.shape {
            Shape::FatTree2 { edges, .. } => {
                debug_assert!(node >= edges, "edge transit must be at dst's edge");
                // Core switch: one port per edge, indexed by edge.
                dst_node
            }
            Shape::Butterfly {
                hosts_per_switch, ..
            } => Self::peer_port(hosts_per_switch, node, dst_node),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{LinkSpec, RoutingSpec};

    fn ft(edges: usize, cores: usize, hosts_per_edge: usize) -> Wiring {
        Wiring::build(&TopologySpec::FatTree2 {
            edges,
            cores,
            hosts_per_edge,
            routing: RoutingSpec::EcmpHash,
            link: LinkSpec::default(),
        })
    }

    fn bf(switches: usize, hosts_per_switch: usize) -> Wiring {
        Wiring::build(&TopologySpec::Butterfly {
            switches,
            hosts_per_switch,
            routing: RoutingSpec::EcmpHash,
            link: LinkSpec::default(),
        })
    }

    /// Every link's far end must point back at a port whose target is a
    /// link returning to the source side — i.e. the wiring is a consistent
    /// bidirectional pairing of Link ports.
    fn check_link_consistency(w: &Wiring) {
        for (li, link) in w.links.iter().enumerate() {
            let far = &w.nodes[link.to_node];
            assert!(link.to_port < far.ports.len(), "link {li} overruns node");
            assert!(
                matches!(far.ports[link.to_port], PortTarget::Link(_)),
                "link {li} lands on a non-link port"
            );
        }
        // Every Link port target indexes a real link.
        for (ni, node) in w.nodes.iter().enumerate() {
            for (p, target) in node.ports.iter().enumerate() {
                if let PortTarget::Link(li) = target {
                    assert!(*li < w.links.len(), "node {ni} port {p} dangles");
                }
            }
        }
    }

    #[test]
    fn fat_tree_shape_and_port_maps() {
        let w = ft(2, 4, 8);
        assert_eq!(w.nodes.len(), 6, "2 edges + 4 cores");
        assert_eq!(w.hosts.len(), 16);
        assert_eq!(w.links.len(), 2 * 2 * 4, "one up + one down per (e, c)");
        assert_eq!(w.nodes[0].ports.len(), 12, "edge: 8 hosts + 4 cores");
        assert_eq!(w.nodes[2].ports.len(), 2, "core: one port per edge");
        assert_eq!(w.nodes[0].ports[3], PortTarget::Host(3));
        assert_eq!(w.nodes[1].ports[3], PortTarget::Host(11));
        assert_eq!(w.host_node(11), 1);
        assert_eq!(w.path_choices(), 4);
        check_link_consistency(&w);
    }

    #[test]
    fn fat_tree_routing_ports() {
        let w = ft(2, 4, 8);
        // Remote: host 1 (edge 0) -> host 9 (edge 1) via core 2.
        assert_eq!(w.first_hop_port(1, 9, 2), 8 + 2);
        // At core 2 (node 4), transit toward edge 1.
        assert_eq!(w.transit_port(4, 9), 1);
        // At edge 1, transit to the local host port.
        assert_eq!(w.transit_port(1, 9), 1);
    }

    #[test]
    fn butterfly_shape_and_routing_ports() {
        let w = bf(4, 2);
        assert_eq!(w.nodes.len(), 4);
        assert_eq!(w.hosts.len(), 8);
        assert_eq!(w.links.len(), 4 * 3);
        assert_eq!(w.nodes[0].ports.len(), 2 + 3);
        assert_eq!(w.path_choices(), 4);
        check_link_consistency(&w);

        // Host 0 (switch 0) -> host 7 (switch 3).
        // Intermediate 2: first hop goes to switch 2 (port H + 1 at s=0).
        assert_eq!(w.first_hop_port(0, 7, 2), 2 + 1);
        // Intermediate equal to src or dst switch: direct to switch 3.
        assert_eq!(w.first_hop_port(0, 7, 0), 2 + 2);
        assert_eq!(w.first_hop_port(0, 7, 3), 2 + 2);
        // At switch 2, transit toward switch 3 (port H + 2 since 3 > 2).
        assert_eq!(w.transit_port(2, 7), 2 + 2);
        // At switch 3, deliver to the local host port.
        assert_eq!(w.transit_port(3, 7), 1);
    }

    #[test]
    fn link_between_matches_the_wired_port_targets() {
        for w in [ft(2, 4, 8), bf(4, 2)] {
            // Every Link port's index must agree with the closed-form
            // `link_between` of its (source node, destination node) pair,
            // and every link must be reachable that way.
            let mut seen = vec![false; w.links.len()];
            for (ni, node) in w.nodes.iter().enumerate() {
                for target in &node.ports {
                    if let PortTarget::Link(li) = target {
                        assert_eq!(w.link_between(ni, w.links[*li].to_node), Some(*li));
                        seen[*li] = true;
                    }
                }
            }
            assert!(seen.iter().all(|&s| s), "every link reachable");
        }
        // Unwired pairs have no link.
        let w = ft(2, 4, 8);
        assert_eq!(w.link_between(0, 1), None, "edge-edge is not wired");
        assert_eq!(w.link_between(2, 3), None, "core-core is not wired");
    }

    #[test]
    fn path_is_live_tracks_each_hop() {
        let w = ft(2, 4, 8);
        let mut link_up = vec![true; w.links.len()];
        let mut node_up = vec![true; w.nodes.len()];
        // Host 1 (edge 0) -> host 9 (edge 1) via core 2 (node 4).
        assert!(w.path_is_live(1, 9, 2, &link_up, &node_up));
        let uplink = w.link_between(0, 4).unwrap();
        link_up[uplink] = false;
        assert!(!w.path_is_live(1, 9, 2, &link_up, &node_up));
        assert!(w.path_is_live(1, 9, 3, &link_up, &node_up), "other core ok");
        link_up[uplink] = true;
        node_up[4] = false;
        assert!(!w.path_is_live(1, 9, 2, &link_up, &node_up));
        node_up[4] = true;
        link_up[w.link_between(4, 1).unwrap()] = false;
        assert!(!w.path_is_live(1, 9, 2, &link_up, &node_up));

        let w = bf(4, 2);
        let link_up = vec![true; w.links.len()];
        let mut node_up = vec![true; w.nodes.len()];
        // Host 0 (switch 0) -> host 7 (switch 3) via switch 2: two hops.
        assert!(w.path_is_live(0, 7, 2, &link_up, &node_up));
        node_up[2] = false;
        assert!(!w.path_is_live(0, 7, 2, &link_up, &node_up));
        // Choices equal to src or dst collapse to the direct one-hop path,
        // which does not cross switch 2.
        assert!(w.path_is_live(0, 7, 0, &link_up, &node_up));
        assert!(w.path_is_live(0, 7, 3, &link_up, &node_up));
    }

    #[test]
    fn butterfly_peer_ports_pair_up() {
        // peer_port(s, w) and peer_port(w, s) must address each other's
        // wire: follow every link and check it lands on the reciprocal
        // port.
        let w = bf(5, 1);
        for node in 0..5 {
            for other in (0..5).filter(|&o| o != node) {
                let port = Wiring::peer_port(1, node, other);
                let PortTarget::Link(li) = w.nodes[node].ports[port] else {
                    panic!("peer port is not a link");
                };
                assert_eq!(w.links[li].to_node, other);
                assert_eq!(w.links[li].to_port, Wiring::peer_port(1, other, node));
            }
        }
    }
}
