//! TCP hashing / Application Flow Based Routing (AFBR), §2.1 of the paper.
//!
//! Every packet of an application flow is sent through the same intermediate
//! port, chosen by hashing the flow identifier.  Packets of a flow therefore
//! experience FIFO queueing along a single path and can never be reordered —
//! but two heavy flows that hash to the same intermediate port overload it,
//! so the scheme cannot guarantee stability (the motivation for Sprinklers'
//! load-aware, variable-size striping).  Per-VOQ order is *not* preserved:
//! different flows of the same VOQ may take different paths.

use crate::NewSwitchWith;
use sprinklers_core::fifo::FifoGrid;
use sprinklers_core::packet::Packet;
use sprinklers_core::rng;
use sprinklers_core::store::{PacketHandle, PacketStore};
use sprinklers_core::two_stage::{InputPolicy, Served, TwoStage};

/// The TCP-hashing (AFBR) switch.
pub type TcpHashSwitch = TwoStage<TcpHash>;

/// TCP hashing's input stage: every flow pinned to the intermediate port its
/// identifier hashes to.
pub struct TcpHash {
    n: usize,
    seed: u64,
    /// Queue `i·n + l` is input `i`'s FIFO for intermediate port `l`; an
    /// entry is tagged with its output.
    per_path: FifoGrid,
    /// Per input, the running total across its per-path FIFOs, so
    /// servability never rescans the n queues.
    queued: Vec<usize>,
}

impl NewSwitchWith<u64> for TcpHashSwitch {
    /// Create an `n`-port TCP-hashing switch; `seed` perturbs the flow hash.
    fn new(n: usize, seed: u64) -> Self {
        let policy = TcpHash {
            n,
            seed,
            per_path: FifoGrid::new(n * n),
            queued: vec![0; n],
        };
        TwoStage::with_policy(n, policy)
    }
}

impl TcpHash {
    /// The intermediate port a flow is pinned to.
    // lint: hot-path
    #[inline]
    pub fn hash_flow(&self, flow: u64) -> usize {
        // The SplitMix64 avalanche spreads flow ids evenly.
        let x = rng::mix64(flow ^ self.seed.wrapping_mul(rng::GOLDEN_GAMMA));
        (x % self.n as u64) as usize
    }
}

impl InputPolicy for TcpHash {
    const NAME: &'static str = "tcp-hash";

    // lint: hot-path
    #[inline]
    fn arrive(&mut self, packet: &Packet, handle: PacketHandle) -> bool {
        let input = packet.input();
        let path = self.hash_flow(packet.flow);
        self.queued[input] += 1;
        self.per_path
            .push(input * self.n + path, handle, packet.output() as u32);
        true
    }

    /// A servable input may still miss: its packets can be pinned to
    /// per-path FIFOs other than the one the fabric reaches this slot.
    // lint: hot-path
    #[inline]
    fn serve(
        &mut self,
        input: usize,
        connected: usize,
        _slot: u64,
        _store: &mut PacketStore,
    ) -> Served {
        let sent = self.per_path.pop(input * self.n + connected);
        self.queued[input] -= usize::from(sent.is_some());
        Served {
            sent,
            stripe_size: 1,
            minted: 0,
            servable: self.queued[input] > 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprinklers_core::switch::Switch;
    use sprinklers_core::two_stage::CheckInput;

    impl CheckInput for TcpHash {
        fn check_input(&self, input: usize, servable: bool) -> usize {
            let paths = input * self.n..(input + 1) * self.n;
            let held: usize = paths.map(|q| self.per_path.len(q)).sum();
            assert_eq!(
                self.queued[input], held,
                "input {input}: running packet count"
            );
            assert_eq!(servable, held > 0, "input {input} bit");
            held
        }
    }

    fn pkt(input: usize, output: usize, flow: u64, seq: u64) -> Packet {
        Packet::new(input, output, seq, 0)
            .with_flow(flow)
            .with_voq_seq(seq)
    }

    #[test]
    fn hash_is_deterministic_and_in_range() {
        let sw = TcpHashSwitch::new(16, 7);
        for flow in 0..1000u64 {
            let a = sw.policy().hash_flow(flow);
            let b = sw.policy().hash_flow(flow);
            assert_eq!(a, b);
            assert!(a < 16);
        }
    }

    #[test]
    fn hash_spreads_flows_reasonably_evenly() {
        let n = 8;
        let sw = TcpHashSwitch::new(n, 3);
        let mut counts = vec![0usize; n];
        for flow in 0..8000u64 {
            counts[sw.policy().hash_flow(flow)] += 1;
        }
        for (port, &c) in counts.iter().enumerate() {
            assert!(
                c > 700 && c < 1300,
                "port {port} got {c} of 8000 flows — the hash is badly skewed"
            );
        }
    }

    #[test]
    fn packets_of_one_flow_use_one_intermediate_port() {
        let n = 8;
        let mut sw = TcpHashSwitch::new(n, 1);
        for k in 0..16u64 {
            sw.arrive(pkt(2, 5, 42, k));
        }
        let mut delivered = Vec::new();
        for slot in 0..512 {
            sw.step(slot, &mut delivered);
        }
        assert_eq!(delivered.len(), 16);
        let ports: std::collections::HashSet<usize> =
            delivered.iter().map(|d| d.packet.intermediate()).collect();
        assert_eq!(
            ports.len(),
            1,
            "a flow must stick to a single intermediate port"
        );
        // Per-flow order is preserved.
        let seqs: Vec<u64> = delivered.iter().map(|d| d.packet.voq_seq).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(seqs, sorted);
    }

    #[test]
    fn different_flows_can_use_different_paths() {
        let n = 16;
        let sw = TcpHashSwitch::new(n, 9);
        let ports: std::collections::HashSet<usize> =
            (0..64u64).map(|flow| sw.policy().hash_flow(flow)).collect();
        assert!(ports.len() > 1);
    }

    #[test]
    fn conserves_packets() {
        let n = 4;
        let mut sw = TcpHashSwitch::new(n, 5);
        let mut sent = 0u64;
        for slot in 0..200u64 {
            for i in 0..n {
                sw.arrive(pkt(i, (i + 1) % n, slot % 7, slot));
                sent += 1;
            }
            sw.step(slot, &mut sprinklers_core::switch::NullSink);
            sw.assert_consistent();
        }
        for slot in 200..4000u64 {
            sw.step(slot, &mut sprinklers_core::switch::NullSink);
            sw.assert_consistent();
        }
        assert_eq!(sw.stats().total_departures, sent);
    }
}
