//! Application-flow-structured traffic.
//!
//! The TCP-hashing baseline (§2.1 of the paper) routes every packet of an
//! application flow through the same intermediate port, so evaluating it —
//! and checking that Sprinklers preserves per-flow order, which follows from
//! per-VOQ order — requires traffic in which packets carry flow identifiers.
//!
//! `FlowTraffic` layers a flow structure on top of Bernoulli arrivals: each
//! `(input, output)` pair maintains a current flow; after every packet the
//! flow ends with probability `1/mean_flow_len` and a fresh flow id is drawn.
//! Flow sizes are therefore geometric with the configured mean, a standard
//! heavy-traffic approximation of TCP flow-size distributions.

use super::{draw53, threshold, RowSampler, TrafficGenerator};
use sprinklers_core::matrix::TrafficMatrix;
use sprinklers_core::packet::Packet;
use sprinklers_core::rng::SimRng;

/// Bernoulli arrivals carrying geometric-size application flows.
pub struct FlowTraffic {
    n: usize,
    matrix: TrafficMatrix,
    rows: RowSampler,
    /// Per input: `threshold(load)`; 0 marks an idle input, which draws
    /// nothing.
    arrive: Vec<u64>,
    mean_flow_len: f64,
    /// Current flow id of each (input, output) pair.
    current_flow: Vec<u64>,
    next_flow_id: u64,
    /// The destination draws of the slot being generated (see
    /// `BernoulliTraffic::draws`).
    draws: Vec<u64>,
    /// Per arrival of that slot: whether its flow ends after it.
    flow_ends: Vec<bool>,
    rng: SimRng,
}

impl FlowTraffic {
    /// Flow-structured traffic drawn from an arbitrary rate matrix.
    pub fn from_matrix(matrix: TrafficMatrix, mean_flow_len: f64, seed: u64) -> Self {
        assert!(
            mean_flow_len >= 1.0,
            "mean flow length must be at least 1 packet"
        );
        let n = matrix.n();
        let rows = RowSampler::new(&matrix);
        let arrive = (0..n).map(|i| threshold(rows.load(i))).collect();
        let mut current_flow = vec![0u64; n * n];
        for (k, f) in current_flow.iter_mut().enumerate() {
            *f = k as u64;
        }
        FlowTraffic {
            n,
            matrix,
            rows,
            arrive,
            mean_flow_len,
            next_flow_id: (n * n) as u64,
            current_flow,
            draws: Vec::with_capacity(n),
            flow_ends: Vec::with_capacity(n),
            rng: SimRng::seed_from_u64(seed),
        }
    }

    /// Uniform-destination flow traffic at load `rho` with the given mean flow
    /// length in packets.
    pub fn uniform(n: usize, rho: f64, mean_flow_len: f64, seed: u64) -> Self {
        Self::from_matrix(TrafficMatrix::uniform(n, rho), mean_flow_len, seed)
    }

    /// Mean flow length in packets.
    pub fn mean_flow_len(&self) -> f64 {
        self.mean_flow_len
    }
}

impl TrafficGenerator for FlowTraffic {
    fn n(&self) -> usize {
        self.n
    }

    // lint: hot-path
    fn arrivals_into(&mut self, slot: u64, out: &mut Vec<Packet>) {
        let end_flow = threshold(1.0 / self.mean_flow_len);
        // A local copy keeps the generator state in registers across
        // `out.push` (see `BernoulliTraffic::arrivals_into`).
        // lint: allow(hot-path) — SimRng is four u64 words: the clone is a copy, not a heap allocation
        let mut rng = self.rng.clone();
        let first = out.len();
        self.draws.clear();
        self.flow_ends.clear();
        for (input, &arrive) in self.arrive.iter().enumerate() {
            if arrive != 0 && draw53(&mut rng) < arrive {
                self.draws.push(draw53(&mut rng));
                // End the flow with probability 1/mean_flow_len.
                self.flow_ends.push(draw53(&mut rng) < end_flow);
                out.push(Packet::new(input, 0, 0, slot));
            }
        }
        self.rng = rng;
        let arrivals = &mut out[first..];
        self.rows.resolve(&self.matrix, arrivals, &self.draws);
        // Flow ids go out in input order, which decides who gets each new
        // id.  A slot has at most one arrival per input, so no two of its
        // packets share a VOQ's current flow.
        for (packet, &ends) in arrivals.iter_mut().zip(&self.flow_ends) {
            let key = packet.input() * self.n + packet.output();
            packet.flow = self.current_flow[key];
            if ends {
                self.current_flow[key] = self.next_flow_id;
                self.next_flow_id += 1;
            }
        }
    }

    fn rate_matrix(&self) -> TrafficMatrix {
        self.matrix.clone()
    }

    fn label(&self) -> String {
        format!("flows(mean_len={})", self.mean_flow_len)
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{assert_same_stream, dense_copy};
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn dense_storage_draws_the_same_stream() {
        // Flow ids are handed out after the destinations are resolved, so
        // they follow the destinations too.
        let matrix = TrafficMatrix::hotspot(16, 0.8, 0.5);
        let dense = dense_copy(&matrix);
        let mut a = FlowTraffic::from_matrix(matrix, 6.0, 7);
        let mut b = FlowTraffic::from_matrix(dense, 6.0, 7);
        assert_same_stream(&mut a, &mut b, 2_000);
    }

    #[test]
    fn packets_of_a_voq_share_flow_ids_in_runs() {
        let mut gen = FlowTraffic::uniform(4, 0.9, 10.0, 3);
        let mut per_voq_flows: BTreeMap<(usize, usize), Vec<u64>> = BTreeMap::new();
        for slot in 0..20_000 {
            for p in gen.arrivals(slot) {
                per_voq_flows.entry(p.voq()).or_default().push(p.flow);
            }
        }
        // Flow ids within a VOQ appear in contiguous runs (a flow never
        // resumes after it ended).
        for (_, flows) in per_voq_flows {
            let mut seen_closed = std::collections::BTreeSet::new();
            let mut current = None;
            for f in flows {
                if Some(f) != current {
                    if let Some(c) = current {
                        seen_closed.insert(c);
                    }
                    assert!(!seen_closed.contains(&f), "flow {f} resumed after ending");
                    current = Some(f);
                }
            }
        }
    }

    #[test]
    fn mean_flow_length_is_respected() {
        let mean = 8.0;
        let mut gen = FlowTraffic::uniform(2, 1.0, mean, 11);
        let mut counts: BTreeMap<u64, u64> = BTreeMap::new();
        for slot in 0..100_000 {
            for p in gen.arrivals(slot) {
                *counts.entry(p.flow).or_insert(0) += 1;
            }
        }
        // Exclude the still-open flows (censored) by dropping the largest ids.
        let mut lens: Vec<u64> = counts.values().copied().collect();
        lens.sort_unstable();
        let measured: f64 = lens.iter().map(|&l| l as f64).sum::<f64>() / lens.len() as f64;
        assert!(
            (measured - mean).abs() < 1.5,
            "measured mean flow length {measured} should be ≈ {mean}"
        );
    }

    #[test]
    fn flow_ids_are_distinct_across_voqs() {
        let mut gen = FlowTraffic::uniform(4, 1.0, 5.0, 2);
        let mut flow_owner: BTreeMap<u64, (usize, usize)> = BTreeMap::new();
        for slot in 0..5_000 {
            for p in gen.arrivals(slot) {
                let owner = flow_owner.entry(p.flow).or_insert_with(|| p.voq());
                assert_eq!(*owner, p.voq(), "flow {} spans two VOQs", p.flow);
            }
        }
    }

    #[test]
    #[should_panic]
    fn rejects_sub_packet_flow_length() {
        let _ = FlowTraffic::uniform(4, 0.5, 0.5, 0);
    }
}
