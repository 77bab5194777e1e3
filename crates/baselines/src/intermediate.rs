//! The simple intermediate-port stage used by the frame-based baselines.
//!
//! Unlike Sprinklers, the baselines do not need Largest-Stripe-First
//! scheduling at the intermediate stage: the baseline load-balanced switch
//! makes no ordering promise at all, and the frame-based schemes (UFS, FOFF,
//! PF) rely on frame alignment or output resequencing instead.  Every
//! intermediate port therefore just keeps one FIFO per output.

use sprinklers_core::packet::Packet;
use std::collections::VecDeque;

/// One intermediate port with per-output FIFO queues.
pub(crate) struct SimpleIntermediate {
    queues: Vec<VecDeque<Packet>>,
    queued: usize,
}

impl SimpleIntermediate {
    /// Create one intermediate port of an `n`-port switch.
    ///
    /// The per-output FIFOs are pre-sized so warm-up never reallocates: a
    /// stable run keeps each queue shallow (the second fabric drains every
    /// output once per frame), so a small capacity covers the usual depth,
    /// and the cap keeps the up-front cost bounded at large N (there are n²
    /// of these queues per switch, so an uncapped 2n would be cubic in
    /// ports).
    pub(crate) fn new(n: usize) -> Self {
        let capacity = (2 * n).min((2048 / n.max(1)).max(4));
        SimpleIntermediate {
            queues: (0..n).map(|_| VecDeque::with_capacity(capacity)).collect(),
            queued: 0,
        }
    }

    /// Accept a packet from the first fabric.
    // lint: hot-path
    #[inline]
    pub(crate) fn receive(&mut self, packet: Packet) {
        debug_assert!(packet.output() < self.queues.len());
        self.queues[packet.output()].push_back(packet);
        self.queued += 1;
    }

    /// Serve the output the second fabric currently connects this port to.
    // lint: hot-path
    #[inline]
    pub(crate) fn dequeue(&mut self, output: usize) -> Option<Packet> {
        let p = self.queues[output].pop_front();
        if p.is_some() {
            self.queued -= 1;
        }
        p
    }

    /// Total packets buffered at this port.
    pub(crate) fn queued_packets(&self) -> usize {
        self.queued
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl SimpleIntermediate {
        /// Brute-force recount of [`Self::queued_packets`].
        pub(crate) fn rescan(&self) -> usize {
            self.queues.iter().map(VecDeque::len).sum()
        }
    }

    fn pkt(output: usize, id: u64) -> Packet {
        Packet::new(0, output, id, 0)
    }

    #[test]
    fn fifo_per_output() {
        let mut port = SimpleIntermediate::new(4);
        port.receive(pkt(1, 10));
        port.receive(pkt(1, 11));
        port.receive(pkt(2, 12));
        assert_eq!(port.queued_packets(), 3);
        assert_eq!(port.dequeue(1).unwrap().id, 10);
        assert_eq!(port.dequeue(2).unwrap().id, 12);
        assert_eq!(port.dequeue(1).unwrap().id, 11);
        assert!(port.dequeue(1).is_none());
        assert_eq!(port.queued_packets(), 0);
    }

    #[test]
    fn empty_output_returns_none() {
        let mut port = SimpleIntermediate::new(4);
        assert!(port.dequeue(0).is_none());
    }
}
