//! A Sprinklers input port: N VOQs feeding a Largest-Stripe-First scheduler.
//!
//! The input port owns one [`Voq`] record per output (which groups packets
//! into stripes) and one LSF scheduler (which decides, whenever the first
//! fabric connects this input to an intermediate port, which queued packet to
//! send).  Both queue handles into the switch's
//! [`PacketStore`](crate::store::PacketStore) in one [`FifoGrid`] — queues
//! `0..N` are the VOQ ready queues, the rest belong to the scheduler — and
//! the port never touches a packet body.
//!
//! The calls that can commit a stripe-size change return whether they did,
//! for the Sprinklers policy's running resize count.

use crate::config::{SizingMode, SprinklersConfig};
use crate::fifo::FifoGrid;
use crate::lsf::{Lsf, Served};
use crate::ols::WeaklyUniformOls;
use crate::packet::Packet;
use crate::sizing::stripe_size;
use crate::store::PacketHandle;
use crate::voq::{AdaptiveVoq, Voq};

/// One Sprinklers input port.
pub struct SprinklersInputPort {
    voqs: Vec<Voq>,
    /// Per-VOQ rate measurement, indexed like `voqs`; empty unless the
    /// sizing mode is adaptive.
    adaptive: Vec<AdaptiveVoq>,
    /// Every queue of this port: VOQ `output`'s ready queue is queue
    /// `output`, the scheduler's queues follow from `n`.
    queues: FifoGrid,
    scheduler: Lsf,
}

impl SprinklersInputPort {
    /// Build input port `port_id` of a switch with the given configuration and
    /// OLS-assigned primary intermediate ports.
    pub fn new(port_id: usize, config: &SprinklersConfig, ols: &WeaklyUniformOls) -> Self {
        let n = config.n;
        let voqs = (0..n)
            .map(|output| {
                let size = match &config.sizing {
                    SizingMode::FromMatrix(matrix) => stripe_size(matrix.rate(port_id, output), n),
                    SizingMode::FixedSize(size) => *size,
                    SizingMode::Adaptive(params) => params.initial_size,
                };
                Voq::new(n, output, ols.primary_port(port_id, output), size)
            })
            .collect();
        let adaptive = match &config.sizing {
            SizingMode::Adaptive(params) => vec![AdaptiveVoq::new(n, params); n],
            _ => Vec::new(),
        };
        SprinklersInputPort {
            voqs,
            adaptive,
            queues: FifoGrid::new(n + Lsf::queue_count(n)),
            scheduler: Lsf::new(n, n),
        }
    }

    /// Accept an arriving packet, already stored under `handle`: the handle
    /// joins its VOQ, and any stripe that becomes complete is immediately
    /// plastered into the scheduler.  Returns whether adaptive sizing
    /// committed a resize on the way.
    // lint: hot-path
    #[inline]
    pub fn arrive(&mut self, packet: &Packet, handle: PacketHandle) -> bool {
        let now = packet.arrival_slot;
        let output = packet.output();
        if let Some(sizing) = self.adaptive.get_mut(output) {
            sizing.record_arrival(now);
        }
        self.voqs[output].push(&mut self.queues, handle, packet.output_raw());
        let resized = self.tick_sizing(output, now);
        self.release_stripes(output);
        resized
    }

    /// Pull into cache what an [`arrive`](Self::arrive) for `output` reads
    /// first: the VOQ record, its ready queue's header, that queue's tail
    /// chunk — three loads, each addressed by the one before.  The switch
    /// calls this for every arrival of a slot before arriving any of them,
    /// so the chains of different packets overlap.
    // lint: hot-path
    #[inline]
    pub fn warm_arrival(&self, output: usize) -> u64 {
        self.voqs[output].warm(&self.queues)
    }

    /// Serve the intermediate port the first fabric currently connects us to:
    /// the handle, output port and stripe level of the packet to send, if
    /// any.  Touches nothing outside this port.
    // lint: hot-path
    #[inline]
    pub fn dequeue(&mut self, intermediate: usize) -> Option<Served> {
        self.scheduler.serve(&mut self.queues, intermediate)
    }

    /// Periodic maintenance: gives one VOQ per call the chance to re-evaluate
    /// its adaptive stripe size even when it has no arrivals (so idle VOQs can
    /// shrink).  Calling this once per slot visits every VOQ once per frame.
    /// Returns whether a resize committed.
    ///
    /// Only adaptive sizing needs this: with fixed or matrix-driven sizing
    /// there is no sizing clock, and complete stripes are always collected at
    /// the call that completed them, so the switch skips the whole pass for
    /// non-adaptive configurations.
    pub fn maintain(&mut self, slot: u64) -> bool {
        let idx = (slot % self.voqs.len() as u64) as usize;
        let resized = self.tick_sizing(idx, slot);
        self.release_stripes(idx);
        resized
    }

    /// Notification that one of this port's packets reached output `output`.
    /// Returns whether that ended a clearance phase and committed a resize,
    /// which may release stripes that were held back.
    // lint: hot-path
    #[inline]
    pub fn packet_delivered(&mut self, output: usize) -> bool {
        let resized = self.voqs[output].packet_delivered();
        if resized {
            self.release_stripes(output);
        }
        resized
    }

    /// Request a stripe-size change for one VOQ (the reconfiguration path);
    /// returns whether it committed at once.
    ///
    /// If the resize commits immediately (nothing in flight), any stripes the
    /// VOQ's ready backlog can already fill are released right here — so no
    /// deferred stripe-collection work is left for the per-slot maintenance
    /// pass, which non-adaptive configurations skip entirely.
    pub fn request_resize(&mut self, output: usize, size: usize) -> bool {
        let resized = self.voqs[output].request_resize(size);
        self.release_stripes(output);
        resized
    }

    /// Packets queued at this port (scheduler plus VOQ ready queues), by an
    /// O(N) scan: the kernel keeps the running count, and checks it against
    /// this.
    pub fn queued_packets(&self) -> usize {
        self.scheduler.queued_packets() + self.voqs.iter().map(Voq::ready_len).sum::<usize>()
    }

    /// True if the scheduler holds at least one servable packet — the
    /// criterion for the switch's input-occupancy bitset.  Packets still
    /// accumulating in VOQ ready queues don't count: the first fabric can
    /// only serve plastered stripes, so a port with a bare ready backlog is a
    /// provable no-op to probe.
    #[inline]
    pub fn has_servable(&self) -> bool {
        !self.scheduler.is_empty()
    }

    /// Access a VOQ (used by tests and the switch for inspection).  Mutation
    /// goes through [`Self::request_resize`] so stripe plastering stays in
    /// sync.
    pub fn voq(&self, output: usize) -> &Voq {
        &self.voqs[output]
    }

    /// Advance one VOQ's adaptive sizing clock (nothing to do, and nothing
    /// allocated, for fixed and matrix-driven sizing); returns whether a
    /// resize committed.
    #[inline]
    fn tick_sizing(&mut self, output: usize, now: u64) -> bool {
        match self.adaptive.get_mut(output) {
            Some(sizing) => sizing.tick(&mut self.voqs[output], now),
            None => false,
        }
    }

    /// Plaster every stripe VOQ `output` can release into the scheduler.
    // lint: hot-path
    #[inline]
    fn release_stripes(&mut self, output: usize) {
        while let Some(stripe) = self.voqs[output].release_stripe() {
            self.scheduler.insert(&mut self.queues, stripe);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AdaptiveSizing;
    use crate::store::PacketStore;

    impl SprinklersInputPort {
        /// Every VOQ gets the same fixed stripe size and the primary ports
        /// come from the cyclic OLS.
        fn with_fixed_size(port_id: usize, n: usize, size: usize) -> Self {
            let config = SprinklersConfig::new(n).with_sizing(SizingMode::FixedSize(size));
            Self::new(port_id, &config, &WeaklyUniformOls::cyclic(n))
        }

        /// Store `packet` and arrive it.
        fn store_and_arrive(&mut self, store: &mut PacketStore, packet: Packet) -> bool {
            let handle = store.insert(&packet);
            self.arrive(&packet, handle)
        }

        /// Packets queued in the scheduler destined to a given intermediate
        /// port (walks the scheduler's queues).
        fn queued_for_intermediate(&self, intermediate: usize) -> usize {
            self.scheduler.queued_in_row(&self.queues, intermediate)
        }
    }

    fn pkt(input: usize, output: usize, seq: u64, slot: u64) -> Packet {
        Packet::new(input, output, seq, slot).with_voq_seq(seq)
    }

    #[test]
    fn packets_flow_through_voq_into_scheduler() {
        let mut store = PacketStore::new();
        let mut port = SprinklersInputPort::with_fixed_size(0, 8, 2);
        port.store_and_arrive(&mut store, pkt(0, 3, 0, 0));
        assert_eq!(
            port.queued_packets(),
            1,
            "one packet waiting in the VOQ ready queue"
        );
        port.store_and_arrive(&mut store, pkt(0, 3, 1, 1));
        assert_eq!(port.queued_packets(), 2);
        assert!(port.has_servable(), "stripe formed and plastered");
        assert_eq!(store.live(), 2);
        // With the cyclic OLS, VOQ (0, 3) has primary port 3 and stripe size 2,
        // so its interval is [2, 4).
        assert_eq!(port.queued_for_intermediate(2), 1);
        assert_eq!(port.queued_for_intermediate(3), 1);
        // The scheduler serves the stripe starting at row 2, in VOQ
        // order, tagged with output 3 and level 1.
        assert!(port.dequeue(1).is_none());
        let (first, output, level) = port.dequeue(2).unwrap();
        assert_eq!((store.take(first).voq_seq, output, level), (0, 3, 1));
        let (second, output, level) = port.dequeue(3).unwrap();
        assert_eq!((store.take(second).voq_seq, output, level), (1, 3, 1));
        assert_eq!(port.queued_packets(), 0);
    }

    #[test]
    fn delivery_notification_reaches_the_voq() {
        let mut store = PacketStore::new();
        let mut port = SprinklersInputPort::with_fixed_size(0, 8, 1);
        port.store_and_arrive(&mut store, pkt(0, 5, 0, 0));
        assert_eq!(port.voq(5).in_flight(), 1);
        let (_, output, _) = port.dequeue(5).unwrap();
        assert_eq!(output, 5);
        assert!(!port.packet_delivered(5), "no resize was pending");
        assert_eq!(port.voq(5).in_flight(), 0);
    }

    #[test]
    fn maintain_visits_voqs_round_robin() {
        // An adaptive port with zero traffic must shrink all its VOQs back to
        // size 1 eventually purely through maintenance calls.
        let config = SprinklersConfig::new(8).with_sizing(SizingMode::Adaptive(AdaptiveSizing {
            window: 16,
            gamma: 1.0,
            patience: 0,
            initial_size: 8,
        }));
        let ols = WeaklyUniformOls::cyclic(8);
        let mut port = SprinklersInputPort::new(0, &config, &ols);
        let resizes = (0..1024u64).filter(|&slot| port.maintain(slot)).count();
        for output in 0..8 {
            assert_eq!(
                port.voq(output).stripe_size(),
                1,
                "idle VOQ {output} should shrink"
            );
        }
        assert!(resizes >= 8);
    }
}
