//! A Sprinklers input port: N VOQs feeding a Largest-Stripe-First scheduler.
//!
//! The input port owns one [`Voq`] record per output (which groups packets
//! into stripes) and one LSF scheduler (which decides, whenever the first
//! fabric connects this input to an intermediate port, which queued packet to
//! send).  Both queue handles into the switch's [`PacketStore`] in one
//! [`FifoGrid`] — queues `0..N` are the VOQ ready queues, the rest belong to
//! the scheduler — and the port never touches a packet body after storing it.

use crate::config::{InputDiscipline, SizingMode, SprinklersConfig};
use crate::fifo::FifoGrid;
use crate::lsf::{Lsf, Served};
use crate::ols::WeaklyUniformOls;
use crate::packet::Packet;
use crate::sizing::stripe_size;
use crate::store::PacketStore;
use crate::voq::{AdaptiveVoq, Voq};

/// One Sprinklers input port.
pub struct SprinklersInputPort {
    port_id: usize,
    n: usize,
    voqs: Vec<Voq>,
    /// Per-VOQ rate measurement, indexed like `voqs`; empty unless the
    /// sizing mode is adaptive.
    adaptive: Vec<AdaptiveVoq>,
    /// Every queue of this port: VOQ `output`'s ready queue is queue
    /// `output`, the scheduler's queues follow from `n`.
    queues: FifoGrid,
    scheduler: Lsf,
    /// Stripes released by VOQs, counted for telemetry.
    stripes_formed: u64,
    /// Running count of packets at this port (VOQ ready queues plus the
    /// scheduler), so [`Self::queued_packets`] is O(1) — the engine samples
    /// occupancy at every sampling boundary, and the switch keeps its
    /// port-occupancy bitsets in sync from the same counter.
    queued: usize,
    /// Running count of committed stripe-size changes across this port's
    /// VOQs, so the switch-level total needs no O(N²) rescan.
    resizes: u64,
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
            port_id,
            n,
            voqs,
            adaptive,
            queues: FifoGrid::new(n + Lsf::queue_count(config.input_discipline, n)),
            scheduler: Lsf::new(config.input_discipline, n, n),
            stripes_formed: 0,
            queued: 0,
            resizes: 0,
        }
    }

    /// Convenience constructor used by tests: every VOQ gets the same fixed
    /// stripe size and the primary ports come from the cyclic OLS.
    pub fn with_fixed_size(
        port_id: usize,
        n: usize,
        size: usize,
        discipline: InputDiscipline,
    ) -> Self {
        let config = SprinklersConfig::new(n)
            .with_sizing(SizingMode::FixedSize(size))
            .with_input_discipline(discipline);
        let ols = WeaklyUniformOls::cyclic(n);
        Self::new(port_id, &config, &ols)
    }

    /// This port's index.
    pub fn port_id(&self) -> usize {
        self.port_id
    }

    /// Accept an arriving packet: its body goes into `store`, its handle onto
    /// its VOQ.  Any stripe that becomes complete is immediately plastered
    /// into the scheduler.
    // lint: hot-path
    #[inline]
    pub fn arrive(&mut self, store: &mut PacketStore, packet: Packet) {
        debug_assert_eq!(packet.input(), self.port_id);
        debug_assert!(packet.output() < self.n);
        let now = packet.arrival_slot;
        let output = packet.output();
        let output_tag = packet.output_raw();
        let handle = store.insert(packet);
        self.queued += 1;
        if let Some(sizing) = self.adaptive.get_mut(output) {
            sizing.record_arrival(now);
        }
        self.voqs[output].push(&mut self.queues, handle, output_tag);
        self.tick_sizing(output, now);
        self.release_stripes(output);
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
        let served = self.scheduler.serve(&mut self.queues, intermediate);
        if served.is_some() {
            self.queued -= 1;
        }
        served
    }

    /// Periodic maintenance: gives one VOQ per call the chance to re-evaluate
    /// its adaptive stripe size even when it has no arrivals (so idle VOQs can
    /// shrink).  Calling this once per slot visits every VOQ once per frame.
    ///
    /// Only adaptive sizing needs this: with fixed or matrix-driven sizing
    /// there is no sizing clock, and complete stripes are always collected at
    /// the call that completed them, so the switch skips the whole pass for
    /// non-adaptive configurations.
    pub fn maintain(&mut self, slot: u64) {
        let idx = (slot as usize) % self.n;
        self.tick_sizing(idx, slot);
        self.release_stripes(idx);
    }

    /// Notification that one of this port's packets reached output `output`.
    /// May release stripes that were held back by a pending resize.
    // lint: hot-path
    #[inline]
    pub fn packet_delivered(&mut self, output: usize) {
        if self.voqs[output].packet_delivered() {
            self.resizes += 1;
            self.release_stripes(output);
        }
    }

    /// Request a stripe-size change for one VOQ (the reconfiguration path).
    ///
    /// If the resize commits immediately (nothing in flight), any stripes the
    /// VOQ's ready backlog can already fill are released right here — so no
    /// deferred stripe-collection work is left for the per-slot maintenance
    /// pass, which non-adaptive configurations skip entirely.
    pub fn request_resize(&mut self, output: usize, size: usize) {
        self.resizes += u64::from(self.voqs[output].request_resize(size));
        self.release_stripes(output);
    }

    /// Packets queued at this port (scheduler plus VOQ ready queues), from a
    /// running counter (O(1)).
    pub fn queued_packets(&self) -> usize {
        debug_assert_eq!(
            self.queued,
            self.scheduler.queued_packets() + self.voqs.iter().map(Voq::ready_len).sum::<usize>(),
            "running queued counter desynchronized from a brute-force rescan"
        );
        self.queued
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

    /// Committed stripe-size changes across this port's VOQs (running count).
    #[inline]
    pub fn resizes_committed(&self) -> u64 {
        self.resizes
    }

    /// Packets queued in the scheduler destined to a given intermediate port
    /// (walks the scheduler's queues; for tests and inspection).
    pub fn queued_for_intermediate(&self, intermediate: usize) -> usize {
        self.scheduler.queued_in_row(&self.queues, intermediate)
    }

    /// Number of stripes formed so far.
    pub fn stripes_formed(&self) -> u64 {
        self.stripes_formed
    }

    /// Access a VOQ (used by tests and the switch for inspection).  Mutation
    /// goes through [`Self::request_resize`] so the port's running resize
    /// counter and stripe plastering stay in sync.
    pub fn voq(&self, output: usize) -> &Voq {
        &self.voqs[output]
    }

    /// Advance one VOQ's adaptive sizing clock (nothing to do, and nothing
    /// allocated, for fixed and matrix-driven sizing).
    #[inline]
    fn tick_sizing(&mut self, output: usize, now: u64) {
        if let Some(sizing) = self.adaptive.get_mut(output) {
            self.resizes += u64::from(sizing.tick(&mut self.voqs[output], now));
        }
    }

    /// Plaster every stripe VOQ `output` can release into the scheduler.
    // lint: hot-path
    #[inline]
    fn release_stripes(&mut self, output: usize) {
        while let Some(stripe) = self.voqs[output].release_stripe() {
            self.stripes_formed += 1;
            self.scheduler.insert(&mut self.queues, stripe);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AdaptiveSizing;

    fn pkt(input: usize, output: usize, seq: u64, slot: u64) -> Packet {
        Packet::new(input, output, seq, slot).with_voq_seq(seq)
    }

    #[test]
    fn packets_flow_through_voq_into_scheduler() {
        let mut store = PacketStore::new();
        let mut port = SprinklersInputPort::with_fixed_size(0, 8, 2, InputDiscipline::StripeAtomic);
        port.arrive(&mut store, pkt(0, 3, 0, 0));
        assert_eq!(
            port.queued_packets(),
            1,
            "one packet waiting in the VOQ ready queue"
        );
        port.arrive(&mut store, pkt(0, 3, 1, 1));
        assert_eq!(port.queued_packets(), 2, "stripe formed and plastered");
        assert_eq!(port.stripes_formed(), 1);
        assert_eq!(store.live(), 2);
        // With the cyclic OLS, VOQ (0, 3) has primary port 3 and stripe size 2,
        // so its interval is [2, 4).
        assert_eq!(port.queued_for_intermediate(2), 1);
        assert_eq!(port.queued_for_intermediate(3), 1);
        // The atomic scheduler serves the stripe starting at row 2, in VOQ
        // order, tagged with output 3 and level 1.
        assert!(port.dequeue(1).is_none());
        let (first, output, level) = port.dequeue(2).unwrap();
        assert_eq!((store.get(first).voq_seq, output, level), (0, 3, 1));
        let (second, output, level) = port.dequeue(3).unwrap();
        assert_eq!((store.get(second).voq_seq, output, level), (1, 3, 1));
        assert_eq!(port.queued_packets(), 0);
    }

    #[test]
    fn row_scan_port_serves_any_covered_row() {
        let mut store = PacketStore::new();
        let mut port = SprinklersInputPort::with_fixed_size(0, 8, 2, InputDiscipline::RowScan);
        port.arrive(&mut store, pkt(0, 3, 0, 0));
        port.arrive(&mut store, pkt(0, 3, 1, 0));
        // Row-scan can serve row 3 before row 2: that is the stripe's second
        // packet.
        let (handle, ..) = port.dequeue(3).unwrap();
        assert_eq!(store.get(handle).voq_seq, 1);
    }

    #[test]
    fn delivery_notification_reaches_the_voq() {
        let mut store = PacketStore::new();
        let mut port = SprinklersInputPort::with_fixed_size(0, 8, 1, InputDiscipline::StripeAtomic);
        port.arrive(&mut store, pkt(0, 5, 0, 0));
        assert_eq!(port.voq(5).in_flight(), 1);
        let (_, output, _) = port.dequeue(5).unwrap();
        assert_eq!(output, 5);
        port.packet_delivered(5);
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
        for slot in 0..1024u64 {
            port.maintain(slot);
        }
        for output in 0..8 {
            assert_eq!(
                port.voq(output).stripe_size(),
                1,
                "idle VOQ {output} should shrink"
            );
        }
        assert!(port.resizes_committed() >= 8);
    }
}
