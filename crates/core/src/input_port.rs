//! A Sprinklers input port: N VOQs feeding a Largest-Stripe-First scheduler.
//!
//! The input port owns its [`Voqs`] (which group packets into stripes) and
//! one LSF scheduler (which decides, whenever the first fabric connects this
//! input to an intermediate port, which queued packet to send).  It owns no
//! queue storage: every input of a switch queues its packets through one
//! [`FifoGrid`], which the Sprinklers policy keeps and passes to each call.
//! Port `i`'s scheduler numbers grid queues `i·(2N − 1) .. (i + 1)·(2N − 1)`,
//! and each VOQ's ready queue keeps its ends in the VOQ's record and its
//! entries in the grid's one chunk pool.  A waiting packet is held by value
//! in its entry; the port writes its body into the switch's
//! [`PacketStore`] only when the scheduler sends it, and a packet that
//! cannot be held by value when it arrives.
//!
//! A VOQ's primary intermediate port is not stored: the port derives it
//! from the OLS, which the Sprinklers policy keeps once for every port,
//! when the VOQ releases a stripe.  The calls that can release one take the
//! OLS for that; those that can commit a stripe-size change return whether
//! they did, for the Sprinklers policy's running resize count.  Under
//! adaptive sizing the policy also keeps the switch's one [`AdaptiveRule`],
//! which the calls that measure a VOQ take.

use crate::fifo::FifoGrid;
use crate::lsf::{Lsf, Served};
use crate::ols::WeaklyUniformOls;
use crate::packet::Packet;
use crate::store::{PacketHandle, PacketStore};
use crate::voq::{AdaptiveRule, AdaptiveVoq, StartLevels, Voqs};

/// One Sprinklers input port.
pub struct SprinklersInputPort {
    /// This port's index: its row of the OLS.
    id: usize,
    voqs: Voqs,
    /// Per-VOQ rate measurement, indexed by output; empty unless the sizing
    /// mode is adaptive.
    adaptive: Vec<AdaptiveVoq>,
    scheduler: Lsf,
}

impl SprinklersInputPort {
    /// Build input port `id` of an `n`-port switch whose VOQs start at the
    /// levels of `start`; `adaptive` gives every VOQ a rate measurement.
    /// Its scheduler takes grid queues from `id · Lsf::queue_count(n)`, so
    /// the grid the switch's inputs share holds `n · Lsf::queue_count(n)`.
    /// Writes no VOQ record: the work is O(1) plus zeroed tables (and O(N)
    /// for adaptive measurement state).
    pub fn new(id: usize, n: usize, start: StartLevels, adaptive: Option<&AdaptiveRule>) -> Self {
        SprinklersInputPort {
            id,
            voqs: Voqs::new(n, start),
            adaptive: adaptive.map_or_else(Vec::new, |rule| vec![AdaptiveVoq::new(rule); n]),
            scheduler: Lsf::new(n, id * Lsf::queue_count(n)),
        }
    }

    /// Start VOQ `output`, which has seen no packet, at stripe size `size`
    /// instead of its start level.
    pub fn start_at(&mut self, output: usize, size: usize) {
        self.voqs.start_at(output, size);
    }

    /// Accept an arriving packet: it joins its VOQ — by value, or under the
    /// handle `store` stores it under (see [`Voqs::push`]) — and any stripe
    /// that becomes complete is immediately plastered into the scheduler.
    /// `adaptive` is the switch's rule, if it sizes adaptively.  Returns
    /// whether adaptive sizing committed a resize on the way.
    // lint: hot-path
    #[inline]
    pub fn arrive(
        &mut self,
        grid: &mut FifoGrid,
        packet: &Packet,
        store: impl FnOnce() -> PacketHandle,
        ols: &WeaklyUniformOls,
        adaptive: Option<&AdaptiveRule>,
    ) -> bool {
        let now = packet.arrival_slot;
        let output = packet.output();
        self.voqs.push(grid, output, packet, store);
        let resized = match adaptive {
            Some(rule) => {
                if let Some(sizing) = self.adaptive.get_mut(output) {
                    sizing.record_arrival(now, rule);
                }
                self.tick_sizing(output, now, rule)
            }
            None => false,
        };
        self.release_stripes(grid, output, ols);
        resized
    }

    /// Pull into cache what an [`arrive`](Self::arrive) for `output` reads
    /// first: the VOQ's record, then its ready queue's tail chunk — two
    /// loads, the second addressed by the first.  The switch calls this for
    /// every arrival of a slot before arriving any of them, so the chains of
    /// different packets overlap.
    // lint: hot-path
    #[inline]
    pub fn warm_arrival(&self, grid: &FifoGrid, output: usize) -> u64 {
        self.voqs.warm(grid, output)
    }

    /// Serve the intermediate port the first fabric currently connects us to:
    /// the handle, output port and stripe level of the packet to send, if
    /// any.  Touches nothing outside this port's queues but the body it
    /// writes into `store`.
    // lint: hot-path
    #[inline]
    pub fn dequeue(
        &mut self,
        grid: &mut FifoGrid,
        store: &mut PacketStore,
        intermediate: usize,
    ) -> Option<Served> {
        self.scheduler.serve(grid, store, self.id, intermediate)
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
    pub fn maintain(
        &mut self,
        grid: &mut FifoGrid,
        slot: u64,
        ols: &WeaklyUniformOls,
        adaptive: &AdaptiveRule,
    ) -> bool {
        let idx = (slot % self.voqs.outputs() as u64) as usize;
        let resized = self.tick_sizing(idx, slot, adaptive);
        self.release_stripes(grid, idx, ols);
        resized
    }

    /// Notification that one of this port's packets reached output `output`.
    /// Returns whether that ended a clearance phase and committed a resize,
    /// which may release stripes that were held back.
    // lint: hot-path
    #[inline]
    pub fn packet_delivered(
        &mut self,
        grid: &mut FifoGrid,
        output: usize,
        ols: &WeaklyUniformOls,
    ) -> bool {
        let resized = self.voqs.packet_delivered(output);
        if resized {
            self.release_stripes(grid, output, ols);
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
    pub fn request_resize(
        &mut self,
        grid: &mut FifoGrid,
        output: usize,
        size: usize,
        ols: &WeaklyUniformOls,
    ) -> bool {
        let resized = self.voqs.request_resize(output, size);
        self.release_stripes(grid, output, ols);
        resized
    }

    /// Packets queued at this port (scheduler plus VOQ ready queues), by an
    /// O(N) scan: the kernel keeps the running count, and checks it against
    /// this.
    pub fn queued_packets(&self) -> usize {
        self.scheduler.queued_packets() + self.voqs.ready_total() as usize
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

    /// The port's VOQs (used by tests and the switch for inspection).
    /// Mutation goes through [`Self::request_resize`] so stripe plastering
    /// stays in sync.
    pub fn voqs(&self) -> &Voqs {
        &self.voqs
    }

    /// The primary intermediate port of VOQ `output`, from the OLS.
    #[inline]
    pub fn primary_port(&self, output: usize, ols: &WeaklyUniformOls) -> usize {
        ols.primary_port(self.id, output)
    }

    /// Advance one VOQ's adaptive sizing clock; returns whether a resize
    /// committed.
    #[inline]
    fn tick_sizing(&mut self, output: usize, now: u64, rule: &AdaptiveRule) -> bool {
        match self
            .adaptive
            .get_mut(output)
            .and_then(|s| s.tick(now, rule))
        {
            Some(size) => self.voqs.request_resize(output, size),
            None => false,
        }
    }

    /// Plaster every stripe VOQ `output` can release into the scheduler.
    // lint: hot-path
    #[inline]
    fn release_stripes(&mut self, grid: &mut FifoGrid, output: usize, ols: &WeaklyUniformOls) {
        let id = self.id;
        // Every Sprinklers port count is at most 2^15 (`Voqs::new`).
        let tag = u32::try_from(output).unwrap_or(u32::MAX);
        while let Some(stripe) = self
            .voqs
            .release_stripe(grid, output, || ols.primary_port(id, output))
        {
            self.scheduler
                .insert(grid, self.voqs.ready_queue(output), stripe, tag);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AdaptiveSizing;
    use crate::fabric::first_fabric_at;
    use crate::voq::MARKED;

    impl SprinklersInputPort {
        /// Every VOQ gets the same fixed stripe size.
        fn with_fixed_size(port_id: usize, n: usize, size: usize) -> Self {
            Self::new(port_id, n, StartLevels::uniform(size), None)
        }

        /// Arrive `packet`, stored in `store` if it cannot be held by
        /// value; the primary ports come from the cyclic OLS.
        fn store_and_arrive(
            &mut self,
            grid: &mut FifoGrid,
            store: &mut PacketStore,
            packet: Packet,
        ) -> bool {
            let ols = WeaklyUniformOls::cyclic(self.voqs.outputs());
            self.arrive(grid, &packet, || store.insert(&packet), &ols, None)
        }

        /// Packets the port holds by value (walks its queues).
        pub(crate) fn held_by_value(&self, grid: &FifoGrid) -> usize {
            let ready = (0..self.voqs.outputs())
                .flat_map(|output| grid.entries_at(self.voqs.ready_queue_ends(output)));
            let ready = ready.filter(|[_, tag]| tag & MARKED == 0).count();
            ready + self.scheduler.held_by_value(grid)
        }

        /// Packets queued in the scheduler destined to a given intermediate
        /// port (walks the scheduler's queues).
        fn queued_for_intermediate(&self, grid: &FifoGrid, intermediate: usize) -> usize {
            self.scheduler.queued_in_row(grid, intermediate)
        }
    }

    /// The grid `ports` inputs of an `n`-port switch share.
    fn grid_for(n: usize, ports: usize) -> FifoGrid {
        FifoGrid::new(ports * Lsf::queue_count(n))
    }

    fn pkt(input: usize, output: usize, seq: u64, slot: u64) -> Packet {
        Packet::new(input, output, seq, slot).with_voq_seq(seq)
    }

    #[test]
    fn packets_flow_through_voq_into_scheduler() {
        let mut store = PacketStore::new();
        let mut grid = grid_for(8, 1);
        let mut port = SprinklersInputPort::with_fixed_size(0, 8, 2);
        port.store_and_arrive(&mut grid, &mut store, pkt(0, 3, 0, 0));
        assert_eq!(
            port.queued_packets(),
            1,
            "one packet waiting in the VOQ ready queue"
        );
        port.store_and_arrive(&mut grid, &mut store, pkt(0, 3, 1, 1));
        assert_eq!(port.queued_packets(), 2);
        assert!(port.has_servable(), "stripe formed and plastered");
        assert_eq!(
            (store.live(), port.held_by_value(&grid)),
            (0, 2),
            "both wait by value"
        );
        // With the cyclic OLS, VOQ (0, 3) has primary port 3 and stripe size 2,
        // so its interval is [2, 4).
        assert_eq!(port.queued_for_intermediate(&grid, 2), 1);
        assert_eq!(port.queued_for_intermediate(&grid, 3), 1);
        // The scheduler serves the stripe starting at row 2, in VOQ
        // order, tagged with output 3 and level 1.
        assert!(port.dequeue(&mut grid, &mut store, 1).is_none());
        let (first, output, level) = port.dequeue(&mut grid, &mut store, 2).unwrap();
        assert_eq!((store.take(first).voq_seq, output, level), (0, 3, 1));
        let (second, output, level) = port.dequeue(&mut grid, &mut store, 3).unwrap();
        assert_eq!((store.take(second).voq_seq, output, level), (1, 3, 1));
        assert_eq!(port.queued_packets(), 0);
    }

    #[test]
    fn delivery_notification_reaches_the_voq() {
        let mut store = PacketStore::new();
        let mut grid = grid_for(8, 1);
        let mut port = SprinklersInputPort::with_fixed_size(0, 8, 1);
        port.store_and_arrive(&mut grid, &mut store, pkt(0, 5, 0, 0));
        assert_eq!(port.voqs().in_flight(5), 1);
        let (_, output, _) = port.dequeue(&mut grid, &mut store, 5).unwrap();
        assert_eq!(output, 5);
        assert!(
            !port.packet_delivered(&mut grid, 5, &WeaklyUniformOls::cyclic(8)),
            "no resize was pending"
        );
        assert_eq!(port.voqs().in_flight(5), 0);
    }

    #[test]
    fn maintain_visits_voqs_round_robin() {
        // An adaptive port with zero traffic must shrink all its VOQs back to
        // size 1 eventually purely through maintenance calls.
        let params = AdaptiveSizing {
            window: 16,
            gamma: 1.0,
            patience: 0,
            initial_size: 8,
        };
        let ols = WeaklyUniformOls::cyclic(8);
        let rule = AdaptiveRule::new(8, &params);
        let mut grid = grid_for(8, 1);
        let mut port = SprinklersInputPort::new(0, 8, StartLevels::uniform(8), Some(&rule));
        let resizes = (0..1024u64)
            .filter(|&slot| port.maintain(&mut grid, slot, &ols, &rule))
            .count();
        for output in 0..8 {
            assert_eq!(
                port.voqs().stripe_size(output),
                1,
                "idle VOQ {output} should shrink"
            );
        }
        assert!(resizes >= 8);
    }
    /// Every input of an 8-port switch queues into one grid.  With the same
    /// stripe sizes and the same arrival pattern, all ports release their
    /// stripes in the same slots — one of every size, into every level of
    /// the schedule — and a port, served the way the first fabric connects
    /// it, sends only its own packets, in VOQ order: no two ports' LSF
    /// ranges overlap, and all ports' chunks share the one pool.
    #[test]
    fn ports_sharing_a_grid_serve_only_their_own_stripes() {
        const N: usize = 8;
        const ROUNDS: u64 = 16;
        let ols = WeaklyUniformOls::cyclic(N);
        let mut store = PacketStore::new();
        let mut grid = grid_for(N, N);
        let mut ports: Vec<SprinklersInputPort> = (0..N)
            .map(|i| {
                let mut port = SprinklersInputPort::with_fixed_size(i, N, 1);
                // Outputs 0..8 take stripes of 1, 2, 4, 8, 1, 2, 4, 8.
                for output in 0..N {
                    port.start_at(output, 1 << (output % 4));
                }
                port
            })
            .collect();
        let mut next_seq = [[0u64; N]; N];
        let mut served = [0u64; N];
        let slots = ROUNDS * N as u64;
        for slot in 0..slots + 64 * N as u64 {
            if slot < slots {
                let output = (slot % N as u64) as usize;
                for (input, port) in ports.iter_mut().enumerate() {
                    let seq = slot / N as u64;
                    let packet = pkt(input, output, seq, slot);
                    port.arrive(&mut grid, &packet, || store.insert(&packet), &ols, None);
                }
                // Packets released into a schedule, served or not.
                let released: Vec<u64> = ports
                    .iter()
                    .zip(served)
                    .map(|(port, served)| port.scheduler.queued_packets() as u64 + served)
                    .collect();
                assert!(
                    released.iter().all(|&r| r == released[0]),
                    "slot {slot}: ports released {released:?} packets"
                );
            }
            for (input, port) in ports.iter_mut().enumerate() {
                let row = first_fabric_at(input, (slot % N as u64) as usize, N);
                let Some((handle, output, level)) = port.dequeue(&mut grid, &mut store, row) else {
                    continue;
                };
                let packet = store.take(handle);
                assert_eq!(
                    packet.input(),
                    input,
                    "port {input} served another port's packet"
                );
                assert_eq!(packet.output(), output as usize);
                assert_eq!(1 << level, 1 << (output % 4));
                assert_eq!(packet.voq_seq, next_seq[input][packet.output()]);
                next_seq[input][packet.output()] += 1;
                served[input] += 1;
            }
        }
        assert_eq!(served, [ROUNDS * N as u64; N]);
        assert!(ports.iter().all(|p| p.queued_packets() == 0));
        assert_eq!(store.live(), 0);
    }
}
