//! Virtual Output Queues (VOQs) with stripe assembly and adaptive resizing.
//!
//! Each input port keeps one VOQ per output.  A VOQ accumulates arriving
//! packets in a *ready queue* and releases them in full stripes of its current
//! stripe size (§3.2).  When the sizing mode is adaptive, the VOQ measures its
//! own arrival rate, decides on stripe-size changes with hysteresis, and
//! performs the *clearance phase* of §5: a new stripe size only takes effect
//! once every packet striped under the old size has left the switch, which is
//! what keeps resizing from reintroducing reordering.
//!
//! A [`Voq`] is a 20-byte record — an input port keeps its `N` of them in one
//! flat array — and its ready queue is one queue of the port's
//! [`FifoGrid`], so releasing a stripe moves no packet.  The measurement
//! state adaptive sizing needs lives in a separate [`AdaptiveVoq`], which
//! fixed and matrix-driven switches never allocate.

use crate::config::AdaptiveSizing;
use crate::dyadic::DyadicInterval;
use crate::fifo::FifoGrid;
use crate::rate_estimator::RateEstimator;
use crate::sizing::SizeDecider;
use crate::store::PacketHandle;
use crate::stripe::Stripe;

/// `pending_level` value meaning "no resize pending".
const NO_PENDING: u8 = u8::MAX;

/// `log₂` of a power-of-two stripe size, as the `u8` a [`Voq`] stores.
fn level_of(size: usize) -> u8 {
    assert!(
        size.is_power_of_two(),
        "stripe size {size} must be a power of two"
    );
    u8::try_from(size.trailing_zeros()).expect("a usize has fewer than 256 bits")
}

/// A single Virtual Output Queue at an input port.
#[derive(Debug, Clone)]
pub struct Voq {
    /// The grid queue holding the packets waiting to fill the next stripe,
    /// in arrival order.
    queue: u32,
    ready_len: u32,
    /// Packets that have been released in stripes but have not yet been
    /// reported as delivered at the output.
    in_flight: u32,
    /// Primary intermediate port assigned by the OLS; the stripe interval is
    /// always the dyadic interval of the current size containing this port.
    primary_port: u32,
    /// `log₂` of the current stripe size.
    level: u8,
    /// `log₂` of a stripe size waiting for the clearance phase to finish, or
    /// [`NO_PENDING`].
    pending_level: u8,
    /// `log₂ N`: the largest level a resize may request.
    max_level: u8,
}

impl Voq {
    /// Create a VOQ of an `n`-port switch whose ready queue is grid queue
    /// `queue`, with the given primary intermediate port and initial stripe
    /// size (clamped to `1..=n`).
    pub fn new(n: usize, queue: usize, primary_port: usize, size: usize) -> Self {
        assert!(
            primary_port < n,
            "primary port {primary_port} outside 0..{n}"
        );
        Voq {
            queue: u32::try_from(queue).expect("queue indices fit u32"),
            ready_len: 0,
            in_flight: 0,
            primary_port: u32::try_from(primary_port).expect("port counts fit u32"),
            level: level_of(size.clamp(1, n)),
            pending_level: NO_PENDING,
            max_level: level_of(n),
        }
    }

    /// The VOQ's primary intermediate port.
    pub fn primary_port(&self) -> usize {
        self.primary_port as usize
    }

    /// The VOQ's current stripe size.
    pub fn stripe_size(&self) -> usize {
        1 << self.level
    }

    /// The VOQ's current stripe interval.
    pub fn interval(&self) -> DyadicInterval {
        DyadicInterval::containing(self.primary_port(), self.stripe_size())
    }

    /// Number of packets waiting in the ready queue (not yet in a stripe).
    pub fn ready_len(&self) -> usize {
        self.ready_len as usize
    }

    /// Number of packets released in stripes and not yet delivered.
    pub fn in_flight(&self) -> u64 {
        u64::from(self.in_flight)
    }

    /// Is a stripe-size change waiting for the clearance phase?
    pub fn resize_pending(&self) -> bool {
        self.pending_level != NO_PENDING
    }

    /// Append an arriving (already stored) packet, tagged with its output
    /// port, to the ready queue.  Call [`Voq::release_stripe`] afterwards to
    /// collect what became complete.
    // lint: hot-path
    #[inline]
    pub fn push(&mut self, grid: &mut FifoGrid, handle: PacketHandle, output: u32) {
        grid.push(self.queue as usize, handle, output);
        self.ready_len += 1;
    }

    /// Read what the next [`Voq::push`] will: this record, then the ready
    /// queue's header and tail chunk (see [`FifoGrid::warm`]).
    // lint: hot-path
    #[inline]
    pub fn warm(&self, grid: &FifoGrid) -> u64 {
        u64::from(self.ready_len) ^ grid.warm(self.queue as usize)
    }

    /// Release the next complete stripe at the head of the ready queue, if
    /// there is one: the entries stay in the grid for the scheduler to take.
    /// Call until it returns `None` — an arrival completes at most one
    /// stripe, but a committed shrink can free several at once — handing
    /// each stripe to the scheduler before asking for the next.
    ///
    /// While a resize is pending (clearance phase), no new stripes are formed:
    /// arrivals keep accumulating so that old-size and new-size stripes never
    /// coexist in the switch.
    // lint: hot-path
    #[inline]
    pub fn release_stripe(&mut self) -> Option<Stripe> {
        let size = 1u32 << self.level;
        if self.ready_len < size || self.resize_pending() {
            return None;
        }
        self.ready_len -= size;
        self.in_flight += size;
        Some(Stripe {
            interval: self.interval(),
            source: self.queue as usize,
            drains_source: self.ready_len == 0,
        })
    }

    /// Report that one of this VOQ's packets reached its output port.
    /// Returns true if that ended a clearance phase and the pending resize
    /// committed — the ready backlog may then hold complete stripes.
    // lint: hot-path
    #[inline]
    pub fn packet_delivered(&mut self) -> bool {
        debug_assert!(
            self.in_flight > 0,
            "delivered more packets than were in flight"
        );
        self.in_flight = self.in_flight.saturating_sub(1);
        self.in_flight == 0 && self.commit_resize()
    }

    /// Request a stripe-size change (used by the matrix-driven and fixed
    /// sizing modes when reconfiguring, and by the adaptive mode).
    ///
    /// The change is applied immediately if nothing is in flight, otherwise it
    /// is deferred to the end of the clearance phase.  Returns true if it
    /// committed now.
    pub fn request_resize(&mut self, new_size: usize) -> bool {
        let new_level = level_of(new_size.clamp(1, 1 << self.max_level));
        if new_level == self.level {
            self.pending_level = NO_PENDING;
            return false;
        }
        self.pending_level = new_level;
        self.in_flight == 0 && self.commit_resize()
    }

    fn commit_resize(&mut self) -> bool {
        if !self.resize_pending() {
            return false;
        }
        debug_assert_eq!(self.in_flight, 0);
        self.level = self.pending_level;
        self.pending_level = NO_PENDING;
        true
    }
}

/// The measurement state of one VOQ under adaptive sizing: what it takes to
/// decide the next stripe size, kept apart from the [`Voq`] record so that
/// fixed and matrix-driven switches carry none of it.
#[derive(Debug, Clone)]
pub struct AdaptiveVoq {
    estimator: RateEstimator,
    decider: SizeDecider,
    /// Slots between sizing decisions (the measurement window).
    window: u64,
    /// Slot at which the next sizing decision is due.
    next_check: u64,
}

impl AdaptiveVoq {
    /// Measurement state for a VOQ of an `n`-port switch starting at
    /// `params.initial_size`.
    pub fn new(n: usize, params: &AdaptiveSizing) -> Self {
        AdaptiveVoq {
            estimator: RateEstimator::new(params.window, params.gamma),
            decider: SizeDecider::new(n, params.initial_size.clamp(1, n), params.patience),
            window: params.window,
            next_check: params.window,
        }
    }

    /// Count an arrival at slot `now`.
    pub fn record_arrival(&mut self, now: u64) {
        self.estimator.record_arrival(now);
    }

    /// Advance the sizing clock to `now` (cheap when no window elapsed) and
    /// pass any decided size change on to `voq`.  Returns true if a resize
    /// committed on the spot.
    pub fn tick(&mut self, voq: &mut Voq, now: u64) -> bool {
        if now < self.next_check {
            return false;
        }
        let rate = self.estimator.rate_at(now);
        self.next_check = now - (now % self.window) + self.window;
        match self.decider.observe(rate) {
            Some(size) => voq.request_resize(size),
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Push a packet whose handle doubles as its VOQ sequence number.
    fn push(v: &mut Voq, grid: &mut FifoGrid, seq: u32) {
        v.push(grid, PacketHandle::from_raw(seq), 1);
    }

    /// Take a released stripe's entries off its source queue, oldest first.
    fn seqs(grid: &mut FifoGrid, stripe: &Stripe) -> Vec<u32> {
        (0..stripe.size())
            .map(|_| {
                let (handle, output) = grid.pop(stripe.source).expect("the run is in the grid");
                assert_eq!(output, 1);
                handle.raw()
            })
            .collect()
    }

    #[test]
    fn fixed_voq_releases_full_stripes_only() {
        let mut grid = FifoGrid::new(1);
        let mut v = Voq::new(8, 0, 5, 4);
        assert_eq!(v.interval(), DyadicInterval::new(4, 4));
        for i in 0..3 {
            push(&mut v, &mut grid, i);
            assert!(v.release_stripe().is_none());
        }
        push(&mut v, &mut grid, 3);
        let stripe = v.release_stripe().expect("four packets fill the stripe");
        assert!(v.release_stripe().is_none());
        assert_eq!(stripe.size(), 4);
        assert_eq!(stripe.interval, DyadicInterval::new(4, 4));
        assert!(stripe.drains_source);
        assert_eq!(v.ready_len(), 0);
        assert_eq!(v.in_flight(), 4);
        // The run is the packets in arrival order.
        assert_eq!(seqs(&mut grid, &stripe), vec![0, 1, 2, 3]);
    }

    #[test]
    fn unit_stripe_voq_releases_every_packet() {
        let mut grid = FifoGrid::new(3);
        let mut v = Voq::new(8, 2, 3, 1);
        for i in 0..5 {
            push(&mut v, &mut grid, i);
            let s = v.release_stripe().expect("every packet is a stripe");
            assert_eq!(s.size(), 1);
            assert_eq!(s.interval, DyadicInterval::new(3, 1));
            assert_eq!(s.source, 2);
            assert_eq!(seqs(&mut grid, &s), vec![i]);
            assert!(v.release_stripe().is_none());
        }
    }

    #[test]
    fn resize_with_nothing_in_flight_is_immediate() {
        let mut v = Voq::new(8, 0, 5, 4);
        assert!(v.request_resize(2), "nothing in flight: commits at once");
        assert_eq!(v.stripe_size(), 2);
        assert_eq!(v.interval(), DyadicInterval::new(4, 2));
        assert!(!v.resize_pending());
    }

    #[test]
    fn resize_waits_for_clearance() {
        let mut grid = FifoGrid::new(1);
        let mut v = Voq::new(8, 0, 1, 2);
        // Fill one stripe → 2 packets in flight.
        push(&mut v, &mut grid, 0);
        push(&mut v, &mut grid, 1);
        let first = v.release_stripe().expect("two packets fill the stripe");
        assert_eq!(seqs(&mut grid, &first), vec![0, 1]);
        assert_eq!(v.in_flight(), 2);

        assert!(!v.request_resize(4));
        assert!(v.resize_pending());
        assert_eq!(
            v.stripe_size(),
            2,
            "resize must not apply while packets are in flight"
        );

        // During clearance, arrivals accumulate and no stripes are formed.
        for i in 2..8 {
            push(&mut v, &mut grid, i);
            assert!(v.release_stripe().is_none());
        }
        assert_eq!(v.ready_len(), 6);

        // Deliver the two in-flight packets: resize commits and the backlog is
        // released with the new size.
        assert!(!v.packet_delivered());
        assert!(v.packet_delivered(), "the last delivery commits the resize");
        assert_eq!(v.stripe_size(), 4);
        let released = v
            .release_stripe()
            .expect("6 ready packets form one stripe of 4");
        assert!(v.release_stripe().is_none());
        assert_eq!(released.size(), 4);
        assert!(!released.drains_source, "two packets stay behind");
        assert_eq!(seqs(&mut grid, &released), vec![2, 3, 4, 5]);
        assert_eq!(v.ready_len(), 2);
        assert!(!v.resize_pending());
    }

    #[test]
    fn resize_to_same_size_clears_pending() {
        let mut grid = FifoGrid::new(1);
        let mut v = Voq::new(8, 0, 1, 2);
        push(&mut v, &mut grid, 0);
        push(&mut v, &mut grid, 1);
        assert!(v.release_stripe().is_some());
        v.request_resize(4);
        assert!(v.resize_pending());
        v.request_resize(2);
        assert!(!v.resize_pending());
    }

    #[test]
    fn shrinking_releases_multiple_stripes() {
        let mut grid = FifoGrid::new(1);
        let mut v = Voq::new(8, 0, 0, 8);
        for i in 0..6 {
            push(&mut v, &mut grid, i);
            assert!(v.release_stripe().is_none());
        }
        // With nothing in flight the resize is immediate and the 6 ready
        // packets become 3 stripes of 2, in arrival order.
        assert!(v.request_resize(2));
        assert_eq!(v.stripe_size(), 2);
        let mut order = Vec::new();
        let mut stripes = 0;
        while let Some(s) = v.release_stripe() {
            assert_eq!(s.size(), 2);
            assert_eq!(s.drains_source, stripes == 2, "only the last empties it");
            order.extend(seqs(&mut grid, &s));
            stripes += 1;
        }
        assert_eq!(stripes, 3);
        assert_eq!(order, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(v.ready_len(), 0);
    }

    #[test]
    fn adaptive_voq_grows_under_load() {
        let n = 16;
        // Window of 64 slots, react after 1 confirming window.
        let params = AdaptiveSizing {
            window: 64,
            gamma: 1.0,
            patience: 0,
            initial_size: 1,
        };
        let mut grid = FifoGrid::new(1);
        let mut v = Voq::new(n, 0, 7, params.initial_size);
        let mut sizing = AdaptiveVoq::new(n, &params);
        assert_eq!(v.stripe_size(), 1);
        let mut resizes = 0u32;
        // Offer one packet per slot (rate 1.0) for many windows, delivering
        // everything promptly so clearance never blocks.
        for slot in 0..1024u32 {
            sizing.record_arrival(u64::from(slot));
            push(&mut v, &mut grid, slot);
            resizes += u32::from(sizing.tick(&mut v, u64::from(slot)));
            while let Some(s) = v.release_stripe() {
                for _ in seqs(&mut grid, &s) {
                    resizes += u32::from(v.packet_delivered());
                }
            }
        }
        assert_eq!(
            v.stripe_size(),
            n,
            "a rate-1 VOQ must converge to a full-span stripe (F(1) = N)"
        );
        assert!(resizes >= 1);
    }

    #[test]
    fn adaptive_voq_shrinks_when_load_disappears() {
        let n = 16;
        let params = AdaptiveSizing {
            window: 64,
            gamma: 1.0,
            patience: 0,
            initial_size: 16,
        };
        let mut v = Voq::new(n, 0, 7, params.initial_size);
        let mut sizing = AdaptiveVoq::new(n, &params);
        // No arrivals at all: after a few windows the decider should shrink
        // the stripe to 1 (rate estimate 0).
        for slot in 0..1024u64 {
            sizing.tick(&mut v, slot);
            assert!(v.release_stripe().is_none());
        }
        assert_eq!(v.stripe_size(), 1);
    }

    #[test]
    #[should_panic]
    fn non_power_of_two_resize_is_rejected() {
        let mut v = Voq::new(8, 0, 0, 2);
        v.request_resize(3);
    }

    #[test]
    fn voq_record_stays_small() {
        // N² of these sit in flat per-port arrays; the adaptive measurement
        // state is deliberately not part of the record.
        assert!(std::mem::size_of::<Voq>() <= 20);
    }
}
