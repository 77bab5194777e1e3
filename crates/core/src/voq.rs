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
//! A VOQ stores only what changes.  Its output is its index in the port's
//! table, `log₂N` is one value for the whole port, and its primary
//! intermediate port is `(σ_R(i) + σ_C(j)) mod N`, which the caller derives
//! from the OLS only when a stripe is released.  What varies — the ready
//! queue's two ends (its entries live in the pool of the [`FifoGrid`] all
//! inputs of the switch share, so releasing a stripe moves no packet), the
//! ready and in-flight counts, the level and the pending level — is one
//! 16-byte record in [`Voqs`], a table allocated zeroed.  A level is stored
//! relative to the port's [`StartLevels`], the sizing rule's level for each
//! output, so an all-zero record is an empty VOQ at the rule's level and
//! building a port writes no record.  A VOQ whose counts outgrow their bits
//! moves them into a side table of `u64`s.  The measurement state adaptive
//! sizing needs lives in a separate [`AdaptiveVoq`], which fixed and
//! matrix-driven switches never allocate; its constants — window, EWMA
//! weight, patience — are one [`AdaptiveRule`] per switch.
//!
//! A waiting packet has no store body: its entry is `[id, arrival_slot]`,
//! its ports are the VOQ's, its flow 0, and its `voq_seq` its run's *base*
//! (the ready queue's tail word, in the line a push writes anyway) plus its
//! position.  Any other packet — a flow, padding, an id past 32 bits, a slot
//! of 2³¹ or more, a `voq_seq` the run does not expect — is stored at
//! arrival and queued as `[handle, MARKED]`.  A released [`Stripe`] carries
//! its base, so the scheduler can write the bodies as it sends them.

use crate::config::AdaptiveSizing;
use crate::dyadic::DyadicInterval;
use crate::fifo::{Ends, Entry, FifoGrid};
use crate::packet::Packet;
use crate::rate_estimator::{RateEstimator, RateWindow};
use crate::sizing::SizeDecider;
use crate::store::PacketHandle;
use crate::stripe::Stripe;

/// Second word of a ready-queue entry that holds a stored packet's handle in
/// its first; a by-value entry's second word is a slot below this bit.
pub(crate) const MARKED: u32 = 1 << 31;

/// `packet`'s by-value entry `[id, arrival_slot]`, if a run whose next
/// position carries `voq_seq == expected` can rebuild it from that entry.
#[inline]
fn by_value(packet: &Packet, expected: u64) -> Option<Entry> {
    let entry = [
        u32::try_from(packet.id).ok()?,
        u32::try_from(packet.arrival_slot).ok()?,
    ];
    let fits = entry[1] & MARKED == 0 && u32::try_from(expected).is_ok();
    let plain = packet.flow == 0 && !packet.is_padding() && packet.voq_seq == expected;
    (fits && plain).then_some(entry)
}

/// A VOQ's record: its ready queue's ends, then its count word and its
/// flight word.
///
/// * Count word, from the top: [`WIDE`]; the level XOR the port's start
///   level for the output (4 bits); `ready_len` (27 bits) — or, when `WIDE`
///   is set, the index of the VOQ's counts in the side table.
/// * Flight word, from the top: the pending level XOR the level (4 bits;
///   0 = no resize pending, since a pending level always differs from the
///   current one); `in_flight` (28 bits; 0 when `WIDE` is set).
///
/// All zero is an empty VOQ at its start level with no resize pending.
type Record = [[u32; 2]; 2];

/// Count-word bit: the VOQ's counts live in the side table.
const WIDE: u32 = 1 << 31;
/// Shift of the level bits in the count word.
const LEVEL_SHIFT: u32 = 27;
/// A narrow record's `ready_len` bits.  A count of `READY_MASK` itself is
/// full: the next push moves the VOQ to the side table.
const READY_MASK: u32 = (1 << LEVEL_SHIFT) - 1;
/// Shift of the pending bits in the flight word.
const PENDING_SHIFT: u32 = 28;
/// A narrow record's `in_flight` bits.
const FLIGHT_MASK: u32 = (1 << PENDING_SHIFT) - 1;
/// The four bits of a level (or of two levels XORed).
const LEVEL_BITS: u32 = 0xf;
/// The largest level a record holds: a Sprinklers port count is a power of
/// two no larger than [`MAX_PORTS`](crate::packet::MAX_PORTS) = 2¹⁶ − 1, so
/// at most 2¹⁵.
const MAX_LEVEL: u32 = 15;

/// `log₂` of a power-of-two stripe size.
fn level_of(size: usize) -> u32 {
    assert!(
        size.is_power_of_two(),
        "stripe size {size} must be a power of two"
    );
    size.trailing_zeros()
}

/// The stripe size each VOQ of one input port starts at — the sizing
/// rule's, computed once per distinct rate: `hot` for one output, `rest`
/// for every other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StartLevels {
    hot_output: usize,
    hot: u32,
    rest: u32,
}

impl StartLevels {
    /// Every VOQ at stripe size `size`.
    pub fn uniform(size: usize) -> Self {
        Self::one_hot(0, size, size)
    }

    /// VOQ `hot_output` at stripe size `hot`, every other VOQ at `rest`.
    pub fn one_hot(hot_output: usize, hot: usize, rest: usize) -> Self {
        StartLevels {
            hot_output,
            hot: level_of(hot),
            rest: level_of(rest),
        }
    }

    /// The start level of VOQ `output`.
    #[inline]
    fn of(&self, output: usize) -> u32 {
        if output == self.hot_output {
            self.hot
        } else {
            self.rest
        }
    }
}

/// The `N` VOQs of one input port.
#[derive(Debug, Clone)]
pub struct Voqs {
    /// VOQ `output`'s record is `records[output]`.
    records: Vec<Record>,
    /// `[ready_len, in_flight]` of each VOQ whose counts outgrew its record,
    /// in the order they moved.  A VOQ moves at most once, so this holds at
    /// most `N` entries.
    wide: Vec<[u64; 2]>,
    start: StartLevels,
    /// `log₂ N`: the largest level a resize may request.
    max_level: u32,
}

impl Voqs {
    /// `n` empty VOQs, each at its level of `start`.
    pub fn new(n: usize, start: StartLevels) -> Self {
        assert!(
            n.is_power_of_two() && n <= 1 << MAX_LEVEL,
            "a VOQ table has a power-of-two size up to 2^{MAX_LEVEL}, not {n}"
        );
        let max_level = n.trailing_zeros();
        assert!(
            start.hot.max(start.rest) <= max_level,
            "start levels {start:?} above log2({n})"
        );
        Voqs {
            records: vec![[[0; 2]; 2]; n],
            wide: Vec::new(),
            start,
            max_level,
        }
    }

    /// Start VOQ `output`, which has seen no packet, at stripe size `size`
    /// (clamped to `1..=N`) instead of its start level.
    pub fn start_at(&mut self, output: usize, size: usize) {
        let level = level_of(size.clamp(1, 1 << self.max_level));
        let bits = (level ^ self.start.of(output)) << LEVEL_SHIFT;
        let count = &mut self.records[output][1][0];
        debug_assert_eq!(*count & READY_MASK, 0, "VOQ {output} has seen packets");
        // A VOQ left at its start level keeps its record untouched (and its
        // page, if no other VOQ on it moves, uncommitted).
        if *count & (LEVEL_BITS << LEVEL_SHIFT) != bits {
            *count = (*count & !(LEVEL_BITS << LEVEL_SHIFT)) | bits;
        }
    }

    /// `log₂` of VOQ `output`'s current stripe size.
    #[inline]
    fn level(&self, output: usize) -> u32 {
        ((self.records[output][1][0] >> LEVEL_SHIFT) & LEVEL_BITS) ^ self.start.of(output)
    }

    /// VOQ `output`'s current stripe size.
    pub fn stripe_size(&self, output: usize) -> usize {
        1 << self.level(output)
    }

    /// `[ready_len, in_flight]` of VOQ `output`.
    fn counts(&self, output: usize) -> [u64; 2] {
        let [count, flight] = self.records[output][1];
        if count & WIDE == 0 {
            [
                u64::from(count & READY_MASK),
                u64::from(flight & FLIGHT_MASK),
            ]
        } else {
            self.wide[(count & READY_MASK) as usize]
        }
    }

    /// Number of packets waiting in VOQ `output`'s ready queue (not yet in
    /// a stripe).
    pub fn ready_len(&self, output: usize) -> u64 {
        self.counts(output)[0]
    }

    /// Number of VOQ `output`'s packets released in stripes and not yet
    /// delivered.
    pub fn in_flight(&self, output: usize) -> u64 {
        self.counts(output)[1]
    }

    /// The ends of VOQ `output`'s ready queue, for the scheduler to take a
    /// released stripe from.
    #[inline]
    pub fn ready_queue(&mut self, output: usize) -> &mut Ends {
        &mut self.records[output][0]
    }

    /// Number of VOQs, `N`.
    pub fn outputs(&self) -> usize {
        self.records.len()
    }

    /// Packets waiting in every ready queue, by an O(N) scan.
    pub fn ready_total(&self) -> u64 {
        (0..self.outputs()).map(|o| self.ready_len(o)).sum()
    }

    /// Append an arriving packet to VOQ `output`'s ready queue: by value if
    /// it can be, otherwise as the handle `store` stores it under.  An empty
    /// run takes its first packet's `voq_seq` as its base.  Call
    /// [`Voqs::release_stripe`] afterwards to collect what became complete.
    // lint: hot-path
    #[inline]
    pub fn push(
        &mut self,
        grid: &mut FifoGrid,
        output: usize,
        packet: &Packet,
        store: impl FnOnce() -> PacketHandle,
    ) {
        let ready = self.ready_len(output);
        let record = &mut self.records[output];
        let base = grid
            .tail_word(record[0])
            .unwrap_or(u32::try_from(packet.voq_seq).unwrap_or_default());
        let entry =
            by_value(packet, u64::from(base) + ready).unwrap_or_else(|| [store().raw(), MARKED]);
        grid.push_at(&mut record[0], entry, base);
        let count = &mut record[1][0];
        // Below `READY_MASK` only for a narrow record with room left.
        if *count & (WIDE | READY_MASK) < READY_MASK {
            *count += 1;
        } else {
            self.wide_counts(output)[0] += 1;
        }
    }

    /// Read what the next [`Voqs::push`] onto VOQ `output` will: its record,
    /// then its ready queue's tail chunk (see [`FifoGrid::warm_at`]).
    // lint: hot-path
    #[inline]
    pub fn warm(&self, grid: &FifoGrid, output: usize) -> u64 {
        let [ends, [count, _]] = self.records[output];
        u64::from(count) ^ grid.warm_at(ends)
    }

    /// Release the next complete stripe at the head of VOQ `output`'s ready
    /// queue, if there is one: the entries stay in the queue for the
    /// scheduler to take, and the run left behind has its base moved past
    /// them.  `primary` gives the VOQ's primary intermediate
    /// port and is called only when a stripe is released.  Call until it
    /// returns `None` — an arrival completes at most one stripe, but a
    /// committed shrink can free several at once — handing each stripe to
    /// the scheduler before asking for the next.
    ///
    /// While a resize is pending (clearance phase), no new stripes are formed:
    /// arrivals keep accumulating so that old-size and new-size stripes never
    /// coexist in the switch.
    // lint: hot-path
    #[inline]
    pub fn release_stripe(
        &mut self,
        grid: &mut FifoGrid,
        output: usize,
        primary: impl FnOnce() -> usize,
    ) -> Option<Stripe> {
        let level = self.level(output);
        let size = 1u32 << level;
        let [count, flight] = self.records[output][1];
        if flight >> PENDING_SHIFT != 0 {
            return None;
        }
        let drains = 'counted: {
            if count & WIDE == 0 {
                let ready = count & READY_MASK;
                if ready < size {
                    return None;
                }
                // No resize is pending, so `flight` is the bare count.
                if flight + size <= FLIGHT_MASK {
                    self.records[output][1] = [count - size, flight + size];
                    break 'counted ready == size;
                }
            }
            let counts = self.wide_counts(output);
            if counts[0] < u64::from(size) {
                return None;
            }
            counts[0] -= u64::from(size);
            counts[1] += u64::from(size);
            counts[0] == 0
        };
        let ends = self.records[output][0];
        let seq_base = grid.tail_word(ends).unwrap_or_default();
        if !drains {
            // No by-value entry is left if this wraps: its `voq_seq` would
            // be past 32 bits.
            grid.set_tail_word(ends, seq_base.wrapping_add(size));
        }
        Some(Stripe {
            interval: DyadicInterval::containing(primary(), 1 << level),
            drains_source: drains,
            seq_base,
        })
    }

    /// Report that one of VOQ `output`'s packets reached its output port.
    /// Returns true if that ended a clearance phase and the pending resize
    /// committed — the ready backlog may then hold complete stripes.
    // lint: hot-path
    #[inline]
    pub fn packet_delivered(&mut self, output: usize) -> bool {
        let [count, flight] = self.records[output][1];
        let cleared = if count & WIDE == 0 {
            let in_flight = flight & FLIGHT_MASK;
            debug_assert!(in_flight > 0, "delivered more packets than were in flight");
            if in_flight > 0 {
                self.records[output][1][1] = flight - 1;
            }
            in_flight <= 1
        } else {
            let counts = self.wide_counts(output);
            debug_assert!(counts[1] > 0, "delivered more packets than were in flight");
            counts[1] = counts[1].saturating_sub(1);
            counts[1] == 0
        };
        cleared && self.commit_resize(output)
    }

    /// Request a stripe-size change of VOQ `output` (used by the
    /// matrix-driven and fixed sizing modes when reconfiguring, and by the
    /// adaptive mode).
    ///
    /// The change is applied immediately if nothing is in flight, otherwise it
    /// is deferred to the end of the clearance phase.  Returns true if it
    /// committed now.
    pub fn request_resize(&mut self, output: usize, new_size: usize) -> bool {
        let new_level = level_of(new_size.clamp(1, 1 << self.max_level));
        let level = self.level(output);
        let flight = &mut self.records[output][1][1];
        *flight &= FLIGHT_MASK;
        if new_level == level {
            return false;
        }
        *flight |= (new_level ^ level) << PENDING_SHIFT;
        self.in_flight(output) == 0 && self.commit_resize(output)
    }

    /// Apply VOQ `output`'s pending level, if it has one.
    fn commit_resize(&mut self, output: usize) -> bool {
        let words = &mut self.records[output][1];
        // The pending bits are `pending ^ level`: XORed into the stored
        // `level ^ start` they give `pending ^ start`.
        let delta = words[1] >> PENDING_SHIFT;
        if delta == 0 {
            return false;
        }
        words[0] ^= delta << LEVEL_SHIFT;
        words[1] &= FLIGHT_MASK;
        true
    }

    /// VOQ `output`'s side-table counts, moved out of its record on first
    /// use.
    fn wide_counts(&mut self, output: usize) -> &mut [u64; 2] {
        if self.records[output][1][0] & WIDE == 0 {
            self.widen(output);
        }
        let index = self.records[output][1][0] & READY_MASK;
        &mut self.wide[index as usize]
    }

    /// Move VOQ `output`'s counts into a new side-table entry and point its
    /// record at it; the level bits stay in the record.
    #[cold]
    fn widen(&mut self, output: usize) {
        let [count, flight] = self.records[output][1];
        let index = u32::try_from(self.wide.len())
            .ok()
            .filter(|&index| index <= READY_MASK)
            .expect("a port has fewer than 2^27 VOQs");
        self.wide.push([
            u64::from(count & READY_MASK),
            u64::from(flight & FLIGHT_MASK),
        ]);
        self.records[output][1] = [WIDE | (count & !READY_MASK) | index, flight & !FLIGHT_MASK];
    }
}

/// The switch-wide constants of adaptive sizing — the port count, the
/// measurement window and the hysteresis — kept once per switch and passed
/// to every [`AdaptiveVoq`] call.
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveRule {
    n: usize,
    rate: RateWindow,
    /// Consecutive disagreeing windows before a size change commits.
    patience: u32,
    /// The stripe size every VOQ starts at.
    initial_size: usize,
}

impl AdaptiveRule {
    /// The rule of an `n`-port switch sized by `params`.
    pub fn new(n: usize, params: &AdaptiveSizing) -> Self {
        AdaptiveRule {
            n,
            rate: RateWindow::new(params.window, params.gamma),
            patience: params.patience,
            initial_size: params.initial_size.clamp(1, n),
        }
    }
}

/// The measurement state of one VOQ under adaptive sizing: what it takes to
/// decide the next stripe size, kept apart from the VOQ records so that
/// fixed and matrix-driven switches carry none of it.  What every VOQ
/// shares is its switch's [`AdaptiveRule`], which each call takes.
#[derive(Debug, Clone)]
pub struct AdaptiveVoq {
    estimator: RateEstimator,
    decider: SizeDecider,
    /// Slot at which the next sizing decision is due.
    next_check: u64,
}

impl AdaptiveVoq {
    /// Measurement state for a VOQ starting at the rule's initial size.
    pub fn new(rule: &AdaptiveRule) -> Self {
        AdaptiveVoq {
            estimator: RateEstimator::default(),
            decider: SizeDecider::new(rule.n, rule.initial_size),
            next_check: rule.rate.window(),
        }
    }

    /// Count an arrival at slot `now`.
    pub fn record_arrival(&mut self, now: u64, rule: &AdaptiveRule) {
        self.estimator.record_arrival(now, &rule.rate);
    }

    /// Advance the sizing clock to `now` (cheap when no window elapsed).
    /// Returns the stripe size the VOQ should change to, if a window
    /// elapsed and the decider settled on a change.
    pub fn tick(&mut self, now: u64, rule: &AdaptiveRule) -> Option<usize> {
        if now < self.next_check {
            return None;
        }
        let rate = self.estimator.rate_at(now, &rule.rate);
        let window = rule.rate.window();
        self.next_check = now - (now % window) + window;
        self.decider.observe(rate, rule.n, rule.patience)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    /// The VOQ the unit tests drive.
    const OUT: usize = 1;

    /// An `n`-port table whose VOQs start at stripe size `size`, and the
    /// grid whose pool their ready queues draw on.
    fn table(n: usize, size: usize) -> (Voqs, FifoGrid) {
        (Voqs::new(n, StartLevels::uniform(size)), FifoGrid::new(0))
    }

    /// Push a stored packet whose handle doubles as its VOQ sequence number.
    fn push(v: &mut Voqs, grid: &mut FifoGrid, seq: u32) {
        let packet = Packet::new(0, OUT, 0, 0).with_flow(1);
        v.push(grid, OUT, &packet, || PacketHandle::from_raw(seq));
    }

    /// Take a released stripe's entries off the ready queue, oldest first.
    fn seqs(v: &mut Voqs, grid: &mut FifoGrid, stripe: &Stripe) -> Vec<u32> {
        (0..stripe.size())
            .map(|_| {
                let [handle, tag] = grid
                    .pop_at(v.ready_queue(OUT))
                    .expect("the run is in the queue");
                assert_eq!(tag, MARKED);
                handle
            })
            .collect()
    }

    #[test]
    fn fixed_voq_releases_full_stripes_only() {
        let (mut v, mut grid) = table(8, 4);
        assert_eq!(v.stripe_size(OUT), 4);
        for i in 0..3 {
            push(&mut v, &mut grid, i);
            assert!(v.release_stripe(&mut grid, OUT, || 5).is_none());
        }
        push(&mut v, &mut grid, 3);
        let stripe = v
            .release_stripe(&mut grid, OUT, || 5)
            .expect("four packets fill the stripe");
        assert!(v.release_stripe(&mut grid, OUT, || 5).is_none());
        assert_eq!(stripe.size(), 4);
        assert_eq!(stripe.interval, DyadicInterval::new(4, 4));
        assert!(stripe.drains_source);
        assert_eq!(v.ready_len(OUT), 0);
        assert_eq!(v.in_flight(OUT), 4);
        // The run is the packets in arrival order.
        assert_eq!(seqs(&mut v, &mut grid, &stripe), vec![0, 1, 2, 3]);
    }

    #[test]
    fn unit_stripe_voq_releases_every_packet() {
        let (mut v, mut grid) = table(8, 1);
        for i in 0..5 {
            push(&mut v, &mut grid, i);
            let s = v
                .release_stripe(&mut grid, OUT, || 3)
                .expect("every packet is a stripe");
            assert_eq!(s.size(), 1);
            assert_eq!(s.interval, DyadicInterval::new(3, 1));
            assert_eq!(seqs(&mut v, &mut grid, &s), vec![i]);
            assert!(v.release_stripe(&mut grid, OUT, || 3).is_none());
        }
    }

    #[test]
    fn resize_with_nothing_in_flight_is_immediate() {
        let (mut v, _) = table(8, 4);
        assert!(
            v.request_resize(OUT, 2),
            "nothing in flight: commits at once"
        );
        assert_eq!(v.stripe_size(OUT), 2);
        assert!(!v.resize_pending(OUT));
        // The other VOQs keep their start level.
        assert_eq!(v.stripe_size(0), 4);
    }

    #[test]
    fn resize_waits_for_clearance() {
        let (mut v, mut grid) = table(8, 2);
        // Fill one stripe → 2 packets in flight.
        push(&mut v, &mut grid, 0);
        push(&mut v, &mut grid, 1);
        let first = v
            .release_stripe(&mut grid, OUT, || 1)
            .expect("two packets fill the stripe");
        assert_eq!(seqs(&mut v, &mut grid, &first), vec![0, 1]);
        assert_eq!(v.in_flight(OUT), 2);

        assert!(!v.request_resize(OUT, 4));
        assert!(v.resize_pending(OUT));
        assert_eq!(
            v.stripe_size(OUT),
            2,
            "resize must not apply while packets are in flight"
        );

        // During clearance, arrivals accumulate and no stripes are formed.
        for i in 2..8 {
            push(&mut v, &mut grid, i);
            assert!(v.release_stripe(&mut grid, OUT, || 1).is_none());
        }
        assert_eq!(v.ready_len(OUT), 6);

        // Deliver the two in-flight packets: resize commits and the backlog is
        // released with the new size.
        assert!(!v.packet_delivered(OUT));
        assert!(
            v.packet_delivered(OUT),
            "the last delivery commits the resize"
        );
        assert_eq!(v.stripe_size(OUT), 4);
        let released = v
            .release_stripe(&mut grid, OUT, || 1)
            .expect("6 ready packets form one stripe of 4");
        assert!(v.release_stripe(&mut grid, OUT, || 1).is_none());
        assert_eq!(released.size(), 4);
        assert_eq!(released.interval, DyadicInterval::new(0, 4));
        assert!(!released.drains_source, "two packets stay behind");
        assert_eq!(seqs(&mut v, &mut grid, &released), vec![2, 3, 4, 5]);
        assert_eq!(v.ready_len(OUT), 2);
        assert!(!v.resize_pending(OUT));
    }

    #[test]
    fn resize_to_same_size_clears_pending() {
        let (mut v, mut grid) = table(8, 2);
        push(&mut v, &mut grid, 0);
        push(&mut v, &mut grid, 1);
        assert!(v.release_stripe(&mut grid, OUT, || 1).is_some());
        v.request_resize(OUT, 4);
        assert!(v.resize_pending(OUT));
        v.request_resize(OUT, 2);
        assert!(!v.resize_pending(OUT));
    }

    #[test]
    fn shrinking_releases_multiple_stripes() {
        let (mut v, mut grid) = table(8, 8);
        for i in 0..6 {
            push(&mut v, &mut grid, i);
            assert!(v.release_stripe(&mut grid, OUT, || 0).is_none());
        }
        // With nothing in flight the resize is immediate and the 6 ready
        // packets become 3 stripes of 2, in arrival order.
        assert!(v.request_resize(OUT, 2));
        assert_eq!(v.stripe_size(OUT), 2);
        let mut order = Vec::new();
        let mut stripes = 0;
        while let Some(s) = v.release_stripe(&mut grid, OUT, || 0) {
            assert_eq!(s.size(), 2);
            assert_eq!(s.drains_source, stripes == 2, "only the last empties it");
            order.extend(seqs(&mut v, &mut grid, &s));
            stripes += 1;
        }
        assert_eq!(stripes, 3);
        assert_eq!(order, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(v.ready_len(OUT), 0);
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
        let (mut v, mut grid) = table(n, params.initial_size);
        let rule = AdaptiveRule::new(n, &params);
        let mut sizing = AdaptiveVoq::new(&rule);
        assert_eq!(v.stripe_size(OUT), 1);
        let mut resizes = 0u32;
        // Offer one packet per slot (rate 1.0) for many windows, delivering
        // everything promptly so clearance never blocks.
        for slot in 0..1024u32 {
            sizing.record_arrival(u64::from(slot), &rule);
            push(&mut v, &mut grid, slot);
            if let Some(size) = sizing.tick(u64::from(slot), &rule) {
                resizes += u32::from(v.request_resize(OUT, size));
            }
            while let Some(s) = v.release_stripe(&mut grid, OUT, || 7) {
                for _ in seqs(&mut v, &mut grid, &s) {
                    resizes += u32::from(v.packet_delivered(OUT));
                }
            }
        }
        assert_eq!(
            v.stripe_size(OUT),
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
        let (mut v, mut grid) = table(n, params.initial_size);
        let rule = AdaptiveRule::new(n, &params);
        let mut sizing = AdaptiveVoq::new(&rule);
        // No arrivals at all: after a few windows the decider should shrink
        // the stripe to 1 (rate estimate 0).
        for slot in 0..1024u64 {
            if let Some(size) = sizing.tick(slot, &rule) {
                v.request_resize(OUT, size);
            }
            assert!(v.release_stripe(&mut grid, OUT, || 7).is_none());
        }
        assert_eq!(v.stripe_size(OUT), 1);
    }

    #[test]
    #[should_panic]
    fn non_power_of_two_resize_is_rejected() {
        let (mut v, _) = table(8, 2);
        v.request_resize(OUT, 3);
    }

    #[test]
    fn voq_record_stays_small() {
        // N² of these sit in zeroed per-port tables; the adaptive measurement
        // state is deliberately not part of the record.
        assert!(std::mem::size_of::<Record>() <= 16);
    }

    #[test]
    fn adaptive_voq_holds_no_switch_wide_constant() {
        // Adaptive sizing builds N² of these; the window, EWMA weight, port
        // count and patience live once in the switch's `AdaptiveRule`.
        assert!(std::mem::size_of::<AdaptiveVoq>() <= 48);
    }

    #[test]
    fn start_levels_pick_the_hot_output() {
        let mut v = Voqs::new(8, StartLevels::one_hot(3, 8, 2));
        let sizes: Vec<usize> = (0..8).map(|o| v.stripe_size(o)).collect();
        assert_eq!(sizes, [2, 2, 2, 8, 2, 2, 2, 2]);
        v.start_at(5, 1);
        v.start_at(3, 16);
        assert_eq!((v.stripe_size(5), v.stripe_size(3)), (1, 8));
        assert!(v
            .records
            .iter()
            .enumerate()
            .all(|(o, r)| (o == 5) == (*r != [[0; 2]; 2])));
    }

    /// A VOQ by value: a `VecDeque` ready queue, `u64` counts and an
    /// optional pending level.  The oldest `phantom` ready packets stand for
    /// a backlog the test puts in place without pushing it.
    #[derive(Debug)]
    struct RefVoq {
        phantom: u64,
        ready: VecDeque<u32>,
        in_flight: u64,
        level: u32,
        pending: Option<u32>,
    }

    impl RefVoq {
        fn ready_len(&self) -> u64 {
            self.phantom + self.ready.len() as u64
        }

        /// The next stripe: its level, whether it empties the ready queue,
        /// and how many phantom and which real packets it takes.
        fn release(&mut self) -> Option<(u32, bool, u64, Vec<u32>)> {
            let size = 1u64 << self.level;
            if self.pending.is_some() || self.ready_len() < size {
                return None;
            }
            let phantom = self.phantom.min(size);
            self.phantom -= phantom;
            let real = self.ready.drain(..(size - phantom) as usize).collect();
            self.in_flight += size;
            Some((self.level, self.ready_len() == 0, phantom, real))
        }

        fn delivered(&mut self) -> bool {
            self.in_flight -= 1;
            self.in_flight == 0 && self.commit()
        }

        fn resize(&mut self, level: u32) -> bool {
            if level == self.level {
                self.pending = None;
                return false;
            }
            self.pending = Some(level);
            self.in_flight == 0 && self.commit()
        }

        fn commit(&mut self) -> bool {
            match self.pending.take() {
                Some(level) => {
                    self.level = level;
                    true
                }
                None => false,
            }
        }
    }

    impl Voqs {
        /// The ends of VOQ `output`'s ready queue, to walk.
        pub(crate) fn ready_queue_ends(&self, output: usize) -> Ends {
            self.records[output][0]
        }

        /// Is a stripe-size change of VOQ `output` waiting for the
        /// clearance phase?
        fn resize_pending(&self, output: usize) -> bool {
            self.records[output][1][1] >> PENDING_SHIFT != 0
        }

        /// Put VOQ `output`, untouched so far, in the state of `model`
        /// (whose real ready packets must be none): its counts in the
        /// record if they fit, in the side table otherwise.
        fn preset(&mut self, output: usize, model: &RefVoq) {
            assert!(model.ready.is_empty());
            self.start_at(output, 1 << model.level);
            let level = self.level(output);
            let pending = model.pending.map_or(0, |p| p ^ level) << PENDING_SHIFT;
            let words = &mut self.records[output][1];
            words[1] = pending;
            match (
                u32::try_from(model.phantom)
                    .ok()
                    .filter(|&r| r <= READY_MASK),
                u32::try_from(model.in_flight)
                    .ok()
                    .filter(|&f| f <= FLIGHT_MASK),
            ) {
                (Some(ready), Some(in_flight)) => {
                    words[0] |= ready;
                    words[1] |= in_flight;
                }
                _ => *self.wide_counts(output) = [model.phantom, model.in_flight],
            }
        }
    }

    /// Assert that the record of VOQ `OUT` says what `model` says.
    fn agree(v: &Voqs, grid: &FifoGrid, model: &RefVoq) -> Result<(), TestCaseError> {
        prop_assert_eq!(v.level(OUT), model.level);
        prop_assert_eq!(v.resize_pending(OUT), model.pending.is_some());
        prop_assert_eq!(v.ready_len(OUT), model.ready_len());
        prop_assert_eq!(v.in_flight(OUT), model.in_flight);
        prop_assert_eq!(grid.len_at(v.records[OUT][0]), model.ready.len());
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(160))]
        /// Random push / deliver / resize sequences, each followed by the
        /// port's release loop, agree with the by-value reference: the same
        /// stripes with the same packets, levels, counts and commits, and
        /// every packet held by value gets back its `voq_seq` from its
        /// stripe's base — across non-draining releases and pushes that
        /// must be stored (a flow, a seq that jumps mid-run).  Cases
        /// cover n = 2, 16 and 2¹⁵ (levels 0 to 15, start levels 0 and
        /// log₂N) and VOQs put in place one step short of each count's
        /// width: a resize pending behind three packets in flight over a
        /// ready backlog of 2²⁷ − 2 (two pushes outgrow the record; the
        /// commit then releases the backlog as thousands of stripes at once)
        /// and 2²⁸ − 2 packets in flight (two unit stripes outgrow it).
        #[test]
        fn the_record_agrees_with_a_by_value_voq(
            shape in 0usize..5,
            top in 0u32..2,
            ops in collection::vec((0u32..8, 0u32..16), 1..160),
        ) {
            let n: usize = [2, 16, 1 << 15, 1 << 15, 1 << 15][shape];
            let max_level = n.trailing_zeros();
            let start = top * max_level;
            let mut v = Voqs::new(n, StartLevels::uniform(1 << start));
            let mut grid = FifoGrid::new(0);
            let mut model = RefVoq {
                phantom: 0,
                ready: VecDeque::new(),
                in_flight: 0,
                level: start,
                pending: None,
            };
            if shape == 3 {
                model.phantom = u64::from(READY_MASK) - 1;
                model.in_flight = 3;
                model.level = max_level - top;
                model.pending = Some(max_level - 1 + top);
                v.preset(OUT, &model);
            } else if shape == 4 {
                model.in_flight = u64::from(FLIGHT_MASK) - 1;
                v.preset(OUT, &model);
            }
            agree(&v, &grid, &model)?;
            let primary = 3 % n;
            let mut next = 0u32;
            let mut seq_of: Vec<u64> = Vec::new();
            for (op, arg) in ops {
                match op {
                    0..=3 => {
                        // Id, slot and an in-order seq are all `next`; a seq
                        // that jumps, or a flow, needs a stored body unless
                        // it starts a run.
                        let seq = u64::from(next) + if arg % 5 == 0 { 7 } else { 0 };
                        seq_of.push(seq);
                        let packet = Packet::new(0, OUT, next.into(), next.into())
                            .with_voq_seq(seq)
                            .with_flow(u64::from(arg % 7 == 1));
                        v.push(&mut grid, OUT, &packet, || PacketHandle::from_raw(next));
                        model.ready.push_back(next);
                        next += 1;
                    }
                    4 | 5 => {
                        if model.in_flight > 0 {
                            prop_assert_eq!(v.packet_delivered(OUT), model.delivered());
                        }
                    }
                    _ => {
                        // Over the big backlog, only the two largest levels:
                        // a commit releases at most 2^13 stripes.
                        let level = if shape == 3 {
                            max_level - arg % 2
                        } else {
                            arg % (max_level + 1)
                        };
                        prop_assert_eq!(v.request_resize(OUT, 1 << level), model.resize(level));
                    }
                }
                // The port's release loop, with the scheduler's take of each
                // stripe's real packets.
                loop {
                    match (v.release_stripe(&mut grid, OUT, || primary), model.release()) {
                        (None, None) => break,
                        (Some(stripe), Some((level, drains, phantom, real))) => {
                            prop_assert_eq!(
                                stripe.interval,
                                DyadicInterval::containing(primary, 1 << level)
                            );
                            prop_assert_eq!(stripe.drains_source, drains);
                            let taken: Vec<u32> = (phantom..stripe.size() as u64)
                                .map(|k| match grid.pop_at(v.ready_queue(OUT)) {
                                    Some([handle, MARKED]) => handle,
                                    // A by-value entry's seq is the base plus
                                    // its offset.
                                    Some([id, slot])
                                        if slot == id
                                            && u64::from(stripe.seq_base) + k
                                                == seq_of[id as usize] =>
                                    {
                                        id
                                    }
                                    _ => u32::MAX,
                                })
                                .collect();
                            prop_assert_eq!(taken, real);
                        }
                        (got, want) => prop_assert!(false, "released {:?}, reference {:?}", got, want),
                    }
                }
                agree(&v, &grid, &model)?;
            }
        }
    }
}
