//! Packet representation shared by every switch in the workspace.
//!
//! The simulator works at packet granularity: every packet is a fixed-size
//! cell (one packet per port per time slot, the standard cell-switch model
//! used throughout the load-balanced switching literature and in the paper's
//! evaluation).
//!
//! # Memory layout
//!
//! The two-stage kernel writes a packet once and reads it once: it stores
//! it in the switch's [`PacketStore`](crate::store::PacketStore) — at
//! arrival, or when it leaves the input if a Sprinklers VOQ held it by value
//! — delivery takes it out again, and every queue past the inputs holds a
//! four-byte handle (see [`crate::fifo`]).  The three routing fields below
//! are not even stored while the packet is inside the switch; they are
//! derived from the intermediate port and stripe size at delivery
//! ([`stamp_routing`](crate::stripe::stamp_routing)), and the store keeps a
//! 16-byte body of its own, with the rare identity field past 32 bits in a
//! side table.
//!
//! A `Packet` by value is what crosses the [`Switch`](crate::switch::Switch)
//! API and what the output-queued reference queues, so it is packed to fit
//! **48 bytes** instead of the 80 bytes a naive all-`usize` layout costs:
//!
//! * the four identity counters stay `u64` (ids, slots and sequence numbers
//!   genuinely need the range),
//! * port numbers are `u32` and the routing fields (`intermediate`,
//!   `stripe_size`, `stripe_index`) are `u16` — both bounded by
//!   [`MAX_PORTS`], which every switch constructor enforces in all build
//!   profiles so the narrowing casts can never truncate, and
//! * `is_padding` lives in a flags byte.
//!
//! The narrow fields are private and wrapped by `usize` accessors, so call
//! sites index arrays exactly as before and no on-disk or CSV format can
//! observe the layout (the trace formats serialize their own record structs,
//! never `Packet` itself).  A compile-time assertion pins the 48-byte bound.

/// Flag bit: the packet is padding injected by a frame-padding scheme.
const FLAG_PADDING: u8 = 1;

/// Largest switch size the compact routing fields — and the `u16` ports of
/// a stored body ([`crate::store`]) — can address.  The
/// `intermediate` port index and the stripe fields are `u16`, and a
/// stripe/frame can span up to `N` packets (UFS frames are exactly `N`), so
/// every value the setters narrow is `≤ n`; bounding `n` by `u16::MAX` keeps
/// them all representable.  (Sprinklers additionally requires a power of two,
/// so its effective ceiling is 32768.)
pub const MAX_PORTS: usize = u16::MAX as usize;

/// Assert — in release builds too — that an `n`-port switch fits the compact
/// [`Packet`] routing fields, so the `as u16` narrowing in the setters can
/// never silently truncate.  Every switch constructor calls this.
#[inline]
pub fn assert_ports_fit(n: usize) {
    assert!(
        n <= MAX_PORTS,
        "switch size {n} exceeds the {MAX_PORTS}-port bound of the compact Packet layout"
    );
}

/// A fixed-size packet (cell) flowing through a switch.
///
/// The identity fields (`input`, `output`, `flow`, `voq_seq`) are assigned at
/// arrival time and never change.  The routing fields (`stripe_size`,
/// `stripe_index`, `intermediate`) are filled in by the switch as the packet
/// is grouped into a stripe and forwarded across the two fabrics; they model
/// the small internal-use header the paper attaches to every packet
/// (log₂log₂N bits for the stripe size, §3.4.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Globally unique packet identifier (assigned by the traffic generator).
    pub id: u64,
    /// Application-flow identifier.  Packets of the same flow always share the
    /// same `(input, output)` pair; the TCP-hashing baseline additionally uses
    /// this to pick an intermediate port.
    pub flow: u64,
    /// Time slot at which the packet arrived at its input port.
    pub arrival_slot: u64,
    /// Sequence number within the packet's VOQ, i.e. within its
    /// `(input, output)` pair, assigned in arrival order starting from 0.
    ///
    /// Packet order is preserved if and only if, at every output, packets of
    /// the same VOQ depart in increasing `voq_seq` order.  Per-flow order
    /// follows because a flow is a subsequence of its VOQ.  No switch reads
    /// it: only the metrics and the test oracles do.
    pub voq_seq: u64,
    /// Input port at which the packet arrived (`0..N`).
    input: u32,
    /// Output port the packet is destined to (`0..N`).
    output: u32,
    /// Intermediate port the packet was (or will be) routed through.
    intermediate: u16,
    /// Size of the stripe (or frame) this packet was grouped into; zero until
    /// the packet is assigned to a stripe.
    stripe_size: u16,
    /// Index of this packet inside its stripe (`0..stripe_size`).
    stripe_index: u16,
    /// Packet flags (currently only [`FLAG_PADDING`]).
    flags: u8,
}

// The whole point of the narrow fields.
const _: () = assert!(std::mem::size_of::<Packet>() <= 48);

impl Packet {
    /// Create a new data packet with the given identity.
    ///
    /// Routing fields start zeroed; `voq_seq` is expected to be assigned by
    /// the traffic generator or the test harness (it defaults to 0 here).
    pub fn new(input: usize, output: usize, id: u64, arrival_slot: u64) -> Self {
        debug_assert!(input <= u32::MAX as usize && output <= u32::MAX as usize);
        Packet {
            id,
            flow: 0,
            arrival_slot,
            voq_seq: 0,
            // lint: allow(cast) — ports bounded by assert_ports_fit in every build profile
            input: input as u32,
            // lint: allow(cast) — same MAX_PORTS bound as `input` above
            output: output as u32,
            intermediate: 0,
            stripe_size: 0,
            stripe_index: 0,
            flags: 0,
        }
    }

    /// Create a padding (fake) packet for schedulers that pad partial frames.
    pub fn padding(input: usize, output: usize, arrival_slot: u64) -> Self {
        let mut p = Packet::new(input, output, u64::MAX, arrival_slot);
        p.flow = u64::MAX;
        p.voq_seq = u64::MAX;
        p.flags = FLAG_PADDING;
        p
    }

    /// Builder-style helper to set the flow identifier.
    #[must_use]
    pub fn with_flow(mut self, flow: u64) -> Self {
        self.flow = flow;
        self
    }

    /// Builder-style helper to set the VOQ sequence number.
    #[must_use]
    pub fn with_voq_seq(mut self, seq: u64) -> Self {
        self.voq_seq = seq;
        self
    }

    /// Input port at which the packet arrived (`0..N`).
    #[inline]
    pub fn input(&self) -> usize {
        self.input as usize
    }

    /// Output port the packet is destined to (`0..N`).
    #[inline]
    pub fn output(&self) -> usize {
        self.output as usize
    }

    /// Readdress the packet to a different `(input, output)` port pair.
    ///
    /// Single switches never rewrite a packet's identity ports, but the
    /// fabric layer in `sprinklers-sim` does at every hop: a packet crossing
    /// a multi-switch topology is readdressed to node-local ports on entry
    /// to each switch and restored to its global host pair at final
    /// delivery.
    #[inline]
    pub fn set_ports(&mut self, input: usize, output: usize) {
        debug_assert!(input <= u32::MAX as usize && output <= u32::MAX as usize);
        // lint: allow(cast) — ports bounded by assert_ports_fit in every build profile
        self.input = input as u32;
        // lint: allow(cast) — same MAX_PORTS bound as `input` above
        self.output = output as u32;
    }

    /// Intermediate port the packet was (or will be) routed through.
    /// Meaningful once the packet has crossed the first fabric.
    #[inline]
    pub fn intermediate(&self) -> usize {
        self.intermediate as usize
    }

    /// Stamp the intermediate port the packet will be routed through.
    #[inline]
    pub fn set_intermediate(&mut self, intermediate: usize) {
        debug_assert!(intermediate <= u16::MAX as usize);
        // lint: allow(cast) — intermediate < n ≤ MAX_PORTS by assert_ports_fit
        self.intermediate = intermediate as u16;
    }

    /// Size of the stripe (or frame) this packet was grouped into.
    /// Zero until the packet is assigned to a stripe.
    #[inline]
    pub fn stripe_size(&self) -> usize {
        self.stripe_size as usize
    }

    /// Stamp the stripe (or frame) size.
    #[inline]
    pub fn set_stripe_size(&mut self, stripe_size: usize) {
        debug_assert!(stripe_size <= u16::MAX as usize);
        // lint: allow(cast) — a stripe spans at most n ≤ MAX_PORTS packets
        self.stripe_size = stripe_size as u16;
    }

    /// Index of this packet inside its stripe (`0..stripe_size`).
    #[inline]
    pub fn stripe_index(&self) -> usize {
        self.stripe_index as usize
    }

    /// Stamp the packet's index inside its stripe.
    #[inline]
    pub fn set_stripe_index(&mut self, stripe_index: usize) {
        debug_assert!(stripe_index <= u16::MAX as usize);
        // lint: allow(cast) — stripe_index < stripe_size ≤ MAX_PORTS
        self.stripe_index = stripe_index as u16;
    }

    /// True for padding packets injected by schedulers that pad partial frames
    /// (the Padded Frames baseline).  Padding packets occupy switch capacity
    /// but are discarded at the output and never counted in delay or
    /// reordering statistics.
    #[inline]
    pub fn is_padding(&self) -> bool {
        self.flags & FLAG_PADDING != 0
    }

    /// The VOQ this packet belongs to, as an `(input, output)` pair.
    #[inline]
    pub fn voq(&self) -> (usize, usize) {
        (self.input(), self.output())
    }
}

/// A packet together with the time slot at which it reached its output port.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeliveredPacket {
    /// The delivered packet.
    pub packet: Packet,
    /// Slot at which the packet crossed the second fabric into its output.
    pub departure_slot: u64,
}

impl DeliveredPacket {
    /// Create a delivery record.
    pub fn new(packet: Packet, departure_slot: u64) -> Self {
        DeliveredPacket {
            packet,
            departure_slot,
        }
    }

    /// End-to-end delay of the packet in time slots (departure − arrival).
    ///
    /// Padding packets report a delay of 0.
    pub fn delay(&self) -> u64 {
        if self.packet.is_padding() {
            return 0;
        }
        self.departure_slot.saturating_sub(self.packet.arrival_slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_packet_has_expected_identity() {
        let p = Packet::new(3, 7, 42, 100);
        assert_eq!(p.input(), 3);
        assert_eq!(p.output(), 7);
        assert_eq!(p.id, 42);
        assert_eq!(p.arrival_slot, 100);
        assert_eq!(p.voq(), (3, 7));
        assert!(!p.is_padding());
        assert_eq!(p.stripe_size(), 0);
    }

    #[test]
    fn builder_helpers_set_fields() {
        let p = Packet::new(0, 1, 0, 0).with_flow(9).with_voq_seq(5);
        assert_eq!(p.flow, 9);
        assert_eq!(p.voq_seq, 5);
    }

    #[test]
    fn routing_setters_round_trip() {
        let mut p = Packet::new(0, 1, 0, 0);
        p.set_intermediate(1234);
        p.set_stripe_size(64);
        p.set_stripe_index(63);
        assert_eq!(p.intermediate(), 1234);
        assert_eq!(p.stripe_size(), 64);
        assert_eq!(p.stripe_index(), 63);
    }

    #[test]
    fn set_ports_rewrites_the_voq_pair() {
        let mut p = Packet::new(3, 7, 42, 100).with_voq_seq(5);
        p.set_ports(1, 2);
        assert_eq!(p.voq(), (1, 2));
        // Only the addressing changes; identity counters are untouched.
        assert_eq!(p.id, 42);
        assert_eq!(p.arrival_slot, 100);
        assert_eq!(p.voq_seq, 5);
    }

    #[test]
    fn packet_fits_in_48_bytes() {
        // The layout contract the fabric hot path is sized around.
        assert!(std::mem::size_of::<Packet>() <= 48);
    }

    #[test]
    fn port_bound_guard_accepts_the_ceiling() {
        assert_ports_fit(MAX_PORTS);
    }

    #[test]
    #[should_panic(expected = "exceeds the 65535-port bound")]
    fn port_bound_guard_rejects_oversized_switches() {
        assert_ports_fit(MAX_PORTS + 1);
    }

    #[test]
    fn padding_packet_is_marked() {
        let p = Packet::padding(2, 4, 10);
        assert!(p.is_padding());
        assert_eq!(p.voq(), (2, 4));
    }

    #[test]
    fn delay_is_departure_minus_arrival() {
        let p = Packet::new(0, 0, 1, 10);
        let d = DeliveredPacket::new(p, 25);
        assert_eq!(d.delay(), 15);
    }

    #[test]
    fn delay_of_padding_packet_is_zero() {
        let p = Packet::padding(0, 0, 10);
        let d = DeliveredPacket::new(p, 25);
        assert_eq!(d.delay(), 0);
    }

    #[test]
    fn delay_saturates_rather_than_underflowing() {
        // Deliveries can never precede arrivals in a correct switch, but the
        // metric must not panic if a buggy scheduler produces one.
        let p = Packet::new(0, 0, 1, 50);
        let d = DeliveredPacket::new(p, 25);
        assert_eq!(d.delay(), 0);
    }
}
