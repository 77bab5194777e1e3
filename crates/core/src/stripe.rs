//! Stripes: the unit of scheduling in a Sprinklers switch.
//!
//! Packets of a VOQ are grouped, in arrival order, into *stripes* of exactly
//! `2^k` packets, where `2^k` is the VOQ's current stripe size.  The stripe is
//! switched through the VOQ's dyadic stripe interval: the packet at offset `o`
//! goes through intermediate port `interval.start() + o`.  A stripe is the
//! atomic unit of service at both the input and the intermediate stage: the
//! servicing of two stripes never interleaves, which — combined with FCFS
//! order of stripes within a VOQ — is what rules out packet reordering.
//!
//! A stripe is never materialized.  Its packets stay where `arrive` wrote
//! them in the [`PacketStore`](crate::store::PacketStore); the stripe itself
//! is the run of `size` consecutive handles at the head of its VOQ's ready
//! queue, described by a [`Stripe`] for the moment it takes to hand the run
//! to the LSF scheduler.  Nor are the routing fields written at assembly: the
//! intermediate port a packet crossed and the size of the stripe it travelled
//! in determine all three, so [`stamp_routing`] fills them in once, on the
//! copy that leaves the switch — for every scheme of the two-stage kernel.

use crate::dyadic::DyadicInterval;
use crate::packet::Packet;

/// A full stripe of one VOQ, ready to be scheduled: the `interval.size()`
/// oldest entries of queue `source` in the input port's
/// [`FifoGrid`](crate::fifo::FifoGrid).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stripe {
    /// The dyadic interval of intermediate ports the stripe is spread over.
    pub interval: DyadicInterval,
    /// The grid queue (the VOQ's ready queue) whose head the stripe is.
    pub source: usize,
    /// True if the stripe is everything `source` holds, so it can be spliced
    /// out whole instead of popped entry by entry.
    pub drains_source: bool,
}

impl Stripe {
    /// Number of packets in the stripe (equals the interval size).
    pub fn size(&self) -> usize {
        self.interval.size()
    }

    /// The stripe's level, `log₂(size)`.
    pub fn level(&self) -> usize {
        self.interval.level()
    }

    /// The intermediate port traversed by the packet at `offset`.
    pub fn port_of_offset(&self, offset: usize) -> usize {
        self.interval.start() + offset
    }
}

/// Fill in a delivered packet's routing header from where it travelled: it
/// crossed intermediate port `intermediate` in a stripe of `size` packets.
/// Packet `k` of a stripe crosses port `start + k` and every stripe starts
/// at a multiple of its size — a dyadic interval, a frame from port 0, a
/// lone packet anywhere — so the packet's offset is `intermediate mod size`.
// lint: hot-path
#[inline]
pub fn stamp_routing(packet: &mut Packet, intermediate: usize, size: usize) {
    packet.set_stripe_size(size);
    packet.set_stripe_index(if size.is_power_of_two() {
        intermediate & (size - 1)
    } else {
        intermediate % size
    });
    packet.set_intermediate(intermediate);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivery_stamp_matches_the_stripe_offsets() {
        // What assembly used to write into every packet of a stripe over
        // [8, 12) is what the stamp derives from (port, level) alone.
        let stripe = Stripe {
            interval: DyadicInterval::new(8, 4),
            source: 0,
            drains_source: true,
        };
        assert_eq!(stripe.size(), 4);
        assert_eq!(stripe.level(), 2);
        for offset in 0..4 {
            let mut p = Packet::new(2, 5, offset as u64, 10);
            stamp_routing(&mut p, stripe.port_of_offset(offset), stripe.size());
            assert_eq!(p.stripe_size(), 4);
            assert_eq!(p.stripe_index(), offset);
            assert_eq!(p.intermediate(), 8 + offset);
        }
    }

    #[test]
    fn unit_stripe_is_valid() {
        let s = Stripe {
            interval: DyadicInterval::new(5, 1),
            source: 3,
            drains_source: false,
        };
        assert_eq!(s.size(), 1);
        assert_eq!(s.level(), 0);
        assert_eq!(s.port_of_offset(0), 5);
        let mut p = Packet::new(0, 0, 0, 0);
        stamp_routing(&mut p, 5, 1);
        assert_eq!(
            (p.stripe_size(), p.stripe_index(), p.intermediate()),
            (1, 0, 5)
        );
    }
}
