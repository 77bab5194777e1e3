//! The per-switch packet store: every packet body is written once, at
//! arrival, and read once, at delivery; everything in between moves a
//! four-byte [`PacketHandle`].
//!
//! The paper's mechanism needs almost no per-packet state between the two
//! fabrics — the stripe size in the header is the only coordination (§3.4.3)
//! and the other routing fields follow from the dyadic interval — so the
//! queues of a Sprinklers switch (VOQ ready queues, LSF interval queues,
//! the intermediate `(output, level)` FIFOs; see [`crate::fifo`]) hold
//! handles, not packets, and a stored body is 32 bytes: `id`,
//! `arrival_slot`, `voq_seq`, `u16` ports and a padding flag, aligned so it
//! never spans two cache lines.  The routing fields are zero inside a switch
//! and stamped at delivery ([`stamp_routing`](crate::stripe::stamp_routing)),
//! so they are not stored; `flow` goes to a side column (one `u64` per slot)
//! created the first time a non-zero flow is stored.
//! [`PacketStore::take`] rebuilds the exact [`Packet`].
//!
//! Bodies live in fixed-size pages of [`PAGE_SLOTS`] packets.  The store
//! grows one page at a time, so growth never copies a resident body and
//! memory rises in 32 KiB steps instead of doubling.  A handle is a stable
//! slot number; freed slots are chained through their bodies and reused
//! most-recently-freed first, so an arrival usually overwrites the cache
//! line a delivery has just read.
//!
//! The multi-switch fabric in `sprinklers-sim` keeps one store of its own for
//! the whole network by the same rule — a packet is written at injection and
//! read at its destination host — and moves [`PacketHandle::raw`] numbers
//! between nodes and links.

use crate::packet::{Packet, MAX_PORTS};

/// log₂ of the page size.
const PAGE_SHIFT: u32 = 10;

/// Packets per store page (32 KiB of bodies).
pub const PAGE_SLOTS: usize = 1 << PAGE_SHIFT;

/// A stable reference to one stored packet, valid from the
/// [`PacketStore::insert`] that returned it until the [`PacketStore::take`]
/// that consumes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PacketHandle(u32);

impl PacketHandle {
    /// The slot number, as the index queues store it.  Slot numbers are
    /// dense — a store never hands out a number at or above its
    /// [`capacity`](PacketStore::capacity) — so they can index a side table.
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Rebuild a handle from a queue entry.  Only a number a live handle of
    /// the same store returned from [`raw`](Self::raw) is meaningful.
    #[inline]
    pub fn from_raw(raw: u32) -> Self {
        PacketHandle(raw)
    }

    /// `(page, slot within the page)` of this handle.
    #[inline]
    fn position(self) -> (usize, usize) {
        (
            (self.0 >> PAGE_SHIFT) as usize,
            self.0 as usize & (PAGE_SLOTS - 1),
        )
    }
}

/// What the store keeps of a packet.  A freed body's `id` is the next slot
/// of the free chain (`u64::MAX` ends it).
#[derive(Debug, Clone, Copy, Default)]
#[repr(C, align(32))]
struct Body {
    id: u64,
    arrival_slot: u64,
    voq_seq: u64,
    input: u16,
    output: u16,
    padding: bool,
}

/// A port number as a body stores it.
#[inline]
fn narrow_port(port: usize) -> u16 {
    debug_assert!(port <= MAX_PORTS);
    // lint: allow(cast) — every switch and fabric bounds its ports by MAX_PORTS = u16::MAX
    port as u16
}

/// Page-grown slab of packet bodies.
#[derive(Debug, Default)]
pub struct PacketStore {
    pages: Vec<Box<[Body]>>,
    /// Flow per slot: empty until the first non-zero flow is stored, as
    /// long as the capacity from then on.
    flows: Vec<u64>,
    /// The most recently freed slot, the head of the free chain.
    free: Option<PacketHandle>,
    /// Next never-used slot.
    fresh: u32,
    live: usize,
}

impl PacketStore {
    /// An empty store.  No page is allocated until the first insert.
    pub fn new() -> Self {
        Self::default()
    }

    /// Packets currently stored.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Slots in the pages allocated so far.
    pub fn capacity(&self) -> usize {
        self.pages.len() * PAGE_SLOTS
    }

    /// Store `packet`, whose routing fields are still zero, and return its
    /// handle.
    // lint: hot-path
    #[inline]
    pub fn insert(&mut self, packet: &Packet) -> PacketHandle {
        debug_assert_eq!(packet.stripe_size() + packet.intermediate(), 0);
        let handle = match self.free {
            Some(handle) => {
                self.free = u32::try_from(self.body(handle).id).ok().map(PacketHandle);
                handle
            }
            None => self.fresh_slot(),
        };
        self.live += 1;
        let (page, slot) = handle.position();
        self.pages[page][slot] = Body {
            id: packet.id,
            arrival_slot: packet.arrival_slot,
            voq_seq: packet.voq_seq,
            input: narrow_port(packet.input()),
            output: narrow_port(packet.output()),
            padding: packet.is_padding(),
        };
        if packet.flow != 0 && self.flows.is_empty() {
            self.flows.resize(self.capacity(), 0);
        }
        if let Some(flow) = self.flows.get_mut(handle.0 as usize) {
            *flow = packet.flow;
        }
        handle
    }

    /// Hand out the next never-used slot, adding a page when the last one is
    /// full.
    #[cold]
    fn fresh_slot(&mut self) -> PacketHandle {
        let handle = PacketHandle(self.fresh);
        if handle.position().0 == self.pages.len() {
            self.pages
                .push(vec![Body::default(); PAGE_SLOTS].into_boxed_slice());
            if !self.flows.is_empty() {
                self.flows.resize(self.capacity(), 0);
            }
        }
        self.fresh = self
            .fresh
            .checked_add(1)
            .expect("packet store exhausted the u32 handle space");
        handle
    }

    /// Remove a packet: rebuild the [`Packet`] that was inserted and free
    /// the slot.  The handle (and every copy of it) is dead afterwards.
    // lint: hot-path
    #[inline]
    pub fn take(&mut self, handle: PacketHandle) -> Packet {
        let flow = self.flow(handle);
        let (page, slot) = handle.position();
        let body = &mut self.pages[page][slot];
        let (input, output) = (usize::from(body.input), usize::from(body.output));
        let mut packet = if body.padding {
            Packet::padding(input, output, body.arrival_slot)
        } else {
            Packet::new(input, output, 0, body.arrival_slot)
        };
        (packet.id, packet.voq_seq, packet.flow) = (body.id, body.voq_seq, flow);
        body.id = self.free.map_or(u64::MAX, |next| u64::from(next.0));
        self.free = Some(handle);
        self.live -= 1;
        packet
    }

    /// Pull the bodies of `handles` into cache ahead of the loop that will
    /// [`take`](Self::take) them.  A body is read long after it was written,
    /// so each is a likely cache miss; issuing the loads back to back, with
    /// nothing depending on them, lets the misses overlap instead of costing
    /// one full memory round trip per packet in the consuming loop.
    // lint: hot-path
    #[inline]
    pub fn warm(&self, handles: impl Iterator<Item = PacketHandle>) {
        let mut bits = 0u64;
        for handle in handles {
            bits ^= self.body(handle).id;
        }
        std::hint::black_box(bits);
    }

    /// A stored packet's output port.
    #[inline]
    pub fn output(&self, handle: PacketHandle) -> usize {
        usize::from(self.body(handle).output)
    }

    /// A stored packet's arrival slot.
    #[inline]
    pub fn arrival_slot(&self, handle: PacketHandle) -> u64 {
        self.body(handle).arrival_slot
    }

    /// A stored packet's flow.
    #[inline]
    pub fn flow(&self, handle: PacketHandle) -> u64 {
        self.flows.get(handle.0 as usize).map_or(0, |&flow| flow)
    }

    #[inline]
    fn body(&self, handle: PacketHandle) -> &Body {
        let (page, slot) = handle.position();
        &self.pages[page][slot]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn pkt(id: u64) -> Packet {
        Packet::new(1, 2, id, id)
    }

    #[test]
    fn a_body_is_half_a_cache_line() {
        assert_eq!(std::mem::size_of::<Body>(), 32);
        assert_eq!(std::mem::align_of::<Body>(), 32);
    }

    #[test]
    fn bodies_round_trip_and_slots_are_recycled_lifo() {
        let mut store = PacketStore::new();
        assert_eq!(store.capacity(), 0, "no page before the first insert");
        let a = store.insert(&pkt(10));
        let b = store.insert(&pkt(11));
        assert_ne!(a, b);
        assert_eq!(store.live(), 2);
        assert_eq!(store.arrival_slot(a), 10);
        assert_eq!(store.take(a), pkt(10));
        assert_eq!(store.live(), 1);
        // The freed slot is the next one handed out.
        let c = store.insert(&pkt(12));
        assert_eq!(c, a);
        assert_eq!(store.take(c), pkt(12));
        assert_eq!(store.take(b), pkt(11));
        assert_eq!(store.live(), 0);
    }

    #[test]
    fn growth_adds_pages_without_moving_resident_packets() {
        let mut store = PacketStore::new();
        let first = store.insert(&pkt(0));
        let address = &store.pages[0][0] as *const Body;
        let handles: Vec<_> = (1..3 * PAGE_SLOTS as u64)
            .map(|id| store.insert(&pkt(id)))
            .collect();
        assert_eq!(store.capacity(), 3 * PAGE_SLOTS);
        assert_eq!(&store.pages[0][0] as *const Body, address);
        assert_eq!(store.arrival_slot(first), 0);
        for (k, h) in handles.iter().enumerate() {
            assert_eq!(store.arrival_slot(*h), k as u64 + 1);
        }
        // Draining and refilling reuses the pages: no further growth, and
        // the free chain hands the slots back last-freed first.
        for &h in &handles {
            store.take(h);
        }
        assert_eq!(store.live(), 1);
        let refilled: Vec<_> = (0..handles.len() as u64)
            .map(|id| store.insert(&pkt(id)))
            .collect();
        assert!(refilled.iter().eq(handles.iter().rev()));
        assert_eq!(store.capacity(), 3 * PAGE_SLOTS);
    }

    proptest! {
        /// Random insert / take traffic against a `Vec` model: `take` returns
        /// exactly the packet `insert` stored — data or padding, zero or
        /// non-zero flow, ports up to `MAX_PORTS − 1`, identity fields up to
        /// `u64::MAX` — freed slots come back last-freed first, `live` counts
        /// the model's packets, and page growth moves no resident body.
        #[test]
        fn take_returns_what_insert_stored(
            ops in proptest::collection::vec(
                (0u32..4, 0usize..MAX_PORTS, 0u64..=u64::MAX, 0usize..4096),
                1..3000,
            ),
            flows_from in 0usize..2000,
        ) {
            let mut store = PacketStore::new();
            let mut model: Vec<(PacketHandle, Packet)> = Vec::new();
            let mut freed: Vec<PacketHandle> = Vec::new();
            let mut fresh = 0u32;
            let mut first_body = None;
            for (step, (op, port, ident, pick)) in ops.into_iter().enumerate() {
                if op < 3 {
                    let (input, output) = (port, MAX_PORTS - 1 - port);
                    let mut packet = if ident % 5 == 0 {
                        Packet::padding(input, output, ident.rotate_left(17))
                    } else {
                        Packet::new(input, output, ident, ident.rotate_left(17))
                            .with_voq_seq(!ident)
                    };
                    if step >= flows_from && pick % 3 == 0 {
                        packet.flow = ident | 1;
                    }
                    let handle = store.insert(&packet);
                    let expected = freed.pop().unwrap_or_else(|| {
                        fresh += 1;
                        PacketHandle(fresh - 1)
                    });
                    prop_assert_eq!(handle, expected);
                    prop_assert!(handle.raw() < store.capacity() as u32);
                    first_body.get_or_insert(&store.pages[0][0] as *const Body);
                    model.push((handle, packet));
                } else if !model.is_empty() {
                    let (handle, packet) = model.swap_remove(pick % model.len());
                    prop_assert_eq!(store.output(handle), packet.output());
                    prop_assert_eq!(store.flow(handle), packet.flow);
                    prop_assert_eq!(store.arrival_slot(handle), packet.arrival_slot);
                    prop_assert_eq!(store.take(handle), packet);
                    freed.push(handle);
                }
                prop_assert_eq!(store.live(), model.len());
            }
            prop_assert_eq!(store.capacity(), (fresh as usize).div_ceil(PAGE_SLOTS) * PAGE_SLOTS);
            if let Some(first) = first_body {
                prop_assert_eq!(&store.pages[0][0] as *const Body, first);
            }
            for (handle, packet) in model {
                prop_assert_eq!(store.take(handle), packet);
            }
            prop_assert_eq!(store.live(), 0);
        }

        /// Random insert / take traffic against a map from handle to body: a
        /// live handle is never handed out twice, every body reads back what
        /// was stored under it, and `live` counts exactly the model's packets.
        #[test]
        fn handles_are_recycled_but_never_aliased(
            ops in proptest::collection::vec((0u32..3, 0usize..64), 1..500)
        ) {
            let mut store = PacketStore::new();
            let mut model: BTreeMap<PacketHandle, u64> = BTreeMap::new();
            let mut next_id = 0u64;
            let mut recycled = false;
            let mut ever: BTreeMap<PacketHandle, u32> = BTreeMap::new();
            for (op, pick) in ops {
                if op < 2 {
                    let handle = store.insert(&pkt(next_id));
                    prop_assert!(
                        model.insert(handle, next_id).is_none(),
                        "live handle {:?} handed out twice", handle
                    );
                    let uses = ever.entry(handle).or_insert(0);
                    *uses += 1;
                    recycled |= *uses > 1;
                    next_id += 1;
                } else if !model.is_empty() {
                    let handle = *model.keys().nth(pick % model.len()).expect("in range");
                    let id = model.remove(&handle).expect("picked from the model");
                    prop_assert_eq!(store.take(handle).id, id);
                }
                prop_assert_eq!(store.live(), model.len());
                for (handle, id) in &model {
                    prop_assert_eq!(store.arrival_slot(*handle), *id);
                }
            }
            // Slots only ever come from the pages: reuse, not growth, serves
            // inserts once something has been freed.
            prop_assert!(ever.len() <= store.capacity());
            prop_assert!(recycled || ever.len() as u64 == next_id);
        }
    }
}
