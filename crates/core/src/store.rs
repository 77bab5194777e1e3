//! The per-switch packet store: every packet body is written once, at
//! arrival, and read once, at delivery; everything in between moves a
//! four-byte [`PacketHandle`].
//!
//! The paper's mechanism needs almost no per-packet state between the two
//! fabrics — the stripe size in the header is the only coordination (§3.4.3)
//! and the other routing fields follow from the dyadic interval — so the
//! queues of a Sprinklers switch (VOQ ready queues, LSF interval queues,
//! the intermediate `(output, level)` FIFOs; see [`crate::fifo`]) hold
//! handles, not packets.
//!
//! Bodies live in fixed-size pages of [`PAGE_SLOTS`] packets.  The store
//! grows one page at a time, so growth never copies a resident packet and
//! memory rises in 48 KiB steps instead of doubling.  A handle is a stable
//! slot number; freed slots are reused most-recently-freed first, so an
//! arrival usually overwrites the cache lines a delivery has just read.
//!
//! `insert` and `take` happen only in serial code; the sharded fabric phases
//! see `&PacketStore`.
//!
//! The multi-switch fabric in `sprinklers-sim` keeps one store of its own for
//! the whole network by the same rule — a packet is written at injection and
//! read at its destination host — and moves [`PacketHandle::raw`] numbers
//! between nodes and links.

use crate::packet::Packet;

/// log₂ of the page size.
const PAGE_SHIFT: u32 = 10;

/// Packets per store page (48 KiB of bodies).
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

/// Page-grown slab of packet bodies.
#[derive(Debug, Default)]
pub struct PacketStore {
    pages: Vec<Box<[Packet]>>,
    /// Freed slots, most recently freed last.  Its capacity is kept at the
    /// slot count, so a `take` never allocates.
    free: Vec<PacketHandle>,
    /// Next never-used slot.
    fresh: u32,
}

impl PacketStore {
    /// An empty store.  No page is allocated until the first insert.
    pub fn new() -> Self {
        Self::default()
    }

    /// Packets currently stored.
    pub fn live(&self) -> usize {
        self.fresh as usize - self.free.len()
    }

    /// Slots in the pages allocated so far.
    pub fn capacity(&self) -> usize {
        self.pages.len() * PAGE_SLOTS
    }

    /// Store a packet body and return its handle.
    // lint: hot-path
    #[inline]
    pub fn insert(&mut self, packet: Packet) -> PacketHandle {
        let handle = match self.free.pop() {
            Some(handle) => handle,
            None => self.fresh_slot(),
        };
        let (page, slot) = handle.position();
        self.pages[page][slot] = packet;
        handle
    }

    /// Hand out the next never-used slot, adding a page when the last one is
    /// full.
    #[cold]
    fn fresh_slot(&mut self) -> PacketHandle {
        let handle = PacketHandle(self.fresh);
        if handle.position().0 == self.pages.len() {
            let filler = Packet::new(0, 0, 0, 0);
            self.pages.push(vec![filler; PAGE_SLOTS].into_boxed_slice());
            // Fresh slots are only taken while the free stack is empty, so
            // this keeps its capacity at the slot count.
            debug_assert!(self.free.is_empty());
            self.free.reserve(self.capacity());
        }
        self.fresh = self
            .fresh
            .checked_add(1)
            .expect("packet store exhausted the u32 handle space");
        handle
    }

    /// Remove a packet: read its body and free the slot.  The handle (and
    /// every copy of it) is dead afterwards.
    // lint: hot-path
    #[inline]
    pub fn take(&mut self, handle: PacketHandle) -> Packet {
        let (page, slot) = handle.position();
        // lint: allow(hot-path) — a Packet is 48 plain bytes: this clone is the body's one read, not a heap copy
        let packet = self.pages[page][slot].clone();
        self.free.push(handle);
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
            bits ^= self.get(handle).edge_bits();
        }
        std::hint::black_box(bits);
    }

    /// Borrow a stored packet's body.
    #[inline]
    pub fn get(&self, handle: PacketHandle) -> &Packet {
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
    fn bodies_round_trip_and_slots_are_recycled_lifo() {
        let mut store = PacketStore::new();
        assert_eq!(store.capacity(), 0, "no page before the first insert");
        let a = store.insert(pkt(10));
        let b = store.insert(pkt(11));
        assert_ne!(a, b);
        assert_eq!(store.live(), 2);
        assert_eq!(store.get(a).id, 10);
        assert_eq!(store.take(a).id, 10);
        assert_eq!(store.live(), 1);
        // The freed slot is the next one handed out.
        let c = store.insert(pkt(12));
        assert_eq!(c, a);
        assert_eq!(store.get(c).id, 12);
        assert_eq!(store.get(b).id, 11);
    }

    #[test]
    fn growth_adds_pages_without_moving_resident_packets() {
        let mut store = PacketStore::new();
        let first = store.insert(pkt(0));
        let address = store.get(first) as *const Packet;
        let handles: Vec<_> = (1..3 * PAGE_SLOTS as u64)
            .map(|id| store.insert(pkt(id)))
            .collect();
        assert_eq!(store.capacity(), 3 * PAGE_SLOTS);
        assert_eq!(store.get(first) as *const Packet, address);
        for (k, h) in handles.iter().enumerate() {
            assert_eq!(store.get(*h).id, k as u64 + 1);
        }
        // Draining and refilling reuses the pages: no further growth, and
        // the free stack had room for every slot before the first `take`.
        assert!(store.free.capacity() >= store.capacity());
        for h in handles {
            store.take(h);
        }
        assert_eq!(store.live(), 1);
        for id in 0..2 * PAGE_SLOTS as u64 {
            store.insert(pkt(id));
        }
        assert_eq!(store.capacity(), 3 * PAGE_SLOTS);
    }

    proptest! {
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
                    let handle = store.insert(pkt(next_id));
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
                    prop_assert_eq!(store.get(*handle).id, *id);
                }
            }
            // Slots only ever come from the pages: reuse, not growth, serves
            // inserts once something has been freed.
            prop_assert!(ever.len() <= store.capacity());
            prop_assert!(recycled || ever.len() as u64 == next_id);
        }
    }
}
