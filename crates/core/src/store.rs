//! The per-switch packet store: every packet body is written once, at
//! arrival, and read once, at delivery; everything in between moves a
//! four-byte [`PacketHandle`].
//!
//! The paper's mechanism needs almost no per-packet state between the two
//! fabrics — the stripe size in the header is the only coordination (§3.4.3)
//! and the other routing fields follow from the dyadic interval — so the
//! queues of a Sprinklers switch (VOQ ready queues, LSF interval queues,
//! the intermediate `(output, level)` FIFOs; see [`crate::fifo`]) hold
//! handles, not packets, and a stored body is 16 bytes: a `u32` `id` and
//! `arrival_slot`, a 30-bit `voq_seq` beside a `WIDE` and a `PADDING` flag,
//! and `u16` ports, aligned so four share a cache line.  A packet whose id
//! is `u32::MAX` or more, whose slot is 2³² or more, or whose `voq_seq` is
//! 2³⁰ or more is stored *wide*: its exact `[id, arrival_slot, voq_seq]` go
//! to a side table, and the body's `id` holds the entry's index.  A padding
//! packet is narrow only with the constants [`Packet::padding`] gives it
//! (`id`, `voq_seq` and `flow` all `u64::MAX`), which the flag implies.
//! The routing fields are zero inside a switch and stamped at delivery
//! ([`stamp_routing`](crate::stripe::stamp_routing)), so they are not stored;
//! `flow` goes to a side column (one `u64` per slot) created the first time
//! a flow is stored that the body does not imply (0 for data, `u64::MAX` for
//! padding).  [`PacketStore::take`] rebuilds the exact [`Packet`].
//!
//! Bodies live in fixed-size pages of [`PAGE_SLOTS`] packets.  The store
//! grows one page at a time, so growth never copies a resident body and
//! memory rises in 16 KiB steps instead of doubling.  A handle is a stable
//! slot number; freed slots are chained through their bodies and reused
//! most-recently-freed first, so an arrival usually overwrites the cache
//! line a delivery has just read.  Freed side-table entries are chained the
//! same way, through the table.
//!
//! The multi-switch fabric in `sprinklers-sim` keeps one store of its own for
//! the whole network by the same rule — a packet is written at injection and
//! read at its destination host — and moves [`PacketHandle::raw`] numbers
//! between nodes and links.

use crate::packet::{Packet, MAX_PORTS};

/// log₂ of the page size.
const PAGE_SHIFT: u32 = 10;

/// Packets per store page (16 KiB of bodies).
pub const PAGE_SLOTS: usize = 1 << PAGE_SHIFT;

/// Ends the free chain of bodies.
const END: u32 = u32::MAX;

/// [`Body::tag`] flag: the identity fields are in the side table.
const WIDE: u32 = 1 << 31;

/// [`Body::tag`] flag: the packet is padding.
const PADDING: u32 = 1 << 30;

/// [`Body::tag`] bits that hold a narrow body's `voq_seq`.
const SEQ_BITS: u32 = PADDING - 1;

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

/// What the store keeps of a packet.  A wide body's `id` is its side-table
/// index, and a freed body's `id` is the next slot of the free chain
/// ([`END`] ends it).  A narrow padding body keeps only its slot and ports.
#[derive(Debug, Clone, Copy, Default)]
#[repr(C, align(16))]
struct Body {
    id: u32,
    arrival_slot: u32,
    /// `voq_seq` in [`SEQ_BITS`], plus the [`WIDE`] and [`PADDING`] flags.
    tag: u32,
    input: u16,
    output: u16,
}

impl Body {
    /// The flow this body implies, which the flow column is XORed with.
    #[inline]
    fn implied_flow(&self) -> u64 {
        if self.tag & PADDING == 0 {
            0
        } else {
            u64::MAX
        }
    }
}

/// A port number as a body stores it.
#[inline]
fn narrow_port(port: usize) -> u16 {
    debug_assert!(port <= MAX_PORTS);
    // lint: allow(cast) — every switch and fabric bounds its ports by MAX_PORTS = u16::MAX
    port as u16
}

/// `(id, arrival_slot, tag)` of `packet`'s narrow body, or `None` if it
/// must be stored wide.
#[inline]
fn narrow(packet: &Packet) -> Option<(u32, u32, u32)> {
    let slot = u32::try_from(packet.arrival_slot).ok()?;
    if packet.is_padding() {
        return (packet.id == u64::MAX && packet.voq_seq == u64::MAX).then_some((0, slot, PADDING));
    }
    let id = u32::try_from(packet.id).ok().filter(|&id| id != END)?;
    let seq = u32::try_from(packet.voq_seq)
        .ok()
        .filter(|&seq| seq <= SEQ_BITS)?;
    Some((id, slot, seq))
}

/// Page-grown slab of packet bodies.
#[derive(Debug, Default)]
pub struct PacketStore {
    pages: Vec<Box<[Body]>>,
    /// Flow per slot, XORed with the flow its body implies: empty until the
    /// first flow the body does not imply is stored, as long as the
    /// capacity from then on.
    flows: Vec<u64>,
    /// Exact `[id, arrival_slot, voq_seq]` of each wide body.  A freed
    /// entry's first word is the next entry of its free chain (`u64::MAX`
    /// ends it).
    wide: Vec<[u64; 3]>,
    /// The most recently freed slot, the head of the free chain.
    free: Option<PacketHandle>,
    /// The most recently freed side-table entry.
    wide_free: Option<u32>,
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
                let next = self.body(handle).id;
                self.free = (next != END).then_some(PacketHandle(next));
                handle
            }
            None => self.fresh_slot(),
        };
        self.live += 1;
        let (id, arrival_slot, tag) = match narrow(packet) {
            Some(fields) => fields,
            None => self.insert_wide(packet),
        };
        let body = Body {
            id,
            arrival_slot,
            tag,
            input: narrow_port(packet.input()),
            output: narrow_port(packet.output()),
        };
        let flow = packet.flow ^ body.implied_flow();
        let (page, slot) = handle.position();
        self.pages[page][slot] = body;
        if flow != 0 && self.flows.is_empty() {
            self.flows.resize(self.capacity(), 0);
        }
        if let Some(column) = self.flows.get_mut(handle.0 as usize) {
            *column = flow;
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

    /// Put `packet`'s identity fields in a side-table entry, reusing the
    /// most recently freed one, and return the wide body's
    /// `(id, arrival_slot, tag)`.
    #[cold]
    fn insert_wide(&mut self, packet: &Packet) -> (u32, u32, u32) {
        let fields = [packet.id, packet.arrival_slot, packet.voq_seq];
        let index = match self.wide_free {
            Some(index) => {
                let entry = &mut self.wide[index as usize];
                self.wide_free = u32::try_from(entry[0]).ok();
                *entry = fields;
                index
            }
            None => {
                self.wide.push(fields);
                u32::try_from(self.wide.len() - 1).expect("one live handle per entry")
            }
        };
        let padding = if packet.is_padding() { PADDING } else { 0 };
        (index, 0, WIDE | padding)
    }

    /// Free side-table entry `index` and return the `[id, arrival_slot,
    /// voq_seq]` it held.
    #[cold]
    fn take_wide(&mut self, index: u32) -> [u64; 3] {
        let entry = &mut self.wide[index as usize];
        let fields = *entry;
        entry[0] = self.wide_free.map_or(u64::MAX, u64::from);
        self.wide_free = Some(index);
        fields
    }

    /// The arrival slot side-table entry `index` holds.
    #[cold]
    fn wide_slot(&self, index: u32) -> u64 {
        self.wide[index as usize][1]
    }

    /// Remove a packet: rebuild the [`Packet`] that was inserted and free
    /// the slot.  The handle (and every copy of it) is dead afterwards.
    // lint: hot-path
    #[inline]
    pub fn take(&mut self, handle: PacketHandle) -> Packet {
        let flow = self.flow(handle);
        let (page, slot) = handle.position();
        let body = self.pages[page][slot];
        self.pages[page][slot].id = self.free.map_or(END, PacketHandle::raw);
        self.free = Some(handle);
        self.live -= 1;
        let (input, output) = (usize::from(body.input), usize::from(body.output));
        if body.tag & (WIDE | PADDING) == 0 {
            return Packet::new(
                input,
                output,
                u64::from(body.id),
                u64::from(body.arrival_slot),
            )
            .with_voq_seq(u64::from(body.tag))
            .with_flow(flow);
        }
        let mut packet = if body.tag & PADDING == 0 {
            Packet::new(input, output, 0, 0)
        } else {
            Packet::padding(input, output, 0)
        };
        [packet.id, packet.arrival_slot, packet.voq_seq] = if body.tag & WIDE == 0 {
            [u64::MAX, u64::from(body.arrival_slot), u64::MAX]
        } else {
            self.take_wide(body.id)
        };
        packet.flow = flow;
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
        let mut bits = 0u32;
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
        let body = self.body(handle);
        if body.tag & WIDE == 0 {
            u64::from(body.arrival_slot)
        } else {
            self.wide_slot(body.id)
        }
    }

    /// A stored packet's flow.
    #[inline]
    pub fn flow(&self, handle: PacketHandle) -> u64 {
        let column = self.flows.get(handle.0 as usize).map_or(0, |&flow| flow);
        column ^ self.body(handle).implied_flow()
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
        assert_eq!(std::mem::size_of::<Body>(), 16);
        assert_eq!(std::mem::align_of::<Body>(), 16);
    }

    #[test]
    fn padding_and_flow_zero_data_leave_the_flow_column_unallocated() {
        let mut store = PacketStore::new();
        let padding = Packet::padding(3, 4, 7);
        let (p, d) = (store.insert(&padding), store.insert(&pkt(8)));
        assert!(store.flows.is_empty(), "every flow so far is implied");
        assert_eq!(store.flow(p), u64::MAX);
        assert_eq!(store.take(p), padding);
        let p = store.insert(&padding);
        // Padding with another flow needs the column; the padding and data
        // stored before it still read their own flows, and so does data
        // with a flow inserted after padding.
        let odd = Packet::padding(3, 4, 9).with_flow(5);
        let q = store.insert(&odd);
        assert!(!store.flows.is_empty());
        let flowing = pkt(10).with_flow(6);
        let f = store.insert(&flowing);
        assert_eq!(store.take(p), padding);
        assert_eq!(store.take(d), pkt(8));
        assert_eq!(store.take(q), odd);
        assert_eq!(store.take(f), flowing);
        let p = store.insert(&padding);
        assert_eq!(store.take(p), padding);
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

    /// A value drawn around `bound`: small, within two of it, or any `u64`.
    fn around(bound: u64, word: u64) -> u64 {
        match word % 4 {
            0 => (word >> 2) & 0xffff,
            1 | 2 => bound - 2 + (word >> 2) % 4,
            _ => word,
        }
    }

    /// Whether the store must keep `packet`'s identity in its side table.
    fn stored_wide(packet: &Packet) -> bool {
        let slot_wide = packet.arrival_slot >= 1 << 32;
        if packet.is_padding() {
            slot_wide || packet.id != u64::MAX || packet.voq_seq != u64::MAX
        } else {
            slot_wide || packet.id >= u64::from(u32::MAX) || packet.voq_seq >= 1 << 30
        }
    }

    proptest! {
        /// Random insert / take traffic against a `Vec` model: `take` returns
        /// exactly the packet `insert` stored — data or padding, any flow,
        /// ports up to `MAX_PORTS − 1`, each identity field drawn on both
        /// sides of its narrow bound (id `u32::MAX`, slot 2³², `voq_seq` 2³⁰;
        /// padding with and without its `u64::MAX` constants) — freed slots
        /// come back last-freed first, `live` counts the model's packets,
        /// page growth moves no resident body, the flow column exists once a
        /// flow its body does not imply has been stored, and the side table
        /// holds exactly as many entries as the most wide bodies live at once
        /// (freed entries are reused first).
        #[test]
        fn take_returns_what_insert_stored(
            ops in proptest::collection::vec(
                (0u32..4, 0usize..MAX_PORTS, (0u64..=u64::MAX, 0u64..=u64::MAX), 0usize..4096),
                1..3000,
            ),
            flows_from in 0usize..2000,
        ) {
            let mut store = PacketStore::new();
            let mut model: Vec<(PacketHandle, Packet)> = Vec::new();
            let mut freed: Vec<PacketHandle> = Vec::new();
            let mut fresh = 0u32;
            let mut first_body = None;
            let mut column_needed = false;
            let (mut wide_live, mut wide_most) = (0usize, 0usize);
            for (step, (op, port, (ident, shape), pick)) in ops.into_iter().enumerate() {
                if op < 3 {
                    let (input, output) = (port, MAX_PORTS - 1 - port);
                    let id = around(u64::from(u32::MAX), ident);
                    let slot = around(1 << 32, ident.rotate_left(21));
                    let seq = around(1 << 30, ident.rotate_left(42));
                    let mut packet = if shape % 4 == 0 {
                        let mut padding = Packet::padding(input, output, slot);
                        if shape & 0b1100 == 0 {
                            padding.id = id;
                        }
                        if shape & 0b11_0000 == 0 {
                            padding.voq_seq = seq;
                        }
                        padding
                    } else {
                        Packet::new(input, output, id, slot).with_voq_seq(seq)
                    };
                    if step >= flows_from {
                        let implied = packet.flow;
                        packet.flow = [implied, 0, u64::MAX, ident | 1][pick % 4];
                        column_needed |= packet.flow != implied;
                    }
                    let handle = store.insert(&packet);
                    let expected = freed.pop().unwrap_or_else(|| {
                        fresh += 1;
                        PacketHandle(fresh - 1)
                    });
                    prop_assert_eq!(handle, expected);
                    prop_assert!(handle.raw() < store.capacity() as u32);
                    first_body.get_or_insert(&store.pages[0][0] as *const Body);
                    if stored_wide(&packet) {
                        wide_live += 1;
                        wide_most = wide_most.max(wide_live);
                    }
                    model.push((handle, packet));
                } else if !model.is_empty() {
                    let (handle, packet) = model.swap_remove(pick % model.len());
                    prop_assert_eq!(store.output(handle), packet.output());
                    prop_assert_eq!(store.flow(handle), packet.flow);
                    prop_assert_eq!(store.arrival_slot(handle), packet.arrival_slot);
                    prop_assert_eq!(store.take(handle), packet.clone());
                    wide_live -= usize::from(stored_wide(&packet));
                    freed.push(handle);
                }
                prop_assert_eq!(store.live(), model.len());
                prop_assert_eq!(store.flows.is_empty(), !column_needed);
                prop_assert_eq!(store.wide.len(), wide_most);
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
