//! Flat grids of index queues: many FIFOs of packet handles sharing one
//! pool of cache-line chunks.
//!
//! A Sprinklers port has far more queues than packets — `N` VOQ ready
//! queues and `2N − 1` LSF queues at an input, `N·(log₂N+1)` output FIFOs
//! at an intermediate — and almost all of them are
//! empty or hold a handful of entries.  A [`FifoGrid`] therefore spends eight
//! bytes on a queue (one zeroed, lazily committed array for the whole grid,
//! so a page of headers costs memory only once one of its queues is used —
//! the intermediate stage numbers its queues level by level for that reason)
//! and no capacity until a packet is pushed; entries then live in 64-byte
//! chunks of seven, taken from and returned to a free list private to the
//! grid.  Consecutive entries of a queue share a cache line, pushes and pops
//! touch nothing but that line and the queue's header, and a whole queue can
//! be spliced behind another in O(1) — which is how a completed stripe moves
//! from its VOQ into the LSF schedule without any of its entries being
//! touched.
//!
//! An entry is a [`PacketHandle`] plus one `u32` tag for whatever the queue's
//! consumer needs without reading the packet body (the input stage tags each
//! handle with its output port).

use crate::store::PacketHandle;

/// Entries per chunk: seven 8-byte entries and an 8-byte header fill one
/// cache line.
const CHUNK_ENTRIES: usize = 7;

/// Capacity of a grid's chunk pool after its first push (4 KiB).
const FIRST_CHUNKS: usize = 64;

/// One cache line of a queue: the entries `start..end`, then on to `next`.
/// Chunks on a queue's list are never empty.
#[derive(Debug, Clone, Copy)]
#[repr(C, align(64))]
struct Chunk {
    /// `[handle, tag]` pairs.
    entries: [[u32; 2]; CHUNK_ENTRIES],
    /// Next chunk of the queue (or of the free list); 0 = none.
    next: u32,
    start: u8,
    end: u8,
}

const EMPTY_CHUNK: Chunk = Chunk {
    entries: [[0; 2]; CHUNK_ENTRIES],
    next: 0,
    start: 0,
    end: 0,
};

/// A flat array of FIFO queues of `(handle, tag)` entries.
#[derive(Debug, Clone)]
pub struct FifoGrid {
    /// `[head chunk, tail chunk]` per queue; head 0 means empty (the tail is
    /// then stale).
    ends: Vec<[u32; 2]>,
    /// The chunk pool.  Chunk 0 is a placeholder so that index 0 can mean
    /// "none"; it is created with the first push.
    chunks: Vec<Chunk>,
    /// Head of the free-chunk list.
    free: u32,
}

impl FifoGrid {
    /// `count` empty queues.
    pub fn new(count: usize) -> Self {
        FifoGrid {
            ends: vec![[0; 2]; count],
            chunks: Vec::new(),
            free: 0,
        }
    }

    /// True if queue `q` holds no entry.
    #[inline]
    pub fn is_empty(&self, q: usize) -> bool {
        self.ends[q][0] == 0
    }

    /// Append an entry to queue `q`.
    // lint: hot-path
    #[inline]
    pub fn push(&mut self, q: usize, handle: PacketHandle, tag: u32) {
        let entry = [handle.raw(), tag];
        let [head, tail] = self.ends[q];
        if head != 0 {
            let chunk = &mut self.chunks[tail as usize];
            let end = usize::from(chunk.end);
            if end < CHUNK_ENTRIES {
                chunk.entries[end] = entry;
                chunk.end += 1;
                return;
            }
        }
        let fresh = self.take_chunk();
        let chunk = &mut self.chunks[fresh as usize];
        chunk.entries[0] = entry;
        chunk.next = 0;
        chunk.start = 0;
        chunk.end = 1;
        if head == 0 {
            self.ends[q] = [fresh, fresh];
        } else {
            self.chunks[tail as usize].next = fresh;
            self.ends[q][1] = fresh;
        }
    }

    /// Read what the next [`push`](Self::push) onto queue `q` will: the
    /// queue's header and, if it has one, its tail chunk.  Returns bits of
    /// both so the loads cannot be optimized away; see
    /// [`PacketStore::warm`](crate::store::PacketStore::warm) for why a
    /// caller issues these ahead of the pushes.
    // lint: hot-path
    #[inline]
    pub fn warm(&self, q: usize) -> u64 {
        let [head, tail] = self.ends[q];
        if head == 0 {
            return 0;
        }
        u64::from(self.chunks[tail as usize].end)
    }

    /// Remove and return the oldest entry of queue `q`.
    // lint: hot-path
    #[inline]
    pub fn pop(&mut self, q: usize) -> Option<(PacketHandle, u32)> {
        let head = self.ends[q][0];
        if head == 0 {
            return None;
        }
        let chunk = &mut self.chunks[head as usize];
        let [raw, tag] = chunk.entries[usize::from(chunk.start)];
        chunk.start += 1;
        if chunk.start == chunk.end {
            self.ends[q][0] = chunk.next;
            chunk.next = self.free;
            self.free = head;
        }
        Some((PacketHandle::from_raw(raw), tag))
    }

    /// Move everything in queue `from` behind the entries of queue `to`, in
    /// O(1) and without touching an entry.
    // lint: hot-path
    #[inline]
    pub fn splice(&mut self, from: usize, to: usize) {
        debug_assert_ne!(from, to);
        let [head, tail] = self.ends[from];
        if head == 0 {
            return;
        }
        self.ends[from][0] = 0;
        let [to_head, to_tail] = self.ends[to];
        if to_head == 0 {
            self.ends[to] = [head, tail];
        } else {
            self.chunks[to_tail as usize].next = head;
            self.ends[to][1] = tail;
        }
    }

    /// A chunk off the free list, growing the pool when it is empty.
    #[inline]
    fn take_chunk(&mut self) -> u32 {
        let chunk = self.free;
        if chunk != 0 {
            self.free = self.chunks[chunk as usize].next;
            return chunk;
        }
        self.grow()
    }

    /// Add one chunk to the pool (and the placeholder chunk 0 the first
    /// time).
    #[cold]
    fn grow(&mut self) -> u32 {
        if self.chunks.is_empty() {
            // One page of chunks up front: a grid that is used at all soon
            // has a few dozen short queues, and doubling from one chunk
            // would reallocate five times on the way there.
            self.chunks.reserve_exact(FIRST_CHUNKS);
            self.chunks.push(EMPTY_CHUNK);
        }
        let index = u32::try_from(self.chunks.len()).expect("chunk pool outgrew u32 indices");
        self.chunks.push(EMPTY_CHUNK);
        index
    }

    /// Length of queue `q`, by walking its chunks (diagnostics and tests).
    pub fn len(&self, q: usize) -> usize {
        let mut len = 0;
        let mut cursor = self.ends[q][0];
        while cursor != 0 {
            let chunk = &self.chunks[cursor as usize];
            len += usize::from(chunk.end - chunk.start);
            cursor = chunk.next;
        }
        len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    fn h(raw: u32) -> PacketHandle {
        PacketHandle::from_raw(raw)
    }

    #[test]
    fn a_chunk_is_one_cache_line() {
        assert_eq!(std::mem::size_of::<Chunk>(), 64);
        assert_eq!(std::mem::align_of::<Chunk>(), 64);
    }

    #[test]
    fn queues_are_first_in_first_out_across_chunk_boundaries() {
        let mut grid = FifoGrid::new(3);
        assert!(grid.is_empty(0));
        for k in 0..20u32 {
            grid.push(0, h(k), k + 100);
            grid.push(2, h(1000 + k), 0);
        }
        assert!(grid.is_empty(1));
        assert_eq!(grid.len(0), 20);
        for k in 0..20u32 {
            assert_eq!(grid.pop(0), Some((h(k), k + 100)));
        }
        assert_eq!(grid.pop(0), None);
        assert_eq!(grid.len(2), 20);
        // A drained queue accepts pushes again, reusing freed chunks.
        let pool = grid.chunks.len();
        for k in 0..20u32 {
            grid.push(0, h(k), 0);
        }
        assert_eq!(grid.chunks.len(), pool, "freed chunks are reused");
    }

    #[test]
    fn splice_moves_a_whole_queue_behind_another() {
        let mut grid = FifoGrid::new(2);
        for k in 0..3u32 {
            grid.push(1, h(k), 0);
        }
        for k in 10..20u32 {
            grid.push(0, h(k), 0);
        }
        grid.splice(0, 1);
        assert!(grid.is_empty(0));
        assert_eq!(grid.len(1), 13);
        // Pushes after a splice go behind the spliced entries.
        grid.push(1, h(99), 0);
        let order: Vec<u32> = std::iter::from_fn(|| grid.pop(1))
            .map(|(handle, _)| handle.raw())
            .collect();
        let expected: Vec<u32> = (0..3).chain(10..20).chain([99]).collect();
        assert_eq!(order, expected);
        // Splicing into an empty queue, and splicing an empty queue.
        grid.push(0, h(7), 0);
        grid.splice(0, 1);
        grid.splice(0, 1);
        assert_eq!(grid.pop(1), Some((h(7), 0)));
        assert_eq!(grid.pop(1), None);
    }

    proptest! {
        /// Random push / pop / splice traffic agrees with `VecDeque`s.
        #[test]
        fn grid_agrees_with_a_vecdeque_model(
            ops in proptest::collection::vec((0u32..5, 0usize..4, 0usize..4), 1..600)
        ) {
            let mut grid = FifoGrid::new(4);
            let mut model: Vec<VecDeque<(u32, u32)>> = vec![VecDeque::new(); 4];
            let mut next = 0u32;
            for (op, q, other) in ops {
                match op {
                    0..=2 => {
                        grid.push(q, h(next), next ^ 0x5555);
                        model[q].push_back((next, next ^ 0x5555));
                        next += 1;
                    }
                    3 => {
                        let got = grid.pop(q).map(|(handle, tag)| (handle.raw(), tag));
                        prop_assert_eq!(got, model[q].pop_front());
                    }
                    _ => {
                        if q != other {
                            grid.splice(q, other);
                            let moved: Vec<_> = model[q].drain(..).collect();
                            model[other].extend(moved);
                        }
                    }
                }
                for (q, queue) in model.iter().enumerate() {
                    prop_assert_eq!(grid.len(q), queue.len());
                    prop_assert_eq!(grid.is_empty(q), queue.is_empty());
                }
            }
        }
    }
}
