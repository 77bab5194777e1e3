//! Flat grids of index queues: many FIFOs of two-word entries sharing one
//! pool of cache-line chunks.
//!
//! A Sprinklers switch has far more queues than packets — `N` VOQ ready
//! queues and `2N − 1` LSF queues at each input, `N·(log₂N+1)` output FIFOs
//! at each intermediate port — and almost all of them are empty or hold a
//! handful of entries.  A queue therefore costs its two [`Ends`] (eight
//! bytes, all zero while it is empty) and no capacity until an entry is
//! pushed; entries then live in 64-byte chunks of seven, taken from and
//! returned to the free list of the grid's pool.  A [`FifoGrid`] keeps the
//! ends of the queues it numbers in one zeroed, lazily committed array, so a
//! page of them costs memory only once one of its queues is used — the
//! intermediate stage numbers its queues level by level, and the Sprinklers
//! input stage gives each input its own range of one grid, for that reason.
//! A queue whose ends live elsewhere draws on the same pool through the
//! `_at` methods: a Sprinklers VOQ keeps its ready queue's ends in its own
//! record.  Consecutive entries of a queue share a cache line, pushes and
//! pops touch nothing but that line and the queue's ends, and a whole queue
//! can be spliced behind another in O(1) — which is how a completed stripe
//! moves from its VOQ into the LSF schedule without any of its entries being
//! touched.
//!
//! The pool keeps its chunks in fixed pages of 64 (4 KiB) and grows one page
//! at a time, as the packet store grows its bodies: growth never copies a
//! chunk, and a pool holds exactly the pages its high-water mark of chunks
//! needs.  A freed chunk goes on the free list and is handed out again
//! before the pool takes a chunk it has never used.
//!
//! An [`Entry`] is two `u32` words: usually a [`PacketHandle`] plus a tag
//! the consumer needs without reading the packet body, but a Sprinklers VOQ
//! holds its waiting packets by value (see [`crate::voq`]).  The link word
//! of a queue's tail chunk links nothing, so it holds one more word for the
//! owner, the [`tail_word`](FifoGrid::tail_word).

use crate::store::PacketHandle;

/// Entries per chunk: seven 8-byte entries and an 8-byte header fill one
/// cache line.
const CHUNK_ENTRIES: usize = 7;

/// log₂ of the chunks per pool page.
const PAGE_SHIFT: u32 = 6;

/// Chunks per pool page (4 KiB).
const PAGE_CHUNKS: usize = 1 << PAGE_SHIFT;

/// A queue entry: two words whose meaning is the queue owner's.
pub type Entry = [u32; 2];

/// One cache line of a queue: the entries `start..end`, then on to `next`.
/// Chunks on a queue's list are never empty.
#[derive(Debug, Clone, Copy)]
#[repr(C, align(64))]
struct Chunk {
    entries: [Entry; CHUNK_ENTRIES],
    /// Next chunk of the queue (or of the free list; 0 ends it).  A queue's
    /// tail chunk holds its tail word here instead.
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

/// The two ends of a queue, `[head chunk, tail chunk]`.  A head of 0 means
/// the queue is empty (its tail is then stale), so all zero is an empty
/// queue.
pub type Ends = [u32; 2];

/// A flat array of FIFO queues of [`Entry`]s, and the chunk pool of any
/// queue kept outside it.
#[derive(Debug, Clone)]
pub struct FifoGrid {
    /// The ends of queue `q` are `ends[q]`.
    ends: Vec<Ends>,
    pool: Pool,
}

/// The chunks of a grid's queues.
#[derive(Debug, Clone)]
struct Pool {
    /// Chunk `c` — numbered from 1, so that 0 can mean "none" — is chunk
    /// `(c − 1) % PAGE_CHUNKS` of page `(c − 1) / PAGE_CHUNKS`.
    pages: Vec<Box<[Chunk; PAGE_CHUNKS]>>,
    /// Chunks handed out so far: the pool's high-water mark, and the number
    /// of its last chunk.
    used: u32,
    /// Head of the free-chunk list.
    free: u32,
}
impl FifoGrid {
    /// `count` empty queues.
    pub fn new(count: usize) -> Self {
        FifoGrid {
            ends: vec![[0; 2]; count],
            pool: Pool {
                pages: Vec::new(),
                used: 0,
                free: 0,
            },
        }
    }

    /// True if queue `q` holds no entry.
    #[inline]
    pub fn is_empty(&self, q: usize) -> bool {
        self.ends[q][0] == 0
    }

    /// Append `(handle, tag)` to queue `q`.
    // lint: hot-path
    #[inline]
    pub fn push(&mut self, q: usize, handle: PacketHandle, tag: u32) {
        self.push_entry(q, [handle.raw(), tag]);
    }

    /// Append an entry to queue `q`.
    // lint: hot-path
    #[inline]
    pub fn push_entry(&mut self, q: usize, entry: Entry) {
        self.pool.push(&mut self.ends[q], entry, 0);
    }

    /// Append an entry to the queue whose ends are `ends`, and make `word`
    /// its tail word.
    // lint: hot-path
    #[inline]
    pub fn push_at(&mut self, ends: &mut Ends, entry: Entry, word: u32) {
        self.pool.push(ends, entry, word);
    }

    /// The tail word of the queue whose ends are `ends` — the `word` of its
    /// last [`push_at`](Self::push_at) or [`set_tail_word`](Self::set_tail_word)
    /// — or `None` while it is empty.  It lives in the line the next push
    /// writes.
    // lint: hot-path
    #[inline]
    pub fn tail_word(&self, ends: Ends) -> Option<u32> {
        let [head, tail] = ends;
        (head != 0).then(|| self.pool.chunk(tail).next)
    }

    /// Replace the tail word of the queue whose ends are `ends`, if it holds
    /// an entry.
    #[inline]
    pub fn set_tail_word(&mut self, ends: Ends, word: u32) {
        if ends[0] != 0 {
            self.pool.chunk_mut(ends[1]).next = word;
        }
    }

    /// Read what the next [`push_at`](Self::push_at) onto the queue whose
    /// ends are `ends` will: its tail chunk, if it has one.  Returns bits of
    /// it so the load cannot be optimized away; see
    /// [`PacketStore::warm`](crate::store::PacketStore::warm) for why a
    /// caller issues these ahead of the pushes.
    // lint: hot-path
    #[inline]
    pub fn warm_at(&self, ends: Ends) -> u64 {
        let [head, tail] = ends;
        if head == 0 {
            return 0;
        }
        u64::from(self.pool.chunk(tail).end)
    }

    /// Remove and return the oldest `(handle, tag)` of queue `q`.
    // lint: hot-path
    #[inline]
    pub fn pop(&mut self, q: usize) -> Option<(PacketHandle, u32)> {
        let [raw, tag] = self.pop_entry(q)?;
        Some((PacketHandle::from_raw(raw), tag))
    }

    /// Remove and return the oldest entry of queue `q`.
    // lint: hot-path
    #[inline]
    pub fn pop_entry(&mut self, q: usize) -> Option<Entry> {
        self.pool.pop(&mut self.ends[q])
    }

    /// Remove and return the oldest entry of the queue whose ends are
    /// `ends`.
    // lint: hot-path
    #[inline]
    pub fn pop_at(&mut self, ends: &mut Ends) -> Option<Entry> {
        self.pool.pop(ends)
    }

    /// Move everything in queue `from` behind the entries of queue `to`, in
    /// O(1) and without touching an entry.
    // lint: hot-path
    #[inline]
    pub fn splice(&mut self, from: usize, to: usize) {
        debug_assert_ne!(from, to);
        let moved = std::mem::take(&mut self.ends[from]);
        self.pool.append(moved, &mut self.ends[to]);
    }

    /// Move everything in the queue whose ends are `from` behind the entries
    /// of queue `to`, as [`splice`](Self::splice) does.
    // lint: hot-path
    #[inline]
    pub fn splice_at(&mut self, from: &mut Ends, to: usize) {
        let moved = std::mem::take(from);
        self.pool.append(moved, &mut self.ends[to]);
    }

    /// Length of queue `q`, by walking its chunks (diagnostics and tests).
    pub fn len(&self, q: usize) -> usize {
        self.len_at(self.ends[q])
    }

    /// Length of the queue whose ends are `ends`, by walking its chunks.
    pub fn len_at(&self, ends: Ends) -> usize {
        let [mut cursor, tail] = ends;
        let mut len = 0;
        while cursor != 0 {
            let chunk = self.pool.chunk(cursor);
            len += usize::from(chunk.end - chunk.start);
            cursor = if cursor == tail { 0 } else { chunk.next };
        }
        len
    }
}

impl Pool {
    /// Chunk `c` (not 0).
    #[inline]
    fn chunk(&self, c: u32) -> &Chunk {
        let index = c as usize - 1;
        &self.pages[index >> PAGE_SHIFT][index & (PAGE_CHUNKS - 1)]
    }

    /// Chunk `c` (not 0), to write.
    #[inline]
    fn chunk_mut(&mut self, c: u32) -> &mut Chunk {
        let index = c as usize - 1;
        &mut self.pages[index >> PAGE_SHIFT][index & (PAGE_CHUNKS - 1)]
    }

    // lint: hot-path
    #[inline]
    fn push(&mut self, ends: &mut Ends, entry: Entry, word: u32) {
        let [head, tail] = *ends;
        if head != 0 {
            let chunk = self.chunk_mut(tail);
            let end = usize::from(chunk.end);
            if end < CHUNK_ENTRIES {
                chunk.entries[end] = entry;
                chunk.end += 1;
                chunk.next = word;
                return;
            }
        }
        let fresh = self.take_chunk();
        let chunk = self.chunk_mut(fresh);
        chunk.entries[0] = entry;
        chunk.next = word;
        chunk.start = 0;
        chunk.end = 1;
        if head == 0 {
            *ends = [fresh, fresh];
        } else {
            self.chunk_mut(tail).next = fresh;
            ends[1] = fresh;
        }
    }

    // lint: hot-path
    #[inline]
    fn pop(&mut self, ends: &mut Ends) -> Option<Entry> {
        let [head, tail] = *ends;
        if head == 0 {
            return None;
        }
        let free = self.free;
        let chunk = self.chunk_mut(head);
        let entry = chunk.entries[usize::from(chunk.start)];
        chunk.start += 1;
        if chunk.start == chunk.end {
            ends[0] = if head == tail { 0 } else { chunk.next };
            chunk.next = free;
            self.free = head;
        }
        Some(entry)
    }

    /// Link the queue `moved` (already detached from its ends) behind `to`.
    // lint: hot-path
    #[inline]
    fn append(&mut self, moved: Ends, to: &mut Ends) {
        let [head, tail] = moved;
        if head == 0 {
            return;
        }
        if to[0] == 0 {
            *to = [head, tail];
        } else {
            self.chunk_mut(to[1]).next = head;
            to[1] = tail;
        }
    }

    /// A chunk off the free list, or the pool's next unused one when the
    /// list is empty.
    #[inline]
    fn take_chunk(&mut self) -> u32 {
        let chunk = self.free;
        if chunk != 0 {
            self.free = self.chunk(chunk).next;
            return chunk;
        }
        self.grow()
    }

    /// Hand out the next never-used chunk, adding a page when the last one
    /// is full.
    #[cold]
    fn grow(&mut self) -> u32 {
        if self.used as usize == self.pages.len() * PAGE_CHUNKS {
            self.pages.push(Box::new([EMPTY_CHUNK; PAGE_CHUNKS]));
        }
        self.used = self
            .used
            .checked_add(1)
            .expect("chunk pool outgrew u32 indices");
        self.used
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

    impl Pool {
        /// The chunks of the queue whose ends are `ends`, head first.
        fn chunks(&self, ends: Ends) -> impl Iterator<Item = &Chunk> + '_ {
            let [mut cursor, tail] = ends;
            std::iter::from_fn(move || {
                let chunk = (cursor != 0).then(|| self.chunk(cursor))?;
                cursor = if cursor == tail { 0 } else { chunk.next };
                Some(chunk)
            })
        }
    }

    impl FifoGrid {
        /// Chunks on the queue whose ends are `ends`.
        fn chunks_at(&self, ends: Ends) -> usize {
            self.pool.chunks(ends).count()
        }

        /// The entries of the queue whose ends are `ends`, oldest first.
        pub(crate) fn entries_at(&self, ends: Ends) -> impl Iterator<Item = Entry> + '_ {
            self.pool.chunks(ends).flat_map(|chunk| {
                chunk.entries[usize::from(chunk.start)..usize::from(chunk.end)]
                    .iter()
                    .copied()
            })
        }

        /// The entries of queue `q`, oldest first.
        pub(crate) fn entries(&self, q: usize) -> impl Iterator<Item = Entry> + '_ {
            self.entries_at(self.ends[q])
        }
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
        let pool = grid.pool.used;
        for k in 0..20u32 {
            grid.push(0, h(k), 0);
        }
        assert_eq!(grid.pool.used, pool, "freed chunks are reused");
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

    #[test]
    fn queues_outside_the_grid_share_its_pool() {
        let mut grid = FifoGrid::new(1);
        let mut outside: Ends = [0; 2];
        assert_eq!(grid.warm_at(outside), 0);
        assert_eq!(grid.tail_word(outside), None);
        for k in 0..10u32 {
            grid.push_at(&mut outside, [k, 0], 50 + k);
            // The word follows the tail onto each new chunk.
            assert_eq!(grid.tail_word(outside), Some(50 + k));
        }
        grid.push(0, h(100), 0);
        assert_eq!(grid.len_at(outside), 10);
        assert_eq!(
            grid.warm_at(outside),
            3,
            "the tail chunk holds 10 − 7 entries"
        );
        assert_eq!(grid.pop_at(&mut outside), Some([0, 0]));
        grid.set_tail_word(outside, 7);
        // Popping the head chunk empty leaves the tail and its word alone.
        for k in 1..7u32 {
            assert_eq!(grid.pop_at(&mut outside), Some([k, 0]));
        }
        assert_eq!(
            (grid.len_at(outside), grid.tail_word(outside)),
            (3, Some(7))
        );
        grid.push_at(&mut outside, [10, 0], 8);
        grid.splice_at(&mut outside, 0);
        assert_eq!(outside, [0; 2]);
        assert_eq!(grid.pop_at(&mut outside), None);
        let order: Vec<u32> = std::iter::from_fn(|| grid.pop(0))
            .map(|(handle, _)| handle.raw())
            .collect();
        assert_eq!(order, [100, 7, 8, 9, 10]);
        // Both queues' chunks went back to the one pool.
        let pool = grid.pool.used;
        for k in 0..14u32 {
            grid.push_at(&mut outside, [k, 0], 0);
        }
        assert_eq!(grid.pool.used, pool);
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

        /// Numbered and outside queues over a pool of at least four pages
        /// agree with `VecDeque`s under random push / pop / splice traffic,
        /// an outside queue keeps the tail word of its last push, and the pool stays as small as the traffic allows: it holds
        /// exactly the pages its high-water mark needs, and that mark is
        /// the most chunks ever on queues at once — a freed chunk is always
        /// reused before a new one is taken.
        #[test]
        fn paged_pool_agrees_with_a_vecdeque_model(
            fill in 1_800usize..2_400,
            ops in proptest::collection::vec((0u32..6, 0usize..6, 0usize..6, 1usize..13), 1..400)
        ) {
            // Queues 0..3 are the grid's; 3..6 keep their ends outside it.
            let mut grid = FifoGrid::new(3);
            let mut outside: [Ends; 3] = [[0; 2]; 3];
            let mut model: Vec<VecDeque<(u32, u32)>> = vec![VecDeque::new(); 6];
            let mut next = 0u32;
            let mut push = |grid: &mut FifoGrid, outside: &mut [Ends; 3], model: &mut [VecDeque<(u32, u32)>], q: usize| {
                let tag = next.rotate_left(7);
                if q < 3 {
                    grid.push(q, h(next), tag);
                } else {
                    grid.push_at(&mut outside[q - 3], [next, tag], next);
                }
                model[q].push_back((next, tag));
                next += 1;
            };
            let pop = |grid: &mut FifoGrid, outside: &mut [Ends; 3], q: usize| {
                let got = if q < 3 { grid.pop(q).map(|(handle, tag)| [handle.raw(), tag]) } else { grid.pop_at(&mut outside[q - 3]) };
                got.map(|[raw, tag]| (raw, tag))
            };
            for k in 0..fill {
                push(&mut grid, &mut outside, &mut model, k % 6);
            }
            prop_assert!(grid.pool.pages.len() >= 4);
            let mut most_live = grid.pool.used as usize;
            for (op, q, other, burst) in ops {
                match op {
                    0 | 1 => {
                        for _ in 0..burst {
                            push(&mut grid, &mut outside, &mut model, q);
                        }
                    }
                    2 | 3 => {
                        for _ in 0..burst {
                            prop_assert_eq!(pop(&mut grid, &mut outside, q), model[q].pop_front());
                        }
                    }
                    4 => {
                        let to = other % 3;
                        if q != to {
                            if q < 3 {
                                grid.splice(q, to);
                            } else {
                                grid.splice_at(&mut outside[q - 3], to);
                                prop_assert_eq!(outside[q - 3], [0; 2]);
                            }
                            let moved: Vec<_> = model[q].drain(..).collect();
                            model[to].extend(moved);
                        }
                    }
                    _ => {
                        while let Some(entry) = model[q].pop_front() {
                            prop_assert_eq!(pop(&mut grid, &mut outside, q), Some(entry));
                        }
                        prop_assert_eq!(pop(&mut grid, &mut outside, q), None);
                    }
                }
                let ends = |q: usize| if q < 3 { grid.ends[q] } else { outside[q - 3] };
                let mut live = 0;
                for (q, queue) in model.iter().enumerate() {
                    prop_assert_eq!(grid.len_at(ends(q)), queue.len());
                    if q >= 3 {
                        // An outside queue's tail word is its last push's.
                        prop_assert_eq!(grid.tail_word(ends(q)), queue.back().map(|e| e.0));
                    }
                    live += grid.chunks_at(ends(q));
                }
                most_live = most_live.max(live);
                prop_assert_eq!(grid.pool.used as usize, most_live);
                prop_assert_eq!(grid.pool.pages.len(), (grid.pool.used as usize).div_ceil(PAGE_CHUNKS));
            }
        }
    }
}
