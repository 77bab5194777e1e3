//! Hierarchical port-occupancy bitsets for the sparse stepping hot path.
//!
//! Every switch in this workspace advances by one time slot by visiting its
//! ports; with plain `0..n` loops that is O(N) work per slot even when the
//! switch is almost empty — and the evaluation's most-simulated regimes (low
//! load, drain tails, sparse traces) are exactly the almost-empty ones.  An
//! [`OccupancySet`] tracks which ports currently hold work so the per-slot
//! loops can walk only the set bits: one `u64` word covers 64 ports, and
//! [`OccupancySet::next_port`] copies each word and pops its set bits with
//! `trailing_zeros`, so a step costs O(occupied ports) plus a scan for the
//! next non-zero word.  The whole-switch empty-batch elision from the
//! batched stepping work is the degenerate case: [`OccupancySet::is_empty`]
//! is a single counter read.
//!
//! That scan reads a summary level (one bit per level-0 word) maintained
//! alongside, so it costs one `trailing_zeros` per 64 words instead of a
//! pass over every empty one.
//!
//! The sets are plain indexes, deliberately decoupled from the containers
//! they summarize: a switch inserts a port when it enqueues into it and
//! removes it when a dequeue leaves the port empty.  Every walk visits ports
//! in ascending order — the same order the dense loops used, which the
//! byte-identical golden nets rely on — and a pass may freely clear the bits
//! of ports it has already visited (the walk reads a copied word).
//!
//! [`PhaseRows`] is the sharper index for a *periodic* fabric: one bit row
//! per fabric phase, so a slot walks the ports that have a packet for the
//! peer they face in that very slot instead of every port holding anything.

/// A two-level bitset over port indexes `0..n`.
///
/// Level 0 stores one bit per port in `u64` words; level 1 (`summary`)
/// stores one bit per level-0 word, set iff that word is non-zero.  For the
/// common `n ≤ 64` every operation touches a single word; the summary only
/// starts paying for itself past the 64-port word boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OccupancySet {
    n: usize,
    /// One bit per port.
    words: Vec<u64>,
    /// One bit per `words` entry (set iff the word is non-zero).
    summary: Vec<u64>,
    /// Number of set bits, kept for O(1) emptiness/len checks.
    len: usize,
}

impl OccupancySet {
    /// Create an empty set over ports `0..n`.
    pub fn new(n: usize) -> Self {
        let words = n.div_ceil(64);
        OccupancySet {
            n,
            words: vec![0; words.max(1)],
            summary: vec![0; words.max(1).div_ceil(64)],
            len: 0,
        }
    }

    /// The port-index domain this set covers.
    pub fn domain(&self) -> usize {
        self.n
    }

    /// Number of occupied ports.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no port is occupied — the whole-switch elision check.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Mark a port occupied.  Returns true if it was previously empty.
    // lint: hot-path
    #[inline]
    pub fn insert(&mut self, port: usize) -> bool {
        debug_assert!(port < self.n, "port {port} out of domain {}", self.n);
        let w = port >> 6;
        let bit = 1u64 << (port & 63);
        let word = &mut self.words[w];
        if *word & bit != 0 {
            return false;
        }
        *word |= bit;
        self.summary[w >> 6] |= 1u64 << (w & 63);
        self.len += 1;
        true
    }

    /// Mark a port empty.  Returns true if it was previously occupied.
    // lint: hot-path
    #[inline]
    pub fn remove(&mut self, port: usize) -> bool {
        debug_assert!(port < self.n, "port {port} out of domain {}", self.n);
        let w = port >> 6;
        let bit = 1u64 << (port & 63);
        let word = &mut self.words[w];
        if *word & bit == 0 {
            return false;
        }
        *word &= !bit;
        if *word == 0 {
            self.summary[w >> 6] &= !(1u64 << (w & 63));
        }
        self.len -= 1;
        true
    }

    /// True if the port is marked occupied.
    // lint: hot-path
    #[inline]
    pub fn contains(&self, port: usize) -> bool {
        debug_assert!(port < self.n);
        self.words[port >> 6] & (1u64 << (port & 63)) != 0
    }

    /// The next occupied port of the ascending walk `cursor` tracks, or
    /// `None` once the walk is past the last one; start a walk from
    /// `PortCursor::default()`.
    ///
    /// This is the step loops' walk: the cursor holds a *copy* of the word it
    /// is in and pops its set bits with `trailing_zeros` — about three
    /// instructions per occupied port — and asks the summary scan for the
    /// next non-zero word only when the copy runs out, so all-zero words
    /// (most of them, in sparse regimes) are never visited.  Because the
    /// word is a snapshot, the loop body may remove the port it was just
    /// handed (or any earlier one) and may insert into another set freely; a
    /// port inserted into *this* set mid-walk is seen only if it lands in a
    /// word the cursor has not reached yet.
    // lint: hot-path
    #[inline]
    pub fn next_port(&self, cursor: &mut PortCursor) -> Option<usize> {
        if cursor.bits == 0 {
            let w = self.next_occupied_word(cursor.end >> 6)?;
            cursor.bits = self.words[w];
            cursor.end = (w + 1) << 6;
        }
        let port = cursor.end - 64 + cursor.bits.trailing_zeros() as usize;
        cursor.bits &= cursor.bits - 1;
        Some(port)
    }

    /// The smallest index `>= from_word` of a non-zero level-0 word, or
    /// `None` — the word half of [`Self::next_port`] and
    /// [`Self::next_at_or_after`].  Walks the summary level, so a run of 64
    /// empty words costs one `trailing_zeros`.
    ///
    /// Deliberately out of line: a walk calls it once per occupied word and
    /// once at its end, and with this body inlined [`Self::next_port`]
    /// outgrows the inliner — every *port* of every walk then pays a call.
    // lint: hot-path
    #[inline(never)]
    fn next_occupied_word(&self, from_word: usize) -> Option<usize> {
        if self.len == 0 || from_word >= self.words.len() {
            return None;
        }
        let mut sw = from_word >> 6;
        let mut mask = !0u64 << (from_word & 63);
        while sw < self.summary.len() {
            let s = self.summary[sw] & mask;
            if s != 0 {
                let w = (sw << 6) + s.trailing_zeros() as usize;
                debug_assert_ne!(self.words[w], 0, "summary bit set for an empty word");
                return Some(w);
            }
            mask = !0u64;
            sw += 1;
        }
        None
    }

    /// The smallest occupied port `>= from`, or `None`.
    ///
    /// This is the hot-loop cursor: `while let Some(p) = set.next_at_or_after(i)`
    /// with `i = p + 1` visits occupied ports in ascending order, and because
    /// the set is re-read on every step the loop body may clear (or set) any
    /// bit at or before `p` without invalidating the walk.
    // lint: hot-path
    #[inline]
    pub fn next_at_or_after(&self, from: usize) -> Option<usize> {
        if self.len == 0 || from >= self.n {
            return None;
        }
        // The word containing `from`, masked to bits at or above it.
        let w0 = from >> 6;
        let word = self.words[w0] & (!0u64 << (from & 63));
        if word != 0 {
            return Some((w0 << 6) + word.trailing_zeros() as usize);
        }
        let w = self.next_occupied_word(w0 + 1)?;
        let word = self.words[w];
        debug_assert_ne!(word, 0, "summary bit set for an empty word");
        Some((w << 6) + word.trailing_zeros() as usize)
    }

    /// Iterate occupied ports in ascending order (tests, cold paths).
    pub fn iter(&self) -> Iter<'_> {
        Iter { set: self, from: 0 }
    }
}

/// Where one ascending [`OccupancySet::next_port`] or
/// [`PhaseRows::next_port`] walk stands.
#[derive(Debug, Clone, Copy, Default)]
pub struct PortCursor {
    /// Unvisited bits of the word being walked, as copied when it was entered.
    bits: u64,
    /// One past the last port of that word: where the next word starts.
    end: usize,
}

/// Which ports have something to send at each phase of a periodic fabric:
/// one flat bit row per phase, `n` rows of `⌈n/64⌉` words in one allocation
/// (8 KiB at `n = 256`).
///
/// A periodic fabric connects a port to one peer per phase, so "does this
/// port hold anything for the peer it faces now" is known when the packet is
/// enqueued, not something to probe every slot: the enqueue sets the port's
/// bit in the row of the phase that connects it to the packet's peer, the
/// dequeue that empties that peer's queues clears it, and a slot walks only
/// its own phase's row — every visit yields a packet.
///
/// Unlike [`OccupancySet`] a row carries no summary level and no length
/// counter: a row is a handful of words, and whether the whole switch is
/// empty is read from the packet counters instead.
#[derive(Debug, Clone)]
pub struct PhaseRows {
    n: usize,
    /// Words per row.
    stride: usize,
    /// Row `t` is `words[t * stride..][..stride]`.
    words: Vec<u64>,
}

impl PhaseRows {
    /// `n` all-clear rows over ports `0..n`.
    pub fn new(n: usize) -> Self {
        let stride = n.div_ceil(64).max(1);
        PhaseRows {
            n,
            stride,
            words: vec![0; n * stride],
        }
    }

    #[inline]
    fn row(&self, phase: usize) -> &[u64] {
        debug_assert!(phase < self.n, "phase {phase} out of domain {}", self.n);
        &self.words[phase * self.stride..][..self.stride]
    }

    /// Mark `port` ready at `phase`.
    // lint: hot-path
    #[inline]
    pub fn set(&mut self, phase: usize, port: usize) {
        debug_assert!(phase < self.n && port < self.n);
        self.words[phase * self.stride + (port >> 6)] |= 1u64 << (port & 63);
    }

    /// Mark `port` not ready at `phase`.
    // lint: hot-path
    #[inline]
    pub fn clear(&mut self, phase: usize, port: usize) {
        debug_assert!(phase < self.n && port < self.n);
        self.words[phase * self.stride + (port >> 6)] &= !(1u64 << (port & 63));
    }

    /// True if `port` is marked ready at `phase`.
    #[inline]
    pub fn contains(&self, phase: usize, port: usize) -> bool {
        debug_assert!(port < self.n);
        self.row(phase)[port >> 6] & (1u64 << (port & 63)) != 0
    }

    /// The next port ready at `phase` in the ascending walk `cursor` tracks
    /// (start from `PortCursor::default()`), or `None` past the last one.
    /// Like [`OccupancySet::next_port`] the cursor walks a copy of each
    /// word, so the loop body may clear the bit of the port it was handed.
    // lint: hot-path
    #[inline]
    pub fn next_port(&self, phase: usize, cursor: &mut PortCursor) -> Option<usize> {
        while cursor.bits == 0 {
            let w = cursor.end >> 6;
            cursor.bits = *self.row(phase).get(w)?;
            cursor.end += 64;
        }
        let port = cursor.end - 64 + cursor.bits.trailing_zeros() as usize;
        cursor.bits &= cursor.bits - 1;
        Some(port)
    }
}

/// Ascending iterator over the occupied ports of an [`OccupancySet`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    set: &'a OccupancySet,
    from: usize,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        let p = self.set.next_at_or_after(self.from)?;
        self.from = p + 1;
        Some(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl PhaseRows {
        /// The ports ready at `phase`, ascending.
        pub(crate) fn ports(&self, phase: usize) -> impl Iterator<Item = usize> + '_ {
            let mut cursor = PortCursor::default();
            std::iter::from_fn(move || self.next_port(phase, &mut cursor))
        }
    }

    #[test]
    fn insert_remove_contains_round_trip() {
        let mut s = OccupancySet::new(130);
        assert!(s.is_empty());
        assert!(s.insert(0));
        assert!(s.insert(129));
        assert!(!s.insert(129), "double insert reports already-present");
        assert!(s.contains(0) && s.contains(129) && !s.contains(64));
        assert_eq!(s.len(), 2);
        assert!(s.remove(0));
        assert!(!s.remove(0), "double remove reports already-absent");
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
        assert!(s.remove(129));
        assert!(s.is_empty());
    }

    #[test]
    fn cursor_walks_in_ascending_order_across_word_boundaries() {
        let mut s = OccupancySet::new(200);
        for p in [0usize, 1, 63, 64, 65, 127, 128, 199] {
            s.insert(p);
        }
        let got: Vec<usize> = s.iter().collect();
        assert_eq!(got, vec![0, 1, 63, 64, 65, 127, 128, 199]);
        let mut cursor = PortCursor::default();
        let walked: Vec<usize> = std::iter::from_fn(|| s.next_port(&mut cursor)).collect();
        assert_eq!(walked, got);
        assert_eq!(
            s.next_port(&mut cursor),
            None,
            "a finished walk stays finished"
        );
        assert_eq!(s.next_at_or_after(2), Some(63));
        assert_eq!(s.next_at_or_after(63), Some(63));
        assert_eq!(s.next_at_or_after(66), Some(127));
        assert_eq!(s.next_at_or_after(129), Some(199));
        assert_eq!(s.next_at_or_after(200), None);
    }

    #[test]
    fn clearing_visited_bits_mid_walk_is_safe() {
        let mut s = OccupancySet::new(96);
        for p in [3usize, 40, 70, 95] {
            s.insert(p);
        }
        let mut visited = Vec::new();
        let mut from = 0usize;
        while let Some(p) = s.next_at_or_after(from) {
            visited.push(p);
            s.remove(p);
            from = p + 1;
        }
        assert_eq!(visited, vec![3, 40, 70, 95]);
        assert!(s.is_empty());

        // The step loops' walk: removing the port just handed out and
        // inserting into another set both leave the walk intact.
        let mut other = OccupancySet::new(96);
        for p in [3usize, 40, 70, 95] {
            s.insert(p);
        }
        let mut visited = Vec::new();
        let mut cursor = PortCursor::default();
        while let Some(p) = s.next_port(&mut cursor) {
            visited.push(p);
            s.remove(p);
            other.insert(95 - p);
        }
        assert_eq!(visited, vec![3, 40, 70, 95]);
        assert!(s.is_empty());
        assert_eq!(other.len(), 4);
    }

    #[test]
    fn tiny_domains_work() {
        let mut s = OccupancySet::new(2);
        assert_eq!(s.next_at_or_after(0), None);
        s.insert(1);
        assert_eq!(s.next_at_or_after(0), Some(1));
        assert_eq!(s.next_at_or_after(2), None);
    }

    proptest! {
        /// The summary-word scan agrees with a brute-force model, for
        /// domains that are not multiples of 64.
        #[test]
        fn word_scan_matches_brute_force_model(
            n in 1usize..600,
            ports in proptest::collection::vec(0usize..600, 0..120),
        ) {
            let mut set = OccupancySet::new(n);
            for raw in ports {
                set.insert(raw % n);
            }
            for w in 0..=set.words.len() {
                let brute = (w..set.words.len()).find(|&i| set.words[i] != 0);
                prop_assert_eq!(set.next_occupied_word(w), brute);
            }
        }

        /// The phase rows agree with a `Vec<Vec<bool>>` model under arbitrary
        /// set/clear interleavings, with the row walk checked along the way —
        /// for one-port, sub-word, exact-word and multi-word rows.
        #[test]
        fn phase_rows_match_brute_force_model(
            size in 0usize..5,
            ops in proptest::collection::vec(
                (0usize..3, 0usize..128, 0usize..128),
                0..300,
            ),
        ) {
            let n = [1usize, 63, 64, 65, 128][size];
            let mut rows = PhaseRows::new(n);
            let mut model = vec![vec![false; n]; n];
            for (op, raw_phase, raw_port) in ops {
                let (phase, port) = (raw_phase % n, raw_port % n);
                match op {
                    0 => {
                        rows.set(phase, port);
                        model[phase][port] = true;
                    }
                    1 => {
                        rows.clear(phase, port);
                        model[phase][port] = false;
                    }
                    _ => {
                        let walked: Vec<usize> = rows.ports(phase).collect();
                        let expected: Vec<usize> =
                            (0..n).filter(|&p| model[phase][p]).collect();
                        prop_assert_eq!(walked, expected);
                    }
                }
            }
            for (phase, row) in model.iter().enumerate() {
                for (port, &ready) in row.iter().enumerate() {
                    prop_assert_eq!(rows.contains(phase, port), ready);
                }
                let expected: Vec<usize> = (0..n).filter(|&p| row[p]).collect();
                let mut walk = rows.ports(phase);
                let walked: Vec<usize> = walk.by_ref().collect();
                prop_assert_eq!(walked, expected);
                prop_assert_eq!(walk.next(), None, "a finished walk stays finished");
            }
        }

        /// The two-level bitset agrees with a brute-force `Vec<bool>` model
        /// under arbitrary insert/remove interleavings, for domains that
        /// stay inside one word and ones that cross the 64-port boundary.
        #[test]
        fn matches_brute_force_model(
            n in 1usize..200,
            ops in proptest::collection::vec((0usize..2, 0usize..200), 0..300),
        ) {
            let mut set = OccupancySet::new(n);
            let mut model = vec![false; n];
            for (op, raw) in ops {
                let insert = op == 1;
                let port = raw % n;
                if insert {
                    prop_assert_eq!(set.insert(port), !model[port]);
                    model[port] = true;
                } else {
                    prop_assert_eq!(set.remove(port), model[port]);
                    model[port] = false;
                }
                prop_assert_eq!(set.len(), model.iter().filter(|&&b| b).count());
            }
            // Every port agrees, and the cursor enumerates exactly the model.
            for (p, &occupied) in model.iter().enumerate() {
                prop_assert_eq!(set.contains(p), occupied);
            }
            let walked: Vec<usize> = set.iter().collect();
            let expected: Vec<usize> =
                (0..n).filter(|&p| model[p]).collect();
            prop_assert_eq!(&walked, &expected);
            let mut cursor = PortCursor::default();
            let stepped: Vec<usize> =
                std::iter::from_fn(|| set.next_port(&mut cursor)).collect();
            prop_assert_eq!(stepped, expected);
            // And next_at_or_after agrees with the model from every origin.
            for from in 0..=n {
                let want = (from..n).find(|&p| model[p]);
                prop_assert_eq!(set.next_at_or_after(from), want);
            }
        }
    }
}
