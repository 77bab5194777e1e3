//! Deterministic trace replay.
//!
//! A `TraceTraffic` generator replays an explicit list of `(slot, input,
//! output)` arrivals.  It is used by tests that need full control over the
//! arrival pattern (adversarial patterns, exact corner cases) and can also
//! replay externally captured traces.

use super::TrafficGenerator;
use sprinklers_core::matrix::TrafficMatrix;
use sprinklers_core::packet::Packet;

/// One arrival event in a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// Slot at which the packet arrives.
    pub slot: u64,
    /// Input port.
    pub input: usize,
    /// Output port.
    pub output: usize,
}

/// Replays an explicit arrival trace.
pub struct TraceTraffic {
    n: usize,
    /// Entries sorted by slot; `cursor` indexes the next entry to emit.
    entries: Vec<TraceEntry>,
    cursor: usize,
    /// Total slots spanned (used to derive the empirical rate matrix).
    horizon: u64,
}

impl TraceTraffic {
    /// Build a trace generator.  Entries are sorted by slot internally
    /// (stably: a slot's packets keep their given order).
    ///
    /// # Panics
    ///
    /// Panics if two entries put two packets on the same input in the same
    /// slot, or if a port index is out of range.
    pub fn new(n: usize, mut entries: Vec<TraceEntry>) -> Self {
        entries.sort_by_key(|e| e.slot);
        // Per input, the slot of its latest entry so far: slots only grow,
        // so a repeat is a second packet in one slot.
        let mut last_slot: Vec<Option<u64>> = vec![None; n];
        for e in &entries {
            assert!(
                e.input < n && e.output < n,
                "port out of range in trace entry {e:?}"
            );
            assert!(
                last_slot[e.input].replace(e.slot) != Some(e.slot),
                "two packets at input {} in slot {}",
                e.input,
                e.slot
            );
        }
        let horizon = entries.last().map(|e| e.slot + 1).unwrap_or(1);
        TraceTraffic {
            n,
            entries,
            cursor: 0,
            horizon,
        }
    }

    /// Convenience: a trace sending `count` back-to-back packets from `input`
    /// to `output` starting at slot `start`.
    pub fn burst(n: usize, input: usize, output: usize, start: u64, count: u64) -> Self {
        let entries = (0..count)
            .map(|k| TraceEntry {
                slot: start + k,
                input,
                output,
            })
            .collect();
        Self::new(n, entries)
    }

    /// Number of entries remaining to be emitted.
    pub fn remaining(&self) -> usize {
        self.entries.len() - self.cursor
    }
}

impl TrafficGenerator for TraceTraffic {
    fn n(&self) -> usize {
        self.n
    }

    fn arrivals_into(&mut self, slot: u64, out: &mut Vec<Packet>) {
        while self.cursor < self.entries.len() && self.entries[self.cursor].slot <= slot {
            let e = self.entries[self.cursor];
            self.cursor += 1;
            if e.slot < slot {
                // The engine skipped some slots; drop stale entries rather
                // than delivering them late (keeps arrival slots truthful).
                continue;
            }
            out.push(Packet::new(e.input, e.output, 0, slot));
        }
    }

    fn rate_matrix(&self) -> TrafficMatrix {
        let mut m = TrafficMatrix::zero(self.n);
        for e in &self.entries {
            let r = m.rate(e.input, e.output) + 1.0 / self.horizon as f64;
            m.set(e.input, e.output, r);
        }
        m
    }

    fn label(&self) -> String {
        format!("trace({} packets)", self.entries.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replays_entries_at_their_slots() {
        let mut t = TraceTraffic::new(
            4,
            vec![
                TraceEntry {
                    slot: 5,
                    input: 1,
                    output: 2,
                },
                TraceEntry {
                    slot: 2,
                    input: 0,
                    output: 3,
                },
                TraceEntry {
                    slot: 5,
                    input: 3,
                    output: 0,
                },
            ],
        );
        assert!(t.arrivals(0).is_empty());
        assert!(t.arrivals(1).is_empty());
        let a = t.arrivals(2);
        assert_eq!(a.len(), 1);
        assert_eq!((a[0].input(), a[0].output()), (0, 3));
        assert!(t.arrivals(3).is_empty());
        assert!(t.arrivals(4).is_empty());
        let a = t.arrivals(5);
        assert_eq!(a.len(), 2);
        assert_eq!(t.remaining(), 0);
    }

    #[test]
    fn burst_builder_creates_back_to_back_arrivals() {
        let mut t = TraceTraffic::burst(8, 2, 6, 10, 5);
        for slot in 10..15 {
            let a = t.arrivals(slot);
            assert_eq!(a.len(), 1);
            assert_eq!(a[0].arrival_slot, slot);
            assert_eq!((a[0].input(), a[0].output()), (2, 6));
        }
        assert!(t.arrivals(15).is_empty());
    }

    #[test]
    fn rate_matrix_reflects_the_trace() {
        let t = TraceTraffic::burst(4, 1, 2, 0, 10);
        let m = t.rate_matrix();
        assert!((m.rate(1, 2) - 1.0).abs() < 1e-9);
        assert_eq!(m.rate(0, 0), 0.0);
    }

    #[test]
    #[should_panic]
    fn rejects_double_arrival_at_one_input() {
        let _ = TraceTraffic::new(
            4,
            vec![
                TraceEntry {
                    slot: 1,
                    input: 0,
                    output: 1,
                },
                TraceEntry {
                    slot: 1,
                    input: 0,
                    output: 2,
                },
            ],
        );
    }

    /// The two packets at input 0 are not neighbours once sorted by slot.
    #[test]
    #[should_panic(expected = "two packets at input 0 in slot 5")]
    fn rejects_double_arrival_split_by_another_input() {
        let _ = TraceTraffic::new(
            4,
            [(5, 0, 1), (5, 1, 2), (5, 0, 3)]
                .map(|(slot, input, output)| TraceEntry {
                    slot,
                    input,
                    output,
                })
                .to_vec(),
        );
    }

    #[test]
    #[should_panic]
    fn rejects_out_of_range_ports() {
        let _ = TraceTraffic::new(
            4,
            vec![TraceEntry {
                slot: 0,
                input: 9,
                output: 0,
            }],
        );
    }
}
