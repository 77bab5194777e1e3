//! Windowed time series of per-frame simulation activity.
//!
//! Whole-run means hide transients: a burst that floods the intermediate
//! stage for a thousand slots and drains for ten thousand looks identical to
//! a steady trickle.  `WindowSeries` records, at every occupancy sampling
//! boundary the engine already honors (once per frame of N slots), how many
//! packets were offered, delivered and dropped *in that window* and the
//! queue occupancy at its end — so phase changes, bursts, drain behavior and
//! fault-induced delivery dips are visible in the `--metrics full` sidecar
//! without touching the CSV schema.
//!
//! The engine ends every stepping window at a sampling slot, so samples
//! are taken between the same two steps as in slot-at-a-time stepping and
//! the series — like every other report field — is byte-identical at any
//! worker count.

use sprinklers_core::switch::SwitchStats;

/// One window's activity: deltas since the previous sample plus the queue
/// occupancy snapshot at the window's end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSample {
    /// Exclusive end slot: the window covers `[previous end, end_slot)`.
    pub end_slot: u64,
    /// Packets offered to the switch during the window.
    pub offered: u64,
    /// Data packets delivered during the window.
    pub delivered: u64,
    /// Padding packets delivered during the window.
    pub padding: u64,
    /// Packets dropped by fault injection during the window (always zero
    /// for single switches and healthy fabrics).
    pub dropped: u64,
    /// Packets buffered at input ports at the window's end.
    pub queued_at_inputs: usize,
    /// Packets buffered at intermediate ports at the window's end.
    pub queued_at_intermediates: usize,
    /// Packets buffered at output resequencers at the window's end.
    pub queued_at_outputs: usize,
}

/// A run's windowed activity series.  Window sums are conserved: the deltas
/// across all samples add up exactly to the run totals (the differential
/// test in `tests/` pins this for every registry scheme).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WindowSeries {
    /// Nominal window length in slots (the sampling period, N); the final
    /// tail window may be shorter.
    stride: u64,
    samples: Vec<WindowSample>,
    last_end_slot: u64,
    last_offered: u64,
    last_delivered: u64,
    last_padding: u64,
    last_dropped: u64,
}

impl WindowSeries {
    /// Create an empty series with the given sampling stride (slots per
    /// window; the engine uses the switch size N).
    pub fn new(stride: u64) -> Self {
        WindowSeries {
            stride: stride.max(1),
            ..WindowSeries::default()
        }
    }

    /// Nominal slots per window.
    pub fn stride(&self) -> u64 {
        self.stride
    }

    /// The recorded samples, in time order.
    pub fn samples(&self) -> &[WindowSample] {
        &self.samples
    }

    /// Record the window ending at `end_slot` (exclusive) from *cumulative*
    /// run counters; the series keeps the deltas.  The drop counter rides in
    /// on `stats.total_dropped`, which is already cumulative.
    pub fn record(
        &mut self,
        end_slot: u64,
        offered_total: u64,
        delivered_total: u64,
        padding_total: u64,
        stats: &SwitchStats,
    ) {
        self.samples.push(WindowSample {
            end_slot,
            offered: offered_total - self.last_offered,
            delivered: delivered_total - self.last_delivered,
            padding: padding_total - self.last_padding,
            dropped: stats.total_dropped - self.last_dropped,
            queued_at_inputs: stats.queued_at_inputs,
            queued_at_intermediates: stats.queued_at_intermediates,
            queued_at_outputs: stats.queued_at_outputs,
        });
        self.last_end_slot = end_slot;
        self.last_offered = offered_total;
        self.last_delivered = delivered_total;
        self.last_padding = padding_total;
        self.last_dropped = stats.total_dropped;
    }

    /// Record the partial tail window at the end of a run, if it holds any
    /// activity: a run whose total slot count is not a multiple of the
    /// stride ends between sampling boundaries, and the conservation
    /// property (window sums == run totals) requires that remainder to be
    /// captured.  A quiet tail (no counter moved) is skipped so the series
    /// stays free of empty trailing entries.
    pub fn finish(
        &mut self,
        end_slot: u64,
        offered_total: u64,
        delivered_total: u64,
        padding_total: u64,
        stats: &SwitchStats,
    ) {
        let moved = offered_total != self.last_offered
            || delivered_total != self.last_delivered
            || padding_total != self.last_padding
            || stats.total_dropped != self.last_dropped;
        if end_slot > self.last_end_slot && moved {
            self.record(
                end_slot,
                offered_total,
                delivered_total,
                padding_total,
                stats,
            );
        }
    }

    /// Sum of per-window offered counts (equals the run total by
    /// construction once [`Self::finish`] has run).
    pub fn total_offered(&self) -> u64 {
        self.samples.iter().map(|s| s.offered).sum()
    }

    /// Sum of per-window delivered counts.
    pub fn total_delivered(&self) -> u64 {
        self.samples.iter().map(|s| s.delivered).sum()
    }

    /// Sum of per-window padding counts.
    pub fn total_padding(&self) -> u64 {
        self.samples.iter().map(|s| s.padding).sum()
    }

    /// Sum of per-window dropped counts.
    pub fn total_dropped(&self) -> u64 {
        self.samples.iter().map(|s| s.dropped).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(inp: usize, mid: usize, out: usize) -> SwitchStats {
        SwitchStats {
            queued_at_inputs: inp,
            queued_at_intermediates: mid,
            queued_at_outputs: out,
            total_arrivals: 0,
            total_departures: 0,
            total_dropped: 0,
        }
    }

    #[test]
    fn deltas_are_taken_between_consecutive_samples() {
        let mut w = WindowSeries::new(8);
        w.record(8, 10, 4, 0, &stats(3, 2, 1));
        w.record(16, 25, 20, 2, &stats(0, 0, 0));
        assert_eq!(w.samples().len(), 2);
        assert_eq!(w.samples()[0].offered, 10);
        assert_eq!(w.samples()[1].offered, 15);
        assert_eq!(w.samples()[1].delivered, 16);
        assert_eq!(w.samples()[1].padding, 2);
        assert_eq!(w.total_offered(), 25);
        assert_eq!(w.total_delivered(), 20);
    }

    #[test]
    fn dropped_deltas_follow_the_cumulative_counter() {
        let mut w = WindowSeries::new(8);
        let mut s = stats(0, 0, 0);
        s.total_dropped = 3;
        w.record(8, 10, 5, 0, &s);
        s.total_dropped = 7;
        w.record(16, 20, 10, 0, &s);
        assert_eq!(w.samples()[0].dropped, 3);
        assert_eq!(w.samples()[1].dropped, 4);
        assert_eq!(w.total_dropped(), 7);
        // A tail where only drops moved is still captured.
        s.total_dropped = 9;
        w.finish(19, 20, 10, 0, &s);
        assert_eq!(w.samples().len(), 3);
        assert_eq!(w.samples()[2].dropped, 2);
    }

    #[test]
    fn finish_captures_a_partial_tail_only_when_it_moved() {
        let mut w = WindowSeries::new(8);
        w.record(8, 10, 10, 0, &stats(0, 0, 0));
        // Quiet tail: nothing moved, nothing recorded.
        w.finish(11, 10, 10, 0, &stats(0, 0, 0));
        assert_eq!(w.samples().len(), 1);
        // Active tail: the remainder window is captured.
        let mut w = WindowSeries::new(8);
        w.record(8, 10, 6, 0, &stats(4, 0, 0));
        w.finish(11, 10, 10, 0, &stats(0, 0, 0));
        assert_eq!(w.samples().len(), 2);
        assert_eq!(w.samples()[1].end_slot, 11);
        assert_eq!(w.samples()[1].delivered, 4);
        assert_eq!(w.total_delivered(), 10);
    }

    #[test]
    fn finish_never_duplicates_a_boundary_sample() {
        let mut w = WindowSeries::new(4);
        w.record(4, 5, 5, 0, &stats(0, 0, 0));
        w.finish(4, 5, 5, 0, &stats(0, 0, 0));
        assert_eq!(w.samples().len(), 1);
    }

    #[test]
    fn stride_is_at_least_one() {
        assert_eq!(WindowSeries::new(0).stride(), 1);
        assert_eq!(WindowSeries::new(16).stride(), 16);
    }
}
