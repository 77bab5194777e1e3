//! Queue occupancy sampling.
//!
//! The simulator samples the switch's [`sprinklers_core::switch::SwitchStats`]
//! once per frame (N slots) and aggregates mean and peak occupancy per stage.
//! The intermediate-stage mean is what §5's Markov model predicts, so the
//! integration tests compare the two.

use sprinklers_core::switch::SwitchStats;

/// Aggregated occupancy statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OccupancyStats {
    /// Number of samples taken.
    pub samples: u64,
    /// Mean packets buffered at input ports.
    pub mean_input: f64,
    /// Mean packets buffered at intermediate ports.
    pub mean_intermediate: f64,
    /// Mean packets buffered at output resequencers.
    pub mean_output: f64,
    /// Peak packets buffered at input ports.
    pub peak_input: usize,
    /// Peak packets buffered at intermediate ports.
    pub peak_intermediate: usize,
    /// Peak packets buffered at output resequencers.
    pub peak_output: usize,
}

/// Streaming occupancy aggregator.
#[derive(Debug, Clone, Default)]
pub struct OccupancySampler {
    samples: u64,
    sum_input: u128,
    sum_intermediate: u128,
    sum_output: u128,
    peak_input: usize,
    peak_intermediate: usize,
    peak_output: usize,
}

impl OccupancySampler {
    /// Create an empty sampler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one snapshot of the switch's queue occupancy.
    pub fn sample(&mut self, stats: &SwitchStats) {
        self.samples += 1;
        self.sum_input += stats.queued_at_inputs as u128;
        self.sum_intermediate += stats.queued_at_intermediates as u128;
        self.sum_output += stats.queued_at_outputs as u128;
        self.peak_input = self.peak_input.max(stats.queued_at_inputs);
        self.peak_intermediate = self.peak_intermediate.max(stats.queued_at_intermediates);
        self.peak_output = self.peak_output.max(stats.queued_at_outputs);
    }

    /// Finalize into aggregate statistics.
    pub fn stats(&self) -> OccupancyStats {
        let denom = self.samples.max(1) as f64;
        OccupancyStats {
            samples: self.samples,
            mean_input: self.sum_input as f64 / denom,
            mean_intermediate: self.sum_intermediate as f64 / denom,
            mean_output: self.sum_output as f64 / denom,
            peak_input: self.peak_input,
            peak_intermediate: self.peak_intermediate,
            peak_output: self.peak_output,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(inp: usize, mid: usize, out: usize) -> SwitchStats {
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
    fn empty_sampler_reports_zeroes() {
        let s = OccupancySampler::new().stats();
        assert_eq!(s.samples, 0);
        assert_eq!(s.mean_input, 0.0);
        assert_eq!(s.peak_intermediate, 0);
    }

    #[test]
    fn means_and_peaks_are_correct() {
        let mut s = OccupancySampler::new();
        s.sample(&snap(2, 10, 0));
        s.sample(&snap(4, 20, 6));
        let stats = s.stats();
        assert_eq!(stats.samples, 2);
        assert!((stats.mean_input - 3.0).abs() < 1e-12);
        assert!((stats.mean_intermediate - 15.0).abs() < 1e-12);
        assert!((stats.mean_output - 3.0).abs() < 1e-12);
        assert_eq!(stats.peak_input, 4);
        assert_eq!(stats.peak_intermediate, 20);
        assert_eq!(stats.peak_output, 6);
    }
}
