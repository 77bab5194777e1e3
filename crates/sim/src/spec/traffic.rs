//! The offered traffic of a scenario: a synthetic pattern or a recorded
//! trace, its checks, and the generator it builds.

use super::SpecError;
use crate::traffic::bernoulli::BernoulliTraffic;
use crate::traffic::bursty::BurstyTraffic;
use crate::traffic::flows::FlowTraffic;
use crate::traffic::trace_stream::TraceStream;
use crate::traffic::TrafficGenerator;

/// The offered traffic pattern of a scenario: one of the synthetic
/// generators, or a recorded trace replayed from disk.
#[derive(Debug, Clone, PartialEq)]
pub enum TrafficSpec {
    /// Bernoulli arrivals, uniform destinations (Figure 6).
    Uniform {
        /// Offered load ρ per input.
        load: f64,
    },
    /// Bernoulli arrivals, quasi-diagonal destinations (Figure 7).
    Diagonal {
        /// Offered load ρ per input.
        load: f64,
    },
    /// Bernoulli arrivals with a hot output per input.
    Hotspot {
        /// Offered load ρ per input.
        load: f64,
        /// Fraction of each input's load aimed at its hot output.
        hot_fraction: f64,
    },
    /// On/off bursty arrivals with uniform destinations.
    Bursty {
        /// Long-run offered load ρ per input.
        load: f64,
        /// In-burst arrival probability cap.
        peak: f64,
        /// Mean burst length in slots.
        mean_burst: f64,
    },
    /// Bernoulli arrivals carrying geometric application flows (uniform
    /// destinations); required by the TCP-hashing baseline.
    Flows {
        /// Offered load ρ per input.
        load: f64,
        /// Mean flow length in packets.
        mean_flow_len: f64,
    },
    /// Replay a recorded workload trace from disk, streamed with bounded
    /// memory (see [`crate::traffic::trace_stream::TraceStream`]).
    Trace {
        /// Trace file path.  Relative paths in spec files are resolved
        /// against the spec file's directory by the loaders
        /// ([`super::ScenarioSpec::rebase_paths`]).
        path: String,
        /// Number of back-to-back copies to replay (each offset by the
        /// recorded slot span).
        repeat: u32,
        /// Time-dilation factor: recorded slots map to `floor(slot/scale)`,
        /// so `scale < 1` lowers the offered load and `scale > 1` raises it
        /// (up to inadmissible overload).  This is the knob load sweeps
        /// drive for traces ([`Self::with_load`]).
        scale: f64,
    },
}

impl TrafficSpec {
    /// A trace replay at its recorded timebase (`repeat = 1`, `scale = 1`).
    pub fn trace(path: impl Into<String>) -> Self {
        TrafficSpec::Trace {
            path: path.into(),
            repeat: 1,
            scale: 1.0,
        }
    }

    /// Check the numbers a spec file, a `--load` flag or a suite's `--loads`
    /// override put here.  The synthetic generators offer at most one packet
    /// per input per slot, so an offered load (and a hot-spot fraction) is a
    /// probability: finite and in `[0, 1]`.  A bursty source's `peak` is an
    /// in-burst arrival probability in `(0, 1]` that its long-run `load`
    /// cannot exceed, and a mean burst or flow length is at least one (slot
    /// or packet).  A trace's `scale` is checked where the file is opened.
    pub fn validate(&self) -> Result<(), SpecError> {
        let probability = |what: &str, value: f64| {
            if (0.0..=1.0).contains(&value) {
                Ok(())
            } else {
                Err(SpecError::new(format!(
                    "traffic {what} must be a finite number in [0, 1] (got {value})"
                )))
            }
        };
        let mean_length = |what: &str, value: f64| {
            if value.is_finite() && value >= 1.0 {
                Ok(())
            } else {
                Err(SpecError::new(format!(
                    "traffic {what} must be a finite number of at least 1 (got {value})"
                )))
            }
        };
        match self {
            TrafficSpec::Trace { .. } => Ok(()),
            TrafficSpec::Hotspot { load, hot_fraction } => {
                probability("load", *load)?;
                probability("hot_fraction", *hot_fraction)
            }
            TrafficSpec::Bursty {
                load,
                peak,
                mean_burst,
            } => {
                probability("load", *load)?;
                if !(*peak > 0.0 && *peak <= 1.0) {
                    return Err(SpecError::new(format!(
                        "traffic peak must be a finite number in (0, 1] (got {peak})"
                    )));
                }
                // `BurstyTraffic::new`'s own tolerance.
                if *load > peak + 1e-9 {
                    return Err(SpecError::new(format!(
                        "traffic load {load} exceeds the bursty peak rate {peak}"
                    )));
                }
                mean_length("mean_burst", *mean_burst)
            }
            TrafficSpec::Flows {
                load,
                mean_flow_len,
            } => {
                probability("load", *load)?;
                mean_length("mean_flow_len", *mean_flow_len)
            }
            synthetic => probability("load", synthetic.load()),
        }
    }

    /// Instantiate the traffic generator, after [`Self::validate`].  Trace
    /// replay can also fail on the file, which is opened and validated here.
    pub fn build(&self, n: usize, seed: u64) -> Result<Box<dyn TrafficGenerator>, SpecError> {
        self.validate()?;
        Ok(match self {
            TrafficSpec::Uniform { load } => Box::new(BernoulliTraffic::uniform(n, *load, seed)),
            TrafficSpec::Diagonal { load } => Box::new(BernoulliTraffic::diagonal(n, *load, seed)),
            TrafficSpec::Hotspot { load, hot_fraction } => {
                Box::new(BernoulliTraffic::hotspot(n, *load, *hot_fraction, seed))
            }
            TrafficSpec::Bursty {
                load,
                peak,
                mean_burst,
            } => Box::new(BurstyTraffic::uniform(n, *load, *peak, *mean_burst, seed)),
            TrafficSpec::Flows {
                load,
                mean_flow_len,
            } => Box::new(FlowTraffic::uniform(n, *load, *mean_flow_len, seed)),
            TrafficSpec::Trace {
                path,
                repeat,
                scale,
            } => Box::new(TraceStream::open(path, n, *repeat, *scale)?),
        })
    }

    /// The pattern's offered load.  For traces this is the `scale` knob —
    /// the load multiplier relative to the recorded workload.
    pub fn load(&self) -> f64 {
        match self {
            TrafficSpec::Uniform { load }
            | TrafficSpec::Diagonal { load }
            | TrafficSpec::Hotspot { load, .. }
            | TrafficSpec::Bursty { load, .. }
            | TrafficSpec::Flows { load, .. } => *load,
            TrafficSpec::Trace { scale, .. } => *scale,
        }
    }

    /// The same pattern at a different offered load (for load sweeps).  For
    /// traces the load knob is `scale`: sweeping loads over a trace sweeps
    /// its time compression.
    #[must_use]
    pub fn with_load(mut self, new_load: f64) -> Self {
        match &mut self {
            TrafficSpec::Uniform { load }
            | TrafficSpec::Diagonal { load }
            | TrafficSpec::Hotspot { load, .. }
            | TrafficSpec::Bursty { load, .. }
            | TrafficSpec::Flows { load, .. } => *load = new_load,
            TrafficSpec::Trace { scale, .. } => *scale = new_load,
        }
        self
    }

    pub(super) fn pattern_name(&self) -> &'static str {
        match self {
            TrafficSpec::Uniform { .. } => "uniform",
            TrafficSpec::Diagonal { .. } => "diagonal",
            TrafficSpec::Hotspot { .. } => "hotspot",
            TrafficSpec::Bursty { .. } => "bursty",
            TrafficSpec::Flows { .. } => "flows",
            TrafficSpec::Trace { .. } => "trace",
        }
    }
}
