//! Declarative scenario specifications.
//!
//! A [`ScenarioSpec`] is the single value that describes one simulation run:
//! which scheme, how many ports, how stripe sizes are chosen, what traffic is
//! offered, how long to run, and the RNG seed.  Sweeps, benchmark binaries,
//! examples and integration tests all construct runs from this one type and
//! hand it to [`crate::engine::Engine::run`], which resolves the scheme
//! through [`crate::registry`].
//!
//! The module is split by concern: this file holds the scenario, its sizing
//! policy, its validation and [`SpecError`]; `traffic` the offered pattern
//! ([`TrafficSpec`]); `topology` the multi-switch fabric ([`TopologySpec`],
//! [`LinkSpec`], [`RoutingSpec`]); `faults` the fabric's fault schedule
//! ([`FaultSpec`]); `codec` spec files ([`ScenarioSpec::to_json`] and
//! [`ScenarioSpec::from_json`], through [`crate::json`]); and `suite` a
//! directory of spec files crossed with overrides ([`SuiteSpec`]).
//!
//! Two fields are inert: `batch` and `threads` were performance knobs that
//! never changed a result.  They are still parsed, range-checked and
//! emitted so old spec files load and cache keys do not move, but the
//! engine reads neither; the CLIs print one note when a spec sets them.

mod codec;
mod faults;
mod suite;
mod topology;
mod traffic;

pub use faults::{FaultEventSpec, FaultKind, FaultSpec, RandomFaultSpec};
pub use suite::{SuiteCase, SuiteRun, SuiteSpec};
pub use topology::{LinkSpec, RoutingSpec, TopologySpec};
pub use traffic::TrafficSpec;

use crate::engine::RunConfig;
use crate::json::JsonError;
use crate::traffic::TrafficGenerator;
use sprinklers_core::packet::MAX_PORTS;
use std::fmt;
use std::path::Path;

/// How the Sprinklers switch chooses stripe sizes in this scenario
/// (baselines ignore it).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SizingSpec {
    /// Derive sizes from the scenario traffic's rate matrix (the paper's
    /// evaluation setting, where the matrix is known a priori).
    Matrix,
    /// Measure VOQ rates online and adapt sizes with the default parameters.
    Adaptive,
    /// Fixed power-of-two stripe size for every VOQ.
    Fixed(usize),
}

/// Everything needed to reproduce one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scheme name, resolved through [`crate::registry`] (see
    /// [`crate::registry::schemes`] for the known names).
    pub scheme: String,
    /// Switch size (ports).
    pub n: usize,
    /// Stripe sizing policy (Sprinklers variants only).
    pub sizing: SizingSpec,
    /// Multi-switch fabric topology, when this scenario simulates a network
    /// of switches instead of a single one.  `None` (the default, and the
    /// only form legacy spec files can express) is the classic single-switch
    /// run.  When set, `n` is the topology's total host count and `scheme`
    /// names the per-node switch every topology node is built from.
    pub topology: Option<TopologySpec>,
    /// Deterministic fault schedule, only meaningful together with a
    /// `topology` (single switches have no links or nodes to fail; the
    /// engine rejects faults without one).  `None` — the default, and the
    /// only form legacy spec files can express — is the failure-free run.
    /// Faults are part of the scenario's scientific identity: a faulted
    /// spec hashes differently from a healthy one, so the experiment cache
    /// can never serve a healthy result for a faulted run.
    pub faults: Option<FaultSpec>,
    /// Offered traffic.
    pub traffic: TrafficSpec,
    /// Run length configuration.
    pub run: RunConfig,
    /// Seed for the switch's and the traffic generator's randomness.
    pub seed: u64,
    /// Inert: the engine picks every stepping window itself (see the
    /// `engine` module docs) and never reads this.  Still parsed,
    /// range-checked and emitted so spec files, `to_json` bytes and cache
    /// identities written while it was a knob stay valid.
    pub batch: u32,
    /// Inert like `batch`: stepping is serial and nothing in the simulator
    /// reads this.
    pub threads: u32,
}

impl ScenarioSpec {
    /// A scenario with workable defaults: matrix sizing, uniform Bernoulli
    /// traffic at 60% load, the default run length, seed 1.
    pub fn new(scheme: impl Into<String>, n: usize) -> Self {
        ScenarioSpec {
            scheme: scheme.into(),
            n,
            sizing: SizingSpec::Matrix,
            topology: None,
            faults: None,
            traffic: TrafficSpec::Uniform { load: 0.6 },
            run: RunConfig::default(),
            seed: 1,
            // The values these fields had as knobs, so `to_json` bytes and
            // cache identities stay what they were.
            batch: 64,
            threads: 1,
        }
    }

    /// Set the sizing policy.
    #[must_use]
    pub fn with_sizing(mut self, sizing: SizingSpec) -> Self {
        self.sizing = sizing;
        self
    }

    /// Set a multi-switch fabric topology (see [`TopologySpec`]).
    #[must_use]
    pub fn with_topology(mut self, topology: TopologySpec) -> Self {
        self.topology = Some(topology);
        self
    }

    /// Set a deterministic fault schedule (see [`FaultSpec`]; requires a
    /// topology to be meaningful).
    #[must_use]
    pub fn with_faults(mut self, faults: FaultSpec) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Set the traffic pattern.
    #[must_use]
    pub fn with_traffic(mut self, traffic: TrafficSpec) -> Self {
        self.traffic = traffic;
        self
    }

    /// Set the run configuration.
    #[must_use]
    pub fn with_run(mut self, run: RunConfig) -> Self {
        self.run = run;
        self
    }

    /// Set the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The seed handed to this scenario's traffic generator.  Derived from
    /// the spec seed; the engine and the `trace record` pipeline both go
    /// through here, so a recorded trace captures exactly the arrival
    /// stream the engine would have generated.
    pub fn traffic_seed(&self) -> u64 {
        self.seed.wrapping_add(1)
    }

    /// Check everything about the scenario that can be checked without
    /// building it: the port count, the topology and its fault schedule, the
    /// traffic numbers.  [`crate::engine::Engine::run`] calls this first, so
    /// a bad value from a spec file or a command line surfaces as a typed
    /// error, never as a panic inside a generator or a sizing routine.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.n < 2 {
            return Err(SpecError::new(format!(
                "port count n must be at least 2 (got {})",
                self.n
            )));
        }
        if self.n > MAX_PORTS {
            return Err(SpecError::new(format!(
                "port count n must be at most {MAX_PORTS} (got {})",
                self.n
            )));
        }
        if self.faults.is_some() && self.topology.is_none() {
            return Err(SpecError::new(
                "fault injection requires a fabric topology (single switches \
                 have no links or nodes to fail)"
                    .to_string(),
            ));
        }
        if let Some(topo) = &self.topology {
            topo.validate(self.n)?;
            if let Some(faults) = &self.faults {
                faults.validate(topo, &self.run)?;
            }
        }
        self.traffic.validate()
    }

    /// Instantiate this scenario's traffic generator (see
    /// [`Self::traffic_seed`]).
    pub fn build_traffic(&self) -> Result<Box<dyn TrafficGenerator>, SpecError> {
        self.traffic.build(self.n, self.traffic_seed())
    }

    /// Resolve any relative trace path against `base` (typically the
    /// directory of the spec file this scenario was loaded from), so specs
    /// can reference traces checked in next to them regardless of the
    /// process working directory.  Absolute paths are left untouched.
    pub fn rebase_paths(&mut self, base: &Path) {
        if let TrafficSpec::Trace { path, .. } = &mut self.traffic {
            if Path::new(path.as_str()).is_relative() && !base.as_os_str().is_empty() {
                *path = base.join(path.as_str()).to_string_lossy().into_owned();
            }
        }
    }

    /// A short human-readable summary (used in logs and CSV labels).
    pub fn label(&self) -> String {
        let base = format!(
            "{}/n={}/{}@{:.2}",
            self.scheme,
            self.n,
            self.traffic.pattern_name(),
            self.traffic.load()
        );
        match &self.topology {
            None => base,
            Some(topo) => format!("{base}/{}", topo.kind_name()),
        }
    }
}

/// Error produced when a scenario spec cannot be parsed or resolved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    message: String,
}

impl SpecError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        SpecError {
            message: message.into(),
        }
    }

    /// Prefix the error with where it happened (a scheme name, a sweep point,
    /// a spec file path), so grid and suite runners can attribute a failure
    /// to the exact run that produced it.
    #[must_use]
    pub fn context(self, ctx: impl fmt::Display) -> Self {
        SpecError {
            message: format!("{ctx}: {}", self.message),
        }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scenario spec error: {}", self.message)
    }
}

impl std::error::Error for SpecError {}

impl From<JsonError> for SpecError {
    fn from(e: JsonError) -> Self {
        SpecError::new(e.to_string())
    }
}

#[cfg(test)]
mod tests;
