//! Slotted-time simulation engine for load-balanced switches.
//!
//! This crate drives any implementation of [`sprinklers_core::switch::Switch`]
//! (the Sprinklers switch itself or any of the baselines in
//! `sprinklers-baselines`) against a configurable traffic generator, and
//! collects the metrics the paper's evaluation reports: average packet delay,
//! delay percentiles, throughput, queue occupancy and — crucially — packet
//! reordering, both per VOQ and per application flow.
//!
//! The crate is organized around four pieces:
//!
//! * [`spec::ScenarioSpec`] — a declarative description of one
//!   run: `{ scheme, n, sizing, traffic, run, seed }`, with a JSON
//!   round-trip for scenario files.  [`spec::SuiteSpec`] lifts that to a
//!   directory of spec files crossed with optional scheme/load overrides.
//! * [`registry`] — builds any scheme by name (`registry::schemes()` lists
//!   Sprinklers, its adaptive-sizing variant, and all six baselines) as a
//!   `Box<dyn Switch>`.
//! * [`engine::Engine`] — runs a spec (or an explicit switch + traffic pair)
//!   and produces a [`report::SimReport`].  Deliveries flow through the
//!   [`metrics::MetricsSink`], so the steady-state loop performs no per-slot
//!   heap allocation.
//! * [`parallel::run_specs_parallel`] — fans many specs across worker
//!   threads (one engine each) and reassembles results in submission order,
//!   so sweeps and suites are deterministic at any worker count.
//!
//! # Example
//!
//! ```
//! use sprinklers_sim::prelude::*;
//!
//! let spec = ScenarioSpec::new("sprinklers", 16)
//!     .with_traffic(TrafficSpec::Uniform { load: 0.6 })
//!     .with_run(RunConfig { slots: 5_000, warmup_slots: 500, drain_slots: 2_000 })
//!     .with_seed(42);
//! let report = Engine::new().run(&spec).unwrap();
//! assert_eq!(report.reordering.voq_reorder_events, 0);
//! assert!(report.delay.mean() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod engine;
pub mod fabric;
pub mod json;
pub mod metrics;
pub mod parallel;
pub mod registry;
pub mod report;
pub mod spec;
pub mod traffic;

/// Convenient re-exports of the most commonly used simulator types.
pub mod prelude {
    pub use crate::cache::{fnv1a_128, CachedRun, ExperimentCache};
    pub use crate::engine::{Engine, RunConfig};
    pub use crate::fabric::FabricWorld;
    pub use crate::metrics::delay::DelayStats;
    pub use crate::metrics::reorder::ReorderStats;
    pub use crate::metrics::sink::MetricsSink;
    pub use crate::parallel::{default_workers, run_specs_parallel, run_specs_parallel_ok};
    pub use crate::registry;
    pub use crate::report::{merged_csv_header, SimReport};
    pub use crate::spec::{
        FaultEventSpec, FaultKind, FaultSpec, LinkSpec, RandomFaultSpec, RoutingSpec, ScenarioSpec,
        SizingSpec, SpecError, SuiteCase, SuiteSpec, TopologySpec, TrafficSpec,
    };
    pub use crate::traffic::bernoulli::BernoulliTraffic;
    pub use crate::traffic::bursty::BurstyTraffic;
    pub use crate::traffic::flows::FlowTraffic;
    pub use crate::traffic::trace::TraceTraffic;
    pub use crate::traffic::trace_io::{
        record_spec, TraceMeta, TraceReader, TraceRecord, TraceWriter,
    };
    pub use crate::traffic::trace_stream::TraceStream;
    pub use crate::traffic::TrafficGenerator;
}

pub use engine::{Engine, RunConfig};
pub use parallel::{run_specs_parallel, run_specs_parallel_ok};
pub use report::SimReport;
pub use spec::{ScenarioSpec, SizingSpec, SpecError, SuiteCase, SuiteSpec, TrafficSpec};
pub use traffic::TrafficGenerator;
