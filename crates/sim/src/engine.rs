//! The simulation engine: drives any switch or fabric against any traffic
//! source and gathers metrics through the sink path.
//!
//! [`Engine::run`] resolves a [`ScenarioSpec`] through the
//! [`crate::registry`] and is the one entry point sweeps, bench binaries,
//! examples and integration tests share.  [`Engine::run_parts`] is the
//! lower-level form for callers that already hold a switch and a traffic
//! generator (trace-driven tests, hand-built variants).
//!
//! The engine is generic over [`Switch`]: a single scheme's switch, or a
//! [`crate::fabric::FabricWorld`] — a switch whose ports are hosts —
//! when the scenario carries a `topology`.  Both run through the *same*
//! loop below, so every determinism guarantee (byte-identical reports at
//! any worker count) holds for fabrics by construction.
//!
//! The engine owns one reusable arrival buffer and feeds deliveries into a
//! [`MetricsSink`], so the steady-state loop — generate arrivals, assign
//! identities, `step` the switch, update metrics — performs no per-slot heap
//! allocation.  The engine assigns packet ids and arrival slots itself; the
//! per-VOQ sequence numbers come from [`MetricsSink::stamp`], which writes
//! them through the same per-VOQ record the packets' deliveries are checked
//! against.  Outside the switch, that 4-byte record per VOQ is the run's one
//! n² table: the engine holds none of its own, the synthetic patterns'
//! matrices and samplers are closed forms, and stamping leaves the record
//! cached for the delivery a few slots later.
//!
//! # Batched stepping
//!
//! The engine drives the world through [`Switch::step_batch`] one
//! arrival-free run at a time, so long empty stretches — the entire drain
//! phase, empty slots at light load — cross the `dyn Switch` boundary once
//! instead of once per slot.  A run ends at whichever comes first:
//!
//! * the next arrival-bearing slot (its packets must be injected before the
//!   call that steps it), or
//! * the next occupancy sampling slot — every multiple of N — after which
//!   `stats()` is read between the same two steps as in a
//!   slot-at-a-time loop.
//!
//! There is no other cap, so a run is at most N slots long.  Fault events
//! need no boundary here: a fabric applies them at their slots inside its
//! own `step_batch` (`FabricWorld::idle_jump`).  How slots are split into
//! `step_batch` calls never changes a delivery, which `batch_equivalence_prop`
//! and the switch-level delivery pins check at 1 and 64 slots per call.

use crate::fabric::FabricWorld;
use crate::metrics::occupancy::OccupancySampler;
use crate::metrics::sink::MetricsSink;
use crate::metrics::window::WindowSeries;
use crate::registry;
use crate::report::SimReport;
use crate::spec::{ScenarioSpec, SpecError};
use crate::traffic::TrafficGenerator;
use sprinklers_core::packet::Packet;
use sprinklers_core::switch::Switch;

/// Parameters of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunConfig {
    /// Number of slots during which traffic is offered.
    pub slots: u64,
    /// Initial slots whose packets are excluded from the delay statistics
    /// (they still count for reordering and conservation checks).
    pub warmup_slots: u64,
    /// Additional slots simulated after arrivals stop, to let queued packets
    /// drain and be counted.
    pub drain_slots: u64,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            slots: 100_000,
            warmup_slots: 10_000,
            drain_slots: 50_000,
        }
    }
}

impl RunConfig {
    /// A short run for quick tests.
    pub fn quick() -> Self {
        RunConfig {
            slots: 10_000,
            warmup_slots: 1_000,
            drain_slots: 10_000,
        }
    }
}

/// Runs scenarios.  Reusable: one engine can run any number of scenarios,
/// reusing its internal arrival buffer across runs.
#[derive(Debug, Default)]
pub struct Engine {
    /// Reused across slots and runs so arrival generation never allocates in
    /// steady state.
    arrival_buf: Vec<Packet>,
}

impl Engine {
    /// Create an engine.
    pub fn new() -> Self {
        Engine::default()
    }

    /// Run one scenario end to end: build the world — a single registry
    /// switch, or a [`FabricWorld`] when the spec carries a topology — and
    /// the traffic generator from the spec, simulate, and report.
    pub fn run(&mut self, spec: &ScenarioSpec) -> Result<SimReport, SpecError> {
        // Validate before anything touches the values: a degenerate size or
        // an impossible load must surface as a typed spec error, not as a
        // generator or sizing panic.
        spec.validate()?;
        if let Some(topo) = &spec.topology {
            let mut traffic = spec.build_traffic()?;
            let mut world = FabricWorld::build(
                topo,
                &spec.scheme,
                &spec.sizing,
                spec.seed,
                spec.traffic.load(),
            )?;
            if let Some(faults) = spec.faults.as_ref().filter(|f| !f.is_empty()) {
                world = world.with_faults(faults, &spec.run);
            }
            let mut report = self.run_loop(&mut world, &mut traffic, spec.run);
            report.faults = world.fault_summary();
            return Ok(report);
        }
        // Build the traffic first and size the switch from the *generator's*
        // rate matrix: the analytic matrix a synthetic generator was built
        // from (stored as its few distinct entries, not as a table), or a
        // trace's, without opening and validating the file twice per run.
        let traffic = spec.build_traffic()?;
        let switch = registry::build_named(
            &spec.scheme,
            spec.n,
            &spec.sizing,
            &traffic.rate_matrix(),
            spec.seed,
        )?;
        Ok(self.run_parts(switch, traffic, spec.run))
    }

    /// Drive an explicit world (any [`Switch`]: a bare switch, a boxed
    /// one, or a fabric) against an explicit traffic generator.
    ///
    /// # Panics
    ///
    /// Panics if the world and the traffic generator disagree on the number
    /// of ports.
    pub fn run_parts<W: Switch, G: TrafficGenerator>(
        &mut self,
        mut world: W,
        mut traffic: G,
        config: RunConfig,
    ) -> SimReport {
        self.run_loop(&mut world, &mut traffic, config)
    }

    /// The driving loop shared by every entry point.  Borrows the world so
    /// callers (the faulted-fabric path) can read world state — the fault
    /// summary — after the run.
    fn run_loop<W: Switch, G: TrafficGenerator>(
        &mut self,
        world: &mut W,
        traffic: &mut G,
        config: RunConfig,
    ) -> SimReport {
        assert_eq!(
            world.n(),
            traffic.n(),
            "world has {} ports but the traffic generator targets {}",
            world.n(),
            traffic.n()
        );
        let n = world.n();
        let n_u64 = n as u64;
        let mut next_packet_id = 0u64;
        let mut sink = MetricsSink::new(config.warmup_slots, n);
        let mut occupancy = OccupancySampler::new();
        let mut windows = WindowSeries::new(n_u64);
        let mut offered = 0u64;

        // The pending arrival-free run: slots `run_start..run_start + run_len`,
        // not yet stepped.  It never spans a sampling slot, so it is at most
        // N (≤ `MAX_PORTS`) slots long.
        let total_slots = config.slots + config.drain_slots;
        let mut run_start = 0u64;
        let mut run_len = 0u32;
        let mut next_sample = 0u64;
        for slot in 0..total_slots {
            if slot < config.slots {
                self.arrival_buf.clear();
                traffic.arrivals_into(slot, &mut self.arrival_buf);
                if !self.arrival_buf.is_empty() {
                    // A packet must be injected before the call that steps
                    // its arrival slot: flush the run so far, start a new one.
                    if run_len > 0 {
                        world.step_batch(run_start, run_len, &mut sink);
                    }
                    run_start = slot;
                    run_len = 0;
                    for packet in &mut self.arrival_buf {
                        packet.id = next_packet_id;
                        next_packet_id += 1;
                        packet.arrival_slot = slot;
                    }
                    sink.stamp(&mut self.arrival_buf);
                    offered += self.arrival_buf.len() as u64;
                    // The whole slot in one call, so the world can look at
                    // all of it before it starts (and a boxed switch is
                    // entered once).
                    world.arrive_batch(&self.arrival_buf);
                }
            }
            run_len += 1;

            if slot == next_sample {
                // Occupancy is sampled after stepping every slot that is a
                // multiple of N, so the run ends here.  One stats()
                // snapshot feeds both the whole-run occupancy aggregate and
                // the windowed series, so they always agree.
                world.step_batch(run_start, run_len, &mut sink);
                run_start = slot + 1;
                run_len = 0;
                next_sample += n_u64;
                let stats = world.stats();
                occupancy.sample(&stats);
                windows.record(
                    slot + 1,
                    offered,
                    sink.delivered_packets(),
                    sink.padding_packets(),
                    &stats,
                );
            }
        }
        if run_len > 0 {
            world.step_batch(run_start, run_len, &mut sink);
        }
        // A run whose length is not a multiple of the sampling period ends
        // between boundaries; capture the active remainder so window sums
        // equal the run totals.
        let final_stats = world.stats();
        windows.finish(
            total_slots,
            offered,
            sink.delivered_packets(),
            sink.padding_packets(),
            &final_stats,
        );
        let dropped = final_stats.total_dropped;

        let totals = sink.into_parts();
        SimReport {
            switch_name: world.name().to_string(),
            traffic_label: traffic.label(),
            n,
            slots: config.slots,
            warmup_slots: config.warmup_slots,
            offered_packets: offered,
            delivered_packets: totals.delivered,
            padding_packets: totals.padding,
            residual_packets: offered - totals.delivered - dropped,
            dropped_packets: dropped,
            delay: totals.delay,
            reordering: totals.reordering,
            occupancy: occupancy.stats(),
            per_output_delivered: totals.per_output_delivered,
            windows,
            faults: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{SizingSpec, TrafficSpec};
    use crate::traffic::bernoulli::BernoulliTraffic;
    use crate::traffic::trace::TraceTraffic;
    use sprinklers_core::config::{SizingMode, SprinklersConfig};
    use sprinklers_core::sprinklers::SprinklersSwitch;

    #[test]
    fn trace_run_delivers_every_packet_in_order() {
        let n = 8;
        let traffic = TraceTraffic::burst(n, 1, 5, 0, 64);
        let switch = SprinklersSwitch::new(
            SprinklersConfig::new(n).with_sizing(SizingMode::FixedSize(4)),
            3,
        );
        let report = Engine::new().run_parts(
            switch,
            traffic,
            RunConfig {
                slots: 64,
                warmup_slots: 0,
                drain_slots: 1024,
            },
        );
        assert_eq!(report.offered_packets, 64);
        assert_eq!(report.delivered_packets, 64);
        assert_eq!(report.residual_packets, 0);
        assert!(report.reordering.is_ordered());
        assert!(report.delay.mean() >= 1.0);
    }

    #[test]
    fn bernoulli_run_is_conserving_and_ordered() {
        let n = 8;
        let gen = BernoulliTraffic::uniform(n, 0.5, 21);
        let switch = SprinklersSwitch::new(
            SprinklersConfig::new(n).with_sizing(SizingMode::FromMatrix(gen.rate_matrix())),
            4,
        );
        let report = Engine::new().run_parts(
            switch,
            gen,
            RunConfig {
                slots: 20_000,
                warmup_slots: 2_000,
                drain_slots: 20_000,
            },
        );
        assert!(
            report.reordering.is_ordered(),
            "Sprinklers must never reorder"
        );
        assert!(report.delivery_ratio() > 0.95, "most packets should drain");
        assert!(report.delay.count() > 0);
        assert!(report.occupancy.samples > 0);
    }

    #[test]
    #[should_panic]
    fn mismatched_sizes_are_rejected() {
        let gen = BernoulliTraffic::uniform(8, 0.5, 0);
        let switch = SprinklersSwitch::new(
            SprinklersConfig::new(16).with_sizing(SizingMode::FixedSize(1)),
            0,
        );
        let _ = Engine::new().run_parts(switch, gen, RunConfig::quick());
    }

    #[test]
    fn warmup_excludes_early_packets_from_delay_only() {
        let n = 4;
        let traffic = TraceTraffic::burst(n, 0, 1, 0, 10);
        let switch = SprinklersSwitch::new(
            SprinklersConfig::new(n).with_sizing(SizingMode::FixedSize(1)),
            1,
        );
        let report = Engine::new().run_parts(
            switch,
            traffic,
            RunConfig {
                slots: 10,
                warmup_slots: 1_000, // everything arrives before warm-up ends
                drain_slots: 200,
            },
        );
        assert_eq!(report.delivered_packets, 10);
        assert_eq!(
            report.delay.count(),
            0,
            "warm-up packets are not measured for delay"
        );
    }

    #[test]
    fn engine_runs_a_spec_end_to_end() {
        let spec = ScenarioSpec::new("sprinklers", 8)
            .with_traffic(TrafficSpec::Uniform { load: 0.5 })
            .with_run(RunConfig::quick())
            .with_seed(7);
        let report = Engine::new().run(&spec).unwrap();
        assert_eq!(report.switch_name, "sprinklers");
        assert_eq!(report.n, 8);
        assert!(report.offered_packets > 0);
        assert!(report.reordering.is_ordered());
        assert!(report.delivery_ratio() > 0.9);
    }

    #[test]
    fn one_engine_runs_many_scenarios() {
        let mut engine = Engine::new();
        for scheme in ["oq", "baseline-lb", "sprinklers"] {
            let spec = ScenarioSpec::new(scheme, 8)
                .with_traffic(TrafficSpec::Uniform { load: 0.4 })
                .with_run(RunConfig {
                    slots: 2_000,
                    warmup_slots: 200,
                    drain_slots: 4_000,
                });
            let report = engine.run(&spec).unwrap();
            assert!(report.delivery_ratio() > 0.9, "{scheme} stalled");
        }
    }

    #[test]
    fn engine_rejects_unknown_schemes() {
        let spec = ScenarioSpec::new("nope", 8);
        assert!(Engine::new().run(&spec).is_err());
    }

    #[test]
    fn adaptive_sizing_spec_runs() {
        let spec = ScenarioSpec::new("sprinklers", 8)
            .with_sizing(SizingSpec::Adaptive)
            .with_run(RunConfig {
                slots: 5_000,
                warmup_slots: 500,
                drain_slots: 10_000,
            });
        let report = Engine::new().run(&spec).unwrap();
        assert!(report.reordering.is_ordered());
    }
}
