//! Thread-sharded scenario execution.
//!
//! The paper's headline figures are scheme × load grids — dozens of
//! independent simulation runs — and a [`crate::engine::Engine`] run touches
//! nothing but its own switch, traffic generator and metrics.  This module
//! exploits that independence: [`run_specs_parallel`] fans a slice of
//! [`ScenarioSpec`]s out across a pool of worker threads (one engine per
//! worker, self-scheduling work pickup so fast runs steal slack from slow
//! ones) and reassembles the results **in submission order**, so the output
//! is byte-for-byte identical no matter how many workers ran it.
//!
//! Determinism is the load-bearing property here: every scenario's RNG is
//! seeded from its spec alone, workers share nothing but the read-only spec
//! slice, and reassembly is positional — the `determinism` integration test
//! pins all of this down.

use crate::engine::Engine;
use crate::report::SimReport;
use crate::spec::{ScenarioSpec, SpecError};
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// The worker count used when a caller passes `workers == 0`: one per
/// available hardware thread (falling back to 1 when the platform cannot
/// say).
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Run every spec, sharded across `workers` OS threads (`0` = one worker per
/// core).  Each worker owns one [`Engine`] for its whole lifetime, so the
/// engine's arrival buffer is reused across the runs that land on it.
///
/// The returned vector is in **submission order** — `result[i]` always
/// belongs to `specs[i]` — regardless of worker count or completion order,
/// and per-run results are bitwise independent of scheduling (each run is
/// seeded purely from its spec).  A failing spec yields its own `Err` slot;
/// the other runs still complete.
pub fn run_specs_parallel(
    specs: &[ScenarioSpec],
    workers: usize,
) -> Vec<Result<SimReport, SpecError>> {
    let workers = if workers == 0 {
        default_workers()
    } else {
        workers
    }
    .min(specs.len().max(1));

    if workers <= 1 {
        // Serial fast path: same engine reuse, no thread or channel overhead.
        let mut engine = Engine::new();
        return specs.iter().map(|spec| engine.run(spec)).collect();
    }

    // Self-scheduling pool: a shared atomic cursor is the work queue, so an
    // idle worker always takes the next unclaimed spec (cheap work stealing
    // without per-worker deques), and a channel carries `(index, result)`
    // pairs back for positional reassembly.
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, Result<SimReport, SpecError>)>();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            scope.spawn(move || {
                let mut engine = Engine::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    match specs.get(i) {
                        Some(spec) => {
                            // The receiver outlives the scope; a send can only
                            // fail if the main thread panicked, in which case
                            // the scope is unwinding anyway.
                            let _ = tx.send((i, engine.run(spec)));
                        }
                        None => break,
                    }
                }
            });
        }
        drop(tx);

        let mut slots: Vec<Option<Result<SimReport, SpecError>>> =
            (0..specs.len()).map(|_| None).collect();
        for (i, result) in rx {
            slots[i] = Some(result);
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("every submitted spec produces exactly one result"))
            .collect()
    })
}

/// Like [`run_specs_parallel`], but collapses the per-spec results into one
/// `Result`: on failure, the error of the **earliest submitted** failing spec
/// is returned (with its label as context), so error reporting is as
/// deterministic as the success path.
pub fn run_specs_parallel_ok(
    specs: &[ScenarioSpec],
    workers: usize,
) -> Result<Vec<SimReport>, SpecError> {
    specs
        .iter()
        .zip(run_specs_parallel(specs, workers))
        .map(|(spec, result)| result.map_err(|e| e.context(spec.label())))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::RunConfig;
    use crate::spec::TrafficSpec;

    fn grid() -> Vec<ScenarioSpec> {
        let mut specs = Vec::new();
        for scheme in ["oq", "baseline-lb", "sprinklers"] {
            for load in [0.2, 0.5, 0.8] {
                specs.push(
                    ScenarioSpec::new(scheme, 8)
                        .with_traffic(TrafficSpec::Uniform { load })
                        .with_run(RunConfig {
                            slots: 1_500,
                            warmup_slots: 150,
                            drain_slots: 3_000,
                        })
                        .with_seed(9),
                );
            }
        }
        specs
    }

    #[test]
    fn results_come_back_in_submission_order() {
        let specs = grid();
        let results = run_specs_parallel(&specs, 4);
        assert_eq!(results.len(), specs.len());
        for (spec, result) in specs.iter().zip(&results) {
            let report = result.as_ref().unwrap();
            assert_eq!(report.switch_name, spec.scheme, "order scrambled");
            assert_eq!(report.n, spec.n);
        }
    }

    #[test]
    fn worker_count_does_not_change_the_reports() {
        let specs = grid();
        let serial = run_specs_parallel(&specs, 1);
        for workers in [2, 4, 0] {
            let parallel = run_specs_parallel(&specs, workers);
            for (a, b) in serial.iter().zip(&parallel) {
                let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
                assert_eq!(a.csv_row(), b.csv_row(), "workers={workers} diverged");
            }
        }
    }

    #[test]
    fn metrics_sidecar_is_identical_at_any_worker_count() {
        // The CSV row summarises; the metrics JSON exposes every counter,
        // the full delay histogram and the windowed series.  All of it must
        // be scheduling-invariant, not just the 14 summary columns.
        let specs = grid();
        let serial = run_specs_parallel(&specs, 1);
        for workers in [3, 0] {
            let parallel = run_specs_parallel(&specs, workers);
            for (a, b) in serial.iter().zip(&parallel) {
                let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
                assert_eq!(
                    a.metrics_json(),
                    b.metrics_json(),
                    "workers={workers} diverged"
                );
            }
        }
    }

    #[test]
    fn failures_stay_in_their_slot() {
        let mut specs = grid();
        specs[4].scheme = "no-such-scheme".into();
        let results = run_specs_parallel(&specs, 3);
        for (i, result) in results.iter().enumerate() {
            if i == 4 {
                let e = result.as_ref().unwrap_err().to_string();
                assert!(e.contains("no-such-scheme"), "{e}");
            } else {
                assert!(result.is_ok(), "spec {i} should have run");
            }
        }
    }

    #[test]
    fn collapsed_form_reports_the_earliest_failure_with_context() {
        let mut specs = grid();
        specs[7].scheme = "late-bogus".into();
        specs[2].scheme = "early-bogus".into();
        let err = run_specs_parallel_ok(&specs, 4).unwrap_err().to_string();
        assert!(err.contains("early-bogus"), "{err}");
        assert!(!err.contains("late-bogus"), "{err}");
    }

    #[test]
    fn empty_and_single_spec_inputs_work() {
        assert!(run_specs_parallel(&[], 8).is_empty());
        let one = [ScenarioSpec::new("oq", 4).with_run(RunConfig {
            slots: 500,
            warmup_slots: 0,
            drain_slots: 1_000,
        })];
        let results = run_specs_parallel(&one, 8);
        assert_eq!(results.len(), 1);
        assert!(results[0].is_ok());
    }

    #[test]
    fn default_workers_is_positive() {
        assert!(default_workers() >= 1);
    }
}
