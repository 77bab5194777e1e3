//! The determinism net for the parallel executor.
//!
//! The parallel sweep's contract is that the merged CSV is *byte-identical*
//! no matter how many workers ran it and how the OS scheduled them — the
//! whole reproduction depends on figure runs being replayable.  These tests
//! pin that down at the layers a regression could creep in: raw spec
//! execution (`run_specs_parallel_ok`) and the suite-level merged CSV the
//! `suite` binary emits, over a scheme × load grid and an override pair.

use sprinklers_sim::engine::RunConfig;
use sprinklers_sim::parallel::run_specs_parallel_ok;
use sprinklers_sim::report::{merge_csv_rows, SimReport};
use sprinklers_sim::spec::{ScenarioSpec, SuiteSpec, TrafficSpec};

/// A small but non-trivial scheme × load grid: ordered and unordered
/// schemes, loads low and near saturation.
fn grid_base() -> ScenarioSpec {
    ScenarioSpec::new("sprinklers", 8)
        .with_run(RunConfig {
            slots: 2_500,
            warmup_slots: 250,
            drain_slots: 5_000,
        })
        .with_seed(2014)
}

const GRID_SCHEMES: [&str; 4] = ["sprinklers", "oq", "baseline-lb", "foff"];
const GRID_LOADS: [f64; 3] = [0.2, 0.6, 0.9];

fn merged_grid_csv(workers: usize) -> String {
    let cases = SuiteSpec::new("unused")
        .with_schemes(GRID_SCHEMES.map(String::from).to_vec())
        .with_loads(GRID_LOADS.to_vec())
        .expand("grid", &grid_base());
    let specs: Vec<ScenarioSpec> = cases.iter().map(|c| c.spec.clone()).collect();
    let reports = run_specs_parallel_ok(&specs, workers).unwrap();
    merge_csv_rows(
        cases
            .iter()
            .map(|c| c.name.as_str())
            .zip(reports.iter().map(SimReport::csv_row)),
    )
}

#[test]
fn csv_is_byte_identical_at_one_and_four_workers() {
    let w1 = merged_grid_csv(1);
    let w4 = merged_grid_csv(4);
    assert!(w1.lines().count() > GRID_SCHEMES.len(), "grid actually ran");
    assert_eq!(w1, w4, "worker count changed the merged CSV");
}

#[test]
fn csv_is_byte_identical_across_repeated_runs() {
    // Two fresh runs at the same worker count: no hidden global state (RNG,
    // engine reuse, iteration order) may leak between runs.
    let first = merged_grid_csv(4);
    let second = merged_grid_csv(4);
    assert_eq!(first, second, "repeated runs diverged");
}

#[test]
fn raw_parallel_execution_is_order_stable() {
    // Below the suite layer: run_specs_parallel itself must put every report
    // in its submission slot at any worker count.
    let specs: Vec<ScenarioSpec> = (0..6)
        .map(|i| {
            ScenarioSpec::new(if i % 2 == 0 { "oq" } else { "foff" }, 8)
                .with_traffic(TrafficSpec::Uniform {
                    load: 0.2 + 0.1 * i as f64,
                })
                .with_run(RunConfig {
                    slots: 1_000,
                    warmup_slots: 100,
                    drain_slots: 2_000,
                })
                .with_seed(i as u64)
        })
        .collect();
    let baseline = run_specs_parallel_ok(&specs, 1).unwrap();
    for workers in [2, 3, 4] {
        let runs = run_specs_parallel_ok(&specs, workers).unwrap();
        for (i, (a, b)) in baseline.iter().zip(&runs).enumerate() {
            assert_eq!(
                a.csv_row(),
                b.csv_row(),
                "spec {i} diverged at workers={workers}"
            );
        }
    }
}

#[test]
fn suite_expansion_plus_parallel_run_is_deterministic() {
    // End-to-end shape of the `suite` binary: expand overrides, run, merge.
    let base = grid_base();
    let suite = SuiteSpec::new("unused")
        .with_schemes(vec!["sprinklers".into(), "padded-frames".into()])
        .with_loads(vec![0.3, 0.8]);
    let cases = suite.expand("det", &base);
    assert_eq!(cases.len(), 4);
    let specs: Vec<ScenarioSpec> = cases.iter().map(|c| c.spec.clone()).collect();

    let reports_w1 = run_specs_parallel_ok(&specs, 1).unwrap();
    let reports_w4 = run_specs_parallel_ok(&specs, 4).unwrap();
    let csv_w1 = merge_csv_rows(
        cases
            .iter()
            .map(|c| c.name.as_str())
            .zip(reports_w1.iter().map(SimReport::csv_row)),
    );
    let csv_w4 = merge_csv_rows(
        cases
            .iter()
            .map(|c| c.name.as_str())
            .zip(reports_w4.iter().map(SimReport::csv_row)),
    );
    assert_eq!(csv_w1, csv_w4);
    // Case labels make every row attributable.
    for case in &cases {
        assert!(csv_w1.contains(&case.name), "missing case {}", case.name);
    }
}
