//! Golden snapshot tests for the suite runner's merged CSV.
//!
//! `tests/fixtures/smoke_quick.csv` is the checked-in output of running the
//! `specs/smoke` suite with the quick run configuration (exactly what the CI
//! smoke jobs execute).  Reproducing it byte for byte pins *every* number
//! the metrics pipeline emits — delays, percentiles, reorder counts,
//! occupancy — so any future hot-path change that silently perturbs
//! simulation results (a hoisted computation that drifts by one slot, a
//! resequencer probed at the wrong time) fails loudly here instead of
//! shipping as a quiet scientific regression.  Two wide single runs
//! (n = 256 and 1 024) are pinned beside it, by row and metrics hash.
//!
//! To regenerate after an *intentional* semantic change:
//!
//! ```text
//! cargo run --release -p sprinklers-bench --bin suite -- \
//!     --dir specs/smoke --quick --out tests/fixtures/smoke_quick.csv
//! ```

use sprinklers_sim::cache::fnv1a_128;
use sprinklers_sim::engine::{Engine, RunConfig};
use sprinklers_sim::parallel::run_specs_parallel;
use sprinklers_sim::report::{merge_csv_rows, SimReport};
use sprinklers_sim::spec::{ScenarioSpec, SuiteSpec, TrafficSpec};

const GOLDEN: &str = include_str!("../fixtures/smoke_quick.csv");

fn smoke_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../specs/smoke")
}

/// Run the smoke suite exactly as `suite --dir specs/smoke --quick` does.
fn run_suite(suite: SuiteSpec, workers: usize) -> String {
    let mut cases = suite.load_cases().expect("specs/smoke loads");
    for case in &mut cases {
        case.spec.run = RunConfig::quick();
    }
    let specs: Vec<ScenarioSpec> = cases.iter().map(|c| c.spec.clone()).collect();
    let reports: Vec<SimReport> = run_specs_parallel(&specs, workers)
        .into_iter()
        .collect::<Result<_, _>>()
        .expect("every smoke case runs");
    merge_csv_rows(
        cases
            .iter()
            .map(|c| c.name.as_str())
            .zip(reports.iter().map(SimReport::csv_row)),
    )
}

#[test]
fn smoke_suite_reproduces_the_golden_csv() {
    for workers in [1, 2] {
        let csv = run_suite(SuiteSpec::new(smoke_dir()), workers);
        assert_eq!(
            csv, GOLDEN,
            "merged CSV diverged from tests/fixtures/smoke_quick.csv at \
             workers={workers}; if the change is intentional, regenerate the \
             fixture (see module docs)"
        );
    }
}

/// Two runs wider than any smoke spec, pinned by their CSV row and the
/// FNV-1a 128 hash of their full metrics JSON.  The smoke suite stays at
/// n ≤ 16, where an arrival-free run always ends at the next sampling slot
/// within 16 slots; here sampling is every 256 or 1 024 slots, so the drain
/// phase is stepped in runs hundreds of slots long.  Captured when the
/// engine still cut every run at 64 slots.
#[test]
fn wide_switches_reproduce_their_pinned_reports() {
    let cases = [
        (
            "sprinklers",
            256,
            0.05,
            12_000,
            "sprinklers,bernoulli-diagonal(rho=0.05),256,12000,153713,65568,5602.680,\
             5584,10137,10874,12032,0,0,697.48",
            0xd169a7d7990f234c457361aa1f3e509b_u128,
        ),
        (
            "oq",
            1_024,
            0.01,
            1_000,
            "oq,bernoulli-diagonal(rho=0.01),1024,1000,10275,10275,1.005,1,1,1,2,0,0,0.00",
            0xf28cca762102e9a59dd7ccd54cd169c8,
        ),
    ];
    for (scheme, n, load, slots, row, metrics_hash) in cases {
        let spec = ScenarioSpec::new(scheme, n)
            .with_traffic(TrafficSpec::Diagonal { load })
            .with_run(RunConfig {
                slots,
                warmup_slots: 100,
                drain_slots: 12_000,
            })
            .with_seed(2014);
        let report = Engine::new().run(&spec).expect("the wide spec runs");
        assert_eq!(report.csv_row(), row, "{scheme} at n = {n}: CSV row moved");
        assert_eq!(
            fnv1a_128(report.metrics_json().as_bytes()),
            metrics_hash,
            "{scheme} at n = {n}: metrics JSON moved"
        );
    }
}
