//! The experiment implementations behind every table and figure.
//!
//! Figures 6 and 7 and the stripe-sizing ablation are suites: each is a
//! base [`ScenarioSpec`] crossed with schemes and loads by
//! [`SuiteSpec::expand`], run by [`run_specs_parallel_ok`] and printed by
//! [`merge_csv_rows`] — the three calls the `suite` binary makes, so a
//! figure's rows are the suite CSV of its base spec.  Table 1 and Figure 5
//! are analytical and simulate nothing.

use sprinklers_analysis::{chernoff, markov};
use sprinklers_sim::engine::RunConfig;
use sprinklers_sim::parallel::run_specs_parallel_ok;
use sprinklers_sim::report::{merge_csv_rows, SimReport};
use sprinklers_sim::spec::{
    ScenarioSpec, SizingSpec, SpecError, SuiteCase, SuiteSpec, TrafficSpec,
};

/// Switch size used by the paper's delay simulations (§6).
pub const PAPER_N: usize = 32;

/// The five schemes compared in Figures 6 and 7.
pub const PAPER_SCHEMES: [&str; 5] = ["baseline-lb", "ufs", "foff", "padded-frames", "sprinklers"];

/// The load grid of Figures 6 and 7.
pub fn paper_loads(quick: bool) -> Vec<f64> {
    if quick {
        vec![0.1, 0.3, 0.5, 0.7, 0.9]
    } else {
        vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95]
    }
}

/// Simulation length used by the figure experiments.
pub fn paper_run_config(quick: bool) -> RunConfig {
    if quick {
        RunConfig {
            slots: 30_000,
            warmup_slots: 5_000,
            drain_slots: 30_000,
        }
    } else {
        RunConfig {
            slots: 200_000,
            warmup_slots: 30_000,
            drain_slots: 120_000,
        }
    }
}

/// Figure 6 (`name` "figure6", uniform `traffic`) or Figure 7 ("figure7",
/// quasi-diagonal): a Sprinklers base spec at N = 32, seed 2014, crossed
/// with [`PAPER_SCHEMES`] and [`paper_loads`], schemes outermost.  Each
/// case replaces the load of `traffic`.
pub fn figure_cases(name: &str, traffic: TrafficSpec, quick: bool) -> Vec<SuiteCase> {
    let base = ScenarioSpec::new("sprinklers", PAPER_N)
        .with_traffic(traffic)
        .with_run(paper_run_config(quick))
        .with_seed(2014);
    SuiteSpec::default()
        .with_schemes(PAPER_SCHEMES.map(String::from).to_vec())
        .with_loads(paper_loads(quick))
        .expand(name, &base)
}

/// The stripe-sizing ablation under uniform traffic, N = 32, seed 7: one
/// Sprinklers base spec per sizing (matrix-driven, adaptive, and the
/// degenerate fixed sizes 1 and N), each crossed with [`paper_loads`].
pub fn ablation_sizing_cases(quick: bool) -> Vec<SuiteCase> {
    let loads = SuiteSpec::default().with_loads(paper_loads(quick));
    [
        ("sizing-matrix", SizingSpec::Matrix),
        ("sizing-adaptive", SizingSpec::Adaptive),
        ("sizing-fixed-1", SizingSpec::Fixed(1)),
        ("sizing-fixed-n", SizingSpec::Fixed(PAPER_N)),
    ]
    .into_iter()
    .flat_map(|(stem, sizing)| {
        let base = ScenarioSpec::new("sprinklers", PAPER_N)
            .with_sizing(sizing)
            .with_run(paper_run_config(quick))
            .with_seed(7);
        loads.expand(stem, &base)
    })
    .collect()
}

/// Run `cases` with one worker per core and return their reports, in case
/// order, with the merged suite CSV.  The earliest failing case's error is
/// returned instead.
pub fn run_cases(cases: &[SuiteCase]) -> Result<(Vec<SimReport>, String), SpecError> {
    let specs: Vec<ScenarioSpec> = cases.iter().map(|case| case.spec.clone()).collect();
    let reports = run_specs_parallel_ok(&specs, 0)?;
    let csv = merge_csv_rows(
        cases
            .iter()
            .zip(&reports)
            .map(|(case, report)| (case.name.as_str(), report.csv_row())),
    );
    Ok((reports, csv))
}

/// Table 1 as CSV: the single-queue overload bound for the paper's grid of
/// loads and switch sizes, plus the switch-wide union bound.
pub fn table1_csv() -> String {
    let mut out = String::from("rho,n,log10_bound,bound,log10_switch_wide,switch_wide\n");
    for row in chernoff::table1() {
        out.push_str(&format!(
            "{:.2},{},{:.3},{:.3e},{:.3},{:.3e}\n",
            row.rho,
            row.n,
            row.log_bound / std::f64::consts::LN_10,
            row.bound,
            row.log_switch_wide / std::f64::consts::LN_10,
            row.switch_wide,
        ));
    }
    out
}

/// Figure 5 as CSV: expected intermediate-stage delay (in periods) versus
/// switch size at ρ = 0.9, from both the closed form and the numerical
/// stationary distribution.
pub fn figure5_csv(quick: bool) -> String {
    let sizes: Vec<usize> = if quick {
        vec![8, 32, 128, 512]
    } else {
        vec![8, 16, 32, 64, 128, 256, 384, 512, 640, 768, 896, 1024]
    };
    let rho = 0.9;
    let mut out = String::from("n,expected_delay_closed_form,expected_delay_numeric,p99_numeric\n");
    for &n in &sizes {
        let closed = markov::expected_queue_length(n, rho);
        // The numerical chain gets expensive for very large N; cap it.
        let (numeric, p99) = if n <= 512 {
            let model = markov::IntermediateDelayModel::solve(n, rho);
            (model.mean_queue_length(), model.percentile(0.99) as f64)
        } else {
            (f64::NAN, f64::NAN)
        };
        out.push_str(&format!("{n},{closed:.1},{numeric:.1},{p99:.0}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_csv_has_24_data_rows() {
        let csv = table1_csv();
        assert_eq!(csv.lines().count(), 25);
        assert!(csv.contains("0.93,2048"));
    }

    #[test]
    fn figure5_csv_matches_closed_form_shape() {
        let csv = figure5_csv(true);
        assert!(csv.lines().count() >= 4);
        // Delay grows with N.
        let rows: Vec<f64> = csv
            .lines()
            .skip(1)
            .map(|l| l.split(',').nth(1).unwrap().parse().unwrap())
            .collect();
        assert!(rows.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn paper_schemes_are_all_registered() {
        for scheme in PAPER_SCHEMES {
            assert!(
                sprinklers_sim::registry::schemes().contains(&scheme),
                "{scheme}"
            );
        }
    }

    /// Write each case stem's spec (its first case; the suite's overrides
    /// replace its scheme and load) as `<stem>.json` into a fresh directory
    /// and load that directory back as a suite over the paper's loads and,
    /// if `schemes`, its schemes.
    fn reload_as_suite(
        tag: &str,
        cases: &[SuiteCase],
        schemes: bool,
        quick: bool,
    ) -> Vec<SuiteCase> {
        let dir = std::env::temp_dir().join(format!(
            "sprinklers-figure-suite-{}-{tag}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        for case in cases {
            let stem = case.name.split(['+', '@']).next().unwrap();
            let path = dir.join(format!("{stem}.json"));
            if !path.exists() {
                std::fs::write(path, case.spec.to_json()).unwrap();
            }
        }
        let mut suite = SuiteSpec::new(&dir).with_loads(paper_loads(quick));
        if schemes {
            suite = suite.with_schemes(PAPER_SCHEMES.map(String::from).to_vec());
        }
        let loaded = suite.load_cases();
        std::fs::remove_dir_all(&dir).unwrap();
        loaded.unwrap()
    }

    #[test]
    fn figures_are_suites_of_their_base_specs() {
        for quick in [true, false] {
            for (name, traffic) in [
                ("figure6", TrafficSpec::Uniform { load: 0.5 }),
                ("figure7", TrafficSpec::Diagonal { load: 0.5 }),
            ] {
                let cases = figure_cases(name, traffic, quick);
                assert_eq!(cases.len(), 5 * paper_loads(quick).len());
                assert_eq!(cases[0].name, format!("{name}+baseline-lb@0.1"));
                let tag = format!("{name}-{quick}");
                assert_eq!(reload_as_suite(&tag, &cases, true, quick), cases, "{tag}");
            }
        }
    }

    #[test]
    fn the_sizing_ablation_is_a_suite_of_four_base_specs() {
        for quick in [true, false] {
            let mut cases = ablation_sizing_cases(quick);
            assert_eq!(cases.len(), 4 * paper_loads(quick).len());
            assert_eq!(cases[0].name, "sizing-matrix@0.1");
            let mut loaded = reload_as_suite(&format!("ablation-{quick}"), &cases, false, quick);
            // A suite directory runs its files in name order; the ablation
            // lists its variants matrix first.
            cases.sort_by(|a, b| a.name.cmp(&b.name));
            loaded.sort_by(|a, b| a.name.cmp(&b.name));
            assert_eq!(loaded, cases);
        }
    }

    #[test]
    fn a_grid_point_produces_a_consistent_report() {
        let run = RunConfig {
            slots: 4_000,
            warmup_slots: 500,
            drain_slots: 4_000,
        };
        let spec = ScenarioSpec::new("sprinklers", 16)
            .with_traffic(TrafficSpec::Uniform { load: 0.4 })
            .with_run(run)
            .with_seed(5);
        let case = SuiteCase {
            name: "point".into(),
            spec,
        };
        let (reports, csv) = run_cases(&[case]).unwrap();
        let report = &reports[0];
        assert_eq!(report.n, 16);
        assert!(report.reordering.is_ordered());
        assert!(report.delivery_ratio() > 0.9);
        // One suite row under the suite header, column counts matching.
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[1], format!("point,{}", report.csv_row()));
        assert_eq!(lines[0].split(',').count(), lines[1].split(',').count());
    }

    #[test]
    fn an_unknown_scheme_is_an_error() {
        let case = SuiteCase {
            name: "bad".into(),
            spec: ScenarioSpec::new("does-not-exist", 8).with_run(RunConfig::quick()),
        };
        let err = run_cases(&[case]).unwrap_err();
        assert!(err.to_string().contains("does-not-exist"), "{err}");
    }
}
