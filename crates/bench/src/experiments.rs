//! The experiment implementations behind every table and figure.
//!
//! All simulation experiments are expressed as [`ScenarioSpec`]s and executed
//! by the suite executor ([`run_specs_parallel_ok`]), so a figure is nothing
//! more than a grid of specs plus CSV formatting.

use sprinklers_analysis::chernoff;
use sprinklers_analysis::markov;
use sprinklers_sim::engine::RunConfig;
use sprinklers_sim::parallel::run_specs_parallel_ok;
use sprinklers_sim::report::SimReport;
use sprinklers_sim::spec::{ScenarioSpec, SizingSpec, TrafficSpec};

/// Switch size used by the paper's delay simulations (§6).
pub const PAPER_N: usize = 32;

/// The traffic patterns of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficKind {
    /// Uniform destinations (Figure 6).
    Uniform,
    /// Quasi-diagonal destinations (Figure 7).
    Diagonal,
}

impl TrafficKind {
    /// The equivalent declarative [`TrafficSpec`].
    pub fn spec(&self, rho: f64) -> TrafficSpec {
        match self {
            TrafficKind::Uniform => TrafficSpec::Uniform { load: rho },
            TrafficKind::Diagonal => TrafficSpec::Diagonal { load: rho },
        }
    }
}

/// The five schemes compared in Figures 6 and 7.
pub const PAPER_SCHEMES: [&str; 5] = ["baseline-lb", "ufs", "foff", "padded-frames", "sprinklers"];

/// The scenario spec of one experiment point.
pub fn point_spec(
    scheme: &str,
    n: usize,
    load: f64,
    kind: TrafficKind,
    run: RunConfig,
    seed: u64,
) -> ScenarioSpec {
    ScenarioSpec::new(scheme, n)
        .with_traffic(kind.spec(load))
        .with_run(run)
        .with_seed(seed)
}

/// One data point of a delay-vs-load experiment.
#[derive(Debug, Clone)]
pub struct SchemePoint {
    /// Scheme name (or ablation variant label).
    pub scheme: String,
    /// Offered load.
    pub load: f64,
    /// The full simulation report.
    pub report: SimReport,
}

impl SchemePoint {
    /// CSV header shared by the figure binaries.
    pub fn csv_header() -> &'static str {
        "scheme,load,mean_delay,p50_delay,p99_delay,max_delay,voq_reorders,flow_reorders,\
         delivered,offered,padding"
    }

    /// One CSV row.
    pub fn csv_row(&self) -> String {
        format!(
            "{},{:.2},{:.2},{},{},{},{},{},{},{},{}",
            self.scheme,
            self.load,
            self.report.delay.mean(),
            self.report.delay.percentile(0.5),
            self.report.delay.percentile(0.99),
            self.report.delay.max(),
            self.report.reordering.voq_reorder_events,
            self.report.reordering.flow_reorder_events,
            self.report.delivered_packets,
            self.report.offered_packets,
            self.report.padding_packets,
        )
    }
}

/// Run a grid of `(label, load)` points, one spec each, on the suite
/// executor with one worker per core.  Points come back in grid order.
///
/// # Panics
///
/// Panics if any spec fails to run (the earliest failing one is named).
fn run_grid(points: Vec<(String, f64)>, specs: &[ScenarioSpec]) -> Vec<SchemePoint> {
    let reports = run_specs_parallel_ok(specs, 0).unwrap_or_else(|e| panic!("{e}"));
    points
        .into_iter()
        .zip(reports)
        .map(|((scheme, load), report)| SchemePoint {
            scheme,
            load,
            report,
        })
        .collect()
}

/// Delay-vs-load grid of the paper's figures, N = 32: every scheme of
/// [`PAPER_SCHEMES`] at every load of [`paper_loads`], schemes outermost.
fn paper_grid(kind: TrafficKind, quick: bool) -> Vec<SchemePoint> {
    let run = paper_run_config(quick);
    let mut points = Vec::new();
    let mut specs = Vec::new();
    for scheme in PAPER_SCHEMES {
        for load in paper_loads(quick) {
            points.push((scheme.to_string(), load));
            specs.push(point_spec(scheme, PAPER_N, load, kind, run, 2014));
        }
    }
    run_grid(points, &specs)
}

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

/// Figure 6: average delay versus load under uniform traffic, N = 32.
pub fn figure6(quick: bool) -> Vec<SchemePoint> {
    paper_grid(TrafficKind::Uniform, quick)
}

/// Figure 7: average delay versus load under quasi-diagonal traffic, N = 32.
pub fn figure7(quick: bool) -> Vec<SchemePoint> {
    paper_grid(TrafficKind::Diagonal, quick)
}

/// Ablation: matrix-driven sizing vs adaptive (measured-rate) sizing vs the
/// degenerate fixed sizes 1 and N.
pub fn ablation_sizing(quick: bool) -> Vec<SchemePoint> {
    let n = PAPER_N;
    let run = paper_run_config(quick);
    let variants: [(&str, SizingSpec); 4] = [
        ("sizing-matrix", SizingSpec::Matrix),
        ("sizing-adaptive", SizingSpec::Adaptive),
        ("sizing-fixed-1", SizingSpec::Fixed(1)),
        ("sizing-fixed-n", SizingSpec::Fixed(n)),
    ];
    let mut points = Vec::new();
    let mut specs = Vec::new();
    for load in paper_loads(quick) {
        for (name, sizing) in variants {
            points.push((name.to_string(), load));
            specs.push(
                point_spec("sprinklers", n, load, TrafficKind::Uniform, run, 7).with_sizing(sizing),
            );
        }
    }
    run_grid(points, &specs)
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

/// Render a set of [`SchemePoint`]s as CSV.
pub fn points_to_csv(points: &[SchemePoint]) -> String {
    let mut out = String::from(SchemePoint::csv_header());
    out.push('\n');
    for p in points {
        out.push_str(&p.csv_row());
        out.push('\n');
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

    #[test]
    #[should_panic]
    fn unknown_scheme_panics() {
        let spec = point_spec(
            "does-not-exist",
            8,
            0.5,
            TrafficKind::Uniform,
            RunConfig::quick(),
            1,
        );
        let _ = run_grid(vec![("does-not-exist".into(), 0.5)], &[spec]);
    }

    #[test]
    fn a_grid_point_produces_a_consistent_report() {
        let run = RunConfig {
            slots: 4_000,
            warmup_slots: 500,
            drain_slots: 4_000,
        };
        let spec = point_spec("sprinklers", 16, 0.4, TrafficKind::Uniform, run, 5);
        let p = run_grid(vec![("sprinklers".into(), 0.4)], &[spec]).remove(0);
        assert_eq!(p.scheme, "sprinklers");
        assert_eq!(p.report.n, 16);
        assert!(p.report.reordering.is_ordered());
        assert!(p.report.delivery_ratio() > 0.9);
        // CSV row matches the header's column count.
        assert_eq!(
            p.csv_row().split(',').count(),
            SchemePoint::csv_header().split(',').count()
        );
    }

    #[test]
    fn point_spec_round_trips_through_json() {
        let spec = point_spec(
            "foff",
            32,
            0.8,
            TrafficKind::Diagonal,
            paper_run_config(true),
            2014,
        );
        assert_eq!(ScenarioSpec::from_json(&spec.to_json()).unwrap(), spec);
    }
}
