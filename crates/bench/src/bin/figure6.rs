//! Regenerate Figure 6 of the paper: average delay versus load under uniform
//! Bernoulli traffic, N = 32, for the baseline load-balanced switch, UFS,
//! FOFF, Padded Frames and Sprinklers.
//!
//! Usage: `cargo run --release -p sprinklers-bench --bin figure6 [--quick]`

use sprinklers_bench::chart::{log_y_chart, points_to_series};
use sprinklers_bench::cli::{fail, quick_flag};
use sprinklers_bench::experiments::{figure_cases, run_cases};
use sprinklers_sim::spec::TrafficSpec;

const USAGE: &str = "\
Regenerate Figure 6 of the paper: average delay versus load under uniform
Bernoulli traffic, N = 32, for baseline-lb, UFS, FOFF, Padded Frames and
Sprinklers.  Suite CSV and a log-scale chart on stdout.

Usage:
  figure6 [--quick]

--quick  five loads and a 30 000-slot run per point instead of ten loads
         and 200 000 slots";

fn main() {
    let quick = quick_flag(USAGE);
    eprintln!("running figure 6 (uniform traffic), quick = {quick} ...");
    let cases = figure_cases("figure6", TrafficSpec::Uniform { load: 0.5 }, quick);
    let (reports, csv) = run_cases(&cases).unwrap_or_else(|e| fail(&e.to_string()));
    println!("# Figure 6: average delay vs load, uniform traffic, N = 32");
    print!("{csv}");
    println!();
    println!("# mean delay (slots, log scale) vs offered load:");
    print!(
        "{}",
        log_y_chart(&points_to_series(&cases, &reports), 60, 18)
    );
}
