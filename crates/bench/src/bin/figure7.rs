//! Regenerate Figure 7 of the paper: average delay versus load under
//! quasi-diagonal Bernoulli traffic, N = 32.
//!
//! Usage: `cargo run --release -p sprinklers-bench --bin figure7 [--quick]`

use sprinklers_bench::chart::{log_y_chart, points_to_series};
use sprinklers_bench::experiments::{figure7, points_to_csv};

const USAGE: &str = "\
Regenerate Figure 7 of the paper: average delay versus load under
quasi-diagonal Bernoulli traffic, N = 32, for baseline-lb, UFS, FOFF, Padded
Frames and Sprinklers.  CSV and a log-scale chart on stdout.

Usage:
  figure7 [--quick]

--quick  five loads and a 30 000-slot run per point instead of ten loads
         and 200 000 slots";

fn main() {
    let quick = sprinklers_bench::cli::quick_flag(USAGE);
    eprintln!("running figure 7 (quasi-diagonal traffic), quick = {quick} ...");
    let points = figure7(quick);
    println!("# Figure 7: average delay vs load, quasi-diagonal traffic, N = 32");
    print!("{}", points_to_csv(&points));
    println!();
    println!("# mean delay (slots, log scale) vs offered load:");
    print!("{}", log_y_chart(&points_to_series(&points), 60, 18));
}
