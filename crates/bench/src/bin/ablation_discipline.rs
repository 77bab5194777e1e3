//! Ablation: how the input-port scheduling discipline (Algorithm 1 vs the
//! simplified row scan of §3.4.2) affects packet ordering and delay.
//!
//! Usage: `cargo run --release -p sprinklers-bench --bin ablation_discipline [--quick]`

use sprinklers_bench::experiments::{ablation_discipline, points_to_csv};

const USAGE: &str = "\
Ablation: how the input-port scheduling discipline (Algorithm 1 vs the row
scan of section 3.4.2) affects packet ordering and delay (uniform traffic,
N = 32).  CSV on stdout.

Usage:
  ablation_discipline [--quick]

--quick  five loads and a 30 000-slot run per point instead of ten loads
         and 200 000 slots";

fn main() {
    let quick = sprinklers_bench::cli::quick_flag(USAGE);
    eprintln!("running input-discipline ablation, quick = {quick} ...");
    let points = ablation_discipline(quick);
    println!("# Ablation: Sprinklers scheduling variants (uniform traffic, N = 32)");
    println!("# sprinklers          = StripeAtomic input (default)");
    println!("# sprinklers-rowscan  = RowScan input (work-conserving, paper §3.4.2)");
    print!("{}", points_to_csv(&points));
}
