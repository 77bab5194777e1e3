//! Ablation: how the input-port scheduling discipline (Algorithm 1 vs the
//! simplified row scan of §3.4.2) and the intermediate-port eligibility rule
//! affect packet ordering and delay.
//!
//! Usage: `cargo run --release -p sprinklers-bench --bin ablation_alignment [--quick]`

use sprinklers_bench::experiments::{ablation_alignment, points_to_csv};

const USAGE: &str = "\
Ablation: how the input-port scheduling discipline (Algorithm 1 vs the row
scan of section 3.4.2) and the intermediate-port eligibility rule affect
packet ordering and delay (uniform traffic, N = 32).  CSV on stdout.

Usage:
  ablation_alignment [--quick]

--quick  five loads and a 30 000-slot run per point instead of ten loads
         and 200 000 slots";

fn main() {
    let quick = sprinklers_bench::cli::quick_flag(USAGE);
    eprintln!("running alignment/discipline ablation, quick = {quick} ...");
    let points = ablation_alignment(quick);
    println!("# Ablation: Sprinklers scheduling variants (uniform traffic, N = 32)");
    println!("# sprinklers          = StripeAtomic input + Immediate intermediate (default)");
    println!("# sprinklers-rowscan  = RowScan input (work-conserving, paper §3.4.2)");
    println!("# sprinklers-aligned  = StripeAtomic input + StripeComplete intermediate");
    print!("{}", points_to_csv(&points));
}
