//! Ablation: how the input-port scheduling discipline (Algorithm 1 vs the
//! simplified row scan of §3.4.2) and the intermediate-port eligibility rule
//! affect packet ordering and delay.
//!
//! Usage: `cargo run --release -p sprinklers-bench --bin ablation_alignment [--quick]`

use sprinklers_bench::experiments::{ablation_alignment, points_to_csv};

fn main() {
    let quick = sprinklers_bench::cli::quick_flag();
    eprintln!("running alignment/discipline ablation, quick = {quick} ...");
    let points = ablation_alignment(quick);
    println!("# Ablation: Sprinklers scheduling variants (uniform traffic, N = 32)");
    println!("# sprinklers          = StripeAtomic input + Immediate intermediate (default)");
    println!("# sprinklers-rowscan  = RowScan input (work-conserving, paper §3.4.2)");
    println!("# sprinklers-aligned  = StripeAtomic input + StripeComplete intermediate");
    print!("{}", points_to_csv(&points));
}
