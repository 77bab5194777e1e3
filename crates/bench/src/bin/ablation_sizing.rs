//! Ablation: stripe sizing policy (matrix-driven, adaptive, fixed 1, fixed N).
//!
//! Fixed size 1 degenerates to single-path per-VOQ routing (TCP-hash-like
//! load balancing with a deterministic hash); fixed size N degenerates to
//! full-frame spreading (UFS-like accumulation delay).  The rate-proportional
//! rule of the paper sits between the two.
//!
//! Usage: `cargo run --release -p sprinklers-bench --bin ablation_sizing [--quick]`

use sprinklers_bench::cli::{fail, quick_flag};
use sprinklers_bench::experiments::{ablation_sizing_cases, run_cases};

const USAGE: &str = "\
Ablation: stripe sizing policy (matrix-driven, adaptive, fixed 1, fixed N)
under uniform traffic, N = 32.  Suite CSV on stdout.

Usage:
  ablation_sizing [--quick]

--quick  five loads and a 30 000-slot run per point instead of ten loads
         and 200 000 slots";

fn main() {
    let quick = quick_flag(USAGE);
    eprintln!("running stripe-sizing ablation, quick = {quick} ...");
    let (_, csv) =
        run_cases(&ablation_sizing_cases(quick)).unwrap_or_else(|e| fail(&e.to_string()));
    println!("# Ablation: stripe sizing policies (uniform traffic, N = 32)");
    print!("{csv}");
}
