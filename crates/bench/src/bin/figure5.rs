//! Regenerate Figure 5 of the paper: expected intermediate-stage delay (in
//! service periods) versus switch size at ρ = 0.9.
//!
//! Usage: `cargo run --release -p sprinklers-bench --bin figure5 [--quick]`

const USAGE: &str = "\
Regenerate Figure 5 of the paper: expected intermediate-stage delay (in
service periods) versus switch size at rho = 0.9, closed form and numeric.

Usage:
  figure5 [--quick]

--quick  four switch sizes instead of twelve";

fn main() {
    let quick = sprinklers_bench::cli::quick_flag(USAGE);
    println!("# Figure 5: expected delay at the intermediate stage, rho = 0.9");
    print!("{}", sprinklers_bench::experiments::figure5_csv(quick));
}
