//! Regenerate Table 1 of the paper: worst-case overload probability bounds.
//!
//! Usage: `cargo run --release -p sprinklers-bench --bin table1`

use sprinklers_bench::cli::{check_flags, exit_on_help, fail};

const USAGE: &str = "\
Regenerate Table 1 of the paper: worst-case upper bounds on the probability
that a single queue is overloaded (Chernoff / Theorem 2), as CSV on stdout.

Usage:
  table1";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    exit_on_help(&args, USAGE);
    if let Err(e) = check_flags(&args, &[], &[]) {
        fail(&e);
    }
    println!("# Table 1: upper bound on P(single queue overloaded), Chernoff/Theorem 2");
    println!("# (the paper's own table saturates around 1e-29/1e-30; values below that");
    println!("#  are reported here at their true, much smaller, magnitude)");
    print!("{}", sprinklers_bench::experiments::table1_csv());
}
