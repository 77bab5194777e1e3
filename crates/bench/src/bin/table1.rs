//! Regenerate Table 1 of the paper: worst-case overload probability bounds.
//!
//! Usage: `cargo run --release -p sprinklers-bench --bin table1`

use sprinklers_bench::cli::{check_flags, fail};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = check_flags(&args, &[], &[]) {
        fail(&e);
    }
    println!("# Table 1: upper bound on P(single queue overloaded), Chernoff/Theorem 2");
    println!("# (the paper's own table saturates around 1e-29/1e-30; values below that");
    println!("#  are reported here at their true, much smaller, magnitude)");
    print!("{}", sprinklers_bench::experiments::table1_csv());
}
