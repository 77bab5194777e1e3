//! Reproduce the anatomy of stripe-interval generation from §3.3 of the
//! paper (the setting of Fig. 2): show how the N VOQs of one input port are
//! mapped to primary intermediate ports by a weakly uniform random OLS, how
//! the stripe-size rule turns VOQ rates into dyadic stripe intervals, and how
//! the resulting load spreads over the intermediate ports.
//!
//! Run with:
//! ```text
//! cargo run --release -p sprinklers-bench --example stripe_anatomy -- [n] [seed]
//! ```

use sprinklers_core::dyadic::DyadicInterval;
use sprinklers_core::ols::WeaklyUniformOls;
use sprinklers_core::rng::SimRng;
use sprinklers_core::sizing::{load_per_share, stripe_size};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let n: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(8);
    let seed: u64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(2014);
    assert!(n.is_power_of_two(), "N must be a power of two");

    let mut rng = SimRng::seed_from_u64(seed);
    let ols = WeaklyUniformOls::random(n, &mut rng);

    // Draw some random VOQ rates for input port 0 (normalized so they sum to
    // ~0.9) — in a real switch these would be measured or known a priori.
    let raw: Vec<f64> = (0..n).map(|_| rng.unit_f64()).collect();
    let total: f64 = raw.iter().sum();
    let rates: Vec<f64> = raw.iter().map(|r| 0.9 * r / total).collect();

    println!("stripe intervals for the {n} VOQs of input port 0 (load 0.9)");
    println!(
        "{:>4} {:>9} {:>8} {:>7} {:>12} {:>14}",
        "VOQ", "rate", "primary", "size", "interval", "load/share"
    );
    let mut port_load = vec![0.0f64; n];
    for (output, &rate) in rates.iter().enumerate() {
        let primary = ols.primary_port(0, output);
        let size = stripe_size(rate, n);
        let interval = DyadicInterval::containing(primary, size);
        for p in interval.ports() {
            port_load[p] += rate / size as f64;
        }
        println!(
            "{output:>4} {rate:>9.4} {primary:>8} {size:>7} {:>12} {:>14.5}",
            interval.to_string(),
            load_per_share(rate, n),
        );
    }

    println!();
    println!(
        "resulting load on each intermediate port (ideal would be {:.4}):",
        0.9 / n as f64
    );
    for (p, load) in port_load.iter().enumerate() {
        let bar = "#".repeat((load * n as f64 * 40.0).round() as usize);
        println!("  port {p:>3}: {load:.4} {bar}");
    }

    println!();
    println!(
        "every row and column of the OLS is a permutation: {}",
        ols.is_valid()
    );
}
