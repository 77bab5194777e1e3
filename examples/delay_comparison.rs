//! Compare the average delay and ordering behaviour of every scheme at one
//! operating point — a single column of the paper's Figure 6/7.
//!
//! Run with (all arguments optional):
//! ```text
//! cargo run --release -p sprinklers-bench --example delay_comparison -- [load] [uniform|diagonal] [n]
//! ```

use sprinklers_bench::experiments::PAPER_SCHEMES;
use sprinklers_sim::engine::{Engine, RunConfig};
use sprinklers_sim::spec::{ScenarioSpec, TrafficSpec};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let load: f64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(0.6);
    let (pattern, traffic) = match args.get(2).map(String::as_str) {
        Some("diagonal") => ("diagonal", TrafficSpec::Diagonal { load }),
        _ => ("uniform", TrafficSpec::Uniform { load }),
    };
    let n: usize = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(32);

    println!("delay comparison at load {load}, {pattern} traffic, N = {n}");
    println!(
        "{:<16} {:>12} {:>12} {:>12} {:>14}",
        "scheme", "mean delay", "p99 delay", "reorders", "delivered"
    );

    let run = RunConfig {
        slots: 60_000,
        warmup_slots: 10_000,
        drain_slots: 60_000,
    };
    let mut schemes: Vec<&str> = vec!["oq"];
    schemes.extend(PAPER_SCHEMES);
    schemes.push("tcp-hash");
    let mut engine = Engine::new();
    for scheme in schemes {
        let report = engine
            .run(
                &ScenarioSpec::new(scheme, n)
                    .with_traffic(traffic.clone())
                    .with_run(run)
                    .with_seed(7),
            )
            .unwrap_or_else(|e| panic!("{e}"));
        println!(
            "{:<16} {:>12.1} {:>12} {:>12} {:>14}",
            scheme,
            report.delay.mean(),
            report.delay.percentile(0.99),
            report.reordering.voq_reorder_events,
            format!("{}/{}", report.delivered_packets, report.offered_packets),
        );
    }
    println!();
    println!("expected shape: the ideal OQ switch lower-bounds everything;");
    println!("baseline-lb has the lowest implementable delay but reorders;");
    println!("UFS pays a large frame-accumulation delay at light load;");
    println!("Sprinklers, FOFF and PF stay close to each other with zero reordering.");
}
