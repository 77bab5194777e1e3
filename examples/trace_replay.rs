//! Record a synthetic workload to a trace file, then replay it.
//!
//! Demonstrates the trace ingestion pipeline end to end: any scenario's
//! arrival stream can be captured to disk (CSV or compact binary `.sprt`)
//! and replayed through `TrafficSpec::Trace` — reproducing the original
//! report byte for byte, because the trace carries the generator's label
//! and rate matrix alongside the packets.  The replay knobs then reshape
//! the recorded workload: `repeat` tiles it, `scale` compresses or
//! stretches its timebase.
//!
//! Run with:
//! ```text
//! cargo run --release -p sprinklers-bench --example trace_replay
//! ```

use sprinklers_sim::prelude::*;
use sprinklers_sim::traffic::trace_io::record_spec;

fn main() {
    let dir = std::env::temp_dir().join(format!("sprinklers-trace-replay-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");

    // A bursty scenario: the adversarial shape for reordering-free claims.
    let spec = ScenarioSpec::new("sprinklers", 16)
        .with_traffic(TrafficSpec::Bursty {
            load: 0.7,
            peak: 1.0,
            mean_burst: 24.0,
        })
        .with_run(RunConfig {
            slots: 5_000,
            warmup_slots: 500,
            drain_slots: 10_000,
        })
        .with_seed(2014);

    let original = Engine::new().run(&spec).expect("original run");
    println!("original : {}", original.csv_row());

    // Record the exact arrival stream the engine injected, to both formats
    // (the extension picks the encoding).
    let sprt = dir.join("bursty.sprt");
    let csv = dir.join("bursty.csv");
    let (packets, span) = record_spec(&spec, &sprt).expect("record sprt");
    record_spec(&spec, &csv).expect("record csv");
    println!(
        "recorded  : {packets} packets over {span} slots -> {} ({} bytes) and {} ({} bytes)",
        sprt.display(),
        std::fs::metadata(&sprt).map(|m| m.len()).unwrap_or(0),
        csv.display(),
        std::fs::metadata(&csv).map(|m| m.len()).unwrap_or(0),
    );

    // Replaying either file reproduces the original report byte for byte.
    for path in [&sprt, &csv] {
        let replay_spec = spec
            .clone()
            .with_traffic(TrafficSpec::trace(path.to_string_lossy().into_owned()));
        let replay = Engine::new().run(&replay_spec).expect("replay run");
        assert_eq!(
            replay.csv_row(),
            original.csv_row(),
            "replay must reproduce the original report"
        );
        println!(
            "replay ok : {} reproduces the original report",
            path.display()
        );
    }

    // The knobs reshape the workload: tile the trace twice at a gentler
    // timebase and watch the run stretch while ordering holds.
    let reshaped_spec = spec.clone().with_traffic(TrafficSpec::Trace {
        path: sprt.to_string_lossy().into_owned(),
        repeat: 2,
        scale: 0.5,
    });
    let reshaped_spec = reshaped_spec.with_run(RunConfig {
        slots: 2 * 2 * 5_000, // two copies, each dilated 2x
        warmup_slots: 500,
        drain_slots: 10_000,
    });
    let reshaped = Engine::new().run(&reshaped_spec).expect("reshaped run");
    println!("reshaped  : {}", reshaped.csv_row());
    assert_eq!(reshaped.offered_packets, 2 * original.offered_packets);
    assert!(reshaped.reordering.is_ordered());

    std::fs::remove_dir_all(&dir).ok();
    println!("done");
}
