//! Run one simulation scenario described by a JSON `ScenarioSpec`.
//!
//! This is the generic front end to the engine: any scheme the registry
//! knows, any traffic pattern, any run length — one spec file (or inline
//! flags), one CSV row out.
//!
//! Usage:
//! ```text
//! cargo run --release -p sprinklers-bench --bin scenario -- --spec scenario.json [--quick]
//! cargo run --release -p sprinklers-bench --bin scenario -- \
//!     --scheme sprinklers --n 32 --load 0.9 --pattern diagonal [--quick]
//! cargo run --release -p sprinklers-bench --bin scenario -- --print-template
//! cargo run --release -p sprinklers-bench --bin scenario -- --list-schemes
//! ```

use sprinklers_bench::cli::{
    arg_value, check_distinct_paths, check_flags, exit_on_help, fail, has_flag, load_spec_file,
    note_inert_fields, parse_flag,
};
use sprinklers_sim::engine::{Engine, RunConfig};
use sprinklers_sim::registry;
use sprinklers_sim::report::SimReport;
use sprinklers_sim::spec::{ScenarioSpec, TrafficSpec};

const USAGE: &str = "\
Run one simulation scenario described by a JSON ScenarioSpec.

Usage:
  scenario --spec <file.json> [--quick]
  scenario [--scheme <name>] [--n <ports>] [--load <rho>]
           [--pattern uniform|diagonal] [--seed <u64>] [--quick]
  scenario [--scheme <name>] [--n <ports>] --trace <file.{csv,sprt}>
           [--repeat <copies>] [--scale <factor>] [--seed <u64>] [--quick]
  scenario --print-template    print a ScenarioSpec JSON template
  scenario --list-schemes      list every scheme the registry knows

Sidecar:
  --metrics full --metrics-out <file.json>
      also write the full metrics JSON (delay histogram, per-output
      throughput and utilization, Jain fairness, windowed time series) to
      <file.json>; stdout stays the same two CSV lines either way

A spec file sets the scheme, ports, traffic and seed: --scheme, --n,
--load, --pattern, --seed and --trace are usage errors beside --spec, and
--quick replaces the file's run config with the quick one (as suite --quick
does).

--trace replays a recorded trace file (see the `trace` binary) instead of a
synthetic pattern; --repeat tiles it and --scale compresses (>1) or
stretches (<1) its timebase.  Both are usage errors without --trace.

A spec file may carry a \"topology\" object (kinds: fat-tree2, butterfly)
to run a multi-switch fabric instead of one switch: the scheme is
instantiated at every fabric node, \"routing\" picks the inter-switch path
strategy (ecmp | random | stripe) and \"link\" sets the wire latency and
admission gap.  Metrics are end-to-end (host to host).  See the README's
\"Fabric topologies\" section for the schema.

A fabric spec may additionally carry a \"faults\" object: timed
\"events\" ({\"slot\", \"kind\": link-down|link-up|node-down|node-up,
\"link\"|\"node\": index}) plus an optional seeded \"random\" link-failure
generator ({\"mtbf\", \"mttr\", \"seed\"}).  Faulted runs are as
deterministic as healthy ones; losses are typed and reported (with
per-event reconvergence times) in the metrics sidecar.  See the README's
\"Fault injection\" section for semantics.

The engine steps each arrival-free run up to the next arrival or the next
occupancy sample (every n slots) in one Switch::step_batch call; there is
no knob.  Stepping is serial: \"batch\" and \"threads\" keys in a spec
file are accepted and ignored (with a note on stderr).  Parallelism is
across cases: see suite --workers.

Defaults: --scheme sprinklers --n 32 --load 0.6 --pattern uniform --seed 2014";

/// Flags that take a value, and bare flags.
const VALUE_FLAGS: [&str; 11] = [
    "--spec",
    "--scheme",
    "--n",
    "--load",
    "--pattern",
    "--seed",
    "--trace",
    "--repeat",
    "--scale",
    "--metrics",
    "--metrics-out",
];
const BARE_FLAGS: [&str; 3] = ["--quick", "--list-schemes", "--print-template"];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    exit_on_help(&args, USAGE);
    if let Err(e) = check_flags(&args, &VALUE_FLAGS, &BARE_FLAGS) {
        fail(&e);
    }
    if has_flag(&args, "--list-schemes") {
        for scheme in registry::schemes() {
            println!("{scheme}");
        }
        return;
    }
    if has_flag(&args, "--print-template") {
        println!("{}", ScenarioSpec::new("sprinklers", 32).to_json());
        return;
    }

    if arg_value(&args, "--trace").is_none() {
        for flag in ["--repeat", "--scale"] {
            if arg_value(&args, flag).is_some() {
                fail(&format!("{flag} reshapes a --trace replay; there is none"));
            }
        }
    }
    let spec = if let Some(path) = arg_value(&args, "--spec") {
        for flag in [
            "--scheme",
            "--n",
            "--load",
            "--pattern",
            "--seed",
            "--trace",
        ] {
            if arg_value(&args, flag).is_some() {
                fail(&format!(
                    "{flag} cannot override --spec: edit the spec file"
                ));
            }
        }
        let mut spec = load_spec_file(&path);
        if has_flag(&args, "--quick") {
            spec.run = RunConfig::quick();
        }
        spec
    } else {
        let scheme = arg_value(&args, "--scheme").unwrap_or_else(|| "sprinklers".into());
        let n: usize = parse_flag(&args, "--n").unwrap_or(32);
        let load: f64 = parse_flag(&args, "--load").unwrap_or(0.6);
        let traffic = if let Some(trace) = arg_value(&args, "--trace") {
            // Silently ignoring --load/--pattern here would let a user
            // believe they swept a trace's load; the trace knobs are
            // --scale and --repeat.
            if arg_value(&args, "--load").is_some() || arg_value(&args, "--pattern").is_some() {
                fail("--trace replays the recorded workload; use --scale (not --load/--pattern) to reshape it");
            }
            TrafficSpec::Trace {
                path: trace,
                repeat: parse_flag(&args, "--repeat").unwrap_or(1),
                scale: parse_flag(&args, "--scale").unwrap_or(1.0),
            }
        } else {
            match arg_value(&args, "--pattern").as_deref() {
                None | Some("uniform") => TrafficSpec::Uniform { load },
                Some("diagonal") => TrafficSpec::Diagonal { load },
                Some(other) => fail(&format!("unknown --pattern {other} (uniform|diagonal)")),
            }
        };
        let run = if has_flag(&args, "--quick") {
            RunConfig::quick()
        } else {
            RunConfig::default()
        };
        let seed: u64 = parse_flag(&args, "--seed").unwrap_or(2014);
        ScenarioSpec::new(scheme, n)
            .with_traffic(traffic)
            .with_run(run)
            .with_seed(seed)
    };
    note_inert_fields([&spec]);

    let metrics_out = match arg_value(&args, "--metrics").as_deref() {
        None => {
            if arg_value(&args, "--metrics-out").is_some() {
                fail("--metrics-out requires --metrics full");
            }
            None
        }
        Some("full") => Some(
            arg_value(&args, "--metrics-out")
                .unwrap_or_else(|| fail("--metrics full needs --metrics-out <file.json>")),
        ),
        Some(other) => fail(&format!("--metrics only understands 'full', got '{other}'")),
    };
    let replayed = match &spec.traffic {
        TrafficSpec::Trace { path, .. } => Some(path.as_str()),
        _ => None,
    };
    check_distinct_paths(&[
        ("--spec", arg_value(&args, "--spec").as_deref()),
        ("the trace", replayed),
        ("--metrics-out", metrics_out.as_deref()),
    ])
    .unwrap_or_else(|e| fail(&e));

    eprintln!("running scenario: {}", spec.label());
    eprintln!("{}", spec.to_json());
    let report = Engine::new()
        .run(&spec)
        .unwrap_or_else(|e| fail(&e.to_string()));
    print_report(&report);
    if let Some(path) = metrics_out {
        let mut json = report.metrics_json();
        json.push('\n');
        std::fs::write(&path, json).unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}")));
        eprintln!("wrote metrics sidecar to {path}");
    }
}

fn print_report(report: &SimReport) {
    println!("{}", SimReport::csv_header());
    println!("{}", report.csv_row());
    // The CSV row keeps its 0 for an empty mean; the summary does not
    // pass it off as a measurement.
    let delay = if report.delay.count() == 0 {
        "mean delay undefined (no measured packet delivered)".to_string()
    } else {
        format!("mean delay {:.1} slots", report.delay.mean())
    };
    eprintln!(
        "delivered {}/{} packets ({:.1}%), {delay}, VOQ reorders {}, flow reorders {}",
        report.delivered_packets,
        report.offered_packets,
        report.delivery_ratio() * 100.0,
        report.reordering.voq_reorder_events,
        report.reordering.flow_reorder_events,
    );
}
