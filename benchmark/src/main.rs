//! The repo's benchmark: spec file in → CSV + sidecar out on six named
//! workloads, measured end to end by running the release `scenario` and
//! `suite` binaries, and attributed to layers by a separate traced
//! in-process pass.  See `benchmark/README.md`.
//!
//! ```text
//! benchmark [--workload NAME]... [--seed S] [--seconds T] [--trace 0|1]
//!           [--out results.json] [--trace-out trace.json]
//! benchmark compare A.json B.json
//! ```
//!
//! `--trace 0` measures end to end only, `--trace 1` runs the traced pass
//! only, neither does both.  With one `--workload` and a `--trace` value the
//! last line of stdout is the single JSON object the benchmark driver reads.

#![deny(unsafe_code)]

#[allow(unsafe_code)]
mod alloc;
mod catalog;
mod checks;
mod compare;
mod json;
mod layers;
mod measure;
mod passes;
mod run;
mod stats;
mod trace;

use catalog::{per_layer, Workload, END_TO_END, WORKLOADS};
use json::{num, quote};
use run::{EndToEndResult, Site, TracedResult};
use sprinklers_bench::cli::fail;
use sprinklers_sim::parallel::default_workers;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

#[global_allocator]
static ALLOCATOR: alloc::CountingAllocator = alloc::CountingAllocator;

const USAGE: &str = "\
benchmark [--workload NAME]... [--seed S] [--seconds T] [--trace 0|1]
          [--out results.json] [--trace-out trace.json]
benchmark compare A.json B.json

Runs every workload (or each named one) for about T seconds (default 12) on
inputs generated from seed S (default 2014).  --trace 0: end-to-end metrics
only (child binaries, tracing off).  --trace 1: per-layer metrics only (traced
in-process pass).  Neither: both.  `compare` holds result file B against base
A and exits 1 on any regression.";

struct Options {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

fn parse_options(args: &[String]) -> Options {
    let mut options = Options {
        workloads: Vec::new(),
        seed: 2014,
        seconds: 12.0,
        trace: None,
        out: None,
        trace_out: None,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| fail(&format!("{flag} needs a value")))
                .as_str()
        };
        match flag.as_str() {
            "--workload" => {
                let name = value();
                options.workloads.push(
                    Workload::named(name)
                        .unwrap_or_else(|| fail(&format!("unknown workload '{name}'"))),
                );
            }
            "--seed" => {
                options.seed = value()
                    .parse()
                    .unwrap_or_else(|_| fail("--seed takes an unsigned integer"));
            }
            "--seconds" => {
                options.seconds = value()
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| fail("--seconds takes a positive number"));
            }
            "--trace" => {
                options.trace = Some(match value() {
                    "0" => false,
                    "1" => true,
                    _ => fail("--trace takes 0 or 1"),
                });
            }
            "--out" => options.out = Some(PathBuf::from(value())),
            "--trace-out" => options.trace_out = Some(PathBuf::from(value())),
            other => fail(&format!("unknown argument '{other}'")),
        }
    }
    if options.workloads.is_empty() {
        options.workloads = WORKLOADS.iter().collect();
    }
    options
}

struct WorkloadReport {
    workload: &'static Workload,
    end_to_end: Option<EndToEndResult>,
    traced: Option<TracedResult>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    if args.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args.as_slice() else {
            fail("compare takes exactly two result files");
        };
        let read = |path: &String| {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
            json::Json::parse(&text).unwrap_or_else(|e| fail(&format!("{path}: {e}")))
        };
        let (table, bad) = compare::compare(&read(a), &read(b)).unwrap_or_else(|e| fail(&e));
        print!("{table}");
        std::process::exit(i32::from(bad));
    }

    let options = parse_options(&args);
    let exe = std::env::current_exe().expect("the harness knows its own path");
    let bins = exe.parent().expect("an executable lives in a directory");
    for child in ["scenario", "suite"] {
        if !bins.join(child).is_file() {
            fail(&format!(
                "{} not found: build the release binaries first (benchmark/run.sh does)",
                bins.join(child).display()
            ));
        }
    }
    let calibration = measure::Calibration::new();

    let mut reports = Vec::new();
    for workload in &options.workloads {
        // Inputs, outputs and caches live under the checkout, in a fresh
        // directory per workload run that is removed afterwards.
        let work = Path::new("benchmark/work").join(format!(
            "{}-{}-{}",
            workload.name,
            options.seed,
            std::process::id()
        ));
        std::fs::remove_dir_all(&work).ok();
        std::fs::create_dir_all(&work)
            .unwrap_or_else(|e| fail(&format!("cannot create {}: {e}", work.display())));
        let site = Site { work: &work, bins };
        eprintln!("benchmark: {} (seed {})", workload.name, options.seed);
        let end_to_end = (options.trace != Some(true))
            .then(|| run::end_to_end(workload, options.seed, options.seconds, &site, &calibration));
        let traced = (options.trace != Some(false))
            .then(|| run::traced(workload, options.seed, options.seconds, &site));
        std::fs::remove_dir_all(&work).ok();
        reports.push(WorkloadReport {
            workload,
            end_to_end,
            traced,
        });
    }

    // Gone unless another harness process is using it.
    std::fs::remove_dir("benchmark/work").ok();

    print!("{}", table(&reports));
    let write = |path: &Path, text: String| {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent).ok();
        }
        std::fs::write(path, text)
            .unwrap_or_else(|e| fail(&format!("cannot write {}: {e}", path.display())));
    };
    if let Some(path) = &options.out {
        write(path, results_json(&options, &reports));
    }
    if let Some(path) = &options.trace_out {
        let traces: Vec<&str> = reports
            .iter()
            .filter_map(|r| r.traced.as_ref().map(|t| t.trace_json.as_str()))
            .collect();
        write(path, format!("[\n{}\n]\n", traces.join(",\n")));
    }
    if let ([report], Some(trace)) = (reports.as_slice(), options.trace) {
        println!("{}", driver_line(report, trace));
    }
}

/// The one JSON object the benchmark driver reads from the last line of
/// stdout: `--trace 0` carries the end-to-end metrics `BENCHMARK.json`
/// lists, `--trace 1` every per-layer metric.
fn driver_line(report: &WorkloadReport, trace: bool) -> String {
    let mut metrics = Vec::new();
    let (attempted, failed) = if trace {
        let traced = report
            .traced
            .as_ref()
            .expect("--trace 1 ran the traced pass");
        for m in per_layer() {
            metrics.push((m.name.clone(), traced.metrics[&m.name], m.unit));
        }
        (traced.attempted, traced.failed)
    } else {
        let e2e = report
            .end_to_end
            .as_ref()
            .expect("--trace 0 ran end to end");
        for m in END_TO_END.iter().filter(|m| m.in_contract) {
            metrics.push((m.name.to_string(), e2e.metrics[m.name].median, m.unit));
        }
        (e2e.attempted, e2e.failed)
    };
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(name),
                num(*value),
                quote(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    )
}

/// Every metric by name with its unit, for people.
fn table(reports: &[WorkloadReport]) -> String {
    let mut out = String::new();
    if reports.iter().any(|r| r.end_to_end.is_some()) {
        let _ = writeln!(
            out,
            "END TO END — child binaries, tracing off; median over reps with min, quartiles, max.\n\
             No percentile above the median is printed: at these rep counts none has ten samples beyond it.\n\
             {:<17} {:<21} {:<6} {:<15} {:>13} {:>13} {:>13} {:>13} {:>13} {:>5}",
            "workload", "metric", "unit", "clock", "median", "min", "q1", "q3", "max", "reps"
        );
    }
    for report in reports {
        let Some(e2e) = &report.end_to_end else {
            continue;
        };
        for m in &END_TO_END {
            let s = &e2e.metrics[m.name];
            let _ = writeln!(
                out,
                "{:<17} {:<21} {:<6} {:<15} {:>13.6} {:>13.6} {:>13.6} {:>13.6} {:>13.6} {:>5}",
                report.workload.name,
                m.name,
                m.unit,
                m.clock,
                s.median,
                s.min,
                s.q1,
                s.q3,
                s.max,
                s.samples.len()
            );
        }
        let _ = writeln!(
            out,
            "{:<17} sim_digest            {:032x}  ({} of {} operations failed)",
            report.workload.name, e2e.sim_digest, e2e.failed, e2e.attempted
        );
    }
    let traced: Vec<(&str, &TracedResult)> = reports
        .iter()
        .filter_map(|r| Some((r.workload.name, r.traced.as_ref()?)))
        .collect();
    if traced.is_empty() {
        return out;
    }
    let _ = write!(
        out,
        "\nPER LAYER — traced in-process pass, host time; median over passes; 0 = layer unused.\n\
         {:<33} {:<6}",
        "metric", "unit"
    );
    for (name, _) in &traced {
        let _ = write!(out, " {name:>17}");
    }
    out.push('\n');
    for m in per_layer() {
        let _ = write!(out, "{:<33} {:<6}", m.name, m.unit);
        for (_, t) in &traced {
            let _ = write!(out, " {:>17.4}", t.metrics[&m.name]);
        }
        out.push('\n');
    }
    let _ = write!(
        out,
        "{:<33} {:<6}",
        "(layers' share of traced wall)", "ratio"
    );
    for (_, t) in &traced {
        let _ = write!(out, " {:>17.4}", covered_share(t));
    }
    let _ = write!(
        out,
        "\n{:<33} {:<6}",
        "(passes; failed / attempted)", "count"
    );
    for (_, t) in &traced {
        let _ = write!(
            out,
            " {:>17}",
            format!("{}; {}/{}", t.passes, t.failed, t.attempted)
        );
    }
    out.push('\n');
    out
}

/// Sum of the layers' `busy_share`: how much of the traced wall the layer
/// numbers account for.
fn covered_share(traced: &TracedResult) -> f64 {
    catalog::BUSY_LAYERS
        .iter()
        .map(|layer| traced.metrics[&format!("{layer}.busy_share")])
        .sum()
}

/// The machine-readable result file (`--out`), which `compare` reads back.
fn results_json(options: &Options, reports: &[WorkloadReport]) -> String {
    let mut out = format!(
        "{{\"schema\":\"sprinklers-benchmark/1\",\"nproc\":{},\"seed\":{},\"seconds\":{},\n\
         \"percentiles\":\"median, quartiles, min and max only: no percentile above the median has ten samples beyond it at these rep counts\",\n\
         \"workloads\":[",
        default_workers(),
        options.seed,
        num(options.seconds)
    );
    for (i, report) in reports.iter().enumerate() {
        let _ = write!(
            out,
            "{}\n{{\"name\":{},\"why\":{},\n \"end_to_end\":",
            if i > 0 { "," } else { "" },
            quote(report.workload.name),
            quote(report.workload.why)
        );
        match &report.end_to_end {
            None => out.push_str("null"),
            Some(e2e) => {
                let _ = write!(
                    out,
                    "{{\"attempted\":{},\"failed\":{},\"sim_digest\":\"{:032x}\",\"metrics\":{{",
                    e2e.attempted, e2e.failed, e2e.sim_digest
                );
                for (j, m) in END_TO_END.iter().enumerate() {
                    let s = &e2e.metrics[m.name];
                    let samples: Vec<String> = s.samples.iter().map(|v| num(*v)).collect();
                    let _ = write!(
                        out,
                        "{}\n  {}:{{\"unit\":{},\"clock\":{},\"better\":{},\"bound\":{},\"median\":{},\
                         \"min\":{},\"q1\":{},\"q3\":{},\"max\":{},\"reps\":{},\"samples\":[{}]}}",
                        if j > 0 { "," } else { "" },
                        quote(m.name),
                        quote(m.unit),
                        quote(m.clock),
                        quote(if m.lower_is_better { "lower" } else { "higher" }),
                        num(m.bound),
                        num(s.median),
                        num(s.min),
                        num(s.q1),
                        num(s.q3),
                        num(s.max),
                        s.samples.len(),
                        samples.join(",")
                    );
                }
                out.push_str("}}");
            }
        }
        out.push_str(",\n \"per_layer\":");
        match &report.traced {
            None => out.push_str("null"),
            Some(traced) => {
                let _ = write!(
                    out,
                    "{{\"attempted\":{},\"failed\":{},\"passes\":{},\"clock\":\"host time\",\
                     \"covered_share\":{},\"metrics\":{{",
                    traced.attempted,
                    traced.failed,
                    traced.passes,
                    num(covered_share(traced))
                );
                for (j, m) in per_layer().iter().enumerate() {
                    let _ = write!(
                        out,
                        "{}\n  {}:{{\"unit\":{},\"value\":{}}}",
                        if j > 0 { "," } else { "" },
                        quote(&m.name),
                        quote(m.unit),
                        num(traced.metrics[&m.name])
                    );
                }
                out.push_str("}}");
            }
        }
        out.push('}');
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Kind;
    use crate::json::Json;
    use crate::passes::run_pass;
    use crate::stats::Summary;
    use crate::trace::Tracer;

    fn sample_report(value: f64) -> WorkloadReport {
        WorkloadReport {
            workload: &WORKLOADS[0],
            end_to_end: Some(EndToEndResult {
                attempted: 5,
                failed: 0,
                sim_digest: 0xabc,
                metrics: END_TO_END
                    .iter()
                    .map(|m| (m.name, Summary::of(vec![value, 2.0, 3.0])))
                    .collect(),
            }),
            traced: Some(TracedResult {
                attempted: 1,
                failed: 0,
                passes: 1,
                metrics: per_layer().into_iter().map(|m| (m.name, value)).collect(),
                trace_json: "{}".to_string(),
            }),
        }
    }

    #[test]
    fn every_output_is_well_formed_json_even_with_non_finite_values() {
        let options = parse_options(&[]);
        assert_eq!(options.workloads.len(), WORKLOADS.len());
        for value in [1.5, f64::NAN, f64::INFINITY] {
            let report = sample_report(value);
            let doc = Json::parse(&results_json(&options, std::slice::from_ref(&report)))
                .expect("results file parses");
            let workload = &doc.get("workloads").unwrap().as_array().unwrap()[0];
            let metrics = workload.get("end_to_end").unwrap().get("metrics").unwrap();
            assert_eq!(metrics.entries().unwrap().len(), END_TO_END.len());
            let run_s = metrics.get("run_s").unwrap();
            let first = &run_s.get("samples").unwrap().as_array().unwrap()[0];
            assert_eq!(first.as_f64().is_some(), value.is_finite());
            let layers = workload.get("per_layer").unwrap().get("metrics").unwrap();
            assert_eq!(layers.entries().unwrap().len(), per_layer().len());

            for trace in [false, true] {
                let line = driver_line(&report, trace);
                assert!(!line.contains('\n'));
                let doc = Json::parse(&line).expect("driver line parses");
                let keys: Vec<&str> = doc
                    .entries()
                    .unwrap()
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
                let listed = doc.get("metrics").unwrap().entries().unwrap().len();
                let expected = if trace {
                    per_layer().len()
                } else {
                    END_TO_END.iter().filter(|m| m.in_contract).count()
                };
                assert_eq!(listed, expected);
            }
            assert!(table(std::slice::from_ref(&report)).contains("setup_s"));
        }
    }

    /// 1/50-length copies of a single-switch and the fabric workload: the
    /// traced loop must write what `Engine::run` writes, byte for byte, and
    /// its layer metrics must be the catalogued ones.
    #[test]
    fn the_traced_loop_reproduces_engine_run_byte_for_byte() {
        let dir =
            std::env::temp_dir().join(format!("sprinklers-benchmark-smoke-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for name in ["dense-sprinklers", "fabric-faults"] {
            let workload = Workload::named(name).unwrap();
            let mut spec = sprinklers_sim::ScenarioSpec::from_json(workload.template).unwrap();
            let shrink = |v: &mut u64| *v /= 50;
            shrink(&mut spec.run.slots);
            shrink(&mut spec.run.warmup_slots);
            shrink(&mut spec.run.drain_slots);
            if let Some(faults) = &mut spec.faults {
                faults.events.iter_mut().for_each(|e| shrink(&mut e.slot));
                faults.random.iter_mut().for_each(|r| shrink(&mut r.mtbf));
            }
            let path = dir.join(format!("{name}.json"));
            std::fs::write(&path, spec.to_json()).unwrap();
            let pass = |traced: bool| {
                let mut tracer = Tracer::new(traced);
                let pass = run_pass(
                    Kind::Scenario,
                    &path,
                    &dir,
                    &dir.join("smoke.csv"),
                    &dir.join("smoke.json"),
                    &mut tracer,
                )
                .unwrap();
                (pass, tracer)
            };
            let (untraced, _) = pass(false);
            let (traced, tracer) = pass(true);
            assert_eq!(traced.outputs, untraced.outputs, "{name}");
            assert!(traced.outputs.sidecar.contains("\"windows\""));
            assert_eq!(
                traced.outputs.sidecar.contains("\"faults\""),
                name == "fabric-faults"
            );

            let mut metrics = layers::layer_metrics(
                &tracer,
                &layers::Beside {
                    engine_s: untraced.engine_s,
                    parallel: None,
                    peak_live_bytes: 0,
                    cache_entry_bytes: 0.0,
                },
            );
            metrics.insert("trace.overhead_share".to_string(), 0.0);
            let names: Vec<String> = per_layer().into_iter().map(|m| m.name).collect();
            let mut sorted = names.clone();
            sorted.sort();
            assert_eq!(metrics.keys().cloned().collect::<Vec<_>>(), sorted);
            let world = if name == "fabric-faults" {
                "fabric"
            } else {
                "core"
            };
            assert!(metrics[&format!("{world}.advance_ns_per_slot")] > 0.0);
            assert!(metrics["traffic.packets"] > 0.0);
            // The shrunken single switch never leaves its fill phase; the
            // fabric (delay ~6 slots) exercises the delivery segments.
            assert_eq!(metrics["metrics.deliveries"] > 0.0, name == "fabric-faults");
            let covered: f64 = catalog::BUSY_LAYERS
                .iter()
                .map(|l| metrics[&format!("{l}.busy_share")])
                .sum();
            assert!(
                (0.9..=1.0).contains(&covered),
                "{name}: layers cover {covered}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
