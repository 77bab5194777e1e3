//! Run a whole directory of scenario specs across every core.
//!
//! The suite runner is the entry point for figure-scale experiment batches:
//! it loads every `*.json` [`ScenarioSpec`] in a directory, optionally
//! crosses each with a scheme list and a load grid (the shape of the paper's
//! Figures 6/7), fans the expanded cases out over a worker pool, and merges
//! the per-run reports into one CSV — byte-identical at any worker count,
//! because results are reassembled in case order and every run is seeded
//! from its spec alone.
//!
//! The run itself is [`SuiteRun`]: each case is emitted as soon as every
//! earlier case has been, and its metrics are dropped then, so the suite
//! holds one case's metrics at a time, not the whole sweep's.  The outputs
//! are written only once every case has succeeded; a failing case exits 2
//! naming the earliest failing case and writes neither file.
//!
//! Two optional sidecars ride along without touching the CSV bytes:
//!
//! * `--cache <dir>` keeps a content-addressed store of finished runs,
//!   keyed by each spec's scientific identity
//!   ([`ScenarioSpec::content_hash`]); cells whose hash already has an
//!   entry are served from the cache instead of re-simulated, and the
//!   merged CSV stays byte-identical either way.
//! * `--metrics full` writes a JSON metrics sidecar (one
//!   [`SimReport::metrics_json`] line per case) next to the CSV.
//!
//! Specs may carry fabric topologies and fault schedules (see the README's
//! "Fabric topologies" and "Fault injection" sections); faulted runs merge
//! byte-identically at any worker count just like healthy ones — the
//! `suite-smoke` CI job pins this.
//!
//! Usage:
//! ```text
//! cargo run --release -p sprinklers-bench --bin suite -- --dir specs/smoke
//! cargo run --release -p sprinklers-bench --bin suite -- \
//!     --dir specs/smoke --workers 4 --quick \
//!     --schemes sprinklers,foff --loads 0.3,0.6,0.9 \
//!     --cache .sprinklers-cache --metrics full --out merged.csv
//! ```
//!
//! [`ScenarioSpec`]: sprinklers_sim::spec::ScenarioSpec
//! [`ScenarioSpec::content_hash`]: sprinklers_sim::spec::ScenarioSpec::content_hash
//! [`SimReport::metrics_json`]: sprinklers_sim::report::SimReport::metrics_json

use sprinklers_bench::cli::{
    arg_value, check_distinct_paths, check_flags, exit_on_help, fail, has_flag, note_inert_fields,
    parse_flag, parse_list_flag,
};
use sprinklers_sim::cache::{CachedRun, ExperimentCache};
use sprinklers_sim::engine::RunConfig;
use sprinklers_sim::parallel::default_workers;
use sprinklers_sim::spec::{SuiteCase, SuiteRun, SuiteSpec};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::BufWriter;

const USAGE: &str = "\
Run every ScenarioSpec JSON file in a directory, in parallel, and merge the
reports into one CSV (stdout or --out).  A per-scheme summary goes to stderr.

Usage:
  suite --dir <specs-dir> [options]

Options:
  --dir <path>         directory of *.json ScenarioSpec files (required)
  --workers <N>        worker threads (default: one per core; 0 means that too)
  --schemes <a,b,c>    re-run every spec once per scheme (overrides the spec)
  --loads <x,y,z>      re-run every (spec, scheme) once per offered load
  --quick              shrink every run to the quick RunConfig
  --out <file.csv>     write the merged CSV to a file instead of stdout
  --cache <dir>        reuse finished runs from (and store new runs into) a
                       content-addressed cache; keyed by each spec's
                       scientific identity, so --workers never affects
                       hits and output stays byte-identical
  --metrics full       also write a JSON metrics sidecar (delay histogram,
                       per-output throughput, Jain fairness, windowed series)
  --metrics-out <file> sidecar path (default: <out>.metrics.json; required
                       if --metrics full is used without --out)

The merged CSV is deterministic: same specs + seeds give byte-identical
output at any --workers value, and whether each cell came from the cache
or a fresh run.  Stepping is serial and the engine picks its own stepping
windows: \"batch\" and \"threads\" keys in a spec file are accepted and
ignored (one note each on stderr).";

/// Flags that take a value, and bare flags.
const VALUE_FLAGS: [&str; 8] = [
    "--dir",
    "--workers",
    "--schemes",
    "--loads",
    "--out",
    "--cache",
    "--metrics",
    "--metrics-out",
];
const BARE_FLAGS: [&str; 1] = ["--quick"];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    exit_on_help(&args, USAGE);
    if let Err(e) = check_flags(&args, &VALUE_FLAGS, &BARE_FLAGS) {
        fail(&e);
    }

    let dir = arg_value(&args, "--dir").unwrap_or_else(|| fail("--dir is required (see --help)"));
    let workers = parse_flag::<usize>(&args, "--workers").unwrap_or(0);
    let out = arg_value(&args, "--out");
    let want_metrics = match arg_value(&args, "--metrics").as_deref() {
        None => false,
        Some("full") => true,
        Some(other) => fail(&format!("--metrics only understands 'full', got '{other}'")),
    };
    let metrics_out = arg_value(&args, "--metrics-out");
    let sidecar_path = if want_metrics {
        Some(metrics_out.clone().unwrap_or_else(|| match &out {
            Some(csv) => format!("{csv}.metrics.json"),
            None => {
                fail("--metrics full needs --out (to derive the sidecar path) or --metrics-out")
            }
        }))
    } else {
        if metrics_out.is_some() {
            fail("--metrics-out requires --metrics full");
        }
        None
    };
    check_distinct_paths(&[
        ("--out", out.as_deref()),
        ("--metrics-out", metrics_out.as_deref()),
    ])
    .unwrap_or_else(|e| fail(&e));
    let cache = arg_value(&args, "--cache").map(|dir| {
        ExperimentCache::open(&dir)
            .unwrap_or_else(|e| fail(&format!("cannot open cache directory {dir}: {e}")))
    });

    let mut suite = SuiteSpec::new(&dir);
    if let Some(schemes) = parse_list_flag::<String>(&args, "--schemes") {
        suite = suite.with_schemes(schemes);
    }
    if let Some(loads) = parse_list_flag::<f64>(&args, "--loads") {
        suite = suite.with_loads(loads);
    }

    let mut cases = suite.load_cases().unwrap_or_else(|e| fail(&e.to_string()));
    note_inert_fields(cases.iter().map(|case| &case.spec));
    if has_flag(&args, "--quick") {
        for case in &mut cases {
            case.spec.run = RunConfig::quick();
        }
    }

    let effective_workers = if workers == 0 {
        default_workers()
    } else {
        workers
    };
    eprintln!(
        "suite: {} case(s) from {dir} across {effective_workers} worker(s)",
        cases.len()
    );

    // The sidecar goes to a temp file beside its path, renamed onto it only
    // once every case has succeeded.
    let tmp = sidecar_path
        .as_ref()
        .map(|path| format!("{path}.{}.tmp", std::process::id()));
    let abort = |message: String| -> ! {
        if let Some(tmp) = &tmp {
            let _ = std::fs::remove_file(tmp);
        }
        fail(&message)
    };
    let sidecar = tmp.as_ref().map(|tmp| {
        let file = File::create(tmp).unwrap_or_else(|e| fail(&format!("cannot write {tmp}: {e}")));
        BufWriter::new(file)
    });
    // Probe the cache *after* every override (--quick changes the run
    // config, which is part of the scientific identity).
    let run =
        SuiteRun::probe(&cases, cache.as_ref(), sidecar).unwrap_or_else(|e| abort(e.to_string()));
    let computed = run.misses();
    if cache.is_some() {
        let total = cases.len();
        if computed == 0 {
            eprintln!("suite: cache: all {total} case(s) served from cache");
        } else {
            eprintln!(
                "suite: cache: {} hit(s), {computed} miss(es) of {total}",
                total - computed
            );
        }
    }

    let t0 = std::time::Instant::now();
    let (csv, runs, sidecar) = run.finish(workers).unwrap_or_else(|e| abort(e.to_string()));
    let elapsed = t0.elapsed();
    if let (Some(sidecar), Some(tmp), Some(path)) = (sidecar, &tmp, &sidecar_path) {
        let written = sidecar.into_inner().map_err(|e| e.into_error());
        if let Err(e) = written.and_then(|_| std::fs::rename(tmp, path)) {
            abort(format!("cannot write {path}: {e}"));
        }
    }

    match &out {
        Some(path) => {
            std::fs::write(path, &csv)
                .unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}")));
            eprintln!("suite: wrote {} rows to {path}", runs.len());
        }
        None => print!("{csv}"),
    }
    if let Some(path) = &sidecar_path {
        eprintln!("suite: wrote metrics sidecar to {path}");
    }

    print_summary(&cases, &runs);
    eprintln!(
        "suite: {computed} run(s) in {:.2} s ({:.2} s/run effective)",
        elapsed.as_secs_f64(),
        elapsed.as_secs_f64() / computed.max(1) as f64,
    );
}

/// Per-scheme aggregate table on stderr, sorted by scheme name.  Works
/// from the [`CachedRun`] scalars a suite keeps, so cached and fresh cells
/// contribute identically.
fn print_summary(cases: &[SuiteCase], runs: &[CachedRun]) {
    struct Agg {
        runs: usize,
        delay_sum: f64,
        worst_p99: u64,
        reorders: u64,
        min_delivery: f64,
    }
    let mut schemes: BTreeMap<&str, Agg> = BTreeMap::new();
    for (case, run) in cases.iter().zip(runs) {
        let agg = schemes.entry(&case.spec.scheme).or_insert(Agg {
            runs: 0,
            delay_sum: 0.0,
            worst_p99: 0,
            reorders: 0,
            min_delivery: f64::INFINITY,
        });
        agg.runs += 1;
        agg.delay_sum += run.mean_delay;
        agg.worst_p99 = agg.worst_p99.max(run.p99_delay);
        agg.reorders += run.voq_reorders;
        agg.min_delivery = agg.min_delivery.min(run.delivery_ratio);
    }

    eprintln!(
        "{:<22} {:>5} {:>12} {:>10} {:>9} {:>9}",
        "scheme", "runs", "mean_delay", "worst_p99", "reorders", "min_dlvr"
    );
    for (name, agg) in &schemes {
        eprintln!(
            "{:<22} {:>5} {:>12.2} {:>10} {:>9} {:>8.1}%",
            name,
            agg.runs,
            agg.delay_sum / agg.runs as f64,
            agg.worst_p99,
            agg.reorders,
            agg.min_delivery * 100.0,
        );
    }
}
