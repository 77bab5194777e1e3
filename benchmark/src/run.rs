//! Running one workload: the end-to-end measurement (stock child binaries,
//! tracing off) and the separate traced in-process pass.

use crate::alloc;
use crate::catalog::{Inputs, Kind, Workload};
use crate::checks::{check, Outputs, Verdict};
use crate::layers::{layer_metrics, Beside};
use crate::measure::{fastest_of, run_child, Calibration, ChildRun};
use crate::passes::{run_pass, set_up};
use crate::stats::{median, Summary};
use crate::trace::Tracer;
use sprinklers_bench::cli::load_spec_file;
use sprinklers_sim::cache::ExperimentCache;
use sprinklers_sim::parallel::{default_workers, run_specs_parallel};
use sprinklers_sim::spec::{ScenarioSpec, SuiteSpec};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

/// Fewest reps an end-to-end measurement makes, however short `--seconds`.
const MIN_REPS: usize = 5;
/// Fewest (untraced, traced) pairs of passes a traced measurement makes:
/// `trace.overhead_share` compares the fastest of each kind, and one pair
/// on a noisy box says little.
const MIN_PASSES: usize = 2;
/// Back-to-back `suite` invocations in one `suite-warm` sample: a warm run
/// lives ~8 ms, most of it process start-up, too short and too jittery to
/// time alone on a shared box.
const WARM_BATCH: usize = 50;

/// Where one workload run keeps its files, and where the children live.
pub(crate) struct Site<'a> {
    /// Fresh directory for this run's inputs, outputs and caches.
    pub(crate) work: &'a Path,
    /// Directory holding the release `scenario` and `suite` binaries.
    pub(crate) bins: &'a Path,
}

impl Site<'_> {
    fn fresh_dir(&self, name: &str) -> PathBuf {
        let dir = self.work.join(name);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
        dir
    }

    fn csv(&self) -> PathBuf {
        self.work.join("out.csv")
    }

    /// The sidecar path `suite` derives from `--out`; `scenario` is told it.
    fn sidecar(&self) -> PathBuf {
        self.work.join("out.csv.metrics.json")
    }

    /// Run the program once on `inputs`, default knobs only, outputs to
    /// [`Site::csv`] and [`Site::sidecar`].  Old outputs are removed first so
    /// a child that writes nothing cannot pass on its predecessor's files.
    fn child(&self, kind: Kind, inputs: &Inputs, cache: &Path) -> ChildRun {
        std::fs::remove_file(self.csv()).ok();
        std::fs::remove_file(self.sidecar()).ok();
        let stderr = self.work.join("child.stderr");
        if kind == Kind::Scenario {
            let mut command = Command::new(self.bins.join("scenario"));
            command
                .arg("--spec")
                .arg(&inputs.path)
                .args(["--metrics", "full", "--metrics-out"])
                .arg(self.sidecar());
            run_child(&mut command, Some(&self.csv()), &stderr)
        } else {
            let mut command = Command::new(self.bins.join("suite"));
            command
                .arg("--dir")
                .arg(&inputs.path)
                .args(["--workers", &default_workers().to_string(), "--cache"])
                .arg(cache)
                .args(["--metrics", "full", "--out"])
                .arg(self.csv());
            run_child(&mut command, None, &stderr)
        }
    }

    fn outputs(&self) -> Outputs {
        Outputs::read(&self.csv(), &self.sidecar())
    }
}

/// One workload's end-to-end result.
#[derive(Debug)]
pub(crate) struct EndToEndResult {
    /// Operations attempted and failed: one per case per rep.
    pub(crate) attempted: usize,
    pub(crate) failed: usize,
    /// FNV-1a-128 of the first rep's CSV + sidecar bytes.
    pub(crate) sim_digest: u128,
    /// Every end-to-end metric by name.
    pub(crate) metrics: BTreeMap<&'static str, Summary>,
}

/// Program set-up before the first simulated slot, through the public
/// calls the CLIs make.
fn set_up_once(kind: Kind, inputs: &Inputs, cache: &Path) -> impl Sized {
    if kind == Kind::Scenario {
        let spec = load_spec_file(&inputs.path.to_string_lossy());
        let world = set_up(&spec, &mut Tracer::new(false)).expect("the workload's spec is valid");
        (Some(world), None)
    } else {
        let cases = SuiteSpec::new(&inputs.path)
            .load_cases()
            .expect("the workload's specs are valid");
        let cache = ExperimentCache::open(cache).expect("the cache directory opens");
        let runs: Vec<_> = cases
            .iter()
            .map(|case| cache.load(case.spec.content_hash()))
            .collect();
        (None, Some((cases, runs)))
    }
}

/// Measure `workload` end to end for about `seconds`: spec file(s) in, CSV
/// and sidecar on disk out, one child at a time.
pub(crate) fn end_to_end(
    workload: &Workload,
    seed: u64,
    seconds: f64,
    site: &Site,
    calibration: &Calibration,
) -> EndToEndResult {
    let kind = workload.kind;
    let inputs = workload.generate(seed, site.work);
    let cases = &inputs.cases;
    let mut cache = site.fresh_dir("cache");

    // suite-warm replays the cache a cold run leaves; that run's bytes are
    // also what every warm run must reproduce.
    let mut expected: Option<(u128, Verdict)> = None;
    if kind == Kind::SuiteWarm {
        let cold = site.child(kind, &inputs, &cache);
        let outputs = site.outputs();
        let mut verdict = check(kind, &outputs, cases);
        if !cold.success {
            verdict = Verdict::all_failed(cases, "the cold run that fills the cache failed");
        }
        expected = Some((outputs.digest(), verdict));
    }

    let (mut run_s, mut run_rel, mut peak_rss_mb) = (Vec::new(), Vec::new(), Vec::new());
    let mut setup_s = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let begin = Instant::now();
    while run_s.len() < MIN_REPS || begin.elapsed() < Duration::from_secs_f64(seconds) {
        if kind == Kind::SuiteCold {
            cache = site.fresh_dir("cache");
        }
        // With MIN_REPS reps: at least 15 set-ups over at least 1 s.
        setup_s.push(fastest_of(3, Duration::from_millis(200), || {
            set_up_once(kind, &inputs, &cache)
        }));
        let calibration_s = calibration.run();
        let invocations = if kind == Kind::SuiteWarm {
            WARM_BATCH
        } else {
            1
        };
        let children: Vec<ChildRun> = (0..invocations)
            .map(|_| site.child(kind, &inputs, &cache))
            .collect();
        // Spawn-to-exit wall of the one child, or the mean of a warm batch.
        let rep_s = children.iter().map(|c| c.wall_s).sum::<f64>() / invocations as f64;
        run_s.push(rep_s);
        run_rel.push(rep_s / calibration_s);
        peak_rss_mb.push(children.iter().map(|c| c.peak_rss_mb).fold(0.0, f64::max));

        let outputs = site.outputs();
        let digest = outputs.digest();
        let verdict = match &expected {
            _ if !children.iter().all(|c| c.success) => {
                Verdict::all_failed(cases, "the program exited with a failure status")
            }
            Some((first, verdict)) if *first == digest => verdict.clone(),
            Some(_) => Verdict::all_failed(
                cases,
                "output bytes differ from the first run's on the same inputs",
            ),
            None => check(kind, &outputs, cases),
        };
        for failure in &verdict.failures {
            eprintln!("FAILED {} rep {}: {failure}", workload.name, run_s.len());
        }
        attempted += cases.len();
        failed += verdict.failures.len();
        expected.get_or_insert((digest, verdict));
    }

    let (sim_digest, first) = expected.expect("at least one rep ran");
    let mut metrics = BTreeMap::new();
    metrics.insert("run_s", Summary::of(run_s));
    metrics.insert("run_rel", Summary::of(run_rel));
    metrics.insert("setup_s", Summary::of(setup_s));
    metrics.insert("peak_rss_mb", Summary::of(peak_rss_mb));
    metrics.insert(
        "fail_share",
        Summary::exact(failed as f64 / attempted as f64),
    );
    metrics.insert(
        "sim_mean_delay_slots",
        Summary::exact(first.mean_delay_slots),
    );
    metrics.insert("sim_delivery_ratio", Summary::exact(first.delivery_ratio));
    EndToEndResult {
        attempted,
        failed,
        sim_digest,
        metrics,
    }
}

/// One workload's traced result.
#[derive(Debug)]
pub(crate) struct TracedResult {
    /// Operations: one per case per pass for "the pass wrote the child's
    /// bytes", plus one per case per pass for "the parallel executor's row
    /// equals the serial one" on suite-cold.
    pub(crate) attempted: usize,
    pub(crate) failed: usize,
    /// Traced passes made; each metric is the median over them.
    pub(crate) passes: usize,
    /// Every per-layer metric by name — NaN, withheld, if any check failed.
    pub(crate) metrics: BTreeMap<String, f64>,
    /// The last traced pass's spans and folds as JSON.
    pub(crate) trace_json: String,
}

fn mean_entry_bytes(cache: &Path) -> f64 {
    let sizes: Vec<u64> = std::fs::read_dir(cache)
        .into_iter()
        .flatten()
        .filter_map(|e| e.ok()?.metadata().ok())
        .map(|m| m.len())
        .collect();
    sizes.iter().sum::<u64>() as f64 / sizes.len().max(1) as f64
}

/// Attribute `workload`'s time to layers: for about `seconds`, alternate an
/// untraced and a traced in-process pass over the same inputs, and hold the
/// traced pass's bytes against one run of the real child.
pub(crate) fn traced(workload: &Workload, seed: u64, seconds: f64, site: &Site) -> TracedResult {
    let kind = workload.kind;
    let inputs = workload.generate(seed, site.work);
    let cases = &inputs.cases;

    // The reference: what the real program writes for these inputs.  For
    // suite-warm its cold run also fills the cache the passes replay.
    let warm_cache = site.fresh_dir("cache");
    let mut reference_ok = site.child(kind, &inputs, &warm_cache).success;
    if kind == Kind::SuiteWarm {
        reference_ok &= site.child(kind, &inputs, &warm_cache).success;
    }
    let reference = site.outputs();
    let pass_cache = |name: &str| match kind {
        Kind::SuiteWarm => warm_cache.clone(),
        _ => site.fresh_dir(name),
    };
    let specs: Vec<ScenarioSpec> = match kind {
        Kind::SuiteCold => SuiteSpec::new(&inputs.path)
            .load_cases()
            .expect("the workload's specs are valid")
            .into_iter()
            .map(|case| case.spec)
            .collect(),
        _ => Vec::new(),
    };

    let (csv, sidecar) = (site.work.join("pass.csv"), site.work.join("pass.json"));
    let mut per_pass: Vec<BTreeMap<String, f64>> = Vec::new();
    let (mut traced_walls, mut untraced_walls) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0, 0);
    let mut last_tracer = None;
    let begin = Instant::now();
    while per_pass.len() < MIN_PASSES || begin.elapsed() < Duration::from_secs_f64(seconds) {
        let cache = pass_cache("cache-untraced");
        let untraced = run_pass(
            kind,
            &inputs.path,
            &cache,
            &csv,
            &sidecar,
            &mut Tracer::new(false),
        )
        .expect("the workload's specs run");

        let cache = pass_cache("cache-traced");
        let mut tracer = Tracer::new(true);
        alloc::start();
        let pass = run_pass(kind, &inputs.path, &cache, &csv, &sidecar, &mut tracer);
        let peak_live_bytes = alloc::stop();
        let pass = pass.expect("the workload's specs run");

        traced_walls.push(pass.wall_s);
        untraced_walls.push(untraced.wall_s);
        attempted += cases.len();
        if !reference_ok || pass.outputs != reference || untraced.outputs != reference {
            eprintln!(
                "FAILED {}: an in-process pass and the child binary wrote different bytes",
                workload.name
            );
            failed += cases.len();
        }

        let mut parallel = None;
        if kind == Kind::SuiteCold {
            let workers = default_workers();
            let start = Instant::now();
            let results = run_specs_parallel(&specs, workers);
            parallel = Some((start.elapsed().as_secs_f64(), workers));
            attempted += cases.len();
            for ((name, _), (result, serial_row)) in
                cases.iter().zip(results.iter().zip(&pass.rows))
            {
                if result.as_ref().map(|r| r.csv_row()).ok().as_ref() != Some(serial_row) {
                    eprintln!(
                        "FAILED {}: {name}: parallel row differs from serial",
                        workload.name
                    );
                    failed += 1;
                }
            }
        }

        per_pass.push(layer_metrics(
            &tracer,
            &Beside {
                engine_s: untraced.engine_s,
                parallel,
                peak_live_bytes,
                cache_entry_bytes: if kind == Kind::Scenario {
                    0.0
                } else {
                    mean_entry_bytes(&cache)
                },
            },
        ));
        last_tracer = Some(tracer);
    }

    let mut metrics: BTreeMap<String, f64> = per_pass[0]
        .keys()
        .map(|name| {
            let values: Vec<f64> = per_pass.iter().map(|m| m[name]).collect();
            (name.clone(), median(&values))
        })
        .collect();
    // The one metric that is a difference of two walls, each of which the
    // box's noise only ever lengthens: take it between the fastest traced
    // and the fastest untraced pass, not as a median of per-pair differences.
    let fastest = |walls: &[f64]| walls.iter().copied().fold(f64::INFINITY, f64::min);
    let (with, without) = (fastest(&traced_walls), fastest(&untraced_walls));
    metrics.insert(
        "trace.overhead_share".to_string(),
        (with - without) / without,
    );
    if failed > 0 {
        // Layer numbers of a pass that did not reproduce the program's
        // output describe some other computation: withhold them.
        metrics.values_mut().for_each(|v| *v = f64::NAN);
    }
    TracedResult {
        attempted,
        failed,
        passes: per_pass.len(),
        metrics,
        trace_json: last_tracer.map_or_else(String::new, |t| t.to_json(workload.name)),
    }
}
