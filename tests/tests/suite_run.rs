//! A suite run (`SuiteRun`) emits each case as soon as every earlier
//! case is out and then drops its metrics.  Its CSV, its sidecar and the
//! cache entries it stores must be byte-identical to the collected path —
//! probe every case, run the misses on `run_specs_parallel`, store each
//! result, then `merge_csv_rows` / `metrics_sidecar_json` over all of them —
//! at any worker count and whatever mix of hits and misses the cache holds.
//! A failing case fails the run under the earliest failing case's name.

use sprinklers_sim::cache::{CachedRun, ExperimentCache};
use sprinklers_sim::engine::RunConfig;
use sprinklers_sim::parallel::{run_specs_parallel, run_specs_parallel_ok};
use sprinklers_sim::report::{merge_csv_rows, metrics_sidecar_json, SimReport};
use sprinklers_sim::spec::{ScenarioSpec, SpecError, SuiteCase, SuiteRun, SuiteSpec, TrafficSpec};
use std::path::{Path, PathBuf};

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("sprinklers-suite-run-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Seven small cases: three schemes × two loads, then a case that repeats
/// the first one's spec under its own name, so two cases share a content
/// hash.
fn cases() -> Vec<SuiteCase> {
    let base = ScenarioSpec::new("oq", 8)
        .with_run(RunConfig {
            slots: 1_200,
            warmup_slots: 100,
            drain_slots: 1_500,
        })
        .with_seed(11);
    let suite = SuiteSpec::new("unused")
        .with_schemes(vec!["oq".into(), "sprinklers".into(), "foff".into()])
        .with_loads(vec![0.3, 0.6]);
    let mut cases = suite.expand(
        "grid",
        &base.with_traffic(TrafficSpec::Uniform { load: 0.5 }),
    );
    let mut twin = cases[0].clone();
    twin.name = "twin".into();
    cases.push(twin);
    cases
}

/// Which cases a cache holds before a run, and whether with metrics.
#[derive(Clone, Copy)]
enum Held {
    Nothing,
    All,
    /// Cases 2, 3 and 5, with metrics: misses before and between hits.
    Some,
    /// Every case, but cases 1 and 4 without metrics.
    MetricsLess,
    /// Only the first of the two cases with one content hash.
    OneTwin,
}

/// A cache at `dir` holding what `held` names of `reports`, the cases'
/// finished runs.
fn fill(dir: &Path, held: Held, cases: &[SuiteCase], reports: &[SimReport]) -> ExperimentCache {
    let cache = ExperimentCache::open(dir).expect("cache opens");
    for (i, report) in reports.iter().enumerate() {
        let metrics = match held {
            Held::Nothing => continue,
            Held::All => true,
            Held::Some if [2, 3, 5].contains(&i) => true,
            Held::Some => continue,
            Held::MetricsLess => ![1, 4].contains(&i),
            Held::OneTwin if i == 0 => true,
            Held::OneTwin => continue,
        };
        let run = CachedRun::from_report(report, metrics);
        cache
            .store(cases[i].spec.content_hash(), &run)
            .expect("store");
    }
    cache
}

/// The suite as it ran before streaming: every result held to the end.
fn collected(
    cases: &[SuiteCase],
    cache: Option<&ExperimentCache>,
    metrics: bool,
    workers: usize,
) -> (String, Option<String>) {
    let mut runs: Vec<Option<CachedRun>> = cases
        .iter()
        .map(|case| {
            cache
                .and_then(|c| c.load(case.spec.content_hash()))
                .filter(|run| !metrics || run.metrics_json.is_some())
        })
        .collect();
    let misses: Vec<usize> = (0..cases.len()).filter(|&i| runs[i].is_none()).collect();
    let specs: Vec<ScenarioSpec> = misses.iter().map(|&i| cases[i].spec.clone()).collect();
    for (&i, result) in misses.iter().zip(run_specs_parallel(&specs, workers)) {
        let run = CachedRun::from_report(&result.expect("the case runs"), metrics);
        if let Some(cache) = cache {
            cache
                .store(cases[i].spec.content_hash(), &run)
                .expect("store");
        }
        runs[i] = Some(run);
    }
    let runs: Vec<CachedRun> = runs.into_iter().map(Option::unwrap).collect();
    let names = || cases.iter().map(|c| c.name.as_str());
    let csv = merge_csv_rows(names().zip(runs.iter().map(|r| r.csv_row.clone())));
    let sidecar = metrics.then(|| {
        metrics_sidecar_json(names().zip(runs.iter().map(|r| r.metrics_json.as_deref().unwrap())))
    });
    (csv, sidecar)
}

/// Every entry file of a cache directory, by name.
fn entries(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("cache dir")
        .map(|e| {
            let path = e.expect("entry").path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).expect("entry bytes"))
        })
        .collect();
    files.sort();
    files
}

#[test]
fn streamed_outputs_and_entries_equal_the_collected_path() {
    let cases = cases();
    assert_eq!(cases[0].spec.content_hash(), cases[6].spec.content_hash());
    let specs: Vec<ScenarioSpec> = cases.iter().map(|c| c.spec.clone()).collect();
    let reports = run_specs_parallel_ok(&specs, 2).expect("every case runs");
    let root = temp_dir("parity");
    for (tag, held) in [
        ("none", Held::Nothing),
        ("all", Held::All),
        ("some", Held::Some),
        ("metricsless", Held::MetricsLess),
        ("twin", Held::OneTwin),
    ] {
        for workers in [1, 2, 4] {
            for metrics in [false, true] {
                let at = |side: &str| root.join(format!("{tag}-{workers}-{metrics}-{side}"));
                let (want_dir, got_dir) = (at("collected"), at("streamed"));
                let want_cache = fill(&want_dir, held, &cases, &reports);
                let got_cache = fill(&got_dir, held, &cases, &reports);
                let (want_csv, want_sidecar) =
                    collected(&cases, Some(&want_cache), metrics, workers);

                let run = SuiteRun::probe(&cases, Some(&got_cache), metrics.then(Vec::new))
                    .expect("probe");
                let misses = run.misses();
                let (csv, runs, sidecar) = run.finish(workers).expect("the suite runs");
                let what = format!("{tag}, workers {workers}, metrics {metrics}");
                assert_eq!(csv, want_csv, "{what}: CSV");
                let sidecar = sidecar.map(|bytes| String::from_utf8(bytes).unwrap());
                assert_eq!(sidecar, want_sidecar, "{what}: sidecar");
                assert_eq!(
                    entries(&got_dir),
                    entries(&want_dir),
                    "{what}: cache entries"
                );
                assert_eq!(runs.len(), cases.len());
                assert!(
                    runs.iter().all(|r| r.metrics_json.is_none()),
                    "{what}: metrics kept"
                );
                let expected_misses = match (held, metrics) {
                    (Held::Nothing, _) => 7,
                    (Held::All, _) => 0,
                    (Held::Some, _) => 4,
                    (Held::MetricsLess, false) => 0,
                    (Held::MetricsLess, true) => 2,
                    (Held::OneTwin, _) => 5,
                };
                assert_eq!(misses, expected_misses, "{what}: misses");
            }
        }
    }
    // Without a cache every case is simulated.
    for workers in [1, 2, 4] {
        let run = SuiteRun::probe(&cases, None, Some(Vec::new())).expect("probe");
        assert_eq!(run.misses(), cases.len());
        let (csv, _, sidecar) = run.finish(workers).expect("the suite runs");
        let (want_csv, want_sidecar) = collected(&cases, None, true, workers);
        assert_eq!(csv, want_csv);
        assert_eq!(
            sidecar.map(|bytes| String::from_utf8(bytes).unwrap()),
            want_sidecar
        );
    }
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn a_failing_case_fails_the_run_under_the_earliest_failing_name() {
    let mut cases = cases();
    cases[2].spec.scheme = "early-bogus".into();
    cases[5].spec.scheme = "late-bogus".into();
    let root = temp_dir("failure");
    let cache = ExperimentCache::open(&root).expect("cache opens");
    for workers in [1, 2, 4] {
        let err = SuiteRun::probe(&cases, Some(&cache), Some(Vec::new()))
            .expect("probe")
            .finish(workers)
            .expect_err("a case fails");
        let spec_error = err.get_ref().and_then(|e| e.downcast_ref::<SpecError>());
        let message = spec_error.expect("a case's error").to_string();
        assert!(
            message.contains(&format!("case '{}'", cases[2].name)),
            "{message}"
        );
        assert!(message.contains("early-bogus"), "{message}");
        assert!(!message.contains("late-bogus"), "{message}");
    }
    std::fs::remove_dir_all(&root).ok();
}
