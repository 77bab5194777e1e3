//! End-to-end parity for the content-addressed experiment cache.
//!
//! The cache's contract is that a warm run is *indistinguishable* from a
//! cold one: the merged CSV assembled from cached rows must be
//! byte-identical to the one assembled from fresh reports, the stored
//! summary scalars must be bit-exact, and the key must ignore exactly the
//! inert `batch` and `threads` fields — nothing else.  A replayed trace's
//! key covers the file's bytes, not just its path.

use sprinklers_sim::cache::{CachedRun, ExperimentCache};
use sprinklers_sim::engine::{Engine, RunConfig};
use sprinklers_sim::parallel::run_specs_parallel_ok;
use sprinklers_sim::report::merge_csv_rows;
use sprinklers_sim::spec::{ScenarioSpec, SizingSpec, TrafficSpec};
use sprinklers_sim::traffic::trace_io::record_spec;

fn grid() -> Vec<(String, ScenarioSpec)> {
    let mut cases = Vec::new();
    for scheme in ["sprinklers", "oq", "foff"] {
        for load in [0.4, 0.8] {
            let spec = ScenarioSpec::new(scheme, 8)
                .with_traffic(TrafficSpec::Uniform { load })
                .with_run(RunConfig {
                    slots: 900,
                    warmup_slots: 90,
                    drain_slots: 4_096,
                })
                .with_seed(23);
            cases.push((format!("{scheme}_{load}"), spec));
        }
    }
    cases
}

fn temp_cache(name: &str) -> ExperimentCache {
    let dir = std::env::temp_dir().join(format!(
        "sprinklers-cache-parity-{name}-{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    ExperimentCache::open(dir).unwrap()
}

#[test]
fn identity_hash_ignores_batch_and_threads_but_nothing_else() {
    let (_, base) = grid().remove(0);
    let hash = base.content_hash();
    // The inert `batch` and `threads` fields map to the same experiment:
    // entries stored while they were knobs stay hits.
    for batch in [1, 64, 1_000] {
        let mut batched = base.clone();
        batched.batch = batch;
        assert_eq!(batched.content_hash(), hash);
    }
    let mut threaded = base.clone();
    threaded.threads = 8;
    assert_eq!(threaded.content_hash(), hash);
    // Everything scientific separates.
    let variations = [
        base.clone().with_seed(base.seed + 1),
        base.clone()
            .with_traffic(TrafficSpec::Uniform { load: 0.41 }),
        base.clone().with_run(RunConfig {
            slots: 901,
            ..base.run
        }),
        ScenarioSpec::new("oq", base.n),
        ScenarioSpec::new(&base.scheme, 16),
    ];
    let mut hashes: Vec<u128> = variations.iter().map(ScenarioSpec::content_hash).collect();
    hashes.push(hash);
    hashes.sort_unstable();
    hashes.dedup();
    assert_eq!(hashes.len(), variations.len() + 1, "hash collision in grid");
}

#[test]
fn adaptive_sprinklers_keys_one_run_under_either_sizing() {
    // `sprinklers-adaptive` sizes stripes from measured rates whatever the
    // spec says, so `matrix` and `adaptive` sizing are one run and one
    // cache entry; under `sprinklers` they are two runs.
    let specs = |scheme: &str| {
        let base = ScenarioSpec::new(scheme, 16)
            .with_run(RunConfig {
                slots: 2_000,
                warmup_slots: 200,
                drain_slots: 1_000,
            })
            .with_seed(3);
        [SizingSpec::Matrix, SizingSpec::Adaptive].map(|sizing| base.clone().with_sizing(sizing))
    };
    let [matrix, adaptive] = specs("sprinklers-adaptive");
    assert_eq!(matrix.content_hash(), adaptive.content_hash());
    let [row, same] = [&matrix, &adaptive].map(|spec| {
        let report = Engine::new().run(spec).unwrap();
        (report.csv_row(), report.metrics_json())
    });
    assert_eq!(row, same, "one key must mean one run");
    let [matrix, adaptive] = specs("sprinklers");
    assert_ne!(matrix.content_hash(), adaptive.content_hash());
}

#[test]
fn the_template_spec_keeps_its_bytes_and_its_cache_key() {
    // Captured before `batch` stopped being a knob: spec files and cache
    // entries written then must still be read as the same experiment.
    let spec = ScenarioSpec::new("sprinklers", 32);
    assert_eq!(
        spec.to_json(),
        concat!(
            "{\n",
            "  \"scheme\": \"sprinklers\",\n",
            "  \"n\": 32,\n",
            "  \"sizing\": {\"mode\":\"matrix\"},\n",
            "  \"traffic\": {\"pattern\":\"uniform\",\"load\":0.6},\n",
            "  \"run\": {\"slots\":100000,\"warmup_slots\":10000,\"drain_slots\":50000},\n",
            "  \"seed\": 1,\n",
            "  \"batch\": 64,\n",
            "  \"threads\": 1\n",
            "}"
        )
    );
    assert_eq!(spec.content_hash(), 0xaf3d8c28ee05e11a555cdb6041f35b80);
}

#[test]
fn warm_cache_reproduces_the_cold_merged_csv_byte_for_byte() {
    let cache = temp_cache("roundtrip");
    let cases = grid();
    let specs: Vec<ScenarioSpec> = cases.iter().map(|(_, s)| s.clone()).collect();

    // Cold pass: simulate everything, store every entry (with metrics).
    let reports = run_specs_parallel_ok(&specs, 2).unwrap();
    let mut cold_rows = Vec::new();
    for (spec, report) in specs.iter().zip(&reports) {
        let run = CachedRun::from_report(report, true);
        cache.store(spec.content_hash(), &run).unwrap();
        cold_rows.push(run.csv_row.clone());
    }
    let cold_csv = merge_csv_rows(
        cases
            .iter()
            .map(|(name, _)| name.as_str())
            .zip(cold_rows.iter().cloned()),
    );

    // Warm pass: every cell must hit, with a *different* inert `batch`
    // value, and reproduce rows, scalars and metrics bit-exactly.
    let mut warm_rows = Vec::new();
    for ((_, spec), report) in cases.iter().zip(&reports) {
        let mut retuned = spec.clone();
        retuned.batch = 7;
        let hit = cache
            .load(retuned.content_hash())
            .expect("warm pass must not miss");
        assert_eq!(hit, CachedRun::from_report(report, true));
        assert_eq!(
            hit.mean_delay.to_bits(),
            report.delay.mean().to_bits(),
            "stored scalar drifted"
        );
        warm_rows.push(hit.csv_row);
    }
    let warm_csv = merge_csv_rows(
        cases
            .iter()
            .map(|(name, _)| name.as_str())
            .zip(warm_rows.iter().cloned()),
    );
    assert_eq!(cold_csv, warm_csv, "cached CSV differs from computed CSV");
    std::fs::remove_dir_all(cache.dir()).ok();
}

#[test]
fn an_entry_stored_without_metrics_cannot_serve_a_metrics_run() {
    // The suite treats a metrics-less hit as a miss when --metrics full is
    // active; the data layer's part of that contract is simply that the
    // absence round-trips (None stays None, never an empty string).
    let cache = temp_cache("nometrics");
    let (_, spec) = grid().remove(0);
    let report = run_specs_parallel_ok(std::slice::from_ref(&spec), 1)
        .unwrap()
        .remove(0);
    cache
        .store(spec.content_hash(), &CachedRun::from_report(&report, false))
        .unwrap();
    let hit = cache.load(spec.content_hash()).unwrap();
    assert_eq!(hit.metrics_json, None);
    // Re-storing with metrics upgrades the entry in place.
    cache
        .store(spec.content_hash(), &CachedRun::from_report(&report, true))
        .unwrap();
    assert_eq!(
        cache.load(spec.content_hash()).unwrap().metrics_json,
        Some(report.metrics_json())
    );
    std::fs::remove_dir_all(cache.dir()).ok();
}

#[test]
fn a_trace_key_follows_the_file_bytes_at_one_path() {
    let cache = temp_cache("trace-bytes");
    let trace = cache.dir().join("capture.sprt");
    let run = RunConfig {
        slots: 400,
        warmup_slots: 40,
        drain_slots: 2_048,
    };
    let record = |load| {
        let source = ScenarioSpec::new("oq", 8)
            .with_traffic(TrafficSpec::Uniform { load })
            .with_run(run)
            .with_seed(5);
        record_spec(&source, &trace).unwrap();
    };
    let replay = ScenarioSpec::new("oq", 8)
        .with_traffic(TrafficSpec::trace(trace.to_string_lossy().into_owned()))
        .with_run(run);

    record(0.5);
    let first = replay.content_hash();
    let report = run_specs_parallel_ok(std::slice::from_ref(&replay), 1)
        .unwrap()
        .remove(0);
    cache
        .store(first, &CachedRun::from_report(&report, false))
        .unwrap();

    // New bytes at the same path: a miss.
    record(0.9);
    let second = replay.content_hash();
    assert_ne!(second, first);
    assert!(cache.load(second).is_none(), "a re-recorded trace hit");

    // The same bytes written again: a hit.
    record(0.5);
    assert_eq!(replay.content_hash(), first);
    assert_eq!(cache.load(first).unwrap().csv_row, report.csv_row());

    // An unreadable trace keys on a fixed marker: stable, and no stored
    // entry's key.
    std::fs::remove_file(&trace).unwrap();
    let missing = replay.content_hash();
    assert_eq!(replay.content_hash(), missing);
    assert!(missing != first && missing != second);
    std::fs::remove_dir_all(cache.dir()).ok();
}
