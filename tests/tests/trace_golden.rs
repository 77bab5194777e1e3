//! Golden snapshot of trace replay across the whole scheme registry.
//!
//! `tests/fixtures/trace_flows.sprt` (and its CSV twin
//! `trace_flows.csv`) is a checked-in capture of flow-structured traffic at
//! n = 8 — flows so the TCP-hashing baseline's hash path is exercised too.
//! This suite replays it through **all 8 registry schemes** and pins the
//! merged report CSV byte for byte against
//! `tests/fixtures/trace_golden.csv`, at workers {1, 2}, from both file
//! formats.  Any change to the trace decoding, the replay
//! stream, the metadata plumbing (label/matrix), or a scheme's behaviour
//! under replayed traffic fails loudly here.
//!
//! To regenerate after an *intentional* semantic change:
//!
//! ```text
//! BLESS_TRACE_GOLDEN=1 cargo test -p sprinklers-integration-tests --test trace_golden
//! ```

use sprinklers_sim::engine::RunConfig;
use sprinklers_sim::parallel::run_specs_parallel;
use sprinklers_sim::registry;
use sprinklers_sim::report::{merge_csv_rows, SimReport};
use sprinklers_sim::spec::{ScenarioSpec, TrafficSpec};
use std::path::PathBuf;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("fixtures/{name}"))
}

fn replay_specs(trace: &str) -> Vec<ScenarioSpec> {
    registry::schemes()
        .iter()
        .map(|scheme| {
            ScenarioSpec::new(*scheme, 8)
                .with_traffic(TrafficSpec::trace(
                    fixture(trace).to_string_lossy().into_owned(),
                ))
                .with_run(RunConfig {
                    slots: 1_000,
                    warmup_slots: 100,
                    drain_slots: 4_000,
                })
                .with_seed(7)
        })
        .collect()
}

fn run_merged(trace: &str, workers: usize) -> String {
    let specs = replay_specs(trace);
    let reports: Vec<SimReport> = run_specs_parallel(&specs, workers)
        .into_iter()
        .collect::<Result<_, _>>()
        .expect("every scheme replays the fixture trace");
    merge_csv_rows(
        registry::schemes()
            .iter()
            .copied()
            .zip(reports.iter().map(SimReport::csv_row)),
    )
}

#[test]
fn all_schemes_reproduce_the_golden_trace_csv() {
    let golden_path = fixture("trace_golden.csv");
    if std::env::var_os("BLESS_TRACE_GOLDEN").is_some() {
        std::fs::write(&golden_path, run_merged("trace_flows.sprt", 1)).unwrap();
        eprintln!("blessed {}", golden_path.display());
    }
    let golden = std::fs::read_to_string(&golden_path)
        .expect("fixtures/trace_golden.csv exists (regenerate with BLESS_TRACE_GOLDEN=1)");
    for workers in [1usize, 2] {
        let csv = run_merged("trace_flows.sprt", workers);
        assert_eq!(
            csv, golden,
            "trace replay diverged from the golden CSV at workers={workers}; \
             if intentional, regenerate (see module docs)"
        );
    }
}

#[test]
fn the_csv_twin_replays_byte_identically_to_the_binary() {
    // The same capture is checked in twice — binary and CSV — and both must
    // produce the same golden output: format choice can never leak into
    // simulation results.
    let golden = std::fs::read_to_string(fixture("trace_golden.csv"))
        .expect("fixtures/trace_golden.csv exists (regenerate with BLESS_TRACE_GOLDEN=1)");
    let csv = run_merged("trace_flows.csv", 2);
    assert_eq!(
        csv, golden,
        "CSV-format replay diverged from the .sprt golden"
    );
}

#[test]
fn the_fixture_trace_carries_full_provenance() {
    use sprinklers_sim::traffic::trace_io::TraceReader;
    for name in ["trace_flows.sprt", "trace_flows.csv"] {
        let reader = TraceReader::open(fixture(name)).unwrap();
        assert_eq!(reader.meta().n, Some(8), "{name}");
        assert!(reader.meta().label.is_some(), "{name}");
        assert!(reader.meta().matrix.is_some(), "{name}");
        assert_eq!(reader.meta().slots, 800, "{name}");
    }
}

#[test]
fn a_spec_naming_the_old_format_key_replays_the_same_row() {
    // Replay specs written before the encoding was read from the file carry
    // `"format"` after the path; the key is read and dropped, whichever
    // name it gives.
    let spec = replay_specs("trace_flows.sprt").remove(0);
    let expected = run_specs_parallel(std::slice::from_ref(&spec), 1)
        .remove(0)
        .expect("the fixture replays")
        .csv_row();
    for name in ["sprt", "csv"] {
        let legacy = spec
            .to_json()
            .replace("\"repeat\":", &format!("\"format\":\"{name}\",\"repeat\":"));
        assert!(legacy.contains("\"format\""), "{legacy}");
        let parsed = ScenarioSpec::from_json(&legacy).expect("a legacy replay spec parses");
        assert_eq!(parsed, spec, "{name}");
        assert!(!parsed.to_json().contains("format"), "{name}");
        let row = run_specs_parallel(std::slice::from_ref(&parsed), 1)
            .remove(0)
            .expect("a legacy replay spec runs")
            .csv_row();
        assert_eq!(row, expected, "{name}");
    }
}
