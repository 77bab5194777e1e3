//! Property tests for the trace ingestion pipeline.
//!
//! Two load-bearing guarantees are pinned here:
//!
//! 1. **Format fidelity** — any admissible arrival stream written to the
//!    human-editable CSV and the binary `.sprt` reads back record for
//!    record, from either format, including flow identifiers.
//! 2. **Record→replay exactness** — capturing a synthetic scenario's
//!    arrival stream with `record_spec` and replaying it through
//!    `TrafficSpec::Trace` reproduces the original `SimReport` byte for
//!    byte (the full CSV row: delays, percentiles, reorders, occupancy),
//!    at any worker count.  This is what makes a trace a faithful
//!    substitute for the generator it was recorded from.

use proptest::prelude::*;
use sprinklers_sim::engine::{Engine, RunConfig};
use sprinklers_sim::parallel::run_specs_parallel;
use sprinklers_sim::spec::{ScenarioSpec, TrafficSpec};
use sprinklers_sim::traffic::trace_io::{
    record_spec, TraceMeta, TraceReader, TraceRecord, TraceWriter,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static CASE: AtomicU64 = AtomicU64::new(0);

fn tmp(tag: &str, ext: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "sprinklers-trace-prop-{}-{tag}-{}.{ext}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed),
    ))
}

/// Turn raw draws into an admissible, slot-ordered arrival stream: slots
/// advance by the drawn gaps, and a second packet on the same input in the
/// same slot is skipped (an input line carries at most one packet per slot).
fn build_stream(n: usize, raw: &[(u64, usize, usize, u64)]) -> Vec<TraceRecord> {
    let mut last: Vec<Option<u64>> = vec![None; n];
    let mut slot = 0u64;
    let mut out = Vec::new();
    for &(gap, input, output, flow) in raw {
        slot += gap;
        if last[input] == Some(slot) {
            continue;
        }
        last[input] = Some(slot);
        out.push(TraceRecord {
            slot,
            input,
            output,
            flow,
        });
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn both_formats_round_trip_any_admissible_stream(
        raw in collection::vec((0u64..5, 0usize..8, 0usize..8, 0u64..9), 1..250),
    ) {
        let records = build_stream(8, &raw);
        let meta = TraceMeta {
            n: Some(8),
            slots: 0, // derive the span from the data
            label: Some("prop-stream".into()),
            matrix: None,
        };
        for format in ["csv", "sprt"] {
            let path = tmp("roundtrip", format);
            let mut writer = TraceWriter::create(&path, &meta).unwrap();
            for rec in &records {
                writer.write(rec).unwrap();
            }
            let (written, _span) = writer.finish().unwrap();
            prop_assert_eq!(written, records.len() as u64);

            let mut reader = TraceReader::open(&path).unwrap();
            prop_assert_eq!(reader.encoding(), format);
            prop_assert_eq!(reader.meta().n, Some(8));
            let mut back = Vec::new();
            while let Some(rec) = reader.next_record().unwrap() {
                back.push(rec);
            }
            prop_assert_eq!(&back, &records, "{} diverged", format);
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn record_then_replay_reproduces_the_report_exactly(
        pattern in 0usize..3,
        scheme in 0usize..3,
        load in 0.1f64..0.85,
        seed in 0u64..u64::MAX,
        fmt in 0usize..2,
    ) {
        let traffic = match pattern {
            0 => TrafficSpec::Uniform { load },
            1 => TrafficSpec::Bursty { load, peak: 1.0, mean_burst: 12.0 },
            _ => TrafficSpec::Flows { load, mean_flow_len: 9.0 },
        };
        let scheme = ["sprinklers", "oq", "foff"][scheme];
        let spec = ScenarioSpec::new(scheme, 8)
            .with_traffic(traffic)
            .with_run(RunConfig { slots: 400, warmup_slots: 50, drain_slots: 2_000 })
            .with_seed(seed);
        let format = ["csv", "sprt"][fmt];
        let path = tmp("replay", format);
        record_spec(&spec, &path).unwrap();

        let replay_spec = spec
            .clone()
            .with_traffic(TrafficSpec::trace(path.to_string_lossy().into_owned()));

        let mut engine = Engine::new();
        let original = engine.run(&spec).unwrap();
        let replay = engine.run(&replay_spec).unwrap();
        prop_assert_eq!(
            replay.csv_row(),
            original.csv_row(),
            "{} replay diverged ({})",
            scheme, format
        );
        std::fs::remove_file(&path).ok();
    }
}

/// The acceptance case, pinned as a plain test: `trace record` of
/// `specs/smoke/sprinklers_uniform.json` then replay reproduces its report
/// byte for byte at any worker count.
#[test]
fn smoke_spec_record_replay_is_exact_at_any_workers_and_batch() {
    let spec_path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../specs/smoke/sprinklers_uniform.json");
    let spec = ScenarioSpec::from_json(&std::fs::read_to_string(spec_path).unwrap()).unwrap();

    let trace_path = tmp("smoke", "sprt");
    record_spec(&spec, &trace_path).unwrap();
    let replay = spec.clone().with_traffic(TrafficSpec::trace(
        trace_path.to_string_lossy().into_owned(),
    ));

    let pair = [spec, replay];
    for workers in [1usize, 2] {
        let results = run_specs_parallel(&pair, workers);
        let original = results[0].as_ref().unwrap().csv_row();
        let replayed = results[1].as_ref().unwrap().csv_row();
        assert_eq!(
            replayed, original,
            "record→replay diverged at workers={workers}"
        );
    }
    std::fs::remove_file(&trace_path).ok();
}

/// Converting between the two formats preserves every record and the
/// provenance metadata, so a converted trace replays identically.
#[test]
fn format_conversion_is_lossless_end_to_end() {
    let spec = ScenarioSpec::new("sprinklers", 8)
        .with_traffic(TrafficSpec::Uniform { load: 0.6 })
        .with_run(RunConfig {
            slots: 300,
            warmup_slots: 50,
            drain_slots: 1_500,
        })
        .with_seed(13);
    let sprt = tmp("convert", "sprt");
    let csv = tmp("convert", "csv");
    record_spec(&spec, &sprt).unwrap();

    // Stream-convert sprt -> csv, exactly as the `trace convert` CLI does.
    let mut reader = TraceReader::open(&sprt).unwrap();
    let meta = reader.meta().clone();
    let mut writer = TraceWriter::create(&csv, &meta).unwrap();
    while let Some(rec) = reader.next_record().unwrap() {
        writer.write(&rec).unwrap();
    }
    writer.finish().unwrap();

    let mut engine = Engine::new();
    let from_sprt = engine
        .run(
            &spec
                .clone()
                .with_traffic(TrafficSpec::trace(sprt.to_string_lossy().into_owned())),
        )
        .unwrap();
    let from_csv = engine
        .run(
            &spec
                .clone()
                .with_traffic(TrafficSpec::trace(csv.to_string_lossy().into_owned())),
        )
        .unwrap();
    assert_eq!(from_sprt.csv_row(), from_csv.csv_row());
    std::fs::remove_file(&sprt).ok();
    std::fs::remove_file(&csv).ok();
}
