//! Property tests for the `ScenarioSpec` JSON round-trip.
//!
//! The scenario files the `suite` runner consumes are written and read by
//! the simulator's own JSON module (`sprinklers_sim::json`), so
//! `parse(serialize(spec)) == spec` has to hold over the whole spec space,
//! not just the handful of examples the unit tests pin.  These properties
//! randomize every field — scheme (including hostile names), size, sizing
//! mode, all five traffic patterns, run lengths and seeds — and also assert
//! the *rejection* side: truncated or corrupted documents must fail to
//! parse, never silently mis-parse, and no edit of a document can make the
//! reader or the validation behind it panic.

use proptest::prelude::*;
use sprinklers_sim::engine::RunConfig;
use sprinklers_sim::registry;
use sprinklers_sim::spec::{ScenarioSpec, SizingSpec, TrafficSpec};

/// Build a spec from randomized raw draws.  Index-based selection keeps the
/// strategy surface inside what the proptest shim supports (ranges/tuples);
/// one parameter per drawn value is the point, hence the argument count.
#[allow(clippy::too_many_arguments)]
fn spec_from_draws(
    scheme_idx: usize,
    n: usize,
    sizing_idx: usize,
    fixed_size: usize,
    traffic_idx: usize,
    load: f64,
    aux_a: f64,
    aux_b: f64,
    run: (u64, u64, u64),
    seed: u64,
) -> ScenarioSpec {
    // Registry names plus hostile strings the escaper must survive.
    let hostile = ["quo\"te", "back\\slash", "new\nline", "tab\there"];
    let scheme: &str = if scheme_idx < registry::schemes().len() {
        registry::schemes()[scheme_idx]
    } else {
        hostile[(scheme_idx - registry::schemes().len()) % hostile.len()]
    };
    let sizing = match sizing_idx % 3 {
        0 => SizingSpec::Matrix,
        1 => SizingSpec::Adaptive,
        _ => SizingSpec::Fixed(fixed_size),
    };
    let traffic = match traffic_idx % 7 {
        0 => TrafficSpec::Uniform { load },
        1 => TrafficSpec::Diagonal { load },
        2 => TrafficSpec::Hotspot {
            load,
            hot_fraction: aux_a,
        },
        3 => TrafficSpec::Bursty {
            load,
            peak: aux_a,
            mean_burst: 1.0 + aux_b * 100.0,
        },
        4 => TrafficSpec::Flows {
            load,
            mean_flow_len: 1.0 + aux_b * 50.0,
        },
        5 => TrafficSpec::trace(format!("traces/capture-{fixed_size}.sprt")),
        _ => TrafficSpec::Trace {
            // Hostile path exercising the JSON string escaper.
            path: format!(
                "dir with \"quotes\"\\and\\tabs\t{fixed_size}.{}",
                if fixed_size.is_multiple_of(2) {
                    "csv"
                } else {
                    "sprt"
                }
            ),
            repeat: fixed_size as u32,
            scale: 0.25 + aux_b * 3.0,
        },
    };
    ScenarioSpec::new(scheme, n)
        .with_sizing(sizing)
        .with_traffic(traffic)
        .with_run(RunConfig {
            slots: run.0,
            warmup_slots: run.1,
            drain_slots: run.2,
        })
        .with_seed(seed)
}

/// What the fuzz splices into a document: JSON's structural characters, numbers
/// at and past every bound the reader checks, and keys it knows.
const SPLICES: [&str; 24] = [
    "{",
    "}",
    "[",
    "]",
    "\"",
    ",",
    ":",
    "0",
    "-",
    ".",
    "e",
    "1e999",
    "18446744073709551615",
    "18446744073709551616",
    "4294967296",
    "null",
    "true",
    "\\",
    "\\ud800",
    " ",
    "\"seed\": 1,",
    "\"link\"",
    "[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[",
    "\u{e9}",
];

/// The largest character boundary of `text` at or below `at`.
fn boundary(text: &str, at: usize) -> usize {
    (0..=at.min(text.len()))
        .rev()
        .find(|&i| text.is_char_boundary(i))
        .unwrap_or(0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn json_round_trip_is_the_identity(
        scheme_idx in 0usize..14,
        n in 2usize..512,
        sizing_idx in 0usize..3,
        fixed_size in 1usize..64,
        traffic_idx in 0usize..7,
        load in 0.01f64..0.99,
        aux_a in 0.05f64..1.0,
        aux_b in 0.0f64..1.0,
        run in (0u64..200_000, 0u64..50_000, 0u64..100_000),
        seed in 0u64..u64::MAX,
    ) {
        let spec = spec_from_draws(
            scheme_idx, n, sizing_idx, fixed_size, traffic_idx,
            load, aux_a, aux_b, run, seed,
        );
        let json = spec.to_json();
        let parsed = ScenarioSpec::from_json(&json);
        prop_assert!(parsed.is_ok(), "serialize produced unparseable JSON: {json}");
        prop_assert_eq!(parsed.unwrap(), spec);
    }

    #[test]
    fn serialization_is_deterministic(
        scheme_idx in 0usize..14,
        n in 2usize..128,
        traffic_idx in 0usize..7,
        load in 0.01f64..0.99,
        seed in 0u64..u64::MAX,
    ) {
        let spec = spec_from_draws(
            scheme_idx, n, 0, 1, traffic_idx, load, 0.5, 0.5, (1000, 100, 1000), seed,
        );
        prop_assert_eq!(spec.to_json(), spec.clone().to_json());
    }

    #[test]
    fn every_strict_prefix_is_rejected(
        scheme_idx in 0usize..14,
        n in 2usize..64,
        traffic_idx in 0usize..7,
        load in 0.01f64..0.99,
        cut in 0.0f64..1.0,
    ) {
        // A truncated spec document must never parse: the top-level object's
        // closing brace is always last, so any strict prefix is unbalanced.
        let spec = spec_from_draws(
            scheme_idx, n, 0, 1, traffic_idx, load, 0.5, 0.5, (1000, 100, 1000), 1,
        );
        let json = spec.to_json();
        let mut end = ((json.len() as f64) * cut) as usize;
        while end > 0 && !json.is_char_boundary(end) {
            end -= 1;
        }
        prop_assume!(end < json.len());
        prop_assert!(
            ScenarioSpec::from_json(&json[..end]).is_err(),
            "prefix of length {end} parsed"
        );
    }

    #[test]
    fn corrupted_key_names_are_rejected(
        n in 2usize..64,
        load in 0.01f64..0.99,
        victim in 0usize..4,
    ) {
        // Renaming any required/known key must produce an error (unknown
        // keys are rejected, and scheme/n are mandatory).
        let spec = ScenarioSpec::new("oq", n).with_traffic(TrafficSpec::Uniform { load });
        let json = spec.to_json();
        let key = ["\"scheme\"", "\"n\"", "\"traffic\"", "\"seed\""][victim];
        let broken = json.replacen(key, "\"bogus_key\"", 1);
        prop_assert!(broken != json, "key {key} not present in {json}");
        prop_assert!(ScenarioSpec::from_json(&broken).is_err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn edited_documents_are_typed_errors_or_round_trip(
        scheme_idx in 0usize..14,
        n in 2usize..64,
        traffic_idx in 0usize..8,
        load in 0.01f64..0.99,
        edits in collection::vec((0.0f64..1.0, 0usize..SPLICES.len(), 0usize..3), 1..6),
    ) {
        // Random edits of a valid spec file (the faulted fat-tree smoke spec
        // for one draw in eight): the reader returns an error or a spec,
        // never a panic; what it accepts validates without panicking and
        // survives its own round trip.
        let mut doc = if traffic_idx == 7 {
            include_str!("../../specs/smoke/fabric_faults.json").to_string()
        } else {
            spec_from_draws(
                scheme_idx, n, 2, 4, traffic_idx, load, 0.5, 0.5, (1000, 100, 1000), 1,
            )
            .to_json()
        };
        for (at, splice, op) in edits {
            let at = boundary(&doc, (doc.len() as f64 * at) as usize);
            match op {
                0 => doc.insert_str(at, SPLICES[splice]),
                1 => {
                    let end = boundary(&doc, at + 1 + splice % 4);
                    doc.replace_range(at..end, SPLICES[splice]);
                }
                _ => {
                    let end = boundary(&doc, at + 1 + splice % 4);
                    doc.replace_range(at..end, "");
                }
            }
        }
        if let Ok(spec) = ScenarioSpec::from_json(&doc) {
            let _ = spec.validate();
            let _ = spec.label();
            prop_assert_eq!(ScenarioSpec::from_json(&spec.to_json()).ok(), Some(spec));
        }
    }
}

#[test]
fn structurally_malformed_documents_are_rejected() {
    for bad in [
        "",
        "{",
        "}",
        "null",
        "[1,2,3]",
        "true",
        r#"{"scheme": "oq"}"#,                   // missing n
        r#"{"n": 8}"#,                           // missing scheme
        r#"{"scheme": "oq", "n": "eight"}"#,     // wrong type
        r#"{"scheme": "oq", "n": 8} trailing"#,  // trailing garbage
        r#"{"scheme": "oq", "n": 8, "run": 3}"#, // run not an object
        r#"{"scheme": "oq", "n": 8, "sizing": {"mode": "warp"}}"#,
        r#"{"scheme": "oq", "n": 8, "traffic": {"pattern": "psychic", "load": 0.5}}"#,
    ] {
        assert!(
            ScenarioSpec::from_json(bad).is_err(),
            "malformed document parsed: {bad}"
        );
    }
}
