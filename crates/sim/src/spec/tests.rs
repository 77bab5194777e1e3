use super::*;

#[test]
fn defaults_are_sane() {
    let spec = ScenarioSpec::new("sprinklers", 16);
    assert_eq!(spec.scheme, "sprinklers");
    assert_eq!(spec.n, 16);
    assert_eq!(spec.sizing, SizingSpec::Matrix);
    assert_eq!(spec.traffic.load(), 0.6);
}

/// Every synthetic pattern at `load`, for the load-validation tests.
fn synthetic_patterns(load: f64) -> Vec<TrafficSpec> {
    vec![
        TrafficSpec::Uniform { load },
        TrafficSpec::Diagonal { load },
        TrafficSpec::Hotspot {
            load,
            hot_fraction: 0.5,
        },
        TrafficSpec::Bursty {
            load,
            peak: 1.0,
            mean_burst: 8.0,
        },
        TrafficSpec::Flows {
            load,
            mean_flow_len: 10.0,
        },
    ]
}

/// Assert that `traffic` is refused — by its own check, by the scenario's
/// and by the generator constructor — naming `what` and the value.
fn assert_traffic_rejected(traffic: TrafficSpec, what: &str) {
    let message = traffic.validate().unwrap_err().to_string();
    assert!(
        message.contains(&format!("traffic {what} must be a finite number in [0, 1]")),
        "{traffic:?}: {message}"
    );
    assert!(
        traffic.build(8, 1).is_err(),
        "{traffic:?} built a generator"
    );
    let spec = ScenarioSpec::new("sprinklers", 8).with_traffic(traffic);
    assert_eq!(spec.validate().unwrap_err().to_string(), message);
}

#[test]
fn negative_load_is_a_typed_error() {
    for traffic in synthetic_patterns(-0.1) {
        assert_traffic_rejected(traffic, "load");
    }
}

#[test]
fn non_finite_load_is_a_typed_error() {
    for load in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        for traffic in synthetic_patterns(load) {
            assert_traffic_rejected(traffic, "load");
        }
    }
}

#[test]
fn load_above_one_is_a_typed_error() {
    // One packet per input per slot is all a generator can offer.
    for traffic in synthetic_patterns(1.5) {
        assert_traffic_rejected(traffic, "load");
    }
}

#[test]
fn hot_fraction_outside_the_unit_interval_is_a_typed_error() {
    for hot_fraction in [-0.2, 1.01, f64::NAN] {
        assert_traffic_rejected(
            TrafficSpec::Hotspot {
                load: 0.5,
                hot_fraction,
            },
            "hot_fraction",
        );
    }
}

#[test]
fn load_validation_accepts_the_closed_unit_interval_and_trace_scales() {
    for load in [0.0, 0.05, 1.0] {
        for traffic in synthetic_patterns(load) {
            assert!(traffic.validate().is_ok(), "{traffic:?}");
        }
    }
    // A trace's load knob is its time scale, which may exceed 1.
    assert!(TrafficSpec::trace("t.sprt")
        .with_load(1.5)
        .validate()
        .is_ok());
}

#[test]
fn load_overrides_are_validated_where_the_case_runs() {
    // A suite's `--loads` (and the CLI's `--load`) rewrite the spec after
    // it was parsed; the engine's validation is what catches them.
    let base = ScenarioSpec::new("oq", 8).with_run(RunConfig::quick());
    let cases = SuiteSpec::new("unused")
        .with_loads(vec![0.3, -0.1])
        .expand("case", &base);
    let mut engine = crate::engine::Engine::new();
    assert!(engine.run(&cases[0].spec).is_ok());
    let message = engine.run(&cases[1].spec).unwrap_err().to_string();
    assert!(message.contains("traffic load"), "{message}");
}

#[test]
fn json_round_trip_preserves_every_field() {
    let spec = ScenarioSpec::new("foff", 32)
        .with_sizing(SizingSpec::Fixed(4))
        .with_traffic(TrafficSpec::Hotspot {
            load: 0.85,
            hot_fraction: 0.4,
        })
        .with_run(RunConfig {
            slots: 1234,
            warmup_slots: 56,
            drain_slots: 789,
        })
        .with_seed(99);
    let parsed = ScenarioSpec::from_json(&spec.to_json()).unwrap();
    assert_eq!(parsed, spec);
}

#[test]
fn json_round_trip_escapes_hostile_scheme_names() {
    for scheme in ["a\"b", "back\\slash", "tab\there", "new\nline", "\u{1}"] {
        let spec = ScenarioSpec::new(scheme, 8);
        let parsed = ScenarioSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(parsed.scheme, scheme);
    }
}

#[test]
fn json_round_trip_covers_all_traffic_patterns() {
    for traffic in [
        TrafficSpec::Uniform { load: 0.5 },
        TrafficSpec::Diagonal { load: 0.9 },
        TrafficSpec::Bursty {
            load: 0.6,
            peak: 1.0,
            mean_burst: 32.0,
        },
        TrafficSpec::Flows {
            load: 0.7,
            mean_flow_len: 20.0,
        },
    ] {
        let spec = ScenarioSpec::new("ufs", 8).with_traffic(traffic);
        assert_eq!(ScenarioSpec::from_json(&spec.to_json()).unwrap(), spec);
    }
}

#[test]
fn batch_round_trips_and_defaults() {
    let mut spec = ScenarioSpec::new("sprinklers", 8);
    spec.batch = 17;
    let parsed = ScenarioSpec::from_json(&spec.to_json()).unwrap();
    assert_eq!(parsed.batch, 17);
    assert_eq!(parsed, spec);
    // Specs without the key parse to the default.
    let legacy = ScenarioSpec::from_json(r#"{"scheme": "oq", "n": 8}"#).unwrap();
    assert_eq!(legacy.batch, 64);
}

#[test]
fn zero_and_fractional_batches_are_rejected() {
    for bad in [
        r#"{"scheme": "oq", "n": 8, "batch": 0}"#,
        r#"{"scheme": "oq", "n": 8, "batch": 1.5}"#,
        r#"{"scheme": "oq", "n": 8, "batch": 4294967296}"#,
    ] {
        assert!(ScenarioSpec::from_json(bad).is_err(), "accepted: {bad}");
    }
}

#[test]
fn threads_round_trips_and_defaults() {
    let mut spec = ScenarioSpec::new("sprinklers", 8);
    spec.threads = 4;
    let parsed = ScenarioSpec::from_json(&spec.to_json()).unwrap();
    assert_eq!(parsed.threads, 4);
    assert_eq!(parsed, spec);
    // Specs without the key parse to the default.
    let legacy = ScenarioSpec::from_json(r#"{"scheme": "oq", "n": 8}"#).unwrap();
    assert_eq!(legacy.threads, 1);
}

#[test]
fn zero_and_fractional_thread_counts_are_rejected() {
    for bad in [
        r#"{"scheme": "oq", "n": 8, "threads": 0}"#,
        r#"{"scheme": "oq", "n": 8, "threads": 2.5}"#,
        r#"{"scheme": "oq", "n": 8, "threads": 4294967296}"#,
    ] {
        assert!(ScenarioSpec::from_json(bad).is_err(), "accepted: {bad}");
    }
}

#[test]
fn seeds_beyond_f64_precision_round_trip_exactly() {
    // Found by the spec_roundtrip_prop property suite: the JSON reader
    // used to funnel integers through f64, corrupting seeds > 2^53.
    for seed in [u64::MAX, u64::MAX - 1, (1 << 53) + 1, 16591238828776808448] {
        let spec = ScenarioSpec::new("oq", 8).with_seed(seed);
        let parsed = ScenarioSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(parsed.seed, seed);
    }
}

#[test]
fn integer_fields_reject_fractional_values() {
    for bad in [
        r#"{"scheme": "oq", "n": 8.5}"#,
        r#"{"scheme": "oq", "n": 8, "seed": 1.25}"#,
        r#"{"scheme": "oq", "n": 8, "run": {"slots":1e3,"warmup_slots":0,"drain_slots":0}}"#,
    ] {
        assert!(ScenarioSpec::from_json(bad).is_err(), "accepted: {bad}");
    }
}

#[test]
fn missing_blocks_fall_back_to_defaults() {
    let spec = ScenarioSpec::from_json(r#"{"scheme": "oq", "n": 8}"#).unwrap();
    assert_eq!(spec, ScenarioSpec::new("oq", 8));
}

#[test]
fn unknown_keys_are_rejected() {
    let err = ScenarioSpec::from_json(r#"{"scheme": "oq", "n": 8, "bogus": 1}"#).unwrap_err();
    assert!(err.to_string().contains("bogus"));
}

#[test]
fn malformed_json_reports_an_error() {
    assert!(ScenarioSpec::from_json("{").is_err());
    assert!(ScenarioSpec::from_json(r#"{"scheme": 3, "n": 8}"#).is_err());
    assert!(ScenarioSpec::from_json("").is_err());
    // Nesting this deep used to overflow the reader's stack (an abort).
    assert!(ScenarioSpec::from_json(&"[".repeat(100_000)).is_err());
}

#[test]
fn with_load_changes_only_the_load() {
    let t = TrafficSpec::Hotspot {
        load: 0.5,
        hot_fraction: 0.3,
    };
    let t2 = t.with_load(0.9);
    assert_eq!(t2.load(), 0.9);
    match t2 {
        TrafficSpec::Hotspot { hot_fraction, .. } => assert_eq!(hot_fraction, 0.3),
        _ => panic!("pattern changed"),
    }
}

#[test]
fn label_is_compact() {
    let spec = ScenarioSpec::new("sprinklers", 32);
    assert_eq!(spec.label(), "sprinklers/n=32/uniform@0.60");
}

#[test]
fn context_prefixes_the_error_message() {
    let err = SpecError::new("boom").context("file x.json");
    assert_eq!(err.to_string(), "scenario spec error: file x.json: boom");
}

#[test]
fn suite_expand_without_overrides_is_the_base_spec() {
    let base = ScenarioSpec::new("oq", 8);
    let cases = SuiteSpec::new("unused").expand("case", &base);
    assert_eq!(cases.len(), 1);
    assert_eq!(cases[0].name, "case");
    assert_eq!(cases[0].spec, base);
}

#[test]
fn suite_expand_crosses_schemes_and_loads_deterministically() {
    let base = ScenarioSpec::new("oq", 8);
    let suite = SuiteSpec::new("unused")
        .with_schemes(vec!["sprinklers".into(), "foff".into()])
        .with_loads(vec![0.3, 0.9]);
    let cases = suite.expand("base", &base);
    assert_eq!(cases.len(), 4);
    let names: Vec<&str> = cases.iter().map(|c| c.name.as_str()).collect();
    assert_eq!(
        names,
        [
            "base+sprinklers@0.3",
            "base+sprinklers@0.9",
            "base+foff@0.3",
            "base+foff@0.9",
        ]
    );
    assert_eq!(cases[0].spec.scheme, "sprinklers");
    assert_eq!(cases[3].spec.scheme, "foff");
    assert_eq!(cases[3].spec.traffic.load(), 0.9);
    // Everything not overridden is inherited from the base spec.
    assert!(cases.iter().all(|c| c.spec.n == 8 && c.spec.seed == 1));
}

#[test]
fn suite_case_names_distinguish_nearby_loads() {
    // Labels must never round loads: distinct override values need
    // distinct case names or merged CSV rows become unattributable.
    let base = ScenarioSpec::new("oq", 8);
    let suite = SuiteSpec::new("unused").with_loads(vec![0.301, 0.299]);
    let cases = suite.expand("x", &base);
    assert_eq!(cases[0].name, "x@0.301");
    assert_eq!(cases[1].name, "x@0.299");
    let unique: std::collections::HashSet<&str> = cases.iter().map(|c| c.name.as_str()).collect();
    assert_eq!(unique.len(), cases.len());
}

#[test]
fn suite_loads_a_directory_sorted_by_file_name() {
    let dir = std::env::temp_dir().join(format!("sprinklers-suite-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("b_second.json"),
        ScenarioSpec::new("foff", 8).to_json(),
    )
    .unwrap();
    std::fs::write(
        dir.join("a_first.json"),
        ScenarioSpec::new("oq", 8).to_json(),
    )
    .unwrap();
    std::fs::write(dir.join("ignored.txt"), "not a spec").unwrap();

    let cases = SuiteSpec::new(&dir).load_cases().unwrap();
    assert_eq!(cases.len(), 2);
    assert_eq!(cases[0].name, "a_first");
    assert_eq!(cases[0].spec.scheme, "oq");
    assert_eq!(cases[1].name, "b_second");

    // A malformed member file fails with the file path in the message.
    std::fs::write(dir.join("c_bad.json"), "{ nope").unwrap();
    let err = SuiteSpec::new(&dir).load_cases().unwrap_err().to_string();
    assert!(err.contains("c_bad.json"), "{err}");

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn csv_hostile_spec_file_names_are_rejected_at_load_time() {
    // Regression: a stem like `evil,0.9` used to flow straight into the
    // merged CSV's `case` column, silently shifting every later column
    // of that row.  Now it is a typed load-time error.
    let dir = std::env::temp_dir().join(format!("sprinklers-inject-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("ok.json"), ScenarioSpec::new("oq", 8).to_json()).unwrap();
    std::fs::write(
        dir.join("evil,case.json"),
        ScenarioSpec::new("oq", 8).to_json(),
    )
    .unwrap();
    let err = SuiteSpec::new(&dir).load_cases().unwrap_err().to_string();
    assert!(err.contains("comma or newline"), "{err}");
    assert!(err.contains("evil,case"), "{err}");

    // A newline in the file name is just as hostile: it would inject a
    // whole extra CSV row.
    std::fs::remove_file(dir.join("evil,case.json")).unwrap();
    std::fs::write(
        dir.join("evil\nrow.json"),
        ScenarioSpec::new("oq", 8).to_json(),
    )
    .unwrap();
    let err = SuiteSpec::new(&dir).load_cases().unwrap_err().to_string();
    assert!(err.contains("comma or newline"), "{err}");

    // Clean stems still load fine once the hostile file is gone.
    std::fs::remove_file(dir.join("evil\nrow.json")).unwrap();
    assert_eq!(SuiteSpec::new(&dir).load_cases().unwrap().len(), 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

fn fat_tree(routing: RoutingSpec) -> TopologySpec {
    TopologySpec::FatTree2 {
        edges: 2,
        cores: 4,
        hosts_per_edge: 8,
        routing,
        link: LinkSpec { latency: 2, gap: 1 },
    }
}

#[test]
fn topology_specs_round_trip_through_json() {
    for topo in [
        fat_tree(RoutingSpec::EcmpHash),
        fat_tree(RoutingSpec::RandomPacket),
        fat_tree(RoutingSpec::Stripe),
        TopologySpec::Butterfly {
            switches: 4,
            hosts_per_switch: 4,
            routing: RoutingSpec::Stripe,
            link: LinkSpec::default(),
        },
    ] {
        let spec = ScenarioSpec::new("oq", topo.hosts()).with_topology(topo);
        let parsed = ScenarioSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(parsed, spec, "json was: {}", spec.to_json());
    }
}

#[test]
fn topology_free_specs_emit_the_exact_legacy_json() {
    // The topology line is only emitted when present, so single-switch
    // specs keep their historical bytes — and therefore their
    // content-addressed cache keys.
    let spec = ScenarioSpec::new("oq", 8);
    assert!(!spec.to_json().contains("topology"));
    assert_eq!(ScenarioSpec::from_json(&spec.to_json()).unwrap(), spec);
}

#[test]
fn topology_json_defaults_routing_and_link() {
    let spec = ScenarioSpec::from_json(
        r#"{"scheme": "oq", "n": 4,
            "topology": {"kind": "fat-tree2", "edges": 2, "cores": 2, "hosts_per_edge": 2}}"#,
    )
    .unwrap();
    let topo = spec.topology.unwrap();
    assert_eq!(topo.routing(), RoutingSpec::EcmpHash);
    assert_eq!(topo.link(), LinkSpec { latency: 1, gap: 1 });
}

#[test]
fn malformed_topology_json_is_rejected() {
    for bad in [
        // Unknown kind.
        r#"{"scheme": "oq", "n": 4, "topology": {"kind": "torus", "edges": 2}}"#,
        // Missing a dimension.
        r#"{"scheme": "oq", "n": 4, "topology": {"kind": "fat-tree2", "edges": 2, "cores": 2}}"#,
        // Dimension from the other kind.
        r#"{"scheme": "oq", "n": 4,
            "topology": {"kind": "butterfly", "switches": 2, "hosts_per_switch": 2, "edges": 2}}"#,
        // Unknown topology key.
        r#"{"scheme": "oq", "n": 4,
            "topology": {"kind": "fat-tree2", "edges": 2, "cores": 2, "hosts_per_edge": 2, "bogus": 1}}"#,
        // Unknown routing strategy.
        r#"{"scheme": "oq", "n": 4,
            "topology": {"kind": "fat-tree2", "edges": 2, "cores": 2, "hosts_per_edge": 2, "routing": "lava"}}"#,
        // Unknown link key.
        r#"{"scheme": "oq", "n": 4,
            "topology": {"kind": "fat-tree2", "edges": 2, "cores": 2, "hosts_per_edge": 2, "link": {"mtu": 9000}}}"#,
    ] {
        assert!(ScenarioSpec::from_json(bad).is_err(), "accepted: {bad}");
    }
}

#[test]
fn topology_validation_rejects_degenerate_shapes() {
    let ok = fat_tree(RoutingSpec::EcmpHash);
    assert!(ok.validate(16).is_ok());
    // Host-count mismatch with the owning spec's n.
    assert!(ok.validate(8).is_err());
    // One edge switch would make 1-port core switches.
    let one_edge = TopologySpec::FatTree2 {
        edges: 1,
        cores: 2,
        hosts_per_edge: 4,
        routing: RoutingSpec::EcmpHash,
        link: LinkSpec::default(),
    };
    assert!(one_edge.validate(4).is_err());
    // Zero-latency links are meaningless in slotted time.
    let zero_latency = TopologySpec::FatTree2 {
        edges: 2,
        cores: 2,
        hosts_per_edge: 2,
        routing: RoutingSpec::EcmpHash,
        link: LinkSpec { latency: 0, gap: 1 },
    };
    assert!(zero_latency.validate(4).is_err());
    let zero_gap = TopologySpec::Butterfly {
        switches: 2,
        hosts_per_switch: 2,
        routing: RoutingSpec::EcmpHash,
        link: LinkSpec { latency: 1, gap: 0 },
    };
    assert!(zero_gap.validate(4).is_err());
    let tiny_mesh = TopologySpec::Butterfly {
        switches: 1,
        hosts_per_switch: 4,
        routing: RoutingSpec::EcmpHash,
        link: LinkSpec::default(),
    };
    assert!(tiny_mesh.validate(4).is_err());
}

#[test]
fn topology_label_carries_the_kind() {
    let spec = ScenarioSpec::new("oq", 16).with_topology(fat_tree(RoutingSpec::Stripe));
    assert_eq!(spec.label(), "oq/n=16/uniform@0.60/fat-tree2");
}

#[test]
fn suite_loads_subdirectories_recursively() {
    let dir = std::env::temp_dir().join(format!("sprinklers-rec-{}", std::process::id()));
    let sub = dir.join("nested/deeper");
    std::fs::create_dir_all(&sub).unwrap();
    std::fs::write(dir.join("b_top.json"), ScenarioSpec::new("oq", 8).to_json()).unwrap();
    std::fs::write(
        sub.join("a_deep.json"),
        ScenarioSpec::new("foff", 8).to_json(),
    )
    .unwrap();

    let cases = SuiteSpec::new(&dir).load_cases().unwrap();
    assert_eq!(cases.len(), 2);
    // Sorted by full path: "b_top.json" < "nested/...", so the
    // top-level file still comes first even though its stem sorts later.
    assert_eq!(cases[0].name, "b_top");
    assert_eq!(cases[1].name, "a_deep");
    assert_eq!(cases[1].spec.scheme, "foff");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn suite_rejects_duplicate_stems_across_subdirectories() {
    // Regression: two spec files with the same stem in different
    // subdirectories used to share one merged-CSV case label, making
    // their rows unattributable.  Now it is a typed load-time error
    // naming both paths.
    let dir = std::env::temp_dir().join(format!("sprinklers-dup-{}", std::process::id()));
    let sub = dir.join("variant");
    std::fs::create_dir_all(&sub).unwrap();
    std::fs::write(dir.join("case.json"), ScenarioSpec::new("oq", 8).to_json()).unwrap();
    std::fs::write(
        sub.join("case.json"),
        ScenarioSpec::new("foff", 8).to_json(),
    )
    .unwrap();

    let err = SuiteSpec::new(&dir).load_cases().unwrap_err().to_string();
    assert!(err.contains("duplicate spec file stem 'case'"), "{err}");
    assert!(err.contains("variant"), "both paths should be named: {err}");

    // Renaming one of them resolves the collision.
    std::fs::rename(sub.join("case.json"), sub.join("case_variant.json")).unwrap();
    let cases = SuiteSpec::new(&dir).load_cases().unwrap();
    assert_eq!(cases.len(), 2);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn suite_rejects_repeated_override_values() {
    // Regression: `--schemes oq,oq --loads 0.3,0.3` ran every case four
    // times under one label.  A load written two ways is one load.
    let dir = std::env::temp_dir().join(format!("sprinklers-repeat-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("case.json"), ScenarioSpec::new("oq", 8).to_json()).unwrap();
    let suite = SuiteSpec::new(&dir);
    let schemes = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();

    let err = suite
        .clone()
        .with_schemes(schemes(&["oq", "foff", "oq"]))
        .load_cases()
        .unwrap_err()
        .to_string();
    assert!(err.contains("name 'oq' twice"), "{err}");
    let err = suite
        .clone()
        .with_loads(vec![0.3, 0.5, "0.30".parse().unwrap()])
        .load_cases()
        .unwrap_err()
        .to_string();
    assert!(err.contains("give load 0.3 twice"), "{err}");

    let cases = suite
        .with_schemes(schemes(&["oq", "foff"]))
        .with_loads(vec![0.3, 0.5])
        .load_cases()
        .unwrap();
    assert_eq!(cases.len(), 4);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn trace_specs_round_trip_through_json() {
    for traffic in [
        TrafficSpec::trace("traces/capture.sprt"),
        TrafficSpec::Trace {
            path: "with \"quotes\"\\and\\slashes.csv".into(),
            repeat: 7,
            scale: 1.75,
        },
        TrafficSpec::Trace {
            path: "/abs/path.sprt".into(),
            repeat: 1,
            scale: 0.25,
        },
    ] {
        let spec = ScenarioSpec::new("foff", 8).with_traffic(traffic);
        let parsed = ScenarioSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(parsed, spec, "json was: {}", spec.to_json());
    }
}

#[test]
fn an_old_format_key_is_read_and_dropped() {
    for name in ["csv", "sprt"] {
        let spec = ScenarioSpec::from_json(&format!(
            r#"{{"scheme": "oq", "n": 8,
                "traffic": {{"kind": "trace", "path": "t.sprt", "format": "{name}"}}}}"#
        ))
        .unwrap();
        assert_eq!(spec.traffic, TrafficSpec::trace("t.sprt"));
        assert!(!spec.to_json().contains("format"));
    }
}

#[test]
fn trace_json_accepts_the_kind_key_with_defaults() {
    let spec = ScenarioSpec::from_json(
        r#"{"scheme": "oq", "n": 8,
            "traffic": {"kind": "trace", "path": "t.sprt"}}"#,
    )
    .unwrap();
    assert_eq!(spec.traffic, TrafficSpec::trace("t.sprt"));
    assert_eq!(spec.traffic.load(), 1.0);
}

#[test]
fn malformed_trace_traffic_json_is_rejected() {
    for bad in [
        // Missing path.
        r#"{"scheme": "oq", "n": 8, "traffic": {"kind": "trace"}}"#,
        // Unknown kind.
        r#"{"scheme": "oq", "n": 8, "traffic": {"kind": "pcap", "path": "t"}}"#,
        // Neither pattern nor kind.
        r#"{"scheme": "oq", "n": 8, "traffic": {"path": "t.sprt"}}"#,
        // Unknown format.
        r#"{"scheme": "oq", "n": 8, "traffic": {"kind": "trace", "path": "t", "format": "pcap"}}"#,
        // Repeat out of range.
        r#"{"scheme": "oq", "n": 8, "traffic": {"kind": "trace", "path": "t", "repeat": 0}}"#,
        r#"{"scheme": "oq", "n": 8, "traffic": {"kind": "trace", "path": "t", "repeat": 1000000}}"#,
        // Scale must be positive.
        r#"{"scheme": "oq", "n": 8, "traffic": {"kind": "trace", "path": "t", "scale": 0}}"#,
        r#"{"scheme": "oq", "n": 8, "traffic": {"kind": "trace", "path": "t", "scale": -2}}"#,
    ] {
        assert!(ScenarioSpec::from_json(bad).is_err(), "accepted: {bad}");
    }
}

#[test]
fn trace_load_knob_is_the_scale() {
    let t = TrafficSpec::trace("t.sprt").with_load(1.5);
    assert_eq!(t.load(), 1.5);
    match t {
        TrafficSpec::Trace { scale, repeat, .. } => {
            assert_eq!(scale, 1.5);
            assert_eq!(repeat, 1);
        }
        _ => panic!("pattern changed"),
    }
}

#[test]
fn rebase_resolves_relative_trace_paths_only() {
    let mut spec = ScenarioSpec::new("oq", 8).with_traffic(TrafficSpec::trace("traces/t.sprt"));
    spec.rebase_paths(Path::new("/specs/smoke"));
    match &spec.traffic {
        TrafficSpec::Trace { path, .. } => {
            assert_eq!(path, "/specs/smoke/traces/t.sprt")
        }
        _ => panic!("pattern changed"),
    }
    // Absolute paths and synthetic patterns are untouched.
    let mut abs = ScenarioSpec::new("oq", 8).with_traffic(TrafficSpec::trace("/t.sprt"));
    abs.rebase_paths(Path::new("/specs/smoke"));
    assert_eq!(abs.traffic, TrafficSpec::trace("/t.sprt"));
    let mut synth = ScenarioSpec::new("oq", 8);
    synth.rebase_paths(Path::new("/specs/smoke"));
    assert_eq!(synth.traffic, TrafficSpec::Uniform { load: 0.6 });
}

#[test]
fn build_traffic_uses_the_engine_seed_derivation() {
    // The recorded-trace pipeline relies on record and replay agreeing
    // on how the generator is seeded; pin the derivation.
    let spec = ScenarioSpec::new("oq", 8).with_seed(41);
    assert_eq!(spec.traffic_seed(), 42);
    let mut a = spec.build_traffic().unwrap();
    let mut b = spec.traffic.build(spec.n, 42).unwrap();
    for slot in 0..64 {
        assert_eq!(a.arrivals(slot).len(), b.arrivals(slot).len());
    }
}

#[test]
fn suite_rejects_missing_and_empty_directories() {
    let missing = SuiteSpec::new("/nonexistent/sprinklers-suite");
    assert!(missing.load_cases().is_err());

    let dir = std::env::temp_dir().join(format!("sprinklers-empty-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let err = SuiteSpec::new(&dir).load_cases().unwrap_err().to_string();
    assert!(err.contains("no *.json"), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

fn event(slot: u64, kind: FaultKind, index: usize) -> FaultEventSpec {
    FaultEventSpec { slot, kind, index }
}

fn faulted_spec(faults: FaultSpec) -> ScenarioSpec {
    ScenarioSpec::new("oq", 16)
        .with_topology(fat_tree(RoutingSpec::Stripe))
        .with_faults(faults)
}

#[test]
fn fault_specs_round_trip_through_json() {
    let faults = FaultSpec {
        events: vec![
            event(100, FaultKind::LinkDown, 3),
            event(200, FaultKind::LinkUp, 3),
            event(150, FaultKind::NodeDown, 5),
            event(400, FaultKind::NodeUp, 5),
        ],
        random: Some(RandomFaultSpec {
            mtbf: 5_000,
            mttr: 300,
            seed: u64::MAX, // exercises the exact-u64 path
        }),
    };
    let spec = faulted_spec(faults);
    let parsed = ScenarioSpec::from_json(&spec.to_json()).unwrap();
    assert_eq!(parsed, spec, "json was: {}", spec.to_json());

    // Events-only and random-only forms round-trip too.
    let events_only = faulted_spec(FaultSpec {
        events: vec![event(1, FaultKind::LinkDown, 0)],
        random: None,
    });
    assert_eq!(
        ScenarioSpec::from_json(&events_only.to_json()).unwrap(),
        events_only
    );
    let random_only = faulted_spec(FaultSpec {
        events: vec![],
        random: Some(RandomFaultSpec {
            mtbf: 10,
            mttr: 2,
            seed: 0,
        }),
    });
    assert_eq!(
        ScenarioSpec::from_json(&random_only.to_json()).unwrap(),
        random_only
    );
}

#[test]
fn fault_free_specs_emit_the_exact_legacy_json() {
    // Like the topology line, the faults line is only emitted when
    // present, so pre-fault spec files keep their historical bytes and
    // their content-addressed cache keys.
    let spec = ScenarioSpec::new("oq", 16).with_topology(fat_tree(RoutingSpec::Stripe));
    assert!(!spec.to_json().contains("faults"));
    assert_eq!(ScenarioSpec::from_json(&spec.to_json()).unwrap(), spec);
}

#[test]
fn fault_validation_rejects_degenerate_schedules() {
    let topo = fat_tree(RoutingSpec::Stripe); // 16 links, 6 nodes
    let run = RunConfig {
        slots: 1_000,
        warmup_slots: 100,
        drain_slots: 500,
    };
    let check = |faults: FaultSpec| faults.validate(&topo, &run);

    // A clean schedule passes.
    assert!(check(FaultSpec {
        events: vec![
            event(10, FaultKind::LinkDown, 0),
            event(20, FaultKind::LinkUp, 0),
            event(30, FaultKind::NodeDown, 5),
        ],
        random: Some(RandomFaultSpec {
            mtbf: 100,
            mttr: 10,
            seed: 1
        }),
    })
    .is_ok());

    // Nonexistent link.
    let err = check(FaultSpec {
        events: vec![event(10, FaultKind::LinkDown, 16)],
        random: None,
    })
    .unwrap_err()
    .to_string();
    assert!(err.contains("only 16 links"), "{err}");

    // Nonexistent node.
    let err = check(FaultSpec {
        events: vec![event(10, FaultKind::NodeDown, 6)],
        random: None,
    })
    .unwrap_err()
    .to_string();
    assert!(err.contains("only 6 nodes"), "{err}");

    // Event at the run end (slots + drain_slots = 1500).
    let err = check(FaultSpec {
        events: vec![event(1_500, FaultKind::LinkDown, 0)],
        random: None,
    })
    .unwrap_err()
    .to_string();
    assert!(err.contains("run end"), "{err}");

    // Duplicate events for one entity at one slot.
    let err = check(FaultSpec {
        events: vec![
            event(10, FaultKind::LinkDown, 2),
            event(10, FaultKind::LinkUp, 2),
        ],
        random: None,
    })
    .unwrap_err()
    .to_string();
    assert!(err.contains("duplicate fault events"), "{err}");

    // Up with no prior down.
    let err = check(FaultSpec {
        events: vec![event(10, FaultKind::LinkUp, 0)],
        random: None,
    })
    .unwrap_err()
    .to_string();
    assert!(err.contains("no prior 'link-down'"), "{err}");
    let err = check(FaultSpec {
        events: vec![event(10, FaultKind::NodeUp, 0)],
        random: None,
    })
    .unwrap_err()
    .to_string();
    assert!(err.contains("no prior 'node-down'"), "{err}");

    // Down repeated without an intervening up.
    let err = check(FaultSpec {
        events: vec![
            event(10, FaultKind::LinkDown, 0),
            event(20, FaultKind::LinkDown, 0),
        ],
        random: None,
    })
    .unwrap_err()
    .to_string();
    assert!(err.contains("must alternate"), "{err}");

    // Zero MTBF / MTTR.
    for (mtbf, mttr) in [(0, 10), (10, 0)] {
        let err = check(FaultSpec {
            events: vec![],
            random: Some(RandomFaultSpec {
                mtbf,
                mttr,
                seed: 0,
            }),
        })
        .unwrap_err()
        .to_string();
        assert!(err.contains("at least 1 slot"), "{err}");
    }

    // The same entity index in the other space is fine: link 0 and
    // node 0 are different entities.
    assert!(check(FaultSpec {
        events: vec![
            event(10, FaultKind::LinkDown, 0),
            event(10, FaultKind::NodeDown, 0),
        ],
        random: None,
    })
    .is_ok());
}

#[test]
fn link_spec_bounds_reject_overflowing_latency_and_gap() {
    // Arrival-slot arithmetic adds latency (and gap backlog) to absolute
    // slot numbers; values near u64::MAX would overflow, so they are
    // typed errors at validation time.
    let huge_latency = TopologySpec::FatTree2 {
        edges: 2,
        cores: 2,
        hosts_per_edge: 2,
        routing: RoutingSpec::EcmpHash,
        link: LinkSpec {
            latency: u64::MAX,
            gap: 1,
        },
    };
    let err = huge_latency.validate(4).unwrap_err().to_string();
    assert!(err.contains("latency"), "{err}");
    let huge_gap = TopologySpec::FatTree2 {
        edges: 2,
        cores: 2,
        hosts_per_edge: 2,
        routing: RoutingSpec::EcmpHash,
        link: LinkSpec {
            latency: 1,
            gap: LinkSpec::MAX_LINK_SLOTS + 1,
        },
    };
    let err = huge_gap.validate(4).unwrap_err().to_string();
    assert!(err.contains("gap"), "{err}");
    // The bound itself is inclusive-safe.
    let at_bound = TopologySpec::FatTree2 {
        edges: 2,
        cores: 2,
        hosts_per_edge: 2,
        routing: RoutingSpec::EcmpHash,
        link: LinkSpec {
            latency: LinkSpec::MAX_LINK_SLOTS,
            gap: 1,
        },
    };
    assert!(at_bound.validate(4).is_ok());
}

#[test]
fn malformed_fault_json_is_rejected() {
    for bad in [
        // Link event targeting a node.
        r#"{"scheme": "oq", "n": 4, "faults": {"events": [{"slot": 1, "kind": "link-down", "node": 0}]}}"#,
        // Node event targeting a link.
        r#"{"scheme": "oq", "n": 4, "faults": {"events": [{"slot": 1, "kind": "node-down", "link": 0}]}}"#,
        // Unknown kind.
        r#"{"scheme": "oq", "n": 4, "faults": {"events": [{"slot": 1, "kind": "cable-cut", "link": 0}]}}"#,
        // Unknown event key.
        r#"{"scheme": "oq", "n": 4, "faults": {"events": [{"slot": 1, "kind": "link-down", "link": 0, "x": 1}]}}"#,
        // Unknown faults key.
        r#"{"scheme": "oq", "n": 4, "faults": {"evnts": []}}"#,
        // Events must be an array.
        r#"{"scheme": "oq", "n": 4, "faults": {"events": {"slot": 1}}}"#,
        // Random block missing mttr.
        r#"{"scheme": "oq", "n": 4, "faults": {"random": {"mtbf": 100}}}"#,
        // Unknown random key.
        r#"{"scheme": "oq", "n": 4, "faults": {"random": {"mtbf": 100, "mttr": 10, "jitter": 3}}}"#,
    ] {
        assert!(ScenarioSpec::from_json(bad).is_err(), "accepted: {bad}");
    }
}

#[test]
fn spec_file_bytes_are_pinned_for_every_block() {
    // Cache keys hash these bytes: every block the writer emits keeps the
    // layout spec files had before the writer moved onto `crate::json`.
    let faulted = ScenarioSpec::new("sprinklers-adaptive", 16)
        .with_sizing(SizingSpec::Fixed(4))
        .with_topology(TopologySpec::Butterfly {
            switches: 4,
            hosts_per_switch: 4,
            routing: RoutingSpec::RandomPacket,
            link: LinkSpec { latency: 3, gap: 2 },
        })
        .with_faults(FaultSpec {
            events: vec![
                FaultEventSpec {
                    slot: 5,
                    kind: FaultKind::LinkDown,
                    index: 2,
                },
                FaultEventSpec {
                    slot: 9,
                    kind: FaultKind::NodeUp,
                    index: 1,
                },
            ],
            random: Some(RandomFaultSpec {
                mtbf: 100,
                mttr: 7,
                seed: u64::MAX,
            }),
        })
        .with_traffic(TrafficSpec::Trace {
            path: "dir/\"q\"\t.sprt".into(),
            repeat: 3,
            scale: 0.125,
        })
        .with_run(RunConfig {
            slots: 10,
            warmup_slots: 1,
            drain_slots: 20,
        })
        .with_seed(7);
    assert_eq!(
        faulted.to_json(),
        concat!(
            "{\n",
            "  \"scheme\": \"sprinklers-adaptive\",\n",
            "  \"n\": 16,\n",
            "  \"sizing\": {\"mode\":\"fixed\",\"size\":4},\n",
            "  \"topology\": {\"kind\":\"butterfly\",\"switches\":4,\"hosts_per_switch\":4,",
            "\"routing\":\"random\",\"link\":{\"latency\":3,\"gap\":2}},\n",
            "  \"faults\": {\"events\":[{\"slot\":5,\"kind\":\"link-down\",\"link\":2},",
            "{\"slot\":9,\"kind\":\"node-up\",\"node\":1}],",
            "\"random\":{\"mtbf\":100,\"mttr\":7,\"seed\":18446744073709551615}},\n",
            "  \"traffic\": {\"kind\":\"trace\",\"path\":\"dir/\\\"q\\\"\\t.sprt\",",
            "\"repeat\":3,\"scale\":0.125},\n",
            "  \"run\": {\"slots\":10,\"warmup_slots\":1,\"drain_slots\":20},\n",
            "  \"seed\": 7,\n",
            "  \"batch\": 64,\n",
            "  \"threads\": 1\n",
            "}"
        )
    );
    let traffic_json = |traffic: TrafficSpec| {
        let json = ScenarioSpec::new("oq", 8)
            .with_sizing(SizingSpec::Adaptive)
            .with_topology(fat_tree(RoutingSpec::EcmpHash))
            .with_faults(FaultSpec::default())
            .with_traffic(traffic)
            .to_json();
        json.lines()
            .filter(|l| {
                !["scheme", "sizing", "run", "seed"]
                    .iter()
                    .any(|k| l.starts_with(&format!("  \"{k}\"")))
            })
            .collect::<Vec<_>>()
            .join("|")
    };
    let prefix = concat!(
        "{|  \"n\": 8,|",
        "  \"topology\": {\"kind\":\"fat-tree2\",\"edges\":2,\"cores\":4,\"hosts_per_edge\":8,",
        "\"routing\":\"ecmp\",\"link\":{\"latency\":2,\"gap\":1}},|",
        "  \"faults\": {\"events\":[]},|",
    );
    let suffix = "|  \"batch\": 64,|  \"threads\": 1|}";
    for (traffic, line) in [
        (
            TrafficSpec::Hotspot {
                load: 0.25,
                hot_fraction: 0.5,
            },
            r#"{"pattern":"hotspot","load":0.25,"hot_fraction":0.5}"#,
        ),
        (
            TrafficSpec::Bursty {
                load: 0.1,
                peak: 1.0,
                mean_burst: 16.5,
            },
            r#"{"pattern":"bursty","load":0.1,"peak":1,"mean_burst":16.5}"#,
        ),
        (
            TrafficSpec::Flows {
                load: 0.3,
                mean_flow_len: 20.0,
            },
            r#"{"pattern":"flows","load":0.3,"mean_flow_len":20}"#,
        ),
        (
            TrafficSpec::Diagonal { load: 0.9 },
            r#"{"pattern":"diagonal","load":0.9}"#,
        ),
        (
            TrafficSpec::trace("t.csv"),
            r#"{"kind":"trace","path":"t.csv","repeat":1,"scale":1}"#,
        ),
    ] {
        assert_eq!(
            traffic_json(traffic),
            format!("{prefix}  \"traffic\": {line},{suffix}")
        );
    }
}

#[test]
fn every_spec_object_rejects_unknown_repeated_and_misplaced_keys() {
    // Before one reader checked every block, `sizing`, `traffic` and `run`
    // ignored keys they did not know, and a repeated key silently won.
    let spec = |extra: &str| format!(r#"{{"scheme": "oq", "n": 8{extra}}}"#);
    for (extra, says) in [
        (
            r#", "sizing": {"mode": "matrix", "size": 4}"#,
            "sizing key 'size' does not apply to mode 'matrix'",
        ),
        (
            r#", "sizing": {"mode": "fixed", "size": 4, "sise": 4}"#,
            "unknown sizing key 'sise'",
        ),
        (
            r#", "sizing": "matrix""#,
            "sizing must be an object, got \"matrix\"",
        ),
        (
            r#", "traffic": {"pattern": "uniform", "load": 0.5, "hot_fraction": 0.2}"#,
            "traffic key 'hot_fraction' does not apply to pattern 'uniform'",
        ),
        (
            r#", "traffic": {"pattern": "uniform", "load": 0.5, "lod": 0.2}"#,
            "unknown traffic key 'lod'",
        ),
        (
            r#", "traffic": {"pattern": "uniform", "load": 0.5, "kind": "trace"}"#,
            "traffic key 'kind' does not apply to pattern 'uniform'",
        ),
        (
            r#", "traffic": {"kind": "trace", "path": "t", "load": 0.5}"#,
            "traffic key 'load' does not apply to kind 'trace'",
        ),
        (
            r#", "run": {"slots": 1, "warmup_slots": 0, "drain_slots": 0, "slot": 1}"#,
            "unknown run key 'slot'",
        ),
        (r#", "seed": 1, "seed": 2"#, "duplicate spec key 'seed'"),
        (
            r#", "traffic": {"pattern": "uniform", "load": 0.5, "load": 0.9}"#,
            "duplicate traffic key 'load'",
        ),
        (
            r#", "topology": {"kind": "fat-tree2", "edges": 2, "cores": 2,
                 "hosts_per_edge": 2, "link": {"gap": 1, "gap": 2}}"#,
            "duplicate link key 'gap'",
        ),
        (
            r#", "faults": {"random": {"mtbf": 1, "mttr": 1, "mttr": 2}}"#,
            "duplicate random fault key 'mttr'",
        ),
        (
            r#", "faults": {"events": [{"slot": 1, "kind": "link-down", "link": 0, "node": 0}]}"#,
            "event #0: fault event key 'node' does not apply to kind 'link-down'",
        ),
    ] {
        let err = ScenarioSpec::from_json(&spec(extra))
            .unwrap_err()
            .to_string();
        assert!(err.contains(says), "{extra}: {err}");
    }
}

#[test]
fn topology_dimensions_too_large_to_add_are_typed_errors() {
    // Node sizes are sums of dimensions a spec file sets; they used to be
    // computed with `+`, which panics on overflow in debug builds.
    let huge = usize::MAX;
    for topo in [
        TopologySpec::FatTree2 {
            edges: 2,
            cores: huge,
            hosts_per_edge: huge,
            routing: RoutingSpec::EcmpHash,
            link: LinkSpec::default(),
        },
        TopologySpec::FatTree2 {
            edges: huge,
            cores: 1,
            hosts_per_edge: huge,
            routing: RoutingSpec::EcmpHash,
            link: LinkSpec::default(),
        },
        TopologySpec::Butterfly {
            switches: huge,
            hosts_per_switch: huge,
            routing: RoutingSpec::EcmpHash,
            link: LinkSpec::default(),
        },
    ] {
        let err = topo.validate(16).unwrap_err().to_string();
        assert!(err.contains("-port switch bound"), "{err}");
    }
}
