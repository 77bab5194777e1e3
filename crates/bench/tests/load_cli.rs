//! An offered load is a probability.  Whichever way a bad one comes in — the
//! `--load` flag, a spec file, a suite's `--loads` override — it is a usage
//! error (exit 2, `error: …` on stderr), never a panic and never a result row.
//! The same holds for the other numbers of a traffic pattern: a bursty
//! source's peak rate and mean burst, a flow source's mean flow length — and
//! for a fixed stripe size the switch cannot hold or a scheme that sizes its
//! stripes from measured rates would drop, a suite override that
//! repeats a value, and an output path that names a file the command reads
//! or writes already.  A valid run that measured nothing is no error, but
//! its stderr summary says the mean delay is undefined instead of printing
//! the CSV row's placeholder 0 as a measurement.

use std::process::{Command, Output};

fn scenario(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_scenario"))
        .args(args)
        .output()
        .expect("scenario runs")
}

/// A spec file running `oq` on the given `traffic` object.
fn spec_with_traffic(traffic: &str) -> String {
    format!(
        r#"{{"scheme":"oq","n":8,"traffic":{traffic},
           "run":{{"slots":2000,"warmup_slots":200,"drain_slots":2000}},"seed":3}}"#
    )
}

fn assert_usage_error(out: &Output, tag: &str, says: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{tag}: {stderr}");
    assert!(out.stdout.is_empty(), "{tag} must not print a result row");
    assert!(
        stderr
            .lines()
            .any(|l| l.starts_with("error: ") && l.contains(says)),
        "{tag}: {stderr}"
    );
}

fn assert_load_error(out: &Output, tag: &str) {
    assert_usage_error(out, tag, "traffic load must be a finite number in [0, 1]");
}

#[test]
fn scenario_rejects_impossible_load_flags() {
    for load in ["-0.1", "nan", "inf", "1.5"] {
        let out = scenario(&[
            "--scheme",
            "sprinklers",
            "--n",
            "8",
            "--quick",
            "--load",
            load,
        ]);
        assert_load_error(&out, &format!("--load {load}"));
    }
    let ok = scenario(&[
        "--scheme",
        "sprinklers",
        "--n",
        "8",
        "--quick",
        "--load",
        "1",
    ]);
    assert_eq!(ok.status.code(), Some(0), "--load 1 is admissible");
}

#[test]
fn spec_files_and_suite_overrides_are_rejected_the_same_way() {
    let dir = std::env::temp_dir().join(format!("sprinklers-load-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let spec = |load: &str| spec_with_traffic(&format!(r#"{{"pattern":"uniform","load":{load}}}"#));
    let bad = dir.join("bad.json");
    std::fs::write(&bad, spec("-0.1")).expect("write spec");
    let out = scenario(&["--spec", bad.to_str().expect("utf-8 path")]);
    assert_load_error(&out, "spec file with load -0.1");

    // A sound spec, swept by the suite over a load the generator cannot offer.
    std::fs::remove_file(&bad).expect("remove spec");
    std::fs::write(dir.join("good.json"), spec("0.5")).expect("write spec");
    let out = Command::new(env!("CARGO_BIN_EXE_suite"))
        .args([
            "--dir",
            dir.to_str().expect("utf-8 path"),
            "--loads",
            "0.3,1.5",
        ])
        .output()
        .expect("suite runs");
    assert_load_error(&out, "suite --loads 0.3,1.5");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("good@1.5"),
        "the error names the case: {stderr}"
    );
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
}

/// A fixed stripe wider than the switch is a usage error that names the
/// stripe size, not the (valid) port count.
#[test]
fn an_oversized_fixed_stripe_is_a_usage_error() {
    let dir = std::env::temp_dir().join(format!("sprinklers-sizing-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("wide-stripe.json");
    std::fs::write(
        &path,
        r#"{"scheme":"sprinklers","n":32,"sizing":{"mode":"fixed","size":64},
           "traffic":{"pattern":"uniform","load":0.5},
           "run":{"slots":2000,"warmup_slots":200,"drain_slots":2000},"seed":3}"#,
    )
    .expect("write spec");
    let out = scenario(&["--spec", path.to_str().expect("utf-8 path")]);
    assert_usage_error(
        &out,
        "fixed stripe size 64 at n = 32",
        "stripe size 64 is not a power of two in 1..=32",
    );
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
}

/// `sprinklers-adaptive` sizes its stripes from measured rates: a fixed
/// size is refused, naming the scheme that honours it, rather than dropped.
#[test]
fn fixed_sizing_on_adaptive_sprinklers_is_a_usage_error() {
    let dir = std::env::temp_dir().join(format!("sprinklers-adaptive-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("adaptive-fixed.json");
    std::fs::write(
        &path,
        r#"{"scheme":"sprinklers-adaptive","n":16,"sizing":{"mode":"fixed","size":4},
           "traffic":{"pattern":"uniform","load":0.5},
           "run":{"slots":2000,"warmup_slots":200,"drain_slots":2000},"seed":3}"#,
    )
    .expect("write spec");
    let out = scenario(&["--spec", path.to_str().expect("utf-8 path")]);
    assert_usage_error(
        &out,
        "sprinklers-adaptive with fixed sizing",
        r#"use scheme 'sprinklers' with sizing {"mode":"fixed","size":4}"#,
    );
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
}

/// Sprinklers at n = 128 under diagonal load 0.05 sends a VOQ's first
/// stripe only after thousands of slots, so a 500-slot run with no drain
/// delivers none of its packets.
#[test]
fn a_run_that_delivers_nothing_calls_its_mean_delay_undefined() {
    let dir = std::env::temp_dir().join(format!("sprinklers-empty-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("empty.json");
    std::fs::write(
        &path,
        r#"{"scheme":"sprinklers","n":128,"traffic":{"pattern":"diagonal","load":0.05},
           "run":{"slots":500,"warmup_slots":50,"drain_slots":0},"seed":3}"#,
    )
    .expect("write spec");
    let out = scenario(&["--spec", path.to_str().expect("utf-8 path")]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    let summary = stderr.lines().last().expect("a summary line");
    assert!(summary.starts_with("delivered 0/"), "{summary}");
    assert!(
        summary.contains(", mean delay undefined (no measured packet delivered),"),
        "{summary}"
    );
    // The CSV row is unchanged: its delay columns still read 0.
    let stdout = String::from_utf8_lossy(&out.stdout);
    let row: Vec<&str> = stdout
        .lines()
        .nth(1)
        .expect("a CSV row")
        .split(',')
        .collect();
    assert_eq!(row[5..7], ["0", "0.000"]);
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
}

#[test]
fn bad_bursty_and_flows_parameters_are_usage_errors() {
    let dir = std::env::temp_dir().join(format!("sprinklers-traffic-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("case.json");
    let path_str = path.to_str().expect("utf-8 path");
    for (traffic, says) in [
        (
            r#"{"pattern":"bursty","load":0.5,"peak":0.3,"mean_burst":8}"#,
            "exceeds the bursty peak rate",
        ),
        (
            r#"{"pattern":"bursty","load":0.2,"peak":0.9,"mean_burst":0.5}"#,
            "traffic mean_burst must be a finite number of at least 1",
        ),
        (
            r#"{"pattern":"bursty","load":0.2,"peak":0,"mean_burst":8}"#,
            "traffic peak must be a finite number in (0, 1]",
        ),
        (
            r#"{"pattern":"bursty","load":0.2,"peak":1.5,"mean_burst":8}"#,
            "traffic peak must be a finite number in (0, 1]",
        ),
        (
            r#"{"pattern":"flows","load":0.5,"mean_flow_len":0}"#,
            "traffic mean_flow_len must be a finite number of at least 1",
        ),
        (
            r#"{"pattern":"flows","load":0.5,"mean_flow_len":-3}"#,
            "traffic mean_flow_len must be a finite number of at least 1",
        ),
    ] {
        std::fs::write(&path, spec_with_traffic(traffic)).expect("write spec");
        let out = scenario(&["--spec", path_str]);
        assert_usage_error(&out, traffic, says);
    }

    // The edges of the admissible ranges still run.
    for traffic in [
        r#"{"pattern":"bursty","load":0.3,"peak":0.3,"mean_burst":1}"#,
        r#"{"pattern":"flows","load":0.5,"mean_flow_len":1}"#,
    ] {
        std::fs::write(&path, spec_with_traffic(traffic)).expect("write spec");
        let out = scenario(&["--spec", path_str]);
        assert_eq!(out.status.code(), Some(0), "{traffic} is admissible");
    }

    // A sound bursty spec, swept by the suite past its peak rate.
    std::fs::write(
        &path,
        spec_with_traffic(r#"{"pattern":"bursty","load":0.2,"peak":0.5,"mean_burst":8}"#),
    )
    .expect("write spec");
    let out = Command::new(env!("CARGO_BIN_EXE_suite"))
        .args([
            "--dir",
            dir.to_str().expect("utf-8 path"),
            "--loads",
            "0.3,0.9",
        ])
        .output()
        .expect("suite runs");
    assert_usage_error(
        &out,
        "suite --loads 0.3,0.9",
        "exceeds the bursty peak rate",
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("case@0.9"),
        "the error names the case: {stderr}"
    );
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
}

/// A sidecar path that names the spec or the merged CSV is a usage error
/// before anything is written: the file it names keeps its bytes.
#[test]
fn an_output_path_naming_an_input_or_another_output_is_a_usage_error() {
    let dir = std::env::temp_dir().join(format!("sprinklers-paths-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let spec = dir.join("case.json");
    let spec_str = spec.to_str().expect("utf-8 path");
    std::fs::write(
        &spec,
        spec_with_traffic(r#"{"pattern":"uniform","load":0.5}"#),
    )
    .expect("write spec");
    let csv = std::env::temp_dir().join(format!("sprinklers-paths-cli-{}.csv", std::process::id()));
    let csv_str = csv.to_str().expect("utf-8 path");
    std::fs::write(&csv, "case,kept\n").expect("write csv");

    let out = scenario(&[
        "--spec",
        spec_str,
        "--metrics",
        "full",
        "--metrics-out",
        spec_str,
    ]);
    let spec_before = spec_with_traffic(r#"{"pattern":"uniform","load":0.5}"#);
    assert_usage_error(&out, "scenario --metrics-out <spec>", "name the same file");
    assert_eq!(
        std::fs::read_to_string(&spec).expect("read spec"),
        spec_before
    );

    let out = Command::new(env!("CARGO_BIN_EXE_suite"))
        .args([
            "--dir",
            dir.to_str().expect("utf-8 path"),
            "--quick",
            "--out",
            csv_str,
            "--metrics",
            "full",
            "--metrics-out",
            csv_str,
        ])
        .output()
        .expect("suite runs");
    assert_usage_error(&out, "suite --out x --metrics-out x", "name the same file");
    assert_eq!(
        std::fs::read_to_string(&csv).expect("read csv"),
        "case,kept\n"
    );
    std::fs::remove_file(&csv).expect("remove csv");
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
}

/// A repeated `--schemes` name or `--loads` value would run one case twice
/// under one name; it is a usage error instead, and so is a load written
/// two ways.
#[test]
fn repeated_suite_override_values_are_usage_errors() {
    let dir = std::env::temp_dir().join(format!("sprinklers-repeat-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    std::fs::write(
        dir.join("case.json"),
        spec_with_traffic(r#"{"pattern":"uniform","load":0.5}"#),
    )
    .expect("write spec");
    let dir_str = dir.to_str().expect("utf-8 path");
    for (flag, values, says) in [
        ("--schemes", "oq,foff,oq", "(--schemes) name 'oq' twice"),
        ("--loads", "0.3,0.30", "(--loads) give load 0.3 twice"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_suite"))
            .args(["--dir", dir_str, "--quick", flag, values])
            .output()
            .expect("suite runs");
        assert_usage_error(&out, &format!("suite {flag} {values}"), says);
    }
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
}
