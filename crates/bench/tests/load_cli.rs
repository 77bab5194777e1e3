//! An offered load is a probability.  Whichever way a bad one comes in — the
//! `--load` flag, a spec file, a suite's `--loads` override — it is a usage
//! error (exit 2, `error: …` on stderr), never a panic and never a result row.

use std::process::{Command, Output};

fn scenario(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_scenario"))
        .args(args)
        .output()
        .expect("scenario runs")
}

fn assert_load_error(out: &Output, tag: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{tag}: {stderr}");
    assert!(out.stdout.is_empty(), "{tag} must not print a result row");
    assert!(
        stderr.lines().any(|l| l.starts_with("error: ")
            && l.contains("traffic load must be a finite number in [0, 1]")),
        "{tag}: {stderr}"
    );
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
    let spec = |load: &str| {
        format!(
            r#"{{"scheme":"oq","n":8,"traffic":{{"pattern":"uniform","load":{load}}},
               "run":{{"slots":2000,"warmup_slots":200,"drain_slots":2000}},"seed":3}}"#
        )
    };
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
