//! `suite` writes its outputs only once every case has succeeded: a failing
//! case exits 2 naming the earliest failing case, creates neither the CSV
//! nor the sidecar, leaves a file already at either path as it was, and
//! leaves no temp file behind.

use std::process::Command;

#[test]
fn a_failing_case_exits_2_and_writes_nothing() {
    let root = std::env::temp_dir().join(format!(
        "sprinklers-suite-cli-failure-{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&root).ok();
    let (specs, out) = (root.join("specs"), root.join("out"));
    std::fs::create_dir_all(&specs).unwrap();
    std::fs::create_dir_all(&out).unwrap();
    for (file, seed) in [("a.json", 1), ("b.json", 2)] {
        let spec = format!(
            r#"{{"scheme":"oq","n":8,"traffic":{{"pattern":"uniform","load":0.5}},
               "run":{{"slots":2000,"warmup_slots":200,"drain_slots":2000}},"seed":{seed}}}"#
        );
        std::fs::write(specs.join(file), spec).unwrap();
    }
    let (csv, sidecar) = (out.join("kept.csv"), out.join("new.json"));
    std::fs::write(&csv, "an earlier CSV").unwrap();
    for workers in ["1", "4"] {
        let run = Command::new(env!("CARGO_BIN_EXE_suite"))
            .args(["--dir", specs.to_str().unwrap(), "--workers", workers])
            .args(["--schemes", "oq,no-such-scheme", "--metrics", "full"])
            .args(["--out", csv.to_str().unwrap()])
            .args(["--metrics-out", sidecar.to_str().unwrap()])
            .output()
            .expect("suite runs");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "workers {workers}: {stderr}");
        let error = stderr
            .lines()
            .find(|l| l.starts_with("error: "))
            .unwrap_or("");
        assert!(error.contains("case 'a+no-such-scheme'"), "{stderr}");
        assert!(!error.contains("b+no-such-scheme"), "{stderr}");
        assert_eq!(std::fs::read_to_string(&csv).unwrap(), "an earlier CSV");
        let left: Vec<_> = std::fs::read_dir(&out)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(
            left,
            ["kept.csv"],
            "workers {workers}: sidecar or temp file written"
        );
    }
    std::fs::remove_dir_all(&root).ok();
}
