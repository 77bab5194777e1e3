//! One verdict per trace file.  `trace info`, `trace convert` and replay
//! read a trace through the same reader, so a file-level defect is the same
//! usage error (exit 2, the same `error: …` line) from all three; and the
//! encoding is read from the bytes, so a `.sprt` under another name
//! replays exactly as it does under its own.  A command whose paths name
//! one file twice is a usage error before anything is written.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const SCENARIO: &str = env!("CARGO_BIN_EXE_scenario");
const TRACE: &str = env!("CARGO_BIN_EXE_trace");

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("binary runs")
}

/// `scenario --quick` replaying `trace` on `scheme` at n = 8.
fn replay(scheme: &str, trace: &Path) -> Output {
    let trace = utf8(trace);
    run(
        SCENARIO,
        &["--scheme", scheme, "--n", "8", "--trace", trace, "--quick"],
    )
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("sprinklers-trace-cli-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn utf8(path: &Path) -> &str {
    path.to_str().expect("utf-8 path")
}

/// Exit 2 and the one `error: ` line.
fn error_line(out: &Output, tag: &str) -> String {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{tag}: {stderr}");
    stderr
        .lines()
        .find(|l| l.starts_with("error: "))
        .unwrap_or_else(|| panic!("{tag}: no error line in {stderr}"))
        .to_string()
}

#[test]
fn info_convert_and_replay_refuse_a_bad_trace_alike() {
    let dir = temp_dir("verdict");
    let cases = [
        (
            "collision.csv",
            "0,1,2\n0,1,3\n",
            "two packets at input 1 in slot 0",
        ),
        (
            "span.csv",
            "# slots = 1\n3,0,1\n",
            "header declares 1 slots but the trace contains slot 3",
        ),
    ];
    for (name, text, says) in cases {
        let trace = dir.join(name);
        std::fs::write(&trace, text).expect("write trace");
        let out = dir.join(format!("converted-{name}"));
        let info = error_line(&run(TRACE, &["info", "--in", utf8(&trace)]), "info");
        let convert = error_line(
            &run(
                TRACE,
                &["convert", "--in", utf8(&trace), "--out", utf8(&out)],
            ),
            "convert",
        );
        let replayed = error_line(&replay("oq", &trace), "replay");
        assert!(info.contains(says), "{name}: {info}");
        assert_eq!(convert, info, "{name}: convert and info disagree");
        assert_eq!(replayed, info, "{name}: replay and info disagree");
    }
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
}

#[test]
fn a_sprt_trace_replays_identically_under_any_name() {
    let dir = temp_dir("names");
    let spec = dir.join("source.json");
    std::fs::write(
        &spec,
        r#"{"scheme":"oq","n":8,"traffic":{"pattern":"uniform","load":0.7},
           "run":{"slots":1500,"warmup_slots":150,"drain_slots":2000},"seed":9}"#,
    )
    .expect("write spec");
    let sprt = dir.join("capture.sprt");
    let recorded = run(
        TRACE,
        &["record", "--spec", utf8(&spec), "--out", utf8(&sprt)],
    );
    assert_eq!(recorded.status.code(), Some(0), "trace record");
    let original = replay("foff", &sprt);
    assert_eq!(original.status.code(), Some(0), "replay");
    assert!(!original.stdout.is_empty());
    for name in ["capture.bin", "capture.csv"] {
        let copy = dir.join(name);
        std::fs::copy(&sprt, &copy).expect("copy trace");
        let out = replay("foff", &copy);
        assert_eq!(out.status.code(), Some(0), "replay {name}");
        assert_eq!(out.stdout, original.stdout, "{name} replayed differently");
    }
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
}

#[test]
fn a_command_never_writes_over_a_file_it_reads_or_writes() {
    let dir = temp_dir("same-file");
    let spec = dir.join("source.json");
    std::fs::write(
        &spec,
        r#"{"scheme":"oq","n":8,"traffic":{"pattern":"uniform","load":0.5},
           "run":{"slots":300,"warmup_slots":30,"drain_slots":300},"seed":4}"#,
    )
    .expect("write spec");
    let trace = dir.join("t.sprt");
    let recorded = run(
        TRACE,
        &["record", "--spec", utf8(&spec), "--out", utf8(&trace)],
    );
    assert_eq!(recorded.status.code(), Some(0), "trace record");
    let existing = dir.join("r.csv");
    std::fs::write(&existing, "0,1,2\n").expect("write csv");
    // The same file under its own name and under a `./` detour.
    let dotted = format!("{}/./t.sprt", dir.display());
    let cases: [(&[&str], &Path); 3] = [
        (&["convert", "--in", utf8(&trace), "--out", &dotted], &trace),
        (
            &[
                "record",
                "--spec",
                utf8(&spec),
                "--out",
                utf8(&existing),
                "--emit-spec",
                utf8(&existing),
            ],
            &existing,
        ),
        (
            &["record", "--spec", utf8(&spec), "--out", utf8(&spec)],
            &spec,
        ),
    ];
    for (args, kept) in cases {
        let before = std::fs::read(kept).expect("read input");
        let line = error_line(&run(TRACE, args), &args.join(" "));
        assert!(line.contains("name the same file"), "{line}");
        assert_eq!(
            std::fs::read(kept).expect("read input"),
            before,
            "{} changed",
            kept.display()
        );
    }
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
}
