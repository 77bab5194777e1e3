//! A word the binary does not know is a usage error (exit 2, `error: …` on
//! stderr, nothing on stdout), never a silently ignored one — which is also
//! what the removed `--threads` and `--batch` flags and a repeated flag
//! (only its first value would be read) now are, on every binary down to
//! the figure drivers.  A `"threads"` or `"batch"` key in a spec file is
//! the other half of that decision: still range-checked (see
//! `spec::tests::zero_and_fractional_thread_counts_are_rejected`), otherwise
//! accepted and ignored with one note on stderr.  `--help` (or `-h`) is
//! the one word every binary knows: it prints the usage and exits 0.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const SCENARIO: &str = env!("CARGO_BIN_EXE_scenario");
const SUITE: &str = env!("CARGO_BIN_EXE_suite");
const TRACE: &str = env!("CARGO_BIN_EXE_trace");
const FIGURE5: &str = env!("CARGO_BIN_EXE_figure5");
const FIGURE6: &str = env!("CARGO_BIN_EXE_figure6");
const FIGURE7: &str = env!("CARGO_BIN_EXE_figure7");
const TABLE1: &str = env!("CARGO_BIN_EXE_table1");
const ABLATION_SIZING: &str = env!("CARGO_BIN_EXE_ablation_sizing");

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("binary runs")
}

/// A fresh directory holding one small `oq` spec per `(file, seed)`, each
/// with `extra` spliced in as further top-level keys.
fn spec_dir(tag: &str, files: &[(&str, u64)], extra: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("sprinklers-flags-cli-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir");
    for (file, seed) in files {
        let spec = format!(
            r#"{{"scheme":"oq","n":8,"traffic":{{"pattern":"uniform","load":0.5}},
               "run":{{"slots":2000,"warmup_slots":200,"drain_slots":2000}},"seed":{seed}{extra}}}"#
        );
        std::fs::write(dir.join(file), spec).expect("write spec");
    }
    dir
}

fn utf8(path: &Path) -> &str {
    path.to_str().expect("utf-8 path")
}

fn assert_usage_error(out: &Output, needle: &str, tag: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{tag}: {stderr}");
    assert!(out.stdout.is_empty(), "{tag} must print nothing on stdout");
    assert!(
        stderr
            .lines()
            .any(|l| l.starts_with("error: ") && l.contains(needle)),
        "{tag}: expected an error naming '{needle}', got: {stderr}"
    );
}

/// Exit 0, and how many `note:` lines stderr carries.
fn notes(out: &Output, tag: &str) -> usize {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{tag}: {stderr}");
    stderr.lines().filter(|l| l.starts_with("note: ")).count()
}

#[test]
fn unknown_valueless_and_removed_flags_are_usage_errors() {
    let dir = spec_dir("usage", &[("a.json", 3)], "");
    let spec = dir.join("a.json");
    let scenario = ["--scheme", "oq", "--n", "8", "--quick"];
    let suite = ["--dir", utf8(&dir)];
    let trace = ["info", "--in", utf8(&spec)];
    let record = ["record", "--spec", utf8(&spec), "--out", "unused.sprt"];
    let convert = ["convert", "--in", utf8(&spec), "--out", "unused.sprt"];
    let cases: [(&str, &[&str], &[&str], &str); 23] = [
        (SCENARIO, &scenario, &["--lod", "0.9", "--bogus"], "--lod"),
        (SCENARIO, &scenario, &["--load"], "--load requires a value"),
        (
            SCENARIO,
            &scenario,
            &["--threads", "4"],
            "--threads was removed",
        ),
        (SUITE, &suite, &["--wrkers", "1"], "--wrkers"),
        (SUITE, &suite, &["--workers"], "--workers requires a value"),
        (SUITE, &suite, &["--threads", "4"], "--threads was removed"),
        (
            SCENARIO,
            &scenario,
            &["--batch", "8"],
            "--batch was removed",
        ),
        (SUITE, &suite, &["--batch", "8"], "--batch was removed"),
        (FIGURE5, &[], &["--quik"], "--quik"),
        (FIGURE6, &[], &["--quik"], "--quik"),
        (FIGURE6, &[], &["--quick", "stray"], "stray"),
        (
            FIGURE7,
            &[],
            &["--quick", "--quick"],
            "--quick given more than once",
        ),
        (TABLE1, &[], &["--quick"], "--quick"),
        (ABLATION_SIZING, &[], &["--quik"], "--quik"),
        (
            ABLATION_SIZING,
            &[],
            &["--batch", "8"],
            "--batch was removed",
        ),
        (TRACE, &trace, &["--bogus"], "--bogus"),
        // A trace's encoding is read from its bytes: the format flags went.
        (TRACE, &record, &["--format", "csv"], "--format"),
        (TRACE, &trace, &["--in-format", "csv"], "--in-format"),
        (TRACE, &convert, &["--in-format", "csv"], "--in-format"),
        (TRACE, &convert, &["--out-format", "csv"], "--out-format"),
        (
            SCENARIO,
            &scenario,
            &["--load", "0.3", "--load", "0.9"],
            "--load given more than once",
        ),
        (
            SUITE,
            &suite,
            &["--workers", "1", "--workers", "2"],
            "--workers given more than once",
        ),
        (
            TRACE,
            &trace,
            &["--in", utf8(&spec)],
            "--in given more than once",
        ),
    ];
    for (bin, base, extra, needle) in cases {
        let out = run(bin, &[base, extra].concat());
        assert_usage_error(&out, needle, &format!("{bin} … {extra:?}"));
    }
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
}

/// A flag that would be silently outvoted is a usage error: an inline
/// scenario flag beside `--spec`, a trace knob without `--trace`, a
/// `trace info --format`, and a `trace convert --n` that contradicts the
/// trace's own `n`.
#[test]
fn help_prints_the_usage_and_exits_zero_on_every_binary() {
    let binaries = [
        ("scenario", SCENARIO),
        ("suite", SUITE),
        ("trace", TRACE),
        ("figure5", FIGURE5),
        ("figure6", FIGURE6),
        ("figure7", FIGURE7),
        ("table1", TABLE1),
        ("ablation_sizing", ABLATION_SIZING),
    ];
    for (name, bin) in binaries {
        for help in ["--help", "-h"] {
            let out = run(bin, &[help]);
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert_eq!(out.status.code(), Some(0), "{name} {help}: {stdout}");
            assert!(out.stderr.is_empty(), "{name} {help} wrote to stderr");
            assert!(
                stdout.contains(&format!("Usage:\n  {name}")),
                "{name} {help} printed no usage: {stdout}"
            );
        }
    }
}

#[test]
fn flags_a_run_would_ignore_are_usage_errors() {
    let dir = spec_dir("ignored", &[("a.json", 3)], "");
    let spec = dir.join("a.json");
    let trace = dir.join("a.csv");
    let (sprt_out, csv_out) = (dir.join("b.sprt"), dir.join("b.csv"));
    let recorded = run(
        TRACE,
        &["record", "--spec", utf8(&spec), "--out", utf8(&trace)],
    );
    assert_eq!(recorded.status.code(), Some(0), "trace record");

    let with_spec = ["--spec", utf8(&spec)];
    let inline = ["--scheme", "oq", "--n", "8"];
    let cases: [(&str, &[&str], &[&str], &str); 12] = [
        (SCENARIO, &with_spec, &["--scheme", "foff"], "--scheme"),
        (SCENARIO, &with_spec, &["--n", "64"], "--n"),
        (SCENARIO, &with_spec, &["--load", "0.9"], "--load"),
        (
            SCENARIO,
            &with_spec,
            &["--pattern", "diagonal"],
            "--pattern",
        ),
        (SCENARIO, &with_spec, &["--seed", "4"], "--seed"),
        (SCENARIO, &with_spec, &["--trace", utf8(&trace)], "--trace"),
        (SCENARIO, &with_spec, &["--repeat", "2"], "--repeat"),
        (SCENARIO, &inline, &["--repeat", "2"], "--repeat"),
        (SCENARIO, &inline, &["--scale", "0.5"], "--scale"),
        (
            TRACE,
            &["info", "--in", utf8(&trace)],
            &["--format", "csv"],
            "--format",
        ),
        (
            TRACE,
            &["convert", "--in", utf8(&trace)],
            &["--out", utf8(&sprt_out), "--n", "16"],
            "--n 16",
        ),
        (
            TRACE,
            &["convert", "--in", utf8(&trace)],
            &["--out", utf8(&csv_out), "--n", "4"],
            "--n 4",
        ),
    ];
    for (bin, base, extra, needle) in cases {
        let out = run(bin, &[base, extra].concat());
        assert_usage_error(&out, needle, &format!("{bin} {base:?} {extra:?}"));
    }

    // What stays accepted: the trace's own n.
    let converted = run(
        TRACE,
        &[
            "convert",
            "--in",
            utf8(&trace),
            "--out",
            utf8(&sprt_out),
            "--n",
            "8",
        ],
    );
    assert_eq!(converted.status.code(), Some(0), "convert at the trace's n");
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
}

/// `--quick` beside `--spec` swaps the file's run config for the quick one,
/// as `suite --quick` does: the row is the inline quick run's.
#[test]
fn quick_replaces_the_run_config_of_a_spec_file() {
    let dir = spec_dir("quick", &[("a.json", 3)], "");
    let spec = dir.join("a.json");
    let from_file = run(SCENARIO, &["--spec", utf8(&spec), "--quick"]);
    let inline = run(
        SCENARIO,
        &[
            "--scheme", "oq", "--n", "8", "--load", "0.5", "--seed", "3", "--quick",
        ],
    );
    let as_written = run(SCENARIO, &["--spec", utf8(&spec)]);
    for (out, tag) in [
        (&from_file, "spec"),
        (&inline, "inline"),
        (&as_written, "file"),
    ] {
        assert_eq!(out.status.code(), Some(0), "{tag}");
    }
    assert_eq!(from_file.stdout, inline.stdout);
    assert_ne!(from_file.stdout, as_written.stdout);
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
}

#[test]
fn a_threads_key_in_a_spec_file_is_ignored_with_one_note() {
    inert_key_is_ignored_with_one_note("threads", r#","threads":4"#);
}

#[test]
fn a_batch_key_in_a_spec_file_is_ignored_with_one_note() {
    inert_key_is_ignored_with_one_note("batch", r#","batch":1"#);
}

/// Specs that carry `extra` (one inert key) give the same CSV row, sidecar
/// and merged CSV as specs without it, plus exactly one note.
fn inert_key_is_ignored_with_one_note(key: &str, extra: &str) {
    let files = [("a.json", 3), ("b.json", 4)];
    let plain = spec_dir(&format!("plain-{key}"), &files, "");
    let keyed = spec_dir(key, &files, extra);

    // One scenario: same CSV row, same sidecar, one note.
    let run_one = |dir: &Path| {
        let sidecar = dir.join("a.metrics");
        let out = run(
            SCENARIO,
            &[
                "--spec",
                utf8(&dir.join("a.json")),
                "--metrics",
                "full",
                "--metrics-out",
                utf8(&sidecar),
            ],
        );
        (out, std::fs::read(&sidecar).expect("sidecar"))
    };
    let ((want, want_sidecar), (got, got_sidecar)) = (run_one(&plain), run_one(&keyed));
    assert!(!want.stdout.is_empty());
    assert_eq!(got.stdout, want.stdout, "{key} moved the CSV row");
    assert_eq!(got_sidecar, want_sidecar, "{key} moved the sidecar");
    assert_eq!((notes(&want, "plain"), notes(&got, key)), (0, 1));
    assert!(String::from_utf8_lossy(&got.stderr).contains(&format!("note: \"{key}\"")));

    // A suite of two such specs: same merged CSV, still one note.
    let run_suite = |dir: &Path| run(SUITE, &["--dir", utf8(dir), "--workers", "1"]);
    let (want, got) = (run_suite(&plain), run_suite(&keyed));
    assert_eq!(got.stdout, want.stdout, "{key} moved the merged CSV");
    assert_eq!((notes(&want, "plain suite"), notes(&got, key)), (0, 1));
    for dir in [plain, keyed] {
        std::fs::remove_dir_all(&dir).expect("remove temp dir");
    }
}
