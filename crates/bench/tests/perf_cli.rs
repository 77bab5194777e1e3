//! `perf` command-line behaviour: asking for help must not run the grid, and
//! a mistyped flag is a usage error, not a silently ignored word.

use std::process::Command;

fn perf(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_perf"))
        .args(args)
        .output()
        .expect("perf runs")
}

#[test]
fn help_prints_usage_and_exits_zero_without_running_a_cell() {
    for flag in ["--help", "-h"] {
        // Even next to flags that would otherwise start a long grid.
        let out = perf(&["--ns", "4096", flag]);
        assert_eq!(out.status.code(), Some(0), "{flag}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("Usage:"), "{flag}: {stdout}");
        assert!(
            !stdout.contains("mslots_per_sec"),
            "{flag} must not print the result header: {stdout}"
        );
    }
}

#[test]
fn unknown_flag_is_a_usage_error() {
    for args in [&["--quik"][..], &["--quick", "stray"], &["--ns"]] {
        let out = perf(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} must not start the grid");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
    }
}
