//! Record, inspect and convert workload traces.
//!
//! `trace record` turns *any* scenario — every synthetic generator the spec
//! language knows, at any load, seed and run length — into a replayable
//! trace file, capturing the exact arrival stream the engine would inject
//! plus provenance metadata (label + rate matrix), so replaying the trace
//! under the same scheme/seed/run reproduces the original report byte for
//! byte.  `trace info` validates a trace end to end and prints its header
//! and summary statistics; `trace convert` transcodes between the
//! human-editable CSV and the compact binary `.sprt` without loading the
//! trace into memory.  A trace's encoding is read from its bytes; a written
//! one is `.sprt` binary for a `.sprt` path and CSV otherwise.
//!
//! Usage:
//! ```text
//! trace record --spec <file.json> --out <trace.{csv,sprt}> [--emit-spec <replay.json>]
//! trace info --in <trace>
//! trace convert --in <a> --out <b> [--n <ports>]
//! ```

use sprinklers_bench::cli::{
    arg_value, check_distinct_paths, check_flags, exit_on_help, fail, load_spec_file, parse_flag,
};
use sprinklers_sim::spec::TrafficSpec;
use sprinklers_sim::traffic::trace_io::{record_spec, TraceReader, TraceWriter};
use std::path::Path;

const USAGE: &str = "\
Record, inspect and convert workload traces.

Subcommands:
  record   Run a ScenarioSpec's traffic generator and capture its arrival
           stream (the exact packets the engine would inject) to a trace
           file with full provenance metadata.  Replaying the trace under
           the same scheme, seed and run config reproduces the original
           report byte for byte.
  info     Validate a trace file end to end and print its header and
           summary statistics.
  convert  Transcode a trace between CSV and binary .sprt (streaming;
           metadata is preserved).

Usage:
  trace record --spec <file.json> --out <trace.{csv,sprt}> [--emit-spec <replay.json>]
  trace info --in <trace>
  trace convert --in <a> --out <b> [--n <ports>]

A trace is read as binary when it opens with the SPRT magic, as CSV
otherwise; one is written as binary when its path ends in .sprt, as CSV
otherwise.
--emit-spec writes a replay ScenarioSpec next to the trace: the recorded
spec with its traffic block swapped for {\"kind\": \"trace\", ...}.
--n supplies a port count when converting a metadata-free CSV to .sprt; a
trace that declares its own n must not be given a different one.";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        println!("{USAGE}");
        return;
    }
    exit_on_help(&args, USAGE);
    match args[0].as_str() {
        "record" => record(&args),
        "info" => info(&args),
        "convert" => convert(&args),
        other => fail(&format!("unknown subcommand '{other}' (see --help)")),
    }
}

/// Reject anything after the subcommand word that is not one of its flags
/// (every `trace` flag takes a value).
fn check_subcommand_flags(args: &[String], value_flags: &[&str]) {
    if let Err(e) = check_flags(&args[1..], value_flags, &[]) {
        fail(&e);
    }
}

fn record(args: &[String]) {
    check_subcommand_flags(args, &["--spec", "--out", "--emit-spec"]);
    let spec_path =
        arg_value(args, "--spec").unwrap_or_else(|| fail("record needs --spec (see --help)"));
    let out = arg_value(args, "--out").unwrap_or_else(|| fail("record needs --out (see --help)"));
    let replay_path = arg_value(args, "--emit-spec");
    let spec = load_spec_file(&spec_path);
    let replayed = match &spec.traffic {
        TrafficSpec::Trace { path, .. } => Some(path.as_str()),
        _ => None,
    };
    check_distinct_paths(&[
        ("--spec", Some(&spec_path)),
        ("the spec's trace", replayed),
        ("--out", Some(&out)),
        ("--emit-spec", replay_path.as_deref()),
    ])
    .unwrap_or_else(|e| fail(&e));

    let (records, span) = record_spec(&spec, &out).unwrap_or_else(|e| fail(&e.to_string()));
    eprintln!(
        "recorded {out}: {records} packets over {span} slots from {}",
        spec.label(),
    );

    if let Some(replay_path) = replay_path {
        // The loaders rebase relative trace paths against the *spec file's*
        // directory, so reference the trace by bare file name when both live
        // in the same directory, and by absolute path otherwise (a cwd-
        // relative path would resolve against the wrong base at load time).
        let out_path = Path::new(&out);
        let trace_ref = match (out_path.parent(), Path::new(&replay_path).parent()) {
            (Some(a), Some(b)) if a == b => out_path
                .file_name()
                .map(|f| f.to_string_lossy().into_owned())
                .unwrap_or_else(|| out.clone()),
            _ => std::fs::canonicalize(out_path)
                .unwrap_or_else(|e| fail(&format!("cannot resolve {out}: {e}")))
                .to_string_lossy()
                .into_owned(),
        };
        let mut replay = spec.clone();
        replay.traffic = TrafficSpec::trace(trace_ref);
        std::fs::write(&replay_path, replay.to_json())
            .unwrap_or_else(|e| fail(&format!("cannot write {replay_path}: {e}")));
        eprintln!("wrote replay spec {replay_path}");
    }
}

fn info(args: &[String]) {
    check_subcommand_flags(args, &["--in"]);
    let input = arg_value(args, "--in").unwrap_or_else(|| fail("info needs --in (see --help)"));
    let mut reader = TraceReader::open(&input).unwrap_or_else(|e| fail(&e.to_string()));

    println!("path:    {input}");
    println!("format:  {}", reader.encoding());
    match reader.meta().n {
        Some(n) => println!("n:       {n}"),
        None => println!("n:       (not declared)"),
    }
    match &reader.meta().label {
        Some(label) => println!("label:   {label}"),
        None => println!("label:   (none)"),
    }
    println!(
        "matrix:  {}",
        if reader.meta().matrix.is_some() {
            "recorded"
        } else {
            "absent (replay derives empirical rates)"
        }
    );
    let declared_slots = reader.meta().slots;

    // Full validating scan (the reader applies replay's file rules):
    // counts, span, and per-port peaks.
    let mut records = 0u64;
    let mut first_slot = None;
    let mut last_slot = 0u64;
    let mut busiest_input = (0usize, 0u64);
    let mut input_counts: Vec<u64> = Vec::new();
    loop {
        match reader.next_record() {
            Ok(Some(rec)) => {
                records += 1;
                first_slot.get_or_insert(rec.slot);
                last_slot = rec.slot;
                if rec.input >= input_counts.len() {
                    input_counts.resize(rec.input + 1, 0);
                }
                input_counts[rec.input] += 1;
                if input_counts[rec.input] > busiest_input.1 {
                    busiest_input = (rec.input, input_counts[rec.input]);
                }
            }
            Ok(None) => break,
            Err(e) => fail(&e.to_string()),
        }
    }
    let span = declared_slots.max(if records > 0 { last_slot + 1 } else { 0 });
    println!("records: {records}");
    println!("slots:   {span} (declared {declared_slots})");
    if records > 0 {
        println!(
            "first/last arrival slot: {} / {last_slot}",
            first_slot.unwrap_or(0)
        );
        println!(
            "busiest input: port {} with {} packets ({:.3} load)",
            busiest_input.0,
            busiest_input.1,
            busiest_input.1 as f64 / span.max(1) as f64,
        );
    }
    eprintln!("ok: trace validates");
}

fn convert(args: &[String]) {
    check_subcommand_flags(args, &["--in", "--out", "--n"]);
    let input = arg_value(args, "--in").unwrap_or_else(|| fail("convert needs --in (see --help)"));
    let out = arg_value(args, "--out").unwrap_or_else(|| fail("convert needs --out (see --help)"));
    check_distinct_paths(&[("--in", Some(&input)), ("--out", Some(&out))])
        .unwrap_or_else(|e| fail(&e));

    let mut reader = TraceReader::open(&input).unwrap_or_else(|e| fail(&e.to_string()));
    let mut meta = reader.meta().clone();
    // Metadata-free CSVs can still become .sprt if the caller supplies n.
    match (meta.n, parse_flag::<usize>(args, "--n")) {
        (Some(declared), Some(given)) if given != declared => fail(&format!(
            "--n {given} contradicts the n = {declared} the input declares"
        )),
        (None, given) => meta.n = given,
        _ => {}
    }
    let mut writer = TraceWriter::create(&out, &meta).unwrap_or_else(|e| fail(&e.to_string()));
    loop {
        match reader.next_record() {
            Ok(Some(rec)) => writer.write(&rec).unwrap_or_else(|e| fail(&e.to_string())),
            Ok(None) => break,
            Err(e) => fail(&e.to_string()),
        }
    }
    let (records, span) = writer.finish().unwrap_or_else(|e| fail(&e.to_string()));
    eprintln!("converted {input} -> {out}: {records} packets over {span} slots");
}
