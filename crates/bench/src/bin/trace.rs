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
//! trace into memory.
//!
//! Usage:
//! ```text
//! trace record --spec <file.json> --out <trace.{csv,sprt}> [--format csv|sprt]
//!              [--emit-spec <replay.json>]
//! trace info --in <trace> [--in-format csv|sprt]
//! trace convert --in <a> --out <b> [--in-format csv|sprt] [--out-format csv|sprt]
//!               [--n <ports>]
//! ```

use sprinklers_bench::cli::{arg_value, check_flags, fail, has_flag, load_spec_file, parse_flag};
use sprinklers_sim::spec::TrafficSpec;
use sprinklers_sim::traffic::trace_io::{record_spec, TraceFormat, TraceReader, TraceWriter};
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
  trace record --spec <file.json> --out <trace.{csv,sprt}> [--format csv|sprt]
               [--emit-spec <replay.json>]
  trace info --in <trace> [--in-format csv|sprt]
  trace convert --in <a> --out <b> [--in-format csv|sprt] [--out-format csv|sprt]
                [--n <ports>]

Formats default to the file extension (.sprt = binary, anything else CSV).
--emit-spec writes a replay ScenarioSpec next to the trace: the recorded
spec with its traffic block swapped for {\"kind\": \"trace\", ...}.
--n supplies a port count when converting a metadata-free CSV to .sprt; a
trace that declares its own n must not be given a different one.";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || has_flag(&args, "--help") || has_flag(&args, "-h") {
        println!("{USAGE}");
        return;
    }
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

fn explicit_format(args: &[String], flag: &str) -> Option<TraceFormat> {
    arg_value(args, flag)
        .map(|name| TraceFormat::from_name(&name).unwrap_or_else(|e| fail(&e.to_string())))
}

fn record(args: &[String]) {
    check_subcommand_flags(args, &["--spec", "--out", "--format", "--emit-spec"]);
    let spec_path =
        arg_value(args, "--spec").unwrap_or_else(|| fail("record needs --spec (see --help)"));
    let out = arg_value(args, "--out").unwrap_or_else(|| fail("record needs --out (see --help)"));
    let spec = load_spec_file(&spec_path);
    let format = explicit_format(args, "--format")
        .unwrap_or_else(|| TraceFormat::from_path(Path::new(&out)));

    let (records, span) = record_spec(&spec, &out, format).unwrap_or_else(|e| fail(&e.to_string()));
    eprintln!(
        "recorded {} ({}): {records} packets over {span} slots from {}",
        out,
        format.name(),
        spec.label(),
    );

    if let Some(replay_path) = arg_value(args, "--emit-spec") {
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
        replay.traffic = TrafficSpec::Trace {
            path: trace_ref,
            format: Some(format),
            repeat: 1,
            scale: 1.0,
        };
        std::fs::write(&replay_path, replay.to_json())
            .unwrap_or_else(|e| fail(&format!("cannot write {replay_path}: {e}")));
        eprintln!("wrote replay spec {replay_path}");
    }
}

fn info(args: &[String]) {
    check_subcommand_flags(args, &["--in", "--in-format"]);
    let input = arg_value(args, "--in").unwrap_or_else(|| fail("info needs --in (see --help)"));
    let format = explicit_format(args, "--in-format");
    let mut reader = TraceReader::open(&input, format).unwrap_or_else(|e| fail(&e.to_string()));

    println!("path:    {input}");
    println!("format:  {}", reader.format().name());
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

    // Full validating scan: counts, span, and per-port peaks — also the
    // cheapest way to lint a hand-edited trace for format errors.
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
    // Mirror the replay path's header check: a file `info` blesses must
    // also open for replay.
    if declared_slots > 0 && records > 0 && declared_slots <= last_slot {
        fail(&format!(
            "header declares {declared_slots} slots but the trace contains slot {last_slot}"
        ));
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
    check_subcommand_flags(
        args,
        &["--in", "--out", "--in-format", "--out-format", "--n"],
    );
    let input = arg_value(args, "--in").unwrap_or_else(|| fail("convert needs --in (see --help)"));
    let out = arg_value(args, "--out").unwrap_or_else(|| fail("convert needs --out (see --help)"));
    let in_format = explicit_format(args, "--in-format");
    let out_format = explicit_format(args, "--out-format")
        .unwrap_or_else(|| TraceFormat::from_path(Path::new(&out)));

    let mut reader = TraceReader::open(&input, in_format).unwrap_or_else(|e| fail(&e.to_string()));
    let mut meta = reader.meta().clone();
    // Metadata-free CSVs can still become .sprt if the caller supplies n.
    match (meta.n, parse_flag::<usize>(args, "--n")) {
        (Some(declared), Some(given)) if given != declared => fail(&format!(
            "--n {given} contradicts the n = {declared} the input declares"
        )),
        (None, given) => meta.n = given,
        _ => {}
    }
    if meta.n.is_none() && out_format == TraceFormat::Sprt {
        fail("the input declares no port count; pass --n to convert to .sprt");
    }
    let mut writer =
        TraceWriter::create(&out, out_format, &meta).unwrap_or_else(|e| fail(&e.to_string()));
    loop {
        match reader.next_record() {
            Ok(Some(rec)) => writer.write(&rec).unwrap_or_else(|e| fail(&e.to_string())),
            Ok(None) => break,
            Err(e) => fail(&e.to_string()),
        }
    }
    let (records, span) = writer.finish().unwrap_or_else(|e| fail(&e.to_string()));
    eprintln!(
        "converted {input} ({}) -> {out} ({}): {records} packets over {span} slots",
        reader.format().name(),
        out_format.name(),
    );
}
