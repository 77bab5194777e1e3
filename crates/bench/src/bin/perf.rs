//! Simulator-throughput trajectory harness: Mslots/s of the batched stepping
//! hot path for a scheme × n × load × batch grid, with a machine-readable
//! `--json` mode so successive PRs can track the perf trajectory
//! (`BENCH_5.json` pins the numbers measured when sparse stepping landed).
//!
//! Unlike the criterion benches this binary times the *stepping* path in
//! isolation: the arrival schedule is pre-generated outside the timed region
//! (as compact records, not packets), so at light load the measurement shows
//! what the switch costs per slot rather than what the traffic generator
//! costs.  The timed loop mirrors the engine exactly — inject the slot's
//! arrivals, then `step_batch` maximal arrival-free runs in `batch`-sized
//! chunks — and every cell ends with an arrival-free drain window, the
//! drain-tail shape that dominates real `RunConfig`s.
//!
//! ```text
//! perf [--schemes a,b,..] [--ns 64,256] [--loads 0.05,0.3,0.95]
//!      [--batches 1,64] [--slots 8192] [--drain 16384]
//!      [--reps 3] [--json out.json] [--quick] [--fabric ExCxH]
//! ```
//!
//! `--fabric ExCxH` appends fat-tree fabric cells (E edge switches, C
//! cores, H hosts per edge, stripe routing) after the single-switch grid:
//! the same timed loop drives a whole [`FabricWorld`] through the
//! [`Steppable`] surface, so the numbers are directly comparable slots/s.
//! Schemes whose node sizes the fabric can't instantiate (e.g. Sprinklers
//! on a non-power-of-two node) are skipped with a note on stderr.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sprinklers_bench::cli::{check_flags, fail, has_flag, parse_flag, parse_list_flag};
use sprinklers_core::matrix::TrafficMatrix;
use sprinklers_core::packet::Packet;
use sprinklers_core::switch::{CountingSink, Steppable};
use sprinklers_sim::fabric::FabricWorld;
use sprinklers_sim::registry;
use sprinklers_sim::spec::{LinkSpec, RoutingSpec, SizingSpec, TopologySpec};
use std::fmt::Write as _;
use std::time::Instant;

const USAGE: &str = "\
perf — Mslots/s of the batched stepping hot path over a scheme x n x load x batch grid

Usage:
  perf [--schemes a,b,..] [--ns 64,256] [--loads 0.05,0.3,0.95]
       [--batches 1,64] [--slots 8192] [--drain 16384]
       [--reps 3] [--json out.json] [--quick] [--fabric ExCxH]

One CSV row per cell on stdout (best of --reps).  --quick shrinks the grid
and the windows; --json also writes the machine-readable report; --batches
is a grid dimension (deliveries are byte-identical at any value); --fabric
appends fat-tree cells (E edges, C cores, H hosts per edge).";

/// Flags that take a value, and bare flags.
const VALUE_FLAGS: [&str; 9] = [
    "--schemes",
    "--ns",
    "--loads",
    "--batches",
    "--slots",
    "--drain",
    "--reps",
    "--json",
    "--fabric",
];
const BARE_FLAGS: [&str; 3] = ["--quick", "--help", "-h"];

/// One pre-generated arrival: (slot, input, output).  Packets are built
/// inside the timed loop (arrival-side work is part of what is measured);
/// the records keep the schedule's memory footprint small at large n.
type Arrival = (u64, u32, u32);

/// Bernoulli-uniform arrival schedule: each input fires with probability
/// `load` per slot, destination uniform — the same admissible pattern the
/// engine's uniform traffic generates, pre-drawn so RNG cost stays outside
/// the timed region.
fn schedule(n: usize, load: f64, slots: u64, seed: u64) -> Vec<Arrival> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    for slot in 0..slots {
        for input in 0..n {
            if rng.gen_range(0.0..1.0) < load {
                let output = rng.gen_range(0..n);
                out.push((slot, input as u32, output as u32));
            }
        }
    }
    out
}

struct Cell {
    scheme: String,
    n: usize,
    load: f64,
    batch: u32,
    total_slots: u64,
    delivered: u64,
    mslots_per_sec: f64,
}

/// Grid coordinates of one timed cell (everything `drive` needs besides the
/// pre-generated schedule and the window lengths).
struct CellCfg<'a> {
    scheme: &'a str,
    n: usize,
    load: f64,
    batch: u64,
    /// When set, the cell times a whole fabric (n = its host count)
    /// instead of one switch.  Perf cells always run fault-free: the
    /// harness measures the steady-state hot path, and healthy fabrics
    /// skip the fault machinery entirely (`FabricWorld::with_faults` is
    /// never installed here).
    fabric: Option<&'a TopologySpec>,
}

/// Build the world a cell times: a lone registry switch, or a fabric.
fn build_world(cfg: &CellCfg) -> Result<Box<dyn Steppable>, String> {
    let load = cfg.load.max(0.01);
    match cfg.fabric {
        Some(topo) => FabricWorld::build(topo, cfg.scheme, &SizingSpec::Matrix, 7, load)
            .map(|w| Box::new(w) as Box<dyn Steppable>)
            .map_err(|e| e.to_string()),
        None => {
            let matrix = TrafficMatrix::uniform(cfg.n, load);
            registry::build_named(cfg.scheme, cfg.n, &SizingSpec::Matrix, &matrix, 7)
                .map(|s| Box::new(s) as Box<dyn Steppable>)
                .map_err(|e| e.to_string())
        }
    }
}

/// Drive one cell once: inject + advance over offered + drain slots,
/// timed.  Returns (seconds, delivered packets).
fn drive(cfg: &CellCfg, arrivals: &[Arrival], offered_slots: u64, drain_slots: u64) -> (f64, u64) {
    let &CellCfg { n, batch, .. } = cfg;
    let mut world = build_world(cfg).unwrap_or_else(|e| sprinklers_bench::cli::fail(&e));
    let mut voq_seq = vec![0u64; n * n];
    let mut sink = CountingSink::default();
    let total = offered_slots + drain_slots;
    let start = Instant::now();
    let mut idx = 0usize;
    let mut next_id = 0u64;
    let mut slot = 0u64;
    while slot < total {
        while idx < arrivals.len() && arrivals[idx].0 == slot {
            let (_, input, output) = arrivals[idx];
            let (input, output) = (input as usize, output as usize);
            let key = input * n + output;
            let p = Packet::new(input, output, next_id, slot).with_voq_seq(voq_seq[key]);
            voq_seq[key] += 1;
            next_id += 1;
            world.inject(p);
            idx += 1;
        }
        let next_arrival = arrivals.get(idx).map_or(total, |a| a.0);
        let run_end = next_arrival.clamp(slot + 1, total);
        let mut s = slot;
        while s < run_end {
            let count = batch.min(run_end - s);
            world.advance(s, count as u32, &mut sink);
            s += count;
        }
        slot = run_end;
    }
    (start.elapsed().as_secs_f64(), sink.total())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if has_flag(&args, "--help") || has_flag(&args, "-h") {
        println!("{USAGE}");
        return;
    }
    if let Err(e) = check_flags(&args, &VALUE_FLAGS, &BARE_FLAGS) {
        fail(&e);
    }
    let quick = has_flag(&args, "--quick");
    let schemes = parse_list_flag::<String>(&args, "--schemes").unwrap_or_else(|| {
        let all = [
            "sprinklers",
            "oq",
            "baseline-lb",
            "ufs",
            "foff",
            "padded-frames",
            "tcp-hash",
        ];
        let quick_set = ["sprinklers", "oq", "baseline-lb"];
        let list: &[&str] = if quick { &quick_set } else { &all };
        list.iter().map(|s| s.to_string()).collect()
    });
    let ns = parse_list_flag::<usize>(&args, "--ns").unwrap_or_else(|| {
        if quick {
            vec![64]
        } else {
            vec![64, 256]
        }
    });
    let loads = parse_list_flag::<f64>(&args, "--loads").unwrap_or_else(|| {
        if quick {
            vec![0.05, 0.95]
        } else {
            vec![0.05, 0.3, 0.95]
        }
    });
    let batches = parse_list_flag::<u32>(&args, "--batches").unwrap_or_else(|| vec![1, 64]);
    let offered: u64 = parse_flag(&args, "--slots").unwrap_or(if quick { 2_048 } else { 8_192 });
    let drain: u64 = parse_flag(&args, "--drain").unwrap_or(if quick { 4_096 } else { 16_384 });
    let reps: u32 = parse_flag(&args, "--reps").unwrap_or(if quick { 1 } else { 3 });
    let json_path = sprinklers_bench::cli::arg_value(&args, "--json");

    let mut cells: Vec<Cell> = Vec::new();
    println!("scheme,n,load,batch,total_slots,delivered,mslots_per_sec");
    for &n in &ns {
        for &load in &loads {
            let arrivals = schedule(n, load, offered, 2014);
            for scheme in &schemes {
                for &batch in &batches {
                    // Best-of-reps: throughput benchmarking wants the
                    // least perturbed run, not the average.
                    let mut best = f64::INFINITY;
                    let mut delivered = 0u64;
                    let cfg = CellCfg {
                        scheme,
                        n,
                        load,
                        batch: u64::from(batch),
                        fabric: None,
                    };
                    for _ in 0..reps {
                        let (secs, d) = drive(&cfg, &arrivals, offered, drain);
                        best = best.min(secs);
                        delivered = d;
                    }
                    let total_slots = offered + drain;
                    let mslots = total_slots as f64 / best / 1e6;
                    println!("{scheme},{n},{load},{batch},{total_slots},{delivered},{mslots:.2}");
                    cells.push(Cell {
                        scheme: scheme.clone(),
                        n,
                        load,
                        batch,
                        total_slots,
                        delivered,
                        mslots_per_sec: mslots,
                    });
                }
            }
        }
    }

    // Fabric cells ride after the single-switch grid: same timed loop, the
    // whole fat-tree as the world, n = its host count.
    if let Some(shape) = sprinklers_bench::cli::arg_value(&args, "--fabric") {
        let topo = parse_fabric(&shape);
        let hosts = topo.hosts();
        topo.validate(hosts)
            .unwrap_or_else(|e| sprinklers_bench::cli::fail(&e.to_string()));
        for &load in &loads {
            let arrivals = schedule(hosts, load, offered, 2014);
            for scheme in &schemes {
                for &batch in &batches {
                    let cfg = CellCfg {
                        scheme,
                        n: hosts,
                        load,
                        batch: u64::from(batch),
                        fabric: Some(&topo),
                    };
                    let label = match build_world(&cfg) {
                        Ok(world) => world.label(),
                        Err(e) => {
                            eprintln!("skipping fabric cell for {scheme}: {e}");
                            continue;
                        }
                    };
                    let mut best = f64::INFINITY;
                    let mut delivered = 0u64;
                    for _ in 0..reps {
                        let (secs, d) = drive(&cfg, &arrivals, offered, drain);
                        best = best.min(secs);
                        delivered = d;
                    }
                    let total_slots = offered + drain;
                    let mslots = total_slots as f64 / best / 1e6;
                    println!(
                        "{label},{hosts},{load},{batch},{total_slots},{delivered},{mslots:.2}"
                    );
                    cells.push(Cell {
                        scheme: label,
                        n: hosts,
                        load,
                        batch,
                        total_slots,
                        delivered,
                        mslots_per_sec: mslots,
                    });
                }
            }
        }
    }

    if let Some(path) = json_path {
        std::fs::write(&path, render_json(offered, drain, &cells))
            .unwrap_or_else(|e| sprinklers_bench::cli::fail(&format!("cannot write {path}: {e}")));
        eprintln!("wrote {path}");
    }
}

/// Parse `--fabric ExCxH` into a stripe-routed fat-tree with unit links.
fn parse_fabric(shape: &str) -> TopologySpec {
    let parts: Vec<usize> = shape
        .split('x')
        .map(|p| {
            p.parse().unwrap_or_else(|_| {
                sprinklers_bench::cli::fail(&format!(
                    "--fabric expects ExCxH (e.g. 2x2x4), got '{shape}'"
                ))
            })
        })
        .collect();
    let [edges, cores, hosts_per_edge] = parts[..] else {
        sprinklers_bench::cli::fail(&format!(
            "--fabric expects ExCxH (e.g. 2x2x4), got '{shape}'"
        ));
    };
    TopologySpec::FatTree2 {
        edges,
        cores,
        hosts_per_edge,
        routing: RoutingSpec::Stripe,
        link: LinkSpec::default(),
    }
}

/// `{:.2}` for a finite throughput, JSON `null` otherwise.  `Display` for
/// f64 happily writes `inf` or `NaN` — neither is JSON — and a cell whose
/// best elapsed time rounds to ~0 s really does produce an infinite
/// Mslots/s, so the guard is load-bearing, not defensive.
fn json_mslots(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.2}")
    } else {
        "null".to_string()
    }
}

/// Render the machine-readable report.  Hand-rolled JSON: the workspace's
/// serde is an offline marker shim, and the schema here is flat enough that
/// formatting it directly is clearer than growing the shim a serializer.
fn render_json(offered: u64, drain: u64, cells: &[Cell]) -> String {
    let mut out = String::from("{\n  \"bench\": \"sparse_stepping\",\n");
    let _ = writeln!(out, "  \"offered_slots\": {offered},");
    let _ = writeln!(out, "  \"drain_slots\": {drain},");
    out.push_str("  \"results\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let comma = if i + 1 == cells.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"scheme\": \"{}\", \"n\": {}, \"load\": {}, \"batch\": {}, \
             \"total_slots\": {}, \"delivered\": {}, \"mslots_per_sec\": {}}}{}",
            c.scheme,
            c.n,
            c.load,
            c.batch,
            c.total_slots,
            c.delivered,
            json_mslots(c.mslots_per_sec),
            comma
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal JSON well-formedness checker (the sim crate's spec reader is
    /// deliberately object/number/string-only, so it can't validate the
    /// array-bearing report).  Returns the rest of the input on success.
    fn skip_value(s: &str) -> Result<&str, String> {
        let s = s.trim_start();
        let mut chars = s.char_indices();
        match chars.next().map(|(_, c)| c) {
            Some('{') => skip_seq(&s[1..], '}', true),
            Some('[') => skip_seq(&s[1..], ']', false),
            Some('"') => skip_string(s),
            Some(c) if c == '-' || c.is_ascii_digit() => {
                let end = s
                    .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
                    .unwrap_or(s.len());
                s[..end]
                    .parse::<f64>()
                    .map_err(|e| format!("bad number '{}': {e}", &s[..end]))?;
                Ok(&s[end..])
            }
            _ if s.starts_with("null") => Ok(&s[4..]),
            _ if s.starts_with("true") => Ok(&s[4..]),
            _ if s.starts_with("false") => Ok(&s[5..]),
            other => Err(format!("unexpected value start {other:?}")),
        }
    }

    fn skip_string(s: &str) -> Result<&str, String> {
        let inner = &s[1..];
        let end = inner.find('"').ok_or("unterminated string")?;
        Ok(&inner[end + 1..])
    }

    fn skip_seq(mut s: &str, close: char, keyed: bool) -> Result<&str, String> {
        loop {
            s = s.trim_start();
            if let Some(rest) = s.strip_prefix(close) {
                return Ok(rest);
            }
            if keyed {
                s = skip_string(s.trim_start())?;
                s = s
                    .trim_start()
                    .strip_prefix(':')
                    .ok_or("missing ':' after key")?;
            }
            s = skip_value(s)?;
            s = s.trim_start();
            if let Some(rest) = s.strip_prefix(',') {
                s = rest;
            } else if !s.starts_with(close) {
                return Err(format!(
                    "expected ',' or '{close}' at {:?}",
                    &s[..s.len().min(12)]
                ));
            }
        }
    }

    fn assert_parses(text: &str) {
        let rest = skip_value(text).unwrap_or_else(|e| panic!("{e}\nin:\n{text}"));
        assert!(rest.trim().is_empty(), "trailing input: {rest:?}");
    }

    #[test]
    fn report_json_is_well_formed_even_with_non_finite_throughput() {
        let cell = |mslots: f64| Cell {
            scheme: "sprinklers".into(),
            n: 64,
            load: 0.05,
            batch: 64,
            total_slots: 6144,
            delivered: 19_000,
            mslots_per_sec: mslots,
        };
        // A ~0s best elapsed time yields ±inf; a 0/0 pathology yields NaN.
        // `{:.2}` would write them verbatim, producing unparseable JSON.
        for cells in [
            vec![],
            vec![cell(123.45)],
            vec![cell(f64::INFINITY)],
            vec![cell(f64::NAN), cell(0.0), cell(f64::NEG_INFINITY)],
        ] {
            let text = render_json(2048, 4096, &cells);
            assert_parses(&text);
            assert!(!text.contains("inf") && !text.contains("NaN"), "{text}");
        }
    }

    #[test]
    fn non_finite_throughput_renders_as_null() {
        assert_eq!(json_mslots(f64::INFINITY), "null");
        assert_eq!(json_mslots(f64::NEG_INFINITY), "null");
        assert_eq!(json_mslots(f64::NAN), "null");
        assert_eq!(json_mslots(12.345), "12.35");
    }
}
