//! What the benchmark measures: the six workloads, the end-to-end metrics
//! with their regression bounds, and the per-layer metric names.
//! `BENCHMARK.json` repeats these lists for the driver; a unit test keeps
//! the two in step.

use sprinklers_bench::experiments::PAPER_SCHEMES;
use sprinklers_sim::spec::{ScenarioSpec, TrafficSpec};
use std::path::{Path, PathBuf};

/// How a workload drives the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    /// One `scenario --spec F --metrics full --metrics-out M` run per rep.
    Scenario,
    /// One `suite --dir D --cache <empty>` run per rep.
    SuiteCold,
    /// Back-to-back `suite` runs against the cache a cold pass left.
    SuiteWarm,
}

/// One named workload.  `template` is the spec file under
/// `benchmark/workloads/`, compiled in so the harness needs no path to it.
#[derive(Debug)]
pub(crate) struct Workload {
    pub(crate) name: &'static str,
    pub(crate) kind: Kind,
    pub(crate) template: &'static str,
    pub(crate) why: &'static str,
}

const SUITE_TEMPLATE: &str = include_str!("../workloads/suite.json");

pub(crate) const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "dense-sprinklers",
        kind: Kind::Scenario,
        template: include_str!("../workloads/dense-sprinklers.json"),
        why: "The paper's scheme at the dense cell of its delay-vs-load figures (n=64, uniform, \
              load 0.9): core does most of the work and the run is in steady state, not the fill phase.",
    },
    Workload {
        name: "wide-sprinklers",
        kind: Kind::Scenario,
        template: include_str!("../workloads/wide-sprinklers.json"),
        why: "Sprinklers at n=256, diagonal load 0.05: ~13 packets per slot over four occupancy \
              words, so bitset scans, sparse stepping and elision carry the run.",
    },
    Workload {
        name: "wide-oq",
        kind: Kind::Scenario,
        template: include_str!("../workloads/wide-oq.json"),
        why: "Output-queued n=1024 at load 0.01 bypasses the switch kernel: the traffic generator \
              and MetricsSink dominate, so a kernel optimisation must not move it.",
    },
    Workload {
        name: "fabric-faults",
        kind: Kind::Scenario,
        template: include_str!("../workloads/fabric-faults.json"),
        why: "A 64-host fat-tree of cheap oq nodes with scripted and seeded random faults: the \
              fabric layer does most of the work and per-packet state drives peak memory.",
    },
    Workload {
        name: "suite-cold",
        kind: Kind::SuiteCold,
        template: SUITE_TEMPLATE,
        why: "The Figure 6/7 sweep as users run it (5 schemes x 2 patterns x 5 loads, empty cache): \
              spec parsing, the worker pool, four baselines beside core, report and cache stores.",
    },
    Workload {
        name: "suite-warm",
        kind: Kind::SuiteWarm,
        template: SUITE_TEMPLATE,
        why: "The same sweep replayed from the cache: nothing is simulated, so spec, cache loads \
              and report merging are the whole run and a gain that costs replay shows.",
    },
];

/// One end-to-end metric.
#[derive(Debug)]
pub(crate) struct EndToEnd {
    pub(crate) name: &'static str,
    pub(crate) unit: &'static str,
    pub(crate) lower_is_better: bool,
    /// Share of the base's median by which the metric may worsen before
    /// `compare` calls it a regression; 0 means any worsening is one.
    pub(crate) bound: f64,
    /// Which clock the metric reads: host time, simulated time, or neither.
    pub(crate) clock: &'static str,
    /// Listed in `BENCHMARK.json` and printed on the driver's result line.
    /// The driver wants metrics that are never 0 and that vary little
    /// between seeds and between hours: `fail_share` is 0 on every healthy
    /// run, the simulated metrics are functions of the seed, and `run_s`
    /// follows the box's weather.
    pub(crate) in_contract: bool,
}

pub(crate) const END_TO_END: [EndToEnd; 7] = [
    // Absolute wall clock drifts by up to 2x within an hour on a shared
    // box, so no bound the driver allows can hold it across two sets of
    // runs made at different times: `compare` judges it (and calls it
    // unresolved when the base's own reps are that noisy), the driver is
    // given `run_rel` instead.
    EndToEnd {
        name: "run_s",
        unit: "s",
        lower_is_better: true,
        bound: 0.10,
        clock: "host time",
        in_contract: false,
    },
    EndToEnd {
        name: "run_rel",
        unit: "ratio",
        lower_is_better: true,
        bound: 0.25,
        clock: "host time",
        in_contract: true,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        lower_is_better: true,
        bound: 0.25,
        clock: "host time",
        in_contract: true,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        lower_is_better: true,
        bound: 0.05,
        clock: "-",
        in_contract: true,
    },
    EndToEnd {
        name: "fail_share",
        unit: "ratio",
        lower_is_better: true,
        bound: 0.0,
        clock: "-",
        in_contract: false,
    },
    EndToEnd {
        name: "sim_mean_delay_slots",
        unit: "slots",
        lower_is_better: true,
        bound: 0.0,
        clock: "simulated time",
        in_contract: false,
    },
    EndToEnd {
        name: "sim_delivery_ratio",
        unit: "ratio",
        lower_is_better: false,
        bound: 0.0,
        clock: "simulated time",
        in_contract: false,
    },
];

/// One per-layer metric: name, unit, and whether lower is better.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PerLayer {
    pub(crate) name: String,
    pub(crate) unit: &'static str,
    pub(crate) lower_is_better: bool,
}

/// The three layers a driven world can be; each reports the same metrics
/// under its own prefix.
pub(crate) const WORLD_LAYERS: [&str; 3] = ["core", "baselines", "fabric"];

/// Layers whose time lies inside the traced wall; each also reports
/// `<layer>.busy_s` and `<layer>.busy_share`.
pub(crate) const BUSY_LAYERS: [&str; 10] = [
    "spec",
    "traffic",
    "registry",
    "core",
    "baselines",
    "fabric",
    "metrics",
    "report",
    "cache",
    "engine",
];

/// Every per-layer metric, in print order.
pub(crate) fn per_layer() -> Vec<PerLayer> {
    const LOWER: bool = true;
    const HIGHER: bool = false;
    let mut list: Vec<(String, &'static str, bool)> = Vec::new();
    let mut add = |layer: &str, metrics: &[(&str, &'static str, bool)]| {
        for (suffix, unit, lower) in metrics {
            list.push((format!("{layer}.{suffix}"), unit, *lower));
        }
        if BUSY_LAYERS.contains(&layer) {
            list.push((format!("{layer}.busy_s"), "s", LOWER));
            list.push((format!("{layer}.busy_share"), "ratio", LOWER));
        }
    };
    add(
        "spec",
        &[
            ("parse_us_per_file", "us", LOWER),
            ("load_cases_ms", "ms", LOWER),
            ("files", "count", LOWER),
        ],
    );
    add(
        "traffic",
        &[
            ("build_ms", "ms", LOWER),
            ("gen_ns_per_slot", "ns", LOWER),
            ("gen_ns_per_packet", "ns", LOWER),
            ("packets", "count", LOWER),
            ("empty_slot_share", "ratio", LOWER),
        ],
    );
    add("registry", &[("build_ms", "ms", LOWER)]);
    for layer in WORLD_LAYERS {
        let mut metrics = vec![
            ("inject_ns_per_packet", "ns", LOWER),
            ("advance_ns_per_slot", "ns", LOWER),
            ("drain_ns_per_slot", "ns", LOWER),
            ("advance_calls", "count", LOWER),
            ("slots_per_call", "slots", HIGHER),
            ("counters_ns_per_call", "ns", LOWER),
            ("resident_peak_packets", "count", LOWER),
        ];
        match layer {
            "baselines" => metrics.push(("padding_share", "ratio", LOWER)),
            "fabric" => metrics.extend([
                ("build_ms", "ms", LOWER),
                ("advance_ns_per_node_slot", "ns", LOWER),
                ("dropped_packets", "count", LOWER),
            ]),
            _ => {}
        }
        add(layer, &metrics);
    }
    add(
        "metrics",
        &[
            ("deliver_ns_per_packet", "ns", LOWER),
            ("sample_ns_per_window", "ns", LOWER),
            ("finish_ms", "ms", LOWER),
            ("deliveries", "count", LOWER),
        ],
    );
    add(
        "report",
        &[
            ("csv_row_us", "us", LOWER),
            ("metrics_json_ms", "ms", LOWER),
            ("metrics_json_bytes", "B", LOWER),
            ("merge_ms", "ms", LOWER),
            ("write_ms", "ms", LOWER),
        ],
    );
    add(
        "cache",
        &[
            ("hash_us_per_case", "us", LOWER),
            ("load_us_per_hit", "us", LOWER),
            ("store_us_per_entry", "us", LOWER),
            ("hits", "count", HIGHER),
            ("misses", "count", LOWER),
            ("hit_share", "ratio", HIGHER),
            ("entry_bytes", "B", LOWER),
        ],
    );
    add(
        "parallel",
        &[
            ("wall_s", "s", LOWER),
            ("serial_sum_s", "s", LOWER),
            ("speedup", "ratio", HIGHER),
            ("efficiency", "ratio", HIGHER),
        ],
    );
    add(
        "engine",
        &[
            ("run_s", "s", LOWER),
            ("ns_per_slot", "ns", LOWER),
            ("ns_per_packet", "ns", LOWER),
            ("self_ns_per_packet", "ns", LOWER),
        ],
    );
    add(
        "alloc",
        &[
            ("setup_count", "count", LOWER),
            ("steady_count", "count", LOWER),
            ("peak_live_mb", "MB", LOWER),
        ],
    );
    add(
        "trace",
        &[
            ("overhead_share", "ratio", LOWER),
            ("spans", "count", LOWER),
        ],
    );
    list.into_iter()
        .map(|(name, unit, lower_is_better)| PerLayer {
            name,
            unit,
            lower_is_better,
        })
        .collect()
}

/// The inputs one workload run hands the program: spec files written under
/// a fresh directory, every seed derived from `--seed`.
#[derive(Debug)]
pub(crate) struct Inputs {
    /// The spec file (scenario workloads) or the spec directory (suites).
    pub(crate) path: PathBuf,
    /// Case names in output order paired with the scheme each runs.
    pub(crate) cases: Vec<(String, String)>,
}

impl Workload {
    /// Look a workload up by name.
    pub(crate) fn named(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Write this workload's inputs under `dir` (which must exist).  `seed`
    /// becomes every spec's seed (plus the case index in a suite, so cases
    /// do not share arrival streams) and the random-fault generator's seed.
    pub(crate) fn generate(&self, seed: u64, dir: &Path) -> Inputs {
        let mut base = ScenarioSpec::from_json(self.template)
            .expect("the compiled-in workload template is a valid spec");
        base.seed = seed;
        if let Some(random) = base.faults.as_mut().and_then(|f| f.random.as_mut()) {
            random.seed = seed;
        }
        let write = |path: &Path, spec: &ScenarioSpec| {
            std::fs::write(path, spec.to_json() + "\n")
                .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        };
        if self.kind == Kind::Scenario {
            let path = dir.join(format!("{}.json", self.name));
            write(&path, &base);
            return Inputs {
                path,
                cases: vec![(self.name.to_string(), base.scheme)],
            };
        }
        let specs = dir.join("specs");
        std::fs::create_dir_all(&specs)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", specs.display()));
        let mut cases = Vec::new();
        for scheme in PAPER_SCHEMES {
            for pattern in ["uniform", "diagonal"] {
                for load in [0.1, 0.3, 0.5, 0.7, 0.9] {
                    let index = cases.len();
                    let mut spec = base.clone();
                    spec.scheme = scheme.to_string();
                    spec.traffic = match pattern {
                        "uniform" => TrafficSpec::Uniform { load },
                        _ => TrafficSpec::Diagonal { load },
                    };
                    spec.seed = seed.wrapping_add(index as u64);
                    // Zero-padded index first: `suite` orders cases by path.
                    let stem = format!("{index:02}_{scheme}_{pattern}_{:02.0}", load * 100.0);
                    write(&specs.join(format!("{stem}.json")), &spec);
                    cases.push((stem, scheme.to_string()));
                }
            }
        }
        Inputs { path: specs, cases }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn every_name_is_well_formed_and_used_once() {
        let mut names: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        names.extend(END_TO_END.iter().map(|m| m.name.to_string()));
        names.extend(per_layer().into_iter().map(|m| m.name));
        for name in &names {
            assert!(well_formed(name), "bad name {name:?}");
        }
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(per_layer().len() <= 128);
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_what_the_harness_prints() {
        let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let list = |key: &str| doc.get(key).and_then(Json::as_array).expect(key).to_vec();
        let text = |v: &Json, key: &str| v.get(key).and_then(Json::as_str).expect(key).to_string();

        let workloads: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (text(w, "name"), text(w, "why")))
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, ours);

        let better = |lower: bool| if lower { "lower" } else { "higher" }.to_string();
        let end_to_end: Vec<(String, String, String, f64)> = list("end_to_end")
            .iter()
            .map(|m| {
                let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
                (text(m, "name"), text(m, "unit"), text(m, "better"), bound)
            })
            .collect();
        let ours: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .filter(|m| m.in_contract)
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    better(m.lower_is_better),
                    m.bound,
                )
            })
            .collect();
        assert_eq!(end_to_end, ours);
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));

        let per_layer_json: Vec<(String, String, String)> = list("per_layer")
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
            .collect();
        let ours: Vec<(String, String, String)> = per_layer()
            .into_iter()
            .map(|m| (m.name, m.unit.to_string(), better(m.lower_is_better)))
            .collect();
        assert_eq!(per_layer_json, ours);
    }

    #[test]
    fn inputs_follow_the_seed() {
        let dir =
            std::env::temp_dir().join(format!("sprinklers-benchmark-gen-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let faults = Workload::named("fabric-faults").unwrap();
        let inputs = faults.generate(77, &dir);
        let spec =
            ScenarioSpec::from_json(&std::fs::read_to_string(&inputs.path).unwrap()).unwrap();
        assert_eq!(spec.seed, 77);
        assert_eq!(spec.faults.unwrap().random.unwrap().seed, 77);

        let suite = Workload::named("suite-cold").unwrap();
        let inputs = suite.generate(100, &dir);
        assert_eq!(inputs.cases.len(), 50);
        let cases = sprinklers_sim::spec::SuiteSpec::new(&inputs.path)
            .load_cases()
            .unwrap();
        let loaded: Vec<(String, String)> = cases
            .iter()
            .map(|c| (c.name.clone(), c.spec.scheme.clone()))
            .collect();
        assert_eq!(loaded, inputs.cases, "suite orders cases as generated");
        assert!(cases
            .iter()
            .enumerate()
            .all(|(i, c)| c.spec.seed == 100 + i as u64));
        std::fs::remove_dir_all(&dir).ok();
    }
}
