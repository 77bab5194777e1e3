//! Output checks.  An *operation* is one case's output in one rep; these
//! checks decide which operations failed (`fail_share`) and extract the
//! simulated-time metrics from the same bytes.

use crate::catalog::Kind;
use crate::json::Json;
use sprinklers_sim::cache::fnv1a_128;
use sprinklers_sim::registry::is_reordering_free;
use sprinklers_sim::report::{merged_csv_header, SimReport};
use std::path::Path;

/// The CSV and the `--metrics full` sidecar one program run left on disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Outputs {
    pub(crate) csv: String,
    pub(crate) sidecar: String,
}

impl Outputs {
    /// Read both files; a missing or non-UTF-8 file reads as empty, which
    /// [`check`] then reports as malformed.
    pub(crate) fn read(csv: &Path, sidecar: &Path) -> Outputs {
        Outputs {
            csv: std::fs::read_to_string(csv).unwrap_or_default(),
            sidecar: std::fs::read_to_string(sidecar).unwrap_or_default(),
        }
    }

    /// 128-bit FNV-1a over CSV then sidecar bytes — the workload's
    /// `sim_digest`, equal between two commits iff every simulated
    /// statistic is.
    pub(crate) fn digest(&self) -> u128 {
        let mut bytes = Vec::with_capacity(self.csv.len() + self.sidecar.len());
        bytes.extend_from_slice(self.csv.as_bytes());
        bytes.extend_from_slice(self.sidecar.as_bytes());
        fnv1a_128(&bytes)
    }
}

/// What [`check`] found in one run's outputs.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Verdict {
    /// One reason per failed case (or one per case, all alike, when the
    /// files as a whole are unusable).
    pub(crate) failures: Vec<String>,
    /// Mean over cases of the CSV `mean_delay` column (simulated slots).
    pub(crate) mean_delay_slots: f64,
    /// Sum of `delivered` over sum of `offered` across the CSV rows.
    pub(crate) delivery_ratio: f64,
}

impl Verdict {
    /// Every case failed for one reason.
    pub(crate) fn all_failed(cases: &[(String, String)], reason: &str) -> Verdict {
        Verdict {
            failures: cases
                .iter()
                .map(|(name, _)| format!("{name}: {reason}"))
                .collect(),
            mean_delay_slots: f64::NAN,
            delivery_ratio: f64::NAN,
        }
    }
}

/// Check one run's outputs against the cases (`(name, scheme)` in output
/// order) that produced them:
///
/// * CSV and sidecar are present and well-formed, one row / entry per case;
/// * `offered = delivered + dropped + residual` in every sidecar entry, and
///   the entry agrees with its CSV row;
/// * `voq_reorders = flow_reorders = 0` for every reordering-free scheme;
/// * no case delivered nothing or less than half of what it was offered — a
///   run that short measures the fill phase, not the switch.
pub(crate) fn check(kind: Kind, outputs: &Outputs, cases: &[(String, String)]) -> Verdict {
    match check_cases(kind, outputs, cases) {
        Ok(verdict) => verdict,
        Err(reason) => Verdict::all_failed(cases, &reason),
    }
}

fn check_cases(
    kind: Kind,
    outputs: &Outputs,
    cases: &[(String, String)],
) -> Result<Verdict, String> {
    let suite = kind != Kind::Scenario;
    let header = if suite {
        merged_csv_header()
    } else {
        SimReport::csv_header().to_string()
    };
    let mut lines = outputs.csv.lines();
    if lines.next() != Some(header.as_str()) {
        return Err("CSV missing or its header is not the frozen one".to_string());
    }
    let columns: Vec<&str> = header.split(',').collect();
    let column = |name: &str| {
        columns
            .iter()
            .position(|c| *c == name)
            .unwrap_or_else(|| panic!("the frozen CSV header has a {name} column"))
    };
    let rows: Vec<Vec<&str>> = lines.map(|l| l.split(',').collect()).collect();
    if rows.len() != cases.len() || rows.iter().any(|r| r.len() != columns.len()) {
        return Err(format!(
            "CSV has {} row(s) for {} case(s), or a row of the wrong width",
            rows.len(),
            cases.len()
        ));
    }

    let sidecar = Json::parse(&outputs.sidecar).map_err(|e| format!("sidecar: {e}"))?;
    let entries: Vec<&Json> = if suite {
        let list = sidecar
            .get("cases")
            .and_then(Json::as_array)
            .ok_or("sidecar has no cases array")?;
        for (entry, (name, _)) in list.iter().zip(cases) {
            if entry.get("case").and_then(Json::as_str) != Some(name) {
                return Err(format!("sidecar entry out of order at {name}"));
            }
        }
        list.iter().filter_map(|e| e.get("metrics")).collect()
    } else {
        vec![&sidecar]
    };
    if entries.len() != cases.len() {
        return Err(format!(
            "sidecar has {} entr(ies) for {} case(s)",
            entries.len(),
            cases.len()
        ));
    }

    let mut failures = Vec::new();
    let (mut delay_sum, mut offered_sum, mut delivered_sum) = (0.0, 0u64, 0u64);
    for ((row, entry), (name, scheme)) in rows.iter().zip(&entries).zip(cases) {
        let cell = |col: &str| row[column(col)];
        let count = |col: &str| cell(col).parse::<u64>().ok();
        let field = |key: &str| entry.get(key).and_then(Json::as_u64);
        let (Some(offered), Some(delivered), Ok(mean_delay)) = (
            count("offered"),
            count("delivered"),
            cell("mean_delay").parse::<f64>(),
        ) else {
            failures.push(format!("{name}: CSV row does not parse"));
            continue;
        };
        delay_sum += mean_delay;
        offered_sum += offered;
        delivered_sum += delivered;
        let mut fail = |reason: String| failures.push(format!("{name}: {reason}"));
        if suite && cell("case") != name.as_str() {
            fail(format!("CSV row is labelled {}", cell("case")));
        } else if entry.get("schema").and_then(Json::as_str) != Some("sprinklers-metrics/1") {
            fail("sidecar entry has no sprinklers-metrics/1 schema tag".to_string());
        } else if (field("offered"), field("delivered")) != (Some(offered), Some(delivered)) {
            fail("sidecar and CSV disagree on offered/delivered".to_string());
        } else if field("dropped")
            .zip(field("residual"))
            .is_none_or(|(dropped, residual)| offered != delivered + dropped + residual)
        {
            fail("offered != delivered + dropped + residual".to_string());
        } else if is_reordering_free(scheme)
            && (count("voq_reorders"), count("flow_reorders")) != (Some(0), Some(0))
        {
            fail(format!("{scheme} is reordering-free but the run reordered"));
        } else if delivered == 0 || (delivered as f64) < 0.5 * offered as f64 {
            fail(format!(
                "delivered {delivered} of {offered}: the run never left the fill phase"
            ));
        }
    }
    Ok(Verdict {
        failures,
        mean_delay_slots: delay_sum / cases.len() as f64,
        delivery_ratio: delivered_sum as f64 / offered_sum as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn good() -> (Outputs, Vec<(String, String)>) {
        let csv = format!(
            "{}\nsprinklers,uniform,8,100,200,190,5.000,4,6,6,6,0,0,1.00\n",
            SimReport::csv_header()
        );
        let sidecar = r#"{"schema":"sprinklers-metrics/1","offered":200,"delivered":190,"padding":0,"residual":7,"dropped":3}"#;
        (
            Outputs {
                csv,
                sidecar: format!("{sidecar}\n"),
            },
            vec![("case".to_string(), "sprinklers".to_string())],
        )
    }

    #[test]
    fn a_conserving_ordered_steady_run_passes() {
        let (outputs, cases) = good();
        let verdict = check(Kind::Scenario, &outputs, &cases);
        assert_eq!(verdict.failures, Vec::<String>::new());
        assert_eq!(verdict.mean_delay_slots, 5.0);
        assert_eq!(verdict.delivery_ratio, 0.95);
    }

    #[test]
    fn each_broken_property_fails_the_case() {
        let (outputs, cases) = good();
        let broken = |from: &str, to: &str| Outputs {
            csv: outputs.csv.replace(from, to),
            sidecar: outputs.sidecar.replace(from, to),
        };
        for (what, outputs) in [
            ("conservation", broken("\"residual\":7", "\"residual\":8")),
            ("reordering", broken(",0,0,1.00", ",2,0,1.00")),
            ("fill phase", broken("190", "90")),
            ("nothing delivered", broken("190", "0")),
            (
                "csv/sidecar mismatch",
                broken("\"offered\":200", "\"offered\":201"),
            ),
            (
                "truncated sidecar",
                broken("\"dropped\":3}", "\"dropped\":3"),
            ),
            (
                "missing csv",
                Outputs {
                    csv: String::new(),
                    ..outputs.clone()
                },
            ),
            ("extra row", broken("1.00\n", "1.00\nx\n")),
        ] {
            let verdict = check(Kind::Scenario, &outputs, &cases);
            assert_eq!(verdict.failures.len(), 1, "{what}: {:?}", verdict.failures);
        }
        // baseline-lb may reorder; the same row passes under its name.
        let reordered = broken(",0,0,1.00", ",2,0,1.00");
        let lb = vec![("case".to_string(), "baseline-lb".to_string())];
        assert!(check(Kind::Scenario, &reordered, &lb).failures.is_empty());
    }

    #[test]
    fn digest_covers_both_files() {
        let (outputs, _) = good();
        let mut other = outputs.clone();
        other.sidecar.push(' ');
        assert_ne!(outputs.digest(), other.digest());
        other = outputs.clone();
        other.csv.push(' ');
        assert_ne!(outputs.digest(), other.digest());
    }
}
