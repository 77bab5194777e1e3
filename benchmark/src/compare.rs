//! `benchmark compare A.json B.json`: hold run B against base A, one row
//! per (end-to-end metric × workload), by the bounds the benchmark fixes.

use crate::catalog::{EndToEnd, END_TO_END};
use crate::json::Json;
use crate::stats::Summary;
use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Status {
    /// B's median is no worse than A's by more than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// A's own reps spread wider than the bound, so a difference that small
    /// cannot be told from noise — and B does not beat A on every rep.
    Unresolved,
}

impl Status {
    fn label(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Regressed => "regressed",
            Status::Unresolved => "unresolved",
        }
    }
}

/// Judge one metric of B against base A.
pub(crate) fn judge(metric: &EndToEnd, a: &Summary, b: &Summary) -> Status {
    let lower = metric.lower_is_better;
    // How much worse B's median is, in the metric's own unit.
    let worse = if lower {
        b.median - a.median
    } else {
        a.median - b.median
    };
    if metric.bound == 0.0 {
        // Exact metrics (simulated statistics, fail_share): any worsening —
        // or a value that stopped being a number — is a regression.
        return if worse > 0.0 || b.median.is_nan() {
            Status::Regressed
        } else {
            Status::Ok
        };
    }
    // Not `worse <= bound * median`: a NaN must not pass.
    let beyond_bound = worse / a.median > metric.bound || b.median.is_nan();
    if a.spread() > metric.bound {
        // Too noisy to call a difference of the bound's size — unless the
        // two sets of reps do not even overlap.
        let b_always_better = if lower { b.max < a.min } else { b.min > a.max };
        let a_always_better = if lower { a.max < b.min } else { a.min > b.max };
        return match (b_always_better, a_always_better && beyond_bound) {
            (true, _) => Status::Ok,
            (_, true) => Status::Regressed,
            _ => Status::Unresolved,
        };
    }
    if beyond_bound {
        Status::Regressed
    } else {
        Status::Ok
    }
}

fn summary_of(workload: &Json, metric: &str) -> Option<Summary> {
    let samples = workload
        .get("end_to_end")?
        .get("metrics")?
        .get(metric)?
        .get("samples")?
        .as_array()?;
    // A withheld value is written as null; read it back as NaN.
    Some(Summary::of(
        samples
            .iter()
            .map(|v| v.as_f64().unwrap_or(f64::NAN))
            .collect(),
    ))
}

/// Compare two result documents.  Returns the printed table and whether
/// anything regressed (or B lacks a workload or metric A has).
pub(crate) fn compare<'a>(a: &'a Json, b: &'a Json) -> Result<(String, bool), String> {
    let workloads = |doc: &'a Json| {
        doc.get("workloads")
            .and_then(Json::as_array)
            .ok_or("not a benchmark result file: no workloads array")
    };
    let name = |w: &Json| {
        w.get("name")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string()
    };
    let b_workloads = workloads(b)?;
    let mut out = format!(
        "ratio = B / A (base A); bound = share of A's median B may be worse by\n\
         {:<17} {:<21} {:<6} {:>14} {:>14} {:>8} {:>6}  verdict\n",
        "workload", "metric", "unit", "A", "B", "ratio", "bound"
    );
    let mut bad = false;
    for wa in workloads(a)? {
        let workload = name(wa);
        if wa.get("end_to_end").is_none_or(|e| *e == Json::Null) {
            continue;
        }
        let Some(wb) = b_workloads.iter().find(|w| name(w) == workload) else {
            let _ = writeln!(out, "{workload:<17} missing from B");
            bad = true;
            continue;
        };
        for metric in &END_TO_END {
            let (Some(sa), Some(sb)) = (summary_of(wa, metric.name), summary_of(wb, metric.name))
            else {
                let _ = writeln!(
                    out,
                    "{workload:<17} {:<21} missing from A or B",
                    metric.name
                );
                bad = true;
                continue;
            };
            let status = judge(metric, &sa, &sb);
            bad |= status == Status::Regressed;
            let _ = writeln!(
                out,
                "{workload:<17} {:<21} {:<6} {:>14.6} {:>14.6} {:>8.4} {:>6}  {}",
                metric.name,
                metric.unit,
                sa.median,
                sb.median,
                sb.median / sa.median,
                metric.bound,
                status.label(),
            );
        }
        let digest = |w: &Json| {
            w.get("end_to_end")
                .and_then(|e| e.get("sim_digest"))
                .and_then(Json::as_str)
                .map(str::to_string)
        };
        let same = digest(wa).is_some() && digest(wa) == digest(wb);
        let _ = writeln!(
            out,
            "{workload:<17} sim_digest            {}",
            if same {
                "identical"
            } else {
                "DIFFERS (simulated output changed)"
            }
        );
    }
    Ok((out, bad))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    fn s(values: &[f64]) -> Summary {
        Summary::of(values.to_vec())
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        // A timing with a 10 % bound, whatever the catalogue's bounds are.
        let run_s = &EndToEnd {
            name: "t",
            unit: "s",
            lower_is_better: true,
            bound: 0.10,
            clock: "host time",
            in_contract: true,
        };
        let tight = s(&[1.00, 1.01, 1.02, 1.00, 1.01]);
        assert_eq!(
            judge(run_s, &tight, &s(&[1.05, 1.06, 1.05, 1.07, 1.06])),
            Status::Ok
        );
        assert_eq!(
            judge(run_s, &tight, &s(&[0.50, 0.51, 0.50, 0.52, 0.51])),
            Status::Ok
        );
        assert_eq!(
            judge(run_s, &tight, &s(&[1.20, 1.21, 1.22, 1.20, 1.21])),
            Status::Regressed
        );
        // A's own quartiles are 40 % apart: a 15 % loss cannot be resolved…
        let noisy = s(&[0.8, 0.9, 1.0, 1.2, 1.3]);
        assert!(noisy.spread() > run_s.bound);
        assert_eq!(
            judge(run_s, &noisy, &s(&[1.15, 1.15, 1.15, 1.15, 1.15])),
            Status::Unresolved
        );
        // …nor can an apparent gain that overlaps A's reps…
        assert_eq!(
            judge(run_s, &noisy, &s(&[0.85, 0.85, 0.85, 0.85, 0.85])),
            Status::Unresolved
        );
        // …unless every B rep beats every A rep (or loses to every one).
        assert_eq!(
            judge(run_s, &noisy, &s(&[0.7, 0.75, 0.7, 0.72, 0.71])),
            Status::Ok
        );
        assert_eq!(
            judge(run_s, &noisy, &s(&[1.7, 1.75, 1.7, 1.72, 1.71])),
            Status::Regressed
        );
        assert_eq!(judge(run_s, &tight, &s(&[f64::NAN])), Status::Regressed);
    }

    #[test]
    fn exact_metrics_regress_on_any_worsening_in_their_own_direction() {
        let delay = metric("sim_mean_delay_slots"); // lower is better
        assert_eq!(judge(delay, &s(&[100.0]), &s(&[100.0])), Status::Ok);
        assert_eq!(judge(delay, &s(&[100.0]), &s(&[99.0])), Status::Ok);
        assert_eq!(
            judge(delay, &s(&[100.0]), &s(&[100.001])),
            Status::Regressed
        );
        let delivery = metric("sim_delivery_ratio"); // higher is better
        assert_eq!(judge(delivery, &s(&[0.9]), &s(&[0.95])), Status::Ok);
        assert_eq!(judge(delivery, &s(&[0.9]), &s(&[0.89])), Status::Regressed);
        let fail = metric("fail_share");
        assert_eq!(judge(fail, &s(&[0.0]), &s(&[0.0])), Status::Ok);
        assert_eq!(judge(fail, &s(&[0.0]), &s(&[0.02])), Status::Regressed);
    }

    fn doc(run_s: &str, fail_share: &str, digest: &str) -> Json {
        let exact = |v: &str| format!("{{\"samples\":[{v}]}}");
        Json::parse(&format!(
            "{{\"workloads\":[{{\"name\":\"w\",\"end_to_end\":{{\"sim_digest\":\"{digest}\",\"metrics\":{{\
             \"run_s\":{{\"samples\":[{run_s}]}},\"run_rel\":{},\"setup_s\":{},\"peak_rss_mb\":{},\
             \"fail_share\":{},\"sim_mean_delay_slots\":{},\"sim_delivery_ratio\":{}}}}}}}]}}",
            exact("5"),
            exact("0.01"),
            exact("20"),
            exact(fail_share),
            exact("7.5"),
            exact("0.98"),
        ))
        .unwrap()
    }

    #[test]
    fn compare_reads_result_files_and_flags_regressions() {
        let base = doc("1.0,1.01,1.02", "0", "aa");
        let (table, bad) = compare(&base, &doc("1.03,1.02,1.04", "0", "aa")).unwrap();
        assert!(!bad, "{table}");
        assert!(table.contains("identical") && !table.contains("regressed"));
        assert_eq!(table.matches(" ok").count(), END_TO_END.len());

        let (table, bad) = compare(&base, &doc("1.5,1.6,1.55", "0", "bb")).unwrap();
        assert!(bad && table.contains("regressed") && table.contains("DIFFERS"));

        let (_, bad) = compare(&base, &doc("1.0,1.01,1.02", "0.1", "aa")).unwrap();
        assert!(bad, "a rise in fail_share fails the comparison");

        let empty = Json::parse("{\"workloads\":[]}").unwrap();
        let (table, bad) = compare(&base, &empty).unwrap();
        assert!(bad && table.contains("missing from B"));
        assert!(compare(&Json::Null, &base).is_err());
    }
}
