//! Simulation reports.
//!
//! [`SimReport::csv_row`] is the frozen summary schema every golden fixture
//! pins byte for byte.  The extended observability surface — per-output
//! delivered counts, Jain fairness, the full delay histogram and the
//! windowed time series — ships as an *additive sidecar*
//! ([`SimReport::metrics_json`] / [`metrics_sidecar_json`]) so richer
//! metrics never move a byte of the CSV.

use crate::json::{self, ObjectWriter};
use crate::metrics::delay::DelayStats;
use crate::metrics::fairness::jain_index;
use crate::metrics::occupancy::OccupancyStats;
use crate::metrics::reorder::ReorderStats;
use crate::metrics::window::WindowSeries;
use crate::spec::FaultKind;

/// Per-kind breakdown of fault-injected packet losses plus the per-event
/// reconvergence record.  Produced by faulted fabric runs only; `None` on
/// the report means the run was failure-free (and therefore zero-drop).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSummary {
    /// Packets flushed off a link (ingress + wire) when it went down.
    pub dropped_link_failure: u64,
    /// Packets flushed out of a switch node when it went down.
    pub dropped_node_failure: u64,
    /// Packets that arrived at a link whose state was already down.
    pub dropped_dead_link: u64,
    /// Packets that arrived at (or were injected at) a node whose state was
    /// already down.
    pub dropped_dead_node: u64,
    /// Every applied fault event, in application order.
    pub events: Vec<FaultEventReport>,
}

impl FaultSummary {
    /// Total packets lost to fault injection, across every cause.
    pub fn total_dropped(&self) -> u64 {
        self.dropped_link_failure
            + self.dropped_node_failure
            + self.dropped_dead_link
            + self.dropped_dead_node
    }
}

/// One applied fault event and how the fabric reconverged after it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEventReport {
    /// Slot the event was applied at.
    pub slot: u64,
    /// What happened.
    pub kind: FaultKind,
    /// Link or node index (per the kind's entity class).
    pub index: usize,
    /// Packets dropped at the moment the event applied (in-flight losses).
    pub dropped: u64,
    /// Distinct host pairs that lost at least one packet to this event.
    pub affected_pairs: usize,
    /// Slot at which the last affected pair resumed delivery — the
    /// reconvergence metric is `reconverged_slot - slot`.  `None` while any
    /// affected pair has not delivered again (including "never", when the
    /// run ends first).  Up events and events that drop nothing reconverge
    /// immediately (`reconverged_slot == slot`).
    pub reconverged_slot: Option<u64>,
}

/// The result of one simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Scheduling scheme name (from [`sprinklers_core::switch::Switch::name`]).
    pub switch_name: String,
    /// Traffic generator label.
    pub traffic_label: String,
    /// Switch size.
    pub n: usize,
    /// Number of arrival slots simulated (not counting the drain phase).
    pub slots: u64,
    /// Warm-up slots excluded from the delay statistics.
    pub warmup_slots: u64,
    /// Total packets offered to the switch.
    pub offered_packets: u64,
    /// Total data packets delivered to outputs (excludes padding).
    pub delivered_packets: u64,
    /// Padding (fake) packets delivered, for padding-based schemes.
    pub padding_packets: u64,
    /// Packets still inside the switch when the run ended (offered minus
    /// delivered minus dropped).
    pub residual_packets: u64,
    /// Packets lost to fault injection (always zero without a fault spec).
    pub dropped_packets: u64,
    /// Delay statistics over delivered packets that arrived after warm-up.
    pub delay: DelayStats,
    /// Reordering statistics over every delivered data packet.
    pub reordering: ReorderStats,
    /// Queue occupancy statistics (sampled once per frame).
    pub occupancy: OccupancyStats,
    /// Data packets delivered per output port (index = output).
    pub per_output_delivered: Vec<u64>,
    /// Windowed activity series, sampled at the occupancy boundaries.
    pub windows: WindowSeries,
    /// Fault-injection summary (loss breakdown and per-event reconvergence);
    /// `None` for failure-free runs.
    pub faults: Option<FaultSummary>,
}

impl SimReport {
    /// Fraction of offered packets that were delivered by the end of the run
    /// (including the drain phase).
    pub fn delivery_ratio(&self) -> f64 {
        if self.offered_packets == 0 {
            return 1.0;
        }
        self.delivered_packets as f64 / self.offered_packets as f64
    }

    /// Normalized throughput: delivered packets per output per slot during the
    /// arrival phase.
    pub fn throughput(&self) -> f64 {
        if self.slots == 0 {
            return 0.0;
        }
        self.delivered_packets as f64 / (self.slots as f64 * self.n as f64)
    }

    /// Header row for the CSV emitted by the experiment binaries.
    pub fn csv_header() -> &'static str {
        "switch,traffic,n,slots,offered,delivered,mean_delay,p50_delay,p95_delay,p99_delay,\
         max_delay,voq_reorders,flow_reorders,mean_intermediate_occupancy"
    }

    /// One CSV row summarizing this report.
    pub fn csv_row(&self) -> String {
        format!(
            "{},{},{},{},{},{},{:.3},{},{},{},{},{},{},{:.2}",
            self.switch_name,
            self.traffic_label,
            self.n,
            self.slots,
            self.offered_packets,
            self.delivered_packets,
            self.delay.mean(),
            self.delay.percentile(0.50),
            self.delay.percentile(0.95),
            self.delay.percentile(0.99),
            self.delay.max(),
            self.reordering.voq_reorder_events,
            self.reordering.flow_reorder_events,
            self.occupancy.mean_intermediate,
        )
    }

    /// Jain's fairness index over the per-output delivered-packet counts:
    /// 1.0 when every output received an equal share, `1/n` in the limit of
    /// a single hot output.
    pub fn jain_fairness(&self) -> f64 {
        jain_index(&self.per_output_delivered)
    }

    /// Per-output utilization: each output's delivered data packets per
    /// arrival-phase slot (an output can forward at most one packet per
    /// slot, so values lie in `[0, 1]` up to drain-phase spillover).
    pub fn per_output_utilization(&self) -> Vec<f64> {
        let slots = self.slots;
        self.per_output_delivered
            .iter()
            .map(|&d| {
                if slots == 0 {
                    0.0
                } else {
                    d as f64 / slots as f64
                }
            })
            .collect()
    }

    /// The full extended-metrics sidecar for this run as one line of JSON:
    /// identity and conservation counters, exact delay distribution
    /// (non-empty histogram buckets), reordering, occupancy, per-output
    /// delivered/utilization, Jain fairness and the windowed series.
    ///
    /// Deliberately *additive*: nothing here feeds [`Self::csv_row`], so the
    /// sidecar can grow without touching any golden CSV.  The output is
    /// deterministic (same report, same bytes) because every value derives
    /// from the report alone.
    pub fn metrics_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        let mut m = ObjectWriter::compact(&mut out);
        m.str("schema", "sprinklers-metrics/1")
            .str("switch", &self.switch_name)
            .str("traffic", &self.traffic_label)
            .uint("n", self.n)
            .uint("slots", self.slots)
            .uint("warmup_slots", self.warmup_slots)
            .uint("offered", self.offered_packets)
            .uint("delivered", self.delivered_packets)
            .uint("padding", self.padding_packets)
            .uint("residual", self.residual_packets)
            .uint("dropped", self.dropped_packets)
            .f64("throughput", self.throughput())
            .f64("delivery_ratio", self.delivery_ratio());
        let delay = &self.delay;
        m.object("delay", |d| {
            d.uint("count", delay.count())
                .f64("mean", delay.mean())
                .uint("p50", delay.percentile(0.50))
                .uint("p95", delay.percentile(0.95))
                .uint("p99", delay.percentile(0.99))
                .uint("max", delay.max())
                .array("histogram", |h| {
                    for (slots, count) in delay.nonzero_buckets() {
                        h.array(|pair| {
                            pair.uint(slots).uint(count);
                        });
                    }
                });
        });
        let reordering = &self.reordering;
        m.object("reordering", |r| {
            r.uint("voq_reorder_events", reordering.voq_reorder_events)
                .uint("flow_reorder_events", reordering.flow_reorder_events)
                .uint("max_voq_displacement", reordering.max_voq_displacement)
                .uint("reordered_voqs", reordering.reordered_voqs);
        });
        let occupancy = &self.occupancy;
        m.object("occupancy", |o| {
            o.uint("samples", occupancy.samples)
                .f64("mean_input", occupancy.mean_input)
                .f64("mean_intermediate", occupancy.mean_intermediate)
                .f64("mean_output", occupancy.mean_output)
                .uint("peak_input", occupancy.peak_input)
                .uint("peak_intermediate", occupancy.peak_intermediate)
                .uint("peak_output", occupancy.peak_output);
        });
        m.array("per_output_delivered", |a| {
            for &delivered in &self.per_output_delivered {
                a.uint(delivered);
            }
        });
        m.array("per_output_utilization", |a| {
            for utilization in self.per_output_utilization() {
                a.f64(utilization);
            }
        });
        m.f64("jain_fairness", self.jain_fairness());
        m.object("windows", |w| {
            w.uint("stride_slots", self.windows.stride());
            w.array("columns", |c| {
                for column in [
                    "end_slot",
                    "offered",
                    "delivered",
                    "padding",
                    "dropped",
                    "queued_at_inputs",
                    "queued_at_intermediates",
                    "queued_at_outputs",
                ] {
                    c.str(column);
                }
            });
            w.array("samples", |a| {
                for s in self.windows.samples() {
                    a.array(|row| {
                        row.uint(s.end_slot)
                            .uint(s.offered)
                            .uint(s.delivered)
                            .uint(s.padding)
                            .uint(s.dropped)
                            .uint(s.queued_at_inputs)
                            .uint(s.queued_at_intermediates)
                            .uint(s.queued_at_outputs);
                    });
                }
            });
        });
        if let Some(faults) = &self.faults {
            m.object("faults", |f| {
                f.object("dropped_by_cause", |c| {
                    c.uint("link_failure", faults.dropped_link_failure)
                        .uint("node_failure", faults.dropped_node_failure)
                        .uint("dead_link", faults.dropped_dead_link)
                        .uint("dead_node", faults.dropped_dead_node);
                });
                f.array("events", |events| {
                    for e in &faults.events {
                        events.object(|o| {
                            o.uint("slot", e.slot)
                                .str("kind", e.kind.name())
                                .uint("index", e.index)
                                .uint("dropped", e.dropped)
                                .uint("affected_pairs", e.affected_pairs)
                                .opt_uint(
                                    "reconvergence_slots",
                                    e.reconverged_slot.map(|s| s - e.slot),
                                );
                        });
                    }
                });
            });
        }
        m.close();
        out
    }
}

/// Header of a merged multi-run CSV: a leading `case` column (the suite
/// case label) followed by the standard [`SimReport::csv_header`] columns.
pub fn merged_csv_header() -> String {
    format!("case,{}", SimReport::csv_header())
}

/// Merge labeled reports into one CSV document — a single header plus one
/// row per report, in input order.  This is what the `suite` binary emits;
/// the determinism test asserts the output is byte-identical across worker
/// counts, so keep the formatting free of anything run-dependent.
pub fn merge_csv<'a>(rows: impl IntoIterator<Item = (&'a str, &'a SimReport)>) -> String {
    merge_csv_rows(
        rows.into_iter()
            .map(|(case, report)| (case, report.csv_row())),
    )
}

/// [`merge_csv`] over already-rendered CSV rows.  This is the layer the
/// experiment cache reuses: a cached case contributes its stored
/// [`SimReport::csv_row`] string and a recomputed case a fresh one, through
/// the same formatting path — which is what makes cached and recomputed
/// suite output byte-identical.
pub fn merge_csv_rows<'a>(rows: impl IntoIterator<Item = (&'a str, String)>) -> String {
    let mut out = merged_csv_header();
    out.push('\n');
    for (case, row) in rows {
        debug_assert!(
            !case.contains(',') && !case.contains('\n') && !case.contains('\r'),
            "case names are validated at load time (SuiteSpec::load_cases)"
        );
        out.push_str(case);
        out.push(',');
        out.push_str(&row);
        out.push('\n');
    }
    out
}

/// Compose the suite-level `--metrics full` sidecar: one JSON document
/// listing each case's [`SimReport::metrics_json`] line, in merge order.
pub fn metrics_sidecar_json<'a>(cases: impl IntoIterator<Item = (&'a str, &'a str)>) -> String {
    let mut out = String::from("{\"schema\":\"sprinklers-suite-metrics/1\",\"cases\":[");
    for (i, (case, metrics)) in cases.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n{\"case\":");
        json::write_str(&mut out, case);
        out.push_str(",\"metrics\":");
        out.push_str(metrics);
        out.push('}');
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy() -> SimReport {
        let mut delay = DelayStats::new(100);
        delay.record(4);
        delay.record(6);
        SimReport {
            switch_name: "sprinklers".into(),
            traffic_label: "uniform".into(),
            n: 8,
            slots: 100,
            warmup_slots: 10,
            offered_packets: 200,
            delivered_packets: 190,
            padding_packets: 0,
            residual_packets: 10,
            dropped_packets: 0,
            delay,
            reordering: ReorderStats::default(),
            occupancy: OccupancyStats::default(),
            per_output_delivered: vec![24, 24, 24, 24, 24, 24, 23, 23],
            windows: WindowSeries::default(),
            faults: None,
        }
    }

    #[test]
    fn delivery_ratio_and_throughput() {
        let r = dummy();
        assert!((r.delivery_ratio() - 0.95).abs() < 1e-12);
        assert!((r.throughput() - 190.0 / 800.0).abs() < 1e-12);
    }

    #[test]
    fn csv_row_has_as_many_fields_as_the_header() {
        let r = dummy();
        let header_fields = SimReport::csv_header().split(',').count();
        let row_fields = r.csv_row().split(',').count();
        assert_eq!(header_fields, row_fields);
        assert!(r.csv_row().starts_with("sprinklers,uniform,8,"));
    }

    #[test]
    fn zero_offered_packets_is_a_full_delivery() {
        let mut r = dummy();
        r.offered_packets = 0;
        r.delivered_packets = 0;
        assert_eq!(r.delivery_ratio(), 1.0);
    }

    #[test]
    fn merged_csv_has_one_header_and_one_row_per_report() {
        let (a, b) = (dummy(), dummy());
        let csv = merge_csv([("case-a", &a), ("case-b", &b)]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], merged_csv_header());
        assert!(lines[1].starts_with("case-a,sprinklers,"));
        assert!(lines[2].starts_with("case-b,sprinklers,"));
        // Every row matches the header's column count.
        let cols = lines[0].split(',').count();
        assert!(lines.iter().all(|l| l.split(',').count() == cols));
    }

    #[test]
    fn merging_nothing_is_just_the_header() {
        assert_eq!(merge_csv([]), format!("{}\n", merged_csv_header()));
    }

    #[test]
    fn merge_csv_rows_reproduces_merge_csv_byte_for_byte() {
        let (a, b) = (dummy(), dummy());
        let direct = merge_csv([("case-a", &a), ("case-b", &b)]);
        let via_rows = merge_csv_rows([("case-a", a.csv_row()), ("case-b", b.csv_row())]);
        assert_eq!(direct, via_rows);
    }

    #[test]
    fn jain_and_utilization_are_derived_from_per_output_counts() {
        let mut r = dummy();
        let j = r.jain_fairness();
        assert!(j > 0.999 && j <= 1.0, "near-uniform counts: {j}");
        r.per_output_delivered = vec![190, 0, 0, 0, 0, 0, 0, 0];
        assert!((r.jain_fairness() - 1.0 / 8.0).abs() < 1e-12);
        let util = r.per_output_utilization();
        assert_eq!(util.len(), 8);
        assert!((util[0] - 1.9).abs() < 1e-12, "190 packets / 100 slots");
        assert_eq!(util[1], 0.0);
        r.slots = 0;
        assert!(r.per_output_utilization().iter().all(|&u| u == 0.0));
    }

    #[test]
    fn metrics_json_is_additive_and_carries_the_extended_surface() {
        let r = dummy();
        let json = r.metrics_json();
        assert!(!json.contains('\n'), "sidecar lines must stay single-line");
        for key in [
            "\"schema\":\"sprinklers-metrics/1\"",
            "\"histogram\":[[4,1],[6,1]]",
            "\"per_output_delivered\":[24,24,24,24,24,24,23,23]",
            "\"jain_fairness\":",
            "\"windows\":{\"stride_slots\":",
            "\"per_output_utilization\":",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(json::Value::parse(&json).is_ok(), "{json}");
        // And it never leaks into the frozen CSV surface.
        assert_eq!(SimReport::csv_header().split(',').count(), 14);
    }

    #[test]
    fn fault_free_reports_omit_the_faults_block() {
        let json = dummy().metrics_json();
        assert!(json.contains("\"dropped\":0"), "{json}");
        assert!(!json.contains("\"faults\""), "{json}");
    }

    #[test]
    fn faulted_reports_carry_the_loss_breakdown_and_reconvergence() {
        let mut r = dummy();
        r.dropped_packets = 7;
        r.faults = Some(FaultSummary {
            dropped_link_failure: 4,
            dropped_node_failure: 2,
            dropped_dead_link: 1,
            dropped_dead_node: 0,
            events: vec![
                FaultEventReport {
                    slot: 40,
                    kind: FaultKind::LinkDown,
                    index: 3,
                    dropped: 4,
                    affected_pairs: 2,
                    reconverged_slot: Some(55),
                },
                FaultEventReport {
                    slot: 80,
                    kind: FaultKind::NodeDown,
                    index: 1,
                    dropped: 3,
                    affected_pairs: 1,
                    reconverged_slot: None,
                },
            ],
        });
        assert_eq!(r.faults.as_ref().unwrap().total_dropped(), 7);
        let json = r.metrics_json();
        for key in [
            "\"dropped\":7",
            "\"faults\":{\"dropped_by_cause\":{\"link_failure\":4,\"node_failure\":2,\
             \"dead_link\":1,\"dead_node\":0}",
            "{\"slot\":40,\"kind\":\"link-down\",\"index\":3,\"dropped\":4,\
             \"affected_pairs\":2,\"reconvergence_slots\":15}",
            "\"reconvergence_slots\":null",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(!json.contains('\n'));
        assert!(json::Value::parse(&json).is_ok(), "{json}");
        // The frozen CSV surface is untouched by fault data.
        assert_eq!(SimReport::csv_header().split(',').count(), 14);
        assert_eq!(r.csv_row().split(',').count(), 14);
    }

    #[test]
    fn metrics_json_escapes_hostile_labels_and_handles_nonfinite() {
        let mut r = dummy();
        r.traffic_label = "evil\"label\\with\nnewline".into();
        let json = r.metrics_json();
        assert!(json.contains(r#"evil\"label\\with\nnewline"#));
        assert!(!json.contains('\n'));
        // Non-finite values render as null, not invalid tokens.
        r.occupancy.mean_input = f64::NAN;
        let json = r.metrics_json();
        assert!(json.contains("\"mean_input\":null"), "{json}");
        assert!(json::Value::parse(&json).is_ok(), "{json}");
    }

    #[test]
    fn sidecar_document_lists_cases_in_order() {
        let r = dummy();
        let m = r.metrics_json();
        let doc = metrics_sidecar_json([("first", m.as_str()), ("second", m.as_str())]);
        assert!(doc.starts_with("{\"schema\":\"sprinklers-suite-metrics/1\""));
        let first = doc.find("\"case\":\"first\"").unwrap();
        let second = doc.find("\"case\":\"second\"").unwrap();
        assert!(first < second);
        assert_eq!(doc.matches("\"case\":").count(), 2);
        assert!(json::Value::parse(&doc).is_ok(), "{doc}");
        assert!(doc.ends_with("]}\n"));
    }
}
