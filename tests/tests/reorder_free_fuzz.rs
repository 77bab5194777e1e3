//! Reordering-free invariant fuzzer over the batched hot path.
//!
//! Every scheme that claims `is_reordering_free` must keep that promise for
//! *any* admissible traffic — and `Engine::run` steps every arrival-free
//! run in one `step_batch` call, exactly where a subtle ordering bug would
//! creep in (a hoisted fabric phase off by one, a resequencer probed at the
//! wrong slot).  This suite throws adversarial traffic — saturating on/off
//! bursts and quasi-diagonal concentration, the patterns the paper uses to
//! stress striping (§6) — at every ordered scheme through `Engine::run`,
//! and requires zero per-VOQ and per-flow inversions from the reorder
//! metric, plus full drainage so the check covers every offered packet.

use proptest::prelude::*;
use sprinklers_sim::engine::{Engine, RunConfig};
use sprinklers_sim::registry;
use sprinklers_sim::spec::{ScenarioSpec, SizingSpec, TrafficSpec};
use sprinklers_sim::traffic::trace_io::{TraceMeta, TraceRecord, TraceWriter};
use std::sync::atomic::{AtomicU64, Ordering};

fn run_config() -> RunConfig {
    RunConfig {
        slots: 1_500,
        warmup_slots: 100,
        drain_slots: 4_000,
    }
}

static TRACE_CASE: AtomicU64 = AtomicU64::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn ordered_schemes_never_reorder_under_bursty_batched_traffic(
        load in 0.1f64..0.92,
        mean_burst in 2.0f64..48.0,
        seed in 0u64..u64::MAX,
    ) {
        let mut engine = Engine::new();
        for scheme in registry::ORDERED_SCHEMES {
            let spec = ScenarioSpec::new(scheme, 16)
                .with_traffic(TrafficSpec::Bursty {
                    load,
                    peak: 1.0,
                    mean_burst,
                })
                .with_run(run_config())
                .with_seed(seed);
            let report = engine.run(&spec).unwrap();
            prop_assert!(
                report.reordering.is_ordered(),
                "{} reordered under bursty load={:.2} burst={:.1}: \
                 {} VOQ / {} flow inversions",
                scheme, load, mean_burst,
                report.reordering.voq_reorder_events,
                report.reordering.flow_reorder_events,
            );
            // Sanity only: the ordering verdict must rest on real deliveries.
            // (No ratio bound here — UFS and large-stripe Sprinklers configs
            // legitimately strand partial frames/stripes at light load.)
            prop_assert!(
                report.delivered_packets > 0,
                "{} delivered nothing — the ordering check never ran",
                scheme,
            );
        }
    }

    #[test]
    fn ordered_schemes_never_reorder_replaying_trace_files(
        raw in collection::vec((0u64..3, 0usize..16, 0usize..16, 0u64..6), 8..300),
        repeat in 1u32..4,
        scale_pct in 25u32..101,
        fmt in 0usize..2,
    ) {
        // Trace-sourced arrivals through the full disk pipeline: build an
        // admissible random stream, write it to a real trace file (either
        // format), and replay it through `TrafficSpec::Trace` with the
        // repeat/scale knobs engaged.  Ordered schemes must stay inversion-
        // free no matter what the recorded workload looks like.
        let n = 16usize;
        let mut last: Vec<Option<u64>> = vec![None; n];
        let mut slot = 0u64;
        let mut records = Vec::new();
        for &(gap, input, output, flow) in &raw {
            slot += gap;
            if last[input] == Some(slot) {
                continue; // one packet per input per slot
            }
            last[input] = Some(slot);
            records.push(TraceRecord { slot, input, output, flow });
        }
        prop_assume!(!records.is_empty());
        let span = slot + 1;
        // scale <= 1.0 only: compression past line rate is a typed open-time
        // error (covered by unit tests), not a fuzzable replay.
        let scale = f64::from(scale_pct) / 100.0;

        let format = ["csv", "sprt"][fmt];
        let path = std::env::temp_dir().join(format!(
            "sprinklers-reorder-fuzz-{}-{}.{}",
            std::process::id(),
            TRACE_CASE.fetch_add(1, Ordering::Relaxed),
            format,
        ));
        let meta = TraceMeta { n: Some(n), slots: span, ..TraceMeta::default() };
        let mut writer = TraceWriter::create(&path, &meta).unwrap();
        for rec in &records {
            writer.write(rec).unwrap();
        }
        writer.finish().unwrap();

        // Cover the whole effective (repeated + dilated) stream, plus drain.
        let effective_span =
            (span * u64::from(repeat)) as f64 / scale;
        let run = RunConfig {
            slots: effective_span as u64 + 4,
            warmup_slots: 0,
            drain_slots: 4_000,
        };
        let mut engine = Engine::new();
        for scheme in registry::ORDERED_SCHEMES {
            let spec = ScenarioSpec::new(scheme, n)
                .with_traffic(TrafficSpec::Trace {
                    path: path.to_string_lossy().into_owned(),
                    repeat,
                    scale,
                })
                .with_run(run)
                .with_seed(3);
            let report = engine.run(&spec).unwrap();
            prop_assert!(
                report.reordering.is_ordered(),
                "{} reordered replaying a {} trace (repeat={} scale={}): \
                 {} VOQ / {} flow inversions",
                scheme, format, repeat, scale,
                report.reordering.voq_reorder_events,
                report.reordering.flow_reorder_events,
            );
            prop_assert_eq!(
                report.offered_packets,
                records.len() as u64 * u64::from(repeat),
                "{} lost arrivals from the trace path", scheme
            );
            // Work-conserving OQ must deliver everything it was offered
            // (frame/stripe schemes may legitimately strand partial groups).
            if scheme == "oq" {
                prop_assert_eq!(report.residual_packets, 0, "oq stranded packets");
            }
        }
        std::fs::remove_file(&path).ok();
    }

    /// The wide-switch variant: n = 128 puts the occupancy bitsets past the
    /// 64-port word boundary, so the ordering guarantee is checked on the
    /// two-level sparse stepping paths (fewer cases and a shorter window —
    /// each case simulates 64× the port-slots of the n = 16 suite).
    #[test]
    fn ordered_schemes_never_reorder_past_the_word_boundary(
        load in 0.1f64..0.9,
        mean_burst in 2.0f64..32.0,
        seed in 0u64..u64::MAX,
    ) {
        let mut engine = Engine::new();
        for scheme in registry::ORDERED_SCHEMES {
            // Fixed(4) stripes so Sprinklers actually completes stripes in
            // the short window (matrix sizing at n=128 would ask for
            // full-span stripes no VOQ can fill here); the frame-based
            // baselines ignore the sizing spec, and adaptive Sprinklers,
            // which sizes from measured rates, refuses a fixed size.
            let sizing = if scheme == "sprinklers-adaptive" {
                SizingSpec::Adaptive
            } else {
                SizingSpec::Fixed(4)
            };
            let spec = ScenarioSpec::new(scheme, 128)
                .with_sizing(sizing)
                .with_traffic(TrafficSpec::Bursty {
                    load,
                    peak: 1.0,
                    mean_burst,
                })
                .with_run(RunConfig {
                    slots: 600,
                    warmup_slots: 50,
                    drain_slots: 2_500,
                })
                .with_seed(seed);
            let report = engine.run(&spec).unwrap();
            prop_assert!(
                report.reordering.is_ordered(),
                "{} reordered at n=128 under bursty load={:.2} burst={:.1}: \
                 {} VOQ / {} flow inversions",
                scheme, load, mean_burst,
                report.reordering.voq_reorder_events,
                report.reordering.flow_reorder_events,
            );
            // UFS/PF legitimately strand everything below a full frame (or
            // the padding threshold) in a window this short at n=128.
            if !matches!(scheme, "ufs" | "padded-frames") {
                prop_assert!(
                    report.delivered_packets > 0,
                    "{} delivered nothing at n=128 — the ordering check never ran",
                    scheme,
                );
            }
        }
    }

    #[test]
    fn ordered_schemes_never_reorder_under_diagonal_batched_traffic(
        load in 0.1f64..0.92,
        seed in 0u64..u64::MAX,
    ) {
        let mut engine = Engine::new();
        for scheme in registry::ORDERED_SCHEMES {
            let spec = ScenarioSpec::new(scheme, 16)
                .with_traffic(TrafficSpec::Diagonal { load })
                .with_run(run_config())
                .with_seed(seed);
            let report = engine.run(&spec).unwrap();
            prop_assert!(
                report.reordering.is_ordered(),
                "{} reordered under diagonal load={:.2}: \
                 {} VOQ / {} flow inversions",
                scheme, load,
                report.reordering.voq_reorder_events,
                report.reordering.flow_reorder_events,
            );
        }
    }
}
