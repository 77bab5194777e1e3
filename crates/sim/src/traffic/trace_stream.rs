//! Streaming trace replay: a [`TrafficGenerator`] fed from a trace file.
//!
//! [`TraceStream`] is the generator behind `TrafficSpec::Trace`.  Unlike the
//! in-memory [`super::trace::TraceTraffic`] (which tests use for hand-built
//! arrival lists), a `TraceStream` never holds the trace in memory: it keeps
//! one [`TraceReader`] open and pulls records as the engine advances through
//! slots, so replaying a multi-gigabyte capture costs the same memory as a
//! ten-packet one.
//!
//! Two replay knobs reshape the recorded workload:
//!
//! * `repeat` — tile the trace `repeat` times back to back, each copy offset
//!   by the recorded slot span (long steady-state runs from a short capture).
//! * `scale` — dilate time by mapping every slot to `floor(slot / scale)`.
//!   `scale < 1` stretches the trace out (lower offered load); `scale > 1`
//!   compresses it (higher load, up to inadmissible overload).  Compression
//!   that would place two packets on the same input in the same slot is a
//!   typed error, not a silent drop: an input line can physically carry at
//!   most one packet per slot.
//!
//! Opening a stream runs a full **validation pass** over the effective
//! (repeated + scaled) stream — still O(1) memory — so every malformed-file
//! and collision case surfaces as a [`SpecError`] *before* the simulation
//! starts; the replay loop itself then runs on a proven-clean file and never
//! errors mid-run.

use super::trace_io::{TraceReader, TraceRecord, MAX_REPEAT};
use super::TrafficGenerator;
use crate::spec::SpecError;
use sprinklers_core::matrix::TrafficMatrix;
use sprinklers_core::packet::Packet;
use std::path::Path;

/// Replays a recorded trace file as switch arrivals, streaming from disk.
#[derive(Debug)]
pub struct TraceStream {
    n: usize,
    reader: TraceReader,
    repeat: u32,
    scale: f64,
    /// Source-timebase span of one copy (offset between consecutive copies).
    span: u64,
    /// Copy currently being streamed (`0..repeat`).
    copy: u32,
    /// Next transformed record, not yet consumed by `arrivals_into`.
    pending: Option<TraceRecord>,
    exhausted: bool,
    entries_total: u64,
    label: String,
    matrix: TrafficMatrix,
}

/// `floor(abs_slot / scale)`, computed *exactly* for every `u64` slot.
///
/// The obvious `(abs_slot as f64 / scale).floor() as u64` silently corrupts
/// slots ≥ 2^53 (the `as f64` conversion rounds away low bits before the
/// division even happens) and can land on the wrong side of an integer
/// boundary even for small slots when the rounded quotient crosses it.
/// Instead, decompose the (finite, positive — validated in [`TraceStream::
/// open`]) scale into its exact dyadic form `m · 2^e` with `m` odd, so
///
/// ```text
/// floor(slot / (m · 2^e)) = floor((slot >> e) / m)            e ≥ 0
/// floor(slot / (m · 2^e)) = floor(slot · 2^(−e) / m)          e < 0
/// ```
///
/// using nested floor-division for `e ≥ 0` and a shift-and-subtract long
/// division (doubling the remainder `−e` times) for `e < 0`.  Results past
/// `u64::MAX` saturate, matching the old `as u64` cast's behavior.
fn scaled_slot(abs_slot: u64, scale: f64) -> u64 {
    if scale == 1.0 {
        return abs_slot; // identity must be bit-exact, not a float round-trip
    }
    // Exact dyadic decomposition of the f64: scale = m · 2^e, m odd.
    let bits = scale.to_bits();
    let exp_field = (bits >> 52) & 0x7ff;
    let frac = bits & ((1u64 << 52) - 1);
    let (mut m, mut e) = if exp_field == 0 {
        (frac, -1074i64) // subnormal: no implicit leading bit
    } else {
        (frac | (1u64 << 52), exp_field as i64 - 1075)
    };
    debug_assert!(m != 0, "open() rejects scale <= 0");
    let tz = i64::from(m.trailing_zeros());
    m >>= tz;
    e += tz;

    if e >= 0 {
        // floor(slot / (m << e)) via nested floor-division; e ≥ 64 means the
        // divisor exceeds any u64 slot.
        if e >= 64 {
            return 0;
        }
        (abs_slot >> e) / m
    } else {
        // floor(slot << k / m) with k = −e, without ever materializing the
        // (up to 1138-bit) numerator: standard long division, doubling the
        // running remainder once per shifted-in zero bit.
        let mut q = abs_slot / m;
        let mut r = abs_slot % m;
        for _ in 0..-e {
            r <<= 1; // r < m ≤ 2^53, cannot overflow
            let carry = u64::from(r >= m);
            r -= m & carry.wrapping_neg();
            q = match q.checked_mul(2).and_then(|d| d.checked_add(carry)) {
                Some(doubled) => doubled,
                None => return u64::MAX,
            };
        }
        q
    }
}

impl TraceStream {
    /// Open a trace for replay into an `n`-port switch and validate the
    /// entire effective stream (see the module docs).
    ///
    /// `repeat` must be in `1..=MAX_REPEAT` and `scale` finite and positive.
    pub fn open(
        path: impl AsRef<Path>,
        n: usize,
        repeat: u32,
        scale: f64,
    ) -> Result<Self, SpecError> {
        let path = path.as_ref();
        if repeat == 0 || repeat > MAX_REPEAT {
            return Err(SpecError::new(format!(
                "trace repeat must be in 1..={MAX_REPEAT}, got {repeat}"
            )));
        }
        if !scale.is_finite() || scale <= 0.0 {
            return Err(SpecError::new(format!(
                "trace scale must be finite and positive, got {scale}"
            )));
        }
        let mut reader = TraceReader::open(path)?;
        reader.require_n(n)?;

        // Validation pass: the reader holds each record to the file's own
        // rules (ports, slot order, one packet per input per slot, the
        // declared span and count).  What replay adds is time compression:
        // `scale > 1` can put two packets of one input in one slot, within a
        // copy or across the seam between copies, so every copy is walked
        // (one rewind + re-decode each).  At `scale <= 1` distinct slots
        // stay distinct and copies cannot overlap, so one pass suffices.
        let path_ctx = || format!("trace file {}", path.display());
        let compresses = scale > 1.0;
        let mut count_per_copy = 0u64;
        let mut data_span = 0u64;
        // Per-pair counts, needed only for a trace whose header carries no
        // matrix (every recorded trace carries one).
        let mut counts = reader.meta().matrix.is_none().then(|| vec![0u64; n * n]);
        // Per-input slot of the last emitted (scaled) packet — O(n) state.
        let mut last_scaled: Vec<Option<u64>> = vec![None; n];
        let mut collide = |rec: &TraceRecord, slot: u64, copy: u64| {
            if last_scaled[rec.input] == Some(slot) {
                let what = if copy == 0 {
                    "the trace past line rate".to_string()
                } else {
                    format!("copy {} into copy {copy}", copy + 1)
                };
                return Err(SpecError::new(format!(
                    "two packets at input {} in slot {slot} (scale {scale} compresses {what})",
                    rec.input
                ))
                .context(path_ctx()));
            }
            last_scaled[rec.input] = Some(slot);
            Ok(())
        };
        while let Some(rec) = reader.next_record()? {
            if compresses {
                collide(&rec, scaled_slot(rec.slot, scale), 0)?;
            }
            if let Some(counts) = &mut counts {
                counts[rec.input * n + rec.output] += 1;
            }
            count_per_copy += 1;
            data_span = rec.slot.saturating_add(1);
        }
        let span = reader.meta().slots.max(data_span).max(1);
        // The header span is untrusted; proving span*repeat fits u64 here
        // makes every later `rec.slot + copy * span` offset overflow-free
        // (rec.slot < span, copy < repeat ⇒ the sum stays below span*repeat).
        let total_span = span.checked_mul(u64::from(repeat)).ok_or_else(|| {
            SpecError::new(format!(
                "slot span {span} × repeat {repeat} overflows the slot range"
            ))
            .context(path_ctx())
        })?;
        if compresses {
            for copy in 1..u64::from(repeat) {
                reader.rewind()?;
                while let Some(rec) = reader.next_record()? {
                    collide(&rec, scaled_slot(rec.slot + copy * span, scale), copy)?;
                }
            }
        }

        let entries_total = count_per_copy * u64::from(repeat);
        let effective_horizon = scaled_slot(total_span, scale).max(1);
        let matrix = match (&reader.meta().matrix, counts) {
            // The recorded analytic matrix, rescaled by the time compression
            // (repeat leaves long-run rates unchanged).
            (Some(m), _) => m.scaled(scale),
            // Hand-written traces: empirical rates over the effective span.
            (None, counts) => {
                let counts = counts.expect("counted when the header has no matrix");
                let mut m = TrafficMatrix::zero(n);
                let horizon = effective_horizon as f64;
                for i in 0..n {
                    for j in 0..n {
                        let c = counts[i * n + j] * u64::from(repeat);
                        if c > 0 {
                            m.set(i, j, c as f64 / horizon);
                        }
                    }
                }
                m
            }
        };
        let base_label = reader
            .meta()
            .label
            .clone()
            .unwrap_or_else(|| format!("trace({entries_total} packets)"));
        let label = if repeat == 1 && scale == 1.0 {
            base_label
        } else {
            format!("{base_label}·r{repeat}·s{scale}")
        };

        reader.rewind()?;
        Ok(TraceStream {
            n,
            reader,
            repeat,
            scale,
            span,
            copy: 0,
            pending: None,
            exhausted: false,
            entries_total,
            label,
            matrix,
        })
    }

    /// Total packets the stream will emit (per-copy count × `repeat`).
    pub fn entries(&self) -> u64 {
        self.entries_total
    }

    /// Source-timebase slot span of one copy of the trace.
    pub fn span(&self) -> u64 {
        self.span
    }

    /// Pull the next transformed record, rolling over into the next copy at
    /// end of file.  The open-time validation pass proved the stream clean,
    /// so errors here mean the file changed under us — surfaced as a panic
    /// with the underlying message (the replay loop has no error channel).
    fn next_transformed(&mut self) -> Option<TraceRecord> {
        if self.exhausted {
            return None;
        }
        loop {
            match self.reader.next_record() {
                Ok(Some(rec)) => {
                    let abs = rec.slot + u64::from(self.copy) * self.span;
                    return Some(TraceRecord {
                        slot: scaled_slot(abs, self.scale),
                        ..rec
                    });
                }
                Ok(None) => {
                    if self.copy + 1 < self.repeat {
                        self.copy += 1;
                        if let Err(e) = self.reader.rewind() {
                            panic!("trace replay failed mid-run (file changed?): {e}");
                        }
                    } else {
                        self.exhausted = true;
                        return None;
                    }
                }
                Err(e) => panic!("trace replay failed mid-run (file changed?): {e}"),
            }
        }
    }
}

impl TrafficGenerator for TraceStream {
    fn n(&self) -> usize {
        self.n
    }

    fn arrivals_into(&mut self, slot: u64, out: &mut Vec<Packet>) {
        loop {
            if self.pending.is_none() {
                self.pending = self.next_transformed();
            }
            match self.pending {
                Some(rec) if rec.slot <= slot => {
                    self.pending = None;
                    if rec.slot == slot {
                        out.push(Packet::new(rec.input, rec.output, 0, slot).with_flow(rec.flow));
                    }
                    // rec.slot < slot: the engine's clock has moved past this
                    // record (it skipped slots); drop it rather than deliver
                    // it late, mirroring `TraceTraffic`.
                }
                _ => return,
            }
        }
    }

    fn rate_matrix(&self) -> TrafficMatrix {
        self.matrix.clone()
    }

    fn label(&self) -> String {
        self.label.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::super::trace::{TraceEntry, TraceTraffic};
    use super::super::trace_io::{TraceMeta, TraceWriter};
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "sprinklers-trace-stream-{}-{name}",
            std::process::id()
        ))
    }

    fn write_trace(path: &Path, meta: &TraceMeta, recs: &[TraceRecord]) {
        let mut w = TraceWriter::create(path, meta).unwrap();
        for r in recs {
            w.write(r).unwrap();
        }
        w.finish().unwrap();
    }

    fn sample() -> Vec<TraceRecord> {
        vec![
            TraceRecord {
                slot: 0,
                input: 0,
                output: 1,
                flow: 0,
            },
            TraceRecord {
                slot: 2,
                input: 1,
                output: 0,
                flow: 3,
            },
            TraceRecord {
                slot: 2,
                input: 3,
                output: 2,
                flow: 0,
            },
            TraceRecord {
                slot: 5,
                input: 0,
                output: 3,
                flow: 0,
            },
        ]
    }

    #[test]
    fn identity_replay_matches_the_in_memory_generator() {
        let path = tmp("identity.sprt");
        let meta = TraceMeta {
            n: Some(4),
            slots: 6,
            ..TraceMeta::default()
        };
        write_trace(&path, &meta, &sample());
        let mut stream = TraceStream::open(&path, 4, 1, 1.0).unwrap();
        let mut memory = TraceTraffic::new(
            4,
            sample()
                .iter()
                .map(|r| TraceEntry {
                    slot: r.slot,
                    input: r.input,
                    output: r.output,
                })
                .collect(),
        );
        for slot in 0..8u64 {
            let a = stream.arrivals(slot);
            let b = memory.arrivals(slot);
            assert_eq!(a.len(), b.len(), "slot {slot}");
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(
                    (x.input(), x.output()),
                    (y.input(), y.output()),
                    "slot {slot}"
                );
            }
        }
        assert_eq!(stream.entries(), 4);
        assert_eq!(stream.span(), 6);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn repeat_tiles_the_trace_at_the_span_offset() {
        let path = tmp("repeat.csv");
        let meta = TraceMeta {
            n: Some(4),
            slots: 6,
            ..TraceMeta::default()
        };
        write_trace(&path, &meta, &sample());
        let mut stream = TraceStream::open(&path, 4, 3, 1.0).unwrap();
        assert_eq!(stream.entries(), 12);
        let mut got = Vec::new();
        for slot in 0..20u64 {
            for p in stream.arrivals(slot) {
                got.push((slot, p.input(), p.output(), p.flow));
            }
        }
        assert_eq!(got.len(), 12);
        // Second copy starts exactly one span (6 slots) after the first.
        assert_eq!(got[4], (6, 0, 1, 0));
        assert_eq!(got[5], (8, 1, 0, 3));
        // Third copy likewise.
        assert_eq!(got[8], (12, 0, 1, 0));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn scale_below_one_stretches_time() {
        let path = tmp("stretch.csv");
        let meta = TraceMeta {
            n: Some(4),
            slots: 6,
            ..TraceMeta::default()
        };
        write_trace(&path, &meta, &sample());
        let mut stream = TraceStream::open(&path, 4, 1, 0.5).unwrap();
        let mut got = Vec::new();
        for slot in 0..16u64 {
            for p in stream.arrivals(slot) {
                got.push((slot, p.input()));
            }
        }
        // Slots 0, 2, 2, 5 dilate to 0, 4, 4, 10.
        assert_eq!(got, vec![(0, 0), (4, 1), (4, 3), (10, 0)]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn scale_above_one_compresses_until_line_rate() {
        // Entries 4 slots apart compress cleanly at scale 2.0 …
        let path = tmp("compress.csv");
        let meta = TraceMeta {
            n: Some(4),
            slots: 16,
            ..TraceMeta::default()
        };
        let recs: Vec<TraceRecord> = (0..4)
            .map(|k| TraceRecord {
                slot: 4 * k,
                input: 0,
                output: 1,
                flow: 0,
            })
            .collect();
        write_trace(&path, &meta, &recs);
        let mut stream = TraceStream::open(&path, 4, 1, 2.0).unwrap();
        let mut slots = Vec::new();
        for slot in 0..16u64 {
            for _ in stream.arrivals(slot) {
                slots.push(slot);
            }
        }
        assert_eq!(slots, vec![0, 2, 4, 6]);
        // … but a back-to-back burst cannot be compressed past line rate.
        let burst: Vec<TraceRecord> = (0..4)
            .map(|k| TraceRecord {
                slot: k,
                input: 0,
                output: 1,
                flow: 0,
            })
            .collect();
        write_trace(&path, &meta, &burst);
        let err = TraceStream::open(&path, 4, 1, 2.0).unwrap_err().to_string();
        assert!(err.contains("two packets at input 0"), "{err}");
        assert!(err.contains("scale"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn scaled_slot_is_exact_past_f64_precision() {
        // The old float path (`(slot as f64 / scale).floor() as u64`) rounds
        // the slot to 53 bits before dividing; these all came out wrong.
        let big = 1u64 << 53;
        assert_eq!(scaled_slot(big + 1, 1.0), big + 1);
        assert_eq!(scaled_slot(big + 1, 0.5), 2 * (big + 1)); // float: 2*big
        assert_eq!(scaled_slot(big + 3, 2.0), big / 2 + 1); // float: big/2 + 2
        assert_eq!(scaled_slot(u64::MAX, 2.0), u64::MAX / 2);
        assert_eq!(scaled_slot(u64::MAX - 1, 1.0), u64::MAX - 1);
        // Results past u64::MAX saturate (the old cast's behavior).
        assert_eq!(scaled_slot(u64::MAX, 0.5), u64::MAX);
        assert_eq!(scaled_slot(1 << 63, 0.25), u64::MAX);
        // A divisor larger than any representable slot floors to zero.
        assert_eq!(scaled_slot(u64::MAX, 1e300), 0);
        assert_eq!(scaled_slot(0, 0.3), 0);
    }

    #[test]
    fn scaled_slot_matches_exact_rational_division() {
        // Cross-check against an independent u128 evaluation of
        // floor(slot * 2^k / m) for non-dyadic scales (m odd, scale = m*2^-k;
        // slot << k fits u128 for these exponents).
        for scale in [0.3, 0.7, 1.5, 3.0, 0.9999999999999999, 1.0000000000000002] {
            let bits = f64::to_bits(scale);
            let mut m = (bits & ((1u64 << 52) - 1)) | (1 << 52);
            let mut e = ((bits >> 52) & 0x7ff) as i64 - 1075;
            let tz = i64::from(m.trailing_zeros());
            m >>= tz;
            e += tz;
            for slot in [0, 1, 7, (1 << 53) - 1, 1 << 53, (1 << 53) + 1, u64::MAX] {
                let expect = if e >= 0 {
                    (u128::from(slot) >> e) / u128::from(m)
                } else {
                    (u128::from(slot) << -e) / u128::from(m)
                };
                assert_eq!(
                    u128::from(scaled_slot(slot, scale)),
                    expect.min(u128::from(u64::MAX)),
                    "slot {slot} scale {scale}"
                );
            }
        }
    }

    #[test]
    fn huge_slots_survive_scaling_without_false_collisions() {
        // Two adjacent slots past 2^53 used to collapse onto the same f64,
        // so compressing *or even stretching* reported a phantom collision.
        let path = tmp("hugeslots.csv");
        let a = 1u64 << 53;
        std::fs::write(&path, format!("{a},0,1\n{},0,2\n", a + 1)).unwrap();
        let mut stream = TraceStream::open(&path, 4, 1, 0.5).unwrap();
        let first = stream.next_transformed().unwrap();
        let second = stream.next_transformed().unwrap();
        assert_eq!(first.slot, 2 * a);
        assert_eq!(second.slot, 2 * a + 2);
        assert!(stream.next_transformed().is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn duplicate_same_slot_same_input_is_a_typed_error() {
        let path = tmp("dup.csv");
        std::fs::write(&path, "1,0,1\n1,0,2\n").unwrap();
        let err = TraceStream::open(&path, 4, 1, 1.0).unwrap_err().to_string();
        assert!(err.contains("two packets at input 0"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn port_count_mismatch_is_a_typed_error() {
        let path = tmp("nmismatch.sprt");
        let meta = TraceMeta {
            n: Some(8),
            ..TraceMeta::default()
        };
        write_trace(&path, &meta, &[]);
        let err = TraceStream::open(&path, 16, 1, 1.0)
            .unwrap_err()
            .to_string();
        assert!(err.contains("n = 8"), "{err}");
        assert!(err.contains("n = 16"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn out_of_range_port_without_metadata_is_a_typed_error() {
        let path = tmp("norange.csv");
        std::fs::write(&path, "0,0,1\n1,9,0\n").unwrap();
        let err = TraceStream::open(&path, 4, 1, 1.0).unwrap_err().to_string();
        assert!(err.contains("out of range"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn declared_span_smaller_than_data_is_a_typed_error() {
        let path = tmp("span.csv");
        std::fs::write(&path, "# n = 4\n# slots = 3\n0,0,1\n9,1,0\n").unwrap();
        let err = TraceStream::open(&path, 4, 1, 1.0).unwrap_err().to_string();
        assert!(err.contains("declares 3 slots"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn overflowing_span_times_repeat_is_a_typed_error() {
        let path = tmp("overflow.csv");
        std::fs::write(&path, format!("# n = 4\n# slots = {}\n0,0,1\n", u64::MAX)).unwrap();
        let err = TraceStream::open(&path, 4, 2, 1.0).unwrap_err().to_string();
        assert!(err.contains("overflows"), "{err}");
        // A single copy of the same huge declared span is representable.
        assert!(TraceStream::open(&path, 4, 1, 1.0).is_ok());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_repeat_and_scale_are_rejected() {
        let path = tmp("knobs.csv");
        std::fs::write(&path, "0,0,1\n").unwrap();
        assert!(TraceStream::open(&path, 4, 0, 1.0).is_err());
        assert!(TraceStream::open(&path, 4, MAX_REPEAT + 1, 1.0).is_err());
        assert!(TraceStream::open(&path, 4, 1, 0.0).is_err());
        assert!(TraceStream::open(&path, 4, 1, -1.0).is_err());
        assert!(TraceStream::open(&path, 4, 1, f64::INFINITY).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn header_matrix_is_rescaled_and_empirical_matrix_is_derived() {
        // Header matrix present: replay reports it, scaled by the knob.
        let path = tmp("matrix.sprt");
        let meta = TraceMeta {
            n: Some(4),
            slots: 10,
            matrix: Some(TrafficMatrix::uniform(4, 0.8)),
            ..TraceMeta::default()
        };
        write_trace(&path, &meta, &sample());
        let stream = TraceStream::open(&path, 4, 1, 0.5).unwrap();
        let m = stream.rate_matrix();
        assert!((m.rate(0, 1) - 0.8 / 4.0 * 0.5).abs() < 1e-12);
        std::fs::remove_file(&path).ok();

        // No metadata at all: rates are empirical counts over the span.
        let path = tmp("empirical.csv");
        std::fs::write(&path, "0,1,2\n1,1,2\n2,1,2\n3,1,2\n").unwrap();
        let stream = TraceStream::open(&path, 4, 1, 1.0).unwrap();
        assert!((stream.rate_matrix().rate(1, 2) - 1.0).abs() < 1e-12);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn labels_carry_provenance_and_replay_knobs() {
        let path = tmp("label.csv");
        let meta = TraceMeta {
            n: Some(4),
            slots: 6,
            label: Some("bursty(peak=1)".into()),
            ..TraceMeta::default()
        };
        write_trace(&path, &meta, &sample());
        let plain = TraceStream::open(&path, 4, 1, 1.0).unwrap();
        assert_eq!(plain.label(), "bursty(peak=1)");
        let knobbed = TraceStream::open(&path, 4, 2, 0.5).unwrap();
        assert_eq!(knobbed.label(), "bursty(peak=1)·r2·s0.5");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_trace_is_valid_and_emits_nothing() {
        let path = tmp("empty.sprt");
        let meta = TraceMeta {
            n: Some(4),
            slots: 100,
            ..TraceMeta::default()
        };
        write_trace(&path, &meta, &[]);
        let mut stream = TraceStream::open(&path, 4, 2, 1.0).unwrap();
        assert_eq!(stream.entries(), 0);
        for slot in 0..10 {
            assert!(stream.arrivals(slot).is_empty());
        }
        std::fs::remove_file(&path).ok();
    }
}
