//! Full Ordered Frames First (FOFF), reference \[11\] of the paper.
//!
//! FOFF keeps UFS's full-frame service but never lets the input idle waiting
//! for frames: whenever no full frame is being transmitted, the input serves
//! its non-empty VOQs in round-robin order, sending single packets to
//! whatever intermediate port the first fabric currently connects it to.
//! Those "uncommitted" packets can overtake each other inside the switch, so
//! every output maintains a resequencing buffer (bounded by O(N²) in the
//! original paper) that restores per-VOQ order before packets leave the
//! switch.  The extra buffering shows up as additional delay compared with
//! the baseline load-balanced switch, but FOFF avoids UFS's frame-building
//! delay at light load.

use crate::frame::FrameInputs;
use crate::NewSwitch;
use sprinklers_core::occupancy::OccupancySet;
use sprinklers_core::packet::Packet;
use sprinklers_core::store::{PacketHandle, PacketStore};
use sprinklers_core::two_stage::{InputPolicy, Served, TwoStage};

/// The Full Ordered Frames First switch.
pub type FoffSwitch = TwoStage<Foff>;

/// FOFF's input stage: full frames first, round-robin single packets
/// otherwise.
pub struct Foff {
    frames: FrameInputs,
    /// Per input, its non-empty VOQs: the ones partial-frame service picks
    /// among.
    backlogged: Vec<OccupancySet>,
    /// Per input, the VOQ the next round of partial-frame service starts at.
    rr: Vec<usize>,
}

impl NewSwitch for FoffSwitch {
    /// Create an `n`-port FOFF switch.
    fn new(n: usize) -> Self {
        let policy = Foff {
            frames: FrameInputs::new(n),
            backlogged: vec![OccupancySet::new(n); n],
            rr: vec![0; n],
        };
        TwoStage::with_policy(n, policy)
    }
}

impl Foff {
    /// Pop one packet from the next non-empty VOQ in round-robin order.
    // lint: hot-path
    #[inline]
    fn pop_round_robin(&mut self, input: usize) -> Option<(PacketHandle, u32)> {
        let n = self.frames.frame_size();
        let backlogged = &mut self.backlogged[input];
        let voq = backlogged
            .next_at_or_after(self.rr[input])
            .or_else(|| backlogged.next_at_or_after(0))?;
        let sent = self.frames.pop_one(input, voq);
        if self.frames.voq_len(input, voq) == 0 {
            backlogged.remove(voq);
        }
        self.rr[input] = if voq + 1 == n { 0 } else { voq + 1 };
        sent
    }
}

impl InputPolicy for Foff {
    const NAME: &'static str = "foff";
    const RESEQUENCES: bool = true;

    /// Partial-frame service can always move a packet, so an input is
    /// servable exactly while it holds one.
    // lint: hot-path
    #[inline]
    fn arrive(&mut self, packet: &Packet, store: impl FnOnce() -> PacketHandle) -> bool {
        let handle = store();
        let (input, output) = packet.voq();
        let len = self.frames.push(input, output, handle);
        if len == 1 {
            self.backlogged[input].insert(output);
        } else if len == self.frames.frame_size() {
            // Cut into a frame: the VOQ is empty again.
            self.backlogged[input].remove(output);
        }
        true
    }

    // lint: hot-path
    #[inline]
    fn serve(
        &mut self,
        input: usize,
        connected: usize,
        _slot: u64,
        _store: &mut PacketStore,
    ) -> Served {
        let framed = self.frames.serve_frame(input, connected);
        // No frame in flight: an uncommitted single packet goes to whatever
        // port is connected.
        let sent = framed.or_else(|| self.pop_round_robin(input));
        Served {
            sent,
            stripe_size: if framed.is_some() {
                self.frames.frame_size()
            } else {
                1
            },
            minted: 0,
            servable: self.frames.queued(input) > 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprinklers_core::switch::Switch;
    use sprinklers_core::two_stage::CheckInput;

    impl CheckInput for Foff {
        fn check_input(&self, input: usize, servable: bool) -> usize {
            let held = self.frames.rescan(input);
            assert_eq!(servable, held > 0, "input {input} bit");
            let backlogged: Vec<usize> = self.backlogged[input].iter().collect();
            let non_empty = self.frames.voq_lens(input).enumerate();
            let non_empty: Vec<usize> = non_empty.filter(|v| v.1 > 0).map(|v| v.0).collect();
            assert_eq!(backlogged, non_empty, "input {input} non-empty VOQs");
            held
        }
    }

    fn pkt(input: usize, output: usize, seq: u64, slot: u64) -> Packet {
        Packet::new(input, output, seq, slot).with_voq_seq(seq)
    }

    #[test]
    fn partial_frames_are_served_without_waiting() {
        let n = 8;
        let mut sw = FoffSwitch::new(n);
        sw.arrive(pkt(0, 3, 0, 0));
        let mut delivered = Vec::new();
        for slot in 0..48 {
            sw.step(slot, &mut delivered);
        }
        assert_eq!(delivered.len(), 1, "FOFF must not wait for a full frame");
        assert_eq!(delivered[0].packet.output(), 3);
    }

    #[test]
    fn departures_are_in_voq_order_despite_internal_races() {
        let n = 4;
        let mut sw = FoffSwitch::new(n);
        let mut seqs = vec![0u64; n * n];
        let mut sent = 0u64;
        // A mix of loads so that partial and full frames interleave.
        for slot in 0..400u64 {
            for i in 0..n {
                let output = if slot % 3 == 0 { (i + 1) % n } else { i };
                let key = i * n + output;
                sw.arrive(pkt(i, output, seqs[key], slot));
                seqs[key] += 1;
                sent += 1;
            }
            sw.step(slot, &mut sprinklers_core::switch::NullSink);
        }
        let mut delivered = Vec::new();
        for slot in 400..4000u64 {
            sw.step(slot, &mut delivered);
        }
        let mut last: std::collections::HashMap<(usize, usize), u64> = Default::default();
        let count = sw.stats().total_departures;
        assert!(
            count >= sent * 9 / 10,
            "most packets should drain: {count}/{sent}"
        );
        for d in &delivered {
            let voq = d.packet.voq();
            if let Some(&prev) = last.get(&voq) {
                assert!(
                    d.packet.voq_seq > prev,
                    "reordered departure in VOQ {voq:?}: {} after {prev}",
                    d.packet.voq_seq
                );
            }
            last.insert(voq, d.packet.voq_seq);
        }
    }

    #[test]
    fn one_departure_per_output_per_slot() {
        let n = 4;
        let mut sw = FoffSwitch::new(n);
        for k in 0..32u64 {
            sw.arrive(pkt((k % 4) as usize, 2, k / 4, 0));
        }
        let mut delivered = Vec::new();
        for slot in 0..200u64 {
            delivered.clear();
            sw.step(slot, &mut delivered);
            let to_two = delivered.iter().filter(|d| d.packet.output() == 2).count();
            assert!(to_two <= 1, "an output can only accept one packet per slot");
        }
    }

    /// The three occupancy bitsets and running counters must agree with
    /// brute-force scans throughout a random interleaving, including at a
    /// port count past the bitsets' 64-port word boundary.
    #[test]
    fn occupancy_bitsets_agree_with_brute_force_scans() {
        for n in [6usize, 65] {
            let mut sw = FoffSwitch::new(n);
            let mut seqs = vec![0u64; n * n];
            for slot in 0..(8 * n as u64) {
                for i in 0..n {
                    if !(i + slot as usize).is_multiple_of(3) {
                        let output = (i + 2 * slot as usize) % n;
                        let key = i * n + output;
                        sw.arrive(pkt(i, output, seqs[key], slot));
                        seqs[key] += 1;
                    }
                }
                sw.step(slot, &mut sprinklers_core::switch::NullSink);
                if slot % 7 == 0 {
                    sw.assert_consistent();
                }
            }
            for slot in (8 * n as u64)..(40 * n as u64) {
                sw.step(slot, &mut sprinklers_core::switch::NullSink);
            }
            sw.assert_consistent();
        }
    }

    #[test]
    fn conserves_packets() {
        let n = 8;
        let mut sw = FoffSwitch::new(n);
        let mut seqs = vec![0u64; n * n];
        let mut sent = 0u64;
        for slot in 0..200u64 {
            for i in 0..n {
                if (slot as usize + i).is_multiple_of(2) {
                    let output = (i + slot as usize) % n;
                    let key = i * n + output;
                    sw.arrive(pkt(i, output, seqs[key], slot));
                    seqs[key] += 1;
                    sent += 1;
                }
            }
            sw.step(slot, &mut sprinklers_core::switch::NullSink);
            sw.assert_consistent();
        }
        for slot in 200..4000u64 {
            sw.step(slot, &mut sprinklers_core::switch::NullSink);
            sw.assert_consistent();
        }
        assert_eq!(sw.stats().total_departures, sent);
        assert_eq!(sw.stats().total_queued(), 0);
    }
}
