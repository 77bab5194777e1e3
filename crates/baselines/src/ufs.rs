//! Uniform Frame Spreading (UFS), reference \[11\] of the paper.
//!
//! Each input accumulates packets in per-output VOQs and only transmits
//! *full frames* of N packets, all destined to the same output.  A frame is
//! transmitted over N consecutive slots with packet `k` going to intermediate
//! port `k`, which (given the increasing connection pattern of the first
//! fabric) means transmission starts in the slot where the input is connected
//! to intermediate port 0.  Because every frame deposits exactly one packet
//! at every intermediate port, the per-output queues at all intermediate
//! ports stay equal in length and packets of a VOQ depart in order without
//! any resequencing.
//!
//! The price is delay: at light load a VOQ takes a long time to accumulate N
//! packets (the O(N³) worst case the paper cites), which is exactly the
//! behaviour Figures 6 and 7 show and Sprinklers is designed to avoid.

use crate::frame::FrameInputs;
use crate::NewSwitch;
use sprinklers_core::packet::Packet;
use sprinklers_core::store::{PacketHandle, PacketStore};
use sprinklers_core::two_stage::{InputPolicy, Served, TwoStage};

/// The Uniform Frame Spreading switch.
pub type UfsSwitch = TwoStage<Ufs>;

/// UFS's input stage: full frames only, first come first served.
pub struct Ufs {
    frames: FrameInputs,
}

impl NewSwitch for UfsSwitch {
    /// Create an `n`-port UFS switch.
    fn new(n: usize) -> Self {
        let frames = FrameInputs::new(n);
        TwoStage::with_policy(n, Ufs { frames })
    }
}

impl InputPolicy for Ufs {
    const NAME: &'static str = "ufs";

    /// UFS only ever transmits full frames, so an input is servable only
    /// with a frame ready or in flight: packets still accumulating in
    /// partial VOQs strand until an arrival completes their frame.  At
    /// light load frames are rare, so whole slots cost O(1).
    // lint: hot-path
    #[inline]
    fn arrive(&mut self, packet: &Packet, store: impl FnOnce() -> PacketHandle) -> bool {
        let handle = store();
        self.frames.push(packet.input(), packet.output(), handle);
        self.frames.has_frame(packet.input())
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
        Served {
            sent: self.frames.serve_frame(input, connected),
            stripe_size: self.frames.frame_size(),
            minted: 0,
            servable: self.frames.has_frame(input),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprinklers_core::switch::Switch;
    use sprinklers_core::two_stage::CheckInput;

    impl CheckInput for Ufs {
        fn check_input(&self, input: usize, servable: bool) -> usize {
            assert_eq!(servable, self.frames.has_frame(input), "input {input} bit");
            self.frames.rescan(input)
        }
    }

    fn pkt(input: usize, output: usize, seq: u64, slot: u64) -> Packet {
        Packet::new(input, output, seq, slot).with_voq_seq(seq)
    }

    #[test]
    fn incomplete_frames_are_never_transmitted() {
        let n = 4;
        let mut sw = UfsSwitch::new(n);
        for k in 0..3 {
            sw.arrive(pkt(0, 1, k, 0));
        }
        let mut delivered = Vec::new();
        for slot in 0..64 {
            sw.step(slot, &mut delivered);
        }
        assert!(
            delivered.is_empty(),
            "UFS must hold packets until a full frame forms"
        );
        assert_eq!(sw.stats().queued_at_inputs, 3);
    }

    #[test]
    fn a_full_frame_is_delivered_in_order_and_in_a_burst() {
        let n = 4;
        let mut sw = UfsSwitch::new(n);
        for k in 0..n as u64 {
            sw.arrive(pkt(2, 1, k, 0));
        }
        let mut delivered = Vec::new();
        for slot in 0..64 {
            sw.step(slot, &mut delivered);
        }
        assert_eq!(delivered.len(), n);
        let seqs: Vec<u64> = delivered.iter().map(|d| d.packet.voq_seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3], "frame departs in order");
        // The frame reaches the output in consecutive slots.
        for w in delivered.windows(2) {
            assert_eq!(w[1].departure_slot, w[0].departure_slot + 1);
        }
        assert_eq!(sw.stats().total_queued(), 0);
    }

    #[test]
    fn frames_of_different_voqs_are_serviced_fcfs() {
        let n = 4;
        let mut sw = UfsSwitch::new(n);
        for k in 0..n as u64 {
            sw.arrive(pkt(0, 1, k, 0));
        }
        for k in 0..n as u64 {
            sw.arrive(pkt(0, 2, k, 0));
        }
        // A partial frame strands at the input for the whole run.
        sw.arrive(pkt(0, 3, 0, 0));
        let mut delivered = Vec::new();
        for slot in 0..64 {
            sw.step(slot, &mut delivered);
            sw.assert_consistent();
        }
        assert_eq!(sw.stats().total_queued(), 1);
        assert_eq!(delivered.len(), 2 * n);
        // The frame to output 1 was completed first, so it starts departing
        // before the frame to output 2 does.
        let first_dep = |out: usize| {
            delivered
                .iter()
                .filter(|d| d.packet.output() == out)
                .map(|d| d.departure_slot)
                .min()
                .unwrap()
        };
        assert!(first_dep(1) < first_dep(2));
    }

    #[test]
    fn frame_packets_land_on_distinct_intermediate_ports() {
        let n = 8;
        let mut sw = UfsSwitch::new(n);
        for k in 0..n as u64 {
            sw.arrive(pkt(3, 6, k, 0));
        }
        let mut delivered = Vec::new();
        for slot in 0..96 {
            sw.step(slot, &mut delivered);
        }
        let mut ports: Vec<usize> = delivered.iter().map(|d| d.packet.intermediate()).collect();
        ports.sort_unstable();
        assert_eq!(ports, (0..n).collect::<Vec<_>>());
    }
}
