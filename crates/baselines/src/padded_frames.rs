//! Padded Frames (PF), reference [9] of the paper.
//!
//! PF behaves like UFS whenever a full frame is available.  When no full
//! frame exists, it looks at the longest VOQ at the input; if that VOQ holds
//! at least `threshold` packets, PF pads it with fake packets up to a full
//! frame of N and transmits the padded frame immediately.  The fake packets
//! consume switch capacity but are discarded at the output; in exchange, a
//! VOQ never waits longer than it takes to reach the threshold, which removes
//! UFS's frame-accumulation delay at light load while preserving packet
//! order (padding does not disturb the equal-queue-length invariant).

use crate::frame::FrameInputs;
use crate::NewSwitchWith;
use sprinklers_core::packet::Packet;
use sprinklers_core::store::{PacketHandle, PacketStore};
use sprinklers_core::two_stage::{InputPolicy, Served, TwoStage};

/// The Padded Frames switch.
pub type PaddedFramesSwitch = TwoStage<PaddedFrames>;

/// PF's input stage: full frames first, otherwise the longest VOQ padded up
/// to a frame once it has reached the threshold.
pub struct PaddedFrames {
    threshold: usize,
    frames: FrameInputs,
    /// Per input, the VOQs currently at or above the padding threshold.
    /// Only they can trigger a padded frame.
    ripe_voqs: Vec<usize>,
    padding_sent: u64,
}

impl NewSwitchWith<usize> for PaddedFramesSwitch {
    /// Create an `n`-port PF switch with the given padding threshold
    /// (a frame is padded only if the longest VOQ holds at least `threshold`
    /// packets).
    fn new(n: usize, threshold: usize) -> Self {
        assert!(
            threshold >= 1 && threshold <= n,
            "threshold must be in 1..=N"
        );
        let policy = PaddedFrames {
            threshold,
            frames: FrameInputs::new(n),
            ripe_voqs: vec![0; n],
            padding_sent: 0,
        };
        TwoStage::with_policy(n, policy)
    }
}

impl PaddedFrames {
    /// The default padding threshold used by the experiments: `N/2`.
    pub fn default_threshold(n: usize) -> usize {
        (n / 2).max(1)
    }

    /// Number of fake packets transmitted so far.
    pub fn padding_sent(&self) -> u64 {
        self.padding_sent
    }

    /// True if a step could move a packet out of this input: a frame is in
    /// flight or ready, or some VOQ has reached the padding threshold.  VOQs
    /// below the threshold strand until more arrivals push them over it.
    fn servable(&self, input: usize) -> bool {
        self.frames.has_frame(input) || self.ripe_voqs[input] > 0
    }
}

impl InputPolicy for PaddedFrames {
    const NAME: &'static str = "padded-frames";

    // lint: hot-path
    #[inline]
    fn arrive(&mut self, packet: &Packet, handle: PacketHandle) -> bool {
        let input = packet.input();
        let len = self.frames.push(input, packet.output(), handle);
        if len == self.threshold {
            self.ripe_voqs[input] += 1;
        }
        if len >= self.frames.frame_size() {
            // The VOQ was cut into a frame: from n (>= threshold) to empty.
            self.ripe_voqs[input] -= 1;
        }
        self.servable(input)
    }

    // lint: hot-path
    #[inline]
    fn serve(
        &mut self,
        input: usize,
        connected: usize,
        slot: u64,
        store: &mut PacketStore,
    ) -> Served {
        let mut minted = 0;
        if connected == 0 && !self.frames.has_frame(input) {
            // No full frame to start: pad the longest VOQ if it has reached
            // the threshold.  It drops from >= threshold to empty.
            let (longest, len) = self.frames.longest_voq(input);
            if len >= self.threshold {
                minted = self.frames.pad_frame(input, longest, slot, store);
                self.padding_sent += minted as u64;
                self.ripe_voqs[input] -= 1;
            }
        }
        Served {
            sent: self.frames.serve_frame(input, connected),
            stripe_size: self.frames.frame_size(),
            minted,
            servable: self.servable(input),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprinklers_core::packet::DeliveredPacket;
    use sprinklers_core::switch::Switch;
    use sprinklers_core::two_stage::CheckInput;

    impl CheckInput for PaddedFrames {
        fn check_input(&self, input: usize, servable: bool) -> usize {
            assert_eq!(servable, self.servable(input), "input {input} bit");
            let ripe = self
                .frames
                .voq_lens(input)
                .filter(|&len| len >= self.threshold)
                .count();
            assert_eq!(self.ripe_voqs[input], ripe, "input {input} ripe count");
            self.frames.rescan(input)
        }
    }

    fn pkt(input: usize, output: usize, seq: u64, slot: u64) -> Packet {
        Packet::new(input, output, seq, slot).with_voq_seq(seq)
    }

    #[test]
    fn short_voq_below_threshold_waits() {
        let n = 8;
        let mut sw = PaddedFramesSwitch::new(n, 4);
        sw.arrive(pkt(0, 1, 0, 0));
        let mut delivered = Vec::new();
        for slot in 0..64 {
            sw.step(slot, &mut delivered);
        }
        assert!(delivered.is_empty());
    }

    #[test]
    fn voq_reaching_threshold_is_padded_and_delivered() {
        let n = 8;
        let mut sw = PaddedFramesSwitch::new(n, 3);
        for k in 0..3 {
            sw.arrive(pkt(0, 1, k, 0));
        }
        let mut delivered = Vec::new();
        for slot in 0..64 {
            sw.step(slot, &mut delivered);
        }
        let data: Vec<&DeliveredPacket> = delivered
            .iter()
            .filter(|d| !d.packet.is_padding())
            .collect();
        let padding = delivered.len() - data.len();
        assert_eq!(data.len(), 3);
        assert_eq!(padding, n - 3);
        assert_eq!(sw.policy().padding_sent(), (n - 3) as u64);
        // In order.
        let seqs: Vec<u64> = data.iter().map(|d| d.packet.voq_seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    #[test]
    fn full_frames_take_priority_over_padding() {
        let n = 4;
        let mut sw = PaddedFramesSwitch::new(n, 1);
        // A full frame to output 2 and a single packet to output 3.
        for k in 0..n as u64 {
            sw.arrive(pkt(0, 2, k, 0));
        }
        sw.arrive(pkt(0, 3, 0, 0));
        let mut delivered = Vec::new();
        for slot in 0..64 {
            sw.step(slot, &mut delivered);
        }
        // The full frame to output 2 starts departing before the padded
        // single packet to output 3 does.
        let first_frame_dep = delivered
            .iter()
            .filter(|d| !d.packet.is_padding() && d.packet.output() == 2)
            .map(|d| d.departure_slot)
            .min()
            .unwrap();
        let padded_dep = delivered
            .iter()
            .filter(|d| !d.packet.is_padding() && d.packet.output() == 3)
            .map(|d| d.departure_slot)
            .min()
            .unwrap();
        assert!(first_frame_dep < padded_dep, "the full frame departs first");
        // Everything, including the padded single packet, eventually departs.
        let data_count = delivered.iter().filter(|d| !d.packet.is_padding()).count();
        assert_eq!(data_count, n + 1);
    }

    /// The transmittability bitset (frames + threshold-ripe VOQs) and the
    /// running counters must agree with brute-force rescans throughout a
    /// random interleaving, including past the 64-port word boundary.
    #[test]
    fn occupancy_bitsets_agree_with_brute_force_scans() {
        for n in [8usize, 70] {
            let mut sw = PaddedFramesSwitch::new(n, PaddedFrames::default_threshold(n));
            let mut seqs = vec![0u64; n * n];
            for slot in 0..(8 * n as u64) {
                for i in 0..n {
                    // Concentrate on a few outputs so thresholds are crossed
                    // and padded frames actually form.
                    if (i + slot as usize).is_multiple_of(2) {
                        let output = (i + slot as usize / 16) % 3;
                        let key = i * n + output;
                        sw.arrive(pkt(i, output, seqs[key], slot));
                        seqs[key] += 1;
                    }
                }
                sw.step(slot, &mut sprinklers_core::switch::NullSink);
                sw.assert_consistent();
            }
            assert!(
                sw.policy().padding_sent() > 0,
                "padding never triggered at n={n}"
            );
            for slot in (8 * n as u64)..(40 * n as u64) {
                sw.step(slot, &mut sprinklers_core::switch::NullSink);
                sw.assert_consistent();
            }
        }
    }

    #[test]
    fn default_threshold_is_half_the_ports() {
        assert_eq!(PaddedFrames::default_threshold(32), 16);
        assert_eq!(PaddedFrames::default_threshold(2), 1);
    }

    #[test]
    #[should_panic]
    fn threshold_above_n_is_rejected() {
        let _ = PaddedFramesSwitch::new(4, 5);
    }
}
