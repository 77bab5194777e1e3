//! Frame accumulation and frame transmission state shared by the
//! aggregation-based baselines (UFS, FOFF, PF).
//!
//! A *frame* is a group of exactly N packets of the same VOQ (padded with fake
//! packets in the PF scheme).  Frame-based schemes transmit one frame at a
//! time: packet `k` of the frame goes to intermediate port `k`, which — given
//! the first fabric's increasing connection pattern — means transmission must
//! start in a slot where the input is connected to intermediate port 0 and
//! then proceeds for N consecutive slots.
//!
//! [`FrameInputs`] is the whole input stage of such a scheme, as queues of
//! packet handles in one [`FifoGrid`]: a VOQ per `(input, output)` pair and,
//! per input, the *ready line* its cut frames wait on, first come first
//! served.  A full frame is the whole VOQ at the moment it reaches N, so
//! cutting one is a single splice of the VOQ onto the ready line; the line is
//! then a run of whole frames, and "the frame in flight" is no more than a
//! count of how many of its packets are still to be sent.  The three schemes
//! differ only in what they do when no frame is in flight, which is what
//! their policies add on top.

use sprinklers_core::fifo::FifoGrid;
use sprinklers_core::packet::Packet;
use sprinklers_core::store::{PacketHandle, PacketStore};

/// One input port's running counts.
#[derive(Clone, Default)]
struct FrameInput {
    /// Packets held anywhere at this input — VOQs and ready line, padding
    /// included.
    queued: usize,
    /// Packets of the frame in flight still to be sent; 0 between frames.
    in_flight: usize,
}

/// The input stage of a frame-based scheme: every input's VOQs and ready
/// line.
pub(crate) struct FrameInputs {
    n: usize,
    /// Queue `i·n + j` is VOQ `(i, j)`; queue `n² + i` is input `i`'s ready
    /// line.  Every entry is tagged with its output port.
    queues: FifoGrid,
    /// Length of every VOQ, indexed like its queue.
    lens: Vec<u32>,
    inputs: Vec<FrameInput>,
}

impl FrameInputs {
    /// The input stage of an `n`-port switch.
    pub(crate) fn new(n: usize) -> Self {
        FrameInputs {
            n,
            queues: FifoGrid::new(n * n + n),
            lens: vec![0; n * n],
            inputs: vec![FrameInput::default(); n],
        }
    }

    /// Packets per frame: the port count N.
    pub(crate) fn frame_size(&self) -> usize {
        self.n
    }

    fn ready_line(&self, input: usize) -> usize {
        self.n * self.n + input
    }

    /// Append an arriving packet to its VOQ, cutting a full frame onto the
    /// ready line when that makes N.  Returns the VOQ's length with the
    /// packet counted (N when a frame was cut).
    // lint: hot-path
    #[inline]
    pub(crate) fn push(&mut self, input: usize, output: usize, handle: PacketHandle) -> usize {
        let voq = input * self.n + output;
        self.queues.push(voq, handle, output as u32);
        self.inputs[input].queued += 1;
        let len = self.lens[voq] as usize + 1;
        if len == self.n {
            self.cut(input, voq);
        } else {
            self.lens[voq] = len as u32;
        }
        len
    }

    /// Move everything in `voq` — a frame's worth — onto `input`'s ready line.
    // lint: hot-path
    #[inline]
    fn cut(&mut self, input: usize, voq: usize) {
        self.queues.splice(voq, self.ready_line(input));
        self.lens[voq] = 0;
    }

    /// True if `input` has a frame in flight or ready.
    #[inline]
    pub(crate) fn has_frame(&self, input: usize) -> bool {
        self.inputs[input].in_flight > 0 || !self.queues.is_empty(self.ready_line(input))
    }

    /// Packets held anywhere at `input`.
    pub(crate) fn queued(&self, input: usize) -> usize {
        self.inputs[input].queued
    }

    /// Packets in VOQ `(input, output)`.
    #[inline]
    pub(crate) fn voq_len(&self, input: usize, output: usize) -> usize {
        self.lens[input * self.n + output] as usize
    }

    /// The frame half of a slot at `input`, connected to intermediate port
    /// `connected`: start the next ready frame if none is in flight and send
    /// the in-flight frame's next packet — its handle and output.  `None`
    /// means no frame is in flight.
    // lint: hot-path
    #[inline]
    pub(crate) fn serve_frame(
        &mut self,
        input: usize,
        connected: usize,
    ) -> Option<(PacketHandle, u32)> {
        let line = self.ready_line(input);
        let port = &mut self.inputs[input];
        if port.in_flight == 0 {
            // Start a new frame only when connected to intermediate port 0,
            // so that packet k of every frame lands on intermediate port k.
            if connected != 0 || self.queues.is_empty(line) {
                return None;
            }
            port.in_flight = self.n;
        }
        debug_assert_eq!(self.n - port.in_flight, connected);
        port.in_flight -= 1;
        port.queued -= 1;
        self.queues.pop(line)
    }

    /// Pop the oldest packet of one VOQ, outside any frame (FOFF).
    // lint: hot-path
    #[inline]
    pub(crate) fn pop_one(&mut self, input: usize, output: usize) -> Option<(PacketHandle, u32)> {
        let voq = input * self.n + output;
        let sent = self.queues.pop(voq)?;
        self.lens[voq] -= 1;
        self.inputs[input].queued -= 1;
        Some(sent)
    }

    /// Index and length of the longest VOQ at `input`, the last of equals
    /// (PF).
    pub(crate) fn longest_voq(&self, input: usize) -> (usize, usize) {
        self.lens[input * self.n..][..self.n]
            .iter()
            .enumerate()
            .map(|(j, &len)| (j, len as usize))
            .max_by_key(|&(_, len)| len)
            .unwrap_or((0, 0))
    }

    /// Pad VOQ `output` of `input` — which must hold a packet — with fake
    /// packets up to N and cut it onto the ready line, data first (PF).
    /// Returns the number of fake packets minted.
    // lint: hot-path
    #[inline]
    pub(crate) fn pad_frame(
        &mut self,
        input: usize,
        output: usize,
        now: u64,
        store: &mut PacketStore,
    ) -> usize {
        let voq = input * self.n + output;
        debug_assert!(
            self.lens[voq] > 0,
            "PF pads only a VOQ that reached its threshold"
        );
        let minted = self.n - self.lens[voq] as usize;
        for _ in 0..minted {
            let fake = store.insert(&Packet::padding(input, output, now));
            self.queues.push(voq, fake, output as u32);
        }
        self.inputs[input].queued += minted;
        self.cut(input, voq);
        minted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::padded_frames::PaddedFramesSwitch;
    use crate::ufs::UfsSwitch;
    use crate::{NewSwitch, NewSwitchWith};
    use sprinklers_core::packet::DeliveredPacket;
    use sprinklers_core::switch::Switch;

    impl FrameInputs {
        /// Length of every VOQ at `input`, recounted from the queues and
        /// checked against the running lengths, for the policies' rescans.
        pub(crate) fn voq_lens(&self, input: usize) -> impl Iterator<Item = usize> + '_ {
            (0..self.n).map(move |j| {
                let len = self.queues.len(input * self.n + j);
                assert_eq!(self.voq_len(input, j), len, "VOQ ({input}, {j}) length");
                len
            })
        }

        /// Brute-force recount of [`Self::queued`], asserting the two agree
        /// and that the ready line is whole frames behind the one in flight.
        pub(crate) fn rescan(&self, input: usize) -> usize {
            let port = &self.inputs[input];
            let line = self.queues.len(self.ready_line(input));
            assert_eq!(line % self.n, port.in_flight, "input {input}: ready line");
            let held = self.voq_lens(input).sum::<usize>() + line;
            assert_eq!(port.queued, held, "input {input}: running packet count");
            held
        }
    }

    fn h(seq: u32) -> PacketHandle {
        PacketHandle::from_raw(seq)
    }

    fn pkt(output: usize, seq: u64) -> Packet {
        Packet::new(0, output, seq, 0).with_voq_seq(seq)
    }

    /// Step `sw` over `slots` slots and return every delivery.
    fn run(sw: &mut dyn Switch, slots: u64) -> Vec<DeliveredPacket> {
        let mut delivered = Vec::new();
        for slot in 0..slots {
            sw.step(slot, &mut delivered);
        }
        delivered
    }

    #[test]
    fn full_frame_requires_enough_packets() {
        let mut inputs = FrameInputs::new(4);
        for seq in 0..3 {
            assert_eq!(inputs.push(0, 1, h(seq)), seq as usize + 1);
        }
        assert!(!inputs.has_frame(0));
        assert_eq!(inputs.serve_frame(0, 0), None);
        assert_eq!(inputs.voq_len(0, 1), 3);
        assert_eq!(inputs.push(0, 1, h(3)), 4);
        assert!(inputs.has_frame(0));
        assert_eq!(inputs.voq_len(0, 1), 0, "the whole VOQ became the frame");
        assert_eq!(inputs.rescan(0), 4);
        // A frame waits for intermediate port 0, then leaves in arrival
        // order, packet k over port k.
        assert_eq!(inputs.serve_frame(0, 2), None);
        for k in 0..4 {
            assert!(inputs.has_frame(0));
            assert_eq!(inputs.serve_frame(0, k), Some((h(k as u32), 1)));
            inputs.rescan(0);
        }
        assert!(!inputs.has_frame(0));
        assert_eq!(inputs.serve_frame(0, 0), None);
    }

    #[test]
    fn frames_leave_in_the_order_they_were_cut() {
        let mut inputs = FrameInputs::new(2);
        // VOQ 1 fills first although VOQ 0 got the first packet.
        for (output, seq) in [(0, 0), (1, 1), (1, 2), (0, 3)] {
            inputs.push(0, output, h(seq));
        }
        let order: Vec<_> = (0..4).map(|k| inputs.serve_frame(0, k % 2)).collect();
        let expected = [(h(1), 1), (h(2), 1), (h(0), 0), (h(3), 0)].map(Some);
        assert_eq!(order, expected);
    }

    #[test]
    fn padded_frame_fills_with_fakes() {
        let mut store = PacketStore::new();
        let mut inputs = FrameInputs::new(4);
        let data: Vec<_> = (0..2).map(|seq| store.insert(&pkt(1, seq))).collect();
        for &handle in &data {
            inputs.push(0, 1, handle);
        }
        assert_eq!(inputs.pad_frame(0, 1, 99, &mut store), 2);
        assert_eq!(inputs.voq_len(0, 1), 0);
        assert_eq!(inputs.rescan(0), 4);
        assert_eq!(store.live(), 4, "the fakes are stored like data");
        // Data first, in order, then the fakes.
        for k in 0..4 {
            let (handle, output) = inputs.serve_frame(0, k).unwrap();
            assert_eq!(output, 1);
            let packet = store.take(handle);
            assert_eq!(packet.is_padding(), k >= 2);
            match data.get(k) {
                Some(&stored) => assert_eq!(handle, stored),
                None => assert_eq!((packet.voq(), packet.arrival_slot), ((0, 1), 99)),
            }
        }
    }

    #[test]
    fn longest_voq_prefers_the_last_of_equals() {
        let mut inputs = FrameInputs::new(4);
        assert_eq!(inputs.longest_voq(0), (3, 0));
        for (output, seq) in [(2, 0), (0, 1), (2, 2), (0, 3), (1, 4)] {
            inputs.push(1, output, h(seq));
        }
        assert_eq!(inputs.longest_voq(1), (2, 2));
        assert_eq!(inputs.longest_voq(0), (3, 0), "inputs are independent");
    }

    #[test]
    fn frame_in_service_stamps_ports_and_metadata() {
        let n = 4;
        let mut sw = UfsSwitch::new(n);
        for k in 0..n as u64 {
            sw.arrive(pkt(1, k));
        }
        let delivered = run(&mut sw, 16);
        assert_eq!(delivered.len(), n);
        for (k, d) in delivered.iter().enumerate() {
            let p = &d.packet;
            assert_eq!(p.voq_seq, k as u64, "packets leave in frame order");
            assert_eq!(p.intermediate(), k);
            assert_eq!(p.stripe_index(), k);
            assert_eq!(p.stripe_size(), n);
        }
        // PF's fakes are the tail of their frame and stamped like the data.
        let mut sw = PaddedFramesSwitch::new(n, 1);
        sw.arrive(pkt(2, 0));
        let delivered = run(&mut sw, 16);
        assert_eq!(delivered.len(), n);
        for (k, d) in delivered.iter().enumerate() {
            let p = &d.packet;
            assert_eq!(p.is_padding(), k > 0);
            assert_eq!((p.intermediate(), p.stripe_index()), (k, k));
            assert_eq!((p.voq(), p.stripe_size()), ((0, 2), n));
        }
    }

    #[test]
    fn pop_one_serves_in_fifo_order() {
        let mut inputs = FrameInputs::new(4);
        inputs.push(0, 1, h(5));
        inputs.push(0, 1, h(6));
        assert_eq!(inputs.pop_one(0, 1), Some((h(5), 1)));
        assert_eq!(inputs.rescan(0), 1);
        assert_eq!(inputs.pop_one(0, 1), Some((h(6), 1)));
        assert!(inputs.pop_one(0, 1).is_none());
        assert_eq!(inputs.rescan(0), 0);
    }
}
