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
//! [`FrameInputs`] is the whole input stage of such a scheme: per input the
//! VOQs, the FCFS line of cut frames and the frame being spread, plus one
//! pool of frame buffers shared by every input.  The three schemes differ
//! only in what they do when no frame is in flight, which is what their
//! policies add on top.

use sprinklers_core::packet::Packet;
use std::collections::VecDeque;

/// A frame's packets in transmission order.  Buffers cycle VOQ → ready line
/// → in service → pool, so steady-state frame formation reuses capacity
/// instead of allocating per frame.
pub(crate) type Frame = VecDeque<Packet>;

/// Pop a full frame of `frame_size` packets off the front of `voq` into a
/// caller-provided (pooled) buffer, cleared first, returning whether a frame
/// was available.
pub(crate) fn pop_full_frame_into(
    voq: &mut VecDeque<Packet>,
    frame_size: usize,
    frame: &mut Frame,
) -> bool {
    frame.clear();
    if voq.len() < frame_size {
        return false;
    }
    frame.extend(voq.drain(..frame_size));
    true
}

/// Pop everything `voq` holds into a caller-provided (pooled) buffer and pad
/// with fake packets up to `frame_size` (the Padded Frames operation).
/// Returns false, leaving the buffer cleared, if the VOQ is empty.
pub(crate) fn pop_padded_frame_into(
    voq: &mut VecDeque<Packet>,
    frame_size: usize,
    input: usize,
    output: usize,
    now: u64,
    frame: &mut Frame,
) -> bool {
    frame.clear();
    if voq.is_empty() {
        return false;
    }
    let take = voq.len().min(frame_size);
    frame.extend(voq.drain(..take));
    while frame.len() < frame_size {
        frame.push_back(Packet::padding(input, output, now));
    }
    true
}

/// A frame in the middle of being spread across the intermediate ports.
pub(crate) struct FrameInService {
    packets: Frame,
}

impl FrameInService {
    /// Start transmitting a frame.  Packet `k` is stamped for intermediate
    /// port `k` and with frame (stripe) metadata.
    pub(crate) fn new(mut packets: Frame) -> Self {
        let size = packets.len();
        for (k, p) in packets.iter_mut().enumerate() {
            p.set_stripe_size(size);
            p.set_stripe_index(k);
            p.set_intermediate(k);
        }
        FrameInService { packets }
    }

    /// The next packet to transmit — packet `k` goes to intermediate port
    /// `k` — or `None` once the frame is finished.
    // lint: hot-path
    #[inline]
    pub(crate) fn serve_next(&mut self) -> Option<Packet> {
        self.packets.pop_front()
    }

    /// True when every packet of the frame has been transmitted.
    pub(crate) fn finished(&self) -> bool {
        self.packets.is_empty()
    }

    /// Tear down a finished frame and hand its empty buffer back for
    /// pooling, so the next frame formed at this switch reuses the capacity.
    pub(crate) fn recycle(self) -> Frame {
        debug_assert!(self.finished());
        self.packets
    }
}

/// One input port of a frame-based scheme.
struct FrameInput {
    voqs: Vec<VecDeque<Packet>>,
    /// Cut frames (full, or padded by PF) waiting to be spread, FCFS.
    ready: VecDeque<Frame>,
    in_service: Option<FrameInService>,
    /// Packets held anywhere at this input — VOQs, ready frames and what is
    /// left of the frame in service, padding included.
    queued: usize,
}

/// The input stage of a frame-based scheme: every input's VOQs, ready frames
/// and frame in service, plus the pool of recycled frame buffers they share.
pub(crate) struct FrameInputs {
    n: usize,
    inputs: Vec<FrameInput>,
    pool: Vec<Frame>,
}

impl FrameInputs {
    /// The input stage of an `n`-port switch.
    pub(crate) fn new(n: usize) -> Self {
        FrameInputs {
            n,
            inputs: (0..n)
                .map(|_| FrameInput {
                    voqs: (0..n).map(|_| VecDeque::new()).collect(),
                    ready: VecDeque::new(),
                    in_service: None,
                    queued: 0,
                })
                .collect(),
            pool: Vec::new(),
        }
    }

    /// Packets per frame: the port count N.
    pub(crate) fn frame_size(&self) -> usize {
        self.n
    }

    /// Append an arriving packet to its VOQ, cutting a full frame onto the
    /// ready line when that makes N.  Returns the VOQ's length with the
    /// packet counted (N when a frame was cut).
    // lint: hot-path
    #[inline]
    pub(crate) fn push(&mut self, packet: Packet) -> usize {
        let input = &mut self.inputs[packet.input()];
        let voq = &mut input.voqs[packet.output()];
        voq.push_back(packet);
        input.queued += 1;
        let len = voq.len();
        if len >= self.n {
            let mut frame = self.pool.pop().unwrap_or_default();
            let formed = pop_full_frame_into(voq, self.n, &mut frame);
            debug_assert!(formed);
            input.ready.push_back(frame);
        }
        len
    }

    /// True if `input` has a frame in flight or ready.
    pub(crate) fn has_frame(&self, input: usize) -> bool {
        let input = &self.inputs[input];
        input.in_service.is_some() || !input.ready.is_empty()
    }

    /// Packets held anywhere at `input`.
    pub(crate) fn queued(&self, input: usize) -> usize {
        self.inputs[input].queued
    }

    /// The frame half of a slot at `input`, connected to intermediate port
    /// `connected`: start the next ready frame if none is in flight, send
    /// the in-flight frame's next packet, and recycle the frame once spent.
    /// `None` means no frame is in flight.
    // lint: hot-path
    #[inline]
    pub(crate) fn serve_frame(&mut self, input: usize, connected: usize) -> Option<Packet> {
        let input = &mut self.inputs[input];
        // Start a new frame only when connected to intermediate port 0, so
        // that packet k of every frame lands on intermediate port k.
        if input.in_service.is_none() && connected == 0 {
            if let Some(frame) = input.ready.pop_front() {
                input.in_service = Some(FrameInService::new(frame));
            }
        }
        let svc = input.in_service.as_mut()?;
        let packet = svc.serve_next();
        if svc.finished() {
            if let Some(done) = input.in_service.take() {
                self.pool.push(done.recycle());
            }
        }
        input.queued -= usize::from(packet.is_some());
        packet
    }

    /// Pop the oldest packet of one VOQ, outside any frame (FOFF).
    // lint: hot-path
    #[inline]
    pub(crate) fn pop_one(&mut self, input: usize, output: usize) -> Option<Packet> {
        let input = &mut self.inputs[input];
        let packet = input.voqs[output].pop_front();
        input.queued -= usize::from(packet.is_some());
        packet
    }

    /// Index and length of the longest VOQ at `input` (PF).
    pub(crate) fn longest_voq(&self, input: usize) -> (usize, usize) {
        self.inputs[input]
            .voqs
            .iter()
            .enumerate()
            .map(|(j, v)| (j, v.len()))
            .max_by_key(|&(_, len)| len)
            .unwrap_or((0, 0))
    }

    /// Cut everything in VOQ `output` of `input` — which must hold a packet —
    /// into a frame padded with fake packets up to N and put it on the ready
    /// line (PF).  Returns the number of fake packets minted.
    // lint: hot-path
    #[inline]
    pub(crate) fn pad_frame(&mut self, input: usize, output: usize, now: u64) -> usize {
        let port = &mut self.inputs[input];
        let mut frame = self.pool.pop().unwrap_or_default();
        let voq = &mut port.voqs[output];
        let formed = pop_padded_frame_into(voq, self.n, input, output, now, &mut frame);
        debug_assert!(formed, "PF pads only a VOQ that reached its threshold");
        let minted = frame.iter().filter(|p| p.is_padding()).count();
        port.queued += minted;
        port.ready.push_back(frame);
        minted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl FrameInputs {
        /// Length of every VOQ at `input`, for the policies' own rescans.
        pub(crate) fn voq_lens(&self, input: usize) -> impl Iterator<Item = usize> + '_ {
            self.inputs[input].voqs.iter().map(VecDeque::len)
        }

        /// Brute-force recount of [`Self::queued`], asserting the two agree.
        pub(crate) fn rescan(&self, input: usize) -> usize {
            let port = &self.inputs[input];
            let held = self.voq_lens(input).sum::<usize>()
                + port.ready.iter().map(Frame::len).sum::<usize>()
                + port.in_service.as_ref().map_or(0, |svc| svc.packets.len());
            assert_eq!(port.queued, held, "input {input}: running packet count");
            held
        }
    }

    fn pkt(seq: u64) -> Packet {
        Packet::new(0, 1, seq, 0).with_voq_seq(seq)
    }

    #[test]
    fn full_frame_requires_enough_packets() {
        let mut voq = VecDeque::new();
        let mut frame = Frame::new();
        for i in 0..3 {
            voq.push_back(pkt(i));
        }
        assert!(!pop_full_frame_into(&mut voq, 4, &mut frame));
        assert_eq!(voq.len(), 3);
        voq.push_back(pkt(3));
        assert!(pop_full_frame_into(&mut voq, 4, &mut frame));
        assert_eq!(frame.len(), 4);
        assert_eq!(voq.len(), 0);
        // Arrival order is preserved.
        assert!(frame.iter().map(|p| p.voq_seq).eq(0..4));
    }

    #[test]
    fn padded_frame_fills_with_fakes() {
        let mut voq = VecDeque::new();
        let mut frame = Frame::new();
        voq.push_back(pkt(0));
        voq.push_back(pkt(1));
        assert!(pop_padded_frame_into(&mut voq, 4, 0, 1, 99, &mut frame));
        assert_eq!(frame.len(), 4);
        // Data first, in order, then the fakes.
        let padding: Vec<bool> = frame.iter().map(Packet::is_padding).collect();
        assert_eq!(padding, [false, false, true, true]);
        assert_eq!(voq.len(), 0);
        assert!(!pop_padded_frame_into(&mut voq, 4, 0, 1, 99, &mut frame));
    }

    #[test]
    fn frame_in_service_stamps_ports_and_metadata() {
        let mut svc = FrameInService::new((0..4).map(pkt).collect());
        for k in 0..4 {
            assert!(!svc.finished());
            let p = svc.serve_next().unwrap();
            assert_eq!(p.voq_seq, k as u64, "packets leave in frame order");
            assert_eq!(p.intermediate(), k);
            assert_eq!(p.stripe_index(), k);
            assert_eq!(p.stripe_size(), 4);
        }
        assert!(svc.finished());
        assert!(svc.serve_next().is_none());
    }

    #[test]
    fn pooled_buffers_round_trip_through_frame_service() {
        let mut voq = VecDeque::new();
        for i in 0..4 {
            voq.push_back(pkt(i));
        }
        let mut buf = Frame::with_capacity(4);
        assert!(pop_full_frame_into(&mut voq, 4, &mut buf));
        assert_eq!(buf.len(), 4);
        let cap = buf.capacity();
        let mut svc = FrameInService::new(buf);
        while !svc.finished() {
            svc.serve_next();
        }
        let recycled = svc.recycle();
        assert!(recycled.is_empty());
        assert_eq!(recycled.capacity(), cap, "capacity survives recycling");
        // An empty VOQ leaves the buffer cleared and reports no frame.
        let mut buf = recycled;
        assert!(!pop_full_frame_into(&mut voq, 4, &mut buf));
        assert!(!pop_padded_frame_into(&mut voq, 4, 0, 1, 0, &mut buf));
        assert!(buf.is_empty());
    }

    #[test]
    fn pop_one_serves_in_fifo_order() {
        let mut inputs = FrameInputs::new(4);
        inputs.push(pkt(5));
        inputs.push(pkt(6));
        assert_eq!(inputs.pop_one(0, 1).unwrap().voq_seq, 5);
        assert_eq!(inputs.rescan(0), 1);
        assert_eq!(inputs.pop_one(0, 1).unwrap().voq_seq, 6);
        assert!(inputs.pop_one(0, 1).is_none());
        assert_eq!(inputs.rescan(0), 0);
    }
}
