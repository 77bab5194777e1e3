//! Baseline load-balanced switch schedulers.
//!
//! The Sprinklers paper compares against four existing schemes (§2, §6); this
//! crate implements all of them, plus the TCP-hashing scheme the paper uses to
//! motivate its design and an ideal output-queued reference, behind the same
//! [`sprinklers_core::switch::Switch`] trait as the Sprinklers switch itself:
//!
//! | Scheme | Module | Ordering guarantee | Notes |
//! |---|---|---|---|
//! | Ideal output-queued switch | [`oq`] | per VOQ | theoretical delay lower bound (infinite speedup) |
//! | Baseline load-balanced switch (Chang et al.) | [`baseline_lb`] | none | implementable delay lower bound |
//! | Uniform Frame Spreading (UFS) | [`ufs`] | per VOQ | full-frame accumulation, long delay at light load |
//! | Full Ordered Frames First (FOFF) | [`foff`] | per VOQ after resequencing | output resequencing buffers |
//! | Padded Frames (PF) | [`padded_frames`] | per VOQ | pads short frames with fake packets |
//! | TCP hashing / AFBR | [`tcp_hash`] | per flow | not stable under adversarial flow mixes |
//!
//! Except for OQ (which idealizes the fabric away entirely), the schemes are
//! one machine — the generic load-balanced switch of Fig. 1 — and are built
//! that way: they run on the two-stage kernel of `sprinklers-core`
//! ([`TwoStage`](sprinklers_core::two_stage::TwoStage)), the same one
//! Sprinklers runs on, which owns the packet store, the intermediate FIFOs,
//! both periodic fabrics, FOFF's output resequencers, the occupancy bitsets,
//! the counters and the one `impl Switch`.  Each module above supplies only
//! an *input policy*: what an input does with an arrival, and which packet
//! it hands the first fabric when connected to an intermediate port.  UFS,
//! FOFF and PF further share one frame-forming input stage (`frame.rs`).
//! The `…Switch` names are the kernel instantiated with each policy; their
//! constructors are the [`NewSwitch`] and [`NewSwitchWith`] trait functions.
//!
//! Every switch here delivers packets by pushing them into a
//! [`sprinklers_core::switch::DeliverySink`] from its `step` method — see the
//! `sprinklers-core` crate docs for the sink-based fast path contract.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline_lb;
pub mod foff;
mod frame;
pub mod oq;
pub mod padded_frames;
pub mod tcp_hash;
pub mod ufs;

/// `Switch::new(n)` for the baselines configured by their port count alone.
/// Only `sprinklers-core`, the kernel's crate, may give a `…Switch` inherent
/// functions, so the constructors are trait functions.
pub trait NewSwitch {
    /// An `n`-port switch.
    fn new(n: usize) -> Self;
}

/// `Switch::new(n, parameter)` for the baselines with one more parameter:
/// PF's padding threshold, TCP hashing's flow-hash seed.
pub trait NewSwitchWith<T> {
    /// An `n`-port switch.
    fn new(n: usize, parameter: T) -> Self;
}

pub use baseline_lb::BaselineLbSwitch;
pub use foff::FoffSwitch;
pub use oq::OutputQueuedSwitch;
pub use padded_frames::PaddedFramesSwitch;
pub use tcp_hash::TcpHashSwitch;
pub use ufs::UfsSwitch;
