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
//! that way: a single private two-stage kernel owns the packet store (a body
//! is written once at arrival and read once at departure; every queue holds
//! four-byte handles), the intermediate FIFOs, both periodic fabrics, FOFF's
//! output resequencers, the occupancy bitsets, the counters and the one
//! `impl Switch` (`step`, batched `step_batch` with idle elision, `stats`),
//! and each module above supplies only an *input policy*: what an input does
//! with an arrival, and which packet it hands the first fabric when
//! connected to an intermediate port.  UFS, FOFF and PF further share one
//! frame-forming input stage.  The `…Switch` names are the kernel
//! instantiated with each policy.
//!
//! Every switch here delivers packets by pushing them into a
//! [`sprinklers_core::switch::DeliverySink`] from its `step` method — see the
//! `sprinklers-core` crate docs for the sink-based fast path contract.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline_lb;
mod fabric;
pub mod foff;
mod frame;
pub mod oq;
pub mod padded_frames;
mod resequencer;
pub mod tcp_hash;
mod two_stage;
pub mod ufs;

pub use baseline_lb::BaselineLbSwitch;
pub use foff::FoffSwitch;
pub use oq::OutputQueuedSwitch;
pub use padded_frames::PaddedFramesSwitch;
pub use tcp_hash::TcpHashSwitch;
pub use ufs::UfsSwitch;
