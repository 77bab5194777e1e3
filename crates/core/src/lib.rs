//! # Sprinklers: reordering-free load-balanced switching
//!
//! This crate implements the *Sprinklers* switch architecture from
//! "Sprinklers: A Randomized Variable-Size Striping Approach to Reordering-Free
//! Load-Balanced Switching" (Ding, Xu, Dai, Song, Lin — CoNEXT 2014), together
//! with every building block it relies on:
//!
//! * [`dyadic`] — dyadic (power-of-two aligned) intervals of intermediate ports.
//!   Two dyadic intervals either nest or are disjoint, which is what lets the
//!   Largest-Stripe-First scheduler serve stripes without interleaving.
//! * [`sizing`] — the stripe-size rule `F(r) = min(N, 2^⌈log₂(r·N²)⌉)` that maps
//!   a VOQ's rate to a power-of-two stripe size (Eq. (1) of the paper).
//! * [`perm`] / [`ols`] — uniform random permutations and the *weakly uniform
//!   random Orthogonal Latin Square* used to pick a primary intermediate port
//!   for every one of the N² VOQs, so that both the row (per input) and the
//!   column (per output) mappings are uniform random permutations.
//! * [`rng`] — the workspace's one random stream ([`rng::SimRng`],
//!   xoshiro256++ seeded through SplitMix64).  The OLS above, the simulator's
//!   traffic generators and its fabrics all draw from it, so every pinned
//!   result freezes its exact output.
//! * [`store`] / [`fifo`] — the per-switch packet store (a body is written
//!   once at arrival and read once at delivery) and the flat grids of index
//!   queues that hold four-byte handles to it everywhere in between.
//! * [`stripe`] / [`voq`] — chronological grouping of a VOQ's packets into
//!   stripes, and the per-VOQ state machine (including adaptive resizing with a
//!   clearance phase).
//! * [`lsf`] — the Largest Stripe First scheduler of Algorithm 1: one FIFO per
//!   dyadic interval, `2N − 1` in all (§3.4.2), serving each stripe in one
//!   contiguous burst in constant time per slot.
//! * [`occupancy`] — hierarchical port-occupancy bitsets that let the per-slot
//!   fabric loops visit only occupied ports, making a step O(occupied) instead
//!   of O(N) in the sparse regimes (low load, drain tails) that dominate
//!   simulated time.
//! * [`two_stage`] / [`intermediate_port`] — the two-stage switch of Fig. 1,
//!   written once for every load-balanced scheme, and its intermediate stage.
//!   A scheme is a [`two_stage::InputPolicy`] on it: Sprinklers here, the
//!   five load-balanced baselines in `sprinklers-baselines`.
//! * [`input_port`] / [`sprinklers`] — Sprinklers' input ports and policy;
//!   `SprinklersSwitch` is the kernel run by that policy.
//! * [`switch`] — the [`switch::Switch`] trait shared by Sprinklers and all the
//!   baseline switches in `sprinklers-baselines`, plus the push-based
//!   [`switch::DeliverySink`] that receives delivered packets.  The engine in
//!   `sprinklers-sim` drives any implementation interchangeably.
//!
//! ## The sink-based fast path
//!
//! A switch advances one time slot with
//! [`Switch::step(slot, &mut sink)`](switch::Switch::step): every packet that
//! reaches its output port during the slot is *pushed* into the caller's
//! [`DeliverySink`] instead of being returned in a
//! freshly allocated `Vec`.  The steady-state simulation loop therefore does
//! no per-slot heap allocation — the property that lets the constant-time LSF
//! scheduler (§3.4.2 of the paper) actually run at hardware-like speed in the
//! simulator.  `Vec<DeliveredPacket>` implements `DeliverySink` for tests and
//! examples that want to inspect deliveries;
//! [`NullSink`] discards them and
//! [`CountingSink`] tallies them.
//!
//! ## Quick example
//!
//! ```
//! use sprinklers_core::prelude::*;
//!
//! // A 16-port Sprinklers switch with stripe sizes derived from a lightly
//! // loaded uniform traffic matrix (every VOQ gets a unit stripe).
//! let n = 16;
//! let matrix = TrafficMatrix::uniform(n, 0.03);
//! let config = SprinklersConfig::new(n).with_sizing(SizingMode::FromMatrix(matrix));
//! let mut sw = SprinklersSwitch::new(config, 42);
//!
//! // Inject one packet and step the switch until it pops out at the output.
//! // A `Vec<DeliveredPacket>` is a valid `DeliverySink`, so tests can simply
//! // collect; the simulation engine passes its metrics pipeline instead.
//! sw.arrive(Packet::new(0, 3, 0, 0));
//! let mut delivered = Vec::new();
//! for slot in 0..(4 * n as u64) {
//!     sw.step(slot, &mut delivered);
//! }
//! assert_eq!(delivered.len(), 1);
//! assert_eq!(delivered[0].packet.output(), 3);
//!
//! // Drain loops that don't care about the packets use the no-op sink.
//! sw.step(4 * n as u64, &mut NullSink);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod dyadic;
pub mod error;
mod fabric;
pub mod fifo;
pub mod input_port;
pub mod intermediate_port;
pub mod lsf;
pub mod matrix;
pub mod occupancy;
pub mod ols;
pub mod packet;
pub mod perm;
pub mod rate_estimator;
mod resequencer;
pub mod rng;
pub mod sizing;
pub mod sprinklers;
pub mod store;
pub mod stripe;
pub mod switch;
pub mod two_stage;
pub mod voq;

/// Convenient re-exports of the most commonly used types.
pub mod prelude {
    pub use crate::config::{SizingMode, SprinklersConfig};
    pub use crate::dyadic::DyadicInterval;
    pub use crate::matrix::TrafficMatrix;
    pub use crate::ols::WeaklyUniformOls;
    pub use crate::packet::{DeliveredPacket, Packet};
    pub use crate::sizing::stripe_size;
    pub use crate::sprinklers::SprinklersSwitch;
    pub use crate::switch::{CountingSink, DeliverySink, NullSink, Switch, SwitchStats};
}

pub use config::{SizingMode, SprinklersConfig};
pub use dyadic::DyadicInterval;
pub use matrix::TrafficMatrix;
pub use packet::{DeliveredPacket, Packet};
pub use sprinklers::SprinklersSwitch;
pub use switch::{CountingSink, DeliverySink, NullSink, Switch, SwitchStats};
