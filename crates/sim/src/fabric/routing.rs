//! Per-hop path selection at the fabric's edge.
//!
//! The [`Router`] owns all path-choice state for one fabric: it maps each
//! freshly injected remote packet to one of the topology's
//! [`path_choices`](super::topology::Wiring::path_choices) according to the
//! scenario's [`RoutingSpec`]:
//!
//! * **ECMP hash** — a deterministic FNV-1a hash of the `(src, dst)` host
//!   pair (salted with the fabric seed) pins every host pair to one path.
//! * **Random per packet** — an independent uniform draw per packet.
//! * **Sprinklers striping** — the paper's randomized variable-size stripes
//!   lifted to the fabric: each `(src, dst)` pair sends a run ("stripe") of
//!   packets down one random path, then re-randomizes the path *and* the
//!   power-of-two run length — but only at a moment when the pair has no
//!   packets in flight, so two consecutive stripes can never race each
//!   other on different paths.  With order-preserving node schemes this
//!   makes the whole fabric inversion-free (see the fabric fuzz tests).
//!
//! # Live-path masks
//!
//! On a faulted fabric every strategy selects among the paths that are
//! alive, handed to [`Router::choose`] as a bitmask (bit `c` of the word
//! slice set iff path choice `c` is alive): the live count is a popcount
//! and the k-th live path a select, so a choice costs the same with or
//! without failures.  Which paths are alive changes only when a fault event
//! is applied, so the fabric keeps the masks in a [`PathMasks`] cache — one
//! mask per (source node, destination node), filled on first use and
//! invalidated as a whole by every event — instead of re-deriving them per
//! packet.

use crate::spec::RoutingSpec;
use sprinklers_core::rng::SimRng;

/// Striping state for one `(src, dst)` host pair.
#[derive(Debug, Clone, Copy, Default)]
struct StripeState {
    /// Path the current stripe uses.
    choice: usize,
    /// Packets remaining in the current stripe.
    budget: u64,
}

/// Path chooser for one fabric.
#[derive(Debug)]
pub struct Router {
    kind: RoutingSpec,
    rng: SimRng,
    /// Hash salt so different seeds shuffle the ECMP pinning.
    salt: u64,
    /// Number of selectable paths.
    choices: usize,
    /// Host count (stride of the per-pair stripe table).
    hosts: usize,
    /// Per `(src, dst)` stripe state, indexed `src * hosts + dst`.
    stripe: Vec<StripeState>,
}

/// Lazily filled live-path masks, one per (source node, destination node).
///
/// A path's liveness depends only on the nodes its endpoints attach to and
/// on the link/node states, which move only at fault events: the fabric
/// calls [`invalidate`](Self::invalidate) once per applied event and
/// [`get`](Self::get) once per routed packet.  Invalidation bumps an epoch;
/// a mask is valid while its stamp equals it, so neither call touches more
/// than one entry.
#[derive(Debug)]
pub(super) struct PathMasks {
    /// `u64` words per mask (`choices` bits, zero-padded).
    words: usize,
    choices: usize,
    /// Starts at 1, so the zero-initialised stamps are all stale.
    epoch: u64,
    /// Per node pair: the epoch its mask was filled at.
    stamp: Vec<u64>,
    /// Per node pair: `words` mask words.
    bits: Vec<u64>,
}

impl PathMasks {
    /// An all-stale cache for `node_pairs` (source node, destination node)
    /// keys over `choices` path choices.
    pub(super) fn new(node_pairs: usize, choices: usize) -> PathMasks {
        let words = choices.div_ceil(64);
        PathMasks {
            words,
            choices,
            epoch: 1,
            stamp: vec![0; node_pairs],
            bits: vec![0; node_pairs * words],
        }
    }

    /// A link or node changed state: every mask is stale.
    pub(super) fn invalidate(&mut self) {
        self.epoch += 1;
    }

    /// The mask of node pair `key`, refilled from `is_live(choice)` if a
    /// fault event has been applied since it was last filled.
    #[inline]
    pub(super) fn get(&mut self, key: usize, is_live: impl Fn(usize) -> bool) -> &[u64] {
        let mask = &mut self.bits[key * self.words..(key + 1) * self.words];
        if self.stamp[key] != self.epoch {
            self.stamp[key] = self.epoch;
            mask.fill(0);
            for choice in (0..self.choices).filter(|&c| is_live(c)) {
                mask[choice >> 6] |= 1 << (choice & 63);
            }
        }
        mask
    }
}

/// Whether `choice` is set in a live-path mask.
#[inline]
pub(super) fn mask_contains(mask: &[u64], choice: usize) -> bool {
    mask[choice >> 6] & (1 << (choice & 63)) != 0
}

/// Position of the `k`-th set bit of `mask` (`k` counts from 0 and is below
/// the mask's popcount).
#[inline]
fn nth_set_bit(mask: &[u64], mut k: usize) -> usize {
    for (w, &word) in mask.iter().enumerate() {
        let ones = word.count_ones() as usize;
        if k < ones {
            let mut rest = word;
            for _ in 0..k {
                rest &= rest - 1;
            }
            return (w << 6) + rest.trailing_zeros() as usize;
        }
        k -= ones;
    }
    debug_assert!(false, "k must be below the popcount");
    0
}

/// FNV-1a over a few words — stable, dependency-free pair hashing.
fn fnv1a64(words: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &w in words {
        for byte in w.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

impl Router {
    /// Maximum stripe length the striping strategy draws (a power of two
    /// in `1..=16`, mirroring the single-switch stripe-size bounds).
    const MAX_STRIPE_LOG2: u64 = 5;

    /// Create the router for a fabric with `hosts` hosts and `choices`
    /// selectable paths.
    pub fn new(kind: RoutingSpec, hosts: usize, choices: usize, seed: u64) -> Router {
        debug_assert!(choices >= 1);
        Router {
            kind,
            rng: SimRng::seed_from_u64(seed),
            salt: seed,
            choices,
            hosts,
            stripe: match kind {
                RoutingSpec::Stripe => vec![StripeState::default(); hosts * hosts],
                _ => Vec::new(),
            },
        }
    }

    /// Pick the path for a packet from host `src` to remote host `dst`.
    ///
    /// `in_flight` is the number of this pair's packets currently inside
    /// the fabric; the striping strategy only re-randomizes its path when
    /// both the stripe budget and `in_flight` are zero, which is what makes
    /// striping inversion-free end to end.
    ///
    /// `live` is the failure bitmask over path choices (`None` on healthy
    /// fabrics — the legacy draw sequence, byte-for-byte).  With a mask,
    /// every strategy selects among live paths only: ECMP hashes onto the
    /// live subset, random draws from it, and a stripe additionally
    /// re-randomizes — still only with nothing in flight — when its current
    /// path has died, so reconvergence cannot invert surviving traffic.
    /// When *no* path is live the mask is ignored (the packet must go
    /// somewhere; it becomes a typed loss at the dead hop).
    pub fn choose(
        &mut self,
        src: usize,
        dst: usize,
        in_flight: u64,
        live: Option<&[u64]>,
    ) -> usize {
        let live = live.filter(|mask| {
            debug_assert_eq!(mask.len(), self.choices.div_ceil(64));
            mask.iter().any(|&word| word != 0)
        });
        let live_count = live.map_or(self.choices, |mask| {
            mask.iter().map(|word| word.count_ones() as usize).sum()
        });
        // The k-th live choice (identity when no mask applies).
        let nth_live = |k: usize| live.map_or(k, |mask| nth_set_bit(mask, k));
        match self.kind {
            RoutingSpec::EcmpHash => nth_live(
                (fnv1a64(&[src as u64, dst as u64, self.salt]) % live_count as u64) as usize,
            ),
            RoutingSpec::RandomPacket => nth_live(self.rng.below(live_count as u64) as usize),
            RoutingSpec::Stripe => {
                let state = &mut self.stripe[src * self.hosts + dst];
                let choice_dead = live.is_some_and(|mask| !mask_contains(mask, state.choice));
                if in_flight == 0 && (state.budget == 0 || choice_dead) {
                    state.choice = nth_live(self.rng.below(live_count as u64) as usize);
                    state.budget = 1u64 << self.rng.below(Self::MAX_STRIPE_LOG2);
                }
                if state.budget > 0 {
                    state.budget -= 1;
                }
                state.choice
            }
        }
    }

    /// The striping strategy's current path for a pair (what the next
    /// packet would ride if the stripe holds).  `None` for non-stripe
    /// routers.  Used by the fabric's failure handling to decide whether a
    /// pair's traffic must be parked until its path drains or recovers.
    pub fn current_choice(&self, src: usize, dst: usize) -> Option<usize> {
        match self.kind {
            RoutingSpec::Stripe => Some(self.stripe[src * self.hosts + dst].choice),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ecmp_is_deterministic_per_pair_and_salt() {
        let mut a = Router::new(RoutingSpec::EcmpHash, 8, 4, 7);
        let mut b = Router::new(RoutingSpec::EcmpHash, 8, 4, 7);
        for (src, dst) in [(0, 5), (3, 1), (7, 2)] {
            let first = a.choose(src, dst, 0, None);
            assert!(first < 4);
            for _ in 0..3 {
                assert_eq!(
                    a.choose(src, dst, 9, None),
                    first,
                    "pinned regardless of flight"
                );
            }
            assert_eq!(
                b.choose(src, dst, 0, None),
                first,
                "same seed, same pinning"
            );
        }
        // A different salt moves at least one of a handful of pairs.
        let mut c = Router::new(RoutingSpec::EcmpHash, 8, 4, 8);
        let moved = (0..8)
            .flat_map(|s| (0..8).map(move |d| (s, d)))
            .any(|(s, d)| c.choose(s, d, 0, None) != b.choose(s, d, 0, None));
        assert!(moved, "salt should reshuffle some pair");
    }

    #[test]
    fn random_routing_eventually_uses_every_path() {
        let mut r = Router::new(RoutingSpec::RandomPacket, 4, 4, 1);
        let mut seen = [false; 4];
        for _ in 0..256 {
            seen[r.choose(0, 1, 0, None)] = true;
        }
        assert_eq!(seen, [true; 4]);
    }

    #[test]
    fn stripe_holds_its_path_until_budget_and_flight_drain() {
        let mut r = Router::new(RoutingSpec::Stripe, 4, 16, 3);
        // First call opens a stripe: some path, some power-of-two budget.
        let first = r.choose(0, 1, 0, None);
        // Keep the pair busy: as long as packets are in flight the path can
        // never change, even after the budget runs out.
        for k in 1..200u64 {
            assert_eq!(r.choose(0, 1, k, None), first, "path changed mid-flight");
        }
        // Budget exhausted and nothing in flight: the stripe re-randomizes
        // (possibly onto the same path) with a fresh power-of-two budget.
        let mut changed = false;
        for _ in 0..64 {
            for _ in 0..40 {
                r.choose(0, 1, 1, None); // drain any current budget while busy
            }
            if r.choose(0, 1, 0, None) != first {
                changed = true;
                break;
            }
        }
        assert!(changed, "16 paths: a re-randomized stripe should move");
    }

    #[test]
    fn masked_strategies_only_pick_live_paths() {
        // Only path 2 is alive: every strategy must land on it.
        let mask = [0b0100u64];
        let mut ecmp = Router::new(RoutingSpec::EcmpHash, 4, 4, 7);
        assert_eq!(ecmp.choose(0, 1, 0, Some(&mask)), 2);
        let mut random = Router::new(RoutingSpec::RandomPacket, 4, 4, 1);
        for _ in 0..32 {
            assert_eq!(random.choose(0, 1, 0, Some(&mask)), 2);
        }
        let mut stripe = Router::new(RoutingSpec::Stripe, 4, 4, 3);
        assert_eq!(stripe.choose(0, 1, 0, Some(&mask)), 2);

        // With two live paths, random routing eventually uses both and
        // never a dead one.
        let mask = [0b0101u64];
        let mut seen = [false; 4];
        for _ in 0..256 {
            seen[random.choose(0, 1, 0, Some(&mask))] = true;
        }
        assert_eq!(seen, [true, false, true, false]);
    }

    #[test]
    fn stripe_rerandomizes_off_a_dead_path_only_when_drained() {
        let mut r = Router::new(RoutingSpec::Stripe, 4, 4, 3);
        let first = r.choose(0, 1, 0, None);
        let mask = [0b1111u64 & !(1 << first)];
        // Packets still in flight: the pair must hold its (dead) path —
        // moving now could overtake them on the new path.
        assert_eq!(r.choose(0, 1, 5, Some(&mask)), first, "moved mid-flight");
        assert_eq!(r.current_choice(0, 1), Some(first));
        // Drained: the stripe abandons the dead path mid-budget.
        let moved = r.choose(0, 1, 0, Some(&mask));
        assert_ne!(moved, first, "dead path kept after drain");
        assert!(
            mask_contains(&mask, moved),
            "re-randomized onto a dead path"
        );
    }

    #[test]
    fn an_all_dead_mask_falls_back_to_the_full_path_set() {
        // Total blackout: the router still returns a valid index (the
        // packet becomes a typed loss at the dead hop, not a panic here).
        let mask = [0u64];
        let mut r = Router::new(RoutingSpec::EcmpHash, 4, 4, 7);
        assert!(r.choose(0, 1, 0, Some(&mask)) < 4);
        let mut r = Router::new(RoutingSpec::Stripe, 4, 4, 3);
        assert!(r.choose(0, 1, 0, Some(&mask)) < 4);
    }

    #[test]
    fn masks_fill_once_per_epoch_and_select_across_words() {
        // 130 choices span three words; every third path is alive.
        let fills = std::cell::Cell::new(0);
        let is_live = |c: usize| {
            fills.set(fills.get() + 1);
            c.is_multiple_of(3)
        };
        let mut masks = PathMasks::new(4, 130);
        let mask = masks.get(2, is_live).to_vec();
        assert_eq!(mask.len(), 3);
        assert_eq!(fills.get(), 130, "filled on first use");
        for c in 0..130 {
            assert_eq!(mask_contains(&mask, c), c.is_multiple_of(3));
        }
        for k in 0..44 {
            assert_eq!(nth_set_bit(&mask, k), 3 * k, "k = {k}");
        }
        assert_eq!(masks.get(2, is_live), mask);
        assert_eq!(fills.get(), 130, "a valid mask is not refilled");
        masks.invalidate();
        assert_eq!(masks.get(2, |c| c == 129), [0, 0, 2]);
        assert_eq!(
            masks.get(3, |_| false),
            [0, 0, 0],
            "other keys fill on demand"
        );

        // A router drawing over the sparse mask only ever lands on it.
        let mut random = Router::new(RoutingSpec::RandomPacket, 4, 130, 1);
        for _ in 0..256 {
            assert_eq!(random.choose(0, 1, 0, Some(&mask)) % 3, 0);
        }
    }

    #[test]
    fn stripe_pairs_are_independent() {
        let mut r = Router::new(RoutingSpec::Stripe, 4, 1024, 5);
        let a = r.choose(0, 1, 0, None);
        let _ = r.choose(2, 3, 0, None); // different pair draws its own stripe
        assert_eq!(r.choose(0, 1, 1, None), a, "pair (0,1) keeps its own path");
    }
}
