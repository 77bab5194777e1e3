//! Deterministic expansion of a [`FaultSpec`] into a slot-ordered event
//! schedule.
//!
//! Explicit timed events are taken verbatim; the optional random generator
//! adds alternating up/down phases for every link that has *no* explicit
//! events, each link from its own seed-derived RNG.  The result is a pure
//! function of the spec — no wall clock, no global RNG — so the schedule,
//! and therefore the whole faulted run, is byte-identical at any worker
//! count.  The engine never cuts a stepping window at a fault event: the
//! fabric's `advance` applies each event at its slot, also across an idle
//! jump (`FabricWorld::idle_jump`).

use crate::engine::RunConfig;
use crate::spec::{FaultKind, FaultSpec, RandomFaultSpec};
use sprinklers_core::rng::{self, SimRng};

/// One concrete scheduled event (spec events and generated events look the
/// same once expanded).
#[derive(Debug, Clone, Copy)]
pub(super) struct FaultEvent {
    pub slot: u64,
    pub kind: FaultKind,
    pub index: usize,
}

/// The full, sorted fault timeline of one run, consumed front to back.
#[derive(Debug, Default)]
pub(super) struct FaultSchedule {
    events: Vec<FaultEvent>,
    cursor: usize,
}

impl FaultSchedule {
    /// Expand a validated spec against a fabric with `link_count` links.
    ///
    /// Random failures only ever target links (nodes must be scripted
    /// explicitly) and skip links that already have explicit events, so the
    /// two sources can never produce conflicting timelines.  Random
    /// down-phases may begin any time before `run.slots` (never during the
    /// drain, which exists to let traffic settle) and their recovery is
    /// dropped when it would land past the run end.
    pub(super) fn expand(spec: &FaultSpec, link_count: usize, run: &RunConfig) -> FaultSchedule {
        let total_slots = run.slots.saturating_add(run.drain_slots);
        let mut events: Vec<FaultEvent> = spec
            .events
            .iter()
            .map(|e| FaultEvent {
                slot: e.slot,
                kind: e.kind,
                index: e.index,
            })
            .collect();
        if let Some(random) = &spec.random {
            let mut scripted = vec![false; link_count];
            for e in &spec.events {
                if e.kind.is_link() {
                    scripted[e.index] = true;
                }
            }
            for (link, scripted) in scripted.iter().enumerate() {
                if !scripted {
                    generate_link_phases(random, link, run.slots, total_slots, &mut events);
                }
            }
        }
        // Deterministic application order within a slot: links before
        // nodes, then ascending index, then downs before ups.  Validation
        // forbids same-entity duplicates at one slot, so this total order
        // is unambiguous.
        events.sort_unstable_by_key(|e| (e.slot, !e.kind.is_link(), e.index, e.kind.is_up()));
        FaultSchedule { events, cursor: 0 }
    }

    /// True when the timeline holds no events at all.
    #[cfg(test)]
    pub(super) fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The slot of the next event not yet handed out, if any — how far the
    /// fabric may jump before it has to apply something.
    pub(super) fn next_slot(&self) -> Option<u64> {
        self.events.get(self.cursor).map(|e| e.slot)
    }

    /// The next event due at or before `slot`, advancing past it; `None`
    /// once every such event has been handed out.  Slots must be visited in
    /// nondecreasing order.
    pub(super) fn pop_due(&mut self, slot: u64) -> Option<FaultEvent> {
        let event = *self.events.get(self.cursor).filter(|e| e.slot <= slot)?;
        self.cursor += 1;
        Some(event)
    }
}

/// Alternating up/down phases for one link.  Phase lengths are drawn
/// uniformly from `1..=2·mean − 1` slots (integer-uniform with the spec's
/// mean); the RNG is derived from the fault seed and the link index with
/// the same golden-ratio mix the fabric uses for node seeds, so every link
/// fails on its own independent, reproducible schedule.
fn generate_link_phases(
    random: &RandomFaultSpec,
    link: usize,
    run_slots: u64,
    total_slots: u64,
    events: &mut Vec<FaultEvent>,
) {
    let mut rng = SimRng::seed_from_u64(rng::derive(random.seed, link as u64));
    let phase = |rng: &mut SimRng, mean: u64| {
        let hi = mean.saturating_mul(2).saturating_sub(1).max(1);
        1 + rng.below(hi)
    };
    let mut slot = 0u64;
    loop {
        slot = slot.saturating_add(phase(&mut rng, random.mtbf));
        if slot >= run_slots {
            return; // next failure would start during (or past) the drain
        }
        events.push(FaultEvent {
            slot,
            kind: FaultKind::LinkDown,
            index: link,
        });
        slot = slot.saturating_add(phase(&mut rng, random.mttr));
        if slot >= total_slots {
            return; // the link stays down through the end of the run
        }
        events.push(FaultEvent {
            slot,
            kind: FaultKind::LinkUp,
            index: link,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::FaultEventSpec;

    fn run(slots: u64, drain: u64) -> RunConfig {
        RunConfig {
            slots,
            warmup_slots: 0,
            drain_slots: drain,
        }
    }

    /// Every event due at or before `slot`.
    fn due(sched: &mut FaultSchedule, slot: u64) -> Vec<FaultEvent> {
        std::iter::from_fn(|| sched.pop_due(slot)).collect()
    }

    fn random(mtbf: u64, mttr: u64, seed: u64) -> FaultSpec {
        FaultSpec {
            events: vec![],
            random: Some(RandomFaultSpec { mtbf, mttr, seed }),
        }
    }

    #[test]
    fn explicit_events_come_out_in_deterministic_order() {
        let spec = FaultSpec {
            events: vec![
                FaultEventSpec {
                    slot: 20,
                    kind: FaultKind::NodeDown,
                    index: 0,
                },
                FaultEventSpec {
                    slot: 10,
                    kind: FaultKind::LinkDown,
                    index: 3,
                },
                FaultEventSpec {
                    slot: 10,
                    kind: FaultKind::LinkDown,
                    index: 1,
                },
            ],
            random: None,
        };
        let mut sched = FaultSchedule::expand(&spec, 8, &run(100, 100));
        assert_eq!(sched.next_slot(), Some(10));
        assert!(due(&mut sched, 9).is_empty());
        let at_10 = due(&mut sched, 10);
        assert_eq!(at_10.len(), 2);
        assert_eq!((at_10[0].index, at_10[1].index), (1, 3), "ascending index");
        assert_eq!(sched.next_slot(), Some(20));
        assert_eq!(due(&mut sched, 50).len(), 1);
        assert!(due(&mut sched, 1_000).is_empty(), "cursor never rewinds");
        assert_eq!(sched.next_slot(), None);
    }

    #[test]
    fn random_schedules_are_reproducible_and_seed_sensitive() {
        let collect = |seed: u64| {
            let mut sched = FaultSchedule::expand(&random(40, 10, seed), 4, &run(400, 100));
            due(&mut sched, u64::MAX)
                .iter()
                .map(|e| (e.slot, e.index, e.kind.is_up()))
                .collect::<Vec<_>>()
        };
        let a = collect(7);
        assert_eq!(a, collect(7), "same seed, same schedule");
        assert_ne!(a, collect(8), "different seed moves the schedule");
        assert!(!a.is_empty(), "mtbf 40 over 400 slots must fire");
    }

    #[test]
    fn random_failures_alternate_and_respect_the_run_bounds() {
        let mut sched = FaultSchedule::expand(&random(30, 8, 3), 6, &run(500, 200));
        let mut state = [true; 6]; // all links start up
        for e in due(&mut sched, u64::MAX) {
            assert!(e.kind.is_link(), "random faults only target links");
            assert_eq!(
                state[e.index],
                !e.kind.is_up(),
                "phases must alternate per link"
            );
            state[e.index] = e.kind.is_up();
            if !e.kind.is_up() {
                assert!(e.slot < 500, "failures never start in the drain");
            } else {
                assert!(e.slot < 700, "recovery inside the run");
            }
        }
    }

    #[test]
    fn random_generator_skips_explicitly_scripted_links() {
        let mut spec = random(20, 5, 1);
        spec.events.push(FaultEventSpec {
            slot: 50,
            kind: FaultKind::LinkDown,
            index: 2,
        });
        let mut sched = FaultSchedule::expand(&spec, 4, &run(300, 100));
        let on_link2: Vec<_> = due(&mut sched, u64::MAX)
            .into_iter()
            .filter(|e| e.index == 2)
            .collect();
        assert_eq!(on_link2.len(), 1, "only the scripted event on link 2");
        assert_eq!(on_link2[0].slot, 50);
    }

    #[test]
    fn an_empty_spec_expands_to_an_empty_schedule() {
        let mut sched = FaultSchedule::expand(&FaultSpec::default(), 8, &run(100, 10));
        assert!(sched.is_empty());
        assert!(due(&mut sched, u64::MAX).is_empty());
    }
}
