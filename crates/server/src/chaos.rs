//! Seeded chaos schedules for the fleet layer.
//!
//! The toolkit's whole verification story rests on *deterministic*
//! fault injection — `spi-semantics::faults` enumerates message-level
//! faults on a reproducible schedule.  This module applies the same
//! philosophy one layer up: a [`ChaosPlan`] expands a seed into a
//! fixed sequence of fleet-level faults (worker kills, dropped
//! heartbeats, partitioned sockets), indexed by the coordinator's
//! request counter.  Re-running with the same seed replays the same
//! failures at the same points, so a chaos counterexample is a seed,
//! not a flaky CI log.
//!
//! The expansion is intentionally biased: the **first event is always
//! a worker kill**, early in the run.  A chaos schedule that never
//! kills anyone tests nothing, so every seed exercises the
//! re-dispatch path the fleet exists to get right.

use spi_verify::jsonlite::Json;
use spi_verify::rng::Rng;

/// One injected fleet fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaosEvent {
    /// Send a real `shutdown` to the `victim`-th alive worker (modulo
    /// the fleet size at trigger time) — the worker drains and dies.
    KillWorker {
        /// Index into the alive-worker list at trigger time.
        victim: usize,
    },
    /// Ignore every heartbeat for the next `requests` requests, so
    /// failure detection fires on healthy workers.
    DropHeartbeats {
        /// How many requests the deafness lasts.
        requests: usize,
    },
    /// Treat dials to the `victim`-th alive worker as failed for the
    /// next `requests` requests — a one-way partition.
    Partition {
        /// Index into the alive-worker list at trigger time.
        victim: usize,
        /// How many requests the partition lasts.
        requests: usize,
    },
}

impl ChaosEvent {
    fn to_json(&self) -> Json {
        match self {
            ChaosEvent::KillWorker { victim } => Json::Obj(vec![
                ("kind".to_string(), Json::str("kill-worker")),
                ("victim".to_string(), Json::count(*victim)),
            ]),
            ChaosEvent::DropHeartbeats { requests } => Json::Obj(vec![
                ("kind".to_string(), Json::str("drop-heartbeats")),
                ("requests".to_string(), Json::count(*requests)),
            ]),
            ChaosEvent::Partition { victim, requests } => Json::Obj(vec![
                ("kind".to_string(), Json::str("partition")),
                ("victim".to_string(), Json::count(*victim)),
                ("requests".to_string(), Json::count(*requests)),
            ]),
        }
    }
}

/// A deterministic schedule of [`ChaosEvent`]s keyed by request index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosPlan {
    /// The seed the plan was expanded from.
    pub seed: u64,
    /// `(request index, event)` pairs, sorted by request index.
    pub events: Vec<(usize, ChaosEvent)>,
}

impl ChaosPlan {
    /// Expands `seed` into a schedule covering `horizon` requests.
    ///
    /// The first event is always a [`ChaosEvent::KillWorker`] within
    /// the first third of the horizon (mid-campaign, not after the
    /// interesting work is done); later events are drawn uniformly
    /// from all three kinds, spaced pseudo-randomly.
    #[must_use]
    pub fn generate(seed: u64, horizon: usize) -> ChaosPlan {
        let mut rng = Rng::new(seed ^ 0xc3a5_c85c_97cb_3127, 0);
        let mut events = Vec::new();
        let horizon = horizon.max(3);
        // The guaranteed early kill.
        let first_at = 1 + usize::try_from(rng.next_u64()).unwrap_or(0) % (horizon / 3);
        let victim = usize::try_from(rng.next_u64()).unwrap_or(0) % 8;
        events.push((first_at, ChaosEvent::KillWorker { victim }));
        // Subsequent events, spaced by 1..horizon/2 requests.
        let mut at = first_at;
        loop {
            at += 1 + usize::try_from(rng.next_u64()).unwrap_or(0) % (horizon / 2).max(1);
            if at >= horizon {
                break;
            }
            let kind = rng.next_u64() % 3;
            let victim = usize::try_from(rng.next_u64()).unwrap_or(0) % 8;
            let span = 1 + usize::try_from(rng.next_u64()).unwrap_or(0) % 4;
            let event = match kind {
                0 => ChaosEvent::KillWorker { victim },
                1 => ChaosEvent::DropHeartbeats { requests: span },
                _ => ChaosEvent::Partition {
                    victim,
                    requests: span,
                },
            };
            events.push((at, event));
        }
        ChaosPlan { seed, events }
    }

    /// The events scheduled exactly at `request_index`.
    pub fn at(&self, request_index: usize) -> impl Iterator<Item = &ChaosEvent> {
        self.events
            .iter()
            .filter(move |(at, _)| *at == request_index)
            .map(|(_, e)| e)
    }

    /// A JSON rendering of the plan (logged by the coordinator so a
    /// chaos run documents its own schedule).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "seed".to_string(),
                Json::count(usize::try_from(self.seed).unwrap_or(usize::MAX)),
            ),
            (
                "events".to_string(),
                Json::Arr(
                    self.events
                        .iter()
                        .map(|(at, e)| {
                            let mut obj = match e.to_json() {
                                Json::Obj(fields) => fields,
                                _ => unreachable!("events render as objects"),
                            };
                            obj.insert(0, ("at".to_string(), Json::count(*at)));
                            Json::Obj(obj)
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_plan() {
        assert_eq!(ChaosPlan::generate(42, 30), ChaosPlan::generate(42, 30));
        assert_ne!(
            ChaosPlan::generate(42, 30).events,
            ChaosPlan::generate(43, 30).events
        );
    }

    #[test]
    fn every_plan_opens_with_an_early_kill() {
        for seed in 0..50 {
            let plan = ChaosPlan::generate(seed, 30);
            let (at, first) = &plan.events[0];
            assert!(matches!(first, ChaosEvent::KillWorker { .. }), "seed {seed}");
            assert!(*at >= 1 && *at <= 10, "seed {seed} kills at {at}");
            // Events are sorted and within the horizon.
            let mut last = 0;
            for (at, _) in &plan.events {
                assert!(*at > last || *at == plan.events[0].0, "sorted");
                assert!(*at < 30);
                last = *at;
            }
        }
    }

    #[test]
    fn the_ci_seed_expands_to_a_pinned_plan() {
        use ChaosEvent::{DropHeartbeats, KillWorker, Partition};
        assert_eq!(
            ChaosPlan::generate(3_405_691_582, 30).events,
            [
                (2, KillWorker { victim: 2 }),
                (6, Partition { victim: 6, requests: 3 }),
                (8, Partition { victim: 0, requests: 2 }),
                (10, DropHeartbeats { requests: 4 }),
                (15, KillWorker { victim: 7 }),
                (19, KillWorker { victim: 4 }),
                (27, Partition { victim: 3, requests: 1 }),
            ]
        );
    }

    #[test]
    fn plans_render_as_json() {
        let plan = ChaosPlan::generate(7, 30);
        let json = plan.to_json().render_compact();
        assert!(json.contains("\"seed\":7"), "{json}");
        assert!(json.contains("kill-worker"), "{json}");
        let _ = Json::parse(&json).expect("valid JSON");
    }

    #[test]
    fn at_filters_by_request_index() {
        let plan = ChaosPlan::generate(7, 30);
        let (first_at, _) = plan.events[0];
        assert_eq!(plan.at(first_at).count(), 1);
        let total: usize = (0..30).map(|i| plan.at(i).count()).sum();
        assert_eq!(total, plan.events.len());
    }
}
