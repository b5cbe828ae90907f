//! The second decision procedure: on-the-fly hedged bisimulation.
//!
//! [`crate::trace_preorder`] decides "P securely implements P′" by
//! *enumerating* both weak trace sets and taking a set difference.  This
//! module decides the same relation by a genuinely different road,
//! following the on-the-fly style of Mansutti–Miculan ("Deciding Hedged
//! Bisimilarity") with Tiu's trace-based open bisimulation as the guide
//! for environment-indexed knowledge: a lazy refinement over *pairs of
//! configurations*, driven from the initial state pair, where each
//! configuration member carries its own hedge ([`EnvKnowledge`]) mapping
//! the run's raw fresh names to canonical environment names.
//!
//! A configuration is the set of members reachable under one canonical
//! observation sequence — the subset construction over the weak LTS that
//! the weak-visible layer ([`WeakLayer`]) builds for both engines, each
//! member a state with its path permutation and its hedge kept in the
//! state's local coordinates.  The implementation configuration must be
//! able to match every canonical observation the environment can provoke
//! with one from the specification configuration; a canonical event the
//! specification configuration cannot match is a distinguishing
//! experiment, and the breadth-first schedule makes the first one found
//! a *shortest* distinguishing trace.  Visited configuration pairs are
//! memoized, so
//! subtrees the trace comparison would re-enumerate are pruned — this is
//! the speed play behind the campaign early-reject path.
//!
//! **Agreement.**  Because configurations are exactly the determinized
//! weak LTS under canonical observations, a distinguishing trace exists
//! iff the bounded weak-trace inclusion of [`crate::trace_preorder`]
//! fails, with the same minimal length; and the truncation soundness
//! rules of [`bisim_preorder_sound`] mirror
//! [`crate::trace_preorder_sound`] clause for clause.  The two engines
//! must therefore agree on every input — `--engine both` and the
//! `engines` conformance oracle turn that theorem into a continuously
//! checked invariant.

use std::collections::{HashMap, VecDeque};

use spi_semantics::PathPerm;

use crate::hedges::EnvKnowledge;
use crate::traces::sound;
use crate::weak::{Render, WeakLayer};
use crate::{Lts, ObsEvent, TraceSet, TraceVerdict};

/// Which decision procedure(s) a verification run uses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Engine {
    /// The bounded weak-trace-inclusion check (the original engine).
    #[default]
    Trace,
    /// The on-the-fly hedged-bisimulation check from this module.
    Bisim,
    /// Run both and fail loudly if they ever disagree; campaigns use
    /// the bisimulation verdict to early-reject attack schedules.
    Both,
}

impl Engine {
    /// The flag spelling, as accepted by [`Engine::parse`].
    #[must_use]
    pub fn mode(self) -> &'static str {
        match self {
            Engine::Trace => "trace",
            Engine::Bisim => "bisim",
            Engine::Both => "both",
        }
    }

    /// Parses a `--engine` argument.
    #[must_use]
    pub fn parse(s: &str) -> Option<Engine> {
        match s {
            "trace" => Some(Engine::Trace),
            "bisim" => Some(Engine::Bisim),
            "both" => Some(Engine::Both),
            _ => None,
        }
    }

    /// Returns `true` when the trace engine runs.
    #[must_use]
    pub fn runs_trace(self) -> bool {
        matches!(self, Engine::Trace | Engine::Both)
    }

    /// Returns `true` when the bisimulation engine runs.
    #[must_use]
    pub fn runs_bisim(self) -> bool {
        matches!(self, Engine::Bisim | Engine::Both)
    }
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.mode())
    }
}

/// Options for the bisimulation checker.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BisimOptions {
    /// Planted bug for the `engines` conformance oracle: skip the
    /// ciphertext analysis rule so the hedge under-closes.  Never set
    /// outside fault-injection runs.
    #[doc(hidden)]
    pub skip_analysis: bool,
}

impl BisimOptions {
    fn knowledge(self) -> EnvKnowledge {
        if self.skip_analysis {
            EnvKnowledge::with_skipped_analysis()
        } else {
            EnvKnowledge::new()
        }
    }
}

/// The bisimulation engine's renderer: the environment's hedge resumed
/// on a member's extracted names.
impl Render for BisimOptions {
    fn render(
        &self,
        ev: &ObsEvent,
        perm: &PathPerm,
        seen: &[(u32, u32)],
        next: u32,
        named: &mut Vec<(u32, u32)>,
    ) -> String {
        let mut knowledge = self.knowledge().resume(seen, next);
        let canon = knowledge.observe_in(ev, perm);
        named.extend_from_slice(knowledge.named());
        canon
    }
}

/// Checks `implementation ⊑ specification` by on-the-fly hedged
/// bisimulation up to `max_visible` observations, with `opts` selecting
/// fault-injection behaviour.
///
/// This is the *raw* bounded comparison; it never answers
/// [`TraceVerdict::Inconclusive`].  When either LTS may be truncated,
/// use [`bisim_preorder_sound`].
#[must_use]
pub fn bisim_preorder_with(
    implementation: &Lts,
    specification: &Lts,
    max_visible: usize,
    opts: &BisimOptions,
) -> TraceVerdict {
    bisim_preorder_in(
        &mut WeakLayer::new(implementation),
        &mut WeakLayer::new(specification),
        max_visible,
        opts,
    )
}

fn bisim_preorder_in(
    iw: &mut WeakLayer<'_>,
    sw: &mut WeakLayer<'_>,
    max_visible: usize,
    opts: &BisimOptions,
) -> TraceVerdict {
    let start = (iw.initial(), sw.initial());
    // Pair ids, and the pairs each pair's experiments lead to.
    let mut ids = HashMap::new();
    ids.insert(start.clone(), 0usize);
    let mut children: Vec<Vec<usize>> = vec![Vec::new()];
    let mut queue = VecDeque::new();
    queue.push_back((0usize, start.0, start.1, max_visible, Vec::new()));
    while let Some((id, ic, sc, remaining, prefix)) = queue.pop_front() {
        if remaining == 0 {
            continue;
        }
        let igroups = iw.successors(&ic, opts);
        if igroups.is_empty() {
            continue;
        }
        let sgroups = sw.successors(&sc, opts);
        for (canon, inext) in igroups {
            let Some(snext) = sgroups.get(&canon) else {
                // The specification cannot match this experiment: a
                // distinguishing trace, shortest because the schedule
                // is breadth-first.
                let mut witness = prefix;
                witness.push(canon);
                return TraceVerdict::Fails { witness };
            };
            let key = (inext, snext.clone());
            // Revisits arrive with at most the first visit's budget (BFS
            // is level-ordered), so a seen pair is a pruned subtree.
            if let Some(&child) = ids.get(&key) {
                children[id].push(child);
                continue;
            }
            let child = children.len();
            ids.insert(key.clone(), child);
            children.push(Vec::new());
            children[id].push(child);
            let mut next_prefix = prefix.clone();
            next_prefix.push(canon);
            queue.push_back((child, key.0, key.1, remaining - 1, next_prefix));
        }
    }
    TraceVerdict::Holds {
        checked: experiments(&children, 0, max_visible, &mut HashMap::new()),
    }
}

/// The number of canonical experiments of at most `remaining`
/// observations from pair `id` (the empty one included), counting every
/// path through a pruned revisit — so the count is the implementation's
/// weak-trace count, however coarsely configurations are identified.
fn experiments(
    children: &[Vec<usize>],
    id: usize,
    remaining: usize,
    memo: &mut HashMap<(usize, usize), usize>,
) -> usize {
    if remaining == 0 {
        return 1;
    }
    if let Some(&n) = memo.get(&(id, remaining)) {
        return n;
    }
    let n = 1 + children[id]
        .iter()
        .map(|&c| experiments(children, c, remaining - 1, memo))
        .sum::<usize>();
    memo.insert((id, remaining), n);
    n
}

/// [`bisim_preorder_with`] with default options.
#[must_use]
pub fn bisim_preorder(
    implementation: &Lts,
    specification: &Lts,
    max_visible: usize,
) -> TraceVerdict {
    bisim_preorder_with(implementation, specification, max_visible, &BisimOptions::default())
}

/// [`bisim_preorder_with`] under the same truncation soundness rules as
/// [`crate::trace_preorder_sound`]: a *Holds* needs a complete
/// implementation side, a *Fails* a complete specification side, and
/// anything else is inconclusive, blaming the exhausted side.
#[must_use]
pub fn bisim_preorder_sound_with(
    implementation: &Lts,
    specification: &Lts,
    max_visible: usize,
    opts: &BisimOptions,
) -> TraceVerdict {
    bisim_preorder_sound_in(
        &mut WeakLayer::new(implementation),
        &mut WeakLayer::new(specification),
        max_visible,
        opts,
    )
}

/// [`bisim_preorder_sound_with`] over prebuilt layers — how
/// [`crate::Verifier`] lets both engines share one layer per side.
#[must_use]
pub(crate) fn bisim_preorder_sound_in(
    implementation: &mut WeakLayer<'_>,
    specification: &mut WeakLayer<'_>,
    max_visible: usize,
    opts: &BisimOptions,
) -> TraceVerdict {
    let raw = bisim_preorder_in(implementation, specification, max_visible, opts);
    sound(raw, implementation.lts(), specification.lts())
}

/// [`bisim_preorder_sound_with`] with default options.
#[must_use]
pub fn bisim_preorder_sound(
    implementation: &Lts,
    specification: &Lts,
    max_visible: usize,
) -> TraceVerdict {
    bisim_preorder_sound_with(implementation, specification, max_visible, &BisimOptions::default())
}

/// The canonical observation sequences the bisimulation engine's
/// configuration graph spells out, up to `max_visible` observations.
///
/// With full analysis this is provably the weak trace set of
/// [`crate::weak_traces`] — the differential surface the `engines`
/// conformance oracle compares string for string, which is what makes
/// an under-closing hedge (the `bisim-skip-analysis` planted bug)
/// observable even on a single system.
#[must_use]
pub fn bisim_traces(lts: &Lts, max_visible: usize, opts: &BisimOptions) -> TraceSet {
    WeakLayer::new(lts).traces(opts, max_visible)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        trace_preorder, trace_preorder_sound, weak_traces, Budget, ExploreOptions, Explorer,
        ReduceOptions,
    };
    use spi_syntax::parse;

    fn lts(src: &str) -> Lts {
        Explorer::new(ExploreOptions::default())
            .explore(&parse(src).expect("parses"))
            .expect("explores")
    }

    fn lts_with(src: &str, o: ExploreOptions) -> Lts {
        Explorer::new(o).explore(&parse(src).expect("parses")).expect("explores")
    }

    #[test]
    fn agrees_with_the_trace_engine_on_simple_inclusions() {
        let small = lts("observe<a>");
        let big = lts("observe<a> | observe<b>");
        assert!(bisim_preorder(&small, &big, 3).holds());
        assert!(!bisim_preorder(&big, &small, 3).holds());
        assert_eq!(
            bisim_preorder(&big, &small, 3).holds(),
            trace_preorder(&big, &small, 3).holds()
        );
        // Both count the implementation's experiments, also where the
        // configuration graph joins (after `a, b` and after `b, a`).
        let diamond = lts("observe<a> | observe<b> | observe<c>");
        assert_eq!(bisim_preorder(&diamond, &diamond, 4), TraceVerdict::Holds { checked: 16 });
        assert_eq!(trace_preorder(&diamond, &diamond, 4), TraceVerdict::Holds { checked: 16 });
    }

    #[test]
    fn witness_is_shortest_and_rejected_by_the_trace_engine() {
        let impl_ = lts("observe<a>.observe<bad>");
        let spec = lts("observe<a>");
        match bisim_preorder(&impl_, &spec, 4) {
            TraceVerdict::Fails { witness } => {
                assert_eq!(witness.len(), 2, "shortest counterexample");
                assert!(witness[1].contains("bad"));
                // Replay: the distinguishing trace is an implementation
                // trace the specification lacks.
                assert!(weak_traces(&impl_, 4).contains(&witness));
                assert!(!weak_traces(&spec, 4).contains(&witness));
            }
            other => panic!("expected failure, got {other:?}"),
        }
    }

    #[test]
    fn fresh_name_linking_distinguishes_replays() {
        let twice = lts("(^m)(observe<m>.observe<m>)");
        let two = lts("(^m)(^n)(observe<m>.observe<n>)");
        assert!(!bisim_preorder(&twice, &two, 3).holds());
        assert!(!bisim_preorder(&two, &twice, 3).holds());
        // And alpha-variants are identified.
        let a = lts("(^m) observe<m>");
        let b = lts("(^n) observe<n>");
        assert!(bisim_preorder(&a, &b, 2).holds());
        assert!(bisim_preorder(&b, &a, 2).holds());
    }

    #[test]
    fn configuration_trace_language_equals_weak_traces() {
        for src in [
            "(^m)(c<m> | c(x).observe<x>)",
            "observe<a> | observe<b>",
            "(^kAB)((^m)c<{m}kAB> | c(z).case z of {w}kAB in observe<w>)",
        ] {
            let l = lts(src);
            assert_eq!(
                bisim_traces(&l, 4, &BisimOptions::default()),
                weak_traces(&l, 4),
                "on {src}"
            );
        }
    }

    #[test]
    fn agreement_holds_on_reduced_iso_tracked_explorations() {
        let concrete = "(^kAB)(!(^m)c<{m}kAB> | !c(z).case z of {w}kAB in observe<w>)";
        let spec = "(^s)(!s<s>.(^m)c<m> | !s@lamB(x_s).c@lamB(z).observe<z>)";
        let o = |reduce| ExploreOptions {
            unfold_bound: 2,
            budget: Budget::unlimited().states(20_000),
            reduce,
            ..ExploreOptions::default()
        };
        let ci = lts_with(concrete, o(ReduceOptions::full()));
        let si = lts_with(spec, o(ReduceOptions::full()));
        let t = trace_preorder_sound(&ci, &si, 4);
        let b = bisim_preorder_sound(&ci, &si, 4);
        assert_eq!(
            std::mem::discriminant(&t),
            std::mem::discriminant(&b),
            "engines disagree on reduced pm2: trace={t:?} bisim={b:?}"
        );
        assert_eq!(
            bisim_traces(&ci, 4, &BisimOptions::default()),
            weak_traces(&ci, 4),
            "configuration language diverged on a reduced LTS"
        );
    }

    #[test]
    fn truncation_soundness_mirrors_the_trace_engine() {
        let truncated = |src: &str| {
            Explorer::new(ExploreOptions {
                budget: Budget::unlimited().states(1),
                ..ExploreOptions::default()
            })
            .explore(&parse(src).expect("parses"))
            .expect("partial")
        };
        let small = lts("observe<a>");
        let big = lts("observe<a> | observe<b>");
        assert!(bisim_preorder_sound(&small, &big, 3).holds());
        let cut = truncated("observe<a>");
        assert!(!cut.complete());
        assert!(!bisim_preorder_sound(&cut, &big, 3).decided());
        assert!(!bisim_preorder_sound(&big, &truncated("observe<a>"), 3).decided());
        let empty = lts("0");
        assert!(bisim_preorder_sound(&empty, &truncated("observe<a>"), 3).holds());
    }

    #[test]
    fn the_planted_under_closure_is_visible_in_the_trace_language() {
        // Two distinct nonces under one key vs one nonce twice: the
        // full hedge separates them, the under-closed one cannot.
        let l = lts("(^k)(^m)(^n)(c<{m}k>.c<{n}k>)");
        let bug = BisimOptions {
            skip_analysis: true,
        };
        assert_eq!(bisim_traces(&l, 4, &BisimOptions::default()), weak_traces(&l, 4));
        assert_ne!(bisim_traces(&l, 4, &bug), weak_traces(&l, 4));
    }

    #[test]
    fn engine_flag_round_trips() {
        for e in [Engine::Trace, Engine::Bisim, Engine::Both] {
            assert_eq!(Engine::parse(e.mode()), Some(e));
            assert_eq!(e.to_string(), e.mode());
        }
        assert_eq!(Engine::parse("x"), None);
        assert_eq!(Engine::default(), Engine::Trace);
        assert!(Engine::Both.runs_trace() && Engine::Both.runs_bisim());
        assert!(!Engine::Trace.runs_bisim() && !Engine::Bisim.runs_trace());
    }
}
