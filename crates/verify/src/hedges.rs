//! Hedges: symbolic environment knowledge for the bisimulation engine.
//!
//! A *hedge* (Borgström–Nestmann; Mansutti–Miculan, "Deciding Hedged
//! Bisimilarity") is a finite set of pairs `(M, N)` of messages that the
//! environment cannot tell apart — `M` observed from one run, `N` from
//! the other.  The set is kept closed under **analysis**: a pair of
//! pairs decomposes into its component pairs, and a pair of ciphertexts
//! decomposes into its body pairs once the environment can *synthesize*
//! the key pair.  A hedge is **consistent** when, after analysis, the
//! irreducible pairs form an injective correspondence between the fresh
//! names of the two runs (and free names match by spelling): any
//! violation is an experiment the environment could run to tell the two
//! sides apart.
//!
//! Two views live here:
//!
//! * [`Hedge`] — the general pair set with `analyze`/`synthesizes`/
//!   `consistent`, used directly by property tests (closure idempotence,
//!   termination) and by the conformance oracle's shrunken witnesses;
//! * [`EnvKnowledge`] — the specialization the on-the-fly checker in
//!   [`crate::bisim`] walks with: the hedge pairing one run's raw fresh
//!   names against the *canonical environment names* (trace-local
//!   indices) the tester mints on first extraction.  Rendering an
//!   observation through this hedge factors the pairwise
//!   indistinguishability test of hedged bisimulation through a common
//!   canonical form, which is what lets configurations of many members
//!   share one matching step.
//!
//! Over the observations our explorer exposes (full message structure
//! plus creator stamps), the tester of Definition 4 observes structure
//! even under encryption — matching and address matching apply to every
//! extractable position, and the trace semantics canonicalizes the
//! whole payload.  The analysis rules here therefore decompose both
//! pairs *and* ciphertexts; the planted-bug switch
//! [`EnvKnowledge::with_skipped_analysis`] disables the ciphertext rule
//! so the hedge under-closes, which is exactly the defect the `engines`
//! conformance oracle exists to catch.

use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::fmt::Write as _;

use spi_semantics::PathPerm;

use crate::obs::{write_creator, write_path, Names};
use crate::{ObsEvent, ObsTerm};

/// A general hedge: irreducible indistinguishable message pairs, kept
/// closed under analysis.
///
/// # Example
///
/// ```
/// use spi_verify::{Hedge, ObsTerm};
/// use spi_syntax::Name;
///
/// let fresh = |nonce| ObsTerm::Fresh { nonce, creator: "00".parse().unwrap() };
/// let mut h = Hedge::new();
/// // A pair of pairs analyzes into its components.
/// let left = ObsTerm::Pair(Box::new(fresh(1)), Box::new(fresh(2)), None);
/// let right = ObsTerm::Pair(Box::new(fresh(7)), Box::new(fresh(8)), None);
/// assert!(h.extend(left, right));
/// assert_eq!(h.len(), 2, "two irreducible name pairs");
/// assert!(h.consistent());
/// // Mapping one name to two different partners is inconsistent.
/// assert!(h.extend(fresh(1), fresh(9)));
/// assert!(!h.consistent());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Hedge {
    /// Irreducible pairs after analysis.
    pairs: BTreeSet<(ObsTerm, ObsTerm)>,
    /// Structure clash seen while analyzing (shape or creator mismatch).
    clash: bool,
    /// Planted-bug switch: skip the ciphertext analysis rule.
    skip_analysis: bool,
}

impl Hedge {
    /// The empty hedge.
    #[must_use]
    pub fn new() -> Hedge {
        Hedge::default()
    }

    /// A hedge with the ciphertext analysis rule disabled — the planted
    /// bug behind the `bisim-skip-analysis` conformance injection.
    /// Ciphertext pairs stay atomic, so the hedge under-closes and the
    /// correspondence it builds is blind to names under encryption.
    #[doc(hidden)]
    #[must_use]
    pub fn with_skipped_analysis() -> Hedge {
        Hedge {
            skip_analysis: true,
            ..Hedge::default()
        }
    }

    /// Number of irreducible pairs currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Returns `true` when no pair has been added.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Adds a pair and re-closes the hedge under analysis.  Returns
    /// `false` when the pair's structures clash (different shapes,
    /// arities or creator stamps) — a distinguishing experiment in
    /// itself, recorded so [`Hedge::consistent`] answers `false`.
    ///
    /// Analysis terminates: each decomposition step replaces a pair by
    /// strictly smaller subterm pairs, and the saturation loop re-scans
    /// held ciphertext pairs only when a new pair landed.
    pub fn extend(&mut self, left: ObsTerm, right: ObsTerm) -> bool {
        let mut work = vec![(left, right)];
        while let Some((l, r)) = work.pop() {
            if !self.analyze(l, r, &mut work) {
                self.clash = true;
            }
            // Saturate: a ciphertext pair held atomically may become
            // analyzable once its key pair is synthesizable.
            if work.is_empty() && !self.skip_analysis {
                let ready: Vec<(ObsTerm, ObsTerm)> = self
                    .pairs
                    .iter()
                    .filter(|(a, b)| self.enc_analyzable(a, b))
                    .cloned()
                    .collect();
                for pair in ready {
                    self.pairs.remove(&pair);
                    work.push(pair);
                }
            }
        }
        !self.clash
    }

    /// One analysis step: decompose `l`/`r` or store them irreducibly.
    fn analyze(&mut self, l: ObsTerm, r: ObsTerm, work: &mut Vec<(ObsTerm, ObsTerm)>) -> bool {
        match (l, r) {
            (ObsTerm::Pair(a1, b1, c1), ObsTerm::Pair(a2, b2, c2)) => {
                // Projection is always available to the environment.
                work.push((*a1, *a2));
                work.push((*b1, *b2));
                c1 == c2
            }
            (ObsTerm::Enc(b1, k1, c1), ObsTerm::Enc(b2, k2, c2)) => {
                if b1.len() != b2.len() || c1 != c2 {
                    return false;
                }
                let (l, r) = (ObsTerm::Enc(b1, k1, c1), ObsTerm::Enc(b2, k2, c2));
                if self.enc_analyzable(&l, &r) {
                    work.push(decompose_enc(l, r));
                } else {
                    self.pairs.insert((l, r));
                }
                true
            }
            (l, r) => {
                let ok = matches!(
                    (&l, &r),
                    (ObsTerm::Free(a), ObsTerm::Free(b)) if a == b
                ) || matches!((&l, &r), (ObsTerm::Fresh { .. }, ObsTerm::Fresh { .. }));
                self.pairs.insert((l, r));
                ok
            }
        }
    }

    /// Returns `true` when a held ciphertext pair can be analyzed: the
    /// decryption-key pair is synthesizable from the rest of the hedge.
    fn enc_analyzable(&self, l: &ObsTerm, r: &ObsTerm) -> bool {
        if self.skip_analysis {
            return false;
        }
        match (l, r) {
            (ObsTerm::Enc(_, k1, _), ObsTerm::Enc(_, k2, _)) => self.synthesizes(k1, k2),
            _ => false,
        }
    }

    /// Synthesis: can the environment build the pair `(l, r)` from its
    /// knowledge?  Irreducible pairs are lookups; free names are known
    /// by spelling; composites synthesize component-wise (with matching
    /// creator stamps, which address matching observes).
    #[must_use]
    pub fn synthesizes(&self, l: &ObsTerm, r: &ObsTerm) -> bool {
        if self.pairs.contains(&(l.clone(), r.clone())) {
            return true;
        }
        match (l, r) {
            (ObsTerm::Free(a), ObsTerm::Free(b)) => a == b,
            (ObsTerm::Pair(a1, b1, c1), ObsTerm::Pair(a2, b2, c2)) => {
                c1 == c2 && self.synthesizes(a1, a2) && self.synthesizes(b1, b2)
            }
            (ObsTerm::Enc(b1, k1, c1), ObsTerm::Enc(b2, k2, c2)) => {
                b1.len() == b2.len()
                    && c1 == c2
                    && self.synthesizes(k1, k2)
                    && b1.iter().zip(b2).all(|(x, y)| self.synthesizes(x, y))
            }
            _ => false,
        }
    }

    /// Consistency: no structure clash was recorded, every free pair
    /// matches by spelling, fresh pairs pair fresh with fresh, and the
    /// name-level correspondence is injective in both directions.
    #[must_use]
    pub fn consistent(&self) -> bool {
        if self.clash {
            return false;
        }
        let mut fwd: BTreeMap<&ObsTerm, &ObsTerm> = BTreeMap::new();
        let mut bwd: BTreeMap<&ObsTerm, &ObsTerm> = BTreeMap::new();
        for (l, r) in &self.pairs {
            match (l, r) {
                (ObsTerm::Free(a), ObsTerm::Free(b)) if a == b => {}
                (ObsTerm::Fresh { .. }, ObsTerm::Fresh { .. })
                | (ObsTerm::Enc(..), ObsTerm::Enc(..)) => {
                    if *fwd.entry(l).or_insert(r) != r || *bwd.entry(r).or_insert(l) != l {
                        return false;
                    }
                }
                _ => return false,
            }
        }
        true
    }

    /// The irreducible pairs, for inspection in tests and shrinking.
    pub fn iter(&self) -> impl Iterator<Item = &(ObsTerm, ObsTerm)> {
        self.pairs.iter()
    }
}

/// Rebuilds the worklist entry for an analyzable ciphertext pair: bodies
/// zip up (and the keys, already synthesizable, re-enter as a pair so
/// their correspondence is recorded too).
fn decompose_enc(l: ObsTerm, r: ObsTerm) -> (ObsTerm, ObsTerm) {
    match (l, r) {
        (ObsTerm::Enc(b1, k1, c), ObsTerm::Enc(b2, k2, _)) => (
            b1.into_iter()
                .rev()
                .fold(*k1, |acc, x| ObsTerm::Pair(Box::new(x), Box::new(acc), c.clone())),
            b2.into_iter()
                .rev()
                .fold(*k2, |acc, x| ObsTerm::Pair(Box::new(x), Box::new(acc), c.clone())),
        ),
        _ => unreachable!("only called on ciphertext pairs"),
    }
}

/// The run↔environment hedge the on-the-fly checker carries per
/// configuration member: one run's raw fresh names paired against the
/// canonical indices the environment assigns on first extraction.
///
/// [`EnvKnowledge::observe`] renders an observation in the environment's
/// coordinates; with full analysis the rendering coincides exactly with
/// [`crate::TraceRenamer`] (same strings, byte for byte), which is the
/// bridge between the bisimulation engine's witnesses and the trace
/// engine's canonical traces.  Under the planted
/// `bisim-skip-analysis` bug the hedge cannot look under encryption, so
/// names inside ciphertexts render as the unlinkable placeholder `n?` —
/// the under-closure the `engines` oracle detects.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EnvKnowledge {
    /// Raw nonce → canonical environment index, in first-extraction
    /// order.
    names: Names,
    /// Planted-bug switch: ciphertexts are opaque to analysis.
    skip_analysis: bool,
}

impl EnvKnowledge {
    /// Fresh knowledge for a new run pair.
    #[must_use]
    pub fn new() -> EnvKnowledge {
        EnvKnowledge::default()
    }

    /// Knowledge with the ciphertext analysis rule disabled (the
    /// `bisim-skip-analysis` planted bug).
    #[doc(hidden)]
    #[must_use]
    pub fn with_skipped_analysis() -> EnvKnowledge {
        EnvKnowledge {
            skip_analysis: true,
            ..EnvKnowledge::default()
        }
    }

    /// Knowledge picking a run up mid-way: the first `next` environment
    /// indices are taken, and `seen` maps the raw nonces already
    /// extracted to theirs.
    pub(crate) fn resume(&self, seen: &[(u32, u32)], next: u32) -> EnvKnowledge {
        EnvKnowledge {
            names: Names::resume(seen, next),
            skip_analysis: self.skip_analysis,
        }
    }

    /// The nonces extracted since the knowledge was resumed, with their
    /// environment indices.
    pub(crate) fn named(&self) -> &[(u32, u32)] {
        self.names.named()
    }

    /// Number of fresh names the environment has extracted so far.
    #[must_use]
    pub fn extracted(&self) -> usize {
        self.names.len()
    }

    /// Renders one observation in canonical environment coordinates,
    /// extending the hedge with any newly extracted fresh names.
    pub fn observe(&mut self, ev: &ObsEvent) -> String {
        self.observe_in(ev, &PathPerm::identity())
    }

    /// [`EnvKnowledge::observe`] for an event whose positions are mapped
    /// through `perm` first.
    pub(crate) fn observe_in(&mut self, ev: &ObsEvent, perm: &PathPerm) -> String {
        let mut out = String::new();
        let _ = write!(out, "{}!", ev.chan);
        self.render(&ev.payload, perm, false, &mut out);
        out
    }

    /// Renders one term; `opaque` is set inside a ciphertext the hedge
    /// refused to analyze.
    fn render(&mut self, t: &ObsTerm, perm: &PathPerm, opaque: bool, out: &mut String) {
        match t {
            ObsTerm::Free(n) => {
                let _ = write!(out, "f:{n}");
            }
            ObsTerm::Fresh { nonce, creator } => {
                if opaque {
                    // Under an unanalyzed ciphertext the environment
                    // cannot extract the name, so it gets no index and
                    // occurrences cannot be linked.
                    out.push_str("n?@");
                } else {
                    let _ = write!(out, "n{}@", self.names.index(*nonce));
                }
                write_path(creator, perm, out);
            }
            ObsTerm::Pair(a, b, creator) => {
                out.push('(');
                self.render(a, perm, opaque, out);
                out.push(',');
                self.render(b, perm, opaque, out);
                out.push(')');
                write_creator(creator.as_ref(), perm, out);
            }
            ObsTerm::Enc(body, key, creator) => {
                let inner_opaque = opaque || self.skip_analysis;
                out.push('{');
                for (i, x) in body.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    self.render(x, perm, inner_opaque, out);
                }
                out.push('}');
                self.render(key, perm, inner_opaque, out);
                write_creator(creator.as_ref(), perm, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceRenamer;
    use spi_addr::Path;
    use spi_syntax::Name;

    fn p(s: &str) -> Path {
        s.parse().expect("valid path")
    }

    fn fresh(nonce: u32) -> ObsTerm {
        ObsTerm::Fresh {
            nonce,
            creator: p("00"),
        }
    }

    fn enc(body: Vec<ObsTerm>, key: ObsTerm) -> ObsTerm {
        ObsTerm::Enc(body, Box::new(key), Some(p("00")))
    }

    #[test]
    fn analysis_decomposes_pairs_to_name_pairs() {
        let mut h = Hedge::new();
        let l = ObsTerm::Pair(Box::new(fresh(1)), Box::new(fresh(2)), None);
        let r = ObsTerm::Pair(Box::new(fresh(5)), Box::new(fresh(6)), None);
        assert!(h.extend(l, r));
        assert_eq!(h.len(), 2);
        assert!(h.consistent());
        assert!(h.synthesizes(&fresh(1), &fresh(5)));
        assert!(!h.synthesizes(&fresh(1), &fresh(6)));
    }

    #[test]
    fn ciphertexts_stay_atomic_until_the_key_is_known() {
        let mut h = Hedge::new();
        let ct = |m, k| enc(vec![fresh(m)], fresh(k));
        assert!(h.extend(ct(1, 2), ct(5, 6)));
        assert_eq!(h.len(), 1, "undecryptable ciphertext held atomically");
        assert!(!h.synthesizes(&fresh(1), &fresh(5)), "body not extracted");
        // Learning the key pair saturates the held ciphertext.
        assert!(h.extend(fresh(2), fresh(6)));
        assert!(h.synthesizes(&fresh(1), &fresh(5)), "body extracted");
        assert!(h.consistent());
    }

    #[test]
    fn skipped_analysis_never_opens_ciphertexts() {
        let mut h = Hedge::with_skipped_analysis();
        let ct = |m, k| enc(vec![fresh(m)], fresh(k));
        assert!(h.extend(ct(1, 2), ct(5, 6)));
        assert!(h.extend(fresh(2), fresh(6)));
        assert!(
            !h.synthesizes(&fresh(1), &fresh(5)),
            "the planted bug keeps the ciphertext opaque"
        );
    }

    #[test]
    fn inconsistency_is_a_distinguishing_experiment() {
        let mut h = Hedge::new();
        assert!(h.extend(fresh(1), fresh(5)));
        assert!(h.extend(fresh(1), fresh(6)), "no structural clash");
        assert!(!h.consistent(), "one name with two partners");
        let mut h = Hedge::new();
        assert!(
            !h.extend(ObsTerm::Free(Name::new("a")), fresh(5)),
            "free against fresh clashes"
        );
        assert!(!h.consistent());
    }

    #[test]
    fn env_knowledge_matches_the_trace_renamer_byte_for_byte() {
        let ev = ObsEvent {
            chan: Name::new("c"),
            payload: ObsTerm::Pair(
                Box::new(enc(vec![fresh(3), fresh(4)], ObsTerm::Free(Name::new("k")))),
                Box::new(fresh(3)),
                Some(p("010")),
            ),
        };
        let mut k = EnvKnowledge::new();
        let mut r = TraceRenamer::new();
        assert_eq!(k.observe(&ev), r.canon(&ev));
        // And on a second event, linking included.
        let ev2 = ObsEvent {
            chan: Name::new("d"),
            payload: fresh(4),
        };
        assert_eq!(k.observe(&ev2), r.canon(&ev2));
    }

    #[test]
    fn skipped_analysis_erases_linking_under_encryption() {
        let ct = |m| ObsEvent {
            chan: Name::new("c"),
            payload: enc(vec![fresh(m)], ObsTerm::Free(Name::new("k"))),
        };
        let mut full = EnvKnowledge::new();
        let a = full.observe(&ct(1));
        let b = full.observe(&ct(2));
        assert_ne!(a, b, "full analysis links names under encryption");
        let mut bugged = EnvKnowledge::with_skipped_analysis();
        let a = bugged.observe(&ct(1));
        let b = bugged.observe(&ct(2));
        assert_eq!(a, b, "the under-closed hedge cannot tell them apart");
        assert!(a.contains("n?"), "placeholder rendering: {a}");
    }
}
