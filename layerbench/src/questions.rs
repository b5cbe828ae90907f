//! The questions the workloads ask, each with the answer the paper
//! gives (never the answer the program happens to give).

use spi_auth::protocols::reflection;
use spi_auth::syntax::{parse, Process};
use spi_auth::{Engine, ReduceOptions, Verdict, Verifier};

/// The paper's abstract multisession protocol `Pm` (Section 5.2).
pub const PM: &str = include_str!("../../examples/protocols/pm.spi");
/// `Pm2`: naive replication of `P2`, open to replay.
pub const PM2: &str = include_str!("../../examples/protocols/pm2.spi");
/// `Pm3`: the nonce challenge-response repair.
pub const PM3: &str = include_str!("../../examples/protocols/pm3.spi");

/// State budget per exploration: far above every question here, so a
/// verdict is never inconclusive for lack of states.
pub const MAX_STATES: usize = 400_000;

/// No state-space reduction (the wire and CLI default).
pub const NO_REDUCTION: ReduceOptions = ReduceOptions {
    symmetry: false,
    por: false,
};

/// Narration roles of the bidirectional (E9/E10) systems.
const BIDIR_ROLES: [(&str, &str); 4] = [
    ("A.resp", "00"),
    ("A.chal", "01"),
    ("B.resp", "10"),
    ("B.chal", "11"),
];

/// What the paper says the answer is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// A distinguishing attack exists.
    Attack,
    /// The concrete protocol securely implements the abstract one.
    Holds,
}

impl Expect {
    /// `"attack"` or `"holds"`.
    #[must_use]
    pub fn word(self) -> &'static str {
        match self {
            Expect::Attack => "attack",
            Expect::Holds => "holds",
        }
    }
}

/// One verification question in source form.
#[derive(Debug, Clone)]
pub struct Question {
    /// Stable id, e.g. `pm2-vs-pm@4`.
    pub id: String,
    /// Concrete protocol source.
    pub concrete: String,
    /// Abstract specification source.
    pub abstract_spec: String,
    /// Replication bound.
    pub sessions: u32,
    /// Visible-trace depth.
    pub visible: usize,
    /// Explore without the most-general intruder.
    pub no_intruder: bool,
    /// Uses the four-role narration layout of E9/E10.
    pub bidirectional: bool,
    /// The paper's answer.
    pub expect: Expect,
    /// Where the paper gives that answer.
    pub source: &'static str,
}

/// Engine settings a workload applies to every question.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// State-space reductions.
    pub reduce: ReduceOptions,
    /// Decision procedure(s).
    pub engine: Engine,
}

impl Question {
    fn new(
        id: &str,
        concrete: &str,
        spec: &str,
        sessions: u32,
        expect: Expect,
        source: &'static str,
    ) -> Question {
        Question {
            id: id.to_string(),
            concrete: concrete.to_string(),
            abstract_spec: spec.to_string(),
            sessions,
            visible: 6,
            no_intruder: false,
            bidirectional: false,
            expect,
            source,
        }
    }

    /// Parses both sides.
    ///
    /// # Errors
    ///
    /// The rendered syntax error of either side.
    pub fn parse(&self) -> Result<(Process, Process), String> {
        let c = parse(&self.concrete).map_err(|e| format!("{}: concrete: {e}", self.id))?;
        let a = parse(&self.abstract_spec).map_err(|e| format!("{}: abstract: {e}", self.id))?;
        Ok((c, a))
    }

    /// The verifier this question runs under `cfg`.
    #[must_use]
    pub fn verifier(&self, cfg: &Config) -> Verifier {
        let mut v = Verifier::new(["c"])
            .sessions(self.sessions)
            .max_visible(self.visible)
            .max_states(MAX_STATES)
            .workers(crate::EXPLORE_WORKERS)
            .reduce(cfg.reduce)
            .engine(cfg.engine);
        if self.no_intruder {
            v = v.no_intruder();
        }
        if self.bidirectional {
            v = v.roles(BIDIR_ROLES);
        }
        v
    }

    /// Compares a verdict with the paper's answer; `Some(reason)` on a
    /// mismatch (including inconclusive verdicts).
    #[must_use]
    pub fn judge(&self, verdict: &Verdict) -> Option<String> {
        let got = match verdict {
            Verdict::Attack(a) => {
                if let Some(problem) = self.attack_shape(&a.trace) {
                    return Some(format!("{}: {problem}: {:?}", self.id, a.trace));
                }
                if a.narration.is_empty() || a.narration[0].starts_with("(no realization") {
                    return Some(format!("{}: attack without a narrated run", self.id));
                }
                Expect::Attack
            }
            Verdict::SecurelyImplements => Expect::Holds,
            Verdict::Inconclusive { exhausted, .. } => {
                return Some(format!("{}: inconclusive ({exhausted:?})", self.id));
            }
        };
        (got != self.expect).then(|| {
            format!(
                "{}: expected {} ({}), got {}",
                self.id,
                self.expect.word(),
                self.source,
                got.word()
            )
        })
    }

    /// The paper's attacks have a shape, not only a verdict: the `Pm2`
    /// replay shows one located message accepted twice, and the E9
    /// reflection shows a party accepting, as the peer's, a message
    /// created on its own side.
    fn attack_shape(&self, trace: &[String]) -> Option<&'static str> {
        if self.bidirectional {
            let reflected = trace.iter().any(|e| {
                (e.starts_with("oa!") && e.contains("@0"))
                    || (e.starts_with("ob!") && e.contains("@1"))
            });
            return (!reflected).then_some("the attack is not a reflection");
        }
        if self.concrete == PM2 && !self.no_intruder {
            let replayed = trace
                .iter()
                .enumerate()
                .any(|(i, e)| trace[i + 1..].contains(e));
            return (!replayed).then_some("the attack is not a replay");
        }
        None
    }
}

/// The four questions of `verify-*`: the paper's two multisession
/// results and the reflection pair it leaves as future work.
///
/// # Panics
///
/// Only if the bidirectional protocol builders break (a bug).
#[must_use]
pub fn paper_questions() -> Vec<Question> {
    let bidir_spec = reflection::bidirectional_abstract("c", "oa", "ob")
        .expect("the bidirectional channel names are not reserved")
        .to_string();
    let e9 = reflection::bidirectional_challenge_response("c", "oa", "ob").to_string();
    let e10 = reflection::bidirectional_tagged("c", "oa", "ob").to_string();
    let bidir = |id: &str, src: &str, expect, source| Question {
        bidirectional: true,
        ..Question::new(id, src, &bidir_spec, 1, expect, source)
    };
    vec![
        Question::new(
            "pm2-vs-pm@4",
            PM2,
            PM,
            4,
            Expect::Attack,
            "Section 5.2, Counterexample 2 (replay)",
        ),
        Question::new("pm3-vs-pm@2", PM3, PM, 2, Expect::Holds, "Proposition 4"),
        bidir(
            "e9-reflection@1",
            &e9,
            Expect::Attack,
            "Section 5.2 closing remark (reflection attack)",
        ),
        bidir(
            "e10-tagged@1",
            &e10,
            Expect::Holds,
            "identity-tagged repair of the reflection",
        ),
    ]
}

/// The fault-free, intruder-free base question behind a campaign: with
/// a reliable network and no attacker nothing can break either
/// protocol.
#[must_use]
pub fn campaign_base(id: &str, concrete: &str) -> Question {
    Question {
        no_intruder: true,
        ..Question::new(
            id,
            concrete,
            PM,
            2,
            Expect::Holds,
            "reliable network, no intruder",
        )
    }
}

/// The `serve-mix` working set of verify questions: `Pm2` and `Pm3`
/// against `Pm` across sessions and `visible` bounds.  Every
/// `(protocol, sessions, visible)` triple is a distinct cache digest.
#[must_use]
pub fn serve_questions() -> Vec<Question> {
    let mut out = Vec::new();
    for visible in [3, 4, 5, 6] {
        for (name, src, sessions, expect, source) in [
            (
                "pm2",
                PM2,
                1,
                Expect::Holds,
                "Section 5.2: one session of Pm2 is P2 (Proposition 2)",
            ),
            (
                "pm2",
                PM2,
                2,
                Expect::Attack,
                "Section 5.2, Counterexample 2 (replay)",
            ),
            (
                "pm2",
                PM2,
                3,
                Expect::Attack,
                "Section 5.2, Counterexample 2 (replay)",
            ),
            ("pm3", PM3, 1, Expect::Holds, "Proposition 4"),
            ("pm3", PM3, 2, Expect::Holds, "Proposition 4"),
        ] {
            out.push(Question {
                visible,
                ..Question::new(
                    &format!("{name}-vs-pm@{sessions}/v{visible}"),
                    src,
                    PM,
                    sessions,
                    expect,
                    source,
                )
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_question_parses_and_printing_round_trips() {
        for q in paper_questions().iter().chain(&serve_questions()) {
            let (c, a) = q.parse().expect("question parses");
            assert_eq!(
                parse(&c.to_string()).expect("reprint parses"),
                c,
                "{}",
                q.id
            );
            assert_eq!(
                parse(&a.to_string()).expect("reprint parses"),
                a,
                "{}",
                q.id
            );
        }
    }

    #[test]
    fn the_serve_working_set_has_distinct_questions() {
        let qs = serve_questions();
        let mut ids: Vec<&str> = qs.iter().map(|q| q.id.as_str()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), qs.len());
    }

    #[test]
    fn judge_rejects_wrong_and_inconclusive_verdicts() {
        let q = &paper_questions()[1];
        assert_eq!(q.expect, Expect::Holds);
        assert!(q.judge(&Verdict::SecurelyImplements).is_none());
        let wrong = Verdict::Attack(spi_auth::Attack {
            trace: vec!["observe!n0@000".into()],
            narration: vec!["Message 1".into()],
        });
        assert!(q.judge(&wrong).is_some());
        // A Pm2 "attack" that is not a replay does not match the paper.
        let pm2 = &paper_questions()[0];
        assert!(pm2.judge(&wrong).is_some());
        let replay = Verdict::Attack(spi_auth::Attack {
            trace: vec!["observe!n0@000".into(), "observe!n0@000".into()],
            narration: vec!["Message 1".into()],
        });
        assert!(pm2.judge(&replay).is_none());
    }
}
