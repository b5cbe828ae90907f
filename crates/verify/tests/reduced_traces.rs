//! Regression tests for trace extraction on reduced explorations: the
//! weak-visible layer walks a symmetry-quotiented, POR-pruned LTS in
//! state-local coordinates, and must still spell out exactly the weak
//! trace set of the unreduced system — through both engines' renderers —
//! and keep every verdict and witness of the paper's questions.
//!
//! The unreduced side is a default exploration: every exploration records
//! the renaming of each state merge, so a fresh name keeps one identity
//! along a whole trace whether or not a reduction ran.

use spi_protocols::reflection;
use spi_syntax::parse;
use spi_verify::{
    bisim_preorder_sound, bisim_traces, trace_preorder_sound, weak_traces, BisimOptions, Budget,
    ExploreOptions, Explorer, IntruderSpec, Lts, ReduceOptions, TraceVerdict, Verifier,
};

const PM: &str = include_str!("../../../examples/protocols/pm.spi");
const PM2: &str = include_str!("../../../examples/protocols/pm2.spi");
const PM3: &str = include_str!("../../../examples/protocols/pm3.spi");

/// Visible depth of the paper's questions.
const VISIBLE: usize = 6;

/// `src` under the most-general intruder on `c`, as the verifier
/// explores it.
fn explore(src: &str, sessions: u32, reduce: ReduceOptions) -> Lts {
    let system = Verifier::new(["c"]).under_attack(&parse(src).expect("parses"));
    Explorer::new(ExploreOptions {
        budget: Budget::unlimited().states(400_000),
        unfold_bound: sessions,
        intruder: Some(IntruderSpec::new("1".parse().expect("path"), ["c"])),
        workers: 1,
        reduce,
        ..ExploreOptions::default()
    })
    .explore(&system)
    .expect("explores")
}

/// Asserts that the reduced exploration of `src` spells out exactly the
/// unreduced weak trace set, of `count` traces.
fn assert_reduced_traces_exact(name: &str, src: &str, sessions: u32, count: usize) {
    let plain = explore(src, sessions, ReduceOptions::none());
    let reduced = explore(src, sessions, ReduceOptions::full());
    assert!(plain.complete() && reduced.complete(), "{name}@{sessions}");
    assert!(
        reduced.stats.states < plain.stats.states,
        "{name}@{sessions}: the reduction must bite"
    );
    let want = weak_traces(&plain, VISIBLE);
    assert_eq!(want.len(), count, "{name}@{sessions}: exact trace count");
    assert_eq!(
        weak_traces(&reduced, VISIBLE),
        want,
        "{name}@{sessions}: reduced weak traces"
    );
    assert_eq!(
        bisim_traces(&reduced, VISIBLE, &BisimOptions::default()),
        want,
        "{name}@{sessions}: reduced bisimulation traces"
    );
}

// The Pm counts are the exact ones: an exploration that merged states
// without recording the renaming found 6, 28 and 191 traces at 2, 3 and
// 4 sessions, the extra ones joining two runs' nonces into one (such as
// `["observe!n0@0010", "observe!n0@000"]`, one nonce created at two
// positions).

#[test]
fn reduced_pm_at_two_sessions_keeps_its_traces() {
    assert_reduced_traces_exact("pm", PM, 2, 5);
}

#[test]
fn reduced_pm_at_three_sessions_keeps_its_traces() {
    assert_reduced_traces_exact("pm", PM, 3, 16);
}

#[test]
fn reduced_pm2_at_three_sessions_keeps_its_traces() {
    assert_reduced_traces_exact("pm2", PM2, 3, 40);
}

#[test]
fn reduced_pm_at_four_sessions_keeps_its_traces() {
    assert_reduced_traces_exact("pm", PM, 4, 65);
}

/// A lineage shift without an intruder: two identical `Y` components
/// each create a nonce, and which one speaks first decides which
/// creator position the observer sees.  A merge that does not record
/// the renaming lets a trace continue in the other run's names.
const LINEAGE_SHIFT: &str = "observe<go>.(^a)observe<a>.(^b)observe<b> \
    | (^k)(k<k> | k(z).(^y)observe<y>) | (^k)(k<k> | k(z).(^y)observe<y>)";

#[test]
fn default_explorations_keep_nonce_lineages_apart() {
    let explore = |reduce| {
        Explorer::new(ExploreOptions {
            workers: 1,
            reduce,
            ..ExploreOptions::default()
        })
        .explore(&parse(LINEAGE_SHIFT).expect("parses"))
        .expect("explores")
    };
    let plain = explore(ReduceOptions::none());
    let reduced = explore(ReduceOptions::full());
    assert!(plain.complete() && reduced.complete());
    let want = weak_traces(&plain, 5);
    // Without recorded renamings the same exploration showed 119.
    assert_eq!(want.len(), 64, "exact trace count");
    assert_eq!(weak_traces(&reduced, 5), want);
}

/// Both engines' verdicts on `concrete` against `spec` under full
/// reduction, as the verifier explores them.
fn reduced_verdicts(concrete: &str, spec: &str, sessions: u32) -> [TraceVerdict; 2] {
    let verifier = Verifier::new(["c"])
        .sessions(sessions)
        .max_visible(VISIBLE)
        .max_states(400_000)
        .workers(1)
        .reduce(ReduceOptions::full());
    let explore = |src: &str| {
        verifier
            .explore(&parse(src).expect("parses"))
            .expect("explores")
    };
    let (c, a) = (explore(concrete), explore(spec));
    [
        trace_preorder_sound(&c, &a, VISIBLE),
        bisim_preorder_sound(&c, &a, VISIBLE),
    ]
}

fn attack(witness: &[&str]) -> TraceVerdict {
    TraceVerdict::Fails {
        witness: witness.iter().map(|e| (*e).to_string()).collect(),
    }
}

#[test]
fn the_reduced_paper_questions_keep_their_verdicts_and_witnesses() {
    let bidir = reflection::bidirectional_abstract("c", "oa", "ob")
        .expect("the channel names are not reserved")
        .to_string();
    let e9 = reflection::bidirectional_challenge_response("c", "oa", "ob").to_string();
    let e10 = reflection::bidirectional_tagged("c", "oa", "ob").to_string();
    let replay = attack(&["observe!n0@000", "observe!n0@000"]);
    let reflected = attack(&["oa!n0@0000"]);
    let holds = TraceVerdict::Holds { checked: 5 };
    for (name, concrete, spec, sessions, want) in [
        ("pm2-vs-pm@4", PM2, PM, 4, &replay),
        ("pm3-vs-pm@2", PM3, PM, 2, &holds),
        (
            "e9-reflection@1",
            e9.as_str(),
            bidir.as_str(),
            1,
            &reflected,
        ),
        ("e10-tagged@1", e10.as_str(), bidir.as_str(), 1, &holds),
    ] {
        let [trace, bisim] = reduced_verdicts(concrete, spec, sessions);
        assert_eq!(&trace, want, "{name}: trace engine");
        assert_eq!(&bisim, want, "{name}: bisimulation engine");
    }
}
