//! `verify-reduced` and `verify-plain`: the four paper questions through
//! `Verifier::check`, timed per question, checked against the paper.

use crate::layers::{layer_metrics, timed, trace_question};
use crate::questions::{paper_questions, Config};
use crate::report::Metrics;
use crate::stats::{geomean, median, shuffle};
use crate::yardstick::Yardstick;
use crate::{median_of_passes, repeat_within, setup_batch, Outcome, Run};
use spi_auth::conformance::rng::Rng;

/// Each question is checked at least once per pass, and again until a
/// pass has spent this long on it.
const MIN_QUESTION_MS: f64 = 1500.0;

/// Untraced: end-to-end metrics.  `wall_s` is the time to decide the
/// whole question set once: the sum of the per-question medians;
/// `wall_rel` is that time in yardsticks.
pub fn run(run: &Run, cfg: &Config) -> Outcome {
    let questions = paper_questions();
    let mut out = Outcome::default();
    let make = || {
        questions
            .iter()
            .map(|q| q.parse().map(|pair| (pair, q.verifier(cfg))))
            .collect::<Result<Vec<_>, String>>()
    };
    let (prepared, setup) = setup_batch(make, drop);
    let mut setup = vec![setup];
    let prepared = match prepared {
        Ok(p) => p,
        Err(e) => {
            out.ledger.check(Some(e));
            return out;
        }
    };
    let mut rng = Rng::new(run.seed, 0);
    let mut per_question: Vec<Vec<f64>> = vec![Vec::new(); questions.len()];
    let mut states = vec![(0, 0); questions.len()];
    let mut yard = Yardstick::build();
    let passes = repeat_within(run.seconds, || {
        let mut order: Vec<usize> = (0..questions.len()).collect();
        shuffle(&mut rng, &mut order);
        for i in order {
            let ((c, a), verifier) = &prepared[i];
            // Small questions repeat so that each pass gives every
            // question about the same measured time.
            let mut spent = 0.0;
            while spent < MIN_QUESTION_MS {
                let (report, ms) = timed(|| verifier.check(c, a));
                per_question[i].push(ms);
                spent += ms;
                out.ledger.check(match report {
                    Ok(r) => {
                        states[i] = (r.concrete_stats.states, r.abstract_stats.states);
                        questions[i].judge(&r.verdict)
                    }
                    Err(e) => Some(format!("{}: {e}", questions[i].id)),
                });
            }
            yard.sample();
            setup.push(setup_batch(make, drop).1);
        }
    });
    let medians: Vec<f64> = per_question
        .iter()
        .map(|xs| median(xs).unwrap_or(0.0))
        .collect();
    for ((q, ms), (n, (cs, as_))) in questions
        .iter()
        .zip(&medians)
        .zip(per_question.iter().map(Vec::len).zip(&states))
    {
        out.lines.push(format!(
            "{:<18} {:>7} ({})  median {ms:>10.2} ms of {n}  states {cs}/{as_}",
            q.id,
            q.expect.word(),
            q.source
        ));
    }
    out.lines.push(format!(
        "{passes} passes over {} questions",
        questions.len()
    ));
    let m = &mut out.metrics;
    m.set("setup_s", median(&setup).unwrap_or(0.0), "s");
    let (wall_ms, geomean_ms) = (
        medians.iter().sum::<f64>(),
        geomean(&medians).unwrap_or(0.0),
    );
    m.set("wall_s", wall_ms / 1e3, "s");
    m.set("verdict_geomean_ms", geomean_ms, "ms");
    m.set("yardstick_ms", yard.median_ms(), "ms");
    m.set("wall_rel", yard.rel(wall_ms), "yardsticks");
    m.set("verdict_geomean_rel", yard.rel(geomean_ms), "yardsticks");
    out
}

/// Traced: per-layer metrics from the decomposition of every question.
pub fn run_traced(run: &Run, cfg: &Config, tracer: &mut crate::trace::Tracer) -> Outcome {
    let questions = paper_questions();
    let mut out = Outcome::default();
    let mut passes: Vec<Metrics> = Vec::new();
    repeat_within(run.seconds, || {
        let mut layers = Vec::new();
        for q in &questions {
            let (l, problems) = trace_question(tracer, q, cfg);
            out.lines.push(format!(
                "{:<18} check {:>9.2} ms  traced {:>9.2} ms  coverage {:.3}",
                q.id,
                l.check_ms,
                l.traced_ms,
                l.coverage()
            ));
            out.ledger
                .check((!problems.is_empty()).then(|| problems.join("; ")));
            layers.push(l);
        }
        let mut m = Metrics::default();
        layer_metrics(&mut m, &layers);
        passes.push(m);
    });
    out.metrics = median_of_passes(&passes);
    out
}
