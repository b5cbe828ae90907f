//! The traced decomposition of one question, rebuilt from the
//! verifier's public pieces in pipeline order — parse, explore the
//! concrete side, explore the abstract side, decide, realize, and free
//! the explored systems as `check` does — with a span around each call,
//! plus the per-layer totals of a pass.

use std::time::Instant;

use spi_auth::verify::{
    bisim_preorder_sound, find_realization, trace_preorder_sound, weak_traces, ExploreStats,
    TraceVerdict,
};
use spi_auth::{Engine, Verdict, VerificationReport};

use crate::questions::{Config, Question};
use crate::report::Metrics;
use crate::stats::median;
use crate::trace::Tracer;

/// Times `f` in milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e3)
}

/// Untraced checks faster than this are timed a second time, warm.
const WARM_BELOW_MS: f64 = 100.0;

/// Repetitions of parse+print per question for `syntax.normalize_us`
/// (one call takes microseconds).
const NORMALIZE_REPS: usize = 25;

/// Per-side exploration figures.
#[derive(Debug, Default, Clone, Copy)]
pub struct Side {
    /// Explore wall time.
    pub explore_ms: f64,
    /// Explorer statistics.
    pub states: usize,
    /// Edges.
    pub edges: usize,
    /// Symmetry-quotient merges.
    pub quotiented: u64,
    /// POR-pruned moves.
    pub pruned: u64,
    /// `weak_traces` wall time.
    pub weak_ms: f64,
    /// Distinct weak traces.
    pub traces: usize,
}

impl Side {
    fn of(stats: &ExploreStats) -> Side {
        Side {
            states: stats.states,
            edges: stats.edges,
            quotiented: stats.states_quotiented,
            pruned: stats.por_pruned,
            ..Side::default()
        }
    }
}

/// The layer figures of one traced question.
#[derive(Debug, Default, Clone)]
pub struct QuestionLayers {
    /// Parse + print of both specs, µs per call.
    pub normalize_us: f64,
    /// Concrete then abstract side.
    pub sides: [Side; 2],
    /// `trace_preorder_sound` wall time (0 when the engine skips it).
    pub trace_ms: f64,
    /// `bisim_preorder_sound` wall time (0 when the engine skips it).
    pub bisim_ms: f64,
    /// `find_realization` wall time (attacks only).
    pub realize_ms: f64,
    /// Sum of the pipeline spans.
    pub spans_ms: f64,
    /// The traced pipeline's own wall time.
    pub traced_ms: f64,
    /// The untraced `Verifier::check` wall time of the same question
    /// (mean of a check before and one after the traced run).
    pub check_ms: f64,
}

impl QuestionLayers {
    /// Span sum ÷ untraced check wall.
    #[must_use]
    pub fn coverage(&self) -> f64 {
        self.spans_ms / self.check_ms
    }
}

/// Runs `check` untraced, then the traced decomposition, then `check`
/// again, and compares them: same verdict discriminant, same witness,
/// same state counts, and one realized step per narration line.  Returns the layer figures
/// and the problems found (empty when everything agrees).
pub fn trace_question(
    tracer: &mut Tracer,
    q: &Question,
    cfg: &Config,
) -> (QuestionLayers, Vec<String>) {
    let mut problems = Vec::new();
    let verifier = q.verifier(cfg);
    let (c, a) = match q.parse() {
        Ok(pair) => pair,
        Err(e) => return (QuestionLayers::default(), vec![e]),
    };
    let (checked, mut check_ms) = timed(|| verifier.check(&c, &a));
    let report = match checked {
        Ok(r) => r,
        Err(e) => {
            return (
                QuestionLayers::default(),
                vec![format!("{}: check failed: {e}", q.id)],
            )
        }
    };
    if check_ms < WARM_BELOW_MS {
        // A small question's first run pays for cold caches and
        // allocator growth that the traced run after it would not.
        check_ms = timed(|| verifier.check(&c, &a)).1;
    }
    problems.extend(q.judge(&report.verdict));

    let id = q.id.as_str();
    let mut layers = QuestionLayers {
        check_ms,
        ..QuestionLayers::default()
    };
    let (outcome, root) = tracer.span("question", None, id, |t, root| {
        let at = Some(root);
        let (c, a) = t.span("syntax.parse", at, id, |_, _| q.parse()).0?;
        let explore = |t: &mut Tracer, name, p| t.span(name, at, id, |_, _| verifier.explore(p)).0;
        let lc = explore(t, "explore.concrete", &c).map_err(|e| e.to_string())?;
        let la = explore(t, "explore.abstract", &a).map_err(|e| e.to_string())?;
        let vis = q.visible;
        let trace = (cfg.engine != Engine::Bisim).then(|| {
            t.span("decide.trace", at, id, |_, _| {
                trace_preorder_sound(&lc, &la, vis)
            })
            .0
        });
        let bisim = (cfg.engine != Engine::Trace).then(|| {
            t.span("decide.bisim", at, id, |_, _| {
                bisim_preorder_sound(&lc, &la, vis)
            })
            .0
        });
        let verdict = match (trace, bisim) {
            (Some(t), Some(b)) if std::mem::discriminant(&t) != std::mem::discriminant(&b) => {
                return Err(format!("{id}: engines disagree in the traced run"));
            }
            (Some(v), _) | (None, Some(v)) => v,
            (None, None) => unreachable!("every engine runs at least one procedure"),
        };
        let realized = match &verdict {
            TraceVerdict::Fails { witness } => {
                let path = t
                    .span("narrate.realize", at, id, |_, _| {
                        find_realization(&lc, witness).map(|p| p.len())
                    })
                    .0;
                Some(path.ok_or_else(|| format!("{id}: the witness has no realization"))?)
            }
            _ => None,
        };
        Ok((lc, la, verdict, realized))
    });
    let (lc, la, verdict, realized) = match outcome {
        Ok(parts) => parts,
        Err(e) => {
            problems.push(e);
            return (layers, problems);
        }
    };
    problems.extend(compare(
        q,
        &report,
        &verdict,
        realized,
        [&lc.stats, &la.stats],
    ));
    for (side, (lts, stats)) in [(&lc, &report.concrete_stats), (&la, &report.abstract_stats)]
        .into_iter()
        .enumerate()
    {
        layers.sides[side] = Side::of(stats);
        let name = ["traces.weak.concrete", "traces.weak.abstract"][side];
        let (set, probe) = tracer.span(name, None, id, |_, _| weak_traces(lts, q.visible));
        layers.sides[side].weak_ms = tracer.get(probe).ms();
        layers.sides[side].traces = set.len();
    }
    // `check` frees both explored systems before it returns; the traced
    // run frees them here, after the probes, as the pipeline's last step.
    let ((), free) = tracer.span("explore.free", Some(root), id, |_, _| drop((lc, la)));
    layers.traced_ms = tracer.get(root).ms() + tracer.get(free).ms();
    layers.spans_ms = tracer.children(root).map(crate::trace::Span::ms).sum();
    for s in tracer.children(root) {
        match s.name {
            "explore.concrete" => layers.sides[0].explore_ms = s.ms(),
            "explore.abstract" => layers.sides[1].explore_ms = s.ms(),
            "decide.trace" => layers.trace_ms = s.ms(),
            "decide.bisim" => layers.bisim_ms = s.ms(),
            "narrate.realize" => layers.realize_ms = s.ms(),
            _ => {}
        }
    }
    layers.normalize_us = normalize_us(tracer, q);
    // The untraced wall is the mean of one check before and one after
    // the traced run, so drift in the host's speed cancels out of
    // coverage and overhead.
    let (again, after_ms) = timed(|| verifier.check(&c, &a));
    if again.as_ref().map(|r| &r.verdict) != Ok(&report.verdict) {
        problems.push(format!("{}: a repeated check changed its verdict", q.id));
    }
    layers.check_ms = (check_ms + after_ms) / 2.0;
    (layers, problems)
}

/// Median µs of one parse+print of both specs — what the server pays to
/// normalize a request before it can even probe its cache.
fn normalize_us(tracer: &mut Tracer, q: &Question) -> f64 {
    let mut samples = Vec::with_capacity(NORMALIZE_REPS);
    for _ in 0..NORMALIZE_REPS {
        let (printed, id) = tracer.span("syntax.normalize", None, &q.id, |_, _| {
            q.parse()
                .map(|(c, a)| c.to_string().len() + a.to_string().len())
        });
        std::hint::black_box(printed.ok());
        samples.push(tracer.get(id).ms() * 1e3);
    }
    median(&samples).unwrap_or(0.0)
}

fn compare(
    q: &Question,
    report: &VerificationReport,
    traced: &TraceVerdict,
    realized: Option<usize>,
    stats: [&ExploreStats; 2],
) -> Vec<String> {
    let mut problems = Vec::new();
    let same = match (&report.verdict, traced) {
        (Verdict::SecurelyImplements, TraceVerdict::Holds { .. }) => true,
        (Verdict::Attack(a), TraceVerdict::Fails { witness }) => {
            if realized != Some(a.narration.len()) {
                problems.push(format!(
                    "{}: {} narration lines for a {:?}-step realization",
                    q.id,
                    a.narration.len(),
                    realized
                ));
            }
            a.trace == *witness
        }
        _ => false,
    };
    if !same {
        problems.push(format!(
            "{}: traced verdict differs from check: {:?} vs {:?}",
            q.id, traced, report.verdict
        ));
    }
    if *stats[0] != report.concrete_stats || *stats[1] != report.abstract_stats {
        problems.push(format!("{}: traced exploration differs from check", q.id));
    }
    problems
}

/// Per-layer metrics of one pass over `questions` (sums over questions;
/// rates from the sums).
pub fn layer_metrics(m: &mut Metrics, questions: &[QuestionLayers]) {
    let sum = |f: &dyn Fn(&QuestionLayers) -> f64| questions.iter().map(f).sum::<f64>();
    let normalize: Vec<f64> = questions.iter().map(|q| q.normalize_us).collect();
    m.set(
        "syntax.normalize_us",
        median(&normalize).unwrap_or(0.0),
        "us",
    );
    for (i, side) in ["concrete", "abstract"].into_iter().enumerate() {
        let ms = sum(&|q| q.sides[i].explore_ms);
        #[allow(clippy::cast_precision_loss)]
        let count = |f: &dyn Fn(&Side) -> f64| sum(&|q| f(&q.sides[i]));
        #[allow(clippy::cast_precision_loss)]
        let states = count(&|s| s.states as f64);
        #[allow(clippy::cast_precision_loss)]
        let quotiented = count(&|s| s.quotiented as f64);
        m.set(format!("explore.{side}.ms"), ms, "ms");
        m.set(format!("explore.{side}.states"), states, "count");
        #[allow(clippy::cast_precision_loss)]
        m.set(
            format!("explore.{side}.edges"),
            count(&|s| s.edges as f64),
            "count",
        );
        m.set(
            format!("explore.{side}.us_per_state"),
            if states > 0.0 { ms * 1e3 / states } else { 0.0 },
            "us",
        );
        m.set(
            format!("explore.{side}.states_quotiented"),
            quotiented,
            "count",
        );
        #[allow(clippy::cast_precision_loss)]
        m.set(
            format!("explore.{side}.por_pruned"),
            count(&|s| s.pruned as f64),
            "count",
        );
        let seen = states + quotiented;
        m.set(
            format!("explore.{side}.quotient_yield"),
            if seen > 0.0 { quotiented / seen } else { 0.0 },
            "ratio",
        );
        m.set(
            format!("traces.{side}.weak_ms"),
            count(&|s| s.weak_ms),
            "ms",
        );
        #[allow(clippy::cast_precision_loss)]
        m.set(
            format!("traces.{side}.count"),
            count(&|s| s.traces as f64),
            "count",
        );
    }
    m.set("decide.trace_ms", sum(&|q| q.trace_ms), "ms");
    m.set("decide.bisim_ms", sum(&|q| q.bisim_ms), "ms");
    m.set("narrate.realize_ms", sum(&|q| q.realize_ms), "ms");
    let coverage = questions
        .iter()
        .map(QuestionLayers::coverage)
        .fold(f64::INFINITY, f64::min);
    m.set(
        "trace.coverage",
        if coverage.is_finite() { coverage } else { 0.0 },
        "ratio",
    );
    let checked = sum(&|q| q.check_ms);
    m.set(
        "trace.overhead",
        if checked > 0.0 {
            sum(&|q| q.traced_ms) / checked - 1.0
        } else {
            0.0
        },
        "ratio",
    );
}
