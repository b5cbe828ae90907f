//! `campaign-faults`: `Verifier::run_campaign` with no intruder under
//! every fault schedule up to a depth, cross-checked by both engines.

use std::time::Instant;

use spi_auth::syntax::Process;
use spi_auth::{CampaignOptions, CampaignReport, Engine, Verifier};

use crate::layers::{layer_metrics, timed, trace_question};
use crate::questions::{campaign_base, Config, Question, NO_REDUCTION, PM2, PM3};
use crate::report::Metrics;
use crate::stats::{geomean, median, shuffle};
use crate::trace::Tracer;
use crate::yardstick::Yardstick;
use crate::{median_of_passes, repeat_within, setup_batch, Outcome, Run};
use spi_auth::conformance::rng::Rng;

const CONFIG: Config = Config {
    reduce: NO_REDUCTION,
    engine: Engine::Both,
};

/// One campaign instance and the paper's answer for it.
struct Instance {
    /// `pm2` or `pm3`.
    name: &'static str,
    base: Question,
    depth: usize,
    /// `true`: at least one schedule is an attack (the `Pm2` replay
    /// needs only a duplicating network); `false`: every schedule
    /// survives (Proposition 4's nonce check rejects every replay).
    expect_attacks: bool,
}

fn instances() -> Vec<Instance> {
    vec![
        Instance {
            name: "pm2",
            base: campaign_base("pm2-campaign@d3", PM2),
            depth: 3,
            expect_attacks: true,
        },
        Instance {
            name: "pm3",
            base: campaign_base("pm3-campaign@d2", PM3),
            depth: 2,
            expect_attacks: false,
        },
    ]
}

fn judge(inst: &Instance, r: &CampaignReport) -> Option<String> {
    let (attacks, _, inconclusive) = r.tally();
    if r.interrupted || inconclusive > 0 {
        return Some(format!(
            "{}: {inconclusive} inconclusive schedules",
            inst.base.id
        ));
    }
    match (inst.expect_attacks, attacks) {
        (true, 0) => Some(format!(
            "{}: no attack; the Pm2 replay needs only a duplicate",
            inst.base.id
        )),
        (false, n) if n > 0 || !r.all_survive() => Some(format!(
            "{}: {n} attacks; Pm3 must survive every schedule",
            inst.base.id
        )),
        _ => None,
    }
}

type Prepared = Vec<(Verifier, Process, Process, CampaignOptions)>;

fn prepare(insts: &[Instance]) -> Result<Prepared, String> {
    insts
        .iter()
        .map(|i| {
            let (c, a) = i.base.parse()?;
            let v = i.base.verifier(&CONFIG);
            let opts = v.campaign_options(i.depth);
            Ok((v, c, a, opts))
        })
        .collect()
}

/// Untraced: end-to-end metrics.
pub fn run(run: &Run) -> Outcome {
    let insts = instances();
    let mut out = Outcome::default();
    let make = || prepare(&insts);
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
    let mut per_instance: Vec<Vec<f64>> = vec![Vec::new(); insts.len()];
    let mut schedules = 0usize;
    let mut passes = Vec::new();
    let mut tallies = vec![(0, 0, 0); insts.len()];
    let mut yard = Yardstick::build();
    repeat_within(run.seconds, || {
        let mut order: Vec<usize> = (0..insts.len()).collect();
        shuffle(&mut rng, &mut order);
        let start = Instant::now();
        for i in order {
            let (v, c, a, opts) = &prepared[i];
            let (report, ms) = timed(|| v.run_campaign(c, a, opts));
            per_instance[i].push(ms);
            out.ledger.check(match report {
                Ok(r) => {
                    schedules += r.enumerated;
                    let (at, _, _) = r.tally();
                    tallies[i] = (r.enumerated, at, r.early_rejects);
                    judge(&insts[i], &r)
                }
                Err(e) => Some(format!("{}: {e}", insts[i].base.id)),
            });
        }
        passes.push(start.elapsed().as_secs_f64());
        yard.sample();
        yard.sample();
        setup.push(setup_batch(make, drop).1);
    });
    let medians: Vec<f64> = per_instance
        .iter()
        .map(|xs| median(xs).unwrap_or(0.0))
        .collect();
    for ((inst, ms), (n, at, early)) in insts.iter().zip(&medians).zip(&tallies) {
        out.lines.push(format!(
            "{:<16} depth {}  {ms:>9.2} ms  schedules {n}  attacks {at}  early rejects {early}",
            inst.base.id, inst.depth
        ));
    }
    let total: f64 = passes.iter().sum();
    #[allow(clippy::cast_precision_loss)]
    let per_s = schedules as f64 / total;
    out.lines.push(format!(
        "schedules_per_s {per_s:.2} 1/s over {} passes of {:.3?} s",
        passes.len(),
        passes
    ));
    let m = &mut out.metrics;
    m.set("setup_s", median(&setup).unwrap_or(0.0), "s");
    let (wall_ms, geomean_ms) = (
        median(&passes).unwrap_or(0.0) * 1e3,
        geomean(&medians).unwrap_or(0.0),
    );
    m.set("wall_s", wall_ms / 1e3, "s");
    m.set("verdict_geomean_ms", geomean_ms, "ms");
    m.set("yardstick_ms", yard.median_ms(), "ms");
    m.set("wall_rel", yard.rel(wall_ms), "yardsticks");
    m.set("verdict_geomean_rel", yard.rel(geomean_ms), "yardsticks");
    m.set("schedules_per_s", per_s, "1/s");
    out
}

/// Traced: the base question's decomposition, then the campaign and
/// the narration of each counterexample, per instance.
pub fn run_traced(run: &Run, tracer: &mut Tracer) -> Outcome {
    let insts = instances();
    let mut out = Outcome::default();
    let prepared = match prepare(&insts) {
        Ok(p) => p,
        Err(e) => {
            out.ledger.check(Some(e));
            return out;
        }
    };
    let mut passes: Vec<Metrics> = Vec::new();
    repeat_within(run.seconds, || {
        let mut m = Metrics::default();
        let mut layers = Vec::new();
        let mut cex_ms = 0.0;
        let (mut schedules, mut campaign_ms) = (0usize, 0.0);
        for (inst, (v, c, a, opts)) in insts.iter().zip(&prepared) {
            let (l, problems) = trace_question(tracer, &inst.base, &CONFIG);
            out.ledger
                .check((!problems.is_empty()).then(|| problems.join("; ")));
            layers.push(l);
            let id = inst.base.id.as_str();
            let (report, span) =
                tracer.span("campaign.run", None, id, |_, _| v.run_campaign(c, a, opts));
            let ms = tracer.get(span).ms();
            let report = match report {
                Ok(r) => r,
                Err(e) => {
                    out.ledger.check(Some(format!("{id}: {e}")));
                    continue;
                }
            };
            out.ledger.check(judge(inst, &report));
            for (_, cex) in report.attacks() {
                let (lines, span) = tracer.span("narrate.cex", None, id, |_, _| {
                    v.narrate_counterexample(c, cex)
                });
                cex_ms += tracer.get(span).ms();
                out.ledger.check(match lines {
                    Ok(l) if !l.is_empty() => None,
                    Ok(_) => Some(format!("{id}: empty counterexample narration")),
                    Err(e) => Some(format!("{id}: narration failed: {e}")),
                });
            }
            let (attacks, _, _) = report.tally();
            let p = format!("campaign.{}", inst.name);
            #[allow(clippy::cast_precision_loss)]
            let n = report.enumerated as f64;
            m.set(format!("{p}.schedules"), n, "count");
            #[allow(clippy::cast_precision_loss)]
            m.set(format!("{p}.attacks"), attacks as f64, "count");
            #[allow(clippy::cast_precision_loss)]
            m.set(
                format!("{p}.early_rejects"),
                report.early_rejects as f64,
                "count",
            );
            m.set(format!("{p}.ms_per_schedule"), ms / n.max(1.0), "ms");
            schedules += report.enumerated;
            campaign_ms += ms;
        }
        layer_metrics(&mut m, &layers);
        m.set("narrate.cex_ms", cex_ms, "ms");
        #[allow(clippy::cast_precision_loss)]
        m.set(
            "campaign.schedules_per_s",
            schedules as f64 / (campaign_ms / 1e3),
            "1/s",
        );
        passes.push(m);
    });
    out.metrics = median_of_passes(&passes);
    out
}
