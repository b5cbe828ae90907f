//! The repository's layered benchmark.
//!
//! ```sh
//! cargo run --release --offline --quiet --manifest-path layerbench/Cargo.toml -- \
//!     --workload verify-reduced --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Workloads (see `BENCHMARK.json` for why each exists):
//!
//! * `verify-reduced` — the four paper questions, `--reduce full`,
//!   `--engine both`, 1 explore worker;
//! * `verify-plain` — the same questions, `--reduce none`,
//!   `--engine trace`, 1 explore worker;
//! * `campaign-faults` — `Verifier::run_campaign` on `Pm2` (depth 3)
//!   and `Pm3` (depth 2), no intruder, `--engine both`;
//! * `serve-mix` — an in-process `spi serve` daemon (2 request workers,
//!   1 explore worker) driven as a closed loop over 2 connections.
//!
//! Every answer is checked against the paper's.  `--trace 0` measures
//! the end-to-end metrics with nothing traced, and reports times in
//! yardsticks: divided by the median time, in the same run, of a fixed
//! piece of benchmark code (see [`yardstick`]); `--trace 1` rebuilds
//! each question from the verifier's public pieces with a span around
//! every layer call and reports the per-layer metrics; the spans are
//! written to `.bench_trace/` when the run ends.  `--workload all` runs
//! the four workloads in turn and prints every metric (there,
//! `peak_rss_mb` is the process's peak so far, not the workload's).
//!
//! The last line of standard output is the result object; the exit
//! code is 0 only when every answer was right.

mod campaign;
mod layers;
mod questions;
mod report;
mod serve;
mod stats;
mod trace;
mod verify;
mod yardstick;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use spi_auth::verify::jsonlite::Json;
use spi_auth::{Engine, ReduceOptions};

use crate::questions::Config;
use crate::report::{result_line, Ledger, Metrics};
use crate::stats::median;
use crate::trace::Tracer;

/// The end-to-end metrics every `--trace 0` run reports, with units.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("wall_rel", "yardsticks"),
    ("verdict_geomean_rel", "yardsticks"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics every `--trace 1` run reports, with units.  A
/// layer a workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("syntax.normalize_us", "us"),
    ("explore.concrete.ms", "ms"),
    ("explore.abstract.ms", "ms"),
    ("explore.concrete.states", "count"),
    ("explore.abstract.states", "count"),
    ("explore.concrete.edges", "count"),
    ("explore.abstract.edges", "count"),
    ("explore.concrete.us_per_state", "us"),
    ("explore.abstract.us_per_state", "us"),
    ("explore.concrete.states_quotiented", "count"),
    ("explore.abstract.states_quotiented", "count"),
    ("explore.concrete.por_pruned", "count"),
    ("explore.abstract.por_pruned", "count"),
    ("explore.concrete.quotient_yield", "ratio"),
    ("explore.abstract.quotient_yield", "ratio"),
    ("traces.concrete.weak_ms", "ms"),
    ("traces.abstract.weak_ms", "ms"),
    ("traces.concrete.count", "count"),
    ("traces.abstract.count", "count"),
    ("decide.trace_ms", "ms"),
    ("decide.bisim_ms", "ms"),
    ("narrate.realize_ms", "ms"),
    ("narrate.cex_ms", "ms"),
    ("campaign.pm2.schedules", "count"),
    ("campaign.pm2.attacks", "count"),
    ("campaign.pm2.early_rejects", "count"),
    ("campaign.pm2.ms_per_schedule", "ms"),
    ("campaign.pm3.schedules", "count"),
    ("campaign.pm3.attacks", "count"),
    ("campaign.pm3.early_rejects", "count"),
    ("campaign.pm3.ms_per_schedule", "ms"),
    ("campaign.schedules_per_s", "1/s"),
    ("server.requests", "count"),
    ("server.req_per_s", "1/s"),
    ("server.req_tail_ms", "ms"),
    ("server.req_tail_pct", "pct"),
    ("server.hit_p50_ms", "ms"),
    ("server.miss_p50_ms", "ms"),
    ("server.hit_share", "ratio"),
    ("server.executions", "count"),
    ("server.evictions", "count"),
    ("server.collapsed", "count"),
    ("server.shed", "count"),
    ("server.rejected", "count"),
    ("server.miss_overhead_ms", "ms"),
    ("failed_share", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 4] = [
    "verify-reduced",
    "verify-plain",
    "campaign-faults",
    "serve-mix",
];

/// What every run is given.
#[derive(Debug, Clone, Copy)]
pub struct Run {
    /// Workload seed.
    pub seed: u64,
    /// Measurement window.
    pub seconds: f64,
}

/// What a workload returns.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Answers attempted and failed.
    pub ledger: Ledger,
    /// Every metric it measured (the result line keeps the listed ones).
    pub metrics: Metrics,
    /// Human-readable detail, printed before the result line.
    pub lines: Vec<String>,
}

/// Runs `pass` repeatedly inside a window of `seconds`: always once,
/// and again while the elapsed time plus half a mean pass fits.
/// Returns the number of passes.
pub fn repeat_within(seconds: f64, mut pass: impl FnMut()) -> usize {
    let start = Instant::now();
    let mut n = 0;
    loop {
        pass();
        n += 1;
        let elapsed = start.elapsed().as_secs_f64();
        #[allow(clippy::cast_precision_loss)]
        let half_pass = elapsed / n as f64 / 2.0;
        if elapsed + half_pass > seconds {
            return n;
        }
    }
}

/// Seconds of set-up one sample spends.  A set-up takes microseconds to
/// a few hundred, so one sample repeats it until the repetitions add up
/// to this, far above timer and scheduler noise.  A workload samples at
/// its start and again later in its window, and reports the median
/// sample, so the figure does not hang on the host's speed at one
/// instant.
const SETUP_BATCH_S: f64 = 0.1;

/// One set-up sample: runs `make` until its calls have taken
/// [`SETUP_BATCH_S`] in all, handing all but the last result to
/// `discard` (untimed).  Returns the last result and the mean seconds
/// per call.
pub fn setup_batch<T>(mut make: impl FnMut() -> T, mut discard: impl FnMut(T)) -> (T, f64) {
    let (mut spent, mut calls) = (0.0, 0u32);
    loop {
        let t = Instant::now();
        let made = make();
        spent += t.elapsed().as_secs_f64();
        calls += 1;
        if spent >= SETUP_BATCH_S {
            return (made, spent / f64::from(calls));
        }
        discard(made);
    }
}

/// Per-metric median over passes (units from the first pass).
#[must_use]
pub fn median_of_passes(passes: &[Metrics]) -> Metrics {
    let mut out = Metrics::default();
    let Some(first) = passes.first() else {
        return out;
    };
    for (name, _, unit) in first.iter() {
        let values: Vec<f64> = passes.iter().filter_map(|m| m.get(name)).collect();
        out.set(name.clone(), median(&values).unwrap_or(0.0), unit);
    }
    out
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 if unknown.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checkout's revision, read from `./.git` only (never a parent
/// directory's repository).
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["--git-dir", ".git", "rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown (not a git checkout)".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// Explore worker threads of every exploration in every workload.  Two
/// workers on the 2-CPU host measured here were slower than one and
/// about three times as noisy run to run, so the benchmark uses one.
pub const EXPLORE_WORKERS: usize = 1;

fn config(workload: &str) -> Config {
    match workload {
        "verify-plain" => Config {
            reduce: questions::NO_REDUCTION,
            engine: Engine::Trace,
        },
        _ => Config {
            reduce: ReduceOptions::full(),
            engine: Engine::Both,
        },
    }
}

fn run_workload(workload: &str, run: &Run, traced: bool) -> Outcome {
    let mut tracer = Tracer::default();
    let started = Instant::now();
    let mut out = match (workload, traced) {
        ("verify-reduced" | "verify-plain", false) => verify::run(run, &config(workload)),
        ("verify-reduced" | "verify-plain", true) => {
            verify::run_traced(run, &config(workload), &mut tracer)
        }
        ("campaign-faults", false) => campaign::run(run),
        ("campaign-faults", true) => campaign::run_traced(run, &mut tracer),
        ("serve-mix", false) => serve::run(run),
        ("serve-mix", true) => serve::run_traced(run, &mut tracer),
        _ => unreachable!("workload names are validated"),
    };
    let (request, conns) = match workload {
        "serve-mix" => (serve::REQUEST_WORKERS, serve::CONNECTIONS),
        _ => (0, 0),
    };
    let host = format!(
        "host: nproc={} rev={} workload={workload} seed={} seconds={} trace={} explore_workers={EXPLORE_WORKERS} request_workers={request} connections={conns} run_s={:.2}",
        std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get),
        git_rev(),
        run.seed,
        run.seconds,
        u8::from(traced),
        started.elapsed().as_secs_f64()
    );
    out.lines.insert(0, host.clone());
    let m = &mut out.metrics;
    m.set("failed_share", out.ledger.failed_share(), "ratio");
    m.set("peak_rss_mb", peak_rss_mb(), "MiB");
    if traced {
        let path = PathBuf::from(".bench_trace").join(format!("{workload}-seed{}.jsonl", run.seed));
        let header = format!(
            r#"{{"host":{}}}"#,
            Json::str(host.as_str()).render_compact()
        );
        match tracer.write_jsonl(&path, &header) {
            Ok(()) => out
                .lines
                .push(format!("spans written to {}", path.display())),
            Err(e) => out
                .lines
                .push(format!("could not write spans to {}: {e}", path.display())),
        }
    }
    out
}

/// Keeps exactly the listed metrics, in order; a missing one reads 0.
fn listed(all: &Metrics, names: &[(&str, &'static str)]) -> Metrics {
    let mut out = Metrics::default();
    for &(name, unit) in names {
        out.set(name, all.get(name).unwrap_or(0.0), unit);
    }
    out
}

fn print_outcome(workload: &str, out: &Outcome) {
    println!("== {workload}");
    for l in &out.lines {
        println!("  {l}");
    }
    for (name, value, unit) in out.metrics.iter() {
        println!("  {name:<36} {value:>14.4} {unit}");
    }
    for f in &out.ledger.failures {
        println!("  FAILED: {f}");
    }
}

struct Args {
    workload: String,
    run: Run,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut traced) = (1u64, 25.0f64, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?} or all"
        ));
    }
    Ok(Args {
        workload,
        run: Run { seed, seconds },
        traced,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("layerbench: {e}");
            eprintln!(
                "usage: layerbench --workload <{}|all> --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let list: &[(&str, &str)] = if args.traced { &PER_LAYER } else { &END_TO_END };
    let (ledger, metrics) = if args.workload == "all" {
        let mut ledger = Ledger::default();
        let mut metrics = Metrics::default();
        for w in WORKLOADS {
            let out = run_workload(w, &args.run, args.traced);
            print_outcome(w, &out);
            for &(name, unit) in list {
                metrics.set(
                    format!("{w}.{name}"),
                    out.metrics.get(name).unwrap_or(0.0),
                    unit,
                );
            }
            ledger.attempted += out.ledger.attempted;
            ledger.failures.extend(out.ledger.failures);
        }
        (ledger, metrics)
    } else {
        let out = run_workload(&args.workload, &args.run, args.traced);
        print_outcome(&args.workload, &out);
        let metrics = listed(&out.metrics, list);
        (out.ledger, metrics)
    };
    println!("{}", result_line(&ledger, &metrics));
    if ledger.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK: &str = include_str!("../../BENCHMARK.json");
    const LAYERS: &str = include_str!("../layers.json");

    fn known(name: &str) -> bool {
        END_TO_END.iter().chain(&PER_LAYER).any(|&(m, _)| m == name)
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!(r#"{{"name": "{name}", "unit": "{unit}""#);
            assert!(BENCHMARK.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in WORKLOADS {
            assert!(
                BENCHMARK.contains(&format!(r#"{{"name": "{w}", "why": "#)),
                "{w}"
            );
        }
        let entries = BENCHMARK.matches(r#"{"name": "#).count();
        assert_eq!(
            entries,
            END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len()
        );
    }

    #[test]
    fn every_prediction_and_superseding_metric_is_reported() {
        let v = Json::parse(LAYERS).expect("layers.json parses");
        let field = |e: &Json, k: &str| e.get(k).and_then(Json::as_str).expect(k).to_string();
        let predictions = v
            .get("predictions")
            .and_then(Json::as_arr)
            .expect("predictions");
        for p in predictions {
            let (layer, moves, workload) =
                (field(p, "layer"), field(p, "moves"), field(p, "workload"));
            assert!(
                PER_LAYER.iter().any(|&(m, _)| m == layer),
                "unknown layer metric {layer}"
            );
            assert!(known(&moves), "unknown end-to-end metric {moves}");
            assert!(
                WORKLOADS.contains(&workload.as_str()),
                "unknown workload {workload}"
            );
            assert!(["moves", "no change"].contains(&field(p, "expect").as_str()));
        }
        // Every layer metric family has at least one prediction.
        for family in [
            "syntax.",
            "explore.",
            "traces.",
            "decide.trace",
            "decide.bisim",
            "narrate.realize",
            "narrate.cex",
            "campaign.",
            "server.",
        ] {
            assert!(
                predictions
                    .iter()
                    .any(|p| field(p, "layer").starts_with(family)),
                "no prediction for {family}"
            );
        }
        let superseded = v
            .get("superseded")
            .and_then(Json::as_arr)
            .expect("superseded");
        assert_eq!(superseded.len(), 3);
        for s in superseded {
            for by in s
                .get("superseded_by")
                .and_then(Json::as_arr)
                .expect("superseded_by")
            {
                assert!(known(&field(by, "metric")), "{}", field(by, "metric"));
                assert!(WORKLOADS.contains(&field(by, "workload").as_str()));
            }
        }
    }

    #[test]
    fn a_window_always_gets_one_pass_and_stops_before_overrunning() {
        let mut n = 0;
        assert_eq!(repeat_within(1e-9, || n += 1), 1);
        assert_eq!(n, 1);
        let passes = repeat_within(0.05, || {
            std::thread::sleep(std::time::Duration::from_millis(10))
        });
        assert!((3..=5).contains(&passes), "{passes}");
    }

    #[test]
    fn a_setup_batch_fills_its_time_and_discards_all_but_the_last() {
        let mut made = 0;
        let mut dropped = Vec::new();
        let (last, mean) = setup_batch(
            || {
                std::thread::sleep(std::time::Duration::from_millis(10));
                made += 1;
                made
            },
            |x| dropped.push(x),
        );
        // Sleeps never undershoot, so ten reach the batch time.
        assert!((1..=10).contains(&last), "{last}");
        assert_eq!(dropped, (1..last).collect::<Vec<_>>());
        assert!(mean >= 0.01, "{mean}");
        #[allow(clippy::cast_precision_loss)]
        let total = mean * last as f64;
        assert!(total >= SETUP_BATCH_S, "{total}");
    }

    #[test]
    fn median_of_passes_is_per_metric() {
        let pass = |v: f64| {
            let mut m = Metrics::default();
            m.set("a", v, "ms");
            m.set("b", 10.0 * v, "count");
            m
        };
        let m = median_of_passes(&[pass(3.0), pass(1.0), pass(2.0)]);
        assert_eq!(m.get("a"), Some(2.0));
        assert_eq!(m.get("b"), Some(20.0));
    }
}
