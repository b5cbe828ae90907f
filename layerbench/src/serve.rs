//! `serve-mix`: an in-process `spi serve` daemon driven as a closed
//! loop over two client connections, with seeded skewed draws over a
//! working set of distinct questions larger than the cache budget.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use spi_auth::server::{serve, Client, ServerHandle, ServerOptions, VerifierEngine};
use spi_auth::verify::jsonlite::Json;
use spi_auth::Engine;

use crate::layers::{layer_metrics, trace_question};
use crate::questions::{serve_questions, Config, Expect, Question, NO_REDUCTION, PM, PM2, PM3};
use crate::report::{Ledger, Metrics};
use crate::stats::{counter_deltas, geomean, median, skewed_counts, tail_percentile, Draws};
use crate::trace::Tracer;
use crate::yardstick::Yardstick;
use crate::{repeat_within, setup_batch, Outcome, Run, EXPLORE_WORKERS};

/// Request worker threads of the daemon.
pub const REQUEST_WORKERS: usize = 2;
/// Client connections, one closed-loop thread each.
pub const CONNECTIONS: usize = 2;
/// Result-cache budget in bytes: below the working set's body bytes, so
/// the cache evicts (the default 8 MB budget never would).
pub const CACHE_BYTES: usize = 9 * 1024;
/// Draws per connection per block (see [`Draws`]).
const BLOCK: usize = 48;
/// Zipf exponent of the popularity ranking.
const SKEW: f64 = 1.0;
/// Share of the window spent on cold passes (the rest is the loop).
const COLD_SHARE: f64 = 0.5;
/// Samples a tail percentile needs beyond it.
const TAIL_BEYOND: usize = 10;
/// Stats counters diffed around the loop.  Hit share comes from the
/// clients' `cached` flags and engine runs from `executions`, never
/// from `misses` (a cold request is probed at admission and again by
/// the worker, so `misses` counts it twice).
const COUNTERS: [&str; 7] = [
    "executions",
    "evictions",
    "collapsed",
    "shed",
    "rejected",
    "hits",
    "misses",
];

/// The engine settings the daemon applies to verify requests (the wire
/// defaults: no reduction, trace engine).
const CONFIG: Config = Config {
    reduce: NO_REDUCTION,
    engine: Engine::Trace,
};

enum Kind {
    Verify(Question),
    Campaign { expect_attacks: bool },
}

struct Item {
    id: String,
    line: String,
    /// The same request with `no_cache`: always runs the engine.
    cold_line: String,
    kind: Kind,
}

fn request_line(mut fields: Vec<(String, Json)>, no_cache: bool) -> String {
    if no_cache {
        fields.push(("no_cache".into(), Json::Bool(true)));
    }
    Json::Obj(fields).render_compact()
}

fn verify_item(q: Question) -> Item {
    let fields = vec![
        ("op".to_string(), Json::str("verify")),
        ("concrete".into(), Json::str(q.concrete.clone())),
        ("abstract".into(), Json::str(q.abstract_spec.clone())),
        ("sessions".into(), Json::count(q.sessions as usize)),
        ("visible".into(), Json::count(q.visible)),
    ];
    Item {
        id: q.id.clone(),
        line: request_line(fields.clone(), false),
        cold_line: request_line(fields, true),
        kind: Kind::Verify(q),
    }
}

fn campaign_item(name: &str, concrete: &str, depth: usize, expect_attacks: bool) -> Item {
    let fields = vec![
        ("op".to_string(), Json::str("campaign")),
        ("concrete".into(), Json::str(concrete)),
        ("abstract".into(), Json::str(PM)),
        ("sessions".into(), Json::count(2)),
        ("intruder".into(), Json::Bool(false)),
        ("faults_depth".into(), Json::count(depth)),
    ];
    Item {
        id: format!("{name}-campaign@d{depth}"),
        line: request_line(fields.clone(), false),
        cold_line: request_line(fields, true),
        kind: Kind::Campaign { expect_attacks },
    }
}

/// The working set in popularity order: the costly questions are the
/// popular ones, so the cache keeps them and misses are mostly the
/// cheap tail, with the two batch campaigns in the middle.
fn working_set() -> Vec<Item> {
    let mut questions = serve_questions();
    questions.sort_by_key(|q| (std::cmp::Reverse(cost_rank(q)), q.visible));
    let mut items: Vec<Item> = questions.into_iter().map(verify_item).collect();
    items.insert(8, campaign_item("pm2", PM2, 2, true));
    items.insert(9, campaign_item("pm3", PM3, 1, false));
    items
}

/// Orders questions by their known exploration cost: `Pm3` at two
/// sessions, then `Pm2` at three, two and one, then `Pm3` at one.
fn cost_rank(q: &Question) -> u32 {
    match (q.concrete == PM3, q.sessions) {
        (true, s) if s >= 2 => 5,
        (false, s) => s + 1,
        (true, _) => 1,
    }
}

/// Checks a reply; returns `(cached, cache cost in bytes, problem)`.
fn judge(item: &Item, reply: &Result<String, String>) -> (bool, usize, Option<String>) {
    let fail = |p: String| (false, 0, Some(format!("{}: {p}", item.id)));
    let text = match reply {
        Ok(t) => t,
        Err(e) => return fail(format!("transport: {e}")),
    };
    let Ok(v) = Json::parse(text) else {
        return fail(format!("unparseable reply {text:?}"));
    };
    if v.get("status").and_then(Json::as_str) != Some("ok") {
        return fail(format!("non-ok reply {text}"));
    }
    let cached = v.get("cached").and_then(Json::as_bool) == Some(true);
    let (Some(body), Some(digest), Some(op)) = (
        v.get("body"),
        v.get("spec_digest").and_then(Json::as_str),
        v.get("op").and_then(Json::as_str),
    ) else {
        return fail(format!("reply lacks body/digest/op: {text}"));
    };
    let cost = digest.len() + op.len() + body.render_compact().len();
    let int = |k: &str| body.get(k).and_then(Json::as_int);
    let problem = match &item.kind {
        Kind::Verify(q) => {
            let want = match q.expect {
                Expect::Attack => "attack",
                Expect::Holds => "securely-implements",
            };
            let got = body.get("verdict").and_then(Json::as_str);
            (got != Some(want)).then(|| format!("expected {want} ({}), got {got:?}", q.source))
        }
        Kind::Campaign { expect_attacks } => match (int("attacks"), int("inconclusive")) {
            (Some(a), Some(0)) if (a > 0) == *expect_attacks => None,
            (a, i) => Some(format!("campaign attacks {a:?}, inconclusive {i:?}")),
        },
    };
    (cached, cost, problem.map(|p| format!("{}: {p}", item.id)))
}

struct Daemon {
    handle: ServerHandle,
    clients: Vec<Client>,
}

impl Daemon {
    fn start() -> Result<Daemon, String> {
        let handle = serve(
            Arc::new(VerifierEngine {
                explore_workers: Some(EXPLORE_WORKERS),
            }),
            ServerOptions {
                addr: "127.0.0.1:0".into(),
                workers: REQUEST_WORKERS,
                cache_bytes: CACHE_BYTES,
                snapshot: None,
                ..ServerOptions::default()
            },
        )?;
        let addr = handle.addr().to_string();
        match (0..CONNECTIONS).map(|_| Daemon::connect(&addr)).collect() {
            Ok(clients) => Ok(Daemon { handle, clients }),
            Err(e) => {
                handle.join();
                Err(e)
            }
        }
    }

    fn connect(addr: &str) -> Result<Client, String> {
        let mut c = Client::connect(addr)?;
        c.read_timeout(Some(Duration::from_secs(120)))?;
        let pong = c.roundtrip(r#"{"op":"ping"}"#)?;
        if pong.contains(r#""status":"ok""#) {
            Ok(c)
        } else {
            Err(format!("ping answered {pong}"))
        }
    }

    fn stop(mut self) {
        self.clients.clear();
        self.handle.join();
    }

    fn stats(&mut self) -> Result<BTreeMap<String, u64>, String> {
        let reply = self.clients[0].roundtrip(r#"{"op":"stats"}"#)?;
        let v = Json::parse(&reply)?;
        let body = v.get("body").ok_or("stats reply lacks a body")?;
        COUNTERS
            .iter()
            .map(|&k| {
                let n = body
                    .get(k)
                    .and_then(Json::as_int)
                    .ok_or(format!("stats lacks {k}"))?;
                Ok((k.to_string(), u64::try_from(n).map_err(|e| e.to_string())?))
            })
            .collect()
    }
}

/// One answered request of the measured loop.
struct Sample {
    item: usize,
    start: Instant,
    end: Instant,
    cached: bool,
}

impl Sample {
    fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// A finished loop: the still-running daemon, the answered requests in
/// completion order, the window actually used (s), the growth of the
/// `stats` counters over it, and the yardsticks taken around it.
struct Driven {
    daemon: Daemon,
    samples: Vec<Sample>,
    elapsed: f64,
    deltas: BTreeMap<String, u64>,
    yard: Yardstick,
}

/// Starts the daemon (set-up, timed), fills the cache with one pass
/// over the working set, times cold passes, and runs the closed loop
/// for the rest of the window.
fn drive(run: &Run, out: &mut Outcome, items: &[Item]) -> Option<Driven> {
    let stop = |d: Result<Daemon, String>| {
        if let Ok(d) = d {
            d.stop();
        }
    };
    let (daemon, setup) = setup_batch(Daemon::start, stop);
    let mut setup = vec![setup];
    let more_setups = |setup: &mut Vec<f64>| {
        let (last, mean) = setup_batch(Daemon::start, stop);
        stop(last);
        setup.push(mean);
    };
    let mut daemon = match daemon {
        Ok(d) => d,
        Err(e) => {
            out.ledger.check(Some(format!("daemon start: {e}")));
            return None;
        }
    };
    // Warm-up: one request per item, in popularity order.
    let mut working_bytes = 0;
    for item in items {
        let reply = daemon.clients[0].roundtrip(&item.line);
        let (_, cost, problem) = judge(item, &reply);
        working_bytes += cost;
        out.ledger.check(problem);
    }
    out.lines.push(format!(
        "working set: {} items, {working_bytes} cache bytes; budget {CACHE_BYTES} bytes",
        items.len()
    ));
    // Cold passes: the whole working set, one request at a time, each
    // bypassing the cache, so every answer runs the engine behind the
    // queue, encoder and wire.  `wall_s` is the median pass.
    let mut cold = Vec::new();
    let mut yard = Yardstick::build();
    repeat_within(run.seconds * COLD_SHARE, || {
        let t0 = Instant::now();
        for item in items {
            let reply = daemon.clients[0].roundtrip(&item.cold_line);
            let (cached, _, problem) = judge(item, &reply);
            out.ledger.check(
                problem.or_else(|| {
                    cached.then(|| format!("{}: no_cache answered from cache", item.id))
                }),
            );
        }
        cold.push(t0.elapsed().as_secs_f64());
        yard.sample();
        yard.sample();
        more_setups(&mut setup);
    });
    let cold_s = median(&cold).unwrap_or(0.0);
    out.metrics.set("wall_s", cold_s, "s");
    out.lines
        .push(format!("{} cold passes over the working set", cold.len()));
    let before = daemon.stats();
    let counts = skewed_counts(items.len(), BLOCK, SKEW);
    let start = Instant::now();
    let window = (run.seconds - cold.iter().sum::<f64>()).max(run.seconds * (1.0 - COLD_SHARE));
    let deadline = start + Duration::from_secs_f64(window);
    let per_conn: Vec<(Vec<Sample>, Ledger)> = std::thread::scope(|s| {
        let threads: Vec<_> = daemon
            .clients
            .iter_mut()
            .zip(0u64..)
            .map(|(client, stream)| {
                let counts = &counts;
                s.spawn(move || {
                    let mut draws = Draws::new(counts, run.seed, stream);
                    let mut samples = Vec::new();
                    let mut ledger = Ledger::default();
                    while Instant::now() < deadline {
                        let i = draws.next().expect("draws never end");
                        let t0 = Instant::now();
                        let reply = client.roundtrip(&items[i].line);
                        let end = Instant::now();
                        let (cached, _, problem) = judge(&items[i], &reply);
                        ledger.check(problem);
                        samples.push(Sample {
                            item: i,
                            start: t0,
                            end,
                            cached,
                        });
                    }
                    (samples, ledger)
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("client thread panicked"))
            .collect()
    });
    let mut samples = Vec::new();
    for (s, l) in per_conn {
        samples.extend(s);
        out.ledger.attempted += l.attempted;
        out.ledger.failures.extend(l.failures);
    }
    samples.sort_by_key(|s| s.end);
    let elapsed = samples
        .last()
        .map_or(0.0, |s| (s.end - start).as_secs_f64());
    let after = daemon.stats();
    for _ in 0..4 {
        yard.sample();
    }
    out.metrics.set("yardstick_ms", yard.median_ms(), "ms");
    out.metrics
        .set("wall_rel", yard.rel(cold_s * 1e3), "yardsticks");
    more_setups(&mut setup);
    out.metrics
        .set("setup_s", median(&setup).unwrap_or(0.0), "s");
    let deltas = match (before, after) {
        (Ok(b), Ok(a)) => counter_deltas(&b, &a, &COUNTERS),
        (Err(e), _) | (_, Err(e)) => Err(e),
    };
    let deltas = match deltas {
        Ok(d) => d,
        Err(e) => {
            out.ledger.check(Some(format!("stats: {e}")));
            BTreeMap::new()
        }
    };
    Some(Driven {
        daemon,
        samples,
        elapsed,
        deltas,
        yard,
    })
}

/// Client-side figures of the loop into `m` (`verdict_geomean_ms`
/// under its end-to-end name, the rest under `server.*`), and a
/// per-question account into `lines`.
fn loop_metrics(
    m: &mut Metrics,
    lines: &mut Vec<String>,
    items: &[Item],
    samples: &[Sample],
    elapsed: f64,
) {
    let lat: Vec<f64> = samples.iter().map(Sample::ms).collect();
    let hits: Vec<f64> = samples
        .iter()
        .filter(|s| s.cached)
        .map(Sample::ms)
        .collect();
    let misses: Vec<f64> = samples
        .iter()
        .filter(|s| !s.cached)
        .map(Sample::ms)
        .collect();
    m.set("verdict_geomean_ms", geomean(&lat).unwrap_or(0.0), "ms");
    #[allow(clippy::cast_precision_loss)]
    let n = samples.len() as f64;
    m.set("server.requests", n, "count");
    m.set(
        "server.req_per_s",
        if elapsed > 0.0 { n / elapsed } else { 0.0 },
        "1/s",
    );
    let (pct, tail) = tail_percentile(&lat, TAIL_BEYOND).unwrap_or((0.0, 0.0));
    m.set("server.req_tail_ms", tail, "ms");
    m.set("server.req_tail_pct", pct, "pct");
    m.set("server.hit_p50_ms", median(&hits).unwrap_or(0.0), "ms");
    m.set("server.miss_p50_ms", median(&misses).unwrap_or(0.0), "ms");
    #[allow(clippy::cast_precision_loss)]
    m.set("server.hit_share", hits.len() as f64 / n.max(1.0), "ratio");
    lines.push(format!(
        "{} requests in {elapsed:.2} s: {} hits, {} misses; p{pct} = {tail:.2} ms over {} samples",
        samples.len(),
        hits.len(),
        misses.len(),
        samples.len()
    ));
    for (i, item) in items.iter().enumerate() {
        let mine = samples.iter().filter(|s| s.item == i);
        let (count, missed, miss_ms) = mine.fold((0, 0, 0.0), |(c, k, t), s| {
            if s.cached {
                (c + 1, k, t)
            } else {
                (c + 1, k + 1, t + s.ms())
            }
        });
        lines.push(format!(
            "{:<22} {count:>6} requests {missed:>5} misses {miss_ms:>10.1} ms in misses",
            item.id
        ));
    }
}

/// Untraced: end-to-end metrics.
pub fn run(run: &Run) -> Outcome {
    let items = working_set();
    let mut out = Outcome::default();
    let Some(Driven {
        daemon,
        samples,
        elapsed,
        deltas,
        yard,
    }) = drive(run, &mut out, &items)
    else {
        return out;
    };
    loop_metrics(&mut out.metrics, &mut out.lines, &items, &samples, elapsed);
    let geomean_ms = out.metrics.get("verdict_geomean_ms").unwrap_or(0.0);
    out.metrics
        .set("verdict_geomean_rel", yard.rel(geomean_ms), "yardsticks");
    out.lines.push(format!("stats deltas: {deltas:?}"));
    daemon.stop();
    out
}

/// Traced: the same loop with a span per request and the `stats`
/// deltas, then each working-set question decomposed and compared with
/// a cache-bypassing request for the same question.
pub fn run_traced(run: &Run, tracer: &mut Tracer) -> Outcome {
    let items = working_set();
    let mut out = Outcome::default();
    let Some(Driven {
        mut daemon,
        samples,
        elapsed,
        deltas,
        ..
    }) = drive(run, &mut out, &items)
    else {
        return out;
    };
    for s in &samples {
        let name = if s.cached {
            "request.hit"
        } else {
            "request.miss"
        };
        tracer.record(name, s.start, s.end, &items[s.item].id);
    }
    let mut m = std::mem::take(&mut out.metrics);
    loop_metrics(&mut m, &mut out.lines, &items, &samples, elapsed);
    out.lines.push(format!("stats deltas: {deltas:?}"));
    for k in ["executions", "evictions", "collapsed", "shed", "rejected"] {
        #[allow(clippy::cast_precision_loss)]
        m.set(
            format!("server.{k}"),
            deltas.get(k).copied().unwrap_or(0) as f64,
            "count",
        );
    }
    let mut layers = Vec::new();
    let mut overheads = Vec::new();
    for item in &items {
        let Kind::Verify(q) = &item.kind else {
            continue;
        };
        let (l, problems) = trace_question(tracer, q, &CONFIG);
        out.ledger
            .check((!problems.is_empty()).then(|| problems.join("; ")));
        let t0 = Instant::now();
        let reply = daemon.clients[0].roundtrip(&item.cold_line);
        let end = Instant::now();
        tracer.record("request.bypass", t0, end, &q.id);
        let (cached, _, problem) = judge(item, &reply);
        out.ledger.check(
            problem.or_else(|| cached.then(|| format!("{}: no_cache answered from cache", q.id))),
        );
        overheads.push((end - t0).as_secs_f64() * 1e3 - l.check_ms);
        layers.push(l);
    }
    layer_metrics(&mut m, &layers);
    m.set(
        "server.miss_overhead_ms",
        median(&overheads).unwrap_or(0.0),
        "ms",
    );
    daemon.stop();
    out.metrics = m;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_working_set_puts_costly_questions_first() {
        let items = working_set();
        assert_eq!(items.len(), serve_questions().len() + 2);
        assert_eq!(items[0].id, "pm3-vs-pm@2/v3");
        let campaigns = items
            .iter()
            .filter(|i| matches!(i.kind, Kind::Campaign { .. }))
            .count();
        assert_eq!(campaigns, 2);
        for item in &items {
            assert!(item.cold_line.contains(r#""no_cache":true"#), "{}", item.id);
            assert!(!item.line.contains("no_cache"), "{}", item.id);
        }
    }
}
