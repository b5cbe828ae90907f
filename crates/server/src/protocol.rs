//! The newline-delimited JSON wire protocol.
//!
//! Every request is one line holding one JSON object with an `"op"`
//! field; every response is one line holding one JSON envelope:
//!
//! ```text
//! {"status":"ok","op":"verify","spec_digest":"fnv:…","cached":false,"body":{…}}
//! {"status":"error","op":"verify","reason":"…"}
//! {"status":"rejected","op":"verify","reason":"queue full (8 pending)"}
//! ```
//!
//! Job ops (`verify`, `campaign`, `conformance-replay`) carry their
//! specs inline (`"concrete"` and `"abstract"`; `"spec"` for a replay)
//! or as server-side paths (`"concrete_path"`, …), plus optional
//! fields, each declared once in one table that reading, re-rendering
//! and digesting all walk:
//!
//! | field | default | in the digest |
//! |---|---|---|
//! | `channels` | `["c"]` | as `C` |
//! | `sessions` | 2 | yes |
//! | `visible` | 6 | yes |
//! | `budget` | `states=50000` ([`Budget::parse_spec`]) | spelled canonically |
//! | `intruder` | `true` | yes |
//! | `faults` | none (comma-separated clauses) | as the canonical key |
//! | `reduce` | `none` | only when not `none` |
//! | `engine` | `trace` | only when not `trace` |
//! | `faults_depth` | 2 | campaigns only, as `depth` |
//! | `oracles` | `[]` (the default suite) | conformance replays only |
//! | `unit` | none (`{"offset":N,"count":M}`) | when given |
//! | `timeout_secs` | none | no |
//! | `no_cache` | `false` | no |
//! | `tenant` | the peer address | no |
//! | `deadline_ms` | none | no |
//! | `progress_ms` | none | no |
//!
//! `unit` restricts a campaign to one work unit (how a fleet
//! coordinator shards one campaign).  The last five fields are
//! execution-only: `tenant` is the quota-accounting id, `deadline_ms`
//! a wall-clock limit counted from arrival (the tighter of it and
//! `timeout_secs` applies), and `progress_ms` asks for
//! `{"status":"progress",…}` heartbeat lines at that interval while the
//! job runs (the final reply is always the first non-progress line).
//! Control ops are `ping`, `stats`, `shutdown`, `join` (worker
//! registration/heartbeat), `leave` (a worker announcing drain,
//! optionally handing off its cache), `gossip` (cache-warming pull),
//! and `gossip-push` (digest-guarded cache handoff from a coordinator).
//!
//! The verify/campaign **body encoders** here are the single source of
//! the JSON result shapes: the daemon, the cache snapshot, and the
//! CLI's `--format json` all call [`verify_body`] / [`campaign_body`].

use std::time::{Duration, Instant};

use spi_semantics::{FaultClause, FaultSpec};
use spi_syntax::Process;
use spi_verify::jsonlite::Json;
use spi_verify::{
    Budget, CampaignReport, CoverageStats, Engine, ReduceOptions, Verdict, VerificationReport,
};

use crate::digest::digest;

/// The job kinds a server can execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// A Definition 4 secure-implementation check.
    Verify,
    /// A fault-schedule campaign with shrinking.
    Campaign,
    /// Replay a generated spec through the conformance oracle suite
    /// (requires the full engine assembled in the `spi` binary).
    ConformanceReplay,
}

impl Mode {
    /// The wire keyword (also the `op` echoed in responses).
    #[must_use]
    pub fn keyword(self) -> &'static str {
        match self {
            Mode::Verify => "verify",
            Mode::Campaign => "campaign",
            Mode::ConformanceReplay => "conformance-replay",
        }
    }
}

/// One parsed request line.
#[derive(Debug)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Counter dump.
    Stats,
    /// Begin a graceful drain.
    Shutdown,
    /// A worker announcing itself to a coordinator (the body is the
    /// worker's advertised address).  Doubles as the heartbeat: workers
    /// re-send it on a timer and the coordinator refreshes liveness.
    Join {
        /// The address the coordinator should dial the worker back on.
        addr: String,
    },
    /// A cache-warming pull: "send me your hottest cache entries".  The
    /// response body reuses the identity-digest-guarded snapshot codec,
    /// so a forged or torn transfer is refused by the receiver.
    Gossip,
    /// A worker announcing a graceful drain to its coordinator, so the
    /// ring can reassign its shard *before* the process dies.  The
    /// optional `cache` carries the worker's entries in the gossip
    /// encoding for proactive handoff to the next ring candidates.
    Leave {
        /// The advertised address the worker joined under.
        addr: String,
        /// The departing worker's cache in the gossip encoding
        /// (identity-digest-guarded), if it chose to hand entries off.
        cache: Option<Json>,
    },
    /// A digest-guarded cache handoff: "absorb these entries".  The
    /// receiver verifies the gossip identity digest before merging, so
    /// a forged or torn push merges nothing.
    GossipPush {
        /// The pushed entries in the gossip encoding.
        cache: Json,
    },
    /// A verification job.
    Job(Box<JobRequest>),
}

/// A fully resolved job: spec sources loaded, options defaulted.  The
/// options are the wire fields of the module-level table; each is
/// declared once, in the table behind [`JobRequest::canonical`],
/// [`JobRequest::wire_json`] and [`parse_request`], and defaulted in
/// [`JobRequest::new`].
#[derive(Debug, Clone)]
pub struct JobRequest {
    /// What to run.
    pub mode: Mode,
    /// Concrete protocol source (also the spec for conformance replay).
    pub concrete: String,
    /// Abstract specification source (empty for conformance replay).
    pub abstract_spec: String,
    /// The channel set `C` of Definition 4.
    pub channels: Vec<String>,
    /// Replication unfold bound.
    pub sessions: u32,
    /// Visible-trace depth.
    pub visible: usize,
    /// Exploration resource budget.
    pub budget: Budget,
    /// Baseline fault model, if any.
    pub faults: Option<FaultSpec>,
    /// Whether the most-general intruder participates.
    pub intruder: bool,
    /// Campaign schedule depth.
    pub faults_depth: usize,
    /// Conformance-replay oracle selection (empty = the default suite).
    pub oracles: Vec<String>,
    /// Which state-space reductions the explorations run under (cached
    /// bodies carry reduction statistics, so it enters the digest).
    pub reduce: ReduceOptions,
    /// Which decision procedure(s) answer the job (cached bodies differ
    /// by engine, so it enters the digest).
    pub engine: Engine,
    /// Wall-clock limit, counted from execution start.
    pub timeout_secs: Option<u64>,
    /// Bypass the result cache (both lookup and fill).
    pub no_cache: bool,
    /// The quota-accounting tenant id (the server defaults it to the
    /// peer address).
    pub tenant: Option<String>,
    /// Wall-clock limit in milliseconds, counted from arrival.
    pub deadline_ms: Option<u64>,
    /// Heartbeat interval in milliseconds (`None` or 0 streams nothing).
    pub progress_ms: Option<u64>,
    /// Campaign work unit: decide only the schedules at enumeration
    /// indices `[offset, offset + count)`.  Each unit is its own
    /// question, so re-dispatching one after a worker death is
    /// idempotent.
    pub unit: Option<(usize, usize)>,
}

/// Parses either a bare process or a `def …/system …` program file —
/// the same acceptance rule as the CLI — rendering errors with source
/// context.
///
/// # Errors
///
/// Returns the rendered syntax error.
pub fn parse_source(src: &str) -> Result<Process, String> {
    let result = if src
        .lines()
        .any(|l| l.trim_start().starts_with("def ") || l.trim_start().starts_with("system"))
    {
        spi_syntax::parse_program(src).map(|prog| prog.system)
    } else {
        spi_syntax::parse(src)
    };
    result.map_err(|e| e.render(src))
}

/// How a job field enters the canonical description.
enum Digest {
    /// Execution-only: the field changes when (and whether) an answer
    /// arrives, never what it is.
    Never,
    /// `|key=value` whenever the function yields a value.
    Clause(fn(&JobRequest) -> Option<String>),
    /// The same under another label (`C` and `depth`, the spellings
    /// digests have always used).
    Labelled(&'static str, fn(&JobRequest) -> Option<String>),
}

/// One job option: its wire key, how a wire value is read, how it is
/// written back, and its digest clause.
struct Field {
    key: &'static str,
    /// Reads a present wire value (`key`, value) into the job; an
    /// absent key keeps the [`JobRequest::new`] default.
    read: fn(&mut JobRequest, &str, &Json) -> Result<(), String>,
    /// The wire value, or `None` to omit the key.
    write: fn(&JobRequest) -> Option<Json>,
    digest: Digest,
}

/// The two members of a `unit` object.
const UNIT_PARTS: [&str; 2] = ["offset", "count"];

/// Every job option, in the order of its digest clause.  Clauses that
/// appear only off their default (`reduce`, `engine`, `unit`) keep the
/// digests of requests that predate them.
const FIELDS: &[Field] = &[
    Field {
        key: "channels",
        read: |job, key, v| {
            // An empty list keeps the default.
            let listed = strings(key, v)?;
            if !listed.is_empty() {
                job.channels = listed;
            }
            Ok(())
        },
        write: |job| Some(Json::str_arr(job.channels.iter().cloned())),
        digest: Digest::Labelled("C", |job| Some(job.channels.join(","))),
    },
    Field {
        key: "sessions",
        read: |job, key, v| set(&mut job.sessions, int(key, v)),
        write: |job| Some(Json::Int(i64::from(job.sessions))),
        digest: Digest::Clause(|job| Some(job.sessions.to_string())),
    },
    Field {
        key: "visible",
        read: |job, key, v| set(&mut job.visible, int(key, v)),
        write: |job| Some(Json::count(job.visible)),
        digest: Digest::Clause(|job| Some(job.visible.to_string())),
    },
    Field {
        key: "budget",
        read: |job, key, v| {
            set(&mut job.budget, Budget::parse_spec(text(key, v, "a dimension=count string")?))
        },
        write: |job| Some(Json::str(job.budget.canonical_spec())),
        digest: Digest::Clause(|job| Some(job.budget.canonical_spec())),
    },
    Field {
        key: "intruder",
        read: |job, key, v| set(&mut job.intruder, flag(key, v)),
        write: |job| Some(Json::Bool(job.intruder)),
        digest: Digest::Clause(|job| Some(job.intruder.to_string())),
    },
    Field {
        key: "faults",
        read: |job, key, v| {
            set(&mut job.faults, parse_faults(text(key, v, "a clause-list string")?))
        },
        write: |job| {
            let clauses: Vec<String> =
                job.faults.as_ref()?.clauses.iter().map(ToString::to_string).collect();
            Some(Json::str(clauses.join(",")))
        },
        digest: Digest::Clause(|job| {
            Some(job.faults.as_ref().map(FaultSpec::canonical_key).unwrap_or_default())
        }),
    },
    Field {
        key: "reduce",
        read: |job, key, v| {
            set(&mut job.reduce, keyword(key, v, "none|symmetry|por|full", ReduceOptions::parse))
        },
        write: |job| job.reduce.enabled().then(|| Json::str(job.reduce.mode())),
        digest: Digest::Clause(|job| job.reduce.enabled().then(|| job.reduce.mode().to_string())),
    },
    Field {
        key: "engine",
        read: |job, key, v| {
            set(&mut job.engine, keyword(key, v, "trace|bisim|both", Engine::parse))
        },
        write: |job| (job.engine != Engine::Trace).then(|| Json::str(job.engine.mode())),
        digest: Digest::Clause(|job| {
            (job.engine != Engine::Trace).then(|| job.engine.mode().to_string())
        }),
    },
    Field {
        key: "faults_depth",
        read: |job, key, v| set(&mut job.faults_depth, int(key, v)),
        write: |job| Some(Json::count(job.faults_depth)),
        digest: Digest::Labelled("depth", |job| {
            (job.mode == Mode::Campaign).then(|| job.faults_depth.to_string())
        }),
    },
    Field {
        key: "oracles",
        read: |job, key, v| set(&mut job.oracles, strings(key, v)),
        write: |job| {
            (!job.oracles.is_empty()).then(|| Json::str_arr(job.oracles.iter().cloned()))
        },
        digest: Digest::Clause(|job| {
            (job.mode == Mode::ConformanceReplay).then(|| job.oracles.join(","))
        }),
    },
    Field {
        key: "unit",
        read: |job, key, v| {
            let [o, c] = UNIT_PARTS;
            let part = |p: &str| {
                v.get(p)
                    .and_then(|n| int::<usize>(p, n).ok())
                    .ok_or_else(|| format!("{key:?} expects {{{o:?}:N,{c:?}:M}}, bad {p:?}"))
            };
            set(&mut job.unit, Ok(Some((part(o)?, part(c)?))))
        },
        write: |job| {
            let (offset, count) = job.unit?;
            let [o, c] = UNIT_PARTS;
            Some(Json::Obj(vec![
                (o.to_string(), Json::count(offset)),
                (c.to_string(), Json::count(count)),
            ]))
        },
        digest: Digest::Clause(|job| job.unit.map(|(offset, count)| format!("{offset}+{count}"))),
    },
    Field {
        key: "timeout_secs",
        read: |job, key, v| set(&mut job.timeout_secs, int(key, v).map(Some)),
        write: |job| job.timeout_secs.map(wire_u64),
        digest: Digest::Never,
    },
    Field {
        key: "no_cache",
        read: |job, key, v| set(&mut job.no_cache, flag(key, v)),
        write: |job| job.no_cache.then_some(Json::Bool(true)),
        digest: Digest::Never,
    },
    Field {
        key: "tenant",
        read: |job, key, v| {
            set(&mut job.tenant, text(key, v, "a string").map(|t| Some(t.to_owned())))
        },
        write: |job| job.tenant.clone().map(Json::str),
        digest: Digest::Never,
    },
    Field {
        key: "deadline_ms",
        read: |job, key, v| set(&mut job.deadline_ms, int(key, v).map(Some)),
        write: |job| job.deadline_ms.map(wire_u64),
        digest: Digest::Never,
    },
    Field {
        key: "progress_ms",
        read: |job, key, v| set(&mut job.progress_ms, int(key, v).map(Some)),
        write: |job| job.progress_ms.map(wire_u64),
        digest: Digest::Never,
    },
];

fn set<T>(slot: &mut T, value: Result<T, String>) -> Result<(), String> {
    *slot = value?;
    Ok(())
}

fn int<T: TryFrom<i64>>(key: &str, v: &Json) -> Result<T, String> {
    v.as_int()
        .and_then(|n| T::try_from(n).ok())
        .ok_or_else(|| format!("{key:?} expects a non-negative integer"))
}

fn flag(key: &str, v: &Json) -> Result<bool, String> {
    v.as_bool().ok_or_else(|| format!("{key:?} expects a boolean"))
}

fn text<'a>(key: &str, v: &'a Json, what: &str) -> Result<&'a str, String> {
    v.as_str().ok_or_else(|| format!("{key:?} expects {what}"))
}

fn strings(key: &str, v: &Json) -> Result<Vec<String>, String> {
    let expected = || format!("{key:?} expects an array of strings");
    v.as_arr()
        .ok_or_else(expected)?
        .iter()
        .map(|i| i.as_str().map(str::to_owned).ok_or_else(expected))
        .collect()
}

/// A string naming one of `choices` (spelled `a|b|c`).
fn keyword<T>(
    key: &str,
    v: &Json,
    choices: &str,
    parse: fn(&str) -> Option<T>,
) -> Result<T, String> {
    let s = text(key, v, choices)?;
    parse(s).ok_or_else(|| format!("{key:?} expects {choices}, got {s:?}"))
}

fn wire_u64(n: u64) -> Json {
    Json::Int(i64::try_from(n).unwrap_or(i64::MAX))
}

/// Parses the comma-separated fault-clause spelling shared with the
/// CLI's `--fault`.
fn parse_faults(spec: &str) -> Result<Option<FaultSpec>, String> {
    let clauses = spec
        .split(',')
        .filter(|c| !c.is_empty())
        .map(|c| c.parse::<FaultClause>().map_err(|e| e.reason))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((!clauses.is_empty()).then(|| FaultSpec::new(clauses)))
}

impl Mode {
    /// The wire keys of a job's spec sources: the concrete process,
    /// then the abstract specification (conformance replay has one
    /// spec).  Each may instead name a server-side file under the key
    /// with `_path` appended.
    fn source_keys(self) -> &'static [&'static str] {
        match self {
            Mode::ConformanceReplay => &["spec"],
            Mode::Verify | Mode::Campaign => &["concrete", "abstract"],
        }
    }
}

impl JobRequest {
    /// A job with every option at its default — what a request that
    /// omits the option gets.
    #[must_use]
    pub fn new(
        mode: Mode,
        concrete: impl Into<String>,
        abstract_spec: impl Into<String>,
    ) -> JobRequest {
        JobRequest {
            mode,
            concrete: concrete.into(),
            abstract_spec: abstract_spec.into(),
            channels: vec!["c".to_string()],
            sessions: 2,
            visible: 6,
            budget: Budget::default(),
            faults: None,
            intruder: true,
            faults_depth: 2,
            oracles: Vec::new(),
            reduce: ReduceOptions::none(),
            engine: Engine::Trace,
            timeout_secs: None,
            no_cache: false,
            tenant: None,
            deadline_ms: None,
            progress_ms: None,
            unit: None,
        }
    }

    /// The spec sources with their wire keys.
    fn sources(&self) -> impl Iterator<Item = (&'static str, &str)> {
        let texts = [self.concrete.as_str(), self.abstract_spec.as_str()];
        self.mode.source_keys().iter().copied().zip(texts)
    }

    /// The canonical description this job is content-addressed by: the
    /// engine-semantics version ([`spi_verify::ENGINE_VERSION`]), the
    /// specs parsed and re-printed (so formatting differences vanish),
    /// then every field's digest clause.  Execution-only fields
    /// (`timeout_secs`, `no_cache`, `tenant`, `deadline_ms`,
    /// `progress_ms`) contribute none.
    ///
    /// # Errors
    ///
    /// Fails when a spec does not parse (such requests are never
    /// cached).
    pub fn canonical(&self) -> Result<String, String> {
        use std::fmt::Write as _;
        let mut desc = format!(
            "serve-v1|semantics={}|{}",
            spi_verify::ENGINE_VERSION,
            self.mode.keyword()
        );
        for (_, src) in self.sources() {
            let _ = write!(desc, "|{}", parse_source(src)?);
        }
        for field in FIELDS {
            let (label, value) = match field.digest {
                Digest::Never => continue,
                Digest::Clause(value) => (field.key, value),
                Digest::Labelled(label, value) => (label, value),
            };
            if let Some(value) = value(self) {
                let _ = write!(desc, "|{label}={value}");
            }
        }
        Ok(desc)
    }

    /// The content digest of [`JobRequest::canonical`] — the cache key
    /// and the `spec_digest` echoed in responses.
    ///
    /// # Errors
    ///
    /// Fails when a spec does not parse.
    pub fn digest(&self) -> Result<String, String> {
        Ok(digest(&self.canonical()?))
    }

    /// A copy of this job restricted to one campaign work unit.
    #[must_use]
    pub fn with_unit(&self, offset: usize, count: usize) -> JobRequest {
        let mut job = self.clone();
        job.unit = Some((offset, count));
        job
    }

    /// The wall-clock cut-off of a run of this job, wherever it runs:
    /// `timeout_secs` (or `default_timeout_secs` when the request gives
    /// none) counts from now, when execution starts; `deadline_ms`
    /// counts from `accepted`, when the request arrived, so time spent
    /// queued or retrying counts against it.  The tighter one wins; a
    /// limit too far out to represent is no limit.
    #[must_use]
    pub(crate) fn deadline(
        &self,
        accepted: Instant,
        default_timeout_secs: Option<u64>,
    ) -> Option<Instant> {
        let timeout = self
            .timeout_secs
            .or(default_timeout_secs)
            .and_then(|s| Instant::now().checked_add(Duration::from_secs(s)));
        let wire = self
            .deadline_ms
            .and_then(|ms| accepted.checked_add(Duration::from_millis(ms)));
        match (timeout, wire) {
            (Some(t), Some(w)) => Some(t.min(w)),
            (t, w) => t.or(w),
        }
    }

    /// Re-renders the job as a request object a coordinator can put
    /// back on the wire when dispatching to a worker.  Round-trips
    /// through [`parse_request`] to an equivalent job (same digest,
    /// same execution-only fields).
    #[must_use]
    pub fn wire_json(&self) -> Json {
        let mut fields = vec![("op".to_string(), Json::str(self.mode.keyword()))];
        fields.extend(
            self.sources()
                .map(|(key, src)| (key.to_string(), Json::str(src))),
        );
        fields.extend(
            FIELDS
                .iter()
                .filter_map(|field| Some((field.key.to_string(), (field.write)(self)?))),
        );
        Json::Obj(fields)
    }
}

/// Resolves a spec given inline (`key`) or as a server-side file
/// (`key_path`).
fn get_source(v: &Json, key: &str) -> Result<String, String> {
    if let Some(text) = v.get(key).and_then(Json::as_str) {
        return Ok(text.to_string());
    }
    let path_key = format!("{key}_path");
    if let Some(path) = v.get(&path_key).and_then(Json::as_str) {
        return std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"));
    }
    Err(format!("request needs {key:?} or {path_key:?}"))
}

/// Parses one request line.
///
/// # Errors
///
/// Returns a message suitable for an `error` response: malformed JSON,
/// an unknown op, a missing spec, or a bad option.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = Json::parse(line.trim())?;
    let op = v
        .get("op")
        .and_then(Json::as_str)
        .ok_or("request needs a string \"op\" field")?;
    let mode = match op {
        "ping" => return Ok(Request::Ping),
        "stats" => return Ok(Request::Stats),
        "shutdown" => return Ok(Request::Shutdown),
        "gossip" => return Ok(Request::Gossip),
        "join" => {
            let addr = v
                .get("addr")
                .and_then(Json::as_str)
                .ok_or("\"join\" needs a string \"addr\" field")?;
            return Ok(Request::Join {
                addr: addr.to_string(),
            });
        }
        "leave" => {
            let addr = v
                .get("addr")
                .and_then(Json::as_str)
                .ok_or("\"leave\" needs a string \"addr\" field")?;
            return Ok(Request::Leave {
                addr: addr.to_string(),
                cache: v.get("cache").cloned(),
            });
        }
        "gossip-push" => {
            let cache = v
                .get("cache")
                .cloned()
                .ok_or("\"gossip-push\" needs a \"cache\" object")?;
            return Ok(Request::GossipPush { cache });
        }
        "verify" => Mode::Verify,
        "campaign" => Mode::Campaign,
        "conformance-replay" => Mode::ConformanceReplay,
        other => {
            return Err(format!(
                "unknown op {other:?} (expected verify|campaign|conformance-replay|ping|stats|join|leave|gossip|gossip-push|shutdown)"
            ))
        }
    };
    let mut sources = mode
        .source_keys()
        .iter()
        .map(|key| get_source(&v, key))
        .collect::<Result<Vec<_>, _>>()?
        .into_iter();
    let mut job = JobRequest::new(
        mode,
        sources.next().unwrap_or_default(),
        sources.next().unwrap_or_default(),
    );
    for field in FIELDS {
        if let Some(value) = v.get(field.key) {
            (field.read)(&mut job, field.key, value)?;
        }
    }
    Ok(Request::Job(Box::new(job)))
}

/// The success envelope.  `digest`/`cached` are present for job
/// responses and absent for control ops.
#[must_use]
pub fn ok_response(op: &str, spec_digest: Option<&str>, cached: bool, body: Json) -> Json {
    let mut fields = vec![
        ("status".to_string(), Json::str("ok")),
        ("op".to_string(), Json::str(op)),
    ];
    if let Some(d) = spec_digest {
        fields.push(("spec_digest".into(), Json::str(d)));
        fields.push(("cached".into(), Json::Bool(cached)));
    }
    fields.push(("body".into(), body));
    Json::Obj(fields)
}

/// The failure envelope (bad request, unparseable spec, engine error).
#[must_use]
pub fn error_response(op: &str, reason: &str) -> Json {
    Json::Obj(vec![
        ("status".into(), Json::str("error")),
        ("op".into(), Json::str(op)),
        ("reason".into(), Json::str(reason)),
    ])
}

/// The admission-control envelope: the server is overloaded or
/// draining, and the client should retry elsewhere/later (HTTP 429 in
/// spirit).
#[must_use]
pub fn rejected_response(op: &str, reason: &str) -> Json {
    Json::Obj(vec![
        ("status".into(), Json::str("rejected")),
        ("op".into(), Json::str(op)),
        ("reason".into(), Json::str(reason)),
    ])
}

/// A rejection with a `Retry-After`-style hint: how long (in
/// milliseconds) the client should back off before retrying.  The shape
/// is [`rejected_response`] plus a `retry_after_ms` field, so existing
/// clients that only look at `status`/`reason` keep working.
#[must_use]
pub fn shed_response(op: &str, reason: &str, retry_after_ms: u64) -> Json {
    Json::Obj(vec![
        ("status".into(), Json::str("rejected")),
        ("op".into(), Json::str(op)),
        ("reason".into(), Json::str(reason)),
        (
            "retry_after_ms".into(),
            Json::Int(i64::try_from(retry_after_ms).unwrap_or(i64::MAX)),
        ),
    ])
}

/// A streaming heartbeat emitted while a job runs (requested via
/// `progress_ms`).  Clients must keep reading: the final reply is the
/// first line whose `status` is not `"progress"`.
#[must_use]
pub fn progress_response(
    op: &str,
    spec_digest: Option<&str>,
    states_explored: u64,
    schedules_classified: u64,
) -> Json {
    let mut fields = vec![
        ("status".to_string(), Json::str("progress")),
        ("op".to_string(), Json::str(op)),
    ];
    if let Some(d) = spec_digest {
        fields.push(("spec_digest".into(), Json::str(d)));
    }
    fields.push((
        "states_explored".into(),
        Json::Int(i64::try_from(states_explored).unwrap_or(i64::MAX)),
    ));
    fields.push((
        "schedules_classified".into(),
        Json::Int(i64::try_from(schedules_classified).unwrap_or(i64::MAX)),
    ));
    Json::Obj(fields)
}

fn coverage_json(c: &CoverageStats) -> Json {
    Json::Obj(vec![
        ("states".into(), Json::count(c.states)),
        ("transitions".into(), Json::count(c.transitions)),
        ("expanded".into(), Json::count(c.expanded)),
        ("frontier".into(), Json::count(c.frontier)),
        ("steps".into(), Json::count(c.steps)),
    ])
}

/// The JSON body of a verify result — the one shape shared by
/// `spi verify --format json`, the daemon, and its cache.
#[must_use]
pub fn verify_body(report: &VerificationReport) -> Json {
    let mut fields = Vec::new();
    match &report.verdict {
        Verdict::SecurelyImplements => {
            fields.push(("verdict".to_string(), Json::str("securely-implements")));
        }
        Verdict::Attack(attack) => {
            fields.push(("verdict".to_string(), Json::str("attack")));
            fields.push((
                "attack".into(),
                Json::Obj(vec![
                    ("trace".into(), Json::str_arr(attack.trace.iter().cloned())),
                    (
                        "narration".into(),
                        Json::str_arr(attack.narration.iter().cloned()),
                    ),
                ]),
            ));
        }
        Verdict::Inconclusive {
            exhausted,
            coverage,
        } => {
            fields.push(("verdict".to_string(), Json::str("inconclusive")));
            fields.push(("exhausted".into(), Json::str(exhausted.to_string())));
            fields.push(("coverage".into(), coverage_json(coverage)));
        }
    }
    fields.push((
        "concrete_states".into(),
        Json::count(report.concrete_stats.states),
    ));
    fields.push((
        "abstract_states".into(),
        Json::count(report.abstract_stats.states),
    ));
    fields.push(("traces_checked".into(), Json::count(report.traces_checked)));
    // Emitted only for the non-default engines, so pre-engine cached
    // bodies and fresh trace-engine bodies stay byte-identical.
    if report.engine != Engine::Trace {
        fields.push(("engine".into(), Json::str(report.engine.mode())));
    }
    if report.reduce.enabled() {
        let quotiented = report.concrete_stats.states_quotiented
            + report.abstract_stats.states_quotiented;
        let pruned = report.concrete_stats.por_pruned + report.abstract_stats.por_pruned;
        fields.push((
            "reduction".into(),
            Json::Obj(vec![
                ("mode".into(), Json::str(report.reduce.mode())),
                (
                    "states_quotiented".into(),
                    Json::Int(i64::try_from(quotiented).unwrap_or(i64::MAX)),
                ),
                (
                    "por_pruned".into(),
                    Json::Int(i64::try_from(pruned).unwrap_or(i64::MAX)),
                ),
            ]),
        ));
    }
    Json::Obj(fields)
}

/// The JSON body of a campaign result: the tally plus every
/// per-schedule record in the same encoding campaign checkpoints use.
#[must_use]
pub fn campaign_body(report: &CampaignReport) -> Json {
    let (attacks, survives, inconclusive) = report.tally();
    let mut fields = vec![
        ("enumerated".into(), Json::count(report.enumerated)),
        ("attacks".into(), Json::count(attacks)),
        ("survives".into(), Json::count(survives)),
        ("inconclusive".into(), Json::count(inconclusive)),
        ("interrupted".into(), Json::Bool(report.interrupted)),
        ("identity".into(), Json::str(report.identity.clone())),
    ];
    // Nonzero only under `--engine both`; omitted otherwise so existing
    // cached bodies keep their exact shape.
    if report.early_rejects > 0 {
        fields.push((
            "early_rejects".into(),
            Json::Int(i64::try_from(report.early_rejects).unwrap_or(i64::MAX)),
        ));
    }
    fields.push((
        "results".into(),
        Json::Arr(
            report
                .results
                .iter()
                .map(spi_verify::ScheduleResult::to_json)
                .collect(),
        ),
    ));
    Json::Obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    const VERIFY_LINE: &str = r#"{"op":"verify","concrete":"(^m)c<m>|c(x).observe<x>","abstract":"(^m)c<m>|c(x).observe<x>","sessions":1}"#;

    fn job(line: &str) -> JobRequest {
        match parse_request(line).unwrap() {
            Request::Job(j) => *j,
            other => panic!("expected a job, got {other:?}"),
        }
    }

    #[test]
    fn control_ops_parse() {
        assert!(matches!(
            parse_request(r#"{"op":"ping"}"#).unwrap(),
            Request::Ping
        ));
        assert!(matches!(
            parse_request(r#"{"op":"stats"}"#).unwrap(),
            Request::Stats
        ));
        assert!(matches!(
            parse_request(r#"{"op":"shutdown"}"#).unwrap(),
            Request::Shutdown
        ));
    }

    #[test]
    fn bad_requests_are_rejected_with_reasons() {
        assert!(parse_request("not json").is_err());
        assert!(parse_request(r#"{"op":"frobnicate"}"#).is_err());
        assert!(parse_request(r#"{"op":"verify"}"#)
            .unwrap_err()
            .contains("concrete"));
        assert!(parse_request(
            r#"{"op":"verify","concrete":"0","abstract":"0","sessions":"three"}"#
        )
        .is_err());
        assert!(parse_request(r#"{"op":"verify","concrete":"0","abstract":"0","budget":"bogus=1"}"#)
            .is_err());
    }

    #[test]
    fn job_defaults_match_the_cli() {
        let j = job(VERIFY_LINE);
        assert_eq!(j.mode, Mode::Verify);
        assert_eq!(j.channels, ["c"]);
        assert_eq!(j.sessions, 1);
        assert_eq!(j.visible, 6);
        assert_eq!(j.budget, Budget::default());
        assert!(j.intruder);
        assert!(j.faults.is_none());
        assert!(!j.no_cache);
        assert!(j.timeout_secs.is_none());
    }

    #[test]
    fn digest_is_formatting_insensitive_but_option_sensitive() {
        let a = job(VERIFY_LINE);
        // Same processes, spelled with different whitespace.
        let b = job(
            r#"{"op":"verify","concrete":"(^m) c<m> | c(x).observe<x>","abstract":"(^m)c<m>|c(x).observe<x>","sessions":1}"#,
        );
        assert_eq!(a.digest().unwrap(), b.digest().unwrap());
        // Timeout and no_cache do not change the question...
        let c = job(
            r#"{"op":"verify","concrete":"(^m)c<m>|c(x).observe<x>","abstract":"(^m)c<m>|c(x).observe<x>","sessions":1,"timeout_secs":5,"no_cache":true}"#,
        );
        assert_eq!(a.digest().unwrap(), c.digest().unwrap());
        // ...and neither do the admission/streaming knobs: a tenant id,
        // a deadline, or a heartbeat request must hit the same cache key.
        let h = job(
            r#"{"op":"verify","concrete":"(^m)c<m>|c(x).observe<x>","abstract":"(^m)c<m>|c(x).observe<x>","sessions":1,"tenant":"alice","deadline_ms":2500,"progress_ms":100}"#,
        );
        assert_eq!(a.digest().unwrap(), h.digest().unwrap());
        // ...but every semantic knob does.
        let d = job(&VERIFY_LINE.replace("\"sessions\":1", "\"sessions\":2"));
        assert_ne!(a.digest().unwrap(), d.digest().unwrap());
        let e = job(
            r#"{"op":"verify","concrete":"(^m)c<m>|c(x).observe<x>","abstract":"(^m)c<m>|c(x).observe<x>","sessions":1,"faults":"drop:c:1"}"#,
        );
        assert_ne!(a.digest().unwrap(), e.digest().unwrap());
        // The reduction mode is a semantic knob too (cached bodies carry
        // reduction statistics)...
        let f = job(&VERIFY_LINE.replace("\"sessions\":1", "\"sessions\":1,\"reduce\":\"full\""));
        assert_ne!(a.digest().unwrap(), f.digest().unwrap());
        // ...but `reduce: none` spelled explicitly is the default digest.
        let g = job(&VERIFY_LINE.replace("\"sessions\":1", "\"sessions\":1,\"reduce\":\"none\""));
        assert_eq!(a.digest().unwrap(), g.digest().unwrap());
        assert!(parse_request(
            &VERIFY_LINE.replace("\"sessions\":1", "\"sessions\":1,\"reduce\":\"bogus\"")
        )
        .is_err());
    }

    #[test]
    fn engine_field_round_trips_and_keeps_old_digests() {
        // Old clients never send "engine": the job defaults to the
        // trace engine and its digest is byte-identical to a request
        // that spells the default out — warm caches survive the upgrade.
        let old = job(VERIFY_LINE);
        assert_eq!(old.engine, Engine::Trace);
        assert!(
            !old.canonical().unwrap().contains("engine"),
            "default engine stays out of the canonical description"
        );
        let explicit =
            job(&VERIFY_LINE.replace("\"sessions\":1", "\"sessions\":1,\"engine\":\"trace\""));
        assert_eq!(old.digest().unwrap(), explicit.digest().unwrap());
        assert!(
            !old.wire_json().render_compact().contains("engine"),
            "the default engine is not re-emitted on the wire"
        );

        // The non-default engines are semantic knobs: distinct digests
        // (a bisim body must never be served for a trace request), and
        // the field survives a wire round-trip.
        for spelled in ["bisim", "both"] {
            let line = VERIFY_LINE.replace(
                "\"sessions\":1",
                &format!("\"sessions\":1,\"engine\":\"{spelled}\""),
            );
            let j = job(&line);
            assert_eq!(j.engine.mode(), spelled);
            assert_ne!(old.digest().unwrap(), j.digest().unwrap());
            let back = job(&j.wire_json().render_compact());
            assert_eq!(back.engine, j.engine);
            assert_eq!(back.digest().unwrap(), j.digest().unwrap());
        }
        let bisim =
            job(&VERIFY_LINE.replace("\"sessions\":1", "\"sessions\":1,\"engine\":\"bisim\""));
        let both =
            job(&VERIFY_LINE.replace("\"sessions\":1", "\"sessions\":1,\"engine\":\"both\""));
        assert_ne!(bisim.digest().unwrap(), both.digest().unwrap());
        assert!(parse_request(
            &VERIFY_LINE.replace("\"sessions\":1", "\"sessions\":1,\"engine\":\"quantum\"")
        )
        .unwrap_err()
        .contains("trace|bisim|both"));
    }

    #[test]
    fn fleet_ops_and_units_parse() {
        assert!(matches!(
            parse_request(r#"{"op":"gossip"}"#).unwrap(),
            Request::Gossip
        ));
        match parse_request(r#"{"op":"join","addr":"127.0.0.1:7777"}"#).unwrap() {
            Request::Join { addr } => assert_eq!(addr, "127.0.0.1:7777"),
            other => panic!("expected join, got {other:?}"),
        }
        assert!(parse_request(r#"{"op":"join"}"#).is_err(), "addr required");
        let j = job(
            r#"{"op":"campaign","concrete":"0","abstract":"0","unit":{"offset":4,"count":2}}"#,
        );
        assert_eq!(j.unit, Some((4, 2)));
        assert!(
            parse_request(r#"{"op":"campaign","concrete":"0","abstract":"0","unit":{"offset":4}}"#)
                .is_err(),
            "count required"
        );
    }

    #[test]
    fn units_are_content_addressed_separately() {
        let whole = job(r#"{"op":"campaign","concrete":"0","abstract":"0"}"#);
        let a = whole.with_unit(0, 5);
        let b = whole.with_unit(5, 5);
        assert_ne!(whole.digest().unwrap(), a.digest().unwrap());
        assert_ne!(a.digest().unwrap(), b.digest().unwrap());
        // Re-dispatch of the same unit hits the same cache key.
        assert_eq!(a.digest().unwrap(), whole.with_unit(0, 5).digest().unwrap());
    }

    #[test]
    fn wire_json_round_trips_to_the_same_digest() {
        for line in [
            VERIFY_LINE,
            r#"{"op":"campaign","concrete":"(^m)c<m>|c(x).observe<x>","abstract":"(^m)c<m>|c(x).observe<x>","faults_depth":1,"unit":{"offset":1,"count":3},"budget":"states=50","faults":"drop:c:1,replay:c:2","intruder":false,"timeout_secs":9,"no_cache":true,"tenant":"batch-7","deadline_ms":60000,"progress_ms":200}"#,
            r#"{"op":"verify","concrete":"(^m)c<m>|c(x).observe<x>","abstract":"(^m)c<m>|c(x).observe<x>","sessions":2,"reduce":"full"}"#,
        ] {
            let original = job(line);
            let rendered = original.wire_json().render_compact();
            assert!(!rendered.contains('\n'));
            let back = job(&rendered);
            assert_eq!(original.digest().unwrap(), back.digest().unwrap());
            assert_eq!(original.unit, back.unit);
            assert_eq!(original.timeout_secs, back.timeout_secs);
            assert_eq!(original.no_cache, back.no_cache);
            assert_eq!(original.tenant, back.tenant);
            assert_eq!(original.deadline_ms, back.deadline_ms);
            assert_eq!(original.progress_ms, back.progress_ms);
        }
    }

    #[test]
    fn leave_and_gossip_push_parse() {
        match parse_request(r#"{"op":"leave","addr":"127.0.0.1:7777"}"#).unwrap() {
            Request::Leave { addr, cache } => {
                assert_eq!(addr, "127.0.0.1:7777");
                assert!(cache.is_none());
            }
            other => panic!("expected leave, got {other:?}"),
        }
        match parse_request(
            r#"{"op":"leave","addr":"127.0.0.1:7777","cache":{"version":1,"identity":"fnv:x","entries":[]}}"#,
        )
        .unwrap()
        {
            Request::Leave { cache, .. } => assert!(cache.is_some()),
            other => panic!("expected leave, got {other:?}"),
        }
        assert!(parse_request(r#"{"op":"leave"}"#).is_err(), "addr required");
        match parse_request(
            r#"{"op":"gossip-push","cache":{"version":1,"identity":"fnv:x","entries":[]}}"#,
        )
        .unwrap()
        {
            Request::GossipPush { cache } => assert!(cache.get("entries").is_some()),
            other => panic!("expected gossip-push, got {other:?}"),
        }
        assert!(
            parse_request(r#"{"op":"gossip-push"}"#).is_err(),
            "cache required"
        );
    }

    #[test]
    fn streaming_and_shed_envelopes() {
        let p = progress_response("campaign", Some("fnv:0123"), 42, 7).render_compact();
        let back = Json::parse(&p).unwrap();
        assert_eq!(back.get("status").and_then(Json::as_str), Some("progress"));
        assert_eq!(back.get("states_explored").and_then(Json::as_int), Some(42));
        assert_eq!(
            back.get("schedules_classified").and_then(Json::as_int),
            Some(7)
        );
        let s = shed_response("verify", "queue full (8 pending)", 250).render_compact();
        let back = Json::parse(&s).unwrap();
        assert_eq!(back.get("status").and_then(Json::as_str), Some("rejected"));
        assert_eq!(back.get("retry_after_ms").and_then(Json::as_int), Some(250));
    }

    #[test]
    fn the_documented_field_tables_follow_the_declaration() {
        let keys: Vec<&str> = FIELDS.iter().map(|f| f.key).collect();
        let tutorial = include_str!("../../../docs/TUTORIAL.md");
        let section = tutorial
            .split("\n## ")
            .find(|s| s.starts_with("11. "))
            .expect("the service section");
        for (doc, row) in [(include_str!("protocol.rs"), "//! | `"), (section, "| `")] {
            let listed: Vec<&str> = doc
                .lines()
                .filter_map(|l| l.strip_prefix(row)?.split('`').next())
                .collect();
            assert_eq!(listed, keys);
        }
    }

    #[test]
    fn unparseable_specs_fail_the_digest() {
        let j = job(r#"{"op":"verify","concrete":"(((","abstract":"0"}"#);
        assert!(j.digest().is_err());
    }

    #[test]
    fn envelopes_render_compact_single_line() {
        let ok = ok_response("verify", Some("fnv:0123"), true, Json::Obj(vec![]));
        let line = ok.render_compact();
        assert!(!line.contains('\n'));
        assert!(line.contains("\"cached\":true"), "{line}");
        let back = Json::parse(&line).unwrap();
        assert_eq!(back.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(back.get("spec_digest").and_then(Json::as_str), Some("fnv:0123"));
        let err = error_response("verify", "boom").render_compact();
        assert!(Json::parse(&err).unwrap().get("reason").is_some());
        let rej = rejected_response("verify", "queue full").render_compact();
        assert_eq!(
            Json::parse(&rej).unwrap().get("status").and_then(Json::as_str),
            Some("rejected")
        );
    }
}
