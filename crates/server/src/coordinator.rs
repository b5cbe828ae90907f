//! The fleet coordinator: sharded routing with failure handling.
//!
//! A coordinator speaks the *same* newline-delimited JSON protocol as
//! a single `spi serve` worker — clients need not know which they are
//! talking to.  Behind the socket it routes each job by content
//! digest to a worker on a consistent-hash [`Ring`], so each worker's
//! result cache holds a distinct shard of the question space:
//!
//! ```text
//! client ──▶ coordinator ──digest──▶ ring ──▶ worker A (cache shard A)
//!                 │                    ├────▶ worker B (cache shard B)
//!                 │ campaign           └────▶ worker C (cache shard C)
//!                 ▼
//!          split into work units ──▶ dispatcher per worker (work-stealing
//!          queue; a dead worker's units re-dispatch — content-addressed,
//!          so a retry is idempotent) ──▶ stitch unit reports back together
//! ```
//!
//! Failure handling, in order of escalation:
//! * a **rejected** answer (queue full, draining) tries the next ring
//!   candidate — exactly the node the key would move to if the first
//!   died;
//! * a **dial or read failure** marks the worker dead immediately and
//!   moves on; heartbeat sweeps catch silent deaths between requests;
//! * a **slow** worker gets a hedged second request to the next
//!   candidate once the wait passes the observed p99 dispatch latency
//!   (never below the configured floor), first answer wins;
//! * **quorum loss** degrades gracefully: the coordinator runs the job
//!   on its own local engine, marking the envelope `"via":"local"`.
//!
//! With `--chaos <seed>` the coordinator injects a deterministic
//! [`ChaosPlan`] against itself (worker kills, heartbeat deafness,
//! partitioned dials) — same seed, same failures, same points in the
//! request sequence.

use std::collections::VecDeque;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use spi_semantics::FaultKind;
use spi_verify::faultsim::multi_fault_schedules;
use spi_verify::jsonlite::Json;
use spi_verify::{CampaignReport, ScheduleResult};

use crate::chaos::{ChaosEvent, ChaosPlan};
use crate::client::Client;
use crate::flight::Singleflight;
use crate::protocol::{
    campaign_body, error_response, ok_response, parse_request, JobRequest, Mode, Request,
};
use crate::service::{read_line_capped, run_locally, Engine, Histogram, RunControl};
use crate::shard::Ring;
use crate::Membership;

/// Coordinator configuration (the `spi fleet` flags).
#[derive(Debug, Clone)]
pub struct CoordinatorOptions {
    /// Listen address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Minimum alive workers for fleet routing; below it, jobs run on
    /// the coordinator's local engine.
    pub quorum: usize,
    /// Failure-detection sweep interval.
    pub heartbeat_ms: u64,
    /// A worker whose last heartbeat is older than this is dead.
    pub fail_after_ms: u64,
    /// Schedules per campaign work unit.
    pub unit_size: usize,
    /// Hedged-request floor: a second request goes to the next ring
    /// candidate after `max(this, observed p99 dispatch latency)`.
    pub hedge_after_ms: u64,
    /// Worker dial timeout.
    pub connect_timeout_ms: u64,
    /// Worker response timeout.
    pub read_timeout_ms: u64,
    /// Full retry rounds (with exponential backoff) across the ring
    /// before degrading to local execution.
    pub retry_rounds: usize,
    /// Chaos seed; `None` runs without injected fleet faults.
    pub chaos: Option<u64>,
    /// Request horizon a chaos plan is expanded over.
    pub chaos_horizon: usize,
}

impl Default for CoordinatorOptions {
    fn default() -> CoordinatorOptions {
        CoordinatorOptions {
            addr: "127.0.0.1:7971".into(),
            quorum: 1,
            heartbeat_ms: 200,
            fail_after_ms: 1500,
            unit_size: 4,
            hedge_after_ms: 500,
            connect_timeout_ms: 1000,
            read_timeout_ms: 120_000,
            retry_rounds: 3,
            chaos: None,
            chaos_horizon: 64,
        }
    }
}

#[derive(Debug, Default)]
struct ChaosState {
    /// Heartbeats are ignored while the request counter is below this.
    deaf_until: u64,
    /// `(worker, until request index)` active one-way partitions.
    partitions: Vec<(String, u64)>,
}

struct Coord {
    engine: Arc<dyn Engine>,
    opts: CoordinatorOptions,
    addr: SocketAddr,
    members: Membership,
    draining: AtomicBool,
    cancel: Arc<AtomicBool>,
    requests: AtomicU64,
    routed: AtomicU64,
    local_runs: AtomicU64,
    retried: AtomicU64,
    hedges: AtomicU64,
    hedge_wins: AtomicU64,
    /// Hedges *not* fired because the primary proved alive through a
    /// progress heartbeat while the hedge timer ran.
    hedges_deferred: AtomicU64,
    redispatched: AtomicU64,
    /// Cache entries pushed to new ring owners when workers announced
    /// a drain (`leave`).
    handoff_entries: AtomicU64,
    dispatch_latency: Histogram,
    /// At most one in-flight dispatch per digest: the coordinator holds
    /// no result cache, so without this two cold clients racing on the
    /// same spec both dial the fleet (or both run locally) and the
    /// exploration executes twice.
    flight: Singleflight,
    /// Recent leader replies, newest last, consulted by flight
    /// followers after their wait.  Bounded — this is a rendezvous
    /// buffer for concurrent duplicates, not a cache (the workers own
    /// the caches).
    replies: Mutex<VecDeque<(String, String)>>,
    flight_collapsed: AtomicU64,
    chaos: Option<ChaosPlan>,
    chaos_state: Mutex<ChaosState>,
}

/// How many leader replies the follower rendezvous buffer retains.
const REPLY_MEMO_CAP: usize = 64;

/// A running coordinator.  Like [`crate::ServerHandle`], dropping it
/// does not stop the node; call [`CoordinatorHandle::join`].
pub struct CoordinatorHandle {
    coord: Arc<Coord>,
    acceptor: JoinHandle<()>,
    sweeper: JoinHandle<()>,
}

impl CoordinatorHandle {
    /// The bound listen address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.coord.addr
    }

    /// Alive worker addresses, sorted.
    #[must_use]
    pub fn workers(&self) -> Vec<String> {
        self.coord.members.alive()
    }

    /// Begins a graceful drain.  Idempotent; returns immediately.
    pub fn shutdown(&self) {
        trigger_drain(&self.coord);
    }

    /// Whether a drain has been triggered.
    #[must_use]
    pub fn draining(&self) -> bool {
        self.coord.draining.load(Ordering::SeqCst)
    }

    /// A cheap handle another thread can use to trigger the drain.
    #[must_use]
    pub fn shutdown_handle(&self) -> CoordinatorShutdown {
        CoordinatorShutdown {
            coord: Arc::clone(&self.coord),
        }
    }

    /// Blocks until something triggers the drain, then joins.
    pub fn join_on_drain(self) {
        while !self.draining() {
            std::thread::sleep(Duration::from_millis(50));
        }
        self.join();
    }

    /// Drains and waits for the acceptor and sweeper to finish.
    pub fn join(self) {
        self.shutdown();
        let _ = self.acceptor.join();
        let _ = self.sweeper.join();
    }
}

/// Triggers a coordinator's drain from any thread.
pub struct CoordinatorShutdown {
    coord: Arc<Coord>,
}

impl CoordinatorShutdown {
    /// Begins the graceful drain.  Idempotent.
    pub fn shutdown(&self) {
        trigger_drain(&self.coord);
    }
}

fn trigger_drain(coord: &Arc<Coord>) {
    if coord.draining.swap(true, Ordering::SeqCst) {
        return;
    }
    coord.cancel.store(true, Ordering::Relaxed);
    let _ = TcpStream::connect(coord.addr);
}

/// Starts a coordinator.  Workers announce themselves afterwards with
/// `{"op":"join","addr":…}` heartbeats.
///
/// # Errors
///
/// Fails when the address cannot be bound.
pub fn coordinate(
    engine: Arc<dyn Engine>,
    opts: CoordinatorOptions,
) -> Result<CoordinatorHandle, String> {
    let listener = TcpListener::bind(&opts.addr)
        .map_err(|e| format!("cannot bind {}: {e}", opts.addr))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("cannot resolve bound address: {e}"))?;
    let chaos = opts.chaos.map(|seed| ChaosPlan::generate(seed, opts.chaos_horizon));
    if let Some(plan) = &chaos {
        eprintln!(
            "spi-fleet: chaos plan {}",
            plan.to_json().render_compact()
        );
    }
    let coord = Arc::new(Coord {
        engine,
        addr,
        members: Membership::new(),
        draining: AtomicBool::new(false),
        cancel: Arc::new(AtomicBool::new(false)),
        requests: AtomicU64::new(0),
        routed: AtomicU64::new(0),
        local_runs: AtomicU64::new(0),
        retried: AtomicU64::new(0),
        hedges: AtomicU64::new(0),
        hedge_wins: AtomicU64::new(0),
        hedges_deferred: AtomicU64::new(0),
        redispatched: AtomicU64::new(0),
        handoff_entries: AtomicU64::new(0),
        dispatch_latency: Histogram::default(),
        flight: Singleflight::new(),
        replies: Mutex::new(VecDeque::new()),
        flight_collapsed: AtomicU64::new(0),
        chaos,
        chaos_state: Mutex::new(ChaosState::default()),
        opts,
    });

    let sweeper = {
        let coord = Arc::clone(&coord);
        std::thread::spawn(move || {
            while !coord.draining.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(coord.opts.heartbeat_ms));
                let _ = coord
                    .members
                    .sweep(Duration::from_millis(coord.opts.fail_after_ms));
            }
        })
    };

    let acceptor = {
        let coord = Arc::clone(&coord);
        std::thread::spawn(move || {
            for conn in listener.incoming() {
                if coord.draining.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                let coord = Arc::clone(&coord);
                std::thread::spawn(move || handle_connection(&coord, stream));
            }
        })
    };

    Ok(CoordinatorHandle {
        coord,
        acceptor,
        sweeper,
    })
}

fn handle_connection(coord: &Arc<Coord>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    loop {
        let response = match read_line_capped(&mut reader) {
            Err(_) | Ok(None) => break,
            Ok(Some(Err(reason))) => error_response("request", &reason).render_compact(),
            Ok(Some(Ok(line))) => {
                if line.trim().is_empty() {
                    continue;
                }
                handle_line(coord, &line)
            }
        };
        if writeln!(writer, "{response}").is_err() {
            break;
        }
    }
}

fn handle_line(coord: &Arc<Coord>, line: &str) -> String {
    match parse_request(line) {
        Err(e) => error_response("request", &e).render_compact(),
        Ok(Request::Ping) => ok_response("ping", None, false, Json::Obj(vec![])).render_compact(),
        Ok(Request::Stats) => stats_response(coord).render_compact(),
        Ok(Request::Shutdown) => {
            trigger_drain(coord);
            ok_response("shutdown", None, false, Json::Obj(vec![])).render_compact()
        }
        Ok(Request::Gossip) => error_response(
            "gossip",
            "the coordinator holds no result cache; gossip with a worker",
        )
        .render_compact(),
        Ok(Request::GossipPush { .. }) => error_response(
            "gossip-push",
            "the coordinator holds no result cache; push to a worker",
        )
        .render_compact(),
        Ok(Request::Join { addr }) => handle_join(coord, &addr).render_compact(),
        Ok(Request::Leave { addr, cache }) => handle_leave(coord, &addr, cache.as_ref()).render_compact(),
        Ok(Request::Job(job)) => handle_job(coord, &job),
    }
}

/// A worker announcing its drain, optionally handing over its cache
/// shard.  The coordinator removes it from the ring *now* (no waiting
/// for the failure detector) and pushes each handed-over entry to the
/// worker that now owns its digest — so a drain-then-kill loses no
/// warm cache entry and the first post-drain request is still a hit.
fn handle_leave(coord: &Arc<Coord>, addr: &str, cache: Option<&Json>) -> Json {
    coord.members.mark_dead(addr);
    let mut handed_off = 0usize;
    let mut targets = 0usize;
    if let Some(body) = cache {
        match crate::gossip::parse_gossip(body) {
            Err(e) => return error_response("leave", &format!("refusing the handoff: {e}")),
            Ok(entries) if entries.is_empty() => {}
            Ok(entries) => {
                let idx = coord.requests.load(Ordering::SeqCst);
                let survivors: Vec<String> = reachable_workers(coord, idx)
                    .into_iter()
                    .filter(|a| a != addr)
                    .collect();
                if !survivors.is_empty() {
                    // Route each entry to the worker its digest now
                    // lands on, grouping so each new owner gets one
                    // digest-guarded push.
                    let ring = Ring::new(survivors);
                    let mut per_owner: Vec<(String, crate::snapshot::Entries)> = Vec::new();
                    for entry in entries {
                        let Some(owner) = ring.candidates(&entry.0).next() else {
                            continue;
                        };
                        match per_owner.iter_mut().find(|(a, _)| a == owner) {
                            Some((_, batch)) => batch.push(entry),
                            None => per_owner.push((owner.to_string(), vec![entry])),
                        }
                    }
                    let connect = Duration::from_millis(coord.opts.connect_timeout_ms);
                    let read = Duration::from_millis(coord.opts.read_timeout_ms);
                    for (owner, batch) in per_owner {
                        match crate::gossip::push_to(&owner, &batch, connect, read) {
                            Ok(_) => {
                                handed_off += batch.len();
                                targets += 1;
                            }
                            Err(_) => coord.members.mark_dead(&owner),
                        }
                    }
                    coord
                        .handoff_entries
                        .fetch_add(u64::try_from(handed_off).unwrap_or(0), Ordering::SeqCst);
                }
            }
        }
    }
    ok_response(
        "leave",
        None,
        false,
        Json::Obj(vec![
            ("handed_off".to_string(), Json::count(handed_off)),
            ("targets".to_string(), Json::count(targets)),
        ]),
    )
}

fn handle_join(coord: &Arc<Coord>, addr: &str) -> Json {
    let idx = coord.requests.load(Ordering::SeqCst);
    let deaf = coord
        .chaos_state
        .lock()
        .expect("chaos lock")
        .deaf_until
        > idx;
    if deaf {
        // A dropped heartbeat answers ok (the worker cannot tell) but
        // leaves the membership table untouched, so failure detection
        // fires on perfectly healthy workers — the point of the drill.
        return ok_response(
            "join",
            None,
            false,
            Json::Obj(vec![("ignored".to_string(), Json::Bool(true))]),
        );
    }
    let rejoined = coord.members.heartbeat(addr);
    let peers: Vec<String> = coord
        .members
        .alive()
        .into_iter()
        .filter(|a| a != addr)
        .collect();
    ok_response(
        "join",
        None,
        false,
        Json::Obj(vec![
            ("rejoined".to_string(), Json::Bool(rejoined)),
            ("peers".to_string(), Json::str_arr(peers)),
        ]),
    )
}

fn stats_response(coord: &Arc<Coord>) -> Json {
    let (alive, dead) = coord.members.counts();
    let load = |c: &AtomicU64| Json::count(usize::try_from(c.load(Ordering::SeqCst)).unwrap_or(0));
    let mut fields = vec![
        ("role".to_string(), Json::str("coordinator")),
        ("workers_alive".to_string(), Json::count(alive)),
        ("workers_dead".to_string(), Json::count(dead)),
        ("requests".to_string(), load(&coord.requests)),
        ("routed".to_string(), load(&coord.routed)),
        ("local_runs".to_string(), load(&coord.local_runs)),
        ("retried".to_string(), load(&coord.retried)),
        ("hedges".to_string(), load(&coord.hedges)),
        ("hedge_wins".to_string(), load(&coord.hedge_wins)),
        ("hedges_deferred".to_string(), load(&coord.hedges_deferred)),
        ("redispatched".to_string(), load(&coord.redispatched)),
        ("handoff_entries".to_string(), load(&coord.handoff_entries)),
        ("flight_collapsed".to_string(), load(&coord.flight_collapsed)),
        ("dispatch_latency".to_string(), coord.dispatch_latency.to_json()),
        (
            "draining".to_string(),
            Json::Bool(coord.draining.load(Ordering::SeqCst)),
        ),
    ];
    if let Some(plan) = &coord.chaos {
        fields.push(("chaos".to_string(), plan.to_json()));
    }
    ok_response("stats", None, false, Json::Obj(fields))
}

/// Applies every chaos event scheduled at this request index.
fn apply_chaos(coord: &Arc<Coord>, idx: u64) {
    let Some(plan) = &coord.chaos else { return };
    let events: Vec<ChaosEvent> = plan
        .at(usize::try_from(idx).unwrap_or(usize::MAX))
        .cloned()
        .collect();
    for event in events {
        match event {
            ChaosEvent::KillWorker { victim } => {
                let alive = coord.members.alive();
                if alive.is_empty() {
                    continue;
                }
                let target = &alive[victim % alive.len()];
                eprintln!("spi-fleet: chaos kills {target} at request {idx}");
                // A real kill: the worker drains and exits; its
                // in-flight work answers `rejected` and re-dispatches.
                if let Ok(mut c) = Client::connect_with(
                    target,
                    Some(Duration::from_millis(coord.opts.connect_timeout_ms)),
                ) {
                    let _ = c.roundtrip(r#"{"op":"shutdown"}"#);
                }
                coord.members.mark_dead(target);
            }
            ChaosEvent::DropHeartbeats { requests } => {
                let mut state = coord.chaos_state.lock().expect("chaos lock");
                state.deaf_until = idx + u64::try_from(requests).unwrap_or(0);
            }
            ChaosEvent::Partition { victim, requests } => {
                let alive = coord.members.alive();
                if alive.is_empty() {
                    continue;
                }
                let target = alive[victim % alive.len()].clone();
                let mut state = coord.chaos_state.lock().expect("chaos lock");
                state
                    .partitions
                    .push((target, idx + u64::try_from(requests).unwrap_or(0)));
            }
        }
    }
}

/// Alive workers reachable at this request index (partitions excluded).
fn reachable_workers(coord: &Arc<Coord>, idx: u64) -> Vec<String> {
    let partitioned: Vec<String> = {
        let state = coord.chaos_state.lock().expect("chaos lock");
        state
            .partitions
            .iter()
            .filter(|(_, until)| *until > idx)
            .map(|(a, _)| a.clone())
            .collect()
    };
    coord
        .members
        .alive()
        .into_iter()
        .filter(|a| !partitioned.contains(a))
        .collect()
}

fn status_of(reply: &str) -> Option<String> {
    Json::parse(reply)
        .ok()?
        .get("status")
        .and_then(Json::as_str)
        .map(str::to_owned)
}

fn handle_job(coord: &Arc<Coord>, job: &JobRequest) -> String {
    let accepted = Instant::now();
    let idx = coord.requests.fetch_add(1, Ordering::SeqCst);
    apply_chaos(coord, idx);
    let op = job.mode.keyword();
    let digest = match job.digest() {
        Ok(d) => d,
        Err(e) => return error_response(op, &e).render_compact(),
    };
    if job.no_cache {
        // A cache-bypassing request asked for a fresh run; collapsing
        // it onto a concurrent duplicate would hand it stale bytes.
        return dispatch_job(coord, idx, job, &digest, accepted).0;
    }
    loop {
        if coord.flight.begin(&digest) {
            let (reply, complete) = dispatch_job(coord, idx, job, &digest, accepted);
            if complete && status_of(&reply).as_deref() == Some("ok") {
                remember_reply(coord, &digest, &reply);
            }
            coord.flight.finish(&digest);
            return reply;
        }
        // A concurrent duplicate: park behind the leader, then answer
        // from its reply.  A miss means the leader failed, or its
        // answer may have been cut short by its own time limit — loop
        // around and become the next leader.
        coord.flight_collapsed.fetch_add(1, Ordering::SeqCst);
        coord.flight.wait(&digest);
        if let Some(reply) = recall_reply(coord, &digest) {
            return reply;
        }
    }
}

/// The dispatch body shared by flight leaders and `no_cache` bypasses:
/// campaign fan-out when worthwhile, otherwise ring routing with local
/// degradation.  The flag says whether the reply is known complete, so
/// that a concurrent duplicate may be answered with it.
fn dispatch_job(
    coord: &Arc<Coord>,
    idx: u64,
    job: &JobRequest,
    digest: &str,
    accepted: Instant,
) -> (String, bool) {
    if job.mode == Mode::Campaign && job.unit.is_none() {
        if let Some(reply) = campaign_fanout(coord, idx, job, digest, accepted) {
            return reply;
        }
    }
    match try_route(coord, idx, job, digest) {
        Ok(reply) => {
            coord.routed.fetch_add(1, Ordering::SeqCst);
            (reply, unlimited(job))
        }
        Err(_) => run_local(coord, job, digest, accepted),
    }
}

/// Whether a fleet reply to `job` is known complete.  A worker's reply
/// does not say whether the wall clock cut its run short, so only the
/// reply to a job with no time limit of its own qualifies (a local run
/// reports [`crate::EngineOutcome::cacheable`] instead).
fn unlimited(job: &JobRequest) -> bool {
    job.timeout_secs.is_none() && job.deadline_ms.is_none()
}

fn remember_reply(coord: &Arc<Coord>, digest: &str, reply: &str) {
    let mut memo = coord.replies.lock().expect("reply memo");
    memo.retain(|(d, _)| d != digest);
    if memo.len() >= REPLY_MEMO_CAP {
        memo.pop_front();
    }
    memo.push_back((digest.to_string(), reply.to_string()));
}

fn recall_reply(coord: &Arc<Coord>, digest: &str) -> Option<String> {
    let memo = coord.replies.lock().expect("reply memo");
    memo.iter()
        .rev()
        .find(|(d, _)| d == digest)
        .map(|(_, reply)| reply.clone())
}

/// Routes one job through the ring with retries, backoff, and hedging.
///
/// Returns the worker's reply verbatim (its body bytes untouched) or
/// an error when no worker could be made to answer — the caller then
/// degrades to local execution.
fn try_route(coord: &Arc<Coord>, idx: u64, job: &JobRequest, digest: &str) -> Result<String, String> {
    // Ask the worker for progress heartbeats while it runs, so a busy
    // worker is distinguishable from a dead one: heartbeats defer the
    // hedge (and keep the read timeout alive).  `progress_ms` is
    // execution-only — it never enters the digest, so the worker's
    // cache bytes are untouched.  Heartbeats are consumed here, not
    // relayed: the coordinator's own clients see one final line.
    let mut dispatch = job.clone();
    if dispatch.progress_ms.is_none() {
        dispatch.progress_ms = Some((coord.opts.hedge_after_ms / 2).clamp(50, 1000));
    }
    let line = dispatch.wire_json().render_compact();
    let mut backoff = Duration::from_millis(10);
    for round in 0..=coord.opts.retry_rounds {
        let alive = reachable_workers(coord, idx);
        if alive.len() < coord.opts.quorum.max(1) {
            return Err("below quorum".into());
        }
        let ring = Ring::new(alive);
        let candidates: Vec<String> = ring.candidates(digest).map(str::to_owned).collect();
        for (pos, candidate) in candidates.iter().enumerate() {
            if round > 0 || pos > 0 {
                coord.retried.fetch_add(1, Ordering::SeqCst);
            }
            let backup = candidates.get(pos + 1).map(String::as_str);
            match dispatch_hedged(coord, candidate, backup, &line) {
                Ok(reply) => match status_of(&reply).as_deref() {
                    // ok and error both relay verbatim: an error here is
                    // a deterministic request fault every node answers
                    // identically.
                    Some("ok") | Some("error") => return Ok(reply),
                    // rejected (queue full, draining): next candidate.
                    _ => {}
                },
                Err(_) => {
                    coord.members.mark_dead(candidate);
                }
            }
        }
        if round < coord.opts.retry_rounds {
            std::thread::sleep(backoff);
            backoff = backoff.saturating_mul(2);
        }
    }
    Err("every candidate failed or rejected".into())
}

/// What a dispatch leg reports back: liveness, then the answer.
enum DispatchMsg {
    /// The worker streamed a progress heartbeat — it is alive and
    /// working, whatever the wall clock says.
    Progress(String),
    /// The leg finished (reply or transport failure).
    Final(String, Result<String, String>),
}

fn spawn_dispatch(coord: &Arc<Coord>, addr: String, line: String, tx: mpsc::Sender<DispatchMsg>) {
    let connect = Duration::from_millis(coord.opts.connect_timeout_ms);
    let read = Duration::from_millis(coord.opts.read_timeout_ms);
    std::thread::spawn(move || {
        let progress_tx = tx.clone();
        let progress_addr = addr.clone();
        let result = Client::connect_with(&addr, Some(connect)).and_then(|mut c| {
            c.read_timeout(Some(read))?;
            c.roundtrip_streaming(&line, move |_| {
                let _ = progress_tx.send(DispatchMsg::Progress(progress_addr.clone()));
            })
        });
        // The receiver may be gone (the other leg already answered).
        let _ = tx.send(DispatchMsg::Final(addr, result));
    });
}

/// One dispatch with a hedged backup: if the primary has not answered
/// *or heartbeated* by `max(hedge floor, observed p99)`, a second
/// identical request goes to `backup` and the first answer wins.
/// Duplicated work is harmless — requests are content-addressed, so
/// the slower leg lands on a cache entry or collapses in the worker's
/// singleflight.  A primary that streams progress heartbeats resets
/// the hedge timer each time: a long campaign on a healthy worker is
/// *slow*, not *stuck*, and double-firing it would waste half the
/// fleet's capacity on duplicates.
fn dispatch_hedged(
    coord: &Arc<Coord>,
    primary: &str,
    backup: Option<&str>,
    line: &str,
) -> Result<String, String> {
    let started = Instant::now();
    let observed_p99_ms = coord.dispatch_latency.percentile_us(99) / 1000;
    let hedge_after = Duration::from_millis(coord.opts.hedge_after_ms.max(observed_p99_ms));
    let read_limit = Duration::from_millis(coord.opts.read_timeout_ms);
    let (tx, rx) = mpsc::channel();
    spawn_dispatch(coord, primary.to_string(), line.to_string(), tx.clone());
    let mut outstanding = 1usize;
    let mut hedged = false;
    let mut wait = hedge_after;
    loop {
        match rx.recv_timeout(wait) {
            Ok(DispatchMsg::Progress(addr)) => {
                coord.members.heartbeat(&addr);
                if !hedged && addr == primary {
                    // Alive and working: push the hedge out by a full
                    // window rather than double-firing on it.
                    coord.hedges_deferred.fetch_add(1, Ordering::SeqCst);
                    wait = hedge_after;
                }
                // A heartbeat from a hedged leg just restarts the
                // (long) read wait, which recv_timeout does anyway.
            }
            Ok(DispatchMsg::Final(addr, Ok(reply))) => {
                let us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
                coord.dispatch_latency.record_us(us);
                if hedged && addr != primary {
                    coord.hedge_wins.fetch_add(1, Ordering::SeqCst);
                }
                return Ok(reply);
            }
            Ok(DispatchMsg::Final(addr, Err(e))) => {
                coord.members.mark_dead(&addr);
                outstanding -= 1;
                if outstanding == 0 {
                    return Err(e);
                }
                wait = read_limit;
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if !hedged {
                    hedged = true;
                    if let Some(b) = backup {
                        coord.hedges.fetch_add(1, Ordering::SeqCst);
                        outstanding += 1;
                        spawn_dispatch(coord, b.to_string(), line.to_string(), tx.clone());
                    }
                    wait = read_limit;
                } else {
                    return Err("dispatch timed out".into());
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                return Err("dispatch threads died".into());
            }
        }
    }
}

/// Runs the job on the coordinator's own engine (quorum lost or every
/// route exhausted); see [`run_locally`].
fn run_local(
    coord: &Arc<Coord>,
    job: &JobRequest,
    digest: &str,
    accepted: Instant,
) -> (String, bool) {
    coord.local_runs.fetch_add(1, Ordering::SeqCst);
    let cancel = Arc::clone(&coord.cancel);
    run_locally(&*coord.engine, job, digest, accepted, cancel)
}

/// Per-unit outcomes, indexed by unit position in the enumeration.
type UnitSlots = Vec<Option<Result<Json, String>>>;

/// A campaign split into per-schedule work units, work-stolen across
/// the fleet, stitched back into the byte-identical single-process
/// report.  Returns `None` when splitting is not worthwhile (few
/// schedules or no routable fleet) — the caller routes it whole.
fn campaign_fanout(
    coord: &Arc<Coord>,
    idx: u64,
    job: &JobRequest,
    digest: &str,
    accepted: Instant,
) -> Option<(String, bool)> {
    let total = multi_fault_schedules(
        job.channels.iter().cloned(),
        &FaultKind::ALL,
        job.faults_depth,
    )
    .len();
    let unit = coord.opts.unit_size.max(1);
    if total <= unit {
        return None;
    }
    let workers = reachable_workers(coord, idx);
    if workers.len() < coord.opts.quorum.max(1) || workers.is_empty() {
        return None;
    }
    let unit_count = total.div_ceil(unit);
    let pending: Arc<Mutex<VecDeque<usize>>> =
        Arc::new(Mutex::new((0..unit_count).collect()));
    let slots: Arc<Mutex<UnitSlots>> = Arc::new(Mutex::new(vec![None; unit_count]));
    // One dispatcher per worker pulling from the shared unit queue:
    // work-stealing by construction — a fast worker's dispatcher simply
    // comes back for more, and a dead worker's dispatcher re-routes.
    let dispatchers: Vec<JoinHandle<()>> = workers
        .iter()
        .map(|_| {
            let coord = Arc::clone(coord);
            let pending = Arc::clone(&pending);
            let slots = Arc::clone(&slots);
            let job = job.clone();
            std::thread::spawn(move || loop {
                let next = pending.lock().expect("unit queue").pop_front();
                let Some(unit_index) = next else { break };
                let result = run_unit(&coord, idx, &job, unit_index, unit, accepted);
                slots.lock().expect("unit slots")[unit_index] = Some(result);
            })
        })
        .collect();
    for d in dispatchers {
        let _ = d.join();
    }
    let slots = Arc::try_unwrap(slots)
        .expect("dispatchers joined")
        .into_inner()
        .expect("unit slots");
    Some(match merge_units(job, digest, total, slots) {
        Some(merged) => (merged, unlimited(job)),
        None => run_local(coord, job, digest, accepted),
    })
}

/// Decides one work unit: routed through the ring when possible, run
/// on the local engine otherwise.  Either way the body comes from the
/// same `campaign_body` encoder, so merged bytes cannot differ.
fn run_unit(
    coord: &Arc<Coord>,
    idx: u64,
    job: &JobRequest,
    unit_index: usize,
    unit: usize,
    accepted: Instant,
) -> Result<Json, String> {
    let sub = job.with_unit(unit_index * unit, unit);
    let sub_digest = sub.digest()?;
    match try_route(coord, idx, &sub, &sub_digest) {
        Ok(reply) => {
            coord.routed.fetch_add(1, Ordering::SeqCst);
            let envelope =
                Json::parse(&reply).map_err(|e| format!("malformed worker reply: {e}"))?;
            match envelope.get("status").and_then(Json::as_str) {
                Some("ok") => envelope
                    .get("body")
                    .cloned()
                    .ok_or_else(|| "worker reply lacks a body".to_string()),
                _ => Err(format!("unit {unit_index} failed: {reply}")),
            }
        }
        Err(_) => {
            // The fleet cannot take this unit (quorum lost mid-campaign
            // or every candidate dead): decide it locally.
            coord.redispatched.fetch_add(1, Ordering::SeqCst);
            coord.local_runs.fetch_add(1, Ordering::SeqCst);
            let ctl = RunControl {
                deadline: sub.deadline(accepted, None),
                cancel: Arc::clone(&coord.cancel),
                progress: None,
            };
            coord.engine.run(&sub, &ctl).body
        }
    }
}

/// Stitches unit bodies back into the single-process campaign body:
/// identical `identity`/`enumerated` across units, results
/// concatenated in unit order, early rejects summed, and the whole
/// re-encoded by [`campaign_body`].  Any inconsistent, interrupted or
/// failed unit aborts the merge (the caller falls back to a local full
/// run rather than serving a frankenreport).
fn merge_units(job: &JobRequest, digest: &str, total: usize, slots: UnitSlots) -> Option<String> {
    let mut report = CampaignReport {
        results: Vec::with_capacity(total),
        enumerated: total,
        resumed: 0,
        fresh: 0,
        interrupted: false,
        early_rejects: 0,
        identity: String::new(),
    };
    for (index, slot) in slots.into_iter().enumerate() {
        let body = slot?.ok()?;
        let identity = body.get("identity").and_then(Json::as_str)?;
        if index == 0 {
            report.identity = identity.to_string();
        }
        if identity != report.identity
            || body.get("enumerated").and_then(Json::as_int) != i64::try_from(total).ok()
            || body.get("interrupted").and_then(Json::as_bool) != Some(false)
        {
            return None;
        }
        // Present only when the unit's bisim fast path fired.
        let rejects = body.get("early_rejects").and_then(Json::as_int);
        report.early_rejects += u64::try_from(rejects.unwrap_or(0)).ok()?;
        for r in body.get("results").and_then(Json::as_arr)? {
            report.results.push(ScheduleResult::from_json(r).ok()?);
        }
    }
    report.fresh = report.results.len();
    let body = campaign_body(&report);
    let mut envelope = ok_response(job.mode.keyword(), Some(digest), false, body);
    if let Json::Obj(fields) = &mut envelope {
        fields.push(("via".to_string(), Json::str("fleet")));
    }
    Some(envelope.render_compact())
}
