//! The daemon: epoll reactor front end, worker pool, admission
//! control, drain.
//!
//! ```text
//! clients ──TCP──▶ reactor (epoll readiness loop, one thread)
//!                    │  per-connection: incremental line cap,
//!                    │  read deadline on partial lines (slowloris),
//!                    │  bounded write buffer (backpressure)
//!                    ▼
//!                  cache probe ──hit──▶ reply (cached:true)
//!                    │ miss
//!                    ▼ admission: tenant token bucket, then
//!                    │            Governor over queue depth
//!                  two-priority queue ──▶ worker pool ──▶ singleflight
//!                    │ quota/queue full        │ leader        │
//!                    ▼                         ▼               ▼
//!            reply (rejected +        progress heartbeats   engine run
//!             retry_after_ms)         via eventfd wake      ──▶ cache
//! ```
//!
//! The front end is a single **readiness loop**: every connection is
//! non-blocking and owned by one reactor thread, so ten thousand idle
//! connections cost two file descriptors each and zero threads.  Jobs
//! execute on the fixed worker pool exactly as before; completions
//! travel back through a queue the workers nudge with the poller's
//! eventfd.  While a job runs, its connection may subscribe to
//! `{"status":"progress",…}` heartbeat lines (wire `progress_ms`), fed
//! by the verifier's live states-explored / schedules-classified
//! counters — so a caller (or a hedging fleet coordinator) can tell
//! *working* from *dead* without killing long campaigns.
//!
//! Graceful drain (a `shutdown` request, or stdin-close in the CLI
//! front-end): stop accepting, reject new jobs, cancel in-flight
//! explorations through the shared cooperative cancel flag (they
//! answer *inconclusive*, never silently partial), and flush the
//! snapshot.  Snapshots are also written eagerly after every fresh
//! cache fill, so even an abrupt SIGTERM kill leaves the latest
//! completed results on disk for the next start.  Established
//! connections keep getting cache hits and structured rejections until
//! the handle is joined.

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use spi_verify::jsonlite::Json;
use spi_verify::{Budget, Governor, ResourceKind, Verdict, Verifier};

use crate::admission::{Priority, TenantQuotas};
use crate::cache::ResultCache;
use crate::flight::Singleflight;
use crate::protocol::{
    campaign_body, error_response, ok_response, parse_request, parse_source, progress_response,
    rejected_response, shed_response, verify_body, JobRequest, Mode, Request,
};
use crate::reactor::{Event, Poller, WAKE_TOKEN};
use crate::snapshot::{load_snapshot, write_snapshot};

/// Execution control handed to an [`Engine`] run: the per-request
/// deadline plus the server-wide cooperative cancel flag (tripped on
/// drain), plus the live progress counters a heartbeating connection
/// subscribes to.
#[derive(Debug, Clone)]
pub struct RunControl {
    /// Wall-clock cut-off for this request, if any (the tighter of the
    /// request's `timeout_secs` and its wire `deadline_ms`).
    pub deadline: Option<Instant>,
    /// The drain flag shared by every in-flight run.
    pub cancel: Arc<AtomicBool>,
    /// Live `(states_explored, schedules_classified)` counters the
    /// engine should bump while it runs, when the requester asked for
    /// progress heartbeats.  `None` streams nothing and costs nothing.
    pub progress: Option<(Arc<AtomicU64>, Arc<AtomicU64>)>,
}

impl RunControl {
    /// Returns `true` once the run was cancelled or timed out — results
    /// produced after a trip are truncated and must not be cached.
    #[must_use]
    pub fn tripped(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
            || self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// What an engine run produced.
#[derive(Debug)]
pub struct EngineOutcome {
    /// The response body, or an error reason.
    pub body: Result<Json, String>,
    /// Whether the body may be cached.  Wall-clock-truncated and
    /// errored runs are not cacheable — rerunning them could give a
    /// different (better) answer; deterministic-budget verdicts are.
    pub cacheable: bool,
}

impl EngineOutcome {
    /// A non-cacheable error outcome.
    #[must_use]
    pub fn error(reason: impl Into<String>) -> EngineOutcome {
        EngineOutcome {
            body: Err(reason.into()),
            cacheable: false,
        }
    }
}

/// The pluggable execution back-end.  [`VerifierEngine`] handles
/// verify and campaign; the `spi` binary assembles a full engine that
/// adds conformance replay; tests plug in stubs.
pub trait Engine: Send + Sync {
    /// Executes one job under the given control.
    fn run(&self, job: &JobRequest, ctl: &RunControl) -> EngineOutcome;
}

/// Runs `job` on `engine` inside this process, for when no server or
/// worker can take it (a coordinator below quorum, a client whose
/// server stays unreachable), and renders the reply envelope, marked
/// `"via":"local"`.  `accepted` is when the request arrived, the
/// start of its `deadline_ms`.  The flag is [`EngineOutcome::cacheable`]:
/// a reply the wall clock cut short must not answer another request.
pub fn run_locally(
    engine: &dyn Engine,
    job: &JobRequest,
    digest: &str,
    accepted: Instant,
    cancel: Arc<AtomicBool>,
) -> (String, bool) {
    let op = job.mode.keyword();
    let ctl = RunControl {
        deadline: job.deadline(accepted, None),
        cancel,
        progress: None,
    };
    let outcome = engine.run(job, &ctl);
    let reply = match outcome.body {
        Ok(body) => {
            let mut envelope = ok_response(op, Some(digest), false, body);
            if let Json::Obj(fields) = &mut envelope {
                fields.push(("via".to_string(), Json::str("local")));
            }
            envelope
        }
        Err(e) => error_response(op, &e),
    };
    (reply.render_compact(), outcome.cacheable)
}

/// The standard engine: builds a [`Verifier`] from the job options and
/// runs checks and campaigns.
#[derive(Debug, Clone, Default)]
pub struct VerifierEngine {
    /// Worker threads per exploration (`None` = the verifier default).
    /// A busy daemon usually wants a small value here so parallelism
    /// comes from the request pool, not from each exploration.
    pub explore_workers: Option<usize>,
}

impl VerifierEngine {
    /// An engine with default exploration parallelism.
    #[must_use]
    pub fn new() -> VerifierEngine {
        VerifierEngine::default()
    }

    fn build_verifier(&self, job: &JobRequest, ctl: &RunControl) -> Verifier {
        let mut v = Verifier::new(job.channels.iter().map(String::as_str))
            .sessions(job.sessions)
            .max_visible(job.visible)
            .budget(job.budget)
            .cancel(Arc::clone(&ctl.cancel));
        if let Some(d) = ctl.deadline {
            v = v.deadline(d);
        }
        if let Some((states, schedules)) = &ctl.progress {
            v = v.progress(Arc::clone(states), Arc::clone(schedules));
        }
        if let Some(w) = self.explore_workers {
            v = v.workers(w);
        }
        if let Some(f) = &job.faults {
            v = v.faults(f.clone());
        }
        if !job.intruder {
            v = v.no_intruder();
        }
        v.reduce(job.reduce).engine(job.engine)
    }
}

impl Engine for VerifierEngine {
    fn run(&self, job: &JobRequest, ctl: &RunControl) -> EngineOutcome {
        let verifier = self.build_verifier(job, ctl);
        match job.mode {
            Mode::Verify => {
                let concrete = match parse_source(&job.concrete) {
                    Ok(p) => p,
                    Err(e) => return EngineOutcome::error(e),
                };
                let spec = match parse_source(&job.abstract_spec) {
                    Ok(p) => p,
                    Err(e) => return EngineOutcome::error(e),
                };
                match verifier.check(&concrete, &spec) {
                    Ok(report) => {
                        let truncated = matches!(
                            report.verdict,
                            Verdict::Inconclusive {
                                exhausted: ResourceKind::WallClock,
                                ..
                            }
                        );
                        EngineOutcome {
                            body: Ok(verify_body(&report)),
                            cacheable: !truncated,
                        }
                    }
                    Err(e) => EngineOutcome::error(e.to_string()),
                }
            }
            Mode::Campaign => {
                let concrete = match parse_source(&job.concrete) {
                    Ok(p) => p,
                    Err(e) => return EngineOutcome::error(e),
                };
                let spec = match parse_source(&job.abstract_spec) {
                    Ok(p) => p,
                    Err(e) => return EngineOutcome::error(e),
                };
                let mut opts = verifier.campaign_options(job.faults_depth);
                // A fleet work unit restricts this run to a contiguous
                // index range of the (deterministic) enumeration; the
                // coordinator stitches unit results back together.
                opts.schedule_range = job.unit;
                match verifier.run_campaign(&concrete, &spec, &opts) {
                    Ok(report) => EngineOutcome {
                        cacheable: !report.interrupted && !ctl.tripped(),
                        body: Ok(campaign_body(&report)),
                    },
                    Err(e) => EngineOutcome::error(e.to_string()),
                }
            }
            Mode::ConformanceReplay => EngineOutcome::error(
                "conformance-replay needs the full engine assembled by the spi binary",
            ),
        }
    }
}

/// Server configuration (the `spi serve` flags).
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Listen address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Result-cache byte budget.
    pub cache_bytes: usize,
    /// Snapshot path; `None` disables persistence.
    pub snapshot: Option<PathBuf>,
    /// Bounded-queue capacity; a full queue rejects new jobs.
    pub queue_cap: usize,
    /// Default per-request timeout applied when a request names none.
    pub default_timeout_secs: Option<u64>,
    /// How long a connection may sit on a *partial* request line before
    /// it is reaped (the slowloris defense).  Idle connections with no
    /// buffered bytes are never reaped.  `0` disables the deadline.
    pub read_deadline_ms: u64,
    /// Cap on a connection's buffered-but-unsent output.  A client
    /// that stops reading while replies accumulate past this cap is
    /// disconnected instead of growing the heap.
    pub write_buf_bytes: usize,
    /// Per-tenant admission rate in jobs/second (token-bucket refill).
    /// `0` disables quotas.
    pub quota_rate: u64,
    /// Per-tenant burst capacity (bucket size) when quotas are on.
    pub quota_burst: u64,
}

impl Default for ServerOptions {
    fn default() -> ServerOptions {
        ServerOptions {
            addr: "127.0.0.1:7970".into(),
            workers: 2,
            cache_bytes: 8 * 1024 * 1024,
            snapshot: None,
            queue_cap: 16,
            default_timeout_secs: None,
            read_deadline_ms: 10_000,
            write_buf_bytes: 16 * 1024 * 1024,
            quota_rate: 0,
            quota_burst: 8,
        }
    }
}

struct Ticket {
    digest: String,
    job: JobRequest,
    /// The reactor connection waiting for the reply.
    conn: u64,
    /// When the job was admitted — the base of `deadline_ms` and the
    /// latency sample.
    accepted: Instant,
    /// Shared progress counters, when the requester subscribed.
    progress: Option<(Arc<AtomicU64>, Arc<AtomicU64>)>,
}

/// The two-priority job queue: interactive verifies pop ahead of batch
/// campaign / conformance work.  Priority reorders; it never preempts
/// a running job.
#[derive(Default)]
struct JobQueues {
    interactive: VecDeque<Ticket>,
    batch: VecDeque<Ticket>,
}

impl JobQueues {
    fn depth(&self) -> usize {
        self.interactive.len() + self.batch.len()
    }

    fn push(&mut self, ticket: Ticket) {
        match Priority::of(ticket.job.mode) {
            Priority::Interactive => self.interactive.push_back(ticket),
            Priority::Batch => self.batch.push_back(ticket),
        }
    }

    fn pop(&mut self) -> Option<Ticket> {
        self.interactive
            .pop_front()
            .or_else(|| self.batch.pop_front())
    }
}

/// Per-op request-latency histogram over power-of-two microsecond
/// buckets.  Quantiles report the bucket's upper bound — coarse, but
/// lock-free to record and honest about its resolution.
#[derive(Debug)]
pub struct Histogram {
    counts: [AtomicU64; 32],
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Histogram {
    /// Records one sample, in microseconds.
    pub fn record_us(&self, us: u64) {
        let idx = (64 - u64::leading_zeros(us) as usize).min(self.counts.len() - 1);
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> Vec<u64> {
        self.counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// The `pct`-th percentile in microseconds (upper bucket bound);
    /// zero when nothing was recorded.
    #[must_use]
    pub fn percentile_us(&self, pct: u64) -> u64 {
        let counts = self.snapshot();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = (total * pct).div_ceil(100).max(1);
        let mut seen = 0u64;
        for (idx, c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return 1u64 << idx;
            }
        }
        1u64 << (counts.len() - 1)
    }

    /// Total samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.snapshot().iter().sum()
    }

    pub(crate) fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "count".to_string(),
                Json::count(usize::try_from(self.count()).unwrap_or(usize::MAX)),
            ),
            (
                "p50_us".to_string(),
                Json::count(usize::try_from(self.percentile_us(50)).unwrap_or(usize::MAX)),
            ),
            (
                "p99_us".to_string(),
                Json::count(usize::try_from(self.percentile_us(99)).unwrap_or(usize::MAX)),
            ),
        ])
    }
}

/// One histogram per job op plus one for control ops.
#[derive(Debug, Default)]
struct Latency {
    verify: Histogram,
    campaign: Histogram,
    replay: Histogram,
    control: Histogram,
}

impl Latency {
    fn for_op(&self, op: &str) -> &Histogram {
        match op {
            "verify" => &self.verify,
            "campaign" => &self.campaign,
            "conformance-replay" => &self.replay,
            _ => &self.control,
        }
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("verify".to_string(), self.verify.to_json()),
            ("campaign".to_string(), self.campaign.to_json()),
            ("conformance-replay".to_string(), self.replay.to_json()),
            ("control".to_string(), self.control.to_json()),
        ])
    }
}

struct Shared {
    engine: Arc<dyn Engine>,
    opts: ServerOptions,
    addr: SocketAddr,
    cache: Mutex<ResultCache>,
    flight: Singleflight,
    queue: Mutex<JobQueues>,
    queue_cv: Condvar,
    /// Queue admission rides the Budget states dimension: the governor
    /// admits one more queued job iff the current depth is under cap.
    admission: Mutex<Governor>,
    /// Per-tenant token buckets (reactor-thread only, but behind a
    /// mutex so the handle types stay `Sync`).
    quotas: Mutex<TenantQuotas>,
    /// Finished-job replies waiting for the reactor to deliver:
    /// `(connection token, response line)`.
    completions: Mutex<Vec<(u64, String)>>,
    poller: Poller,
    draining: AtomicBool,
    /// Set by [`ServerHandle::join`] after the workers exited: the
    /// reactor delivers what is left and closes every connection.
    stopping: AtomicBool,
    cancel: Arc<AtomicBool>,
    inflight: AtomicUsize,
    executions: AtomicU64,
    rejected: AtomicU64,
    /// Load-shed answers: queue-full rejections carrying a
    /// `retry_after_ms` hint (a subset of `rejected`).
    shed: AtomicU64,
    /// Tenant-quota rejections (also a subset of `rejected`).
    quota_denied: AtomicU64,
    /// Progress heartbeat lines written to subscribed connections.
    heartbeats_sent: AtomicU64,
    /// Connections currently registered with the reactor.
    active_connections: AtomicUsize,
    /// Duplicate in-flight requests collapsed by singleflight (a parked
    /// follower answered from the leader's cache fill).
    collapsed: AtomicU64,
    /// Cumulative reduction counters across every fresh engine run (the
    /// `stats` op reports them so operators can see what the configured
    /// `reduce` modes are saving fleet-wide).
    quotiented: AtomicU64,
    pruned: AtomicU64,
    latency: Latency,
}

/// A running server.  Dropping the handle does **not** stop it; call
/// [`ServerHandle::join`] (or send a `shutdown` request) to drain.
pub struct ServerHandle {
    shared: Arc<Shared>,
    reactor: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound listen address (useful with port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// How many engine runs actually executed — the singleflight /
    /// cache probe counter tests assert on.
    #[must_use]
    pub fn executions(&self) -> u64 {
        self.shared.executions.load(Ordering::SeqCst)
    }

    /// Begins a graceful drain: stop accepting, reject new jobs, cancel
    /// in-flight explorations.  Idempotent; returns immediately.
    pub fn shutdown(&self) {
        trigger_drain(&self.shared);
    }

    /// Whether a drain has been triggered (by [`ServerHandle::shutdown`],
    /// a `shutdown` request, or a [`ShutdownHandle`]).
    #[must_use]
    pub fn draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Merges gossiped `(key, op, body)` cache entries into this
    /// node's result cache (insertion is idempotent: existing keys are
    /// refreshed, never corrupted).  Returns how many entries were
    /// offered to the cache.
    pub fn absorb(&self, entries: Vec<(String, String, String)>) -> usize {
        absorb_entries(&self.shared, entries)
    }

    /// The current cache contents in LRU order — the gossip payload.
    #[must_use]
    pub fn cache_entries(&self) -> Vec<(String, String, String)> {
        self.shared.cache.lock().expect("cache lock").entries_lru()
    }

    /// A cheap cloneable handle another thread can use to trigger the
    /// drain (e.g. the CLI's stdin watcher).
    #[must_use]
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// A cheap handle another thread can use to warm this node's cache
    /// with gossiped entries (the `--join` heartbeat warms through it
    /// after a rejoin acknowledgement) or to read the entries back (the
    /// drain-announce handoff).
    #[must_use]
    pub fn cache_handle(&self) -> CacheHandle {
        CacheHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Blocks until *something* triggers the drain — a `shutdown`
    /// request over the wire, a [`ShutdownHandle`], or a prior
    /// [`ServerHandle::shutdown`] — then joins and flushes the final
    /// snapshot.
    pub fn join_on_drain(self) {
        while !self.draining() {
            std::thread::sleep(Duration::from_millis(50));
        }
        self.join();
    }

    /// Drains and waits for every worker to finish, then flushes the
    /// final snapshot.  Open connections receive their pending replies
    /// and are closed.
    pub fn join(self) {
        self.shutdown();
        for w in self.workers {
            let _ = w.join();
        }
        // Workers are gone, so every completion is posted; tell the
        // reactor to deliver the leftovers and wind down.
        self.shared.stopping.store(true, Ordering::SeqCst);
        self.shared.poller.wake();
        let _ = self.reactor.join();
        persist_snapshot(&self.shared);
    }
}

/// Triggers a server's drain from any thread (see
/// [`ServerHandle::shutdown_handle`]).
pub struct ShutdownHandle {
    shared: Arc<Shared>,
}

impl ShutdownHandle {
    /// Begins the graceful drain.  Idempotent.
    pub fn shutdown(&self) {
        trigger_drain(&self.shared);
    }
}

/// Feeds gossiped entries into a running server's cache from another
/// thread (see [`ServerHandle::cache_handle`]).
pub struct CacheHandle {
    shared: Arc<Shared>,
}

impl CacheHandle {
    /// See [`ServerHandle::absorb`].
    pub fn absorb(&self, entries: Vec<(String, String, String)>) -> usize {
        absorb_entries(&self.shared, entries)
    }

    /// The current cache contents in LRU order — what a draining
    /// worker hands off in its `leave` announcement.
    #[must_use]
    pub fn entries(&self) -> Vec<(String, String, String)> {
        self.shared.cache.lock().expect("cache lock").entries_lru()
    }

    /// Whether the server is draining — the heartbeat loop's exit cue.
    #[must_use]
    pub fn draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }
}

fn absorb_entries(shared: &Arc<Shared>, entries: Vec<(String, String, String)>) -> usize {
    let offered = entries.len();
    {
        let mut cache = shared.cache.lock().expect("cache lock");
        for (key, op, body) in entries {
            cache.insert(key, op, body);
        }
    }
    persist_snapshot(shared);
    offered
}

fn trigger_drain(shared: &Arc<Shared>) {
    if shared.draining.swap(true, Ordering::SeqCst) {
        return;
    }
    shared.cancel.store(true, Ordering::Relaxed);
    shared.queue_cv.notify_all();
    // Nudge the reactor so it stops accepting immediately.
    shared.poller.wake();
}

fn persist_snapshot(shared: &Shared) {
    let Some(path) = &shared.opts.snapshot else {
        return;
    };
    let entries = shared.cache.lock().expect("cache lock").entries_lru();
    if let Err(e) = write_snapshot(path, &entries) {
        eprintln!("spi-serve: snapshot write failed: {e}");
    }
}

/// Starts a server.  The listener is bound before this returns, so the
/// caller may connect to [`ServerHandle::addr`] immediately.
///
/// # Errors
///
/// Fails when the address cannot be bound or the epoll instance cannot
/// be created.
pub fn serve(engine: Arc<dyn Engine>, opts: ServerOptions) -> Result<ServerHandle, String> {
    let listener = TcpListener::bind(&opts.addr)
        .map_err(|e| format!("cannot bind {}: {e}", opts.addr))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("cannot resolve bound address: {e}"))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("cannot unblock the listener: {e}"))?;
    let poller = Poller::new().map_err(|e| format!("cannot create the epoll reactor: {e}"))?;

    let mut cache = ResultCache::new(opts.cache_bytes);
    if let Some(path) = &opts.snapshot {
        if path.exists() {
            match load_snapshot(path) {
                Ok(entries) => {
                    for (key, op, body) in entries {
                        cache.insert(key, op, body);
                    }
                }
                Err(e) => eprintln!("spi-serve: ignoring snapshot: {e}"),
            }
        }
    }

    let queue_cap = opts.queue_cap.max(1);
    let workers = opts.workers.max(1);
    let quotas = TenantQuotas::new(opts.quota_rate, opts.quota_burst);
    let shared = Arc::new(Shared {
        engine,
        addr,
        cache: Mutex::new(cache),
        flight: Singleflight::new(),
        queue: Mutex::new(JobQueues::default()),
        queue_cv: Condvar::new(),
        admission: Mutex::new(Governor::new(Budget::unlimited().states(queue_cap))),
        quotas: Mutex::new(quotas),
        completions: Mutex::new(Vec::new()),
        poller,
        draining: AtomicBool::new(false),
        stopping: AtomicBool::new(false),
        cancel: Arc::new(AtomicBool::new(false)),
        inflight: AtomicUsize::new(0),
        executions: AtomicU64::new(0),
        rejected: AtomicU64::new(0),
        shed: AtomicU64::new(0),
        quota_denied: AtomicU64::new(0),
        heartbeats_sent: AtomicU64::new(0),
        active_connections: AtomicUsize::new(0),
        collapsed: AtomicU64::new(0),
        quotiented: AtomicU64::new(0),
        pruned: AtomicU64::new(0),
        latency: Latency::default(),
        opts,
    });

    let worker_handles: Vec<JoinHandle<()>> = (0..workers)
        .map(|_| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || worker_loop(&shared))
        })
        .collect();

    let reactor = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || Reactor::new(shared, listener).run())
    };

    Ok(ServerHandle {
        shared,
        reactor,
        workers: worker_handles,
    })
}

/// The longest request line a connection may send.  Anything larger is
/// answered with a structured error — the oversized bytes are streamed
/// past (never buffered whole), so a hostile 10 MB line costs one
/// error response, not a worker slot or an allocation spike.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Reads one newline-terminated line with a byte cap (the blocking
/// variant the fleet coordinator's connection threads use; the
/// reactor enforces the same cap incrementally).
///
/// Returns `Ok(None)` on clean EOF, `Ok(Some(Err(reason)))` for an
/// oversized or non-UTF-8 line (the offending bytes are consumed so
/// the connection stays usable), and `Ok(Some(Ok(line)))` otherwise.
pub(crate) fn read_line_capped(
    reader: &mut impl BufRead,
) -> std::io::Result<Option<Result<String, String>>> {
    let mut buf: Vec<u8> = Vec::new();
    let mut overflowed = false;
    let mut saw_any = false;
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            if !saw_any {
                return Ok(None);
            }
            break;
        }
        saw_any = true;
        let newline = chunk.iter().position(|&b| b == b'\n');
        let take = newline.unwrap_or(chunk.len());
        if !overflowed {
            if buf.len() + take <= MAX_LINE_BYTES {
                buf.extend_from_slice(&chunk[..take]);
            } else {
                overflowed = true;
                buf.clear();
            }
        }
        let consumed = newline.map_or(take, |p| p + 1);
        reader.consume(consumed);
        if newline.is_some() {
            break;
        }
    }
    if overflowed {
        return Ok(Some(Err(format!(
            "request line exceeds {MAX_LINE_BYTES} bytes"
        ))));
    }
    match String::from_utf8(buf) {
        Ok(line) => Ok(Some(Ok(line))),
        Err(_) => Ok(Some(Err("request line is not valid UTF-8".to_string()))),
    }
}

/// A connection's progress subscription: emit a heartbeat from the
/// shared counters every `interval`.
struct ProgressSub {
    states: Arc<AtomicU64>,
    schedules: Arc<AtomicU64>,
    interval: Duration,
    due: Instant,
}

/// The job a connection is waiting on (one at a time per connection —
/// the reactor stops reading a connection while its job runs, so the
/// kernel socket buffer is the pipeline bound).
struct ActiveJob {
    op: &'static str,
    digest: String,
    accepted: Instant,
    progress: Option<ProgressSub>,
}

/// One reactor-owned connection.
struct Conn {
    stream: TcpStream,
    peer: String,
    /// Partial-line input buffer, capped incrementally.
    rbuf: Vec<u8>,
    /// An oversized line is being discarded up to its newline.
    overflow: bool,
    /// Buffered-but-unsent output (already-attempted writes first).
    wbuf: Vec<u8>,
    /// Armed only while `rbuf` holds a partial line — slowloris reap.
    read_deadline: Option<Instant>,
    active: Option<ActiveJob>,
    /// Close once `wbuf` flushes (EOF seen or cap tripped).
    closing: bool,
    /// Last interest registered with the poller (readable, writable).
    interest: (bool, bool),
}

/// What processing one input line produced.
enum LineOutcome {
    /// The reply was written (or nothing needed writing).
    Done,
    /// A job was queued; stop pumping this connection until the
    /// completion arrives.
    JobPending,
}

const LISTENER_TOKEN: u64 = u64::MAX - 1;
/// How long the stopping reactor keeps trying to flush write buffers.
const STOP_FLUSH_GRACE: Duration = Duration::from_secs(2);

struct Reactor {
    shared: Arc<Shared>,
    listener: TcpListener,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    /// Tickets dispatched to workers whose completions have not been
    /// processed yet (whether or not the connection still exists).
    outstanding: usize,
    accepting: bool,
}

impl Reactor {
    fn new(shared: Arc<Shared>, listener: TcpListener) -> Reactor {
        Reactor {
            shared,
            listener,
            conns: HashMap::new(),
            next_token: 1,
            outstanding: 0,
            accepting: false,
        }
    }

    fn run(mut self) {
        if self
            .shared
            .poller
            .register(self.listener.as_raw_fd(), LISTENER_TOKEN, true, false)
            .is_err()
        {
            return;
        }
        self.accepting = true;
        let mut events: Vec<Event> = Vec::new();
        let mut stop_flush_from: Option<Instant> = None;
        loop {
            let timeout = self.next_timeout(stop_flush_from);
            if self.shared.poller.wait(timeout, &mut events).is_err() {
                break;
            }
            let fired = std::mem::take(&mut events);
            for ev in &fired {
                match ev.token {
                    WAKE_TOKEN => {}
                    LISTENER_TOKEN => self.accept_ready(),
                    token => self.conn_ready(token, ev),
                }
            }
            events = fired;
            self.deliver_completions();
            self.tick_timers();
            if self.shared.draining.load(Ordering::SeqCst) && self.accepting {
                self.shared.poller.deregister(self.listener.as_raw_fd());
                self.accepting = false;
            }
            if self.shared.stopping.load(Ordering::SeqCst) {
                let started = *stop_flush_from.get_or_insert_with(Instant::now);
                // Deliver leftovers, then hold the door briefly for
                // unflushed output; a peer that will not read forfeits
                // the tail.
                let flushed = self
                    .conns
                    .values()
                    .all(|c| c.wbuf.is_empty());
                if (self.outstanding == 0 && flushed)
                    || started.elapsed() >= STOP_FLUSH_GRACE
                {
                    break;
                }
            }
        }
        for (_, conn) in self.conns.drain() {
            self.shared.poller.deregister(conn.stream.as_raw_fd());
        }
        self.shared.active_connections.store(0, Ordering::SeqCst);
    }

    /// The epoll timeout: the soonest read deadline or heartbeat, or
    /// block forever when nothing is scheduled (drains and completions
    /// arrive via the wake eventfd).
    fn next_timeout(&self, stop_flush_from: Option<Instant>) -> Option<u64> {
        let now = Instant::now();
        let mut soonest: Option<Instant> = stop_flush_from.map(|s| s + STOP_FLUSH_GRACE);
        for conn in self.conns.values() {
            if let Some(d) = conn.read_deadline {
                soonest = Some(soonest.map_or(d, |s| s.min(d)));
            }
            if let Some(p) = conn.active.as_ref().and_then(|a| a.progress.as_ref()) {
                soonest = Some(soonest.map_or(p.due, |s| s.min(p.due)));
            }
        }
        soonest.map(|s| {
            let until = s.saturating_duration_since(now);
            if until.is_zero() {
                0
            } else {
                // Round up: truncating to 0ms would spin until the
                // sub-millisecond remainder elapses.
                u64::try_from(until.as_millis())
                    .unwrap_or(u64::MAX)
                    .saturating_add(1)
            }
        })
    }

    fn accept_ready(&mut self) {
        if !self.accepting || self.shared.draining.load(Ordering::SeqCst) {
            return;
        }
        loop {
            match self.listener.accept() {
                Ok((stream, peer)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    // Line-sized writes; without NODELAY the
                    // Nagle/delayed-ACK interaction costs tens of
                    // milliseconds per response.
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .shared
                        .poller
                        .register(stream.as_raw_fd(), token, true, false)
                        .is_err()
                    {
                        continue;
                    }
                    self.conns.insert(
                        token,
                        Conn {
                            stream,
                            peer: peer.ip().to_string(),
                            rbuf: Vec::new(),
                            overflow: false,
                            wbuf: Vec::new(),
                            read_deadline: None,
                            active: None,
                            closing: false,
                            interest: (true, false),
                        },
                    );
                    self.shared
                        .active_connections
                        .store(self.conns.len(), Ordering::SeqCst);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
    }

    fn conn_ready(&mut self, token: u64, ev: &Event) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return; // stale event for a closed connection
        };
        if ev.hangup {
            self.close(token);
            return;
        }
        if ev.writable && !flush(conn) {
            self.close(token);
            return;
        }
        if ev.readable && !Self::fill(&self.shared, conn) {
            self.close(token);
            return;
        }
        self.pump(token);
    }

    /// Reads everything available.  Returns `false` when the
    /// connection is dead.
    fn fill(shared: &Shared, conn: &mut Conn) -> bool {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.closing = true;
                    return conn.active.is_some() || !conn.wbuf.is_empty();
                }
                Ok(n) => {
                    conn.rbuf.extend_from_slice(&chunk[..n]);
                    // The incremental line cap: discard an oversized
                    // line's bytes as they stream in, remembering only
                    // that it overflowed.
                    if !conn.overflow
                        && conn.rbuf.len() > MAX_LINE_BYTES
                        && !conn.rbuf.contains(&b'\n')
                    {
                        conn.overflow = true;
                        conn.rbuf.clear();
                    } else if conn.overflow {
                        if let Some(pos) = conn.rbuf.iter().position(|&b| b == b'\n') {
                            conn.rbuf.drain(..pos);
                        } else {
                            conn.rbuf.clear();
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
        // A partial line arms the slowloris deadline; a completed (or
        // absent) line disarms it.
        let partial = !conn.rbuf.is_empty() && !conn.rbuf.contains(&b'\n');
        conn.read_deadline = if (partial || conn.overflow) && shared.opts.read_deadline_ms > 0 {
            conn.read_deadline
                .or_else(|| Some(Instant::now() + Duration::from_millis(shared.opts.read_deadline_ms)))
        } else {
            None
        };
        true
    }

    /// Processes buffered complete lines until a job is dispatched or
    /// input runs dry, then re-arms interest.
    fn pump(&mut self, token: u64) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.active.is_some()
                || conn.closing
                || conn.wbuf.len() > self.shared.opts.write_buf_bytes
            {
                break;
            }
            let Some(line) = next_line(conn) else { break };
            let outcome = match line {
                Err(reason) => {
                    let reply = error_response("request", &reason).render_compact();
                    send_line(conn, &reply);
                    LineOutcome::Done
                }
                Ok(line) if line.trim().is_empty() => LineOutcome::Done,
                Ok(line) => self.dispatch_line(token, &line),
            };
            if matches!(outcome, LineOutcome::JobPending) {
                break;
            }
        }
        self.after_io(token);
    }

    /// Re-arms poller interest after any I/O or state change, and
    /// closes connections that finished flushing or tripped the write
    /// cap.
    fn after_io(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.wbuf.len() > self.shared.opts.write_buf_bytes {
            // The peer stopped reading while output accumulated:
            // disconnect rather than grow without bound.
            self.close(token);
            return;
        }
        if conn.closing && conn.wbuf.is_empty() && conn.active.is_none() {
            self.close(token);
            return;
        }
        let want = (
            !conn.closing && conn.active.is_none(),
            !conn.wbuf.is_empty(),
        );
        if want != conn.interest {
            conn.interest = want;
            let _ = self
                .shared
                .poller
                .rearm(conn.stream.as_raw_fd(), token, want.0, want.1);
        }
    }

    /// Handles one complete request line on connection `token`.
    fn dispatch_line(&mut self, token: u64, line: &str) -> LineOutcome {
        let started = Instant::now();
        let parsed = parse_request(line);
        if let Ok(Request::Job(job)) = parsed {
            return self.dispatch_job(token, *job, started);
        }
        let (op, reply) = match parsed {
            Err(e) => ("request", error_response("request", &e)),
            Ok(Request::Ping) => ("ping", ok_response("ping", None, false, Json::Obj(vec![]))),
            Ok(Request::Stats) => ("stats", stats_response(&self.shared)),
            Ok(Request::Shutdown) => {
                trigger_drain(&self.shared);
                (
                    "shutdown",
                    ok_response("shutdown", None, false, Json::Obj(vec![])),
                )
            }
            Ok(Request::Join { .. }) => (
                "join",
                error_response(
                    "join",
                    "this node is not a coordinator (join a fleet started with `spi fleet`)",
                ),
            ),
            Ok(Request::Leave { .. }) => (
                "leave",
                error_response(
                    "leave",
                    "this node is not a coordinator (leave announces a drain to `spi fleet`)",
                ),
            ),
            Ok(Request::Gossip) => ("gossip", gossip_response(&self.shared)),
            Ok(Request::GossipPush { cache }) => (
                "gossip-push",
                match crate::gossip::parse_gossip(&cache) {
                    Ok(entries) => {
                        let merged = absorb_entries(&self.shared, entries);
                        ok_response(
                            "gossip-push",
                            None,
                            false,
                            Json::Obj(vec![("merged".into(), Json::count(merged))]),
                        )
                    }
                    Err(e) => error_response("gossip-push", &e),
                },
            ),
            Ok(Request::Job(_)) => unreachable!("handled above"),
        };
        let elapsed = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.shared.latency.for_op(op).record_us(elapsed);
        if let Some(conn) = self.conns.get_mut(&token) {
            send_line(conn, &reply.render_compact());
        }
        LineOutcome::Done
    }

    /// Admits one job: cache probe, drain check, tenant quota, queue
    /// depth — then either replies immediately or queues a ticket.
    fn dispatch_job(&mut self, token: u64, job: JobRequest, accepted: Instant) -> LineOutcome {
        let shared = Arc::clone(&self.shared);
        let op = job.mode.keyword();
        let record = |resp: &str| {
            let elapsed = u64::try_from(accepted.elapsed().as_micros()).unwrap_or(u64::MAX);
            shared.latency.for_op(op).record_us(elapsed);
            resp.to_string()
        };
        let digest = match job.digest() {
            Ok(d) => d,
            Err(e) => {
                let reply = record(&error_response(op, &e).render_compact());
                if let Some(conn) = self.conns.get_mut(&token) {
                    send_line(conn, &reply);
                }
                return LineOutcome::Done;
            }
        };
        let immediate: Option<String> = (|| {
            if !job.no_cache {
                if let Some((_, body)) = shared.cache.lock().expect("cache lock").get(&digest) {
                    return Some(cached_reply(op, &digest, &body));
                }
            }
            if shared.draining.load(Ordering::SeqCst) {
                shared.rejected.fetch_add(1, Ordering::SeqCst);
                return Some(rejected_response(op, "server is draining").render_compact());
            }
            let tenant = job
                .tenant
                .clone()
                .unwrap_or_else(|| self.conns.get(&token).map_or_else(String::new, |c| c.peer.clone()));
            {
                let mut quotas = shared.quotas.lock().expect("quota lock");
                if quotas.enabled() {
                    if let Err(retry_ms) = quotas.admit(&tenant, Instant::now()) {
                        shared.rejected.fetch_add(1, Ordering::SeqCst);
                        shared.quota_denied.fetch_add(1, Ordering::SeqCst);
                        return Some(
                            shed_response(
                                op,
                                &format!("tenant {tenant:?} is over its admission quota"),
                                retry_ms,
                            )
                            .render_compact(),
                        );
                    }
                }
            }
            None
        })();
        if let Some(reply) = immediate {
            let reply = record(&reply);
            if let Some(conn) = self.conns.get_mut(&token) {
                send_line(conn, &reply);
            }
            return LineOutcome::Done;
        }
        // Queue admission rides the governor over queue depth.
        let queued: Result<Option<ProgressSub>, String> = {
            let mut queue = shared.queue.lock().expect("queue lock");
            let depth = queue.depth();
            if !shared
                .admission
                .lock()
                .expect("admission lock")
                .admit_state(depth)
            {
                shared.rejected.fetch_add(1, Ordering::SeqCst);
                shared.shed.fetch_add(1, Ordering::SeqCst);
                // The hint scales with how much work is already ahead
                // of the caller.
                let retry_ms = (u64::try_from(depth).unwrap_or(u64::MAX))
                    .saturating_mul(50)
                    .clamp(50, 5_000);
                Err(
                    shed_response(op, &format!("queue full ({depth} pending)"), retry_ms)
                        .render_compact(),
                )
            } else {
                let progress = job.progress_ms.filter(|&ms| ms > 0).map(|ms| {
                    let interval = Duration::from_millis(ms.max(10));
                    ProgressSub {
                        states: Arc::new(AtomicU64::new(0)),
                        schedules: Arc::new(AtomicU64::new(0)),
                        interval,
                        due: Instant::now() + interval,
                    }
                });
                queue.push(Ticket {
                    digest: digest.clone(),
                    job,
                    conn: token,
                    accepted,
                    progress: progress
                        .as_ref()
                        .map(|p| (Arc::clone(&p.states), Arc::clone(&p.schedules))),
                });
                shared.queue_cv.notify_one();
                Ok(progress)
            }
        };
        match queued {
            Err(reply) => {
                let reply = record(&reply);
                if let Some(conn) = self.conns.get_mut(&token) {
                    send_line(conn, &reply);
                }
                LineOutcome::Done
            }
            Ok(progress) => {
                self.outstanding += 1;
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.active = Some(ActiveJob {
                        op,
                        digest,
                        accepted,
                        progress,
                    });
                }
                LineOutcome::JobPending
            }
        }
    }

    /// Delivers worker completions to their connections.
    fn deliver_completions(&mut self) {
        let done: Vec<(u64, String)> =
            std::mem::take(&mut *self.shared.completions.lock().expect("completions lock"));
        for (token, reply) in done {
            self.outstanding = self.outstanding.saturating_sub(1);
            let Some(conn) = self.conns.get_mut(&token) else {
                continue; // client vanished; the work is cached anyway
            };
            if let Some(active) = conn.active.take() {
                let elapsed =
                    u64::try_from(active.accepted.elapsed().as_micros()).unwrap_or(u64::MAX);
                self.shared.latency.for_op(active.op).record_us(elapsed);
            }
            send_line(conn, &reply);
            // The connection may have pipelined more requests while the
            // job ran; serve them now.
            self.pump(token);
        }
    }

    /// Read-deadline reaping and progress heartbeats.
    fn tick_timers(&mut self) {
        let now = Instant::now();
        let reap: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.read_deadline.is_some_and(|d| now >= d))
            .map(|(&t, _)| t)
            .collect();
        for token in reap {
            // A partial line outstayed its welcome: slowloris reap.
            self.close(token);
        }
        let mut beats = 0u64;
        let mut touched: Vec<u64> = Vec::new();
        for (&token, conn) in &mut self.conns {
            let Some(active) = conn.active.as_mut() else {
                continue;
            };
            let (op, digest) = (active.op, active.digest.clone());
            let Some(p) = active.progress.as_mut() else {
                continue;
            };
            if now < p.due {
                continue;
            }
            p.due = now + p.interval;
            let line = progress_response(
                op,
                Some(&digest),
                p.states.load(Ordering::Relaxed),
                p.schedules.load(Ordering::Relaxed),
            )
            .render_compact();
            send_line(conn, &line);
            beats += 1;
            touched.push(token);
        }
        if beats > 0 {
            self.shared.heartbeats_sent.fetch_add(beats, Ordering::SeqCst);
        }
        for token in touched {
            self.after_io(token);
        }
    }

    fn close(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            self.shared.poller.deregister(conn.stream.as_raw_fd());
            self.shared
                .active_connections
                .store(self.conns.len(), Ordering::SeqCst);
        }
    }
}

/// Extracts the next complete line from the connection buffer.
/// `Some(Err(reason))` reports an oversized or non-UTF-8 line (the
/// bytes are consumed; the connection stays usable).
fn next_line(conn: &mut Conn) -> Option<Result<String, String>> {
    let pos = conn.rbuf.iter().position(|&b| b == b'\n')?;
    let mut line: Vec<u8> = conn.rbuf.drain(..=pos).collect();
    line.pop(); // the newline
    conn.read_deadline = None;
    if conn.overflow {
        conn.overflow = false;
        return Some(Err(format!("request line exceeds {MAX_LINE_BYTES} bytes")));
    }
    if line.len() > MAX_LINE_BYTES {
        return Some(Err(format!("request line exceeds {MAX_LINE_BYTES} bytes")));
    }
    match String::from_utf8(line) {
        Ok(s) => Some(Ok(s)),
        Err(_) => Some(Err("request line is not valid UTF-8".to_string())),
    }
}

/// Appends a reply line and flushes as much as the socket accepts.
fn send_line(conn: &mut Conn, line: &str) {
    conn.wbuf.extend_from_slice(line.as_bytes());
    conn.wbuf.push(b'\n');
    if !flush(conn) {
        conn.closing = true;
        conn.wbuf.clear();
        conn.active = None;
    }
}

/// Writes buffered output until the socket blocks.  Returns `false`
/// when the connection errored.
fn flush(conn: &mut Conn) -> bool {
    let mut written = 0usize;
    let ok = loop {
        if written >= conn.wbuf.len() {
            break true;
        }
        match conn.stream.write(&conn.wbuf[written..]) {
            Ok(0) => break false,
            Ok(n) => written += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break true,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => break false,
        }
    };
    conn.wbuf.drain(..written);
    ok
}

fn gossip_response(shared: &Shared) -> Json {
    let entries = shared.cache.lock().expect("cache lock").entries_lru();
    ok_response("gossip", None, false, crate::gossip::gossip_body(&entries))
}

fn stats_response(shared: &Shared) -> Json {
    let cache = shared.cache.lock().expect("cache lock");
    let queue_depth = shared.queue.lock().expect("queue lock").depth();
    // Integer percent: the wire JSON has no floats.
    let lookups = cache.hits + cache.misses;
    let hit_rate_pct = (cache.hits * 100)
        .checked_div(lookups)
        .and_then(|p| usize::try_from(p).ok())
        .unwrap_or(0);
    let count_of = |ctr: &AtomicU64| {
        Json::count(usize::try_from(ctr.load(Ordering::SeqCst)).unwrap_or(0))
    };
    let body = Json::Obj(vec![
        ("hits".into(), Json::count(usize::try_from(cache.hits).unwrap_or(usize::MAX))),
        (
            "misses".into(),
            Json::count(usize::try_from(cache.misses).unwrap_or(usize::MAX)),
        ),
        (
            "evictions".into(),
            Json::count(usize::try_from(cache.evictions).unwrap_or(usize::MAX)),
        ),
        ("hit_rate_pct".into(), Json::count(hit_rate_pct)),
        ("entries".into(), Json::count(cache.len())),
        ("cache_bytes".into(), Json::count(cache.used_bytes())),
        ("cache_bytes_max".into(), Json::count(cache.max_bytes())),
        (
            "inflight".into(),
            Json::count(shared.inflight.load(Ordering::SeqCst)),
        ),
        ("queue_depth".into(), Json::count(queue_depth)),
        ("executions".into(), count_of(&shared.executions)),
        ("rejected".into(), count_of(&shared.rejected)),
        ("shed".into(), count_of(&shared.shed)),
        ("quota_denied".into(), count_of(&shared.quota_denied)),
        (
            "active_connections".into(),
            Json::count(shared.active_connections.load(Ordering::SeqCst)),
        ),
        ("heartbeats_sent".into(), count_of(&shared.heartbeats_sent)),
        ("collapsed".into(), count_of(&shared.collapsed)),
        ("states_quotiented".into(), count_of(&shared.quotiented)),
        ("por_pruned".into(), count_of(&shared.pruned)),
        ("latency".into(), shared.latency.to_json()),
        ("workers".into(), Json::count(shared.opts.workers)),
        (
            "draining".into(),
            Json::Bool(shared.draining.load(Ordering::SeqCst)),
        ),
    ]);
    ok_response("stats", None, false, body)
}

/// Serves a cached `(op, body)` pair as a `cached:true` envelope.
fn cached_reply(op: &str, digest: &str, body: &str) -> String {
    match Json::parse(body) {
        Ok(parsed) => ok_response(op, Some(digest), true, parsed).render_compact(),
        // A cache body that fails to re-parse is a bug; answer it as an
        // error rather than emitting a malformed line.
        Err(e) => error_response(op, &format!("corrupt cache entry: {e}")).render_compact(),
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let ticket = {
            let mut queue = shared.queue.lock().expect("queue lock");
            loop {
                if let Some(t) = queue.pop() {
                    break t;
                }
                if shared.draining.load(Ordering::SeqCst) {
                    return;
                }
                queue = shared.queue_cv.wait(queue).expect("queue lock");
            }
        };
        shared.inflight.fetch_add(1, Ordering::SeqCst);
        let response = execute(shared, &ticket);
        shared.inflight.fetch_sub(1, Ordering::SeqCst);
        shared
            .completions
            .lock()
            .expect("completions lock")
            .push((ticket.conn, response));
        shared.poller.wake();
    }
}

/// Accumulates the reduction counters a fresh verify body reports into
/// the server-wide `stats` totals.
fn record_reduction(shared: &Shared, body: &Json) {
    let Some(r) = body.get("reduction") else {
        return;
    };
    let add = |key: &str, ctr: &AtomicU64| {
        if let Some(n) = r.get(key).and_then(Json::as_int) {
            ctr.fetch_add(u64::try_from(n).unwrap_or(0), Ordering::SeqCst);
        }
    };
    add("states_quotiented", &shared.quotiented);
    add("por_pruned", &shared.pruned);
}

fn execute(shared: &Arc<Shared>, ticket: &Ticket) -> String {
    let op = ticket.job.mode.keyword();
    let ctl = RunControl {
        deadline: ticket
            .job
            .deadline(ticket.accepted, shared.opts.default_timeout_secs),
        cancel: Arc::clone(&shared.cancel),
        progress: ticket.progress.clone(),
    };
    if ticket.job.no_cache {
        // Cache-bypassing requests neither join nor lead a flight: the
        // caller explicitly asked for a private run.
        shared.executions.fetch_add(1, Ordering::SeqCst);
        let outcome = shared.engine.run(&ticket.job, &ctl);
        if let Some(r) = drain_truncated_reply(shared, op, &outcome) {
            return r;
        }
        return match outcome.body {
            Ok(body) => {
                record_reduction(shared, &body);
                ok_response(op, Some(&ticket.digest), false, body).render_compact()
            }
            Err(e) => error_response(op, &e).render_compact(),
        };
    }
    loop {
        // The cache may have been filled between enqueue and pickup (a
        // duplicate ticket whose leader already finished) — serve that
        // rather than re-exploring.
        if let Some((_, body)) = shared
            .cache
            .lock()
            .expect("cache lock")
            .get(&ticket.digest)
        {
            return cached_reply(op, &ticket.digest, &body);
        }
        if shared.flight.begin(&ticket.digest) {
            shared.executions.fetch_add(1, Ordering::SeqCst);
            let outcome = shared.engine.run(&ticket.job, &ctl);
            if let Some(r) = drain_truncated_reply(shared, op, &outcome) {
                shared.flight.finish(&ticket.digest);
                return r;
            }
            let response = match outcome.body {
                Ok(body) => {
                    record_reduction(shared, &body);
                    if outcome.cacheable {
                        shared.cache.lock().expect("cache lock").insert(
                            ticket.digest.clone(),
                            op.to_string(),
                            body.render_compact(),
                        );
                        // Eager persistence: even an abrupt kill keeps
                        // every completed result.
                        persist_snapshot(shared);
                    }
                    ok_response(op, Some(&ticket.digest), false, body).render_compact()
                }
                Err(e) => error_response(op, &e).render_compact(),
            };
            shared.flight.finish(&ticket.digest);
            return response;
        }
        // Someone else is computing this digest: park, then loop — the
        // re-probe serves from the cache they filled, or this worker
        // becomes the next leader if they failed without caching.
        shared.collapsed.fetch_add(1, Ordering::SeqCst);
        shared.flight.wait(&ticket.digest);
    }
}

/// Converts a drain-truncated, non-cacheable run into a `rejected`
/// reply.  A relaying coordinator must see *retry elsewhere*, never a
/// half-explored inconclusive verdict it would pass back to the client
/// as if it were the real answer — that would break the byte-identity
/// guarantee the chaos oracle enforces.
fn drain_truncated_reply(shared: &Shared, op: &str, outcome: &EngineOutcome) -> Option<String> {
    if !outcome.cacheable && shared.draining.load(Ordering::SeqCst) {
        shared.rejected.fetch_add(1, Ordering::SeqCst);
        return Some(rejected_response(op, "worker drained mid-run").render_compact());
    }
    None
}
