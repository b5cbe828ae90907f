//! `spi serve` — a concurrent verification service.
//!
//! This crate turns the toolkit's [`spi_verify::Verifier`] into a
//! long-lived daemon speaking newline-delimited JSON over TCP (the
//! codec is the workspace's shared [`spi_verify::jsonlite`] — no
//! external dependencies).  One process, four load-bearing pieces:
//!
//! * a **content-addressed result cache** ([`cache::ResultCache`]):
//!   every request is normalized — specs parsed and re-printed,
//!   budgets spelled canonically, fault schedules canonicalized — and
//!   digested, so two spellings of the same question share one cache
//!   entry.  Eviction is LRU under a byte budget accounted through the
//!   existing [`spi_verify::Budget`] / [`spi_verify::Governor`] types;
//! * **singleflight dedup** ([`flight::Singleflight`]): concurrent
//!   identical requests trigger exactly one exploration, with the
//!   followers served from the freshly filled cache;
//! * a **fixed worker pool with bounded admission**
//!   ([`service::serve`]): a full queue degrades to an explicit
//!   `rejected` answer (the HTTP-429 of this protocol) instead of
//!   unbounded memory growth, exactly in the spirit of the toolkit's
//!   resource governor;
//! * **graceful drain with snapshot persistence**
//!   ([`snapshot`]): on shutdown the server stops accepting, winds
//!   down in-flight explorations through the cooperative cancel flag,
//!   and flushes an atomic, identity-digest-guarded cache snapshot
//!   that a restarted server reloads — the first repeated question
//!   after a restart is already a cache hit.
//!
//! The wire protocol and the verify/campaign JSON bodies live in
//! [`protocol`]; the same body encoders power the CLI's
//! `--format json` so a script sees byte-identical shapes from
//! `spi verify` and from the daemon.
//!
//! On top of the single-node daemon sits a **fault-tolerant fleet**
//! layer: a [`coordinator`] speaking the same protocol routes requests
//! by content digest over a consistent-hash [`shard::Ring`] of
//! workers, detects failures through [`membership`] heartbeats and
//! dial errors, hedges slow dispatches, splits campaigns into
//! re-dispatchable work units, and degrades to local execution on
//! quorum loss.  Workers warm their cache shard from peers via
//! identity-digest-guarded [`gossip`], and a seeded [`chaos`] plan
//! drills the whole arrangement deterministically.
//!
//! The front end is a C10k-grade epoll **readiness loop**
//! ([`reactor`]): every connection is non-blocking and owned by one
//! reactor thread, so idle connections cost no threads, slow senders
//! are reaped at a read deadline, slow readers hit a bounded write
//! buffer, and long campaigns can stream `{"status":"progress",…}`
//! heartbeats.  [`admission`] layers per-tenant token-bucket quotas
//! and a two-class priority queue in front of the worker pool.
//!
//! The crate is `unsafe`-free except for [`reactor`]'s thin epoll FFI
//! shim, which is the only module allowed to opt out.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod cache;
pub mod chaos;
pub mod client;
pub mod coordinator;
pub mod digest;
pub mod flight;
pub mod gossip;
pub mod membership;
pub mod protocol;
pub mod reactor;
pub mod service;
pub mod shard;
pub mod snapshot;

pub use admission::{Priority, TenantQuotas};
pub use cache::ResultCache;
pub use chaos::{ChaosEvent, ChaosPlan};
pub use client::{oneshot, Client};
pub use coordinator::{coordinate, CoordinatorHandle, CoordinatorOptions, CoordinatorShutdown};
pub use gossip::{pull_from, push_to};
pub use flight::Singleflight;
pub use membership::Membership;
pub use protocol::{
    campaign_body, error_response, ok_response, parse_request, parse_source, progress_response,
    rejected_response, shed_response, verify_body, JobRequest, Mode, Request,
};
pub use reactor::Poller;
pub use service::{
    run_locally, serve, CacheHandle, Engine, EngineOutcome, RunControl, ServerHandle,
    ServerOptions, ShutdownHandle, VerifierEngine,
};
pub use shard::Ring;
