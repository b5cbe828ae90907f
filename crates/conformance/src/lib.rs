//! Differential conformance harness for the spi-calculus toolkit.
//!
//! The workspace maintains several pairs of mechanisms that must agree:
//! an exact printer against the parser, a parallel exploration frontier
//! against the sequential engine, 128-bit hashed state keys against full
//! canonical strings, copy-on-write stepping against deep-clone stepping,
//! and checkpoint/resume against uninterrupted campaigns.  This crate
//! stress-tests those seams:
//!
//! 1. [`gen`] draws arbitrary well-formed protocol specifications from
//!    the full source grammar, sized by [`gen::GenSize`] and fully
//!    determined by a `(seed, index)` pair;
//! 2. [`oracle`] runs each specification through the pluggable
//!    [`oracle::Oracle`] suite, where any engine-vs-engine disagreement
//!    is a failure;
//! 3. [`shrink`] ddmin-reduces each failure to a 1-minimal process;
//! 4. [`corpus`] writes the minimal case as a standalone `.spi`
//!    reproducer which the test suite replays forever after.
//!
//! The `spi conformance` subcommand (in `spi-auth`) is the CLI front
//! end; [`runner::run_conformance`] is the library entry point.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod gen;
pub mod oracle;
pub mod runner;
pub mod shrink;

/// The seeded stream cases are drawn from (shared with the fleet's
/// chaos plans).
pub use spi_verify::rng;

pub use gen::{generate, GenSize, TestCase};
pub use oracle::{
    builtin_names, builtin_oracles, check_process, oracle_by_name, Injection, Oracle, OracleEnv,
    Verdict,
};
pub use runner::{exit_code, run_conformance, ConformanceOptions, ConformanceReport, Failure};
pub use shrink::{shrink_failure, Shrunk};
