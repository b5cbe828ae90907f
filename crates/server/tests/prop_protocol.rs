//! Property tests of the job-field table: every field with a digest
//! clause separates questions, the execution-only fields never move
//! the digest, and a wire round trip keeps the digest and every
//! execution-only field.

use proptest::prelude::*;
use spi_semantics::{FaultClause, FaultSpec};
use spi_server::protocol::{parse_request, JobRequest, Mode, Request};
use spi_verify::{Budget, Engine, ReduceOptions};

const SPECS: [&str; 3] = [
    "(^m)c<m>|c(x).observe<x>",
    "(^k)((^m)c<{m}k> | c(z).case z of {w}k in observe<w>)",
    "0",
];
const CHANNELS: [&str; 4] = ["c", "d", "e", "f"];
const FAULT_KINDS: [&str; 4] = ["drop", "duplicate", "reorder", "replay"];
const REDUCE: [&str; 4] = ["none", "symmetry", "por", "full"];
const ENGINES: [&str; 3] = ["trace", "bisim", "both"];
const ORACLES: [&str; 3] = ["roundtrip", "cowstate", "engines"];
const TENANTS: [&str; 4] = ["alice", "b\"ob", "naïve tenant", "a\\b"];

fn draws() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0u64..u64::MAX, 32)
}

fn clause(kind: u64, chan: u64, max: u64) -> FaultClause {
    let (kind, chan) = (
        FAULT_KINDS[(kind % 4) as usize],
        CHANNELS[(chan % 2) as usize],
    );
    format!("{kind}:{chan}:{}", 1 + max % 3)
        .parse()
        .expect("a valid clause")
}

/// A job whose every field is drawn independently from `d`.
fn job_from(d: &[u64]) -> JobRequest {
    let pick = |i: usize, n: usize| (d[i] % n as u64) as usize;
    let mode = [Mode::Verify, Mode::Campaign, Mode::ConformanceReplay][pick(0, 3)];
    let mut job = JobRequest::new(mode, SPECS[pick(1, 3)], SPECS[pick(2, 3)]);
    job.channels = (0..=pick(3, 3))
        .map(|i| CHANNELS[(pick(4, 4) + i) % 4].to_string())
        .collect();
    job.sessions = pick(5, 4) as u32;
    job.visible = pick(6, 8);
    if d[7].is_multiple_of(2) {
        job.budget = Budget::unlimited().states(1 + pick(8, 999));
    }
    job.intruder = d[9].is_multiple_of(2);
    if d[10].is_multiple_of(2) {
        job.faults = Some(FaultSpec::new([clause(d[11], d[12], d[13])]));
    }
    job.reduce = ReduceOptions::parse(REDUCE[pick(14, 4)]).expect("a reduce mode");
    job.engine = Engine::parse(ENGINES[pick(15, 3)]).expect("an engine");
    job.faults_depth = pick(16, 4);
    job.oracles = ORACLES[..pick(17, 4)]
        .iter()
        .map(ToString::to_string)
        .collect();
    if d[18].is_multiple_of(2) {
        job.unit = Some((pick(19, 20), 1 + pick(20, 20)));
    }
    job
}

/// Sets every execution-only field from `d`.
fn set_execution_fields(job: &mut JobRequest, d: &[u64]) {
    let some = |i: usize| d[i].is_multiple_of(2).then_some(d[i + 1] % 100_000);
    job.timeout_secs = some(21);
    job.no_cache = d[23].is_multiple_of(2);
    job.tenant = d[24]
        .is_multiple_of(2)
        .then(|| TENANTS[(d[25] % 4) as usize].to_string());
    job.deadline_ms = some(26);
    job.progress_ms = some(28);
}

/// Changes field `which` of `job` to another value and names it.
fn change(job: &mut JobRequest, which: u64) -> &'static str {
    let next = |list: &[&'static str], now: &str| {
        list[(list.iter().position(|x| *x == now).expect("listed") + 1) % list.len()]
    };
    match which % 12 {
        0 => {
            job.channels.push("z".into());
            "channels"
        }
        1 => {
            job.sessions += 1;
            "sessions"
        }
        2 => {
            job.visible += 1;
            "visible"
        }
        3 => {
            job.budget.max_states += 1;
            "budget"
        }
        4 => {
            job.intruder = !job.intruder;
            "intruder"
        }
        5 => {
            job.faults = match job.faults {
                Some(_) => None,
                None => Some(FaultSpec::new([clause(0, 0, 0)])),
            };
            "faults"
        }
        6 => {
            job.reduce = ReduceOptions::parse(next(&REDUCE, job.reduce.mode())).expect("a mode");
            "reduce"
        }
        7 => {
            job.engine = Engine::parse(next(&ENGINES, job.engine.mode())).expect("an engine");
            "engine"
        }
        8 => {
            job.faults_depth += 1;
            "faults_depth"
        }
        9 => {
            job.oracles.push("shrink".into());
            "oracles"
        }
        10 => {
            job.unit = Some(
                job.unit
                    .map_or((0, 1), |(offset, count)| (offset + 1, count)),
            );
            "unit"
        }
        _ => {
            job.concrete = next(&SPECS, &job.concrete).to_string();
            "concrete"
        }
    }
}

fn parsed(line: &str) -> JobRequest {
    match parse_request(line).unwrap_or_else(|e| panic!("{line}: {e}")) {
        Request::Job(job) => *job,
        other => panic!("{line}: expected a job, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn every_digest_clause_separates_questions(d in draws(), which in 0u64..12) {
        let job = job_from(&d);
        let mut other = job.clone();
        let name = change(&mut other, which);
        // The schedule depth only asks something of a campaign, and the
        // oracle list only of a conformance replay.
        let asks = match name {
            "faults_depth" => job.mode == Mode::Campaign,
            "oracles" => job.mode == Mode::ConformanceReplay,
            _ => true,
        };
        let (a, b) = (job.digest().unwrap(), other.digest().unwrap());
        prop_assert_eq!(a != b, asks, "{} changed: {} vs {}", name, job.canonical().unwrap(), other.canonical().unwrap());
    }

    #[test]
    fn execution_only_fields_never_move_the_digest(d in draws(), e in draws()) {
        let job = job_from(&d);
        let mut run = job.clone();
        set_execution_fields(&mut run, &e);
        prop_assert_eq!(job.digest().unwrap(), run.digest().unwrap());
    }

    #[test]
    fn the_wire_round_trip_keeps_the_digest_and_execution_fields(d in draws()) {
        let mut job = job_from(&d);
        set_execution_fields(&mut job, &d);
        let line = job.wire_json().render_compact();
        let back = parsed(&line);
        prop_assert_eq!(back.digest().unwrap(), job.digest().unwrap());
        prop_assert_eq!(back.timeout_secs, job.timeout_secs);
        prop_assert_eq!(back.no_cache, job.no_cache);
        prop_assert_eq!(&back.tenant, &job.tenant);
        prop_assert_eq!(back.deadline_ms, job.deadline_ms);
        prop_assert_eq!(back.progress_ms, job.progress_ms);
        // Every field survives, digest-bearing or not.
        prop_assert_eq!(back.wire_json().render_compact(), line);
    }
}
