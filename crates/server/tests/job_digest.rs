//! Golden canonical descriptions: the exact strings a fixed set of
//! requests is content-addressed by.  Cache keys, snapshot entries and
//! fleet routing all hang off these bytes, so any change to how a job
//! field is read or digested shows up here first.

use spi_server::protocol::{parse_request, JobRequest, Request};

const P: &str = "(^m)c<m>|c(x).observe<x>";
const P_SPACED: &str = "(^m) c<m> | c(x).observe<x>";
const PROGRAM: &str = "def A = (^m) c<m>\\ndef B = c(x).observe<x>\\nsystem $A | $B";

/// `(mode, extra request fields, canonical description)` triples
/// covering every job field in every mode, at its default and at other
/// values.  In the expected strings `S` is the printed spec, `DEFAULT`
/// the default budget's spelling and `MAX` an unlimited budget
/// dimension.
const CASES: &[(&str, &str, &str)] = &[
    ("verify", "", "S|S|C=c|sessions=2|visible=6|budget=DEFAULT|intruder=true|faults="),
    (
        "verify",
        r#""channels":["c","d"],"sessions":3,"visible":4,"budget":"states=100,fuel=9","intruder":false,"faults":"drop:c:1,replay:c:2""#,
        "S|S|C=c,d|sessions=3|visible=4|budget=states=100,transitions=MAX,fuel=9,knowledge=MAX,steps=MAX|intruder=false|faults=drop:c:1+replay:c:2@1",
    ),
    (
        "verify",
        r#""reduce":"full""#,
        "S|S|C=c|sessions=2|visible=6|budget=DEFAULT|intruder=true|faults=|reduce=full",
    ),
    (
        "verify",
        r#""reduce":"symmetry","engine":"bisim""#,
        "S|S|C=c|sessions=2|visible=6|budget=DEFAULT|intruder=true|faults=|reduce=symmetry|engine=bisim",
    ),
    (
        "verify",
        r#""reduce":"por","engine":"both""#,
        "S|S|C=c|sessions=2|visible=6|budget=DEFAULT|intruder=true|faults=|reduce=por|engine=both",
    ),
    (
        "verify",
        r#""reduce":"none","engine":"trace""#,
        "S|S|C=c|sessions=2|visible=6|budget=DEFAULT|intruder=true|faults=",
    ),
    (
        "verify",
        r#""timeout_secs":5,"no_cache":true,"tenant":"alice","deadline_ms":2500,"progress_ms":100"#,
        "S|S|C=c|sessions=2|visible=6|budget=DEFAULT|intruder=true|faults=",
    ),
    (
        "verify",
        r#""faults_depth":3,"oracles":["roundtrip"]"#,
        "S|S|C=c|sessions=2|visible=6|budget=DEFAULT|intruder=true|faults=",
    ),
    (
        "verify",
        r#""unit":{"offset":2,"count":5}"#,
        "S|S|C=c|sessions=2|visible=6|budget=DEFAULT|intruder=true|faults=|unit=2+5",
    ),
    (
        "verify",
        r#""channels":[],"faults":"""#,
        "S|S|C=c|sessions=2|visible=6|budget=DEFAULT|intruder=true|faults=",
    ),
    (
        "verify",
        r#""sessions":0,"visible":0,"budget":"transitions=5""#,
        "S|S|C=c|sessions=0|visible=0|budget=states=50000,transitions=5,fuel=MAX,knowledge=MAX,steps=MAX|intruder=true|faults=",
    ),
    (
        "verify",
        r#""budget":"knowledge=3,steps=7","faults":"duplicate:c""#,
        "S|S|C=c|sessions=2|visible=6|budget=states=50000,transitions=MAX,fuel=MAX,knowledge=3,steps=7|intruder=true|faults=duplicate:c:1@1",
    ),
    (
        "campaign",
        "",
        "S|S|C=c|sessions=2|visible=6|budget=DEFAULT|intruder=true|faults=|depth=2",
    ),
    (
        "campaign",
        r#""faults_depth":1,"unit":{"offset":1,"count":3},"budget":"states=50","faults":"drop:c:1,replay:c:2","intruder":false"#,
        "S|S|C=c|sessions=2|visible=6|budget=states=50,transitions=MAX,fuel=MAX,knowledge=MAX,steps=MAX|intruder=false|faults=drop:c:1+replay:c:2@1|depth=1|unit=1+3",
    ),
    (
        "campaign",
        r#""engine":"both","reduce":"full","faults_depth":3"#,
        "S|S|C=c|sessions=2|visible=6|budget=DEFAULT|intruder=true|faults=|reduce=full|engine=both|depth=3",
    ),
    (
        "campaign",
        r#""oracles":["cowstate"],"channels":["a","b"]"#,
        "S|S|C=a,b|sessions=2|visible=6|budget=DEFAULT|intruder=true|faults=|depth=2",
    ),
    (
        "campaign",
        r#""unit":{"offset":0,"count":4},"tenant":"batch","no_cache":true"#,
        "S|S|C=c|sessions=2|visible=6|budget=DEFAULT|intruder=true|faults=|depth=2|unit=0+4",
    ),
    (
        "conformance-replay",
        "",
        "S|C=c|sessions=2|visible=6|budget=DEFAULT|intruder=true|faults=|oracles=",
    ),
    (
        "conformance-replay",
        r#""oracles":["roundtrip","cowstate"]"#,
        "S|C=c|sessions=2|visible=6|budget=DEFAULT|intruder=true|faults=|oracles=roundtrip,cowstate",
    ),
    (
        "conformance-replay",
        r#""faults_depth":1,"engine":"bisim","reduce":"por","unit":{"offset":3,"count":1}"#,
        "S|C=c|sessions=2|visible=6|budget=DEFAULT|intruder=true|faults=|reduce=por|engine=bisim|oracles=|unit=3+1",
    ),
    (
        "conformance-replay",
        r#""abstract":"0","sessions":1,"visible":3,"intruder":false"#,
        "S|C=c|sessions=1|visible=3|budget=DEFAULT|intruder=false|faults=|oracles=",
    ),
    (
        "conformance-replay",
        r#""faults":"reorder:c:2","budget":"states=7","deadline_ms":0"#,
        "S|C=c|sessions=2|visible=6|budget=states=7,transitions=MAX,fuel=MAX,knowledge=MAX,steps=MAX|intruder=true|faults=reorder:c:2@1|oracles=",
    ),
];

fn job(line: &str) -> JobRequest {
    match parse_request(line).unwrap_or_else(|e| panic!("{line}: {e}")) {
        Request::Job(job) => *job,
        other => panic!("{line}: expected a job, got {other:?}"),
    }
}

fn expand(mode: &str, want: &str) -> String {
    let want = want
        .replace(
            "DEFAULT",
            "states=50000,transitions=MAX,fuel=MAX,knowledge=MAX,steps=MAX",
        )
        .replace("MAX", &u64::MAX.to_string())
        .replace('S', "(^m)c<m> | c(x).observe<x>");
    format!("serve-v1|{mode}|{want}")
}

#[test]
fn canonical_descriptions_are_pinned() {
    for (mode, extra, want) in CASES {
        let sources = if *mode == "conformance-replay" {
            format!(r#""spec":"{P}""#)
        } else {
            format!(r#""concrete":"{P}","abstract":"{P}""#)
        };
        let sep = if extra.is_empty() { "" } else { "," };
        let line = format!(r#"{{"op":"{mode}",{sources}{sep}{extra}}}"#);
        assert_eq!(
            job(&line).canonical().unwrap(),
            expand(mode, want),
            "{line}"
        );
    }
}

#[test]
fn spec_spellings_share_one_description() {
    let spaced = job(&format!(
        r#"{{"op":"verify","concrete":"{P_SPACED}","abstract":"{PROGRAM}","sessions":1}}"#
    ));
    assert_eq!(
        spaced.canonical().unwrap(),
        expand(
            "verify",
            "S|S|C=c|sessions=1|visible=6|budget=DEFAULT|intruder=true|faults="
        )
    );
    let program = job(&format!(
        r#"{{"op":"conformance-replay","spec":"{PROGRAM}","oracles":[],"engine":"both"}}"#
    ));
    assert_eq!(
        program.canonical().unwrap(),
        expand(
            "conformance-replay",
            "S|C=c|sessions=2|visible=6|budget=DEFAULT|intruder=true|faults=|engine=both|oracles="
        )
    );
}

#[test]
fn digests_are_pinned() {
    let default = job(&format!(
        r#"{{"op":"verify","concrete":"{P}","abstract":"{P}"}}"#
    ));
    let unit = job(&format!(
        r#"{{"op":"campaign","concrete":"{P}","abstract":"{P}","unit":{{"offset":1,"count":3}}}}"#
    ));
    assert_eq!(default.digest().unwrap(), "fnv:ec36954405af4114");
    assert_eq!(unit.digest().unwrap(), "fnv:d077c2da9b75ad71");
}
