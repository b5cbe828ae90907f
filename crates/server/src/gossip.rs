//! Cache gossip: the snapshot codec on the wire.
//!
//! A restarted worker warms its cache shard by pulling entries from a
//! peer instead of re-exploring: it sends `{"op":"gossip"}` and the
//! peer answers with the same identity-digest-guarded encoding the
//! on-disk snapshot uses.  The receiver recomputes the digest before
//! merging, so a forged payload, a torn mid-transfer line, or a
//! mismatched identity is refused wholesale — the receiving cache is
//! left exactly as it was.  Merging is a plain union: entries are
//! content-addressed, so two nodes gossiping in either direction
//! converge on the union of their caches.

use std::time::Duration;

use spi_verify::jsonlite::Json;

use crate::client::Client;
use crate::snapshot::{parse_snapshot, Entries};

/// Encodes cache entries as a gossip response body: the snapshot
/// file's encoding.
pub use crate::snapshot::snapshot_body as gossip_body;

/// Decodes and *verifies* a gossip body (see [`parse_snapshot`]).
///
/// # Errors
///
/// Fails on an unsupported version, a structurally incomplete entry
/// (torn transfer), or an identity digest that does not match the
/// contents (forgery) — in every case the caller merges nothing.
pub fn parse_gossip(body: &Json) -> Result<Entries, String> {
    parse_snapshot(body, "gossip")
}

/// Pulls and verifies a peer's cache entries over the wire.
///
/// # Errors
///
/// Fails when the peer is unreachable, answers with an error, or sends
/// a payload that does not verify (see [`parse_gossip`]).
pub fn pull_from(
    addr: &str,
    connect_timeout: Duration,
    read_timeout: Duration,
) -> Result<Entries, String> {
    let mut client = Client::connect_with(addr, Some(connect_timeout))?;
    client.read_timeout(Some(read_timeout))?;
    let reply = client.roundtrip(r#"{"op":"gossip"}"#)?;
    let json = Json::parse(&reply).map_err(|e| format!("malformed gossip reply: {e}"))?;
    if json.get("status").and_then(Json::as_str) != Some("ok") {
        return Err(format!("gossip pull refused: {reply}"));
    }
    let body = json.get("body").ok_or("gossip reply lacks a body")?;
    parse_gossip(body)
}

/// Pushes cache entries *to* a peer (`{"op":"gossip-push"}`) — the
/// proactive half of gossip, used by the coordinator to hand a
/// draining worker's shard to its new ring owners before the process
/// dies.  The receiver digest-verifies the payload exactly as a pull.
///
/// # Errors
///
/// Fails when the peer is unreachable or refuses the payload.
pub fn push_to(
    addr: &str,
    entries: &[(String, String, String)],
    connect_timeout: Duration,
    read_timeout: Duration,
) -> Result<usize, String> {
    let mut client = Client::connect_with(addr, Some(connect_timeout))?;
    client.read_timeout(Some(read_timeout))?;
    let line = Json::Obj(vec![
        ("op".into(), Json::str("gossip-push")),
        ("cache".into(), gossip_body(entries)),
    ])
    .render_compact();
    let reply = client.roundtrip(&line)?;
    let json = Json::parse(&reply).map_err(|e| format!("malformed gossip-push reply: {e}"))?;
    if json.get("status").and_then(Json::as_str) != Some("ok") {
        return Err(format!("gossip push refused: {reply}"));
    }
    let merged = json
        .get("body")
        .and_then(|b| b.get("merged"))
        .and_then(Json::as_int)
        .unwrap_or(0);
    Ok(usize::try_from(merged).unwrap_or(0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Entries {
        vec![
            (
                "fnv:aaaa".into(),
                "verify".into(),
                r#"{"verdict":"securely-implements"}"#.into(),
            ),
            ("fnv:bbbb".into(), "campaign".into(), r#"{"enumerated":3}"#.into()),
        ]
    }

    #[test]
    fn round_trips_entries() {
        let body = gossip_body(&sample());
        assert_eq!(parse_gossip(&body).unwrap(), sample());
        // And through a compact wire rendering.
        let reparsed = Json::parse(&body.render_compact()).unwrap();
        assert_eq!(parse_gossip(&reparsed).unwrap(), sample());
    }

    #[test]
    fn forged_contents_are_refused() {
        let body = gossip_body(&sample());
        let forged = body.render_compact().replace("securely-implements", "attack");
        let err = parse_gossip(&Json::parse(&forged).unwrap()).unwrap_err();
        assert!(err.contains("identity mismatch"), "{err}");
    }

    #[test]
    fn forged_identity_digest_is_refused() {
        let mut line = gossip_body(&sample()).render_compact();
        let id = line.find("fnv:").expect("identity present");
        line.replace_range(id + 4..id + 8, "dead");
        let err = parse_gossip(&Json::parse(&line).unwrap()).unwrap_err();
        assert!(err.contains("identity mismatch"), "{err}");
    }

    #[test]
    fn torn_transfers_merge_nothing() {
        // Truncate the rendered payload mid-entry: either the JSON no
        // longer parses, or an entry lacks a field — both refuse.
        let line = gossip_body(&sample()).render_compact();
        let torn = &line[..line.len() - 30];
        match Json::parse(torn) {
            Err(_) => {}
            Ok(json) => assert!(parse_gossip(&json).is_err()),
        }
    }

    #[test]
    fn empty_gossip_is_valid() {
        assert_eq!(parse_gossip(&gossip_body(&[])).unwrap(), Entries::new());
    }
}
