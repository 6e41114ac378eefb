//! Net-tier additions to the JSON-lines wire format.
//!
//! The serving tier reuses the single-client protocol verbatim
//! ([`drhw_engine::serve`]: `result` / `progress` / `error` lines) and adds
//! exactly two line shapes of its own:
//!
//! * **`{"type":"rejected",…}`** — an admission-control refusal. For job
//!   submits it carries the echoed `id`, the input `line` number, the
//!   `scope` (`"client"` quota or `"server"` backpressure), the offending
//!   `client` address, the `limit` that was hit and a human `message`. For
//!   refused *connections* it carries `scope":"connection"` and a `reason`
//!   (`"draining"` or `"connection-limit"`).
//! * **`{"type":"shutdown","draining":true}`** — the acknowledgement of an
//!   accepted wire shutdown command.

use drhw_engine::json::JsonValue;

/// Which admission bound rejected a submit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectScope {
    /// The per-client quota ([`ServerConfig::per_client_quota`](crate::ServerConfig)).
    Client,
    /// The server-wide pending bound ([`ServerConfig::max_pending_jobs`](crate::ServerConfig)).
    Server,
}

impl RejectScope {
    /// The wire name of the scope.
    pub fn as_str(self) -> &'static str {
        match self {
            RejectScope::Client => "client",
            RejectScope::Server => "server",
        }
    }
}

/// Renders the `rejected` line for an over-quota job submit: names the
/// offending client and the limit that was hit, so a swarm log is
/// attributable without server-side correlation.
pub fn rejected_json(
    scope: RejectScope,
    id: Option<&JsonValue>,
    line_number: u64,
    client: &str,
    limit: usize,
) -> JsonValue {
    let mut entries = vec![(
        "type".to_string(),
        JsonValue::String("rejected".to_string()),
    )];
    if let Some(id) = id {
        entries.push(("id".to_string(), id.clone()));
    }
    let message = match scope {
        RejectScope::Client => format!(
            "client {client} already has {limit} job(s) queued (per-client quota {limit}); \
             wait for a result line before submitting more"
        ),
        RejectScope::Server => format!(
            "server is saturated: {limit} job(s) pending across all clients (bound {limit}); \
             retry after in-flight jobs drain"
        ),
    };
    entries.extend([
        ("line".to_string(), JsonValue::UInt(line_number)),
        (
            "scope".to_string(),
            JsonValue::String(scope.as_str().to_string()),
        ),
        ("client".to_string(), JsonValue::String(client.to_string())),
        ("limit".to_string(), JsonValue::UInt(limit as u64)),
        ("message".to_string(), JsonValue::String(message)),
    ]);
    JsonValue::Object(entries)
}

/// Renders the `rejected` line written to a connection the server refuses
/// to serve (then closes): `reason` is `"draining"` or `"connection-limit"`.
pub fn refused_json(reason: &str, message: &str) -> JsonValue {
    JsonValue::Object(vec![
        (
            "type".to_string(),
            JsonValue::String("rejected".to_string()),
        ),
        (
            "scope".to_string(),
            JsonValue::String("connection".to_string()),
        ),
        ("reason".to_string(), JsonValue::String(reason.to_string())),
        (
            "message".to_string(),
            JsonValue::String(message.to_string()),
        ),
    ])
}

/// One response line as bytes: the compact JSON and its newline, for a
/// single `write_all`, so the newline never waits in a TCP segment of its
/// own.
pub(crate) fn line_bytes(value: &JsonValue) -> Vec<u8> {
    let mut line = value.to_json().into_bytes();
    line.push(b'\n');
    line
}

/// Renders the acknowledgement of an accepted wire shutdown command.
pub fn shutdown_ack_json() -> JsonValue {
    JsonValue::Object(vec![
        (
            "type".to_string(),
            JsonValue::String("shutdown".to_string()),
        ),
        ("draining".to_string(), JsonValue::Bool(true)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use drhw_engine::json::parse;

    #[test]
    fn rejected_lines_name_the_client_and_limit() {
        let id = JsonValue::UInt(3);
        let line = rejected_json(RejectScope::Client, Some(&id), 7, "127.0.0.1:5000", 4).to_json();
        let value = parse(&line).expect("rejected lines are valid JSON");
        assert_eq!(value.get("type").unwrap().as_str(), Some("rejected"));
        assert_eq!(value.get("id").unwrap().as_u64(), Some(3));
        assert_eq!(value.get("line").unwrap().as_u64(), Some(7));
        assert_eq!(value.get("scope").unwrap().as_str(), Some("client"));
        assert_eq!(
            value.get("client").unwrap().as_str(),
            Some("127.0.0.1:5000")
        );
        assert_eq!(value.get("limit").unwrap().as_u64(), Some(4));
        let message = value.get("message").unwrap().as_str().unwrap();
        assert!(message.contains("127.0.0.1:5000"), "{message}");
        assert!(message.contains('4'), "{message}");

        let line = rejected_json(RejectScope::Server, None, 2, "x", 2048).to_json();
        let value = parse(&line).expect("rejected lines are valid JSON");
        assert_eq!(value.get("scope").unwrap().as_str(), Some("server"));
        assert!(value.get("id").is_none());
    }

    #[test]
    fn refusal_and_shutdown_lines_are_structured() {
        let value = parse(&refused_json("draining", "server is draining").to_json()).unwrap();
        assert_eq!(value.get("type").unwrap().as_str(), Some("rejected"));
        assert_eq!(value.get("scope").unwrap().as_str(), Some("connection"));
        assert_eq!(value.get("reason").unwrap().as_str(), Some("draining"));

        let value = parse(&shutdown_ack_json().to_json()).unwrap();
        assert_eq!(value.get("type").unwrap().as_str(), Some("shutdown"));
        assert_eq!(value.get("draining").unwrap().as_bool(), Some(true));
    }
}
