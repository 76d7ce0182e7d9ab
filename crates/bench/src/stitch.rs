//! `trace-stitch`: merge client- and server-side Chrome traces into one
//! timeline and correlate them by wire request id (DESIGN.md §6.11).
//!
//! The wire client assigns every request a `request_id`; the serving
//! layer threads it through push spans and flight-ring entries, and both
//! sides export Chrome `trace_event` JSON carrying `"req":<id>` args —
//! the client under `pid` 0, the server under `pid` 1. Stitching is
//! therefore a pure string-level splice of the two `traceEvents` arrays
//! plus a set intersection on the ids: no JSON parser dependency, which
//! keeps the helper usable from the dependency-free benchmark and tests.

use std::collections::BTreeSet;
use std::fmt::Write as _;

/// The Chrome-trace envelope both sides emit.
const HEADER: &str = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
/// The envelope's closing bytes.
const TRAILER: &str = "]}";

/// A client-side Chrome-trace builder: events render under `pid` 0 (the
/// client half of a stitched timeline), each carrying the wire
/// `request_id` it belongs to, so the trace correlates 1:1 against
/// server-side flight dumps and recordings.
#[derive(Debug, Default)]
pub struct ClientTrace {
    events: Vec<String>,
}

impl ClientTrace {
    /// An empty client trace.
    pub fn new() -> Self {
        ClientTrace { events: Vec::new() }
    }

    /// Records a completed request span: `ts_us` is the client's logical
    /// timestamp (e.g. cumulative request ordinal or audio time),
    /// `dur_us` the measured round-trip.
    pub fn span(&mut self, name: &str, request_id: u64, ts_us: u64, dur_us: u64) {
        let mut ev = String::with_capacity(96);
        let _ = write!(
            ev,
            "{{\"name\":\"{name}\",\"cat\":\"client\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\
             \"ts\":{ts_us},\"dur\":{dur_us},\"args\":{{\"req\":{request_id}}}}}"
        );
        self.events.push(ev);
    }

    /// Records an instant (verdicts, errors).
    pub fn instant(&mut self, name: &str, request_id: u64, ts_us: u64) {
        let mut ev = String::with_capacity(96);
        let _ = write!(
            ev,
            "{{\"name\":\"{name}\",\"cat\":\"client\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\
             \"tid\":0,\"ts\":{ts_us},\"args\":{{\"req\":{request_id}}}}}"
        );
        self.events.push(ev);
    }

    /// Events recorded so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Renders the Chrome-trace JSON document (same envelope as the
    /// server-side exports, so [`stitch_traces`] can splice them).
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 96 + 128);
        out.push_str(HEADER);
        out.push_str(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\
             \"args\":{\"name\":\"wire client\"}}",
        );
        for ev in &self.events {
            out.push(',');
            out.push_str(ev);
        }
        out.push_str(TRAILER);
        out
    }
}

/// Every nonzero `"req":<id>` correlation id in a Chrome-trace document.
/// Zero is the "untagged" sentinel on the server side and is skipped.
pub fn request_ids(chrome_json: &str) -> BTreeSet<u64> {
    let mut out = BTreeSet::new();
    let needle = "\"req\":";
    let mut rest = chrome_json;
    while let Some(pos) = rest.find(needle) {
        rest = rest.get(pos + needle.len()..).unwrap_or_default();
        let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
        if let Ok(id) = digits.parse::<u64>() {
            if id != 0 {
                out.insert(id);
            }
        }
    }
    out
}

/// Splices two Chrome-trace documents into one merged timeline (client
/// events keep `pid` 0, server events `pid` 1 — Perfetto renders them as
/// two processes on a shared clock).
///
/// # Errors
///
/// Returns a description when either input does not carry the expected
/// envelope.
pub fn stitch_traces(client: &str, server: &str) -> Result<String, String> {
    let inner = |doc: &str, which: &str| -> Result<String, String> {
        let body = doc
            .strip_prefix(HEADER)
            .and_then(|d| d.strip_suffix(TRAILER))
            .ok_or_else(|| format!("{which} trace lacks the Chrome-trace envelope"))?;
        Ok(body.to_string())
    };
    let client_events = inner(client, "client")?;
    let server_events = inner(server, "server")?;
    let mut out = String::with_capacity(client.len() + server.len());
    out.push_str(HEADER);
    out.push_str(&client_events);
    if !client_events.is_empty() && !server_events.is_empty() {
        out.push(',');
    }
    out.push_str(&server_events);
    out.push_str(TRAILER);
    Ok(out)
}

/// The request-id correlation between a client trace and a server trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StitchReport {
    /// Ids present on both sides — the stitched pairs.
    pub matched: usize,
    /// Server-side ids with no client counterpart. Nonzero means the
    /// server invented or corrupted a correlation id: always a bug.
    pub server_only: Vec<u64>,
    /// Distinct nonzero ids the client trace carries.
    pub client_total: usize,
}

impl StitchReport {
    /// True when every server-side id stitches to a client request.
    pub fn is_one_to_one(&self) -> bool {
        self.server_only.is_empty() && self.matched > 0
    }
}

/// Correlates the nonzero request ids of two Chrome-trace documents.
pub fn correlate(client: &str, server: &str) -> StitchReport {
    let client_ids = request_ids(client);
    let server_ids = request_ids(server);
    StitchReport {
        matched: server_ids.intersection(&client_ids).count(),
        server_only: server_ids.difference(&client_ids).copied().collect(),
        client_total: client_ids.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server_doc() -> String {
        // The flight exporter's shape: sid/req args under pid 1.
        format!(
            "{HEADER}{{\"name\":\"push\",\"cat\":\"serve\",\"pid\":1,\"tid\":6,\"ts\":10,\
             \"ph\":\"X\",\"dur\":5,\"args\":{{\"sid\":7,\"req\":42}}}},\
             {{\"name\":\"session_open\",\"cat\":\"serve\",\"pid\":1,\"tid\":6,\"ts\":0,\
             \"ph\":\"i\",\"s\":\"t\",\"args\":{{\"sid\":7,\"req\":41}}}},\
             {{\"name\":\"reap_scan\",\"cat\":\"serve\",\"pid\":1,\"tid\":6,\"ts\":20,\
             \"ph\":\"i\",\"s\":\"t\",\"args\":{{\"sid\":0,\"req\":0}}}}{TRAILER}"
        )
    }

    #[test]
    fn client_trace_renders_the_shared_envelope() {
        let mut t = ClientTrace::new();
        assert!(t.is_empty());
        t.span("push", 42, 10, 900);
        t.instant("shed", 43, 20);
        assert_eq!(t.len(), 2);
        let json = t.to_chrome_json();
        assert!(json.starts_with(HEADER));
        assert!(json.ends_with(TRAILER));
        assert!(json.contains("\"pid\":0"));
        assert!(json.contains("\"req\":42"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn request_id_extraction_skips_the_untagged_sentinel() {
        let ids = request_ids(&server_doc());
        assert_eq!(ids.into_iter().collect::<Vec<_>>(), vec![41, 42]);
    }

    #[test]
    fn stitch_splices_and_correlates_one_to_one() {
        let mut client = ClientTrace::new();
        client.span("open", 41, 0, 100);
        client.span("push", 42, 10, 900);
        client.span("finish", 99, 30, 80); // client-only id: allowed
        let client_json = client.to_chrome_json();
        let server_json = server_doc();

        let merged = stitch_traces(&client_json, &server_json).expect("both well-formed");
        assert!(merged.starts_with(HEADER) && merged.ends_with(TRAILER));
        assert!(merged.contains("\"pid\":0") && merged.contains("\"pid\":1"));
        assert_eq!(merged.matches('{').count(), merged.matches('}').count());

        let report = correlate(&client_json, &server_json);
        assert_eq!(report.matched, 2);
        assert!(report.server_only.is_empty());
        assert_eq!(report.client_total, 3);
        assert!(report.is_one_to_one());
    }

    #[test]
    fn server_only_ids_fail_the_one_to_one_check() {
        let client = ClientTrace::new().to_chrome_json();
        let report = correlate(&client, &server_doc());
        assert_eq!(report.matched, 0);
        assert_eq!(report.server_only, vec![41, 42]);
        assert!(!report.is_one_to_one());
    }

    #[test]
    fn stitch_rejects_foreign_envelopes() {
        assert!(stitch_traces("[]", &server_doc()).is_err());
        assert!(stitch_traces(&server_doc(), "{\"traceEvents\":{}}").is_err());
    }
}
