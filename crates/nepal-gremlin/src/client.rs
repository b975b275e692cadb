//! The Gremlin client: submits bytecode and assembles streamed results.
//!
//! Also provides [`Channel`], the result-forwarding primitive from §5.2:
//! "we have implemented channels for our Python framework which collect
//! results from one or more Gremlin queries and supplies them to one or
//! more Gremlin queries" — the glue that implements `Union` operators when
//! evaluating a Nepal plan against a Gremlin backend.

use nepal_obs::{SpanHandle, TRACK_SERVER};

use crate::json::Json;
use crate::protocol::{read_frame_counted, request, status, write_frame_counted, ProtoError};
use crate::server::Transport;
use crate::traversal::{bytecode_to_json, GStep};

/// Cumulative wire-level counters for one client connection.
#[derive(Debug, Default, Clone, Copy)]
pub struct WireStats {
    /// Requests submitted (== round trips).
    pub requests: u64,
    pub frames_sent: u64,
    pub frames_received: u64,
    pub bytes_sent: u64,
    pub bytes_received: u64,
    /// Status-206 frames received (streamed result batches before the
    /// terminal frame).
    pub partial_batches: u64,
}

/// A Gremlin client over any transport.
pub struct GremlinClient<T: Transport> {
    conn: T,
    next_id: u64,
    /// Number of submitted requests (round trips) — the metric the
    /// ExtendBlock optimization exists to reduce.
    pub round_trips: u64,
    /// Wire-level counters, cumulative over the connection's lifetime.
    pub wire: WireStats,
}

impl<T: Transport> GremlinClient<T> {
    pub fn new(conn: T) -> Self {
        GremlinClient { conn, next_id: 0, round_trips: 0, wire: WireStats::default() }
    }

    /// Snapshot of the connection's wire counters.
    pub fn wire_stats(&self) -> WireStats {
        self.wire
    }

    /// Submit a bytecode traversal and collect the full result stream.
    pub fn submit(&mut self, steps: &[GStep]) -> Result<Vec<Json>, ProtoError> {
        self.submit_spanned(steps, &SpanHandle::none())
    }

    /// [`GremlinClient::submit`] under a live span: the round trip becomes
    /// a `gremlin:round-trip` child span, the server is asked to time the
    /// request, and its reported phases are grafted into the trace as
    /// remote spans on the server track (correlated by request id).
    pub fn submit_spanned(&mut self, steps: &[GStep], span: &SpanHandle) -> Result<Vec<Json>, ProtoError> {
        let req_body = bytecode_to_json(steps);
        self.submit_raw("bytecode", req_body, span)
    }

    /// Submit a textual traversal (`g.V()…`) via the `eval` op.
    pub fn submit_text(&mut self, traversal: &str) -> Result<Vec<Json>, ProtoError> {
        self.submit_text_spanned(traversal, &SpanHandle::none())
    }

    /// [`GremlinClient::submit_text`] under a live span.
    pub fn submit_text_spanned(&mut self, traversal: &str, span: &SpanHandle) -> Result<Vec<Json>, ProtoError> {
        self.submit_raw("eval", Json::Str(traversal.to_string()), span)
    }

    fn submit_raw(&mut self, op: &str, gremlin: Json, span: &SpanHandle) -> Result<Vec<Json>, ProtoError> {
        self.next_id += 1;
        self.round_trips += 1;
        self.wire.requests += 1;
        let id = format!("req-{}", self.next_id);
        let rt_span = span.child("gremlin:round-trip");
        rt_span.attr("request_id", &id);
        rt_span.attr("op", op);
        let mut req = request(&id, gremlin);
        if let Json::Obj(m) = &mut req {
            m.insert("op".into(), Json::Str(op.to_string()));
            // Ask the server for per-request timings so one trace covers
            // both sides of the wire.
            if rt_span.is_active() {
                if let Some(Json::Obj(args)) = m.get_mut("args") {
                    args.insert("trace".into(), Json::Bool(true));
                }
            }
        }
        let sent = write_frame_counted(&mut self.conn, &req)?;
        self.wire.frames_sent += 1;
        self.wire.bytes_sent += sent;
        let mut out = Vec::new();
        let mut frames = 0u64;
        let mut bytes = 0u64;
        loop {
            let (mut frame, received) = read_frame_counted(&mut self.conn)?;
            self.wire.frames_received += 1;
            self.wire.bytes_received += received;
            frames += 1;
            bytes += received;
            let rid = frame.get("requestId").and_then(|j| j.as_str()).unwrap_or("");
            let code = frame.get("status").and_then(|s| s.get("code")).and_then(|c| c.as_u64()).unwrap_or(0) as u32;
            let msg =
                frame.get("status").and_then(|s| s.get("message")).and_then(|m| m.as_str()).unwrap_or("").to_string();
            // Admission sheds happen before the server reads the request,
            // so the overload frame can't echo our request id — classify
            // it by status before the id check.
            if code == status::OVERLOADED {
                let retry_after_ms = frame
                    .get("status")
                    .and_then(|s| s.get("attributes"))
                    .and_then(|a| a.get("retryAfterMs"))
                    .and_then(|v| v.as_u64())
                    .unwrap_or(0);
                return Err(ProtoError::Overloaded { message: msg, retry_after_ms });
            }
            if rid != id {
                return Err(ProtoError::BadFrame(format!("response for `{rid}`, expected `{id}`")));
            }
            match code {
                status::PARTIAL_CONTENT | status::SUCCESS => {
                    if code == status::PARTIAL_CONTENT {
                        self.wire.partial_batches += 1;
                    }
                    // The frame is ours: move the batch out instead of copying it.
                    if let Some(Json::Arr(data)) = frame.get_mut("result").and_then(|r| r.get_mut("data")) {
                        out.append(data);
                    }
                    if code == status::SUCCESS {
                        absorb_server_timing(&frame, &rt_span, &id);
                        rt_span.attr("frames_received", frames);
                        rt_span.attr("bytes_received", bytes);
                        rt_span.attr("results", out.len());
                        return Ok(out);
                    }
                }
                status::NO_CONTENT => {
                    absorb_server_timing(&frame, &rt_span, &id);
                    rt_span.attr("frames_received", frames);
                    rt_span.attr("bytes_received", bytes);
                    return Ok(out);
                }
                status::SERVER_TIMEOUT => return Err(ProtoError::Timeout(msg)),
                _ => return Err(ProtoError::Server(msg)),
            }
        }
    }
}

/// Bounded jittered exponential backoff for transient failures.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts (first try included). 1 = no retries.
    pub max_attempts: u32,
    /// Backoff before retry k (1-based) is `base * 2^(k-1)` capped at
    /// `max_delay`, jittered down by up to half.
    pub base_delay: std::time::Duration,
    pub max_delay: std::time::Duration,
    /// Seed for the deterministic jitter sequence.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_delay: std::time::Duration::from_millis(20),
            max_delay: std::time::Duration::from_millis(500),
            jitter_seed: 0x9e37_79b9_7f4a_7c15,
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry `attempt` (1-based): exponential, capped,
    /// jittered down by up to 50% so synchronized clients spread out.
    /// Deterministic in (seed, attempt) — tests can assert exact values.
    pub fn backoff(&self, attempt: u32) -> std::time::Duration {
        let exp = self.base_delay.saturating_mul(1u32 << attempt.saturating_sub(1).min(16));
        let capped = exp.min(self.max_delay);
        // splitmix64 round over (seed, attempt) for the jitter fraction.
        let mut z = self.jitter_seed.wrapping_add(attempt as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let jitter_permille = (z % 500) as u32; // 0..=499 → up to 50% off
        capped.mul_f64(1.0 - jitter_permille as f64 / 1000.0)
    }
}

/// A [`GremlinClient`] that reconnects and retries transient failures
/// (connect/IO errors, explicit 503 sheds) with jittered exponential
/// backoff. Only safe for idempotent requests — which every read-only
/// traversal here is. Non-transient errors (malformed frames, evaluation
/// errors, deadline timeouts) surface immediately.
pub struct RetryingClient<T: Transport, F: FnMut() -> std::io::Result<T>> {
    connect: F,
    client: Option<GremlinClient<T>>,
    policy: RetryPolicy,
    /// Retries performed (excludes first attempts) — the retry counter
    /// metric source.
    pub retries: u64,
    /// Sheds (503) observed across all attempts.
    pub sheds_seen: u64,
}

impl<T: Transport, F: FnMut() -> std::io::Result<T>> RetryingClient<T, F> {
    pub fn new(connect: F, policy: RetryPolicy) -> Self {
        RetryingClient { connect, client: None, policy, retries: 0, sheds_seen: 0 }
    }

    /// Wire counters of the current underlying connection, if any.
    pub fn wire_stats(&self) -> Option<WireStats> {
        self.client.as_ref().map(|c| c.wire)
    }

    /// Submit with retries. On a transient failure the connection is torn
    /// down, the policy's backoff (or the server's `Retry-After` hint, if
    /// larger) is slept, and the request is resubmitted on a fresh
    /// connection — up to `max_attempts` total tries.
    pub fn submit(&mut self, steps: &[GStep]) -> Result<Vec<Json>, ProtoError> {
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let result = self.try_once(steps);
            let err = match result {
                Ok(out) => return Ok(out),
                Err(e) => e,
            };
            if matches!(err, ProtoError::Overloaded { .. }) {
                self.sheds_seen += 1;
            }
            if !err.is_transient() || attempt >= self.policy.max_attempts {
                return Err(err);
            }
            // A failed transport is not trustworthy for the next attempt.
            self.client = None;
            self.retries += 1;
            let mut delay = self.policy.backoff(attempt);
            if let ProtoError::Overloaded { retry_after_ms, .. } = &err {
                delay = delay.max(std::time::Duration::from_millis(*retry_after_ms));
            }
            std::thread::sleep(delay);
        }
    }

    fn try_once(&mut self, steps: &[GStep]) -> Result<Vec<Json>, ProtoError> {
        if self.client.is_none() {
            let conn = (self.connect)().map_err(ProtoError::Io)?;
            self.client = Some(GremlinClient::new(conn));
        }
        self.client.as_mut().expect("client just ensured").submit(steps)
    }
}

/// Graft the server's echoed `result.meta.serverTiming` phases into the
/// round-trip span as remote spans on the server track, placed relative to
/// the round trip's start.
fn absorb_server_timing(frame: &Json, rt_span: &SpanHandle, request_id: &str) {
    if !rt_span.is_active() {
        return;
    }
    let Some(st) = frame.get("result").and_then(|r| r.get("meta")).and_then(|m| m.get("serverTiming")) else {
        return;
    };
    if let Some(total) = st.get("total_ns").and_then(|t| t.as_u64()) {
        rt_span.attr("server_total_ns", total);
    }
    if let Some(spans) = st.get("spans").and_then(|s| s.as_arr()) {
        for s in spans {
            let name = s.get("name").and_then(|n| n.as_str()).unwrap_or("server");
            let off = s.get("offset_ns").and_then(|v| v.as_u64()).unwrap_or(0);
            let dur = s.get("dur_ns").and_then(|v| v.as_u64()).unwrap_or(0);
            rt_span.remote_span(name, off, dur, TRACK_SERVER, vec![("requestId".to_string(), request_id.to_string())]);
        }
    }
}

/// A channel collects results from one or more queries and feeds them to
/// the next query in the plan (the paper's `Union` implementation).
#[derive(Debug, Default, Clone)]
pub struct Channel {
    items: Vec<Json>,
}

impl Channel {
    pub fn new() -> Channel {
        Channel::default()
    }

    /// Collect results from a query.
    pub fn collect(&mut self, results: Vec<Json>) {
        self.items.extend(results);
    }

    /// Drain the channel's contents for the next query.
    pub fn drain(&mut self) -> Vec<Json> {
        std::mem::take(&mut self.items)
    }

    /// Distinct element ids currently in the channel.
    pub fn ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> =
            self.items.iter().filter_map(|j| j.get("id").and_then(|i| i.as_u64()).or_else(|| j.as_u64())).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    pub fn len(&self) -> usize {
        self.items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::PropertyGraph;
    use crate::server::{serve_in_process, GremlinServer};
    use std::collections::BTreeMap;
    use std::sync::Arc;

    fn shared() -> Arc<PropertyGraph> {
        let mut g = PropertyGraph::new();
        for i in 0..200 {
            g.add_vertex(i, "Node:VM", BTreeMap::new());
        }
        Arc::new(g)
    }

    #[test]
    fn client_assembles_partial_frames() {
        // 200 vertices → 4 frames of ≤64 at the protocol layer.
        let mut client = GremlinClient::new(serve_in_process(shared()));
        let results = client.submit(&[GStep::V(vec![]), GStep::Id]).unwrap();
        assert_eq!(results.len(), 200);
        assert_eq!(client.round_trips, 1);
    }

    #[test]
    fn server_error_surfaces_as_proto_error() {
        let mut client = GremlinClient::new(serve_in_process(shared()));
        let err = client.submit(&[GStep::InV]).unwrap_err();
        assert!(matches!(err, ProtoError::Server(_)));
        // The connection survives the error.
        let ok = client.submit(&[GStep::V(vec![0]), GStep::Id]).unwrap();
        assert_eq!(ok.len(), 1);
    }

    #[test]
    fn works_over_tcp_too() {
        let server = GremlinServer::start(shared()).unwrap();
        let mut client = GremlinClient::new(server.connect().unwrap());
        let results = client.submit(&[GStep::V(vec![]), GStep::Limit(5), GStep::Id]).unwrap();
        assert_eq!(results.len(), 5);
    }

    #[test]
    fn backoff_is_bounded_and_jittered() {
        let p = RetryPolicy::default();
        let mut prev_uncapped = std::time::Duration::ZERO;
        for attempt in 1..=8 {
            let d = p.backoff(attempt);
            assert!(d <= p.max_delay, "attempt {attempt}: {d:?} exceeds cap");
            // Jitter keeps at least half the nominal delay.
            let nominal = p.base_delay.saturating_mul(1 << (attempt - 1)).min(p.max_delay);
            assert!(d >= nominal / 2, "attempt {attempt}: {d:?} under-jittered");
            prev_uncapped = prev_uncapped.max(d);
        }
        // Deterministic per (seed, attempt).
        assert_eq!(p.backoff(3), p.backoff(3));
        let other = RetryPolicy { jitter_seed: 7, ..RetryPolicy::default() };
        assert!((1..=8).any(|a| other.backoff(a) != p.backoff(a)), "different seeds should jitter differently");
    }

    #[test]
    fn retrying_client_survives_connect_failures() {
        let g = shared();
        let mut failures_left = 2;
        let mut client = RetryingClient::new(
            move || {
                if failures_left > 0 {
                    failures_left -= 1;
                    return Err(std::io::Error::new(std::io::ErrorKind::ConnectionRefused, "flaky"));
                }
                Ok(serve_in_process(g.clone()))
            },
            RetryPolicy {
                max_attempts: 4,
                base_delay: std::time::Duration::from_millis(1),
                max_delay: std::time::Duration::from_millis(2),
                ..RetryPolicy::default()
            },
        );
        let results = client.submit(&[GStep::V(vec![]), GStep::Count]).unwrap();
        assert_eq!(results.len(), 1);
        assert_eq!(client.retries, 2);
    }

    #[test]
    fn retrying_client_gives_up_after_max_attempts() {
        let mut client: RetryingClient<crate::server::PipeEnd, _> = RetryingClient::new(
            || Err(std::io::Error::new(std::io::ErrorKind::ConnectionRefused, "down")),
            RetryPolicy {
                max_attempts: 3,
                base_delay: std::time::Duration::from_millis(1),
                max_delay: std::time::Duration::from_millis(1),
                ..RetryPolicy::default()
            },
        );
        let err = client.submit(&[GStep::V(vec![]), GStep::Count]).unwrap_err();
        assert!(matches!(err, ProtoError::Io(_)));
        assert_eq!(client.retries, 2); // 3 attempts = 2 retries
    }

    #[test]
    fn retrying_client_does_not_retry_evaluation_errors() {
        let g = shared();
        let mut client = RetryingClient::new(move || Ok(serve_in_process(g.clone())), RetryPolicy::default());
        // InV without V() is a server-side evaluation error: permanent.
        let err = client.submit(&[GStep::InV]).unwrap_err();
        assert!(matches!(err, ProtoError::Server(_)));
        assert_eq!(client.retries, 0);
    }

    #[test]
    fn channel_collects_and_feeds() {
        let mut ch = Channel::new();
        ch.collect(vec![Json::obj(vec![("id", Json::Num(3.0))]), Json::Num(1.0)]);
        ch.collect(vec![Json::Num(3.0)]);
        assert_eq!(ch.len(), 3);
        assert_eq!(ch.ids(), vec![1, 3]);
        assert_eq!(ch.drain().len(), 3);
        assert!(ch.is_empty());
    }
}
