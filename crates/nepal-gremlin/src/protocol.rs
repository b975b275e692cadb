//! The wire protocol: GraphSON-lite request/response messages with
//! Gremlin-Server-style framing and streamed partial results.
//!
//! Frame layout (mirroring the TinkerPop driver handshake):
//! `u8 mime_len | mime bytes | u32-be payload_len | payload (JSON)`.
//!
//! Requests: `{"requestId": "…", "op": "bytecode", "processor":
//! "traversal", "args": {"gremlin": <bytecode>, "aliases": {"g": "g"}}}`.
//!
//! Responses stream in batches: status 206 (partial content) frames carry
//! `result.data` arrays, a final 200 (success) carries the last batch (or
//! 204 no-content), and 500 (server error) carries the message.

use std::io::{Read, Write};

use crate::json::{parse_json, Json};

/// The protocol mime type advertised in every frame.
pub const MIME: &str = "application/vnd.nepal-gremlin-v1.0+json";

/// Response status codes (the subset of Gremlin Server codes we use).
pub mod status {
    pub const SUCCESS: u32 = 200;
    pub const NO_CONTENT: u32 = 204;
    pub const PARTIAL_CONTENT: u32 = 206;
    /// The server shed this connection/request under overload. The frame's
    /// `status.attributes.retryAfterMs` hints when to retry.
    pub const OVERLOADED: u32 = 503;
    pub const SERVER_ERROR: u32 = 500;
    /// Request frame could not be decoded (Gremlin Server's request
    /// serialization error).
    pub const MALFORMED_REQUEST: u32 = 597;
    /// The server abandoned evaluation at a cancellation checkpoint
    /// (deadline passed, or the server is draining).
    pub const SERVER_TIMEOUT: u32 = 598;
}

/// Number of results per partial-content frame.
pub const BATCH_SIZE: usize = 64;

/// Protocol-level errors.
#[derive(Debug)]
pub enum ProtoError {
    Io(std::io::Error),
    BadFrame(String),
    Server(String),
    /// Status-503 shed: the server refused the request under overload and
    /// suggested a retry delay.
    Overloaded {
        message: String,
        retry_after_ms: u64,
    },
    /// Status-598: the server abandoned evaluation (deadline or drain).
    Timeout(String),
    /// The caller's own cancel token tripped between round trips: its
    /// deadline passed …
    DeadlineExceeded,
    /// … or it was cancelled explicitly.
    Cancelled,
}

impl ProtoError {
    /// Would retrying the same request later plausibly succeed? True for
    /// transport failures and explicit overload sheds; false for malformed
    /// frames and server-side evaluation errors.
    pub fn is_transient(&self) -> bool {
        matches!(self, ProtoError::Io(_) | ProtoError::Overloaded { .. })
    }
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "io error: {e}"),
            ProtoError::BadFrame(m) => write!(f, "bad frame: {m}"),
            ProtoError::Server(m) => write!(f, "server error: {m}"),
            ProtoError::Overloaded { message, retry_after_ms } => {
                write!(f, "server overloaded (retry after {retry_after_ms} ms): {message}")
            }
            ProtoError::Timeout(m) => write!(f, "server timeout: {m}"),
            ProtoError::DeadlineExceeded => write!(f, "deadline exceeded between round trips"),
            ProtoError::Cancelled => write!(f, "cancelled between round trips"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<std::io::Error> for ProtoError {
    fn from(e: std::io::Error) -> Self {
        ProtoError::Io(e)
    }
}

/// Encode one frame.
pub fn encode_frame(payload: &Json) -> Vec<u8> {
    let body = payload.to_string().into_bytes();
    let mut out = Vec::with_capacity(1 + MIME.len() + 4 + body.len());
    out.push(MIME.len() as u8);
    out.extend_from_slice(MIME.as_bytes());
    out.extend_from_slice(&(body.len() as u32).to_be_bytes());
    out.extend_from_slice(&body);
    out
}

/// Read one frame from a stream.
pub fn read_frame(r: &mut impl Read) -> Result<Json, ProtoError> {
    read_frame_counted(r).map(|(j, _)| j)
}

/// [`read_frame`] plus the number of wire bytes the frame occupied.
pub fn read_frame_counted(r: &mut impl Read) -> Result<(Json, u64), ProtoError> {
    let mut b1 = [0u8; 1];
    r.read_exact(&mut b1)?;
    let mime_len = b1[0] as usize;
    let mut mime = vec![0u8; mime_len];
    r.read_exact(&mut mime)?;
    if mime != MIME.as_bytes() {
        return Err(ProtoError::BadFrame(format!("unexpected mime `{}`", String::from_utf8_lossy(&mime))));
    }
    let mut len4 = [0u8; 4];
    r.read_exact(&mut len4)?;
    let len = u32::from_be_bytes(len4) as usize;
    if len > 64 << 20 {
        return Err(ProtoError::BadFrame(format!("oversized frame ({len} bytes)")));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    let wire_bytes = (1 + mime_len + 4 + len) as u64;
    let text = String::from_utf8(body).map_err(|e| ProtoError::BadFrame(e.to_string()))?;
    let json = parse_json(&text).map_err(|e| ProtoError::BadFrame(e.to_string()))?;
    Ok((json, wire_bytes))
}

/// An incremental frame decoder that tolerates read timeouts mid-frame.
///
/// [`read_frame`] uses `read_exact`, which discards already-consumed bytes
/// when a read times out — a stalled client would desynchronize the stream.
/// `FrameReader` buffers partial bytes across polls, so a serving loop can
/// interleave frame reads with drain/cancellation checks on a transport
/// with a read timeout, and a slow client that dribbles bytes still parses.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
}

impl FrameReader {
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// Bytes buffered toward the next frame (0 when between frames).
    pub fn pending_bytes(&self) -> usize {
        self.buf.len()
    }

    /// Pull bytes from `r` until one full frame is decoded.
    ///
    /// - `Ok(Some((json, wire_bytes)))` — a complete frame.
    /// - `Ok(None)` — the read would block / timed out; buffered partial
    ///   bytes are retained, call again later.
    /// - `Err(..)` — EOF, I/O failure, or an undecodable frame (the stream
    ///   is desynchronized past it; the caller should close).
    pub fn poll_frame(&mut self, r: &mut impl Read) -> Result<Option<(Json, u64)>, ProtoError> {
        loop {
            if let Some(need) = self.buffered_frame_len()? {
                if self.buf.len() >= need {
                    let frame: Vec<u8> = self.buf.drain(..need).collect();
                    let json = decode_frame_body(&frame)?;
                    return Ok(Some((json, need as u64)));
                }
            }
            let mut chunk = [0u8; 4096];
            match r.read(&mut chunk) {
                Ok(0) => {
                    return Err(ProtoError::Io(std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "peer closed")))
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut | std::io::ErrorKind::Interrupted
                    ) =>
                {
                    return Ok(None)
                }
                Err(e) => return Err(ProtoError::Io(e)),
            }
        }
    }

    /// Total wire length of the buffered frame, once enough header bytes
    /// are present to know it. Validates mime and size as soon as possible
    /// so garbage fails fast instead of stalling on a bogus length.
    fn buffered_frame_len(&self) -> Result<Option<usize>, ProtoError> {
        if self.buf.is_empty() {
            return Ok(None);
        }
        let mime_len = self.buf[0] as usize;
        if self.buf.len() > mime_len && self.buf[1..1 + mime_len] != *MIME.as_bytes() {
            return Err(ProtoError::BadFrame(format!(
                "unexpected mime `{}`",
                String::from_utf8_lossy(&self.buf[1..1 + mime_len])
            )));
        }
        if self.buf.len() < 1 + mime_len + 4 {
            return Ok(None);
        }
        let len4: [u8; 4] = self.buf[1 + mime_len..1 + mime_len + 4].try_into().unwrap();
        let len = u32::from_be_bytes(len4) as usize;
        if len > 64 << 20 {
            return Err(ProtoError::BadFrame(format!("oversized frame ({len} bytes)")));
        }
        Ok(Some(1 + mime_len + 4 + len))
    }
}

/// Decode the JSON payload of one complete wire frame.
fn decode_frame_body(frame: &[u8]) -> Result<Json, ProtoError> {
    let mime_len = frame[0] as usize;
    let body = &frame[1 + mime_len + 4..];
    let text = std::str::from_utf8(body).map_err(|e| ProtoError::BadFrame(e.to_string()))?;
    parse_json(text).map_err(|e| ProtoError::BadFrame(e.to_string()))
}

/// Write one frame to a stream.
pub fn write_frame(w: &mut impl Write, payload: &Json) -> Result<(), ProtoError> {
    write_frame_counted(w, payload).map(|_| ())
}

/// [`write_frame`] plus the number of wire bytes written.
pub fn write_frame_counted(w: &mut impl Write, payload: &Json) -> Result<u64, ProtoError> {
    let bytes = encode_frame(payload);
    w.write_all(&bytes)?;
    w.flush()?;
    Ok(bytes.len() as u64)
}

/// Build a bytecode-submission request message.
pub fn request(request_id: &str, bytecode: Json) -> Json {
    Json::obj(vec![
        ("requestId", Json::Str(request_id.to_string())),
        ("op", Json::Str("bytecode".into())),
        ("processor", Json::Str("traversal".into())),
        ("args", Json::obj(vec![("gremlin", bytecode), ("aliases", Json::obj(vec![("g", Json::Str("g".into()))]))])),
    ])
}

/// Build one response frame.
pub fn response(request_id: &str, code: u32, message: &str, data: Vec<Json>) -> Json {
    Json::obj(vec![
        ("requestId", Json::Str(request_id.to_string())),
        ("status", Json::obj(vec![("code", Json::Num(code as f64)), ("message", Json::Str(message.to_string()))])),
        ("result", Json::obj(vec![("data", Json::Arr(data)), ("meta", Json::obj(vec![]))])),
    ])
}

/// Build an overload-shed response: status 503 with a `retryAfterMs` hint
/// in the status attributes (the framed analogue of HTTP `Retry-After`).
pub fn overload_response(request_id: &str, message: &str, retry_after_ms: u64) -> Json {
    Json::obj(vec![
        ("requestId", Json::Str(request_id.to_string())),
        (
            "status",
            Json::obj(vec![
                ("code", Json::Num(status::OVERLOADED as f64)),
                ("message", Json::Str(message.to_string())),
                ("attributes", Json::obj(vec![("retryAfterMs", Json::Num(retry_after_ms as f64))])),
            ]),
        ),
        ("result", Json::obj(vec![("data", Json::Arr(Vec::new())), ("meta", Json::obj(vec![]))])),
    ])
}

/// Split results into response frames: 0+ partials then a final frame.
pub fn batch_responses(request_id: &str, results: Vec<Json>) -> Vec<Json> {
    if results.is_empty() {
        return vec![response(request_id, status::NO_CONTENT, "", Vec::new())];
    }
    let mut frames = Vec::new();
    let mut iter = results.into_iter().peekable();
    loop {
        let mut batch = Vec::with_capacity(BATCH_SIZE);
        while batch.len() < BATCH_SIZE {
            match iter.next() {
                Some(x) => batch.push(x),
                None => break,
            }
        }
        let last = iter.peek().is_none();
        let code = if last { status::SUCCESS } else { status::PARTIAL_CONTENT };
        frames.push(response(request_id, code, "", batch));
        if last {
            break;
        }
    }
    frames
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip() {
        let msg = request("r-1", Json::Arr(vec![]));
        let bytes = encode_frame(&msg);
        let mut cursor = std::io::Cursor::new(bytes);
        let back = read_frame(&mut cursor).unwrap();
        assert_eq!(back.get("requestId").unwrap().as_str(), Some("r-1"));
        assert_eq!(back.get("op").unwrap().as_str(), Some("bytecode"));
    }

    #[test]
    fn wrong_mime_rejected() {
        let msg = request("r-1", Json::Arr(vec![]));
        let mut bytes = encode_frame(&msg);
        bytes[1] = b'X'; // corrupt the mime string
        let mut cursor = std::io::Cursor::new(bytes);
        assert!(matches!(read_frame(&mut cursor), Err(ProtoError::BadFrame(_))));
    }

    #[test]
    fn truncated_frame_is_io_error() {
        let msg = request("r-1", Json::Arr(vec![]));
        let bytes = encode_frame(&msg);
        let mut cursor = std::io::Cursor::new(&bytes[..bytes.len() - 3]);
        assert!(matches!(read_frame(&mut cursor), Err(ProtoError::Io(_))));
    }

    #[test]
    fn batching_produces_partials_then_final() {
        let results: Vec<Json> = (0..150).map(|i| Json::Num(i as f64)).collect();
        let frames = batch_responses("r", results);
        assert_eq!(frames.len(), 3);
        let code = |f: &Json| f.get("status").unwrap().get("code").unwrap().as_u64().unwrap();
        assert_eq!(code(&frames[0]), 206);
        assert_eq!(code(&frames[1]), 206);
        assert_eq!(code(&frames[2]), 200);
        let n: usize =
            frames.iter().map(|f| f.get("result").unwrap().get("data").unwrap().as_arr().unwrap().len()).sum();
        assert_eq!(n, 150);
    }

    #[test]
    fn empty_results_are_no_content() {
        let frames = batch_responses("r", Vec::new());
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].get("status").unwrap().get("code").unwrap().as_u64(), Some(204));
    }

    /// A reader that yields `data` in fixed-size dribbles with a
    /// WouldBlock between each — a stalled/slow client stand-in.
    struct Dribble {
        data: Vec<u8>,
        pos: usize,
        chunk: usize,
        ready: bool,
    }

    impl std::io::Read for Dribble {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            if !self.ready {
                self.ready = true;
                return Err(std::io::Error::new(std::io::ErrorKind::WouldBlock, "stall"));
            }
            self.ready = false;
            let n = self.chunk.min(self.data.len() - self.pos).min(out.len());
            if n == 0 {
                return Ok(0); // EOF
            }
            out[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn frame_reader_survives_mid_frame_stalls() {
        let msg = request("slow-1", Json::Arr(vec![]));
        let bytes = encode_frame(&msg);
        let total = bytes.len() as u64;
        let mut r = Dribble { data: bytes, pos: 0, chunk: 3, ready: false };
        let mut reader = FrameReader::new();
        let mut polls = 0u32;
        loop {
            polls += 1;
            assert!(polls < 10_000, "reader failed to make progress");
            match reader.poll_frame(&mut r).unwrap() {
                Some((json, n)) => {
                    assert_eq!(json.get("requestId").unwrap().as_str(), Some("slow-1"));
                    assert_eq!(n, total);
                    break;
                }
                None => continue, // stalled mid-frame; partial bytes retained
            }
        }
        assert!(polls > 2, "test should have exercised at least one stall");
        assert_eq!(reader.pending_bytes(), 0);
    }

    #[test]
    fn frame_reader_rejects_bad_mime_before_full_frame() {
        let msg = request("r", Json::Arr(vec![]));
        let mut bytes = encode_frame(&msg);
        bytes[1] = b'X';
        // Only the header is available — the bad mime must fail fast
        // rather than waiting for the (never-arriving) body.
        let mut cursor = std::io::Cursor::new(&bytes[..1 + MIME.len()]);
        let mut reader = FrameReader::new();
        assert!(matches!(reader.poll_frame(&mut cursor), Err(ProtoError::BadFrame(_))));
    }

    #[test]
    fn frame_reader_eof_mid_frame_is_io_error() {
        let msg = request("r", Json::Arr(vec![]));
        let bytes = encode_frame(&msg);
        let mut cursor = std::io::Cursor::new(&bytes[..bytes.len() - 2]);
        let mut reader = FrameReader::new();
        assert!(matches!(reader.poll_frame(&mut cursor), Err(ProtoError::Io(_))));
    }

    #[test]
    fn frame_reader_decodes_back_to_back_frames() {
        let a = encode_frame(&request("a", Json::Arr(vec![])));
        let b = encode_frame(&request("b", Json::Arr(vec![])));
        let mut all = a.clone();
        all.extend_from_slice(&b);
        let mut cursor = std::io::Cursor::new(all);
        let mut reader = FrameReader::new();
        let (f1, _) = reader.poll_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(f1.get("requestId").unwrap().as_str(), Some("a"));
        let (f2, _) = reader.poll_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(f2.get("requestId").unwrap().as_str(), Some("b"));
    }

    #[test]
    fn overload_frame_carries_retry_hint() {
        let f = overload_response("r9", "queue full", 250);
        assert_eq!(f.get("status").unwrap().get("code").unwrap().as_u64(), Some(503));
        let retry = f.get("status").unwrap().get("attributes").unwrap().get("retryAfterMs").unwrap().as_u64();
        assert_eq!(retry, Some(250));
    }

    #[test]
    fn exact_batch_boundary() {
        let results: Vec<Json> = (0..BATCH_SIZE).map(|i| Json::Num(i as f64)).collect();
        let frames = batch_responses("r", results);
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].get("status").unwrap().get("code").unwrap().as_u64(), Some(200));
    }
}
