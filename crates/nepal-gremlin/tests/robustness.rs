//! Failure injection for the wire protocol and parsers: malformed frames,
//! garbage bytes, truncated payloads, and adversarial JSON must produce
//! errors (or clean connection closes), never panics or hangs.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Arc;

use nepal_gremlin::{parse_json, parse_traversal, GStep, GremlinClient, GremlinServer, PropertyGraph};

fn server() -> GremlinServer {
    let mut g = PropertyGraph::new();
    g.add_vertex(1, "Node:VM", BTreeMap::new());
    GremlinServer::start(Arc::new(g)).unwrap()
}

#[test]
fn garbage_bytes_close_the_connection_without_killing_the_server() {
    let server = server();
    // Deterministic pseudo-random garbage.
    let mut state = 0x12345678u64;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state as u8
    };
    for _ in 0..5 {
        let mut conn = server.connect().unwrap();
        let junk: Vec<u8> = (0..512).map(|_| rng()).collect();
        let _ = conn.write_all(&junk);
        // Server drops this connection; a fresh client still works.
        let mut client = GremlinClient::new(server.connect().unwrap());
        let r = client.submit(&[GStep::V(vec![]), GStep::Count]).unwrap();
        assert_eq!(r.len(), 1);
    }
}

#[test]
fn truncated_frame_is_detected_by_the_reader() {
    use nepal_gremlin::Json;
    let msg = nepal_gremlin::protocol::request("r", Json::Arr(vec![]));
    let bytes = nepal_gremlin::protocol::encode_frame(&msg);
    for cut in [0, 1, 5, bytes.len() / 2, bytes.len() - 1] {
        let mut cursor = std::io::Cursor::new(bytes[..cut].to_vec());
        assert!(nepal_gremlin::protocol::read_frame(&mut cursor).is_err(), "cut at {cut} should fail");
    }
}

#[test]
fn oversized_frame_length_rejected() {
    // A frame claiming a multi-GB payload must be rejected before any
    // allocation attempt.
    let mut bytes = Vec::new();
    let mime = nepal_gremlin::MIME.as_bytes();
    bytes.push(mime.len() as u8);
    bytes.extend_from_slice(mime);
    bytes.extend_from_slice(&u32::MAX.to_be_bytes());
    bytes.extend_from_slice(b"xxxx");
    let mut cursor = std::io::Cursor::new(bytes);
    let err = nepal_gremlin::protocol::read_frame(&mut cursor).unwrap_err();
    assert!(err.to_string().contains("oversized"), "{err}");
}

#[test]
fn json_parser_never_panics_on_mutated_documents() {
    let base = r#"{"requestId":"r-1","status":{"code":206},"result":{"data":[1,2.5,"x",null,true,{"k":[]}]}}"#;
    let mut state = 0xDEADBEEFu64;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for _ in 0..2000 {
        let mut bytes = base.as_bytes().to_vec();
        let n_mutations = (rng() % 4 + 1) as usize;
        for _ in 0..n_mutations {
            let pos = (rng() as usize) % bytes.len();
            match rng() % 3 {
                0 => bytes[pos] = (rng() % 128) as u8,
                1 => {
                    bytes.remove(pos);
                }
                _ => bytes.insert(pos, (rng() % 128) as u8),
            }
            if bytes.is_empty() {
                break;
            }
        }
        if let Ok(text) = String::from_utf8(bytes) {
            let _ = parse_json(&text); // must not panic
        }
    }
}

#[test]
fn traversal_parser_never_panics_on_mutations() {
    let base = "g.V(1,2).hasLabel('Node:VM').has('k', gte(5)).repeat(__.outE('x').inV().simplePath()).times(3).path()";
    let mut state = 0xC0FFEEu64;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for _ in 0..2000 {
        let mut bytes = base.as_bytes().to_vec();
        for _ in 0..(rng() % 3 + 1) {
            let pos = (rng() as usize) % bytes.len();
            bytes[pos] = (32 + rng() % 95) as u8; // printable ascii
        }
        if let Ok(text) = String::from_utf8(bytes) {
            let _ = parse_traversal(&text); // must not panic
        }
    }
}

#[test]
fn malformed_json_payload_gets_a_597_error_frame_not_a_panic() {
    let server = server();
    let mut conn = server.connect().unwrap();
    // Valid framing (correct mime, correct length prefix), invalid JSON body.
    let mime = nepal_gremlin::MIME.as_bytes();
    let body = b"{this is not json";
    let mut bytes = Vec::new();
    bytes.push(mime.len() as u8);
    bytes.extend_from_slice(mime);
    bytes.extend_from_slice(&(body.len() as u32).to_be_bytes());
    bytes.extend_from_slice(body);
    conn.write_all(&bytes).unwrap();

    let frame = nepal_gremlin::protocol::read_frame(&mut conn).unwrap();
    let status = frame.get("status").unwrap();
    assert_eq!(status.get("code").unwrap().as_u64(), Some(597));
    let msg = status.get("message").unwrap().as_str().unwrap();
    assert!(msg.contains("malformed frame"), "{msg}");
    assert_eq!(server.stats.malformed_frames.load(std::sync::atomic::Ordering::Relaxed), 1);

    // The listener is still alive for new connections.
    let mut client = GremlinClient::new(server.connect().unwrap());
    assert_eq!(client.submit(&[GStep::V(vec![1]), GStep::Id]).unwrap().len(), 1);
}

#[test]
fn unsupported_op_gets_a_500_error_frame_not_a_panic() {
    use nepal_gremlin::Json;
    let server = server();
    let mut conn = server.connect().unwrap();
    let req = Json::obj(vec![
        ("requestId", Json::Str("r-bad".into())),
        ("op", Json::Str("definitely-not-an-op".into())),
        ("args", Json::obj(vec![("gremlin", Json::Arr(vec![]))])),
    ]);
    nepal_gremlin::protocol::write_frame(&mut conn, &req).unwrap();
    let frame = nepal_gremlin::protocol::read_frame(&mut conn).unwrap();
    assert_eq!(frame.get("status").unwrap().get("code").unwrap().as_u64(), Some(500));
    assert_eq!(frame.get("requestId").unwrap().as_str(), Some("r-bad"));
}

#[test]
fn server_survives_mid_request_disconnects() {
    let server = server();
    for _ in 0..3 {
        let mut conn = server.connect().unwrap();
        // Write only the first half of a valid frame, then hang up.
        use nepal_gremlin::Json;
        let msg = nepal_gremlin::protocol::request("r", Json::Arr(vec![]));
        let bytes = nepal_gremlin::protocol::encode_frame(&msg);
        conn.write_all(&bytes[..bytes.len() / 2]).unwrap();
        drop(conn);
    }
    let mut client = GremlinClient::new(server.connect().unwrap());
    assert_eq!(client.submit(&[GStep::V(vec![1]), GStep::Id]).unwrap().len(), 1);
}
