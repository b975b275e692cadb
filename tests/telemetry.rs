//! End-to-end observability acceptance tests: hierarchical traces through
//! the full engine, cross-wire client/server correlation over a real TCP
//! Gremlin server, Chrome trace-event export validity, and the telemetry
//! HTTP endpoint over a real socket.

use std::io::{Read, Write};
use std::sync::Arc;

use nepal::core::{engine_over, BackendRegistry, Engine, GremlinBackend, NativeBackend, StandardSlos};
use nepal::graph::{resource_summary, StoreGauges, TemporalGraph};
use nepal::gremlin::{parse_json, property_graph_from, GremlinClient, GremlinServer, ServeConfig};
use nepal::obs::{HistoryRing, SloRule, Telemetry, TelemetryServer, TRACK_SERVER};
use nepal::rpe::{parse_rpe, plan_rpe, GraphEstimator};
use nepal::schema::dsl::parse_schema;
use nepal::schema::Value;

const QUERY: &str = "Retrieve P From PATHS P Where P MATCHES VM()->HostedOn()->Host(host_id=7)";

fn demo_graph() -> Arc<TemporalGraph> {
    let schema = Arc::new(
        parse_schema(
            r#"
            node VM { vm_id: int unique }
            node Host { host_id: int unique }
            edge HostedOn { }
            allow HostedOn (VM -> Host)
            "#,
        )
        .unwrap(),
    );
    let vm_class = schema.class_by_name("VM").unwrap();
    let host_class = schema.class_by_name("Host").unwrap();
    let hosted = schema.class_by_name("HostedOn").unwrap();
    let mut g = TemporalGraph::new(schema);
    let host = g.insert_node(host_class, vec![Value::Int(7)], 0).unwrap();
    for i in 0..4 {
        let vm = g.insert_node(vm_class, vec![Value::Int(50 + i)], 0).unwrap();
        g.insert_edge(hosted, vm, host, vec![], 0).unwrap();
    }
    Arc::new(g)
}

/// Chrome trace-event "X" events must parse as JSON and be well nested:
/// every child span's interval lies within its parent's.
#[test]
fn chrome_export_is_valid_json_with_well_nested_spans() {
    let mut engine = engine_over(demo_graph());
    engine.tracer.set_enabled(true);
    engine.tracer.set_sample_every(1);
    let rows = engine.query(QUERY).unwrap().rows.len();
    assert_eq!(rows, 4);

    let json = engine.tracer.export_latest_chrome().expect("a trace was recorded");
    let doc = parse_json(&json).expect("export is valid JSON");
    let events = doc.get("traceEvents").and_then(|e| e.as_arr()).expect("traceEvents array");

    // Collect complete events keyed by span id.
    let mut by_id = std::collections::BTreeMap::new();
    for ev in events {
        if ev.get("ph").and_then(|p| p.as_str()) != Some("X") {
            continue;
        }
        let id = ev.get("args").and_then(|a| a.get("span_id")).and_then(|v| v.as_u64()).expect("span_id");
        let parent = ev.get("args").and_then(|a| a.get("parent_id")).and_then(|v| v.as_u64()).expect("parent_id");
        let ts = ev.get("ts").and_then(|v| v.as_f64()).expect("ts");
        let dur = ev.get("dur").and_then(|v| v.as_f64()).expect("dur");
        by_id.insert(id, (parent, ts, dur));
    }
    assert!(by_id.len() >= 5, "expected a span tree, got {} spans", by_id.len());

    let names: Vec<&str> = events.iter().filter_map(|e| e.get("name").and_then(|n| n.as_str())).collect();
    for phase in ["parse", "plan", "execute", "join", "head"] {
        assert!(names.contains(&phase), "missing {phase} span in {names:?}");
    }

    let mut roots = 0;
    for (id, (parent, ts, dur)) in &by_id {
        if *parent == 0 {
            roots += 1;
            continue;
        }
        let (_, pts, pdur) = by_id.get(parent).unwrap_or_else(|| panic!("span {id} has unknown parent {parent}"));
        // 3-decimal µs rounding in the exporter → allow a 1ns slop.
        assert!(*ts + 0.002 >= *pts, "span {id} starts before parent {parent}");
        assert!(ts + dur <= pts + pdur + 0.002, "span {id} ends after parent {parent}");
    }
    assert_eq!(roots, 1, "exactly one root span");
}

/// Acceptance: a query through the Gremlin backend against a real TCP
/// server yields ONE trace holding both the client round-trip spans and
/// the server-side request spans (correlated via the requestId echo), and
/// that trace exports as Chrome JSON with distinct client/server threads.
#[test]
fn gremlin_query_produces_single_cross_wire_trace() {
    let graph = demo_graph();
    let registry = BackendRegistry::new("native", Box::new(NativeBackend::new(graph.clone())));
    let mut engine = Engine::new(registry);
    engine.tracer.set_enabled(true);
    engine.tracer.set_sample_every(1);

    let pg = Arc::new(property_graph_from(&graph));
    let server =
        GremlinServer::start_cfg(pg, "127.0.0.1:0", Some(engine.tracer.clone()), ServeConfig::default()).unwrap();
    let client = GremlinClient::new(server.connect().unwrap());
    engine.registry.add("gremlin", Box::new(GremlinBackend::new(client, graph.schema().clone())));

    let q = QUERY.replace("From PATHS P", "From PATHS P USING gremlin");
    let rows = engine.query(&q).unwrap().rows.len();
    assert_eq!(rows, 4);

    // Find the engine's trace for the query (the ring also holds the
    // server's own gremlin:request traces).
    let summaries = engine.tracer.summaries();
    let qt = summaries.iter().find(|s| s.name.contains("USING gremlin")).expect("query trace recorded");
    let trace = engine.tracer.get(qt.id).unwrap();

    let round_trips: Vec<_> = trace.spans.iter().filter(|s| s.name == "gremlin:round-trip").collect();
    assert!(!round_trips.is_empty(), "client round-trip spans in the query trace");
    let server_spans: Vec<_> = trace.spans.iter().filter(|s| s.track == TRACK_SERVER).collect();
    assert!(!server_spans.is_empty(), "server-side spans grafted into the same trace");
    assert!(
        server_spans.iter().any(|s| s.name == "evaluate"),
        "server evaluate phase present: {:?}",
        server_spans.iter().map(|s| &s.name).collect::<Vec<_>>()
    );
    // Correlation: each grafted server span carries the request id of a
    // client round trip.
    for s in &server_spans {
        let rid = s.attrs.iter().find(|(k, _)| k == "requestId").map(|(_, v)| v.as_str()).expect("requestId attr");
        assert!(
            round_trips.iter().any(|rt| rt.attrs.iter().any(|(k, v)| k == "request_id" && v == rid)),
            "server span {} correlates with a client round trip",
            s.name
        );
    }

    // The server also recorded its own request trace.
    assert!(summaries.iter().any(|s| s.name == "gremlin:request"), "server-side request trace in the ring");

    // Chrome export shows both sides as separate named threads.
    let json = engine.tracer.export_chrome(qt.id).unwrap();
    let doc = parse_json(&json).unwrap();
    let thread_names: Vec<&str> = doc
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .unwrap()
        .iter()
        .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some("thread_name"))
        .filter_map(|e| e.get("args").and_then(|a| a.get("name")).and_then(|n| n.as_str()))
        .collect();
    assert!(thread_names.contains(&"client"), "client thread in {thread_names:?}");
    assert!(thread_names.contains(&"server"), "server thread in {thread_names:?}");
}

fn http_get(addr: std::net::SocketAddr, path: &str) -> (u16, String) {
    let mut s = std::net::TcpStream::connect(addr).unwrap();
    write!(s, "GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n").unwrap();
    let mut resp = String::new();
    s.read_to_string(&mut resp).unwrap();
    let status: u16 = resp.split_whitespace().nth(1).unwrap().parse().unwrap();
    let body = resp.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    (status, body)
}

/// The telemetry endpoint answers real HTTP over a real socket.
#[test]
fn telemetry_endpoint_serves_metrics_and_health_over_socket() {
    let mut engine = engine_over(demo_graph());
    engine.tracer.set_enabled(true);
    engine.tracer.set_sample_every(1);
    engine.query(QUERY).unwrap();

    let telemetry = Arc::new(Telemetry::new(engine.metrics.clone(), engine.tracer.clone()));
    telemetry.add_health("store", || Ok("ok".into()));
    let server = TelemetryServer::start(telemetry, "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    let (status, body) = http_get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(body.contains("nepal_queries_total 1"), "{body}");
    assert!(body.contains("nepal_query_duration_ns_p50"), "quantiles exported: {body}");

    let (status, body) = http_get(addr, "/healthz");
    assert_eq!(status, 200);
    assert!(body.contains("\"status\":\"ok\""), "{body}");
    assert!(body.contains("\"store\""), "{body}");

    let (status, body) = http_get(addr, "/metrics.json");
    assert_eq!(status, 200);
    assert!(parse_json(&body).is_ok(), "metrics.json parses: {body}");

    // The trace ring is reachable through the endpoint too.
    let id = engine.tracer.latest_id().unwrap();
    let (status, body) = http_get(addr, &format!("/traces/{id}"));
    assert_eq!(status, 200);
    assert!(body.contains("traceEvents"), "{body}");

    let (status, _) = http_get(addr, "/nope");
    assert_eq!(status, 404);
}

/// Satellite: `/metrics` must be a conformant Prometheus 0.0.4 exposition
/// — versioned Content-Type, one HELP/TYPE per family, `_total` counter
/// names — and stay intact under many concurrent scrapes.
#[test]
fn metrics_exposition_survives_concurrent_scrapes() {
    let mut engine = engine_over(demo_graph());
    for _ in 0..3 {
        engine.query(QUERY).unwrap();
    }
    let telemetry = Arc::new(Telemetry::new(engine.metrics.clone(), engine.tracer.clone()));
    let server = TelemetryServer::start(telemetry, "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    // Content-Type conformance on a raw response.
    let mut s = std::net::TcpStream::connect(addr).unwrap();
    write!(s, "GET /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n").unwrap();
    let mut resp = String::new();
    s.read_to_string(&mut resp).unwrap();
    assert!(resp.contains("Content-Type: text/plain; version=0.0.4"), "{resp}");

    // 8 scraping threads, 5 scrapes each; every body must be complete and
    // internally consistent (every sample's family has HELP and TYPE).
    let workers: Vec<_> = (0..8)
        .map(|_| {
            std::thread::spawn(move || {
                for _ in 0..5 {
                    let (status, body) = http_get(addr, "/metrics");
                    assert_eq!(status, 200);
                    assert!(body.contains("nepal_queries_total 3"), "truncated body: {body}");
                    for line in body.lines() {
                        if line.is_empty() || line.starts_with('#') {
                            continue;
                        }
                        let name = line.split(['{', ' ']).next().unwrap();
                        let family = name
                            .strip_suffix("_bucket")
                            .or_else(|| name.strip_suffix("_sum"))
                            .or_else(|| name.strip_suffix("_count"))
                            .unwrap_or(name);
                        assert!(
                            body.contains(&format!("# HELP {family} ")) || body.contains(&format!("# HELP {name} ")),
                            "no HELP for {name}"
                        );
                        assert!(
                            body.contains(&format!("# TYPE {family} ")) || body.contains(&format!("# TYPE {name} ")),
                            "no TYPE for {name}"
                        );
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
}

/// A client that sends half a request and stalls must not block other
/// scrapers (thread-per-connection with a read timeout).
#[test]
fn slow_client_does_not_starve_other_scrapers() {
    let engine = engine_over(demo_graph());
    let telemetry = Arc::new(Telemetry::new(engine.metrics.clone(), engine.tracer.clone()));
    let server = TelemetryServer::start(telemetry, "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    // Hold a half-written request open on one connection…
    let mut stalled = std::net::TcpStream::connect(addr).unwrap();
    stalled.write_all(b"GET /metr").unwrap();
    // …and a second one that connects but never writes at all.
    let _silent = std::net::TcpStream::connect(addr).unwrap();

    let t0 = std::time::Instant::now();
    let (status, body) = http_get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(body.contains("nepal_"), "{body}");
    assert!(t0.elapsed() < std::time::Duration::from_millis(1500), "scrape blocked behind stalled clients");
}

/// Workload introspection end to end: engine queries land in the shared
/// statement table, `/top.json` attributes per-fingerprint cost,
/// `/history.json` serves the ticked ring, the statement gauges ride the
/// scrape, and `?deep=1` is the only path that walks the store.
#[test]
fn top_and_history_routes_attribute_workload_over_socket() {
    let graph = demo_graph();
    let mut engine = engine_over(graph.clone());
    let stmt = engine.enable_stmt(32);
    let gauges = Arc::new(StoreGauges::register(&engine.metrics));

    let telemetry = Arc::new(Telemetry::new(engine.metrics.clone(), engine.tracer.clone()));
    telemetry.set_stmt(stmt);
    let history = Arc::new(HistoryRing::new(std::time::Duration::from_millis(0), 16));
    telemetry.set_history(history);
    {
        let (gauges, graph) = (gauges.clone(), graph.clone());
        telemetry.add_refresher(move || gauges.refresh(&graph));
    }
    {
        let (gauges, graph) = (gauges, graph);
        telemetry.add_deep_refresher(move || {
            gauges.refresh_deep(&graph);
        });
    }

    for _ in 0..3 {
        engine.query(QUERY).unwrap();
    }
    // Resolution clamps to 1ms, so back-to-back ticks in the same
    // millisecond are (correctly) rejected — tick until two are admitted.
    let mut admitted = 0;
    while admitted < 2 {
        if telemetry.tick_history() {
            admitted += 1;
        } else {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    let server = TelemetryServer::start(telemetry, "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    let (status, body) = http_get(addr, "/top.json");
    assert_eq!(status, 200);
    let doc = parse_json(&body).expect("top.json parses");
    let stmts = doc.get("statements").and_then(|s| s.as_arr()).expect("statements array");
    assert_eq!(stmts.len(), 1, "one fingerprint for the repeated query: {body}");
    let top = &stmts[0];
    assert_eq!(top.get("calls").and_then(|c| c.as_u64()), Some(3));
    assert!(top.get("rows").and_then(|r| r.as_u64()).unwrap_or(0) > 0, "{body}");
    assert!(top.get("bytes_scanned").and_then(|b| b.as_u64()).unwrap_or(0) > 0, "{body}");
    assert!(top.get("fingerprint").and_then(|f| f.as_str()).is_some(), "{body}");

    let (status, body) = http_get(addr, "/history.json");
    assert_eq!(status, 200);
    let doc = parse_json(&body).expect("history.json parses");
    let snaps = doc.get("snapshots").and_then(|s| s.as_arr()).expect("snapshots array");
    assert!(snaps.len() >= 2, "two ticks -> two snapshots: {body}");

    // Cheap scrape carries stmt gauges and live store totals, but not the
    // deep-walk-only chain distribution; ?deep=1 adds it.
    let (_, body) = http_get(addr, "/metrics");
    assert!(body.contains("nepal_stmt_calls 3"), "{body}");
    assert!(body.contains("nepal_store_total_bytes"), "{body}");
    assert!(!body.contains("nepal_store_chain_entities"), "deep families must wait for ?deep=1: {body}");
    let (_, body) = http_get(addr, "/metrics?deep=1");
    assert!(body.contains("nepal_store_chain_entities"), "{body}");

    let (status, body) = http_get(addr, "/top.json?sort=calls");
    assert_eq!(status, 200);
    assert!(body.contains("\"sort\":\"calls\""), "{body}");
    assert!(body.contains("\"calls\":3"), "{body}");
}

/// Acceptance: induced overload (an impossible latency SLO) flips
/// `/healthz` to 503 and `/alerts.json` to firing; once the breach window
/// drains, both recover.
#[test]
fn induced_overload_flips_healthz_and_alerts_then_resolves() {
    let graph = demo_graph();
    let mut engine = engine_over(graph.clone());
    let telemetry = Arc::new(Telemetry::new(engine.metrics.clone(), engine.tracer.clone()));

    // Standard rules (healthy thresholds) plus one impossible latency rule.
    let slo = engine.install_standard_slos(&StandardSlos::default());
    slo.add(SloRule::latency("induced-overload", "nepal_query_duration_ns", 0.99, 1));
    telemetry.set_slo(slo.clone());
    let gauges = Arc::new(StoreGauges::register(&engine.metrics));
    {
        let (gauges, graph) = (gauges.clone(), graph.clone());
        telemetry.add_refresher(move || {
            gauges.refresh_deep(&graph);
        });
    }
    {
        let graph = graph.clone();
        telemetry.set_resources(move || resource_summary(&graph.memory_report()));
    }
    let server = TelemetryServer::start(telemetry, "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    // Before any query: empty window, healthy.
    let (status, body) = http_get(addr, "/healthz");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"store\""), "deep healthz carries store watermarks: {body}");

    // Breach: any real query's p99 exceeds 1ns. Every endpoint hit
    // evaluates (and thereby drains) the window, so re-breach before each
    // probe of the firing phase.
    engine.query(QUERY).unwrap();
    let (status, body) = http_get(addr, "/healthz");
    assert_eq!(status, 503, "overload must flip healthz: {body}");
    assert!(body.contains("\"status\":\"unhealthy\""), "{body}");
    let rule_state = |body: &str| {
        let doc = parse_json(body).expect("alerts.json parses");
        let rules = doc.get("rules").and_then(|r| r.as_arr()).expect("rules array");
        let rule = rules.iter().find(|r| r.get("name").and_then(|n| n.as_str()) == Some("induced-overload"));
        rule.and_then(|r| r.get("state").and_then(|s| s.as_str()).map(str::to_string))
    };
    engine.query(QUERY).unwrap();
    let (status, body) = http_get(addr, "/alerts.json");
    assert_eq!(status, 200);
    assert_eq!(rule_state(&body).as_deref(), Some("firing"), "{body}");
    engine.query(QUERY).unwrap();
    let (_, json) = http_get(addr, "/alerts.json");
    assert!(json.contains("\"firing\":1"), "{json}");

    // No new observations: the next evaluation sees an empty window and
    // the alert resolves; healthz recovers.
    let (status, body) = http_get(addr, "/healthz");
    assert_eq!(status, 200, "alert must resolve once the window drains: {body}");
    let (_, body) = http_get(addr, "/alerts.json");
    assert!(body.contains("\"firing\":0"), "{body}");
    assert_ne!(rule_state(&body).as_deref(), Some("firing"), "{body}");

    // The dashboard renders through all of this.
    let (status, body) = http_get(addr, "/dashboard");
    assert_eq!(status, 200);
    assert!(body.contains("<html") || body.contains("<!doctype"), "{body}");
    assert!(body.contains("induced-overload"), "dashboard lists alert rules: {body}");
}

/// Quotes, a backslash, a tab, a raw control character and non-ASCII: every
/// JSON surface must escape them and give them back unchanged.
const HOSTILE: &str = "q\"b\\s\tt\u{1}é☃";

/// Byte offset of a raw control character inside a JSON string literal, if
/// any. Such a byte makes the document invalid JSON even where a lenient
/// parser accepts it.
fn raw_control_in_string(body: &str) -> Option<usize> {
    let (mut in_str, mut escaped) = (false, false);
    for (i, b) in body.bytes().enumerate() {
        if !in_str {
            in_str = b == b'"';
        } else if escaped {
            escaped = false;
        } else if b == b'\\' {
            escaped = true;
        } else if b == b'"' {
            in_str = false;
        } else if b < 0x20 {
            return Some(i);
        }
    }
    None
}

/// Parse a JSON body after checking that no string in it carries a raw
/// control character.
fn strict_parse(what: &str, body: &str) -> nepal::gremlin::Json {
    assert_eq!(raw_control_in_string(body), None, "{what}: raw control character in a string: {body:?}");
    parse_json(body).unwrap_or_else(|e| panic!("{what}: {e}: {body:?}"))
}

fn str_at<'a>(j: &'a nepal::gremlin::Json, path: &[&str]) -> Option<&'a str> {
    path.iter().try_fold(j, |j, k| j.get(k))?.as_str()
}

/// Hostile strings in a query text, a metric label value, a health-check
/// detail, an alert name, a flight label and the build/drain facts: every
/// JSON route and the snapshot bundle stay valid JSON and return each
/// string unchanged at its key.
#[test]
fn json_surfaces_survive_hostile_strings() {
    use nepal::obs::{FlightKind, FlightRecorder, Json, QueryLog, SnapshotConfig};

    let schema = Arc::new(
        parse_schema(
            r#"
            node VM { vm_id: int unique, name: string }
            node Host { host_id: int unique }
            edge HostedOn { }
            allow HostedOn (VM -> Host)
            "#,
        )
        .unwrap(),
    );
    let mut g = TemporalGraph::new(schema.clone());
    let host = g.insert_node(schema.class_by_name("Host").unwrap(), vec![Value::Int(7)], 0).unwrap();
    let vm =
        g.insert_node(schema.class_by_name("VM").unwrap(), vec![Value::Int(1), Value::Str("vm-1".into())], 0).unwrap();
    g.insert_edge(schema.class_by_name("HostedOn").unwrap(), vm, host, vec![], 0).unwrap();
    let query = format!("Retrieve P From PATHS P Where P MATCHES VM(name='{HOSTILE}')->HostedOn()->Host(host_id=7)");

    let dir = std::env::temp_dir().join(format!("nepal-hostile-json-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut engine = engine_over(Arc::new(g));
    engine.tracer.set_enabled(true);
    engine.tracer.set_sample_every(1);
    let stmt = engine.enable_stmt(8);
    engine.enable_qlog(dir.join("qlog.jsonl"), 1 << 20, 1).unwrap();
    engine.query(&query).unwrap();
    let series = format!("nepal_hostile_total{{who=\"{}\"}}", HOSTILE.replace('\\', "\\\\").replace('"', "\\\""));
    engine.metrics.counter_labeled("nepal_hostile_total", &[("who", HOSTILE)], "hostile label value").inc();

    let telemetry = Telemetry::new(engine.metrics.clone(), engine.tracer.clone());
    telemetry.set_qlog(engine.feedback.clone(), engine.qlog.clone());
    telemetry.set_stmt(stmt);
    let history = Arc::new(HistoryRing::new(std::time::Duration::from_millis(1), 8));
    history.tick_at(1, &engine.metrics);
    telemetry.set_history(history);
    telemetry.add_health("store", || Ok(HOSTILE.to_string()));
    let slo = Arc::new(nepal::obs::SloEngine::new(engine.metrics.clone()));
    slo.add(SloRule::gauge_max(HOSTILE, "nepal_missing_gauge", 1));
    telemetry.set_slo(slo);
    let flight = FlightRecorder::new(16);
    flight.handle("main").emit(FlightKind::AlertTransition, 0, 2, 0, HOSTILE);
    telemetry.set_flight(flight);
    telemetry.set_build_info(vec![("note".into(), HOSTILE.into())]);
    telemetry.set_drain_json(Json::obj([("note", HOSTILE.into())]));
    telemetry.set_snapshots(SnapshotConfig { dir: dir.join("snapshots"), keep: 2, ..Default::default() });

    let get = |path: &str| {
        let (status, _, body) = telemetry.handle(path);
        assert_eq!(status, 200, "{path}: {body}");
        strict_parse(path, &body)
    };
    let find = |arr: Option<&[Json]>, path: &[&str], want: &str| {
        arr.unwrap_or(&[]).iter().any(|item| str_at(item, path) == Some(want))
    };

    // The query text: qlog (file and route), /top.json, traces.
    let line = std::fs::read_to_string(dir.join("qlog.jsonl")).unwrap();
    assert_eq!(str_at(&strict_parse("qlog line", line.trim_end()), &["query"]), Some(query.as_str()));
    assert_eq!(QueryLog::read_records(dir.join("qlog.jsonl")).unwrap()[0].query, query);
    let qlog = get("/qlog.json");
    assert!(find(qlog.get("fingerprints").and_then(Json::as_arr), &["example"], &query), "{qlog}");
    let top = get("/top.json");
    assert!(find(top.get("statements").and_then(Json::as_arr), &["query"], &query), "{top}");
    assert!(find(get("/traces").as_arr(), &["name"], &query));
    let id = engine.tracer.latest_id().unwrap();
    for path in ["/traces/latest".to_string(), format!("/traces/{id}")] {
        assert_eq!(str_at(&get(&path), &["otherData", "trace_name"]), Some(query.as_str()), "{path}");
    }

    // The metric label value: /metrics.json and /history.json.
    assert_eq!(get("/metrics.json").get(&series).and_then(Json::as_u64), Some(1));
    let history = get("/history.json");
    let snaps = history.get("snapshots").and_then(Json::as_arr).unwrap();
    assert_eq!(snaps[0].get("values").and_then(|v| v.get(&series)).and_then(Json::as_f64), Some(1.0));

    // The health-check detail and the alert name.
    let health = get("/healthz");
    assert_eq!(str_at(&health, &["checks", "store", "detail"]), Some(HOSTILE));
    assert!(find(health.get("alerts").and_then(|a| a.get("rules")).and_then(Json::as_arr), &["name"], HOSTILE));
    assert!(find(get("/alerts.json").get("rules").and_then(Json::as_arr), &["name"], HOSTILE));

    // The flight label, the drain report and the bundle listing.
    assert!(find(get("/flight").get("events").and_then(Json::as_arr), &["label"], HOSTILE));
    assert_eq!(str_at(&get("/drain"), &["note"]), Some(HOSTILE));
    let (status, _, body) = telemetry.handle_post("/snapshot");
    assert_eq!(status, 200, "{body}");
    let bundle_path = str_at(&strict_parse("POST /snapshot", &body), &["written"]).unwrap().to_string();
    get("/snapshot");

    // The snapshot bundle carries all of them at once.
    let bundle = strict_parse("bundle", &std::fs::read_to_string(&bundle_path).unwrap());
    assert_eq!(str_at(&bundle, &["build", "note"]), Some(HOSTILE));
    assert_eq!(str_at(&bundle, &["drain", "note"]), Some(HOSTILE));
    assert!(bundle.get("slow").is_none(), "the trace ring is the bundle's slow-query record");
    assert!(find(bundle.get("stmt").and_then(|s| s.get("statements")).and_then(Json::as_arr), &["query"], &query));
    assert!(find(bundle.get("traces").and_then(Json::as_arr), &["name"], &query));
    assert!(find(bundle.get("alerts").and_then(|a| a.get("rules")).and_then(Json::as_arr), &["name"], HOSTILE));
    assert!(find(bundle.get("flight").and_then(|f| f.get("events")).and_then(Json::as_arr), &["label"], HOSTILE));
    assert_eq!(bundle.get("metrics").and_then(|m| m.get(&series)).and_then(Json::as_u64), Some(1));
    let _ = std::fs::remove_dir_all(&dir);
}

/// One query's fingerprint reads the same — 16 hex digits — in its flight
/// events, its qlog record and its `/top.json` row; its `query_end` event
/// carries the anchor its planned variable chose, and the next query's
/// carries its own.
#[test]
fn fingerprint_is_one_hex_string_across_flight_qlog_and_top() {
    // Query shapes no other test in this binary runs, so their
    // fingerprints pick out this test's events from the process-wide
    // recorder. The two shapes anchor on different atoms.
    const SHAPE: &str = "Retrieve P From PATHS P Where P MATCHES VM(vm_id=50)->HostedOn()->Host()";
    const OTHER: &str = "Retrieve P From PATHS P Where P MATCHES VM()->[HostedOn()]{1,1}->Host(host_id=7)";
    let recorder = nepal::obs::flight::recorder();
    recorder.set_enabled(true);
    let path = std::env::temp_dir().join(format!("nepal-fp-qlog-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let graph = demo_graph();
    let mut engine = engine_over(graph.clone());
    let stmt = engine.enable_stmt(8);
    engine.enable_qlog(&path, 1 << 20, 1).unwrap();
    engine.query(SHAPE).unwrap();
    let expected = format!("{:016x}", nepal::obs::fingerprint(SHAPE));

    let line = std::fs::read_to_string(&path).unwrap();
    assert_eq!(str_at(&parse_json(line.trim_end()).unwrap(), &["fp"]), Some(expected.as_str()), "{line}");
    let telemetry = Telemetry::new(engine.metrics.clone(), engine.tracer.clone());
    telemetry.set_stmt(stmt);
    let top = parse_json(&telemetry.handle("/top.json").2).unwrap();
    let row = &top.get("statements").and_then(|s| s.as_arr()).unwrap()[0];
    assert_eq!(str_at(row, &["fingerprint"]), Some(expected.as_str()));
    engine.query(OTHER).unwrap();
    let events = recorder.render_json(std::time::Duration::from_secs(600), usize::MAX);
    // (kind, label) of every event of one query shape.
    let events_of = |shape: &str| -> Vec<(&str, &str)> {
        let fp = format!("{:016x}", nepal::obs::fingerprint(shape));
        events
            .get("events")
            .and_then(|e| e.as_arr())
            .unwrap()
            .iter()
            .filter(|e| str_at(e, &["fp"]) == Some(fp.as_str()))
            .filter_map(|e| Some((str_at(e, &["kind"])?, str_at(e, &["label"]).unwrap_or(""))))
            .collect()
    };
    let anchor_of = |shape: &str| {
        let rpe = shape.split("MATCHES ").nth(1).unwrap();
        let plan = plan_rpe(graph.schema(), &parse_rpe(rpe).unwrap(), &GraphEstimator { graph: &graph }).unwrap();
        plan.anchor_desc(&plan.anchor)
    };
    let (ours, other) = (events_of(SHAPE), events_of(OTHER));
    assert_eq!(ours.iter().map(|&(kind, _)| kind).collect::<Vec<_>>(), ["query_start", "query_end"], "{events}");
    assert_eq!(ours[1].1, anchor_of(SHAPE));
    assert_eq!(ours[1].1, "VM(vm_id=50)");
    assert_eq!(other.last().copied(), Some(("query_end", anchor_of(OTHER).as_str())));
    assert_eq!(anchor_of(OTHER), "Host(host_id=7)");
    let _ = std::fs::remove_file(&path);
}
