//! Cross-crate integration tests: the full stack end to end — ONAP-scale
//! workload, the three backends returning identical answers through the
//! engine, translator snapshots, and the wire protocol over real TCP.

use std::sync::Arc;

use nepal::core::{engine_over, Backend, BackendRegistry, Engine, GremlinBackend, NativeBackend, RelationalBackend};
use nepal::gremlin::{property_graph_from, GremlinClient, GremlinServer};
use nepal::schema::Value;
use nepal::workload::{generate_virtualized, VirtParams};

fn small_topo() -> nepal::workload::VirtTopology {
    generate_virtualized(VirtParams {
        services: 3,
        vnfs_per_service: 2,
        vfcs_per_vnf: 3,
        containers_per_vfc: 2,
        hosts: 12,
        tor_switches: 4,
        spine_switches: 2,
        routers: 2,
        vnets: 8,
        vrouters: 4,
        racks: 2,
        datacenters: 1,
        ..Default::default()
    })
}

#[test]
fn all_three_backends_agree_through_the_engine() {
    let topo = small_topo();
    let graph = Arc::new(topo.graph);
    let queries = [
        "Retrieve P From PATHS P Where P MATCHES VNF()->[Vertical()]{1,6}->Host()",
        "Retrieve P From PATHS P Where P MATCHES Container(status='Green')->OnServer()->Host()",
        "Retrieve P From PATHS P Where P MATCHES ComposedOf()->ComposedOf()",
    ];

    let collect = |engine: &mut Engine| -> Vec<Vec<Vec<u64>>> {
        queries
            .iter()
            .map(|q| {
                let r = engine.query(q).unwrap();
                let mut v: Vec<Vec<u64>> =
                    r.rows.iter().map(|row| row.pathways[0].1.elems.iter().map(|u| u.0).collect()).collect();
                v.sort();
                v
            })
            .collect()
    };

    let mut native = engine_over(graph.clone());
    let native_results = collect(&mut native);

    let rel = RelationalBackend::from_graph(&graph).unwrap();
    let mut rel_engine = Engine::new(BackendRegistry::new("pg", Box::new(rel)));
    let rel_results = collect(&mut rel_engine);
    assert_eq!(native_results, rel_results, "relational differs");

    let pg = Arc::new(property_graph_from(&graph));
    let server = GremlinServer::start(pg).unwrap();
    let client = GremlinClient::new(server.connect().unwrap());
    let gremlin = GremlinBackend::new(client, graph.schema().clone());
    let mut g_engine = Engine::new(BackendRegistry::new("g", Box::new(gremlin)));
    let g_results = collect(&mut g_engine);
    assert_eq!(native_results, g_results, "gremlin differs");
}

#[test]
fn translator_snapshots() {
    // The profiled SQL script has the §5.2 shape: Select into a TEMP table,
    // then Extends joining per-class tables with uid_list cycle predicates.
    let topo = small_topo();
    let graph = Arc::new(topo.graph);
    let rel = RelationalBackend::from_graph(&graph).unwrap();
    let mut engine = Engine::new(BackendRegistry::new("pg", Box::new(rel)));
    let vnf_id = match &graph.current_version(topo.vnfs[0]).unwrap().fields()[0] {
        Value::Int(i) => *i,
        _ => unreachable!(),
    };
    let (_, profile) = engine
        .query_profiled(&format!(
            "Retrieve P From PATHS P Where P MATCHES VNF(vnf_id={vnf_id})->[Vertical()]{{1,6}}->Host()"
        ))
        .unwrap();
    let sql = profile.vars[0].generated.join("\n");
    for needle in [
        "create TEMP table tmp_select_node_1",
        "ARRAY[N.id_] as uid_list",
        "concept_list",
        "NOT H.id_ = ANY(T.uid_list)",
        "where N.vnf_id = ",
    ] {
        assert!(sql.contains(needle), "missing `{needle}` in:\n{sql}");
    }
    // The DDL phase renders INHERITS.
    let mut db = nepal::relational::RelDb::new();
    let ddl = nepal::relational::create_schema(&mut db, graph.schema()).unwrap();
    assert!(ddl.iter().any(|d| d.contains("INHERITS(vm)")));
    assert!(ddl.iter().any(|d| d.starts_with("CREATE TABLE uids")));
}

#[test]
fn wire_protocol_survives_concurrent_clients() {
    let topo = small_topo();
    let graph = Arc::new(topo.graph);
    let pg = Arc::new(property_graph_from(&graph));
    let server = GremlinServer::start(pg).unwrap();
    let addr = server.addr;
    let mut handles = Vec::new();
    for _ in 0..4 {
        let h = std::thread::spawn(move || {
            let conn = std::net::TcpStream::connect(addr).unwrap();
            conn.set_nodelay(true).unwrap();
            let mut client = GremlinClient::new(conn);
            let mut total = 0usize;
            for _ in 0..20 {
                total +=
                    client.submit(&[nepal::gremlin::GStep::V(vec![]), nepal::gremlin::GStep::Count]).unwrap().len();
            }
            total
        });
        handles.push(h);
    }
    for h in handles {
        assert_eq!(h.join().unwrap(), 20);
    }
}

#[test]
fn engine_handles_onap_scale_default_topology() {
    // Full default scale (~2k nodes / ~11k edges): a realistic end-to-end
    // smoke test of the query pipeline.
    let topo = generate_virtualized(VirtParams::default());
    let graph = Arc::new(topo.graph);
    let mut engine = engine_over(graph.clone());
    let r = engine
        .query(
            "Select source(P).vnf_name From PATHS P \
             Where P MATCHES VNF()->[Vertical()]{1,6}->Host(host_id=1015)",
        )
        .unwrap();
    // host_id 1015 may or may not exist depending on id assignment; the
    // query must simply run. Check a guaranteed-nonempty one as well.
    let _ = r;
    let vnf_id = match &graph.current_version(topo.vnfs[0]).unwrap().fields()[0] {
        Value::Int(i) => *i,
        _ => unreachable!(),
    };
    let r2 = engine
        .query(&format!(
            "Select target(P).host_id From PATHS P \
             Where P MATCHES VNF(vnf_id={vnf_id})->[Vertical()]{{1,6}}->Host()"
        ))
        .unwrap();
    assert!(!r2.rows.is_empty());
}

#[test]
fn backend_trait_objects_compose() {
    // The registry accepts heterogeneous trait objects and routes by name.
    let topo = small_topo();
    let graph = Arc::new(topo.graph);
    let mut registry = BackendRegistry::new("native", Box::new(NativeBackend::new(graph.clone())));
    registry.add("pg", Box::new(RelationalBackend::from_graph(&graph).unwrap()) as Box<dyn Backend>);
    let mut engine = Engine::new(registry);
    let r = engine
        .query(
            "Retrieve A, B From PATHS A, PATHS B USING pg \
             Where A MATCHES VNF()->ComposedOf()->VFC() \
             And B MATCHES VFC()->OnVM()->Container() \
             And target(A) = source(B)",
        )
        .unwrap();
    assert!(!r.rows.is_empty());
    for row in &r.rows {
        let a = &row.pathways.iter().find(|(v, _)| v == "A").unwrap().1;
        let b = &row.pathways.iter().find(|(v, _)| v == "B").unwrap().1;
        assert_eq!(a.target(), b.source());
    }
}
